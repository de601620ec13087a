//! The passive per-port protocol monitor.
//!
//! A [`ProtocolMonitor`] watches one [`AxiBundle`] through wire taps: every
//! beat accepted onto any of the port's five wires is delivered to the
//! monitor exactly once, with its push cycle, regardless of component tick
//! order, back-to-back identical payloads, or kernel fast-forward jumps
//! (taps fill at push time and keep every record until drained). The
//! monitor never pushes, pops, or peeks a wire, so attaching it cannot
//! perturb simulated behaviour. It is a
//! [tap observer](axi_sim::Component::tap_observer): its state is a fold
//! over the stamped records in push order, so the arena kernel drains it
//! in bulk rather than ticking it every cycle.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use axi4::{ArBeat, AwBeat, BBeat, ProtocolError, RBeat, TxnId, WBeat};
use axi_sim::{AxiBundle, ChannelPool, Component, ComponentId, Cycle, Sim, TickCtx};

/// The AXI4 protocol rules a [`ProtocolMonitor`] enforces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rule {
    /// AW burst parameters violate the AXI4 burst rules (length, size,
    /// WRAP/FIXED constraints, exclusive-access limits).
    AwBurstIllegal,
    /// AW INCR burst crosses a 4 KiB boundary.
    AwCross4K,
    /// AR burst parameters violate the AXI4 burst rules.
    ArBurstIllegal,
    /// AR INCR burst crosses a 4 KiB boundary.
    ArCross4K,
    /// WLAST asserted before the burst's final beat.
    WlastEarly,
    /// Final W beat of a burst arrived without WLAST.
    WlastMissing,
    /// W beat with no outstanding write burst to belong to.
    WOrphan,
    /// B response with no outstanding write awaiting one.
    BOrphan,
    /// B response issued before the write's WLAST beat.
    BBeforeWlast,
    /// R beat with no outstanding read of its ID.
    ROrphan,
    /// RLAST asserted before the read burst's final beat.
    RlastEarly,
    /// Final R beat of a read burst arrived without RLAST.
    RlastMissing,
}

impl Rule {
    /// Every enforced rule, in channel order — mutation tests iterate this
    /// to prove each rule has a paired injection.
    pub const ALL: [Rule; 12] = [
        Rule::AwBurstIllegal,
        Rule::AwCross4K,
        Rule::ArBurstIllegal,
        Rule::ArCross4K,
        Rule::WlastEarly,
        Rule::WlastMissing,
        Rule::WOrphan,
        Rule::BOrphan,
        Rule::BBeforeWlast,
        Rule::ROrphan,
        Rule::RlastEarly,
        Rule::RlastMissing,
    ];

    /// Short stable identifier, used in report text.
    pub const fn label(self) -> &'static str {
        match self {
            Rule::AwBurstIllegal => "AW_BURST_ILLEGAL",
            Rule::AwCross4K => "AW_CROSS_4K",
            Rule::ArBurstIllegal => "AR_BURST_ILLEGAL",
            Rule::ArCross4K => "AR_CROSS_4K",
            Rule::WlastEarly => "WLAST_EARLY",
            Rule::WlastMissing => "WLAST_MISSING",
            Rule::WOrphan => "W_ORPHAN",
            Rule::BOrphan => "B_ORPHAN",
            Rule::BBeforeWlast => "B_BEFORE_WLAST",
            Rule::ROrphan => "R_ORPHAN",
            Rule::RlastEarly => "RLAST_EARLY",
            Rule::RlastMissing => "RLAST_MISSING",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One observed protocol violation: which rule, where, and when.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The rule that was broken.
    pub rule: Rule,
    /// Push cycle of the offending beat.
    pub cycle: Cycle,
    /// Channel the offending beat appeared on ("AW", "W", "B", "AR", "R").
    pub channel: &'static str,
    /// Transaction ID involved, when attributable (W beats carry no ID; an
    /// orphan W beat has none).
    pub id: Option<TxnId>,
    /// Human-readable specifics (burst parameters, beat counts, …).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {:>8}: [{}] on {}",
            self.cycle, self.rule, self.channel
        )?;
        if let Some(id) = self.id {
            write!(f, " id={id}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Beat- and burst-level counters for one monitored port, the raw material
/// of the scoreboard's conservation checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PortCounters {
    /// AW bursts observed.
    pub aw_bursts: u64,
    /// AR bursts observed.
    pub ar_bursts: u64,
    /// W data beats observed.
    pub w_beats: u64,
    /// W beats with WLAST set.
    pub w_lasts: u64,
    /// R data beats observed.
    pub r_beats: u64,
    /// R beats with RLAST set.
    pub r_lasts: u64,
    /// B responses observed.
    pub b_resps: u64,
    /// Sum of AW burst lengths: W beats the port has promised.
    pub write_beats_expected: u64,
    /// Sum of AR burst lengths: R beats the port is owed.
    pub read_beats_expected: u64,
    /// Error responses (`SLVERR`/`DECERR`) on B or R.
    pub err_resps: u64,
}

/// Upper bound on retained [`Violation`] records per monitor; a pathological
/// component cannot balloon memory, further violations only count.
const MAX_VIOLATIONS: usize = 1024;

/// An in-flight write burst: AW seen, W data still arriving.
#[derive(Debug)]
struct WriteTrack {
    id: TxnId,
    len: u16,
    beats: u16,
}

/// An in-flight read burst of one ID: AR seen, R data still arriving.
#[derive(Debug)]
struct ReadTrack {
    len: u16,
    beats: u16,
}

/// A passive AXI4 protocol checker attached to one port.
///
/// Attach with [`ProtocolMonitor::new`] (which taps the bundle's wires) and
/// register it with the simulator like any component. After a run, inspect
/// [`ProtocolMonitor::violations`] and [`ProtocolMonitor::counters`], or
/// aggregate several monitors into a
/// [`ConformanceReport`](crate::ConformanceReport).
#[derive(Debug)]
pub struct ProtocolMonitor {
    name: String,
    bundle: AxiBundle,
    violations: Vec<Violation>,
    violations_dropped: u64,
    // Exact per-rule observation counts, unaffected by the MAX_VIOLATIONS
    // retention bound — the rule axis of the coverage signature.
    rule_hits: BTreeMap<Rule, u64>,
    counters: PortCounters,
    // Outstanding writes in AW order. W carries no ID in AXI4 and this
    // workspace issues AW before its W burst, so data beats attach to the
    // oldest write still missing beats.
    writes: VecDeque<WriteTrack>,
    // Writes whose data completed, per ID, awaiting exactly one B each.
    // Entries stay when their count drops to zero (zero reads as absent),
    // so a steady stream of same-ID writes never re-inserts.
    pending_b: BTreeMap<TxnId, u32>,
    // Outstanding reads per ID, oldest first: AXI4 requires same-ID read
    // data in request order, so each R beat attaches to the oldest
    // outstanding read of its ID. Same-ID reordering by the interconnect
    // surfaces as RLAST misplacement. Emptied queues stay (empty reads as
    // absent), so the next burst of an ID reuses its allocation.
    reads: BTreeMap<TxnId, VecDeque<ReadTrack>>,
}

impl ProtocolMonitor {
    /// Creates a monitor for `bundle`, enabling taps on its five wires.
    pub fn new(name: impl Into<String>, bundle: AxiBundle, pool: &mut ChannelPool) -> Self {
        pool.enable_tap(bundle.aw);
        pool.enable_tap(bundle.w);
        pool.enable_tap(bundle.b);
        pool.enable_tap(bundle.ar);
        pool.enable_tap(bundle.r);
        Self {
            name: name.into(),
            bundle,
            violations: Vec::new(),
            violations_dropped: 0,
            rule_hits: BTreeMap::new(),
            counters: PortCounters::default(),
            writes: VecDeque::new(),
            pending_b: BTreeMap::new(),
            reads: BTreeMap::new(),
        }
    }

    /// Creates a monitor for `bundle` and registers it with `sim` in one
    /// step, returning the handle to collect results from later.
    pub fn attach(sim: &mut Sim, name: impl Into<String>, bundle: AxiBundle) -> ComponentId {
        let monitor = Self::new(name, bundle, sim.pool_mut());
        sim.add(monitor)
    }

    /// The monitored bundle.
    pub fn bundle(&self) -> AxiBundle {
        self.bundle
    }

    /// All recorded violations, oldest first (bounded; see
    /// [`ProtocolMonitor::violations_dropped`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations beyond the retention bound, counted instead of stored.
    pub fn violations_dropped(&self) -> u64 {
        self.violations_dropped
    }

    /// `true` if no violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.violations_dropped == 0
    }

    /// Beat and burst counters observed so far.
    pub fn counters(&self) -> PortCounters {
        self.counters
    }

    /// Transactions currently outstanding at this port: writes awaiting
    /// data or response, plus reads awaiting data.
    pub fn outstanding(&self) -> usize {
        self.writes.len()
            + self.pending_b.values().map(|&n| n as usize).sum::<usize>()
            + self.reads.values().map(VecDeque::len).sum::<usize>()
    }

    /// `true` if every observed transaction has fully completed — the
    /// precondition for the scoreboard's exact conservation equalities.
    pub fn is_drained(&self) -> bool {
        self.outstanding() == 0
    }

    /// Exact per-rule observation counts (not subject to the
    /// `MAX_VIOLATIONS` retention bound on stored records).
    pub fn rule_hits(&self) -> &BTreeMap<Rule, u64> {
        &self.rule_hits
    }

    fn record(&mut self, violation: Violation) {
        // Count before the retention bound so rule_hits stays exact even
        // when the stored-record list saturates.
        *self.rule_hits.entry(violation.rule).or_insert(0) += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(violation);
        } else {
            self.violations_dropped += 1;
        }
    }

    fn on_aw(&mut self, cycle: Cycle, beat: AwBeat) {
        self.counters.aw_bursts += 1;
        self.counters.write_beats_expected += u64::from(beat.len.beats());
        if let Err(error) = beat.validate() {
            let rule = match error {
                ProtocolError::Crosses4K { .. } => Rule::AwCross4K,
                _ => Rule::AwBurstIllegal,
            };
            self.record(Violation {
                rule,
                cycle,
                channel: "AW",
                id: Some(beat.id),
                detail: error.to_string(),
            });
        }
        self.writes.push_back(WriteTrack {
            id: beat.id,
            len: beat.len.beats(),
            beats: 0,
        });
    }

    fn on_w(&mut self, cycle: Cycle, beat: WBeat) {
        self.counters.w_beats += 1;
        if beat.last {
            self.counters.w_lasts += 1;
        }
        let Some(track) = self.writes.front_mut() else {
            self.record(Violation {
                rule: Rule::WOrphan,
                cycle,
                channel: "W",
                id: None,
                detail: "data beat with no outstanding write burst".to_owned(),
            });
            return;
        };
        track.beats += 1;
        let (id, len, beats) = (track.id, track.len, track.beats);
        // WLAST terminates the burst; so does reaching the promised length.
        // Either way the track retires and a B response becomes legal.
        if beat.last && beats < len {
            self.record(Violation {
                rule: Rule::WlastEarly,
                cycle,
                channel: "W",
                id: Some(id),
                detail: format!("WLAST on beat {beats} of {len}"),
            });
        } else if !beat.last && beats == len {
            self.record(Violation {
                rule: Rule::WlastMissing,
                cycle,
                channel: "W",
                id: Some(id),
                detail: format!("final beat {beats} of {len} without WLAST"),
            });
        }
        if beat.last || beats == len {
            self.writes.pop_front();
            *self.pending_b.entry(id).or_insert(0) += 1;
        }
    }

    fn on_ar(&mut self, cycle: Cycle, beat: ArBeat) {
        self.counters.ar_bursts += 1;
        self.counters.read_beats_expected += u64::from(beat.len.beats());
        if let Err(error) = beat.validate() {
            let rule = match error {
                ProtocolError::Crosses4K { .. } => Rule::ArCross4K,
                _ => Rule::ArBurstIllegal,
            };
            self.record(Violation {
                rule,
                cycle,
                channel: "AR",
                id: Some(beat.id),
                detail: error.to_string(),
            });
        }
        self.reads.entry(beat.id).or_default().push_back(ReadTrack {
            len: beat.len.beats(),
            beats: 0,
        });
    }

    fn on_b(&mut self, cycle: Cycle, beat: BBeat) {
        self.counters.b_resps += 1;
        if beat.resp.is_err() {
            self.counters.err_resps += 1;
        }
        if let Some(count) = self.pending_b.get_mut(&beat.id).filter(|n| **n > 0) {
            *count -= 1;
            return;
        }
        if self.writes.iter().any(|t| t.id == beat.id) {
            self.record(Violation {
                rule: Rule::BBeforeWlast,
                cycle,
                channel: "B",
                id: Some(beat.id),
                detail: "write response before the burst's WLAST".to_owned(),
            });
        } else {
            self.record(Violation {
                rule: Rule::BOrphan,
                cycle,
                channel: "B",
                id: Some(beat.id),
                detail: "write response with no outstanding write".to_owned(),
            });
        }
    }

    fn on_r(&mut self, cycle: Cycle, beat: RBeat) {
        self.counters.r_beats += 1;
        if beat.last {
            self.counters.r_lasts += 1;
        }
        if beat.resp.is_err() {
            self.counters.err_resps += 1;
        }
        let Some(queue) = self.reads.get_mut(&beat.id).filter(|q| !q.is_empty()) else {
            self.record(Violation {
                rule: Rule::ROrphan,
                cycle,
                channel: "R",
                id: Some(beat.id),
                detail: "read data with no outstanding read of this ID".to_owned(),
            });
            return;
        };
        let track = queue.front_mut().expect("non-empty by filter");
        track.beats += 1;
        let (len, beats) = (track.len, track.beats);
        if beat.last || beats == len {
            queue.pop_front();
        }
        if beat.last && beats < len {
            self.record(Violation {
                rule: Rule::RlastEarly,
                cycle,
                channel: "R",
                id: Some(beat.id),
                detail: format!("RLAST on beat {beats} of {len}"),
            });
        } else if !beat.last && beats == len {
            self.record(Violation {
                rule: Rule::RlastMissing,
                cycle,
                channel: "R",
                id: Some(beat.id),
                detail: format!("final beat {beats} of {len} without RLAST"),
            });
        }
    }
}

/// Push cycle of record `k` of a drained tap, or `Cycle::MAX` once the tap
/// is exhausted (no beat is ever pushed at that cycle).
fn head<T>(tap: &[(Cycle, T)], k: usize) -> Cycle {
    tap.get(k).map_or(Cycle::MAX, |x| x.0)
}

impl Component for ProtocolMonitor {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let port = self.bundle;
        let pool = &*ctx.pool;
        let (aw, w, ar, b, r) = (
            pool.tap(port.aw),
            pool.tap(port.w),
            pool.tap(port.ar),
            pool.tap(port.b),
            pool.tap(port.r),
        );
        // Replay the five taps as one merge by push cycle, ties in causal
        // channel order: requests (AW, W, AR) before responses (B, R). A
        // drain may span many cycles, and a response pushed before its
        // request completes (or before its request exists) must be checked
        // against the state at its own push cycle.
        let mut next = [0usize; 5];
        let mut heads = [head(aw, 0), head(w, 0), head(ar, 0), head(b, 0), head(r, 0)];
        loop {
            let cycle = heads.into_iter().min().expect("five taps");
            if cycle == Cycle::MAX {
                break;
            }
            while heads[0] == cycle {
                self.on_aw(cycle, aw[next[0]].1);
                next[0] += 1;
                heads[0] = head(aw, next[0]);
            }
            while heads[1] == cycle {
                self.on_w(cycle, w[next[1]].1);
                next[1] += 1;
                heads[1] = head(w, next[1]);
            }
            while heads[2] == cycle {
                self.on_ar(cycle, ar[next[2]].1);
                next[2] += 1;
                heads[2] = head(ar, next[2]);
            }
            while heads[3] == cycle {
                self.on_b(cycle, b[next[3]].1);
                next[3] += 1;
                heads[3] = head(b, next[3]);
            }
            while heads[4] == cycle {
                self.on_r(cycle, r[next[4]].1);
                next[4] += 1;
                heads[4] = head(r, next[4]);
            }
        }
        ctx.pool.clear_tap(port.aw);
        ctx.pool.clear_tap(port.w);
        ctx.pool.clear_tap(port.ar);
        ctx.pool.clear_tap(port.b);
        ctx.pool.clear_tap(port.r);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Vec<axi_sim::PortDecl> {
        self.bundle.observer_ports()
    }

    // The tick only drains taps and folds the records in push-cycle order,
    // so a span of cycles drained at once ends in exactly the state of
    // draining it cycle by cycle.
    fn tap_observer(&self) -> bool {
        true
    }

    fn coverage(&self, map: &mut axi_sim::CoverageMap) {
        // Rule coverage: which of the 12 protocol rules this port has
        // *observed firing*, exact counts. Channel-activity keys record
        // which request/response shapes the port carried at all — error
        // responses get their own key since a DECERR path is behaviour a
        // clean run never exercises.
        let prefix = format!("conf.{}", self.name);
        for (rule, hits) in &self.rule_hits {
            map.add(format!("{prefix}.rule.{}", rule.label()), *hits);
        }
        map.add(format!("{prefix}.aw"), self.counters.aw_bursts);
        map.add(format!("{prefix}.ar"), self.counters.ar_bursts);
        map.add(format!("{prefix}.w"), self.counters.w_beats);
        map.add(format!("{prefix}.r"), self.counters.r_beats);
        map.add(format!("{prefix}.b"), self.counters.b_resps);
        map.add(format!("{prefix}.err"), self.counters.err_resps);
    }

    fn telemetry(&self, sink: &mut axi_sim::TelemetrySink) {
        let prefix = format!("conf.{}", self.name);
        sink.counter(&format!("{prefix}.aw_bursts"), self.counters.aw_bursts);
        sink.counter(&format!("{prefix}.ar_bursts"), self.counters.ar_bursts);
        sink.counter(&format!("{prefix}.w_beats"), self.counters.w_beats);
        sink.counter(&format!("{prefix}.r_beats"), self.counters.r_beats);
        sink.counter(&format!("{prefix}.b_resps"), self.counters.b_resps);
        sink.counter(&format!("{prefix}.err_resps"), self.counters.err_resps);
        // Only rules that actually fired get a row — on a clean run the
        // whole rule section is silent, which is the interesting signal.
        for (rule, hits) in &self.rule_hits {
            sink.counter(&format!("{prefix}.rule.{}", rule.label()), *hits);
        }
    }
}
