//! Mutation-style detection tests: for every conformance rule, inject
//! exactly that violation into otherwise-legal traffic and assert the
//! monitor flags it — with the right rule, cycle, channel, and ID — and
//! flags nothing else.
//!
//! Together with `rule_coverage_is_total` at the bottom, these tests prove
//! the twelve rules in [`Rule::ALL`] each have a paired injection. Every
//! injection runs under both kernels, which must agree on the verdict: the
//! stepping kernel ticks the monitor every cycle, the arena kernel drains it
//! in bulk.

use std::collections::BTreeMap;

use axi4::{Addr, ArBeat, AwBeat, BBeat, BurstKind, BurstLen, BurstSize, RBeat, TxnId, WBeat};
use axi_conformance::{PortCounters, ProtocolMonitor, Rule, Violation};
use axi_sim::{AxiBundle, ChannelPool, Component, ComponentId, KernelMode, Sim, TickCtx};

/// Every kernel, the stepping reference first.
const KERNELS: [KernelMode; 2] = [KernelMode::Step, KernelMode::Arena];

fn aw(id: u32, addr: u64, beats: u16) -> AwBeat {
    AwBeat::new(
        TxnId::new(id),
        Addr::new(addr),
        BurstLen::new(beats).unwrap(),
        BurstSize::bus64(),
        BurstKind::Incr,
    )
}

fn ar(id: u32, addr: u64, beats: u16) -> ArBeat {
    ArBeat::new(
        TxnId::new(id),
        Addr::new(addr),
        BurstLen::new(beats).unwrap(),
        BurstSize::bus64(),
        BurstKind::Incr,
    )
}

/// Everything a monitor reports after a run.
#[derive(PartialEq, Debug)]
struct Verdict {
    violations: Vec<Violation>,
    rule_hits: BTreeMap<Rule, u64>,
    counters: PortCounters,
}

impl Verdict {
    fn of(sim: &Sim, mon: ComponentId) -> Self {
        let monitor = sim.component::<ProtocolMonitor>(mon).unwrap();
        Self {
            violations: monitor.violations().to_vec(),
            rule_hits: monitor.rule_hits().clone(),
            counters: monitor.counters(),
        }
    }
}

/// Runs `scenario` on a fresh [`Rig`] under every kernel, asserts that all
/// kernels reach the stepping kernel's verdict, and returns its violations.
fn verdict(scenario: impl Fn(&mut Rig)) -> Vec<Violation> {
    let verdicts: Vec<Verdict> = KERNELS
        .iter()
        .map(|&mode| {
            let mut rig = Rig::new(mode);
            scenario(&mut rig);
            rig.finish()
        })
        .collect();
    for (mode, v) in KERNELS.iter().zip(&verdicts) {
        assert_eq!(v, &verdicts[0], "{mode:?} kernel disagrees with stepping");
    }
    verdicts[0].violations.clone()
}

/// A hand-driven port: pushes beats cycle by cycle, pops whatever shows up
/// on the far side, and returns the monitor's verdict.
struct Rig {
    sim: Sim,
    bundle: AxiBundle,
    mon: ComponentId,
}

impl Rig {
    fn new(mode: KernelMode) -> Self {
        let mut sim = Sim::new();
        sim.set_kernel_mode(mode);
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let mon = ProtocolMonitor::attach(&mut sim, "rig", bundle);
        Self { sim, bundle, mon }
    }

    fn push_aw(&mut self, beat: AwBeat) {
        let c = self.sim.cycle();
        self.sim.pool_mut().pop(self.bundle.aw, c);
        self.sim.pool_mut().push(self.bundle.aw, c, beat);
        self.sim.run(1);
    }

    fn push_w(&mut self, beat: WBeat) {
        let c = self.sim.cycle();
        self.sim.pool_mut().pop(self.bundle.w, c);
        self.sim.pool_mut().push(self.bundle.w, c, beat);
        self.sim.run(1);
    }

    fn push_ar(&mut self, beat: ArBeat) {
        let c = self.sim.cycle();
        self.sim.pool_mut().pop(self.bundle.ar, c);
        self.sim.pool_mut().push(self.bundle.ar, c, beat);
        self.sim.run(1);
    }

    fn push_b(&mut self, beat: BBeat) {
        let c = self.sim.cycle();
        self.sim.pool_mut().pop(self.bundle.b, c);
        self.sim.pool_mut().push(self.bundle.b, c, beat);
        self.sim.run(1);
    }

    fn push_r(&mut self, beat: RBeat) {
        let c = self.sim.cycle();
        self.sim.pool_mut().pop(self.bundle.r, c);
        self.sim.pool_mut().push(self.bundle.r, c, beat);
        self.sim.run(1);
    }

    /// Lets in-flight beats settle, then returns the monitor's verdict.
    fn finish(mut self) -> Verdict {
        // Drain any leftovers so the monitor has seen everything.
        for _ in 0..4 {
            let c = self.sim.cycle();
            self.sim.pool_mut().pop(self.bundle.aw, c);
            self.sim.pool_mut().pop(self.bundle.w, c);
            self.sim.pool_mut().pop(self.bundle.b, c);
            self.sim.pool_mut().pop(self.bundle.ar, c);
            self.sim.pool_mut().pop(self.bundle.r, c);
            self.sim.run(1);
        }
        Verdict::of(&self.sim, self.mon)
    }
}

/// Asserts exactly one violation of `rule` on `channel` with `id`, at the
/// cycle the offending beat was pushed.
#[track_caller]
fn assert_single(violations: &[Violation], rule: Rule, cycle: u64, channel: &str, id: Option<u32>) {
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one violation, got {violations:#?}"
    );
    let v = &violations[0];
    assert_eq!(v.rule, rule, "wrong rule: {v}");
    assert_eq!(v.cycle, cycle, "wrong cycle: {v}");
    assert_eq!(v.channel, channel, "wrong channel: {v}");
    assert_eq!(v.id, id.map(TxnId::new), "wrong id: {v}");
    assert!(!v.detail.is_empty());
}

// ---------------------------------------------------------------- AW rules

#[test]
fn detects_aw_burst_illegal() {
    let violations = verdict(|rig| {
        // WRAP burst of 3 beats: not a power of two — illegal, but no 4K issue.
        let bad = AwBeat::new(
            TxnId::new(7),
            Addr::new(0x1000),
            BurstLen::new(3).unwrap(),
            BurstSize::bus64(),
            BurstKind::Wrap,
        );
        rig.push_aw(bad);
        for i in 0..3 {
            rig.push_w(WBeat::full(i, i == 2));
        }
        rig.push_b(BBeat::okay(TxnId::new(7)));
    });
    assert_single(&violations, Rule::AwBurstIllegal, 0, "AW", Some(7));
}

#[test]
fn detects_aw_crossing_4k() {
    let violations = verdict(|rig| {
        // 4 beats of 8 bytes starting 8 bytes before a 4 KiB boundary.
        rig.push_aw(aw(3, 0x1ff8, 4));
        for i in 0..4 {
            rig.push_w(WBeat::full(i, i == 3));
        }
        rig.push_b(BBeat::okay(TxnId::new(3)));
    });
    assert_single(&violations, Rule::AwCross4K, 0, "AW", Some(3));
}

// ---------------------------------------------------------------- AR rules

#[test]
fn detects_ar_burst_illegal() {
    let violations = verdict(|rig| {
        let bad = ArBeat::new(
            TxnId::new(5),
            Addr::new(0x2000),
            BurstLen::new(32).unwrap(),
            BurstSize::bus64(),
            BurstKind::Fixed, // FIXED bursts max out at 16 beats
        );
        rig.push_ar(bad);
        for i in 0..32u64 {
            rig.push_r(RBeat::okay(TxnId::new(5), i, i == 31));
        }
    });
    assert_single(&violations, Rule::ArBurstIllegal, 0, "AR", Some(5));
}

#[test]
fn detects_ar_crossing_4k() {
    let violations = verdict(|rig| {
        rig.push_ar(ar(9, 0x3ff0, 4));
        for i in 0..4u64 {
            rig.push_r(RBeat::okay(TxnId::new(9), i, i == 3));
        }
    });
    assert_single(&violations, Rule::ArCross4K, 0, "AR", Some(9));
}

// ----------------------------------------------------------------- W rules

#[test]
fn detects_early_wlast() {
    let violations = verdict(|rig| {
        rig.push_aw(aw(1, 0x1000, 4)); // cycle 0
        rig.push_w(WBeat::full(0xa, false)); // cycle 1
        rig.push_w(WBeat::full(0xb, true)); // cycle 2: WLAST on beat 2 of 4
        rig.push_b(BBeat::okay(TxnId::new(1)));
    });
    assert_single(&violations, Rule::WlastEarly, 2, "W", Some(1));
}

#[test]
fn detects_missing_wlast() {
    let violations = verdict(|rig| {
        rig.push_aw(aw(2, 0x1000, 2)); // cycle 0
        rig.push_w(WBeat::full(0xa, false)); // cycle 1
        rig.push_w(WBeat::full(0xb, false)); // cycle 2: final beat, no WLAST
        rig.push_b(BBeat::okay(TxnId::new(2)));
    });
    assert_single(&violations, Rule::WlastMissing, 2, "W", Some(2));
}

#[test]
fn detects_orphan_w_beat() {
    let violations = verdict(|rig| {
        // Data with no AW ever issued.
        rig.push_w(WBeat::full(0xdead, true)); // cycle 0
    });
    assert_single(&violations, Rule::WOrphan, 0, "W", None);
}

// ----------------------------------------------------------------- B rules

#[test]
fn detects_orphan_b_response() {
    let violations = verdict(|rig| {
        // A complete, legal write with ID 1...
        rig.push_aw(aw(1, 0x1000, 1)); // cycle 0
        rig.push_w(WBeat::full(1, true)); // cycle 1
        rig.push_b(BBeat::okay(TxnId::new(1))); // cycle 2

        // ...then a response for an ID that never issued a write.
        rig.push_b(BBeat::okay(TxnId::new(4))); // cycle 3
    });
    assert_single(&violations, Rule::BOrphan, 3, "B", Some(4));
}

#[test]
fn detects_b_before_wlast() {
    let violations = verdict(|rig| {
        rig.push_aw(aw(6, 0x1000, 4)); // cycle 0
        rig.push_w(WBeat::full(0, false)); // cycle 1: burst is mid-data
        rig.push_b(BBeat::okay(TxnId::new(6))); // cycle 2: response too soon
    });
    assert_eq!(violations.len(), 1, "{violations:#?}");
    assert_single(&violations, Rule::BBeforeWlast, 2, "B", Some(6));
}

// ----------------------------------------------------------------- R rules

#[test]
fn detects_orphan_r_beat() {
    let violations = verdict(|rig| {
        rig.push_r(RBeat::okay(TxnId::new(8), 42, true)); // cycle 0
    });
    assert_single(&violations, Rule::ROrphan, 0, "R", Some(8));
}

#[test]
fn detects_early_rlast() {
    let violations = verdict(|rig| {
        rig.push_ar(ar(3, 0x2000, 4)); // cycle 0
        rig.push_r(RBeat::okay(TxnId::new(3), 0, false)); // cycle 1
        rig.push_r(RBeat::okay(TxnId::new(3), 1, true)); // cycle 2: 2 of 4
    });
    assert_single(&violations, Rule::RlastEarly, 2, "R", Some(3));
}

#[test]
fn detects_missing_rlast() {
    let violations = verdict(|rig| {
        rig.push_ar(ar(2, 0x2000, 2)); // cycle 0
        rig.push_r(RBeat::okay(TxnId::new(2), 0, false)); // cycle 1
        rig.push_r(RBeat::okay(TxnId::new(2), 1, false)); // cycle 2: no RLAST
    });
    assert_single(&violations, Rule::RlastMissing, 2, "R", Some(2));
}

/// Reordering same-ID read data across bursts surfaces as RLAST
/// misplacement: AXI4 requires same-ID responses in request order, and the
/// monitor attributes each beat to the oldest outstanding read of that ID.
#[test]
fn detects_reordered_same_id_reads() {
    let violations = verdict(|rig| {
        rig.push_ar(ar(1, 0x1000, 2)); // cycle 0: first burst, 2 beats
        rig.push_ar(ar(1, 0x2000, 1)); // cycle 1: second burst, 1 beat

        // The interconnect illegally answers the second burst first: a lone
        // beat with RLAST, attributed to the first (2-beat) burst.
        rig.push_r(RBeat::okay(TxnId::new(1), 99, true)); // cycle 2

        // Then the first burst's two beats, now landing on the 1-beat burst.
        rig.push_r(RBeat::okay(TxnId::new(1), 0, false)); // cycle 3
        rig.push_r(RBeat::okay(TxnId::new(1), 1, true)); // cycle 4
    });
    assert!(
        violations.iter().any(|v| v.rule == Rule::RlastEarly),
        "reordering must surface as RLAST misplacement: {violations:#?}"
    );
    assert!(violations.iter().all(|v| v.id == Some(TxnId::new(1))));
}

// -------------------------------------------------------------- fold order

/// One tick that drains a span of cycles must check each beat against the
/// state at its own push cycle, not replay the span channel by channel:
/// a B pushed before its write's WLAST, and an R pushed before its AR, are
/// both violations even though a channel-ordered replay of the same drain
/// would see the WLAST and the AR first.
#[test]
fn one_drain_over_many_cycles_folds_in_push_order() {
    let mut pool = ChannelPool::new();
    let bundle = AxiBundle::with_defaults(&mut pool);
    let mut monitor = ProtocolMonitor::new("span", bundle, &mut pool);
    pool.push(bundle.aw, 0, aw(1, 0x1000, 2));
    pool.push(bundle.w, 1, WBeat::full(0, false));
    pool.push(bundle.b, 1, BBeat::okay(TxnId::new(1))); // before WLAST
    pool.push(bundle.w, 2, WBeat::full(1, true));
    pool.push(bundle.r, 3, RBeat::okay(TxnId::new(5), 0, true)); // before AR
    pool.push(bundle.ar, 4, ar(5, 0x2000, 1));
    monitor.tick(&mut TickCtx {
        cycle: 4,
        pool: &mut pool,
    });
    let found: Vec<(Rule, u64, &str)> = monitor
        .violations()
        .iter()
        .map(|v| (v.rule, v.cycle, v.channel))
        .collect();
    assert_eq!(
        found,
        [(Rule::BBeforeWlast, 1, "B"), (Rule::ROrphan, 3, "R")],
        "{:#?}",
        monitor.violations()
    );
    assert_eq!(pool.tap_backlog(), 0);
}

/// One scripted push per channel and cycle.
#[derive(Clone, Copy)]
enum Beat {
    Aw(AwBeat),
    W(WBeat),
    Ar(ArBeat),
    B(BBeat),
    R(RBeat),
}

/// Plays both ends of one port from a script, `script[cycle]` pushed at
/// `cycle`, and pops every visible beat so the wires never fill. It
/// declares no ports, so every kernel keeps it ticking each cycle.
struct Driver {
    bundle: AxiBundle,
    script: Vec<Vec<Beat>>,
}

impl Component for Driver {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let (c, b) = (ctx.cycle, self.bundle);
        ctx.pool.pop(b.aw, c);
        ctx.pool.pop(b.w, c);
        ctx.pool.pop(b.ar, c);
        ctx.pool.pop(b.b, c);
        ctx.pool.pop(b.r, c);
        for beat in self.script.get(c as usize).into_iter().flatten() {
            match *beat {
                Beat::Aw(x) => ctx.pool.push(b.aw, c, x),
                Beat::W(x) => ctx.pool.push(b.w, c, x),
                Beat::Ar(x) => ctx.pool.push(b.ar, c, x),
                Beat::B(x) => ctx.pool.push(b.b, c, x),
                Beat::R(x) => ctx.pool.push(b.r, c, x),
            }
        }
    }
}

/// A `run_until` whose predicate stops the run early must still return
/// with the monitor fully drained, matching stepping exactly.
#[test]
fn run_until_early_stop_leaves_monitor_drained() {
    let id = TxnId::new;
    let script = vec![
        vec![Beat::Aw(aw(1, 0x1000, 4))],
        vec![Beat::W(WBeat::full(0, false))],
        vec![Beat::W(WBeat::full(1, false)), Beat::Ar(ar(2, 0x2000, 2))],
        vec![
            Beat::B(BBeat::okay(id(1))),
            Beat::R(RBeat::okay(id(2), 0, false)),
        ],
        vec![
            Beat::W(WBeat::full(2, false)),
            Beat::R(RBeat::okay(id(2), 1, true)),
        ],
        vec![Beat::W(WBeat::full(3, true))],
        vec![Beat::B(BBeat::okay(id(1)))],
        vec![Beat::R(RBeat::okay(id(7), 0, true))],
        // Past the stop cycle: never pushed.
        vec![Beat::Aw(aw(3, 0x3000, 1))],
        vec![Beat::W(WBeat::full(4, true))],
    ];
    let verdicts: Vec<Verdict> = KERNELS
        .iter()
        .map(|&mode| {
            let mut sim = Sim::new();
            sim.set_kernel_mode(mode);
            let bundle = AxiBundle::with_defaults(sim.pool_mut());
            sim.add(Driver {
                bundle,
                script: script.clone(),
            });
            let mon = ProtocolMonitor::attach(&mut sim, "early", bundle);
            assert!(sim.run_until(100, |s| s.cycle() >= 8), "{mode:?}");
            assert_eq!(sim.cycle(), 8, "{mode:?}");
            assert_eq!(sim.pool().tap_backlog(), 0, "{mode:?}: undrained taps");
            Verdict::of(&sim, mon)
        })
        .collect();
    for (mode, v) in KERNELS.iter().zip(&verdicts) {
        assert_eq!(v, &verdicts[0], "{mode:?} kernel disagrees with stepping");
    }
    let v = &verdicts[0];
    let found: Vec<(Rule, u64)> = v.violations.iter().map(|v| (v.rule, v.cycle)).collect();
    assert_eq!(found, [(Rule::BBeforeWlast, 3), (Rule::ROrphan, 7)]);
    // Every beat of cycles 0..8 was folded, nothing after.
    assert_eq!(
        (v.counters.aw_bursts, v.counters.w_beats, v.counters.b_resps),
        (1, 4, 2)
    );
    assert_eq!((v.counters.ar_bursts, v.counters.r_beats), (1, 3));
}

/// Every rule in [`Rule::ALL`] is exercised by a test in this file.
#[test]
fn rule_coverage_is_total() {
    let covered = [
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
    for rule in Rule::ALL {
        assert!(
            covered.contains(&rule),
            "rule {rule} has no paired injection test"
        );
    }
}
