//! The REALM unit: isolation, splitting, buffering, and regulation in one
//! component between a manager and the interconnect.

use axi4::{fragment_read, fragment_write_header};
use axi_sim::{AxiBundle, Component, CoverageMap, TickCtx};
use realm_telemetry::{trace_path_from_env, Histogram, TelemetrySink};

use crate::config::{DesignConfig, RuntimeConfig};
use crate::counters::UnitStats;
use crate::monitor::BudgetMonitor;
use crate::read_path::ReadPath;
use crate::regs::{shared_regs, SharedRegs};
use crate::write_path::WritePath;

/// Retained trace events per unit (spans and instants each): a trace needs
/// the interesting prefix, not an unbounded log of a long soak run.
const MAX_UNIT_EVENTS: usize = 8192;

/// Telemetry-side state of one unit: latency histograms and the optional
/// trace-event log. Strictly write-only from the unit's perspective —
/// nothing in here ever feeds back into a regulation decision, which is
/// what keeps telemetry on vs. off bit-identical.
#[derive(Debug, Default)]
struct UnitTelemetry {
    /// AR-accept → last-R latency over all completed reads.
    read_latency: Histogram,
    /// AW-accept → coalesced-B latency over all completed writes.
    write_latency: Histogram,
    /// Same, split per address region (index = region index).
    region_read: Vec<Histogram>,
    region_write: Vec<Histogram>,
    /// Trace-event log, armed by `REALM_TRACE` (or
    /// [`RealmUnit::record_events`]); `None` costs nothing per completion.
    events: Option<UnitEventLog>,
}

/// Bounded span/instant log for the Perfetto exporter.
#[derive(Debug, Default)]
struct UnitEventLog {
    /// Completed transaction intervals `(name, start, end)`.
    spans: Vec<(&'static str, u64, u64)>,
    /// Point events `(name, cycle)`.
    instants: Vec<(&'static str, u64)>,
}

impl UnitTelemetry {
    fn new(num_regions: usize, record_events: bool) -> Self {
        Self {
            region_read: (0..num_regions).map(|_| Histogram::new()).collect(),
            region_write: (0..num_regions).map(|_| Histogram::new()).collect(),
            events: record_events.then(UnitEventLog::default),
            ..Self::default()
        }
    }

    fn note_read(&mut self, region: Option<usize>, latency: u64, cycle: u64) {
        self.read_latency.record(latency);
        if let Some(r) = region {
            self.region_read[r].record(latency);
        }
        self.push_span("read", latency, cycle);
    }

    fn note_write(&mut self, region: Option<usize>, latency: u64, cycle: u64) {
        self.write_latency.record(latency);
        if let Some(r) = region {
            self.region_write[r].record(latency);
        }
        self.push_span("write", latency, cycle);
    }

    fn push_span(&mut self, name: &'static str, latency: u64, cycle: u64) {
        if let Some(log) = &mut self.events {
            if log.spans.len() < MAX_UNIT_EVENTS {
                log.spans.push((name, cycle.saturating_sub(latency), cycle));
            }
        }
    }

    fn push_instant(&mut self, name: &'static str, cycle: u64) {
        if let Some(log) = &mut self.events {
            if log.instants.len() < MAX_UNIT_EVENTS {
                log.instants.push((name, cycle));
            }
        }
    }
}

/// The real-time regulation and traffic monitoring unit (paper Fig. 2).
///
/// Sits between a manager's port (`upstream`) and an interconnect port
/// (`downstream`) and applies, per cycle:
///
/// 1. **Isolation** — new transactions are refused while a regulated
///    region's budget is depleted, a user isolation request is pending, or
///    an intrusive reconfiguration is draining; outstanding transactions
///    always complete.
/// 2. **Granular burst splitting** — bursts are fragmented to the
///    configured granularity (respecting AXI4 modifiability rules), and
///    responses are re-merged: `r.last` gated, `B` coalesced.
/// 3. **Write buffering** — a write fragment and its data are forwarded
///    only once fully buffered, removing the W-channel DoS vector.
/// 4. **Monitoring & regulation** — per-region byte budgets on periodic
///    windows, bandwidth/latency/interference counters, optional
///    outstanding-transaction throttling.
///
/// In-flight beats are delayed by one cycle, matching the single cycle of
/// latency the paper reports for the RTL unit.
#[derive(Debug)]
pub struct RealmUnit {
    design: DesignConfig,
    regs: SharedRegs,
    upstream: AxiBundle,
    downstream: AxiBundle,
    active: RuntimeConfig,
    monitor: BudgetMonitor,
    read: ReadPath,
    write: WritePath,
    stats: UnitStats,
    reconfiguring: bool,
    /// Isolation/depletion levels at the end of the previous executed tick,
    /// for rising-edge detection. Both signals only transition at ticks
    /// every kernel executes (charges happen at emission ticks; period
    /// boundaries of mid-period regions are scheduled wakes), so the edge
    /// counters are kernel-invariant.
    was_isolated: bool,
    was_depleted: bool,
    telem: UnitTelemetry,
    name: String,
}

impl RealmUnit {
    /// Creates a unit with the given design parameters and initial runtime
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid (see
    /// [`DesignConfig::validate`] and [`RuntimeConfig::validate`]); unit
    /// instantiation is testbench construction, where failing fast is the
    /// useful behaviour.
    pub fn new(
        design: DesignConfig,
        mut runtime: RuntimeConfig,
        upstream: AxiBundle,
        downstream: AxiBundle,
    ) -> Self {
        design.validate().expect("valid design configuration");
        runtime
            .regions
            .resize_with(design.num_regions, Default::default);
        runtime
            .validate(&design)
            .expect("valid runtime configuration");
        let monitor = BudgetMonitor::new(&runtime);
        let regs = shared_regs(design, runtime.clone());
        let telem = UnitTelemetry::new(design.num_regions, trace_path_from_env().is_some());
        Self {
            design,
            regs,
            upstream,
            downstream,
            active: runtime,
            monitor,
            read: ReadPath::new(design.num_pending),
            write: WritePath::new(design.num_pending, design.write_buffer_depth),
            stats: UnitStats::default(),
            reconfiguring: false,
            was_isolated: false,
            was_depleted: false,
            telem,
            name: "realm".to_owned(),
        }
    }

    /// Arms (or disarms) the bounded trace-event log behind the
    /// [`Component::telemetry`] hook's spans and instants, overriding the
    /// `REALM_TRACE` default. Disarming discards any recorded events.
    /// Event capture never changes regulation behaviour.
    pub fn record_events(&mut self, on: bool) {
        self.telem.events = on.then(UnitEventLog::default);
    }

    /// Replaces the default instance name (`"realm"`) — distinguishes
    /// units in topology snapshots and lint diagnostics.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The design parameters the unit was instantiated with.
    pub fn design(&self) -> DesignConfig {
        self.design
    }

    /// The shared register cell, to be served by a
    /// [`RealmRegFile`](crate::RealmRegFile).
    pub fn regs(&self) -> SharedRegs {
        self.regs.clone()
    }

    /// The manager-facing port.
    pub fn upstream(&self) -> AxiBundle {
        self.upstream
    }

    /// The interconnect-facing port.
    pub fn downstream(&self) -> AxiBundle {
        self.downstream
    }

    /// Unit-level counters.
    pub fn stats(&self) -> UnitStats {
        self.stats
    }

    /// Live view of the budget monitor (regions, budgets, statistics).
    pub fn monitor(&self) -> &BudgetMonitor {
        &self.monitor
    }

    /// The currently applied runtime configuration (intrusive fields may
    /// lag the registers while the unit drains).
    pub fn active_config(&self) -> &RuntimeConfig {
        &self.active
    }

    /// `true` while the ingress refuses new transactions.
    pub fn is_isolated(&self) -> bool {
        self.monitor.any_depleted() || self.active.isolate_request || self.reconfiguring
    }

    /// `true` when no transactions are in flight.
    pub fn is_drained(&self) -> bool {
        self.read.is_drained() && self.write.is_drained()
    }

    /// Pulls configuration written through the register file: non-intrusive
    /// fields apply immediately, intrusive ones (enable, fragmentation
    /// length) trigger an isolate-and-drain before being adopted.
    fn sync_config(&mut self, cycle: u64) {
        // Fast path: no pending command, no drain in progress, and the
        // programmed configuration is already the active one. Everything
        // below is then a no-op, and the clone it starts with is the
        // single biggest per-tick cost of an idle unit.
        {
            let shared = self.regs.borrow();
            if !shared.clear_stats && !self.reconfiguring && shared.runtime == self.active {
                return;
            }
        }
        let mut shared = self.regs.borrow_mut();
        let target = shared.runtime.clone();
        let clear = std::mem::take(&mut shared.clear_stats);
        drop(shared);
        if clear {
            self.monitor.clear_stats();
            self.stats = crate::counters::UnitStats::default();
        }

        self.active.throttle = target.throttle;
        self.active.isolate_request = target.isolate_request;
        for (i, &cfg) in target.regions.iter().enumerate() {
            if self.monitor.regions()[i].config != cfg {
                self.monitor.set_region(i, cfg, cycle);
                self.active.regions[i] = cfg;
                // A live budget reprogram is the mechanism behind
                // criticality switches — worth a mark on the trace.
                self.telem.push_instant("region-reprogrammed", cycle);
            }
        }

        let intrusive_change =
            target.frag_len != self.active.frag_len || target.enabled != self.active.enabled;
        if intrusive_change {
            self.reconfiguring = true;
            if self.is_drained() {
                self.active.frag_len = target.frag_len;
                self.active.enabled = target.enabled;
                self.reconfiguring = false;
                self.telem.push_instant("reconfigured", cycle);
            }
        }
    }

    /// Transparent-wire behaviour while regulation is disabled.
    fn tick_bypass(&mut self, ctx: &mut TickCtx<'_>) {
        let up = self.upstream;
        let down = self.downstream;
        // `can_push` before `pop`: popping only when the forward can land
        // keeps the beat in place under backpressure, and skipping the
        // separate peek avoids checking front visibility twice per channel.
        if ctx.pool.can_push(down.aw, ctx.cycle) {
            if let Some(beat) = ctx.pool.pop(up.aw, ctx.cycle) {
                ctx.pool.push(down.aw, ctx.cycle, beat);
            }
        }
        if ctx.pool.can_push(down.w, ctx.cycle) {
            if let Some(beat) = ctx.pool.pop(up.w, ctx.cycle) {
                ctx.pool.push(down.w, ctx.cycle, beat);
            }
        }
        if ctx.pool.can_push(down.ar, ctx.cycle) {
            if let Some(beat) = ctx.pool.pop(up.ar, ctx.cycle) {
                ctx.pool.push(down.ar, ctx.cycle, beat);
            }
        }
        if ctx.pool.can_push(up.b, ctx.cycle) {
            if let Some(beat) = ctx.pool.pop(down.b, ctx.cycle) {
                ctx.pool.push(up.b, ctx.cycle, beat);
            }
        }
        if ctx.pool.can_push(up.r, ctx.cycle) {
            if let Some(beat) = ctx.pool.pop(down.r, ctx.cycle) {
                ctx.pool.push(up.r, ctx.cycle, beat);
            }
        }
    }

    fn throttle_limit(&self) -> usize {
        if self.active.throttle {
            self.monitor.throttle_limit(self.design.num_pending)
        } else {
            self.design.num_pending
        }
    }

    fn frag_granularity(&self) -> u16 {
        if self.design.splitter_present {
            self.active.frag_len
        } else {
            256
        }
    }

    fn tick_responses(&mut self, ctx: &mut TickCtx<'_>) {
        // Read data downstream → upstream, with last-gating and charging.
        // `can_push` gates the pop so the beat stays put under upstream
        // backpressure (no separate peek: visibility is checked once).
        if ctx.pool.can_push(self.upstream.r, ctx.cycle) {
            if let Some(r) = ctx.pool.pop(self.downstream.r, ctx.cycle) {
                let routed = self.read.on_response(r, ctx.cycle);
                if let Some(latency) = routed.completed_latency {
                    if let Some(region) = routed.region {
                        self.monitor.record_completion(region, latency);
                    }
                    self.telem.note_read(routed.region, latency, ctx.cycle);
                }
                ctx.pool.push(self.upstream.r, ctx.cycle, routed.beat);
            }
        }
        // Write responses: coalesce, forward on completion.
        if ctx.pool.can_push(self.upstream.b, ctx.cycle) {
            if let Some(b) = ctx.pool.pop(self.downstream.b, ctx.cycle) {
                let routed = self.write.on_response(b, ctx.cycle);
                if let Some(latency) = routed.completed_latency {
                    if let Some(region) = routed.region {
                        self.monitor.record_completion(region, latency);
                    }
                    self.telem.note_write(routed.region, latency, ctx.cycle);
                }
                if let Some(beat) = routed.beat {
                    ctx.pool.push(self.upstream.b, ctx.cycle, beat);
                }
            }
        }
    }

    fn tick_intake(&mut self, ctx: &mut TickCtx<'_>) {
        let isolated = self.is_isolated();
        if !isolated {
            if self.read.can_accept() {
                if let Some(&ar) = ctx.pool.peek(self.upstream.ar, ctx.cycle) {
                    let plan = fragment_read(&ar, self.frag_granularity())
                        .expect("granularity validated by config");
                    let region = self.monitor.region_of(ar.addr);
                    ctx.pool.pop(self.upstream.ar, ctx.cycle);
                    self.read.accept(ar, &plan, region, ctx.cycle);
                    self.stats.txns_accepted += 1;
                }
            }
            if self.write.can_accept() {
                if let Some(&aw) = ctx.pool.peek(self.upstream.aw, ctx.cycle) {
                    let plan = fragment_write_header(&aw, self.frag_granularity())
                        .expect("granularity validated by config");
                    let region = self.monitor.region_of(aw.addr);
                    ctx.pool.pop(self.upstream.aw, ctx.cycle);
                    self.write.accept(aw, &plan, region, ctx.cycle);
                    self.stats.txns_accepted += 1;
                }
            }
        }
        // Write data is consumed even while isolated: it belongs to already
        // accepted transactions, which must be allowed to complete.
        if self.write.can_take_beat() {
            if let Some(w) = ctx.pool.pop(self.upstream.w, ctx.cycle) {
                self.write.take_beat(w);
            }
        }
    }

    fn tick_emission(&mut self, ctx: &mut TickCtx<'_>) {
        let limit = self.throttle_limit();
        // Budgets are spent per fragment as it enters the memory system
        // (the M&R unit sits downstream of the splitter, Fig. 2); once a
        // regulated region is dry, no further fragments leave the unit
        // until the period replenishes — even mid-transaction.
        let depleted = self.monitor.any_depleted();
        // Read fragments.
        if !depleted && self.read.peek_fragment(limit).is_some() {
            if ctx.pool.can_push(self.downstream.ar, ctx.cycle) {
                let (frag, bytes, region) = self.read.emit_fragment();
                if let Some(region) = region {
                    self.monitor.charge(region, bytes);
                }
                ctx.pool.push(self.downstream.ar, ctx.cycle, frag);
                self.stats.fragments_emitted += 1;
            } else {
                self.stats.downstream_stall_cycles += 1;
            }
        }
        // Write fragment headers.
        if !depleted && self.write.peek_forward_aw(limit).is_some() {
            if ctx.pool.can_push(self.downstream.aw, ctx.cycle) {
                let (aw, charge) = self.write.forward_aw();
                if let Some(region) = charge.region {
                    self.monitor.charge(region, charge.bytes);
                }
                ctx.pool.push(self.downstream.aw, ctx.cycle, aw);
                self.stats.fragments_emitted += 1;
            } else {
                self.stats.downstream_stall_cycles += 1;
            }
        }
        // Write data beats of already-charged fragments always flow.
        if self.write.peek_forward_beat().is_some()
            && ctx.pool.can_push(self.downstream.w, ctx.cycle)
        {
            let (beat, _charge) = self.write.forward_beat();
            ctx.pool.push(self.downstream.w, ctx.cycle, beat);
        }
    }

    /// Rising-edge detection on the isolation and depletion signals, run
    /// at the end of every executed tick (both the enabled and bypass
    /// paths). Sleeping kernels never miss an edge: isolation is constant
    /// across a sleep stretch (see `on_fast_forward`), and both signals
    /// change only at ticks every kernel executes.
    fn note_status_edges(&mut self, cycle: u64) {
        let depleted = self.monitor.any_depleted();
        if depleted && !self.was_depleted {
            self.stats.budget_exhaustions += 1;
            self.telem.push_instant("budget-exhausted", cycle);
        }
        self.was_depleted = depleted;
        let isolated = self.is_isolated();
        if isolated && !self.was_isolated {
            self.stats.isolation_trips += 1;
            self.telem.push_instant("isolation-trip", cycle);
        }
        self.was_isolated = isolated;
    }

    fn mirror_status(&mut self) {
        let mut shared = self.regs.borrow_mut();
        shared.status.isolated = self.is_isolated();
        shared.status.drained = self.is_drained();
        shared.status.stats = self.stats;
        // Rewrite in place: this runs once per tick (and per reconciled
        // sleep stretch), so it must not allocate.
        shared.status.regions.clear();
        shared.status.regions.extend(
            self.monitor
                .regions()
                .iter()
                .map(|r| (r.stats, r.budget_left)),
        );
    }
}

impl Component for RealmUnit {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        self.sync_config(ctx.cycle);
        self.monitor.tick(ctx.cycle);

        if !self.active.enabled {
            self.tick_bypass(ctx);
            self.note_status_edges(ctx.cycle);
            self.mirror_status();
            return;
        }

        self.tick_responses(ctx);
        self.tick_intake(ctx);
        self.tick_emission(ctx);

        if self.is_isolated() {
            self.stats.isolated_cycles += 1;
        }
        self.note_status_edges(ctx.cycle);
        self.mirror_status();
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Vec<axi_sim::PortDecl> {
        [
            self.upstream.subordinate_ports(),
            self.downstream.manager_ports(),
        ]
        .concat()
    }

    fn next_event(&self, cycle: u64) -> Option<u64> {
        // Register writes not yet applied (or a pending intrusive drain)
        // need a tick to take effect.
        {
            let shared = self.regs.borrow();
            if shared.clear_stats || shared.runtime != self.active {
                return Some(cycle);
            }
        }
        if self.reconfiguring {
            return Some(cycle);
        }
        if self.active.enabled {
            // Queued fragments and buffered write beats want to move now —
            // unless depletion pins them until the next replenishment,
            // which the period wake below covers.
            let limit = self.throttle_limit();
            let depleted = self.monitor.any_depleted();
            if !depleted
                && (self.read.peek_fragment(limit).is_some()
                    || self.write.peek_forward_aw(limit).is_some())
            {
                return Some(cycle);
            }
            if self.write.peek_forward_beat().is_some() {
                return Some(cycle);
            }
        }
        // A region mid-period (spent budget or recorded bytes) changes
        // state when its period replenishes; fresh regions only advance
        // their period grid, reconciled in `on_fast_forward`.
        let mut wake: Option<u64> = None;
        for r in self.monitor.regions() {
            if r.config.period > 0
                && (r.budget_left != r.config.budget_max || r.stats.bytes_this_period != 0)
            {
                let boundary = (r.period_start + r.config.period).max(cycle);
                wake = Some(wake.map_or(boundary, |w| w.min(boundary)));
            }
        }
        wake
    }

    fn backlog_event(&self, cycle: u64) -> Option<u64> {
        // Pending register writes or an intrusive drain: tick every cycle.
        {
            let shared = self.regs.borrow();
            if shared.clear_stats || shared.runtime != self.active {
                return Some(cycle);
            }
        }
        if self.reconfiguring || !self.active.enabled {
            return Some(cycle);
        }
        // Responses may be parked on the downstream B/R wires whenever
        // emitted fragments are unanswered; `tick_responses` pops one per
        // cycle, so backlog there needs a tick right away.
        if self.read.outstanding_fragments() > 0 || self.write.outstanding_fragments() > 0 {
            return Some(cycle);
        }
        // An open intake gate can pop a parked AR/AW/W beat right away.
        // While depleted (or isolated) with a full write buffer, none of
        // these hold — that is the isolation window this hint exists for.
        if self.write.can_take_beat() {
            return Some(cycle);
        }
        if !self.is_isolated() && (self.read.can_accept() || self.write.can_accept()) {
            return Some(cycle);
        }
        // Intake is closed and nothing is coming back: the gates reopen at
        // a period boundary (or via queued-fragment motion), which
        // `next_event` computes, or on fresh wire activity, which the
        // kernel's wire wakes deliver regardless of this hint.
        self.next_event(cycle)
    }

    fn on_fast_forward(&mut self, from: u64, to: u64) {
        // Re-run the elided period bookkeeping: the last elided tick was at
        // `to - 1`, and the grid arithmetic in `BudgetMonitor::tick` lands
        // on the same period start a tick-per-cycle run would.
        self.monitor.tick(to - 1);
        // Isolation is constant across a skip (depletion can only end at a
        // period boundary, which bounds the jump), so each elided tick
        // would have counted one isolated cycle.
        if self.active.enabled && self.is_isolated() {
            self.stats.isolated_cycles += to - from;
            self.mirror_status();
        }
        // No `mirror_status` otherwise: everything it mirrors is provably
        // unchanged across a non-isolated sleep stretch. Stats only move in
        // `tick` (and in the isolated branch above); isolation and drain
        // are constant while asleep; and a region whose budget or byte
        // counter differs from its reset value has a period-boundary wake
        // scheduled, so no stretch crosses a replenishment.
    }

    fn coverage(&self, map: &mut CoverageMap) {
        // Regulation-event coverage for the fuzz campaign: a seed that
        // first trips isolation, first drains a budget, or first pushes
        // the write buffer to a new high lights up a signature bit.
        map.add(
            format!("{}.isolation_trips", self.name),
            self.stats.isolation_trips,
        );
        map.add(
            format!("{}.budget_exhaust", self.name),
            self.stats.budget_exhaustions,
        );
        map.add(
            format!("{}.wbuf.watermark", self.name),
            self.write.buffer_watermark() as u64,
        );
    }

    fn telemetry(&self, sink: &mut TelemetrySink) {
        let n = &self.name;
        sink.counter(&format!("{n}.txns_accepted"), self.stats.txns_accepted);
        sink.counter(
            &format!("{n}.fragments_emitted"),
            self.stats.fragments_emitted,
        );
        sink.counter(&format!("{n}.isolated_cycles"), self.stats.isolated_cycles);
        sink.counter(
            &format!("{n}.downstream_stall_cycles"),
            self.stats.downstream_stall_cycles,
        );
        sink.counter(&format!("{n}.isolation_trips"), self.stats.isolation_trips);
        sink.counter(
            &format!("{n}.budget_exhaustions"),
            self.stats.budget_exhaustions,
        );
        sink.gauge(
            &format!("{n}.wbuf.occupancy"),
            self.write.buffered_beats() as u64,
        );
        sink.gauge(
            &format!("{n}.wbuf.watermark"),
            self.write.buffer_watermark() as u64,
        );
        for (i, r) in self.monitor.regions().iter().enumerate() {
            if r.is_regulated() {
                sink.gauge(&format!("{n}.region{i}.budget_left"), r.budget_left);
            }
        }
        sink.histogram(&format!("{n}.read_latency"), &self.telem.read_latency);
        sink.histogram(&format!("{n}.write_latency"), &self.telem.write_latency);
        for (i, h) in self.telem.region_read.iter().enumerate() {
            if h.count() > 0 {
                sink.histogram(&format!("{n}.region{i}.read_latency"), h);
            }
        }
        for (i, h) in self.telem.region_write.iter().enumerate() {
            if h.count() > 0 {
                sink.histogram(&format!("{n}.region{i}.write_latency"), h);
            }
        }
        if let Some(log) = &self.telem.events {
            for &(name, start, end) in &log.spans {
                sink.span(n, name, start, end);
            }
            for &(name, cycle) in &log.instants {
                sink.instant(n, name, cycle);
            }
        }
    }
}
