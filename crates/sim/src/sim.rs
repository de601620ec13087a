//! The top-level simulator: owns the wires and the components.
//!
//! Two kernels share one observable semantics:
//!
//! - [`Sim::step`] is the reference kernel: every component ticks every
//!   cycle, in registration order.
//! - [`Sim::run`]/[`Sim::run_until`] default to the *arena kernel*: a
//!   compiled schedule pins each component to a bit of a `u64` mask, the
//!   pool ORs precomputed per-wire wake masks into the next-cycle set on
//!   every push and pop, and [`Component::next_event`] hints book later
//!   wakes. A cycle only visits components that are due, and cycles with
//!   no due component at all are jumped over entirely. Elided ticks are
//!   reconciled per component through [`Component::on_fast_forward`].
//!
//! The two must be bit-identical in every observable: `REALM_KERNEL=step`
//! forces the stepping kernel for differential runs, and the
//! `kernel_equivalence` integration tests assert the equivalence on random
//! traffic.

use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;

use realm_telemetry::TelemetrySink;

use crate::pool::{
    channel_slot, ChannelPool, RawSanViolation, SanitizerKind, SanitizerTables, WakeTables,
    CHANNEL_SLOTS,
};

use crate::component::{Component, TickCtx};
use crate::topology::PortDir;
use crate::Cycle;

/// Handle to a component registered with a [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Returns the registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Counters describing how the kernel advanced time: real component ticks
/// versus cycles fast-forwarded over while the system was quiescent, plus
/// the per-component split within executed cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelStats {
    /// Cycles advanced by executing at least one component tick.
    pub ticks_executed: u64,
    /// Cycles jumped over because no component had a due event.
    pub cycles_skipped: u64,
    /// Number of fast-forward jumps taken.
    pub fast_forwards: u64,
    /// Individual `Component::tick` calls across all executed cycles. The
    /// arena kernel's bulk drains of tap observers belong to no cycle and
    /// are not counted here; the self-profiler counts them as visits (see
    /// [`Sim::profile`]).
    pub component_ticks: u64,
    /// Component-cycles elided: sleeping components during executed cycles
    /// plus every component during skipped cycles. The invariant
    /// `component_ticks + component_skips == cycles_total() * n_components`
    /// holds for a run driven by one kernel throughout.
    pub component_skips: u64,
    /// Successful wire pushes and pops the arena kernel translated into
    /// wakes (0 under the stepping kernel, which needs none).
    pub wire_events: u64,
    /// Always 0: no kernel batches beats any more. Kept only because the
    /// benchmark package still sums it; it goes with the next change to
    /// the benchmark.
    pub batched_beats: u64,
    /// Always 0, like [`KernelStats::batched_beats`], and kept for the
    /// same reader.
    pub batch_windows: u64,
}

impl KernelStats {
    /// Total simulated cycles this kernel advanced (executed + skipped).
    pub fn cycles_total(&self) -> u64 {
        self.ticks_executed + self.cycles_skipped
    }
}

/// Per-component attribution from the kernel self-profiler (see
/// [`Sim::profile`]): where the kernel actually spends its visits — and,
/// when the `self-profile` feature is enabled, its wall-time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComponentProfile {
    /// Registration index of the component.
    pub index: usize,
    /// Its [`Component::name`].
    pub name: String,
    /// `tick` calls executed for this component, across both kernels.
    /// Each bulk drain of a [tap observer](Component::tap_observer)
    /// counts as one visit.
    pub visits: u64,
    /// Wall-clock nanoseconds spent inside this component's ticks. Always 0
    /// unless `axi-sim` is built with the `self-profile` feature — the
    /// clock reads do not exist in a default build, keeping the simulator
    /// free of wall-time (and `detlint`-clean by construction).
    pub wall_ns: u64,
}

/// Internal per-component profiler counters (see [`ComponentProfile`]).
#[derive(Clone, Copy, Default)]
struct ProfileEntry {
    visits: u64,
    wall_ns: u64,
}

/// Which kernel drives [`Sim::run`] and [`Sim::run_until`], chosen by the
/// `REALM_KERNEL` environment variable (see [`KernelMode::from_env`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelMode {
    /// Reference kernel: tick every component every cycle. Selected by
    /// `REALM_KERNEL=step` for differential runs.
    Step,
    /// Compiled-schedule kernel (the default): components that are not
    /// [tap observers](Component::tap_observer) are pinned to *schedule
    /// positions* (registration order, at most 64), every per-cycle set
    /// is a single `u64` mask, and wire activity reaches the scheduler
    /// through the pool's wake-mask accumulators. A run whose system needs
    /// more than 64 positions panics at its start.
    Arena,
}

impl KernelMode {
    /// The mode's `REALM_KERNEL` value.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Step => "step",
            KernelMode::Arena => "arena",
        }
    }

    /// Parses a `REALM_KERNEL` value.
    ///
    /// # Errors
    ///
    /// A message naming the variable, the value and the accepted values.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "step" => Ok(KernelMode::Step),
            "arena" => Ok(KernelMode::Arena),
            _ => Err(format!(
                "REALM_KERNEL={value:?} is not a kernel; accepted values: step, arena"
            )),
        }
    }

    /// The mode `REALM_KERNEL` selects; [`KernelMode::Arena`] when unset.
    ///
    /// # Errors
    ///
    /// As [`KernelMode::parse`] for a value it does not accept.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var_os("REALM_KERNEL") {
            None => Ok(KernelMode::Arena),
            Some(value) => Self::parse(&value.to_string_lossy()),
        }
    }
}

fn sanitize_from_env() -> bool {
    matches!(
        std::env::var("REALM_SANITIZE").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    )
}

/// How a [`ContractViolation`] was detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// `next_event(cycle)` returned a hint at or before a cycle the
    /// component had already been ticked for — the hint carries no
    /// information and the kernel fell back to re-ticking next cycle.
    StaleHint,
    /// A sleeping component's `next_event` claimed it was due at the
    /// current cycle even though nothing had scheduled it — an earlier
    /// hint under-reported, or the component reacted to state outside its
    /// declared wires (missing [`Sim::couple`] or port declaration).
    MissedWake,
}

/// A detected breach of the [`Component::next_event`] contract (see
/// [`Sim::contract_violations`]; stale hints are reported in every build,
/// the missed-wake cross-check only in debug builds). The kernel corrects
/// course — the offending component is woken — so results stay exact, but
/// each record points at a hint that silently shrinks skipping.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContractViolation {
    /// Registration index of the offending component.
    pub component: usize,
    /// Its [`Component::name`] at detection time.
    pub name: String,
    /// The cycle at which the violation was observed.
    pub cycle: Cycle,
    /// The hint `next_event` returned.
    pub hint: Cycle,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            ViolationKind::StaleHint => "stale next_event hint",
            ViolationKind::MissedWake => "missed wake (undeclared dependency?)",
        };
        write!(
            f,
            "cycle {:>8}: {} from component #{} ({}): hint {}",
            self.cycle, what, self.component, self.name, self.hint
        )
    }
}

/// An undeclared cross-component access caught by the runtime access
/// sanitizer (`REALM_SANITIZE=1`, see [`Sim::sanitizer_violations`]): a
/// push, pop, or wake that the component's declared ports and couples do
/// not account for. The access itself is never blocked — results stay
/// exact — but each record is a dependence edge missing from the static
/// graph, i.e. a component the island partition and the arena kernel's
/// wake tables may be reasoning about incorrectly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SanitizerViolation {
    /// Registration index of the offending component.
    pub component: usize,
    /// Its [`Component::name`] at detection time.
    pub name: String,
    /// The cycle of the undeclared access.
    pub cycle: Cycle,
    /// Channel label of the touched wire (`"-"` for
    /// [`SanitizerKind::UndeclaredWake`], which has no wire).
    pub channel: &'static str,
    /// Pool-internal wire index (0 for `UndeclaredWake`).
    pub wire: usize,
    /// What kind of undeclared access.
    pub kind: SanitizerKind,
}

impl fmt::Display for SanitizerViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SanitizerKind::UndeclaredPush => write!(
                f,
                "cycle {:>8}: undeclared push on {}[{}] by component #{} ({})",
                self.cycle, self.channel, self.wire, self.component, self.name
            ),
            SanitizerKind::UndeclaredPop => write!(
                f,
                "cycle {:>8}: undeclared pop on {}[{}] by component #{} ({})",
                self.cycle, self.channel, self.wire, self.component, self.name
            ),
            SanitizerKind::UndeclaredWake => write!(
                f,
                "cycle {:>8}: undeclared wake of component #{} ({}): \
                 due without any declared edge having woken it",
                self.cycle, self.component, self.name
            ),
        }
    }
}

/// Retained [`ContractViolation`] records; further ones only bump a count.
const MAX_VIOLATIONS: usize = 64;

/// Sentinel for "no pending wake".
const NEVER: Cycle = Cycle::MAX;

/// The arena kernel's compiled schedule and mask scheduler. Components
/// other than tap observers are addressed by *schedule position* —
/// registration order, at most [`MAX_POSITIONS`] — so every
/// per-cycle set (due now, due next, opaque) is one `u64` and translating
/// wire activity into wakes is a couple of ORs against the pool's
/// accumulators.
#[derive(Default)]
struct ArenaSched {
    /// `order[pos]` = registration index of the component ticked at
    /// schedule position `pos`.
    order: Vec<u32>,
    /// Positions of opaque (port-less) components: woken by any
    /// event-bearing tick.
    opaque_mask: u64,
    /// Per position: declared Consume wires as `(slot, wire)`.
    consume: Vec<Vec<(usize, usize)>>,
    /// Per position: coupled dependents, as schedule positions.
    dependents: Vec<Vec<u32>>,
    /// Positions due at the cycle being processed.
    due: u64,
    /// Positions due at the immediately following cycle (the fast path
    /// back-to-back beat streams ride without touching `wake_at`).
    due_next: u64,
    /// Per position: earliest pending far wake (`>= cycle + 2`; `NEVER` =
    /// none). Only the component's own hints land here — wire wakes always
    /// go through the masks.
    wake_at: Vec<Cycle>,
    /// Lower bound on `min(wake_at)`; may be stale after a discarded wake
    /// and is re-derived exactly on every merge scan.
    wake_min: Cycle,
    /// `(components, wires, couples)` the schedule was compiled for.
    signature: (usize, usize, usize),
}

/// Schedule positions the arena kernel can address: one bit of a `u64`
/// each.
const MAX_POSITIONS: usize = 64;

/// A cycle-accurate simulator: a [`ChannelPool`] plus an ordered list of
/// components.
///
/// [`Sim::run`] and [`Sim::run_until`] are driven by the arena kernel: due
/// masks fed by [`Component::next_event`] hints and by wire pushes/pops
/// decide, per cycle, which components tick at all; cycles with nothing
/// due are jumped over entirely. Skipping is exact — elided ticks are
/// provable no-ops under the `next_event` contract, and components
/// reconcile time-proportional counters in [`Component::on_fast_forward`]
/// — so a run finishes in the same state, at the same cycle, as an
/// explicitly stepped one; only wall-clock changes. [`Sim::kernel_stats`]
/// reports the split.
///
/// # Example
///
/// ```
/// use axi_sim::{Component, Sim, TickCtx};
///
/// struct Nop;
/// impl Component for Nop {
///     fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
/// }
///
/// let mut sim = Sim::new();
/// sim.add(Nop);
/// sim.run(100);
/// assert_eq!(sim.cycle(), 100);
/// ```
pub struct Sim {
    pool: ChannelPool,
    components: Vec<Box<dyn Component>>,
    cycle: Cycle,
    stats: KernelStats,
    mode: KernelMode,
    /// First cycle each component has *not* yet accounted for, via tick or
    /// `on_fast_forward`. Invariant between advances: `synced_to[i] <=
    /// cycle + 1`, equal to `cycle + 1` right after component `i` ticks.
    synced_to: Vec<Cycle>,
    /// `(source, dependent)` pairs from [`Sim::couple`], in declaration
    /// order; `couple_set` is the membership index keeping `couple` O(log n).
    couples: Vec<(usize, usize)>,
    couple_set: BTreeSet<(usize, usize)>,
    violations: Vec<ContractViolation>,
    violations_dropped: u64,
    /// Access sanitizer (`REALM_SANITIZE=1`): when on, pool taps check
    /// every in-tick push/pop against the declared ports and the missed-
    /// wake poll runs in every build.
    sanitize: bool,
    /// `(components, wires)` the pool's sanitizer tables were built for.
    san_signature: Option<(usize, usize)>,
    san_violations: Vec<SanitizerViolation>,
    san_violations_dropped: u64,
    san_scratch: Vec<RawSanViolation>,
    /// Compiled schedule + mask scheduler for [`KernelMode::Arena`].
    arena: ArenaSched,
    /// Self-profiler counters, one entry per component (see
    /// [`Sim::profile`]). Counter maintenance is a single indexed add per
    /// visit; wall-time exists only under the `self-profile` feature.
    profile: Vec<ProfileEntry>,
    /// Registration indices of the [tap observers](Component::tap_observer),
    /// which the arena kernel drains in bulk instead of ticking per cycle.
    observers: Vec<usize>,
}

/// Undrained tap records ([`ChannelPool::tap_backlog`]) at which the arena
/// kernel ticks every [tap observer](Component::tap_observer) in bulk.
/// Large enough that a bulk drain is rare next to the cycles it covers,
/// small enough that the tap buffers (and the observers' copies of
/// them) stay within tens of kilobytes and peak memory does not move.
pub const TAP_DRAIN_RECORDS: u64 = 1024;

impl Sim {
    /// Creates an empty simulator at cycle 0. The kernel honours the
    /// `REALM_KERNEL` environment variable (see [`KernelMode::from_env`]);
    /// `REALM_SANITIZE=1` arms the access sanitizer.
    ///
    /// # Panics
    ///
    /// If `REALM_KERNEL` holds a value [`KernelMode::parse`] rejects.
    pub fn new() -> Self {
        Self {
            pool: ChannelPool::new(),
            components: Vec::new(),
            cycle: 0,
            stats: KernelStats::default(),
            mode: KernelMode::from_env().unwrap_or_else(|e| panic!("{e}")),
            synced_to: Vec::new(),
            couples: Vec::new(),
            couple_set: BTreeSet::new(),
            violations: Vec::new(),
            violations_dropped: 0,
            sanitize: sanitize_from_env(),
            san_signature: None,
            san_violations: Vec::new(),
            san_violations_dropped: 0,
            san_scratch: Vec::new(),
            arena: ArenaSched::default(),
            profile: Vec::new(),
            observers: Vec::new(),
        }
    }

    /// The wire pool, for allocating bundles before components exist.
    pub fn pool(&self) -> &ChannelPool {
        &self.pool
    }

    /// Mutable access to the wire pool.
    pub fn pool_mut(&mut self) -> &mut ChannelPool {
        &mut self.pool
    }

    /// Registers a component; components are ticked in registration order.
    pub fn add<C: Component>(&mut self, component: C) -> ComponentId {
        if component.tap_observer() {
            self.observers.push(self.components.len());
        }
        self.components.push(Box::new(component));
        self.synced_to.push(self.cycle);
        self.profile.push(ProfileEntry::default());
        ComponentId(self.components.len() - 1)
    }

    /// Declares that `source`'s tick may mutate state that `dependent`
    /// reads outside any wire (shared registers, `Rc<RefCell<…>>`
    /// couplings). The arena kernel then keeps the pair exact: before
    /// `source` ticks, `dependent`'s elided ticks are reconciled, and after
    /// `source` ticks, `dependent` is woken — mirroring what cycle stepping
    /// does implicitly. Wire-only interactions need no coupling.
    pub fn couple(&mut self, source: ComponentId, dependent: ComponentId) {
        assert!(source.0 < self.components.len(), "unknown source");
        assert!(dependent.0 < self.components.len(), "unknown dependent");
        // `couples` keeps declaration order (the kernel's wake tables are
        // order-sensitive); the set makes the duplicate check O(log n)
        // instead of a linear scan per call.
        if source != dependent && self.couple_set.insert((source.0, dependent.0)) {
            self.couples.push((source.0, dependent.0));
        }
    }

    /// Returns a typed reference to a registered component, or `None` if the
    /// type does not match.
    pub fn component<C: Component>(&self, id: ComponentId) -> Option<&C> {
        let c: &dyn Component = self.components[id.0].as_ref();
        (c as &dyn Any).downcast_ref::<C>()
    }

    /// Returns a typed mutable reference to a registered component, or
    /// `None` if the type does not match.
    pub fn component_mut<C: Component>(&mut self, id: ComponentId) -> Option<&mut C> {
        let c: &mut dyn Component = self.components[id.0].as_mut();
        (c as &mut dyn Any).downcast_mut::<C>()
    }

    /// The current cycle (number of completed steps).
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Executed-tick vs. skipped-cycle counters since construction.
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// Which kernel [`Sim::run`]/[`Sim::run_until`] use.
    pub fn kernel_mode(&self) -> KernelMode {
        self.mode
    }

    /// Overrides the kernel selection (tests and differential tooling; the
    /// default comes from `REALM_KERNEL`).
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.mode = mode;
    }

    /// [`Component::next_event`] contract breaches detected so far. The
    /// kernel always corrects course, so these are diagnostics, not
    /// failures — but a correct system keeps this empty.
    pub fn contract_violations(&self) -> &[ContractViolation] {
        &self.violations
    }

    /// Contract violations beyond the retention bound, counted not stored.
    pub fn contract_violations_dropped(&self) -> u64 {
        self.violations_dropped
    }

    /// Whether the runtime access sanitizer is armed (from
    /// `REALM_SANITIZE=1` or [`Sim::set_sanitize`]).
    pub fn sanitize_enabled(&self) -> bool {
        self.sanitize
    }

    /// Arms or disarms the access sanitizer (the default comes from
    /// `REALM_SANITIZE`). While armed, every in-tick wire push/pop is
    /// checked against the component's declared ports, and the missed-wake
    /// poll runs in release builds too; accesses are never blocked, so
    /// results are bit-identical with the sanitizer on or off.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
        self.san_signature = None;
        if !on {
            self.pool.set_sanitizer(None);
        }
    }

    /// Undeclared accesses the sanitizer caught so far (bounded retention;
    /// see [`Sim::sanitizer_violations_dropped`]). Always empty while the
    /// sanitizer is off. A system whose declarations match its behaviour
    /// keeps this empty — that is the runtime proof behind the static
    /// island partition.
    pub fn sanitizer_violations(&self) -> &[SanitizerViolation] {
        &self.san_violations
    }

    /// Sanitizer violations beyond the retention bound, counted not stored.
    pub fn sanitizer_violations_dropped(&self) -> u64 {
        self.san_violations_dropped
    }

    /// A static snapshot of the system's structure — every component with
    /// its declared wire endpoints plus every allocated wire — for
    /// elaboration-time analysis before the first cycle runs (see the
    /// `realm-lint` crate).
    pub fn topology(&self) -> crate::Topology {
        crate::Topology::collect(&self.components, &self.pool, &self.couples)
    }

    /// The system's island partition: connected components of the
    /// undirected dependence graph (shared wires + couples), each a group
    /// that can be stepped independently of the others. Convenience
    /// wrapper over [`Topology::islands`](crate::Topology::islands).
    pub fn partition(&self) -> Vec<Vec<usize>> {
        self.topology().islands()
    }

    /// Harvests the run's coverage: every component's
    /// [`Component::coverage`](crate::Component::coverage) export, plus an
    /// `edge.{channel}[{index}]` key for each pool wire that carried at
    /// least one beat (the lint-topology edges the run exercised).
    ///
    /// Pull-based and side-effect free — callable between runs or after
    /// completion without perturbing the simulation.
    pub fn coverage(&self) -> crate::CoverageMap {
        let mut map = crate::CoverageMap::new();
        for component in &self.components {
            component.coverage(&mut map);
        }
        for wire in self.pool.wire_activity() {
            map.add(
                format!("edge.{}[{}]", wire.channel, wire.index),
                wire.pushes,
            );
        }
        map
    }

    /// Harvests the run's telemetry: every component's
    /// [`Component::telemetry`](crate::Component::telemetry) export, plus
    /// the kernel's own signals — `kernel.*` counters from
    /// [`KernelStats`] and instant events for every retained contract and
    /// sanitizer violation.
    ///
    /// Pull-based and side-effect free, like [`Sim::coverage`]: collecting
    /// telemetry cannot perturb the simulation, so results are
    /// bit-identical whether or not anything reads the sink (CI-gated).
    ///
    /// Component counters and histograms are kernel-invariant (component
    /// state is bit-identical across kernels by construction). The
    /// `kernel.*` counters and violation instants describe *how* the run
    /// was executed and differ across kernels — exporters writing
    /// kernel-comparable artifacts (`results/*.json`) must draw only on
    /// the component side.
    pub fn telemetry(&self) -> TelemetrySink {
        let mut sink = TelemetrySink::new();
        for component in &self.components {
            component.telemetry(&mut sink);
        }
        let s = &self.stats;
        sink.counter("kernel.ticks_executed", s.ticks_executed);
        sink.counter("kernel.cycles_skipped", s.cycles_skipped);
        sink.counter("kernel.fast_forwards", s.fast_forwards);
        sink.counter("kernel.component_ticks", s.component_ticks);
        sink.counter("kernel.component_skips", s.component_skips);
        sink.counter("kernel.wire_events", s.wire_events);
        sink.counter(
            "kernel.contract_violations",
            self.violations.len() as u64 + self.violations_dropped,
        );
        sink.counter(
            "kernel.contract_violations_dropped",
            self.violations_dropped,
        );
        sink.counter(
            "kernel.sanitizer_violations",
            self.san_violations.len() as u64 + self.san_violations_dropped,
        );
        sink.counter(
            "kernel.sanitizer_violations_dropped",
            self.san_violations_dropped,
        );
        for v in &self.violations {
            let kind = match v.kind {
                ViolationKind::StaleHint => "stale-hint",
                ViolationKind::MissedWake => "missed-wake",
            };
            sink.instant("kernel", &format!("contract:{kind}:{}", v.name), v.cycle);
        }
        for v in &self.san_violations {
            let kind = match v.kind {
                SanitizerKind::UndeclaredPush => "push",
                SanitizerKind::UndeclaredPop => "pop",
                SanitizerKind::UndeclaredWake => "wake",
            };
            sink.instant("kernel", &format!("sanitizer:{kind}:{}", v.name), v.cycle);
        }
        sink
    }

    /// The kernel self-profiler's per-component attribution: visits (tick
    /// calls) and — only when built with the `self-profile` feature —
    /// wall-time.
    ///
    /// Visit counters are always maintained (one indexed add on
    /// the paths that already do bookkeeping); the clock reads attributing
    /// wall-time are compiled out without the feature, so a default build
    /// contains no wall-clock reads at all. Profiles are *kernel-dependent*
    /// by nature (which visits execute is exactly what distinguishes the
    /// kernels) and belong in wall-clock artifacts like
    /// `BENCH_kernel.json`, never in kernel-compared `results/*.json`.
    pub fn profile(&self) -> Vec<ComponentProfile> {
        self.components
            .iter()
            .enumerate()
            .map(|(i, component)| ComponentProfile {
                index: i,
                name: component.name().to_owned(),
                visits: self.profile[i].visits,
                wall_ns: self.profile[i].wall_ns,
            })
            .collect()
    }

    /// Advances the simulation by one cycle, ticking every component once
    /// (the reference kernel). Interleaves exactly with arena runs:
    /// components a previous run left fast-forwarded are reconciled here.
    pub fn step(&mut self) {
        self.ensure_sanitizer();
        let cycle = self.cycle;
        for index in 0..self.components.len() {
            self.tick_component(index, cycle);
        }
        self.pool.set_owner(None);
        self.cycle += 1;
        self.stats.ticks_executed += 1;
        self.stats.component_ticks += self.components.len() as u64;
        self.drain_sanitizer();
    }

    /// Reconciles and ticks one component at `cycle` (stepping kernel).
    fn tick_component(&mut self, index: usize, cycle: Cycle) {
        if self.synced_to[index] < cycle {
            self.components[index].on_fast_forward(self.synced_to[index], cycle);
        }
        self.synced_to[index] = cycle + 1;
        self.visit(index, cycle);
    }

    /// Ticks component `index` at `cycle` with the pool stamped with its
    /// ownership, counting the visit for the self-profiler (and, under
    /// the `self-profile` feature, its wall-time).
    #[inline]
    fn visit(&mut self, index: usize, cycle: Cycle) {
        self.pool.set_owner(Some(index));
        let mut ctx = TickCtx {
            cycle,
            pool: &mut self.pool,
        };
        self.profile[index].visits += 1;
        #[cfg(feature = "self-profile")]
        let t0 = std::time::Instant::now(); // lint:allow(wall-clock) -- self-profiler, feature-gated
        self.components[index].tick(&mut ctx);
        #[cfg(feature = "self-profile")]
        {
            self.profile[index].wall_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Ticks every [tap observer](Component::tap_observer) once, folding
    /// all undrained tap records in one pass — the arena kernel's
    /// replacement for per-cycle observer ticks. A no-op while the backlog
    /// is empty, since an observer's tick only drains taps.
    fn drain_observers(&mut self) {
        if self.pool.tap_backlog() == 0 {
            return;
        }
        for k in 0..self.observers.len() {
            self.visit(self.observers[k], self.cycle);
        }
        self.pool.set_owner(None);
    }

    /// Rebuilds the pool's sanitizer tables if the sanitizer is armed and
    /// the topology changed since they were last built. O(1) when nothing
    /// changed; a no-op entirely when the sanitizer is off.
    fn ensure_sanitizer(&mut self) {
        if !self.sanitize {
            return;
        }
        let signature = (self.components.len(), self.pool.wire_count());
        if self.san_signature == Some(signature) {
            return;
        }
        let counts = self.pool.wire_counts();
        let mut slot_base = [0usize; CHANNEL_SLOTS];
        let mut total_wires = 0;
        for (slot, &wires) in counts.iter().enumerate() {
            slot_base[slot] = total_wires;
            total_wires += wires;
        }
        let n = self.components.len();
        let mut tables = SanitizerTables {
            slot_base,
            total_wires,
            drive: vec![false; n * total_wires],
            consume: vec![false; n * total_wires],
            opaque: vec![false; n],
        };
        for (i, component) in self.components.iter().enumerate() {
            let ports = component.ports();
            if ports.is_empty() {
                tables.opaque[i] = true;
                continue;
            }
            for port in ports {
                let Some(slot) = channel_slot(port.channel) else {
                    continue;
                };
                if port.wire >= counts[slot] {
                    continue; // dangling declaration; realm-lint reports it
                }
                let flat = i * total_wires + slot_base[slot] + port.wire;
                match port.dir {
                    PortDir::Drive => tables.drive[flat] = true,
                    PortDir::Consume => tables.consume[flat] = true,
                    PortDir::Observe => {}
                }
            }
        }
        self.pool.set_sanitizer(Some(tables));
        self.san_signature = Some(signature);
    }

    /// Resolves raw pool sanitizer hits into named, bounded records.
    fn drain_sanitizer(&mut self) {
        if !self.pool.has_san_hits() {
            return;
        }
        let mut scratch = std::mem::take(&mut self.san_scratch);
        self.pool.drain_san_hits_into(&mut scratch);
        for raw in scratch.drain(..) {
            self.record_san_violation(raw);
        }
        self.san_scratch = scratch;
    }

    fn record_san_violation(&mut self, raw: RawSanViolation) {
        if self.san_violations.len() < MAX_VIOLATIONS {
            let name = self.components[raw.component].name().to_owned();
            self.san_violations.push(SanitizerViolation {
                component: raw.component,
                name,
                cycle: raw.cycle,
                channel: raw.channel,
                wire: raw.wire,
                kind: raw.kind,
            });
        } else {
            self.san_violations_dropped += 1;
        }
    }

    /// The instance name of the component registered at `index`, if any —
    /// resolves [`PushRefusal::component`](crate::PushRefusal) indices for
    /// reports.
    pub fn component_name(&self, index: usize) -> Option<&str> {
        self.components.get(index).map(|c| c.name())
    }

    /// Runs for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        self.drive(cycles, None::<&mut fn(&Sim) -> bool>, None);
    }

    /// Advances until `done` returns `true` or `max_cycles` elapse; returns
    /// `true` if the predicate fired.
    ///
    /// The predicate sees the simulator between advances, so it can inspect
    /// components and wires. Quiescent stretches are fast-forwarded, so the
    /// predicate is evaluated per executed cycle or jump, not per skipped
    /// cycle — component state cannot change inside a skipped stretch, so
    /// no predicate flank is missed, though a predicate watching
    /// [`Sim::cycle`] itself may observe a jump past its threshold. Use
    /// [`Sim::run_until_clamped`] when the predicate watches the clock.
    ///
    /// The predicate must not read a
    /// [tap observer](Component::tap_observer): the arena kernel drains
    /// those in bulk and reconciles their elided ticks
    /// ([`Component::on_fast_forward`]) only when the run returns, so
    /// mid-run they lag the simulation. They are exact again once
    /// `run_until` returns.
    pub fn run_until<F: FnMut(&Sim) -> bool>(&mut self, max_cycles: u64, mut done: F) -> bool {
        self.drive(max_cycles, Some(&mut done), None)
    }

    /// Like [`Sim::run_until`], but fast-forward jumps never cross the
    /// absolute cycle `boundary`: a jump that would overshoot lands exactly
    /// on it, so a predicate watching [`Sim::cycle`] observes the boundary
    /// even when the system is quiescent there.
    pub fn run_until_clamped<F: FnMut(&Sim) -> bool>(
        &mut self,
        max_cycles: u64,
        boundary: Cycle,
        mut done: F,
    ) -> bool {
        self.drive(max_cycles, Some(&mut done), Some(boundary))
    }

    /// The shared driver behind [`Sim::run`]/[`Sim::run_until`]: stepping,
    /// or the arena kernel's mask scheduler.
    fn drive<F: FnMut(&Sim) -> bool>(
        &mut self,
        max_cycles: u64,
        mut done: Option<&mut F>,
        clamp: Option<Cycle>,
    ) -> bool {
        let target = self.cycle + max_cycles;
        if self.mode == KernelMode::Step {
            // Tap observers are folded up to date on return, as the arena
            // does: beats pushed in the last cycle by components registered
            // after an observer would otherwise wait for its next tick.
            while self.cycle < target {
                if let Some(done) = done.as_mut() {
                    if done(self) {
                        self.drain_observers();
                        return true;
                    }
                }
                self.step();
            }
            self.drain_observers();
            return match done {
                Some(done) => done(self),
                None => false,
            };
        }

        self.prepare_run();
        let n = self.components.len() as u64;
        loop {
            if self.pool.tap_backlog() >= TAP_DRAIN_RECORDS {
                self.drain_observers();
            }
            if let Some(done) = done.as_mut() {
                // Reconcile elided ticks so the predicate observes exactly
                // the state a stepped run would show at this cycle. Tap
                // observers are left out: a predicate must not read them,
                // so they are reconciled once, when the run returns.
                self.flush_scheduled(self.cycle);
                if done(self) {
                    self.flush_all(self.cycle);
                    self.drain_observers();
                    return true;
                }
            }
            if self.cycle >= target {
                break;
            }
            if self.arena.wake_min <= self.cycle {
                self.merge_far_wakes();
            }
            if self.arena.due != 0 {
                self.process_cycle();
                continue;
            }
            // Nothing due: jump to the earliest pending far wake, bounded
            // by the run target and the clamp.
            let next = self.arena.wake_min.min(target);
            let jump = match clamp {
                Some(boundary) if boundary > self.cycle => next.min(boundary),
                _ => next,
            };
            debug_assert!(jump > self.cycle, "jump must make progress");
            self.stats.cycles_skipped += jump - self.cycle;
            self.stats.component_skips += (jump - self.cycle) * n;
            self.stats.fast_forwards += 1;
            self.cycle = jump;
        }
        self.flush_all(self.cycle);
        self.drain_observers();
        match done {
            Some(done) => done(self),
            None => false,
        }
    }

    /// Recompiles the schedule if the topology changed, clears all pending
    /// wakes, and marks every scheduled component due at the current
    /// cycle. Starting a run from the all-due state re-synchronises any
    /// state mutated from outside (direct `component_mut` access, pool
    /// pushes between runs) exactly as the stepping kernel would see it.
    fn prepare_run(&mut self) {
        self.ensure_sanitizer();
        let signature = (
            self.components.len(),
            self.pool.wire_count(),
            self.couples.len(),
        );
        if self.arena.signature != signature || !self.pool.wake_armed() {
            self.rebuild_schedule();
            self.arena.signature = signature;
        }
        let positions = self.arena.order.len();
        let all = if positions >= MAX_POSITIONS {
            !0u64
        } else {
            (1u64 << positions) - 1
        };
        self.arena.due = all;
        // Beats pushed from outside any run become visible one cycle in:
        // give every component a look at both of the first two cycles,
        // then let the hints take over.
        self.arena.due_next = if self.pool.total_in_flight() > 0 {
            all
        } else {
            0
        };
        for at in &mut self.arena.wake_at {
            *at = NEVER;
        }
        self.arena.wake_min = NEVER;
        self.pool.begin_actor(u32::MAX);
        // Wake accumulation from pushes between runs carries no information
        // beyond the all-due start; drop it along with its event count.
        let _ = self.pool.take_wakes();
        let _ = self.pool.take_wake_events();
    }

    /// Compiles the schedule and the per-wire wake masks. Every component
    /// but the tap observers takes a position, in registration order; tap
    /// observers are drained in bulk, never due.
    ///
    /// # Panics
    ///
    /// If more than [`MAX_POSITIONS`] components are not tap observers.
    fn rebuild_schedule(&mut self) {
        let n = self.components.len();
        let positions = n - self.observers.len();
        assert!(
            positions <= MAX_POSITIONS,
            "arena kernel: {positions} schedule positions exceed the limit of \
             {MAX_POSITIONS} (every component but a tap observer takes one)"
        );
        let mut is_observer = vec![false; n];
        for &i in &self.observers {
            is_observer[i] = true;
        }
        let order: Vec<u32> = (0..n)
            .filter(|&i| !is_observer[i])
            .map(|i| i as u32)
            .collect();
        let mut pos_of = vec![0u32; n];
        for (pos, &i) in order.iter().enumerate() {
            pos_of[i as usize] = pos as u32;
        }

        let counts = self.pool.wire_counts();
        let mut slot_base = [0usize; CHANNEL_SLOTS];
        let mut total_wires = 0;
        for (slot, &wires) in counts.iter().enumerate() {
            slot_base[slot] = total_wires;
            total_wires += wires;
        }
        let mut all = vec![0u64; total_wires];
        let mut opaque_mask = 0u64;
        let mut consume = vec![Vec::new(); positions];
        for (pos, &i) in order.iter().enumerate() {
            let bit = 1u64 << pos;
            let ports = self.components[i as usize].ports();
            if ports.is_empty() {
                opaque_mask |= bit;
                continue;
            }
            for port in ports {
                let Some(slot) = channel_slot(port.channel) else {
                    continue;
                };
                if port.wire >= counts[slot] {
                    continue; // dangling declaration; realm-lint reports it
                }
                let flat = slot_base[slot] + port.wire;
                all[flat] |= bit;
                let key = (slot, port.wire);
                if port.dir == PortDir::Consume && !consume[pos].contains(&key) {
                    consume[pos].push(key);
                }
            }
        }
        let mut dependents = vec![Vec::new(); positions];
        for &(source, dependent) in &self.couples {
            // A tap observer is never coupled (its contract); skip rather
            // than give it a position.
            if is_observer[source] || is_observer[dependent] {
                continue;
            }
            let (sp, dp) = (pos_of[source] as usize, pos_of[dependent]);
            if !dependents[sp].contains(&dp) {
                dependents[sp].push(dp);
            }
        }
        self.arena.order = order;
        self.arena.opaque_mask = opaque_mask;
        self.arena.consume = consume;
        self.arena.dependents = dependents;
        self.arena.wake_at = vec![NEVER; positions];
        self.arena.wake_min = NEVER;
        self.pool
            .set_wake_tables(Box::new(WakeTables { slot_base, all }));
    }

    /// Pulls far wakes that have come due into the due mask and re-derives
    /// the exact minimum (the stored one may be a stale lower bound).
    fn merge_far_wakes(&mut self) {
        let cycle = self.cycle;
        let mut min = NEVER;
        for (pos, at) in self.arena.wake_at.iter_mut().enumerate() {
            if *at <= cycle {
                self.arena.due |= 1u64 << pos;
                *at = NEVER;
            } else if *at < min {
                min = *at;
            }
        }
        self.arena.wake_min = min;
    }

    /// Books a wake at `at` (strictly after `current`) for the component
    /// at schedule position `pos`.
    fn schedule(&mut self, pos: usize, bit: u64, at: Cycle, current: Cycle) {
        if at == current + 1 {
            self.arena.due_next |= bit;
        } else if at < self.arena.wake_at[pos] {
            self.arena.wake_at[pos] = at;
            if at < self.arena.wake_min {
                self.arena.wake_min = at;
            }
        }
    }

    /// Reconciles component `index` up to (excluding) `to`.
    fn flush_component(&mut self, index: usize, to: Cycle) {
        if self.synced_to[index] < to {
            self.components[index].on_fast_forward(self.synced_to[index], to);
            self.synced_to[index] = to;
        }
    }

    /// Reconciles every component that holds a schedule position (all but
    /// the tap observers) up to (excluding) `to`.
    fn flush_scheduled(&mut self, to: Cycle) {
        for pos in 0..self.arena.order.len() {
            self.flush_component(self.arena.order[pos] as usize, to);
        }
    }

    /// Reconciles every component up to (excluding) `to`.
    fn flush_all(&mut self, to: Cycle) {
        for index in 0..self.components.len() {
            self.flush_component(index, to);
        }
    }

    fn record_violation(
        &mut self,
        component: usize,
        cycle: Cycle,
        hint: Cycle,
        kind: ViolationKind,
    ) {
        if self.violations.len() < MAX_VIOLATIONS {
            let name = self.components[component].name().to_owned();
            self.violations.push(ContractViolation {
                component,
                name,
                cycle,
                hint,
                kind,
            });
        } else {
            self.violations_dropped += 1;
        }
    }

    /// Safety net (debug builds always; release builds with the sanitizer
    /// armed): a sleeping component whose `next_event` claims it is due
    /// right now was missed by the wake bookkeeping — an under-reporting
    /// hint or an undeclared dependency. Record it and wake the component
    /// so results stay exact anyway. With the sanitizer armed the miss is
    /// additionally a [`SanitizerKind::UndeclaredWake`]: the component
    /// reacted to state no declared wire or couple edge carries.
    fn poll_missed_wakes(&mut self) {
        let cycle = self.cycle;
        for pos in 0..self.arena.order.len() {
            if self.arena.due & (1u64 << pos) != 0 {
                continue;
            }
            let i = self.arena.order[pos] as usize;
            if let Some(hint) = self.components[i].next_event(cycle) {
                if hint <= cycle {
                    self.record_violation(i, cycle, hint, ViolationKind::MissedWake);
                    if self.sanitize {
                        self.record_san_violation(RawSanViolation {
                            component: i,
                            cycle,
                            channel: "-",
                            wire: 0,
                            kind: SanitizerKind::UndeclaredWake,
                        });
                    }
                    self.arena.due |= 1u64 << pos;
                }
            }
        }
    }

    /// Executes one cycle: ticks exactly the due components in schedule
    /// order, turns their wire activity (read from the pool's wake-mask
    /// accumulators) into wakes, and re-arms their `next_event` hints.
    fn process_cycle(&mut self) {
        if cfg!(debug_assertions) || self.sanitize {
            self.poll_missed_wakes();
        }
        let cycle = self.cycle;
        let n = self.components.len();
        let mut due = std::mem::take(&mut self.arena.due);
        let mut ticked: u64 = 0;
        while due != 0 {
            let pos = due.trailing_zeros() as usize;
            due &= due - 1;
            let bit = 1u64 << pos;
            let i = self.arena.order[pos] as usize;

            // Shared-state couplings: reconcile each dependent before this
            // tick reads or writes the shared state. A dependent earlier in
            // schedule order has had its turn this cycle, so its tick at
            // `cycle` is elided under the pre-write state.
            for k in 0..self.arena.dependents[pos].len() {
                let dp = self.arena.dependents[pos][k] as usize;
                let d = self.arena.order[dp] as usize;
                let to = if dp < pos { cycle + 1 } else { cycle };
                self.flush_component(d, to);
            }

            self.flush_component(i, cycle);
            self.synced_to[i] = cycle + 1;
            // Any pending far wake is superseded by the re-arm below; the
            // stored minimum may go stale-low, which the merge scan fixes.
            self.arena.wake_at[pos] = NEVER;
            self.pool.begin_actor(pos as u32);
            self.visit(i, cycle);
            ticked += 1;

            // Wire activity → wakes, accumulated by the pool as masks. A
            // push is visible to peers from the next cycle (register per
            // hop); peers later in schedule order also get a same-cycle
            // look, as a stepped tick after the pusher would. A pop frees
            // capacity usable by peers from the next cycle, or this cycle
            // for later peers.
            let (now, next, any) = self.pool.take_wakes();
            due |= now;
            self.arena.due_next |= next;
            if any && self.arena.opaque_mask != 0 {
                // Opaque components: any wire activity may matter to them.
                // One combined wake per tick (due now for later positions,
                // next cycle always) over-approximates the push/pop rules —
                // extra ticks are always exact.
                due |= self.arena.opaque_mask & !(bit | (bit - 1));
                self.arena.due_next |= self.arena.opaque_mask & !bit;
            }

            // Coupled dependents observe the write next cycle, or this
            // cycle if they tick after the writer.
            for k in 0..self.arena.dependents[pos].len() {
                let dp = self.arena.dependents[pos][k];
                if (dp as usize) > pos {
                    due |= 1u64 << dp;
                } else {
                    self.arena.due_next |= 1u64 << dp;
                }
            }

            // Re-arm the wake hint — unless a wire wake has already booked
            // the component for the next cycle, in which case no hint
            // (necessarily `>= cycle + 1`) could add anything and the
            // virtual call is skipped outright.
            if self.arena.due_next & bit == 0 {
                match self.components[i].next_event(cycle + 1) {
                    None => {}
                    Some(hint) if hint <= cycle => {
                        self.record_violation(i, cycle, hint, ViolationKind::StaleHint);
                        self.arena.due_next |= bit;
                    }
                    Some(hint) => self.schedule(pos, bit, hint, cycle),
                }
            }
            // A consumer may pop at most one beat per wire per cycle (and
            // may decline): while any of its input wires holds beats, the
            // component decides via `backlog_event` when the next pop could
            // happen (the default: right away). Opaque components get the
            // conservative whole-pool version of the same rule.
            if self.arena.due_next & bit == 0 {
                let backlog = if self.arena.opaque_mask & bit != 0 {
                    self.pool.total_in_flight() > 0
                } else {
                    self.arena.consume[pos]
                        .iter()
                        .any(|&(slot, wire)| self.pool.slot_len(slot, wire) > 0)
                };
                if backlog {
                    match self.components[i].backlog_event(cycle + 1) {
                        None => {}
                        Some(hint) if hint <= cycle => {
                            self.record_violation(i, cycle, hint, ViolationKind::StaleHint);
                            self.arena.due_next |= bit;
                        }
                        Some(hint) => self.schedule(pos, bit, hint, cycle),
                    }
                }
            }
        }
        self.pool.set_owner(None);
        self.stats.wire_events += self.pool.take_wake_events();
        self.drain_sanitizer();

        self.cycle = cycle + 1;
        self.stats.ticks_executed += 1;
        self.stats.component_ticks += ticked;
        self.stats.component_skips += n as u64 - ticked;
        self.arena.due = std::mem::take(&mut self.arena.due_next);
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("cycle", &self.cycle)
            .field("components", &self.components.len())
            .field("wires", &self.pool.wire_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WireId;
    use crate::topology::PortDecl;
    use axi4::WBeat;

    struct Producer {
        out: WireId<WBeat>,
        sent: u64,
        limit: u64,
    }

    impl Component for Producer {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if self.sent < self.limit && ctx.pool.can_push(self.out, ctx.cycle) {
                ctx.pool
                    .push(self.out, ctx.cycle, WBeat::full(self.sent, false));
                self.sent += 1;
            }
        }
        fn name(&self) -> &str {
            "producer"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("W", self.out.index(), PortDir::Drive)]
        }
    }

    struct Consumer {
        input: WireId<WBeat>,
        received: Vec<u64>,
    }

    impl Component for Consumer {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if let Some(beat) = ctx.pool.pop(self.input, ctx.cycle) {
                self.received.push(beat.data);
            }
        }
        fn name(&self) -> &str {
            "consumer"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("W", self.input.index(), PortDir::Consume)]
        }
    }

    fn build() -> (Sim, ComponentId, ComponentId) {
        let mut sim = Sim::new();
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        let p = sim.add(Producer {
            out: wire,
            sent: 0,
            limit: 5,
        });
        let c = sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        (sim, p, c)
    }

    #[test]
    fn producer_consumer_pipeline() {
        let (mut sim, _p, c) = build();
        sim.run(10);
        let consumer = sim.component::<Consumer>(c).unwrap();
        assert_eq!(consumer.received, [0, 1, 2, 3, 4]);
    }

    /// Tick order must not change results: swap registration order.
    #[test]
    fn order_independence() {
        let mut sim = Sim::new();
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        let c = sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        let _p = sim.add(Producer {
            out: wire,
            sent: 0,
            limit: 5,
        });
        sim.run(10);
        let consumer = sim.component::<Consumer>(c).unwrap();
        assert_eq!(consumer.received, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_predicate() {
        let (mut sim, _p, c) = build();
        let fired = sim.run_until(100, |s| {
            s.component::<Consumer>(c)
                .is_some_and(|x| x.received.len() == 3)
        });
        assert!(fired);
        assert!(sim.cycle() < 100);
        // Predicate that never fires.
        assert!(!sim.run_until(5, |_| false));
    }

    /// `run_until` stops at exactly the cycle a stepped run stops at.
    #[test]
    fn run_until_stop_cycle_matches_stepping() {
        let observe = |mode: KernelMode| {
            let (mut sim, _p, c) = build();
            sim.set_kernel_mode(mode);
            let fired = sim.run_until(200, |s| {
                s.component::<Consumer>(c)
                    .is_some_and(|x| x.received.len() >= 3)
            });
            (fired, sim.cycle())
        };
        let arena = observe(KernelMode::Arena);
        assert!(arena.0);
        assert_eq!(arena, observe(KernelMode::Step));
    }

    #[test]
    fn downcast_type_mismatch_is_none() {
        let (sim, p, _c) = build();
        assert!(sim.component::<Consumer>(p).is_none());
        assert!(sim.component::<Producer>(p).is_some());
    }

    #[test]
    fn component_mut_allows_reconfiguration() {
        let (mut sim, p, c) = build();
        sim.run(2);
        sim.component_mut::<Producer>(p).unwrap().limit = 2;
        sim.run(10);
        assert_eq!(sim.component::<Consumer>(c).unwrap().received.len(), 2);
    }

    #[test]
    fn debug_shows_counts() {
        let (sim, ..) = build();
        let s = format!("{sim:?}");
        assert!(s.contains("components: 2"));
    }

    /// Step-kernel and arena-kernel accounting both cover every cycle.
    #[test]
    fn component_tick_accounting_is_exhaustive() {
        let (mut sim, ..) = build();
        sim.run(50);
        let s = sim.kernel_stats();
        assert_eq!(s.cycles_total(), 50);
        assert_eq!(s.component_ticks + s.component_skips, 50 * 2);

        let (mut slow, ..) = build();
        slow.set_kernel_mode(KernelMode::Step);
        slow.run(50);
        let s = slow.kernel_stats();
        assert_eq!(s.ticks_executed, 50);
        assert_eq!(s.cycles_skipped, 0);
        assert_eq!(s.component_ticks, 50 * 2);
        assert_eq!(s.component_skips, 0);
    }

    /// Mixed driving — explicit steps between arena runs — stays
    /// consistent: state and cycle match an all-stepped twin.
    #[test]
    fn step_and_run_interleave() {
        let (mut a, _pa, ca) = build();
        let (mut b, _pb, cb) = build();
        a.run(3);
        a.step();
        a.run(6);
        for _ in 0..10 {
            b.step();
        }
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(
            a.component::<Consumer>(ca).unwrap().received,
            b.component::<Consumer>(cb).unwrap().received
        );
    }

    /// A quiescent predicate target at an otherwise-skipped cycle: the
    /// plain run_until may jump past it, the clamped variant must not.
    #[test]
    fn run_until_clamped_observes_boundary() {
        struct Sleeper;
        impl Component for Sleeper {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
                None
            }
        }
        let mut sim = Sim::new();
        sim.add(Sleeper);
        // Nothing ever happens: the arena kernel jumps straight to the
        // target, so a `cycle == 500` predicate never observes 500…
        assert!(!sim.run_until(1_000, |s| s.cycle() == 500));
        assert_eq!(sim.cycle(), 1_000);
        // …while the clamped variant lands on the boundary exactly.
        let mut sim = Sim::new();
        sim.add(Sleeper);
        assert!(sim.run_until_clamped(1_000, 500, |s| s.cycle() == 500));
        assert_eq!(sim.cycle(), 500);
        let stats = sim.kernel_stats();
        assert!(stats.cycles_skipped >= 499, "boundary reached by jumping");
    }

    /// A component whose `next_event` under-reports (returns a stale hint)
    /// is detected in debug builds and corrected, not silently degraded.
    #[cfg(debug_assertions)]
    #[test]
    fn stale_hint_is_reported_and_corrected() {
        struct StaleHinter {
            ticks: u64,
        }
        impl Component for StaleHinter {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                self.ticks += 1;
            }
            fn name(&self) -> &str {
                "stale-hinter"
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                // Deliberately broken: always claims a wake in the past.
                Some(cycle.saturating_sub(1))
            }
        }
        let mut sim = Sim::new();
        let id = sim.add(StaleHinter { ticks: 0 });
        sim.run(10);
        // Exactness is preserved: the component still ticked every cycle.
        assert_eq!(sim.component::<StaleHinter>(id).unwrap().ticks, 10);
        let violations = sim.contract_violations();
        assert!(!violations.is_empty(), "stale hint must be reported");
        assert_eq!(violations[0].kind, ViolationKind::StaleHint);
        assert_eq!(violations[0].name, "stale-hinter");
        assert!(violations[0].to_string().contains("stale"));
    }

    /// Coupled shared state (an `Rc<RefCell<…>>` side channel) stays exact
    /// under the arena kernel when declared via `Sim::couple`.
    #[test]
    fn coupled_shared_state_matches_stepping() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type Shared = Rc<RefCell<u64>>;

        /// Writes to shared state at one fixed cycle, then sleeps forever.
        struct Writer {
            shared: Shared,
            at: Cycle,
        }
        impl Component for Writer {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.cycle == self.at {
                    *self.shared.borrow_mut() = ctx.cycle;
                }
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                (cycle <= self.at).then_some(self.at)
            }
        }

        /// Sleeps until woken; samples the shared state every tick.
        struct Reader {
            shared: Shared,
            samples: Vec<(Cycle, u64)>,
        }
        impl Component for Reader {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                self.samples.push((ctx.cycle, *self.shared.borrow()));
            }
            fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
                None
            }
        }

        let run = |mode: KernelMode| {
            let shared: Shared = Rc::new(RefCell::new(0));
            let mut sim = Sim::new();
            sim.set_kernel_mode(mode);
            let writer = sim.add(Writer {
                shared: Rc::clone(&shared),
                at: 400,
            });
            let reader = sim.add(Reader {
                shared: Rc::clone(&shared),
                samples: Vec::new(),
            });
            sim.couple(writer, reader);
            sim.run(1_000);
            let reader = sim.component::<Reader>(reader).unwrap();
            // Drop cycle-0 samples (run-start tick-all); keep the rest.
            reader
                .samples
                .iter()
                .filter(|(c, _)| *c > 0)
                .cloned()
                .collect::<Vec<_>>()
        };
        let fast = run(KernelMode::Arena);
        // The reader saw the write: it was woken at the writer's cycle.
        assert!(
            fast.iter().any(|&(c, v)| c == 400 && v == 400),
            "coupled reader must observe the write at its cycle: {fast:?}"
        );
    }

    struct Nop;
    impl Component for Nop {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
    }

    /// Registering couples stays cheap at scale and keeps declaration
    /// order; duplicates and self-couples are ignored.
    #[test]
    fn couple_dedup_scales_and_keeps_order() {
        let mut sim = Sim::new();
        let ids: Vec<_> = (0..101).map(|_| sim.add(Nop)).collect();
        let mut expected = Vec::new();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    sim.couple(a, b);
                    expected.push((a.index(), b.index()));
                }
            }
        }
        // Re-register every pair (all duplicates) plus self-couples.
        for &a in &ids {
            for &b in &ids {
                sim.couple(a, b);
            }
        }
        let topo = sim.topology();
        assert_eq!(topo.couples().len(), 101 * 100, "10100 distinct couples");
        assert_eq!(topo.couples(), expected, "declaration order preserved");
    }

    /// Deliberately broken hinter: always claims a wake in the past, so
    /// every processed cycle records a stale-hint violation.
    struct AlwaysStale;
    impl Component for AlwaysStale {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            "always-stale"
        }
        fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
            Some(cycle.saturating_sub(1))
        }
    }

    /// Violations beyond the retention bound are counted, not stored.
    #[test]
    fn contract_violations_beyond_cap_are_counted() {
        let mut sim = Sim::new();
        sim.add(AlwaysStale);
        sim.run(MAX_VIOLATIONS as u64 + 50);
        assert_eq!(sim.contract_violations().len(), MAX_VIOLATIONS);
        assert!(
            sim.contract_violations_dropped() >= 1,
            "overflow must be counted, got {}",
            sim.contract_violations_dropped()
        );
    }

    /// Pushes an undeclared W wire every cycle while declaring only a B
    /// wire: with the sanitizer armed, every push is an UndeclaredPush.
    struct RoguePusher {
        declared: WireId<axi4::BBeat>,
        undeclared: WireId<WBeat>,
    }
    impl Component for RoguePusher {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            // Drain our own backlog so the wire never fills up.
            ctx.pool.pop(self.undeclared, ctx.cycle);
            if ctx.pool.can_push(self.undeclared, ctx.cycle) {
                ctx.pool
                    .push(self.undeclared, ctx.cycle, WBeat::full(1, true));
            }
        }
        fn name(&self) -> &str {
            "rogue"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("B", self.declared.index(), PortDir::Drive)]
        }
    }

    /// Sanitizer violations beyond the retention bound are counted, not
    /// stored — mirroring the contract-violation cap — and the stored
    /// records carry the offender's name and access kind.
    #[test]
    fn sanitizer_violations_beyond_cap_are_counted() {
        let mut sim = Sim::new();
        let declared = sim.pool_mut().new_wire::<axi4::BBeat>(2);
        let undeclared = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(RoguePusher {
            declared,
            undeclared,
        });
        sim.set_sanitize(true);
        sim.run(3 * MAX_VIOLATIONS as u64);
        let violations = sim.sanitizer_violations();
        assert_eq!(violations.len(), MAX_VIOLATIONS);
        assert!(
            sim.sanitizer_violations_dropped() >= 1,
            "overflow must be counted, got {}",
            sim.sanitizer_violations_dropped()
        );
        assert!(violations
            .iter()
            .all(|v| v.name == "rogue" && v.kind != SanitizerKind::UndeclaredWake));
        // Both reporting paths surface in the telemetry sink: a total that
        // includes the dropped tail, plus one instant per retained record.
        let sink = sim.telemetry();
        assert_eq!(
            sink.get_counter("kernel.sanitizer_violations"),
            Some(MAX_VIOLATIONS as u64 + sim.sanitizer_violations_dropped())
        );
        assert!(sink
            .instants()
            .iter()
            .filter(|i| i.name.starts_with("sanitizer:"))
            .count()
            .eq(&MAX_VIOLATIONS));
    }

    /// Contract violations surface through `Sim::telemetry` the same way.
    #[test]
    fn contract_violations_surface_in_telemetry() {
        let mut sim = Sim::new();
        sim.add(AlwaysStale);
        sim.run(10);
        let sink = sim.telemetry();
        let total = sink.get_counter("kernel.contract_violations").unwrap();
        assert_eq!(total, sim.contract_violations().len() as u64);
        assert!(total > 0);
        assert!(sink
            .instants()
            .iter()
            .any(|i| i.track == "kernel" && i.name.contains("stale-hint:always-stale")));
    }

    /// The self-profiler attributes visits per component.
    #[test]
    fn profiler_attributes_visits() {
        let mut sim = Sim::new();
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Producer {
            out: wire,
            sent: 0,
            limit: 5,
        });
        sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        sim.run(50);
        let profile = sim.profile();
        assert_eq!(profile.len(), 2);
        assert!(profile[0].visits >= 5, "producer visits: {profile:?}");
        assert!(profile[1].visits >= 5, "consumer visits: {profile:?}");
        assert_eq!(profile[0].name, sim.component_name(0).unwrap());
        // Without the self-profile feature no wall-time is attributed.
        #[cfg(not(feature = "self-profile"))]
        assert!(profile.iter().all(|p| p.wall_ns == 0));
    }

    /// An early predicate exit out of `run_until_clamped` must not lose
    /// the violation reports accumulated before the exit.
    #[test]
    fn stale_hint_reports_survive_clamped_early_exit() {
        let mut sim = Sim::new();
        sim.add(AlwaysStale);
        let fired = sim.run_until_clamped(1_000, 500, |s| s.cycle() >= 5);
        assert!(fired);
        assert!(sim.cycle() >= 5 && sim.cycle() < 1_000, "early exit");
        let violations = sim.contract_violations();
        assert!(
            !violations.is_empty(),
            "stale-hint reports must survive the early exit"
        );
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::StaleHint));
    }

    /// Two producer/consumer pairs on disjoint wires: in registration order
    /// `[pa, ca, pb, cb]` the dependence graph splits into two islands.
    fn build_pairs() -> (Sim, ComponentId, ComponentId) {
        let mut sim = Sim::new();
        let wa = sim.pool_mut().new_wire::<WBeat>(2);
        let wb = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Producer {
            out: wa,
            sent: 0,
            limit: 5,
        });
        let ca = sim.add(Consumer {
            input: wa,
            received: Vec::new(),
        });
        sim.add(Producer {
            out: wb,
            sent: 0,
            limit: 7,
        });
        let cb = sim.add(Consumer {
            input: wb,
            received: Vec::new(),
        });
        (sim, ca, cb)
    }

    #[test]
    fn independent_pairs_form_two_islands() {
        let (sim, ..) = build_pairs();
        assert_eq!(sim.partition(), vec![vec![0, 1], vec![2, 3]]);
    }

    /// Two independent islands match flat stepping under the arena kernel,
    /// both when each island's members are registered together and when
    /// registration order interleaves the islands.
    #[test]
    fn interleaved_islands_match_stepping() {
        let observe = |mode: KernelMode| {
            let (mut sim, ca, cb) = build_pairs();
            sim.set_kernel_mode(mode);
            sim.run(25);
            (
                sim.cycle(),
                sim.component::<Consumer>(ca).unwrap().received.clone(),
                sim.component::<Consumer>(cb).unwrap().received.clone(),
            )
        };
        assert_eq!(observe(KernelMode::Arena), observe(KernelMode::Step));

        // Interleaved registration: islands {0,2} and {1,3}.
        let observe_interleaved = |mode: KernelMode| {
            let mut sim = Sim::new();
            let wa = sim.pool_mut().new_wire::<WBeat>(2);
            let wb = sim.pool_mut().new_wire::<WBeat>(2);
            sim.add(Producer {
                out: wa,
                sent: 0,
                limit: 5,
            });
            sim.add(Producer {
                out: wb,
                sent: 0,
                limit: 7,
            });
            let ca = sim.add(Consumer {
                input: wa,
                received: Vec::new(),
            });
            let cb = sim.add(Consumer {
                input: wb,
                received: Vec::new(),
            });
            if mode == KernelMode::Arena {
                assert_eq!(sim.partition(), vec![vec![0, 2], vec![1, 3]]);
            }
            sim.set_kernel_mode(mode);
            sim.run(25);
            (
                sim.component::<Consumer>(ca).unwrap().received.clone(),
                sim.component::<Consumer>(cb).unwrap().received.clone(),
            )
        };
        assert_eq!(
            observe_interleaved(KernelMode::Arena),
            observe_interleaved(KernelMode::Step)
        );
    }

    /// Only `step` and `arena` select a kernel; anything else — a typo, an
    /// alias, or a removed kernel — is refused with a message naming the
    /// variable, the value and the accepted values.
    #[test]
    fn kernel_mode_parse_rejects_unknown_values() {
        assert_eq!(KernelMode::parse("step"), Ok(KernelMode::Step));
        assert_eq!(KernelMode::parse("arena"), Ok(KernelMode::Arena));
        for mode in [KernelMode::Step, KernelMode::Arena] {
            assert_eq!(KernelMode::parse(mode.name()), Ok(mode));
        }
        let err = KernelMode::parse("arnea").unwrap_err();
        assert!(err.contains("REALM_KERNEL"), "{err}");
        assert!(err.contains("\"arnea\""), "{err}");
        assert!(err.contains("step, arena"), "{err}");
        for removed in ["event", "islands", "", "Arena"] {
            assert!(KernelMode::parse(removed).is_err(), "{removed:?}");
        }
    }

    /// A tap observer on one wire: counts the beats its tap recorded.
    struct TapCounter {
        wire: WireId<WBeat>,
        seen: Vec<(Cycle, u64)>,
    }
    impl Component for TapCounter {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            let records = ctx.pool.tap(self.wire);
            self.seen.extend(records.iter().map(|(c, b)| (*c, b.data)));
            ctx.pool.clear_tap(self.wire);
        }
        fn tap_observer(&self) -> bool {
            true
        }
    }

    /// Tap observers take no schedule position: 32 producer/consumer pairs
    /// (64 positions) plus a tap observer on every wire (96 components)
    /// run under the arena kernel and match stepping.
    #[test]
    fn tap_observers_do_not_count_toward_the_position_limit() {
        let observe = |mode: KernelMode| {
            let mut sim = Sim::new();
            sim.set_kernel_mode(mode);
            let mut consumers = Vec::new();
            let mut taps = Vec::new();
            for k in 0..32 {
                let wire = sim.pool_mut().new_wire::<WBeat>(2);
                sim.add(Producer {
                    out: wire,
                    sent: 0,
                    limit: 3 + k % 5,
                });
                consumers.push(sim.add(Consumer {
                    input: wire,
                    received: Vec::new(),
                }));
                sim.pool_mut().enable_tap(wire);
                taps.push(sim.add(TapCounter {
                    wire,
                    seen: Vec::new(),
                }));
            }
            assert_eq!(sim.topology().components().len(), 96);
            sim.run(40);
            let received: Vec<Vec<u64>> = consumers
                .iter()
                .map(|&c| sim.component::<Consumer>(c).unwrap().received.clone())
                .collect();
            let seen: Vec<Vec<(Cycle, u64)>> = taps
                .iter()
                .map(|&t| sim.component::<TapCounter>(t).unwrap().seen.clone())
                .collect();
            (sim.cycle(), received, seen)
        };
        let stepped = observe(KernelMode::Step);
        assert_eq!(stepped.1[0], [0, 1, 2]);
        assert_eq!(observe(KernelMode::Arena), stepped);
    }

    /// A `run_until` predicate never reads a tap observer, so the arena
    /// kernel reconciles none before its checks: the observer's
    /// `on_fast_forward` runs once, when the run returns, whether the
    /// predicate fired or the cycle cap ended the run.
    #[test]
    fn run_until_reconciles_tap_observers_only_on_return() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct FastForwardCounter {
            wire: WireId<WBeat>,
            calls: Rc<Cell<u32>>,
        }
        impl Component for FastForwardCounter {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                ctx.pool.clear_tap(self.wire);
            }
            fn tap_observer(&self) -> bool {
                true
            }
            fn on_fast_forward(&mut self, _from: Cycle, _to: Cycle) {
                self.calls.set(self.calls.get() + 1);
            }
        }
        let calls = Rc::new(Cell::new(0));
        let mut sim = Sim::new();
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Producer {
            out: wire,
            sent: 0,
            limit: 40,
        });
        let consumer = sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        sim.pool_mut().enable_tap(wire);
        sim.add(FastForwardCounter {
            wire,
            calls: Rc::clone(&calls),
        });

        let mut seen_during_checks = Vec::new();
        let fired = sim.run_until(1000, |s| {
            seen_during_checks.push(calls.get());
            s.component::<Consumer>(consumer).unwrap().received.len() == 30
        });
        assert!(fired);
        assert!(seen_during_checks.len() > 30, "one check per busy cycle");
        assert!(
            seen_during_checks.iter().all(|&c| c == 0),
            "observer reconciled during predicate checks: {seen_during_checks:?}"
        );
        assert_eq!(calls.get(), 1, "reconciled once when the predicate fired");

        calls.set(0);
        let mut seen_during_checks = Vec::new();
        assert!(!sim.run_until(50, |_| {
            seen_during_checks.push(calls.get());
            false
        }));
        assert!(seen_during_checks[..seen_during_checks.len() - 1]
            .iter()
            .all(|&c| c == 0));
        assert_eq!(calls.get(), 1, "reconciled once when the cap ended the run");
    }

    /// 65 components that are not tap observers need 65 schedule
    /// positions: the arena run refuses at its start, naming the count and
    /// the limit.
    #[test]
    #[should_panic(expected = "65 schedule positions exceed the limit of 64")]
    fn sixty_five_positions_fail_at_run_start() {
        let mut sim = Sim::new();
        sim.set_kernel_mode(KernelMode::Arena);
        for _ in 0..65 {
            sim.add(Nop);
        }
        sim.run(1);
    }

    /// Declares one wire, touches another: the armed sanitizer flags both
    /// the push and the pop, with names resolved.
    struct Rogue {
        declared: WireId<WBeat>,
        actual: WireId<WBeat>,
    }
    impl Component for Rogue {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.pool.can_push(self.actual, ctx.cycle) {
                ctx.pool.push(self.actual, ctx.cycle, WBeat::full(9, false));
            }
            ctx.pool.pop(self.actual, ctx.cycle);
        }
        fn name(&self) -> &str {
            "rogue"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![
                PortDecl::new("W", self.declared.index(), PortDir::Drive),
                PortDecl::new("W", self.declared.index(), PortDir::Consume),
            ]
        }
    }

    #[test]
    fn sanitizer_flags_undeclared_accesses() {
        let mut sim = Sim::new();
        let declared = sim.pool_mut().new_wire::<WBeat>(2);
        let actual = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Rogue { declared, actual });
        sim.set_sanitize(true);
        assert!(sim.sanitize_enabled());
        sim.run(4);
        let violations = sim.sanitizer_violations();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == SanitizerKind::UndeclaredPush
                    && v.channel == "W"
                    && v.wire == actual.index()),
            "push on the undeclared wire must be flagged: {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.kind == SanitizerKind::UndeclaredPop),
            "pop on the undeclared wire must be flagged: {violations:?}"
        );
        assert_eq!(violations[0].name, "rogue");
        assert!(violations[0].to_string().contains("undeclared"));
    }

    /// Off by default: the same rogue records nothing; and a system whose
    /// declarations match its behaviour stays clean with the sanitizer on.
    #[test]
    fn sanitizer_default_off_and_declared_traffic_is_clean() {
        let mut sim = Sim::new();
        let declared = sim.pool_mut().new_wire::<WBeat>(2);
        let actual = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Rogue { declared, actual });
        sim.run(4);
        assert!(sim.sanitizer_violations().is_empty());

        let (mut sim, ..) = build();
        sim.set_sanitize(true);
        sim.run(20);
        assert!(
            sim.sanitizer_violations().is_empty(),
            "declared producer/consumer must be sanitizer-clean: {:?}",
            sim.sanitizer_violations()
        );
        assert_eq!(sim.sanitizer_violations_dropped(), 0);
    }

    /// A component whose wake hint secretly watches shared state that no
    /// couple declares: the armed sanitizer reports the undeclared wake
    /// (in release builds too — this is the missed-wake poll, promoted
    /// from a debug-only check).
    #[test]
    fn sanitizer_reports_undeclared_wake() {
        use std::cell::RefCell;
        use std::rc::Rc;
        type Shared = Rc<RefCell<bool>>;

        struct Setter {
            shared: Shared,
            at: Cycle,
        }
        impl Component for Setter {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.cycle == self.at {
                    *self.shared.borrow_mut() = true;
                }
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                (cycle <= self.at).then_some(self.at)
            }
        }

        struct Latcher {
            shared: Shared,
        }
        impl Component for Latcher {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn name(&self) -> &str {
                "latcher"
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                self.shared.borrow().then_some(cycle)
            }
        }

        let shared: Shared = Rc::new(RefCell::new(false));
        let mut sim = Sim::new();
        sim.set_sanitize(true);
        sim.add(Setter {
            shared: Rc::clone(&shared),
            at: 10,
        });
        let latcher = sim.add(Latcher {
            shared: Rc::clone(&shared),
        });
        sim.add(Nop); // heartbeat: keeps every cycle processed
        sim.run(20);
        assert!(
            sim.sanitizer_violations()
                .iter()
                .any(|v| v.kind == SanitizerKind::UndeclaredWake && v.component == latcher.index()),
            "undeclared wake must be flagged: {:?}",
            sim.sanitizer_violations()
        );
    }
}
