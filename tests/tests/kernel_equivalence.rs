//! The fast-forward kernel's correctness contract, checked end to end:
//! `Sim::run(n)` (which may jump over quiescent stretches) must leave the
//! system in exactly the state that `n` explicit `Sim::step()` calls do —
//! same component states, same beat-level traces, same final cycle. Only
//! the executed-tick/skipped-cycle split may differ.

use axi4::{
    Addr, ArBeat, AwBeat, BBeat, BurstKind, BurstLen, BurstSize, RBeat, SubordinateId, TxnId,
    WBeat, WriteTxn,
};
use axi_conformance::ProtocolMonitor;
use axi_mem::{MemoryConfig, MemoryModel};
use axi_realm::{DesignConfig, RealmUnit, RegionConfig, RuntimeConfig};
use axi_sim::{
    AxiBundle, BundleCapacity, Component, ComponentId, KernelMode, PortDecl, PortDir, Sim, TickCtx,
    TraceProbe,
};
use axi_traffic::{FuzzSpec, Op, ScriptedManager};
use axi_xbar::{AddressMap, Crossbar};
use cheshire_soc::{Testbench, TestbenchConfig};
use proptest::prelude::*;

const MEM_BASE: Addr = Addr::new(0x8000_0000);
const MEM_SIZE: u64 = 0x1_0000;

/// A manager → REALM unit → memory rig with a beat probe on the upstream
/// port: small enough to step cycle by cycle, rich enough to exercise
/// fragmentation, budgets, periods, isolation, and idle stretches.
struct Rig {
    sim: Sim,
    mgr: ComponentId,
    realm: ComponentId,
    probe: ComponentId,
}

fn build_rig(script: Vec<Op>, frag_len: u16, budget: u64, period: u64) -> Rig {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);
    let upstream = AxiBundle::new(sim.pool_mut(), cap);
    let downstream = AxiBundle::new(sim.pool_mut(), cap);

    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = frag_len;
    rt.regions[0] = RegionConfig {
        base: MEM_BASE,
        size: MEM_SIZE,
        budget_max: budget,
        period,
    };

    let mgr = sim.add(ScriptedManager::new(upstream, script));
    let realm = sim.add(RealmUnit::new(
        DesignConfig::cheshire(),
        rt,
        upstream,
        downstream,
    ));
    sim.add(MemoryModel::new(
        MemoryConfig::spm(MEM_BASE, MEM_SIZE),
        downstream,
    ));
    let probe = sim.add(TraceProbe::new(upstream, 4096));
    Rig {
        sim,
        mgr,
        realm,
        probe,
    }
}

/// Everything observable about a finished rig, in comparable form.
fn observe(rig: &Rig) -> (u64, String, String, String, String) {
    let mgr = rig.sim.component::<ScriptedManager>(rig.mgr).expect("mgr");
    let realm = rig.sim.component::<RealmUnit>(rig.realm).expect("realm");
    let probe = rig.sim.component::<TraceProbe>(rig.probe).expect("probe");
    (
        rig.sim.cycle(),
        format!("{:?}", mgr.completions()),
        format!("{:?}", realm.stats()),
        format!("{:?}", realm.monitor().regions()),
        probe.dump(),
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..8, 0u64..64, 1u16..=16, 1u64..2_000).prop_map(|(kind, slot, beats, wait)| {
        let addr = MEM_BASE + slot * 256;
        let len = BurstLen::new(beats).expect("in range");
        match kind {
            0..=2 => Op::Read(ArBeat::new(
                TxnId::new(0),
                addr,
                len,
                BurstSize::bus64(),
                BurstKind::Incr,
            )),
            3..=5 => {
                let aw = AwBeat::new(
                    TxnId::new(0),
                    addr,
                    len,
                    BurstSize::bus64(),
                    BurstKind::Incr,
                );
                Op::Write(WriteTxn::from_words(aw, (0..beats).map(u64::from)).expect("legal burst"))
            }
            _ => Op::Wait(wait),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random scripts (with idle gaps) and random regulation settings,
    /// a fast-forwarded `run(n)` is indistinguishable from `n` steps.
    #[test]
    fn run_with_fast_forward_equals_stepping(
        script in prop::collection::vec(arb_op(), 1..10),
        frag_len in prop::sample::select(vec![1u16, 4, 16, 256]),
        budget in prop::sample::select(vec![0u64, 256, 4096]),
        period in prop::sample::select(vec![0u64, 300, 1024]),
        cycles in 200u64..4_000,
    ) {
        let mut fast = build_rig(script.clone(), frag_len, budget, period);
        let mut slow = build_rig(script, frag_len, budget, period);

        fast.sim.run(cycles);
        for _ in 0..cycles {
            slow.sim.step();
        }

        let a = observe(&fast);
        let b = observe(&slow);
        prop_assert_eq!(a.0, b.0, "final cycle");
        prop_assert_eq!(&a.1, &b.1, "manager completions");
        prop_assert_eq!(&a.2, &b.2, "realm stats");
        prop_assert_eq!(&a.3, &b.3, "monitor regions");
        prop_assert_eq!(&a.4, &b.4, "beat trace");

        // The kernel's accounting must cover every simulated cycle exactly.
        let fs = fast.sim.kernel_stats();
        prop_assert_eq!(fs.cycles_total(), cycles, "executed + skipped");
        let ss = slow.sim.kernel_stats();
        prop_assert_eq!(ss.ticks_executed, cycles);
        prop_assert_eq!(ss.cycles_skipped, 0);
    }
}

/// A wait-heavy script must actually trigger fast-forwarding — otherwise
/// the equivalence property above is vacuous.
#[test]
fn idle_stretches_are_skipped_not_ticked() {
    let script = vec![
        Op::Read(ArBeat::new(
            TxnId::new(0),
            MEM_BASE,
            BurstLen::new(4).expect("in range"),
            BurstSize::bus64(),
            BurstKind::Incr,
        )),
        Op::Wait(5_000),
        Op::Read(ArBeat::new(
            TxnId::new(0),
            MEM_BASE + 0x100,
            BurstLen::ONE,
            BurstSize::bus64(),
            BurstKind::Incr,
        )),
    ];
    let mut rig = build_rig(script, 16, 0, 0);
    rig.sim.run(10_000);
    let stats = rig.sim.kernel_stats();
    assert!(stats.fast_forwards > 0, "no jump taken: {stats:?}");
    assert!(
        stats.cycles_skipped > 8_000,
        "the wait and the post-script tail should dominate: {stats:?}"
    );
    assert_eq!(stats.cycles_total(), 10_000);
    let mgr = rig.sim.component::<ScriptedManager>(rig.mgr).expect("mgr");
    assert!(mgr.is_done(), "both reads completed across the jumps");
    assert_eq!(mgr.completions().len(), 2);
}

/// Two managers contending through REALM units and a crossbar for one
/// memory — the shape where the arena kernel's wake rules (same-cycle vs
/// next-cycle, push vs pop) and the `backlog_event` overrides actually
/// matter. Tight budgets and short periods force depletion/isolation
/// windows, so beats sit parked on the units' upstream wires while the
/// kernel decides whether anything may sleep.
struct ContendedRig {
    sim: Sim,
    mgrs: Vec<ComponentId>,
    realms: Vec<ComponentId>,
    xbar: ComponentId,
    monitors: Vec<ComponentId>,
}

fn build_contended_rig(
    scripts: [Vec<Op>; 2],
    frag_len: u16,
    budget: u64,
    period: u64,
) -> ContendedRig {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);

    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = frag_len;
    rt.regions[0] = RegionConfig {
        base: MEM_BASE,
        size: MEM_SIZE,
        budget_max: budget,
        period,
    };

    let mut mgrs = Vec::new();
    let mut realms = Vec::new();
    let mut xbar_mgr_ports = Vec::new();
    let mut monitor_ports = Vec::new();
    for script in scripts {
        let upstream = AxiBundle::new(sim.pool_mut(), cap);
        let downstream = AxiBundle::new(sim.pool_mut(), cap);
        mgrs.push(sim.add(ScriptedManager::new(upstream, script)));
        realms.push(sim.add(RealmUnit::new(
            DesignConfig::cheshire(),
            rt.clone(),
            upstream,
            downstream,
        )));
        xbar_mgr_ports.push(downstream);
        monitor_ports.push(upstream);
    }

    let mem_port = AxiBundle::new(sim.pool_mut(), cap);
    let mut map = AddressMap::new();
    map.add(MEM_BASE, MEM_SIZE, SubordinateId::new(0))
        .expect("single static entry");
    let xbar = sim.add(Crossbar::new(map, xbar_mgr_ports, vec![mem_port]).expect("ports match"));
    sim.add(MemoryModel::new(
        MemoryConfig::llc(MEM_BASE, MEM_SIZE),
        mem_port,
    ));

    // Conformance monitors ride along as opaque observers: they must stay
    // beat-exact (and clean) under both kernels.
    let mut monitors = Vec::new();
    for (i, port) in monitor_ports.into_iter().enumerate() {
        monitors.push(ProtocolMonitor::attach(&mut sim, format!("mgr{i}"), port));
    }
    monitors.push(ProtocolMonitor::attach(&mut sim, "mem", mem_port));

    ContendedRig {
        sim,
        mgrs,
        realms,
        xbar,
        monitors,
    }
}

/// Everything observable about a finished contended rig, in comparable form.
fn observe_contended(rig: &ContendedRig) -> Vec<String> {
    let mut out = vec![format!("cycle={}", rig.sim.cycle())];
    for &id in &rig.mgrs {
        let mgr = rig.sim.component::<ScriptedManager>(id).expect("mgr");
        out.push(format!("{:?}", mgr.completions()));
    }
    for &id in &rig.realms {
        let realm = rig.sim.component::<RealmUnit>(id).expect("realm");
        out.push(format!("{:?}", realm.stats()));
        out.push(format!("{:?}", realm.monitor().regions()));
    }
    let xbar = rig.sim.component::<Crossbar>(rig.xbar).expect("xbar");
    for mgr in 0..xbar.manager_count() {
        out.push(format!("{:?}", xbar.manager_stats(mgr)));
    }
    out.push(format!("{:?}", xbar.interference_matrix()));
    for &id in &rig.monitors {
        let mon = rig.sim.component::<ProtocolMonitor>(id).expect("monitor");
        out.push(format!(
            "{} clean={} {:?}",
            mon.name(),
            mon.is_clean(),
            mon.violations()
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contended fuzz traffic — two managers, crossbar arbitration, active
    /// regulation with depletion windows — is bit-identical between the
    /// arena kernel and explicit stepping, with clean monitors and no
    /// contract violations on either side.
    #[test]
    fn contended_run_equals_stepping(
        seed_a in 0u64..1_000,
        seed_b in 0u64..1_000,
        frag_len in prop::sample::select(vec![1u16, 4, 16]),
        budget in prop::sample::select(vec![256u64, 1024, 8 * 1024]),
        period in prop::sample::select(vec![200u64, 1_000]),
        cycles in 500u64..3_000,
    ) {
        let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE).with_ops(12);
        let scripts = || [spec.generate(seed_a), spec.generate(seed_b)];

        let mut fast = build_contended_rig(scripts(), frag_len, budget, period);
        let mut slow = build_contended_rig(scripts(), frag_len, budget, period);

        fast.sim.set_kernel_mode(KernelMode::Arena);
        fast.sim.run(cycles);
        for _ in 0..cycles {
            slow.sim.step();
        }

        let a = observe_contended(&fast);
        let b = observe_contended(&slow);
        prop_assert_eq!(&a, &b, "arena kernel diverged from stepping");

        // Monitors must be clean in absolute terms, not merely identical —
        // otherwise "both kernels see the same violation" would pass.
        for rig in [&fast, &slow] {
            for &id in &rig.monitors {
                let mon = rig.sim.component::<ProtocolMonitor>(id).expect("monitor");
                prop_assert!(mon.is_clean(), "{}: {:?}", mon.name(), mon.violations());
            }
        }

        // Neither kernel may have tripped a stale-hint (or any other)
        // component contract violation, and every simulated cycle must be
        // accounted for exactly once.
        prop_assert_eq!(format!("{:?}", fast.sim.contract_violations()), "[]");
        prop_assert_eq!(format!("{:?}", slow.sim.contract_violations()), "[]");
        prop_assert_eq!(fast.sim.kernel_stats().cycles_total(), cycles);
        prop_assert_eq!(slow.sim.kernel_stats().cycles_total(), cycles);
    }
}

/// A pinned contended scenario big enough to hit depletion repeatedly:
/// the regression anchor for the `backlog_event` intake-closed override
/// (budget exhausted ⇒ the unit sleeps until the period boundary even with
/// beats parked upstream).
#[test]
fn contended_depletion_windows_match_stepping() {
    let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE)
        .with_ops(24)
        .with_max_beats(16);
    let scripts = || [spec.generate(11), spec.generate(22)];
    const CYCLES: u64 = 12_000;

    // 256-byte budget over a 600-cycle period: a single 16-beat burst
    // (128 bytes) burns half the budget, so depletion recurs all run long.
    let mut fast = build_contended_rig(scripts(), 4, 256, 600);
    let mut slow = build_contended_rig(scripts(), 4, 256, 600);
    fast.sim.run(CYCLES);
    for _ in 0..CYCLES {
        slow.sim.step();
    }

    assert_eq!(observe_contended(&fast), observe_contended(&slow));
    assert!(fast.sim.contract_violations().is_empty());

    // The regulation must actually have bitten — otherwise this pins an
    // uncontended fast path and the depletion claim above is vacuous.
    let isolated: u64 = fast
        .realms
        .iter()
        .map(|&id| {
            let realm = fast.sim.component::<RealmUnit>(id).expect("realm");
            realm.stats().isolated_cycles
        })
        .sum();
    assert!(
        isolated > 0,
        "budget never depleted: regulation not exercised"
    );

    let fs = fast.sim.kernel_stats();
    let ss = slow.sim.kernel_stats();
    assert_eq!(fs.cycles_total(), CYCLES);
    assert_eq!(ss.ticks_executed, CYCLES);
    assert!(
        fs.component_skips > 0,
        "no per-component elision on a contended run: {fs:?}"
    );
}

/// A regulated unit that trips isolation repeatedly: every trip and every
/// period replenishment lands on the same cycle under the arena kernel as
/// under stepping.
#[test]
fn isolation_trips_match_stepping() {
    let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE)
        .with_ops(24)
        .with_max_beats(16);
    let script = || spec.generate(77);
    const CYCLES: u64 = 8_000;

    // 256 bytes per 600-cycle period: isolation recurs all run long.
    let mut arena = build_rig(script(), 4, 256, 600);
    arena.sim.set_kernel_mode(KernelMode::Arena);
    let mut slow = build_rig(script(), 4, 256, 600);

    arena.sim.run(CYCLES);
    for _ in 0..CYCLES {
        slow.sim.step();
    }
    assert_eq!(observe(&arena), observe(&slow));
    assert!(arena.sim.contract_violations().is_empty());

    let realm = arena
        .sim
        .component::<RealmUnit>(arena.realm)
        .expect("realm");
    assert!(
        realm.stats().isolated_cycles > 0,
        "isolation never tripped: the scenario is vacuous"
    );
    assert_eq!(arena.sim.kernel_stats().cycles_total(), CYCLES);
}

/// Budget exhaustion that lasts: the budget runs dry once and stays dry
/// (period longer than the remaining run), parking beats on the upstream
/// wires for thousands of cycles while the isolated-cycle count advances
/// every cycle. The outcome matches stepping.
#[test]
fn budget_exhaustion_matches_stepping() {
    let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE)
        .with_ops(16)
        .with_max_beats(16);
    let script = || spec.generate(123);
    const CYCLES: u64 = 5_000;

    // 64-byte budget, 6000-cycle period: exhausts early, never replenishes
    // within the run.
    let mut arena = build_rig(script(), 1, 64, 6_000);
    arena.sim.set_kernel_mode(KernelMode::Arena);
    let mut slow = build_rig(script(), 1, 64, 6_000);

    arena.sim.run(CYCLES);
    for _ in 0..CYCLES {
        slow.sim.step();
    }
    assert_eq!(observe(&arena), observe(&slow));

    let realm = arena
        .sim
        .component::<RealmUnit>(arena.realm)
        .expect("realm");
    assert!(
        realm.stats().isolated_cycles > 0,
        "budget never exhausted: the scenario was not exercised"
    );
    assert_eq!(arena.sim.kernel_stats().cycles_total(), CYCLES);
}

/// A contended path with generous regulation: two managers share one
/// memory through the crossbar, so contention, not budgets, shapes the
/// traffic. The arena run is bit-identical to stepping.
#[test]
fn contended_path_matches_stepping() {
    let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE)
        .with_ops(20)
        .with_max_beats(8);
    let scripts = || [spec.generate(5), spec.generate(6)];
    const CYCLES: u64 = 6_000;

    // Generous regulation: traffic flows freely, contention does the work.
    let mut arena = build_contended_rig(scripts(), 16, 8 * 1024, 1_000);
    arena.sim.set_kernel_mode(KernelMode::Arena);
    let mut slow = build_contended_rig(scripts(), 16, 8 * 1024, 1_000);

    arena.sim.run(CYCLES);
    for _ in 0..CYCLES {
        slow.sim.step();
    }
    assert_eq!(observe_contended(&arena), observe_contended(&slow));
    assert!(arena.sim.contract_violations().is_empty());
    assert_eq!(arena.sim.kernel_stats().cycles_total(), CYCLES);
}

/// A sink that drains the request channels of one bundle, one beat per
/// channel per cycle — the minimal downstream half of a relay chain.
struct RequestSink {
    bundle: AxiBundle,
    taken: u64,
}

impl Component for RequestSink {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if ctx.pool.pop(self.bundle.aw, ctx.cycle).is_some() {
            self.taken += 1;
        }
        if ctx.pool.pop(self.bundle.w, ctx.cycle).is_some() {
            self.taken += 1;
        }
        if ctx.pool.pop(self.bundle.ar, ctx.cycle).is_some() {
            self.taken += 1;
        }
    }

    fn name(&self) -> &str {
        "req-sink"
    }

    fn ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("AW", self.bundle.aw.index(), PortDir::Consume),
            PortDecl::new("W", self.bundle.w.index(), PortDir::Consume),
            PortDecl::new("AR", self.bundle.ar.index(), PortDir::Consume),
        ]
    }
}

fn aw_beat(k: u64) -> AwBeat {
    AwBeat::new(
        TxnId::new(k as u32),
        MEM_BASE + k * 64,
        BurstLen::ONE,
        BurstSize::bus64(),
        BurstKind::Incr,
    )
}

fn ar_beat(k: u64) -> ArBeat {
    ArBeat::new(
        TxnId::new(k as u32),
        MEM_BASE + k * 64,
        BurstLen::ONE,
        BurstSize::bus64(),
        BurstKind::Incr,
    )
}

/// A bypass REALM unit with backlog on every relay chain: upstream
/// requests, requests already relayed downstream, and downstream
/// responses all queued at least two deep. Preloading stands in for the producer (beats stamped on
/// consecutive cycles, exactly as a per-cycle manager would have left
/// them), so the only components are the unit and a request sink.
fn build_preloaded_bypass() -> (Sim, ComponentId, ComponentId, AxiBundle, AxiBundle) {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(8);
    let up = AxiBundle::new(sim.pool_mut(), cap);
    let down = AxiBundle::new(sim.pool_mut(), cap);

    // Disabled regulation: the unit is a transparent wire.
    let mut rt = RuntimeConfig::open(2);
    rt.enabled = false;
    let realm = sim.add(RealmUnit::new(DesignConfig::cheshire(), rt, up, down));
    let sink = sim.add(RequestSink {
        bundle: down,
        taken: 0,
    });

    // Six requests deep upstream, four already relayed downstream, six
    // responses waiting to flow back. Stamps advance one per beat — ring
    // pushes reject two beats on one cycle, like the real producers they
    // replace.
    let pool = sim.pool_mut();
    for k in 0..6u64 {
        pool.push(up.aw, k, aw_beat(k));
        pool.push(up.w, k, WBeat::full(k, k == 5));
        pool.push(up.ar, k, ar_beat(k));
        pool.push(down.b, k, BBeat::okay(TxnId::new(k as u32)));
        pool.push(down.r, k, RBeat::okay(TxnId::new(k as u32), k, k == 5));
    }
    for k in 0..4u64 {
        pool.push(down.aw, k, aw_beat(0x100 + k));
        pool.push(down.w, k, WBeat::full(0x100 + k, false));
        pool.push(down.ar, k, ar_beat(0x100 + k));
    }
    (sim, realm, sink, up, down)
}

/// Comparable end state of the preloaded-bypass rig: unit stats, sink
/// drain count, and the exact residue on all ten wires.
fn observe_bypass(
    sim: &Sim,
    realm: ComponentId,
    sink: ComponentId,
    up: AxiBundle,
    down: AxiBundle,
) -> String {
    let unit = sim.component::<RealmUnit>(realm).expect("realm");
    let drained = sim.component::<RequestSink>(sink).expect("sink").taken;
    let pool = sim.pool();
    format!(
        "cycle={} stats={:?} drained={} up=[{},{},{},{},{}] down=[{},{},{},{},{}]",
        sim.cycle(),
        unit.stats(),
        drained,
        pool.len(up.aw),
        pool.len(up.w),
        pool.len(up.b),
        pool.len(up.ar),
        pool.len(up.r),
        pool.len(down.aw),
        pool.len(down.w),
        pool.len(down.b),
        pool.len(down.ar),
        pool.len(down.r),
    )
}

/// A bypass unit with every relay chain backlogged at least two deep and
/// beats pushed before the first run: the arena run's end state is
/// bit-identical to per-cycle stepping.
#[test]
fn preloaded_bypass_unit_matches_stepping() {
    const CYCLES: u64 = 64;

    let (mut arena_sim, a_realm, a_sink, up, down) = build_preloaded_bypass();
    arena_sim.set_kernel_mode(KernelMode::Arena);
    arena_sim.run(CYCLES);

    let (mut step_sim, s_realm, s_sink, s_up, s_down) = build_preloaded_bypass();
    for _ in 0..CYCLES {
        step_sim.step();
    }

    assert_eq!(
        observe_bypass(&arena_sim, a_realm, a_sink, up, down),
        observe_bypass(&step_sim, s_realm, s_sink, s_up, s_down),
    );
    assert!(arena_sim.contract_violations().is_empty());
    assert!(step_sim.contract_violations().is_empty());

    // Everything the preload parked either drained out of the sink or
    // piled up on the unpopped upstream response wires.
    let drained = arena_sim
        .component::<RequestSink>(a_sink)
        .expect("sink")
        .taken;
    assert_eq!(
        drained,
        3 * 6 + 3 * 4,
        "every request beat reached the sink"
    );
    assert_eq!(arena_sim.pool().len(up.b), 6, "responses parked upstream");
    assert_eq!(arena_sim.pool().len(up.r), 6);
}

/// The same equivalence holds for the full Cheshire-like testbench with a
/// regulated, periodically-replenished DMA — the configuration the paper's
/// experiments run. Stepping 30k cycles of the full SoC is slow, so this is
/// a single pinned configuration rather than a property.
#[test]
fn testbench_run_matches_stepping() {
    use cheshire_soc::experiments::llc_regulation;
    use cheshire_soc::Regulation;

    let config = || {
        let mut cfg = TestbenchConfig::single_source(400);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.core_regulation = Regulation::Realm(llc_regulation(1, 8 * 1024, 1_000));
        cfg.dma_regulation = Regulation::Realm(llc_regulation(1, 2 * 1024, 1_000));
        cfg
    };
    const CYCLES: u64 = 30_000;
    let mut fast = Testbench::new(config());
    fast.sim_mut().set_kernel_mode(KernelMode::Arena);
    fast.run(CYCLES);
    let mut slow = Testbench::new(config());
    for _ in 0..CYCLES {
        slow.sim_mut().step();
    }

    let a = fast.result();
    let b = slow.result();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.core_accesses, b.core_accesses);
    assert_eq!(
        format!("{:?}", a.core_latency),
        format!("{:?}", b.core_latency)
    );
    assert_eq!(a.dma_bytes, b.dma_bytes);
    assert_eq!(a.llc_beats, b.llc_beats);
    assert_eq!(
        format!("{:?}", fast.dma_realm().expect("regulated").stats()),
        format!("{:?}", slow.dma_realm().expect("regulated").stats()),
    );
    assert_eq!(
        format!(
            "{:?}",
            fast.dma_realm().expect("regulated").monitor().regions()
        ),
        format!(
            "{:?}",
            slow.dma_realm().expect("regulated").monitor().regions()
        ),
    );
}

/// Records the largest undrained tap backlog seen at the end of any cycle.
/// Port-less and registered last, it ticks every cycle after every pusher.
struct BacklogProbe {
    peak: u64,
}

impl Component for BacklogProbe {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        self.peak = self.peak.max(ctx.pool.tap_backlog());
    }
}

/// The arena kernel drains protocol monitors in bulk, so tap records pile
/// up between drains. Over a long contended run the backlog
/// must stay below the drain threshold plus one cycle's tapped pushes (at
/// most one per tapped wire), and the monitors must still report exactly
/// what per-cycle stepping reports.
#[test]
fn monitor_tap_backlog_stays_bounded() {
    const CYCLES: u64 = 20_000;
    let observe = |mode: KernelMode| {
        let mut cfg = TestbenchConfig::single_source(2_000);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.monitors = true;
        let mut tb = Testbench::new(cfg);
        tb.sim_mut().set_kernel_mode(mode);
        let probe = tb.sim_mut().add(BacklogProbe { peak: 0 });
        tb.run(CYCLES);
        assert_eq!(tb.sim().pool().tap_backlog(), 0, "{mode:?}: undrained");
        let peak = tb.sim().component::<BacklogProbe>(probe).unwrap().peak;
        (peak, format!("{:?}", tb.conformance_report()))
    };
    let (_, stepped) = observe(KernelMode::Step);
    let monitors = stepped.matches("PortReport").count() as u64;
    assert!(monitors >= 5, "expected every port monitored: {stepped}");
    let (peak, report) = observe(KernelMode::Arena);
    assert!(
        peak >= axi_sim::TAP_DRAIN_RECORDS,
        "the run must be long enough to force bulk drains (peak {peak})"
    );
    assert!(
        peak < axi_sim::TAP_DRAIN_RECORDS + 5 * monitors,
        "backlog peaked at {peak}"
    );
    assert_eq!(report, stepped, "arena monitors disagree with stepping");
}
