//! System-level crossbar tests: routing, fairness, and the two pathologies
//! AXI-REALM exists to fix — burst-granular unfairness and W-channel DoS.

use axi4::{
    Addr, ArBeat, AwBeat, BurstKind, BurstLen, BurstSize, Resp, SubordinateId, TxnId, WriteTxn,
};
use axi_mem::{MemoryConfig, MemoryModel};
use axi_sim::{AxiBundle, BundleCapacity, ComponentId, Sim};
use axi_traffic::{
    CompletionKind, CoreModel, CoreWorkload, DmaConfig, DmaModel, Op, ScriptedManager, StallPlan,
    StallingManager,
};
use axi_xbar::{AddressMap, ArbitrationPolicy, Crossbar};

const LLC_BASE: Addr = Addr::new(0x8000_0000);
const LLC_SIZE: u64 = 1 << 20;
const SPM_BASE: Addr = Addr::new(0x1000_0000);
const SPM_SIZE: u64 = 1 << 20;

/// Builds a 2-manager × 2-subordinate system; returns (sim, mgr ports,
/// xbar id, memory ids).
fn build_system(n_mgr: usize) -> (Sim, Vec<AxiBundle>, ComponentId, Vec<ComponentId>) {
    let mut sim = Sim::new();
    let mgr_ports: Vec<AxiBundle> = (0..n_mgr)
        .map(|_| AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4)))
        .collect();
    let sub_ports: Vec<AxiBundle> = (0..2)
        .map(|_| AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4)))
        .collect();
    let mut map = AddressMap::new();
    map.add(LLC_BASE, LLC_SIZE, SubordinateId::new(0)).unwrap();
    map.add(SPM_BASE, SPM_SIZE, SubordinateId::new(1)).unwrap();
    let xbar = sim.add(Crossbar::new(map, mgr_ports.clone(), sub_ports.clone()).unwrap());
    let llc = sim.add(MemoryModel::new(
        MemoryConfig::llc(LLC_BASE, LLC_SIZE),
        sub_ports[0],
    ));
    let spm = sim.add(MemoryModel::new(
        MemoryConfig::spm(SPM_BASE, SPM_SIZE),
        sub_ports[1],
    ));
    (sim, mgr_ports, xbar, vec![llc, spm])
}

fn read_op(id: u32, addr: u64, beats: u16) -> Op {
    Op::Read(ArBeat::new(
        TxnId::new(id),
        Addr::new(addr),
        BurstLen::new(beats).unwrap(),
        BurstSize::bus64(),
        BurstKind::Incr,
    ))
}

fn write_op(id: u32, addr: u64, words: &[u64]) -> Op {
    let aw = AwBeat::new(
        TxnId::new(id),
        Addr::new(addr),
        BurstLen::new(words.len() as u16).unwrap(),
        BurstSize::bus64(),
        BurstKind::Incr,
    );
    Op::Write(WriteTxn::from_words(aw, words.iter().copied()).unwrap())
}

#[test]
fn routes_to_both_subordinates_with_data_integrity() {
    let (mut sim, mgrs, _xbar, _mems) = build_system(1);
    let script = vec![
        write_op(1, LLC_BASE.raw(), &[0x11, 0x22]),
        write_op(2, SPM_BASE.raw(), &[0x33]),
        read_op(3, LLC_BASE.raw(), 2),
        read_op(4, SPM_BASE.raw(), 1),
    ];
    let m = sim.add(ScriptedManager::new(mgrs[0], script));
    assert!(sim.run_until(2000, |s| s
        .component::<ScriptedManager>(m)
        .unwrap()
        .is_done()));
    let mgr = sim.component::<ScriptedManager>(m).unwrap();
    assert_eq!(mgr.completions().len(), 4);
    for c in mgr.completions() {
        assert_eq!(c.resp, Resp::Okay, "completion {:?}", c.id);
    }
    assert_eq!(mgr.completions()[2].data, [0x11, 0x22]);
    assert_eq!(mgr.completions()[3].data, [0x33]);
    // Original IDs restored (ID remap is transparent to the manager).
    assert_eq!(mgr.completions()[2].id, TxnId::new(3));
}

#[test]
fn unmapped_addresses_get_decerr() {
    let (mut sim, mgrs, xbar, _mems) = build_system(1);
    let script = vec![
        read_op(1, 0xdead_0000, 4),
        write_op(2, 0xdead_0000, &[1, 2]),
        read_op(3, LLC_BASE.raw(), 1), // system still alive afterwards
    ];
    let m = sim.add(ScriptedManager::new(mgrs[0], script));
    assert!(sim.run_until(2000, |s| s
        .component::<ScriptedManager>(m)
        .unwrap()
        .is_done()));
    let mgr = sim.component::<ScriptedManager>(m).unwrap();
    assert_eq!(mgr.completions()[0].resp, Resp::DecErr);
    assert_eq!(
        mgr.completions()[0].data.len(),
        4,
        "full burst of DECERR beats"
    );
    assert_eq!(mgr.completions()[1].resp, Resp::DecErr);
    assert_eq!(mgr.completions()[1].kind, CompletionKind::Write);
    assert_eq!(mgr.completions()[2].resp, Resp::Okay);
    let stats = sim.component::<Crossbar>(xbar).unwrap().manager_stats(0);
    assert_eq!(stats.decode_errors, 2);
}

#[test]
fn round_robin_is_fair_for_equal_bursts() {
    let (mut sim, mgrs, xbar, _mems) = build_system(2);
    let script = |id: u32| -> Vec<Op> {
        (0..20)
            .map(|i| read_op(id, LLC_BASE.raw() + i * 64, 1))
            .collect()
    };
    let a = sim.add(ScriptedManager::new(mgrs[0], script(1)));
    let b = sim.add(ScriptedManager::new(mgrs[1], script(2)));
    assert!(sim.run_until(10_000, |s| {
        s.component::<ScriptedManager>(a).unwrap().is_done()
            && s.component::<ScriptedManager>(b).unwrap().is_done()
    }));
    let x = sim.component::<Crossbar>(xbar).unwrap();
    assert_eq!(x.manager_stats(0).ar_granted, 20);
    assert_eq!(x.manager_stats(1).ar_granted, 20);
    // With equal traffic, completion times are near-identical.
    let t_a = sim.component::<ScriptedManager>(a).unwrap().completions()[19].finished;
    let t_b = sim.component::<ScriptedManager>(b).unwrap().completions()[19].finished;
    let diff = t_a.abs_diff(t_b);
    assert!(
        diff <= 20,
        "equal loads should finish together, diff={diff}"
    );
}

/// The paper's premise (§III): burst-granular round-robin lets a long-burst
/// manager delay a word-granular manager by a full burst length. Without
/// regulation the core's worst-case latency grows to hundreds of cycles.
#[test]
fn long_bursts_starve_short_accesses() {
    let (mut sim, mgrs, _xbar, _mems) = build_system(2);
    let core = sim.add(CoreModel::new(CoreWorkload::susan(LLC_BASE, 50), mgrs[0]));
    let dma = DmaConfig {
        region_a: (LLC_BASE + 0x8_0000, 0x4_0000),
        region_b: (SPM_BASE, 0x4_0000),
        burst_beats: 256,
        outstanding: 8,
        total_transfers: None,
        id: TxnId::new(1),
        start_cycle: 0,
    };
    sim.add(DmaModel::new(dma, mgrs[1]));
    assert!(sim.run_until(2_000_000, |s| s
        .component::<CoreModel>(core)
        .unwrap()
        .is_done()));
    let lat = sim.component::<CoreModel>(core).unwrap().latency();
    assert!(
        lat.max() >= 256,
        "core must wait behind at least one full 256-beat burst, max={}",
        lat.max()
    );
    assert!(
        lat.mean().unwrap() > 100.0,
        "average latency must collapse, mean={:?}",
        lat.mean()
    );
}

/// Baseline for the same workload without the DMA: single-source latency
/// stays within the paper's eight-cycle envelope (plus crossbar traversal).
#[test]
fn single_source_latency_through_crossbar() {
    let (mut sim, mgrs, _xbar, _mems) = build_system(1);
    let core = sim.add(CoreModel::new(CoreWorkload::susan(LLC_BASE, 100), mgrs[0]));
    assert!(sim.run_until(100_000, |s| s
        .component::<CoreModel>(core)
        .unwrap()
        .is_done()));
    let lat = sim.component::<CoreModel>(core).unwrap().latency();
    assert_eq!(lat.count(), 100, "every access records its latency");
    assert!(
        lat.max() <= 10,
        "single-source latency through the crossbar, max={}",
        lat.max()
    );
}

/// The DoS vector (§III, C&F reference): a writer that wins the W channel
/// and withholds data blocks every later writer to the same subordinate.
#[test]
fn stalling_writer_denies_w_channel() {
    let (mut sim, mgrs, xbar, _mems) = build_system(2);
    sim.add(StallingManager::new(StallPlan::forever(LLC_BASE), mgrs[0]));
    // The victim tries to write after the staller has claimed the channel.
    let victim = sim.add(ScriptedManager::new(
        mgrs[1],
        vec![Op::Wait(20), write_op(1, LLC_BASE.raw() + 0x100, &[42])],
    ));
    sim.run(5000);
    let v = sim.component::<ScriptedManager>(victim).unwrap();
    assert!(
        v.completions().is_empty(),
        "victim write must be blocked by the stalled W channel"
    );
    let stalls = sim.component::<Crossbar>(xbar).unwrap().w_stall_cycles(0);
    assert!(
        stalls > 4000,
        "W channel reserved-but-idle, stalls={stalls}"
    );
}

/// Releasing the stalled data unblocks the victim — the stall, not the
/// address phase, was the bottleneck.
#[test]
fn released_staller_unblocks_victim() {
    let (mut sim, mgrs, _xbar, _mems) = build_system(2);
    let mut plan = StallPlan::forever(LLC_BASE);
    plan.release_after = Some(300);
    sim.add(StallingManager::new(plan, mgrs[0]));
    let victim = sim.add(ScriptedManager::new(
        mgrs[1],
        vec![Op::Wait(20), write_op(1, LLC_BASE.raw() + 0x100, &[42])],
    ));
    assert!(sim.run_until(5000, |s| s
        .component::<ScriptedManager>(victim)
        .unwrap()
        .is_done()));
    let v = sim.component::<ScriptedManager>(victim).unwrap();
    assert_eq!(v.completions()[0].resp, Resp::Okay);
    assert!(
        v.completions()[0].finished >= 300,
        "victim completed only after the staller released"
    );
}

/// The AR/R channels are independent of a stalled W channel at the
/// crossbar level: reads to a dual-ported subordinate (the SPM) flow past
/// a write stalled at the same subordinate.
#[test]
fn reads_flow_past_stalled_writes_on_split_port() {
    let (mut sim, mgrs, _xbar, _mems) = build_system(2);
    let mut plan = StallPlan::forever(SPM_BASE);
    plan.beats = 16;
    sim.add(StallingManager::new(plan, mgrs[0]));
    let reader = sim.add(ScriptedManager::new(
        mgrs[1],
        vec![Op::Wait(20), read_op(1, SPM_BASE.raw(), 4)],
    ));
    assert!(sim.run_until(5000, |s| s
        .component::<ScriptedManager>(reader)
        .unwrap()
        .is_done()));
    assert_eq!(
        sim.component::<ScriptedManager>(reader)
            .unwrap()
            .completions()[0]
            .resp,
        Resp::Okay
    );
}

/// At a *single-ported* subordinate (the LLC), a stalled write burst denies
/// reads too: the write occupies the one service pipeline. This widens the
/// DoS blast radius the write buffer must defuse.
#[test]
fn stalled_write_blocks_reads_on_shared_port() {
    let (mut sim, mgrs, _xbar, _mems) = build_system(2);
    sim.add(StallingManager::new(StallPlan::forever(LLC_BASE), mgrs[0]));
    let reader = sim.add(ScriptedManager::new(
        mgrs[1],
        vec![Op::Wait(20), read_op(1, LLC_BASE.raw(), 4)],
    ));
    sim.run(5000);
    assert!(
        sim.component::<ScriptedManager>(reader)
            .unwrap()
            .completions()
            .is_empty(),
        "single-ported LLC: the stalled write denies reads as well"
    );
}

/// The interference matrix attributes a victim's blocked grants to the
/// specific aggressor that won them.
#[test]
fn interference_matrix_names_the_aggressor() {
    let (mut sim, mgrs, xbar, _mems) = build_system(3);
    // Manager 0 is the victim (LLC reads); manager 1 is a pipelined DMA
    // hammering the LLC; manager 2 reads the SPM only and must never show
    // up as the victim's aggressor.
    let victim = sim.add(ScriptedManager::new(
        mgrs[0],
        (0..30)
            .map(|i| read_op(1, LLC_BASE.raw() + i * 64, 1))
            .collect::<Vec<_>>(),
    ));
    let dma = DmaConfig {
        region_a: (LLC_BASE + 0x8_0000, 0x4_0000),
        region_b: (LLC_BASE + 0xc_0000, 0x4_0000), // reads + writes all on the LLC
        burst_beats: 64,
        outstanding: 8,
        total_transfers: None,
        id: TxnId::new(2),
        start_cycle: 0,
    };
    sim.add(DmaModel::new(dma, mgrs[1]));
    let spm_reader = sim.add(ScriptedManager::new(
        mgrs[2],
        (0..30)
            .map(|i| read_op(3, SPM_BASE.raw() + i * 64, 1))
            .collect::<Vec<_>>(),
    ));
    assert!(sim.run_until(1_000_000, |s| {
        s.component::<ScriptedManager>(victim).unwrap().is_done()
            && s.component::<ScriptedManager>(spm_reader)
                .unwrap()
                .is_done()
    }));
    let x = sim.component::<Crossbar>(xbar).unwrap();
    assert!(
        x.interference(0, 1) > 0,
        "the DMA must show up as the victim's aggressor"
    );
    assert_eq!(x.interference(0, 2), 0, "SPM-only manager never interferes");
    assert_eq!(x.interference(2, 1), 0, "no contention at the SPM");
    let matrix = x.interference_matrix();
    assert_eq!(matrix.len(), 3);
    assert_eq!(matrix[0][0], 0, "no self-interference");
}

/// §II's argument against priority-based schemes, measured: with a
/// saturating high-priority manager and shallow request queues, the
/// low-priority manager *fully starves* under fixed priority while
/// completing comfortably under round robin — the failure mode AXI-REALM's
/// credit scheme avoids by never introducing priorities.
#[test]
fn fixed_priority_starves_the_low_priority_manager() {
    let run = |policy: ArbitrationPolicy| -> (bool, usize, u64) {
        let mut sim = Sim::new();
        let mgr_ports: Vec<AxiBundle> = (0..2)
            .map(|_| AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4)))
            .collect();
        // Shallow subordinate-side wires: requests wait at the arbiter,
        // where the policy decides, instead of in a deep service queue.
        let sub_ports: Vec<AxiBundle> = (0..2)
            .map(|_| AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(1)))
            .collect();
        let mut map = AddressMap::new();
        map.add(LLC_BASE, LLC_SIZE, SubordinateId::new(0)).unwrap();
        map.add(SPM_BASE, SPM_SIZE, SubordinateId::new(1)).unwrap();
        sim.add(
            Crossbar::with_arbitration(map, mgr_ports.clone(), sub_ports.clone(), policy).unwrap(),
        );
        let mut llc_cfg = MemoryConfig::llc(LLC_BASE, LLC_SIZE);
        llc_cfg.ar_depth = 1;
        llc_cfg.aw_depth = 1;
        sim.add(MemoryModel::new(llc_cfg, sub_ports[0]));
        sim.add(MemoryModel::new(
            MemoryConfig::spm(SPM_BASE, SPM_SIZE),
            sub_ports[1],
        ));
        // Low-priority victim: short reads to the LLC.
        let victim = sim.add(ScriptedManager::new(
            mgrs_low(&mgr_ports),
            (0..40)
                .map(|i| read_op(1, LLC_BASE.raw() + i * 64, 1))
                .collect::<Vec<_>>(),
        ));
        // High-priority aggressor: pipelined 16-beat bursts on the LLC.
        sim.add(DmaModel::new(
            DmaConfig {
                region_a: (LLC_BASE + 0x8_0000, 0x4_0000),
                region_b: (LLC_BASE + 0xc_0000, 0x4_0000),
                burst_beats: 16,
                outstanding: 8,
                total_transfers: None,
                id: TxnId::new(2),
                start_cycle: 0,
            },
            mgrs_high(&mgr_ports),
        ));
        let done = sim.run_until(200_000, |s| {
            s.component::<ScriptedManager>(victim).unwrap().is_done()
        });
        let m = sim.component::<ScriptedManager>(victim).unwrap();
        (done, m.completions().len(), sim.cycle())
    };
    fn mgrs_low(ports: &[AxiBundle]) -> AxiBundle {
        ports[0]
    }
    fn mgrs_high(ports: &[AxiBundle]) -> AxiBundle {
        ports[1]
    }

    let (rr_done, rr_completions, rr_cycles) = run(ArbitrationPolicy::RoundRobin);
    assert!(rr_done, "round robin completes all 40 reads");
    assert_eq!(rr_completions, 40);
    assert!(rr_cycles < 50_000, "RR finishes promptly: {rr_cycles}");

    let (prio_done, prio_completions, _) = run(ArbitrationPolicy::FixedPriority(vec![0, 7]));
    assert!(
        !prio_done,
        "fixed priority starves the low-priority manager"
    );
    assert!(
        prio_completions < 5,
        "starved manager made almost no progress: {prio_completions}"
    );
}

/// Interference accounting: a blocked manager accumulates blocked cycles.
#[test]
fn blocked_cycles_attributed() {
    let (mut sim, mgrs, xbar, _mems) = build_system(2);
    let dma = DmaConfig {
        region_a: (LLC_BASE + 0x8_0000, 0x4_0000),
        region_b: (SPM_BASE, 0x4_0000),
        burst_beats: 64,
        outstanding: 4,
        total_transfers: None,
        id: TxnId::new(1),
        start_cycle: 0,
    };
    sim.add(DmaModel::new(dma, mgrs[1]));
    let core = sim.add(CoreModel::new(CoreWorkload::susan(LLC_BASE, 30), mgrs[0]));
    assert!(sim.run_until(1_000_000, |s| s
        .component::<CoreModel>(core)
        .unwrap()
        .is_done()));
    let stats = sim.component::<Crossbar>(xbar).unwrap().manager_stats(0);
    assert!(stats.ar_granted >= 20);
}
