//! Full-system stress: every manager kind live at once — core, worst-case
//! DMA, stalling writer, and a configuration master — for a long run, with
//! liveness and bookkeeping invariants checked at the end.

use axi4::{Addr, ArBeat, AwBeat, BurstKind, BurstLen, BurstSize, Resp, TxnId, WriteTxn};
use axi_realm::offsets;
use axi_traffic::{Op, StallPlan};
use cheshire_soc::experiments::llc_regulation;
use cheshire_soc::{Regulation, Testbench, TestbenchConfig, CFG_BASE, LLC_BASE};

fn write_op(id: u32, addr: u64, value: u64) -> Op {
    let aw = AwBeat::new(
        TxnId::new(id),
        Addr::new(addr),
        BurstLen::ONE,
        BurstSize::bus64(),
        BurstKind::Incr,
    );
    Op::Write(WriteTxn::from_words(aw, [value]).expect("single-beat write"))
}

fn read_op(id: u32, addr: u64) -> Op {
    Op::Read(ArBeat::new(
        TxnId::new(id),
        Addr::new(addr),
        BurstLen::ONE,
        BurstSize::bus64(),
        BurstKind::Incr,
    ))
}

/// Everything at once: the system stays live, the core finishes, the
/// staller is contained, budgets hold, and the counters are consistent.
#[test]
fn everything_at_once() {
    const CFG_ID: u32 = 42;
    let dma_unit = CFG_BASE.raw() + offsets::unit(1);

    let mut cfg = TestbenchConfig::single_source(2_000);
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.staller = Some(StallPlan::forever(LLC_BASE + 0x20_0000));
    cfg.core_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
    cfg.dma_regulation = Regulation::Realm(llc_regulation(1, 4 * 1024, 1_000));
    cfg.staller_regulation = Regulation::Realm(llc_regulation(16, 0, 0));
    cfg.config_script = vec![
        write_op(CFG_ID, CFG_BASE.raw(), 0),
        Op::Wait(5_000),
        // Mid-run retuning of the DMA's budget over AXI.
        write_op(
            CFG_ID,
            CFG_BASE.raw() + offsets::region(1, 0) + offsets::R_BUDGET,
            2 * 1024,
        ),
        Op::Wait(5_000),
        read_op(CFG_ID, dma_unit + offsets::TXNS_ACCEPTED),
        read_op(CFG_ID, dma_unit + offsets::ISOLATED_CYCLES),
    ];

    let mut tb = Testbench::new(cfg);
    assert!(
        tb.run_until_core_done(20_000_000),
        "the core must finish despite DMA + staller + reconfiguration"
    );
    tb.run(12_000); // let the config master drain

    // Core integrity.
    let r = tb.result();
    assert_eq!(r.core_accesses, 2_000);
    assert_eq!(r.core_latency.count(), 2_000);
    assert!(r.core_latency.max() < 200, "{:?}", r.core_latency);

    // Staller contained: never completed, W channel not reserved-idle.
    assert!(tb
        .staller()
        .expect("staller present")
        .completed_at()
        .is_none());
    assert!(tb.xbar().w_stall_cycles(0) < 500);

    // Config master: all operations OKAY, readbacks consistent with the
    // unit's internal state.
    let master = tb.config_master().expect("script given");
    assert!(master.is_done());
    assert!(master.completions().iter().all(|c| c.resp == Resp::Okay));
    // The register read is a point-in-time snapshot from mid-run: nonzero
    // and never ahead of the final counter.
    let dma_realm = tb.dma_realm().expect("dma regulated");
    let n = master.completions().len();
    let snapshot = master.completions()[n - 2].data[0];
    assert!(snapshot > 0);
    assert!(snapshot <= dma_realm.stats().txns_accepted);

    // Budget retune took effect.
    assert_eq!(dma_realm.monitor().regions()[0].config.budget_max, 2 * 1024);
    // The DMA spent time isolated (budget-limited).
    assert!(dma_realm.stats().isolated_cycles > 1_000);

    // Interference accounting is self-consistent: the core's interference
    // is attributed to the DMA (the staller never transfers data).
    assert!(tb.xbar().interference(0, 1) > 0);
    assert_eq!(tb.xbar().interference(0, 2), 0);
}
