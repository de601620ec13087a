//! Regression test for run-to-run determinism of published artifacts.
//!
//! The simulator must be a pure function of its configuration: two runs of
//! the same experiment — monitors attached, full contention — must produce
//! **byte-identical** report JSON. This is what the BTreeMap migration of
//! the sim-visible state buys: no iteration-order-dependent arithmetic
//! anywhere between the traffic generators and the serialized rows.

use cheshire_soc::experiments::llc_regulation;
use cheshire_soc::{Regulation, Testbench, TestbenchConfig};
use realm_bench::{ExperimentReport, Row};

/// One contended run (core + worst-case DMA, budgets active, protocol
/// monitors attached), rendered into a report exactly as the experiment
/// binaries do.
fn run_once() -> String {
    let mut cfg = TestbenchConfig::single_source(300);
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.core_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
    cfg.dma_regulation = Regulation::Realm(llc_regulation(1, 1024, 1_000));
    cfg.monitors = true;

    let mut tb = Testbench::new(cfg);
    assert!(tb.run_until_core_done(5_000_000));
    tb.assert_conformance();
    let r = tb.result();

    let mut report = ExperimentReport::new("determinism", "byte-identity probe");
    report.push(Row::new(
        "contended",
        vec![
            ("cycles", r.cycles as f64),
            ("core_accesses", r.core_accesses as f64),
            ("lat_mean", r.core_latency.mean().unwrap_or(0.0)),
            ("lat_max", r.core_latency.max() as f64),
            ("dma_bytes", r.dma_bytes as f64),
            ("llc_beats", r.llc_beats as f64),
            ("ticks", r.kernel.ticks_executed as f64),
            ("skipped", r.kernel.cycles_skipped as f64),
        ],
    ));
    report.to_json().pretty()
}

#[test]
fn report_json_is_byte_identical_across_runs() {
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "report JSON differs between identical runs");
    // Sanity: the probe actually measured something.
    assert!(first.contains("\"cycles\""));
}

#[test]
fn lint_report_json_is_byte_identical_across_runs() {
    let build = || {
        let mut cfg = TestbenchConfig::single_source(1);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.core_regulation = Regulation::Realm(llc_regulation(1, 8 * 1024, 1_000));
        cfg.dma_regulation = Regulation::Realm(llc_regulation(1, 8 * 1024, 1_000));
        cfg.monitors = false;
        Testbench::new(cfg).lint_report().to_json()
    };
    assert_eq!(build(), build(), "analyzer JSON differs between runs");
}
