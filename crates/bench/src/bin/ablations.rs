//! Ablations of the design choices §III calls out: the write buffer under
//! a stalling writer, the throttling unit, and splitter bypass for
//! single-word managers. Each ablation's two variants run as one parallel
//! sweep.
//!
//! ```text
//! cargo run --release -p realm-bench --bin ablations
//! ```

use axi_traffic::StallPlan;
use cheshire_soc::experiments::llc_regulation;
use cheshire_soc::{Regulation, Testbench, TestbenchConfig, LLC_BASE};
use realm_bench::telemetry::maybe_export_registry;
use realm_bench::{point_row, run_sweep, ExperimentReport, Row};
use realm_telemetry::TelemetrySink;

/// Write-buffer ablation: core progress with a stalling writer present,
/// with and without a REALM unit in front of the attacker. Returns the
/// report plus the merged telemetry registry of both variants.
fn dos_ablation() -> (ExperimentReport, TelemetrySink) {
    let mut report = ExperimentReport::new(
        "Ablation A",
        "write buffer vs. stalling-writer DoS (400 core accesses, 2M-cycle cap)",
    );
    let points = vec![
        ("unprotected".to_owned(), false),
        ("write-buffer".to_owned(), true),
    ];
    let outcome = run_sweep(points, |&protected| {
        let mut cfg = TestbenchConfig::single_source(400);
        cfg.staller = Some(StallPlan::forever(LLC_BASE + 0x10_0000));
        if protected {
            cfg.staller_regulation = Regulation::Realm(llc_regulation(16, 0, 0));
        }
        let mut tb = Testbench::new(cfg);
        let finished = tb.run_until_core_done(2_000_000);
        tb.assert_conformance();
        let accesses = tb.core().completed_accesses();
        let w_stalls = tb.xbar().w_stall_cycles(0);
        (
            (finished, accesses, w_stalls, tb.telemetry()),
            tb.sim().kernel_stats(),
        )
    });
    let mut merged = TelemetrySink::new();
    for ((finished, accesses, w_stalls, telemetry), rt) in
        outcome.results.iter().zip(&outcome.runtime)
    {
        report.push(Row::new(
            rt.label.clone(),
            vec![
                ("core_done", f64::from(u8::from(*finished))),
                ("accesses", *accesses as f64),
                ("w_stall_cycles", *w_stalls as f64),
            ],
        ));
        report.telemetry.push(point_row(&rt.label, telemetry));
        merged.merge(telemetry);
    }
    report.runtime = outcome.runtime_rows();
    report.note("paper §III-A: the buffer forwards AW and W only once the data is fully contained");
    report.note(
        "shape to check: unprotected run never finishes; protected run completes with ~0 W stalls",
    );
    (report, merged)
}

/// Throttle ablation: outstanding-transaction scaling as the budget drains.
fn throttle_ablation() -> (ExperimentReport, TelemetrySink) {
    let mut report = ExperimentReport::new(
        "Ablation B",
        "throttling unit: worst-case core latency with and without budget-aware backpressure",
    );
    let points = vec![
        ("no-throttle".to_owned(), false),
        ("throttle".to_owned(), true),
    ];
    let outcome = run_sweep(points, |&throttle| {
        let mut cfg = TestbenchConfig::single_source(1_000);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        let mut core_rt = llc_regulation(256, 0, 0);
        core_rt.frag_len = 1;
        cfg.core_regulation = Regulation::Realm(core_rt);
        let mut dma_rt = llc_regulation(1, 4096, 1000);
        dma_rt.throttle = throttle;
        cfg.dma_regulation = Regulation::Realm(dma_rt);
        let mut tb = Testbench::new(cfg);
        assert!(tb.run_until_core_done(50_000_000));
        tb.assert_conformance();
        let r = tb.result();
        let kernel = r.kernel;
        (r, kernel)
    });
    let mut merged = TelemetrySink::new();
    for (r, rt) in outcome.results.iter().zip(&outcome.runtime) {
        report.push(Row::new(
            rt.label.clone(),
            vec![
                ("exec_cycles", r.cycles as f64),
                ("lat_mean", r.core_latency.mean().unwrap_or(0.0)),
                ("lat_max", r.core_latency.max() as f64),
                ("dma_Bpercyc", r.dma_bytes as f64 / r.cycles as f64),
            ],
        ));
        report.telemetry.push(point_row(&rt.label, &r.telemetry));
        merged.merge(&r.telemetry);
    }
    report.runtime = outcome.runtime_rows();
    report.note("throttling modulates backpressure before the budget expires (paper Fig. 4)");
    (report, merged)
}

/// Splitter-bypass ablation: a single-word manager needs no splitter; the
/// design-time option removes its area without changing behaviour.
fn splitter_ablation() -> (ExperimentReport, TelemetrySink) {
    use axi_realm::area::{AreaBreakdown, AreaParams};
    let mut report = ExperimentReport::new(
        "Ablation C",
        "splitter omitted for single-word managers: identical timing, smaller unit",
    );
    let points = vec![
        ("with-splitter".to_owned(), true),
        ("no-splitter".to_owned(), false),
    ];
    let outcome = run_sweep(points, |&present| {
        let mut cfg = TestbenchConfig::single_source(1_000);
        let mut design = axi_realm::DesignConfig::cheshire();
        design.splitter_present = present;
        cfg.realm_design = design;
        cfg.core_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
        let mut tb = Testbench::new(cfg);
        assert!(tb.run_until_core_done(10_000_000));
        tb.assert_conformance();
        let r = tb.result();
        let kernel = r.kernel;
        (r, kernel)
    });
    let mut merged = TelemetrySink::new();
    for ((r, rt), present) in outcome
        .results
        .iter()
        .zip(&outcome.runtime)
        .zip([true, false])
    {
        let mut params = AreaParams::cheshire();
        params.num_units = 1;
        params.splitter_present = present;
        let area = AreaBreakdown::evaluate(params);
        report.push(Row::new(
            rt.label.clone(),
            vec![
                ("exec_cycles", r.cycles as f64),
                ("lat_max", r.core_latency.max() as f64),
                ("unit_kGE", area.units_ge() / 1000.0),
            ],
        ));
        report.telemetry.push(point_row(&rt.label, &r.telemetry));
        merged.merge(&r.telemetry);
    }
    report.runtime = outcome.runtime_rows();
    report.note(
        "paper §III-A: the splitter can be disabled at design time to reduce the area footprint",
    );
    report.note("shape to check: identical cycles/latency, smaller unit area");
    (report, merged)
}

fn main() {
    for ((report, telemetry), name, path) in [
        (dos_ablation(), "ablation_dos", "results/ablation_dos.json"),
        (
            throttle_ablation(),
            "ablation_throttle",
            "results/ablation_throttle.json",
        ),
        (
            splitter_ablation(),
            "ablation_splitter",
            "results/ablation_splitter.json",
        ),
    ] {
        print!("{}", report.render());
        println!();
        if let Err(e) = report.write_json(path) {
            eprintln!("could not write {path}: {e}");
        }
        // Three reports share one process; each gets its own registry dump
        // (the REALM_TRACE path would be overwritten thrice, so traces are
        // fig6a/timeline territory).
        maybe_export_registry(name, &telemetry);
    }
}
