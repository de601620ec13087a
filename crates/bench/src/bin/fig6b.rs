//! Reproduces **Fig. 6b**: core performance as the DMA's budget shrinks
//! from 8 KiB (1/1) to 1.6 KiB (1/5) per 1000-cycle period, fragmentation
//! fixed at one beat. All six points fan out through the sweep harness.
//!
//! ```text
//! cargo run --release -p realm-bench --bin fig6b
//! ```

use cheshire_soc::experiments::{
    budget_sweep_points, single_source, with_budget, DEFAULT_ACCESSES,
};
use realm_bench::{point_row, run_sweep, ExperimentReport, Row};
use realm_telemetry::TelemetrySink;

fn main() {
    let accesses = DEFAULT_ACCESSES;
    // `None` is the single-source baseline; `Some(b)` a DMA budget point.
    let mut points: Vec<(String, Option<u64>)> = vec![("single-source".to_owned(), None)];
    points.extend(
        budget_sweep_points()
            .into_iter()
            .map(|(label, budget)| (label, Some(budget))),
    );

    let outcome = run_sweep(points, |point| {
        let r = match point {
            None => single_source(accesses),
            Some(budget) => with_budget(*budget, accesses),
        };
        let kernel = r.kernel;
        (r, kernel)
    });

    let mut report = ExperimentReport::new(
        "Fig. 6b",
        "core performance vs. DMA budget imbalance (frag=1, period=1000)",
    );
    let base = &outcome.results[0];
    report.push(Row::new(
        "single-source",
        vec![
            ("dma_budget_B", 0.0),
            ("perf_pct", 100.0),
            ("lat_max", base.core_latency.max() as f64),
            ("dma_Bpercyc", 0.0),
        ],
    ));
    for ((r, rt), (_, budget)) in outcome.results[1..]
        .iter()
        .zip(&outcome.runtime[1..])
        .zip(budget_sweep_points())
    {
        report.push(Row::new(
            rt.label.clone(),
            vec![
                ("dma_budget_B", budget as f64),
                ("perf_pct", r.performance_pct(base)),
                ("lat_max", r.core_latency.max() as f64),
                ("dma_Bpercyc", r.dma_bytes as f64 / r.cycles as f64),
            ],
        ));
    }
    report.runtime = outcome.runtime_rows();
    report.telemetry = outcome
        .results
        .iter()
        .zip(&outcome.runtime)
        .map(|(r, rt)| point_row(&rt.label, &r.telemetry))
        .collect();

    report.note(
        "paper: performance approaches the single-source ideal (>95 %) as the DMA budget shrinks",
    );
    report.note("paper: worst-case access latency falls below eight cycles at skewed budgets");
    report.note("shape to check: perf_pct strictly rises 1/1 -> 1/5; DMA throughput falls");

    print!("{}", report.render());
    print!("{}", report.render_chart("perf_pct", 50));
    println!("{}", outcome.summary("fig6b"));
    if let Err(e) = report.write_json("results/fig6b.json") {
        eprintln!("could not write results/fig6b.json: {e}");
    }
    let mut merged = TelemetrySink::new();
    for r in &outcome.results {
        merged.merge(&r.telemetry);
    }
    // Registry only: a merged five-point sweep would interleave spans on
    // shared unit tracks, so fig6b leaves REALM_TRACE to fig6a/timeline.
    realm_bench::telemetry::maybe_export_registry("fig6b", &merged);
}
