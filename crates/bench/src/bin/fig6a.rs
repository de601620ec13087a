//! Reproduces **Fig. 6a**: Susan-on-CVA6 performance under DSA-DMA
//! contention at varying transfer fragmentation, plus the *single-source*
//! and *without reservation* baselines, and the worst-case memory access
//! latency the section reports (264 → below ten cycles).
//!
//! All eleven points run through the parallel sweep harness; results are
//! bit-identical to the old serial loop (set `REALM_SWEEP_THREADS=1` to
//! check). Wall-clock and kernel throughput go to stdout only; the
//! deterministic cycle counts go into the report's `runtime` section.
//!
//! ```text
//! cargo run --release -p realm-bench --bin fig6a
//! ```

use cheshire_soc::experiments::{
    fragmentation_sweep_points, single_source, with_budget, with_fragmentation,
    without_reservation, DEFAULT_ACCESSES,
};
use cheshire_soc::RunResult;
use realm_bench::telemetry::{maybe_export_registry, maybe_export_trace};
use realm_bench::{point_row, run_sweep, ExperimentReport, Row};
use realm_telemetry::{trace_path_from_env, TelemetrySink};

/// One sweep point of Fig. 6a.
enum Point {
    Single,
    NoReservation,
    Frag(u16),
}

fn row(label: &str, r: &RunResult, base: &RunResult) -> Row {
    Row::new(
        label,
        vec![
            ("perf_pct", r.performance_pct(base)),
            ("exec_cycles", r.cycles as f64),
            ("lat_min", r.core_latency.min() as f64),
            ("lat_mean", r.core_latency.mean().unwrap_or(0.0)),
            ("lat_max", r.core_latency.max() as f64),
            (
                "lat_p99_bound",
                r.core_latency.quantile_bound(0.99).unwrap_or(0) as f64,
            ),
        ],
    )
}

fn main() {
    let accesses = DEFAULT_ACCESSES;
    let mut points = vec![
        ("single-source".to_owned(), Point::Single),
        ("no-reservation".to_owned(), Point::NoReservation),
    ];
    points.extend(
        fragmentation_sweep_points()
            .into_iter()
            .map(|frag| (format!("frag={frag}"), Point::Frag(frag))),
    );

    let outcome = run_sweep(points, |point| {
        let r = match point {
            Point::Single => single_source(accesses),
            Point::NoReservation => without_reservation(accesses),
            Point::Frag(frag) => with_fragmentation(*frag, accesses),
        };
        let kernel = r.kernel;
        (r, kernel)
    });

    let mut report = ExperimentReport::new(
        "Fig. 6a",
        "core performance vs. DMA burst fragmentation (equal budgets, very large period)",
    );
    let base = &outcome.results[0];
    for (r, rt) in outcome.results.iter().zip(&outcome.runtime) {
        report.push(row(&rt.label, r, base));
    }
    report.runtime = outcome.runtime_rows();
    report.telemetry = outcome
        .results
        .iter()
        .zip(&outcome.runtime)
        .map(|(r, rt)| point_row(&rt.label, &r.telemetry))
        .collect();

    report
        .note("paper: without reservation <0.7 % of single-source, min access latency 264 cycles");
    report.note("paper: frag=1 restores 68.2 % of single-source, latency <10 cycles (2 above single-source)");
    report.note("shape to check: perf rises monotonically as fragmentation shrinks 256 -> 1");

    print!("{}", report.render());
    print!("{}", report.render_chart("perf_pct", 50));
    println!("{}", outcome.summary("fig6a"));
    if let Err(e) = report.write_json("results/fig6a.json") {
        eprintln!("could not write results/fig6a.json: {e}");
    }

    // Full-registry dump (REALM_TELEMETRY=1) of the whole sweep.
    let mut merged = TelemetrySink::new();
    for r in &outcome.results {
        merged.merge(&r.telemetry);
    }
    maybe_export_registry("fig6a", &merged);

    // Trace-demo run, only when REALM_TRACE is armed: fig6b's `1/5` point
    // (frag=1, period 1000, DMA at 1/5 of the core's budget) exercises
    // budget exhaustion and isolation, so the trace carries per-manager
    // transaction spans plus budget-exhausted instants. None of its
    // numbers enter results/fig6a.json.
    if trace_path_from_env().is_some() {
        maybe_export_trace(&with_budget(8 * 1024 / 5, accesses).telemetry);
    }
}
