//! Design-space exploration: the cost/benefit surface of the REALM unit's
//! design-time parameters.
//!
//! Sweeps the pending-transaction count (the dominant area term of the
//! burst splitter, 729.4 GE per element in Table II) against fragmentation
//! granularity, reporting regulated core performance next to the unit's
//! modelled area — the trade an integrator actually navigates when sizing
//! the unit for a new SoC. The baseline and all eight grid points fan out
//! through the parallel sweep harness.
//!
//! ```text
//! cargo run --release -p realm-bench --bin design_space
//! ```

use axi_realm::area::{AreaBreakdown, AreaParams};
use axi_realm::DesignConfig;
use cheshire_soc::experiments::llc_regulation;
use cheshire_soc::{Regulation, Testbench, TestbenchConfig};
use realm_bench::telemetry::maybe_export_registry;
use realm_bench::{point_row, run_sweep, ExperimentReport, Row};
use realm_telemetry::TelemetrySink;

const ACCESSES: u64 = 1_000;
const PENDING: [usize; 4] = [2, 4, 8, 16];
const FRAGS: [u16; 2] = [1, 16];

/// The uncontended baseline or one (pending, frag) grid point.
enum Point {
    Baseline,
    Sized { num_pending: usize, frag_len: u16 },
}

fn run_point(point: &Point) -> (u64, u64, TelemetrySink, axi_sim::KernelStats) {
    let mut tb = match point {
        Point::Baseline => {
            let mut cfg = TestbenchConfig::single_source(ACCESSES);
            cfg.core_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
            Testbench::new(cfg)
        }
        Point::Sized {
            num_pending,
            frag_len,
        } => {
            let mut cfg = TestbenchConfig::single_source(ACCESSES);
            cfg.dma = Some(TestbenchConfig::worst_case_dma());
            let mut design = DesignConfig::cheshire();
            design.num_pending = *num_pending;
            cfg.realm_design = design;
            cfg.core_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
            cfg.dma_regulation = Regulation::Realm(llc_regulation(*frag_len, 0, 0));
            Testbench::new(cfg)
        }
    };
    assert!(tb.run_until_core_done(100_000_000), "run exceeded cap");
    tb.assert_conformance();
    let r = tb.result();
    (r.cycles, r.core_latency.max(), r.telemetry, r.kernel)
}

fn main() {
    let mut points = vec![("baseline".to_owned(), Point::Baseline)];
    for num_pending in PENDING {
        for frag_len in FRAGS {
            points.push((
                format!("pending={num_pending} frag={frag_len}"),
                Point::Sized {
                    num_pending,
                    frag_len,
                },
            ));
        }
    }

    let outcome = run_sweep(points, |point| {
        let (cycles, lat_max, telemetry, kernel) = run_point(point);
        ((cycles, lat_max, telemetry), kernel)
    });

    let mut report = ExperimentReport::new(
        "Design space",
        "pending-transaction count vs. fragmentation: core performance and unit area",
    );
    let base = outcome.results[0].0;
    let mut rest = outcome.results[1..].iter().zip(&outcome.runtime[1..]);
    for num_pending in PENDING {
        let mut params = AreaParams::cheshire();
        params.num_pending = num_pending as u32;
        params.num_units = 1;
        let unit_kge = AreaBreakdown::evaluate(params).units_ge() / 1000.0;
        for _ in FRAGS {
            let ((cycles, lat_max, _), rt) = rest.next().expect("grid point ran");
            report.push(Row::new(
                rt.label.clone(),
                vec![
                    ("perf_pct", base as f64 / *cycles as f64 * 100.0),
                    ("lat_max", *lat_max as f64),
                    ("unit_kGE", unit_kge),
                ],
            ));
        }
    }
    report.runtime = outcome.runtime_rows();
    let mut merged = TelemetrySink::new();
    for ((_, _, telemetry), rt) in outcome.results.iter().zip(&outcome.runtime) {
        report.telemetry.push(point_row(&rt.label, telemetry));
        merged.merge(telemetry);
    }

    report.note("pending transactions cost 729.4 GE each in the splitter (Table II)");
    report
        .note("fewer pending slots also bound how many DMA fragments can queue ahead of the core");
    print!("{}", report.render());
    println!("{}", outcome.summary("design_space"));
    if let Err(e) = report.write_json("results/design_space.json") {
        eprintln!("could not write results/design_space.json: {e}");
    }
    maybe_export_registry("design_space", &merged);
}
