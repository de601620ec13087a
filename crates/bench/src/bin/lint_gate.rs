//! CI gate: runs the elaboration-time analyzer (realm-lint Pass A) and
//! the static dependence analysis (Pass C) over every experiment
//! configuration the suite ships and writes a combined machine-readable
//! report, including each system's island partition and evaluation
//! schedule.
//!
//! ```text
//! cargo run --release -p realm-bench --bin lint_gate [-- OUTPUT.json]
//! ```
//!
//! One labeled entry per experiment family; exits 1 if any configuration
//! carries an error-severity finding (warnings — e.g. the deliberate
//! Fig. 6b over-subscription — are recorded but do not fail the gate).

use std::process::ExitCode;

use axi4::Addr;
use axi_sim::{Json, Layout};
use axi_traffic::StallPlan;
use cheshire_soc::{experiments, Regulation, Testbench, TestbenchConfig, LLC_BASE};

/// The experiment configurations of the suite's ten binaries, as
/// testbench configs (the hand-built extension binaries additionally gate
/// their own bespoke topologies at startup).
fn configs() -> Vec<(&'static str, TestbenchConfig)> {
    let contended = |core_reg: Regulation, dma_reg: Regulation| {
        let mut cfg = TestbenchConfig::single_source(1);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.core_regulation = core_reg;
        cfg.dma_regulation = dma_reg;
        cfg.monitors = false; // construction-only: nothing runs
        cfg
    };
    let open = || Regulation::Realm(experiments::llc_regulation(256, 0, 0));

    let mut out = Vec::new();
    // fig6a: single-source baseline, uncontrolled contention, finest
    // fragmentation.
    let mut single = TestbenchConfig::single_source(1);
    single.core_regulation = open();
    single.monitors = false;
    out.push(("fig6a-single-source", single));
    out.push(("fig6a-no-reservation", contended(open(), open())));
    out.push((
        "fig6a-frag1",
        contended(
            Regulation::Realm(experiments::llc_regulation(1, 0, 0)),
            Regulation::Realm(experiments::llc_regulation(1, 0, 0)),
        ),
    ));
    // fig6b: the paper's budget split (deliberately over-subscribed:
    // expect budget warnings in the artifact, zero errors).
    out.push((
        "fig6b-budget",
        contended(
            Regulation::Realm(experiments::llc_regulation(1, 8 * 1024, 1000)),
            Regulation::Realm(experiments::llc_regulation(1, 8 * 1024, 1000)),
        ),
    ));
    // timeline: tight DMA budget showing isolation duty cycles.
    out.push((
        "timeline",
        contended(
            Regulation::Realm(experiments::llc_regulation(256, 0, 0)),
            Regulation::Realm(experiments::llc_regulation(1, 1024, 1000)),
        ),
    ));
    // ablations: throttling unit enabled on the DMA.
    let mut throttled = experiments::llc_regulation(1, 4 * 1024, 1000);
    throttled.throttle = true;
    out.push((
        "ablations-throttle",
        contended(open(), Regulation::Realm(throttled)),
    ));
    // design_space: smaller hardware point (fewer pending, shallow buffer).
    let mut small = contended(open(), open());
    small.realm_design.num_pending = 2;
    small.realm_design.write_buffer_depth = 4;
    out.push(("design_space-small", small));
    // related_work / DoS leg: stalling writer behind a regulated unit.
    let mut dos = TestbenchConfig::single_source(1);
    dos.core_regulation = open();
    dos.staller = Some(StallPlan::forever(Addr::new(LLC_BASE.raw() + 0x20_0000)));
    dos.staller_regulation = Regulation::Realm(experiments::llc_regulation(1, 0, 0));
    dos.monitors = false;
    out.push(("related_work-dos", dos));
    // table1 / table2: the analytic binaries gate on the default system.
    out.push(("table1-default-system", contended(open(), open())));
    out.push(("table2-default-system", contended(open(), open())));
    out
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/lint_gate.json".to_owned());

    let mut entries = Vec::new();
    let mut total_errors = 0usize;
    for (name, cfg) in configs() {
        // The constructor itself gates (and would panic on errors) unless
        // REALM_LINT=0; collect the report explicitly so the artifact is
        // written either way.
        let tb = Testbench::new(cfg);
        let report = tb.lint_report();
        let partition = tb.partition();
        total_errors += report.error_count();
        println!(
            "lint_gate: {name}: {} error(s), {} warning(s); {} island(s), \
             largest {}, schedule depth {}",
            report.error_count(),
            report.warning_count(),
            partition.island_count(),
            partition.largest_island(),
            partition.depth
        );
        entries.push(Json::obj([
            ("system", name.into()),
            ("report", report.to_json_value()),
            ("partition", partition.to_json_value()),
        ]));
    }

    let json = Json::obj([("systems", Json::Arr(entries))]).render(Layout::Compact);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("lint_gate: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!("lint_gate: wrote {out_path}");

    if total_errors == 0 {
        println!("lint_gate: all experiment configurations analyzer-clean");
        ExitCode::SUCCESS
    } else {
        println!("lint_gate: {total_errors} error(s) across configurations");
        ExitCode::FAILURE
    }
}
