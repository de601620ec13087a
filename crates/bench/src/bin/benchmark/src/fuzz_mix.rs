//! The `fuzz-mix` workload: an unguided fuzz campaign. One iteration feeds
//! the `tests/corpus` seeds, then `rounds` batches of mutants, through a
//! `Campaign`; every system goes through `lint_spec`, `run_spec`, and the
//! oracle in `Campaign::absorb`. With `guided: false` the mutants are a
//! pure function of the campaign seed, so every iteration repeats the same
//! systems.

use std::path::Path;
use std::time::Instant;

use axi_sim::KernelStats;
use realm_fuzz::{lint_spec, run_spec, Campaign, CampaignConfig, SystemSpec};

use crate::metrics::{fastest, median, tail, Run};
use crate::testbench::{model_counts, set_sim_counts};
use crate::Params;

/// Mutation rounds after the seed round: 5 corpus seeds + 600 × 8 mutants
/// = 4,805 systems per iteration.
pub const ROUNDS: u64 = 600;

/// Mutants per round.
const BATCH: usize = 8;

/// The corpus seeds in `tests/corpus`, sorted by file name.
///
/// # Errors
///
/// Reports an unreadable corpus directory, an unparsable entry, or an
/// empty corpus.
pub fn load_seeds(root: &Path) -> Result<Vec<SystemSpec>, String> {
    let dir = root.join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|e| e == "txt")
                && p.file_name().is_some_and(|n| n != "coverage_baseline.txt")
        })
        .collect();
    paths.sort();
    let seeds = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            SystemSpec::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if seeds.is_empty() {
        return Err(format!("{}: no corpus seeds", dir.display()));
    }
    Ok(seeds)
}

/// Simulated statistics of one iteration, summed over its systems.
#[derive(Clone, Debug, Default, PartialEq)]
struct SimStats {
    systems: u64,
    kernel: KernelStats,
    model: [u64; 5],
    coverage_keys: u64,
}

fn add(total: &mut KernelStats, k: &KernelStats) {
    total.ticks_executed += k.ticks_executed;
    total.cycles_skipped += k.cycles_skipped;
    total.fast_forwards += k.fast_forwards;
    total.component_ticks += k.component_ticks;
    total.component_skips += k.component_skips;
    total.wire_events += k.wire_events;
    total.batched_beats += k.batched_beats;
    total.batch_windows += k.batch_windows;
}

/// Host times of one iteration, in seconds unless named otherwise.
struct Iteration {
    wall: f64,
    setup: f64,
    simulate: f64,
    mcps_p50: f64,
    op_p50_us: f64,
    op_tail_us: f64,
    absorb_us_per_system: f64,
}

/// Runs campaigns of `rounds` mutation rounds until `params.seconds` have
/// passed (at least [`crate::MIN_ITERATIONS`]).
pub fn run(rounds: u64, seeds: &[SystemSpec], params: &Params) -> Run {
    let mut run = Run::default();
    let mut first: Option<SimStats> = None;
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut lint_us = Vec::new();

    let start = Instant::now();
    while iterations.len() < crate::MIN_ITERATIONS || start.elapsed().as_secs_f64() < params.seconds
    {
        let wall = Instant::now();
        let mut setup = 0.0;
        let mut simulate = 0.0;
        let mut absorb = 0.0;
        let mut op_us = Vec::new();
        let mut mcps = Vec::new();
        let mut stats = SimStats::default();

        let t = Instant::now();
        let cfg = CampaignConfig {
            seed: params.seed,
            batch: BATCH,
            guided: false,
        };
        let mut campaign = Campaign::new(cfg, seeds.to_vec());
        setup += t.elapsed().as_secs_f64();

        for _ in 0..=rounds {
            let t = Instant::now();
            let batch = campaign.next_batch();
            setup += t.elapsed().as_secs_f64();

            let mut outcomes = Vec::with_capacity(batch.len());
            for (label, spec) in &batch {
                run.attempted += 1;
                let t = Instant::now();
                let lint = lint_spec(spec);
                let lint_time = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let outcome = run_spec(spec);
                let run_time = t.elapsed().as_secs_f64();
                setup += lint_time;
                simulate += run_time;
                lint_us.push(lint_time * 1e6);
                op_us.push((lint_time + run_time) * 1e6);
                mcps.push(outcome.kernel.cycles_total() as f64 / run_time / 1e6);

                if lint.error_count() > 0 {
                    run.failures
                        .push(format!("system {label}: lint errors:\n{lint}"));
                } else if !outcome.clean() {
                    run.failures.push(format!(
                        "system {label}: finished {}, sanitizer {}, conformance:\n{}",
                        outcome.finished, outcome.sanitizer, outcome.conformance
                    ));
                }
                stats.systems += 1;
                add(&mut stats.kernel, &outcome.kernel);
                for (total, v) in stats.model.iter_mut().zip(model_counts(&outcome.telemetry)) {
                    *total += v;
                }
                outcomes.push(outcome);
            }
            let violations = campaign.violations().len();
            let t = Instant::now();
            campaign.absorb(outcomes);
            absorb += t.elapsed().as_secs_f64();
            for v in &campaign.violations()[violations..] {
                run.failures.push(format!(
                    "oracle violation {:?} on spec:\n{}",
                    v.check,
                    v.spec.to_text()
                ));
            }
        }
        stats.coverage_keys = campaign.coverage_keys();
        match &first {
            Some(f) if *f != stats => {
                run.failures.push(format!(
                    "simulated stats {stats:?} differ from the first iteration's {f:?}"
                ));
            }
            _ => {}
        }

        iterations.push(Iteration {
            wall: wall.elapsed().as_secs_f64(),
            setup,
            simulate,
            mcps_p50: median(&mcps),
            op_p50_us: median(&op_us),
            op_tail_us: tail(&op_us).value,
            absorb_us_per_system: absorb * 1e6 / stats.systems as f64,
        });
        first.get_or_insert(stats);
    }

    let stats = first.expect("at least one iteration");
    let walls: Vec<f64> = iterations.iter().map(|i| i.wall).collect();
    let fastest = &iterations[fastest(&walls)];
    if params.trace {
        set_sim_counts(&mut run, &stats.kernel, &stats.model);
        run.metrics.insert("trace.wall_s", fastest.wall);
        run.metrics.insert("sim.run_s", fastest.simulate);
        run.metrics.insert("lint.pass_a_ms", median(&lint_us) / 1e3);
        run.metrics.insert("fuzz.op_us_p50", fastest.op_p50_us);
        run.metrics.insert("fuzz.op_us_p99", fastest.op_tail_us);
        run.metrics
            .insert("fuzz.absorb_us", fastest.absorb_us_per_system);
    } else {
        let setups: Vec<f64> = iterations.iter().map(|i| i.setup).collect();
        run.metrics.insert("wall_s", fastest.wall);
        // The median system's rate, not the campaign's: a few idle-heavy
        // mutants add cycles the kernel skips for free, and their share
        // of a campaign's cycles depends on the seed (3.72M-4.30M cycles
        // over seeds 0-9).
        run.metrics.insert("sim_mcps", fastest.mcps_p50);
        run.metrics.insert("setup_s", median(&setups));
    }
    run
}
