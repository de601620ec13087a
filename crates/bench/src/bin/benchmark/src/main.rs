//! The benchmark of the AXI-REALM simulator: one run of one workload (or of
//! all four), printing every metric as `<workload> <metric> <value> <unit>`
//! and, last, one JSON line with the run's verdict and metrics.
//!
//! ```text
//! bash crates/bench/src/bin/benchmark/run.sh --workload contended-burst --seed 0 --seconds 10 --trace 0
//! ```
//!
//! `run.sh` builds the experiment binaries `regen` runs and two variants of
//! this binary: the plain one reports the end-to-end metrics (`--trace 0`),
//! the one built with `--features self-profile` the per-layer metrics
//! (`--trace 1`). See README.md for the workloads and metrics.

mod fuzz_mix;
mod metrics;
mod regen;
mod testbench;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Run, END_TO_END, PER_LAYER};
use testbench::Shape;

/// Timed iterations a run makes at least, whatever `--seconds` says: the
/// fastest of one iteration is no better than any single sample, and the
/// cross-iteration check needs two.
pub const MIN_ITERATIONS: usize = 3;

/// `--seconds` when none is given.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: benchmark [--workload <regen|contended-burst|budget-skewed|fuzz-mix>] \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// What every workload's run is told.
pub struct Params {
    /// Input seed: the DMA's start cycle (`seed % 64`) in the Testbench
    /// workloads, the campaign seed in `fuzz-mix`; `regen` ignores it.
    pub seed: u64,
    /// Host seconds to keep measuring for.
    pub seconds: f64,
    /// Report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Regen,
    ContendedBurst,
    BudgetSkewed,
    FuzzMix,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Regen,
        Workload::ContendedBurst,
        Workload::BudgetSkewed,
        Workload::FuzzMix,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Regen => "regen",
            Workload::ContendedBurst => "contended-burst",
            Workload::BudgetSkewed => "budget-skewed",
            Workload::FuzzMix => "fuzz-mix",
        }
    }
}

/// Where a run reads the committed tree and finds the build.
struct Tree {
    /// The repository checkout.
    root: PathBuf,
    /// Cargo's target directory: the experiment binaries are under
    /// `release/`, and `regen` writes its scratch directory here.
    target: PathBuf,
}

/// Runs one workload and completes its metrics: the pool probes on the
/// traced lane, peak memory and the paper gap on the plain one, and 0 for
/// every per-layer metric the workload cannot observe. `tiny` shrinks the
/// inputs of the in-process workloads for tests.
fn measure(workload: Workload, params: &Params, tree: &Tree, tiny: bool) -> Result<Run, String> {
    let mut run = match workload {
        Workload::Regen => regen::run(
            params,
            &tree.root,
            &tree.target.join("release"),
            &tree.target,
        )?,
        Workload::ContendedBurst if tiny => {
            testbench::run(Shape::CONTENDED_BURST.with_accesses(50), params, None)
        }
        Workload::ContendedBurst => {
            let reference = if params.seed == 0 {
                Some(testbench::committed_no_reservation_cycles(&tree.root)?)
            } else {
                None
            };
            testbench::run(Shape::CONTENDED_BURST, params, reference)
        }
        Workload::BudgetSkewed => {
            let accesses = if tiny {
                200
            } else {
                Shape::BUDGET_SKEWED.accesses
            };
            testbench::run(Shape::BUDGET_SKEWED.with_accesses(accesses), params, None)
        }
        Workload::FuzzMix => {
            let seeds = fuzz_mix::load_seeds(&tree.root)?;
            let rounds = if tiny { 2 } else { fuzz_mix::ROUNDS };
            fuzz_mix::run(rounds, &seeds, params)
        }
    };
    if params.trace {
        run.metrics.insert(
            "sim.pool_push_pop_ns",
            metrics::pool_ns_per_beat(realm_bench::poolbench::ring_push_pop),
        );
        run.metrics.insert(
            "sim.pool_relay_ns",
            metrics::pool_ns_per_beat(realm_bench::poolbench::ring_relay_per_cycle),
        );
        for (name, _) in PER_LAYER {
            run.metrics.entry(name).or_insert(0.0);
        }
    } else if workload != Workload::Regen {
        run.metrics
            .insert("peak_rss_mb", metrics::self_peak_rss_mb()?);
        run.metrics.insert(
            "paper_gap_pp",
            regen::paper_gap_pp(&tree.root.join("results"))?,
        );
    }
    Ok(run)
}

/// The options of one invocation.
struct Args {
    workloads: Vec<Workload>,
    params: Params,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        params: Params {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            trace: cfg!(feature = "self-profile"),
        },
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                let v = value()?;
                parsed.params.seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.params.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds `{v}` is not a non-negative number"))?;
            }
            "--trace" => {
                parsed.params.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace `{other}` is neither 0 nor 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.params.trace != cfg!(feature = "self-profile") {
        return Err(if parsed.params.trace {
            "--trace 1 needs the binary built with `--features self-profile` (run.sh picks it)"
                .to_owned()
        } else {
            "--trace 0 needs the binary built without `--features self-profile`: \
             its clock reads would slow every component tick (run.sh picks it)"
                .to_owned()
        });
    }
    Ok(parsed)
}

/// The first `REALM_*` environment variable set, if any. The simulator
/// reads these (kernel, monitors, lint, sweep threads, …) and silently
/// falls back on values it does not know, so a run refuses them all.
fn realm_variable() -> Option<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("REALM_"))
}

/// Prints one run's metric lines and its JSON verdict line; returns whether
/// the run was correct.
fn report(workload: Workload, run: &Run, trace: bool) -> Result<bool, String> {
    let metrics = run.emitted(if trace { PER_LAYER } else { END_TO_END })?;
    let name = workload.name();
    for (metric, unit, value) in &metrics {
        println!("{name} {metric} {value} {unit}");
    }
    let failed = run.failures.len();
    println!("{name} ops {} count", run.attempted);
    println!("{name} ops_failed {failed} count");
    for failure in run.failures.iter().take(10) {
        eprintln!("{name}: FAILED {failure}");
    }
    let correct = failed == 0 && run.attempted > 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|(metric, unit, value)| {
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.attempted,
        fields.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = realm_variable() {
        eprintln!("benchmark: refusing to run with {var} set; unset every REALM_* variable");
        return ExitCode::from(2);
    }
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("benchmark: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    // Absolute, since `regen` starts its children in another directory.
    let target = root.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let tree = Tree { root, target };

    let mut all_correct = true;
    for workload in args.workloads {
        let outcome = measure(workload, &args.params, &tree, false)
            .and_then(|run| report(workload, &run, args.params.trace));
        match outcome {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("benchmark: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    /// The repository root, five directories above this package.
    pub fn repo_root() -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../../../..")
            .canonicalize()
            .expect("repository root exists");
        assert!(
            root.join("results/fig6a.json").is_file(),
            "{} is not the repository root",
            root.display()
        );
        root
    }

    fn tree() -> Tree {
        let root = repo_root();
        Tree {
            target: root.join("target"),
            root,
        }
    }

    /// `git status --porcelain` of the repository, or `None` outside git.
    fn git_status(root: &Path) -> Option<String> {
        let out = std::process::Command::new("git")
            .args(["status", "--porcelain", "--untracked-files=all"])
            .current_dir(root)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(doc: &realm_bench::json::Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(|v| v.as_str())
                        .expect("name and unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc = realm_bench::json::parse(&text).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
            .collect();
        let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own);
    }

    /// A tiny run of each in-process workload, plain and traced: no
    /// operation fails, exactly the listed metrics come out, the layers
    /// each workload observes read non-zero, and the tree is untouched.
    #[test]
    fn tiny_in_process_workloads_smoke() {
        let tree = tree();
        let before = git_status(&tree.root);
        for workload in [
            Workload::ContendedBurst,
            Workload::BudgetSkewed,
            Workload::FuzzMix,
        ] {
            for trace in [false, true] {
                let params = Params {
                    seed: 1,
                    seconds: 0.0,
                    trace,
                };
                let run = measure(workload, &params, &tree, true).unwrap();
                assert!(run.failures.is_empty(), "{workload:?}: {:?}", run.failures);
                assert!(run.attempted >= MIN_ITERATIONS as u64);
                let list = if trace { PER_LAYER } else { END_TO_END };
                let emitted = run.emitted(list).unwrap();
                let value = |name: &str| emitted.iter().find(|(n, _, _)| *n == name).unwrap().2;
                let traced = [
                    "trace.wall_s",
                    "sim.run_s",
                    "sim.cycles",
                    "sim.pool_push_pop_ns",
                    "sim.pool_relay_ns",
                    "lint.pass_a_ms",
                    "mem.beats_served",
                ];
                let observed: Vec<&str> = match (trace, workload) {
                    (false, _) => END_TO_END.iter().map(|(n, _)| *n).collect(),
                    (true, Workload::FuzzMix) => [
                        &traced[..],
                        &["fuzz.op_us_p50", "fuzz.op_us_p99", "fuzz.absorb_us"],
                    ]
                    .concat(),
                    (true, _) => [
                        &traced[..],
                        &[
                            "sim.kernel_ns_per_cycle",
                            "soc.build_ms",
                            "lint.pass_c_ms",
                            "conformance.check_ms",
                            "conformance.monitor_pct",
                            "telemetry.harvest_ms",
                        ],
                    ]
                    .concat(),
                };
                for name in observed {
                    assert!(
                        value(name) > 0.0,
                        "{workload:?} trace={trace}: {name} is {}",
                        value(name)
                    );
                }
            }
        }
        assert_eq!(
            git_status(&tree.root),
            before,
            "a run changed the repository tree"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| (*a).to_owned()));
        let ok = parse(&["--workload", "fuzz-mix", "--seed", "7", "--seconds", "2"]).unwrap();
        assert_eq!(ok.workloads, [Workload::FuzzMix]);
        assert_eq!((ok.params.seed, ok.params.seconds), (7, 2.0));
        assert_eq!(parse(&[]).unwrap().workloads, Workload::ALL);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        // Only the binary built for a lane accepts it.
        let other_lane = if cfg!(feature = "self-profile") {
            "0"
        } else {
            "1"
        };
        assert!(parse(&["--trace", other_lane]).is_err());
    }
}
