//! The `regen` workload: the ten experiment binaries, run one after another
//! as child processes in a fresh directory, regenerate `results/`; their
//! JSON must be byte-identical to the committed tree. Also the paper-gap
//! metric, computed from any `results/` directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use cheshire_soc::Testbench;
use realm_bench::ExperimentReport;

use crate::metrics::{children_peak_rss_mb, fastest, median, Run};
use crate::testbench::fig6_configs;
use crate::Params;

/// The experiment binaries that write `results/`, in the order they run.
pub const BINARIES: [&str; 10] = [
    "ablations",
    "design_space",
    "extension_cache",
    "extension_dram",
    "fig6a",
    "fig6b",
    "related_work",
    "table1",
    "table2",
    "timeline",
];

/// The `regen.<binary>_pct` metric of each binary, in [`BINARIES`] order.
const SHARE_METRICS: [&str; 10] = [
    "regen.ablations_pct",
    "regen.design_space_pct",
    "regen.extension_cache_pct",
    "regen.extension_dram_pct",
    "regen.fig6a_pct",
    "regen.fig6b_pct",
    "regen.related_work_pct",
    "regen.table1_pct",
    "regen.table2_pct",
    "regen.timeline_pct",
];

/// How many times the set-up builds the Fig. 6 systems; `setup_s` is the
/// median. One build of all sixteen takes about 2 ms, so the median of 5
/// still moved by 14 % between runs.
const SETUP_REPEATS: usize = 25;

/// The sweep totals a binary prints in its summary lines:
/// `[name] N points on T thread(s) in W.WWWs: X ticks + Y skipped = Z cycles (…)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Host seconds inside the sweeps.
    pub sweep_s: f64,
    /// Cycles executed.
    pub ticks: u64,
    /// Cycles fast-forwarded.
    pub skipped: u64,
}

/// Sums every summary line of a binary's standard output.
pub fn parse_summaries(stdout: &str) -> Summary {
    let mut total = Summary::default();
    for line in stdout.lines().filter(|l| l.starts_with('[')) {
        let words: Vec<&str> = line.split_whitespace().collect();
        let before = |word: &str| {
            let i = words.iter().position(|w| *w == word)?;
            words.get(i.checked_sub(1)?).copied()
        };
        let sweep_s = words
            .iter()
            .position(|w| *w == "in")
            .and_then(|i| words.get(i + 1))
            .and_then(|w| w.strip_suffix("s:"))
            .and_then(|w| w.parse::<f64>().ok());
        let ticks = before("ticks").and_then(|w| w.parse::<u64>().ok());
        let skipped = before("skipped").and_then(|w| w.parse::<u64>().ok());
        if let (Some(sweep_s), Some(ticks), Some(skipped)) = (sweep_s, ticks, skipped) {
            total.sweep_s += sweep_s;
            total.ticks += ticks;
            total.skipped += skipped;
        }
    }
    total
}

/// The mean distance, in percentage points, between the Fig. 6 results in
/// `results` and three claims of the paper: core performance below 0.7 %
/// of single-source without reservation, 68.2 % at fragmentation 1, and
/// above 95 % at a 1/5 DMA budget. A one-sided claim that holds counts 0.
///
/// # Errors
///
/// Reports a missing or malformed `fig6a.json`/`fig6b.json`.
pub fn paper_gap_pp(results: &Path) -> Result<f64, String> {
    let perf = |file: &str, label: &str| -> Result<f64, String> {
        let path = results.join(file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        ExperimentReport::from_json_str(&text)?
            .rows
            .iter()
            .find(|r| r.label == label)
            .and_then(|r| r.values.iter().find(|(k, _)| k == "perf_pct"))
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{}: no perf_pct for `{label}`", path.display()))
    };
    let no_reservation = perf("fig6a.json", "no-reservation")?;
    let frag1 = perf("fig6a.json", "frag=1")?;
    let skewed = perf("fig6b.json", "1/5")?;
    let gaps = [
        (no_reservation - 0.7).max(0.0),
        (frag1 - 68.2).abs(),
        (95.0 - skewed).max(0.0),
    ];
    Ok(gaps.iter().sum::<f64>() / gaps.len() as f64)
}

/// A directory removed with everything in it when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn create(path: PathBuf) -> std::io::Result<Self> {
        // A directory left by a run that was killed is stale.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(path.join("results"))?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Names every file of `fresh` that is missing from or differs from
/// `committed`.
fn differing_files(fresh: &Path, committed: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<_> = std::fs::read_dir(fresh)
        .map_err(|e| format!("{}: {e}", fresh.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    names.sort();
    let mut differing = Vec::new();
    for path in names {
        let name = path
            .file_name()
            .expect("a file")
            .to_string_lossy()
            .into_owned();
        let new = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if std::fs::read(committed.join(&name)).ok() != Some(new) {
            differing.push(name);
        }
    }
    Ok(differing)
}

/// Builds the sixteen Fig. 6 systems `SETUP_REPEATS` times and sets the
/// set-up metrics: `setup_s` (median time to build all sixteen) or, traced,
/// the median per-system build and lint times.
fn measure_setup(run: &mut Run, trace: bool) {
    let mut totals = Vec::new();
    let mut builds = Vec::new();
    let mut pass_a = Vec::new();
    let mut pass_c = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut total = 0.0;
        for cfg in fig6_configs() {
            let t = Instant::now();
            let tb = Testbench::new(cfg);
            let build = t.elapsed().as_secs_f64();
            total += build;
            builds.push(build);
            if trace {
                let t = Instant::now();
                std::hint::black_box(tb.lint_report());
                pass_a.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                std::hint::black_box(tb.partition());
                pass_c.push(t.elapsed().as_secs_f64());
            }
        }
        totals.push(total);
    }
    if trace {
        run.metrics.insert("soc.build_ms", median(&builds) * 1e3);
        run.metrics.insert("lint.pass_a_ms", median(&pass_a) * 1e3);
        run.metrics.insert("lint.pass_c_ms", median(&pass_c) * 1e3);
    } else {
        run.metrics.insert("setup_s", median(&totals));
    }
}

/// Regenerates `results/` until `params.seconds` have passed (at least
/// [`crate::MIN_ITERATIONS`] times), running the binaries from `bin_dir` in a fresh directory under
/// `scratch`, and compares against `root/results`. Set-up builds the Fig.
/// 6 systems the `fig6a` and `fig6b` children simulate, in-process: a
/// child's own set-up cannot be timed from outside.
///
/// # Errors
///
/// Reports a missing binary or an unusable scratch directory.
pub fn run(params: &Params, root: &Path, bin_dir: &Path, scratch: &Path) -> Result<Run, String> {
    for name in BINARIES {
        let path = bin_dir.join(name);
        if !path.is_file() {
            return Err(format!(
                "{} not found: build the experiment binaries with `cargo build --release -p realm-bench --bins`",
                path.display()
            ));
        }
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let mut run = Run::default();
    measure_setup(&mut run, params.trace);

    let mut first: Option<Vec<Summary>> = None;
    // Per iteration: each child's wall time, and the children's sweep time.
    let mut iterations: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut gap = 0.0;
    let start = Instant::now();
    while iterations.len() < crate::MIN_ITERATIONS || start.elapsed().as_secs_f64() < params.seconds
    {
        let dir = TempDir::create(scratch.join(format!("regen-{}", std::process::id()))).map_err(
            |e| {
                format!(
                    "cannot create a scratch directory under {}: {e}",
                    scratch.display()
                )
            },
        )?;
        let mut child_walls = Vec::new();
        let mut summaries = Vec::new();
        for name in BINARIES {
            run.attempted += 1;
            let t = Instant::now();
            let output = Command::new(bin_dir.join(name))
                .current_dir(&dir.0)
                .env("REALM_SWEEP_THREADS", threads.to_string())
                .stdin(Stdio::null())
                .output();
            child_walls.push(t.elapsed().as_secs_f64());
            match output {
                Ok(out) if out.status.success() => {
                    summaries.push(parse_summaries(&String::from_utf8_lossy(&out.stdout)));
                }
                Ok(out) => {
                    summaries.push(Summary::default());
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    run.failures
                        .push(format!("{name} exited with {}:\n{stderr}", out.status));
                }
                Err(e) => {
                    summaries.push(Summary::default());
                    run.failures.push(format!("{name} did not start: {e}"));
                }
            }
        }

        // One more operation: the written results against the committed tree.
        run.attempted += 1;
        let fresh = dir.0.join("results");
        match differing_files(&fresh, &root.join("results")) {
            Ok(differing) if differing.is_empty() => {}
            Ok(differing) => run.failures.push(format!(
                "regenerated results differ from the committed tree: {}",
                differing.join(", ")
            )),
            Err(e) => run.failures.push(e),
        }
        match paper_gap_pp(&fresh) {
            Ok(g) => gap = g,
            Err(e) => run.failures.push(e),
        }
        if let Some(f) = &first {
            let counts = |s: &[Summary]| -> Vec<(u64, u64)> {
                s.iter().map(|s| (s.ticks, s.skipped)).collect()
            };
            if counts(f) != counts(&summaries) {
                run.failures.push(format!(
                    "simulated cycles {:?} differ from the first iteration's {:?}",
                    counts(&summaries),
                    counts(f)
                ));
            }
        }

        let sweep = summaries.iter().map(|s| s.sweep_s).sum();
        iterations.push((child_walls, sweep));
        first.get_or_insert(summaries);
    }

    let summaries = first.expect("at least one iteration");
    let ticks: u64 = summaries.iter().map(|s| s.ticks).sum();
    let skipped: u64 = summaries.iter().map(|s| s.skipped).sum();
    let walls: Vec<f64> = iterations.iter().map(|(c, _)| c.iter().sum()).collect();
    let fastest = fastest(&walls);
    let (child_walls, sweep) = &iterations[fastest];
    if params.trace {
        run.metrics.insert("trace.wall_s", walls[fastest]);
        run.metrics.insert("sim.run_s", *sweep);
        run.metrics.insert("sim.cycles", (ticks + skipped) as f64);
        run.metrics.insert(
            "sim.skipped_pct",
            skipped as f64 / (ticks + skipped).max(1) as f64 * 100.0,
        );
        for (metric, child) in SHARE_METRICS.iter().zip(child_walls) {
            run.metrics.insert(metric, child / walls[fastest] * 100.0);
        }
    } else {
        run.metrics.insert("wall_s", walls[fastest]);
        // No sweep time at all means every child failed, which is recorded.
        let mcps = if *sweep > 0.0 {
            (ticks + skipped) as f64 / sweep / 1e6
        } else {
            0.0
        };
        run.metrics.insert("sim_mcps", mcps);
        run.metrics.insert("peak_rss_mb", children_peak_rss_mb()?);
        run.metrics.insert("paper_gap_pp", gap);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gap_of_the_committed_results() {
        let gap = paper_gap_pp(&crate::tests::repo_root().join("results")).unwrap();
        assert_eq!((gap * 100.0).round() / 100.0, 5.23, "{gap}");
    }

    #[test]
    fn summary_lines_are_summed() {
        let stdout = "\
== Fig. 6a ==
[fig6a] 11 points on 2 thread(s) in 1.219s: 3888296 ticks + 0 skipped = 3888296 cycles (3.19M cyc/s)
[related_work] 3 points on 1 thread(s) in 0.500s: 3533251 ticks + 3999982 skipped = 7533233 cycles (6.79M cyc/s)
[other] not a summary
";
        let s = parse_summaries(stdout);
        assert_eq!(s.ticks, 3_888_296 + 3_533_251);
        assert_eq!(s.skipped, 3_999_982);
        assert!((s.sweep_s - 1.719).abs() < 1e-9);
        assert_eq!(parse_summaries("no summary\n"), Summary::default());
    }

    #[test]
    fn share_metrics_follow_the_binaries() {
        for (metric, name) in SHARE_METRICS.iter().zip(BINARIES) {
            assert_eq!(*metric, format!("regen.{name}_pct"));
        }
    }
}
