//! Parallel sweep harness: fan experiment points across threads, keep
//! results in point order, and collect per-point kernel/runtime metrics.
//!
//! Every experiment binary used to iterate its sweep serially; this module
//! replaces those loops with one runner. Each point's closure builds its
//! own simulator (a `Sim` is not `Send`, and per-thread construction keeps
//! points fully independent), so simulated results are bit-identical
//! whatever the thread count — parallelism and fast-forwarding may only
//! change wall-clock. Set `REALM_SWEEP_THREADS=1` to force the serial
//! order, or any other positive count to cap the worker count.

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use axi_sim::KernelStats;

use crate::Row;

/// Kernel counters for one sweep point.
#[derive(Clone, Debug)]
pub struct PointRuntime {
    /// The point's label (also used in report runtime rows).
    pub label: String,
    /// Kernel counters of the point's simulator at the end of the run.
    pub kernel: KernelStats,
}

impl PointRuntime {
    /// A deterministic report row. Only the total simulated cycle count
    /// appears here: it is identical under the arena kernel and forced
    /// cycle stepping (`REALM_KERNEL=step`), so `results/*.json` stays
    /// bit-identical whichever kernel ran. Kernel-dependent counters
    /// (ticks executed, skips, wire events) stay out of `results/`: the
    /// stdout summary and the benchmark's traced lane report them.
    pub fn to_runtime_row(&self) -> Row {
        Row::new(
            self.label.clone(),
            vec![("cycles", self.kernel.cycles_total() as f64)],
        )
    }
}

/// Everything a sweep produced: per-point results in input order plus
/// observability.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// One result per point, in the order the points were given.
    pub results: Vec<R>,
    /// Per-point runtime metrics, same order.
    pub runtime: Vec<PointRuntime>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock for the whole sweep.
    pub wall: Duration,
}

impl<R> SweepOutcome<R> {
    /// Deterministic runtime rows for an [`crate::ExperimentReport`].
    pub fn runtime_rows(&self) -> Vec<Row> {
        self.runtime
            .iter()
            .map(PointRuntime::to_runtime_row)
            .collect()
    }

    /// Total simulated cycles per wall-clock second across the sweep.
    pub fn cycles_per_sec(&self) -> f64 {
        let cycles: u64 = self.runtime.iter().map(|p| p.kernel.cycles_total()).sum();
        cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Sum of executed ticks across points.
    pub fn ticks_executed(&self) -> u64 {
        self.runtime.iter().map(|p| p.kernel.ticks_executed).sum()
    }

    /// Sum of skipped cycles across points.
    pub fn cycles_skipped(&self) -> u64 {
        self.runtime.iter().map(|p| p.kernel.cycles_skipped).sum()
    }

    /// A one-line human summary of the sweep's runtime, for stdout (not for
    /// `results/*.json`, which must stay deterministic).
    pub fn summary(&self, name: &str) -> String {
        let ticks = self.ticks_executed();
        let skipped = self.cycles_skipped();
        format!(
            "[{name}] {} points on {} thread(s) in {:.3}s: {ticks} ticks + {skipped} skipped \
             = {} cycles ({:.2}M cyc/s)",
            self.results.len(),
            self.threads,
            self.wall.as_secs_f64(),
            ticks + skipped,
            self.cycles_per_sec() / 1e6,
        )
    }
}

/// Parses `value` as the numeric environment knob `key`.
///
/// # Errors
///
/// A message naming the variable, the value and `expected` when `value`
/// does not parse as `T` or `valid` refuses it.
fn parse_knob<T: FromStr>(
    key: &str,
    value: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    value
        .parse()
        .ok()
        .filter(|v| valid(v))
        .ok_or_else(|| format!("{key}={value:?} is not {expected}"))
}

/// The value of the numeric environment knob `key`; `None` when unset.
///
/// # Panics
///
/// If the value does not parse as `T` or `valid` refuses it, with a
/// message naming the variable, the value and `expected`: a bad value
/// never falls back to a default.
pub fn env_knob<T: FromStr>(key: &str, expected: &str, valid: impl Fn(&T) -> bool) -> Option<T> {
    let value = std::env::var_os(key)?;
    Some(
        parse_knob(key, &value.to_string_lossy(), expected, valid)
            .unwrap_or_else(|e| panic!("{e}")),
    )
}

fn worker_count(points: usize) -> usize {
    let requested = env_knob("REALM_SWEEP_THREADS", "a positive thread count", |&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
    requested.min(points).max(1)
}

/// Runs every labelled point through `run`, in parallel, returning results
/// in the input order.
///
/// `run` is called once per point and must return the point's result plus
/// the final [`KernelStats`] of the simulator it built (use
/// `KernelStats::default()` for analytic points with no simulator).
///
/// # Panics
///
/// Propagates a panic from any point after all workers finish.
pub fn run_sweep<I, R, F>(points: Vec<(String, I)>, run: F) -> SweepOutcome<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> (R, KernelStats) + Sync,
{
    let sweep_start = Instant::now();
    let threads = worker_count(points.len());
    let n = points.len();
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<Option<(R, PointRuntime)>>> =
        Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some((label, input)) = points.get(idx) else {
                    break;
                };
                let (result, kernel) = run(input);
                let runtime = PointRuntime {
                    label: label.clone(),
                    kernel,
                };
                collected.lock().expect("no poisoned sweep slots")[idx] = Some((result, runtime));
            });
        }
    });

    let slots = collected.into_inner().expect("no poisoned sweep slots");
    let mut results = Vec::with_capacity(n);
    let mut runtime = Vec::with_capacity(n);
    for slot in slots {
        let (r, rt) = slot.expect("every sweep point ran");
        results.push(r);
        runtime.push(rt);
    }
    SweepOutcome {
        results,
        runtime,
        threads,
        wall: sweep_start.elapsed(),
    }
}

/// Labels points with `Display`-formatted inputs — the common case where
/// the sweep parameter itself is the label.
pub fn labelled<I: std::fmt::Display + Clone>(points: &[I]) -> Vec<(String, I)> {
    points.iter().map(|p| (p.to_string(), p.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ticks: u64, skipped: u64) -> KernelStats {
        KernelStats {
            ticks_executed: ticks,
            cycles_skipped: skipped,
            ..KernelStats::default()
        }
    }

    #[test]
    fn results_keep_point_order() {
        let points = labelled(&[5u64, 1, 4, 2, 3, 9, 8, 7, 6, 0]);
        let outcome = run_sweep(points, |&p| {
            // Uneven work so threads finish out of order.
            std::thread::sleep(Duration::from_millis(p));
            (p * 10, stats(p, 0))
        });
        assert_eq!(outcome.results, [50, 10, 40, 20, 30, 90, 80, 70, 60, 0]);
        let labels: Vec<&str> = outcome.runtime.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["5", "1", "4", "2", "3", "9", "8", "7", "6", "0"]);
        assert!(outcome.threads >= 1);
    }

    #[test]
    fn kernel_counters_aggregate() {
        let outcome = run_sweep(labelled(&[1u64, 2, 3]), |&p| (p, stats(p * 100, p)));
        assert_eq!(outcome.ticks_executed(), 600);
        assert_eq!(outcome.cycles_skipped(), 6);
        let rows = outcome.runtime_rows();
        assert_eq!(rows.len(), 3);
        // Runtime rows carry only the kernel-invariant total, so report
        // files diff clean between the arena kernel and forced stepping.
        assert_eq!(rows[1].values, [("cycles".to_owned(), 202.0)]);
        assert_eq!(rows[2].values, [("cycles".to_owned(), 303.0)]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let outcome = run_sweep(Vec::<(String, u32)>::new(), |&p| (p, stats(0, 0)));
        assert!(outcome.results.is_empty());
    }

    #[test]
    fn serial_env_forces_one_thread() {
        // worker_count respects the env var; set and restore around the
        // check to avoid leaking into other tests.
        std::env::set_var("REALM_SWEEP_THREADS", "1");
        let n = worker_count(8);
        std::env::remove_var("REALM_SWEEP_THREADS");
        assert_eq!(n, 1);
    }

    /// A value that does not parse, or that the knob refuses, is an error
    /// naming the variable and the value, never a silent default.
    #[test]
    fn numeric_knobs_refuse_bad_values() {
        let threads =
            |v| parse_knob::<usize>("REALM_SWEEP_THREADS", v, "a thread count", |&n| n > 0);
        assert_eq!(threads("4"), Ok(4));
        for bad in ["0", "abc", "", "-1", "2.5"] {
            let err = threads(bad).unwrap_err();
            assert!(err.contains("REALM_SWEEP_THREADS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
        let seconds = |v| {
            parse_knob::<f64>("REALM_FUZZ_SECONDS", v, "seconds", |s| {
                s.is_finite() && *s >= 0.0
            })
        };
        assert_eq!(seconds("0.5"), Ok(0.5));
        for bad in ["-1", "inf", "NaN", "5s"] {
            assert!(seconds(bad).is_err(), "{bad:?}");
        }
        assert!(parse_knob::<u64>("REALM_FUZZ_SEED", "0xF0CC", "a seed", |_| true).is_err());
    }
}
