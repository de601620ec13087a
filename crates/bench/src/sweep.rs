//! Parallel sweep harness: fan experiment points across threads, keep
//! results in point order, and collect per-point kernel/runtime metrics.
//!
//! Every experiment binary used to iterate its sweep serially; this module
//! replaces those loops with one runner. Each point's closure builds its
//! own simulator (a `Sim` is not `Send`, and per-thread construction keeps
//! points fully independent), so simulated results are bit-identical
//! whatever the thread count — parallelism and fast-forwarding may only
//! change wall-clock. Set `REALM_SWEEP_THREADS=1` to force the serial
//! order, or any other value to cap the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use axi_sim::{KernelMode, KernelStats};

use crate::Row;

/// Wall-clock and kernel counters for one sweep point.
#[derive(Clone, Debug)]
pub struct PointRuntime {
    /// The point's label (also used in report runtime rows).
    pub label: String,
    /// Wall-clock time spent simulating this point.
    pub wall: Duration,
    /// Kernel counters of the point's simulator at the end of the run.
    pub kernel: KernelStats,
}

impl PointRuntime {
    /// Simulated cycles per wall-clock second (executed + skipped).
    pub fn cycles_per_sec(&self) -> f64 {
        self.kernel.cycles_total() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// A deterministic report row. Only the total simulated cycle count
    /// appears here: it is identical under the arena kernel and forced
    /// cycle stepping (`REALM_KERNEL=step`), so `results/*.json` stays
    /// bit-identical whichever kernel ran. Kernel-dependent counters
    /// (ticks executed, skips, wire events) belong in `BENCH_kernel.json`
    /// via [`SweepOutcome::write_kernel_baseline`].
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

    /// Sum of per-component tick executions across points.
    pub fn component_ticks(&self) -> u64 {
        self.runtime.iter().map(|p| p.kernel.component_ticks).sum()
    }

    /// Sum of per-component elided ticks across points.
    pub fn component_skips(&self) -> u64 {
        self.runtime.iter().map(|p| p.kernel.component_skips).sum()
    }

    /// Sum of recorded wire push/pop wake events across points.
    pub fn wire_events(&self) -> u64 {
        self.runtime.iter().map(|p| p.kernel.wire_events).sum()
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

    /// Writes the wall-clock baseline for this sweep as JSON — throughput,
    /// thread count, and per-point timings. Wall-clock is machine-dependent,
    /// so it lives here (`BENCH_kernel.json` at the repo root) instead of in
    /// the deterministic `results/*.json` reports.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_kernel_baseline<P: AsRef<std::path::Path>>(
        &self,
        path: P,
        experiment: &str,
    ) -> std::io::Result<()> {
        self.write_kernel_baseline_with_partition(path, experiment, None)
    }

    /// Like [`SweepOutcome::write_kernel_baseline`], with the system's
    /// static dependence partition (Pass C of `realm-lint`) summarized in
    /// a `partition` row: component count, island count, largest island,
    /// and zero-latency schedule depth. The partition is a property of the
    /// simulated system, not of the machine, but it rides along here so
    /// the kernel baseline records how much island-level parallelism the
    /// measured system exposes.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_kernel_baseline_with_partition<P: AsRef<std::path::Path>>(
        &self,
        path: P,
        experiment: &str,
        partition: Option<&realm_lint::Partition>,
    ) -> std::io::Result<()> {
        self.write_kernel_baseline_full(path, experiment, partition, None)
    }

    /// Like [`SweepOutcome::write_kernel_baseline_with_partition`], with the
    /// kernel self-profile of one representative run appended as a
    /// `profile` section: per-component visit counts from
    /// [`axi_sim::Sim::profile`], plus wall-time per component when the
    /// `self-profile` feature is on (0 otherwise — the clock reads are
    /// compiled out of default builds).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_kernel_baseline_full<P: AsRef<std::path::Path>>(
        &self,
        path: P,
        experiment: &str,
        partition: Option<&realm_lint::Partition>,
        profile: Option<&[axi_sim::ComponentProfile]>,
    ) -> std::io::Result<()> {
        use crate::json::Json;
        let num = Json::Num;
        // Counters are emitted as JSON integers (`Json::Int`), never as
        // `.0`-suffixed floats; only derived rates and wall-clock stay f64.
        let int = |n: u64| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
        let points = self
            .runtime
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("label".to_owned(), Json::Str(p.label.clone())),
                    ("wall_ms".to_owned(), num(p.wall.as_secs_f64() * 1e3)),
                    ("ticks_executed".to_owned(), int(p.kernel.ticks_executed)),
                    ("cycles_skipped".to_owned(), int(p.kernel.cycles_skipped)),
                    ("fast_forwards".to_owned(), int(p.kernel.fast_forwards)),
                    ("component_ticks".to_owned(), int(p.kernel.component_ticks)),
                    ("component_skips".to_owned(), int(p.kernel.component_skips)),
                    ("wire_events".to_owned(), int(p.kernel.wire_events)),
                    ("cycles_per_sec".to_owned(), num(p.cycles_per_sec())),
                ])
            })
            .collect();
        // Which kernel produced these numbers: the simulator's own
        // REALM_KERNEL parser, which already refused any other value when
        // the sweep's first `Sim` was built.
        let kernel = KernelMode::from_env().unwrap_or_else(|e| panic!("{e}"));
        let mut doc = vec![
            ("experiment".to_owned(), Json::Str(experiment.to_owned())),
            ("kernel".to_owned(), Json::Str(kernel.name().to_owned())),
            ("threads".to_owned(), int(self.threads as u64)),
            ("wall_ms".to_owned(), num(self.wall.as_secs_f64() * 1e3)),
            ("cycles_per_sec".to_owned(), num(self.cycles_per_sec())),
            ("ticks_executed".to_owned(), int(self.ticks_executed())),
            ("cycles_skipped".to_owned(), int(self.cycles_skipped())),
            ("component_ticks".to_owned(), int(self.component_ticks())),
            ("component_skips".to_owned(), int(self.component_skips())),
            ("wire_events".to_owned(), int(self.wire_events())),
            ("points".to_owned(), Json::Arr(points)),
        ];
        if let Some(p) = partition {
            doc.push((
                "partition".to_owned(),
                Json::Obj(vec![
                    ("components".to_owned(), int(p.names.len() as u64)),
                    ("islands".to_owned(), int(p.island_count() as u64)),
                    ("largest_island".to_owned(), int(p.largest_island() as u64)),
                    ("schedule_depth".to_owned(), int(p.depth as u64)),
                ]),
            ));
        }
        if let Some(profile) = profile {
            doc.push((
                "profile".to_owned(),
                crate::telemetry::profile_json(profile),
            ));
        }
        std::fs::write(path, Json::Obj(doc).pretty())
    }
}

fn worker_count(points: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let requested = std::env::var("REALM_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(available);
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
                let start = Instant::now();
                let (result, kernel) = run(input);
                let runtime = PointRuntime {
                    label: label.clone(),
                    wall: start.elapsed(),
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
            fast_forwards: u64::from(skipped > 0),
            component_ticks: ticks * 2,
            component_skips: skipped * 2,
            wire_events: ticks,
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
        assert_eq!(outcome.component_ticks(), 1200);
        assert_eq!(outcome.component_skips(), 12);
        assert_eq!(outcome.wire_events(), 600);
        let rows = outcome.runtime_rows();
        assert_eq!(rows.len(), 3);
        // Runtime rows carry only the kernel-invariant total, so report
        // files diff clean between the arena kernel and forced stepping.
        assert_eq!(rows[1].values, [("cycles".to_owned(), 202.0)]);
        assert_eq!(rows[2].values, [("cycles".to_owned(), 303.0)]);
    }

    #[test]
    fn baseline_counters_are_json_integers() {
        let outcome = run_sweep(labelled(&[7u64]), |&p| (p, stats(p * 1000, p)));
        let dir = std::env::temp_dir().join("realm_sweep_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_kernel.json");
        outcome.write_kernel_baseline(&path, "unit").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("ticks_executed"),
            Some(&crate::json::Json::Int(7000))
        );
        assert!(text.contains("\"ticks_executed\": 7000,"), "{text}");
        assert!(!text.contains("\"ticks_executed\": 7000.0"), "{text}");
        assert!(!text.contains("\"threads\": 1.0"), "{text}");
        let point = &doc.get("points").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            point.get("wire_events"),
            Some(&crate::json::Json::Int(7000))
        );
        assert_eq!(
            point.get("component_skips"),
            Some(&crate::json::Json::Int(14))
        );
        std::fs::remove_file(&path).ok();
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
}
