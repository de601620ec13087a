//! Metric names and units, the per-run result, and the statistics the
//! workloads report with.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units
//! with their directions and bounds; a test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the simulator sees. Emitted by the
/// plain run (`--trace 0`) of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_mcps", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("paper_gap_pp", "pp"),
];

/// Per-layer metrics, emitted by the traced run (`--trace 1`) of every
/// workload. A workload that cannot observe a layer reports 0 for it: the
/// experiment binaries `regen` runs are opaque child processes, and the
/// fuzz rig keeps its `Sim` private.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("sim.run_s", "s"),
    ("sim.kernel_ns_per_cycle", "ns/cycle"),
    ("core.ns_per_cycle", "ns/cycle"),
    ("xbar.ns_per_cycle", "ns/cycle"),
    ("mem.ns_per_cycle", "ns/cycle"),
    ("traffic.ns_per_cycle", "ns/cycle"),
    ("conformance.ns_per_cycle", "ns/cycle"),
    ("sim.pool_push_pop_ns", "ns"),
    ("sim.pool_relay_ns", "ns"),
    ("sim.cycles", "count"),
    ("sim.component_ticks_per_cycle", "ticks/cycle"),
    ("sim.wire_events_per_cycle", "events/cycle"),
    ("sim.elided_pct", "%"),
    ("sim.skipped_pct", "%"),
    ("soc.build_ms", "ms/system"),
    ("lint.pass_a_ms", "ms/system"),
    ("lint.pass_c_ms", "ms/system"),
    ("conformance.check_ms", "ms/system"),
    ("conformance.monitor_pct", "%"),
    ("telemetry.harvest_ms", "ms/system"),
    ("fuzz.op_us_p50", "us/system"),
    ("fuzz.op_us_p99", "us/system"),
    ("fuzz.absorb_us", "us/system"),
    ("regen.ablations_pct", "%"),
    ("regen.design_space_pct", "%"),
    ("regen.extension_cache_pct", "%"),
    ("regen.extension_dram_pct", "%"),
    ("regen.fig6a_pct", "%"),
    ("regen.fig6b_pct", "%"),
    ("regen.related_work_pct", "%"),
    ("regen.table1_pct", "%"),
    ("regen.table2_pct", "%"),
    ("regen.timeline_pct", "%"),
    ("core.isolated_cycles", "count"),
    ("core.isolation_trips", "count"),
    ("xbar.blocked_cycles", "count"),
    ("xbar.w_stall_cycles", "count"),
    ("mem.beats_served", "count"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted: Testbench systems, fuzz systems, or
    /// experiment-binary executions.
    pub attempted: u64,
    /// One message per failed operation or failed output check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Run {
    /// The metrics this run reports, in list order, with their units:
    /// every name of `list`, each present, finite, and nothing else.
    ///
    /// # Errors
    ///
    /// Names a metric that is missing, not finite, or not in `list`.
    pub fn emitted(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !list.iter().any(|(n, _)| n == *k))
        {
            return Err(format!(
                "metric `{extra}` is not in the benchmark's metric list"
            ));
        }
        list.iter()
            .map(|&(name, unit)| match self.metrics.get(name) {
                Some(v) if v.is_finite() => Ok((name, unit, *v)),
                Some(v) => Err(format!("metric `{name}` is not finite ({v})")),
                None => Err(format!("metric `{name}` was not measured")),
            })
            .collect()
    }
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The index of the smallest of `values`: the fastest iteration of a run.
///
/// Host time on a shared machine only ever gains from interference (other
/// tenants, preempted vCPUs), so the fastest of a run's iterations is the
/// steadiest estimate of the simulator's own cost; the median carries
/// whatever share of the run the interference hit.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "fastest of no values");
    (0..values.len())
        .min_by(|&a, &b| values[a].total_cmp(&values[b]))
        .expect("non-empty")
}

/// A tail percentile of a sample, as [`tail`] chooses it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, or `None` when the sample is too small for
    /// any and `value` is its maximum.
    pub percentile: Option<f64>,
    /// The value at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Percentiles [`tail`] chooses from, highest first, in tenths of a
/// percent so ranks are computed exactly.
const TAIL_PERMILLE: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_BEYOND: usize = 10;

/// The highest percentile of `values` with at least ten samples beyond it
/// (nearest-rank), or the maximum when the sample is too small for any.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for permille in TAIL_PERMILLE {
        // Nearest rank: the smallest rank covering the percentile.
        let rank = (permille * n).div_ceil(1000);
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return Tail {
                percentile: Some(permille as f64 / 10.0),
                value: sorted[rank - 1],
                n,
            };
        }
    }
    Tail {
        percentile: None,
        value: sorted[n - 1],
        n,
    }
}

/// Peak resident set of this process (`VmHWM` in `/proc/self/status`), MB.
///
/// # Errors
///
/// Reports an unreadable or malformed status file.
pub fn self_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s,
/// then fourteen `long`s of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_CHILDREN`: every terminated and waited-for descendant.
const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set of the largest child process waited for so far, MB.
///
/// # Errors
///
/// Reports a failed `getrusage` call.
pub fn children_peak_rss_mb() -> Result<f64, String> {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of Linux's
    // 64-bit `struct rusage`, which is all `getrusage` writes through the
    // pointer; `RUSAGE_CHILDREN` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    // ru_maxrss is in kilobytes on Linux.
    Ok(usage.maxrss as f64 / 1024.0)
}

/// Host nanoseconds per moved beat of `probe(beats)`, the median of five
/// timed calls. The probes are `realm_bench::poolbench`'s `ChannelPool`
/// workloads: they isolate the wire layer from every component.
pub fn pool_ns_per_beat(probe: fn(u64) -> u64) -> f64 {
    const BEATS: u64 = 1 << 21;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(probe(std::hint::black_box(BEATS)));
            t.elapsed().as_nanos() as f64 / BEATS as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_index_of_the_minimum() {
        assert_eq!(fastest(&[0.9, 0.7, 1.4, 0.7]), 1);
        assert_eq!(fastest(&[2.0]), 0);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=4805).map(f64::from).collect();
        // p99.9 leaves 4 samples beyond it, p99 leaves 48.
        let t = tail(&values);
        assert_eq!(t.percentile, Some(99.0));
        assert_eq!(t.value, 4757.0);
        assert_eq!(t.n, 4805);

        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&values).percentile, Some(99.9));

        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.value), (Some(90.0), 90.0));

        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values).percentile, Some(50.0));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_and_count_for_small_samples() {
        let values: Vec<f64> = (1..=19).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, None);
        assert_eq!(t.value, 19.0);
        assert_eq!(t.n, 19);
        assert_eq!(tail(&[7.0]).value, 7.0);
    }

    #[test]
    fn emitted_rejects_missing_extra_and_non_finite_metrics() {
        let list = &[("a", "s"), ("b", "ms")];
        let mut run = Run::default();
        run.metrics.insert("a", 1.0);
        assert!(run.emitted(list).unwrap_err().contains("`b`"));
        run.metrics.insert("b", f64::NAN);
        assert!(run.emitted(list).unwrap_err().contains("not finite"));
        run.metrics.insert("b", 2.0);
        assert_eq!(
            run.emitted(list).unwrap(),
            vec![("a", "s", 1.0), ("b", "ms", 2.0)]
        );
        run.metrics.insert("c", 3.0);
        assert!(run.emitted(list).unwrap_err().contains("`c`"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(self_peak_rss_mb().unwrap() > 0.0);
        assert!(children_peak_rss_mb().unwrap() >= 0.0);
    }
}
