//! Deterministic observability primitives for the AXI-REALM reproduction.
//!
//! The simulator's components export their runtime signals through a
//! [`TelemetrySink`]: a registry of named counters and gauges, log-bucketed
//! latency [`Histogram`]s, and event streams ([`Span`]s and
//! [`InstantEvent`]s) that render to Chrome `trace_event` JSON via
//! [`chrome_trace`] for ui.perfetto.dev. [`Histogram`] is also the one
//! latency distribution the traffic generators keep, and [`json`] is the
//! one JSON writer (and parser) of the workspace.
//!
//! Everything here is *pull-based and deterministic by construction*:
//!
//! - The sink is populated after (or between) runs via the
//!   `Component::telemetry` hook — never on the per-cycle hot path — so
//!   collecting telemetry cannot perturb simulated behaviour.
//! - All maps are `BTreeMap`s and all values integers, so two runs of the
//!   same system produce byte-identical exports regardless of kernel,
//!   thread count, or platform.
//!
//! The crate is dependency-free so every layer of the workspace (including
//! `axi-sim` itself, which defines the hook) can use it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;

pub mod json;

pub use json::{Json, Layout};

/// Number of [`Histogram`] buckets: bucket 0 plus one per bit of a `u64`.
const BUCKETS: usize = 65;

/// A log-bucketed (HDR-style) histogram over `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i >= 1` holds the power-of-two
/// range `[2^(i-1), 2^i - 1]`. Exact count, sum, min and max are kept
/// alongside the buckets, so means and extremes are exact and only
/// quantiles are subject to bucket resolution (a factor of two). The
/// buckets are a fixed array, so recording a sample never allocates.
///
/// ```
/// use realm_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(8);
/// h.record(12);
/// assert_eq!((h.count(), h.min(), h.max()), (2, 8, 12));
/// assert_eq!(h.mean(), Some(10.0));
/// assert_eq!(h.quantile_bound(0.5), Some(12));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
fn bucket_of(value: u64) -> u32 {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros()
    }
}

/// The inclusive `[lo, hi]` value range of bucket `index`.
pub fn bucket_bounds(index: u32) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value) as usize] += 1;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples, saturating at `u64::MAX`.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum sample, 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact maximum sample, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the bucket containing the `p`-quantile (`0.0..=1.0`),
    /// clamped to the exact max; `None` when empty.
    ///
    /// The bound is conservative: the true quantile lies within a factor of
    /// two below the returned value.
    pub fn quantile_bound(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                return Some(bucket_bounds(bucket).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median bucket bound (see [`Histogram::quantile_bound`]).
    pub fn median_bound(&self) -> Option<u64> {
        self.quantile_bound(0.5)
    }

    /// Iterates `(bucket_index, count)` pairs of the non-empty buckets in
    /// ascending bucket order.
    ///
    /// ```
    /// use realm_telemetry::Histogram;
    ///
    /// let mut h = Histogram::new();
    /// for v in [0, 1, 6, 7, 300] {
    ///     h.record(v);
    /// }
    /// // 0 | [1, 1] | [4, 7] | [256, 511]
    /// assert_eq!(h.buckets().collect::<Vec<_>>(), [(0, 1), (1, 1), (3, 2), (9, 1)]);
    /// ```
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0u32..)
            .zip(&self.buckets)
            .filter_map(|(bucket, &n)| (n > 0).then_some((bucket, n)))
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A completed interval on a named track (e.g. one transaction's lifetime
/// on a manager's track), in cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Track (Perfetto thread) the span renders on.
    pub track: String,
    /// Event name shown on the slice.
    pub name: String,
    /// First cycle of the interval.
    pub start: u64,
    /// Last cycle of the interval (inclusive; zero-length spans allowed).
    pub end: u64,
}

/// A point event on a named track (isolation trip, budget exhaustion,
/// contract/sanitizer violation, criticality switch, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstantEvent {
    /// Track (Perfetto thread) the instant renders on.
    pub track: String,
    /// Event name.
    pub name: String,
    /// Cycle at which the event occurred.
    pub cycle: u64,
}

/// The unified telemetry registry one simulation run exports into.
///
/// Populated by walking every component's `telemetry` hook; see the crate
/// docs for the determinism contract. Counter and gauge keys are
/// conventionally `"<component>.<signal>"`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySink {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `key` (registering it at zero first). Unlike
    /// coverage signatures, zero counters are kept: the registry describes
    /// what a component *can* report, not only what happened.
    pub fn counter(&mut self, key: &str, n: u64) {
        *self.counters.entry(key.to_owned()).or_insert(0) += n;
    }

    /// Sets gauge `key` to its current level `value` (last write wins).
    pub fn gauge(&mut self, key: &str, value: u64) {
        self.gauges.insert(key.to_owned(), value);
    }

    /// Records one sample into histogram `key`.
    pub fn record(&mut self, key: &str, value: u64) {
        self.histograms
            .entry(key.to_owned())
            .or_default()
            .record(value);
    }

    /// Merges a pre-built histogram into histogram `key`.
    pub fn histogram(&mut self, key: &str, hist: &Histogram) {
        self.histograms
            .entry(key.to_owned())
            .or_default()
            .merge(hist);
    }

    /// Appends a completed span.
    pub fn span(&mut self, track: &str, name: &str, start: u64, end: u64) {
        self.spans.push(Span {
            track: track.to_owned(),
            name: name.to_owned(),
            start,
            end,
        });
    }

    /// Appends an instant event.
    pub fn instant(&mut self, track: &str, name: &str, cycle: u64) {
        self.instants.push(InstantEvent {
            track: track.to_owned(),
            name: name.to_owned(),
            cycle,
        });
    }

    /// Folds another sink into this one.
    pub fn merge(&mut self, other: &TelemetrySink) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        self.spans.extend(other.spans.iter().cloned());
        self.instants.extend(other.instants.iter().cloned());
    }

    /// All counters, key-sorted.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, key-sorted.
    pub fn gauges(&self) -> &BTreeMap<String, u64> {
        &self.gauges
    }

    /// All histograms, key-sorted.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Counter `key`, if registered.
    pub fn get_counter(&self, key: &str) -> Option<u64> {
        self.counters.get(key).copied()
    }

    /// Histogram `key`, if registered.
    pub fn get_histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All instant events, in recording order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// True when nothing has been registered or recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.instants.is_empty()
    }
}

/// The Chrome-trace output path named by the `REALM_TRACE` environment
/// variable, if it requests event capture.
///
/// The variable's value *is* the path (`REALM_TRACE=out.json`); unset,
/// empty, `0`, and `off` all mean disabled. Allocation-free when unset.
/// Trace capture must never change simulated behaviour — only whether
/// spans and instants are retained for export.
pub fn trace_path_from_env() -> Option<PathBuf> {
    match std::env::var("REALM_TRACE") {
        Ok(path) if !matches!(path.as_str(), "" | "0" | "off") => Some(PathBuf::from(path)),
        _ => None,
    }
}

/// Renders the sink's spans and instants as Chrome `trace_event` JSON
/// (`{"traceEvents":[...]}`, compact), loadable in ui.perfetto.dev or
/// `chrome://tracing`.
///
/// Each distinct track becomes a named thread under pid 1 (a
/// `thread_name` metadata event plus a stable tid from the sorted track
/// order). Spans render as complete (`"ph":"X"`) events with `ts`/`dur`
/// in cycles (the viewer's "µs" are cycles, 1:1); instants render as
/// thread-scoped (`"ph":"i"`) events. Events are sorted by tid, `ts`,
/// duration (instants first) and name, so the output is
/// byte-deterministic.
pub fn chrome_trace(sink: &TelemetrySink) -> String {
    let mut tracks: Vec<&str> = sink
        .spans()
        .iter()
        .map(|s| s.track.as_str())
        .chain(sink.instants().iter().map(|i| i.track.as_str()))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid_of = |track: &str| tracks.binary_search(&track).expect("track indexed") + 1;

    // `(tid, ts, dur, name)`; instants carry no duration.
    let mut events: Vec<(usize, u64, Option<u64>, &str)> = sink
        .spans()
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start).max(1);
            (tid_of(&s.track), s.start, Some(dur), s.name.as_str())
        })
        .chain(
            sink.instants()
                .iter()
                .map(|i| (tid_of(&i.track), i.cycle, None, i.name.as_str())),
        )
        .collect();
    events.sort_unstable();

    let threads = tracks.iter().zip(1usize..).map(|(&track, tid)| {
        Json::obj([
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
            ("name", "thread_name".into()),
            ("args", Json::obj([("name", track.into())])),
        ])
    });
    let events = events.into_iter().map(|(tid, ts, dur, name)| {
        let (ph, timing, cat) = match dur {
            Some(dur) => ("X", ("dur", dur.into()), "txn"),
            None => ("i", ("s", "t".into()), "event"),
        };
        Json::obj([
            ("ph", ph.into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
            ("ts", ts.into()),
            timing,
            ("name", name.into()),
            ("cat", cat.into()),
        ])
    });
    let doc = Json::obj([("traceEvents", Json::Arr(threads.chain(events).collect()))]);
    doc.render(Layout::Compact) + "\n"
}

/// A histogram's summary for the registry dump: exact count, sum and max,
/// the median and p99 bucket bounds, and `[lo, hi, count]` per non-empty
/// bucket.
fn histogram_json(h: &Histogram) -> Json {
    let buckets = h.buckets().map(|(bucket, n)| {
        let (lo, hi) = bucket_bounds(bucket);
        Json::arr([lo, hi, n])
    });
    Json::obj([
        ("count", h.count().into()),
        ("sum", h.sum().into()),
        ("max", h.max().into()),
        ("median_bound", h.median_bound().unwrap_or(0).into()),
        ("p99_bound", h.quantile_bound(0.99).unwrap_or(0).into()),
        ("buckets", Json::Arr(buckets.collect())),
    ])
}

/// Renders the full registry (counters, gauges, histograms, event streams)
/// as deterministic JSON in [`Layout::Outline`] for `REALM_TELEMETRY`
/// dumps and per-run reports.
pub fn to_json_string(sink: &TelemetrySink) -> String {
    let scalars =
        |map: &BTreeMap<String, u64>| Json::obj(map.iter().map(|(k, &v)| (k.as_str(), v.into())));
    let instants = sink.instants().iter().map(|i| {
        Json::obj([
            ("track", i.track.as_str().into()),
            ("name", i.name.as_str().into()),
            ("cycle", i.cycle.into()),
        ])
    });
    let doc = Json::obj([
        ("counters", scalars(sink.counters())),
        ("gauges", scalars(sink.gauges())),
        (
            "histograms",
            Json::obj(
                sink.histograms()
                    .iter()
                    .map(|(k, h)| (k.as_str(), histogram_json(h))),
            ),
        ),
        ("spans", sink.spans().len().into()),
        ("instants", Json::Arr(instants.collect())),
    ]);
    doc.render(Layout::Outline) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..=64 {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn histogram_exact_stats_and_quantile_bounds() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 5, 8, 13, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 132);
        assert_eq!(h.max(), 100);
        assert!((h.mean().unwrap() - 16.5).abs() < 1e-9);
        // Median rank 4 lands in bucket [2,3].
        assert_eq!(h.median_bound(), Some(3));
        // The top quantile clamps to the exact max, not the bucket bound 127.
        assert_eq!(h.quantile_bound(1.0), Some(100));
        assert_eq!(Histogram::new().median_bound(), None);
    }

    #[test]
    fn histogram_merge_matches_recording_everything_in_one() {
        let samples_a = [1u64, 7, 7, 90];
        let samples_b = [0u64, 2, 512];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in samples_a {
            a.record(v);
            whole.record(v);
        }
        for v in samples_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn histogram_min_is_exact() {
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!((h.min(), h.max(), h.sum()), (7, 7, 7));
        h.record(12);
        h.record(5);
        assert_eq!((h.min(), h.max()), (5, 12));
        // 0 is a sample like any other, not an "unset" marker.
        h.record(0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_empty_min_is_zero() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.min(), h.max(), h.sum()), (0, 0, 0, 0));
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile_bound(0.99), None);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn histogram_merge_keeps_exact_min() {
        let mut a = Histogram::new();
        a.record(5);
        a.record(15);
        let mut b = Histogram::new();
        b.record(9);
        b.record(99);
        a.merge(&b);
        assert_eq!((a.count(), a.min(), a.max()), (4, 5, 99));
        // Merging into an empty histogram takes the other's min (not the
        // empty one's 0); merging an empty one changes nothing.
        let mut empty = Histogram::new();
        empty.merge(&b);
        assert_eq!(empty, b);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn histogram_saturates_at_u64_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!((h.min(), h.max()), (u64::MAX, u64::MAX));
        assert_eq!(h.buckets().collect::<Vec<_>>(), [(64, 2)]);
        assert_eq!(h.quantile_bound(0.99), Some(u64::MAX));
    }

    #[test]
    fn histogram_buckets_follow_the_bit_rule() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 255, 256] {
            h.record(v);
        }
        assert_eq!(
            h.buckets().collect::<Vec<_>>(),
            [(0, 1), (1, 1), (2, 2), (8, 1), (9, 1)]
        );
    }

    #[test]
    fn histogram_p99_bound_is_inclusive_and_clamped() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(8); // bucket [8, 15]
        }
        h.record(1000); // bucket [512, 1023]
        assert_eq!(h.quantile_bound(0.5), Some(15));
        assert_eq!(h.quantile_bound(0.99), Some(15));
        // The top bucket's bound clamps to the exact max.
        assert_eq!(h.quantile_bound(1.0), Some(1000));
    }

    #[test]
    fn sink_counters_keep_zero_registrations() {
        let mut sink = TelemetrySink::new();
        sink.counter("unit.trips", 0);
        sink.counter("unit.beats", 3);
        sink.counter("unit.beats", 2);
        assert_eq!(sink.get_counter("unit.trips"), Some(0));
        assert_eq!(sink.get_counter("unit.beats"), Some(5));
        assert_eq!(sink.get_counter("absent"), None);
    }

    #[test]
    fn sink_merge_sums_counters_and_concatenates_events() {
        let mut a = TelemetrySink::new();
        a.counter("c", 1);
        a.gauge("g", 10);
        a.record("h", 4);
        a.span("t", "s", 0, 5);
        let mut b = TelemetrySink::new();
        b.counter("c", 2);
        b.gauge("g", 20);
        b.record("h", 8);
        b.instant("t", "i", 7);
        a.merge(&b);
        assert_eq!(a.get_counter("c"), Some(3));
        assert_eq!(a.gauges()["g"], 20);
        assert_eq!(a.get_histogram("h").unwrap().count(), 2);
        assert_eq!(a.spans().len(), 1);
        assert_eq!(a.instants().len(), 1);
    }

    #[test]
    fn chrome_trace_emits_metadata_spans_and_instants() {
        let mut sink = TelemetrySink::new();
        sink.span("core", "read#1", 10, 18);
        sink.instant("realm.dma", "budget-exhausted", 42);
        let json = chrome_trace(&sink);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"args\":{\"name\":\"core\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":8"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn chrome_trace_is_deterministic_under_recording_order() {
        let mut a = TelemetrySink::new();
        a.span("x", "s1", 0, 1);
        a.span("x", "s0", 0, 1);
        let mut b = TelemetrySink::new();
        b.span("x", "s0", 0, 1);
        b.span("x", "s1", 0, 1);
        assert_eq!(chrome_trace(&a), chrome_trace(&b));
    }

    #[test]
    fn json_dump_escapes_and_orders_keys() {
        let mut sink = TelemetrySink::new();
        sink.counter("b\"key", 1);
        sink.counter("a.key", 2);
        sink.record("lat", 6);
        let json = to_json_string(&sink);
        assert!(json.contains("\"a.key\": 2"));
        assert!(json.contains("\\\"key\": 1"));
        let a = json.find("a.key").unwrap();
        let b = json.find("b\\\"key").unwrap();
        assert!(a < b, "keys must be sorted");
        assert!(
            json.contains("\"median_bound\": 6"),
            "bound clamps to the exact max"
        );
        assert!(json.contains("[4, 7, 1]"));
    }
}
