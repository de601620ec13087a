//! Deterministic observability primitives for the AXI-REALM reproduction.
//!
//! The simulator's components export their runtime signals through a
//! [`TelemetrySink`]: a registry of named counters and gauges, log-bucketed
//! latency [`Histogram`]s, and event streams ([`Span`]s and
//! [`InstantEvent`]s) that render to Chrome `trace_event` JSON via
//! [`chrome_trace`] for ui.perfetto.dev.
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
use std::fmt::Write as _;
use std::path::PathBuf;

/// A log-bucketed (HDR-style) histogram over `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i >= 1` holds the half-open
/// power-of-two range `[2^(i-1), 2^i - 1]`. Exact count, sum, and max are
/// kept alongside the buckets, so means are exact and only quantiles are
/// subject to bucket resolution (a factor of two). Backed by a `BTreeMap`
/// for deterministic iteration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    max: u64,
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
        *self.buckets.entry(bucket_of(value)).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
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
        for (&bucket, &n) in &self.buckets {
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

    /// Iterates `(bucket_index, count)` pairs in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&b, &n)| (b, n))
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&bucket, &n) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += n;
        }
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

/// Escapes `s` as the body of a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the sink's spans and instants as Chrome `trace_event` JSON
/// (`{"traceEvents": [...]}`), loadable in ui.perfetto.dev or
/// `chrome://tracing`.
///
/// Each distinct track becomes a named thread under pid 1 (a
/// `thread_name` metadata event plus a stable tid from the sorted track
/// order). Spans render as complete (`"ph":"X"`) events with `ts`/`dur`
/// in cycles (the viewer's "µs" are cycles, 1:1); instants render as
/// thread-scoped (`"ph":"i"`) events. Events are emitted in
/// `(tid, ts, name)` order, so the output is byte-deterministic.
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

    let mut events: Vec<(usize, u64, String)> = Vec::new();
    for span in sink.spans() {
        let tid = tid_of(&span.track);
        events.push((
            tid,
            span.start,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"txn\"}}",
                tid,
                span.start,
                span.end.saturating_sub(span.start).max(1),
                escape(&span.name),
            ),
        ));
    }
    for instant in sink.instants() {
        let tid = tid_of(&instant.track);
        events.push((
            tid,
            instant.cycle,
            format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"cat\":\"event\"}}",
                tid,
                instant.cycle,
                escape(&instant.name),
            ),
        ));
    }
    events.sort();

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, track) in tracks.iter().enumerate().map(|(i, t)| (i + 1, t)) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(track)
        );
    }
    for (_, _, json) in &events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(json);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the full registry (counters, gauges, histograms, event streams)
/// as deterministic JSON for `REALM_TELEMETRY` dumps and per-run reports.
pub fn to_json_string(sink: &TelemetrySink) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (k, v) in sink.counters() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {v}", escape(k));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"gauges\": {");
    first = true;
    for (k, v) in sink.gauges() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {v}", escape(k));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"histograms\": {");
    first = true;
    for (k, h) in sink.histograms() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"median_bound\": {}, \"p99_bound\": {}, \"buckets\": [",
            escape(k),
            h.count(),
            h.sum(),
            h.max(),
            h.median_bound().unwrap_or(0),
            h.quantile_bound(0.99).unwrap_or(0),
        );
        let mut first_b = true;
        for (bucket, n) in h.buckets() {
            if !first_b {
                out.push_str(", ");
            }
            first_b = false;
            let (lo, hi) = bucket_bounds(bucket);
            let _ = write!(out, "[{lo}, {hi}, {n}]");
        }
        out.push_str("]}");
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    let _ = writeln!(out, "  \"spans\": {},", sink.spans().len());
    let _ = write!(out, "  \"instants\": [");
    first = true;
    for i in sink.instants() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {{\"track\": \"{}\", \"name\": \"{}\", \"cycle\": {}}}",
            escape(&i.track),
            escape(&i.name),
            i.cycle
        );
    }
    out.push_str(if first { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
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
