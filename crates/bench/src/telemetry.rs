//! Telemetry distillation and export for the experiment binaries.
//!
//! Every binary harvests a [`TelemetrySink`] per sweep point (it rides
//! inside `RunResult`) and distills it two ways:
//!
//! * **Always** — a kernel-invariant [`Row`] per point via [`point_row`],
//!   stored in the report's `telemetry` section. These rows are computed
//!   unconditionally, so `results/*.json` is bit-identical whether or not
//!   any export env var is set (the CI transparency job diffs exactly
//!   that), and they only draw on component-side counters/histograms,
//!   which are bit-identical across both kernels.
//! * **Opt-in** — [`maybe_export`] dumps the full registry to
//!   `results/telemetry/<name>.json` when `REALM_TELEMETRY` is set, and a
//!   Chrome `trace_event` JSON (open it at <https://ui.perfetto.dev>) to
//!   the path named by `REALM_TRACE`. Neither dump feeds back into the
//!   deterministic reports.
//!
//! [`TelemetrySink`]: realm_telemetry::TelemetrySink

use std::path::PathBuf;

use realm_telemetry::{
    chrome_trace, to_json_string, trace_path_from_env, Histogram, TelemetrySink,
};

use crate::json::Json;
use crate::Row;

/// Whether `REALM_TELEMETRY` asks for full registry dumps. Unset, empty,
/// `0`, and `off` mean no; anything else means yes.
pub fn telemetry_from_env() -> bool {
    match std::env::var("REALM_TELEMETRY").as_deref() {
        Ok("") | Ok("0") | Ok("off") | Err(_) => false,
        Ok(_) => true,
    }
}

/// Exports the full telemetry registry if the env vars ask for it:
/// `REALM_TELEMETRY` writes `results/telemetry/<name>.json`, `REALM_TRACE`
/// writes a Chrome trace to its own value. A no-op when neither is set, so
/// binaries call it unconditionally. Export failures are reported on
/// stderr but never fail the experiment.
pub fn maybe_export(name: &str, sink: &TelemetrySink) {
    maybe_export_registry(name, sink);
    maybe_export_trace(sink);
}

/// The registry half of [`maybe_export`]: dumps the full sink to
/// `results/telemetry/<name>.json` when `REALM_TELEMETRY` is set.
pub fn maybe_export_registry(name: &str, sink: &TelemetrySink) {
    if telemetry_from_env() {
        let dir = PathBuf::from("results/telemetry");
        let path = dir.join(format!("{name}.json"));
        let write = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, to_json_string(sink)));
        match write {
            Ok(()) => eprintln!("[telemetry] wrote {}", path.display()),
            Err(e) => eprintln!("[telemetry] could not write {}: {e}", path.display()),
        }
    }
}

/// The trace half of [`maybe_export`]: writes a Chrome trace of the sink's
/// spans and instants to the path `REALM_TRACE` names, when set. Binaries
/// with a dedicated trace-demo run (fig6a) call this with that run's sink
/// instead of the sweep-wide merge.
pub fn maybe_export_trace(sink: &TelemetrySink) {
    if let Some(path) = trace_path_from_env() {
        match std::fs::write(&path, chrome_trace(sink)) {
            Ok(()) => eprintln!("[telemetry] wrote trace {}", path.display()),
            Err(e) => eprintln!("[telemetry] could not write trace {}: {e}", path.display()),
        }
    }
}

/// True when `key` is `"<component>.<signal>"` — the component-level
/// signal, not a nested per-region one like
/// `realm.core.region0.read_latency`. Component names may themselves be
/// dotted (`realm.core`), so the only exclusion is a trailing
/// `region<digits>` path segment before the signal.
fn is_component_signal(key: &str, signal: &str) -> bool {
    let Some(prefix) = key.strip_suffix(signal).and_then(|p| p.strip_suffix('.')) else {
        return false;
    };
    let last_segment = prefix.rsplit('.').next().unwrap_or(prefix);
    let is_region = last_segment
        .strip_prefix("region")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()));
    !is_region
}

/// Sums every component-level counter named `signal` (e.g. the total
/// `isolation_trips` across all REALM units in the system).
pub fn sum_counters(sink: &TelemetrySink, signal: &str) -> u64 {
    sink.counters()
        .iter()
        .filter(|(k, _)| is_component_signal(k, signal))
        .map(|(_, &v)| v)
        .sum()
}

/// Merges every component-level histogram named `signal` (e.g. all units'
/// `read_latency`) into one. Per-region histograms are excluded — they are
/// sub-samples of the component-level ones and would double-count.
pub fn merged_histogram(sink: &TelemetrySink, signal: &str) -> Histogram {
    let mut merged = Histogram::new();
    for (_, h) in sink
        .histograms()
        .iter()
        .filter(|(k, _)| is_component_signal(k, signal))
    {
        merged.merge(h);
    }
    merged
}

/// Distills one run's registry into the kernel-invariant report row for the
/// `telemetry` section: REALM regulation totals plus latency-histogram
/// bounds. Every value comes from component state (never `kernel.*`
/// counters), so the row is identical under both kernels and
/// independent of whether trace/telemetry export was armed.
pub fn point_row(label: &str, sink: &TelemetrySink) -> Row {
    let read = merged_histogram(sink, "read_latency");
    let write = merged_histogram(sink, "write_latency");
    let bound = |h: &Histogram, p: f64| h.quantile_bound(p).unwrap_or(0) as f64;
    Row::new(
        label,
        vec![
            (
                "isolation_trips",
                sum_counters(sink, "isolation_trips") as f64,
            ),
            (
                "budget_exhaustions",
                sum_counters(sink, "budget_exhaustions") as f64,
            ),
            (
                "isolated_cycles",
                sum_counters(sink, "isolated_cycles") as f64,
            ),
            ("read_lat_med", bound(&read, 0.5)),
            ("read_lat_p99", bound(&read, 0.99)),
            ("read_lat_max", read.max() as f64),
            ("write_lat_med", bound(&write, 0.5)),
            ("write_lat_p99", bound(&write, 0.99)),
        ],
    )
}

/// Per-point telemetry rows for a whole sweep, labels taken from `labels`.
pub fn point_rows<'a, L, S>(labelled: L) -> Vec<Row>
where
    L: IntoIterator<Item = (&'a str, S)>,
    S: std::borrow::Borrow<TelemetrySink>,
{
    labelled
        .into_iter()
        .map(|(label, sink)| point_row(label, sink.borrow()))
        .collect()
}

/// Validates that `text` is a well-formed Chrome `trace_event` JSON
/// document: a `traceEvents` array whose entries all carry the mandatory
/// fields for their phase (`M` metadata, `X` complete spans with `dur`,
/// `i` instants with scope `t`), with non-negative integer timestamps.
/// Used by the schema unit test and by integration checks on the traces
/// the binaries emit.
///
/// # Errors
///
/// Describes the first malformed event.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = crate::json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace missing `traceEvents` array")?;
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| format!("event {i} missing `{key}`"))
        };
        let str_field = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("event {i} `{key}` is not a string"))
        };
        let int_field = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("event {i} `{key}` is not a non-negative integer"))
        };
        let ph = str_field("ph")?;
        str_field("name")?;
        int_field("pid")?;
        int_field("tid")?;
        match ph.as_str() {
            "M" => {
                // Thread-name metadata: args.name carries the track label.
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("metadata event {i} missing `args.name`"))?;
            }
            "X" => {
                int_field("ts")?;
                int_field("dur")?;
            }
            "i" => {
                int_field("ts")?;
                let scope = str_field("s")?;
                if scope != "t" && scope != "p" && scope != "g" {
                    return Err(format!("instant event {i} has invalid scope `{scope}`"));
                }
            }
            other => return Err(format!("event {i} has unsupported phase `{other}`")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sink() -> TelemetrySink {
        let mut sink = TelemetrySink::new();
        sink.counter("core_realm.isolation_trips", 2);
        sink.counter("dma_realm.isolation_trips", 3);
        sink.counter("dma_realm.budget_exhaustions", 3);
        sink.counter("core_realm.isolated_cycles", 0);
        sink.counter("kernel.contract_violations", 7); // must be ignored
        for v in [1, 2, 4, 8, 100] {
            sink.record("core_realm.read_latency", v);
        }
        sink.record("core_realm.region0.read_latency", 1_000_000); // excluded
        sink.record("dma_realm.write_latency", 6);
        sink.span("core", "read", 10, 20);
        sink.instant("dma_realm", "isolation-trip", 15);
        sink
    }

    #[test]
    fn component_signal_matching_skips_regions() {
        assert!(is_component_signal(
            "core_realm.read_latency",
            "read_latency"
        ));
        // Dotted component names (the SoC testbench's `realm.core`) match.
        assert!(is_component_signal(
            "realm.core.read_latency",
            "read_latency"
        ));
        assert!(!is_component_signal(
            "realm.core.region0.read_latency",
            "read_latency"
        ));
        // A bare signal name has no component prefix.
        assert!(!is_component_signal("read_latency", "read_latency"));
        // Mid-segment suffixes are not matches.
        assert!(!is_component_signal("unit.xread_latency", "read_latency"));
    }

    #[test]
    fn point_row_distills_kernel_invariant_signals() {
        let row = point_row("frag=1", &demo_sink());
        assert_eq!(row.label, "frag=1");
        let get = |k: &str| {
            row.values
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("isolation_trips"), 5.0);
        assert_eq!(get("budget_exhaustions"), 3.0);
        assert_eq!(get("isolated_cycles"), 0.0);
        // Region sub-histograms stay out: max comes from the component-level
        // samples (100), not the 1e6 region outlier.
        assert_eq!(get("read_lat_max"), 100.0);
        assert_eq!(get("write_lat_med"), 6.0);
        // `kernel.*` counters never surface in the row.
        assert!(row.values.iter().all(|(k, _)| !k.contains("contract")));
    }

    #[test]
    fn exported_chrome_trace_passes_schema_validation() {
        let text = chrome_trace(&demo_sink());
        validate_chrome_trace(&text).unwrap();
        assert!(
            text.contains("\"ph\": \"X\"") || text.contains("\"ph\":\"X\""),
            "{text}"
        );
        assert!(text.contains("isolation-trip"), "{text}");
    }

    #[test]
    fn schema_validation_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": [{"ph": "X"}]}"#).is_err());
        let bad_scope = r#"{"traceEvents": [{"ph": "i", "name": "e", "pid": 1,
                            "tid": 1, "ts": 5, "s": "z"}]}"#;
        assert!(validate_chrome_trace(bad_scope)
            .unwrap_err()
            .contains("invalid scope"));
        let bad_phase = r#"{"traceEvents": [{"ph": "Q", "name": "e", "pid": 1,
                            "tid": 1}]}"#;
        assert!(validate_chrome_trace(bad_phase)
            .unwrap_err()
            .contains("unsupported phase"));
    }

    #[test]
    fn env_gates_parse_off_values() {
        // Serialized against other env-reading tests by running in one
        // process; set/restore around each check.
        for off in ["", "0", "off"] {
            std::env::set_var("REALM_TELEMETRY", off);
            assert!(!telemetry_from_env(), "REALM_TELEMETRY={off:?}");
            std::env::set_var("REALM_TRACE", off);
            assert!(trace_path_from_env().is_none(), "REALM_TRACE={off:?}");
        }
        std::env::set_var("REALM_TELEMETRY", "1");
        assert!(telemetry_from_env());
        std::env::set_var("REALM_TRACE", "/tmp/out.json");
        assert_eq!(trace_path_from_env(), Some(PathBuf::from("/tmp/out.json")));
        std::env::remove_var("REALM_TELEMETRY");
        std::env::remove_var("REALM_TRACE");
        assert!(!telemetry_from_env());
        assert!(trace_path_from_env().is_none());
    }
}
