//! Tabular experiment reporting: aligned console tables plus JSON dumps.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::json::{self, Json};

/// One row of an experiment table: a label plus named numeric columns.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Row label (e.g. the fragmentation size or budget ratio).
    pub label: String,
    /// `(column name, value)` pairs, in column order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row from a label and `(column, value)` pairs.
    pub fn new<L: Into<String>>(label: L, values: Vec<(&str, f64)>) -> Self {
        Self {
            label: label.into(),
            values: values.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        }
    }

    fn to_json(&self) -> Json {
        let values = self
            .values
            .iter()
            .map(|(k, v)| Json::Arr(vec![k.as_str().into(), Json::Num(*v)]));
        Json::obj([
            ("label", self.label.as_str().into()),
            ("values", Json::Arr(values.collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let label = v
            .get("label")
            .and_then(Json::as_str)
            .ok_or("row missing `label`")?
            .to_owned();
        let values = v
            .get("values")
            .and_then(Json::as_arr)
            .ok_or("row missing `values`")?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr().ok_or("value entry is not a pair")?;
                match pair {
                    // Int covers hand-edited or integer-formatted files; our
                    // own writer emits Num for row values.
                    [Json::Str(k), n] => n
                        .as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| "value entry is not [name, number]".to_owned()),
                    _ => Err("value entry is not [name, number]".to_owned()),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { label, values })
    }
}

/// An experiment's rendered result: title, column set, rows, and notes,
/// plus deterministic kernel `runtime` counters from the sweep harness.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentReport {
    /// Experiment identifier (e.g. "Fig. 6a").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Free-form notes (paper reference values, caveats).
    pub notes: Vec<String>,
    /// Per-point simulated cycle counts from the sweep harness. They are
    /// identical under every kernel, unlike wall-clock and the
    /// executed/skipped split, so they live in the report; wall-clock goes
    /// only to stdout and the benchmark.
    pub runtime: Vec<Row>,
    /// Per-point component telemetry (isolation trips, latency-histogram
    /// bounds, …) distilled from each run's [`TelemetrySink`] registry.
    /// Only kernel-invariant component-side signals belong here — the CI
    /// kernel-equivalence job diffs these files across both kernels,
    /// and the transparency job diffs them with telemetry export on vs.
    /// off, so the rows must not depend on `REALM_TELEMETRY`/`REALM_TRACE`
    /// or on which kernel ran.
    ///
    /// [`TelemetrySink`]: realm_telemetry::TelemetrySink
    pub telemetry: Vec<Row>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new<I: Into<String>, T: Into<String>>(id: I, title: T) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            rows: Vec::new(),
            notes: Vec::new(),
            runtime: Vec::new(),
            telemetry: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn note<S: Into<String>>(&mut self, note: S) {
        self.notes.push(note.into());
    }

    /// Renders the report as an aligned console table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        if self.rows.is_empty() {
            let _ = writeln!(out, "(no rows)");
        } else {
            let cols: Vec<&str> = self.rows[0]
                .values
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let label_w = self
                .rows
                .iter()
                .map(|r| r.label.len())
                .max()
                .unwrap_or(0)
                .max(8);
            let _ = write!(out, "{:label_w$}", "");
            for c in &cols {
                let _ = write!(out, "  {c:>14}");
            }
            let _ = writeln!(out);
            for row in &self.rows {
                let _ = write!(out, "{:label_w$}", row.label);
                for (_, v) in &row.values {
                    if v.fract() == 0.0 && v.abs() < 1e12 {
                        let _ = write!(out, "  {:>14}", *v as i64);
                    } else {
                        let _ = write!(out, "  {v:>14.2}");
                    }
                }
                let _ = writeln!(out);
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Renders one column as a horizontal ASCII bar chart, scaled to the
    /// column's maximum — a quick visual check of a sweep's shape without
    /// leaving the terminal.
    ///
    /// Rows lacking the column are skipped; an unknown column yields a
    /// note-only chart.
    pub fn render_chart(&self, column: &str, width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "-- {} ({column}) --", self.id);
        let values: Vec<(&str, f64)> = self
            .rows
            .iter()
            .filter_map(|r| {
                r.values
                    .iter()
                    .find(|(k, _)| k == column)
                    .map(|(_, v)| (r.label.as_str(), *v))
            })
            .collect();
        let max = values.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        if values.is_empty() || max <= 0.0 {
            let _ = writeln!(out, "(no data)");
            return out;
        }
        let label_w = values.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, value) in values {
            let bar = ((value / max) * width as f64).round().max(0.0) as usize;
            let _ = writeln!(out, "{label:label_w$} |{} {value:.2}", "#".repeat(bar));
        }
        out
    }

    /// Renders the report as a GitHub-flavoured Markdown table (used to
    /// paste measured results into `EXPERIMENTS.md`).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = writeln!(out);
        if let Some(first) = self.rows.first() {
            let _ = write!(out, "| |");
            for (k, _) in &first.values {
                let _ = write!(out, " {k} |");
            }
            let _ = writeln!(out);
            let _ = write!(out, "|---|");
            for _ in &first.values {
                let _ = write!(out, "---|");
            }
            let _ = writeln!(out);
            for row in &self.rows {
                let _ = write!(out, "| {} |", row.label);
                for (_, v) in &row.values {
                    if v.fract() == 0.0 && v.abs() < 1e12 {
                        let _ = write!(out, " {} |", *v as i64);
                    } else {
                        let _ = write!(out, " {v:.2} |");
                    }
                }
                let _ = writeln!(out);
            }
        }
        if !self.telemetry.is_empty() {
            let _ = writeln!(out, "\nTelemetry (kernel-invariant, per point):\n");
            if let Some(first) = self.telemetry.first() {
                let _ = write!(out, "| |");
                for (k, _) in &first.values {
                    let _ = write!(out, " {k} |");
                }
                let _ = writeln!(out);
                let _ = write!(out, "|---|");
                for _ in &first.values {
                    let _ = write!(out, "---|");
                }
                let _ = writeln!(out);
                for row in &self.telemetry {
                    let _ = write!(out, "| {} |", row.label);
                    for (_, v) in &row.values {
                        if v.fract() == 0.0 && v.abs() < 1e12 {
                            let _ = write!(out, " {} |", *v as i64);
                        } else {
                            let _ = write!(out, " {v:.2} |");
                        }
                    }
                    let _ = writeln!(out);
                }
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n> {note}");
        }
        out
    }

    /// The report as a JSON value (field order matches the files the seed's
    /// serde derive produced, with `runtime` appended).
    pub fn to_json(&self) -> Json {
        let rows = |rows: &[Row]| Json::Arr(rows.iter().map(Row::to_json).collect());
        Json::obj([
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            ("rows", rows(&self.rows)),
            ("notes", Json::arr(self.notes.iter().map(String::as_str))),
            ("runtime", rows(&self.runtime)),
            ("telemetry", rows(&self.telemetry)),
        ])
    }

    /// Rebuilds a report from a parsed JSON value.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field_str = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("report missing `{key}`"))
        };
        let rows = |key: &str| {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(Row::from_json)
                .collect::<Result<Vec<Row>, String>>()
        };
        Ok(Self {
            id: field_str("id")?,
            title: field_str("title")?,
            rows: v
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or("report missing `rows`")?
                .iter()
                .map(Row::from_json)
                .collect::<Result<_, String>>()?,
            notes: v
                .get("notes")
                .and_then(Json::as_arr)
                .ok_or("report missing `notes`")?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "note is not a string".to_owned())
                })
                .collect::<Result<_, String>>()?,
            // Absent in files written before the sweep harness existed.
            runtime: rows("runtime")?,
            // Absent in files written before the telemetry registry existed.
            telemetry: rows("telemetry")?,
        })
    }

    /// Parses a report from JSON text.
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors or missing fields.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text)?)
    }

    /// Writes the report as JSON next to the printed table.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        fs::write(path, self.to_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut rep = ExperimentReport::new("Fig. 6a", "fragmentation sweep");
        rep.push(Row::new("256", vec![("perf_pct", 0.7), ("max_lat", 264.0)]));
        rep.push(Row::new("1", vec![("perf_pct", 68.2), ("max_lat", 10.0)]));
        rep.note("paper: 0.7% → 68.2%");
        let text = rep.render();
        assert!(text.contains("Fig. 6a"));
        assert!(text.contains("perf_pct"));
        assert!(text.contains("68.20"));
        assert!(text.contains("note: paper"));
    }

    #[test]
    fn integers_render_without_decimals() {
        let mut rep = ExperimentReport::new("T", "t");
        rep.push(Row::new("r", vec![("count", 42.0)]));
        assert!(rep.render().contains("42"));
        assert!(!rep.render().contains("42.00"));
    }

    #[test]
    fn markdown_has_header_and_rows() {
        let mut rep = ExperimentReport::new("Fig. X", "demo");
        rep.push(Row::new("a", vec![("perf", 81.53), ("n", 3.0)]));
        rep.note("a note");
        let md = rep.to_markdown();
        assert!(md.contains("### Fig. X — demo"));
        assert!(md.contains("| | perf | n |"));
        assert!(md.contains("| a | 81.53 | 3 |"));
        assert!(md.contains("> a note"));
    }

    #[test]
    fn chart_scales_to_max() {
        let mut rep = ExperimentReport::new("C", "chart");
        rep.push(Row::new("a", vec![("perf", 50.0)]));
        rep.push(Row::new("b", vec![("perf", 100.0)]));
        let chart = rep.render_chart("perf", 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[1].contains("#####"), "{chart}");
        assert!(lines[2].contains("##########"), "{chart}");
        assert!(lines[1].matches('#').count() < lines[2].matches('#').count());
    }

    #[test]
    fn chart_handles_missing_column() {
        let mut rep = ExperimentReport::new("C", "chart");
        rep.push(Row::new("a", vec![("x", 1.0)]));
        assert!(rep.render_chart("nope", 10).contains("(no data)"));
        assert!(ExperimentReport::new("E", "e")
            .render_chart("x", 10)
            .contains("(no data)"));
    }

    #[test]
    fn json_roundtrip() {
        let mut rep = ExperimentReport::new("X", "x");
        rep.push(Row::new("a", vec![("v", 1.5)]));
        rep.note("n");
        rep.runtime
            .push(Row::new("a", vec![("ticks_executed", 10.0)]));
        rep.telemetry
            .push(Row::new("a", vec![("isolation_trips", 2.0)]));
        let dir = std::env::temp_dir().join("realm_report_test.json");
        rep.write_json(&dir).unwrap();
        let text = std::fs::read_to_string(&dir).unwrap();
        assert!(text.contains("\"id\": \"X\""));
        assert_eq!(ExperimentReport::from_json_str(&text).unwrap(), rep);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn json_without_runtime_section_still_parses() {
        // Files written before the sweep harness existed lack `runtime`.
        let text = r#"{
  "id": "Fig. 6a",
  "title": "t",
  "rows": [{ "label": "256", "values": [["perf_pct", 0.7]] }],
  "notes": ["legacy"]
}"#;
        let rep = ExperimentReport::from_json_str(text).unwrap();
        assert_eq!(rep.id, "Fig. 6a");
        assert_eq!(rep.rows[0].values[0], ("perf_pct".to_owned(), 0.7));
        assert!(rep.runtime.is_empty());
        assert!(rep.telemetry.is_empty());
    }
}
