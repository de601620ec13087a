//! Diagnostics: severity, machine-readable rendering, and the report that
//! collects them.

use std::fmt;

use axi_sim::{Json, Layout};

/// How serious a finding is.
///
/// Severity calibration matters: the paper's own Fig. 6b configuration
/// *deliberately* reserves more bandwidth than the LLC can serve (8 KiB per
/// 1000 cycles against an 8 B/cycle port), so feasibility findings are
/// [`Severity::Warning`]s — real systems over-subscribe on purpose.
/// "Analyzer-clean" means **zero error-severity diagnostics**.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational: worth knowing, never actionable on its own.
    Info,
    /// Suspicious but potentially intentional (over-subscription,
    /// unaligned windows).
    Warning,
    /// A structural defect: the system cannot behave as designed.
    Error,
}

impl Severity {
    /// Lower-case label used in JSON and human output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding of the elaboration-time analyzer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable rule identifier (kebab-case, e.g. `addrmap-overlap`).
    pub rule: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Component path the finding anchors to (instance name, window name,
    /// or `chan[index]` for a wire).
    pub path: String,
    /// Human-readable explanation with the offending values.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(
        rule: &'static str,
        severity: Severity,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule,
            severity,
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.path, self.message
        )
    }
}

/// The analyzer's verdict on one system: every diagnostic, in rule order.
#[derive(Clone, Debug, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// All findings in emission order (rules run in a fixed order, so this
    /// is deterministic).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` if no error-severity findings were made (warnings and infos
    /// do not spoil cleanliness — see [`Severity`]).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Findings for one rule (golden tests key off this).
    pub fn by_rule(&self, rule: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Panics with the full report if any error-severity finding exists.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "elaboration-time analysis found {} error(s):\n{}",
            self.error_count(),
            self
        );
    }

    /// The report as a JSON value:
    ///
    /// ```json
    /// {"errors":N,"warnings":N,
    ///  "diagnostics":[{"rule":"...","severity":"...","path":"...","message":"..."}]}
    /// ```
    pub fn to_json_value(&self) -> Json {
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::obj([
                ("rule", d.rule.into()),
                ("severity", d.severity.label().into()),
                ("path", d.path.as_str().into()),
                ("message", d.message.as_str().into()),
            ])
        });
        Json::obj([
            ("errors", self.error_count().into()),
            ("warnings", self.warning_count().into()),
            ("diagnostics", Json::Arr(diagnostics.collect())),
        ])
    }

    /// [`Report::to_json_value`] rendered on one line, without whitespace.
    pub fn to_json(&self) -> String {
        self.to_json_value().render(Layout::Compact)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "clean: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        writeln!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_and_labels() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.push(Diagnostic::new("a-rule", Severity::Warning, "x", "w"));
        assert!(r.is_clean());
        r.push(Diagnostic::new("b-rule", Severity::Error, "y", "e"));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.by_rule("a-rule").len(), 1);
    }

    #[test]
    #[should_panic(expected = "elaboration-time analysis found 1 error")]
    fn assert_clean_panics_on_error() {
        let mut r = Report::new();
        r.push(Diagnostic::new("b-rule", Severity::Error, "y", "boom"));
        r.assert_clean();
    }

    #[test]
    fn json_shape_and_escaping() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            "a-rule",
            Severity::Error,
            "comp\"x\"",
            "line1\nline2",
        ));
        let j = r.to_json();
        assert!(j.starts_with("{\"errors\":1,\"warnings\":0,"));
        assert!(j.contains("\\\"x\\\""));
        assert!(j.contains("line1\\nline2"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn display_renders_every_finding() {
        let mut r = Report::new();
        r.push(Diagnostic::new("a-rule", Severity::Info, "x", "hello"));
        let s = r.to_string();
        assert!(s.contains("info[a-rule] x: hello"));
        assert!(Report::new().to_string().contains("clean"));
    }
}
