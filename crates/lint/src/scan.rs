//! Pass B: the workspace determinism lint.
//!
//! A cycle-accurate model must produce bit-identical results for
//! identical inputs; the fast-forward kernel and the parallel sweep
//! harness both rely on it. This scanner walks the workspace sources and
//! flags constructs whose behaviour can vary between runs:
//!
//! - `hashmap-iter` — `std` hash containers: their iteration order is
//!   randomized per process, so any fold or report built from one drifts
//!   between runs. Use `BTreeMap`/`BTreeSet` in sim-visible code.
//! - `wall-clock` — reading host time inside simulation code couples
//!   results to the machine. Exempt under `crates/bench/`, where
//!   wall-clock baselines are the point.
//! - `float-accum` — summing floats out of an unordered container; the
//!   result depends on accumulation order.
//!
//! Suppress a finding with a marker comment on the same or the preceding
//! line: `// lint:allow(<rule>) -- reason`. The scanner is `std`-only and
//! never executes the code it reads.
//!
//! These static rules have one runtime companion the scanner cannot
//! express: the kernel wake-hint contract (`kernel-stale-hint`, see the
//! crate docs), checked by the arena kernel on every `next_event` /
//! `backlog_event` call and reported through `Sim::contract_violations`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source-level violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Path relative to the scanned root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub text: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.text
        )
    }
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "related"];

// The needles are assembled from halves so the scanner does not flag its
// own source when run over the workspace.
const HASH_NEEDLES: &[&str] = &[concat!("Hash", "Map"), concat!("Hash", "Set")];
const CLOCK_NEEDLES: &[&str] = &[concat!("Instant", "::now"), concat!("System", "Time")];
const UNORDERED_NEEDLES: &[&str] = &[".values()", ".keys()"];
const FLOAT_SUM_NEEDLES: &[&str] = &[concat!("sum::<", "f64>"), concat!("sum::<", "f32>")];

/// `true` if `line` (or the preceding line) carries an allow marker for
/// `rule`.
fn allowed(line: &str, prev: Option<&str>, rule: &str) -> bool {
    let marker = format!("lint:allow({rule})");
    line.contains(&marker) || prev.is_some_and(|p| p.contains(&marker))
}

/// Scans one file's text; `rel` is the path recorded in violations.
pub fn scan_source(rel: &str, text: &str, out: &mut Vec<Violation>) {
    let wall_clock_exempt = rel.starts_with("crates/bench/");
    let mut prev: Option<&str> = None;
    for (i, line) in text.lines().enumerate() {
        let mut push = |rule: &'static str| {
            if !allowed(line, prev, rule) {
                out.push(Violation {
                    file: rel.to_owned(),
                    line: i + 1,
                    rule,
                    text: line.trim().to_owned(),
                });
            }
        };
        if HASH_NEEDLES.iter().any(|n| line.contains(n)) {
            push("hashmap-iter");
        }
        if !wall_clock_exempt && CLOCK_NEEDLES.iter().any(|n| line.contains(n)) {
            push("wall-clock");
        }
        if UNORDERED_NEEDLES.iter().any(|n| line.contains(n))
            && FLOAT_SUM_NEEDLES.iter().any(|n| line.contains(n))
        {
            push("float-accum");
        }
        prev = Some(line);
    }
}

/// Recursively collects `.rs` files under `root`, skipping [`SKIP_DIRS`],
/// in sorted order (deterministic across filesystems).
fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans every Rust source under `root` and returns the violations in
/// path order.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path)?;
        scan_source(&rel, &text, &mut out);
    }
    Ok(out)
}

/// Renders violations as a JSON array (same escaping rules as Pass A).
pub fn violations_to_json(violations: &[Violation]) -> String {
    let mut out = String::from("{\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"text\":\"{}\"}}",
            crate::diag::escape(&v.file),
            v.line,
            crate::diag::escape(v.rule),
            crate::diag::escape(&v.text)
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, text: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        scan_source(rel, text, &mut out);
        out
    }

    #[test]
    fn hash_containers_flagged() {
        let src = format!("use std::collections::{}{};\n", "Hash", "Map");
        let v = scan("crates/core/src/x.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hashmap-iter");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn allow_marker_suppresses_same_and_previous_line() {
        let needle = concat!("Hash", "Set");
        let same = format!("let s = {needle}::new(); // lint:allow(hashmap-iter)\n");
        assert!(scan("a.rs", &same).is_empty());
        let prev =
            format!("// lint:allow(hashmap-iter) -- test helper\nlet s = {needle}::new();\n");
        assert!(scan("a.rs", &prev).is_empty());
        // A marker for a different rule does not suppress.
        let wrong = format!("let s = {needle}::new(); // lint:allow(wall-clock)\n");
        assert_eq!(scan("a.rs", &wrong).len(), 1);
    }

    #[test]
    fn wall_clock_exempt_in_bench() {
        let src = format!("let t = {}();\n", concat!("Instant", "::now"));
        assert_eq!(scan("crates/core/src/x.rs", &src).len(), 1);
        assert!(scan("crates/bench/src/x.rs", &src).is_empty());
    }

    #[test]
    fn float_accum_needs_both_halves() {
        let bad = format!("let s: f64 = m.values().{};\n", concat!("sum::<", "f64>()"));
        assert_eq!(scan("a.rs", &bad)[0].rule, "float-accum");
        // Ordered iteration summed: fine.
        let ok = format!("let s: f64 = v.iter().{};\n", concat!("sum::<", "f64>()"));
        assert!(scan("a.rs", &ok).is_empty());
        // Unordered iteration without float sum: fine.
        assert!(scan("a.rs", "for k in m.keys() {}\n").is_empty());
    }

    #[test]
    fn json_rendering() {
        let v = vec![Violation {
            file: "a.rs".into(),
            line: 3,
            rule: "wall-clock",
            text: "bad \"line\"".into(),
        }];
        let j = violations_to_json(&v);
        assert!(j.contains("\"line\":3"));
        assert!(j.contains("\\\"line\\\""));
        assert_eq!(violations_to_json(&[]), "{\"violations\":[]}");
    }

    #[test]
    fn workspace_walk_skips_vendor() {
        let dir = std::env::temp_dir().join("realm_lint_scan_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("vendor/x")).unwrap();
        fs::create_dir_all(dir.join("src")).unwrap();
        let needle = concat!("Hash", "Map");
        fs::write(dir.join("vendor/x/lib.rs"), format!("{needle}\n")).unwrap();
        fs::write(dir.join("src/lib.rs"), format!("{needle}\n")).unwrap();
        let v = scan_workspace(&dir).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, "src/lib.rs");
        let _ = fs::remove_dir_all(&dir);
    }
}
