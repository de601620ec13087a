//! Collects every JSON report under `results/` into one Markdown document
//! (`results/SUMMARY.md`) — the measured-results appendix referenced from
//! `EXPERIMENTS.md`, regenerated in one command after a sweep.
//!
//! ```text
//! cargo run --release -p realm-bench --bin export_md
//! ```

use std::fmt::Write as _;
use std::fs;

use realm_bench::json::{self, Json};
use realm_bench::ExperimentReport;

/// Renders the kernel baseline (`BENCH_kernel.json` at the repo root, if
/// present) as a Markdown section: which kernel ran, its throughput, how
/// much work fast-forwarding elided, and the self-profiler's
/// per-component visit counts.
fn kernel_section() -> Option<String> {
    let text = fs::read_to_string("BENCH_kernel.json").ok()?;
    let doc = json::parse(&text).ok()?;
    let str_of = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let int_of = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let num_of = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);

    let mut out = String::from("## Kernel baseline\n\n");
    let _ = writeln!(
        out,
        "From `BENCH_kernel.json` (experiment `{}`, `{}` kernel, {} thread(s); \
         wall-clock numbers are machine-dependent):\n",
        str_of("experiment"),
        str_of("kernel"),
        int_of("threads"),
    );
    let _ = writeln!(out, "| cycles/s | ticks executed | cycles skipped |");
    let _ = writeln!(out, "|---|---|---|");
    let _ = writeln!(
        out,
        "| {:.2}M | {} | {} |",
        num_of("cycles_per_sec") / 1e6,
        int_of("ticks_executed"),
        int_of("cycles_skipped"),
    );
    if let Some(profile) = doc.get("profile").and_then(Json::as_arr) {
        let _ = writeln!(
            out,
            "\nSelf-profile (one representative run; `wall_ns` is 0 unless built \
             with `--features self-profile`):\n"
        );
        let _ = writeln!(out, "| component | visits | wall_ns |");
        let _ = writeln!(out, "|---|---|---|");
        for entry in profile {
            let _ = writeln!(
                out,
                "| {} | {} | {} |",
                entry.get("name").and_then(Json::as_str).unwrap_or("?"),
                entry.get("visits").and_then(Json::as_u64).unwrap_or(0),
                entry.get("wall_ns").and_then(Json::as_u64).unwrap_or(0),
            );
        }
    }
    out.push('\n');
    Some(out)
}

fn main() -> std::io::Result<()> {
    let mut reports: Vec<(String, ExperimentReport)> = Vec::new();
    for entry in fs::read_dir("results")? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = fs::read_to_string(&path)?;
            match ExperimentReport::from_json_str(&text) {
                Ok(report) => reports.push((
                    path.file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_default(),
                    report,
                )),
                Err(e) => eprintln!("skipping {}: {e}", path.display()),
            }
        }
    }
    reports.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::from(
        "# Measured results\n\nRegenerated by `scripts/reproduce.sh` followed by \
         `cargo run --release -p realm-bench --bin export_md`.\n\n",
    );
    for (_, report) in &reports {
        out.push_str(&report.to_markdown());
        out.push('\n');
    }
    if let Some(section) = kernel_section() {
        out.push_str(&section);
    }
    fs::write("results/SUMMARY.md", &out)?;
    println!(
        "wrote results/SUMMARY.md ({} reports, {} bytes)",
        reports.len(),
        out.len()
    );
    Ok(())
}
