//! Collects every JSON report under `results/` into one Markdown document
//! (`results/SUMMARY.md`) — the measured-results appendix referenced from
//! `EXPERIMENTS.md`, regenerated in one command after a sweep.
//!
//! ```text
//! cargo run --release -p realm-bench --bin export_md
//! ```

use std::fs;

use realm_bench::ExperimentReport;

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
    fs::write("results/SUMMARY.md", &out)?;
    println!(
        "wrote results/SUMMARY.md ({} reports, {} bytes)",
        reports.len(),
        out.len()
    );
    Ok(())
}
