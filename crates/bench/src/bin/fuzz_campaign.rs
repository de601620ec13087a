//! Coverage-guided fuzzing campaign with the differential bandwidth-bound
//! oracle, executed on the parallel sweep workers.
//!
//! The campaign driver ([`realm_fuzz::Campaign`]) is a deterministic batch
//! state machine: it schedules a batch of specs, this binary fans the batch
//! out through `run_sweep` (results return in input order, so the
//! trajectory is bit-identical to a serial run), and feeds the outcomes
//! back. Seeds come from `tests/corpus/*.txt` when present, so every key
//! in the checked-in coverage baseline is reachable in round 0 regardless
//! of the time box.
//!
//! Environment knobs:
//!
//! - `REALM_FUZZ_SECONDS` — wall-clock box for mutation rounds (default 5;
//!   round 0 always runs).
//! - `REALM_FUZZ_SEED` — campaign master seed (default `0xF0CC`).
//! - `REALM_FUZZ_BATCH` — specs per mutation round (default 16).
//! - `REALM_SWEEP_THREADS` — worker count (default: all cores).
//! - `REALM_FUZZ_WRITE_BASELINE=1` — rewrite
//!   `tests/corpus/coverage_baseline.txt` from this run's round-0 coverage
//!   and exit (use after adding corpus entries).
//!
//! A numeric knob that does not parse, or is out of range, stops the
//! campaign with a message naming the variable and the value.
//!
//! Writes `results/fuzz_campaign.json` and exits nonzero on any oracle
//! violation, conformance violation, unfinished run, or baseline coverage
//! key this campaign failed to reach.
//!
//! ```text
//! cargo run --release -p realm-bench --bin fuzz_campaign
//! ```

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use realm_bench::json::Json;
use realm_bench::run_sweep;
use realm_bench::sweep::env_knob;
use realm_fuzz::{Campaign, CampaignConfig, SystemSpec};

const CORPUS_DIR: &str = "tests/corpus";
const BASELINE_PATH: &str = "tests/corpus/coverage_baseline.txt";
const RESULTS_PATH: &str = "results/fuzz_campaign.json";

/// Corpus seeds, sorted by file name for a deterministic round 0; the
/// built-in baselines when the corpus directory is missing or empty.
fn load_seeds() -> Vec<(String, SystemSpec)> {
    let mut entries: Vec<(String, SystemSpec)> = Vec::new();
    if let Ok(dir) = std::fs::read_dir(CORPUS_DIR) {
        let mut paths: Vec<_> = dir
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|e| e == "txt")
                    && p.file_name().is_some_and(|n| n != "coverage_baseline.txt")
            })
            .collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let spec = SystemSpec::parse(&text)
                .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
            entries.push((name, spec));
        }
    }
    if entries.is_empty() {
        entries = [0xA11CE_u64, 0xB0B, 0xC0FFEE]
            .iter()
            .map(|&s| (format!("builtin-{s:#x}"), SystemSpec::baseline(s)))
            .collect();
    }
    entries
}

/// Baseline coverage keys (one per line, `#` comments), if checked in.
fn load_baseline() -> Option<BTreeSet<String>> {
    let text = std::fs::read_to_string(BASELINE_PATH).ok()?;
    Some(
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_owned)
            .collect(),
    )
}

fn main() {
    let seconds = env_knob("REALM_FUZZ_SECONDS", "a number of seconds", |s: &f64| {
        s.is_finite() && *s >= 0.0
    })
    .unwrap_or(5.0);
    let cfg = CampaignConfig {
        seed: env_knob("REALM_FUZZ_SEED", "a decimal seed", |_| true).unwrap_or(0xF0CC),
        batch: env_knob("REALM_FUZZ_BATCH", "a positive batch size", |&n| n > 0).unwrap_or(16),
        guided: true,
    };

    let seeds = load_seeds();
    println!(
        "fuzz-campaign: {} seeds ({}), batch {}, seed {:#x}, {seconds}s box",
        seeds.len(),
        seeds
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        cfg.batch,
        cfg.seed,
    );

    let mut campaign = Campaign::new(cfg.clone(), seeds.iter().map(|(_, s)| s.clone()).collect());
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut threads;
    let mut round0_keys: BTreeSet<String> = BTreeSet::new();

    // Round 0 (the seeds) always runs; mutation rounds fill the time box.
    loop {
        let batch = campaign.next_batch();
        let outcome = run_sweep(batch.clone(), |spec| {
            let run = realm_fuzz::run_spec(spec);
            let kernel = run.kernel;
            (run, kernel)
        });
        threads = outcome.threads;
        campaign.absorb(outcome.results);
        if round0_keys.is_empty() {
            round0_keys = campaign.seen_keys().clone();
        }
        // Log rounds that moved the coverage frontier (plus a heartbeat
        // every 100) — a long campaign has thousands of silent rounds.
        let round = campaign.curve().len() - 1;
        let last = campaign.curve().last().expect("absorbed at least once");
        let moved = campaign.curve().len() < 2
            || last.keys > campaign.curve()[campaign.curve().len() - 2].keys;
        if moved || round.is_multiple_of(100) {
            println!(
                "  round {round:>4}: {:>6} runs, {:>3} keys, corpus {:>3}, {:>5} checked",
                last.runs,
                last.keys,
                campaign.corpus().len(),
                campaign.oracle_checked(),
            );
        }
        if start.elapsed() >= deadline {
            break;
        }
    }
    let wall = start.elapsed();

    if std::env::var("REALM_FUZZ_WRITE_BASELINE").is_ok_and(|v| v == "1") {
        let mut out = String::from(
            "# Coverage keys reached by replaying tests/corpus/*.txt (campaign round 0).\n\
             # Regenerate: REALM_FUZZ_WRITE_BASELINE=1 cargo run --release -p realm-bench --bin fuzz_campaign\n",
        );
        for key in &round0_keys {
            out.push_str(key);
            out.push('\n');
        }
        std::fs::write(BASELINE_PATH, out).expect("write coverage baseline");
        println!(
            "wrote {} round-0 coverage keys to {BASELINE_PATH}",
            round0_keys.len()
        );
        return;
    }

    let baseline = load_baseline();
    let missing: Vec<String> = baseline
        .as_ref()
        .map(|b| {
            b.iter()
                .filter(|k| !campaign.seen_keys().contains(*k))
                .cloned()
                .collect()
        })
        .unwrap_or_default();

    let curve = campaign
        .curve()
        .iter()
        .map(|p| Json::obj([("runs", p.runs.into()), ("keys", p.keys.into())]));
    let violations = campaign.violations().iter().map(|v| {
        Json::obj([
            ("manager", v.check.manager.into()),
            ("bound", v.check.bound.into()),
            ("finish", v.check.finish.into()),
            ("spec", v.spec.to_text().into()),
            ("minimized", v.minimized.to_text().into()),
        ])
    });
    let doc = Json::obj([
        ("experiment", "fuzz-campaign".into()),
        ("seed", cfg.seed.into()),
        ("batch", cfg.batch.into()),
        ("guided", Json::Bool(true)),
        ("threads", threads.into()),
        ("seconds_budget", Json::Num(seconds)),
        ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
        ("rounds", campaign.curve().len().into()),
        ("runs", campaign.runs().into()),
        ("coverage_keys", campaign.coverage_keys().into()),
        ("round0_keys", round0_keys.len().into()),
        ("corpus_size", campaign.corpus().len().into()),
        ("feasible_runs", campaign.feasible_runs().into()),
        ("oracle_checked", campaign.oracle_checked().into()),
        ("oracle_violations", campaign.violations().len().into()),
        (
            "conformance_violations",
            campaign.conformance_violations().into(),
        ),
        ("unfinished_runs", campaign.unfinished_runs().into()),
        (
            "baseline_keys",
            baseline.as_ref().map_or(Json::Null, |b| b.len().into()),
        ),
        ("baseline_missing", Json::arr(missing.iter().cloned())),
        ("curve", Json::Arr(curve.collect())),
        ("violations", Json::Arr(violations.collect())),
    ]);
    let _ = std::fs::create_dir_all("results");
    if let Err(e) = std::fs::write(RESULTS_PATH, doc.pretty()) {
        eprintln!("could not write {RESULTS_PATH}: {e}");
    }

    println!(
        "fuzz-campaign: {} runs over {} rounds in {:.1}s ({threads} workers): \
         {} coverage keys, corpus {}, {} bound checks, {} feasible runs",
        campaign.runs(),
        campaign.curve().len(),
        wall.as_secs_f64(),
        campaign.coverage_keys(),
        campaign.corpus().len(),
        campaign.oracle_checked(),
        campaign.feasible_runs(),
    );

    let mut failed = false;
    if !campaign.violations().is_empty() {
        failed = true;
        eprintln!(
            "FAIL: {} oracle violation(s) — minimized reproducers in {RESULTS_PATH}",
            campaign.violations().len()
        );
        for v in campaign.violations() {
            eprintln!(
                "  manager {} finished at {} > bound {}; minimized:\n{}",
                v.check.manager,
                v.check.finish,
                v.check.bound,
                v.minimized.to_text()
            );
        }
    }
    if campaign.conformance_violations() > 0 {
        failed = true;
        eprintln!(
            "FAIL: {} protocol-monitor violation(s)",
            campaign.conformance_violations()
        );
    }
    if campaign.unfinished_runs() > 0 {
        failed = true;
        eprintln!(
            "FAIL: {} run(s) hit the {}-cycle cap",
            campaign.unfinished_runs(),
            realm_fuzz::MAX_RUN_CYCLES
        );
    }
    match &baseline {
        Some(b) if !missing.is_empty() => {
            failed = true;
            eprintln!(
                "FAIL: coverage regressed vs {BASELINE_PATH}: {} of {} baseline keys unreached:",
                missing.len(),
                b.len()
            );
            for key in &missing {
                eprintln!("  {key}");
            }
        }
        Some(b) => println!(
            "coverage holds the baseline: all {} keys reached (+{} beyond)",
            b.len(),
            campaign.coverage_keys() - b.len() as u64
        ),
        None => println!("no {BASELINE_PATH}; skipping the coverage floor check"),
    }
    if failed {
        std::process::exit(1);
    }
}
