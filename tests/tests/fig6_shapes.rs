//! End-to-end regression of the paper's headline result shapes (Fig. 6).
//!
//! These are the workspace's most important tests: if any substrate or the
//! REALM unit regresses, the qualitative claims of the paper stop holding
//! and these assertions fire.

use cheshire_soc::experiments::{
    single_source, with_budget, with_fragmentation, without_reservation,
};

const N: u64 = 250;

#[test]
fn headline_chain_collapse_and_recovery() {
    let base = single_source(N);
    let worst = without_reservation(N);
    let frag1 = with_fragmentation(1, N);

    // Single-source envelope: the paper's "at most eight cycles" (our
    // kernel pays one extra hop per direction through the REALM unit).
    assert_eq!(base.core_latency.count(), N);
    assert!(
        base.core_latency.max() <= 10,
        "single-source latency {:?}",
        base.core_latency
    );

    // Collapse: a few percent of single-source, min latency >= one burst.
    let worst_pct = worst.performance_pct(&base);
    assert!(worst_pct < 5.0, "uncontrolled perf {worst_pct:.2}%");
    assert!(
        worst.core_latency.min() >= 250,
        "every access waits behind at least one full burst: {:?}",
        worst.core_latency
    );

    // Recovery at fragmentation 1: most of the performance, latency within
    // a few cycles of single-source.
    let frag1_pct = frag1.performance_pct(&base);
    assert!(frag1_pct > 60.0, "frag=1 perf {frag1_pct:.2}%");
    assert!(
        frag1.core_latency.mean().unwrap() < base.core_latency.mean().unwrap() + 6.0,
        "frag=1 mean latency {:?} vs base {:?}",
        frag1.core_latency.mean(),
        base.core_latency.mean()
    );
}

#[test]
fn fig6a_perf_monotone_in_fragmentation() {
    let base = single_source(N);
    let sweep = [256u16, 64, 16, 4, 1];
    let perf: Vec<f64> = sweep
        .iter()
        .map(|&f| with_fragmentation(f, N).performance_pct(&base))
        .collect();
    for pair in perf.windows(2) {
        assert!(
            pair[1] > pair[0],
            "finer fragmentation must improve performance: {perf:?}"
        );
    }
}

#[test]
fn fig6a_frag256_equals_no_reservation() {
    // The paper: granularity 256 "lets all bursts pass without
    // fragmentation (corresponds to the uncontrolled scenario)".
    let worst = without_reservation(N);
    let frag256 = with_fragmentation(256, N);
    let ratio = worst.cycles as f64 / frag256.cycles as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "frag=256 must match no-reservation: {} vs {}",
        frag256.cycles,
        worst.cycles
    );
}

#[test]
fn fig6b_perf_monotone_in_budget_skew() {
    let base = single_source(N);
    let perf: Vec<f64> = [1u64, 2, 3, 4, 5]
        .iter()
        .map(|&d| with_budget(8 * 1024 / d, N).performance_pct(&base))
        .collect();
    for pair in perf.windows(2) {
        assert!(
            pair[1] >= pair[0] - 1.0,
            "shrinking the DMA budget must help the core: {perf:?}"
        );
    }
    assert!(
        perf[4] > 85.0,
        "1/5 budget should be near-ideal, got {:.1}%",
        perf[4]
    );
    assert!(perf[4] > perf[0], "sweep must improve overall: {perf:?}");
}

#[test]
fn fig6b_dma_throughput_falls_with_budget() {
    let full = with_budget(8 * 1024, N);
    let fifth = with_budget(8 * 1024 / 5, N);
    let bw_full = full.dma_bytes as f64 / full.cycles as f64;
    let bw_fifth = fifth.dma_bytes as f64 / fifth.cycles as f64;
    assert!(
        bw_fifth < bw_full * 0.5,
        "1/5 budget must throttle the DMA: {bw_fifth:.2} vs {bw_full:.2} B/cycle"
    );
}
