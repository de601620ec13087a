//! Preset experiment configurations reproducing the paper's evaluation
//! scenarios (§IV-A).

use axi4::Addr;
use axi_realm::{RegionConfig, RuntimeConfig};

use crate::testbench::{
    Regulation, RunResult, Testbench, TestbenchConfig, DMA_LLC_BUFFER, DMA_LLC_BUFFER_SIZE,
    LLC_BASE, LLC_SIZE, SPM_BASE, SPM_SIZE,
};

/// Default number of core accesses per experiment run: large enough for
/// stable averages, small enough for quick iteration.
pub const DEFAULT_ACCESSES: u64 = 2_000;

/// Safety bound on simulated cycles per run.
pub const MAX_CYCLES: u64 = 50_000_000;

fn run(config: TestbenchConfig) -> RunResult {
    let mut tb = Testbench::new(config);
    assert!(
        tb.run_until_core_done(MAX_CYCLES),
        "experiment exceeded {MAX_CYCLES} cycles"
    );
    // Every published number must come from protocol-legal traffic.
    tb.assert_conformance();
    tb.result()
}

/// A runtime configuration regulating the LLC window with the given budget
/// and period (budget 0 = monitor only).
pub fn llc_regulation(frag_len: u16, budget: u64, period: u64) -> RuntimeConfig {
    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = frag_len;
    rt.regions[0] = RegionConfig {
        base: LLC_BASE,
        size: LLC_SIZE,
        budget_max: budget,
        period,
    };
    // Second region: the scratchpad, monitored but unregulated (the paper
    // uses only the LLC region in its evaluation).
    rt.regions[1] = RegionConfig {
        base: SPM_BASE,
        size: SPM_SIZE,
        budget_max: 0,
        period: 0,
    };
    rt
}

/// *Single-source* baseline (grey dashed line of Fig. 6): the core alone.
///
/// As in the paper's SoC, the REALM unit is *present* in the baseline —
/// it is synthesized into Cheshire and CVA6's accesses traverse it — but
/// exercises no regulation (no budgets, pass-through granularity). The
/// paper's eight-cycle single-source bound includes the unit's latency.
pub fn single_source(accesses: u64) -> RunResult {
    let mut cfg = TestbenchConfig::single_source(accesses);
    cfg.core_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
    run(cfg)
}

/// *Without reservation*: worst-case DMA contention with the REALM units
/// present but not regulating (equivalent to fragmentation 256, the
/// leftmost point of Fig. 6a).
pub fn without_reservation(accesses: u64) -> RunResult {
    let mut cfg = TestbenchConfig::single_source(accesses);
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.core_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
    cfg.dma_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
    run(cfg)
}

/// Fig. 6a point: REALM units on both managers at the given fragmentation
/// length, equal (unbounded) budgets and a very large period, isolating the
/// effect of fragmentation on fairness.
pub fn with_fragmentation(frag_len: u16, accesses: u64) -> RunResult {
    let mut cfg = TestbenchConfig::single_source(accesses);
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.core_regulation = Regulation::Realm(llc_regulation(frag_len, 0, 0));
    cfg.dma_regulation = Regulation::Realm(llc_regulation(frag_len, 0, 0));
    run(cfg)
}

/// Fig. 6b point: fragmentation fixed at one beat, period 1000 cycles, core
/// budget 8 KiB, DMA budget as given (the paper sweeps 8.0 → 1.6 KiB).
pub fn with_budget(dma_budget: u64, accesses: u64) -> RunResult {
    const PERIOD: u64 = 1000;
    const CORE_BUDGET: u64 = 8 * 1024;
    let mut cfg = TestbenchConfig::single_source(accesses);
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.core_regulation = Regulation::Realm(llc_regulation(1, CORE_BUDGET, PERIOD));
    cfg.dma_regulation = Regulation::Realm(llc_regulation(1, dma_budget, PERIOD));
    run(cfg)
}

/// The Fig. 6b x-axis: DMA budgets from 8 KiB (1/1) down to 1.6 KiB (1/5)
/// in equal steps.
pub fn budget_sweep_points() -> Vec<(String, u64)> {
    (1..=5).map(|d| (format!("1/{d}"), 8 * 1024 / d)).collect()
}

/// The Fig. 6a x-axis: fragmentation lengths from full bursts down to a
/// single beat.
pub fn fragmentation_sweep_points() -> Vec<u16> {
    vec![256, 128, 64, 32, 16, 8, 4, 2, 1]
}

/// Returns the LLC-side double-buffer region (useful for custom DMA
/// configurations in examples).
pub fn dma_llc_region() -> (Addr, u64) {
    (DMA_LLC_BUFFER, DMA_LLC_BUFFER_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 300;

    #[test]
    fn single_source_latency_envelope() {
        let r = single_source(N);
        assert_eq!(r.core_latency.count(), N);
        assert!(r.core_latency.max() <= 10, "{:?}", r.core_latency);
    }

    /// The paper's qualitative chain: uncontrolled contention collapses
    /// performance; fragmentation at one beat restores most of it.
    #[test]
    fn contention_collapse_and_recovery() {
        let base = single_source(N);
        let worst = without_reservation(N);
        let frag1 = with_fragmentation(1, N);

        let worst_pct = worst.performance_pct(&base);
        let frag1_pct = frag1.performance_pct(&base);
        assert!(worst_pct < 5.0, "uncontrolled perf {worst_pct:.1}%");
        assert!(
            frag1_pct > 40.0,
            "frag=1 must recover most performance, got {frag1_pct:.1}%"
        );
        assert!(worst.core_latency.max() >= 256);
        assert_eq!(frag1.core_latency.count(), N);
        assert!(
            frag1.core_latency.max() < 40,
            "frag=1 worst-case latency {:?}",
            frag1.core_latency.max()
        );
    }

    #[test]
    fn fragmentation_is_monotone_in_the_large() {
        let base = single_source(N);
        let coarse = with_fragmentation(256, N).performance_pct(&base);
        let mid = with_fragmentation(16, N).performance_pct(&base);
        let fine = with_fragmentation(1, N).performance_pct(&base);
        assert!(fine > mid, "fine {fine:.1}% vs mid {mid:.1}%");
        assert!(mid > coarse, "mid {mid:.1}% vs coarse {coarse:.1}%");
    }

    #[test]
    fn budget_skew_approaches_ideal() {
        let base = single_source(N);
        let equal = with_budget(8 * 1024, N).performance_pct(&base);
        let skewed = with_budget(8 * 1024 / 5, N).performance_pct(&base);
        assert!(
            skewed > equal,
            "reducing the DMA budget must help the core: {skewed:.1}% vs {equal:.1}%"
        );
        assert!(
            skewed > 80.0,
            "1/5 budget should be near-ideal: {skewed:.1}%"
        );
    }

    #[test]
    fn sweep_point_lists() {
        assert_eq!(fragmentation_sweep_points().len(), 9);
        let budgets = budget_sweep_points();
        assert_eq!(budgets.len(), 5);
        assert_eq!(budgets[0].1, 8192);
        assert_eq!(budgets[4].1, 8192 / 5);
    }

    /// Fig. 6b shape, read off the telemetry latency histograms: the
    /// core's AR→R-last median sits inside the paper's single-source
    /// envelope, blows up under uncontrolled contention, and returns
    /// near the ideal once the DMA budget is skewed to 1/5.
    #[test]
    fn latency_histogram_medians_match_fig6b_shape() {
        let median = |r: &RunResult| {
            r.telemetry
                .get_histogram("realm.core.read_latency")
                .expect("core unit records a read-latency histogram")
                .median_bound()
                .expect("core reads completed")
        };
        let base = median(&single_source(N));
        let worst = median(&without_reservation(N));
        let skewed = median(&with_budget(8 * 1024 / 5, N));
        assert!(
            base <= 8,
            "single-source median {base} beyond hot-LLC bound"
        );
        assert!(
            worst >= 4 * base,
            "contention must blow up the median: {worst} vs base {base}"
        );
        assert!(
            skewed <= 2 * base,
            "skewed-budget median {skewed} should be near the ideal {base}"
        );
    }

    /// Arming trace export must not perturb the simulation: `REALM_TRACE`
    /// only turns on event recording, so every published number and every
    /// component-side telemetry counter/gauge/histogram stays
    /// bit-identical — only the event lists grow. (The CI transparency
    /// job checks the same property end-to-end across all binaries.)
    #[test]
    fn trace_arming_is_bit_identical() {
        std::env::set_var("REALM_TRACE", "1");
        let traced = with_budget(8 * 1024 / 5, N);
        std::env::remove_var("REALM_TRACE");
        let plain = with_budget(8 * 1024 / 5, N);
        assert_eq!(traced.cycles, plain.cycles);
        assert_eq!(traced.core_accesses, plain.core_accesses);
        assert_eq!(traced.dma_bytes, plain.dma_bytes);
        assert_eq!(traced.llc_beats, plain.llc_beats);
        assert_eq!(traced.telemetry.counters(), plain.telemetry.counters());
        assert_eq!(traced.telemetry.gauges(), plain.telemetry.gauges());
        assert_eq!(traced.telemetry.histograms(), plain.telemetry.histograms());
        // Only the armed run records transaction spans.
        assert!(
            traced.telemetry.spans().len() > plain.telemetry.spans().len(),
            "traced {} vs plain {}",
            traced.telemetry.spans().len(),
            plain.telemetry.spans().len()
        );
    }
}
