//! The Cheshire-like SoC testbench of the AXI-REALM evaluation.
//!
//! Assembles the system of the paper's Fig. 5 out of the workspace's
//! substrates: a latency-sensitive core (CVA6 running *Susan*), a DSA DMA
//! engine, optional REALM units per manager, a crossbar, the LLC port, the
//! DSA scratchpad, and the bus-guarded configuration register file.
//!
//! [`experiments`] contains presets for every scenario of §IV-A —
//! *single-source*, *without reservation*, the fragmentation sweep of
//! Fig. 6a, and the budget sweep of Fig. 6b.
//!
//! # Example
//!
//! ```
//! use cheshire_soc::{Testbench, TestbenchConfig};
//!
//! let mut tb = Testbench::new(TestbenchConfig::single_source(200));
//! assert!(tb.run_until_core_done(1_000_000));
//! let result = tb.result();
//! assert_eq!(result.core_latency.count(), 200);
//! assert!(result.core_latency.max() <= 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod testbench;

pub use testbench::{
    monitors_enabled_by_env, Regulation, RunResult, Testbench, TestbenchConfig, Timeline,
    TimelineSample, CFG_BASE, CFG_SIZE, CORE_BUFFER, DMA_LLC_BUFFER, DMA_LLC_BUFFER_SIZE, LLC_BASE,
    LLC_SIZE, SPM_BASE, SPM_SIZE,
};

/// Startup gate for experiment binaries that never construct a
/// [`Testbench`] themselves (the analytic tables): builds the default
/// contended Cheshire system, runs the elaboration-time analyzer over it,
/// and panics on error-severity findings. Honors `REALM_LINT=0`.
pub fn startup_lint(binary: &str) {
    if !realm_lint::enabled_by_env() {
        return;
    }
    let mut cfg = TestbenchConfig::single_source(1);
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.core_regulation = Regulation::Realm(experiments::llc_regulation(256, 0, 0));
    cfg.dma_regulation = Regulation::Realm(experiments::llc_regulation(256, 0, 0));
    cfg.monitors = false; // construction-only; nothing will run
    let tb = Testbench::new(cfg); // Testbench::new already gates
    realm_lint::apply(binary, &tb.lint_report());
}
