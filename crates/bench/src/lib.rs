//! Shared helpers for the experiment binaries and the benchmark of the
//! AXI-REALM reproduction. See the `fig6a`, `fig6b`, `table1`, `table2`,
//! and `ablations` binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod json;
pub mod poolbench;
pub mod report;
pub mod sweep;
pub mod telemetry;

pub use conformance::MonitorRig;
pub use report::{ExperimentReport, Row};
pub use sweep::{run_sweep, PointRuntime, SweepOutcome};
pub use telemetry::{maybe_export, point_row};
