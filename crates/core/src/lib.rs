//! AXI-REALM: a lightweight, modular real-time extension for AXI4
//! interconnects — behavioural reproduction of the DATE 2024 paper.
//!
//! The crate implements the paper's contribution in full:
//!
//! - [`RealmUnit`]: the per-manager regulation unit (Fig. 2) — isolation
//!   block, granular burst splitter, write buffer, and the monitoring &
//!   regulation (M&R) unit with per-region budgets and periods (Fig. 4).
//! - [`RealmRegFile`] + [`BusGuard`]: the memory-mapped configuration
//!   interface with TID-based ownership, claim, and handover (§III-B).
//! - [`area`]: the 12 nm area model of Table II, for cost estimation
//!   without a synthesis flow.
//!
//! # Quickstart
//!
//! ```
//! use axi_realm::{DesignConfig, RealmUnit, RegionConfig, RuntimeConfig};
//! use axi_sim::{AxiBundle, ChannelPool};
//! use axi4::Addr;
//!
//! let mut pool = ChannelPool::new();
//! let upstream = AxiBundle::with_defaults(&mut pool);   // from the manager
//! let downstream = AxiBundle::with_defaults(&mut pool); // to the crossbar
//!
//! let mut runtime = RuntimeConfig::open(2);
//! runtime.frag_len = 1; // maximum fairness: single-beat fragments
//! runtime.regions[0] = RegionConfig {
//!     base: Addr::new(0x8000_0000),
//!     size: 1 << 20,
//!     budget_max: 8192, // bytes per period
//!     period: 1000,     // cycles
//! };
//! let unit = RealmUnit::new(DesignConfig::cheshire(), runtime, upstream, downstream);
//! assert!(!unit.is_isolated());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod baseline;
mod config;
mod counters;
mod guard;
mod monitor;
pub mod planner;
mod read_path;
mod regs;
mod unit;
mod write_path;

pub use config::{ConfigError, DesignConfig, RegionConfig, RuntimeConfig};
pub use counters::{LatencyCounters, RegionStats, UnitStats};
pub use guard::{BusGuard, GUARD_UNCLAIMED};
pub use monitor::{BudgetMonitor, RegionState};
pub use read_path::{ReadPath, RoutedRead};
pub use regs::{offsets, shared_regs, RealmRegFile, RegState, SharedRegs, UnitStatus};
pub use unit::RealmUnit;
pub use write_path::{RoutedWrite, WriteCharge, WritePath};
