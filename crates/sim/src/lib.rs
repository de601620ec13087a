//! Cycle-stepped simulation kernel for the AXI-REALM reproduction.
//!
//! The kernel models hardware at the granularity the paper's results depend
//! on: clock cycles and beat-level channel handshakes. Its semantics are:
//!
//! - Time advances in integer clock cycles. Observably, every [`Component`]
//!   is ticked once per cycle; the default arena kernel only *executes*
//!   the ticks that can change state (see [`Sim`]).
//! - Channels are bounded [`Wire`]s. An item pushed at cycle *t* becomes
//!   visible to consumers at *t + 1* ("register per hop"), so results do not
//!   depend on the order components are ticked in, and every hop through a
//!   component costs at least one cycle — matching the one-cycle latency the
//!   REALM unit adds to in-flight transactions.
//! - A wire accepts at most one push and one pop per cycle, matching the
//!   one-beat-per-cycle throughput of an AXI channel handshake.
//!
//! AXI's five channels are grouped into an [`AxiBundle`] of typed wire
//! handles allocated from a [`ChannelPool`].
//!
//! # Example
//!
//! ```
//! use axi_sim::ChannelPool;
//! use axi4::WBeat;
//!
//! let mut pool = ChannelPool::new();
//! let wire = pool.new_wire::<WBeat>(2);
//!
//! // Cycle 0: producer pushes a beat.
//! assert!(pool.can_push(wire, 0));
//! pool.push(wire, 0, WBeat::full(42, true));
//!
//! // Still cycle 0: the beat is not yet visible (register-per-hop).
//! assert!(pool.pop(wire, 0).is_none());
//!
//! // Cycle 1: the consumer sees it.
//! assert_eq!(pool.pop(wire, 1).map(|b| b.data), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arb;
mod bundle;
mod component;
mod coverage;
mod pool;
mod sim;
mod topology;
mod trace;
mod vcd;
mod wire;

pub use arb::RoundRobin;
pub use bundle::{AxiBundle, BundleCapacity};
pub use component::{Component, TickCtx};
pub use coverage::CoverageMap;
pub use pool::{Channel, ChannelPool, PushRefusal, SanitizerKind, WireActivity, WireId};
pub use sim::{
    ComponentId, ComponentProfile, ContractViolation, KernelMode, KernelStats, SanitizerViolation,
    Sim, ViolationKind, TAP_DRAIN_RECORDS,
};
pub use topology::{PortDecl, PortDir, TopoComponent, TopoWire, Topology, WireEnd, WireIndex};
pub use trace::{TraceChannel, TraceEvent, TracePayload, TraceProbe};
pub use vcd::vcd_dump;
pub use wire::{PushError, Wire, WireStats};

// Re-exported so downstream crates can implement the
// `Component::telemetry` hook, record latencies and write JSON without a
// direct `realm-telemetry` dep.
pub use realm_telemetry::{Histogram, Json, Layout, TelemetrySink};

/// A clock-cycle count.
///
/// Plain `u64` by design: cycle arithmetic is pervasive in component code and
/// a newtype would add friction without catching real bug classes here.
pub type Cycle = u64;
