//! Traffic generators for the AXI-REALM testbench.
//!
//! Four manager models drive the experiments:
//!
//! - [`ScriptedManager`] executes an explicit list of transactions and
//!   records completions — the workhorse of directed tests.
//! - [`CoreModel`] is the latency-sensitive, blocking in-order processor
//!   standing in for CVA6 running *Susan*: dependent memory accesses
//!   interleaved with short compute phases, scanning an image-like buffer.
//! - [`DmaModel`] is the bandwidth-hungry DSA DMA engine: double-buffered
//!   full-length bursts (256 beats by default) ping-ponging between two
//!   memory regions with multiple transactions in flight.
//! - [`StallingManager`] is the malicious writer of the DoS experiment: it
//!   reserves the interconnect's W channel with an `AW` and then withholds
//!   the data.
//! - [`RandomManager`] issues seeded random legal transactions and checks
//!   every read against its own memory model — the end-to-end fuzzer.
//!
//! [`FuzzSpec`] complements them: it expands a `u64` seed into a random but
//! protocol-legal script for the [`ScriptedManager`], and [`shrink`] reduces
//! a failing script to a minimal reproducer by greedy delta debugging.
//!
//! All generators are deterministic; the core and replay models record
//! per-access latency into an [`axi_sim::Histogram`] for the paper's
//! worst-case numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_model;
mod dma;
mod fuzz;
mod random;
mod replay;
mod script;
mod stall;

pub use core_model::{CoreModel, CoreWorkload};
pub use dma::{DmaConfig, DmaModel};
pub use fuzz::{shrink, FuzzSpec};
pub use random::{RandomConfig, RandomManager};
pub use replay::{ParseTraceError, Trace, TraceManager, TraceRecord};
pub use script::{Completion, CompletionKind, Op, ScriptedManager};
pub use stall::{StallPlan, StallingManager};
