//! Static analysis for the AXI-REALM reproduction, in two passes.
//!
//! **Pass A — elaboration-time system analysis.** Given a constructed
//! simulation ([`Topology`](axi_sim::Topology) from
//! [`Sim::topology`](axi_sim::Sim::topology)) plus semantic declarations
//! (a [`SystemModel`]), [`analyze`] checks the system *before the first
//! cycle runs* and returns a [`Report`] of [`Diagnostic`]s. The rule
//! catalogue:
//!
//! | rule | severity | finding |
//! |------|----------|---------|
//! | `wire-dangling` | error¹ | a wire driven but never consumed, or vice versa |
//! | `wire-doubly-driven` | error | two components push onto the same wire |
//! | `wire-unallocated` | error | a port names a wire the pool never allocated |
//! | `component-unreachable` | warning | no wire path from any traffic source |
//! | `addrmap-overlap` | error | two address windows overlap |
//! | `addrmap-alignment` | warning | window not 4 KiB aligned |
//! | `addrmap-gap` | info | unmapped hole between windows |
//! | `id-width-overflow` | error | extended crossbar ID exceeds 32 bits |
//! | `config-invalid` | error | REALM design/runtime config rejected |
//! | `frag-4k-crossing` | error/warning | fragment can cross a 4 KiB boundary |
//! | `region-unmapped` | warning | regulated region outside every window |
//! | `budget-infeasible` | warning | one reservation exceeds `P · W` |
//! | `budget-oversubscribed` | warning | `Σ eᵢ/Pᵢ` exceeds the service rate `W` |
//! | `zero-latency-cycle` | error | declared combinational couplings form a loop |
//! | `couple-redundant` | warning | couple duplicates an existing wire edge |
//! | `couple-merges-islands` | info | couple alone bridges two otherwise-independent islands |
//! | `dependence-unreachable` | warning | no dependence edge reaches the component |
//!
//! ¹ demoted to warning when opaque (port-less) components are present.
//!
//! **Pass C — static dependence analysis.** The last three rules come from
//! [`analyze_deps`] (run automatically by [`analyze`]), which builds the
//! full intra-cycle dependence graph — wire edges from port declarations,
//! couple edges from [`Sim::couple`](axi_sim::Sim::couple), comb edges
//! from the system model — and computes a [`Partition`]: the island
//! decomposition (independently steppable connected components; enforced
//! at runtime by the `REALM_SANITIZE=1` access sanitizer) and a
//! deterministic static evaluation schedule with its zero-latency depth.
//!
//! Feasibility findings are warnings by design: the paper's own Fig. 6b
//! configuration over-subscribes the LLC deliberately (reservations of
//! 8 KiB + up to 8 KiB per 1000 cycles against an 8 B/cycle port).
//! "Analyzer-clean" therefore means **zero error-severity findings**.
//!
//! **One wire index, one analysis per build.** Both passes read the
//! [`WireIndex`](axi_sim::WireIndex) a [`Topology`](axi_sim::Topology)
//! snapshot builds once: dense integer keys over the declared
//! `(channel, wire)` pairs, in `(channel, wire)` order, with each
//! component's port keys and each key's endpoints. No rule keys its own map
//! by wire name, and nothing is sized by a wire index, so a port naming
//! wire `usize::MAX` or an unknown channel costs one key (and a
//! `wire-unallocated` error). [`analyze`] runs Pass C on the way for its
//! diagnostics; [`analyze_deps`] runs Pass C alone and returns its
//! [`Partition`]. Pass C runs only where a caller reads it: once in
//! every [`analyze`] (a testbench's startup gate, the fuzz rig's
//! `lint_spec`), and once per `Testbench::partition` call. Set
//! `REALM_LINT=0` to opt out of the startup gate, which then runs no
//! analysis at all, and `REALM_LINT=verbose` to print warnings.
//!
//! **Runtime-checked kernel contract (`kernel-stale-hint`).** One rule in
//! the catalogue is enforced by the arena kernel itself rather than by
//! either static pass, because it depends on dynamic state no
//! elaboration-time or source-level check can see: a component's
//! [`next_event`](axi_sim::Component::next_event) /
//! [`backlog_event`](axi_sim::Component::backlog_event) wake hint must
//! name a cycle `>=` the one being asked about. A stale hint (at or
//! before an already-ticked cycle) cannot be honored — the kernel falls
//! back to re-ticking the component next cycle, so results stay exact,
//! and records the violation (component name, cycle, offending hint) in
//! [`Sim::contract_violations`](axi_sim::Sim::contract_violations).
//! Testbenches and the `kernel_equivalence` property tests assert the
//! list is empty; treat any entry like an error-severity diagnostic from
//! Pass A. When writing a `next_event` override, clamp derived wakes with
//! `.max(cycle)` — stored cycles (a period start, a last-activity stamp)
//! go stale the moment the kernel fast-forwards past them.
//!
//! **Pass B — workspace determinism lint.** [`scan_workspace`] is a
//! `std`-only source scanner (driven by the `detlint` binary) that denies
//! nondeterminism in sim-visible code: hash-container iteration, wall
//! clocks outside the bench crate, float accumulation over unordered
//! containers. Suppress with `// lint:allow(<rule>)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
mod gate;
mod rules;
mod scan;
mod sched;
mod system;

pub use diag::{Diagnostic, Report, Severity};
pub use gate::{apply, enabled_by_env, verbose_by_env};
pub use rules::{analyze, analyze_budgets, drain_bound_cycles};
pub use scan::{scan_source, scan_workspace, violations_to_json, Violation};
pub use sched::{analyze_deps, DepEdge, DepEdgeKind, Partition};
pub use system::{AddrWindow, RealmSpec, SystemModel};
