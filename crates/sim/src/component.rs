//! The component trait every simulated block implements.

use std::any::Any;

use realm_telemetry::TelemetrySink;

use crate::coverage::CoverageMap;
use crate::pool::ChannelPool;
use crate::topology::PortDecl;
use crate::Cycle;

/// Per-cycle context handed to every component: the current cycle and
/// mutable access to all wires.
#[derive(Debug)]
pub struct TickCtx<'a> {
    /// The cycle being evaluated.
    pub cycle: Cycle,
    /// All wires in the system; components address theirs by handle.
    pub pool: &'a mut ChannelPool,
}

/// A simulated hardware block, ticked once per clock cycle.
///
/// Components communicate exclusively through wires in the shared
/// [`ChannelPool`]; the register-per-hop wire semantics make the system's
/// behaviour independent of tick order (see the crate docs).
///
/// The `Any` supertrait lets a [`Sim`](crate::Sim) hand back concrete
/// component references for post-run inspection via
/// [`Sim::component`](crate::Sim::component).
pub trait Component: Any {
    /// Advances the component by one clock cycle.
    fn tick(&mut self, ctx: &mut TickCtx<'_>);

    /// A short human-readable instance name for traces and diagnostics.
    fn name(&self) -> &str {
        "component"
    }

    /// The earliest cycle `>= cycle` at which ticking this component could
    /// change any state, **assuming no push or pop happens on any of its
    /// declared wires before then**.
    ///
    /// This is the wake hint behind the arena kernel in
    /// [`Sim::run`](crate::Sim::run): each component sleeps until its hint
    /// comes due or activity touches one of its [`Component::ports`] wires
    /// — a push wakes it when the beat becomes visible (and same-cycle for
    /// components later in the schedule, exactly when a stepped tick would
    /// first see the pusher's effects), a pop wakes it when the freed
    /// capacity becomes usable. A hint of the next cycle sets the
    /// component's bit in the next-cycle due mask; a later one is kept as
    /// its pending far wake. Cycles on which no component is due are
    /// jumped over entirely. [Tap observers](Component::tap_observer) take
    /// no part in this: they hold no schedule position, get no wire wakes,
    /// and their hints are never consulted.
    ///
    /// Return values:
    ///
    /// - `Some(cycle)` — must be ticked right now (the conservative
    ///   default, which keeps legacy components exact by simply never
    ///   letting them sleep).
    /// - `Some(later)` — ticks strictly before `later` are no-ops absent
    ///   wire activity; the kernel may elide them.
    /// - `None` — quiescent: only wire activity (or a declared
    ///   [`Sim::couple`](crate::Sim::couple) write) can require a tick.
    ///
    /// Because pops also wake, a producer blocked on a full output wire may
    /// report `None` and sleep until the consumer drains a slot. Components
    /// that declared no ports are woken by *any* wire activity and kept
    /// awake while any beat is in flight. A component whose tick holds
    /// beats queued on its Consume wires is re-ticked every cycle until
    /// those wires drain (one pop per wire per cycle, and it may decline).
    ///
    /// Returning a hint at or before an already-ticked cycle is a contract
    /// violation: the kernel re-ticks next cycle (exactness is preserved)
    /// and records it — see
    /// [`Sim::contract_violations`](crate::Sim::contract_violations).
    /// Components whose per-cycle tick mutates time-proportional counters
    /// must reconcile them in [`Component::on_fast_forward`].
    fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
        Some(cycle)
    }

    /// The earliest cycle `>= cycle` at which this component could consume
    /// backlog parked on its input wires.
    ///
    /// The arena kernel calls this after a tick that left beats queued on
    /// the component's Consume wires (or, for opaque components, anywhere
    /// in the pool): a consumer pops at most one beat per wire per cycle
    /// and may decline, so queued input alone does not say *when* the next
    /// pop can happen. The conservative default — "right away" — re-ticks
    /// the component every cycle until its inputs drain, which is always
    /// exact but forfeits skipping while traffic is parked upstream.
    ///
    /// Components whose intake is gated on internal state can override:
    ///
    /// - `Some(later)` — intake is closed until `later` (e.g. a budget
    ///   period boundary); ticks before then would not pop. The kernel
    ///   still wakes the component early on any push/pop touching its
    ///   wires, so the hint only needs to cover *silence*.
    /// - `None` — [`Component::next_event`] plus wire wakes already cover
    ///   every state change; queued input alone never requires a tick.
    ///
    /// The same exactness rule as [`Component::next_event`] applies: a
    /// hint must be `>= cycle`, and an override claiming `later` while a
    /// stepped run would have popped earlier diverges the kernels — the
    /// `kernel_equivalence` tests are the safety net.
    fn backlog_event(&self, cycle: Cycle) -> Option<Cycle> {
        Some(cycle)
    }

    /// `true` if this component is a *tap-fold observer*, which lets the
    /// arena kernel take it off the per-cycle schedule.
    ///
    /// The contract, which the component must keep exactly:
    ///
    /// - its tick only drains pool taps (reads [`ChannelPool::tap`], then
    ///   [`ChannelPool::clear_tap`]s); it never pushes, pops or peeks a
    ///   wire, and no other component (and no
    ///   [`Sim::couple`](crate::Sim::couple) edge) reads its state;
    /// - its state is a pure fold over the drained `(push_cycle, beat)`
    ///   records in push-cycle order, so one tick draining a span of
    ///   cycles leaves exactly the state per-cycle ticks over that span
    ///   would have — `ctx.cycle` must not matter.
    ///
    /// The arena kernel then gives it no schedule position (so it does not
    /// count toward the 64-position limit), no wire wakes, and no
    /// per-cycle visit; its [`Component::next_event`] and
    /// [`Component::backlog_event`] are not consulted. Instead it ticks every tap observer in bulk when the
    /// pool's undrained tap backlog ([`ChannelPool::tap_backlog`]) reaches
    /// a fixed threshold, and before every return from
    /// [`Sim::run`](crate::Sim::run) and
    /// [`Sim::run_until`](crate::Sim::run_until); its
    /// [`Component::on_fast_forward`] runs only when a run returns. Between
    /// those points a tap observer lags the simulation, so a `run_until`
    /// predicate must not read one. The stepping kernel ticks it every
    /// cycle like any other component.
    ///
    /// The answer must not change over the component's lifetime. The
    /// default `false` keeps a component on the per-cycle schedule; a
    /// component that peeks wires (such as a trace probe sampling front
    /// beats) must not opt in.
    fn tap_observer(&self) -> bool {
        false
    }

    /// The component's declared wire endpoints, for static topology
    /// analysis before cycle 0 (see [`Sim::topology`](crate::Sim::topology)
    /// and the `realm-lint` crate).
    ///
    /// The default declares nothing, which marks the component *opaque*:
    /// graph checks skip it and its wires, trading analysis coverage for
    /// zero migration effort. Components built from [`AxiBundle`]s can
    /// implement this in one line via
    /// [`AxiBundle::manager_ports`](crate::AxiBundle::manager_ports),
    /// [`AxiBundle::subordinate_ports`](crate::AxiBundle::subordinate_ports),
    /// or [`AxiBundle::observer_ports`](crate::AxiBundle::observer_ports).
    fn ports(&self) -> Vec<PortDecl> {
        Vec::new()
    }

    /// Notification that this component's ticks at cycles `from..to` were
    /// elided (it was asleep) and it is about to be observed or ticked at
    /// `to`.
    ///
    /// Components whose tick accumulates per-cycle state (e.g. an
    /// isolated-cycles counter) must apply the `to - from` elided ticks
    /// here so a fast-forwarded run ends in exactly the state a stepped run
    /// would. The kernel may reconcile one sleep stretch in several
    /// consecutive calls (`a..b` then `b..c`), so the accounting must
    /// compose. Components with purely event-driven state need nothing —
    /// the default is a no-op.
    fn on_fast_forward(&mut self, from: Cycle, to: Cycle) {
        let _ = (from, to);
    }

    /// Exports this component's coverage counters into `map` (see
    /// [`Sim::coverage`](crate::Sim::coverage)).
    ///
    /// Implementations should emit dotted keys prefixed with the instance
    /// name and only re-read counters the component already maintains —
    /// the hook is called after (or between) runs, never on the per-cycle
    /// hot path, and must not mutate behaviour. The default exports
    /// nothing, which keeps legacy components coverage-opaque.
    fn coverage(&self, map: &mut CoverageMap) {
        let _ = map;
    }

    /// Exports this component's telemetry — counters, gauges, latency
    /// histograms, and trace events — into `sink` (see
    /// [`Sim::telemetry`](crate::Sim::telemetry)).
    ///
    /// The same contract as [`Component::coverage`]: the hook is called
    /// after (or between) runs, never on the per-cycle hot path, it only
    /// re-reads state the component already maintains, and it must not
    /// mutate behaviour — telemetry on vs. off is required to be
    /// bit-identical (CI-gated like the protocol monitors). Counter and
    /// gauge keys are dotted and prefixed with the instance name
    /// (`"realm.dma.isolation_trips"`); unlike coverage signatures, zero
    /// counters *should* be registered so the registry documents every
    /// signal a component exports. The default exports nothing.
    fn telemetry(&self, sink: &mut TelemetrySink) {
        let _ = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WireId;
    use axi4::WBeat;

    struct Counter {
        out: WireId<WBeat>,
        sent: u64,
    }

    impl Component for Counter {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.pool.can_push(self.out, ctx.cycle) {
                ctx.pool
                    .push(self.out, ctx.cycle, WBeat::full(self.sent, false));
                self.sent += 1;
            }
        }

        fn name(&self) -> &str {
            "counter"
        }
    }

    #[test]
    fn component_drives_wire_through_ctx() {
        let mut pool = ChannelPool::new();
        let out = pool.new_wire::<WBeat>(4);
        let mut c = Counter { out, sent: 0 };
        for cycle in 0..3 {
            let mut ctx = TickCtx {
                cycle,
                pool: &mut pool,
            };
            c.tick(&mut ctx);
        }
        assert_eq!(c.sent, 3);
        assert_eq!(pool.pop(out, 3).map(|b| b.data), Some(0));
        assert_eq!(c.name(), "counter");
    }
}
