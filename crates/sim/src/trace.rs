//! Beat-level tracing: record what crosses an AXI port, cycle by cycle.
//!
//! A [`TraceProbe`] is a passive component watching one [`AxiBundle`]'s
//! wires. Every beat visible on a wire is recorded exactly once, with its
//! cycle and channel, into a bounded ring of [`TraceEvent`]s. Probes never
//! consume beats — they only peek — so inserting one does not perturb
//! timing.
//!
//! The textual dump (`{cycle:>8} {channel} {payload}`) is stable enough to
//! diff in tests and to skim when debugging arbitration.

use std::collections::VecDeque;
use std::fmt;

use axi4::{ArBeat, AwBeat, BBeat, RBeat, WBeat};

use crate::bundle::AxiBundle;
use crate::component::{Component, TickCtx};
use crate::Cycle;

/// Which of the five channels an event was observed on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceChannel {
    /// Write-address channel.
    Aw,
    /// Write-data channel.
    W,
    /// Write-response channel.
    B,
    /// Read-address channel.
    Ar,
    /// Read-data channel.
    R,
}

impl fmt::Display for TraceChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceChannel::Aw => "AW",
            TraceChannel::W => "W ",
            TraceChannel::B => "B ",
            TraceChannel::Ar => "AR",
            TraceChannel::R => "R ",
        };
        f.write_str(s)
    }
}

/// The payload of a traced beat.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TracePayload {
    /// A write-address beat.
    Aw(AwBeat),
    /// A write-data beat.
    W(WBeat),
    /// A write-response beat.
    B(BBeat),
    /// A read-address beat.
    Ar(ArBeat),
    /// A read-data beat.
    R(RBeat),
}

/// One observed beat.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEvent {
    /// Cycle the beat became visible at the probe.
    pub cycle: Cycle,
    /// Channel it appeared on.
    pub channel: TraceChannel,
    /// The beat itself.
    pub payload: TracePayload,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>8} {} ", self.cycle, self.channel)?;
        match &self.payload {
            TracePayload::Aw(b) => {
                write!(f, "id={} addr={} len={} {}", b.id, b.addr, b.len, b.burst)
            }
            TracePayload::W(b) => write!(
                f,
                "data={:#018x} strb={:#04x} last={}",
                b.data, b.strb, b.last
            ),
            TracePayload::B(b) => write!(f, "id={} resp={}", b.id, b.resp),
            TracePayload::Ar(b) => {
                write!(f, "id={} addr={} len={} {}", b.id, b.addr, b.len, b.burst)
            }
            TracePayload::R(b) => write!(
                f,
                "id={} data={:#018x} resp={} last={}",
                b.id, b.data, b.resp, b.last
            ),
        }
    }
}

/// A passive probe recording every beat that appears on one bundle.
///
/// Each wire's beats are recorded exactly once even though a beat may stay
/// visible for several cycles under backpressure: the probe fingerprints
/// the front beat per wire and records on change.
#[derive(Debug)]
pub struct TraceProbe {
    bundle: AxiBundle,
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    // Last recorded front beat per wire, to record each beat once.
    last_aw: Option<AwBeat>,
    last_w: Option<WBeat>,
    last_b: Option<BBeat>,
    last_ar: Option<ArBeat>,
    last_r: Option<RBeat>,
    name: String,
}

impl TraceProbe {
    /// Creates a probe over `bundle` holding up to `capacity` events
    /// (oldest dropped first).
    pub fn new(bundle: AxiBundle, capacity: usize) -> Self {
        Self {
            bundle,
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
            last_aw: None,
            last_w: None,
            last_b: None,
            last_ar: None,
            last_r: None,
            name: "trace".to_owned(),
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events the bounded ring could not retain: beats displaced by newer
    /// ones once the ring was full, plus every beat refused outright by a
    /// capacity-0 probe. The invariant `len() + dropped() == total beats
    /// observed` always holds, so `dropped() == 0` certifies the ring as a
    /// complete record of the run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renames the probe (used as its telemetry track and key prefix).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Events on one channel, oldest first.
    pub fn channel(&self, channel: TraceChannel) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.channel == channel)
            .collect()
    }

    /// Renders the whole trace as text, one event per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    fn record(&mut self, cycle: Cycle, channel: TraceChannel, payload: TracePayload) {
        // A capacity-0 probe retains nothing: refuse the event outright.
        // (Falling through would pop an empty ring and then push, leaving
        // one event in a ring whose capacity says zero, with `dropped`
        // off by one against the `len + dropped == total` invariant.)
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            cycle,
            channel,
            payload,
        });
    }
}

impl Component for TraceProbe {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle;
        if let Some(&beat) = ctx.pool.peek(self.bundle.aw, cycle) {
            if self.last_aw != Some(beat) {
                self.last_aw = Some(beat);
                self.record(cycle, TraceChannel::Aw, TracePayload::Aw(beat));
            }
        }
        if let Some(&beat) = ctx.pool.peek(self.bundle.w, cycle) {
            if self.last_w != Some(beat) {
                self.last_w = Some(beat);
                self.record(cycle, TraceChannel::W, TracePayload::W(beat));
            }
        }
        if let Some(&beat) = ctx.pool.peek(self.bundle.b, cycle) {
            if self.last_b != Some(beat) {
                self.last_b = Some(beat);
                self.record(cycle, TraceChannel::B, TracePayload::B(beat));
            }
        }
        if let Some(&beat) = ctx.pool.peek(self.bundle.ar, cycle) {
            if self.last_ar != Some(beat) {
                self.last_ar = Some(beat);
                self.record(cycle, TraceChannel::Ar, TracePayload::Ar(beat));
            }
        }
        if let Some(&beat) = ctx.pool.peek(self.bundle.r, cycle) {
            if self.last_r != Some(beat) {
                self.last_r = Some(beat);
                self.record(cycle, TraceChannel::R, TracePayload::R(beat));
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Vec<crate::PortDecl> {
        self.bundle.observer_ports()
    }

    // Purely reactive: the probe only mutates state when a front beat
    // changes, which cannot happen while every wire is empty.
    fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
        None
    }

    fn telemetry(&self, sink: &mut realm_telemetry::TelemetrySink) {
        sink.counter(&format!("{}.events", self.name), self.events.len() as u64);
        sink.counter(&format!("{}.dropped", self.name), self.dropped);
        for e in &self.events {
            let label = match e.channel {
                TraceChannel::Aw => "AW",
                TraceChannel::W => "W",
                TraceChannel::B => "B",
                TraceChannel::Ar => "AR",
                TraceChannel::R => "R",
            };
            sink.instant(&self.name, label, e.cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ChannelPool;
    use crate::sim::Sim;
    use axi4::TxnId;

    #[test]
    fn records_each_beat_once() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let probe = sim.add(TraceProbe::new(bundle, 16));
        // Push two W beats on consecutive cycles; nothing consumes them, so
        // the front stays visible for many cycles — recorded once each.
        sim.pool_mut().push(bundle.w, 0, WBeat::full(1, false));
        sim.run(3);
        let c = sim.cycle();
        sim.pool_mut().pop(bundle.w, c); // consume first
        sim.pool_mut().push(bundle.w, c, WBeat::full(2, true));
        sim.run(3);
        let p = sim.component::<TraceProbe>(probe).unwrap();
        let w: Vec<_> = p.channel(TraceChannel::W);
        assert_eq!(w.len(), 2);
        assert!(matches!(w[0].payload, TracePayload::W(b) if b.data == 1));
        assert!(matches!(w[1].payload, TracePayload::W(b) if b.data == 2));
        assert!(!p.is_empty());
        assert_eq!(p.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let probe = sim.add(TraceProbe::new(bundle, 2));
        for i in 0..4u64 {
            let c = sim.cycle();
            sim.pool_mut().pop(bundle.b, c);
            sim.pool_mut()
                .push(bundle.b, c, BBeat::okay(TxnId::new(i as u32)));
            sim.run(2);
        }
        let p = sim.component::<TraceProbe>(probe).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.dropped() >= 1);
        // Oldest remaining is not id 0.
        let first = p.events().next().unwrap();
        assert!(matches!(first.payload, TracePayload::B(b) if b.id != TxnId::new(0)));
    }

    /// Every displaced event is counted: after heavy overflow the ring
    /// holds exactly the newest `capacity` events and `dropped` accounts
    /// for all the rest.
    #[test]
    fn overflow_accounts_for_every_event() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let probe = sim.add(TraceProbe::new(bundle, 4));
        const TOTAL: u64 = 20;
        for i in 0..TOTAL {
            let c = sim.cycle();
            sim.pool_mut().pop(bundle.b, c);
            sim.pool_mut()
                .push(bundle.b, c, BBeat::okay(TxnId::new(i as u32)));
            sim.run(2);
        }
        let p = sim.component::<TraceProbe>(probe).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.dropped() + p.len() as u64, TOTAL);
        // The survivors are the newest events, still in order.
        let ids: Vec<u32> = p
            .events()
            .map(|e| match e.payload {
                TracePayload::B(b) => b.id.raw(),
                _ => unreachable!("only B beats were pushed"),
            })
            .collect();
        assert_eq!(ids, [16, 17, 18, 19]);
    }

    /// A probe must see every beat even when the kernel fast-forwards over
    /// the idle gaps between them. The producer sleeps 1000 cycles between
    /// beats, so almost all simulated time is jumped over.
    #[test]
    fn fast_forward_does_not_lose_beats() {
        struct SparseProducer {
            out: crate::pool::WireId<BBeat>,
            sent: u32,
            next_at: Cycle,
        }
        impl Component for SparseProducer {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.cycle >= self.next_at && self.sent < 5 {
                    ctx.pool
                        .push(self.out, ctx.cycle, BBeat::okay(TxnId::new(self.sent)));
                    self.sent += 1;
                    self.next_at = ctx.cycle + 1000;
                }
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                (self.sent < 5).then(|| self.next_at.max(cycle))
            }
        }
        struct Sink {
            input: crate::pool::WireId<BBeat>,
        }
        impl Component for Sink {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                ctx.pool.pop(self.input, ctx.cycle);
            }
            fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
                None
            }
        }

        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let probe = sim.add(TraceProbe::new(bundle, 16));
        sim.add(SparseProducer {
            out: bundle.b,
            sent: 0,
            next_at: 0,
        });
        sim.add(Sink { input: bundle.b });
        sim.run(6_000);
        assert!(
            sim.kernel_stats().fast_forwards >= 4,
            "idle gaps must be jumped: {:?}",
            sim.kernel_stats()
        );
        let p = sim.component::<TraceProbe>(probe).unwrap();
        let ids: Vec<u32> = p
            .events()
            .map(|e| match e.payload {
                TracePayload::B(b) => b.id.raw(),
                _ => unreachable!("only B beats were pushed"),
            })
            .collect();
        assert_eq!(ids, [0, 1, 2, 3, 4], "no beat may be lost across jumps");
        assert_eq!(p.dropped(), 0);
    }

    /// A capacity-0 probe is a pure drop counter: it must never retain an
    /// event (the ring's capacity bound is absolute) and `dropped` must
    /// account for every observed beat.
    #[test]
    fn capacity_zero_retains_nothing_and_counts_everything() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let probe = sim.add(TraceProbe::new(bundle, 0));
        for i in 0..3u64 {
            let c = sim.cycle();
            sim.pool_mut().pop(bundle.b, c);
            sim.pool_mut()
                .push(bundle.b, c, BBeat::okay(TxnId::new(i as u32)));
            sim.run(2);
        }
        let p = sim.component::<TraceProbe>(probe).unwrap();
        assert_eq!(p.len(), 0, "capacity 0 must hold zero events");
        assert!(p.is_empty());
        assert_eq!(p.dropped(), 3, "every observed beat must be counted");
    }

    #[test]
    fn telemetry_mirrors_the_ring() {
        let mut pool = ChannelPool::new();
        let bundle = AxiBundle::with_defaults(&mut pool);
        let mut probe = TraceProbe::new(bundle, 8).named("port0");
        probe.record(
            5,
            TraceChannel::R,
            TracePayload::R(RBeat::okay(TxnId::new(1), 0xabc, true)),
        );
        probe.record(7, TraceChannel::W, TracePayload::W(WBeat::full(3, false)));
        let mut sink = realm_telemetry::TelemetrySink::new();
        Component::telemetry(&probe, &mut sink);
        assert_eq!(sink.get_counter("port0.events"), Some(2));
        assert_eq!(sink.get_counter("port0.dropped"), Some(0));
        assert_eq!(sink.instants().len(), 2);
        assert_eq!(sink.instants()[0].track, "port0");
    }

    #[test]
    fn dump_is_line_per_event() {
        let mut pool = ChannelPool::new();
        let bundle = AxiBundle::with_defaults(&mut pool);
        let mut probe = TraceProbe::new(bundle, 8);
        probe.record(
            5,
            TraceChannel::R,
            TracePayload::R(RBeat::okay(TxnId::new(1), 0xabc, true)),
        );
        let dump = probe.dump();
        assert_eq!(dump.lines().count(), 1);
        assert!(dump.contains("R "));
        assert!(dump.contains("last=true"));
        assert!(dump.contains("OKAY"));
    }

    #[test]
    fn display_formats_every_channel() {
        use axi4::{Addr, BurstKind, BurstLen, BurstSize};
        let aw = AwBeat::new(
            TxnId::new(1),
            Addr::new(0x1000),
            BurstLen::ONE,
            BurstSize::bus64(),
            BurstKind::Incr,
        );
        let events = [
            TraceEvent {
                cycle: 1,
                channel: TraceChannel::Aw,
                payload: TracePayload::Aw(aw),
            },
            TraceEvent {
                cycle: 2,
                channel: TraceChannel::W,
                payload: TracePayload::W(WBeat::full(7, true)),
            },
            TraceEvent {
                cycle: 3,
                channel: TraceChannel::Ar,
                payload: TracePayload::Ar(ArBeat::new(
                    TxnId::new(2),
                    Addr::new(0x2000),
                    BurstLen::ONE,
                    BurstSize::bus64(),
                    BurstKind::Incr,
                )),
            },
        ];
        for e in &events {
            assert!(!e.to_string().is_empty());
        }
        assert!(events[0].to_string().contains("INCR"));
    }
}
