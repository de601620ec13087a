//! Typed wire handles and the channel pool that owns all wires.
//!
//! Storage is arena-backed: each of the five AXI channels keeps one
//! contiguous slot arena plus a table of [`Ring`] descriptors (one per
//! wire) indexing into it. Allocating a wire extends the arena once at
//! construction; pushing and popping beats never allocates.

use std::fmt;
use std::marker::PhantomData;

use axi4::{ArBeat, AwBeat, BBeat, RBeat, WBeat};

use crate::wire::{PushError, Ring, WireStats};
use crate::Cycle;

/// A typed handle to a pool-owned wire.
///
/// Handles are cheap copies; components hold handles, the pool holds wires.
pub struct WireId<T> {
    index: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> WireId<T> {
    fn new(index: usize) -> Self {
        Self {
            index,
            _marker: PhantomData,
        }
    }

    /// Returns the pool-internal index, useful only for debug output.
    pub fn index(self) -> usize {
        self.index
    }
}

// Manual impls: `derive` would bound them on `T`, but handles are plain
// indices and always copyable (C-STRUCT-BOUNDS).
impl<T> Clone for WireId<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for WireId<T> {}

impl<T> PartialEq for WireId<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}

impl<T> Eq for WireId<T> {}

impl<T> fmt::Debug for WireId<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WireId<{}>({})", std::any::type_name::<T>(), self.index)
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for axi4::AwBeat {}
    impl Sealed for axi4::WBeat {}
    impl Sealed for axi4::BBeat {}
    impl Sealed for axi4::ArBeat {}
    impl Sealed for axi4::RBeat {}
}

/// One channel's wires: a contiguous slot arena shared by every ring of
/// the channel, the per-wire ring descriptors, and the per-wire tap
/// buffers. Public only because the sealed [`Channel`] trait must name it;
/// all fields are private to the pool.
#[doc(hidden)]
#[derive(Debug)]
pub struct Lane<T> {
    arena: Vec<Option<(Cycle, T)>>,
    rings: Vec<Ring>,
    taps: Vec<Option<Vec<(Cycle, T)>>>,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Self {
            arena: Vec::new(),
            rings: Vec::new(),
            taps: Vec::new(),
        }
    }
}

/// Beat types that can travel on pool-managed wires: the five AXI channel
/// payloads. Sealed — the pool's storage is concrete per channel.
pub trait Channel: sealed::Sealed + Copy {
    /// Short channel name for diagnostics ("AW", "W", "B", "AR", "R").
    const LABEL: &'static str;
    /// Dense channel index in AW/W/B/AR/R order (kernel bookkeeping).
    #[doc(hidden)]
    const SLOT: usize;
    #[doc(hidden)]
    fn lane(pool: &ChannelPool) -> &Lane<Self>;
    #[doc(hidden)]
    fn lane_mut(pool: &mut ChannelPool) -> &mut Lane<Self>;
}

macro_rules! impl_channel {
    ($ty:ty, $field:ident, $label:literal, $slot:literal) => {
        impl Channel for $ty {
            const LABEL: &'static str = $label;
            const SLOT: usize = $slot;
            #[inline(always)]
            fn lane(pool: &ChannelPool) -> &Lane<Self> {
                &pool.$field
            }
            #[inline(always)]
            fn lane_mut(pool: &mut ChannelPool) -> &mut Lane<Self> {
                &mut pool.$field
            }
        }
    };
}

impl_channel!(AwBeat, aw, "AW", 0);
impl_channel!(WBeat, w, "W", 1);
impl_channel!(BBeat, b, "B", 2);
impl_channel!(ArBeat, ar, "AR", 3);
impl_channel!(RBeat, r, "R", 4);

/// Number of distinct AXI channels ([`Channel::SLOT`] range).
pub(crate) const CHANNEL_SLOTS: usize = 5;

/// Maps a channel label (as found in [`PortDecl`](crate::PortDecl)) to its
/// dense [`Channel::SLOT`] index.
pub(crate) fn channel_slot(label: &str) -> Option<usize> {
    match label {
        "AW" => Some(AwBeat::SLOT),
        "W" => Some(WBeat::SLOT),
        "B" => Some(BBeat::SLOT),
        "AR" => Some(ArBeat::SLOT),
        "R" => Some(RBeat::SLOT),
        _ => None,
    }
}

/// Precomputed wake masks the arena kernel arms on the pool: per flat wire
/// index, the set of schedule positions that depend on the wire. With the
/// masks armed, every successful push and pop ORs at most two words into
/// the pool's pending wake accumulators.
#[derive(Debug, Default)]
pub(crate) struct WakeTables {
    /// First flat wire index per channel slot.
    pub slot_base: [usize; CHANNEL_SLOTS],
    /// `flat_wire` → schedule positions of every endpoint (drive, consume,
    /// observe) of the wire. Tap observers are not among them: the kernel
    /// drains them in bulk instead of waking them.
    pub all: Vec<u64>,
}

/// What an access-sanitizer check caught (see
/// [`SanitizerViolation`](crate::SanitizerViolation)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SanitizerKind {
    /// A component pushed onto a wire it does not declare with
    /// [`PortDir::Drive`](crate::PortDir::Drive).
    UndeclaredPush,
    /// A component popped a wire it does not declare with
    /// [`PortDir::Consume`](crate::PortDir::Consume).
    UndeclaredPop,
    /// A sleeping component turned out to be due without any declared wire
    /// or couple edge having woken it — it reacted to state outside its
    /// declared dependence edges (the missed-wake cross-check; `channel`
    /// and `wire` are placeholders for this kind).
    UndeclaredWake,
}

/// Declared-access tables the pool checks pushes and pops against while
/// the sanitizer is armed. Built by the sim from [`Component::ports`]
/// (see [`crate::Component`]) — the same declarations the static
/// dependence analyzer consumes, so a run that stays sanitizer-clean has
/// runtime behaviour within its statically declared dependence graph.
#[derive(Debug, Default)]
pub(crate) struct SanitizerTables {
    /// First flat wire index per channel slot.
    pub slot_base: [usize; CHANNEL_SLOTS],
    /// Total wires across all channels (row stride).
    pub total_wires: usize,
    /// `component * total_wires + flat_wire` → declared `Drive`.
    pub drive: Vec<bool>,
    /// `component * total_wires + flat_wire` → declared `Consume`.
    pub consume: Vec<bool>,
    /// Port-less components: exempt — they declare nothing by design and
    /// the dependence graph already treats them conservatively.
    pub opaque: Vec<bool>,
}

/// One raw sanitizer hit, recorded by the pool mid-tick and resolved into
/// a named [`SanitizerViolation`](crate::SanitizerViolation) by the sim
/// after the cycle.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawSanViolation {
    pub component: usize,
    pub cycle: Cycle,
    pub channel: &'static str,
    pub wire: usize,
    pub kind: SanitizerKind,
}

/// The structured record of a refused [`ChannelPool::push`]: who pushed,
/// where, when, and why. Replaces the kernel's former hard panic so a
/// misbehaving component turns into a diagnosable conformance finding
/// instead of a crash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PushRefusal {
    /// Registration index of the component whose tick performed the push,
    /// if the push happened inside a [`Sim`](crate::Sim) tick (resolve it
    /// to a name via [`Sim::component_name`](crate::Sim::component_name)).
    pub component: Option<usize>,
    /// Channel label ("AW", "W", "B", "AR", "R").
    pub channel: &'static str,
    /// Pool-internal wire index within the channel.
    pub wire: usize,
    /// Cycle of the refused push.
    pub cycle: Cycle,
    /// Why the wire refused.
    pub error: PushError,
}

impl fmt::Display for PushRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {:>8}: push on {} wire {} refused ({})",
            self.cycle, self.channel, self.wire, self.error
        )?;
        if let Some(c) = self.component {
            write!(f, " by component #{c}")?;
        }
        Ok(())
    }
}

/// Upper bound on retained [`PushRefusal`] records; further refusals only
/// bump the overflow counter.
const MAX_REFUSALS: usize = 256;

/// Lifetime throughput of one wire, keyed the same way as
/// [`TopoWire`](crate::TopoWire) — the coverage-harvest view of the pool
/// (see [`ChannelPool::wire_activity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireActivity {
    /// Channel label: `"AW"`, `"W"`, `"B"`, `"AR"`, or `"R"`.
    pub channel: &'static str,
    /// Allocation index within the channel.
    pub index: usize,
    /// Beats ever accepted onto the wire.
    pub pushes: u64,
}

/// Owns every wire in a simulated system and hands out typed [`WireId`]
/// handles.
///
/// Centralised ownership lets any number of components share access to the
/// same wires without `Rc<RefCell<…>>`: components receive
/// `&mut ChannelPool` in their tick and address wires by handle.
#[derive(Debug, Default)]
pub struct ChannelPool {
    aw: Lane<AwBeat>,
    w: Lane<WBeat>,
    b: Lane<BBeat>,
    ar: Lane<ArBeat>,
    r: Lane<RBeat>,
    // Beats currently on any wire, maintained push/pop-incrementally so the
    // kernel's idle check is O(1) instead of a walk over every wire.
    in_flight: u64,
    // Records sitting in tap buffers, not yet drained: the kernel drains
    // tap observers in bulk once this reaches its threshold.
    tap_backlog: u64,
    // Registration index of the component currently being ticked, stamped
    // by the kernel so refusals can name their culprit.
    owner: Option<usize>,
    refusals: Vec<PushRefusal>,
    refusals_dropped: u64,
    // Wake-mask accumulators, armed only by the arena kernel (`None` =
    // off). `actor_bit`/`actor_later` describe the component currently
    // ticking in schedule-position space, refreshed per tick.
    wake: Option<Box<WakeTables>>,
    wake_now: u64,
    wake_next: u64,
    wake_any: bool,
    wake_events: u64,
    actor_bit: u64,
    actor_later: u64,
    // Access-sanitizer tables (`None` = sanitizer off, the default; checks
    // cost one `is_some` branch per successful push/pop when off).
    san: Option<SanitizerTables>,
    san_hits: Vec<RawSanViolation>,
}

impl ChannelPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new wire with the given capacity and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new_wire<T: Channel>(&mut self, capacity: usize) -> WireId<T> {
        let lane = T::lane_mut(self);
        let base = lane.arena.len();
        let ring = Ring::new(base, capacity);
        lane.arena.resize_with(base + capacity, || None);
        lane.rings.push(ring);
        lane.taps.push(None);
        WireId::new(lane.rings.len() - 1)
    }

    /// Returns `true` if a push onto `id` at `cycle` would be accepted.
    pub fn can_push<T: Channel>(&self, id: WireId<T>, cycle: Cycle) -> bool {
        T::lane(self).rings[id.index].can_push(cycle)
    }

    /// Pushes a beat; visible to consumers from the next cycle.
    ///
    /// Callers must check [`ChannelPool::can_push`] first. A refused push
    /// (backpressure or double-push) is not a panic: the beat is dropped
    /// and a structured [`PushRefusal`] — component index, channel, wire,
    /// cycle, reason — is recorded and surfaced through
    /// [`ChannelPool::push_refusals`] and the conformance report. Use
    /// [`ChannelPool::try_push`] to handle refusal as data instead.
    pub fn push<T: Channel>(&mut self, id: WireId<T>, cycle: Cycle, beat: T) {
        if let Err(error) = self.try_push(id, cycle, beat) {
            if self.refusals.len() < MAX_REFUSALS {
                self.refusals.push(PushRefusal {
                    component: self.owner,
                    channel: T::LABEL,
                    wire: id.index,
                    cycle,
                    error,
                });
            } else {
                self.refusals_dropped += 1;
            }
        }
    }

    /// Pushes a beat, reporting refusal instead of panicking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] on backpressure, [`PushError::Busy`] on a second
    /// push in the same cycle.
    pub fn try_push<T: Channel>(
        &mut self,
        id: WireId<T>,
        cycle: Cycle,
        beat: T,
    ) -> Result<(), PushError> {
        let lane = T::lane_mut(self);
        let slot = lane.rings[id.index].try_push(cycle)?;
        lane.arena[slot] = Some((cycle, beat));
        let tapped = match &mut lane.taps[id.index] {
            Some(tap) => {
                tap.push((cycle, beat));
                1
            }
            None => 0,
        };
        self.tap_backlog += tapped;
        self.in_flight += 1;
        if let Some(wk) = &self.wake {
            let all = wk.all[wk.slot_base[T::SLOT] + id.index];
            self.wake_now |= all & self.actor_later;
            self.wake_next |= all & !self.actor_bit;
            self.wake_any = true;
            self.wake_events += 1;
        }
        if self.san.is_some() {
            self.san_check(T::SLOT, T::LABEL, id.index, cycle, true);
        }
        Ok(())
    }

    /// Returns the front beat if one is visible at `cycle`.
    pub fn peek<T: Channel>(&self, id: WireId<T>, cycle: Cycle) -> Option<&T> {
        let lane = T::lane(self);
        let slot = lane.rings[id.index].front_candidate(cycle)?;
        match &lane.arena[slot] {
            Some((pushed, beat)) if *pushed < cycle => Some(beat),
            _ => None,
        }
    }

    /// Starts recording every accepted push onto `id` into its tap buffer.
    /// The collector must drain it regularly: read the records with
    /// [`ChannelPool::tap`], then discard them with
    /// [`ChannelPool::clear_tap`].
    pub fn enable_tap<T: Channel>(&mut self, id: WireId<T>) {
        T::lane_mut(self).taps[id.index].get_or_insert_with(Vec::new);
    }

    /// The tapped `(push_cycle, beat)` records of `id` not yet cleared,
    /// oldest first. Empty on an untapped wire.
    pub fn tap<T: Channel>(&self, id: WireId<T>) -> &[(Cycle, T)] {
        T::lane(self).taps[id.index].as_deref().unwrap_or(&[])
    }

    /// Discards the tapped records of `id`, keeping the buffer's
    /// allocation for the next ones. No-op on an untapped wire.
    pub fn clear_tap<T: Channel>(&mut self, id: WireId<T>) {
        let Some(tap) = &mut T::lane_mut(self).taps[id.index] else {
            return;
        };
        let drained = tap.len() as u64;
        tap.clear();
        self.tap_backlog -= drained;
    }

    /// Tapped records pushed but not yet cleared, across all wires (O(1)).
    /// The arena kernel ticks every
    /// [tap observer](crate::Component::tap_observer) once this reaches
    /// its bulk-drain threshold, so it stays bounded by that threshold
    /// plus one executed cycle's pushes.
    pub fn tap_backlog(&self) -> u64 {
        self.tap_backlog
    }

    /// Stamps the component whose tick is currently executing (kernel use;
    /// refusals recorded while an owner is set carry its index).
    pub fn set_owner(&mut self, owner: Option<usize>) {
        self.owner = owner;
    }

    /// Structured records of refused [`ChannelPool::push`] calls, oldest
    /// first (bounded; see [`ChannelPool::refusals_dropped`]). A correct
    /// system keeps this empty.
    pub fn push_refusals(&self) -> &[PushRefusal] {
        &self.refusals
    }

    /// Refusals beyond the retention bound, counted instead of stored.
    pub fn refusals_dropped(&self) -> u64 {
        self.refusals_dropped
    }

    /// Pops the front beat if one is visible at `cycle` (at most once per
    /// wire per cycle).
    pub fn pop<T: Channel>(&mut self, id: WireId<T>, cycle: Cycle) -> Option<T> {
        let lane = T::lane_mut(self);
        let ring = &mut lane.rings[id.index];
        let slot = ring.front_candidate(cycle)?;
        let beat = match &lane.arena[slot] {
            Some((pushed, _)) if *pushed < cycle => {
                ring.commit_pop(cycle);
                lane.arena[slot].take().map(|(_, beat)| beat)
            }
            _ => return None,
        };
        self.in_flight -= 1;
        if let Some(wk) = &self.wake {
            let all = wk.all[wk.slot_base[T::SLOT] + id.index];
            self.wake_now |= all & self.actor_later;
            self.wake_next |= all & !self.actor_later & !self.actor_bit;
            self.wake_any = true;
            self.wake_events += 1;
        }
        if self.san.is_some() {
            self.san_check(T::SLOT, T::LABEL, id.index, cycle, false);
        }
        beat
    }

    /// Number of in-flight beats on the wire.
    pub fn len<T: Channel>(&self, id: WireId<T>) -> usize {
        T::lane(self).rings[id.index].len()
    }

    /// Returns `true` if the wire has no in-flight beats.
    pub fn is_empty<T: Channel>(&self, id: WireId<T>) -> bool {
        T::lane(self).rings[id.index].is_empty()
    }

    /// Occupancy and throughput counters for the wire.
    pub fn stats<T: Channel>(&self, id: WireId<T>) -> WireStats {
        T::lane(self).rings[id.index].stats()
    }

    /// Total number of wires across all five channels (diagnostics).
    pub fn wire_count(&self) -> usize {
        self.aw.rings.len()
            + self.w.rings.len()
            + self.b.rings.len()
            + self.ar.rings.len()
            + self.r.rings.len()
    }

    /// Identity and capacity of every allocated wire, channel by channel
    /// in AW/W/B/AR/R order — the wire side of a
    /// [`Topology`](crate::Topology) snapshot.
    pub fn wire_table(&self) -> Vec<crate::TopoWire> {
        fn rows<T: Channel>(lane: &Lane<T>) -> impl Iterator<Item = crate::TopoWire> + '_ {
            lane.rings
                .iter()
                .enumerate()
                .map(|(index, ring)| crate::TopoWire {
                    channel: T::LABEL,
                    index,
                    capacity: ring.capacity(),
                })
        }
        rows(&self.aw)
            .chain(rows(&self.w))
            .chain(rows(&self.b))
            .chain(rows(&self.ar))
            .chain(rows(&self.r))
            .collect()
    }

    /// Throughput of every allocated wire, channel by channel in
    /// AW/W/B/AR/R order — the wire side of a coverage harvest (see
    /// [`Sim::coverage`](crate::Sim::coverage)). A wire with a nonzero
    /// push count is a topology edge the run actually exercised.
    pub fn wire_activity(&self) -> Vec<WireActivity> {
        fn rows<T: Channel>(lane: &Lane<T>) -> impl Iterator<Item = WireActivity> + '_ {
            lane.rings
                .iter()
                .enumerate()
                .map(|(index, ring)| WireActivity {
                    channel: T::LABEL,
                    index,
                    pushes: ring.stats().total_pushed,
                })
        }
        rows(&self.aw)
            .chain(rows(&self.w))
            .chain(rows(&self.b))
            .chain(rows(&self.ar))
            .chain(rows(&self.r))
            .collect()
    }

    /// Beats currently in flight across all wires (O(1)).
    ///
    /// Zero means no beat is buffered anywhere — the precondition for the
    /// kernel's idle-skip: with empty wires, component wake hints alone
    /// bound when anything can next happen.
    pub fn total_in_flight(&self) -> u64 {
        debug_assert_eq!(
            self.in_flight,
            {
                fn occupancy<T>(lane: &Lane<T>) -> u64 {
                    lane.rings.iter().map(|r| r.len() as u64).sum()
                }
                occupancy(&self.aw)
                    + occupancy(&self.w)
                    + occupancy(&self.b)
                    + occupancy(&self.ar)
                    + occupancy(&self.r)
            },
            "in-flight counter out of sync with wire occupancy"
        );
        self.in_flight
    }

    /// Arms (or disarms, with `None`) the access sanitizer. While armed,
    /// every successful push and pop performed inside a component tick is
    /// checked against the tables; mismatches are recorded, never blocked —
    /// the sanitizer observes, results stay exact.
    pub(crate) fn set_sanitizer(&mut self, tables: Option<SanitizerTables>) {
        self.san = tables;
        if self.san.is_none() {
            self.san_hits.clear();
        }
    }

    /// Checks one successful access against the declared-access tables.
    /// Accesses outside any tick (`owner == None` — construction, direct
    /// harness pokes between runs) are not attributable and not checked.
    fn san_check(
        &mut self,
        slot: usize,
        channel: &'static str,
        wire: usize,
        cycle: Cycle,
        push: bool,
    ) {
        let Some(owner) = self.owner else { return };
        let Some(tables) = self.san.as_ref() else {
            return;
        };
        // Out-of-table owners (components added after the tables were
        // built) and opaque components are exempt.
        if tables.opaque.get(owner).copied().unwrap_or(true) {
            return;
        }
        let flat = owner * tables.total_wires + tables.slot_base[slot] + wire;
        let table = if push { &tables.drive } else { &tables.consume };
        if table.get(flat).copied().unwrap_or(false) {
            return;
        }
        self.san_hits.push(RawSanViolation {
            component: owner,
            cycle,
            channel,
            wire,
            kind: if push {
                SanitizerKind::UndeclaredPush
            } else {
                SanitizerKind::UndeclaredPop
            },
        });
    }

    /// `true` if any sanitizer hit is waiting to be drained (O(1)).
    pub(crate) fn has_san_hits(&self) -> bool {
        !self.san_hits.is_empty()
    }

    /// Moves all recorded sanitizer hits into `out`, oldest first.
    pub(crate) fn drain_san_hits_into(&mut self, out: &mut Vec<RawSanViolation>) {
        out.append(&mut self.san_hits);
    }

    /// Arms the wake-mask accumulators the arena kernel reads.
    pub(crate) fn set_wake_tables(&mut self, tables: Box<WakeTables>) {
        self.wake = Some(tables);
        self.wake_now = 0;
        self.wake_next = 0;
        self.wake_any = false;
        self.actor_bit = 0;
        self.actor_later = !0;
    }

    /// `true` if wake masks are armed.
    pub(crate) fn wake_armed(&self) -> bool {
        self.wake.is_some()
    }

    /// Declares the schedule position of the component about to tick, so
    /// wake accumulation can split same-cycle (later peers) from
    /// next-cycle wakes. Position `u32::MAX` means "outside any tick":
    /// everything wakes both now and next.
    #[inline]
    pub(crate) fn begin_actor(&mut self, pos: u32) {
        if pos == u32::MAX {
            self.actor_bit = 0;
            self.actor_later = !0;
        } else {
            self.actor_bit = 1u64 << pos;
            self.actor_later = !(self.actor_bit | (self.actor_bit - 1));
        }
    }

    /// Drains the pending wake accumulators: `(due_now, due_next,
    /// any_event)` since the previous call.
    #[inline]
    pub(crate) fn take_wakes(&mut self) -> (u64, u64, bool) {
        let out = (self.wake_now, self.wake_next, self.wake_any);
        self.wake_now = 0;
        self.wake_next = 0;
        self.wake_any = false;
        out
    }

    /// Drains the wire-event count accumulated while wake masks were armed
    /// (the arena kernel's `wire_events` contribution).
    pub(crate) fn take_wake_events(&mut self) -> u64 {
        std::mem::take(&mut self.wake_events)
    }

    /// In-flight beats on the wire addressed by `(slot, index)` — the
    /// untyped twin of [`ChannelPool::len`] for kernel bookkeeping.
    pub(crate) fn slot_len(&self, slot: usize, index: usize) -> usize {
        match slot {
            0 => self.aw.rings[index].len(),
            1 => self.w.rings[index].len(),
            2 => self.b.rings[index].len(),
            3 => self.ar.rings[index].len(),
            4 => self.r.rings[index].len(),
            _ => 0,
        }
    }

    /// Wire counts per channel in [`Channel::SLOT`] order.
    pub(crate) fn wire_counts(&self) -> [usize; CHANNEL_SLOTS] {
        [
            self.aw.rings.len(),
            self.w.rings.len(),
            self.b.rings.len(),
            self.ar.rings.len(),
            self.r.rings.len(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::TxnId;

    #[test]
    fn typed_wires_are_independent() {
        let mut pool = ChannelPool::new();
        let w0 = pool.new_wire::<WBeat>(2);
        let b0 = pool.new_wire::<BBeat>(2);
        // Same index, different channels.
        assert_eq!(w0.index(), 0);
        assert_eq!(b0.index(), 0);

        pool.push(w0, 0, WBeat::full(7, true));
        pool.push(b0, 0, BBeat::okay(TxnId::new(1)));
        assert_eq!(pool.pop(w0, 1).map(|b| b.data), Some(7));
        assert_eq!(pool.pop(b0, 1).map(|b| b.id), Some(TxnId::new(1)));
        assert_eq!(pool.wire_count(), 2);
    }

    #[test]
    fn try_push_reports_backpressure() {
        let mut pool = ChannelPool::new();
        let w = pool.new_wire::<WBeat>(1);
        pool.try_push(w, 0, WBeat::full(1, true)).unwrap();
        assert_eq!(
            pool.try_push(w, 1, WBeat::full(2, true)),
            Err(PushError::Full)
        );
        assert_eq!(pool.len(w), 1);
        assert!(!pool.is_empty(w));
        assert_eq!(pool.stats(w).full_stalls, 1);
    }

    #[test]
    fn push_records_structured_refusal() {
        let mut pool = ChannelPool::new();
        let w = pool.new_wire::<WBeat>(1);
        pool.push(w, 0, WBeat::full(1, true));
        assert!(pool.push_refusals().is_empty());
        // Refused pushes no longer panic: the beat is dropped and a
        // structured record names wire, cycle, and reason.
        pool.set_owner(Some(3));
        pool.push(w, 1, WBeat::full(2, true));
        pool.set_owner(None);
        pool.push(w, 1, WBeat::full(3, true));
        let r = pool.push_refusals();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].component, Some(3));
        assert_eq!(r[0].channel, "W");
        assert_eq!(r[0].wire, w.index());
        assert_eq!(r[0].cycle, 1);
        assert_eq!(r[0].error, PushError::Full);
        assert_eq!(r[1].component, None);
        assert_eq!(pool.refusals_dropped(), 0);
        assert!(r[0].to_string().contains("component #3"));
        // The wire still holds only the first beat.
        assert_eq!(pool.len(w), 1);
        assert_eq!(pool.pop(w, 2).map(|b| b.data), Some(1));
    }

    #[test]
    fn refusals_beyond_cap_are_counted() {
        let mut pool = ChannelPool::new();
        let w = pool.new_wire::<WBeat>(1);
        pool.push(w, 0, WBeat::full(0, true));
        for c in 1..=(super::MAX_REFUSALS as u64 + 5) {
            pool.push(w, c, WBeat::full(c, true));
        }
        assert_eq!(pool.push_refusals().len(), super::MAX_REFUSALS);
        assert_eq!(pool.refusals_dropped(), 5);
    }

    #[test]
    fn taps_observe_pushes_per_wire() {
        let mut pool = ChannelPool::new();
        let a = pool.new_wire::<WBeat>(4);
        let b = pool.new_wire::<WBeat>(4);
        pool.enable_tap(a);
        pool.push(a, 0, WBeat::full(1, false));
        pool.push(b, 0, WBeat::full(2, false));
        assert!(pool.tap(b).is_empty()); // untapped: records nothing
        let out = pool.tap(a);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[0].1.data, 1);
        assert_eq!(pool.tap_backlog(), 1);
        pool.clear_tap(a);
        pool.clear_tap(b);
        assert!(pool.tap(a).is_empty());
        assert_eq!(pool.tap_backlog(), 0);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut pool = ChannelPool::new();
        let w = pool.new_wire::<WBeat>(2);
        pool.push(w, 0, WBeat::full(9, false));
        assert_eq!(pool.peek(w, 1).map(|b| b.data), Some(9));
        assert_eq!(pool.peek(w, 1).map(|b| b.data), Some(9));
        assert_eq!(pool.pop(w, 1).map(|b| b.data), Some(9));
    }

    #[test]
    fn handles_are_copy_and_eq() {
        let mut pool = ChannelPool::new();
        let a = pool.new_wire::<WBeat>(1);
        let b = a;
        assert_eq!(a, b);
        let c = pool.new_wire::<WBeat>(1);
        assert_ne!(a, c);
        let dbg = format!("{a:?}");
        assert!(dbg.contains("WireId"));
    }
}
