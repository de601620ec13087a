//! Bounded, timestamped queues modelling registered channel hops.
//!
//! Storage is a fixed ring buffer sized at construction: a wire never
//! allocates after `new`, and the pool variant packs every ring of a
//! channel into one contiguous arena (see `pool.rs`). The queue metadata
//! (head/len/one-push-one-pop stamps/stats) lives in [`Ring`], shared
//! between the standalone [`Wire`] and the pool's lanes so both enforce
//! exactly the same register-per-hop semantics.

use std::error::Error;
use std::fmt;

use crate::Cycle;

/// Why a push onto a [`Wire`] was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushError {
    /// The wire's bounded queue is full — downstream backpressure.
    Full,
    /// The wire already accepted a beat this cycle (one beat per cycle).
    Busy,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full => f.write_str("wire queue is full"),
            PushError::Busy => f.write_str("wire already accepted a beat this cycle"),
        }
    }
}

impl Error for PushError {}

/// Occupancy and throughput counters of a [`Wire`], for congestion analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WireStats {
    /// Total number of items ever pushed.
    pub total_pushed: u64,
    /// Highest queue occupancy observed.
    pub high_water: usize,
    /// Number of pushes refused because the queue was full.
    pub full_stalls: u64,
}

/// Sentinel for "no cycle recorded yet" in [`Ring`] stamps. The simulation
/// never reaches cycle `u64::MAX`, so the sentinel can share the `Cycle`
/// domain and the hot-path comparisons stay branch-free integer compares.
pub(crate) const NO_CYCLE: Cycle = Cycle::MAX;

/// Queue metadata of one ring buffer: position in the backing arena plus
/// the register-per-hop guards (one push and one pop per cycle).
///
/// The ring itself holds no items — callers own a slot array (`Wire` a
/// private one, the pool one arena per channel) and ask the ring which
/// slot to read or write. Indices are `u32`: a wire capacity beyond 4
/// billion beats is not a simulation, it's a bug.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ring {
    base: u32,
    cap: u32,
    head: u32,
    len: u32,
    last_push: Cycle,
    last_pop: Cycle,
    stats: WireStats,
}

impl Ring {
    /// Creates ring metadata for `capacity` slots starting at arena index
    /// `base`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity wire could never
    /// transport anything.
    pub(crate) fn new(base: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "wire capacity must be at least 1");
        assert!(capacity <= u32::MAX as usize, "wire capacity exceeds u32");
        Self {
            base: base as u32,
            cap: capacity as u32,
            head: 0,
            len: 0,
            last_push: NO_CYCLE,
            last_pop: NO_CYCLE,
            stats: WireStats::default(),
        }
    }

    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.cap as usize
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn stats(&self) -> WireStats {
        self.stats
    }

    #[inline]
    pub(crate) fn can_push(&self, cycle: Cycle) -> bool {
        self.len < self.cap && self.last_push != cycle
    }

    /// Arena index of the slot a push would write next.
    #[inline]
    fn tail_slot(&self) -> usize {
        let mut pos = self.head + self.len;
        if pos >= self.cap {
            pos -= self.cap;
        }
        (self.base + pos) as usize
    }

    /// Arena index of the current front beat (only valid if `len > 0`).
    #[inline]
    fn front_slot(&self) -> usize {
        (self.base + self.head) as usize
    }

    /// Claims the tail slot for a push at `cycle`: enforces the
    /// one-push-per-cycle and capacity guards, stamps `last_push`, bumps
    /// stats, and returns the arena slot the caller must now fill.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] on backpressure, [`PushError::Busy`] if a beat
    /// was already pushed this cycle.
    #[inline]
    pub(crate) fn try_push(&mut self, cycle: Cycle) -> Result<usize, PushError> {
        if self.last_push == cycle {
            return Err(PushError::Busy);
        }
        if self.len >= self.cap {
            self.stats.full_stalls += 1;
            return Err(PushError::Full);
        }
        let slot = self.tail_slot();
        self.len += 1;
        self.last_push = cycle;
        self.stats.total_pushed += 1;
        if self.len as usize > self.stats.high_water {
            self.stats.high_water = self.len as usize;
        }
        Ok(slot)
    }

    /// Arena slot of the front beat if the one-pop-per-cycle guard allows
    /// a pop (or peek) at `cycle`. The caller must still check the beat's
    /// push stamp for visibility (`pushed < cycle`).
    #[inline]
    pub(crate) fn front_candidate(&self, cycle: Cycle) -> Option<usize> {
        if self.len == 0 || self.last_pop == cycle {
            None
        } else {
            Some(self.front_slot())
        }
    }

    /// Commits a pop at `cycle`: advances the head and stamps `last_pop`.
    /// Call only after `front_candidate` returned a slot whose beat is
    /// visible.
    #[inline]
    pub(crate) fn commit_pop(&mut self, cycle: Cycle) {
        self.head += 1;
        if self.head >= self.cap {
            self.head = 0;
        }
        self.len -= 1;
        self.last_pop = cycle;
    }
}

/// A bounded queue with register-per-hop timing: an item pushed at cycle *t*
/// becomes visible at *t + 1*, and at most one item may be pushed and one
/// popped per cycle.
///
/// This is the kernel's model of a registered hardware FIFO between two
/// components; see the crate docs for the rationale. Storage is a fixed
/// ring buffer — no per-push allocation.
#[derive(Clone, Debug)]
pub struct Wire<T> {
    slots: Vec<Option<(Cycle, T)>>,
    ring: Ring,
    // When tapped, every accepted push is also appended here (push cycle +
    // payload) until a collector drains it — the exactly-once observation
    // stream protocol monitors are built on.
    tap: Option<Vec<(Cycle, T)>>,
}

impl<T> Wire<T> {
    /// Creates a wire holding at most `capacity` in-flight items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity wire could never
    /// transport anything.
    pub fn new(capacity: usize) -> Self {
        let ring = Ring::new(0, capacity);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Self {
            slots,
            ring,
            tap: None,
        }
    }

    /// Starts recording every accepted push into the tap buffer.
    ///
    /// Unlike peek-based probing, the tap sees each beat exactly once, in
    /// push order, with its push cycle — even when identical payloads
    /// follow each other or a consumer pops the beat in the same cycle a
    /// peeker would have looked. A collector must call
    /// [`Wire::drain_tap_into`] regularly (ticked components do so every
    /// executed cycle) or the buffer grows unboundedly.
    pub fn enable_tap(&mut self) {
        self.tap.get_or_insert_with(Vec::new);
    }

    /// Returns `true` if pushes are being recorded.
    pub fn is_tapped(&self) -> bool {
        self.tap.is_some()
    }

    /// Moves all tapped `(push_cycle, beat)` records into `out`, oldest
    /// first, clearing the tap buffer. No-op on an untapped wire.
    pub fn drain_tap_into(&mut self, out: &mut Vec<(Cycle, T)>) {
        if let Some(tap) = &mut self.tap {
            out.append(tap);
        }
    }

    /// Returns `true` if a push at `cycle` would be accepted.
    pub fn can_push(&self, cycle: Cycle) -> bool {
        self.ring.can_push(cycle)
    }

    /// Pushes an item at `cycle`; it becomes visible to `pop` from
    /// `cycle + 1`.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] on backpressure, [`PushError::Busy`] if a beat
    /// was already pushed this cycle.
    pub fn try_push(&mut self, cycle: Cycle, item: T) -> Result<(), PushError>
    where
        T: Clone,
    {
        let slot = self.ring.try_push(cycle)?;
        if let Some(tap) = &mut self.tap {
            tap.push((cycle, item.clone()));
        }
        self.slots[slot] = Some((cycle, item));
        Ok(())
    }

    /// Returns a reference to the front item if one is visible at `cycle`
    /// and it has not been popped this cycle.
    pub fn peek(&self, cycle: Cycle) -> Option<&T> {
        let slot = self.ring.front_candidate(cycle)?;
        match &self.slots[slot] {
            Some((pushed, item)) if *pushed < cycle => Some(item),
            _ => None,
        }
    }

    /// Pops the front item if one is visible at `cycle`; at most one pop
    /// succeeds per cycle.
    pub fn pop(&mut self, cycle: Cycle) -> Option<T> {
        let slot = self.ring.front_candidate(cycle)?;
        match &self.slots[slot] {
            Some((pushed, _)) if *pushed < cycle => {
                self.ring.commit_pop(cycle);
                self.slots[slot].take().map(|(_, item)| item)
            }
            _ => None,
        }
    }

    /// Number of items currently in flight (visible or not).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` if no items are in flight.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The maximum number of in-flight items.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Occupancy and throughput counters.
    pub fn stats(&self) -> WireStats {
        self.ring.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_visible_next_cycle() {
        let mut w = Wire::new(4);
        w.try_push(5, "a").unwrap();
        assert!(w.peek(5).is_none());
        assert_eq!(w.peek(6), Some(&"a"));
        assert_eq!(w.pop(6), Some("a"));
        assert!(w.is_empty());
    }

    #[test]
    fn one_push_per_cycle() {
        let mut w = Wire::new(4);
        w.try_push(0, 1).unwrap();
        assert_eq!(w.try_push(0, 2), Err(PushError::Busy));
        assert!(!w.can_push(0));
        assert!(w.can_push(1));
        w.try_push(1, 2).unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn one_pop_per_cycle() {
        let mut w = Wire::new(4);
        w.try_push(0, 1).unwrap();
        w.try_push(1, 2).unwrap();
        assert_eq!(w.pop(2), Some(1));
        // Second item was pushed at cycle 1, so visible at 2 — but only one
        // pop per cycle is allowed.
        assert_eq!(w.pop(2), None);
        assert_eq!(w.peek(2), None);
        assert_eq!(w.pop(3), Some(2));
    }

    #[test]
    fn capacity_backpressure() {
        let mut w = Wire::new(2);
        w.try_push(0, 1).unwrap();
        w.try_push(1, 2).unwrap();
        assert_eq!(w.try_push(2, 3), Err(PushError::Full));
        assert!(!w.can_push(2));
        assert_eq!(w.stats().full_stalls, 1);
        // Draining frees a slot.
        assert_eq!(w.pop(2), Some(1));
        assert!(w.can_push(3));
    }

    #[test]
    fn stats_track_throughput() {
        let mut w = Wire::new(3);
        for c in 0..3 {
            w.try_push(c, c).unwrap();
        }
        let s = w.stats();
        assert_eq!(s.total_pushed, 3);
        assert_eq!(s.high_water, 3);
        assert_eq!(s.full_stalls, 0);
        assert_eq!(w.capacity(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Wire::<u8>::new(0);
    }

    #[test]
    fn tap_sees_every_push_exactly_once() {
        let mut w = Wire::new(2);
        assert!(!w.is_tapped());
        w.enable_tap();
        assert!(w.is_tapped());
        // Two identical payloads back to back — a peek-based observer would
        // dedupe them away; the tap must not.
        w.try_push(0, 7u64).unwrap();
        w.try_push(1, 7u64).unwrap();
        assert_eq!(w.try_push(2, 8), Err(PushError::Full));
        let mut out = Vec::new();
        w.drain_tap_into(&mut out);
        assert_eq!(out, [(0, 7), (1, 7)]);
        // Drained: nothing left, refusals never recorded.
        out.clear();
        w.drain_tap_into(&mut out);
        assert!(out.is_empty());
        // Consumption does not disturb the tap.
        assert_eq!(w.pop(2), Some(7));
        w.try_push(2, 9).unwrap();
        w.drain_tap_into(&mut out);
        assert_eq!(out, [(2, 9)]);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut w = Wire::new(8);
        for c in 0..5u64 {
            w.try_push(c, c * 10).unwrap();
        }
        let mut out = Vec::new();
        let mut cycle = 5;
        while let Some(v) = w.pop(cycle) {
            out.push(v);
            cycle += 1;
        }
        assert_eq!(out, [0, 10, 20, 30, 40]);
    }

    #[test]
    fn ring_wraps_without_reordering() {
        // Exercise head wrap-around: fill, drain, refill repeatedly on a
        // small ring and check FIFO order survives the wrap.
        let mut w = Wire::new(3);
        let mut cycle = 0u64;
        let mut expect = 0u64;
        for round in 0..5u64 {
            for i in 0..3 {
                w.try_push(cycle, round * 3 + i).unwrap();
                cycle += 1;
            }
            for _ in 0..3 {
                assert_eq!(w.pop(cycle), Some(expect));
                expect += 1;
                cycle += 1;
            }
            assert!(w.is_empty());
        }
        assert_eq!(w.stats().total_pushed, 15);
    }
}
