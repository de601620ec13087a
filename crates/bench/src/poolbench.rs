//! Micro-workloads for the arena `ChannelPool`'s per-cycle hot path: one
//! ring's push/pop and a relay between two rings.
//!
//! The benchmark's `sim.pool_push_pop_ns` and `sim.pool_relay_ns` time
//! these probes.

use axi4::{BBeat, TxnId};
use axi_sim::ChannelPool;

/// Ring capacity used by every workload — the default per-wire depth the
/// simulated bundles run with.
pub const RING_CAP: usize = 8;

/// Beats per window in [`ring_relay_per_cycle`].
const WINDOW: u64 = 6;

fn beat(k: u64) -> BBeat {
    BBeat::okay(TxnId::new((k & 0xffff) as u32))
}

/// One beat relayed per simulated cycle through a pool ring: pop the beat
/// pushed last cycle, push this cycle's — the steady-state per-cycle hot
/// path every wire sees under load. Returns a checksum so the work cannot
/// be elided.
pub fn ring_push_pop(ops: u64) -> u64 {
    let mut pool = ChannelPool::new();
    let wire = pool.new_wire::<BBeat>(RING_CAP);
    let mut sum = 0u64;
    for c in 0..ops {
        if let Some(b) = pool.pop(wire, c) {
            sum = sum.wrapping_add(u64::from(b.id.raw()));
        }
        pool.push(wire, c, beat(c));
    }
    sum
}

/// One beat relayed per cycle between two pool rings, in windows: per
/// window, preload `WINDOW` (six) beats on the source (stamped on consecutive
/// cycles, as a per-cycle producer leaves them), relay them with one `pop`
/// and one `push` per beat and cycle, then drain the destination. Returns
/// a checksum so the work cannot be elided.
pub fn ring_relay_per_cycle(ops: u64) -> u64 {
    let mut pool = ChannelPool::new();
    let src = pool.new_wire::<BBeat>(RING_CAP);
    let dst = pool.new_wire::<BBeat>(RING_CAP);
    let mut sum = 0u64;
    let mut c = 0u64;
    for _ in 0..ops / WINDOW {
        for _ in 0..WINDOW {
            pool.push(src, c, beat(c));
            c += 1;
        }
        let mut moved = 0u64;
        while moved < WINDOW {
            let cycle = c + moved;
            let Some(b) = pool.pop(src, cycle) else { break };
            pool.push(dst, cycle, b);
            moved += 1;
        }
        debug_assert_eq!(moved, WINDOW);
        for _ in 0..moved {
            if let Some(b) = pool.pop(dst, c + 1) {
                sum = sum.wrapping_add(u64::from(b.id.raw()));
            }
            c += 1;
        }
        c += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both probes move every beat they push through to the checksum, so
    /// the timed work cannot be elided.
    #[test]
    fn probes_move_every_beat() {
        // Push/pop: every beat but the last one pushed is popped.
        assert_eq!(ring_push_pop(4096), (0..4095).sum::<u64>());
        // Relay: window `w` preloads the beats of cycles `13w..13w + 6`
        // (six preload cycles, six relay cycles, one spare).
        let relayed: u64 = (0..4096 / WINDOW)
            .flat_map(|w| (0..WINDOW).map(move |j| w * (2 * WINDOW + 1) + j))
            .sum();
        assert_eq!(ring_relay_per_cycle(4096), relayed);
    }
}
