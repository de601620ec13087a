//! Seeded fuzz-script generation and greedy shrinking.
//!
//! [`FuzzSpec::generate`] turns a `u64` seed into a script of legal,
//! randomized [`Op`]s for a [`ScriptedManager`](crate::ScriptedManager) —
//! mixed reads, writes, and idle gaps over a configurable address window.
//! Generation is a pure function of `(spec, seed)`, so a failure observed
//! under any oracle (conformance monitors, data checks, bandwidth bounds) is
//! reproduced bit-identically from its printed seed.
//!
//! [`shrink`] then reduces a failing script to a minimal reproducer in two
//! phases: greedy delta debugging first (repeatedly delete chunks of
//! shrinking size while the caller's oracle still reports failure), then
//! parameter minimization over the surviving ops (burst lengths and wait
//! durations step toward 1 while the failure persists). The oracle decides
//! what "failing" means; this module never runs a simulation itself, which
//! keeps the traffic crate independent of any checker.

use axi4::{Addr, ArBeat, AwBeat, BurstKind, BurstLen, BurstSize, TxnId, WriteTxn};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::script::Op;

/// Parameters of a generated fuzz script: where the traffic may go and
/// what shape it takes.
#[derive(Clone, Copy, Debug)]
pub struct FuzzSpec {
    /// Base address of the legal window; must be 8-byte aligned.
    pub base: Addr,
    /// Window size in bytes.
    pub size: u64,
    /// Number of operations to generate.
    pub ops: usize,
    /// Maximum burst length in beats (1..=256).
    pub max_beats: u16,
    /// Maximum idle gap inserted by a `Wait` op, in cycles; 0 disables
    /// waits entirely.
    pub max_wait: u64,
    /// Probability that a transfer op is a read (the rest are writes).
    pub read_ratio: f64,
}

impl FuzzSpec {
    /// A spec with moderate defaults: 32 ops, bursts up to 16 beats,
    /// short idle gaps, balanced reads and writes.
    pub fn new(base: Addr, size: u64) -> Self {
        assert!(
            base.raw().is_multiple_of(8),
            "window base must be 8-byte aligned"
        );
        assert!(size >= 4096, "window must hold at least one 4 KiB page");
        Self {
            base,
            size,
            ops: 32,
            max_beats: 16,
            max_wait: 8,
            read_ratio: 0.5,
        }
    }

    /// Returns a copy generating `ops` operations.
    pub fn with_ops(mut self, ops: usize) -> Self {
        self.ops = ops;
        self
    }

    /// Returns a copy with bursts up to `max_beats` beats.
    pub fn with_max_beats(mut self, max_beats: u16) -> Self {
        assert!((1..=256).contains(&max_beats));
        self.max_beats = max_beats;
        self
    }

    /// Draws a legal (window-contained, non-4K-crossing) INCR burst start
    /// address for a burst of `beats` 8-byte beats.
    fn draw_addr(&self, rng: &mut StdRng, beats: u16) -> Addr {
        let bytes = u64::from(beats) * 8;
        // Rejection-sample 8-byte-aligned starts; windows are >= 4 KiB so
        // legal positions are dense and this terminates fast. The loop is
        // deterministic per seed like every other draw.
        loop {
            let slots = (self.size - bytes) / 8 + 1;
            let addr = self.base.raw() + rng.gen_range(0..slots) * 8;
            if (addr % 4096) + bytes <= 4096 {
                return Addr::new(addr);
            }
        }
    }

    /// Generates the script for `seed`. Pure: equal `(spec, seed)` pairs
    /// produce identical scripts, beat for beat.
    pub fn generate(&self, seed: u64) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut script = Vec::with_capacity(self.ops);
        for i in 0..self.ops {
            if self.max_wait > 0 && rng.gen_bool(0.125) {
                script.push(Op::Wait(rng.gen_range(1..=self.max_wait)));
                continue;
            }
            let beats = rng.gen_range(1..=self.max_beats);
            let addr = self.draw_addr(&mut rng, beats);
            let id = TxnId::new(i as u32 & 0xf);
            let len = BurstLen::new(beats).expect("1..=256 by construction");
            if rng.gen_bool(self.read_ratio) {
                script.push(Op::Read(ArBeat::new(
                    id,
                    addr,
                    len,
                    BurstSize::bus64(),
                    BurstKind::Incr,
                )));
            } else {
                let aw = AwBeat::new(id, addr, len, BurstSize::bus64(), BurstKind::Incr);
                let words = (0..beats).map(|_| rng.gen::<u64>());
                script.push(Op::Write(
                    WriteTxn::from_words(aw, words).expect("legal burst by construction"),
                ));
            }
        }
        script
    }
}

/// Greedily shrinks a failing script to a locally minimal reproducer.
///
/// `still_fails` must return `true` when the given script still triggers
/// the original failure. Two phases:
///
/// 1. **Structural** delta debugging: chunks of decreasing size (half,
///    quarter, …, one op) are deleted as long as the failure persists,
///    until no single op can be removed — the surviving op *set* is
///    1-minimal (assuming a deterministic oracle).
/// 2. **Parameter** minimization: each surviving op's magnitudes (burst
///    length in beats, wait duration in cycles) step toward 1 — jump to
///    1, halve, decrement — keeping every step the oracle still accepts
///    as failing. Addresses and IDs are preserved, and a shortened burst
///    stays legal (same start, strictly contained footprint).
///
/// The input must itself fail; callers should check
/// `still_fails(script)` first and only shrink genuine failures.
pub fn shrink<F: FnMut(&[Op]) -> bool>(script: &[Op], mut still_fails: F) -> Vec<Op> {
    let mut current: Vec<Op> = script.to_vec();
    if current.is_empty() {
        return current;
    }
    let mut chunk = current.len().div_ceil(2);
    loop {
        let mut start = 0;
        let mut removed_any = false;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<Op> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if still_fails(&candidate) {
                current = candidate;
                removed_any = true;
                // Do not advance: new content now sits at `start`.
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            if !removed_any {
                break;
            }
        } else {
            chunk = chunk.div_ceil(2).min(current.len().max(1));
        }
        if current.is_empty() {
            break;
        }
    }
    minimize_params(&mut current, &mut still_fails);
    current
}

/// Candidate smaller values for a magnitude `n > 1`, most aggressive
/// first: 1, n/2, n-1 (deduplicated, all in `1..n`).
fn smaller(n: u64) -> Vec<u64> {
    let mut vals = Vec::new();
    for v in [1, n / 2, n.saturating_sub(1)] {
        if (1..n).contains(&v) && !vals.contains(&v) {
            vals.push(v);
        }
    }
    vals
}

/// Smaller-parameter variants of one op, most aggressive first.
fn param_candidates(op: &Op) -> Vec<Op> {
    match op {
        Op::Wait(n) => smaller(*n).into_iter().map(Op::Wait).collect(),
        Op::Read(ar) => smaller(u64::from(ar.len.beats()))
            .into_iter()
            .map(|beats| {
                let mut shorter = *ar;
                shorter.len = BurstLen::new(beats as u16).expect("1..n stays legal");
                Op::Read(shorter)
            })
            .collect(),
        Op::Write(txn) => smaller(u64::from(txn.aw().len.beats()))
            .into_iter()
            .map(|beats| {
                let (mut aw, mut data) = txn.clone().into_parts();
                aw.len = BurstLen::new(beats as u16).expect("1..n stays legal");
                data.truncate(beats as usize);
                data.last_mut().expect("beats >= 1").last = true;
                Op::Write(WriteTxn::new(aw, data).expect("shortened burst stays legal"))
            })
            .collect(),
    }
}

/// Phase 2 of [`shrink`]: greedily lowers each op's magnitudes while the
/// oracle still fails. Every accepted step strictly decreases one
/// magnitude, so the pass terminates; the outer loop re-sweeps until a
/// full pass accepts nothing (oracles may couple ops).
fn minimize_params<F: FnMut(&[Op]) -> bool>(current: &mut [Op], still_fails: &mut F) {
    let mut progress = true;
    while progress {
        progress = false;
        for i in 0..current.len() {
            loop {
                let accepted = param_candidates(&current[i]).into_iter().find(|cand| {
                    let mut candidate = current.to_vec();
                    candidate[i] = cand.clone();
                    still_fails(&candidate)
                });
                match accepted {
                    Some(cand) => {
                        current[i] = cand;
                        progress = true;
                    }
                    None => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FuzzSpec {
        FuzzSpec::new(Addr::new(0x8000_0000), 64 * 1024)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = spec().generate(42);
        let b = spec().generate(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = spec().generate(43);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "seeds must matter");
        assert_eq!(a.len(), spec().ops);
    }

    #[test]
    fn generated_bursts_are_legal() {
        for seed in 0..20 {
            for op in spec().with_ops(64).generate(seed) {
                match op {
                    Op::Read(ar) => {
                        ar.validate().expect("generated reads must be legal");
                        assert!(ar.addr.raw() >= 0x8000_0000);
                        assert!(ar.addr.raw() + ar.total_bytes() <= 0x8000_0000 + 64 * 1024);
                    }
                    Op::Write(txn) => {
                        let (aw, beats) = txn.into_parts();
                        aw.validate().expect("generated writes must be legal");
                        assert_eq!(beats.len(), usize::from(aw.len.beats()));
                        assert!(beats.last().unwrap().last);
                    }
                    Op::Wait(cycles) => assert!((1..=8).contains(&cycles)),
                }
            }
        }
    }

    #[test]
    fn shrink_finds_single_culprit() {
        // Failure = script contains a Wait of exactly 7 cycles.
        let mut script = spec().with_ops(40).generate(7);
        script[23] = Op::Wait(7);
        let is_bad = |s: &[Op]| s.iter().any(|op| matches!(op, Op::Wait(7)));
        assert!(is_bad(&script));
        let minimal = shrink(&script, |s| is_bad(s));
        assert_eq!(minimal.len(), 1, "1-minimal: only the culprit remains");
        assert!(matches!(minimal[0], Op::Wait(7)));
    }

    #[test]
    fn shrink_keeps_interacting_pair() {
        // Failure requires BOTH sentinel ops — shrink must keep exactly the
        // pair even though they are far apart.
        let mut script = spec().with_ops(50).generate(9);
        script[3] = Op::Wait(101);
        script[47] = Op::Wait(102);
        let is_bad = |s: &[Op]| {
            s.iter().any(|op| matches!(op, Op::Wait(101)))
                && s.iter().any(|op| matches!(op, Op::Wait(102)))
        };
        let minimal = shrink(&script, |s| is_bad(s));
        assert_eq!(minimal.len(), 2);
    }

    #[test]
    fn shrink_minimizes_parameters_after_structure() {
        // Failure = the script reads from the window's upper half. The
        // structural phase alone kept the culprit read with its original
        // burst length; the parameter phase must shrink it to one beat.
        let half = 0x8000_0000 + 32 * 1024;
        let script = spec().with_ops(40).generate(3);
        let is_bad = |s: &[Op]| {
            s.iter()
                .any(|op| matches!(op, Op::Read(ar) if ar.addr.raw() >= half))
        };
        // Precondition: this seed's culprit read is a multi-beat burst, so
        // the parameter phase has real work to do.
        let culprit_beats: Vec<u16> = script
            .iter()
            .filter_map(|op| match op {
                Op::Read(ar) if ar.addr.raw() >= half => Some(ar.len.beats()),
                _ => None,
            })
            .collect();
        assert!(
            culprit_beats.iter().any(|&b| b > 1),
            "seed must generate a multi-beat upper-half read (got {culprit_beats:?})"
        );
        let minimal = shrink(&script, |s| is_bad(s));
        assert_eq!(minimal.len(), 1, "structural phase keeps one culprit");
        let Op::Read(ar) = &minimal[0] else {
            panic!("culprit must be a read, got {:?}", minimal[0]);
        };
        assert!(ar.addr.raw() >= half);
        assert_eq!(
            ar.len.beats(),
            1,
            "parameter phase must shrink the surviving burst to one beat"
        );
    }

    #[test]
    fn shrink_minimizes_wait_durations() {
        // Failure = total wait time >= 5 cycles. Structure keeps some Wait
        // ops; parameters must then descend to the smallest failing values.
        let script = vec![
            Op::Wait(40),
            Op::Read(ArBeat::new(
                TxnId::new(0),
                Addr::new(0x8000_0000),
                BurstLen::new(4).unwrap(),
                BurstSize::bus64(),
                BurstKind::Incr,
            )),
            Op::Wait(30),
        ];
        let total_wait = |s: &[Op]| {
            s.iter()
                .map(|op| if let Op::Wait(n) = op { *n } else { 0 })
                .sum::<u64>()
        };
        let minimal = shrink(&script, |s| total_wait(s) >= 5);
        assert_eq!(minimal.len(), 1, "one wait suffices");
        assert_eq!(total_wait(&minimal), 5, "wait shrinks to the threshold");
    }

    #[test]
    fn shrink_is_deterministic() {
        let script = spec().with_ops(30).generate(5);
        let oracle = |s: &[Op]| s.len() >= 3; // fails while 3+ ops remain
        let a = shrink(&script, oracle);
        let b = shrink(&script, oracle);
        assert_eq!(a.len(), 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
