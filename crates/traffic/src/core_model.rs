//! The latency-sensitive core model (CVA6 running *Susan*).

use axi4::{Addr, ArBeat, AwBeat, BurstKind, BurstLen, BurstSize, TxnId, WBeat};
use axi_sim::{AxiBundle, Component, Cycle, Histogram, TickCtx};

/// Workload parameters of a [`CoreModel`].
///
/// The model is a blocking, in-order processor: it computes for
/// [`CoreWorkload::compute_cycles`], issues one memory access, waits for it
/// to complete, and repeats — the structure that makes execution time a
/// direct function of memory latency, as for *Susan* on CVA6.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreWorkload {
    /// Total number of memory accesses to perform.
    pub accesses: u64,
    /// Compute cycles between consecutive accesses.
    pub compute_cycles: u64,
    /// First address of the data buffer.
    pub base: Addr,
    /// Buffer size in bytes; the scan wraps inside it.
    pub footprint: u64,
    /// Bytes between consecutive accesses (sequential image scan).
    pub stride: u64,
    /// Every n-th access is a write (0 = reads only).
    pub write_every: u64,
    /// Beats per access (1 = word accesses through a hot LLC).
    pub beats_per_access: u16,
    /// Transaction ID used for every access.
    pub id: TxnId,
}

impl CoreWorkload {
    /// A Susan-like image-processing loop over a 64 KiB buffer: highly
    /// memory-intensive (two compute cycles per access), word-granular,
    /// one write per four accesses.
    pub fn susan(base: Addr, accesses: u64) -> Self {
        Self {
            accesses,
            compute_cycles: 2,
            base,
            footprint: 64 * 1024,
            stride: 8,
            write_every: 4,
            beats_per_access: 1,
            id: TxnId::new(0),
        }
    }
}

#[derive(Debug)]
enum State {
    Compute { until: Cycle },
    IssueRead { ar: ArBeat },
    AwaitRead { issued: Cycle },
    IssueWrite { aw: AwBeat },
    StreamWrite { issued: Cycle, beats_left: u16 },
    AwaitB { issued: Cycle },
    Done,
}

/// A blocking in-order core: the latency-sensitive manager of the paper's
/// evaluation.
///
/// Execution time and per-access latency are the two measurements every
/// figure is built from: *performance* is the ratio of single-source to
/// contended execution time, *worst-case memory access latency* is
/// [`Histogram::max`] over the run.
#[derive(Debug)]
pub struct CoreModel {
    workload: CoreWorkload,
    port: AxiBundle,
    state: State,
    issued_accesses: u64,
    completed_accesses: u64,
    latency: Histogram,
    finished_at: Option<Cycle>,
    name: String,
}

impl CoreModel {
    /// Creates a core executing `workload` on `port`.
    pub fn new(workload: CoreWorkload, port: AxiBundle) -> Self {
        Self {
            workload,
            port,
            state: State::Compute { until: 0 },
            issued_accesses: 0,
            completed_accesses: 0,
            latency: Histogram::new(),
            finished_at: None,
            name: "core".to_owned(),
        }
    }

    /// The workload being executed.
    pub fn workload(&self) -> &CoreWorkload {
        &self.workload
    }

    /// The manager-side AXI port.
    pub fn port(&self) -> AxiBundle {
        self.port
    }

    /// Per-access latencies: exact count, sum, min and max, plus
    /// power-of-two buckets.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Accesses completed so far.
    pub fn completed_accesses(&self) -> u64 {
        self.completed_accesses
    }

    /// Cycle the workload finished, `None` while running.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// Returns `true` once all accesses completed.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn next_addr(&self) -> Addr {
        let offset = (self.issued_accesses * self.workload.stride) % self.workload.footprint;
        self.workload.base + offset
    }

    fn is_write(&self) -> bool {
        self.workload.write_every != 0
            && self.issued_accesses % self.workload.write_every == self.workload.write_every - 1
    }

    fn begin_next(&mut self, cycle: Cycle) -> State {
        if self.issued_accesses >= self.workload.accesses {
            self.finished_at.get_or_insert(cycle);
            return State::Done;
        }
        let addr = self.next_addr();
        let len = BurstLen::new(self.workload.beats_per_access).expect("validated in new");
        if self.is_write() {
            State::IssueWrite {
                aw: AwBeat::new(
                    self.workload.id,
                    addr,
                    len,
                    BurstSize::bus64(),
                    BurstKind::Incr,
                ),
            }
        } else {
            State::IssueRead {
                ar: ArBeat::new(
                    self.workload.id,
                    addr,
                    len,
                    BurstSize::bus64(),
                    BurstKind::Incr,
                ),
            }
        }
    }

    fn complete(&mut self, issued: Cycle, cycle: Cycle) -> State {
        self.latency.record(cycle - issued);
        self.completed_accesses += 1;
        State::Compute {
            until: cycle + self.workload.compute_cycles,
        }
    }
}

impl Component for CoreModel {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        self.state = match std::mem::replace(&mut self.state, State::Done) {
            State::Compute { until } => {
                if ctx.cycle >= until {
                    self.begin_next(ctx.cycle)
                } else {
                    State::Compute { until }
                }
            }
            State::IssueRead { ar } => {
                if ctx.pool.can_push(self.port.ar, ctx.cycle) {
                    ctx.pool.push(self.port.ar, ctx.cycle, ar);
                    self.issued_accesses += 1;
                    State::AwaitRead { issued: ctx.cycle }
                } else {
                    State::IssueRead { ar }
                }
            }
            State::AwaitRead { issued } => {
                if let Some(r) = ctx.pool.pop(self.port.r, ctx.cycle) {
                    if r.last {
                        self.complete(issued, ctx.cycle)
                    } else {
                        State::AwaitRead { issued }
                    }
                } else {
                    State::AwaitRead { issued }
                }
            }
            State::IssueWrite { aw } => {
                if ctx.pool.can_push(self.port.aw, ctx.cycle) {
                    let beats = aw.len.beats();
                    ctx.pool.push(self.port.aw, ctx.cycle, aw);
                    self.issued_accesses += 1;
                    State::StreamWrite {
                        issued: ctx.cycle,
                        beats_left: beats,
                    }
                } else {
                    State::IssueWrite { aw }
                }
            }
            State::StreamWrite { issued, beats_left } => {
                if ctx.pool.can_push(self.port.w, ctx.cycle) {
                    let last = beats_left == 1;
                    // The data value encodes the access index, making write
                    // contents checkable in functional tests.
                    ctx.pool.push(
                        self.port.w,
                        ctx.cycle,
                        WBeat::full(self.issued_accesses, last),
                    );
                    if last {
                        State::AwaitB { issued }
                    } else {
                        State::StreamWrite {
                            issued,
                            beats_left: beats_left - 1,
                        }
                    }
                } else {
                    State::StreamWrite { issued, beats_left }
                }
            }
            State::AwaitB { issued } => {
                if ctx.pool.pop(self.port.b, ctx.cycle).is_some() {
                    self.complete(issued, ctx.cycle)
                } else {
                    State::AwaitB { issued }
                }
            }
            State::Done => {
                self.finished_at.get_or_insert(ctx.cycle);
                State::Done
            }
        };
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Vec<axi_sim::PortDecl> {
        self.port.manager_ports()
    }

    fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
        match &self.state {
            // Nothing happens until the compute phase ends.
            State::Compute { until } => Some((*until).max(cycle)),
            // Wants to push a beat right now.
            State::IssueRead { .. } | State::IssueWrite { .. } | State::StreamWrite { .. } => {
                Some(cycle)
            }
            // Blocked on a response beat; with every wire empty none can
            // arrive until another component acts.
            State::AwaitRead { .. } | State::AwaitB { .. } => None,
            // `finished_at` was set on entry to Done, so ticks are no-ops.
            State::Done => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_mem::{MemoryConfig, MemoryModel};
    use axi_sim::Sim;

    fn run_core(workload: CoreWorkload) -> (Sim, axi_sim::ComponentId) {
        let mut sim = Sim::new();
        let port = AxiBundle::with_defaults(sim.pool_mut());
        let core = sim.add(CoreModel::new(workload, port));
        sim.add(MemoryModel::new(
            MemoryConfig::spm(Addr::new(0x8000_0000), 1 << 20),
            port,
        ));
        assert!(sim.run_until(1_000_000, |s| {
            s.component::<CoreModel>(core).unwrap().is_done()
        }));
        (sim, core)
    }

    #[test]
    fn susan_completes_all_accesses() {
        let (sim, core) = run_core(CoreWorkload::susan(Addr::new(0x8000_0000), 100));
        let c = sim.component::<CoreModel>(core).unwrap();
        assert_eq!(c.completed_accesses(), 100);
        assert_eq!(c.latency().count(), 100);
        assert!(c.finished_at().is_some());
    }

    #[test]
    fn reads_and_writes_mixed() {
        let mut w = CoreWorkload::susan(Addr::new(0x8000_0000), 8);
        w.write_every = 2; // every 2nd access writes
        let (sim, core) = run_core(w);
        let c = sim.component::<CoreModel>(core).unwrap();
        assert_eq!(c.completed_accesses(), 8);
    }

    #[test]
    fn reads_only_when_write_every_zero() {
        let mut w = CoreWorkload::susan(Addr::new(0x8000_0000), 10);
        w.write_every = 0;
        let (sim, core) = run_core(w);
        assert_eq!(
            sim.component::<CoreModel>(core)
                .unwrap()
                .completed_accesses(),
            10
        );
    }

    #[test]
    fn single_source_latency_is_small_and_stable() {
        let (sim, core) = run_core(CoreWorkload::susan(Addr::new(0x8000_0000), 200));
        let lat = sim.component::<CoreModel>(core).unwrap().latency();
        // Direct connection: every access completes within the paper's
        // eight-cycle single-source envelope.
        assert_eq!(lat.count(), 200, "every access records its latency");
        assert!(lat.max() <= 8, "max latency {}", lat.max());
        assert_eq!(lat.min(), lat.max(), "no contention, constant latency");
    }

    #[test]
    fn addresses_wrap_within_footprint() {
        let mut w = CoreWorkload::susan(Addr::new(0x8000_0000), 4);
        w.footprint = 16;
        w.stride = 8;
        w.write_every = 0;
        let (sim, core) = run_core(w);
        // 4 accesses over a 16-byte footprint touch only two words.
        let c = sim.component::<CoreModel>(core).unwrap();
        assert_eq!(c.completed_accesses(), 4);
    }

    #[test]
    fn execution_time_scales_with_compute() {
        let fast = {
            let mut w = CoreWorkload::susan(Addr::new(0x8000_0000), 100);
            w.compute_cycles = 0;
            let (sim, core) = run_core(w);
            sim.component::<CoreModel>(core)
                .unwrap()
                .finished_at()
                .unwrap()
        };
        let slow = {
            let mut w = CoreWorkload::susan(Addr::new(0x8000_0000), 100);
            w.compute_cycles = 20;
            let (sim, core) = run_core(w);
            sim.component::<CoreModel>(core)
                .unwrap()
                .finished_at()
                .unwrap()
        };
        assert!(slow > fast + 100 * 10, "fast={fast} slow={slow}");
    }
}
