//! Trace replay: drive recorded access traces through the system.
//!
//! Real-time engineers often hold measured address traces rather than
//! synthetic workload models. [`TraceManager`] replays a simple text format
//! (one access per line: `cycle,op,addr,beats`) with the recorded issue
//! times as *earliest* issue times, blocking on completions like the other
//! managers.
//!
//! ```text
//! # cycle, R|W, hex address, beats
//! 100,R,0x80000000,4
//! 140,W,0x80001000,2
//! ```

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use axi4::{Addr, ArBeat, AwBeat, BurstKind, BurstLen, BurstSize, TxnId, WBeat};
use axi_sim::{AxiBundle, Component, Cycle, Histogram, TickCtx};

/// One recorded access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Earliest cycle the access may issue.
    pub cycle: Cycle,
    /// `true` for a write.
    pub is_write: bool,
    /// Start address.
    pub addr: Addr,
    /// Burst length in beats.
    pub beats: u16,
}

/// A parsed access trace.
///
/// Comment lines (`#`-prefixed) and blank lines are skipped.
///
/// ```
/// use axi_traffic::Trace;
///
/// let trace: Trace = "10,R,0x1000,4\n\n20,W,0x2000,1\n".parse()?;
/// assert_eq!(trace.records().len(), 2);
/// assert!(trace.records()[1].is_write);
/// # Ok::<(), axi_traffic::ParseTraceError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// The records, in file order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Builds a trace from records, validating ordering and burst lengths.
    ///
    /// # Errors
    ///
    /// [`ParseTraceError::OutOfOrder`] if cycles decrease,
    /// [`ParseTraceError::BadBeats`] for a length outside 1..=256.
    pub fn from_records(records: Vec<TraceRecord>) -> Result<Self, ParseTraceError> {
        let mut last = 0;
        for (line, r) in records.iter().enumerate() {
            if r.cycle < last {
                return Err(ParseTraceError::OutOfOrder { line: line + 1 });
            }
            last = r.cycle;
            if r.beats == 0 || r.beats > 256 {
                return Err(ParseTraceError::BadBeats {
                    line: line + 1,
                    beats: r.beats,
                });
            }
        }
        Ok(Self { records })
    }
}

/// Trace parsing error, with the 1-based line it occurred on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseTraceError {
    /// A line did not have the four `cycle,op,addr,beats` fields.
    BadLine {
        /// Offending line number.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// Offending line number.
        line: usize,
        /// Which field.
        field: &'static str,
    },
    /// Cycles must be non-decreasing.
    OutOfOrder {
        /// Offending line number.
        line: usize,
    },
    /// Burst length outside 1..=256.
    BadBeats {
        /// Offending line number.
        line: usize,
        /// The rejected value.
        beats: u16,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadLine { line } => {
                write!(f, "line {line}: expected `cycle,op,addr,beats`")
            }
            ParseTraceError::BadField { line, field } => {
                write!(f, "line {line}: could not parse {field}")
            }
            ParseTraceError::OutOfOrder { line } => {
                write!(f, "line {line}: cycles must be non-decreasing")
            }
            ParseTraceError::BadBeats { line, beats } => {
                write!(f, "line {line}: burst length {beats} outside 1..=256")
            }
        }
    }
}

impl Error for ParseTraceError {}

impl FromStr for Trace {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut records = Vec::new();
        for (idx, raw) in s.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
            let [cycle, op, addr, beats] = fields.as_slice() else {
                return Err(ParseTraceError::BadLine { line });
            };
            let cycle: Cycle = cycle.parse().map_err(|_| ParseTraceError::BadField {
                line,
                field: "cycle",
            })?;
            let is_write = match *op {
                "R" | "r" => false,
                "W" | "w" => true,
                _ => return Err(ParseTraceError::BadField { line, field: "op" }),
            };
            let addr_raw = addr
                .strip_prefix("0x")
                .map_or_else(
                    || addr.parse().ok(),
                    |hex| u64::from_str_radix(hex, 16).ok(),
                )
                .ok_or(ParseTraceError::BadField {
                    line,
                    field: "addr",
                })?;
            let beats: u16 = beats.parse().map_err(|_| ParseTraceError::BadField {
                line,
                field: "beats",
            })?;
            records.push(TraceRecord {
                cycle,
                is_write,
                addr: Addr::new(addr_raw),
                beats,
            });
        }
        Self::from_records(records)
    }
}

#[derive(Debug)]
enum State {
    Waiting,
    IssueRead(ArBeat),
    AwaitRead,
    IssueWrite(AwBeat),
    StreamWrite { beats_left: u16 },
    AwaitB,
    Done,
}

/// Replays a [`Trace`] as a blocking manager: each record issues at its
/// recorded cycle at the earliest (later if the previous access is still
/// outstanding), and latency statistics accumulate per access.
#[derive(Debug)]
pub struct TraceManager {
    port: AxiBundle,
    queue: VecDeque<TraceRecord>,
    id: TxnId,
    state: State,
    issued_at: Cycle,
    latency: Histogram,
    completed: u64,
    finished_at: Option<Cycle>,
    name: String,
}

impl TraceManager {
    /// Creates a replay manager for `trace` on `port` using `id` for all
    /// transactions.
    pub fn new(trace: Trace, id: TxnId, port: AxiBundle) -> Self {
        Self {
            port,
            queue: trace.records.into(),
            id,
            state: State::Waiting,
            issued_at: 0,
            latency: Histogram::new(),
            completed: 0,
            finished_at: None,
            name: "replay".to_owned(),
        }
    }

    /// Accesses completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Per-access latency statistics.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// `true` once the whole trace has replayed.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }
}

impl Component for TraceManager {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        self.state = match std::mem::replace(&mut self.state, State::Done) {
            State::Waiting => match self.queue.front() {
                None => {
                    self.finished_at.get_or_insert(ctx.cycle);
                    State::Done
                }
                Some(r) if ctx.cycle >= r.cycle => {
                    let r = self.queue.pop_front().expect("front exists");
                    let len = BurstLen::new(r.beats).expect("validated at parse");
                    if r.is_write {
                        State::IssueWrite(AwBeat::new(
                            self.id,
                            r.addr,
                            len,
                            BurstSize::bus64(),
                            BurstKind::Incr,
                        ))
                    } else {
                        State::IssueRead(ArBeat::new(
                            self.id,
                            r.addr,
                            len,
                            BurstSize::bus64(),
                            BurstKind::Incr,
                        ))
                    }
                }
                Some(_) => State::Waiting,
            },
            State::IssueRead(ar) => {
                if ctx.pool.can_push(self.port.ar, ctx.cycle) {
                    ctx.pool.push(self.port.ar, ctx.cycle, ar);
                    self.issued_at = ctx.cycle;
                    State::AwaitRead
                } else {
                    State::IssueRead(ar)
                }
            }
            State::AwaitRead => match ctx.pool.pop(self.port.r, ctx.cycle) {
                Some(r) if r.last => {
                    self.latency.record(ctx.cycle - self.issued_at);
                    self.completed += 1;
                    State::Waiting
                }
                _ => State::AwaitRead,
            },
            State::IssueWrite(aw) => {
                if ctx.pool.can_push(self.port.aw, ctx.cycle) {
                    let beats = aw.len.beats();
                    ctx.pool.push(self.port.aw, ctx.cycle, aw);
                    self.issued_at = ctx.cycle;
                    State::StreamWrite { beats_left: beats }
                } else {
                    State::IssueWrite(aw)
                }
            }
            State::StreamWrite { beats_left } => {
                if ctx.pool.can_push(self.port.w, ctx.cycle) {
                    let last = beats_left == 1;
                    ctx.pool
                        .push(self.port.w, ctx.cycle, WBeat::full(self.completed, last));
                    if last {
                        State::AwaitB
                    } else {
                        State::StreamWrite {
                            beats_left: beats_left - 1,
                        }
                    }
                } else {
                    State::StreamWrite { beats_left }
                }
            }
            State::AwaitB => {
                if ctx.pool.pop(self.port.b, ctx.cycle).is_some() {
                    self.latency.record(ctx.cycle - self.issued_at);
                    self.completed += 1;
                    State::Waiting
                } else {
                    State::AwaitB
                }
            }
            State::Done => State::Done,
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
            // An empty queue still owes the transition into `Done` (which
            // stamps `finished_at`); a pending record wakes at its earliest
            // recorded issue time.
            State::Waiting => match self.queue.front() {
                None => Some(cycle),
                Some(r) => Some(r.cycle.max(cycle)),
            },
            State::IssueRead(_) | State::IssueWrite(_) | State::StreamWrite { .. } => Some(cycle),
            State::AwaitRead | State::AwaitB | State::Done => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_mem::{MemoryConfig, MemoryModel};
    use axi_sim::Sim;

    #[test]
    fn parse_accepts_comments_and_blank_lines() {
        let trace: Trace = "\
# header
10,R,0x1000,4

20 , W , 0x2000 , 1
30,r,4096,2
"
        .parse()
        .unwrap();
        assert_eq!(trace.records().len(), 3);
        assert_eq!(trace.records()[0].beats, 4);
        assert!(trace.records()[1].is_write);
        assert_eq!(trace.records()[2].addr, Addr::new(4096));
    }

    #[test]
    fn parse_errors_name_the_line() {
        let e = "10,R,0x1000".parse::<Trace>().unwrap_err();
        assert!(matches!(e, ParseTraceError::BadLine { line: 1 }));
        let e = "10,X,0x1000,4".parse::<Trace>().unwrap_err();
        assert!(matches!(
            e,
            ParseTraceError::BadField {
                line: 1,
                field: "op"
            }
        ));
        let e = "10,R,zzz,4".parse::<Trace>().unwrap_err();
        assert!(matches!(e, ParseTraceError::BadField { field: "addr", .. }));
        let e = "20,R,0x0,4\n10,R,0x0,4".parse::<Trace>().unwrap_err();
        assert!(matches!(e, ParseTraceError::OutOfOrder { line: 2 }));
        let e = "10,R,0x0,300".parse::<Trace>().unwrap_err();
        assert!(matches!(e, ParseTraceError::BadBeats { beats: 300, .. }));
        assert!(e.to_string().contains("300"));
    }

    #[test]
    fn replay_honours_recorded_times() {
        let trace: Trace = "0,W,0x100,2\n500,R,0x100,2".parse().unwrap();
        let mut sim = Sim::new();
        let port = AxiBundle::with_defaults(sim.pool_mut());
        let mgr = sim.add(TraceManager::new(trace, TxnId::new(0), port));
        sim.add(MemoryModel::new(
            MemoryConfig::spm(Addr::new(0), 0x1000),
            port,
        ));
        assert!(sim.run_until(2_000, |s| s
            .component::<TraceManager>(mgr)
            .unwrap()
            .is_done()));
        let m = sim.component::<TraceManager>(mgr).unwrap();
        assert_eq!(m.completed(), 2);
        assert_eq!(m.latency().count(), 2);
        assert!(m.latency().max() < 50);
        // The read issued no earlier than cycle 500.
        assert!(sim.cycle() >= 500);
    }

    #[test]
    fn replay_blocks_until_prior_completion() {
        // Two back-to-back records at cycle 0: the second waits for the
        // first's completion (blocking manager).
        let trace: Trace = "0,R,0x0,16\n0,R,0x100,1".parse().unwrap();
        let mut sim = Sim::new();
        let port = AxiBundle::with_defaults(sim.pool_mut());
        let mgr = sim.add(TraceManager::new(trace, TxnId::new(0), port));
        sim.add(MemoryModel::new(
            MemoryConfig::spm(Addr::new(0), 0x1000),
            port,
        ));
        assert!(sim.run_until(2_000, |s| s
            .component::<TraceManager>(mgr)
            .unwrap()
            .is_done()));
        assert_eq!(sim.component::<TraceManager>(mgr).unwrap().completed(), 2);
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let trace: Trace = "# nothing\n".parse().unwrap();
        let mut sim = Sim::new();
        let port = AxiBundle::with_defaults(sim.pool_mut());
        let mgr = sim.add(TraceManager::new(trace, TxnId::new(0), port));
        sim.run(3);
        assert!(sim.component::<TraceManager>(mgr).unwrap().is_done());
    }
}
