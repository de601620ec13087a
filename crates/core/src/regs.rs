//! The shared register state between a REALM unit and the configuration
//! register file, plus the memory-mapped register layout.

use std::cell::RefCell;
use std::rc::Rc;

use axi4::{Resp, TxnId};
use axi_mem::MmioDevice;

use crate::config::{DesignConfig, RegionConfig, RuntimeConfig};
use crate::counters::{RegionStats, UnitStats};

/// Status and statistics a unit mirrors into its registers every cycle.
#[derive(Clone, Debug, Default)]
pub struct UnitStatus {
    /// The unit is currently refusing new transactions.
    pub isolated: bool,
    /// No transactions are in flight.
    pub drained: bool,
    /// Unit-level counters.
    pub stats: UnitStats,
    /// Per-region statistics and remaining budget.
    pub regions: Vec<(RegionStats, u64)>,
}

/// Register state shared between one [`RealmUnit`](crate::RealmUnit) and
/// the [`RealmRegFile`]: the register file writes the runtime
/// configuration, the unit writes back status.
#[derive(Clone, Debug)]
pub struct RegState {
    /// Design-time parameters (read-only at runtime).
    pub design: DesignConfig,
    /// Runtime configuration as programmed through the register file.
    pub runtime: RuntimeConfig,
    /// Status mirror maintained by the unit.
    pub status: UnitStatus,
    /// One-shot command: clear all statistics counters (set by writing
    /// CTRL bit 3, consumed by the unit on its next cycle).
    pub clear_stats: bool,
}

/// Shared handle to a unit's register state.
///
/// `Rc<RefCell<…>>` couples the register-file subordinate to its unit the
/// way dedicated configuration wires do in the RTL; the simulation kernel is
/// single-threaded, so this stays panic-free as long as borrows do not
/// outlive a tick phase.
pub type SharedRegs = Rc<RefCell<RegState>>;

/// Creates a shared register cell for one unit.
pub fn shared_regs(design: DesignConfig, runtime: RuntimeConfig) -> SharedRegs {
    let regions = vec![(RegionStats::default(), 0); runtime.regions.len()];
    Rc::new(RefCell::new(RegState {
        design,
        runtime,
        status: UnitStatus {
            regions,
            ..UnitStatus::default()
        },
        clear_stats: false,
    }))
}

/// Byte offsets of the register map (64-bit registers).
pub mod offsets {
    /// First unit's base offset within the register file.
    pub const UNIT_BASE: u64 = 0x40;
    /// Stride between units.
    pub const UNIT_STRIDE: u64 = 0x400;
    /// First region's offset within a unit.
    pub const REGION_BASE: u64 = 0x40;
    /// Stride between regions within a unit.
    pub const REGION_STRIDE: u64 = 0x60;

    /// Control register: bit 0 enable, bit 1 throttle, bit 2 isolate,
    /// bit 3 write-1-to-clear all statistics counters.
    pub const CTRL: u64 = 0x00;
    /// Fragmentation length in beats (intrusive: unit drains first).
    pub const FRAG_LEN: u64 = 0x08;
    /// Status (read-only): bit 0 isolated, bit 1 drained.
    pub const STATUS: u64 = 0x10;
    /// Transactions accepted (read-only).
    pub const TXNS_ACCEPTED: u64 = 0x18;
    /// Fragments emitted (read-only).
    pub const FRAGS_EMITTED: u64 = 0x20;
    /// Cycles spent isolated (read-only).
    pub const ISOLATED_CYCLES: u64 = 0x28;
    /// Downstream stall cycles (read-only).
    pub const DOWNSTREAM_STALLS: u64 = 0x30;
    /// Hardware discovery (read-only): bits [7:0] region count, [15:8]
    /// pending transactions, [31:16] write-buffer depth, bit 32 splitter
    /// present — what a hypervisor probes before programming the unit.
    pub const DESIGN_INFO: u64 = 0x38;

    /// Region: base address.
    pub const R_BASE: u64 = 0x00;
    /// Region: size in bytes.
    pub const R_SIZE: u64 = 0x08;
    /// Region: budget in bytes per period.
    pub const R_BUDGET: u64 = 0x10;
    /// Region: period in cycles.
    pub const R_PERIOD: u64 = 0x18;
    /// Region: remaining budget (read-only).
    pub const R_BUDGET_LEFT: u64 = 0x20;
    /// Region: bytes this period (read-only).
    pub const R_BYTES_PERIOD: u64 = 0x28;
    /// Region: bytes since reset (read-only).
    pub const R_BYTES_TOTAL: u64 = 0x30;
    /// Region: completed transactions (read-only).
    pub const R_TXN_COUNT: u64 = 0x38;
    /// Region: latency sum (read-only).
    pub const R_LAT_SUM: u64 = 0x40;
    /// Region: worst-case latency (read-only).
    pub const R_LAT_MAX: u64 = 0x48;
    /// Region: latency sample count (read-only).
    pub const R_LAT_CNT: u64 = 0x50;

    /// Offset of unit `u`'s register block.
    pub const fn unit(u: usize) -> u64 {
        UNIT_BASE + u as u64 * UNIT_STRIDE
    }

    /// Offset of region `r` within unit `u`.
    pub const fn region(u: usize, r: usize) -> u64 {
        unit(u) + REGION_BASE + r as u64 * REGION_STRIDE
    }
}

/// The AXI-REALM configuration register file: one register block per unit,
/// exposed as an [`MmioDevice`] (wrap it in a
/// [`BusGuard`](crate::BusGuard) and serve it through an
/// `MmioSubordinate`).
#[derive(Debug, Default)]
pub struct RealmRegFile {
    units: Vec<SharedRegs>,
}

impl RealmRegFile {
    /// Creates a register file over the given units' shared registers.
    pub fn new(units: Vec<SharedRegs>) -> Self {
        Self { units }
    }

    /// Number of units served.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    fn locate(&self, offset: u64) -> Option<(usize, u64)> {
        if offset < offsets::UNIT_BASE {
            return None;
        }
        let rel = offset - offsets::UNIT_BASE;
        let unit = (rel / offsets::UNIT_STRIDE) as usize;
        if unit >= self.units.len() {
            return None;
        }
        Some((unit, rel % offsets::UNIT_STRIDE))
    }
}

impl MmioDevice for RealmRegFile {
    fn read(&mut self, offset: u64, _id: TxnId) -> (u64, Resp) {
        let Some((unit, rel)) = self.locate(offset) else {
            return (0, Resp::SlvErr);
        };
        let state = self.units[unit].borrow();
        if rel < offsets::REGION_BASE {
            let value = match rel {
                offsets::CTRL => {
                    u64::from(state.runtime.enabled)
                        | u64::from(state.runtime.throttle) << 1
                        | u64::from(state.runtime.isolate_request) << 2
                }
                offsets::FRAG_LEN => u64::from(state.runtime.frag_len),
                offsets::STATUS => {
                    u64::from(state.status.isolated) | u64::from(state.status.drained) << 1
                }
                offsets::TXNS_ACCEPTED => state.status.stats.txns_accepted,
                offsets::FRAGS_EMITTED => state.status.stats.fragments_emitted,
                offsets::ISOLATED_CYCLES => state.status.stats.isolated_cycles,
                offsets::DOWNSTREAM_STALLS => state.status.stats.downstream_stall_cycles,
                offsets::DESIGN_INFO => {
                    (state.design.num_regions as u64 & 0xff)
                        | (state.design.num_pending as u64 & 0xff) << 8
                        | (state.design.write_buffer_depth as u64 & 0xffff) << 16
                        | u64::from(state.design.splitter_present) << 32
                }
                _ => return (0, Resp::SlvErr),
            };
            return (value, Resp::Okay);
        }
        let region = ((rel - offsets::REGION_BASE) / offsets::REGION_STRIDE) as usize;
        let reg = (rel - offsets::REGION_BASE) % offsets::REGION_STRIDE;
        if region >= state.runtime.regions.len() {
            return (0, Resp::SlvErr);
        }
        let cfg = state.runtime.regions[region];
        let (stats, budget_left) = state
            .status
            .regions
            .get(region)
            .copied()
            .unwrap_or_default();
        let value = match reg {
            offsets::R_BASE => cfg.base.raw(),
            offsets::R_SIZE => cfg.size,
            offsets::R_BUDGET => cfg.budget_max,
            offsets::R_PERIOD => cfg.period,
            offsets::R_BUDGET_LEFT => budget_left,
            offsets::R_BYTES_PERIOD => stats.bytes_this_period,
            offsets::R_BYTES_TOTAL => stats.bytes_total,
            offsets::R_TXN_COUNT => stats.txn_count,
            offsets::R_LAT_SUM => stats.latency.sum(),
            offsets::R_LAT_MAX => stats.latency.max(),
            offsets::R_LAT_CNT => stats.latency.count(),
            _ => return (0, Resp::SlvErr),
        };
        (value, Resp::Okay)
    }

    fn write(&mut self, offset: u64, data: u64, strb: u8, _id: TxnId) -> Resp {
        if strb != 0xff {
            return Resp::SlvErr;
        }
        let Some((unit, rel)) = self.locate(offset) else {
            return Resp::SlvErr;
        };
        let mut state = self.units[unit].borrow_mut();
        if rel < offsets::REGION_BASE {
            match rel {
                offsets::CTRL => {
                    state.runtime.enabled = data & 1 != 0;
                    state.runtime.throttle = data & 2 != 0;
                    state.runtime.isolate_request = data & 4 != 0;
                    if data & 8 != 0 {
                        state.clear_stats = true;
                    }
                    Resp::Okay
                }
                offsets::FRAG_LEN => {
                    if data == 0 || data > 256 {
                        return Resp::SlvErr;
                    }
                    state.runtime.frag_len = data as u16;
                    Resp::Okay
                }
                _ => Resp::SlvErr, // read-only or unmapped
            }
        } else {
            let region = ((rel - offsets::REGION_BASE) / offsets::REGION_STRIDE) as usize;
            let reg = (rel - offsets::REGION_BASE) % offsets::REGION_STRIDE;
            if region >= state.runtime.regions.len() {
                return Resp::SlvErr;
            }
            let cfg: &mut RegionConfig = &mut state.runtime.regions[region];
            match reg {
                offsets::R_BASE => cfg.base = axi4::Addr::new(data),
                offsets::R_SIZE => cfg.size = data,
                offsets::R_BUDGET => cfg.budget_max = data,
                offsets::R_PERIOD => cfg.period = data,
                _ => return Resp::SlvErr, // read-only or unmapped
            }
            Resp::Okay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regfile() -> (RealmRegFile, SharedRegs) {
        let design = DesignConfig::cheshire();
        let runtime = RuntimeConfig::open(design.num_regions);
        let regs = shared_regs(design, runtime);
        (RealmRegFile::new(vec![regs.clone()]), regs)
    }

    const ID: TxnId = TxnId::new(3);

    #[test]
    fn ctrl_roundtrip() {
        let (mut rf, regs) = regfile();
        let off = offsets::unit(0) + offsets::CTRL;
        assert_eq!(rf.write(off, 0b101, 0xff, ID), Resp::Okay);
        assert_eq!(rf.read(off, ID), (0b101, Resp::Okay));
        let state = regs.borrow();
        assert!(state.runtime.enabled);
        assert!(!state.runtime.throttle);
        assert!(state.runtime.isolate_request);
    }

    #[test]
    fn frag_len_validation() {
        let (mut rf, regs) = regfile();
        let off = offsets::unit(0) + offsets::FRAG_LEN;
        assert_eq!(rf.write(off, 16, 0xff, ID), Resp::Okay);
        assert_eq!(regs.borrow().runtime.frag_len, 16);
        assert_eq!(rf.write(off, 0, 0xff, ID), Resp::SlvErr);
        assert_eq!(rf.write(off, 300, 0xff, ID), Resp::SlvErr);
        assert_eq!(regs.borrow().runtime.frag_len, 16, "bad writes ignored");
    }

    #[test]
    fn region_config_roundtrip() {
        let (mut rf, regs) = regfile();
        let base = offsets::region(0, 1);
        rf.write(base + offsets::R_BASE, 0x8000_0000, 0xff, ID);
        rf.write(base + offsets::R_SIZE, 0x1000, 0xff, ID);
        rf.write(base + offsets::R_BUDGET, 8192, 0xff, ID);
        rf.write(base + offsets::R_PERIOD, 1000, 0xff, ID);
        let cfg = regs.borrow().runtime.regions[1];
        assert_eq!(cfg.base.raw(), 0x8000_0000);
        assert_eq!(cfg.size, 0x1000);
        assert_eq!(cfg.budget_max, 8192);
        assert_eq!(cfg.period, 1000);
        assert_eq!(rf.read(base + offsets::R_BUDGET, ID), (8192, Resp::Okay));
    }

    #[test]
    fn status_registers_reflect_mirror() {
        let (mut rf, regs) = regfile();
        {
            let mut s = regs.borrow_mut();
            s.status.isolated = true;
            s.status.stats.txns_accepted = 42;
            s.status.regions[0].1 = 512;
            s.status.regions[0].0.bytes_total = 4096;
        }
        let u = offsets::unit(0);
        assert_eq!(rf.read(u + offsets::STATUS, ID).0 & 1, 1);
        assert_eq!(rf.read(u + offsets::TXNS_ACCEPTED, ID).0, 42);
        let r = offsets::region(0, 0);
        assert_eq!(rf.read(r + offsets::R_BUDGET_LEFT, ID).0, 512);
        assert_eq!(rf.read(r + offsets::R_BYTES_TOTAL, ID).0, 4096);
    }

    #[test]
    fn read_only_registers_reject_writes() {
        let (mut rf, _regs) = regfile();
        let u = offsets::unit(0);
        assert_eq!(rf.write(u + offsets::STATUS, 1, 0xff, ID), Resp::SlvErr);
        assert_eq!(
            rf.write(offsets::region(0, 0) + offsets::R_BUDGET_LEFT, 1, 0xff, ID),
            Resp::SlvErr
        );
    }

    #[test]
    fn unmapped_offsets_error() {
        let (mut rf, _regs) = regfile();
        assert_eq!(rf.read(0x0, ID).1, Resp::SlvErr);
        assert_eq!(rf.read(offsets::unit(5), ID).1, Resp::SlvErr);
        assert_eq!(
            rf.read(offsets::region(0, 7) + offsets::R_BASE, ID).1,
            Resp::SlvErr
        );
        assert_eq!(rf.unit_count(), 1);
    }

    #[test]
    fn three_units_address_independently() {
        let design = DesignConfig::cheshire();
        let units: Vec<SharedRegs> = (0..3)
            .map(|_| shared_regs(design, RuntimeConfig::open(design.num_regions)))
            .collect();
        let mut rf = RealmRegFile::new(units.clone());
        assert_eq!(rf.unit_count(), 3);
        for (u, regs) in units.iter().enumerate() {
            let off = offsets::unit(u) + offsets::FRAG_LEN;
            assert_eq!(rf.write(off, 10 + u as u64, 0xff, ID), Resp::Okay);
            assert_eq!(regs.borrow().runtime.frag_len, 10 + u as u16);
        }
        // Unit 1's region 1 does not alias unit 2's region 0.
        let r11 = offsets::region(1, 1) + offsets::R_BUDGET;
        let r20 = offsets::region(2, 0) + offsets::R_BUDGET;
        rf.write(r11, 111, 0xff, ID);
        rf.write(r20, 222, 0xff, ID);
        assert_eq!(units[1].borrow().runtime.regions[1].budget_max, 111);
        assert_eq!(units[2].borrow().runtime.regions[0].budget_max, 222);
        assert_eq!(units[1].borrow().runtime.regions[0].budget_max, 0);
        // Beyond the last unit: error.
        assert_eq!(rf.read(offsets::unit(3), ID).1, Resp::SlvErr);
    }

    #[test]
    fn design_info_discovery() {
        let (mut rf, _regs) = regfile();
        let off = offsets::unit(0) + offsets::DESIGN_INFO;
        let (info, resp) = rf.read(off, ID);
        assert_eq!(resp, Resp::Okay);
        assert_eq!(info & 0xff, 2, "regions");
        assert_eq!((info >> 8) & 0xff, 8, "pending");
        assert_eq!((info >> 16) & 0xffff, 16, "buffer depth");
        assert_eq!((info >> 32) & 1, 1, "splitter present");
        // Read-only.
        assert_eq!(rf.write(off, 0, 0xff, ID), Resp::SlvErr);
    }

    #[test]
    fn ctrl_clear_bit_latches_command() {
        let (mut rf, regs) = regfile();
        let off = offsets::unit(0) + offsets::CTRL;
        assert!(!regs.borrow().clear_stats);
        // Write enable + clear together: clear latches, enable persists.
        assert_eq!(rf.write(off, 0b1001, 0xff, ID), Resp::Okay);
        assert!(regs.borrow().clear_stats);
        assert!(regs.borrow().runtime.enabled);
        // The clear bit reads back as zero (it is a command, not state).
        assert_eq!(rf.read(off, ID).0 & 8, 0);
        // A write without bit 3 does not cancel a pending clear.
        regs.borrow_mut().clear_stats = true;
        assert_eq!(rf.write(off, 0b0001, 0xff, ID), Resp::Okay);
        assert!(regs.borrow().clear_stats);
    }

    #[test]
    fn partial_strobe_rejected() {
        let (mut rf, _regs) = regfile();
        assert_eq!(
            rf.write(offsets::unit(0) + offsets::CTRL, 1, 0x0f, ID),
            Resp::SlvErr
        );
    }
}
