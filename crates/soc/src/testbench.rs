//! The Cheshire-like testbench: Fig. 5 of the paper as a simulated system.

use axi4::{Addr, SubordinateId, TxnId};
use axi_conformance::{ConformanceReport, ProtocolMonitor, Scoreboard};
use axi_mem::{MemoryConfig, MemoryModel, MmioSubordinate};
use axi_realm::{BusGuard, DesignConfig, RealmRegFile, RealmUnit, RuntimeConfig};
use axi_sim::{AxiBundle, BundleCapacity, ComponentId, KernelStats, Sim, TelemetrySink};
use axi_traffic::{
    CoreModel, CoreWorkload, DmaConfig, DmaModel, LatencyHistogram, LatencyStats, Op,
    ScriptedManager, StallPlan, StallingManager,
};
use axi_xbar::{AddressMap, Crossbar};

/// Base address of the LLC window (DRAM through the last-level cache).
pub const LLC_BASE: Addr = Addr::new(0x8000_0000);
/// Size of the LLC window.
pub const LLC_SIZE: u64 = 16 << 20;
/// Base address of the DSA scratchpad.
pub const SPM_BASE: Addr = Addr::new(0x1000_0000);
/// Size of the scratchpad.
pub const SPM_SIZE: u64 = 1 << 20;
/// Base address of the AXI-REALM configuration register file.
pub const CFG_BASE: Addr = Addr::new(0x0200_0000);
/// Size of the configuration window.
pub const CFG_SIZE: u64 = 1 << 16;

/// Offset inside the LLC window where the core's working set lives.
pub const CORE_BUFFER: Addr = Addr::new(0x8000_0000);
/// Offset inside the LLC window the DMA double-buffers against.
pub const DMA_LLC_BUFFER: Addr = Addr::new(0x8080_0000);
/// Size of the DMA's LLC-side buffer.
pub const DMA_LLC_BUFFER_SIZE: u64 = 256 << 10;

/// Per-manager regulation choice.
#[derive(Clone, Debug)]
pub enum Regulation {
    /// No REALM unit in front of this manager (direct crossbar port).
    None,
    /// A REALM unit with this runtime configuration.
    Realm(RuntimeConfig),
}

/// Everything needed to build a [`Testbench`].
#[derive(Clone, Debug)]
pub struct TestbenchConfig {
    /// The latency-sensitive core's workload.
    pub core: CoreWorkload,
    /// The interfering DMA engine, if present.
    pub dma: Option<DmaConfig>,
    /// A malicious stalling writer, if present (DoS experiments).
    pub staller: Option<StallPlan>,
    /// Regulation in front of the core.
    pub core_regulation: Regulation,
    /// Regulation in front of the DMA.
    pub dma_regulation: Regulation,
    /// Regulation in front of the staller.
    pub staller_regulation: Regulation,
    /// Design parameters shared by all instantiated REALM units.
    pub realm_design: DesignConfig,
    /// Transactions for an unregulated *configuration master* — the manager
    /// that claims the bus guard and programs the REALM units over AXI, as
    /// CVA6 does early in Cheshire's boot flow. Empty = no such manager.
    pub config_script: Vec<Op>,
    /// Attach passive AXI4 protocol monitors to every manager and
    /// subordinate port (plus the downstream side of each REALM unit).
    /// Defaults to on; set `REALM_MONITORS=0` in the environment to default
    /// off, or override this field directly.
    pub monitors: bool,
}

/// Reads the `REALM_MONITORS` environment variable: monitors default on
/// unless it is set to `0`, `off`, or `false`.
pub fn monitors_enabled_by_env() -> bool {
    !matches!(
        std::env::var("REALM_MONITORS").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    )
}

impl TestbenchConfig {
    /// A single-source baseline: only the core, unregulated.
    pub fn single_source(accesses: u64) -> Self {
        Self {
            core: CoreWorkload::susan(CORE_BUFFER, accesses),
            dma: None,
            staller: None,
            core_regulation: Regulation::None,
            dma_regulation: Regulation::None,
            staller_regulation: Regulation::None,
            realm_design: DesignConfig::cheshire(),
            config_script: Vec::new(),
            monitors: monitors_enabled_by_env(),
        }
    }

    /// The paper's worst-case DMA interference pattern.
    pub fn worst_case_dma() -> DmaConfig {
        let mut dma =
            DmaConfig::worst_case((DMA_LLC_BUFFER, DMA_LLC_BUFFER_SIZE), (SPM_BASE, SPM_SIZE));
        dma.id = TxnId::new(1);
        dma
    }
}

/// The assembled system: core + DMA (+ staller) → optional REALM units →
/// crossbar → LLC / SPM / configuration register file.
pub struct Testbench {
    sim: Sim,
    core: ComponentId,
    dma: Option<ComponentId>,
    staller: Option<ComponentId>,
    core_realm: Option<ComponentId>,
    dma_realm: Option<ComponentId>,
    staller_realm: Option<ComponentId>,
    config_master: Option<ComponentId>,
    xbar: ComponentId,
    llc: ComponentId,
    spm: ComponentId,
    monitors: Vec<ComponentId>,
    scoreboard: Scoreboard,
}

/// Summary of one run, the raw material for every figure.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Cycle the core finished its workload.
    pub cycles: u64,
    /// The core's per-access latency aggregate.
    pub core_latency: LatencyStats,
    /// The core's per-access latency histogram.
    pub core_histogram: LatencyHistogram,
    /// Core accesses completed.
    pub core_accesses: u64,
    /// Bytes the DMA moved (read + written).
    pub dma_bytes: u64,
    /// Beats served by the LLC port.
    pub llc_beats: u64,
    /// How the kernel advanced time: executed ticks vs. fast-forwarded
    /// cycles (deterministic — identical across serial and parallel runs).
    pub kernel: KernelStats,
    /// The unified telemetry registry harvested from every component (see
    /// [`Sim::telemetry`]). Component-side counters and histograms in here
    /// are kernel-invariant; the `kernel.*` counters and the event lists
    /// are not, and must stay out of `results/*.json` (trace dumps only).
    pub telemetry: TelemetrySink,
}

impl RunResult {
    /// Core performance relative to a baseline run: baseline time over this
    /// run's time, as a percentage (the y-axis of Fig. 6).
    pub fn performance_pct(&self, baseline: &RunResult) -> f64 {
        baseline.cycles as f64 / self.cycles as f64 * 100.0
    }
}

/// One window of a [`Timeline`]: per-window deltas of the key metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimelineSample {
    /// Cycle at the end of the window.
    pub cycle: u64,
    /// Core accesses completed within the window.
    pub core_accesses: u64,
    /// Mean core access latency within the window, if any completed.
    pub core_mean_latency: Option<f64>,
    /// Bytes the DMA moved within the window (both directions, all
    /// regions).
    pub dma_bytes: u64,
    /// Bytes charged to the DMA's regulated region 0 within the window —
    /// the quantity the budget bounds.
    pub dma_regulated_bytes: u64,
    /// Cycles the DMA's REALM unit spent isolated within the window.
    pub dma_isolated_cycles: u64,
}

/// A sampled run: fixed-width windows of metric deltas, the raw material
/// for time-resolved views of regulation (budget duty cycles, period
/// boundaries, isolation windows).
#[derive(Clone, Debug)]
pub struct Timeline {
    /// Window width in cycles.
    pub window: u64,
    /// Samples in time order.
    pub samples: Vec<TimelineSample>,
}

impl Testbench {
    /// Builds the system.
    pub fn new(config: TestbenchConfig) -> Self {
        let mut sim = Sim::new();
        let cap = BundleCapacity::uniform(4);

        // Manager-side ports (into the crossbar) and the components that
        // feed them, with optional REALM units in between.
        let mut xbar_mgr_ports = Vec::new();
        let mut realm_ids: Vec<Option<ComponentId>> = Vec::new();
        // (name, upstream bundle, downstream bundle if a REALM sits between)
        // for the protocol monitors attached at the end of construction.
        let mut mgr_info: Vec<(&'static str, AxiBundle, Option<AxiBundle>)> = Vec::new();

        let attach = |sim: &mut Sim,
                      regulation: &Regulation,
                      mgr: &str|
         -> (AxiBundle, Option<ComponentId>) {
            let upstream = AxiBundle::new(sim.pool_mut(), cap);
            match regulation {
                Regulation::None => (upstream, None),
                Regulation::Realm(rt) => {
                    let downstream = AxiBundle::new(sim.pool_mut(), cap);
                    let unit =
                        RealmUnit::new(config.realm_design, rt.clone(), upstream, downstream)
                            .named(format!("realm.{mgr}"));
                    let id = sim.add(unit);
                    (upstream, Some(id))
                }
            }
        };

        // Core (manager 0).
        let (core_up, core_realm) = attach(&mut sim, &config.core_regulation, "core");
        let core = sim.add(CoreModel::new(config.core, core_up));
        realm_ids.push(core_realm);
        let core_down = core_realm.map(|id| {
            sim.component::<RealmUnit>(id)
                .expect("just added")
                .downstream()
        });
        xbar_mgr_ports.push(core_down.unwrap_or(core_up));
        mgr_info.push(("core", core_up, core_down));

        // DMA (manager 1).
        let (dma, dma_realm) = match &config.dma {
            Some(dma_cfg) => {
                let (dma_up, dma_realm) = attach(&mut sim, &config.dma_regulation, "dma");
                let id = sim.add(DmaModel::new(*dma_cfg, dma_up));
                let down = dma_realm.map(|r| {
                    sim.component::<RealmUnit>(r)
                        .expect("just added")
                        .downstream()
                });
                xbar_mgr_ports.push(down.unwrap_or(dma_up));
                mgr_info.push(("dma", dma_up, down));
                (Some(id), dma_realm)
            }
            None => (None, None),
        };
        realm_ids.push(dma_realm);

        // Staller (manager 2).
        let (staller, staller_realm) = match &config.staller {
            Some(plan) => {
                let (up, realm) = attach(&mut sim, &config.staller_regulation, "staller");
                let id = sim.add(StallingManager::new(*plan, up));
                let down = realm.map(|r| {
                    sim.component::<RealmUnit>(r)
                        .expect("just added")
                        .downstream()
                });
                xbar_mgr_ports.push(down.unwrap_or(up));
                mgr_info.push(("staller", up, down));
                (Some(id), realm)
            }
            None => (None, None),
        };
        realm_ids.push(staller_realm);

        // Configuration master (last manager, unregulated).
        let config_master = if config.config_script.is_empty() {
            None
        } else {
            let port = AxiBundle::new(sim.pool_mut(), cap);
            let id = sim.add(ScriptedManager::new(port, config.config_script.clone()));
            xbar_mgr_ports.push(port);
            mgr_info.push(("cfgmgr", port, None));
            Some(id)
        };

        // Subordinates: LLC (0), SPM (1), config register file (2).
        let llc_port = AxiBundle::new(sim.pool_mut(), cap);
        let spm_port = AxiBundle::new(sim.pool_mut(), cap);
        let cfg_port = AxiBundle::new(sim.pool_mut(), cap);
        let mut map = AddressMap::new();
        map.add(LLC_BASE, LLC_SIZE, SubordinateId::new(0))
            .expect("non-overlapping static map");
        map.add(SPM_BASE, SPM_SIZE, SubordinateId::new(1))
            .expect("non-overlapping static map");
        map.add(CFG_BASE, CFG_SIZE, SubordinateId::new(2))
            .expect("non-overlapping static map");

        let xbar = sim.add(
            Crossbar::new(map, xbar_mgr_ports, vec![llc_port, spm_port, cfg_port])
                .expect("static ports match the map"),
        );
        let llc = sim.add(MemoryModel::new(
            MemoryConfig::llc(LLC_BASE, LLC_SIZE),
            llc_port,
        ));
        let spm = sim.add(MemoryModel::new(
            MemoryConfig::spm(SPM_BASE, SPM_SIZE),
            spm_port,
        ));

        // Configuration register file behind the bus guard, serving every
        // instantiated REALM unit in manager order.
        let unit_regs: Vec<_> = realm_ids
            .iter()
            .flatten()
            .map(|&id| sim.component::<RealmUnit>(id).expect("realm added").regs())
            .collect();
        let guard = BusGuard::new(RealmRegFile::new(unit_regs));
        let mmio = sim.add(MmioSubordinate::new(guard, CFG_BASE, CFG_SIZE, cfg_port));
        // The register file and the REALM units share state outside the wire
        // graph (`Rc<RefCell<RegState>>`), which the arena kernel cannot see.
        // Declaring the coupling flushes each unit before an MMIO tick (stats
        // reads observe reconciled counters) and wakes it afterwards (config
        // writes take effect immediately, even if the unit was asleep).
        for &id in realm_ids.iter().flatten() {
            sim.couple(mmio, id);
        }

        // Protocol monitors, attached last so functional component indices
        // are identical with monitors on or off. Each manager's upstream
        // port gets one; REALM'd managers also get one on the downstream
        // (crossbar-facing) port, linked for beat conservation; all three
        // subordinate ports close the crossbar boundary.
        let mut monitors = Vec::new();
        let mut scoreboard = Scoreboard::new();
        if config.monitors {
            let mut boundary_mgrs: Vec<String> = Vec::new();
            for (name, up, down) in &mgr_info {
                monitors.push(ProtocolMonitor::attach(&mut sim, *name, *up));
                match down {
                    Some(down) => {
                        let down_name = format!("{name}.xbar");
                        monitors.push(ProtocolMonitor::attach(&mut sim, down_name.clone(), *down));
                        scoreboard = scoreboard.link(*name, down_name.clone());
                        boundary_mgrs.push(down_name);
                    }
                    None => boundary_mgrs.push((*name).to_owned()),
                }
            }
            for (name, port) in [("llc", llc_port), ("spm", spm_port), ("cfgreg", cfg_port)] {
                monitors.push(ProtocolMonitor::attach(&mut sim, name, port));
            }
            let mgr_refs: Vec<&str> = boundary_mgrs.iter().map(String::as_str).collect();
            scoreboard = scoreboard.boundary(&mgr_refs, &["llc", "spm", "cfgreg"]);
        }

        let tb = Self {
            sim,
            core,
            dma,
            staller,
            core_realm: realm_ids[0],
            dma_realm: realm_ids[1],
            staller_realm: realm_ids[2],
            config_master,
            xbar,
            llc,
            spm,
            monitors,
            scoreboard,
        };

        // Elaboration-time analysis before the first cycle, mirroring the
        // monitor auto-attach: on by default, `REALM_LINT=0` opts out.
        // Feasibility findings are warnings (the paper's own Fig. 6b
        // configuration over-subscribes the LLC); only structural errors
        // abort construction.
        if realm_lint::enabled_by_env() {
            realm_lint::apply("testbench", &tb.lint_report());
        }
        tb
    }

    /// The semantic declarations the elaboration-time analyzer checks this
    /// system against: the static address map, each subordinate's peak
    /// service rate (one 8-byte beat per cycle), every instantiated REALM
    /// unit's configuration, the crossbar ID space, and the zero-latency
    /// register coupling from the MMIO frontend into each unit.
    fn lint_model(&self) -> realm_lint::SystemModel {
        /// Peak subordinate service rate: one 64-bit beat per cycle.
        const BYTES_PER_CYCLE: u64 = 8;
        /// Upstream IDs are 4 bits wide in the Cheshire configuration.
        const MAX_TXN_ID: u32 = 15;
        let n_managers = 1
            + usize::from(self.dma.is_some())
            + usize::from(self.staller.is_some())
            + usize::from(self.config_master.is_some());
        let mut model = realm_lint::SystemModel::new()
            .window("llc", LLC_BASE, LLC_SIZE)
            .window("spm", SPM_BASE, SPM_SIZE)
            .window("cfgreg", CFG_BASE, CFG_SIZE)
            .bandwidth("llc", BYTES_PER_CYCLE)
            .bandwidth("spm", BYTES_PER_CYCLE)
            .bandwidth("cfgreg", BYTES_PER_CYCLE)
            .id_space(MAX_TXN_ID, n_managers);
        for (name, id) in [
            ("realm.core", self.core_realm),
            ("realm.dma", self.dma_realm),
            ("realm.staller", self.staller_realm),
        ] {
            let Some(id) = id else { continue };
            let unit = self.sim.component::<RealmUnit>(id).expect("realm present");
            model = model
                .realm(name, unit.design(), unit.active_config().clone())
                // Register writes land in the unit through a shared cell
                // the same cycle the MMIO frontend applies them — the one
                // genuine zero-latency coupling in the system (one-way,
                // so no cycle).
                .comb_edge("mmio", name);
        }
        model
    }

    /// Runs the elaboration-time analyzer (Pass A of `realm-lint`) over
    /// this system and returns every finding.
    pub fn lint_report(&self) -> realm_lint::Report {
        realm_lint::analyze(&self.sim.topology(), &self.lint_model())
    }

    /// Runs until the core's workload completes (or `max_cycles` elapse);
    /// returns `true` on completion.
    pub fn run_until_core_done(&mut self, max_cycles: u64) -> bool {
        let core = self.core;
        self.sim.run_until(max_cycles, |s| {
            s.component::<CoreModel>(core).expect("core").is_done()
        })
    }

    /// Advances the simulation by `cycles`.
    pub fn run(&mut self, cycles: u64) {
        self.sim.run(cycles);
    }

    /// The underlying simulator (for custom probing).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Mutable access to the underlying simulator.
    pub fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// The core model.
    pub fn core(&self) -> &CoreModel {
        self.sim.component(self.core).expect("core present")
    }

    /// The DMA model, if configured.
    pub fn dma(&self) -> Option<&DmaModel> {
        self.dma
            .map(|id| self.sim.component(id).expect("dma present"))
    }

    /// The stalling manager, if configured.
    pub fn staller(&self) -> Option<&StallingManager> {
        self.staller
            .map(|id| self.sim.component(id).expect("staller present"))
    }

    /// The REALM unit in front of the core, if configured.
    pub fn core_realm(&self) -> Option<&RealmUnit> {
        self.core_realm
            .map(|id| self.sim.component(id).expect("realm present"))
    }

    /// The REALM unit in front of the DMA, if configured.
    pub fn dma_realm(&self) -> Option<&RealmUnit> {
        self.dma_realm
            .map(|id| self.sim.component(id).expect("realm present"))
    }

    /// The REALM unit in front of the staller, if configured.
    pub fn staller_realm(&self) -> Option<&RealmUnit> {
        self.staller_realm
            .map(|id| self.sim.component(id).expect("realm present"))
    }

    /// The configuration master, if a script was given.
    pub fn config_master(&self) -> Option<&ScriptedManager> {
        self.config_master
            .map(|id| self.sim.component(id).expect("config master present"))
    }

    /// The crossbar (interference statistics).
    pub fn xbar(&self) -> &Crossbar {
        self.sim.component(self.xbar).expect("xbar present")
    }

    /// The LLC memory model.
    pub fn llc(&self) -> &MemoryModel {
        self.sim.component(self.llc).expect("llc present")
    }

    /// The scratchpad memory model.
    pub fn spm(&self) -> &MemoryModel {
        self.sim.component(self.spm).expect("spm present")
    }

    /// Runs for `windows × window` cycles, sampling per-window deltas of
    /// the key metrics — a time-resolved view of the regulation in action.
    pub fn run_timeline(&mut self, windows: usize, window: u64) -> Timeline {
        let mut samples = Vec::with_capacity(windows);
        let mut prev_accesses = self.core().completed_accesses();
        let mut prev_lat_sum = self.core().latency().sum();
        let mut prev_dma = self.dma().map_or(0, |d| d.bytes_read() + d.bytes_written());
        let mut prev_regulated = self
            .dma_realm()
            .map_or(0, |r| r.monitor().regions()[0].stats.bytes_total);
        let mut prev_isolated = self.dma_realm().map_or(0, |r| r.stats().isolated_cycles);
        for _ in 0..windows {
            self.run(window);
            let accesses = self.core().completed_accesses();
            let lat_sum = self.core().latency().sum();
            let dma = self.dma().map_or(0, |d| d.bytes_read() + d.bytes_written());
            let regulated = self
                .dma_realm()
                .map_or(0, |r| r.monitor().regions()[0].stats.bytes_total);
            let isolated = self.dma_realm().map_or(0, |r| r.stats().isolated_cycles);
            let delta_accesses = accesses - prev_accesses;
            samples.push(TimelineSample {
                cycle: self.sim.cycle(),
                core_accesses: delta_accesses,
                core_mean_latency: (delta_accesses > 0)
                    .then(|| (lat_sum - prev_lat_sum) as f64 / delta_accesses as f64),
                dma_bytes: dma - prev_dma,
                dma_regulated_bytes: regulated - prev_regulated,
                dma_isolated_cycles: isolated - prev_isolated,
            });
            prev_accesses = accesses;
            prev_lat_sum = lat_sum;
            prev_dma = dma;
            prev_regulated = regulated;
            prev_isolated = isolated;
        }
        Timeline { window, samples }
    }

    /// Whether protocol monitors were attached at construction.
    pub fn monitors_enabled(&self) -> bool {
        !self.monitors.is_empty()
    }

    /// Collects the conformance verdict: per-port protocol violations, the
    /// scoreboard's beat-conservation checks across REALM units and the
    /// crossbar, and any structured push refusals from the kernel.
    pub fn conformance_report(&self) -> ConformanceReport {
        ConformanceReport::collect(&self.sim, &self.monitors, &self.scoreboard)
    }

    /// Panics with a full report if any monitor saw a violation. A no-op
    /// when monitors are disabled — except for the access sanitizer
    /// (`REALM_SANITIZE=1`), whose verdict is independent of the monitor
    /// rig: an undeclared access is a declaration bug whether or not
    /// protocol monitors are watching.
    pub fn assert_conformance(&self) {
        let san = self.sim.sanitizer_violations();
        assert!(
            san.is_empty(),
            "access sanitizer recorded {} violation(s) ({} dropped beyond the cap):\n{}",
            san.len(),
            self.sim.sanitizer_violations_dropped(),
            san.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        if self.monitors_enabled() {
            self.conformance_report().assert_clean();
        }
    }

    /// The static dependence partition of this system (Pass C of
    /// `realm-lint`): island decomposition, evaluation schedule, and edge
    /// census. The Cheshire testbench is deliberately one island — the
    /// crossbar wires every manager to every subordinate — so the value
    /// here is the schedule/edge census and the regression that the
    /// partition never silently fragments.
    pub fn partition(&self) -> realm_lint::Partition {
        realm_lint::analyze_deps(&self.sim.topology(), &self.lint_model()).0
    }

    /// Snapshots the run into a [`RunResult`].
    pub fn result(&self) -> RunResult {
        let core = self.core();
        RunResult {
            cycles: core.finished_at().unwrap_or_else(|| self.sim.cycle()),
            core_latency: core.latency(),
            core_histogram: core.latency_histogram(),
            core_accesses: core.completed_accesses(),
            dma_bytes: self.dma().map_or(0, |d| d.bytes_read() + d.bytes_written()),
            llc_beats: self.llc().beats_served(),
            kernel: self.sim.kernel_stats(),
            telemetry: self.sim.telemetry(),
        }
    }

    /// Harvests the unified telemetry registry from every component (a
    /// fresh walk of the hooks; see [`Sim::telemetry`]).
    pub fn telemetry(&self) -> TelemetrySink {
        self.sim.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_source_builds_and_finishes() {
        let mut tb = Testbench::new(TestbenchConfig::single_source(100));
        assert!(tb.run_until_core_done(100_000));
        let r = tb.result();
        assert_eq!(r.core_accesses, 100);
        assert!(r.core_latency.max().unwrap() <= 10);
        assert_eq!(r.dma_bytes, 0);
        assert!(tb.dma().is_none());
        assert!(tb.core_realm().is_none());
    }

    #[test]
    fn contended_system_builds() {
        let mut cfg = TestbenchConfig::single_source(50);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        let mut tb = Testbench::new(cfg);
        assert!(tb.run_until_core_done(5_000_000));
        let r = tb.result();
        assert!(r.dma_bytes > 0);
        assert!(r.core_latency.max().unwrap() >= 256);
        assert!(tb.xbar().manager_stats(0).ar_granted > 0);
        assert!(tb.spm().beats_served() > 0);
    }

    #[test]
    fn timeline_samples_show_budget_duty_cycle() {
        use crate::experiments::llc_regulation;
        let mut cfg = TestbenchConfig::single_source(1_000_000);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.core_regulation = Regulation::Realm(llc_regulation(256, 0, 0));
        // Tight DMA budget: 1 KiB per 1000 cycles → mostly isolated.
        cfg.dma_regulation = Regulation::Realm(llc_regulation(1, 1024, 1_000));
        let mut tb = Testbench::new(cfg);
        tb.run(2_000); // warm up
        let timeline = tb.run_timeline(10, 1_000);
        assert_eq!(timeline.samples.len(), 10);
        assert_eq!(timeline.window, 1_000);
        for s in &timeline.samples {
            // Budget cap holds per window (one in-flight fragment slack).
            assert!(
                s.dma_regulated_bytes <= 1024 + 16,
                "window at {} charged {} regulated bytes",
                s.cycle,
                s.dma_regulated_bytes
            );
            assert!(s.dma_bytes >= s.dma_regulated_bytes);
            assert!(s.dma_isolated_cycles > 400, "mostly isolated: {s:?}");
            assert!(s.core_accesses > 0, "the core keeps progressing");
            assert!(s.core_mean_latency.is_some());
        }
        // Deltas sum to the cumulative counters.
        let total_dma: u64 = timeline.samples.iter().map(|s| s.dma_bytes).sum();
        assert!(total_dma > 0);
    }

    #[test]
    fn regulated_system_builds() {
        let mut cfg = TestbenchConfig::single_source(50);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        let mut rt = RuntimeConfig::open(2);
        rt.frag_len = 1;
        cfg.core_regulation = Regulation::Realm(rt.clone());
        cfg.dma_regulation = Regulation::Realm(rt);
        let mut tb = Testbench::new(cfg);
        assert!(tb.run_until_core_done(5_000_000));
        assert!(tb.core_realm().is_some());
        assert!(tb.dma_realm().is_some());
        assert!(tb.dma_realm().unwrap().stats().fragments_emitted > 0);
        // Fragmented, budget-regulated traffic must still be protocol-legal
        // on both sides of each REALM unit, beat for beat.
        tb.assert_conformance();
    }

    #[test]
    fn monitors_observe_cleanly_and_can_be_disabled() {
        let mut cfg = TestbenchConfig::single_source(50);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.monitors = true;
        let mut tb = Testbench::new(cfg.clone());
        assert!(tb.run_until_core_done(5_000_000));
        assert!(tb.monitors_enabled());
        let report = tb.conformance_report();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.total_violations(), 0);

        // Monitors are passive: disabling them changes nothing observable.
        cfg.monitors = false;
        let mut off = Testbench::new(cfg);
        assert!(off.run_until_core_done(5_000_000));
        assert!(!off.monitors_enabled());
        off.assert_conformance(); // no-op without monitors
        assert_eq!(tb.result().cycles, off.result().cycles);
        assert_eq!(tb.result().llc_beats, off.result().llc_beats);
    }
}
