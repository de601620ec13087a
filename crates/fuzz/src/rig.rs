//! The fuzz rig: builds and runs the monitored system a [`SystemSpec`]
//! describes — N scripted managers, each behind a named REALM unit, an
//! N×1 crossbar, one memory — and harvests coverage, conformance, and
//! per-manager outcomes.

use axi4::SubordinateId;
use axi_conformance::{ConformanceReport, ProtocolMonitor, Scoreboard};
use axi_mem::{MemoryConfig, MemoryModel};
use axi_realm::{DesignConfig, RealmUnit};
use axi_sim::{AxiBundle, BundleCapacity, ComponentId, CoverageMap, KernelStats, Sim};
use axi_traffic::ScriptedManager;
use axi_xbar::{AddressMap, Crossbar};

use crate::spec::{SystemSpec, WINDOW_BASE, WINDOW_SIZE};

/// Simulation-cycle cap for any valid spec. The spec invariants (at
/// least one beat of budget per at most 1024-cycle period, bounded
/// script sizes) keep the analytical worst case under ~2M cycles; runs
/// hitting this cap are reported unfinished, which every consumer
/// treats as a failure.
pub const MAX_RUN_CYCLES: u64 = 6_000_000;

/// Post-run facts about one manager.
#[derive(Clone, Debug)]
pub struct ManagerOutcome {
    /// Cycle the manager's last completion arrived (`None` when the
    /// script has no transfers).
    pub finish: Option<u64>,
    /// Completed transactions.
    pub completions: usize,
    /// Completions carrying `SLVERR`/`DECERR`.
    pub err_resps: usize,
}

/// Everything one rig run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// `true` when every manager drained before [`MAX_RUN_CYCLES`].
    pub finished: bool,
    /// Final simulation cycle.
    pub cycle: u64,
    /// Aggregated monitor + scoreboard verdict.
    pub conformance: ConformanceReport,
    /// Per-manager completion facts, in spec order.
    pub managers: Vec<ManagerOutcome>,
    /// The run's coverage harvest (see
    /// [`Sim::coverage`](axi_sim::Sim::coverage)), extended with the
    /// telemetry-delta layer: histogram-bucket occupancy from the
    /// telemetry registry, so latency-distribution shifts guide the
    /// campaign even when no new wire or rule fired.
    pub coverage: CoverageMap,
    /// The run's full telemetry registry (see
    /// [`Sim::telemetry`](axi_sim::Sim::telemetry)). Component-side
    /// counters/histograms in here are kernel-invariant; `kernel.*`
    /// counters are not.
    pub telemetry: axi_sim::TelemetrySink,
    /// Kernel throughput counters.
    pub kernel: KernelStats,
    /// Access-sanitizer violations recorded during the run (including any
    /// dropped beyond the in-sim cap). Always zero unless the process runs
    /// with `REALM_SANITIZE=1`.
    pub sanitizer: usize,
}

impl RunOutcome {
    /// `true` when the run drained, no monitor or scoreboard rule fired,
    /// and the access sanitizer (when armed) saw only declared accesses —
    /// the baseline pass criterion before the bandwidth oracle.
    pub fn clean(&self) -> bool {
        self.finished && self.conformance.is_clean() && self.sanitizer == 0
    }
}

/// One constructed rig, ready to run or analyze.
struct Rig {
    sim: Sim,
    mgrs: Vec<ComponentId>,
    monitors: Vec<ComponentId>,
    scoreboard: Scoreboard,
}

/// Builds the rig for `spec` without running it and returns the full
/// lint report (topology rules + system-model rules) — construction-time
/// validation for mutation tests and corpus gating.
pub fn lint_spec(spec: &SystemSpec) -> realm_lint::Report {
    let rig = build(spec);
    realm_lint::analyze(&rig.sim.topology(), &spec.model())
}

/// Runs `spec` to completion (or the cycle cap) and harvests everything.
pub fn run_spec(spec: &SystemSpec) -> RunOutcome {
    debug_assert!(spec.validate().is_ok(), "run_spec wants validated specs");
    let Rig {
        mut sim,
        mgrs,
        monitors,
        scoreboard,
    } = build(spec);

    let finished = sim.run_until(MAX_RUN_CYCLES, |s| {
        mgrs.iter()
            .all(|&id| s.component::<ScriptedManager>(id).expect("mgr").is_done())
    });
    let conformance = ConformanceReport::collect(&sim, &monitors, &scoreboard);

    let managers = mgrs
        .iter()
        .map(|&id| {
            let m = sim.component::<ScriptedManager>(id).expect("mgr");
            let completions = m.completions();
            ManagerOutcome {
                finish: completions.iter().map(|c| c.finished).max(),
                completions: completions.len(),
                err_resps: completions.iter().filter(|c| c.resp.is_err()).count(),
            }
        })
        .collect();

    // Fourth coverage layer: telemetry deltas. Folding histogram-bucket
    // occupancy into the map turns the latency *distribution* into
    // coverage keys — a mutant that pushes a completion into a new
    // power-of-two latency bucket counts as novel behaviour. Only
    // component-side histograms exist in the registry, so the layer is
    // kernel-invariant like the rest of the signature.
    let telemetry = sim.telemetry();
    let mut coverage = sim.coverage();
    for (key, hist) in telemetry.histograms() {
        for (bucket, count) in hist.buckets() {
            coverage.add(format!("telemetry.{key}.b{bucket}"), count);
        }
    }

    RunOutcome {
        finished,
        cycle: sim.cycle(),
        conformance,
        managers,
        coverage,
        telemetry,
        kernel: sim.kernel_stats(),
        sanitizer: sim.sanitizer_violations().len()
            + usize::try_from(sim.sanitizer_violations_dropped()).unwrap_or(usize::MAX),
    }
}

/// Constructs the full monitored system: managers, REALM units, crossbar,
/// memory, protocol monitors, scoreboard.
fn build(spec: &SystemSpec) -> Rig {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);
    let design = DesignConfig::cheshire();

    let mut mgrs = Vec::new();
    let mut upstreams = Vec::new();
    let mut downstreams = Vec::new();
    for (i, mspec) in spec.managers.iter().enumerate() {
        let upstream = AxiBundle::new(sim.pool_mut(), cap);
        let downstream = AxiBundle::new(sim.pool_mut(), cap);
        mgrs.push(sim.add(ScriptedManager::new(upstream, mspec.script())));
        sim.add(
            RealmUnit::new(design, mspec.runtime(&design), upstream, downstream)
                .named(format!("m{i}.realm")),
        );
        upstreams.push(upstream);
        downstreams.push(downstream);
    }

    let mem_port = AxiBundle::new(sim.pool_mut(), cap);
    let mut map = AddressMap::new();
    map.add(WINDOW_BASE, WINDOW_SIZE, SubordinateId::new(0))
        .expect("static map");
    sim.add(Crossbar::new(map, downstreams.clone(), vec![mem_port]).expect("static ports"));
    sim.add(MemoryModel::new(
        MemoryConfig::llc(WINDOW_BASE, WINDOW_SIZE),
        mem_port,
    ));

    let mut monitors = Vec::new();
    let mut scoreboard = Scoreboard::new();
    let mut xbar_sides = Vec::new();
    for (i, (&up, &down)) in upstreams.iter().zip(&downstreams).enumerate() {
        monitors.push(ProtocolMonitor::attach(&mut sim, format!("m{i}"), up));
        monitors.push(ProtocolMonitor::attach(
            &mut sim,
            format!("m{i}.xbar"),
            down,
        ));
        scoreboard = scoreboard.link(format!("m{i}"), format!("m{i}.xbar"));
        xbar_sides.push(format!("m{i}.xbar"));
    }
    monitors.push(ProtocolMonitor::attach(&mut sim, "mem", mem_port));
    let xbar_refs: Vec<&str> = xbar_sides.iter().map(String::as_str).collect();
    scoreboard = scoreboard.boundary(&xbar_refs, &["mem"]);

    Rig {
        sim,
        mgrs,
        monitors,
        scoreboard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ManagerSpec;

    #[test]
    fn baseline_run_is_clean_and_covered() {
        let out = run_spec(&SystemSpec::baseline(0xA11CE));
        assert!(
            out.clean(),
            "baseline must drain clean:\n{}",
            out.conformance
        );
        assert_eq!(out.managers.len(), 1);
        assert!(out.managers[0].finish.is_some());
        assert_eq!(out.managers[0].err_resps, 0);
        // Coverage harvest sees all three layers: topology edges, grant
        // decisions, and per-port channel activity.
        let keys = out.coverage.signature();
        assert!(keys.iter().any(|k| k.starts_with("edge.")), "{keys:?}");
        assert!(keys.iter().any(|k| k.contains(".m0.")), "{keys:?}");
        assert!(keys.iter().any(|k| k.starts_with("conf.mem.")), "{keys:?}");
    }

    #[test]
    fn more_managers_light_up_more_coverage() {
        let one = run_spec(&SystemSpec::baseline(7));
        let two = run_spec(&SystemSpec {
            managers: vec![ManagerSpec::baseline(7), ManagerSpec::baseline(8)],
        });
        assert!(one.clean() && two.clean());
        assert!(
            two.coverage.len() > one.coverage.len(),
            "a second manager must add coverage keys ({} vs {})",
            two.coverage.len(),
            one.coverage.len()
        );
    }

    #[test]
    fn lint_spec_reports_construction_findings() {
        let report = lint_spec(&SystemSpec::baseline(3));
        assert_eq!(report.error_count(), 0, "baseline rig must lint clean");
        // An infeasible reservation surfaces as the budget warning.
        let mut spec = SystemSpec::baseline(3);
        spec.managers[0].budget = 9000;
        spec.managers[0].period = 1000;
        let report = lint_spec(&spec);
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.rule == "budget-infeasible"));
    }
}
