//! The two Testbench workloads, `contended-burst` and `budget-skewed`: one
//! operation builds the Cheshire Testbench, runs it until the core's
//! workload completes, checks conformance, and harvests the result.

use std::path::Path;
use std::time::{Duration, Instant};

use axi_sim::KernelStats;
use cheshire_soc::experiments::{
    budget_sweep_points, fragmentation_sweep_points, llc_regulation, DEFAULT_ACCESSES, MAX_CYCLES,
};
use cheshire_soc::{Regulation, RunResult, Testbench, TestbenchConfig};
use realm_bench::telemetry::sum_counters;
use realm_bench::ExperimentReport;
use realm_telemetry::TelemetrySink;

use crate::metrics::{fastest, median, Run};
use crate::Params;

/// The regulation both REALM units apply, and the core's access count.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Core accesses until the run ends.
    pub accesses: u64,
    /// Fragmentation length of both units.
    pub frag: u16,
    /// The core's LLC budget per period (0 = unregulated).
    pub core_budget: u64,
    /// The DMA's LLC budget per period (0 = unregulated).
    pub dma_budget: u64,
    /// Budget period in cycles (0 = none).
    pub period: u64,
}

impl Shape {
    /// Fig. 6a *no reservation*: worst-case DMA against pass-through units.
    pub const CONTENDED_BURST: Self = Self {
        accesses: DEFAULT_ACCESSES,
        frag: 256,
        core_budget: 0,
        dma_budget: 0,
        period: 0,
    };

    /// Fig. 6b at 1/5: frag 1, period 1000, core 8 KiB, DMA 1638 B, scaled
    /// to 100,000 core accesses.
    pub const BUDGET_SKEWED: Self = Self {
        accesses: 100_000,
        frag: 1,
        core_budget: 8 * 1024,
        dma_budget: 8 * 1024 / 5,
        period: 1000,
    };

    /// The same shape with `accesses` core accesses.
    pub fn with_accesses(self, accesses: u64) -> Self {
        Self { accesses, ..self }
    }
}

/// The Testbench configuration of `shape`: the core, the worst-case DMA
/// (when `dma_start` is given) starting at that cycle, and a REALM unit in
/// front of each manager.
pub fn config(shape: Shape, dma_start: Option<u64>, monitors: bool) -> TestbenchConfig {
    let mut cfg = TestbenchConfig::single_source(shape.accesses);
    cfg.core_regulation =
        Regulation::Realm(llc_regulation(shape.frag, shape.core_budget, shape.period));
    if let Some(start) = dma_start {
        let mut dma = TestbenchConfig::worst_case_dma();
        dma.start_cycle = start;
        cfg.dma = Some(dma);
        cfg.dma_regulation =
            Regulation::Realm(llc_regulation(shape.frag, shape.dma_budget, shape.period));
    }
    cfg.monitors = monitors;
    cfg
}

/// The sixteen systems of Fig. 6a and 6b, as the `fig6a` and `fig6b`
/// experiment binaries configure them.
pub fn fig6_configs() -> Vec<TestbenchConfig> {
    let pass_through = Shape::CONTENDED_BURST;
    let mut configs = vec![
        config(pass_through, None, true),
        config(pass_through, Some(0), true),
    ];
    for frag in fragmentation_sweep_points() {
        configs.push(config(
            Shape {
                frag,
                ..pass_through
            },
            Some(0),
            true,
        ));
    }
    for (_, dma_budget) in budget_sweep_points() {
        let shape = Shape {
            dma_budget,
            ..Shape::BUDGET_SKEWED.with_accesses(DEFAULT_ACCESSES)
        };
        configs.push(config(shape, Some(0), true));
    }
    configs
}

/// Which layer a component's profiled time belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// REALM units (`realm.*`).
    Core,
    /// The crossbar (`xbar*`).
    Xbar,
    /// Memories (`mem@*`) and the configuration register file (`mmio`).
    Mem,
    /// Every other functional component: the core and DMA models.
    Traffic,
    /// Protocol monitors: every component registered past the functional
    /// count. Monitors are named after the port they watch, so their names
    /// collide with functional ones (two `core`s); only the index tells
    /// them apart.
    Conformance,
}

impl Layer {
    /// In declaration order, so `layer as usize` indexes it.
    const ALL: [Layer; 5] = [
        Layer::Core,
        Layer::Xbar,
        Layer::Mem,
        Layer::Traffic,
        Layer::Conformance,
    ];

    fn metric(self) -> &'static str {
        match self {
            Layer::Core => "core.ns_per_cycle",
            Layer::Xbar => "xbar.ns_per_cycle",
            Layer::Mem => "mem.ns_per_cycle",
            Layer::Traffic => "traffic.ns_per_cycle",
            Layer::Conformance => "conformance.ns_per_cycle",
        }
    }
}

/// The layer of component `index` named `name`, where `functional` is the
/// component count of the same configuration built with monitors off.
pub fn layer_of(index: usize, name: &str, functional: usize) -> Layer {
    if index >= functional {
        Layer::Conformance
    } else if name.starts_with("realm.") {
        Layer::Core
    } else if name.starts_with("xbar") {
        Layer::Xbar
    } else if name.starts_with("mem@") || name == "mmio" {
        Layer::Mem
    } else {
        Layer::Traffic
    }
}

/// Simulated statistics of one operation; identical across the operations
/// of a run, since they repeat the same input.
#[derive(Clone, Debug, PartialEq)]
struct SimStats {
    core_cycles: u64,
    kernel: KernelStats,
    model: [u64; 5],
}

/// Model counters from the telemetry registry, in [`MODEL_COUNTS`] order.
pub fn model_counts(sink: &TelemetrySink) -> [u64; 5] {
    MODEL_COUNTS.map(|(_, signal)| sum_counters(sink, signal))
}

/// Per-layer model counters: metric name and registry signal.
pub const MODEL_COUNTS: [(&str, &str); 5] = [
    ("core.isolated_cycles", "isolated_cycles"),
    ("core.isolation_trips", "isolation_trips"),
    ("xbar.blocked_cycles", "blocked_cycles"),
    ("xbar.w_stall_cycles", "w_stall_cycles"),
    ("mem.beats_served", "beats_served"),
];

/// Sets the deterministic kernel ratios and model counts of one
/// operation's simulated statistics.
pub fn set_sim_counts(run: &mut Run, kernel: &KernelStats, model: &[u64; 5]) {
    let cycles = kernel.cycles_total().max(1) as f64;
    let visits = (kernel.component_ticks + kernel.component_skips).max(1) as f64;
    run.metrics
        .insert("sim.cycles", kernel.cycles_total() as f64);
    run.metrics.insert(
        "sim.component_ticks_per_cycle",
        kernel.component_ticks as f64 / cycles,
    );
    run.metrics.insert(
        "sim.wire_events_per_cycle",
        kernel.wire_events as f64 / cycles,
    );
    run.metrics.insert(
        "sim.elided_pct",
        kernel.component_skips as f64 / visits * 100.0,
    );
    run.metrics.insert(
        "sim.skipped_pct",
        kernel.cycles_skipped as f64 / cycles * 100.0,
    );
    for ((name, _), value) in MODEL_COUNTS.iter().zip(model) {
        run.metrics.insert(name, *value as f64);
    }
}

/// Host time of one operation's phases.
#[derive(Default)]
struct Phases {
    build: Duration,
    run: Duration,
    check: Duration,
    harvest: Duration,
}

impl Phases {
    fn wall(&self) -> Duration {
        self.build + self.run + self.check + self.harvest
    }
}

/// One operation: build, run, check, harvest. Returns the phase times, the
/// Testbench (for profiling), its result, and any failure.
fn operation(cfg: TestbenchConfig) -> (Phases, Testbench, RunResult, Option<String>) {
    let mut phases = Phases::default();
    let t = Instant::now();
    let mut tb = Testbench::new(cfg);
    phases.build = t.elapsed();

    let t = Instant::now();
    let finished = tb.run_until_core_done(MAX_CYCLES);
    phases.run = t.elapsed();

    let t = Instant::now();
    let report = tb.conformance_report();
    let sanitizer =
        tb.sim().sanitizer_violations().len() as u64 + tb.sim().sanitizer_violations_dropped();
    phases.check = t.elapsed();

    let t = Instant::now();
    let result = tb.result();
    phases.harvest = t.elapsed();

    let failure = if !finished {
        Some(format!("did not finish within {MAX_CYCLES} cycles"))
    } else if !report.is_clean() {
        Some(format!("conformance report not clean:\n{report}"))
    } else if sanitizer > 0 {
        Some(format!(
            "access sanitizer recorded {sanitizer} violation(s)"
        ))
    } else {
        None
    };
    (phases, tb, result, failure)
}

/// The core's cycle count the committed `results/fig6a.json` records for
/// its *no-reservation* point, which `contended-burst` at seed 0 repeats.
pub fn committed_no_reservation_cycles(root: &Path) -> Result<u64, String> {
    let path = root.join("results/fig6a.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = ExperimentReport::from_json_str(&text)?;
    report
        .rows
        .iter()
        .find(|r| r.label == "no-reservation")
        .and_then(|r| r.values.iter().find(|(k, _)| k == "exec_cycles"))
        .map(|(_, v)| *v as u64)
        .ok_or_else(|| format!("{}: no no-reservation exec_cycles", path.display()))
}

/// Runs operations of `shape` until `params.seconds` have passed (at least
/// [`crate::MIN_ITERATIONS`]) and reports the end-to-end metrics, or with
/// `params.trace` the per-layer ones. `reference_cycles`, when given, is
/// the core cycle count every operation must reach.
pub fn run(shape: Shape, params: &Params, reference_cycles: Option<u64>) -> Run {
    let mut run = Run::default();
    let dma_start = Some(params.seed % 64);
    let cfg = config(shape, dma_start, true);
    let functional = if params.trace {
        Testbench::new(config(shape, dma_start, false))
            .sim()
            .profile()
            .len()
    } else {
        0
    };

    let mut first: Option<SimStats> = None;
    let mut ops: Vec<Phases> = Vec::new();
    let mut pass_a = Vec::new();
    let mut pass_c = Vec::new();
    // Per operation: ns per cycle of each layer, then of the kernel.
    let mut profiles: Vec<([f64; Layer::ALL.len()], f64)> = Vec::new();
    let mut monitor_pct = Vec::new();

    let start = Instant::now();
    while ops.len() < crate::MIN_ITERATIONS || start.elapsed().as_secs_f64() < params.seconds {
        run.attempted += 1;
        let (phases, tb, result, failure) = operation(cfg.clone());
        let stats = SimStats {
            core_cycles: result.cycles,
            kernel: result.kernel,
            model: model_counts(&result.telemetry),
        };
        let failure = failure.or_else(|| match reference_cycles {
            Some(want) if stats.core_cycles != want => Some(format!(
                "core finished at cycle {}, committed results/fig6a.json has {want}",
                stats.core_cycles
            )),
            _ => None,
        });
        let failure = failure.or_else(|| match &first {
            Some(f) if *f != stats => Some(format!(
                "simulated stats {stats:?} differ from the first operation's {f:?}"
            )),
            _ => None,
        });
        if let Some(message) = failure {
            run.failures
                .push(format!("operation {}: {message}", run.attempted));
        }

        if params.trace {
            let t = Instant::now();
            std::hint::black_box(tb.lint_report());
            pass_a.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(tb.partition());
            pass_c.push(t.elapsed().as_secs_f64());

            let cycles = stats.kernel.cycles_total() as f64;
            let mut per_layer = [0u64; Layer::ALL.len()];
            for p in tb.sim().profile() {
                per_layer[layer_of(p.index, &p.name, functional) as usize] += p.wall_ns;
            }
            let component_ns: u64 = per_layer.iter().sum();
            profiles.push((
                per_layer.map(|ns| ns as f64 / cycles),
                (phases.run.as_nanos() as f64 - component_ns as f64) / cycles,
            ));

            // The same operation with monitors off: the conformance
            // layer's share of the host time. Monitors are passive, so the
            // core must finish at the same cycle.
            run.attempted += 1;
            let (off, _, off_result, failure) = operation(config(shape, dma_start, false));
            let failure = failure.or_else(|| {
                (off_result.cycles != stats.core_cycles).then(|| {
                    format!(
                        "with monitors off the core finished at cycle {}, with them on at {}",
                        off_result.cycles, stats.core_cycles
                    )
                })
            });
            if let Some(message) = failure {
                run.failures.push(format!(
                    "operation {} (monitors off): {message}",
                    run.attempted
                ));
            }
            let on_time = (phases.build + phases.run).as_secs_f64();
            let off_time = (off.build + off.run).as_secs_f64();
            monitor_pct.push((on_time / off_time - 1.0) * 100.0);
        }
        ops.push(phases);
        first.get_or_insert(stats);
    }

    let stats = first.expect("at least one operation");
    let cycles = stats.kernel.cycles_total() as f64;
    let secs = |phase: fn(&Phases) -> Duration| -> Vec<f64> {
        ops.iter().map(|p| phase(p).as_secs_f64()).collect()
    };
    let builds = secs(|p| p.build);
    if params.trace {
        set_sim_counts(&mut run, &stats.kernel, &stats.model);
        // The fastest operation's profile, so the layers and the kernel
        // add up to its run time.
        let fastest = fastest(&secs(|p| p.run));
        let (layers, kernel) = profiles[fastest];
        run.metrics
            .insert("trace.wall_s", ops[fastest].wall().as_secs_f64());
        run.metrics
            .insert("sim.run_s", ops[fastest].run.as_secs_f64());
        run.metrics.insert("sim.kernel_ns_per_cycle", kernel);
        for (layer, ns) in Layer::ALL.iter().zip(layers) {
            run.metrics.insert(layer.metric(), ns);
        }
        run.metrics.insert("soc.build_ms", median(&builds) * 1e3);
        run.metrics.insert("lint.pass_a_ms", median(&pass_a) * 1e3);
        run.metrics.insert("lint.pass_c_ms", median(&pass_c) * 1e3);
        run.metrics
            .insert("conformance.check_ms", median(&secs(|p| p.check)) * 1e3);
        run.metrics
            .insert("telemetry.harvest_ms", median(&secs(|p| p.harvest)) * 1e3);
        run.metrics
            .insert("conformance.monitor_pct", median(&monitor_pct));
    } else {
        let fastest = &ops[fastest(&secs(Phases::wall))];
        run.metrics.insert("wall_s", fastest.wall().as_secs_f64());
        run.metrics
            .insert("sim_mcps", cycles / fastest.run.as_secs_f64() / 1e6);
        run.metrics.insert("setup_s", median(&builds));
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_lane_grouping_follows_component_names_and_indices() {
        let cfg = config(Shape::CONTENDED_BURST.with_accesses(10), Some(0), true);
        let functional = Testbench::new(config(
            Shape::CONTENDED_BURST.with_accesses(10),
            Some(0),
            false,
        ))
        .sim()
        .profile()
        .len();
        let tb = Testbench::new(cfg);
        let layers: Vec<(String, Layer)> = tb
            .sim()
            .profile()
            .into_iter()
            .map(|p| (p.name.clone(), layer_of(p.index, &p.name, functional)))
            .collect();
        let of = |layer: Layer| -> Vec<&str> {
            layers
                .iter()
                .filter(|(_, l)| *l == layer)
                .map(|(n, _)| n.as_str())
                .collect()
        };
        assert_eq!(of(Layer::Core), ["realm.core", "realm.dma"]);
        assert_eq!(of(Layer::Xbar), ["xbar2x3"]);
        assert_eq!(of(Layer::Mem), ["mem@0x80000000", "mem@0x10000000", "mmio"]);
        assert_eq!(of(Layer::Traffic), ["core", "dma"]);
        // The monitor on the core's port is also named `core`; its index,
        // not its name, puts it in the conformance layer.
        let monitors = of(Layer::Conformance);
        assert_eq!(monitors.len(), layers.len() - functional);
        assert!(monitors.contains(&"core") && monitors.contains(&"dma.xbar"));
    }

    #[test]
    fn fig6_configs_cover_both_figures() {
        let configs = fig6_configs();
        assert_eq!(configs.len(), 2 + 9 + 5);
        assert!(configs[0].dma.is_none(), "single-source has no DMA");
        assert!(configs[1..].iter().all(|c| c.dma.is_some() && c.monitors));
    }

    #[test]
    fn committed_reference_is_the_fig6a_no_reservation_point() {
        let root = crate::tests::repo_root();
        assert_eq!(committed_no_reservation_cycles(&root).unwrap(), 1_243_859);
    }
}
