//! Related-work comparison (paper §II, made quantitative): no regulation
//! vs. an ABE-style burst equalizer vs. full AXI-REALM, on the two axes the
//! paper argues about — fairness under DMA contention and survival of a
//! stalling-writer DoS — plus the modelled area cost of each option.
//!
//! ```text
//! cargo run --release -p realm-bench --bin related_work
//! ```

use axi4::{Addr, SubordinateId, TxnId};
use axi_mem::{MemoryConfig, MemoryModel};
use axi_realm::area::{AreaBreakdown, AreaParams};
use axi_realm::baseline::{BurstEqualizer, EqualizerConfig};
use axi_realm::{DesignConfig, RealmUnit, RegionConfig, RuntimeConfig};
use axi_sim::{AxiBundle, BundleCapacity, ComponentId, KernelStats, Sim};
use axi_traffic::{CoreModel, CoreWorkload, DmaConfig, DmaModel, StallPlan, StallingManager};
use axi_xbar::{AddressMap, Crossbar};
use realm_bench::telemetry::maybe_export_registry;
use realm_bench::{point_row, run_sweep, ExperimentReport, MonitorRig, Row};
use realm_telemetry::TelemetrySink;

const LLC_BASE: Addr = Addr::new(0x8000_0000);
const LLC_SIZE: u64 = 16 << 20;
const SPM_BASE: Addr = Addr::new(0x1000_0000);
const SPM_SIZE: u64 = 1 << 20;

/// Which regulator guards the untrusted managers.
#[derive(Clone, Copy)]
enum Regulator {
    None,
    Abe { nominal: u16 },
    Realm { frag: u16 },
}

/// Attaches the chosen regulator between `up` and a fresh downstream port.
fn attach(sim: &mut Sim, regulator: Regulator, up: AxiBundle) -> AxiBundle {
    let cap = BundleCapacity::uniform(4);
    match regulator {
        Regulator::None => up,
        Regulator::Abe { nominal } => {
            let down = AxiBundle::new(sim.pool_mut(), cap);
            sim.add(BurstEqualizer::new(
                EqualizerConfig::nominal(nominal),
                up,
                down,
            ));
            down
        }
        Regulator::Realm { frag } => {
            let down = AxiBundle::new(sim.pool_mut(), cap);
            let mut rt = RuntimeConfig::open(2);
            rt.frag_len = frag;
            rt.regions[0] = RegionConfig {
                base: LLC_BASE,
                size: LLC_SIZE,
                budget_max: 0,
                period: 0,
            };
            sim.add(RealmUnit::new(DesignConfig::cheshire(), rt, up, down));
            down
        }
    }
}

struct Scenario {
    core: ComponentId,
    sim: Sim,
    rig: MonitorRig,
}

/// Builds core (monitor-only REALM, as in silicon) + one untrusted manager
/// behind `regulator`.
fn build(regulator: Regulator, dma: bool, staller: bool, accesses: u64) -> Scenario {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);

    // Core behind a pass-through REALM unit (present in all variants).
    let core_up = AxiBundle::new(sim.pool_mut(), cap);
    let core_down = attach(&mut sim, Regulator::Realm { frag: 256 }, core_up);
    let core = sim.add(CoreModel::new(
        CoreWorkload::susan(LLC_BASE, accesses),
        core_up,
    ));

    let mut rig = MonitorRig::new();
    rig.port(&mut sim, "core", core_up);
    rig.port(&mut sim, "core.xbar", core_down);
    rig.link("core", "core.xbar");
    let mut boundary_mgrs = vec!["core.xbar"];

    // With `Regulator::None` the regulator's downstream IS the manager's
    // port, so only one monitor applies (and there is no link to check).
    let regulated = !matches!(regulator, Regulator::None);

    let mut mgr_ports = vec![core_down];
    if dma {
        let up = AxiBundle::new(sim.pool_mut(), cap);
        let mut cfg = DmaConfig::worst_case((LLC_BASE + 0x80_0000, 0x8_0000), (SPM_BASE, SPM_SIZE));
        cfg.id = TxnId::new(1);
        sim.add(DmaModel::new(cfg, up));
        let down = attach(&mut sim, regulator, up);
        rig.port(&mut sim, "dma", up);
        if regulated {
            rig.port(&mut sim, "dma.xbar", down);
            rig.link("dma", "dma.xbar");
        }
        boundary_mgrs.push(if regulated { "dma.xbar" } else { "dma" });
        mgr_ports.push(down);
    }
    if staller {
        let up = AxiBundle::new(sim.pool_mut(), cap);
        sim.add(StallingManager::new(
            StallPlan::forever(LLC_BASE + 0x20_0000),
            up,
        ));
        let down = attach(&mut sim, regulator, up);
        rig.port(&mut sim, "staller", up);
        if regulated {
            rig.port(&mut sim, "staller.xbar", down);
            rig.link("staller", "staller.xbar");
        }
        boundary_mgrs.push(if regulated { "staller.xbar" } else { "staller" });
        mgr_ports.push(down);
    }

    let llc_port = AxiBundle::new(sim.pool_mut(), cap);
    let spm_port = AxiBundle::new(sim.pool_mut(), cap);
    let mut map = AddressMap::new();
    map.add(LLC_BASE, LLC_SIZE, SubordinateId::new(0))
        .expect("map");
    map.add(SPM_BASE, SPM_SIZE, SubordinateId::new(1))
        .expect("map");
    sim.add(Crossbar::new(map, mgr_ports, vec![llc_port, spm_port]).expect("ports"));
    sim.add(MemoryModel::new(
        MemoryConfig::llc(LLC_BASE, LLC_SIZE),
        llc_port,
    ));
    sim.add(MemoryModel::new(
        MemoryConfig::spm(SPM_BASE, SPM_SIZE),
        spm_port,
    ));
    rig.port(&mut sim, "llc", llc_port);
    rig.port(&mut sim, "spm", spm_port);
    rig.boundary(&boundary_mgrs, &["llc", "spm"]);

    // Elaboration-time analysis before the first cycle. Only REALM-style
    // regulators carry a RuntimeConfig; the ABE equalizer has no region
    // semantics to declare and is checked structurally via its ports.
    if realm_lint::enabled_by_env() {
        let realm_rt = |frag: u16| {
            let mut rt = RuntimeConfig::open(2);
            rt.frag_len = frag;
            rt.regions[0] = RegionConfig {
                base: LLC_BASE,
                size: LLC_SIZE,
                budget_max: 0,
                period: 0,
            };
            rt
        };
        let n_managers = 1 + usize::from(dma) + usize::from(staller);
        let mut model = realm_lint::SystemModel::new()
            .window("llc", LLC_BASE, LLC_SIZE)
            .window("spm", SPM_BASE, SPM_SIZE)
            .bandwidth("llc", 8)
            .bandwidth("spm", 8)
            .id_space(15, n_managers)
            .realm("realm.core", DesignConfig::cheshire(), realm_rt(256));
        if let Regulator::Realm { frag } = regulator {
            if dma {
                model = model.realm("realm.dma", DesignConfig::cheshire(), realm_rt(frag));
            }
            if staller {
                model = model.realm("realm.staller", DesignConfig::cheshire(), realm_rt(frag));
            }
        }
        realm_lint::apply(
            "related_work",
            &realm_lint::analyze(&sim.topology(), &model),
        );
    }

    Scenario { core, sim, rig }
}

fn main() {
    const ACCESSES: u64 = 1_000;
    let mut report = ExperimentReport::new(
        "Related work",
        "no regulation vs. ABE-style equalizer vs. AXI-REALM (contended perf, DoS survival, area)",
    );

    // Baseline execution time (core alone, pass-through unit).
    let base = {
        let mut s = build(Regulator::None, false, false, ACCESSES);
        assert!(s.sim.run_until(10_000_000, |sim| sim
            .component::<CoreModel>(s.core)
            .unwrap()
            .is_done()));
        s.rig.assert_clean(&s.sim);
        s.sim
            .component::<CoreModel>(s.core)
            .unwrap()
            .finished_at()
            .unwrap()
    };

    let area_of = |variant: &str| -> f64 {
        let mut p = AreaParams::cheshire();
        p.num_units = 1;
        match variant {
            // ABE ≈ splitter + isolate/throttle, no write buffer, no
            // tracking counters, no budget registers.
            "abe" => {
                let b = AreaBreakdown::evaluate(p);
                b.lines
                    .iter()
                    .filter(|l| {
                        matches!(
                            l.block.name,
                            "Burst Splitter" | "Meta Buffer" | "Isolate & Throttle"
                        )
                    })
                    .map(|l| l.total_ge)
                    .sum::<f64>()
                    / 1000.0
            }
            "realm" => AreaBreakdown::evaluate(p).total_ge() / 1000.0,
            _ => 0.0,
        }
    };

    // Both legs of each variant run inside one sweep point; the point's
    // kernel counters are the sum over its two simulators.
    let points = vec![
        ("none".to_owned(), Regulator::None),
        ("abe".to_owned(), Regulator::Abe { nominal: 1 }),
        ("realm".to_owned(), Regulator::Realm { frag: 1 }),
    ];
    let outcome = run_sweep(points, |&regulator| {
        // Leg 1: contention recovery.
        let mut s = build(regulator, true, false, ACCESSES);
        assert!(s.sim.run_until(100_000_000, |sim| sim
            .component::<CoreModel>(s.core)
            .unwrap()
            .is_done()));
        s.rig.assert_clean(&s.sim);
        let contended = s.sim.component::<CoreModel>(s.core).unwrap();
        let contended_cycles = contended.finished_at().unwrap();
        let lat_max = contended.latency().max();

        // Leg 2: DoS survival (stalling writer instead of the DMA).
        let mut d = build(regulator, false, true, 300);
        let survived = d.sim.run_until(2_000_000, |sim| {
            sim.component::<CoreModel>(d.core).unwrap().is_done()
        });
        d.rig.assert_clean(&d.sim);

        let (k1, k2) = (s.sim.kernel_stats(), d.sim.kernel_stats());
        let kernel = KernelStats {
            ticks_executed: k1.ticks_executed + k2.ticks_executed,
            cycles_skipped: k1.cycles_skipped + k2.cycles_skipped,
            fast_forwards: k1.fast_forwards + k2.fast_forwards,
            component_ticks: k1.component_ticks + k2.component_ticks,
            component_skips: k1.component_skips + k2.component_skips,
            wire_events: k1.wire_events + k2.wire_events,
            ..KernelStats::default()
        };
        // The point's telemetry, like its kernel counters, sums both legs.
        let mut telemetry = s.sim.telemetry();
        telemetry.merge(&d.sim.telemetry());
        ((contended_cycles, lat_max, survived, telemetry), kernel)
    });
    let mut merged = TelemetrySink::new();
    for ((contended_cycles, lat_max, survived, telemetry), rt) in
        outcome.results.iter().zip(&outcome.runtime)
    {
        report.push(Row::new(
            rt.label.clone(),
            vec![
                ("perf_pct", base as f64 / *contended_cycles as f64 * 100.0),
                ("lat_max", *lat_max as f64),
                ("dos_survived", f64::from(u8::from(*survived))),
                ("area_kGE", area_of(&rt.label)),
            ],
        ));
        report.telemetry.push(point_row(&rt.label, telemetry));
        merged.merge(telemetry);
    }
    report.runtime = outcome.runtime_rows();

    report
        .note("ABE (Restuccia et al. [12]): nominal burst size + outstanding cap, no write buffer");
    report.note("expected shape: ABE matches REALM on contended performance but fails the DoS leg");
    report.note("REALM's extra area buys the write buffer, budgets, and monitoring");
    print!("{}", report.render());
    println!("{}", outcome.summary("related_work"));
    if let Err(e) = report.write_json("results/related_work.json") {
        eprintln!("could not write results/related_work.json: {e}");
    }
    maybe_export_registry("related_work", &merged);
}
