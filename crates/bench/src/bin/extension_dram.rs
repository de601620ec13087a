//! Extension experiment: AXI-REALM over a row-buffer DRAM main memory.
//!
//! The paper claims the design is *"independent of the memory system's
//! architecture"* (§III). This experiment swaps the hot LLC for a
//! bank/row-aware DRAM model and re-runs the fragmentation sweep: the same
//! collapse-and-recovery shape must appear even though service latency is
//! now address-dependent.
//!
//! ```text
//! cargo run --release -p realm-bench --bin extension_dram
//! ```

use axi4::{Addr, SubordinateId, TxnId};
use axi_mem::{DramConfig, DramModel, MemoryConfig, MemoryModel};
use axi_realm::{DesignConfig, RealmUnit, RegionConfig, RuntimeConfig};
use axi_sim::{AxiBundle, BundleCapacity, KernelStats, Sim};
use axi_traffic::{CoreModel, CoreWorkload, DmaConfig, DmaModel};
use axi_xbar::{AddressMap, Crossbar};
use realm_bench::telemetry::maybe_export_registry;
use realm_bench::{point_row, run_sweep, ExperimentReport, MonitorRig, Row};
use realm_telemetry::TelemetrySink;

const DRAM_BASE: Addr = Addr::new(0x8000_0000);
const DRAM_SIZE: u64 = 16 << 20;
const SPM_BASE: Addr = Addr::new(0x1000_0000);
const SPM_SIZE: u64 = 1 << 20;

struct Outcome {
    cycles: u64,
    lat_mean: f64,
    lat_max: u64,
    row_hit_rate: f64,
    telemetry: TelemetrySink,
}

fn run(frag_len: Option<u16>, with_dma: bool) -> (Outcome, KernelStats) {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);

    let core_up = AxiBundle::new(sim.pool_mut(), cap);
    let core_down = AxiBundle::new(sim.pool_mut(), cap);
    let dram_port = AxiBundle::new(sim.pool_mut(), cap);
    let spm_port = AxiBundle::new(sim.pool_mut(), cap);

    let runtime = |frag: u16| {
        let mut rt = RuntimeConfig::open(2);
        rt.frag_len = frag;
        rt.regions[0] = RegionConfig {
            base: DRAM_BASE,
            size: DRAM_SIZE,
            budget_max: 0,
            period: 0,
        };
        rt
    };
    // The core always runs behind a pass-through unit (present in silicon).
    sim.add(
        RealmUnit::new(DesignConfig::cheshire(), runtime(256), core_up, core_down)
            .named("realm.core"),
    );

    let core = sim.add(CoreModel::new(
        CoreWorkload::susan(DRAM_BASE, 1_000),
        core_up,
    ));
    // The DMA path exists only in contended runs: an always-present unit
    // with no manager behind it would leave its upstream wires dangling
    // (realm-lint: wire-dangling).
    let dma_frag = frag_len.unwrap_or(256);
    let dma_ports = with_dma.then(|| {
        let dma_up = AxiBundle::new(sim.pool_mut(), cap);
        let dma_down = AxiBundle::new(sim.pool_mut(), cap);
        sim.add(
            RealmUnit::new(
                DesignConfig::cheshire(),
                runtime(dma_frag),
                dma_up,
                dma_down,
            )
            .named("realm.dma"),
        );
        let mut dma =
            DmaConfig::worst_case((DRAM_BASE + 0x80_0000, 0x8_0000), (SPM_BASE, SPM_SIZE));
        dma.id = TxnId::new(1);
        sim.add(DmaModel::new(dma, dma_up));
        (dma_up, dma_down)
    });

    let mut mgr_ports = vec![core_down];
    if let Some((_, dma_down)) = dma_ports {
        mgr_ports.push(dma_down);
    }
    let mut map = AddressMap::new();
    map.add(DRAM_BASE, DRAM_SIZE, SubordinateId::new(0))
        .expect("map");
    map.add(SPM_BASE, SPM_SIZE, SubordinateId::new(1))
        .expect("map");
    sim.add(Crossbar::new(map, mgr_ports, vec![dram_port, spm_port]).expect("ports"));
    let dram = sim.add(DramModel::new(
        DramConfig::ddr3(DRAM_BASE, DRAM_SIZE),
        dram_port,
    ));
    sim.add(MemoryModel::new(
        MemoryConfig::spm(SPM_BASE, SPM_SIZE),
        spm_port,
    ));

    let mut rig = MonitorRig::new();
    rig.port(&mut sim, "core", core_up);
    rig.port(&mut sim, "core.xbar", core_down);
    let mut boundary_mgrs = vec!["core.xbar"];
    if let Some((dma_up, dma_down)) = dma_ports {
        rig.port(&mut sim, "dma", dma_up);
        rig.port(&mut sim, "dma.xbar", dma_down);
        rig.link("dma", "dma.xbar");
        boundary_mgrs.push("dma.xbar");
    }
    rig.port(&mut sim, "dram", dram_port);
    rig.port(&mut sim, "spm", spm_port);
    rig.link("core", "core.xbar");
    rig.boundary(&boundary_mgrs, &["dram", "spm"]);

    // Elaboration-time analysis before the first cycle.
    if realm_lint::enabled_by_env() {
        let mut model = realm_lint::SystemModel::new()
            .window("dram", DRAM_BASE, DRAM_SIZE)
            .window("spm", SPM_BASE, SPM_SIZE)
            .bandwidth("dram", 8)
            .bandwidth("spm", 8)
            .id_space(15, if with_dma { 2 } else { 1 })
            .realm("realm.core", DesignConfig::cheshire(), runtime(256));
        if with_dma {
            model = model.realm("realm.dma", DesignConfig::cheshire(), runtime(dma_frag));
        }
        realm_lint::apply(
            "extension_dram",
            &realm_lint::analyze(&sim.topology(), &model),
        );
    }

    assert!(sim.run_until(100_000_000, |s| s
        .component::<CoreModel>(core)
        .unwrap()
        .is_done()));
    let c = sim.component::<CoreModel>(core).unwrap();
    let d = sim.component::<DramModel>(dram).unwrap();
    let outcome = Outcome {
        cycles: c.finished_at().expect("core done"),
        lat_mean: c.latency().mean().unwrap_or(0.0),
        lat_max: c.latency().max(),
        row_hit_rate: d.stats().hit_rate().unwrap_or(0.0),
        telemetry: sim.telemetry(),
    };
    rig.assert_clean(&sim);
    (outcome, sim.kernel_stats())
}

fn main() {
    let mut report = ExperimentReport::new(
        "Extension: DRAM",
        "fragmentation sweep over a row-buffer DRAM main memory (no LLC)",
    );
    let mut points: Vec<(String, (Option<u16>, bool))> = vec![
        ("single-source".to_owned(), (None, false)),
        ("no-reservation".to_owned(), (None, true)),
    ];
    points.extend([64u16, 16, 4, 1].map(|frag| (format!("frag={frag}"), (Some(frag), true))));
    let outcome = run_sweep(points, |&(frag, with_dma)| run(frag, with_dma));
    let base_cycles = outcome.results[0].cycles;
    let mut merged = TelemetrySink::new();
    for (o, rt) in outcome.results.iter().zip(&outcome.runtime) {
        report.push(Row::new(
            rt.label.clone(),
            vec![
                ("perf_pct", base_cycles as f64 / o.cycles as f64 * 100.0),
                ("lat_mean", o.lat_mean),
                ("lat_max", o.lat_max as f64),
                ("row_hit_pct", o.row_hit_rate * 100.0),
            ],
        ));
        report.telemetry.push(point_row(&rt.label, &o.telemetry));
        merged.merge(&o.telemetry);
    }
    report.runtime = outcome.runtime_rows();
    report.note("same qualitative shape as Fig. 6a despite address-dependent DRAM timing");
    report.note("REALM itself is untouched: only the downstream memory model changed");
    report.note(
        "insight: on DRAM the optimum granularity is >1 beat — single-beat interleaving \
         thrashes the row buffer, so frag=4 beats frag=1",
    );
    print!("{}", report.render());
    println!("{}", outcome.summary("extension_dram"));
    if let Err(e) = report.write_json("results/extension_dram.json") {
        eprintln!("could not write results/extension_dram.json: {e}");
    }
    maybe_export_registry("extension_dram", &merged);
}
