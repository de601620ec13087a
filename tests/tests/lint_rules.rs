//! Golden-diagnostic tests for the elaboration-time analyzer: one minimal
//! seeded-bad fixture per rule, each asserting the rule id, the component
//! path it anchors to, and its severity — plus a property test that every
//! `FuzzSpec`-generated testbench passes Pass A cleanly.

use axi4::Addr;
use axi_realm::{DesignConfig, RegionConfig, RuntimeConfig};
use axi_sim::{AxiBundle, Component, PortDecl, PortDir, Sim, TickCtx};
use axi_traffic::FuzzSpec;
use cheshire_soc::{Regulation, Testbench, TestbenchConfig, LLC_BASE};
use proptest::prelude::*;
use realm_lint::{analyze, analyze_deps, Severity, SystemModel};

/// A component that declares the manager side of one bundle and does
/// nothing — enough to give wires a driver/consumer for graph fixtures.
struct Mgr(AxiBundle);
impl Component for Mgr {
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
    fn name(&self) -> &str {
        "mgr"
    }
    fn ports(&self) -> Vec<PortDecl> {
        self.0.manager_ports()
    }
}

/// Subordinate-side counterpart of [`Mgr`].
struct Sub(AxiBundle);
impl Component for Sub {
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
    fn name(&self) -> &str {
        "sub"
    }
    fn ports(&self) -> Vec<PortDecl> {
        self.0.subordinate_ports()
    }
}

/// A pass-through hop: subordinate on one bundle, manager on another
/// (the shape of a REALM unit or crossbar port pair).
struct Hop {
    name: &'static str,
    front: AxiBundle,
    back: AxiBundle,
}
impl Component for Hop {
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
    fn name(&self) -> &str {
        self.name
    }
    fn ports(&self) -> Vec<PortDecl> {
        [self.front.subordinate_ports(), self.back.manager_ports()].concat()
    }
}

fn open_realm() -> (DesignConfig, RuntimeConfig) {
    (DesignConfig::cheshire(), RuntimeConfig::open(2))
}

#[test]
fn golden_wire_dangling() {
    // A manager drives a bundle nobody terminates: the request wires are
    // driven-but-unconsumed, the response wires consumed-but-undriven.
    let mut sim = Sim::new();
    let b = AxiBundle::with_defaults(sim.pool_mut());
    sim.add(Mgr(b));
    let report = analyze(&sim.topology(), &SystemModel::new());
    let diags = report.by_rule("wire-dangling");
    assert_eq!(diags.len(), 5, "{report}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    let aw = diags.iter().find(|d| d.path == "AW[0]").expect("AW wire");
    assert!(aw.message.contains("driven by mgr but never consumed"));
    let b_chan = diags.iter().find(|d| d.path == "B[0]").expect("B wire");
    assert!(b_chan.message.contains("never driven"));
}

#[test]
fn golden_wire_dangling_demoted_by_opaque() {
    // Same defect, but an opaque (port-less) component is present: it may
    // own the missing endpoints, so the finding drops to a warning.
    struct Opaque;
    impl Component for Opaque {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
    }
    let mut sim = Sim::new();
    let b = AxiBundle::with_defaults(sim.pool_mut());
    sim.add(Mgr(b));
    sim.add(Opaque);
    let report = analyze(&sim.topology(), &SystemModel::new());
    assert!(report.is_clean());
    assert!(report
        .by_rule("wire-dangling")
        .iter()
        .all(|d| d.severity == Severity::Warning));
}

#[test]
fn golden_wire_doubly_driven() {
    // Two managers share one bundle: every request wire has two drivers.
    let mut sim = Sim::new();
    let b = AxiBundle::with_defaults(sim.pool_mut());
    sim.add(Mgr(b));
    sim.add(Mgr(b));
    sim.add(Sub(b));
    let report = analyze(&sim.topology(), &SystemModel::new());
    let diags = report.by_rule("wire-doubly-driven");
    // AW, W, AR from the managers; B, R from... the single subordinate
    // drives those once, so exactly the three request wires fire — plus
    // B/R are consumed twice, which is legal (one pop wins per cycle).
    assert_eq!(diags.len(), 3, "{report}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    let aw = diags.iter().find(|d| d.path == "AW[0]").expect("AW");
    assert!(aw.message.contains("mgr, mgr"));
}

#[test]
fn golden_wire_unallocated() {
    // A well-formed manager/subordinate pair plus a component whose ports
    // name wire `usize::MAX` and a channel label no pool has. Pass A must
    // name both; no analysis may panic, overflow, or size anything by the
    // wire index (a table of `usize::MAX + 1` entries would abort here).
    struct Bad;
    impl Component for Bad {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            "bad"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![
                PortDecl::new("AW", usize::MAX, PortDir::Drive),
                PortDecl::new("XY", 0, PortDir::Consume),
                PortDecl::new("AW", 0, PortDir::Observe),
            ]
        }
    }
    let mut sim = Sim::new();
    let b = AxiBundle::with_defaults(sim.pool_mut());
    sim.add(Mgr(b));
    sim.add(Sub(b));
    sim.add(Bad);
    let topo = sim.topology();
    let report = analyze(&topo, &SystemModel::new());
    let (partition, _) = analyze_deps(&topo, &SystemModel::new());
    let diags = report.by_rule("wire-unallocated");
    assert_eq!(diags.len(), 2, "{report}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    let max = format!("AW[{}]", usize::MAX);
    let huge = diags
        .iter()
        .find(|d| d.path == max)
        .expect("AW[usize::MAX]");
    assert!(huge.message.contains("declared by bad"), "{}", huge.message);
    assert!(diags.iter().any(|d| d.path == "XY[0]"), "{report}");
    assert!(!report.is_clean());
    // The real wires stay well-formed, and the observer tap on AW[0]
    // still joins `bad` to the pair's island.
    assert!(report.by_rule("wire-dangling").is_empty(), "{report}");
    assert_eq!(partition.islands, vec![vec![0, 1, 2]]);
    assert_eq!(topo.islands(), partition.islands);
    assert_eq!(topo.wire_index().len(), 7, "5 bundle wires + 2 bad pairs");
    // The kernels and the access sanitizer skip the undeclared endpoints
    // at run time.
    sim.set_sanitize(true);
    sim.run(4);
    sim.set_kernel_mode(axi_sim::KernelMode::Step);
    sim.run(4);
    assert_eq!(sim.cycle(), 8);
}

#[test]
fn golden_component_unreachable() {
    // Island 1: a proper manager/subordinate pair (the traffic source).
    // Island 2: two hops in a ring with no manager behind them — every
    // wire is well-formed, but no path connects them to any source.
    let mut sim = Sim::new();
    let main = AxiBundle::with_defaults(sim.pool_mut());
    sim.add(Mgr(main));
    sim.add(Sub(main));
    let ring_a = AxiBundle::with_defaults(sim.pool_mut());
    let ring_b = AxiBundle::with_defaults(sim.pool_mut());
    sim.add(Hop {
        name: "orphan.a",
        front: ring_a,
        back: ring_b,
    });
    sim.add(Hop {
        name: "orphan.b",
        front: ring_b,
        back: ring_a,
    });
    let report = analyze(&sim.topology(), &SystemModel::new());
    let diags = report.by_rule("component-unreachable");
    assert_eq!(diags.len(), 2, "{report}");
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    assert_eq!(diags[0].path, "orphan.a");
    assert_eq!(diags[1].path, "orphan.b");
}

#[test]
fn golden_addrmap_overlap() {
    let model = SystemModel::new()
        .window("llc", Addr::new(0x8000_0000), 0x20_0000)
        .window("spm", Addr::new(0x8010_0000), 0x10_0000);
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("addrmap-overlap");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(diags[0].path, "llc+spm");
    assert!(!report.is_clean());
}

#[test]
fn golden_addrmap_alignment() {
    let model = SystemModel::new().window("odd", Addr::new(0x1234_5678), 0x800);
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("addrmap-alignment");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].path, "odd");
}

#[test]
fn golden_addrmap_gap() {
    let model = SystemModel::new()
        .window("low", Addr::new(0x0), 0x1000)
        .window("high", Addr::new(0x10_0000), 0x1000);
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("addrmap-gap");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Info);
    assert_eq!(diags[0].path, "low..high");
    assert!(report.is_clean(), "gaps are informational");
}

#[test]
fn golden_id_width_overflow() {
    // 2^31 upstream IDs across 4 managers needs 33 bits.
    let model = SystemModel::new().id_space(1 << 31, 4);
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("id-width-overflow");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(diags[0].path, "xbar");
}

#[test]
fn golden_config_invalid() {
    let (mut design, config) = open_realm();
    design.write_buffer_depth = 0;
    let model = SystemModel::new().realm("realm.core", design, config);
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("config-invalid");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(diags[0].path, "realm.core");
}

#[test]
fn golden_frag_4k_crossing() {
    // On a 512-bit bus (64 B/beat), 256-beat fragments span 16 KiB.
    let (design, mut config) = open_realm();
    config.frag_len = 256;
    let model = SystemModel::new()
        .beats_of(64)
        .realm("realm.dma", design, config);
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("frag-4k-crossing");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(diags[0].path, "realm.dma");
}

#[test]
fn golden_region_unmapped() {
    let (design, mut config) = open_realm();
    config.regions[0] = RegionConfig {
        base: Addr::new(0x4000_0000), // nothing is mapped here
        size: 0x1000,
        budget_max: 0,
        period: 0,
    };
    let model = SystemModel::new()
        .window("llc", Addr::new(0x8000_0000), 1 << 20)
        .realm("realm.core", design, config);
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("region-unmapped");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].path, "realm.core.region[0]");
}

#[test]
fn golden_budget_infeasible() {
    // 10 KiB per 1000 cycles against an 8 B/cycle port (8000 B capacity).
    let (design, mut config) = open_realm();
    config.regions[0] = RegionConfig {
        base: Addr::new(0x8000_0000),
        size: 1 << 20,
        budget_max: 10 * 1024,
        period: 1000,
    };
    let model = SystemModel::new()
        .window("llc", Addr::new(0x8000_0000), 1 << 20)
        .bandwidth("llc", 8)
        .realm("realm.dma", design, config);
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("budget-infeasible");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].path, "realm.dma.region[0]");
    assert!(
        report.is_clean(),
        "feasibility findings never fail the gate"
    );
}

#[test]
fn golden_budget_oversubscribed() {
    // Two managers each reserve 6 KiB per 1000 cycles: individually
    // feasible (6000 < 8000) but jointly 12 B/cycle > 8 B/cycle.
    let region = RegionConfig {
        base: Addr::new(0x8000_0000),
        size: 1 << 20,
        budget_max: 6000,
        period: 1000,
    };
    let mut model = SystemModel::new()
        .window("llc", Addr::new(0x8000_0000), 1 << 20)
        .bandwidth("llc", 8);
    for path in ["realm.core", "realm.dma"] {
        let (design, mut config) = open_realm();
        config.regions[0] = region;
        model = model.realm(path, design, config);
    }
    let report = analyze(&Sim::new().topology(), &model);
    assert!(report.by_rule("budget-infeasible").is_empty());
    let diags = report.by_rule("budget-oversubscribed");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].path, "llc");
    assert!(diags[0].message.contains("12.00 B/cycle"));
}

#[test]
fn golden_zero_latency_cycle() {
    let model = SystemModel::new()
        .comb_edge("regs", "unit")
        .comb_edge("unit", "regs");
    let report = analyze(&Sim::new().topology(), &model);
    let diags = report.by_rule("zero-latency-cycle");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("regs"));
    assert!(diags[0].message.contains("unit"));
}

#[test]
fn golden_couple_redundant() {
    // A couple between two components that already share every wire of a
    // bundle: the dependence edge is a duplicate.
    let mut sim = Sim::new();
    let b = AxiBundle::with_defaults(sim.pool_mut());
    let mgr = sim.add(Mgr(b));
    let sub = sim.add(Sub(b));
    sim.couple(mgr, sub);
    let report = analyze(&sim.topology(), &SystemModel::new());
    let diags = report.by_rule("couple-redundant");
    assert_eq!(diags.len(), 1, "{report}");
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].path, "mgr->sub");
    assert!(diags[0]
        .message
        .contains("duplicates an existing wire edge"));
    // Redundant couples never changed the partition, so the island rule
    // stays quiet, and warnings do not spoil cleanliness.
    assert!(report.by_rule("couple-merges-islands").is_empty());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn golden_couple_merges_islands() {
    // Island 1: a manager/subordinate pair. Island 2: a well-formed hop
    // ring. The single couple is the only edge welding them together.
    let mut sim = Sim::new();
    let main = AxiBundle::with_defaults(sim.pool_mut());
    let mgr = sim.add(Mgr(main));
    sim.add(Sub(main));
    let ring_a = AxiBundle::with_defaults(sim.pool_mut());
    let ring_b = AxiBundle::with_defaults(sim.pool_mut());
    let hop = sim.add(Hop {
        name: "ring.a",
        front: ring_a,
        back: ring_b,
    });
    sim.add(Hop {
        name: "ring.b",
        front: ring_b,
        back: ring_a,
    });
    sim.couple(mgr, hop);
    let topo = sim.topology();
    assert_eq!(topo.islands().len(), 1, "the couple merges the partition");
    let report = analyze(&topo, &SystemModel::new());
    let diags = report.by_rule("couple-merges-islands");
    assert_eq!(diags.len(), 1, "{report}");
    assert_eq!(diags[0].severity, Severity::Info);
    assert_eq!(diags[0].path, "mgr->ring.a");
    assert!(
        diags[0].message.contains("(mgr -> ring.a)"),
        "the exact edge to blame is named: {}",
        diags[0].message
    );
    assert!(report.by_rule("couple-redundant").is_empty());
}

#[test]
fn golden_dependence_unreachable() {
    // A hop on a private bundle pair nobody else touches: no wire, couple,
    // or comb edge reaches it.
    let mut sim = Sim::new();
    let main = AxiBundle::with_defaults(sim.pool_mut());
    sim.add(Mgr(main));
    sim.add(Sub(main));
    let front = AxiBundle::with_defaults(sim.pool_mut());
    let back = AxiBundle::with_defaults(sim.pool_mut());
    sim.add(Hop {
        name: "stray",
        front,
        back,
    });
    let report = analyze(&sim.topology(), &SystemModel::new());
    let diags = report.by_rule("dependence-unreachable");
    assert_eq!(diags.len(), 1, "{report}");
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].path, "stray");
}

/// The full testbench — the topology every experiment uses — is
/// analyzer-clean in its default shapes.
#[test]
fn testbench_is_analyzer_clean() {
    let mut cfg = TestbenchConfig::single_source(1);
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.core_regulation = Regulation::Realm(cheshire_soc::experiments::llc_regulation(1, 0, 0));
    cfg.dma_regulation = Regulation::Realm(cheshire_soc::experiments::llc_regulation(1, 0, 0));
    let tb = Testbench::new(cfg);
    let report = tb.lint_report();
    assert!(report.is_clean(), "{report}");
    // The structural rules found nothing at all — only the two
    // informational address-map gaps between CFG/SPM/LLC windows.
    assert!(
        report.diagnostics().iter().all(|d| d.rule == "addrmap-gap"),
        "{report}"
    );
}

/// Pass C on the full testbench: the crossbar wires every manager to
/// every subordinate, so the Cheshire system is — by design — exactly one
/// island, and this must never silently fragment (a fragment would mean a
/// component lost its port declarations).
#[test]
fn testbench_partition_is_one_island() {
    let mut cfg = TestbenchConfig::single_source(1);
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.core_regulation = Regulation::Realm(cheshire_soc::experiments::llc_regulation(1, 0, 0));
    cfg.dma_regulation = Regulation::Realm(cheshire_soc::experiments::llc_regulation(1, 0, 0));
    let tb = Testbench::new(cfg);
    let p = tb.partition();
    assert_eq!(p.island_count(), 1, "{}", p.to_json());
    assert_eq!(p.largest_island(), p.names.len());
    assert_eq!(p.schedule.len(), p.names.len());
    // The MMIO frontend's zero-latency coupling into each REALM unit gives
    // the schedule a depth of at least two (mmio before the units).
    assert!(p.depth >= 2, "{}", p.to_json());
    let mmio_pos = p
        .schedule
        .iter()
        .position(|&i| p.names[i] == "mmio")
        .expect("mmio scheduled");
    for (pos, &i) in p.schedule.iter().enumerate() {
        if p.names[i].starts_with("realm.") {
            assert!(
                mmio_pos < pos,
                "mmio must evaluate before {} in {:?}",
                p.names[i],
                p.schedule
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: every FuzzSpec-generated configuration-master script
    /// yields a testbench that passes Pass A with zero errors — fuzzed
    /// traffic cannot make a well-formed topology ill-formed.
    #[test]
    fn fuzzed_testbenches_pass_the_analyzer(seed in 0u64..1_000_000, ops in 1usize..32) {
        let script = FuzzSpec::new(LLC_BASE, 64 * 1024).with_ops(ops).generate(seed);
        let mut cfg = TestbenchConfig::single_source(1);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.core_regulation =
            Regulation::Realm(cheshire_soc::experiments::llc_regulation(16, 0, 0));
        cfg.dma_regulation =
            Regulation::Realm(cheshire_soc::experiments::llc_regulation(16, 4096, 1000));
        cfg.config_script = script;
        cfg.monitors = false;
        let tb = Testbench::new(cfg);
        let report = tb.lint_report();
        prop_assert!(report.is_clean(), "{}", report);
    }
}
