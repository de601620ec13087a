//! Pass C: static dependence analysis — evaluation schedule and island
//! partition.
//!
//! Consumes the same inputs as Pass A — a [`Topology`] (component ports,
//! wires, and [`Sim::couple`](axi_sim::Sim::couple) declarations) plus the
//! [`SystemModel`]'s combinational couplings — and builds the full
//! intra-cycle dependence graph:
//!
//! - **wire edges** from `PortDecl`/`PortDir` (driver → consumer/observer,
//!   one per shared wire),
//! - **couple edges** from out-of-band `Sim::couple` declarations
//!   (source → dependent),
//! - **comb edges** from the system model's declared zero-latency
//!   couplings (the input of the `zero-latency-cycle` rule).
//!
//! From the graph, [`analyze_deps`] computes a [`Partition`]:
//!
//! - a deterministic **static evaluation schedule** — a topological order
//!   over the *zero-latency* edges (couples and comb couplings; wire hops
//!   are registered and thus never constrain intra-cycle order), with
//!   smallest-registration-index tie-breaking, island-major;
//! - the **island partition**: connected components of the undirected
//!   dependence graph. No edge of any kind crosses an island, so each
//!   island can be stepped independently of the others; the
//!   `REALM_SANITIZE=1` access sanitizer checks at runtime that no
//!   undeclared access escapes it.
//!
//! Three diagnostics police the couple declarations themselves: a couple
//! duplicating an existing wire edge (`couple-redundant`), a couple whose
//! removal would split an island (`couple-merges-islands`, with the exact
//! edge to blame), and components that no dependence edge reaches at all
//! (`dependence-unreachable`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use axi_sim::{Json, Layout, PortDir, Topology};

use crate::diag::{Diagnostic, Report, Severity};
use crate::system::SystemModel;

/// What kind of dependence an edge represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepEdgeKind {
    /// A shared pool wire (registered: adds a cycle of latency, so it
    /// groups components into islands but never constrains intra-cycle
    /// evaluation order).
    Wire,
    /// An out-of-band [`Sim::couple`](axi_sim::Sim::couple) declaration
    /// (zero-latency: the dependent may observe the source same-cycle).
    Couple,
    /// A declared combinational coupling from the [`SystemModel`]
    /// (zero-latency).
    Comb,
}

impl DepEdgeKind {
    /// Lower-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            DepEdgeKind::Wire => "wire",
            DepEdgeKind::Couple => "couple",
            DepEdgeKind::Comb => "comb",
        }
    }
}

/// One directed edge of the intra-cycle dependence graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DepEdge {
    /// Registration index of the component evaluated first.
    pub from: usize,
    /// Registration index of the component that observes `from`.
    pub to: usize,
    /// What carries the dependence.
    pub kind: DepEdgeKind,
    /// The carrying wire's `(channel, index)` for a wire edge; `None` for
    /// couple and comb edges.
    pub wire: Option<(&'static str, usize)>,
}

/// The static dependence artifact for one system: every edge, the island
/// partition, and the deterministic evaluation schedule.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    /// Component instance names, in registration order.
    pub names: Vec<String>,
    /// Every dependence edge (wire, couple, comb), deterministic order.
    pub edges: Vec<DepEdge>,
    /// Connected components of the undirected dependence graph, ordered by
    /// smallest member; members in registration order. Opaque (port-less)
    /// components conservatively collapse everything into one island.
    pub islands: Vec<Vec<usize>>,
    /// Island-major topological order over the zero-latency edges with
    /// smallest-index tie-breaking — the static evaluation schedule.
    /// Components on a zero-latency cycle (a `zero-latency-cycle` error)
    /// fall back to registration order at the end of their island.
    pub schedule: Vec<usize>,
    /// Longest zero-latency chain, in components (1 = no zero-latency
    /// edges at all; 0 = empty system).
    pub depth: usize,
    /// Number of opaque (port-less) components.
    pub opaque: usize,
}

impl Partition {
    /// Number of independently steppable islands.
    pub fn island_count(&self) -> usize {
        self.islands.len()
    }

    /// Size of the largest island — the serial fraction an island-parallel
    /// kernel cannot break up without the finer arena-level analysis.
    pub fn largest_island(&self) -> usize {
        self.islands.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of edges of the given kind.
    pub fn edge_count(&self, kind: DepEdgeKind) -> usize {
        self.edges.iter().filter(|e| e.kind == kind).count()
    }

    /// The partition as a JSON value:
    ///
    /// ```json
    /// {"components":N,"opaque":N,"island_count":N,
    ///  "largest_island":N,"schedule_depth":N,
    ///  "edges":{"wire":N,"couple":N,"comb":N},
    ///  "islands":[["name",...],...],"schedule":["name",...]}
    /// ```
    pub fn to_json_value(&self) -> Json {
        let names = |indices: &[usize]| Json::arr(indices.iter().map(|&i| self.names[i].as_str()));
        Json::obj([
            ("components", self.names.len().into()),
            ("opaque", self.opaque.into()),
            ("island_count", self.island_count().into()),
            ("largest_island", self.largest_island().into()),
            ("schedule_depth", self.depth.into()),
            (
                "edges",
                Json::obj([
                    ("wire", self.edge_count(DepEdgeKind::Wire).into()),
                    ("couple", self.edge_count(DepEdgeKind::Couple).into()),
                    ("comb", self.edge_count(DepEdgeKind::Comb).into()),
                ]),
            ),
            (
                "islands",
                Json::Arr(self.islands.iter().map(|island| names(island)).collect()),
            ),
            ("schedule", names(&self.schedule)),
        ])
    }

    /// [`Partition::to_json_value`] rendered on one line, without
    /// whitespace.
    pub fn to_json(&self) -> String {
        self.to_json_value().render(Layout::Compact)
    }
}

/// Runs Pass C: builds the dependence graph, partitions it into islands,
/// computes the static evaluation schedule, and reports the couple
/// diagnostics (`couple-redundant`, `couple-merges-islands`,
/// `dependence-unreachable`). Also run as part of
/// [`analyze`](crate::analyze), which keeps only the diagnostics; call
/// this directly when the [`Partition`] is needed.
pub fn analyze_deps(topo: &Topology, model: &SystemModel) -> (Partition, Report) {
    let partition = build_partition(topo, model);
    let mut report = Report::new();
    check_couple_redundant(topo, &mut report);
    check_couple_merges_islands(topo, &mut report);
    check_dependence_unreachable(topo, &partition, &mut report);
    (partition, report)
}

/// Resolves a system-model node name to a component registration index
/// (first match; comb couplings name component instances).
fn resolve(topo: &Topology, name: &str) -> Option<usize> {
    topo.components().iter().position(|c| c.name == name)
}

fn build_partition(topo: &Topology, model: &SystemModel) -> Partition {
    let components = topo.components();
    let index = topo.wire_index();
    let n = components.len();
    let names: Vec<String> = components.iter().map(|c| c.name.clone()).collect();

    // Wire edges: driver → consumer/observer per shared wire, in key
    // order (channel, then index), which makes the emission order
    // deterministic.
    let mut edges: Vec<DepEdge> = Vec::new();
    let mut drivers: Vec<usize> = Vec::new();
    let mut sinks: Vec<usize> = Vec::new();
    for key in 0..index.len() {
        drivers.clear();
        sinks.clear();
        for end in index.ends(key) {
            let side = match end.dir {
                PortDir::Drive => &mut drivers,
                PortDir::Consume | PortDir::Observe => &mut sinks,
            };
            if !side.contains(&end.component) {
                side.push(end.component);
            }
        }
        let pair = index.pair(key);
        for &d in &drivers {
            for &s in &sinks {
                if d != s {
                    edges.push(DepEdge {
                        from: d,
                        to: s,
                        kind: DepEdgeKind::Wire,
                        wire: Some(pair),
                    });
                }
            }
        }
    }

    // Couple edges: source → dependent, declaration order.
    for &(source, dependent) in topo.couples() {
        if source < n && dependent < n {
            edges.push(DepEdge {
                from: source,
                to: dependent,
                kind: DepEdgeKind::Couple,
                wire: None,
            });
        }
    }

    // Comb edges from the system model, resolved by instance name;
    // unresolvable names are skipped (the model may describe nodes the
    // topology does not register as components).
    let mut comb_pairs: Vec<(usize, usize)> = Vec::new();
    for (a, b) in &model.comb_edges {
        if let (Some(i), Some(j)) = (resolve(topo, a), resolve(topo, b)) {
            if i != j {
                comb_pairs.push((i, j));
                edges.push(DepEdge {
                    from: i,
                    to: j,
                    kind: DepEdgeKind::Comb,
                    wire: None,
                });
            }
        }
    }

    let islands = topo.islands_with(&comb_pairs);

    // Evaluation schedule: Kahn's algorithm over the zero-latency edges
    // only (couples + comb couplings). Wire hops are registered — a beat
    // pushed at cycle t is visible at t+1 — so they never constrain the
    // order within a cycle; the request/response wire loops (manager →
    // memory → manager) would otherwise make every system cyclic.
    let mut zadj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for e in &edges {
        if matches!(e.kind, DepEdgeKind::Couple | DepEdgeKind::Comb) {
            zadj[e.from].push(e.to);
            indeg[e.to] += 1;
        }
    }
    let mut schedule = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Zero-latency edges never cross islands (islands were computed with
    // both couple and comb edges merged in), so per-island Kahn over the
    // shared in-degree array is sound.
    for island in &islands {
        let mut heap: BinaryHeap<Reverse<usize>> = island
            .iter()
            .copied()
            .filter(|&i| indeg[i] == 0)
            .map(Reverse)
            .collect();
        while let Some(Reverse(i)) = heap.pop() {
            schedule.push(i);
            placed[i] = true;
            for &j in &zadj[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    heap.push(Reverse(j));
                }
            }
        }
        // Members on a zero-latency cycle (an error Pass A already
        // reports) keep registration order at the end of their island.
        for &i in island {
            if !placed[i] {
                schedule.push(i);
                placed[i] = true;
            }
        }
    }

    // Schedule depth: longest zero-latency chain, in components. The
    // schedule emits sources before sinks for the acyclic part, so one
    // forward sweep suffices.
    let mut node_depth = vec![1usize; n];
    for &i in &schedule {
        for &j in &zadj[i] {
            node_depth[j] = node_depth[j].max(node_depth[i] + 1);
        }
    }
    let depth = node_depth.into_iter().max().unwrap_or(0);

    Partition {
        names,
        edges,
        islands,
        schedule,
        depth,
        opaque: topo.opaque_components(),
    }
}

/// `couple-redundant`: a couple between two components that already share
/// a declared wire. The wire already puts the pair in one island, so as a
/// *dependence* edge the couple adds nothing — either the shared state
/// mirrors what the wire carries (drop the couple) or the ports
/// over-declare. Warning, not error: the couple still changes arena-kernel
/// wake behaviour for writes without wire activity.
fn check_couple_redundant(topo: &Topology, report: &mut Report) {
    let couples = topo.couples();
    if couples.is_empty() {
        return;
    }
    let components = topo.components();
    let index = topo.wire_index();
    let n = components.len();
    // `marked[key] == c` while couple `c` is checked: the source touches
    // the wire.
    let mut marked = vec![usize::MAX; index.len()];
    for (c, &(s, d)) in couples.iter().enumerate() {
        if s >= n || d >= n {
            continue;
        }
        for &k in index.port_keys(s) {
            marked[k] = c;
        }
        // The lowest shared key, i.e. the first shared wire in
        // (channel, index) order.
        let shared = index
            .port_keys(d)
            .iter()
            .copied()
            .filter(|&k| marked[k] == c)
            .min();
        if let Some(key) = shared {
            let (channel, wire) = index.pair(key);
            report.push(Diagnostic::new(
                "couple-redundant",
                Severity::Warning,
                format!("{}->{}", components[s].name, components[d].name),
                format!(
                    "couple duplicates an existing wire edge: both components already \
                     touch {channel}[{wire}], which keeps the pair in one island"
                ),
            ));
        }
    }
}

/// `couple-merges-islands`: a couple whose endpoints sit in different
/// islands of the wire-only dependence graph. The couple alone welds the
/// two islands together — removing (or re-architecting) exactly this edge
/// would let them step independently. Info: merging islands is often the
/// declared intent (an out-of-band config channel), but it is the one
/// edge to blame when a partition is coarser than expected.
fn check_couple_merges_islands(topo: &Topology, report: &mut Report) {
    let couples = topo.couples();
    if couples.is_empty() {
        return;
    }
    let components = topo.components();
    let n = components.len();
    let islands = topo.wire_islands();
    let mut island_of = vec![0usize; n];
    for (k, island) in islands.iter().enumerate() {
        for &i in island {
            island_of[i] = k;
        }
    }
    for &(s, d) in couples {
        if s >= n || d >= n || island_of[s] == island_of[d] {
            continue;
        }
        report.push(Diagnostic::new(
            "couple-merges-islands",
            Severity::Info,
            format!("{}->{}", components[s].name, components[d].name),
            format!(
                "couple edge ({} -> {}) merges two otherwise-independent islands \
                 ({} and {} components): without it they could step in parallel",
                components[s].name,
                components[d].name,
                islands[island_of[s]].len(),
                islands[island_of[d]].len()
            ),
        ));
    }
}

/// `dependence-unreachable`: a non-opaque component that no dependence
/// edge of any kind touches. It can never exchange data with the rest of
/// the system and the evaluation schedule has nothing to order it
/// against — almost always a component wired to the wrong bundle.
/// Suppressed when fewer than two non-opaque components exist (a
/// single-component system is trivially edge-free).
fn check_dependence_unreachable(topo: &Topology, partition: &Partition, report: &mut Report) {
    let non_opaque = topo.components().iter().filter(|c| !c.is_opaque()).count();
    if non_opaque < 2 {
        return;
    }
    let n = topo.components().len();
    let mut connected = vec![false; n];
    for e in &partition.edges {
        connected[e.from] = true;
        connected[e.to] = true;
    }
    for c in topo.components() {
        if !c.is_opaque() && !connected[c.index] {
            report.push(Diagnostic::new(
                "dependence-unreachable",
                Severity::Warning,
                c.name.clone(),
                "no dependence edge (shared wire, couple, or comb coupling) connects \
                 this component to any other: it is unreachable in dependence order"
                    .to_owned(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_sim::{AxiBundle, Component, PortDecl, Sim, TickCtx};

    struct Mgr {
        bundle: AxiBundle,
        name: &'static str,
    }
    impl Component for Mgr {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            self.name
        }
        fn ports(&self) -> Vec<PortDecl> {
            self.bundle.manager_ports()
        }
    }

    struct Sub {
        bundle: AxiBundle,
        name: &'static str,
    }
    impl Component for Sub {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            self.name
        }
        fn ports(&self) -> Vec<PortDecl> {
            self.bundle.subordinate_ports()
        }
    }

    fn pair(
        names: (&'static str, &'static str),
    ) -> (Sim, axi_sim::ComponentId, axi_sim::ComponentId) {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let a = sim.add(Mgr {
            bundle,
            name: names.0,
        });
        let b = sim.add(Sub {
            bundle,
            name: names.1,
        });
        (sim, a, b)
    }

    #[test]
    fn wire_edges_and_single_island() {
        let (sim, _, _) = pair(("mgr", "sub"));
        let (p, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert!(report.diagnostics().is_empty());
        assert_eq!(p.island_count(), 1);
        assert_eq!(p.largest_island(), 2);
        // 5 channels: AW/W/AR mgr→sub, B/R sub→mgr.
        assert_eq!(p.edge_count(DepEdgeKind::Wire), 5);
        assert_eq!(p.edge_count(DepEdgeKind::Couple), 0);
        // No zero-latency edges: schedule falls back to registration order
        // and the depth is one.
        assert_eq!(p.schedule, vec![0, 1]);
        assert_eq!(p.depth, 1);
    }

    #[test]
    fn comb_edges_order_the_schedule() {
        let (sim, _, _) = pair(("a", "b"));
        let model = SystemModel::new().comb_edge("b", "a");
        let (p, _) = analyze_deps(&sim.topology(), &model);
        assert_eq!(p.edge_count(DepEdgeKind::Comb), 1);
        assert_eq!(p.schedule, vec![1, 0], "comb source evaluates first");
        assert_eq!(p.depth, 2);
        // Unresolvable comb names are skipped silently.
        let model = SystemModel::new().comb_edge("nope", "a");
        let (p, _) = analyze_deps(&sim.topology(), &model);
        assert_eq!(p.edge_count(DepEdgeKind::Comb), 0);
    }

    #[test]
    fn redundant_couple_flagged() {
        let (mut sim, mgr, sub) = pair(("mgr", "sub"));
        sim.couple(mgr, sub);
        let (p, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert_eq!(p.edge_count(DepEdgeKind::Couple), 1);
        let diags = report.by_rule("couple-redundant");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].path, "mgr->sub");
        // The couple edge orders the schedule even when redundant.
        assert_eq!(p.schedule, vec![0, 1]);
        assert_eq!(p.depth, 2);
        // Redundant: it did not change the island partition.
        assert!(report.by_rule("couple-merges-islands").is_empty());
    }

    #[test]
    fn island_merging_couple_flagged_with_exact_edge() {
        let mut sim = Sim::new();
        let b1 = AxiBundle::with_defaults(sim.pool_mut());
        let b2 = AxiBundle::with_defaults(sim.pool_mut());
        let a = sim.add(Mgr {
            bundle: b1,
            name: "left",
        });
        let b = sim.add(Mgr {
            bundle: b2,
            name: "right",
        });
        sim.couple(b, a);
        let (p, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert_eq!(p.island_count(), 1, "couple merges the two wire islands");
        let diags = report.by_rule("couple-merges-islands");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Info);
        assert_eq!(diags[0].path, "right->left");
        assert!(diags[0].message.contains("(right -> left)"));
        assert!(report.by_rule("couple-redundant").is_empty());
        // Couple source steps before its dependent within the island.
        assert_eq!(p.schedule, vec![1, 0]);
    }

    #[test]
    fn unreachable_component_flagged() {
        let mut sim = Sim::new();
        let shared = AxiBundle::with_defaults(sim.pool_mut());
        let lonely = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Mgr {
            bundle: shared,
            name: "mgr",
        });
        sim.add(Sub {
            bundle: shared,
            name: "sub",
        });
        sim.add(Mgr {
            bundle: lonely,
            name: "stray",
        });
        let (p, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert_eq!(p.island_count(), 2);
        let diags = report.by_rule("dependence-unreachable");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].path, "stray");
    }

    #[test]
    fn unreachable_suppressed_for_single_component_systems() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Mgr {
            bundle,
            name: "solo",
        });
        let (_, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert!(report.by_rule("dependence-unreachable").is_empty());
    }

    #[test]
    fn empty_topology_is_empty_artifact() {
        let topo = Topology::default();
        let (p, report) = analyze_deps(&topo, &SystemModel::new());
        assert!(report.diagnostics().is_empty());
        assert_eq!(p.island_count(), 0);
        assert_eq!(p.largest_island(), 0);
        assert_eq!(p.depth, 0);
        assert!(p.schedule.is_empty());
    }

    #[test]
    fn partition_json_shape() {
        let (sim, _, _) = pair(("mgr", "sub"));
        let (p, _) = analyze_deps(&sim.topology(), &SystemModel::new());
        let j = p.to_json();
        assert!(j.starts_with("{\"components\":2,"));
        assert!(j.contains("\"island_count\":1"));
        assert!(j.contains("\"schedule\":[\"mgr\",\"sub\"]"));
        assert!(j.ends_with("]}"));
    }
}
