//! The dense wire-key analyses against a string-keyed reference.
//!
//! Islands, Pass C's wire edges, the `couple-redundant` finding and Pass
//! A's wire rules all read [`WireIndex`](axi_sim::WireIndex) keys. The
//! reference below keys plain `BTreeMap`s by `(channel label, wire index)`
//! instead, the way the passes did before the index existed, and a
//! property test compares the two over random declarations: unknown
//! channel labels, wire indices past the pool's count (up to
//! `usize::MAX`), observer-only and opaque components, couples and comb
//! edges with out-of-range or unknown endpoints.

use std::collections::{BTreeMap, BTreeSet};

use axi_sim::{PortDecl, PortDir, TopoComponent, TopoWire, Topology};
use proptest::prelude::*;
use realm_lint::{analyze, analyze_deps, DepEdgeKind, SystemModel};

type Key<'a> = (&'a str, usize);

/// Union-find islands over shared wires, optionally the couples, and
/// `extra` edges; opaque components merge with everyone.
fn ref_islands(topo: &Topology, couples: bool, extra: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let n = topo.components().len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            i = parent[i];
        }
        i
    }
    let mut union = |a: usize, b: usize| {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra.max(rb)] = ra.min(rb);
    };
    let mut first: BTreeMap<Key<'_>, usize> = BTreeMap::new();
    for c in topo.components() {
        for p in &c.ports {
            match first.get(&(p.channel, p.wire)) {
                Some(&f) => union(f, c.index),
                None => {
                    first.insert((p.channel, p.wire), c.index);
                }
            }
        }
    }
    let couple_edges = if couples { topo.couples() } else { &[] };
    for &(a, b) in couple_edges.iter().chain(extra) {
        if a < n && b < n {
            union(a, b);
        }
    }
    for c in topo.components() {
        if c.is_opaque() {
            for other in 0..n {
                union(c.index, other);
            }
        }
    }
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        by_root.entry(find(&mut parent, i)).or_default().push(i);
    }
    let mut islands: Vec<Vec<usize>> = by_root.into_values().collect();
    islands.sort();
    islands
}

/// Per wire: deduplicated drivers and sinks (consumers + observers).
fn ref_by_wire(topo: &Topology) -> BTreeMap<Key<'_>, (Vec<usize>, Vec<usize>)> {
    let mut by_wire: BTreeMap<Key<'_>, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for c in topo.components() {
        for p in &c.ports {
            let (drivers, sinks) = by_wire.entry((p.channel, p.wire)).or_default();
            let side = if p.dir == PortDir::Drive {
                drivers
            } else {
                sinks
            };
            if !side.contains(&c.index) {
                side.push(c.index);
            }
        }
    }
    by_wire
}

/// Wire edges in `(channel, index)` order, as `(from, to, "AW[3]")`.
fn ref_wire_edges(topo: &Topology) -> Vec<(usize, usize, String)> {
    let mut edges = Vec::new();
    for ((channel, index), (drivers, sinks)) in ref_by_wire(topo) {
        for &d in &drivers {
            for &s in &sinks {
                if d != s {
                    edges.push((d, s, format!("{channel}[{index}]")));
                }
            }
        }
    }
    edges
}

/// Comb couplings resolved by first name match, self-loops dropped.
fn ref_comb_pairs(topo: &Topology, model: &SystemModel) -> Vec<(usize, usize)> {
    let resolve = |name: &str| topo.components().iter().position(|c| c.name == name);
    model
        .comb_edges
        .iter()
        .filter_map(|(a, b)| Some((resolve(a)?, resolve(b)?)))
        .filter(|(i, j)| i != j)
        .collect()
}

/// `couple-redundant` paths and the first shared wire of each.
fn ref_couple_redundant(topo: &Topology) -> Vec<String> {
    let comps = topo.components();
    let n = comps.len();
    let wires: Vec<BTreeSet<Key<'_>>> = comps
        .iter()
        .map(|c| c.ports.iter().map(|p| (p.channel, p.wire)).collect())
        .collect();
    let mut found = Vec::new();
    for &(s, d) in topo.couples() {
        if s < n && d < n {
            if let Some(&(channel, index)) = wires[s].intersection(&wires[d]).next() {
                found.push(format!(
                    "{}->{} {channel}[{index}]",
                    comps[s].name, comps[d].name
                ));
            }
        }
    }
    found
}

/// Pass A's wire findings as `(rule, path, message)`, in pool-wire order.
fn ref_wire_rules(topo: &Topology) -> Vec<(String, String, String)> {
    let opaque = topo.opaque_components() > 0;
    let mut found = Vec::new();
    for wire in topo.wires() {
        let (mut drivers, mut consumers) = (Vec::new(), Vec::new());
        for c in topo.components() {
            for p in &c.ports {
                if p.channel == wire.channel && p.wire == wire.index {
                    match p.dir {
                        PortDir::Drive => drivers.push(c.name.as_str()),
                        PortDir::Consume => consumers.push(c.name.as_str()),
                        PortDir::Observe => {}
                    }
                }
            }
        }
        let path = format!("{}[{}]", wire.channel, wire.index);
        let mut push = |rule: &str, message: String| {
            found.push((rule.to_owned(), path.clone(), message));
        };
        if drivers.len() > 1 {
            push(
                "wire-doubly-driven",
                format!("wire has {} drivers: {}", drivers.len(), drivers.join(", ")),
            );
        }
        let note = |what: &str| {
            if opaque {
                format!(" (opaque components present; they may {what} it)")
            } else {
                String::new()
            }
        };
        match (drivers.is_empty(), consumers.is_empty()) {
            (true, true) => push("wire-dangling", "wire has no declared endpoints".into()),
            (false, true) => push(
                "wire-dangling",
                format!(
                    "wire driven by {} but never consumed{}",
                    drivers.join(", "),
                    note("consume")
                ),
            ),
            (true, false) => push(
                "wire-dangling",
                format!(
                    "wire consumed by {} but never driven{}",
                    consumers.join(", "),
                    note("drive")
                ),
            ),
            (false, false) => {}
        }
    }
    found
}

const LABELS: [&str; 6] = ["AW", "W", "B", "AR", "R", "XY"];

/// One drawn component: `(label, wire, dir)` per port, and a shape flag.
type Drawn = (Vec<(usize, usize, usize)>, usize);

/// Builds a topology from raw draws: per component a list of
/// `(label, wire, dir)` ports and a shape flag (0 = observer-only), the
/// pool's wire count per real channel, and couples.
fn topology(comps: &[Drawn], pool: [usize; 5], couples: &[(usize, usize)]) -> Topology {
    let components = comps
        .iter()
        .enumerate()
        .map(|(index, (ports, shape))| TopoComponent {
            index,
            name: format!("c{index}"),
            ports: ports
                .iter()
                .map(|&(label, wire, dir)| {
                    let wire = if wire == 3 { usize::MAX } else { wire };
                    let dir = match (shape, dir) {
                        (0, _) | (_, 2) => PortDir::Observe,
                        (_, 0) => PortDir::Drive,
                        _ => PortDir::Consume,
                    };
                    PortDecl::new(LABELS[label], wire, dir)
                })
                .collect(),
        })
        .collect();
    let wires = LABELS
        .iter()
        .zip(pool)
        .flat_map(|(&channel, count)| {
            (0..count).map(move |index| TopoWire {
                channel,
                index,
                capacity: 2,
            })
        })
        .collect();
    Topology::new(components, wires, couples.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn dense_keys_match_the_string_keyed_reference(
        comps in prop::collection::vec(
            (prop::collection::vec((0usize..6, 0usize..4, 0usize..3), 0..6), 0usize..4),
            1..9,
        ),
        pool in (0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4),
        couples in prop::collection::vec((0usize..10, 0usize..10), 0..5),
        combs in prop::collection::vec((0usize..10, 0usize..10), 0..3),
    ) {
        let topo = topology(&comps, [pool.0, pool.1, pool.2, pool.3, pool.4], &couples);
        let mut model = SystemModel::new();
        for (a, b) in combs {
            model = model.comb_edge(format!("c{a}"), format!("c{b}"));
        }

        prop_assert_eq!(topo.islands(), ref_islands(&topo, true, &[]));
        prop_assert_eq!(topo.wire_islands(), ref_islands(&topo, false, &[]));
        let comb_pairs = ref_comb_pairs(&topo, &model);
        prop_assert_eq!(topo.islands_with(&comb_pairs), ref_islands(&topo, true, &comb_pairs));

        let (partition, deps) = analyze_deps(&topo, &model);
        let wire_edges: Vec<(usize, usize, String)> = partition
            .edges
            .iter()
            .filter(|e| e.kind == DepEdgeKind::Wire)
            .map(|e| {
                let (channel, index) = e.wire.expect("wire edges name their wire");
                (e.from, e.to, format!("{channel}[{index}]"))
            })
            .collect();
        prop_assert_eq!(wire_edges, ref_wire_edges(&topo));
        prop_assert_eq!(&partition.islands, &ref_islands(&topo, true, &comb_pairs));

        let redundant: Vec<String> = deps
            .by_rule("couple-redundant")
            .iter()
            .map(|d| {
                let wire = d.message.split("touch ").nth(1).and_then(|m| m.split(',').next());
                format!("{} {}", d.path, wire.unwrap_or("?"))
            })
            .collect();
        prop_assert_eq!(redundant, ref_couple_redundant(&topo));

        let report = analyze(&topo, &model);
        let wire_rules: Vec<(String, String, String)> = report
            .diagnostics()
            .iter()
            .filter(|d| matches!(d.rule, "wire-dangling" | "wire-doubly-driven"))
            .map(|d| (d.rule.to_owned(), d.path.clone(), d.message.clone()))
            .collect();
        prop_assert_eq!(wire_rules, ref_wire_rules(&topo));

        // Every declared pair the pool lacks is reported once, by path.
        let allocated: BTreeSet<(&str, usize)> =
            topo.wires().iter().map(|w| (w.channel, w.index)).collect();
        let declared: BTreeSet<(&str, usize)> = topo
            .components()
            .iter()
            .flat_map(|c| c.ports.iter().map(|p| (p.channel, p.wire)))
            .collect();
        let missing: Vec<String> = declared
            .difference(&allocated)
            .map(|(channel, index)| format!("{channel}[{index}]"))
            .collect();
        let unallocated: Vec<String> = report
            .by_rule("wire-unallocated")
            .iter()
            .map(|d| d.path.clone())
            .collect();
        prop_assert_eq!(unallocated, missing);
    }
}
