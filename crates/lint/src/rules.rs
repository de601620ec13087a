//! Pass A: the elaboration-time rules.
//!
//! [`analyze`] runs every rule in a fixed order against a
//! [`Topology`] + [`SystemModel`] pair and returns the [`Report`].
//! Rules are pure functions of their inputs; the order of findings is
//! deterministic.

use std::collections::BTreeMap;

use axi_sim::{PortDir, Topology};

use crate::diag::{Diagnostic, Report, Severity};
use crate::sched::Partition;
use crate::system::SystemModel;

/// A fragment must stay within one DRAM/LLC page: AXI4 forbids bursts
/// crossing a 4 KiB boundary, and the REALM splitter inherits the rule.
const PAGE: u64 = 4096;

/// Runs every rule. See the crate docs for the rule catalogue.
pub fn analyze(topo: &Topology, model: &SystemModel) -> Report {
    analyze_with_partition(topo, model).0
}

/// Runs every rule, like [`analyze`], and also returns the Pass C
/// [`Partition`] the analysis computes on the way — a caller that needs
/// both the verdict and the batch plan runs Pass C once, not twice.
pub fn analyze_with_partition(topo: &Topology, model: &SystemModel) -> (Report, Partition) {
    let mut report = Report::new();
    check_wires(topo, &mut report);
    check_reachability(topo, &mut report);
    check_address_map(model, &mut report);
    check_id_width(model, &mut report);
    check_configs(model, &mut report);
    check_fragmentation(model, &mut report);
    check_regions(model, &mut report);
    check_budgets(model, &mut report);
    check_comb_cycles(model, &mut report);
    // Pass C rides along: the couple/dependence diagnostics join the
    // report, after Pass A's.
    let (partition, deps) = crate::sched::analyze_deps(topo, model);
    for d in deps.diagnostics() {
        report.push(d.clone());
    }
    (report, partition)
}

/// Display key for a wire: `AW[3]`.
fn wire_path(channel: &str, index: usize) -> String {
    format!("{channel}[{index}]")
}

/// `wire-dangling` / `wire-doubly-driven`: every allocated wire must have
/// exactly one driver and exactly one consumer among the declared,
/// non-observing endpoints. Opaque components (no [`ports`]
/// declaration) may legitimately own undeclared endpoints, so their
/// presence demotes dangling findings to warnings.
///
/// `wire-unallocated`: a port naming a wire the pool never allocated — an
/// index past the channel's wire count, or a channel label that is not one
/// of the five — describes a connection that cannot exist.
///
/// [`ports`]: axi_sim::Component::ports
fn check_wires(topo: &Topology, report: &mut Report) {
    let index = topo.wire_index();
    let components = topo.components();
    let opaque = topo.opaque_components() > 0;
    let dangling_severity = if opaque {
        Severity::Warning
    } else {
        Severity::Error
    };
    let mut allocated = vec![false; index.len()];
    for wire in topo.wires() {
        let ends = match index.key(wire.channel, wire.index) {
            Some(key) => {
                allocated[key] = true;
                index.ends(key)
            }
            None => &[],
        };
        let count = |dir: PortDir| ends.iter().filter(|e| e.dir == dir).count();
        let (drivers, consumers) = (count(PortDir::Drive), count(PortDir::Consume));
        if drivers == 1 && consumers > 0 {
            continue;
        }
        let names = |dir: PortDir| {
            ends.iter()
                .filter(|e| e.dir == dir)
                .map(|e| components[e.component].name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let path = wire_path(wire.channel, wire.index);
        if drivers > 1 {
            report.push(Diagnostic::new(
                "wire-doubly-driven",
                Severity::Error,
                path.clone(),
                format!("wire has {drivers} drivers: {}", names(PortDir::Drive)),
            ));
        }
        match (drivers == 0, consumers == 0) {
            (true, true) => report.push(Diagnostic::new(
                "wire-dangling",
                Severity::Warning,
                path,
                "wire has no declared endpoints".to_owned(),
            )),
            (false, true) => report.push(Diagnostic::new(
                "wire-dangling",
                dangling_severity,
                path,
                format!(
                    "wire driven by {} but never consumed{}",
                    names(PortDir::Drive),
                    if opaque {
                        " (opaque components present; they may consume it)"
                    } else {
                        ""
                    }
                ),
            )),
            (true, false) => report.push(Diagnostic::new(
                "wire-dangling",
                dangling_severity,
                path,
                format!(
                    "wire consumed by {} but never driven{}",
                    names(PortDir::Consume),
                    if opaque {
                        " (opaque components present; they may drive it)"
                    } else {
                        ""
                    }
                ),
            )),
            (false, false) => {}
        }
    }
    for key in (0..index.len()).filter(|&k| !allocated[k]) {
        let (channel, wire) = index.pair(key);
        let mut declared_by: Vec<&str> = Vec::new();
        for end in index.ends(key) {
            let name = components[end.component].name.as_str();
            if !declared_by.contains(&name) {
                declared_by.push(name);
            }
        }
        report.push(Diagnostic::new(
            "wire-unallocated",
            Severity::Error,
            wire_path(channel, wire),
            format!(
                "declared by {} but the pool allocated no such wire",
                declared_by.join(", ")
            ),
        ));
    }
}

/// `component-unreachable`: a component whose declared wires share no
/// connected path with any traffic source can never see a beat. Sources
/// are pure managers — components that drive a request channel (AW/AR)
/// without consuming one. Observers and opaque components are skipped.
fn check_reachability(topo: &Topology, report: &mut Report) {
    let is_req = |ch: &str| ch == "AW" || ch == "W" || ch == "AR";
    let index = topo.wire_index();
    let components = topo.components();
    let participant: Vec<bool> = components
        .iter()
        .map(|c| !c.is_opaque() && !c.is_observer())
        .collect();
    if !participant.contains(&true) {
        return;
    }
    let sources: Vec<usize> = components
        .iter()
        .filter(|c| participant[c.index])
        .filter(|c| {
            let drives_req = c
                .ports
                .iter()
                .any(|p| p.dir == PortDir::Drive && is_req(p.channel));
            let consumes_req = c
                .ports
                .iter()
                .any(|p| p.dir == PortDir::Consume && is_req(p.channel));
            drives_req && !consumes_req
        })
        .map(|c| c.index)
        .collect();
    if sources.is_empty() {
        // No manager at all: the system is inert, which the wire rules
        // already surface; reachability has nothing to anchor to.
        return;
    }
    // Flood-fill over shared wires, undirected, through non-observing
    // endpoints of participants only.
    let mut reached = vec![false; components.len()];
    let mut queue = sources;
    while let Some(i) = queue.pop() {
        if std::mem::replace(&mut reached[i], true) {
            continue;
        }
        for (p, &key) in components[i].ports.iter().zip(index.port_keys(i)) {
            if p.dir == PortDir::Observe {
                continue;
            }
            for end in index.ends(key) {
                let j = end.component;
                if end.dir != PortDir::Observe && participant[j] && !reached[j] {
                    queue.push(j);
                }
            }
        }
    }
    for c in components {
        if participant[c.index] && !reached[c.index] {
            report.push(Diagnostic::new(
                "component-unreachable",
                Severity::Warning,
                c.name.clone(),
                "no wire path connects this component to any traffic source".to_owned(),
            ));
        }
    }
}

/// `addrmap-overlap` / `addrmap-alignment` / `addrmap-gap`: windows must
/// not overlap (routing would depend on match order), should sit on 4 KiB
/// boundaries (decoders compare page-granular prefixes), and gaps are
/// worth knowing about (accesses there draw DECERR).
fn check_address_map(model: &SystemModel, report: &mut Report) {
    let mut sorted: Vec<&crate::system::AddrWindow> = model.windows.iter().collect();
    sorted.sort_by_key(|w| w.base.raw());
    for w in &sorted {
        if w.base.raw() % PAGE != 0 || w.size % PAGE != 0 {
            report.push(Diagnostic::new(
                "addrmap-alignment",
                Severity::Warning,
                w.name.clone(),
                format!(
                    "window [{:#x}, {:#x}) is not 4 KiB aligned",
                    w.base.raw(),
                    w.end()
                ),
            ));
        }
    }
    for pair in sorted.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.end() > b.base.raw() {
            report.push(Diagnostic::new(
                "addrmap-overlap",
                Severity::Error,
                format!("{}+{}", a.name, b.name),
                format!(
                    "windows [{:#x}, {:#x}) and [{:#x}, {:#x}) overlap",
                    a.base.raw(),
                    a.end(),
                    b.base.raw(),
                    b.end()
                ),
            ));
        } else if a.end() < b.base.raw() {
            report.push(Diagnostic::new(
                "addrmap-gap",
                Severity::Info,
                format!("{}..{}", a.name, b.name),
                format!(
                    "unmapped gap [{:#x}, {:#x}) between windows (accesses draw DECERR)",
                    a.end(),
                    b.base.raw()
                ),
            ));
        }
    }
}

/// `id-width-overflow`: the crossbar extends upstream IDs multiplicatively
/// (`id · n_managers + manager`), so the largest downstream ID is
/// `(max_id + 1) · n_managers − 1`; it must fit the 32-bit ID field or the
/// crossbar's runtime assertion fires mid-simulation.
fn check_id_width(model: &SystemModel, report: &mut Report) {
    if model.n_managers == 0 {
        return;
    }
    let widest = (model.max_txn_id as u64 + 1) * model.n_managers as u64 - 1;
    if widest > u32::MAX as u64 {
        report.push(Diagnostic::new(
            "id-width-overflow",
            Severity::Error,
            "xbar".to_owned(),
            format!(
                "extended ID {widest:#x} for max upstream ID {} across {} managers \
                 exceeds the 32-bit ID field",
                model.max_txn_id, model.n_managers
            ),
        ));
    }
}

/// `config-invalid`: wraps [`DesignConfig::validate`] and
/// [`RuntimeConfig::validate`] so configuration defects surface with the
/// other findings instead of as a panic deep in unit construction.
///
/// [`DesignConfig::validate`]: axi_realm::DesignConfig::validate
/// [`RuntimeConfig::validate`]: axi_realm::RuntimeConfig::validate
fn check_configs(model: &SystemModel, report: &mut Report) {
    for realm in &model.realms {
        if let Err(e) = realm.design.validate() {
            report.push(Diagnostic::new(
                "config-invalid",
                Severity::Error,
                realm.path.clone(),
                e.to_string(),
            ));
        }
        if let Err(e) = realm.config.validate(&realm.design) {
            report.push(Diagnostic::new(
                "config-invalid",
                Severity::Error,
                realm.path.clone(),
                e.to_string(),
            ));
        }
    }
}

/// `frag-4k-crossing`: a fragment larger than a 4 KiB page re-introduces
/// the boundary-crossing bursts the splitter exists to prevent (error);
/// a fragment size that does not divide the page can still straddle a
/// boundary depending on the start address (warning).
fn check_fragmentation(model: &SystemModel, report: &mut Report) {
    for realm in &model.realms {
        let frag_len = realm.config.frag_len as u64;
        if frag_len == 0 {
            continue; // config-invalid already fired
        }
        let frag_bytes = frag_len * model.beat_bytes;
        if frag_bytes > PAGE {
            report.push(Diagnostic::new(
                "frag-4k-crossing",
                Severity::Error,
                realm.path.clone(),
                format!(
                    "fragment of {frag_len} beats × {} B = {frag_bytes} B exceeds the \
                     4 KiB AXI boundary",
                    model.beat_bytes
                ),
            ));
        } else if !PAGE.is_multiple_of(frag_bytes) {
            report.push(Diagnostic::new(
                "frag-4k-crossing",
                Severity::Warning,
                realm.path.clone(),
                format!(
                    "fragment size {frag_bytes} B does not divide 4096; fragments can \
                     straddle a 4 KiB boundary depending on alignment"
                ),
            ));
        }
    }
}

/// `region-unmapped`: a regulated region that no address-map window fully
/// covers monitors traffic that can never reach a subordinate (or only
/// partially) — almost always a mistyped base or size.
fn check_regions(model: &SystemModel, report: &mut Report) {
    if model.windows.is_empty() {
        return;
    }
    for realm in &model.realms {
        for (i, region) in realm.config.regions.iter().enumerate() {
            if region.size == 0 {
                continue;
            }
            let covered = model
                .windows
                .iter()
                .any(|w| w.covers(region.base, region.size));
            if !covered {
                report.push(Diagnostic::new(
                    "region-unmapped",
                    Severity::Warning,
                    format!("{}.region[{i}]", realm.path),
                    format!(
                        "regulated region [{:#x}, {:#x}) is not fully covered by any \
                         address-map window",
                        region.base.raw(),
                        region.base.raw().saturating_add(region.size)
                    ),
                ));
            }
        }
    }
}

/// Runs only the budget-arithmetic rules (`budget-infeasible`,
/// `budget-oversubscribed`) over `model` — the feasibility half of the
/// differential bandwidth-bound oracle.
///
/// A configuration is *feasible* exactly when this report is empty: every
/// reservation fits its window's service capacity (`e ≤ P · W`) and the
/// reservations jointly fit the service rate (`Σ e_i / P_i ≤ W`, checked
/// in exact rational arithmetic). When feasible, the paper's guarantee
/// applies — each regulated manager must be *granted* at least its budget
/// per period once backlogged — and a simulated run that undershoots the
/// resulting completion-time bound is a real bug in either the simulator
/// or the bound (see `realm-fuzz`).
pub fn analyze_budgets(model: &SystemModel) -> Report {
    let mut report = Report::new();
    check_budgets(model, &mut report);
    report
}

/// The analytical worst-case cycle count for a *backlogged* regulated
/// manager to be granted `demand` bytes under a feasible reservation of
/// `budget` bytes per `period` cycles, counted from the period in which
/// the backlog forms.
///
/// Derivation: the budget replenishes to its full value on the period
/// grid and a fragment may start whenever any budget remains, so every
/// *complete* period that begins with backlog drains at least
/// `min(budget, remaining)` bytes. The backlog may form mid-period
/// (worth at most one extra period) and the final grant completes within
/// the period it starts in — hence `(ceil(demand / budget) + 1) · period`
/// periods-worth of cycles suffice for the grants alone. Transport
/// latency downstream of the regulator is *not* included; callers add
/// their own path-latency terms.
///
/// Returns `None` for unregulated configurations (`budget == 0` or
/// `period == 0`), where no reservation — and thus no bound — exists.
pub fn drain_bound_cycles(demand: u64, budget: u64, period: u64) -> Option<u64> {
    if budget == 0 || period == 0 {
        return None;
    }
    Some((demand.div_ceil(budget) + 1).saturating_mul(period))
}

/// `budget-infeasible` / `budget-oversubscribed`: the paper's bandwidth
/// reservation gives each manager `e_i` bytes per period `P_i`; a single
/// reservation exceeding what the subordinate can serve in one period
/// (`e > P · W`) can never be fully granted, and reservations jointly
/// exceeding the service rate (`Σ e_i / P_i > W`) over-subscribe the
/// subordinate. Both are warnings: the paper's own Fig. 6b evaluation
/// over-subscribes the LLC deliberately.
fn check_budgets(model: &SystemModel, report: &mut Report) {
    // Per-window oversubscription accumulator as an exact rational
    // (num/den in u128): window name -> (num, den).
    let mut demand: BTreeMap<&str, (u128, u128)> = BTreeMap::new();
    for realm in &model.realms {
        for (i, region) in realm.config.regions.iter().enumerate() {
            if region.size == 0 || region.budget_max == 0 || region.period == 0 {
                continue; // unregulated or disabled
            }
            let Some((window, rate)) = model.service_rate_at(region.base) else {
                continue; // region-unmapped covers the window miss
            };
            let capacity = region.period.saturating_mul(rate);
            if region.budget_max > capacity {
                report.push(Diagnostic::new(
                    "budget-infeasible",
                    Severity::Warning,
                    format!("{}.region[{i}]", realm.path),
                    format!(
                        "budget {} B per {} cycles exceeds what `{}` can serve in one \
                         period ({} cycles × {} B/cycle = {} B): the reservation can \
                         never be fully granted",
                        region.budget_max,
                        region.period,
                        window.name,
                        region.period,
                        rate,
                        capacity
                    ),
                ));
            }
            // demand += budget / period
            let (num, den) = demand.entry(&window.name).or_insert((0, 1));
            *num = *num * region.period as u128 + region.budget_max as u128 * *den;
            *den *= region.period as u128;
        }
    }
    for (name, rate) in &model.bandwidths {
        let Some(&(num, den)) = demand.get(name.as_str()) else {
            continue;
        };
        if num > *rate as u128 * den {
            // Render the aggregate demand with two decimals for the
            // message; the comparison itself is exact.
            let demand_bpc = num as f64 / den as f64;
            report.push(Diagnostic::new(
                "budget-oversubscribed",
                Severity::Warning,
                name.clone(),
                format!(
                    "aggregate reservations demand {demand_bpc:.2} B/cycle from `{name}` \
                     but it serves at most {rate} B/cycle (paper bound: sum of budgets \
                     e_i over a period P must not exceed P x W)"
                ),
            ));
        }
    }
}

/// `zero-latency-cycle`: every pool wire is registered, so latency-free
/// loops can only arise through declared combinational couplings; a cycle
/// among them would make component evaluation order observable.
fn check_comb_cycles(model: &SystemModel, report: &mut Report) {
    if model.comb_edges.is_empty() {
        return;
    }
    // Adjacency over node names, insertion-ordered.
    let mut names: Vec<&str> = Vec::new();
    for (a, b) in &model.comb_edges {
        for n in [a.as_str(), b.as_str()] {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    let idx = |n: &str| names.iter().position(|x| *x == n).expect("inserted");
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (a, b) in &model.comb_edges {
        adj[idx(a)].push(idx(b));
    }
    // Iterative DFS with colouring; report the first cycle found.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; names.len()];
    let mut parent: Vec<Option<usize>> = vec![None; names.len()];
    for start in 0..names.len() {
        if colour[start] != Colour::White {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        colour[start] = Colour::Grey;
        while let Some(&(node, edge)) = stack.last() {
            if edge < adj[node].len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let next = adj[node][edge];
                match colour[next] {
                    Colour::White => {
                        colour[next] = Colour::Grey;
                        parent[next] = Some(node);
                        stack.push((next, 0));
                    }
                    Colour::Grey => {
                        // Reconstruct the cycle next -> ... -> node -> next.
                        let mut cycle = vec![names[node]];
                        let mut cur = node;
                        while cur != next {
                            cur = parent[cur].expect("grey nodes have parents on this path");
                            cycle.push(names[cur]);
                        }
                        cycle.reverse();
                        cycle.push(names[next]);
                        report.push(Diagnostic::new(
                            "zero-latency-cycle",
                            Severity::Error,
                            names[next].to_owned(),
                            format!(
                                "combinational couplings form a zero-latency cycle: {}",
                                cycle.join(" -> ")
                            ),
                        ));
                        return;
                    }
                    Colour::Black => {}
                }
            } else {
                colour[node] = Colour::Black;
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::Addr;
    use axi_realm::{DesignConfig, RegionConfig, RuntimeConfig};

    fn empty_topo() -> Topology {
        Topology::default()
    }

    fn open_realm(path: &str) -> (String, DesignConfig, RuntimeConfig) {
        (
            path.to_owned(),
            DesignConfig::cheshire(),
            RuntimeConfig::open(2),
        )
    }

    #[test]
    fn clean_on_empty() {
        let report = analyze(&empty_topo(), &SystemModel::new());
        assert!(report.is_clean());
        assert!(report.diagnostics().is_empty());
    }

    #[test]
    fn overlap_is_error_gap_is_info() {
        let model = SystemModel::new()
            .window("a", Addr::new(0x0), 0x2000)
            .window("b", Addr::new(0x1000), 0x1000)
            .window("c", Addr::new(0x10000), 0x1000);
        let report = analyze(&empty_topo(), &model);
        let overlap = report.by_rule("addrmap-overlap");
        assert_eq!(overlap.len(), 1);
        assert_eq!(overlap[0].severity, Severity::Error);
        assert_eq!(overlap[0].path, "a+b");
        assert_eq!(report.by_rule("addrmap-gap").len(), 1);
    }

    #[test]
    fn alignment_warns() {
        let model = SystemModel::new().window("odd", Addr::new(0x100), 0x1000);
        let report = analyze(&empty_topo(), &model);
        let diags = report.by_rule("addrmap-alignment");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(report.is_clean());
    }

    #[test]
    fn id_overflow_detected() {
        let model = SystemModel::new().id_space(u32::MAX, 2);
        let report = analyze(&empty_topo(), &model);
        assert_eq!(report.by_rule("id-width-overflow").len(), 1);
        assert!(!report.is_clean());
        // Exactly at the limit: fine.
        let model = SystemModel::new().id_space(u32::MAX, 1);
        assert!(analyze(&empty_topo(), &model).is_clean());
    }

    #[test]
    fn oversubscription_is_warning_not_error() {
        let (p, d, mut cfg) = open_realm("realm.core");
        cfg.regions[0] = RegionConfig {
            base: Addr::new(0x8000_0000),
            size: 0x1000,
            budget_max: 8192,
            period: 1000,
        };
        let model = SystemModel::new()
            .window("llc", Addr::new(0x8000_0000), 1 << 20)
            .bandwidth("llc", 8)
            .realm(p, d, cfg);
        let report = analyze(&empty_topo(), &model);
        // 8192 B / 1000 cycles > 8 B/cycle * ... no: 8192 > 8000 capacity
        assert_eq!(report.by_rule("budget-infeasible").len(), 1);
        assert_eq!(report.by_rule("budget-oversubscribed").len(), 1);
        assert!(report.is_clean(), "feasibility findings must be warnings");
    }

    #[test]
    fn comb_cycle_reconstructed() {
        let model = SystemModel::new()
            .comb_edge("a", "b")
            .comb_edge("b", "c")
            .comb_edge("c", "a");
        let report = analyze(&empty_topo(), &model);
        let diags = report.by_rule("zero-latency-cycle");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("->"));
        // Acyclic chain: clean.
        let model = SystemModel::new().comb_edge("a", "b").comb_edge("b", "c");
        assert!(analyze(&empty_topo(), &model).is_clean());
    }

    #[test]
    fn frag_rules() {
        // 256 beats x 64 B = 16 KiB > 4 KiB: error.
        let (p, d, mut cfg) = open_realm("realm.dma");
        cfg.frag_len = 256;
        let model = SystemModel::new().beats_of(64).realm(p, d, cfg);
        let report = analyze(&empty_topo(), &model);
        assert_eq!(report.by_rule("frag-4k-crossing").len(), 1);
        assert!(!report.is_clean());
        // 3 beats x 8 B = 24 B does not divide 4096: warning.
        let (p, d, mut cfg) = open_realm("realm.dma");
        cfg.frag_len = 3;
        let model = SystemModel::new().realm(p, d, cfg);
        let report = analyze(&empty_topo(), &model);
        let diags = report.by_rule("frag-4k-crossing");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn region_unmapped_warns() {
        let (p, d, mut cfg) = open_realm("realm.core");
        cfg.regions[0] = RegionConfig {
            base: Addr::new(0x5000_0000),
            size: 0x1000,
            budget_max: 0,
            period: 0,
        };
        let model = SystemModel::new()
            .window("llc", Addr::new(0x8000_0000), 1 << 20)
            .realm(p, d, cfg);
        let report = analyze(&empty_topo(), &model);
        let diags = report.by_rule("region-unmapped");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].path, "realm.core.region[0]");
    }

    #[test]
    fn invalid_config_wrapped() {
        let (p, mut d, cfg) = open_realm("realm.core");
        d.num_pending = 0;
        let model = SystemModel::new().realm(p, d, cfg);
        let report = analyze(&empty_topo(), &model);
        let diags = report.by_rule("config-invalid");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].path, "realm.core");
    }
}
