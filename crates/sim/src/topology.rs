//! Static topology introspection: which component touches which wire.
//!
//! Components declare their wire endpoints through [`Component::ports`]
//! (see [`crate::Component`]); [`Sim::topology`](crate::Sim::topology)
//! assembles the declarations into a [`Topology`] snapshot that static
//! analyzers (the `realm-lint` crate) check before cycle 0: dangling or
//! doubly-driven wires, unreachable components, and declared zero-latency
//! couplings that could form combinational cycles.

use crate::component::Component;
use crate::pool::ChannelPool;

/// How a component relates to one wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortDir {
    /// The component pushes beats onto the wire.
    Drive,
    /// The component pops beats off the wire.
    Consume,
    /// The component only peeks or taps the wire (passive monitor/probe);
    /// it neither sources nor sinks beats.
    Observe,
}

/// One declared wire endpoint of a component.
///
/// Wires are identified by `(channel, wire)` — the channel label of the
/// beat type ("AW", "W", "B", "AR", "R") plus the pool-internal index
/// within that channel, exactly as [`WireId::index`](crate::WireId::index)
/// reports it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortDecl {
    /// Channel label of the wire's beat type.
    pub channel: &'static str,
    /// Pool-internal wire index within the channel.
    pub wire: usize,
    /// The component's relation to the wire.
    pub dir: PortDir,
}

impl PortDecl {
    /// Creates a declaration.
    pub fn new(channel: &'static str, wire: usize, dir: PortDir) -> Self {
        Self { channel, wire, dir }
    }
}

/// One component's row in a [`Topology`]: registration index, instance
/// name, and declared wire endpoints.
#[derive(Clone, Debug)]
pub struct TopoComponent {
    /// Registration index within the [`Sim`](crate::Sim).
    pub index: usize,
    /// The component's [`Component::name`].
    pub name: String,
    /// Declared wire endpoints (empty for components that do not implement
    /// [`Component::ports`] — such components are opaque to graph checks).
    pub ports: Vec<PortDecl>,
}

impl TopoComponent {
    /// Returns `true` if the component declared no endpoints at all.
    pub fn is_opaque(&self) -> bool {
        self.ports.is_empty()
    }

    /// Returns `true` if the component only observes (no drive/consume).
    pub fn is_observer(&self) -> bool {
        !self.ports.is_empty() && self.ports.iter().all(|p| p.dir == PortDir::Observe)
    }
}

/// One wire's row in a [`Topology`]: identity plus queue capacity.
///
/// Every pool wire is *registered* — a beat pushed at cycle *t* is visible
/// at *t + 1* — so wire hops always add latency; only explicitly declared
/// combinational couplings (see `realm-lint`'s system model) can create
/// zero-latency paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TopoWire {
    /// Channel label of the wire's beat type.
    pub channel: &'static str,
    /// Pool-internal wire index within the channel.
    pub index: usize,
    /// Bounded queue depth.
    pub capacity: usize,
}

/// A static snapshot of a simulated system's structure: every registered
/// component with its declared ports, every allocated wire, the declared
/// couples, and the [`WireIndex`] over the declared endpoints.
///
/// The index is built once, when the snapshot is made, and every static
/// pass reads it instead of keying its own map by wire name; the snapshot
/// is therefore read-only. Take one with
/// [`Sim::topology`](crate::Sim::topology), or assemble one from raw
/// declarations with [`Topology::new`].
#[derive(Clone, Debug, Default)]
pub struct Topology {
    components: Vec<TopoComponent>,
    wires: Vec<TopoWire>,
    couples: Vec<(usize, usize)>,
    index: WireIndex,
}

/// One declared endpoint of a wire: which component, in which direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireEnd {
    /// Registration index of the declaring component.
    pub component: usize,
    /// The component's relation to the wire.
    pub dir: PortDir,
}

/// Dense integer keys over every `(channel, wire)` pair a [`Topology`]'s
/// components declare, with each key's endpoints.
///
/// Keys are positions in the sorted, deduplicated list of declared pairs,
/// so key order is `(channel label, wire index)` order and the number of
/// keys is at most the number of declared ports — a port naming wire
/// `usize::MAX` or an unknown channel label gets a key like any other,
/// and nothing is sized by a wire index.
#[derive(Clone, Debug, Default)]
pub struct WireIndex {
    /// The declared pairs in key order.
    pairs: Vec<(&'static str, usize)>,
    /// Component `c`'s port keys are `port_keys[port_start[c]..port_start[c + 1]]`,
    /// parallel to its declared ports.
    port_start: Vec<usize>,
    port_keys: Vec<usize>,
    /// Key `k`'s endpoints are `ends[end_start[k]..end_start[k + 1]]`,
    /// in registration order, then port order.
    end_start: Vec<usize>,
    ends: Vec<WireEnd>,
}

impl WireIndex {
    fn build(components: &[TopoComponent]) -> Self {
        let total: usize = components.iter().map(|c| c.ports.len()).sum();
        // Every port as (label slot, wire, port ordinal), label slots in
        // first-seen order, plus its endpoint record.
        let mut labels: Vec<&'static str> = Vec::new();
        let mut port_start = Vec::with_capacity(components.len() + 1);
        let mut declared: Vec<WireEnd> = Vec::with_capacity(total);
        let mut sorted: Vec<(usize, usize, usize)> = Vec::with_capacity(total);
        port_start.push(0);
        for (component, c) in components.iter().enumerate() {
            for p in &c.ports {
                let slot = match labels.iter().position(|&l| l == p.channel) {
                    Some(slot) => slot,
                    None => {
                        labels.push(p.channel);
                        labels.len() - 1
                    }
                };
                sorted.push((slot, p.wire, declared.len()));
                declared.push(WireEnd {
                    component,
                    dir: p.dir,
                });
            }
            port_start.push(declared.len());
        }
        // Replace slots by label ranks, so sorting integers orders the
        // ports by (label, wire) and, within a pair, by registration and
        // port order.
        let mut by_rank: Vec<usize> = (0..labels.len()).collect();
        by_rank.sort_unstable_by_key(|&slot| labels[slot]);
        let mut rank_of = vec![0; labels.len()];
        for (rank, &slot) in by_rank.iter().enumerate() {
            rank_of[slot] = rank;
        }
        for entry in &mut sorted {
            entry.0 = rank_of[entry.0];
        }
        sorted.sort_unstable();
        // One sweep assigns the keys and lays out each key's endpoints.
        let mut pairs = Vec::with_capacity(total);
        let mut port_keys = vec![0; total];
        let mut end_start = Vec::with_capacity(total + 1);
        let mut ends = Vec::with_capacity(total);
        for (i, &(rank, wire, port)) in sorted.iter().enumerate() {
            if i == 0 || (sorted[i - 1].0, sorted[i - 1].1) != (rank, wire) {
                pairs.push((labels[by_rank[rank]], wire));
                end_start.push(i);
            }
            port_keys[port] = pairs.len() - 1;
            ends.push(declared[port]);
        }
        end_start.push(total);
        Self {
            pairs,
            port_start,
            port_keys,
            end_start,
            ends,
        }
    }

    /// Number of keys: distinct declared `(channel, wire)` pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no component declares any port.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `(channel, wire)` pair of `key`.
    pub fn pair(&self, key: usize) -> (&'static str, usize) {
        self.pairs[key]
    }

    /// The key of a declared `(channel, wire)` pair, or `None` when no
    /// component declares it.
    pub fn key(&self, channel: &str, wire: usize) -> Option<usize> {
        self.pairs.binary_search(&(channel, wire)).ok()
    }

    /// The keys of component `component`'s declared ports, parallel to
    /// [`TopoComponent::ports`].
    pub fn port_keys(&self, component: usize) -> &[usize] {
        &self.port_keys[self.port_start[component]..self.port_start[component + 1]]
    }

    /// Every declared endpoint of `key`, in registration order, then
    /// port order; a component declaring the pair twice appears twice.
    pub fn ends(&self, key: usize) -> &[WireEnd] {
        &self.ends[self.end_start[key]..self.end_start[key + 1]]
    }
}

/// Disjoint-set forest over component indices (island computation).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut i = i;
        while self.parent[i] != root {
            let next = self.parent[i];
            self.parent[i] = root;
            i = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Attach the larger root under the smaller one so every island
            // is rooted at its lowest-indexed member (determinism aid).
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

impl Topology {
    /// Assembles a snapshot from raw declarations and builds its
    /// [`WireIndex`]. `components` must be in registration order, each
    /// [`TopoComponent::index`] equal to its position.
    pub fn new(
        components: Vec<TopoComponent>,
        wires: Vec<TopoWire>,
        couples: Vec<(usize, usize)>,
    ) -> Self {
        debug_assert!(
            components.iter().enumerate().all(|(i, c)| c.index == i),
            "components must be in registration order"
        );
        let index = WireIndex::build(&components);
        Self {
            components,
            wires,
            couples,
            index,
        }
    }

    /// Assembles a topology from registered components, the wire pool, and
    /// the declared couples.
    pub(crate) fn collect(
        components: &[Box<dyn Component>],
        pool: &ChannelPool,
        couples: &[(usize, usize)],
    ) -> Self {
        Self::new(
            components
                .iter()
                .enumerate()
                .map(|(index, c)| TopoComponent {
                    index,
                    name: c.name().to_owned(),
                    ports: c.ports(),
                })
                .collect(),
            pool.wire_table(),
            couples.to_vec(),
        )
    }

    /// Components in registration (tick) order.
    pub fn components(&self) -> &[TopoComponent] {
        &self.components
    }

    /// All allocated wires across the five channels.
    pub fn wires(&self) -> &[TopoWire] {
        &self.wires
    }

    /// `(source, dependent)` out-of-band couplings declared via
    /// [`Sim::couple`](crate::Sim::couple), in declaration order.
    pub fn couples(&self) -> &[(usize, usize)] {
        &self.couples
    }

    /// The dense index over the declared wire endpoints.
    pub fn wire_index(&self) -> &WireIndex {
        &self.index
    }

    /// Number of components that declared no ports (opaque to graph
    /// analysis).
    pub fn opaque_components(&self) -> usize {
        self.components.iter().filter(|c| c.is_opaque()).count()
    }

    /// Partitions the components into **islands**: connected components of
    /// the undirected dependence graph whose edges are shared wires (any
    /// two endpoints of one wire, whatever their direction) and declared
    /// couples. Components in different islands can never observe each
    /// other within a cycle, so each island can be stepped independently.
    ///
    /// Opaque (port-less) components may touch any wire, so each one is
    /// conservatively merged with every other component — a single opaque
    /// component collapses the partition to one island.
    ///
    /// Islands are ordered by their smallest member; members are in
    /// registration order. Deterministic for a given topology.
    pub fn islands(&self) -> Vec<Vec<usize>> {
        self.partition(&self.couples, &[])
    }

    /// Like [`Topology::islands`], but with additional undirected
    /// `(a, b)` edges merged in (out-of-range indices are ignored) —
    /// static analyzers use this to fold in zero-latency couplings that
    /// live outside the topology proper.
    pub fn islands_with(&self, extra_edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        self.partition(&self.couples, extra_edges)
    }

    /// Like [`Topology::islands`], but over shared wires alone: the
    /// declared couples are left out.
    pub fn wire_islands(&self) -> Vec<Vec<usize>> {
        self.partition(&[], &[])
    }

    fn partition(
        &self,
        couples: &[(usize, usize)],
        extra_edges: &[(usize, usize)],
    ) -> Vec<Vec<usize>> {
        let n = self.components.len();
        let mut uf = UnionFind::new(n);
        // Every pair of declared endpoints of one wire is dependent: they
        // share the wire's queue (capacity freed by a pop is visible to the
        // driver; taps observe pushes same-cycle).
        for key in 0..self.index.len() {
            if let Some((first, rest)) = self.index.ends(key).split_first() {
                for end in rest {
                    uf.union(first.component, end.component);
                }
            }
        }
        for &(a, b) in couples.iter().chain(extra_edges) {
            if a < n && b < n {
                uf.union(a, b);
            }
        }
        if let Some(opaque) = self.components.iter().position(TopoComponent::is_opaque) {
            for other in 0..n {
                uf.union(opaque, other);
            }
        }
        let mut islands: Vec<Vec<usize>> = Vec::new();
        let mut island_of_root = vec![usize::MAX; n];
        for i in 0..n {
            let root = uf.find(i);
            if island_of_root[root] == usize::MAX {
                island_of_root[root] = islands.len();
                islands.push(Vec::new());
            }
            islands[island_of_root[root]].push(i);
        }
        islands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::AxiBundle;
    use crate::component::TickCtx;
    use crate::sim::Sim;

    struct Declared {
        bundle: AxiBundle,
    }

    impl Component for Declared {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            "declared"
        }
        fn ports(&self) -> Vec<PortDecl> {
            self.bundle.manager_ports()
        }
    }

    struct Opaque;
    impl Component for Opaque {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
    }

    #[test]
    fn topology_collects_ports_and_wires() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Declared { bundle });
        sim.add(Opaque);
        let topo = sim.topology();
        assert_eq!(topo.components.len(), 2);
        assert_eq!(topo.wires.len(), 5);
        assert_eq!(topo.components[0].ports.len(), 5);
        assert!(!topo.components[0].is_opaque());
        assert!(topo.components[1].is_opaque());
        assert_eq!(topo.opaque_components(), 1);
        // Manager side drives the request channels, consumes the responses.
        let aw = topo.components[0]
            .ports
            .iter()
            .find(|p| p.channel == "AW")
            .unwrap();
        assert_eq!(aw.dir, PortDir::Drive);
        let r = topo.components[0]
            .ports
            .iter()
            .find(|p| p.channel == "R")
            .unwrap();
        assert_eq!(r.dir, PortDir::Consume);
        // Wire capacities come from the pool.
        assert!(topo.wires.iter().all(|w| w.capacity == 2));
    }

    #[test]
    fn wire_index_keys_declared_pairs_in_label_then_wire_order() {
        let port = |channel, wire, dir| PortDecl::new(channel, wire, dir);
        let component = |index, ports| TopoComponent {
            index,
            name: format!("c{index}"),
            ports,
        };
        let topo = Topology::new(
            vec![
                component(
                    0,
                    vec![
                        port("W", 1, PortDir::Drive),
                        port("AW", usize::MAX, PortDir::Drive),
                        port("W", 1, PortDir::Observe),
                    ],
                ),
                component(1, Vec::new()),
                component(
                    2,
                    vec![
                        port("XY", 0, PortDir::Consume),
                        port("W", 1, PortDir::Consume),
                    ],
                ),
            ],
            Vec::new(),
            Vec::new(),
        );
        let index = topo.wire_index();
        // Three distinct pairs, however large the wire index: keys are
        // positions in the sorted pair list.
        assert_eq!(index.len(), 3);
        let pairs: Vec<_> = (0..3).map(|k| index.pair(k)).collect();
        assert_eq!(pairs, [("AW", usize::MAX), ("W", 1), ("XY", 0)]);
        assert_eq!(index.key("W", 1), Some(1));
        assert_eq!(index.key("W", 0), None);
        assert_eq!(index.port_keys(0), [1, 0, 1]);
        assert!(index.port_keys(1).is_empty());
        assert_eq!(index.port_keys(2), [2, 1]);
        // Endpoints in registration order, then port order.
        let ends: Vec<_> = index.ends(1).iter().map(|e| (e.component, e.dir)).collect();
        assert_eq!(
            ends,
            [
                (0, PortDir::Drive),
                (0, PortDir::Observe),
                (2, PortDir::Consume)
            ]
        );
        // The opaque component collapses the islands, as ever.
        assert_eq!(topo.islands(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn observer_detection() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        struct Watcher {
            bundle: AxiBundle,
        }
        impl Component for Watcher {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn ports(&self) -> Vec<PortDecl> {
                self.bundle.observer_ports()
            }
        }
        sim.add(Watcher { bundle });
        let topo = sim.topology();
        assert!(topo.components[0].is_observer());
        assert!(!topo.components[0].is_opaque());
    }

    #[test]
    fn islands_split_on_disjoint_wires_and_merge_on_couples() {
        let mut sim = Sim::new();
        let b1 = AxiBundle::with_defaults(sim.pool_mut());
        let b2 = AxiBundle::with_defaults(sim.pool_mut());
        let a = sim.add(Declared { bundle: b1 });
        let b = sim.add(Declared { bundle: b2 });
        let topo = sim.topology();
        assert!(topo.couples.is_empty());
        assert_eq!(topo.islands(), vec![vec![0], vec![1]]);
        // A couple is a dependence edge: it merges the two islands.
        sim.couple(a, b);
        let topo = sim.topology();
        assert_eq!(topo.couples, vec![(0, 1)]);
        assert_eq!(topo.islands(), vec![vec![0, 1]]);
    }

    #[test]
    fn shared_wires_merge_islands() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Declared { bundle });
        sim.add(Declared { bundle });
        assert_eq!(sim.topology().islands(), vec![vec![0, 1]]);
    }

    #[test]
    fn opaque_component_collapses_partition() {
        let mut sim = Sim::new();
        let b1 = AxiBundle::with_defaults(sim.pool_mut());
        let b2 = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Declared { bundle: b1 });
        sim.add(Declared { bundle: b2 });
        sim.add(Opaque);
        // The port-less component may touch anything: one island only.
        assert_eq!(sim.topology().islands(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn islands_with_extra_edges_merges_and_ignores_bad_indices() {
        let mut sim = Sim::new();
        let b1 = AxiBundle::with_defaults(sim.pool_mut());
        let b2 = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Declared { bundle: b1 });
        sim.add(Declared { bundle: b2 });
        let topo = sim.topology();
        assert_eq!(topo.islands_with(&[(7, 9)]), vec![vec![0], vec![1]]);
        assert_eq!(topo.islands_with(&[(1, 0)]), vec![vec![0, 1]]);
    }
}
