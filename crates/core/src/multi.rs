//! Multiroutings (Section 6): several parallel routes per pair.
//!
//! The paper's base model allows one route per ordered pair; Section 6
//! observes that relaxing this helps:
//!
//! 1. `t + 1` disjoint parallel routes between *every* pair give a
//!    surviving diameter of 1 ([`full_multirouting`]).
//! 2. `t + 1` parallel routes only *inside the concentrator* `M`, on top
//!    of the kernel routing, give a bound of 3
//!    ([`concentrator_multirouting`]).
//! 3. With at most *two* parallel routes, a single separating set
//!    supports a bipolar-style routing ([`single_tree_multirouting`],
//!    components MULT 1–3); the paper states no bound, so experiment E11
//!    measures one.

use std::collections::HashMap;
use std::fmt;

use ftr_graph::connectivity::{self, Connectivity};
use ftr_graph::flow::SplitNetwork;
use ftr_graph::{Graph, GraphError, Node, NodeSet, Path};

use crate::kernel::require_connected;
use crate::routing::RoutingKind;
use crate::tree::{map_with_network, tree_routing_on};
use crate::{RouteView, RoutingError};

/// A routing table allowing several parallel routes per ordered pair.
///
/// The surviving graph keeps the arc `x → y` as long as *any* of the
/// parallel routes avoids the faults.
///
/// # Example
///
/// ```
/// use ftr_core::{MultiRouting, RouteTable, RoutingKind};
/// use ftr_graph::{NodeSet, Path};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = MultiRouting::new(4, RoutingKind::Bidirectional, 2);
/// m.insert(Path::new(vec![0, 1, 2])?)?;
/// m.insert(Path::new(vec![0, 3, 2])?)?; // second parallel route: allowed
/// let s = m.surviving(&NodeSet::from_nodes(4, [1]));
/// assert!(s.has_edge(0, 2), "the detour through 3 survives");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct MultiRouting {
    n: usize,
    kind: RoutingKind,
    max_parallel: usize,
    paths: Vec<Path>,
    table: HashMap<(Node, Node), Vec<(u32, bool)>>,
}

impl MultiRouting {
    /// Creates an empty multirouting for graphs on `n` nodes allowing up
    /// to `max_parallel` routes per ordered pair.
    ///
    /// # Panics
    ///
    /// Panics if `max_parallel == 0`.
    pub fn new(n: usize, kind: RoutingKind, max_parallel: usize) -> Self {
        assert!(
            max_parallel > 0,
            "a routing needs at least one route per pair"
        );
        MultiRouting {
            n,
            kind,
            max_parallel,
            paths: Vec::new(),
            table: HashMap::new(),
        }
    }

    /// The node count this routing was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Whether this routing is uni- or bidirectional.
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// The per-pair parallel route budget.
    pub fn max_parallel(&self) -> usize {
        self.max_parallel
    }

    /// Number of routed ordered pairs.
    pub fn pair_count(&self) -> usize {
        self.table.len()
    }

    /// Total number of route slots over all pairs.
    pub fn route_count(&self) -> usize {
        self.table.values().map(Vec::len).sum()
    }

    /// Approximate heap footprint of the table in bytes (stored paths
    /// plus the pair map), comparable with [`crate::Routing::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let paths: usize = self
            .paths
            .iter()
            .map(|p| size_of::<Path>() + std::mem::size_of_val(p.nodes()))
            .sum();
        let bucket = size_of::<((Node, Node), Vec<(u32, bool)>)>() + 1;
        let refs: usize = self
            .table
            .values()
            .map(|v| v.capacity() * size_of::<(u32, bool)>())
            .sum();
        paths + self.table.capacity() * bucket + refs
    }

    /// Inserts a parallel route from `path.source()` to `path.target()`
    /// (both directions when bidirectional). Duplicate identical routes
    /// for a pair are ignored.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::RouteConflict`] if the pair already holds
    ///   `max_parallel` distinct routes.
    /// * [`RoutingError::Graph`] for trivial paths or out-of-range nodes.
    pub fn insert(&mut self, path: Path) -> Result<(), RoutingError> {
        let (src, dst) = (path.source(), path.target());
        if src == dst {
            return Err(RoutingError::Graph(GraphError::NonSimplePath { node: src }));
        }
        for &v in path.nodes() {
            if v as usize >= self.n {
                return Err(RoutingError::Graph(GraphError::NodeOutOfRange {
                    node: v,
                    n: self.n,
                }));
            }
        }
        let directions: &[(Node, Node, bool)] = match self.kind {
            RoutingKind::Unidirectional => &[(src, dst, true)],
            RoutingKind::Bidirectional => &[(src, dst, true), (dst, src, false)],
        };
        // Duplicate detection and budget check before mutation.
        for &(a, b, forward) in directions {
            if let Some(existing) = self.table.get(&(a, b)) {
                if existing
                    .iter()
                    .any(|&(idx, fwd)| self.same_route(idx, fwd == forward, &path))
                {
                    return Ok(()); // identical parallel route: idempotent
                }
                if existing.len() >= self.max_parallel {
                    return Err(RoutingError::RouteConflict { src: a, dst: b });
                }
            }
        }
        let idx = self.paths.len() as u32;
        self.paths.push(path);
        for &(a, b, forward) in directions {
            self.table.entry((a, b)).or_default().push((idx, forward));
        }
        Ok(())
    }

    fn same_route(&self, idx: u32, same_orientation: bool, path: &Path) -> bool {
        let stored = &self.paths[idx as usize];
        if stored.len() != path.len() {
            return false;
        }
        if same_orientation {
            stored.nodes() == path.nodes()
        } else {
            stored.nodes().iter().rev().eq(path.nodes().iter())
        }
    }

    /// The parallel routes from `src` to `dst` (empty if the pair is
    /// unrouted).
    pub fn routes(&self, src: Node, dst: Node) -> Vec<RouteView<'_>> {
        self.table
            .get(&(src, dst))
            .map(|refs| {
                refs.iter()
                    .map(|&(idx, forward)| {
                        RouteView::from_parts(self.paths[idx as usize].nodes(), forward)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Iterates over every routed pair with its bundle of parallel
    /// routes.
    pub fn route_bundles(&self) -> impl Iterator<Item = (Node, Node, Vec<RouteView<'_>>)> + '_ {
        self.table.iter().map(move |(&(s, d), refs)| {
            let views = refs
                .iter()
                .map(|&(idx, forward)| {
                    RouteView::from_parts(self.paths[idx as usize].nodes(), forward)
                })
                .collect();
            (s, d, views)
        })
    }

    /// Checks every stored path against `g` and the per-pair budget.
    ///
    /// # Errors
    ///
    /// Returns the first violation as a [`RoutingError`].
    pub fn validate(&self, g: &Graph) -> Result<(), RoutingError> {
        if g.node_count() != self.n {
            return Err(RoutingError::property(format!(
                "multirouting built for {} nodes, graph has {}",
                self.n,
                g.node_count()
            )));
        }
        for p in &self.paths {
            p.validate_in(g)?;
        }
        for (&(s, d), refs) in &self.table {
            if refs.len() > self.max_parallel {
                return Err(RoutingError::RouteConflict { src: s, dst: d });
            }
        }
        Ok(())
    }
}

impl fmt::Debug for MultiRouting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiRouting")
            .field("n", &self.n)
            .field("kind", &self.kind)
            .field("max_parallel", &self.max_parallel)
            .field("pairs", &self.table.len())
            .finish()
    }
}

/// Section 6 observation (1): `t + 1` node-disjoint parallel routes
/// between every pair of nodes. With at most `t` faults every pair keeps
/// a direct surviving route, so the surviving diameter is 1.
///
/// Costs `O(n²)` max-flow computations — meant for the moderate graph
/// sizes of the experiments, not production tables.
///
/// # Errors
///
/// Returns [`RoutingError::InsufficientConnectivity`] if the graph is
/// not connected (`t + 1 = κ(G) >= 1` is required).
pub fn full_multirouting(g: &Graph) -> Result<MultiRouting, RoutingError> {
    full_multirouting_at(g, connectivity::vertex_connectivity(g))
}

/// [`full_multirouting`] given `kappa = κ(g)`.
pub(crate) fn full_multirouting_at(g: &Graph, kappa: usize) -> Result<MultiRouting, RoutingError> {
    require_connected(kappa)?;
    let mut m = MultiRouting::new(g.node_count(), RoutingKind::Bidirectional, kappa);
    // One parallel work item per source u: the disjoint-path bundles to
    // every v > u (each an independent max flow).
    let n = g.node_count();
    let batches = map_with_network(g, n, |net, u| {
        let u = u as Node;
        let mut paths = Vec::new();
        for v in g.nodes().filter(|&v| v > u) {
            paths.extend(net.vertex_disjoint_st_paths(u, v, Some(kappa))?);
        }
        Ok::<_, RoutingError>(paths)
    });
    for batch in batches {
        for p in batch? {
            m.insert(p)?;
        }
    }
    Ok(m)
}

/// Section 6 observation (2): the kernel routing augmented with `t + 1`
/// parallel routes between concentrator members, giving a bound of 3.
///
/// Returns the multirouting together with the separator used.
///
/// # Errors
///
/// * [`RoutingError::InsufficientConnectivity`] for disconnected graphs.
/// * [`RoutingError::PropertyNotSatisfied`] for complete graphs (no
///   separating set exists; every pair is already adjacent).
pub fn concentrator_multirouting(g: &Graph) -> Result<(MultiRouting, Vec<Node>), RoutingError> {
    concentrator_multirouting_at(g, &Connectivity::of(g))
}

/// [`concentrator_multirouting`] given `g`'s connectivity.
pub(crate) fn concentrator_multirouting_at(
    g: &Graph,
    conn: &Connectivity,
) -> Result<(MultiRouting, Vec<Node>), RoutingError> {
    let (kappa, sep) = connected_with_separator(conn)?;
    let mut m = MultiRouting::new(g.node_count(), RoutingKind::Bidirectional, kappa);
    // KERNEL 2: direct edge routes.
    for (u, v) in g.edges() {
        m.insert(Path::edge(u, v).expect("graph edges join distinct nodes"))?;
    }
    // KERNEL 1: tree routings into the separator, derived per source in
    // parallel.
    insert_tree_routings_outside(&mut m, g, sep, kappa)?;
    // Section 6 (2): full parallel routes inside M.
    let members: Vec<Node> = sep.iter().collect();
    let mut net = SplitNetwork::new(g);
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            for p in net.vertex_disjoint_st_paths(a, b, Some(kappa))? {
                m.insert(p)?;
            }
        }
    }
    Ok((m, members))
}

/// Section 6 observation (3): a bipolar-style routing concentrated
/// around a *single* separating set `M`, using at most two parallel
/// routes per pair (components MULT 1–3).
///
/// * MULT 1: a tree routing from each `x ∉ M` to `M`.
/// * MULT 2: tree routings from each `m_i ∈ M` to every neighbor set
///   `Γ(m_j)`.
/// * MULT 3: direct edge routes.
///
/// The paper states no bound for this variant; experiment E11 measures
/// its worst surviving diameter.
///
/// # Errors
///
/// * [`RoutingError::InsufficientConnectivity`] for disconnected graphs.
/// * [`RoutingError::PropertyNotSatisfied`] for complete graphs.
pub fn single_tree_multirouting(g: &Graph) -> Result<(MultiRouting, Vec<Node>), RoutingError> {
    let conn = Connectivity::of(g);
    let (kappa, sep) = connected_with_separator(&conn)?;
    let mut m = MultiRouting::new(g.node_count(), RoutingKind::Bidirectional, 2);
    for (u, v) in g.edges() {
        m.insert(Path::edge(u, v).expect("graph edges join distinct nodes"))?;
    }
    insert_tree_routings_outside(&mut m, g, sep, kappa)?;
    let members: Vec<Node> = sep.iter().collect();
    let mut net = SplitNetwork::new(g);
    for &mi in &members {
        for &mj in &members {
            if mi == mj {
                continue; // routes from m_i into its own Γ(m_i) are MULT 3 edges
            }
            let targets = g.neighbor_set(mj);
            if targets.contains(mi) {
                continue; // adjacent members already reach each other directly
            }
            for p in tree_routing_on(&mut net, mi, &targets, kappa)? {
                m.insert(p)?;
            }
        }
    }
    Ok((m, members))
}

/// κ and the minimum separator of a connected, non-complete graph.
fn connected_with_separator(conn: &Connectivity) -> Result<(usize, &NodeSet), RoutingError> {
    require_connected(conn.kappa)?;
    let sep = conn
        .separator
        .as_ref()
        .ok_or_else(|| RoutingError::property("complete graphs have no separating set"))?;
    Ok((conn.kappa, sep))
}

/// Derives a tree routing into `targets` for every source outside it —
/// one parallel work item per source — and inserts the batches in source
/// order (the kernel-style component shared by the concentrator and
/// single-tree multiroutings).
fn insert_tree_routings_outside(
    m: &mut MultiRouting,
    g: &Graph,
    targets: &NodeSet,
    kappa: usize,
) -> Result<(), RoutingError> {
    let outside: Vec<Node> = g.nodes().filter(|&x| !targets.contains(x)).collect();
    let batches = map_with_network(g, outside.len(), |net, i| {
        tree_routing_on(net, outside[i], targets, kappa)
    });
    for batch in batches {
        for p in batch? {
            m.insert(p)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteTable;
    use ftr_graph::gen;

    #[test]
    fn parallel_budget_enforced() {
        let mut m = MultiRouting::new(5, RoutingKind::Unidirectional, 2);
        m.insert(Path::new(vec![0, 1, 4]).unwrap()).unwrap();
        m.insert(Path::new(vec![0, 2, 4]).unwrap()).unwrap();
        assert_eq!(
            m.insert(Path::new(vec![0, 3, 4]).unwrap()),
            Err(RoutingError::RouteConflict { src: 0, dst: 4 })
        );
        assert_eq!(m.routes(0, 4).len(), 2);
    }

    #[test]
    fn duplicate_parallel_route_is_idempotent() {
        let mut m = MultiRouting::new(5, RoutingKind::Bidirectional, 3);
        m.insert(Path::new(vec![0, 1, 4]).unwrap()).unwrap();
        m.insert(Path::new(vec![0, 1, 4]).unwrap()).unwrap();
        m.insert(Path::new(vec![4, 1, 0]).unwrap()).unwrap();
        assert_eq!(m.route_count(), 2); // one bundle each direction
        assert_eq!(m.routes(0, 4).len(), 1);
    }

    #[test]
    fn surviving_uses_any_live_route() {
        let mut m = MultiRouting::new(4, RoutingKind::Bidirectional, 2);
        m.insert(Path::new(vec![0, 1, 2]).unwrap()).unwrap();
        m.insert(Path::new(vec![0, 3, 2]).unwrap()).unwrap();
        let s = m.surviving(&NodeSet::from_nodes(4, [1]));
        assert!(s.has_edge(0, 2));
        let s = m.surviving(&NodeSet::from_nodes(4, [1, 3]));
        assert!(!s.has_edge(0, 2));
    }

    #[test]
    fn full_multirouting_has_diameter_one_under_faults() {
        let g = gen::petersen(); // 3-connected: tolerate 2 faults
        let m = full_multirouting(&g).unwrap();
        m.validate(&g).unwrap();
        for f1 in g.nodes() {
            for f2 in g.nodes().filter(|&v| v > f1) {
                let faults = NodeSet::from_nodes(10, [f1, f2]);
                let s = m.surviving(&faults);
                assert_eq!(s.diameter(), Some(1), "faults {{{f1}, {f2}}}");
            }
        }
    }

    #[test]
    fn concentrator_multirouting_bound_three() {
        let g = gen::torus(3, 4).unwrap(); // 4-connected: tolerate 3 faults
        let (m, members) = concentrator_multirouting(&g).unwrap();
        m.validate(&g).unwrap();
        assert_eq!(members.len(), 4);
        // Spot-check a batch of fault sets of size 3.
        for seed in 0..40u32 {
            let f1 = seed % 12;
            let f2 = (seed * 5 + 1) % 12;
            let f3 = (seed * 7 + 3) % 12;
            if f1 == f2 || f2 == f3 || f1 == f3 {
                continue;
            }
            let faults = NodeSet::from_nodes(12, [f1, f2, f3]);
            let s = m.surviving(&faults);
            let d = s.diameter().expect("survives t faults");
            assert!(d <= 3, "diameter {d} with faults {faults:?}");
        }
    }

    #[test]
    fn single_tree_multirouting_respects_two_route_budget() {
        let g = gen::petersen();
        let (m, _) = single_tree_multirouting(&g).unwrap();
        m.validate(&g).unwrap();
        assert!(m.max_parallel() == 2);
        // every pair holds at most two routes (validate checked), and the
        // no-fault diameter is finite
        let s = m.surviving(&NodeSet::new(10));
        assert!(s.diameter().is_some());
    }

    #[test]
    fn complete_graph_has_no_concentrator_variant() {
        let g = gen::complete(5).unwrap();
        assert!(matches!(
            concentrator_multirouting(&g),
            Err(RoutingError::PropertyNotSatisfied { .. })
        ));
        // but the full multirouting works fine
        let m = full_multirouting(&g).unwrap();
        let s = m.surviving(&NodeSet::from_nodes(5, [0, 1, 2]));
        assert_eq!(s.diameter(), Some(1));
    }

    #[test]
    fn validate_rejects_foreign_graph() {
        let g = gen::cycle(5).unwrap();
        let mut m = MultiRouting::new(5, RoutingKind::Bidirectional, 1);
        m.insert(Path::new(vec![0, 2]).unwrap()).unwrap(); // not an edge of C5
        assert!(m.validate(&g).is_err());
        let h = gen::cycle(6).unwrap();
        assert!(m.validate(&h).is_err()); // node count mismatch
    }
}
