//! The bipolar constructions (Section 5): routings concentrated around
//! two roots whose depth-2 neighborhoods form disjoint trees.
//!
//! For a graph with the *two-trees property* — roots `r1, r2` with
//! `M1 = Γ(r1)`, `M2 = Γ(r2)` and all the sets `M1`, `M2`,
//! `Γ(x) − {r1}` (x ∈ M1), `Γ(y) − {r2}` (y ∈ M2) disjoint — the paper
//! builds:
//!
//! * a **unidirectional** bipolar routing (components B-POL 1–6) that is
//!   `(4, t)`-tolerant (Theorem 20), and
//! * a **bidirectional** bipolar routing (components 2B-POL 1–5) that is
//!   `(5, t)`-tolerant (Theorem 23).
//!
//! The concentrator `M = M1 ∪ M2` is a union of two separating sets
//! (each Γ(r) separates its root); tree routings give every node a
//! 1-step surviving link into `M`, M1 and M2 are internally within 2
//! steps (Lemma 5 via the Γ¹_j / Γ²_j sets), and the asymmetric
//! M1-to-M2 links bound the diameter.

use ftr_graph::{analysis, connectivity, Graph, Node, NodeSet, Path};

use crate::kernel::{insert_edge_routes, require_connected};
use crate::tree::{map_with_network, tree_routing_on};
use crate::{Guarantee, Routing, RoutingError, RoutingKind, TheoremId};

/// A bipolar routing with its roots and polar sets.
///
/// # Example
///
/// ```
/// use ftr_core::{BipolarRouting, RouteTable, RoutingKind};
/// use ftr_graph::{gen, NodeSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gen::cycle(12)?; // 2-connected, two-trees property holds
/// let uni = BipolarRouting::build(&g, RoutingKind::Unidirectional)?;
/// let s = uni.routing().surviving(&NodeSet::from_nodes(12, [3]));
/// assert!(s.diameter().expect("tolerates 1 fault") <= 4); // Theorem 20
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BipolarRouting {
    routing: Routing,
    r1: Node,
    r2: Node,
    m1: Vec<Node>,
    m2: Vec<Node>,
    t: usize,
}

impl BipolarRouting {
    /// Builds a bipolar routing, searching the graph for two-trees
    /// roots.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::InsufficientConnectivity`] if `g` is
    ///   disconnected.
    /// * [`RoutingError::PropertyNotSatisfied`] if no two-trees roots
    ///   exist.
    pub fn build(g: &Graph, kind: RoutingKind) -> Result<Self, RoutingError> {
        let (r1, r2) = analysis::find_two_trees_roots(g).ok_or_else(|| {
            RoutingError::property("the graph does not satisfy the two-trees property")
        })?;
        Self::build_with_roots(g, r1, r2, kind)
    }

    /// Builds a bipolar routing with caller-chosen roots.
    ///
    /// # Errors
    ///
    /// As [`BipolarRouting::build`], plus
    /// [`RoutingError::PropertyNotSatisfied`] if `(r1, r2)` is not a
    /// two-trees pair.
    pub fn build_with_roots(
        g: &Graph,
        r1: Node,
        r2: Node,
        kind: RoutingKind,
    ) -> Result<Self, RoutingError> {
        Self::build_at(g, connectivity::vertex_connectivity(g), r1, r2, kind)
    }

    /// [`BipolarRouting::build_with_roots`] given `kappa = κ(g)`.
    pub(crate) fn build_at(
        g: &Graph,
        kappa: usize,
        r1: Node,
        r2: Node,
        kind: RoutingKind,
    ) -> Result<Self, RoutingError> {
        require_connected(kappa)?;
        if !analysis::is_two_trees_pair(g, r1, r2) {
            return Err(RoutingError::property(format!(
                "nodes {r1} and {r2} are not two-trees roots"
            )));
        }
        let routing = match kind {
            RoutingKind::Unidirectional => construct_unidirectional(g, r1, r2, kappa)?,
            RoutingKind::Bidirectional => construct_bidirectional(g, r1, r2, kappa)?,
        };
        Ok(BipolarRouting {
            routing,
            r1,
            r2,
            m1: g.neighbors(r1).to_vec(),
            m2: g.neighbors(r2).to_vec(),
            t: kappa - 1,
        })
    }

    /// The underlying route table.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Consumes the construction, returning the owned route table.
    pub fn into_routing(self) -> Routing {
        self.routing
    }

    /// The two roots `(r1, r2)`.
    pub fn roots(&self) -> (Node, Node) {
        (self.r1, self.r2)
    }

    /// The polar set `M1 = Γ(r1)`.
    pub fn m1(&self) -> &[Node] {
        &self.m1
    }

    /// The polar set `M2 = Γ(r2)`.
    pub fn m2(&self) -> &[Node] {
        &self.m2
    }

    /// The number of faults `t` the construction tolerates.
    pub fn tolerated_faults(&self) -> usize {
        self.t
    }

    /// Theorem 20's `(4, t)` guarantee for unidirectional routings,
    /// Theorem 23's `(5, t)` for bidirectional ones, with this table's
    /// exact costs.
    pub fn guarantee(&self) -> Guarantee {
        let (theorem, diameter) = match self.routing.kind() {
            RoutingKind::Unidirectional => (TheoremId::Theorem20, 4),
            RoutingKind::Bidirectional => (TheoremId::Theorem23, 5),
        };
        Guarantee {
            scheme: "bipolar",
            theorem,
            diameter,
            faults: self.t,
            routes: self.routing.route_count(),
            memory_bytes: self.routing.memory_bytes(),
            audited: false,
        }
    }
}

/// Components B-POL 1–6 (Theorem 20).
fn construct_unidirectional(
    g: &Graph,
    r1: Node,
    r2: Node,
    kappa: usize,
) -> Result<Routing, RoutingError> {
    let n = g.node_count();
    let m1 = g.neighbor_set(r1);
    let m2 = g.neighbor_set(r2);
    let mut routing = Routing::new(n, RoutingKind::Unidirectional);
    // B-POL 6: direct edges, both directions.
    for (u, v) in g.edges() {
        routing.insert(Path::edge(u, v).expect("valid edge"))?;
        routing.insert(Path::edge(v, u).expect("valid edge"))?;
    }
    // B-POL 1 and B-POL 2: tree routings toward the poles, derived per
    // source in parallel; insertion stays sequential in source order.
    let nodes: Vec<Node> = g.nodes().collect();
    let batches = map_with_network(g, nodes.len(), |net, idx| {
        let x = nodes[idx];
        let mut paths = Vec::new();
        if !m1.contains(x) {
            paths.extend(tree_routing_on(net, x, &m1, kappa)?);
        }
        if !m2.contains(x) {
            paths.extend(tree_routing_on(net, x, &m2, kappa)?);
        }
        Ok::<_, RoutingError>(paths)
    });
    for batch in batches {
        for p in batch? {
            routing.insert(p)?;
        }
    }
    // B-POL 3 and B-POL 4: pole members into every Γ-set of their tree.
    for members in [&m1, &m2] {
        insert_pole_tree_routings(&mut routing, g, members, kappa)?;
    }
    // B-POL 5: complete missing reverse directions along the same path
    // (built directly in reverse travel order — one collect per route).
    let missing: Vec<Path> = routing
        .routes()
        .filter(|&(s, d, _)| routing.route(d, s).is_none())
        .map(|(_, _, view)| {
            Path::new(view.iter().rev().collect()).expect("stored routes are simple")
        })
        .collect();
    for p in missing {
        routing.insert(p)?;
    }
    routing.freeze();
    Ok(routing)
}

/// Derives tree routings from every pole member `m_i` into every Γ(m_j)
/// of its pole (components B-POL 3/4 and 2B-POL 3/4), one member per
/// parallel work item, and inserts them in member order.
fn insert_pole_tree_routings(
    routing: &mut Routing,
    g: &Graph,
    members: &NodeSet,
    kappa: usize,
) -> Result<(), RoutingError> {
    let kind = routing.kind();
    let list: Vec<Node> = members.iter().collect();
    let batches = map_with_network(g, list.len(), |net, idx| {
        let mi = list[idx];
        let mut paths = Vec::new();
        for &mj in &list {
            let targets = g.neighbor_set(mj);
            debug_assert!(
                kind == RoutingKind::Bidirectional || mi == mj || !targets.contains(mi),
                "pole sets are independent"
            );
            paths.extend(tree_routing_on(net, mi, &targets, kappa)?);
        }
        Ok::<_, RoutingError>(paths)
    });
    for batch in batches {
        for p in batch? {
            routing.insert(p)?;
        }
    }
    Ok(())
}

/// Components 2B-POL 1–5 (Theorem 23).
fn construct_bidirectional(
    g: &Graph,
    r1: Node,
    r2: Node,
    kappa: usize,
) -> Result<Routing, RoutingError> {
    let n = g.node_count();
    let m1 = g.neighbor_set(r1);
    let m2 = g.neighbor_set(r2);
    // Γ1 = union of Γ(m) over m ∈ M1 (contains r1); similarly Γ2.
    let mut gamma1 = NodeSet::new(n);
    for m in &m1 {
        gamma1.union_with(&g.neighbor_set(m));
    }
    let mut gamma2 = NodeSet::new(n);
    for m in &m2 {
        gamma2.union_with(&g.neighbor_set(m));
    }
    let mut routing = Routing::new(n, RoutingKind::Bidirectional);
    // 2B-POL 5: direct edges.
    insert_edge_routes(&mut routing, g)?;
    // 2B-POL 1: x ∉ M ∪ Γ1 routes to M1. Excluding Γ1 keeps these
    // bidirectional routes off the pairs that 2B-POL 3 defines, and
    // excluding all of M makes the construction asymmetric: M2 members
    // reach M1 only through Property 2B-POL 3's M1-to-M2 links.
    //
    // 2B-POL 2: x ∉ M2 ∪ Γ2 routes to M2 (this includes every M1 member,
    // which yields Property 2B-POL 3). Both components derive their tree
    // routings per source in parallel, preserving the serial insertion
    // order (all of 2B-POL 1, then all of 2B-POL 2).
    let nodes: Vec<Node> = g.nodes().collect();
    let pol1 = |x: Node| !m1.contains(x) && !m2.contains(x) && !gamma1.contains(x);
    let pol2 = |x: Node| !m2.contains(x) && !gamma2.contains(x);
    let components: [(&NodeSet, &(dyn Fn(Node) -> bool + Sync)); 2] = [(&m1, &pol1), (&m2, &pol2)];
    for (targets, include) in components {
        let batches = map_with_network(g, nodes.len(), |net, idx| {
            let x = nodes[idx];
            if include(x) {
                tree_routing_on(net, x, targets, kappa)
            } else {
                Ok(Vec::new())
            }
        });
        for batch in batches {
            for p in batch? {
                routing.insert(p)?;
            }
        }
    }
    // 2B-POL 3 and 2B-POL 4: pole members into every Γ-set of their tree.
    for members in [&m1, &m2] {
        insert_pole_tree_routings(&mut routing, g, members, kappa)?;
    }
    routing.freeze();
    Ok(routing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_tolerance, FaultStrategy};
    use ftr_graph::gen;

    #[test]
    fn unidirectional_builds_on_long_cycle() {
        let g = gen::cycle(12).unwrap();
        let b = BipolarRouting::build(&g, RoutingKind::Unidirectional).unwrap();
        b.routing().validate(&g).unwrap();
        assert_eq!(b.tolerated_faults(), 1);
        assert_eq!(b.m1().len(), 2);
        let (r1, r2) = b.roots();
        assert!(analysis::is_two_trees_pair(&g, r1, r2));
    }

    #[test]
    fn theorem_20_bound_exhaustive_on_cycle() {
        let g = gen::cycle(12).unwrap(); // t = 1
        let b = BipolarRouting::build(&g, RoutingKind::Unidirectional).unwrap();
        let report = verify_tolerance(b.routing(), 1, FaultStrategy::Exhaustive, 4);
        assert!(report.satisfies(&b.guarantee().claim()), "{report}");
    }

    #[test]
    fn theorem_23_bound_exhaustive_on_cycle() {
        let g = gen::cycle(12).unwrap();
        let b = BipolarRouting::build(&g, RoutingKind::Bidirectional).unwrap();
        b.routing().validate(&g).unwrap();
        let report = verify_tolerance(b.routing(), 1, FaultStrategy::Exhaustive, 4);
        assert!(report.satisfies(&b.guarantee().claim()), "{report}");
    }

    #[test]
    fn bounds_on_ccc_with_explicit_roots() {
        // CCC(5) has girth 5 and diameter >= 5: two-trees roots exist.
        let g = gen::cube_connected_cycles(5).unwrap(); // 3-connected: t = 2
        let b = BipolarRouting::build(&g, RoutingKind::Unidirectional).unwrap();
        b.routing().validate(&g).unwrap();
        // Sample fault pairs (exhaustive over 160 nodes is for benches).
        let report = verify_tolerance(
            b.routing(),
            2,
            FaultStrategy::RandomSample {
                trials: 40,
                seed: 9,
            },
            4,
        );
        assert!(report.satisfies(&b.guarantee().claim()), "{report}");
    }

    #[test]
    fn rejects_graphs_without_property() {
        let g = gen::hypercube(3).unwrap(); // 4-cycles everywhere
        assert!(matches!(
            BipolarRouting::build(&g, RoutingKind::Unidirectional),
            Err(RoutingError::PropertyNotSatisfied { .. })
        ));
    }

    #[test]
    fn rejects_bad_explicit_roots() {
        let g = gen::cycle(12).unwrap();
        assert!(matches!(
            BipolarRouting::build_with_roots(&g, 0, 3, RoutingKind::Unidirectional),
            Err(RoutingError::PropertyNotSatisfied { .. })
        ));
    }

    #[test]
    fn unidirectional_routing_has_all_reverse_directions() {
        // B-POL 5 guarantees every pair routed forward is routed back.
        let g = gen::cycle(12).unwrap();
        let b = BipolarRouting::build(&g, RoutingKind::Unidirectional).unwrap();
        for (s, d, _) in b.routing().routes() {
            assert!(
                b.routing().route(d, s).is_some(),
                "missing reverse of ({s}, {d})"
            );
        }
    }
}
