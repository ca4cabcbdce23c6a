//! The basic kernel construction (Section 3, after Dolev et al. 1984).
//!
//! Given a minimal separating set `M` of size `t + 1` in a
//! `(t+1)`-connected graph, the *kernel routing* consists of
//!
//! * KERNEL 1 — a tree routing from each node `x ∉ M` into `M`, and
//! * KERNEL 2 — a direct edge route between any two adjacent nodes,
//!
//! taken bidirectionally. Theorem 3 (Dolev et al.): the kernel routing
//! is `(2t, t)`-tolerant. Theorem 4 (this paper): it is in fact
//! `(4, ⌊t/2⌋)`-tolerant — a *constant* bound when only half the
//! connectivity worth of faults occur.

use ftr_graph::connectivity::{self, Connectivity};
use ftr_graph::{Graph, Node, NodeSet, Path};

use crate::tree::{map_with_network, tree_routing_on};
use crate::{Guarantee, Routing, RoutingError, RoutingKind, TheoremId};

/// The kernel routing of a graph, with its separator and parameters.
///
/// # Example
///
/// ```
/// use ftr_core::{KernelRouting, RouteTable};
/// use ftr_graph::{gen, NodeSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gen::petersen(); // 3-connected: t = 2
/// let kernel = KernelRouting::build(&g)?;
/// assert_eq!(kernel.tolerated_faults(), 2);
/// let s = kernel.routing().surviving(&NodeSet::from_nodes(10, [4, 7]));
/// assert!(s.diameter().expect("connected") <= 4); // Theorem 3: <= 2t = 4
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KernelRouting {
    routing: Routing,
    separator: Vec<Node>,
    t: usize,
}

impl KernelRouting {
    /// Builds the kernel routing on `g`, choosing a minimum separating
    /// set as the concentrator.
    ///
    /// For complete graphs — which have no separating set — the routing
    /// degenerates to KERNEL 2 alone (every pair is adjacent), which is
    /// `(1, n-2)`-tolerant.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::InsufficientConnectivity`] if `g` is
    ///   disconnected.
    /// * Propagates construction failures from the tree routings.
    pub fn build(g: &Graph) -> Result<Self, RoutingError> {
        Self::build_at(g, &Connectivity::of(g))
    }

    /// [`KernelRouting::build`] given `g`'s connectivity (the scheme API
    /// computes it once for applicability and build together).
    pub(crate) fn build_at(g: &Graph, conn: &Connectivity) -> Result<Self, RoutingError> {
        require_connected(conn.kappa)?;
        match &conn.separator {
            Some(separator) => Self::build_with_separator(g, separator, conn.kappa),
            None => {
                // Complete graph: direct edges route every pair.
                let mut routing = Routing::new(g.node_count(), RoutingKind::Bidirectional);
                insert_edge_routes(&mut routing, g)?;
                routing.freeze();
                Ok(KernelRouting {
                    routing,
                    separator: Vec::new(),
                    t: conn.kappa - 1,
                })
            }
        }
    }

    /// Builds the kernel routing with a caller-supplied separating set
    /// (used by the augmentation construction of Section 6 and by
    /// ablations). `k` is the number of disjoint paths per tree routing,
    /// normally `t + 1 = κ(G)`.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::PropertyNotSatisfied`] if `separator` does not
    ///   separate `g` or is smaller than `k`.
    /// * Propagates tree-routing failures.
    pub fn build_with_separator(
        g: &Graph,
        separator: &NodeSet,
        k: usize,
    ) -> Result<Self, RoutingError> {
        if separator.len() < k {
            return Err(RoutingError::ConcentratorTooSmall {
                needed: k,
                found: separator.len(),
            });
        }
        if !connectivity::is_separator(g, separator) {
            return Err(RoutingError::property(
                "the supplied node set does not separate the graph",
            ));
        }
        let mut routing = Routing::new(g.node_count(), RoutingKind::Bidirectional);
        // KERNEL 2 first: the shortcut rule makes tree-routing edges agree.
        insert_edge_routes(&mut routing, g)?;
        // KERNEL 1: tree routings into M, derived per source in parallel
        // (each source's max-flow is independent; insertion stays
        // sequential and in source order, so conflicts and the final
        // table are identical to the serial build).
        let outside: Vec<Node> = g.nodes().filter(|&x| !separator.contains(x)).collect();
        let batches = map_with_network(g, outside.len(), |net, i| {
            tree_routing_on(net, outside[i], separator, k)
        });
        for batch in batches {
            for p in batch? {
                routing.insert(p)?;
            }
        }
        routing.freeze();
        Ok(KernelRouting {
            routing,
            separator: separator.iter().collect(),
            t: k - 1,
        })
    }

    /// The underlying route table.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Consumes the construction, returning the owned route table (the
    /// scheme API's hand-off into [`crate::BuiltRouting`]).
    pub fn into_routing(self) -> Routing {
        self.routing
    }

    /// The separating set `M` used as concentrator (empty for complete
    /// graphs).
    pub fn separator(&self) -> &[Node] {
        &self.separator
    }

    /// The number of faults `t` the construction tolerates
    /// (connectivity − 1).
    pub fn tolerated_faults(&self) -> usize {
        self.t
    }

    fn guarantee(&self, theorem: TheoremId, diameter: u32, faults: usize) -> Guarantee {
        Guarantee {
            scheme: "kernel",
            theorem,
            diameter: if self.separator.is_empty() {
                1
            } else {
                diameter
            },
            faults,
            routes: self.routing.route_count(),
            memory_bytes: self.routing.memory_bytes(),
            audited: false,
        }
    }

    /// Theorem 3's guarantee: `(max{2t, 4}, t)`-tolerance (`(1, t)` for
    /// complete graphs, which route every pair directly).
    pub fn guarantee_theorem_3(&self) -> Guarantee {
        self.guarantee(TheoremId::Theorem3, (2 * self.t as u32).max(4), self.t)
    }

    /// Theorem 4's guarantee: `(4, ⌊t/2⌋)`-tolerance.
    pub fn guarantee_theorem_4(&self) -> Guarantee {
        self.guarantee(TheoremId::Theorem4, 4, self.t / 2)
    }

    /// The tightest guarantee covering a fault budget of `f` (clamped to
    /// the tolerance `t`): Theorem 4's constant bound while
    /// `f <= ⌊t/2⌋`, Theorem 3's `max{2t, 4}` beyond.
    pub fn guarantee_for_budget(&self, f: usize) -> Guarantee {
        let f = f.min(self.t);
        if f <= self.t / 2 {
            self.guarantee(TheoremId::Theorem4, 4, f)
        } else {
            self.guarantee(TheoremId::Theorem3, (2 * self.t as u32).max(4), f)
        }
    }
}

/// Every construction needs a connected graph (`t + 1 = κ(G) >= 1`).
pub(crate) fn require_connected(kappa: usize) -> Result<(), RoutingError> {
    if kappa == 0 {
        return Err(RoutingError::InsufficientConnectivity {
            needed: 1,
            found: 0,
        });
    }
    Ok(())
}

/// Inserts a bidirectional direct edge route for every edge of `g`.
pub(crate) fn insert_edge_routes(routing: &mut Routing, g: &Graph) -> Result<(), RoutingError> {
    for (u, v) in g.edges() {
        routing.insert(Path::edge(u, v).expect("graph edges join distinct nodes"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteTable;
    use ftr_graph::gen;

    #[test]
    fn kernel_routes_every_outside_node_to_separator() {
        let g = gen::petersen();
        let kernel = KernelRouting::build(&g).unwrap();
        kernel.routing().validate(&g).unwrap();
        assert_eq!(kernel.separator().len(), 3);
        let m: NodeSet = NodeSet::from_nodes(10, kernel.separator().iter().copied());
        for x in g.nodes() {
            if m.contains(x) {
                continue;
            }
            let targets: Vec<Node> = kernel
                .separator()
                .iter()
                .copied()
                .filter(|&mm| kernel.routing().route(x, mm).is_some())
                .collect();
            assert_eq!(targets.len(), 3, "x={x} must route to all of M");
        }
    }

    #[test]
    fn kernel_theorem_3_bound_exhaustive_on_cycle() {
        // C6 is 2-connected: t = 1, bound 2t = 2 (max(2t,4) per Dolev et
        // al. is 4; the raw 2t bound may be beaten by small cases, so we
        // check the claim object instead).
        let g = gen::cycle(6).unwrap();
        let kernel = KernelRouting::build(&g).unwrap();
        let claim = kernel.guarantee_theorem_3().claim();
        for f in g.nodes() {
            let faults = NodeSet::from_nodes(6, [f]);
            let s = kernel.routing().surviving(&faults);
            let d = s.diameter().expect("2-connected survives 1 fault");
            assert!(d <= claim.diameter, "fault {f}: diameter {d}");
        }
    }

    #[test]
    fn kernel_theorem_4_bound_exhaustive_on_torus() {
        // 3x4 torus: κ = 4, t = 3, ⌊t/2⌋ = 1 fault, bound 4.
        let g = gen::torus(3, 4).unwrap();
        let kernel = KernelRouting::build(&g).unwrap();
        assert_eq!(kernel.tolerated_faults(), 3);
        for f in g.nodes() {
            let faults = NodeSet::from_nodes(12, [f]);
            let s = kernel.routing().surviving(&faults);
            let d = s.diameter().expect("4-connected survives 1 fault");
            assert!(d <= 4, "fault {f}: diameter {d} exceeds Theorem 4 bound");
        }
    }

    #[test]
    fn complete_graph_degenerates_to_edges() {
        let g = gen::complete(6).unwrap();
        let kernel = KernelRouting::build(&g).unwrap();
        assert!(kernel.separator().is_empty());
        assert_eq!(kernel.tolerated_faults(), 4);
        let s = kernel
            .routing()
            .surviving(&NodeSet::from_nodes(6, [0, 1, 2, 3]));
        assert_eq!(s.diameter(), Some(1));
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = Graph::new(4);
        assert!(matches!(
            KernelRouting::build(&g),
            Err(RoutingError::InsufficientConnectivity { .. })
        ));
    }

    #[test]
    fn guarantees_are_budget_aware() {
        let g = gen::torus(3, 4).unwrap(); // t = 3
        let kernel = KernelRouting::build(&g).unwrap();
        let g3 = kernel.guarantee_theorem_3();
        let g4 = kernel.guarantee_theorem_4();
        assert_eq!((g3.diameter, g3.faults), (6, 3));
        assert_eq!((g4.diameter, g4.faults), (4, 1));
        assert_eq!(g3.routes, kernel.routing().route_count());
        assert_eq!(
            kernel.guarantee_for_budget(1).theorem,
            crate::TheoremId::Theorem4
        );
        assert_eq!(
            kernel.guarantee_for_budget(2).theorem,
            crate::TheoremId::Theorem3
        );
        assert_eq!(kernel.guarantee_for_budget(99).faults, 3, "clamped to t");
        assert_eq!(g3.claim().diameter, 6);
        assert_eq!(g4.claim(), kernel.guarantee_for_budget(1).claim());
    }

    #[test]
    fn custom_separator_must_separate() {
        let g = gen::cycle(6).unwrap();
        let not_sep = NodeSet::from_nodes(6, [0, 1]);
        assert!(matches!(
            KernelRouting::build_with_separator(&g, &not_sep, 2),
            Err(RoutingError::PropertyNotSatisfied { .. })
        ));
        let too_small = NodeSet::from_nodes(6, [0]);
        assert!(matches!(
            KernelRouting::build_with_separator(&g, &too_small, 2),
            Err(RoutingError::ConcentratorTooSmall { .. })
        ));
        let sep = NodeSet::from_nodes(6, [0, 3]);
        let kernel = KernelRouting::build_with_separator(&g, &sep, 2).unwrap();
        kernel.routing().validate(&g).unwrap();
    }
}
