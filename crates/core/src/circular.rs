//! The circular routing (Section 4, Theorem 10): a bidirectional
//! `(6, t)`-tolerant routing for any `(t+1)`-connected graph with a
//! neighborhood set of size `K >= t+1` (`t` even) or `K >= t+2` (`t`
//! odd).
//!
//! The concentrator members `m_0, ..., m_{K-1}` are arranged in a
//! (conceptual) circle. The components are:
//!
//! * CIRC 1 — every node `x ∉ Γ` (outside all member neighborhoods,
//!   including the members themselves) gets tree routings into *every*
//!   Γ_i;
//! * CIRC 2 — every node `x ∈ Γ_i` gets tree routings into the "forward
//!   half" sets Γ_(i+j) for `1 <= j <= ⌈K/2⌉ − 1` (the range restriction
//!   prevents two conflicting routes between nodes of Γ);
//! * CIRC 3 — direct edge routes between adjacent nodes.
//!
//! Combined with Lemma 5 (a tree routing into Γ(m) plus the edges around
//! `m` give a 2-step surviving route to `m`), any two surviving nodes
//! route through surviving concentrator members within 6 hops.

use ftr_graph::{connectivity, Graph, Node};

use crate::concentrator::NeighborhoodConcentrator;
use crate::kernel::{insert_edge_routes, require_connected};
use crate::tree::{map_with_network, tree_routing_on};
use crate::{Guarantee, Routing, RoutingError, RoutingKind, TheoremId};

/// A circular routing with its concentrator.
///
/// # Example
///
/// ```
/// use ftr_core::{CircularRouting, RouteTable};
/// use ftr_graph::{gen, NodeSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gen::harary(3, 18)?; // 3-connected: t = 2 (even), K = t + 1 = 3
/// let circ = CircularRouting::build(&g)?;
/// assert_eq!(circ.concentrator().len(), 3);
/// let s = circ.routing().surviving(&NodeSet::from_nodes(18, [2, 11]));
/// assert!(s.diameter().expect("tolerates 2 faults") <= 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircularRouting {
    routing: Routing,
    concentrator: NeighborhoodConcentrator,
    t: usize,
}

impl CircularRouting {
    /// Builds the circular routing with the theorem's minimal
    /// concentrator size: `K = t+1` for even `t`, `K = t+2` for odd `t`
    /// (Lemma 9 / Theorem 10).
    ///
    /// # Errors
    ///
    /// * [`RoutingError::InsufficientConnectivity`] if `g` is
    ///   disconnected.
    /// * [`RoutingError::ConcentratorTooSmall`] if no neighborhood set of
    ///   the required size is found.
    pub fn build(g: &Graph) -> Result<Self, RoutingError> {
        let kappa = connectivity::vertex_connectivity(g);
        require_connected(kappa)?;
        let t = kappa - 1;
        let k = if t.is_multiple_of(2) { t + 1 } else { t + 2 };
        Self::build_at(g, kappa, k)
    }

    /// Builds a circular routing over a concentrator of exactly `k`
    /// members (Lemma 7's `K = 2t+1` variant, or deliberately
    /// undersized concentrators for ablation A1).
    ///
    /// # Errors
    ///
    /// As [`CircularRouting::build`], plus
    /// [`RoutingError::PropertyNotSatisfied`] for `k == 0`.
    pub fn build_with_size(g: &Graph, k: usize) -> Result<Self, RoutingError> {
        Self::build_at(g, connectivity::vertex_connectivity(g), k)
    }

    /// [`CircularRouting::build_with_size`] given `kappa = κ(g)`.
    pub(crate) fn build_at(g: &Graph, kappa: usize, k: usize) -> Result<Self, RoutingError> {
        require_connected(kappa)?;
        if k == 0 {
            return Err(RoutingError::property("concentrator size must be positive"));
        }
        let concentrator = NeighborhoodConcentrator::select(g, k)?;
        let routing = construct(g, &concentrator, kappa)?;
        Ok(CircularRouting {
            routing,
            concentrator,
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

    /// The concentrator (circle) used.
    pub fn concentrator(&self) -> &NeighborhoodConcentrator {
        &self.concentrator
    }

    /// The number of faults `t` the construction tolerates.
    pub fn tolerated_faults(&self) -> usize {
        self.t
    }

    /// Theorem 10's guarantee: `(6, t)`-tolerance, with the exact
    /// route-count/memory cost of this table.
    pub fn guarantee(&self) -> Guarantee {
        Guarantee {
            scheme: "circular",
            theorem: TheoremId::Theorem10,
            diameter: 6,
            faults: self.t,
            routes: self.routing.route_count(),
            memory_bytes: self.routing.memory_bytes(),
            audited: false,
        }
    }
}

/// Assembles components CIRC 1–3 over the given concentrator.
fn construct(
    g: &Graph,
    conc: &NeighborhoodConcentrator,
    kappa: usize,
) -> Result<Routing, RoutingError> {
    let k = conc.len();
    let half = k.div_ceil(2); // ⌈K/2⌉
    let mut routing = Routing::new(g.node_count(), RoutingKind::Bidirectional);
    // CIRC 3 first so the shortcut rule folds tree-routing edges onto it.
    insert_edge_routes(&mut routing, g)?;
    // CIRC 1 and CIRC 2: every source's tree routings are derived in
    // parallel; insertion is sequential in source order.
    let nodes: Vec<Node> = g.nodes().collect();
    let batches = map_with_network(g, nodes.len(), |net, idx| {
        let x = nodes[idx];
        let mut paths = Vec::new();
        match conc.circle_of(x) {
            // CIRC 1: x outside Γ routes into every Γ_i.
            None => {
                for i in 0..k {
                    paths.extend(tree_routing_on(net, x, conc.gamma(i), kappa)?);
                }
            }
            // CIRC 2: x ∈ Γ_i routes into the forward half of the circle.
            Some(i) => {
                for j in 1..half {
                    let target = (i + j) % k;
                    paths.extend(tree_routing_on(net, x, conc.gamma(target), kappa)?);
                }
            }
        }
        Ok::<_, RoutingError>(paths)
    });
    for batch in batches {
        for p in batch? {
            routing.insert(p)?;
        }
    }
    routing.freeze();
    Ok(routing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_tolerance, FaultStrategy, RouteTable};
    use ftr_graph::{gen, NodeSet};

    #[test]
    fn builds_and_validates_on_harary() {
        let g = gen::harary(3, 18).unwrap();
        let circ = CircularRouting::build(&g).unwrap();
        circ.routing().validate(&g).unwrap();
        assert_eq!(circ.tolerated_faults(), 2);
        assert_eq!(circ.concentrator().len(), 3); // t = 2 (even): K = t + 1
    }

    #[test]
    fn concentrator_size_follows_parity_rule() {
        // κ = 3 -> t = 2 (even) -> K = 3.
        let g = gen::harary(3, 18).unwrap();
        let circ = CircularRouting::build(&g).unwrap();
        assert_eq!(circ.concentrator().len(), 3);
        // κ = 4 -> t = 3 (odd) -> K = 5.
        let g = gen::harary(4, 30).unwrap();
        let circ = CircularRouting::build(&g).unwrap();
        assert_eq!(circ.concentrator().len(), 5);
    }

    #[test]
    fn theorem_10_bound_exhaustive_small() {
        // C9 is 2-connected (t = 1, K = 3): check all fault sets |F| <= 1.
        let g = gen::cycle(9).unwrap();
        let circ = CircularRouting::build(&g).unwrap();
        circ.routing().validate(&g).unwrap();
        let report = verify_tolerance(circ.routing(), 1, FaultStrategy::Exhaustive, 2);
        assert!(report.satisfies(&circ.guarantee().claim()), "{report}");
    }

    #[test]
    fn theorem_10_bound_exhaustive_harary() {
        let g = gen::harary(3, 20).unwrap(); // t = 2
        let circ = CircularRouting::build(&g).unwrap();
        let report = verify_tolerance(circ.routing(), 2, FaultStrategy::Exhaustive, 4);
        assert!(report.satisfies(&circ.guarantee().claim()), "{report}");
    }

    #[test]
    fn no_fault_diameter_finite() {
        // 6x10 torus: ball of radius 2 has 13 nodes, so the greedy set
        // has at least ceil(60/13) = 5 members = t + 2 for t = 3.
        let g = gen::torus(6, 10).unwrap();
        let circ = CircularRouting::build(&g).unwrap();
        let s = circ.routing().surviving(&NodeSet::new(60));
        assert!(s.diameter().is_some());
    }

    #[test]
    fn oversized_concentrator_lemma_7_variant() {
        // K = 2t + 1 with t = 1 on a big cycle.
        let g = gen::cycle(15).unwrap();
        let circ = CircularRouting::build_with_size(&g, 3).unwrap();
        let report = verify_tolerance(circ.routing(), 1, FaultStrategy::Exhaustive, 2);
        assert!(report.satisfies(&circ.guarantee().claim()), "{report}");
    }

    #[test]
    fn dense_graph_lacks_concentrator() {
        let g = gen::complete_bipartite(4, 4).unwrap(); // κ = 4, no 2 nodes at distance 3
        assert!(matches!(
            CircularRouting::build(&g),
            Err(RoutingError::ConcentratorTooSmall { .. })
        ));
    }
}
