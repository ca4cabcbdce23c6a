//! The tri-circular routing (Section 4, Theorem 13): a bidirectional
//! `(4, t)`-tolerant routing for any `(t+1)`-connected graph with a
//! neighborhood set of size `K >= 6t + 9`.
//!
//! The concentrator is split into three circles `M^0, M^1, M^2` of `s`
//! members each. Components:
//!
//! * T-CIRC 1 — every `x ∉ Γ` gets tree routings into *every* set Γ^j_i;
//! * T-CIRC 2 — every `x ∈ Γ^j_i` gets tree routings into the next
//!   `t + 1` sets of its own circle, Γ^j_(i+k) for `1 <= k <= t+1`;
//! * T-CIRC 3 — every `x ∈ Γ^j_i` gets tree routings into *every* set of
//!   the next circle, Γ^(j+1 mod 3)_l;
//! * T-CIRC 4 — direct edge routes.
//!
//! Any two nodes then share `t + 1` common target sets, so some
//! *common* non-faulty member is 2 steps from both (Property T-CIRC),
//! giving diameter 4 (Lemma 11).
//!
//! Remark 14's *small* variant uses three circles of the circular
//! routing's size (`t+1` or `t+2`, so `K >= 3t+3` or `3t+6`) with the
//! circular forward-half rule inside each circle, and is claimed
//! `(5, t)`-tolerant; the paper omits the details, so this module builds
//! the natural construction and experiment E5 validates the bound
//! empirically.

use ftr_graph::{connectivity, Graph, Node};

use crate::concentrator::NeighborhoodConcentrator;
use crate::kernel::{insert_edge_routes, require_connected};
use crate::tree::{map_with_network, tree_routing_on};
use crate::{Guarantee, Routing, RoutingError, RoutingKind, TheoremId};

/// Which tri-circular construction to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriCircularVariant {
    /// Theorem 13: circles of `2t + 3` members (`K = 6t + 9`), in-circle
    /// forward range `t + 1`; bound 4.
    Standard,
    /// Remark 14: circles of `t+1` / `t+2` members (`K = 3t+3` /
    /// `3t+6`), in-circle forward range `⌈s/2⌉ − 1`; bound 5
    /// (validated empirically — the paper gives no construction).
    Small,
}

/// A tri-circular routing: three circles with cyclic cross-links.
///
/// # Example
///
/// ```
/// use ftr_core::{RouteTable, TriCircularRouting, TriCircularVariant};
/// use ftr_graph::{gen, NodeSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gen::cycle(45)?; // 2-connected: t = 1, K = 6t + 9 = 15
/// let tri = TriCircularRouting::build(&g, TriCircularVariant::Standard)?;
/// assert_eq!(tri.circle_size(), 5); // 2t + 3
/// let s = tri.routing().surviving(&NodeSet::from_nodes(45, [4]));
/// assert!(s.diameter().expect("tolerates 1 fault") <= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TriCircularRouting {
    routing: Routing,
    concentrator: NeighborhoodConcentrator,
    circle_size: usize,
    variant: TriCircularVariant,
    t: usize,
}

impl TriCircularRouting {
    /// Builds a tri-circular routing on `g`.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::InsufficientConnectivity`] if `g` is
    ///   disconnected.
    /// * [`RoutingError::ConcentratorTooSmall`] if no neighborhood set
    ///   with `3 * circle_size` members exists.
    pub fn build(g: &Graph, variant: TriCircularVariant) -> Result<Self, RoutingError> {
        Self::build_at(g, connectivity::vertex_connectivity(g), variant)
    }

    /// [`TriCircularRouting::build`] given `kappa = κ(g)`.
    pub(crate) fn build_at(
        g: &Graph,
        kappa: usize,
        variant: TriCircularVariant,
    ) -> Result<Self, RoutingError> {
        require_connected(kappa)?;
        let t = kappa - 1;
        let s = match variant {
            TriCircularVariant::Standard => 2 * t + 3,
            TriCircularVariant::Small => {
                if t.is_multiple_of(2) {
                    t + 1
                } else {
                    t + 2
                }
            }
        };
        let concentrator = NeighborhoodConcentrator::select(g, 3 * s)?;
        let routing = construct(g, &concentrator, s, variant, kappa)?;
        Ok(TriCircularRouting {
            routing,
            concentrator,
            circle_size: s,
            variant,
            t,
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

    /// The concentrator; members `[j*s .. (j+1)*s]` form circle `j`.
    pub fn concentrator(&self) -> &NeighborhoodConcentrator {
        &self.concentrator
    }

    /// Members per circle (`2t+3` standard, `t+1`/`t+2` small).
    pub fn circle_size(&self) -> usize {
        self.circle_size
    }

    /// Which variant was built.
    pub fn variant(&self) -> TriCircularVariant {
        self.variant
    }

    /// The number of faults `t` the construction tolerates.
    pub fn tolerated_faults(&self) -> usize {
        self.t
    }

    /// Theorem 13's `(4, t)` guarantee, or Remark 14's `(5, t)` for the
    /// small variant, with this table's exact costs.
    pub fn guarantee(&self) -> Guarantee {
        let (theorem, diameter) = match self.variant {
            TriCircularVariant::Standard => (TheoremId::Theorem13, 4),
            TriCircularVariant::Small => (TheoremId::Remark14, 5),
        };
        Guarantee {
            scheme: "tricircular",
            theorem,
            diameter,
            faults: self.t,
            routes: self.routing.route_count(),
            memory_bytes: self.routing.memory_bytes(),
            audited: false,
        }
    }
}

/// Assembles components T-CIRC 1–4 over the first `3s` concentrator
/// members.
fn construct(
    g: &Graph,
    conc: &NeighborhoodConcentrator,
    s: usize,
    variant: TriCircularVariant,
    kappa: usize,
) -> Result<Routing, RoutingError> {
    let t = kappa - 1;
    debug_assert!(conc.len() == 3 * s);
    // In-circle forward range: T-CIRC 2's `t + 1` for the standard
    // variant needs `s >= 2t + 3` so that forward arcs never meet their
    // own reverses; the small variant reuses the circular routing's
    // conflict-free `⌈s/2⌉ − 1`.
    let forward = match variant {
        TriCircularVariant::Standard => t + 1,
        TriCircularVariant::Small => s.div_ceil(2) - 1,
    };
    let mut routing = Routing::new(g.node_count(), RoutingKind::Bidirectional);
    insert_edge_routes(&mut routing, g)?; // T-CIRC 4
    let set_of = |j: usize, i: usize| conc.gamma(j * s + i);
    // T-CIRC 1–3 derive every source's tree routings in parallel;
    // insertion is sequential in source order.
    let nodes: Vec<Node> = g.nodes().collect();
    let batches = map_with_network(g, nodes.len(), |net, idx| {
        let x = nodes[idx];
        let mut paths = Vec::new();
        match conc.circle_of(x) {
            // T-CIRC 1: x outside Γ routes into every set of every circle.
            None => {
                for i in 0..3 * s {
                    paths.extend(tree_routing_on(net, x, conc.gamma(i), kappa)?);
                }
            }
            Some(global) => {
                let (j, i) = (global / s, global % s);
                // T-CIRC 2: forward within the own circle.
                for k in 1..=forward {
                    paths.extend(tree_routing_on(net, x, set_of(j, (i + k) % s), kappa)?);
                }
                // T-CIRC 3: every set of the next circle.
                for l in 0..s {
                    paths.extend(tree_routing_on(net, x, set_of((j + 1) % 3, l), kappa)?);
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
    fn standard_builds_with_theorem_sizes() {
        let g = gen::cycle(45).unwrap(); // t = 1
        let tri = TriCircularRouting::build(&g, TriCircularVariant::Standard).unwrap();
        tri.routing().validate(&g).unwrap();
        assert_eq!(tri.circle_size(), 5);
        assert_eq!(tri.concentrator().len(), 15);
        assert_eq!(tri.guarantee().claim().diameter, 4);
    }

    #[test]
    fn small_variant_sizes_follow_parity() {
        let g = gen::cycle(27).unwrap(); // t = 1 odd -> s = 3, K = 9
        let tri = TriCircularRouting::build(&g, TriCircularVariant::Small).unwrap();
        assert_eq!(tri.circle_size(), 3);
        assert_eq!(tri.concentrator().len(), 9);
        assert_eq!(tri.guarantee().claim().diameter, 5);
    }

    #[test]
    fn theorem_13_bound_exhaustive_on_cycle() {
        let g = gen::cycle(45).unwrap(); // t = 1
        let tri = TriCircularRouting::build(&g, TriCircularVariant::Standard).unwrap();
        let report = verify_tolerance(tri.routing(), 1, FaultStrategy::Exhaustive, 4);
        assert!(report.satisfies(&tri.guarantee().claim()), "{report}");
    }

    #[test]
    fn remark_14_bound_exhaustive_on_cycle() {
        let g = gen::cycle(27).unwrap(); // t = 1
        let tri = TriCircularRouting::build(&g, TriCircularVariant::Small).unwrap();
        let report = verify_tolerance(tri.routing(), 1, FaultStrategy::Exhaustive, 4);
        assert!(report.satisfies(&tri.guarantee().claim()), "{report}");
    }

    #[test]
    fn no_fault_diameter_bounded_by_claim() {
        let g = gen::cycle(45).unwrap();
        let tri = TriCircularRouting::build(&g, TriCircularVariant::Standard).unwrap();
        let s = tri.routing().surviving(&NodeSet::new(45));
        assert!(s.diameter().unwrap() <= 4);
    }

    #[test]
    fn too_small_graph_rejected() {
        // K = 15 members pairwise at distance >= 3 cannot fit in C20.
        let g = gen::cycle(20).unwrap();
        assert!(matches!(
            TriCircularRouting::build(&g, TriCircularVariant::Standard),
            Err(RoutingError::ConcentratorTooSmall { .. })
        ));
    }
}
