//! Changing the network (Section 6): clique-augmenting the kernel's
//! concentrator.
//!
//! If the routing designer may add links, turning the kernel separator
//! `M` into a clique makes any two concentrator members adjacent, so
//! after at most `t` faults every surviving pair routes
//! `x → M → M → y` in at most 3 steps: a `(3, t)`-tolerant routing at
//! the price of at most `t(t+1)/2` new links. The paper asks (open
//! problem 2) whether `O(t)` added links suffice.

use ftr_graph::{connectivity::Connectivity, Graph, Node};

use crate::kernel::{require_connected, KernelRouting};
use crate::{Guarantee, Routing, RoutingError, TheoremId};

/// A kernel routing over a clique-augmented network.
///
/// # Example
///
/// ```
/// use ftr_core::{AugmentedKernelRouting, RouteTable};
/// use ftr_graph::{gen, NodeSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gen::torus(3, 4)?; // κ = 4, t = 3
/// let aug = AugmentedKernelRouting::build(&g)?;
/// assert!(aug.added_edges().len() <= 3 * 4 / 2);
/// let s = aug.routing().surviving(&NodeSet::from_nodes(12, [0, 5, 7]));
/// assert!(s.diameter().expect("tolerates 3 faults") <= 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AugmentedKernelRouting {
    augmented: Graph,
    kernel: KernelRouting,
    added: Vec<(Node, Node)>,
    t: usize,
}

impl AugmentedKernelRouting {
    /// Builds the augmented-kernel routing: finds a minimum separator of
    /// `g`, adds the missing links to make it a clique, and builds the
    /// kernel routing on the augmented graph.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::InsufficientConnectivity`] if `g` is
    ///   disconnected.
    /// * [`RoutingError::PropertyNotSatisfied`] if `g` is complete (no
    ///   separator exists — and nothing to improve: the graph already
    ///   routes every pair directly).
    pub fn build(g: &Graph) -> Result<Self, RoutingError> {
        Self::build_at(g, &Connectivity::of(g))
    }

    /// [`AugmentedKernelRouting::build`] given `g`'s connectivity.
    pub(crate) fn build_at(g: &Graph, conn: &Connectivity) -> Result<Self, RoutingError> {
        let kappa = conn.kappa;
        require_connected(kappa)?;
        let sep = conn
            .separator
            .as_ref()
            .ok_or_else(|| RoutingError::property("complete graphs need no augmentation"))?;
        let members: Vec<Node> = sep.iter().collect();
        let mut augmented = g.clone();
        let mut added = Vec::new();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if augmented.add_edge(a, b)? {
                    added.push((a, b));
                }
            }
        }
        let kernel = KernelRouting::build_with_separator(&augmented, sep, kappa)?;
        Ok(AugmentedKernelRouting {
            augmented,
            kernel,
            added,
            t: kappa - 1,
        })
    }

    /// The augmented network (original plus clique links inside `M`).
    pub fn augmented_graph(&self) -> &Graph {
        &self.augmented
    }

    /// The route table over the augmented network.
    pub fn routing(&self) -> &Routing {
        self.kernel.routing()
    }

    /// Consumes the construction, returning the augmented network and
    /// the owned route table over it.
    pub fn into_parts(self) -> (Graph, Routing) {
        (self.augmented, self.kernel.into_routing())
    }

    /// The separator that was turned into a clique.
    pub fn separator(&self) -> &[Node] {
        self.kernel.separator()
    }

    /// The links added by the augmentation (at most `t(t+1)/2`).
    pub fn added_edges(&self) -> &[(Node, Node)] {
        &self.added
    }

    /// The number of faults `t` the construction tolerates (relative to
    /// the *original* graph's connectivity).
    pub fn tolerated_faults(&self) -> usize {
        self.t
    }

    /// Section 6's guarantee: `(3, t)`-tolerance on the augmented
    /// network, with this table's exact costs.
    pub fn guarantee(&self) -> Guarantee {
        Guarantee {
            scheme: "augment",
            theorem: TheoremId::Section6Augment,
            diameter: 3,
            faults: self.t,
            routes: self.routing().route_count(),
            memory_bytes: self.routing().memory_bytes(),
            audited: false,
        }
    }

    /// The added-link budget the paper states: `t(t+1)/2`.
    pub fn link_budget(&self) -> usize {
        self.t * (self.t + 1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_graph::Path;

    /// Reconstructs the direct edge routes the augmentation relies on;
    /// confirms the clique is fully routed.
    fn clique_paths(members: &[Node]) -> Vec<Path> {
        let mut paths = Vec::new();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                paths.push(Path::edge(a, b).expect("members are distinct"));
            }
        }
        paths
    }
    use crate::{verify_tolerance, FaultStrategy};
    use ftr_graph::gen;

    #[test]
    fn augmentation_respects_link_budget() {
        for g in [
            gen::cycle(8).unwrap(),
            gen::petersen(),
            gen::torus(3, 4).unwrap(),
            gen::harary(4, 14).unwrap(),
        ] {
            let aug = AugmentedKernelRouting::build(&g).unwrap();
            assert!(
                aug.added_edges().len() <= aug.link_budget(),
                "added {} > budget {}",
                aug.added_edges().len(),
                aug.link_budget()
            );
            aug.routing().validate(aug.augmented_graph()).unwrap();
        }
    }

    #[test]
    fn separator_is_a_clique_after_augmentation() {
        let g = gen::petersen();
        let aug = AugmentedKernelRouting::build(&g).unwrap();
        let m = aug.separator();
        for (i, &a) in m.iter().enumerate() {
            for &b in &m[i + 1..] {
                assert!(aug.augmented_graph().has_edge(a, b));
            }
        }
        assert_eq!(clique_paths(m).len(), m.len() * (m.len() - 1) / 2);
    }

    #[test]
    fn section_6_bound_exhaustive_on_petersen() {
        let g = gen::petersen(); // t = 2
        let aug = AugmentedKernelRouting::build(&g).unwrap();
        let report = verify_tolerance(aug.routing(), 2, FaultStrategy::Exhaustive, 4);
        assert!(report.satisfies(&aug.guarantee().claim()), "{report}");
    }

    #[test]
    fn section_6_bound_exhaustive_on_cycle() {
        let g = gen::cycle(10).unwrap(); // t = 1
        let aug = AugmentedKernelRouting::build(&g).unwrap();
        let report = verify_tolerance(aug.routing(), 1, FaultStrategy::Exhaustive, 2);
        assert!(report.satisfies(&aug.guarantee().claim()), "{report}");
    }

    #[test]
    fn complete_graph_rejected() {
        let g = gen::complete(5).unwrap();
        assert!(matches!(
            AugmentedKernelRouting::build(&g),
            Err(RoutingError::PropertyNotSatisfied { .. })
        ));
    }
}
