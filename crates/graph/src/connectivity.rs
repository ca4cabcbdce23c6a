//! Exact global vertex connectivity and minimum separating sets.
//!
//! Every theorem in the paper is parameterised by the node-connectivity
//! `t + 1` of the network, and the kernel construction (Section 3) starts
//! from a *minimal separating set* of exactly `t + 1` nodes. This module
//! computes both, in one pass: [`Connectivity::of`].
//!
//! The algorithm is the classical one (Even): fix a minimum-degree node
//! `v`; the connectivity is the minimum of the local connectivities from
//! `v` to each of its non-neighbors and between each non-adjacent pair of
//! `v`'s neighbors. Correctness: a minimum separator either avoids `v`
//! (then it separates `v` from some non-neighbor) or contains `v` (then,
//! being minimal, it has neighbors of `v` on both sides, which are
//! non-adjacent and separated by it).
//!
//! The pass runs one capped max flow per witness pair on a single
//! [`flow::SplitNetwork`], remembers the first pair that attains the
//! minimum, and cuts that pair once at the end — `|witness pairs| + 1`
//! max flows for κ and the separator together. [`vertex_connectivity`]
//! and [`min_separator`] are the two halves of that result; callers that
//! need both (every routing construction does) take the
//! [`Connectivity`] and pay for the sweep once.

use crate::{flow::SplitNetwork, traversal, Graph, Node, NodeSet};

/// Enumerates the node pairs whose local connectivities witness the
/// global connectivity (see module docs): a minimum-degree node `v`
/// against each of its non-neighbors in node order, then the
/// non-adjacent pairs of `v`'s neighbors in adjacency order. All pairs
/// are non-adjacent. The order is load-bearing: the first pair attaining
/// κ supplies the minimum separator.
fn witness_pairs(g: &Graph) -> Vec<(Node, Node)> {
    let v = g
        .nodes()
        .min_by_key(|&u| g.degree(u))
        .expect("caller ensures a non-empty graph");
    let mut pairs = Vec::new();
    let nbrs = g.neighbor_set(v);
    for w in g.nodes() {
        if w != v && !nbrs.contains(w) {
            pairs.push((v, w));
        }
    }
    let nb: Vec<Node> = g.neighbors(v).to_vec();
    for (i, &x) in nb.iter().enumerate() {
        for &y in &nb[i + 1..] {
            if !g.has_edge(x, y) {
                pairs.push((x, y));
            }
        }
    }
    pairs
}

/// The node connectivity of a graph together with a minimum separating
/// set, computed in one witness-pair pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connectivity {
    /// κ(G): the minimum number of nodes whose removal disconnects the
    /// graph (`n - 1` for complete graphs, by convention; 0 for
    /// disconnected graphs and graphs with fewer than two nodes).
    pub kappa: usize,
    /// A minimum separating set: `kappa` nodes whose removal disconnects
    /// the graph. `None` for complete graphs and graphs with fewer than
    /// two nodes (nothing separates them); the empty set for a
    /// disconnected graph.
    pub separator: Option<NodeSet>,
}

impl Connectivity {
    /// Computes κ(G) and a minimum separating set.
    ///
    /// # Example
    ///
    /// ```
    /// use ftr_graph::{connectivity::Connectivity, gen, traversal};
    /// # fn main() -> Result<(), ftr_graph::GraphError> {
    /// let g = gen::torus(4, 4)?;
    /// let conn = Connectivity::of(&g);
    /// assert_eq!(conn.kappa, 4);
    /// let sep = conn.separator.expect("torus is not complete");
    /// assert_eq!(sep.len(), 4);
    /// assert!(!traversal::is_connected(&g, Some(&sep)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn of(g: &Graph) -> Self {
        let n = g.node_count();
        if n < 2 {
            return Connectivity {
                kappa: 0,
                separator: None,
            };
        }
        if g.is_complete() {
            return Connectivity {
                kappa: n - 1,
                separator: None,
            };
        }
        if !traversal::is_connected(g, None) {
            return Connectivity {
                kappa: 0,
                separator: Some(NodeSet::new(n)),
            };
        }
        let mut net = SplitNetwork::new(g);
        // No flow exceeds its cap, so the first pair always registers and
        // later ones only by a strict improvement: `tightest` ends as the
        // first pair whose local connectivity is κ.
        let mut kappa = g.min_degree();
        let mut tightest = None;
        for (s, t) in witness_pairs(g) {
            let local = net
                .local_vertex_connectivity(s, t, Some(kappa))
                .expect("witness pairs are valid distinct nodes");
            if local < kappa || tightest.is_none() {
                kappa = local;
                tightest = Some((s, t));
            }
        }
        let (s, t) = tightest.expect("a non-complete graph has a non-adjacent witness pair");
        let cut = net
            .min_st_vertex_cut(s, t)
            .expect("witness pairs are non-adjacent");
        debug_assert_eq!(cut.len(), kappa);
        Connectivity {
            kappa,
            separator: Some(cut),
        }
    }
}

/// The node connectivity κ(G): the minimum number of nodes whose removal
/// disconnects the graph (or `n - 1` for complete graphs, by convention).
///
/// Returns 0 for disconnected graphs and graphs with fewer than two
/// nodes. This is [`Connectivity::of`]'s `kappa`.
///
/// # Example
///
/// ```
/// use ftr_graph::{connectivity, gen};
/// # fn main() -> Result<(), ftr_graph::GraphError> {
/// assert_eq!(connectivity::vertex_connectivity(&gen::petersen()), 3);
/// assert_eq!(connectivity::vertex_connectivity(&gen::cycle(9)?), 2);
/// assert_eq!(connectivity::vertex_connectivity(&gen::complete(4)?), 3);
/// # Ok(())
/// # }
/// ```
pub fn vertex_connectivity(g: &Graph) -> usize {
    Connectivity::of(g).kappa
}

/// Returns `true` if κ(G) is at least `k`, stopping flows early at `k`
/// augmentations and at the first pair that falls short. Cheaper than
/// [`vertex_connectivity`] when only a threshold is needed.
///
/// `k == 0` is vacuously true; complete graphs satisfy `k <= n - 1`.
pub fn is_k_connected(g: &Graph, k: usize) -> bool {
    if k == 0 {
        return true;
    }
    let n = g.node_count();
    if n < 2 {
        return false;
    }
    if g.is_complete() {
        return k < n;
    }
    if g.min_degree() < k || !traversal::is_connected(g, None) {
        return false;
    }
    let mut net = SplitNetwork::new(g);
    witness_pairs(g).into_iter().all(|(s, t)| {
        net.local_vertex_connectivity(s, t, Some(k))
            .expect("witness pairs are valid distinct nodes")
            >= k
    })
}

/// A minimum separating set: κ(G) nodes whose removal disconnects the
/// graph. Returns `None` for complete graphs and graphs with fewer than
/// two nodes (nothing separates them); a disconnected graph yields
/// `Some(empty set)`. This is [`Connectivity::of`]'s `separator`.
///
/// # Example
///
/// ```
/// use ftr_graph::{connectivity, gen, traversal};
/// # fn main() -> Result<(), ftr_graph::GraphError> {
/// let g = gen::torus(4, 4)?;
/// let sep = connectivity::min_separator(&g).expect("torus is not complete");
/// assert_eq!(sep.len(), 4);
/// assert!(!traversal::is_connected(&g, Some(&sep)));
/// # Ok(())
/// # }
/// ```
pub fn min_separator(g: &Graph) -> Option<NodeSet> {
    Connectivity::of(g).separator
}

/// Returns `true` if removing `set` disconnects the remaining nodes into
/// two or more non-empty parts (the paper's definition of a *separating
/// set*).
///
/// # Panics
///
/// Panics if `set` was built for a different node count.
pub fn is_separator(g: &Graph, set: &NodeSet) -> bool {
    assert_eq!(set.capacity(), g.node_count());
    let survivors = g.node_count() - set.len();
    survivors >= 2 && !traversal::is_connected(g, Some(set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn known_connectivities() {
        assert_eq!(vertex_connectivity(&gen::cycle(8).unwrap()), 2);
        assert_eq!(vertex_connectivity(&gen::hypercube(3).unwrap()), 3);
        assert_eq!(vertex_connectivity(&gen::hypercube(4).unwrap()), 4);
        assert_eq!(vertex_connectivity(&gen::torus(3, 4).unwrap()), 4);
        assert_eq!(vertex_connectivity(&gen::petersen()), 3);
        assert_eq!(vertex_connectivity(&gen::path_graph(5).unwrap()), 1);
        assert_eq!(vertex_connectivity(&gen::star(6).unwrap()), 1);
        assert_eq!(vertex_connectivity(&gen::wheel(7).unwrap()), 3);
        assert_eq!(
            vertex_connectivity(&gen::complete_bipartite(3, 5).unwrap()),
            3
        );
        assert_eq!(
            vertex_connectivity(&gen::cube_connected_cycles(3).unwrap()),
            3
        );
    }

    #[test]
    fn harary_graphs_hit_their_design_connectivity() {
        for (k, n) in [(2, 9), (3, 10), (4, 11), (5, 12), (6, 13)] {
            let g = gen::harary(k, n).unwrap();
            assert_eq!(vertex_connectivity(&g), k, "H({k},{n})");
        }
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(vertex_connectivity(&Graph::new(0)), 0);
        assert_eq!(vertex_connectivity(&Graph::new(1)), 0);
        assert_eq!(vertex_connectivity(&Graph::new(5)), 0); // disconnected
        assert_eq!(vertex_connectivity(&gen::complete(2).unwrap()), 1);
    }

    #[test]
    fn threshold_checks() {
        let g = gen::hypercube(4).unwrap();
        assert!(is_k_connected(&g, 0));
        assert!(is_k_connected(&g, 4));
        assert!(!is_k_connected(&g, 5));
        assert!(is_k_connected(&gen::complete(5).unwrap(), 4));
        assert!(!is_k_connected(&gen::complete(5).unwrap(), 5));
        assert!(!is_k_connected(&Graph::new(3), 1));
    }

    #[test]
    fn min_separator_has_connectivity_size_and_separates() {
        for g in [
            gen::cycle(7).unwrap(),
            gen::hypercube(3).unwrap(),
            gen::torus(3, 3).unwrap(),
            gen::petersen(),
            gen::harary(4, 12).unwrap(),
        ] {
            let k = vertex_connectivity(&g);
            let sep = min_separator(&g).unwrap();
            assert_eq!(sep.len(), k);
            assert!(is_separator(&g, &sep));
        }
    }

    #[test]
    fn min_separator_of_complete_graph_is_none() {
        assert!(min_separator(&gen::complete(4).unwrap()).is_none());
        assert!(min_separator(&Graph::new(1)).is_none());
    }

    #[test]
    fn min_separator_of_disconnected_graph_is_empty() {
        let sep = min_separator(&Graph::new(4)).unwrap();
        assert!(sep.is_empty());
    }

    #[test]
    fn is_separator_rejects_non_separating_sets() {
        let g = gen::cycle(6).unwrap();
        assert!(!is_separator(&g, &NodeSet::from_nodes(6, [0])));
        assert!(is_separator(&g, &NodeSet::from_nodes(6, [0, 3])));
        // removing all but one node leaves nothing to separate
        assert!(!is_separator(&g, &NodeSet::from_nodes(6, [0, 1, 2, 3, 4])));
    }

    #[test]
    fn connectivity_matches_randomized_graphs_brute_force() {
        // Cross-check the flow-based connectivity against brute force on
        // small random graphs: try all subsets up to size 3.
        for seed in 0..8 {
            let g = gen::gnp(9, 0.45, seed).unwrap();
            let fast = vertex_connectivity(&g);
            let brute = brute_force_connectivity(&g);
            assert_eq!(fast, brute, "seed {seed}");
            // The single pass reports the same κ, and its separator is a
            // minimum one whenever anything separates the graph.
            let conn = Connectivity::of(&g);
            assert_eq!(conn.kappa, brute, "seed {seed}");
            assert_eq!(conn.separator, min_separator(&g), "seed {seed}");
            if let Some(sep) = &conn.separator {
                assert_eq!(sep.len(), brute, "seed {seed}");
                assert!(brute == 0 || is_separator(&g, sep), "seed {seed}");
            }
        }
    }

    #[test]
    fn single_pass_degenerate_cases() {
        let of = |g: &Graph| {
            let Connectivity { kappa, separator } = Connectivity::of(g);
            (kappa, separator)
        };
        // Fewer than two nodes: nothing to separate.
        assert_eq!(of(&Graph::new(0)), (0, None));
        assert_eq!(of(&Graph::new(1)), (0, None));
        // Disconnected: the empty set already separates.
        assert_eq!(of(&Graph::new(5)), (0, Some(NodeSet::new(5))));
        let mut two_parts = Graph::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)] {
            two_parts.add_edge(u, v).unwrap();
        }
        assert_eq!(of(&two_parts), (0, Some(NodeSet::new(7))));
        // Complete: κ = n − 1 by convention, no separator.
        assert_eq!(of(&gen::complete(2).unwrap()), (1, None));
        assert_eq!(of(&gen::complete(6).unwrap()), (5, None));
    }

    fn brute_force_connectivity(g: &Graph) -> usize {
        let n = g.node_count();
        assert!(n <= 20, "brute force is exponential");
        if g.is_complete() {
            return n.saturating_sub(1);
        }
        if !traversal::is_connected(g, None) {
            return 0;
        }
        let mut best = n - 1;
        for mask in 0u32..(1 << n) {
            let size = mask.count_ones() as usize;
            if size >= best {
                continue;
            }
            let set = NodeSet::from_nodes(n, (0..n as Node).filter(|&v| mask & (1 << v) != 0));
            if is_separator(g, &set) {
                best = size;
            }
        }
        best
    }
}
