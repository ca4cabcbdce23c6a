//! Tree routings (Lemma 2): node-disjoint paths from a node into a
//! separating set, with the direct-edge shortcut rule.
//!
//! A *(unidirectional) tree routing* from `x` to a node set `M` connects
//! `x` to exactly `k` distinct members of `M` by paths that are
//! node-disjoint except at `x`, stop at their first `M`-node, and — the
//! additional requirement that keeps the paper's constructions
//! conflict-free — use the direct edge whenever `x` is adjacent to the
//! path's endpoint.
//!
//! Lemma 1: if `x` is non-faulty and fewer than `k` faults occur, at
//! least one of the `k` routes survives, so `x` keeps a distance-1 link
//! into `M` in the surviving graph.

use ftr_graph::{flow::SplitNetwork, Graph, Node, NodeSet, Path};

use crate::{par, RoutingError};

/// Builds a tree routing from `x` into `targets` with exactly `k` paths.
///
/// The paths are found by unit-node-capacity max flow (exact, per
/// Menger), truncated at their first target, and post-processed with the
/// shortcut rule: a path whose endpoint is adjacent to `x` is replaced by
/// the direct edge (this preserves disjointness, because the endpoint
/// already belonged to the path).
///
/// # Errors
///
/// * [`RoutingError::InsufficientConnectivity`] if fewer than `k`
///   disjoint paths exist (the graph's connectivity is below `k` or the
///   target set is too thin).
/// * [`RoutingError::Graph`] if `x` or `targets` are invalid (empty set,
///   set containing `x`, wrong capacity).
///
/// # Example
///
/// ```
/// use ftr_core::tree::tree_routing;
/// use ftr_graph::gen;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gen::hypercube(3)?;
/// let targets = g.neighbor_set(7); // Γ(7) separates 0 from 7
/// let paths = tree_routing(&g, 0, &targets, 3)?;
/// assert_eq!(paths.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn tree_routing(
    g: &Graph,
    x: Node,
    targets: &NodeSet,
    k: usize,
) -> Result<Vec<Path>, RoutingError> {
    tree_routing_on(&mut SplitNetwork::new(g), x, targets, k)
}

/// [`tree_routing`] on a caller-kept network of the graph, for the
/// constructions that derive one tree routing after another (the result
/// does not depend on what the network answered before).
///
/// # Errors
///
/// As [`tree_routing`].
pub fn tree_routing_on(
    net: &mut SplitNetwork<'_>,
    x: Node,
    targets: &NodeSet,
    k: usize,
) -> Result<Vec<Path>, RoutingError> {
    let mut paths = net.vertex_disjoint_paths_to_set(x, targets, Some(k))?;
    if paths.len() < k {
        return Err(RoutingError::InsufficientConnectivity {
            needed: k,
            found: paths.len(),
        });
    }
    let g = net.graph();
    for p in &mut paths {
        if p.len() > 1 && g.has_edge(x, p.target()) {
            *p = Path::edge(x, p.target()).expect("x differs from its neighbor");
        }
    }
    Ok(paths)
}

/// Maps `f` over `0..items` on the construction-time worker pool, results
/// in item order, with one reusable network of `g` per worker — how
/// every construction derives its per-source route batches.
pub(crate) fn map_with_network<'g, T, F>(g: &'g Graph, items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut SplitNetwork<'g>, usize) -> T + Sync,
{
    par::ordered_map_with(items, par::default_threads(), || SplitNetwork::new(g), f)
}

/// Checks that `paths` form a valid tree routing from `x` into `targets`:
/// correct endpoints, first-target truncation, pairwise node-disjointness
/// away from `x`, distinct endpoints, and the direct-edge shortcut rule.
///
/// Used by tests and by the experiment harness as an independent audit
/// of [`tree_routing`]'s output.
pub fn is_tree_routing(g: &Graph, x: Node, targets: &NodeSet, paths: &[Path]) -> bool {
    let mut used = NodeSet::new(g.node_count());
    let mut endpoints = NodeSet::new(g.node_count());
    for p in paths {
        if p.validate_in(g).is_err() || p.source() != x || p.len() == 0 {
            return false;
        }
        let end = p.target();
        if !targets.contains(end) || !endpoints.insert(end) {
            return false;
        }
        if p.interior().any(|v| targets.contains(v) || v == x) {
            return false;
        }
        if g.has_edge(x, end) && p.len() != 1 {
            return false; // shortcut rule violated
        }
        for v in p.nodes().iter().copied().filter(|&v| v != x) {
            if !used.insert(v) {
                return false; // paths overlap away from x
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_graph::{connectivity, gen};

    #[test]
    fn tree_routing_on_hypercube_neighborhoods() {
        let g = gen::hypercube(4).unwrap();
        for m in [0u32, 5, 15] {
            let targets = g.neighbor_set(m);
            for x in g.nodes() {
                if x == m || targets.contains(x) {
                    continue;
                }
                let paths = tree_routing(&g, x, &targets, 4).unwrap();
                assert!(is_tree_routing(&g, x, &targets, &paths), "x={x} m={m}");
            }
        }
    }

    #[test]
    fn shortcut_rule_enforced() {
        // x adjacent to a target: the route must be that single edge.
        let g = gen::cycle(6).unwrap();
        let targets = NodeSet::from_nodes(6, [1, 4]);
        let paths = tree_routing(&g, 0, &targets, 2).unwrap();
        assert!(is_tree_routing(&g, 0, &targets, &paths));
        let to_one = paths.iter().find(|p| p.target() == 1).unwrap();
        assert_eq!(to_one.nodes(), &[0, 1]);
    }

    #[test]
    fn insufficient_connectivity_reported() {
        let g = gen::cycle(6).unwrap(); // 2-connected
        let targets = NodeSet::from_nodes(6, [2, 3, 4]);
        let err = tree_routing(&g, 0, &targets, 3).unwrap_err();
        assert_eq!(
            err,
            RoutingError::InsufficientConnectivity {
                needed: 3,
                found: 2
            }
        );
    }

    #[test]
    fn separator_tree_routings_exist_for_every_outside_node() {
        // Lemma 2 on a minimum separator: every x outside M gets a
        // κ-path tree routing.
        for g in [
            gen::petersen(),
            gen::torus(3, 4).unwrap(),
            gen::harary(4, 12).unwrap(),
        ] {
            let k = connectivity::vertex_connectivity(&g);
            let sep = connectivity::min_separator(&g).unwrap();
            for x in g.nodes() {
                if sep.contains(x) {
                    continue;
                }
                let paths = tree_routing(&g, x, &sep, k).unwrap();
                assert!(is_tree_routing(&g, x, &sep, &paths), "{g:?} x={x}");
            }
        }
    }

    #[test]
    fn audit_rejects_bad_routings() {
        let g = gen::cycle(5).unwrap();
        let targets = NodeSet::from_nodes(5, [2, 3]);
        // wrong source
        let p = vec![Path::new(vec![1, 2]).unwrap()];
        assert!(!is_tree_routing(&g, 0, &targets, &p));
        // endpoint not in target set
        let p = vec![Path::new(vec![0, 1]).unwrap()];
        assert!(!is_tree_routing(&g, 0, &targets, &p));
        // duplicate endpoints
        let p = vec![
            Path::new(vec![0, 1, 2]).unwrap(),
            Path::new(vec![0, 1, 2]).unwrap(),
        ];
        assert!(!is_tree_routing(&g, 0, &targets, &p));
        // passes through a target
        let g2 = gen::path_graph(4).unwrap();
        let t2 = NodeSet::from_nodes(4, [1, 3]);
        let p = vec![Path::new(vec![0, 1, 2, 3]).unwrap()];
        assert!(!is_tree_routing(&g2, 0, &t2, &p));
    }

    #[test]
    fn lemma_1_one_route_survives() {
        // With k = 3 paths and at most 2 faults not hitting x, some path
        // survives — exhaustively checked on the Petersen graph.
        let g = gen::petersen();
        let targets = g.neighbor_set(9);
        let paths = tree_routing(&g, 0, &targets, 3).unwrap();
        for f1 in g.nodes() {
            for f2 in g.nodes() {
                if f1 == 0 || f2 == 0 {
                    continue;
                }
                let faults = NodeSet::from_nodes(10, [f1, f2]);
                assert!(
                    paths.iter().any(|p| !p.is_affected_by(&faults)),
                    "faults {{{f1}, {f2}}} killed all tree routes"
                );
            }
        }
    }
}
