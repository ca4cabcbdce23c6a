use std::collections::VecDeque;
use std::fmt;

use crate::{BitMatrix, GraphError, Node, NodeSet, INFINITY};

/// A directed simple graph.
///
/// Surviving route graphs are directed: a routing assigns a path to each
/// *ordered* pair, so after faults the edge `x → y` may survive while
/// `y → x` does not (for unidirectional routings). [`DiGraph`] is the
/// representation used by `ftr-core`'s surviving-graph machinery.
///
/// # Example
///
/// ```
/// use ftr_graph::DiGraph;
///
/// # fn main() -> Result<(), ftr_graph::GraphError> {
/// let mut d = DiGraph::new(3);
/// d.add_arc(0, 1)?;
/// d.add_arc(1, 2)?;
/// let dist = d.bfs_distances(0, None);
/// assert_eq!(dist, vec![0, 1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    out_adj: Vec<Vec<Node>>,
    arc_count: usize,
}

impl DiGraph {
    /// Creates an arcless directed graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out_adj: vec![Vec::new(); n],
            arc_count: 0,
        }
    }

    /// Adds the arc `u → v`, returning `true` if it was new.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if `u` or `v` is not a node.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_arc(&mut self, u: Node, v: Node) -> Result<bool, GraphError> {
        let n = self.out_adj.len();
        for w in [u, v] {
            if w as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: w, n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        match self.out_adj[u as usize].binary_search(&v) {
            Ok(_) => Ok(false),
            Err(pos) => {
                self.out_adj[u as usize].insert(pos, v);
                self.arc_count += 1;
                Ok(true)
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of directed arcs.
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Returns `true` if the arc `u → v` exists. Out-of-range arguments
    /// yield `false`.
    pub fn has_arc(&self, u: Node, v: Node) -> bool {
        (u as usize) < self.out_adj.len() && self.out_adj[u as usize].binary_search(&v).is_ok()
    }

    /// The sorted out-neighbor list of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the graph.
    pub fn out_neighbors(&self, u: Node) -> &[Node] {
        &self.out_adj[u as usize]
    }

    /// Iterates over all nodes `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        0..self.out_adj.len() as Node
    }

    /// Iterates over all arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (Node, Node)> + '_ {
        self.out_adj
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().copied().map(move |v| (u as Node, v)))
    }

    /// BFS distances from `src` along arcs, skipping nodes in `avoid`.
    ///
    /// Unreachable (or avoided) nodes get [`INFINITY`]. If `src` itself is
    /// avoided, every distance is [`INFINITY`].
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a node of the graph.
    pub fn bfs_distances(&self, src: Node, avoid: Option<&NodeSet>) -> Vec<u32> {
        let n = self.out_adj.len();
        assert!((src as usize) < n, "source {src} out of range");
        let mut dist = vec![INFINITY; n];
        let blocked = |v: Node| avoid.is_some_and(|a| a.contains(v));
        if blocked(src) {
            return dist;
        }
        dist[src as usize] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in &self.out_adj[u as usize] {
                if dist[v as usize] == INFINITY && !blocked(v) {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Packs the adjacency into a [`BitMatrix`], the word-parallel form
    /// used by the compiled verification engine (`m.diameter(avoid)`
    /// equals `self.diameter(avoid)` for every overlay).
    pub fn to_bitmatrix(&self) -> BitMatrix {
        let mut m = BitMatrix::new(self.node_count());
        for (u, v) in self.arcs() {
            m.set(u, v);
        }
        m
    }

    /// The diameter restricted to the nodes *not* in `avoid`: the maximum
    /// over ordered pairs `(x, y)` of surviving nodes of the BFS distance
    /// from `x` to `y`.
    ///
    /// Returns `None` if some surviving node cannot reach another
    /// (infinite diameter) and `Some(0)` if at most one node survives.
    pub fn diameter(&self, avoid: Option<&NodeSet>) -> Option<u32> {
        let mut best = 0;
        let blocked = |v: Node| avoid.is_some_and(|a| a.contains(v));
        for src in self.nodes() {
            if blocked(src) {
                continue;
            }
            let dist = self.bfs_distances(src, avoid);
            for v in self.nodes() {
                if v != src && !blocked(v) {
                    let d = dist[v as usize];
                    if d == INFINITY {
                        return None;
                    }
                    best = best.max(d);
                }
            }
        }
        Some(best)
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiGraph")
            .field("nodes", &self.node_count())
            .field("arcs", &self.arc_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_cycle() -> DiGraph {
        let mut d = DiGraph::new(3);
        d.add_arc(0, 1).unwrap();
        d.add_arc(1, 2).unwrap();
        d.add_arc(2, 0).unwrap();
        d
    }

    #[test]
    fn arcs_are_directed() {
        let mut d = DiGraph::new(2);
        d.add_arc(0, 1).unwrap();
        assert!(d.has_arc(0, 1));
        assert!(!d.has_arc(1, 0));
        assert_eq!(d.arc_count(), 1);
    }

    #[test]
    fn duplicate_arc_ignored() {
        let mut d = DiGraph::new(2);
        assert!(d.add_arc(0, 1).unwrap());
        assert!(!d.add_arc(0, 1).unwrap());
        assert_eq!(d.arc_count(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut d = DiGraph::new(2);
        assert_eq!(d.add_arc(0, 0), Err(GraphError::SelfLoop { node: 0 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = DiGraph::new(2);
        assert!(matches!(
            d.add_arc(0, 9),
            Err(GraphError::NodeOutOfRange { node: 9, n: 2 })
        ));
    }

    #[test]
    fn bfs_follows_arc_direction() {
        let d = triangle_cycle();
        assert_eq!(d.bfs_distances(0, None), vec![0, 1, 2]);
        assert_eq!(d.bfs_distances(2, None), vec![1, 2, 0]);
    }

    #[test]
    fn bfs_respects_avoid() {
        let d = triangle_cycle();
        let avoid = NodeSet::from_nodes(3, [1]);
        assert_eq!(
            d.bfs_distances(0, Some(&avoid)),
            vec![0, INFINITY, INFINITY]
        );
    }

    #[test]
    fn bfs_from_avoided_source() {
        let d = triangle_cycle();
        let avoid = NodeSet::from_nodes(3, [0]);
        assert_eq!(d.bfs_distances(0, Some(&avoid)), vec![INFINITY; 3]);
    }

    #[test]
    fn diameter_of_directed_cycle() {
        let d = triangle_cycle();
        assert_eq!(d.diameter(None), Some(2));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let mut d = DiGraph::new(2);
        d.add_arc(0, 1).unwrap();
        // 1 cannot reach 0
        assert_eq!(d.diameter(None), None);
    }

    #[test]
    fn diameter_with_faults_shrinks_node_set() {
        let mut d = DiGraph::new(4);
        // path 0 -> 1 -> 2 -> 3 plus shortcut arcs back
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)] {
            d.add_arc(u, v).unwrap();
        }
        assert_eq!(d.diameter(None), Some(3));
        let avoid = NodeSet::from_nodes(4, [3]);
        assert_eq!(d.diameter(Some(&avoid)), Some(2));
    }

    #[test]
    fn diameter_single_survivor_is_zero() {
        let d = triangle_cycle();
        let avoid = NodeSet::from_nodes(3, [0, 1]);
        assert_eq!(d.diameter(Some(&avoid)), Some(0));
    }

    #[test]
    fn arcs_iterator() {
        let d = triangle_cycle();
        assert_eq!(d.arcs().collect::<Vec<_>>(), vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn bitmatrix_conversion_preserves_arcs_and_diameter() {
        let d = triangle_cycle();
        let m = d.to_bitmatrix();
        assert_eq!(m.arc_count(), d.arc_count());
        for (u, v) in d.arcs() {
            assert!(m.has(u, v));
        }
        assert_eq!(m.diameter(None), d.diameter(None));
        let avoid = NodeSet::from_nodes(3, [1]);
        assert_eq!(m.diameter(Some(&avoid)), d.diameter(Some(&avoid)));
    }
}
