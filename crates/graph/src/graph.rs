use std::fmt;

use crate::{GraphError, Node, NodeSet};

/// An undirected simple graph with sorted adjacency lists.
///
/// This is the paper's model of a communication network: nodes are
/// processors, edges are bidirectional links. Graphs are conceptually
/// immutable once built — fault tolerance analysis never removes nodes,
/// it passes a [`NodeSet`] of faulty nodes alongside the graph instead
/// (see [`crate::traversal`]).
///
/// Node identifiers are `0..n` where `n` is [`Graph::node_count`].
///
/// # Example
///
/// ```
/// use ftr_graph::Graph;
///
/// # fn main() -> Result<(), ftr_graph::GraphError> {
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1)?;
/// g.add_edge(1, 2)?;
/// g.add_edge(2, 3)?;
/// g.add_edge(3, 0)?;
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(3, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<Node>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph on `n` nodes from an edge list.
    ///
    /// Duplicate edges are ignored (the graph stays simple).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// if an edge is invalid.
    ///
    /// # Example
    ///
    /// ```
    /// use ftr_graph::Graph;
    /// # fn main() -> Result<(), ftr_graph::GraphError> {
    /// let g = Graph::from_edges(3, [(0, 1), (1, 2), (1, 2)])?;
    /// assert_eq!(g.edge_count(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (Node, Node)>,
    ) -> Result<Self, GraphError> {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Returns `Ok(true)` if the edge was new and `Ok(false)` if it was
    /// already present (the graph is kept simple).
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if `u` or `v` is not a node.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: Node, v: Node) -> Result<bool, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let pos_u = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return Ok(false),
            Err(pos) => pos,
        };
        self.adj[u as usize].insert(pos_u, v);
        let pos_v = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency lists out of sync");
        self.adj[v as usize].insert(pos_v, u);
        self.edge_count += 1;
        Ok(true)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if `{u, v}` is an edge. Out-of-range arguments and
    /// `u == v` simply yield `false`.
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        (u as usize) < self.adj.len() && self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// The sorted neighbor list Γ(u) of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the graph.
    pub fn neighbors(&self, u: Node) -> &[Node] {
        &self.adj[u as usize]
    }

    /// The neighbors of `u` as a freshly allocated [`NodeSet`].
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the graph.
    pub fn neighbor_set(&self, u: Node) -> NodeSet {
        NodeSet::from_nodes(self.node_count(), self.neighbors(u).iter().copied())
    }

    /// The degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the graph.
    pub fn degree(&self, u: Node) -> usize {
        self.adj[u as usize].len()
    }

    /// The maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The minimum degree, or 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Average degree `2m / n`, or 0.0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.adj.len() as f64
        }
    }

    /// Iterates over all nodes `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        0..self.adj.len() as Node
    }

    /// Iterates over all undirected edges as pairs `(u, v)` with `u < v`.
    ///
    /// # Example
    ///
    /// ```
    /// use ftr_graph::Graph;
    /// # fn main() -> Result<(), ftr_graph::GraphError> {
    /// let g = Graph::from_edges(3, [(2, 1), (0, 2)])?;
    /// assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 2), (1, 2)]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn edges(&self) -> impl Iterator<Item = (Node, Node)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as Node;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Returns `true` if the graph is complete (every pair adjacent).
    pub fn is_complete(&self) -> bool {
        let n = self.node_count();
        n <= 1 || self.edge_count == n * (n - 1) / 2
    }

    /// Returns the induced subgraph on the nodes *not* in `removed`,
    /// along with the mapping from new node ids to original ids.
    ///
    /// This is used by tests as an independent cross-check of the fault
    /// overlay machinery; production code paths use overlays instead.
    ///
    /// # Panics
    ///
    /// Panics if `removed` was built for a different node count.
    pub fn remove_nodes(&self, removed: &NodeSet) -> (Graph, Vec<Node>) {
        assert_eq!(removed.capacity(), self.node_count());
        let mut old_to_new = vec![Node::MAX; self.node_count()];
        let mut new_to_old = Vec::new();
        for v in self.nodes() {
            if !removed.contains(v) {
                old_to_new[v as usize] = new_to_old.len() as Node;
                new_to_old.push(v);
            }
        }
        let mut g = Graph::new(new_to_old.len());
        for (u, v) in self.edges() {
            if !removed.contains(u) && !removed.contains(v) {
                g.add_edge(old_to_new[u as usize], old_to_new[v as usize])
                    .expect("mapped edge is valid");
            }
        }
        (g, new_to_old)
    }

    fn check_node(&self, v: Node) -> Result<(), GraphError> {
        if (v as usize) < self.adj.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v,
                n: self.adj.len(),
            })
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph on {} nodes with {} edges",
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_edge_is_symmetric_and_idempotent() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 2).unwrap());
        assert!(!g.add_edge(2, 0).unwrap());
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new(3);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = Graph::new(3);
        assert_eq!(
            g.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert_eq!(g.degree(2), 4);
    }

    #[test]
    fn edges_iterator_normalized() {
        let g = Graph::from_edges(4, [(3, 1), (0, 1)]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn is_complete_detects() {
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]).unwrap();
        assert!(g.is_complete());
        let h = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        assert!(!h.is_complete());
        assert!(Graph::new(1).is_complete());
        assert!(Graph::new(0).is_complete());
    }

    #[test]
    fn remove_nodes_builds_induced_subgraph() {
        // square 0-1-2-3-0 with diagonal 0-2, remove node 0
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let removed = NodeSet::from_nodes(4, [0]);
        let (h, map) = g.remove_nodes(&removed);
        assert_eq!(h.node_count(), 3);
        assert_eq!(map, vec![1, 2, 3]);
        assert_eq!(h.edge_count(), 2); // 1-2 and 2-3
        assert!(h.has_edge(0, 1)); // old 1-2
        assert!(h.has_edge(1, 2)); // old 2-3
    }

    #[test]
    fn neighbor_set_matches_neighbors() {
        let g = Graph::from_edges(6, [(0, 3), (0, 5)]).unwrap();
        let s = g.neighbor_set(0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn display_mentions_counts() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        assert_eq!(g.to_string(), "graph on 2 nodes with 1 edges");
        assert_eq!(format!("{g:?}"), "Graph { nodes: 2, edges: 1 }");
    }
}
