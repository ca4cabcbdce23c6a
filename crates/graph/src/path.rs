use std::fmt;

use crate::{Graph, GraphError, Node, NodeSet};

/// A simple path: a non-empty sequence of distinct nodes.
///
/// Routes in the paper's model are fixed simple paths, so `Path` enforces
/// simplicity at construction. Adjacency of consecutive nodes depends on a
/// graph, so it is checked separately with [`Path::validate_in`].
///
/// A single-node path represents the trivial route from a node to itself
/// and is used nowhere by the constructions, but is permitted for
/// generality of the type.
///
/// # Example
///
/// ```
/// use ftr_graph::{Graph, Path};
///
/// # fn main() -> Result<(), ftr_graph::GraphError> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let p = Path::new(vec![0, 1, 2, 3])?;
/// p.validate_in(&g)?;
/// assert_eq!(p.source(), 0);
/// assert_eq!(p.target(), 3);
/// assert_eq!(p.len(), 3); // number of edges
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<Node>,
}

impl Path {
    /// Creates a path from a node sequence.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyPath`] if `nodes` is empty.
    /// * [`GraphError::NonSimplePath`] if a node repeats.
    pub fn new(nodes: Vec<Node>) -> Result<Self, GraphError> {
        if nodes.is_empty() {
            return Err(GraphError::EmptyPath);
        }
        let max = *nodes.iter().max().expect("non-empty") as usize;
        let mut seen = NodeSet::new(max + 1);
        for &v in &nodes {
            if !seen.insert(v) {
                return Err(GraphError::NonSimplePath { node: v });
            }
        }
        Ok(Path { nodes })
    }

    /// Creates the length-one path consisting of the edge `u — v`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NonSimplePath`] if `u == v`.
    pub fn edge(u: Node, v: Node) -> Result<Self, GraphError> {
        Path::new(vec![u, v])
    }

    /// First node of the path.
    pub fn source(&self) -> Node {
        self.nodes[0]
    }

    /// Last node of the path.
    pub fn target(&self) -> Node {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Number of edges (one less than the number of nodes).
    #[allow(clippy::len_without_is_empty)] // a path is never empty
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates over the interior nodes (all but source and target).
    pub fn interior(&self) -> impl Iterator<Item = Node> + '_ {
        self.nodes
            .get(1..self.nodes.len() - 1)
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Returns `true` if `v` occurs anywhere on the path (endpoints
    /// included).
    pub fn contains(&self, v: Node) -> bool {
        self.nodes.contains(&v)
    }

    /// Returns `true` if any node of the path belongs to `faults`.
    ///
    /// This is the paper's "a route is *affected* by a fault if the fault
    /// is contained in it".
    pub fn is_affected_by(&self, faults: &NodeSet) -> bool {
        nodes_affected_by(&self.nodes, faults)
    }

    /// The same path traversed in the opposite direction.
    pub fn reversed(&self) -> Path {
        let mut nodes = self.nodes.clone();
        nodes.reverse();
        Path { nodes }
    }

    /// Checks that every node exists in `g` and consecutive nodes are
    /// adjacent.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if a node is not in `g`.
    /// * [`GraphError::MissingEdge`] if consecutive nodes are not adjacent.
    pub fn validate_in(&self, g: &Graph) -> Result<(), GraphError> {
        validate_nodes_in(&self.nodes, g)
    }
}

/// Returns `true` if any node of the slice belongs to `faults` — the
/// borrowed-slice form of [`Path::is_affected_by`], used by route tables
/// that store their paths in a flat node arena instead of as [`Path`]
/// values.
pub fn nodes_affected_by(nodes: &[Node], faults: &NodeSet) -> bool {
    nodes.iter().any(|&v| faults.contains(v))
}

/// Checks that every node of the slice exists in `g` and consecutive
/// nodes are adjacent — the borrowed-slice form of [`Path::validate_in`]
/// for arena-stored routes (simplicity is the arena owner's invariant
/// and is not re-checked here).
///
/// # Errors
///
/// * [`GraphError::NodeOutOfRange`] if a node is not in `g`.
/// * [`GraphError::MissingEdge`] if consecutive nodes are not adjacent.
pub fn validate_nodes_in(nodes: &[Node], g: &Graph) -> Result<(), GraphError> {
    for &v in nodes {
        if v as usize >= g.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                n: g.node_count(),
            });
        }
    }
    for w in nodes.windows(2) {
        if !g.has_edge(w[0], w[1]) {
            return Err(GraphError::MissingEdge { u: w[0], v: w[1] });
        }
    }
    Ok(())
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path({self})")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(Path::new(vec![]), Err(GraphError::EmptyPath));
    }

    #[test]
    fn rejects_repeats() {
        assert_eq!(
            Path::new(vec![0, 1, 0]),
            Err(GraphError::NonSimplePath { node: 0 })
        );
    }

    #[test]
    fn singleton_path_allowed() {
        let p = Path::new(vec![7]).unwrap();
        assert_eq!(p.source(), 7);
        assert_eq!(p.target(), 7);
        assert_eq!(p.len(), 0);
        assert_eq!(p.interior().count(), 0);
    }

    #[test]
    fn edge_constructor() {
        let p = Path::edge(1, 2).unwrap();
        assert_eq!(p.nodes(), &[1, 2]);
        assert!(Path::edge(3, 3).is_err());
    }

    #[test]
    fn endpoints_and_interior() {
        let p = Path::new(vec![4, 2, 9, 1]).unwrap();
        assert_eq!(p.source(), 4);
        assert_eq!(p.target(), 1);
        assert_eq!(p.len(), 3);
        assert_eq!(p.interior().collect::<Vec<_>>(), vec![2, 9]);
    }

    #[test]
    fn affected_by_faults_on_any_node() {
        let p = Path::new(vec![0, 1, 2]).unwrap();
        assert!(p.is_affected_by(&NodeSet::from_nodes(3, [1])));
        assert!(p.is_affected_by(&NodeSet::from_nodes(3, [0])));
        assert!(!p.is_affected_by(&NodeSet::from_nodes(3, [])));
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let p = Path::new(vec![0, 1, 2]).unwrap();
        let r = p.reversed();
        assert_eq!(r.nodes(), &[2, 1, 0]);
        assert_eq!(r.source(), 2);
    }

    #[test]
    fn validate_in_checks_adjacency() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert!(Path::new(vec![0, 1]).unwrap().validate_in(&g).is_ok());
        assert_eq!(
            Path::new(vec![0, 2]).unwrap().validate_in(&g),
            Err(GraphError::MissingEdge { u: 0, v: 2 })
        );
        assert_eq!(
            Path::new(vec![0, 5]).unwrap().validate_in(&g),
            Err(GraphError::NodeOutOfRange { node: 5, n: 3 })
        );
    }

    #[test]
    fn display_format() {
        let p = Path::new(vec![3, 1, 4]).unwrap();
        assert_eq!(p.to_string(), "3 -> 1 -> 4");
        assert_eq!(format!("{p:?}"), "Path(3 -> 1 -> 4)");
    }
}
