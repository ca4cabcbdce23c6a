//! Graph substrate for the fault tolerant routing constructions of
//! Peleg & Simons, *On Fault Tolerant Routings in General Networks*
//! (PODC 1986 / Information and Computation 74, 1987).
//!
//! The paper models a communication network as an undirected graph of
//! node-connectivity `t + 1` whose nodes are subject to faults. Every
//! construction in the paper rests on a small number of graph-theoretic
//! primitives, all of which this crate implements from scratch:
//!
//! * [`Graph`] — an immutable-after-construction undirected graph with
//!   sorted adjacency lists. Faults never mutate a graph; instead every
//!   traversal accepts an optional [`NodeSet`] overlay of forbidden nodes.
//! * [`DiGraph`] — a directed graph used to represent *surviving route
//!   graphs* (routes are ordered pairs, so the surviving graph is directed
//!   even when the underlying network is not).
//! * [`BitMatrix`] — a word-packed directed adjacency matrix whose BFS
//!   frontier expansion is a row-OR over `u64` words; the compiled
//!   surviving-graph engine measures all-pairs diameters on it with early
//!   exit on disconnection.
//! * [`flow`] — maximum flow with unit node capacities (node splitting),
//!   which yields Menger-style vertex-disjoint paths, the *tree routings*
//!   of the paper's Lemma 2, and minimum vertex cuts.
//! * [`connectivity`] — exact global vertex connectivity (the `t + 1`
//!   parameter of every theorem) and minimum separating sets.
//! * [`analysis`] — girth, short cycles through a node, independence,
//!   greedy *neighborhood sets* (Lemma 15) and *two-trees* root detection
//!   (Section 5).
//! * [`vulnerability`] — articulation points and bridges (Tarjan), the
//!   linear-time screen for single points of failure.
//! * [`gen`] — the network families the paper motivates: hypercubes,
//!   cube-connected cycles, wrapped butterflies, de Bruijn graphs, Harary
//!   graphs, circulants, tori, random `G(n,p)` graphs and more.
//! * [`io`] — graph6 interchange with external tools (nauty, geng,
//!   NetworkX).
//!
//! # Example
//!
//! Compute the connectivity of a 4-dimensional hypercube and a minimum
//! separating set, in one pass:
//!
//! ```
//! use ftr_graph::{connectivity::Connectivity, gen};
//!
//! # fn main() -> Result<(), ftr_graph::GraphError> {
//! let g = gen::hypercube(4)?;
//! let conn = Connectivity::of(&g);
//! assert_eq!(conn.kappa, 4);
//! let sep = conn.separator.expect("hypercubes are not complete");
//! assert_eq!(sep.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod bitmatrix;
pub mod connectivity;
mod digraph;
mod error;
pub mod flow;
pub mod gen;
mod graph;
pub mod io;
mod nodeset;
#[cfg(feature = "obs-counters")]
pub mod obs;
mod path;
pub mod spec;
pub mod traversal;
pub mod vulnerability;

pub use bitmatrix::{count_bfs, BfsScratch, BitMatrix};
pub use digraph::DiGraph;
pub use error::GraphError;
pub use graph::Graph;
pub use nodeset::{words_intersect, NodeSet};
pub use path::{nodes_affected_by, validate_nodes_in, Path};

/// Identifier of a node in a [`Graph`] or [`DiGraph`].
///
/// Nodes of a graph with `n` nodes are exactly `0..n`. A plain integer
/// alias (rather than a newtype) is used because the routing constructions
/// are index-heavy; all public APIs validate node ranges and report
/// [`GraphError::NodeOutOfRange`] on misuse.
pub type Node = u32;

/// Distance value representing "unreachable" in BFS outputs.
///
/// # Example
///
/// ```
/// use ftr_graph::{gen, traversal, INFINITY};
///
/// # fn main() -> Result<(), ftr_graph::GraphError> {
/// let g = gen::path_graph(2)?; // 0 - 1
/// let mut lonely = ftr_graph::Graph::new(3);
/// lonely.add_edge(0, 1)?;
/// let dist = traversal::bfs_distances(&lonely, 0, None);
/// assert_eq!(dist[2], INFINITY);
/// # let _ = g;
/// # Ok(())
/// # }
/// ```
pub const INFINITY: u32 = u32::MAX;
