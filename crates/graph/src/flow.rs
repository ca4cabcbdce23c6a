//! Maximum flow with unit node capacities: vertex-disjoint paths and
//! minimum vertex cuts.
//!
//! The paper's constructions rest on Menger-type arguments: a graph of
//! connectivity `t + 1` has `t + 1` internally node-disjoint paths
//! between any two nodes, and Lemma 2 truncates such paths to build *tree
//! routings* into a separating set. This module implements the classical
//! reduction: every node `v` is split into `v_in → v_out` with capacity
//! one, edges become unit arcs between copies, and maximum flow is found
//! by BFS augmentation (Edmonds–Karp), which is exact and fast for the
//! small flow values (`t + 1`) the constructions need.
//!
//! The constructions ask thousands of such questions about one graph (a
//! connectivity sweep is one max flow per witness pair, a kernel routing
//! one per source), so the split network is a value: a [`SplitNetwork`]
//! is built once per graph and answers any number of queries. Every arc
//! sits at a fixed index — `v_in → v_out` for every node, the two arcs of
//! every edge, and `v_in → sink` for every node, each node's arcs stored
//! contiguously — and a query only rewrites capacities: it copies the
//! base capacities back, closes the `v_in → v_out` arcs of its endpoints
//! (or of its source and targets) and, for a to-set query, opens the
//! targets' sink arcs. The search reuses one predecessor array and one
//! queue. A closed arc is skipped exactly as an absent one would be, so
//! the arcs a search visits, and the order it visits them in, depend
//! only on the graph and the query — a reused network returns exactly
//! what a fresh one does. The free functions below are one-shot calls of
//! it.
//!
//! # Example
//!
//! ```
//! use ftr_graph::{flow, gen};
//!
//! # fn main() -> Result<(), ftr_graph::GraphError> {
//! let g = gen::hypercube(3)?;
//! // Opposite corners of Q_3 are joined by 3 internally disjoint paths.
//! let paths = flow::vertex_disjoint_st_paths(&g, 0, 7, None)?;
//! assert_eq!(paths.len(), 3);
//!
//! // Many queries on one graph share one network.
//! let mut net = flow::SplitNetwork::new(&g);
//! assert_eq!(net.local_vertex_connectivity(0, 7, None)?, 3);
//! assert_eq!(net.min_st_vertex_cut(0, 7)?.len(), 3);
//! # Ok(())
//! # }
//! ```

use crate::{Graph, GraphError, Node, NodeSet, Path};

const fn node_in(v: Node) -> usize {
    2 * v as usize
}

const fn node_out(v: Node) -> usize {
    2 * v as usize + 1
}

/// The unit-capacity split network of one graph, reusable across
/// queries (see the module docs).
///
/// Network nodes are `v_in = 2v`, `v_out = 2v + 1` and one sink `2n`.
/// Every arc is stored with its reverse, so the flow on a forward arc is
/// the capacity its reverse has gained.
#[derive(Debug, Clone)]
pub struct SplitNetwork<'g> {
    g: &'g Graph,
    /// The arcs leaving network node `x` are `first[x]..first[x + 1]`.
    first: Vec<u32>,
    to: Vec<u32>,
    /// Index of each arc's reverse.
    rev: Vec<u32>,
    /// Whether the arc is one of the network's own (as opposed to the
    /// residual reverse of one).
    forward: Vec<bool>,
    /// Capacities with every `v_in → v_out` and edge arc open and every
    /// sink arc closed: what each query starts from.
    base: Vec<u8>,
    cap: Vec<u8>,
    /// BFS tree of the latest search: the arc that discovered each
    /// network node, `-1` if unreached, `-2` at the search's source.
    prev: Vec<i32>,
    queue: Vec<u32>,
}

impl<'g> SplitNetwork<'g> {
    /// Builds the split network of `g`.
    pub fn new(g: &'g Graph) -> Self {
        let n = g.node_count();
        let sink = 2 * n;
        // v_in: internal, one reverse per incident edge, sink arc;
        // v_out: internal's reverse, one arc per incident edge; the sink
        // holds the reverses of the n sink arcs.
        let mut first = Vec::with_capacity(sink + 2);
        let mut arcs = 0usize;
        let mut starts_at = |arcs: usize| {
            first.push(u32::try_from(arcs).expect("arc indices fit in u32"));
        };
        for v in g.nodes() {
            starts_at(arcs);
            starts_at(arcs + g.degree(v) + 2);
            arcs += 2 * g.degree(v) + 3;
        }
        starts_at(arcs);
        arcs += n;
        starts_at(arcs);
        let mut net = SplitNetwork {
            g,
            to: vec![0; arcs],
            rev: vec![0; arcs],
            forward: vec![false; arcs],
            base: vec![0; arcs],
            cap: Vec::new(),
            prev: vec![-1; sink + 1],
            queue: Vec::with_capacity(sink + 1),
            first,
        };
        // A search scans a node's arcs latest-added first, and the
        // augmenting paths it finds (so every path family returned)
        // depend on that order: internal arcs go in first, then the
        // edges, then the sink arcs, each filling its node's range from
        // the back.
        let mut free: Vec<u32> = net.first[1..].to_vec();
        for v in g.nodes() {
            net.add_arc(&mut free, node_in(v), node_out(v), 1);
        }
        for (u, v) in g.edges() {
            net.add_arc(&mut free, node_out(u), node_in(v), 1);
            net.add_arc(&mut free, node_out(v), node_in(u), 1);
        }
        for v in g.nodes() {
            net.add_arc(&mut free, node_in(v), sink, 0);
        }
        debug_assert_eq!(free, net.first[..=sink]);
        net.cap = net.base.clone();
        net
    }

    /// The graph this network was built from.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Adds the arc `u → v` with base capacity `cap` and its
    /// zero-capacity reverse, each in the last free slot of its tail's
    /// range (`free[x]` is one past it).
    fn add_arc(&mut self, free: &mut [u32], u: usize, v: usize, cap: u8) {
        free[u] -= 1;
        free[v] -= 1;
        let (arc, back) = (free[u] as usize, free[v] as usize);
        self.to[arc] = v as u32;
        self.to[back] = u as u32;
        self.rev[arc] = back as u32;
        self.rev[back] = arc as u32;
        self.forward[arc] = true;
        self.base[arc] = cap;
    }

    fn arcs_of(&self, x: usize) -> std::ops::Range<usize> {
        self.first[x] as usize..self.first[x + 1] as usize
    }

    /// Index of the arc `v_in → v_out`: the first added to `v_in`, so
    /// the last of its range.
    fn internal_arc(&self, v: Node) -> usize {
        self.first[node_in(v) + 1] as usize - 1
    }

    /// Index of the arc `v_in → sink`: the last added to `v_in`, so the
    /// first of its range.
    fn sink_arc(&self, v: Node) -> usize {
        self.first[node_in(v)] as usize
    }

    fn check_node(&self, v: Node) -> Result<(), GraphError> {
        if (v as usize) < self.g.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v,
                n: self.g.node_count(),
            })
        }
    }

    /// Validates an `s`–`t` query and resets the capacities for it,
    /// returning the search's source and sink.
    fn open_st(
        &mut self,
        s: Node,
        t: Node,
        distinct: &'static str,
    ) -> Result<(usize, usize), GraphError> {
        self.check_node(s)?;
        self.check_node(t)?;
        if s == t {
            return Err(GraphError::invalid(distinct));
        }
        self.cap.copy_from_slice(&self.base);
        for v in [s, t] {
            let internal = self.internal_arc(v);
            self.cap[internal] = 0;
        }
        Ok((node_out(s), node_in(t)))
    }

    /// Pushes units of flow `src → dst` along BFS augmenting paths until
    /// `limit` units flow or none is left, returning the flow value.
    /// When the flow stops short of `limit` the last search failed, so
    /// `prev` then marks exactly the residual-reachable nodes.
    fn max_flow(&mut self, src: usize, dst: usize, limit: Option<usize>) -> usize {
        #[cfg(feature = "obs-counters")]
        {
            use std::sync::atomic::Ordering::Relaxed;
            crate::obs::FLOW_RUNS.fetch_add(1, Relaxed);
        }
        let limit = limit.unwrap_or(usize::MAX);
        let mut value = 0;
        while value < limit {
            self.prev.fill(-1);
            self.prev[src] = -2;
            self.queue.clear();
            self.queue.push(src as u32);
            let mut at = 0;
            'search: while at < self.queue.len() {
                let u = self.queue[at] as usize;
                at += 1;
                for arc in self.arcs_of(u) {
                    let v = self.to[arc] as usize;
                    if self.cap[arc] > 0 && self.prev[v] == -1 {
                        self.prev[v] = arc as i32;
                        if v == dst {
                            break 'search;
                        }
                        self.queue.push(v as u32);
                    }
                }
            }
            if self.prev[dst] == -1 {
                break;
            }
            let mut v = dst;
            while v != src {
                let arc = self.prev[v] as usize;
                let back = self.rev[arc] as usize;
                self.cap[arc] -= 1;
                self.cap[back] += 1;
                v = self.to[back] as usize;
            }
            value += 1;
        }
        value
    }

    /// Takes back the first unit of flow leaving the out-copy `from`,
    /// returning the in-copy it entered.
    fn consume_flow_step(&mut self, from: usize) -> usize {
        for arc in self.arcs_of(from) {
            let back = self.rev[arc] as usize;
            if self.forward[arc] && self.cap[back] > 0 {
                self.cap[back] -= 1;
                self.cap[arc] += 1;
                return self.to[arc] as usize;
            }
        }
        unreachable!("flow conservation: a unit that entered the node leaves it")
    }

    /// Decomposes `count` units of flow leaving `s` into paths, each
    /// walked until it enters a node where `ends` holds.
    fn take_paths(&mut self, s: Node, count: usize, ends: impl Fn(Node) -> bool) -> Vec<Path> {
        let mut paths = Vec::with_capacity(count);
        for _ in 0..count {
            let mut nodes = vec![s];
            let mut v = s;
            loop {
                let entered = self.consume_flow_step(node_out(v));
                debug_assert_eq!(entered % 2, 0, "flow walks land on in-copies");
                v = (entered / 2) as Node;
                nodes.push(v);
                if ends(v) {
                    break;
                }
            }
            paths.push(Path::new(nodes).expect("unit node capacities make flow paths simple"));
        }
        paths
    }

    /// The number of internally node-disjoint `s`–`t` paths (Menger's
    /// local vertex connectivity), computed by max flow. If `limit` is
    /// given, the computation stops early once that many paths are found
    /// — callers minimizing over pairs use this to avoid wasted
    /// augmentations.
    ///
    /// For adjacent `s, t` the direct edge counts as one of the paths.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for invalid nodes and
    /// [`GraphError::InvalidParameter`] if `s == t`.
    pub fn local_vertex_connectivity(
        &mut self,
        s: Node,
        t: Node,
        limit: Option<usize>,
    ) -> Result<usize, GraphError> {
        let (src, dst) = self.open_st(s, t, "local connectivity requires distinct endpoints")?;
        Ok(self.max_flow(src, dst, limit))
    }

    /// A maximum (or `limit`-capped) family of internally node-disjoint
    /// simple paths from `s` to `t`.
    ///
    /// The returned paths share no node except `s` and `t`; their count
    /// is the local vertex connectivity (capped by `limit`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for invalid nodes and
    /// [`GraphError::InvalidParameter`] if `s == t`.
    pub fn vertex_disjoint_st_paths(
        &mut self,
        s: Node,
        t: Node,
        limit: Option<usize>,
    ) -> Result<Vec<Path>, GraphError> {
        let (src, dst) = self.open_st(s, t, "disjoint paths require distinct endpoints")?;
        let value = self.max_flow(src, dst, limit);
        Ok(self.take_paths(s, value, |v| v == t))
    }

    /// Node-disjoint paths from `s` to *distinct* members of `targets`,
    /// internally avoiding all of `targets` (every path stops at its
    /// first target — the truncation of the paper's Lemma 2).
    ///
    /// The paths share no node except `s`; as many as possible are
    /// returned, capped by `limit`. If `s` has an edge to a returned
    /// endpoint, nothing forces that path to be the direct edge — apply
    /// the paper's shortcut rule on top (see `ftr-core`'s tree routing
    /// builder).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for invalid nodes and
    /// [`GraphError::InvalidParameter`] if `targets` is empty, contains
    /// `s`, or was sized for a different graph.
    pub fn vertex_disjoint_paths_to_set(
        &mut self,
        s: Node,
        targets: &NodeSet,
        limit: Option<usize>,
    ) -> Result<Vec<Path>, GraphError> {
        self.check_node(s)?;
        if targets.capacity() != self.g.node_count() {
            return Err(GraphError::invalid(
                "target set capacity must equal the graph's node count",
            ));
        }
        if targets.is_empty() {
            return Err(GraphError::invalid("target set must be non-empty"));
        }
        if targets.contains(s) {
            return Err(GraphError::invalid(
                "target set must not contain the source",
            ));
        }
        self.cap.copy_from_slice(&self.base);
        let internal = self.internal_arc(s);
        self.cap[internal] = 0;
        for m in targets {
            // A target absorbs one unit and passes nothing on.
            let (internal, sink_arc) = (self.internal_arc(m), self.sink_arc(m));
            self.cap[internal] = 0;
            self.cap[sink_arc] = 1;
        }
        let value = self.max_flow(node_out(s), 2 * self.g.node_count(), limit);
        Ok(self.take_paths(s, value, |v| targets.contains(v)))
    }

    /// A minimum set of nodes (excluding `s` and `t`) whose removal
    /// disconnects `s` from `t`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] for invalid nodes.
    /// * [`GraphError::InvalidParameter`] if `s == t` or `s` and `t` are
    ///   adjacent (no vertex cut separates adjacent nodes).
    pub fn min_st_vertex_cut(&mut self, s: Node, t: Node) -> Result<NodeSet, GraphError> {
        let (src, dst) = self.open_st(s, t, "vertex cut requires distinct endpoints")?;
        if self.g.has_edge(s, t) {
            return Err(GraphError::invalid(
                "no vertex cut separates adjacent nodes",
            ));
        }
        self.max_flow(src, dst, None);
        // Every flow-carrying arc crossing the residual-reachable boundary
        // points at some node's copy; that node carries the crossing unit
        // of flow and joins the vertex cut. (Crossing arcs never point at
        // s or t: flow into s_in would violate conservation, and an
        // unsaturated arc into t_in would contradict flow maximality.)
        let n = self.g.node_count();
        let mut cut = NodeSet::new(n);
        for x in (0..2 * n).filter(|&x| self.prev[x] != -1) {
            for arc in self.arcs_of(x) {
                let y = self.to[arc] as usize;
                let carries_flow = self.forward[arc] && self.cap[self.rev[arc] as usize] > 0;
                if carries_flow && self.prev[y] == -1 {
                    let v = (y / 2) as Node;
                    debug_assert!(v != s && v != t, "cut never contains the endpoints");
                    cut.insert(v);
                }
            }
        }
        Ok(cut)
    }
}

/// One-shot [`SplitNetwork::local_vertex_connectivity`].
///
/// # Errors
///
/// As the method.
pub fn local_vertex_connectivity(
    g: &Graph,
    s: Node,
    t: Node,
    limit: Option<usize>,
) -> Result<usize, GraphError> {
    SplitNetwork::new(g).local_vertex_connectivity(s, t, limit)
}

/// One-shot [`SplitNetwork::vertex_disjoint_st_paths`].
///
/// # Errors
///
/// As the method.
pub fn vertex_disjoint_st_paths(
    g: &Graph,
    s: Node,
    t: Node,
    limit: Option<usize>,
) -> Result<Vec<Path>, GraphError> {
    SplitNetwork::new(g).vertex_disjoint_st_paths(s, t, limit)
}

/// One-shot [`SplitNetwork::vertex_disjoint_paths_to_set`].
///
/// # Errors
///
/// As the method.
pub fn vertex_disjoint_paths_to_set(
    g: &Graph,
    s: Node,
    targets: &NodeSet,
    limit: Option<usize>,
) -> Result<Vec<Path>, GraphError> {
    SplitNetwork::new(g).vertex_disjoint_paths_to_set(s, targets, limit)
}

/// One-shot [`SplitNetwork::min_st_vertex_cut`].
///
/// # Errors
///
/// As the method.
pub fn min_st_vertex_cut(g: &Graph, s: Node, t: Node) -> Result<NodeSet, GraphError> {
    SplitNetwork::new(g).min_st_vertex_cut(s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, traversal};

    fn assert_internally_disjoint(paths: &[Path], s: Node, t: Option<Node>) {
        let mut seen = std::collections::HashSet::new();
        for p in paths {
            for &v in p.nodes() {
                if v == s || Some(v) == t {
                    continue;
                }
                assert!(seen.insert(v), "node {v} reused across paths");
            }
        }
    }

    #[test]
    fn st_paths_on_cycle() {
        let g = gen::cycle(6).unwrap();
        let paths = vertex_disjoint_st_paths(&g, 0, 3, None).unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            p.validate_in(&g).unwrap();
            assert_eq!(p.source(), 0);
            assert_eq!(p.target(), 3);
        }
        assert_internally_disjoint(&paths, 0, Some(3));
    }

    #[test]
    fn st_paths_on_complete_graph() {
        let g = gen::complete(5).unwrap();
        let paths = vertex_disjoint_st_paths(&g, 0, 4, None).unwrap();
        // direct edge + 3 two-hop paths
        assert_eq!(paths.len(), 4);
        assert!(paths.iter().any(|p| p.len() == 1));
        assert_internally_disjoint(&paths, 0, Some(4));
    }

    #[test]
    fn st_paths_respect_limit() {
        let g = gen::complete(6).unwrap();
        let paths = vertex_disjoint_st_paths(&g, 0, 5, Some(2)).unwrap();
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn st_paths_count_matches_connectivity_on_hypercube() {
        let g = gen::hypercube(4).unwrap();
        for t in [1u32, 3, 7, 15] {
            let paths = vertex_disjoint_st_paths(&g, 0, t, None).unwrap();
            assert_eq!(paths.len(), 4, "Q4 is 4-connected");
            assert_internally_disjoint(&paths, 0, Some(t));
            for p in &paths {
                p.validate_in(&g).unwrap();
            }
        }
    }

    #[test]
    fn local_connectivity_values() {
        let g = gen::cycle(5).unwrap();
        assert_eq!(local_vertex_connectivity(&g, 0, 2, None).unwrap(), 2);
        assert_eq!(local_vertex_connectivity(&g, 0, 2, Some(1)).unwrap(), 1);
        assert!(local_vertex_connectivity(&g, 0, 0, None).is_err());
        assert!(local_vertex_connectivity(&g, 0, 99, None).is_err());
    }

    #[test]
    fn local_connectivity_disconnected_is_zero() {
        let g = Graph::new(4);
        assert_eq!(local_vertex_connectivity(&g, 0, 3, None).unwrap(), 0);
    }

    #[test]
    fn paths_to_set_truncate_at_first_target() {
        // path graph 0-1-2-3-4 with targets {1, 3}: only one disjoint path
        // from 0, and it must stop at 1 (never reaching 3 through 1).
        let g = gen::path_graph(5).unwrap();
        let targets = NodeSet::from_nodes(5, [1, 3]);
        let paths = vertex_disjoint_paths_to_set(&g, 0, &targets, None).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes(), &[0, 1]);
    }

    #[test]
    fn paths_to_set_reach_distinct_targets() {
        let g = gen::hypercube(3).unwrap();
        // neighbors of node 7 form a separating set for node 0
        let targets = g.neighbor_set(7);
        let paths = vertex_disjoint_paths_to_set(&g, 0, &targets, None).unwrap();
        assert_eq!(paths.len(), 3);
        let mut endpoints: Vec<Node> = paths.iter().map(Path::target).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        assert_eq!(endpoints.len(), 3, "endpoints must be distinct");
        assert_internally_disjoint(&paths, 0, None);
        for p in &paths {
            p.validate_in(&g).unwrap();
            assert!(targets.contains(p.target()));
            assert!(p.interior().all(|v| !targets.contains(v)));
        }
    }

    #[test]
    fn paths_to_set_input_validation() {
        let g = gen::cycle(4).unwrap();
        let empty = NodeSet::new(4);
        assert!(vertex_disjoint_paths_to_set(&g, 0, &empty, None).is_err());
        let with_s = NodeSet::from_nodes(4, [0, 2]);
        assert!(vertex_disjoint_paths_to_set(&g, 0, &with_s, None).is_err());
        let wrong_cap = NodeSet::from_nodes(9, [2]);
        assert!(vertex_disjoint_paths_to_set(&g, 0, &wrong_cap, None).is_err());
    }

    #[test]
    fn min_cut_separates() {
        let g = gen::cycle(6).unwrap();
        let cut = min_st_vertex_cut(&g, 0, 3).unwrap();
        assert_eq!(cut.len(), 2);
        assert!(!traversal::is_connected(&g, Some(&cut)));
        assert!(traversal::distance(&g, 0, 3, Some(&cut)) == crate::INFINITY);
    }

    #[test]
    fn min_cut_on_hypercube_has_connectivity_size() {
        let g = gen::hypercube(3).unwrap();
        let cut = min_st_vertex_cut(&g, 0, 7).unwrap();
        assert_eq!(cut.len(), 3);
        assert_eq!(traversal::distance(&g, 0, 7, Some(&cut)), crate::INFINITY);
    }

    #[test]
    fn min_cut_rejects_adjacent() {
        let g = gen::cycle(4).unwrap();
        assert!(min_st_vertex_cut(&g, 0, 1).is_err());
        assert!(min_st_vertex_cut(&g, 0, 0).is_err());
    }

    #[test]
    fn rejected_queries_leave_a_reused_network_intact() {
        let g = gen::torus(4, 5).unwrap();
        let targets = g.neighbor_set(13);
        let fresh_paths = vertex_disjoint_paths_to_set(&g, 0, &targets, None).unwrap();
        let fresh_cut = min_st_vertex_cut(&g, 0, 12).unwrap();
        let mut net = SplitNetwork::new(&g);
        // A capped flow leaves units in the network; every rejection
        // class follows, each between two accepted queries.
        assert_eq!(net.local_vertex_connectivity(3, 17, Some(2)).unwrap(), 2);
        assert!(net.local_vertex_connectivity(5, 5, None).is_err());
        assert_eq!(
            net.vertex_disjoint_paths_to_set(0, &targets, None).unwrap(),
            fresh_paths
        );
        assert!(net.vertex_disjoint_st_paths(0, 99, None).is_err());
        assert_eq!(net.min_st_vertex_cut(0, 12).unwrap(), fresh_cut);
        let with_source = NodeSet::from_nodes(20, [0, 7]);
        assert!(net
            .vertex_disjoint_paths_to_set(0, &with_source, None)
            .is_err());
        assert_eq!(
            net.vertex_disjoint_paths_to_set(0, &targets, None).unwrap(),
            fresh_paths
        );
        assert!(net.min_st_vertex_cut(0, 1).is_err(), "adjacent pair");
        assert_eq!(net.min_st_vertex_cut(0, 12).unwrap(), fresh_cut);
        assert_eq!(net.local_vertex_connectivity(0, 12, None).unwrap(), 4);
    }

    #[test]
    fn cut_size_equals_flow_value() {
        for seed in 0..5 {
            let g = gen::gnp(24, 0.25, seed).unwrap();
            for (s, t) in [(0u32, 12u32), (3, 20), (5, 23)] {
                if g.has_edge(s, t) {
                    continue;
                }
                let flow = local_vertex_connectivity(&g, s, t, None).unwrap();
                let cut = min_st_vertex_cut(&g, s, t).unwrap();
                assert_eq!(cut.len(), flow, "Menger: cut = flow (seed {seed}, {s}-{t})");
                if flow > 0 {
                    assert_eq!(
                        traversal::distance(&g, s, t, Some(&cut)),
                        crate::INFINITY,
                        "cut must separate"
                    );
                }
            }
        }
    }
}
