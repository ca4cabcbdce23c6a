use std::collections::HashMap;
use std::fmt;

use ftr_graph::{nodes_affected_by, validate_nodes_in, Graph, GraphError, Node, NodeSet, Path};

use crate::RoutingError;

/// Whether a routing fixes one path per ordered pair independently, or
/// the same path for both directions of every pair.
///
/// The paper proves different bounds for the two kinds: e.g. the bipolar
/// construction is (4, t)-tolerant unidirectionally but (5, t)-tolerant
/// bidirectionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// `ρ(x, y)` and `ρ(y, x)` are independent routes.
    Unidirectional,
    /// `ρ(x, y)` and `ρ(y, x)` always use the same path.
    Bidirectional,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct RouteRef {
    path: u32,
    forward: bool,
}

/// Mutable construction state: one [`Path`] allocation per stored route
/// and a hash map from ordered pairs to path references.
#[derive(Clone, Default)]
struct Builder {
    paths: Vec<Path>,
    table: HashMap<(Node, Node), RouteRef>,
}

/// The frozen table: a pair-indexed CSR layout over one flat node arena.
///
/// Rows are sources; within a row the destinations are ascending, so a
/// lookup is a binary search of one contiguous row and a full iteration
/// is a single linear scan in `(src, dst)` order. Each stored path lives
/// once in `arena`, written in the travel order of its first referencing
/// pair in that scan — a canonical layout that depends only on the route
/// *set*, never on insertion order or orientation.
#[derive(Clone)]
struct Frozen {
    /// CSR row offsets into the `col_*` arrays, one entry per source
    /// node plus a trailing total.
    row_off: Vec<u32>,
    /// Destination of each routed pair, ascending within a row.
    col_dst: Vec<Node>,
    /// Packed route reference per pair: `arena path id << 1 | forward`.
    col_ref: Vec<u32>,
    /// Offsets into `arena`, one entry per stored path plus a trailing
    /// total.
    path_off: Vec<u32>,
    /// Flat node arena holding every stored path back to back.
    arena: Vec<Node>,
}

impl Frozen {
    fn path_count(&self) -> usize {
        self.path_off.len() - 1
    }

    fn path_nodes(&self, p: usize) -> &[Node] {
        &self.arena[self.path_off[p] as usize..self.path_off[p + 1] as usize]
    }

    fn row(&self, s: Node) -> std::ops::Range<usize> {
        self.row_off[s as usize] as usize..self.row_off[s as usize + 1] as usize
    }

    /// O(log deg(s)) lookup: binary search of `s`'s row for `d`.
    fn lookup(&self, s: Node, d: Node) -> Option<RouteView<'_>> {
        if s as usize >= self.row_off.len() - 1 {
            return None;
        }
        let row = self.row(s);
        let pos = self.col_dst[row.clone()].binary_search(&d).ok()?;
        Some(self.entry_view(row.start + pos))
    }

    fn entry_view(&self, e: usize) -> RouteView<'_> {
        let r = self.col_ref[e];
        RouteView {
            nodes: self.path_nodes((r >> 1) as usize),
            forward: r & 1 == 1,
        }
    }
}

#[derive(Clone)]
enum Repr {
    Building(Builder),
    Frozen(Frozen),
}

/// A routing table: a partial function assigning at most one fixed simple
/// path to each ordered pair of nodes (the paper's "miserly routing
/// function").
///
/// # Two-phase lifecycle
///
/// A routing starts in *builder* state: [`Routing::insert`] stores each
/// path once (a bidirectional pair shares one entry for both directions,
/// which makes the "same path in both directions" invariant structural)
/// behind a hash map. Inserting a *different* path for an already-routed
/// pair is an error; re-inserting the identical path is idempotent (the
/// constructions re-derive direct-edge routes in several components).
///
/// [`Routing::freeze`] then compacts the finished table into a dense
/// pair-indexed CSR layout over one flat node arena: lookups become a
/// binary search of one contiguous row, [`Routing::routes`] becomes a
/// cache-linear scan in ascending `(src, dst)` order, and the per-route
/// *metadata* shrinks to a few flat `u32` entries (replacing a hash-map
/// entry plus one heap allocation per path — how much that moves the
/// total footprint depends on route length; see `BENCH_scale.json` for
/// measured bytes/route). All constructions freeze the tables they
/// return. Inserting a *new* route into a frozen table transparently
/// thaws it back to builder state; re-inserting existing routes stays
/// idempotent without thawing.
///
/// # Example
///
/// ```
/// use ftr_core::{Routing, RoutingKind};
/// use ftr_graph::Path;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut r = Routing::new(5, RoutingKind::Bidirectional);
/// r.insert(Path::new(vec![0, 2, 4])?)?;
/// r.freeze();
/// assert_eq!(r.route(0, 4).unwrap().nodes(), vec![0, 2, 4]);
/// assert_eq!(r.route(4, 0).unwrap().nodes(), vec![4, 2, 0]);
/// assert!(r.route(0, 3).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Routing {
    n: usize,
    kind: RoutingKind,
    repr: Repr,
}

impl Routing {
    /// Creates an empty routing for graphs on `n` nodes.
    pub fn new(n: usize, kind: RoutingKind) -> Self {
        Routing {
            n,
            kind,
            repr: Repr::Building(Builder::default()),
        }
    }

    /// The node count this routing was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Whether this routing is uni- or bidirectional.
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// Returns `true` once the table has been compacted by
    /// [`Routing::freeze`].
    pub fn is_frozen(&self) -> bool {
        matches!(self.repr, Repr::Frozen(_))
    }

    /// Number of routed ordered pairs.
    pub fn route_count(&self) -> usize {
        match &self.repr {
            Repr::Building(b) => b.table.len(),
            Repr::Frozen(f) => f.col_dst.len(),
        }
    }

    /// Number of distinct stored paths (bidirectional pairs share one).
    pub fn path_count(&self) -> usize {
        match &self.repr {
            Repr::Building(b) => b.paths.len(),
            Repr::Frozen(f) => f.path_count(),
        }
    }

    /// Inserts `path` as the route from its source to its target; for a
    /// [`RoutingKind::Bidirectional`] routing the reverse direction is
    /// registered on the same path.
    ///
    /// Re-inserting an identical route is a no-op (frozen tables stay
    /// frozen); inserting a genuinely new route into a frozen table
    /// thaws it back to builder state first.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::RouteConflict`] if a different route already
    ///   exists for the pair (in either direction, when bidirectional).
    /// * [`RoutingError::Graph`] for single-node paths (`src == dst`) or
    ///   nodes outside `0..n`.
    pub fn insert(&mut self, path: Path) -> Result<(), RoutingError> {
        let (src, dst) = (path.source(), path.target());
        if src == dst {
            return Err(RoutingError::Graph(GraphError::NonSimplePath { node: src }));
        }
        for &v in path.nodes() {
            if v as usize >= self.n {
                return Err(RoutingError::Graph(GraphError::NodeOutOfRange {
                    node: v,
                    n: self.n,
                }));
            }
        }
        // Check both directions before mutating anything.
        let directions: &[(Node, Node, bool)] = match self.kind {
            RoutingKind::Unidirectional => &[(src, dst, true)],
            RoutingKind::Bidirectional => &[(src, dst, true), (dst, src, false)],
        };
        let mut fresh = false;
        for &(a, b, forward) in directions {
            match self.route(a, b) {
                Some(existing) => {
                    if !same_nodes(existing.nodes, existing.forward == forward, path.nodes()) {
                        return Err(RoutingError::RouteConflict { src: a, dst: b });
                    }
                }
                None => fresh = true,
            }
        }
        if !fresh {
            return Ok(()); // fully idempotent re-insert
        }
        self.thaw();
        let Repr::Building(b) = &mut self.repr else {
            unreachable!("thaw leaves the table in builder state");
        };
        let idx = b.paths.len() as u32;
        b.paths.push(path);
        for &(a, b_, forward) in directions {
            b.table
                .entry((a, b_))
                .or_insert(RouteRef { path: idx, forward });
        }
        Ok(())
    }

    /// Compacts the table into the frozen CSR layout. Idempotent; a
    /// no-op on an already-frozen table.
    ///
    /// The frozen layout is canonical: stored paths are re-indexed (and
    /// re-oriented) by their first referencing pair in ascending
    /// `(src, dst)` order, so two routings holding the same route set
    /// freeze into bit-identical tables regardless of how they were
    /// built.
    pub fn freeze(&mut self) {
        let Repr::Building(builder) = &mut self.repr else {
            return;
        };
        let builder = std::mem::take(builder);
        let mut entries: Vec<((Node, Node), RouteRef)> = builder.table.into_iter().collect();
        entries.sort_unstable_by_key(|&(pair, _)| pair);

        let mut row_off = vec![0u32; self.n + 1];
        let mut col_dst = Vec::with_capacity(entries.len());
        let mut col_ref = Vec::with_capacity(entries.len());
        let mut new_id = vec![u32::MAX; builder.paths.len()];
        // Orientation each stored path was written to the arena in:
        // `true` keeps the builder's storage order.
        let mut arena_fwd = vec![true; builder.paths.len()];
        let mut path_off = vec![0u32];
        let total: usize = builder.paths.iter().map(|p| p.nodes().len()).sum();
        let mut arena = Vec::with_capacity(total);
        for &((s, d), rref) in &entries {
            let pi = rref.path as usize;
            if new_id[pi] == u32::MAX {
                new_id[pi] = (path_off.len() - 1) as u32;
                arena_fwd[pi] = rref.forward;
                let nodes = builder.paths[pi].nodes();
                if rref.forward {
                    arena.extend_from_slice(nodes);
                } else {
                    arena.extend(nodes.iter().rev().copied());
                }
                path_off.push(arena.len() as u32);
            }
            row_off[s as usize + 1] += 1;
            col_dst.push(d);
            let forward = rref.forward == arena_fwd[pi];
            col_ref.push(new_id[pi] << 1 | forward as u32);
        }
        for v in 0..self.n {
            row_off[v + 1] += row_off[v];
        }
        self.repr = Repr::Frozen(Frozen {
            row_off,
            col_dst,
            col_ref,
            path_off,
            arena,
        });
    }

    /// Rebuilds the builder state from a frozen table (inverse of
    /// [`Routing::freeze`]); a no-op when already building.
    fn thaw(&mut self) {
        let Repr::Frozen(f) = &self.repr else {
            return;
        };
        let mut paths = Vec::with_capacity(f.path_count());
        for p in 0..f.path_count() {
            paths.push(Path::new(f.path_nodes(p).to_vec()).expect("arena paths are simple"));
        }
        let mut table = HashMap::with_capacity(f.col_dst.len());
        for s in 0..self.n {
            for e in f.row(s as Node) {
                let r = f.col_ref[e];
                table.insert(
                    (s as Node, f.col_dst[e]),
                    RouteRef {
                        path: r >> 1,
                        forward: r & 1 == 1,
                    },
                );
            }
        }
        self.repr = Repr::Building(Builder { paths, table });
    }

    /// The frozen CSR arena, when the table is frozen: per-path offsets
    /// (one entry per stored path plus a trailing total) and the flat
    /// node arena they index. Snapshot writers serialize these two
    /// arrays in bulk instead of formatting one line per route.
    pub fn arena(&self) -> Option<(&[u32], &[Node])> {
        match &self.repr {
            Repr::Building(_) => None,
            Repr::Frozen(f) => Some((&f.path_off, &f.arena)),
        }
    }

    /// Approximate heap footprint of the route table in bytes.
    ///
    /// Frozen tables are measured exactly (five flat arrays); builder
    /// tables are estimated from the hash-map capacity and per-path
    /// allocations. The `e17_scale` bench reports the ratio.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        match &self.repr {
            Repr::Building(b) => {
                let paths: usize = b
                    .paths
                    .iter()
                    .map(|p| size_of::<Path>() + std::mem::size_of_val(p.nodes()))
                    .sum();
                // Hashbrown stores one (key, value) slot plus one control
                // byte per bucket of capacity.
                let bucket = size_of::<((Node, Node), RouteRef)>() + 1;
                paths + b.table.capacity() * bucket
            }
            Repr::Frozen(f) => {
                (f.row_off.len() + f.col_dst.len() + f.col_ref.len() + f.path_off.len())
                    * size_of::<u32>()
                    + f.arena.len() * size_of::<Node>()
            }
        }
    }

    /// The route from `src` to `dst`, if one is defined.
    ///
    /// On a frozen table this is a binary search of `src`'s CSR row
    /// (`O(log deg)`, effectively constant); on a builder it is a hash
    /// lookup.
    pub fn route(&self, src: Node, dst: Node) -> Option<RouteView<'_>> {
        match &self.repr {
            Repr::Building(b) => b.table.get(&(src, dst)).map(|&r| RouteView {
                nodes: b.paths[r.path as usize].nodes(),
                forward: r.forward,
            }),
            Repr::Frozen(f) => f.lookup(src, dst),
        }
    }

    /// Iterates over all routed pairs and their routes, in ascending
    /// `(src, dst)` order — deterministic in both states. On a frozen
    /// table this is a cache-linear CSR scan with no per-call
    /// allocation; a builder sorts its key set first.
    pub fn routes(&self) -> Routes<'_> {
        Routes {
            inner: match &self.repr {
                Repr::Building(b) => {
                    let mut keys: Vec<(Node, Node)> = b.table.keys().copied().collect();
                    keys.sort_unstable();
                    RoutesInner::Building {
                        builder: b,
                        keys: keys.into_iter(),
                    }
                }
                Repr::Frozen(f) => RoutesInner::Frozen { f, src: 0, at: 0 },
            },
        }
    }

    /// Checks the routing against `g`: every route must be a simple path
    /// of `g`, endpoints must match the table keys, and a bidirectional
    /// routing must pair every direction.
    ///
    /// The constructions call this after building; it mechanically
    /// verifies the paper's "at most one route between each pair" and
    /// bidirectionality claims on every graph tested. Routes are checked
    /// through the borrowing [`RouteView::validate_in`] — no per-route
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`RoutingError`].
    pub fn validate(&self, g: &Graph) -> Result<(), RoutingError> {
        if g.node_count() != self.n {
            return Err(RoutingError::property(format!(
                "routing built for {} nodes, graph has {}",
                self.n,
                g.node_count()
            )));
        }
        for (s, d, view) in self.routes() {
            view.validate_in(g)?;
            if view.source() != s || view.target() != d {
                return Err(RoutingError::property(format!(
                    "table entry ({s}, {d}) stores a route {} -> {}",
                    view.source(),
                    view.target()
                )));
            }
            if self.kind == RoutingKind::Bidirectional && self.route(d, s).is_none() {
                return Err(RoutingError::property(format!(
                    "bidirectional routing lacks the reverse of ({s}, {d})"
                )));
            }
        }
        Ok(())
    }

    /// Summary statistics of the route table.
    pub fn stats(&self) -> RoutingStats {
        let mut max_len = 0;
        let mut total_len = 0usize;
        let mut routes = 0usize;
        for (_, _, view) in self.routes() {
            max_len = max_len.max(view.len());
            total_len += view.len();
            routes += 1;
        }
        RoutingStats {
            routes,
            stored_paths: self.path_count(),
            max_route_len: max_len,
            mean_route_len: if routes == 0 {
                0.0
            } else {
                total_len as f64 / routes as f64
            },
        }
    }
}

/// `stored` and `path` describe the same node sequence, where
/// `same_orientation` says whether they are written in the same travel
/// direction.
fn same_nodes(stored: &[Node], same_orientation: bool, path: &[Node]) -> bool {
    if stored.len() != path.len() {
        return false;
    }
    if same_orientation {
        stored == path
    } else {
        stored.iter().rev().eq(path.iter())
    }
}

impl fmt::Debug for Routing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Routing")
            .field("n", &self.n)
            .field("kind", &self.kind)
            .field("routes", &self.route_count())
            .field("frozen", &self.is_frozen())
            .finish()
    }
}

/// Iterator over all routed pairs, returned by [`Routing::routes`].
pub struct Routes<'a> {
    inner: RoutesInner<'a>,
}

enum RoutesInner<'a> {
    Building {
        builder: &'a Builder,
        keys: std::vec::IntoIter<(Node, Node)>,
    },
    Frozen {
        f: &'a Frozen,
        src: Node,
        at: usize,
    },
}

impl<'a> Iterator for Routes<'a> {
    type Item = (Node, Node, RouteView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            RoutesInner::Building { builder, keys } => {
                let (s, d) = keys.next()?;
                let r = builder.table[&(s, d)];
                Some((
                    s,
                    d,
                    RouteView {
                        nodes: builder.paths[r.path as usize].nodes(),
                        forward: r.forward,
                    },
                ))
            }
            RoutesInner::Frozen { f, src, at } => {
                if *at >= f.col_dst.len() {
                    return None;
                }
                while f.row_off[*src as usize + 1] as usize <= *at {
                    *src += 1;
                }
                let e = *at;
                *at += 1;
                Some((*src, f.col_dst[e], f.entry_view(e)))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = match &self.inner {
            RoutesInner::Building { keys, .. } => keys.len(),
            RoutesInner::Frozen { f, at, .. } => f.col_dst.len() - at,
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Routes<'_> {}

/// A borrowed view of one route, oriented from its source to its target.
///
/// The view holds a slice of the stored node sequence (in a frozen table
/// that slice points straight into the flat arena) plus its travel
/// orientation; no method other than the explicitly-owning
/// [`RouteView::nodes`] / [`RouteView::to_path`] allocates.
#[derive(Clone, Copy)]
pub struct RouteView<'a> {
    nodes: &'a [Node],
    forward: bool,
}

impl<'a> RouteView<'a> {
    /// Crate-internal constructor used by [`crate::MultiRouting`].
    pub(crate) fn from_parts(nodes: &'a [Node], forward: bool) -> Self {
        RouteView { nodes, forward }
    }

    /// First node of the route in travel order.
    pub fn source(&self) -> Node {
        if self.forward {
            self.nodes[0]
        } else {
            *self.nodes.last().expect("routes are non-empty")
        }
    }

    /// Last node of the route in travel order.
    pub fn target(&self) -> Node {
        if self.forward {
            *self.nodes.last().expect("routes are non-empty")
        } else {
            self.nodes[0]
        }
    }

    /// Number of edges.
    #[allow(clippy::len_without_is_empty)] // routes are never empty
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Borrowing iterator over the nodes in travel order — the
    /// allocation-free counterpart of [`RouteView::nodes`], used by
    /// [`Routing::validate`] and the surviving-graph walk.
    pub fn iter(&self) -> RouteNodes<'a> {
        RouteNodes {
            nodes: self.nodes,
            forward: self.forward,
        }
    }

    /// The node sequence in travel order (allocates; prefer
    /// [`RouteView::iter`] when a borrow suffices).
    pub fn nodes(&self) -> Vec<Node> {
        self.iter().collect()
    }

    /// Returns `true` if any node of the route is in `faults` — the
    /// route is *affected* and drops out of the surviving graph.
    pub fn is_affected_by(&self, faults: &NodeSet) -> bool {
        nodes_affected_by(self.nodes, faults)
    }

    /// Returns `true` if `v` lies on the route.
    pub fn contains(&self, v: Node) -> bool {
        self.nodes.contains(&v)
    }

    /// The stored node slice (in storage orientation, which may be the
    /// reverse of travel order). Interior-set consumers — fault masks,
    /// containment — can use this directly; direction-sensitive ones
    /// should go through [`RouteView::iter`].
    pub fn stored_nodes(&self) -> &'a [Node] {
        self.nodes
    }

    /// Whether the stored slice is already in travel order.
    pub fn is_forward(&self) -> bool {
        self.forward
    }

    /// An owned copy of the route in travel order.
    pub fn to_path(&self) -> Path {
        Path::new(self.nodes()).expect("stored routes are simple paths")
    }

    /// Checks the route's nodes and edges against `g` (borrowing; see
    /// [`ftr_graph::validate_nodes_in`]).
    ///
    /// # Errors
    ///
    /// As [`Path::validate_in`].
    pub fn validate_in(&self, g: &Graph) -> Result<(), GraphError> {
        validate_nodes_in(self.nodes, g)
    }
}

impl fmt::Debug for RouteView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RouteView(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Borrowing node iterator of one route in travel order, returned by
/// [`RouteView::iter`].
#[derive(Clone)]
pub struct RouteNodes<'a> {
    nodes: &'a [Node],
    forward: bool,
}

impl Iterator for RouteNodes<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        let (&v, rest) = if self.forward {
            self.nodes.split_first()?
        } else {
            self.nodes.split_last()?
        };
        self.nodes = rest;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.nodes.len(), Some(self.nodes.len()))
    }
}

impl DoubleEndedIterator for RouteNodes<'_> {
    fn next_back(&mut self) -> Option<Node> {
        let (&v, rest) = if self.forward {
            self.nodes.split_last()?
        } else {
            self.nodes.split_first()?
        };
        self.nodes = rest;
        Some(v)
    }
}

impl ExactSizeIterator for RouteNodes<'_> {}

/// Summary statistics returned by [`Routing::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingStats {
    /// Routed ordered pairs.
    pub routes: usize,
    /// Distinct stored paths.
    pub stored_paths: usize,
    /// Longest route, in edges.
    pub max_route_len: usize,
    /// Mean route length over ordered pairs, in edges.
    pub mean_route_len: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(nodes: &[Node]) -> Path {
        Path::new(nodes.to_vec()).unwrap()
    }

    /// Runs a test body on both the builder and frozen form of the same
    /// routing.
    fn both_states(r: &Routing, check: impl Fn(&Routing)) {
        assert!(!r.is_frozen());
        check(r);
        let mut frozen = r.clone();
        frozen.freeze();
        assert!(frozen.is_frozen());
        check(&frozen);
    }

    #[test]
    fn unidirectional_insert_and_lookup() {
        let mut r = Routing::new(4, RoutingKind::Unidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        both_states(&r, |r| {
            let v = r.route(0, 3).unwrap();
            assert_eq!(v.nodes(), vec![0, 1, 3]);
            assert_eq!(v.len(), 2);
            assert!(r.route(3, 0).is_none(), "unidirectional: no reverse");
            assert_eq!(r.route_count(), 1);
        });
    }

    #[test]
    fn bidirectional_insert_registers_both_directions() {
        let mut r = Routing::new(4, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        both_states(&r, |r| {
            assert_eq!(r.route(0, 3).unwrap().nodes(), vec![0, 1, 3]);
            assert_eq!(r.route(3, 0).unwrap().nodes(), vec![3, 1, 0]);
            assert_eq!(r.route_count(), 2);
            assert_eq!(r.path_count(), 1, "one arena entry for both directions");
        });
    }

    #[test]
    fn conflicting_route_rejected() {
        let mut r = Routing::new(4, RoutingKind::Unidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        assert_eq!(
            r.insert(path(&[0, 2, 3])),
            Err(RoutingError::RouteConflict { src: 0, dst: 3 })
        );
        r.freeze();
        assert_eq!(
            r.insert(path(&[0, 2, 3])),
            Err(RoutingError::RouteConflict { src: 0, dst: 3 }),
            "conflicts are detected without thawing"
        );
        assert!(r.is_frozen());
    }

    #[test]
    fn identical_reinsert_is_idempotent() {
        let mut r = Routing::new(4, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        r.insert(path(&[0, 1, 3])).unwrap();
        r.insert(path(&[3, 1, 0])).unwrap(); // same path, other direction
        assert_eq!(r.route_count(), 2);
        assert_eq!(
            r.path_count(),
            1,
            "idempotent inserts do not grow the arena"
        );
        r.freeze();
        r.insert(path(&[0, 1, 3])).unwrap();
        r.insert(path(&[3, 1, 0])).unwrap();
        assert!(r.is_frozen(), "idempotent re-inserts do not thaw");
        assert_eq!(r.route_count(), 2);
    }

    #[test]
    fn inserting_new_route_thaws_and_refreezes_cleanly() {
        let mut r = Routing::new(5, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        r.freeze();
        r.insert(path(&[1, 2])).unwrap();
        assert!(!r.is_frozen(), "a new route thaws the table");
        assert_eq!(r.route_count(), 4);
        r.freeze();
        assert_eq!(r.route(0, 3).unwrap().nodes(), vec![0, 1, 3]);
        assert_eq!(r.route(2, 1).unwrap().nodes(), vec![2, 1]);
    }

    #[test]
    fn bidirectional_reverse_conflict_detected() {
        let mut r = Routing::new(5, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        // A different path for (3, 0) clashes with the registered reverse.
        assert_eq!(
            r.insert(path(&[3, 2, 0])),
            Err(RoutingError::RouteConflict { src: 3, dst: 0 })
        );
    }

    #[test]
    fn unidirectional_directions_are_independent() {
        let mut r = Routing::new(5, RoutingKind::Unidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        r.insert(path(&[3, 2, 0])).unwrap();
        both_states(&r, |r| {
            assert_eq!(r.route(0, 3).unwrap().nodes(), vec![0, 1, 3]);
            assert_eq!(r.route(3, 0).unwrap().nodes(), vec![3, 2, 0]);
        });
    }

    #[test]
    fn rejects_out_of_range_and_trivial_paths() {
        let mut r = Routing::new(3, RoutingKind::Unidirectional);
        assert!(matches!(
            r.insert(path(&[0, 5])),
            Err(RoutingError::Graph(GraphError::NodeOutOfRange { .. }))
        ));
        assert!(matches!(
            r.insert(Path::new(vec![1]).unwrap()),
            Err(RoutingError::Graph(GraphError::NonSimplePath { .. }))
        ));
    }

    #[test]
    fn route_view_fault_queries() {
        let mut r = Routing::new(4, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        both_states(&r, |r| {
            let v = r.route(3, 0).unwrap();
            assert!(v.is_affected_by(&NodeSet::from_nodes(4, [1])));
            assert!(v.is_affected_by(&NodeSet::from_nodes(4, [3])));
            assert!(!v.is_affected_by(&NodeSet::from_nodes(4, [2])));
            assert!(v.contains(1));
            assert_eq!(v.to_path().nodes(), &[3, 1, 0]);
        });
    }

    #[test]
    fn route_nodes_iterator_is_double_ended_and_exact() {
        let mut r = Routing::new(4, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        r.freeze();
        let v = r.route(3, 0).unwrap();
        let it = v.iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.clone().collect::<Vec<_>>(), vec![3, 1, 0]);
        assert_eq!(it.rev().collect::<Vec<_>>(), vec![0, 1, 3]);
        let mut it = v.iter();
        assert_eq!(it.next(), Some(3));
        assert_eq!(it.next_back(), Some(0));
        assert_eq!(it.next(), Some(1));
        assert_eq!(it.next(), None);
    }

    #[test]
    fn validate_against_graph() {
        let g = Graph::from_edges(4, [(0, 1), (1, 3)]).unwrap();
        let mut r = Routing::new(4, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        both_states(&r, |r| r.validate(&g).unwrap());

        let mut bad = Routing::new(4, RoutingKind::Bidirectional);
        bad.insert(path(&[0, 2, 3])).unwrap(); // 0-2 is not an edge
        both_states(&bad, |bad| {
            assert!(matches!(
                bad.validate(&g),
                Err(RoutingError::Graph(GraphError::MissingEdge { .. }))
            ));
        });

        let wrong_n = Routing::new(7, RoutingKind::Bidirectional);
        assert!(wrong_n.validate(&g).is_err());
    }

    #[test]
    fn stats_reflect_routes() {
        let mut r = Routing::new(6, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1])).unwrap();
        r.insert(path(&[0, 2, 3, 4])).unwrap();
        both_states(&r, |r| {
            let s = r.stats();
            assert_eq!(s.routes, 4);
            assert_eq!(s.stored_paths, 2);
            assert_eq!(s.max_route_len, 3);
            assert!((s.mean_route_len - 2.0).abs() < 1e-12);
        });
    }

    #[test]
    fn routes_iterator_covers_table_in_sorted_order() {
        let mut r = Routing::new(4, RoutingKind::Bidirectional);
        r.insert(path(&[2, 3])).unwrap();
        r.insert(path(&[0, 1])).unwrap();
        both_states(&r, |r| {
            let pairs: Vec<(Node, Node)> = r.routes().map(|(s, d, _)| (s, d)).collect();
            assert_eq!(pairs, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
            assert_eq!(r.routes().len(), 4, "exact size");
        });
    }

    #[test]
    fn frozen_layout_is_canonical_across_build_orders() {
        // Same route set, different insertion orders and orientations:
        // the frozen tables must agree entry for entry.
        let routes: Vec<Vec<Node>> = vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 4, 2],
            vec![3, 4],
            vec![2, 3],
        ];
        let build = |order: &[usize], flip: bool| {
            let mut r = Routing::new(5, RoutingKind::Bidirectional);
            for &i in order {
                let mut nodes = routes[i].clone();
                if flip && i % 2 == 0 {
                    nodes.reverse();
                }
                r.insert(Path::new(nodes).unwrap()).unwrap();
            }
            r.freeze();
            r
        };
        let a = build(&[0, 1, 2, 3, 4], false);
        let b = build(&[4, 2, 0, 3, 1], true);
        let collect = |r: &Routing| -> Vec<(Node, Node, Vec<Node>)> {
            r.routes().map(|(s, d, v)| (s, d, v.nodes())).collect()
        };
        assert_eq!(collect(&a), collect(&b));
        assert_eq!(a.arena(), b.arena(), "bit-identical arena layout");
    }

    #[test]
    fn frozen_tables_shrink_the_footprint() {
        let mut r = Routing::new(64, RoutingKind::Bidirectional);
        for u in 0..63u32 {
            r.insert(path(&[u, u + 1])).unwrap();
        }
        let builder_bytes = r.memory_bytes();
        let mut f = r.clone();
        f.freeze();
        assert!(
            f.memory_bytes() < builder_bytes,
            "frozen {} >= builder {}",
            f.memory_bytes(),
            builder_bytes
        );
        assert_eq!(f.route_count(), r.route_count());
    }

    #[test]
    fn arena_exposed_only_when_frozen() {
        let mut r = Routing::new(4, RoutingKind::Bidirectional);
        r.insert(path(&[0, 1, 3])).unwrap();
        assert!(r.arena().is_none());
        r.freeze();
        let (off, arena) = r.arena().unwrap();
        assert_eq!(off, &[0, 3]);
        assert_eq!(arena, &[0, 1, 3]);
    }

    #[test]
    fn empty_routing_freezes() {
        let mut r = Routing::new(3, RoutingKind::Unidirectional);
        r.freeze();
        assert_eq!(r.route_count(), 0);
        assert!(r.route(0, 1).is_none());
        assert_eq!(r.routes().count(), 0);
    }
}
