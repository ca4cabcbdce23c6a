use std::cell::RefCell;
use std::fmt;

use crate::{Node, NodeSet};

/// Reusable word buffers for the masked BFS kernels.
///
/// One sweep needs four `stride`-word bitsets (alive mask, visited set,
/// current frontier, next frontier) and `n` words for the hub's
/// in-distance levels. Allocating them per call dominates the cost of
/// small-graph BFS, so the hot entry points ([`BitMatrix::diameter_with`],
/// [`BitMatrix::diameter_within_with`], [`BitMatrix::eccentricity_with`])
/// take a `&mut BfsScratch` that is grown once and reused across calls;
/// the convenience wrappers route through a thread-local instance.
///
/// All five buffers are carved out of **one** allocation, so they sit
/// next to each other wherever the allocator puts it: four separate
/// `Vec`s of a few words each made small-graph BFS time depend on which
/// free-list slots they happened to land in.
#[derive(Debug, Default)]
pub struct BfsScratch {
    /// `alive | visited | frontier | next` (`stride` words each), then
    /// `levels` (`n` words).
    words: Vec<u64>,
}

/// The buffers of a [`BfsScratch`], carved for one matrix.
struct Buffers<'s> {
    alive: &'s mut [u64],
    visited: &'s mut [u64],
    frontier: &'s mut [u64],
    next: &'s mut [u64],
    /// What [`BitMatrix::pull_levels`] reached, as `level << 32 | node`
    /// in discovery order (so levels never decrease along it).
    levels: &'s mut [u64],
}

impl BfsScratch {
    /// An empty scratch; the buffer grows on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    fn carve(&mut self, stride: usize, n: usize) -> Buffers<'_> {
        self.words.resize(4 * stride + n, 0);
        let (alive, rest) = self.words.split_at_mut(stride);
        let (visited, rest) = rest.split_at_mut(stride);
        let (frontier, rest) = rest.split_at_mut(stride);
        let (next, levels) = rest.split_at_mut(stride);
        Buffers {
            alive,
            visited,
            frontier,
            next,
            levels,
        }
    }
}

thread_local! {
    static BFS_SCRATCH: RefCell<BfsScratch> = RefCell::new(BfsScratch::new());
}

/// ORs `row` into `acc`, four words per iteration.
///
/// This is the BFS frontier expansion's inner loop; the unrolled form is
/// branch-free over each 256-bit group and lets the compiler keep the
/// accumulator words in registers (or vectorize) instead of a dependent
/// one-word-at-a-time chain.
#[inline]
fn or_into(acc: &mut [u64], row: &[u64]) {
    debug_assert_eq!(acc.len(), row.len());
    let mut a4 = acc.chunks_exact_mut(4);
    let mut r4 = row.chunks_exact(4);
    for (a, r) in (&mut a4).zip(&mut r4) {
        a[0] |= r[0];
        a[1] |= r[1];
        a[2] |= r[2];
        a[3] |= r[3];
    }
    for (a, r) in a4.into_remainder().iter_mut().zip(r4.remainder()) {
        *a |= r;
    }
}

/// A dense directed adjacency matrix packed into `u64` words.
///
/// `BitMatrix` is the data-parallel counterpart of [`crate::DiGraph`]:
/// row `u` is a bitset of out-neighbors, so one BFS frontier expansion is
/// a row-OR over words instead of a pointer-chasing adjacency-list walk.
/// The compiled surviving-graph engine keeps the current surviving route
/// graph in this form and, after every fault toggle, either measures its
/// diameter ([`BitMatrix::diameter`]) or — far cheaper — decides it
/// against a bound ([`BitMatrix::diameter_within`]).
///
/// Both run one sweep built on the **hub bound**: for any alive node `m`
/// and any alive `x`, `y`, `dist(x, y) <= dist(x, m) + dist(m, y)`, so
/// `ecc(x) <= dist(x → m) + ecc_out(m)` and the diameter is at most
/// `ecc_in(m) + ecc_out(m)`. One BFS from `m` and one to `m` therefore
/// settle connectivity, accept `diameter <= b` outright whenever
/// `ecc_in(m) + ecc_out(m) <= b`, and otherwise name the few sources
/// still worth a BFS. The inequality holds for every alive `m`; a good
/// hub (a node most others route to directly) only makes the bound
/// tight. That is how the paper's constructions are proved — every
/// survivor keeps a route to a surviving member of a small core set —
/// so on their route graphs the bound is the theorem's.
///
/// # Example
///
/// ```
/// use ftr_graph::BitMatrix;
///
/// let mut m = BitMatrix::new(3);
/// m.set(0, 1);
/// m.set(1, 2);
/// m.set(2, 0);
/// assert_eq!(m.diameter(None), Some(2)); // directed triangle
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    /// Words per row.
    stride: usize,
    rows: Vec<u64>,
}

impl BitMatrix {
    /// Creates an empty (arcless) matrix on `n` nodes.
    pub fn new(n: usize) -> Self {
        let stride = n.div_ceil(64);
        BitMatrix {
            n,
            stride,
            rows: vec![0; n * stride],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Words per row (shared by compatible alive-masks).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Sets the arc `u → v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn set(&mut self, u: Node, v: Node) {
        let (row, word, bit) = self.locate(u, v);
        self.rows[row * self.stride + word] |= 1u64 << bit;
    }

    /// Clears the arc `u → v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn clear(&mut self, u: Node, v: Node) {
        let (row, word, bit) = self.locate(u, v);
        self.rows[row * self.stride + word] &= !(1u64 << bit);
    }

    /// Returns `true` if the arc `u → v` is present. Out-of-range
    /// arguments yield `false`.
    pub fn has(&self, u: Node, v: Node) -> bool {
        let (u, v) = (u as usize, v as usize);
        u < self.n && v < self.n && self.rows[u * self.stride + v / 64] & (1u64 << (v % 64)) != 0
    }

    /// The out-neighbor bitset of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn row(&self, u: Node) -> &[u64] {
        let u = u as usize;
        assert!(u < self.n, "node {u} out of range for {} nodes", self.n);
        &self.rows[u * self.stride..(u + 1) * self.stride]
    }

    /// Number of arcs (popcount over all rows).
    pub fn arc_count(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every arc, keeping the node count and the word buffer.
    pub fn clear_arcs(&mut self) {
        self.rows.fill(0);
    }

    /// Makes `self` an exact copy of `src`, reusing the existing word
    /// buffer when it is large enough — the scratch-matrix primitive
    /// behind the compiled engine's per-fault-set evaluation, which would
    /// otherwise allocate a fresh matrix per call.
    pub fn copy_from(&mut self, src: &BitMatrix) {
        self.n = src.n;
        self.stride = src.stride;
        self.rows.clone_from(&src.rows);
    }

    fn locate(&self, u: Node, v: Node) -> (usize, usize, u32) {
        let (u, v) = (u as usize, v as usize);
        assert!(
            u < self.n && v < self.n,
            "arc ({u}, {v}) out of range for {} nodes",
            self.n
        );
        (u, v / 64, (v % 64) as u32)
    }

    /// Writes the word-packed set of nodes *not* in `avoid` (the "alive"
    /// mask used by the masked traversals) into `out`.
    fn alive_mask_into(&self, avoid: Option<&NodeSet>, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.stride);
        match avoid {
            Some(avoid) => {
                // Missing high words of a smaller overlay count as
                // fault-free, matching the pre-batch semantics.
                let words = avoid.words();
                let common = words.len().min(self.stride);
                let mut o4 = out[..common].chunks_exact_mut(4);
                let mut f4 = words[..common].chunks_exact(4);
                for (o, f) in (&mut o4).zip(&mut f4) {
                    o[0] = !f[0];
                    o[1] = !f[1];
                    o[2] = !f[2];
                    o[3] = !f[3];
                }
                for (o, f) in o4.into_remainder().iter_mut().zip(f4.remainder()) {
                    *o = !f;
                }
                out[common..].fill(!0u64);
            }
            None => out.fill(!0u64),
        }
        // Mask off the bits beyond n in the last word.
        if self.stride > 0 {
            let tail = self.n % 64;
            if tail != 0 {
                out[self.stride - 1] &= (1u64 << tail) - 1;
            }
        }
    }

    /// BFS eccentricity of `src` restricted to nodes outside `avoid`:
    /// returns `(max distance, reached all alive nodes?)`.
    ///
    /// Each level is one frontier expansion: OR together the rows of the
    /// frontier's members, mask with the not-yet-visited alive nodes, and
    /// repeat — `O(n / 64)` words of work per frontier member per level.
    ///
    /// Allocation-free across calls via a thread-local [`BfsScratch`];
    /// pass an explicit scratch with [`BitMatrix::eccentricity_with`] to
    /// control buffer reuse yourself.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or `src` itself is avoided.
    pub fn masked_eccentricity(&self, src: Node, avoid: Option<&NodeSet>) -> (u32, bool) {
        BFS_SCRATCH.with(|s| self.eccentricity_with(src, avoid, &mut s.borrow_mut()))
    }

    /// [`BitMatrix::masked_eccentricity`] against caller-owned scratch
    /// buffers (no thread-local traffic, no allocation once grown).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or `src` itself is avoided.
    pub fn eccentricity_with(
        &self,
        src: Node,
        avoid: Option<&NodeSet>,
        scratch: &mut BfsScratch,
    ) -> (u32, bool) {
        let b = scratch.carve(self.stride, self.n);
        self.alive_mask_into(avoid, b.alive);
        let s = src as usize;
        assert!(s < self.n, "source {s} out of range");
        assert!(
            b.alive[s / 64] & (1u64 << (s % 64)) != 0,
            "source {s} is avoided"
        );
        self.eccentricity_in(s, b.alive, b.visited, b.frontier, b.next)
    }

    /// Push-BFS from the alive node `s`: `(eccentricity, reached every
    /// alive node?)`.
    fn eccentricity_in<'s>(
        &self,
        s: usize,
        alive: &[u64],
        visited: &mut [u64],
        mut frontier: &'s mut [u64],
        mut next: &'s mut [u64],
    ) -> (u32, bool) {
        visited.fill(0);
        frontier.fill(0);
        visited[s / 64] |= 1u64 << (s % 64);
        frontier[s / 64] |= 1u64 << (s % 64);
        let mut depth = 0;
        loop {
            next.fill(0);
            for (wi, &fw) in frontier.iter().enumerate() {
                let mut bits = fw;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let row =
                        &self.rows[(wi * 64 + b) * self.stride..(wi * 64 + b + 1) * self.stride];
                    or_into(next, row);
                }
            }
            // Advance: keep only unvisited alive nodes, fold them into
            // the visited set, and accumulate "any new" branch-free.
            let mut newly = 0u64;
            for i in 0..self.stride {
                let nw = next[i] & alive[i] & !visited[i];
                next[i] = nw;
                visited[i] |= nw;
                newly |= nw;
            }
            if newly == 0 {
                break;
            }
            depth += 1;
            std::mem::swap(&mut frontier, &mut next);
        }
        count_bfs(depth);
        (depth, covers(visited, alive))
    }

    /// Pull-BFS *to* the alive node `t`: level `k` is the set of alive
    /// nodes whose shortest path to `t` has `k` arcs. No transpose is
    /// kept — a level is every unreached alive node whose row meets the
    /// frontier — because a routing may be unidirectional, so distances
    /// *to* a node are not distances *from* it. Each node reached is
    /// appended to `levels` as `level << 32 | node` (`t` itself is not
    /// listed). Returns `(in-eccentricity, nodes listed, every alive
    /// node reaches t?)`.
    fn pull_levels<'s>(
        &self,
        t: usize,
        alive: &[u64],
        visited: &mut [u64],
        mut frontier: &'s mut [u64],
        mut next: &'s mut [u64],
        levels: &mut [u64],
    ) -> (u32, usize, bool) {
        visited.fill(0);
        frontier.fill(0);
        visited[t / 64] |= 1u64 << (t % 64);
        frontier[t / 64] |= 1u64 << (t % 64);
        let (mut depth, mut listed) = (0u32, 0usize);
        loop {
            next.fill(0);
            let before = listed;
            for wi in 0..self.stride {
                let mut bits = alive[wi] & !visited[wi];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let x = wi * 64 + b;
                    let row = &self.rows[x * self.stride..(x + 1) * self.stride];
                    if crate::words_intersect(row, frontier) {
                        next[wi] |= 1u64 << b;
                        levels[listed] = u64::from(depth + 1) << 32 | x as u64;
                        listed += 1;
                    }
                }
            }
            if listed == before {
                break;
            }
            depth += 1;
            for (v, n) in visited.iter_mut().zip(next.iter()) {
                *v |= n;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        count_bfs(depth);
        (depth, listed, covers(visited, alive))
    }

    /// The diameter over ordered pairs of nodes outside `avoid`, or
    /// `None` if some such node cannot reach another.
    ///
    /// Returns `Some(0)` when at most one node survives. This is the
    /// bit-parallel equivalent of [`crate::DiGraph::diameter`]. Scratch
    /// buffers come from a thread-local [`BfsScratch`], so repeated calls
    /// do not allocate; use [`BitMatrix::diameter_with`] to supply your
    /// own. To *check* a diameter against a bound, ask
    /// [`BitMatrix::diameter_within`] instead — it is the same sweep and
    /// usually stops after two BFS passes.
    pub fn diameter(&self, avoid: Option<&NodeSet>) -> Option<u32> {
        BFS_SCRATCH.with(|s| self.diameter_with(avoid, &mut s.borrow_mut()))
    }

    /// [`BitMatrix::diameter`] against caller-owned scratch buffers —
    /// the batched-evaluation entry point used by the compiled engine.
    pub fn diameter_with(&self, avoid: Option<&NodeSet>, scratch: &mut BfsScratch) -> Option<u32> {
        self.sweep(avoid, &[], None, scratch)
    }

    /// Decides `diameter(avoid) <= bound` (`false` when disconnected)
    /// without measuring the diameter: the inner loop of the
    /// `(d, f)`-tolerance auditor, which asks this of every fault set
    /// and needs the exact value only for the few that say no.
    ///
    /// `hubs` are candidate hub nodes, best first — the highest-degree
    /// nodes of the fault-free matrix ([`BitMatrix::hub_candidates`]),
    /// chosen once by the caller, not per call. The first one that is in
    /// range and outside `avoid` is used (any alive node if none is), so
    /// the list may be empty, stale or partly avoided: the answer never
    /// depends on it, only the cost does.
    pub fn diameter_within(&self, avoid: Option<&NodeSet>, bound: u32, hubs: &[Node]) -> bool {
        BFS_SCRATCH.with(|s| self.diameter_within_with(avoid, bound, hubs, &mut s.borrow_mut()))
    }

    /// [`BitMatrix::diameter_within`] against caller-owned scratch.
    pub fn diameter_within_with(
        &self,
        avoid: Option<&NodeSet>,
        bound: u32,
        hubs: &[Node],
        scratch: &mut BfsScratch,
    ) -> bool {
        matches!(self.sweep(avoid, hubs, Some(bound), scratch), Some(d) if d <= bound)
    }

    /// Up to `k` nodes of highest out-degree, highest first (ties to the
    /// smaller id): the hub candidates [`BitMatrix::diameter_within`]
    /// wants. In a route graph these are the construction's separator /
    /// concentrator / poles — the nodes every other node keeps a route
    /// to — without the caller having to know the construction.
    pub fn hub_candidates(&self, k: usize) -> Vec<Node> {
        let degree = |v: Node| self.row(v).iter().map(|w| w.count_ones()).sum::<u32>();
        let mut nodes: Vec<Node> = (0..self.n as Node).collect();
        nodes.sort_by_cached_key(|&v| (std::cmp::Reverse(degree(v)), v));
        nodes.truncate(k);
        nodes
    }

    /// The one per-source sweep behind the exact diameter (`bound`
    /// `None`) and the decision (`Some(b)`).
    ///
    /// Pick an alive hub `m`, push-BFS from it and pull-BFS to it. If
    /// either leaves an alive node out the graph is not strongly
    /// connected: `None`. Otherwise every source `x` has
    /// `ecc(x) <= dist(x → m) + ecc_out(m)` by the triangle inequality —
    /// for **any** alive `m`, which is why the hub is a cost choice and
    /// never a correctness one — so only sources whose bound exceeds the
    /// `floor` need a BFS of their own, farthest from the hub first (the
    /// bound only shrinks along `levels`, so the loop ends at the first
    /// source under the floor). The decision's floor is `b`, and it stops
    /// at the first eccentricity over `b`; when
    /// `ecc_in(m) + ecc_out(m) <= b` no source is swept at all. The exact
    /// diameter's floor is its running maximum, seeded with
    /// `max(ecc_in(m), ecc_out(m))` — both are distances that occur.
    ///
    /// Returns `Some(d)` with `d` the diameter (exact) or with
    /// `d <= b` iff the diameter is (decision: `d` is then the largest
    /// distance seen, so `d > b` proves the diameter exceeds `b`).
    fn sweep(
        &self,
        avoid: Option<&NodeSet>,
        hubs: &[Node],
        bound: Option<u32>,
        scratch: &mut BfsScratch,
    ) -> Option<u32> {
        let Buffers {
            alive,
            visited,
            frontier,
            next,
            levels,
        } = scratch.carve(self.stride, self.n);
        self.alive_mask_into(avoid, alive);
        let is_alive = |v: usize| v < self.n && alive[v / 64] & (1u64 << (v % 64)) != 0;
        let first_alive = || {
            let wi = alive.iter().position(|&w| w != 0)?;
            Some(wi * 64 + alive[wi].trailing_zeros() as usize)
        };
        let Some(hub) = hubs
            .iter()
            .map(|&h| h as usize)
            .find(|&h| is_alive(h))
            .or_else(first_alive)
        else {
            return Some(0); // nobody survives
        };
        let (ecc_out, complete) = self.eccentricity_in(hub, alive, visited, frontier, next);
        if !complete {
            return None;
        }
        let (ecc_in, listed, complete) =
            self.pull_levels(hub, alive, visited, frontier, next, levels);
        if !complete {
            return None;
        }
        let mut best = ecc_in.max(ecc_out);
        for &entry in levels[..listed].iter().rev() {
            let floor = bound.unwrap_or(best);
            if best > floor || (entry >> 32) as u32 + ecc_out <= floor {
                break;
            }
            let src = (entry & u64::from(u32::MAX)) as usize;
            let (ecc, _) = self.eccentricity_in(src, alive, visited, frontier, next);
            best = best.max(ecc);
        }
        Some(best)
    }
}

/// `visited ⊇ alive`, word-wise.
fn covers(visited: &[u64], alive: &[u64]) -> bool {
    visited.iter().zip(alive).all(|(v, a)| v & a == *a)
}

/// Records one BFS pass of `depth` levels in the `obs-counters` build
/// (a no-op otherwise) — every traversal kernel reports through here,
/// including the compiled engine's 64-lane passes outside this crate.
#[inline]
pub fn count_bfs(depth: u32) {
    #[cfg(feature = "obs-counters")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        crate::obs::BFS_CALLS.fetch_add(1, Relaxed);
        crate::obs::BFS_LEVELS.fetch_add(u64::from(depth), Relaxed);
    }
    #[cfg(not(feature = "obs-counters"))]
    let _ = depth;
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitMatrix")
            .field("nodes", &self.n)
            .field("arcs", &self.arc_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    fn triangle() -> BitMatrix {
        let mut m = BitMatrix::new(3);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 0);
        m
    }

    #[test]
    fn set_clear_has() {
        let mut m = BitMatrix::new(70);
        m.set(0, 65);
        assert!(m.has(0, 65));
        assert!(!m.has(65, 0));
        m.clear(0, 65);
        assert!(!m.has(0, 65));
        assert_eq!(m.arc_count(), 0);
        assert!(!m.has(200, 0), "out of range is absent");
    }

    #[test]
    fn row_exposes_neighbors() {
        let mut m = BitMatrix::new(70);
        m.set(1, 0);
        m.set(1, 69);
        assert_eq!(m.row(1)[0], 1);
        assert_eq!(m.row(1)[1], 1 << 5);
    }

    #[test]
    fn diameter_of_directed_cycle() {
        assert_eq!(triangle().diameter(None), Some(2));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let mut m = BitMatrix::new(2);
        m.set(0, 1);
        assert_eq!(m.diameter(None), None);
    }

    #[test]
    fn diameter_with_avoid_shrinks_node_set() {
        let mut m = BitMatrix::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)] {
            m.set(u, v);
        }
        assert_eq!(m.diameter(None), Some(3));
        let avoid = NodeSet::from_nodes(4, [3]);
        assert_eq!(m.diameter(Some(&avoid)), Some(2));
    }

    #[test]
    fn diameter_single_survivor_is_zero() {
        let avoid = NodeSet::from_nodes(3, [0, 1]);
        assert_eq!(triangle().diameter(Some(&avoid)), Some(0));
    }

    #[test]
    fn diameter_empty_matrix() {
        assert_eq!(BitMatrix::new(0).diameter(None), Some(0));
        let all = NodeSet::from_nodes(3, [0, 1, 2]);
        assert_eq!(triangle().diameter(Some(&all)), Some(0));
    }

    #[test]
    fn masked_eccentricity_reports_completeness() {
        let m = triangle();
        let (ecc, complete) = m.masked_eccentricity(0, None);
        assert_eq!((ecc, complete), (2, true));
        let mut broken = triangle();
        broken.clear(1, 2);
        let (_, complete) = broken.masked_eccentricity(1, None);
        assert!(!complete);
    }

    #[test]
    fn one_way_ring_with_a_chord_has_unequal_hub_eccentricities() {
        // 0 → 1 → … → 5 → 0 plus the chord 0 → 3: from the hub 0 every
        // node is within 3 hops, but node 1 needs 5 to get back to it.
        let mut m = BitMatrix::new(6);
        for u in 0..6 {
            m.set(u, (u + 1) % 6);
        }
        m.set(0, 3);
        assert_eq!(m.masked_eccentricity(0, None), (3, true));
        let mut scratch = BfsScratch::new();
        let b = scratch.carve(m.stride, m.n);
        m.alive_mask_into(None, b.alive);
        let (ecc_in, listed, complete) =
            m.pull_levels(0, b.alive, b.visited, b.frontier, b.next, b.levels);
        assert_eq!((ecc_in, listed, complete), (5, 5, true));
        let order: Vec<(u64, u64)> = b.levels[..listed]
            .iter()
            .map(|e| (e >> 32, e & 0xffff))
            .collect();
        assert_eq!(order, [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]);

        assert_eq!(m.diameter(None), Some(5));
        for hubs in [&[0][..], &[3], &[]] {
            assert!(!m.diameter_within(None, 4, hubs));
            assert!(m.diameter_within(None, 5, hubs));
        }
        // Without node 1 the ring is cut: 2 is unreachable from 0.
        let avoid = NodeSet::from_nodes(6, [1]);
        assert_eq!(m.diameter(Some(&avoid)), None);
        assert!(!m.diameter_within(Some(&avoid), 6, &[0]));
    }

    #[test]
    fn hub_candidates_rank_by_out_degree() {
        let mut m = BitMatrix::new(70);
        for v in [1, 2, 69] {
            m.set(68, v);
        }
        m.set(5, 6);
        m.set(5, 7);
        m.set(4, 0);
        assert_eq!(m.hub_candidates(4), [68, 5, 4, 0]);
        assert_eq!(m.hub_candidates(0), []);
        assert_eq!(BitMatrix::new(2).hub_candidates(8), [0, 1]);
    }

    #[test]
    fn agrees_with_digraph_diameter_on_random_graphs() {
        // Deterministic pseudo-random arc sets across word boundaries.
        for seed in 0..20u64 {
            let n = 66 + (seed as usize % 5);
            let mut m = BitMatrix::new(n);
            let mut d = DiGraph::new(n);
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for _ in 0..6 * n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((x >> 16) % n as u64) as Node;
                let v = ((x >> 40) % n as u64) as Node;
                if u != v {
                    m.set(u, v);
                    d.add_arc(u, v).expect("in range");
                }
            }
            let avoid = NodeSet::from_nodes(n, [(seed % n as u64) as Node]);
            assert_eq!(m.diameter(None), d.diameter(None), "seed {seed}");
            assert_eq!(
                m.diameter(Some(&avoid)),
                d.diameter(Some(&avoid)),
                "seed {seed} with avoid"
            );
        }
    }
}
