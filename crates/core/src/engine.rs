//! The bitset-compiled surviving-graph engine.
//!
//! The `(d, f)`-tolerance verifier evaluates the same routing under
//! thousands-to-millions of fault sets. The route-walk implementations
//! ([`Routing`], [`MultiRouting`]) re-walk every route and rebuild an
//! adjacency-list [`ftr_graph::DiGraph`] per fault set; this module
//! compiles a routing **once** into a mask form under which each
//! evaluation is word-level bit arithmetic:
//!
//! * every route slot stores its **interior fault mask** (a bitset of
//!   the nodes whose failure kills the route — endpoints are handled by
//!   the alive-mask of the BFS, since a faulty endpoint removes the node
//!   itself), so "does fault set `F` kill this route" reads one mask
//!   word per word of `F` that holds a fault;
//! * an **inverted index** `node → route slots through it` lets the
//!   incremental [`FaultCursor`] maintain per-slot kill counts under
//!   single-fault toggles, touching only the routes through the toggled
//!   node — the exhaustive verifier's depth-first enumeration and the
//!   adversarial hill climber both toggle one fault at a time;
//! * the current surviving route graph lives in a [`BitMatrix`], whose
//!   all-pairs diameter is measured by row-OR frontier expansion — or,
//!   when only `diameter <= d` is asked ([`EpochState::diameter_within`]),
//!   decided from two BFS passes around a hub node picked at compile
//!   time from the fault-free graph's highest-degree nodes;
//! * the one-fault extensions `F ∪ {v}` of a state are decided **64 at a
//!   time** ([`EpochState::extensions_within`], after Then et al.'s
//!   multi-source BFS, "The More the Merrier", VLDB 2014): lane `k` of a
//!   `u64` per node stands for `v = 64w + k`, an arc is live in the
//!   lanes whose node avoids the interior of one of its pair's live
//!   routes (masks are stored word-major, so that is one contiguous
//!   column read, one word per live slot), and one push BFS from the hub
//!   and one pull BFS to it run over the live arcs, indexed by source
//!   and by destination at compile time. A lane is accepted when it
//!   reaches and is reached by every survivor with
//!   `ecc_in + ecc_out <= d` — the hub and the triangle-inequality bound
//!   of [`BitMatrix::diameter_within`], so every accepted set is within
//!   `d` and every set that bound accepts from the hub alone is
//!   accepted. The hub's own set and the lanes left open go to the
//!   scalar decision. Deciding an accepted set takes no toggle: its
//!   answer comes from its parent's kill counts and the masks alone.
//!
//! The route-walk path remains the reference implementation; an
//! equivalence property test (`tests/engine_equivalence.rs`) checks the
//! two produce arc-for-arc identical surviving graphs.

use ftr_graph::{BfsScratch, BitMatrix, Node, NodeSet};

use crate::surviving::{FaultCursor, SurvivingGraph};
use crate::{MultiRouting, RouteTable, Routing};

/// Reusable per-thread state for [`CompiledRoutes`]'s batched
/// fault-set evaluation: a live route matrix kept synchronized with the
/// engine's fault-free base via clear/restore lists (never re-copied
/// per set), generation-stamped candidate-pair marks, and the BFS
/// scratch buffers.
struct BatchScratch {
    engine_id: Option<u64>,
    live: BitMatrix,
    pair_stamp: Vec<u64>,
    generation: u64,
    bfs: BfsScratch,
    dead: Vec<(Node, Node)>,
}

impl BatchScratch {
    fn new() -> Self {
        BatchScratch {
            engine_id: None,
            live: BitMatrix::new(0),
            pair_stamp: Vec::new(),
            generation: 0,
            bfs: BfsScratch::new(),
            dead: Vec::new(),
        }
    }

    /// Re-binds the scratch to `engine`, resetting the live matrix to
    /// the fault-free base when the engine changed (or when a panic
    /// unwound mid-evaluation and left arcs cleared).
    fn sync(&mut self, engine: &CompiledRoutes) {
        if self.engine_id != Some(engine.build_id) || !self.dead.is_empty() {
            self.engine_id = Some(engine.build_id);
            self.live.copy_from(&engine.base);
            self.pair_stamp.clear();
            self.pair_stamp.resize(engine.pair_count(), 0);
            self.generation = 0;
            self.dead.clear();
        }
    }
}

/// A routing compiled to per-route fault masks, an inverted node→routes
/// index and a bit-matrix route graph.
///
/// Build one with [`Compile::compile`] (or the `from_*` constructors)
/// and hand it to [`crate::verify_tolerance`] exactly like the original
/// table — `CompiledRoutes` implements [`RouteTable`], overriding the
/// evaluation paths with the mask-based fast versions.
///
/// # Example
///
/// ```
/// use ftr_core::{verify_tolerance, Compile, FaultStrategy, KernelRouting};
/// use ftr_graph::gen;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gen::petersen();
/// let kernel = KernelRouting::build(&g)?;
/// let engine = kernel.routing().compile();
/// let fast = verify_tolerance(&engine, 2, FaultStrategy::Exhaustive, 2);
/// let slow = verify_tolerance(kernel.routing(), 2, FaultStrategy::Exhaustive, 2);
/// assert_eq!(fast.worst_diameter, slow.worst_diameter);
/// assert_eq!(fast.sets_checked, slow.sets_checked);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledRoutes {
    /// Process-unique identity of this compilation (shared by clones,
    /// which have identical layout); lets [`EpochState`] verify it is
    /// being driven by the engine it was created from.
    build_id: u64,
    n: usize,
    /// Words per fault mask (`n.div_ceil(64)`).
    stride: usize,
    /// Routed ordered pairs, sorted for determinism.
    pairs: Vec<(Node, Node)>,
    /// Prefix offsets into the slot arrays, one entry per pair plus a
    /// trailing total: pair `p` owns slots `pair_slots[p]..pair_slots[p+1]`.
    pair_slots: Vec<u32>,
    /// Interior fault masks, word-major: word `w` of slot `slot`'s mask
    /// (nodes `64w..64w + 64`) is `masks[w * slot_count + slot]`, so the
    /// lane decision reads one contiguous column per node word.
    masks: Vec<u64>,
    /// Owning pair of each slot.
    slot_pair: Vec<u32>,
    /// Prefix offsets into `index`, one entry per node plus a trailing
    /// total.
    index_off: Vec<u32>,
    /// Inverted index: for each node, the slots whose interior contains
    /// it.
    index: Vec<u32>,
    /// The fault-free surviving route graph (an arc per routed pair).
    base: BitMatrix,
    /// Hub candidates for [`BitMatrix::diameter_within`]: the
    /// highest-degree nodes of `base`, chosen here once so no fault set
    /// pays a degree scan, and more of them than the fault sets a search
    /// visits have members, so one is always alive.
    hubs: Vec<Node>,
    /// Prefix offsets into `pairs` by source, one entry per node plus a
    /// trailing total: the out-arcs of `s` are pairs
    /// `src_off[s]..src_off[s + 1]` (`pairs` is sorted by source).
    src_off: Vec<u32>,
    /// The same pairs by destination: the in-arcs of `d` are pairs
    /// `by_dst[dst_off[d]..dst_off[d + 1]]`.
    dst_off: Vec<u32>,
    by_dst: Vec<u32>,
    /// Every node by descending [`CompiledRoutes::routes_through`], ties
    /// to the smaller id.
    impact: Vec<Node>,
}

/// How many hub candidates an engine keeps.
const HUB_CANDIDATES: usize = 16;

impl CompiledRoutes {
    /// Compiles a single-route-per-pair routing.
    ///
    /// Masks are built by streaming the borrowed route slices straight
    /// into the builder — for a frozen [`Routing`] that is one linear
    /// pass over the CSR arena with **zero per-route allocation** (an
    /// interior fault mask is orientation-independent, so the
    /// storage-order slice suffices). `routes()` iterates in ascending
    /// `(src, dst)` order in both the builder and frozen states, so the
    /// compilation is deterministic without a sort here.
    pub fn from_routing(routing: &Routing) -> Self {
        let mut b = MaskBuilder::new(
            routing.node_count(),
            routing.route_count(),
            routing.route_count(),
        );
        let mut prev: Option<(Node, Node)> = None;
        for (s, d, view) in routing.routes() {
            debug_assert!(prev < Some((s, d)), "routes() iterates in sorted order");
            prev = Some((s, d));
            b.begin_pair(s, d);
            b.push_slot(s, d, view.stored_nodes());
            b.end_pair();
        }
        b.finish()
    }

    /// Compiles a multirouting; an arc survives while *any* route of its
    /// bundle does, so a pair contributes one slot per parallel route.
    pub fn from_multirouting(multi: &MultiRouting) -> Self {
        let n = multi.node_count();
        let mut collected: Vec<(Node, Node, Vec<crate::RouteView<'_>>)> =
            multi.route_bundles().collect();
        collected.sort_unstable_by_key(|&(s, d, _)| (s, d));
        let slots = collected.iter().map(|(_, _, views)| views.len()).sum();
        let mut b = MaskBuilder::new(n, collected.len(), slots);
        for (s, d, views) in collected {
            b.begin_pair(s, d);
            for view in views {
                b.push_slot(s, d, view.stored_nodes());
            }
            b.end_pair();
        }
        b.finish()
    }

    fn finish_from(n: usize, parts: MaskBuilder) -> Self {
        let MaskBuilder {
            stride,
            pairs,
            pair_slots,
            masks,
            slot_pair,
            base,
            ..
        } = parts;
        let slots = slot_pair.len();
        assert_eq!(
            masks.len(),
            slots * stride,
            "every reserved slot was pushed"
        );
        // Inverted index by counting sort: node -> slots through it.
        let mut counts = vec![0u32; n + 1];
        for (_, v) in Self::interior_entries(&masks, slots) {
            counts[v as usize] += 1;
        }
        let mut index_off = vec![0u32; n + 1];
        for v in 0..n {
            index_off[v + 1] = index_off[v] + counts[v];
        }
        let mut impact: Vec<Node> = (0..n as Node).collect();
        impact.sort_unstable_by_key(|&v| (std::cmp::Reverse(counts[v as usize]), v));
        let mut src_off = vec![0u32; n + 1];
        let mut dst_off = vec![0u32; n + 1];
        for &(s, d) in &pairs {
            src_off[s as usize + 1] += 1;
            dst_off[d as usize + 1] += 1;
        }
        for v in 0..n {
            src_off[v + 1] += src_off[v];
            dst_off[v + 1] += dst_off[v];
        }
        let mut cursor = dst_off.clone();
        let mut by_dst = vec![0u32; pairs.len()];
        for (p, &(_, d)) in pairs.iter().enumerate() {
            by_dst[cursor[d as usize] as usize] = p as u32;
            cursor[d as usize] += 1;
        }
        // A node's slots are met in ascending order: they all sit in
        // the node's own column.
        let mut cursor = index_off.clone();
        let mut index = vec![0u32; index_off[n] as usize];
        for (slot, v) in Self::interior_entries(&masks, slots) {
            index[cursor[v as usize] as usize] = slot as u32;
            cursor[v as usize] += 1;
        }

        static BUILD_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        CompiledRoutes {
            build_id: BUILD_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            n,
            stride,
            pairs,
            pair_slots,
            masks,
            slot_pair,
            index_off,
            index,
            hubs: base.hub_candidates(HUB_CANDIDATES),
            base,
            src_off,
            dst_off,
            by_dst,
            impact,
        }
    }

    /// Every `(slot, interior node)` of word-major `masks`, column by
    /// column.
    fn interior_entries(masks: &[u64], slots: usize) -> impl Iterator<Item = (usize, Node)> + '_ {
        masks
            .chunks(slots.max(1))
            .enumerate()
            .flat_map(move |(wi, column)| {
                column.iter().enumerate().flat_map(move |(slot, &w)| {
                    std::iter::successors((w != 0).then_some(w), |&bits| {
                        let rest = bits & (bits - 1);
                        (rest != 0).then_some(rest)
                    })
                    .map(move |bits| (slot, (wi * 64) as Node + bits.trailing_zeros()))
                })
            })
    }

    /// Number of routed ordered pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Total route slots (pairs for a [`Routing`], parallel routes
    /// summed for a [`MultiRouting`]).
    pub fn slot_count(&self) -> usize {
        self.slot_pair.len()
    }

    /// The routed ordered pairs, ascending by `(src, dst)` — pair `p` of
    /// this slice owns the slots of [`CompiledRoutes::pair_slot_range`].
    pub fn pairs(&self) -> &[(Node, Node)] {
        &self.pairs
    }

    /// The slot range owned by pair `p` (see [`CompiledRoutes::pairs`]).
    pub fn pair_slot_range(&self, p: usize) -> std::ops::Range<usize> {
        self.slots_of(p)
    }

    /// How many route slots pass *through* `v` (interior only, endpoints
    /// excluded) — one inverted-index row length. This is the
    /// route-coverage impact score the adversarial searcher seeds with:
    /// failing a high-impact node kills the most routes at once.
    pub fn routes_through(&self, v: Node) -> usize {
        self.slots_through(v).len()
    }

    /// Every node by descending [`CompiledRoutes::routes_through`], ties
    /// to the smaller id — the audit searcher's candidate order, sorted
    /// once here rather than per search.
    pub fn impact_order(&self) -> &[Node] {
        &self.impact
    }

    /// The hub candidates [`EpochState::diameter_within`] and
    /// [`EpochState::extensions_within`] pick from, best first: the
    /// highest-out-degree nodes of the fault-free route graph.
    pub fn hubs(&self) -> &[Node] {
        &self.hubs
    }

    /// The route slots whose interior contains `v` — the inverted-index
    /// row [`EpochState::insert`] walks, and what the audit searcher
    /// builds its prune tables from.
    pub fn slots_through(&self, v: Node) -> &[u32] {
        let v = v as usize;
        assert!(v < self.n, "node {v} out of range for {} nodes", self.n);
        &self.index[self.index_off[v] as usize..self.index_off[v + 1] as usize]
    }

    /// The slots owned by pair `p`.
    fn slots_of(&self, p: usize) -> std::ops::Range<usize> {
        self.pair_slots[p] as usize..self.pair_slots[p + 1] as usize
    }

    /// Returns `true` if the slot's route avoids every faulty node —
    /// one mask word read per word of the fault set that holds a fault.
    fn slot_survives(&self, slot: usize, fault_words: &[u64]) -> bool {
        let slots = self.slot_count();
        fault_words
            .iter()
            .enumerate()
            .all(|(w, &f)| f == 0 || f & self.masks[w * slots + slot] == 0)
    }

    fn assert_capacity(&self, faults: &NodeSet) {
        assert_eq!(
            faults.capacity(),
            self.n,
            "fault set capacity must equal the routing's node count"
        );
    }

    /// One batched evaluation against a synchronized [`BatchScratch`]:
    /// walk the inverted index from each faulty node to the *candidate*
    /// pairs (only routes through a faulty node can die), clear the arcs
    /// of pairs whose every slot is killed, measure, then restore the
    /// cleared arcs. Cost is `O(routes through F)` plus the BFS — the
    /// base matrix is never re-copied.
    fn batch_eval_one(&self, faults: &NodeSet, scratch: &mut BatchScratch) -> Option<u32> {
        let words = faults.words();
        scratch.generation += 1;
        let generation = scratch.generation;
        debug_assert!(scratch.dead.is_empty());
        for v in faults.iter() {
            for &slot in self.slots_through(v) {
                let p = self.slot_pair[slot as usize] as usize;
                if scratch.pair_stamp[p] == generation {
                    continue;
                }
                scratch.pair_stamp[p] = generation;
                if !self.slots_of(p).any(|s| self.slot_survives(s, words)) {
                    let (s, d) = self.pairs[p];
                    scratch.live.clear(s, d);
                    scratch.dead.push((s, d));
                }
            }
        }
        let result = scratch.live.diameter_with(Some(faults), &mut scratch.bfs);
        for &(s, d) in &scratch.dead {
            scratch.live.set(s, d);
        }
        scratch.dead.clear();
        result
    }
}

/// Accumulates the per-pair slot arrays of a compilation; sources are
/// pushed in ascending `(src, dst)` order by the `from_*` constructors
/// and [`CompiledRoutes::finish_from`] derives the inverted index.
struct MaskBuilder {
    n: usize,
    stride: usize,
    pairs: Vec<(Node, Node)>,
    pair_slots: Vec<u32>,
    /// Word-major, sized for `slots` up front (see
    /// [`CompiledRoutes`]'s `masks`).
    masks: Vec<u64>,
    slots: usize,
    slot_pair: Vec<u32>,
    base: BitMatrix,
}

impl MaskBuilder {
    /// A builder for `slots` route slots in total, over about
    /// `pair_hint` pairs.
    fn new(n: usize, pair_hint: usize, slots: usize) -> Self {
        let stride = n.div_ceil(64);
        let mut pair_slots = Vec::with_capacity(pair_hint + 1);
        pair_slots.push(0u32);
        MaskBuilder {
            n,
            stride,
            pairs: Vec::with_capacity(pair_hint),
            pair_slots,
            masks: vec![0; slots * stride],
            slots,
            slot_pair: Vec::with_capacity(slots),
            base: BitMatrix::new(n),
        }
    }

    fn begin_pair(&mut self, s: Node, d: Node) {
        self.pairs.push((s, d));
        self.base.set(s, d);
    }

    /// Adds one route slot for the current pair, masking the interior
    /// nodes of `nodes` (endpoints are handled by the BFS alive-mask).
    fn push_slot(&mut self, s: Node, d: Node, nodes: &[Node]) {
        let slot = self.slot_pair.len();
        assert!(slot < self.slots, "more route slots than reserved");
        for &v in nodes {
            if v != s && v != d {
                self.masks[v as usize / 64 * self.slots + slot] |= 1u64 << (v % 64);
            }
        }
        self.slot_pair.push((self.pairs.len() - 1) as u32);
    }

    fn end_pair(&mut self) {
        self.pair_slots.push(self.slot_pair.len() as u32);
    }

    fn finish(self) -> CompiledRoutes {
        CompiledRoutes::finish_from(self.n, self)
    }
}

impl RouteTable for CompiledRoutes {
    fn node_count(&self) -> usize {
        self.n
    }

    fn surviving(&self, faults: &NodeSet) -> SurvivingGraph {
        self.assert_capacity(faults);
        let words = faults.words();
        SurvivingGraph::from_routes(
            self.n,
            faults,
            self.pairs.iter().enumerate().map(|(p, &(s, d))| {
                let survives = self.slots_of(p).any(|slot| self.slot_survives(slot, words));
                (s, d, survives)
            }),
        )
    }

    fn surviving_diameter(&self, faults: &NodeSet) -> Option<u32> {
        self.assert_capacity(faults);
        let words = faults.words();
        // One scratch matrix per thread, overwritten from `base` per
        // fault set — the random-sampling verifier calls this once per
        // trial, and cloning `base` outright allocated a fresh matrix
        // every time (2 MiB per call at n = 4096).
        thread_local! {
            static SCRATCH: std::cell::RefCell<BitMatrix> =
                std::cell::RefCell::new(BitMatrix::new(0));
        }
        SCRATCH.with(|cell| {
            let mut live = cell.borrow_mut();
            live.copy_from(&self.base);
            for (p, &(s, d)) in self.pairs.iter().enumerate() {
                if !self.slots_of(p).any(|slot| self.slot_survives(slot, words)) {
                    live.clear(s, d);
                }
            }
            live.diameter(Some(faults))
        })
    }

    fn surviving_diameter_batch(&self, fault_sets: &[NodeSet]) -> Vec<Option<u32>> {
        #[cfg(feature = "obs-counters")]
        {
            use std::sync::atomic::Ordering::Relaxed;
            crate::obs::BATCH_CALLS.fetch_add(1, Relaxed);
            crate::obs::BATCH_SETS.fetch_add(fault_sets.len() as u64, Relaxed);
        }
        thread_local! {
            static SCRATCH: std::cell::RefCell<BatchScratch> =
                std::cell::RefCell::new(BatchScratch::new());
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.sync(self);
            let mut out = Vec::with_capacity(fault_sets.len());
            for faults in fault_sets {
                self.assert_capacity(faults);
                out.push(self.batch_eval_one(faults, scratch));
            }
            out
        })
    }

    fn cursor(&self) -> Box<dyn FaultCursor + '_> {
        Box::new(CompiledCursor {
            engine: self,
            state: self.epoch_state(),
        })
    }
}

/// The engine's incremental cursor: a borrowed wrapper around
/// [`EpochState`] that enforces the [`FaultCursor`] toggle discipline.
struct CompiledCursor<'a> {
    engine: &'a CompiledRoutes,
    state: EpochState,
}

impl FaultCursor for CompiledCursor<'_> {
    fn insert(&mut self, v: Node) {
        assert!(
            self.state.insert(self.engine, v),
            "node {v} is already faulty"
        );
    }

    fn remove(&mut self, v: Node) {
        assert!(self.state.remove(self.engine, v), "node {v} is not faulty");
    }

    fn diameter(&mut self) -> Option<u32> {
        self.state.diameter()
    }

    fn faults(&self) -> &NodeSet {
        self.state.faults()
    }
}

/// An *owned* incremental fault state over a [`CompiledRoutes`] engine —
/// the epoch-advance primitive behind the `ftr-serve` snapshot store.
///
/// [`RouteTable::cursor`] borrows the engine for its whole lifetime,
/// which a long-lived server holding the engine in an
/// [`std::sync::Arc`] cannot express. `EpochState` carries the same
/// per-slot kill counts, per-pair live counts and live route
/// [`BitMatrix`], but owns them outright; every mutation takes the
/// engine by reference instead. Applying a fault batch is
/// `O(routes through the toggled nodes)` — no recompilation, no route
/// re-walks — after which [`EpochState::live`] and
/// [`EpochState::faults`] are cheap to clone into an immutable epoch
/// snapshot.
///
/// # Example
///
/// ```
/// use ftr_core::{Compile, KernelRouting};
/// use ftr_graph::gen;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gen::petersen();
/// let engine = KernelRouting::build(&g)?.routing().compile();
/// let mut state = engine.epoch_state();
/// assert!(state.insert(&engine, 3));
/// assert!(!state.insert(&engine, 3), "insert is idempotent");
/// let under_fault = state.diameter();
/// assert!(state.remove(&engine, 3));
/// assert_eq!(state.faults().len(), 0);
/// assert!(under_fault >= state.diameter());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EpochState {
    /// The `build_id` of the engine this state was created from.
    engine_id: u64,
    /// Per slot: how many current faults lie on the route's interior.
    kill: Vec<u32>,
    /// Per pair: how many of its slots have `kill == 0`.
    pair_live: Vec<u32>,
    /// The surviving route graph under the current fault set (arcs of
    /// pairs with at least one live slot; faulty endpoints are excluded
    /// by the diameter's alive-mask, not by clearing arcs).
    live: BitMatrix,
    faults: NodeSet,
}

impl CompiledRoutes {
    /// A fresh (fault-free) [`EpochState`] for this engine.
    pub fn epoch_state(&self) -> EpochState {
        EpochState {
            engine_id: self.build_id,
            kill: vec![0; self.slot_count()],
            pair_live: (0..self.pair_count())
                .map(|p| self.slots_of(p).len() as u32)
                .collect(),
            live: self.base.clone(),
            faults: NodeSet::new(self.n),
        }
    }
}

impl EpochState {
    fn check(&self, engine: &CompiledRoutes, v: Node) {
        assert_eq!(
            self.engine_id, engine.build_id,
            "epoch state used with a different engine"
        );
        assert!(
            (v as usize) < engine.n,
            "node {v} out of range for {} nodes",
            engine.n
        );
    }

    /// Marks `v` faulty; returns `false` (and changes nothing) if it
    /// already was. Touches only the routes through `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `engine` is not the engine this
    /// state was created from.
    pub fn insert(&mut self, engine: &CompiledRoutes, v: Node) -> bool {
        self.check(engine, v);
        if !self.faults.insert(v) {
            return false;
        }
        for &slot in engine.slots_through(v) {
            let slot = slot as usize;
            if self.kill[slot] == 0 {
                let p = engine.slot_pair[slot] as usize;
                self.pair_live[p] -= 1;
                if self.pair_live[p] == 0 {
                    let (s, d) = engine.pairs[p];
                    self.live.clear(s, d);
                }
            }
            self.kill[slot] += 1;
        }
        true
    }

    /// Marks `v` healthy again; returns `false` (and changes nothing) if
    /// it was not faulty.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `engine` is not the engine this
    /// state was created from.
    pub fn remove(&mut self, engine: &CompiledRoutes, v: Node) -> bool {
        self.check(engine, v);
        if !self.faults.remove(v) {
            return false;
        }
        for &slot in engine.slots_through(v) {
            let slot = slot as usize;
            self.kill[slot] -= 1;
            if self.kill[slot] == 0 {
                let p = engine.slot_pair[slot] as usize;
                self.pair_live[p] += 1;
                if self.pair_live[p] == 1 {
                    let (s, d) = engine.pairs[p];
                    self.live.set(s, d);
                }
            }
        }
        true
    }

    /// The current fault set.
    pub fn faults(&self) -> &NodeSet {
        &self.faults
    }

    /// Whether route slot `slot` survives the current fault set (no
    /// current fault lies on its interior) — the per-slot kill counter
    /// the toggles maintain, exposed for the audit searcher's pruning.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the engine's slot count.
    pub fn slot_live(&self, slot: usize) -> bool {
        self.kill[slot] == 0
    }

    /// The surviving route graph under the current faults: an arc per
    /// pair with at least one live route. Faulty *endpoints* stay in the
    /// matrix — exclude them with the fault set as an avoid-mask, as
    /// [`EpochState::diameter`] does.
    pub fn live(&self) -> &BitMatrix {
        &self.live
    }

    /// The surviving diameter under the current fault set (`None` means
    /// disconnection) — identical to
    /// [`RouteTable::surviving_diameter`] at the same fault set.
    pub fn diameter(&self) -> Option<u32> {
        self.live.diameter(Some(&self.faults))
    }

    /// Decides `self.diameter() <= bound` (`false` on disconnection)
    /// without measuring it — [`BitMatrix::diameter_within`] around the
    /// engine's hub candidates, typically two BFS passes where
    /// [`EpochState::diameter`] runs one per surviving node.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is not the engine this state was created from.
    pub fn diameter_within(&self, engine: &CompiledRoutes, bound: u32) -> bool {
        assert_eq!(
            self.engine_id, engine.build_id,
            "epoch state used with a different engine"
        );
        self.live
            .diameter_within(Some(&self.faults), bound, &engine.hubs)
    }

    /// Decides [`EpochState::diameter_within`] for up to 64 one-fault
    /// extensions `F ∪ {v}` of the current fault set `F` at once.
    ///
    /// On entry `lanes` is a node bitset (`n.div_ceil(64)` words) of
    /// candidates `v`; on return it holds the accepted ones: every `v`
    /// left set has `D(R/(F ∪ {v})) <= bound`. The answer is one-sided —
    /// a cleared candidate may still be within the bound, and is for the
    /// caller's scalar decision to settle. A candidate is accepted
    /// exactly when the sweep behind `diameter_within` on `F ∪ {v}`
    /// would accept it from the hub alone: it uses the same hub (the
    /// first hub candidate alive under `F`), which is therefore never
    /// accepted itself, and faulty or out-of-range candidates never are.
    ///
    /// Each word of `lanes` is one pass: lane `k` stands for node
    /// `64w + k`, an arc is live in the lanes whose node avoids the
    /// interior of one of its pair's live routes (one word per live slot,
    /// read from the stored interior masks), and one push BFS from the
    /// hub and one pull BFS to it run with a `u64` of lanes per node.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is not the engine this state was created from
    /// or `lanes` is not `n.div_ceil(64)` words long.
    pub fn extensions_within(&self, engine: &CompiledRoutes, bound: u32, lanes: &mut [u64]) {
        assert_eq!(
            self.engine_id, engine.build_id,
            "epoch state used with a different engine"
        );
        assert_eq!(lanes.len(), engine.stride, "lanes must cover every node");
        let faults = self.faults.words();
        let n = engine.n;
        let alive = |v: usize| v < n && faults[v / 64] & (1u64 << (v % 64)) == 0;
        let hub = engine
            .hubs
            .iter()
            .map(|&h| h as usize)
            .find(|&h| alive(h))
            .or_else(|| (0..n).find(|&v| alive(v)));
        let Some(hub) = hub else {
            lanes.fill(0); // nobody survives, so nobody is a candidate
            return;
        };
        thread_local! {
            static SCRATCH: std::cell::RefCell<LaneScratch> =
                std::cell::RefCell::new(LaneScratch::default());
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for (w, word) in lanes.iter_mut().enumerate() {
                let mut cands = *word & !faults[w];
                if w + 1 == engine.stride && !n.is_multiple_of(64) {
                    cands &= (1u64 << (n % 64)) - 1;
                }
                if hub / 64 == w {
                    cands &= !(1u64 << (hub % 64));
                }
                *word = if cands == 0 {
                    0
                } else {
                    self.lane_pass(engine, w, cands, hub, bound, scratch)
                };
            }
        });
    }

    /// One word of [`EpochState::extensions_within`]: the lanes of
    /// `cands` (nodes `64w + k`, none of them faulty or the hub) whose
    /// fault set the hub accepts, i.e. it reaches and is reached by
    /// every survivor with `ecc_out + ecc_in <= bound`.
    fn lane_pass(
        &self,
        engine: &CompiledRoutes,
        w: usize,
        cands: u64,
        hub: usize,
        bound: u32,
        scratch: &mut LaneScratch,
    ) -> u64 {
        let n = engine.n;
        let faults = self.faults.words();
        // A live pair's arc is live in every lane but those whose node
        // lies on all of its live routes: one word of the node word's
        // mask column per live route.
        let column = &engine.masks[w * engine.slot_count()..(w + 1) * engine.slot_count()];
        let arc = &mut scratch.arc;
        arc.clear();
        arc.extend(self.pair_live.iter().enumerate().map(|(p, &live)| {
            if live == 0 {
                return 0;
            }
            engine
                .slots_of(p)
                .filter(|&slot| self.kill[slot] == 0)
                .fold(0, |acc, slot| acc | !column[slot])
                & cands
        }));
        let alive = &mut scratch.alive;
        alive.clear();
        alive.extend((0..n).map(|x| {
            if faults[x / 64] & (1u64 << (x % 64)) != 0 {
                0
            } else if x / 64 == w {
                cands & !(1u64 << (x % 64))
            } else {
                cands
            }
        }));
        let arc = &scratch.arc;

        // From the hub along out-arcs, then to it along in-arcs; a lane
        // is out once ecc_out, then ecc_out + ecc_in, passes the bound.
        let (active, ecc_out) = scratch.bfs.run(n, hub, cands, &[bound; 64], alive, |s| {
            let range = engine.src_off[s] as usize..engine.src_off[s + 1] as usize;
            engine.pairs[range.clone()]
                .iter()
                .zip(&arc[range])
                .map(|(&(_, d), &lanes)| (d as usize, lanes))
        });
        if active == 0 {
            return 0;
        }
        let budget = ecc_out.map(|e| bound.saturating_sub(e));
        let (active, _) = scratch.bfs.run(n, hub, active, &budget, alive, |d| {
            engine.by_dst[engine.dst_off[d] as usize..engine.dst_off[d + 1] as usize]
                .iter()
                .map(|&p| (engine.pairs[p as usize].0 as usize, arc[p as usize]))
        });
        active
    }
}

/// Per-thread buffers of [`EpochState::extensions_within`]: a lane
/// word per pair (`arc`) and per node (`alive` and the BFS's).
#[derive(Default)]
struct LaneScratch {
    arc: Vec<u64>,
    alive: Vec<u64>,
    bfs: LaneBfs,
}

/// A breadth-first search with one `u64` of lanes per node (Then et
/// al.'s multi-source BFS, turned to one source and 64 graphs).
#[derive(Default)]
struct LaneBfs {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl LaneBfs {
    /// Runs from `root` in the `lanes` given, along `arcs(x)` — the
    /// `(neighbour, lanes the arc is live in)` of `x` — over the nodes
    /// alive in each lane. A lane is dropped as soon as it reaches a
    /// node at a depth over its `budget`, or if it leaves an alive node
    /// unreached. Returns the lanes left and each lane's eccentricity.
    fn run<I: Iterator<Item = (usize, u64)>>(
        &mut self,
        n: usize,
        root: usize,
        lanes: u64,
        budget: &[u32; 64],
        alive: &[u64],
        arcs: impl Fn(usize) -> I,
    ) -> (u64, [u32; 64]) {
        let LaneBfs {
            seen,
            frontier,
            next,
        } = self;
        for buf in [&mut *seen, &mut *frontier, &mut *next] {
            buf.clear();
            buf.resize(n, 0);
        }
        let mut active = lanes;
        let mut ecc = [0u32; 64];
        seen[root] = active;
        frontier[root] = active;
        let mut depth = 0u32;
        loop {
            next.fill(0);
            for (x, &f) in frontier.iter().enumerate() {
                let f = f & active;
                if f != 0 {
                    for (y, arc) in arcs(x) {
                        next[y] |= f & arc;
                    }
                }
            }
            let mut newly = 0u64;
            for ((nx, sx), &ax) in next.iter_mut().zip(seen.iter_mut()).zip(alive) {
                *nx &= ax & !*sx;
                *sx |= *nx;
                newly |= *nx;
            }
            if newly == 0 {
                break;
            }
            depth += 1;
            for_lanes(newly, |k| {
                if depth > budget[k] {
                    active &= !(1u64 << k);
                } else {
                    ecc[k] = depth;
                }
            });
            if active == 0 {
                break;
            }
            std::mem::swap(frontier, next);
        }
        ftr_graph::count_bfs(depth);
        for (&ax, &sx) in alive.iter().zip(seen.iter()) {
            active &= !(ax & !sx);
        }
        (active, ecc)
    }
}

/// Calls `f` with the index of every set bit of `bits`, lowest first.
fn for_lanes(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Route tables that can be compiled into the bitset engine.
///
/// The experiment harness and benches call [`Compile::compile`] once per
/// routing and run every verification on the compiled form.
pub trait Compile: RouteTable {
    /// Compiles this table into a [`CompiledRoutes`] engine.
    fn compile(&self) -> CompiledRoutes;
}

impl Compile for Routing {
    fn compile(&self) -> CompiledRoutes {
        CompiledRoutes::from_routing(self)
    }
}

impl Compile for MultiRouting {
    fn compile(&self) -> CompiledRoutes {
        CompiledRoutes::from_multirouting(self)
    }
}

impl Compile for CompiledRoutes {
    fn compile(&self) -> CompiledRoutes {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoutingKind, ToleranceClaim};
    use ftr_graph::{gen, Path, INFINITY};

    fn demo_routing() -> Routing {
        let mut r = Routing::new(4, RoutingKind::Bidirectional);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            r.insert(Path::new(vec![a, b]).unwrap()).unwrap();
        }
        r.insert(Path::new(vec![0, 1, 2]).unwrap()).unwrap();
        r
    }

    #[test]
    fn compiled_surviving_matches_legacy_on_demo() {
        let r = demo_routing();
        let engine = r.compile();
        assert_eq!(engine.node_count(), 4);
        assert_eq!(engine.pair_count(), 10);
        for faulty in 0..4u32 {
            let faults = NodeSet::from_nodes(4, [faulty]);
            let slow = r.surviving(&faults);
            let fast = engine.surviving(&faults);
            for x in 0..4 {
                for y in 0..4 {
                    assert_eq!(slow.has_edge(x, y), fast.has_edge(x, y), "({x}, {y})");
                }
            }
            assert_eq!(slow.diameter(), fast.diameter());
            assert_eq!(engine.surviving_diameter(&faults), slow.diameter());
        }
    }

    #[test]
    fn cursor_tracks_toggles() {
        let r = demo_routing();
        let engine = r.compile();
        let mut cursor = RouteTable::cursor(&engine);
        assert_eq!(cursor.diameter(), Some(2));
        cursor.insert(1);
        assert_eq!(cursor.diameter(), Some(2)); // 0 -> 3 -> 2 detour
        cursor.insert(3);
        assert_eq!(cursor.diameter(), None); // 0 cut from 2
        cursor.remove(1);
        cursor.remove(3);
        assert_eq!(cursor.diameter(), Some(2), "toggles fully undo");
    }

    #[test]
    fn cursor_agrees_with_scratch_evaluation() {
        let g = gen::petersen();
        let kernel = crate::KernelRouting::build(&g).unwrap();
        let engine = kernel.routing().compile();
        let mut cursor = RouteTable::cursor(&engine);
        for a in 0..10u32 {
            cursor.insert(a);
            for b in (a + 1)..10u32 {
                cursor.insert(b);
                let faults = NodeSet::from_nodes(10, [a, b]);
                assert_eq!(
                    cursor.diameter(),
                    kernel.routing().surviving_diameter(&faults),
                    "faults {{{a}, {b}}}"
                );
                cursor.remove(b);
            }
            cursor.remove(a);
        }
    }

    #[test]
    fn multirouting_bundles_need_every_route_dead() {
        let mut m = MultiRouting::new(4, RoutingKind::Bidirectional, 2);
        m.insert(Path::new(vec![0, 1, 2]).unwrap()).unwrap();
        m.insert(Path::new(vec![0, 3, 2]).unwrap()).unwrap();
        let engine = m.compile();
        assert_eq!(engine.pair_count(), 2);
        assert_eq!(engine.slot_count(), 4);
        let s = engine.surviving(&NodeSet::from_nodes(4, [1]));
        assert!(s.has_edge(0, 2), "detour through 3 survives");
        let s = engine.surviving(&NodeSet::from_nodes(4, [1, 3]));
        assert!(!s.has_edge(0, 2));
    }

    #[test]
    fn faulty_endpoint_removes_node_not_just_routes() {
        let engine = demo_routing().compile();
        let faults = NodeSet::from_nodes(4, [0]);
        let s = engine.surviving(&faults);
        assert_eq!(s.surviving_count(), 3);
        assert_eq!(s.distance(0, 2), INFINITY);
        assert_eq!(engine.surviving_diameter(&faults), Some(2));
    }

    #[test]
    fn verify_claim_through_engine() {
        let g = gen::petersen();
        let kernel = crate::KernelRouting::build(&g).unwrap();
        let engine = kernel.routing().compile();
        let report = crate::verify_tolerance(&engine, 2, crate::FaultStrategy::Exhaustive, 2);
        assert!(report.satisfies(&kernel.guarantee_theorem_3().claim()));
        let absurd = ToleranceClaim {
            diameter: 0,
            faults: 2,
        };
        assert!(!report.satisfies(&absurd));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn mismatched_fault_capacity_panics() {
        let engine = demo_routing().compile();
        let _ = engine.surviving(&NodeSet::new(9));
    }

    #[test]
    fn epoch_state_toggles_are_idempotent_and_undo() {
        let engine = demo_routing().compile();
        let mut state = engine.epoch_state();
        let fresh = state.clone();
        assert_eq!(state.diameter(), Some(2));
        assert!(state.insert(&engine, 1));
        assert!(!state.insert(&engine, 1), "double insert is a no-op");
        assert_eq!(state.faults().len(), 1);
        assert_eq!(state.diameter(), Some(2)); // 0 -> 3 -> 2 detour
        assert!(state.insert(&engine, 3));
        assert_eq!(state.diameter(), None);
        assert!(state.remove(&engine, 1));
        assert!(!state.remove(&engine, 1), "double remove is a no-op");
        assert!(state.remove(&engine, 3));
        assert_eq!(state.kill, fresh.kill, "toggles fully undo");
        assert_eq!(state.pair_live, fresh.pair_live);
        assert_eq!(state.live, fresh.live);
    }

    #[test]
    fn epoch_state_agrees_with_scratch_evaluation() {
        let g = gen::petersen();
        let kernel = crate::KernelRouting::build(&g).unwrap();
        let engine = kernel.routing().compile();
        let mut state = engine.epoch_state();
        for a in 0..10u32 {
            state.insert(&engine, a);
            for b in (a + 1)..10u32 {
                state.insert(&engine, b);
                let faults = NodeSet::from_nodes(10, [a, b]);
                assert_eq!(
                    state.diameter(),
                    kernel.routing().surviving_diameter(&faults),
                    "faults {{{a}, {b}}}"
                );
                // The live matrix matches the surviving graph arc set on
                // healthy endpoints.
                let s = engine.surviving(&faults);
                for x in 0..10 {
                    for y in 0..10 {
                        if x != y && !faults.contains(x) && !faults.contains(y) {
                            assert_eq!(state.live().has(x, y), s.has_edge(x, y), "({x}, {y})");
                        }
                    }
                }
                state.remove(&engine, b);
            }
            state.remove(&engine, a);
        }
    }

    #[test]
    #[should_panic(expected = "different engine")]
    fn epoch_state_rejects_foreign_engine() {
        let engine = demo_routing().compile();
        let other = gen::petersen();
        let other_engine = crate::KernelRouting::build(&other)
            .unwrap()
            .routing()
            .compile();
        let mut state = engine.epoch_state();
        state.insert(&other_engine, 0);
    }
}
