//! The branch-and-bound adversarial fault-set searcher.
//!
//! The paper's theorems are universally quantified — *every* fault set
//! `F` with `|F| <= f` leaves surviving diameter `D(R/F) <= d` — and the
//! exhaustive verifier checks that by enumerating all `C(n, <=f)` sets.
//! This module decides the same question while visiting far fewer sets:
//!
//! * **Adversarial seeding.** Candidates are ordered by the
//!   construction's core nodes (separator / concentrator / poles) first,
//!   then by *route-coverage impact* — the number of route slots through
//!   each node, read off [`CompiledRoutes`]' inverted node→routes index.
//!   Likely-worst sets are tried first, so violations surface early.
//! * **Monotone pruning.** Killing more nodes only kills more routes.
//!   At a partial set `S` with remaining candidate suffix `C` and
//!   remaining budget `r`, the searcher builds the *unkillable graph*
//!   `H`: the arcs of the live route graph under `S` that **no**
//!   extension `T ⊆ C` can sever (some live slot's interior is disjoint
//!   from `C` — endpoints never sit on their own interior masks). If
//!   every ordered pair of non-`S` nodes is connected in `H` within the
//!   bound **without relaying through any node of `C`** (a relay might
//!   be faulted by `T`; an endpoint that survives `T` may still
//!   originate or terminate), then *no* extension can push the diameter
//!   past the bound and the whole subtree is cut. The test is sound: for
//!   any `T ⊆ C` and any pair alive under `S ∪ T`, the witnessing `H`
//!   path uses only unkillable arcs and relays outside `S ∪ C ⊇ S ∪ T`,
//!   so it survives verbatim.
//! * **Data-parallel subtrees.** Top-level subtrees (one per first
//!   fault) are explored by `ftr_core::par` workers through owned
//!   [`EpochState`] cursors; merges are ordered by enumeration key, so
//!   [`SearchMode::Worst`] results (verdict, worst diameter, witness
//!   *and* visit counts) are identical for every thread count.
//! * **Bounded evaluation.** Visiting a set asks a yes/no question —
//!   is `D(R/F)` within the claim's `d` (certify) or within the
//!   subtree's incumbent (worst)? — so it is *decided*
//!   ([`EpochState::diameter_within`]: one BFS from and one to a hub
//!   node, then only the sources the hub bound leaves open) rather than
//!   measured with a BFS from every survivor. The exact diameter is
//!   still computed, by the same sweep, for the sets that answer no: a
//!   violation witness's recorded diameter, a new worst. Every set is
//!   still visited and the prune test never looks at an evaluation's
//!   result beyond that yes/no, so `visited`, `prune_tests`, `pruned_*`,
//!   verdicts, witnesses and certificates are what measuring every set
//!   would give (`tests/identity.rs` pins them).
//! * **Sibling lanes.** The sets `S ∪ {v}` a DFS node walks share the
//!   parent `S`, so before the walk one lane pass per node word
//!   ([`EpochState::extensions_within`]: one BFS from the hub and one to
//!   it, a bit per set) accepts every sibling the hub bound accepts.
//!   Sound because an accepted set's diameter is within the limit the
//!   mask was taken under, and the limit never falls along the walk
//!   (the claim's `d`, or a worst-mode incumbent that only grows), so
//!   the scalar decision would have said yes too; the rest — the hub's
//!   own set, the lanes the bound leaves open, and words with fewer than
//!   `MIN_LANES` siblings — are decided one by one as before. An
//!   accepted leaf is counted without an `insert`, a decision or a
//!   `remove`; an accepted interior set is still toggled, because its
//!   children need its kill counts, but is not decided. The walk keeps
//!   its order, so keys, `visited`, the cap, the stop flag and every
//!   report field are unchanged.
//!
//! Every searched set is accounted for: `visited + pruned_sets` must
//! equal the whole space `Σ_{k<=f} C(m, k)` for a holds verdict — the
//! invariant the certificate checker re-verifies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ftr_core::{par, CompiledRoutes, EpochState, RouteTable, ToleranceClaim};
use ftr_graph::{BitMatrix, Node, NodeSet};

/// What the searcher is asked to establish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Decide the claim: stop at the first violating fault set (the
    /// fastest way to a verdict). The verdict is deterministic; with
    /// more than one thread the particular witness and the visit counts
    /// may vary between runs.
    Certify,
    /// Find the exact worst surviving diameter and a witness achieving
    /// it (prunes only subtrees that provably cannot beat the incumbent
    /// found earlier in enumeration order). Deterministic in verdict,
    /// worst value, witness and counts for every thread count.
    Worst,
}

impl SearchMode {
    /// The certificate token (`certify` / `worst`).
    pub fn token(self) -> &'static str {
        match self {
            SearchMode::Certify => "certify",
            SearchMode::Worst => "worst",
        }
    }

    /// Parses a [`SearchMode::token`] back.
    pub fn from_token(token: &str) -> Option<SearchMode> {
        match token {
            "certify" => Some(SearchMode::Certify),
            "worst" => Some(SearchMode::Worst),
            _ => None,
        }
    }
}

/// Searcher tuning knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Certify (first witness) or exact worst. Default: certify.
    pub mode: SearchMode,
    /// Worker threads for the top-level subtree fan-out.
    pub threads: usize,
    /// Hard cap on diameter evaluations; exceeding it aborts the search
    /// with [`Verdict::Exhausted`] instead of running away on a space
    /// the pruning cannot tame.
    pub max_visits: Option<u64>,
    /// Only run the prune test on subtrees at least this large (the test
    /// costs about two diameter evaluations, so tiny subtrees are
    /// cheaper to enumerate).
    pub min_prune_subtree: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            mode: SearchMode::Certify,
            threads: par::default_threads(),
            max_visits: None,
            min_prune_subtree: 8,
        }
    }
}

/// The searcher's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every fault set within budget keeps the surviving diameter within
    /// the bound — certified by full accounting (visited + pruned =
    /// space).
    Holds,
    /// A counterexample: `witness` (the full fault set, base included)
    /// drives the surviving diameter to `diameter` (`None` =
    /// disconnection), which exceeds the claim.
    Violated {
        /// The violating fault set, ascending.
        witness: Vec<Node>,
        /// Its surviving diameter (`None` = disconnected).
        diameter: Option<u32>,
    },
    /// The visit cap was reached before a verdict.
    Exhausted,
}

/// Result of one audit search, with full searched-space accounting.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The `(d, f)` claim that was searched.
    pub claim: ToleranceClaim,
    /// The verdict.
    pub verdict: Verdict,
    /// Exact worst surviving diameter over the space — filled only in
    /// [`SearchMode::Worst`] (`Some(None)` means disconnection).
    pub worst: Option<Option<u32>>,
    /// A fault set achieving [`AuditReport::worst`] (empty unless worst
    /// mode ran).
    pub worst_witness: Vec<Node>,
    /// Diameter evaluations performed (the "fault sets visited" count
    /// compared against exhaustive enumeration).
    pub visited: u64,
    /// Prune tests attempted.
    pub prune_tests: u64,
    /// Subtrees cut by the monotone prune.
    pub pruned_subtrees: u64,
    /// Fault sets covered by pruning instead of evaluation.
    pub pruned_sets: u64,
    /// Total space `Σ_{k<=f} C(m, k)` over the `m` candidate nodes.
    pub space: u64,
    /// Candidate count `m` (nodes not already in the base fault set).
    pub candidates: usize,
    /// How many candidates were seeded from the construction's core
    /// nodes (ordered ahead of the impact ranking).
    pub core_seeds: usize,
    /// Wall-clock duration of the search in nanoseconds (measured
    /// inside [`audit`], covering seeding, prune precomputation and the
    /// parallel exploration).
    pub wall_nanos: u64,
}

impl AuditReport {
    /// Sets accounted for: evaluated plus provably-covered-by-pruning.
    /// Equals [`AuditReport::space`] whenever the verdict is
    /// [`Verdict::Holds`].
    pub fn covered(&self) -> u64 {
        self.visited.saturating_add(self.pruned_sets)
    }

    /// `true` iff the verdict is [`Verdict::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self.verdict, Verdict::Holds)
    }
}

/// `C(n, k)` with saturation at `u64::MAX`.
fn binom(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = match acc.checked_mul(n - i) {
            Some(x) => x / (i + 1),
            None => return u64::MAX,
        };
    }
    acc
}

/// `Σ_{j=1..=k} C(n, j)` with saturation — the size of the extension
/// subtree below a node with `n` remaining candidates and `k` remaining
/// budget.
fn sets_below(n: u64, k: u64) -> u64 {
    let mut total: u64 = 0;
    for j in 1..=k.min(n) {
        total = total.saturating_add(binom(n, j));
    }
    total
}

/// The whole space `Σ_{k=0..=f} C(m, k)` of fault sets an audit over `m`
/// candidates and budget `f` quantifies over (the exhaustive verifier's
/// `sets_checked`).
pub fn search_space(candidates: usize, faults: usize) -> u64 {
    1u64.saturating_add(sets_below(candidates as u64, faults as u64))
}

/// A measured fault set: its badness and the enumeration key that broke
/// ties when it was found.
#[derive(Debug, Clone)]
struct Found {
    /// `None` = disconnected (worse than any finite diameter).
    diameter: Option<u32>,
    key: u64,
    faults: Vec<Node>,
}

impl Found {
    /// Strictly-better-than ordering for merges: worse diameter wins;
    /// ties go to the smaller enumeration key.
    fn beats(&self, other: &Found) -> bool {
        match (self.diameter, other.diameter) {
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => self.key < other.key,
            (Some(a), Some(b)) => a > b || (a == b && self.key < other.key),
        }
    }

    fn violates(&self, claim: &ToleranceClaim) -> bool {
        match self.diameter {
            None => true,
            Some(d) => d > claim.diameter,
        }
    }
}

/// Shared read-only search context.
struct Ctx<'a> {
    engine: &'a CompiledRoutes,
    claim: ToleranceClaim,
    mode: SearchMode,
    min_prune_subtree: u64,
    /// Impact-ordered candidate nodes.
    order: Vec<Node>,
    /// Node count of the prune test's scratch graph: `n`, or 0 when no
    /// subtree of this search is large enough to be tested — the two
    /// tables below are then empty too.
    h_nodes: usize,
    /// Per slot: the smallest suffix index `j` at which the slot is
    /// unkillable (no interior node sits at position `>= j`); `u32::MAX`
    /// for slots through base faults (never live).
    unkillable_from: Vec<u32>,
    /// Suffix candidate masks, `(m + 1) * stride` words: row `j` holds
    /// the word mask of `order[j..]`.
    suffix: Vec<u64>,
    stride: usize,
    /// Word mask of all `n` nodes.
    full: Vec<u64>,
    /// Global eval counter (visit-cap enforcement).
    evals: AtomicU64,
    cap: u64,
    /// Cooperative abort: first witness found (certify) or cap hit.
    stop: AtomicBool,
}

impl Ctx<'_> {
    /// What a set must stay within to be of no interest: the claim's
    /// bound when certifying, the incumbent when maximizing (`None` once
    /// a disconnection is the incumbent — nothing is worse).
    fn limit(&self, incumbent: Option<u32>) -> Option<u32> {
        match self.mode {
            SearchMode::Certify => Some(self.claim.diameter),
            SearchMode::Worst => incumbent,
        }
    }
}

/// Per-worker mutable search state.
struct Local {
    state: EpochState,
    /// Scratch for the unkillable graph `H`.
    h: BitMatrix,
    /// The prune test's bitsets: endpoints, relays, visited, frontier,
    /// next.
    sets: [Vec<u64>; 5],
    /// Per remaining budget `b` (row `b`, `stride` words): the sibling
    /// sets of the group being walked at that depth that the lane
    /// decision accepted.
    lanes: Vec<u64>,
    tally: Tally,
}

/// What one worker (or the root's base evaluation) counted and found.
#[derive(Default)]
struct Tally {
    visited: u64,
    prune_tests: u64,
    pruned_subtrees: u64,
    pruned_sets: u64,
    best: Option<Found>,
    exhausted: bool,
}

impl Local {
    /// Records a measurement; in worst mode keeps the global maximum, in
    /// certify mode only a violation (and trips the stop flag).
    fn record(&mut self, ctx: &Ctx<'_>, diameter: Option<u32>, key: u64) {
        let found = || Found {
            diameter,
            key,
            faults: {
                let mut f: Vec<Node> = self.state.faults().iter().collect();
                f.sort_unstable();
                f
            },
        };
        let best = &mut self.tally.best;
        match ctx.mode {
            SearchMode::Worst => {
                let cand = found();
                if best.as_ref().is_none_or(|b| cand.beats(b)) {
                    *best = Some(cand);
                }
            }
            SearchMode::Certify => {
                if best.is_none() {
                    let cand = found();
                    if cand.violates(&ctx.claim) {
                        *best = Some(cand);
                        ctx.stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Counts one visited set against the cap.
    fn visit(&mut self, ctx: &Ctx<'_>) {
        self.tally.visited += 1;
        if ctx.evals.fetch_add(1, Ordering::Relaxed) + 1 > ctx.cap {
            self.tally.exhausted = true;
            ctx.stop.store(true, Ordering::Relaxed);
        }
    }

    /// One evaluation, with cap enforcement: decides whether the current
    /// set stays within `bound` and measures (and records) its diameter
    /// only if it does not — `None` always measures. Returns the diameter
    /// where it matters, i.e. raised to `bound` when below it.
    fn eval(&mut self, ctx: &Ctx<'_>, key: u64, bound: Option<u32>) -> Option<u32> {
        self.visit(ctx);
        if bound.is_some_and(|b| self.state.diameter_within(ctx.engine, b)) {
            return bound;
        }
        let d = self.state.diameter();
        self.record(ctx, d, key);
        d
    }
}

/// Audits the claim "every extension of `base` by at most `claim.faults`
/// of the remaining nodes keeps `D(R/F) <= claim.diameter`" against the
/// compiled engine, by seeded branch-and-bound (see the module docs).
///
/// `core_nodes` (the construction's separator / concentrator / poles,
/// from `BuiltRouting::core_nodes`; may be empty) are tried first;
/// remaining candidates follow in descending route-coverage impact.
/// `base` is a pre-existing fault set the claim quantifies *on top of*
/// (the online `TOLERATE` case) — pass an empty set to audit the pristine
/// routing.
///
/// # Panics
///
/// Panics if `base` is sized for a different node count, a core node is
/// out of range, or `config.threads == 0`.
pub fn audit(
    engine: &CompiledRoutes,
    claim: ToleranceClaim,
    core_nodes: &[Node],
    base: &NodeSet,
    config: &SearchConfig,
) -> AuditReport {
    assert!(config.threads > 0, "at least one search thread is required");
    let wall_start = std::time::Instant::now();
    let n = engine.node_count();
    assert_eq!(
        base.capacity(),
        n,
        "base fault set capacity must equal the routing's node count"
    );
    let stride = n.div_ceil(64);

    // ---- adversarial seeding: core nodes first, then impact ----------
    // The engine keeps every node in impact order; a stable partition
    // puts the core in front without re-sorting. A zero budget visits
    // the base alone and needs no order at all.
    let mut is_core = vec![false; n];
    for &v in core_nodes {
        assert!((v as usize) < n, "core node {v} out of range");
        is_core[v as usize] = true;
    }
    let core_seeds = (0..n as Node)
        .filter(|&v| is_core[v as usize] && !base.contains(v))
        .count();
    let m = n - base.len();
    let f = claim.faults.min(m);
    let space = search_space(m, f);
    let order: Vec<Node> = if f == 0 {
        Vec::new()
    } else {
        let (mut order, rest): (Vec<Node>, Vec<Node>) = engine
            .impact_order()
            .iter()
            .copied()
            .filter(|&v| !base.contains(v))
            .partition(|&v| is_core[v as usize]);
        order.extend(rest);
        order
    };

    // ---- prune-test precomputation -----------------------------------
    // Only subtrees of at least `min_prune_subtree` sets are tested, and
    // the first top-level subtree is the largest: when even that one is
    // too small (any `f <= 1` under the default) nothing below is read.
    let min_prune_subtree = config.min_prune_subtree.max(1);
    let prunes =
        f > 0 && sets_below(m as u64 - 1, f as u64 - 1).saturating_add(1) >= min_prune_subtree;
    let mut unkillable_from = vec![0u32; if prunes { engine.slot_count() } else { 0 }];
    let mut suffix = vec![0u64; if prunes { (m + 1) * stride } else { 0 }];
    if prunes {
        // The inverted index in candidate order: the last position
        // written to a slot is its highest; base faults (never live)
        // overwrite everything.
        for (i, &v) in order.iter().enumerate() {
            for &slot in engine.slots_through(v) {
                unkillable_from[slot as usize] = i as u32 + 1;
            }
        }
        for &slot in base.iter().flat_map(|v| engine.slots_through(v)) {
            unkillable_from[slot as usize] = u32::MAX;
        }
        for j in (0..m).rev() {
            let (head, tail) = suffix.split_at_mut((j + 1) * stride);
            head[j * stride..].copy_from_slice(&tail[..stride]);
            let v = order[j] as usize;
            head[j * stride + v / 64] |= 1u64 << (v % 64);
        }
    }
    let mut full = vec![!0u64; stride];
    if stride > 0 && !n.is_multiple_of(64) {
        full[stride - 1] = (1u64 << (n % 64)) - 1;
    }

    let ctx = Ctx {
        engine,
        claim,
        mode: config.mode,
        min_prune_subtree,
        order,
        h_nodes: if prunes { n } else { 0 },
        unkillable_from,
        suffix,
        stride,
        full,
        evals: AtomicU64::new(0),
        cap: config.max_visits.unwrap_or(u64::MAX),
        stop: AtomicBool::new(false),
    };

    // ---- the base set itself (enumeration key 0) ---------------------
    // Measured in worst mode, where it seeds every subtree's incumbent.
    let mut root = Local::new(&ctx, base);
    let base_diam = root.eval(&ctx, 0, ctx.limit(None));
    let root_tally = std::mem::take(&mut root.tally);
    let base_found = Found {
        diameter: base_diam,
        key: 0,
        faults: {
            let mut b: Vec<Node> = base.iter().collect();
            b.sort_unstable();
            b
        },
    };

    // ---- parallel top-level subtrees ---------------------------------
    // Nothing to explore when the base itself settles the question: a
    // certify violation, a worst-mode disconnection (maximal badness at
    // the smallest key), a spent cap, or a zero budget.
    let settled = f == 0
        || root_tally.exhausted
        || (ctx.mode == SearchMode::Certify && root_tally.best.is_some())
        || (ctx.mode == SearchMode::Worst && base_diam.is_none());
    let locals = if settled {
        Vec::new()
    } else {
        // The first-fault sets share the base as their parent, so one
        // lane pass per node word decides them all. The first worker to
        // start takes over the root's state (the base is inserted once
        // per search on one thread); its counters were set apart above.
        let mut top = vec![0u64; stride];
        sibling_accepts(&root.state, &ctx, 0, ctx.limit(base_diam), &mut top);
        let spare = std::sync::Mutex::new(Some(root));
        par::map_workers(m, config.threads, |next| {
            let reused = spare.lock().ok().and_then(|mut spare| spare.take());
            let mut local = reused.unwrap_or_else(|| Local::new(&ctx, base));
            while let Some(i) = next() {
                if ctx.stop.load(Ordering::Relaxed) {
                    break;
                }
                local.explore_subtree(&ctx, &top, i, f, base_diam);
            }
            local.tally
        })
    };

    // ---- merge --------------------------------------------------------
    let mut visited = root_tally.visited;
    let mut prune_tests = root_tally.prune_tests;
    let mut pruned_subtrees = root_tally.pruned_subtrees;
    let mut pruned_sets = root_tally.pruned_sets;
    let mut exhausted = root_tally.exhausted;
    let mut best = match ctx.mode {
        SearchMode::Worst => Some(base_found.clone()),
        SearchMode::Certify => root_tally.best,
    };
    for local in locals {
        visited = visited.saturating_add(local.visited);
        prune_tests += local.prune_tests;
        pruned_subtrees += local.pruned_subtrees;
        pruned_sets = pruned_sets.saturating_add(local.pruned_sets);
        exhausted |= local.exhausted;
        if let Some(cand) = local.best {
            let better = match (&best, ctx.mode) {
                (None, _) => true,
                (Some(b), SearchMode::Worst) => cand.beats(b),
                // Certify: keep the smallest-key violation seen.
                (Some(b), SearchMode::Certify) => cand.key < b.key,
            };
            if better {
                best = Some(cand);
            }
        }
    }

    let (verdict, worst, worst_witness) = if exhausted {
        // A found violation is sound whatever the coverage — the witness
        // stands on its own — so it takes precedence over Exhausted.
        // Exactness claims (`worst`) are dropped: the cap may have cut
        // the search before the true maximum.
        match best {
            Some(b) if b.violates(&claim) => (
                Verdict::Violated {
                    witness: b.faults,
                    diameter: b.diameter,
                },
                None,
                Vec::new(),
            ),
            _ => (Verdict::Exhausted, None, Vec::new()),
        }
    } else {
        match ctx.mode {
            SearchMode::Worst => {
                let b = best.expect("worst mode always measures the base set");
                let verdict = if b.violates(&claim) {
                    Verdict::Violated {
                        witness: b.faults.clone(),
                        diameter: b.diameter,
                    }
                } else {
                    Verdict::Holds
                };
                (verdict, Some(b.diameter), b.faults)
            }
            SearchMode::Certify => match best {
                Some(b) => (
                    Verdict::Violated {
                        witness: b.faults,
                        diameter: b.diameter,
                    },
                    None,
                    Vec::new(),
                ),
                None => (Verdict::Holds, None, Vec::new()),
            },
        }
    };
    if matches!(verdict, Verdict::Holds) && ctx.mode == SearchMode::Certify {
        debug_assert_eq!(
            visited.saturating_add(pruned_sets),
            space,
            "a holds verdict must account for the whole space"
        );
    }

    AuditReport {
        claim,
        verdict,
        worst,
        worst_witness,
        visited,
        prune_tests,
        pruned_subtrees,
        pruned_sets,
        space,
        candidates: m,
        core_seeds,
        wall_nanos: wall_start.elapsed().as_nanos() as u64,
    }
}

impl Local {
    fn new(ctx: &Ctx<'_>, base: &NodeSet) -> Self {
        let mut state = ctx.engine.epoch_state();
        for v in base.iter() {
            state.insert(ctx.engine, v);
        }
        Local {
            state,
            h: BitMatrix::new(ctx.h_nodes),
            sets: std::array::from_fn(|_| vec![0; ctx.h_nodes.div_ceil(64)]),
            lanes: vec![0; ctx.claim.faults.min(ctx.order.len()) * ctx.stride],
            tally: Tally::default(),
        }
    }

    /// Explores the top-level subtree whose first fault is `order[i]`
    /// (extensions drawn from `order[i + 1..]`). Each subtree carries
    /// its own worst-mode incumbent seeded from the base diameter, so
    /// exploration is identical however subtrees land on workers.
    /// `top` holds the first-fault sets the lane decision accepted.
    fn explore_subtree(
        &mut self,
        ctx: &Ctx<'_>,
        top: &[u64],
        i: usize,
        f: usize,
        base_diam: Option<u32>,
    ) {
        let m = ctx.order.len();
        // Whole-subtree prune: if no fault set drawn from `order[i..]`
        // can beat the limit, every set whose *first* (highest-impact)
        // member is `order[i]` is covered without a single evaluation —
        // with impact ordering this wipes out the low-impact tail.
        // (`sets_below` saturates, so everything downstream of it must
        // too — a wrapped count would silently disable the prune.)
        let subtree = sets_below((m - i - 1) as u64, f as u64 - 1).saturating_add(1);
        let limit = ctx.limit(base_diam);
        if subtree >= ctx.min_prune_subtree {
            if let Some(limit) = limit {
                self.tally.prune_tests += 1;
                if self.extensions_stay_within(ctx, i, limit) {
                    self.tally.pruned_subtrees += 1;
                    self.tally.pruned_sets = self.tally.pruned_sets.saturating_add(subtree);
                    return;
                }
            }
        }
        let first = ctx.order[i];
        let mut key = (i as u64 + 1) << 40;
        let accepted = has(top, first);
        if accepted && f == 1 {
            self.visit(ctx);
            return;
        }
        self.state.insert(ctx.engine, first);
        let d = if accepted {
            self.visit(ctx);
            limit
        } else {
            self.eval(ctx, key, limit)
        };
        let mut incumbent = match (base_diam, d) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        let disconnected = d.is_none();
        if f >= 2
            && !disconnected
            && !(ctx.mode == SearchMode::Certify && self.tally.best.is_some())
        {
            self.descend(ctx, i + 1, f - 1, &mut key, &mut incumbent);
        }
        self.state.remove(ctx.engine, first);
    }

    /// Depth-first extension with budget `budget` over `order[from..]`,
    /// entered only below an evaluated set. The monotone prune test runs
    /// at *entry*: if no extension of the current set drawn from
    /// `order[from..]` can beat the limit, the whole level (and
    /// everything below it) is covered at the cost of roughly one
    /// evaluation. `key` tracks the sequential enumeration position
    /// (pruned subtrees advance it by their size, so keys are identical
    /// with and without pruning). Returns `true` if a disconnection was
    /// found (nothing can be worse: the caller's subtree stops).
    fn descend(
        &mut self,
        ctx: &Ctx<'_>,
        from: usize,
        budget: usize,
        key: &mut u64,
        incumbent: &mut Option<u32>,
    ) -> bool {
        let m = ctx.order.len();
        let subtree = sets_below((m - from) as u64, budget as u64);
        if subtree == 0 {
            return false;
        }
        if subtree >= ctx.min_prune_subtree {
            if let Some(limit) = ctx.limit(*incumbent) {
                self.tally.prune_tests += 1;
                if self.extensions_stay_within(ctx, from, limit) {
                    self.tally.pruned_subtrees += 1;
                    self.tally.pruned_sets = self.tally.pruned_sets.saturating_add(subtree);
                    *key = key.saturating_add(subtree);
                    return false;
                }
            }
        }
        // The limit only grows along the walk below, so a sibling the
        // lanes accept now is within whatever limit it is visited under.
        let row = budget * ctx.stride..(budget + 1) * ctx.stride;
        sibling_accepts(
            &self.state,
            ctx,
            from,
            ctx.limit(*incumbent),
            &mut self.lanes[row.clone()],
        );
        for i in from..m {
            if ctx.stop.load(Ordering::Relaxed) {
                return false;
            }
            let v = ctx.order[i];
            *key += 1;
            let limit = ctx.limit(*incumbent);
            let accepted = has(&self.lanes[row.clone()], v);
            if accepted && budget == 1 {
                self.visit(ctx);
                continue;
            }
            self.state.insert(ctx.engine, v);
            let d = if accepted {
                self.visit(ctx);
                limit
            } else {
                self.eval(ctx, *key, limit)
            };
            let found = if ctx.mode == SearchMode::Certify && self.tally.best.is_some() {
                Some(false)
            } else if d.is_none() {
                // Disconnected: maximal badness, and DFS order means the
                // first one found carries the subtree's smallest key.
                Some(true)
            } else {
                if let (Some(cur), Some(inc)) = (d, incumbent.as_mut()) {
                    *inc = (*inc).max(cur);
                }
                (budget >= 2 && self.descend(ctx, i + 1, budget - 1, key, incumbent))
                    .then_some(true)
            };
            self.state.remove(ctx.engine, v);
            if let Some(found) = found {
                return found;
            }
        }
        false
    }

    /// The monotone prune test: with the current fault set `S` and the
    /// candidate suffix `C = order[j..]`, can *every* extension `T ⊆ C`
    /// keep every surviving pair within `limit` hops?
    ///
    /// Sound because it only uses structure no extension can destroy:
    /// arcs with a live slot whose interior avoids `C` entirely, relayed
    /// through nodes outside `S ∪ C`. Endpoints may come from `C` (a
    /// candidate that stays healthy still queries), which is why the
    /// BFS lets every non-`S` node originate and terminate but only
    /// lets non-candidates relay.
    fn extensions_stay_within(&mut self, ctx: &Ctx<'_>, j: usize, limit: u32) -> bool {
        let engine = ctx.engine;
        let stride = ctx.stride;
        // H: arcs unkillable by any subset of the suffix.
        self.h.clear_arcs();
        for (p, &(s, d)) in engine.pairs().iter().enumerate() {
            let unkillable = engine
                .pair_slot_range(p)
                .any(|slot| self.state.slot_live(slot) && ctx.unkillable_from[slot] as usize <= j);
            if unkillable {
                self.h.set(s, d);
            }
        }
        // Endpoints: everything outside S. Relays: endpoints minus C.
        let s_words = self.state.faults().words();
        let suffix = &ctx.suffix[j * stride..(j + 1) * stride];
        let [endpoints, relays, visited, frontier, next] = &mut self.sets;
        for w in 0..stride {
            endpoints[w] = ctx.full[w] & !s_words[w];
            relays[w] = endpoints[w] & !suffix[w];
        }
        // Every endpoint must reach every other endpoint within `limit`
        // hops, relaying only through `relays`.
        for wi in 0..stride {
            let mut bits = endpoints[wi];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let src = wi * 64 + b;
                visited.fill(0);
                frontier.fill(0);
                visited[wi] |= 1u64 << b;
                frontier[wi] |= 1u64 << b;
                let mut covered = covers(visited, endpoints);
                let mut depth = 0;
                // The source expands unconditionally (it is an endpoint);
                // later levels expand only through allowed relays.
                let mut first = true;
                while !covered && depth < limit {
                    next.fill(0);
                    let mut any = false;
                    for fw in 0..stride {
                        // The source itself may be a candidate; its own
                        // arcs still originate from it (level one), but
                        // later levels expand only through safe relays.
                        let mut fbits = if first {
                            frontier[fw]
                        } else {
                            frontier[fw] & relays[fw]
                        };
                        while fbits != 0 {
                            let fb = fbits.trailing_zeros() as usize;
                            fbits &= fbits - 1;
                            let row = self.h.row((fw * 64 + fb) as Node);
                            for (nw, &rw) in next.iter_mut().zip(row) {
                                *nw |= rw;
                            }
                        }
                    }
                    for w in 0..stride {
                        next[w] &= endpoints[w] & !visited[w];
                        visited[w] |= next[w];
                        any |= next[w] != 0;
                    }
                    if !any {
                        break;
                    }
                    depth += 1;
                    first = false;
                    std::mem::swap(frontier, next);
                    covered = covers(visited, endpoints);
                }
                if !covered {
                    return false;
                }
                debug_assert!(visited[src / 64] & (1u64 << (src % 64)) != 0);
            }
        }
        true
    }
}

/// Whether node `v` is in the word bitset `set`.
fn has(set: &[u64], v: Node) -> bool {
    set[v as usize / 64] & (1u64 << (v % 64)) != 0
}

/// How many sibling sets one node word must hold before a lane pass
/// pays for itself; see [`sibling_accepts`].
///
/// A pass reads one mask word per live route and scans each live arc
/// once per BFS level each way; a scalar set toggles the routes through
/// its node twice and ORs or tests about `2n` matrix rows. Counted on
/// the registry's kernel tables under one fault at bound 8, a pass is
/// 1,462 / 11,045 / 14,168 / 57,176 lane words at n = 24 / 128 / 256 /
/// 1024 against 79 / 1,000 / 4,005 / 53,012 row and slot words per
/// scalar set; a lane word is a scattered read-modify-write and a row
/// word a streamed OR, so in time a pass costs what 3.4–5.4 scalar sets
/// do. Eight siblings clear that at every size; below it the words are
/// decided one set at a time.
const MIN_LANES: u32 = 8;

/// Fills `out` (a `stride`-word node bitset) with the sibling sets
/// `S ∪ {order[i]}`, `i >= from`, of the current set `S` that the lane
/// decision ([`EpochState::extensions_within`]) accepts under `limit`:
/// each is within the limit, so it needs no decision of its own (and,
/// as a leaf, no toggle). A word with fewer than [`MIN_LANES`] siblings
/// is left clear and its sets are decided one by one.
fn sibling_accepts(
    state: &EpochState,
    ctx: &Ctx<'_>,
    from: usize,
    limit: Option<u32>,
    out: &mut [u64],
) {
    out.fill(0);
    let Some(limit) = limit else {
        return;
    };
    for &v in &ctx.order[from..] {
        out[v as usize / 64] |= 1u64 << (v % 64);
    }
    for word in out.iter_mut() {
        if word.count_ones() < MIN_LANES {
            *word = 0;
        }
    }
    state.extensions_within(ctx.engine, limit, out);
}

/// `visited ⊇ targets`, word-wise.
fn covers(visited: &[u64], targets: &[u64]) -> bool {
    visited.iter().zip(targets).all(|(v, t)| v & t == *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_core::{verify_tolerance, Compile, FaultStrategy, KernelRouting, Routing, RoutingKind};
    use ftr_graph::{gen, Path};

    fn ring_routing(n: usize) -> Routing {
        let mut r = Routing::new(n, RoutingKind::Bidirectional);
        for u in 0..n as Node {
            r.insert(Path::edge(u, (u + 1) % n as Node).unwrap())
                .unwrap();
        }
        r
    }

    fn cfg(mode: SearchMode, threads: usize) -> SearchConfig {
        SearchConfig {
            mode,
            threads,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn binomials_and_space() {
        assert_eq!(binom(10, 2), 45);
        assert_eq!(binom(5, 0), 1);
        assert_eq!(binom(3, 5), 0);
        assert_eq!(search_space(10, 0), 1);
        assert_eq!(search_space(10, 1), 11);
        assert_eq!(search_space(10, 2), 56); // 1 + 10 + 45
        assert_eq!(search_space(3, 5), 8); // whole powerset
        assert_eq!(search_space(3, 9), 8);
        assert_eq!(search_space(u64::MAX as usize >> 1, 3), u64::MAX);
    }

    #[test]
    fn petersen_kernel_claim_holds_with_full_accounting() {
        let g = gen::petersen();
        let kernel = KernelRouting::build(&g).unwrap();
        let engine = kernel.routing().compile();
        let claim = kernel.guarantee_theorem_3().claim();
        for threads in [1, 4] {
            let report = audit(
                &engine,
                claim,
                kernel.separator(),
                &NodeSet::new(10),
                &cfg(SearchMode::Certify, threads),
            );
            assert_eq!(report.verdict, Verdict::Holds, "threads {threads}");
            assert_eq!(report.covered(), report.space, "threads {threads}");
            assert_eq!(report.space, 56);
            assert_eq!(report.core_seeds, 3);
        }
    }

    #[test]
    fn ring_disconnection_is_found_fast() {
        // C16 edge routes: fault-free route-graph diameter is 8 (the
        // claim holds at the base), but any single fault already blows
        // past it and fault pairs disconnect — a violation sits right
        // at the front of the enumeration.
        let engine = ring_routing(16).compile();
        let claim = ToleranceClaim {
            diameter: 8,
            faults: 2,
        };
        let report = audit(
            &engine,
            claim,
            &[],
            &NodeSet::new(16),
            &cfg(SearchMode::Certify, 1),
        );
        match &report.verdict {
            Verdict::Violated { witness, diameter } => {
                assert!(diameter.is_none() || diameter.unwrap() > 8);
                assert!(!witness.is_empty());
            }
            other => panic!("expected a violation, got {other:?}"),
        }
        assert!(
            report.visited < report.space / 5,
            "seeding should find the witness early: {} of {}",
            report.visited,
            report.space
        );
    }

    #[test]
    fn worst_mode_matches_exhaustive_verifier() {
        for (graph, f) in [(gen::petersen(), 2), (gen::torus(3, 4).unwrap(), 2)] {
            let kernel = KernelRouting::build(&graph).unwrap();
            let engine = kernel.routing().compile();
            let exhaustive = verify_tolerance(&engine, f, FaultStrategy::Exhaustive, 2);
            let claim = ToleranceClaim {
                diameter: 0, // forces worst mode to classify as violated
                faults: f,
            };
            let report = audit(
                &engine,
                claim,
                kernel.separator(),
                &NodeSet::new(graph.node_count()),
                &cfg(SearchMode::Worst, 2),
            );
            assert_eq!(report.worst, Some(exhaustive.worst_diameter));
            // The witness reproduces the worst diameter independently.
            let witness = NodeSet::from_nodes(graph.node_count(), report.worst_witness.clone());
            use ftr_core::RouteTable;
            assert_eq!(
                kernel.routing().surviving_diameter(&witness),
                exhaustive.worst_diameter
            );
        }
    }

    #[test]
    fn worst_mode_is_thread_count_invariant() {
        let g = gen::torus(3, 4).unwrap();
        let kernel = KernelRouting::build(&g).unwrap();
        let engine = kernel.routing().compile();
        let claim = kernel.guarantee_theorem_3().claim();
        let solo = audit(
            &engine,
            claim,
            kernel.separator(),
            &NodeSet::new(12),
            &cfg(SearchMode::Worst, 1),
        );
        for threads in [2, 4] {
            let multi = audit(
                &engine,
                claim,
                kernel.separator(),
                &NodeSet::new(12),
                &cfg(SearchMode::Worst, threads),
            );
            assert_eq!(solo.verdict, multi.verdict, "threads {threads}");
            assert_eq!(solo.worst, multi.worst);
            assert_eq!(solo.worst_witness, multi.worst_witness);
            assert_eq!(solo.visited, multi.visited);
            assert_eq!(solo.pruned_sets, multi.pruned_sets);
        }
    }

    #[test]
    fn base_faults_shift_the_quantifier() {
        // TOLERATE semantics: extensions of an existing fault set.
        let g = gen::petersen();
        let kernel = KernelRouting::build(&g).unwrap();
        let engine = kernel.routing().compile();
        let base = NodeSet::from_nodes(10, [1, 6]);
        let claim = ToleranceClaim {
            diameter: 8,
            faults: 1,
        };
        let report = audit(&engine, claim, &[], &base, &cfg(SearchMode::Worst, 1));
        assert_eq!(report.candidates, 8);
        assert_eq!(report.space, 9); // base + 8 single extensions
                                     // Brute force over the same space.
        use ftr_core::RouteTable;
        let mut brute: Option<Option<u32>> = None;
        for extra in [
            None,
            Some(0u32),
            Some(2),
            Some(3),
            Some(4),
            Some(5),
            Some(7),
            Some(8),
            Some(9),
        ] {
            let mut faults = base.clone();
            if let Some(v) = extra {
                faults.insert(v);
            }
            let d = engine.surviving_diameter(&faults);
            brute = Some(match brute {
                None => d,
                Some(None) => None,
                Some(Some(w)) => d.map(|x| w.max(x)),
            });
        }
        assert_eq!(report.worst, brute);
    }

    #[test]
    fn visit_cap_reports_exhausted() {
        // The Petersen kernel claim holds everywhere, so a certify run
        // must cover the whole space — a tiny cap stops it mid-search.
        let g = gen::petersen();
        let engine = KernelRouting::build(&g).unwrap().routing().compile();
        let claim = ToleranceClaim {
            diameter: 4,
            faults: 2,
        };
        let report = audit(
            &engine,
            claim,
            &[],
            &NodeSet::new(10),
            &SearchConfig {
                mode: SearchMode::Certify,
                threads: 1,
                max_visits: Some(3),
                min_prune_subtree: u64::MAX, // no pruning: force the cap
            },
        );
        assert_eq!(report.verdict, Verdict::Exhausted);
    }

    #[test]
    fn found_violation_beats_the_visit_cap() {
        // C16 ring with a bound the base already satisfies but single
        // faults break: the cap trips on (or right after) the very
        // evaluation that finds the witness — the sound Violated
        // verdict must win over Exhausted.
        let engine = ring_routing(16).compile();
        let claim = ToleranceClaim {
            diameter: 8,
            faults: 2,
        };
        let report = audit(
            &engine,
            claim,
            &[],
            &NodeSet::new(16),
            &SearchConfig {
                mode: SearchMode::Certify,
                threads: 1,
                max_visits: Some(2),
                min_prune_subtree: u64::MAX,
            },
        );
        match report.verdict {
            Verdict::Violated { ref witness, .. } => assert!(!witness.is_empty()),
            ref other => panic!("expected the found witness to survive the cap, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_checks_only_the_base() {
        let engine = ring_routing(8).compile();
        let claim = ToleranceClaim {
            diameter: 4,
            faults: 0,
        };
        let report = audit(
            &engine,
            claim,
            &[],
            &NodeSet::new(8),
            &cfg(SearchMode::Certify, 2),
        );
        assert_eq!(report.visited, 1);
        assert_eq!(report.verdict, Verdict::Holds); // C8 diameter 4
    }
}
