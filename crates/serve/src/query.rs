//! Query evaluation against one epoch.
//!
//! Everything here is a pure function of `(snapshot, epoch, request)`,
//! which is what makes the per-epoch cache sound: the same inputs always
//! produce the same reply, so a memoized answer is exactly as good as a
//! recomputed one for the epoch it was computed under.

use std::sync::Arc;

use ftr_audit::{SearchConfig, SearchMode, Verdict};
use ftr_core::ToleranceClaim;
use ftr_graph::{Node, NodeSet};

use crate::epoch::Epoch;
use crate::proto::{reply_str, write_nodes, OK_DETOUR, OK_DIRECT, OK_UNREACHABLE};
use crate::snapshot::RoutingSnapshot;

/// Reply to a `ROUTE x y` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteReply {
    /// The pair's own route survives; the full node path is attached.
    Direct(Vec<Node>),
    /// The primary route is dead but a chain of surviving routes
    /// connects the pair; the concatenated node path (through each relay
    /// endpoint) is attached.
    Detour(Vec<Node>),
    /// No chain of surviving routes connects the pair at this epoch.
    Unreachable,
}

/// A malformed or over-budget query (rendered as an `ERR` line; never
/// cached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A node id at or beyond the network size.
    NodeOutOfRange(Node),
    /// `ROUTE x x` is not a route.
    EqualEndpoints,
    /// A `TOLERATE` search could exceed the configured budget: the ERR
    /// names the estimated (worst-case) search size so the client knows
    /// how far over it asked, instead of receiving a silently truncated
    /// sweep.
    TolerateBudget {
        /// Fault sets the search would have to cover in the worst case
        /// (pruning can beat the estimate but cannot promise to).
        needed: u64,
        /// The configured cap.
        budget: u64,
    },
    /// An `AUDIT` search could exceed the configured budget.
    AuditBudget {
        /// Fault sets the audit would have to cover in the worst case.
        needed: u64,
        /// The configured cap.
        budget: u64,
    },
    /// A structurally-impossible state was reached (a routed pair with
    /// no stored path, an uncapped search reporting exhaustion). The
    /// request path renders it as an `ERR` reply instead of panicking
    /// the shard thread: one corrupted answer must not take down the
    /// other connections multiplexed on the same shard.
    Internal(&'static str),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NodeOutOfRange(v) => write!(f, "node {v} out of range"),
            QueryError::EqualEndpoints => write!(f, "route endpoints must differ"),
            QueryError::TolerateBudget { needed, budget } => {
                write!(
                    f,
                    "TOLERATE search-size estimate {needed} exceeds budget {budget}"
                )
            }
            QueryError::AuditBudget { needed, budget } => {
                write!(
                    f,
                    "AUDIT search-size estimate {needed} exceeds budget {budget}"
                )
            }
            QueryError::Internal(what) => write!(f, "internal: {what}"),
        }
    }
}

fn check_node(snapshot: &RoutingSnapshot, v: Node) -> Result<(), QueryError> {
    if (v as usize) < snapshot.node_count() {
        Ok(())
    } else {
        Err(QueryError::NodeOutOfRange(v))
    }
}

/// Validates the endpoints of a `ROUTE x y` query without evaluating
/// it. The server rejects invalid queries *before* touching the
/// per-epoch cache, so error replies are never cached and the cache key
/// space stays bounded by the valid pairs.
///
/// # Errors
///
/// Returns [`QueryError`] for out-of-range or equal endpoints.
pub fn validate_route_query(
    snapshot: &RoutingSnapshot,
    x: Node,
    y: Node,
) -> Result<(), QueryError> {
    check_node(snapshot, x)?;
    check_node(snapshot, y)?;
    if x == y {
        return Err(QueryError::EqualEndpoints);
    }
    Ok(())
}

/// Reusable buffers for the `ROUTE` miss path: one relay search and one
/// reply render per call, no allocation once the buffers have grown to
/// the network's size. The server keeps one per shard; every field is
/// overwritten before it is read, so a scratch may move between epochs
/// and snapshots freely.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// BFS tree: `pred[v]` is valid only where `seen` has `v`'s bit.
    pred: Vec<Node>,
    /// Visited bitset, one word per 64 nodes (the rows' layout).
    seen: Vec<u64>,
    /// BFS queue; popped by index, so it doubles as the visit order.
    queue: Vec<Node>,
    /// Relay endpoints `x, r1, …, y` of the chain last found.
    relays: Vec<Node>,
    /// The reply line last rendered.
    out: Vec<u8>,
}

/// How a valid pair is connected at an epoch; the chain itself is left
/// in [`RouteScratch::relays`].
enum Chain {
    Direct,
    Detour,
    Unreachable,
}

// Live arcs exist only for routed pairs, so route lookups along a chain
// cannot miss; if the invariant ever breaks, the pair degrades to a
// structured ERR instead of panicking the shard.
const NO_PATH: QueryError = QueryError::Internal("live arc has no stored route");

/// Finds the chain of surviving routes `ROUTE x y` travels at `epoch`
/// and leaves its relay endpoints in `scratch.relays` (`[x, y]` when the
/// pair's own route survives, nothing when the pair is unreachable).
fn find_chain(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    x: Node,
    y: Node,
    scratch: &mut RouteScratch,
) -> Result<Chain, QueryError> {
    validate_route_query(snapshot, x, y)?;
    scratch.relays.clear();
    if epoch.faults().contains(x) || epoch.faults().contains(y) {
        return Ok(Chain::Unreachable);
    }
    if epoch.arc_survives(x, y) {
        scratch.relays.extend([x, y]);
        return Ok(Chain::Direct);
    }
    Ok(if relay_chain(epoch, x, y, scratch) {
        Chain::Detour
    } else {
        Chain::Unreachable
    })
}

/// The stored node path of each hop of a relay chain, in travel order,
/// with the joint a hop shares with the one before it dropped — chained
/// together they are the reply's node list.
fn hop_paths<'a>(
    snapshot: &'a RoutingSnapshot,
    relays: &'a [Node],
) -> impl Iterator<Item = Result<impl Iterator<Item = Node> + 'a, QueryError>> + 'a {
    relays.windows(2).enumerate().map(|(i, hop)| {
        let view = snapshot.routing().route(hop[0], hop[1]).ok_or(NO_PATH)?;
        Ok(view.iter().skip(usize::from(i > 0)))
    })
}

/// Answers `ROUTE x y` at `epoch`: the surviving primary route, a
/// shortest detour over surviving routes, or unreachability. The
/// reference semantics of the verb; the served path
/// ([`route_batch_with`]) renders the same chain without materializing
/// it.
///
/// # Errors
///
/// Returns [`QueryError`] for out-of-range or equal endpoints.
pub fn route(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    x: Node,
    y: Node,
) -> Result<RouteReply, QueryError> {
    let mut scratch = RouteScratch::default();
    let chain = find_chain(snapshot, epoch, x, y, &mut scratch)?;
    let mut nodes: Vec<Node> = Vec::new();
    for path in hop_paths(snapshot, &scratch.relays) {
        nodes.extend(path?);
    }
    Ok(match chain {
        Chain::Direct => RouteReply::Direct(nodes),
        Chain::Detour => RouteReply::Detour(nodes),
        Chain::Unreachable => RouteReply::Unreachable,
    })
}

/// Renders the reply line of `ROUTE x y` at `epoch` into `scratch.out`,
/// byte for byte `proto::render_route(route(..))` (or its `ERR` line):
/// each hop's stored path streams straight into the reply bytes.
fn route_into(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    x: Node,
    y: Node,
    scratch: &mut RouteScratch,
) {
    let chain = find_chain(snapshot, epoch, x, y, scratch);
    let RouteScratch { relays, out, .. } = scratch;
    out.clear();
    let streamed = chain.and_then(|chain| {
        out.extend_from_slice(match chain {
            Chain::Direct => OK_DIRECT,
            Chain::Detour => OK_DETOUR,
            Chain::Unreachable => OK_UNREACHABLE,
        });
        for path in hop_paths(snapshot, relays) {
            out.push(b' ');
            write_nodes(out, b' ', path?);
        }
        Ok(())
    });
    if let Err(e) = streamed {
        out.clear();
        out.extend_from_slice(format!("ERR {e}").as_bytes());
    }
}

/// Answers a batch of **pre-validated** `ROUTE` pairs against one epoch
/// in a single cache pass, calling `sink(index, rendered_reply, hit)`
/// per pair in order. [`route_batch_with`] on a scratch of its own, for
/// callers that answer one batch; the server keeps a scratch per shard.
pub fn route_batch(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    pairs: &[(Node, Node)],
    sink: impl FnMut(usize, Arc<str>, bool),
) {
    route_batch_with(
        snapshot,
        epoch,
        pairs,
        &mut RouteScratch::default(),
        None,
        sink,
    );
}

/// The window of wall time the engine (cache-miss compute) was active
/// during one [`route_batch_with`] call: first miss start to last miss
/// end, in [`ftr_obs::monotonic_nanos`] nanos. Both zero when the whole
/// batch was served from cache.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineWindow {
    /// Start of the first cache-miss computation.
    pub start_nanos: u64,
    /// End of the last cache-miss computation.
    pub end_nanos: u64,
}

impl EngineWindow {
    /// Whether any miss was computed (the window is meaningful).
    pub fn active(&self) -> bool {
        self.end_nanos > 0
    }
}

/// The server's pipeline-window fast path: the caller acquires the
/// epoch once for the whole window, validation (and therefore every
/// `ERR`) happens before the cache is touched, and the cache resolves
/// each pair with one probe — lock-free outright on small graphs
/// ([`crate::QueryCache::route_many`]). A miss costs one relay search
/// over `scratch` and one allocation, the `Arc<str>` the cache keeps;
/// that `Arc` is what `sink` receives, never a copy.
///
/// With a `window`, the flight recorder's observation rides along: the
/// engine's share of the cache pass is timestamped into it (plain
/// writes into a caller-owned struct — no locks, no atomics, hot-path
/// safe), for the caller to record as an `engine` span under its
/// `cache` span.
///
/// Pairs are expected to pass [`validate_route_query`] — the caller
/// rejects invalid ones before building the batch. A pair that fails
/// anyway is answered with its rendered `ERR` line (and that line is
/// what the cache remembers for the pair), never a panic.
pub fn route_batch_with(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    pairs: &[(Node, Node)],
    scratch: &mut RouteScratch,
    mut window: Option<&mut EngineWindow>,
    sink: impl FnMut(usize, Arc<str>, bool),
) {
    epoch.cache().route_many(
        pairs,
        |x, y| -> Arc<str> {
            if let Some(w) = window.as_deref_mut().filter(|w| w.start_nanos == 0) {
                w.start_nanos = ftr_obs::monotonic_nanos();
            }
            route_into(snapshot, epoch, x, y, scratch);
            let reply = Arc::from(reply_str(&scratch.out));
            if let Some(w) = window.as_deref_mut() {
                w.end_nanos = ftr_obs::monotonic_nanos();
            }
            reply
        },
        sink,
    );
}

/// BFS over the epoch's surviving route graph (faulty nodes masked out)
/// from `x` to `y`, both healthy: leaves the relay endpoints `x, r1, …,
/// y` of a shortest chain of surviving routes in `scratch.relays` and
/// returns whether there is one. Among shortest chains it takes the one
/// whose relays were reached first, scanning rows in ascending node
/// order — the tie-break every reply (cached or fresh) must share.
fn relay_chain(epoch: &Epoch, x: Node, y: Node, scratch: &mut RouteScratch) -> bool {
    let RouteScratch {
        pred,
        seen,
        queue,
        relays,
        ..
    } = scratch;
    let live = epoch.live();
    let faults = epoch.faults().words();
    pred.resize(live.node_count(), Node::MAX);
    seen.clear();
    seen.resize(live.stride(), 0);
    queue.clear();
    let bit = |v: Node| (v as usize / 64, 1u64 << (v % 64));
    let (x_word, x_bit) = bit(x);
    let (y_word, y_bit) = bit(y);
    seen[x_word] |= x_bit;
    queue.push(x);
    let mut head = 0;
    let found = loop {
        let Some(&u) = queue.get(head) else {
            break false;
        };
        head += 1;
        let row = live.row(u);
        // `y` is healthy and unseen until the search ends, so its bit in
        // the popped row decides before any of the row is expanded.
        if row[y_word] & y_bit != 0 {
            pred[y as usize] = u;
            break true;
        }
        for (wi, ((&word, seen), &faulty)) in
            row.iter().zip(seen.iter_mut()).zip(faults).enumerate()
        {
            let mut fresh = word & !*seen & !faulty;
            *seen |= fresh;
            while fresh != 0 {
                let v = (wi * 64) as Node + fresh.trailing_zeros();
                fresh &= fresh - 1;
                pred[v as usize] = u;
                queue.push(v);
            }
        }
    };
    if found {
        relays.push(y);
        let mut at = y;
        while at != x {
            at = pred[at as usize];
            relays.push(at);
        }
        relays.reverse();
    }
    found
}

/// Outcome of a `TOLERATE` measurement at one epoch: the pruned
/// searcher's bound-aware verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToleranceAnswer {
    /// `true` iff *every* way to add up to `extra` healthy-node faults
    /// keeps the surviving diameter within the requested bound.
    pub holds: bool,
    /// On a `no` verdict: the surviving diameter the witness produced
    /// (`None` = disconnection).
    pub found: Option<Option<u32>>,
    /// On a `no` verdict: the full violating fault set (current epoch
    /// faults included), ascending.
    pub witness: Vec<Node>,
    /// Fault sets actually evaluated (including the epoch's own).
    pub sets: u64,
    /// Fault sets covered by the monotone prune instead of evaluation.
    pub pruned: u64,
    /// Search wall time in nanoseconds (from the audit searcher).
    pub wall_nanos: u64,
}

/// Measures `TOLERATE d f` at `epoch` through the `ftr-audit` pruned
/// searcher: the claim "every extension of the current faults by at
/// most `extra` healthy nodes keeps the surviving diameter `<= bound`"
/// is certified (with full accounting) or refuted by a witness —
/// instead of the raw count-capped sweep this verb used to run.
///
/// Single-threaded by design: replies are cached per `(bound, extra)`
/// in the epoch cache, and a deterministic search keeps cached and
/// fresh answers byte-identical.
///
/// # Errors
///
/// Returns [`QueryError::TolerateBudget`] without doing any work if the
/// worst-case search size exceeds `budget` fault sets.
pub fn tolerate(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    bound: u32,
    extra: usize,
    budget: u64,
) -> Result<ToleranceAnswer, QueryError> {
    let needed = tolerate_cost(snapshot, epoch, extra);
    if needed > budget {
        return Err(QueryError::TolerateBudget { needed, budget });
    }
    tolerate_search(snapshot, epoch, bound, extra)
}

/// The search of [`tolerate`] without its budget guard, for a caller
/// that has already compared [`tolerate_cost`] to its budget (the server
/// does, before it consults the epoch cache).
///
/// # Errors
///
/// Only [`QueryError::Internal`], on a searcher invariant breach.
pub fn tolerate_search(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    bound: u32,
    extra: usize,
) -> Result<ToleranceAnswer, QueryError> {
    let claim = ToleranceClaim {
        diameter: bound,
        faults: extra,
    };
    let report = ftr_audit::audit(
        snapshot.engine(),
        claim,
        &[],
        epoch.faults(),
        &SearchConfig {
            mode: SearchMode::Certify,
            threads: 1,
            max_visits: None, // the worst case was budget-checked
            ..SearchConfig::default()
        },
    );
    match report.verdict {
        Verdict::Holds => Ok(ToleranceAnswer {
            holds: true,
            found: None,
            witness: Vec::new(),
            sets: report.visited,
            pruned: report.pruned_sets,
            wall_nanos: report.wall_nanos,
        }),
        Verdict::Violated { witness, diameter } => Ok(ToleranceAnswer {
            holds: false,
            found: Some(diameter),
            witness,
            sets: report.visited,
            pruned: report.pruned_sets,
            wall_nanos: report.wall_nanos,
        }),
        // No visit cap was set, so the searcher cannot report
        // exhaustion; degrade to an ERR rather than panic the shard.
        Verdict::Exhausted => Err(QueryError::Internal("uncapped TOLERATE search exhausted")),
    }
}

/// The worst-case number of fault sets a [`tolerate`] search with
/// `extra` additional faults would have to cover at `epoch` — the
/// server compares this against its budget *before* consulting the
/// per-epoch cache, so over-budget requests are rejected with a
/// structured ERR (naming this estimate) without caching anything.
/// Pruning may finish far below the estimate but cannot promise to.
pub fn tolerate_cost(snapshot: &RoutingSnapshot, epoch: &Epoch, extra: usize) -> u64 {
    ftr_audit::search_space(snapshot.node_count() - epoch.faults().len(), extra)
}

/// Outcome of an `AUDIT d f` evaluation: a pristine-snapshot audit of
/// the claim, with full searched-space accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditAnswer {
    /// `true` iff the claim held over the whole space.
    pub holds: bool,
    /// On a violation: the witness's surviving diameter.
    pub found: Option<Option<u32>>,
    /// On a violation: the witness fault set, ascending.
    pub witness: Vec<Node>,
    /// Fault sets evaluated.
    pub visited: u64,
    /// Fault sets covered by pruning.
    pub pruned: u64,
    /// The whole space `Σ_{k<=f} C(n, k)`.
    pub space: u64,
    /// Search wall time in nanoseconds (from the audit searcher).
    pub wall_nanos: u64,
}

/// Audits `(bound, faults)` against the **pristine** snapshot (current
/// epoch faults ignored — this is about the served scheme's guarantee,
/// not the current weather), through the pruned searcher. The answer is
/// epoch-independent, so the server memoizes it per `(bound, faults)`
/// for its whole lifetime.
///
/// # Errors
///
/// Returns [`QueryError::AuditBudget`] without doing any work if the
/// worst-case search size exceeds `budget`.
pub fn audit_claim(
    snapshot: &RoutingSnapshot,
    bound: u32,
    faults: usize,
    budget: u64,
) -> Result<AuditAnswer, QueryError> {
    let needed = ftr_audit::search_space(snapshot.node_count(), faults);
    if needed > budget {
        return Err(QueryError::AuditBudget { needed, budget });
    }
    let claim = ToleranceClaim {
        diameter: bound,
        faults,
    };
    let report = ftr_audit::audit(
        snapshot.engine(),
        claim,
        &[],
        &NodeSet::new(snapshot.node_count()),
        &SearchConfig {
            mode: SearchMode::Certify,
            threads: 1,
            max_visits: None,
            ..SearchConfig::default()
        },
    );
    match report.verdict {
        Verdict::Holds => Ok(AuditAnswer {
            holds: true,
            found: None,
            witness: Vec::new(),
            visited: report.visited,
            pruned: report.pruned_sets,
            space: report.space,
            wall_nanos: report.wall_nanos,
        }),
        Verdict::Violated { witness, diameter } => Ok(AuditAnswer {
            holds: false,
            found: Some(diameter),
            witness,
            visited: report.visited,
            pruned: report.pruned_sets,
            space: report.space,
            wall_nanos: report.wall_nanos,
        }),
        // No visit cap was set, so the searcher cannot report
        // exhaustion; degrade to an ERR rather than panic the shard.
        Verdict::Exhausted => Err(QueryError::Internal("uncapped AUDIT search exhausted")),
    }
}

/// The current fault set rendered for diagnostics (`-` when empty).
pub fn render_faults(faults: &NodeSet) -> String {
    crate::proto::render_node_list(faults.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochStore;
    use ftr_core::{verify_tolerance, FaultStrategy, KernelRouting, RouteTable};
    use ftr_graph::gen;

    fn fixture() -> (RoutingSnapshot, EpochStore) {
        let g = gen::petersen();
        let kernel = KernelRouting::build(&g).unwrap();
        let snapshot = RoutingSnapshot::new(g, kernel.routing().clone()).unwrap();
        let store = EpochStore::new(&snapshot.engine().epoch_state());
        (snapshot, store)
    }

    fn epoch_with_faults(snapshot: &RoutingSnapshot, store: &EpochStore, faults: &[Node]) {
        let mut state = snapshot.engine().epoch_state();
        for &v in faults {
            state.insert(snapshot.engine(), v);
        }
        store.publish(&state);
    }

    #[test]
    fn direct_route_returns_stored_path() {
        let (snapshot, store) = fixture();
        let epoch = store.load();
        for (s, d, view) in snapshot.routing().routes() {
            match route(&snapshot, &epoch, s, d).unwrap() {
                RouteReply::Direct(nodes) => assert_eq!(nodes, view.nodes()),
                other => panic!("fault-free ({s}, {d}) must be direct, got {other:?}"),
            }
        }
    }

    #[test]
    fn detour_chains_surviving_routes() {
        let (snapshot, store) = fixture();
        // Fail nodes until some pair loses its direct route.
        epoch_with_faults(&snapshot, &store, &[0]);
        let epoch = store.load();
        let mut detours = 0;
        for x in 0..10u32 {
            for y in 0..10u32 {
                if x == y || epoch.faults().contains(x) || epoch.faults().contains(y) {
                    continue;
                }
                match route(&snapshot, &epoch, x, y).unwrap() {
                    RouteReply::Direct(nodes) => {
                        assert_eq!(nodes.first(), Some(&x));
                        assert_eq!(nodes.last(), Some(&y));
                    }
                    RouteReply::Detour(nodes) => {
                        detours += 1;
                        assert_eq!(nodes.first(), Some(&x));
                        assert_eq!(nodes.last(), Some(&y));
                        // Surviving routes avoid every fault by
                        // construction, so the whole expanded path must.
                        assert!(nodes.iter().all(|&v| !epoch.faults().contains(v)));
                    }
                    RouteReply::Unreachable => {
                        panic!("kernel routing on petersen survives one fault ({x}, {y})")
                    }
                }
            }
        }
        assert!(detours > 0, "failing node 0 must force some detours");
    }

    #[test]
    fn faulty_endpoint_is_unreachable() {
        let (snapshot, store) = fixture();
        epoch_with_faults(&snapshot, &store, &[3]);
        let epoch = store.load();
        assert_eq!(
            route(&snapshot, &epoch, 3, 5).unwrap(),
            RouteReply::Unreachable
        );
        assert_eq!(
            route(&snapshot, &epoch, 5, 3).unwrap(),
            RouteReply::Unreachable
        );
    }

    #[test]
    fn malformed_routes_error() {
        let (snapshot, store) = fixture();
        let epoch = store.load();
        assert_eq!(
            route(&snapshot, &epoch, 4, 4),
            Err(QueryError::EqualEndpoints)
        );
        assert_eq!(
            route(&snapshot, &epoch, 0, 99),
            Err(QueryError::NodeOutOfRange(99))
        );
    }

    #[test]
    fn tolerate_matches_offline_verifier_at_genesis() {
        let (snapshot, store) = fixture();
        let epoch = store.load();
        let report = verify_tolerance(snapshot.engine(), 2, FaultStrategy::Exhaustive, 1);
        let worst = report.worst_diameter.unwrap();
        // At the exhaustive worst diameter the claim holds, with full
        // accounting; one below it, a witness must surface.
        let at = tolerate(&snapshot, &epoch, worst, 2, 1_000_000).unwrap();
        assert!(at.holds, "{at:?}");
        assert_eq!(at.sets + at.pruned, report.sets_checked as u64);
        let below = tolerate(&snapshot, &epoch, worst - 1, 2, 1_000_000).unwrap();
        assert!(!below.holds);
        let found = below.found.expect("witness diameter recorded");
        assert_eq!(
            found,
            snapshot
                .engine()
                .surviving_diameter(&NodeSet::from_nodes(10, below.witness.clone())),
            "witness reproduces"
        );
        assert!(below.sets < at.sets, "violations end the search early");
    }

    #[test]
    fn tolerate_accounts_for_current_faults() {
        let (snapshot, store) = fixture();
        epoch_with_faults(&snapshot, &store, &[1, 6]);
        let epoch = store.load();
        let current = snapshot
            .engine()
            .surviving_diameter(&NodeSet::from_nodes(10, [1, 6]))
            .expect("two faults keep the petersen kernel connected");
        let zero_extra = tolerate(&snapshot, &epoch, current, 0, 100).unwrap();
        assert!(zero_extra.holds);
        assert_eq!(zero_extra.sets, 1);
        assert!(
            !tolerate(&snapshot, &epoch, current - 1, 0, 100)
                .unwrap()
                .holds
        );
        // One more fault on top of two is three total: beyond the kernel
        // claim's budget of t = 2 — the verdict must agree with brute
        // force over the nine single extensions.
        let mut brute_worst = Some(current);
        for v in 0..10u32 {
            if epoch.faults().contains(v) {
                continue;
            }
            let mut faults = NodeSet::from_nodes(10, [1, 6]);
            faults.insert(v);
            match (
                snapshot.engine().surviving_diameter(&faults),
                &mut brute_worst,
            ) {
                (Some(d), Some(w)) => *w = (*w).max(d),
                (None, w) => *w = None,
                (Some(_), None) => {}
            }
        }
        for bound in [current, current + 1, 12] {
            let answer = tolerate(&snapshot, &epoch, bound, 1, 1_000).unwrap();
            let brute_holds = brute_worst.is_some_and(|w| w <= bound);
            assert_eq!(answer.holds, brute_holds, "bound {bound}");
            if !answer.holds {
                assert!(answer.witness.contains(&1) && answer.witness.contains(&6));
            }
        }
    }

    #[test]
    fn tolerate_budget_is_enforced() {
        let (snapshot, store) = fixture();
        let epoch = store.load();
        let err = tolerate(&snapshot, &epoch, 4, 3, 10).unwrap_err();
        assert!(matches!(err, QueryError::TolerateBudget { budget: 10, .. }));
        // The structured ERR names the worst-case estimate.
        assert!(err.to_string().contains("176"), "{err}"); // 1 + 10 + 45 + 120
                                                           // AUDIT has its own guard.
        let err = audit_claim(&snapshot, 4, 3, 10).unwrap_err();
        assert!(matches!(err, QueryError::AuditBudget { budget: 10, .. }));
    }

    #[test]
    fn tolerate_answers_are_the_measuring_searchers() {
        // (faults, bound, extra) → (found, witness, sets, pruned), recorded
        // when the searcher still measured every set's diameter. Deciding
        // `D <= bound` instead must not show: a `no` still carries the
        // witness's exact diameter, and the same sets were visited.
        type Row = (
            &'static [Node],
            u32,
            usize,
            Option<Option<u32>>,
            &'static [Node],
            u64,
            u64,
        );
        #[rustfmt::skip]
        let recorded: [Row; 32] = [
            (&[], 1, 0, Some(Some(2)), &[], 1, 0),
            (&[], 2, 0, None, &[], 1, 0),
            (&[], 3, 0, None, &[], 1, 0),
            (&[], 4, 0, None, &[], 1, 0),
            (&[], 1, 1, Some(Some(2)), &[], 1, 0),
            (&[], 2, 1, None, &[], 11, 0),
            (&[], 3, 1, None, &[], 11, 0),
            (&[], 4, 1, None, &[], 11, 0),
            (&[], 1, 2, Some(Some(2)), &[], 1, 0),
            (&[], 2, 2, Some(Some(3)), &[2, 6], 4, 0),
            (&[], 3, 2, None, &[], 56, 0),
            (&[], 4, 2, None, &[], 56, 0),
            (&[], 1, 3, Some(Some(2)), &[], 1, 0),
            (&[], 2, 3, Some(Some(3)), &[2, 3, 6], 4, 0),
            (&[], 3, 3, Some(None), &[0, 2, 6], 16, 0),
            (&[], 4, 3, Some(None), &[0, 2, 6], 16, 0),
            (&[1, 6], 1, 0, Some(Some(2)), &[1, 6], 1, 0),
            (&[1, 6], 2, 0, None, &[], 1, 0),
            (&[1, 6], 3, 0, None, &[], 1, 0),
            (&[1, 6], 4, 0, None, &[], 1, 0),
            (&[1, 6], 1, 1, Some(Some(2)), &[1, 6], 1, 0),
            (&[1, 6], 2, 1, Some(Some(3)), &[1, 3, 6], 3, 0),
            (&[1, 6], 3, 1, None, &[], 9, 0),
            (&[1, 6], 4, 1, None, &[], 9, 0),
            (&[1, 6], 1, 2, Some(Some(2)), &[1, 6], 1, 0),
            (&[1, 6], 2, 2, Some(Some(3)), &[1, 2, 3, 6], 3, 0),
            (&[1, 6], 3, 2, Some(None), &[1, 3, 6, 7], 11, 0),
            (&[1, 6], 4, 2, Some(None), &[1, 3, 6, 7], 11, 0),
            (&[1, 6], 1, 3, Some(Some(2)), &[1, 6], 1, 0),
            (&[1, 6], 2, 3, Some(Some(3)), &[1, 2, 3, 6], 3, 0),
            (&[1, 6], 3, 3, Some(Some(4)), &[1, 2, 3, 6, 7], 4, 0),
            (&[1, 6], 4, 3, Some(None), &[1, 2, 3, 5, 6], 9, 0),
        ];
        let (snapshot, store) = fixture();
        for (faults, bound, extra, found, witness, sets, pruned) in recorded {
            epoch_with_faults(&snapshot, &store, faults);
            let a = tolerate(&snapshot, &store.load(), bound, extra, u64::MAX).unwrap();
            let case = format!("faults {faults:?} TOLERATE {bound} {extra}");
            assert_eq!((a.holds, a.found), (found.is_none(), found), "{case}");
            assert_eq!(
                (&a.witness[..], a.sets, a.pruned),
                (witness, sets, pruned),
                "{case}"
            );
            if let Some(found) = found {
                let set = NodeSet::from_nodes(10, witness.iter().copied());
                assert_eq!(found, snapshot.engine().surviving_diameter(&set), "{case}");
            }
        }
    }

    #[test]
    fn faults_render_compactly() {
        assert_eq!(render_faults(&NodeSet::new(5)), "-");
        assert_eq!(render_faults(&NodeSet::from_nodes(9, [7, 2])), "2,7");
    }
}
