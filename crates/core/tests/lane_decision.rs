//! The 64-lane decision against the scalar one: every extension
//! `F ∪ {v}` that [`EpochState::extensions_within`] accepts must be
//! within the bound under [`EpochState::diameter_within`], and every one
//! the scalar sweep accepts from its hub alone must be accepted — on
//! random asymmetric route tables (several routes per pair included),
//! on both sides of every word boundary, for every bound.

use ftr_core::{
    BuiltTable, Compile, CompiledRoutes, EpochState, MultiRouting, RouteTable, RoutingKind,
    SchemeRegistry, SchemeSpec,
};
use ftr_graph::{gen, BitMatrix, Node, NodeSet, Path};
use proptest::prelude::*;

/// A seeded asymmetric multirouting on `n` nodes: a one-way ring of
/// direct routes (so the route graph is often strongly connected, with
/// in- and out-distances that differ), plus `extra` routes of up to
/// three interior nodes from a linear congruential stream, up to three
/// per pair.
fn seeded_table(n: usize, extra: usize, seed: u64) -> CompiledRoutes {
    let mut m = MultiRouting::new(n, RoutingKind::Unidirectional, 3);
    let mut x = seed | 1;
    let mut draw = |bound: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize % bound
    };
    if n > 1 {
        for u in 0..n {
            let _ = m.insert(Path::new(vec![u as Node, ((u + 1) % n) as Node]).unwrap());
        }
    }
    for _ in 0..extra {
        let len = 2 + draw(4);
        let mut nodes: Vec<Node> = Vec::with_capacity(len);
        while nodes.len() < len.min(n) {
            let v = draw(n) as Node;
            if !nodes.contains(&v) {
                nodes.push(v);
            }
        }
        if let Ok(path) = Path::new(nodes) {
            let _ = m.insert(path); // over-budget and trivial inserts skipped
        }
    }
    m.compile()
}

/// What the scalar sweep decides for `F ∪ {v}` from its hub alone:
/// `Some(ecc_in(hub) + ecc_out(hub))` when the extension is strongly
/// connected, `None` otherwise — with the hub the first of the engine's
/// candidates alive under `F ∪ {v}` (any alive node if none is), and
/// the distances taken in the reference surviving graph.
fn hub_sum(engine: &CompiledRoutes, faults: &NodeSet) -> Option<u32> {
    let n = engine.node_count();
    let alive = |u: Node| !faults.contains(u);
    let Some(hub) = engine
        .hubs()
        .iter()
        .copied()
        .find(|&h| alive(h))
        .or_else(|| (0..n as Node).find(|&u| alive(u)))
    else {
        return Some(0);
    };
    let surviving = engine.surviving(faults);
    let mut out = BitMatrix::new(n);
    let mut into = BitMatrix::new(n);
    for x in 0..n as Node {
        for y in 0..n as Node {
            if x != y && surviving.has_edge(x, y) {
                out.set(x, y);
                into.set(y, x);
            }
        }
    }
    let (ecc_out, out_complete) = out.masked_eccentricity(hub, Some(faults));
    let (ecc_in, in_complete) = into.masked_eccentricity(hub, Some(faults));
    (out_complete && in_complete).then_some(ecc_in + ecc_out)
}

/// Checks one state against every bound `0..=n` for one candidate set:
/// a lane is accepted exactly when the scalar sweep's hub bound holds
/// (the hub under `F` itself never is), and an accepted lane is within
/// the bound under `diameter_within` and the reference diameter.
fn check_state(
    engine: &CompiledRoutes,
    state: &EpochState,
    candidates: &[Node],
) -> Result<(), TestCaseError> {
    let n = engine.node_count();
    let mut mask = vec![0u64; n.div_ceil(64)];
    for &v in candidates {
        mask[v as usize / 64] |= 1u64 << (v % 64);
    }
    let hub = engine
        .hubs()
        .iter()
        .copied()
        .find(|&h| !state.faults().contains(h))
        .or_else(|| (0..n as Node).find(|&u| !state.faults().contains(u)));
    let mut accepts = Vec::with_capacity(n + 1);
    for bound in 0..=n as u32 {
        let mut lanes = mask.clone();
        state.extensions_within(engine, bound, &mut lanes);
        accepts.push(lanes);
    }
    for v in 0..n as Node {
        let accepted =
            |bound: u32| accepts[bound as usize][v as usize / 64] & (1u64 << (v % 64)) != 0;
        let lane = candidates.contains(&v) && !state.faults().contains(v) && Some(v) != hub;
        if !lane {
            for bound in 0..=n as u32 {
                prop_assert!(
                    !accepted(bound),
                    "accepted non-lane {} at bound {}",
                    v,
                    bound
                );
            }
            continue;
        }
        let mut faults = state.faults().clone();
        faults.insert(v);
        let scalar = hub_sum(engine, &faults);
        let exact = engine.surviving(&faults).diameter();
        let mut ext = state.clone();
        ext.insert(engine, v);
        for bound in 0..=n as u32 {
            prop_assert_eq!(
                accepted(bound),
                scalar.is_some_and(|s| s <= bound),
                "lane {} at bound {}: hub sum {:?}",
                v,
                bound,
                scalar
            );
            if accepted(bound) {
                prop_assert!(
                    ext.diameter_within(engine, bound) && exact.is_some_and(|d| d <= bound),
                    "lane {} accepted at bound {} but the diameter is {:?}",
                    v,
                    bound,
                    exact
                );
            }
        }
    }
    Ok(())
}

/// A base fault set: none, a random one, or all but two nodes.
fn base_faults(n: usize, kind: u32, picks: &[Node]) -> Vec<Node> {
    match kind {
        0 => Vec::new(),
        1 => picks
            .iter()
            .copied()
            .filter(|&v| (v as usize) < n)
            .collect(),
        _ => (2..n as Node).collect(),
    }
}

/// Candidate masks: every node, two nodes in three (holes), the hub and
/// its neighbours by id, and the nodes around the first word boundary.
fn candidate_sets(engine: &CompiledRoutes, n: usize) -> Vec<Vec<Node>> {
    let all: Vec<Node> = (0..n as Node).collect();
    let holes: Vec<Node> = (0..n as Node).filter(|v| v % 3 != 1).collect();
    let hub = engine.hubs().first().copied().unwrap_or(0);
    let near_hub: Vec<Node> = (hub.saturating_sub(2)..(hub + 3).min(n as Node)).collect();
    let boundary: Vec<Node> = (60..70).filter(|&v| (v as usize) < n).collect();
    vec![all, holes, near_hub, boundary]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_accepts_are_scalar_accepts_and_cover_the_hub_bound(
        n in prop_oneof![Just(1usize), Just(2), Just(63), Just(64), Just(65), Just(130)],
        density in 0usize..4,
        seed in any::<u64>(),
        base_kind in 0u32..3,
        picks in prop::collection::btree_set(0u32..130, 0..6),
    ) {
        let engine = seeded_table(n, density * n, seed);
        let mut state = engine.epoch_state();
        for v in base_faults(n, base_kind, &picks.iter().copied().collect::<Vec<_>>()) {
            state.insert(&engine, v);
        }
        for candidates in candidate_sets(&engine, n) {
            check_state(&engine, &state, &candidates)?;
        }
    }
}

/// The constructions the auditor serves: `augment` (a single-route
/// table on an augmented graph) and `multi:concentrator` (several routes
/// per pair), under no fault and one.
#[test]
fn registry_tables_agree_lane_for_lane() {
    let registry = SchemeRegistry::standard();
    for (graph, spec) in [
        (gen::harary(4, 20).unwrap(), "augment"),
        (gen::petersen(), "augment"),
        (gen::harary(5, 24).unwrap(), "multi:concentrator"),
        (gen::harary(4, 66).unwrap(), "multi:concentrator"),
        (gen::harary(4, 66).unwrap(), "kernel"),
    ] {
        let built = registry
            .build_spec(&graph, &spec.parse::<SchemeSpec>().unwrap())
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        let engine = match built.table() {
            BuiltTable::Single(r) => r.compile(),
            BuiltTable::Multi(m) => m.compile(),
        };
        let n = engine.node_count();
        let all: Vec<Node> = (0..n as Node).collect();
        let mut state = engine.epoch_state();
        check_state(&engine, &state, &all).unwrap();
        state.insert(&engine, built.core_nodes().first().copied().unwrap_or(1));
        check_state(&engine, &state, &all).unwrap();
    }
}

/// A pair whose only live route runs through the lane's node is dead
/// in that lane, even though another (already killed) route avoids it:
/// 0 reaches 2 only through the bundle `0 1 2` / `0 3 2`, and with 1
/// faulty, adding 3 cuts 0 from 2.
#[test]
fn a_killed_route_does_not_carry_its_pair_in_a_lane() {
    let mut m = MultiRouting::new(5, RoutingKind::Unidirectional, 2);
    for nodes in [
        vec![0, 1, 2],
        vec![0, 3, 2],
        vec![2, 0],
        vec![0, 4],
        vec![4, 0],
        vec![2, 4],
    ] {
        m.insert(Path::new(nodes).unwrap()).unwrap();
    }
    let engine = m.compile();
    let mut state = engine.epoch_state();
    state.insert(&engine, 1);
    for bound in 0..=5 {
        let mut lanes = vec![1u64 << 3];
        state.extensions_within(&engine, bound, &mut lanes);
        assert_eq!(lanes, vec![0], "bound {bound}");
    }
    check_state(&engine, &state, &[0, 2, 3, 4]).unwrap();
}

#[test]
fn nobody_alive_accepts_nothing() {
    let engine = seeded_table(3, 3, 7);
    let mut state = engine.epoch_state();
    for v in 0..3 {
        state.insert(&engine, v);
    }
    let mut lanes = vec![!0u64];
    state.extensions_within(&engine, 5, &mut lanes);
    assert_eq!(lanes, vec![0]);
}
