//! What a `TOLERATE` costs, as a count: BFS passes read from
//! `ftr_graph::obs::BFS_CALLS`.
//!
//! The searcher *decides* `D(R/F) <= d` for every set it visits — one
//! BFS from a hub node, one to it, and on the paper's constructions
//! nothing more, since every survivor keeps a route to the core — where
//! measuring `D(R/F)` runs a BFS from every survivor. The one-fault
//! extensions of a set are decided 64 at a time, one lane of a `u64`
//! per set, so a lane pass (again one BFS each way) covers a whole node
//! word of siblings, and only the hub's own set and the lanes the hub
//! bound leaves open fall back to a scalar decision. A regression to
//! per-set decisions multiplies these counts by about 30, one to the
//! all-sources sweep by the node count again, and unlike a timing
//! either fails identically on every host.
//!
//! The counter is process-wide, so this file holds a single test.

#![cfg(feature = "obs-counters")]

use ftr_core::{SchemeRegistry, SchemeSpec};
use ftr_graph::gen;
use ftr_graph::obs::bfs_calls;
use ftr_serve::{query, EpochStore, RoutingSnapshot};

fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = bfs_calls();
    let out = f();
    (out, bfs_calls() - before)
}

fn kernel_snapshot(k: usize, n: usize) -> RoutingSnapshot {
    let g = gen::harary(k, n).unwrap();
    let built = SchemeRegistry::standard()
        .build_spec(&g, &SchemeSpec::named("kernel"))
        .expect("kernel applies");
    RoutingSnapshot::from_built(built).unwrap()
}

#[test]
fn a_decision_costs_a_few_bfs_passes_where_the_diameter_costs_one_per_node() {
    let snapshot = kernel_snapshot(4, 256);
    let engine = snapshot.engine();
    let mut state = engine.epoch_state();
    state.insert(engine, 3);

    let (exact, passes) = counting(|| state.diameter());
    assert!(exact.is_some_and(|d| d <= 8), "{exact:?}");
    assert!(passes >= 250, "exact diameter: {passes} BFS passes");
    let (within, passes) = counting(|| state.diameter_within(engine, 8));
    assert!(within);
    assert!(passes <= 4, "decision at bound 8: {passes} BFS passes");

    // `TOLERATE 8 1` with one live fault: the epoch's own set (2
    // passes), one lane pass per node word (2 each), and the hub's set
    // decided alone (2) — 12 at n = 256 (4 words), 8 at n = 128 (2
    // words), where one decision per set took 2 + 2·(n − 1).
    let epoch = EpochStore::new(&state).load();
    let small = kernel_snapshot(6, 128);
    let mut small_state = small.engine().epoch_state();
    small_state.insert(small.engine(), 3);
    let small_epoch = EpochStore::new(&small_state).load();
    for (snapshot, epoch, extra, sets, most) in [
        (&snapshot, &epoch, 0, 1, 2),
        (&snapshot, &epoch, 1, 256, 12),
        (&small, &small_epoch, 1, 128, 8),
    ] {
        let n = snapshot.node_count();
        let (answer, passes) =
            counting(|| query::tolerate(snapshot, epoch, 8, extra, u64::MAX).unwrap());
        assert!(answer.holds, "{answer:?}");
        assert_eq!(answer.sets, sets);
        assert!(
            passes <= most,
            "TOLERATE 8 {extra} at n = {n}: {passes} BFS passes over {sets} sets"
        );
    }
}
