//! What a `TOLERATE` costs, as a count: BFS passes read from
//! `ftr_graph::obs::BFS_CALLS`.
//!
//! The searcher *decides* `D(R/F) <= d` for every set it visits — one
//! BFS from a hub node, one to it, and on the paper's constructions
//! nothing more, since every survivor keeps a route to the core — where
//! measuring `D(R/F)` runs a BFS from every survivor. A regression to
//! the all-sources sweep multiplies these counts by the node count, and
//! unlike a timing it fails identically on every host.
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

#[test]
fn a_decision_costs_a_few_bfs_passes_where_the_diameter_costs_one_per_node() {
    let g = gen::harary(4, 256).unwrap();
    let built = SchemeRegistry::standard()
        .build_spec(&g, &SchemeSpec::named("kernel"))
        .expect("kernel applies");
    let snapshot = RoutingSnapshot::from_built(built).unwrap();
    let engine = snapshot.engine();
    let mut state = engine.epoch_state();
    state.insert(engine, 3);

    let (exact, passes) = counting(|| state.diameter());
    assert!(exact.is_some_and(|d| d <= 8), "{exact:?}");
    assert!(passes >= 250, "exact diameter: {passes} BFS passes");
    let (within, passes) = counting(|| state.diameter_within(engine, 8));
    assert!(within);
    assert!(passes <= 4, "decision at bound 8: {passes} BFS passes");

    let epoch = EpochStore::new(&state).load();
    for (extra, sets, most) in [(0, 1, 4), (1, 256, 4 * 256)] {
        let (answer, passes) =
            counting(|| query::tolerate(&snapshot, &epoch, 8, extra, u64::MAX).unwrap());
        assert!(answer.holds, "{answer:?}");
        assert_eq!(answer.sets, sets);
        assert!(
            passes <= most,
            "TOLERATE 8 {extra}: {passes} BFS passes over {sets} sets"
        );
    }
}
