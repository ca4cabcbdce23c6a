//! Construction cost as a count: how many max flows a `build_spec`
//! runs, read from `ftr_graph::obs::FLOW_RUNS`.
//!
//! A build needs one connectivity pass — one capped flow per witness
//! pair plus one to cut the tightest pair — and one flow per tree
//! routing. Anything above that is a duplicated sweep (the parent of
//! this test ran the witness-pair sweep three times per kernel build),
//! and unlike a timing it fails identically on every host.
//!
//! The counter is process-wide, so this file holds a single test.

#![cfg(feature = "obs-counters")]

use ftr_core::{BuiltRouting, SchemeRegistry, SchemeSpec};
use ftr_graph::obs::flow_runs;
use ftr_graph::{gen, Graph};

/// The size of the witness-pair family of Even's algorithm, restated
/// from its definition: a minimum-degree node against every
/// non-neighbor, plus the non-adjacent pairs among its neighbors.
fn witness_pair_count(g: &Graph) -> u64 {
    let v = g
        .nodes()
        .min_by_key(|&u| g.degree(u))
        .expect("non-empty graph");
    let nb = g.neighbors(v);
    let mut pairs = g.node_count() - 1 - nb.len();
    for (i, &x) in nb.iter().enumerate() {
        pairs += nb[i + 1..].iter().filter(|&&y| !g.has_edge(x, y)).count();
    }
    pairs as u64
}

fn build_counting(g: &Graph, spec: &str) -> (BuiltRouting, u64) {
    let before = flow_runs();
    let built = SchemeRegistry::standard()
        .build_spec(g, &SchemeSpec::named(spec))
        .expect("scheme applies");
    (built, flow_runs() - before)
}

#[test]
fn builds_run_one_connectivity_pass_and_one_flow_per_tree_routing() {
    let g = gen::harary(4, 256).unwrap();
    let (n, kappa) = (256u64, 4u64);
    let pass = witness_pair_count(&g) + 1;
    assert_eq!(
        pass,
        251 + 3 + 1,
        "H(4, 256): 251 non-neighbors, 3 open pairs"
    );

    // Kernel and augmentation: a tree routing from every node outside
    // the κ-node separator.
    for spec in ["kernel", "augment"] {
        let (built, flows) = build_counting(&g, spec);
        assert_eq!(built.core_nodes().len() as u64, kappa);
        assert_eq!(flows, pass + (n - kappa), "{spec}");
    }

    // Circular: nodes outside Γ route into all K neighborhoods, nodes
    // inside into the ⌈K/2⌉ − 1 ahead of their own.
    let (built, flows) = build_counting(&g, "circular");
    let k = built.core_nodes().len() as u64;
    let in_gamma: u64 = built.core_nodes().iter().map(|&m| g.degree(m) as u64).sum();
    assert_eq!((k, in_gamma), (5, 20));
    assert_eq!(
        flows,
        pass + (n - in_gamma) * k + in_gamma * (k.div_ceil(2) - 1),
        "circular"
    );

    // The hypercube scheme reads κ off the topology: no sweep at all.
    let q = gen::hypercube(5).unwrap();
    let (_, flows) = build_counting(&q, "hypercube");
    assert_eq!(flows, 0, "hypercube");
}
