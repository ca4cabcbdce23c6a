//! Property-based tests for the graph substrate: data-structure models,
//! metric axioms, Menger duality and analysis invariants on randomized
//! inputs.

use std::collections::BTreeSet;

use ftr_graph::analysis::{self, SelectionOrder};
use ftr_graph::{connectivity, flow, gen, io, traversal, Graph, Node, NodeSet, Path, INFINITY};
use proptest::prelude::*;

// ---------------------------------------------------------------- NodeSet

/// Operations for the NodeSet-vs-BTreeSet model test.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(u16),
    Remove(u16),
    Clear,
}

fn set_op(capacity: u16) -> impl Strategy<Value = SetOp> {
    prop_oneof![
        4 => (0..capacity).prop_map(SetOp::Insert),
        2 => (0..capacity).prop_map(SetOp::Remove),
        1 => Just(SetOp::Clear),
    ]
}

proptest! {
    #[test]
    fn nodeset_matches_btreeset_model(
        ops in prop::collection::vec(set_op(128), 0..200)
    ) {
        let mut set = NodeSet::new(128);
        let mut model = BTreeSet::new();
        for op in ops {
            match op {
                SetOp::Insert(v) => {
                    prop_assert_eq!(set.insert(v as Node), model.insert(v as Node));
                }
                SetOp::Remove(v) => {
                    prop_assert_eq!(set.remove(v as Node), model.remove(&(v as Node)));
                }
                SetOp::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(set.len(), model.len());
        }
        let elems: Vec<Node> = set.iter().collect();
        let model_elems: Vec<Node> = model.into_iter().collect();
        prop_assert_eq!(elems, model_elems);
    }

    #[test]
    fn nodeset_algebra_matches_model(
        a in prop::collection::btree_set(0u32..96, 0..40),
        b in prop::collection::btree_set(0u32..96, 0..40),
    ) {
        let sa = NodeSet::from_nodes(96, a.iter().copied());
        let sb = NodeSet::from_nodes(96, b.iter().copied());

        let mut union = sa.clone();
        union.union_with(&sb);
        let expect: Vec<Node> = a.union(&b).copied().collect();
        prop_assert_eq!(union.iter().collect::<Vec<_>>(), expect);

        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        let expect: Vec<Node> = a.intersection(&b).copied().collect();
        prop_assert_eq!(inter.iter().collect::<Vec<_>>(), expect);

        let mut diff = sa.clone();
        diff.difference_with(&sb);
        let expect: Vec<Node> = a.difference(&b).copied().collect();
        prop_assert_eq!(diff.iter().collect::<Vec<_>>(), expect);

        prop_assert_eq!(sa.is_disjoint(&sb), a.is_disjoint(&b));
        prop_assert_eq!(sa.is_subset(&sb), a.is_subset(&b));
    }
}

// ------------------------------------------- Unrolled bitset kernels
//
// The word loops behind `union_with`/`intersect_with`/`difference_with`
// and `words_intersect` are 4×u64-unrolled with a scalar remainder;
// these tests pin them to the set model at capacities chosen to
// exercise every remainder shape (0–3 ragged tail words, plus a
// non-multiple-of-64 final word).

/// Capacities covering each `chunks_exact(4)` remainder length and
/// ragged final words.
const RAGGED_CAPACITIES: [usize; 10] = [1, 63, 64, 65, 129, 192, 257, 300, 448, 511];

fn ragged_set_pair() -> impl Strategy<Value = (usize, BTreeSet<u32>, BTreeSet<u32>)> {
    (0..RAGGED_CAPACITIES.len()).prop_flat_map(|i| {
        let cap = RAGGED_CAPACITIES[i];
        (
            Just(cap),
            prop::collection::btree_set(0..cap as u32, 0..cap.min(96)),
            prop::collection::btree_set(0..cap as u32, 0..cap.min(96)),
        )
    })
}

/// No bit at or above `capacity` may survive a kernel — stray tail bits
/// would corrupt later word-level operations.
fn assert_tail_clean(set: &NodeSet) -> Result<(), TestCaseError> {
    let tail = set.capacity() % 64;
    if tail != 0 {
        let last = *set.words().last().expect("capacity > 0 has words");
        prop_assert_eq!(last & !((1u64 << tail) - 1), 0, "stray bits past capacity");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unrolled_set_algebra_matches_model_at_ragged_capacities(
        input in ragged_set_pair()
    ) {
        let (cap, a, b) = input;
        let sa = NodeSet::from_nodes(cap, a.iter().copied());
        let sb = NodeSet::from_nodes(cap, b.iter().copied());

        let mut union = sa.clone();
        union.union_with(&sb);
        let expect: Vec<Node> = a.union(&b).copied().collect();
        prop_assert_eq!(union.len(), expect.len(), "fused popcount drifted");
        prop_assert_eq!(union.iter().collect::<Vec<_>>(), expect);
        assert_tail_clean(&union)?;

        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        let expect: Vec<Node> = a.intersection(&b).copied().collect();
        prop_assert_eq!(inter.len(), expect.len(), "fused popcount drifted");
        prop_assert_eq!(inter.iter().collect::<Vec<_>>(), expect);
        assert_tail_clean(&inter)?;

        let mut diff = sa.clone();
        diff.difference_with(&sb);
        let expect: Vec<Node> = a.difference(&b).copied().collect();
        prop_assert_eq!(diff.len(), expect.len(), "fused popcount drifted");
        prop_assert_eq!(diff.iter().collect::<Vec<_>>(), expect);
        assert_tail_clean(&diff)?;

        prop_assert_eq!(
            ftr_graph::words_intersect(sa.words(), sb.words()),
            !a.is_disjoint(&b)
        );
        prop_assert_eq!(sa.intersects(&sb), !a.is_disjoint(&b));
    }

    #[test]
    fn words_intersect_handles_length_mismatch(
        input in ragged_set_pair(),
        shorter in 0usize..4,
    ) {
        // Callers pass fault-set word slices shorter than the matrix
        // stride; only the common prefix may decide the answer.
        let (cap, a, b) = input;
        let sa = NodeSet::from_nodes(cap, a.iter().copied());
        let sb = NodeSet::from_nodes(cap, b.iter().copied());
        let cut = sb.words().len().saturating_sub(shorter).max(1);
        let prefix = &sb.words()[..cut];
        let expect = a.iter().any(|&v| (v as usize) < cut * 64 && b.contains(&v));
        prop_assert_eq!(ftr_graph::words_intersect(sa.words(), prefix), expect);
        prop_assert_eq!(ftr_graph::words_intersect(prefix, sa.words()), expect);
    }
}

// ---------------------------------------------- BitMatrix BFS kernels

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmatrix_diameter_matches_graph_bfs(
        g in small_gnp(),
        picks in prop::collection::btree_set(0u32..24, 0..6),
    ) {
        use ftr_graph::{BfsScratch, BitMatrix};
        let n = g.node_count();
        let mut bm = BitMatrix::new(n);
        for (u, v) in g.edges() {
            bm.set(u, v);
            bm.set(v, u);
        }
        let avoid = NodeSet::from_nodes(n, picks.into_iter().filter(|&v| (v as usize) < n));
        prop_assume!(avoid.len() + 2 <= n);

        // The unrolled frontier BFS against the graph-level reference.
        prop_assert_eq!(bm.diameter(None), traversal::diameter(&g, None));
        prop_assert_eq!(bm.diameter(Some(&avoid)), traversal::diameter(&g, Some(&avoid)));

        // Caller-owned scratch is identical to the thread-local path,
        // including when the scratch is reused across differently-sized
        // calls.
        let mut scratch = BfsScratch::new();
        prop_assert_eq!(bm.diameter_with(Some(&avoid), &mut scratch), bm.diameter(Some(&avoid)));
        prop_assert_eq!(bm.diameter_with(None, &mut scratch), bm.diameter(None));
        for src in 0..n as Node {
            if avoid.contains(src) {
                continue;
            }
            prop_assert_eq!(
                bm.eccentricity_with(src, Some(&avoid), &mut scratch),
                bm.masked_eccentricity(src, Some(&avoid))
            );
        }
    }
}

/// A seeded asymmetric digraph on `n` nodes: optionally a one-way ring
/// (so it is often strongly connected, with in- and out-distances that
/// differ), plus `extra` arcs from a linear congruential stream.
fn seeded_digraph(
    n: usize,
    ring: bool,
    extra: usize,
    seed: u64,
) -> (ftr_graph::BitMatrix, ftr_graph::DiGraph) {
    let mut bm = ftr_graph::BitMatrix::new(n);
    let mut dg = ftr_graph::DiGraph::new(n);
    let mut arc = |u: usize, v: usize| {
        if u != v {
            bm.set(u as Node, v as Node);
            dg.add_arc(u as Node, v as Node).expect("in range");
        }
    };
    if ring {
        for u in 0..n {
            arc(u, (u + 1) % n);
        }
    }
    let mut x = seed | 1;
    for _ in 0..extra {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        arc((x >> 16) as usize % n, (x >> 40) as usize % n);
    }
    (bm, dg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The decision is the exact diameter compared to the bound — for
    // every bound, whatever the hub list — and the exact diameter is
    // the adjacency-list reference's.
    #[test]
    fn bitmatrix_decision_matches_exact_diameter(
        n in prop_oneof![Just(1usize), Just(2), Just(63), Just(64), Just(65), Just(130)],
        ring in any::<bool>(),
        density in 0usize..5,
        seed in any::<u64>(),
        avoid_kind in 0u32..4,
        picks in prop::collection::btree_set(0u32..130, 0..12),
    ) {
        let (bm, dg) = seeded_digraph(n, ring, density * n, seed);
        let keep = (seed >> 7) as usize % n;
        let avoid = match avoid_kind {
            0 => NodeSet::new(n),
            1 => NodeSet::from_nodes(n, picks.iter().copied().filter(|&v| (v as usize) < n)),
            2 => NodeSet::from_nodes(n, (0..n as Node).filter(|&v| v as usize != keep)),
            _ => NodeSet::from_nodes(n, 0..n as Node),
        };
        let exact = bm.diameter(Some(&avoid));
        prop_assert_eq!(exact, dg.diameter(Some(&avoid)));

        let alive = (0..n as Node).find(|&v| !avoid.contains(v));
        let dead = avoid.iter().next();
        let hub_lists: Vec<Vec<Node>> = vec![
            vec![],
            dead.into_iter().collect(),
            alive.into_iter().chain(alive).collect(),
            vec![n as Node, Node::MAX],
            dead.into_iter().chain([Node::MAX]).chain(dead).chain(picks.iter().copied()).collect(),
            bm.hub_candidates(4),
        ];
        let mut scratch = ftr_graph::BfsScratch::new();
        for hubs in &hub_lists {
            for bound in 0..=n as u32 {
                let expect = matches!(exact, Some(d) if d <= bound);
                prop_assert_eq!(
                    bm.diameter_within(Some(&avoid), bound, hubs),
                    expect,
                    "bound {} hubs {:?} exact {:?}", bound, hubs, exact
                );
                prop_assert_eq!(
                    bm.diameter_within_with(Some(&avoid), bound, hubs, &mut scratch),
                    expect
                );
            }
        }
        prop_assert_eq!(bm.diameter_with(Some(&avoid), &mut scratch), exact);
    }
}

// ------------------------------------------------------------------- Path

proptest! {
    #[test]
    fn path_reversal_is_involutive(nodes in prop::collection::vec(0u32..64, 1..12)) {
        match Path::new(nodes.clone()) {
            Ok(p) => {
                let distinct: BTreeSet<_> = nodes.iter().collect();
                prop_assert_eq!(distinct.len(), nodes.len(), "accepted paths are simple");
                prop_assert_eq!(p.reversed().reversed(), p.clone());
                prop_assert_eq!(p.len() + 1, p.nodes().len());
                prop_assert_eq!(p.interior().count(), p.nodes().len().saturating_sub(2));
            }
            Err(_) => {
                let distinct: BTreeSet<_> = nodes.iter().collect();
                prop_assert!(distinct.len() < nodes.len(), "rejections are repeats");
            }
        }
    }

    #[test]
    fn path_affected_iff_some_node_faulty(
        nodes in prop::collection::btree_set(0u32..40, 2..8),
        faults in prop::collection::btree_set(0u32..40, 0..6),
    ) {
        let p = Path::new(nodes.iter().copied().collect()).expect("distinct nodes");
        let fs = NodeSet::from_nodes(40, faults.iter().copied());
        let expect = nodes.iter().any(|v| faults.contains(v));
        prop_assert_eq!(p.is_affected_by(&fs), expect);
    }
}

// ------------------------------------------------------------------ Graph

/// A random graph strategy: `n` nodes, G(n, p)-style with a seed.
fn small_gnp() -> impl Strategy<Value = Graph> {
    (4usize..24, 0u64..1_000_000, 1u32..9)
        .prop_map(|(n, seed, dens)| gen::gnp(n, dens as f64 / 10.0, seed).expect("valid p"))
}

proptest! {
    #[test]
    fn graph_handshake_lemma(g in small_gnp()) {
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        prop_assert_eq!(g.edges().count(), g.edge_count());
    }

    #[test]
    fn graph_adjacency_is_symmetric(g in small_gnp()) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
            prop_assert!(g.neighbors(u).contains(&v));
            prop_assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn bfs_distances_are_a_metric(g in small_gnp()) {
        let n = g.node_count();
        let dist: Vec<Vec<u32>> =
            (0..n as Node).map(|v| traversal::bfs_distances(&g, v, None)).collect();
        for u in 0..n {
            prop_assert_eq!(dist[u][u], 0);
            for v in 0..n {
                // symmetry
                prop_assert_eq!(dist[u][v], dist[v][u]);
                // triangle inequality through any w (with INFINITY care)
                for w in 0..n {
                    if dist[u][w] != INFINITY && dist[w][v] != INFINITY {
                        prop_assert!(dist[u][v] <= dist[u][w] + dist[w][v]);
                    }
                }
            }
        }
    }

    #[test]
    fn avoid_overlay_equals_induced_subgraph(
        g in small_gnp(),
        picks in prop::collection::btree_set(0u32..24, 0..6),
    ) {
        let n = g.node_count();
        let removed = NodeSet::from_nodes(
            n,
            picks.into_iter().filter(|&v| (v as usize) < n),
        );
        let (induced, new_to_old) = g.remove_nodes(&removed);
        // distances computed with the fault overlay must equal distances
        // in the materialized induced subgraph
        for (new_u, &old_u) in new_to_old.iter().enumerate() {
            let overlay = traversal::bfs_distances(&g, old_u, Some(&removed));
            let direct = traversal::bfs_distances(&induced, new_u as Node, None);
            for (new_v, &old_v) in new_to_old.iter().enumerate() {
                prop_assert_eq!(direct[new_v], overlay[old_v as usize]);
            }
        }
    }

    #[test]
    fn shortest_path_matches_distance(g in small_gnp()) {
        let dist = traversal::bfs_distances(&g, 0, None);
        for v in g.nodes() {
            match traversal::shortest_path(&g, 0, v, None) {
                Some(p) => {
                    prop_assert_eq!(p.len() as u32, dist[v as usize]);
                    p.validate_in(&g).expect("shortest paths are valid");
                }
                None => prop_assert_eq!(dist[v as usize], INFINITY),
            }
        }
    }

    #[test]
    fn components_partition_reachability(g in small_gnp()) {
        let (count, labels) = traversal::connected_components(&g, None);
        prop_assert!(labels.iter().all(|&l| (l as usize) < count));
        for u in g.nodes() {
            let dist = traversal::bfs_distances(&g, u, None);
            for v in g.nodes() {
                let same = labels[u as usize] == labels[v as usize];
                prop_assert_eq!(same, dist[v as usize] != INFINITY);
            }
        }
    }
}

// ----------------------------------------------------------- Flow / Menger

/// One query against a split network; node ids range past every
/// `small_gnp` graph so some queries are rejected.
#[derive(Debug, Clone)]
enum FlowQuery {
    Connectivity(Node, Node, Option<usize>),
    Paths(Node, Node, Option<usize>),
    ToSet(Node, BTreeSet<Node>, Option<usize>),
    Cut(Node, Node),
}

fn flow_query() -> impl Strategy<Value = FlowQuery> {
    // Endpoints from a narrow range make `s == t` and adjacent pairs
    // common; 0 stands for "no limit".
    let limit = || (0usize..4).prop_map(|l| (l > 0).then_some(l));
    prop_oneof![
        (0u32..26, 0u32..26, limit()).prop_map(|(s, t, l)| FlowQuery::Connectivity(s, t, l)),
        (0u32..26, 0u32..26, limit()).prop_map(|(s, t, l)| FlowQuery::Paths(s, t, l)),
        (
            0u32..26,
            prop::collection::btree_set(0u32..26, 0..6),
            limit()
        )
            .prop_map(|(s, picks, l)| FlowQuery::ToSet(s, picks, l)),
        (0u32..26, 0u32..26).prop_map(|(s, t)| FlowQuery::Cut(s, t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn menger_duality_on_random_graphs(g in small_gnp()) {
        let n = g.node_count() as Node;
        // probe a handful of non-adjacent pairs
        let pairs = [(0, n - 1), (1, n - 2), (0, n / 2)];
        for &(s, t) in &pairs {
            if s == t || g.has_edge(s, t) {
                continue;
            }
            let k = flow::local_vertex_connectivity(&g, s, t, None).expect("valid pair");
            let paths = flow::vertex_disjoint_st_paths(&g, s, t, None).expect("valid pair");
            let cut = flow::min_st_vertex_cut(&g, s, t).expect("non-adjacent");
            // Menger: max disjoint paths == min vertex cut
            prop_assert_eq!(paths.len(), k);
            prop_assert_eq!(cut.len(), k);
            // the cut separates
            if k > 0 {
                prop_assert_eq!(traversal::distance(&g, s, t, Some(&cut)), INFINITY);
            }
            // paths are internally disjoint and valid
            let mut seen = NodeSet::new(g.node_count());
            for p in &paths {
                p.validate_in(&g).expect("flow paths are graph paths");
                prop_assert_eq!(p.source(), s);
                prop_assert_eq!(p.target(), t);
                for v in p.interior() {
                    prop_assert!(seen.insert(v), "interior reused");
                    prop_assert!(!cut.contains(v) || cut.len() == k, "sanity");
                }
            }
        }
    }

    #[test]
    fn paths_to_set_are_disjoint_and_truncated(
        g in small_gnp(),
        picks in prop::collection::btree_set(0u32..24, 1..6),
    ) {
        let n = g.node_count();
        let targets = NodeSet::from_nodes(
            n,
            picks.into_iter().filter(|&v| (v as usize) < n && v != 0),
        );
        if targets.is_empty() {
            return Ok(());
        }
        let paths = flow::vertex_disjoint_paths_to_set(&g, 0, &targets, None)
            .expect("validated inputs");
        let mut seen = NodeSet::new(n);
        let mut endpoints = NodeSet::new(n);
        for p in &paths {
            p.validate_in(&g).expect("valid path");
            prop_assert_eq!(p.source(), 0);
            prop_assert!(targets.contains(p.target()));
            prop_assert!(endpoints.insert(p.target()), "distinct endpoints");
            prop_assert!(p.interior().all(|v| !targets.contains(v)), "truncated");
            for v in p.nodes().iter().copied().filter(|&v| v != 0) {
                prop_assert!(seen.insert(v), "node reused across paths");
            }
        }
    }

    // One reused network answers a random mix of s–t, to-set and
    // min-cut queries exactly as a fresh network per query does. Node
    // ids run past `n` and sets are unconstrained, so rejected queries
    // (out-of-range node, `s == t`, `s` among the targets, empty
    // targets, an adjacent pair for a cut) land between accepted ones:
    // a failed query must not leak state into the next.
    #[test]
    fn reused_network_equals_fresh_one_shot_calls(
        g in small_gnp(),
        queries in prop::collection::vec(flow_query(), 1..24),
    ) {
        let n = g.node_count();
        let mut net = flow::SplitNetwork::new(&g);
        for q in queries {
            match q {
                FlowQuery::Connectivity(s, t, limit) => {
                    let reused = net.local_vertex_connectivity(s, t, limit);
                    prop_assert_eq!(reused, flow::local_vertex_connectivity(&g, s, t, limit));
                }
                FlowQuery::Paths(s, t, limit) => {
                    let reused = net.vertex_disjoint_st_paths(s, t, limit);
                    prop_assert_eq!(reused, flow::vertex_disjoint_st_paths(&g, s, t, limit));
                }
                FlowQuery::ToSet(s, picks, limit) => {
                    let targets =
                        NodeSet::from_nodes(n, picks.into_iter().filter(|&v| (v as usize) < n));
                    let reused = net.vertex_disjoint_paths_to_set(s, &targets, limit);
                    prop_assert_eq!(
                        reused,
                        flow::vertex_disjoint_paths_to_set(&g, s, &targets, limit)
                    );
                }
                FlowQuery::Cut(s, t) => {
                    let reused = net.min_st_vertex_cut(s, t);
                    prop_assert_eq!(reused, flow::min_st_vertex_cut(&g, s, t));
                }
            }
        }
    }

    #[test]
    fn global_connectivity_matches_brute_force(
        n in 4usize..9,
        seed in 0u64..10_000,
        dens in 2u32..9,
    ) {
        let g = gen::gnp(n, dens as f64 / 10.0, seed).expect("valid p");
        let fast = connectivity::vertex_connectivity(&g);
        let brute = brute_connectivity(&g);
        prop_assert_eq!(fast, brute);
        // threshold checks agree with the exact value
        prop_assert!(connectivity::is_k_connected(&g, fast));
        prop_assert!(!connectivity::is_k_connected(&g, fast + 1));
    }
}

fn brute_connectivity(g: &Graph) -> usize {
    let n = g.node_count();
    if g.is_complete() {
        return n.saturating_sub(1);
    }
    if !traversal::is_connected(g, None) {
        return 0;
    }
    let mut best = n - 1;
    for mask in 0u32..(1 << n) {
        let size = mask.count_ones() as usize;
        if size >= best {
            continue;
        }
        let set = NodeSet::from_nodes(n, (0..n as Node).filter(|&v| mask & (1 << v) != 0));
        if connectivity::is_separator(g, &set) {
            best = size;
        }
    }
    best
}

// -------------------------------------------------------------- Analysis

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_neighborhood_sets_are_valid_and_large_enough(
        g in small_gnp(),
        seed in 0u64..1000,
    ) {
        for order in [
            SelectionOrder::Ascending,
            SelectionOrder::MinDegreeFirst,
            SelectionOrder::Random(seed),
        ] {
            let m = analysis::neighborhood_set(&g, order);
            prop_assert!(analysis::is_neighborhood_set(&g, &m));
            let d = g.max_degree();
            prop_assert!(m.len() >= g.node_count().div_ceil(d * d + 1));
            // maximality: no node outside can be added
            for v in g.nodes() {
                if m.contains(&v) {
                    continue;
                }
                let mut extended = m.clone();
                extended.push(v);
                prop_assert!(
                    !analysis::is_neighborhood_set(&g, &extended),
                    "greedy result must be maximal (node {} fits)", v
                );
            }
        }
    }

    #[test]
    fn two_trees_pair_is_symmetric(g in small_gnp()) {
        let n = g.node_count() as Node;
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    analysis::is_two_trees_pair(&g, a, b),
                    analysis::is_two_trees_pair(&g, b, a)
                );
            }
        }
    }

    #[test]
    fn finder_result_always_validates(g in small_gnp()) {
        if let Some((r1, r2)) = analysis::find_two_trees_roots(&g) {
            prop_assert!(analysis::is_two_trees_pair(&g, r1, r2));
            prop_assert!(!analysis::on_short_cycle(&g, r1));
            prop_assert!(!analysis::on_short_cycle(&g, r2));
        }
    }

    #[test]
    fn girth_is_min_over_node_cycles(g in small_gnp()) {
        let per_node: Vec<Option<u32>> = g
            .nodes()
            .map(|v| analysis::shortest_cycle_through(&g, v))
            .collect();
        let expect = per_node.iter().flatten().min().copied();
        prop_assert_eq!(analysis::girth(&g), expect);
    }
}

// ------------------------------------------------------------- graph6 I/O
//
// The `ftr-serve` snapshot loader trusts this parser with on-disk input,
// so the round trip and the rejection paths are pinned on randomized
// graphs — including the 4-byte header used for n > 62.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph6_round_trips_across_header_sizes(
        n in 1usize..90,
        seed in any::<u64>(),
        dens in 0u32..11,
    ) {
        let g = gen::gnp(n, dens as f64 / 10.0, seed).expect("valid p");
        let encoded = io::to_graph6(&g);
        // 1-byte header up to 62 nodes, the 126-marker 4-byte form above.
        if n <= 62 {
            prop_assert_eq!(encoded.as_bytes()[0] as usize, n + 63);
        } else {
            prop_assert_eq!(encoded.as_bytes()[0], 126);
        }
        let decoded = io::from_graph6(&encoded).expect("own encoding parses");
        prop_assert_eq!(&decoded, &g);
        // A trailing newline (files end with one) is tolerated.
        prop_assert_eq!(&io::from_graph6(&format!("{encoded}\n")).expect("newline ok"), &g);
    }

    #[test]
    fn graph6_rejects_truncations(
        n in 2usize..80,
        seed in any::<u64>(),
        cut in 1usize..8,
    ) {
        let g = gen::gnp(n, 0.5, seed).expect("valid p");
        let encoded = io::to_graph6(&g);
        prop_assume!(cut < encoded.len());
        let truncated = &encoded[..encoded.len() - cut];
        prop_assert!(
            io::from_graph6(truncated).is_err(),
            "accepted truncated input {:?}", truncated
        );
        // Extending is just as malformed as truncating.
        prop_assert!(io::from_graph6(&format!("{encoded}??")).is_err());
    }

    #[test]
    fn graph6_never_panics_on_garbage(
        bytes in prop::collection::vec(0u32..256, 0..40),
    ) {
        let garbage: String = bytes.iter().map(|&b| b as u8 as char).collect();
        // Any outcome is fine except a panic; an accepted parse must
        // describe a coherent graph that survives a re-encode round trip.
        if let Ok(g) = io::from_graph6(&garbage) {
            let reencoded = io::to_graph6(&g);
            prop_assert_eq!(&io::from_graph6(&reencoded).expect("own encoding parses"), &g);
        }
    }

    #[test]
    fn graph6_rejects_out_of_range_bytes(
        n in 2usize..70,
        seed in any::<u64>(),
        pos in 0usize..40,
        low in 0u32..63,
    ) {
        let g = gen::gnp(n, 0.5, seed).expect("valid p");
        let mut bytes = io::to_graph6(&g).into_bytes();
        prop_assume!(pos < bytes.len());
        // Bytes below 63 are outside the printable graph6 alphabet
        // (except that trailing whitespace is trimmed).
        bytes[pos] = low as u8;
        let mangled = String::from_utf8(bytes).expect("ascii");
        if let Ok(parsed) = io::from_graph6(&mangled) {
            // Only reachable when the mangled byte was trailing
            // whitespace trimmed away; the parse must then still match a
            // strict prefix encoding.
            prop_assert_eq!(io::to_graph6(&parsed), mangled.trim_end());
        }
    }
}

// ---------------------------------------------------- Generator invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn harary_graphs_are_k_connected(k in 2usize..6, extra in 1usize..12) {
        let n = k + extra + (k * (k + extra)) % 2; // ensure n*k parity works
        prop_assume!(n > k);
        if k % 2 == 1 && n % 2 == 1 {
            return Ok(()); // no Harary graph exists
        }
        let g = gen::harary(k, n).expect("valid parameters");
        prop_assert_eq!(connectivity::vertex_connectivity(&g), k, "H({}, {})", k, n);
    }

    #[test]
    fn cycles_have_girth_n(n in 3usize..16) {
        let g = gen::cycle(n).expect("valid");
        prop_assert_eq!(analysis::girth(&g), Some(n as u32));
        prop_assert_eq!(traversal::diameter(&g, None), Some(n as u32 / 2));
    }

    #[test]
    fn gnp_is_reproducible(n in 2usize..30, seed in any::<u64>(), dens in 0u32..11) {
        let p = dens as f64 / 10.0;
        let a = gen::gnp(n, p, seed).expect("valid");
        let b = gen::gnp(n, p, seed).expect("valid");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn random_regular_is_regular(n in 4usize..24, d in 2usize..4, seed in any::<u64>()) {
        prop_assume!((n * d) % 2 == 0 && d < n);
        let g = gen::random_regular(n, d, seed).expect("pairing succeeds for small d");
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), d);
        }
    }
}
