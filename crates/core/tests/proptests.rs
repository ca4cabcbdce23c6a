//! Property-based tests for the routing layer: route-table semantics
//! against a model, surviving-graph definition checks, tree-routing
//! audits and construction bounds on randomized networks.

use std::collections::HashMap;

use ftr_core::tree::{is_tree_routing, tree_routing};
use ftr_core::{
    verify_tolerance, Compile, FaultStrategy, GraphFacts, KernelRouting, MultiRouting, Planner,
    PlannerRequest, RouteTable, Routing, RoutingError, RoutingKind, SchemeParams, SchemeRegistry,
};
use ftr_graph::{connectivity, gen, Graph, Node, NodeSet, Path};
use proptest::prelude::*;

// ------------------------------------------------------------ Route table

/// Random simple path over nodes `0..n`.
fn simple_path(n: Node) -> impl Strategy<Value = Path> {
    prop::collection::btree_set(0..n, 2..6).prop_flat_map(|set| {
        let nodes: Vec<Node> = set.into_iter().collect();
        Just(nodes)
            .prop_shuffle()
            .prop_map(|nodes| Path::new(nodes).expect("distinct nodes form a simple path"))
    })
}

proptest! {
    #[test]
    fn routing_matches_hashmap_model_unidirectional(
        paths in prop::collection::vec(simple_path(16), 0..40)
    ) {
        let mut routing = Routing::new(16, RoutingKind::Unidirectional);
        let mut model: HashMap<(Node, Node), Vec<Node>> = HashMap::new();
        for p in paths {
            let key = (p.source(), p.target());
            match model.get(&key) {
                Some(existing) if existing != p.nodes() => {
                    prop_assert_eq!(
                        routing.insert(p),
                        Err(RoutingError::RouteConflict { src: key.0, dst: key.1 })
                    );
                }
                _ => {
                    routing.insert(p.clone()).expect("no conflict");
                    model.insert(key, p.nodes().to_vec());
                }
            }
        }
        prop_assert_eq!(routing.route_count(), model.len());
        for ((s, d), nodes) in &model {
            let view = routing.route(*s, *d).expect("inserted");
            prop_assert_eq!(&view.nodes(), nodes);
        }
    }

    #[test]
    fn bidirectional_reverse_is_always_the_same_path(
        paths in prop::collection::vec(simple_path(16), 0..30)
    ) {
        let mut routing = Routing::new(16, RoutingKind::Bidirectional);
        for p in paths {
            let _ = routing.insert(p); // conflicts allowed; invariant must hold regardless
        }
        for (s, d, view) in routing.routes() {
            let back = routing.route(d, s).expect("bidirectional closure");
            let mut fwd = view.nodes();
            fwd.reverse();
            prop_assert_eq!(back.nodes(), fwd);
        }
    }

    #[test]
    fn surviving_graph_matches_definition(
        paths in prop::collection::vec(simple_path(14), 1..25),
        faults in prop::collection::btree_set(0u32..14, 0..5),
    ) {
        let mut routing = Routing::new(14, RoutingKind::Unidirectional);
        for p in paths {
            let _ = routing.insert(p);
        }
        let fs = NodeSet::from_nodes(14, faults.iter().copied());
        let s = routing.surviving(&fs);
        // definition: arc x -> y iff route exists, both endpoints alive,
        // and no route node faulty
        for x in 0..14u32 {
            for y in 0..14u32 {
                if x == y { continue; }
                let expect = match routing.route(x, y) {
                    Some(view) => {
                        !fs.contains(x) && !fs.contains(y) && !view.is_affected_by(&fs)
                    }
                    None => false,
                };
                prop_assert_eq!(s.has_edge(x, y), expect, "pair ({}, {})", x, y);
            }
        }
        prop_assert_eq!(s.surviving_count(), 14 - fs.len());
    }

    #[test]
    fn multirouting_budget_is_enforced(
        paths in prop::collection::vec(simple_path(12), 0..40),
        budget in 1usize..4,
    ) {
        let mut m = MultiRouting::new(12, RoutingKind::Unidirectional, budget);
        for p in paths {
            let _ = m.insert(p);
        }
        for (_, _, views) in m.route_bundles() {
            prop_assert!(views.len() <= budget);
        }
    }
}

// ------------------------------------------- Frozen CSR vs reference model

/// Builds the same route set twice — once left as a builder, once
/// frozen — plus a plain `HashMap` model, from random paths.
fn build_with_model(
    n: usize,
    kind: RoutingKind,
    paths: &[Path],
) -> (Routing, Routing, HashMap<(Node, Node), Vec<Node>>) {
    let mut routing = Routing::new(n, kind);
    let mut model: HashMap<(Node, Node), Vec<Node>> = HashMap::new();
    for p in paths {
        if routing.insert(p.clone()).is_ok() {
            model.insert((p.source(), p.target()), p.nodes().to_vec());
            if kind == RoutingKind::Bidirectional {
                let mut rev = p.nodes().to_vec();
                rev.reverse();
                model.insert((p.target(), p.source()), rev);
            }
        }
    }
    let mut frozen = routing.clone();
    frozen.freeze();
    (routing, frozen, model)
}

proptest! {
    // A frozen CSR table answers `route`, `route_count` and `routes`
    // identically to the HashMap reference model (and to its own
    // builder state), for both routing kinds.
    #[test]
    fn frozen_csr_matches_hashmap_model(
        paths in prop::collection::vec(simple_path(16), 0..40),
        bidirectional in any::<bool>(),
    ) {
        let kind = if bidirectional { RoutingKind::Bidirectional } else { RoutingKind::Unidirectional };
        let (builder, frozen, model) = build_with_model(16, kind, &paths);
        prop_assert!(frozen.is_frozen());
        prop_assert_eq!(frozen.route_count(), model.len());
        prop_assert_eq!(frozen.route_count(), builder.route_count());
        for x in 0..16u32 {
            for y in 0..16u32 {
                match model.get(&(x, y)) {
                    Some(nodes) => {
                        prop_assert_eq!(&frozen.route(x, y).expect("routed").nodes(), nodes);
                        prop_assert_eq!(&builder.route(x, y).expect("routed").nodes(), nodes);
                    }
                    None => {
                        prop_assert!(frozen.route(x, y).is_none());
                        prop_assert!(builder.route(x, y).is_none());
                    }
                }
            }
        }
        // routes() iterates both states in identical (sorted) order.
        let a: Vec<(Node, Node, Vec<Node>)> =
            builder.routes().map(|(s, d, v)| (s, d, v.nodes())).collect();
        let b: Vec<(Node, Node, Vec<Node>)> =
            frozen.routes().map(|(s, d, v)| (s, d, v.nodes())).collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(builder.stats(), frozen.stats());
    }

    // Frozen and builder tables produce arc-for-arc identical surviving
    // graphs under every sampled fault set, directly and through the
    // compiled engine.
    #[test]
    fn frozen_csr_surviving_graphs_match(
        paths in prop::collection::vec(simple_path(14), 1..30),
        faults in prop::collection::btree_set(0u32..14, 0..5),
        bidirectional in any::<bool>(),
    ) {
        let kind = if bidirectional { RoutingKind::Bidirectional } else { RoutingKind::Unidirectional };
        let (builder, frozen, _) = build_with_model(14, kind, &paths);
        let fs = NodeSet::from_nodes(14, faults.iter().copied());
        let a = builder.surviving(&fs);
        let b = frozen.surviving(&fs);
        let ea = ftr_core::Compile::compile(&builder).surviving(&fs);
        let eb = ftr_core::Compile::compile(&frozen).surviving(&fs);
        for x in 0..14u32 {
            for y in 0..14u32 {
                if x == y { continue; }
                prop_assert_eq!(a.has_edge(x, y), b.has_edge(x, y), "({}, {})", x, y);
                prop_assert_eq!(a.has_edge(x, y), ea.has_edge(x, y), "engine ({}, {})", x, y);
                prop_assert_eq!(a.has_edge(x, y), eb.has_edge(x, y), "frozen engine ({}, {})", x, y);
            }
        }
        prop_assert_eq!(a.diameter(), b.diameter());
    }

    // Re-inserting every existing route (in either orientation, for
    // bidirectional tables) into a frozen table is idempotent and does
    // not thaw it; genuinely conflicting paths are still rejected.
    #[test]
    fn frozen_reinsert_is_idempotent(
        paths in prop::collection::vec(simple_path(12), 1..25),
        bidirectional in any::<bool>(),
        flip in any::<bool>(),
    ) {
        let kind = if bidirectional { RoutingKind::Bidirectional } else { RoutingKind::Unidirectional };
        let (_, mut frozen, model) = build_with_model(12, kind, &paths);
        let routes = frozen.route_count();
        let arena_before: (Vec<u32>, Vec<Node>) = {
            let (off, arena) = frozen.arena().expect("frozen");
            (off.to_vec(), arena.to_vec())
        };
        for nodes in model.values() {
            let mut nodes = nodes.clone();
            if flip && kind == RoutingKind::Bidirectional {
                nodes.reverse();
            }
            frozen.insert(Path::new(nodes).unwrap()).expect("idempotent");
        }
        prop_assert!(frozen.is_frozen(), "re-inserts must not thaw");
        prop_assert_eq!(frozen.route_count(), routes);
        let (off, arena) = frozen.arena().expect("still frozen");
        prop_assert_eq!(off, &arena_before.0[..], "arena untouched");
        prop_assert_eq!(arena, &arena_before.1[..]);
    }
}

// ------------------------------------------------------------ Tree routing

fn connected_gnp() -> impl Strategy<Value = Graph> {
    (6usize..20, 0u64..100_000, 3u32..8)
        .prop_map(|(n, seed, dens)| gen::gnp(n, dens as f64 / 10.0, seed).expect("valid p"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_routing_output_always_audits_clean(
        g in connected_gnp(),
        picks in prop::collection::btree_set(1u32..20, 1..6),
        k in 1usize..4,
    ) {
        let n = g.node_count();
        let targets = NodeSet::from_nodes(
            n,
            picks.into_iter().filter(|&v| (v as usize) < n),
        );
        if targets.is_empty() {
            return Ok(());
        }
        match tree_routing(&g, 0, &targets, k) {
            Ok(paths) => {
                prop_assert_eq!(paths.len(), k);
                prop_assert!(is_tree_routing(&g, 0, &targets, &paths));
            }
            Err(RoutingError::InsufficientConnectivity { needed, found }) => {
                prop_assert_eq!(needed, k);
                prop_assert!(found < k);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    #[test]
    fn lemma_1_holds_for_built_tree_routings(
        g in connected_gnp(),
        faults in prop::collection::btree_set(1u32..20, 0..3),
    ) {
        // Build a tree routing with k = |faults| + 1 paths; if it exists,
        // at least one path must dodge the faults (Lemma 1).
        let n = g.node_count();
        let kappa = connectivity::vertex_connectivity(&g);
        prop_assume!(kappa >= 1);
        let sep = match connectivity::min_separator(&g) {
            Some(s) if !s.is_empty() => s,
            _ => return Ok(()), // complete or disconnected
        };
        prop_assume!(!sep.contains(0));
        let fs = NodeSet::from_nodes(n, faults.into_iter().filter(|&v| (v as usize) < n));
        let k = fs.len() + 1;
        if let Ok(paths) = tree_routing(&g, 0, &sep, k) {
            prop_assert!(
                paths.iter().any(|p| !p.is_affected_by(&fs)),
                "Lemma 1 violated: {} faults killed {} disjoint paths",
                fs.len(),
                paths.len()
            );
        }
    }
}

// ------------------------------------------------------- Construction bounds

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_bound_on_random_harary_graphs(
        k in 2usize..5,
        extra in 2usize..10,
        fault_seed in any::<u64>(),
    ) {
        let n = k + extra + (k * (k + extra)) % 2;
        prop_assume!(n > k && !(k % 2 == 1 && n % 2 == 1));
        let g = gen::harary(k, n).expect("valid");
        let kernel = KernelRouting::build(&g).expect("connected");
        let t = kernel.tolerated_faults();
        prop_assert_eq!(t, k - 1);
        // one random fault set of size t
        let mut faults = NodeSet::new(n);
        let mut x = fault_seed;
        while faults.len() < t {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            faults.insert((x % n as u64) as Node);
        }
        let d = kernel.routing().surviving(&faults).diameter();
        let claim = kernel.guarantee_theorem_3().claim();
        prop_assert!(
            matches!(d, Some(d) if d <= claim.diameter),
            "faults {:?} gave diameter {:?} > {}", faults, d, claim.diameter
        );
    }

    #[test]
    fn kernel_theorem_4_on_random_fault_halves(
        k in 3usize..6,
        extra in 2usize..8,
        fault_seed in any::<u64>(),
    ) {
        let n = k + extra + (k * (k + extra)) % 2;
        prop_assume!(n > k && !(k % 2 == 1 && n % 2 == 1));
        let g = gen::harary(k, n).expect("valid");
        let kernel = KernelRouting::build(&g).expect("connected");
        let f = kernel.tolerated_faults() / 2;
        let mut faults = NodeSet::new(n);
        let mut x = fault_seed | 1;
        while faults.len() < f {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            faults.insert((x % n as u64) as Node);
        }
        let d = kernel.routing().surviving(&faults).diameter();
        prop_assert!(matches!(d, Some(d) if d <= 4), "Theorem 4 violated: {:?}", d);
    }

    #[test]
    fn verifier_strategies_are_consistent(
        k in 2usize..4,
        extra in 2usize..8,
    ) {
        // Sampling and adversarial search can never exceed the
        // exhaustive worst case.
        let n = k + extra + (k * (k + extra)) % 2;
        prop_assume!(n > k && !(k % 2 == 1 && n % 2 == 1));
        let g = gen::harary(k, n).expect("valid");
        let kernel = KernelRouting::build(&g).expect("connected");
        let t = kernel.tolerated_faults();
        let ex = verify_tolerance(kernel.routing(), t, FaultStrategy::Exhaustive, 2);
        for strategy in [
            FaultStrategy::RandomSample { trials: 30, seed: 5 },
            FaultStrategy::Adversarial { restarts: 2, seed: 5 },
        ] {
            let other = verify_tolerance(kernel.routing(), t, strategy, 2);
            let exceeds = match (ex.worst_diameter, other.worst_diameter) {
                (None, _) => false,
                (Some(a), Some(b)) => b > a,
                (Some(_), None) => true,
            };
            prop_assert!(!exceeds, "{strategy:?} beat exhaustive");
        }
    }
}

// ----------------------------------------------------------- Planner honesty

/// Graphs spanning every applicability regime of the scheme registry:
/// Harary (kernel/circular territory), cycles (two-trees, tri-circular
/// at larger n), the Petersen graph, a genuine hypercube and a torus.
fn scheme_suite_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        Just(gen::petersen()),
        Just(gen::hypercube(3).expect("valid")),
        Just(gen::torus(3, 4).expect("valid")),
        (3usize..5, 5usize..14).prop_map(|(k, extra)| {
            let n = k + extra + (k * (k + extra)) % 2;
            gen::harary(k, n).expect("valid")
        }),
        (8usize..40).prop_map(|n| gen::cycle(n).expect("valid")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Planner honesty, part 1: every scheme the registry declares
    // applicable must (a) actually build, (b) advertise the same
    // (d, f) claim it offered pre-build, and (c) survive measurement —
    // sampled fault sets through the compiled engine never exceed the
    // advertised surviving-diameter bound.
    #[test]
    fn applicable_schemes_never_violate_their_guarantee(
        g in scheme_suite_graph(),
        seed in any::<u64>(),
    ) {
        let registry = SchemeRegistry::standard();
        let params = SchemeParams::default();
        let facts = GraphFacts::new(&g);
        for scheme in registry.iter() {
            let Ok(offered) = scheme.applicability(&facts, &params) else { continue };
            let built = match scheme.build(&facts, &params) {
                Ok(b) => b,
                Err(e) => return Err(TestCaseError::fail(format!(
                    "{} declared applicable but failed to build: {e}", scheme.name()
                ))),
            };
            prop_assert_eq!(
                built.guarantee().claim(), offered.claim(),
                "{} advertised a different claim after building", scheme.name()
            );
            let report = built.verify(FaultStrategy::RandomSample { trials: 10, seed }, 2);
            prop_assert!(
                report.satisfies(&built.guarantee().claim()),
                "{} violated its advertised {}: {report}",
                scheme.name(), built.guarantee()
            );
        }
    }

    // Planner honesty, part 2: the ranked winner (scheme, spec and
    // guarantee) is identical across thread counts — candidate builds
    // are deterministic and the ranking consumes them in registry
    // order, so parallelism only changes wall-clock.
    #[test]
    fn planner_winner_is_thread_count_invariant(
        g in scheme_suite_graph(),
        budget in 0usize..4,
        single in any::<bool>(),
    ) {
        let t = connectivity::vertex_connectivity(&g).saturating_sub(1);
        let mut request = PlannerRequest::tolerate(budget.min(t));
        if single {
            request = request.single_routes();
        }
        let base = Planner::new().threads(1).plan(&g, &request);
        for threads in [2, 5] {
            let other = Planner::new().threads(threads).plan(&g, &request);
            match (&base, &other) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.winner.scheme(), b.winner.scheme());
                    prop_assert_eq!(a.winner.spec(), b.winner.spec());
                    prop_assert_eq!(a.winner.guarantee(), b.winner.guarantee());
                    prop_assert_eq!(a.candidates.len(), b.candidates.len());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.candidates.len(), b.candidates.len()),
                _ => return Err(TestCaseError::fail(format!(
                    "planner outcome differs between 1 and {threads} threads"
                ))),
            }
        }
    }
}

// ------------------------------------------------------- Batched engine
//
// `surviving_diameter_batch` on the compiled engine reuses one scratch
// matrix and touches only the routes through each fault set; these
// tests pin it bit-identical to the one-shot engine path and to the
// legacy route-walk definition, across interleaved batches (scratch
// restoration) and ragged fault sets.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_diameter_matches_one_shot_and_route_walk(
        g in connected_gnp(),
        fault_picks in prop::collection::vec(
            prop::collection::btree_set(0u32..20, 0..5),
            1..10
        ),
    ) {
        prop_assume!(ftr_graph::traversal::is_connected(&g, None));
        let n = g.node_count();
        let kernel = KernelRouting::build(&g).expect("connected");
        let routing = kernel.routing();
        let engine = routing.compile();
        let sets: Vec<NodeSet> = fault_picks
            .iter()
            .map(|picks| {
                NodeSet::from_nodes(n, picks.iter().copied().filter(|&v| (v as usize) < n))
            })
            .collect();

        let batched = engine.surviving_diameter_batch(&sets);
        prop_assert_eq!(batched.len(), sets.len());
        for (faults, &batch_d) in sets.iter().zip(&batched) {
            prop_assert_eq!(batch_d, engine.surviving_diameter(faults), "one-shot engine");
            prop_assert_eq!(
                batch_d,
                routing.surviving(faults).diameter(),
                "route-walk reference"
            );
        }

        // The trait's default batch (used by uncompiled tables) is the
        // one-shot map by construction; pin the engine override to it.
        prop_assert_eq!(batched.clone(), routing.surviving_diameter_batch(&sets));

        // Scratch reuse across batches is stateless: re-running the
        // same batch, and running it element-reversed, changes nothing.
        prop_assert_eq!(batched.clone(), engine.surviving_diameter_batch(&sets));
        let reversed: Vec<NodeSet> = sets.iter().rev().cloned().collect();
        let mut re = engine.surviving_diameter_batch(&reversed);
        re.reverse();
        prop_assert_eq!(batched, re);
    }
}
