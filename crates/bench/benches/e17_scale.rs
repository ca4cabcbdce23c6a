//! E17 bench — scale: construct, freeze, compile and spot-verify kernel
//! routings on Harary graphs far beyond the n = 24 ceiling of the paper
//! experiments.
//!
//! For each n ∈ {256, 1024, 4096} on `H(4, n)` (κ = 4, t = 3) the bench
//! measures
//!
//! * **construct** — `SchemeRegistry::build_spec("kernel")`, the call
//!   the daemon, the load generator and the auditor make: one
//!   connectivity pass (κ and the minimum separator), data-parallel
//!   per-source tree routings, sequential insertion and the final
//!   freeze — with the three phases re-run on their own and printed as
//!   the split,
//! * **freeze** — the builder → CSR compaction alone, on a rebuilt
//!   builder-state copy of the same table,
//! * **compile** — `CompiledRoutes::from_routing` straight off the
//!   frozen arena,
//! * **bytes/route** — the frozen CSR footprint next to the
//!   builder-state (hash map + per-path allocation) footprint it
//!   replaces,
//! * **verify** — seeded random fault sets of the full budget `t = 3`
//!   through the compiled engine; every sampled set must satisfy
//!   Theorem 3's `(max(2t, 4), t)` bound.
//!
//! The machine-readable record lands in `BENCH_scale.json` at the
//! workspace root — only when every size ran (`E17_MAX_N` caps the
//! sweep for CI smoke runs, which must not clobber the full record).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftr_bench::scale_graph;
use ftr_core::tree::tree_routing_on;
use ftr_core::{
    par, verify_tolerance, Compile, FaultStrategy, Routing, RoutingKind, SchemeRegistry, SchemeSpec,
};
use ftr_graph::connectivity::Connectivity;
use ftr_graph::flow::SplitNetwork;
use ftr_graph::{Graph, Node, Path};
use std::hint::black_box;
use std::time::Instant;

/// Harary degree: κ = 4, so the kernel tolerates t = 3 faults.
const K: usize = 4;
const SIZES: [usize; 3] = [256, 1024, 4096];

fn max_n() -> usize {
    std::env::var("E17_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(*SIZES.last().expect("non-empty"))
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Point {
    n: usize,
    routes: usize,
    construct_s: f64,
    split: Split,
    freeze_s: f64,
    compile_s: f64,
    verify_s: f64,
    trials: usize,
    worst_diameter: Option<u32>,
    claim_diameter: u32,
    frozen_bytes_per_route: f64,
    builder_bytes_per_route: f64,
}

/// Where `construct_s` goes: the kernel build's three phases, each
/// re-run on its own through the public API.
struct Split {
    connectivity_s: f64,
    tree_routings_s: f64,
    insert_freeze_s: f64,
}

fn split(g: &Graph, routes: usize) -> Split {
    let start = Instant::now();
    let conn = Connectivity::of(g);
    let connectivity_s = start.elapsed().as_secs_f64();
    assert_eq!(conn.kappa, K);
    let sep = conn.separator.expect("H(4, n) is not complete");

    let outside: Vec<Node> = g.nodes().filter(|&x| !sep.contains(x)).collect();
    let start = Instant::now();
    let batches = par::ordered_map_with(
        outside.len(),
        threads(),
        || SplitNetwork::new(g),
        |net, i| tree_routing_on(net, outside[i], &sep, K).expect("κ disjoint paths exist"),
    );
    let tree_routings_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut routing = Routing::new(g.node_count(), RoutingKind::Bidirectional);
    for (u, v) in g.edges() {
        let edge = Path::edge(u, v).expect("edges join distinct nodes");
        routing.insert(edge).expect("no conflicts");
    }
    for p in batches.into_iter().flatten() {
        routing.insert(p).expect("no conflicts");
    }
    routing.freeze();
    let insert_freeze_s = start.elapsed().as_secs_f64();
    assert_eq!(
        routing.route_count(),
        routes,
        "the split rebuilds the table"
    );

    Split {
        connectivity_s,
        tree_routings_s,
        insert_freeze_s,
    }
}

fn measure(n: usize) -> Point {
    let g = scale_graph(n);
    let start = Instant::now();
    let built = SchemeRegistry::standard()
        .build_spec(&g, &SchemeSpec::named("kernel"))
        .expect("the kernel scheme applies to H(4, n)");
    let construct_s = start.elapsed().as_secs_f64();
    let routing = built.routing().expect("the kernel table is single-route");
    assert!(routing.is_frozen(), "constructions return frozen tables");
    let routes = routing.route_count();
    let frozen_bytes = routing.memory_bytes();
    let split = split(&g, routes);

    // Rebuild a builder-state copy of the same table to time the freeze
    // alone and to measure the footprint the CSR replaces.
    let mut rebuilt = Routing::new(n, RoutingKind::Bidirectional);
    for (s, d, view) in routing.routes() {
        if s < d {
            rebuilt.insert(view.to_path()).expect("no conflicts");
        }
    }
    let builder_bytes = rebuilt.memory_bytes();
    let start = Instant::now();
    rebuilt.freeze();
    let freeze_s = start.elapsed().as_secs_f64();
    assert_eq!(rebuilt.route_count(), routes, "freeze preserves the table");

    let start = Instant::now();
    let engine = routing.compile();
    let compile_s = start.elapsed().as_secs_f64();
    assert_eq!(engine.pair_count(), routes);

    // Spot verification through the compiled engine: seeded random
    // fault sets of the full budget t = 3.
    let trials = (8192 / n).clamp(4, 32);
    let claim = built.guarantee().claim();
    let f = claim.faults;
    assert_eq!(f, K - 1, "default budget is the full tolerance t");
    let start = Instant::now();
    let report = verify_tolerance(
        &engine,
        f,
        FaultStrategy::RandomSample { trials, seed: 17 },
        threads(),
    );
    let verify_s = start.elapsed().as_secs_f64();
    assert!(
        report.satisfies(&claim),
        "n = {n}: Theorem 3 bound violated: {report}"
    );

    Point {
        n,
        routes,
        construct_s,
        split,
        freeze_s,
        compile_s,
        verify_s,
        trials,
        worst_diameter: report.worst_diameter,
        claim_diameter: claim.diameter,
        frozen_bytes_per_route: frozen_bytes as f64 / routes as f64,
        builder_bytes_per_route: builder_bytes as f64 / routes as f64,
    }
}

fn bench(c: &mut Criterion) {
    // Criterion-style timing of the full construction at the smallest
    // size (the larger points are single-shot hand timings below).
    let mut group = c.benchmark_group("e17_scale");
    group.sample_size(10);
    let g = scale_graph(SIZES[0]);
    let (registry, spec) = (SchemeRegistry::standard(), SchemeSpec::named("kernel"));
    group.bench_with_input(
        BenchmarkId::new("kernel_construct", SIZES[0]),
        &g,
        |b, g| b.iter(|| registry.build_spec(black_box(g), &spec)),
    );
    group.finish();

    let cap = max_n();
    let mut points = Vec::new();
    for n in SIZES.into_iter().filter(|&n| n <= cap) {
        let p = measure(n);
        eprintln!(
            "e17_scale/n={}: {} routes, construct {:.3}s (connectivity pass {:.3}s + tree \
             routings {:.3}s + insert/freeze {:.3}s), freeze {:.4}s ({:.0} routes/s), \
             compile {:.3}s, verify {} trials in {:.2}s (worst diameter {:?} <= {}), \
             {:.1} B/route frozen vs {:.1} B/route builder ({:.1}x smaller)",
            p.n,
            p.routes,
            p.construct_s,
            p.split.connectivity_s,
            p.split.tree_routings_s,
            p.split.insert_freeze_s,
            p.freeze_s,
            p.routes as f64 / p.freeze_s,
            p.compile_s,
            p.trials,
            p.verify_s,
            p.worst_diameter,
            p.claim_diameter,
            p.frozen_bytes_per_route,
            p.builder_bytes_per_route,
            p.builder_bytes_per_route / p.frozen_bytes_per_route,
        );
        points.push(p);
    }

    if points.len() < SIZES.len() {
        eprintln!(
            "e17_scale: capped at n <= {cap} (E17_MAX_N); BENCH_scale.json left untouched \
             — the committed record holds the full sweep"
        );
        return;
    }

    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"n\": {},\n      \"routes\": {},\n      \"construct_s\": {:.4},\n      \
                 \"construct_split_s\": {{\"connectivity_pass\": {:.4}, \"tree_routings\": {:.4}, \
                 \"insert_freeze\": {:.4}}},\n      \
                 \"freeze_s\": {:.6},\n      \"freeze_routes_per_s\": {:.0},\n      \
                 \"compile_s\": {:.4},\n      \"compile_routes_per_s\": {:.0},\n      \
                 \"frozen_bytes_per_route\": {:.1},\n      \"builder_bytes_per_route\": {:.1},\n      \
                 \"verify\": {{\n        \"strategy\": \"random\",\n        \"trials\": {},\n        \
                 \"faults\": {},\n        \"seconds\": {:.3},\n        \"worst_diameter\": {},\n        \
                 \"claim_diameter\": {},\n        \"ok\": true\n      }}\n    }}",
                p.n,
                p.routes,
                p.construct_s,
                p.split.connectivity_s,
                p.split.tree_routings_s,
                p.split.insert_freeze_s,
                p.freeze_s,
                p.routes as f64 / p.freeze_s,
                p.compile_s,
                p.routes as f64 / p.compile_s,
                p.frozen_bytes_per_route,
                p.builder_bytes_per_route,
                p.trials,
                K - 1,
                p.verify_s,
                p.worst_diameter
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "null".into()),
                p.claim_diameter,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"e17_scale\",\n  \"graph\": \"harary(4, n) kernel routing via build_spec\",\n  \
         \"k\": {K},\n  \"threads\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        threads(),
        entries.join(",\n")
    );
    let path = format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, &json).expect("write BENCH_scale.json");
    eprintln!("e17_scale: wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
