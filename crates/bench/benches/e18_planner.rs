//! E18 bench — planner selection: for each suite graph the `Planner`
//! surveys the whole `SchemeRegistry`, builds the applicable candidates
//! data-parallel, and ranks a winner; the bench times the full plan and
//! re-verifies the winner's advertised guarantee through the compiled
//! engine (seeded random fault sets at the guaranteed budget).
//!
//! Suite: `H(4, 256)` (the e17 scale substrate), the hypercube `Q6`,
//! `Torus(3, 4)` and Petersen — one graph per applicability regime. The
//! machine-readable record (winner spec/theorem/guarantee, per-candidate
//! outcomes, plan wall-clock, verification) lands in
//! `BENCH_planner.json` at the workspace root — only when the whole
//! suite ran (`E18_MAX_N` caps the sweep for CI smoke runs, which must
//! not clobber the full record).

use criterion::{criterion_group, criterion_main, Criterion};
use ftr_bench::scale_graph;
use ftr_core::{CandidateOutcome, FaultStrategy, Planner, PlannerRequest};
use ftr_graph::{gen, Graph};
use std::hint::black_box;
use std::time::Instant;

fn max_n() -> usize {
    std::env::var("E18_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn suite() -> Vec<(&'static str, Graph)> {
    vec![
        ("petersen", gen::petersen()),
        ("torus(3x4)", gen::torus(3, 4).expect("valid")),
        ("hypercube(6)", gen::hypercube(6).expect("valid")),
        ("harary(4,256)", scale_graph(256)),
    ]
}

struct Point {
    graph: &'static str,
    n: usize,
    faults: usize,
    plan_s: f64,
    winner_spec: String,
    winner_theorem: &'static str,
    winner_diameter: u32,
    winner_routes: usize,
    built: usize,
    considered: usize,
    candidates: Vec<String>,
    verify_trials: usize,
    verify_s: f64,
    worst_diameter: Option<u32>,
    ok: bool,
}

fn measure(name: &'static str, g: &Graph) -> Point {
    let n = g.node_count();
    // The serving scenario: single-route tables only, full budget t
    // (the planner's own connectivity pass supplies it).
    let request = PlannerRequest::full_tolerance().single_routes();
    let planner = Planner::new();

    let start = Instant::now();
    let plan = planner.plan(g, &request).expect("every suite graph plans");
    let plan_s = start.elapsed().as_secs_f64();

    let built = plan
        .candidates
        .iter()
        .filter(|c| matches!(c.outcome, CandidateOutcome::Built(_)))
        .count();
    let candidates: Vec<String> = plan.candidates.iter().map(|c| c.to_string()).collect();

    let guarantee = *plan.winner.guarantee();
    let trials = (8192 / n).clamp(8, 64);
    let start = Instant::now();
    let report = plan
        .winner
        .verify(FaultStrategy::RandomSample { trials, seed: 23 }, threads());
    let verify_s = start.elapsed().as_secs_f64();
    let ok = report.satisfies(&guarantee.claim());
    assert!(
        ok,
        "{name}: planner winner violated its guarantee: {report}"
    );

    Point {
        graph: name,
        n,
        faults: guarantee.faults,
        plan_s,
        winner_spec: plan.winner.spec().to_string(),
        winner_theorem: guarantee.theorem.token(),
        winner_diameter: guarantee.diameter,
        winner_routes: guarantee.routes,
        built,
        considered: plan.candidates.len(),
        candidates,
        verify_trials: trials,
        verify_s,
        worst_diameter: report.worst_diameter,
        ok,
    }
}

fn bench(c: &mut Criterion) {
    // Criterion-style timing of one full plan on the smallest graph.
    let mut group = c.benchmark_group("e18_planner");
    group.sample_size(10);
    let g = gen::petersen();
    let request = PlannerRequest::tolerate(2).single_routes();
    group.bench_function("plan_petersen", |b| {
        b.iter(|| {
            Planner::new()
                .plan(black_box(&g), black_box(&request))
                .expect("petersen plans")
        })
    });
    group.finish();

    let cap = max_n();
    let full = suite();
    let total = full.len();
    let mut points = Vec::new();
    for (name, g) in full.into_iter().filter(|(_, g)| g.node_count() <= cap) {
        let p = measure(name, &g);
        eprintln!(
            "e18_planner/{}: n={}, f={}, winner {} ({} d={} routes={}) in {:.3}s \
             [{} built / {} considered]; verify {} trials in {:.2}s, worst diameter {:?}",
            p.graph,
            p.n,
            p.faults,
            p.winner_spec,
            p.winner_theorem,
            p.winner_diameter,
            p.winner_routes,
            p.plan_s,
            p.built,
            p.considered,
            p.verify_trials,
            p.verify_s,
            p.worst_diameter,
        );
        points.push(p);
    }

    if points.len() < total {
        eprintln!(
            "e18_planner: capped at n <= {cap} (E18_MAX_N); BENCH_planner.json left \
             untouched — the committed record holds the full sweep"
        );
        return;
    }

    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            let candidates: Vec<String> = p
                .candidates
                .iter()
                .map(|c| format!("        {:?}", c))
                .collect();
            format!(
                "    {{\n      \"graph\": \"{}\",\n      \"n\": {},\n      \"faults\": {},\n      \
                 \"plan_s\": {:.4},\n      \"winner\": {{\n        \"spec\": \"{}\",\n        \
                 \"theorem\": \"{}\",\n        \"diameter\": {},\n        \"routes\": {}\n      }},\n      \
                 \"built\": {},\n      \"considered\": {},\n      \"candidates\": [\n{}\n      ],\n      \
                 \"verify\": {{\n        \"strategy\": \"random\",\n        \"trials\": {},\n        \
                 \"seconds\": {:.3},\n        \"worst_diameter\": {},\n        \"ok\": {}\n      }}\n    }}",
                p.graph,
                p.n,
                p.faults,
                p.plan_s,
                p.winner_spec,
                p.winner_theorem,
                p.winner_diameter,
                p.winner_routes,
                p.built,
                p.considered,
                candidates.join(",\n"),
                p.verify_trials,
                p.verify_s,
                p.worst_diameter
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "null".into()),
                p.ok,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"e18_planner\",\n  \"request\": \"tolerate t, single-route tables\",\n  \
         \"threads\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        threads(),
        entries.join(",\n")
    );
    let path = format!("{}/../../BENCH_planner.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, &json).expect("write BENCH_planner.json");
    eprintln!("e18_planner: wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
