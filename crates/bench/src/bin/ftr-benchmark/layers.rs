//! The in-process layer walk of the traced run: every layer of the
//! stack is called through its public functions on the workload's own
//! graph, inside harness-side spans, and the layer metrics are read off
//! those spans.
//!
//! Four request trees are walked: `build` (graph → scheme → freeze →
//! compile), `advance` (engine toggle → epoch publish, once per fault
//! event), `route_batch` (parse → cache pass → route → render, once per
//! 256-request batch on an epoch with faults live) and `certify` (audit
//! search → certificate check). Spans around single sub-microsecond
//! calls carry the cost of their own clock reads, so that cost is
//! calibrated with empty spans and subtracted from per-call metrics.

use std::collections::BTreeMap;
use std::hint::black_box;

use ftr_audit::{audit, check, Certificate, SearchConfig, SearchMode};
use ftr_core::{Compile, RouteTable, Routing, RoutingKind, ToleranceClaim};
use ftr_graph::spec::parse_graph_spec;
use ftr_graph::{BfsScratch, Node, NodeSet};
use ftr_serve::{proto, query, EpochStore, FaultEvent, Ingestor, RouteReply, RoutingSnapshot};

use crate::gen::{self, Entry};
use crate::oracle::build_scheme;
use crate::spans::Recorder;
use crate::spec::{Churn, PairMix, Served, MAX_DOWN, PIPELINE_DEPTH};

/// Fault events walked through the `advance` tree.
const ADVANCE_EVENTS: usize = 64;
/// Batches walked through the `route_batch` tree.
const ROUTE_BATCHES: usize = 16;
/// Route-table lookups timed in one span.
const LOOKUPS: usize = 200_000;
/// Fault sets in the timed diameter batch (fewer on large graphs, where
/// one evaluation takes a large fraction of a second).
fn diameter_sets(n: usize) -> usize {
    (8192 / n).clamp(4, 32)
}

/// What the walk is run on.
pub struct LayerSpec<'a> {
    pub graph: &'a str,
    /// How route endpoints are drawn for the `route_batch` tree.
    pub mix: PairMix,
    /// Graph, claim and mode of the `certify` tree.
    pub audit_graph: &'a str,
    pub audit_claim: (u32, usize),
    pub audit_mode: SearchMode,
}

impl LayerSpec<'_> {
    /// The walk of a served workload: everything on the served graph,
    /// certifying the workload's `TOLERATE` claim the way the verb does.
    pub fn of_served(w: &Served) -> LayerSpec<'static> {
        LayerSpec {
            graph: w.graph,
            mix: w.mix,
            audit_graph: w.graph,
            audit_claim: w.tolerate,
            audit_mode: SearchMode::Certify,
        }
    }
}

fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// Walks the four trees and returns the in-process layer metrics by
/// name.
pub fn walk(
    spec: &LayerSpec<'_>,
    seed: u64,
    rec: &mut Recorder,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();

    // Cost of one span around nothing: two clock reads and the record.
    for _ in 0..10_000 {
        rec.span("harness.calibrate", 1, |_| ());
    }
    let overhead_ns = rec.per_op_ns("harness.calibrate");
    let per_call = |rec: &Recorder, name: &str| (rec.per_op_ns(name) - overhead_ns).max(0.0);

    // build: graph.gen / core.scheme.build / core.routing.freeze /
    // core.engine.compile.
    let (built, engine) = rec.span("build", 1, |rec| {
        let (graph, _) = rec.span("graph.gen", 1, |_| parse_graph_spec(spec.graph))?;
        let built = rec.span("core.scheme.build", 1, |_| build_scheme(&graph))?;
        let routing = built.routing().ok_or("kernel builds a single routing")?;
        // Re-freezing a builder-state copy of the same table times the
        // freeze alone, as bench `e17_scale` does; making the copy is
        // harness work and gets a span of its own.
        let mut rebuilt = rec.span("harness.builder_copy", 1, |_| {
            let mut copy = Routing::new(routing.node_count(), RoutingKind::Bidirectional);
            for (s, d, view) in routing.routes() {
                if s < d {
                    copy.insert(view.to_path()).map_err(|e| e.to_string())?;
                }
            }
            Ok::<_, String>(copy)
        })?;
        rec.span("core.routing.freeze", 1, |_| rebuilt.freeze());
        if rebuilt.route_count() != routing.route_count() {
            return Err("refreeze changed the route count".to_string());
        }
        let engine = rec.span("core.engine.compile", 1, |_| routing.compile());
        Ok((built, engine))
    })?;
    let routing = built.routing().ok_or("kernel builds a single routing")?;
    let n = routing.node_count();
    let routes = routing.route_count();
    m.insert("graph.gen_s", rec.total_s("graph.gen"));
    m.insert("core.scheme.construct_s", rec.total_s("core.scheme.build"));
    m.insert("core.scheme.routes", routes as f64);
    m.insert("core.routing.freeze_s", rec.total_s("core.routing.freeze"));
    m.insert(
        "core.routing.bytes_per_route",
        routing.memory_bytes() as f64 / routes as f64,
    );
    m.insert("core.engine.compile_s", rec.total_s("core.engine.compile"));

    // Route-table lookups over routed pairs.
    let routed: Vec<(Node, Node)> = engine.pairs().to_vec();
    rec.span("core.routing.lookup", LOOKUPS as u64, |_| {
        for i in 0..LOOKUPS {
            let (x, y) = routed[i % routed.len()];
            black_box(routing.route(black_box(x), black_box(y)));
        }
    });
    m.insert(
        "core.routing.lookup_ns",
        rec.per_op_ns("core.routing.lookup"),
    );

    // Verification: one diameter on one surviving matrix, then a batch.
    let sets = gen::fault_sets(n, MAX_DOWN, diameter_sets(n), seed);
    let mut state = engine.epoch_state();
    for v in sets[0].iter() {
        state.insert(&engine, v);
    }
    let mut scratch = BfsScratch::new();
    // Once unrecorded, so the scratch buffers are grown before timing.
    black_box(
        state
            .live()
            .diameter_with(Some(state.faults()), &mut scratch),
    );
    rec.span("graph.diameter", 1, |_| {
        black_box(
            state
                .live()
                .diameter_with(Some(state.faults()), &mut scratch),
        )
    });
    m.insert(
        "graph.diameter_us",
        ns_to_us(rec.per_op_ns("graph.diameter")),
    );
    rec.span("core.engine.diameter_batch", sets.len() as u64, |_| {
        black_box(engine.surviving_diameter_batch(&sets))
    });
    m.insert(
        "core.engine.diameter_batch_sets_per_s",
        sets.len() as f64 / rec.total_s("core.engine.diameter_batch"),
    );

    // advance: core.engine.toggle / serve.epoch.publish per event, then
    // the same events through the ingestor's batch entry point.
    let events = gen::churn_schedule(
        n,
        built.core_nodes(),
        Churn::Uniform { hz: 1.0 },
        ADVANCE_EVENTS,
        seed,
    );
    let mut state = engine.epoch_state();
    let store = EpochStore::new(&state);
    for &event in &events {
        rec.span("advance", 1, |rec| {
            rec.span("core.engine.toggle", 1, |_| match event {
                FaultEvent::Fail(v) => state.insert(&engine, v),
                FaultEvent::Repair(v) => state.remove(&engine, v),
            });
            rec.span("serve.epoch.publish", 1, |_| store.publish(&state));
        });
    }
    m.insert(
        "core.engine.toggle_us",
        ns_to_us(per_call(rec, "core.engine.toggle")),
    );
    m.insert(
        "serve.epoch.publish_us",
        ns_to_us(per_call(rec, "serve.epoch.publish")),
    );
    let ingest_store = EpochStore::new(&engine.epoch_state());
    let mut ingestor = Ingestor::new(&engine, ingest_store);
    for &event in &events {
        rec.span("serve.ingest.apply_batch", 1, |_| {
            ingestor.apply_batch(&[event])
        });
    }
    m.insert(
        "serve.ingest.apply_batch_us",
        ns_to_us(per_call(rec, "serve.ingest.apply_batch")),
    );

    // route_batch on the epoch the schedule's first MAX_DOWN failures
    // leave behind: parse / route_many / query.route / render. The
    // first pass meets a cold cache, the second finds every pair cached.
    let snapshot = RoutingSnapshot::from_built(built.clone()).map_err(|e| e.to_string())?;
    let mut state = engine.epoch_state();
    for event in events.iter().take(MAX_DOWN) {
        if let FaultEvent::Fail(v) = *event {
            state.insert(&engine, v);
        }
    }
    let epoch = EpochStore::new(&state).load();
    let stream = gen::request_stream(spec.mix, None, n, seed, "layer-walk", 0);
    let mut by_kind = [(0u64, 0u64); 3];
    let mut pairs: Vec<(Node, Node)> = Vec::with_capacity(PIPELINE_DEPTH);
    for batch in 0..ROUTE_BATCHES {
        let (from, to) = (batch * PIPELINE_DEPTH, (batch + 1) * PIPELINE_DEPTH);
        let lines: Vec<&str> = std::str::from_utf8(stream.frame(from, to))
            .map_err(|e| e.to_string())?
            .lines()
            .collect();
        rec.span("route_batch", PIPELINE_DEPTH as u64, |rec| {
            rec.span("serve.proto.parse", lines.len() as u64, |_| {
                pairs.clear();
                for line in &lines {
                    if let Ok(proto::Request::Route { x, y }) = proto::parse_request(line) {
                        pairs.push((x, y));
                    }
                }
            });
            rec.span("serve.epoch.route_many", pairs.len() as u64, |rec| {
                epoch.cache().route_many(
                    &pairs,
                    |x, y| {
                        let reply = rec.span("serve.query.route", 1, |_| {
                            query::route(&snapshot, &epoch, x, y)
                        });
                        let took = rec.spans().last().map_or(0, |s| s.duration_ns());
                        match reply {
                            Ok(reply) => {
                                let kind = match reply {
                                    RouteReply::Direct(_) => 0,
                                    RouteReply::Detour(_) => 1,
                                    RouteReply::Unreachable => 2,
                                };
                                by_kind[kind].0 += took;
                                by_kind[kind].1 += 1;
                                rec.span("serve.proto.render", 1, |_| proto::render_route(&reply))
                            }
                            Err(e) => format!("ERR {e}"),
                        }
                    },
                    |_, reply, _| {
                        black_box(reply);
                    },
                );
            });
        });
    }
    if pairs.len() != PIPELINE_DEPTH {
        return Err("generated ROUTE lines did not parse".into());
    }
    let misses: u64 = by_kind.iter().map(|k| k.1).sum();
    let kind_us = |(ns, count): (u64, u64)| {
        if count == 0 {
            0.0
        } else {
            ns_to_us((ns as f64 / count as f64 - overhead_ns).max(0.0))
        }
    };
    m.insert("serve.proto.parse_ns", rec.per_op_ns("serve.proto.parse"));
    m.insert("serve.proto.render_ns", per_call(rec, "serve.proto.render"));
    m.insert("serve.query.route_direct_us", kind_us(by_kind[0]));
    m.insert("serve.query.route_detour_us", kind_us(by_kind[1]));
    m.insert(
        "serve.query.detour_share",
        by_kind[1].1 as f64 / misses.max(1) as f64,
    );
    m.insert(
        "serve.query.unreachable_share",
        by_kind[2].1 as f64 / misses.max(1) as f64,
    );
    let all_pairs: Vec<(Node, Node)> = stream.entries[..ROUTE_BATCHES * PIPELINE_DEPTH]
        .iter()
        .filter_map(|e| match *e {
            Entry::Route(x, y) => Some((x, y)),
            Entry::Probe(_) => None,
        })
        .collect();
    let mut hits = 0u64;
    rec.span(
        "serve.epoch.route_many.warm",
        all_pairs.len() as u64,
        |_| {
            for chunk in all_pairs.chunks(PIPELINE_DEPTH) {
                query::route_batch(&snapshot, &epoch, chunk, |_, reply, hit| {
                    black_box(reply);
                    hits += u64::from(hit);
                });
            }
        },
    );
    if hits != all_pairs.len() as u64 {
        return Err(format!("warm pass hit {hits} of {} pairs", all_pairs.len()));
    }
    m.insert(
        "serve.epoch.hit_ns",
        rec.per_op_ns("serve.epoch.route_many.warm"),
    );

    // certify: audit.search / audit.check.
    let (d, f) = spec.audit_claim;
    let claim = ToleranceClaim {
        diameter: d,
        faults: f,
    };
    let (audit_graph, _) = parse_graph_spec(spec.audit_graph)?;
    let audit_built = if spec.audit_graph == spec.graph {
        built
    } else {
        build_scheme(&audit_graph)?
    };
    let audit_engine = audit_built
        .routing()
        .ok_or("kernel builds a single routing")?
        .compile();
    let base = NodeSet::new(audit_engine.node_count());
    let config = SearchConfig {
        mode: spec.audit_mode,
        threads: 1,
        ..SearchConfig::default()
    };
    let report = rec.span("certify", 1, |rec| {
        let report = rec.span("audit.search", 1, |_| {
            audit(
                &audit_engine,
                claim,
                audit_built.core_nodes(),
                &base,
                &config,
            )
        });
        rec.span("audit.check", 1, |_| {
            let text = Certificate::for_scheme(
                &audit_graph,
                audit_built.spec(),
                audit_built.guarantee().theorem,
                &audit_engine,
                &base,
                config.mode,
                &report,
            )
            .serialize();
            check(&text)
                .map(|_| ())
                .map_err(|e| format!("certificate check: {e}"))
        })?;
        Ok::<_, String>(report)
    })?;
    if !report.holds() || report.covered() != report.space {
        return Err(format!(
            "audit of ({d}, {f}) on {} did not hold",
            spec.audit_graph
        ));
    }
    m.insert("audit.search_s", rec.total_s("audit.search"));
    m.insert("audit.evals", report.visited as f64);
    m.insert(
        "audit.pruned_share",
        report.pruned_sets as f64 / report.space as f64,
    );
    m.insert("audit.check_s", rec.total_s("audit.check"));
    Ok(m)
}
