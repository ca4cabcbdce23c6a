//! `loadgen` — drives an in-process `ftr-serve` daemon over loopback
//! with concurrent query clients and live fault churn, and records the
//! sustained throughput in `BENCH_serve.json`.
//!
//! ```text
//! loadgen [--clients N] [--seconds S] [--churn-hz R] [--fault-budget F]
//!         [--pipeline B] [--shards N] [--graph harary:K,N|petersen|cycle:N]
//!         [--scheme SCHEME|auto] [--assert-qps Q] [--no-metrics] [--no-spans]
//!         [--compare-metrics] [--compare-spans] [--out FILE]
//! ```
//!
//! `--scheme` takes the shared `ftr_core::SchemeSpec` grammar (the same
//! one `ftr-served` accepts) and serves that construction; `auto` lets
//! the scheme planner pick. The churn client rotates through a scenario
//! mix drawn from `ftr_sim::faults` and `ftr_sim::churn`: uniform random
//! victims, victims targeted at the served scheme's core nodes
//! (separator / concentrator / poles, [`FaultPlan::TargetedPool`] — the
//! adversarial case), and organic fail/repair processes
//! ([`ChurnStream`]). Query clients send pipelined bursts of `ROUTE`
//! with sprinkled `DIAM`/`EPOCH`/`TOLERATE`.
//!
//! The server's metric recording is on by default (the production
//! configuration — the qps floor is asserted with observability paying
//! its way). `--no-metrics` turns it off; `--compare-metrics` runs the
//! whole measurement twice, metrics-off then metrics-on, and records
//! both throughputs plus the overhead percentage in the JSON (the
//! `--assert-qps` floor applies to the metrics-on run).
//!
//! Flight-recorder span tracing rides on metrics and is likewise on by
//! default; `--no-spans` disables just the tracing, and
//! `--compare-spans` mirrors `--compare-metrics` with a spans-off
//! (metrics still on) baseline, recording the span-tracing overhead
//! pair in the JSON. Burst latency is recorded per verb — every query
//! in a pipelined burst is attributed the burst's round-trip time
//! under its own verb's histogram.
//!
//! Exits nonzero on any protocol error, unclean shutdown, or a missed
//! `--assert-qps` floor.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use ftr_bench::load::{push_route, Histogram};
use ftr_core::{BuiltRouting, Planner, PlannerRequest, SchemeRegistry, SchemeSpec};
use ftr_graph::{Graph, Node};
use ftr_serve::spec::parse_graph_spec;
use ftr_serve::{Client, ReplyLines, RoutingSnapshot, Server, ServerConfig};
use ftr_sim::churn::{ChurnConfig, ChurnStream};
use ftr_sim::faults::FaultPlan;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Args {
    clients: usize,
    seconds: f64,
    churn_hz: f64,
    fault_budget: usize,
    pipeline: usize,
    shards: usize,
    graph: String,
    scheme: String,
    assert_qps: Option<f64>,
    metrics: bool,
    compare_metrics: bool,
    spans: bool,
    compare_spans: bool,
    out: Option<String>,
}

/// Verbs with their own burst-latency histogram, in histogram-slot
/// order (`ROUTE` first — its slot feeds the headline latency line).
const VERB_NAMES: [&str; 4] = ["route", "diam", "epoch", "tolerate"];
const VERB_ROUTE: usize = 0;
const VERB_DIAM: usize = 1;
const VERB_EPOCH: usize = 2;
const VERB_TOLERATE: usize = 3;

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            clients: 8,
            seconds: 3.0,
            churn_hz: 200.0,
            fault_budget: 2,
            // Deep pipelining is the design point of the batched serve
            // loop: each burst becomes one read, one epoch acquisition,
            // one cache pass and one coalesced write on the server.
            pipeline: 256,
            shards: 2,
            graph: "harary:5,24".to_string(),
            scheme: "kernel".to_string(),
            assert_qps: None,
            metrics: true,
            compare_metrics: false,
            spans: true,
            compare_spans: false,
            out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--clients" => args.clients = parse(&value("--clients")?)?,
                "--seconds" => args.seconds = parse(&value("--seconds")?)?,
                "--churn-hz" => args.churn_hz = parse(&value("--churn-hz")?)?,
                "--fault-budget" => args.fault_budget = parse(&value("--fault-budget")?)?,
                "--pipeline" => args.pipeline = parse(&value("--pipeline")?)?,
                "--shards" => args.shards = parse(&value("--shards")?)?,
                "--graph" => args.graph = value("--graph")?,
                "--scheme" => args.scheme = value("--scheme")?,
                "--assert-qps" => args.assert_qps = Some(parse(&value("--assert-qps")?)?),
                "--no-metrics" => args.metrics = false,
                "--compare-metrics" => args.compare_metrics = true,
                "--no-spans" => args.spans = false,
                "--compare-spans" => args.compare_spans = true,
                "--out" => args.out = Some(value("--out")?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if args.clients == 0 || args.pipeline == 0 || args.seconds <= 0.0 {
            return Err("--clients, --pipeline and --seconds must be positive".into());
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(token: &str) -> Result<T, String> {
    token.parse().map_err(|_| format!("bad value {token:?}"))
}

#[derive(Default)]
struct Totals {
    route: AtomicU64,
    direct: AtomicU64,
    detour: AtomicU64,
    unreachable: AtomicU64,
    diam: AtomicU64,
    epoch: AtomicU64,
    tolerate: AtomicU64,
    errors: AtomicU64,
}

/// One query client's tallies, merged into the shared [`Totals`] once
/// when the client finishes.
#[derive(Default)]
struct LocalCounts {
    route: u64,
    direct: u64,
    detour: u64,
    unreachable: u64,
    diam: u64,
    epoch: u64,
    tolerate: u64,
    errors: u64,
}

impl LocalCounts {
    fn merge_into(&self, totals: &Totals) {
        totals.route.fetch_add(self.route, Ordering::Relaxed);
        totals.direct.fetch_add(self.direct, Ordering::Relaxed);
        totals.detour.fetch_add(self.detour, Ordering::Relaxed);
        totals
            .unreachable
            .fetch_add(self.unreachable, Ordering::Relaxed);
        totals.diam.fetch_add(self.diam, Ordering::Relaxed);
        totals.epoch.fetch_add(self.epoch, Ordering::Relaxed);
        totals.tolerate.fetch_add(self.tolerate, Ordering::Relaxed);
        totals.errors.fetch_add(self.errors, Ordering::Relaxed);
    }
}

/// The churn client: rotates scenarios, keeps at most `budget` nodes
/// down, paces events at `hz`.
// A one-call-site driver fn; a config struct would only rename the args.
#[allow(clippy::too_many_arguments)]
fn run_churn(
    addr: std::net::SocketAddr,
    n: usize,
    pool: Vec<Node>,
    budget: usize,
    hz: f64,
    stop: &AtomicBool,
    events_out: &AtomicU64,
    errors: &AtomicU64,
) {
    let mut client = Client::connect(addr).expect("churn client connects");
    let tick = Duration::from_secs_f64(1.0 / hz.max(1e-6));
    // Organic churn tuned so a step usually touches at least one node.
    let mut organic = ChurnStream::new(
        n,
        ChurnConfig {
            fail_rate: (budget as f64 / n as f64).min(0.5),
            repair_time: 3,
            steps: u32::MAX,
            seed: 0xC0FFEE,
        },
    );
    let mut down: Vec<Node> = Vec::new();
    let mut ticks: u64 = 0;
    let mut scenario = 0usize;
    let mut rng = SmallRng::seed_from_u64(0x10AD);
    while !stop.load(Ordering::Relaxed) {
        // Rotate the scenario every 64 ticks (ticks advance by exactly
        // one per loop, so no rotation boundary can be stepped over).
        if ticks.is_multiple_of(64) {
            scenario = (scenario + 1) % 3;
        }
        ticks += 1;
        let sent = match scenario {
            // Scenario "organic": replay a ChurnStream step as live
            // traffic (budget-capped).
            0 => {
                let step = organic.step();
                let mut sent = 0u64;
                for &v in &step.repaired {
                    if let Some(i) = down.iter().position(|&d| d == v) {
                        down.swap_remove(i);
                        check(client.repair(v), errors);
                        sent += 1;
                    }
                }
                for &v in &step.failed {
                    if down.len() < budget && !down.contains(&v) {
                        down.push(v);
                        check(client.fail(v), errors);
                        sent += 1;
                    }
                }
                sent
            }
            // Scenarios "uniform" and "targeted": fail plan-drawn
            // victims up to the budget, then repair the oldest.
            s => {
                if down.len() >= budget {
                    let v = down.remove(0);
                    check(client.repair(v), errors);
                    1
                } else {
                    let plan = if s == 1 {
                        FaultPlan::Uniform {
                            count: budget.min(n),
                            seed: rng.next_u64(),
                        }
                    } else {
                        FaultPlan::TargetedPool {
                            pool: pool.clone(),
                            count: budget,
                            seed: rng.next_u64(),
                        }
                    };
                    match plan.materialize(n).iter().find(|v| !down.contains(v)) {
                        Some(v) => {
                            down.push(v);
                            check(client.fail(v), errors);
                            1
                        }
                        None => 0,
                    }
                }
            }
        };
        events_out.fetch_add(sent, Ordering::Relaxed);
        std::thread::sleep(tick);
    }
    // Leave the server fault-free so shutdown state is deterministic.
    for v in down.drain(..) {
        check(client.repair(v), errors);
    }
    let _ = client.quit();
}

fn check(result: std::io::Result<bool>, errors: &AtomicU64) {
    if !matches!(result, Ok(true)) {
        errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// One query client: pipelined bursts of ROUTE with sprinkled
/// DIAM/EPOCH/TOLERATE, until the deadline. Requests are framed into a
/// reused byte buffer and replies land in a reused [`ReplyLines`], so
/// the steady-state loop allocates nothing; each burst's round-trip
/// time is attributed to every query in it (the latency a pipelined
/// caller actually waits), recorded under that query's own verb.
fn run_client(
    addr: std::net::SocketAddr,
    n: usize,
    seed: u64,
    pipeline: usize,
    deadline: Instant,
    totals: &Totals,
    latency: &Mutex<[Histogram; VERB_NAMES.len()]>,
) {
    let mut client = Client::connect(addr).expect("query client connects");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut requests: Vec<u8> = Vec::with_capacity(pipeline * 16);
    let mut verb_tags: Vec<usize> = Vec::with_capacity(pipeline);
    let mut replies = ReplyLines::new();
    let mut local: [Histogram; VERB_NAMES.len()] = Default::default();
    let mut counts = LocalCounts::default();
    let mut burst: u64 = 0;
    while Instant::now() < deadline {
        requests.clear();
        verb_tags.clear();
        burst += 1;
        for i in 0..pipeline {
            // ~1 non-ROUTE probe per burst keeps the mix honest without
            // moving the throughput needle.
            if i == 0 && burst % 4 == 1 {
                let (line, verb) = match burst % 12 {
                    1 => (b"DIAM\n".as_slice(), VERB_DIAM),
                    5 => (b"EPOCH\n".as_slice(), VERB_EPOCH),
                    _ => (b"TOLERATE 8 1\n".as_slice(), VERB_TOLERATE),
                };
                requests.extend_from_slice(line);
                verb_tags.push(verb);
                continue;
            }
            let x = rng.gen_range(0..n) as Node;
            let mut y = rng.gen_range(0..n) as Node;
            if y == x {
                y = (y + 1) % n as Node;
            }
            push_route(&mut requests, x as u64, y as u64);
            verb_tags.push(VERB_ROUTE);
        }
        let sent = Instant::now();
        if client
            .pipeline_raw(&requests, pipeline, &mut replies)
            .is_err()
        {
            totals.errors.fetch_add(1, Ordering::Relaxed);
            break;
        }
        let rtt = sent.elapsed().as_nanos() as u64;
        let mut verb_counts = [0u64; VERB_NAMES.len()];
        for (&verb, reply) in verb_tags.iter().zip(replies.iter()) {
            // Thread-local tallies; one atomic merge per client at the
            // end keeps the reply loop free of shared-cacheline traffic.
            let counter = if reply.starts_with(b"OK DIRECT") {
                &mut counts.direct
            } else if reply.starts_with(b"OK DETOUR") {
                &mut counts.detour
            } else if reply.starts_with(b"OK UNREACHABLE") {
                &mut counts.unreachable
            } else if reply.starts_with(b"OK DIAM") {
                &mut counts.diam
            } else if reply.starts_with(b"OK EPOCH") {
                &mut counts.epoch
            } else if reply.starts_with(b"OK TOLERATE") {
                &mut counts.tolerate
            } else {
                eprintln!(
                    "loadgen: protocol error: {:?}",
                    String::from_utf8_lossy(reply)
                );
                &mut counts.errors
            };
            *counter += 1;
            verb_counts[verb] += 1;
        }
        for (hist, &count) in local.iter_mut().zip(&verb_counts) {
            hist.record_n(rtt, count);
        }
        counts.route += verb_counts[VERB_ROUTE];
    }
    counts.merge_into(totals);
    let mut shared = latency.lock().expect("latency histogram poisoned");
    for (shared, local) in shared.iter_mut().zip(&local) {
        shared.merge(local);
    }
    drop(shared);
    let _ = client.quit();
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the served scheme through the shared registry/planner path
/// (the same `SchemeSpec` grammar `ftr-served --scheme` accepts).
fn build_scheme(graph: &Graph, scheme: &str) -> Result<BuiltRouting, String> {
    if scheme == "auto" {
        let request = PlannerRequest::full_tolerance().single_routes();
        let plan = Planner::new()
            .plan(graph, &request)
            .map_err(|e| e.to_string())?;
        return Ok(plan.winner);
    }
    let spec: SchemeSpec = scheme.parse()?;
    SchemeRegistry::standard()
        .build_spec(graph, &spec)
        .map_err(|e| e.to_string())
}

/// Everything one measurement run produces (counters already loaded out
/// of their atomics, server shut down).
struct Measurement {
    elapsed: f64,
    route: u64,
    total: u64,
    direct: u64,
    detour: u64,
    unreachable: u64,
    diam: u64,
    epoch: u64,
    tolerate: u64,
    churn_events: u64,
    epochs: u64,
    hit_rate: f64,
    errors: u64,
    latency: [Histogram; VERB_NAMES.len()],
}

impl Measurement {
    fn route_qps(&self) -> f64 {
        self.route as f64 / self.elapsed
    }

    fn total_qps(&self) -> f64 {
        self.total as f64 / self.elapsed
    }
}

/// One complete load-test run against a fresh server on `snapshot`:
/// spawn, drive churn + query clients until the deadline, shut down,
/// collect. `metrics`/`spans` set the server's hot-path recording and
/// flight-recorder flags.
fn measure(
    args: &Args,
    snapshot: &std::sync::Arc<RoutingSnapshot>,
    n: usize,
    core: &[Node],
    metrics: bool,
    spans: bool,
) -> Result<Measurement, String> {
    let server = Server::bind(
        std::sync::Arc::clone(snapshot),
        ServerConfig {
            shards: args.shards,
            metrics,
            spans,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let spawned = server.spawn();

    let totals = Totals::default();
    let latency: Mutex<[Histogram; VERB_NAMES.len()]> = Mutex::new(Default::default());
    let stop_churn = AtomicBool::new(false);
    let churn_events = AtomicU64::new(0);
    let barrier = Barrier::new(args.clients + 1);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            run_churn(
                addr,
                n,
                core.to_vec(),
                args.fault_budget,
                args.churn_hz,
                &stop_churn,
                &churn_events,
                &totals.errors,
            )
        });
        for c in 0..args.clients {
            let totals = &totals;
            let latency = &latency;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                run_client(
                    addr,
                    n,
                    0xBEEF + c as u64,
                    args.pipeline,
                    deadline,
                    totals,
                    latency,
                );
            });
        }
        barrier.wait();
        // Stop churn at the deadline; the scope's implicit join then
        // waits for every client to drain its final burst.
        if let Some(left) = deadline.checked_duration_since(Instant::now()) {
            std::thread::sleep(left);
        }
        stop_churn.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Give the churn thread's final repairs a moment, then stop the
    // server and collect its counters.
    let epochs = handle.store().current_id();
    let counters = handle.obs();
    let cache_hits = counters.cache_hits.get();
    let server_queries = counters.queries.get();
    let server_errors = counters.protocol_errors.get();
    spawned
        .shutdown_and_join()
        .map_err(|e| format!("unclean shutdown: {e}"))?;

    let total: u64 = [
        &totals.direct,
        &totals.detour,
        &totals.unreachable,
        &totals.diam,
        &totals.epoch,
        &totals.tolerate,
    ]
    .iter()
    .map(|c| c.load(Ordering::Relaxed))
    .sum();
    Ok(Measurement {
        elapsed,
        route: totals.route.load(Ordering::Relaxed),
        total,
        direct: totals.direct.load(Ordering::Relaxed),
        detour: totals.detour.load(Ordering::Relaxed),
        unreachable: totals.unreachable.load(Ordering::Relaxed),
        diam: totals.diam.load(Ordering::Relaxed),
        epoch: totals.epoch.load(Ordering::Relaxed),
        tolerate: totals.tolerate.load(Ordering::Relaxed),
        churn_events: churn_events.load(Ordering::Relaxed),
        epochs,
        hit_rate: if server_queries > 0 {
            cache_hits as f64 / server_queries as f64
        } else {
            0.0
        },
        errors: server_errors + totals.errors.load(Ordering::Relaxed),
        latency: latency.into_inner().expect("latency histogram poisoned"),
    })
}

fn run() -> Result<(), String> {
    // Anchor the shared monotonic clock at process start so span/trace
    // timestamps scraped from the in-process server line up with ours.
    ftr_obs::monotonic_nanos();
    let args = Args::parse()?;
    let (graph, family_label) = parse_graph_spec(&args.graph)?;
    let built = build_scheme(&graph, &args.scheme)?;
    let scheme_label = built.spec().to_string();
    let graph_label = format!("{family_label} {scheme_label} routing");
    // The served network is the built routing's network (the augment
    // scheme serves the augmented graph, which has the same node set).
    let n = built.graph().node_count();
    let core: Vec<Node> = built.core_nodes().to_vec();
    let snapshot = RoutingSnapshot::from_built(built)
        .map_err(|e| e.to_string())?
        .into_shared();

    // With --compare-metrics, a metrics-off baseline runs first (same
    // duration, fresh server) so the JSON records the observability
    // overhead; the floor-asserted run below is always metrics-on.
    let baseline = if args.compare_metrics {
        let m = measure(&args, &snapshot, n, &core, false, false)?;
        eprintln!(
            "loadgen: metrics-off baseline: {:.0} route qps ({:.0} total)",
            m.route_qps(),
            m.total_qps()
        );
        Some(m)
    } else {
        None
    };
    // --compare-spans mirrors that with a spans-off (metrics still on)
    // baseline, isolating what the flight recorder itself costs.
    let spans_baseline = if args.compare_spans {
        let m = measure(&args, &snapshot, n, &core, true, false)?;
        eprintln!(
            "loadgen: spans-off baseline: {:.0} route qps ({:.0} total)",
            m.route_qps(),
            m.total_qps()
        );
        Some(m)
    } else {
        None
    };
    let metrics_on = args.metrics || args.compare_metrics || args.compare_spans;
    let spans_on = metrics_on && (args.spans || args.compare_spans);
    let m = measure(&args, &snapshot, n, &core, metrics_on, spans_on)?;

    let Measurement {
        elapsed,
        route,
        total,
        churn_events,
        epochs,
        hit_rate,
        errors,
        ..
    } = m;
    let route_qps = m.route_qps();
    let total_qps = m.total_qps();
    let latency = &m.latency[VERB_ROUTE];
    let (p50, p95, p99) = (
        latency.quantile_us(0.50),
        latency.quantile_us(0.95),
        latency.quantile_us(0.99),
    );
    // Per-verb burst-latency quantiles (a verb that never ran renders
    // zeros — the TOLERATE probe only fires on some burst schedules).
    let verb_latency = VERB_NAMES
        .iter()
        .zip(&m.latency)
        .map(|(name, h)| {
            format!(
                "\"{name}\": {{ \"count\": {}, \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1} }}",
                h.count(),
                h.quantile_us(0.50),
                h.quantile_us(0.95),
                h.quantile_us(0.99)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    // The metrics-on/off pair records what observability costs: the
    // overhead is (off - on) / off as a percentage of the baseline.
    let overhead = baseline.as_ref().map(|b| {
        let (off, on) = (b.route_qps(), route_qps);
        let pct = if off > 0.0 {
            (off - on) / off * 100.0
        } else {
            0.0
        };
        format!(
            "\n  \"metrics_off_route_qps\": {off:.0},\n  \
             \"metrics_off_total_qps\": {:.0},\n  \
             \"metrics_overhead_pct\": {pct:.1},",
            b.total_qps()
        )
    });
    // Same shape for the span-tracing pair.
    let span_overhead = spans_baseline.as_ref().map(|b| {
        let (off, on) = (b.route_qps(), route_qps);
        let pct = if off > 0.0 {
            (off - on) / off * 100.0
        } else {
            0.0
        };
        format!(
            "\n  \"spans_off_route_qps\": {off:.0},\n  \
             \"spans_off_total_qps\": {:.0},\n  \
             \"span_overhead_pct\": {pct:.1},",
            b.total_qps()
        )
    });
    let json = format!(
        "{{\n  \"bench\": \"loadgen\",\n  \"graph\": \"{graph_label}\",\n  \
         \"scheme\": \"{scheme_label}\",\n  \"n\": {n},\n  \
         \"clients\": {},\n  \"pipeline_depth\": {},\n  \"seconds\": {elapsed:.2},\n  \
         \"churn_hz\": {},\n  \"fault_budget\": {},\n  \"metrics\": {metrics_on},\n  \
         \"spans\": {spans_on},{}{}\n  \
         \"route_queries\": {route},\n  \
         \"route_qps\": {route_qps:.0},\n  \"total_queries\": {total},\n  \
         \"total_qps\": {total_qps:.0},\n  \
         \"route_latency_us\": {{ \"p50\": {p50:.1}, \"p95\": {p95:.1}, \"p99\": {p99:.1} }},\n  \
         \"verb_latency_us\": {{ {verb_latency} }},\n  \
         \"verbs\": {{ \"direct\": {}, \"detour\": {}, \"unreachable\": {}, \
         \"diam\": {}, \"epoch\": {}, \"tolerate\": {} }},\n  \
         \"direct\": {},\n  \"detour\": {},\n  \
         \"unreachable\": {},\n  \"churn_events\": {churn_events},\n  \
         \"epochs_advanced\": {epochs},\n  \
         \"cache_hit_rate\": {hit_rate:.3},\n  \"protocol_errors\": {errors}\n}}\n",
        args.clients,
        args.pipeline,
        args.churn_hz,
        args.fault_budget,
        overhead.unwrap_or_default(),
        span_overhead.unwrap_or_default(),
        m.direct,
        m.detour,
        m.unreachable,
        m.diam,
        m.epoch,
        m.tolerate,
        m.direct,
        m.detour,
        m.unreachable,
    );
    // Default to the workspace root of the build tree; if the binary
    // runs outside its checkout (path gone), fall back to the cwd so a
    // successful load test never fails on bookkeeping.
    let out = match &args.out {
        Some(path) => path.clone(),
        None => {
            let workspace = format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR"));
            if std::path::Path::new(env!("CARGO_MANIFEST_DIR")).is_dir() {
                workspace
            } else {
                "BENCH_serve.json".to_string()
            }
        }
    };
    std::fs::write(&out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!(
        "loadgen: {route} route queries in {elapsed:.2}s = {route_qps:.0}/s \
         ({total_qps:.0}/s total, burst latency p50 {p50:.0}us p95 {p95:.0}us p99 {p99:.0}us, \
         {epochs} epochs, cache hit rate {:.1}%, {churn_events} churn events)",
        hit_rate * 100.0,
    );
    eprintln!("loadgen: wrote {out}");

    let all_errors = errors
        + baseline.as_ref().map_or(0, |b| b.errors)
        + spans_baseline.as_ref().map_or(0, |b| b.errors);
    if all_errors > 0 {
        return Err(format!("{all_errors} protocol errors observed"));
    }
    if epochs == 0
        || baseline.as_ref().is_some_and(|b| b.epochs == 0)
        || spans_baseline.as_ref().is_some_and(|b| b.epochs == 0)
    {
        return Err("no epoch ever advanced — churn never reached the server".into());
    }
    if let Some(floor) = args.assert_qps {
        if route_qps < floor {
            return Err(format!(
                "route throughput {route_qps:.0}/s below the asserted floor {floor:.0}/s"
            ));
        }
    }
    Ok(())
}
