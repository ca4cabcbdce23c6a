//! `ftr-served` — the routing query daemon.
//!
//! ```text
//! ftr-served [--graph SPEC | --snapshot FILE] [--scheme SCHEME|auto]
//!            [--faults F] [--addr HOST:PORT] [--shards N] [--batch-us N]
//!            [--no-metrics] [--no-spans] [--metrics-json FILE]
//!            [--metrics-interval-s N] [--slo-route-p99-us N]
//!            [--slo-epoch-ms N] [--write-snapshot FILE]
//!
//! Graph specs:  petersen | cycle:N | hypercube:D | harary:K,N | torus:R,C
//! Scheme specs: kernel | circular[:k=N] | tricircular[:small] |
//!               bipolar[:uni|bi,roots=A-B] | hypercube | augment | auto
//! ```
//!
//! `--scheme` takes a `ftr_core::SchemeSpec` (the same grammar the load
//! generator and experiment binaries accept) and builds the named
//! construction through the `SchemeRegistry`; `--scheme auto` lets the
//! `Planner` survey every applicable scheme and serve the winner. Either
//! way the snapshot records which scheme (and guarantee) built it, and
//! the provenance round-trips through the v2 snapshot format.
//!
//! With `--write-snapshot` the daemon builds the routing, writes the
//! snapshot file and exits — the file can then be served (or shipped)
//! with `--snapshot`.
//!
//! Metrics are on by default (`METRICS` / `TRACE n` serve them over the
//! wire); `--no-metrics` turns hot-path recording off, and
//! `--metrics-json FILE` additionally writes a flat JSON snapshot of
//! the registry every `--metrics-interval-s` seconds (default 5),
//! atomically via a temp-file rename.
//!
//! The flight recorder (`SPANS` / `SLOW` span trees) rides on metrics
//! and is likewise on by default; `--no-spans` disables just the span
//! tracing. `--slo-route-p99-us` and `--slo-epoch-ms` set the stall
//! watchdog's burn-rate targets (route p99 latency and epoch-advance
//! latency respectively).

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use ftr_core::{Planner, PlannerRequest, SchemeRegistry, SchemeSpec};
use ftr_graph::Graph;
use ftr_serve::spec::parse_graph_spec;
use ftr_serve::{RoutingSnapshot, Server, ServerConfig};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ftr-served: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    // Anchor the monotonic span/trace clock at process start so every
    // recorded timestamp is relative to daemon launch.
    ftr_obs::monotonic_nanos();
    let mut graph_spec = String::from("harary:5,24");
    let mut snapshot_file: Option<String> = None;
    let mut scheme_spec = String::from("kernel");
    let mut faults: Option<usize> = None;
    let mut addr: SocketAddr = "127.0.0.1:7077".parse().expect("valid default");
    let mut config = ServerConfig::default();
    let mut write_snapshot: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut metrics_interval = Duration::from_secs(5);

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--graph" => graph_spec = value("--graph")?,
            "--snapshot" => snapshot_file = Some(value("--snapshot")?),
            "--scheme" => scheme_spec = value("--scheme")?,
            "--faults" => {
                faults = Some(
                    value("--faults")?
                        .parse()
                        .map_err(|e| format!("--faults: {e}"))?,
                )
            }
            "--addr" => {
                addr = value("--addr")?
                    .parse()
                    .map_err(|e| format!("--addr: {e}"))?
            }
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--batch-us" => {
                let us: u64 = value("--batch-us")?
                    .parse()
                    .map_err(|e| format!("--batch-us: {e}"))?;
                config.batch_window = Duration::from_micros(us);
            }
            "--write-snapshot" => write_snapshot = Some(value("--write-snapshot")?),
            "--no-metrics" => config.metrics = false,
            "--no-spans" => config.spans = false,
            "--slo-route-p99-us" => {
                config.slo.route_p99_us = value("--slo-route-p99-us")?
                    .parse()
                    .map_err(|e| format!("--slo-route-p99-us: {e}"))?
            }
            "--slo-epoch-ms" => {
                config.slo.epoch_ms = value("--slo-epoch-ms")?
                    .parse()
                    .map_err(|e| format!("--slo-epoch-ms: {e}"))?
            }
            "--metrics-json" => metrics_json = Some(value("--metrics-json")?),
            "--metrics-interval-s" => {
                let s: u64 = value("--metrics-interval-s")?
                    .parse()
                    .map_err(|e| format!("--metrics-interval-s: {e}"))?;
                metrics_interval = Duration::from_secs(s.max(1));
            }
            "--help" | "-h" => {
                println!(
                    "usage: ftr-served [--graph SPEC | --snapshot FILE] \
                     [--scheme SCHEME|auto] [--faults F] [--addr HOST:PORT] [--shards N] \
                     [--batch-us N] [--no-metrics] [--no-spans] [--metrics-json FILE] \
                     [--metrics-interval-s N] [--slo-route-p99-us N] [--slo-epoch-ms N] \
                     [--write-snapshot FILE]\n\
                     graph specs:  petersen | cycle:N | hypercube:D | harary:K,N | torus:R,C\n\
                     scheme specs: kernel | circular[:k=N] | tricircular[:small] | \
                     bipolar[:uni|bi] | hypercube | augment | auto"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }

    let snapshot = match snapshot_file {
        Some(path) => RoutingSnapshot::load(&path).map_err(|e| e.to_string())?,
        None => {
            let (graph, label) = parse_graph_spec(&graph_spec)?;
            let built = build_scheme(&graph, &scheme_spec, faults)?;
            println!(
                "built {} on {label}: guarantees ({}, {}) per {}",
                built.spec(),
                built.guarantee().diameter,
                built.guarantee().faults,
                built.guarantee().theorem
            );
            RoutingSnapshot::from_built(built).map_err(|e| e.to_string())?
        }
    };

    if let Some(path) = write_snapshot {
        snapshot.save(&path).map_err(|e| e.to_string())?;
        println!(
            "wrote snapshot ({} nodes, {} routes{}) to {path}",
            snapshot.node_count(),
            snapshot.routing().route_count(),
            match snapshot.scheme() {
                Some(tag) => format!(", scheme {}", tag.spec),
                None => String::new(),
            }
        );
        return Ok(());
    }

    config.addr = addr;
    let server = Server::bind(snapshot.into_shared(), config).map_err(|e| format!("bind: {e}"))?;
    println!("ftr-served listening on {}", server.local_addr());
    if let Some(path) = metrics_json {
        spawn_metrics_writer(server.handle(), path, metrics_interval);
    }
    server.run().map_err(|e| format!("serve: {e}"))
}

/// Periodically snapshots the metric registry as flat JSON. The thread
/// is detached — it exits with the process (the write interval bounds
/// how stale the final file can be), and write failures are reported
/// once without killing the daemon.
fn spawn_metrics_writer(handle: ftr_serve::ServerHandle, path: String, interval: Duration) {
    std::thread::spawn(move || {
        let tmp = format!("{path}.tmp");
        let mut warned = false;
        loop {
            std::thread::sleep(interval);
            let json = handle.obs().render_json();
            let result =
                std::fs::write(&tmp, json.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = result {
                if !warned {
                    eprintln!("ftr-served: metrics-json write to {path} failed: {e}");
                    warned = true;
                }
            }
        }
    });
}

/// Builds the requested scheme through the registry, or lets the
/// planner pick (`auto`). Only single-route schemes are servable, so
/// `auto` plans with that restriction.
fn build_scheme(
    graph: &Graph,
    scheme: &str,
    faults: Option<usize>,
) -> Result<ftr_core::BuiltRouting, String> {
    if scheme == "auto" {
        let request = faults
            .map_or_else(PlannerRequest::full_tolerance, PlannerRequest::tolerate)
            .single_routes();
        let plan = Planner::new()
            .plan(graph, &request)
            .map_err(|e| e.to_string())?;
        for candidate in &plan.candidates {
            println!("plan: {candidate}");
        }
        return Ok(plan.winner);
    }
    let mut spec: SchemeSpec = scheme.parse()?;
    if faults.is_some() {
        spec.params.faults = faults;
    }
    SchemeRegistry::standard()
        .build_spec(graph, &spec)
        .map_err(|e| e.to_string())
}
