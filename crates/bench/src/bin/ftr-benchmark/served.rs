//! The served workloads: each trial starts a fresh `ftr-served` child,
//! times its set-up, drives a closed-loop and an open-loop phase over
//! loopback with the workload's fault process on a second connection,
//! and holds every reply to the oracle.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ftr_graph::Node;
use ftr_serve::Client;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::daemon::{self, Daemon, Pinning};
use crate::gen::{self, RequestStream};
use crate::layers::{self, LayerSpec};
use crate::oracle::Reference;
use crate::report::WorkloadReport;
use crate::spans::Recorder;
use crate::spec::{
    Better, Churn, Served, COLD_STARTS, PER_LAYER, PROBE_SLICE, ROUTE_P99, SCHEME, SERVED_E2E,
    SHORT_SETUP_S,
};
use crate::stats::{self, Trials};
use crate::wire::{self, Check, ChurnThread, Tally};

/// Victims of the quiet probe cycle (each gives one FAIL-visible and two
/// TOLERATE samples).
const QUIET_VICTIMS: usize = 48;

/// FAIL events a trial's load phases must see (one per two churn ticks)
/// for `fail_visible_p50_us` to be taken from them.
const MIN_LOAD_FAILS: f64 = 50.0;

/// Rungs of the traced run's rate ladder: the frozen rate times 1.5 to
/// these powers.
const LADDER_POWERS: std::ops::RangeInclusive<i32> = -2..=3;

/// A rung passes while its median latency stays under this multiple of
/// the untraced median at the frozen rate. (The median, not the p99: on
/// this kind of host the p99 at any rate is set by vCPU wake-up tails,
/// so a p99 limit fails the first rung or none.)
const LADDER_LIMIT: f64 = 10.0;

/// Settings of one run of a workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of each timed phase.
    pub window: Duration,
    pub trials: usize,
    /// Where the traced run writes its span file.
    pub trace_out: PathBuf,
    /// The CPUs harness and daemons are pinned to, if there are two.
    pub pinning: Option<Pinning>,
}

struct Context<'a> {
    workload: &'a Served,
    config: &'a RunConfig,
    binary: &'a Path,
    reference: Reference,
    sweep: RequestStream,
}

impl Context<'_> {
    fn request_stream(&self, phase: &str, trial: u64) -> RequestStream {
        let w = self.workload;
        gen::request_stream(
            w.mix,
            w.probes_in_mix.then_some(w.tolerate),
            self.reference.n(),
            self.config.seed,
            phase,
            trial,
        )
    }
}

/// What one trial measured.
#[derive(Default)]
struct Trial {
    setup_s: f64,
    /// Over the whole closed-loop phase and the whole open-loop phase;
    /// the traced run compares these between trials.
    route_qps: f64,
    route_p50_us: f64,
    /// The best slice of the trial for each of the four gated timings,
    /// in the order of `SERVED_E2E`: `route_qps`, `route_p50_us`,
    /// `fail_visible_p50_us`, `tolerate_p50_us`.
    best: [f64; 4],
    peak_rss_mb: f64,
    tally: Tally,
    problems: Vec<String>,
    latency_samples: usize,
    /// Open-loop p90, p99 and p99.9, for the ledger's context line.
    tail_us: [f64; 3],
    /// Filled by traced trials only.
    scrape: Option<Scrape>,
}

/// The daemon's counters and CPU time at one moment.
struct Sample {
    metrics: BTreeMap<String, f64>,
    stats: BTreeMap<String, f64>,
    server_cpu_s: f64,
}

impl Sample {
    fn take(client: &mut Client, daemon: &Daemon) -> Result<Sample, String> {
        Ok(Sample {
            metrics: wire::metrics(client).map_err(io_err("METRICS"))?,
            stats: wire::stats(client).map_err(io_err("STATS"))?,
            server_cpu_s: daemon.cpu_s()?,
        })
    }

    /// How much `key` of `METRICS` grew since `earlier`.
    fn metric_since(&self, earlier: &Sample, key: &str) -> f64 {
        value(&self.metrics, key) - value(&earlier.metrics, key)
    }

    /// How much `key` of `STATS` grew since `earlier`.
    fn stat_since(&self, earlier: &Sample, key: &str) -> f64 {
        value(&self.stats, key) - value(&earlier.stats, key)
    }
}

fn value(series: &BTreeMap<String, f64>, key: &str) -> f64 {
    series.get(key).copied().unwrap_or(0.0)
}

/// Daemon- and client-side numbers a traced trial adds.
struct Scrape {
    /// Before and after the closed-loop phase, and at the end of the
    /// trial.
    before: Sample,
    after: Sample,
    end: Sample,
    client_cpu_s: f64,
    send_lag_p99_us: f64,
    inflight_max: u64,
    max_rate_ok: f64,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Starts a daemon and takes it through set-up: `listening` line, first
/// `PONG`, and the warm-up sweep, whose replies must already equal the
/// pristine reference. Returns the set-up time.
fn set_up(ctx: &Context<'_>, spans: bool) -> Result<(Daemon, Client, f64, Tally), String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(
        ctx.binary,
        ctx.workload.graph,
        SCHEME,
        spans,
        ctx.config.pinning.as_ref(),
    )?;
    let mut client = Client::connect(daemon.addr).map_err(io_err("connect"))?;
    if !client.ping().map_err(io_err("PING"))? {
        return Err("daemon did not answer PING with PONG".into());
    }
    let tally = wire::sweep(&mut client, &ctx.sweep, &ctx.reference).map_err(io_err("warm-up"))?;
    Ok((daemon, client, start.elapsed().as_secs_f64(), tally))
}

fn percentile_us(samples: &mut [u32], p: f64) -> f64 {
    stats::percentile_u32(samples, p).map_or(f64::NAN, |ns| f64::from(ns) / 1e3)
}

/// Whether an open-loop phase at `rate` keeps its median under `limit_us`
/// with nothing failed or left behind.
fn rung_holds(
    ctx: &Context<'_>,
    daemon: &Daemon,
    check: Check<'_>,
    rate: f64,
    limit_us: f64,
    rung: u64,
    tally: &mut Tally,
) -> Result<bool, String> {
    let stream = ctx.request_stream("ladder", rung);
    let window = ctx.config.window.div_f64(2.0);
    let mut phase =
        wire::open_loop(daemon.addr, &stream, rate, window, check).map_err(io_err("ladder"))?;
    // An overloaded rung is the ladder's answer, not a failed operation.
    if phase.overloaded {
        return Ok(false);
    }
    tally.add(phase.tally);
    let p50 = percentile_us(&mut phase.route_latency_ns, 0.5);
    Ok(phase.tally.failed == 0 && p50 <= limit_us)
}

/// One trial. `ladder_limit_us` (traced trials only) turns on the
/// daemon's span tracing, the scrapes and the rate ladder.
fn run_trial(ctx: &Context<'_>, trial: u64, ladder_limit_us: Option<f64>) -> Result<Trial, String> {
    let w = ctx.workload;
    let traced = ladder_limit_us.is_some();
    let window = ctx.config.window;
    let n = ctx.reference.n();
    let seed = ctx.config.seed;
    let mut out = Trial::default();

    let (daemon, mut client, setup_s, warm) = set_up(ctx, traced)?;
    out.setup_s = setup_s;
    out.tally.add(warm);

    let check = match w.churn {
        Churn::None => Check::Pristine(&ctx.reference),
        _ => Check::Structural(&ctx.reference),
    };
    let closed_stream = ctx.request_stream("closed", trial);
    let open_stream = ctx.request_stream("open", trial);
    let churn = match w.churn {
        Churn::None => None,
        churn => {
            // Two phases, the ladder of a traced trial, and slack.
            let seconds = window.as_secs_f64() * if traced { 6.0 } else { 2.0 } + 4.0;
            let events = (churn.hz() * seconds).ceil() as usize;
            let schedule = gen::churn_schedule(
                n,
                &ctx.reference.core_nodes,
                churn,
                events,
                gen::derive_seed(seed, "churn-trial", trial),
            );
            Some(ChurnThread::start(daemon.addr, schedule, churn.hz()).map_err(io_err("churn"))?)
        }
    };

    let client_cpu_before = daemon::self_cpu_s()?;
    let before = traced
        .then(|| Sample::take(&mut client, &daemon))
        .transpose()?;
    let slice_s = w.churn.throughput_slice_s();
    let closed = wire::closed_loop(&mut client, &closed_stream, window, slice_s, check)
        .map_err(io_err("closed loop"))?;
    let after = traced
        .then(|| Sample::take(&mut client, &daemon))
        .transpose()?;
    out.route_qps = closed.routes_ok as f64 / closed.on_wire_s;
    out.tally.add(closed.tally);
    out.best[0] = stats::best(&closed.slice_qps, Better::Higher);
    let mut tolerate_us = closed.tolerate_us;

    let mut open = wire::open_loop(daemon.addr, &open_stream, w.open_rate, window, check)
        .map_err(io_err("open loop"))?;
    out.tally.add(open.tally);
    if open.overloaded {
        out.problems.push(format!(
            "open-loop phase overloaded at {} requests/s (backlog over one second of schedule)",
            w.open_rate
        ));
    }
    out.latency_samples = open.route_latency_ns.len();
    if !open.overloaded && !stats::percentile_supported(out.latency_samples, 0.99) {
        out.problems.push(format!(
            "p99 needs ten samples beyond it; the open-loop phase has {} in all",
            out.latency_samples
        ));
    }
    out.route_p50_us = percentile_us(&mut open.route_latency_ns, 0.5);
    out.best[1] = stats::best(&open.slice_p50_us, Better::Lower);
    out.tail_us = [0.9, 0.99, 0.999].map(|p| percentile_us(&mut open.route_latency_ns, p));

    let mut max_rate_ok = 0.0;
    if let Some(limit_us) = ladder_limit_us {
        for (rung, power) in LADDER_POWERS.enumerate() {
            let rate = w.open_rate * 1.5f64.powi(power);
            if !rung_holds(
                ctx,
                &daemon,
                check,
                rate,
                limit_us,
                rung as u64,
                &mut out.tally,
            )? {
                break;
            }
            max_rate_ok = rate;
        }
    }

    let mut fail_visible_us = Vec::new();
    if let Some(churn) = churn {
        let outcome = churn.finish().map_err(io_err("churn connection"))?;
        out.tally.add(outcome.tally);
        fail_visible_us = outcome.fail_visible_us;
    }
    // Whatever the load phases did not sample is probed on the quiet
    // daemon: TOLERATE without probes in the mix, and fault visibility
    // where the churn is too sparse to sample it (none at all, or 5 Hz:
    // fifteen FAILs a trial, split over two load levels).
    let fails_under_load = w.churn.hz() * window.as_secs_f64();
    let visibility_from_load = fails_under_load >= MIN_LOAD_FAILS;
    if !visibility_from_load || !w.probes_in_mix {
        let mut rng = SmallRng::seed_from_u64(gen::derive_seed(seed, "quiet-victims", trial));
        let victims: Vec<Node> = (0..QUIET_VICTIMS)
            .map(|_| rng.gen_range(0..n) as Node)
            .collect();
        let quiet =
            wire::quiet_probes(daemon.addr, &victims, w.tolerate).map_err(io_err("probes"))?;
        out.tally.add(quiet.tally);
        if !visibility_from_load {
            fail_visible_us = quiet.fail_visible_us;
        }
        if !w.probes_in_mix {
            tolerate_us = quiet.tolerate_us;
        }
    }
    let best_probe_slice =
        |samples: &[f64]| stats::best(&stats::chunk_medians(samples, PROBE_SLICE), Better::Lower);
    out.best[2] = best_probe_slice(&fail_visible_us);
    out.best[3] = best_probe_slice(&tolerate_us);

    // Every fault is repaired; once the route connection sees that too,
    // the daemon must answer exactly as it did before any fault.
    if !wire::wait_fault_free(&mut client).map_err(io_err("EPOCH"))? {
        out.problems
            .push("faults still live after every repair".into());
    }
    out.tally
        .add(wire::sweep(&mut client, &ctx.sweep, &ctx.reference).map_err(io_err("sweep"))?);
    out.peak_rss_mb = daemon.peak_rss_mb()?;

    if let (Some(before), Some(after)) = (before, after) {
        out.scrape = Some(Scrape {
            before,
            after,
            end: Sample::take(&mut client, &daemon)?,
            client_cpu_s: daemon::self_cpu_s()? - client_cpu_before,
            send_lag_p99_us: percentile_us(&mut open.send_lag_ns, 0.99),
            inflight_max: open.inflight_max,
            max_rate_ok,
        });
    }
    client.quit().map_err(io_err("QUIT"))?;
    Ok(out)
}

fn context<'a>(
    workload: &'a Served,
    config: &'a RunConfig,
    binary: &'a Path,
) -> Result<Context<'a>, String> {
    let reference = Reference::build(workload.graph)?;
    let pairs = gen::sweep_pairs(reference.n(), workload.sweep_pairs, config.seed);
    Ok(Context {
        workload,
        config,
        binary,
        sweep: gen::pair_stream(&pairs),
        reference,
    })
}

/// The gated run: `config.trials` trials with span tracing off. Each
/// trial gives its best slice for every timing; `SERVED_E2E` says how
/// the trials' values become the run's.
pub fn run_gated(
    workload: &Served,
    config: &RunConfig,
    binary: &Path,
) -> Result<WorkloadReport, String> {
    let ctx = context(workload, config, binary)?;
    let mut report = WorkloadReport::new(workload.name);
    let mut columns: Vec<Trials> = vec![Trials::default(); SERVED_E2E.len()];
    let mut samples = Vec::new();
    let mut tails: Vec<[f64; 3]> = Vec::new();
    let mut whole_phase = [Trials::default(), Trials::default()];
    for trial in 0..config.trials as u64 {
        let t = run_trial(&ctx, trial, None)?;
        report.tally.add(t.tally);
        report.problems.extend(
            t.problems
                .into_iter()
                .map(|p| format!("trial {trial}: {p}")),
        );
        samples.push(t.latency_samples);
        tails.push(t.tail_us);
        columns[0].push(t.setup_s);
        for (column, best) in columns[1..].iter_mut().zip(t.best) {
            column.push(best);
        }
        whole_phase[0].push(t.route_qps);
        whole_phase[1].push(t.route_p50_us);
        columns[5].push(t.peak_rss_mb);
    }
    // A short set-up is noisy: repeat it back to back; the fastest of
    // all cold starts is reported (`Summary::Best`).
    if columns[0].median() < SHORT_SETUP_S {
        while columns[0].raw.len() < COLD_STARTS {
            let (_daemon, client, setup_s, warm) = set_up(&ctx, false)?;
            client.quit().map_err(io_err("QUIT"))?;
            report.tally.add(warm);
            columns[0].push(setup_s);
        }
    }
    for (def, column) in SERVED_E2E.into_iter().zip(columns) {
        report.push(def, column);
    }
    // Context, not gated (see `ROUTE_P99`): the tail at the frozen rate.
    let tail = |i: usize| Trials {
        raw: tails.iter().map(|t| t[i]).collect(),
    };
    report.ungated.push((ROUTE_P99, tail(1)));
    report.notes.push(format!(
        "open-loop latency at the frozen rate, median over trials: p90 {:.1} us, p99 {:.1} us, \
         p99.9 {:.1} us",
        tail(0).median(),
        tail(1).median(),
        tail(2).median()
    ));
    report.notes.push(format!(
        "over whole phases, not slices (median over trials): route_qps {:.0} 1/s, route_p50_us \
         {:.1} us; slices: closed loop {:.0} ms, open loop {:.0} ms",
        whole_phase[0].median(),
        whole_phase[1].median(),
        workload.churn.throughput_slice_s() * 1e3,
        crate::spec::SLICE_S * 1e3
    ));
    let fewest = samples.iter().copied().min().unwrap_or(0);
    report.notes.push(format!(
        "closed loop: 1 connection, {} requests in flight; open loop: {} requests/s for {:.2} s, \
         latency from due time; traffic crosses the host loopback",
        crate::spec::PIPELINE_DEPTH,
        workload.open_rate,
        config.window.as_secs_f64()
    ));
    report.notes.push(format!(
        "open-loop ROUTE samples per trial: at least {fewest}; highest percentile with ten \
         samples beyond it: {}",
        stats::highest_supported_percentile(fewest)
            .map_or("none".to_string(), |p| format!("p{}", p * 100.0))
    ));
    Ok(report)
}

/// The traced run: two untraced trials give the reference throughput
/// (with its A/A interval) and median latency, one trial with the
/// daemon's span tracing on gives the scraped server stages and the
/// rate ladder, and the in-process walk gives the library layers. The
/// harness's spans go to `config.trace_out`.
pub fn run_traced(
    workload: &Served,
    config: &RunConfig,
    binary: &Path,
) -> Result<WorkloadReport, String> {
    let ctx = context(workload, config, binary)?;
    let mut report = WorkloadReport::new(workload.name);
    let a1 = run_trial(&ctx, 0, None)?;
    let a2 = run_trial(&ctx, 1, None)?;
    // The ladder's limit comes from the whole open-loop phases, as its
    // rungs are judged by theirs.
    let untraced_p50_us = (a1.route_p50_us + a2.route_p50_us) / 2.0;
    let traced = run_trial(&ctx, 2, Some(untraced_p50_us * LADDER_LIMIT))?;
    // Throughput is compared by best slices, as between gated runs.
    let (qps1, qps2, traced_qps) = (a1.best[0], a2.best[0], traced.best[0]);
    let untraced_qps = (qps1 + qps2) / 2.0;
    for (label, t) in [
        ("untraced 1", &a1),
        ("untraced 2", &a2),
        ("traced", &traced),
    ] {
        report.tally.add(t.tally);
        report
            .problems
            .extend(t.problems.iter().map(|p| format!("{label}: {p}")));
    }
    let scrape = traced
        .scrape
        .as_ref()
        .ok_or("traced trial left no scrape")?;

    let mut recorder = Recorder::new();
    let mut values = layers::walk(&LayerSpec::of_served(workload), config.seed, &mut recorder)?;

    // Server stages over the closed-loop phase, per ROUTE answered in
    // it. `engine` nests under `cache` in the daemon's span tree, so the
    // cache figure here is the cache stage's self time.
    let (before, after) = (&scrape.before, &scrape.after);
    let routes = after.metric_since(before, "ftr_requests_total{verb=\"route\"}");
    let stage = |name: &str| {
        let key = format!("ftr_stage_seconds_sum{{stage=\"{name}\"}}");
        after.metric_since(before, &key) * 1e9 / routes.max(1.0)
    };
    let (decode, cache, engine, serialize, write) = (
        stage("decode"),
        stage("cache"),
        stage("engine"),
        stage("serialize"),
        stage("write"),
    );
    let cache_self = (cache - engine).max(0.0);
    let explained = decode + cache_self + engine + serialize + write;
    values.insert("serve.server.decode_ns_per_q", decode);
    values.insert("serve.server.cache_ns_per_q", cache_self);
    values.insert("serve.server.engine_ns_per_q", engine);
    values.insert("serve.server.serialize_ns_per_q", serialize);
    values.insert("serve.server.write_ns_per_q", write);
    values.insert(
        "serve.server.unexplained_ns_per_q",
        1e9 / traced.route_qps - explained,
    );
    values.insert(
        "serve.server.batch_size_p50",
        value(
            &after.metrics,
            "ftr_batch_size{shard=\"0\",quantile=\"0.5\"}",
        ),
    );
    values.insert(
        "serve.server.cpu_s",
        after.server_cpu_s - before.server_cpu_s,
    );
    let queries = after.stat_since(before, "queries");
    values.insert(
        "serve.epoch.hit_rate",
        after.stat_since(before, "cache_hits") / queries.max(1.0),
    );
    let end = |key: &str| value(&scrape.end.metrics, key);
    let (events, epochs) = (
        end("ftr_ingest_events_total"),
        end("ftr_epoch_advances_total"),
    );
    values.insert("serve.ingest.events", events);
    values.insert("serve.ingest.epochs", epochs);
    values.insert(
        "serve.ingest.events_per_epoch",
        if epochs > 0.0 { events / epochs } else { 0.0 },
    );
    values.insert("obs.spans_dropped", end("ftr_spans_dropped_total"));
    let overhead_pct = (untraced_qps - traced_qps) / untraced_qps * 100.0;
    let noise_pct = (qps1 - qps2).abs() / untraced_qps * 100.0;
    values.insert("obs.trace_overhead_pct", overhead_pct);
    values.insert("client.route_p99_us", traced.tail_us[1]);
    values.insert("client.cpu_s", scrape.client_cpu_s);
    values.insert("client.send_lag_p99_us", scrape.send_lag_p99_us);
    values.insert("client.inflight_max", scrape.inflight_max as f64);
    values.insert("client.max_rate_ok", scrape.max_rate_ok);

    for def in PER_LAYER {
        match values.get(def.name) {
            Some(&v) => report.push(def, Trials { raw: vec![v] }),
            None => report
                .problems
                .push(format!("layer metric {} was not measured", def.name)),
        }
    }
    report.notes.push(format!(
        "route_qps (best slice) untraced {qps1:.0} and {qps2:.0} (A/A interval {noise_pct:.2}%), \
         traced {traced_qps:.0}: tracing overhead {overhead_pct:.2}% is {} the A/A interval",
        if overhead_pct.abs() <= noise_pct {
            "within"
        } else {
            "outside"
        }
    ));
    report.notes.push(format!(
        "server stages explain {explained:.1} ns of the {:.1} ns per ROUTE the client saw \
         (closed loop, traced)",
        1e9 / traced.route_qps
    ));
    report.notes.push(format!(
        "rate ladder limit: p50 <= {:.1} us (10 x untraced p50 {untraced_p50_us:.1} us)",
        untraced_p50_us * LADDER_LIMIT
    ));
    write_spans(&recorder, config, &mut report)?;
    Ok(report)
}

/// Writes the span file and lists per-layer self times in the report.
pub fn write_spans(
    recorder: &Recorder,
    config: &RunConfig,
    report: &mut WorkloadReport,
) -> Result<(), String> {
    let path = &config.trace_out;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    recorder
        .write_jsonl(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let self_times: Vec<String> = recorder
        .self_time_by_name()
        .into_iter()
        .filter(|(name, _)| *name != "harness.calibrate")
        .map(|(name, ns)| format!("{name}={:.3}ms", ns as f64 / 1e6))
        .collect();
    report.notes.push(format!(
        "{} spans written to {}; self time by layer: {}",
        recorder.spans().len(),
        path.display(),
        self_times.join(" ")
    ));
    Ok(())
}
