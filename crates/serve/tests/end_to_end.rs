//! End-to-end test: a real daemon on loopback, driven through the
//! client — queries, fault churn, epoch advance, cache behavior and
//! clean shutdown.

use std::time::{Duration, Instant};

use ftr_core::{KernelRouting, RouteTable};
use ftr_graph::{gen, NodeSet};
use ftr_obs::BatchSpans;
use ftr_serve::{Client, RoutingSnapshot, Server, ServerConfig};

fn start_petersen_server() -> (ftr_serve::SpawnedServer, RoutingSnapshot) {
    let g = gen::petersen();
    let kernel = KernelRouting::build(&g).unwrap();
    let snapshot = RoutingSnapshot::new(g, kernel.routing().clone()).unwrap();
    let server = Server::bind(
        snapshot.clone().into_shared(),
        ServerConfig {
            batch_window: Duration::from_micros(100),
            // Small enough that a TOLERATE with a huge fault budget is
            // rejected even on a 10-node graph (2^10 = 1024 sets).
            tolerate_budget: 500,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server.spawn(), snapshot)
}

/// Polls `EPOCH` until the fault count reaches `want` (ingestion is
/// asynchronous).
fn wait_for_faults(client: &mut Client, want: usize) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (id, faults) = client.epoch().unwrap();
        if faults == want {
            return id;
        }
        assert!(
            Instant::now() < deadline,
            "ingest did not reach {want} faults (at {faults})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn serves_queries_through_fault_churn() {
    let (server, snapshot) = start_petersen_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // Fault-free epoch 0.
    assert!(client.ping().unwrap());
    assert_eq!(client.epoch().unwrap(), (0, 0));
    let base_diam = client.diam().unwrap().expect("petersen kernel connected");
    assert_eq!(
        Some(base_diam),
        snapshot.engine().surviving_diameter(&NodeSet::new(10))
    );

    // Direct route matches the stored table.
    let (s, d, view) = snapshot.routing().routes().next().unwrap();
    let direct = client.route(s, d).unwrap();
    let want: Vec<String> = view.nodes().iter().map(|v| v.to_string()).collect();
    assert_eq!(direct, format!("OK DIRECT {}", want.join(" ")));

    // Tolerance: the kernel routing claims (2t, t); measured through the
    // wire it must agree with the offline verifier's worst diameter.
    let claim = KernelRouting::build(&gen::petersen())
        .unwrap()
        .guarantee_theorem_3()
        .claim();
    assert!(client.tolerate(claim.diameter, claim.faults).unwrap());
    assert!(!client.tolerate(0, 1).unwrap());
    // A failed TOLERATE names its witness so the caller can reproduce.
    let reply = client.request("TOLERATE 0 1").unwrap();
    assert!(reply.starts_with("OK TOLERATE no found="), "{reply}");
    assert!(reply.contains("witness="), "{reply}");

    // AUDIT certifies the claim against the pristine snapshot with full
    // accounting (epoch-independent, memoized server-side).
    assert!(client.audit(claim.diameter, claim.faults).unwrap());
    assert!(!client.audit(0, 1).unwrap());
    let reply = client
        .request(&format!("AUDIT {} {}", claim.diameter, claim.faults))
        .unwrap();
    assert!(reply.starts_with("OK AUDIT holds visited="), "{reply}");
    assert!(
        reply.contains("space=56"),
        "audit accounts for all C(10, <=2) sets: {reply}"
    );

    // Inject a fault; the epoch advances and queries follow the new state.
    assert!(client.fail(3).unwrap());
    let id = wait_for_faults(&mut client, 1);
    assert!(id >= 1);
    assert_eq!(client.route(3, 5).unwrap(), "OK UNREACHABLE");
    let wire_diam = client.diam().unwrap();
    assert_eq!(
        wire_diam,
        snapshot
            .engine()
            .surviving_diameter(&NodeSet::from_nodes(10, [3]))
    );

    // Duplicate FAIL is queued but ineffective: no epoch advance for it.
    assert!(client.fail(3).unwrap());
    std::thread::sleep(Duration::from_millis(20));
    let (_, faults) = client.epoch().unwrap();
    assert_eq!(faults, 1);

    // Repair brings the baseline back.
    assert!(client.repair(3).unwrap());
    wait_for_faults(&mut client, 0);
    assert_eq!(client.diam().unwrap(), Some(base_diam));

    // Protocol errors answer ERR without dropping the connection.
    assert!(client.request("FROBNICATE").unwrap().starts_with("ERR "));
    assert!(client.request("ROUTE 0 99").unwrap().starts_with("ERR "));
    assert!(client.ping().unwrap(), "connection survives ERR replies");

    // ERR replies are never cached: distinct invalid queries must not
    // grow the epoch cache (its key space is bounded by valid pairs).
    let cache_before = server.handle().store().load().cache().len();
    for i in 0..8u32 {
        let reply = client.request(&format!("ROUTE 0 {}", 1000 + i)).unwrap();
        assert!(reply.starts_with("ERR "), "{reply}");
        let reply = client.request(&format!("TOLERATE 4 {}", 50 + i)).unwrap();
        assert!(reply.starts_with("ERR "), "{reply}");
    }
    assert_eq!(
        server.handle().store().load().cache().len(),
        cache_before,
        "ERR replies leaked into the query cache"
    );

    // Stats reflect the 18 deliberate errors and zero others.
    let stats = client.request("STATS").unwrap();
    assert!(stats.contains("errors=18"), "unexpected stats: {stats}");

    client.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

#[test]
fn pipelined_queries_answer_in_order() {
    let (server, snapshot) = start_petersen_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let requests: Vec<String> = (0..10u32)
        .flat_map(|x| {
            (0..10u32)
                .filter(move |&y| y != x)
                .map(move |y| format!("ROUTE {x} {y}"))
        })
        .collect();
    let mut replies = Vec::new();
    client.pipeline(&requests, &mut replies).unwrap();
    assert_eq!(replies.len(), requests.len());
    for (req, reply) in requests.iter().zip(&replies) {
        let mut toks = req.split(' ');
        let (_, x, y) = (
            toks.next().unwrap(),
            toks.next().unwrap(),
            toks.next().unwrap(),
        );
        assert!(
            reply.starts_with("OK DIRECT") || reply.starts_with("OK DETOUR"),
            "{req} -> {reply}"
        );
        let nodes: Vec<&str> = reply.splitn(3, ' ').nth(2).unwrap().split(' ').collect();
        assert_eq!(nodes.first(), Some(&x), "{req} -> {reply}");
        assert_eq!(nodes.last(), Some(&y), "{req} -> {reply}");
    }
    // Everything was valid: zero protocol errors, and the repeated pairs
    // were all cache misses exactly once (100 distinct keys... 90 pairs).
    let stats = client.request("STATS").unwrap();
    assert!(stats.contains("errors=0"), "unexpected stats: {stats}");
    drop(snapshot);
    client.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

/// A batch that takes milliseconds to compute is written in paced
/// pieces while it is computed. The pieces must add up to every reply,
/// in order, and a `QUIT` (or EOF) decoded at the end of the batch must
/// close the connection after the last piece, not after the first.
#[test]
fn a_long_batch_is_answered_whole_and_in_order_before_the_close() {
    use std::io::{Read, Write};
    let g = gen::harary(6, 128).unwrap();
    let kernel = KernelRouting::build(&g).unwrap();
    let snapshot = RoutingSnapshot::new(g, kernel.routing().clone()).unwrap();
    let server = Server::bind(snapshot.into_shared(), ServerConfig::default())
        .unwrap()
        .spawn();
    // Distinct pairs: every ROUTE is a miss, ~1 µs each, so the batch
    // outlasts the pacing interval a hundred times over.
    let pairs: Vec<(u32, u32)> = (0..128u32)
        .flat_map(|x| (1..=32u32).map(move |d| (x, (x + d) % 128)))
        .collect();
    for (tail, slow) in [("QUIT\n", "TOLERATE 8 2\n"), ("", "TOLERATE 9 2\n")] {
        let mut text: String = pairs
            .iter()
            .map(|(x, y)| format!("ROUTE {x} {y}\n"))
            .collect();
        text.push_str(tail);
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        // A search of 8,257 fault sets (a fresh claim each time: the
        // epoch caches the answer) keeps the shard away from the socket
        // for milliseconds, so everything written meanwhile is decoded
        // as one batch, the close at its end.
        stream.write_all(slow.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(text.as_bytes()).unwrap();
        if tail.is_empty() {
            stream.shutdown(std::net::Shutdown::Write).unwrap();
        }
        let mut got = String::new();
        stream.read_to_string(&mut got).unwrap();
        let mut lines = got.lines();
        let searched = lines.next().unwrap_or_default();
        assert!(searched.starts_with("OK TOLERATE"), "{searched}");
        for (x, y) in &pairs {
            let reply = lines.next().unwrap_or("<connection closed early>");
            let nodes: Vec<&str> = reply.split(' ').skip(2).collect();
            assert!(reply.starts_with("OK D"), "ROUTE {x} {y} -> {reply}");
            assert_eq!(nodes.first(), Some(&x.to_string().as_str()), "{reply}");
            assert_eq!(nodes.last(), Some(&y.to_string().as_str()), "{reply}");
        }
        assert_eq!(lines.next(), (!tail.is_empty()).then_some("OK BYE"));
        assert_eq!(lines.next(), None);
    }
    server.shutdown_and_join().unwrap();
}

#[test]
fn concurrent_clients_and_churn_stay_consistent() {
    let (server, snapshot) = start_petersen_server();
    let addr = server.addr();
    std::thread::scope(|scope| {
        // A churn client cycles faults while query clients hammer ROUTE.
        scope.spawn(move || {
            let mut churn = Client::connect(addr).unwrap();
            for round in 0..30u32 {
                let v = round % 10;
                churn.fail(v).unwrap();
                std::thread::sleep(Duration::from_micros(300));
                churn.repair(v).unwrap();
            }
            churn.quit().unwrap();
        });
        for t in 0..3u32 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..300u32 {
                    let x = (i + t) % 10;
                    let y = (i + t + 1 + i % 7) % 10;
                    if x == y {
                        continue;
                    }
                    let reply = client.route(x, y).unwrap();
                    assert!(reply.starts_with("OK "), "ROUTE {x} {y} -> {reply}");
                }
                client.quit().unwrap();
            });
        }
    });
    assert_eq!(server.handle().obs().protocol_errors.get(), 0);
    drop(snapshot);
    server.shutdown_and_join().unwrap();
}

#[test]
fn stats_reply_keeps_every_legacy_token_and_appends_observability() {
    let (server, _snapshot) = start_petersen_server();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.ping().unwrap());
    let stats = client.request("STATS").unwrap();

    // Regression: a pre-observability client parses STATS positionally —
    // the first nine tokens must be exactly the old reply, same keys,
    // same order, and every value must still be a bare integer.
    let tokens: Vec<&str> = stats.split(' ').collect();
    assert_eq!(&tokens[..2], &["OK", "STATS"], "{stats}");
    const LEGACY_KEYS: [&str; 8] = [
        "epoch",
        "faults",
        "queries",
        "cache_hits",
        "errors",
        "connections",
        "events",
        "accept_retries",
    ];
    for (token, want) in tokens[2..].iter().zip(LEGACY_KEYS) {
        let (key, value) = token.split_once('=').expect("key=value");
        assert_eq!(key, want, "legacy token order changed: {stats}");
        assert!(value.parse::<u64>().is_ok(), "non-integer {token}: {stats}");
    }
    // The new tokens ride strictly after the legacy ones.
    let uptime_at = tokens.iter().position(|t| t.starts_with("uptime_s="));
    assert_eq!(uptime_at, Some(2 + LEGACY_KEYS.len()), "{stats}");
    assert!(stats.contains(" verb_route="), "{stats}");
    // The introspection flush makes STATS see its own batch: this
    // connection issued one PING and this very STATS.
    assert!(stats.contains(" verb_ping=1"), "{stats}");
    assert!(stats.contains(" verb_stats=1"), "{stats}");
    // The flight-recorder tokens ride after the verb counters, still
    // bare integers.
    let alerts_at = tokens
        .iter()
        .position(|t| t.starts_with("alerts_active="))
        .expect("alerts_active token");
    let dropped_at = tokens
        .iter()
        .position(|t| t.starts_with("spans_dropped="))
        .expect("spans_dropped token");
    let last_verb_at = tokens
        .iter()
        .rposition(|t| t.starts_with("verb_"))
        .expect("verb tokens");
    assert_eq!(alerts_at, last_verb_at + 1, "{stats}");
    assert_eq!(dropped_at, alerts_at + 1, "{stats}");
    for at in [alerts_at, dropped_at] {
        let (_, value) = tokens[at].split_once('=').unwrap();
        assert!(value.parse::<u64>().is_ok(), "{stats}");
    }

    client.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

#[test]
fn metrics_exposition_and_trace_journal_answer_over_the_wire() {
    let (server, _snapshot) = start_petersen_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // Drive some traffic so the series move: routes, a search, churn.
    for y in 1..6u32 {
        assert!(client.route(0, y).unwrap().starts_with("OK "));
    }
    assert!(client.tolerate(4, 1).unwrap());
    assert!(client.fail(3).unwrap());
    wait_for_faults(&mut client, 1);

    let scrape = |text: &str| -> std::collections::HashMap<String, f64> {
        let mut values = std::collections::HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            values.insert(series.to_string(), value.parse::<f64>().unwrap());
        }
        values
    };
    let first = client.metrics().unwrap();
    let families: Vec<&str> = first
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(
        families.len() >= 12,
        "exposition too small ({} families): {families:?}",
        families.len()
    );
    let a = scrape(&first);
    assert!(a["ftr_requests_total{verb=\"route\"}"] >= 5.0);
    assert!(a["ftr_request_latency_seconds_count{verb=\"route\"}"] >= 5.0);
    assert!(a["ftr_search_visited_total"] >= 1.0, "tolerate searched");
    assert!(a["ftr_epoch_advances_total"] >= 1.0, "churn published");
    assert_eq!(a["ftr_epoch_id"], 1.0);
    assert_eq!(a["ftr_epoch_faults"], 1.0);
    assert!(a["ftr_ingest_events_total"] >= 1.0);

    // Counters are monotonic across scrapes, and the second scrape sees
    // the first one's METRICS dispatch.
    for y in 1..4u32 {
        assert!(client.route(9, y).unwrap().starts_with("OK "));
    }
    let second = scrape(&client.metrics().unwrap());
    for (series, before) in &a {
        let name = series.split('{').next().unwrap();
        if name.ends_with("_total") || name.ends_with("_count") || name.ends_with("_sum") {
            let after = second.get(series).copied().unwrap_or(f64::NAN);
            assert!(
                after >= *before,
                "{series} went backwards: {before} -> {after}"
            );
        }
    }
    assert!(second["ftr_requests_total{verb=\"metrics\"}"] >= 1.0);
    assert!(
        second["ftr_requests_total{verb=\"route\"}"]
            >= a["ftr_requests_total{verb=\"route\"}"] + 3.0
    );

    // The trace journal carries the epoch advance, tagged with its epoch
    // id and a monotonic timestamp.
    let events = client.trace(64).unwrap();
    assert!(!events.is_empty());
    for event in &events {
        assert!(event.starts_with("ts_ns="), "{event}");
        assert!(event.contains(" epoch="), "{event}");
        assert!(event.contains(" kind="), "{event}");
    }
    assert!(
        events.iter().any(|e| e.contains("kind=epoch_publish")),
        "{events:?}"
    );
    assert!(
        events.iter().any(|e| e.contains("kind=tolerate_search")),
        "{events:?}"
    );
    // TRACE n caps the drain.
    assert_eq!(client.trace(2).unwrap().len(), 2);

    // Pipelining across a multi-line reply stays in order.
    let mut replies = Vec::new();
    client
        .pipeline(&["PING".to_string(), "PING".to_string()], &mut replies)
        .unwrap();
    assert_eq!(replies, ["OK PONG", "OK PONG"]);

    client.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

#[test]
fn disabled_metrics_keep_the_exposition_answerable() {
    let g = gen::petersen();
    let kernel = KernelRouting::build(&g).unwrap();
    let snapshot = RoutingSnapshot::new(g, kernel.routing().clone()).unwrap();
    let server = Server::bind(
        snapshot.into_shared(),
        ServerConfig {
            metrics: false,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.route(0, 5).unwrap().starts_with("OK "));
    let text = client.metrics().unwrap();
    assert!(text.contains("# TYPE ftr_requests_total counter"));
    // Hot-path recording is off: the serve-side series stay zero, while
    // the STATS tallies still move.
    let route = text
        .lines()
        .find(|l| l.starts_with("ftr_requests_total{verb=\"route\"}"))
        .unwrap();
    assert!(route.ends_with(" 0"), "{route}");
    let queries = text
        .lines()
        .find(|l| l.starts_with("ftr_queries_total"))
        .unwrap();
    assert!(!queries.ends_with(" 0"), "{queries}");
    client.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

#[test]
fn stats_and_metrics_agree_on_every_tally() {
    use std::io::{BufRead, BufReader, Write};
    let (server, _snapshot) = start_petersen_server();
    let mut client = Client::connect(server.addr()).unwrap();
    // A scripted burst on a quiescent server: routes, one malformed
    // line, one FAIL, and the same TOLERATE twice in one epoch so the
    // second answer is a cache hit.
    for y in 1..5u32 {
        assert!(client.route(0, y).unwrap().starts_with("OK "));
        assert!(client.route(0, y).unwrap().starts_with("OK "));
    }
    assert!(client.request("FROB").unwrap().starts_with("ERR "));
    assert!(client.fail(3).unwrap());
    wait_for_faults(&mut client, 1);
    let first = client.request("TOLERATE 2 1").unwrap();
    assert_eq!(client.request("TOLERATE 2 1").unwrap(), first);

    // STATS and METRICS in one batch: nothing moves between the two.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"STATS\nMETRICS\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let stats_line = line.trim_end().to_string();
    let stats = parse_fields(&stats_line);
    line.clear();
    reader.read_line(&mut line).unwrap();
    let count: usize = line
        .trim_end()
        .strip_prefix("OK METRICS lines=")
        .expect("METRICS header")
        .parse()
        .unwrap();
    let mut series = std::collections::HashMap::new();
    for _ in 0..count {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if let Some((name, value)) = line.trim_end().split_once(' ') {
            if !name.starts_with('#') {
                series.insert(name.to_string(), value.to_string());
            }
        }
    }
    for (token, name) in [
        ("queries", "ftr_queries_total"),
        ("cache_hits", "ftr_reply_cache_hits_total"),
        ("errors", "ftr_protocol_errors_total"),
        ("connections", "ftr_connections_total"),
        ("events", "ftr_events_enqueued_total"),
        ("accept_retries", "ftr_accept_retries_total"),
    ] {
        assert_eq!(
            series.get(name).map(String::as_str),
            Some(stats[token]),
            "{token} vs {name}: {stats_line}"
        );
    }
    assert_eq!(stats["errors"], "1", "{stats_line}");
    assert_eq!(stats["events"], "1", "{stats_line}");
    assert_eq!(stats["connections"], "2", "{stats_line}");
    assert!(
        stats["cache_hits"].parse::<u64>().unwrap() >= 5,
        "{stats_line}"
    );
    drop(reader);
    client.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

#[test]
fn malformed_input_never_panics_a_shard() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{Shutdown, TcpStream};

    let (server, _snapshot) = start_petersen_server();
    let addr = server.addr();

    // A raw connection abuses the wire: invalid UTF-8, unknown verbs,
    // out-of-range and non-numeric nodes, missing arguments. Every
    // line must come back as a structured ERR on the same connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    let abuse: [&[u8]; 8] = [
        b"ROUTE \xff\xfe 1\n",   // invalid UTF-8 argument
        b"\xc3\x28\n",           // invalid UTF-8 verb
        b"FROBNICATE 1 2\n",     // unknown verb
        b"ROUTE 0 4294967295\n", // node out of range
        b"ROUTE -1 2\n",         // negative node
        b"ROUTE 0\n",            // missing argument
        b"TOLERATE\n",           // missing both arguments
        b"AUDIT nine lives\n",   // non-numeric arguments
    ];
    for line in abuse {
        raw.write_all(line).unwrap();
    }
    raw.flush().unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    for line in abuse {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("ERR "),
            "{:?} should answer ERR, got {reply:?}",
            String::from_utf8_lossy(line)
        );
    }
    drop(reader);
    drop(raw);

    // A request cut off by EOF mid-line is still served before the
    // connection winds down.
    let mut half = TcpStream::connect(addr).unwrap();
    half.write_all(b"EPOCH").unwrap(); // no trailing newline
    half.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    BufReader::new(&mut half).read_to_string(&mut out).unwrap();
    assert!(out.starts_with("OK EPOCH"), "partial line at EOF: {out:?}");

    // A single line larger than the 1 MiB cap kills only that
    // connection — no reply, no shard loss.
    let mut flood = TcpStream::connect(addr).unwrap();
    let junk = vec![b'A'; (1 << 20) + 64];
    // The server may hang up mid-write; the write failing is fine.
    let _ = flood.write_all(&junk);
    let _ = flood.flush();
    let mut sink = Vec::new();
    let _ = flood.read_to_end(&mut sink);
    assert!(sink.is_empty(), "oversized line must not get a reply");
    drop(flood);

    // The shards all survived the abuse: a fresh client is served, and
    // the deliberate errors were counted rather than panicked on.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().unwrap());
    assert!(client.route(0, 1).unwrap().starts_with("OK "));
    let stats = client.request("STATS").unwrap();
    let errors: u64 = stats
        .split(' ')
        .find_map(|t| t.strip_prefix("errors="))
        .unwrap()
        .parse()
        .unwrap();
    assert!(errors >= abuse.len() as u64, "unexpected stats: {stats}");
    client.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

/// Parses one `key=value`-tokenized reply line into a map.
fn parse_fields(line: &str) -> std::collections::HashMap<&str, &str> {
    line.split(' ')
        .filter_map(|tok| tok.split_once('='))
        .collect()
}

#[test]
fn flight_recorder_captures_slow_queries_spans_and_lineage() {
    // A budget large enough that the deliberately slow TOLERATE sweep
    // (every C(10, <=9) fault set) actually runs instead of being
    // rejected — that one batch dwarfs the warm-up pings.
    let g = gen::petersen();
    let kernel = KernelRouting::build(&g).unwrap();
    let snapshot = RoutingSnapshot::new(g, kernel.routing().clone()).unwrap();
    let server = Server::bind(
        snapshot.into_shared(),
        ServerConfig {
            batch_window: Duration::from_micros(100),
            tolerate_budget: 1_000_000,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let mut client = Client::connect(server.addr()).unwrap();

    // Arm the rolling p99 with injected durations. Retention compares a
    // batch with the p99 of every batch before it, and over a few dozen
    // real warm-up batches that p99 is their maximum: one ping batch
    // descheduled for longer than the sweep takes (a loaded host does
    // that about one run in eight) and the sweep is not retained. Ten
    // thousand 1 ns batches put the p99 at 1 ns until a hundred real
    // batches have been seen — this test sends about ten.
    let mut baseline: Vec<BatchSpans> = (0..10_000)
        .map(|batch| BatchSpans {
            shard: 0,
            batch,
            epoch: 0,
            requests: 1,
            total_nanos: 1,
            spans: Vec::new(),
        })
        .collect();
    let store = server.handle().obs().span_store();
    store.ingest(&mut baseline);
    assert_eq!(store.p99_nanos(), 1);
    assert!(client.ping().unwrap());
    // A ROUTE batch so the recent ring holds cache/engine stages.
    assert!(client.route(0, 5).unwrap().starts_with("OK "));
    // The slow query.
    let reply = client.request("TOLERATE 4 9").unwrap();
    assert!(reply.starts_with("OK TOLERATE"), "{reply}");

    // SLOW returns the complete span tree of the slow batch.
    let slow = client.slow(8).unwrap();
    assert!(!slow.is_empty(), "slow log empty after a full-budget sweep");
    let tolerate_line = slow
        .iter()
        .find(|l| parse_fields(l).get("stage") == Some(&"tolerate"))
        .unwrap_or_else(|| panic!("no tolerate span in slow log: {slow:#?}"));
    let slow_batch = parse_fields(tolerate_line)["batch"].to_string();

    // Collect that batch's full tree and check it end to end.
    let tree: Vec<std::collections::HashMap<&str, &str>> = slow
        .iter()
        .map(|l| parse_fields(l))
        .filter(|f| f["batch"] == slow_batch)
        .collect();
    let stages: Vec<&str> = tree.iter().map(|f| f["stage"]).collect();
    for want in ["batch", "decode", "tolerate", "serialize", "write"] {
        assert!(stages.contains(&want), "missing {want} stage: {stages:?}");
    }
    // Well-nested: exactly one root, every child inside its parent's
    // window, every span balanced.
    let span_of = |id: &str| tree.iter().find(|f| f["span"] == id);
    let mut roots = 0;
    for f in &tree {
        let (start, end): (u64, u64) =
            (f["start_ns"].parse().unwrap(), f["end_ns"].parse().unwrap());
        assert!(end >= start, "unbalanced span: {f:?}");
        assert_eq!(f["dur_ns"].parse::<u64>().unwrap(), end - start);
        if f["parent"] == "0" {
            roots += 1;
            assert_eq!(f["stage"], "batch");
            continue;
        }
        let parent = span_of(f["parent"]).unwrap_or_else(|| panic!("orphan span: {f:?}"));
        let (ps, pe): (u64, u64) = (
            parent["start_ns"].parse().unwrap(),
            parent["end_ns"].parse().unwrap(),
        );
        assert!(
            ps <= start && end <= pe,
            "span escapes its parent window: {f:?} in {parent:?}"
        );
    }
    assert_eq!(roots, 1, "slow batch must have exactly one root");
    // The stages under the root run one after another, so together
    // they account for at most the root's duration — the search among
    // them. (How large a share the search takes is the host's business:
    // a write that waits for a descheduled peer can outlast it.)
    let root = tree.iter().find(|f| f["parent"] == "0").unwrap();
    let root_dur: u64 = root["dur_ns"].parse().unwrap();
    let staged: u64 = tree
        .iter()
        .filter(|f| f["parent"] == root["span"])
        .map(|f| f["dur_ns"].parse::<u64>().unwrap())
        .sum();
    let tolerate_dur: u64 = parse_fields(tolerate_line)["dur_ns"].parse().unwrap();
    assert!(tolerate_dur > 0 && tolerate_dur <= staged, "{tree:#?}");
    assert!(staged <= root_dur, "stages outlast their batch: {tree:#?}");

    // SPANS covers the recent ring, including the ROUTE batch's cache
    // stage (and the engine window under it for the cold miss).
    let spans = client.spans(64).unwrap();
    let span_stages: Vec<&str> = spans
        .iter()
        .filter_map(|l| parse_fields(l).get("stage").copied())
        .collect();
    assert!(span_stages.contains(&"cache"), "{span_stages:?}");
    assert!(span_stages.contains(&"engine"), "{span_stages:?}");

    // Epoch lineage: two advances chain parent -> child with signed
    // occupancy deltas and apply/publish timing.
    assert!(client.fail(3).unwrap());
    wait_for_faults(&mut client, 1);
    assert!(client.repair(3).unwrap());
    wait_for_faults(&mut client, 0);
    let lineage = client.lineage(8).unwrap();
    assert_eq!(lineage.len(), 2, "{lineage:#?}");
    let first = parse_fields(&lineage[0]);
    let second = parse_fields(&lineage[1]);
    assert_eq!((first["epoch"], first["parent"]), ("1", "0"));
    assert_eq!((second["epoch"], second["parent"]), ("2", "1"));
    assert_eq!((first["delta"], second["delta"]), ("1", "-1"));
    for record in [&first, &second] {
        assert_eq!(record["events"], "1");
        assert_eq!(record["applied"], "1");
        assert!(record["apply_ns"].parse::<u64>().is_ok());
        assert!(record["publish_ns"].parse::<u64>().unwrap() > 0);
        assert!(record["ts_ns"].parse::<u64>().unwrap() > 0);
    }

    client.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

#[test]
fn schemes_and_plan_verbs_answer_over_the_wire() {
    // Serve a planner-built snapshot so scheme provenance flows
    // end-to-end: planner -> BuiltRouting -> snapshot -> daemon.
    let g = gen::petersen();
    let plan = ftr_core::Planner::new()
        .plan(&g, &ftr_core::PlannerRequest::tolerate(2).single_routes())
        .unwrap();
    let winner = plan.winner.spec().to_string();
    let snapshot = RoutingSnapshot::from_built(plan.winner).unwrap();
    // The recorded spec is the canonical rendering, budget included.
    assert_eq!(snapshot.scheme().unwrap().spec, winner);
    let server = Server::bind(snapshot.into_shared(), ServerConfig::default())
        .unwrap()
        .spawn();
    let mut client = Client::connect(server.addr()).unwrap();

    // SCHEMES: one entry per registry scheme, applicable ones carrying
    // their (d, f)/theorem guarantee, inapplicable ones a dash.
    let schemes = client.request("SCHEMES").unwrap();
    assert!(schemes.starts_with("OK SCHEMES "), "{schemes}");
    let entries: Vec<&str> = schemes["OK SCHEMES ".len()..].split(' ').collect();
    assert_eq!(entries.len(), ftr_core::SCHEME_NAMES.len(), "{schemes}");
    assert!(
        entries.iter().any(|e| e.starts_with("kernel=(")),
        "kernel applies on petersen: {schemes}"
    );
    assert!(
        entries.contains(&"hypercube=-"),
        "petersen is not a hypercube: {schemes}"
    );
    // Memoized: the second survey renders identically.
    assert_eq!(client.request("SCHEMES").unwrap(), schemes);

    // PLAN: a (3, 2) target on petersen is met by the augmentation
    // scheme; an impossible fault budget reports none.
    let plan_reply = client.request("PLAN 3 2").unwrap();
    assert!(
        plan_reply.starts_with("OK PLAN scheme=augment:f=2 theorem=sec6-augment d=3 f=2"),
        "{plan_reply}"
    );
    assert_eq!(client.request("PLAN 3 2").unwrap(), plan_reply, "memoized");
    assert_eq!(client.request("PLAN 1 9").unwrap(), "OK PLAN none");
    assert!(client.request("PLAN").unwrap().starts_with("ERR "));

    drop(client);
    server.shutdown_and_join().unwrap();
}

/// Writes `requests` down one raw connection in a single segment and
/// returns exactly `lines` reply lines as the bytes that came back.
fn raw_exchange(stream: &mut std::net::TcpStream, requests: &str, lines: usize) -> String {
    use std::io::{Read, Write};
    stream.write_all(requests.as_bytes()).unwrap();
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    while got.iter().filter(|&&b| b == b'\n').count() < lines {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-transcript");
        got.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8(got).unwrap()
}

#[test]
fn golden_transcript_pins_the_bytes_on_the_wire() {
    // Everything the petersen kernel server says here is a pure function
    // of (snapshot, fault set): the transcript was recorded from the
    // per-node `to_string` + `join` renderers this path replaced and
    // must never move — clients and the benchmark's oracle compare
    // reply bytes.
    let (server, _) = start_petersen_server();
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut control = Client::connect(server.addr()).unwrap();

    let pristine = raw_exchange(
        &mut raw,
        "PING\nROUTE 0 5\nROUTE 5 0\nROUTE 2 9\nROUTE 0 0\nROUTE 0 10\nEPOCH\nTOLERATE 2 3\n",
        8,
    );
    assert_eq!(pristine, GOLDEN_PRISTINE);

    // One FAIL per epoch, so the ids are fixed too.
    assert!(control.fail(1).unwrap());
    assert_eq!(wait_for_faults(&mut control, 1), 1);
    assert!(control.fail(6).unwrap());
    assert_eq!(wait_for_faults(&mut control, 2), 2);

    let faulted = raw_exchange(
        &mut raw,
        "EPOCH\nROUTE 0 1\nROUTE 0 5\nROUTE 2 9\nROUTE 9 2\nROUTE 2 9\nROUTE 7 3\nTOLERATE 4 2\nQUIT\n",
        9,
    );
    assert_eq!(faulted, GOLDEN_FAULTED);

    control.quit().unwrap();
    server.shutdown_and_join().unwrap();
}

const GOLDEN_PRISTINE: &str = "\
OK PONG
OK DIRECT 0 5
OK DIRECT 5 0
OK DETOUR 2 1 6 9
ERR route endpoints must differ
ERR node 10 out of range
OK EPOCH id=0 faults=-
OK TOLERATE no found=3 witness=2,3,6 sets=4
";

const GOLDEN_FAULTED: &str = "\
OK EPOCH id=2 faults=1,6
OK UNREACHABLE
OK DIRECT 0 5
OK DETOUR 2 3 4 9
OK DETOUR 9 4 3 2
OK DETOUR 2 3 4 9
OK DETOUR 7 2 3
OK TOLERATE no found=disconnect witness=1,3,6,7 sets=11
OK BYE
";
