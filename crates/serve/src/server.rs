//! The TCP daemon: sharded accept, readiness-polled connection shards,
//! and the glue between the protocol, the epoch store and the ingest
//! queue.
//!
//! The serve loop is built for pipelined throughput rather than
//! thread-per-connection simplicity. One accept thread (the caller's)
//! deals connections round-robin into per-shard inboxes; each shard
//! thread multiplexes its connections with nonblocking sockets and the
//! [`crate::poll::PollSet`] readiness shim, frame-decodes whole read
//! buffers into request *batches*, executes each batch against a single
//! epoch acquisition (one `Arc` clone per batch, one cache pass per
//! reply window — see [`query::route_batch`]), and writes one coalesced
//! reply buffer back per batch — or, when a batch takes long to
//! compute, the replies so far at a paced interval, so a pipelining
//! client never sleeps through a whole batch. After serving, a shard
//! polls without blocking for a short spell before it sleeps. Both
//! keep the two ends of a closed loop on their cores: on a shared host
//! a halted CPU is woken late and cold, by an amount that differs from
//! one minute to the next. One extra scoped thread runs the
//! [`Ingestor`]; shared state is only the epoch store, atomic counters
//! and the static-scheme memos.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use ftr_core::{GraphFacts, Planner, PlannerRequest, SchemeParams, SchemeRegistry};
use ftr_graph::Node;

use crate::epoch::{Epoch, EpochReader, EpochStore, QueryKey};
use crate::ingest::{EventQueue, FaultEvent, Ingestor};
use crate::metrics::{LocalObs, ServeObs, FLUSH_EVERY};
use crate::poll::PollSet;
use crate::proto::{parse_verb, render_diameter, render_node_list, Request, ROUTE, VERBS};
use crate::query::{self, QueryError};
use crate::snapshot::RoutingSnapshot;
use crate::watchdog::{SloConfig, Watchdog};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 to let the OS pick (see
    /// [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Connection-shard threads. Each shard multiplexes many
    /// connections with readiness polling, so this sizes to core
    /// count, not client count.
    pub shards: usize,
    /// How long the ingest thread holds a batch open after the first
    /// event, so bursts coalesce into one epoch advance.
    pub batch_window: Duration,
    /// Maximum events per batch.
    pub max_batch: usize,
    /// Worst-case fault-set budget for one `TOLERATE` search.
    pub tolerate_budget: u64,
    /// Worst-case fault-set budget for one `AUDIT` search (audits run
    /// on the pristine snapshot and are memoized, so they may be
    /// granted more room than per-epoch `TOLERATE`s).
    pub audit_budget: u64,
    /// Estimated-route-count cap for one `PLAN` evaluation (candidates
    /// above it are ruled out instead of built).
    pub plan_route_budget: usize,
    /// Whether the shards record metrics and trace events. Off, the
    /// hot path skips all recording (including clock reads); `METRICS`
    /// still answers, with the serve-side series frozen at zero.
    pub metrics: bool,
    /// Whether the shards record flight-recorder span trees (`SPANS` /
    /// `SLOW`). Forced off when `metrics` is off.
    pub spans: bool,
    /// SLO targets and sampling cadence for the stall watchdog (which
    /// runs only when `metrics` is on).
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: 2,
            batch_window: Duration::from_micros(200),
            max_batch: 1024,
            tolerate_budget: 250_000,
            audit_budget: 1_000_000,
            plan_route_budget: 2_000_000,
            metrics: true,
            spans: true,
            slo: SloConfig::default(),
        }
    }
}

/// Recovers a poisoned lock instead of panicking the acquiring thread.
/// Everything locked in this crate's serve loops tolerates it: inboxes
/// hold whole `TcpStream`s, and the PLAN/AUDIT memos cache deterministic
/// replies — a holder that panicked cannot have left a half-written
/// value.
pub(crate) fn relock<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Control handle for a bound (possibly running) server: address,
/// counters, live epoch access and shutdown.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    obs: Arc<ServeObs>,
    store: EpochStore,
    queue: Arc<EventQueue>,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound listen address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `STATS` counters, the metric registry and the journals (for
    /// `--metrics-json` exporters, tests and diagnostics).
    pub fn obs(&self) -> &Arc<ServeObs> {
        &self.obs
    }

    /// The epoch store (read-side, e.g. for tests and diagnostics).
    pub fn store(&self) -> &EpochStore {
        &self.store
    }

    /// Requests shutdown: closes the ingest queue, flags the loops and
    /// pokes the accept loop awake. Idempotent.
    pub fn shutdown(&self) {
        // AcqRel: the Release half publishes the flag to shard/accept
        // loops' Acquire loads; the Acquire half makes the idempotence
        // check see a racing shutdown's queue-close.
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound server, ready to run.
pub struct Server {
    snapshot: Arc<RoutingSnapshot>,
    config: ServerConfig,
    listener: TcpListener,
    handle: ServerHandle,
}

impl Server {
    /// Binds the listener and builds the epoch store (genesis epoch =
    /// fault-free snapshot).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(snapshot: Arc<RoutingSnapshot>, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let store = EpochStore::new(&snapshot.engine().epoch_state());
        let obs = Arc::new(ServeObs::new(
            config.metrics,
            config.spans,
            config.shards.max(1),
        ));
        {
            let mut reader = store.reader();
            let genesis = Arc::clone(reader.current());
            obs.seed_epoch(genesis.id(), genesis.faults().len() as u64);
        }
        let handle = ServerHandle {
            addr,
            obs,
            store,
            queue: Arc::new(EventQueue::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        Ok(Server {
            snapshot,
            config,
            listener,
            handle,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A control handle (clone freely).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Runs the server on the calling thread until
    /// [`ServerHandle::shutdown`]; shard threads and the ingest thread
    /// live in a `std::thread::scope` inside this call.
    ///
    /// # Errors
    ///
    /// Propagates listener failures other than shutdown-induced ones.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            snapshot,
            config,
            listener,
            handle,
        } = self;
        let shard_count = config.shards.max(1);
        let inboxes: Vec<Mutex<Vec<TcpStream>>> =
            (0..shard_count).map(|_| Mutex::new(Vec::new())).collect();
        // Scheme planning and auditing are static properties of the
        // served graph: the SCHEMES survey is memoized once, PLAN and
        // AUDIT replies per (d, f).
        let schemes = OnceLock::new();
        let plans = Mutex::new(HashMap::new());
        let audits = Mutex::new(HashMap::new());
        std::thread::scope(|scope| {
            let ingestor = Ingestor::new(snapshot.engine(), handle.store.clone())
                .with_obs(Arc::clone(&handle.obs));
            let queue = Arc::clone(&handle.queue);
            let (window, max_batch) = (config.batch_window, config.max_batch);
            scope.spawn(move || ingestor.run(&queue, window, max_batch));
            if config.metrics {
                let watchdog = Watchdog {
                    obs: &handle.obs,
                    queue: &handle.queue,
                    inboxes: &inboxes,
                    shutdown: &handle.shutdown,
                    slo: config.slo.clone(),
                };
                scope.spawn(move || watchdog.run());
            }
            for (index, inbox) in inboxes.iter().enumerate() {
                let shard = Shard {
                    index,
                    snapshot: &snapshot,
                    config: &config,
                    obs: &handle.obs,
                    queue: &handle.queue,
                    reader: handle.store.reader(),
                    shutdown: &handle.shutdown,
                    schemes: &schemes,
                    plans: &plans,
                    audits: &audits,
                    inbox,
                };
                scope.spawn(move || {
                    let mut shard = shard;
                    shard.run();
                });
            }
            // Accept loop on this thread: deal connections round-robin
            // into the shard inboxes. Transient errors (EMFILE, aborted
            // handshakes) back off exponentially instead of hot-looping.
            let mut next_shard = 0usize;
            let mut backoff = Duration::from_millis(1);
            const BACKOFF_CAP: Duration = Duration::from_millis(128);
            loop {
                match listener.accept() {
                    Ok((conn, _)) => {
                        backoff = Duration::from_millis(1);
                        if handle.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        handle.obs.connections.inc();
                        relock(inboxes[next_shard % shard_count].lock()).push(conn);
                        next_shard = next_shard.wrapping_add(1);
                    }
                    Err(_) => {
                        if handle.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        handle.obs.accept_retries.inc();
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CAP);
                    }
                }
            }
            handle.queue.close();
            Ok(())
        })
    }

    /// Runs the server on a background thread, returning a handle pair
    /// for in-process use (tests, the load generator).
    pub fn spawn(self) -> SpawnedServer {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        SpawnedServer { handle, join }
    }
}

/// A server running on a background thread (see [`Server::spawn`]).
pub struct SpawnedServer {
    handle: ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl SpawnedServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The control handle.
    pub fn handle(&self) -> &ServerHandle {
        &self.handle
    }

    /// Shuts the server down and joins its thread.
    ///
    /// # Errors
    ///
    /// Propagates a listener failure from the server loop; a server
    /// thread that itself panicked is reported as an error too.
    pub fn shutdown_and_join(self) -> std::io::Result<()> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

/// Upper bound on memoized `PLAN` (and `AUDIT`) replies; distinct
/// `(d, f)` targets beyond it are answered but not cached.
const PLAN_MEMO_CAP: usize = 64;

/// Poll timeout: how stale a shard may be about shutdown flags and
/// freshly accepted connections sitting in its inbox.
const POLL_TIMEOUT_MS: i32 = 10;

/// How long a shard keeps polling without blocking after it last served
/// a batch. A pipelining client's next burst arrives within its own
/// turnaround (tens of microseconds); a shard that blocks in `poll(2)`
/// in that gap halts its CPU, and what the wake-up then costs — and how
/// fast the core runs just after it — depends on what else the host did
/// with the core meanwhile. Staying on the core for the gap takes that
/// out of every burst; an idle shard still sleeps after one such spell.
const BUSY_POLL: Duration = Duration::from_micros(250);

/// A batch is answered in windows of this many requests: each window is
/// dispatched and serialized on its own, so its replies can be written
/// before the rest of the batch is computed (see [`REPLY_PACE`]).
const REPLY_WINDOW: usize = 32;

/// Replies of a batch still being computed are written at window
/// boundaries once this long has passed since the batch's last write,
/// so a pipelining client reads (and stays awake) while the shard works
/// instead of sleeping through the whole batch and being woken cold. A
/// batch computed inside it (a hundred-odd cache hits) is still one
/// write; the clock is read once per window.
const REPLY_PACE: Duration = Duration::from_micros(20);

/// A connection's unparsed input may grow only this far without a
/// newline before the connection is dropped as abusive.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed (at most one partial trailing
    /// line between batches).
    rbuf: Vec<u8>,
    /// Coalesced reply bytes not yet written.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written.
    wpos: usize,
    /// Peer sent EOF; serve what is buffered, flush, close.
    eof: bool,
    /// Peer sent QUIT; flush the replies (ending with `OK BYE`), close.
    quit: bool,
    /// Connection is finished (flushed + closing, or errored).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            eof: false,
            quit: false,
            dead: false,
        })
    }

    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Drains the socket into `rbuf` until `WouldBlock` (or EOF/error),
    /// reading through the shard's reused chunk buffer.
    fn fill(&mut self, chunk: &mut [u8]) {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Writes as much of `wbuf` as the socket accepts; `true` once
    /// nothing is left to write.
    fn write_pending(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return false;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return false;
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        true
    }

    /// [`Conn::write_pending`] at the end of a batch: on a complete
    /// flush, a connection pending close (QUIT or EOF) dies.
    fn flush(&mut self) {
        if self.write_pending() && (self.quit || self.eof) {
            self.dead = true;
        }
    }
}

/// One reply slot of a dispatch batch, aligned with the parsed request
/// at the same index.
enum Reply {
    /// A cached (or batch-computed) reply — the `Arc` is the cache's
    /// own allocation, serialized without copying into a `String`.
    Shared(Arc<str>),
    /// A reply rendered for this request alone.
    Owned(String),
    /// Placeholder for a validated ROUTE awaiting the batch pass.
    Pending,
}

/// Reusable per-shard buffers for batch dispatch.
#[derive(Default)]
struct DispatchScratch {
    /// Parsed requests with their rows in [`VERBS`].
    requests: Vec<Result<(usize, Request), String>>,
    replies: Vec<Reply>,
    /// `(reply index, x, y)` of validated ROUTE queries in this batch.
    jobs: Vec<(u32, Node, Node)>,
    /// The `(x, y)` column of `jobs`, contiguous for the cache pass.
    pairs: Vec<(Node, Node)>,
    /// Relay-search and render buffers of the ROUTE miss path.
    route: query::RouteScratch,
}

/// Per-shard state: an epoch reader (lock-free current-epoch access),
/// the shard's connections, and borrowed shared pieces.
struct Shard<'a> {
    /// This shard's index (labels its per-shard metric series).
    index: usize,
    snapshot: &'a RoutingSnapshot,
    config: &'a ServerConfig,
    obs: &'a ServeObs,
    queue: &'a EventQueue,
    reader: EpochReader,
    shutdown: &'a AtomicBool,
    /// Lazily memoized `SCHEMES` reply (one applicability survey per
    /// server lifetime — the graph never changes).
    schemes: &'a OnceLock<String>,
    /// Memoized `PLAN` replies per `(diameter, faults)` target.
    plans: &'a Mutex<HashMap<(u32, usize), String>>,
    /// Memoized `AUDIT` replies per `(diameter, faults)` claim — audits
    /// run against the pristine snapshot, so they never go stale.
    audits: &'a Mutex<HashMap<(u32, usize), String>>,
    /// Connections accepted for this shard, awaiting adoption.
    inbox: &'a Mutex<Vec<TcpStream>>,
}

impl Shard<'_> {
    fn run(&mut self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut poll = PollSet::new();
        let mut scratch = DispatchScratch::default();
        let mut local = LocalObs::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let ctx = DispatchCtx {
            snapshot: self.snapshot,
            config: self.config,
            obs: self.obs,
            queue: self.queue,
            schemes: self.schemes,
            plans: self.plans,
            audits: self.audits,
        };
        let mut served = Instant::now();
        while !self.shutdown.load(Ordering::Acquire) {
            // Adopt freshly accepted connections.
            {
                let mut inbox = relock(self.inbox.lock());
                for stream in inbox.drain(..) {
                    if let Ok(conn) = Conn::new(stream) {
                        conns.push(conn);
                    }
                }
            }
            poll.clear();
            for conn in &conns {
                poll.push(&conn.stream, conn.wants_write());
            }
            let mut ready = poll.wait(0);
            while ready == 0 && !conns.is_empty() && served.elapsed() < BUSY_POLL {
                std::hint::spin_loop();
                ready = poll.wait(0);
            }
            if ready == 0 && poll.wait(POLL_TIMEOUT_MS) == 0 {
                // Idle tick: fold the local accumulators into the shared
                // registry so scrapes never lag a quiet shard by more
                // than the poll timeout.
                local.flush(self.obs, self.index);
                continue;
            }
            for (i, conn) in conns.iter_mut().enumerate() {
                if conn.dead {
                    continue;
                }
                // A backlogged socket that still isn't writable would
                // answer every write with `WouldBlock`; skip it until
                // poll reports the send buffer drained.
                let backlogged = conn.wants_write() && !poll.writable(i);
                if poll.readable(i) && !conn.eof {
                    conn.fill(&mut chunk);
                }
                if !conn.rbuf.is_empty() || conn.eof {
                    Self::drain_batches(
                        self.index,
                        &ctx,
                        &mut self.reader,
                        conn,
                        &mut scratch,
                        &mut local,
                    );
                }
                // A non-empty recorder means `drain_batches` left a batch
                // tree open: time the coalesced socket write as its final
                // stage, then seal the tree into the flush queue.
                let recording = !local.recorder.is_empty();
                if !backlogged && (conn.wants_write() || conn.quit || conn.eof) {
                    if recording {
                        let span = local.recorder.start("write");
                        conn.flush();
                        local.recorder.end(span);
                    } else {
                        conn.flush();
                    }
                }
                if recording {
                    let (epoch, requests) = (local.pending_epoch, local.pending_requests);
                    local.seal_batch(self.index, epoch, requests);
                }
            }
            conns.retain(|c| !c.dead);
            served = Instant::now();
        }
        local.flush(self.obs, self.index);
    }

    // lint: hot-path
    // (through `trim_ascii`: the per-batch frame-decode + dispatch path
    // every request crosses. Lock acquisitions live behind `ctx` in
    // `dispatch_slow`, outside this region.)

    /// Frame-decodes every complete line buffered on `conn` into one
    /// request batch, dispatches it against a single epoch acquisition
    /// in windows of [`REPLY_WINDOW`] requests, and appends the replies
    /// to the connection's write buffer, writing what is buffered every
    /// [`REPLY_PACE`] while more of the batch is still to compute. At
    /// EOF a trailing partial line is served as a final request (a slow
    /// sender's last query is answered, not dropped).
    fn drain_batches(
        shard_index: usize,
        ctx: &DispatchCtx<'_>,
        reader: &mut EpochReader,
        conn: &mut Conn,
        scratch: &mut DispatchScratch,
        local: &mut LocalObs,
    ) {
        scratch.requests.clear();
        // Flight recorder: open the batch's root span and its decode
        // child before frame-decoding. The recorder is a plain
        // Vec-backed structure in shard-local state — no shared memory
        // is touched until `LocalObs::flush`.
        let spans_on = ctx.obs.spans_enabled();
        let decode_span = if spans_on {
            local.recorder.reset();
            local.recorder.start("batch");
            Some(local.recorder.start("decode"))
        } else {
            None
        };
        let buf = &conn.rbuf;
        let mut consumed = 0usize;
        let mut cursor = 0usize;
        while let Some(nl) = buf[cursor..].iter().position(|&b| b == b'\n') {
            let line = &buf[cursor..cursor + nl];
            cursor += nl + 1;
            consumed = cursor;
            if Self::push_line(&mut scratch.requests, line) {
                conn.quit = true;
                consumed = buf.len();
                break;
            }
        }
        if conn.eof && !conn.quit && consumed < buf.len() {
            // EOF mid-line: serve what we got.
            let line = &buf[consumed..];
            if Self::push_line(&mut scratch.requests, line) {
                conn.quit = true;
            }
            consumed = buf.len();
        }
        if consumed == 0 && buf.len() > MAX_LINE_BYTES {
            conn.dead = true;
            local.recorder.reset();
            return;
        }
        conn.rbuf.drain(..consumed);
        if let Some(span) = decode_span {
            local.recorder.end(span);
        }
        if scratch.requests.is_empty() {
            local.recorder.reset();
            return;
        }
        // One epoch acquisition for the whole window: every request of
        // the batch answers at the same epoch.
        let epoch = Arc::clone(reader.current());
        if spans_on {
            local.pending_epoch = epoch.id();
            local.pending_requests = scratch.requests.len() as u32;
        }
        ctx.obs.queries.add(scratch.requests.len() as u64);
        let DispatchScratch {
            requests,
            replies,
            jobs,
            pairs,
            route,
        } = scratch;
        let record = ctx.obs.enabled();
        if record {
            // Per-verb and batch-size accounting stays in the shard's
            // plain-integer local; only introspection verbs force an
            // early flush, so their replies see their own batch.
            local.batches += 1;
            local.batch_sizes.record(requests.len() as u64);
            let mut introspect = false;
            for &(verb, _) in requests.iter().flatten() {
                local.verbs[verb] += 1;
                introspect |= VERBS[verb].introspect;
            }
            if introspect {
                local.flush(ctx.obs, shard_index);
            }
        }
        let mut errors = 0u64;
        // Window by window, so that what is answered can leave while the
        // rest is computed; a batch that fits one window, or is done
        // inside `REPLY_PACE`, is a single pass and a single write.
        let mut written = Instant::now();
        let mut windows = requests.chunks(REPLY_WINDOW).peekable();
        while let Some(window) = windows.next() {
            replies.clear();
            jobs.clear();
            pairs.clear();
            for (idx, parsed) in window.iter().enumerate() {
                let reply = match parsed {
                    Err(reason) => {
                        errors += 1;
                        Reply::Owned(format!("ERR {reason}"))
                    }
                    // Malformed queries are rejected *before* the cache
                    // lookup, so an `ERR` reply is never cached and the
                    // cache's key space stays bounded by valid node pairs.
                    Ok((_, Request::Route { x, y })) => {
                        match query::validate_route_query(ctx.snapshot, *x, *y) {
                            Ok(()) => {
                                jobs.push((idx as u32, *x, *y));
                                pairs.push((*x, *y));
                                Reply::Pending
                            }
                            Err(e) => {
                                errors += 1;
                                Reply::Owned(format!("ERR {e}"))
                            }
                        }
                    }
                    // Timed verbs earn a latency distribution; the rest
                    // are O(1) renders not worth two clock reads each.
                    Ok((verb, request)) if record && VERBS[*verb].timed => {
                        let span = spans_on.then(|| local.recorder.start(VERBS[*verb].name));
                        let start = Instant::now();
                        let reply = ctx.dispatch_slow(*request, &epoch, &mut errors);
                        local.latency[*verb].record(start.elapsed().as_nanos() as u64);
                        if let Some(span) = span {
                            local.recorder.end(span);
                        }
                        reply
                    }
                    Ok((_, request)) => ctx.dispatch_slow(*request, &epoch, &mut errors),
                };
                replies.push(reply);
            }
            if !pairs.is_empty() {
                let mut hits = 0u64;
                let start = record.then(Instant::now);
                // The cache span covers the whole batched lookup; misses
                // that fall through to the engine report their first/last
                // compute window, recorded as a child "engine" span.
                let cache_span = spans_on.then(|| local.recorder.start("cache"));
                let mut window = query::EngineWindow::default();
                query::route_batch_with(
                    ctx.snapshot,
                    &epoch,
                    pairs,
                    route,
                    spans_on.then_some(&mut window),
                    |j, value, hit| {
                        hits += u64::from(hit);
                        replies[jobs[j].0 as usize] = Reply::Shared(value);
                    },
                );
                if window.active() {
                    local
                        .recorder
                        .record_window("engine", window.start_nanos, window.end_nanos);
                }
                if let Some(span) = cache_span {
                    local.recorder.end(span);
                }
                if let Some(start) = start {
                    // Batch-attributed ROUTE latency, mirroring the load
                    // generator's accounting: every query in the batch
                    // records the batch's compute time.
                    local.latency[ROUTE]
                        .record_n(start.elapsed().as_nanos() as u64, pairs.len() as u64);
                    local.hits += hits;
                    local.misses += pairs.len() as u64 - hits;
                }
                ctx.obs.cache_hits.add(hits);
            }
            let serialize_span = spans_on.then(|| local.recorder.start("serialize"));
            for reply in replies.iter() {
                match reply {
                    Reply::Shared(s) => conn.wbuf.extend_from_slice(s.as_bytes()),
                    Reply::Owned(s) => conn.wbuf.extend_from_slice(s.as_bytes()),
                    // The route batch fills every pending slot; a hole would
                    // be a bug, answered as an ERR line rather than a panic.
                    Reply::Pending => conn
                        .wbuf
                        .extend_from_slice(b"ERR internal: unresolved batch reply"),
                }
                conn.wbuf.push(b'\n');
            }
            if let Some(span) = serialize_span {
                local.recorder.end(span);
            }
            if windows.peek().is_some() && written.elapsed() >= REPLY_PACE {
                let span = spans_on.then(|| local.recorder.start("write"));
                conn.write_pending();
                if let Some(span) = span {
                    local.recorder.end(span);
                }
                written = Instant::now();
            }
        }
        ctx.obs.protocol_errors.add(errors);
        if local.batches >= FLUSH_EVERY {
            local.flush(ctx.obs, shard_index);
        }
        // The root "batch" span stays open: the caller closes it around
        // the coalesced socket write via `LocalObs::seal_batch`.
    }

    /// Parses one raw line into the batch; returns `true` on QUIT (the
    /// batch ends there; pipelined bytes after a QUIT are discarded,
    /// matching the blocking loop's behavior). Empty lines produce no
    /// request and no reply.
    fn push_line(requests: &mut Vec<Result<(usize, Request), String>>, line: &[u8]) -> bool {
        let line = trim_ascii(line);
        if line.is_empty() {
            return false;
        }
        let parsed = match std::str::from_utf8(line) {
            Ok(s) => parse_verb(s),
            Err(_) => Err("request is not valid UTF-8".to_string()),
        };
        let quit = matches!(parsed, Ok((_, Request::Quit)));
        requests.push(parsed);
        quit
    }
}

fn trim_ascii(mut line: &[u8]) -> &[u8] {
    while let [b, rest @ ..] = line {
        if b.is_ascii_whitespace() {
            line = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., b] = line {
        if b.is_ascii_whitespace() {
            line = rest;
        } else {
            break;
        }
    }
    line
}
// lint: end-hot-path

/// The shared pieces a batch dispatch needs, split from [`Shard`] so
/// the epoch reader can be borrowed mutably alongside.
struct DispatchCtx<'a> {
    snapshot: &'a RoutingSnapshot,
    config: &'a ServerConfig,
    obs: &'a ServeObs,
    queue: &'a EventQueue,
    schemes: &'a OnceLock<String>,
    plans: &'a Mutex<HashMap<(u32, usize), String>>,
    audits: &'a Mutex<HashMap<(u32, usize), String>>,
}

impl DispatchCtx<'_> {
    /// Answers every verb except `ROUTE` (batched separately by the
    /// caller) against the batch's epoch.
    fn dispatch_slow(&self, request: Request, epoch: &Arc<Epoch>, errors: &mut u64) -> Reply {
        match request {
            Request::Ping => Reply::Owned("OK PONG".to_string()),
            Request::Quit => Reply::Owned("OK BYE".to_string()),
            // ROUTE is batched by the caller; a stray one reaching the
            // slow path is a dispatch bug, answered as an ERR.
            Request::Route { .. } => {
                *errors += 1;
                Reply::Owned("ERR internal: unbatched ROUTE".to_string())
            }
            Request::Epoch => Reply::Owned(format!(
                "OK EPOCH id={} faults={}",
                epoch.id(),
                query::render_faults(epoch.faults())
            )),
            Request::Diam => Reply::Owned(render_diameter(epoch.diameter())),
            Request::Tolerate { diameter, faults } => {
                let budget = self.config.tolerate_budget;
                let needed = query::tolerate_cost(self.snapshot, epoch, faults);
                if needed > budget {
                    // Bound-aware budget guard: reject with a structured
                    // ERR naming the worst-case search size instead of
                    // truncating the sweep.
                    *errors += 1;
                    Reply::Owned(format!(
                        "ERR {}",
                        QueryError::TolerateBudget { needed, budget }
                    ))
                } else {
                    // The pruned search is bound-aware, so the cache key
                    // carries the full (d, f) claim; the search itself is
                    // single-threaded and deterministic, so a cached
                    // reply is byte-identical to a fresh one.
                    let mut searched = None;
                    let (reply, hit) = epoch.cache().get_or_insert_with(
                        QueryKey::Tolerate(diameter, faults),
                        || match query::tolerate_search(self.snapshot, epoch, diameter, faults) {
                            Ok(a) => {
                                searched = Some((a.sets, a.pruned, a.wall_nanos));
                                render_tolerate(&a)
                            }
                            // A searcher invariant breach: a visible
                            // ERR, never a silent wrong answer.
                            Err(e) => format!("ERR {e}"),
                        },
                    );
                    if let Some((sets, pruned, wall)) = searched {
                        self.obs
                            .search("tolerate_search", epoch.id(), sets, pruned, wall);
                    }
                    if hit {
                        self.obs.cache_hits.inc();
                    }
                    Reply::Shared(reply)
                }
            }
            Request::Audit { diameter, faults } => {
                let budget = self.config.audit_budget;
                let key = (diameter, faults);
                let cached = relock(self.audits.lock()).get(&key).cloned();
                match cached {
                    Some(reply) => {
                        self.obs.cache_hits.inc();
                        Reply::Owned(reply)
                    }
                    None => match query::audit_claim(self.snapshot, diameter, faults, budget) {
                        Err(e) => {
                            *errors += 1;
                            Reply::Owned(format!("ERR {e}"))
                        }
                        Ok(a) => {
                            self.obs.search(
                                "audit_search",
                                epoch.id(),
                                a.visited,
                                a.pruned,
                                a.wall_nanos,
                            );
                            let reply = render_audit(&a);
                            let mut audits = relock(self.audits.lock());
                            if audits.len() < PLAN_MEMO_CAP {
                                audits.insert(key, reply.clone());
                            }
                            Reply::Owned(reply)
                        }
                    },
                }
            }
            Request::Fail(v) | Request::Repair(v) => {
                if (v as usize) >= self.snapshot.node_count() {
                    *errors += 1;
                    Reply::Owned(format!("ERR {}", QueryError::NodeOutOfRange(v)))
                } else {
                    let event = match request {
                        Request::Fail(v) => FaultEvent::Fail(v),
                        _ => FaultEvent::Repair(v),
                    };
                    self.queue.push(event);
                    self.obs.events_enqueued.inc();
                    Reply::Owned("OK QUEUED".to_string())
                }
            }
            Request::Stats => {
                let obs = self.obs;
                // Every pre-existing token stays byte-identical, in the
                // same order; uptime and the per-verb counters (prefixed
                // `verb_` so names can never collide with the originals)
                // are appended after them.
                let mut reply = format!(
                    "OK STATS epoch={} faults={} queries={} cache_hits={} errors={} \
                     connections={} events={} accept_retries={} uptime_s={}",
                    epoch.id(),
                    epoch.faults().len(),
                    obs.queries.get(),
                    obs.cache_hits.get(),
                    obs.protocol_errors.get(),
                    obs.connections.get(),
                    obs.events_enqueued.get(),
                    obs.accept_retries.get(),
                    obs.uptime_seconds()
                );
                let counts = obs.verb_counts();
                for (verb, count) in VERBS.iter().zip(counts) {
                    use std::fmt::Write as _;
                    let _ = write!(reply, " verb_{}={count}", verb.name);
                }
                {
                    use std::fmt::Write as _;
                    let _ = write!(
                        reply,
                        " alerts_active={} spans_dropped={}",
                        self.obs.alerts_active(),
                        self.obs.spans_dropped()
                    );
                }
                Reply::Owned(reply)
            }
            Request::Metrics => Reply::Owned(self.obs.metrics_reply()),
            Request::Trace(n) => Reply::Owned(self.obs.trace_reply(n)),
            Request::Spans(n) => Reply::Owned(self.obs.spans_reply(n)),
            Request::Slow(n) => Reply::Owned(self.obs.slow_reply(n)),
            Request::Lineage(n) => Reply::Owned(self.obs.lineage_reply(n)),
            // The served graph never changes, so the applicability
            // survey is computed once per server lifetime.
            Request::Schemes => Reply::Owned(
                self.schemes
                    .get_or_init(|| {
                        let registry = SchemeRegistry::standard();
                        let params = SchemeParams::default();
                        let facts = GraphFacts::new(self.snapshot.graph());
                        let parts: Vec<String> = registry
                            .iter()
                            .map(|scheme| match scheme.applicability(&facts, &params) {
                                Ok(g) => format!(
                                    "{}=({},{})/{}",
                                    scheme.name(),
                                    g.diameter,
                                    g.faults,
                                    g.theorem.token()
                                ),
                                Err(_) => format!("{}=-", scheme.name()),
                            })
                            .collect();
                        format!("OK SCHEMES {}", parts.join(" "))
                    })
                    .clone(),
            ),
            // A dry run of the planner against the served network; the
            // serving snapshot is never swapped. The memo lock is never
            // held across a plan (candidate builds take seconds on large
            // graphs and must not serialize every connection's PLAN);
            // concurrent identical targets may race to build the same
            // plan — deterministic, so they insert the same reply.
            Request::Plan { diameter, faults } => {
                let key = (diameter, faults);
                let cached = relock(self.plans.lock()).get(&key).cloned();
                match cached {
                    Some(reply) => Reply::Owned(reply),
                    None => {
                        let request = PlannerRequest::tolerate(faults)
                            .within_diameter(diameter)
                            .single_routes()
                            .max_routes(self.config.plan_route_budget);
                        let reply = match Planner::new().plan(self.snapshot.graph(), &request) {
                            Ok(plan) => {
                                let g = plan.winner.guarantee();
                                format!(
                                    "OK PLAN scheme={} theorem={} d={} f={} routes={}",
                                    plan.winner.spec(),
                                    g.theorem.token(),
                                    g.diameter,
                                    g.faults,
                                    g.routes
                                )
                            }
                            Err(_) => "OK PLAN none".to_string(),
                        };
                        let mut plans = relock(self.plans.lock());
                        // A malicious target sweep must not grow the memo
                        // without bound; past the cap, plans still answer,
                        // just uncached.
                        if plans.len() < PLAN_MEMO_CAP {
                            plans.insert(key, reply.clone());
                        }
                        Reply::Owned(reply)
                    }
                }
            }
        }
    }
}

/// Renders a [`query::ToleranceAnswer`] as its `OK TOLERATE …` line.
fn render_tolerate(a: &query::ToleranceAnswer) -> String {
    if a.holds {
        format!("OK TOLERATE yes sets={} pruned={}", a.sets, a.pruned)
    } else {
        format!(
            "OK TOLERATE no found={} witness={} sets={}",
            render_found(a.found),
            render_node_list(a.witness.iter().copied()),
            a.sets
        )
    }
}

/// Renders a [`query::AuditAnswer`] as its `OK AUDIT …` line.
fn render_audit(a: &query::AuditAnswer) -> String {
    if a.holds {
        format!(
            "OK AUDIT holds visited={} pruned={} covered={} space={}",
            a.visited,
            a.pruned,
            a.visited + a.pruned,
            a.space
        )
    } else {
        format!(
            "OK AUDIT violated found={} witness={} visited={}",
            render_found(a.found),
            render_node_list(a.witness.iter().copied()),
            a.visited
        )
    }
}

fn render_found(found: Option<Option<u32>>) -> String {
    match found {
        Some(Some(d)) => d.to_string(),
        Some(None) => "disconnect".to_string(),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_core::KernelRouting;
    use ftr_graph::gen;

    #[test]
    fn bind_picks_a_port_and_shuts_down_cleanly() {
        let g = gen::petersen();
        let kernel = KernelRouting::build(&g).unwrap();
        let snapshot = RoutingSnapshot::new(g, kernel.routing().clone())
            .unwrap()
            .into_shared();
        let server = Server::bind(snapshot, ServerConfig::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        let spawned = server.spawn();
        spawned.shutdown_and_join().unwrap();
    }

    #[test]
    fn trim_ascii_strips_both_ends() {
        assert_eq!(trim_ascii(b"  PING \r\n"), b"PING");
        assert_eq!(trim_ascii(b"\r\n"), b"");
        assert_eq!(trim_ascii(b""), b"");
        assert_eq!(trim_ascii(b"a b"), b"a b");
    }
}
