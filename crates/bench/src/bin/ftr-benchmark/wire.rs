//! Load generation over the wire protocol: the closed-loop and
//! open-loop route phases, the churn connection, the quiet probe cycle,
//! the reference sweep and the `STATS` / `METRICS` scrapes.

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ftr_graph::Node;
use ftr_serve::{Client, FaultEvent, ReplyLines};

use crate::gen::{tolerate_line, Entry, RequestStream};
use crate::oracle::Reference;
use crate::spec::{Probe, OVERLOAD_BACKLOG_S, PIPELINE_DEPTH, SLICE_S};
use crate::stats::percentile_u32;

/// How long a fault event may take to show up in `EPOCH` before it
/// counts as failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(2);

/// Pause between `EPOCH` polls while waiting for a fault event to show.
/// The churn thread shares a CPU with the load generator; polling back
/// to back would take that CPU for the whole wait.
const EPOCH_POLL_PAUSE: Duration = Duration::from_micros(50);

/// How long an open-loop phase keeps reading after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Which rule ROUTE replies are held to.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// No faults can be live: replies must byte-equal the reference.
    Pristine(&'a Reference),
    /// Faults come and go: replies must be structurally valid.
    Structural(&'a Reference),
}

impl Check<'_> {
    fn route_ok(self, x: Node, y: Node, reply: &[u8]) -> bool {
        match self {
            Check::Pristine(r) => r.matches_pristine(x, y, reply),
            Check::Structural(r) => r.is_valid_route_reply(x, y, reply),
        }
    }

    fn entry_ok(self, entry: Entry, reply: &[u8]) -> bool {
        match entry {
            Entry::Route(x, y) => self.route_ok(x, y, reply),
            Entry::Probe(Probe::Diam) => reply.starts_with(b"OK DIAM "),
            Entry::Probe(Probe::Epoch) => reply.starts_with(b"OK EPOCH id="),
            // Every workload stays within its scheme's guarantee, so the
            // tolerance probe must hold.
            Entry::Probe(Probe::Tolerate) => reply.starts_with(b"OK TOLERATE yes "),
        }
    }
}

fn invalid(what: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, what)
}

/// Result of one closed-loop phase.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub tally: Tally,
    /// Correct ROUTE replies.
    pub routes_ok: u64,
    /// Time with a burst on the wire: from each burst's write to the
    /// read of its last reply, summed. Checking the replies happens
    /// between bursts and is not part of it.
    pub on_wire_s: f64,
    /// Correct ROUTE replies per second of time on the wire, for each
    /// slice of the phase (`slice_s` seconds by the clock).
    pub slice_qps: Vec<f64>,
    /// Request-to-reply time of every TOLERATE probe, in microseconds.
    pub tolerate_us: Vec<f64>,
}

/// Sends pipelined bursts of [`PIPELINE_DEPTH`] requests for `window`,
/// one burst in flight at a time. A burst that opens with a probe sends
/// the probe on its own first, so the probe's latency is its own.
///
/// Throughput is replies over time on the wire: the oracle's work on a
/// burst's replies (which grows with path length) is done while nothing
/// is in flight and is left out, so the figure moves with the daemon
/// and the transport, not with the harness.
pub fn closed_loop(
    client: &mut Client,
    stream: &RequestStream,
    window: Duration,
    slice_s: f64,
    check: Check<'_>,
) -> io::Result<ClosedLoop> {
    let mut out = ClosedLoop::default();
    let mut replies = ReplyLines::new();
    let start = Instant::now();
    let mut on_wire = Duration::ZERO;
    let slice = Duration::from_secs_f64(slice_s);
    // When the current slice began, and the totals at that moment.
    let (mut slice_began, mut wire_before, mut routes_before) = (start, Duration::ZERO, 0u64);
    let mut pos = 0;
    while start.elapsed() < window {
        let end = pos + PIPELINE_DEPTH;
        let mut from = pos;
        if let Entry::Probe(probe) = stream.entries[pos] {
            let sent = Instant::now();
            client.pipeline_raw(stream.frame(pos, pos + 1), 1, &mut replies)?;
            let took = sent.elapsed();
            on_wire += took;
            if probe == Probe::Tolerate {
                out.tolerate_us.push(took.as_secs_f64() * 1e6);
            }
            out.tally
                .count(check.entry_ok(stream.entries[pos], replies.line(0)));
            from += 1;
        }
        let sent = Instant::now();
        client.pipeline_raw(stream.frame(from, end), end - from, &mut replies)?;
        on_wire += sent.elapsed();
        for (entry, reply) in stream.entries[from..end].iter().zip(replies.iter()) {
            let ok = check.entry_ok(*entry, reply);
            out.tally.count(ok);
            out.routes_ok += u64::from(ok);
        }
        pos = if end == stream.len() { 0 } else { end };
        if slice_began.elapsed() >= slice {
            let routes = out.routes_ok - routes_before;
            out.slice_qps
                .push(routes as f64 / (on_wire - wire_before).as_secs_f64());
            (slice_began, wire_before, routes_before) = (Instant::now(), on_wire, out.routes_ok);
        }
    }
    out.on_wire_s = on_wire.as_secs_f64();
    // A phase shorter than one slice is one slice.
    if out.slice_qps.is_empty() {
        out.slice_qps.push(out.routes_ok as f64 / out.on_wire_s);
    }
    Ok(out)
}

/// The open-loop schedule and its accounting, kept apart from the
/// socket so it can be driven by a synthetic clock: request `i` is due
/// `i / rate` seconds into the phase, and every latency is taken from
/// that due time, whenever the request was actually written.
#[derive(Debug)]
pub struct Schedule {
    rate: f64,
    total: u64,
    pub sent: u64,
    pub received: u64,
    pub inflight_max: u64,
    pub overloaded: bool,
    /// Send time minus due time per request, in nanoseconds.
    pub send_lag_ns: Vec<u32>,
}

impl Schedule {
    /// A schedule of `window_s` seconds at `rate` requests per second.
    pub fn new(rate: f64, window_s: f64) -> Schedule {
        let total = (rate * window_s).floor().max(1.0) as u64;
        Schedule {
            rate,
            total,
            sent: 0,
            received: 0,
            inflight_max: 0,
            overloaded: false,
            send_lag_ns: Vec::with_capacity(total as usize),
        }
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.rate) as u64
    }

    /// How many requests of the schedule are due at `now_ns`.
    pub fn due_count(&self, now_ns: u64) -> u64 {
        (((now_ns as f64 * self.rate / 1e9).floor() as u64) + 1).min(self.total)
    }

    /// Records that requests up to (not including) `upto` were written
    /// at `now_ns`, and checks the backlog limit.
    pub fn mark_sent(&mut self, upto: u64, now_ns: u64) {
        for i in self.sent..upto {
            self.send_lag_ns
                .push(saturate(now_ns.saturating_sub(self.due_ns(i))));
        }
        self.sent = upto;
        self.inflight_max = self.inflight_max.max(self.sent - self.received);
        // Requests due but stuck behind a full socket are backlog too.
        let backlog = self.due_count(now_ns).max(self.sent) - self.received;
        if backlog as f64 > self.rate * OVERLOAD_BACKLOG_S {
            self.overloaded = true;
        }
    }

    /// Records the next reply, read at `now_ns`; returns the index of
    /// the request it answers and its latency from that request's due
    /// time.
    pub fn mark_reply(&mut self, now_ns: u64) -> (u64, u32) {
        let i = self.received;
        self.received += 1;
        (i, saturate(now_ns.saturating_sub(self.due_ns(i))))
    }

    pub fn done(&self) -> bool {
        self.received >= self.total
    }
}

fn saturate(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Result of one open-loop phase.
#[derive(Debug)]
pub struct OpenLoop {
    pub tally: Tally,
    /// Latency from due time of every correct ROUTE reply, nanoseconds.
    pub route_latency_ns: Vec<u32>,
    /// Median of those latencies, in microseconds, for each slice of the
    /// schedule ([`SLICE_S`] seconds of due times).
    pub slice_p50_us: Vec<f64>,
    pub send_lag_ns: Vec<u32>,
    pub inflight_max: u64,
    pub overloaded: bool,
}

/// Runs one open-loop phase on a fresh connection: every request that
/// has come due is written each turn of a single-threaded loop over a
/// nonblocking socket, and replies are timed from their due time with
/// one clock read per socket read.
pub fn open_loop(
    addr: SocketAddr,
    stream: &RequestStream,
    rate: f64,
    window: Duration,
    check: Check<'_>,
) -> io::Result<OpenLoop> {
    let mut socket = TcpStream::connect(addr)?;
    socket.set_nodelay(true)?;
    // One blocking round trip before the clock starts: a shard adopts a
    // new connection at its next poll turn, up to 10 ms away, and that
    // wait belongs to connecting, not to the first requests.
    socket.write_all(b"PING\n")?;
    let mut pong = [0u8; 8];
    socket.read_exact(&mut pong)?;
    if &pong != b"OK PONG\n" {
        return Err(invalid("no PONG on the open-loop connection".into()));
    }
    socket.set_nonblocking(true)?;
    let mut schedule = Schedule::new(rate, window.as_secs_f64());
    let mut tally = Tally::default();
    let mut route_latency_ns: Vec<u32> = Vec::with_capacity(schedule.total() as usize);
    // Where in `route_latency_ns` each slice of the schedule starts.
    let per_slice = (rate * SLICE_S).max(1.0);
    let mut slice_starts: Vec<usize> = Vec::new();
    // Position in the framed stream of the next byte to write; a
    // request counts as sent once its last byte is written.
    let mut byte_pos = 0usize;
    let mut rbuf = vec![0u8; 1 << 16];
    let mut filled = 0usize;
    let start = Instant::now();
    let mut drain_deadline: Option<Instant> = None;
    while !schedule.done() && !schedule.overloaded {
        let mut progressed = false;
        let now_ns = start.elapsed().as_nanos() as u64;
        let due = schedule.due_count(now_ns);
        if schedule.sent < due {
            // Write up to the end of the due requests, or to the end of
            // the stream when the schedule wraps around it.
            let lap_start = schedule.sent - (schedule.sent % stream.len() as u64);
            let to = ((due - lap_start) as usize).min(stream.len());
            let target = stream.offsets[to] as usize;
            let mut upto = schedule.sent;
            match socket.write(&stream.bytes[byte_pos..target]) {
                Ok(written) => {
                    byte_pos += written;
                    while upto < lap_start + to as u64
                        && stream.offsets[(upto - lap_start) as usize + 1] as usize <= byte_pos
                    {
                        upto += 1;
                    }
                    if byte_pos == stream.bytes.len() {
                        byte_pos = 0;
                    }
                    progressed = written > 0;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            // Also when nothing could be written: the backlog check must
            // see a socket that stays full.
            schedule.mark_sent(upto, start.elapsed().as_nanos() as u64);
        } else if schedule.sent == schedule.total() {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
            if Instant::now() > deadline {
                break;
            }
        }
        match socket.read(&mut rbuf[filled..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(read) => {
                let read_ns = start.elapsed().as_nanos() as u64;
                filled += read;
                let mut consumed = 0;
                while let Some(len) = rbuf[consumed..filled].iter().position(|&b| b == b'\n') {
                    let reply = &rbuf[consumed..consumed + len];
                    let reply = reply.strip_suffix(b"\r").unwrap_or(reply);
                    if schedule.received >= schedule.sent {
                        return Err(invalid("reply without a request".into()));
                    }
                    let (i, latency) = schedule.mark_reply(read_ns);
                    let entry = stream.entries[(i % stream.len() as u64) as usize];
                    let ok = check.entry_ok(entry, reply);
                    tally.count(ok);
                    if ok && matches!(entry, Entry::Route(..)) {
                        let slice = (i as f64 / per_slice) as usize;
                        while slice_starts.len() <= slice {
                            slice_starts.push(route_latency_ns.len());
                        }
                        route_latency_ns.push(latency);
                    }
                    consumed += len + 1;
                }
                rbuf.copy_within(consumed..filled, 0);
                filled -= consumed;
                if filled == rbuf.len() {
                    return Err(invalid("reply line longer than the read buffer".into()));
                }
                progressed = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if !progressed {
            // Nothing due and nothing to read: let the churn thread and
            // the daemon have the core.
            std::thread::yield_now();
        }
    }
    // Requests never answered, and every request of an overloaded
    // phase, count as failed.
    let unanswered = schedule.total() - tally.attempted;
    tally.attempted += unanswered;
    tally.failed += unanswered;
    if schedule.overloaded {
        tally.failed = tally.attempted;
        route_latency_ns.clear();
        slice_starts.clear();
    }
    // A last slice with under half the samples of a full one is left out.
    slice_starts.push(route_latency_ns.len());
    let slice_p50_us = slice_starts
        .windows(2)
        .enumerate()
        .filter(|(i, w)| *i == 0 || (w[1] - w[0]) as f64 * 2.0 >= per_slice)
        .filter_map(|(_, w)| percentile_u32(&mut route_latency_ns[w[0]..w[1]], 0.5))
        .map(|ns| f64::from(ns) / 1e3)
        .collect();
    Ok(OpenLoop {
        tally,
        route_latency_ns,
        slice_p50_us,
        send_lag_ns: schedule.send_lag_ns,
        inflight_max: schedule.inflight_max,
        overloaded: schedule.overloaded,
    })
}

/// Sends one fault event and polls `EPOCH` until the epoch id passes
/// `last_id`. Returns the time from the event's write to the read of
/// the first `EPOCH` reply with a larger id, the new id and the fault
/// count, or `None` if that did not happen within the timeout.
fn apply_and_wait(
    client: &mut Client,
    event: FaultEvent,
    last_id: u64,
) -> io::Result<Option<(Duration, u64, usize)>> {
    let sent = Instant::now();
    let queued = match event {
        FaultEvent::Fail(v) => client.fail(v)?,
        FaultEvent::Repair(v) => client.repair(v)?,
    };
    if !queued {
        return Ok(None);
    }
    loop {
        let (id, faults) = client.epoch()?;
        let elapsed = sent.elapsed();
        if id > last_id {
            return Ok(Some((elapsed, id, faults)));
        }
        if elapsed > VISIBLE_TIMEOUT {
            return Ok(None);
        }
        std::thread::sleep(EPOCH_POLL_PAUSE);
    }
}

/// What the churn connection measured.
#[derive(Debug, Default)]
pub struct ChurnOutcome {
    pub tally: Tally,
    /// FAIL-to-visible time of every FAIL event, in microseconds.
    pub fail_visible_us: Vec<f64>,
}

/// Tracks which nodes the harness has failed, applies events one at a
/// time and checks each against the fault count `EPOCH` reports.
struct FaultDriver {
    client: Client,
    last_id: u64,
    down: Vec<Node>,
    outcome: ChurnOutcome,
}

impl FaultDriver {
    fn connect(addr: SocketAddr) -> io::Result<FaultDriver> {
        let mut client = Client::connect(addr)?;
        let (last_id, faults) = client.epoch()?;
        if faults != 0 {
            return Err(invalid(format!("daemon starts with {faults} faults")));
        }
        Ok(FaultDriver {
            client,
            last_id,
            down: Vec::new(),
            outcome: ChurnOutcome::default(),
        })
    }

    fn apply(&mut self, event: FaultEvent) -> io::Result<()> {
        match event {
            FaultEvent::Fail(v) => self.down.push(v),
            FaultEvent::Repair(v) => self.down.retain(|&d| d != v),
        }
        let seen = apply_and_wait(&mut self.client, event, self.last_id)?;
        let ok = seen.is_some_and(|(_, _, faults)| faults == self.down.len());
        self.outcome.tally.count(ok);
        if let Some((elapsed, id, _)) = seen {
            self.last_id = id;
            if ok && matches!(event, FaultEvent::Fail(_)) {
                self.outcome
                    .fail_visible_us
                    .push(elapsed.as_secs_f64() * 1e6);
            }
        }
        Ok(())
    }

    /// Repairs everything still down, so the daemon ends fault-free.
    fn repair_all(&mut self) -> io::Result<()> {
        while let Some(&v) = self.down.first() {
            self.apply(FaultEvent::Repair(v))?;
        }
        Ok(())
    }
}

/// The churn connection, running on the harness's second thread.
/// Dropping it without [`ChurnThread::finish`] (an error path) still
/// stops and joins the thread.
pub struct ChurnThread {
    stop: mpsc::Sender<()>,
    handle: Option<JoinHandle<io::Result<ChurnOutcome>>>,
}

impl ChurnThread {
    /// Starts applying `schedule` at `hz` events per second on a
    /// connection of its own.
    pub fn start(addr: SocketAddr, schedule: Vec<FaultEvent>, hz: f64) -> io::Result<ChurnThread> {
        let mut driver = FaultDriver::connect(addr)?;
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            for (i, event) in schedule.into_iter().enumerate() {
                let due = Duration::from_secs_f64(i as f64 / hz);
                let wait = due.saturating_sub(start.elapsed());
                match stopped.recv_timeout(wait) {
                    Err(RecvTimeoutError::Timeout) => driver.apply(event)?,
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            driver.repair_all()?;
            Ok(driver.outcome)
        });
        Ok(ChurnThread {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the schedule, waits until every fault is repaired and
    /// visible as repaired, and returns the measurements.
    pub fn finish(mut self) -> io::Result<ChurnOutcome> {
        self.stop_and_join()
            .unwrap_or_else(|| Err(io::Error::other("churn thread already joined")))
    }

    fn stop_and_join(&mut self) -> Option<io::Result<ChurnOutcome>> {
        let handle = self.handle.take()?;
        // A send error means the thread already ended; join reports why.
        let _ = self.stop.send(());
        Some(
            handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("churn thread panicked"))),
        )
    }
}

impl Drop for ChurnThread {
    fn drop(&mut self) {
        // Only reached with the handle still present on an error path,
        // where the first error is the one reported.
        let _ = self.stop_and_join();
    }
}

/// What the quiet probe cycle measured.
#[derive(Debug, Default)]
pub struct QuietProbes {
    pub tally: Tally,
    pub fail_visible_us: Vec<f64>,
    pub tolerate_us: Vec<f64>,
}

/// On a daemon with no other traffic: fail a node, wait until visible,
/// ask `TOLERATE`, repair it, wait, ask again — once per victim. Every
/// `TOLERATE` lands on a fresh epoch, so none is served from the epoch
/// cache.
pub fn quiet_probes(
    addr: SocketAddr,
    victims: &[Node],
    tolerate: (u32, usize),
) -> io::Result<QuietProbes> {
    let mut driver = FaultDriver::connect(addr)?;
    let mut out = QuietProbes::default();
    let line = tolerate_line(tolerate);
    for &v in victims {
        for event in [FaultEvent::Fail(v), FaultEvent::Repair(v)] {
            driver.apply(event)?;
            let sent = Instant::now();
            let reply = driver.client.request(line.trim_end())?;
            out.tolerate_us.push(sent.elapsed().as_secs_f64() * 1e6);
            out.tally.count(reply.starts_with("OK TOLERATE yes "));
        }
    }
    out.tally.add(driver.outcome.tally);
    out.fail_visible_us = driver.outcome.fail_visible_us;
    Ok(out)
}

/// Sends `ROUTE` for every pair of `stream` on a fault-free daemon and
/// counts the replies that differ from the pristine reference.
pub fn sweep(
    client: &mut Client,
    stream: &RequestStream,
    reference: &Reference,
) -> io::Result<Tally> {
    let mut replies = ReplyLines::new();
    client.pipeline_raw(&stream.bytes, stream.len(), &mut replies)?;
    let mut tally = Tally::default();
    for (entry, reply) in stream.entries.iter().zip(replies.iter()) {
        tally.count(Check::Pristine(reference).entry_ok(*entry, reply));
    }
    Ok(tally)
}

/// Waits until `EPOCH` reports no faults (the churn thread has repaired
/// everything; this confirms the route connection sees it too).
pub fn wait_fault_free(client: &mut Client) -> io::Result<bool> {
    let start = Instant::now();
    loop {
        if client.epoch()?.1 == 0 {
            return Ok(true);
        }
        if start.elapsed() > VISIBLE_TIMEOUT {
            return Ok(false);
        }
    }
}

/// The `key=value` counters of a `STATS` reply.
pub fn stats(client: &mut Client) -> io::Result<BTreeMap<String, f64>> {
    let reply = client.request("STATS")?;
    let body = reply
        .strip_prefix("OK STATS ")
        .ok_or_else(|| invalid(format!("unexpected STATS reply {reply:?}")))?;
    Ok(body
        .split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Every sample of a `METRICS` exposition, keyed by its series name
/// with labels (`ftr_stage_seconds_sum{stage="decode"}`).
pub fn metrics(client: &mut Client) -> io::Result<BTreeMap<String, f64>> {
    Ok(parse_exposition(&client.metrics()?))
}

fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a schedule against a server that answers instantly except
    /// during one stall, on a synthetic clock with a 100 us turn.
    fn run_with_stall(
        rate: f64,
        window_s: f64,
        stall: std::ops::Range<u64>,
    ) -> (Schedule, Vec<(u64, u32)>) {
        let mut schedule = Schedule::new(rate, window_s);
        let mut latencies = Vec::new();
        let mut now = 0u64;
        while !schedule.done() && !schedule.overloaded {
            let due = schedule.due_count(now);
            schedule.mark_sent(due, now);
            if !stall.contains(&now) {
                while schedule.received < schedule.sent {
                    latencies.push(schedule.mark_reply(now));
                }
            }
            now += 100_000;
        }
        (schedule, latencies)
    }

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::new(1000.0, 2.0);
        assert_eq!(s.total(), 2000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1500), 1_500_000_000);
        assert_eq!(s.due_count(0), 1);
        assert_eq!(s.due_count(999_999), 1);
        assert_eq!(s.due_count(1_000_000), 2);
        assert_eq!(s.due_count(10_000_000_000), 2000);
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time() {
        // 10k requests/s for 1 s; the server stalls from 200 ms to 250 ms.
        let (schedule, latencies) = run_with_stall(10_000.0, 1.0, 200_000_000..250_000_000);
        assert_eq!(latencies.len(), 10_000);
        assert!(!schedule.overloaded);
        // The request due as the stall began waited the whole stall;
        // later ones waited what was left of it when they came due.
        let at = |ms: u64| latencies[(ms * 10) as usize].1;
        assert_eq!(at(200), 50_000_000);
        assert_eq!(at(225), 25_000_000);
        assert_eq!(at(100), 0);
        assert_eq!(at(300), 0);
        let stalled = latencies.iter().filter(|(_, l)| *l > 0).count();
        assert!((495..=505).contains(&stalled), "{stalled} requests waited");
        assert!(schedule.inflight_max >= 499);
        // The generator itself was never late.
        assert!(schedule.send_lag_ns.iter().all(|&lag| lag < 100_000));
    }

    #[test]
    fn a_late_generator_is_reported_as_send_lag_not_hidden() {
        let mut schedule = Schedule::new(1000.0, 1.0);
        // The generator wakes 30 ms late: 31 requests are due at once.
        let due = schedule.due_count(30_000_000);
        assert_eq!(due, 31);
        schedule.mark_sent(due, 30_000_000);
        assert_eq!(schedule.send_lag_ns[0], 30_000_000);
        assert_eq!(schedule.send_lag_ns[30], 0);
        let (i, latency) = schedule.mark_reply(30_500_000);
        assert_eq!((i, latency), (0, 30_500_000));
    }

    #[test]
    fn a_backlog_over_one_second_of_schedule_is_overload() {
        // The server stops answering at 100 ms and never recovers.
        let (schedule, latencies) = run_with_stall(10_000.0, 5.0, 100_000_000..u64::MAX);
        assert!(schedule.overloaded);
        assert!(!schedule.done());
        assert!(latencies.len() < 1_100);
        assert!(schedule.inflight_max > 10_000);
        // A stall shorter than the limit is not overload.
        let (schedule, _) = run_with_stall(10_000.0, 3.0, 100_000_000..900_000_000);
        assert!(!schedule.overloaded && schedule.done());
    }

    #[test]
    fn expositions_parse_into_series() {
        let text = "# HELP x y\n# TYPE x counter\nftr_requests_total{verb=\"route\"} 42\n\
                    ftr_stage_seconds_sum{stage=\"decode\"} 0.000009970\nftr_epoch_id 7\n";
        let series = parse_exposition(text);
        assert_eq!(series["ftr_requests_total{verb=\"route\"}"], 42.0);
        assert_eq!(
            series["ftr_stage_seconds_sum{stage=\"decode\"}"],
            0.00000997
        );
        assert_eq!(series["ftr_epoch_id"], 7.0);
        assert_eq!(series.len(), 3);
    }
}
