//! Server-side observability: the metric catalog, per-shard local
//! accumulators and the `METRICS`/`TRACE` reply rendering.
//!
//! Built on [`ftr_obs`]. The hot-path discipline is the one the load
//! generator's qps floor demands: connection shards record into plain
//! (non-atomic) [`LocalObs`] cells and flush them into the shared
//! registry in bulk — every [`FLUSH_EVERY`] batches, on poll-timeout
//! idle, when the batch contains an introspection verb (so `STATS` /
//! `METRICS` see their own batch), and at shard exit. No locks and no
//! shared-cacheline stores per request. The ingest thread and the
//! audit/tolerate handlers run at epoch/search rate and record straight
//! into the shared atomics.
//!
//! With [`crate::ServerConfig::metrics`] off, shards skip all recording
//! (including the `Instant::now` reads); the registry still exists, so
//! `METRICS` stays answerable — its serve-side series just stay zero.

use std::sync::Arc;

use ftr_obs::{
    monotonic_nanos, AtomicHistogram, BatchSpans, Counter, Gauge, Histogram, LineageJournal,
    LineageRecord, Registry, SpanRecorder, SpanStore, TraceEvent, TraceRing, Unit,
};

use crate::proto::{ROUTE, VERBS};

/// Stage labels of the flight-recorder span tree, in dispatch order.
/// `batch` is the root; the rest are its children (`engine` nests under
/// `cache`). Slow verbs additionally record a span named after the verb.
pub(crate) const STAGES: [&str; 6] = ["batch", "decode", "cache", "engine", "serialize", "write"];

/// Flush a shard's [`LocalObs`] into the shared registry every this
/// many dispatch batches (also flushed on idle and at shard exit).
pub(crate) const FLUSH_EVERY: u32 = 64;

/// Default capacity of the trace ring (events, not bytes).
pub(crate) const TRACE_CAPACITY: usize = 1024;

/// Recent-batch ring capacity of the span store (`SPANS`).
pub(crate) const SPAN_RECENT_CAP: usize = 64;
/// Tail-retained slow-batch ring capacity (`SLOW`).
pub(crate) const SPAN_SLOW_CAP: usize = 32;
/// Lineage journal capacity (`LINEAGE`).
pub(crate) const LINEAGE_CAPACITY: usize = 512;

/// The server's metric registry plus every series the layers record
/// into, shared through [`crate::ServerHandle`].
pub struct ServeObs {
    enabled: bool,
    spans_enabled: bool,
    registry: Registry,
    trace: Arc<TraceRing>,
    start_nanos: u64,
    // ---- the `STATS` tallies, counted whether `enabled` or not ----
    /// Requests answered, `ERR` replies included (`STATS queries=`).
    pub queries: Arc<Counter>,
    /// `ROUTE`/`TOLERATE` answers served from the epoch cache plus
    /// `AUDIT` memo hits (`STATS cache_hits=`).
    pub cache_hits: Arc<Counter>,
    /// Malformed requests and query errors (`STATS errors=`).
    pub protocol_errors: Arc<Counter>,
    /// Connections accepted (`STATS connections=`).
    pub connections: Arc<Counter>,
    /// Fault events enqueued (`STATS events=`).
    pub events_enqueued: Arc<Counter>,
    /// Transient accept-loop errors retried (`STATS accept_retries=`).
    pub accept_retries: Arc<Counter>,
    // ---- serve ----
    requests: Vec<Arc<Counter>>,
    /// Latency histograms by verb row; `None` for untimed verbs.
    latency: Vec<Option<Arc<AtomicHistogram>>>,
    shard_hits: Vec<Arc<Counter>>,
    shard_misses: Vec<Arc<Counter>>,
    shard_batch: Vec<Arc<AtomicHistogram>>,
    // ---- flight recorder ----
    stage_seconds: Vec<Arc<AtomicHistogram>>,
    spans: Arc<SpanStore>,
    lineage: Arc<LineageJournal>,
    alerts_active: Arc<Gauge>,
    // ---- ingest / epoch ----
    ingest_events: Arc<Counter>,
    ingest_batches: Arc<Counter>,
    ingest_applied: Arc<Counter>,
    ingest_occupancy: Arc<AtomicHistogram>,
    ingest_apply_seconds: Arc<AtomicHistogram>,
    epoch_publish_seconds: Arc<AtomicHistogram>,
    epoch_id: Arc<Gauge>,
    epoch_faults: Arc<Gauge>,
    epoch_advances: Arc<Counter>,
    // ---- audit / tolerate searches ----
    search_visited: Arc<Counter>,
    search_pruned: Arc<Counter>,
    search_wall_seconds: Arc<AtomicHistogram>,
}

impl ServeObs {
    /// Builds the full catalog for `shards` connection shards. `spans`
    /// toggles flight-recorder span collection independently of the
    /// base metrics (and is forced off when `enabled` is).
    pub(crate) fn new(enabled: bool, spans: bool, shards: usize) -> Self {
        let start_nanos = monotonic_nanos();
        let registry = Registry::new();
        let trace = Arc::new(TraceRing::new(TRACE_CAPACITY));

        registry.func_gauge(
            "ftr_uptime_seconds",
            "Seconds since the server observatory was created.",
            &[],
            move || (monotonic_nanos() - start_nanos) / 1_000_000_000,
        );
        let requests = VERBS
            .iter()
            .map(|verb| {
                registry.counter(
                    "ftr_requests_total",
                    "Requests dispatched, by verb (parsed lines only).",
                    &[("verb", verb.name)],
                )
            })
            .collect();
        let latency = VERBS
            .iter()
            .map(|verb| {
                verb.timed.then(|| {
                    registry.histogram(
                        "ftr_request_latency_seconds",
                        "Server-side dispatch latency by verb (ROUTE is \
                         batch-attributed: each query in a batch records the \
                         batch's compute time).",
                        Unit::Seconds,
                        &[("verb", verb.name)],
                    )
                })
            })
            .collect();
        let mut shard_hits = Vec::with_capacity(shards);
        let mut shard_misses = Vec::with_capacity(shards);
        let mut shard_batch = Vec::with_capacity(shards);
        for s in 0..shards {
            let shard = s.to_string();
            shard_hits.push(registry.counter(
                "ftr_cache_hits_total",
                "Epoch-cache hits, by connection shard.",
                &[("shard", &shard)],
            ));
            shard_misses.push(registry.counter(
                "ftr_cache_misses_total",
                "Epoch-cache misses, by connection shard.",
                &[("shard", &shard)],
            ));
            shard_batch.push(registry.histogram(
                "ftr_batch_size",
                "Requests per dispatch batch, by connection shard.",
                Unit::None,
                &[("shard", &shard)],
            ));
        }
        let stage_seconds = STAGES
            .iter()
            .map(|stage| {
                registry.histogram(
                    "ftr_stage_seconds",
                    "Flight-recorder stage durations per dispatch batch \
                     (batch is the root span; engine nests under cache).",
                    Unit::Seconds,
                    &[("stage", stage)],
                )
            })
            .collect();
        let spans_store = Arc::new(SpanStore::new(SPAN_RECENT_CAP, SPAN_SLOW_CAP));
        let sp = Arc::clone(&spans_store);
        registry.func_counter(
            "ftr_span_batches_total",
            "Batch span trees ingested by the span store.",
            &[],
            move || sp.batches_total(),
        );
        let sp = Arc::clone(&spans_store);
        registry.func_counter(
            "ftr_spans_dropped_total",
            "Spans evicted from the recent/slow rings (STATS spans_dropped=).",
            &[],
            move || sp.spans_dropped(),
        );
        let sp = Arc::clone(&spans_store);
        registry.func_counter(
            "ftr_span_slow_retained_total",
            "Batches tail-retained in the slow-query log (total over p99).",
            &[],
            move || sp.slow_total(),
        );
        let sp = Arc::clone(&spans_store);
        registry.func_gauge(
            "ftr_span_slow_threshold_nanos",
            "Rolling p99 of batch total duration gating slow retention.",
            &[],
            move || sp.p99_nanos(),
        );
        let lineage = Arc::new(LineageJournal::new(LINEAGE_CAPACITY));
        let lj = Arc::clone(&lineage);
        registry.func_counter(
            "ftr_lineage_records_total",
            "Epoch-advance records pushed to the lineage journal.",
            &[],
            move || lj.total(),
        );
        let lj = Arc::clone(&lineage);
        registry.func_counter(
            "ftr_lineage_dropped_total",
            "Lineage records evicted by the journal bound.",
            &[],
            move || lj.dropped(),
        );
        let alerts_active = registry.gauge(
            "ftr_alerts_active",
            "SLO burn alerts currently firing (STATS alerts_active=).",
            &[],
        );

        let queries = registry.counter(
            "ftr_queries_total",
            "Requests answered, ERR replies included (STATS queries=).",
            &[],
        );
        let connections = registry.counter(
            "ftr_connections_total",
            "Connections accepted (STATS connections=).",
            &[],
        );
        let protocol_errors = registry.counter(
            "ftr_protocol_errors_total",
            "Malformed requests and query errors (STATS errors=).",
            &[],
        );
        let events_enqueued = registry.counter(
            "ftr_events_enqueued_total",
            "Fault events enqueued (STATS events=).",
            &[],
        );
        let accept_retries = registry.counter(
            "ftr_accept_retries_total",
            "Transient accept-loop errors retried (STATS accept_retries=).",
            &[],
        );
        let cache_hits = registry.counter(
            "ftr_reply_cache_hits_total",
            "ROUTE/TOLERATE answers served from the epoch cache plus AUDIT \
             memo hits (STATS cache_hits=).",
            &[],
        );

        let ingest_events = registry.counter(
            "ftr_ingest_events_total",
            "Fault events drained by the ingest thread.",
            &[],
        );
        let ingest_batches = registry.counter(
            "ftr_ingest_batches_total",
            "Ingest batches drained (effective or not).",
            &[],
        );
        let ingest_applied = registry.counter(
            "ftr_ingest_applied_total",
            "Events that actually toggled a node.",
            &[],
        );
        let ingest_occupancy = registry.histogram(
            "ftr_ingest_batch_occupancy",
            "Events per ingest batch (window occupancy; cap is the \
             configured max batch).",
            Unit::None,
            &[],
        );
        let ingest_apply_seconds = registry.histogram(
            "ftr_ingest_apply_seconds",
            "Incremental epoch-advance time per effective batch \
             (toggles applied, excluding the publish swap).",
            Unit::Seconds,
            &[],
        );
        let epoch_publish_seconds = registry.histogram(
            "ftr_epoch_publish_seconds",
            "Snapshot-swap (epoch publish) time.",
            Unit::Seconds,
            &[],
        );
        let epoch_id = registry.gauge("ftr_epoch_id", "Current epoch id.", &[]);
        let epoch_faults =
            registry.gauge("ftr_epoch_faults", "Fault count of the current epoch.", &[]);
        let epoch_advances = registry.counter(
            "ftr_epoch_advances_total",
            "Epochs published since start.",
            &[],
        );

        let search_visited = registry.counter(
            "ftr_search_visited_total",
            "Fault sets evaluated by TOLERATE/AUDIT searches.",
            &[],
        );
        let search_pruned = registry.counter(
            "ftr_search_pruned_total",
            "Fault sets covered by pruning in TOLERATE/AUDIT searches.",
            &[],
        );
        let search_wall_seconds = registry.histogram(
            "ftr_search_wall_seconds",
            "TOLERATE/AUDIT search wall time.",
            Unit::Seconds,
            &[],
        );

        let t = Arc::clone(&trace);
        registry.func_counter(
            "ftr_trace_events_total",
            "Events pushed to the trace ring since start.",
            &[],
            move || t.total(),
        );
        let t = Arc::clone(&trace);
        registry.func_counter(
            "ftr_trace_dropped_total",
            "Trace events evicted from the ring.",
            &[],
            move || t.dropped(),
        );

        #[cfg(feature = "obs-counters")]
        {
            registry.func_counter(
                "ftr_engine_bfs_calls_total",
                "Bit-parallel BFS invocations (obs-counters feature).",
                &[],
                ftr_graph::obs::bfs_calls,
            );
            registry.func_counter(
                "ftr_engine_bfs_levels_total",
                "BFS frontier levels expanded (obs-counters feature).",
                &[],
                ftr_graph::obs::bfs_levels,
            );
            registry.func_counter(
                "ftr_engine_batch_calls_total",
                "Batched diameter-kernel invocations (obs-counters feature).",
                &[],
                ftr_core::obs::batch_calls,
            );
            registry.func_counter(
                "ftr_engine_batch_sets_total",
                "Fault sets evaluated by the batched kernel (obs-counters \
                 feature).",
                &[],
                ftr_core::obs::batch_sets,
            );
        }

        ServeObs {
            enabled,
            spans_enabled: enabled && spans,
            registry,
            trace,
            start_nanos,
            queries,
            cache_hits,
            protocol_errors,
            connections,
            events_enqueued,
            accept_retries,
            requests,
            latency,
            shard_hits,
            shard_misses,
            shard_batch,
            stage_seconds,
            spans: spans_store,
            lineage,
            alerts_active,
            ingest_events,
            ingest_batches,
            ingest_applied,
            ingest_occupancy,
            ingest_apply_seconds,
            epoch_publish_seconds,
            epoch_id,
            epoch_faults,
            epoch_advances,
            search_visited,
            search_pruned,
            search_wall_seconds,
        }
    }

    /// Whether shards record (the exposition works either way).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether shards collect flight-recorder span trees.
    pub fn spans_enabled(&self) -> bool {
        self.spans_enabled
    }

    /// The metric registry (the watchdog registers its gauges here).
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The alerts-active gauge (set by the watchdog, read by `STATS`).
    pub(crate) fn alerts_active_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.alerts_active)
    }

    /// SLO burn alerts currently firing.
    pub(crate) fn alerts_active(&self) -> u64 {
        self.alerts_active.get()
    }

    /// Spans evicted from the span-store rings since start.
    pub(crate) fn spans_dropped(&self) -> u64 {
        self.spans.spans_dropped()
    }

    /// Point-in-time route-latency histogram (cumulative; diff two
    /// snapshots for a window) — the watchdog's burn-rate input.
    pub(crate) fn route_latency_snapshot(&self) -> Histogram {
        self.latency[ROUTE]
            .as_ref()
            .map_or_else(Histogram::new, |route| route.snapshot())
    }

    /// Point-in-time epoch-publish latency histogram (cumulative).
    pub(crate) fn epoch_publish_snapshot(&self) -> Histogram {
        self.epoch_publish_seconds.snapshot()
    }

    /// Epochs published since start.
    pub(crate) fn epoch_advances_total(&self) -> u64 {
        self.epoch_advances.get()
    }

    /// The last published epoch id (from the gauge; tags trace events
    /// pushed off the request path).
    pub(crate) fn epoch_id_value(&self) -> u64 {
        self.epoch_id.get()
    }

    /// Whole seconds since the observatory was created.
    pub fn uptime_seconds(&self) -> u64 {
        (monotonic_nanos() - self.start_nanos) / 1_000_000_000
    }

    /// The event journal.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The flight recorder's span store (the `SPANS`/`SLOW` source).
    /// Tests arm its rolling p99 with injected batch durations, so what
    /// `SLOW` retains does not hang on how long the host took over a
    /// handful of warm-up batches.
    pub fn span_store(&self) -> &SpanStore {
        &self.spans
    }

    /// The last `n` journal events, oldest first.
    pub fn trace_last(&self, n: usize) -> Vec<TraceEvent> {
        self.trace.last(n)
    }

    /// Per-verb request counts, aligned with [`VERBS`].
    pub(crate) fn verb_counts(&self) -> [u64; VERBS.len()] {
        let mut out = [0u64; VERBS.len()];
        for (slot, counter) in out.iter_mut().zip(&self.requests) {
            *slot = counter.get();
        }
        out
    }

    /// Prometheus text exposition of the whole registry.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Flat JSON snapshot of the whole registry.
    pub fn render_json(&self) -> String {
        self.registry.render_json()
    }

    /// The `OK METRICS lines=<k>` reply: header plus the exposition
    /// lines, newline-separated (the server's write loop appends the
    /// final newline).
    pub(crate) fn metrics_reply(&self) -> String {
        let body = self.render_prometheus();
        let body = body.trim_end_matches('\n');
        if body.is_empty() {
            return "OK METRICS lines=0".to_string();
        }
        format!("OK METRICS lines={}\n{body}", body.lines().count())
    }

    /// The `OK TRACE lines=<k>` reply draining the last `n` events.
    pub(crate) fn trace_reply(&self, n: usize) -> String {
        let events = self.trace.last(n);
        let mut out = format!("OK TRACE lines={}", events.len());
        for event in &events {
            out.push('\n');
            out.push_str(&event.to_string());
        }
        out
    }

    fn span_reply(verb: &str, batches: &[BatchSpans]) -> String {
        let total: usize = batches.iter().map(|b| b.spans.len()).sum();
        let mut out = format!("OK {verb} lines={total}");
        for batch in batches {
            for line in batch.lines() {
                out.push('\n');
                out.push_str(&line);
            }
        }
        out
    }

    /// The `OK SPANS lines=<k>` reply: the newest `n` batch span trees,
    /// batches oldest first, one line per span.
    pub(crate) fn spans_reply(&self, n: usize) -> String {
        Self::span_reply("SPANS", &self.spans.recent(n))
    }

    /// The `OK SLOW lines=<k>` reply from the tail-retained slow log.
    pub(crate) fn slow_reply(&self, n: usize) -> String {
        Self::span_reply("SLOW", &self.spans.slow(n))
    }

    /// The `OK LINEAGE lines=<k>` reply: the newest `n` epoch-advance
    /// records, oldest first.
    pub(crate) fn lineage_reply(&self, n: usize) -> String {
        let records = self.lineage.last(n);
        let mut out = format!("OK LINEAGE lines={}", records.len());
        for record in &records {
            out.push('\n');
            out.push_str(&record.to_string());
        }
        out
    }

    /// Records one drained ingest batch (and, when it published, the
    /// epoch advance — including its lineage-journal record: parent
    /// epoch, applied events, occupancy delta, apply/publish timing) —
    /// called from the ingest thread at batch rate. `parent` is the
    /// epoch id the advance derived from and `faults_before` its live
    /// fault count, captured before the publish.
    // Mirrors IngestReport's fields; bundling them re-creates that struct.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ingest_batch(
        &self,
        events: u64,
        applied: u64,
        apply_nanos: u64,
        publish_nanos: u64,
        published: bool,
        epoch_id: u64,
        faults: u64,
        parent: u64,
        faults_before: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.ingest_events.add(events);
        self.ingest_batches.inc();
        self.ingest_applied.add(applied);
        self.ingest_occupancy.record(events);
        if published {
            self.ingest_apply_seconds.record(apply_nanos);
            self.epoch_publish_seconds.record(publish_nanos);
            self.epoch_id.set(epoch_id);
            self.epoch_faults.set(faults);
            self.epoch_advances.inc();
            self.lineage.push(LineageRecord {
                epoch: epoch_id,
                parent,
                events,
                applied,
                faults,
                delta: faults as i64 - faults_before as i64,
                apply_nanos,
                publish_nanos,
                at_nanos: monotonic_nanos(),
            });
            self.trace.push(TraceEvent::now(
                epoch_id,
                "epoch_publish",
                format!(
                    "events={events} applied={applied} faults={faults} \
                     apply_ns={apply_nanos} publish_ns={publish_nanos}"
                ),
            ));
        } else {
            self.trace.push(TraceEvent::now(
                epoch_id,
                "ingest_noop",
                format!("events={events}"),
            ));
        }
    }

    /// Seeds the epoch gauges from the genesis epoch.
    pub(crate) fn seed_epoch(&self, epoch_id: u64, faults: u64) {
        self.epoch_id.set(epoch_id);
        self.epoch_faults.set(faults);
        self.trace.push(TraceEvent::now(
            epoch_id,
            "server_start",
            format!("faults={faults}"),
        ));
    }

    /// Records one TOLERATE/AUDIT search (visited/pruned progression
    /// plus wall time) — called at search rate, never per query.
    pub(crate) fn search(
        &self,
        kind: &'static str,
        epoch_id: u64,
        visited: u64,
        pruned: u64,
        wall_nanos: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.search_visited.add(visited);
        self.search_pruned.add(pruned);
        self.search_wall_seconds.record(wall_nanos);
        self.trace.push(TraceEvent::now(
            epoch_id,
            kind,
            format!("visited={visited} pruned={pruned} wall_ns={wall_nanos}"),
        ));
    }
}

/// A shard's plain-integer metric accumulator: written on the dispatch
/// hot path without atomics, flushed in bulk into [`ServeObs`]. The
/// flight recorder rides the same discipline: spans accumulate in the
/// embedded [`SpanRecorder`], sealed batch trees queue in `span_batches`
/// and per-stage durations in `stage`, all flushed on the same cadence.
pub(crate) struct LocalObs {
    pub verbs: [u64; VERBS.len()],
    pub hits: u64,
    pub misses: u64,
    pub batch_sizes: Histogram,
    /// Latency by verb row (only timed verbs record).
    pub latency: [Histogram; VERBS.len()],
    /// Dispatch batches since the last flush.
    pub batches: u32,
    /// The shard's span buffer for the batch currently dispatching.
    pub recorder: SpanRecorder,
    /// Sealed batch span trees awaiting flush into the span store.
    pub span_batches: Vec<BatchSpans>,
    /// Per-stage span durations awaiting flush, aligned with [`STAGES`].
    pub stage: [Histogram; STAGES.len()],
    /// Per-shard monotone batch sequence number (never reset).
    pub batch_seq: u64,
    /// Epoch id of the batch currently open in the recorder.
    pub pending_epoch: u64,
    /// Request count of the batch currently open in the recorder.
    pub pending_requests: u32,
}

impl LocalObs {
    pub fn new() -> Self {
        LocalObs {
            verbs: [0; VERBS.len()],
            hits: 0,
            misses: 0,
            batch_sizes: Histogram::new(),
            latency: std::array::from_fn(|_| Histogram::new()),
            batches: 0,
            recorder: SpanRecorder::new(),
            span_batches: Vec::new(),
            stage: std::array::from_fn(|_| Histogram::new()),
            batch_seq: 0,
            pending_epoch: 0,
            pending_requests: 0,
        }
    }

    /// Seals the recorder's current span tree as one batch, recording
    /// its stage durations locally and queueing the tree for flush.
    pub fn seal_batch(&mut self, shard: usize, epoch: u64, requests: u32) {
        if self.recorder.is_empty() {
            return;
        }
        self.batch_seq += 1;
        let batch = self
            .recorder
            .take(shard as u32, self.batch_seq, epoch, requests);
        for span in &batch.spans {
            if let Some(i) = STAGES.iter().position(|s| *s == span.stage) {
                self.stage[i].record(span.duration_nanos());
            }
        }
        self.span_batches.push(batch);
    }

    /// Whether anything has accumulated since the last flush. (Latency
    /// and cache outcomes can land after a mid-batch introspection
    /// flush, so this checks every cell, not just the batch count.)
    pub fn dirty(&self) -> bool {
        self.batches > 0
            || self.hits > 0
            || self.misses > 0
            || !self.batch_sizes.is_empty()
            || self.latency.iter().any(|h| !h.is_empty())
            || !self.span_batches.is_empty()
            || self.stage.iter().any(|h| !h.is_empty())
    }

    /// Folds everything into the shared registry and resets.
    pub fn flush(&mut self, obs: &ServeObs, shard: usize) {
        if !self.dirty() {
            return;
        }
        for (count, counter) in self.verbs.iter_mut().zip(&obs.requests) {
            counter.add(*count);
            *count = 0;
        }
        obs.shard_hits[shard].add(self.hits);
        obs.shard_misses[shard].add(self.misses);
        self.hits = 0;
        self.misses = 0;
        obs.shard_batch[shard].merge_from(&self.batch_sizes);
        self.batch_sizes.clear();
        for (local, shared) in self.latency.iter_mut().zip(&obs.latency) {
            if let Some(shared) = shared {
                shared.merge_from(local);
            }
            local.clear();
        }
        for (local, shared) in self.stage.iter_mut().zip(&obs.stage_seconds) {
            shared.merge_from(local);
            local.clear();
        }
        obs.spans.ingest(&mut self.span_batches);
        self.batches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_renders_at_least_twelve_series() {
        let obs = ServeObs::new(true, true, 2);
        let text = obs.render_prometheus();
        let families: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(
            families.len() >= 12,
            "only {} families: {families:?}",
            families.len()
        );
        for required in [
            "ftr_uptime_seconds",
            "ftr_requests_total",
            "ftr_request_latency_seconds",
            "ftr_cache_hits_total",
            "ftr_cache_misses_total",
            "ftr_batch_size",
            "ftr_ingest_events_total",
            "ftr_ingest_batch_occupancy",
            "ftr_epoch_id",
            "ftr_epoch_advances_total",
            "ftr_epoch_publish_seconds",
            "ftr_search_visited_total",
            "ftr_search_wall_seconds",
            "ftr_stage_seconds",
            "ftr_span_batches_total",
            "ftr_spans_dropped_total",
            "ftr_span_slow_retained_total",
            "ftr_span_slow_threshold_nanos",
            "ftr_lineage_records_total",
            "ftr_lineage_dropped_total",
            "ftr_alerts_active",
        ] {
            assert!(families.contains(required), "missing {required}");
        }
    }

    #[test]
    fn local_obs_flushes_into_the_shared_catalog() {
        let obs = ServeObs::new(true, true, 1);
        let mut local = LocalObs::new();
        local.verbs[0] += 3; // route
        local.verbs[1] += 1; // ping
        local.hits += 2;
        local.misses += 1;
        local.batch_sizes.record(4);
        local.latency[ROUTE].record_n(10_000, 4);
        local.batches = 1;
        local.flush(&obs, 0);
        assert!(!local.dirty());
        let counts = obs.verb_counts();
        assert_eq!(counts[0], 3);
        assert_eq!(counts[1], 1);
        let text = obs.render_prometheus();
        assert!(text.contains("ftr_cache_hits_total{shard=\"0\"} 2"));
        assert!(text.contains("ftr_cache_misses_total{shard=\"0\"} 1"));
        assert!(text.contains("ftr_request_latency_seconds_count{verb=\"route\"} 4"));
        // Flushing twice adds nothing.
        local.flush(&obs, 0);
        assert_eq!(obs.verb_counts()[0], 3);
    }

    #[test]
    fn ingest_and_search_paths_record_and_trace() {
        let obs = ServeObs::new(true, true, 1);
        obs.seed_epoch(0, 0);
        obs.ingest_batch(3, 2, 1_000, 500, true, 1, 2, 0, 0);
        obs.ingest_batch(1, 0, 0, 0, false, 1, 2, 1, 2);
        obs.search("audit_search", 1, 56, 0, 2_000_000);
        let text = obs.render_prometheus();
        assert!(text.contains("ftr_ingest_events_total 4"));
        assert!(text.contains("ftr_ingest_batches_total 2"));
        assert!(text.contains("ftr_ingest_applied_total 2"));
        assert!(text.contains("ftr_epoch_id 1"));
        assert!(text.contains("ftr_epoch_faults 2"));
        assert!(text.contains("ftr_epoch_advances_total 1"));
        assert!(text.contains("ftr_search_visited_total 56"));
        let events = obs.trace_last(10);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, "server_start");
        assert_eq!(events[1].kind, "epoch_publish");
        assert_eq!(events[2].kind, "ingest_noop");
        assert_eq!(events[3].kind, "audit_search");
        let reply = obs.trace_reply(2);
        assert!(reply.starts_with("OK TRACE lines=2\n"));
        assert!(reply.contains("kind=audit_search"));
        let metrics = obs.metrics_reply();
        assert!(metrics.starts_with("OK METRICS lines="));
        // Disabled recording is a no-op but the exposition still works.
        let off = ServeObs::new(false, true, 1);
        assert!(!off.spans_enabled(), "spans force off without metrics");
        off.ingest_batch(3, 2, 1_000, 500, true, 1, 2, 0, 0);
        off.search("audit_search", 1, 5, 0, 10);
        assert!(off
            .render_prometheus()
            .contains("ftr_ingest_events_total 0"));
        assert!(off.metrics_reply().starts_with("OK METRICS lines="));
    }

    #[test]
    fn flight_recorder_flushes_and_replies() {
        let obs = ServeObs::new(true, true, 1);
        assert!(obs.spans_enabled());
        let mut local = LocalObs::new();
        // An abandoned (empty) batch seals to nothing.
        local.seal_batch(0, 0, 0);
        assert!(local.span_batches.is_empty());
        let root = local.recorder.start("batch");
        let d = local.recorder.start("decode");
        local.recorder.end(d);
        let c = local.recorder.start("cache");
        local.recorder.end(c);
        let s = local.recorder.start("serialize");
        local.recorder.end(s);
        local.recorder.end(root);
        local.seal_batch(0, 5, 3);
        assert_eq!(local.span_batches.len(), 1);
        assert!(local.dirty());
        local.flush(&obs, 0);
        assert!(!local.dirty());
        let reply = obs.spans_reply(8);
        assert!(reply.starts_with("OK SPANS lines=4\n"), "{reply}");
        assert!(reply.contains("batch=1 shard=0 epoch=5 reqs=3 span=1 parent=0 stage=batch"));
        assert!(reply.contains("stage=serialize"));
        let text = obs.render_prometheus();
        assert!(text.contains("ftr_stage_seconds_count{stage=\"decode\"} 1"));
        assert!(text.contains("ftr_span_batches_total 1"));
        // Slow log is empty below SLOW_MIN_SAMPLES; the reply is still
        // well-formed.
        assert_eq!(obs.slow_reply(8), "OK SLOW lines=0");
        // Lineage arrives via ingest_batch.
        obs.ingest_batch(2, 2, 900, 400, true, 1, 2, 0, 0);
        obs.ingest_batch(1, 1, 800, 300, true, 2, 1, 1, 2);
        let lineage = obs.lineage_reply(10);
        assert!(lineage.starts_with("OK LINEAGE lines=2\n"), "{lineage}");
        assert!(lineage.contains("epoch=1 parent=0 events=2 applied=2 faults=2 delta=2"));
        assert!(lineage.contains("epoch=2 parent=1 events=1 applied=1 faults=1 delta=-1"));
        assert_eq!(obs.lineage.total(), 2);
        // STATS feeds.
        assert_eq!(obs.alerts_active(), 0);
        obs.alerts_active_gauge().set(2);
        assert_eq!(obs.alerts_active(), 2);
        assert_eq!(obs.spans_dropped(), 0);
    }
}
