//! Request-scoped span tracing: the flight-recorder layer.
//!
//! A [`SpanRecorder`] is a per-shard, plain (non-atomic, non-locking)
//! buffer the serve hot path records stage spans into — span id,
//! parent id, a static stage name and start/stop nanos from
//! [`crate::monotonic_nanos`]. Nesting is enforced *by construction*:
//! [`SpanRecorder::start`] parents the new span under the innermost
//! open one and [`SpanRecorder::take`] force-closes anything left open,
//! so every recorded tree is well-nested no matter how the caller
//! interleaved its calls.
//!
//! Completed batch trees ([`BatchSpans`]) accumulate shard-locally and
//! are flushed in bulk into the shared [`SpanStore`], which keeps two
//! bounded rings: the most recent batches (the `SPANS` verb) and a
//! tail-retained slow-query log (the `SLOW` verb) holding the full span
//! tree of any batch whose total duration exceeded the rolling p99 of
//! all batch durations seen so far. The store is mutexed — it sits on
//! the flush/scrape path, never the per-request path.

use std::sync::Mutex;

use crate::hist::Histogram;
use crate::journal::{relock, Journal};
use crate::metrics::Counter;
use crate::trace::monotonic_nanos;

/// Batches only enter the slow ring once this many batch durations have
/// been observed — a rolling p99 over a handful of samples is noise.
pub const SLOW_MIN_SAMPLES: u64 = 32;

/// One completed stage span inside a batch tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, unique within the batch (allocation order).
    pub id: u32,
    /// Parent span id; `0` marks the batch root.
    pub parent: u32,
    /// Static stage name (`"batch"`, `"decode"`, `"cache"`, …).
    pub stage: &'static str,
    /// Start timestamp, nanos from [`crate::monotonic_nanos`].
    pub start_nanos: u64,
    /// Stop timestamp, nanos from [`crate::monotonic_nanos`].
    pub end_nanos: u64,
}

impl Span {
    /// The span's duration (saturating; a force-closed span can never
    /// go negative).
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// Handle to an open span, returned by [`SpanRecorder::start`] and
/// consumed by [`SpanRecorder::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// A per-shard span buffer: plain `Vec` storage, no atomics, no locks —
/// safe to drive from inside a lock-free hot-path region.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    /// Ids of currently open spans, innermost last.
    stack: Vec<u32>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Opens a span for `stage`, parented under the innermost open span
    /// (or as the root when none is open).
    pub fn start(&mut self, stage: &'static str) -> SpanId {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            stage,
            start_nanos: monotonic_nanos(),
            end_nanos: 0,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `span` (and, defensively, any deeper span still open
    /// inside it, so the tree stays well-nested even if a caller skips
    /// an `end`). Closing an already-closed span is a no-op.
    pub fn end(&mut self, span: SpanId) {
        // A span that is no longer open (already ended, directly or as
        // a deeper victim of an earlier end) must not unwind the stack.
        if !self.stack.contains(&span.0) {
            return;
        }
        let now = monotonic_nanos();
        while let Some(&open) = self.stack.last() {
            self.stack.pop();
            if let Some(s) = self.spans.get_mut(open as usize - 1) {
                if s.end_nanos == 0 {
                    s.end_nanos = now;
                }
            }
            if open == span.0 {
                break;
            }
        }
    }

    /// Records an already-measured child span with explicit timestamps
    /// under the innermost open span — used for stages timed inside a
    /// callee (the engine window inside the cache pass) where a
    /// start/end pair cannot straddle the call.
    pub fn record_window(&mut self, stage: &'static str, start_nanos: u64, end_nanos: u64) {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            stage,
            start_nanos,
            end_nanos: end_nanos.max(start_nanos),
        });
    }

    /// Whether no span has been recorded since the last take/reset.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of currently open spans.
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Discards everything recorded since the last take (an abandoned
    /// batch: no requests decoded).
    pub fn reset(&mut self) {
        self.spans.clear();
        self.stack.clear();
    }

    /// Seals the recorded spans as one batch tree, force-closing any
    /// span still open, and resets the recorder. The batch's total
    /// duration is its root span's.
    pub fn take(&mut self, shard: u32, batch: u64, epoch: u64, requests: u32) -> BatchSpans {
        let now = monotonic_nanos();
        for &open in &self.stack {
            if let Some(s) = self.spans.get_mut(open as usize - 1) {
                if s.end_nanos == 0 {
                    s.end_nanos = now;
                }
            }
        }
        self.stack.clear();
        let spans = std::mem::take(&mut self.spans);
        let total_nanos = spans
            .iter()
            .find(|s| s.parent == 0)
            .map(Span::duration_nanos)
            .unwrap_or(0);
        BatchSpans {
            shard,
            batch,
            epoch,
            requests,
            total_nanos,
            spans,
        }
    }
}

/// The complete, well-nested span tree of one dispatch batch.
#[derive(Clone, Debug)]
pub struct BatchSpans {
    /// Connection shard that dispatched the batch.
    pub shard: u32,
    /// Per-shard monotone batch sequence number.
    pub batch: u64,
    /// Epoch the batch answered at.
    pub epoch: u64,
    /// Requests in the batch.
    pub requests: u32,
    /// Root-span duration.
    pub total_nanos: u64,
    /// The spans, in allocation (start) order; parents precede
    /// children.
    pub spans: Vec<Span>,
}

impl BatchSpans {
    /// Whether the tree is well-nested: exactly one root, every parent
    /// id points at an earlier span, and every child's window lies
    /// within its parent's.
    pub fn is_well_nested(&self) -> bool {
        let roots = self.spans.iter().filter(|s| s.parent == 0).count();
        if roots != 1 {
            return false;
        }
        self.spans.iter().all(|s| {
            if s.end_nanos < s.start_nanos {
                return false;
            }
            if s.parent == 0 {
                return true;
            }
            match self.spans.get(s.parent as usize - 1) {
                Some(p) => {
                    p.id < s.id && p.start_nanos <= s.start_nanos && s.end_nanos <= p.end_nanos
                }
                None => false,
            }
        })
    }

    /// Renders each span as one wire line
    /// (`batch=… shard=… epoch=… reqs=… span=… parent=… stage=… …`).
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().map(move |s| {
            format!(
                "batch={} shard={} epoch={} reqs={} span={} parent={} stage={} \
                 start_ns={} end_ns={} dur_ns={}",
                self.batch,
                self.shard,
                self.epoch,
                self.requests,
                s.id,
                s.parent,
                s.stage,
                s.start_nanos,
                s.end_nanos,
                s.duration_nanos()
            )
        })
    }
}

/// The shared span sink: a bounded ring of recent batch trees plus the
/// tail-retained slow-query log.
pub struct SpanStore {
    recent: Journal<BatchSpans>,
    slow: Journal<BatchSpans>,
    /// Every batch total ever ingested — the rolling-p99 source. Its
    /// lock is held across a whole ingest, so concurrent flushes land
    /// in the rings one flush at a time.
    durations: Mutex<Histogram>,
    spans_dropped: Counter,
}

impl SpanStore {
    /// A store keeping the last `recent_cap` batches and up to
    /// `slow_cap` tail-retained slow batches.
    pub fn new(recent_cap: usize, slow_cap: usize) -> Self {
        SpanStore {
            recent: Journal::new(recent_cap),
            slow: Journal::new(slow_cap),
            durations: Mutex::new(Histogram::new()),
            spans_dropped: Counter::new(),
        }
    }

    /// Bulk-ingests a shard's accumulated batch trees (draining
    /// `batches`) at flush cadence, never per request. Each batch lands
    /// in the recent ring; a batch whose total exceeds the rolling p99
    /// (once [`SLOW_MIN_SAMPLES`] batches have been seen) is also
    /// retained in the slow ring. Evicted batches count their spans
    /// into the dropped total.
    pub fn ingest(&self, batches: &mut Vec<BatchSpans>) {
        if batches.is_empty() {
            return;
        }
        let mut durations = relock(&self.durations);
        for batch in batches.drain(..) {
            let seen = durations.count();
            let p99 = durations.quantile(0.99);
            durations.record(batch.total_nanos);
            if seen >= SLOW_MIN_SAMPLES && batch.total_nanos > p99 {
                self.count_dropped(self.slow.push(batch.clone()));
            }
            self.count_dropped(self.recent.push(batch));
        }
    }

    fn count_dropped(&self, evicted: Option<BatchSpans>) {
        if let Some(evicted) = evicted {
            self.spans_dropped.add(evicted.spans.len() as u64);
        }
    }

    /// The newest `n` batches, oldest first.
    pub fn recent(&self, n: usize) -> Vec<BatchSpans> {
        self.recent.last(n)
    }

    /// The newest `n` tail-retained slow batches, oldest first.
    pub fn slow(&self, n: usize) -> Vec<BatchSpans> {
        self.slow.last(n)
    }

    /// The rolling p99 of batch total durations (0 before any batch).
    pub fn p99_nanos(&self) -> u64 {
        relock(&self.durations).quantile(0.99)
    }

    /// Batches ingested since start.
    pub fn batches_total(&self) -> u64 {
        self.recent.total()
    }

    /// Spans evicted from the recent/slow rings since start.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped.get()
    }

    /// Batches retained in the slow ring since start (including later
    /// evicted ones).
    pub fn slow_total(&self) -> u64 {
        self.slow.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_with_total(total: u64, spans: usize) -> BatchSpans {
        let mut rec = SpanRecorder::new();
        let root = rec.start("batch");
        for _ in 0..spans.saturating_sub(1) {
            let s = rec.start("decode");
            rec.end(s);
        }
        rec.end(root);
        let mut b = rec.take(0, 0, 0, 1);
        b.total_nanos = total; // override for deterministic retention
        b
    }

    #[test]
    fn recorder_builds_well_nested_trees() {
        let mut rec = SpanRecorder::new();
        let root = rec.start("batch");
        let d = rec.start("decode");
        rec.end(d);
        let c = rec.start("cache");
        rec.record_window("engine", monotonic_nanos(), monotonic_nanos());
        rec.end(c);
        rec.end(root);
        let batch = rec.take(3, 7, 2, 5);
        assert!(rec.is_empty());
        assert_eq!(batch.shard, 3);
        assert_eq!(batch.spans.len(), 4);
        assert!(batch.is_well_nested(), "{batch:?}");
        assert_eq!(batch.spans[0].stage, "batch");
        assert_eq!(batch.spans[0].parent, 0);
        assert_eq!(batch.spans[1].parent, 1);
        let engine = &batch.spans[3];
        assert_eq!(engine.stage, "engine");
        assert_eq!(engine.parent, 3, "window child parents under cache");
        let line = batch.lines().next().unwrap();
        assert!(line.starts_with("batch=7 shard=3 epoch=2 reqs=5 span=1 parent=0 stage=batch"));
    }

    #[test]
    fn unbalanced_ends_are_force_closed() {
        let mut rec = SpanRecorder::new();
        let root = rec.start("batch");
        let _leak = rec.start("decode");
        let deeper = rec.start("cache");
        // Ending the root closes everything still open inside it.
        let _ = deeper;
        rec.end(root);
        assert_eq!(rec.open_depth(), 0);
        let batch = rec.take(0, 0, 0, 0);
        assert!(batch.is_well_nested(), "{batch:?}");
        // A take with spans still open closes them too.
        let _open = rec.start("batch");
        let taken = rec.take(0, 1, 0, 0);
        assert!(taken.is_well_nested());
        assert!(taken.spans[0].end_nanos >= taken.spans[0].start_nanos);
    }

    #[test]
    fn store_retains_slow_tail_and_evicts_bounded() {
        let store = SpanStore::new(4, 2);
        // Warm up past SLOW_MIN_SAMPLES with fast batches.
        let mut warm: Vec<BatchSpans> = (0..SLOW_MIN_SAMPLES)
            .map(|_| batch_with_total(1_000, 2))
            .collect();
        store.ingest(&mut warm);
        assert!(warm.is_empty());
        assert_eq!(store.batches_total(), SLOW_MIN_SAMPLES);
        assert!(store.slow(10).is_empty(), "fast batches are not retained");
        // Three slow outliers: the 2-cap slow ring keeps the newest two.
        let mut slow: Vec<BatchSpans> = (0..3)
            .map(|i| {
                let mut b = batch_with_total(1_000_000 * (i + 1), 3);
                b.batch = 100 + i;
                b
            })
            .collect();
        store.ingest(&mut slow);
        let kept = store.slow(10);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].batch, 101);
        assert_eq!(kept[1].batch, 102);
        assert_eq!(store.slow_total(), 3);
        // One batch of 3 spans evicted from the slow ring, plus the
        // recent-ring evictions (cap 4, 35 ingested).
        assert!(store.spans_dropped() >= 3);
        // The recent ring holds only the newest four.
        assert_eq!(store.recent(100).len(), 4);
        assert!(store.p99_nanos() >= 1_000);
    }

    #[test]
    fn recent_returns_newest_oldest_first() {
        let store = SpanStore::new(8, 2);
        let mut batches: Vec<BatchSpans> = (0..5)
            .map(|i| {
                let mut b = batch_with_total(10, 1);
                b.batch = i;
                b
            })
            .collect();
        store.ingest(&mut batches);
        let last3: Vec<u64> = store.recent(3).iter().map(|b| b.batch).collect();
        assert_eq!(last3, vec![2, 3, 4]);
    }
}
