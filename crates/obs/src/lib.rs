//! Workspace-wide observability: metrics, histograms and event tracing.
//!
//! `ftr-obs` is the std-only telemetry layer shared by the serving
//! stack, the audit searcher and the load generator. It provides:
//!
//! - [`Histogram`] — the log-linear latency histogram (~6% relative
//!   error, constant-time record, mergeable across threads) promoted
//!   here from the bench crate so loadgen and the server share one
//!   implementation. Buckets grow lazily, so mostly-empty histograms
//!   stay small and [`Histogram::merge`] accepts ragged bucket arrays.
//! - [`Counter`] / [`Gauge`] / [`AtomicHistogram`] — lock-free shared
//!   metric cells built on relaxed [`std::sync::atomic`] operations.
//!   The intended hot-path discipline is *per-shard local accumulation
//!   with bulk flush*: worker threads record into a plain [`Histogram`]
//!   and plain `u64` counters, then fold them into the shared atomics
//!   every few batches (see `ftr_serve`'s shard loop).
//! - [`Registry`] — a named collection of metric families with
//!   Prometheus-style text exposition ([`Registry::render_prometheus`])
//!   and flat JSON snapshots ([`Registry::render_json`]). Registration
//!   takes a lock; reads and writes of the registered cells do not.
//! - [`Journal`] — the one bounded ring (newest `cap` entries, push
//!   returns the evicted one, lifetime push/eviction tallies). It backs
//!   the [`TraceRing`] of structured [`TraceEvent`]s tagged with epoch
//!   ids and monotonic timestamps (see [`monotonic_nanos`]) behind the
//!   `TRACE n` verb, the [`LineageJournal`] of epoch advances (parent
//!   id, applied events, occupancy delta, apply/publish timing) behind
//!   `LINEAGE`, and both rings of the [`SpanStore`].
//! - [`SpanRecorder`] / [`SpanStore`] — the flight recorder: per-shard
//!   lock-free span buffers capturing each request batch's stage
//!   breakdown (decode → cache → engine → serialize → write), bulk
//!   flushed into a shared store with tail-based retention of any batch
//!   slower than the rolling p99 (the `SPANS`/`SLOW` verbs).
//! - [`SloAlert`] — multi-window SLO burn-rate tracking for the stall
//!   watchdog: short-window burn detects fast, long-window burn
//!   suppresses blips.
//!
//! Nothing in this crate blocks on the metric hot path: counters and
//! gauges are single relaxed atomic ops, and histogram recording is a
//! handful of them. The registry and journals take short mutexes only
//! on registration, exposition and push — all of which happen at
//! epoch/batch/scrape rate, not query rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod journal;
mod lineage;
mod metrics;
mod registry;
mod slo;
mod span;
mod trace;

pub use hist::Histogram;
pub use journal::Journal;
pub use lineage::{LineageJournal, LineageRecord};
pub use metrics::{AtomicHistogram, Counter, Gauge};
pub use registry::{Registry, Unit};
pub use slo::{AlertTransition, BurnRate, SloAlert};
pub use span::{BatchSpans, Span, SpanId, SpanRecorder, SpanStore, SLOW_MIN_SAMPLES};
pub use trace::{monotonic_nanos, TraceEvent, TraceRing};
