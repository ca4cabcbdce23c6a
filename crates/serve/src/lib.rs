//! # ftr-serve — the online fault-tolerant routing query service
//!
//! The constructions and verifier in `ftr-core` answer *offline*
//! questions: is this routing `(d, f)`-tolerant? This crate is the
//! *online* counterpart the paper's model implies — a fixed routing
//! artifact consulted at query time while faults arrive around it:
//!
//! * [`RoutingSnapshot`] — the immutable serving artifact: network,
//!   route table and compiled engine, loadable from a text format
//!   (`ftr-snapshot v2`: graph6 topology + the frozen route arena);
//! * [`EpochStore`] / [`Epoch`] — epoch-versioned snapshots of the
//!   surviving route graph, published by one writer with an atomic
//!   swap and read lock-free in the steady state; each epoch carries
//!   its own query cache, so invalidation is structural;
//! * [`EventQueue`] / [`Ingestor`] — batched `FAIL`/`REPAIR` ingestion
//!   applied incrementally through [`ftr_core::EpochState`] (cost
//!   proportional to the routes through the toggled nodes — never a
//!   recompile) with one epoch advance per effective batch;
//! * [`query`] — `ROUTE` (surviving route or shortest detour over
//!   surviving routes), `DIAM`, `TOLERATE` (bound-aware what-if on top
//!   of the current faults, decided by the `ftr-audit` pruned
//!   searcher) and `AUDIT` (fully-accounted pristine-snapshot audit)
//!   as pure functions of one epoch. A `ROUTE` reply is a
//!   concatenation of stored routes, and the miss path treats it as
//!   one: [`RouteScratch`] holds the buffers of one relay search (BFS
//!   tree, visited words, queue, relay chain) and of one rendered
//!   reply, a shard reuses its scratch for every miss, and each hop's
//!   stored path streams from the route table's arena into the reply
//!   bytes through `proto`'s one decimal node-list writer — the only
//!   allocation of a miss is the `Arc<str>` the epoch cache keeps.
//!   [`query::route`] +
//!   [`proto::render_route`] are the reference semantics, built on the
//!   same search and the same writer;
//! * [`Server`] / [`Client`] — a line-delimited TCP protocol served by
//!   sharded readiness-polling threads (each shard multiplexes many
//!   nonblocking connections, frame-decodes whole read buffers into
//!   request batches and answers each batch against a single epoch
//!   acquisition), plus the blocking client the `loadgen` bench binary
//!   drives it with;
//! * [`ServeObs`] — the one stat system, built on `ftr-obs`: the
//!   `STATS` tallies, per-verb counters and latency summaries,
//!   per-shard cache and batch-size series and ingest/epoch timing, all
//!   registry series exposed over `METRICS` (Prometheus text
//!   exposition), recorded shard-locally so the hot path stays
//!   lock-free;
//! * the **journals** — one bounded [`ftr_obs::Journal`] behind the
//!   trace events of `TRACE n`, the epoch lineage records (parent
//!   epoch, applied events, occupancy delta, apply/publish timing per
//!   advance) of `LINEAGE [n]`, and both rings of the flight recorder:
//!   the span tree of every batch (decode → cache → engine → serialize
//!   → write, recorded in the same shard-local accumulators and flushed
//!   on the existing cadence) behind `SPANS [n]`, and the batches
//!   slower than the rolling p99 behind `SLOW [n]`;
//! * a stall **watchdog** ([`SloConfig`]) sampling queue depths and
//!   latency windows into multi-window SLO burn-rate alerts.
//!
//! # Example
//!
//! Serve the kernel routing of the Petersen graph and query it:
//!
//! ```
//! use ftr_core::KernelRouting;
//! use ftr_graph::gen;
//! use ftr_serve::{Client, RoutingSnapshot, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = gen::petersen();
//! let kernel = KernelRouting::build(&g)?;
//! let snapshot = RoutingSnapshot::new(g, kernel.routing().clone())?.into_shared();
//! let server = Server::bind(snapshot, ServerConfig::default())?.spawn();
//!
//! let mut client = Client::connect(server.addr())?;
//! assert!(client.ping()?);
//! assert!(client.route(0, 5)?.starts_with("OK "));
//! client.fail(3)?;                       // enqueue churn
//! client.quit()?;
//! server.shutdown_and_join()?;
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the poll(2) shim in `poll` needs one
// audited `unsafe` block (the syscall FFI); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod epoch;
pub mod ingest;
pub mod metrics;
mod poll;
pub mod proto;
pub mod query;
mod server;
mod snapshot;
pub mod spec;
mod watchdog;

pub use client::{Client, ReplyLines};
pub use epoch::{Epoch, EpochReader, EpochStore, QueryCache, QueryKey};
pub use ingest::{EventQueue, FaultEvent, IngestReport, Ingestor};
pub use metrics::ServeObs;
pub use query::{EngineWindow, QueryError, RouteReply, RouteScratch, ToleranceAnswer};
pub use server::{Server, ServerConfig, ServerHandle, SpawnedServer};
pub use snapshot::{RoutingSnapshot, SnapshotError};
pub use watchdog::SloConfig;
