//! The stall watchdog: a sampler thread that snapshots queue depths,
//! ingest backlog and latency windows on an interval, computes
//! multi-window SLO burn rates and drives alert state.
//!
//! Each tick the watchdog:
//!
//! 1. gauges the ingest backlog ([`EventQueue`] depth) and every
//!    shard's unadopted-connection inbox depth;
//! 2. diffs the cumulative route-latency and epoch-publish histograms
//!    against the previous tick ([`ftr_obs::Histogram::diff_from`]),
//!    turning them into per-interval windows;
//! 3. computes burn rates against the configured SLOs — route p99
//!    (fraction of the window's routes over the target, divided by the
//!    1% tail budget), epoch-advance latency (same shape, plus a stall
//!    escalation when backlog sits undrained across a whole tick with
//!    no epoch advance), and error rate;
//! 4. feeds each burn into its [`SloAlert`] (short window = this tick,
//!    long window = trailing average), exporting the rates as gauges
//!    and pushing `alert_fire`/`alert_clear` events into the
//!    [`ftr_obs::TraceRing`] on transitions. The total active count lands in the
//!    `ftr_alerts_active` gauge the `STATS` verb reports.
//!
//! The watchdog runs at sampling rate (default 1 s), never on the
//! request path; it reads the shared atomics the shards already
//! publish and takes only the short inbox locks the accept loop uses.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ftr_obs::{AlertTransition, SloAlert, TraceEvent};

use crate::ingest::EventQueue;
use crate::metrics::ServeObs;
use crate::server::relock;

/// SLO targets and sampling cadence for the watchdog.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Route p99 target in microseconds: at most 1% of a window's
    /// routes may exceed it before the budget burns at rate 1.
    pub route_p99_us: u64,
    /// Epoch-advance (publish) latency target in milliseconds.
    pub epoch_ms: u64,
    /// Tolerated error fraction (errors / queries) per window.
    pub error_rate: f64,
    /// Sampling interval (the short burn window).
    pub interval: Duration,
    /// Ticks averaged into the long burn window.
    pub long_windows: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            route_p99_us: 5_000,
            epoch_ms: 50,
            error_rate: 0.01,
            interval: Duration::from_secs(1),
            long_windows: 8,
        }
    }
}

/// The three tracked SLOs, in gauge-label order.
const SLO_NAMES: [&str; 3] = ["route_p99", "epoch_advance", "error_rate"];

/// Burn rate assigned when the ingest pipeline looks stalled (backlog
/// undrained across a full tick with no epoch advance) — high enough
/// that a sustained stall fires the epoch-advance alert on its own.
const STALL_BURN: f64 = 2.0;

/// The tail fraction an SLO quantile target leaves as budget (both
/// latency SLOs are p99 targets).
const TAIL_BUDGET: f64 = 0.01;

/// The sampler thread's borrowed context (everything lives in the
/// server's scope).
pub(crate) struct Watchdog<'a> {
    pub obs: &'a ServeObs,
    pub queue: &'a EventQueue,
    pub inboxes: &'a [Mutex<Vec<TcpStream>>],
    pub shutdown: &'a AtomicBool,
    pub slo: SloConfig,
}

impl Watchdog<'_> {
    /// Samples until shutdown. Registers its gauges on entry.
    pub fn run(self) {
        let registry = self.obs.registry();
        let backlog_gauge = registry.gauge(
            "ftr_ingest_backlog",
            "Fault events queued but not yet drained by the ingest thread.",
            &[],
        );
        let inbox_gauges: Vec<_> = (0..self.inboxes.len())
            .map(|s| {
                let shard = s.to_string();
                registry.gauge(
                    "ftr_shard_inbox_depth",
                    "Accepted connections awaiting shard adoption.",
                    &[("shard", &shard)],
                )
            })
            .collect();
        let ticks = registry.counter(
            "ftr_watchdog_ticks_total",
            "Watchdog sampling ticks since start.",
            &[],
        );
        let burn_gauges: Vec<_> = SLO_NAMES
            .iter()
            .map(|name| {
                registry.gauge(
                    "ftr_slo_burn_milli",
                    "Short-window SLO burn rate in thousandths (1000 = \
                     budget consumed exactly at the allowed rate).",
                    &[("slo", name)],
                )
            })
            .collect();
        let active_gauges: Vec<_> = SLO_NAMES
            .iter()
            .map(|name| {
                registry.gauge(
                    "ftr_alert_active",
                    "Whether this SLO's multi-window burn alert is firing.",
                    &[("slo", name)],
                )
            })
            .collect();
        let alerts_total = self.obs.alerts_active_gauge();

        let mut alerts: Vec<SloAlert> = SLO_NAMES
            .iter()
            .map(|_| SloAlert::new(self.slo.long_windows))
            .collect();
        let mut prev_route = self.obs.route_latency_snapshot();
        let mut prev_publish = self.obs.epoch_publish_snapshot();
        let mut prev_advances = self.obs.epoch_advances_total();
        let mut prev_queries = self.obs.queries.get();
        let mut prev_errors = self.obs.protocol_errors.get();

        loop {
            // Sleep the interval in short steps so shutdown never waits
            // on a full tick.
            let mut slept = Duration::ZERO;
            while slept < self.slo.interval {
                if self.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let step = Duration::from_millis(10).min(self.slo.interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
            ticks.inc();

            let backlog = self.queue.len() as u64;
            backlog_gauge.set(backlog);
            for (gauge, inbox) in inbox_gauges.iter().zip(self.inboxes) {
                gauge.set(relock(inbox.lock()).len() as u64);
            }

            // Route p99 burn over this tick's window.
            let route = self.obs.route_latency_snapshot();
            let route_window = route.diff_from(&prev_route);
            prev_route = route;
            let route_burn = if route_window.is_empty() {
                0.0
            } else {
                route_window.fraction_above(self.slo.route_p99_us.saturating_mul(1_000))
                    / TAIL_BUDGET
            };

            // Epoch-advance burn: publish-latency tail plus stall
            // escalation (backlog present, no advance all tick).
            let publish = self.obs.epoch_publish_snapshot();
            let publish_window = publish.diff_from(&prev_publish);
            prev_publish = publish;
            let advances = self.obs.epoch_advances_total();
            let stalled = backlog > 0 && advances == prev_advances;
            prev_advances = advances;
            let mut epoch_burn = if publish_window.is_empty() {
                0.0
            } else {
                publish_window.fraction_above(self.slo.epoch_ms.saturating_mul(1_000_000))
                    / TAIL_BUDGET
            };
            if stalled {
                epoch_burn = epoch_burn.max(STALL_BURN);
            }

            // Error-rate burn.
            let queries = self.obs.queries.get();
            let errors = self.obs.protocol_errors.get();
            let delta_q = queries.saturating_sub(prev_queries);
            let delta_e = errors.saturating_sub(prev_errors);
            prev_queries = queries;
            prev_errors = errors;
            let error_burn = if delta_q == 0 {
                0.0
            } else {
                (delta_e as f64 / delta_q as f64) / self.slo.error_rate
            };

            let epoch_id = self.obs.epoch_id_value();
            let mut active_count = 0u64;
            let burns = [route_burn, epoch_burn, error_burn];
            for (i, (alert, burn)) in alerts.iter_mut().zip(burns).enumerate() {
                let (rate, transition) = alert.observe(burn);
                burn_gauges[i].set((rate.short * 1_000.0) as u64);
                active_gauges[i].set(u64::from(alert.active()));
                active_count += u64::from(alert.active());
                if let Some(t) = transition {
                    let kind = match t {
                        AlertTransition::Fired => "alert_fire",
                        AlertTransition::Cleared => "alert_clear",
                    };
                    self.obs.trace().push(TraceEvent::now(
                        epoch_id,
                        kind,
                        format!(
                            "slo={} short={:.2} long={:.2}",
                            SLO_NAMES[i], rate.short, rate.long
                        ),
                    ));
                }
            }
            alerts_total.set(active_count);
        }
    }
}
