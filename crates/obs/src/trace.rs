//! Structured trace events and the journal that keeps the newest ones.

use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use crate::journal::Journal;

/// Nanoseconds on a process-wide monotonic clock. The origin is the
/// first call in the process (so the first reading is 0); call once at
/// startup to anchor the origin at process start.
pub fn monotonic_nanos() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    origin.elapsed().as_nanos() as u64
}

/// One journal entry: a monotonic timestamp, the epoch it happened
/// under, a static event kind and a short free-form detail string.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// [`monotonic_nanos`] at push time.
    pub nanos: u64,
    /// Epoch id the event is tagged with.
    pub epoch: u64,
    /// Event kind (`epoch_publish`, `ingest_batch`, `audit_search`, …).
    pub kind: &'static str,
    /// Free-form `key=value` detail tokens.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ts_ns={} epoch={} kind={}{}{}",
            self.nanos,
            self.epoch,
            self.kind,
            if self.detail.is_empty() { "" } else { " " },
            self.detail
        )
    }
}

impl TraceEvent {
    /// An event stamped with [`monotonic_nanos`] now.
    pub fn now(epoch: u64, kind: &'static str, detail: String) -> Self {
        TraceEvent {
            nanos: monotonic_nanos(),
            epoch,
            kind,
            detail,
        }
    }
}

/// The event journal drained by the `TRACE n` verb: always the *last*
/// `cap` events pushed.
pub type TraceRing = Journal<TraceEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_events_and_counts_drops() {
        let ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(TraceEvent::now(i, "tick", format!("i={i}")));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 2);
        let last = ring.last(10);
        assert_eq!(last.len(), 3);
        assert_eq!(last[0].epoch, 2);
        assert_eq!(last[2].epoch, 4);
        assert!(last[0].nanos <= last[2].nanos);
        let two = ring.last(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].epoch, 3);
        let line = two[0].to_string();
        assert!(line.starts_with("ts_ns="));
        assert!(line.contains("kind=tick i=3"));
    }
}
