//! Epoch lineage journal: bounded provenance for epoch advances.
//!
//! Every published epoch records which parent it derived from, how many
//! fault events were batched and actually applied, the occupancy delta
//! (net change in live fault count), and the apply/publish timings.
//! The journal answers the `LINEAGE [n]` verb: which fault sets
//! produced which surviving graph — the paper's fault model, made
//! queryable.

use std::fmt;

use crate::journal::Journal;

/// One epoch advance, as recorded at publish time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineageRecord {
    /// The epoch id that became current.
    pub epoch: u64,
    /// The epoch it was derived from.
    pub parent: u64,
    /// Fault events in the ingested batch.
    pub events: u64,
    /// Events that actually toggled state (idempotent ones skipped).
    pub applied: u64,
    /// Live fault count after the advance.
    pub faults: u64,
    /// Net change in live fault count across the advance.
    pub delta: i64,
    /// Nanoseconds spent applying the batch to engine state.
    pub apply_nanos: u64,
    /// Nanoseconds spent building and publishing the new snapshot.
    pub publish_nanos: u64,
    /// Publish timestamp, nanos from [`crate::monotonic_nanos`].
    pub at_nanos: u64,
}

impl fmt::Display for LineageRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch={} parent={} events={} applied={} faults={} delta={} \
             apply_ns={} publish_ns={} ts_ns={}",
            self.epoch,
            self.parent,
            self.events,
            self.applied,
            self.faults,
            self.delta,
            self.apply_nanos,
            self.publish_nanos,
            self.at_nanos
        )
    }
}

/// The epoch-advance journal behind `LINEAGE [n]`: the newest `cap`
/// records, oldest evicted first.
pub type LineageJournal = Journal<LineageRecord>;

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> LineageRecord {
        LineageRecord {
            epoch,
            parent: epoch.saturating_sub(1),
            events: 4,
            applied: 3,
            faults: epoch,
            delta: 1,
            apply_nanos: 100,
            publish_nanos: 200,
            at_nanos: 1_000 * epoch,
        }
    }

    #[test]
    fn journal_is_bounded_and_keeps_newest() {
        let journal = LineageJournal::new(3);
        assert!(journal.is_empty());
        for epoch in 1..=5 {
            journal.push(record(epoch));
        }
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.total(), 5);
        assert_eq!(journal.dropped(), 2);
        let kept: Vec<u64> = journal.last(10).iter().map(|r| r.epoch).collect();
        assert_eq!(kept, vec![3, 4, 5]);
        let last_one: Vec<u64> = journal.last(1).iter().map(|r| r.epoch).collect();
        assert_eq!(last_one, vec![5]);
        // Parent chain is contiguous across the retained window.
        let records = journal.last(10);
        for pair in records.windows(2) {
            assert_eq!(pair[1].parent, pair[0].epoch);
        }
    }

    #[test]
    fn record_renders_every_field() {
        let line = record(7).to_string();
        assert_eq!(
            line,
            "epoch=7 parent=6 events=4 applied=3 faults=7 delta=1 \
             apply_ns=100 publish_ns=200 ts_ns=7000"
        );
    }
}
