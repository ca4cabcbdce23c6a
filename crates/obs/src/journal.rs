//! The one bounded journal every ring in this crate is built on.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::metrics::Counter;

/// Recovers a poisoned lock instead of panicking the acquiring thread:
/// a holder that panicked mid-push leaves a well-formed ring behind (a
/// `VecDeque` push or pop is all-or-nothing), so the data stays usable.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded ring of the newest `cap` entries, oldest evicted first,
/// with lifetime push and eviction tallies.
///
/// A journal with `cap == 0` keeps nothing: every push is counted and
/// handed straight back as evicted. Pushing takes a short mutex —
/// journals fill at epoch, batch-flush or search rate, never per query.
pub struct Journal<T> {
    cap: usize,
    ring: Mutex<VecDeque<T>>,
    total: Counter,
    dropped: Counter,
}

impl<T: Clone> Journal<T> {
    /// A journal retaining at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Journal {
            cap,
            ring: Mutex::new(VecDeque::new()),
            total: Counter::new(),
            dropped: Counter::new(),
        }
    }

    /// Appends `entry`, returning the entry the bound evicted (the
    /// oldest, or `entry` itself at `cap == 0`).
    pub fn push(&self, entry: T) -> Option<T> {
        self.total.inc();
        if self.cap == 0 {
            self.dropped.inc();
            return Some(entry);
        }
        let mut ring = relock(&self.ring);
        let evicted = if ring.len() >= self.cap {
            self.dropped.inc();
            ring.pop_front()
        } else {
            None
        };
        ring.push_back(entry);
        evicted
    }

    /// The newest `n` entries, oldest first.
    pub fn last(&self, n: usize) -> Vec<T> {
        let ring = relock(&self.ring);
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        relock(&self.ring).len()
    }

    /// Whether the journal holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries pushed over the journal's lifetime.
    pub fn total(&self) -> u64 {
        self.total.get()
    }

    /// Entries evicted by the bound (at `cap == 0`, every push).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_entries_and_counts_evictions() {
        let journal = Journal::new(3);
        assert!(journal.is_empty());
        let evicted: Vec<Option<u32>> = (0..5).map(|i| journal.push(i)).collect();
        assert_eq!(evicted, [None, None, None, Some(0), Some(1)]);
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.total(), 5);
        assert_eq!(journal.dropped(), 2);
        assert_eq!(journal.last(10), [2, 3, 4]);
        assert_eq!(journal.last(2), [3, 4]);
        assert!(journal.last(0).is_empty());
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let journal = Journal::new(0);
        assert_eq!(journal.push("a"), Some("a"));
        assert!(journal.is_empty());
        assert!(journal.last(4).is_empty());
        assert_eq!((journal.total(), journal.dropped()), (1, 1));
    }
}
