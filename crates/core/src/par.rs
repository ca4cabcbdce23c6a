//! Minimal data-parallel reduction on `std::thread::scope`.
//!
//! The tolerance verifier used to hand-roll work distribution with
//! crossbeam scoped threads and a `parking_lot::Mutex` around the shared
//! accumulator. This module replaces that with the rayon-style shape —
//! each worker folds into a private accumulator, the fold results are
//! merged on the calling thread — without the external dependency (the
//! build environment has no crates-registry access). Work is claimed
//! dynamically from an atomic counter, so uneven items (fault-set
//! subtrees of very different sizes) still balance.
//!
//! The module is public: downstream crates (`ftr-audit`'s subtree
//! exploration, construction harnesses) reuse the same shape instead of
//! growing their own thread pools.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `worker` on up to `threads` OS threads until `items` work items
/// are consumed, returning each worker's accumulator (callers merge).
///
/// Each worker receives a claim function yielding the next unclaimed
/// item index, or `None` when the range is exhausted. Per-worker setup
/// (scratch buffers, cursors) lives inside `worker`, so no state is
/// shared mutably and no locks are held anywhere.
///
/// With `threads <= 1` (or at most one item) the work runs inline on the
/// calling thread — the verifier's single-threaded mode stays genuinely
/// single-threaded.
pub fn map_workers<R, W>(items: usize, threads: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn(&dyn Fn() -> Option<usize>) -> R + Sync,
{
    let counter = AtomicUsize::new(0);
    let claim = move || {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        (i < items).then_some(i)
    };
    let workers = threads.min(items).max(1);
    if workers == 1 {
        return vec![worker(&claim)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| worker(&claim)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier workers do not panic"))
            .collect()
    })
}

/// Maps `f` over `0..items` on up to `threads` OS threads, returning the
/// results **in item order** — the shape every construction uses to
/// derive per-source route batches in parallel while keeping insertion
/// (and therefore conflict reporting) deterministic.
pub fn ordered_map<T, F>(items: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    ordered_map_with(items, threads, || (), |(), i| f(i))
}

/// [`ordered_map`] with per-worker scratch state: every worker calls
/// `init` once and hands the value to each `f` it runs (the
/// constructions keep one reusable flow network per worker this way).
/// Results must not depend on which items shared a worker.
pub fn ordered_map_with<S, T, I, F>(items: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let parts = map_workers(items, threads, |next| {
        let mut state = init();
        let mut out = Vec::new();
        while let Some(i) = next() {
            out.push((i, f(&mut state, i)));
        }
        out
    });
    let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
    for (i, v) in parts.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item is claimed exactly once"))
        .collect()
}

/// The construction-time default worker count: one per available core.
///
/// Read once per process: asking the OS costs ≈ 20 µs (it reads the
/// cgroup's CPU quota), which every `SearchConfig::default()` — one per
/// online `TOLERATE` — would otherwise pay.
pub fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_item_order() {
        for threads in [1, 4] {
            let out = ordered_map(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(ordered_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn all_items_claimed_exactly_once() {
        let results = map_workers(1000, 4, |next| {
            let mut seen = Vec::new();
            while let Some(i) = next() {
                seen.push(i);
            }
            seen
        });
        let mut all: Vec<usize> = results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let id = std::thread::current().id();
        let results = map_workers(5, 1, |next| {
            assert_eq!(std::thread::current().id(), id);
            let mut count = 0;
            while next().is_some() {
                count += 1;
            }
            count
        });
        assert_eq!(results, vec![5]);
    }

    #[test]
    fn zero_items_still_invokes_one_worker() {
        let results = map_workers(0, 8, |next| {
            assert!(next().is_none());
            42
        });
        assert_eq!(results, vec![42]);
    }
}
