//! Feature-gated BFS and max-flow counters for the observability layer.
//!
//! Compiled only under the `obs-counters` feature: with it disabled the
//! statics (and the counting code in the kernels) do not exist, so the
//! default build pays nothing. With it enabled the cost is one relaxed
//! atomic add per field per BFS pass — a [`crate::BitMatrix`] pass from
//! a source or, for the hub's in-distances, to one, and each direction
//! of the compiled engine's 64-lane pass, all through
//! [`crate::count_bfs`] — never one per frontier word or per level — and
//! one per max flow a
//! [`crate::flow::SplitNetwork`] runs, never one per augmentation.
//!
//! [`FLOW_RUNS`] is what makes construction cost testable without a
//! clock: a kernel build on a graph with `p` witness pairs, `n` nodes
//! and connectivity κ runs exactly `p + 1 + (n − κ)` max flows, so a
//! duplicated connectivity sweep shows up as a wrong count on any host.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bit-parallel BFS passes (one per eccentricity evaluation, push or
/// pull; a lane pass over up to 64 fault sets counts one each way).
pub static BFS_CALLS: AtomicU64 = AtomicU64::new(0);
/// Total BFS levels expanded (frontier iterations) across all calls.
pub static BFS_LEVELS: AtomicU64 = AtomicU64::new(0);

/// Max flows computed (one per [`crate::flow::SplitNetwork`] query,
/// however many augmentations it took).
pub static FLOW_RUNS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of [`BFS_CALLS`].
pub fn bfs_calls() -> u64 {
    BFS_CALLS.load(Relaxed)
}

/// Snapshot of [`BFS_LEVELS`].
pub fn bfs_levels() -> u64 {
    BFS_LEVELS.load(Relaxed)
}

/// Snapshot of [`FLOW_RUNS`].
pub fn flow_runs() -> u64 {
    FLOW_RUNS.load(Relaxed)
}
