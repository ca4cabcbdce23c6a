//! Epoch-versioned snapshots of the surviving route graph.
//!
//! The server's read path must never block on the write path: route
//! queries are answered against an *epoch* — an immutable, atomically
//! published snapshot of the fault set, the surviving-route reachability
//! state ([`BitMatrix`]) and a per-epoch query cache. Fault ingestion
//! builds the next epoch off to the side (incrementally, via
//! [`ftr_core::EpochState`]) and publishes it with one pointer swap.
//!
//! Readers hold an [`EpochReader`], which caches an [`Arc<Epoch>`] and
//! revalidates it against a single atomic epoch-id load per query: in
//! the steady state (no epoch change since the last query) the read
//! path takes **no lock at all**. Only when the id moves does the reader
//! briefly take the store's read lock to re-clone the current `Arc` —
//! never while an epoch is being *built*, so a slow epoch construction
//! can never stall a query.
//!
//! The query cache lives *inside* the epoch, so cache invalidation is
//! structural: swapping epochs abandons the old cache wholesale, and an
//! answer computed against epoch `k` can only ever be served from epoch
//! `k`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use ftr_core::EpochState;
use ftr_graph::{BitMatrix, Node, NodeSet};

/// Recovers a poisoned lock instead of panicking the acquiring thread.
/// Sound here because everything guarded in this module is either a
/// pure function of its epoch (cache entries — recomputing or reusing
/// one is always correct) or an `Arc` slot only ever replaced whole, so
/// a holder that panicked cannot have left a half-written value behind.
fn relock<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Shards in the per-epoch query cache (a power of two; bounds writer
/// contention between worker threads warming the same epoch).
const CACHE_SHARDS: usize = 16;

/// Largest node count for which the cache keeps a flat lock-free
/// `n × n` array of ROUTE reply slots (16 bytes per slot; 256 KiB at
/// the cap). Beyond this, ROUTE replies share the hashed shard maps.
const FLAT_ROUTE_MAX_N: usize = 128;

/// One immutable serving snapshot: fault set, surviving-route
/// reachability, lazily measured diameter, and the query cache for
/// answers valid at exactly this epoch.
#[derive(Debug)]
pub struct Epoch {
    id: u64,
    faults: NodeSet,
    live: BitMatrix,
    diameter: OnceLock<Option<u32>>,
    cache: QueryCache,
}

impl Epoch {
    fn new(id: u64, faults: NodeSet, live: BitMatrix) -> Self {
        let n = live.node_count();
        Epoch {
            id,
            faults,
            live,
            diameter: OnceLock::new(),
            cache: QueryCache::new(n),
        }
    }

    /// The epoch id (0 for the genesis epoch, monotonically increasing).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The fault set this epoch was built under.
    pub fn faults(&self) -> &NodeSet {
        &self.faults
    }

    /// The surviving route graph: an arc per routed pair with at least
    /// one live route. Faulty *endpoints* remain in the matrix; mask
    /// them with [`Epoch::faults`] as traversals do.
    pub fn live(&self) -> &BitMatrix {
        &self.live
    }

    /// Returns `true` if the route arc `x → y` survives this epoch
    /// (both endpoints healthy and at least one route of the pair
    /// avoids every fault).
    pub fn arc_survives(&self, x: Node, y: Node) -> bool {
        !self.faults.contains(x) && !self.faults.contains(y) && self.live.has(x, y)
    }

    /// The surviving diameter at this epoch (`None` = disconnected),
    /// measured once on first use and memoized for the epoch's lifetime.
    pub fn diameter(&self) -> Option<u32> {
        *self
            .diameter
            .get_or_init(|| self.live.diameter(Some(&self.faults)))
    }

    /// The per-epoch query cache.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }
}

/// Keys of the per-epoch query cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKey {
    /// A `ROUTE x y` reply.
    Route(Node, Node),
    /// A `TOLERATE d f` verdict — the pruned search is bound-aware, so
    /// both the claimed diameter and the extra-fault budget shape the
    /// answer and the key.
    Tolerate(u32, usize),
}

/// A memo table scoped to one epoch.
///
/// Values are rendered reply fragments; the cache never outlives its
/// epoch, so entries need no versioning or expiry.
///
/// ROUTE replies on small graphs (`n ≤` [`FLAT_ROUTE_MAX_N`]) live in a
/// flat `n × n` array of [`OnceLock`] slots — lock-free and hash-free
/// on both hit and miss, the serve hot path. Everything else (TOLERATE
/// verdicts, ROUTE on large graphs) shares the hashed shard maps.
#[derive(Debug)]
pub struct QueryCache {
    routes: Option<FlatRoutes>,
    shards: Vec<Mutex<HashMap<QueryKey, Arc<str>>>>,
}

/// The flat lock-free ROUTE-reply array (slot `x * n + y`).
#[derive(Debug)]
struct FlatRoutes {
    n: usize,
    slots: Vec<OnceLock<Arc<str>>>,
}

impl FlatRoutes {
    fn slot(&self, x: Node, y: Node) -> Option<&OnceLock<Arc<str>>> {
        let (x, y) = (x as usize, y as usize);
        (x < self.n && y < self.n).then(|| &self.slots[x * self.n + y])
    }

    fn get_or_insert<R: Into<Arc<str>>>(
        &self,
        slot: &OnceLock<Arc<str>>,
        compute: impl FnOnce() -> R,
    ) -> (Arc<str>, bool) {
        if let Some(v) = slot.get() {
            return (v.clone(), true);
        }
        let mut computed = false;
        let v = slot.get_or_init(|| {
            computed = true;
            compute().into()
        });
        // A racing thread may have initialized the slot first; either
        // way the caller that ran `compute` reports a miss.
        (v.clone(), !computed)
    }
}

impl QueryCache {
    fn new(n: usize) -> Self {
        let routes = (n <= FLAT_ROUTE_MAX_N).then(|| FlatRoutes {
            n,
            slots: (0..n * n).map(|_| OnceLock::new()).collect(),
        });
        QueryCache {
            routes,
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// The shard a key lives in: the top bits of one multiplicative mix
    /// of its two numbers. Spreading is all it is for — the maps hash
    /// their keys themselves (with the std hasher; keys come from
    /// clients).
    fn shard(&self, key: &QueryKey) -> &Mutex<HashMap<QueryKey, Arc<str>>> {
        let (a, b) = match *key {
            QueryKey::Route(x, y) => (u64::from(x), u64::from(y)),
            QueryKey::Tolerate(d, f) => (u64::from(d), f as u64),
        };
        let mixed = ((a << 32) ^ b).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> (64 - CACHE_SHARDS.trailing_zeros())) as usize]
    }

    /// Looks `key` up, computing and memoizing it with `compute` on a
    /// miss. Returns the value and whether it was a hit.
    ///
    /// No lock is held while `compute` runs — concurrent misses may
    /// compute twice, and the first insert wins; queries are pure
    /// functions of the epoch, so duplicated work is the only cost.
    pub fn get_or_insert_with<R: Into<Arc<str>>>(
        &self,
        key: QueryKey,
        compute: impl FnOnce() -> R,
    ) -> (Arc<str>, bool) {
        if let (QueryKey::Route(x, y), Some(flat)) = (key, self.routes.as_ref()) {
            if let Some(slot) = flat.slot(x, y) {
                return flat.get_or_insert(slot, compute);
            }
        }
        let shard = self.shard(&key);
        if let Some(v) = relock(shard.lock()).get(&key) {
            return (v.clone(), true);
        }
        let fresh: Arc<str> = compute().into();
        let mut map = relock(shard.lock());
        let value = map.entry(key).or_insert(fresh).clone();
        (value, false)
    }

    /// Resolves a batch of validated ROUTE pairs in one pass, calling
    /// `sink(index, reply, hit)` for each pair in order: probe, and on a
    /// miss compute and insert, before the next pair is looked at — so
    /// a pair that repeats inside the batch is computed once and hits
    /// thereafter. Lock-free on the flat side; on the sharded side one
    /// uncontended lock per probe and per insert, never held while
    /// `compute` runs.
    pub fn route_many<R: Into<Arc<str>>>(
        &self,
        pairs: &[(Node, Node)],
        mut compute: impl FnMut(Node, Node) -> R,
        mut sink: impl FnMut(usize, Arc<str>, bool),
    ) {
        for (i, &(x, y)) in pairs.iter().enumerate() {
            // Out-of-range pairs are rejected by validation before they
            // reach the cache; one that slips through finds no flat slot
            // and lands in the shard maps.
            let (v, hit) = self.get_or_insert_with(QueryKey::Route(x, y), || compute(x, y));
            sink(i, v, hit);
        }
    }

    /// Number of cached entries (for stats).
    pub fn len(&self) -> usize {
        let flat = self
            .routes
            .as_ref()
            .map_or(0, |f| f.slots.iter().filter(|s| s.get().is_some()).count());
        flat + self
            .shards
            .iter()
            .map(|s| relock(s.lock()).len())
            .sum::<usize>()
    }

    /// Returns `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Shared {
    /// The currently published epoch. Writers swap the `Arc` under the
    /// write lock; readers only take the read lock to re-clone after
    /// observing an id change.
    current: RwLock<Arc<Epoch>>,
    /// The published epoch id, stored *after* the swap with `Release`
    /// ordering; a reader that `Acquire`-loads a stale id keeps using
    /// its cached (fully formed) epoch.
    id: AtomicU64,
}

/// The epoch-versioned snapshot store: one writer publishes, any number
/// of [`EpochReader`]s consume without locking in the steady state.
#[derive(Clone)]
pub struct EpochStore {
    shared: Arc<Shared>,
}

impl EpochStore {
    /// A store whose genesis epoch (id 0) snapshots `state` — normally a
    /// fresh [`ftr_core::CompiledRoutes::epoch_state`], but a restarted
    /// server may seed it with faults already applied.
    pub fn new(state: &EpochState) -> Self {
        let genesis = Arc::new(Epoch::new(0, state.faults().clone(), state.live().clone()));
        EpochStore {
            shared: Arc::new(Shared {
                current: RwLock::new(genesis),
                id: AtomicU64::new(0),
            }),
        }
    }

    /// Publishes the next epoch from the ingestor's advanced `state`,
    /// returning its id. The snapshot (two clones) and the pointer swap
    /// happen here; nothing about the epoch is observable until the
    /// swap completes.
    pub fn publish(&self, state: &EpochState) -> u64 {
        let faults = state.faults().clone();
        let live = state.live().clone();
        let mut slot = relock(self.shared.current.write());
        let id = slot.id() + 1;
        *slot = Arc::new(Epoch::new(id, faults, live));
        drop(slot);
        self.shared.id.store(id, Ordering::Release);
        id
    }

    /// The currently published epoch id.
    pub fn current_id(&self) -> u64 {
        self.shared.id.load(Ordering::Acquire)
    }

    /// Clones the current epoch (takes the read lock; use an
    /// [`EpochReader`] on hot paths).
    pub fn load(&self) -> Arc<Epoch> {
        relock(self.shared.current.read()).clone()
    }

    /// A reader handle for one worker thread.
    pub fn reader(&self) -> EpochReader {
        EpochReader {
            cached: self.load(),
            shared: Arc::clone(&self.shared),
        }
    }
}

/// A per-thread view of the store: caches the last seen epoch and
/// revalidates it with one atomic load per call.
pub struct EpochReader {
    shared: Arc<Shared>,
    cached: Arc<Epoch>,
}

impl EpochReader {
    /// The current epoch. Lock-free unless an epoch was published since
    /// this reader's last call.
    pub fn current(&mut self) -> &Arc<Epoch> {
        if self.shared.id.load(Ordering::Acquire) != self.cached.id {
            self.cached = relock(self.shared.current.read()).clone();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_core::{Compile, KernelRouting};
    use ftr_graph::gen;

    fn petersen_store() -> (ftr_core::CompiledRoutes, EpochStore) {
        let g = gen::petersen();
        let engine = KernelRouting::build(&g).unwrap().routing().compile();
        let store = EpochStore::new(&engine.epoch_state());
        (engine, store)
    }

    #[test]
    fn genesis_epoch_is_fault_free() {
        let (_, store) = petersen_store();
        let epoch = store.load();
        assert_eq!(epoch.id(), 0);
        assert!(epoch.faults().is_empty());
        assert!(epoch.diameter().is_some());
    }

    #[test]
    fn publish_bumps_id_and_snapshots_state() {
        let (engine, store) = petersen_store();
        let mut state = engine.epoch_state();
        state.insert(&engine, 4);
        assert_eq!(store.publish(&state), 1);
        state.insert(&engine, 7);
        assert_eq!(store.publish(&state), 2);
        let epoch = store.load();
        assert_eq!(epoch.id(), 2);
        assert_eq!(epoch.faults().iter().collect::<Vec<_>>(), vec![4, 7]);
        assert_eq!(epoch.diameter(), state.diameter());
        // Publishing did not freeze the state: the earlier epoch kept
        // its own snapshot.
        state.remove(&engine, 4);
        assert_eq!(store.load().faults().len(), 2, "epochs are immutable");
    }

    #[test]
    fn reader_tracks_publishes_without_missing_epochs() {
        let (engine, store) = petersen_store();
        let mut reader = store.reader();
        assert_eq!(reader.current().id(), 0);
        let mut state = engine.epoch_state();
        state.insert(&engine, 0);
        store.publish(&state);
        assert_eq!(reader.current().id(), 1);
        assert!(reader.current().faults().contains(0));
        // No publish in between: the same Arc is returned, lock-free.
        let a = Arc::as_ptr(reader.current());
        let b = Arc::as_ptr(reader.current());
        assert_eq!(a, b);
    }

    #[test]
    fn arc_survival_masks_faulty_endpoints() {
        let (engine, store) = petersen_store();
        let mut state = engine.epoch_state();
        state.insert(&engine, 1);
        store.publish(&state);
        let epoch = store.load();
        for y in 0..10 {
            assert!(!epoch.arc_survives(1, y), "faulty source 1 -> {y}");
            assert!(!epoch.arc_survives(y, 1), "faulty target {y} -> 1");
        }
    }

    #[test]
    fn cache_memoizes_within_one_epoch() {
        let (_, store) = petersen_store();
        let epoch = store.load();
        let (v1, hit1) = epoch
            .cache()
            .get_or_insert_with(QueryKey::Route(0, 5), || "answer".to_string());
        let (v2, hit2) = epoch
            .cache()
            .get_or_insert_with(QueryKey::Route(0, 5), || -> String {
                unreachable!("cached")
            });
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(&*v1, "answer");
        assert_eq!(v1, v2);
        assert_eq!(epoch.cache().len(), 1);
    }

    #[test]
    fn a_batch_computes_each_missing_pair_once() {
        // Flat side and sharded side of the size switch.
        for n in [FLAT_ROUTE_MAX_N, FLAT_ROUTE_MAX_N + 1, 1024] {
            let cache = QueryCache::new(n);
            let last = (n - 1) as Node;
            cache.route_many(&[(0, last)], |_, _| "warm", |_, _, hit| assert!(!hit));
            // Eight lookups: one already cached, three distinct missing
            // pairs, two of them repeated inside the burst.
            let batch = [
                (0, last),
                (1, 2),
                (2, 1),
                (1, 2),
                (last, 0),
                (2, 1),
                (1, 2),
                (0, last),
            ];
            let mut computed = Vec::new();
            let mut seen = Vec::new();
            cache.route_many(
                &batch,
                |x, y| {
                    computed.push((x, y));
                    format!("{x}>{y}")
                },
                |i, reply, hit| seen.push((i, reply, hit)),
            );
            assert_eq!(computed, [(1, 2), (2, 1), (last, 0)], "n = {n}");
            let hits: Vec<bool> = seen.iter().map(|(_, _, hit)| *hit).collect();
            assert_eq!(
                hits,
                [true, false, false, true, false, true, true, true],
                "n = {n}"
            );
            for (i, reply, _) in &seen {
                let (x, y) = batch[*i];
                let want = if (x, y) == (0, last) {
                    "warm".to_string()
                } else {
                    format!("{x}>{y}")
                };
                assert_eq!(**reply, *want, "n = {n}, index {i}");
            }
            assert_eq!(cache.len(), 4, "n = {n}");
        }
    }
}
