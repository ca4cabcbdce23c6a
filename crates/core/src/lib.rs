//! Fault tolerant routings for general networks — a full implementation
//! of Peleg & Simons, *On Fault Tolerant Routings in General Networks*
//! (PODC 1986 / Information and Computation 74, 1987).
//!
//! # The model
//!
//! A network is an undirected graph `G` of node-connectivity `t + 1`.
//! A [`Routing`] fixes at most one simple path per ordered node pair;
//! messages travel only along these fixed routes. When a set `F` of
//! nodes fails, the [`SurvivingGraph`] `R(G, ρ)/F` keeps an arc `x → y`
//! iff the route `ρ(x, y)` avoids `F`, and the cost of communication is
//! the number of surviving routes chained — so the *diameter of the
//! surviving graph* is the figure of merit. A routing is
//! *(d, f)-tolerant* ([`ToleranceClaim`]) when every fault set of size
//! at most `f` leaves diameter at most `d`.
//!
//! # The constructions
//!
//! | Construction | Requirement | Bound | Paper |
//! |---|---|---|---|
//! | [`KernelRouting`] | any `(t+1)`-connected graph | `(2t, t)` and `(4, ⌊t/2⌋)` | Thm 3, Thm 4 |
//! | [`CircularRouting`] | neighborhood set of `t+1` / `t+2` nodes | `(6, t)` | Thm 10 |
//! | [`TriCircularRouting`] | neighborhood set of `6t+9` nodes | `(4, t)` | Thm 13 |
//! | [`TriCircularRouting`] (small) | neighborhood set of `3t+3` / `3t+6` nodes | `(5, t)` | Rem 14 |
//! | [`BipolarRouting`] (uni) | two-trees property | `(4, t)` | Thm 20 |
//! | [`BipolarRouting`] (bi) | two-trees property | `(5, t)` | Thm 23 |
//! | [`MultiRouting`] (full) | `t+1` routes per pair | diameter 1 | §6 |
//! | [`MultiRouting`] (concentrator) | `t+1` routes inside `M` | diameter 3 | §6 |
//! | [`AugmentedKernelRouting`] | may add `t(t+1)/2` links | `(3, t)` | §6 |
//! | [`HypercubeRouting`] | hypercubes (bit-fixing baseline) | measured | §1 (Dolev et al.) |
//!
//! Every claimed bound is machine-checkable: [`verify_tolerance`]
//! measures the worst surviving diameter over fault sets exhaustively,
//! by seeded sampling, or adversarially.
//!
//! # The scheme API and the planner
//!
//! Each construction above is also registered behind the uniform
//! [`Scheme`] trait — the paper's menu turned into one interface.
//! [`Scheme::applicability`] answers "can this construction run on this
//! graph, and what would it promise?" *without* building anything; the
//! promise is a [`Guarantee`] machine-encoding the backing theorem
//! ([`TheoremId`]), the tolerated fault count, the surviving-diameter
//! bound and the route/memory cost. [`Scheme::build`] produces a
//! [`BuiltRouting`] bundling the table with that guarantee, the network
//! it routes and the construction's core nodes. The [`SchemeRegistry`]
//! holds all seven schemes; [`SchemeSpec`] (`kernel`, `circular:k=6`,
//! `bipolar:bi`, …) is the shared parseable grammar; precondition
//! failures are one typed [`Inapplicable`] taxonomy with the scheme
//! name attached. On top sits the [`Planner`]: given a
//! [`PlannerRequest`] (fault budget, optional diameter target,
//! single-route / route-count restrictions) it surveys the registry,
//! builds every eligible candidate data-parallel, and ranks by smallest
//! guaranteed diameter, then exact route count, then registry order —
//! deterministic across thread counts. Construction-specific guarantee
//! accessors (`guarantee_theorem_3()`, `CircularRouting::guarantee()`,
//! …) return the same [`Guarantee`] type. A guarantee starts life
//! *advertised* (the theorem's word); the `ftr-audit` crate's
//! branch-and-bound searcher can upgrade it to *audited*
//! ([`Guarantee::audited`]) by certifying the bound over every fault
//! set within budget.
//!
//! # The route-table lifecycle: builder → frozen CSR
//!
//! A [`Routing`] is built in two phases. Constructions call
//! [`Routing::insert`] against a hash-map *builder* — deriving each
//! source's route batch **in parallel** (the `par` module's ordered
//! map; insertion stays sequential and deterministic) — and finish with
//! [`Routing::freeze`], which compacts the table into a pair-indexed
//! **CSR layout** over one flat `u32` node arena: `route(s, d)` becomes
//! a binary search of one contiguous row, [`Routing::routes`] a
//! cache-linear scan in ascending `(src, dst)` order, and the layout is
//! canonical (independent of build order), which is what makes
//! `ftr-serve`'s bulk-arena snapshot format byte-stable. Measured at
//! scale (bench `e17_scale`, `BENCH_scale.json`, single-threaded):
//! the kernel routing of `H(4, 4096)` — 49 100 routes — constructs in
//! 2.5 s through `build_spec` (one connectivity pass plus one tree
//! routing per source, all max flow on one reusable split network),
//! freezes at ~890k routes/s, compiles in 0.36 s, and every sampled
//! 3-fault set keeps the surviving diameter within Theorem 3's bound;
//! the previous experiment ceiling was n = 24.
//!
//! # The verification engine
//!
//! Verification evaluates one routing under combinatorially many fault
//! sets, so the hot path is compiled: [`Compile::compile`] turns any
//! route table into a [`CompiledRoutes`] engine holding one interior
//! fault mask per route (built straight off the frozen arena with zero
//! per-path allocation), an inverted `node → routes` index, and the
//! surviving route graph as an [`ftr_graph::BitMatrix`]. Under the
//! engine, "does `F` kill this route" is a word-level
//! [`ftr_graph::NodeSet::intersects`] scan, single-fault toggles update
//! per-route kill counts incrementally, per-fault-set diameter scans
//! reuse a thread-local scratch matrix, and diameters are measured by
//! bit-parallel BFS — ~7× faster end-to-end than the route-walk path on
//! the `e16_engine` bench (see `BENCH_engine.json`).
//!
//! Callers holding **many** fault sets should prefer the batched entry
//! point: [`RouteTable::surviving_diameter_batch`] evaluates a whole
//! slice of fault sets in one call. The [`CompiledRoutes`] override
//! keeps a single scratch [`ftr_graph::BitMatrix`] and BFS frontier
//! live across the batch instead of re-acquiring them per set, walks
//! only the routes each fault set can touch (via the inverted index),
//! and runs the underlying word loops 4×u64-unrolled — this is the
//! engine the adversarial audit searcher, the `TOLERATE` serve verb and
//! the `e20_hotpath` bench all drive (`BENCH_hotpath.json` records the
//! batch-vs-one-shot ratio). Results are bit-identical to calling
//! [`RouteTable::surviving_diameter`] per set — pinned by proptests —
//! and the trait's default implementation does exactly that loop, so
//! every route table gets the batched signature. The route-walk
//! implementations remain the reference semantics; property tests in
//! `tests/engine_equivalence.rs` and `tests/proptests.rs` pin
//! arc-for-arc agreement between builder, frozen and compiled forms.
//!
//! # Example
//!
//! Build the circular routing on a 3-connected Harary graph and verify
//! Theorem 10's `(6, 2)`-tolerance exhaustively:
//!
//! ```
//! use ftr_core::{CircularRouting, FaultStrategy, verify_tolerance};
//! use ftr_graph::gen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = gen::harary(3, 18)?;
//! let circ = CircularRouting::build(&g)?;
//! let report = verify_tolerance(circ.routing(), 2, FaultStrategy::Exhaustive, 4);
//! assert!(report.satisfies(&circ.guarantee().claim()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
pub mod beyond;
mod bipolar;
mod circular;
pub mod concentrator;
mod engine;
mod error;
mod hypercube;
mod kernel;
mod multi;
#[cfg(feature = "obs-counters")]
pub mod obs;
pub mod par;
mod planner;
pub mod properties;
mod routing;
mod scheme;
mod surviving;
mod tolerance;
pub mod tree;
mod tricircular;

pub use augment::AugmentedKernelRouting;
pub use bipolar::BipolarRouting;
pub use circular::CircularRouting;
pub use engine::{Compile, CompiledRoutes, EpochState};
pub use error::{Inapplicable, InapplicableReason, RoutingError};
pub use hypercube::HypercubeRouting;
pub use kernel::KernelRouting;
pub use multi::{
    concentrator_multirouting, full_multirouting, single_tree_multirouting, MultiRouting,
};
pub use planner::{Candidate, CandidateOutcome, Plan, PlanError, Planner, PlannerRequest};
pub use routing::{RouteView, Routing, RoutingKind, RoutingStats};
pub use scheme::{
    AugmentScheme, BipolarScheme, BuiltRouting, BuiltTable, CircularScheme, GraphFacts, Guarantee,
    HypercubeScheme, KernelScheme, MultiMode, MultiScheme, Scheme, SchemeParams, SchemeRegistry,
    SchemeSpec, TheoremId, TriCircularScheme, SCHEME_NAMES,
};
pub use surviving::{FaultCursor, RouteTable, SurvivingGraph};
pub use tolerance::{check_claim, verify_tolerance, FaultStrategy, ToleranceReport};
pub use tricircular::{TriCircularRouting, TriCircularVariant};

/// A *(d, f)-tolerance* claim: "every fault set of size at most
/// [`faults`](ToleranceClaim::faults) leaves a surviving route graph of
/// diameter at most [`diameter`](ToleranceClaim::diameter)".
///
/// Each construction exposes the claim its theorem proves; the
/// [`verify_tolerance`] report checks observations against it.
///
/// # Example
///
/// ```
/// use ftr_core::ToleranceClaim;
///
/// let thm10 = ToleranceClaim { diameter: 6, faults: 2 };
/// assert_eq!(thm10.to_string(), "(6, 2)-tolerant");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ToleranceClaim {
    /// Maximum surviving diameter `d`.
    pub diameter: u32,
    /// Maximum fault count `f`.
    pub faults: usize,
}

impl std::fmt::Display for ToleranceClaim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})-tolerant", self.diameter, self.faults)
    }
}
