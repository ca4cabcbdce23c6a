//! The unified construction surface: every routing scheme of the paper
//! behind one [`Scheme`] trait.
//!
//! The paper is a menu of constructions, each with its own applicability
//! condition and tolerance theorem. This module turns that menu into a
//! first-class API:
//!
//! * a [`Guarantee`] machine-encodes one theorem's bound — the theorem
//!   id, the tolerated fault count `f`, the surviving-diameter bound
//!   `d`, and the route-count/memory cost of achieving it;
//! * a [`Scheme`] answers [`Scheme::applicability`] ("can this
//!   construction run on this graph, and what would it promise?")
//!   without building anything, and [`Scheme::build`] produces a
//!   [`BuiltRouting`] bundling the table with its guarantee and
//!   metadata; both take the graph as [`GraphFacts`], so its
//!   connectivity is swept once however many schemes are asked;
//! * the [`SchemeRegistry`] holds every construction of the paper;
//! * a [`SchemeSpec`] is the parseable textual name of a scheme plus
//!   parameters (`kernel`, `circular:k=6`, `bipolar:bi`, …), shared by
//!   `ftr-served`, the load generator and the experiment binaries.
//!
//! The [`crate::Planner`] sits on top: given a graph and a
//! fault/diameter target it surveys the registry, builds the applicable
//! candidates in parallel and ranks them by guarantee and cost.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use ftr_graph::connectivity::{self, Connectivity};
use ftr_graph::{analysis, Graph, Node, NodeSet};

use crate::concentrator::NeighborhoodConcentrator;
use crate::error::{Inapplicable, InapplicableReason};
use crate::multi::{concentrator_multirouting_at, full_multirouting_at};
use crate::{
    verify_tolerance, AugmentedKernelRouting, BipolarRouting, CircularRouting, Compile,
    FaultStrategy, HypercubeRouting, KernelRouting, MultiRouting, Routing, RoutingError,
    RoutingKind, ToleranceClaim, ToleranceReport, TriCircularRouting, TriCircularVariant,
};

// ------------------------------------------------------------- guarantees

/// Which result of the paper backs a [`Guarantee`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TheoremId {
    /// Theorem 3 (Dolev et al.): the kernel routing is
    /// `(max{2t, 4}, t)`-tolerant.
    Theorem3,
    /// Theorem 4: the kernel routing is `(4, ⌊t/2⌋)`-tolerant.
    Theorem4,
    /// Theorem 10: the circular routing is `(6, t)`-tolerant.
    Theorem10,
    /// Theorem 13: the tri-circular routing is `(4, t)`-tolerant.
    Theorem13,
    /// Remark 14: the small tri-circular routing is `(5, t)`-tolerant
    /// (construction reconstructed; bound validated empirically).
    Remark14,
    /// Theorem 20: the unidirectional bipolar routing is
    /// `(4, t)`-tolerant.
    Theorem20,
    /// Theorem 23: the bidirectional bipolar routing is
    /// `(5, t)`-tolerant.
    Theorem23,
    /// Section 6 (1): `t + 1` parallel routes everywhere give surviving
    /// diameter 1.
    Section6Full,
    /// Section 6 (2): `t + 1` parallel routes inside the concentrator
    /// give surviving diameter 3.
    Section6Concentrator,
    /// Section 6: clique-augmenting the kernel separator gives
    /// `(3, t)`-tolerance.
    Section6Augment,
    /// The hypercube baseline: bit-fixing contains every edge route, so
    /// the surviving route graph contains the faulted hypercube, whose
    /// fault diameter under `d - 1` node faults is `d + 1`.
    FaultDiameter,
}

impl TheoremId {
    /// A short, space-free token (used in snapshot files and wire
    /// replies); parsed back by [`TheoremId::from_token`].
    pub fn token(self) -> &'static str {
        match self {
            TheoremId::Theorem3 => "thm3",
            TheoremId::Theorem4 => "thm4",
            TheoremId::Theorem10 => "thm10",
            TheoremId::Theorem13 => "thm13",
            TheoremId::Remark14 => "rem14",
            TheoremId::Theorem20 => "thm20",
            TheoremId::Theorem23 => "thm23",
            TheoremId::Section6Full => "sec6-full",
            TheoremId::Section6Concentrator => "sec6-conc",
            TheoremId::Section6Augment => "sec6-augment",
            TheoremId::FaultDiameter => "fault-diam",
        }
    }

    /// Parses a [`TheoremId::token`] back.
    pub fn from_token(token: &str) -> Option<TheoremId> {
        [
            TheoremId::Theorem3,
            TheoremId::Theorem4,
            TheoremId::Theorem10,
            TheoremId::Theorem13,
            TheoremId::Remark14,
            TheoremId::Theorem20,
            TheoremId::Theorem23,
            TheoremId::Section6Full,
            TheoremId::Section6Concentrator,
            TheoremId::Section6Augment,
            TheoremId::FaultDiameter,
        ]
        .into_iter()
        .find(|id| id.token() == token)
    }
}

impl fmt::Display for TheoremId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            TheoremId::Theorem3 => "Theorem 3",
            TheoremId::Theorem4 => "Theorem 4",
            TheoremId::Theorem10 => "Theorem 10",
            TheoremId::Theorem13 => "Theorem 13",
            TheoremId::Remark14 => "Remark 14",
            TheoremId::Theorem20 => "Theorem 20",
            TheoremId::Theorem23 => "Theorem 23",
            TheoremId::Section6Full => "Section 6 (full multirouting)",
            TheoremId::Section6Concentrator => "Section 6 (concentrator multirouting)",
            TheoremId::Section6Augment => "Section 6 (augmentation)",
            TheoremId::FaultDiameter => "hypercube fault diameter",
        };
        f.write_str(text)
    }
}

/// One theorem's bound, machine-encoded: the scheme that provides it,
/// the theorem backing it, the `(diameter, faults)` tolerance claim, and
/// the route-count/memory cost of achieving it.
///
/// From [`Scheme::applicability`] the cost fields are *estimates* (no
/// table has been built); on a [`BuiltRouting`] they are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guarantee {
    /// Name of the scheme providing the bound.
    pub scheme: &'static str,
    /// The paper result backing the bound.
    pub theorem: TheoremId,
    /// Surviving-diameter bound `d`.
    pub diameter: u32,
    /// Tolerated fault count `f` (the requested budget, clamped to what
    /// the theorem covers).
    pub faults: usize,
    /// Ordered-pair route count (estimate before build, exact after).
    pub routes: usize,
    /// Route-table heap footprint in bytes (estimate before build,
    /// exact after).
    pub memory_bytes: usize,
    /// Whether the bound has been machine-audited — certified by the
    /// `ftr-audit` branch-and-bound search over every fault set within
    /// budget — rather than merely advertised by the theorem. Always
    /// `false` on pre-build estimates; upgraded through
    /// [`BuiltRouting::upgrade_audited`].
    pub audited: bool,
}

impl Guarantee {
    fn new(scheme: &'static str, theorem: TheoremId, diameter: u32, faults: usize) -> Self {
        Guarantee {
            scheme,
            theorem,
            diameter,
            faults,
            routes: 0,
            memory_bytes: 0,
            audited: false,
        }
    }

    /// Attaches a coarse pre-build cost estimate (`routes` ordered
    /// pairs, ~16 bytes of frozen table per pair).
    fn estimate(mut self, routes: usize) -> Self {
        self.routes = routes;
        self.memory_bytes = routes.saturating_mul(16);
        self
    }

    /// The `(d, f)` claim, for [`ToleranceReport::satisfies`] /
    /// [`crate::check_claim`].
    pub fn claim(&self) -> ToleranceClaim {
        ToleranceClaim {
            diameter: self.diameter,
            faults: self.faults,
        }
    }
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: ({}, {})-tolerant per {}{}",
            self.scheme,
            self.diameter,
            self.faults,
            self.theorem,
            if self.audited { " [audited]" } else { "" }
        )
    }
}

impl From<&Guarantee> for ToleranceClaim {
    fn from(g: &Guarantee) -> Self {
        g.claim()
    }
}

// ----------------------------------------------------------------- params

/// Which multirouting variant a [`SchemeSpec`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiMode {
    /// Section 6 (1): `t + 1` parallel routes between every pair.
    Full,
    /// Section 6 (2): kernel routing plus `t + 1` parallel routes inside
    /// the concentrator (the default — bounded and far cheaper).
    #[default]
    Concentrator,
}

/// Parameters a [`Scheme`] may consume; every field is optional and each
/// scheme reads only the ones it understands. [`Default`] gives every
/// scheme its theorem-default configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemeParams {
    /// Fault budget the guarantee should cover; defaults to the full
    /// tolerance `t = κ(G) − 1` of the construction. The kernel scheme
    /// uses it to choose between Theorem 3 and Theorem 4.
    pub faults: Option<usize>,
    /// Routing kind for the bipolar and hypercube schemes
    /// (defaults: bipolar unidirectional, hypercube bidirectional).
    pub kind: Option<RoutingKind>,
    /// Concentrator size override for the circular scheme
    /// (`CircularRouting::build_with_size`).
    pub concentrator_size: Option<usize>,
    /// Tri-circular variant (default [`TriCircularVariant::Standard`]).
    pub variant: Option<TriCircularVariant>,
    /// Multirouting mode (default [`MultiMode::Concentrator`]).
    pub multi_mode: Option<MultiMode>,
    /// Caller-chosen two-trees roots for the bipolar scheme
    /// (`BipolarRouting::build_with_roots`).
    pub roots: Option<(Node, Node)>,
    /// Caller-supplied separating set for the kernel scheme
    /// (`KernelRouting::build_with_separator`). Not expressible in the
    /// textual spec grammar — programmatic use only.
    pub separator: Option<NodeSet>,
}

// ------------------------------------------------------------------- spec

/// A parseable scheme name plus parameters — the shared textual form
/// used by `ftr-served --scheme`, the load generator and the experiment
/// binaries.
///
/// Grammar: `name[:opt[,opt…]]` where `opt` is one of `uni` | `bi`
/// (routing kind), `standard` | `small` (tri-circular variant), `full` |
/// `concentrator` (multirouting mode), `k=N` (circular concentrator
/// size), `f=N` (fault budget), `roots=A-B` (bipolar roots).
///
/// # Example
///
/// ```
/// use ftr_core::SchemeSpec;
///
/// let spec: SchemeSpec = "circular:k=6".parse()?;
/// assert_eq!(spec.name, "circular");
/// assert_eq!(spec.params.concentrator_size, Some(6));
/// assert_eq!(spec.to_string(), "circular:k=6");
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeSpec {
    /// Registry name of the scheme (`kernel`, `circular`, …).
    pub name: String,
    /// The parsed parameters.
    pub params: SchemeParams,
}

impl SchemeSpec {
    /// A spec with default parameters for `name`.
    pub fn named(name: impl Into<String>) -> Self {
        SchemeSpec {
            name: name.into(),
            params: SchemeParams::default(),
        }
    }
}

/// The names [`SchemeSpec`] accepts — exactly the
/// [`SchemeRegistry::standard`] contents.
pub const SCHEME_NAMES: [&str; 7] = [
    "kernel",
    "circular",
    "tricircular",
    "bipolar",
    "hypercube",
    "multi",
    "augment",
];

impl FromStr for SchemeSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (name, opts) = s.split_once(':').unwrap_or((s, ""));
        if !SCHEME_NAMES.contains(&name) {
            return Err(format!(
                "unknown scheme {name:?} (one of {})",
                SCHEME_NAMES.join(" | ")
            ));
        }
        let mut params = SchemeParams::default();
        for opt in opts.split(',').filter(|o| !o.is_empty()) {
            match opt {
                "uni" => params.kind = Some(RoutingKind::Unidirectional),
                "bi" => params.kind = Some(RoutingKind::Bidirectional),
                "standard" => params.variant = Some(TriCircularVariant::Standard),
                "small" => params.variant = Some(TriCircularVariant::Small),
                "full" => params.multi_mode = Some(MultiMode::Full),
                "concentrator" => params.multi_mode = Some(MultiMode::Concentrator),
                _ => match opt.split_once('=') {
                    Some(("k", v)) => {
                        params.concentrator_size =
                            Some(v.parse().map_err(|_| format!("bad k value {v:?}"))?);
                    }
                    Some(("f", v)) => {
                        params.faults = Some(v.parse().map_err(|_| format!("bad f value {v:?}"))?);
                    }
                    Some(("roots", v)) => {
                        let (a, b) = v
                            .split_once('-')
                            .ok_or_else(|| format!("roots want A-B, got {v:?}"))?;
                        params.roots = Some((
                            a.parse().map_err(|_| format!("bad root {a:?}"))?,
                            b.parse().map_err(|_| format!("bad root {b:?}"))?,
                        ));
                    }
                    _ => {
                        return Err(format!(
                            "unknown scheme option {opt:?} \
                             (uni | bi | standard | small | full | concentrator | k=N | f=N | roots=A-B)"
                        ))
                    }
                },
            }
        }
        Ok(SchemeSpec {
            name: name.to_string(),
            params,
        })
    }
}

impl fmt::Display for SchemeSpec {
    /// The canonical textual form: options in a fixed order, defaults
    /// omitted, so parse → render round-trips and equal specs render
    /// identically. The programmatic-only `separator` field is not
    /// rendered.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        let mut opts: Vec<String> = Vec::new();
        if let Some(v) = self.params.variant {
            opts.push(
                match v {
                    TriCircularVariant::Standard => "standard",
                    TriCircularVariant::Small => "small",
                }
                .to_string(),
            );
        }
        if let Some(m) = self.params.multi_mode {
            opts.push(
                match m {
                    MultiMode::Full => "full",
                    MultiMode::Concentrator => "concentrator",
                }
                .to_string(),
            );
        }
        if let Some(k) = self.params.kind {
            opts.push(
                match k {
                    RoutingKind::Unidirectional => "uni",
                    RoutingKind::Bidirectional => "bi",
                }
                .to_string(),
            );
        }
        if let Some(k) = self.params.concentrator_size {
            opts.push(format!("k={k}"));
        }
        if let Some(fs) = self.params.faults {
            opts.push(format!("f={fs}"));
        }
        if let Some((a, b)) = self.params.roots {
            opts.push(format!("roots={a}-{b}"));
        }
        if !opts.is_empty() {
            write!(f, ":{}", opts.join(","))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------- built routing

/// The table a scheme produced: a single-route-per-pair [`Routing`] or a
/// [`MultiRouting`] with parallel routes.
#[derive(Debug, Clone)]
pub enum BuiltTable {
    /// At most one route per ordered pair (the paper's base model).
    Single(Routing),
    /// Several parallel routes per pair (Section 6).
    Multi(MultiRouting),
}

impl BuiltTable {
    /// Ordered-pair route count (slots, for a multirouting).
    pub fn route_count(&self) -> usize {
        match self {
            BuiltTable::Single(r) => r.route_count(),
            BuiltTable::Multi(m) => m.route_count(),
        }
    }

    /// Approximate heap footprint of the table in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            BuiltTable::Single(r) => r.memory_bytes(),
            BuiltTable::Multi(m) => m.memory_bytes(),
        }
    }
}

/// A routing built through the scheme API: the table, the network it
/// routes (which the augmentation scheme *changes*), the guarantee its
/// theorem proves, and scheme metadata.
#[derive(Debug, Clone)]
pub struct BuiltRouting {
    scheme: &'static str,
    spec: SchemeSpec,
    guarantee: Guarantee,
    graph: Graph,
    table: BuiltTable,
    core_nodes: Vec<Node>,
}

impl BuiltRouting {
    fn new(
        spec: SchemeSpec,
        mut guarantee: Guarantee,
        graph: Graph,
        table: BuiltTable,
        core_nodes: Vec<Node>,
    ) -> Self {
        guarantee.routes = table.route_count();
        guarantee.memory_bytes = table.memory_bytes();
        BuiltRouting {
            scheme: guarantee.scheme,
            spec,
            guarantee,
            graph,
            table,
            core_nodes,
        }
    }

    /// Name of the scheme that built this routing.
    pub fn scheme(&self) -> &'static str {
        self.scheme
    }

    /// The canonical spec that reproduces this build.
    pub fn spec(&self) -> &SchemeSpec {
        &self.spec
    }

    /// The guarantee the construction's theorem proves, with exact
    /// route-count/memory cost.
    pub fn guarantee(&self) -> &Guarantee {
        &self.guarantee
    }

    /// The network the table routes. For the augmentation scheme this is
    /// the *augmented* graph (original plus clique links); for every
    /// other scheme it equals the input graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The built table.
    pub fn table(&self) -> &BuiltTable {
        &self.table
    }

    /// The single-route table, if this scheme produces one (everything
    /// except the multiroutings).
    pub fn routing(&self) -> Option<&Routing> {
        match &self.table {
            BuiltTable::Single(r) => Some(r),
            BuiltTable::Multi(_) => None,
        }
    }

    /// The concentrator / separator / pole members the construction is
    /// organized around (empty when there is none, e.g. hypercube
    /// bit-fixing) — the natural victim pool for targeted fault
    /// injection.
    pub fn core_nodes(&self) -> &[Node] {
        &self.core_nodes
    }

    /// Marks the guarantee as machine-audited: the `ftr-audit` searcher
    /// has certified the bound over *every* fault set within the budget,
    /// upgrading it from the theorem's advertised word to a checked
    /// fact. Callers (the audit crate's `plan_audited`, the `ftr-audit`
    /// CLI) invoke this only after a holds verdict.
    pub fn upgrade_audited(&mut self) {
        self.guarantee.audited = true;
    }

    /// Decomposes into the served pieces: the (possibly augmented)
    /// graph and the single-route table.
    ///
    /// # Errors
    ///
    /// Returns `self` unchanged if the table is a multirouting.
    pub fn into_single(self) -> Result<(Graph, Routing, SchemeSpec, Guarantee), Box<BuiltRouting>> {
        match self.table {
            BuiltTable::Single(r) => Ok((self.graph, r, self.spec, self.guarantee)),
            BuiltTable::Multi(_) => Err(Box::new(self)),
        }
    }

    /// Measures the guarantee: compiles the table into the bitset engine
    /// and runs [`verify_tolerance`] at the guarantee's fault budget.
    pub fn verify(&self, strategy: FaultStrategy, threads: usize) -> ToleranceReport {
        let f = self.guarantee.faults;
        match &self.table {
            BuiltTable::Single(r) => verify_tolerance(&r.compile(), f, strategy, threads),
            BuiltTable::Multi(m) => verify_tolerance(&m.compile(), f, strategy, threads),
        }
    }
}

// ------------------------------------------------------------ the schemes

/// A graph together with what the schemes need to know about it: its
/// node connectivity κ and a minimum separating set, found by one
/// [`Connectivity::of`] pass the first time any scheme asks and then
/// shared. Hand the same value to every [`Scheme::applicability`] and
/// [`Scheme::build`] call about one graph — the registry's `build_spec`
/// and the planner do — and the `n`-flow sweep is paid once (and not at
/// all by the hypercube scheme, which reads κ off the topology).
#[derive(Debug)]
pub struct GraphFacts<'g> {
    graph: &'g Graph,
    connectivity: OnceLock<Connectivity>,
}

impl<'g> GraphFacts<'g> {
    /// Wraps `graph`; nothing is computed yet.
    pub fn new(graph: &'g Graph) -> Self {
        GraphFacts {
            graph,
            connectivity: OnceLock::new(),
        }
    }

    /// The graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// κ(G) and a minimum separating set.
    pub fn connectivity(&self) -> &Connectivity {
        self.connectivity
            .get_or_init(|| Connectivity::of(self.graph))
    }
}

/// One construction of the paper behind the uniform interface:
/// applicability (with the guarantee it would provide) and building.
///
/// Implementations must be cheap-ish in [`Scheme::applicability`] —
/// graph analysis is fine, constructing route tables is not — and
/// deterministic in both methods.
pub trait Scheme: Send + Sync {
    /// Registry name (`kernel`, `circular`, …).
    fn name(&self) -> &'static str;

    /// Whether [`Scheme::build`] produces a single-route-per-pair
    /// [`Routing`] (everything except the multiroutings) — the planner's
    /// filter for requests that must be servable as snapshots.
    fn single_route_table(&self) -> bool {
        true
    }

    /// Can this construction run on the graph with `params`, and what
    /// bound would it promise? Costs in the returned [`Guarantee`] are
    /// estimates.
    ///
    /// # Errors
    ///
    /// [`Inapplicable`] with this scheme's name and the structural
    /// reason.
    fn applicability(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<Guarantee, Inapplicable>;

    /// Builds the routing, bundling table + guarantee + metadata.
    ///
    /// # Errors
    ///
    /// [`RoutingError::Inapplicable`] when the precondition fails, or
    /// the underlying construction failure.
    fn build(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<BuiltRouting, RoutingError>;
}

/// Connectivity, tolerance and effective fault budget, shared by every
/// scheme's applicability check.
fn connectivity_budget(
    scheme: &'static str,
    facts: &GraphFacts<'_>,
    params: &SchemeParams,
) -> Result<(usize, usize, usize), Inapplicable> {
    let kappa = facts.connectivity().kappa;
    if kappa == 0 {
        return Err(Inapplicable {
            scheme,
            reason: InapplicableReason::InsufficientConnectivity {
                needed: 1,
                found: 0,
            },
        });
    }
    let t = kappa - 1;
    let budget = params.faults.unwrap_or(t);
    if budget > t {
        return Err(Inapplicable {
            scheme,
            reason: InapplicableReason::FaultBudgetExceeded {
                tolerates: t,
                requested: budget,
            },
        });
    }
    Ok((kappa, t, budget))
}

fn spec_of(name: &str, params: &SchemeParams) -> SchemeSpec {
    SchemeSpec {
        name: name.to_string(),
        params: params.clone(),
    }
}

/// The kernel routing (Section 3): Theorem 3's `(max{2t, 4}, t)` bound,
/// or Theorem 4's `(4, ⌊t/2⌋)` bound when the requested fault budget
/// stays within half the connectivity margin.
pub struct KernelScheme;

impl KernelScheme {
    fn guarantee_at(g: &Graph, t: usize, budget: usize) -> Guarantee {
        let complete = g.is_complete();
        let (theorem, diameter) = if budget <= t / 2 {
            (TheoremId::Theorem4, if complete { 1 } else { 4 })
        } else {
            (
                TheoremId::Theorem3,
                if complete { 1 } else { (2 * t as u32).max(4) },
            )
        };
        let n = g.node_count();
        let routes = if complete {
            n * n.saturating_sub(1)
        } else {
            2 * g.edge_count() + 2 * (t + 1) * n.saturating_sub(t + 1)
        };
        Guarantee::new("kernel", theorem, diameter, budget).estimate(routes)
    }
}

impl Scheme for KernelScheme {
    fn name(&self) -> &'static str {
        "kernel"
    }

    fn applicability(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<Guarantee, Inapplicable> {
        let g = facts.graph();
        let (kappa, t, budget) = connectivity_budget("kernel", facts, params)?;
        if let Some(sep) = &params.separator {
            if sep.len() < kappa {
                return Err(Inapplicable {
                    scheme: "kernel",
                    reason: InapplicableReason::ConcentratorTooSmall {
                        needed: kappa,
                        found: sep.len(),
                    },
                });
            }
            if !connectivity::is_separator(g, sep) {
                return Err(Inapplicable::property(
                    "kernel",
                    "the supplied node set does not separate the graph",
                ));
            }
        }
        Ok(Self::guarantee_at(g, t, budget))
    }

    fn build(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<BuiltRouting, RoutingError> {
        let guarantee = self.applicability(facts, params)?;
        let g = facts.graph();
        let conn = facts.connectivity();
        let kernel = match &params.separator {
            Some(sep) => KernelRouting::build_with_separator(g, sep, conn.kappa)?,
            None => KernelRouting::build_at(g, conn)?,
        };
        let core = kernel.separator().to_vec();
        Ok(BuiltRouting::new(
            spec_of("kernel", params),
            guarantee,
            g.clone(),
            BuiltTable::Single(kernel.into_routing()),
            core,
        ))
    }
}

/// The circular routing (Theorem 10): `(6, t)` given a neighborhood set
/// of `t+1` / `t+2` members (or a caller-chosen size, Lemma 7 / A1).
pub struct CircularScheme;

impl CircularScheme {
    fn required_size(t: usize, params: &SchemeParams) -> usize {
        params
            .concentrator_size
            .unwrap_or(if t.is_multiple_of(2) { t + 1 } else { t + 2 })
    }
}

impl Scheme for CircularScheme {
    fn name(&self) -> &'static str {
        "circular"
    }

    fn applicability(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<Guarantee, Inapplicable> {
        let g = facts.graph();
        let (kappa, t, budget) = connectivity_budget("circular", facts, params)?;
        let k = Self::required_size(t, params);
        // Theorem 10 needs at least `f + 1` concentrator members to
        // cover a budget of `f` faults; undersized overrides are the A1
        // ablation regime (`CircularRouting::build_with_size` directly),
        // where the bound is deliberately *not* certified — the scheme
        // API must not promise it.
        if k <= budget {
            return Err(Inapplicable {
                scheme: "circular",
                reason: InapplicableReason::ConcentratorTooSmall {
                    needed: budget + 1,
                    found: k,
                },
            });
        }
        NeighborhoodConcentrator::select(g, k)
            .map_err(|e| Inapplicable::from_build_error("circular", e).expect("precondition"))?;
        let n = g.node_count();
        let routes = 2 * g.edge_count() + 2 * kappa * k * n;
        Ok(Guarantee::new("circular", TheoremId::Theorem10, 6, budget).estimate(routes))
    }

    fn build(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<BuiltRouting, RoutingError> {
        let guarantee = self.applicability(facts, params)?;
        let g = facts.graph();
        let kappa = facts.connectivity().kappa;
        let circ = CircularRouting::build_at(g, kappa, Self::required_size(kappa - 1, params))?;
        let core = circ.concentrator().members().to_vec();
        Ok(BuiltRouting::new(
            spec_of("circular", params),
            guarantee,
            g.clone(),
            BuiltTable::Single(circ.into_routing()),
            core,
        ))
    }
}

/// The tri-circular routing (Theorem 13 / Remark 14): `(4, t)` with
/// `6t + 9` concentrator members, or `(5, t)` with `3t+3` / `3t+6` for
/// the small variant.
pub struct TriCircularScheme;

impl TriCircularScheme {
    fn variant(params: &SchemeParams) -> TriCircularVariant {
        params.variant.unwrap_or(TriCircularVariant::Standard)
    }

    fn circle_size(t: usize, variant: TriCircularVariant) -> usize {
        match variant {
            TriCircularVariant::Standard => 2 * t + 3,
            TriCircularVariant::Small => {
                if t.is_multiple_of(2) {
                    t + 1
                } else {
                    t + 2
                }
            }
        }
    }
}

impl Scheme for TriCircularScheme {
    fn name(&self) -> &'static str {
        "tricircular"
    }

    fn applicability(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<Guarantee, Inapplicable> {
        let g = facts.graph();
        let (kappa, t, budget) = connectivity_budget("tricircular", facts, params)?;
        let variant = Self::variant(params);
        let k = 3 * Self::circle_size(t, variant);
        NeighborhoodConcentrator::select(g, k)
            .map_err(|e| Inapplicable::from_build_error("tricircular", e).expect("precondition"))?;
        let (theorem, diameter) = match variant {
            TriCircularVariant::Standard => (TheoremId::Theorem13, 4),
            TriCircularVariant::Small => (TheoremId::Remark14, 5),
        };
        let routes = 2 * g.edge_count() + 2 * kappa * k * g.node_count();
        Ok(Guarantee::new("tricircular", theorem, diameter, budget).estimate(routes))
    }

    fn build(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<BuiltRouting, RoutingError> {
        let guarantee = self.applicability(facts, params)?;
        let g = facts.graph();
        let kappa = facts.connectivity().kappa;
        let tri = TriCircularRouting::build_at(g, kappa, Self::variant(params))?;
        let core = tri.concentrator().members().to_vec();
        Ok(BuiltRouting::new(
            spec_of("tricircular", params),
            guarantee,
            g.clone(),
            BuiltTable::Single(tri.into_routing()),
            core,
        ))
    }
}

/// The bipolar routings (Theorems 20 and 23): `(4, t)` unidirectional /
/// `(5, t)` bidirectional on two-trees graphs.
pub struct BipolarScheme;

impl BipolarScheme {
    fn kind(params: &SchemeParams) -> RoutingKind {
        params.kind.unwrap_or(RoutingKind::Unidirectional)
    }
}

impl Scheme for BipolarScheme {
    fn name(&self) -> &'static str {
        "bipolar"
    }

    fn applicability(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<Guarantee, Inapplicable> {
        let g = facts.graph();
        let (kappa, _, budget) = connectivity_budget("bipolar", facts, params)?;
        match params.roots {
            Some((r1, r2)) => {
                if !analysis::is_two_trees_pair(g, r1, r2) {
                    return Err(Inapplicable::property(
                        "bipolar",
                        format!("nodes {r1} and {r2} are not two-trees roots"),
                    ));
                }
            }
            None => {
                if analysis::find_two_trees_roots(g).is_none() {
                    return Err(Inapplicable::property(
                        "bipolar",
                        "the graph does not satisfy the two-trees property",
                    ));
                }
            }
        }
        let (theorem, diameter) = match Self::kind(params) {
            RoutingKind::Unidirectional => (TheoremId::Theorem20, 4),
            RoutingKind::Bidirectional => (TheoremId::Theorem23, 5),
        };
        let n = g.node_count();
        let routes = 2 * g.edge_count() + 4 * kappa * n;
        Ok(Guarantee::new("bipolar", theorem, diameter, budget).estimate(routes))
    }

    fn build(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<BuiltRouting, RoutingError> {
        let guarantee = self.applicability(facts, params)?;
        let g = facts.graph();
        let (r1, r2) = params
            .roots
            .or_else(|| analysis::find_two_trees_roots(g))
            .expect("applicability found two-trees roots");
        let kappa = facts.connectivity().kappa;
        let bipolar = BipolarRouting::build_at(g, kappa, r1, r2, Self::kind(params))?;
        let mut core = vec![r1, r2];
        core.extend_from_slice(bipolar.m1());
        core.extend_from_slice(bipolar.m2());
        Ok(BuiltRouting::new(
            spec_of("bipolar", params),
            guarantee,
            g.clone(),
            BuiltTable::Single(bipolar.into_routing()),
            core,
        ))
    }
}

/// The hypercube bit-fixing baseline (Section 1, after Dolev et al.):
/// applicable only when the graph *is* a labeled hypercube `Q_d`. Every
/// edge of `Q_d` is a bit-fixing route, so the surviving route graph
/// contains the faulted hypercube, whose diameter under at most `d − 1`
/// node faults is at most `d + 1` (the hypercube fault-diameter bound) —
/// that, not the stronger bound Dolev et al. quote for their unpublished
/// construction, is what this scheme promises.
pub struct HypercubeScheme;

/// The dimension of `g` if it is exactly the labeled hypercube `Q_d`
/// (node `x` adjacent to `x ^ (1 << i)` for every bit `i`).
fn hypercube_dim(g: &Graph) -> Option<usize> {
    let n = g.node_count();
    if n < 2 || !n.is_power_of_two() {
        return None;
    }
    let d = n.trailing_zeros() as usize;
    for x in g.nodes() {
        if g.degree(x) != d {
            return None;
        }
        for bit in 0..d {
            if !g.has_edge(x, x ^ (1u32 << bit)) {
                return None;
            }
        }
    }
    Some(d)
}

impl Scheme for HypercubeScheme {
    fn name(&self) -> &'static str {
        "hypercube"
    }

    fn applicability(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<Guarantee, Inapplicable> {
        let g = facts.graph();
        let Some(d) = hypercube_dim(g) else {
            return Err(Inapplicable::property(
                "hypercube",
                "the graph is not a labeled hypercube",
            ));
        };
        let t = d - 1;
        let budget = params.faults.unwrap_or(t);
        if budget > t {
            return Err(Inapplicable {
                scheme: "hypercube",
                reason: InapplicableReason::FaultBudgetExceeded {
                    tolerates: t,
                    requested: budget,
                },
            });
        }
        let n = g.node_count();
        let routes = n * (n - 1);
        Ok(
            Guarantee::new("hypercube", TheoremId::FaultDiameter, d as u32 + 1, budget)
                .estimate(routes),
        )
    }

    fn build(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<BuiltRouting, RoutingError> {
        let guarantee = self.applicability(facts, params)?;
        let g = facts.graph();
        let d = hypercube_dim(g).expect("applicability checked the topology");
        let kind = params.kind.unwrap_or(RoutingKind::Bidirectional);
        let hc = HypercubeRouting::build(d, kind)?;
        Ok(BuiltRouting::new(
            spec_of("hypercube", params),
            guarantee,
            g.clone(),
            BuiltTable::Single(hc.into_routing()),
            Vec::new(),
        ))
    }
}

/// The Section 6 multiroutings: `t + 1` parallel routes everywhere
/// (surviving diameter 1) or only inside the concentrator (diameter 3).
/// The unbounded two-route single-tree variant stays outside the scheme
/// API — the paper proves nothing for it, so the planner could not rank
/// it honestly; [`crate::single_tree_multirouting`] remains callable
/// directly and experiment E11 measures it.
pub struct MultiScheme;

impl MultiScheme {
    fn mode(params: &SchemeParams) -> MultiMode {
        params.multi_mode.unwrap_or_default()
    }
}

impl Scheme for MultiScheme {
    fn name(&self) -> &'static str {
        "multi"
    }

    fn single_route_table(&self) -> bool {
        false
    }

    fn applicability(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<Guarantee, Inapplicable> {
        let g = facts.graph();
        let (kappa, _, budget) = connectivity_budget("multi", facts, params)?;
        let n = g.node_count();
        match Self::mode(params) {
            MultiMode::Full => {
                let routes = n * n.saturating_sub(1) * kappa;
                Ok(Guarantee::new("multi", TheoremId::Section6Full, 1, budget).estimate(routes))
            }
            MultiMode::Concentrator => {
                if g.is_complete() {
                    return Err(Inapplicable::property(
                        "multi",
                        "complete graphs have no separating set",
                    ));
                }
                let routes = 2 * g.edge_count() + 2 * kappa * n + kappa * kappa * kappa;
                Ok(
                    Guarantee::new("multi", TheoremId::Section6Concentrator, 3, budget)
                        .estimate(routes),
                )
            }
        }
    }

    fn build(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<BuiltRouting, RoutingError> {
        let guarantee = self.applicability(facts, params)?;
        let g = facts.graph();
        let (multi, core) = match Self::mode(params) {
            MultiMode::Full => (
                full_multirouting_at(g, facts.connectivity().kappa)?,
                Vec::new(),
            ),
            MultiMode::Concentrator => concentrator_multirouting_at(g, facts.connectivity())?,
        };
        Ok(BuiltRouting::new(
            spec_of("multi", params),
            guarantee,
            g.clone(),
            BuiltTable::Multi(multi),
            core,
        ))
    }
}

/// The Section 6 augmentation: clique the kernel separator for a
/// `(3, t)` bound at the price of at most `t(t+1)/2` added links. The
/// built routing runs over the *augmented* network
/// ([`BuiltRouting::graph`] returns it).
pub struct AugmentScheme;

impl Scheme for AugmentScheme {
    fn name(&self) -> &'static str {
        "augment"
    }

    fn applicability(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<Guarantee, Inapplicable> {
        let g = facts.graph();
        let (kappa, t, budget) = connectivity_budget("augment", facts, params)?;
        if g.is_complete() {
            return Err(Inapplicable::property(
                "augment",
                "complete graphs need no augmentation",
            ));
        }
        let n = g.node_count();
        let routes = 2 * (g.edge_count() + t * (t + 1) / 2) + 2 * kappa * n;
        Ok(Guarantee::new("augment", TheoremId::Section6Augment, 3, budget).estimate(routes))
    }

    fn build(
        &self,
        facts: &GraphFacts<'_>,
        params: &SchemeParams,
    ) -> Result<BuiltRouting, RoutingError> {
        let guarantee = self.applicability(facts, params)?;
        let g = facts.graph();
        let aug = AugmentedKernelRouting::build_at(g, facts.connectivity())?;
        let core = aug.separator().to_vec();
        let (augmented, routing) = aug.into_parts();
        Ok(BuiltRouting::new(
            spec_of("augment", params),
            guarantee,
            augmented,
            BuiltTable::Single(routing),
            core,
        ))
    }
}

// --------------------------------------------------------------- registry

/// Every construction of the paper behind the [`Scheme`] interface, in a
/// fixed, deterministic order (the planner's tie-break order).
pub struct SchemeRegistry {
    schemes: Vec<Box<dyn Scheme>>,
}

impl SchemeRegistry {
    /// The standard registry: kernel, circular, tricircular, bipolar,
    /// hypercube, multi, augment.
    pub fn standard() -> Self {
        SchemeRegistry {
            schemes: vec![
                Box::new(KernelScheme),
                Box::new(CircularScheme),
                Box::new(TriCircularScheme),
                Box::new(BipolarScheme),
                Box::new(HypercubeScheme),
                Box::new(MultiScheme),
                Box::new(AugmentScheme),
            ],
        }
    }

    /// The schemes, in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scheme> {
        self.schemes.iter().map(|s| s.as_ref())
    }

    /// Number of registered schemes.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// Looks a scheme up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Scheme> {
        self.iter().find(|s| s.name() == name)
    }

    /// Builds the routing a [`SchemeSpec`] names.
    ///
    /// # Errors
    ///
    /// [`RoutingError::Inapplicable`] for unknown names (unreachable
    /// after `SchemeSpec::from_str`) or failed preconditions, or the
    /// construction's own failure.
    pub fn build_spec(&self, g: &Graph, spec: &SchemeSpec) -> Result<BuiltRouting, RoutingError> {
        let scheme = self.get(&spec.name).ok_or_else(|| {
            RoutingError::Inapplicable(Inapplicable::property(
                "registry",
                format!("unknown scheme {:?}", spec.name),
            ))
        })?;
        scheme.build(&GraphFacts::new(g), &spec.params)
    }
}

impl Default for SchemeRegistry {
    fn default() -> Self {
        SchemeRegistry::standard()
    }
}

impl fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeRegistry")
            .field(
                "schemes",
                &self.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_graph::gen;

    #[test]
    fn spec_parse_and_render_round_trip() {
        for (text, canonical) in [
            ("kernel", "kernel"),
            ("circular:k=6", "circular:k=6"),
            ("bipolar:bi", "bipolar:bi"),
            ("bipolar:uni,roots=0-3", "bipolar:uni,roots=0-3"),
            ("tricircular:small", "tricircular:small"),
            ("multi:full", "multi:full"),
            ("multi:concentrator,f=2", "multi:concentrator,f=2"),
            ("hypercube:bi", "hypercube:bi"),
            ("augment", "augment"),
            ("circular:f=1,k=3", "circular:k=3,f=1"), // canonical order
        ] {
            let spec: SchemeSpec = text.parse().expect(text);
            assert_eq!(spec.to_string(), canonical, "{text}");
            let back: SchemeSpec = spec.to_string().parse().expect("canonical re-parses");
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn spec_rejects_malformed() {
        for bad in [
            "",
            "klein",
            "kernel:q=1",
            "circular:k=x",
            "bipolar:roots=5",
            "multi:single",
            "kernel:f=",
        ] {
            assert!(bad.parse::<SchemeSpec>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn registry_names_match_spec_grammar() {
        let reg = SchemeRegistry::standard();
        assert_eq!(reg.len(), SCHEME_NAMES.len());
        for name in SCHEME_NAMES {
            assert!(reg.get(name).is_some(), "{name} missing from registry");
            assert!(name.parse::<SchemeSpec>().is_ok(), "{name} unparseable");
        }
    }

    #[test]
    fn kernel_guarantee_is_budget_aware() {
        let g = gen::torus(3, 4).unwrap(); // κ = 4, t = 3
        let reg = SchemeRegistry::standard();
        let kernel = reg.get("kernel").unwrap();
        let full = kernel
            .applicability(&GraphFacts::new(&g), &SchemeParams::default())
            .unwrap();
        assert_eq!(full.theorem, TheoremId::Theorem3);
        assert_eq!((full.diameter, full.faults), (6, 3));
        let half = kernel
            .applicability(
                &GraphFacts::new(&g),
                &SchemeParams {
                    faults: Some(1),
                    ..SchemeParams::default()
                },
            )
            .unwrap();
        assert_eq!(half.theorem, TheoremId::Theorem4);
        assert_eq!((half.diameter, half.faults), (4, 1));
        let over = kernel.applicability(
            &GraphFacts::new(&g),
            &SchemeParams {
                faults: Some(9),
                ..SchemeParams::default()
            },
        );
        assert!(matches!(
            over.unwrap_err().reason,
            InapplicableReason::FaultBudgetExceeded { tolerates: 3, .. }
        ));
    }

    #[test]
    fn build_attaches_exact_costs_and_core_nodes() {
        let g = gen::petersen();
        let built = SchemeRegistry::standard()
            .build_spec(&g, &SchemeSpec::named("kernel"))
            .unwrap();
        assert_eq!(built.scheme(), "kernel");
        assert_eq!(
            built.guarantee().routes,
            built.routing().unwrap().route_count()
        );
        assert!(built.guarantee().memory_bytes > 0);
        assert_eq!(built.core_nodes().len(), 3, "petersen kernel separator");
        let report = built.verify(FaultStrategy::Exhaustive, 2);
        assert!(report.satisfies(&built.guarantee().claim()), "{report}");
    }

    #[test]
    fn hypercube_scheme_detects_topology() {
        assert_eq!(hypercube_dim(&gen::hypercube(3).unwrap()), Some(3));
        assert_eq!(hypercube_dim(&gen::hypercube(1).unwrap()), Some(1));
        assert_eq!(hypercube_dim(&gen::cycle(8).unwrap()), None); // n = 2^3 but not Q3
        assert_eq!(hypercube_dim(&gen::petersen()), None);
        let g = gen::hypercube(3).unwrap();
        let built = SchemeRegistry::standard()
            .build_spec(&g, &SchemeSpec::named("hypercube"))
            .unwrap();
        assert_eq!(built.guarantee().theorem, TheoremId::FaultDiameter);
        assert_eq!(built.guarantee().diameter, 4); // d + 1
        let report = built.verify(FaultStrategy::Exhaustive, 2);
        assert!(report.satisfies(&built.guarantee().claim()), "{report}");
    }

    #[test]
    fn circular_rejects_undersized_concentrator_overrides() {
        // H(3, 18): t = 2, so Theorem 10 needs at least 3 concentrator
        // members. k = 1 and k = 2 are the (uncertified) A1 ablation
        // regime — the scheme API must refuse to promise the bound.
        let g = gen::harary(3, 18).unwrap();
        let reg = SchemeRegistry::standard();
        let circular = reg.get("circular").unwrap();
        for k in [0, 1, 2] {
            let err = circular
                .applicability(
                    &GraphFacts::new(&g),
                    &SchemeParams {
                        concentrator_size: Some(k),
                        ..SchemeParams::default()
                    },
                )
                .unwrap_err();
            assert!(
                matches!(
                    err.reason,
                    InapplicableReason::ConcentratorTooSmall { needed: 3, found } if found == k
                ),
                "k = {k}: {err}"
            );
        }
        // Overrides at or above the theorem size still apply (H(3, 18)
        // admits neighborhood sets of up to 4 members).
        for k in [3, 4] {
            let built = reg
                .build_spec(&g, &format!("circular:k={k}").parse().unwrap())
                .unwrap();
            assert_eq!(built.guarantee().theorem, TheoremId::Theorem10);
            assert_eq!(built.core_nodes().len(), k);
        }
    }

    #[test]
    fn inapplicable_schemes_say_why() {
        let reg = SchemeRegistry::standard();
        let g = gen::hypercube(3).unwrap(); // 4-cycles: no two-trees roots
        let err = reg
            .get("bipolar")
            .unwrap()
            .applicability(&GraphFacts::new(&g), &SchemeParams::default())
            .unwrap_err();
        assert_eq!(err.scheme, "bipolar");
        assert!(err.to_string().contains("two-trees"), "{err}");
        // Build reports the same taxonomy through RoutingError.
        let build_err = reg
            .build_spec(&g, &SchemeSpec::named("bipolar"))
            .unwrap_err();
        assert!(matches!(build_err, RoutingError::Inapplicable(_)));
    }

    #[test]
    fn augment_scheme_returns_the_augmented_network() {
        let g = gen::petersen();
        let built = SchemeRegistry::standard()
            .build_spec(&g, &SchemeSpec::named("augment"))
            .unwrap();
        assert!(built.graph().edge_count() >= g.edge_count());
        built
            .routing()
            .unwrap()
            .validate(built.graph())
            .expect("routes the augmented network");
        let report = built.verify(FaultStrategy::Exhaustive, 2);
        assert!(report.satisfies(&built.guarantee().claim()), "{report}");
    }

    #[test]
    fn multi_scheme_builds_both_modes() {
        let g = gen::petersen();
        let reg = SchemeRegistry::standard();
        for (mode, diameter) in [(MultiMode::Full, 1), (MultiMode::Concentrator, 3)] {
            let spec = SchemeSpec {
                name: "multi".into(),
                params: SchemeParams {
                    multi_mode: Some(mode),
                    ..SchemeParams::default()
                },
            };
            let built = reg.build_spec(&g, &spec).unwrap();
            assert_eq!(built.guarantee().diameter, diameter);
            assert!(built.routing().is_none(), "multiroutings are not single");
            let report = built.verify(FaultStrategy::Exhaustive, 2);
            assert!(report.satisfies(&built.guarantee().claim()), "{report}");
        }
    }

    #[test]
    fn theorem_tokens_round_trip() {
        for id in [
            TheoremId::Theorem3,
            TheoremId::Theorem4,
            TheoremId::Theorem10,
            TheoremId::Theorem13,
            TheoremId::Remark14,
            TheoremId::Theorem20,
            TheoremId::Theorem23,
            TheoremId::Section6Full,
            TheoremId::Section6Concentrator,
            TheoremId::Section6Augment,
            TheoremId::FaultDiameter,
        ] {
            assert_eq!(TheoremId::from_token(id.token()), Some(id));
        }
        assert_eq!(TheoremId::from_token("thm99"), None);
    }
}
