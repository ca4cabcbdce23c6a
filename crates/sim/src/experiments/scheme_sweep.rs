//! The generic scheme-sweep harness and E18.
//!
//! Since the scheme API landed in `ftr-core`, every per-theorem
//! verification experiment is the same loop: look the scheme up in the
//! [`SchemeRegistry`], build it on each suite graph, verify the
//! [`Guarantee`] it advertises, and emit the standard row. E1–E5, E8,
//! E9 are thin wrappers over [`push_scheme_rows`] with their own suites
//! and strategies; E18 runs the *whole* registry against one shared
//! graph + fault suite and then lets the [`Planner`] pick winners.

use ftr_core::{
    CandidateOutcome, FaultStrategy, GraphFacts, Planner, PlannerRequest, SchemeRegistry,
    SchemeSpec,
};
use ftr_graph::gen;

use super::circular_exp::binomial;
use super::{threads, NamedGraph, Scale};
use crate::report::{fmt_bool, fmt_diameter, Table};

/// How a sweep picks its verification strategy per graph.
pub(crate) struct SweepConfig {
    /// Exhaust all fault sets while `C(n, f)` stays at or below this.
    pub exhaustive_below: u64,
    /// Sample size above the threshold.
    pub trials: usize,
    /// Sampling seed (recorded in the strategy column).
    pub seed: u64,
}

impl SweepConfig {
    /// Exhaustive verification everywhere (small suites).
    pub fn exhaustive() -> Self {
        SweepConfig {
            exhaustive_below: u64::MAX,
            trials: 0,
            seed: 0,
        }
    }

    /// Exhaustive below `below` fault sets, else `trials` seeded samples.
    pub fn sampled(below: u64, trials: usize, seed: u64) -> Self {
        SweepConfig {
            exhaustive_below: below,
            trials,
            seed,
        }
    }
}

/// The one generic per-theorem driver: for each suite graph, build
/// `spec` through the registry, verify the advertised [`Guarantee`] at
/// the budget `budget_for(t)`, and append the standard verification row.
/// Construction failures become uniform rows (the [`Inapplicable`]
/// taxonomy rendered in place of a measurement) instead of panics.
///
/// [`Guarantee`]: ftr_core::Guarantee
/// [`Inapplicable`]: ftr_core::Inapplicable
pub(crate) fn push_scheme_rows(
    table: &mut Table,
    spec: &SchemeSpec,
    budget_for: &dyn Fn(usize) -> usize,
    suite: &[NamedGraph],
    config: &SweepConfig,
) {
    let registry = SchemeRegistry::standard();
    let scheme = registry
        .get(&spec.name)
        .expect("specs are validated at parse time");
    for NamedGraph { name, graph } in suite {
        let n = graph.node_count();
        let facts = GraphFacts::new(graph);
        // Learn the construction's full tolerance t, then re-apply with
        // the experiment's budget so the guarantee is regime-correct
        // (e.g. Theorem 4 below t/2 for the kernel).
        let probe = match scheme.applicability(&facts, &spec.params) {
            Ok(g) => g,
            Err(inap) => {
                push_failure_row(table, name, n, &inap.to_string());
                continue;
            }
        };
        let t = probe.faults;
        let mut params = spec.params.clone();
        params.faults = Some(budget_for(t));
        let built = match scheme.build(&facts, &params) {
            Ok(b) => b,
            Err(e) => {
                push_failure_row(table, name, n, &e.to_string());
                continue;
            }
        };
        if let Some(routing) = built.routing() {
            routing
                .validate(built.graph())
                .expect("constructions produce valid routings");
        }
        let claim = built.guarantee().claim();
        let strategy = if binomial(n, claim.faults) <= config.exhaustive_below {
            FaultStrategy::Exhaustive
        } else {
            FaultStrategy::RandomSample {
                trials: config.trials,
                seed: config.seed,
            }
        };
        let report = built.verify(strategy, threads());
        table.push_row([
            name.clone(),
            n.to_string(),
            t.to_string(),
            claim.to_string(),
            strategy.to_string(),
            fmt_diameter(report.worst_diameter),
            report.sets_checked.to_string(),
            fmt_bool(report.satisfies(&claim)),
        ]);
    }
}

/// The uniform failure row: the error text sits where the measurement
/// would, `ok` is `no`.
fn push_failure_row(table: &mut Table, name: &str, n: usize, why: &str) {
    table.push_row([
        name.to_string(),
        n.to_string(),
        "-".to_string(),
        "-".to_string(),
        why.to_string(),
        "-".to_string(),
        "-".to_string(),
        "no".to_string(),
    ]);
}

/// The E18 shared suite: one graph per applicability regime.
fn e18_suite(scale: Scale) -> Vec<NamedGraph> {
    let mut graphs = vec![
        NamedGraph::new("C12", gen::cycle(12).expect("valid")),
        NamedGraph::new("Petersen", gen::petersen()),
        NamedGraph::new("Q3", gen::hypercube(3).expect("valid")),
    ];
    if scale == Scale::Full {
        graphs.extend([
            NamedGraph::new("C45", gen::cycle(45).expect("valid")),
            NamedGraph::new("H(3,20)", gen::harary(3, 20).expect("valid")),
            NamedGraph::new("Torus3x4", gen::torus(3, 4).expect("valid")),
        ]);
    }
    graphs
}

/// E18 (sweep half) — every registry scheme against the shared suite:
/// applicable schemes are built and their advertised guarantees verified
/// exhaustively; inapplicable ones record the uniform reason.
pub fn e18_scheme_sweep(scale: Scale) -> Table {
    let registry = SchemeRegistry::standard();
    let mut table = Table::new(
        "E18",
        "scheme sweep: every registry scheme on a shared graph + fault suite",
        [
            "graph",
            "n",
            "scheme",
            "guarantee",
            "worst diameter",
            "fault sets",
            "ok",
        ],
    );
    for NamedGraph { name, graph } in e18_suite(scale) {
        let n = graph.node_count();
        let facts = GraphFacts::new(&graph);
        for scheme in registry.iter() {
            let spec = SchemeSpec::named(scheme.name());
            match scheme.applicability(&facts, &spec.params) {
                Err(inap) => {
                    table.push_row([
                        name.clone(),
                        n.to_string(),
                        scheme.name().to_string(),
                        inap.to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ]);
                }
                Ok(_) => {
                    let built = scheme
                        .build(&facts, &spec.params)
                        .expect("applicability promised this build");
                    let claim = built.guarantee().claim();
                    let report = built.verify(FaultStrategy::Exhaustive, threads());
                    table.push_row([
                        name.clone(),
                        n.to_string(),
                        scheme.name().to_string(),
                        format!(
                            "({}, {}) per {}",
                            claim.diameter,
                            claim.faults,
                            built.guarantee().theorem.token()
                        ),
                        fmt_diameter(report.worst_diameter),
                        report.sets_checked.to_string(),
                        fmt_bool(report.satisfies(&claim)),
                    ]);
                }
            }
        }
    }
    table.push_note(
        "One row per (graph, scheme). Inapplicable schemes record the uniform reason \
         from the core error taxonomy; applicable ones are built and their advertised \
         guarantee verified exhaustively at the full budget t.",
    );
    table
}

/// E18 (planner half) — for each suite graph, the planner enumerates
/// applicable schemes, builds the candidates in parallel and picks the
/// winner; the row records the selection and re-verifies its guarantee.
pub fn e18_planner_selection(scale: Scale) -> Table {
    let planner = Planner::new();
    let mut table = Table::new(
        "E18P",
        "planner selection: ranked winner per graph (fault budget t)",
        [
            "graph",
            "n",
            "f",
            "winner",
            "guarantee",
            "routes",
            "built/considered/ruled out",
            "ok",
        ],
    );
    for NamedGraph { name, graph } in e18_suite(scale) {
        let n = graph.node_count();
        match planner.plan(&graph, &PlannerRequest::full_tolerance()) {
            Err(e) => {
                table.push_row([
                    name.clone(),
                    n.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    e.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "no".to_string(),
                ]);
            }
            Ok(plan) => {
                let built = plan
                    .candidates
                    .iter()
                    .filter(|c| matches!(c.outcome, CandidateOutcome::Built(_)))
                    .count();
                let ruled: usize = plan.candidates.len() - built;
                let claim = plan.winner.guarantee().claim();
                let report = plan.winner.verify(FaultStrategy::Exhaustive, threads());
                table.push_row([
                    name.clone(),
                    n.to_string(),
                    claim.faults.to_string(),
                    plan.winner.spec().to_string(),
                    format!(
                        "({}, {}) per {}",
                        claim.diameter,
                        claim.faults,
                        plan.winner.guarantee().theorem.token()
                    ),
                    plan.winner.guarantee().routes.to_string(),
                    format!("{built}/{}/{ruled}", plan.candidates.len()),
                    fmt_bool(report.satisfies(&claim)),
                ]);
            }
        }
    }
    table.push_note(
        "Ranking: smallest guaranteed diameter, then exact route count, then registry \
         order; candidate builds run data-parallel and the winner is thread-count \
         independent (pinned by core proptests).",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_sweep_covers_every_scheme_per_graph() {
        let t = e18_scheme_sweep(Scale::Quick);
        let registry = SchemeRegistry::standard();
        assert_eq!(t.rows().len(), 3 * registry.len());
        // Applicable rows must all hold their advertised guarantee.
        let mut applicable = 0;
        for row in t.rows() {
            match row[6].as_str() {
                "yes" => applicable += 1,
                "-" => assert!(row[3].contains("inapplicable"), "{row:?}"),
                other => panic!("guarantee violated ({other}): {row:?}"),
            }
        }
        assert!(applicable >= 8, "suite exercises several schemes");
        // The hypercube scheme applies exactly on Q3.
        let q3_hc = t
            .rows()
            .iter()
            .find(|r| r[0] == "Q3" && r[2] == "hypercube")
            .unwrap();
        assert_eq!(q3_hc[6], "yes");
        let c12_hc = t
            .rows()
            .iter()
            .find(|r| r[0] == "C12" && r[2] == "hypercube")
            .unwrap();
        assert_eq!(c12_hc[6], "-");
    }

    #[test]
    fn e18_planner_selects_on_every_quick_graph() {
        let t = e18_planner_selection(Scale::Quick);
        assert_eq!(t.rows().len(), 3);
        assert!(t.all_yes("ok"), "{t}");
        for row in t.rows() {
            assert_ne!(row[3], "-", "a winner exists: {row:?}");
        }
    }
}
