//! E19 — the audit sweep: branch-and-bound certification across the
//! whole scheme registry.
//!
//! For every applicable `(graph, scheme)` pair of a shared suite the
//! sweep audits the *advertised* guarantee (expected to hold — these are
//! the paper's theorems) and a *tightened* claim one below the
//! advertised diameter (where violations and their witnesses surface).
//! Each audit emits a certificate that is immediately re-validated by
//! the independent `ftr-audit` checker; the `cert` column records that
//! round trip. The planner half runs `plan_audited`: the planner's
//! winner has its guarantee searched and — on a holds verdict —
//! upgraded from advertised to audited.

use ftr_audit::{audit_built, check, SearchConfig, SearchMode, Verdict};
use ftr_core::{GraphFacts, SchemeRegistry, SchemeSpec, ToleranceClaim};
use ftr_graph::gen;

use super::{threads, NamedGraph, Scale};
use crate::report::{fmt_bool, Table};

/// The E19 shared suite (mirrors E18's applicability coverage).
fn e19_suite(scale: Scale) -> Vec<NamedGraph> {
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

fn search_config() -> SearchConfig {
    SearchConfig {
        mode: SearchMode::Certify,
        threads: threads(),
        ..SearchConfig::default()
    }
}

fn render_verdict(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Holds => "holds".to_string(),
        Verdict::Violated { diameter, witness } => format!(
            "violated d={} by {witness:?}",
            diameter.map_or("disc".to_string(), |d| d.to_string())
        ),
        Verdict::Exhausted => "exhausted".to_string(),
    }
}

/// E19 (sweep half) — audit the advertised and one tightened claim for
/// every applicable registry scheme on the shared suite.
pub fn e19_audit_sweep(scale: Scale) -> Table {
    let registry = SchemeRegistry::standard();
    let mut table = Table::new(
        "E19",
        "audit sweep: branch-and-bound certification across the registry",
        [
            "graph", "n", "scheme", "claim", "verdict", "visited", "pruned", "space", "speedup",
            "cert",
        ],
    );
    for NamedGraph { name, graph } in e19_suite(scale) {
        let n = graph.node_count();
        let facts = GraphFacts::new(&graph);
        for scheme in registry.iter() {
            let spec = SchemeSpec::named(scheme.name());
            let Ok(built) = scheme.build(&facts, &spec.params) else {
                continue; // inapplicable here; E18 records the reasons
            };
            let advertised = built.guarantee().claim();
            let tightened = ToleranceClaim {
                diameter: advertised.diameter.saturating_sub(1),
                faults: advertised.faults,
            };
            for (label, claim) in [("advertised", advertised), ("tightened", tightened)] {
                let mut built = built.clone();
                let (report, cert) = audit_built(&mut built, &graph, Some(claim), &search_config());
                let cert_ok = check(&cert.serialize()).is_ok();
                table.push_row([
                    name.clone(),
                    n.to_string(),
                    scheme.name().to_string(),
                    format!("{claim} ({label})"),
                    render_verdict(&report.verdict),
                    report.visited.to_string(),
                    report.pruned_sets.to_string(),
                    report.space.to_string(),
                    format!("{:.1}x", report.space as f64 / report.visited.max(1) as f64),
                    fmt_bool(cert_ok),
                ]);
            }
        }
    }
    table.push_note(
        "Each row is one branch-and-bound audit (certify mode): `visited + pruned = space` \
         for holds verdicts; `speedup` is space/visited, the factor saved over exhaustive \
         enumeration. `cert` records that the emitted certificate passed the independent \
         `ftr-audit` re-check (hash, rebuild, accounting, witness re-measurement).",
    );
    table
}

/// E19 (planner half) — `plan_audited`: the planner's winner per suite
/// graph has its guarantee searched and upgraded to audited.
pub fn e19_planner_audited(scale: Scale) -> Table {
    let planner = ftr_core::Planner::new();
    let mut table = Table::new(
        "E19P",
        "plan + audit: the winner's guarantee upgraded from advertised to audited",
        [
            "graph",
            "n",
            "f",
            "winner",
            "guarantee",
            "verdict",
            "visited/space",
            "cert",
        ],
    );
    for NamedGraph { name, graph } in e19_suite(scale) {
        let n = graph.node_count();
        let request = ftr_core::PlannerRequest::full_tolerance();
        match ftr_audit::plan_audited(&planner, &graph, &request, &search_config()) {
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
            Ok((plan, report, cert)) => {
                let cert_ok = check(&cert.serialize()).is_ok();
                table.push_row([
                    name.clone(),
                    n.to_string(),
                    plan.winner.guarantee().faults.to_string(),
                    plan.winner.spec().to_string(),
                    plan.winner.guarantee().to_string(),
                    render_verdict(&report.verdict),
                    format!("{}/{}", report.visited, report.space),
                    fmt_bool(cert_ok),
                ]);
            }
        }
    }
    table.push_note(
        "The winner's guarantee column shows `[audited]` when the search certified the \
         advertised bound over every fault set within budget — the guarantee upgrade \
         `ftr_audit::plan_audited` wires through the planner.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_advertised_claims_hold_and_certs_recheck() {
        let t = e19_audit_sweep(Scale::Quick);
        assert!(t.all_yes("cert"), "{t}");
        let mut advertised = 0;
        for row in t.rows() {
            if row[3].contains("advertised") {
                advertised += 1;
                assert_eq!(row[4], "holds", "{row:?}");
                // Full accounting: visited + pruned == space.
                let visited: u64 = row[5].parse().unwrap();
                let pruned: u64 = row[6].parse().unwrap();
                let space: u64 = row[7].parse().unwrap();
                assert_eq!(visited + pruned, space, "{row:?}");
            }
        }
        assert!(advertised >= 8, "suite exercises several schemes");
    }

    #[test]
    fn e19_planner_winners_get_audited() {
        let t = e19_planner_audited(Scale::Quick);
        assert_eq!(t.rows().len(), 3);
        assert!(t.all_yes("cert"), "{t}");
        for row in t.rows() {
            assert_eq!(row[5], "holds", "{row:?}");
            assert!(row[4].contains("[audited]"), "{row:?}");
        }
    }
}
