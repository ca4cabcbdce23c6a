//! Cross-validation and certificate property tests.
//!
//! * On small graphs (`n <= 12`, `f <= 2`) the pruned searcher's verdict
//!   and worst witness must match the exhaustive verifier exactly, for
//!   every applicable scheme in the registry: same verdict, identical
//!   worst surviving diameter, and a witness that independently
//!   reproduces that diameter through the route-walk reference
//!   implementation (the witness *set* may legally differ between equal
//!   worst cases — the searcher enumerates in impact order, the
//!   exhaustive verifier in node order — so equality is asserted on the
//!   measured badness both sets achieve).
//! * Certificates round-trip (serialize → parse → re-check) and detect
//!   tampering: a flipped hash fails the hash check, a flipped witness
//!   (hash re-fixed) fails the witness re-measurement.

use ftr_audit::{
    audit, check, CertVerdict, Certificate, CheckError, SearchConfig, SearchMode, Verdict,
};
use ftr_core::{
    verify_tolerance, BuiltTable, Compile, FaultStrategy, GraphFacts, RouteTable, SchemeRegistry,
    SchemeSpec, ToleranceClaim,
};
use ftr_graph::{gen, Graph, NodeSet};
use proptest::prelude::*;

/// The small-graph suite: one representative per applicability regime,
/// all with `n <= 12` so exhaustive enumeration stays instant.
fn small_suite() -> Vec<(&'static str, Graph)> {
    vec![
        ("petersen", gen::petersen()),
        ("c12", gen::cycle(12).expect("valid")),
        ("q3", gen::hypercube(3).expect("valid")),
        ("torus3x4", gen::torus(3, 4).expect("valid")),
        ("harary3x12", gen::harary(3, 12).expect("valid")),
    ]
}

/// Audits `claim` in worst mode and cross-checks against the exhaustive
/// verifier on the same engine.
fn cross_validate(
    label: &str,
    built: &ftr_core::BuiltRouting,
    claim: ToleranceClaim,
    threads: usize,
) -> Result<(), TestCaseError> {
    let engine = match built.table() {
        BuiltTable::Single(r) => r.compile(),
        BuiltTable::Multi(m) => m.compile(),
    };
    let n = engine.node_count();
    let base = NodeSet::new(n);
    let report = audit(
        &engine,
        claim,
        built.core_nodes(),
        &base,
        &SearchConfig {
            mode: SearchMode::Worst,
            threads,
            ..SearchConfig::default()
        },
    );
    let exhaustive = verify_tolerance(&engine, claim.faults, FaultStrategy::Exhaustive, threads);

    // Exact worst diameter agreement.
    prop_assert_eq!(
        report.worst,
        Some(exhaustive.worst_diameter),
        "{}: worst diameter disagrees",
        label
    );
    // Verdict agreement.
    let exhaustive_holds = exhaustive.satisfies(&claim);
    prop_assert_eq!(
        report.holds(),
        exhaustive_holds,
        "{}: verdicts disagree",
        label
    );
    // Both worst witnesses reproduce the same badness through the
    // route-walk reference (not the engine the search ran on).
    for witness in [&report.worst_witness, &exhaustive.worst_faults] {
        let faults = NodeSet::from_nodes(n, witness.iter().copied());
        let measured = match built.table() {
            BuiltTable::Single(r) => r.surviving_diameter(&faults),
            BuiltTable::Multi(m) => m.surviving_diameter(&faults),
        };
        prop_assert_eq!(
            measured,
            exhaustive.worst_diameter,
            "{}: witness {:?} does not reproduce the worst case",
            label,
            witness
        );
    }
    // A holds verdict must account for the whole space.
    if report.holds() {
        prop_assert_eq!(report.covered(), report.space, "{}: coverage gap", label);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Every applicable registry scheme, on every small suite graph,
    // with fault budgets up to 2 and claims both at and one below the
    // advertised bound: pruned (worst mode) == exhaustive, exactly.
    #[test]
    fn pruned_search_matches_exhaustive_for_every_scheme(
        threads in 1usize..4,
        tighten in 0u32..2,
    ) {
        let registry = SchemeRegistry::standard();
        for (name, graph) in small_suite() {
            let facts = GraphFacts::new(&graph);
            for scheme in registry.iter() {
                let spec = SchemeSpec::named(scheme.name());
                let Ok(built) = scheme.build(&facts, &spec.params) else {
                    continue; // inapplicable on this graph
                };
                let g = built.guarantee();
                let f = g.faults.min(2);
                let claim = ToleranceClaim {
                    diameter: g.diameter.saturating_sub(tighten),
                    faults: f,
                };
                let label = format!("{name}/{}", scheme.name());
                cross_validate(&label, &built, claim, threads)?;
            }
        }
    }

    // Certificates round-trip bytewise and re-check; tampered hashes
    // and fabricated witnesses are rejected.
    #[test]
    fn certificates_round_trip_and_detect_tampering(
        graph_idx in 0usize..5,
        tighten in 0u32..2,
    ) {
        let (_, graph) = small_suite().swap_remove(graph_idx);
        let built = SchemeRegistry::standard()
            .build_spec(&graph, &SchemeSpec::named("kernel"))
            .expect("kernel applies everywhere connected");
        let engine = built.routing().expect("kernel is single-route").compile();
        let n = engine.node_count();
        let base = NodeSet::new(n);
        let g = built.guarantee();
        let claim = ToleranceClaim {
            diameter: g.diameter.saturating_sub(tighten),
            faults: g.faults.min(2),
        };
        let report = audit(&engine, claim, built.core_nodes(), &base, &SearchConfig {
            mode: SearchMode::Certify,
            threads: 1,
            ..SearchConfig::default()
        });
        prop_assert!(!matches!(report.verdict, Verdict::Exhausted));
        let cert = Certificate::for_scheme(
            &graph,
            built.spec(),
            g.theorem,
            &engine,
            &base,
            SearchMode::Certify,
            &report,
        );

        // Round trip: serialize → parse → identical → re-serialize
        // byte-identically → re-check passes.
        let text = cert.serialize();
        let (parsed, _) = Certificate::parse(&text).expect("parses");
        prop_assert_eq!(&parsed, &cert);
        prop_assert_eq!(parsed.serialize(), text.clone());
        let checked = check(&text).expect("fresh certificate re-checks");
        prop_assert_eq!(checked.holds, report.holds());

        // Tamper 1: flip the final hash digit — hash check fails.
        let trimmed = text.trim_end();
        let last = trimmed.chars().last().unwrap();
        let flipped = if last == '0' { '1' } else { '0' };
        let bad_hash = format!("{}{flipped}\n", &trimmed[..trimmed.len() - 1]);
        prop_assert!(matches!(check(&bad_hash), Err(CheckError::HashMismatch { .. })));

        // Tamper 2: flip the verdict content but re-fix the hash — the
        // semantic re-check fails instead.
        let mut forged = cert.clone();
        forged.verdict = match forged.verdict {
            CertVerdict::Holds => CertVerdict::Violated {
                diameter: Some(claim.diameter + 1),
                witness: vec![0],
            },
            CertVerdict::Violated { .. } => CertVerdict::Holds,
        };
        let forged_text = forged.serialize(); // hash matches the forgery
        match check(&forged_text) {
            Err(CheckError::WitnessMismatch(_)) | Err(CheckError::CoverageGap { .. }) => {}
            other => prop_assert!(false, "forged verdict accepted: {:?}", other),
        }
    }
}
