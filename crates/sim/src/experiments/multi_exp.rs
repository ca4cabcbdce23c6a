//! E11 and E12: Section 6's model variations — multiroutings and
//! network augmentation.

use ftr_core::{
    concentrator_multirouting, full_multirouting, single_tree_multirouting, verify_tolerance,
    AugmentedKernelRouting, Compile, FaultStrategy, ToleranceClaim,
};
use ftr_graph::gen;

use super::{threads, NamedGraph, Scale};
use crate::report::{fmt_bool, fmt_diameter, Table};

/// E11 — the three multirouting observations of Section 6:
/// full parallel routes give diameter 1, concentrator parallel routes
/// give 3, and the two-route single-tree variant is measured.
pub fn e11_multiroutings(scale: Scale) -> Table {
    let mut graphs = vec![
        NamedGraph::new("Petersen", gen::petersen()),
        NamedGraph::new("Torus3x4", gen::torus(3, 4).expect("valid")),
    ];
    if scale == Scale::Full {
        graphs.push(NamedGraph::new(
            "H(4,16)",
            gen::harary(4, 16).expect("valid"),
        ));
        graphs.push(NamedGraph::new("C12", gen::cycle(12).expect("valid")));
    }
    let mut table = Table::new(
        "E11",
        "Section 6 multiroutings: worst surviving diameter under |F| <= t",
        [
            "graph",
            "n",
            "t",
            "variant",
            "parallel budget",
            "claimed",
            "worst diameter",
            "ok",
        ],
    );
    for NamedGraph { name, graph } in graphs {
        let n = graph.node_count();
        let full = full_multirouting(&graph).expect("connected");
        // Its parallel budget is t + 1 = κ(G): no separate sweep for t.
        let t = full.max_parallel() - 1;
        let report = verify_tolerance(&full.compile(), t, FaultStrategy::Exhaustive, threads());
        let claim = ToleranceClaim {
            diameter: 1,
            faults: t,
        };
        table.push_row([
            name.clone(),
            n.to_string(),
            t.to_string(),
            "full (t+1 routes everywhere)".into(),
            (t + 1).to_string(),
            "1".into(),
            fmt_diameter(report.worst_diameter),
            fmt_bool(report.satisfies(&claim)),
        ]);

        let (conc, _) = concentrator_multirouting(&graph).expect("not complete");
        let report = verify_tolerance(&conc.compile(), t, FaultStrategy::Exhaustive, threads());
        let claim = ToleranceClaim {
            diameter: 3,
            faults: t,
        };
        table.push_row([
            name.clone(),
            n.to_string(),
            t.to_string(),
            "concentrator (t+1 routes inside M)".into(),
            (t + 1).to_string(),
            "3".into(),
            fmt_diameter(report.worst_diameter),
            fmt_bool(report.satisfies(&claim)),
        ]);

        // The paper proves no diameter bound for the two-route variant;
        // the implicit claim is that |F| <= t never disconnects it.
        let (single, _) = single_tree_multirouting(&graph).expect("not complete");
        let report = verify_tolerance(&single.compile(), t, FaultStrategy::Exhaustive, threads());
        table.push_row([
            name.clone(),
            n.to_string(),
            t.to_string(),
            "single-tree (<= 2 routes)".into(),
            "2".into(),
            "connected (measured)".into(),
            fmt_diameter(report.worst_diameter),
            fmt_bool(report.worst_diameter.is_some()),
        ]);
    }
    table.push_note(
        "The paper proves the bounds 1 and 3 and leaves the two-route variant unbounded; \
         its measured worst diameter is reported as-is.",
    );
    table
}

/// E12 — clique-augmenting the kernel separator: `(3, t)`-tolerant at
/// the price of at most `t(t+1)/2` added links.
pub fn e12_augmentation(scale: Scale) -> Table {
    let mut graphs = vec![
        NamedGraph::new("C10", gen::cycle(10).expect("valid")),
        NamedGraph::new("Petersen", gen::petersen()),
        NamedGraph::new("Torus3x4", gen::torus(3, 4).expect("valid")),
    ];
    if scale == Scale::Full {
        graphs.push(NamedGraph::new(
            "H(4,14)",
            gen::harary(4, 14).expect("valid"),
        ));
        graphs.push(NamedGraph::new(
            "H(5,16)",
            gen::harary(5, 16).expect("valid"),
        ));
    }
    let mut table = Table::new(
        "E12",
        "Section 6: clique-augmented kernel is (3, t)-tolerant with <= t(t+1)/2 new links",
        [
            "graph",
            "n",
            "t",
            "links added",
            "budget t(t+1)/2",
            "worst diameter",
            "ok",
        ],
    );
    for NamedGraph { name, graph } in graphs {
        let aug = AugmentedKernelRouting::build(&graph).expect("not complete");
        let claim = aug.guarantee().claim();
        let report = verify_tolerance(
            &aug.routing().compile(),
            claim.faults,
            FaultStrategy::Exhaustive,
            threads(),
        );
        let ok = report.satisfies(&claim) && aug.added_edges().len() <= aug.link_budget();
        table.push_row([
            name,
            graph.node_count().to_string(),
            aug.tolerated_faults().to_string(),
            aug.added_edges().len().to_string(),
            aug.link_budget().to_string(),
            fmt_diameter(report.worst_diameter),
            fmt_bool(ok),
        ]);
    }
    table.push_note("Open problem 2 of the paper asks whether O(t) added links suffice.");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_claims_hold() {
        let t = e11_multiroutings(Scale::Quick);
        assert!(t.all_yes("ok"), "{t}");
        assert_eq!(t.rows().len(), 6);
        // the measured single-tree rows must also report a finite diameter
        for row in t.rows().iter().filter(|r| r[3].starts_with("single-tree")) {
            assert_ne!(row[6], "inf", "{row:?}");
        }
    }

    #[test]
    fn e12_bounds_and_budgets_hold() {
        let t = e12_augmentation(Scale::Quick);
        assert!(t.all_yes("ok"), "{t}");
    }
}
