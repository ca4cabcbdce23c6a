//! A2 and A3: ablations of the machinery itself.
//!
//! * A2 removes the direct-edge shortcut rule from tree routings and
//!   counts the route conflicts this causes against the kernel's edge
//!   routes — the paper's "additional requirement" is exactly what
//!   keeps the constructions single-route.
//! * A3 compares fault-search strategies: how close do random sampling
//!   and adversarial hill-climbing get to the exhaustive worst case,
//!   and at what cost.

use ftr_core::{
    verify_tolerance, Compile, FaultStrategy, KernelRouting, Routing, RoutingError, RoutingKind,
};
use ftr_graph::{connectivity::Connectivity, flow::SplitNetwork, gen, Graph, Path};

use super::{threads, NamedGraph, Scale};
use crate::report::{fmt_diameter, Table};

/// Builds the kernel routing *without* the shortcut rule, counting
/// conflicting inserts (which are skipped, keeping the first route).
fn kernel_without_shortcut(g: &Graph) -> Result<(Routing, usize), RoutingError> {
    let Connectivity { kappa, separator } = Connectivity::of(g);
    let sep = separator.ok_or_else(|| RoutingError::PropertyNotSatisfied {
        what: "complete graph".into(),
    })?;
    let mut routing = Routing::new(g.node_count(), RoutingKind::Bidirectional);
    for (u, v) in g.edges() {
        routing.insert(Path::edge(u, v).expect("valid edge"))?;
    }
    let mut conflicts = 0usize;
    let mut net = SplitNetwork::new(g);
    for x in g.nodes() {
        if sep.contains(x) {
            continue;
        }
        // Raw disjoint paths, deliberately skipping the shortcut rule.
        let paths = net.vertex_disjoint_paths_to_set(x, &sep, Some(kappa))?;
        for p in paths {
            match routing.insert(p) {
                Ok(()) => {}
                Err(RoutingError::RouteConflict { .. }) => conflicts += 1,
                Err(e) => return Err(e),
            }
        }
    }
    Ok((routing, conflicts))
}

/// A2 — tree routings without the direct-edge shortcut rule: count the
/// conflicts against KERNEL 2's edge routes and measure the resulting
/// (conflict-dropped) routing.
pub fn ablation_a2_shortcut_rule(scale: Scale) -> Table {
    let mut graphs = vec![
        NamedGraph::new("Petersen", gen::petersen()),
        NamedGraph::new("Torus3x4", gen::torus(3, 4).expect("valid")),
    ];
    if scale == Scale::Full {
        graphs.push(NamedGraph::new(
            "H(4,16)",
            gen::harary(4, 16).expect("valid"),
        ));
        graphs.push(NamedGraph::new("Q4", gen::hypercube(4).expect("valid")));
    }
    let mut table = Table::new(
        "A2",
        "kernel tree routings without the shortcut rule: conflicts and impact",
        [
            "graph",
            "conflicting inserts",
            "worst diameter without rule (faults <= t)",
            "worst diameter with rule",
        ],
    );
    for NamedGraph { name, graph } in graphs {
        let (raw, conflicts) = kernel_without_shortcut(&graph).expect("suite graphs qualify");
        let kernel = KernelRouting::build(&graph).expect("connected");
        let t = kernel.tolerated_faults();
        let raw_report = verify_tolerance(&raw.compile(), t, FaultStrategy::Exhaustive, threads());
        let good_report = verify_tolerance(
            &kernel.routing().compile(),
            t,
            FaultStrategy::Exhaustive,
            threads(),
        );
        table.push_row([
            name,
            conflicts.to_string(),
            fmt_diameter(raw_report.worst_diameter),
            fmt_diameter(good_report.worst_diameter),
        ]);
    }
    table.push_note(
        "Measured: zero conflicts — with shortest-augmenting-path max flow the direct edge \
         x—m is always the first path saturated toward an adjacent target, and no later \
         augmentation can cancel flow out of the source, so this implementation satisfies \
         the shortcut rule by construction. The rule remains load-bearing in the model: a \
         different disjoint-path oracle could legally return a long route to an adjacent \
         separator member and collide with the KERNEL 2 edge route.",
    );
    table
}

/// A3 — fault-search strategies compared on one mid-size construction.
pub fn ablation_a3_strategies(scale: Scale) -> Table {
    let graph = match scale {
        Scale::Quick => gen::harary(3, 16).expect("valid"),
        Scale::Full => gen::harary(4, 28).expect("valid"),
    };
    let kernel = KernelRouting::build(&graph).expect("connected");
    let t = kernel.tolerated_faults();
    let mut table = Table::new(
        "A3",
        format!(
            "fault-search strategies on the kernel routing of H({},{}), |F| <= {t}",
            t + 1,
            graph.node_count()
        ),
        ["strategy", "worst diameter found", "fault sets evaluated"],
    );
    let strategies = [
        FaultStrategy::Exhaustive,
        FaultStrategy::RandomSample {
            trials: 50,
            seed: 3,
        },
        FaultStrategy::RandomSample {
            trials: 500,
            seed: 3,
        },
        FaultStrategy::Adversarial {
            restarts: 1,
            seed: 3,
        },
        FaultStrategy::Adversarial {
            restarts: 4,
            seed: 3,
        },
    ];
    let engine = kernel.routing().compile();
    for strategy in strategies {
        let report = verify_tolerance(&engine, t, strategy, threads());
        table.push_row([
            strategy.to_string(),
            fmt_diameter(report.worst_diameter),
            report.sets_checked.to_string(),
        ]);
    }
    table.push_note(
        "Exhaustive is ground truth; adversarial hill-climbing typically matches it with \
         orders of magnitude fewer evaluations, random sampling undershoots.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_reports_conflicts_and_valid_diameters() {
        let t = ablation_a2_shortcut_rule(Scale::Quick);
        assert_eq!(t.rows().len(), 2);
        for row in t.rows() {
            // With the rule there are no conflicts by construction; the
            // raw build may or may not conflict, but the with-rule
            // diameter must be finite.
            assert_ne!(row[3], "inf", "{row:?}");
        }
    }

    #[test]
    fn a3_sampling_never_beats_exhaustive() {
        let t = ablation_a3_strategies(Scale::Quick);
        let parse = |s: &str| -> u32 {
            if s == "inf" {
                u32::MAX
            } else {
                s.parse().unwrap()
            }
        };
        let exhaustive = parse(&t.rows()[0][1]);
        for row in &t.rows()[1..] {
            assert!(
                parse(&row[1]) <= exhaustive,
                "strategy found something exhaustive missed: {row:?}"
            );
        }
    }
}
