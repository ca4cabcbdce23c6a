//! The in-process workload: build and compile a large kernel routing,
//! spot-verify it on seeded fault sets, and certify a claim on a small
//! one — the offline bill, on one thread, with no daemon involved.

use std::time::Instant;

use ftr_audit::{audit_built, check, SearchConfig, SearchMode};
use ftr_core::{Compile, RouteTable, ToleranceClaim};
use ftr_graph::spec::parse_graph_spec;

use crate::daemon;
use crate::gen;
use crate::layers::{self, LayerSpec};
use crate::oracle::build_scheme;
use crate::report::WorkloadReport;
use crate::served::{write_spans, RunConfig};
use crate::spans::Recorder;
use crate::spec::{Offline, PairMix, COLD_STARTS, OFFLINE_E2E, PER_LAYER};
use crate::stats::Trials;

/// Counts one checked operation; a failed one is also a problem line.
fn check_op(report: &mut WorkloadReport, ok: bool, what: String) {
    report.tally.attempted += 1;
    if !ok {
        report.tally.failed += 1;
        report.problems.push(what);
    }
}

fn audit_config() -> SearchConfig {
    SearchConfig {
        mode: SearchMode::Worst,
        // One thread keeps the visited / pruned counts exact from run to
        // run.
        threads: 1,
        ..SearchConfig::default()
    }
}

/// Runs `trials` trials of the three offline steps.
pub fn run_gated(spec: &Offline, trials: usize, seed: u64) -> Result<WorkloadReport, String> {
    let mut report = WorkloadReport::new(spec.name);
    let mut columns: Vec<Trials> = vec![Trials::default(); OFFLINE_E2E.len()];
    let (d, f) = spec.audit_claim;
    let claim = ToleranceClaim {
        diameter: d,
        faults: f,
    };
    for trial in 0..trials as u64 {
        // Set-up: the inputs. It takes well under a millisecond, so it
        // is repeated and the fastest of all repeats is reported.
        let mut inputs = None;
        for _ in 0..COLD_STARTS.div_ceil(trials) {
            let start = Instant::now();
            let (graph, _) = parse_graph_spec(spec.build_graph)?;
            let sets = gen::fault_sets(
                graph.node_count(),
                spec.verify_faults,
                spec.verify_sets,
                gen::derive_seed(seed, "offline-trial", trial),
            );
            let (audit_graph, _) = parse_graph_spec(spec.audit_graph)?;
            columns[0].push(start.elapsed().as_secs_f64());
            inputs = Some((graph, sets, audit_graph));
        }
        let (graph, sets, audit_graph) = inputs.ok_or("no set-up ran")?;

        // (1) construct + freeze through the registry, then compile.
        let start = Instant::now();
        let built = build_scheme(&graph)?;
        let engine = built
            .routing()
            .ok_or("kernel builds a single routing")?
            .compile();
        columns[1].push(start.elapsed().as_secs_f64());
        let routes = built.table().route_count();
        check_op(
            &mut report,
            routes == spec.build_routes && engine.pair_count() == routes,
            format!(
                "trial {trial}: built {routes} routes, expected {}",
                spec.build_routes
            ),
        );

        // (2) sampled fault sets through the batched diameter kernel.
        let bound = built.guarantee().diameter;
        let start = Instant::now();
        let diameters = engine.surviving_diameter_batch(&sets);
        columns[2].push(sets.len() as f64 / start.elapsed().as_secs_f64());
        for (set, diameter) in sets.iter().zip(diameters) {
            check_op(
                &mut report,
                diameter.is_some_and(|d| d <= bound),
                format!("trial {trial}: faults {set:?} give diameter {diameter:?}, bound {bound}"),
            );
        }
        drop((engine, built));

        // (3) exact worst-case audit of the claim, then the certificate
        // round trip through the independent checker.
        let mut audit_target = build_scheme(&audit_graph)?;
        let start = Instant::now();
        let (audit, certificate) = audit_built(
            &mut audit_target,
            &audit_graph,
            Some(claim),
            &audit_config(),
        );
        let checked = check(&certificate.serialize());
        columns[3].push(start.elapsed().as_secs_f64());
        check_op(
            &mut report,
            audit.holds() && audit.covered() == spec.audit_space,
            format!(
                "trial {trial}: audit of ({d}, {f}) gave {:?} with visited + pruned = {}, expected {}",
                audit.verdict,
                audit.covered(),
                spec.audit_space
            ),
        );
        check_op(
            &mut report,
            checked.as_ref().is_ok_and(|c| c.holds),
            format!(
                "trial {trial}: certificate check failed: {:?}",
                checked.err()
            ),
        );
        columns[4].push(daemon::self_peak_rss_mb()?);
    }
    for (def, column) in OFFLINE_E2E.into_iter().zip(columns) {
        report.push(def, column);
    }
    report.notes.push(format!(
        "in-process, 1 thread: kernel on {} ({} routes), {} sets of {} faults, worst-mode audit \
         of ({d}, {f}) on {} ({} sets accounted)",
        spec.build_graph,
        spec.build_routes,
        spec.verify_sets,
        spec.verify_faults,
        spec.audit_graph,
        spec.audit_space
    ));
    Ok(report)
}

/// The traced run of the offline workload: the in-process layer walk on
/// its graphs. No daemon runs, so the scraped and client-side layer
/// metrics do not exist here.
pub fn run_traced(spec: &Offline, config: &RunConfig) -> Result<WorkloadReport, String> {
    let mut report = WorkloadReport::new(spec.name);
    let mut recorder = Recorder::new();
    let values = layers::walk(
        &LayerSpec {
            graph: spec.build_graph,
            mix: PairMix::Uniform,
            audit_graph: spec.audit_graph,
            audit_claim: spec.audit_claim,
            audit_mode: SearchMode::Worst,
        },
        config.seed,
        &mut recorder,
    )?;
    report.tally.attempted = 1;
    for def in PER_LAYER {
        if let Some(&v) = values.get(def.name) {
            report.push(def, Trials { raw: vec![v] });
        }
    }
    report.notes.push(
        "no daemon runs in this workload: serve.server.*, serve.epoch.hit_rate, serve.ingest \
         counts, obs.* and client.* are absent"
            .into(),
    );
    write_spans(&recorder, config, &mut report)?;
    Ok(report)
}
