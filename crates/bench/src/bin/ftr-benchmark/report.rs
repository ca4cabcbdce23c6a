//! What a workload run produces and how it is printed: the ledger a
//! person reads, and the one-line JSON result the benchmark driver
//! parses.

use crate::spec::MetricDef;
use crate::stats::Trials;
use crate::wire::Tally;

/// The outcome of one workload run (gated or traced).
pub struct WorkloadReport {
    pub name: &'static str,
    /// Every metric the run measured, in table order.
    pub metrics: Vec<(MetricDef, Trials)>,
    /// Metrics shown in the ledger for context but left out of the
    /// result line, because they are not gated.
    pub ungated: Vec<(MetricDef, Trials)>,
    pub tally: Tally,
    /// Oracle violations and measurement rules the run broke; any entry
    /// makes the run incorrect.
    pub problems: Vec<String>,
    /// Context printed under the metrics (sample counts, supported tail
    /// percentile, noise intervals).
    pub notes: Vec<String>,
}

impl WorkloadReport {
    pub fn new(name: &'static str) -> WorkloadReport {
        WorkloadReport {
            name,
            metrics: Vec::new(),
            ungated: Vec::new(),
            tally: Tally::default(),
            problems: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty()
    }

    /// Adds a metric, refusing values a result line cannot carry.
    pub fn push(&mut self, def: MetricDef, trials: Trials) {
        if !def.value(&trials).is_finite() {
            self.problems
                .push(format!("{} has no finite value", def.name));
        }
        self.metrics.push((def, trials));
    }

    pub fn value_of(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(def, _)| def.name == name)
            .map(|(def, trials)| def.value(trials))
    }

    /// The ledger: one line per metric with unit, direction, the run's
    /// value (summarised as the metric's definition says), the plain
    /// median and spread over the trials, and the raw per-trial values.
    pub fn print_ledger(&self) {
        println!(
            "## {}  attempted={} failed={} correct={}",
            self.name,
            self.tally.attempted,
            self.tally.failed,
            self.correct()
        );
        let gated = self.metrics.iter().map(|m| (m, ""));
        let ungated = self.ungated.iter().map(|m| (m, "  (not gated)"));
        for ((def, trials), tag) in gated.chain(ungated) {
            let raw: Vec<String> = trials.raw.iter().map(|v| format!("{v:.6}")).collect();
            println!(
                "  {:<40} {:>16.6} {:<6} {} better  median={:.6} iqr/median={:.4}  trials=[{}]{tag}",
                def.name,
                def.value(trials),
                def.unit,
                def.better.word(),
                trials.median(),
                trials.spread(),
                raw.join(", ")
            );
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        for problem in &self.problems {
            println!("  PROBLEM: {problem}");
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, trials)| {
                let value = def.value(trials);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}
