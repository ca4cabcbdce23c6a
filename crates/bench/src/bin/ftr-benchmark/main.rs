//! `ftr-benchmark` — the repository's benchmark: four workloads, their
//! end-to-end metrics, and an outside-in layer ledger.
//!
//! ```text
//! ftr-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--trace-out FILE] [--aa] [--smoke]
//! ```
//!
//! With `--workload` it runs that one workload — the gated run with
//! `--trace 0`, the traced run with `--trace 1` — prints its ledger and,
//! as the last line of standard output, the one-line JSON result the
//! benchmark driver reads. Without it, every workload runs gated and
//! then traced; `--aa` instead runs the gated set twice and compares the
//! two against the bounds, and `--smoke` runs every workload once with
//! half-second phases. Any failed operation, oracle violation or
//! exceeded bound makes the exit code nonzero.
//!
//! Run it from the repository root: it builds `ftr-served` with cargo
//! and drives that binary as a child process over loopback. See
//! `README.md` beside this file for the workload and metric tables.

mod daemon;
mod gen;
mod layers;
mod offline;
mod oracle;
mod report;
mod served;
mod spans;
mod spec;
mod stats;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use daemon::Pinning;
use report::WorkloadReport;
use served::RunConfig;
use spec::{MetricDef, OFFLINE, OFFLINE_SMOKE, SERVED, TRIALS, WORKLOAD_NAMES};

/// Default run seed.
const DEFAULT_SEED: u64 = 0xF7B;

/// Default measuring time per workload run, split evenly over the
/// trials' two phases (the value `BENCHMARK.json` passes).
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    aa: bool,
    smoke: bool,
}

fn parse_seed(token: &str) -> Result<u64, String> {
    let parsed = match token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => token.parse(),
    };
    parsed.map_err(|_| format!("bad seed {token:?}"))
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            trace_out: None,
            aa: false,
            smoke: false,
        };
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    if !WORKLOAD_NAMES.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown workload {name:?} (one of {})",
                            WORKLOAD_NAMES.join(", ")
                        ));
                    }
                    args.workload = Some(name);
                }
                "--seed" => args.seed = parse_seed(&value("--seed")?)?,
                "--seconds" => {
                    args.seconds = value("--seconds")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?;
                }
                "--trace" => {
                    args.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
                "--aa" => args.aa = true,
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if args.aa && (args.trace || args.smoke) {
            return Err(
                "--aa compares two full gated runs; it takes neither --trace 1 nor --smoke".into(),
            );
        }
        Ok(args)
    }

    fn trials(&self) -> usize {
        if self.smoke {
            1
        } else {
            TRIALS
        }
    }

    /// Length of one timed phase: the measuring time split evenly over
    /// every trial's closed-loop and open-loop phase.
    fn window(&self) -> Duration {
        let window = if self.smoke {
            0.5
        } else {
            self.seconds / (TRIALS as f64 * 2.0)
        };
        Duration::from_secs_f64(window.max(spec::MIN_WINDOW_S))
    }

    fn config(&self, workload: &str, pinning: Option<Pinning>) -> RunConfig {
        let trace_out = self.trace_out.clone().unwrap_or_else(|| {
            // Beside the harness executable, which is inside the build
            // directory and so never part of the source tree.
            let dir = std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(PathBuf::from))
                .unwrap_or_default();
            dir.join(format!("ftr-benchmark-spans-{workload}.jsonl"))
        });
        RunConfig {
            seed: self.seed,
            window: self.window(),
            trials: self.trials(),
            trace_out,
            pinning,
        }
    }
}

/// What the harness found out about its surroundings at start.
struct Env {
    /// The `ftr-served` executable cargo built.
    binary: PathBuf,
    /// CPUs available before any pinning.
    nproc: usize,
    /// The separate CPUs harness and daemons are pinned to, if there are
    /// two.
    pinning: Option<Pinning>,
}

/// Runs one workload, gated or traced.
fn run_workload(
    args: &Args,
    name: &str,
    traced: bool,
    env: &Env,
) -> Result<WorkloadReport, String> {
    let config = args.config(name, env.pinning.clone());
    let binary = env.binary.as_path();
    match spec::served_by_name(name) {
        Some(workload) if traced => served::run_traced(&workload, &config, binary),
        Some(workload) => served::run_gated(&workload, &config, binary),
        None => {
            let offline = if args.smoke { OFFLINE_SMOKE } else { OFFLINE };
            if traced {
                offline::run_traced(&offline, &config)
            } else {
                offline::run_gated(&offline, config.trials, config.seed)
            }
        }
    }
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_envelope(args: &Args, env: &Env) {
    let rates: Vec<String> = SERVED
        .iter()
        .map(|w| format!("{}={}/s", w.name, w.open_rate))
        .collect();
    println!(
        "# ftr-benchmark git={} nproc={} pinned={} seed={:#x} trials={} phase_window_s={:.3} \
         open_loop_rates: {}",
        git_sha(),
        env.nproc,
        env.pinning.as_ref().map_or("none".to_string(), |p| format!(
            "daemon@cpu{},harness@cpu{}",
            p.daemon_cpu, p.harness_cpu
        )),
        args.seed,
        args.trials(),
        args.window().as_secs_f64(),
        rates.join(" ")
    );
}

/// Compares two gated runs of one workload against the metric bounds;
/// returns how many metrics differ by more than their bound.
fn compare_aa(first: &WorkloadReport, second: &WorkloadReport) -> usize {
    let mut exceeded = 0;
    for (def, trials) in &first.metrics {
        let (a, b) = (
            def.value(trials),
            second.value_of(def.name).unwrap_or(f64::NAN),
        );
        let MetricDef {
            name,
            unit,
            bound: Some(bound),
            ..
        } = *def
        else {
            continue;
        };
        let diff = (b - a).abs() / a.abs();
        // A missing or non-finite value never counts as within bound.
        let within = diff.is_finite() && diff <= bound;
        let verdict = if within { "ok" } else { "EXCEEDS" };
        exceeded += usize::from(!within);
        println!(
            "  {:<18} {name:<22} first={a:>14.4} second={b:>14.4} {unit:<4} diff={:.4} bound={bound:.2} {verdict}",
            first.name, diff
        );
    }
    exceeded
}

fn run(args: &Args) -> Result<bool, String> {
    let env = Env {
        binary: daemon::build_daemon()?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinning: daemon::pin_harness()?,
    };
    print_envelope(args, &env);
    if let Some(name) = &args.workload {
        let report = run_workload(args, name, args.trace, &env)?;
        report.print_ledger();
        println!("{}", report.result_json());
        return Ok(report.correct());
    }
    let mut all_ok = true;
    let mut gated = |label: &str| -> Result<Vec<WorkloadReport>, String> {
        println!("# gated run{label}");
        WORKLOAD_NAMES
            .iter()
            .map(|name| {
                let report = run_workload(args, name, false, &env)?;
                report.print_ledger();
                all_ok &= report.correct();
                Ok(report)
            })
            .collect()
    };
    if args.aa {
        let first = gated(" A1")?;
        let second = gated(" A2")?;
        println!("# A/A: the values two gated runs of the same build report, against the bounds");
        let exceeded: usize = first
            .iter()
            .zip(&second)
            .map(|(a, b)| compare_aa(a, b))
            .sum();
        println!("# A/A: {exceeded} metric(s) beyond their bound");
        return Ok(all_ok && exceeded == 0);
    }
    gated("")?;
    if !args.smoke {
        println!("# traced run (one traced trial per workload; gated numbers above are untraced)");
        for name in WORKLOAD_NAMES {
            let report = run_workload(args, name, true, &env)?;
            report.print_ledger();
            all_ok &= report.correct();
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("ftr-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ftr-benchmark: failed operations, oracle violations or exceeded bounds (see PROBLEM lines)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("ftr-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PER_LAYER, SERVED_E2E};
    use crate::stats::Trials;

    /// A JSON value, as much of one as `BENCHMARK.json` and the result
    /// line need.
    #[derive(Debug, PartialEq)]
    enum Json {
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("no key {key:?}")),
                other => panic!("not an object: {other:?}"),
            }
        }

        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }

        fn items(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                other => panic!("not an array: {other:?}"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }

        fn num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                other => panic!("not a number: {other:?}"),
            }
        }
    }

    struct Parser<'a> {
        text: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn skip_space(&mut self) {
            while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn eat(&mut self, byte: u8) {
            self.skip_space();
            assert_eq!(self.text.get(self.at), Some(&byte), "at byte {}", self.at);
            self.at += 1;
        }

        fn peek(&mut self) -> u8 {
            self.skip_space();
            self.text[self.at]
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let start = self.at;
            while self.text[self.at] != b'"' {
                assert_ne!(
                    self.text[self.at], b'\\',
                    "escapes are not used in these files"
                );
                self.at += 1;
            }
            self.at += 1;
            String::from_utf8(self.text[start..self.at - 1].to_vec()).expect("utf-8")
        }

        fn value(&mut self) -> Json {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    let mut fields = Vec::new();
                    while self.peek() != b'}' {
                        let key = self.string();
                        self.eat(b':');
                        fields.push((key, self.value()));
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b'}');
                    Json::Obj(fields)
                }
                b'[' => {
                    self.eat(b'[');
                    let mut items = Vec::new();
                    while self.peek() != b']' {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b']');
                    Json::Arr(items)
                }
                b'"' => Json::Str(self.string()),
                b't' | b'f' => {
                    let word = if self.text[self.at] == b't' {
                        "true"
                    } else {
                        "false"
                    };
                    assert!(self.text[self.at..].starts_with(word.as_bytes()));
                    self.at += word.len();
                    Json::Bool(word == "true")
                }
                _ => {
                    let start = self.at;
                    while self
                        .text
                        .get(self.at)
                        .is_some_and(|b| b"+-.eE0123456789".contains(b))
                    {
                        self.at += 1;
                    }
                    let token = std::str::from_utf8(&self.text[start..self.at]).expect("ascii");
                    Json::Num(
                        token
                            .parse()
                            .unwrap_or_else(|_| panic!("bad number {token:?}")),
                    )
                }
            }
        }
    }

    fn parse_json(text: &str) -> Json {
        let mut parser = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_space();
        assert_eq!(parser.at, text.len(), "trailing bytes");
        value
    }

    fn benchmark_json() -> Json {
        parse_json(include_str!("../../../../../BENCHMARK.json"))
    }

    fn assert_table_matches(listed: &Json, table: &[MetricDef], gated: bool) {
        let listed = listed.items();
        assert_eq!(listed.len(), table.len());
        for (entry, def) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").str(), def.name);
            assert_eq!(entry.get("unit").str(), def.unit, "{}", def.name);
            assert_eq!(entry.get("better").str(), def.better.word(), "{}", def.name);
            if gated {
                assert_eq!(entry.keys(), ["name", "unit", "better", "bound"]);
                assert_eq!(Some(entry.get("bound").num()), def.bound, "{}", def.name);
                assert!(entry.get("bound").num() <= 0.25, "{}", def.name);
            } else {
                assert_eq!(entry.keys(), ["name", "unit", "better"]);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_tables_the_harness_prints() {
        let file = benchmark_json();
        assert_eq!(
            file.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = file
            .get("workloads")
            .items()
            .iter()
            .map(|w| {
                assert_eq!(w.keys(), ["name", "why"]);
                assert!(w.get("why").str().len() <= 200);
                w.get("name").str()
            })
            .collect();
        let served: Vec<&str> = SERVED.iter().map(|w| w.name).collect();
        assert_eq!(workloads, served);
        assert_table_matches(file.get("end_to_end"), &SERVED_E2E, true);
        assert_table_matches(file.get("per_layer"), &PER_LAYER, false);
        assert_eq!(file.get("run_seconds").num(), DEFAULT_SECONDS);
        let paths: Vec<&str> = file.get("paths").items().iter().map(Json::str).collect();
        assert_eq!(paths, ["crates/bench/src/bin/ftr-benchmark"]);
        assert!(file
            .get("command")
            .items()
            .iter()
            .any(|c| c.str() == "crates/bench/src/bin/ftr-benchmark/Cargo.toml"));
    }

    /// The `key = value` lines of one table of a manifest, comments and
    /// blank lines dropped.
    fn manifest_table<'a>(manifest: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.split('#').next()?.split_once('='))
            .map(|(k, v)| (k.trim(), v.trim()))
            .collect()
    }

    /// The `path = "…"` and `package = "…"` of an inline dependency
    /// table, the path resolved against `base`.
    fn dependency(base: &str, inline: &str) -> (String, Option<String>) {
        let field = |key: &str| {
            let rest = inline.split_once(&format!("{key} = \""))?.1;
            Some(rest.split_once('"')?.0.to_string())
        };
        let mut dir: Vec<&str> = base.split('/').filter(|p| !p.is_empty()).collect();
        let path = field("path").unwrap_or_else(|| panic!("no path in {inline:?}"));
        for part in path.split('/') {
            match part {
                ".." => drop(dir.pop()),
                "." | "" => {}
                other => dir.push(other),
            }
        }
        (dir.join("/"), field("package"))
    }

    /// The benchmark is a package of its own beside being a bin of
    /// `ftr-bench`, so two manifests build these sources. This pins the
    /// second to the first: same release profile as the workspace, and
    /// only dependencies `ftr-bench` has, at the workspace's paths.
    #[test]
    fn own_manifest_builds_what_the_workspace_builds() {
        let root = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let own = include_str!("Cargo.toml");
        assert_eq!(
            manifest_table(own, "[profile.release]"),
            manifest_table(root, "[profile.release]")
        );
        let workspace = manifest_table(root, "[workspace.dependencies]");
        let bench_deps = manifest_table(bench, "[dependencies]");
        for (name, inline) in manifest_table(own, "[dependencies]") {
            let here = dependency("crates/bench/src/bin/ftr-benchmark", inline);
            if name == "ftr-bench" {
                assert_eq!(here, ("crates/bench".to_string(), None));
                continue;
            }
            assert!(
                bench_deps.iter().any(|(k, _)| *k == name),
                "{name} is not a dependency of ftr-bench"
            );
            let listed = workspace
                .iter()
                .find(|(k, _)| *k == name)
                .unwrap_or_else(|| panic!("{name} is not a workspace dependency"));
            assert_eq!(here, dependency("", listed.1), "{name}");
            assert!(!inline.contains("features"), "{name}: features differ");
        }
    }

    #[test]
    fn result_line_carries_every_listed_metric_and_nothing_else() {
        for (table, key) in [
            (&SERVED_E2E[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let mut report = WorkloadReport::new("route-hot-n24");
            report.tally.attempted = 7;
            for (i, def) in table.iter().enumerate() {
                report.push(
                    *def,
                    Trials {
                        raw: vec![1.5 + i as f64, 2.5 + i as f64, 0.5],
                    },
                );
            }
            let line = parse_json(&report.result_json());
            assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(*line.get("correct"), Json::Bool(true));
            assert_eq!(line.get("attempted").num(), 7.0);
            assert_eq!(line.get("failed").num(), 0.0);
            let file = benchmark_json();
            let listed: Vec<&str> = file
                .get(key)
                .items()
                .iter()
                .map(|m| m.get("name").str())
                .collect();
            assert_eq!(line.get("metrics").keys(), listed);
            for (i, def) in table.iter().enumerate() {
                let metric = line.get("metrics").get(def.name);
                assert_eq!(metric.keys(), ["value", "unit"]);
                use crate::spec::{Better, Summary};
                let expected = match (def.summary, def.better) {
                    (Summary::Median, _) => 1.5 + i as f64,
                    (Summary::Best, Better::Higher) => 2.5 + i as f64,
                    (Summary::Best, Better::Lower) => 0.5,
                };
                assert_eq!(metric.get("value").num(), expected, "{}", def.name);
                assert_eq!(metric.get("unit").str(), def.unit);
            }
        }
        // A failed operation or a problem makes the line incorrect.
        let mut report = WorkloadReport::new("x");
        report.tally.failed = 1;
        assert_eq!(
            *parse_json(&report.result_json()).get("correct"),
            Json::Bool(false)
        );
        let mut report = WorkloadReport::new("x");
        report.push(SERVED_E2E[0], Trials::default());
        assert!(!report.correct(), "a metric without a value is a problem");
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(String::from));
        let args =
            parse("--workload route-skew-n1024 --seed 7 --seconds 20 --trace 1").expect("parses");
        assert_eq!(args.workload.as_deref(), Some("route-skew-n1024"));
        assert_eq!((args.seed, args.trace), (7, true));
        assert_eq!(args.window(), Duration::from_secs(2));
        assert_eq!(parse("--seed 0xF7B").expect("hex").seed, DEFAULT_SEED);
        assert_eq!(
            parse("--smoke").expect("smoke").window(),
            Duration::from_millis(500)
        );
        assert_eq!(parse("--smoke").expect("smoke").trials(), 1);
        assert_eq!(
            parse("--seconds 0.5").expect("short").window(),
            Duration::from_millis(200)
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed x",
            "--aa --smoke",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
