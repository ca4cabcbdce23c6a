//! The `ftr-served` child process: building the binary, starting it on
//! a loopback port, reading its resource use from `/proc`, and making
//! sure it is killed and reaped however the harness leaves.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Linux reports process times in clock ticks of 1/100 s on every
/// configuration this harness runs on (`getconf CLK_TCK`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Builds `ftr-served` with the repository's release profile and
/// returns the executable's path, as cargo reports it. The harness is
/// started from the repository root (by `cargo run` or the benchmark
/// driver), so the root manifest is the one in the working directory.
pub fn build_daemon() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/serve").is_dir() {
        return Err(
            "run from the repository root: ./Cargo.toml and ./crates/serve not found".into(),
        );
    }
    let output = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "ftr-serve",
            "--bin",
            "ftr-served",
            "--message-format=json",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building ftr-served failed ({})", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    // One JSON object per line; the bin target's artifact line names the
    // executable.
    text.lines()
        .filter(|l| l.contains("\"name\":\"ftr-served\""))
        .filter_map(|l| {
            let rest = l.split_once("\"executable\":\"")?.1;
            Some(PathBuf::from(rest.split_once('"')?.0))
        })
        .next_back()
        .filter(|p| p.is_file())
        .ok_or_else(|| "cargo reported no ftr-served executable".to_string())
}

/// The CPUs daemon and harness are pinned to. Left to the scheduler, the
/// two land on one CPU or on two from run to run, and a closed loop runs
/// more than twice as fast on one (no cross-CPU wake-ups); pinning them
/// apart removes that coin toss from every metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pinning {
    pub daemon_cpu: String,
    pub harness_cpu: String,
}

/// The CPU ids of a `Cpus_allowed_list` value such as `0-1` or `2,5-7`.
fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(first.parse::<u32>().ok()?..=last.parse().ok()?);
    }
    Some(cpus)
}

/// Pins the harness (every thread it has and will start) with `taskset`
/// to the second CPU this process is allowed on, and names the first for
/// the daemons. `None` when only one CPU is allowed: then there is one
/// placement and nothing to pin. With two or more, a failure to pin is
/// an error, not a fallback: unpinned throughput is bimodal (README,
/// "Measurement notes") and the result line has no field that would say
/// which regime a number came from.
pub fn pin_harness() -> Result<Option<Pinning>, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let cpus = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .ok_or("/proc/self/status: no readable Cpus_allowed_list line")?;
    let [daemon_cpu, harness_cpu, ..] = cpus[..] else {
        return Ok(None);
    };
    let pinning = Pinning {
        daemon_cpu: daemon_cpu.to_string(),
        harness_cpu: harness_cpu.to_string(),
    };
    let pinned = Command::new("taskset")
        .args(["-a", "-cp", &pinning.harness_cpu])
        .arg(std::process::id().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success());
    if !pinned {
        return Err(format!(
            "cannot pin the harness to CPU {harness_cpu} with taskset; on a host with several \
             CPUs unpinned numbers are not comparable with pinned ones"
        ));
    }
    Ok(Some(pinning))
}

/// A running daemon. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Kept open so the daemon never blocks or fails on a closed stdout.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `ftr-served` on `graph` with one shard on an OS-chosen
    /// loopback port and waits for its `listening on` line.
    pub fn spawn(
        binary: &Path,
        graph: &str,
        scheme: &str,
        spans: bool,
        pinning: Option<&Pinning>,
    ) -> Result<Daemon, String> {
        // `taskset` execs the daemon, so the child is still the daemon;
        // if it cannot set the affinity it exits before any `listening`
        // line and the spawn fails.
        let mut command = match pinning {
            Some(pinning) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &pinning.daemon_cpu]).arg(binary);
                taskset
            }
            None => Command::new(binary),
        };
        command
            .args(["--graph", graph, "--scheme", scheme])
            .args(["--addr", "127.0.0.1:0", "--shards", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if !spans {
            command.arg("--no-spans");
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let Some(stdout) = child.stdout.take() else {
            reap(&mut child);
            return Err("daemon has no stdout pipe".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) => {
                    reap(&mut child);
                    return Err(format!("daemon exited before listening (graph {graph})"));
                }
                Ok(_) => {}
                Err(e) => {
                    reap(&mut child);
                    return Err(format!("reading daemon stdout: {e}"));
                }
            }
            if let Some((_, addr)) = line.trim_end().split_once("listening on ") {
                match addr.parse() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        reap(&mut child);
                        return Err(format!("bad listening address {addr:?}: {e}"));
                    }
                }
            }
        };
        Ok(Daemon {
            child,
            addr,
            _stdout: stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// User plus system CPU seconds consumed so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        cpu_s(&format!("/proc/{}/stat", self.pid()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        reap(&mut self.child);
    }
}

/// Kills the child if it still runs and waits for it, so no daemon
/// outlives the harness on any path.
fn reap(child: &mut Child) {
    // Errors mean the child is already gone; there is nothing to add.
    let _ = child.kill();
    let _ = child.wait();
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    parse_vm_hwm_kb(&text)
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// utime + stime of a `/proc/<pid>/stat` file, in seconds.
pub fn cpu_s(stat_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(stat_path).map_err(|e| format!("{stat_path}: {e}"))?;
    parse_cpu_ticks(&text)
        .map(|ticks| ticks / CLOCK_TICKS_PER_S)
        .ok_or_else(|| format!("{stat_path}: unexpected format"))
}

fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds of the harness process itself.
pub fn self_cpu_s() -> Result<f64, String> {
    cpu_s("/proc/self/stat")
}

/// Peak resident set size of the harness process itself, in MB.
pub fn self_peak_rss_mb() -> Result<f64, String> {
    peak_rss_mb("/proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_text() {
        let status =
            "Name:\tftr-served\nVmPeak:\t  9000 kB\nVmHWM:\t    3072 kB\nVmRSS:\t 2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(3072.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let stat =
            "4242 (ftr served) S 1 4242 4242 0 -1 4194304 150 0 0 0 37 5 0 0 20 0 4 0 100 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(42.0));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("2,5-7"), Some(vec![2, 5, 6, 7]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("x"), None);
    }

    #[test]
    fn reads_own_process() {
        assert!(self_peak_rss_mb().expect("own status") > 0.0);
        assert!(self_cpu_s().expect("own stat") >= 0.0);
    }
}
