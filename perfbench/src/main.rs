//! Session benchmark for the DUEL towers the `duel` binary ships.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_scan|remote_walk|stop_and_poke \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the shipped towers and prints the end-to-end
//! metrics, pooling worker processes it starts with `--worker 1`
//! (measure) and `--worker 2` (set up only);
//! `--trace 1` measures the shimmed mirror towers and prints the
//! per-layer metrics. Either way every command's output is checked
//! against an oracle, a human-readable report goes to stdout, and the
//! last line of stdout is one JSON object. See `perfbench/README.md`.

mod engine;
mod fidelity;
mod run;
mod shim;
mod towers;
mod workloads;

use std::fmt::Write as _;

#[global_allocator]
static ALLOC: engine::CountingAlloc = engine::CountingAlloc;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured wall time.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Worker mode: measure or set up, and print a sample for the
    /// parent process.
    pub worker: Option<run::Worker>,
}

const USAGE: &str = "usage: duel-perfbench --workload paper_scan|remote_walk|stop_and_poke \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        worker: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => a.seconds = val.parse().map_err(|_| format!("bad --seconds `{val}`"))?,
            "--worker" => {
                a.worker = match val.as_str() {
                    "1" => Some(run::Worker::Measure),
                    "2" => Some(run::Worker::SetUp),
                    _ => return Err(format!("bad --worker `{val}`")),
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{val}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !run::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// One run's result.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
    /// Commands checked.
    pub attempted: u64,
    /// Commands that failed their check.
    pub failed: u64,
    /// Whether every self-check (fidelity, transparency) passed.
    pub checks_ok: bool,
    /// The first mismatch, if any.
    pub first_failure: Option<String>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Output of a short command, or `unknown`.
fn probe_cmd(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Host, commit, seed and toolchain of this run, as one JSON object.
fn provenance(a: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu\":{},\
         \"commit\":{},\"rustc\":{}}}",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        a.trace as u8,
        nproc,
        json_str(&cpu),
        json_str(&probe_cmd("git", &["rev-parse", "HEAD"])),
        json_str(&probe_cmd("rustc", &["--version"])),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(w) = args.worker {
        print!("{}", run::work(&args, w).to_text());
        return;
    }
    println!("provenance {}", provenance(&args));
    let report = run::run(&args);
    for n in &report.notes {
        println!("{n}");
    }
    for (name, v, unit) in &report.metrics {
        println!("{name:<40} {v:>16.4} {unit}");
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "fail_ratio {fail_ratio} ({} of {} commands failed their check; self-checks {})",
        report.failed,
        report.attempted,
        if report.checks_ok { "passed" } else { "FAILED" }
    );
    if let Some(f) = &report.first_failure {
        eprintln!("first failure: {f}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(n), json_str(u))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.checks_ok,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}
