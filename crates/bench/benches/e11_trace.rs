//! E11 — the cost of the observability layer.
//!
//! The [`duel_target::TraceTarget`] decorator promises to be free when
//! disabled: its fast path is a single relaxed atomic load before
//! delegating. This bench measures that promise. Every E10 workload
//! runs through three towers over the same simulated debuggee:
//!
//! * `baseline`   — `CachedTarget<SimTarget>` (the PR-2 stack);
//! * `traced_off` — `TraceTarget<CachedTarget<SimTarget>>`, disabled;
//! * `traced_on`  — the same tower with recording enabled
//!   (informational: the price of actually collecting).
//!
//! Configurations are measured **interleaved** (baseline, off, on,
//! repeat) and the per-config minimum over all rounds is compared, so
//! one-off scheduler noise cannot charge a phantom overhead to either
//! side. The run asserts that the three towers render identical
//! output, that enabled tracing actually recorded calls, and that the
//! disabled-tracing overhead stays under 5%; it then writes
//! `BENCH_trace.json` (same schema as `BENCH_cache.json`:
//! `schema_version` / `name` / `config` / `metrics`) at the repository
//! root. Run with `cargo bench --bench e11_trace`.

use std::time::{Duration, Instant};

use duel_bench::try_eval_lines;
use duel_core::EvalOptions;
use duel_target::{CacheConfig, CachedTarget, SimTarget, Target, TraceTarget};

/// Evaluations per timed measurement (amortizes tower construction).
const REPS: usize = 8;
/// Interleaved measurement rounds; the minimum per config is reported.
const ROUNDS: usize = 25;
/// The 5% acceptance ceiling for disabled-tracing overhead.
const MAX_OVERHEAD_PCT: f64 = 5.0;

struct Workload {
    name: &'static str,
    expr: &'static str,
    scenario: fn() -> SimTarget,
}

fn scan_scenario() -> SimTarget {
    duel_target::scenario::bench_array(256, 42)
}

fn list_scenario() -> SimTarget {
    duel_target::scenario::bench_list(128, 7)
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "array_scan",
        expr: "x[..256] >? 5 <? 10",
        scenario: scan_scenario,
    },
    Workload {
        name: "list_walk",
        expr: "head-->next->value",
        scenario: list_scenario,
    },
    Workload {
        name: "hash_walk",
        expr: "#/(hash[..1024]-->next)",
        scenario: duel_target::scenario::hash_table_basic,
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Config {
    Baseline,
    TracedOff,
    TracedOn,
}

/// One timed measurement: build the tower fresh (cold cache for every
/// config alike), evaluate the expression `REPS` times, return the
/// wall time, the rendered output of the last rep, and how many target
/// calls the trace recorded.
fn measure(w: &Workload, config: Config) -> (Duration, Vec<String>, u64) {
    let cached = CachedTarget::with_config((w.scenario)(), CacheConfig::default());
    let opts = EvalOptions::default();
    let run_reps = |t: &mut dyn Target| -> Vec<String> {
        let mut lines = Vec::new();
        for _ in 0..REPS {
            lines = match try_eval_lines(t, w.expr, &opts) {
                Ok(lines) => lines,
                Err(e) => {
                    eprintln!("workload `{}` failed: {e}", w.name);
                    Vec::new()
                }
            };
        }
        lines
    };
    match config {
        Config::Baseline => {
            let mut t = cached;
            let start = Instant::now();
            let lines = run_reps(&mut t);
            (start.elapsed(), lines, 0)
        }
        Config::TracedOff | Config::TracedOn => {
            let mut t = TraceTarget::with_label(cached, "session");
            t.handle().set_enabled(config == Config::TracedOn);
            let start = Instant::now();
            let lines = run_reps(&mut t);
            let wall = start.elapsed();
            let calls = t.handle().snapshot().total_calls();
            (wall, lines, calls)
        }
    }
}

struct Row {
    name: &'static str,
    expr: &'static str,
    baseline_us: u128,
    traced_off_us: u128,
    traced_on_us: u128,
    overhead_pct: f64,
    calls_recorded: u64,
    identical: bool,
}

fn main() {
    let mut rows = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        let mut best = [Duration::MAX; 3];
        let mut outputs: [Vec<String>; 3] = Default::default();
        let mut calls_recorded = 0;
        for _ in 0..ROUNDS {
            for (i, config) in [Config::Baseline, Config::TracedOff, Config::TracedOn]
                .into_iter()
                .enumerate()
            {
                let (wall, lines, calls) = measure(w, config);
                best[i] = best[i].min(wall);
                outputs[i] = lines;
                calls_recorded = calls_recorded.max(calls);
            }
        }
        let identical =
            outputs[0] == outputs[1] && outputs[1] == outputs[2] && !outputs[0].is_empty();
        let overhead_pct =
            100.0 * (best[1].as_secs_f64() - best[0].as_secs_f64()) / best[0].as_secs_f64();
        println!(
            "{:<11} baseline {:>9.2?}  traced-off {:>9.2?} ({overhead_pct:>+5.1}%)  \
             traced-on {:>9.2?}  {calls_recorded:>6} calls recorded, identical output: {identical}",
            w.name, best[0], best[1], best[2],
        );
        if !identical {
            eprintln!("FAIL: `{}` output differs across towers", w.name);
            failed = true;
        }
        if calls_recorded == 0 {
            eprintln!("FAIL: `{}` enabled tracing recorded nothing", w.name);
            failed = true;
        }
        if overhead_pct >= MAX_OVERHEAD_PCT {
            eprintln!(
                "FAIL: `{}` disabled-tracing overhead {overhead_pct:.1}% exceeds the \
                 {MAX_OVERHEAD_PCT}% ceiling",
                w.name
            );
            failed = true;
        }
        rows.push(Row {
            name: w.name,
            expr: w.expr,
            baseline_us: best[0].as_micros(),
            traced_off_us: best[1].as_micros(),
            traced_on_us: best[2].as_micros(),
            overhead_pct,
            calls_recorded,
            identical,
        });
    }
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"expr\": {},\n      \
                 \"baseline_us\": {},\n      \"traced_off_us\": {},\n      \
                 \"traced_on_us\": {},\n      \"overhead_pct\": {:.2},\n      \
                 \"calls_recorded\": {},\n      \"identical_output\": {}\n    }}",
                r.name,
                duel_target::json::quote(r.expr),
                r.baseline_us,
                r.traced_off_us,
                r.traced_on_us,
                r.overhead_pct,
                r.calls_recorded,
                r.identical,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e11_trace\",\n  \"config\": {{\n    \
         \"reps\": {REPS},\n    \"rounds\": {ROUNDS},\n    \"max_overhead_pct\": \
         {MAX_OVERHEAD_PCT}\n  }},\n  \"metrics\": {{\n  \"workloads\": [\n{}\n  ]\n  }}\n}}\n",
        row_json.join(",\n")
    );
    let path = duel_bench::report_path("BENCH_trace.json");
    std::fs::write(&path, &json).expect("write BENCH_trace.json");
    println!("wrote {}", path.display());
    if failed {
        std::process::exit(1);
    }
}
