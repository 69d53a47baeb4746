//! E13 — the cost of backend supervision, and how fast it recovers.
//!
//! Two questions about [`duel_target::SupervisedTarget`]:
//!
//! 1. **Closed-circuit overhead.** When the backend is healthy the
//!    supervisor is a counter bump and an enum compare per operation.
//!    Every workload runs through two towers over the same simulated
//!    debuggee — `Retry<Cached<Sim>>` (the pre-supervision stack) and
//!    `Supervised<Retry<Cached<Sim>>>` — measured **interleaved** with
//!    the per-config minimum over all rounds compared, so scheduler
//!    noise cannot charge a phantom overhead to either side. The run
//!    asserts identical output and overhead under 3%.
//!
//! 2. **MTTR.** A chaos gate kills the wire mid-session; the run
//!    drives evaluations until the breaker trips (circuit `open`),
//!    revives the gate, and times how long the supervisor takes to
//!    reconnect, resync, and produce output byte-identical to the
//!    pre-kill run. Recovery goes through the half-open probe path, so
//!    `reconnects >= 1` in the stats is evidence the full
//!    open → half-open → closed transition ran.
//!
//! Writes `BENCH_supervise.json` (`schema_version` / `name` /
//! `config` / `metrics`, like every other bench report) at the
//! repository root and exits non-zero on any failed assertion. Run
//! with `cargo bench --bench e13_supervise`.

use std::time::{Duration, Instant};

use duel_bench::try_eval_lines;
use duel_core::EvalOptions;
use duel_target::{
    CacheConfig, CachedTarget, ChaosTarget, CircuitState, RetryPolicy, RetryTarget, SimTarget,
    SupervisedTarget, SupervisorConfig, Target,
};

/// Evaluations per timed measurement (amortizes tower construction).
const REPS: usize = 8;
/// Interleaved measurement rounds; the minimum per config is reported.
const ROUNDS: usize = 25;
/// The 3% acceptance ceiling for closed-circuit supervision overhead.
const MAX_OVERHEAD_PCT: f64 = 3.0;
/// Give up on the trip/recovery loops after this many evaluations.
const MAX_DRIVE_EVALS: usize = 32;

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

/// One timed measurement: build the tower fresh (cold cache for both
/// configs alike), evaluate the expression `REPS` times, return the
/// wall time and the rendered output of the last rep.
fn measure(w: &Workload, supervised: bool) -> (Duration, Vec<String>) {
    let retry = RetryTarget::new(CachedTarget::with_config(
        (w.scenario)(),
        CacheConfig::default(),
    ));
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
    if supervised {
        let mut t = SupervisedTarget::new(retry);
        let start = Instant::now();
        let lines = run_reps(&mut t);
        (start.elapsed(), lines)
    } else {
        let mut t = retry;
        let start = Instant::now();
        let lines = run_reps(&mut t);
        (start.elapsed(), lines)
    }
}

struct Row {
    name: &'static str,
    expr: &'static str,
    baseline_us: u128,
    supervised_us: u128,
    overhead_pct: f64,
    identical: bool,
}

struct Recovery {
    evals_to_trip: usize,
    time_to_trip_us: u128,
    mttr_us: u128,
    trips: u64,
    reconnects: u64,
    identical: bool,
    closed_again: bool,
}

/// The MTTR experiment: kill the wire, drive the breaker open, revive,
/// and time the road back to byte-identical output.
fn measure_recovery() -> Recovery {
    // No retry sleeps and a zero cooldown: the numbers then measure
    // the supervisor's own detection + resync path, not configured
    // waiting time.
    let policy = RetryPolicy {
        sleep: false,
        ..RetryPolicy::default()
    };
    let chaos = ChaosTarget::new(scan_scenario());
    let handle = chaos.handle();
    let mut cached = CachedTarget::with_config(chaos, CacheConfig::default());
    // Every read must touch the wire, or the cache would hide the
    // outage from the breaker.
    cached.set_enabled(false);
    let mut t = SupervisedTarget::with_config(
        RetryTarget::with_policy(cached, policy),
        SupervisorConfig::fast(3),
    );
    let opts = EvalOptions::default();
    let expr = WORKLOADS[0].expr;
    let clean = try_eval_lines(&mut t, expr, &opts).expect("healthy eval");

    handle.kill();
    let killed = Instant::now();
    let mut evals_to_trip = 0;
    while t.state() != CircuitState::Open && evals_to_trip < MAX_DRIVE_EVALS {
        let _ = try_eval_lines(&mut t, expr, &opts);
        evals_to_trip += 1;
    }
    let time_to_trip = killed.elapsed();

    handle.revive();
    let revived = Instant::now();
    let mut recovered = Vec::new();
    for _ in 0..MAX_DRIVE_EVALS {
        if let Ok(lines) = try_eval_lines(&mut t, expr, &opts) {
            if lines == clean {
                recovered = lines;
                break;
            }
        }
    }
    let mttr = revived.elapsed();
    let stats = t.stats();
    Recovery {
        evals_to_trip,
        time_to_trip_us: time_to_trip.as_micros(),
        mttr_us: mttr.as_micros(),
        trips: stats.trips,
        reconnects: stats.reconnects,
        identical: recovered == clean && !clean.is_empty(),
        closed_again: t.state() == CircuitState::Closed,
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        let mut best = [Duration::MAX; 2];
        let mut outputs: [Vec<String>; 2] = Default::default();
        for _ in 0..ROUNDS {
            for (i, supervised) in [false, true].into_iter().enumerate() {
                let (wall, lines) = measure(w, supervised);
                best[i] = best[i].min(wall);
                outputs[i] = lines;
            }
        }
        let identical = outputs[0] == outputs[1] && !outputs[0].is_empty();
        let overhead_pct =
            100.0 * (best[1].as_secs_f64() - best[0].as_secs_f64()) / best[0].as_secs_f64();
        println!(
            "{:<11} baseline {:>9.2?}  supervised {:>9.2?} ({overhead_pct:>+5.1}%)  \
             identical output: {identical}",
            w.name, best[0], best[1],
        );
        if !identical {
            eprintln!("FAIL: `{}` output differs under supervision", w.name);
            failed = true;
        }
        if overhead_pct >= MAX_OVERHEAD_PCT {
            eprintln!(
                "FAIL: `{}` closed-circuit overhead {overhead_pct:.1}% exceeds the \
                 {MAX_OVERHEAD_PCT}% ceiling",
                w.name
            );
            failed = true;
        }
        rows.push(Row {
            name: w.name,
            expr: w.expr,
            baseline_us: best[0].as_micros(),
            supervised_us: best[1].as_micros(),
            overhead_pct,
            identical,
        });
    }

    let rec = measure_recovery();
    println!(
        "recovery    tripped after {} evals ({} us), MTTR {} us, {} trip(s), \
         {} reconnect(s), identical output: {}, circuit closed: {}",
        rec.evals_to_trip,
        rec.time_to_trip_us,
        rec.mttr_us,
        rec.trips,
        rec.reconnects,
        rec.identical,
        rec.closed_again,
    );
    if rec.trips == 0 || rec.reconnects == 0 {
        eprintln!("FAIL: recovery run never tripped or never reconnected");
        failed = true;
    }
    if !rec.identical {
        eprintln!("FAIL: post-resync output is not byte-identical");
        failed = true;
    }
    if !rec.closed_again {
        eprintln!("FAIL: circuit did not return to closed after revival");
        failed = true;
    }

    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"expr\": {},\n      \
                 \"baseline_us\": {},\n      \"supervised_us\": {},\n      \
                 \"overhead_pct\": {:.2},\n      \"identical_output\": {}\n    }}",
                r.name,
                json_str(r.expr),
                r.baseline_us,
                r.supervised_us,
                r.overhead_pct,
                r.identical,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e13_supervise\",\n  \"config\": {{\n    \
         \"reps\": {REPS},\n    \"rounds\": {ROUNDS},\n    \"max_overhead_pct\": \
         {MAX_OVERHEAD_PCT}\n  }},\n  \"metrics\": {{\n  \"workloads\": [\n{}\n  ],\n  \
         \"recovery\": {{\n    \"evals_to_trip\": {},\n    \"time_to_trip_us\": {},\n    \
         \"mttr_us\": {},\n    \"trips\": {},\n    \"reconnects\": {},\n    \
         \"identical_output\": {},\n    \"circuit_closed\": {}\n  }}\n  }}\n}}\n",
        row_json.join(",\n"),
        rec.evals_to_trip,
        rec.time_to_trip_us,
        rec.mttr_us,
        rec.trips,
        rec.reconnects,
        rec.identical,
        rec.closed_again,
    );
    let path = duel_bench::report_path("BENCH_supervise.json");
    std::fs::write(&path, &json).expect("write BENCH_supervise.json");
    println!("wrote {}", path.display());
    if failed {
        std::process::exit(1);
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
