//! E15 — the cost and correctness of causal span tracing.
//!
//! PR-8 threads a [`duel_target::SpanContext`] from the evaluator down
//! the whole decorator tower, so every wire event can be attributed to
//! the AST node that caused it. The promise mirrors E11's: when span
//! tracing is *disabled*, the plumbing must be near-free (one relaxed
//! atomic load per would-be span), and when it is *enabled*, every
//! traced wire event must carry a valid ancestor chain back to the
//! `eval` root span. Three towers over the same simulated debuggee:
//!
//! * `baseline`  — `CachedTarget<SimTarget>` (no trace layer; the
//!   evaluator sees no span context at all);
//! * `spans_off` — `TraceTarget<CachedTarget<SimTarget>>` with both
//!   wire tracing and span tracing disabled;
//! * `spans_on`  — the same tower fully enabled (informational
//!   timing, plus the attribution assertions).
//!
//! Configurations are measured **interleaved** (baseline, off, on,
//! repeat) and the per-config minimum over all rounds is compared, so
//! one-off scheduler noise cannot charge a phantom overhead to either
//! side. The run asserts byte-identical rendered output across all
//! three towers, a `spans_off` overhead under 5%, that enabled runs
//! recorded spans, and that 100% of traced wire events resolve through
//! live parent spans to an `eval` root; it then writes
//! `BENCH_spans.json` (same schema as `BENCH_trace.json`:
//! `schema_version` / `name` / `config` / `metrics`) at the repository
//! root. Run with `cargo bench --bench e15_spans`.

use std::time::{Duration, Instant};

use duel_bench::try_eval_lines;
use duel_core::EvalOptions;
use duel_target::{
    attribution_coverage, CacheConfig, CachedTarget, SimTarget, SpanKind, Target, TraceTarget,
};

/// Evaluations per timed measurement (amortizes tower construction).
const REPS: usize = 8;
/// Interleaved measurement rounds; the minimum per config is reported.
const ROUNDS: usize = 25;
/// The 5% acceptance ceiling for disabled-span overhead.
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
    SpansOff,
    SpansOn,
}

/// Per-measurement attribution evidence from an enabled run.
#[derive(Default)]
struct Evidence {
    spans_recorded: usize,
    events_attributed: usize,
    events_total: usize,
    eval_roots: usize,
}

/// One timed measurement: build the tower fresh (cold cache for every
/// config alike), evaluate the expression `REPS` times, return the
/// wall time, the rendered output of the last rep, and (for enabled
/// runs) the attribution evidence.
fn measure(w: &Workload, config: Config) -> (Duration, Vec<String>, Evidence) {
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
            (start.elapsed(), lines, Evidence::default())
        }
        Config::SpansOff | Config::SpansOn => {
            let mut t = TraceTarget::with_label(cached, "session");
            let on = config == Config::SpansOn;
            t.handle().set_enabled(on);
            t.spans().set_enabled(on);
            if on {
                // Attribution coverage is guaranteed for events whose
                // spans are still buffered, so size both rings to hold
                // the whole measured window (REPS evaluations) without
                // wrapping — exactly what `.set trace_buf` does live.
                t.handle().set_capacity(1 << 16);
                t.spans().set_capacity(1 << 16);
            }
            let start = Instant::now();
            let lines = run_reps(&mut t);
            let wall = start.elapsed();
            let mut ev = Evidence::default();
            if on {
                let snap = t.spans().snapshot();
                let events = t.handle().recent_events(usize::MAX);
                let (ok, total) = attribution_coverage(&snap, &events);
                assert_eq!(snap.dropped, 0, "span ring must not wrap mid-measurement");
                ev.spans_recorded = snap.spans.len();
                ev.events_attributed = ok;
                ev.events_total = total;
                ev.eval_roots = snap
                    .spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Root)
                    .count();
            }
            (wall, lines, ev)
        }
    }
}

struct Row {
    name: &'static str,
    expr: &'static str,
    baseline_us: u128,
    spans_off_us: u128,
    spans_on_us: u128,
    overhead_pct: f64,
    spans_recorded: usize,
    events_attributed: usize,
    events_total: usize,
    identical: bool,
}

fn main() {
    let mut rows = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        let mut best = [Duration::MAX; 3];
        let mut outputs: [Vec<String>; 3] = Default::default();
        let mut evidence = Evidence::default();
        for _ in 0..ROUNDS {
            for (i, config) in [Config::Baseline, Config::SpansOff, Config::SpansOn]
                .into_iter()
                .enumerate()
            {
                let (wall, lines, ev) = measure(w, config);
                best[i] = best[i].min(wall);
                outputs[i] = lines;
                if ev.events_total > 0 || ev.spans_recorded > 0 {
                    evidence = ev;
                }
            }
        }
        let identical =
            outputs[0] == outputs[1] && outputs[1] == outputs[2] && !outputs[0].is_empty();
        let overhead_pct =
            100.0 * (best[1].as_secs_f64() - best[0].as_secs_f64()) / best[0].as_secs_f64();
        println!(
            "{:<11} baseline {:>9.2?}  spans-off {:>9.2?} ({overhead_pct:>+5.1}%)  \
             spans-on {:>9.2?}  {} spans, {}/{} events attributed, identical output: {identical}",
            w.name,
            best[0],
            best[1],
            best[2],
            evidence.spans_recorded,
            evidence.events_attributed,
            evidence.events_total,
        );
        if !identical {
            eprintln!("FAIL: `{}` output differs across towers", w.name);
            failed = true;
        }
        if evidence.spans_recorded == 0 {
            eprintln!("FAIL: `{}` enabled span tracing recorded nothing", w.name);
            failed = true;
        }
        if evidence.eval_roots == 0 {
            eprintln!("FAIL: `{}` recorded no `eval` root span", w.name);
            failed = true;
        }
        if evidence.events_total == 0 || evidence.events_attributed != evidence.events_total {
            eprintln!(
                "FAIL: `{}` attribution coverage {}/{} — every traced wire event must \
                 chain to an eval root",
                w.name, evidence.events_attributed, evidence.events_total
            );
            failed = true;
        }
        if overhead_pct >= MAX_OVERHEAD_PCT {
            eprintln!(
                "FAIL: `{}` disabled-span overhead {overhead_pct:.1}% exceeds the \
                 {MAX_OVERHEAD_PCT}% ceiling",
                w.name
            );
            failed = true;
        }
        rows.push(Row {
            name: w.name,
            expr: w.expr,
            baseline_us: best[0].as_micros(),
            spans_off_us: best[1].as_micros(),
            spans_on_us: best[2].as_micros(),
            overhead_pct,
            spans_recorded: evidence.spans_recorded,
            events_attributed: evidence.events_attributed,
            events_total: evidence.events_total,
            identical,
        });
    }
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"expr\": {},\n      \
                 \"baseline_us\": {},\n      \"spans_off_us\": {},\n      \
                 \"spans_on_us\": {},\n      \"overhead_pct\": {:.2},\n      \
                 \"spans_recorded\": {},\n      \"events_attributed\": {},\n      \
                 \"events_total\": {},\n      \"identical_output\": {}\n    }}",
                r.name,
                json_str(r.expr),
                r.baseline_us,
                r.spans_off_us,
                r.spans_on_us,
                r.overhead_pct,
                r.spans_recorded,
                r.events_attributed,
                r.events_total,
                r.identical,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e15_spans\",\n  \"config\": {{\n    \
         \"reps\": {REPS},\n    \"rounds\": {ROUNDS},\n    \"max_overhead_pct\": \
         {MAX_OVERHEAD_PCT}\n  }},\n  \"metrics\": {{\n  \"workloads\": [\n{}\n  ]\n  }}\n}}\n",
        row_json.join(",\n")
    );
    let path = duel_bench::report_path("BENCH_spans.json");
    std::fs::write(&path, &json).expect("write BENCH_spans.json");
    println!("wrote {}", path.display());
    if failed {
        std::process::exit(1);
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
