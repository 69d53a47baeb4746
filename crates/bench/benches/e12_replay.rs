//! E12 — flight-recorder fidelity and replay cost.
//!
//! Each workload (the E2 scan plus the E10 traversal set) runs once
//! *live* through the production tower with the recorder armed below
//! the cache (`CachedTarget<RecordTarget<SimTarget>>`), producing a
//! finalized JSONL capture. The same expression is then evaluated over
//! a **strict** [`duel_target::ReplayTarget`] built from that capture,
//! behind an identically configured cold cache, with no live debuggee
//! anywhere in the process.
//!
//! The run asserts, per workload, that (a) the replayed output is
//! byte-identical to the live output, (b) replay finished with zero
//! divergence, and (c) every recorded event was consumed — i.e. the
//! capture is exactly sufficient, neither hollow nor padded. It then
//! reports min-of-rounds wall time for live vs replayed evaluation and
//! writes everything to `BENCH_replay.json` at the repository root in
//! the standard schema_version/name/config/metrics envelope.
//!
//! Not a criterion bench on purpose: the quantities of interest are
//! the fidelity booleans and the capture geometry (events, bytes),
//! which criterion cannot report. Run with `cargo bench --bench
//! e12_replay`.

use std::time::{Duration, Instant};

use duel_bench::try_eval_lines;
use duel_core::EvalOptions;
use duel_target::{
    CacheConfig, CachedTarget, Capture, RecordTarget, ReplayMode, ReplayTarget, SharedSink,
    SimTarget,
};

const ROUNDS: u32 = 5;

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
        name: "e2_scan",
        expr: "x[..256] >? 0",
        scenario: scan_scenario,
    },
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

struct Outcome {
    live_lines: Vec<String>,
    replay_lines: Vec<String>,
    events: usize,
    events_consumed: usize,
    capture_bytes: usize,
    divergence: Option<String>,
    live_ns: u128,
    replay_ns: u128,
}

/// Records one live evaluation of the workload through the production
/// tower shape and returns (rendered lines, finalized capture text).
fn record(w: &Workload) -> (Vec<String>, String) {
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new((w.scenario)());
    rec.start(Box::new(sink.clone()), "sim", w.name)
        .expect("arm recorder");
    let mut t = CachedTarget::with_config(rec, CacheConfig::default());
    let opts = EvalOptions::default();
    let lines = try_eval_lines(&mut t, w.expr, &opts).expect("live eval");
    t.inner_mut().stop().expect("finalize capture");
    (lines, sink.contents())
}

fn run(w: &Workload) -> Outcome {
    let (live_lines, text) = record(w);
    let cap = Capture::parse(&text).expect("parse capture");
    let opts = EvalOptions::default();

    // Fidelity pass: one strict replay through an identically
    // configured cold cache, checked for divergence and exhaustion.
    let mut t = CachedTarget::with_config(
        ReplayTarget::from_capture(cap.clone(), ReplayMode::Strict),
        CacheConfig::default(),
    );
    let replay_lines = try_eval_lines(&mut t, w.expr, &opts).unwrap_or_default();
    let r = t.inner();
    let events_consumed = r.events_consumed();
    let divergence = r.divergence().map(|d| d.render());

    // Timing passes: min-of-rounds for the live path (no recorder, so
    // the comparison isolates replay cost, not capture cost) vs the
    // replayed path.
    let mut live_ns = u128::MAX;
    for _ in 0..ROUNDS {
        let mut t = CachedTarget::with_config((w.scenario)(), CacheConfig::default());
        let start = Instant::now();
        let _ = try_eval_lines(&mut t, w.expr, &opts);
        live_ns = live_ns.min(start.elapsed().as_nanos());
    }
    let mut replay_ns = u128::MAX;
    for _ in 0..ROUNDS {
        let mut t = CachedTarget::with_config(
            ReplayTarget::from_capture(cap.clone(), ReplayMode::Strict),
            CacheConfig::default(),
        );
        let start = Instant::now();
        let _ = try_eval_lines(&mut t, w.expr, &opts);
        replay_ns = replay_ns.min(start.elapsed().as_nanos());
    }

    Outcome {
        live_lines,
        replay_lines,
        events: cap.events.len(),
        events_consumed,
        capture_bytes: text.len(),
        divergence,
        live_ns,
        replay_ns,
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        let o = run(w);
        let identical = o.live_lines == o.replay_lines && !o.live_lines.is_empty();
        let consumed_all = o.events_consumed == o.events;
        println!(
            "{:<11} {:>5} events {:>8} bytes, live {:>9.2?} vs replay {:>9.2?}, \
             identical: {identical}, consumed {}/{}",
            w.name,
            o.events,
            o.capture_bytes,
            Duration::from_nanos(o.live_ns as u64),
            Duration::from_nanos(o.replay_ns as u64),
            o.events_consumed,
            o.events,
        );
        if !identical {
            eprintln!(
                "FAIL: `{}` replayed output differs from live output",
                w.name
            );
            failed = true;
        }
        if let Some(d) = &o.divergence {
            eprintln!("FAIL: `{}` strict replay diverged: {d}", w.name);
            failed = true;
        }
        if !consumed_all {
            eprintln!(
                "FAIL: `{}` replay consumed {}/{} recorded events",
                w.name, o.events_consumed, o.events
            );
            failed = true;
        }
        rows.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"expr\": {},\n      \"values\": {},\n      \
             \"capture_events\": {},\n      \"capture_bytes\": {},\n      \
             \"events_consumed\": {},\n      \"live_ns\": {},\n      \"replay_ns\": {},\n      \
             \"identical_output\": {},\n      \"diverged\": {}\n    }}",
            w.name,
            json_str(w.expr),
            o.live_lines.len(),
            o.events,
            o.capture_bytes,
            o.events_consumed,
            o.live_ns,
            o.replay_ns,
            identical,
            o.divergence.is_some(),
        ));
    }
    // Standard bench-report schema shared by every BENCH_*.json:
    // schema_version / name / config / metrics.
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e12_replay\",\n  \"config\": {{\n    \
         \"rounds\": {ROUNDS},\n    \"mode\": \"strict\",\n    \"capture_schema_version\": {}\n  \
         }},\n  \"metrics\": {{\n  \"workloads\": [\n{}\n  ]\n  }}\n}}\n",
        duel_target::capture::CAPTURE_SCHEMA_VERSION,
        rows.join(",\n")
    );
    let path = duel_bench::report_path("BENCH_replay.json");
    std::fs::write(&path, &json).expect("write BENCH_replay.json");
    println!("wrote {}", path.display());
    if failed {
        std::process::exit(1);
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
