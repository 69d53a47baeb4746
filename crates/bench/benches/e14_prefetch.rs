//! E14 — what the generator-aware prefetch planner and the scan window
//! buy on the wire.
//!
//! The workload is the paper's motivating cost case: a contiguous scan
//! of a 4096-element array (`x[..4096]`), where every element crosses
//! the narrow interface as its own read. The tower puts a wire-level
//! [`duel_target::TraceTarget`] *between* the cache and a
//! latency-injected backend, so `TraceHandle::wire_turns()` (scalar
//! `get_bytes` calls plus vectored `multi_read` calls) counts exactly
//! the round-trips a remote debugger would pay.
//!
//! Each run executes three times over identical debuggees:
//!
//! * **demand**: one read per element, as a scan without windows reads
//!   — [`duel_bench::RefuseWide`] above the cache fails every window
//!   read, so the cache demand-fetches one page per miss;
//! * **planned**: `EvalOptions::prefetch` on (the planner warms the
//!   span in windowed vectored calls);
//! * **windowed**: default options (the scan reads each window of the
//!   span in one vectored call, which the cache turns into one turn).
//!
//! The run asserts byte-identical rendered output and a ≥5× wire-turn
//! reduction for both the planned and the windowed arm, then writes
//! `BENCH_prefetch.json` at the repository root.
//!
//! Not a criterion bench on purpose: the quantity of interest is the
//! wire-turn count, which criterion cannot report. Run with
//! `cargo bench --bench e14_prefetch`.

use std::time::{Duration, Instant};

use duel_bench::{try_eval_lines_with_stats, RefuseWide};
use duel_core::EvalOptions;
use duel_target::{
    CacheConfig, CachedTarget, ChaosTarget, FaultConfig, SimTarget, Target, TraceHandle,
    TraceTarget,
};

/// Per-operation latency injected below the wire trace. Kept small so
/// the bench doubles as a CI smoke test; the turn counts are what the
/// acceptance check reads, and those are latency-independent.
const LATENCY: Duration = Duration::from_micros(20);

/// Elements in the scanned array.
const ELEMENTS: u64 = 4096;

/// Cache page size: small enough that a demand-paged scan of
/// `ELEMENTS * 4` bytes costs hundreds of turns, so the planner's
/// single vectored warm-up is visible.
const PAGE_SIZE: u64 = 64;

struct Workload {
    name: &'static str,
    expr: &'static str,
    scenario: fn() -> SimTarget,
}

fn scan_scenario() -> SimTarget {
    duel_target::scenario::bench_array(ELEMENTS, 42)
}

fn filtered_scenario() -> SimTarget {
    duel_target::scenario::bench_array(ELEMENTS, 7)
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "array_scan",
        expr: "x[..4096]",
        scenario: scan_scenario,
    },
    Workload {
        name: "filtered_scan",
        expr: "x[..4096] >? 90",
        scenario: filtered_scenario,
    },
];

struct Measurement {
    lines: Vec<String>,
    wire_turns: u64,
    multi_reads: u64,
    prefetch_calls: u64,
    wall: Duration,
}

/// How one arm reads the scan.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Demand,
    Planned,
    Windowed,
}

fn run(w: &Workload, arm: Arm) -> Measurement {
    let slow = ChaosTarget::with_faults(
        (w.scenario)(),
        FaultConfig {
            latency: LATENCY,
            ..FaultConfig::default()
        },
    );
    let wire = TraceTarget::with_label(slow, "wire");
    let handle: TraceHandle = wire.handle();
    handle.set_enabled(true);
    let cached = CachedTarget::with_config(
        wire,
        CacheConfig {
            page_size: PAGE_SIZE,
            ..CacheConfig::default()
        },
    );
    let mut t: Box<dyn Target> = match arm {
        Arm::Demand => Box::new(RefuseWide(cached)),
        _ => Box::new(cached),
    };
    let opts = EvalOptions {
        prefetch: arm == Arm::Planned,
        ..EvalOptions::default()
    };
    let start = Instant::now();
    let (lines, stats) = match try_eval_lines_with_stats(&mut *t, w.expr, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("workload `{}` failed: {e}", w.name);
            (Vec::new(), Default::default())
        }
    };
    let wall = start.elapsed();
    Measurement {
        lines,
        wire_turns: handle.wire_turns(),
        multi_reads: handle.calls(duel_target::TraceOp::MultiRead),
        prefetch_calls: stats.prefetch_calls,
        wall,
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        let demand = run(w, Arm::Demand);
        let planned = run(w, Arm::Planned);
        let windowed = run(w, Arm::Windowed);
        let identical = demand.lines == planned.lines
            && demand.lines == windowed.lines
            && !demand.lines.is_empty();
        let reduction = |m: &Measurement| demand.wire_turns as f64 / m.wire_turns.max(1) as f64;
        println!(
            "{:<13} wire turns {:>5} -> {:>3} planned ({:>6.1}x), {:>3} windowed ({:>6.1}x), \
             {} vectored, {} planner warm-ups, wall {:>8.2?} -> {:>8.2?} / {:>8.2?}, \
             identical output: {identical}",
            w.name,
            demand.wire_turns,
            planned.wire_turns,
            reduction(&planned),
            windowed.wire_turns,
            reduction(&windowed),
            planned.multi_reads,
            planned.prefetch_calls,
            demand.wall,
            planned.wall,
            windowed.wall,
        );
        if !identical {
            eprintln!("FAIL: `{}` output differs across the arms", w.name);
            failed = true;
        }
        for (arm, m) in [("planned", &planned), ("windowed", &windowed)] {
            if reduction(m) < 5.0 {
                eprintln!(
                    "FAIL: `{}` {arm} wire-turn reduction {:.1}x is below the 5x target",
                    w.name,
                    reduction(m)
                );
                failed = true;
            }
        }
        if planned.prefetch_calls == 0 {
            eprintln!("FAIL: `{}` planner never fired", w.name);
            failed = true;
        }
        rows.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"expr\": {},\n      \"values\": {},\n      \
             \"demand_wire_turns\": {},\n      \"planned_wire_turns\": {},\n      \
             \"turn_reduction\": {:.2},\n      \"windowed_wire_turns\": {},\n      \
             \"windowed_turn_reduction\": {:.2},\n      \"vectored_calls\": {},\n      \
             \"prefetch_calls\": {},\n      \"demand_wall_us\": {},\n      \
             \"planned_wall_us\": {},\n      \"windowed_wall_us\": {},\n      \
             \"identical_output\": {}\n    }}",
            w.name,
            duel_target::json::quote(w.expr),
            planned.lines.len(),
            demand.wire_turns,
            planned.wire_turns,
            reduction(&planned),
            windowed.wire_turns,
            reduction(&windowed),
            planned.multi_reads,
            planned.prefetch_calls,
            demand.wall.as_micros(),
            planned.wall.as_micros(),
            windowed.wall.as_micros(),
            identical,
        ));
    }
    // Standard bench-report schema shared by every BENCH_*.json:
    // schema_version / name / config / metrics.
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e14_prefetch\",\n  \"config\": {{\n    \
         \"latency_us\": {},\n    \"page_size\": {},\n    \"elements\": {}\n  }},\n  \
         \"metrics\": {{\n  \"workloads\": [\n{}\n  ]\n  }}\n}}\n",
        LATENCY.as_micros(),
        PAGE_SIZE,
        ELEMENTS,
        rows.join(",\n")
    );
    let path = duel_bench::report_path("BENCH_prefetch.json");
    std::fs::write(&path, &json).expect("write BENCH_prefetch.json");
    println!("wrote {}", path.display());
    if failed {
        std::process::exit(1);
    }
}
