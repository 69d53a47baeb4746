//! E10 — the cost of crossing the narrow interface, and what the
//! [`duel_target::CachedTarget`] decorator buys back.
//!
//! Every workload runs twice over the *same* latency-injected debuggee
//! (a [`duel_target::ChaosTarget`] gate adding a fixed per-operation delay,
//! the shape of a gdb/MI round-trip): once through a disabled cache
//! (pure pass-through, still counting backend traffic) and once
//! through an enabled one. The run asserts that the rendered output is
//! identical and that the cached path issues at least 5× fewer backend
//! `get_bytes` calls, then writes the counters to `BENCH_cache.json`
//! at the repository root. Beside the reads it reports the `is_mapped`
//! queries that reached the backend (`*_mapped_probes`): each is a wire
//! turn of its own that `backend_reads` does not count. The cache
//! answers them with the page fills the following reads need, so a
//! cached pointer walk sends next to none. The cached hash walk also
//! runs the evaluator's wavefront reads (a `-->` over a ranged root
//! reads its root slots and chains in vectored batches), and the run
//! asserts that its backend reads stay within
//! [`HASH_WALK_MAX_CACHED_READS`].
//!
//! Not a criterion bench on purpose: the quantity of interest is the
//! *backend call count* from `CacheStats`, which criterion cannot
//! report. Run with `cargo bench --bench e10_cache`.

use std::time::{Duration, Instant};

use duel_bench::try_eval_lines;
use duel_core::EvalOptions;
use duel_target::{CacheConfig, CachedTarget, ChaosTarget, FaultConfig, SimTarget};

/// Per-operation latency injected into the backend. Kept small so the
/// bench doubles as a CI smoke test; the *call counts* are what the
/// acceptance check reads, and those are latency-independent.
const LATENCY: Duration = Duration::from_micros(20);

/// Ceiling on the cached hash walk's backend reads. The demand walk
/// filled the 1,024 root slots' 128 pages one read at a time (140
/// reads); the wavefront reads them, and the few chains, in a handful
/// of vectored batches (14 reads).
const HASH_WALK_MAX_CACHED_READS: u64 = 20;

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

struct Measurement {
    lines: Vec<String>,
    backend_reads: u64,
    wire_bytes: u64,
    lookup_misses: u64,
    mapped_probes: u64,
    wall: Duration,
}

fn run(w: &Workload, cached: bool) -> Measurement {
    let slow = ChaosTarget::with_faults(
        (w.scenario)(),
        FaultConfig {
            latency: LATENCY,
            ..FaultConfig::default()
        },
    );
    let cfg = if cached {
        CacheConfig::default()
    } else {
        CacheConfig::disabled()
    };
    let mut t = CachedTarget::with_config(slow, cfg);
    let opts = EvalOptions::default();
    let start = Instant::now();
    let lines = match try_eval_lines(&mut t, w.expr, &opts) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("workload `{}` failed: {e}", w.name);
            Vec::new()
        }
    };
    let wall = start.elapsed();
    let s = t.stats();
    Measurement {
        lines,
        backend_reads: s.backend_reads,
        wire_bytes: s.wire_bytes,
        lookup_misses: s.lookup_misses,
        mapped_probes: s.mapped_probes,
        wall,
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        let uncached = run(w, false);
        let cached = run(w, true);
        let identical = uncached.lines == cached.lines && !uncached.lines.is_empty();
        let reduction = uncached.backend_reads as f64 / cached.backend_reads.max(1) as f64;
        println!(
            "{:<11} backend reads {:>6} -> {:>4}  ({reduction:>5.1}x), is_mapped probes {:>5} -> {:>3}, \
             wire bytes {:>7} -> {:>6}, wall {:>7.2?} -> {:>7.2?}, identical output: {identical}",
            w.name,
            uncached.backend_reads,
            cached.backend_reads,
            uncached.mapped_probes,
            cached.mapped_probes,
            uncached.wire_bytes,
            cached.wire_bytes,
            uncached.wall,
            cached.wall,
        );
        if !identical {
            eprintln!("FAIL: `{}` output differs under caching", w.name);
            failed = true;
        }
        if w.name == "hash_walk" && cached.backend_reads > HASH_WALK_MAX_CACHED_READS {
            eprintln!(
                "FAIL: `{}` took {} cached backend reads, above the {} ceiling",
                w.name, cached.backend_reads, HASH_WALK_MAX_CACHED_READS
            );
            failed = true;
        }
        if reduction < 5.0 {
            eprintln!(
                "FAIL: `{}` backend-read reduction {reduction:.1}x is below the 5x target",
                w.name
            );
            failed = true;
        }
        rows.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"expr\": {},\n      \"values\": {},\n      \
             \"uncached_backend_reads\": {},\n      \"cached_backend_reads\": {},\n      \
             \"read_reduction\": {:.2},\n      \"uncached_wire_bytes\": {},\n      \
             \"cached_wire_bytes\": {},\n      \"cached_lookup_misses\": {},\n      \
             \"uncached_wall_us\": {},\n      \"cached_wall_us\": {},\n      \
             \"identical_output\": {},\n      \"uncached_mapped_probes\": {},\n      \
             \"cached_mapped_probes\": {}\n    }}",
            w.name,
            json_str(w.expr),
            cached.lines.len(),
            uncached.backend_reads,
            cached.backend_reads,
            reduction,
            uncached.wire_bytes,
            cached.wire_bytes,
            cached.lookup_misses,
            uncached.wall.as_micros(),
            cached.wall.as_micros(),
            identical,
            uncached.mapped_probes,
            cached.mapped_probes,
        ));
    }
    // Standard bench-report schema shared by every BENCH_*.json:
    // schema_version / name / config / metrics.
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e10_cache\",\n  \"config\": {{\n    \
         \"latency_us\": {},\n    \"page_size\": {},\n    \"max_pages\": {}\n  }},\n  \
         \"metrics\": {{\n  \"workloads\": [\n{}\n  ]\n  }}\n}}\n",
        LATENCY.as_micros(),
        CacheConfig::default().page_size,
        CacheConfig::default().max_pages,
        rows.join(",\n")
    );
    let path = duel_bench::report_path("BENCH_cache.json");
    std::fs::write(&path, &json).expect("write BENCH_cache.json");
    println!("wrote {}", path.display());
    if failed {
        std::process::exit(1);
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
