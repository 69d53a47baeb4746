//! E16 — self-hosted introspection: the meta-target's three promises.
//!
//! `.query` turns the debugger's own telemetry into a first-class
//! debuggee (a simulated one, [`duel_target::MetaSnapshot::image`]). This bench
//! pins the three properties the design rests on:
//!
//! 1. **Agreement** — aggregating `events`/`spans`/`counters` with
//!    DUEL reductions returns numbers *byte-identical* to the fixed
//!    views (`.top`'s per-op totals, `.trace dump`'s event list) taken
//!    from the same snapshot. The meta image is the same data, not a
//!    parallel bookkeeping path that can drift.
//! 2. **Speed** — freezing a full 4096-span ring into a meta image and
//!    running an aggregate query over it completes in well under 50 ms
//!    (min over interleaved rounds), so `.query` is usable as a live
//!    debugging reflex, not a report generator.
//! 3. **Isolation** — meta-queries perturb neither the debuggee's
//!    evaluation output nor the wire-op counters they inspect: the
//!    snapshot is a copy served from process memory.
//!
//! Writes `BENCH_meta.json` (shared `schema_version` / `name` /
//! `config` / `metrics` envelope) at the repository root. Run with
//! `cargo bench -p duel-bench --bench e16_meta`.

use std::time::{Duration, Instant};

use duel_cli::Repl;
use duel_core::oneshot_lines;
use duel_target::trace::TRACE_OPS;
use duel_target::{MetaSnapshot, SpanContext, SpanKind};

/// Interleaved timing rounds for the 4096-span measurement.
const ROUNDS: usize = 25;
/// Spans frozen into the timed meta image.
const RING_SPANS: usize = 4096;
/// The acceptance ceiling for snapshot + query of that ring.
const MAX_QUERY_MS: f64 = 50.0;

/// Runs one REPL line and returns its output.
fn run(r: &mut Repl, line: &str) -> String {
    let mut out = String::new();
    r.handle(line, &mut out);
    out
}

/// Runs a `.query` that yields one scalar and parses it.
fn scalar(r: &mut Repl, expr: &str) -> u64 {
    let out = run(r, &format!(".query {expr}"));
    out.trim()
        .parse()
        .unwrap_or_else(|_| panic!("`.query {expr}` did not yield a scalar:\n{out}"))
}

/// Extracts the `= value` column of a field-projection query.
fn column(r: &mut Repl, expr: &str) -> Vec<u64> {
    let out = run(r, &format!(".query {expr}"));
    out.lines()
        .map(|l| {
            l.split(" = ")
                .nth(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("unparseable line `{l}` from `.query {expr}`"))
        })
        .collect()
}

/// Promise 1: DUEL aggregates over the meta image byte-agree with the
/// fixed views' numbers on the same snapshot.
fn check_agreement(failed: &mut bool) -> (usize, usize) {
    let mut r = Repl::new();
    run(&mut r, ".set trace_buf 65536"); // ring == totals: nothing drops
    run(&mut r, ".trace on");
    run(&mut r, ".trace spans on");
    // The E2-style workload: scans, a filtered scan, a pointer walk.
    run(&mut r, "x[..200] >? 5 <? 120");
    run(&mut r, "#/(hash[..1024]-->next)");
    run(&mut r, "head-->next->value");

    let trace = r.trace_handle().snapshot();
    assert_eq!(trace.events_dropped, 0, "ring must hold every event");
    let ring = r.trace_handle().recent_events(usize::MAX);
    let mut ops_checked = 0;

    // Per-op totals: `.top`'s table aggregates `calls` and `total_ns`
    // per op; the same numbers must fall out of counting/summing the
    // meta image's event array filtered by op_code.
    for (code, op) in TRACE_OPS.iter().enumerate() {
        let Some(stats) = trace.ops.iter().find(|o| o.op == *op) else {
            continue;
        };
        if stats.calls == 0 {
            continue;
        }
        let count = scalar(
            &mut r,
            &format!("#/(events[..nevents].(if (op_code == {code}) seq))"),
        );
        let ns = scalar(
            &mut r,
            &format!("+/(events[..nevents].(if (op_code == {code}) lat_ns))"),
        );
        if count != stats.calls || ns != stats.total_ns {
            eprintln!(
                "FAIL: op `{}` meta-query ({count} calls, {ns} ns) != trace stats \
                 ({} calls, {} ns)",
                op.name(),
                stats.calls,
                stats.total_ns
            );
            *failed = true;
        }
        ops_checked += 1;
    }
    if ops_checked == 0 {
        eprintln!("FAIL: workload generated no per-op stats to compare");
        *failed = true;
    }

    // `.trace dump` equivalence: the event list the fixed view renders
    // is exactly the meta image's event array — same seq, same latency,
    // in the same order.
    let seqs = column(&mut r, "events[..nevents].seq");
    let lats = column(&mut r, "events[..nevents].lat_ns");
    let ring_seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
    let ring_lats: Vec<u64> = ring.iter().map(|e| e.nanos).collect();
    if seqs != ring_seqs || lats != ring_lats {
        eprintln!(
            "FAIL: meta event array diverges from the ring ({} vs {} events)",
            seqs.len(),
            ring_seqs.len()
        );
        *failed = true;
    }

    // Counter table: the registry snapshot `.top` renders from.
    let values = column(&mut r, "counters[..ncounters].value");
    let expected: Vec<u64> = r
        .meta_snapshot()
        .metrics
        .counters
        .iter()
        .map(|(_, v)| *v)
        .collect();
    if values != expected {
        eprintln!("FAIL: meta counter values diverge from the registry snapshot");
        *failed = true;
    }

    // Span aggregation inputs: count and total exclusive time.
    let snap = r.meta_snapshot();
    let n = scalar(&mut r, "#/(spans[..nspans].id)") as usize;
    let self_sum = scalar(&mut r, "+/(spans[..nspans].self_ns)");
    let agg_sum: u64 = snap.spans.aggregate().iter().map(|a| a.self_ns).sum();
    if n != snap.spans.spans.len() + snap.spans.open.len() || self_sum != agg_sum {
        eprintln!("FAIL: span aggregates diverge (count {n}, self {self_sum} vs agg {agg_sum})");
        *failed = true;
    }

    (ops_checked, ring.len())
}

/// Promise 2: snapshot + meta image + aggregate query over a full
/// 4096-span ring, timed. Returns the per-round minimum.
fn time_ring_query(failed: &mut bool) -> Duration {
    let ctx = SpanContext::new(RING_SPANS * 2);
    ctx.set_enabled(true);
    ctx.begin_trace();
    const NAMES: [&str; 4] = ["index", "fill", "ifcmp", "display"];
    for i in 0..RING_SPANS {
        ctx.record_closed(
            SpanKind::Node,
            NAMES[i % NAMES.len()],
            || "x[i]".into(),
            i as u64 * 100,
            50 + (i as u64 % 97),
        );
    }
    let opts = Repl::default_options();
    let mut best = Duration::MAX;
    let mut checked = false;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let snap = MetaSnapshot {
            spans: ctx.snapshot(),
            ..MetaSnapshot::default()
        };
        let mut meta = snap.image();
        let (count, err1) = oneshot_lines(&mut meta, "#/(spans[..nspans].id)", &opts);
        let (total, err2) = oneshot_lines(&mut meta, "+/(spans[..nspans].dur_ns)", &opts);
        best = best.min(start.elapsed());
        if !checked {
            checked = true;
            assert!(err1.is_none() && err2.is_none(), "{err1:?} {err2:?}");
            let n: usize = count[0].trim().parse().expect("span count");
            if n != RING_SPANS {
                eprintln!("FAIL: ring query saw {n} spans, expected {RING_SPANS}");
                *failed = true;
            }
            let sum: u64 = total[0].trim().parse().expect("dur sum");
            let expected: u64 = (0..RING_SPANS as u64).map(|i| 50 + (i % 97)).sum();
            if sum != expected {
                eprintln!("FAIL: ring query summed {sum}, expected {expected}");
                *failed = true;
            }
        }
    }
    if best.as_secs_f64() * 1000.0 >= MAX_QUERY_MS {
        eprintln!(
            "FAIL: snapshot+query of a {RING_SPANS}-span ring took {best:?} \
             (ceiling {MAX_QUERY_MS} ms)"
        );
        *failed = true;
    }
    best
}

/// Promise 3: meta-queries are invisible to the debuggee and to the
/// telemetry they read.
fn check_isolation(failed: &mut bool) -> (u64, bool) {
    let mut r = Repl::new();
    run(&mut r, ".trace on");
    let expr = "x[1..4,8,12..50] >? 5 <? 10";
    let before_out = run(&mut r, expr);
    let wire_before = r.trace_handle().snapshot().total_calls();
    let counters_before = r.metrics().snapshot().counters;

    for q in [
        "counters[..ncounters].value",
        "events[..nevents].lat_ns >? 0",
        "+/(events[..nevents].lat_ns)",
        "cache.page_hits",
        "breaker.state",
    ] {
        run(&mut r, &format!(".query {q}"));
    }

    let wire_after = r.trace_handle().snapshot().total_calls();
    let counters_after = r.metrics().snapshot().counters;
    let clean = wire_after == wire_before && counters_after == counters_before;
    if !clean {
        eprintln!("FAIL: meta-queries touched the tower (wire {wire_before} -> {wire_after})");
        *failed = true;
    }
    let after_out = run(&mut r, expr);
    if after_out != before_out {
        eprintln!(
            "FAIL: debuggee output changed across meta-queries:\n{before_out}\nvs\n{after_out}"
        );
        *failed = true;
    }
    (wire_after - wire_before, clean)
}

fn main() {
    let mut failed = false;
    let (ops_checked, ring_events) = check_agreement(&mut failed);
    let ring_best = time_ring_query(&mut failed);
    let (wire_delta, isolated) = check_isolation(&mut failed);

    println!(
        "agreement: {ops_checked} ops byte-identical over {ring_events} ring events; \
         4096-span snapshot+query min {ring_best:?}; isolation: wire delta {wire_delta}, \
         clean {isolated}"
    );

    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e16_meta\",\n  \"config\": {{\n    \
         \"rounds\": {ROUNDS},\n    \"ring_spans\": {RING_SPANS},\n    \
         \"max_query_ms\": {MAX_QUERY_MS}\n  }},\n  \"metrics\": {{\n  \"workloads\": [\n    \
         {{\n      \"name\": \"agreement\",\n      \"ops_checked\": {ops_checked},\n      \
         \"ring_events\": {ring_events},\n      \"identical\": {}\n    }},\n    \
         {{\n      \"name\": \"ring_query\",\n      \"spans\": {RING_SPANS},\n      \
         \"best_us\": {}\n    }},\n    \
         {{\n      \"name\": \"isolation\",\n      \"wire_delta\": {wire_delta},\n      \
         \"clean\": {isolated}\n    }}\n  ]\n  }}\n}}\n",
        !failed,
        ring_best.as_micros()
    );
    let path = duel_bench::report_path("BENCH_meta.json");
    std::fs::write(&path, &json).expect("write BENCH_meta.json");
    println!("wrote {}", path.display());
    if failed {
        std::process::exit(1);
    }
}
