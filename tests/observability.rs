//! PR-3 observability invariants: widened `EvalStats`, the profiler's
//! attribution guarantees, and their behaviour under fault composition.

use duel_core::{ProfileReport, Session};
use duel_target::{
    scenario, CacheConfig, CachedTarget, ChaosTarget, FaultConfig, RetryPolicy, RetryTarget,
    Target, TraceTarget,
};

// ---------------------------------------------------------------------
// EvalStats widening
// ---------------------------------------------------------------------

#[test]
fn stats_reset_between_evaluations() {
    let mut t = scenario::scan_array();
    let mut s = Session::new(&mut t);
    s.eval("x[..50] >? 5").unwrap();
    let first = s.last_stats();
    assert!(first.ticks > 0);
    assert!(first.max_depth > 0);
    assert!(first.yields >= first.values);
    // A trivial follow-up command must not inherit any counter.
    s.eval("1+1").unwrap();
    let second = s.last_stats();
    assert_eq!(second.values, 1);
    assert!(second.ticks < first.ticks);
    assert_eq!(second.expansions, 0);
    assert!(second.yields < first.yields);
}

#[test]
fn expansions_count_structure_walks() {
    let mut t = scenario::hash_table_basic();
    let mut s = Session::new(&mut t);
    let lines = s.eval_lines("#/(hash[..1024]-->next)").unwrap();
    assert_eq!(lines.len(), 1);
    let stats = s.last_stats();
    assert!(stats.expansions > 0, "{stats:?}");
    // Each visited node is one expansion step; the walk visited at
    // least as many nodes as the reduction counted.
    let count: u64 = lines[0]
        .rsplit(' ')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(stats.expansions >= count, "{stats:?} vs count {count}");
}

#[test]
fn deeper_nesting_raises_max_depth() {
    let mut t = scenario::scan_array();
    let mut s = Session::new(&mut t);
    s.eval("1+1").unwrap();
    let shallow = s.last_stats().max_depth;
    s.eval("1+(2+(3+(4+(5+6))))").unwrap();
    let deep = s.last_stats().max_depth;
    assert!(deep > shallow, "{deep} vs {shallow}");
}

// ---------------------------------------------------------------------
// ProfileReport attribution
// ---------------------------------------------------------------------

fn assert_fully_attributed(report: &ProfileReport) {
    assert_eq!(
        report.attributed_ticks(),
        report.total_ticks,
        "every tick must be charged to exactly one node: {report:?}"
    );
    assert_eq!(
        report.attributed_reads(),
        report.total_reads,
        "every wire read must be charged to exactly one node: {report:?}"
    );
}

#[test]
fn profile_attributes_all_ticks_without_a_trace_layer() {
    let mut t = scenario::scan_array();
    let mut s = Session::new(&mut t);
    let (lines, err, report) = s.profile("x[..50] >? 5").unwrap();
    assert!(err.is_none());
    assert!(!lines.is_empty());
    assert_fully_attributed(&report);
    assert_eq!(report.total_ticks, s.last_stats().ticks);
    // Without a TraceTarget in the tower there is nothing to diff.
    assert_eq!(report.total_reads, 0);
    // Rows are keyed by symbolic text with the paper's operator names.
    assert!(
        report
            .nodes
            .iter()
            .any(|n| n.text == "x[..50]>?5" && n.label == "ifcmp"),
        "{report:?}"
    );
}

#[test]
fn profile_attributes_reads_through_a_traced_tower() {
    let mut t = TraceTarget::new(CachedTarget::with_config(
        scenario::scan_array(),
        CacheConfig::default(),
    ));
    let handle = t.handle();
    let mut s = Session::new(&mut t);
    let display_reads = |report: &duel::core::ProfileReport| {
        report
            .nodes
            .iter()
            .find(|n| n.label == "display")
            .expect("display pseudo-node")
            .self_reads
    };
    // The hinted scan reads its one window when the filter loads the
    // first element; every other load, rendering included, is served
    // from the window.
    let (_, err, report) = s.profile("x[..50] >? 5").unwrap();
    assert!(err.is_none());
    assert_eq!(report.total_reads, 1, "one window read: {report:?}");
    assert_fully_attributed(&report);
    assert_eq!(display_reads(&report), 0);
    // The paper's query has no range hint, so every element is its own
    // read, and the reads that render values are charged to the
    // (display) pseudo-node.
    let (_, err, report) = s.profile("x[1..4,8,12..50] >? 5 <? 10").unwrap();
    assert!(err.is_none());
    assert!(report.total_reads > 0, "the scan must touch the target");
    assert_fully_attributed(&report);
    // The ISSUE's acceptance bar, stated directly: ≥95% of reads are
    // attributed to nodes (we achieve exactly 100%).
    assert!(report.attributed_reads() * 100 >= report.total_reads * 95);
    assert!(display_reads(&report) > 0, "{report:?}");
    // Session::profile enables tracing only for its own duration.
    assert!(!handle.is_enabled());
}

#[test]
fn fault_composition_does_not_skew_counters() {
    // Clean run.
    let mut clean = TraceTarget::new(scenario::scan_array());
    let mut s = Session::new(&mut clean);
    let (clean_lines, err, clean_report) = s.profile("x[..50] >? 5").unwrap();
    assert!(err.is_none());

    // Same query through a transiently failing backend healed by
    // retry: identical output, identical tick accounting — transient
    // faults are absorbed below the evaluator, so they must not leak
    // into its counters.
    let flaky = RetryTarget::with_policy(
        ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(3)),
        RetryPolicy::fast(5),
    );
    let mut flaky = TraceTarget::new(flaky);
    let mut s = Session::new(&mut flaky);
    let (flaky_lines, err, flaky_report) = s.profile("x[..50] >? 5").unwrap();
    assert!(err.is_none());

    assert_eq!(clean_lines, flaky_lines);
    assert_eq!(clean_report.total_ticks, flaky_report.total_ticks);
    assert_fully_attributed(&flaky_report);
    // Per-node tick charges line up too (reads may differ: the trace
    // layer sits above retry here, so it sees the same successful
    // calls either way, but we only require ticks to be identical).
    for (c, f) in clean_report.nodes.iter().zip(flaky_report.nodes.iter()) {
        assert_eq!(c.text, f.text);
        assert_eq!(c.self_ticks, f.self_ticks, "node {}", c.text);
        assert_eq!(c.resumptions, f.resumptions, "node {}", c.text);
    }
}

#[test]
fn profile_stays_balanced_across_evaluation_errors() {
    let mut t = scenario::scan_array();
    let mut s = Session::new(&mut t);
    s.options.max_values = 5;
    let (lines, err, report) = s.profile("x[..50]").unwrap();
    assert!(err.is_some(), "the value limit must trip");
    assert_eq!(lines.len(), 5);
    // Even with the evaluation aborted mid-stream, every opened span
    // closed and the accounting still partitions the tick total.
    assert_fully_attributed(&report);
}

#[test]
fn hottest_orders_by_self_ticks() {
    let mut t = scenario::scan_array();
    let mut s = Session::new(&mut t);
    let (_, _, report) = s.profile("x[..50] >? 5").unwrap();
    let hot = report.hottest();
    for pair in hot.windows(2) {
        assert!(pair[0].self_ticks >= pair[1].self_ticks);
    }
    let table = report.render_table(5);
    assert!(table.contains("attributed: 100.0% of ticks"), "{table}");
}

// ---------------------------------------------------------------------
// Tower discovery
// ---------------------------------------------------------------------

#[test]
fn trace_handle_is_discoverable_through_the_full_tower() {
    let t = TraceTarget::new(RetryTarget::with_policy(
        CachedTarget::with_config(scenario::scan_array(), CacheConfig::default()),
        RetryPolicy::fast(2),
    ));
    let outer = t.handle();
    let via_trait: &dyn Target = &t;
    let found = via_trait.trace_handle().expect("handle through dyn Target");
    found.set_enabled(true);
    assert!(outer.is_enabled(), "both must alias the same counters");
}

// ---------------------------------------------------------------------
// PR-8: causal span tracing
// ---------------------------------------------------------------------

use duel_target::{attribution_coverage, SpanKind};

/// Builds the standard traced tower and runs one span-traced eval.
fn traced_eval(expr: &str) -> duel_target::TraceTarget<CachedTarget<duel_target::SimTarget>> {
    let t = TraceTarget::new(CachedTarget::with_config(
        scenario::scan_array(),
        CacheConfig::default(),
    ));
    t.handle().set_enabled(true);
    t.spans().set_enabled(true);
    let mut t = t;
    let mut s = Session::new(&mut t);
    s.eval(expr).unwrap();
    t
}

#[test]
fn spans_attribute_every_wire_event_through_the_tower() {
    let t = traced_eval("x[..50] >? 5");
    let snap = t.spans().snapshot();
    let events = t.handle().recent_events(usize::MAX);
    let (ok, total) = attribution_coverage(&snap, &events);
    assert!(total > 0, "the scan must touch the wire");
    assert_eq!(ok, total, "every event must chain to the eval root");
    assert!(snap.open.is_empty(), "span stack balanced after eval");
    // The chain shape is eval → node*|display → wire op: every memory
    // read is caused either by a generator (Node span) or by value
    // rendering (Display span, the profiler's display pseudo-node).
    // Symbol and type lookups fire during *parsing* and attribute
    // straight to the eval root — there is no generator running yet.
    for e in events
        .iter()
        .filter(|e| matches!(e.op.name(), "get_bytes" | "get_bytes_multi"))
    {
        let chain = snap.ancestry(e.span).unwrap();
        assert!(
            chain
                .iter()
                .any(|r| matches!(r.kind, SpanKind::Node | SpanKind::Display)),
            "event {e:?} skipped the evaluator"
        );
    }
}

/// The reset audit (ISSUE-8 satellite): `.trace clear` and backend
/// swaps must drop counters, histograms, the event ring, and the span
/// ring *together* — a clear that leaves old latency buckets behind
/// would silently skew every later percentile.
#[test]
fn clear_leaves_no_stale_latency_buckets_or_spans() {
    let t = traced_eval("x[..50] >? 5");
    let before = t.handle().snapshot();
    assert!(before.total_calls() > 0);
    assert!(
        before.ops.iter().any(|o| o.hist.iter().any(|&b| b > 0)),
        "expected hot latency buckets before the clear"
    );
    assert!(!t.spans().snapshot().spans.is_empty());

    t.handle().clear();
    t.spans().clear();

    let after = t.handle().snapshot();
    assert_eq!(after.total_calls(), 0);
    assert_eq!(after.events_held, 0);
    for o in &after.ops {
        assert!(
            o.hist.iter().all(|&b| b == 0),
            "stale latency buckets survived the clear for {}",
            o.op.name()
        );
        assert_eq!((o.calls, o.errors, o.total_ns), (0, 0, 0));
    }
    let spans = t.spans().snapshot();
    assert!(spans.spans.is_empty() && spans.open.is_empty());
    assert_eq!(spans.dropped, 0);
    // Enablement is state, not statistics: a clear must not turn
    // collection off.
    assert!(t.handle().is_enabled());
    assert!(t.spans().is_enabled());
}

/// Profiling and span tracing are one seam (`TraceGen`): every node
/// the profiler charges must appear as a `Node` span with the same
/// operator label, because both views fold the same enter/exit stream.
#[test]
fn profile_nodes_and_node_spans_agree() {
    let mut t = TraceTarget::new(CachedTarget::with_config(
        scenario::scan_array(),
        CacheConfig::default(),
    ));
    t.spans().set_enabled(true);
    let spans = t.spans();
    let mut s = Session::new(&mut t);
    let (_, err, report) = s.profile("x[..50] >? 5").unwrap();
    assert!(err.is_none());
    let snap = spans.snapshot();
    for node in report.nodes.iter().filter(|n| n.label != "display") {
        assert!(
            snap.spans
                .iter()
                .any(|r| r.kind == SpanKind::Node && r.name == node.label),
            "profiled node `{}` ({}) has no Node span",
            node.text,
            node.label
        );
    }
    // The display pseudo-node maps to the Display span kind.
    assert!(snap.spans.iter().any(|r| r.kind == SpanKind::Display));
}

// ---------------------------------------------------------------------
// Self-hosted introspection: `.query` vs the fixed views
// ---------------------------------------------------------------------

/// Runs lines through a fresh REPL and returns the combined output.
fn repl_run(r: &mut duel_cli::Repl, line: &str) -> String {
    let mut out = String::new();
    r.handle(line, &mut out);
    out
}

/// The meta-query differential: the counter table `.top` renders and
/// the span aggregates it derives must byte-agree with the same
/// numbers read back through `.query` over the synthetic meta image.
#[test]
fn meta_queries_agree_with_the_top_table() {
    let mut r = duel_cli::Repl::new();
    repl_run(&mut r, ".trace on");
    repl_run(&mut r, ".trace spans on");
    repl_run(&mut r, "x[..20] >? 5");
    repl_run(&mut r, "hash[..10].scope");

    // Rebuild the counter table from two meta-queries...
    let names = repl_run(&mut r, ".query counters[..ncounters].name");
    let values = repl_run(&mut r, ".query counters[..ncounters].value");
    let mut table: Vec<(String, u64)> = Vec::new();
    for (n, v) in names.lines().zip(values.lines()) {
        let name = n
            .split(" = ")
            .nth(1)
            .and_then(|s| s.strip_prefix('"'))
            .and_then(|s| s.strip_suffix('"'))
            .unwrap_or_else(|| panic!("unexpected name line `{n}`"));
        let value: u64 = v
            .split(" = ")
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unexpected value line `{v}`"));
        table.push((name.to_string(), value));
    }
    // ...and it must equal the registry snapshot `.top` renders from,
    // byte for byte.
    let snap = r.meta_snapshot();
    assert_eq!(table, snap.metrics.counters);

    // Every counter row `.top` actually prints appears in the
    // query-derived table with the same value.
    let top = repl_run(&mut r, ".top");
    // `.top` itself must not perturb the comparison below.
    let in_counters = top
        .lines()
        .skip_while(|l| !l.contains("busiest counters:"))
        .skip(1)
        .take_while(|l| l.starts_with("    "));
    let mut rows = 0;
    for line in in_counters {
        let mut it = line.split_whitespace();
        let (Some(name), Some(value)) = (it.next(), it.next()) else {
            panic!("unparseable .top counter row `{line}`");
        };
        let v: u64 = value.parse().expect("counter value");
        assert_eq!(
            table.iter().find(|(n, _)| n == name).map(|(_, x)| *x),
            Some(v),
            ".top row `{line}` disagrees with the meta-query table"
        );
        rows += 1;
    }
    assert!(rows > 0, "no counter rows in .top output:\n{top}");

    // Span aggregates: total count and total exclusive time derived
    // by `.query` equal the ring snapshot's aggregation inputs.
    let count = repl_run(&mut r, ".query #/(spans[..nspans].id)");
    let n: usize = count.trim().parse().expect("span count");
    assert_eq!(n, snap.spans.spans.len() + snap.spans.open.len());

    let self_sum = repl_run(&mut r, ".query +/(spans[..nspans].self_ns)");
    let q: u64 = self_sum.trim().parse().expect("self_ns sum");
    let agg: u64 = snap.spans.aggregate().iter().map(|a| a.self_ns).sum();
    assert_eq!(q, agg, "exclusive-time attribution diverged");
}

/// Every JSON export escapes every string it emits: a capture whose
/// header names a scenario with a newline and a control character
/// replays into `.stats json`, `--trace-json` and Perfetto documents
/// that the strict parser (raw control characters rejected) accepts,
/// with the label intact.
#[test]
fn json_exports_escape_control_characters_in_labels() {
    use duel_target::json::Json;
    use duel_target::{RecordTarget, SharedSink};
    let label = "comb\nined\u{1}";
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(scenario::combined());
    rec.start(Box::new(sink.clone()), "sim", label).unwrap();
    Session::new(&mut rec).eval_lines("x[..3]").unwrap();
    rec.stop().unwrap();
    let path = std::env::temp_dir().join(format!("duel-json-labels-{}.jsonl", std::process::id()));
    std::fs::write(&path, sink.contents()).unwrap();

    let mut r = duel_cli::Repl::new();
    for line in [".trace on", ".trace spans on"] {
        repl_run(&mut r, line);
    }
    let replayed = repl_run(&mut r, &format!(".replay {}", path.display()));
    std::fs::remove_file(&path).ok();
    assert!(!replayed.contains("cannot"), "{replayed}");
    assert!(repl_run(&mut r, "x[..3]").contains("x[2] = "));
    let stats = repl_run(&mut r, ".stats json");
    for text in [stats.trim_end(), &r.trace_json()] {
        assert!(
            !text.contains(char::is_control),
            "raw control character in {text:?}"
        );
        let doc = Json::parse(text).expect("the export parses");
        let scenario = doc.get("config").and_then(|c| c.get("scenario"));
        assert_eq!(scenario.and_then(Json::as_str), Some(label));
    }
    Json::parse(&r.perfetto_json()).expect("perfetto_json parses");
}
