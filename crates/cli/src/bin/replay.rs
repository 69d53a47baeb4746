//! `duel-replay` — offline capture inspection.
//!
//! Postmortem tooling over flight-recorder captures (see `.record` in
//! the `duel` REPL): summarize a capture, dump its op timeline, rank
//! the hottest memory regions, render the live `.top` view offline,
//! and run arbitrary DUEL meta-queries over the capture's telemetry —
//! all without a live debuggee.
//!
//! ```sh
//! duel-replay session.jsonl              # summary + per-op stats
//! duel-replay session.jsonl --timeline   # last 20 events
//! duel-replay session.jsonl --timeline 100
//! duel-replay session.jsonl --perfetto out.json  # Chrome trace JSON
//! duel-replay session.jsonl --top 10     # offline `.top`
//! duel-replay session.jsonl --query 'events[..nevents].lat_ns >? 1000'
//! ```

use std::fmt::Write as _;

use duel_cli::{render_top_report, Repl};
use duel_target::capture::{Capture, CaptureCall};
use duel_target::trace::{fmt_ns, TraceEvent, TraceHandle};
use duel_target::{
    chrome_trace_json, MetaCapture, MetaSnapshot, MetricsRegistry, SpanContext, SpanKind,
};

const USAGE: &str = "usage: duel-replay CAPTURE.jsonl \
                     [--timeline [N]] [--perfetto FILE] [--top [N]] [--query EXPR]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut path = None;
    let mut timeline = None;
    let mut perfetto = None;
    let mut top = None;
    let mut query = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timeline" => {
                timeline = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse::<usize>().ok())
                        .inspect(|_| i += 1)
                        .unwrap_or(20),
                );
            }
            "--top" => {
                top = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse::<usize>().ok())
                        .inspect(|_| i += 1)
                        .unwrap_or(10),
                );
            }
            "--perfetto" => {
                i += 1;
                match args.get(i) {
                    Some(f) => perfetto = Some(f.to_string()),
                    None => {
                        eprintln!("--perfetto needs a FILE\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--query" => {
                i += 1;
                match args.get(i) {
                    Some(e) => query = Some(e.to_string()),
                    None => {
                        eprintln!("--query needs an EXPR\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            a if a.starts_with('-') => {
                eprintln!("unknown flag `{a}`\n{USAGE}");
                std::process::exit(2);
            }
            a => path = Some(a.to_string()),
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let cap = match Capture::load(&path) {
        Ok(cap) => cap,
        Err(e) => {
            eprintln!("cannot load `{path}`: {e}");
            std::process::exit(1);
        }
    };

    if let Some(expr) = query {
        let (out, failed) = run_query(&cap, &expr);
        print!("{out}");
        if failed {
            std::process::exit(1);
        }
    } else if let Some(out) = perfetto {
        export_perfetto(&out, &cap);
    } else if let Some(n) = top {
        print!("{}", render_offline_top(&path, &cap, n));
    } else if let Some(n) = timeline {
        print_timeline(&cap, n);
    } else {
        print_summary(&path, &cap);
    }
}

/// Rebuilds live-telemetry shapes from a capture: a span context with
/// one `capture` root covering the recording, the events laid end to
/// end on a synthetic timeline (captures hold per-call latencies, not
/// wall-clock timestamps) and attributed to that root, a
/// [`TraceHandle`] fed through the live `TraceStats` machinery, and a
/// metrics registry charged with its per-op totals under the live
/// `wire.<op>.*` names — so the offline views and the REPL's stay one
/// code path.
fn synthesize(cap: &Capture) -> (SpanContext, Vec<TraceEvent>, TraceHandle, MetricsRegistry) {
    let spans = SpanContext::new(cap.events.len().max(1));
    spans.set_enabled(true);
    let trace = spans.begin_trace();
    let total_ns: u64 = cap.events.iter().map(|e| e.ns).sum();
    let h = &cap.header;
    let root = spans.record_closed(
        SpanKind::Root,
        "capture",
        || format!("{} / {}", h.backend, h.scenario),
        0,
        total_ns,
    );
    let handle = TraceHandle::new(cap.events.len().max(1));
    handle.set_enabled(true);
    let mut ts = 0u64;
    let events: Vec<TraceEvent> = cap
        .events
        .iter()
        .filter_map(|ev| {
            let ts_ns = ts;
            ts += ev.ns;
            // Output drains swap a host-side buffer rather than cross
            // the wire: live tracing never counts them, nor do these.
            let op = ev.call.trace_op()?;
            let detail = ev.call.detail();
            let outcome = ev.reply.outcome();
            handle.record_event(op, detail.clone(), outcome, ev.ns);
            Some(TraceEvent {
                seq: ev.seq,
                op,
                detail,
                outcome,
                nanos: ev.ns,
                ts_ns,
                trace,
                span: root,
            })
        })
        .collect();
    let metrics = MetricsRegistry::new();
    for o in &handle.snapshot().ops {
        metrics.charge_wire(o.op.name(), o.calls, o.errors, o.total_ns);
    }
    (spans, events, handle, metrics)
}

/// The offline `.top`: hottest spans (here: the one capture root),
/// wire ops, and busiest counters, rendered by the same
/// [`render_top_report`] the live view uses.
fn render_offline_top(path: &str, cap: &Capture, n: usize) -> String {
    let (spans, _, handle, metrics) = synthesize(cap);
    let stats = handle.snapshot();
    let mut out = String::new();
    let _ = writeln!(out, "top — `{path}` ({} events)", cap.events.len());
    render_top_report(
        Some(&spans.snapshot()),
        &stats,
        &metrics.snapshot(),
        n,
        &mut out,
    );
    out
}

/// The offline `.query`: builds a [`MetaSnapshot`] from the capture's
/// synthesized telemetry (plus a `capture` root symbol holding the
/// header identity) and evaluates the DUEL expression against it.
/// Returns the rendered output and whether the query failed.
fn run_query(cap: &Capture, expr: &str) -> (String, bool) {
    let (spans, events, _, metrics) = synthesize(cap);
    let wire_events = events.len() as u64;
    let snap = MetaSnapshot {
        spans: spans.snapshot(),
        events,
        metrics: metrics.snapshot(),
        capture: Some(MetaCapture {
            backend: cap.header.backend.clone(),
            scenario: cap.header.scenario.clone(),
            events: wire_events,
        }),
        ..MetaSnapshot::default()
    };
    let mut meta = snap.image();
    let (lines, err) = duel_core::oneshot_lines(&mut meta, expr, &Repl::default_options());
    let mut out = String::new();
    for l in lines {
        let _ = writeln!(out, "{l}");
    }
    if let Some(e) = &err {
        let _ = writeln!(out, "{e}");
    }
    (out, err.is_some())
}

/// Converts a capture to Chrome trace-event JSON (loadable in
/// ui.perfetto.dev); a zero-event capture still yields a valid
/// (metadata-only) document.
fn export_perfetto(out: &str, cap: &Capture) {
    let (spans, events, ..) = synthesize(cap);
    let total_ns: u64 = cap.events.iter().map(|e| e.ns).sum();
    let json = chrome_trace_json(&spans.snapshot(), &events);
    match std::fs::write(out, &json) {
        Ok(()) => {
            println!(
                "perfetto trace written to {out} ({} events, {} of recorded latency)",
                events.len(),
                fmt_ns(total_ns)
            );
        }
        Err(e) => {
            eprintln!("cannot write `{out}`: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints the last `n` wire events in the `.trace dump` format.
fn print_timeline(cap: &Capture, n: usize) {
    let (_, events, ..) = synthesize(cap);
    let skip = events.len().saturating_sub(n);
    if skip > 0 {
        println!("... {skip} earlier event(s) ...");
    }
    for ev in events.iter().skip(skip) {
        // Every synthesized event sits under the one capture span,
        // so the timeline leaves the span marker off.
        println!(
            "{}",
            TraceEvent {
                span: 0,
                ..ev.clone()
            }
            .render()
        );
    }
}

fn print_summary(path: &str, cap: &Capture) {
    let h = &cap.header;
    println!("capture: {path}");
    println!(
        "  schema v{}, backend `{}`, scenario `{}`",
        h.schema_version, h.backend, h.scenario
    );
    println!(
        "  abi: {}-bit pointers, {}-endian, {} types in snapshot{}",
        h.abi.pointer_bytes * 8,
        match h.abi.endian {
            duel_ctype::Endian::Little => "little",
            duel_ctype::Endian::Big => "big",
        },
        cap.types().kinds.len(),
        if cap.footer_types.is_some() {
            ""
        } else {
            " (no footer: capture was not finalized)"
        }
    );
    let total_ns: u64 = cap.events.iter().map(|e| e.ns).sum();
    println!(
        "  {} events, {} of recorded backend latency",
        cap.events.len(),
        fmt_ns(total_ns)
    );

    let (_, _, handle, _) = synthesize(cap);
    let stats = handle.snapshot();
    println!("\nper-op stats:");
    for o in stats.ops.iter().filter(|o| o.calls > 0) {
        println!(
            "  {:<13} {:>8} calls {:>6} errors  mean {:>8}  p99 {:>8}",
            o.op.name(),
            o.calls,
            o.errors,
            fmt_ns(o.mean_ns()),
            fmt_ns(o.quantile_ns(0.99))
        );
    }

    // Hot-address table: accesses bucketed by 64-byte line.
    const BUCKET: u64 = 64;
    let mut heat: std::collections::HashMap<u64, (u64, u64)> = std::collections::HashMap::new();
    for ev in &cap.events {
        let (addr, len) = match &ev.call {
            CaptureCall::GetBytes { addr, len } => (*addr, *len),
            CaptureCall::PutBytes { addr, data } => (*addr, data.len() as u64),
            _ => continue,
        };
        let first = addr / BUCKET;
        let last = addr.saturating_add(len.saturating_sub(1)) / BUCKET;
        for b in first..=last {
            let slot = heat.entry(b * BUCKET).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += len.min(BUCKET);
        }
    }
    let mut hot: Vec<(u64, (u64, u64))> = heat.into_iter().collect();
    hot.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
    if !hot.is_empty() {
        println!("\nhot addresses (64-byte lines):");
        for (addr, (touches, bytes)) in hot.iter().take(10) {
            println!("  0x{addr:<10x} {touches:>6} touches {bytes:>8} bytes");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duel_target::json::Json;

    fn empty_capture() -> Capture {
        Capture {
            header: duel_target::capture::CaptureHeader {
                schema_version: 1,
                backend: "sim".into(),
                scenario: "combined".into(),
                abi: duel_ctype::Abi::lp64(),
                types: duel_ctype::TypeTable::new().snapshot(),
            },
            events: Vec::new(),
            footer_types: None,
        }
    }

    fn sample_capture() -> Capture {
        let mut cap = empty_capture();
        for (i, (addr, len, ns)) in [(0x1000u64, 8u64, 400u64), (0x1040, 16, 2600)]
            .iter()
            .enumerate()
        {
            cap.events.push(duel_target::capture::CaptureEvent {
                seq: i as u64,
                call: CaptureCall::GetBytes {
                    addr: *addr,
                    len: *len,
                },
                reply: duel_target::capture::CaptureReply::Bytes(vec![0; *len as usize]),
                ns: *ns,
            });
        }
        cap
    }

    #[test]
    fn output_drains_are_not_counted_as_frames() {
        use duel_target::capture::{CaptureEvent, CaptureReply};
        let mut cap = sample_capture();
        let calls = [
            (CaptureCall::TakeOutput, CaptureReply::Output("hi".into())),
            (CaptureCall::FrameCount, CaptureReply::Count(1)),
            (CaptureCall::TakeOutput, CaptureReply::Output(String::new())),
            (CaptureCall::FrameInfo { n: 0 }, CaptureReply::Frame(None)),
        ];
        for (call, reply) in calls {
            let seq = cap.events.len() as u64;
            cap.events.push(CaptureEvent {
                seq,
                call,
                reply,
                ns: 10,
            });
        }
        let (_, events, handle, _) = synthesize(&cap);
        assert_eq!(handle.snapshot().op(duel_target::TraceOp::Frames).calls, 2);
        assert_eq!(events.len(), 4, "two reads and two frame ops");
        let (out, failed) = run_query(&cap, "capture.events");
        assert!(!failed && out.trim() == "4", "{out}");
    }

    #[test]
    fn zero_event_capture_exports_valid_perfetto_json() {
        let (spans, events, ..) = synthesize(&empty_capture());
        let json = chrome_trace_json(&spans.snapshot(), &events);
        let doc = Json::parse(&json).expect("empty-capture chrome trace must parse");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array missing in {json}");
        };
        let n = events.len();
        // The capture root span plus process/thread metadata only.
        assert!(n >= 1, "expected at least the root span, got {n}");
    }

    #[test]
    fn offline_top_shares_the_live_renderer() {
        let out = render_offline_top("x.jsonl", &sample_capture(), 10);
        assert!(out.contains("wire ops by total latency:"), "{out}");
        assert!(out.contains("get_bytes"), "{out}");
        assert!(out.contains("capture"), "{out}");
        assert!(out.contains("busiest counters:"), "{out}");
        assert!(out.contains("wire.get_bytes.calls"), "{out}");
    }

    #[test]
    fn query_counts_and_filters_capture_events() {
        let cap = sample_capture();
        let (out, failed) = run_query(&cap, "nevents");
        assert!(!failed, "{out}");
        assert!(out.contains('2'), "{out}");
        let (out, failed) = run_query(&cap, "events[..nevents].lat_ns >? 1000");
        assert!(!failed, "{out}");
        assert!(out.contains("2600"), "{out}");
        assert!(!out.contains("400"), "{out}");
        let (out, failed) = run_query(&cap, "capture.scenario");
        assert!(!failed, "{out}");
        assert!(out.contains("combined"), "{out}");
    }

    #[test]
    fn query_reports_parse_errors() {
        let (out, failed) = run_query(&sample_capture(), "][");
        assert!(failed);
        assert!(!out.is_empty());
    }
}
