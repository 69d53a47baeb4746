//! Flight-recorder invariants: capturing a session at the `Target`
//! seam and replaying it — strictly (byte-identical, symbolic
//! divergence reports) or permissively (new expressions over the
//! frozen recorded state) — plus capture behaviour under fault
//! injection and a capture taken over the gdb/MI wire.

use duel::core::Session;
use duel::gdbmi::{MiTarget, MockGdb};
use duel::target::capture::CaptureCall;
use duel::target::json::Json;
use duel::target::{
    scenario, CacheConfig, CachedTarget, Capture, ChaosTarget, FaultConfig, RecordTarget,
    ReplayMode, ReplayTarget, RetryPolicy, RetryTarget, SharedSink, SimTarget, Target, TargetError,
    TraceOutcome,
};
use proptest::prelude::*;

/// Evaluates `exprs` through the production tower shape with the
/// recorder armed below the cache; returns the rendered output of each
/// expression and the finalized capture text.
fn record_session(sim: SimTarget, label: &str, exprs: &[&str]) -> (Vec<Vec<String>>, String) {
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(sim);
    rec.start(Box::new(sink.clone()), "sim", label).unwrap();
    let mut t = CachedTarget::with_config(rec, CacheConfig::default());
    let mut outs = Vec::new();
    {
        let mut s = Session::new(&mut t);
        for e in exprs {
            outs.push(s.eval_lines(e).unwrap_or_else(|err| vec![err.to_string()]));
        }
    }
    t.inner_mut().stop().unwrap();
    (outs, sink.contents())
}

/// Replays `exprs` strictly over the capture, behind an identically
/// configured cold cache. Returns the outputs plus (consumed, total,
/// divergence) from the replay layer.
#[allow(clippy::type_complexity)]
fn replay_session(text: &str, exprs: &[&str]) -> (Vec<Vec<String>>, usize, usize, Option<String>) {
    let cap = Capture::parse(text).expect("parse capture");
    let mut t = CachedTarget::with_config(
        ReplayTarget::from_capture(cap, ReplayMode::Strict),
        CacheConfig::default(),
    );
    let mut outs = Vec::new();
    {
        let mut s = Session::new(&mut t);
        for e in exprs {
            outs.push(s.eval_lines(e).unwrap_or_else(|err| vec![err.to_string()]));
        }
    }
    let r = t.inner();
    (
        outs,
        r.events_consumed(),
        r.events_total(),
        r.divergence().map(|d| d.render()),
    )
}

// ---------------------------------------------------------------------
// Strict replay fidelity
// ---------------------------------------------------------------------

#[test]
fn strict_replay_of_a_combined_session_is_byte_identical() {
    // A spread of the paper's worked examples, with one expression
    // evaluated twice: the second run is served from the page cache,
    // so the capture (recorded *below* the cache) must still contain
    // everything a cold replay tower needs.
    let exprs = [
        "x[1..4,8,12..50] >? 5 <? 10",
        "#/(hash[..1024]-->next)",
        "head-->next->value",
        "root-->(left,right)->key",
        "x[1..4,8,12..50] >? 5 <? 10",
    ];
    let (live, text) = record_session(scenario::combined(), "combined", &exprs);
    let (replayed, consumed, total, divergence) = replay_session(&text, &exprs);
    assert_eq!(live, replayed, "replayed output must be byte-identical");
    assert_eq!(divergence, None);
    assert_eq!(consumed, total, "the capture is exactly sufficient");
    assert!(total > 0, "the capture must not be hollow");
}

#[test]
fn strict_replay_of_a_vectored_prefetch_session_is_byte_identical() {
    // With the planner on, the contiguous scans below are warmed by a
    // single vectored call; the cache coalesces it into one inner
    // `get_bytes_multi`, which the recorder captures as a `multi_read`
    // event. Strict replay behind an identically configured cold cache
    // with the same options must re-issue the exact same sequence.
    let exprs = ["x[..60]", "x[3..18] >? 5"];
    let opts = duel::core::EvalOptions {
        prefetch: true,
        ..duel::core::EvalOptions::default()
    };
    let cfg = CacheConfig {
        page_size: 16,
        ..CacheConfig::default()
    };

    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(scenario::scan_array());
    rec.start(Box::new(sink.clone()), "sim", "vectored")
        .unwrap();
    let mut t = CachedTarget::with_config(rec, cfg.clone());
    let mut live = Vec::new();
    {
        let mut s = Session::with_options(&mut t, opts.clone());
        for e in &exprs {
            live.push(s.eval_lines(e).unwrap());
        }
    }
    t.inner_mut().stop().unwrap();
    let text = sink.contents();

    let cap = Capture::parse(&text).unwrap();
    assert!(
        cap.events
            .iter()
            .any(|ev| matches!(ev.call, duel::target::CaptureCall::MultiRead { .. })),
        "the capture must contain the planner's vectored read"
    );

    let mut rt =
        CachedTarget::with_config(ReplayTarget::from_capture(cap, ReplayMode::Strict), cfg);
    let mut replayed = Vec::new();
    {
        let mut s = Session::with_options(&mut rt, opts);
        for e in &exprs {
            replayed.push(s.eval_lines(e).unwrap());
        }
    }
    let r = rt.inner();
    assert_eq!(live, replayed, "replayed output must be byte-identical");
    assert!(
        r.divergence().is_none(),
        "vectored session must replay with zero divergence: {:?}",
        r.divergence().map(|d| d.render())
    );
    assert_eq!(r.events_consumed(), r.events_total());
}

#[test]
fn capture_has_versioned_header_and_footer() {
    let (_, text) = record_session(scenario::scan_array(), "scan", &["x[..10]"]);
    let cap = Capture::parse(&text).unwrap();
    assert_eq!(
        cap.header.schema_version,
        duel::target::CAPTURE_SCHEMA_VERSION,
        "fresh captures are written at the current schema"
    );
    assert_eq!(cap.header.backend, "sim");
    assert_eq!(cap.header.scenario, "scan");
    assert!(
        cap.footer_types.is_some(),
        "stop() must finalize the capture with a footer"
    );
    // Sequence numbers are dense and ordered.
    for (i, ev) in cap.events.iter().enumerate() {
        assert_eq!(ev.seq, i as u64);
    }
}

#[test]
fn footer_counts_frames_without_output_drains() {
    // Every produced value drains program output, a host-side buffer
    // swap that live tracing never counts. The footer's `frames` total
    // must count only the frame_count + frame_info events.
    let mut sim = scenario::scan_array();
    sim.core.push_frame("main");
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(sim);
    rec.start(Box::new(sink.clone()), "sim", "scan").unwrap();
    Session::new(&mut rec).eval_lines("x[..10]").unwrap();
    rec.frame_count();
    rec.frame_info(0);
    rec.frame_info(3);
    rec.stop().unwrap();
    let text = sink.contents();
    let cap = Capture::parse(&text).unwrap();
    let count = |f: fn(&CaptureCall) -> bool| cap.events.iter().filter(|e| f(&e.call)).count();
    let drains = count(|c| matches!(c, CaptureCall::TakeOutput));
    let frames = count(|c| matches!(c, CaptureCall::FrameCount | CaptureCall::FrameInfo { .. }));
    assert!(drains > 0, "the session drained no output:\n{text}");
    assert!(frames >= 3, "{text}");
    let footer = Json::parse(text.lines().last().unwrap()).unwrap();
    let ops = footer.get("metrics").and_then(|m| m.get("ops")).unwrap();
    assert_eq!(
        ops.get("frames").and_then(Json::as_u64),
        Some(frames as u64)
    );
}

// ---------------------------------------------------------------------
// Divergence reporting
// ---------------------------------------------------------------------

#[test]
fn strict_replay_reports_symbolic_divergence_and_sticks() {
    // Record two raw interface calls.
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(scenario::scan_array());
    rec.start(Box::new(sink.clone()), "sim", "scan").unwrap();
    let x = rec.get_variable("x").expect("x exists");
    let mut buf = [0u8; 4];
    rec.get_bytes(x.addr, &mut buf).unwrap();
    rec.stop().unwrap();

    let cap = Capture::parse(&sink.contents()).unwrap();
    let mut r = ReplayTarget::from_capture(cap, ReplayMode::Strict);
    // First call matches the recording.
    let x2 = r.get_variable("x").expect("replayed lookup");
    assert_eq!(x2.addr, x.addr);
    // Second call diverges: different address than recorded.
    let mut buf2 = [0u8; 4];
    let err = r.get_bytes(x.addr + 0x999, &mut buf2).unwrap_err();
    match &err {
        TargetError::ReplayDivergence { at, expected, got } => {
            assert_eq!(*at, 1, "divergence at the second recorded event");
            assert!(expected.contains("get_bytes"), "{expected}");
            assert!(got.contains("get_bytes"), "{got}");
            assert_ne!(expected, got);
        }
        other => panic!("expected ReplayDivergence, got {other:?}"),
    }
    assert!(err.is_fault(), "divergence is a fault, not retryable");
    let msg = format!("{err}");
    assert!(msg.contains("replay divergence at event 1"), "{msg}");
    // Sticky: even the originally-recorded call now fails, because the
    // session has left the recorded timeline.
    assert!(r.get_bytes(x.addr, &mut buf2).is_err());
    assert!(r.divergence().is_some());
}

#[test]
fn strict_replay_past_the_end_of_capture_diverges() {
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(scenario::scan_array());
    rec.start(Box::new(sink.clone()), "sim", "scan").unwrap();
    let x = rec.get_variable("x").unwrap();
    rec.stop().unwrap();

    let cap = Capture::parse(&sink.contents()).unwrap();
    let mut r = ReplayTarget::from_capture(cap, ReplayMode::Strict);
    let _ = r.get_variable("x");
    let mut buf = [0u8; 4];
    let err = r.get_bytes(x.addr, &mut buf).unwrap_err();
    assert!(format!("{err}").contains("end of capture"), "{err}");
}

// ---------------------------------------------------------------------
// Permissive replay: new expressions over frozen state
// ---------------------------------------------------------------------

#[test]
fn permissive_replay_answers_expressions_never_issued_live() {
    // Live: scan the whole array, which pulls its pages through the
    // recorder. Separately compute the live answer to a *different*
    // expression for comparison.
    let (_, text) = record_session(scenario::scan_array(), "scan", &["x[..50] >? 0"]);
    let expected = {
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        s.eval_lines("x[7] + x[9]").unwrap()
    };

    let cap = Capture::parse(&text).unwrap();
    let mut t = ReplayTarget::from_capture(cap, ReplayMode::Permissive);
    let mut s = Session::new(&mut t);
    let got = s.eval_lines("x[7] + x[9]").unwrap();
    assert_eq!(got, expected, "frozen state must answer new queries");
}

#[test]
fn permissive_replay_faults_on_unrecorded_memory() {
    let (_, text) = record_session(scenario::scan_array(), "scan", &["x[0]"]);
    let cap = Capture::parse(&text).unwrap();
    let mut t = ReplayTarget::from_capture(cap, ReplayMode::Permissive);
    // An address far outside anything the session touched.
    let mut buf = [0u8; 4];
    let err = t.get_bytes(0xdead_0000, &mut buf).unwrap_err();
    assert!(matches!(err, TargetError::IllegalMemory { .. }), "{err:?}");
}

// ---------------------------------------------------------------------
// Capture under fault injection
// ---------------------------------------------------------------------

#[test]
fn capture_under_retry_records_transients_and_replays_deterministically() {
    // Tower: Retry<Record<Fault<Sim>>> — the recorder sees every raw
    // attempt, including the transient failures retry absorbs above it.
    let sink = SharedSink::default();
    let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(3));
    let mut rec = RecordTarget::new(flaky);
    rec.start(Box::new(sink.clone()), "sim", "scan-flaky")
        .unwrap();
    let mut t = RetryTarget::with_policy(rec, RetryPolicy::fast(5));
    let live = {
        let mut s = Session::new(&mut t);
        s.eval_lines("x[..20] >? 5").unwrap()
    };
    t.inner_mut().stop().unwrap();
    let text = sink.contents();

    let cap = Capture::parse(&text).unwrap();
    assert!(
        cap.events
            .iter()
            .any(|e| e.reply.outcome() == TraceOutcome::Transient),
        "the capture must contain the recorded transient failures"
    );

    // Strict replay re-serves the transients in order; the retry layer
    // above re-drives them exactly as it did live. Run it twice: a
    // replayed flaky session must not itself be flaky.
    for round in 0..2 {
        let mut t = RetryTarget::with_policy(
            ReplayTarget::from_capture(cap.clone(), ReplayMode::Strict),
            RetryPolicy::fast(5),
        );
        let replayed = {
            let mut s = Session::new(&mut t);
            s.eval_lines("x[..20] >? 5").unwrap()
        };
        assert_eq!(live, replayed, "round {round}");
        assert!(t.inner().divergence().is_none(), "round {round}");
        assert_eq!(t.inner().events_consumed(), t.inner().events_total());
    }
}

// ---------------------------------------------------------------------
// gdbmi: Target-level capture over the MI wire
// ---------------------------------------------------------------------

#[test]
fn connect_recorded_captures_an_mi_session_that_replays() {
    // The recorder sits innermost, below cache and retry: the capture
    // holds exactly the traffic that reached the MI wire.
    let sink = SharedSink::default();
    let mut rec =
        RecordTarget::new(MiTarget::connect(MockGdb::new(scenario::hash_table_basic())).unwrap());
    rec.start(Box::new(sink.clone()), "gdb-mi", "hash").unwrap();
    let mut t = RetryTarget::with_policy(
        CachedTarget::with_config(rec, CacheConfig::default()),
        RetryPolicy::fast(3),
    );
    let live = {
        let mut s = Session::new(&mut t);
        s.eval_lines("#/(hash[..64]-->next)").unwrap()
    };
    t.inner_mut().inner_mut().stop().unwrap();

    let cap = Capture::parse(&sink.contents()).unwrap();
    assert_eq!(cap.header.backend, "gdb-mi");
    assert_eq!(cap.header.scenario, "hash");
    assert!(!cap.events.is_empty());

    // Replay through the same (cold) retry+cache stack: identical
    // output with no MI transport and no mock anywhere in sight.
    let mut t = RetryTarget::with_policy(
        CachedTarget::with_config(
            ReplayTarget::from_capture(cap, ReplayMode::Strict),
            CacheConfig::default(),
        ),
        RetryPolicy::fast(3),
    );
    let replayed = {
        let mut s = Session::new(&mut t);
        s.eval_lines("#/(hash[..64]-->next)").unwrap()
    };
    assert_eq!(live, replayed);
    assert!(t.inner().inner().divergence().is_none());
}

// ---------------------------------------------------------------------
// Property: recorded sessions replay byte-identically
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    #[test]
    fn recorded_bench_sessions_replay_byte_identically(
        n in 1u64..64,
        seed in 0u64..1_000_000,
        threshold in -5i64..5,
    ) {
        let expr = format!("x[..{n}] >? {threshold}");
        let exprs = [expr.as_str()];
        let (live, text) = record_session(
            duel::target::scenario::bench_array(n, seed),
            "bench_array",
            &exprs,
        );
        let (replayed, consumed, total, divergence) = replay_session(&text, &exprs);
        prop_assert_eq!(live, replayed);
        prop_assert_eq!(divergence, None);
        prop_assert_eq!(consumed, total);
    }
}
