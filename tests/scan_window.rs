//! Differential oracle for scan windows.
//!
//! A scan whose index is a hinted range (`a[lo..hi]`, `a[..n]`) over an
//! array of integers or floats reads each window of its span in one
//! tower call and serves the element loads from that buffer. The oracle
//! is the same tower with [`RefuseWide`] stacked above the cache: it
//! fails every read wider than 8 bytes, so every window read fails and
//! every load falls back to its own read — the per-element path. The two must
//! print the same values, error text and `<stale>` tags over `char`,
//! `int`, `float` and `double` arrays under both byte orders, spans that
//! run into unmapped memory, stores inside the command, target calls
//! that write, transient faults absorbed by the retry layer, a degraded
//! supervisor, and record → strict replay.

use duel::core::session::render_lines;
use duel::core::{EvalOptions, Session};
use duel::ctype::{Abi, Prim};
use duel::target::{
    scenario, value_io, AsyncTarget, CacheConfig, CachedTarget, CallValue, Capture, ChaosTarget,
    FaultConfig, Layer, Op, RecordTarget, ReplayMode, ReplayTarget, Reply, RetryPolicy,
    RetryTarget, SharedSink, SimTarget, SupervisedTarget, SupervisorConfig, Target, TraceOp,
    TraceTarget,
};
use duel_bench::RefuseWide;
use proptest::prelude::*;

/// The generated debuggee: `char c[]`, `int i[]`, `float f[]` and,
/// last in the arena so spans past its end run into unmapped memory,
/// `double d[]`.
#[derive(Clone, Debug)]
struct Arrays {
    big_endian: bool,
    c: Vec<u8>,
    i: Vec<i32>,
    f: Vec<i16>,
    d: Vec<i16>,
}

fn arrays() -> impl Strategy<Value = Arrays> {
    (
        (0u8..2, prop::collection::vec(0u8..=255, 1..40)),
        prop::collection::vec(-50i32..50, 1..300),
        prop::collection::vec(-40i16..40, 1..40),
        prop::collection::vec(-40i16..40, 1..80),
    )
        .prop_map(|((be, c), i, f, d)| Arrays {
            big_endian: be == 1,
            c,
            i,
            f,
            d,
        })
}

fn build(a: &Arrays) -> SimTarget {
    let mut t = SimTarget::new(if a.big_endian {
        Abi::ilp32_be()
    } else {
        Abi::lp64()
    });
    let mut define = |name: &str, prim: Prim, n: usize| {
        let elem = t.core.types.prim(prim);
        let ty = t.core.types.array(elem, Some(n as u64));
        t.core.define_global(name, ty).unwrap()
    };
    let c = define("c", Prim::Char, a.c.len());
    let i = define("i", Prim::Int, a.i.len());
    let f = define("f", Prim::Float, a.f.len());
    let d = define("d", Prim::Double, a.d.len());
    for (k, &v) in a.c.iter().enumerate() {
        t.core.write_uint(c + k as u64, v as u64, 1).unwrap();
    }
    for (k, &v) in a.i.iter().enumerate() {
        t.core.write_int(i + 4 * k as u64, v).unwrap();
    }
    for (k, &v) in a.f.iter().enumerate() {
        let bits = (v as f32 / 4.0).to_bits() as u64;
        t.core.write_uint(f + 4 * k as u64, bits, 4).unwrap();
    }
    for (k, &v) in a.d.iter().enumerate() {
        let bits = (v as f64 / 8.0).to_bits();
        t.core.write_uint(d + 8 * k as u64, bits, 8).unwrap();
    }
    t
}

/// Scans over one of the arrays, bounds running past its end now and
/// then (into the next array, or off the arena after `d`).
fn exprs() -> impl Strategy<Value = String> {
    (0usize..4, (0usize..90, 0usize..90), -10i32..10, 0usize..10).prop_map(
        |(arr, (a, b), v, form)| {
            let x = ["c", "i", "f", "d"][arr];
            let (a, b) = (a.min(b), a.max(b));
            match form {
                0 => format!("{x}[{a}..{b}]"),
                1 => format!("{x}[..{}] >? {v}", b + 1),
                2 => format!("#/({x}[..{}] >? {v})", b + 1),
                3 => format!("+/{x}[{a}..{b}]"),
                4 => format!("{x}[{a}..{b}] * 2 - {x}[{a}..{a}]"),
                5 => format!("{x}[{a}..{b}] + ({x}[{}] += {v})", (a + b) / 2),
                6 => format!("{x}[..{}] + ({x}[{}]++)", b + 1, b / 2),
                7 => format!("({x}[{a}..{b}] >? {v})[[{}]]", b / 3),
                8 => format!("{x}[{a}..{b}] + i[..3]"),
                _ => format!("{x}[{a}..{b}], {x}[{a}..{b}] <? {v}"),
            }
        },
    )
}

/// Everything a command prints: its lines, then its error, if any.
fn outcome(t: &mut dyn Target, expr: &str, opts: &EvalOptions) -> String {
    let mut s = Session::with_options(t, opts.clone());
    match s.eval_partial(expr) {
        Ok((lines, err)) => {
            let mut out = render_lines(&lines).join("\n");
            if let Some(e) = err {
                out.push_str(&format!("\nerror: {e}"));
            }
            out
        }
        Err(e) => format!("error: {e}"),
    }
}

fn options() -> impl Strategy<Value = EvalOptions> {
    (0u8..2, 0u8..2, 0usize..3).prop_map(|(error_values, prefetch, window)| EvalOptions {
        error_values: error_values == 1,
        prefetch: prefetch == 1,
        prefetch_window: [1, 2, 64][window],
        max_values: 20_000,
        ..EvalOptions::default()
    })
}

fn cache() -> impl Strategy<Value = CacheConfig> {
    (0usize..3, 0usize..3).prop_map(|(page, cap)| CacheConfig {
        page_size: [8, 16, 64][page],
        max_pages: [3, 16, 1024][cap],
        ..CacheConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, ..ProptestConfig::default()
    })]

    #[test]
    fn windowed_scans_print_what_per_element_scans_print(
        data in arrays(),
        cmds in prop::collection::vec(exprs(), 1..5),
        opts in options(),
        cfg in cache(),
    ) {
        let mut oracle = RefuseWide(CachedTarget::with_config(build(&data), cfg.clone()));
        let mut windowed = CachedTarget::with_config(build(&data), cfg);
        for expr in &cmds {
            let want = outcome(&mut oracle, expr, &opts);
            let got = outcome(&mut windowed, expr, &opts);
            prop_assert_eq!(got, want, "`{}`", expr);
        }
    }
}

/// A fixed debuggee with every element kind, for the deterministic
/// cases below.
fn fixed() -> Arrays {
    Arrays {
        big_endian: false,
        c: (0..40).map(|k| b'a' + k % 26).collect(),
        i: (0..300).map(|k| (k * 7) % 23 - 11).collect(),
        f: (0..40).map(|k| k as i16 - 20).collect(),
        d: (0..80).map(|k| (k * 5) as i16 % 17 - 8).collect(),
    }
}

const FIXED: [&str; 9] = [
    "i[..300] >? 0",
    "#/(i[..300] >? 3)",
    "d[70..85]",
    "f[..40] <? 0",
    "c[..40] ==? 'k'",
    "i[..5] + (i[0] = 9)",
    "i[..6] + (i[3] += 1)",
    "+/d[..80]",
    "i[3..250] * 2",
];

#[test]
fn windowed_scans_agree_under_transient_faults() {
    let faults = FaultConfig {
        fail_every: 5,
        ..FaultConfig::default()
    };
    let tower = |refuse: bool| -> (Box<dyn Target>, _) {
        let gate = ChaosTarget::with_faults(build(&fixed()), faults.clone());
        let handle = gate.handle();
        let cached = CachedTarget::with_config(
            gate,
            CacheConfig {
                page_size: 16,
                ..CacheConfig::default()
            },
        );
        let t: Box<dyn Target> = if refuse {
            Box::new(RetryTarget::with_policy(
                RefuseWide(cached),
                RetryPolicy::fast(4),
            ))
        } else {
            Box::new(RetryTarget::with_policy(cached, RetryPolicy::fast(4)))
        };
        (t, handle)
    };
    let (mut oracle, _) = tower(true);
    let (mut windowed, injected) = tower(false);
    let opts = EvalOptions {
        error_values: true,
        ..EvalOptions::default()
    };
    for expr in FIXED {
        let want = outcome(&mut *oracle, expr, &opts);
        // Retries absorb every transient: the only errors are the
        // elements past the end of the arena.
        assert_eq!(
            want.contains("error"),
            expr == "d[70..85]",
            "`{expr}`: {want}"
        );
        assert_eq!(outcome(&mut *windowed, expr, &opts), want, "`{expr}`");
    }
    assert!(injected.injected() > 0, "faults reached the windowed tower");
}

/// A supervisor whose circuit opened after the cache was warmed serves
/// stale reads: the windows step aside, so the same values carry the
/// `<stale>` tag, and pages the cache never held fail the same way.
#[test]
fn a_degraded_supervisor_tags_the_same_values_stale() {
    let tower = |refuse: bool| -> (Box<dyn Target>, _) {
        let gate = ChaosTarget::new(build(&fixed()));
        let handle = gate.handle();
        let cached = CachedTarget::with_config(
            gate,
            CacheConfig {
                page_size: 16,
                ..CacheConfig::default()
            },
        );
        let cfg = SupervisorConfig::fast(2);
        let t: Box<dyn Target> = if refuse {
            Box::new(SupervisedTarget::with_config(RefuseWide(cached), cfg))
        } else {
            Box::new(SupervisedTarget::with_config(cached, cfg))
        };
        (t, handle)
    };
    let opts = EvalOptions {
        error_values: true,
        ..EvalOptions::default()
    };
    let mut outputs = Vec::new();
    for refuse in [true, false] {
        let (mut t, chaos) = tower(refuse);
        let mut out = Vec::new();
        // Warm part of `i` and all of `d`, then kill the backend and
        // let the breaker trip on the failures.
        out.push(outcome(&mut *t, "#/(i[..100] >? 0)", &opts));
        out.push(outcome(&mut *t, "+/d[..80]", &opts));
        chaos.kill();
        for _ in 0..6 {
            out.push(outcome(&mut *t, "c[0]", &opts));
        }
        let handle = t.staleness_handle().expect("supervised tower");
        assert!(handle.is_degraded(), "the circuit opened");
        for expr in ["i[..100] >? 5", "d[..80]", "i[90..120]", "f[..3]"] {
            out.push(outcome(&mut *t, expr, &opts));
        }
        outputs.push(out.join("\n---\n"));
    }
    assert!(outputs[0].contains("<stale>"), "{}", outputs[0]);
    assert_eq!(outputs[1], outputs[0]);
}

/// A target function `poke(k, v)` that stores `v` into `i[k]`, as a
/// debuggee function would: below the cache, which drops its pages at
/// every call.
struct Poke<T>(T);

impl<T: Target> Layer for Poke<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.0
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.0
    }

    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        match op {
            Op::HasFunction("poke") => Reply::Flag(true),
            Op::CallFunc { name: "poke", args } => {
                let abi = self.0.abi().clone();
                let i = self.0.get_variable("i").expect("i").addr;
                let (k, v) = (args[0].to_u64(&abi), args[1].to_u64(&abi));
                let r = value_io::write_uint(&mut self.0, i + 4 * k, v, 4)
                    .map(|()| CallValue::from_u64(args[1].ty, v, 4, &abi).unwrap());
                Reply::Value(r)
            }
            op => op.apply(&mut self.0),
        }
    }
}

/// A target call that writes the array a scan reads drops the window,
/// so the loads after it see the new values.
#[test]
fn target_calls_that_write_drop_the_window() {
    let opts = EvalOptions::default();
    let mut oracle = RefuseWide(CachedTarget::new(Poke(build(&fixed()))));
    let mut windowed = CachedTarget::new(Poke(build(&fixed())));
    for expr in [
        "i[..8] + poke(0, 77)",
        "i[..8] + poke(3, i[3] + 1)",
        "i[..64] >? 10",
        "poke(5, -1) + i[3..7]",
        "i[..6] * (poke(2, i[2] + 1) - i[2])",
        "#/(i[..300] >? 0)",
    ] {
        let want = outcome(&mut oracle, expr, &opts);
        assert!(!want.contains("error"), "`{expr}`: {want}");
        assert_eq!(outcome(&mut windowed, expr, &opts), want, "`{expr}`");
    }
    assert!(windowed.stats().multi_reads > 0, "the scans read windows");
}

#[test]
fn recorded_windowed_scans_replay_strictly() {
    let opts = EvalOptions::default();
    let exprs = FIXED;
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(build(&fixed()));
    rec.start(Box::new(sink.clone()), "sim", "scan-window")
        .unwrap();
    let mut live = CachedTarget::new(rec);
    let want: Vec<String> = exprs.iter().map(|e| outcome(&mut live, e, &opts)).collect();
    live.inner_mut().stop().unwrap();
    assert!(live.stats().multi_reads > 0, "the scans read windows");

    let mut oracle = RefuseWide(CachedTarget::new(build(&fixed())));
    let per_element: Vec<String> = exprs
        .iter()
        .map(|e| outcome(&mut oracle, e, &opts))
        .collect();
    assert_eq!(want, per_element);

    let cap = Capture::parse(&sink.contents()).unwrap();
    let mut replay = CachedTarget::new(ReplayTarget::from_capture(cap, ReplayMode::Strict));
    let got: Vec<String> = exprs
        .iter()
        .map(|e| outcome(&mut replay, e, &opts))
        .collect();
    assert_eq!(got, want);
    let r = replay.inner();
    assert!(r.divergence().is_none(), "{:?}", r.divergence());
    assert_eq!(r.events_consumed(), r.events_total());
}

/// The paper's headline scan on the REPL's sim tower: ten windows of
/// 64 pages read the 40,000 bytes, one tower call each.
#[test]
fn headline_scan_makes_one_tower_read_per_window() {
    let mut t = TraceTarget::with_label(
        SupervisedTarget::new(RetryTarget::new(CachedTarget::new(RecordTarget::new(
            AsyncTarget::new(ChaosTarget::new(scenario::bench_array(10_000, 1))),
        )))),
        "session",
    );
    let handle = t.handle();
    handle.set_enabled(true);
    let mut s = Session::new(&mut t);
    let lines = s.eval_lines("#/(x[..10000] >? 0)").unwrap();
    assert_eq!(lines.len(), 1);
    let reads = handle.calls(TraceOp::GetBytes) + handle.calls(TraceOp::MultiRead);
    assert!(reads <= 12, "{reads} tower reads");
    // The oracle tower reads every element on its own.
    let mut oracle = RefuseWide(CachedTarget::new(scenario::bench_array(10_000, 1)));
    let mut s = Session::new(&mut oracle);
    assert_eq!(s.eval_lines("#/(x[..10000] >? 0)").unwrap(), lines);
}
