//! Differential testing: random generator expressions are rendered to
//! DUEL source and simultaneously evaluated by an independent Rust
//! oracle; the produced value sequences must match exactly.
//!
//! The grammar covers the pure-generator core of the language — ranges,
//! alternation, arithmetic lifting, filters, imply, selection, count and
//! sum — which is where the paper's coroutine evaluation scheme does all
//! its work.

use duel::core::Session;
use duel::target::scenario;
use proptest::prelude::*;

/// A small generator-expression AST with a reference semantics.
#[derive(Clone, Debug)]
enum G {
    Const(i8),
    Range(i8, i8),
    Alt(Box<G>, Box<G>),
    Add(Box<G>, Box<G>),
    Mul(Box<G>, Box<G>),
    FilterGt(Box<G>, i8),
    Imply(Box<G>, Box<G>),
    Select(Box<G>, Vec<u8>),
    Count(Box<G>),
    Sum(Box<G>),
    Until(Box<G>, i8),
}

impl G {
    /// Renders as DUEL concrete syntax (fully parenthesized).
    fn render(&self) -> String {
        match self {
            G::Const(v) => format!("({v})"),
            G::Range(a, b) => format!("(({a})..({b}))"),
            G::Alt(a, b) => format!("({},{})", a.render(), b.render()),
            G::Add(a, b) => format!("({}+{})", a.render(), b.render()),
            G::Mul(a, b) => format!("({}*{})", a.render(), b.render()),
            G::FilterGt(a, k) => format!("({} >? ({k}))", a.render()),
            G::Imply(a, b) => {
                format!("({} => {})", a.render(), b.render())
            }
            G::Select(a, idx) => {
                let parts: Vec<String> = idx.iter().map(|i| i.to_string()).collect();
                format!("({}[[{}]])", a.render(), parts.join(","))
            }
            G::Count(a) => format!("(#/{})", a.render()),
            G::Sum(a) => format!("(+/{})", a.render()),
            G::Until(a, k) => format!("({}@({k}))", a.render()),
        }
    }

    /// The reference semantics, mirroring the paper's operational
    /// definitions over eager lists.
    fn eval(&self) -> Vec<i64> {
        match self {
            G::Const(v) => vec![*v as i64],
            G::Range(a, b) => (*a as i64..=*b as i64).collect(),
            G::Alt(a, b) => {
                let mut v = a.eval();
                v.extend(b.eval());
                v
            }
            G::Add(a, b) => {
                // All combinations, left operand slowest — C int
                // wrapping.
                let bs = b.eval();
                a.eval()
                    .into_iter()
                    .flat_map(|x| {
                        bs.iter()
                            .map(move |y| (x as i32).wrapping_add(*y as i32) as i64)
                    })
                    .collect()
            }
            G::Mul(a, b) => {
                let bs = b.eval();
                a.eval()
                    .into_iter()
                    .flat_map(|x| {
                        bs.iter()
                            .map(move |y| (x as i32).wrapping_mul(*y as i32) as i64)
                    })
                    .collect()
            }
            G::FilterGt(a, k) => a.eval().into_iter().filter(|v| *v > *k as i64).collect(),
            G::Imply(a, b) => {
                let bs = b.eval();
                a.eval().into_iter().flat_map(|_| bs.clone()).collect()
            }
            G::Select(a, idx) => {
                let vals = a.eval();
                idx.iter()
                    .filter_map(|i| vals.get(*i as usize).copied())
                    .collect()
            }
            G::Count(a) => vec![a.eval().len() as i64],
            G::Sum(a) => vec![a.eval().iter().sum()],
            // e@k: values of e up to (excluding) the first equal to k.
            G::Until(a, k) => a
                .eval()
                .into_iter()
                .take_while(|v| *v != *k as i64)
                .collect(),
        }
    }

    /// Number of values this expression produces (guards test size).
    fn cardinality(&self) -> usize {
        self.eval().len()
    }
}

/// Proptest strategy for the AST; `depth` bounds recursion.
fn strategy(depth: u32) -> BoxedStrategy<G> {
    if depth == 0 {
        prop_oneof![
            (-9i8..=9).prop_map(G::Const),
            (-6i8..=6, -6i8..=6).prop_map(|(a, b)| G::Range(a, b)),
        ]
        .boxed()
    } else {
        let sub = strategy(depth - 1);
        prop_oneof![
            (-9i8..=9).prop_map(G::Const),
            (-6i8..=6, -6i8..=6).prop_map(|(a, b)| G::Range(a, b)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| G::Alt(a.into(), b.into())),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| G::Add(a.into(), b.into())),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| G::Mul(a.into(), b.into())),
            (sub.clone(), -6i8..=6).prop_map(|(a, k)| G::FilterGt(a.into(), k)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| G::Imply(a.into(), b.into())),
            (sub.clone(), prop::collection::vec(0u8..20, 1..4))
                .prop_map(|(a, idx)| G::Select(a.into(), idx)),
            sub.clone().prop_map(|a| G::Count(a.into())),
            sub.clone().prop_map(|a| G::Sum(a.into())),
            (sub, -6i8..=6).prop_map(|(a, k)| G::Until(a.into(), k)),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, ..ProptestConfig::default()
    })]

    #[test]
    fn duel_matches_the_oracle(g in strategy(3)) {
        // Bound the work so pathological products stay fast.
        prop_assume!(g.cardinality() <= 4000);
        let want = g.eval();
        let src = g.render();
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        s.options.max_values = 100_000;
        let got: Vec<i64> = s
            .eval(&src)
            .unwrap_or_else(|e| panic!("`{src}` failed: {e}"))
            .into_iter()
            .filter_map(|l| match l {
                duel::core::OutputLine::Value { value, .. } => {
                    Some(value.parse::<i64>().expect("int value"))
                }
                _ => None,
            })
            .collect();
        prop_assert_eq!(got, want, "expression `{}`", src);
    }

    /// Vectored and scalar read paths are observationally identical:
    /// same buffers, same per-range results, same resident cache pages
    /// — on arbitrary range sets mixing in-arena, edge-straddling, and
    /// wholly unmapped spans.
    #[test]
    fn vectored_reads_match_scalar_reads(
        ranges in prop::collection::vec((0u64..400, 1u64..48), 1..12),
        page_exp in 4u32..9,
    ) {
        use duel::target::{CacheConfig, CachedTarget, ReadRange, Target};
        let page_size = 1u64 << page_exp;
        // scan_array: 240 readable bytes at the arena base; offsets up
        // to 400 reach past the edge.
        let mk = || {
            CachedTarget::with_config(
                scenario::scan_array(),
                CacheConfig { page_size, ..CacheConfig::default() },
            )
        };
        let mut scalar_t = mk();
        let mut vector_t = mk();
        let base = scalar_t.get_variable("x").unwrap().addr;
        vector_t.get_variable("x").unwrap();

        let mut scalar_bufs: Vec<Vec<u8>> =
            ranges.iter().map(|&(_, len)| vec![0u8; len as usize]).collect();
        let scalar_results: Vec<_> = ranges
            .iter()
            .zip(scalar_bufs.iter_mut())
            .map(|(&(off, _), buf)| scalar_t.get_bytes(base + off, buf))
            .collect();

        let mut vector_bufs: Vec<Vec<u8>> =
            ranges.iter().map(|&(_, len)| vec![0u8; len as usize]).collect();
        let mut reads: Vec<ReadRange<'_>> = ranges
            .iter()
            .zip(vector_bufs.iter_mut())
            .map(|(&(off, _), buf)| ReadRange::new(base + off, buf))
            .collect();
        let vector_results = vector_t.get_bytes_multi(&mut reads);

        prop_assert_eq!(&scalar_results, &vector_results);
        // Failed scalar reads may leave partial bytes behind; only
        // compare buffers whose reads succeeded.
        for (i, r) in scalar_results.iter().enumerate() {
            if r.is_ok() {
                prop_assert_eq!(&scalar_bufs[i], &vector_bufs[i], "range {}", i);
            }
        }
        prop_assert_eq!(scalar_t.resident_pages(), vector_t.resident_pages());
    }

    /// The I/O-actor pipeline is observationally identical to the
    /// synchronous tower: same rendered output, same trailing error,
    /// same resident cache pages, the same backend op/injection counts,
    /// and the same telemetry at every layer (traced calls and errors
    /// per op, wire turns, supervisor, retry and cache backend-read
    /// counters) — over random contiguous scans, prefetch window sizes,
    /// page sizes, and seeded chaos campaigns. The tower is the REPL's
    /// order, `Trace<Supervised<Retry<Cached<Async<Chaos<Sim>>>>>>`,
    /// with the actor on vs off.
    #[test]
    fn async_pipeline_matches_the_synchronous_tower(
        spans in prop::collection::vec((0u16..60, 1u16..60), 1..4),
        k in -5i16..10,
        page_exp in 4u32..7,
        window in 1usize..5,
        // events == 0 means no chaos campaign at all.
        chaos_seed in 0u64..1_000_000u64,
        chaos_events in 0usize..4,
        chaos_span in 20u64..200,
    ) {
        let idx: Vec<String> = spans
            .iter()
            .map(|&(a, n)| format!("{}..{}", a, a + n))
            .collect();
        let src = format!("x[{}] >? ({k})", idx.join(","));
        let opts = duel::core::EvalOptions {
            prefetch: true,
            prefetch_window: window,
            error_values: true,
            ..Default::default()
        };
        let chaos = (chaos_events > 0).then_some((chaos_seed, chaos_events, chaos_span));
        let run = |pipeline: bool| {
            run_tower(scenario::scan_array(), &src, &opts, 1 << page_exp, chaos, pipeline)
        };
        prop_assert_eq!(run(false), run(true), "expression `{}`", src);
    }
}

/// Everything an observer of the tower sees after one command.
#[derive(Debug, PartialEq)]
struct TowerRun {
    lines: Vec<String>,
    err: Option<String>,
    resident: Vec<(u64, Vec<u8>)>,
    /// Backend ops and chaos injections at the gate.
    backend_ops: u64,
    injected: u64,
    /// Traced calls and errors, per op.
    traced: Vec<(&'static str, u64, u64)>,
    wire_turns: u64,
    supervise: duel::target::SupervisorStats,
    retry: duel::target::RetryStats,
    backend_reads: u64,
}

/// Runs `src` once through the REPL's tower order over `sim`,
/// `Trace<Supervised<Retry<Cached<Async<Chaos<Sim>>>>>>`, with tracing
/// on and the I/O actor running or not. `chaos` is a campaign's
/// (seed, events, span). The breaker's cooldown outlasts any test, so
/// no timing decides a reconnect.
fn run_tower(
    sim: duel::target::SimTarget,
    src: &str,
    opts: &duel::core::EvalOptions,
    page_size: u64,
    chaos: Option<(u64, usize, u64)>,
    pipeline: bool,
) -> TowerRun {
    use duel::target::{
        AsyncTarget, CacheConfig, CachedTarget, ChaosTarget, RetryPolicy, RetryTarget,
        SupervisedTarget, SupervisorConfig, TraceTarget,
    };
    let gate = ChaosTarget::new(sim);
    let h = gate.handle();
    if let Some((seed, events, span)) = chaos {
        h.campaign(seed, events, span);
    }
    let actor = if pipeline {
        AsyncTarget::spawned(gate)
    } else {
        AsyncTarget::new(gate)
    };
    let cache = CachedTarget::with_config(
        actor,
        CacheConfig {
            page_size,
            ..CacheConfig::default()
        },
    );
    let mut t = TraceTarget::new(SupervisedTarget::with_config(
        RetryTarget::with_policy(cache, RetryPolicy::fast(1)),
        SupervisorConfig {
            cooldown: std::time::Duration::from_secs(3600),
            ..SupervisorConfig::default()
        },
    ));
    let trace = t.handle();
    trace.set_enabled(true);
    let (lines, err) = duel::core::oneshot_lines(&mut t, src, opts);
    let supervisor = t.inner();
    let retry = supervisor.inner();
    let cache = retry.inner();
    TowerRun {
        lines,
        err: err.map(|e| e.to_string()),
        resident: cache.resident_pages(),
        backend_ops: h.ops(),
        injected: h.injected(),
        traced: trace
            .snapshot()
            .ops
            .iter()
            .map(|o| (o.op.name(), o.calls, o.errors))
            .collect(),
        wire_turns: trace.wire_turns(),
        supervise: supervisor.stats(),
        retry: retry.stats(),
        backend_reads: cache.stats().backend_reads,
    }
}

/// The REPL's options: read-ahead on, faults rendered as values.
fn repl_options() -> duel::core::EvalOptions {
    duel::core::EvalOptions {
        error_values: true,
        ..Default::default()
    }
}

/// Runs `src` over the combined scenario with the actor off and on,
/// and requires the same observation from both towers.
fn assert_pipeline_invisible(src: &str) {
    let run = |pipeline: bool| {
        run_tower(
            scenario::combined(),
            src,
            &repl_options(),
            64,
            None,
            pipeline,
        )
    };
    let (sync, piped) = (run(false), run(true));
    assert!(sync.wire_turns >= 2, "`{src}` reads two windows: {sync:?}");
    assert_eq!(sync, piped, "`{src}`");
}

/// A clean window submitted ahead is one wire turn, counted where the
/// scan reads it (`hash` spans two windows).
#[test]
fn a_clean_window_submitted_ahead_is_one_wire_turn() {
    assert_pipeline_invisible("#/(hash[..1024] ==? 0)");
}

/// A window submitted ahead whose pages fault (the scan runs off the
/// arena) is a fault the supervisor treats as a healthy answer, as the
/// synchronous read of the same window is.
#[test]
fn a_faulting_window_submitted_ahead_is_no_backend_failure() {
    assert_pipeline_invisible("#/(x[..20000] >? 0)");
}

/// The one difference the actor is allowed: a scan stopped early, by
/// `@` or by the value limit, has had its next window read by the
/// actor, which a synchronous tower never reads. The cache's backend
/// reads are higher by exactly that read, the gate below it counts the
/// window's 64 page reads, and those pages are resident; the trace,
/// supervisor and retry layers above see the same reads.
#[test]
fn a_scan_stopped_early_has_read_one_window_more() {
    let limited = duel::core::EvalOptions {
        max_values: 5,
        ..repl_options()
    };
    for (src, opts) in [
        ("hash[..1024] @ 0", repl_options()),
        ("hash[..1024]", limited),
    ] {
        let run = |pipeline: bool| run_tower(scenario::combined(), src, &opts, 64, None, pipeline);
        let (sync, piped) = (run(false), run(true));
        assert_eq!(piped.backend_reads, sync.backend_reads + 1, "`{src}`");
        assert_eq!(piped.backend_ops, sync.backend_ops + 64, "`{src}`");
        let extra = piped
            .resident
            .iter()
            .filter(|p| !sync.resident.contains(p))
            .count();
        assert_eq!(extra, 64, "`{src}`: one window of 64 pages");
        let piped = TowerRun {
            resident: sync.resident.clone(),
            backend_reads: sync.backend_reads,
            backend_ops: sync.backend_ops,
            ..piped
        };
        assert_eq!(piped, sync, "`{src}`");
    }
}
