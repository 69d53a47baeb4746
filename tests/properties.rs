//! Property-based tests on the core invariants: lexer totality, layout
//! monotonicity, generator algebra (alternation/count/sum laws, range
//! lengths, filter equivalence, selection), and C-arithmetic agreement
//! with a reference evaluator. A final fuzz property feeds arbitrary
//! strings through the whole pipeline and requires graceful errors.

use duel::core::Session;
use duel::target::{scenario, SimTarget, Target};
use duel_ctype::{Abi, Field, Prim, TypeTable};
use proptest::prelude::*;

fn values_of(t: &mut dyn Target, src: &str) -> Vec<i64> {
    let mut s = Session::new(t);
    s.eval(src)
        .unwrap_or_else(|e| panic!("`{src}` failed: {e}"))
        .into_iter()
        .filter_map(|l| match l {
            duel::core::OutputLine::Value { value, .. } => value.parse::<i64>().ok(),
            _ => None,
        })
        .collect()
}

/// Renders a list of ints as a DUEL alternation `(a,b,c)`.
fn alt_expr(vals: &[i32]) -> String {
    let body: Vec<String> = vals.iter().map(|v| format!("({v})")).collect();
    format!("({})", body.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    // ---- lexer -------------------------------------------------------

    #[test]
    fn lexer_never_panics(s in "\\PC{0,60}") {
        let _ = duel::core::lexer::lex(&s);
    }

    #[test]
    fn integer_literals_roundtrip(v in 0u32..=i32::MAX as u32) {
        let toks = duel::core::lexer::lex(&v.to_string()).unwrap();
        prop_assert_eq!(
            &toks[0].tok,
            &duel::core::token::Tok::Int(v as i64)
        );
    }

    // ---- layout --------------------------------------------------------

    #[test]
    fn struct_layout_invariants(sizes in prop::collection::vec(0u8..3, 1..12)) {
        // Fields drawn from {char, int, double}: offsets must be
        // monotone, aligned, non-overlapping; total size a multiple of
        // the alignment.
        let mut tt = TypeTable::new();
        let abi = Abi::lp64();
        let prims = [Prim::Char, Prim::Int, Prim::Double];
        let fields: Vec<Field> = sizes
            .iter()
            .enumerate()
            .map(|(i, k)| {
                Field::new(format!("f{i}"), tt.prim(prims[*k as usize]))
            })
            .collect();
        let (rid, _) = tt.declare_struct("p");
        tt.define_record(rid, fields.clone());
        let l = tt.record_layout(rid, &abi).unwrap();
        let mut prev_end = 0u64;
        for (f, fl) in fields.iter().zip(l.fields.iter()) {
            let fsize = tt.size_of(f.ty, &abi).unwrap();
            let falign = tt.align_of(f.ty, &abi).unwrap();
            prop_assert_eq!(fl.offset % falign, 0, "misaligned field");
            prop_assert!(fl.offset >= prev_end, "overlapping fields");
            prev_end = fl.offset + fsize;
        }
        prop_assert!(l.size >= prev_end);
        prop_assert_eq!(l.size % l.align, 0);
    }

    // ---- generator algebra ----------------------------------------------

    #[test]
    fn alternation_concatenates(
        a in prop::collection::vec(-50i32..50, 0..6),
        b in prop::collection::vec(-50i32..50, 1..6),
    ) {
        // values(A,B) == values(A) ++ values(B).
        let mut t = scenario::scan_array();
        if a.is_empty() {
            let got = values_of(&mut t, &alt_expr(&b));
            let want: Vec<i64> = b.iter().map(|v| *v as i64).collect();
            prop_assert_eq!(got, want);
        } else {
            let expr = format!("{},{}", alt_expr(&a), alt_expr(&b));
            let got = values_of(&mut t, &expr);
            let want: Vec<i64> = a
                .iter()
                .chain(b.iter())
                .map(|v| *v as i64)
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn count_and_sum_laws(vals in prop::collection::vec(-100i32..100, 1..10)) {
        let mut t = scenario::scan_array();
        let e = alt_expr(&vals);
        let count = values_of(&mut t, &format!("#/{e}"));
        prop_assert_eq!(count, vec![vals.len() as i64]);
        let sum = values_of(&mut t, &format!("+/{e}"));
        let want: i64 = vals.iter().map(|v| *v as i64).sum();
        prop_assert_eq!(sum, vec![want]);
    }

    #[test]
    fn range_lengths(a in -100i64..100, b in -100i64..100) {
        let mut t = scenario::scan_array();
        let got = values_of(&mut t, &format!("#/(({a})..({b}))"));
        let want = if a <= b { b - a + 1 } else { 0 };
        prop_assert_eq!(got, vec![want]);
    }

    #[test]
    fn filter_equals_rust_filter(
        vals in prop::collection::vec(-100i32..100, 1..10),
        k in -100i32..100,
    ) {
        let mut t = scenario::scan_array();
        let got =
            values_of(&mut t, &format!("{} >? ({k})", alt_expr(&vals)));
        let want: Vec<i64> = vals
            .iter()
            .filter(|v| **v > k)
            .map(|v| *v as i64)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn select_picks_by_index(
        vals in prop::collection::vec(-100i32..100, 1..8),
        picks in prop::collection::vec(0usize..16, 1..6),
    ) {
        let mut t = scenario::scan_array();
        let idx: Vec<String> =
            picks.iter().map(|p| p.to_string()).collect();
        let got = values_of(
            &mut t,
            &format!("{}[[{}]]", alt_expr(&vals), idx.join(",")),
        );
        let want: Vec<i64> = picks
            .iter()
            .filter_map(|p| vals.get(*p).map(|v| *v as i64))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn imply_multiplies_counts(
        n in 1i64..20,
        m in 1i64..20,
    ) {
        let mut t = scenario::scan_array();
        let got =
            values_of(&mut t, &format!("#/((1..{n}) => (1..{m}))"));
        prop_assert_eq!(got, vec![n * m]);
    }

    // ---- C arithmetic agrees with a reference -----------------------------

    #[test]
    fn int_arithmetic_matches_wrapping_i32(
        a in -10_000i32..10_000,
        b in -10_000i32..10_000,
        op in 0u8..5,
    ) {
        let (sym, want) = match op {
            0 => ("+", a.wrapping_add(b)),
            1 => ("-", a.wrapping_sub(b)),
            2 => ("*", a.wrapping_mul(b)),
            3 => ("&", a & b),
            _ => ("^", a ^ b),
        };
        let mut t = scenario::scan_array();
        let got =
            values_of(&mut t, &format!("({a}) {sym} ({b})"));
        prop_assert_eq!(got, vec![want as i64]);
    }

    #[test]
    fn division_matches_c(a in -10_000i32..10_000, b in 1i32..100) {
        let mut t = scenario::scan_array();
        let got = values_of(&mut t, &format!("({a}) / ({b})"));
        prop_assert_eq!(got, vec![(a / b) as i64]);
        let got = values_of(&mut t, &format!("({a}) % ({b})"));
        prop_assert_eq!(got, vec![(a % b) as i64]);
    }

    // ---- memory round trips -------------------------------------------------

    #[test]
    fn assignment_roundtrips_through_target(
        idx in 0u64..10,
        v in -1000i32..1000,
    ) {
        let mut t = scenario::range_array();
        {
            let mut s = Session::new(&mut t);
            s.eval(&format!("x[{idx}] = ({v}) ;")).unwrap();
        }
        let x = t.get_variable("x").unwrap();
        prop_assert_eq!(t.core.read_int(x.addr + idx * 4).unwrap(), v);
    }

    // ---- whole-pipeline fuzz --------------------------------------------------

    #[test]
    fn eval_never_panics_on_garbage(src in "[ -~]{0,40}") {
        let mut t = SimTarget::new(Abi::lp64());
        t.core.define_global_bytes("x", 64).unwrap();
        let mut s = Session::new(&mut t);
        s.options.max_values = 1000;
        s.options.max_ticks = 100_000;
        // Errors are fine; panics and hangs are not.
        let _ = s.eval(&src);
    }

    #[test]
    fn eval_never_panics_on_expression_shaped_input(
        src in "(x|[0-9]{1,3}|\\.\\.|,|\\+|>\\?|=>|\\[|\\]|\\(|\\)|#/|-->|->| ){1,24}"
    ) {
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        s.options.max_values = 1000;
        s.options.max_ticks = 100_000;
        let _ = s.eval(&src);
    }
}

// ---------------------------------------------------------------------
// MetricsRegistry snapshot consistency under concurrency
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, ..ProptestConfig::default()
    })]

    /// Concurrent incrementers + a snapshotter. Each worker bumps the
    /// counter *before* observing the histogram, and `snapshot()` reads
    /// counters *before* histograms — so the robust cross-snapshot
    /// invariant is: a snapshot's histogram total never exceeds the
    /// *next* snapshot's counter (every observe is preceded by its
    /// add, and the later counter read sees at least those adds; the
    /// registry guarantees this by observing with `Release` and
    /// reading histograms with `Acquire`). Counters themselves must be
    /// monotonic across snapshots, and the quiescent totals exact.
    ///
    /// The workers and the snapshotter start together behind one
    /// barrier, so the first snapshot races the workers instead of
    /// following them. The snapshotter reads the stop flag at the top
    /// of each round but takes and checks its snapshot before acting on
    /// it, so every run checks at least one snapshot — the last one
    /// taken after the workers were joined, which holds the
    /// cross-snapshot invariant against the quiescent state. `rounds > 0`
    /// therefore holds by construction, whatever the scheduler does; it
    /// stays as a guard against a snapshotter that never checked
    /// anything.
    #[test]
    fn metrics_snapshots_are_consistent_under_concurrency(
        threads in 1usize..4,
        iters in 1u64..300,
    ) {
        use duel::target::MetricsRegistry;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};

        let reg = MetricsRegistry::new();
        // Register up front so the snapshotter always sees both names.
        reg.counter("ops");
        reg.histogram("lat");
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(threads + 1));

        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let reg = reg.clone();
                let start = start.clone();
                std::thread::spawn(move || {
                    let c = reg.counter("ops");
                    let h = reg.histogram("lat");
                    start.wait();
                    for i in 0..iters {
                        c.add(1);
                        h.observe(t as u64 * 1000 + i + 1);
                    }
                })
            })
            .collect();

        let snapshotter = {
            let reg = reg.clone();
            let stop = stop.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let mut prev_counter = 0u64;
                let mut prev_hist_total = 0u64;
                let mut rounds = 0u64;
                start.wait();
                loop {
                    // Acquire pairs with the main thread's Release store
                    // made after joining the workers: once set, this
                    // round's snapshot sees every worker's bumps.
                    let stopping = stop.load(Ordering::Acquire);
                    let s = reg.snapshot();
                    let ops = s.counter("ops").expect("ops registered");
                    let hist_total: u64 = s
                        .histograms
                        .iter()
                        .find(|(k, _)| k == "lat")
                        .map(|(_, b)| b.iter().sum())
                        .expect("lat registered");
                    assert!(
                        ops >= prev_counter,
                        "counter went backwards: {prev_counter} -> {ops}"
                    );
                    assert!(
                        prev_hist_total <= ops,
                        "histogram total {prev_hist_total} from an earlier snapshot \
                         exceeds a later counter {ops}"
                    );
                    prev_counter = ops;
                    prev_hist_total = hist_total;
                    rounds += 1;
                    if stopping {
                        break;
                    }
                }
                rounds
            })
        };

        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let rounds = snapshotter.join().unwrap();
        prop_assert!(rounds > 0);

        // Quiescent: totals are exact and the histogram caught up.
        let s = reg.snapshot();
        let expected = threads as u64 * iters;
        prop_assert_eq!(s.counter("ops"), Some(expected));
        let hist_total: u64 = s.histograms[0].1.iter().sum();
        prop_assert_eq!(hist_total, expected);
    }
}
