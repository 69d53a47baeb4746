//! Oracle for symbolic values: every output line, every error text and
//! every step count of a fixed corpus, pinned against
//! `tests/sym_render.golden`.
//!
//! The corpus has two parts:
//!
//! * 2,000 expressions drawn with a fixed seed from the same pattern as
//!   `eval_never_panics_on_expression_shaped_input` (`tests/properties.rs`),
//!   each run over the combined scenario, `bench_array` and `bench_hash`
//!   (where `x` is spelled `hash`, the name that debuggee defines);
//! * hand-written shapes: scans and filters with negative and
//!   constant-folded operands, `{e}`, casts, calls, `frames()`, aliases
//!   reused across commands, `-->next` chains at compression thresholds
//!   2, 4 and 9, the lazy mode, and the error paths (division by zero,
//!   illegal memory, type errors, the step budget). These also pin the
//!   evaluator's trace lines.
//!
//! Each command prints as `> src`, its output lines, then `! error` if it
//! failed and `# ticks N` (the step count). After a change that alters
//! output on purpose, `SYM_RENDER_BLESS=1 cargo test --test sym_render`
//! rewrites the golden file.

use duel::core::{EvalOptions, Session, SymMode};
use duel::target::{scenario, SimTarget};
use duel_ctype::Prim;
use proptest::prelude::*;
use proptest::TestRng;

const GOLDEN: &str = include_str!("sym_render.golden");

/// The pattern of `eval_never_panics_on_expression_shaped_input`.
const SHAPES: &str = "(x|[0-9]{1,3}|\\.\\.|,|\\+|>\\?|=>|\\[|\\]|\\(|\\)|#/|-->|->| ){1,24}";

const SEED: u64 = 0x5e_4d_2e_9d;
const DRAWN: usize = 2000;

/// Options for the drawn corpus: a short leash, as in the property.
fn drawn_options() -> EvalOptions {
    EvalOptions {
        max_values: 8,
        max_ticks: 20_000,
        ..EvalOptions::default()
    }
}

/// Runs `src` and appends its transcript.
fn run(s: &mut Session<'_>, src: &str, out: &mut String) {
    out.push_str("> ");
    out.push_str(src);
    out.push('\n');
    let (lines, err) = match s.eval_partial(src) {
        Ok((lines, err)) => (duel::core::session::render_lines(&lines), err),
        Err(e) => (Vec::new(), Some(e)),
    };
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    if let Some(e) = err {
        out.push_str(&format!("! {e}\n"));
    }
    out.push_str(&format!("# ticks {}\n", s.last_stats().ticks));
    for t in s.take_trace() {
        out.push_str(&format!("| {t}\n"));
    }
}

/// Builds a fresh debuggee.
type Debuggee = fn() -> SimTarget;

fn drawn(out: &mut String) {
    // Keep the draws that parse: token soup that fails to parse never
    // reaches the evaluator, so it says nothing about symbolic values.
    let mut rng = TestRng::new(SEED);
    let mut t = scenario::combined();
    let mut s = Session::new(&mut t);
    let mut exprs = Vec::new();
    while exprs.len() < DRAWN {
        let e = SHAPES.sample(&mut rng);
        if s.parse(&e).is_ok() {
            exprs.push(e);
        }
    }
    let targets: [(&str, Debuggee, &str); 3] = [
        ("combined", scenario::combined, "x"),
        ("bench_array", || scenario::bench_array(10_000, 1), "x"),
        ("bench_hash", || scenario::bench_hash(1024, 4, 7), "hash"),
    ];
    for (name, make, var) in targets {
        out.push_str(&format!("=== drawn over {name} ===\n"));
        let mut t = make();
        for e in &exprs {
            let mut s = Session::with_options(&mut t, drawn_options());
            run(&mut s, &e.replace('x', var), out);
        }
    }
}

/// The combined scenario with two stack frames that each hold a local
/// `n`, for `frames()` and `local(...)`.
fn framed() -> SimTarget {
    let mut t = scenario::combined();
    let int = t.core.types.prim(Prim::Int);
    for (f, v) in [("main", 7), ("walk", 11)] {
        t.core.push_frame(f);
        let a = t.core.define_local("n", int).unwrap();
        t.core.write_int(a, v).unwrap();
    }
    t
}

/// One session, so aliases carry from command to command.
const SCANS: &[&str] = &[
    "x[..10] >? -2",
    "x[..10] >? 2*3",
    "x[..60] >? 100+50",
    "x[..60] <? -(-8)",
    "x[1..4,8,12..50] >? 5 <? 10",
    "#/(x[..60] >? -2)",
    "x[..60] >? 1000000000",
    "x[..5] + -1",
    "x[..5] * (2+3)",
    "x[..3] - (char)65",
    "x[..3] + 'a'",
    "x[..3] / 2.5",
    "(double)x[..3] / -2",
    "-x[..3]",
    "~x[2]",
    "!x[..2]",
    "+x[1]",
    "x[(1..3)*2]",
    "x[-(-2)]",
    "x[..4] == -(-7)",
    "x[..4] !=? 7",
    "x[3..5] >=? 7 <=? 104",
    "(1..3)+(5,9)",
    "(1..4)*(1..4) >? 9",
    "x[..3] + (1 ? 2 : 3)",
    "x[..2] + sizeof(int)",
    "x[..3] << 1 + 1",
    "(x[..3] << 1) + 1",
    "x[..3] & 0xf | 1",
    "x[..3] - (1 - 2)",
    "x[0] - x[1] - x[2]",
    "x[0] - (x[1] - x[2])",
    "{x[..3]}",
    "x[{1+1}]",
    "{x[3]} + 1",
    "{-2} * x[..2]",
    "(long)x[..3]",
    "(char)x[3]",
    "(double)-3",
    "(int)(double)7/2",
    "(unsigned char)-1",
    "(char *)s",
    "(struct symbol *)0",
    "abs(x[..3] - 200)",
    "abs(x[..3] - 200) + 0",
    "abs(-5) + 1",
    "printf(\"%d\\n\", x[..3])",
    "strlen(argv[0..2])",
    "strlen(argv[0..2]) + 0",
    "strlen(s) * 2",
    "frames()",
    "local(\"n\", frames())",
    "local(\"n\", frames()) + -1",
    "y := x[..3]",
    "y",
    "y + 1",
    "z := -2",
    "x[..10] >? z",
    "z * z",
    "int k; k = 5",
    "k + x[1]",
    "k += -1",
    "k++",
    "++k",
    "k--",
    "x[..5]#i >? 103 => i",
    "x[..5]#j",
    "j",
    "argv[0..]@0",
    "s[0..]@(_=='\\0')",
    "#/(hash[..1024] != 0)",
    "hash[..1024] !=? 0",
    "hash[0]->scope",
    "hash[0]->next->next->scope",
    "hash[42]->(name, scope)",
    "hash[..1024]->(if (_ && scope > 5) name)",
    "root->left->key",
    "x[3,18,47] ==? 9",
    "x[3] = -x[3]",
    "x[3] = -x[3]",
];

/// Short commands whose trace lines are pinned too (same session).
const TRACED: &[&str] = &[
    "x[..3] >? -2",
    "x[..2] + 2*3",
    "(double)-3 + x[1]",
    "(1..3)+(5,9)",
    "{x[1]} * -(1+1)",
    "x[..2] + z",
    "x[..4] <? (char)-1",
];

/// `-->` shapes, run at compression thresholds 2, 4 and 9.
const WALKS: &[&str] = &[
    "head-->next",
    "head-->next->value",
    "L-->next->value ==? 27",
    "head-->next[[5]]",
    "hash[0]-->next->scope",
    "hash[..1024]-->next->scope >? 3",
    "hash[42]-->next",
    "root-->(left,right)->key",
    "root-->>(left,right)->key",
    "#/(L-->next)",
    "L-->next->next",
];

/// Error paths, each in its own session.
const ERRORS: &[&str] = &[
    "1/0",
    "x[..3]/0",
    "x[..3] % (1-1)",
    "-(1/0)",
    "x[..3] + -(1/0)",
    "x[99999]",
    "x[99999..100000]",
    "*(int *)0x999999",
    "((struct symbol *)0x999999)->scope",
    "hash[1]->next->next->scope",
    "x[1.5]",
    "x.y",
    "x->y",
    "hash[0]->nosuch",
    "x + hash",
    "1 + root",
    "-(struct node *)0 + x",
    "s[0..2]-->next",
    "nosuch + 1",
    "nosuchfn(1)",
    "(double)1 << 2",
    "x[..3] = 1",
];

fn shapes(out: &mut String) {
    out.push_str("=== shapes over combined ===\n");
    let mut t = framed();
    let mut s = Session::new(&mut t);
    for src in SCANS {
        run(&mut s, src, out);
    }
    out.push_str("=== traced ===\n");
    s.options.trace = true;
    for src in TRACED {
        run(&mut s, src, out);
    }

    for thr in [2, 4, 9] {
        out.push_str(&format!("=== walks at threshold {thr} ===\n"));
        let mut t = scenario::combined();
        let mut s = Session::new(&mut t);
        s.options.compress_threshold = thr;
        for src in WALKS {
            run(&mut s, src, out);
        }
        s.options.trace = true;
        run(&mut s, "head-->next->value >? 33", out);
    }

    out.push_str("=== errors ===\n");
    for src in ERRORS {
        let mut t = scenario::combined();
        let mut s = Session::new(&mut t);
        s.options.trace = true;
        run(&mut s, src, out);
    }
    out.push_str("=== tolerant errors ===\n");
    for src in ["x[58..61]", "x[99999..100000]", "hash[1]-->next->scope"] {
        let mut t = scenario::combined();
        let mut s = Session::new(&mut t);
        s.options.error_values = true;
        run(&mut s, src, out);
    }
    out.push_str("=== budgets ===\n");
    for (src, ticks, values) in [
        ("while (1) 1", 500, 1_000_000),
        ("x[..60] >? -2", 50, 1_000_000),
        ("0..", 100_000_000, 7),
        ("(1..3)+(5..1000) >? -2", 1_000_000, 9),
    ] {
        let mut t = scenario::combined();
        let mut s = Session::new(&mut t);
        s.options.max_ticks = ticks;
        s.options.max_values = values;
        run(&mut s, src, out);
    }
    out.push_str("=== lazy ===\n");
    let mut t = scenario::combined();
    let mut s = Session::new(&mut t);
    s.options.sym_mode = SymMode::Lazy;
    for src in [
        "x[..10] >? -2",
        "x[3] + -1",
        "head-->next->value",
        "(1..3)+(5,9)",
        "{x[3]}",
        "x[..3]/0",
    ] {
        run(&mut s, src, out);
    }
}

fn transcript() -> String {
    let mut out = String::new();
    shapes(&mut out);
    drawn(&mut out);
    out
}

#[test]
fn symbolic_output_matches_the_golden_transcript() {
    let got = transcript();
    if std::env::var_os("SYM_RENDER_BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/sym_render.golden");
        std::fs::write(path, &got).unwrap();
        return;
    }
    if got != GOLDEN {
        let (n, (g, w)) = got
            .lines()
            .zip(GOLDEN.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((0, ("<length differs>", "")));
        panic!(
            "transcript drifted at line {}:\n  got:  {g}\n  want: {w}\n({} lines vs {})",
            n + 1,
            got.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
