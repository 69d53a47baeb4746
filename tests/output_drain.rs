//! Program output is drained once per command plus once after each op
//! that ran target code, never once per produced value.
//!
//! Two guards:
//!
//! * a differential oracle: [`Session`] against a reference drive loop
//!   written here that drains `take_output` after *every* value (the
//!   plain path), over the expression-shaped fuzz corpus plus shapes
//!   that print, allocate and fail after printing, on four backends
//!   (sim scenario, the sim tower with its I/O actor running, a mini-C
//!   debugger, and a supervised MI tower). Output lines and errors
//!   must be identical;
//! * a counted test pinning the drains per command.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use duel::core::{
    ast::Expr, eval, parser, printer, scope::Ctx, DuelError, DuelResult, EvalOptions, OutputLine,
    Session, Value,
};
use duel::gdbmi::{connect_supervised, MockGdb};
use duel::minic::{Debugger, StopReason};
use duel::target::{
    scenario, AsyncTarget, CacheConfig, CachedTarget, ChaosTarget, Layer, Op, RecordTarget, Reply,
    RetryPolicy, RetryTarget, SupervisedTarget, SupervisorConfig, Target, TraceTarget,
};
use proptest::prelude::*;

/// The drive loop as it was before output became per-command: the
/// same parse, compile, display and symbolic-collapse rules as
/// [`Session::eval_partial`], but `take_output` after every value.
fn reference_eval(
    target: &mut dyn Target,
    aliases: &mut HashMap<String, Value>,
    opts: &EvalOptions,
    src: &str,
) -> DuelResult<(Vec<OutputLine>, Option<DuelError>)> {
    let expr = parser::parse(src, &mut |name: &str| target.lookup_typedef(name).is_some())?;
    let src_squeezed: String = src.chars().filter(|c| !c.is_whitespace()).collect();
    let suppress_values = matches!(
        &expr,
        Expr::Call(name, _) if !matches!(name.as_str(), "frames" | "local" | "equal")
    );
    let mut gen = eval::compile(&expr);
    let thr = opts.compress_threshold;
    let mut ctx = Ctx::new(&mut *target, aliases, opts.clone());
    let mut lines = Vec::new();
    let result = eval::drive(&mut ctx, &mut gen, |ctx, v| {
        let out = ctx.target.take_output();
        if !out.is_empty() {
            lines.push(OutputLine::Stdout(out));
        }
        if suppress_values {
            return Ok(());
        }
        let value = match printer::format_value(&mut ctx.target, &v, thr) {
            Ok(s) => s,
            Err(e) if ctx.opts.error_values && e.is_fault() => format!("<error: {e}>"),
            Err(e) => return Err(e),
        };
        let sym = if v.sym.is_none() {
            None
        } else {
            let rendered = v.sym.render(thr);
            let squeezed: String = rendered.chars().filter(|c| !c.is_whitespace()).collect();
            if squeezed == src_squeezed || rendered == value {
                None
            } else {
                Some(rendered)
            }
        };
        lines.push(OutputLine::Value { sym, value });
        Ok(())
    });
    drop(ctx);
    while target.prefetch_poll().is_some() {}
    let out = target.take_output();
    if !out.is_empty() {
        lines.push(OutputLine::Stdout(out));
    }
    Ok((lines, result.err()))
}

/// A mini-C program stopped at a breakpoint with `x[0..9]` filled in
/// and a pointer global, its start-up output already drained.
fn minic_debugger() -> Debugger {
    let src = "\
int x[10];\n\
int *p;\n\
int main() {\n\
    int i;\n\
    for (i = 0; i < 10; i = i + 1)\n\
        x[i] = i * 3 - 7;\n\
    p = &x[2];\n\
    printf(\"ready\\n\");\n\
    return 0;\n\
}\n";
    let mut d = Debugger::new(src).expect("program compiles");
    d.add_breakpoint(9);
    assert_eq!(d.run().unwrap(), StopReason::Breakpoint { line: 9 });
    assert_eq!(d.take_output(), "ready\n");
    d
}

/// The sim tower as the REPL composes it, with the I/O actor running.
fn sim_tower_with_actor() -> impl Target {
    let actor = AsyncTarget::spawned(ChaosTarget::new(scenario::combined()));
    TraceTarget::new(SupervisedTarget::new(RetryTarget::new(
        CachedTarget::with_config(RecordTarget::new(actor), CacheConfig::default()),
    )))
}

/// A supervised MI tower over the mock gdb (program output crosses the
/// wire as `@` records).
fn mi_tower() -> impl Target {
    connect_supervised(
        || Ok(MockGdb::new(scenario::combined())),
        RetryPolicy::default(),
        CacheConfig::default(),
        SupervisorConfig::default(),
        Duration::from_secs(30),
    )
    .expect("mock gdb connects")
}

/// Builds a fresh backend of kind `k` (0: sim, 1: sim tower with the
/// actor, 2: mini-C, 3: MI).
fn backend(k: u8) -> Box<dyn Target> {
    match k {
        0 => Box::new(scenario::combined()),
        1 => Box::new(sim_tower_with_actor()),
        2 => Box::new(minic_debugger()),
        _ => Box::new(mi_tower()),
    }
}

/// Runs `cmds` in order on a fresh backend of kind `k`, once through
/// [`Session`] and once through the reference loop, and requires every
/// command's output lines and error to be identical. Returns how many
/// program-output lines the commands produced.
fn assert_same_as_reference(k: u8, cmds: &[String], error_values: bool) -> usize {
    let opts = EvalOptions {
        max_values: 1000,
        max_ticks: 100_000,
        error_values,
        ..EvalOptions::default()
    };
    let mut live_target = backend(k);
    let mut ref_target = backend(k);
    let mut session = Session::with_options(&mut *live_target, opts.clone());
    let mut ref_aliases = HashMap::new();
    let mut stdout_lines = 0;
    for src in cmds {
        let got = session.eval_partial(src);
        let want = reference_eval(&mut *ref_target, &mut ref_aliases, &opts, src);
        assert_eq!(got, want, "backend {k}, command `{src}`");
        if let Ok((lines, _)) = &got {
            stdout_lines += lines
                .iter()
                .filter(|l| matches!(l, OutputLine::Stdout(_)))
                .count();
        }
    }
    stdout_lines
}

/// Commands that print, allocate, or fail after printing; `c` is a
/// corpus fragment spliced into some of them and `n` a small integer.
fn printing_shape(pick: usize, c: &str, n: u32) -> String {
    match pick % 14 {
        0 => "printf(\"%d\\n\", x[..3])".to_string(),
        1 => "printf(\"%d\\n\", x[0..2]) + x[0..2]".to_string(),
        2 => format!("printf(\"%d \", {c})"),
        3 => format!("printf(\"%d\\n\", x[0..{n}]), {c}"),
        4 => "\"abc\"".to_string(),
        5 => format!("\"s{n}\"[0..2]"),
        6 => format!("int k; k = {n}; k"),
        7 => format!("int k{n}; printf(\"%d\\n\", k{n}), x[0..2]"),
        8 => "printf(\"%d\\n\", 1), nonexistent".to_string(),
        9 => format!("printf(\"%d\\n\", x[..{n}]), x[99999]"),
        10 => "printf(\"a\\n\"), 1/0".to_string(),
        11 => format!("#/printf(\"%d\", x[..{n}])"),
        12 => format!("({c}) + printf(\"%s\\n\", \"lit\")"),
        _ => format!("printf(\"%d\\n\", {n}) ; {c}"),
    }
}

/// The `eval_never_panics_on_expression_shaped_input` corpus.
const CORPUS: &str = "(x|[0-9]{1,3}|\\.\\.|,|\\+|>\\?|=>|\\[|\\]|\\(|\\)|#/|-->|->| ){1,24}";

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, ..ProptestConfig::default()
    })]

    #[test]
    fn per_command_drain_matches_per_value_drain(
        k in 0u8..4,
        corpus in prop::collection::vec(CORPUS, 1..3),
        picks in prop::collection::vec(0usize..14, 1..4),
        n in 0u32..6,
        ev in 0u8..2,
    ) {
        let mut cmds: Vec<String> = picks
            .iter()
            .zip(corpus.iter().cycle())
            .map(|(p, c)| printing_shape(*p, c, n))
            .collect();
        cmds.extend(corpus.iter().cloned());
        let _ = assert_same_as_reference(k, &cmds, ev == 1);
    }
}

#[test]
fn fixed_printing_shapes_match_on_every_backend() {
    for k in 0..4 {
        let cmds: Vec<String> = (0..14).map(|p| printing_shape(p, "x[1..3]", 3)).collect();
        // Every backend really prints: the oracle compares output, not
        // just values.
        assert!(
            assert_same_as_reference(k, &cmds, true) >= 10,
            "backend {k}"
        );
        assert!(
            assert_same_as_reference(k, &cmds, false) >= 10,
            "backend {k}"
        );
    }
}

/// Counts the `take_output` calls that pass through it.
struct DrainCounter<T> {
    inner: T,
    drains: Arc<AtomicU64>,
}

impl<T: Target> Layer for DrainCounter<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.inner
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        if let Op::TakeOutput = op {
            self.drains.fetch_add(1, Ordering::Relaxed);
        }
        op.apply(&mut self.inner)
    }
}

#[test]
fn drains_once_per_command_plus_once_per_target_call() {
    let drains = Arc::new(AtomicU64::new(0));
    let mut t = DrainCounter {
        inner: scenario::scan_array(),
        drains: drains.clone(),
    };
    let mut s = Session::new(&mut t);
    let count = |s: &mut Session<'_>, src: &str| {
        let before = drains.load(Ordering::Relaxed);
        let lines = s.eval_lines(src).unwrap();
        (lines, drains.load(Ordering::Relaxed) - before)
    };
    // A 60-value scan runs no target code: only the end-of-command drain.
    let (lines, n) = count(&mut s, "x[..60]");
    assert_eq!(lines.len(), 60);
    assert_eq!(n, 1);
    // Three `printf` calls: one drain after each, plus the final one.
    let (lines, n) = count(&mut s, "printf(\"%d\\n\", x[..3])");
    assert_eq!(lines, ["100", "101", "102"]);
    assert_eq!(n, 4);
}
