//! `duel_eval` — the resumable generator evaluator.
//!
//! The paper implements generators by giving every AST node a `state`
//! field and a saved `value`, so that "each call to eval produces one of
//! the values" and the distinguished `NOVALUE` ends a sequence, after
//! which "the next call to eval re-evaluates the node". This module is a
//! direct transliteration:
//!
//! * every operator compiles to a small state machine implementing
//!   [`GenT`];
//! * `next` returns `Ok(Some(value))` for each produced value and
//!   `Ok(None)` for `NOVALUE`;
//! * on returning `None`, a generator rewinds its own state, so a parent
//!   that calls it again restarts it — exactly the paper's
//!   `n->state = 0` protocol;
//! * [`GenT::reset`] force-rewinds a generator mid-stream, which the
//!   paper's `select` needs (`n->kids[1]->state = 0`).
//!
//! The paper's `yield`-style pseudo-code for each operator is quoted in
//! the corresponding submodule.

mod basic;
mod control;
mod misc;
mod structure;

use std::sync::{
    atomic::{AtomicUsize, Ordering},
    Arc,
};

use crate::{ast::Expr, error::DuelResult, scope::Ctx, sym::SymMode, value::Value};

/// Evaluation options.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalOptions {
    /// Hard limit on values produced by one command (protects against
    /// `0..` runaways). The paper's implementation had no limit; ours
    /// reports [`crate::DuelError::LimitExceeded`].
    pub max_values: u64,
    /// Chains of `->name` steps at least this long display as
    /// `-->name[[n]]`. The paper's transcripts imply thresholds between
    /// 2 and 9; 4 matches most of them.
    pub compress_threshold: u32,
    /// Whether symbolic values are constructed (experiment E4 ablates
    /// this).
    pub sym_mode: SymMode,
    /// Guard `-->`/`-->>` against cycles with a visited set. The paper's
    /// implementation "does not handle cycles"; disabling this
    /// reproduces that behaviour (bounded by `max_values`).
    pub dfs_cycle_check: bool,
    /// Hard limit on evaluation *steps* (leaf-generator activations),
    /// bounding even loops that produce no values (`while (1) (1..0)`).
    /// Exhausting it reports [`crate::DuelError::BudgetExceeded`] with
    /// budget `"step"`.
    pub max_ticks: u64,
    /// Hard limit on generator nesting depth, bounding the native call
    /// stack against pathologically nested expressions. Budget
    /// `"depth"`.
    pub max_depth: u64,
    /// Hard limit on nodes visited per root value of a `-->`/`-->>`
    /// expansion — the backstop that terminates cyclic structures when
    /// [`EvalOptions::dfs_cycle_check`] is off. Budget `"expansion"`.
    pub max_expand: u64,
    /// Wall-clock deadline for one command, in milliseconds (0 = no
    /// deadline). Budget `"time"`.
    pub timeout_ms: u64,
    /// Render fault-class errors (unmapped memory, unknown symbols)
    /// that occur while *displaying* one value of a stream as
    /// `sym = <error: ...>` lines and keep the stream going, instead of
    /// aborting the command. Off by default: the paper's sessions stop
    /// at the first error.
    pub error_values: bool,
    /// Trace every generator resumption (the paper's `eval` calls) into
    /// the session's trace buffer — the Semantics section's evaluation
    /// walkthroughs, made observable.
    pub trace: bool,
    /// Generator-aware prefetch: when a generator is about to expand a
    /// compile-time-known contiguous range (`x[a..b]`, `x[..n]`), warm
    /// the cache in windowed vectored reads first, so the
    /// element-by-element scan that follows is served locally instead
    /// of one wire turn per element. Purely advisory (values and errors
    /// are identical either way); off by default so read-count-sensitive
    /// experiments are undisturbed. Structure walks do not depend on
    /// it: a `-->` over a ranged root reads its chains level by level
    /// whenever the tower's page cache is enabled.
    pub prefetch: bool,
    /// Prefetch window size in cache pages: a planner warm-up never
    /// reads more than this many pages in one call, so warming
    /// `x[..100000]` costs bounded memory instead of one giant buffer.
    /// When the tower has an I/O actor below the cache, windows are
    /// double-buffered: window *k+1* is on the wire while the evaluator
    /// consumes window *k*. A `-->` over a ranged root reads at most
    /// one window per batch and two per group of chains.
    pub prefetch_window: usize,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            max_values: 1_000_000,
            compress_threshold: 4,
            sym_mode: SymMode::Eager,
            dfs_cycle_check: true,
            max_ticks: 100_000_000,
            max_depth: 256,
            max_expand: 1_000_000,
            timeout_ms: 0,
            error_values: false,
            trace: false,
            prefetch: false,
            prefetch_window: 64,
        }
    }
}

/// A compiled generator node.
///
/// The contract mirrors the paper's `eval`:
/// * `next` yields the node's next value, or `None` when the sequence is
///   exhausted — after which the node has rewound itself and a further
///   `next` restarts the sequence;
/// * `reset` rewinds unconditionally (used by `select` and by reductions
///   that stop early).
pub trait GenT {
    /// Produces the next value of this generator.
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>>;

    /// Rewinds to the initial state.
    fn reset(&mut self);
}

/// A boxed generator.
pub type Gen = Box<dyn GenT>;

/// A wrapper that logs each resumption of its inner generator — one
/// line per `eval` call, exactly the paper's walkthrough of
/// `(1..3)+(5,9)`. Also the evaluator's *unified* span boundary: every
/// observer of node entry/exit hangs off this one seam. When profiling
/// is on, entry/exit snapshot the tick and wire-read counters so the
/// deltas can be charged to this node (see [`crate::profile`]); when
/// causal tracing is on, the same entry/exit opens and closes a
/// [`duel_target::SpanKind::Node`] span, so every wire event the
/// resumption triggers anywhere down the tower is attributed to this
/// AST node. A `ProfileReport` is thus a fold over the same enter/exit
/// stream the span ring records — the two views cannot drift apart.
struct TraceGen {
    /// Unique per compiled node; keys the node's profile row.
    id: usize,
    label: &'static str,
    /// Clipped symbolic text, e.g. `x[..256]`. Shared (`Arc<str>`)
    /// rather than owned: span details and profile rows borrow or
    /// cheaply clone it, so a node resumed a million times never
    /// re-allocates its own name.
    text: Arc<str>,
    inner: Gen,
}

/// Ids are process-global so nodes compiled mid-evaluation (the `-->`
/// template, `@` stop conditions) never collide with the main tree.
static NODE_IDS: AtomicUsize = AtomicUsize::new(0);

impl GenT for TraceGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        // Every compiled node passes through here, so the nesting depth
        // of `next` calls — and with it the native stack — is bounded
        // even when tracing is off.
        ctx.trace_depth += 1;
        if ctx.trace_depth as u64 > ctx.opts.max_depth {
            ctx.trace_depth -= 1;
            return Err(crate::error::DuelError::BudgetExceeded {
                budget: "depth".into(),
                limit: ctx.opts.max_depth,
                sym: self.label.to_string(),
            });
        }
        if ctx.trace_depth > ctx.max_depth_seen {
            ctx.max_depth_seen = ctx.trace_depth;
        }
        let profiling = ctx.profile.is_some();
        if profiling {
            ctx.profile_enter(self.id);
        }
        let span = ctx.span_enter(duel_target::SpanKind::Node, self.label, || {
            // Materialized only when a span is actually recorded.
            self.text.to_string()
        });
        let depth = ctx.trace_depth;
        let r = self.inner.next(ctx);
        ctx.trace_depth -= 1;
        let yielded = matches!(r, Ok(Some(_)));
        if yielded {
            ctx.yields += 1;
        }
        ctx.span_exit(span);
        if profiling {
            ctx.profile_exit(self.id, self.label, &self.text, yielded);
        }
        if ctx.opts.trace {
            let outcome = match &r {
                Ok(Some(v)) => {
                    let thr = ctx.opts.compress_threshold;
                    format!("yield {}", v.sym.render(thr))
                }
                Ok(None) => "NOVALUE".to_string(),
                Err(e) => format!("error: {e}"),
            };
            ctx.trace.push(format!(
                "{}eval({}) -> {}",
                "  ".repeat(depth - 1),
                self.label,
                outcome
            ));
        }
        r
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The paper's operator name for an expression node.
fn op_label(e: &Expr) -> &'static str {
    use Expr::*;
    match e {
        Int(_) | Float(_) | Char(_) | Str(_) => "constant",
        Name(_) | Underscore => "name",
        To(..) | ToPrefix(..) | ToInf(..) => "to",
        Alt(..) => "alternate",
        Unary(..) | PreIncDec { .. } | PostIncDec { .. } => "unary",
        SizeofExpr(..) | SizeofType(..) => "sizeof",
        Cast(..) => "cast",
        Bin(..) => "binary",
        AndAnd(..) => "andand",
        OrOr(..) => "oror",
        Cond(..) | If(..) => "if",
        Assign(..) => "assign",
        Filter(..) => "ifcmp",
        Index(..) => "index",
        Select(..) => "select",
        With(..) => "with",
        Dfs(..) => "dfs",
        Bfs(..) => "bfs",
        Imply(..) => "imply",
        Seq(..) | Discard(..) => "sequence",
        While(..) => "while",
        For { .. } => "for",
        Alias(..) => "define",
        Decl { .. } => "declare",
        Call(..) => "call",
        Reduce(..) => "reduce",
        IndexAlias(..) => "index-alias",
        Until(..) => "until",
        Braced(..) => "substitute",
    }
}

/// Compiles an expression into its generator tree.
pub fn compile(e: &Expr) -> Gen {
    let label = op_label(e);
    let text: Arc<str> = crate::profile::clip(&crate::profile::expr_text(e), 48).into();
    let inner = compile_inner(e);
    Box::new(TraceGen {
        id: NODE_IDS.fetch_add(1, Ordering::Relaxed),
        label,
        text,
        inner,
    })
}

fn compile_inner(e: &Expr) -> Gen {
    use Expr::*;
    match e {
        Int(v) => basic::constant_int(*v),
        Float(v) => basic::constant_float(*v),
        Char(c) => basic::constant_char(*c),
        Str(s) => misc::string_literal(s.clone()),
        Name(n) => basic::name(n.clone()),
        Underscore => basic::name("_".to_string()),
        To(a, b) => basic::to(compile(a), compile(b)),
        ToPrefix(a) => basic::to_prefix(compile(a)),
        ToInf(a) => basic::to_inf(compile(a)),
        Alt(a, b) => basic::alternate(compile(a), compile(b)),
        Unary(op, a) => basic::unary(*op, compile(a), is_constant(e)),
        PreIncDec { inc, expr } => misc::incdec(true, *inc, compile(expr)),
        PostIncDec { inc, expr } => misc::incdec(false, *inc, compile(expr)),
        SizeofExpr(a) => misc::sizeof_expr(compile(a)),
        SizeofType(t) => misc::sizeof_type(t.clone()),
        Cast(t, a) => misc::cast(t.clone(), compile(a), is_constant(e)),
        Bin(op, a, b) => basic::binary(*op, compile(a), compile(b), is_constant(e)),
        AndAnd(a, b) => control::andand(compile(a), compile(b)),
        OrOr(a, b) => control::oror(compile(a), compile(b)),
        Cond(c, a, b) => control::if_gen(compile(c), compile(a), Some(compile(b))),
        Assign(op, l, r) => misc::assign(*op, compile(l), compile(r)),
        Filter(op, a, b) => basic::filter(*op, compile(a), compile(b)),
        Index(a, b) => structure::index(compile(a), compile(b), range_hint(b)),
        Select(a, b) => structure::select(compile(a), compile(b)),
        With(link, a, b) => structure::with(*link, compile(a), compile(b)),
        Dfs(a, b) => structure::expand(compile(a), b, false, wave_hint(a, b)),
        Bfs(a, b) => structure::expand(compile(a), b, true, wave_hint(a, b)),
        Imply(a, b) => control::imply(compile(a), compile(b)),
        Seq(a, b) => control::seq(compile(a), compile(b)),
        Discard(a) => control::discard(compile(a)),
        If(c, t, f) => control::if_gen(compile(c), compile(t), f.as_ref().map(|f| compile(f))),
        While(c, b) => control::while_gen(compile(c), compile(b)),
        For {
            init,
            cond,
            step,
            body,
        } => control::for_gen(
            init.as_ref().map(|e| compile(e)),
            cond.as_ref().map(|e| compile(e)),
            step.as_ref().map(|e| compile(e)),
            compile(body),
        ),
        Alias(name, a) => misc::alias(name.clone(), compile(a)),
        Decl { base, decls } => misc::decl(base.clone(), decls.clone()),
        // Built-in pseudo-functions (extensions for the paper's
        // "unnamed portions of the program state" future work):
        // `frames()` generates the active frame indices, and
        // `local("x", k)` resolves a local in frame `k`.
        Call(name, args) if name == "frames" && args.is_empty() => misc::frames(),
        Call(name, args)
            if name == "local" && args.len() == 2 && matches!(args[0], Expr::Str(_)) =>
        {
            let var = match &args[0] {
                Expr::Str(s) => s.clone(),
                _ => unreachable!("guard checked"),
            };
            misc::local(var, compile(&args[1]))
        }
        // `equal(e1, e2)` — the paper's `(equality e1 e2)` reduction:
        // "returns 1 if the values produced by e1 are equal to those
        // produced by e2 and 0 otherwise". The paper names it without
        // giving concrete syntax; it is exposed as a builtin.
        Call(name, args) if name == "equal" && args.len() == 2 => {
            misc::seq_equal(compile(&args[0]), compile(&args[1]))
        }
        Call(name, args) => misc::call(name.clone(), args.iter().map(compile).collect()),
        Reduce(op, a) => misc::reduce(*op, compile(a)),
        IndexAlias(a, name) => structure::index_alias(compile(a), name.clone()),
        Until(a, stop) => structure::until(compile(a), stop),
        Braced(a) => misc::braced(compile(a)),
    }
}

/// Does `e` yield one value that nothing in the command can change?
/// True for numeric and character literals, and for arithmetic, casts
/// and value-producing unary operators over such operands; `*` and `&`
/// name memory, so they are never constant. Such an operator keeps its
/// first result (see `basic::Memo`).
fn is_constant(e: &Expr) -> bool {
    use crate::ast::UnOp::{Addr, Deref};
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Char(_) => true,
        Expr::Unary(op, a) => !matches!(op, Deref | Addr) && is_constant(a),
        Expr::Bin(_, a, b) => is_constant(a) && is_constant(b),
        Expr::Cast(_, a) => is_constant(a),
        _ => false,
    }
}

/// Constant-folds an integer literal (allowing `-`/`+` prefixes), the
/// same closure the `@` stop operand uses.
fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Char(c) => Some(*c as i64),
        Expr::Unary(crate::ast::UnOp::Neg, inner) => const_int(inner).map(|v| -v),
        Expr::Unary(crate::ast::UnOp::Pos, inner) => const_int(inner),
        _ => None,
    }
}

/// The prefetch planner's compile-time analysis: does this index
/// expression enumerate a known contiguous inclusive range? `x[a..b]`
/// yields `a..=b`; the prefix form `x[..n]` yields `0..=n-1`. Anything
/// data-dependent (filters, `a..`, computed bounds) gets no hint — the
/// demand path handles it exactly as before.
fn range_hint(e: &Expr) -> Option<(i64, i64)> {
    match e {
        Expr::To(a, b) => {
            let (lo, hi) = (const_int(a)?, const_int(b)?);
            (lo <= hi).then_some((lo, hi))
        }
        Expr::ToPrefix(n) => {
            let n = const_int(n)?;
            (n > 0).then_some((0, n - 1))
        }
        _ => None,
    }
}

/// The wavefront planner's compile-time analysis of a `-->`/`-->>`:
/// is its root a hinted range (`base[lo..hi]`, `base[..n]`) over a base
/// with no generator operators, and its step a bare name? Then the
/// root yields exactly `hi - lo + 1` values, one per consecutive slot.
/// Returns that count and the name; whether the name is a pointer
/// field of the node struct is checked at run time.
fn wave_hint(root: &Expr, step: &Expr) -> Option<(u64, String)> {
    let (Expr::Index(base, idx), Expr::Name(field)) = (root, step) else {
        return None;
    };
    let (lo, hi) = range_hint(idx)?;
    let total = hi.checked_sub(lo)?.checked_add(1)?;
    (!base.has_duel_ops()).then(|| (total as u64, field.clone()))
}

/// Drives a generator to exhaustion, feeding each value to `f` — the
/// top-level `duel` command loop.
pub fn drive(
    ctx: &mut Ctx<'_>,
    gen: &mut Gen,
    mut f: impl FnMut(&mut Ctx<'_>, Value) -> DuelResult<()>,
) -> DuelResult<()> {
    while let Some(v) = gen.next(ctx)? {
        ctx.count_value()?;
        f(ctx, v)?;
    }
    Ok(())
}

/// Collects every value a generator produces (test/bench convenience).
pub fn collect(ctx: &mut Ctx<'_>, gen: &mut Gen) -> DuelResult<Vec<Value>> {
    let mut out = Vec::new();
    drive(ctx, gen, |_, v| {
        out.push(v);
        Ok(())
    })?;
    Ok(out)
}

/// Pulls the first value of a sub-generator and resets it — used by
/// operators whose operand is semantically single-valued (e.g. the `@`
/// stop condition).
pub(crate) fn first_value(ctx: &mut Ctx<'_>, gen: &mut Gen) -> DuelResult<Option<Value>> {
    let v = gen.next(ctx)?;
    if v.is_some() {
        gen.reset();
    }
    Ok(v)
}
