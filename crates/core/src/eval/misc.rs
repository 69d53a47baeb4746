//! Remaining generators: aliases, declarations, calls, reductions,
//! assignment, casts, `sizeof`, string literals, and `{e}`.

use duel_ctype::{Prim, TypeId};
use duel_target::Target;

use crate::{
    apply,
    ast::{BaseType, BinOp, Declarator, Deriv, ReduceOp, TypeExpr},
    error::{DuelError, DuelResult},
    printer,
    scope::Ctx,
    sym::{precedence, Sym},
    value::{Scalar, Value},
};

use super::{basic::Memo, first_value, Gen, GenT};

/// Resolves a parsed type name against the target's type table —
/// evaluation-time type checking, per the paper.
pub fn resolve_type(ctx: &mut Ctx<'_>, te: &TypeExpr, extra: &[Deriv]) -> DuelResult<TypeId> {
    let mut ty = match &te.base {
        BaseType::Void => ctx.target.types_mut().void(),
        BaseType::Prim(p) => ctx.target.types_mut().prim(*p),
        BaseType::Struct(tag) => {
            ctx.target
                .lookup_struct(tag)
                .ok_or_else(|| DuelError::Type {
                    sym: format!("struct {tag}"),
                    message: "unknown struct tag".into(),
                })?;
            ctx.target.types_mut().declare_struct(tag).1
        }
        BaseType::Union(tag) => {
            ctx.target
                .lookup_union(tag)
                .ok_or_else(|| DuelError::Type {
                    sym: format!("union {tag}"),
                    message: "unknown union tag".into(),
                })?;
            ctx.target.types_mut().declare_union(tag).1
        }
        BaseType::Enum(tag) => {
            let eid = ctx.target.lookup_enum(tag).ok_or_else(|| DuelError::Type {
                sym: format!("enum {tag}"),
                message: "unknown enum tag".into(),
            })?;
            let def = ctx.target.types().enum_def(eid).clone();
            ctx.target
                .types_mut()
                .define_enum(Some(tag), def.enumerators)
                .1
        }
        BaseType::Typedef(name) => {
            ctx.target
                .lookup_typedef(name)
                .ok_or_else(|| DuelError::Type {
                    sym: name.clone(),
                    message: "unknown type name".into(),
                })?
        }
    };
    // Pointer stars apply first, then array dimensions innermost-first
    // (`int m[3][4]` is an array of 3 arrays of 4 ints).
    let all: Vec<&Deriv> = te.derivs.iter().chain(extra.iter()).collect();
    for d in all.iter().filter(|d| matches!(d, Deriv::Ptr)) {
        let _ = d;
        ty = ctx.target.types_mut().pointer(ty);
    }
    for d in all.iter().rev() {
        if let Deriv::Array(n) = d {
            ty = ctx.target.types_mut().array(ty, *n);
        }
    }
    Ok(ty)
}

// ----- string literals --------------------------------------------------

/// A string literal, interned into target scratch space on first use
/// (per generator node) and yielded as a `char[]` lvalue that decays to
/// a pointer.
struct StrGen {
    s: String,
    addr: Option<u64>,
    done: bool,
}

impl GenT for StrGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        ctx.tick()?;
        if self.done {
            self.done = false;
            return Ok(None);
        }
        self.done = true;
        let addr = match self.addr {
            Some(a) => a,
            None => {
                let len = self.s.len() as u64 + 1;
                ctx.ran_target_code = true;
                let a = ctx.target.alloc_space(len, 1)?;
                ctx.target.put_bytes(a, self.s.as_bytes())?;
                ctx.target.put_bytes(a + self.s.len() as u64, &[0])?;
                self.addr = Some(a);
                a
            }
        };
        let ch = ctx.target.types_mut().prim(Prim::Char);
        let aty = ctx
            .target
            .types_mut()
            .array(ch, Some(self.s.len() as u64 + 1));
        let sym = ctx.sym_leaf(format!("{:?}", self.s));
        Ok(Some(Value::lval(aty, addr, sym)))
    }

    fn reset(&mut self) {
        self.done = false;
    }
}

/// A string literal.
pub fn string_literal(s: String) -> Gen {
    Box::new(StrGen {
        s,
        addr: None,
        done: false,
    })
}

// ----- alias / declarations ----------------------------------------------

/// `a := e` — the paper's `define`:
///
/// ```text
/// case DEFINE:
///   while (u = eval(n->kids[1])) { alias(n->name, u); yield u }
/// ```
struct AliasGen {
    name: String,
    e: Gen,
}

impl GenT for AliasGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        match self.e.next(ctx)? {
            Some(v) => {
                ctx.set_alias(&self.name, v.clone());
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    fn reset(&mut self) {
        self.e.reset();
    }
}

/// `a := e`.
pub fn alias(name: String, e: Gen) -> Gen {
    Box::new(AliasGen { name, e })
}

/// A DUEL declaration: "Duel declarations, e.g., `int i`, establishes
/// aliases to newly allocated target locations"
/// (`duel_alloc_target_space`). Produces no values.
struct DeclGen {
    base: TypeExpr,
    decls: Vec<Declarator>,
    allocated: bool,
}

impl GenT for DeclGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if !self.allocated {
            self.allocated = true;
            for d in &self.decls {
                let ty = resolve_type(ctx, &self.base, &d.derivs)?;
                let (size, align) = ctx
                    .target
                    .types()
                    .size_align(ty, ctx.target.abi())
                    .map_err(|e| DuelError::Type {
                        sym: d.name.clone(),
                        message: e.to_string(),
                    })?;
                ctx.ran_target_code = true;
                let addr = ctx.target.alloc_space(size, align)?;
                // Zero-initialize so fresh DUEL variables are
                // deterministic.
                ctx.target.put_bytes(addr, &vec![0u8; size as usize])?;
                let sym = ctx.sym_leaf(&d.name);
                ctx.set_alias(&d.name, Value::lval(ty, addr, sym));
            }
        }
        Ok(None)
    }

    fn reset(&mut self) {
        // Deliberately not re-allocating: a declaration takes effect
        // once per command.
    }
}

/// A declaration.
pub fn decl(base: TypeExpr, decls: Vec<Declarator>) -> Gen {
    Box::new(DeclGen {
        base,
        decls,
        allocated: false,
    })
}

// ----- assignment and ++/-- ----------------------------------------------

fn assign_spelling(op: Option<BinOp>) -> &'static str {
    match op {
        None => "=",
        Some(BinOp::Add) => "+=",
        Some(BinOp::Sub) => "-=",
        Some(BinOp::Mul) => "*=",
        Some(BinOp::Div) => "/=",
        Some(BinOp::Rem) => "%=",
        Some(BinOp::BitAnd) => "&=",
        Some(BinOp::BitOr) => "|=",
        Some(BinOp::BitXor) => "^=",
        Some(BinOp::Shl) => "<<=",
        Some(BinOp::Shr) => ">>=",
        _ => "=",
    }
}

/// `e1 = e2` (and `op=`) — C's assignment, unchanged, applied to every
/// combination of generated lvalues and values (the paper's
/// `hash[0..1023]->scope = 0`).
struct AssignGen {
    op: Option<BinOp>,
    l: Gen,
    r: Gen,
    cur: Option<Value>,
}

impl GenT for AssignGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if self.cur.is_none() {
                match self.l.next(ctx)? {
                    Some(u) => self.cur = Some(u),
                    None => return Ok(None),
                }
            }
            match self.r.next(ctx)? {
                Some(v) => {
                    // Borrowed, not cloned: the lvalue is only ever
                    // read here (type, address, symbolic text).
                    let lhs = self.cur.as_ref().unwrap();
                    let eager = ctx.eager_sym();
                    let stored = match self.op {
                        None => {
                            let s = apply::load(&mut ctx.target, &v)?;
                            apply::store(&mut ctx.target, lhs, s)?
                        }
                        Some(op) => {
                            let combined = apply::binary(&mut ctx.target, op, lhs, &v, false)?;
                            let s = apply::load(&mut ctx.target, &combined)?;
                            apply::store(&mut ctx.target, lhs, s)?
                        }
                    };
                    let sym = if eager {
                        Sym::bin(
                            assign_spelling(self.op),
                            precedence::ASSIGN,
                            &lhs.sym,
                            &v.sym,
                        )
                    } else {
                        Sym::none()
                    };
                    return Ok(Some(Value::rval(lhs.ty, stored, sym)));
                }
                None => self.cur = None,
            }
        }
    }

    fn reset(&mut self) {
        self.l.reset();
        self.r.reset();
        self.cur = None;
    }
}

/// Assignment.
pub fn assign(op: Option<BinOp>, l: Gen, r: Gen) -> Gen {
    Box::new(AssignGen {
        op,
        l,
        r,
        cur: None,
    })
}

/// `++e`, `--e`, `e++`, `e--` — pointer-aware, per C.
struct IncDecGen {
    pre: bool,
    inc: bool,
    e: Gen,
}

impl GenT for IncDecGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        match self.e.next(ctx)? {
            None => Ok(None),
            Some(u) => {
                let eager = ctx.eager_sym();
                let old = apply::load(&mut ctx.target, &u)?;
                let int_ty = ctx.target.types_mut().prim(Prim::Int);
                let one = Value::rval(int_ty, Scalar::Int(1), Sym::leaf("1"));
                let op = if self.inc { BinOp::Add } else { BinOp::Sub };
                let newv = apply::binary(&mut ctx.target, op, &u, &one, false)?;
                let news = apply::load(&mut ctx.target, &newv)?;
                let stored = apply::store(&mut ctx.target, &u, news)?;
                let opname = if self.inc { "++" } else { "--" };
                let sym = if eager {
                    if self.pre {
                        Sym::un(if self.inc { "++" } else { "--" }, &u.sym)
                    } else {
                        Sym::leaf(format!(
                            "{}{}",
                            u.sym.render(ctx.opts.compress_threshold),
                            opname
                        ))
                    }
                } else {
                    Sym::none()
                };
                let result = if self.pre { stored } else { old };
                Ok(Some(Value::rval(u.ty, result, sym)))
            }
        }
    }

    fn reset(&mut self) {
        self.e.reset();
    }
}

/// `++`/`--` in either position.
pub fn incdec(pre: bool, inc: bool, e: Gen) -> Gen {
    Box::new(IncDecGen { pre, inc, e })
}

// ----- casts and sizeof ---------------------------------------------------

/// `(type)e`.
struct CastGen {
    te: TypeExpr,
    e: Gen,
    resolved: Option<TypeId>,
    memo: Memo,
}

impl GenT for CastGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        match self.e.next(ctx)? {
            None => Ok(None),
            Some(u) => {
                let ty = match self.resolved {
                    Some(t) => t,
                    None => {
                        let t = resolve_type(ctx, &self.te, &[])?;
                        self.resolved = Some(t);
                        t
                    }
                };
                let eager = ctx.eager_sym();
                self.memo
                    .get(|| apply::cast(&mut ctx.target, ty, &u, eager))
                    .map(Some)
            }
        }
    }

    fn reset(&mut self) {
        self.e.reset();
    }
}

/// `(type)e`; `constant` when it is built from literals alone (see
/// [`Memo`]).
pub fn cast(te: TypeExpr, e: Gen, constant: bool) -> Gen {
    Box::new(CastGen {
        te,
        e,
        resolved: None,
        memo: Memo::new(constant),
    })
}

struct SizeofGen {
    te: Option<TypeExpr>,
    e: Option<Gen>,
    done: bool,
}

impl GenT for SizeofGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if self.done {
            self.done = false;
            return Ok(None);
        }
        self.done = true;
        let ty = match (&self.te, &mut self.e) {
            (Some(te), _) => resolve_type(ctx, te, &[])?,
            (None, Some(e)) => match first_value(ctx, e)? {
                Some(v) => v.ty,
                None => {
                    return Err(DuelError::Type {
                        sym: "sizeof".into(),
                        message: "operand of sizeof produced no value".into(),
                    })
                }
            },
            _ => unreachable!("sizeof has an operand"),
        };
        let size = ctx
            .target
            .types()
            .size_of(ty, ctx.target.abi())
            .map_err(|e| DuelError::Type {
                sym: "sizeof".into(),
                message: e.to_string(),
            })?;
        let ulong = ctx.target.types_mut().prim(Prim::ULong);
        let text = format!("sizeof({})", ctx.target.types().display(ty));
        let sym = ctx.sym_leaf(text);
        Ok(Some(Value::rval(ulong, Scalar::Int(size as i64), sym)))
    }

    fn reset(&mut self) {
        self.done = false;
        if let Some(e) = self.e.as_mut() {
            e.reset();
        }
    }
}

/// `sizeof e`.
pub fn sizeof_expr(e: Gen) -> Gen {
    Box::new(SizeofGen {
        te: None,
        e: Some(e),
        done: false,
    })
}

/// `sizeof(type)`.
pub fn sizeof_type(te: TypeExpr) -> Gen {
    Box::new(SizeofGen {
        te: Some(te),
        e: None,
        done: false,
    })
}

// ----- calls ----------------------------------------------------------------

/// A target-function call. "If any of the arguments are generators, the
/// function is called repeatedly for all combinations of values" — the
/// paper's `printf("%d %d, ", (3,4), 5..7)` makes six calls, leftmost
/// argument varying slowest.
struct CallGen {
    name: String,
    args: Vec<Gen>,
    cur: Vec<Value>,
    started: bool,
}

impl CallGen {
    fn perform(&self, ctx: &mut Ctx<'_>) -> DuelResult<Value> {
        if !ctx.target.has_function(&self.name) {
            return Err(DuelError::Target(
                duel_target::TargetError::UnknownFunction(self.name.clone()),
            ));
        }
        let mut call_args = Vec::with_capacity(self.cur.len());
        for v in &self.cur {
            call_args.push(apply::to_call_value(&mut ctx.target, v)?);
        }
        ctx.ran_target_code = true;
        let ret = ctx.target.call_func(&self.name, &call_args)?;
        let sym = if ctx.eager_sym() {
            Sym::call(&self.name, self.cur.iter().map(|v| v.sym.clone()).collect())
        } else {
            Sym::none()
        };
        apply::from_call_value(&mut ctx.target, &ret, sym)
    }
}

impl GenT for CallGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if !self.started {
            self.cur.clear();
            for a in self.args.iter_mut() {
                match a.next(ctx)? {
                    Some(v) => self.cur.push(v),
                    None => {
                        // An empty argument generator: no calls at all.
                        for b in self.args.iter_mut() {
                            b.reset();
                        }
                        return Ok(None);
                    }
                }
            }
            self.started = true;
            return self.perform(ctx).map(Some);
        }
        // Advance the odometer, rightmost argument fastest.
        let n = self.args.len();
        let mut k = n;
        loop {
            if k == 0 {
                self.started = false;
                self.cur.clear();
                return Ok(None);
            }
            k -= 1;
            match self.args[k].next(ctx)? {
                Some(v) => {
                    self.cur[k] = v;
                    // Restart everything to the right.
                    let mut ok = true;
                    for j in k + 1..n {
                        match self.args[j].next(ctx)? {
                            Some(v) => self.cur[j] = v,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        self.started = false;
                        self.cur.clear();
                        for b in self.args.iter_mut() {
                            b.reset();
                        }
                        return Ok(None);
                    }
                    return self.perform(ctx).map(Some);
                }
                None => {
                    // Exhausted (and auto-rewound); carry leftward.
                }
            }
        }
    }

    fn reset(&mut self) {
        for a in self.args.iter_mut() {
            a.reset();
        }
        self.cur.clear();
        self.started = false;
    }
}

/// `f(args…)`.
pub fn call(name: String, args: Vec<Gen>) -> Gen {
    Box::new(CallGen {
        name,
        args,
        cur: Vec::new(),
        started: false,
    })
}

// ----- reductions ------------------------------------------------------------

/// `#/e`, `+/e`, `&&/e`, `||/e`, `>/e`, `</e` — APL-style reductions:
/// "(count e) returns the number of values produced by e, (sum e) sums
/// the values produced by e".
struct ReduceGen {
    op: ReduceOp,
    e: Gen,
    done: bool,
}

impl GenT for ReduceGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if self.done {
            self.done = false;
            return Ok(None);
        }
        self.done = true;
        let long_ty = ctx.target.types_mut().prim(Prim::LongLong);
        let dbl_ty = ctx.target.types_mut().prim(Prim::Double);
        match self.op {
            ReduceOp::Count => {
                let mut n: i64 = 0;
                while self.e.next(ctx)?.is_some() {
                    n += 1;
                }
                Ok(Some(Value::rval(long_ty, Scalar::Int(n), Sym::none())))
            }
            ReduceOp::Sum => {
                let mut isum: i64 = 0;
                let mut fsum: f64 = 0.0;
                let mut any_float = false;
                while let Some(v) = self.e.next(ctx)? {
                    match apply::load(&mut ctx.target, &v)? {
                        Scalar::Int(i) => {
                            isum = isum.wrapping_add(i);
                            fsum += i as f64;
                        }
                        Scalar::Float(f) => {
                            any_float = true;
                            fsum += f;
                        }
                        Scalar::Ptr(p) => {
                            isum = isum.wrapping_add(p as i64);
                            fsum += p as f64;
                        }
                    }
                }
                Ok(Some(if any_float {
                    Value::rval(dbl_ty, Scalar::Float(fsum), Sym::none())
                } else {
                    Value::rval(long_ty, Scalar::Int(isum), Sym::none())
                }))
            }
            ReduceOp::All => {
                let mut all = true;
                while let Some(v) = self.e.next(ctx)? {
                    if !apply::truthy(&mut ctx.target, &v)? {
                        all = false;
                        self.e.reset();
                        break;
                    }
                }
                Ok(Some(Value::rval(
                    long_ty,
                    Scalar::Int(all as i64),
                    Sym::none(),
                )))
            }
            ReduceOp::Any => {
                let mut any = false;
                while let Some(v) = self.e.next(ctx)? {
                    if apply::truthy(&mut ctx.target, &v)? {
                        any = true;
                        self.e.reset();
                        break;
                    }
                }
                Ok(Some(Value::rval(
                    long_ty,
                    Scalar::Int(any as i64),
                    Sym::none(),
                )))
            }
            ReduceOp::Max | ReduceOp::Min => {
                let want_max = self.op == ReduceOp::Max;
                let mut best: Option<Value> = None;
                let mut best_key: f64 = 0.0;
                while let Some(v) = self.e.next(ctx)? {
                    let key = match apply::load(&mut ctx.target, &v)? {
                        Scalar::Int(i) => i as f64,
                        Scalar::Float(f) => f,
                        Scalar::Ptr(p) => p as f64,
                    };
                    let better = match best {
                        None => true,
                        Some(_) => {
                            if want_max {
                                key > best_key
                            } else {
                                key < best_key
                            }
                        }
                    };
                    if better {
                        best_key = key;
                        best = Some(v);
                    }
                }
                // The extremum keeps its own symbolic value, which
                // pinpoints *where* it came from.
                Ok(best)
            }
        }
    }

    fn reset(&mut self) {
        self.e.reset();
        self.done = false;
    }
}

/// A reduction.
pub fn reduce(op: ReduceOp, e: Gen) -> Gen {
    Box::new(ReduceGen { op, e, done: false })
}

// ----- sequence equality (the paper's `equality`) ---------------------------

/// `equal(e1, e2)` — the paper's `(equality e1 e2)`: 1 if the two value
/// sequences are element-wise equal (same length, same values), else 0.
struct SeqEqualGen {
    a: Gen,
    b: Gen,
    done: bool,
}

impl GenT for SeqEqualGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if self.done {
            self.done = false;
            return Ok(None);
        }
        self.done = true;
        let mut eq = true;
        loop {
            let av = self.a.next(ctx)?;
            let bv = self.b.next(ctx)?;
            match (av, bv) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    let xs = apply::load(&mut ctx.target, &x)?;
                    let ys = apply::load(&mut ctx.target, &y)?;
                    let same = match (xs, ys) {
                        (Scalar::Int(i), Scalar::Int(j)) => i == j,
                        (Scalar::Float(i), Scalar::Float(j)) => i == j,
                        (Scalar::Ptr(i), Scalar::Ptr(j)) => i == j,
                        (Scalar::Int(i), Scalar::Ptr(j)) | (Scalar::Ptr(j), Scalar::Int(i)) => {
                            i as u64 == j
                        }
                        (Scalar::Int(i), Scalar::Float(j)) | (Scalar::Float(j), Scalar::Int(i)) => {
                            i as f64 == j
                        }
                        _ => false,
                    };
                    if !same {
                        eq = false;
                        self.a.reset();
                        self.b.reset();
                        break;
                    }
                }
                // Unequal lengths: drain and rewind whichever side is
                // still producing.
                (Some(_), None) | (None, Some(_)) => {
                    eq = false;
                    self.a.reset();
                    self.b.reset();
                    break;
                }
            }
        }
        let ty = ctx.target.types_mut().prim(Prim::Int);
        Ok(Some(Value::rval(ty, Scalar::Int(eq as i64), Sym::none())))
    }

    fn reset(&mut self) {
        self.a.reset();
        self.b.reset();
        self.done = false;
    }
}

/// `equal(e1, e2)`.
pub fn seq_equal(a: Gen, b: Gen) -> Gen {
    Box::new(SeqEqualGen { a, b, done: false })
}

// ----- frame exploration (extension) ---------------------------------------

/// `frames()` — generates the active frame indices `0..frame_count-1`,
/// innermost first. An extension addressing the paper's Discussion:
/// "displaying the local x in all of the currently active stack frames
/// … is tedious to do with most debuggers".
struct FramesGen {
    i: Option<usize>,
}

impl GenT for FramesGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        ctx.tick()?;
        let n = ctx.target.frame_count();
        let i = self.i.unwrap_or(0);
        if i >= n {
            self.i = None;
            return Ok(None);
        }
        self.i = Some(i + 1);
        let ty = ctx.target.types_mut().prim(Prim::Int);
        let sym = ctx.sym_int(i as i64);
        Ok(Some(Value::rval(ty, Scalar::Int(i as i64), sym)))
    }

    fn reset(&mut self) {
        self.i = None;
    }
}

/// `frames()`.
pub fn frames() -> Gen {
    Box::new(FramesGen { i: None })
}

/// `local("x", k)` — the lvalue of local `x` in frame `k`, for each
/// generated `k`; frames without such a local yield nothing.
struct LocalGen {
    var: String,
    k: Gen,
}

impl GenT for LocalGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            match self.k.next(ctx)? {
                None => return Ok(None),
                Some(kv) => {
                    let k = apply::load(&mut ctx.target, &kv)?;
                    let k = match k {
                        Scalar::Int(i) if i >= 0 => i as usize,
                        _ => continue,
                    };
                    match ctx.target.get_variable_in_frame(&self.var, k) {
                        Some(info) => {
                            let sym = ctx.sym_leaf(format!("local(\"{}\", {k})", self.var));
                            return Ok(Some(Value::lval(info.ty, info.addr, sym)));
                        }
                        // No such local in this frame: skip it.
                        None => continue,
                    }
                }
            }
        }
    }

    fn reset(&mut self) {
        self.k.reset();
    }
}

/// `local("x", k)`.
pub fn local(var: String, k: Gen) -> Gen {
    Box::new(LocalGen { var, k })
}

// ----- braced override ---------------------------------------------------

/// `{e}` — "Enclosing an expression in braces overrides the default
/// display for that expression and causes its value to be displayed".
struct BracedGen {
    e: Gen,
}

impl GenT for BracedGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        match self.e.next(ctx)? {
            None => Ok(None),
            Some(v) => {
                let text = printer::format_value(&mut ctx.target, &v, ctx.opts.compress_threshold)?;
                let sym = ctx.sym_leaf(text);
                Ok(Some(v.with_sym(sym)))
            }
        }
    }

    fn reset(&mut self) {
        self.e.reset();
    }
}

/// `{e}`.
pub fn braced(e: Gen) -> Gen {
    Box::new(BracedGen { e })
}
