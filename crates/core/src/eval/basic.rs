//! Scalar generators: constants, names, ranges, alternation, and the
//! generator-lifted C operators.

use duel_ctype::Prim;
use duel_target::Target;

use crate::{
    apply,
    ast::{BinOp, FilterOp, UnOp},
    error::{DuelError, DuelResult},
    scope::Ctx,
    sym::Sym,
    value::{Scalar, Value},
};

use super::{Gen, GenT};

// ----- constants --------------------------------------------------------

/// A literal. Its value does not depend on anything around it, so it is
/// built on the first `next` of the command and cloned after that (one
/// `Rc` bump): `x[..n] >? c` and `(1..1000)+i` resume it once per left
/// value.
struct ConstGen {
    make: fn(&mut Ctx<'_>, i64, f64) -> Value,
    i: i64,
    f: f64,
    value: Option<Value>,
    done: bool,
}

impl GenT for ConstGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        ctx.tick()?;
        if self.done {
            self.done = false;
            return Ok(None);
        }
        self.done = true;
        let v = match &self.value {
            Some(v) => v.clone(),
            None => self.value.insert((self.make)(ctx, self.i, self.f)).clone(),
        };
        Ok(Some(v))
    }

    fn reset(&mut self) {
        self.done = false;
    }
}

fn literal(make: fn(&mut Ctx<'_>, i64, f64) -> Value, i: i64, f: f64) -> Gen {
    Box::new(ConstGen {
        make,
        i,
        f,
        value: None,
        done: false,
    })
}

/// An integer literal.
pub fn constant_int(v: i64) -> Gen {
    literal(
        |ctx, i, _| {
            let ty = ctx.target.types_mut().prim(Prim::Int);
            Value::rval(ty, Scalar::Int(i), ctx.sym_int(i))
        },
        v,
        0.0,
    )
}

/// A floating literal.
pub fn constant_float(v: f64) -> Gen {
    literal(
        |ctx, _, f| {
            let ty = ctx.target.types_mut().prim(Prim::Double);
            // Keep the symbolic value a *float* literal (`4.0`, not
            // `4`), so it stays a legal DUEL expression of the same
            // type.
            let mut text = format!("{f}");
            if !text.contains('.') && !text.contains('e') {
                text.push_str(".0");
            }
            Value::rval(ty, Scalar::Float(f), ctx.sym_leaf(text))
        },
        0,
        v,
    )
}

/// A character literal.
pub fn constant_char(c: u8) -> Gen {
    literal(
        |ctx, i, _| {
            let ty = ctx.target.types_mut().prim(Prim::Char);
            let printable = i as u8;
            let text = match printable {
                0 => "'\\0'".to_string(),
                b'\n' => "'\\n'".to_string(),
                b'\t' => "'\\t'".to_string(),
                c if c.is_ascii_graphic() || c == b' ' => {
                    format!("'{}'", c as char)
                }
                c => format!("'\\x{c:02x}'"),
            };
            Value::rval(ty, Scalar::Int(i), ctx.sym_leaf(text))
        },
        c as i64,
        0.0,
    )
}

// ----- names ------------------------------------------------------------

struct NameGen {
    name: String,
    /// The name's leaf sym, built on the first `next` of the command and
    /// shared by every value fetched after that.
    leaf: Option<Sym>,
    done: bool,
}

impl GenT for NameGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        ctx.tick()?;
        if self.done {
            self.done = false;
            return Ok(None);
        }
        self.done = true;
        let leaf = self.leaf.get_or_insert_with(|| ctx.sym_leaf(&self.name));
        ctx.fetch(&self.name, leaf).map(Some)
    }

    fn reset(&mut self) {
        self.done = false;
    }
}

/// A name (variable, alias, with-scope field, enumerator, or `_`).
pub fn name(n: String) -> Gen {
    Box::new(NameGen {
        name: n,
        leaf: None,
        done: false,
    })
}

// ----- ranges -----------------------------------------------------------

/// The integer value of a (single) operand value.
pub(crate) fn int_of(ctx: &mut Ctx<'_>, v: &Value) -> DuelResult<i64> {
    match apply::load(&mut ctx.target, v)? {
        Scalar::Int(i) => Ok(i),
        Scalar::Ptr(p) => Ok(p as i64),
        Scalar::Float(_) => Err(DuelError::Type {
            sym: v.sym.render(ctx.opts.compress_threshold),
            message: "an integer is required here".into(),
        }),
    }
}

fn int_value(ctx: &mut Ctx<'_>, i: i64) -> Value {
    let ty = ctx.target.types_mut().prim(Prim::Int);
    // Generator substitution: the symbolic value of `a..b` is "the
    // current iteration value" (paper, *Implementation*).
    Value::rval(ty, Scalar::Int(i), ctx.sym_int(i))
}

/// `e1..e2` — the paper's `to`:
///
/// ```text
/// case TO:
///   while (u = eval(n->kids[0]))
///     while (v = eval(n->kids[1]))
///       for (i = u; i <= v; i++)
///         yield i
/// ```
struct ToGen {
    l: Gen,
    r: Gen,
    lo: Option<i64>,
    hi: Option<i64>,
    i: i64,
}

impl GenT for ToGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        ctx.tick()?;
        loop {
            if self.lo.is_none() {
                match self.l.next(ctx)? {
                    Some(u) => {
                        self.lo = Some(int_of(ctx, &u)?);
                    }
                    None => return Ok(None),
                }
            }
            if self.hi.is_none() {
                match self.r.next(ctx)? {
                    Some(v) => {
                        self.hi = Some(int_of(ctx, &v)?);
                        self.i = self.lo.unwrap();
                    }
                    None => {
                        self.lo = None;
                        continue;
                    }
                }
            }
            if self.i <= self.hi.unwrap() {
                let i = self.i;
                self.i += 1;
                return Ok(Some(int_value(ctx, i)));
            }
            self.hi = None;
        }
    }

    fn reset(&mut self) {
        self.l.reset();
        self.r.reset();
        self.lo = None;
        self.hi = None;
    }
}

/// `e1..e2`.
pub fn to(l: Gen, r: Gen) -> Gen {
    Box::new(ToGen {
        l,
        r,
        lo: None,
        hi: None,
        i: 0,
    })
}

/// `..e` — shorthand for `0..e-1`.
struct ToPrefixGen {
    e: Gen,
    hi: Option<i64>,
    i: i64,
}

impl GenT for ToPrefixGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        ctx.tick()?;
        loop {
            if self.hi.is_none() {
                match self.e.next(ctx)? {
                    Some(u) => {
                        self.hi = Some(int_of(ctx, &u)? - 1);
                        self.i = 0;
                    }
                    None => return Ok(None),
                }
            }
            if self.i <= self.hi.unwrap() {
                let i = self.i;
                self.i += 1;
                return Ok(Some(int_value(ctx, i)));
            }
            self.hi = None;
        }
    }

    fn reset(&mut self) {
        self.e.reset();
        self.hi = None;
    }
}

/// `..e`.
pub fn to_prefix(e: Gen) -> Gen {
    Box::new(ToPrefixGen { e, hi: None, i: 0 })
}

/// `e..` — "an essentially infinite sequence of integers beginning at
/// e" (bounded in practice by `@`, filters, or the value limit).
struct ToInfGen {
    e: Gen,
    cur: Option<i64>,
}

impl GenT for ToInfGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        ctx.tick()?;
        if self.cur.is_none() {
            match self.e.next(ctx)? {
                Some(u) => self.cur = Some(int_of(ctx, &u)?),
                None => return Ok(None),
            }
        }
        let i = self.cur.unwrap();
        self.cur = Some(i + 1);
        Ok(Some(int_value(ctx, i)))
    }

    fn reset(&mut self) {
        self.e.reset();
        self.cur = None;
    }
}

/// `e..`.
pub fn to_inf(e: Gen) -> Gen {
    Box::new(ToInfGen { e, cur: None })
}

// ----- alternation ------------------------------------------------------

/// `e1,e2` — the paper's `alternate`:
///
/// ```text
/// case ALTERNATE:
///   while (u = eval(n->kids[0])) yield u
///   while (v = eval(n->kids[1])) yield v
/// ```
struct AltGen {
    l: Gen,
    r: Gen,
    in_right: bool,
}

impl GenT for AltGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if !self.in_right {
            if let Some(u) = self.l.next(ctx)? {
                return Ok(Some(u));
            }
            self.in_right = true;
        }
        match self.r.next(ctx)? {
            Some(v) => Ok(Some(v)),
            None => {
                self.in_right = false;
                Ok(None)
            }
        }
    }

    fn reset(&mut self) {
        self.l.reset();
        self.r.reset();
        self.in_right = false;
    }
}

/// `e1,e2`.
pub fn alternate(l: Gen, r: Gen) -> Gen {
    Box::new(AltGen {
        l,
        r,
        in_right: false,
    })
}

// ----- lifted C operators -----------------------------------------------

/// The kept result of an operator whose operands are all constants
/// (literals, or such operators): nothing in the command can change it,
/// so the first successful result is cloned after that (one `Rc` bump)
/// instead of being rebuilt for every left value of `x[..n] >? -2`. The
/// operator still activates its operands first, so ticks, trace lines
/// and the order of errors are those of the plain path.
pub(super) struct Memo {
    constant: bool,
    value: Option<Value>,
}

impl Memo {
    pub(super) fn new(constant: bool) -> Memo {
        Memo {
            constant,
            value: None,
        }
    }

    /// The kept value, or `f`'s (kept when the operator is constant).
    pub(super) fn get(&mut self, f: impl FnOnce() -> DuelResult<Value>) -> DuelResult<Value> {
        if let Some(v) = &self.value {
            return Ok(v.clone());
        }
        let v = f()?;
        if self.constant {
            self.value = Some(v.clone());
        }
        Ok(v)
    }
}

/// Unary operators stream their operand:
///
/// ```text
/// case NEGATE, INDIRECT, ...:
///   while (u = eval(n->kids[0])) yield apply(n->op, u)
/// ```
struct UnaryGen {
    op: UnOp,
    e: Gen,
    memo: Memo,
}

impl GenT for UnaryGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        match self.e.next(ctx)? {
            Some(u) => {
                let eager = ctx.eager_sym();
                let op = self.op;
                self.memo
                    .get(|| apply::unary(&mut ctx.target, op, &u, eager))
                    .map(Some)
            }
            None => Ok(None),
        }
    }

    fn reset(&mut self) {
        self.e.reset();
    }
}

/// A unary C operator; `constant` when it is built from literals alone
/// (see [`Memo`]).
pub fn unary(op: UnOp, e: Gen, constant: bool) -> Gen {
    Box::new(UnaryGen {
        op,
        e,
        memo: Memo::new(constant),
    })
}

/// Binary operators produce all combinations:
///
/// ```text
/// case PLUS, MINUS, ...:
///   bin0: n->value = eval(n->kids[0]); if NOVALUE return NOVALUE
///   bin1: u = eval(n->kids[1]); if NOVALUE goto bin0
///         return apply(n->op, n->value, u)
/// ```
struct BinGen {
    op: BinOp,
    l: Gen,
    r: Gen,
    cur: Option<Value>,
    memo: Memo,
}

impl GenT for BinGen {
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
                    let eager = ctx.eager_sym();
                    let (op, l) = (self.op, self.cur.as_ref().unwrap());
                    return self
                        .memo
                        .get(|| apply::binary(&mut ctx.target, op, l, &v, eager))
                        .map(Some);
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

/// A binary C operator; `constant` when it is built from literals alone
/// (see [`Memo`]).
pub fn binary(op: BinOp, l: Gen, r: Gen, constant: bool) -> Gen {
    Box::new(BinGen {
        op,
        l,
        r,
        cur: None,
        memo: Memo::new(constant),
    })
}

/// Filter comparisons yield their left operand when the comparison
/// holds:
///
/// ```text
/// case IFGT, IFGE, IFLE, IFLT, IFEQ, IFNE:
///   while (u = eval(n->kids[0]))
///     while (v = eval(n->kids[1]))
///       if (w = apply(n->op, u, v)) yield w
/// ```
struct FilterGen {
    op: FilterOp,
    l: Gen,
    r: Gen,
    cur: Option<Value>,
}

impl GenT for FilterGen {
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
                    let l = self.cur.as_ref().unwrap();
                    let cmp = apply::binary(&mut ctx.target, self.op.as_cmp(), l, &v, false)?;
                    if apply::truthy(&mut ctx.target, &cmp)? {
                        // The filter yields the *left* operand, with its
                        // own symbolic value. Cloned only on a hit; a
                        // failed comparison costs no allocation.
                        return Ok(Some(self.cur.clone().unwrap()));
                    }
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

/// A filter comparison (`>?` and friends).
pub fn filter(op: FilterOp, l: Gen, r: Gen) -> Gen {
    Box::new(FilterGen {
        op,
        l,
        r,
        cur: None,
    })
}
