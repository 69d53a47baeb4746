//! DUEL's own implementation of the C operators.
//!
//! The paper: "Duel duplicates some debugger capabilities in order to
//! reduce its dependence on specific debuggers. For example, Duel
//! contains its own type and value representations and its own
//! implementation of the C operators." Everything here works through the
//! narrow [`Target`] interface: loads and stores go through
//! `get_bytes`/`put_bytes`, and type checking happens *here, at
//! evaluation time*, as the paper requires of a very high-level language.

use duel_ctype::{convert, Prim, TypeId, TypeKind};
use duel_target::{value_io, CallValue, Target, TargetError};

use crate::{
    ast::{BinOp, UnOp},
    error::{DuelError, DuelResult},
    sym::{precedence, Sym},
    value::{Place, Scalar, Value},
};

/// A coarse classification of a type, driving operator semantics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Class {
    /// An integer (including `char`, enums).
    Int {
        /// Signedness under the target ABI.
        signed: bool,
        /// Width in bytes.
        size: u8,
        /// The primitive, for conversion ranking (`Int` for enums).
        prim: Prim,
    },
    /// `float` or `double`.
    Float {
        /// Width in bytes.
        size: u8,
        /// The primitive.
        prim: Prim,
    },
    /// A data pointer.
    Ptr {
        /// The pointee type.
        pointee: TypeId,
    },
    /// An array (decays to a pointer in most contexts).
    Array {
        /// Element type.
        elem: TypeId,
        /// Length, if known.
        len: Option<u64>,
    },
    /// A struct or union.
    Record,
    /// A function type.
    Func,
    /// `void`.
    Void,
}

/// Classifies `ty` under the target's ABI.
pub fn classify(t: &dyn Target, ty: TypeId) -> Class {
    match t.types().kind(ty) {
        TypeKind::Void => Class::Void,
        TypeKind::Prim(p) => {
            if p.is_float() {
                Class::Float {
                    size: p.size(t.abi()) as u8,
                    prim: *p,
                }
            } else {
                Class::Int {
                    signed: p.is_signed(t.abi()),
                    size: p.size(t.abi()) as u8,
                    prim: *p,
                }
            }
        }
        TypeKind::Enum(_) => Class::Int {
            signed: true,
            size: 4,
            prim: Prim::Int,
        },
        TypeKind::Pointer(p) => Class::Ptr { pointee: *p },
        TypeKind::Array { elem, len } => Class::Array {
            elem: *elem,
            len: *len,
        },
        TypeKind::Struct(_) | TypeKind::Union(_) => Class::Record,
        TypeKind::Function { .. } => Class::Func,
    }
}

/// Loads the rvalue of `v` (performing array-to-pointer decay).
pub fn load(t: &mut dyn Target, v: &Value) -> DuelResult<Scalar> {
    match &v.place {
        Place::RVal(s) => Ok(*s),
        Place::BitField {
            addr,
            unit,
            bit_off,
            width,
        } => {
            let signed = matches!(classify(t, v.ty), Class::Int { signed: true, .. });
            let raw = value_io::read_bitfield(t, *addr, *unit as usize, *bit_off, *width, signed)
                .map_err(|e| memory_error(e, v, "x of x.bits"))?;
            Ok(Scalar::Int(raw))
        }
        Place::LVal(addr) => match classify(t, v.ty) {
            Class::Int { signed, size, .. } => {
                let raw = value_io::read_uint(t, *addr, size as usize)
                    .map_err(|e| memory_error(e, v, "x of x"))?;
                Ok(Scalar::Int(if signed {
                    value_io::sign_extend(raw, size as usize)
                } else {
                    raw as i64
                }))
            }
            Class::Float { size, .. } => {
                let f = value_io::read_float(t, *addr, size as usize)
                    .map_err(|e| memory_error(e, v, "x of x"))?;
                Ok(Scalar::Float(f))
            }
            Class::Ptr { .. } => {
                let p = value_io::read_ptr(t, *addr).map_err(|e| memory_error(e, v, "x of x"))?;
                Ok(Scalar::Ptr(p))
            }
            // Array-to-pointer decay: the value is the array's address.
            Class::Array { .. } => Ok(Scalar::Ptr(*addr)),
            Class::Func => Ok(Scalar::Ptr(*addr)),
            Class::Record => Err(DuelError::Type {
                sym: v.sym.render(4),
                message: "a struct/union value cannot be used here".into(),
            }),
            Class::Void => Err(DuelError::Type {
                sym: v.sym.render(4),
                message: "void value".into(),
            }),
        },
    }
}

fn memory_error(e: TargetError, v: &Value, role: &str) -> DuelError {
    match e {
        TargetError::IllegalMemory { addr, .. } => DuelError::IllegalMemory {
            role: role.to_string(),
            sym: v.sym.render(4),
            addr,
        },
        other => DuelError::Target(other),
    }
}

/// C truth of a value.
pub fn truthy(t: &mut dyn Target, v: &Value) -> DuelResult<bool> {
    Ok(load(t, v)?.is_truthy())
}

/// Does `ty` (a struct/union) have a field `name`?
pub fn has_field(t: &dyn Target, ty: TypeId, name: &str) -> bool {
    t.types().find_field(ty, name).is_ok()
}

/// Resolves field `name` of a struct/union lvalue, producing the member
/// lvalue with sym `base.name` / `base->name`. `name_sym` is the name as
/// a leaf sym; [`Sym::none`] skips symbolic construction.
pub fn field_of(
    t: &mut dyn Target,
    v: &Value,
    name: &str,
    arrow: bool,
    name_sym: &Sym,
) -> DuelResult<Value> {
    let (idx, field) = t
        .types()
        .find_field(v.ty, name)
        .map_err(|e| DuelError::Type {
            sym: v.sym.render(4),
            message: e.to_string(),
        })?;
    let fty = field.ty;
    let (rid, _) = t.types().as_record(v.ty).expect("record checked");
    let fl = t.types().field_layout(rid, idx, t.abi())?;
    let base = v.lval_addr().ok_or_else(|| DuelError::Type {
        sym: v.sym.render(4),
        message: "field access needs an addressable structure".into(),
    })?;
    let sym = Sym::field(arrow, &v.sym, name_sym);
    if let (Some(bo), Some(bw)) = (fl.bit_offset, fl.bit_width) {
        return Ok(Value {
            ty: fty,
            place: Place::BitField {
                addr: base + fl.offset,
                unit: fl.size as u8,
                bit_off: bo,
                width: bw,
            },
            sym,
        });
    }
    Ok(Value::lval(fty, base + fl.offset, sym))
}

/// Dereferences a pointer (or passes through a struct lvalue) for use as
/// a `with`/`->` operand, producing the struct lvalue. The resulting
/// value keeps the *pointer's* symbolic value, so a subsequent field
/// fetch renders `ptr->field`.
pub fn deref_for_with(t: &mut dyn Target, v: &Value) -> DuelResult<Value> {
    match classify(t, v.ty) {
        Class::Ptr { pointee } => {
            let p = match load(t, v)? {
                Scalar::Ptr(p) => p,
                other => match other {
                    Scalar::Int(i) => i as u64,
                    _ => 0,
                },
            };
            if p == 0 {
                return Err(DuelError::IllegalMemory {
                    role: "x of x->y".into(),
                    sym: v.sym.render(4),
                    addr: 0,
                });
            }
            let size = t.types().size_of(pointee, t.abi()).unwrap_or(1);
            if !t.is_mapped(p, size) {
                return Err(DuelError::IllegalMemory {
                    role: "x of x->y".into(),
                    sym: v.sym.render(4),
                    addr: p,
                });
            }
            Ok(Value::lval(pointee, p, v.sym.clone()))
        }
        Class::Record => Ok(v.clone()),
        _ => Err(DuelError::Type {
            sym: v.sym.render(4),
            message: format!(
                "`->` needs a pointer to a structure, not `{}`",
                t.types().display(v.ty)
            ),
        }),
    }
}

/// `base[idx]`: array or pointer indexing, producing the element lvalue.
pub fn index(t: &mut dyn Target, base: &Value, idx: &Value, eager_sym: bool) -> DuelResult<Value> {
    let i = match load(t, idx)? {
        Scalar::Int(v) => v,
        Scalar::Ptr(p) => p as i64,
        Scalar::Float(_) => {
            return Err(DuelError::Type {
                sym: idx.sym.render(4),
                message: "array index must be an integer".into(),
            })
        }
    };
    let (elem, base_addr) = match classify(t, base.ty) {
        Class::Array { elem, .. } => {
            let a = base.lval_addr().ok_or_else(|| DuelError::Type {
                sym: base.sym.render(4),
                message: "array value has no address".into(),
            })?;
            (elem, a)
        }
        Class::Ptr { pointee } => {
            let p = match load(t, base)? {
                Scalar::Ptr(p) => p,
                Scalar::Int(v) => v as u64,
                _ => 0,
            };
            (pointee, p)
        }
        _ => {
            return Err(DuelError::Type {
                sym: base.sym.render(4),
                message: format!(
                    "`[]` needs an array or pointer, not `{}`",
                    t.types().display(base.ty)
                ),
            })
        }
    };
    let esize = t.types().size_of(elem, t.abi())? as i64;
    // Address arithmetic wraps, as the target's address space does.
    let addr = (base_addr as i64).wrapping_add(i.wrapping_mul(esize)) as u64;
    let sym = if eager_sym {
        Sym::index(&base.sym, &idx.sym)
    } else {
        Sym::none()
    };
    Ok(Value::lval(elem, addr, sym))
}

/// Upper bound on bytes one read-ahead call (a scan window, a
/// wavefront batch) may pull over the wire.
pub const PREFETCH_MAX_BYTES: u64 = 1 << 20;

/// Normalizes an integer to `size` bytes with the given signedness.
pub fn normalize_int(v: i128, size: u8, signed: bool) -> i64 {
    let bits = (size as u32) * 8;
    if bits >= 64 {
        return v as i64;
    }
    let mask = (1i128 << bits) - 1;
    let m = v & mask;
    if signed {
        let sign_bit = 1i128 << (bits - 1);
        if m & sign_bit != 0 {
            (m - (1i128 << bits)) as i64
        } else {
            m as i64
        }
    } else {
        m as i64
    }
}

fn scalar_to_f64(s: Scalar) -> f64 {
    match s {
        Scalar::Int(v) => v as f64,
        Scalar::Float(f) => f,
        Scalar::Ptr(p) => p as f64,
    }
}

fn scalar_to_i128(s: Scalar, signed: bool) -> i128 {
    match s {
        Scalar::Int(v) => {
            if signed {
                v as i128
            } else {
                (v as u64) as i128
            }
        }
        Scalar::Float(f) => f as i128,
        Scalar::Ptr(p) => p as i128,
    }
}

fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::Mul | BinOp::Div | BinOp::Rem => precedence::MUL,
        BinOp::Add | BinOp::Sub => precedence::ADD,
        BinOp::Shl | BinOp::Shr => precedence::SHIFT,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => precedence::REL,
        BinOp::Eq | BinOp::Ne => precedence::EQ,
        BinOp::BitAnd => precedence::BITAND,
        BinOp::BitXor => precedence::BITXOR,
        BinOp::BitOr => precedence::BITOR,
    }
}

/// Applies a binary C operator to two values (after loading rvalues),
/// with C's usual arithmetic conversions and pointer arithmetic.
pub fn binary(
    t: &mut dyn Target,
    op: BinOp,
    a: &Value,
    b: &Value,
    eager_sym: bool,
) -> DuelResult<Value> {
    let sym = if eager_sym {
        Sym::bin(op.spelling(), bin_prec(op), &a.sym, &b.sym)
    } else {
        Sym::none()
    };
    let int_ty = t.types_mut().prim(Prim::Int);
    let ca = effective_class(t, a);
    let cb = effective_class(t, b);

    // Pointer cases first.
    match (ca, cb, op) {
        (Class::Ptr { pointee }, Class::Int { .. }, BinOp::Add)
        | (Class::Ptr { pointee }, Class::Int { .. }, BinOp::Sub) => {
            let pa = as_addr(load(t, a)?);
            let i = as_int(load(t, b)?);
            let esize = t.types().size_of(pointee, t.abi())? as i64;
            let delta = i * esize;
            let addr = if op == BinOp::Add {
                (pa as i64).wrapping_add(delta)
            } else {
                (pa as i64).wrapping_sub(delta)
            } as u64;
            let ty = decay_type(t, a.ty);
            return Ok(Value::rval(ty, Scalar::Ptr(addr), sym));
        }
        (Class::Int { .. }, Class::Ptr { pointee }, BinOp::Add) => {
            let i = as_int(load(t, a)?);
            let pb = as_addr(load(t, b)?);
            let esize = t.types().size_of(pointee, t.abi())? as i64;
            let addr = (pb as i64).wrapping_add(i * esize) as u64;
            let ty = decay_type(t, b.ty);
            return Ok(Value::rval(ty, Scalar::Ptr(addr), sym));
        }
        (Class::Ptr { pointee }, Class::Ptr { .. }, BinOp::Sub) => {
            let pa = as_addr(load(t, a)?) as i64;
            let pb = as_addr(load(t, b)?) as i64;
            let esize = (t.types().size_of(pointee, t.abi())? as i64).max(1);
            return Ok(Value::rval(int_ty, Scalar::Int((pa - pb) / esize), sym));
        }
        (Class::Ptr { .. }, _, _) | (_, Class::Ptr { .. }, _)
            if matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) =>
        {
            let pa = as_addr(load(t, a)?);
            let pb = as_addr(load(t, b)?);
            let r = match op {
                BinOp::Eq => pa == pb,
                BinOp::Ne => pa != pb,
                BinOp::Lt => pa < pb,
                BinOp::Le => pa <= pb,
                BinOp::Gt => pa > pb,
                _ => pa >= pb,
            };
            return Ok(Value::rval(int_ty, Scalar::Int(r as i64), sym));
        }
        _ => {}
    }

    // Arithmetic cases.
    let (pa, pb) = match (ca, cb) {
        (
            Class::Int { prim: p1, .. } | Class::Float { prim: p1, .. },
            Class::Int { prim: p2, .. } | Class::Float { prim: p2, .. },
        ) => (p1, p2),
        _ => {
            return Err(DuelError::Type {
                sym: sym_or(&sym, a, b),
                message: format!(
                    "operator `{}` cannot combine `{}` and `{}`",
                    op.spelling(),
                    t.types().display(a.ty),
                    t.types().display(b.ty)
                ),
            })
        }
    };
    let common = convert::usual_arithmetic(pa, pb, t.abi());
    let va = load(t, a)?;
    let vb = load(t, b)?;
    if common.is_float() {
        let fa = scalar_to_f64(va);
        let fb = scalar_to_f64(vb);
        let is_cmp = matches!(
            op,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        );
        if is_cmp {
            let r = match op {
                BinOp::Lt => fa < fb,
                BinOp::Le => fa <= fb,
                BinOp::Gt => fa > fb,
                BinOp::Ge => fa >= fb,
                BinOp::Eq => fa == fb,
                _ => fa != fb,
            };
            return Ok(Value::rval(int_ty, Scalar::Int(r as i64), sym));
        }
        let r = match op {
            BinOp::Add => fa + fb,
            BinOp::Sub => fa - fb,
            BinOp::Mul => fa * fb,
            BinOp::Div => {
                if fb == 0.0 {
                    return Err(DuelError::DivByZero {
                        sym: sym_or(&sym, a, b),
                    });
                }
                fa / fb
            }
            other => {
                return Err(DuelError::Type {
                    sym: sym_or(&sym, a, b),
                    message: format!("operator `{}` needs integer operands", other.spelling()),
                })
            }
        };
        let ty = t.types_mut().prim(common);
        return Ok(Value::rval(ty, Scalar::Float(r), sym));
    }

    // Integer arithmetic in the common type.
    let signed = common.is_signed(t.abi());
    let size = common.size(t.abi()) as u8;
    let ia = scalar_to_i128(va, sign_of(t, a));
    let ib = scalar_to_i128(vb, sign_of(t, b));
    let is_cmp = matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    );
    if is_cmp {
        // Compare in the common type's representation.
        let na = normalize_cmp(ia, size, signed);
        let nb = normalize_cmp(ib, size, signed);
        let r = match op {
            BinOp::Lt => na < nb,
            BinOp::Le => na <= nb,
            BinOp::Gt => na > nb,
            BinOp::Ge => na >= nb,
            BinOp::Eq => na == nb,
            _ => na != nb,
        };
        return Ok(Value::rval(int_ty, Scalar::Int(r as i64), sym));
    }
    let r: i128 = match op {
        BinOp::Add => ia.wrapping_add(ib),
        BinOp::Sub => ia.wrapping_sub(ib),
        BinOp::Mul => ia.wrapping_mul(ib),
        BinOp::Div => {
            if ib == 0 {
                return Err(DuelError::DivByZero {
                    sym: sym_or(&sym, a, b),
                });
            }
            ia.wrapping_div(ib)
        }
        BinOp::Rem => {
            if ib == 0 {
                return Err(DuelError::DivByZero {
                    sym: sym_or(&sym, a, b),
                });
            }
            ia.wrapping_rem(ib)
        }
        BinOp::Shl => ia.wrapping_shl((ib as u32) & 63),
        BinOp::Shr => {
            if signed {
                ia >> ((ib as u32) & 63)
            } else {
                ((ia as u64 as u128) >> ((ib as u32) & 63)) as i128
            }
        }
        BinOp::BitAnd => ia & ib,
        BinOp::BitXor => ia ^ ib,
        BinOp::BitOr => ia | ib,
        _ => unreachable!("comparisons handled above"),
    };
    let ty = t.types_mut().prim(common);
    Ok(Value::rval(
        ty,
        Scalar::Int(normalize_int(r, size, signed)),
        sym,
    ))
}

fn normalize_cmp(v: i128, size: u8, signed: bool) -> i128 {
    let n = normalize_int(v, size, signed);
    if signed {
        n as i128
    } else {
        (n as u64) as i128
    }
}

fn sym_or(sym: &Sym, a: &Value, b: &Value) -> String {
    if sym.is_none() {
        format!("{} … {}", a.sym.render(4), b.sym.render(4))
    } else {
        sym.render(4)
    }
}

fn sign_of(t: &dyn Target, v: &Value) -> bool {
    matches!(
        effective_class(t, v),
        Class::Int { signed: true, .. } | Class::Float { .. }
    )
}

fn as_addr(s: Scalar) -> u64 {
    match s {
        Scalar::Ptr(p) => p,
        Scalar::Int(v) => v as u64,
        Scalar::Float(f) => f as u64,
    }
}

fn as_int(s: Scalar) -> i64 {
    match s {
        Scalar::Int(v) => v,
        Scalar::Ptr(p) => p as i64,
        Scalar::Float(f) => f as i64,
    }
}

/// The class of a value after array decay.
fn effective_class(t: &dyn Target, v: &Value) -> Class {
    match classify(t, v.ty) {
        Class::Array { elem, .. } => Class::Ptr { pointee: elem },
        other => other,
    }
}

/// The decayed type of an array (pointer to element); other types pass
/// through.
fn decay_type(t: &mut dyn Target, ty: TypeId) -> TypeId {
    match classify(t, ty) {
        Class::Array { elem, .. } => t.types_mut().pointer(elem),
        _ => ty,
    }
}

/// Applies a unary C operator.
pub fn unary(t: &mut dyn Target, op: UnOp, v: &Value, eager_sym: bool) -> DuelResult<Value> {
    let sym = if eager_sym {
        let spelling = match op {
            UnOp::Neg => "-",
            UnOp::Pos => "+",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Deref => "*",
            UnOp::Addr => "&",
        };
        Sym::un(spelling, &v.sym)
    } else {
        Sym::none()
    };
    let int_ty = t.types_mut().prim(Prim::Int);
    match op {
        UnOp::Pos | UnOp::Neg => {
            let s = load(t, v)?;
            match s {
                Scalar::Float(f) => {
                    let r = if op == UnOp::Neg { -f } else { f };
                    Ok(Value::rval(v.ty, Scalar::Float(r), sym))
                }
                Scalar::Int(i) => {
                    let (prim, size, signed) = int_info(t, v)?;
                    let promoted = convert::integer_promote(prim);
                    let _ = (size, signed);
                    let psize = promoted.size(t.abi()) as u8;
                    let psigned = promoted.is_signed(t.abi());
                    let r = if op == UnOp::Neg {
                        (i as i128).wrapping_neg()
                    } else {
                        i as i128
                    };
                    let ty = t.types_mut().prim(promoted);
                    Ok(Value::rval(
                        ty,
                        Scalar::Int(normalize_int(r, psize, psigned)),
                        sym,
                    ))
                }
                Scalar::Ptr(_) => Err(DuelError::Type {
                    sym: v.sym.render(4),
                    message: "unary +/- needs an arithmetic operand".into(),
                }),
            }
        }
        UnOp::Not => {
            let b = truthy(t, v)?;
            Ok(Value::rval(int_ty, Scalar::Int(!b as i64), sym))
        }
        UnOp::BitNot => {
            let (prim, ..) = int_info(t, v)?;
            let promoted = convert::integer_promote(prim);
            let psize = promoted.size(t.abi()) as u8;
            let psigned = promoted.is_signed(t.abi());
            let i = as_int(load(t, v)?);
            let ty = t.types_mut().prim(promoted);
            Ok(Value::rval(
                ty,
                Scalar::Int(normalize_int(!(i as i128), psize, psigned)),
                sym,
            ))
        }
        UnOp::Deref => {
            let (pointee, p) = match effective_class(t, v) {
                Class::Ptr { pointee } => (pointee, as_addr(load(t, v)?)),
                _ => {
                    return Err(DuelError::Type {
                        sym: v.sym.render(4),
                        message: format!("`*` needs a pointer, not `{}`", t.types().display(v.ty)),
                    })
                }
            };
            if p == 0 || !t.is_mapped(p, 1) {
                return Err(DuelError::IllegalMemory {
                    role: "x of *x".into(),
                    sym: v.sym.render(4),
                    addr: p,
                });
            }
            Ok(Value::lval(pointee, p, sym))
        }
        UnOp::Addr => {
            let addr = v.lval_addr().ok_or_else(|| DuelError::NotLvalue {
                sym: v.sym.render(4),
            })?;
            let ty = t.types_mut().pointer(v.ty);
            Ok(Value::rval(ty, Scalar::Ptr(addr), sym))
        }
    }
}

fn int_info(t: &dyn Target, v: &Value) -> DuelResult<(Prim, u8, bool)> {
    match classify(t, v.ty) {
        Class::Int { prim, size, signed } => Ok((prim, size, signed)),
        _ => Err(DuelError::Type {
            sym: v.sym.render(4),
            message: format!(
                "integer operand required, found `{}`",
                t.types().display(v.ty)
            ),
        }),
    }
}

/// Converts a scalar to type `ty` (for assignments, casts, arguments).
pub fn convert_scalar(t: &dyn Target, ty: TypeId, s: Scalar) -> DuelResult<Scalar> {
    Ok(match classify(t, ty) {
        Class::Int { size, signed, .. } => Scalar::Int(normalize_int(
            match s {
                Scalar::Int(v) => v as i128,
                Scalar::Float(f) => f as i128,
                Scalar::Ptr(p) => p as i128,
            },
            size,
            signed,
        )),
        Class::Float { size, .. } => {
            let f = scalar_to_f64(s);
            Scalar::Float(if size == 4 { f as f32 as f64 } else { f })
        }
        Class::Ptr { .. } | Class::Array { .. } | Class::Func => Scalar::Ptr(as_addr(s)),
        Class::Record | Class::Void => {
            return Err(DuelError::Type {
                sym: String::new(),
                message: "cannot convert to a non-scalar type".into(),
            })
        }
    })
}

/// Stores `s` into the lvalue `dst` (converting to the destination
/// type). Returns the stored scalar.
pub fn store(t: &mut dyn Target, dst: &Value, s: Scalar) -> DuelResult<Scalar> {
    let s = convert_scalar(t, dst.ty, s)?;
    match &dst.place {
        Place::LVal(addr) => {
            match classify(t, dst.ty) {
                Class::Int { size, .. } => {
                    let v = as_int(s) as u64;
                    value_io::write_uint(t, *addr, v, size as usize)
                        .map_err(|e| memory_error(e, dst, "x of x = y"))?;
                }
                Class::Float { size, .. } => {
                    value_io::write_float(t, *addr, scalar_to_f64(s), size as usize)
                        .map_err(|e| memory_error(e, dst, "x of x = y"))?;
                }
                Class::Ptr { .. } => {
                    value_io::write_ptr(t, *addr, as_addr(s))
                        .map_err(|e| memory_error(e, dst, "x of x = y"))?;
                }
                _ => {
                    return Err(DuelError::Type {
                        sym: dst.sym.render(4),
                        message: "cannot assign to this type".into(),
                    })
                }
            }
            Ok(s)
        }
        Place::BitField {
            addr,
            unit,
            bit_off,
            width,
        } => {
            value_io::write_bitfield(t, *addr, *unit as usize, *bit_off, *width, as_int(s))
                .map_err(|e| memory_error(e, dst, "x of x = y"))?;
            Ok(s)
        }
        Place::RVal(_) => Err(DuelError::NotLvalue {
            sym: dst.sym.render(4),
        }),
    }
}

/// Casts `v` to `ty`.
pub fn cast(t: &mut dyn Target, ty: TypeId, v: &Value, eager_sym: bool) -> DuelResult<Value> {
    let sym = if eager_sym {
        Sym::cast(&t.types().display(ty), &v.sym)
    } else {
        Sym::none()
    };
    if matches!(classify(t, ty), Class::Void) {
        // A cast to void discards the value; keep a zero int.
        return Ok(Value::rval(ty, Scalar::Int(0), sym));
    }
    let s = load(t, v)?;
    let s = convert_scalar(t, ty, s)?;
    Ok(Value::rval(ty, s, sym))
}

/// Marshals a value into a [`CallValue`] for `duel_call_target_func`.
pub fn to_call_value(t: &mut dyn Target, v: &Value) -> DuelResult<CallValue> {
    let s = load(t, v)?;
    let abi = t.abi();
    Ok(match classify(t, v.ty) {
        Class::Int { size, .. } => CallValue::from_u64(v.ty, as_int(s) as u64, size as usize, abi)?,
        Class::Float { size, .. } => {
            let f = scalar_to_f64(s);
            let raw = if size == 4 {
                (f as f32).to_bits() as u64
            } else {
                f.to_bits()
            };
            CallValue::from_u64(v.ty, raw, size as usize, abi)?
        }
        Class::Ptr { .. } | Class::Array { .. } | Class::Func => {
            CallValue::from_u64(v.ty, as_addr(s), abi.pointer_bytes as usize, abi)?
        }
        _ => {
            return Err(DuelError::Type {
                sym: v.sym.render(4),
                message: "cannot pass this value to a function".into(),
            })
        }
    })
}

/// Unmarshals a function result into a value.
pub fn from_call_value(t: &mut dyn Target, cv: &CallValue, sym: Sym) -> DuelResult<Value> {
    let abi = t.abi();
    let raw = cv.to_u64(abi);
    Ok(match classify(t, cv.ty) {
        Class::Int { size, signed, .. } => {
            let v = if signed {
                value_io::sign_extend(raw, size as usize)
            } else {
                raw as i64
            };
            Value::rval(cv.ty, Scalar::Int(v), sym)
        }
        Class::Float { size, .. } => {
            let f = if size == 4 {
                f32::from_bits(raw as u32) as f64
            } else {
                f64::from_bits(raw)
            };
            Value::rval(cv.ty, Scalar::Float(f), sym)
        }
        Class::Ptr { .. } => Value::rval(cv.ty, Scalar::Ptr(raw), sym),
        Class::Void => Value::rval(cv.ty, Scalar::Int(0), sym),
        _ => {
            return Err(DuelError::Type {
                sym: sym.render(4),
                message: "unsupported function return type".into(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use duel_ctype::Abi;
    use duel_target::SimTarget;

    fn setup() -> SimTarget {
        SimTarget::new(Abi::lp64())
    }

    fn int_val(t: &mut SimTarget, v: i64) -> Value {
        let ty = t.core.types.prim(Prim::Int);
        Value::rval(ty, Scalar::Int(v), Sym::int(v))
    }

    fn dbl_val(t: &mut SimTarget, v: f64) -> Value {
        let ty = t.core.types.prim(Prim::Double);
        Value::rval(ty, Scalar::Float(v), Sym::leaf(format!("{v}")))
    }

    #[test]
    fn integer_arithmetic() {
        let mut t = setup();
        let a = int_val(&mut t, 7);
        let b = int_val(&mut t, 3);
        let r = binary(&mut t, BinOp::Add, &a, &b, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(10));
        assert_eq!(r.sym.render(4), "7+3");
        let r = binary(&mut t, BinOp::Rem, &a, &b, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(1));
        let z = int_val(&mut t, 0);
        assert!(matches!(
            binary(&mut t, BinOp::Div, &a, &z, true),
            Err(DuelError::DivByZero { .. })
        ));
    }

    #[test]
    fn comparisons_yield_int() {
        let mut t = setup();
        let a = int_val(&mut t, 7);
        let b = int_val(&mut t, 3);
        let r = binary(&mut t, BinOp::Gt, &a, &b, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(1));
        let r = binary(&mut t, BinOp::Eq, &a, &b, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(0));
    }

    #[test]
    fn float_arithmetic_and_promotion() {
        let mut t = setup();
        let a = int_val(&mut t, 1);
        let b = dbl_val(&mut t, 2.5);
        let r = binary(&mut t, BinOp::Add, &a, &b, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Float(3.5));
        // The paper's `1 + (double)3/2`.
        let three = int_val(&mut t, 3);
        let dty = t.core.types.prim(Prim::Double);
        let c = cast(&mut t, dty, &three, true).unwrap();
        let two = int_val(&mut t, 2);
        let half = binary(&mut t, BinOp::Div, &c, &two, true).unwrap();
        let one = int_val(&mut t, 1);
        let r = binary(&mut t, BinOp::Add, &one, &half, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Float(2.5));
        assert_eq!(r.sym.render(4), "1+(double)3/2");
    }

    #[test]
    fn unsigned_wraparound() {
        let mut t = setup();
        let uty = t.core.types.prim(Prim::UInt);
        let a = Value::rval(uty, Scalar::Int(0xffff_ffff), Sym::leaf("a"));
        let b = Value::rval(uty, Scalar::Int(1), Sym::leaf("b"));
        let r = binary(&mut t, BinOp::Add, &a, &b, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(0));
        // Unsigned comparison: 0xffffffff > 1.
        let r = binary(&mut t, BinOp::Gt, &a, &b, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(1));
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let mut t = setup();
        let int = t.core.types.prim(Prim::Int);
        let arr = t.core.types.array(int, Some(10));
        let base = t.core.define_global("x", arr).unwrap();
        let x = Value::lval(arr, base, Sym::leaf("x"));
        let two = int_val(&mut t, 2);
        let p = binary(&mut t, BinOp::Add, &x, &two, true).unwrap();
        assert_eq!(load(&mut t, &p).unwrap(), Scalar::Ptr(base + 8));
        // p - x == 2.
        let d = binary(&mut t, BinOp::Sub, &p, &x, true).unwrap();
        assert_eq!(load(&mut t, &d).unwrap(), Scalar::Int(2));
    }

    #[test]
    fn indexing_reads_elements() {
        let mut t = setup();
        let int = t.core.types.prim(Prim::Int);
        let arr = t.core.types.array(int, Some(10));
        let base = t.core.define_global("x", arr).unwrap();
        t.core.write_int(base + 12, -9).unwrap();
        let x = Value::lval(arr, base, Sym::leaf("x"));
        let i = int_val(&mut t, 3);
        let e = index(&mut t, &x, &i, true).unwrap();
        assert_eq!(e.sym.render(4), "x[3]");
        assert_eq!(load(&mut t, &e).unwrap(), Scalar::Int(-9));
        // Store through the lvalue.
        store(&mut t, &e, Scalar::Int(42)).unwrap();
        assert_eq!(t.core.read_int(base + 12).unwrap(), 42);
    }

    #[test]
    fn deref_null_and_wild_pointers() {
        let mut t = setup();
        let int = t.core.types.prim(Prim::Int);
        let p = t.core.types.pointer(int);
        let null = Value::rval(p, Scalar::Ptr(0), Sym::leaf("p"));
        assert!(matches!(
            unary(&mut t, UnOp::Deref, &null, true),
            Err(DuelError::IllegalMemory { .. })
        ));
        let wild = Value::rval(p, Scalar::Ptr(0xdead_0000_0000), Sym::leaf("q"));
        let e = unary(&mut t, UnOp::Deref, &wild, true).unwrap_err();
        match e {
            DuelError::IllegalMemory { sym, addr, .. } => {
                assert_eq!(sym, "q");
                assert_eq!(addr, 0xdead_0000_0000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn address_of() {
        let mut t = setup();
        let int = t.core.types.prim(Prim::Int);
        let a = t.core.define_global("g", int).unwrap();
        let g = Value::lval(int, a, Sym::leaf("g"));
        let p = unary(&mut t, UnOp::Addr, &g, true).unwrap();
        assert_eq!(load(&mut t, &p).unwrap(), Scalar::Ptr(a));
        assert_eq!(p.sym.render(4), "&g");
        let r = int_val(&mut t, 1);
        assert!(matches!(
            unary(&mut t, UnOp::Addr, &r, true),
            Err(DuelError::NotLvalue { .. })
        ));
    }

    #[test]
    fn logical_not_and_bitnot() {
        let mut t = setup();
        let a = int_val(&mut t, 0);
        let r = unary(&mut t, UnOp::Not, &a, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(1));
        let b = int_val(&mut t, 5);
        let r = unary(&mut t, UnOp::BitNot, &b, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(-6));
    }

    #[test]
    fn char_promotes_on_negate() {
        let mut t = setup();
        let cty = t.core.types.prim(Prim::Char);
        let c = Value::rval(cty, Scalar::Int(7), Sym::leaf("c"));
        let r = unary(&mut t, UnOp::Neg, &c, true).unwrap();
        assert_eq!(load(&mut t, &r).unwrap(), Scalar::Int(-7));
        assert_eq!(t.core.types.display(r.ty), "int");
    }

    #[test]
    fn normalize_int_widths() {
        assert_eq!(normalize_int(256, 1, false), 0);
        assert_eq!(normalize_int(255, 1, true), -1);
        assert_eq!(normalize_int(255, 1, false), 255);
        assert_eq!(normalize_int(-1, 4, false), 0xffff_ffff);
        assert_eq!(normalize_int(i128::from(i64::MAX), 8, true), i64::MAX);
    }

    #[test]
    fn field_access_and_bitfields() {
        let mut t = setup();
        let u = t.core.types.prim(Prim::UInt);
        let (rid, sty) = t.core.types.declare_struct("flags");
        t.core.types.define_record(
            rid,
            vec![
                duel_ctype::Field::bitfield("a", u, 3),
                duel_ctype::Field::bitfield("b", u, 5),
            ],
        );
        let addr = t.core.define_global("f", sty).unwrap();
        t.core.write_uint(addr, 0b1111_1101, 4).unwrap();
        let v = Value::lval(sty, addr, Sym::leaf("f"));
        assert!(has_field(&t, sty, "a"));
        assert!(!has_field(&t, sty, "z"));
        let a = field_of(&mut t, &v, "a", false, &Sym::leaf("a")).unwrap();
        assert_eq!(load(&mut t, &a).unwrap(), Scalar::Int(0b101));
        assert_eq!(a.sym.render(4), "f.a");
        let b = field_of(&mut t, &v, "b", false, &Sym::leaf("b")).unwrap();
        assert_eq!(load(&mut t, &b).unwrap(), Scalar::Int(0b11111));
        store(&mut t, &b, Scalar::Int(0)).unwrap();
        assert_eq!(t.core.read_uint(addr, 4).unwrap(), 0b101);
    }

    #[test]
    fn call_value_roundtrip() {
        let mut t = setup();
        let v = int_val(&mut t, -5);
        let cv = to_call_value(&mut t, &v).unwrap();
        let back = from_call_value(&mut t, &cv, Sym::leaf("r")).unwrap();
        assert_eq!(load(&mut t, &back).unwrap(), Scalar::Int(-5));
    }
}
