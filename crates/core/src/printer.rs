//! Rendering actual values for display.
//!
//! The `duel` command prints each produced value after its symbolic
//! value (`x[3] = 7`). This module renders the value half: integers in
//! decimal, the paper's `2.500` style for short doubles, chars as
//! glyphs, pointers in hex (with the pointed-to string for `char *`),
//! and aggregates structurally.

use duel_ctype::TypeKind;
use duel_target::Target;

use crate::{
    apply::{self, Class},
    error::DuelResult,
    value::{Place, Scalar, Value},
};

/// Renders the actual value of `v`.
pub fn format_value(t: &mut dyn Target, v: &Value, compress_threshold: u32) -> DuelResult<String> {
    format_depth(t, v, compress_threshold, 0)
}

fn format_depth(t: &mut dyn Target, v: &Value, thr: u32, depth: u32) -> DuelResult<String> {
    match apply::classify(t, v.ty) {
        Class::Record => format_record(t, v, thr, depth),
        Class::Array { elem, len } => format_array(t, v, elem, len, thr, depth),
        _ => {
            let s = apply::load(t, v)?;
            Ok(format_scalar(t, v, s))
        }
    }
}

fn format_scalar(t: &mut dyn Target, v: &Value, s: Scalar) -> String {
    match s {
        Scalar::Int(i) => match t.types().kind(v.ty) {
            TypeKind::Prim(
                duel_ctype::Prim::Char | duel_ctype::Prim::SChar | duel_ctype::Prim::UChar,
            ) => format_char(i),
            TypeKind::Enum(eid) => {
                let def = t.types().enum_def(*eid);
                match def.enumerators.iter().find(|(_, ev)| *ev == i) {
                    Some((name, _)) => name.clone(),
                    None => i.to_string(),
                }
            }
            _ => i.to_string(),
        },
        Scalar::Float(f) => format_double(f),
        Scalar::Ptr(p) => format_pointer(t, v, p),
    }
}

/// Formats a character value: glyph when printable, numeric otherwise.
fn format_char(i: i64) -> String {
    let b = i as u8;
    match b {
        0 => "'\\0'".to_string(),
        b'\n' => "'\\n'".to_string(),
        b'\t' => "'\\t'".to_string(),
        c if (c as i64 == i) && (c.is_ascii_graphic() || c == b' ') => {
            format!("'{}'", c as char)
        }
        _ => i.to_string(),
    }
}

/// Formats a double: the paper prints `1 + (double)3/2` as `2.500`, so
/// values that are exact at three decimals use that form.
pub fn format_double(f: f64) -> String {
    if !f.is_finite() {
        return format!("{f}");
    }
    if f.abs() < 1.0e9 && ((f * 1000.0).round() / 1000.0 - f).abs() < f64::EPSILON {
        return format!("{f:.3}");
    }
    if f.abs() >= 1.0e15 {
        return format!("{f:e}");
    }
    format!("{f}")
}

fn format_pointer(t: &mut dyn Target, v: &Value, p: u64) -> String {
    let base = format!("0x{p:x}");
    // A char pointer also shows the string, gdb-style.
    if let Class::Ptr { pointee } = apply::classify(t, v.ty) {
        if matches!(
            t.types().kind(pointee),
            TypeKind::Prim(
                duel_ctype::Prim::Char | duel_ctype::Prim::SChar | duel_ctype::Prim::UChar
            )
        ) && p != 0
            && t.is_mapped(p, 1)
        {
            if let Ok(s) = read_cstr(t, p, 64) {
                return format!("{base} {s:?}");
            }
        }
    }
    base
}

fn read_cstr(t: &mut dyn Target, addr: u64, max: usize) -> DuelResult<String> {
    let mut out = Vec::new();
    let mut a = addr;
    let mut b = [0u8; 1];
    while out.len() < max {
        t.get_bytes(a, &mut b)?;
        if b[0] == 0 {
            break;
        }
        out.push(b[0]);
        a += 1;
    }
    Ok(String::from_utf8_lossy(&out).into_owned())
}

fn format_record(t: &mut dyn Target, v: &Value, thr: u32, depth: u32) -> DuelResult<String> {
    if depth > 2 {
        return Ok("{…}".to_string());
    }
    let (rid, _) = t.types().as_record(v.ty).expect("record class");
    let rec = t.types().record(rid).clone();
    let mut parts = Vec::new();
    for f in &rec.fields {
        if f.name.is_empty() {
            continue;
        }
        let fv = apply::field_of(t, v, &f.name, false, &crate::sym::Sym::none())?;
        let text = match format_depth(t, &fv, thr, depth + 1) {
            Ok(s) => s,
            Err(_) => "<unreadable>".to_string(),
        };
        parts.push(format!("{} = {}", f.name, text));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn format_array(
    t: &mut dyn Target,
    v: &Value,
    elem: duel_ctype::TypeId,
    len: Option<u64>,
    thr: u32,
    depth: u32,
) -> DuelResult<String> {
    let addr = match v.place {
        Place::LVal(a) => a,
        _ => return Ok("<array>".to_string()),
    };
    // A char array prints as a string.
    if matches!(
        t.types().kind(elem),
        TypeKind::Prim(duel_ctype::Prim::Char | duel_ctype::Prim::SChar | duel_ctype::Prim::UChar)
    ) {
        let max = len.unwrap_or(64).min(256) as usize;
        if let Ok(s) = read_cstr(t, addr, max) {
            return Ok(format!("{s:?}"));
        }
    }
    let esize = t.types().size_of(elem, t.abi())?;
    let n = len.unwrap_or(0).min(10);
    let mut parts = Vec::new();
    for i in 0..n {
        let ev = Value::lval(elem, addr + i * esize, crate::sym::Sym::none());
        parts.push(format_depth(t, &ev, thr, depth + 1)?);
    }
    let ell = if len.unwrap_or(0) > n { ", …" } else { "" };
    Ok(format!("{{{}{}}}", parts.join(", "), ell))
}

/// Renders a value read back as a plain integer (used by tests).
pub fn as_int_text(t: &mut dyn Target, v: &Value) -> DuelResult<String> {
    let s = apply::load(t, v)?;
    Ok(match s {
        Scalar::Int(i) => i.to_string(),
        Scalar::Float(f) => format_double(f),
        Scalar::Ptr(p) => format!("0x{p:x}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Sym;
    use duel_ctype::{Abi, Field, Prim};
    use duel_target::SimTarget;

    #[test]
    fn doubles_use_paper_format() {
        assert_eq!(format_double(2.5), "2.500");
        assert_eq!(format_double(0.0), "0.000");
        assert_eq!(format_double(1.23456), "1.23456");
        assert_eq!(format_double(1.0e30), "1e30");
    }

    #[test]
    fn chars_and_enums() {
        let mut t = SimTarget::new(Abi::lp64());
        let c = t.core.types.prim(Prim::Char);
        let v = Value::rval(c, Scalar::Int(b'h' as i64), Sym::none());
        assert_eq!(format_value(&mut t, &v, 4).unwrap(), "'h'");
        let v0 = Value::rval(c, Scalar::Int(0), Sym::none());
        assert_eq!(format_value(&mut t, &v0, 4).unwrap(), "'\\0'");
        let (_, ety) = t
            .core
            .types
            .define_enum(Some("color"), vec![("RED".into(), 7)]);
        let ev = Value::rval(ety, Scalar::Int(7), Sym::none());
        assert_eq!(format_value(&mut t, &ev, 4).unwrap(), "RED");
        let ev2 = Value::rval(ety, Scalar::Int(9), Sym::none());
        assert_eq!(format_value(&mut t, &ev2, 4).unwrap(), "9");
    }

    #[test]
    fn char_pointers_show_strings() {
        let mut t = SimTarget::new(Abi::lp64());
        let c = t.core.types.prim(Prim::Char);
        let pc = t.core.types.pointer(c);
        let addr = t.core.intern_cstring("hi").unwrap();
        let v = Value::rval(pc, Scalar::Ptr(addr), Sym::none());
        let s = format_value(&mut t, &v, 4).unwrap();
        assert!(s.ends_with("\"hi\""), "{s}");
        let null = Value::rval(pc, Scalar::Ptr(0), Sym::none());
        assert_eq!(format_value(&mut t, &null, 4).unwrap(), "0x0");
    }

    #[test]
    fn records_and_arrays() {
        let mut t = SimTarget::new(Abi::lp64());
        let int = t.core.types.prim(Prim::Int);
        let (rid, sty) = t.core.types.declare_struct("pt");
        t.core
            .types
            .define_record(rid, vec![Field::new("x", int), Field::new("y", int)]);
        let addr = t.core.define_global("p", sty).unwrap();
        t.core.write_int(addr, 3).unwrap();
        t.core.write_int(addr + 4, -4).unwrap();
        let v = Value::lval(sty, addr, Sym::none());
        assert_eq!(format_value(&mut t, &v, 4).unwrap(), "{x = 3, y = -4}");
        let arr = t.core.types.array(int, Some(3));
        let aaddr = t.core.define_global("a", arr).unwrap();
        for i in 0..3 {
            t.core.write_int(aaddr + i * 4, i as i32 + 1).unwrap();
        }
        let av = Value::lval(arr, aaddr, Sym::none());
        assert_eq!(format_value(&mut t, &av, 4).unwrap(), "{1, 2, 3}");
    }

    #[test]
    fn char_arrays_print_as_strings() {
        let mut t = SimTarget::new(Abi::lp64());
        let c = t.core.types.prim(Prim::Char);
        let arr = t.core.types.array(c, Some(8));
        let addr = t.core.define_global("s", arr).unwrap();
        t.core.mem.write(addr, b"abc\0").unwrap();
        let v = Value::lval(arr, addr, Sym::none());
        assert_eq!(format_value(&mut t, &v, 4).unwrap(), "\"abc\"");
    }
}
