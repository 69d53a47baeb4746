//! Byte-level encode/decode over a [`Target`].
//!
//! These free functions are the *only* place the rest of the system
//! converts between debuggee object representations and host scalars;
//! they work against any `Target` implementation (trait object or
//! concrete) and honour the target's byte order.

use crate::error::{TargetError, TargetResult};
use crate::iface::Target;
use duel_ctype::Endian;

/// Sign-extends the low `size` bytes of `raw` into an `i64`.
/// `size >= 8` is interpreted as a full-width value; `size == 0` has no
/// value bits at all and yields 0 (a 64-bit shift would overflow).
pub fn sign_extend(raw: u64, size: usize) -> i64 {
    if size == 0 {
        return 0;
    }
    if size >= 8 {
        return raw as i64;
    }
    let shift = 64 - size * 8;
    ((raw << shift) as i64) >> shift
}

/// Decodes `bytes` (at most 8 of them; any further ones are ignored)
/// as an unsigned integer in byte order `endian`, zero-extended. The
/// one decoder for scalars: [`read_uint`] uses it on what the target
/// returns, and callers holding bytes read in bulk use it directly.
pub fn decode_uint(bytes: &[u8], endian: Endian) -> u64 {
    let n = bytes.len().min(8);
    let mut b = [0u8; 8];
    match endian {
        Endian::Little => {
            b[..n].copy_from_slice(&bytes[..n]);
            u64::from_le_bytes(b)
        }
        Endian::Big => {
            b[8 - n..].copy_from_slice(&bytes[..n]);
            u64::from_be_bytes(b)
        }
    }
}

/// Reads a `size`-byte unsigned integer at `addr`.
///
/// Scalars wider than 8 bytes cannot fit a `u64` and fail with
/// [`TargetError::UnsupportedWidth`] instead of being silently
/// truncated (on big-endian targets the old truncation even kept the
/// *high*-order bytes — the same bug [`crate::CallValue::to_u64`] had).
pub fn read_uint(t: &mut (impl Target + ?Sized), addr: u64, size: usize) -> TargetResult<u64> {
    if size > 8 {
        return Err(TargetError::UnsupportedWidth { bytes: size as u64 });
    }
    let mut buf = [0u8; 8];
    t.get_bytes(addr, &mut buf[..size])?;
    Ok(decode_uint(&buf[..size], t.abi().endian))
}

/// Reads a `size`-byte signed integer at `addr`.
pub fn read_int(t: &mut (impl Target + ?Sized), addr: u64, size: usize) -> TargetResult<i64> {
    Ok(sign_extend(read_uint(t, addr, size)?, size))
}

/// Reads a 4- or 8-byte IEEE float at `addr`, widening to `f64`.
pub fn read_float(t: &mut (impl Target + ?Sized), addr: u64, size: usize) -> TargetResult<f64> {
    let raw = read_uint(t, addr, size)?;
    match size {
        4 => Ok(f32::from_bits(raw as u32) as f64),
        8 => Ok(f64::from_bits(raw)),
        n => Err(TargetError::Backend(format!(
            "unsupported float size {n} byte(s)"
        ))),
    }
}

/// Reads a pointer (the ABI's pointer width) at `addr`.
pub fn read_ptr(t: &mut (impl Target + ?Sized), addr: u64) -> TargetResult<u64> {
    let size = t.abi().pointer_bytes as usize;
    read_uint(t, addr, size)
}

/// Writes the low `size` bytes of `v` at `addr` in target byte order.
///
/// Like [`read_uint`], sizes wider than 8 bytes are rejected with
/// [`TargetError::UnsupportedWidth`] rather than silently clamped —
/// a clamp would leave the high bytes of the destination unwritten.
pub fn write_uint(
    t: &mut (impl Target + ?Sized),
    addr: u64,
    v: u64,
    size: usize,
) -> TargetResult<()> {
    if size > 8 {
        return Err(TargetError::UnsupportedWidth { bytes: size as u64 });
    }
    let bytes = match t.abi().endian {
        Endian::Little => v.to_le_bytes(),
        Endian::Big => v.to_be_bytes(),
    };
    let low = match t.abi().endian {
        Endian::Little => &bytes[..size],
        Endian::Big => &bytes[8 - size..],
    };
    t.put_bytes(addr, low)
}

/// Writes `v` as a 4- or 8-byte IEEE float at `addr`.
pub fn write_float(
    t: &mut (impl Target + ?Sized),
    addr: u64,
    v: f64,
    size: usize,
) -> TargetResult<()> {
    let raw = match size {
        4 => (v as f32).to_bits() as u64,
        8 => v.to_bits(),
        n => {
            return Err(TargetError::Backend(format!(
                "unsupported float size {n} byte(s)"
            )))
        }
    };
    write_uint(t, addr, raw, size)
}

/// Writes a pointer value (the ABI's pointer width) at `addr`.
pub fn write_ptr(t: &mut (impl Target + ?Sized), addr: u64, v: u64) -> TargetResult<()> {
    let size = t.abi().pointer_bytes as usize;
    write_uint(t, addr, v, size)
}

fn width_mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Reads a bit-field: `width` bits starting `off` bits above the LSB of
/// the `unit`-byte storage unit at `addr`.
pub fn read_bitfield(
    t: &mut (impl Target + ?Sized),
    addr: u64,
    unit: usize,
    off: u8,
    width: u8,
    signed: bool,
) -> TargetResult<i64> {
    let raw = read_uint(t, addr, unit)?;
    let v = (raw >> off) & width_mask(width);
    if signed && width < 64 {
        let shift = 64 - width as u32;
        Ok(((v << shift) as i64) >> shift)
    } else {
        Ok(v as i64)
    }
}

/// Writes a bit-field with read-modify-write, preserving the
/// neighbouring bits of the storage unit.
pub fn write_bitfield(
    t: &mut (impl Target + ?Sized),
    addr: u64,
    unit: usize,
    off: u8,
    width: u8,
    v: i64,
) -> TargetResult<()> {
    let raw = read_uint(t, addr, unit)?;
    let mask = width_mask(width) << off;
    let new = (raw & !mask) | (((v as u64) << off) & mask);
    write_uint(t, addr, new, unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extend_widths() {
        assert_eq!(sign_extend(0xff, 1), -1);
        assert_eq!(sign_extend(0x7f, 1), 127);
        assert_eq!(sign_extend(0xffff_fff9, 4), -7);
        assert_eq!(sign_extend(u64::MAX, 8), -1);
        assert_eq!(sign_extend(5, 8), 5);
    }

    #[test]
    fn sign_extend_zero_width_is_zero() {
        // Regression: size 0 used to compute `raw << 64`, overflowing.
        assert_eq!(sign_extend(0, 0), 0);
        assert_eq!(sign_extend(u64::MAX, 0), 0);
    }

    #[test]
    fn wide_scalars_are_rejected_not_truncated() {
        use crate::scenario;
        let mut t = scenario::scan_array();
        let x = t.get_variable("x").unwrap();
        assert_eq!(
            read_uint(&mut t, x.addr, 16),
            Err(TargetError::UnsupportedWidth { bytes: 16 })
        );
        assert_eq!(
            write_uint(&mut t, x.addr, 1, 16),
            Err(TargetError::UnsupportedWidth { bytes: 16 })
        );
        // 8 bytes is the widest supported scalar and still works.
        assert!(read_uint(&mut t, x.addr, 8).is_ok());
        assert!(write_uint(&mut t, x.addr, 0x0102_0304_0506_0708, 8).is_ok());
        assert_eq!(read_uint(&mut t, x.addr, 8).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn decode_uint_honours_byte_order_and_width() {
        let b = [0x01, 0x02, 0x03, 0x04];
        assert_eq!(decode_uint(&b, Endian::Little), 0x0403_0201);
        assert_eq!(decode_uint(&b, Endian::Big), 0x0102_0304);
        assert_eq!(decode_uint(&b[..1], Endian::Big), 0x01);
        assert_eq!(decode_uint(&[], Endian::Little), 0);
        let wide = [0xffu8; 8];
        assert_eq!(decode_uint(&wide, Endian::Big), u64::MAX);
    }

    #[test]
    fn bitfield_mask_widths() {
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(4), 0xf);
        assert_eq!(width_mask(64), u64::MAX);
    }
}
