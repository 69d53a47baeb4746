//! An in-process simulated debuggee.
//!
//! [`SimTarget`] implements [`Target`] over a flat byte arena plus
//! symbol/frame tables, giving the evaluator, the mini-C VM and the
//! MI mock server one shared notion of "a process being debugged".
//! The arena is based at [`ARENA_BASE`], so small integers and typical
//! wild-pointer values (`0`, `10`, `0x99`, `0xdead_beef`) are unmapped
//! and fault exactly like they would on a real target.

use crate::error::{TargetError, TargetResult};
use crate::iface::{CallValue, FrameInfo, ReadRange, Target, VarInfo, VarKind};
use crate::value_io;
use duel_ctype::{Abi, Endian, EnumId, Prim, RecordId, TypeId, TypeTable};
use std::collections::HashMap;

/// Lowest mapped address of the simulated arena.
pub const ARENA_BASE: u64 = 0x1000;

/// Hard ceiling on arena growth (stops runaway `malloc` from hostile
/// expressions; well above every canned scenario's footprint).
const ARENA_CAP: u64 = 1 << 28;

/// The flat memory arena of a simulated debuggee.
#[derive(Clone, Debug, Default)]
pub struct SimMemory {
    bytes: Vec<u8>,
}

impl SimMemory {
    /// Lowest mapped address.
    pub fn base(&self) -> u64 {
        ARENA_BASE
    }

    /// Whether `[addr, addr+len)` lies inside the mapped arena.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        let end = ARENA_BASE + self.bytes.len() as u64;
        addr >= ARENA_BASE
            && addr
                .checked_add(len)
                .map(|stop| stop <= end)
                .unwrap_or(false)
            && addr <= end
    }

    /// Reads `buf.len()` bytes at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        let len = buf.len() as u64;
        if !self.contains(addr, len) {
            return Err(TargetError::IllegalMemory { addr, len });
        }
        let off = (addr - ARENA_BASE) as usize;
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
        Ok(())
    }

    /// Writes `bytes` at `addr`.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        let len = bytes.len() as u64;
        if !self.contains(addr, len) {
            return Err(TargetError::IllegalMemory { addr, len });
        }
        let off = (addr - ARENA_BASE) as usize;
        self.bytes[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads a NUL-terminated string of at most `max` bytes at `addr`
    /// (stopping early at the end of mapped memory).
    pub fn read_cstring(&self, addr: u64, max: usize) -> TargetResult<String> {
        if !self.contains(addr, 1) {
            return Err(TargetError::IllegalMemory { addr, len: 1 });
        }
        let mut out = Vec::new();
        for i in 0..max as u64 {
            // checked: a string straddling the top of the address space
            // must stop at the edge, not overflow.
            let Some(a) = addr.checked_add(i) else { break };
            if !self.contains(a, 1) {
                break;
            }
            let b = self.bytes[(a - ARENA_BASE) as usize];
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }
}

#[derive(Clone, Debug)]
struct SimFrame {
    function: String,
    line: Option<u32>,
    locals: Vec<(String, u64, TypeId)>,
}

/// The state of a simulated debuggee: memory, symbols, types, frames
/// and buffered `printf` output.
#[derive(Clone, Debug)]
pub struct SimCore {
    /// The ABI the debuggee was "compiled" for.
    pub abi: Abi,
    /// The debuggee's type information.
    pub types: TypeTable,
    /// Its memory.
    pub mem: SimMemory,
    globals: HashMap<String, (u64, TypeId)>,
    /// Stack frames; the *last* entry is the innermost frame.
    frames: Vec<SimFrame>,
    output: String,
    /// Bound on the arena's size: [`ARENA_CAP`], except for the
    /// `.query` telemetry image, which is built unbounded and then
    /// capped at its own size plus its scratch allowance.
    pub(crate) arena_cap: u64,
}

impl SimCore {
    /// An empty debuggee with the given ABI.
    pub fn new(abi: Abi) -> SimCore {
        SimCore {
            abi,
            types: TypeTable::new(),
            mem: SimMemory::default(),
            globals: HashMap::new(),
            frames: Vec::new(),
            output: String::new(),
            arena_cap: ARENA_CAP,
        }
    }

    /// Bump-allocates `size` bytes with the given alignment.
    pub fn alloc(&mut self, size: u64, align: u64) -> TargetResult<u64> {
        let align = align.max(1);
        let end = ARENA_BASE + self.mem.bytes.len() as u64;
        // checked: a hostile alignment (e.g. u64::MAX from a debuggee
        // call) must fault, not overflow the rounding multiply.
        let addr = end
            .div_ceil(align)
            .checked_mul(align)
            .ok_or_else(|| TargetError::Backend("allocation alignment overflows".to_string()))?;
        let new_end = addr.checked_add(size).ok_or(TargetError::Backend(
            "allocation overflows the address space".to_string(),
        ))?;
        if new_end - ARENA_BASE > self.arena_cap {
            return Err(TargetError::Backend(format!(
                "simulator arena exhausted: cannot allocate {size} byte(s)"
            )));
        }
        self.mem.bytes.resize((new_end - ARENA_BASE) as usize, 0);
        Ok(addr)
    }

    /// Caps the arena at `extra` bytes past its current end.
    pub(crate) fn cap_growth(&mut self, extra: u64) {
        self.arena_cap = self.mem.bytes.len() as u64 + extra;
    }

    /// Defines a zero-initialized global of type `ty`, returning its
    /// address.
    pub fn define_global(&mut self, name: &str, ty: TypeId) -> TargetResult<u64> {
        let (size, align) = self
            .types
            .size_align(ty, &self.abi)
            .map_err(|e| TargetError::Backend(e.to_string()))?;
        let addr = self.alloc(size.max(1), align)?;
        self.globals.insert(name.to_string(), (addr, ty));
        Ok(addr)
    }

    /// Defines a global as a raw `size`-byte buffer (typed `char[size]`),
    /// returning its address. Fails with a [`TargetError`] if the arena
    /// cap is hit (a hostile size must fault, not panic).
    pub fn define_global_bytes(&mut self, name: &str, size: u64) -> TargetResult<u64> {
        let ch = self.types.prim(Prim::Char);
        let ty = self.types.array(ch, Some(size));
        let addr = self.alloc(size.max(1), 16)?;
        self.globals.insert(name.to_string(), (addr, ty));
        Ok(addr)
    }

    /// Defines a zero-initialized local in the innermost frame.
    pub fn define_local(&mut self, name: &str, ty: TypeId) -> TargetResult<u64> {
        let (size, align) = self
            .types
            .size_align(ty, &self.abi)
            .map_err(|e| TargetError::Backend(e.to_string()))?;
        let addr = self.alloc(size.max(1), align)?;
        let frame = self
            .frames
            .last_mut()
            .ok_or_else(|| TargetError::Backend("no active frame for local".to_string()))?;
        frame.locals.push((name.to_string(), addr, ty));
        Ok(addr)
    }

    /// Pushes a new innermost stack frame.
    pub fn push_frame(&mut self, function: &str) {
        self.frames.push(SimFrame {
            function: function.to_string(),
            line: None,
            locals: Vec::new(),
        });
    }

    /// Pops the innermost stack frame (its locals go out of scope; the
    /// storage is not reclaimed — this is a bump arena).
    pub fn pop_frame(&mut self) {
        self.frames.pop();
    }

    /// Records the current source line of the innermost frame.
    pub fn set_line(&mut self, line: u32) {
        if let Some(f) = self.frames.last_mut() {
            f.line = Some(line);
        }
    }

    /// Debuggee-side `malloc`.
    pub fn malloc(&mut self, size: u64) -> TargetResult<u64> {
        self.alloc(size.max(1), 16)
    }

    /// Copies `s` into the arena as a NUL-terminated string and returns
    /// its address.
    pub fn intern_cstring(&mut self, s: &str) -> TargetResult<u64> {
        let bytes = s.as_bytes();
        let addr = self.alloc(bytes.len() as u64 + 1, 1)?;
        self.mem.write(addr, bytes)?;
        self.mem.write(addr + bytes.len() as u64, &[0])?;
        Ok(addr)
    }

    fn encode(&self, v: u64, size: usize) -> Vec<u8> {
        let size = size.min(8);
        match self.abi.endian {
            Endian::Little => v.to_le_bytes()[..size].to_vec(),
            Endian::Big => v.to_be_bytes()[8 - size..].to_vec(),
        }
    }

    /// Writes a `size`-byte unsigned integer at `addr`.
    pub fn write_uint(&mut self, addr: u64, v: u64, size: usize) -> TargetResult<()> {
        let bytes = self.encode(v, size);
        self.mem.write(addr, &bytes)
    }

    /// Reads a `size`-byte unsigned integer at `addr`.
    pub fn read_uint(&self, addr: u64, size: usize) -> TargetResult<u64> {
        let mut buf = [0u8; 8];
        let buf = &mut buf[..size.min(8)];
        self.mem.read(addr, buf)?;
        Ok(crate::value_io::decode_uint(buf, self.abi.endian))
    }

    /// Writes a 4-byte `int` at `addr`.
    pub fn write_int(&mut self, addr: u64, v: i32) -> TargetResult<()> {
        self.write_uint(addr, v as u32 as u64, 4)
    }

    /// Reads a 4-byte `int` at `addr`.
    pub fn read_int(&self, addr: u64) -> TargetResult<i32> {
        Ok(self.read_uint(addr, 4)? as u32 as i32)
    }

    /// Writes a pointer (ABI width) at `addr`.
    pub fn write_ptr(&mut self, addr: u64, v: u64) -> TargetResult<()> {
        let size = self.abi.pointer_bytes as usize;
        self.write_uint(addr, v, size)
    }

    /// Reads a pointer (ABI width) at `addr`.
    pub fn read_ptr(&self, addr: u64) -> TargetResult<u64> {
        self.read_uint(addr, self.abi.pointer_bytes as usize)
    }

    /// Address and type of a global, if defined.
    pub fn global_addr(&self, name: &str) -> Option<(u64, TypeId)> {
        self.globals.get(name).copied()
    }

    fn resolve(&self, name: &str) -> Option<VarInfo> {
        if let Some(frame) = self.frames.last() {
            if let Some((n, addr, ty)) = frame.locals.iter().rev().find(|(n, _, _)| n == name) {
                return Some(VarInfo {
                    name: n.clone(),
                    addr: *addr,
                    ty: *ty,
                    kind: VarKind::Local { frame: 0 },
                });
            }
        }
        self.globals.get(name).map(|(addr, ty)| VarInfo {
            name: name.to_string(),
            addr: *addr,
            ty: *ty,
            kind: VarKind::Global,
        })
    }

    fn resolve_in_frame(&self, name: &str, frame: usize) -> Option<VarInfo> {
        let idx = self.frames.len().checked_sub(1 + frame)?;
        let f = self.frames.get(idx)?;
        f.locals
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|(n, addr, ty)| VarInfo {
                name: n.clone(),
                addr: *addr,
                ty: *ty,
                kind: VarKind::Local { frame },
            })
    }

    fn arg_raw(&self, args: &[CallValue], i: usize) -> u64 {
        args.get(i).map(|a| a.to_u64(&self.abi)).unwrap_or(0)
    }

    fn arg_int(&self, args: &[CallValue], i: usize) -> i64 {
        args.get(i)
            .map(|a| value_io::sign_extend(a.to_u64(&self.abi), a.bytes.len()))
            .unwrap_or(0)
    }

    fn format_printf(&self, fmt: &str, args: &[CallValue]) -> TargetResult<String> {
        let mut out = String::new();
        let mut ai = 1; // args[0] is the format string
        let mut chars = fmt.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            if chars.peek() == Some(&'%') {
                chars.next();
                out.push('%');
                continue;
            }
            let mut left = false;
            if chars.peek() == Some(&'-') {
                left = true;
                chars.next();
            }
            let mut width = 0usize;
            while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                width = width * 10 + d as usize;
                chars.next();
            }
            let Some(conv) = chars.next() else {
                out.push('%');
                break;
            };
            let rendered = match conv {
                'd' | 'i' => self.arg_int(args, ai).to_string(),
                'u' => self.arg_raw(args, ai).to_string(),
                'x' => format!("{:x}", self.arg_raw(args, ai)),
                'c' => ((self.arg_raw(args, ai) as u8) as char).to_string(),
                's' => self.mem.read_cstring(self.arg_raw(args, ai), 4096)?,
                other => {
                    // Unknown conversion: emit it literally, consume no
                    // argument.
                    out.push('%');
                    if left {
                        out.push('-');
                    }
                    out.push(other);
                    continue;
                }
            };
            ai += 1;
            if rendered.len() >= width {
                out.push_str(&rendered);
            } else if left {
                out.push_str(&rendered);
                for _ in rendered.len()..width {
                    out.push(' ');
                }
            } else {
                for _ in rendered.len()..width {
                    out.push(' ');
                }
                out.push_str(&rendered);
            }
        }
        Ok(out)
    }

    fn call_native(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue> {
        match name {
            "printf" => {
                if args.is_empty() {
                    return Err(TargetError::CallFailed {
                        func: "printf".to_string(),
                        reason: "missing format string argument".to_string(),
                    });
                }
                let fmt = self.mem.read_cstring(self.arg_raw(args, 0), 4096)?;
                let text = self.format_printf(&fmt, args)?;
                let n = text.chars().count() as i64;
                self.output.push_str(&text);
                let int = self.types.prim(Prim::Int);
                CallValue::from_u64(int, n as u64, 4, &self.abi)
            }
            "malloc" => {
                let size = self.arg_raw(args, 0);
                let addr = self.malloc(size)?;
                let void = self.types.void();
                let pv = self.types.pointer(void);
                let psize = self.abi.pointer_bytes as usize;
                CallValue::from_u64(pv, addr, psize, &self.abi)
            }
            "strlen" => {
                let s = self.mem.read_cstring(self.arg_raw(args, 0), 1 << 20)?;
                let int = self.types.prim(Prim::Int);
                CallValue::from_u64(int, s.len() as u64, 4, &self.abi)
            }
            "abs" => {
                let v = self.arg_int(args, 0);
                let int = self.types.prim(Prim::Int);
                CallValue::from_u64(int, v.unsigned_abs() & 0xffff_ffff, 4, &self.abi)
            }
            _ => Err(TargetError::UnknownFunction(name.to_string())),
        }
    }

    fn has_native(&self, name: &str) -> bool {
        matches!(name, "printf" | "malloc" | "strlen" | "abs")
    }
}

/// A simulated debuggee exposed through the [`Target`] trait.
#[derive(Clone, Debug)]
pub struct SimTarget {
    /// The simulated process; helpers build scenarios through it.
    pub core: SimCore,
}

impl SimTarget {
    /// An empty simulated debuggee with the given ABI.
    pub fn new(abi: Abi) -> SimTarget {
        SimTarget {
            core: SimCore::new(abi),
        }
    }
}

impl Target for SimTarget {
    fn abi(&self) -> &Abi {
        &self.core.abi
    }

    fn types(&self) -> &TypeTable {
        &self.core.types
    }

    fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.core.types
    }

    fn get_bytes(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        self.core.mem.read(addr, buf)
    }

    fn get_bytes_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        // Native vectored read: one pass over the arena, no per-range
        // call overhead — a simulated single wire turn.
        ranges
            .iter_mut()
            .map(|r| self.core.mem.read(r.addr, r.buf))
            .collect()
    }

    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        self.core.mem.write(addr, bytes)
    }

    fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64> {
        self.core.alloc(size, align)
    }

    fn call_func(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue> {
        self.core.call_native(name, args)
    }

    fn get_variable(&mut self, name: &str) -> Option<VarInfo> {
        self.core.resolve(name)
    }

    fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<VarInfo> {
        self.core.resolve_in_frame(name, frame)
    }

    fn lookup_typedef(&mut self, name: &str) -> Option<TypeId> {
        self.core.types.typedef(name)
    }

    fn lookup_struct(&mut self, tag: &str) -> Option<RecordId> {
        self.core.types.struct_tag(tag)
    }

    fn lookup_union(&mut self, tag: &str) -> Option<RecordId> {
        self.core.types.union_tag(tag)
    }

    fn lookup_enum(&mut self, tag: &str) -> Option<EnumId> {
        self.core.types.enum_tag(tag)
    }

    fn has_function(&mut self, name: &str) -> bool {
        self.core.has_native(name)
    }

    fn frame_count(&mut self) -> usize {
        self.core.frames.len()
    }

    fn frame_info(&mut self, n: usize) -> Option<FrameInfo> {
        let idx = self.core.frames.len().checked_sub(1 + n)?;
        self.core.frames.get(idx).map(|f| FrameInfo {
            function: f.function.clone(),
            line: f.line,
        })
    }

    fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
        self.core.mem.contains(addr, len)
    }

    fn take_output(&mut self) -> String {
        std::mem::take(&mut self.core.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_addresses_are_unmapped() {
        let mut t = SimTarget::new(Abi::lp64());
        for addr in [0u64, 10, 0x99, 0x999999, 0xdead_beef, 0xdead_beef_0000] {
            assert!(!t.is_mapped(addr, 1), "0x{addr:x} should be unmapped");
        }
        let mut buf = [0u8; 4];
        assert_eq!(
            t.get_bytes(10, &mut buf),
            Err(TargetError::IllegalMemory { addr: 10, len: 4 })
        );
    }

    #[test]
    fn globals_roundtrip() {
        let mut t = SimTarget::new(Abi::lp64());
        let int = t.core.types.prim(Prim::Int);
        let a = t.core.define_global("a", int).unwrap();
        t.core.write_int(a, -42).unwrap();
        assert_eq!(t.core.read_int(a).unwrap(), -42);
        let v = t.get_variable("a").unwrap();
        assert_eq!(v.addr, a);
        assert_eq!(v.kind, VarKind::Global);
    }

    #[test]
    fn locals_shadow_globals_and_frames_order() {
        let mut t = SimTarget::new(Abi::lp64());
        let int = t.core.types.prim(Prim::Int);
        t.core.define_global("v", int).unwrap();
        t.core.push_frame("main");
        t.core.push_frame("helper");
        let local = t.core.define_local("v", int).unwrap();
        assert_eq!(t.frame_count(), 2);
        assert_eq!(t.frame_info(0).unwrap().function, "helper");
        assert_eq!(t.frame_info(1).unwrap().function, "main");
        let v = t.get_variable("v").unwrap();
        assert_eq!(v.addr, local);
        assert_eq!(v.kind, VarKind::Local { frame: 0 });
        t.core.pop_frame();
        assert_eq!(t.get_variable("v").unwrap().kind, VarKind::Global);
    }

    #[test]
    fn printf_formats_and_counts() {
        let mut t = SimTarget::new(Abi::lp64());
        let fmt = t.core.intern_cstring("v=%d\n").unwrap();
        let int = t.core.types.prim(Prim::Int);
        let args = [
            CallValue::from_u64(int, fmt, 8, &Abi::lp64()).unwrap(),
            CallValue::from_u64(int, 7, 4, &Abi::lp64()).unwrap(),
        ];
        let r = t.call_func("printf", &args).unwrap();
        assert_eq!(r.to_u64(&Abi::lp64()), 4);
        assert_eq!(t.take_output(), "v=7\n");
        assert_eq!(t.take_output(), "");
    }

    #[test]
    fn printf_width_and_string() {
        let mut t = SimTarget::new(Abi::lp64());
        let abi = Abi::lp64();
        let fmt = t.core.intern_cstring("%d|%u|%x|%c|%s|%5d|%-3d|").unwrap();
        let s = t.core.intern_cstring("str").unwrap();
        let int = t.core.types.prim(Prim::Int);
        let mk = |v: u64, size: usize| CallValue::from_u64(int, v, size, &abi).unwrap();
        let args = [
            mk(fmt, 8),
            mk((-7i32) as u32 as u64, 4),
            mk(7, 4),
            mk(255, 4),
            mk('Z' as u64, 4),
            mk(s, 8),
            mk(42, 4),
            mk(1, 4),
        ];
        t.call_func("printf", &args).unwrap();
        assert_eq!(t.take_output(), "-7|7|ff|Z|str|   42|1  |");
    }

    #[test]
    fn natives() {
        let mut t = SimTarget::new(Abi::lp64());
        let abi = Abi::lp64();
        let int = t.core.types.prim(Prim::Int);
        // malloc returns fresh mapped space.
        let r = t
            .call_func("malloc", &[CallValue::from_u64(int, 16, 8, &abi).unwrap()])
            .unwrap();
        assert!(t.is_mapped(r.to_u64(&abi), 16));
        // strlen
        let s = t.core.intern_cstring("four").unwrap();
        let r = t
            .call_func("strlen", &[CallValue::from_u64(int, s, 8, &abi).unwrap()])
            .unwrap();
        assert_eq!(r.to_u64(&abi), 4);
        // abs
        let r = t
            .call_func(
                "abs",
                &[CallValue::from_u64(int, (-9i32) as u32 as u64, 4, &abi).unwrap()],
            )
            .unwrap();
        assert_eq!(r.to_u64(&abi), 9);
        // unknown
        assert_eq!(
            t.call_func("nope", &[]),
            Err(TargetError::UnknownFunction("nope".to_string()))
        );
        assert!(t.has_function("printf"));
        assert!(!t.has_function("nope"));
    }

    #[test]
    fn hostile_sizes_and_alignments_fault_instead_of_panicking() {
        let mut t = SimTarget::new(Abi::lp64());
        // Alignment rounding must not overflow.
        assert!(t.core.alloc(8, u64::MAX).is_err());
        // Oversized allocations hit the cap or the address space.
        assert!(t.core.alloc(u64::MAX, 16).is_err());
        assert!(t.core.define_global_bytes("big", u64::MAX).is_err());
        assert!(t.core.malloc(u64::MAX).is_err());
        // Strings at the top of the address space stop cleanly.
        assert!(t.core.mem.read_cstring(u64::MAX, 16).is_err());
        // The debuggee still works afterwards.
        let a = t.core.define_global_bytes("ok", 8).unwrap();
        t.core.write_int(a, 5).unwrap();
        assert_eq!(t.core.read_int(a).unwrap(), 5);
    }

    #[test]
    fn cstring_stops_at_arena_edge() {
        let mut t = SimTarget::new(Abi::lp64());
        let a = t.core.intern_cstring("hi").unwrap();
        assert_eq!(t.core.mem.read_cstring(a, 64).unwrap(), "hi");
        assert!(t.core.mem.read_cstring(0x10, 4).is_err());
    }

    #[test]
    fn big_endian_encode() {
        let mut t = SimTarget::new(Abi::ilp32_be());
        let int = t.core.types.prim(Prim::Int);
        let a = t.core.define_global("x", int).unwrap();
        t.core.write_int(a, 1).unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(a, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 1]);
        assert_eq!(t.core.read_int(a).unwrap(), 1);
    }
}
