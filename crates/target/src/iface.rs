//! The narrow two-way debugger interface.
//!
//! Following the paper, *everything* DUEL knows about the debuggee
//! flows through [`Target`]: raw memory, symbol/type lookups, frames,
//! and function calls. Porting DUEL to a new debugger means
//! implementing this one trait (the paper's gdb 4.2→4.6 port changed
//! four lines).

use crate::error::{TargetError, TargetResult};
use duel_ctype::{Abi, Endian, EnumId, RecordId, TypeId, TypeTable};

/// Where a variable lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// File- or program-scope variable.
    Global,
    /// Local of a stack frame; `frame` 0 is the innermost frame.
    Local {
        /// Frame index, 0 = innermost.
        frame: usize,
    },
}

/// A resolved variable: its address and type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarInfo {
    /// Source-level name.
    pub name: String,
    /// Address of the variable's storage in the debuggee.
    pub addr: u64,
    /// Its C type.
    pub ty: TypeId,
    /// Global or frame-local.
    pub kind: VarKind,
}

/// A stack frame, innermost-first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    /// Name of the function executing in this frame.
    pub function: String,
    /// Current source line, if known.
    pub line: Option<u32>,
}

/// A raw value crossing the call boundary: the bytes of one argument
/// or return value, tagged with its C type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallValue {
    /// C type of the value.
    pub ty: TypeId,
    /// Its object representation, target byte order, `size` bytes.
    pub bytes: Vec<u8>,
}

impl CallValue {
    /// Builds a `size`-byte value from the low bytes of `raw`, in the
    /// target's byte order.
    ///
    /// Sizes wider than 8 bytes cannot be represented by a `u64` and
    /// fail with [`TargetError::UnsupportedWidth`] rather than being
    /// silently truncated (symmetric with [`CallValue::to_u64`], which
    /// only ever consumes the low 8 bytes of a wider value).
    pub fn from_u64(ty: TypeId, raw: u64, size: usize, abi: &Abi) -> TargetResult<CallValue> {
        if size > 8 {
            return Err(TargetError::UnsupportedWidth { bytes: size as u64 });
        }
        let size = size.max(1);
        let bytes = match abi.endian {
            Endian::Little => raw.to_le_bytes()[..size].to_vec(),
            Endian::Big => raw.to_be_bytes()[8 - size..].to_vec(),
        };
        Ok(CallValue { ty, bytes })
    }

    /// Reassembles the bytes into a zero-extended `u64` (the low 8
    /// bytes if the value is wider).
    pub fn to_u64(&self, abi: &Abi) -> u64 {
        let low = match abi.endian {
            // Low-order bytes come first.
            Endian::Little => &self.bytes[..self.bytes.len().min(8)],
            // Low-order bytes come last: for a value wider than 8
            // bytes the *trailing* 8 are the low 8, so skip the
            // high-order head instead of truncating the tail.
            Endian::Big => &self.bytes[self.bytes.len().saturating_sub(8)..],
        };
        crate::value_io::decode_uint(low, abi.endian)
    }
}

/// One range of a vectored read: `buf.len()` bytes starting at `addr`.
///
/// A slice of these is what [`Target::get_bytes_multi`] fills in one
/// wire turn. The destination buffer doubles as the length request,
/// exactly like [`Target::get_bytes`].
#[derive(Debug)]
pub struct ReadRange<'a> {
    /// Start address of the range.
    pub addr: u64,
    /// Destination buffer; its length is the number of bytes to read.
    pub buf: &'a mut [u8],
}

impl<'a> ReadRange<'a> {
    /// Builds a range reading `buf.len()` bytes at `addr`.
    pub fn new(addr: u64, buf: &'a mut [u8]) -> ReadRange<'a> {
        ReadRange { addr, buf }
    }

    /// Length of the range in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the range is zero-length.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Reads the ranges `pick` selects (by index) in ONE vectored call to
/// `t`, returning each picked index with its result — how a layer
/// forwards part of a batch without dissolving it into scalar turns.
pub(crate) fn read_picked<T: Target + ?Sized>(
    t: &mut T,
    ranges: &mut [ReadRange<'_>],
    pick: impl Fn(usize) -> bool,
) -> Vec<(usize, TargetResult<()>)> {
    let (idx, mut fwd): (Vec<usize>, Vec<ReadRange<'_>>) = ranges
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| pick(*i))
        .map(|(i, r)| (i, ReadRange::new(r.addr, &mut *r.buf)))
        .unzip();
    let results = t.get_bytes_multi(&mut fwd);
    idx.into_iter().zip(results).collect()
}

/// One range of an *owned-buffer* vectored read: the asynchronous
/// counterpart of [`ReadRange`].
///
/// An in-flight read cannot borrow the caller's buffers (the actual
/// I/O happens on the pipeline worker thread while the caller keeps
/// running), so submission hands over owned buffers and completion
/// hands them back filled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedRange {
    /// Start address of the range.
    pub addr: u64,
    /// Destination buffer; its length is the number of bytes to read.
    pub buf: Vec<u8>,
}

impl OwnedRange {
    /// Builds a range reading `len` bytes at `addr`.
    pub fn new(addr: u64, len: usize) -> OwnedRange {
        OwnedRange {
            addr,
            buf: vec![0u8; len],
        }
    }
}

/// Ticket identifying one in-flight submission made through
/// [`Target::read_submit`] / [`Target::prefetch_submit`]. Tickets
/// complete strictly in submission order (FIFO).
pub type PipelineTicket = u64;

/// What one completed prefetch window did, as returned by
/// [`Target::prefetch_poll`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchCompletion {
    /// Pages the window read cleanly, now cached.
    pub clean: u64,
    /// Pages whose read failed (left for a demand read to re-drive).
    pub failed: u64,
}

/// The debugger-target interface.
///
/// Memory access and function calls return [`TargetResult`] so that
/// faults (bad address) and failures (dead backend) stay
/// distinguishable; lookups return `Option` because "not found" is an
/// ordinary answer, not an error.
pub trait Target {
    /// The ABI (sizes, alignment, byte order) of the debuggee.
    fn abi(&self) -> &Abi;

    /// The type table describing the debuggee's types.
    fn types(&self) -> &TypeTable;

    /// Mutable access to the type table (evaluation interns derived
    /// types — pointers, arrays — as it goes).
    fn types_mut(&mut self) -> &mut TypeTable;

    /// Reads `buf.len()` bytes of debuggee memory starting at `addr`.
    fn get_bytes(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()>;

    /// Reads several ranges in one wire turn, returning one result per
    /// range (same order). A failed range must not fail the batch:
    /// every range gets its own [`TargetResult`], exactly as if it had
    /// been read alone.
    ///
    /// The default is a correct scalar loop; backends and decorators
    /// override it to batch (one arena pass, one pipelined MI turn,
    /// coalesced cache-miss fetches, …).
    fn get_bytes_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        ranges
            .iter_mut()
            .map(|r| self.get_bytes(r.addr, r.buf))
            .collect()
    }

    /// Writes `bytes` into debuggee memory starting at `addr`.
    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()>;

    /// Allocates scratch space in the debuggee (for interned strings
    /// and call marshalling).
    fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64>;

    /// Calls debuggee function `name` with the given argument values.
    fn call_func(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue>;

    /// Resolves a variable: innermost-frame locals shadow globals.
    fn get_variable(&mut self, name: &str) -> Option<VarInfo>;

    /// Resolves a variable in a specific frame (0 = innermost).
    fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<VarInfo>;

    /// Looks up a `typedef` name.
    fn lookup_typedef(&mut self, name: &str) -> Option<TypeId>;

    /// Looks up a `struct` tag.
    fn lookup_struct(&mut self, tag: &str) -> Option<RecordId>;

    /// Looks up a `union` tag.
    fn lookup_union(&mut self, tag: &str) -> Option<RecordId>;

    /// Looks up an `enum` tag.
    fn lookup_enum(&mut self, tag: &str) -> Option<EnumId>;

    /// Whether the debuggee has a callable function named `name`.
    fn has_function(&mut self, name: &str) -> bool;

    /// Number of stack frames in the debuggee.
    fn frame_count(&mut self) -> usize;

    /// Frame metadata (0 = innermost).
    fn frame_info(&mut self, n: usize) -> Option<FrameInfo>;

    /// Whether `[addr, addr+len)` is readable debuggee memory.
    fn is_mapped(&mut self, addr: u64, len: u64) -> bool;

    /// Drains any `printf`-style output the debuggee produced since the
    /// last call.
    fn take_output(&mut self) -> String;

    /// The nearest [`crate::trace::TraceHandle`] in this target's
    /// decorator stack, if a [`crate::TraceTarget`] is present.
    ///
    /// Plain backends answer `None` (the default); decorators forward
    /// to their inner target; `TraceTarget` answers with its own
    /// handle. The evaluator uses this to attribute wire traffic to
    /// AST nodes while holding only `&mut dyn Target`.
    fn trace_handle(&self) -> Option<crate::trace::TraceHandle> {
        None
    }

    /// Installs a shared [`crate::span::SpanContext`] into this target
    /// and everything below it.
    ///
    /// Decorator towers are built inside-out, so the *outermost*
    /// [`crate::TraceTarget`] calls this on its inner target at
    /// construction time, replacing any context a lower trace layer
    /// created for itself — the whole tower ends up sharing one
    /// timeline. Layers that emit spans (retry, cache, supervise,
    /// trace) store the clone; pure pass-through layers just forward;
    /// leaf backends ignore it (the default).
    fn set_span_context(&mut self, _spans: &crate::span::SpanContext) {}

    /// The shared [`crate::span::SpanContext`] of this tower, if a
    /// span-aware layer is present.
    ///
    /// The evaluator discovers the context through this (holding only
    /// `&mut dyn Target`) to open root/node spans that the layers
    /// below will parent their own spans under.
    fn span_context(&self) -> Option<crate::span::SpanContext> {
        None
    }

    /// A handle onto the staleness state of the decorator stack, if a
    /// [`crate::SupervisedTarget`] is present.
    ///
    /// Plain backends answer `None` (the default); decorators forward
    /// to their inner target; `SupervisedTarget` answers with its own
    /// handle. The evaluator diffs the handle's stale-read counter
    /// around each produced value to decide whether to tag it
    /// `<stale>`, while holding only `&mut dyn Target`.
    fn staleness_handle(&self) -> Option<crate::supervise::StalenessHandle> {
        None
    }

    // -- asynchronous wire pipeline -----------------------------------

    /// Submits an owned-buffer vectored read without waiting for it.
    ///
    /// `None` (the default) means this tower has no I/O actor below and
    /// the caller must read synchronously instead. `Some(ticket)` means
    /// the read is now on the wire; reclaim it with
    /// [`Target::read_poll`]. Tickets complete strictly in submission
    /// order, and any *synchronous* operation issued after a submit is
    /// ordered behind it on the wire (one FIFO per tower).
    ///
    /// Only [`crate::AsyncTarget`] answers; decorators *between the
    /// page cache and the actor* (the record layer) forward it.
    fn read_submit(&mut self, _ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        None
    }

    /// Blocks until the in-flight read identified by `ticket` is done
    /// and returns the filled buffers with one result per range.
    ///
    /// `None` (the default) means the ticket is unknown here — callers
    /// only poll tickets minted by this tower's own
    /// [`Target::read_submit`], oldest first.
    fn read_poll(
        &mut self,
        _ticket: PipelineTicket,
    ) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        None
    }

    /// Asks the page cache to read `ranges` (address, length) ahead on
    /// the I/O actor below it, without blocking.
    ///
    /// `false` (the default) means the window was not taken: no cache,
    /// no live actor, every page already resident, or a recording in
    /// progress. The caller reads the window itself when it needs it.
    /// `true` means the window is on the wire. It completes inside the
    /// next vectored read that reaches the cache, which takes the
    /// window's read as its own fetch, so the layers above see, count
    /// and supervise one ordinary read, as without an actor; a window
    /// no read consumed completes in [`Target::prefetch_poll`]. A scan
    /// submits window `k+1` once window `k` has read cleanly, so one
    /// window is in flight at a time.
    ///
    /// [`crate::CachedTarget`] implements this; the layers above it
    /// (retry, supervise, trace) forward.
    fn prefetch_submit(&mut self, _ranges: &[(u64, u64)]) -> bool {
        false
    }

    /// Completes the oldest outstanding [`Target::prefetch_submit`]
    /// that no vectored read consumed: waits for its wire read if
    /// necessary, applies clean pages to the cache, and reports what
    /// happened. `None` (the default, and the steady state) means no
    /// submit is outstanding. A session calls it at the end of each
    /// command, so a scan that stopped early leaves the actor idle.
    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        None
    }

    /// The page size of the [`crate::CachedTarget`] in this tower, if
    /// any and enabled — what converts `prefetch_window` (pages) into
    /// bytes. `None` also tells the evaluator's wavefront planner that
    /// no cache would keep what it reads.
    fn cache_page_size(&self) -> Option<u64> {
        None
    }

    /// The nearest [`crate::PipelineHandle`] in this tower, if a
    /// [`crate::AsyncTarget`] is present. The evaluator diffs its
    /// counters around an evaluation to fill the pipeline fields of
    /// `EvalStats`, holding only `&mut dyn Target`.
    fn pipeline_handle(&self) -> Option<crate::pipeline::PipelineHandle> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duel_ctype::TypeTable;

    #[test]
    fn call_value_roundtrips_both_endians() {
        let mut tt = TypeTable::new();
        let int = tt.prim(duel_ctype::Prim::Int);
        let le = Abi::lp64();
        let be = Abi::ilp32_be();
        let v = CallValue::from_u64(int, 0x1122_3344, 4, &le).unwrap();
        assert_eq!(v.bytes, vec![0x44, 0x33, 0x22, 0x11]);
        assert_eq!(v.to_u64(&le), 0x1122_3344);
        let v = CallValue::from_u64(int, 0x1122_3344, 4, &be).unwrap();
        assert_eq!(v.bytes, vec![0x11, 0x22, 0x33, 0x44]);
        assert_eq!(v.to_u64(&be), 0x1122_3344);
    }

    #[test]
    fn wide_big_endian_values_keep_their_low_bytes() {
        // Regression: a 16-byte big-endian value's low 8 bytes are the
        // *trailing* 8; taking the leading 8 returned the high half.
        let mut tt = TypeTable::new();
        let int = tt.prim(duel_ctype::Prim::Int);
        let be = Abi::ilp32_be();
        let le = Abi::lp64();
        let mut wide_be = vec![0xAA; 8];
        wide_be.extend_from_slice(&0x1122_3344_5566_7788u64.to_be_bytes());
        let v = CallValue {
            ty: int,
            bytes: wide_be,
        };
        assert_eq!(v.to_u64(&be), 0x1122_3344_5566_7788);
        let mut wide_le = 0x1122_3344_5566_7788u64.to_le_bytes().to_vec();
        wide_le.extend_from_slice(&[0xAA; 8]);
        let v = CallValue {
            ty: int,
            bytes: wide_le,
        };
        assert_eq!(v.to_u64(&le), 0x1122_3344_5566_7788);
    }

    #[test]
    fn from_u64_rejects_wide_sizes_instead_of_truncating() {
        let mut tt = TypeTable::new();
        let int = tt.prim(duel_ctype::Prim::Int);
        let abi = Abi::lp64();
        assert_eq!(
            CallValue::from_u64(int, 1, 16, &abi),
            Err(TargetError::UnsupportedWidth { bytes: 16 })
        );
        // Size 0 still saturates up to one byte: a zero-width scalar
        // cannot cross the call boundary at all.
        assert_eq!(
            CallValue::from_u64(int, 0xFF, 0, &abi).unwrap().bytes.len(),
            1
        );
    }
}
