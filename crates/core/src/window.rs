//! Scan windows: the element loads of a hinted scan served from bytes
//! read one window per tower call.
//!
//! The paper's narrow interface reads memory in bulk
//! (`duel_get_target_bytes`), yet a scan like `x[..10000] >? 0` loads
//! each element on its own, and every load is one call down the whole
//! tower even when the page cache answers it. When an index expression
//! is a compile-time range (`x[a..b]`, `x[..n]`) over an array of
//! integers or floats, the indexing generator registers the span with
//! the context's [`ScanTarget`]. The first load inside a window of the
//! span reads that whole window in one vectored call (one wire turn
//! when the cache is cold); every other load inside the window is then
//! a copy out of the buffer.
//!
//! The buffer is a snapshot, so anything that could change memory
//! drops it: a store, a target allocation, a target call. A window
//! read that fails, or that was served stale by a degraded supervisor,
//! is discarded and the window's loads go to the target one by one,
//! so fault text and `<stale>` tags land on the same values as without
//! windows. Windows apply only while the tower has an enabled page
//! cache (`.set cache off` issues reads exactly as written).

use duel_target::{Layer, Op, ReadRange, Reply, StalenessHandle, Target};

/// A contiguous byte span laid out in windows of at most `window`
/// bytes, counted from `start`: the layout the prefetch planner warms
/// and the scan window reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    /// First byte.
    pub(crate) start: u64,
    /// Bytes in the span.
    pub(crate) total: u64,
    /// Bytes per window (the last one may be shorter).
    pub(crate) window: u64,
}

impl Span {
    /// Window `k` as `(start, len)`.
    fn window_at(&self, k: u64) -> (u64, u64) {
        let off = k * self.window;
        (self.start + off, self.window.min(self.total - off))
    }

    /// Every window in address order, with the byte offset (from
    /// `start`) at which it begins.
    pub(crate) fn windows(&self) -> impl Iterator<Item = (u64, (u64, u64))> + '_ {
        (0..self.total.div_ceil(self.window)).map(|k| (k * self.window, self.window_at(k)))
    }

    /// The index of the window holding byte `addr`, if the span does.
    fn index_of(&self, addr: u64) -> Option<u64> {
        let off = addr.checked_sub(self.start)?;
        (off < self.total).then(|| off / self.window)
    }
}

/// The evaluator's view of the target: the tower itself, plus the
/// bytes of the current scan window. Every op but a load inside the
/// window passes straight through.
pub struct ScanTarget<'a> {
    inner: &'a mut dyn Target,
    /// The tower's supervisor state: windows are neither read nor
    /// served while it is degraded, and a window read it served stale
    /// is discarded.
    staleness: Option<StalenessHandle>,
    /// The registered scan, if any.
    span: Option<Span>,
    /// The window `bytes` holds.
    held: Option<u64>,
    /// The window whose read last failed; its loads go to the target.
    failed: Option<u64>,
    bytes: Vec<u8>,
}

impl<'a> ScanTarget<'a> {
    /// Wraps the tower; no scan is registered.
    pub(crate) fn new(inner: &'a mut dyn Target) -> ScanTarget<'a> {
        let staleness = inner.staleness_handle();
        ScanTarget {
            inner,
            staleness,
            span: None,
            held: None,
            failed: None,
            bytes: Vec::new(),
        }
    }

    /// Registers the scan over `span`. Registering the span already
    /// held keeps its window; any other drops it.
    pub(crate) fn scan(&mut self, span: Span) {
        if self.span != Some(span) {
            self.span = Some(span);
            self.drop_window();
        }
    }

    /// Forgets the window's bytes and any failed read.
    fn drop_window(&mut self) {
        self.held = None;
        self.failed = None;
    }

    fn degraded(&self) -> bool {
        self.staleness.as_ref().is_some_and(|h| h.is_degraded())
    }

    /// The bytes `[addr, addr+len)` from the current window, reading
    /// the window first if the request is its first load. `None` sends
    /// the load to the target.
    fn serve(&mut self, addr: u64, len: usize) -> Option<&[u8]> {
        let span = self.span.filter(|_| len > 0)?;
        let k = span.index_of(addr)?;
        if self.degraded() {
            self.held = None;
            return None;
        }
        let (start, wlen) = span.window_at(k);
        let off = (addr - start) as usize;
        if off + len > wlen as usize {
            // Straddles the window's end.
            return None;
        }
        if self.held != Some(k) && (self.failed == Some(k) || !self.fill(start, wlen as usize, k)) {
            return None;
        }
        Some(&self.bytes[off..off + len])
    }

    /// Reads window `k` in one vectored call: the cache coalesces every
    /// page a vectored read misses into one backend turn.
    fn fill(&mut self, start: u64, len: usize, k: u64) -> bool {
        self.held = None;
        self.bytes.resize(len, 0);
        let stale = self.staleness.as_ref().map(|h| h.stale_reads());
        let mut range = [ReadRange::new(start, &mut self.bytes[..len])];
        let ok = matches!(self.inner.get_bytes_multi(&mut range)[..], [Ok(())])
            && stale == self.staleness.as_ref().map(|h| h.stale_reads());
        if ok {
            self.held = Some(k);
        } else {
            self.failed = Some(k);
        }
        ok
    }
}

impl<'a> Layer for ScanTarget<'a> {
    type Next = dyn Target + 'a;

    fn next(&self) -> &Self::Next {
        &*self.inner
    }

    fn next_mut(&mut self) -> &mut Self::Next {
        &mut *self.inner
    }

    #[inline]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        match op {
            Op::GetBytes { addr, buf } => {
                if let Some(bytes) = self.serve(addr, buf.len()) {
                    buf.copy_from_slice(bytes);
                    return Reply::Done(Ok(()));
                }
                Reply::Done(self.inner.get_bytes(addr, buf))
            }
            // The ops that can change memory.
            Op::PutBytes { .. } | Op::AllocSpace { .. } | Op::CallFunc { .. } => {
                self.drop_window();
                op.apply(&mut *self.inner)
            }
            op => op.apply(&mut *self.inner),
        }
    }
}
