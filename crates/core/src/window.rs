//! Scan windows: the element loads of a hinted scan served from bytes
//! read one window per tower call. The evaluator's only read-ahead
//! for scans.
//!
//! The paper's narrow interface reads memory in bulk
//! (`duel_get_target_bytes`), yet a scan like `x[..10000] >? 0` loads
//! each element on its own, and every load is one call down the whole
//! tower even when the page cache answers it. When an index expression
//! is a compile-time range (`x[a..b]`, `x[..n]`) over an array of
//! elements of fixed, nonzero size (integers, floats, records,
//! pointers), the indexing generator registers the span with the
//! context's [`ScanTarget`]. The first load inside a window of the span
//! reads that whole window in one vectored call (one wire turn when
//! the cache is cold); every other load inside the window is then a
//! copy out of the buffer.
//!
//! When the tower has a live I/O actor below its cache, a window that
//! read cleanly submits the next one ([`Target::prefetch_submit`]), so
//! window *k+1* is on the wire while the evaluator consumes window *k*.
//! The first load of window *k+1* reads it like any window, with one
//! vectored read; the cache completes the window submitted ahead inside
//! that read, so every layer above counts, traces and supervises the
//! read exactly as without an actor. Only then is *k+2* submitted: one
//! window in flight, and a scan that stops in a window whose read
//! failed has submitted nothing past it. A scan that stops early for
//! another reason (`@`, an error, the value limit) leaves its next
//! window read by the actor: one window a tower without one does not
//! read, which the session completes in its end-of-command drain.
//!
//! The buffer is a snapshot, so anything that could change memory
//! drops it: a store, a target allocation, a target call. A window
//! read that fails, or that was served stale by a degraded supervisor,
//! is discarded and the window's loads go to the target one by one,
//! so fault text and `<stale>` tags land on the same values as without
//! windows. Windows apply only while [`crate::EvalOptions::prefetch`]
//! is on and the tower has an enabled page cache, so `.set prefetch
//! off` and `.set cache off` issue reads exactly as written.

use duel_target::{Layer, Op, ReadRange, Reply, StalenessHandle, Target};

/// A contiguous byte span laid out in windows of at most `window`
/// bytes, counted from `start`.
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
    /// Windows submitted ahead this command (reported in
    /// [`crate::EvalStats`]).
    pub(crate) windows_ahead: u64,
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
            windows_ahead: 0,
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
        if self.held != Some(k) && (self.failed == Some(k) || !self.fill(span, k)) {
            return None;
        }
        Some(&self.bytes[off..off + len])
    }

    /// Reads window `k` in one vectored call: the cache coalesces every
    /// page a vectored read misses into one backend turn, or takes the
    /// window submitted ahead as that turn. With an I/O actor, a clean
    /// window submits window `k+1`.
    fn fill(&mut self, span: Span, k: u64) -> bool {
        let (start, len) = span.window_at(k);
        let len = len as usize;
        self.held = None;
        self.bytes.resize(len, 0);
        let stale = self.staleness.as_ref().map(|h| h.stale_reads());
        let mut range = [ReadRange::new(start, &mut self.bytes[..len])];
        let ok = matches!(self.inner.get_bytes_multi(&mut range)[..], [Ok(())])
            && stale == self.staleness.as_ref().map(|h| h.stale_reads());
        if ok {
            self.held = Some(k);
            self.submit(span, k + 1);
        } else {
            self.failed = Some(k);
        }
        ok
    }

    /// Offers window `k`, if the span has one, to the tower's I/O
    /// actor; the cache accepts it only when an actor runs and the
    /// window misses a page.
    fn submit(&mut self, span: Span, k: u64) {
        if k * span.window < span.total && self.inner.prefetch_submit(&[span.window_at(k)]) {
            self.windows_ahead += 1;
        }
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
