//! A caching decorator over the narrow debugger interface.
//!
//! Every DUEL memory access — each element of `x[..100]`, each hop of
//! `head-->next` — crosses [`Target::get_bytes`] as an individual
//! byte-range, which over a wire protocol like gdb/MI means one full
//! round-trip per element. [`CachedTarget`] amortizes that cost at the
//! seam itself (the decorator the paper's layering argues for, not the
//! evaluator):
//!
//! * **Page cache** — `get_bytes` is served from page-granular cached
//!   reads. A miss fetches the whole aligned page in one backend call,
//!   so adjacent element reads coalesce; pages are evicted LRU once
//!   [`CacheConfig::max_pages`] is reached. An ordered index from
//!   access stamp to page finds the victim in O(log n), so a cache
//!   that runs at capacity (a walk over more nodes than it holds) does
//!   not scan every resident page on each fill.
//! * **Fill-answered `is_mapped`** — the paper's interface has no
//!   mapping query: DUEL learns that a pointer is valid by reading
//!   through it. A resident page answers `is_mapped` for free; on a
//!   miss the cache fetches the aligned page(s) under the range (the
//!   fills the read that follows a valid-pointer check needs anyway)
//!   and answers from what became resident. It asks the backend
//!   itself only when the fill cannot vouch for the range: a
//!   transient error, a fault (the probe then decides, and a mapped
//!   range gets its readable prefix cached), a partial page that
//!   stops short of the range, or a range longer than one page (a
//!   pointer to a big array must not pull the array across the wire).
//! * **Lookup memoization** — `get_variable`, `lookup_typedef`,
//!   `lookup_struct`/`lookup_union`/`lookup_enum`, `has_function`,
//!   `frame_count` and `frame_info` results (including negative
//!   answers) are memoized until the next epoch.
//! * **Correctness** — `put_bytes` writes through and patches any
//!   cached page in place; `alloc_space` and `call_func` drop the page
//!   cache (a debuggee call can write anywhere); and
//!   [`CachedTarget::invalidate_all`] bumps the epoch when the target
//!   resumes. A failed page fetch (fault *or* transient error) caches
//!   nothing, so a flaky backend can never poison a page with partial
//!   data: after a transient error the access falls back to an exact
//!   uncached read; a fault is ruled on by one `is_mapped` probe over
//!   the request (a wild range gets one exact read, with no
//!   bisection; a mapped edge gets its page's readable prefix cached).
//!
//! Stacking order (see `DESIGN.md`): the cache sits *inside*
//! [`crate::RetryTarget`] (a retried operation re-enters the cache) and
//! *outside* [`crate::ChaosTarget`] in tests (injected faults hit the
//! cache the way real backend faults would).

use crate::error::{TargetError, TargetResult};
use crate::iface::{OwnedRange, PipelineTicket, PrefetchCompletion, ReadRange, Target};
use crate::op::{Op, Reply};
use crate::pipeline::run_multi;
use crate::span::{SpanContext, SpanKind};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Tuning knobs for a [`CachedTarget`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Page size in bytes for coalesced reads. Must be a power of two;
    /// [`CacheConfig::normalized`] rounds anything else up.
    pub page_size: u64,
    /// Maximum resident pages before LRU eviction kicks in.
    pub max_pages: usize,
    /// Whether caching is active. A disabled cache is a transparent
    /// pass-through that still counts backend traffic in its stats,
    /// which is what makes cached/uncached comparisons cheap.
    pub enabled: bool,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            page_size: 64,
            max_pages: 1024,
            enabled: true,
        }
    }
}

impl CacheConfig {
    /// A config with caching switched off (pass-through + counters).
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        }
    }

    /// Returns the config with `page_size` rounded up to a power of two
    /// (minimum 8) and `max_pages` at least 1.
    pub fn normalized(mut self) -> CacheConfig {
        self.page_size = self.page_size.max(8).next_power_of_two();
        self.max_pages = self.max_pages.max(1);
        self
    }
}

/// Counters describing what a [`CachedTarget`] did. All counters are
/// cumulative since construction or the last
/// [`CachedTarget::reset_stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pages served from the cache during `get_bytes`.
    pub page_hits: u64,
    /// Pages that had to be fetched (or read around) from the backend.
    pub page_misses: u64,
    /// `get_bytes` calls issued to the wrapped backend.
    pub backend_reads: u64,
    /// Bytes actually transferred from the backend by those reads.
    pub wire_bytes: u64,
    /// Memoized symbol/type/frame lookups answered from the cache.
    pub lookup_hits: u64,
    /// Lookups that had to go to the backend.
    pub lookup_misses: u64,
    /// Writes forwarded (and patched into cached pages).
    pub write_throughs: u64,
    /// Epoch bumps via [`CachedTarget::invalidate_all`].
    pub invalidations: u64,
    /// Vectored reads ([`Target::get_bytes_multi`]) served.
    pub multi_reads: u64,
    /// Total ranges across those vectored reads.
    pub multi_ranges: u64,
    /// Missing pages fetched by a coalesced vectored backend call.
    pub pages_prefetched: u64,
    /// `is_mapped` queries forwarded to the wrapped backend (those the
    /// resident or freshly filled pages could not answer).
    pub mapped_probes: u64,
}

impl CacheStats {
    /// Hit rate over page accesses, in `[0, 1]`; `None` before any
    /// cached read happened.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.page_hits + self.page_misses;
        if total == 0 {
            None
        } else {
            Some(self.page_hits as f64 / total as f64)
        }
    }
}

#[derive(Debug)]
struct Page {
    bytes: Vec<u8>,
    stamp: u64,
}

/// A [`Target`] decorator that batches and memoizes backend traffic.
///
/// See the module docs for the caching and invalidation contract.
#[derive(Debug)]
pub struct CachedTarget<T: Target> {
    inner: T,
    cfg: CacheConfig,
    pages: HashMap<u64, Page>,
    /// Access stamp → page base, one entry per resident page: the
    /// first entry is the LRU victim.
    lru: BTreeMap<u64, u64>,
    tick: u64,
    epoch: u64,
    stats: CacheStats,
    /// Lookup answers memoized until the next epoch, by the lookup's
    /// name (empty for frame queries), then by [`lookup_key`]'s op tag
    /// and frame argument.
    lookups: HashMap<String, Vec<(u8, usize, Reply)>>,
    /// Shared span timeline (installed by the trace layer above);
    /// miss fills and coalesced vectored fetches open `cache` spans.
    spans: Option<SpanContext>,
    /// Tickets of the [`Target::prefetch_submit`] windows in flight on
    /// the I/O actor below, oldest first. The next vectored read
    /// completes them, or [`Target::prefetch_poll`] does; a page drop,
    /// or a write to a page one of them reads, discards them.
    prefetch_pending: VecDeque<PipelineTicket>,
    /// Pages owned by an outstanding window; planning skips them, so
    /// no page is fetched twice while a window reads it.
    pending_pages: HashSet<u64>,
}

impl<T: Target> CachedTarget<T> {
    /// Wraps `inner` with the default config (64-byte pages, 1024-page
    /// LRU, enabled).
    pub fn new(inner: T) -> CachedTarget<T> {
        CachedTarget::with_config(inner, CacheConfig::default())
    }

    /// Wraps `inner` with an explicit config.
    pub fn with_config(inner: T, cfg: CacheConfig) -> CachedTarget<T> {
        CachedTarget {
            inner,
            cfg: cfg.normalized(),
            pages: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            epoch: 0,
            stats: CacheStats::default(),
            lookups: HashMap::new(),
            spans: None,
            prefetch_pending: VecDeque::new(),
            pending_pages: HashSet::new(),
        }
    }

    /// Opens a `cache` span (0 when spans are off).
    fn span_open(&self, name: &'static str, detail: impl FnOnce() -> String) -> u64 {
        match &self.spans {
            Some(s) if s.is_enabled() => s.push(SpanKind::Cache, name, detail),
            _ => 0,
        }
    }

    /// Closes a span opened by [`CachedTarget::span_open`].
    fn span_close(&self, id: u64) {
        if id != 0 {
            if let Some(s) = &self.spans {
                s.pop(id);
            }
        }
    }

    /// The wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped target. Anything that mutates the
    /// debuggee behind the cache's back (resuming execution, poking
    /// memory directly) must be followed by
    /// [`CachedTarget::invalidate_all`].
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets all counters to zero (the cache contents stay).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The resident pages, sorted by base address, with their cached
    /// bytes. Used by differential tests to assert the vectored and
    /// scalar read paths leave the cache in the identical state.
    pub fn resident_pages(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = self
            .pages
            .iter()
            .map(|(&base, p)| (base, p.bytes.clone()))
            .collect();
        out.sort_by_key(|(base, _)| *base);
        out
    }

    /// How many pages are resident right now (no byte copies — the
    /// cheap form of [`CachedTarget::resident_pages`] for telemetry
    /// snapshots).
    pub fn resident_page_count(&self) -> usize {
        self.pages.len()
    }

    /// The active config.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Whether caching is currently active.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Enables or disables caching. Disabling drops all cached state,
    /// so stale data from before the toggle can never be served later.
    pub fn set_enabled(&mut self, on: bool) {
        if self.cfg.enabled != on {
            self.cfg.enabled = on;
            self.invalidate_all();
        }
    }

    /// Number of epoch bumps so far (each stop of the target is one
    /// cache generation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drops every cached page and memoized lookup and bumps the
    /// epoch. Call this whenever the target resumes (or is mutated via
    /// [`CachedTarget::inner_mut`]): a stopped debuggee is immutable,
    /// a running one is not.
    pub fn invalidate_all(&mut self) {
        self.drop_pages();
        self.lookups.clear();
        self.epoch += 1;
        self.stats.invalidations += 1;
    }

    /// Drops cached memory pages only (lookup memos survive: symbols
    /// and types do not move when the debuggee writes memory), and the
    /// windows in flight, whose bytes predate the drop.
    fn drop_pages(&mut self) {
        self.pages.clear();
        self.lru.clear();
        self.discard_windows();
    }

    fn insert_page(&mut self, base: u64, bytes: Vec<u8>) {
        if self.pages.len() >= self.cfg.max_pages && !self.pages.contains_key(&base) {
            // Evict the least-recently-used page: the oldest stamp.
            if let Some((_, victim)) = self.lru.pop_first() {
                self.pages.remove(&victim);
            }
        }
        self.tick += 1;
        let page = Page {
            bytes,
            stamp: self.tick,
        };
        if let Some(old) = self.pages.insert(base, page) {
            self.lru.remove(&old.stamp);
        }
        self.lru.insert(self.tick, base);
    }

    /// Reads `[addr, addr+len)` where the whole range lies inside the
    /// page based at `base`, going through the cache.
    fn read_within_page(&mut self, base: u64, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        let off = (addr - base) as usize;
        if let Some(p) = self.pages.get_mut(&base) {
            // Partial pages (at the edge of mapped memory) may not
            // cover the tail of the request; anything they do cover is
            // a hit.
            if off + buf.len() <= p.bytes.len() {
                self.stats.page_hits += 1;
                // Re-stamp the page as the most recent, unless it
                // already is (a scan inside one page): then the LRU
                // order is unchanged and the index is left alone.
                if p.stamp != self.tick {
                    self.lru.remove(&p.stamp);
                    self.tick += 1;
                    p.stamp = self.tick;
                    self.lru.insert(self.tick, base);
                }
                buf.copy_from_slice(&p.bytes[off..off + buf.len()]);
                return Ok(());
            }
            return self.read_exact_uncached(addr, buf);
        }
        self.stats.page_misses += 1;
        // A miss fill is real wire work done on the evaluator's
        // behalf: span it so the fetch (and any fault-probe bisection)
        // is attributed to the node above.
        let fill_span =
            self.span_open("fill", || format!("page 0x{base:x}+{}", self.cfg.page_size));
        let r = self.fill_page_miss(base, addr, buf);
        self.span_close(fill_span);
        r
    }

    /// The miss path of [`CachedTarget::read_within_page`]: fill the
    /// aligned page (or its readable prefix) and serve the request.
    fn fill_page_miss(&mut self, base: u64, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        let off = (addr - base) as usize;
        let covered = match self.fetch_page(base) {
            Ok(true) => true,
            // A sick backend must never seed the cache: fall back to an
            // exact, uncached read of just what was asked for, so a
            // partial or failed fetch cannot poison a page. (The retry
            // layer above, if any, re-enters.)
            Err(_) => false,
            // A fault, ruled on as `is_mapped` rules on one: one probe
            // tells a wild range (no bisection) from a mapped edge. The
            // probe's "unmapped" is not a fault by itself (a flake on
            // the wire reads the same), so the exact read rules on it;
            // it also serves a request the edge's prefix does not cover
            // (or one whose bisection a flake aborted).
            Ok(false) => {
                let end = off + buf.len();
                self.probe_mapped(addr, buf.len() as u64)
                    && matches!(self.fill_prefix(base, end), Ok(n) if end <= n)
            }
        };
        if !covered {
            return self.read_exact_uncached(addr, buf);
        }
        let p = &self.pages[&base];
        buf.copy_from_slice(&p.bytes[off..off + buf.len()]);
        Ok(())
    }

    /// Fetches the whole aligned page at `base` in one backend read and
    /// caches it. `Ok(false)` is a *fault*: the page straddles unmapped
    /// memory. A transient error is returned as is. Neither caches
    /// anything.
    fn fetch_page(&mut self, base: u64) -> TargetResult<bool> {
        let mut page = vec![0u8; self.cfg.page_size as usize];
        self.stats.backend_reads += 1;
        match self.inner.get_bytes(base, &mut page) {
            Ok(()) => {
                self.stats.wire_bytes += self.cfg.page_size;
                self.insert_page(base, page);
                Ok(true)
            }
            Err(e) if e.is_transient() => Err(e),
            Err(_) => Ok(false),
        }
    }

    /// After [`CachedTarget::fetch_page`] faulted (typical at the edge
    /// of an arena or segment): binary-searches the largest readable
    /// prefix of the page at `base` once and caches it as a partial
    /// page, so later reads inside the mapped part still coalesce.
    /// `mapped` bytes from `base` on were reported mapped, so the
    /// search starts above them. Returns the prefix length. A transient
    /// error mid-probe caches nothing (the prefix it found is suspect).
    fn fill_prefix(&mut self, base: u64, mapped: usize) -> TargetResult<usize> {
        let mut page = vec![0u8; self.cfg.page_size as usize];
        let readable = self.probe_prefix(base, &mut page, mapped)?;
        if readable > 0 {
            page.truncate(readable);
            self.insert_page(base, page);
        }
        Ok(readable)
    }

    /// Whether resident pages hold every byte of `[addr, end)`. They
    /// were readable when fetched; partial pages only vouch for the
    /// prefix they actually hold.
    fn resident_covers(&self, addr: u64, end: u64) -> bool {
        let ps = self.cfg.page_size;
        let mut base = addr & !(ps - 1);
        while base < end {
            let held = self.pages.get(&base).map_or(0, |p| p.bytes.len() as u64);
            if held < ps && base + held < end {
                return false;
            }
            match base.checked_add(ps) {
                Some(next) => base = next,
                None => break,
            }
        }
        true
    }

    /// The miss path of `is_mapped` for a range of at most one page:
    /// fill the page(s) under it, as the read through a valid pointer
    /// would, and answer from what became resident.
    fn fill_mapped(&mut self, addr: u64, end: u64) -> bool {
        let ps = self.cfg.page_size;
        let mut base = addr & !(ps - 1);
        while base < end {
            if !self.pages.contains_key(&base) {
                self.stats.page_misses += 1;
                let fill_span = self.span_open("fill", || format!("page 0x{base:x}+{ps}"));
                let answer = match self.fetch_page(base) {
                    Ok(true) => None,
                    // A flake vouches for nothing: ask the backend.
                    Err(_) => Some(self.probe_mapped(addr, end - addr)),
                    Ok(false) => {
                        // A fault: only the backend can tell a mapped
                        // edge from a wild pointer. A wild pointer costs
                        // that one probe; a mapped range gets the
                        // readable prefix its read is about to need.
                        let mapped = self.probe_mapped(addr, end - addr);
                        if mapped {
                            let _ = self.fill_prefix(base, (end - base).min(ps) as usize);
                        }
                        Some(mapped)
                    }
                };
                self.span_close(fill_span);
                if let Some(mapped) = answer {
                    return mapped;
                }
            }
            match base.checked_add(ps) {
                Some(next) => base = next,
                None => break,
            }
        }
        self.resident_covers(addr, end) || self.probe_mapped(addr, end - addr)
    }

    /// Forwards `is_mapped` to the wrapped backend, with stats.
    fn probe_mapped(&mut self, addr: u64, len: u64) -> bool {
        self.stats.mapped_probes += 1;
        self.inner.is_mapped(addr, len)
    }

    /// One uncached pass-through read, with stats accounting.
    fn read_exact_uncached(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        self.stats.backend_reads += 1;
        self.inner.get_bytes(addr, buf)?;
        self.stats.wire_bytes += buf.len() as u64;
        Ok(())
    }

    /// Finds the largest `n` such that `[base, base+n)` is readable,
    /// by bisection above `lo` (a length taken as readable: a mapped
    /// range ends there), and leaves those bytes in `page[..n]`. Costs
    /// O(log page_size) backend reads, paid at most once per partial
    /// page per epoch. If the first `lo` bytes turn out unreadable
    /// after all, the answer is 0.
    ///
    /// Only *faults* narrow the bisection: a fault is the arena's
    /// honest edge. A *transient* error mid-probe aborts the whole
    /// probe instead — treating a wire flake as "unreadable" would
    /// cache a permanently shrunk prefix for the rest of the epoch.
    /// The caller caches nothing on `Err` so a retry re-drives cleanly.
    fn probe_prefix(&mut self, base: u64, page: &mut [u8], mut lo: usize) -> TargetResult<usize> {
        let mut hi = page.len(); // known unreadable (full fetch failed)
        while hi > lo + 1 {
            let mid = lo + (hi - lo) / 2;
            self.stats.backend_reads += 1;
            match self.inner.get_bytes(base, &mut page[..mid]) {
                Ok(()) => {
                    self.stats.wire_bytes += mid as u64;
                    lo = mid;
                }
                Err(e) if e.is_transient() => return Err(e),
                Err(_) => hi = mid,
            }
        }
        if lo == 0 {
            return Ok(0);
        }
        // A failed probe longer than `lo` may have scribbled over the
        // prefix before faulting; re-read it cleanly.
        self.stats.backend_reads += 1;
        match self.inner.get_bytes(base, &mut page[..lo]) {
            Ok(()) => {
                self.stats.wire_bytes += lo as u64;
                Ok(lo)
            }
            Err(e) if e.is_transient() => Err(e),
            Err(_) => Ok(0),
        }
    }
}

/// A lookup op's memo key: its name (empty for frame queries), a tag
/// naming which lookup it is, and its frame argument. `None` for every
/// op that is not a lookup.
fn lookup_key<'a>(op: &Op<'a, '_>) -> Option<(&'a str, u8, usize)> {
    Some(match *op {
        Op::GetVariable(n) => (n, 0, 0),
        Op::GetVariableInFrame(n, frame) => (n, 1, frame),
        Op::LookupTypedef(n) => (n, 2, 0),
        Op::LookupStruct(n) => (n, 3, 0),
        Op::LookupUnion(n) => (n, 4, 0),
        Op::LookupEnum(n) => (n, 5, 0),
        Op::HasFunction(n) => (n, 6, 0),
        Op::FrameCount => ("", 7, 0),
        Op::FrameInfo(n) => ("", 8, n),
        _ => return None,
    })
}

impl<T: Target> CachedTarget<T> {
    /// `get_bytes` through the page cache.
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        // An empty range covers no page, and a range that wraps the
        // address space has no pages to cache: the backend answers
        // both (an empty read can still fault, e.g. off the arena).
        if buf.is_empty() || !self.cfg.enabled || addr.checked_add(buf.len() as u64).is_none() {
            return self.read_exact_uncached(addr, buf);
        }
        let ps = self.cfg.page_size;
        let mut pos = 0usize;
        let mut cur = addr;
        while pos < buf.len() {
            let base = cur & !(ps - 1);
            let in_page = (ps - (cur - base)) as usize;
            let take = in_page.min(buf.len() - pos);
            let end = pos + take;
            if let Err(e) = self.read_within_page(base, cur, &mut buf[pos..end]) {
                // A fault in any page-sized piece is a fault of the
                // whole request, reported as the backend reports it.
                return Err(match e {
                    TargetError::IllegalMemory { .. } => TargetError::IllegalMemory {
                        addr,
                        len: buf.len() as u64,
                    },
                    e => e,
                });
            }
            pos = end;
            cur += take as u64;
        }
        Ok(())
    }

    /// `get_bytes_multi`: every page the ranges miss comes over in ONE
    /// inner vectored call, then each range is
    /// served the scalar way over the warmed cache — identical results
    /// and cache state to a scalar loop, minus the per-page wire turns.
    ///
    /// A window submitted ahead is this read's fetch, done early: the
    /// plan leaves out the pages it reads, and it completes before the
    /// rest is fetched, so a page whose read failed in it is re-driven
    /// by the scalar serve like a page a fetch of its own failed.
    fn read_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        self.stats.multi_reads += 1;
        self.stats.multi_ranges += ranges.len() as u64;
        if !self.cfg.enabled {
            // Transparent pass-through: still one inner vectored turn.
            self.stats.backend_reads += 1;
            let results = self.inner.get_bytes_multi(ranges);
            for (r, res) in ranges.iter().zip(&results) {
                if res.is_ok() {
                    self.stats.wire_bytes += r.buf.len() as u64;
                }
            }
            return results;
        }
        let fetch = self.plan(ranges.iter().map(|r| (r.addr, r.len() as u64)), |base| {
            self.pending_pages.contains(&base)
        });
        while self.complete_window().is_some() {}
        if !fetch.is_empty() {
            let n_fetch = fetch.len();
            let fill_span = self.span_open("fill-multi", || format!("{n_fetch} pages missed"));
            self.stats.backend_reads += 1; // one coalesced wire turn
            let pages = self.page_ranges(&fetch);
            let done = run_multi(&mut self.inner, pages);
            self.apply_fill(done);
            self.span_close(fill_span);
        }
        ranges
            .iter_mut()
            .map(|r| self.read(r.addr, r.buf))
            .collect()
    }

    /// Plans one coalesced fetch for `ranges` (address, length): every
    /// page they need that is neither resident nor `skip`ped, each page
    /// once and in that order.
    fn plan(
        &self,
        ranges: impl Iterator<Item = (u64, u64)>,
        skip: impl Fn(u64) -> bool,
    ) -> Vec<u64> {
        let ps = self.cfg.page_size;
        let mut planned = HashSet::new();
        let mut fetch = Vec::new();
        // Empty and address-space-wrapping ranges plan no pages; the
        // scalar serve answers them.
        for (addr, len) in ranges.filter(|&(addr, len)| len > 0 && addr.checked_add(len).is_some())
        {
            let last = (addr + len - 1) & !(ps - 1);
            for base in (addr & !(ps - 1)..=last).step_by(ps as usize) {
                let held = self.pages.contains_key(&base) || skip(base);
                if !held && planned.insert(base) {
                    fetch.push(base);
                }
            }
        }
        fetch
    }

    /// One whole-page read per planned page.
    fn page_ranges(&self, pages: &[u64]) -> Vec<OwnedRange> {
        let ps = self.cfg.page_size as usize;
        pages
            .iter()
            .map(|&base| OwnedRange::new(base, ps))
            .collect()
    }

    /// Caches the pages a coalesced fetch read cleanly. A failed page
    /// stays cold: the demand read that needs it re-drives it the
    /// scalar way (exact fallback for transients, prefix probe for
    /// faults, through the retry layer above), so one flaky page never
    /// fails a batch.
    fn apply_fill(&mut self, done: Vec<(OwnedRange, TargetResult<()>)>) {
        for (o, r) in done {
            if r.is_ok() {
                self.stats.wire_bytes += o.buf.len() as u64;
                self.stats.pages_prefetched += 1;
                self.insert_page(o.addr, o.buf);
            }
        }
    }

    /// Completes the oldest window submitted ahead, if any: waits for
    /// its read on the I/O actor and caches the pages it read cleanly.
    fn complete_window(&mut self) -> Option<PrefetchCompletion> {
        let ticket = self.prefetch_pending.pop_front()?;
        let done = self.inner.read_poll(ticket).unwrap_or_default();
        let mut c = PrefetchCompletion::default();
        for (o, r) in &done {
            self.pending_pages.remove(&o.addr);
            if r.is_ok() {
                c.clean += 1;
            } else {
                c.failed += 1;
            }
        }
        self.apply_fill(done);
        Some(c)
    }

    /// Waits out every window in flight and drops its bytes.
    fn discard_windows(&mut self) {
        for ticket in std::mem::take(&mut self.prefetch_pending) {
            self.inner.read_poll(ticket);
        }
        self.pending_pages.clear();
    }

    /// `put_bytes`: writes through, patching every cached page the
    /// write overlaps so later reads see the new bytes.
    fn write(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        let r = self.inner.put_bytes(addr, bytes);
        if !self.cfg.enabled {
            return r;
        }
        let ps = self.cfg.page_size;
        // A window read before this write must not be applied over it:
        // discard every window in flight if one owns a page it touches.
        let last = addr.saturating_add(bytes.len().max(1) as u64 - 1) & !(ps - 1);
        if (addr & !(ps - 1)..=last)
            .step_by(ps as usize)
            .any(|base| self.pending_pages.contains(&base))
        {
            self.discard_windows();
        }
        match r {
            Ok(()) => {
                self.stats.write_throughs += 1;
                for (i, b) in bytes.iter().enumerate() {
                    let a = addr + i as u64;
                    let base = a & !(ps - 1);
                    if let Some(p) = self.pages.get_mut(&base) {
                        let off = (a - base) as usize;
                        if off < p.bytes.len() {
                            p.bytes[off] = *b;
                        }
                    }
                }
                Ok(())
            }
            Err(e) => {
                // The backend may have applied part of the write before
                // failing; drop the overlapped pages rather than guess.
                let first = addr & !(ps - 1);
                let last = addr.saturating_add(bytes.len() as u64) & !(ps - 1);
                let mut base = first;
                loop {
                    if let Some(p) = self.pages.remove(&base) {
                        self.lru.remove(&p.stamp);
                    }
                    if base >= last {
                        break;
                    }
                    base += ps;
                }
                Err(e)
            }
        }
    }

    /// `is_mapped`: resident pages answer for free; a miss of at most
    /// one page fills it (see the module docs).
    fn mapped(&mut self, addr: u64, len: u64) -> bool {
        let end = match addr.checked_add(len) {
            Some(end) if self.cfg.enabled && len > 0 => end,
            _ => return self.probe_mapped(addr, len),
        };
        if self.resident_covers(addr, end) {
            return true;
        }
        if len > self.cfg.page_size {
            return self.probe_mapped(addr, len);
        }
        self.fill_mapped(addr, end)
    }

    /// Answers a lookup op through the memo while the cache is on: a
    /// remembered answer is a hit; otherwise the backend is asked once
    /// and the answer is kept for the rest of the stop. Every other op
    /// (output drains) passes through.
    fn lookup(&mut self, op: Op<'_, '_>) -> Reply {
        let Some((name, tag, arg)) = lookup_key(&op).filter(|_| self.cfg.enabled) else {
            return op.apply(&mut self.inner);
        };
        let mut memo = self.lookups.get(name).into_iter().flatten();
        if let Some((.., reply)) = memo.find(|m| (m.0, m.1) == (tag, arg)) {
            self.stats.lookup_hits += 1;
            return reply.clone();
        }
        self.stats.lookup_misses += 1;
        let reply = op.apply(&mut self.inner);
        let memo = self.lookups.entry(name.to_owned()).or_default();
        memo.push((tag, arg, reply.clone()));
        reply
    }
}

/// The cache sees every wire op through one hook. Plumbing forwards by
/// default; the cache answers the prefetch seam and its page size, and
/// keeps the span timeline for its own `cache` spans. The read seam
/// stays closed (the `Layer` default): a pipelined read must not slip
/// past the cache.
impl<T: Target> crate::op::Layer for CachedTarget<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.inner
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Always inlined: in each wire method the op's variant is known,
    /// so the match folds to the one path it takes.
    #[inline(always)]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        match op {
            Op::GetBytes { addr, buf } => Reply::Done(self.read(addr, buf)),
            Op::GetBytesMulti(ranges) => Reply::Multi(self.read_multi(ranges)),
            Op::PutBytes { addr, bytes } => Reply::Done(self.write(addr, bytes)),
            // An allocation changes the mapping (stale "unmapped"
            // fallbacks must not linger) and a debuggee call can write
            // anywhere: drop the pages whatever the answer. Symbols and
            // types are unaffected.
            op @ (Op::AllocSpace { .. } | Op::CallFunc { .. }) => {
                let reply = op.apply(&mut self.inner);
                self.drop_pages();
                reply
            }
            Op::IsMapped { addr, len } => Reply::Flag(self.mapped(addr, len)),
            op => self.lookup(op),
        }
    }

    fn set_span_context(&mut self, spans: &SpanContext) {
        self.spans = Some(spans.clone());
        self.inner.set_span_context(spans);
    }

    /// Takes a window only when a live I/O actor below can carry it
    /// and it misses a page; without one the caller reads the window
    /// itself when it needs it.
    fn prefetch_submit(&mut self, ranges: &[(u64, u64)]) -> bool {
        let actor = self.inner.pipeline_handle().is_some_and(|h| h.is_async());
        if !self.cfg.enabled || !actor {
            return false;
        }
        // The demand plan, minus pages an earlier window in flight owns.
        let fetch = self.plan(ranges.iter().copied(), |base| {
            self.pending_pages.contains(&base)
        });
        if fetch.is_empty() {
            return false;
        }
        let Some(ticket) = self.inner.read_submit(self.page_ranges(&fetch)) else {
            return false;
        };
        self.stats.backend_reads += 1;
        if let Some(s) = &self.spans {
            let n = fetch.len();
            s.instant(SpanKind::Prefetch, "window-submit", || format!("{n} pages"));
        }
        self.pending_pages.extend(fetch);
        self.prefetch_pending.push_back(ticket);
        true
    }

    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        self.complete_window()
    }

    fn cache_page_size(&self) -> Option<u64> {
        self.cfg.enabled.then_some(self.cfg.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{CallValue, FrameInfo, VarInfo};
    use crate::scenario;
    use duel_ctype::{Abi, EnumId, RecordId, TypeId, TypeTable};

    fn counted(cfg: CacheConfig) -> CachedTarget<crate::SimTarget> {
        CachedTarget::with_config(scenario::scan_array(), cfg)
    }

    #[test]
    fn adjacent_reads_coalesce_into_one_page_fetch() {
        let mut t = counted(CacheConfig {
            page_size: 64,
            ..CacheConfig::default()
        });
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        // 16 adjacent ints live in one 64-byte page.
        for i in 0..16u64 {
            t.get_bytes(x.addr + i * 4, &mut buf).unwrap();
        }
        assert_eq!(t.stats().backend_reads, 1, "{:?}", t.stats());
        assert_eq!(t.stats().page_hits, 15);
        assert_eq!(t.stats().wire_bytes, 64);
    }

    #[test]
    fn reads_crossing_pages_are_stitched_correctly() {
        let mut t = counted(CacheConfig {
            page_size: 8,
            ..CacheConfig::default()
        });
        let x = t.get_variable("x").unwrap();
        // Misaligned 12-byte read spanning 2-3 pages.
        let mut cached = [0u8; 12];
        t.get_bytes(x.addr + 6, &mut cached).unwrap();
        let mut direct = [0u8; 12];
        t.inner_mut().get_bytes(x.addr + 6, &mut direct).unwrap();
        assert_eq!(cached, direct);
    }

    #[test]
    fn unaligned_tail_falls_back_to_exact_read() {
        // The last int of x[60] sits near the end of the mapped arena;
        // an aligned page fetch may fault there while the exact read is
        // legal. The cache must transparently fall back.
        let mut t = counted(CacheConfig {
            page_size: 4096,
            ..CacheConfig::default()
        });
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 59 * 4, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 100 + 59);
    }

    #[test]
    fn write_through_is_visible_and_patches_pages() {
        let mut t = counted(CacheConfig::default());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        let before = t.stats().backend_reads;
        t.put_bytes(x.addr + 12, &(-5i32).to_le_bytes()).unwrap();
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), -5);
        assert_eq!(
            t.stats().backend_reads,
            before,
            "write-through must not refetch the page"
        );
    }

    #[test]
    fn lru_evicts_oldest_page() {
        let mut t = counted(
            CacheConfig {
                page_size: 8,
                max_pages: 2,
                ..CacheConfig::default()
            }
            .normalized(),
        );
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap(); // page A
        t.get_bytes(x.addr + 8, &mut buf).unwrap(); // page B
        t.get_bytes(x.addr, &mut buf).unwrap(); // touch A
        t.get_bytes(x.addr + 16, &mut buf).unwrap(); // page C evicts B
        assert_eq!(t.pages.len(), 2);
        let reads = t.stats().backend_reads;
        t.get_bytes(x.addr, &mut buf).unwrap(); // A still resident
        assert_eq!(t.stats().backend_reads, reads);
        t.get_bytes(x.addr + 8, &mut buf).unwrap(); // B was evicted
        assert_eq!(t.stats().backend_reads, reads + 1);
    }

    #[test]
    fn lru_index_evicts_what_a_linear_scan_would() {
        // Reference: the eviction the cache used before the index, a
        // min-stamp scan over every resident page on each fill.
        struct Scan {
            stamps: HashMap<u64, u64>,
            tick: u64,
            cap: usize,
        }
        impl Scan {
            fn access(&mut self, base: u64) {
                if !self.stamps.contains_key(&base) && self.stamps.len() >= self.cap {
                    let (&victim, _) = self.stamps.iter().min_by_key(|(_, s)| **s).unwrap();
                    self.stamps.remove(&victim);
                }
                self.tick += 1;
                self.stamps.insert(base, self.tick);
            }
        }
        for cap in [1, 3, 7] {
            let mut t = counted(CacheConfig {
                page_size: 8,
                max_pages: cap,
                ..CacheConfig::default()
            });
            let mut scan = Scan {
                stamps: HashMap::new(),
                tick: 0,
                cap,
            };
            let x = t.get_variable("x").unwrap();
            // scan_array's 240-byte arena is 30 pages: every cap thrashes.
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for step in 0..2000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Skewed towards a few hot pages, so hits reorder the LRU.
                let page = if state >> 62 == 0 {
                    (state >> 32) % 30
                } else {
                    (state >> 32) % 4
                };
                let addr = x.addr + page * 8 + (state >> 20) % 2 * 4;
                let base = addr & !7;
                if step % 3 == 0 {
                    // A resident page answers `is_mapped` without being
                    // touched; a miss fills it.
                    assert!(t.is_mapped(addr, 4));
                    if !scan.stamps.contains_key(&base) {
                        scan.access(base);
                    }
                } else {
                    let mut buf = [0u8; 4];
                    t.get_bytes(addr, &mut buf).unwrap();
                    scan.access(base);
                }
                let mut want: Vec<u64> = scan.stamps.keys().copied().collect();
                want.sort_unstable();
                let got: Vec<u64> = t.resident_pages().into_iter().map(|(b, _)| b).collect();
                assert_eq!(got, want, "cap {cap}, step {step}");
                assert_eq!(t.lru.len(), t.pages.len());
            }
        }
    }

    #[test]
    fn lookups_are_memoized_including_negatives() {
        let mut t = counted(CacheConfig::default());
        assert!(t.get_variable("x").is_some());
        assert!(t.get_variable("x").is_some());
        assert!(t.get_variable("nonesuch").is_none());
        assert!(t.get_variable("nonesuch").is_none());
        assert!(!t.has_function("nope"));
        assert!(!t.has_function("nope"));
        assert_eq!(t.stats().lookup_misses, 3);
        assert_eq!(t.stats().lookup_hits, 3);
    }

    #[test]
    fn invalidate_all_starts_a_new_epoch() {
        let mut t = counted(CacheConfig::default());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        // Mutate behind the cache's back (a "resume").
        t.inner_mut()
            .put_bytes(x.addr, &(1234i32).to_le_bytes())
            .unwrap();
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 100, "stale by design until epoch");
        t.invalidate_all();
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 1234);
        assert_eq!(t.epoch(), 1);
    }

    #[test]
    fn call_func_drops_pages() {
        let mut t = counted(CacheConfig::default());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert!(!t.pages.is_empty());
        let int = t.types_mut().prim(duel_ctype::Prim::Int);
        let abi = t.abi().clone();
        let arg = CallValue::from_u64(int, 3, 4, &abi).unwrap();
        t.call_func("abs", &[arg]).unwrap();
        assert!(t.pages.is_empty(), "a call may write anywhere");
    }

    #[test]
    fn disabled_cache_is_transparent_but_counts() {
        let mut t = counted(CacheConfig::disabled());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        for i in 0..4u64 {
            t.get_bytes(x.addr + i * 4, &mut buf).unwrap();
        }
        assert_eq!(t.stats().backend_reads, 4);
        assert_eq!(t.stats().wire_bytes, 16);
        assert_eq!(t.stats().page_hits, 0);
    }

    #[test]
    fn toggling_off_drops_state() {
        let mut t = counted(CacheConfig::default());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        t.set_enabled(false);
        assert!(t.pages.is_empty());
        // Mutations while disabled must be seen after re-enabling.
        t.inner_mut()
            .put_bytes(x.addr, &(77i32).to_le_bytes())
            .unwrap();
        t.set_enabled(true);
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 77);
    }

    #[test]
    fn transient_error_does_not_poison_the_cache() {
        use crate::chaos::{ChaosTarget, FaultConfig};
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(2));
        let mut t = CachedTarget::new(flaky);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        // First attempt: page fetch fails, exact fallback fails too.
        assert!(t.get_bytes(x.addr + 12, &mut buf).is_err());
        assert!(t.pages.is_empty(), "no page may be cached from a failure");
        // Backend recovered: the read now succeeds with correct bytes.
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
    }

    #[test]
    fn is_mapped_can_answer_from_cache() {
        let mut t = counted(CacheConfig::default());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert!(t.is_mapped(x.addr, 4));
        assert!(!t.is_mapped(0x10, 4));
    }

    #[test]
    fn cold_vectored_read_coalesces_to_one_backend_turn() {
        let mut t = counted(CacheConfig {
            page_size: 64,
            ..CacheConfig::default()
        });
        let x = t.get_variable("x").unwrap();
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut c = [0u8; 4];
        let mut ranges = [
            ReadRange::new(x.addr, &mut a),       // page 0
            ReadRange::new(x.addr + 72, &mut b),  // page 1
            ReadRange::new(x.addr + 188, &mut c), // page 2
        ];
        let rs = t.get_bytes_multi(&mut ranges);
        assert!(rs.iter().all(|r| r.is_ok()), "{rs:?}");
        assert_eq!(i32::from_le_bytes(a), 100);
        assert_eq!(i32::from_le_bytes(b), 9); // x[18] = 9
        assert_eq!(i32::from_le_bytes(c), 6); // x[47] = 6 (planted)
        let s = t.stats();
        assert_eq!(s.backend_reads, 1, "3 page misses, 1 wire turn: {s:?}");
        assert_eq!(s.multi_reads, 1);
        assert_eq!(s.multi_ranges, 3);
        assert_eq!(s.pages_prefetched, 3);
        // The warmed cache serves follow-up scalar reads for free.
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 4, &mut buf).unwrap();
        assert_eq!(t.stats().backend_reads, 1);
    }

    /// Delegates to a [`crate::SimTarget`] but injects exactly one
    /// transient backend error on the `flake_at`-th `get_bytes` call
    /// (1-based) — the minimal harness for a wire flake that lands in
    /// the middle of a prefix probe.
    struct FlakyProbe {
        inner: crate::SimTarget,
        ops: u64,
        flake_at: u64,
    }

    impl Target for FlakyProbe {
        fn abi(&self) -> &Abi {
            self.inner.abi()
        }
        fn types(&self) -> &TypeTable {
            self.inner.types()
        }
        fn types_mut(&mut self) -> &mut TypeTable {
            self.inner.types_mut()
        }
        fn get_bytes(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
            self.ops += 1;
            if self.ops == self.flake_at {
                return Err(crate::TargetError::Backend("wire flake".into()));
            }
            self.inner.get_bytes(addr, buf)
        }
        fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
            self.inner.put_bytes(addr, bytes)
        }
        fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64> {
            self.inner.alloc_space(size, align)
        }
        fn call_func(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue> {
            self.inner.call_func(name, args)
        }
        fn get_variable(&mut self, name: &str) -> Option<VarInfo> {
            self.inner.get_variable(name)
        }
        fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<VarInfo> {
            self.inner.get_variable_in_frame(name, frame)
        }
        fn lookup_typedef(&mut self, name: &str) -> Option<TypeId> {
            self.inner.lookup_typedef(name)
        }
        fn lookup_struct(&mut self, tag: &str) -> Option<RecordId> {
            self.inner.lookup_struct(tag)
        }
        fn lookup_union(&mut self, tag: &str) -> Option<RecordId> {
            self.inner.lookup_union(tag)
        }
        fn lookup_enum(&mut self, tag: &str) -> Option<EnumId> {
            self.inner.lookup_enum(tag)
        }
        fn has_function(&mut self, name: &str) -> bool {
            self.inner.has_function(name)
        }
        fn frame_count(&mut self) -> usize {
            self.inner.frame_count()
        }
        fn frame_info(&mut self, n: usize) -> Option<FrameInfo> {
            self.inner.frame_info(n)
        }
        fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
            self.inner.is_mapped(addr, len)
        }
        fn take_output(&mut self) -> String {
            self.inner.take_output()
        }
    }

    #[test]
    fn probe_flake_does_not_shrink_the_cached_prefix_for_the_epoch() {
        // scan_array's arena is 240 bytes at 0x1000: a 4096-byte page
        // fetch faults, so the cache bisects for the readable prefix.
        // Call 1 is the page fetch; call 2 is the first bisection step —
        // flake exactly there.
        let flaky = FlakyProbe {
            inner: scenario::scan_array(),
            ops: 0,
            flake_at: 2,
        };
        let mut t = CachedTarget::with_config(
            flaky,
            CacheConfig {
                page_size: 4096,
                ..CacheConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        // The flaked probe aborts; the exact fallback still answers,
        // and nothing suspect is cached.
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        assert!(
            t.resident_pages().is_empty(),
            "an aborted probe must cache nothing"
        );
        // The next read re-drives the probe cleanly and caches the full
        // 240-byte readable prefix — not a flake-shrunk one.
        t.get_bytes(x.addr + 16, &mut buf).unwrap();
        let pages = t.resident_pages();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].0, x.addr & !4095);
        assert_eq!(pages[0].1.len(), 240, "full readable prefix cached");
        // Everything inside the arena is now served without the wire.
        let reads = t.stats().backend_reads;
        t.get_bytes(x.addr + 188, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 6);
        assert_eq!(t.stats().backend_reads, reads);
    }

    #[test]
    fn prefetch_seam_takes_no_window_without_an_actor() {
        let mut t = counted(CacheConfig {
            page_size: 64,
            ..CacheConfig::default()
        });
        let x = t.get_variable("x").unwrap();
        assert!(!t.prefetch_submit(&[(x.addr, 128)]));
        assert!(t.prefetch_poll().is_none());
        assert_eq!(t.stats().backend_reads, 0);
    }

    #[test]
    fn prefetch_seam_rides_the_io_actor_when_present() {
        let mut t = CachedTarget::with_config(
            crate::pipeline::AsyncTarget::spawned(scenario::scan_array()),
            CacheConfig {
                page_size: 64,
                ..CacheConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        assert!(t.prefetch_submit(&[(x.addr, 128)]));
        let c = t.prefetch_poll().unwrap();
        assert_eq!(c.clean, 2);
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 64, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 116);
        assert_eq!(
            t.stats().backend_reads,
            1,
            "the window was the only wire read"
        );
        let h = t.pipeline_handle().unwrap();
        assert_eq!(h.stats().submits, 1);
        assert_eq!(h.stats().completions, 1);
        // A fully resident window is not taken.
        assert!(!t.prefetch_submit(&[(x.addr, 128)]));
        assert!(t.prefetch_poll().is_none());
    }

    #[test]
    fn a_page_drop_discards_the_windows_in_flight() {
        let mut t = CachedTarget::with_config(
            crate::pipeline::AsyncTarget::spawned(scenario::scan_array()),
            CacheConfig {
                page_size: 64,
                ..CacheConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        assert!(t.prefetch_submit(&[(x.addr, 64)]));
        // The debuggee "resumes" before the window lands: its bytes
        // must not be resurrected into the new epoch.
        t.invalidate_all();
        assert!(t.prefetch_poll().is_none(), "the window was discarded");
        assert!(t.resident_pages().is_empty(), "and nothing was applied");
        assert_eq!(t.stats().pages_prefetched, 0);
        let h = t.pipeline_handle().unwrap();
        assert_eq!(h.stats().completions, 1, "its read was waited out");
    }

    #[test]
    fn a_write_discards_the_windows_read_before_it() {
        let mut t = CachedTarget::with_config(
            crate::pipeline::AsyncTarget::spawned(scenario::scan_array()),
            CacheConfig {
                page_size: 64,
                ..CacheConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        assert!(t.prefetch_submit(&[(x.addr, 128)]));
        // A store lands between the window's read and its poll: the
        // window's bytes predate it and must not be applied over it.
        crate::value_io::write_uint(&mut t, x.addr + 4, 77, 4).unwrap();
        assert!(t.prefetch_poll().is_none(), "the window was discarded");
        assert!(t.resident_pages().is_empty(), "nothing was applied");
        assert_eq!(crate::value_io::read_uint(&mut t, x.addr + 4, 4), Ok(77));
        // A store outside every pending window leaves them alone.
        let before = t.resident_page_count();
        assert!(t.prefetch_submit(&[(x.addr + 160, 64)]));
        crate::value_io::write_uint(&mut t, x.addr, 5, 4).unwrap();
        t.prefetch_poll().unwrap();
        assert!(t.resident_page_count() > before);
    }

    #[test]
    fn the_read_that_consumes_a_failed_window_re_drives_its_failed_pages() {
        let tower = || {
            CachedTarget::with_config(
                crate::pipeline::AsyncTarget::spawned(scenario::scan_array()),
                CacheConfig {
                    page_size: 64,
                    ..CacheConfig::default()
                },
            )
        };
        // One vectored read; returns the backend reads so far.
        let read = |t: &mut CachedTarget<_>, addr: u64, len: usize| {
            let mut buf = vec![0u8; len];
            let _ = t.get_bytes_multi(&mut [ReadRange::new(addr, &mut buf)]);
            t.stats().backend_reads
        };
        // The window runs off the arena; `off` lies in a failed page.
        let mut sync = tower();
        let x = sync.get_variable("x").unwrap();
        let (window, off) = ((x.addr, 512), x.addr + 448);
        // Synchronous reference: the scan reads the window where it
        // reaches it, then something else reads past the arena.
        let after_window = read(&mut sync, window.0, 512);
        let past_arena = read(&mut sync, off, 4) - after_window;

        // Submitted ahead: the window's read is the scan's fetch, and
        // the scan re-drives the failed pages as a synchronous read of
        // the window does.
        let mut t = tower();
        t.get_variable("x").unwrap();
        assert!(t.prefetch_submit(&[window]));
        assert_eq!(read(&mut t, window.0, 512), after_window);
        assert_eq!(read(&mut t, off, 4) - after_window, past_arena);
        assert_eq!(t.resident_pages(), sync.resident_pages());

        // Completed by a poll, the window leaves no page out of a later
        // read.
        let mut t = tower();
        t.get_variable("x").unwrap();
        assert!(t.prefetch_submit(&[window]));
        assert!(t.prefetch_poll().unwrap().failed > 0);
        let before = t.stats().backend_reads;
        assert_eq!(read(&mut t, off, 4) - before, past_arena);

        // A window discarded by a page drop leaves no page out either:
        // the read fetches them all, one turn more than the synchronous
        // tower.
        let mut t = tower();
        t.get_variable("x").unwrap();
        assert!(t.prefetch_submit(&[window]));
        t.invalidate_all();
        assert_eq!(read(&mut t, window.0, 512), after_window + 1);
    }

    #[test]
    fn outstanding_windows_do_not_refetch_each_others_pages() {
        let mut t = CachedTarget::with_config(
            crate::pipeline::AsyncTarget::spawned(scenario::scan_array()),
            CacheConfig {
                page_size: 64,
                ..CacheConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        assert!(t.prefetch_submit(&[(x.addr, 64)]));
        // Overlapping window submitted before the first is polled.
        assert!(t.prefetch_submit(&[(x.addr, 128)]));
        let c0 = t.prefetch_poll().unwrap();
        let c1 = t.prefetch_poll().unwrap();
        assert_eq!(c0.clean, 1);
        assert_eq!(c1.clean, 1, "page 0 already owned by window 0");
        assert_eq!(t.stats().backend_reads, 2);
    }
}
