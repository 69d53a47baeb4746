//! [`AsyncTarget`] — the I/O actor behind the asynchronous wire
//! pipeline.
//!
//! Every layer above this one is synchronous: a read blocks the
//! evaluator until the wire answers. On a real debugger link the wire
//! turn is the dominant cost (the paper's "one value per eval call"
//! protocol), so the tower idles in alternation — the evaluator waits
//! on the wire, then the wire waits on the evaluator. `AsyncTarget`
//! breaks the alternation: it moves the innermost backend (the
//! `SimTarget`/MI transport plus its fault/chaos wrappers) onto a
//! dedicated worker thread behind a request/reply channel, and exposes
//!
//! * the blocking [`Target`] API unchanged (each call becomes one
//!   closure shipped to the worker, replied on a per-call channel), and
//! * a non-blocking [`Target::read_submit`] / [`Target::read_poll`]
//!   pair: an owned-buffer vectored read goes on the wire *now* while
//!   the caller keeps evaluating, and is reclaimed later.
//!
//! Because the worker drains one FIFO, wire order equals submission
//! order: a synchronous call issued after a submit is ordered behind
//! the in-flight read, and tickets complete oldest-first. That ordering
//! is what keeps record→strict-replay byte-identical when the layers
//! above record completions at poll time.
//!
//! ## Ownership of the type table
//!
//! [`Target::abi`]/[`Target::types`]/[`Target::types_mut`] return
//! references, which cannot cross a thread boundary per call. The
//! front side therefore keeps a *mirror*: a clone of the ABI and a
//! [`TypeTable`] reconstructed from the backend's snapshot. Memory
//! operations never touch the table; only symbol-shaped operations
//! (variable/type lookups, calls, frames) can intern types on the
//! worker side, and the evaluator interns derived types on the front
//! side between them. The mirror protocol exploits that only one side
//! grows between syncs: a symbol RPC ships the front table down when
//! the front has grown (the worker's table is always a prefix of the
//! front's, so raw ids survive the replacement) and ships the worker
//! table back up when the op made it grow. Mode transitions
//! (`.set pipeline on|off`) drain the queue, join the worker, and write
//! the front table into the recovered backend.
//!
//! ## Spans
//!
//! The span context installed from above stays on the front side; it is
//! *not* forwarded into the worker, so the shared span stack never
//! interleaves two threads. Submits, completions and queue depth are
//! recorded as front-side `pipeline` instants instead.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use crate::error::TargetResult;
use crate::iface::{OwnedRange, PipelineTicket, PrefetchCompletion, ReadRange, Target};
use crate::op::{Op, Reply};
use crate::span::{SpanContext, SpanKind};
use crate::supervise::StalenessHandle;
use crate::trace::TraceHandle;
use duel_ctype::{Abi, TypeTable};

/// Counter snapshot of a [`PipelineHandle`]. Cumulative since
/// construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Whether the actor is currently running (pipeline on).
    pub async_on: bool,
    /// Vectored reads submitted asynchronously.
    pub submits: u64,
    /// Submissions completed (polled).
    pub completions: u64,
    /// Ranges that read cleanly across all completions.
    pub ranges_clean: u64,
    /// Ranges that came back with an error.
    pub ranges_failed: u64,
    /// Bytes carried by clean ranges.
    pub bytes: u64,
    /// Nanoseconds pollers spent blocked waiting for in-flight reads.
    pub wait_ns: u64,
    /// Nanoseconds reads were in flight while the caller kept working —
    /// the overlap the pipeline bought.
    pub overlap_ns: u64,
    /// Reads currently in flight.
    pub queue_depth: u64,
    /// Highest queue depth observed.
    pub max_queue_depth: u64,
}

struct PipelineShared {
    async_on: AtomicBool,
    submits: AtomicU64,
    completions: AtomicU64,
    ranges_clean: AtomicU64,
    ranges_failed: AtomicU64,
    bytes: AtomicU64,
    wait_ns: AtomicU64,
    overlap_ns: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
}

/// A cloneable view onto one [`AsyncTarget`]'s counters.
///
/// Like [`TraceHandle`], the handle outlives borrows of the tower: the
/// evaluator diffs `overlap_ns`/`submits` around an evaluation while
/// holding only `&mut dyn Target` (via [`Target::pipeline_handle`]).
#[derive(Clone)]
pub struct PipelineHandle(Arc<PipelineShared>);

impl Default for PipelineHandle {
    fn default() -> PipelineHandle {
        PipelineHandle::new()
    }
}

impl std::fmt::Debug for PipelineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineHandle")
            .field("async_on", &self.is_async())
            .field("submits", &self.0.submits.load(Ordering::Relaxed))
            .finish()
    }
}

impl PipelineHandle {
    /// A fresh handle: no submissions, actor off.
    pub fn new() -> PipelineHandle {
        PipelineHandle(Arc::new(PipelineShared {
            async_on: AtomicBool::new(false),
            submits: AtomicU64::new(0),
            completions: AtomicU64::new(0),
            ranges_clean: AtomicU64::new(0),
            ranges_failed: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            overlap_ns: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        }))
    }

    /// Whether the owning target currently runs its backend on the
    /// worker thread.
    pub fn is_async(&self) -> bool {
        self.0.async_on.load(Ordering::Relaxed)
    }

    /// Asynchronous submissions so far (monotonic — diff it across an
    /// evaluation to count that evaluation's in-flight windows).
    pub fn submits(&self) -> u64 {
        self.0.submits.load(Ordering::Relaxed)
    }

    /// Cumulative overlap bought by the pipeline, in nanoseconds.
    pub fn overlap_ns(&self) -> u64 {
        self.0.overlap_ns.load(Ordering::Relaxed)
    }

    /// Snapshots every counter.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            async_on: self.is_async(),
            submits: self.0.submits.load(Ordering::Relaxed),
            completions: self.0.completions.load(Ordering::Relaxed),
            ranges_clean: self.0.ranges_clean.load(Ordering::Relaxed),
            ranges_failed: self.0.ranges_failed.load(Ordering::Relaxed),
            bytes: self.0.bytes.load(Ordering::Relaxed),
            wait_ns: self.0.wait_ns.load(Ordering::Relaxed),
            overlap_ns: self.0.overlap_ns.load(Ordering::Relaxed),
            queue_depth: self.0.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.0.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    fn on_submit(&self) {
        self.0.submits.fetch_add(1, Ordering::Relaxed);
        let depth = self.0.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.0.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn on_complete(&self, clean: u64, failed: u64, bytes: u64, wait_ns: u64, overlap_ns: u64) {
        self.0.completions.fetch_add(1, Ordering::Relaxed);
        self.0.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.0.ranges_clean.fetch_add(clean, Ordering::Relaxed);
        self.0.ranges_failed.fetch_add(failed, Ordering::Relaxed);
        self.0.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.0.wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        self.0.overlap_ns.fetch_add(overlap_ns, Ordering::Relaxed);
    }
}

/// One unit of work shipped to the worker thread.
type Job<T> = Box<dyn FnOnce(&mut T) + Send>;

/// Runs an owned-buffer vectored read against `t` and hands the filled
/// buffers back (the body of both the blocking multi RPC and an
/// asynchronous submission; also the page cache's coalesced fetch, on
/// demand and for a prefetch window when no actor is below it).
pub(crate) fn run_multi<T: Target + ?Sized>(
    t: &mut T,
    mut owned: Vec<OwnedRange>,
) -> Vec<(OwnedRange, TargetResult<()>)> {
    let mut views: Vec<ReadRange<'_>> = owned
        .iter_mut()
        .map(|o| ReadRange::new(o.addr, &mut o.buf))
        .collect();
    let results = t.get_bytes_multi(&mut views);
    drop(views);
    owned.into_iter().zip(results).collect()
}

struct Inflight {
    ticket: PipelineTicket,
    rx: mpsc::Receiver<Vec<(OwnedRange, TargetResult<()>)>>,
    submitted: Instant,
}

struct Actor<T: Target + Send + 'static> {
    tx: mpsc::Sender<Job<T>>,
    join: thread::JoinHandle<T>,
    /// Front-side ABI mirror (the ABI never changes mid-session).
    abi: Abi,
    /// Front-side type-table mirror; always a superset of the worker's
    /// table between symbol RPCs.
    types: TypeTable,
    /// Mirror length at the last front↔worker sync: the worker table
    /// grew past this only inside a symbol RPC, which synced it back.
    synced: usize,
}

enum Mode<T: Target + Send + 'static> {
    /// Pass-through: the backend lives on the caller's thread and
    /// submissions are refused (callers fall back to synchronous
    /// reads). Zero overhead.
    Inline(T),
    /// The backend lives on the worker thread. Boxed: the actor state
    /// (channel, join handle, ABI, type-table mirror) dwarfs the other
    /// variants and `AsyncTarget` is embedded in every tower.
    Actor(Box<Actor<T>>),
    /// Transient state while switching modes; never observable.
    Switching,
}

/// A [`Target`] decorator that can move its backend onto a dedicated
/// I/O worker thread. See the module docs for the actor protocol and
/// the type-table mirror.
pub struct AsyncTarget<T: Target + Send + 'static> {
    mode: Mode<T>,
    inflight: VecDeque<Inflight>,
    next_ticket: PipelineTicket,
    handle: PipelineHandle,
    /// Discovery handles captured from the backend before it moved to
    /// the worker (all are `Arc`-backed views, so the clones stay
    /// live).
    inner_trace: Option<TraceHandle>,
    inner_staleness: Option<StalenessHandle>,
    /// Front-side span context installed from above; never forwarded
    /// into the worker.
    spans: Option<SpanContext>,
}

impl<T: Target + Send + 'static> std::fmt::Debug for AsyncTarget<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncTarget")
            .field("async_on", &self.is_async())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl<T: Target + Send + 'static> AsyncTarget<T> {
    /// Wraps `inner` in pass-through (inline) mode. Call
    /// [`AsyncTarget::set_async`] to start the actor.
    pub fn new(inner: T) -> AsyncTarget<T> {
        let inner_trace = inner.trace_handle();
        let inner_staleness = inner.staleness_handle();
        AsyncTarget {
            mode: Mode::Inline(inner),
            inflight: VecDeque::new(),
            next_ticket: 0,
            handle: PipelineHandle::new(),
            inner_trace,
            inner_staleness,
            spans: None,
        }
    }

    /// Wraps `inner` and immediately starts the actor.
    pub fn spawned(inner: T) -> AsyncTarget<T> {
        let mut t = AsyncTarget::new(inner);
        t.set_async(true);
        t
    }

    /// Whether the backend currently runs on the worker thread.
    pub fn is_async(&self) -> bool {
        matches!(self.mode, Mode::Actor(_))
    }

    /// A clone of this layer's counter handle.
    pub fn handle(&self) -> PipelineHandle {
        self.handle.clone()
    }

    /// The wrapped backend, while it lives on this thread (inline
    /// mode); `None` once the actor owns it. Callers that must reach
    /// the backend directly (e.g. an MI resync) stop the actor with
    /// [`AsyncTarget::set_async`]`(false)` first.
    pub fn inner(&self) -> Option<&T> {
        match &self.mode {
            Mode::Inline(t) => Some(t),
            _ => None,
        }
    }

    /// Mutable access to the wrapped backend in inline mode.
    pub fn inner_mut(&mut self) -> Option<&mut T> {
        match &mut self.mode {
            Mode::Inline(t) => Some(t),
            _ => None,
        }
    }

    /// Starts or stops the I/O actor. Stopping drains every in-flight
    /// read (discarding the data — the cache above has either polled or
    /// abandoned it), joins the worker, and moves the backend back to
    /// the caller's thread with the front-side type table written into
    /// it. Both directions are idempotent.
    pub fn set_async(&mut self, on: bool) {
        match (&self.mode, on) {
            (Mode::Inline(_), true) => {
                let Mode::Inline(inner) = std::mem::replace(&mut self.mode, Mode::Switching) else {
                    unreachable!()
                };
                let abi = inner.abi().clone();
                let types = TypeTable::from_snapshot(&inner.types().snapshot());
                let synced = types.len();
                let (tx, rx) = mpsc::channel::<Job<T>>();
                let join = thread::Builder::new()
                    .name("duel-io-actor".to_string())
                    .spawn(move || {
                        let mut t = inner;
                        while let Ok(job) = rx.recv() {
                            job(&mut t);
                        }
                        t
                    })
                    .expect("spawn duel-io-actor");
                self.mode = Mode::Actor(Box::new(Actor {
                    tx,
                    join,
                    abi,
                    types,
                    synced,
                }));
                self.handle.0.async_on.store(true, Ordering::Relaxed);
            }
            (Mode::Actor(_), false) => {
                self.drain();
                let Mode::Actor(a) = std::mem::replace(&mut self.mode, Mode::Switching) else {
                    unreachable!()
                };
                drop(a.tx);
                let mut inner = a.join.join().expect("join duel-io-actor");
                // Only the front mirror can have grown since the last
                // sync, so it is the authoritative table.
                if a.types.len() > inner.types().len() {
                    *inner.types_mut() = TypeTable::from_snapshot(&a.types.snapshot());
                }
                self.mode = Mode::Inline(inner);
                self.handle.0.async_on.store(false, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Completes every outstanding submission, discarding the data.
    pub fn drain(&mut self) {
        while let Some(ticket) = self.inflight.front().map(|f| f.ticket) {
            let _ = self.read_poll(ticket);
        }
    }

    /// Drops a `pipeline` instant on the span timeline (front side).
    fn span_mark(&self, name: &'static str, detail: impl FnOnce() -> String) {
        if let Some(s) = &self.spans {
            s.instant(SpanKind::Pipeline, name, detail);
        }
    }

    /// Ships a closure to the worker and blocks for its reply. Memory
    /// operations use this directly; they never touch the type table.
    fn rpc<R: Send + 'static>(a: &Actor<T>, f: impl FnOnce(&mut T) -> R + Send + 'static) -> R {
        let (rtx, rrx) = mpsc::channel();
        a.tx.send(Box::new(move |t: &mut T| {
            let _ = rtx.send(f(t));
        }))
        .expect("duel-io-actor is alive");
        rrx.recv().expect("duel-io-actor replied")
    }

    /// A symbol-shaped RPC: syncs the type-table mirror down before the
    /// op (when the front grew) and back up after it (when the op made
    /// the worker's table grow).
    fn rpc_sym<R: Send + 'static>(
        a: &mut Actor<T>,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> R {
        let ship = if a.types.len() > a.synced {
            Some(a.types.snapshot())
        } else {
            None
        };
        let (r, back) = Self::rpc(a, move |t| {
            if let Some(s) = &ship {
                // The worker table is a prefix of the front table, so
                // every raw id the worker handed out stays valid.
                *t.types_mut() = TypeTable::from_snapshot(s);
            }
            let before = t.types().len();
            let r = f(t);
            let back = if t.types().len() > before {
                Some(t.types().snapshot())
            } else {
                None
            };
            (r, back)
        });
        if let Some(s) = back {
            a.types = TypeTable::from_snapshot(&s);
        }
        a.synced = a.types.len();
        r
    }
}

impl<T: Target + Send + 'static> crate::op::Layer for AsyncTarget<T> {
    type Next = T;

    /// The backend in inline mode. Every method of this layer answers
    /// actor mode itself, so nothing reaches for the backend while the
    /// worker owns it.
    fn next(&self) -> &T {
        self.inner().expect("the I/O actor owns the backend")
    }

    fn next_mut(&mut self) -> &mut T {
        self.inner_mut().expect("the I/O actor owns the backend")
    }

    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        match &mut self.mode {
            Mode::Inline(t) => op.apply(t),
            Mode::Actor(a) => {
                let call = op.to_call();
                let job = move |t: &mut T| call.apply(t);
                // Memory ops and the output drain never touch the type
                // table. The others — calls, lookups, frame metadata —
                // can consume front-minted type ids and intern new
                // ones, so they sync the type-table mirror.
                let reply = match op {
                    Op::GetBytes { .. }
                    | Op::GetBytesMulti(_)
                    | Op::PutBytes { .. }
                    | Op::AllocSpace { .. }
                    | Op::FrameCount
                    | Op::IsMapped { .. }
                    | Op::TakeOutput => Self::rpc(a, job),
                    _ => Self::rpc_sym(a, job),
                };
                op.fill(reply)
            }
            Mode::Switching => unreachable!("transient mode"),
        }
    }

    fn abi(&self) -> &Abi {
        match &self.mode {
            Mode::Inline(t) => t.abi(),
            Mode::Actor(a) => &a.abi,
            Mode::Switching => unreachable!("transient mode"),
        }
    }

    fn types(&self) -> &TypeTable {
        match &self.mode {
            Mode::Inline(t) => t.types(),
            Mode::Actor(a) => &a.types,
            Mode::Switching => unreachable!("transient mode"),
        }
    }

    fn types_mut(&mut self) -> &mut TypeTable {
        match &mut self.mode {
            Mode::Inline(t) => t.types_mut(),
            Mode::Actor(a) => &mut a.types,
            Mode::Switching => unreachable!("transient mode"),
        }
    }

    fn trace_handle(&self) -> Option<TraceHandle> {
        match &self.mode {
            Mode::Inline(t) => t.trace_handle(),
            _ => self.inner_trace.clone(),
        }
    }

    fn set_span_context(&mut self, spans: &SpanContext) {
        // Front side only: the worker must never push onto the shared
        // span stack, or two threads would interleave one timeline.
        self.spans = Some(spans.clone());
        if let Mode::Inline(t) = &mut self.mode {
            t.set_span_context(spans);
        }
    }

    fn span_context(&self) -> Option<SpanContext> {
        match &self.mode {
            Mode::Inline(t) => t.span_context(),
            _ => self.spans.clone(),
        }
    }

    fn staleness_handle(&self) -> Option<StalenessHandle> {
        match &self.mode {
            Mode::Inline(t) => t.staleness_handle(),
            _ => self.inner_staleness.clone(),
        }
    }

    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        let Mode::Actor(a) = &mut self.mode else {
            return None;
        };
        let n = ranges.len();
        let (rtx, rrx) = mpsc::channel();
        a.tx.send(Box::new(move |t: &mut T| {
            let _ = rtx.send(run_multi(t, ranges));
        }))
        .expect("duel-io-actor is alive");
        self.next_ticket += 1;
        let ticket = self.next_ticket;
        self.inflight.push_back(Inflight {
            ticket,
            rx: rrx,
            submitted: Instant::now(),
        });
        self.handle.on_submit();
        let depth = self.inflight.len();
        self.span_mark("submit", || format!("{n} ranges, depth {depth}"));
        Some(ticket)
    }

    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        // Tickets complete strictly FIFO; polling anything but the
        // oldest outstanding ticket is a caller bug.
        let front = self.inflight.front()?;
        if front.ticket != ticket {
            return None;
        }
        let inflight = self.inflight.pop_front()?;
        let wait_start = Instant::now();
        let done = inflight.rx.recv().expect("duel-io-actor completed read");
        let wait_ns = wait_start.elapsed().as_nanos() as u64;
        let overlap_ns = wait_start.duration_since(inflight.submitted).as_nanos() as u64;
        let (mut clean, mut failed, mut bytes) = (0u64, 0u64, 0u64);
        for (o, r) in &done {
            if r.is_ok() {
                clean += 1;
                bytes += o.buf.len() as u64;
            } else {
                failed += 1;
            }
        }
        self.handle
            .on_complete(clean, failed, bytes, wait_ns, overlap_ns);
        let depth = self.inflight.len();
        self.span_mark("complete", || {
            format!(
                "{clean} clean, {failed} failed, waited {}, depth {depth}",
                crate::trace::fmt_ns(wait_ns)
            )
        });
        Some(done)
    }

    // The page cache lives above this layer: prefetch is not
    // forwarded into the backend.
    fn prefetch_submit(&mut self, _ranges: &[(u64, u64)]) -> bool {
        false
    }

    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        None
    }

    fn cache_page_size(&self) -> Option<u64> {
        None
    }

    fn pipeline_handle(&self) -> Option<PipelineHandle> {
        Some(self.handle.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn inline_mode_is_a_pure_pass_through() {
        let mut t = AsyncTarget::new(scenario::scan_array());
        assert!(!t.is_async());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        assert!(t.read_submit(vec![OwnedRange::new(x.addr, 4)]).is_none());
    }

    #[test]
    fn actor_mode_answers_the_blocking_api() {
        let mut t = AsyncTarget::spawned(scenario::scan_array());
        assert!(t.is_async());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut ranges = [
            ReadRange::new(x.addr + 12, &mut a),
            ReadRange::new(0x10, &mut b),
        ];
        let rs = t.get_bytes_multi(&mut ranges);
        assert_eq!(rs[0], Ok(()));
        assert!(rs[1].is_err());
        assert_eq!(i32::from_le_bytes(a), 7);
        assert!(t.get_variable("nonesuch").is_none());
        assert!(t.frame_count() == 0 || t.frame_info(0).is_some());
    }

    #[test]
    fn submit_poll_fills_buffers_in_fifo_order() {
        let mut t = AsyncTarget::spawned(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        let t1 = t
            .read_submit(vec![OwnedRange::new(x.addr + 12, 4)])
            .unwrap();
        let t2 = t
            .read_submit(vec![OwnedRange::new(x.addr + 16, 4)])
            .unwrap();
        // Out-of-order poll is refused.
        assert!(t.read_poll(t2).is_none());
        let d1 = t.read_poll(t1).unwrap();
        assert_eq!(d1[0].1, Ok(()));
        assert_eq!(i32::from_le_bytes(d1[0].0.buf[..4].try_into().unwrap()), 7);
        let d2 = t.read_poll(t2).unwrap();
        assert_eq!(d2[0].1, Ok(()));
        let s = t.handle().stats();
        assert_eq!(s.submits, 2);
        assert_eq!(s.completions, 2);
        assert_eq!(s.ranges_clean, 2);
        assert_eq!(s.max_queue_depth, 2);
    }

    #[test]
    fn synchronous_ops_are_ordered_behind_in_flight_reads() {
        let mut t = AsyncTarget::spawned(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        // Submit a read of x[3], then overwrite x[3]. FIFO means the
        // read was on the wire first and must see the OLD value.
        let ticket = t
            .read_submit(vec![OwnedRange::new(x.addr + 12, 4)])
            .unwrap();
        t.put_bytes(x.addr + 12, &99i32.to_le_bytes()).unwrap();
        let done = t.read_poll(ticket).unwrap();
        assert_eq!(
            i32::from_le_bytes(done[0].0.buf[..4].try_into().unwrap()),
            7,
            "in-flight read must have hit the wire before the write"
        );
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 99);
    }

    #[test]
    fn mode_transitions_preserve_the_type_table() {
        let mut t = AsyncTarget::spawned(scenario::combined());
        // Worker-side growth: resolve symbols/types through the actor.
        let before = t.types().len();
        assert!(t.get_variable("h").is_some() || t.get_variable("x").is_some());
        // Front-side growth: intern a derived type on the mirror.
        let int = t.types().size_of(duel_ctype::TypeId::from_raw(0), t.abi());
        let _ = int; // front mirror is readable
        let some_ty = t.get_variable("x").map(|v| v.ty).unwrap();
        let ptr = t.types_mut().pointer(some_ty);
        assert!(t.types().len() >= before);
        // A symbol op after front growth ships the mirror down.
        assert!(t.get_variable("x").is_some());
        // Stop the actor: the recovered backend must know the
        // front-minted pointer type.
        t.set_async(false);
        assert!(!t.is_async());
        assert_eq!(t.types().kind(ptr), &duel_ctype::TypeKind::Pointer(some_ty));
        // And back on again.
        t.set_async(true);
        assert!(t.is_async());
        let mut buf = [0u8; 4];
        let x = t.get_variable("x").unwrap();
        t.get_bytes(x.addr, &mut buf).unwrap();
    }

    #[test]
    fn stopping_drains_in_flight_reads() {
        let mut t = AsyncTarget::spawned(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        for i in 0..4 {
            t.read_submit(vec![OwnedRange::new(x.addr + i * 4, 4)])
                .unwrap();
        }
        t.set_async(false);
        let s = t.handle().stats();
        assert_eq!(s.submits, 4);
        assert_eq!(s.completions, 4);
        assert_eq!(s.queue_depth, 0);
    }

    #[test]
    fn pipeline_handle_is_discoverable_through_dyn_target() {
        let t = AsyncTarget::new(scenario::scan_array());
        let dt: &dyn Target = &t;
        assert!(dt.pipeline_handle().is_some());
        let plain = scenario::scan_array();
        let dp: &dyn Target = &plain;
        assert!(dp.pipeline_handle().is_none());
    }
}
