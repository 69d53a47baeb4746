//! Measurement taps that sit *between* the layers of a tower the
//! benchmark builds itself, so per-layer cost is measured from outside
//! the program: no tracing is added inside any crate.
//!
//! * [`Shim`] is a transparent [`Target`] decorator. It counts every
//!   call by operation kind into a shared [`Probe`] and, when the probe
//!   is timed, adds the call's inclusive wall time. A layer's self time
//!   is the inclusive time of the shim above it minus that of the shim
//!   below it.
//! * [`Tap`] is the same idea for the gdb/MI text link: it wraps the
//!   in-process [`MockGdb`] server, counts wire turns (send → receive
//!   transitions, so a pipelined batch counts once) and bytes, times
//!   the server, and keeps the mock's protocol log from growing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use duel_ctype::{Abi, EnumId, RecordId, TypeId, TypeTable};
use duel_gdbmi::{MiError, MiTransport, MockGdb};
use duel_target::{
    CallValue, FrameInfo, OwnedRange, PipelineHandle, PipelineTicket, PrefetchCompletion,
    ReadRange, SpanContext, StalenessHandle, Target, TargetResult, TraceHandle, VarInfo,
};

/// Operation kinds a [`Shim`] counts, in report order. The names are
/// the `<op>` of the `backend.sim.<op>.calls_per_cmd` metrics.
pub const OPS: [&str; 13] = [
    "get_bytes",
    "multi_read",
    "put_bytes",
    "alloc_space",
    "call_func",
    "get_variable",
    "lookup_type",
    "has_function",
    "frames",
    "is_mapped",
    "take_output",
    "read_pipeline",
    "prefetch",
];

const NOPS: usize = OPS.len();

#[derive(Clone, Copy)]
enum Op {
    GetBytes,
    MultiRead,
    PutBytes,
    AllocSpace,
    CallFunc,
    GetVariable,
    LookupType,
    HasFunction,
    Frames,
    IsMapped,
    TakeOutput,
    ReadPipeline,
    Prefetch,
}

/// Inclusive time of calls made while each span was the innermost open
/// one: how much of a span's duration was spent below the probe.
type SpanTime = HashMap<u64, u64>;

const POISONED: &str = "span-time map poisoned by a panicking thread";

/// Counters shared between a [`Shim`] and the benchmark.
#[derive(Default)]
pub struct Probe {
    calls: [AtomicU64; NOPS],
    ns: AtomicU64,
    timed: AtomicBool,
    attributing: AtomicBool,
    spans: Mutex<Option<(SpanContext, SpanTime)>>,
}

/// A copy of a [`Probe`]'s counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeSnap {
    /// Calls per operation kind (indexed like [`OPS`]).
    pub calls: [u64; NOPS],
    /// Inclusive nanoseconds over all calls (0 unless timed).
    pub ns: u64,
}

impl ProbeSnap {
    /// Calls of every kind.
    pub fn total(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &ProbeSnap) -> ProbeSnap {
        let mut d = ProbeSnap {
            ns: self.ns - earlier.ns,
            ..ProbeSnap::default()
        };
        for (i, c) in d.calls.iter_mut().enumerate() {
            *c = self.calls[i] - earlier.calls[i];
        }
        d
    }
}

impl Probe {
    /// A probe that only counts; [`Probe::set_timed`] adds timing.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// Turns per-call wall-clock timing on or off.
    pub fn set_timed(&self, on: bool) {
        self.timed.store(on, Relaxed);
    }

    /// Starts charging each call's time to the innermost open span of
    /// `spans` (see [`Probe::take_span_time`]); `None` stops.
    pub fn attribute_spans(&self, spans: Option<SpanContext>) {
        self.attributing.store(spans.is_some(), Relaxed);
        *self.spans.lock().expect(POISONED) = spans.map(|s| (s, SpanTime::new()));
    }

    /// Drains the per-span time collected since the last call.
    pub fn take_span_time(&self) -> SpanTime {
        match &mut *self.spans.lock().expect(POISONED) {
            Some((_, m)) => std::mem::take(m),
            None => SpanTime::new(),
        }
    }

    /// The current counters.
    pub fn snap(&self) -> ProbeSnap {
        let mut s = ProbeSnap {
            ns: self.ns.load(Relaxed),
            ..ProbeSnap::default()
        };
        for (i, c) in s.calls.iter_mut().enumerate() {
            *c = self.calls[i].load(Relaxed);
        }
        s
    }
}

/// A transparent [`Target`] decorator reporting into a [`Probe`].
pub struct Shim<T> {
    inner: T,
    probe: Arc<Probe>,
}

impl<T: Target> Shim<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, probe: &Arc<Probe>) -> Shim<T> {
        Shim {
            inner,
            probe: probe.clone(),
        }
    }

    /// The wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped target.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    #[inline]
    fn call<R>(&mut self, op: Op, f: impl FnOnce(&mut T) -> R) -> R {
        let p = &self.probe;
        p.calls[op as usize].fetch_add(1, Relaxed);
        if !p.timed.load(Relaxed) {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let dt = t0.elapsed().as_nanos() as u64;
        p.ns.fetch_add(dt, Relaxed);
        if p.attributing.load(Relaxed) {
            if let Some((ctx, m)) = &mut *p.spans.lock().expect(POISONED) {
                *m.entry(ctx.current()).or_default() += dt;
            }
        }
        r
    }
}

impl<T: Target> Target for Shim<T> {
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
        self.call(Op::GetBytes, |t| t.get_bytes(addr, buf))
    }

    fn get_bytes_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        self.call(Op::MultiRead, |t| t.get_bytes_multi(ranges))
    }

    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        self.call(Op::PutBytes, |t| t.put_bytes(addr, bytes))
    }

    fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64> {
        self.call(Op::AllocSpace, |t| t.alloc_space(size, align))
    }

    fn call_func(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue> {
        self.call(Op::CallFunc, |t| t.call_func(name, args))
    }

    fn get_variable(&mut self, name: &str) -> Option<VarInfo> {
        self.call(Op::GetVariable, |t| t.get_variable(name))
    }

    fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<VarInfo> {
        self.call(Op::GetVariable, |t| t.get_variable_in_frame(name, frame))
    }

    fn lookup_typedef(&mut self, name: &str) -> Option<TypeId> {
        self.call(Op::LookupType, |t| t.lookup_typedef(name))
    }

    fn lookup_struct(&mut self, tag: &str) -> Option<RecordId> {
        self.call(Op::LookupType, |t| t.lookup_struct(tag))
    }

    fn lookup_union(&mut self, tag: &str) -> Option<RecordId> {
        self.call(Op::LookupType, |t| t.lookup_union(tag))
    }

    fn lookup_enum(&mut self, tag: &str) -> Option<EnumId> {
        self.call(Op::LookupType, |t| t.lookup_enum(tag))
    }

    fn has_function(&mut self, name: &str) -> bool {
        self.call(Op::HasFunction, |t| t.has_function(name))
    }

    fn frame_count(&mut self) -> usize {
        self.call(Op::Frames, |t| t.frame_count())
    }

    fn frame_info(&mut self, n: usize) -> Option<FrameInfo> {
        self.call(Op::Frames, |t| t.frame_info(n))
    }

    fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
        self.call(Op::IsMapped, |t| t.is_mapped(addr, len))
    }

    fn take_output(&mut self) -> String {
        self.call(Op::TakeOutput, |t| t.take_output())
    }

    // -- plumbing: every defaulted method is forwarded, or the layers
    // -- above would lose prefetch, staleness or span propagation.

    fn trace_handle(&self) -> Option<TraceHandle> {
        self.inner.trace_handle()
    }

    fn set_span_context(&mut self, spans: &SpanContext) {
        self.inner.set_span_context(spans)
    }

    fn span_context(&self) -> Option<SpanContext> {
        self.inner.span_context()
    }

    fn staleness_handle(&self) -> Option<StalenessHandle> {
        self.inner.staleness_handle()
    }

    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        self.call(Op::ReadPipeline, |t| t.read_submit(ranges))
    }

    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        self.call(Op::ReadPipeline, |t| t.read_poll(ticket))
    }

    fn prefetch_submit(&mut self, ranges: &[(u64, u64)]) -> bool {
        self.call(Op::Prefetch, |t| t.prefetch_submit(ranges))
    }

    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        self.call(Op::Prefetch, |t| t.prefetch_poll())
    }

    fn cache_page_size(&self) -> Option<u64> {
        self.inner.cache_page_size()
    }

    fn pipeline_handle(&self) -> Option<PipelineHandle> {
        self.inner.pipeline_handle()
    }
}

/// Counters of the MI link, shared between a [`Tap`] and the benchmark.
#[derive(Default)]
pub struct WireStats {
    turns: AtomicU64,
    commands: AtomicU64,
    bytes: AtomicU64,
    server_ns: AtomicU64,
    timed: AtomicBool,
}

/// A copy of [`WireStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireSnap {
    /// Send → receive transitions: one per round trip, however many
    /// commands a pipelined batch carried.
    pub turns: u64,
    /// MI command lines sent.
    pub commands: u64,
    /// Bytes sent plus bytes received.
    pub bytes: u64,
    /// Nanoseconds spent inside the MI server (0 unless timed).
    pub server_ns: u64,
}

impl WireSnap {
    /// `self - earlier`.
    pub fn since(&self, e: &WireSnap) -> WireSnap {
        WireSnap {
            turns: self.turns - e.turns,
            commands: self.commands - e.commands,
            bytes: self.bytes - e.bytes,
            server_ns: self.server_ns - e.server_ns,
        }
    }
}

impl WireStats {
    /// Fresh, untimed counters.
    pub fn new() -> Arc<WireStats> {
        Arc::new(WireStats::default())
    }

    /// Turns timing of the server on or off.
    pub fn set_timed(&self, on: bool) {
        self.timed.store(on, Relaxed);
    }

    /// The current counters.
    pub fn snap(&self) -> WireSnap {
        WireSnap {
            turns: self.turns.load(Relaxed),
            commands: self.commands.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            server_ns: self.server_ns.load(Relaxed),
        }
    }
}

/// The MI transport tap: [`MockGdb`] behind counters.
pub struct Tap {
    gdb: MockGdb,
    stats: Arc<WireStats>,
    sent: bool,
}

impl Tap {
    /// Serves `gdb` through the tap.
    pub fn new(gdb: MockGdb, stats: &Arc<WireStats>) -> Tap {
        Tap {
            gdb,
            stats: stats.clone(),
            sent: false,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut MockGdb) -> R) -> R {
        if !self.stats.timed.load(Relaxed) {
            return f(&mut self.gdb);
        }
        let t0 = Instant::now();
        let r = f(&mut self.gdb);
        self.stats
            .server_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        r
    }
}

impl MiTransport for Tap {
    fn send_line(&mut self, line: &str) -> Result<(), MiError> {
        self.sent = true;
        self.stats.commands.fetch_add(1, Relaxed);
        self.stats.bytes.fetch_add(line.len() as u64 + 1, Relaxed);
        let r = self.timed(|g| g.send_line(line));
        // The mock logs every command line for protocol tests; over a
        // long run that log would dominate peak memory.
        self.gdb.log.clear();
        r
    }

    fn recv_line(&mut self) -> Result<String, MiError> {
        if std::mem::take(&mut self.sent) {
            self.stats.turns.fetch_add(1, Relaxed);
        }
        let r = self.timed(|g| g.recv_line());
        if let Ok(l) = &r {
            self.stats.bytes.fetch_add(l.len() as u64 + 1, Relaxed);
        }
        r
    }
}
