//! [`TraceTarget`] — wire-level observability over the narrow interface.
//!
//! Every call that crosses [`Target`] is a potential debugger
//! round-trip, and the decorator tower (`Retry(Cache(Fault(backend)))`)
//! means "one evaluator read" and "one wire fetch" are different
//! quantities at different levels. `TraceTarget` makes each level
//! observable: insert it *above* the cache to see what the evaluator
//! asks for, *below* the cache to see what actually reaches the
//! backend, or both at once with distinct labels.
//!
//! Recorded per call: the operation kind ([`TraceOp`]), a short detail
//! (address + length, or the symbol asked for), the outcome
//! ([`TraceOutcome`]: ok / fault / transient / not-found), and the
//! latency. The data lands in three sinks shared through a cloneable
//! [`TraceHandle`]:
//!
//! * per-op counters (calls, errors, cumulative nanoseconds);
//! * per-op log₂ latency histograms;
//! * a bounded ring buffer of the most recent [`TraceEvent`]s.
//!
//! **Disabled tracing is free.** The handle's flag is a single relaxed
//! atomic load on the fast path; no counter is bumped, no event is
//! allocated, no clock is read. The `duel` REPL leaves tracing off
//! until `.trace on` (or transiently during `.profile`), and the E11
//! bench asserts the disabled overhead is negligible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::error::TargetError;
use crate::iface::Target;
use crate::json::quote;
use crate::metrics::{log2_bucket, log2_quantile, Ring};
use crate::op::{Op, Reply};
use crate::span::{SpanContext, SpanKind};

/// The kind of a traced [`Target`] operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceOp {
    /// `get_bytes` — a debuggee memory read.
    GetBytes,
    /// `put_bytes` — a debuggee memory write.
    PutBytes,
    /// `alloc_space` — scratch allocation in the debuggee.
    AllocSpace,
    /// `call_func` — a debuggee function call.
    CallFunc,
    /// `get_variable` / `get_variable_in_frame` — symbol resolution.
    GetVariable,
    /// `lookup_typedef` / `lookup_struct` / `lookup_union` /
    /// `lookup_enum` — type lookups.
    LookupType,
    /// `has_function` — function-existence probe.
    HasFunction,
    /// `frame_count` / `frame_info` — stack inspection.
    Frames,
    /// `is_mapped` — address-space probe.
    IsMapped,
    /// `get_bytes_multi` — a vectored memory read (one wire turn
    /// carrying many ranges).
    MultiRead,
}

/// Every op kind, in display order.
pub const TRACE_OPS: [TraceOp; 10] = [
    TraceOp::GetBytes,
    TraceOp::PutBytes,
    TraceOp::AllocSpace,
    TraceOp::CallFunc,
    TraceOp::GetVariable,
    TraceOp::LookupType,
    TraceOp::HasFunction,
    TraceOp::Frames,
    TraceOp::IsMapped,
    TraceOp::MultiRead,
];

impl TraceOp {
    /// Stable numeric code of the operation (its position in
    /// [`TRACE_OPS`]); also the `op_code` field of meta-image events.
    pub fn index(self) -> usize {
        match self {
            TraceOp::GetBytes => 0,
            TraceOp::PutBytes => 1,
            TraceOp::AllocSpace => 2,
            TraceOp::CallFunc => 3,
            TraceOp::GetVariable => 4,
            TraceOp::LookupType => 5,
            TraceOp::HasFunction => 6,
            TraceOp::Frames => 7,
            TraceOp::IsMapped => 8,
            TraceOp::MultiRead => 9,
        }
    }

    /// The wire-level name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            TraceOp::GetBytes => "get_bytes",
            TraceOp::PutBytes => "put_bytes",
            TraceOp::AllocSpace => "alloc_space",
            TraceOp::CallFunc => "call_func",
            TraceOp::GetVariable => "get_variable",
            TraceOp::LookupType => "lookup_type",
            TraceOp::HasFunction => "has_function",
            TraceOp::Frames => "frames",
            TraceOp::IsMapped => "is_mapped",
            TraceOp::MultiRead => "multi_read",
        }
    }
}

const OP_COUNT: usize = TRACE_OPS.len();
/// log₂ latency buckets: bucket `i` holds calls with latency in
/// `[2^i, 2^(i+1))` ns (bucket 0 also holds sub-nanosecond readings).
pub const HIST_BUCKETS: usize = 40;
/// log₂ ranges-per-call buckets for vectored reads: bucket `i` holds
/// `get_bytes_multi` calls carrying `[2^i, 2^(i+1))` ranges.
pub const RANGE_BUCKETS: usize = 16;

/// How a traced operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The operation succeeded.
    Ok,
    /// A fault: the debuggee's honest "no" (bad address, …).
    Fault,
    /// A transient backend failure (retryable).
    Transient,
    /// A lookup answered "not found" / `false`.
    NotFound,
}

impl TraceOutcome {
    /// The outcome of a call that failed with `errors` (none: it
    /// succeeded): transient if any error is, else a fault if any.
    pub fn of_errors<'e>(errors: impl Iterator<Item = &'e TargetError>) -> TraceOutcome {
        let mut outcome = TraceOutcome::Ok;
        for e in errors {
            if e.is_transient() {
                return TraceOutcome::Transient;
            }
            outcome = TraceOutcome::Fault;
        }
        outcome
    }

    /// Short label for event dumps.
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Fault => "fault",
            TraceOutcome::Transient => "transient",
            TraceOutcome::NotFound => "not-found",
        }
    }

    /// Stable numeric code of the outcome (the `outcome_code` field of
    /// meta-image events; 0 = ok).
    pub fn index(self) -> usize {
        match self {
            TraceOutcome::Ok => 0,
            TraceOutcome::Fault => 1,
            TraceOutcome::Transient => 2,
            TraceOutcome::NotFound => 3,
        }
    }
}

/// One recorded call, as kept in the ring buffer.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence number (global across the handle).
    pub seq: u64,
    /// The operation kind.
    pub op: TraceOp,
    /// Address/length or symbol detail, e.g. `0x1000+64` or `hash`.
    pub detail: String,
    /// How the call ended.
    pub outcome: TraceOutcome,
    /// Observed latency in nanoseconds.
    pub nanos: u64,
    /// Start time, nanoseconds since the tower's span-context epoch
    /// (0 when spans were off at record time).
    pub ts_ns: u64,
    /// Trace (evaluation) ID the call belongs to, 0 if unattributed.
    pub trace: u64,
    /// Causing span ID (the innermost open span when the call was
    /// recorded), 0 if unattributed.
    pub span: u64,
}

impl TraceEvent {
    /// Renders the event as `.trace dump` prints it. Attributed events
    /// carry a trailing `span=N` marker.
    pub fn render(&self) -> String {
        let mut line = format!(
            "#{:<6} {:<13} {:<24} {:<9} {}",
            self.seq,
            self.op.name(),
            self.detail,
            self.outcome.name(),
            fmt_ns(self.nanos)
        );
        if self.span != 0 {
            line.push_str(&format!("  span={}", self.span));
        }
        line
    }
}

/// Formats a nanosecond count with a human unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

struct TraceShared {
    enabled: AtomicBool,
    seq: AtomicU64,
    /// `calls[op]`, `errors[op]`, `nanos[op]` — flat per-op counters.
    calls: Vec<AtomicU64>,
    errors: Vec<AtomicU64>,
    nanos: Vec<AtomicU64>,
    /// `hist[op * HIST_BUCKETS + bucket]` — log₂ latency histograms.
    hist: Vec<AtomicU64>,
    /// Total ranges carried by `get_bytes_multi` calls.
    multi_ranges: AtomicU64,
    /// log₂ ranges-per-call histogram for vectored reads.
    multi_hist: Vec<AtomicU64>,
    ring: Mutex<Ring<TraceEvent>>,
}

/// Counter snapshot for one operation kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpStats {
    /// Which operation.
    pub op: TraceOp,
    /// Calls recorded while tracing was enabled.
    pub calls: u64,
    /// Calls that ended in a fault or transient failure.
    pub errors: u64,
    /// Cumulative latency, nanoseconds.
    pub total_ns: u64,
    /// log₂ latency histogram (see [`HIST_BUCKETS`]).
    pub hist: Vec<u64>,
}

impl OpStats {
    /// Mean latency in nanoseconds (0 when no calls were recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }

    /// Approximate latency quantile from the histogram: the upper bound
    /// of the bucket containing the `q`-quantile call (`q` in `[0,1]`).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        log2_quantile(&self.hist, q)
    }
}

/// A full snapshot of a trace handle's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Per-op counters, in [`TRACE_OPS`] order.
    pub ops: Vec<OpStats>,
    /// Events currently held in the ring buffer.
    pub events_held: usize,
    /// Events pushed out of the ring by newer ones.
    pub events_dropped: u64,
    /// Total ranges carried by vectored reads (`multi_read` calls).
    pub multi_ranges: u64,
    /// log₂ ranges-per-call histogram for vectored reads (see
    /// [`RANGE_BUCKETS`]).
    pub multi_ranges_hist: Vec<u64>,
}

impl TraceStats {
    /// Total calls across all op kinds.
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(|o| o.calls).sum()
    }

    /// Total errors (faults + transients) across all op kinds.
    pub fn total_errors(&self) -> u64 {
        self.ops.iter().map(|o| o.errors).sum()
    }

    /// Counters for one op kind.
    pub fn op(&self, op: TraceOp) -> &OpStats {
        &self.ops[op.index()]
    }
}

/// A cloneable view onto one [`TraceTarget`]'s instrumentation.
///
/// The handle outlives borrows of the target itself, which is what lets
/// the evaluator read counter deltas mid-evaluation while holding
/// `&mut dyn Target`.
#[derive(Clone)]
pub struct TraceHandle(Arc<TraceShared>);

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceHandle {
    /// Creates a handle with a ring buffer of `capacity` events,
    /// tracing disabled.
    pub fn new(capacity: usize) -> TraceHandle {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        TraceHandle(Arc::new(TraceShared {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            calls: zeros(OP_COUNT),
            errors: zeros(OP_COUNT),
            nanos: zeros(OP_COUNT),
            hist: zeros(OP_COUNT * HIST_BUCKETS),
            multi_ranges: AtomicU64::new(0),
            multi_hist: zeros(RANGE_BUCKETS),
            ring: Mutex::new(Ring::new(capacity)),
        }))
    }

    /// Whether calls are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Counters and events accumulated so
    /// far are kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// Rebounds the event ring to `capacity`, evicting oldest events
    /// if it now holds more than that. Each buffered event costs
    /// roughly 100 bytes (five words plus its detail string), so the
    /// default 4096-event ring is ~400 KiB at worst.
    pub fn set_capacity(&self, capacity: usize) {
        self.0.ring.lock().unwrap().set_capacity(capacity);
    }

    /// The current event-ring bound.
    pub fn capacity(&self) -> usize {
        self.0.ring.lock().unwrap().capacity
    }

    /// Zeroes every counter and drops all buffered events.
    pub fn clear(&self) {
        for c in self
            .0
            .calls
            .iter()
            .chain(&self.0.errors)
            .chain(&self.0.nanos)
            .chain(&self.0.hist)
            .chain(&self.0.multi_hist)
        {
            c.store(0, Ordering::Relaxed);
        }
        self.0.multi_ranges.store(0, Ordering::Relaxed);
        self.0.seq.store(0, Ordering::Relaxed);
        self.0.ring.lock().unwrap().clear();
    }

    /// Memory reads recorded so far — the counter the evaluator diffs
    /// across a generator span to attribute wire traffic to AST nodes.
    pub fn reads(&self) -> u64 {
        self.0.calls[TraceOp::GetBytes.index()].load(Ordering::Relaxed)
    }

    /// Calls recorded so far for one op kind.
    pub fn calls(&self, op: TraceOp) -> u64 {
        self.0.calls[op.index()].load(Ordering::Relaxed)
    }

    /// Snapshots every counter and histogram.
    pub fn snapshot(&self) -> TraceStats {
        let ops = TRACE_OPS
            .iter()
            .map(|&op| {
                let i = op.index();
                OpStats {
                    op,
                    calls: self.0.calls[i].load(Ordering::Relaxed),
                    errors: self.0.errors[i].load(Ordering::Relaxed),
                    total_ns: self.0.nanos[i].load(Ordering::Relaxed),
                    hist: (0..HIST_BUCKETS)
                        .map(|b| self.0.hist[i * HIST_BUCKETS + b].load(Ordering::Relaxed))
                        .collect(),
                }
            })
            .collect();
        let ring = self.0.ring.lock().unwrap();
        TraceStats {
            ops,
            events_held: ring.items.len(),
            events_dropped: ring.dropped,
            multi_ranges: self.0.multi_ranges.load(Ordering::Relaxed),
            multi_ranges_hist: (0..RANGE_BUCKETS)
                .map(|b| self.0.multi_hist[b].load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// The most recent `n` events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<TraceEvent> {
        let ring = self.0.ring.lock().unwrap();
        let skip = ring.items.len().saturating_sub(n);
        ring.items.iter().skip(skip).cloned().collect()
    }

    /// Serializes counters, histograms, and buffered events as a JSON
    /// object (the `--trace-json` export; see `docs/LANGUAGE.md`).
    pub fn to_json(&self, label: &str) -> String {
        let stats = self.snapshot();
        let mut ops = Vec::new();
        for o in &stats.ops {
            if o.calls == 0 {
                continue;
            }
            // Trim trailing empty buckets so the export stays readable.
            let last = o.hist.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
            let hist: Vec<String> = o.hist[..last].iter().map(|n| n.to_string()).collect();
            ops.push(format!(
                "{{\"op\":\"{}\",\"calls\":{},\"errors\":{},\"total_ns\":{},\
                 \"mean_ns\":{},\"p99_ns\":{},\"hist_log2_ns\":[{}]}}",
                o.op.name(),
                o.calls,
                o.errors,
                o.total_ns,
                o.mean_ns(),
                o.quantile_ns(0.99),
                hist.join(",")
            ));
        }
        let events: Vec<String> = self
            .recent_events(usize::MAX)
            .iter()
            .map(|e| {
                format!(
                    "{{\"seq\":{},\"op\":\"{}\",\"detail\":{},\"outcome\":\"{}\",\"ns\":{},\
                     \"ts_ns\":{},\"trace\":{},\"span\":{}}}",
                    e.seq,
                    e.op.name(),
                    quote(&e.detail),
                    e.outcome.name(),
                    e.nanos,
                    e.ts_ns,
                    e.trace,
                    e.span
                )
            })
            .collect();
        format!(
            "{{\"label\":{},\"enabled\":{},\"events_dropped\":{},\
             \"ops\":[{}],\"events\":[{}]}}",
            quote(label),
            self.is_enabled(),
            stats.events_dropped,
            ops.join(","),
            events.join(",")
        )
    }

    /// Feeds one externally-observed event into the counters,
    /// histograms, and ring, exactly as a live traced call would.
    ///
    /// This is how offline tools (e.g. `duel-replay`) reuse the stats
    /// machinery over a capture file instead of a live target.
    pub fn record_event(&self, op: TraceOp, detail: String, outcome: TraceOutcome, nanos: u64) {
        self.record(op, detail, outcome, nanos, Attribution::NONE);
    }

    /// Wire turns recorded so far: scalar reads plus vectored reads
    /// (each vectored call is one turn no matter how many ranges it
    /// carries). This is the quantity read-ahead optimizes.
    pub fn wire_turns(&self) -> u64 {
        self.calls(TraceOp::GetBytes) + self.calls(TraceOp::MultiRead)
    }

    fn record(
        &self,
        op: TraceOp,
        detail: String,
        outcome: TraceOutcome,
        nanos: u64,
        at: Attribution,
    ) {
        let i = op.index();
        self.0.calls[i].fetch_add(1, Ordering::Relaxed);
        if matches!(outcome, TraceOutcome::Fault | TraceOutcome::Transient) {
            self.0.errors[i].fetch_add(1, Ordering::Relaxed);
        }
        self.0.nanos[i].fetch_add(nanos, Ordering::Relaxed);
        let bucket = log2_bucket(nanos, HIST_BUCKETS);
        self.0.hist[i * HIST_BUCKETS + bucket].fetch_add(1, Ordering::Relaxed);
        let seq = self.0.seq.fetch_add(1, Ordering::Relaxed);
        self.0.ring.lock().unwrap().push(TraceEvent {
            seq,
            op,
            detail,
            outcome,
            nanos,
            ts_ns: at.ts_ns,
            trace: at.trace,
            span: at.span,
        });
    }
}

/// Causal coordinates of one recorded event: where on the span
/// timeline it happened and which span caused it.
#[derive(Clone, Copy, Debug)]
struct Attribution {
    ts_ns: u64,
    trace: u64,
    span: u64,
}

impl Attribution {
    const NONE: Attribution = Attribution {
        ts_ns: 0,
        trace: 0,
        span: 0,
    };

    /// Reads the current attribution off a span context (all-zero when
    /// spans are disabled, so unattributed events stay recognizable).
    fn current(spans: &SpanContext) -> Attribution {
        if !spans.is_enabled() {
            return Attribution::NONE;
        }
        Attribution {
            ts_ns: spans.now_ns(),
            trace: spans.current_trace(),
            span: spans.current(),
        }
    }
}

/// A [`Target`] decorator that records every call crossing it.
///
/// See the module docs for what is recorded and the zero-cost-when-off
/// guarantee. The decorator answers [`Target::trace_handle`] with its
/// own handle, so the evaluator finds the *outermost* trace layer
/// through `&mut dyn Target` no matter how deep the tower is.
#[derive(Debug)]
pub struct TraceTarget<T: Target> {
    inner: T,
    handle: TraceHandle,
    spans: SpanContext,
    label: &'static str,
}

/// Default ring-buffer capacity (events kept for `.trace dump`).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

impl<T: Target> TraceTarget<T> {
    /// Wraps `inner` with a fresh, disabled handle and the default ring
    /// capacity.
    pub fn new(inner: T) -> TraceTarget<T> {
        TraceTarget::with_label(inner, "trace")
    }

    /// Wraps `inner` under a layer label (used when stacking several
    /// trace layers, e.g. `"session"` above the cache and `"wire"`
    /// below it).
    ///
    /// Construction installs a fresh [`SpanContext`] into the whole
    /// stack below (via [`Target::set_span_context`]); since towers
    /// are built inside-out, the outermost trace layer's context wins
    /// and every layer shares one timeline.
    pub fn with_label(mut inner: T, label: &'static str) -> TraceTarget<T> {
        let spans = SpanContext::new(crate::span::DEFAULT_SPAN_CAPACITY);
        inner.set_span_context(&spans);
        TraceTarget {
            inner,
            handle: TraceHandle::new(DEFAULT_RING_CAPACITY),
            spans,
            label,
        }
    }

    /// The layer label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// A clone of this layer's handle.
    pub fn handle(&self) -> TraceHandle {
        self.handle.clone()
    }

    /// A clone of the shared span context.
    pub fn spans(&self) -> SpanContext {
        self.spans.clone()
    }

    /// The wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped target.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Target> crate::op::Layer for TraceTarget<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.inner
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Records one call: skips *everything* (clock, counters, event)
    /// when tracing is off — the disabled cost is this one relaxed
    /// load. `take_output` drains a host-side buffer, not the wire, so
    /// it is never traced.
    #[inline(always)]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        if !self.handle.0.enabled.load(Ordering::Relaxed) {
            return op.apply(&mut self.inner);
        }
        self.traced(op)
    }

    fn trace_handle(&self) -> Option<TraceHandle> {
        Some(self.handle.clone())
    }

    fn set_span_context(&mut self, spans: &SpanContext) {
        // An outer trace layer wins: adopt its timeline and keep
        // pushing it down so the whole tower agrees.
        self.spans = spans.clone();
        self.inner.set_span_context(spans);
    }

    fn span_context(&self) -> Option<SpanContext> {
        Some(self.spans.clone())
    }
}

impl<T: Target> TraceTarget<T> {
    /// The enabled path of [`crate::Layer::call`]: times the call and records
    /// its kind, detail and outcome.
    #[inline(never)]
    fn traced(&mut self, mut op: Op<'_, '_>) -> Reply {
        let Some(kind) = op.trace_op() else {
            return op.apply(&mut self.inner);
        };
        let detail = op.detail();
        // A vectored read is the one wire op with visible fan-out:
        // open a parent span for the batch and record one child per
        // range, so the export shows exactly what the turn carried.
        let multi_span = match op {
            Op::GetBytesMulti(_) => self
                .spans
                .push(SpanKind::Wire, "multi_read", || detail.clone()),
            _ => 0,
        };
        let mut at = Attribution::current(&self.spans);
        let start = Instant::now();
        let reply = op.reborrow().apply(&mut self.inner);
        let nanos = start.elapsed().as_nanos() as u64;
        let outcome = reply.outcome();
        let (Op::GetBytesMulti(ranges), Reply::Multi(results)) = (&op, &reply) else {
            self.handle.record(kind, detail, outcome, nanos, at);
            return reply;
        };
        if multi_span != 0 {
            for (r, res) in ranges.iter().zip(results) {
                let outcome = TraceOutcome::of_errors(res.as_ref().err().into_iter());
                let (addr, len) = (r.addr, r.len());
                self.spans.instant(SpanKind::Range, "range", || {
                    format!("0x{addr:x}+{len} {}", outcome.name())
                });
            }
            self.spans.pop(multi_span);
            // The batch event is attributed to the batch span itself —
            // its parent chain still leads to the causing eval node.
            at.span = multi_span;
        }
        // The ranges-per-call histogram, besides the op's counters.
        let shared = &self.handle.0;
        let nranges = ranges.len() as u64;
        shared.multi_hist[log2_bucket(nranges, RANGE_BUCKETS)].fetch_add(1, Ordering::Relaxed);
        shared.multi_ranges.fetch_add(nranges, Ordering::Relaxed);
        self.handle.record(kind, detail, outcome, nanos, at);
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn disabled_tracing_records_nothing() {
        let mut t = TraceTarget::new(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        let s = t.handle().snapshot();
        assert_eq!(s.total_calls(), 0);
        assert_eq!(s.events_held, 0);
        assert!(t.handle().recent_events(10).is_empty());
    }

    #[test]
    fn enabled_tracing_counts_calls_outcomes_and_latency() {
        let mut t = TraceTarget::new(scenario::scan_array());
        t.handle().set_enabled(true);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        t.get_bytes(x.addr + 4, &mut buf).unwrap();
        assert!(t.get_bytes(0x10, &mut buf).is_err()); // fault
        assert!(t.get_variable("nonesuch").is_none()); // not-found
        let s = t.handle().snapshot();
        assert_eq!(s.op(TraceOp::GetBytes).calls, 3);
        assert_eq!(s.op(TraceOp::GetBytes).errors, 1);
        assert_eq!(s.op(TraceOp::GetVariable).calls, 2);
        assert_eq!(s.op(TraceOp::GetVariable).errors, 0);
        assert_eq!(t.handle().reads(), 3);
        // Histogram holds exactly the recorded calls.
        let hist_total: u64 = s.op(TraceOp::GetBytes).hist.iter().sum();
        assert_eq!(hist_total, 3);
        let events = t.handle().recent_events(10);
        assert_eq!(events.len(), 5);
        assert_eq!(events[4].outcome, TraceOutcome::NotFound);
        assert!(events[2].detail.starts_with("0x"), "{:?}", events[2]);
    }

    #[test]
    fn ring_buffer_is_bounded_and_keeps_newest() {
        let mut t = TraceTarget::new(scenario::scan_array());
        // Shrink the ring via a fresh handle-backed target.
        t.handle().set_capacity(4);
        t.handle().set_enabled(true);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        for i in 0..10u64 {
            t.get_bytes(x.addr + i * 4, &mut buf).unwrap();
        }
        let s = t.handle().snapshot();
        assert_eq!(s.events_held, 4);
        assert_eq!(s.events_dropped, 7); // 11 events total (1 lookup + 10 reads)
        let events = t.handle().recent_events(100);
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events.last().unwrap().seq, 10);
    }

    #[test]
    fn clear_resets_counters_and_events() {
        let mut t = TraceTarget::new(scenario::scan_array());
        t.handle().set_enabled(true);
        let mut buf = [0u8; 4];
        let x = t.get_variable("x").unwrap();
        t.get_bytes(x.addr, &mut buf).unwrap();
        t.handle().clear();
        let s = t.handle().snapshot();
        assert_eq!(s.total_calls(), 0);
        assert_eq!(s.events_held, 0);
        assert!(t.handle().is_enabled(), "clear must not disable tracing");
    }

    #[test]
    fn trace_handle_is_discoverable_through_dyn_target() {
        let mut t = TraceTarget::new(scenario::scan_array());
        let dt: &mut dyn Target = &mut t;
        assert!(dt.trace_handle().is_some());
        let mut plain = scenario::scan_array();
        let dp: &mut dyn Target = &mut plain;
        assert!(dp.trace_handle().is_none());
    }

    #[test]
    fn quantiles_come_from_the_histogram() {
        let s = OpStats {
            op: TraceOp::GetBytes,
            calls: 4,
            errors: 0,
            total_ns: 100,
            hist: {
                let mut h = vec![0u64; HIST_BUCKETS];
                h[3] = 3; // three calls in [8, 16) ns
                h[10] = 1; // one call in [1024, 2048) ns
                h
            },
        };
        assert_eq!(s.quantile_ns(0.5), 16);
        assert_eq!(s.quantile_ns(0.99), 2048);
        assert_eq!(s.mean_ns(), 25);
    }

    #[test]
    fn json_export_has_the_expected_shape() {
        let mut t = TraceTarget::new(scenario::scan_array());
        t.handle().set_enabled(true);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        let json = t.handle().to_json("wire");
        assert!(json.contains("\"label\":\"wire\""), "{json}");
        assert!(json.contains("\"op\":\"get_bytes\""), "{json}");
        assert!(json.contains("\"hist_log2_ns\""), "{json}");
        assert!(json.contains("\"events\""), "{json}");
    }
}
