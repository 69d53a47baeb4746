//! Causal span tracing across the decorator tower.
//!
//! A [`SpanContext`] is one shared timeline for a whole tower: the
//! evaluator opens a *root* span per evaluation (one trace ID each),
//! every AST node it enters opens a *node* span, and the decorators
//! below (retry, cache, supervise, trace) open child spans or instant
//! markers for the work they do on behalf of the node above. Because
//! the context is pushed down through [`crate::Target::set_span_context`]
//! at tower-construction time, a `retry` span recorded three layers
//! below the evaluator still knows exactly which AST node caused it —
//! its parent is whatever span was current when it opened.
//!
//! The data model is deliberately tiny: a bounded ring of completed
//! [`SpanRecord`]s plus a stack of open spans. Everything else —
//! Chrome trace-event JSON for Perfetto ([`chrome_trace_json`]),
//! folded-stacks flamegraph text ([`folded_stacks`]), the `.top`
//! aggregation ([`SpanSnapshot::aggregate`]) — is derived from that
//! ring after the fact.
//!
//! **Disabled spans are free.** Every entry point checks one relaxed
//! atomic load first; no lock is taken, no clock is read, no string is
//! built. The E15 bench asserts the disabled overhead stays under 5%.
//!
//! Memory cost: one completed span is a [`SpanRecord`] — five `u64`s,
//! a kind, a static name and a short detail string, ~100–140 bytes
//! with the ring's own overhead. The default ring keeps
//! [`DEFAULT_SPAN_CAPACITY`] records (~1 MiB worst case); `.set
//! trace_buf N` resizes it together with the event ring.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::quote;
use crate::metrics::Ring;
use crate::trace::TraceEvent;

/// Default bound on completed spans kept for export.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// What layer of the system a span describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The root of one evaluation (one per trace ID).
    Root,
    /// One AST-node generator activation span.
    Node,
    /// Value rendering (the `(display)` pseudo-node).
    Display,
    /// A wire-level operation span (e.g. one vectored read).
    Wire,
    /// One per-range child of a vectored read.
    Range,
    /// A retry layer span: one logical operation's retry episode.
    Retry,
    /// A cache-layer span: a miss fill or prefix probe.
    Cache,
    /// A supervision marker: breaker trip, fast-fail, recovery.
    Supervise,
    /// A read-ahead batch (a walk's wavefront group, a window
    /// submitted ahead or applied).
    Prefetch,
    /// An asynchronous-pipeline event: window submit, in-flight wait,
    /// queue-depth instant.
    Pipeline,
}

/// Every span kind, in display order.
pub const SPAN_KINDS: [SpanKind; 10] = [
    SpanKind::Root,
    SpanKind::Node,
    SpanKind::Display,
    SpanKind::Wire,
    SpanKind::Range,
    SpanKind::Retry,
    SpanKind::Cache,
    SpanKind::Supervise,
    SpanKind::Prefetch,
    SpanKind::Pipeline,
];

impl SpanKind {
    /// Short category label (used as the Perfetto `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Root => "root",
            SpanKind::Node => "node",
            SpanKind::Display => "display",
            SpanKind::Wire => "wire",
            SpanKind::Range => "range",
            SpanKind::Retry => "retry",
            SpanKind::Cache => "cache",
            SpanKind::Supervise => "supervise",
            SpanKind::Prefetch => "prefetch",
            SpanKind::Pipeline => "pipeline",
        }
    }
}

/// One completed span, as kept in the ring.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// The evaluation (trace) this span belongs to.
    pub trace: u64,
    /// Unique span ID (never 0; 0 means "no span").
    pub id: u64,
    /// Parent span ID (0 for a root).
    pub parent: u64,
    /// Layer category.
    pub kind: SpanKind,
    /// Static name (node op label, `"retry"`, `"fill"`, …).
    pub name: &'static str,
    /// Short dynamic detail (expression text, address, outcome).
    pub detail: String,
    /// Start, nanoseconds since the context epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant markers).
    pub dur_ns: u64,
}

impl SpanRecord {
    /// One folded-stack frame for this span (no `;`, which is the
    /// frame separator).
    fn frame(&self) -> String {
        let f = if self.detail.is_empty() {
            self.name.to_string()
        } else {
            format!("{} {}", self.name, self.detail)
        };
        f.replace(';', ",")
    }
}

struct ActiveSpan {
    trace: u64,
    id: u64,
    parent: u64,
    kind: SpanKind,
    name: &'static str,
    detail: String,
    start_ns: u64,
}

struct SpanInner {
    stack: Vec<ActiveSpan>,
    ring: Ring<SpanRecord>,
}

struct SpanShared {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    trace_seq: AtomicU64,
    current_trace: AtomicU64,
    /// Top-of-stack span ID, mirrored out of the mutex so attribution
    /// reads (`current()`) stay a single relaxed load.
    current: AtomicU64,
    inner: Mutex<SpanInner>,
}

/// A cloneable handle onto one tower's span timeline.
///
/// Cloning shares the same timeline (it is an `Arc` inside), which is
/// how one context installed at the top of the tower is visible to
/// every layer below it and to the evaluator above.
#[derive(Clone)]
pub struct SpanContext(Arc<SpanShared>);

impl std::fmt::Debug for SpanContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanContext")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for SpanContext {
    fn default() -> SpanContext {
        SpanContext::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanContext {
    /// Creates a context with a ring bound of `capacity` completed
    /// spans, recording disabled.
    pub fn new(capacity: usize) -> SpanContext {
        SpanContext(Arc::new(SpanShared {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            trace_seq: AtomicU64::new(0),
            current_trace: AtomicU64::new(0),
            current: AtomicU64::new(0),
            inner: Mutex::new(SpanInner {
                stack: Vec::new(),
                ring: Ring::new(capacity),
            }),
        }))
    }

    /// Whether two handles share one timeline.
    pub fn same_as(&self, other: &SpanContext) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Whether spans are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Spans recorded so far are kept.
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// Drops every completed and open span and resets the trace
    /// counter. The enabled flag and ring capacity are kept.
    pub fn clear(&self) {
        let mut inner = self.0.inner.lock().unwrap();
        inner.stack.clear();
        inner.ring.clear();
        self.0.current.store(0, Ordering::Relaxed);
        self.0.current_trace.store(0, Ordering::Relaxed);
        self.0.trace_seq.store(0, Ordering::Relaxed);
        self.0.next_id.store(1, Ordering::Relaxed);
    }

    /// Rebounds the completed-span ring, evicting oldest spans if the
    /// new bound is smaller.
    pub fn set_capacity(&self, capacity: usize) {
        self.0.inner.lock().unwrap().ring.set_capacity(capacity);
    }

    /// The current ring bound.
    pub fn capacity(&self) -> usize {
        self.0.inner.lock().unwrap().ring.capacity
    }

    /// Nanoseconds since this context's epoch (the timeline origin of
    /// every `start_ns`).
    pub fn now_ns(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new trace (one evaluation), returning its ID (≥ 1).
    pub fn begin_trace(&self) -> u64 {
        let id = self.0.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.0.current_trace.store(id, Ordering::Relaxed);
        id
    }

    /// The trace ID of the evaluation in progress (0 if none yet).
    pub fn current_trace(&self) -> u64 {
        self.0.current_trace.load(Ordering::Relaxed)
    }

    /// The innermost open span's ID — what a layer below attributes
    /// its work to. One relaxed load; 0 when nothing is open.
    pub fn current(&self) -> u64 {
        self.0.current.load(Ordering::Relaxed)
    }

    /// Opens a span as a child of the current one. Returns its ID, or
    /// 0 when recording is disabled (pass that 0 straight back to
    /// [`SpanContext::pop`], which ignores it).
    pub fn push(&self, kind: SpanKind, name: &'static str, detail: impl FnOnce() -> String) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        self.push_at(kind, name, detail, self.now_ns())
    }

    /// Opens a span with an explicit (possibly back-dated) start time —
    /// the retry layer opens its span lazily at the *first* failure,
    /// back-dated to the operation start, so a clean call never touches
    /// the stack.
    pub fn push_at(
        &self,
        kind: SpanKind,
        name: &'static str,
        detail: impl FnOnce() -> String,
        start_ns: u64,
    ) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.0.inner.lock().unwrap();
        let parent = inner.stack.last().map_or(0, |s| s.id);
        inner.stack.push(ActiveSpan {
            trace: self.current_trace(),
            id,
            parent,
            kind,
            name,
            detail: detail(),
            start_ns,
        });
        self.0.current.store(id, Ordering::Relaxed);
        id
    }

    /// Closes span `id` (no-op for 0). Any span still open above it is
    /// closed too — a defensive unwind so one missed pop cannot skew
    /// the whole stack.
    pub fn pop(&self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        let mut inner = self.0.inner.lock().unwrap();
        let Some(pos) = inner.stack.iter().rposition(|s| s.id == id) else {
            return;
        };
        while inner.stack.len() > pos {
            let s = inner.stack.pop().unwrap();
            inner.ring.push(SpanRecord {
                trace: s.trace,
                id: s.id,
                parent: s.parent,
                kind: s.kind,
                name: s.name,
                detail: s.detail,
                start_ns: s.start_ns,
                dur_ns: now.saturating_sub(s.start_ns),
            });
        }
        let top = inner.stack.last().map_or(0, |s| s.id);
        self.0.current.store(top, Ordering::Relaxed);
    }

    /// Records a completed (zero-duration) marker as a child of the
    /// current span — breaker trips, fast-fails, per-range fan-out
    /// children. Returns the marker's span ID (0 when disabled).
    pub fn instant(
        &self,
        kind: SpanKind,
        name: &'static str,
        detail: impl FnOnce() -> String,
    ) -> u64 {
        self.record_closed(kind, name, detail, self.now_ns(), 0)
    }

    /// Records an already-completed span (explicit start and duration)
    /// as a child of the current span, without touching the stack.
    pub fn record_closed(
        &self,
        kind: SpanKind,
        name: &'static str,
        detail: impl FnOnce() -> String,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let rec = SpanRecord {
            trace: self.current_trace(),
            id,
            parent: self.current(),
            kind,
            name,
            detail: detail(),
            start_ns,
            dur_ns,
        };
        self.0.inner.lock().unwrap().ring.push(rec);
        id
    }

    /// A point-in-time copy of the timeline: completed spans (oldest
    /// first), still-open spans (outermost first), and the eviction
    /// count.
    pub fn snapshot(&self) -> SpanSnapshot {
        let now = self.now_ns();
        let inner = self.0.inner.lock().unwrap();
        SpanSnapshot {
            spans: inner.ring.items.iter().cloned().collect(),
            open: inner
                .stack
                .iter()
                .map(|s| SpanRecord {
                    trace: s.trace,
                    id: s.id,
                    parent: s.parent,
                    kind: s.kind,
                    name: s.name,
                    detail: s.detail.clone(),
                    start_ns: s.start_ns,
                    dur_ns: now.saturating_sub(s.start_ns),
                })
                .collect(),
            dropped: inner.ring.dropped,
        }
    }
}

/// A frozen copy of a [`SpanContext`]'s timeline.
#[derive(Clone, Debug, Default)]
pub struct SpanSnapshot {
    /// Completed spans, in completion order (oldest first).
    pub spans: Vec<SpanRecord>,
    /// Spans still open at snapshot time, outermost first (their
    /// `dur_ns` is "so far").
    pub open: Vec<SpanRecord>,
    /// Completed spans evicted by the ring bound.
    pub dropped: u64,
}

impl SpanSnapshot {
    /// Total spans in the snapshot (completed + open).
    pub fn len(&self) -> usize {
        self.spans.len() + self.open.len()
    }

    /// Whether the snapshot holds no spans at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.open.is_empty()
    }

    /// Finds a span by ID (completed or still open).
    pub fn find(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().chain(&self.open).find(|s| s.id == id)
    }

    /// The ancestor chain of span `id`, root first, ending with `id`
    /// itself. `None` when the chain is broken (a parent was evicted
    /// or the ID is unknown) or cyclic.
    pub fn ancestry(&self, id: u64) -> Option<Vec<&SpanRecord>> {
        let mut chain = Vec::new();
        let mut cur = id;
        loop {
            let rec = self.find(cur)?;
            chain.push(rec);
            if rec.parent == 0 {
                chain.reverse();
                return Some(chain);
            }
            cur = rec.parent;
            if chain.len() > self.len() {
                return None; // cycle guard (cannot happen, but cheap)
            }
        }
    }

    /// Aggregated per-(kind, name[, detail]) costs for the `.top`
    /// view. Node spans keep their expression text as identity;
    /// everything else aggregates by kind + name. `self_ns` is the
    /// span's duration minus its children's (exclusive time).
    pub fn aggregate(&self) -> Vec<SpanAgg> {
        use std::collections::HashMap;
        let all: Vec<&SpanRecord> = self.spans.iter().chain(&self.open).collect();
        // Exclusive time: subtract each span's duration from its
        // parent's bucket.
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &all {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
            }
        }
        let mut rows: HashMap<(SpanKind, &'static str, String), SpanAgg> = HashMap::new();
        for s in &all {
            let detail = if s.kind == SpanKind::Node || s.kind == SpanKind::Root {
                s.detail.clone()
            } else {
                String::new()
            };
            let row = rows
                .entry((s.kind, s.name, detail.clone()))
                .or_insert_with(|| SpanAgg {
                    kind: s.kind,
                    name: s.name,
                    detail,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
            row.count += 1;
            row.total_ns += s.dur_ns;
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            row.self_ns += s.dur_ns.saturating_sub(children.min(s.dur_ns));
        }
        let mut out: Vec<SpanAgg> = rows.into_values().collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(b.count.cmp(&a.count)));
        out
    }
}

/// One row of [`SpanSnapshot::aggregate`].
#[derive(Clone, Debug)]
pub struct SpanAgg {
    /// Layer category.
    pub kind: SpanKind,
    /// Static name.
    pub name: &'static str,
    /// Expression text for node/root rows, empty otherwise.
    pub detail: String,
    /// Spans aggregated into this row.
    pub count: u64,
    /// Summed (inclusive) duration.
    pub total_ns: u64,
    /// Summed exclusive duration (children subtracted).
    pub self_ns: u64,
}

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Renders a span snapshot (plus the wire events attributed into it)
/// as Chrome trace-event JSON, loadable by Perfetto / `chrome://tracing`.
///
/// Spans become `"X"` complete events (`cat` = span kind); each trace
/// event becomes a zero-or-latency-wide `"X"` event under `cat:
/// "wire-event"`, carrying its span/trace attribution in `args`. An
/// event whose span was evicted from the span ring exports span 0, so
/// every span id in the file resolves, as [`folded_stacks`] folds such
/// an event under `(detached)`.
pub fn chrome_trace_json(snap: &SpanSnapshot, events: &[TraceEvent]) -> String {
    let mut out = String::from(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
         {\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"duel\"}},\
         {\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"eval\"}}",
    );
    let mut held = std::collections::HashSet::new();
    for s in snap.spans.iter().chain(&snap.open) {
        held.insert(s.id);
        out.push_str(&format!(
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":{},\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{\"span\":{},\"parent\":{},\"trace\":{},\
             \"detail\":{}}}}}",
            quote(s.name),
            s.kind.name(),
            us(s.start_ns),
            us(s.dur_ns),
            s.id,
            s.parent,
            s.trace,
            quote(&s.detail),
        ));
    }
    for e in events {
        out.push_str(&format!(
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"cat\":\"wire-event\",\
             \"ts\":{},\"dur\":{},\"args\":{{\"seq\":{},\"span\":{},\"trace\":{},\
             \"outcome\":\"{}\",\"detail\":{}}}}}",
            e.op.name(),
            us(e.ts_ns),
            us(e.nanos),
            e.seq,
            if held.contains(&e.span) { e.span } else { 0 },
            e.trace,
            e.outcome.name(),
            quote(&e.detail),
        ));
    }
    out.push_str("\n]}");
    out
}

/// What a folded-stacks line is weighted by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlameWeight {
    /// Observed wire latency in nanoseconds.
    WireNs,
    /// Backend calls (one per traced event).
    WireReads,
}

/// Renders wire events as folded flamegraph stacks: one line per
/// distinct span path, `frame;frame;...;op weight`, suitable for
/// `flamegraph.pl` / speedscope / inferno.
///
/// Events whose ancestor chain is broken (parent spans evicted from
/// the ring, or spans disabled) fold under a `(detached)` root so the
/// weights still sum to the whole session.
pub fn folded_stacks(snap: &SpanSnapshot, events: &[TraceEvent], weight: FlameWeight) -> String {
    use std::collections::BTreeMap;
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        let mut frames: Vec<String> = Vec::new();
        match snap.ancestry(e.span) {
            Some(chain) if e.span != 0 => {
                for s in chain {
                    frames.push(s.frame());
                }
            }
            _ => frames.push("(detached)".to_string()),
        }
        let leaf = if e.detail.is_empty() {
            e.op.name().to_string()
        } else {
            format!("{} {}", e.op.name(), e.detail).replace(';', ",")
        };
        frames.push(leaf);
        let w = match weight {
            FlameWeight::WireNs => e.nanos.max(1),
            FlameWeight::WireReads => 1,
        };
        *stacks.entry(frames.join(";")).or_insert(0) += w;
    }
    let mut out = String::new();
    for (stack, w) in stacks {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&w.to_string());
        out.push('\n');
    }
    out
}

/// Counts the traced wire events whose span chain resolves to a root
/// span — the E15 acceptance metric ("100% of traced wire events carry
/// a valid ancestor chain up to the eval root"). Returns
/// `(attributed, total)` over events recorded with tracing on.
pub fn attribution_coverage(snap: &SpanSnapshot, events: &[TraceEvent]) -> (usize, usize) {
    let mut ok = 0;
    for e in events {
        if e.span != 0 {
            if let Some(chain) = snap.ancestry(e.span) {
                if chain.first().is_some_and(|r| r.kind == SpanKind::Root) {
                    ok += 1;
                }
            }
        }
    }
    (ok, events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceOp, TraceOutcome};

    fn ctx() -> SpanContext {
        let c = SpanContext::new(64);
        c.set_enabled(true);
        c
    }

    #[test]
    fn empty_ring_exports_valid_chrome_trace_json() {
        // Regression: `.trace export` / `--trace-perfetto` on a ring
        // with no spans and no events must still write a valid
        // (metadata-only) Chrome trace document, not a truncated one.
        let json = chrome_trace_json(&SpanSnapshot::default(), &[]);
        let doc = crate::json::Json::parse(&json).expect("empty export must be valid JSON");
        let Some(crate::json::Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array missing in {json}");
        };
        // Process/thread metadata only — every entry is a metadata
        // phase record, no X events.
        assert!(!events.is_empty());
        for e in events {
            assert_eq!(
                e.get("ph").and_then(crate::json::Json::as_str),
                Some("M"),
                "non-metadata event in empty export: {json}"
            );
        }
        assert_eq!(
            doc.get("displayTimeUnit")
                .and_then(crate::json::Json::as_str),
            Some("ms")
        );
    }

    #[test]
    fn disabled_context_records_nothing_and_returns_zero() {
        let c = SpanContext::new(16);
        assert_eq!(c.push(SpanKind::Node, "index", || "x[i]".into()), 0);
        assert_eq!(c.instant(SpanKind::Supervise, "trip", String::new), 0);
        c.pop(0);
        let s = c.snapshot();
        assert!(s.is_empty());
        assert_eq!(c.current(), 0);
    }

    #[test]
    fn push_pop_builds_parent_chains() {
        let c = ctx();
        let t = c.begin_trace();
        assert_eq!(t, 1);
        let root = c.push(SpanKind::Root, "eval", || "x[..4]".into());
        let node = c.push(SpanKind::Node, "index", || "x[i]".into());
        assert_eq!(c.current(), node);
        let wire = c.instant(SpanKind::Range, "range", || "0x1000+4".into());
        c.pop(node);
        assert_eq!(c.current(), root);
        c.pop(root);
        assert_eq!(c.current(), 0);
        let s = c.snapshot();
        assert_eq!(s.spans.len(), 3);
        let chain = s.ancestry(wire).unwrap();
        assert_eq!(
            chain.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![root, node, wire]
        );
        assert_eq!(chain[0].kind, SpanKind::Root);
        assert!(chain.iter().all(|r| r.trace == t));
    }

    #[test]
    fn pop_unwinds_missed_children_defensively() {
        let c = ctx();
        let a = c.push(SpanKind::Node, "a", String::new);
        let _b = c.push(SpanKind::Node, "b", String::new);
        c.pop(a); // b was never popped
        assert_eq!(c.current(), 0);
        assert_eq!(c.snapshot().spans.len(), 2);
    }

    #[test]
    fn ring_is_bounded_and_clear_resets() {
        let c = SpanContext::new(4);
        c.set_enabled(true);
        for _ in 0..10 {
            c.instant(SpanKind::Wire, "w", String::new);
        }
        let s = c.snapshot();
        assert_eq!(s.spans.len(), 4);
        assert_eq!(s.dropped, 6);
        c.clear();
        let s = c.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.dropped, 0);
        assert!(c.is_enabled(), "clear must not disable recording");
        c.set_capacity(2);
        for _ in 0..5 {
            c.instant(SpanKind::Wire, "w", String::new);
        }
        assert_eq!(c.snapshot().spans.len(), 2);
    }

    #[test]
    fn aggregate_computes_exclusive_time() {
        let c = ctx();
        let root = c.push_at(SpanKind::Root, "eval", || "e".into(), 0);
        let node = c.push_at(SpanKind::Node, "index", || "x[i]".into(), 10);
        // Force durations by hand-closing via record_closed children.
        c.record_closed(SpanKind::Wire, "w", String::new, 20, 5);
        c.pop(node);
        c.pop(root);
        let mut s = c.snapshot();
        // Make timing deterministic for the assertion.
        for r in &mut s.spans {
            if r.id == root {
                r.dur_ns = 100;
            }
            if r.id == node {
                r.dur_ns = 60;
            }
        }
        let rows = s.aggregate();
        let node_row = rows.iter().find(|r| r.kind == SpanKind::Node).unwrap();
        assert_eq!(node_row.count, 1);
        assert_eq!(node_row.total_ns, 60);
        assert_eq!(node_row.self_ns, 55); // 60 - 5 (wire child)
        let root_row = rows.iter().find(|r| r.kind == SpanKind::Root).unwrap();
        assert_eq!(root_row.self_ns, 40); // 100 - 60
    }

    #[test]
    fn chrome_export_is_json_with_span_args() {
        let c = ctx();
        c.begin_trace();
        let root = c.push(SpanKind::Root, "eval", || "x\"quote".into());
        c.pop(root);
        let ev = TraceEvent {
            seq: 0,
            op: TraceOp::GetBytes,
            detail: "0x1000+4".into(),
            outcome: TraceOutcome::Ok,
            nanos: 1500,
            ts_ns: 2000,
            trace: 1,
            span: root,
        };
        let json = chrome_trace_json(&c.snapshot(), &[ev]);
        let v = crate::json::Json::parse(&json).expect("export must be valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.items()).unwrap();
        assert!(events.len() >= 3, "metadata + span + wire event");
        assert!(json.contains("\"cat\":\"root\""), "{json}");
        assert!(json.contains("\"cat\":\"wire-event\""), "{json}");
        assert!(json.contains("x\\\"quote"), "{json}");
    }

    #[test]
    fn chrome_export_detaches_events_whose_span_was_evicted() {
        let c = ctx();
        c.set_capacity(1);
        c.begin_trace();
        let gone = c.push(SpanKind::Root, "eval", || "x[0]".into());
        c.pop(gone);
        let kept = c.push(SpanKind::Root, "eval", || "x[1]".into());
        c.pop(kept);
        let ev = |span: u64| TraceEvent {
            seq: 0,
            op: TraceOp::GetBytes,
            detail: "0x1000+4".into(),
            outcome: TraceOutcome::Ok,
            nanos: 1,
            ts_ns: 0,
            trace: 1,
            span,
        };
        let json = chrome_trace_json(&c.snapshot(), &[ev(gone), ev(kept)]);
        assert!(!json.contains(&format!("\"span\":{gone},")), "{json}");
        // The kept span and the event attributed to it.
        let kept_refs = json.matches(&format!("\"span\":{kept},")).count();
        assert_eq!(kept_refs, 2, "{json}");
        assert!(json.contains("\"span\":0,"), "{json}");
    }

    #[test]
    fn folded_stacks_fold_by_path_and_weight() {
        let c = ctx();
        c.begin_trace();
        let root = c.push(SpanKind::Root, "eval", || "x[..2]".into());
        let node = c.push(SpanKind::Node, "index", || "x[i]".into());
        let mk = |span: u64, nanos: u64| TraceEvent {
            seq: 0,
            op: TraceOp::GetBytes,
            detail: "0x1000+4".into(),
            outcome: TraceOutcome::Ok,
            nanos,
            ts_ns: 0,
            trace: 1,
            span,
        };
        c.pop(root);
        let snap = c.snapshot();
        let folded = folded_stacks(
            &snap,
            &[mk(node, 10), mk(node, 20), mk(0, 7)],
            FlameWeight::WireNs,
        );
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(
            folded.contains("eval x[..2];index x[i];get_bytes 0x1000+4 30"),
            "{folded}"
        );
        assert!(
            folded.contains("(detached);get_bytes 0x1000+4 7"),
            "{folded}"
        );
        let by_reads = folded_stacks(&snap, &[mk(node, 10), mk(node, 20)], FlameWeight::WireReads);
        assert!(by_reads.contains(" 2\n"), "{by_reads}");
    }

    #[test]
    fn attribution_coverage_counts_rooted_chains() {
        let c = ctx();
        c.begin_trace();
        let root = c.push(SpanKind::Root, "eval", String::new);
        let node = c.push(SpanKind::Node, "index", String::new);
        c.pop(root);
        let snap = c.snapshot();
        let mk = |span: u64| TraceEvent {
            seq: 0,
            op: TraceOp::GetBytes,
            detail: String::new(),
            outcome: TraceOutcome::Ok,
            nanos: 1,
            ts_ns: 0,
            trace: 1,
            span,
        };
        let (ok, total) = attribution_coverage(&snap, &[mk(node), mk(root), mk(0)]);
        assert_eq!((ok, total), (2, 3));
    }
}
