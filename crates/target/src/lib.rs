#![warn(missing_docs)]

//! The debugger-target layer of the DUEL reproduction.
//!
//! The paper's central architectural claim is that a very-high-level
//! debugging language can sit on *any* debugger through a narrow
//! two-way interface; porting between gdb versions changed four lines.
//! This crate is that seam, rebuilt as a fault-tolerant stack:
//!
//! * [`Target`] — the narrow trait: memory, symbols, types, frames,
//!   calls. Everything above (eval, mini-C VM, CLI) talks only to this.
//! * [`Op`] / [`Layer`] — the wire-op set written down once: a
//!   decorator implements one [`Layer::call`] hook over a borrowed
//!   [`Op`] and is a `Target` through a blanket impl.
//! * [`TargetError`] — a two-class fault taxonomy: *faults* (bad
//!   debuggee state, surfaced as per-subexpression symbolic errors)
//!   vs *transient failures* (sick backend, retryable).
//! * [`SimTarget`] — an in-process simulated debuggee; [`scenario`]
//!   builds the paper's worked examples on top of it.
//! * [`value_io`] — endian-aware encode/decode of scalars, pointers
//!   and bit-fields through any `Target`.
//! * [`RetryTarget`] — bounded retry with exponential backoff and
//!   per-call deadlines; wraps flaky backends such as a remote MI
//!   connection.
//! * [`CachedTarget`] — a per-stop page cache plus lookup memoization
//!   that coalesces adjacent reads into aligned page fetches, so
//!   element-at-a-time traversals stop paying one backend round-trip
//!   per element.
//! * [`TraceTarget`] — wire-level observability: per-op counters,
//!   latency histograms, and a bounded event ring, insertable at any
//!   level of the tower and free when disabled.
//! * [`span`] — causal span tracing: one [`SpanContext`] per tower,
//!   installed top-down through [`Target::set_span_context`], so every
//!   retry, cache fill, breaker trip and wire event is attributed to
//!   the evaluator node that caused it; exports Perfetto JSON and
//!   folded flamegraph stacks.
//! * [`metrics`] — an always-on, lock-free registry of named counters
//!   and log₂ histograms (the `.top` live view).
//! * [`RecordTarget`] / [`ReplayTarget`] — the flight recorder: stream
//!   every interface call (full arguments and replies) to a versioned
//!   JSONL capture, then serve an entire session back from the file —
//!   strictly (byte-identical replay, symbolic divergence reports) or
//!   permissively (new expressions over the frozen recorded state).
//! * [`SupervisedTarget`] — backend supervision: health probes, a
//!   three-state circuit breaker, pluggable reconnection with session
//!   resync, and degraded stale-read mode while the backend is down.
//! * [`ChaosTarget`] — the one fault-injection gate: counted faults
//!   from a [`FaultConfig`] (transient bursts, fail-every-N, poisoned
//!   pages, truncation, latency) and scriptable modes (kill / hang /
//!   garble campaigns with a deterministic seed), for robustness tests
//!   from retry up to the supervision stack.
//! * [`AsyncTarget`] — the I/O actor: moves the innermost backend onto
//!   a dedicated worker thread and adds non-blocking submit/poll for
//!   in-flight vectored reads, enabling double-buffered streaming
//!   prefetch (evaluate window *k* while window *k+1* is on the wire).

pub mod cache;
pub mod capture;
pub mod chaos;
pub mod error;
pub mod iface;
pub mod json;
pub mod meta;
pub mod metrics;
pub mod op;
pub mod pipeline;
pub mod record;
pub mod replay;
pub mod retry;
pub mod scenario;
pub mod sim;
pub mod span;
pub mod supervise;
pub mod trace;
pub mod value_io;

pub use cache::{CacheConfig, CacheStats, CachedTarget};
pub use capture::{
    Capture, CaptureCall, CaptureEvent, CaptureReply, SharedSink, CAPTURE_SCHEMA_VERSION,
};
pub use chaos::{ChaosAction, ChaosEvent, ChaosHandle, ChaosMode, ChaosTarget, FaultConfig};
pub use error::{TargetError, TargetResult};
pub use iface::{
    CallValue, FrameInfo, OwnedRange, PipelineTicket, PrefetchCompletion, ReadRange, Target,
    VarInfo, VarKind,
};
pub use meta::{MetaCapture, MetaSnapshot};
pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use op::{Layer, Op, Reply};
pub use pipeline::{AsyncTarget, PipelineHandle, PipelineStats};
pub use record::RecordTarget;
pub use replay::{Divergence, ReplayMode, ReplayTarget};
pub use retry::{RetryPolicy, RetryStats, RetryTarget};
pub use sim::{SimCore, SimMemory, SimTarget, ARENA_BASE};
pub use span::{
    attribution_coverage, chrome_trace_json, folded_stacks, FlameWeight, SpanContext, SpanKind,
    SpanRecord, SpanSnapshot, DEFAULT_SPAN_CAPACITY,
};
pub use supervise::{
    probe_read, CircuitState, ProbeReconnect, Reconnect, ResyncReport, StalenessHandle,
    SupervisedTarget, SupervisorConfig, SupervisorStats, DEFAULT_PROBE_ADDR,
};
pub use trace::{TraceEvent, TraceHandle, TraceOp, TraceOutcome, TraceStats, TraceTarget};
