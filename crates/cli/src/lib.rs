#![warn(missing_docs)]

//! The REPL engine behind the `duel` binary.
//!
//! Lines starting with `.` are debugger commands (`.help` lists them);
//! anything else is a DUEL expression, evaluated as the paper's
//! `gdb> duel expr`. [`Repl::handle`] processes one line and appends the
//! output to a `String`, which is what makes the command surface
//! testable without a terminal.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use duel_core::{DuelError, EvalOptions, EvalStats, Session, SymMode, Value};
use duel_minic::{Debugger, StopReason};
use duel_target::json::quote;
use duel_target::{
    chrome_trace_json, folded_stacks, scenario, AsyncTarget, CacheConfig, CachedTarget,
    ChaosHandle, ChaosTarget, FlameWeight, MetaCapture, MetaSnapshot, MetricsRegistry,
    MetricsSnapshot, Op, OwnedRange, PipelineTicket, RecordTarget, ReplayMode, ReplayTarget, Reply,
    RetryTarget, SimTarget, SpanContext, SpanSnapshot, SupervisedTarget, Target, TargetResult,
    TraceHandle, TraceStats, TraceTarget,
};

/// The REPL's decorator tower: tracing outermost (so its counters see
/// the evaluator's traffic, cache hits included), the backend
/// supervisor next (circuit breaker, degraded stale reads, reconnect —
/// it watches the *retried* failure stream, so one window entry per
/// operation), retry under it, the page cache over the flight recorder,
/// the recorder directly over the backend. Record sits *innermost* so a
/// capture holds the calls that actually reached the backend — cache
/// hits never hollow it out — and it is a pure passthrough until
/// `.record` arms it. Every backend sits under the same tower as a
/// [`Leaf`]; [`Repl`] reaches each layer through one getter.
type Tower = TraceTarget<Supervisor>;
type Supervisor = SupervisedTarget<Retry>;
type Retry = RetryTarget<Cache>;
type Cache = CachedTarget<Recorder>;
type Recorder = RecordTarget<Leaf>;

/// The backend at the bottom of the REPL's tower.
enum Leaf {
    /// Simulated debuggees carry a chaos gate innermost so `.chaos`
    /// can kill/hang/garble the "wire" under the whole tower, and an
    /// I/O actor ([`AsyncTarget`]) over the gate so `.set pipeline on`
    /// can move the wire onto a worker thread. The chaos handle is
    /// cached at construction: once the actor is live the gate itself
    /// is owned by the worker and unreachable from this thread (the
    /// handle is `Arc`-shared, so it still steers it).
    Sim(AsyncTarget<ChaosTarget<SimTarget>>, ChaosHandle),
    Minic(Debugger),
    Replay(ReplayTarget),
}

/// Evaluates `$body` with `$t` bound to whichever backend `$leaf` holds.
macro_rules! on_leaf {
    ($leaf:expr, $t:ident => $body:expr) => {
        match $leaf {
            Leaf::Sim($t, _) => $body,
            Leaf::Minic($t) => $body,
            Leaf::Replay($t) => $body,
        }
    };
}

impl Leaf {
    fn sim(t: SimTarget) -> Leaf {
        let gate = ChaosTarget::new(t);
        let chaos = gate.handle();
        Leaf::Sim(AsyncTarget::new(gate), chaos)
    }

    /// The backend label written into capture headers.
    fn label(&self) -> &'static str {
        match self {
            Leaf::Sim(..) => "sim",
            Leaf::Minic(_) => "minic",
            Leaf::Replay(_) => "replay",
        }
    }

    /// Moves the simulated backend's wire on or off the I/O actor
    /// thread. Returns `false` for backends without an actor layer:
    /// mini-C (the debugger needs direct access for `.run`/`.step`)
    /// and replay (a capture is consulted strictly in order, so an
    /// actor would buy nothing) stay inline.
    fn set_pipeline(&mut self, on: bool) -> bool {
        let Leaf::Sim(t, _) = self else {
            return false;
        };
        t.set_async(on);
        true
    }
}

/// Every op and plumbing call goes to whichever backend the leaf
/// holds: the op through one static dispatch, plumbing through
/// [`duel_target::Layer`]'s forwarding defaults, and the opt-in read
/// seam explicitly (the sim leaf's I/O actor answers it).
impl duel_target::Layer for Leaf {
    type Next = dyn Target;

    fn next(&self) -> &Self::Next {
        on_leaf!(self, t => t)
    }

    fn next_mut(&mut self) -> &mut Self::Next {
        on_leaf!(self, t => t)
    }

    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        on_leaf!(self, t => op.apply(t))
    }

    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        on_leaf!(self, t => Target::read_submit(t, ranges))
    }

    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        on_leaf!(self, t => Target::read_poll(t, ticket))
    }
}

/// Builds the REPL's tower over `leaf`, the page cache on or off.
fn tower(leaf: Leaf, cache: bool) -> Tower {
    let cache = CachedTarget::with_config(
        RecordTarget::new(leaf),
        CacheConfig {
            enabled: cache,
            ..CacheConfig::default()
        },
    );
    TraceTarget::with_label(SupervisedTarget::new(RetryTarget::new(cache)), "session")
}

/// The REPL engine: owns the debuggee backend, the DUEL aliases, and
/// the evaluation options; `handle` processes one input line and
/// appends its output to a sink, so the whole command surface is unit
/// testable.
pub struct Repl {
    tower: Tower,
    aliases: HashMap<String, Value>,
    options: EvalOptions,
    last_stats: EvalStats,
    cache_enabled: bool,
    /// Sticky `.trace on` state, reapplied when `.scenario`/`.load`
    /// replace the backend (and with it the trace handle).
    trace_enabled: bool,
    /// Sticky `.set degrade` state, reapplied when the backend (and
    /// with it the supervisor) is replaced.
    degrade_enabled: bool,
    /// Sticky `.set pipeline` state, reapplied on backend swaps.
    /// Backends without an actor layer (mini-C, replay) ignore it and
    /// stay inline; the flag survives so the next `.scenario` starts
    /// pipelined again.
    pipeline_enabled: bool,
    /// Sticky `.trace spans on|off` state, reapplied on backend swaps.
    spans_enabled: bool,
    /// Sticky `.set trace_buf N` ring capacity (trace events and span
    /// records), reapplied on backend swaps. `None` = library default.
    trace_buf: Option<usize>,
    /// Session-lifetime metrics registry: survives `.scenario`/`.load`/
    /// `.replay` (unlike the per-tower trace handle), fed with
    /// watermark deltas after every evaluated command, reset only by
    /// `.trace clear`.
    metrics: MetricsRegistry,
    /// Per-op (calls, errors, total_ns) totals at the previous
    /// watermark, so `feed_metrics` charges only this command's wire
    /// traffic. Cleared on backend swaps (the new handle starts at 0).
    wire_seen: HashMap<&'static str, (u64, u64, u64)>,
    /// Label of the current debuggee (scenario name or program path),
    /// written into capture headers by `.record`.
    scenario_label: String,
}

const HELP: &str = "\
DUEL commands:
  <expr>             evaluate a DUEL expression (try: x[..10] >? 5)
  .help              this message
  .scenario NAME     load a built-in debuggee: scan range hash full
                     violation lists tree argv combined
  .load FILE         compile FILE as mini-C and debug it
  .break N           set a breakpoint at line N
  .delete N          remove the breakpoint at line N
  .breaks            list breakpoints
  .run / .cont       run / continue the mini-C program
  .step              step one source line
  .watch EXPR        stop when the DUEL expression's values change
  .frames            show the stopped program's frames
  .ast EXPR          show the AST in the paper's LISP-like notation
  .stats             full tower counters: last evaluation, cache,
                     retry, supervision, target-call trace, recorder
  .stats json        the same counters plus live metrics as one
                     machine-readable JSON document
  .health            probe the backend; circuit and reconnect status
  .health reconnect  force a reconnect + session resync now
  .chaos CMD         fault-inject the sim backend: kill hang garble
                     revive, heal N, campaign SEED EVENTS SPAN
  .record FILE       start capturing every backend call to FILE
                     (JSONL; finalized by `.record stop` or exit)
  .record stop       finalize the capture; `.record` alone = status
  .replay FILE [strict|permissive]
                     serve the session from a capture instead of a
                     live backend (strict: exact recorded sequence,
                     permissive: new expressions over frozen state)
  .trace on|off      record every target call (latency, outcome)
  .trace spans on|off
                     causal span tracing: attribute every wire event
                     to the evaluator node that caused it
  .trace [dump [N]]  show per-op latency stats / the last N events
  .trace clear       reset trace counters, latency histograms, the
                     event buffer, the span ring, and live metrics
  .trace export FILE write a Chrome trace-event JSON of the span tree
                     and wire events (load in ui.perfetto.dev)
  .trace flame FILE [ns|reads]
                     write folded stacks weighted by wire latency or
                     backend reads (flamegraph.pl / speedscope input)
  .top               live view: hottest AST nodes (by exclusive span
                     time), wire ops, and busiest metric counters
  .query EXPR        evaluate a DUEL expression against a snapshot of
                     the debugger's own telemetry (roots: spans,
                     events, counters, hists, cache, breaker; e.g.
                     `.query events[..nevents].lat_ns >? 1000`)
  .profile EXPR      evaluate EXPR, then show per-node costs (ticks,
                     wire reads), hottest first
  .explain EXPR      evaluate EXPR, then show its AST annotated with
                     per-node costs
  .aliases           list DUEL aliases (`a := e`, declarations)
  .clear             drop all aliases
  .set trace on|off  log every generator resumption (the paper's eval)
  .set lazy|eager    symbolic-value construction (experiment E4)
  .set threshold N   `->a->a…` compression threshold (default 4)
  .set maxvalues N   value limit per command
  .set maxsteps N    step budget per command (also: --max-steps)
  .set maxdepth N    generator nesting budget (also: --max-depth)
  .set timeout N     per-command deadline in ms, 0 = off (--timeout-ms)
  .set errors tolerant|strict
                     render faults as <error: ...> values, or abort the
                     command at the first fault (default: tolerant)
  .set cache on|off  page-cache + lookup memoization over the debugger
                     wire (default: on; also: --no-cache)
  .set degrade on|off
                     while the circuit is open, serve reads from cache
                     tagged <stale> instead of failing (default: on)
  .set prefetch on|off
                     read-ahead over the page cache: a contiguous scan
                     (`x[a..b]`) reads one window of pages per call,
                     a `-->` over a ranged root reads level by level,
                     and with the pipeline on the next window is
                     submitted ahead; off issues every read as written
                     (default: on)
  .set pipeline on|off
                     asynchronous wire pipeline: run the backend on an
                     I/O actor thread, so while prefetch is on window
                     k+1 of a scan is on the wire while the evaluator
                     consumes window k (sim backend only; default:
                     off, sticky across `.scenario`)
  .set trace_buf N   capacity of the trace-event and span rings
                     (default 4096 events / 8192 spans; one entry
                     costs ~100-140 bytes, so 8192 spans ≈ 1 MiB)
  .quit              exit
";

/// Renders the hottest-spans / hottest-wire-ops / busiest-counters
/// tables shared by the live `.top` view and `duel-replay --top`.
/// `spans: None` skips the span table (the live view passes `None`
/// when span tracing is off, after printing its own hint); `limit`
/// bounds the span rows (wire ops and counters keep their fixed 6/8
/// budgets so the view stays one screen).
pub fn render_top_report(
    spans: Option<&SpanSnapshot>,
    trace: &TraceStats,
    metrics: &MetricsSnapshot,
    limit: usize,
    out: &mut String,
) {
    if let Some(snap) = spans {
        let agg = snap.aggregate();
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>10} {:>10}  node",
            "kind", "count", "self", "total"
        );
        for row in agg.iter().take(limit) {
            let _ = writeln!(
                out,
                "  {:<10} {:>6} {:>10} {:>10}  {}{}",
                row.kind.name(),
                row.count,
                duel_target::trace::fmt_ns(row.self_ns),
                duel_target::trace::fmt_ns(row.total_ns),
                row.name,
                if row.detail.is_empty() {
                    String::new()
                } else {
                    format!(" {}", row.detail)
                }
            );
        }
    }
    let mut ops: Vec<_> = trace.ops.iter().filter(|o| o.calls > 0).collect();
    ops.sort_by_key(|o| std::cmp::Reverse(o.total_ns));
    if !ops.is_empty() {
        let _ = writeln!(out, "  wire ops by total latency:");
        for o in ops.iter().take(6) {
            let _ = writeln!(
                out,
                "    {:<13} {:>8} calls {:>6} errors  total {:>8}  p99 {:>8}",
                o.op.name(),
                o.calls,
                o.errors,
                duel_target::trace::fmt_ns(o.total_ns),
                duel_target::trace::fmt_ns(o.quantile_ns(0.99))
            );
        }
    }
    let mut counters = metrics.counters.clone();
    counters.sort_by_key(|c| std::cmp::Reverse(c.1));
    if counters.is_empty() {
        let _ = writeln!(out, "  no metrics yet (evaluate something first)");
    } else {
        let _ = writeln!(out, "  busiest counters:");
        for (name, v) in counters.iter().take(8) {
            let _ = writeln!(out, "    {name:<28} {v}");
        }
    }
}

impl Repl {
    /// Creates a REPL over the combined built-in scenario.
    pub fn new() -> Repl {
        Repl::with_options(Repl::default_options())
    }

    /// Creates a REPL with explicit evaluation options (the binary
    /// feeds the `--max-steps`/`--max-depth`/`--timeout-ms` flags
    /// through here).
    pub fn with_options(options: EvalOptions) -> Repl {
        Repl::with_config(options, true)
    }

    /// Creates a REPL with explicit options and an initial caching
    /// state (`--no-cache` passes `cache_enabled = false`).
    pub fn with_config(options: EvalOptions, cache_enabled: bool) -> Repl {
        Repl {
            tower: tower(Leaf::sim(scenario::combined()), cache_enabled),
            aliases: HashMap::new(),
            options,
            last_stats: EvalStats::default(),
            cache_enabled,
            trace_enabled: false,
            degrade_enabled: true,
            pipeline_enabled: false,
            spans_enabled: false,
            trace_buf: None,
            metrics: MetricsRegistry::new(),
            wire_seen: HashMap::new(),
            scenario_label: "combined".into(),
        }
    }

    fn supervisor(&self) -> &Supervisor {
        self.tower.inner()
    }

    fn supervisor_mut(&mut self) -> &mut Supervisor {
        self.tower.inner_mut()
    }

    fn retry(&self) -> &Retry {
        self.supervisor().inner()
    }

    fn retry_mut(&mut self) -> &mut Retry {
        self.supervisor_mut().inner_mut()
    }

    fn cache(&self) -> &Cache {
        self.retry().inner()
    }

    fn cache_mut(&mut self) -> &mut Cache {
        self.retry_mut().inner_mut()
    }

    fn recorder(&self) -> &Recorder {
        self.cache().inner()
    }

    fn recorder_mut(&mut self) -> &mut Recorder {
        self.cache_mut().inner_mut()
    }

    fn leaf(&self) -> &Leaf {
        self.recorder().inner()
    }

    fn leaf_mut(&mut self) -> &mut Leaf {
        self.recorder_mut().inner_mut()
    }

    /// The replay target, when this session is a replay.
    fn replay(&self) -> Option<&ReplayTarget> {
        match self.leaf() {
            Leaf::Replay(r) => Some(r),
            _ => None,
        }
    }

    /// Replaces the backend (`.scenario`, `.load`, `.replay`): finalizes
    /// any recording on the old tower, builds the new one, reapplies
    /// every sticky setting and clears the aliases. `label` renames the
    /// debuggee for capture headers; `None` keeps the current name.
    fn swap(&mut self, leaf: Leaf, label: Option<&str>, out: &mut String) {
        if self.recorder().is_recording() {
            match self.recorder_mut().stop() {
                Ok(n) => {
                    let _ = writeln!(out, "recording finalized ({n} events): backend replaced");
                }
                Err(e) => {
                    let _ = writeln!(out, "recording lost: {e}");
                }
            }
        }
        self.tower = tower(leaf, self.cache_enabled);
        self.set_tracing(self.trace_enabled);
        self.set_degrade(self.degrade_enabled);
        self.set_pipeline(self.pipeline_enabled);
        self.set_span_tracing(self.spans_enabled);
        if let Some(n) = self.trace_buf {
            self.set_trace_buf(n);
        }
        // The new trace handle counts from zero, so stale watermarks
        // would produce negative deltas.
        self.wire_seen.clear();
        self.aliases.clear();
        if let Some(label) = label {
            self.scenario_label = label.to_string();
        }
    }

    /// The span context of the current tower (`--trace-perfetto`
    /// exports from it at exit; replaced by `.scenario`/`.load`).
    pub fn span_context(&self) -> SpanContext {
        self.tower.spans()
    }

    /// Turns causal span tracing on or off (the `.trace spans on|off`
    /// command; sticky across backend swaps). Spans also require the
    /// event trace to be useful in exports, but are independent of it.
    pub fn set_span_tracing(&mut self, on: bool) {
        self.spans_enabled = on;
        self.tower.spans().set_enabled(on);
    }

    /// The session's live metrics registry (`.top` and `.stats json`
    /// read it; survives backend swaps).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Charges the just-finished command to the always-on metrics
    /// registry: evaluator counters from `last_stats`, wire traffic as
    /// a delta against the previous watermark of the trace handle's
    /// per-op totals.
    fn feed_metrics(&mut self) {
        let s = &self.last_stats;
        let m = &self.metrics;
        m.counter("eval.commands").inc();
        m.counter("eval.values").add(s.values);
        m.counter("eval.ticks").add(s.ticks);
        m.counter("eval.yields").add(s.yields);
        m.counter("eval.expansions").add(s.expansions);
        m.counter("eval.stale_values").add(s.stale_values);
        m.counter("eval.prefetch_calls").add(s.prefetch_calls);
        m.counter("eval.windows_planned").add(s.windows_planned);
        m.counter("eval.windows_inflight").add(s.windows_inflight);
        m.counter("eval.pipeline_overlap_ns")
            .add(s.pipeline_overlap_ns);
        m.histogram("eval.ticks_per_command").observe(s.ticks);
        m.histogram("eval.values_per_command").observe(s.values);
        let snap = self.tower.handle().snapshot();
        let mut wire_ns = 0u64;
        let mut wire_calls = 0u64;
        for o in &snap.ops {
            let prev = self
                .wire_seen
                .insert(o.op.name(), (o.calls, o.errors, o.total_ns))
                .unwrap_or((0, 0, 0));
            let calls = o.calls.saturating_sub(prev.0);
            let errors = o.errors.saturating_sub(prev.1);
            let ns = o.total_ns.saturating_sub(prev.2);
            m.charge_wire(o.op.name(), calls, errors, ns);
            wire_ns += ns;
            wire_calls += calls;
        }
        if wire_calls > 0 {
            m.histogram("wire.calls_per_command").observe(wire_calls);
            m.histogram("wire.ns_per_command").observe(wire_ns);
        }
    }

    /// The target-call trace handle of the current backend tower (the
    /// `--trace-json` exporter reads it; replaced by `.scenario`/`.load`).
    pub fn trace_handle(&self) -> TraceHandle {
        self.tower.handle()
    }

    /// The chaos gate of the simulated backend (`None` for mini-C and
    /// replay sessions). Lets test harnesses script fault campaigns
    /// against the full tower without going through `.chaos` text
    /// commands.
    pub fn chaos_handle(&self) -> Option<ChaosHandle> {
        match self.leaf() {
            Leaf::Sim(_, chaos) => Some(chaos.clone()),
            _ => None,
        }
    }

    /// Moves the wire on or off the I/O actor thread (the
    /// `.set pipeline on|off` command; sticky across `.scenario`).
    /// Returns whether the current backend actually has an actor
    /// layer — mini-C and replay sessions stay inline.
    pub fn set_pipeline(&mut self, on: bool) -> bool {
        self.pipeline_enabled = on;
        self.leaf_mut().set_pipeline(on)
    }

    /// Turns degraded stale reads on or off (the `.set degrade on|off`
    /// command; sticky across backend swaps).
    fn set_degrade(&mut self, on: bool) {
        self.degrade_enabled = on;
        self.supervisor_mut().set_degrade(on);
    }

    /// Turns target-call tracing on or off (the `.trace on|off`
    /// command; sticky across `.scenario`/`.load`).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace_enabled = on;
        self.tower.handle().set_enabled(on);
    }

    /// Exports the trace as a JSON document (the `--trace-json FILE`
    /// flag writes this at exit). The envelope follows the shared
    /// `schema_version`/`name`/`config`/`metrics` convention used by
    /// the bench reports and capture files.
    pub fn trace_json(&self) -> String {
        format!(
            "{{\"schema_version\":1,\"name\":\"duel_trace\",\
             \"config\":{{\"backend\":\"{}\",\"scenario\":{},\"cache\":{}}},\
             \"metrics\":{{\"layers\":[{}]}}}}",
            self.leaf().label(),
            quote(&self.scenario_label),
            self.cache_enabled,
            self.tower.handle().to_json("session")
        )
    }

    /// Resizes the trace-event and span rings (the `--trace-buf N`
    /// flag and `.set trace_buf N`; sticky across backend swaps).
    pub fn set_trace_buf(&mut self, n: usize) {
        self.trace_buf = Some(n);
        self.tower.handle().set_capacity(n);
        self.tower.spans().set_capacity(n);
    }

    /// The Chrome trace-event JSON of the current span tree and wire
    /// events (the `--trace-perfetto FILE` flag writes this at exit;
    /// loadable in ui.perfetto.dev).
    pub fn perfetto_json(&self) -> String {
        chrome_trace_json(
            &self.tower.spans().snapshot(),
            &self.tower.handle().recent_events(usize::MAX),
        )
    }

    /// The `.stats json` document: every tower counter in one
    /// machine-readable dump, using the shared
    /// `schema_version`/`name`/`config`/`metrics` envelope that bench
    /// reports, capture files, and `--trace-json` all follow.
    pub fn stats_json(&self) -> String {
        let c = self.cache().stats();
        let r = self.retry().stats();
        let sup = self.supervisor().stats();
        let t = self.tower.handle().snapshot();
        let spans = self.tower.spans().snapshot();
        let s = &self.last_stats;
        let mut members = vec![
            format!("\"eval_values\":{}", s.values),
            format!("\"eval_ticks\":{}", s.ticks),
            format!("\"eval_max_depth\":{}", s.max_depth),
            format!("\"eval_expansions\":{}", s.expansions),
            format!("\"eval_yields\":{}", s.yields),
            format!("\"eval_stale_values\":{}", s.stale_values),
            format!("\"eval_trace_id\":{}", s.trace_id),
            format!("\"eval_windows_planned\":{}", s.windows_planned),
            format!("\"eval_windows_inflight\":{}", s.windows_inflight),
            format!("\"eval_pipeline_overlap_ns\":{}", s.pipeline_overlap_ns),
            format!("\"cache_page_hits\":{}", c.page_hits),
            format!("\"cache_page_misses\":{}", c.page_misses),
            format!("\"cache_pages_prefetched\":{}", c.pages_prefetched),
            format!("\"cache_backend_reads\":{}", c.backend_reads),
            format!("\"cache_wire_bytes\":{}", c.wire_bytes),
            format!("\"retry_operations\":{}", r.operations),
            format!("\"retry_retries\":{}", r.retries),
            format!("\"retry_give_ups\":{}", r.give_ups),
            format!("\"supervise_trips\":{}", sup.trips),
            format!("\"supervise_reconnects\":{}", sup.reconnects),
            format!("\"supervise_fast_fails\":{}", sup.fast_fails),
            format!("\"supervise_stale_reads\":{}", sup.stale_reads),
            format!("\"trace_calls\":{}", t.total_calls()),
            format!("\"trace_errors\":{}", t.total_errors()),
            format!("\"trace_events_held\":{}", t.events_held),
            format!("\"trace_events_dropped\":{}", t.events_dropped),
            format!("\"spans_buffered\":{}", spans.spans.len()),
            format!("\"spans_open\":{}", spans.open.len()),
            format!("\"spans_dropped\":{}", spans.dropped),
        ];
        if let Some(p) = self.tower.pipeline_handle().map(|h| h.stats()) {
            members.push(format!("\"pipeline_async\":{}", p.async_on));
            members.push(format!("\"pipeline_submits\":{}", p.submits));
            members.push(format!("\"pipeline_completions\":{}", p.completions));
            members.push(format!("\"pipeline_actor_overlap_ns\":{}", p.overlap_ns));
            members.push(format!(
                "\"pipeline_max_queue_depth\":{}",
                p.max_queue_depth
            ));
        }
        let registry = self.metrics.snapshot().to_json_members();
        if !registry.is_empty() {
            members.push(registry);
        }
        format!(
            "{{\"schema_version\":1,\"name\":\"duel_stats\",\
             \"config\":{{\"backend\":\"{}\",\"scenario\":{},\"cache\":{},\
             \"prefetch\":{},\"pipeline\":{},\"degrade\":{},\"trace\":{},\"spans\":{},\
             \"trace_buf\":{},\"span_buf\":{}}},\
             \"metrics\":{{{}}}}}",
            self.leaf().label(),
            quote(&self.scenario_label),
            self.cache_enabled,
            self.options.prefetch,
            self.pipeline_enabled,
            self.degrade_enabled,
            self.trace_enabled,
            self.spans_enabled,
            self.tower.handle().capacity(),
            self.tower.spans().capacity(),
            members.join(",")
        )
    }

    /// Renders the `.top` live view: hottest AST nodes by exclusive
    /// span time, hottest wire ops, and the busiest registry counters.
    /// The tables themselves are sugar over canonical `.query`
    /// meta-queries (documented side by side in docs/LANGUAGE.md);
    /// the shared renderer also serves `duel-replay --top`.
    fn render_top(&self, out: &mut String) {
        let _ = writeln!(out, "top — hottest since `.trace clear`");
        let spans = if self.spans_enabled {
            Some(self.tower.spans().snapshot())
        } else {
            let _ = writeln!(
                out,
                "  (span tracing is off — `.trace spans on` to rank AST nodes)"
            );
            None
        };
        render_top_report(
            spans.as_ref(),
            &self.tower.handle().snapshot(),
            &self.metrics.snapshot(),
            10,
            out,
        );
        let _ = writeln!(
            out,
            "  (each table generalizes to `.query` — try \
             `.query spans[..nspans].self_ns`)"
        );
    }

    /// Freezes every telemetry source of the session into one
    /// [`MetaSnapshot`]: the span and wire-event rings, the live
    /// metrics registry, cache/retry/supervision counters, and the
    /// replayed capture's identity when the session is offline. The
    /// snapshot is a copy — `.query` evaluates against it without
    /// touching the debuggee or the tower.
    pub fn meta_snapshot(&self) -> MetaSnapshot {
        MetaSnapshot {
            spans: self.tower.spans().snapshot(),
            events: self.tower.handle().recent_events(usize::MAX),
            metrics: self.metrics.snapshot(),
            cache: self.cache().stats().clone(),
            resident_pages: self.cache().resident_page_count() as u64,
            retry: self.retry().stats(),
            supervise: self.supervisor().stats(),
            circuit: self.supervisor().state(),
            capture: self.replay().map(|r| MetaCapture {
                backend: r.backend_label().to_string(),
                scenario: r.scenario_label().to_string(),
                events: r.wire_events() as u64,
            }),
        }
    }

    /// The `.query EXPR` body: one-shot DUEL evaluation against a
    /// fresh [`MetaSnapshot::image`] of [`Repl::meta_snapshot`].
    /// Deliberately bypasses `feed_metrics` and the op deadline — a
    /// meta-query must perturb neither the metrics it inspects nor
    /// the debuggee tower.
    fn meta_query(&mut self, expr: &str, out: &mut String) {
        let mut meta = self.meta_snapshot().image();
        let (lines, err) = duel_core::oneshot_lines(&mut meta, expr, &self.options);
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
        if let Some(e) = err {
            let _ = writeln!(out, "{e}");
        }
    }

    /// The REPL's default options: like [`EvalOptions::default`], but
    /// fault-tolerant — an unreadable element of a stream prints as
    /// `<error: ...>` and the session keeps going, since an interactive
    /// debugging session should not lose the rest of a scan to one bad
    /// pointer.
    pub fn default_options() -> EvalOptions {
        EvalOptions {
            error_values: true,
            ..EvalOptions::default()
        }
    }

    /// The wall-clock deadline for the next command, derived from
    /// `.set timeout`; armed on the retry layer so backoff sleeps are
    /// clamped against the same budget the evaluator enforces.
    fn arm_op_deadline(&mut self) {
        let deadline = if self.options.timeout_ms > 0 {
            Some(Instant::now() + Duration::from_millis(self.options.timeout_ms))
        } else {
            None
        };
        self.retry_mut().set_op_deadline(deadline);
    }

    fn eval(&mut self, line: &str, out: &mut String) {
        self.arm_op_deadline();
        let session = Session::with_state(
            &mut self.tower,
            std::mem::take(&mut self.aliases),
            self.options.clone(),
        );
        let mut session = session;
        match session.eval_partial(line) {
            Ok((lines, err)) => {
                for l in duel_core::session::render_lines(&lines) {
                    let _ = writeln!(out, "{l}");
                }
                if let Some(e) = err {
                    let _ = writeln!(out, "{e}");
                }
            }
            Err(e) => {
                let _ = writeln!(out, "{e}");
            }
        }
        self.last_stats = session.last_stats();
        for line in session.take_trace() {
            let _ = writeln!(out, "| {line}");
        }
        self.aliases = session.into_aliases();
        self.retry_mut().set_op_deadline(None);
        self.feed_metrics();
    }

    /// Shared body of `.profile` (cost table) and `.explain` (annotated
    /// AST tree): evaluates under the profiler, prints the values, then
    /// the per-node costs.
    fn profile(&mut self, explain: bool, expr: &str, out: &mut String) {
        self.arm_op_deadline();
        let mut session = Session::with_state(
            &mut self.tower,
            std::mem::take(&mut self.aliases),
            self.options.clone(),
        );
        match session.profile(expr) {
            Ok((lines, err, report)) => {
                for l in duel_core::session::render_lines(&lines) {
                    let _ = writeln!(out, "{l}");
                }
                if let Some(e) = err {
                    let _ = writeln!(out, "{e}");
                }
                if explain {
                    out.push_str(&report.render_tree());
                } else {
                    out.push_str(&report.render_table(12));
                }
            }
            Err(e) => {
                let _ = writeln!(out, "{e}");
            }
        }
        self.last_stats = session.last_stats();
        self.aliases = session.into_aliases();
        self.retry_mut().set_op_deadline(None);
        self.feed_metrics();
    }

    fn command(&mut self, line: &str, out: &mut String) -> bool {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("");
        match cmd {
            ".quit" | ".q" | ".exit" => return false,
            ".help" | ".h" => out.push_str(HELP),
            ".scenario" => {
                let t = match arg {
                    "scan" => Some(scenario::scan_array()),
                    "range" => Some(scenario::range_array()),
                    "hash" => Some(scenario::hash_table_basic()),
                    "full" => Some(scenario::hash_table_full()),
                    "violation" => Some(scenario::hash_table_sorted_violation()),
                    "lists" => Some(scenario::linked_lists()),
                    "tree" => Some(scenario::binary_tree()),
                    "argv" => Some(scenario::argv_strings()),
                    "combined" | "" => Some(scenario::combined()),
                    other => {
                        let _ = writeln!(out, "unknown scenario `{other}`");
                        None
                    }
                };
                if let Some(t) = t {
                    let label = if arg.is_empty() { "combined" } else { arg };
                    self.swap(Leaf::sim(t), Some(label), out);
                    let _ = writeln!(out, "scenario loaded; aliases cleared");
                }
            }
            ".load" => match std::fs::read_to_string(arg) {
                Ok(src) => match Debugger::new(&src) {
                    Ok(d) => {
                        self.swap(Leaf::Minic(d), Some(arg), out);
                        let _ = writeln!(out, "compiled `{arg}`; set breakpoints and .run");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "compile error: {e}");
                    }
                },
                Err(e) => {
                    let _ = writeln!(out, "cannot read `{arg}`: {e}");
                }
            },
            ".break" | ".delete" | ".breaks" | ".run" | ".cont" | ".step" | ".frames"
            | ".watch" => {
                let rest = line.split_once(' ').map(|x| x.1).unwrap_or("").to_string();
                self.debugger_command(cmd, if cmd == ".watch" { &rest } else { arg }, out)
            }
            ".ast" => {
                let expr = line.split_once(' ').map(|x| x.1).unwrap_or("");
                let mut session = Session::with_state(
                    &mut self.tower,
                    std::mem::take(&mut self.aliases),
                    self.options.clone(),
                );
                match session.parse(expr) {
                    Ok(ast) => {
                        let _ = writeln!(out, "{}", duel_core::to_sexpr(&ast));
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{e}");
                    }
                }
                self.aliases = session.into_aliases();
            }
            ".top" => self.render_top(out),
            ".query" => {
                let expr = line.split_once(' ').map(|x| x.1).unwrap_or("").trim();
                if expr.is_empty() {
                    let _ = writeln!(
                        out,
                        "usage: .query EXPR — DUEL over the debugger's own telemetry\n\
                         roots: spans[..nspans] events[..nevents] counters[..ncounters]\n\
                         \x20      hists[..nhists] cache breaker (see docs/LANGUAGE.md)"
                    );
                } else {
                    self.meta_query(expr, out);
                }
            }
            ".stats" if arg == "json" => {
                let _ = writeln!(out, "{}", self.stats_json());
            }
            ".stats" => {
                let _ = writeln!(
                    out,
                    "eval: {} values, {} ticks, depth {}, {} expansions, {} yields{}",
                    self.last_stats.values,
                    self.last_stats.ticks,
                    self.last_stats.max_depth,
                    self.last_stats.expansions,
                    self.last_stats.yields,
                    if self.last_stats.stale_values > 0 {
                        format!(", {} stale", self.last_stats.stale_values)
                    } else {
                        String::new()
                    }
                );
                let c = self.cache().stats();
                let _ = writeln!(
                    out,
                    "cache: {} ({} page hits, {} misses, {} prefetched, {} backend reads, {} bytes over the wire)",
                    if self.cache_enabled { "on" } else { "off" },
                    c.page_hits,
                    c.page_misses,
                    c.pages_prefetched,
                    c.backend_reads,
                    c.wire_bytes
                );
                let _ = writeln!(
                    out,
                    "lookups: {} memoized, {} fetched; {} invalidations",
                    c.lookup_hits, c.lookup_misses, c.invalidations
                );
                let _ = writeln!(
                    out,
                    "prefetch: {} ({} warm-ups, {} ranges warmed; {} vectored turns on the wire)",
                    if self.options.prefetch { "on" } else { "off" },
                    self.last_stats.prefetch_calls,
                    self.last_stats.prefetch_ranges,
                    self.tower.handle().calls(duel_target::TraceOp::MultiRead)
                );
                match self.tower.pipeline_handle().map(|h| h.stats()) {
                    Some(p) => {
                        let _ = writeln!(
                            out,
                            "pipeline: {} ({} windows planned, {} submitted ahead, \
                             overlap {}; actor: {} submits, {} completions, depth\u{2264}{})",
                            match (p.async_on, self.recorder().is_recording()) {
                                // A recorder takes no window ahead.
                                (true, true) => "on, recording: no window submitted ahead",
                                (true, false) => "on",
                                (false, _) => "off",
                            },
                            self.last_stats.windows_planned,
                            self.last_stats.windows_inflight,
                            duel_target::trace::fmt_ns(self.last_stats.pipeline_overlap_ns),
                            p.submits,
                            p.completions,
                            p.max_queue_depth
                        );
                    }
                    None => {
                        let _ =
                            writeln!(out, "pipeline: unavailable (this backend has no I/O actor)");
                    }
                }
                let r = self.retry().stats();
                let _ = writeln!(
                    out,
                    "retry: {} operations, {} retries, {} give-ups, {} backoff",
                    r.operations,
                    r.retries,
                    r.give_ups,
                    duel_target::trace::fmt_ns(r.backoff_ns)
                );
                let sup = self.supervisor();
                let s = sup.stats();
                let _ = writeln!(
                    out,
                    "supervise: circuit {}; {} ops, {} failures, {} trips, {} reconnects, \
                     {} fast-fails, {} stale reads; degrade {}",
                    sup.state().name(),
                    s.operations,
                    s.failures,
                    s.trips,
                    s.reconnects,
                    s.fast_fails,
                    s.stale_reads,
                    if sup.config().degrade { "on" } else { "off" }
                );
                let h = self.tower.handle();
                let t = h.snapshot();
                let _ = writeln!(
                    out,
                    "trace: {} ({} calls recorded, {} errors, {} events buffered, {} dropped)",
                    if h.is_enabled() { "on" } else { "off" },
                    t.total_calls(),
                    t.total_errors(),
                    t.events_held,
                    t.events_dropped
                );
                match self.replay() {
                    Some(r) => {
                        let _ = writeln!(out, "replay: {}", replay_status(r));
                    }
                    None => {
                        let rec = self.recorder();
                        let _ = writeln!(
                            out,
                            "record: {}{}",
                            if rec.is_recording() {
                                format!("on ({} events captured)", rec.events_recorded())
                            } else {
                                "off".to_string()
                            },
                            rec.last_error()
                                .map(|e| format!(" [{e}]"))
                                .unwrap_or_default()
                        );
                    }
                }
            }
            ".health" => match arg {
                "reconnect" => match self.supervisor_mut().force_reconnect() {
                    Ok(r) => {
                        let _ = writeln!(out, "reconnected; {}", r.render());
                    }
                    Err(e) => {
                        let _ = writeln!(out, "reconnect failed: {e}");
                    }
                },
                "" => {
                    // A replay answers only the calls it captured: a
                    // probe would diverge it for good, so report the
                    // replay's state instead.
                    let health = match self.replay() {
                        Some(r) => format!("replay backend, not probed: {}", replay_status(r)),
                        None => match self.supervisor_mut().health_check() {
                            Ok(()) => "backend healthy".to_string(),
                            Err(e) => format!("backend unhealthy: {e}"),
                        },
                    };
                    let sup = self.supervisor();
                    let _ = writeln!(out, "{health}; circuit {}", sup.state().name());
                    let s = sup.stats();
                    let _ = writeln!(
                        out,
                        "probes: {} ({} failed); trips: {}; reconnects: {} ({} failed)",
                        s.probes, s.probe_failures, s.trips, s.reconnects, s.reconnect_failures
                    );
                    if let Some(f) = sup.last_failure() {
                        let _ = writeln!(out, "last failure: {f}");
                    }
                    if let Some(r) = sup.last_resync() {
                        let _ = writeln!(out, "last {}", r.render());
                    }
                }
                other => {
                    let _ = writeln!(out, "usage: .health [reconnect] (got `{other}`)");
                }
            },
            ".chaos" => match self.chaos_handle() {
                None => {
                    let _ = writeln!(out, "chaos: only the simulated backend has a chaos gate");
                }
                Some(h) => match arg {
                    "" => {
                        let _ = writeln!(
                            out,
                            "chaos: mode {}, {} ops gated, {} faults injected",
                            h.mode().name(),
                            h.ops(),
                            h.injected()
                        );
                    }
                    "kill" => {
                        h.kill();
                        let _ = writeln!(out, "chaos: backend killed");
                    }
                    "hang" => {
                        h.hang();
                        let _ = writeln!(out, "chaos: backend hung");
                    }
                    "garble" => {
                        h.garble();
                        let _ = writeln!(out, "chaos: backend garbling replies");
                    }
                    "revive" => {
                        h.revive();
                        let _ = writeln!(out, "chaos: backend revived");
                    }
                    "heal" => match line.split_whitespace().nth(2).and_then(|v| v.parse().ok()) {
                        Some(n) => {
                            h.heal_after(n);
                            let _ = writeln!(out, "chaos: healing after {n} more ops");
                        }
                        None => {
                            let _ = writeln!(out, "usage: .chaos heal N");
                        }
                    },
                    "campaign" => {
                        let mut nums = line
                            .split_whitespace()
                            .skip(2)
                            .map(|v| v.parse::<u64>().ok());
                        match (
                            nums.next().flatten(),
                            nums.next().flatten(),
                            nums.next().flatten(),
                        ) {
                            (Some(seed), Some(events), Some(span)) => {
                                let script = h.campaign(seed, events as usize, span);
                                let _ = writeln!(
                                    out,
                                    "chaos: campaign of {} events over {span} ops (seed {seed})",
                                    script.len()
                                );
                                for e in script {
                                    let _ = writeln!(out, "  op {:>6}: {:?}", e.at_op, e.action);
                                }
                            }
                            _ => {
                                let _ = writeln!(out, "usage: .chaos campaign SEED EVENTS SPAN");
                            }
                        }
                    }
                    other => {
                        let _ = writeln!(
                            out,
                            "usage: .chaos [kill|hang|garble|revive|heal N|\
                             campaign SEED EVENTS SPAN] (got `{other}`)"
                        );
                    }
                },
            },
            ".trace" => {
                let h = self.tower.handle();
                match arg {
                    "on" => {
                        self.set_tracing(true);
                        let _ = writeln!(out, "tracing on");
                    }
                    "off" => {
                        self.set_tracing(false);
                        let _ = writeln!(out, "tracing off");
                    }
                    "clear" => {
                        // One reset story: counters, latency histograms,
                        // the event ring, the span ring, and the live
                        // metrics registry all clear together — no view
                        // may keep serving pre-clear latency buckets.
                        h.clear();
                        self.tower.spans().clear();
                        self.metrics.clear();
                        self.wire_seen.clear();
                        let _ = writeln!(out, "trace cleared");
                    }
                    "spans" => {
                        match line.split_whitespace().nth(2) {
                            Some("on") => {
                                self.set_span_tracing(true);
                                let _ = writeln!(out, "span tracing on");
                            }
                            Some("off") => {
                                self.set_span_tracing(false);
                                let _ = writeln!(out, "span tracing off");
                            }
                            _ => {
                                let s = self.tower.spans().snapshot();
                                let _ = writeln!(
                                    out,
                                    "span tracing {}; {} spans buffered, {} open, {} dropped",
                                    if self.spans_enabled { "on" } else { "off" },
                                    s.spans.len(),
                                    s.open.len(),
                                    s.dropped
                                );
                            }
                        };
                    }
                    "export" => {
                        let file = line.split_whitespace().nth(2).unwrap_or("");
                        if file.is_empty() {
                            let _ = writeln!(out, "usage: .trace export FILE");
                        } else {
                            let snap = self.tower.spans().snapshot();
                            let events = h.recent_events(usize::MAX);
                            let json = chrome_trace_json(&snap, &events);
                            match std::fs::write(file, json) {
                                Ok(()) => {
                                    let _ = writeln!(
                                        out,
                                        "trace exported to `{file}` ({} spans, {} events; \
                                         load in ui.perfetto.dev)",
                                        snap.len(),
                                        events.len()
                                    );
                                }
                                Err(e) => {
                                    let _ = writeln!(out, "cannot write `{file}`: {e}");
                                }
                            }
                        }
                    }
                    "flame" => {
                        let file = line.split_whitespace().nth(2).unwrap_or("");
                        let weight = match line.split_whitespace().nth(3) {
                            None | Some("ns") => Some(FlameWeight::WireNs),
                            Some("reads") => Some(FlameWeight::WireReads),
                            Some(other) => {
                                let _ =
                                    writeln!(out, "unknown flame weight `{other}` (ns or reads)");
                                None
                            }
                        };
                        if file.is_empty() {
                            let _ = writeln!(out, "usage: .trace flame FILE [ns|reads]");
                        } else if let Some(weight) = weight {
                            let snap = self.tower.spans().snapshot();
                            let events = h.recent_events(usize::MAX);
                            let folded = folded_stacks(&snap, &events, weight);
                            match std::fs::write(file, &folded) {
                                Ok(()) => {
                                    let _ = writeln!(
                                        out,
                                        "folded stacks written to `{file}` ({} lines; \
                                         feed to flamegraph.pl or speedscope)",
                                        folded.lines().count()
                                    );
                                }
                                Err(e) => {
                                    let _ = writeln!(out, "cannot write `{file}`: {e}");
                                }
                            }
                        }
                    }
                    "dump" => {
                        let n = line
                            .split_whitespace()
                            .nth(2)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(20);
                        let events = h.recent_events(n);
                        if events.is_empty() {
                            let _ = writeln!(
                                out,
                                "no events recorded{}",
                                if h.is_enabled() {
                                    ""
                                } else {
                                    " (tracing is off)"
                                }
                            );
                        }
                        for e in events {
                            let _ = writeln!(out, "{}", e.render());
                        }
                    }
                    "" => {
                        let t = h.snapshot();
                        let _ = writeln!(
                            out,
                            "tracing {}; {} calls recorded, {} events buffered",
                            if h.is_enabled() { "on" } else { "off" },
                            t.total_calls(),
                            t.events_held
                        );
                        for o in t.ops.iter().filter(|o| o.calls > 0) {
                            let _ = writeln!(
                                out,
                                "  {:<13} {:>8} calls {:>6} errors  mean {:>8}  p99 {:>8}",
                                o.op.name(),
                                o.calls,
                                o.errors,
                                duel_target::trace::fmt_ns(o.mean_ns()),
                                duel_target::trace::fmt_ns(o.quantile_ns(0.99))
                            );
                        }
                    }
                    other => {
                        let _ = writeln!(
                            out,
                            "usage: .trace [on|off|spans on|off|dump [N]|clear|\
                             export FILE|flame FILE [ns|reads]] (got `{other}`)"
                        );
                    }
                }
            }
            ".record" => match arg {
                "" => {
                    let rec = self.recorder();
                    if let Some(e) = rec.last_error() {
                        let _ = writeln!(out, "recording stopped: {e}");
                    } else if rec.is_recording() {
                        let _ =
                            writeln!(out, "recording ({} events captured)", rec.events_recorded());
                    } else {
                        let _ = writeln!(out, "not recording (use `.record FILE`)");
                    }
                }
                "stop" => match self.recorder_mut().stop() {
                    Ok(0) => {
                        let _ = writeln!(out, "not recording");
                    }
                    Ok(n) => {
                        let _ = writeln!(out, "capture finalized ({n} events)");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "cannot finalize capture: {e}");
                    }
                },
                path => {
                    // The capture starts cold: a capture that begins
                    // against a warm cache would be missing the reads a
                    // cold replay re-issues.
                    self.cache_mut().invalidate_all();
                    let (label, scenario) = (self.leaf().label(), self.scenario_label.clone());
                    match self.recorder_mut().start_file(path, label, &scenario) {
                        Ok(()) => {
                            let _ = writeln!(out, "recording to `{path}`");
                        }
                        Err(e) => {
                            let _ = writeln!(out, "cannot record to `{path}`: {e}");
                        }
                    }
                }
            },
            ".replay" => {
                if arg.is_empty() {
                    match self.replay() {
                        None => {
                            let _ = writeln!(out, "usage: .replay FILE [strict|permissive]");
                        }
                        Some(r) => {
                            let _ = writeln!(
                                out,
                                "replaying `{}` capture of scenario `{}` ({:?}, {}/{} events consumed)",
                                r.backend_label(),
                                r.scenario_label(),
                                r.mode(),
                                r.events_consumed(),
                                r.events_total()
                            );
                            if let Some(d) = r.divergence() {
                                let _ = writeln!(out, "{}", d.render());
                            }
                        }
                    }
                } else {
                    let mode = match line.split_whitespace().nth(2) {
                        None | Some("strict") => Some(ReplayMode::Strict),
                        Some("permissive") => Some(ReplayMode::Permissive),
                        Some(other) => {
                            let _ = writeln!(
                                out,
                                "unknown replay mode `{other}` (strict or permissive)"
                            );
                            None
                        }
                    };
                    if let Some(mode) = mode {
                        match ReplayTarget::load(arg, mode) {
                            Ok(r) => {
                                let total = r.events_total();
                                let label = r.scenario_label().to_string();
                                self.swap(Leaf::Replay(r), Some(&label), out);
                                let _ = writeln!(
                                    out,
                                    "replaying `{arg}` ({total} events, {mode:?}); aliases cleared"
                                );
                            }
                            Err(e) => {
                                let _ = writeln!(out, "cannot replay `{arg}`: {e}");
                            }
                        }
                    }
                }
            }
            ".profile" | ".explain" => {
                let expr = line.split_once(' ').map(|x| x.1).unwrap_or("").trim();
                if expr.is_empty() {
                    let _ = writeln!(out, "usage: {cmd} EXPR");
                } else {
                    self.profile(cmd == ".explain", expr, out);
                }
            }
            ".aliases" => {
                let mut names: Vec<&String> = self.aliases.keys().collect();
                names.sort();
                for n in names {
                    let _ = writeln!(out, "{n}");
                }
            }
            ".clear" => {
                self.aliases.clear();
                let _ = writeln!(out, "aliases cleared");
            }
            ".set" => {
                let val = line.split_whitespace().nth(2).unwrap_or("");
                self.set(arg, val, out);
            }
            other => {
                let _ = writeln!(out, "unknown command `{other}` (try .help)");
            }
        }
        true
    }

    /// The `.set OPTION VALUE` command. Values parse strictly (`on|off`,
    /// `tolerant|strict`, or a number); anything else prints a usage
    /// line and leaves the setting unchanged.
    fn set(&mut self, option: &str, val: &str, out: &mut String) {
        let flag = match val {
            "on" => Some(true),
            "off" => Some(false),
            _ => None,
        };
        let o = &mut self.options;
        let ok = match option {
            "lazy" => {
                o.sym_mode = SymMode::Lazy;
                true
            }
            "eager" => {
                o.sym_mode = SymMode::Eager;
                true
            }
            "threshold" => parse_into(val, &mut o.compress_threshold),
            "maxvalues" => parse_into(val, &mut o.max_values),
            "maxsteps" => parse_into(val, &mut o.max_ticks),
            "maxdepth" => parse_into(val, &mut o.max_depth),
            "timeout" => parse_into(val, &mut o.timeout_ms),
            "errors" => {
                let known = matches!(val, "tolerant" | "strict");
                if known {
                    o.error_values = val == "tolerant";
                }
                known
            }
            "trace" => flag.map(|on| o.trace = on).is_some(),
            "prefetch" => flag.map(|on| o.prefetch = on).is_some(),
            "cache" => flag
                .map(|on| {
                    self.cache_enabled = on;
                    self.cache_mut().set_enabled(on);
                })
                .is_some(),
            "degrade" => flag.map(|on| self.set_degrade(on)).is_some(),
            "pipeline" => match flag {
                Some(on) => {
                    let state = if on { "on" } else { "off" };
                    if self.set_pipeline(on) {
                        let thread = if on {
                            "on the I/O actor thread"
                        } else {
                            "inline on the session thread"
                        };
                        let _ = writeln!(out, "pipeline {state}: the wire now runs {thread}");
                    } else {
                        let _ = writeln!(
                            out,
                            "pipeline {state} (sticky): this backend has no I/O actor and \
                             stays inline; the setting applies at the next `.scenario`"
                        );
                    }
                    true
                }
                None => false,
            },
            "trace_buf" => match val.parse::<usize>() {
                Ok(n) if n > 0 => {
                    self.set_trace_buf(n);
                    let _ = writeln!(
                        out,
                        "trace and span rings resized to {n} entries \
                         (~{} KiB each at worst)",
                        n.saturating_mul(140) / 1024
                    );
                    true
                }
                _ => false,
            },
            other => {
                let _ = writeln!(out, "unknown option `{other}`");
                true
            }
        };
        if !ok {
            let form = match option {
                "errors" => "tolerant|strict",
                "trace_buf" => "N (N > 0)",
                "threshold" | "maxvalues" | "maxsteps" | "maxdepth" | "timeout" => "N",
                _ => "on|off",
            };
            let _ = writeln!(out, "usage: .set {option} {form}");
        }
    }

    fn debugger_command(&mut self, cmd: &str, arg: &str, out: &mut String) {
        let Leaf::Minic(dbg) = self.leaf_mut() else {
            let _ = writeln!(out, "no program loaded (use `.load file.c` first)");
            return;
        };
        let resumed = match cmd {
            ".break" => {
                match arg.parse::<u32>() {
                    Ok(n) => {
                        dbg.add_breakpoint(n);
                        let _ = writeln!(out, "breakpoint at line {n}");
                    }
                    Err(_) => {
                        let _ = writeln!(out, "usage: .break LINE");
                    }
                }
                false
            }
            ".delete" => {
                if let Ok(n) = arg.parse::<u32>() {
                    dbg.remove_breakpoint(n);
                }
                false
            }
            ".breaks" => {
                let _ = writeln!(out, "{:?}", dbg.breakpoints());
                false
            }
            ".watch" => {
                if arg.is_empty() {
                    let _ = writeln!(out, "usage: .watch EXPR");
                } else {
                    dbg.add_watchpoint(arg);
                    let _ = writeln!(out, "watching `{arg}`");
                }
                false
            }
            ".run" | ".cont" => {
                let r = if cmd == ".run" { dbg.run() } else { dbg.cont() };
                match r {
                    Ok(StopReason::Breakpoint { line }) => {
                        let _ = writeln!(out, "breakpoint hit at line {line}");
                    }
                    Ok(StopReason::Step { line }) => {
                        let _ = writeln!(out, "stopped at line {line}");
                    }
                    Ok(StopReason::Watchpoint { line }) => {
                        let _ = writeln!(out, "watchpoint fired at line {line}");
                    }
                    Ok(StopReason::Exited { code }) => {
                        let _ = writeln!(out, "program exited with code {code}");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "runtime error: {e}");
                    }
                }
                out.push_str(&dbg.take_output());
                true
            }
            ".step" => {
                match dbg.step_line() {
                    Ok(StopReason::Step { line }) => {
                        let _ = writeln!(out, "line {line}");
                    }
                    Ok(StopReason::Exited { code }) => {
                        let _ = writeln!(out, "program exited with code {code}");
                    }
                    Ok(other) => {
                        let _ = writeln!(out, "{other:?}");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "runtime error: {e}");
                    }
                }
                true
            }
            ".frames" => {
                // Through the cache, which memoizes frame lookups.
                let cache = self.cache_mut();
                for i in 0..cache.frame_count() {
                    if let Some(f) = cache.frame_info(i) {
                        let line = f.line.map(|l| format!(" at line {l}")).unwrap_or_default();
                        let _ = writeln!(out, "#{i} {}{}", f.function, line);
                    }
                }
                false
            }
            _ => unreachable!("dispatched by caller"),
        };
        if resumed {
            // The program ran: everything cached at the previous stop
            // is suspect.
            self.cache_mut().invalidate_all();
        }
    }
}

/// One line of replay state: mode, events consumed, any divergence.
fn replay_status(r: &ReplayTarget) -> String {
    format!(
        "{:?}, {}/{} events consumed{}",
        r.mode(),
        r.events_consumed(),
        r.events_total(),
        match r.divergence() {
            Some(d) => format!("; DIVERGED at event {}", d.at),
            None => String::new(),
        }
    )
}

/// Parses `val` into `slot`; on failure leaves `slot` unchanged and
/// returns `false`.
fn parse_into<T: std::str::FromStr>(val: &str, slot: &mut T) -> bool {
    val.parse().map(|n| *slot = n).is_ok()
}

impl Repl {
    /// Processes one input line, appending output; returns `false` when
    /// the user quits.
    ///
    /// The line is processed under panic isolation: a bug anywhere in
    /// the evaluator or a command handler costs that one command — it
    /// is reported as an internal error and the session keeps accepting
    /// input — rather than tearing down the whole debugging session
    /// (and the debuggee's state with it).
    pub fn handle(&mut self, line: &str, out: &mut String) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if line.starts_with('.') {
                self.command(line, out)
            } else {
                self.eval(line, out);
                true
            }
        }));
        match unwound {
            Ok(keep_going) => keep_going,
            Err(payload) => {
                let _ = writeln!(out, "{}", DuelError::Internal(panic_text(payload.as_ref())));
                true
            }
        }
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "evaluator panicked".to_string()
    }
}

impl Default for Repl {
    fn default() -> Repl {
        Repl::new()
    }
}

/// Usage string for the `duel` binary.
pub const USAGE: &str = "usage: duel [--max-steps N] [--max-depth N] [--timeout-ms N] \
     [--no-cache] [--trace-json FILE] [--trace-perfetto FILE] [--trace-buf N] \
     [--record FILE] [--replay FILE] [program.c]";

/// What [`parse_args`] extracted from the command line.
#[derive(Debug)]
pub struct CliArgs {
    /// Evaluation options assembled from the budget flags.
    pub options: EvalOptions,
    /// The mini-C program to `.load` at startup, if given.
    pub path: Option<String>,
    /// Whether the target page cache starts enabled (`--no-cache`).
    pub cache: bool,
    /// Where to export the target-call trace at exit
    /// (`--trace-json FILE`; also turns tracing on from the start).
    pub trace_json: Option<String>,
    /// Where to export the causal span trace as Chrome trace-event
    /// JSON at exit (`--trace-perfetto FILE`; turns tracing *and* span
    /// tracing on from the start).
    pub trace_perfetto: Option<String>,
    /// Capacity override for the trace-event and span rings
    /// (`--trace-buf N`).
    pub trace_buf: Option<usize>,
    /// Capture file to start recording to immediately (`--record FILE`).
    pub record: Option<String>,
    /// Capture file to replay instead of a live backend
    /// (`--replay FILE`, strict mode).
    pub replay: Option<String>,
}

/// Parses the binary's command line: resource-budget flags, the
/// `--no-cache` switch (disable the target page cache + lookup
/// memoization), the `--trace-json FILE` trace export, plus an optional
/// mini-C program path. Accepts both `--flag N` and `--flag=N`
/// spellings.
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut options = Repl::default_options();
    let mut path = None;
    let mut cache = true;
    let mut trace_json = None;
    let mut trace_perfetto = None;
    let mut trace_buf = None;
    let mut record = None;
    let mut replay = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        match name {
            "--max-steps" | "--max-depth" | "--timeout-ms" | "--trace-json"
            | "--trace-perfetto" | "--trace-buf" | "--record" | "--replay" => {
                let val = match inline {
                    Some(v) => v,
                    None => {
                        i += 1;
                        args.get(i)
                            .cloned()
                            .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))?
                    }
                };
                if name == "--trace-json" {
                    trace_json = Some(val);
                } else if name == "--trace-perfetto" {
                    trace_perfetto = Some(val);
                } else if name == "--record" {
                    record = Some(val);
                } else if name == "--replay" {
                    replay = Some(val);
                } else {
                    let n: u64 = val
                        .parse()
                        .map_err(|_| format!("invalid value `{val}` for {name}\n{USAGE}"))?;
                    match name {
                        "--max-steps" => options.max_ticks = n,
                        "--max-depth" => options.max_depth = n,
                        "--trace-buf" => {
                            if n == 0 {
                                return Err(format!("--trace-buf needs N > 0\n{USAGE}"));
                            }
                            trace_buf = Some(n as usize);
                        }
                        _ => options.timeout_ms = n,
                    }
                }
            }
            "--no-cache" => cache = false,
            _ if name.starts_with('-') => {
                return Err(format!("unknown flag `{name}`\n{USAGE}"));
            }
            _ => path = Some(arg.clone()),
        }
        i += 1;
    }
    Ok(CliArgs {
        options,
        path,
        cache,
        trace_json,
        trace_perfetto,
        trace_buf,
        record,
        replay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lines: &[&str]) -> String {
        let mut r = Repl::new();
        let mut out = String::new();
        for l in lines {
            r.handle(l, &mut out);
        }
        out
    }

    #[test]
    fn evaluates_expressions() {
        let out = run(&["x[1..4,8,12..50] >? 5 <? 10"]);
        assert_eq!(out, "x[3] = 7\nx[18] = 9\nx[47] = 6\n");
    }

    #[test]
    fn pipeline_mode_renders_byte_identical_output() {
        let script = [
            ".set prefetch on",
            "x[..64]",
            "x[1..4,8,12..50] >? 5 <? 10",
            "tree-->(left,right)->data",
        ];
        let baseline = run(&script);
        let mut piped = vec![".set pipeline on"];
        piped.extend_from_slice(&script);
        let out = run(&piped);
        assert!(out.starts_with("pipeline on"), "{out}");
        let (_, rest) = out.split_once('\n').unwrap();
        assert_eq!(rest, baseline);
    }

    #[test]
    fn pipeline_is_sticky_across_scenarios_and_shows_in_stats() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set pipeline on", &mut out);
        r.handle(".scenario scan", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("pipeline: on"), "{out}");
        out.clear();
        r.handle(".set pipeline off", &mut out);
        r.handle(".stats", &mut out);
        assert!(out.contains("pipeline: off"), "{out}");
    }

    #[test]
    fn pipeline_overlaps_windows_and_reports_them() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set pipeline on", &mut out);
        out.clear();
        // 8 KiB of pointers: two windows of 64 pages.
        r.handle("hash[..1024]", &mut out);
        assert!(out.contains("hash[1023]"), "{out}");
        out.clear();
        r.handle(".stats json", &mut out);
        assert!(out.contains("\"pipeline\":true"), "{out}");
        assert!(out.contains("\"pipeline_async\":true"), "{out}");
        assert!(out.contains("\"eval_windows_inflight\":1"), "{out}");
        // The second window was submitted ahead to the actor.
        let submits = out
            .split("\"pipeline_submits\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap();
        assert!(submits >= 1, "{out}");
    }

    #[test]
    fn stats_say_a_recording_submits_no_window_ahead() {
        let dir = std::env::temp_dir().join("duel-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("pipelined-{}.jsonl", std::process::id()));
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set pipeline on", &mut out);
        r.handle(&format!(".record {}", path.display()), &mut out);
        r.handle("hash[..1024]", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(
            out.contains("pipeline: on, recording: no window submitted ahead (0 windows planned"),
            "{out}"
        );
        r.handle(".record stop", &mut out);
        // Cold pages again: the same scan now submits its second window.
        r.handle(".set cache off", &mut out);
        r.handle(".set cache on", &mut out);
        r.handle("hash[..1024]", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("pipeline: on (1 windows planned"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn chaos_gate_stays_reachable_while_pipelined() {
        // Once the actor owns the gate, `.chaos` steers it through the
        // Arc-shared handle cached at construction: status must observe
        // ops flowing on the worker thread, and kill/revive must still
        // take effect (the supervisor may auto-heal a killed backend,
        // so only reachability is asserted, not a lasting outage).
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set pipeline on", &mut out);
        r.handle("x[..4]", &mut out);
        out.clear();
        r.handle(".chaos", &mut out);
        let ops: u64 = out
            .split(", ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        assert!(ops > 0, "gate should see worker-thread ops: {out}");
        out.clear();
        r.handle(".chaos kill", &mut out);
        assert!(out.contains("backend killed"), "{out}");
        r.handle(".chaos revive", &mut out);
        out.clear();
        r.handle("x[0]", &mut out);
        // Same rendering as the inline tower after a kill/revive cycle
        // (the byte-identical test covers full parity).
        assert!(out.contains("100") && !out.contains("error"), "{out}");
    }

    #[test]
    fn replay_backend_reports_pipeline_unavailable() {
        let dir = std::env::temp_dir().join(format!("duel_pipe_replay_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("cap.jsonl");
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(&format!(".record {}", file.display()), &mut out);
        r.handle("x[..4]", &mut out);
        r.handle(".record stop", &mut out);
        r.handle(&format!(".replay {}", file.display()), &mut out);
        out.clear();
        r.handle(".set pipeline on", &mut out);
        assert!(out.contains("no I/O actor"), "{out}");
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("pipeline: unavailable"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_without_expr_prints_usage() {
        let out = run(&[".query"]);
        assert!(out.contains("usage: .query EXPR"), "{out}");
        assert!(out.contains("spans[..nspans]"), "{out}");
    }

    #[test]
    fn query_reads_live_counters_and_cache() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(
            ".query counters[..ncounters].(if (value > 0) name)",
            &mut out,
        );
        assert!(out.contains("eval.values"), "{out}");
        out.clear();
        r.handle(".query cache.backend_reads", &mut out);
        let n: u64 = out.trim().parse().expect("scalar query output");
        assert_eq!(n, r.meta_snapshot().cache.backend_reads, "{out}");
    }

    #[test]
    fn query_spans_and_events_match_the_rings() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle(".trace spans on", &mut out);
        r.handle("x[..8] >? 5", &mut out);
        let snap = r.meta_snapshot();
        assert!(!snap.events.is_empty());
        assert!(!snap.spans.spans.is_empty());
        out.clear();
        r.handle(".query nevents", &mut out);
        assert_eq!(
            out.trim().parse::<usize>().expect("nevents"),
            snap.events.len(),
            "{out}"
        );
        out.clear();
        r.handle(".query #/(spans[..nspans].id)", &mut out);
        assert_eq!(
            out.trim().parse::<usize>().expect("span count"),
            snap.spans.spans.len() + snap.spans.open.len(),
            "{out}"
        );
    }

    #[test]
    fn query_is_isolated_from_the_debuggee_and_the_wire() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..5]", &mut out);
        let calls_before = r.trace_handle().snapshot().total_calls();
        let counters_before = r.metrics().snapshot().counters;
        out.clear();
        r.handle(".query counters[..ncounters].value", &mut out);
        r.handle(".query events[..nevents].lat_ns >? 0", &mut out);
        assert_eq!(
            r.trace_handle().snapshot().total_calls(),
            calls_before,
            "meta-queries must not touch the debuggee wire"
        );
        assert_eq!(
            r.metrics().snapshot().counters,
            counters_before,
            "meta-queries must not feed the metrics they inspect"
        );
        // The debuggee still evaluates identically afterwards.
        out.clear();
        r.handle("x[1..4,8,12..50] >? 5 <? 10", &mut out);
        assert_eq!(out, "x[3] = 7\nx[18] = 9\nx[47] = 6\n");
    }

    #[test]
    fn query_reports_errors_without_breaking_the_session() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".query ][", &mut out);
        assert!(!out.trim().is_empty(), "parse error should be reported");
        out.clear();
        r.handle(".query no_such_symbol", &mut out);
        assert!(!out.trim().is_empty(), "{out}");
        out.clear();
        r.handle("x[0]", &mut out);
        assert!(out.contains("100"), "{out}");
    }

    #[test]
    fn trace_export_on_an_empty_ring_writes_valid_json() {
        // Regression (satellite of the meta-target PR): exporting
        // before any span or event is recorded must produce a valid
        // metadata-only Chrome trace document.
        let dir = std::env::temp_dir().join(format!("duel_empty_export_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("empty.json");
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(&format!(".trace export {}", file.display()), &mut out);
        assert!(out.contains("trace exported"), "{out}");
        let text = std::fs::read_to_string(&file).unwrap();
        let doc = duel_target::json::Json::parse(&text).expect("empty export parses");
        assert!(doc.get("traceEvents").is_some(), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aliases_persist_across_lines() {
        let out = run(&["v := 40 + 2 ;", "v * 2"]);
        assert!(out.contains("84"), "{out}");
    }

    #[test]
    fn scenario_switching_clears_aliases() {
        let out = run(&["v := 1 ;", ".scenario tree", "v"]);
        assert!(out.contains("scenario loaded"), "{out}");
        assert!(out.contains("`v` is not defined"), "{out}");
    }

    #[test]
    fn ast_and_stats_commands() {
        let out = run(&[".ast a*5 + *b", "1..3", ".stats"]);
        assert!(
            out.contains("(plus (multiply (name \"a\") (constant 5)) (indirect (name \"b\")))"),
            "{out}"
        );
        assert!(out.contains("eval: 3 values"), "{out}");
    }

    #[test]
    fn debugger_commands_require_a_program() {
        let out = run(&[".run"]);
        assert!(out.contains("no program loaded"), "{out}");
    }

    #[test]
    fn set_options() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set lazy", &mut out);
        r.handle("x[1..3] >? 0", &mut out);
        // Lazy mode: values only, no symbolic paths.
        assert!(out.contains("101\n102\n"), "{out}");
        r.handle(".set threshold 2", &mut out);
        assert_eq!(r.options.compress_threshold, 2);
    }

    #[test]
    fn set_rejects_mistyped_switches() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set cache off", &mut out);
        r.handle(".set cache of", &mut out);
        r.handle(".set degrade", &mut out);
        r.handle(".set prefetch on", &mut out);
        r.handle(".set prefetch yes", &mut out);
        r.handle(".set trace 1", &mut out);
        assert_eq!(
            out,
            "usage: .set cache on|off\nusage: .set degrade on|off\n\
             usage: .set prefetch on|off\nusage: .set trace on|off\n"
        );
        assert!(!r.cache_enabled && !r.cache().config().enabled);
        assert!(r.degrade_enabled && r.supervisor().config().degrade);
        assert!(r.options.prefetch && !r.options.trace);
        out.clear();
        r.handle(".set pipeline yes", &mut out);
        assert_eq!(out, "usage: .set pipeline on|off\n");
        assert!(!r.pipeline_enabled);
    }

    #[test]
    fn set_rejects_mistyped_error_modes() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set errors strict", &mut out);
        r.handle(".set errors strickt", &mut out);
        r.handle(".set errors", &mut out);
        assert_eq!(out, "usage: .set errors tolerant|strict\n".repeat(2));
        assert!(!r.options.error_values);
        out.clear();
        r.handle(".set errors tolerant", &mut out);
        assert_eq!(out, "");
        assert!(r.options.error_values);
    }

    #[test]
    fn set_rejects_mistyped_numbers() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set maxsteps 500", &mut out);
        r.handle(".set maxsteps abc", &mut out);
        r.handle(".set threshold -1", &mut out);
        r.handle(".set maxvalues", &mut out);
        r.handle(".set maxdepth 1e3", &mut out);
        r.handle(".set timeout 10ms", &mut out);
        r.handle(".set trace_buf 0", &mut out);
        assert_eq!(
            out,
            "usage: .set maxsteps N\nusage: .set threshold N\nusage: .set maxvalues N\n\
             usage: .set maxdepth N\nusage: .set timeout N\nusage: .set trace_buf N (N > 0)\n"
        );
        let d = Repl::default_options();
        assert_eq!(r.options.max_ticks, 500);
        assert_eq!(r.options.compress_threshold, d.compress_threshold);
        assert_eq!(r.options.max_values, d.max_values);
        assert_eq!(r.options.max_depth, d.max_depth);
        assert_eq!(r.options.timeout_ms, d.timeout_ms);
        assert_eq!(r.trace_buf, None);
    }

    #[test]
    fn quit_returns_false() {
        let mut r = Repl::new();
        let mut out = String::new();
        assert!(!r.handle(".quit", &mut out));
        assert!(r.handle("1+1", &mut out));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let out = run(&["nonesuch", "1 +", ".bogus"]);
        assert!(out.contains("`nonesuch` is not defined"), "{out}");
        assert!(out.contains("syntax error"), "{out}");
        assert!(out.contains("unknown command"), "{out}");
    }

    #[test]
    fn budget_errors_name_the_budget() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set maxsteps 500", &mut out);
        r.handle("while (1) 1 ;", &mut out);
        assert!(out.contains("step budget of 500"), "{out}");
        out.clear();
        r.handle(".set maxdepth 4", &mut out);
        r.handle("1+(2+(3+(4+(5+6))))", &mut out);
        assert!(out.contains("depth budget of 4"), "{out}");
    }

    #[test]
    fn parse_args_flags_and_path() {
        let args: Vec<String> = ["--max-steps", "1000", "--timeout-ms=250", "prog.c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!(a.options.max_ticks, 1000);
        assert_eq!(a.options.timeout_ms, 250);
        assert!(
            a.options.error_values,
            "the REPL defaults to tolerant errors"
        );
        assert_eq!(a.path.as_deref(), Some("prog.c"));
        assert!(a.cache, "caching defaults to on");
        assert!(a.trace_json.is_none());

        let a = parse_args(&[]).unwrap();
        assert_eq!(a.options.max_ticks, EvalOptions::default().max_ticks);
        assert!(a.path.is_none());
        assert!(a.cache);

        let a = parse_args(&["--no-cache".to_string()]).unwrap();
        assert!(!a.cache);

        let a = parse_args(&["--trace-json=out.json".to_string()]).unwrap();
        assert_eq!(a.trace_json.as_deref(), Some("out.json"));
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        let e = parse_args(&["--max-steps".to_string()]).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
        let e = parse_args(&["--max-depth".to_string(), "x".to_string()]).unwrap_err();
        assert!(e.contains("invalid value"), "{e}");
        let e = parse_args(&["--bogus".to_string()]).unwrap_err();
        assert!(e.contains("unknown flag"), "{e}");
        let e = parse_args(&["--trace-json".to_string()]).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
    }

    #[test]
    fn trace_command_records_target_calls() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(".trace", &mut out);
        assert!(out.contains("tracing on"), "{out}");
        // The hinted scan reads its elements in one window.
        assert!(out.contains("multi_read"), "{out}");
        out.clear();
        r.handle(".trace dump 3", &mut out);
        assert!(out.contains("ok"), "{out}");
        r.handle(".trace clear", &mut out);
        out.clear();
        r.handle(".trace", &mut out);
        assert!(out.contains("0 calls recorded"), "{out}");
        // Off again: no recording.
        r.handle(".trace off", &mut out);
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(".trace", &mut out);
        assert!(out.contains("tracing off"), "{out}");
        assert!(out.contains("0 calls recorded"), "{out}");
    }

    #[test]
    fn tracing_survives_scenario_switch() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle(".scenario scan", &mut out);
        assert!(r.trace_handle().is_enabled());
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(".trace", &mut out);
        assert!(out.contains("multi_read"), "{out}");
    }

    #[test]
    fn profile_shows_cost_table_and_full_attribution() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".scenario scan", &mut out);
        out.clear();
        r.handle(".profile x[..10] >? 5", &mut out);
        // Values first, then the table, hottest node first.
        assert!(out.contains("x[3] = 7"), "{out}");
        assert!(out.contains("self-ticks"), "{out}");
        assert!(out.contains("(display)"), "{out}");
        assert!(
            out.contains("attributed: 100.0% of ticks, 100.0% of reads"),
            "{out}"
        );
        // Profiling must not leave tracing enabled behind.
        assert!(!r.trace_handle().is_enabled());
    }

    #[test]
    fn explain_shows_annotated_tree() {
        let out = run(&[".explain x[..3]"]);
        assert!(out.contains("x[..3] (index)"), "{out}");
        // The index node's children are indented below it.
        assert!(out.contains("\n  x (name)"), "{out}");
        assert!(out.contains("..3 (to)"), "{out}");
    }

    #[test]
    fn stats_reports_all_tower_layers() {
        let out = run(&["x[..10]", ".stats"]);
        assert!(out.contains("eval: 10 values"), "{out}");
        assert!(out.contains("depth "), "{out}");
        assert!(out.contains("yields"), "{out}");
        assert!(out.contains("cache: on"), "{out}");
        assert!(out.contains("retry: "), "{out}");
        assert!(out.contains("supervise: circuit closed"), "{out}");
        assert!(out.contains("degrade on"), "{out}");
        assert!(out.contains("trace: off"), "{out}");
    }

    #[test]
    fn trace_json_export_has_schema_header() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.set_tracing(true);
        r.handle("x[..5]", &mut out);
        let json = r.trace_json();
        assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
        assert!(json.contains("\"name\":\"duel_trace\""), "{json}");
        // Shared envelope convention: config and metrics blocks, like
        // bench reports and capture files.
        assert!(
            json.contains("\"config\":{\"backend\":\"sim\",\"scenario\":\"combined\""),
            "{json}"
        );
        assert!(json.contains("\"metrics\":{\"layers\":["), "{json}");
        assert!(json.contains("\"label\":\"session\""), "{json}");
        assert!(json.contains("\"op\":\"multi_read\""), "{json}");
    }

    #[test]
    fn stats_reports_cache_counters() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..10]", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("cache: on"), "{out}");
        assert!(out.contains("backend reads"), "{out}");
        r.handle(".set cache off", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("cache: off"), "{out}");
    }

    #[test]
    fn cached_and_uncached_evaluation_agree() {
        let queries = ["x[1..4,8,12..50] >? 5 <? 10", "#/(head-->next)"];
        let mut cached = Repl::with_config(Repl::default_options(), true);
        let mut plain = Repl::with_config(Repl::default_options(), false);
        for q in queries {
            let (mut a, mut b) = (String::new(), String::new());
            cached.handle(q, &mut a);
            plain.handle(q, &mut b);
            assert_eq!(a, b, "`{q}` must not change under caching");
        }
    }

    #[test]
    fn no_cache_repl_passes_reads_through() {
        let mut r = Repl::with_config(Repl::default_options(), false);
        let mut out = String::new();
        r.handle("x[..10]", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("cache: off"), "{out}");
        assert!(out.contains("0 page hits"), "{out}");
    }

    #[test]
    fn minic_resume_invalidates_the_cache() {
        // A stepped program mutates memory; the REPL must bump the
        // cache epoch at every stop so DUEL reads stay fresh.
        let src = "int g;\nint main() {\n  g = 1;\n  g = 2;\n  g = 3;\n  return 0;\n}\n";
        let dir = std::env::temp_dir().join("duel-cli-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("steps.c");
        std::fs::write(&path, src).unwrap();
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(&format!(".load {}", path.display()), &mut out);
        assert!(out.contains("compiled"), "{out}");
        r.handle(".break 4", &mut out);
        r.handle(".run", &mut out);
        out.clear();
        r.handle("g", &mut out);
        assert_eq!(out.trim_end(), "1", "{out}");
        r.handle(".step", &mut out);
        out.clear();
        r.handle("g", &mut out);
        assert_eq!(out.trim_end(), "2", "stale cached g after step: {out}");
    }

    #[test]
    fn trace_mode_prints_eval_steps() {
        let out = run(&[".set trace on", "(1..2)+(5,9)"]);
        assert!(out.contains("eval(binary) -> yield 1+5"), "{out}");
        assert!(out.contains("eval(alternate) -> NOVALUE"), "{out}");
    }

    #[test]
    fn trace_dump_honours_the_count_argument() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..10]", &mut out);
        out.clear();
        r.handle(".trace dump 2", &mut out);
        assert_eq!(out.lines().count(), 2, "{out}");
        let full = {
            let mut full = String::new();
            r.handle(".trace dump", &mut full);
            full
        };
        assert!(full.lines().count() > 2, "{full}");
        // `dump N` is exactly the tail of the default dump.
        assert!(full.ends_with(&out), "{full:?} vs {out:?}");
    }

    #[test]
    fn record_then_replay_roundtrips_through_the_repl() {
        let dir = std::env::temp_dir().join("duel-cli-capture-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("session-{}.jsonl", std::process::id()));
        let path = path.display().to_string();
        let queries = ["x[1..4,8,12..50] >? 5 <? 10", "#/(head-->next)"];

        // Record a live session.
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(&format!(".record {path}"), &mut out);
        assert!(out.contains(&format!("recording to `{path}`")), "{out}");
        let mut live = String::new();
        for q in queries {
            r.handle(q, &mut live);
        }
        out.clear();
        r.handle(".record stop", &mut out);
        assert!(out.contains("capture finalized"), "{out}");

        // Replay it in a fresh REPL with no simulator state carried
        // over: output must be byte-identical, capture fully consumed.
        let mut r = Repl::new();
        out.clear();
        r.handle(&format!(".replay {path}"), &mut out);
        assert!(out.contains("replaying"), "{out}");
        let mut replayed = String::new();
        for q in queries {
            r.handle(q, &mut replayed);
        }
        assert_eq!(live, replayed);
        out.clear();
        r.handle(".replay", &mut out);
        assert!(out.contains("capture of scenario `combined`"), "{out}");
        assert!(!out.contains("divergence"), "{out}");
        let consumed: Vec<&str> = out
            .split_whitespace()
            .find(|w| w.contains('/'))
            .map(|w| w.split('/').collect())
            .unwrap_or_default();
        assert_eq!(consumed.len(), 2, "{out}");
        assert_eq!(consumed[0], consumed[1], "all events consumed: {out}");
        std::fs::remove_file(&path).ok();
    }

    /// Kills the chaos gate and drives three consecutive failed health
    /// probes, which is the deterministic way to trip the breaker
    /// (`trip_consecutive` = 3 in the default supervisor config).
    fn kill_and_trip(r: &mut Repl, out: &mut String) {
        r.handle(".chaos kill", out);
        assert!(out.contains("chaos: backend killed"), "{out}");
        for _ in 0..3 {
            r.handle(".health", out);
        }
        assert!(out.contains("backend unhealthy"), "{out}");
        assert!(out.contains("circuit open"), "{out}");
    }

    #[test]
    fn health_reports_a_live_backend() {
        let out = run(&[".health"]);
        assert!(out.contains("backend healthy; circuit closed"), "{out}");
        assert!(out.contains("probes: 1 (0 failed)"), "{out}");
        assert!(out.contains("trips: 0"), "{out}");
    }

    #[test]
    fn open_circuit_serves_cached_reads_stale() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out); // warm the page cache
        kill_and_trip(&mut r, &mut out);
        out.clear();
        r.handle("x[..3]", &mut out);
        assert!(out.contains("x[0] = 100 <stale>"), "{out}");
        assert!(out.contains("x[2] = 102 <stale>"), "{out}");
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("supervise: circuit open"), "{out}");
        assert!(out.contains("stale reads"), "{out}");
        assert!(out.contains("stale\n") || out.contains(" stale"), "{out}");
    }

    #[test]
    fn health_reconnect_recovers_after_revive() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        let fresh = out.clone();
        kill_and_trip(&mut r, &mut out);
        out.clear();
        r.handle(".chaos revive", &mut out);
        assert!(out.contains("chaos: backend revived"), "{out}");
        out.clear();
        r.handle(".health reconnect", &mut out);
        assert!(out.contains("reconnected; resync:"), "{out}");
        // Post-recovery output is byte-identical to the pre-kill run.
        out.clear();
        r.handle("x[..3]", &mut out);
        assert_eq!(out, fresh, "post-resync output must match");
        assert!(!out.contains("<stale>"), "{out}");
        out.clear();
        r.handle(".health", &mut out);
        assert!(out.contains("backend healthy; circuit closed"), "{out}");
        assert!(out.contains("reconnects: 1"), "{out}");
    }

    #[test]
    fn open_circuit_fails_writes_fast() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        kill_and_trip(&mut r, &mut out);
        out.clear();
        r.handle("x[0] = 5 ;", &mut out);
        assert!(out.contains("circuit open"), "{out}");
    }

    #[test]
    fn degrade_off_fails_reads_fast() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        kill_and_trip(&mut r, &mut out);
        r.handle(".set degrade off", &mut out);
        out.clear();
        r.handle("x[..3]", &mut out);
        assert!(out.contains("circuit open"), "{out}");
        assert!(!out.contains("<stale>"), "{out}");
        // Back on: stale service resumes.
        r.handle(".set degrade on", &mut out);
        out.clear();
        r.handle("x[..3]", &mut out);
        assert!(out.contains("<stale>"), "{out}");
    }

    #[test]
    fn chaos_status_and_campaign_are_deterministic() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".chaos", &mut out);
        assert!(out.contains("chaos: mode live"), "{out}");
        out.clear();
        r.handle(".chaos campaign 42 3 1000", &mut out);
        assert!(out.contains("chaos: campaign of 3 events"), "{out}");
        let again = {
            let mut s = String::new();
            r.handle(".chaos campaign 42 3 1000", &mut s);
            s
        };
        assert_eq!(out, again, "campaigns are seed-deterministic");
    }

    #[test]
    fn chaos_heal_restores_service_after_n_ops() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        out.clear();
        r.handle(".chaos kill", &mut out);
        r.handle(".chaos heal 1", &mut out);
        assert!(out.contains("healing after 1 more ops"), "{out}");
        // The healed gate makes the next health probe succeed again.
        r.handle(".health", &mut out);
        out.clear();
        r.handle(".health", &mut out);
        assert!(out.contains("backend healthy"), "{out}");
    }

    #[test]
    fn degrade_state_survives_scenario_switch() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set degrade off", &mut out);
        r.handle(".scenario scan", &mut out);
        assert!(!r.supervisor().config().degrade, "degrade must stay off");
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("degrade off"), "{out}");
    }

    // ---- causal span tracing --------------------------------------------

    #[test]
    fn span_export_loads_as_chrome_trace_json() {
        let dir = std::env::temp_dir().join("duel-cli-span-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.json", std::process::id()));
        let path = path.display().to_string();
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle(".trace spans on", &mut out);
        r.handle("x[..10] >? 5", &mut out);
        out.clear();
        r.handle(&format!(".trace export {path}"), &mut out);
        assert!(out.contains("trace exported"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let v = duel_target::json::Json::parse(&json).expect("perfetto export parses");
        let events = v.get("traceEvents").and_then(|e| e.items()).unwrap();
        assert!(events.len() > 10, "spans + wire events expected");
        assert!(json.contains("\"cat\":\"root\""), "{json}");
        assert!(json.contains("\"cat\":\"node\""), "{json}");
        assert!(json.contains("\"cat\":\"wire-event\""), "{json}");
        std::fs::remove_file(&path).ok();

        // Every buffered wire event chains to a live eval root.
        let snap = r.span_context().snapshot();
        let events = r.trace_handle().recent_events(usize::MAX);
        let (ok, total) = duel_target::attribution_coverage(&snap, &events);
        assert!(total > 0);
        assert_eq!(ok, total, "all wire events must have a rooted ancestry");
    }

    #[test]
    fn flame_command_writes_folded_stacks() {
        let dir = std::env::temp_dir().join("duel-cli-span-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("flame-{}.txt", std::process::id()));
        let path = path.display().to_string();
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle(".trace spans on", &mut out);
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(&format!(".trace flame {path} reads"), &mut out);
        assert!(out.contains("folded stacks written"), "{out}");
        let folded = std::fs::read_to_string(&path).unwrap();
        let line = folded.lines().next().unwrap();
        // `frame;frame;...;op weight`
        assert!(line.contains(';'), "{line}");
        assert!(
            line.starts_with("eval "),
            "stacks root at the eval span: {line}"
        );
        let weight: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(weight >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipelined_windows_attribute_to_the_eval_span() {
        let dir = std::env::temp_dir().join("duel-cli-span-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("flame-piped-{}.txt", std::process::id()));
        let path = path.display().to_string();
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set pipeline on", &mut out);
        r.handle(".trace on", &mut out);
        r.handle(".trace spans on", &mut out);
        // Two windows: the second is submitted ahead to the actor and
        // completes inside the scan's read of it.
        r.handle("hash[..1024] ==? 0", &mut out);
        out.clear();
        r.handle(&format!(".trace flame {path} reads"), &mut out);
        assert!(out.contains("folded stacks written"), "{out}");
        let folded = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Both windows, the one submitted ahead included, are the
        // scan's own vectored reads.
        assert!(
            folded
                .lines()
                .any(|l| l.contains(";multi_read ") && l.ends_with(" 2")),
            "{folded}"
        );
        for line in folded.lines() {
            assert!(line.starts_with("eval "), "detached stack: {line}");
        }
        // The export holds the same events: every one chains to the
        // eval root.
        let json_path = path.replace(".txt", ".json");
        r.handle(&format!(".trace export {json_path}"), &mut out);
        assert!(out.contains("trace exported"), "{out}");
        std::fs::remove_file(&json_path).ok();
        let snap = r.span_context().snapshot();
        let events = r.trace_handle().recent_events(usize::MAX);
        let (ok, total) = duel_target::attribution_coverage(&snap, &events);
        assert!(total > 0);
        assert_eq!(ok, total, "all wire events must have a rooted ancestry");
    }

    #[test]
    fn top_ranks_nodes_ops_and_counters() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".top", &mut out);
        assert!(out.contains("span tracing is off"), "{out}");
        r.handle(".trace on", &mut out);
        r.handle(".trace spans on", &mut out);
        r.handle("x[..10]", &mut out);
        out.clear();
        r.handle(".top", &mut out);
        assert!(out.contains("eval"), "{out}");
        assert!(
            out.contains("index"),
            "hottest nodes include the index: {out}"
        );
        assert!(out.contains("wire ops by total latency"), "{out}");
        assert!(out.contains("multi_read"), "{out}");
        assert!(out.contains("busiest counters"), "{out}");
        assert!(out.contains("eval.values"), "{out}");
    }

    #[test]
    fn stats_json_uses_the_shared_envelope() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(".stats json", &mut out);
        let v = duel_target::json::Json::parse(out.trim()).expect("stats json parses");
        assert_eq!(
            v.get("schema_version").and_then(|x| x.as_u64()),
            Some(1),
            "{out}"
        );
        assert_eq!(
            v.get("name").and_then(|x| x.as_str()),
            Some("duel_stats"),
            "{out}"
        );
        let cfg = v.get("config").expect("config block");
        assert_eq!(cfg.get("backend").and_then(|x| x.as_str()), Some("sim"));
        let m = v.get("metrics").expect("metrics block");
        assert_eq!(m.get("eval_values").and_then(|x| x.as_u64()), Some(5));
        // The always-on registry feeds the same document.
        assert_eq!(m.get("eval.commands").and_then(|x| x.as_u64()), Some(1));
    }

    #[test]
    fn trace_buf_resizes_both_rings_and_survives_swaps() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set trace_buf 64", &mut out);
        assert!(out.contains("resized to 64"), "{out}");
        assert_eq!(r.trace_handle().capacity(), 64);
        assert_eq!(r.span_context().capacity(), 64);
        r.handle(".scenario scan", &mut out);
        assert_eq!(r.trace_handle().capacity(), 64, "sticky across swap");
        assert_eq!(r.span_context().capacity(), 64, "sticky across swap");
        // The ring stays bounded: more events than capacity drop oldest.
        r.handle(".trace on", &mut out);
        r.handle(".trace spans on", &mut out);
        r.handle("x[..60]", &mut out);
        let snap = r.span_context().snapshot();
        assert!(snap.spans.len() <= 64, "{}", snap.spans.len());
    }

    #[test]
    fn trace_clear_resets_counters_histograms_rings_and_metrics() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle(".trace spans on", &mut out);
        r.handle("x[..10]", &mut out);
        // Everything is hot.
        assert!(r.trace_handle().snapshot().total_calls() > 0);
        assert!(!r.span_context().snapshot().spans.is_empty());
        assert!(!r.metrics().snapshot().counters.is_empty());
        r.handle(".trace clear", &mut out);
        let t = r.trace_handle().snapshot();
        assert_eq!(t.total_calls(), 0);
        assert_eq!(t.events_held, 0);
        // No stale latency buckets may survive the clear: the per-op
        // histograms must be all-zero, not just the counters.
        for o in &t.ops {
            assert!(
                o.hist.iter().all(|&b| b == 0),
                "stale latency buckets for {} after .trace clear",
                o.op.name()
            );
            assert_eq!(o.total_ns, 0);
        }
        let s = r.span_context().snapshot();
        assert!(s.spans.is_empty() && s.open.is_empty() && s.dropped == 0);
        let m = r.metrics().snapshot();
        assert!(m.counters.is_empty() && m.histograms.is_empty());
    }

    #[test]
    fn span_state_survives_scenario_switch_and_swap_resets_counters() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle(".trace spans on", &mut out);
        r.handle("x[..10]", &mut out);
        r.handle(".scenario scan", &mut out);
        // Sticky enablement on the fresh tower...
        assert!(r.span_context().is_enabled());
        assert!(r.trace_handle().is_enabled());
        // ...but the fresh tower starts with empty counters, rings, and
        // histograms (no stale buckets from the old backend).
        let t = r.trace_handle().snapshot();
        assert_eq!(t.total_calls(), 0);
        for o in &t.ops {
            assert!(o.hist.iter().all(|&b| b == 0));
        }
        assert!(r.span_context().snapshot().spans.is_empty());
        // Metrics deliberately persist (session-lifetime), and the
        // watermark reset means the next command charges only its own
        // traffic rather than a negative delta.
        let before = r
            .metrics()
            .snapshot()
            .counter("wire.get_bytes.calls")
            .unwrap_or(0);
        out.clear();
        r.handle("x[..10]", &mut out);
        let after = r
            .metrics()
            .snapshot()
            .counter("wire.get_bytes.calls")
            .unwrap_or(0);
        assert!(after >= before, "no negative wire deltas after a swap");
    }

    #[test]
    fn eval_stats_carry_the_trace_id() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        assert_eq!(r.last_stats.trace_id, 0, "no trace id while spans are off");
        r.handle(".trace spans on", &mut out);
        r.handle("x[..3]", &mut out);
        let first = r.last_stats.trace_id;
        assert!(first >= 1, "span-traced evals get a trace id");
        r.handle("x[..3]", &mut out);
        assert_eq!(r.last_stats.trace_id, first + 1, "each eval is one trace");
    }
}
