//! The `duel` command: parse, drive, display.
//!
//! "Duel's top-level evaluation command 'drives' its expression argument
//! and prints all of its values", each as `symbolic = value`. Pure C
//! expressions (no DUEL construct anywhere) print the value alone, as in
//! the paper's `duel 1 + (double)3/2` ⇒ `2.500`, and so do values with
//! no symbolic information (reductions, lazy mode).

use std::collections::HashMap;

use duel_target::Target;

use crate::{
    ast::Expr,
    error::{DuelError, DuelResult},
    eval::{self, EvalOptions},
    parser, printer,
    profile::{ProfileCollector, ProfileReport},
    scope::Ctx,
    value::Value,
};

/// One line of `duel` command output.
#[derive(Clone, Debug, PartialEq)]
pub enum OutputLine {
    /// A produced value: `sym = value` (or just `value` when `sym` is
    /// `None`).
    Value {
        /// The rendered symbolic value, when one should be shown.
        sym: Option<String>,
        /// The rendered actual value.
        value: String,
    },
    /// Program output produced by target calls (e.g. `printf`).
    Stdout(String),
}

impl OutputLine {
    /// Renders the line as the REPL would print it.
    pub fn render(&self) -> String {
        match self {
            OutputLine::Value {
                sym: Some(s),
                value,
            } => format!("{s} = {value}"),
            OutputLine::Value { sym: None, value } => value.clone(),
            OutputLine::Stdout(s) => s.clone(),
        }
    }
}

/// Counters from the most recent evaluation (instrumentation for the
/// experiment harness and the REPL's `.stats`). Reset by every
/// evaluation, so each snapshot describes exactly one command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Top-level values the command produced.
    pub values: u64,
    /// Leaf-generator activations (a machine-independent work measure).
    pub ticks: u64,
    /// Deepest generator nesting reached.
    pub max_depth: u64,
    /// `-->`/`-->>` structure-expansion steps performed.
    pub expansions: u64,
    /// Generator yields across all nodes, leaf and interior (always at
    /// least `values`: every top-level value is also a root yield).
    pub yields: u64,
    /// Values whose computation included at least one read served from
    /// cache while the backend circuit was open (tagged `<stale>` in
    /// the output). Zero unless the tower contains a
    /// `SupervisedTarget` in degraded mode.
    pub stale_values: u64,
    /// Read-ahead calls (with [`EvalOptions::prefetch`] on): scan
    /// windows submitted ahead to an I/O actor, and the vectored
    /// batches of a `-->` over a ranged root. Windows a scan reads when
    /// it reaches them are not counted.
    pub prefetch_calls: u64,
    /// Ranges those calls read cleanly (cache pages of the windows,
    /// ranges of the batches).
    pub prefetch_ranges: u64,
    /// Scan windows submitted ahead (each capped at
    /// [`EvalOptions::prefetch_window`] pages); zero unless the tower
    /// has an I/O actor and pipelining is on.
    pub windows_planned: u64,
    /// Windows that were on the wire while the evaluator kept
    /// consuming: every window submitted ahead, so this equals
    /// `windows_planned`.
    pub windows_inflight: u64,
    /// Nanoseconds of wire time this evaluation overlapped with
    /// evaluator CPU via the asynchronous pipeline (diffed from the
    /// tower's [`duel_target::PipelineHandle`]).
    pub pipeline_overlap_ns: u64,
    /// Causal trace id assigned to this evaluation (0 when no span
    /// context is stacked on the target or span tracing is off). Every
    /// span and attributed wire event of the command carries this id.
    pub trace_id: u64,
}

/// A DUEL session over a debugger backend: holds the aliases created by
/// `:=` and declarations, and the evaluation options.
pub struct Session<'t> {
    target: &'t mut dyn Target,
    aliases: HashMap<String, Value>,
    /// Evaluation options (public so callers can reconfigure).
    pub options: EvalOptions,
    last_stats: EvalStats,
    last_trace: Vec<String>,
}

impl<'t> Session<'t> {
    /// Creates a session with default options.
    pub fn new(target: &'t mut dyn Target) -> Session<'t> {
        Session {
            target,
            aliases: HashMap::new(),
            options: EvalOptions::default(),
            last_stats: EvalStats::default(),
            last_trace: Vec::new(),
        }
    }

    /// Creates a session with explicit options.
    pub fn with_options(target: &'t mut dyn Target, options: EvalOptions) -> Session<'t> {
        Session {
            target,
            aliases: HashMap::new(),
            options,
            last_stats: EvalStats::default(),
            last_trace: Vec::new(),
        }
    }

    /// Parses a command without evaluating it.
    pub fn parse(&mut self, src: &str) -> DuelResult<Expr> {
        let t: &mut dyn Target = &mut *self.target;
        parser::parse(src, &mut |name: &str| t.lookup_typedef(name).is_some())
    }

    /// Evaluates a `duel` command, returning its output lines.
    ///
    /// On an evaluation error, the lines produced before the error are
    /// lost; use [`Session::eval_partial`] to keep them.
    pub fn eval(&mut self, src: &str) -> DuelResult<Vec<OutputLine>> {
        let (lines, err) = self.eval_partial(src)?;
        match err {
            Some(e) => Err(e),
            None => Ok(lines),
        }
    }

    /// Evaluates a command; parse errors are returned as `Err`, but an
    /// evaluation error is returned alongside the lines produced before
    /// it (the paper's sessions print values until the error, then the
    /// error message).
    pub fn eval_partial(&mut self, src: &str) -> DuelResult<(Vec<OutputLine>, Option<DuelError>)> {
        let (lines, err, _) = self.eval_inner(src, false)?;
        Ok((lines, err))
    }

    /// Evaluates a command under the profiler: like
    /// [`Session::eval_partial`], plus a [`ProfileReport`] attributing
    /// ticks and wire reads to each AST node.
    ///
    /// When the target tower contains a
    /// [`duel_target::TraceTarget`], tracing is enabled for the
    /// duration (and restored afterwards) so wire reads can be diffed
    /// across node spans; without one, read columns stay zero.
    pub fn profile(
        &mut self,
        src: &str,
    ) -> DuelResult<(Vec<OutputLine>, Option<DuelError>, ProfileReport)> {
        let (lines, err, report) = self.eval_inner(src, true)?;
        Ok((lines, err, report.expect("profiling was requested")))
    }

    fn eval_inner(
        &mut self,
        src: &str,
        profiling: bool,
    ) -> DuelResult<(Vec<OutputLine>, Option<DuelError>, Option<ProfileReport>)> {
        // Causal tracing: each evaluation is one trace, rooted in one
        // `eval` span that covers parsing, compilation, and the drive
        // loop — so even typedef-lookup wire traffic during parsing has
        // a live ancestor. The root must be popped on *every* return
        // path, parse errors included.
        let span_ctx = self.target.span_context();
        let (root_span, trace_id) = match &span_ctx {
            Some(s) if s.is_enabled() => {
                let trace = s.begin_trace();
                let src_owned = src.to_string();
                let root = s.push(duel_target::SpanKind::Root, "eval", || {
                    crate::profile::clip(&src_owned, 64)
                });
                (root, trace)
            }
            _ => (0, 0),
        };
        let close_root = |spans: &Option<duel_target::SpanContext>| {
            if let Some(s) = spans {
                s.pop(root_span);
            }
        };
        let expr = match self.parse(src) {
            Ok(e) => e,
            Err(e) => {
                close_root(&span_ctx);
                return Err(e);
            }
        };
        // Match the paper's transcripts: a top-level call shows the
        // program output it triggers, not its (uninteresting) return
        // values. The frame-exploration builtins are exempt — their
        // values *are* the output.
        let suppress_values = matches!(
            &expr,
            Expr::Call(name, _)
                if !matches!(name.as_str(), "frames" | "local" | "equal")
        );
        let mut gen = eval::compile(&expr);
        let thr = self.options.compress_threshold;
        // When profiling, enable the nearest TraceTarget (if any) for
        // the duration so node spans can diff its read counter.
        let trace_handle = if profiling {
            self.target.trace_handle()
        } else {
            None
        };
        let trace_was_enabled = trace_handle.as_ref().map(|h| {
            let was = h.is_enabled();
            h.set_enabled(true);
            was
        });
        let reads_before = trace_handle.as_ref().map_or(0, |h| h.wire_turns());
        // A SupervisedTarget in degraded mode serves reads from cache
        // and bumps its staleness counter; diffing the counter around
        // each produced value tags exactly the values built on stale
        // data.
        let stale_handle = self.target.staleness_handle();
        let mut stale_seen = stale_handle.as_ref().map_or(0, |h| h.stale_reads());
        let mut stale_values = 0u64;
        // Same watermark pattern for the pipeline: diff the tower's
        // cumulative overlap counter around the evaluation.
        let pipeline_handle = self.target.pipeline_handle();
        let overlap_before = pipeline_handle.as_ref().map_or(0, |h| h.overlap_ns());
        let mut ctx = Ctx::new(&mut *self.target, &mut self.aliases, self.options.clone());
        if profiling {
            ctx.profile = Some(Box::new(ProfileCollector::new(trace_handle.clone())));
        }
        let mut lines = Vec::new();
        let result = eval::drive(&mut ctx, &mut gen, |ctx, v| {
            // Only target code (a call, an allocation) can print, so
            // drain just after such an op; the end of the command
            // drains the rest.
            if std::mem::take(&mut ctx.ran_target_code) {
                let out = ctx.target.take_output();
                if !out.is_empty() {
                    lines.push(OutputLine::Stdout(out));
                }
            }
            if suppress_values {
                return Ok(());
            }
            // With `error_values` on, a fault while rendering one value
            // (unmapped address, poisoned page) becomes an
            // `<error: ...>` line for that element and the stream
            // continues — the fault is confined to the sub-expression
            // that hit it.
            //
            // Rendering happens after the root generator's span has
            // closed, so its wire reads are charged to a `(display)`
            // pseudo-node — keeping read attribution complete. The
            // causal span mirrors it: display-time wire events hang off
            // a Display span under the evaluation root.
            ctx.profile_enter(crate::profile::DISPLAY_NODE);
            let dspan = ctx.span_enter(duel_target::SpanKind::Display, "display", || {
                v.sym.render(thr)
            });
            let rendered_value = printer::format_value(&mut ctx.target, &v, thr);
            ctx.span_exit(dspan);
            ctx.profile_exit(crate::profile::DISPLAY_NODE, "display", "(display)", false);
            let value = match rendered_value {
                Ok(s) => s,
                Err(e) if ctx.opts.error_values && e.is_fault() => {
                    format!("<error: {e}>")
                }
                Err(e) => return Err(e),
            };
            let value = match &stale_handle {
                Some(h) if h.stale_reads() > stale_seen => {
                    stale_seen = h.stale_reads();
                    stale_values += 1;
                    format!("{value} <stale>")
                }
                _ => value,
            };
            let sym = if v.sym.is_none() {
                None
            } else {
                let rendered = v.sym.render(thr);
                // The symbolic value is shown only when it differs from
                // the typed expression: `duel 1 + (double)3/2` prints
                // `2.500`, while `duel x[1..3] == 7` prints
                // `x[1]==7 = 0` — generator substitution is what makes
                // the symbolic value informative. Also collapse
                // `0 = 0`-style lines where the symbolic value is just
                // the value itself (fully substituted).
                if same_ignoring_whitespace(&rendered, src) || rendered == value {
                    None
                } else {
                    Some(rendered)
                }
            };
            lines.push(OutputLine::Value { sym, value });
            Ok(())
        });
        let windows_ahead = ctx.target.windows_ahead;
        let prefetch_calls = ctx.prefetch_calls + windows_ahead;
        let prefetch_ranges = ctx.prefetch_ranges + ctx.target.ahead_pages;
        let (produced, ticks, max_depth_seen, expansions, yields) = (
            ctx.produced,
            ctx.ticks,
            ctx.max_depth_seen,
            ctx.expansions,
            ctx.yields,
        );
        let collector = ctx.profile.take();
        self.last_trace = std::mem::take(&mut ctx.trace);
        drop(ctx);
        // A terminated scan (`@`, an error, `max_values`) can leave the
        // window it submitted ahead un-polled; complete every leftover
        // so the actor queue is empty before the next command.
        while self.target.prefetch_poll().is_some() {}
        self.last_stats = EvalStats {
            values: produced,
            ticks,
            max_depth: max_depth_seen as u64,
            expansions,
            yields,
            stale_values,
            prefetch_calls,
            prefetch_ranges,
            windows_planned: windows_ahead,
            windows_inflight: windows_ahead,
            pipeline_overlap_ns: pipeline_handle
                .as_ref()
                .map_or(0, |h| h.overlap_ns().saturating_sub(overlap_before)),
            trace_id,
        };
        // Flush any output produced after the last value (or before an
        // error). This is the command's only drain when it ran no
        // target code.
        let out = self.target.take_output();
        if !out.is_empty() {
            lines.push(OutputLine::Stdout(out));
        }
        let report = collector.map(|c| {
            let total_reads = trace_handle.as_ref().map_or(0, |h| h.wire_turns()) - reads_before;
            c.finish(self.last_stats, total_reads)
        });
        if let (Some(h), Some(was)) = (&trace_handle, trace_was_enabled) {
            h.set_enabled(was);
        }
        close_root(&span_ctx);
        Ok((lines, result.err(), report))
    }

    /// Evaluates a command and renders every line as the REPL prints it;
    /// stdout chunks are split on newlines.
    pub fn eval_lines(&mut self, src: &str) -> DuelResult<Vec<String>> {
        let lines = self.eval(src)?;
        Ok(render_lines(&lines))
    }

    /// Creates a session resuming previously saved aliases (REPLs use
    /// this to interleave debugger commands with evaluation).
    pub fn with_state(
        target: &'t mut dyn Target,
        aliases: HashMap<String, Value>,
        options: EvalOptions,
    ) -> Session<'t> {
        Session {
            target,
            aliases,
            options,
            last_stats: EvalStats::default(),
            last_trace: Vec::new(),
        }
    }

    /// Consumes the session, returning its aliases for a later
    /// [`Session::with_state`].
    pub fn into_aliases(self) -> HashMap<String, Value> {
        self.aliases
    }

    /// Counters from the most recent evaluation.
    pub fn last_stats(&self) -> EvalStats {
        self.last_stats
    }

    /// Takes the trace of the most recent evaluation (one line per
    /// generator resumption; empty unless `options.trace` is set).
    pub fn take_trace(&mut self) -> Vec<String> {
        std::mem::take(&mut self.last_trace)
    }

    /// Removes every alias (a fresh debugging session).
    pub fn clear_aliases(&mut self) {
        self.aliases.clear();
    }

    /// The names of currently defined aliases, sorted.
    pub fn alias_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.aliases.keys().cloned().collect();
        v.sort();
        v
    }

    /// Direct access to the backend (for examples and the REPL).
    pub fn target_mut(&mut self) -> &mut dyn Target {
        &mut *self.target
    }
}

/// Whether `a` and `b` are equal once all whitespace is removed.
fn same_ignoring_whitespace(a: &str, b: &str) -> bool {
    a.chars()
        .filter(|c| !c.is_whitespace())
        .eq(b.chars().filter(|c| !c.is_whitespace()))
}

/// Renders output lines to printable strings, splitting stdout chunks on
/// newlines and dropping a trailing empty fragment.
pub fn render_lines(lines: &[OutputLine]) -> Vec<String> {
    let mut out = Vec::new();
    for l in lines {
        match l {
            OutputLine::Stdout(s) => {
                for part in s.split('\n') {
                    if !part.is_empty() {
                        out.push(part.to_string());
                    }
                }
            }
            other => out.push(other.render()),
        }
    }
    out
}

/// Evaluates one expression against `target` in a throwaway session and
/// returns the rendered lines plus the first error, if any.
///
/// This is the one-shot path behind `.query` and `duel-replay --query`:
/// a secondary session (fresh aliases, caller-chosen options) over a
/// synthetic target, with parse errors folded into the error slot so
/// callers have a single reporting path.
pub fn oneshot_lines(
    target: &mut dyn Target,
    expr: &str,
    options: &EvalOptions,
) -> (Vec<String>, Option<DuelError>) {
    let mut session = Session::with_options(target, options.clone());
    match session.eval_partial(expr) {
        Ok((lines, err)) => (render_lines(&lines), err),
        Err(e) => (Vec::new(), Some(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duel_target::scenario;

    #[test]
    fn pure_c_prints_value_only() {
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        assert_eq!(s.eval_lines("1 + (double)3/2").unwrap(), vec!["2.500"]);
        assert_eq!(s.eval_lines("2+3*4").unwrap(), vec!["14"]);
    }

    #[test]
    fn generators_print_symbolically() {
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        assert_eq!(
            s.eval_lines("x[1..3] == 7").unwrap(),
            vec!["x[1]==7 = 0", "x[2]==7 = 0", "x[3]==7 = 1"]
        );
    }

    #[test]
    fn paper_scan_transcript() {
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        assert_eq!(
            s.eval_lines("x[1..4,8,12..50] >? 5 <? 10").unwrap(),
            vec!["x[3] = 7", "x[18] = 9", "x[47] = 6"]
        );
    }

    #[test]
    fn alias_persists_across_commands() {
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        s.eval("v := 40 + 2").unwrap();
        // A bare `v` renders the same symbolic as typed, so only the
        // value prints.
        assert_eq!(s.eval_lines("v").unwrap(), vec!["42"]);
        assert_eq!(s.alias_names(), vec!["v"]);
        s.clear_aliases();
        assert!(s.eval("v").is_err());
    }

    #[test]
    fn trailing_semicolon_suppresses_output() {
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        assert!(s.eval_lines("x[0] = 5 ;").unwrap().is_empty());
        assert_eq!(s.eval_lines("x[0]").unwrap(), vec!["5"]);
        // With a generator index, the symbolic differs and is shown.
        assert_eq!(s.eval_lines("x[0..0]").unwrap(), vec!["x[0] = 5"]);
    }

    #[test]
    fn prefetch_reads_contiguous_scans_in_one_turn() {
        use duel_target::{CacheConfig, CachedTarget, TraceTarget};
        // Wire-level trace *inside* the cache: every recorded call is a
        // real backend turn.
        let run = |prefetch: bool| {
            let wire = TraceTarget::with_label(scenario::scan_array(), "wire");
            let handle = wire.handle();
            handle.set_enabled(true);
            let mut t = CachedTarget::with_config(
                wire,
                CacheConfig {
                    page_size: 16,
                    ..CacheConfig::default()
                },
            );
            let mut s = Session::new(&mut t);
            s.options.prefetch = prefetch;
            let lines = s.eval_lines("x[..60]").unwrap();
            let stats = s.last_stats();
            (lines, stats, handle.wire_turns())
        };
        let (base_lines, base_stats, base_turns) = run(false);
        let (pf_lines, pf_stats, pf_turns) = run(true);
        // Identical output. 240 bytes / 16-byte pages is 15 pages: the
        // scan window reads them in one vectored call, and without it
        // each page is filled on its first load.
        assert_eq!(base_lines, pf_lines);
        assert_eq!(base_turns, 15);
        assert_eq!(pf_turns, 1);
        // No I/O actor: nothing is submitted ahead.
        assert_eq!(base_stats.prefetch_calls, 0);
        assert_eq!(pf_stats.prefetch_calls, 0);
        assert_eq!(pf_stats.windows_planned, 0);
    }

    #[test]
    fn an_actor_keeps_one_window_of_a_huge_scan_in_flight() {
        use duel_target::{AsyncTarget, CacheConfig, CachedTarget, Target};
        // A 100k-element scan is read in bounded windows, never one
        // giant vectored call, with the next window on the wire while
        // the evaluator consumes the current one.
        let mut t = CachedTarget::with_config(
            AsyncTarget::spawned(scenario::bench_array(100_000, 7)),
            CacheConfig {
                page_size: 64,
                max_pages: 4096,
                ..CacheConfig::default()
            },
        );
        let mut s = Session::new(&mut t);
        s.options.max_values = 200_000;
        let lines = s.eval_lines("#/(x[..100000] >? 0)").unwrap();
        assert_eq!(lines.len(), 1);
        let stats = s.last_stats();
        // 100000 × 4 bytes / (64 pages × 64 bytes) = 97.65 → 98
        // windows: the first is read when the scan reaches it, every
        // other one is submitted ahead.
        assert_eq!(stats.windows_inflight, 97, "{stats:?}");
        assert_eq!(stats.prefetch_calls, 97);
        // Window k is polled before window k+1 is submitted.
        let p = t.pipeline_handle().unwrap().stats();
        assert_eq!((p.submits, p.completions), (97, 97));
        assert_eq!(p.max_queue_depth, 1, "{p:?}");
    }

    #[test]
    fn eval_partial_reports_errors_after_values() {
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        // `x` has 60 elements; indexing beyond the data region will
        // eventually fault, after producing some values.
        let (lines, err) = s.eval_partial("nonexistent").unwrap();
        assert!(lines.is_empty());
        assert!(matches!(err, Some(DuelError::Undefined { .. })));
    }
}
