//! The towers under measurement.
//!
//! *Shipped* towers are composed exactly as the program composes them:
//! the sim tower as the `duel` REPL's built-in backend does, the MI
//! tower by `duel_gdbmi::connect_supervised`, and the mini-C tower is
//! the REPL's own. End-to-end metrics come from these. *Mirror* towers
//! are the same layers rebuilt from the crates' public types with a
//! [`Shim`] between every pair; the traced run measures these, and
//! `fidelity` proves they behave identically.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use duel_core::{EvalOptions, EvalStats, Session, Value};
use duel_gdbmi::{connect_supervised, MiTarget, MockGdb, SupervisedMi, WatchdogTransport};
use duel_minic::{Debugger, StopReason};
use duel_target::{
    AsyncTarget, CacheConfig, CacheStats, CachedTarget, ChaosTarget, MetricsRegistry, RecordTarget,
    RetryPolicy, RetryStats, RetryTarget, SimTarget, SupervisedTarget, SupervisorConfig,
    SupervisorStats, Target, TargetResult, TraceHandle, TraceTarget,
};

use crate::shim::{Probe, Shim, Tap, WireStats};

/// Per-MI-turn deadline of the watchdog (generous: the mock never hangs).
pub const TURN_DEADLINE: Duration = Duration::from_secs(30);

/// A tower's cache, retry and supervisor counters.
pub type Counters = (CacheStats, RetryStats, SupervisorStats);

/// Decorator layers of the sim tower, outermost first.
pub const SIM_LAYERS: [&str; 7] = [
    "trace",
    "supervise",
    "retry",
    "cache",
    "record",
    "async",
    "chaos",
];

/// Decorator layers of the MI tower, outermost first.
pub const MI_LAYERS: [&str; 4] = ["trace", "supervise", "retry", "cache"];

/// The REPL's decorator tower over a backend `T`.
pub type Tower<T> = TraceTarget<SupervisedTarget<RetryTarget<CachedTarget<RecordTarget<T>>>>>;

/// The `duel` binary's built-in sim backend.
pub type SimShipped = Tower<AsyncTarget<ChaosTarget<SimTarget>>>;

/// The sim tower as the REPL composes it (cache on, prefetch and
/// pipeline off: the shipped defaults).
pub fn shipped_sim(sim: SimTarget) -> SimShipped {
    TraceTarget::with_label(
        SupervisedTarget::new(RetryTarget::new(CachedTarget::with_config(
            RecordTarget::new(AsyncTarget::new(ChaosTarget::new(sim))),
            CacheConfig {
                enabled: true,
                ..CacheConfig::default()
            },
        ))),
        "session",
    )
}

/// The REPL's decorator tower from the trace layer down to the cache,
/// with a [`Shim`] above every layer; `C` is the cache's inner stack.
pub type Mirror<C> =
    Shim<TraceTarget<Shim<SupervisedTarget<Shim<RetryTarget<Shim<CachedTarget<C>>>>>>>>;

/// [`SimShipped`] with a [`Shim`] above every layer and above the
/// simulator itself.
pub type SimMirror =
    Mirror<Shim<RecordTarget<Shim<AsyncTarget<Shim<ChaosTarget<Shim<SimTarget>>>>>>>>;

/// A mirror tower's cache, retry and supervisor counters.
pub fn mirror_stats<C: Target>(m: &Mirror<C>) -> Counters {
    let sup = m.inner().inner().inner();
    let retry = sup.inner().inner();
    let cache = retry.inner().inner();
    (cache.stats().clone(), retry.stats(), sup.stats())
}

/// A mirror tower's cache layer.
pub fn mirror_cache<C: Target>(m: &mut Mirror<C>) -> &mut CachedTarget<C> {
    let sup = m.inner_mut().inner_mut().inner_mut();
    sup.inner_mut().inner_mut().inner_mut().inner_mut()
}

/// One probe above each of [`SIM_LAYERS`], then one above the
/// simulator (the backend).
pub fn sim_probes() -> Vec<Arc<Probe>> {
    (0..=SIM_LAYERS.len()).map(|_| Probe::new()).collect()
}

/// Builds the sim mirror; `p` comes from [`sim_probes`].
pub fn mirror_sim(sim: SimTarget, p: &[Arc<Probe>]) -> SimMirror {
    let gate = ChaosTarget::new(Shim::new(sim, &p[7]));
    let actor = AsyncTarget::new(Shim::new(gate, &p[6]));
    let cache = CachedTarget::with_config(
        Shim::new(RecordTarget::new(Shim::new(actor, &p[5])), &p[4]),
        CacheConfig {
            enabled: true,
            ..CacheConfig::default()
        },
    );
    let sup = SupervisedTarget::new(Shim::new(RetryTarget::new(Shim::new(cache, &p[3])), &p[2]));
    Shim::new(
        TraceTarget::with_label(Shim::new(sup, &p[1]), "session"),
        &p[0],
    )
}

/// A shipped tower's cache, retry and supervisor counters.
pub fn shipped_stats<C: Target>(
    t: &TraceTarget<SupervisedTarget<RetryTarget<CachedTarget<C>>>>,
) -> Counters {
    let sup = t.inner();
    let retry = sup.inner();
    (retry.inner().stats().clone(), retry.stats(), sup.stats())
}

/// Moves the shipped sim tower's backend on or off its I/O actor
/// thread (the REPL's `.set pipeline on|off`).
pub fn set_shipped_pipeline(t: &mut SimShipped, on: bool) {
    let record = t.inner_mut().inner_mut().inner_mut().inner_mut();
    record.inner_mut().set_async(on);
}

/// [`set_shipped_pipeline`] for the mirror.
pub fn set_mirror_pipeline(m: &mut SimMirror, on: bool) {
    let record = mirror_cache(m).inner_mut().inner_mut();
    record.inner_mut().inner_mut().set_async(on);
}

/// The MI tower `connect_supervised` ships, under the REPL's
/// session-level trace layer.
pub type MiShipped = TraceTarget<SupervisedMi<Tap>>;

/// Connects the shipped MI tower to a mock gdb serving `make()`; the
/// same factory respawns it on reconnect.
pub fn shipped_mi(
    make: impl Fn() -> SimTarget + Send + 'static,
    wire: &Arc<WireStats>,
) -> TargetResult<MiShipped> {
    let wire = wire.clone();
    let tower = connect_supervised(
        move || Ok(Tap::new(MockGdb::new(make()), &wire)),
        RetryPolicy::default(),
        CacheConfig::default(),
        SupervisorConfig::default(),
        TURN_DEADLINE,
    )?;
    Ok(TraceTarget::with_label(tower, "session"))
}

/// [`MiShipped`] with a [`Shim`] above every layer and above the MI
/// adapter.
pub type MiMirror = Mirror<Shim<MiTarget<WatchdogTransport<Tap>>>>;

/// One probe above each of [`MI_LAYERS`], then one above the adapter.
pub fn mi_probes() -> Vec<Arc<Probe>> {
    (0..=MI_LAYERS.len()).map(|_| Probe::new()).collect()
}

/// Builds the MI mirror over a mock gdb serving `sim`. Its supervisor
/// uses the probe-only reconnect strategy (`MiResync` is typed to the
/// unshimmed tower); no run of this benchmark ever reconnects.
pub fn mirror_mi(
    sim: SimTarget,
    wire: &Arc<WireStats>,
    p: &[Arc<Probe>],
) -> TargetResult<MiMirror> {
    let mi = MiTarget::connect(WatchdogTransport::new(
        Tap::new(MockGdb::new(sim), wire),
        TURN_DEADLINE,
    ))?;
    let cache = CachedTarget::with_config(Shim::new(mi, &p[4]), CacheConfig::default());
    let retry = RetryTarget::with_policy(Shim::new(cache, &p[3]), RetryPolicy::default());
    let sup = SupervisedTarget::with_config(Shim::new(retry, &p[2]), SupervisorConfig::default());
    Ok(Shim::new(
        TraceTarget::with_label(Shim::new(sup, &p[1]), "session"),
        &p[0],
    ))
}

/// Decorator layers of the REPL's tower over a mini-C program,
/// outermost first.
pub const MINIC_LAYERS: [&str; 5] = ["trace", "supervise", "retry", "cache", "record"];

/// The REPL's tower over the mini-C debugger with a [`Shim`] above
/// every layer and above the debugger.
pub type MinicMirror = Mirror<Shim<RecordTarget<Shim<Debugger>>>>;

/// One probe above each of [`MINIC_LAYERS`], then one above the
/// debugger.
pub fn minic_probes() -> Vec<Arc<Probe>> {
    (0..=MINIC_LAYERS.len()).map(|_| Probe::new()).collect()
}

/// Builds the mini-C mirror over `d`, as `.load` builds the REPL's
/// tower (cache on); `p` comes from [`minic_probes`].
pub fn mirror_minic(d: Debugger, p: &[Arc<Probe>]) -> MinicMirror {
    let cache = CachedTarget::with_config(
        Shim::new(RecordTarget::new(Shim::new(d, &p[5])), &p[4]),
        CacheConfig {
            enabled: true,
            ..CacheConfig::default()
        },
    );
    let sup = SupervisedTarget::new(Shim::new(RetryTarget::new(Shim::new(cache, &p[3])), &p[2]));
    Shim::new(
        TraceTarget::with_label(Shim::new(sup, &p[1]), "session"),
        &p[0],
    )
}

/// Drives the mini-C mirror the way `Repl::handle` drives a loaded
/// program: `.load` builds the tower, the debugger commands the
/// workload uses go to the debugger (past the decorators, as in the
/// REPL) and invalidate the cache after a resume, and DUEL lines go
/// to a [`Console`].
pub struct MinicConsole {
    /// The loaded program's console, once `.load` has run.
    pub console: Option<Console<MinicMirror>>,
    probes: Vec<Arc<Probe>>,
}

impl MinicConsole {
    /// A console with no program loaded; `p` comes from
    /// [`minic_probes`].
    pub fn new(p: &[Arc<Probe>]) -> MinicConsole {
        MinicConsole {
            console: None,
            probes: p.to_vec(),
        }
    }

    /// Runs one line, appending its output to `out`.
    pub fn exec(&mut self, line: &str, out: &mut String) {
        let (cmd, arg) = line.split_once(' ').unwrap_or((line, ""));
        if cmd == ".load" {
            let src = std::fs::read_to_string(arg).map_err(|e| format!("cannot read `{arg}`: {e}"));
            match src.and_then(|s| Debugger::new(&s).map_err(|e| format!("compile error: {e}"))) {
                Ok(d) => {
                    self.console = Some(Console::new(mirror_minic(d, &self.probes)));
                    let _ = writeln!(out, "compiled `{arg}`; set breakpoints and .run");
                }
                Err(e) => {
                    let _ = writeln!(out, "{e}");
                }
            }
            return;
        }
        let Some(c) = &mut self.console else {
            let _ = writeln!(out, "no program loaded (use `.load file.c` first)");
            return;
        };
        let cache = mirror_cache(&mut c.tower);
        let dbg = cache.inner_mut().inner_mut().inner_mut().inner_mut();
        match cmd {
            ".break" => match arg.parse::<u32>() {
                Ok(n) => {
                    dbg.add_breakpoint(n);
                    let _ = writeln!(out, "breakpoint at line {n}");
                }
                Err(_) => {
                    let _ = writeln!(out, "usage: .break LINE");
                }
            },
            ".run" | ".cont" => {
                let r = if cmd == ".run" { dbg.run() } else { dbg.cont() };
                let _ = match r {
                    Ok(StopReason::Breakpoint { line }) => {
                        writeln!(out, "breakpoint hit at line {line}")
                    }
                    Ok(StopReason::Step { line }) => writeln!(out, "stopped at line {line}"),
                    Ok(StopReason::Watchpoint { line }) => {
                        writeln!(out, "watchpoint fired at line {line}")
                    }
                    Ok(StopReason::Exited { code }) => {
                        writeln!(out, "program exited with code {code}")
                    }
                    Err(e) => writeln!(out, "runtime error: {e}"),
                };
                out.push_str(&dbg.take_output());
                cache.invalidate_all();
            }
            ".step" => {
                let _ = match dbg.step_line() {
                    Ok(StopReason::Step { line }) => writeln!(out, "line {line}"),
                    Ok(StopReason::Exited { code }) => {
                        writeln!(out, "program exited with code {code}")
                    }
                    Ok(other) => writeln!(out, "{other:?}"),
                    Err(e) => writeln!(out, "runtime error: {e}"),
                };
                cache.invalidate_all();
            }
            _ => c.exec(line, out),
        }
    }
}

/// Drives DUEL commands against a tower the way `Repl::handle` drives
/// its own: one [`Session`] per command over the persistent aliases,
/// output rendered line by line, errors printed after the values, the
/// evaluator's trace lines after those, and the command charged to a
/// live metrics registry. The REPL also arms a deadline on its retry
/// layer when `.set timeout` is on; that is off by default, and the
/// console leaves it out.
pub struct Console<T: Target> {
    /// The tower.
    pub tower: T,
    aliases: HashMap<String, Value>,
    /// Evaluation options (the REPL's defaults unless changed).
    pub options: EvalOptions,
    /// Counters of the last command.
    pub last: EvalStats,
    /// Wall time of the last command's evaluation (parse, evaluate,
    /// render values), without session set-up and output formatting.
    pub eval_ns: u64,
    trace: Option<TraceHandle>,
    metrics: MetricsRegistry,
    /// Per-op (calls, errors, ns) of the trace handle at the previous
    /// command.
    wire_seen: HashMap<&'static str, (u64, u64, u64)>,
}

impl<T: Target> Console<T> {
    /// A console over `tower` with the REPL's default options.
    pub fn new(tower: T) -> Console<T> {
        Console {
            trace: tower.trace_handle(),
            tower,
            aliases: HashMap::new(),
            options: duel_cli::Repl::default_options(),
            last: EvalStats::default(),
            eval_ns: 0,
            metrics: MetricsRegistry::new(),
            wire_seen: HashMap::new(),
        }
    }

    /// Evaluates one command, appending its output to `out`.
    pub fn exec(&mut self, line: &str, out: &mut String) {
        let mut session = Session::with_state(
            &mut self.tower,
            std::mem::take(&mut self.aliases),
            self.options.clone(),
        );
        let t0 = Instant::now();
        let result = session.eval_partial(line);
        self.eval_ns = t0.elapsed().as_nanos() as u64;
        match result {
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
        self.last = session.last_stats();
        for line in session.take_trace() {
            let _ = writeln!(out, "| {line}");
        }
        self.aliases = session.into_aliases();
        self.feed_metrics();
    }

    /// The REPL's per-command metrics feed: evaluator counters, and the
    /// trace handle's per-op totals as deltas since the last command.
    fn feed_metrics(&mut self) {
        let (s, m) = (&self.last, &self.metrics);
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
        let Some(trace) = &self.trace else { return };
        let (mut wire_ns, mut wire_calls) = (0, 0);
        for o in &trace.snapshot().ops {
            let prev = self
                .wire_seen
                .insert(o.op.name(), (o.calls, o.errors, o.total_ns))
                .unwrap_or((0, 0, 0));
            let calls = o.calls.saturating_sub(prev.0);
            let errors = o.errors.saturating_sub(prev.1);
            let ns = o.total_ns.saturating_sub(prev.2);
            if calls == 0 && errors == 0 {
                continue;
            }
            m.counter(&format!("wire.{}.calls", o.op.name())).add(calls);
            if errors > 0 {
                m.counter(&format!("wire.{}.errors", o.op.name()))
                    .add(errors);
            }
            m.counter(&format!("wire.{}.ns", o.op.name())).add(ns);
            wire_ns += ns;
            wire_calls += calls;
        }
        if wire_calls > 0 {
            m.histogram("wire.calls_per_command").observe(wire_calls);
            m.histogram("wire.ns_per_command").observe(wire_ns);
        }
    }
}
