//! [`SupervisedTarget`] — backend liveness ownership for the tower.
//!
//! Retry (PR 1) absorbs *hiccups*; this layer handles a backend that
//! *stays* sick. It wraps the retrying stack with a three-state circuit
//! breaker and a pluggable [`Reconnect`] strategy:
//!
//! * **Closed** — every operation's outcome feeds a sliding failure
//!   window (plus an optional periodic health probe piggybacked every
//!   [`SupervisorConfig::probe_every`] operations). Faults — the
//!   debuggee's honest "no" — count as *successes* here: a backend that
//!   answers "illegal memory reference" is alive and well. Too many
//!   transient failures (rate over the window, or a consecutive run)
//!   trip the breaker.
//! * **Open** — mutating and control operations (`put_bytes`,
//!   `alloc_space`, `call_func`) fail fast with
//!   [`TargetError::CircuitOpen`] instead of waiting out another doomed
//!   round-trip. Reads are still forwarded when
//!   [`SupervisorConfig::degrade`] is on: a [`crate::CachedTarget`]
//!   below can serve them from its pages, and every read answered while
//!   the circuit is open is *marked stale* through the shared
//!   [`StalenessHandle`] (the evaluator renders such values with a
//!   `<stale>` tag). A read that would need the wire converts its
//!   transient failure into `CircuitOpen`.
//! * **Half-open** — once [`SupervisorConfig::cooldown`] has elapsed,
//!   the next operation first runs the [`Reconnect`] strategy
//!   (re-establish the backend, resync session state: cache epoch,
//!   symbols, type table — see [`ResyncReport`]) and then a health
//!   probe. Success closes the circuit; failure re-opens it and
//!   restarts the cooldown.
//!
//! The stacking order is `Trace<Supervised<Retry<Cached<Record<_>>>>>`:
//! supervision sits *outside* retry so a transient that reaches it has
//! already exhausted its retry budget — one window entry per operation,
//! not per attempt.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{TargetError, TargetResult};
use crate::iface::Target;
use crate::op::{Op, Reply};

/// The circuit breaker's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitState {
    /// Backend believed healthy; operations flow normally.
    Closed,
    /// Backend believed dead; fail fast / serve stale until cooldown.
    Open,
    /// Cooldown elapsed; the next operation attempts a reconnect.
    HalfOpen,
}

impl CircuitState {
    /// Lower-case label for `.stats` / `.health` output.
    pub fn name(self) -> &'static str {
        match self {
            CircuitState::Closed => "closed",
            CircuitState::Open => "open",
            CircuitState::HalfOpen => "half-open",
        }
    }
}

/// Tuning knobs for a [`SupervisedTarget`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Sliding window of recent operation outcomes used for the
    /// failure-rate trip condition.
    pub window: usize,
    /// Trip when at least this fraction of the window failed (once
    /// [`SupervisorConfig::min_samples`] outcomes are in it).
    pub trip_failure_rate: f64,
    /// Minimum outcomes in the window before the rate condition can
    /// trip (protects a fresh session from one early blip).
    pub min_samples: usize,
    /// Trip immediately after this many *consecutive* transient
    /// failures, regardless of the window (0 disables).
    pub trip_consecutive: u32,
    /// How long an open circuit waits before allowing a half-open
    /// reconnect attempt. `Duration::ZERO` makes the very next
    /// operation attempt recovery (what deterministic tests use).
    pub cooldown: Duration,
    /// While open, forward reads so the page cache below can answer
    /// them (marked stale). Off = every operation fails fast.
    pub degrade: bool,
    /// Piggyback a health probe after every Nth operation while closed
    /// (0 = only per-operation outcomes feed the breaker).
    pub probe_every: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            window: 16,
            trip_failure_rate: 0.5,
            min_samples: 4,
            trip_consecutive: 3,
            cooldown: Duration::from_millis(250),
            degrade: true,
            probe_every: 0,
        }
    }
}

impl SupervisorConfig {
    /// A config for tests: trips after `n` consecutive failures and
    /// retries recovery on the very next operation (no real cooldown).
    pub fn fast(n: u32) -> SupervisorConfig {
        SupervisorConfig {
            trip_consecutive: n,
            cooldown: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }
}

/// Counters describing what a [`SupervisedTarget`] has seen and done.
/// Cumulative since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Supervised operations attempted (reads, writes, allocs, calls).
    pub operations: u64,
    /// Operations that came back with a transient failure.
    pub failures: u64,
    /// Health probes run (periodic, piggybacked, or explicit).
    pub probes: u64,
    /// Probes that found the backend sick.
    pub probe_failures: u64,
    /// Closed → open transitions.
    pub trips: u64,
    /// Successful reconnect + resync cycles (half-open → closed).
    pub reconnects: u64,
    /// Reconnect attempts that failed (half-open → open again).
    pub reconnect_failures: u64,
    /// Operations rejected immediately with
    /// [`TargetError::CircuitOpen`] while the breaker was open.
    pub fast_fails: u64,
    /// Reads answered while the circuit was open (served stale).
    pub stale_reads: u64,
}

/// What a [`Reconnect::reconnect`] resync re-established, for `.health`
/// output and post-mortem logs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResyncReport {
    /// Symbols re-resolved and verified against the new backend.
    pub symbols: usize,
    /// Stack frames visible after the resync.
    pub frames: usize,
    /// Whether the type-table snapshot matched the reconnected
    /// backend's view (a mismatch means the debuggee was rebuilt).
    pub type_table_ok: bool,
    /// Human-readable summary ("respawned MI process", …).
    pub detail: String,
}

impl ResyncReport {
    /// Renders the report as one `.health` line.
    pub fn render(&self) -> String {
        format!(
            "resync: {} symbols, {} frames, type table {}{}{}",
            self.symbols,
            self.frames,
            if self.type_table_ok {
                "verified"
            } else {
                "MISMATCH"
            },
            if self.detail.is_empty() { "" } else { " — " },
            self.detail
        )
    }
}

/// How a [`SupervisedTarget`] checks and restores backend liveness.
///
/// `probe` must be cheap and side-effect free; `reconnect` may be
/// expensive (respawn a process, re-handshake, resync session state).
/// Both receive the *wrapped* tower, so a concrete strategy written
/// against the concrete tower type can drill down to the cache layer
/// (epoch invalidation) or the raw backend (respawn).
pub trait Reconnect<T: Target>: Send {
    /// Checks liveness. A *fault* reply proves the backend is alive
    /// (it answered); only transport-level failures mean sickness.
    fn probe(&mut self, inner: &mut T) -> TargetResult<()>;

    /// Re-establishes the backend and resyncs session state. `Ok`
    /// means the tower is usable again.
    fn reconnect(&mut self, inner: &mut T) -> TargetResult<ResyncReport>;
}

/// The canonical probe address: intentionally *unmapped* (below
/// [`crate::sim::ARENA_BASE`] and any realistic text segment). The
/// fault reply is the liveness signal, and because a failed page fetch
/// is never cached, a [`crate::CachedTarget`] below can never mask a
/// dead wire by answering the probe from a cached page.
pub const DEFAULT_PROBE_ADDR: u64 = 0x10;

/// The default [`Reconnect`]: probes by reading one byte at a known
/// address (a fault reply counts as alive) and "reconnects" by probing
/// — the right strategy for in-process backends that heal themselves
/// (a revived chaos target, a recovered pipe).
#[derive(Clone, Debug)]
pub struct ProbeReconnect {
    /// Address probed with a 1-byte read; defaults to
    /// [`DEFAULT_PROBE_ADDR`].
    pub probe_addr: u64,
}

impl Default for ProbeReconnect {
    fn default() -> ProbeReconnect {
        ProbeReconnect {
            probe_addr: DEFAULT_PROBE_ADDR,
        }
    }
}

/// Runs the canonical 1-byte liveness probe against any target:
/// `Ok`/fault = alive, transient = sick. Concrete [`Reconnect`]
/// strategies reuse this.
pub fn probe_read<T: Target>(inner: &mut T, addr: u64) -> TargetResult<()> {
    let mut b = [0u8; 1];
    match inner.get_bytes(addr, &mut b) {
        Ok(()) => Ok(()),
        Err(e) if e.is_fault() => Ok(()),
        Err(e) => Err(e),
    }
}

impl<T: Target> Reconnect<T> for ProbeReconnect {
    fn probe(&mut self, inner: &mut T) -> TargetResult<()> {
        probe_read(inner, self.probe_addr)
    }

    fn reconnect(&mut self, inner: &mut T) -> TargetResult<ResyncReport> {
        self.probe(inner)?;
        Ok(ResyncReport {
            symbols: 0,
            frames: inner.frame_count(),
            type_table_ok: true,
            detail: "probe-only reconnect (in-process backend)".to_string(),
        })
    }
}

struct StaleShared {
    /// Reads served while the circuit was open (monotonic).
    stale_reads: AtomicU64,
    /// 1 while the owning breaker is open/half-open, 0 when closed.
    degraded: AtomicU64,
}

/// A cloneable view onto a [`SupervisedTarget`]'s staleness state.
///
/// Like [`crate::trace::TraceHandle`], the handle outlives borrows of
/// the tower, which lets the evaluator diff the stale-read counter
/// around each produced value while holding only `&mut dyn Target` —
/// the mechanism behind the `<stale>` value tag.
#[derive(Clone)]
pub struct StalenessHandle(Arc<StaleShared>);

impl Default for StalenessHandle {
    fn default() -> StalenessHandle {
        StalenessHandle::new()
    }
}

impl std::fmt::Debug for StalenessHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StalenessHandle")
            .field("stale_reads", &self.stale_reads())
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

impl StalenessHandle {
    /// A fresh handle: no stale reads, not degraded.
    pub fn new() -> StalenessHandle {
        StalenessHandle(Arc::new(StaleShared {
            stale_reads: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }))
    }

    /// Total reads served while the circuit was open (monotonic — diff
    /// it across a span to learn whether that span saw stale data).
    pub fn stale_reads(&self) -> u64 {
        self.0.stale_reads.load(Ordering::Relaxed)
    }

    /// Whether the owning breaker is currently non-closed.
    pub fn is_degraded(&self) -> bool {
        self.0.degraded.load(Ordering::Relaxed) != 0
    }

    fn mark_stale(&self) {
        self.0.stale_reads.fetch_add(1, Ordering::Relaxed);
    }

    fn set_degraded(&self, on: bool) {
        self.0.degraded.store(u64::from(on), Ordering::Relaxed);
    }
}

/// Whether an operation may be served stale while the circuit is open.
/// A [`Target`] decorator that owns backend liveness: health probes, a
/// circuit breaker, reconnection with session resync, and degraded
/// stale reads. See the module docs for the state machine.
pub struct SupervisedTarget<T: Target> {
    inner: T,
    cfg: SupervisorConfig,
    strategy: Box<dyn Reconnect<T>>,
    state: CircuitState,
    /// Recent outcomes, `true` = transient failure.
    window: VecDeque<bool>,
    /// Failures currently inside `window`, so the hot path never scans.
    window_failures: usize,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    stats: SupervisorStats,
    staleness: StalenessHandle,
    last_resync: Option<ResyncReport>,
    last_failure: Option<String>,
    /// Shared span timeline (installed by the trace layer above);
    /// breaker trips, fast-fails, stale serves and recoveries become
    /// instant `supervise` markers under the causing node's span.
    spans: Option<crate::span::SpanContext>,
}

impl<T: Target> std::fmt::Debug for SupervisedTarget<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedTarget")
            .field("state", &self.state)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<T: Target> SupervisedTarget<T> {
    /// Wraps `inner` with the default config and the probe-only
    /// reconnect strategy.
    pub fn new(inner: T) -> SupervisedTarget<T> {
        SupervisedTarget::with_config(inner, SupervisorConfig::default())
    }

    /// Wraps `inner` with an explicit config (probe-only reconnect).
    pub fn with_config(inner: T, cfg: SupervisorConfig) -> SupervisedTarget<T> {
        SupervisedTarget::with_strategy(inner, cfg, Box::new(ProbeReconnect::default()))
    }

    /// Wraps `inner` with an explicit config and reconnect strategy.
    pub fn with_strategy(
        inner: T,
        cfg: SupervisorConfig,
        strategy: Box<dyn Reconnect<T>>,
    ) -> SupervisedTarget<T> {
        SupervisedTarget {
            inner,
            cfg,
            strategy,
            state: CircuitState::Closed,
            window: VecDeque::new(),
            window_failures: 0,
            consecutive_failures: 0,
            opened_at: None,
            stats: SupervisorStats::default(),
            staleness: StalenessHandle::new(),
            last_resync: None,
            last_failure: None,
            spans: None,
        }
    }

    /// Drops an instant `supervise` marker on the span timeline.
    fn span_mark(&self, name: &'static str, detail: impl FnOnce() -> String) {
        if let Some(s) = &self.spans {
            s.instant(crate::span::SpanKind::Supervise, name, detail);
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

    /// Unwraps the decorator.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// The breaker's current state.
    pub fn state(&self) -> CircuitState {
        self.state
    }

    /// The counter set accumulated so far (stale reads included).
    pub fn stats(&self) -> SupervisorStats {
        SupervisorStats {
            stale_reads: self.staleness.stale_reads(),
            ..self.stats
        }
    }

    /// The staleness view shared with the evaluator.
    pub fn staleness(&self) -> StalenessHandle {
        self.staleness.clone()
    }

    /// The most recent successful resync, if any.
    pub fn last_resync(&self) -> Option<&ResyncReport> {
        self.last_resync.as_ref()
    }

    /// The most recent transient failure message, if any.
    pub fn last_failure(&self) -> Option<&str> {
        self.last_failure.as_deref()
    }

    /// The active config.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Turns degraded stale-read mode on or off (the `.set degrade`
    /// command).
    pub fn set_degrade(&mut self, on: bool) {
        self.cfg.degrade = on;
    }

    /// Runs an explicit health probe, feeding the breaker exactly like
    /// an operation outcome (the `.health` command). While open, this
    /// fails fast until the cooldown has elapsed, then attempts
    /// recovery.
    pub fn health_check(&mut self) -> TargetResult<()> {
        match self.state {
            CircuitState::Closed => self.probe(),
            CircuitState::Open | CircuitState::HalfOpen => {
                if !self.cooldown_elapsed() {
                    self.stats.fast_fails += 1;
                    return Err(self.circuit_open_error());
                }
                self.try_recover().map(|_| ())
            }
        }
    }

    /// Forces a reconnect + resync attempt right now, regardless of
    /// breaker state or cooldown. Success closes the circuit.
    pub fn force_reconnect(&mut self) -> TargetResult<ResyncReport> {
        self.try_recover()
    }

    fn cooldown_elapsed(&self) -> bool {
        match self.opened_at {
            Some(t) => t.elapsed() >= self.cfg.cooldown,
            None => true,
        }
    }

    fn circuit_open_error(&self) -> TargetError {
        let retry_in_ms = match self.opened_at {
            Some(t) => {
                let waited = t.elapsed();
                self.cfg
                    .cooldown
                    .saturating_sub(waited)
                    .as_millis()
                    .min(u64::MAX as u128) as u64
            }
            None => 0,
        };
        TargetError::CircuitOpen { retry_in_ms }
    }

    fn push_outcome(&mut self, failed: bool) {
        self.window.push_back(failed);
        self.window_failures += usize::from(failed);
        while self.window.len() > self.cfg.window.max(1) {
            if self.window.pop_front() == Some(true) {
                self.window_failures -= 1;
            }
        }
    }

    fn record_success(&mut self) {
        self.consecutive_failures = 0;
        // Hot path: a saturated all-green window stays a saturated
        // all-green window, so there is nothing to rotate.
        if self.window_failures == 0 && self.window.len() >= self.cfg.window.max(1) {
            return;
        }
        self.push_outcome(false);
    }

    /// Records a transient outcome and trips the breaker when either
    /// condition (consecutive run, window rate) is met.
    fn record_failure(&mut self) {
        self.stats.failures += 1;
        self.consecutive_failures += 1;
        self.push_outcome(true);
        let consecutive_trip =
            self.cfg.trip_consecutive > 0 && self.consecutive_failures >= self.cfg.trip_consecutive;
        let failed = self.window_failures;
        let rate_trip = self.window.len() >= self.cfg.min_samples.max(1)
            && (failed as f64) >= self.cfg.trip_failure_rate * self.window.len() as f64;
        if consecutive_trip || rate_trip {
            self.trip();
        }
    }

    fn trip(&mut self) {
        self.state = CircuitState::Open;
        self.stats.trips += 1;
        self.opened_at = Some(Instant::now());
        self.staleness.set_degraded(true);
        let (fails, window) = (self.window_failures, self.window.len());
        let consecutive = self.consecutive_failures;
        self.span_mark("breaker-trip", || {
            format!("{fails}/{window} in window, {consecutive} consecutive")
        });
    }

    /// Half-open: reconnect + resync + probe. Success closes the
    /// circuit; failure re-opens it and restarts the cooldown.
    fn try_recover(&mut self) -> TargetResult<ResyncReport> {
        self.state = CircuitState::HalfOpen;
        match self.strategy.reconnect(&mut self.inner) {
            Ok(report) => {
                self.stats.probes += 1;
                match self.strategy.probe(&mut self.inner) {
                    Ok(()) => {
                        self.state = CircuitState::Closed;
                        self.stats.reconnects += 1;
                        self.opened_at = None;
                        self.window.clear();
                        self.window_failures = 0;
                        self.consecutive_failures = 0;
                        self.staleness.set_degraded(false);
                        self.last_resync = Some(report.clone());
                        self.span_mark("recovered", || {
                            format!("resync: {} symbols", report.symbols)
                        });
                        Ok(report)
                    }
                    Err(e) => {
                        self.stats.probe_failures += 1;
                        self.reopen(&e);
                        Err(e)
                    }
                }
            }
            Err(e) => {
                self.reopen(&e);
                Err(TargetError::BackendDown(format!("reconnect failed: {e}")))
            }
        }
    }

    fn reopen(&mut self, e: &TargetError) {
        self.stats.reconnect_failures += 1;
        self.last_failure = Some(e.to_string());
        self.state = CircuitState::Open;
        self.opened_at = Some(Instant::now());
        self.staleness.set_degraded(true);
    }

    /// Supervises one fallible op: the breaker gates it and its
    /// outcome feeds the breaker. A vectored read is one operation; it
    /// counts as a failure if any range came back transient.
    #[inline(always)]
    fn run(&mut self, op: Op<'_, '_>) -> Reply {
        self.stats.operations += 1;
        if self.state != CircuitState::Closed {
            // Past the cooldown, recover and fall through to the
            // closed path; otherwise (or if recovery fails) degrade.
            if !self.cooldown_elapsed() || self.try_recover().is_err() {
                return self.degraded(op);
            }
        }
        let reply = op.apply(&mut self.inner);
        // A fault is the debuggee's honest answer: the backend is
        // alive, so it counts as a healthy outcome.
        match reply.errors().find(|e| e.is_transient()) {
            Some(e) => {
                self.last_failure = Some(e.to_string());
                self.record_failure();
            }
            None => self.record_success(),
        }
        if self.state == CircuitState::Closed
            && self.cfg.probe_every > 0
            && self.stats.operations.is_multiple_of(self.cfg.probe_every)
        {
            let _ = self.probe();
        }
        reply
    }

    /// Runs one health probe and feeds its outcome to the breaker.
    fn probe(&mut self) -> TargetResult<()> {
        self.stats.probes += 1;
        let r = self.strategy.probe(&mut self.inner);
        match &r {
            Ok(()) => self.record_success(),
            Err(e) => {
                self.stats.probe_failures += 1;
                self.last_failure = Some(e.to_string());
                self.record_failure();
            }
        }
        r
    }

    /// The open-circuit path: reads may still be served (stale) by the
    /// cache below, each range of a vectored read judged on its own;
    /// everything else fails fast.
    #[inline(never)]
    fn degraded(&mut self, op: Op<'_, '_>) -> Reply {
        let multi = match &op {
            Op::GetBytes { .. } => None,
            Op::GetBytesMulti(ranges) => Some(ranges.len()),
            _ => {
                self.stats.fast_fails += 1;
                self.span_mark("fast-fail", || "circuit open".to_string());
                return op.fail(self.circuit_open_error());
            }
        };
        if !self.cfg.degrade {
            self.stats.fast_fails += 1;
            self.span_mark("fast-fail", || match multi {
                Some(n) => format!("circuit open, {n} ranges"),
                None => "circuit open".to_string(),
            });
            return op.fail(self.circuit_open_error());
        }
        let mut reply = op.apply(&mut self.inner);
        reply.map_results(|r| match r {
            None => {
                self.staleness.mark_stale();
                if multi.is_none() {
                    self.span_mark("stale-read", || "served from cache, degraded".to_string());
                }
                None
            }
            Some(e) if e.is_transient() => {
                // The read missed the cache and needed the dead wire.
                self.stats.fast_fails += 1;
                self.last_failure = Some(e.to_string());
                if multi.is_none() {
                    self.span_mark("fast-fail", || "cache miss on dead wire".to_string());
                }
                Some(self.circuit_open_error())
            }
            Some(_) => None,
        });
        reply
    }
}

impl<T: Target> crate::op::Layer for SupervisedTarget<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.inner
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Supervises memory, allocation and calls; lookups pass through.
    #[inline(always)]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        if !op.is_fallible() {
            return op.apply(&mut self.inner);
        }
        self.run(op)
    }

    fn set_span_context(&mut self, spans: &crate::span::SpanContext) {
        self.spans = Some(spans.clone());
        self.inner.set_span_context(spans);
    }

    fn staleness_handle(&self) -> Option<StalenessHandle> {
        Some(self.staleness.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedTarget;
    use crate::chaos::{ChaosHandle, ChaosTarget};
    use crate::scenario;
    use crate::SimTarget;

    type ChaosTower = CachedTarget<ChaosTarget<SimTarget>>;

    /// Reconnect strategy whose "respawn" revives the chaos gate — the
    /// in-process analogue of respawning a dead MI process.
    struct ChaosRevive {
        handle: ChaosHandle,
    }

    impl<T: Target> Reconnect<T> for ChaosRevive {
        fn probe(&mut self, inner: &mut T) -> TargetResult<()> {
            probe_read(inner, DEFAULT_PROBE_ADDR)
        }

        fn reconnect(&mut self, inner: &mut T) -> TargetResult<ResyncReport> {
            self.handle.revive();
            probe_read(inner, DEFAULT_PROBE_ADDR)?;
            Ok(ResyncReport {
                symbols: 1,
                frames: inner.frame_count(),
                type_table_ok: true,
                detail: "chaos gate revived".into(),
            })
        }
    }

    /// A tower whose reconnect strategy actually heals the backend.
    fn revive_tower() -> (SupervisedTarget<ChaosTower>, ChaosHandle) {
        let chaos = ChaosTarget::new(scenario::scan_array());
        let handle = chaos.handle();
        let cached = CachedTarget::new(chaos);
        let sup = SupervisedTarget::with_strategy(
            cached,
            SupervisorConfig::fast(2),
            Box::new(ChaosRevive {
                handle: handle.clone(),
            }),
        );
        (sup, handle)
    }

    /// A tower whose reconnect strategy is probe-only: while the chaos
    /// gate is dead, every recovery attempt fails and the breaker stays
    /// open — the setup for degraded-mode tests.
    fn dead_tower() -> (SupervisedTarget<ChaosTower>, ChaosHandle) {
        let chaos = ChaosTarget::new(scenario::scan_array());
        let handle = chaos.handle();
        let cached = CachedTarget::new(chaos);
        let sup = SupervisedTarget::with_config(cached, SupervisorConfig::fast(2));
        (sup, handle)
    }

    #[test]
    fn closed_circuit_is_transparent() {
        let (mut t, _) = dead_tower();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        assert_eq!(t.state(), CircuitState::Closed);
        assert_eq!(t.stats().trips, 0);
    }

    #[test]
    fn faults_do_not_trip_the_breaker() {
        let (mut t, _) = dead_tower();
        let mut buf = [0u8; 4];
        for _ in 0..10 {
            assert!(matches!(
                t.get_bytes(0x10, &mut buf),
                Err(TargetError::IllegalMemory { .. })
            ));
        }
        assert_eq!(t.state(), CircuitState::Closed, "faults prove liveness");
    }

    #[test]
    fn consecutive_transients_trip_then_writes_fail_fast() {
        let (mut t, chaos) = dead_tower();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap(); // warm the page
        chaos.kill();
        // Uncached reads fail transiently until the breaker trips.
        for _ in 0..2 {
            assert!(t.get_bytes(0x20_000, &mut [0u8; 1]).is_err());
        }
        assert_eq!(t.state(), CircuitState::Open);
        // Cooldown ZERO: the write first attempts recovery (probe-only,
        // still dead, fails) and then must fail fast.
        let err = t.put_bytes(x.addr, &buf).unwrap_err();
        assert!(matches!(err, TargetError::CircuitOpen { .. }), "{err}");
        assert!(err.is_fault(), "fail-fast errors are faults: {err}");
        assert!(t.stats().reconnect_failures >= 1);
    }

    #[test]
    fn degraded_reads_serve_cached_pages_marked_stale() {
        let (mut t, chaos) = dead_tower();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap(); // cache the page
        assert_eq!(i32::from_le_bytes(buf), 7);
        chaos.kill();
        for _ in 0..2 {
            let _ = t.get_bytes(0x20_000, &mut [0u8; 1]);
        }
        assert_eq!(t.state(), CircuitState::Open);
        let stale_before = t.staleness().stale_reads();
        // Each op first attempts recovery (fails: the gate is still
        // dead), then degrades — and the cached page still answers.
        let mut buf2 = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf2).unwrap();
        assert_eq!(buf2, buf, "stale read must serve the cached bytes");
        assert!(t.staleness().stale_reads() > stale_before);
        assert!(t.staleness().is_degraded());
        // A read that misses the cache converts to CircuitOpen.
        let err = t.get_bytes(0x30_000, &mut [0u8; 1]).unwrap_err();
        assert!(matches!(err, TargetError::CircuitOpen { .. }), "{err}");
    }

    #[test]
    fn degrade_off_fails_all_reads_fast() {
        let (mut t, chaos) = dead_tower();
        t.set_degrade(false);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        chaos.kill();
        for _ in 0..2 {
            let _ = t.get_bytes(0x20_000, &mut [0u8; 1]);
        }
        assert_eq!(t.state(), CircuitState::Open);
        let err = t.get_bytes(x.addr, &mut buf).unwrap_err();
        assert!(matches!(err, TargetError::CircuitOpen { .. }), "{err}");
        assert_eq!(t.staleness().stale_reads(), 0);
    }

    #[test]
    fn breaker_recovers_through_half_open_to_closed() {
        let (mut t, chaos) = revive_tower();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        chaos.kill();
        for _ in 0..2 {
            let _ = t.get_bytes(0x20_000, &mut [0u8; 1]);
        }
        assert_eq!(t.state(), CircuitState::Open);
        assert_eq!(t.stats().trips, 1);
        // The next operation goes half-open, the strategy revives the
        // chaos gate, probe succeeds, circuit closes, op runs live.
        let mut buf2 = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf2).unwrap();
        assert_eq!(buf2, buf);
        assert_eq!(t.state(), CircuitState::Closed);
        let s = t.stats();
        assert_eq!(s.reconnects, 1);
        assert!(t.last_resync().unwrap().type_table_ok);
        assert!(!t.staleness().is_degraded());
    }

    #[test]
    fn failure_rate_window_trips_without_consecutive_run() {
        let chaos = ChaosTarget::new(scenario::scan_array());
        let handle = chaos.handle();
        let mut t = SupervisedTarget::with_config(
            chaos,
            SupervisorConfig {
                window: 8,
                min_samples: 4,
                trip_failure_rate: 0.5,
                trip_consecutive: 0, // rate condition only
                cooldown: Duration::from_secs(3600),
                ..SupervisorConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        // Alternate success / transient: the rate hits 50% without any
        // run of consecutive failures.
        for _ in 0..4 {
            handle.revive();
            let _ = t.get_bytes(x.addr, &mut buf);
            handle.kill();
            let _ = t.get_bytes(x.addr, &mut [0u8; 1]);
        }
        assert_eq!(t.state(), CircuitState::Open);
        assert_eq!(t.stats().trips, 1);
    }

    #[test]
    fn health_check_reports_and_recovers() {
        let (mut t, chaos) = revive_tower();
        assert!(t.health_check().is_ok());
        assert_eq!(t.stats().probes, 1);
        chaos.kill();
        assert!(t.health_check().is_err());
        assert!(t.health_check().is_err());
        assert_eq!(t.state(), CircuitState::Open, "probe failures trip too");
        // Cooldown ZERO: the next health check attempts recovery, and
        // the strategy revives the gate.
        assert!(t.health_check().is_ok());
        assert_eq!(t.state(), CircuitState::Closed);
        assert_eq!(t.stats().reconnects, 1);
    }

    #[test]
    fn force_reconnect_closes_an_open_circuit() {
        let (mut t, chaos) = revive_tower();
        chaos.kill();
        let _ = t.health_check();
        let _ = t.health_check();
        assert_eq!(t.state(), CircuitState::Open);
        let report = t.force_reconnect().unwrap();
        assert!(report.type_table_ok);
        assert_eq!(t.state(), CircuitState::Closed);
    }

    #[test]
    fn staleness_handle_is_discoverable_through_dyn_target() {
        let (t, _) = dead_tower();
        let dyn_t: &dyn Target = &t;
        assert!(dyn_t.staleness_handle().is_some());
        let plain = scenario::scan_array();
        let dyn_plain: &dyn Target = &plain;
        assert!(dyn_plain.staleness_handle().is_none());
    }

    #[test]
    fn periodic_probe_detects_a_silently_dead_backend() {
        let chaos = ChaosTarget::new(scenario::scan_array());
        let handle = chaos.handle();
        let cached = CachedTarget::new(chaos);
        let mut t = SupervisedTarget::with_config(
            cached,
            SupervisorConfig {
                probe_every: 1,
                // Cache hits land a success between every pair of
                // probes, so a consecutive-run threshold above 1 can
                // never accumulate; one failed probe is direct
                // evidence the wire is dead.
                trip_consecutive: 1,
                cooldown: Duration::from_secs(3600),
                ..SupervisorConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap(); // page now cached
        handle.kill();
        // Cache hits would hide the death forever; the piggybacked
        // probe reads an unmapped (never cached) address, so it reaches
        // the dead gate and trips the breaker.
        let _ = t.get_bytes(x.addr + 12, &mut buf);
        assert_eq!(t.state(), CircuitState::Open);
        assert!(t.stats().probe_failures >= 1);
    }
}
