//! [`ChaosTarget`] — the one fault-injection gate of the tower, for
//! robustness tests of retry, cache, recorder and supervisor alike.
//!
//! The gate injects two kinds of misbehaviour into the four wire
//! operations (`get_bytes`, `put_bytes`, `alloc_space`, `call_func`):
//!
//! * *Counted* faults, fixed at construction by a [`FaultConfig`]
//!   ([`ChaosTarget::with_faults`]): a burst of transient errors, a
//!   fail-every-N pattern, poisoned address ranges, truncated reads and
//!   artificial latency. Everything is counter-based, so retry and
//!   cache tests are fully reproducible.
//! * *Modal* faults, switched at run time: the backend is Live, Dead
//!   (every wire operation fails like a killed process), Hung (every
//!   operation times out, modeling a stuck MI turn the watchdog had to
//!   kill), or Garbling (every reply comes back as seeded gibberish).
//!   Modes are switched either imperatively through a cloneable
//!   [`ChaosHandle`] (the reconnect strategy of a supervised tower can
//!   `revive()` it, playing the role of a process respawn) or
//!   declaratively through a *script* of [`ChaosEvent`]s keyed by
//!   operation count — including fully seeded random campaigns via
//!   [`ChaosHandle::campaign`], so a failing chaos run reproduces from
//!   its seed alone.
//!
//! Both kinds share one operation counter and one injection counter,
//! read through [`ChaosHandle::ops`] and [`ChaosHandle::injected`]. A
//! modal failure takes precedence and leaves the counted burst budget
//! untouched. Poisoned ranges and truncation are properties of the
//! debuggee's memory, not injected failures, so they are not counted.
//!
//! Symbol and type lookups model debugger-side tables and stay
//! transparent, mirroring how the retry layer treats `Option`-returning
//! operations; `is_mapped` reports poisoned ranges as unmapped.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::{TargetError, TargetResult};
use crate::iface::{read_picked, PrefetchCompletion, ReadRange, Target};
use crate::op::{Op, Reply};

/// The counted faults a [`ChaosTarget`] injects (see
/// [`ChaosTarget::with_faults`]).
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Fail the first N I/O operations with [`FaultConfig::error`],
    /// then behave normally (models a backend that recovers).
    pub transient_failures: u32,
    /// Additionally fail every Nth I/O operation (0 = never) with
    /// [`FaultConfig::error`] (models a persistently flaky link).
    pub fail_every: u64,
    /// The transient error to inject.
    pub error: TargetError,
    /// Address ranges `(start, len)` that permanently fault with
    /// [`TargetError::IllegalMemory`] (models corrupted pages).
    pub poison: Vec<(u64, u64)>,
    /// Reads longer than this many bytes report
    /// [`TargetError::Truncated`] (models a half-dead remote stub).
    pub truncate_reads_above: Option<usize>,
    /// Artificial delay added to every I/O operation.
    pub latency: Duration,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            transient_failures: 0,
            fail_every: 0,
            error: TargetError::Backend("injected transient fault".to_string()),
            poison: Vec::new(),
            truncate_reads_above: None,
            latency: Duration::ZERO,
        }
    }
}

impl FaultConfig {
    /// A config that fails the first `n` I/O operations with a
    /// transient backend error, then recovers.
    pub fn transient(n: u32) -> FaultConfig {
        FaultConfig {
            transient_failures: n,
            ..FaultConfig::default()
        }
    }

    /// A config that permanently poisons `[start, start+len)`.
    pub fn poisoned(start: u64, len: u64) -> FaultConfig {
        FaultConfig {
            poison: vec![(start, len)],
            ..FaultConfig::default()
        }
    }
}

/// The gate's current behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosMode {
    /// Forward everything untouched.
    Live,
    /// Every wire operation fails like a killed backend process.
    Dead,
    /// Every wire operation times out (a hung MI turn, already killed
    /// by the deadline watchdog).
    Hung,
    /// Every wire operation fails with a seeded garbled-reply error.
    Garbling,
}

impl ChaosMode {
    /// Lower-case label for logs and `.stats` output.
    pub fn name(self) -> &'static str {
        match self {
            ChaosMode::Live => "live",
            ChaosMode::Dead => "dead",
            ChaosMode::Hung => "hung",
            ChaosMode::Garbling => "garbling",
        }
    }
}

/// A mode switch in a scripted campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Switch to [`ChaosMode::Dead`].
    Kill,
    /// Switch to [`ChaosMode::Hung`].
    Hang,
    /// Switch to [`ChaosMode::Garbling`].
    Garble,
    /// Switch back to [`ChaosMode::Live`].
    Revive,
}

/// One scripted event: after `at_op` wire operations have passed the
/// gate, perform `action`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Operation count (1-based) at which the action fires; events with
    /// `at_op <= ops` fire in script order.
    pub at_op: u64,
    /// The mode switch to perform.
    pub action: ChaosAction,
}

/// splitmix64 — the workspace's standard tiny deterministic generator
/// (same recurrence the vendored proptest shim uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct ChaosState {
    mode: ChaosMode,
    /// Auto-revive after this many more gated operations.
    heal_in: Option<u64>,
    /// Pending scripted events, sorted by `at_op`.
    script: VecDeque<ChaosEvent>,
    /// Wire operations that have passed the gate.
    ops: u64,
    /// Failures injected so far, modal and counted.
    injected: u64,
    /// What is left of [`FaultConfig::transient_failures`].
    transients_left: u32,
    rng: u64,
}

impl ChaosState {
    fn apply(&mut self, action: ChaosAction) {
        self.mode = match action {
            ChaosAction::Kill => ChaosMode::Dead,
            ChaosAction::Hang => ChaosMode::Hung,
            ChaosAction::Garble => ChaosMode::Garbling,
            ChaosAction::Revive => ChaosMode::Live,
        };
        if action == ChaosAction::Revive {
            self.heal_in = None;
        }
    }
}

/// A cloneable remote control for a [`ChaosTarget`]. Tests (and the
/// supervised tower's reconnect strategy) hold one while the target
/// itself is buried inside a decorator stack.
#[derive(Clone, Debug)]
pub struct ChaosHandle(Arc<Mutex<ChaosState>>);

impl ChaosHandle {
    fn new(seed: u64) -> ChaosHandle {
        ChaosHandle(Arc::new(Mutex::new(ChaosState {
            mode: ChaosMode::Live,
            heal_in: None,
            script: VecDeque::new(),
            ops: 0,
            injected: 0,
            transients_left: 0,
            rng: seed,
        })))
    }

    /// Kills the backend: every wire operation now fails.
    pub fn kill(&self) {
        self.0.lock().unwrap().apply(ChaosAction::Kill);
    }

    /// Hangs the backend: every wire operation now times out.
    pub fn hang(&self) {
        self.0.lock().unwrap().apply(ChaosAction::Hang);
    }

    /// Garbles the backend: every reply is a seeded protocol error.
    pub fn garble(&self) {
        self.0.lock().unwrap().apply(ChaosAction::Garble);
    }

    /// Revives the backend (what a successful respawn does).
    pub fn revive(&self) {
        self.0.lock().unwrap().apply(ChaosAction::Revive);
    }

    /// Auto-revives after `n` more gated operations (models a backend
    /// that comes back on its own, for mean-time-to-recovery runs).
    pub fn heal_after(&self, n: u64) {
        self.0.lock().unwrap().heal_in = Some(n);
    }

    /// Installs a scripted campaign (replacing any pending script).
    /// Events fire as the gate's operation count reaches each `at_op`.
    pub fn load_script(&self, mut events: Vec<ChaosEvent>) {
        events.sort_by_key(|e| e.at_op);
        self.0.lock().unwrap().script = events.into();
    }

    /// Generates and installs a seeded random campaign: `events` mode
    /// switches spread over the next `span` operations. The same seed
    /// always produces the same script — a failing run reproduces from
    /// its seed alone. Returns the generated script for logging.
    pub fn campaign(&self, seed: u64, events: usize, span: u64) -> Vec<ChaosEvent> {
        let mut s = seed;
        let mut script: Vec<ChaosEvent> = (0..events)
            .map(|_| {
                let at_op = 1 + splitmix64(&mut s) % span.max(1);
                let action = match splitmix64(&mut s) % 4 {
                    0 => ChaosAction::Kill,
                    1 => ChaosAction::Hang,
                    2 => ChaosAction::Garble,
                    _ => ChaosAction::Revive,
                };
                ChaosEvent { at_op, action }
            })
            .collect();
        script.sort_by_key(|e| e.at_op);
        self.load_script(script.clone());
        script
    }

    /// The gate's current mode.
    pub fn mode(&self) -> ChaosMode {
        self.0.lock().unwrap().mode
    }

    /// Wire operations that have passed the gate so far (each range of
    /// a vectored read counts as one).
    pub fn ops(&self) -> u64 {
        self.0.lock().unwrap().ops
    }

    /// Failures injected so far, modal and counted.
    pub fn injected(&self) -> u64 {
        self.0.lock().unwrap().injected
    }
}

/// A [`Target`] decorator that injects counted and modal failures into
/// the four wire operations. See the module docs.
#[derive(Debug)]
pub struct ChaosTarget<T: Target> {
    inner: T,
    handle: ChaosHandle,
    faults: FaultConfig,
}

impl<T: Target> ChaosTarget<T> {
    /// Wraps `inner` with a live gate (seed 0).
    pub fn new(inner: T) -> ChaosTarget<T> {
        ChaosTarget::with_seed(inner, 0)
    }

    /// Wraps `inner` with a live gate whose garbled replies draw from
    /// `seed`.
    pub fn with_seed(inner: T, seed: u64) -> ChaosTarget<T> {
        ChaosTarget {
            inner,
            handle: ChaosHandle::new(seed),
            faults: FaultConfig::default(),
        }
    }

    /// Wraps `inner` with a live gate (seed 0) that also injects the
    /// counted faults of `cfg`.
    pub fn with_faults(inner: T, cfg: FaultConfig) -> ChaosTarget<T> {
        let handle = ChaosHandle::new(0);
        handle.0.lock().expect("fresh chaos state").transients_left = cfg.transient_failures;
        ChaosTarget {
            inner,
            handle,
            faults: cfg,
        }
    }

    /// A remote control for this gate.
    pub fn handle(&self) -> ChaosHandle {
        self.handle.clone()
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

    /// Advances the gate by one operation and returns the failure to
    /// inject, if any: the modal one first, then the counted ones.
    fn gate(&self) -> TargetResult<()> {
        let mut st = self.handle.0.lock().unwrap();
        st.ops += 1;
        let now = st.ops;
        while let Some(ev) = st.script.front().copied() {
            if ev.at_op > now {
                break;
            }
            st.script.pop_front();
            st.apply(ev.action);
        }
        if let Some(left) = st.heal_in {
            if left == 0 {
                st.mode = ChaosMode::Live;
                st.heal_in = None;
            } else {
                st.heal_in = Some(left - 1);
            }
        }
        let err = match st.mode {
            ChaosMode::Live if st.transients_left > 0 => {
                st.transients_left -= 1;
                self.faults.error.clone()
            }
            ChaosMode::Live
                if self.faults.fail_every > 0 && now.is_multiple_of(self.faults.fail_every) =>
            {
                self.faults.error.clone()
            }
            ChaosMode::Live => return Ok(()),
            ChaosMode::Dead => TargetError::Backend("chaos: backend killed".to_string()),
            // The deadline watchdog has already killed the turn by the
            // time the caller sees anything — model that.
            ChaosMode::Hung => TargetError::Timeout { ms: 1000 },
            ChaosMode::Garbling => {
                let noise = splitmix64(&mut st.rng);
                TargetError::Backend(format!("chaos: garbled reply 0x{noise:016x}"))
            }
        };
        st.injected += 1;
        Err(err)
    }

    /// Gates one access to `[addr, addr+len)`: the injected failure, if
    /// any, then poison, then (for reads) truncation.
    fn gate_range(&self, addr: u64, len: usize, read: bool) -> TargetResult<()> {
        self.gate()?;
        if self.poisoned(addr, len as u64) {
            return Err(TargetError::IllegalMemory {
                addr,
                len: len as u64,
            });
        }
        match self.faults.truncate_reads_above {
            Some(cap) if read && len > cap => Err(TargetError::Truncated {
                addr,
                wanted: len as u64,
                got: cap as u64,
            }),
            _ => Ok(()),
        }
    }

    fn poisoned(&self, addr: u64, len: u64) -> bool {
        let end = addr.saturating_add(len.max(1));
        self.faults
            .poison
            .iter()
            .any(|&(start, plen)| addr < start.saturating_add(plen) && start < end)
    }

    /// Pays one wire turn's worth of injected latency. Deliberately a
    /// plain sleep, overshoot and all: the injected latency models time
    /// the wire is busy and the CPU is *not*, so it must yield the core
    /// — a spin-accurate wait would steal cycles from the evaluator on
    /// small machines and invert the very overlap the pipeline benches
    /// measure. Benchmarks that need the true per-turn figure measure
    /// it rather than trusting the nominal one.
    fn pay_latency(&self) {
        if !self.faults.latency.is_zero() {
            std::thread::sleep(self.faults.latency);
        }
    }
}

impl<T: Target> crate::op::Layer for ChaosTarget<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.inner
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        match op {
            Op::GetBytesMulti(ranges) => Reply::Multi(self.gate_multi(ranges)),
            Op::IsMapped { addr, len } => {
                Reply::Flag(!self.poisoned(addr, len) && self.inner.is_mapped(addr, len))
            }
            // Symbol and type lookups, frames and output drains model
            // debugger-side tables: never gated.
            op if !op.is_fallible() => op.apply(&mut self.inner),
            op => {
                self.pay_latency();
                let gated = match &op {
                    Op::GetBytes { addr, buf } => self.gate_range(*addr, buf.len(), true),
                    Op::PutBytes { addr, bytes } => self.gate_range(*addr, bytes.len(), false),
                    _ => self.gate(),
                };
                match gated {
                    Ok(()) => op.apply(&mut self.inner),
                    Err(e) => op.fail(e),
                }
            }
        }
    }

    // The gate sits below the page cache and the I/O actor: it answers
    // no pipeline (the read seam's default) or prefetch plumbing, so a
    // pipelined read never bypasses it.
    fn prefetch_submit(&mut self, _ranges: &[(u64, u64)]) -> bool {
        false
    }

    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        None
    }

    fn cache_page_size(&self) -> Option<u64> {
        None
    }

    fn pipeline_handle(&self) -> Option<crate::pipeline::PipelineHandle> {
        None
    }
}

impl<T: Target> ChaosTarget<T> {
    /// One wire turn: latency is paid once per batch, but every range
    /// passes the gate on its own (script `at_op` and fail-every
    /// counters keep their wire-op granularity); the survivors go down
    /// in one inner vectored call, so a hit on one range never fails
    /// the rest of the batch.
    fn gate_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        self.pay_latency();
        let mut results: Vec<TargetResult<()>> = ranges
            .iter()
            .map(|r| self.gate_range(r.addr, r.len(), true))
            .collect();
        for (i, res) in read_picked(&mut self.inner, ranges, |i| results[i].is_ok()) {
            results[i] = res;
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn live_gate_is_transparent() {
        let mut t = ChaosTarget::new(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        assert_eq!(t.handle().injected(), 0);
        assert_eq!(t.handle().ops(), 1);
    }

    #[test]
    fn kill_hang_garble_inject_the_right_errors() {
        let mut t = ChaosTarget::new(scenario::scan_array());
        let h = t.handle();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        h.kill();
        assert!(matches!(
            t.get_bytes(x.addr, &mut buf),
            Err(TargetError::Backend(m)) if m.contains("killed")
        ));
        h.hang();
        assert!(matches!(
            t.get_bytes(x.addr, &mut buf),
            Err(TargetError::Timeout { .. })
        ));
        h.garble();
        let e1 = t.get_bytes(x.addr, &mut buf).unwrap_err();
        let e2 = t.get_bytes(x.addr, &mut buf).unwrap_err();
        assert!(e1.to_string().contains("garbled reply"), "{e1}");
        assert_ne!(e1, e2, "garbled replies draw fresh noise");
        assert!(e1.is_transient() && e2.is_transient());
        h.revive();
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert_eq!(h.injected(), 4);
    }

    #[test]
    fn heal_after_revives_on_schedule() {
        let mut t = ChaosTarget::new(scenario::scan_array());
        let h = t.handle();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        h.kill();
        h.heal_after(2);
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        assert!(t.get_bytes(x.addr, &mut buf).is_ok(), "healed after 2 ops");
        assert_eq!(h.mode(), ChaosMode::Live);
    }

    #[test]
    fn scripted_campaign_fires_in_order() {
        let mut t = ChaosTarget::new(scenario::scan_array());
        let h = t.handle();
        h.load_script(vec![
            ChaosEvent {
                at_op: 4,
                action: ChaosAction::Revive,
            },
            ChaosEvent {
                at_op: 2,
                action: ChaosAction::Kill,
            },
        ]);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(x.addr, &mut buf).is_ok()); // op 1
        assert!(t.get_bytes(x.addr, &mut buf).is_err()); // op 2: kill
        assert!(t.get_bytes(x.addr, &mut buf).is_err()); // op 3
        assert!(t.get_bytes(x.addr, &mut buf).is_ok()); // op 4: revive
    }

    #[test]
    fn campaigns_are_deterministic_in_the_seed() {
        let a = ChaosHandle::new(0).campaign(42, 8, 100);
        let b = ChaosHandle::new(9).campaign(42, 8, 100);
        assert_eq!(a, b, "same seed, same script");
        let c = ChaosHandle::new(0).campaign(43, 8, 100);
        assert_ne!(a, c, "different seed, different script");
        assert!(a.windows(2).all(|w| w[0].at_op <= w[1].at_op));
    }

    #[test]
    fn only_wire_operations_are_gated() {
        let mut t = ChaosTarget::new(scenario::scan_array());
        let h = t.handle();
        h.kill();
        // Symbol/type lookups model debugger-side tables: still fine.
        assert!(t.get_variable("x").is_some());
        assert!(t.frame_count() == 0 || t.frame_info(0).is_some());
        assert_eq!(h.ops(), 0);
    }

    #[test]
    fn transient_burst_then_recovers() {
        let mut t = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(2));
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        assert!(t.get_bytes(x.addr, &mut buf).is_ok());
        assert_eq!(t.handle().injected(), 2);
        assert_eq!(t.handle().ops(), 3);
    }

    #[test]
    fn poison_is_permanent_and_unmapped() {
        let mut t = scenario::scan_array();
        let x = t.get_variable("x").unwrap();
        let mut t = ChaosTarget::with_faults(t, FaultConfig::poisoned(x.addr + 12, 4));
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(x.addr, &mut buf).is_ok());
        for _ in 0..3 {
            assert_eq!(
                t.get_bytes(x.addr + 12, &mut buf),
                Err(TargetError::IllegalMemory {
                    addr: x.addr + 12,
                    len: 4
                })
            );
        }
        assert!(!t.is_mapped(x.addr + 12, 4));
        assert!(t.is_mapped(x.addr, 4));
    }

    #[test]
    fn truncation_reports_partial_length() {
        let mut t = ChaosTarget::with_faults(
            scenario::scan_array(),
            FaultConfig {
                truncate_reads_above: Some(2),
                ..FaultConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            t.get_bytes(x.addr, &mut buf),
            Err(TargetError::Truncated {
                addr: x.addr,
                wanted: 4,
                got: 2
            })
        );
        let mut small = [0u8; 2];
        assert!(t.get_bytes(x.addr, &mut small).is_ok());
    }

    #[test]
    fn one_flaky_range_does_not_fail_the_batch() {
        // A single transient left in the burst budget hits only the
        // first range of the vectored call; the rest still go through.
        let mut t = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(1));
        let x = t.get_variable("x").unwrap();
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut c = [0u8; 4];
        let mut ranges = [
            ReadRange::new(x.addr, &mut a),
            ReadRange::new(x.addr + 72, &mut b),
            ReadRange::new(x.addr + 12, &mut c),
        ];
        let rs = t.get_bytes_multi(&mut ranges);
        assert!(rs[0].as_ref().is_err_and(|e| e.is_transient()), "{rs:?}");
        assert_eq!(rs[1], Ok(()));
        assert_eq!(rs[2], Ok(()));
        assert_eq!(i32::from_le_bytes(b), 9); // x[18]
        assert_eq!(i32::from_le_bytes(c), 7); // x[3]
        assert_eq!(t.handle().injected(), 1);
        // Each range counts as one faultable operation.
        assert_eq!(t.handle().ops(), 3);
    }

    #[test]
    fn counted_and_modal_faults_share_one_gate() {
        let mut sim = scenario::scan_array();
        let x = sim.get_variable("x").unwrap().addr;
        let wire = crate::TraceTarget::new(sim);
        let trace = wire.handle();
        trace.set_enabled(true);
        let cfg = FaultConfig {
            poison: vec![(x + 12, 4)],
            ..FaultConfig::transient(2)
        };
        let mut t = ChaosTarget::with_faults(wire, cfg);
        let h = t.handle();
        h.load_script(vec![
            ChaosEvent {
                at_op: 2,
                action: ChaosAction::Kill,
            },
            ChaosEvent {
                at_op: 3,
                action: ChaosAction::Revive,
            },
        ]);
        let mut buf = [0u8; 4];
        let step = |t: &mut ChaosTarget<_>, buf: &mut [u8; 4]| t.get_bytes(x, buf).unwrap_err();
        // Op 1: the first counted transient.
        assert!(step(&mut t, &mut buf).is_transient());
        assert_eq!((h.ops(), h.injected()), (1, 1));
        // Op 2: the scripted kill takes precedence and leaves the
        // second transient in the budget.
        assert!(step(&mut t, &mut buf).to_string().contains("killed"));
        assert_eq!((h.ops(), h.injected()), (2, 2));
        // Op 3: revived, so the remaining transient fires.
        assert_eq!(
            step(&mut t, &mut buf),
            TargetError::Backend("injected transient fault".to_string())
        );
        assert_eq!((h.ops(), h.injected()), (3, 3));
        // Ops 4-5: one vectored read, poisoned range plus clean range.
        // Poison is a property of memory, not an injected failure; only
        // the clean range goes down, in one inner vectored call.
        let mut bad = [0u8; 4];
        let mut good = [0u8; 4];
        let mut ranges = [
            ReadRange::new(x + 12, &mut bad),
            ReadRange::new(x + 72, &mut good),
        ];
        let rs = t.get_bytes_multi(&mut ranges);
        assert_eq!(
            rs,
            vec![
                Err(TargetError::IllegalMemory {
                    addr: x + 12,
                    len: 4
                }),
                Ok(())
            ]
        );
        assert_eq!(i32::from_le_bytes(good), 9); // x[18]
        assert_eq!((h.ops(), h.injected()), (5, 3));
        assert_eq!(trace.calls(crate::TraceOp::MultiRead), 1);
        assert_eq!(trace.calls(crate::TraceOp::GetBytes), 0);
        assert_eq!(trace.recent_events(1)[0].detail, "1 ranges, 4b");
    }
}
