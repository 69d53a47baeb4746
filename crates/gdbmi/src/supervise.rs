//! Backend supervision for MI connections: a hung-turn watchdog on the
//! transport, a process-respawn reconnect strategy, and
//! [`connect_supervised`] assembling the full fault-tolerant tower
//! `SupervisedTarget<RetryTarget<CachedTarget<MiTarget<WatchdogTransport>>>>`.
//!
//! The division of labour across the tower:
//!
//! * [`WatchdogTransport`] bounds every MI *turn* (send → reply) with a
//!   wall-clock deadline. A debugger that stops answering mid-turn is
//!   declared dead — the watchdog refuses further traffic so the layers
//!   above see a clean transient failure instead of blocking forever.
//! * `RetryTarget` absorbs short transient bursts (dropped lines).
//! * [`duel_target::SupervisedTarget`] watches the retried failure
//!   stream, trips its circuit breaker when the backend looks dead, and
//!   drives [`MiResync`] to respawn the process and resync the session.
//! * [`MiResync`] owns the respawn: a factory closure produces a fresh
//!   transport (a new MI process), the stale page cache is dropped
//!   (those pages belong to the dead process's address space epoch),
//!   and [`crate::MiTarget::reattach`] re-runs the handshake, verifies
//!   the type-table snapshot, and re-resolves the symbol working set.

use std::time::{Duration, Instant};

use duel_target::{
    probe_read, AsyncTarget, CacheConfig, CachedTarget, Reconnect, ResyncReport, RetryPolicy,
    RetryTarget, SupervisedTarget, SupervisorConfig, TargetResult, DEFAULT_PROBE_ADDR,
};

use crate::{target::to_target_err, MiError, MiTarget, MiTransport};

/// The full supervised MI tower built by [`connect_supervised`].
pub type SupervisedMi<T> =
    SupervisedTarget<RetryTarget<CachedTarget<MiTarget<WatchdogTransport<T>>>>>;

/// The pipelined MI tower built by [`connect_pipelined`]: like
/// [`SupervisedMi`], but the MI target — transport, watchdog and all —
/// is owned by a [`duel_target::AsyncTarget`] I/O actor under the page
/// cache, so prefetch windows stream on a worker thread while the
/// evaluator consumes the previous one. The watchdog *moves into the
/// actor* with the transport: its turn clock arms and fires on the
/// worker thread, so a hung MI turn stalls only the in-flight window,
/// and the kill it raises surfaces to the supervisor as an ordinary
/// failed completion.
pub type PipelinedMi<T> =
    SupervisedTarget<RetryTarget<CachedTarget<AsyncTarget<MiTarget<WatchdogTransport<T>>>>>>;

/// A transport decorator that bounds each MI turn with a deadline.
///
/// `send_line` arms the clock; every `recv_line` checks it. A reply
/// that arrives after the deadline (or a receive attempted after it has
/// already passed) kills the connection: the late line is discarded and
/// all further traffic fails with [`MiError::Disconnected`] until the
/// supervisor respawns the process. Killing — rather than merely
/// erroring once — matches what a process supervisor does with a hung
/// child: a debugger stuck mid-turn cannot be trusted to frame its next
/// reply correctly.
pub struct WatchdogTransport<T: MiTransport> {
    inner: T,
    deadline: Duration,
    armed: Option<Instant>,
    kills: u64,
    dead: bool,
}

impl<T: MiTransport> WatchdogTransport<T> {
    /// Wraps `inner`, bounding each turn by `deadline`.
    pub fn new(inner: T, deadline: Duration) -> WatchdogTransport<T> {
        WatchdogTransport {
            inner,
            deadline,
            armed: None,
            kills: 0,
            dead: false,
        }
    }

    /// How many turns the watchdog has killed.
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// Whether the connection has been killed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    fn kill(&mut self) -> MiError {
        self.kills += 1;
        self.dead = true;
        self.armed = None;
        MiError::Disconnected
    }
}

impl<T: MiTransport> MiTransport for WatchdogTransport<T> {
    fn send_line(&mut self, line: &str) -> Result<(), MiError> {
        if self.dead {
            return Err(MiError::Disconnected);
        }
        self.armed = Some(Instant::now());
        self.inner.send_line(line)
    }

    fn recv_line(&mut self) -> Result<String, MiError> {
        if self.dead {
            return Err(MiError::Disconnected);
        }
        if let Some(t0) = self.armed {
            if t0.elapsed() > self.deadline {
                return Err(self.kill());
            }
        }
        let line = self.inner.recv_line()?;
        // Deadline-aware kill: a reply that limped in late is as
        // untrustworthy as no reply — the turn is already hung from the
        // caller's point of view, so discard the line and kill.
        if let Some(t0) = self.armed {
            if t0.elapsed() > self.deadline {
                return Err(self.kill());
            }
        }
        Ok(line)
    }
}

/// The reconnect strategy for MI towers: respawn the debugger process
/// via a factory closure and resync through
/// [`crate::MiTarget::reattach`].
pub struct MiResync<T: MiTransport> {
    factory: Box<dyn FnMut() -> Result<T, MiError> + Send>,
    turn_deadline: Duration,
}

impl<T: MiTransport> MiResync<T> {
    /// A strategy that calls `factory` for each respawn, arming every
    /// new transport with a [`WatchdogTransport`] of `turn_deadline`.
    pub fn new<F>(factory: F, turn_deadline: Duration) -> MiResync<T>
    where
        F: FnMut() -> Result<T, MiError> + Send + 'static,
    {
        MiResync {
            factory: Box::new(factory),
            turn_deadline,
        }
    }
}

impl<T: MiTransport + Send> Reconnect<RetryTarget<CachedTarget<MiTarget<WatchdogTransport<T>>>>>
    for MiResync<T>
{
    fn probe(
        &mut self,
        inner: &mut RetryTarget<CachedTarget<MiTarget<WatchdogTransport<T>>>>,
    ) -> TargetResult<()> {
        // The probe address is unmapped, so a live backend answers with
        // a fault (proof of life) that the cache below never stores —
        // a dead wire can't hide behind cached pages.
        probe_read(inner, DEFAULT_PROBE_ADDR)
    }

    fn reconnect(
        &mut self,
        inner: &mut RetryTarget<CachedTarget<MiTarget<WatchdogTransport<T>>>>,
    ) -> TargetResult<ResyncReport> {
        let fresh = (self.factory)().map_err(to_target_err)?;
        let cache = inner.inner_mut();
        // Every cached page belongs to the dead process's address-space
        // epoch; serving one after the respawn would be silent
        // corruption.
        cache.invalidate_all();
        cache
            .inner_mut()
            .reattach(WatchdogTransport::new(fresh, self.turn_deadline))
    }
}

impl<T: MiTransport + Send + 'static>
    Reconnect<RetryTarget<CachedTarget<AsyncTarget<MiTarget<WatchdogTransport<T>>>>>>
    for MiResync<T>
{
    fn probe(
        &mut self,
        inner: &mut RetryTarget<CachedTarget<AsyncTarget<MiTarget<WatchdogTransport<T>>>>>,
    ) -> TargetResult<()> {
        probe_read(inner, DEFAULT_PROBE_ADDR)
    }

    fn reconnect(
        &mut self,
        inner: &mut RetryTarget<CachedTarget<AsyncTarget<MiTarget<WatchdogTransport<T>>>>>,
    ) -> TargetResult<ResyncReport> {
        let fresh = (self.factory)().map_err(to_target_err)?;
        let cache = inner.inner_mut();
        cache.invalidate_all();
        // The resync handshake needs the MI target on this thread:
        // park the actor (draining in-flight windows — they belong to
        // the dead process), reattach, then resume pipelining.
        let actor = cache.inner_mut();
        let was_async = actor.is_async();
        actor.set_async(false);
        let report = actor
            .inner_mut()
            .expect("inline after set_async(false)")
            .reattach(WatchdogTransport::new(fresh, self.turn_deadline));
        actor.set_async(was_async);
        report
    }
}

/// Connects a fully supervised MI tower:
/// `SupervisedTarget<RetryTarget<CachedTarget<MiTarget<WatchdogTransport>>>>`.
///
/// `factory` spawns (and respawns) the MI transport — for a real gdb
/// this launches the process and wires its stdio; in tests it builds a
/// fresh [`crate::MockGdb`]. Each spawned transport is wrapped in a
/// [`WatchdogTransport`] bounding every MI turn by `turn_deadline`.
/// When the circuit breaker trips, [`MiResync`] respawns via the same
/// factory, invalidates the page cache, and resyncs session state; see
/// [`crate::MiTarget::reattach`] for the resync protocol.
pub fn connect_supervised<T, F>(
    mut factory: F,
    policy: RetryPolicy,
    cache: CacheConfig,
    supervisor: SupervisorConfig,
    turn_deadline: Duration,
) -> TargetResult<SupervisedMi<T>>
where
    T: MiTransport + Send + 'static,
    F: FnMut() -> Result<T, MiError> + Send + 'static,
{
    let first = factory().map_err(to_target_err)?;
    let mi = MiTarget::connect(WatchdogTransport::new(first, turn_deadline))?;
    let tower = RetryTarget::with_policy(CachedTarget::with_config(mi, cache), policy);
    Ok(SupervisedTarget::with_strategy(
        tower,
        supervisor,
        Box::new(MiResync::new(factory, turn_deadline)),
    ))
}

/// Connects the [`PipelinedMi`] tower: [`connect_supervised`] with the
/// MI target handed to an I/O actor (started immediately), so vectored
/// prefetch windows overlap evaluation. Everything the supervisor
/// relies on is preserved: the same respawn factory, the same resync
/// protocol (the actor is parked for the handshake and restarted
/// after), and the same per-turn watchdog — now ticking on the worker
/// thread, where the hung turn actually blocks.
pub fn connect_pipelined<T, F>(
    mut factory: F,
    policy: RetryPolicy,
    cache: CacheConfig,
    supervisor: SupervisorConfig,
    turn_deadline: Duration,
) -> TargetResult<PipelinedMi<T>>
where
    T: MiTransport + Send + 'static,
    F: FnMut() -> Result<T, MiError> + Send + 'static,
{
    let first = factory().map_err(to_target_err)?;
    let mi = MiTarget::connect(WatchdogTransport::new(first, turn_deadline))?;
    let tower = RetryTarget::with_policy(
        CachedTarget::with_config(AsyncTarget::spawned(mi), cache),
        policy,
    );
    Ok(SupervisedTarget::with_strategy(
        tower,
        supervisor,
        Box::new(MiResync::new(factory, turn_deadline)),
    ))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use duel_target::{scenario, CircuitState, Target, TargetError};

    use super::*;
    use crate::mock::MockGdb;

    const LONG: Duration = Duration::from_secs(3600);

    /// A transport with a shared kill switch, modelling a debugger
    /// process that can die out from under the session.
    struct Killable {
        inner: MockGdb,
        dead: Arc<AtomicBool>,
    }

    impl MiTransport for Killable {
        fn send_line(&mut self, line: &str) -> Result<(), MiError> {
            if self.dead.load(Ordering::SeqCst) {
                return Err(MiError::Disconnected);
            }
            self.inner.send_line(line)
        }

        fn recv_line(&mut self) -> Result<String, MiError> {
            if self.dead.load(Ordering::SeqCst) {
                return Err(MiError::Disconnected);
            }
            self.inner.recv_line()
        }
    }

    /// A transport whose replies take `delay` of wall time.
    struct Sleepy {
        inner: MockGdb,
        delay: Duration,
    }

    impl MiTransport for Sleepy {
        fn send_line(&mut self, line: &str) -> Result<(), MiError> {
            self.inner.send_line(line)
        }

        fn recv_line(&mut self) -> Result<String, MiError> {
            std::thread::sleep(self.delay);
            self.inner.recv_line()
        }
    }

    #[test]
    fn watchdog_is_transparent_within_the_deadline() {
        let mut w = WatchdogTransport::new(MockGdb::new(scenario::scan_array()), LONG);
        w.send_line("1-duel-abi").unwrap();
        assert!(w.recv_line().unwrap().contains("ptr"));
        assert_eq!(w.kills(), 0);
        assert!(!w.is_dead());
    }

    #[test]
    fn watchdog_kills_a_hung_turn_and_stays_dead() {
        let slow = Sleepy {
            inner: MockGdb::new(scenario::scan_array()),
            delay: Duration::from_millis(20),
        };
        let mut w = WatchdogTransport::new(slow, Duration::from_millis(1));
        w.send_line("1-duel-abi").unwrap();
        assert_eq!(w.recv_line(), Err(MiError::Disconnected));
        assert_eq!(w.kills(), 1);
        assert!(w.is_dead());
        // The connection is unusable until the supervisor respawns it.
        assert_eq!(w.send_line("2-duel-abi"), Err(MiError::Disconnected));
        assert_eq!(w.recv_line(), Err(MiError::Disconnected));
        assert_eq!(w.kills(), 1, "a dead wire is not re-killed");
    }

    #[test]
    fn supervised_tower_respawns_and_resyncs_after_a_kill() {
        let switch = Arc::new(AtomicBool::new(false));
        let spawn_switch = switch.clone();
        let mut t = connect_supervised(
            move || {
                // Respawning replaces the dead process: the new one is
                // alive regardless of what happened to its predecessor.
                spawn_switch.store(false, Ordering::SeqCst);
                Ok(Killable {
                    inner: MockGdb::new(scenario::scan_array()),
                    dead: spawn_switch.clone(),
                })
            },
            RetryPolicy::fast(1),
            CacheConfig::default(),
            SupervisorConfig::fast(2),
            LONG,
        )
        .unwrap();

        let x = t.inner_mut().get_variable("x").unwrap();
        let mut before = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut before).unwrap();
        assert_eq!(i32::from_le_bytes(before), 7);

        // The backend dies. Reads of *uncached* pages fail; after two
        // the breaker trips.
        switch.store(true, Ordering::SeqCst);
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(x.addr + 64, &mut buf).is_err());
        assert!(t.get_bytes(x.addr + 128, &mut buf).is_err());
        assert_eq!(t.state(), CircuitState::Open);

        // Zero cooldown: the next operation drives open → half-open →
        // respawn → resync → closed, and the answer is byte-identical
        // to the pre-kill read even though the cache was dropped.
        let mut after = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut after).unwrap();
        assert_eq!(after, before);
        assert_eq!(t.state(), CircuitState::Closed);
        let stats = t.stats();
        assert_eq!(stats.trips, 1);
        assert_eq!(stats.reconnects, 1);
        let resync = t.last_resync().expect("a resync happened");
        assert!(resync.type_table_ok);
        assert_eq!(resync.symbols, 1, "`x` was re-resolved");
        assert_eq!(resync.detail, "respawned MI process");
    }

    #[test]
    fn pipelined_tower_reads_like_the_synchronous_one() {
        let mut sync = connect_supervised(
            || Ok(MockGdb::new(scenario::scan_array())),
            RetryPolicy::fast(1),
            CacheConfig::default(),
            SupervisorConfig::fast(2),
            LONG,
        )
        .unwrap();
        let mut piped = connect_pipelined(
            || Ok(MockGdb::new(scenario::scan_array())),
            RetryPolicy::fast(1),
            CacheConfig::default(),
            SupervisorConfig::fast(2),
            LONG,
        )
        .unwrap();
        let a = sync.inner_mut().get_variable("x").unwrap();
        let b = piped.inner_mut().get_variable("x").unwrap();
        assert_eq!((a.addr, a.ty), (b.addr, b.ty));
        let mut want = [0u8; 64];
        let mut got = [0u8; 64];
        sync.get_bytes(a.addr, &mut want).unwrap();
        piped.get_bytes(b.addr, &mut got).unwrap();
        assert_eq!(want, got);
        assert!(duel_target::Target::pipeline_handle(&piped)
            .expect("actor layer discoverable")
            .is_async());
    }

    #[test]
    fn pipelined_prefetch_windows_ride_the_actor() {
        let mut t = connect_pipelined(
            || Ok(MockGdb::new(scenario::scan_array())),
            RetryPolicy::fast(1),
            CacheConfig::default(),
            SupervisorConfig::fast(2),
            LONG,
        )
        .unwrap();
        let x = t.inner_mut().get_variable("x").unwrap();
        assert!(t.prefetch_submit(&[(x.addr, 64)]), "cache plans a window");
        let c = t.prefetch_poll().expect("completion");
        assert!(c.clean > 0, "the window went through the I/O actor");
        let h = duel_target::Target::pipeline_handle(&t).unwrap();
        assert!(h.submits() >= 1);
    }

    #[test]
    fn pipelined_tower_respawns_and_resumes_the_actor() {
        let switch = Arc::new(AtomicBool::new(false));
        let spawn_switch = switch.clone();
        let mut t = connect_pipelined(
            move || {
                spawn_switch.store(false, Ordering::SeqCst);
                Ok(Killable {
                    inner: MockGdb::new(scenario::scan_array()),
                    dead: spawn_switch.clone(),
                })
            },
            RetryPolicy::fast(1),
            CacheConfig::default(),
            SupervisorConfig::fast(2),
            LONG,
        )
        .unwrap();
        let x = t.inner_mut().get_variable("x").unwrap();
        let mut before = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut before).unwrap();
        switch.store(true, Ordering::SeqCst);
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(x.addr + 64, &mut buf).is_err());
        assert!(t.get_bytes(x.addr + 128, &mut buf).is_err());
        assert_eq!(t.state(), CircuitState::Open);
        // Recovery parks the actor for the MI handshake, then restarts
        // it: the tower answers identically and is still pipelined.
        let mut after = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut after).unwrap();
        assert_eq!(after, before);
        assert_eq!(t.state(), CircuitState::Closed);
        assert_eq!(t.stats().reconnects, 1);
        assert!(
            duel_target::Target::pipeline_handle(&t).unwrap().is_async(),
            "the actor resumed after the resync"
        );
    }

    #[test]
    fn watchdog_still_kills_hung_turns_inside_the_actor() {
        /// A transport whose replies hang once the shared switch flips.
        struct SwitchSleepy {
            inner: MockGdb,
            slow: Arc<AtomicBool>,
        }
        impl MiTransport for SwitchSleepy {
            fn send_line(&mut self, line: &str) -> Result<(), MiError> {
                self.inner.send_line(line)
            }
            fn recv_line(&mut self) -> Result<String, MiError> {
                if self.slow.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                }
                self.inner.recv_line()
            }
        }
        let slow = Arc::new(AtomicBool::new(false));
        let spawn_slow = slow.clone();
        let mut t = connect_pipelined(
            move || {
                Ok(SwitchSleepy {
                    inner: MockGdb::new(scenario::scan_array()),
                    slow: spawn_slow.clone(),
                })
            },
            RetryPolicy::fast(1),
            CacheConfig::default(),
            SupervisorConfig::fast(2),
            Duration::from_millis(1),
        )
        .unwrap();
        let x = t.inner_mut().get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        // Hang the wire: the watchdog, now ticking on the worker
        // thread, kills the turn and the failure surfaces through the
        // actor as an ordinary error (not a front-thread freeze).
        slow.store(true, Ordering::SeqCst);
        assert!(t.get_bytes(x.addr + 4096, &mut buf).is_err());
        // Healing the wire lets the supervisor respawn and recover.
        slow.store(false, Ordering::SeqCst);
        assert!(t.get_bytes(x.addr + 8192, &mut buf).is_err());
        assert_eq!(t.state(), CircuitState::Open);
        t.force_reconnect().unwrap();
        t.get_bytes(x.addr, &mut buf).unwrap();
    }

    #[test]
    fn resync_flags_a_rebuilt_debuggee() {
        // The respawned process serves a *different* program: the
        // record imported before the kill no longer exists, which the
        // type-table verification must surface (not silently adopt).
        let switch = Arc::new(AtomicBool::new(false));
        let spawn_switch = switch.clone();
        let mut spawned = 0u32;
        let mut t = connect_supervised(
            move || {
                spawn_switch.store(false, Ordering::SeqCst);
                spawned += 1;
                let sim = if spawned == 1 {
                    scenario::hash_table_basic()
                } else {
                    scenario::scan_array()
                };
                Ok(Killable {
                    inner: MockGdb::new(sim),
                    dead: spawn_switch.clone(),
                })
            },
            RetryPolicy::fast(1),
            CacheConfig::default(),
            SupervisorConfig::fast(2),
            LONG,
        )
        .unwrap();

        let hash = t.inner_mut().get_variable("hash").unwrap();
        assert!(t.inner_mut().lookup_struct("symbol").is_some());
        switch.store(true, Ordering::SeqCst);
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(hash.addr + 64, &mut buf).is_err());
        assert!(t.get_bytes(hash.addr + 128, &mut buf).is_err());
        assert_eq!(t.state(), CircuitState::Open);
        // Recovery succeeds (the new process is alive) but the resync
        // report flags the drift.
        t.force_reconnect().unwrap();
        assert_eq!(t.state(), CircuitState::Closed);
        let resync = t.last_resync().unwrap();
        assert!(!resync.type_table_ok);
        assert!(
            resync.detail.contains("symbol"),
            "detail names the drifted record: {}",
            resync.detail
        );
        assert_eq!(resync.symbols, 0, "`hash` is gone from the new program");
    }

    #[test]
    fn reattach_refuses_an_abi_change() {
        let mut t = MiTarget::connect(MockGdb::new(scenario::scan_array())).unwrap();
        let ilp32 = duel_target::SimTarget::new(duel_ctype::Abi::ilp32_be());
        let err = t.reattach(MockGdb::new(ilp32)).unwrap_err();
        assert!(matches!(err, TargetError::Backend(_)));
        assert!(err.to_string().contains("ABI changed"), "{err}");
    }
}
