//! Bounded retry with exponential backoff over a flaky [`Target`].
//!
//! [`RetryTarget`] re-issues an operation when it fails with a
//! *transient* error ([`TargetError::is_transient`]); *faults* (bad
//! address, unknown symbol) are the debuggee's honest answer and are
//! returned immediately. Each call carries an optional wall-clock
//! deadline, after which the operation fails with
//! [`TargetError::Timeout`] instead of retrying forever.
//!
//! Backoff is *jittered*: each delay is scaled by a deterministic
//! factor in `1 ± jitter` derived from ([`RetryPolicy::seed`], retry
//! number), so stacked retry layers (session retry over an MI client's
//! own reconnect loop) don't sleep in lockstep and hammer a recovering
//! backend in synchronized waves — while a given policy still backs
//! off identically across runs, keeping tests reproducible.
//!
//! Besides the per-policy deadline, an *operation deadline* can be set
//! per evaluation ([`RetryTarget::set_op_deadline`]): the evaluator
//! passes its own `timeout_ms` budget down so a retrying op can't
//! overshoot the eval budget by a full backoff ceiling — sleeps are
//! clamped against whichever deadline is nearer.

use crate::error::TargetError;
use crate::iface::{read_picked, Target};
use crate::op::{Op, Reply};
use crate::span::{SpanContext, SpanKind};
use crate::trace::TraceOp;
use std::time::{Duration, Instant};

/// How a [`RetryTarget`] behaves.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Maximum retries per operation (total attempts = retries + 1).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Per-operation wall-clock budget, counted from the operation's
    /// first transient failure and checked before every retry.
    pub deadline: Option<Duration>,
    /// Whether to actually sleep between attempts (tests disable this
    /// to stay fast while still observing the retry count).
    pub sleep: bool,
    /// Jitter amplitude: each backoff is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter]` (0.0 = pure doubling).
    pub jitter: f64,
    /// Seed for the jitter factors; a fixed seed makes every backoff
    /// sequence reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            deadline: Some(Duration::from_secs(5)),
            sleep: true,
            jitter: 0.25,
            seed: 0xd0e1_5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy for tests: same retry shape, no real sleeping.
    pub fn fast(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            sleep: false,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `n` (1-based): doubled each
    /// time, capped at [`RetryPolicy::max_delay`], then scaled by a
    /// deterministic jitter factor in `1 ± jitter` drawn from
    /// ([`RetryPolicy::seed`], `n`). The cap still bounds the result.
    pub fn backoff(&self, n: u32) -> Duration {
        let factor = 1u32 << n.saturating_sub(1).min(16);
        let capped = (self.base_delay * factor).min(self.max_delay);
        if self.jitter <= 0.0 {
            return capped;
        }
        // splitmix64 of (seed, n): a stateless draw, so backoff(n) is a
        // pure function of the policy.
        let mut z = self.seed ^ (u64::from(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let scale = (1.0 + self.jitter * (2.0 * unit - 1.0)).max(0.0);
        capped.mul_f64(scale).min(self.max_delay)
    }
}

/// Counters describing what a [`RetryTarget`] has absorbed. Cumulative
/// since construction or the last [`RetryTarget::reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retryable operations attempted (memory, alloc, call; lookups
    /// pass through unretried).
    pub operations: u64,
    /// Re-attempts after a transient failure.
    pub retries: u64,
    /// Operations abandoned after exhausting retries or the deadline.
    pub give_ups: u64,
    /// Total backoff scheduled, nanoseconds (accrued even under a
    /// non-sleeping test policy, so tests can assert the shape).
    pub backoff_ns: u64,
}

/// A [`Target`] decorator that absorbs transient backend failures.
#[derive(Debug)]
pub struct RetryTarget<T: Target> {
    inner: T,
    policy: RetryPolicy,
    stats: RetryStats,
    /// Wall-clock instant past which no operation may retry or sleep —
    /// the evaluator's `timeout_ms` budget, pushed down per evaluation.
    op_deadline: Option<Instant>,
    /// Shared span timeline, installed by the trace layer above. One
    /// retrying operation opens ONE logical `retry` span (back-dated
    /// to its first transient failure) with an instant child per
    /// re-attempt.
    spans: Option<SpanContext>,
}

impl<T: Target> RetryTarget<T> {
    /// Wraps `inner` with the default policy.
    pub fn new(inner: T) -> RetryTarget<T> {
        RetryTarget::with_policy(inner, RetryPolicy::default())
    }

    /// Wraps `inner` with an explicit policy.
    pub fn with_policy(inner: T, policy: RetryPolicy) -> RetryTarget<T> {
        RetryTarget {
            inner,
            policy,
            stats: RetryStats::default(),
            op_deadline: None,
            spans: None,
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

    /// Total retries performed across all operations so far.
    pub fn retries(&self) -> u64 {
        self.stats.retries
    }

    /// The full counter set (attempts, retries, give-ups, backoff).
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Resets all counters to zero.
    pub fn reset_stats(&mut self) {
        self.stats = RetryStats::default();
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Sets (or clears) the operation deadline: the wall-clock instant
    /// past which retrying ops fail with [`TargetError::Timeout`]
    /// instead of sleeping on. The evaluator pushes its `timeout_ms`
    /// budget down here, so a retrying op can't overshoot the eval
    /// budget by a full backoff ceiling.
    pub fn set_op_deadline(&mut self, deadline: Option<Instant>) {
        self.op_deadline = deadline;
    }

    /// The currently installed operation deadline, if any.
    pub fn op_deadline(&self) -> Option<Instant> {
        self.op_deadline
    }

    /// Opens (at most once per operation) the logical `retry` span for
    /// this retry episode, back-dated to the first transient failure.
    fn open_retry_span(&self, name: &'static str, start: Instant) -> u64 {
        match &self.spans {
            Some(s) if s.is_enabled() => {
                let start_ns = s.now_ns().saturating_sub(start.elapsed().as_nanos() as u64);
                s.push_at(SpanKind::Retry, "retry", || name.to_string(), start_ns)
            }
            _ => 0,
        }
    }

    fn note_attempt(&self, attempt: u32, backoff: Duration, retry_span: u64) {
        if retry_span == 0 {
            return;
        }
        if let Some(s) = &self.spans {
            s.instant(SpanKind::Retry, "attempt", || {
                format!("#{attempt} backoff {}ns", backoff.as_nanos())
            });
        }
    }

    fn close_retry_span(&self, retry_span: u64) {
        if retry_span != 0 {
            if let Some(s) = &self.spans {
                s.pop(retry_span);
            }
        }
    }

    /// Issues one fallible op, re-driving it while it fails
    /// transiently. The clean first attempt is the hot path: no clock
    /// read, no span, no backoff bookkeeping.
    #[inline(always)]
    fn run(&mut self, mut op: Op<'_, '_>) -> Reply {
        self.stats.operations += 1;
        let reply = op.reborrow().apply(&mut self.inner);
        if reply.errors().any(TargetError::is_transient) {
            return self.retry(op, reply);
        }
        reply
    }

    /// The retry episode after a transient first attempt: bounded
    /// re-drives with jittered backoff, clamped by the deadlines.
    ///
    /// The episode starts at the first transient failure, not when the
    /// op was issued: the per-operation budget and the back-dated
    /// `retry` span both count from there, so a clean op never reads
    /// the clock.
    #[inline(never)]
    fn retry(&mut self, mut op: Op<'_, '_>, mut reply: Reply) -> Reply {
        let start = Instant::now();
        // The effective budget for this operation: the policy's
        // per-operation allowance clamped by however much of the eval
        // budget is left.
        let budget = match (self.policy.deadline, self.op_deadline) {
            (Some(p), Some(od)) => Some(p.min(od.saturating_duration_since(start))),
            (Some(p), None) => Some(p),
            (None, Some(od)) => Some(od.saturating_duration_since(start)),
            (None, None) => None,
        };
        let mut attempt = 0u32;
        // One *logical* span covers the whole retry episode, opened at
        // the first re-attempt and back-dated to the first transient
        // failure.
        let mut retry_span = 0u64;
        while reply.errors().any(TargetError::is_transient) {
            if attempt >= self.policy.max_retries {
                self.stats.give_ups += 1;
                break;
            }
            attempt += 1;
            self.stats.retries += 1;
            if retry_span == 0 {
                let kind = op.trace_op();
                retry_span = self.open_retry_span(kind.map_or("", TraceOp::name), start);
            }
            let mut backoff = self.policy.backoff(attempt);
            if let Some(budget) = budget {
                let elapsed = start.elapsed();
                if elapsed >= budget {
                    self.stats.give_ups += 1;
                    let ms = budget.as_millis() as u64;
                    reply.map_results(|e| {
                        e.filter(|e| e.is_transient())
                            .map(|_| TargetError::Timeout { ms })
                    });
                    break;
                }
                // Never sleep past the deadline.
                backoff = backoff.min(budget - elapsed);
            }
            self.note_attempt(attempt, backoff, retry_span);
            self.stats.backoff_ns += backoff.as_nanos() as u64;
            if self.policy.sleep {
                std::thread::sleep(backoff);
            }
            reply = self.redrive(op.reborrow(), reply);
        }
        self.close_retry_span(retry_span);
        reply
    }

    /// Re-issues what is still transient. A vectored read is re-driven
    /// as ONE inner vectored call covering only its transient ranges:
    /// retrying ranges one by one would dissolve the batch back into
    /// scalar wire turns.
    fn redrive(&mut self, op: Op<'_, '_>, reply: Reply) -> Reply {
        let (ranges, mut results) = match (op, reply) {
            (Op::GetBytesMulti(ranges), Reply::Multi(results)) => (ranges, results),
            (op, _) => return op.apply(&mut self.inner),
        };
        let transient = |i: usize| results[i].as_ref().is_err_and(TargetError::is_transient);
        for (i, res) in read_picked(&mut self.inner, ranges, transient) {
            results[i] = res;
        }
        Reply::Multi(results)
    }
}

impl<T: Target> crate::op::Layer for RetryTarget<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.inner
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Retries memory, allocation and calls. Lookups pass through
    /// unretried. Calls are retried only when the backend says the
    /// failure was transient, which for the MI adapter means the
    /// command never ran, so a side-effecting call is not repeated.
    #[inline(always)]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        if !op.is_fallible() {
            return op.apply(&mut self.inner);
        }
        self.run(op)
    }

    fn set_span_context(&mut self, spans: &SpanContext) {
        self.spans = Some(spans.clone());
        self.inner.set_span_context(spans);
    }

    // Prefetch warms (forwarded by default) are deliberately NOT
    // retried: a failed page stays cold and the demand read that
    // eventually needs it re-drives it through the normal (retried)
    // scalar path. Retrying warms would desynchronize the wire
    // sequence between pipeline on and off.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosTarget, FaultConfig};
    use crate::iface::ReadRange;
    use crate::scenario;

    #[test]
    fn absorbs_transient_burst() {
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(2));
        let mut t = RetryTarget::with_policy(flaky, RetryPolicy::fast(3));
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        assert_eq!(t.retries(), 2);
    }

    #[test]
    fn does_not_retry_faults() {
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::default());
        let mut t = RetryTarget::with_policy(flaky, RetryPolicy::fast(3));
        let mut buf = [0u8; 4];
        assert_eq!(
            t.get_bytes(0x99, &mut buf),
            Err(TargetError::IllegalMemory { addr: 0x99, len: 4 })
        );
        assert_eq!(t.retries(), 0, "faults must not be retried");
    }

    #[test]
    fn gives_up_after_max_retries() {
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(10));
        let mut t = RetryTarget::with_policy(flaky, RetryPolicy::fast(3));
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        let err = t.get_bytes(x.addr, &mut buf).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(t.retries(), 3);
    }

    #[test]
    fn deadline_converts_to_timeout() {
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(100));
        let policy = RetryPolicy {
            max_retries: 100,
            deadline: Some(Duration::ZERO),
            sleep: false,
            ..RetryPolicy::default()
        };
        let mut t = RetryTarget::with_policy(flaky, policy);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            t.get_bytes(x.addr, &mut buf),
            Err(TargetError::Timeout { ms: 0 })
        );
    }

    #[test]
    fn stats_count_attempts_backoff_and_give_ups() {
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(6));
        let mut t = RetryTarget::with_policy(flaky, RetryPolicy::fast(3));
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        // Burst of 6 transients, 3 retries allowed: first op gives up
        // after 3 retries (4 attempts consume 4 of the burst)...
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        // ...second op eats the remaining 2 and succeeds.
        t.get_bytes(x.addr, &mut buf).unwrap();
        let s = t.stats();
        assert_eq!(s.operations, 2);
        assert_eq!(s.retries, 5);
        assert_eq!(s.give_ups, 1);
        // Scheduled backoff: jittered 10+20+40 (gave-up op) + 10+20 ms
        // — exact because the jitter is a pure function of the policy.
        let p = t.policy();
        let want: u64 = [1, 2, 3, 1, 2]
            .iter()
            .map(|n| p.backoff(*n).as_nanos() as u64)
            .sum();
        assert_eq!(s.backoff_ns, want);
        t.reset_stats();
        assert_eq!(t.stats(), RetryStats::default());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(35),
            jitter: 0.0, // pure doubling
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(35));
        assert_eq!(p.backoff(10), Duration::from_millis(35));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_dependent() {
        let p = RetryPolicy::default(); // jitter 0.25
        let q = RetryPolicy {
            seed: p.seed + 1,
            ..RetryPolicy::default()
        };
        let mut some_differ = false;
        for n in 1..=10u32 {
            let d = p.backoff(n);
            assert_eq!(d, p.backoff(n), "backoff must be a pure function");
            // Bounds: within ±25% of the doubled-capped base, and the
            // ceiling still holds.
            let base = (p.base_delay * (1 << (n - 1).min(16))).min(p.max_delay);
            assert!(
                d >= base.mul_f64(0.75),
                "retry {n}: {d:?} < 75% of {base:?}"
            );
            assert!(
                d <= base.mul_f64(1.25),
                "retry {n}: {d:?} > 125% of {base:?}"
            );
            assert!(d <= p.max_delay);
            some_differ |= q.backoff(n) != d;
        }
        assert!(some_differ, "different seeds must de-synchronize backoff");
    }

    #[test]
    fn op_deadline_converts_retry_storm_to_timeout() {
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(100));
        let mut t = RetryTarget::with_policy(
            flaky,
            RetryPolicy {
                max_retries: 100,
                deadline: None, // only the eval budget applies
                sleep: false,
                ..RetryPolicy::default()
            },
        );
        t.set_op_deadline(Some(Instant::now()));
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        let err = t.get_bytes(x.addr, &mut buf).unwrap_err();
        assert!(matches!(err, TargetError::Timeout { .. }), "{err}");
        assert_eq!(t.stats().give_ups, 1);
        // Clearing the deadline restores normal retrying.
        t.set_op_deadline(None);
        t.get_bytes(x.addr, &mut buf).unwrap();
    }

    #[test]
    fn op_deadline_clamps_scheduled_sleep() {
        // 50ms of eval budget left, 500ms backoff ceiling: the single
        // scheduled backoff must be clamped to at most the budget.
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(1));
        let mut t = RetryTarget::with_policy(
            flaky,
            RetryPolicy {
                base_delay: Duration::from_millis(400),
                max_delay: Duration::from_millis(500),
                sleep: false,
                ..RetryPolicy::default()
            },
        );
        t.set_op_deadline(Some(Instant::now() + Duration::from_millis(50)));
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert_eq!(t.retries(), 1);
        assert!(
            t.stats().backoff_ns <= 50_000_000,
            "sleep must be clamped to the remaining eval budget, got {} ns",
            t.stats().backoff_ns
        );
    }

    #[test]
    fn retry_episode_is_one_logical_span_with_attempt_children() {
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(2));
        let mut t = RetryTarget::with_policy(flaky, RetryPolicy::fast(3));
        let spans = SpanContext::new(64);
        spans.set_enabled(true);
        t.set_span_context(&spans);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        let snap = spans.snapshot();
        let episodes: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Retry && s.name == "retry")
            .collect();
        assert_eq!(episodes.len(), 1, "2 retries must share ONE logical span");
        assert_eq!(episodes[0].detail, "get_bytes");
        let attempts: Vec<_> = snap.spans.iter().filter(|s| s.name == "attempt").collect();
        assert_eq!(attempts.len(), 2);
        assert!(
            attempts.iter().all(|a| a.parent == episodes[0].id),
            "attempts must be children of the episode span"
        );
        // A clean op never opens a span.
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert_eq!(spans.snapshot().spans.len(), snap.spans.len());
    }

    #[test]
    fn vectored_retry_redrives_only_the_flaky_ranges() {
        // Burst budget of 1: exactly one range of the first vectored
        // attempt flakes; the retry re-drives only that range.
        let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(1));
        let mut t = RetryTarget::with_policy(flaky, RetryPolicy::fast(3));
        let x = t.get_variable("x").unwrap();
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut ranges = [
            ReadRange::new(x.addr, &mut a),
            ReadRange::new(x.addr + 72, &mut b),
        ];
        let rs = t.get_bytes_multi(&mut ranges);
        assert_eq!(rs, vec![Ok(()), Ok(())]);
        assert_eq!(i32::from_le_bytes(a), 100);
        assert_eq!(i32::from_le_bytes(b), 9);
        assert_eq!(t.retries(), 1);
        // First attempt: 2 faultable ops; re-drive: only the flaked one.
        assert_eq!(t.inner().handle().ops(), 3);
    }
}
