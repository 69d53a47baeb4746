//! Wire turns of a cold hash walk through the supervised MI tower.
//!
//! `#/(hash[..1024]-->next)` walks 1,024 independent chains. The
//! evaluator's wavefront planner reads them level by level, every level
//! of a group of roots in one vectored batch, so the page cache fills
//! its pages many to a wire turn: the walk costs tens of MI turns, not
//! one per page. Every turn is still a cache backend read (or one of
//! the handful of symbol and type lookups).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use duel_core::Session;
use duel_gdbmi::{connect_supervised, MiError, MiTransport, MockGdb};
use duel_target::{scenario, CacheConfig, RetryPolicy, SupervisorConfig};

/// Counts wire turns: send → receive transitions, so a pipelined batch
/// counts once.
struct Tap {
    inner: MockGdb,
    sent: bool,
    turns: Arc<AtomicU64>,
}

impl MiTransport for Tap {
    fn send_line(&mut self, line: &str) -> Result<(), MiError> {
        self.sent = true;
        self.inner.send_line(line)
    }

    fn recv_line(&mut self) -> Result<String, MiError> {
        if std::mem::take(&mut self.sent) {
            self.turns.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.recv_line()
    }
}

#[test]
fn cold_hash_walk_fills_its_pages_in_tens_of_turns() {
    let turns = Arc::new(AtomicU64::new(0));
    let tap_turns = turns.clone();
    let mut t = connect_supervised(
        move || {
            Ok(Tap {
                inner: MockGdb::new(scenario::bench_hash(1024, 4, 7)),
                sent: false,
                turns: tap_turns.clone(),
            })
        },
        RetryPolicy::default(),
        CacheConfig::default(),
        SupervisorConfig::default(),
        Duration::from_secs(30),
    )
    .unwrap();
    let before = turns.load(Ordering::Relaxed);
    let lines = Session::new(&mut t)
        .eval_lines("#/(hash[..1024]-->next)")
        .unwrap();
    assert_eq!(lines, ["4096"]);
    let turns = turns.load(Ordering::Relaxed) - before;
    let stats = t.inner().inner().stats().clone();
    let filled = stats.page_misses + stats.pages_prefetched;
    eprintln!("cold walk: {turns} MI turns, {filled} pages filled, {stats:?}");
    // The node set overflows the default cache, so the walk really
    // fills (and evicts) pages.
    assert!(filled > 1000, "{stats:?}");
    assert!(
        turns <= stats.backend_reads + 16,
        "{turns} MI turns for {} cache fills",
        stats.backend_reads
    );
    assert!(turns <= 100, "{turns} MI turns for {filled} pages");
}

/// The mock server keeps no log of the commands it serves: cold walk
/// after cold walk leaves it empty, so a long session's memory stays
/// flat.
#[test]
fn cold_walks_leave_no_command_log() {
    struct Watch {
        inner: MockGdb,
        longest_log: Arc<AtomicU64>,
    }
    impl MiTransport for Watch {
        fn send_line(&mut self, line: &str) -> Result<(), MiError> {
            self.inner.send_line(line)?;
            let len = self.inner.log.len() as u64;
            self.longest_log.fetch_max(len, Ordering::Relaxed);
            Ok(())
        }

        fn recv_line(&mut self) -> Result<String, MiError> {
            self.inner.recv_line()
        }
    }
    let longest_log = Arc::new(AtomicU64::new(0));
    let watch_log = longest_log.clone();
    let mut t = connect_supervised(
        move || {
            Ok(Watch {
                inner: MockGdb::new(scenario::bench_hash(1024, 4, 7)),
                longest_log: watch_log.clone(),
            })
        },
        RetryPolicy::default(),
        CacheConfig::default(),
        SupervisorConfig::default(),
        Duration::from_secs(30),
    )
    .unwrap();
    for _ in 0..10 {
        t.inner_mut().inner_mut().invalidate_all();
        let lines = Session::new(&mut t)
            .eval_lines("#/(hash[..1024]-->next)")
            .unwrap();
        assert_eq!(lines, ["4096"]);
    }
    assert_eq!(longest_log.load(Ordering::Relaxed), 0);
}
