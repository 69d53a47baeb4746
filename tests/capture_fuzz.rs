//! Hostile captures yield errors, not panics.
//!
//! A capture file is input from outside the process: it may be
//! truncated by a crash, edited by hand, or corrupted in transit. This
//! test records one real session (scans, a walk, a store, a call and
//! a fault), mutates the capture's lines — byte flips, truncation,
//! dropped and duplicated lines, numbers replaced by huge ones — and
//! runs each mutant through [`Capture::parse`], then through strict
//! and permissive replay of the recorded commands plus a few it never
//! saw. Any outcome is fine except a panic.

use std::sync::OnceLock;

use duel::core::Session;
use duel::target::{
    scenario, CacheConfig, CachedTarget, Capture, RecordTarget, ReplayMode, ReplayTarget,
    SharedSink,
};
use proptest::prelude::*;

/// The recorded commands.
const RECORDED: &[&str] = &[
    "x[1..4,8,12..50] >? 5 <? 10",
    "#/(hash[..64]-->next)",
    "root-->(left,right)->key",
    "x[3] = 9",
    "argv[0]",
    "strlen(\"abc\")",
    "x[99999..100000]",
    "s",
];

/// Commands the capture never saw (permissive replay answers them from
/// the rebuilt image; strict replay diverges).
const UNSEEN: &[&str] = &["x[..70]", "L-->next->value", "head->next->next"];

/// The lines of one recorded session (header, events, footer).
fn recorded_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let sink = SharedSink::default();
        let mut rec = RecordTarget::new(scenario::combined());
        rec.start(Box::new(sink.clone()), "sim", "combined")
            .unwrap();
        let mut t = CachedTarget::with_config(rec, CacheConfig::default());
        {
            let mut s = Session::new(&mut t);
            s.options.error_values = true;
            for e in RECORDED {
                let _ = s.eval_lines(e);
            }
        }
        t.inner_mut().stop().unwrap();
        sink.contents().lines().map(str::to_string).collect()
    })
}

/// One way to damage a capture. Positions are taken modulo the size
/// of whatever they index when the mutation is applied.
#[derive(Clone, Debug)]
enum Mutation {
    /// XOR one byte of one line.
    Flip { line: usize, at: usize, mask: u8 },
    /// Cut the whole text at a byte offset.
    Truncate { at: usize },
    /// Remove one line.
    Drop { line: usize },
    /// Repeat one line right after itself.
    Duplicate { line: usize },
    /// Replace the `nth` run of digits in one line by a huge number.
    Huge {
        line: usize,
        nth: usize,
        which: usize,
    },
}

const HUGE: &[&str] = &[
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775807",
    "-9223372036854775808",
    "340282366920938463463374607431768211456",
    "1e308",
    "4294967296",
];

fn mutation() -> impl Strategy<Value = Mutation> {
    let pos = || 0usize..100_000;
    prop_oneof![
        (pos(), pos(), 1u8..=255).prop_map(|(line, at, mask)| Mutation::Flip { line, at, mask }),
        pos().prop_map(|at| Mutation::Truncate { at }),
        pos().prop_map(|line| Mutation::Drop { line }),
        pos().prop_map(|line| Mutation::Duplicate { line }),
        (pos(), 0usize..64, 0usize..HUGE.len()).prop_map(|(line, nth, which)| Mutation::Huge {
            line,
            nth,
            which
        }),
    ]
}

/// Replaces the `nth` (mod the count) run of ASCII digits in `line`.
fn replace_digits(line: &[u8], nth: usize, with: &str) -> Vec<u8> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < line.len() {
        if line[i].is_ascii_digit() {
            let start = i;
            while i < line.len() && line[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    let Some(&(a, b)) = runs.get(nth % runs.len().max(1)) else {
        return line.to_vec();
    };
    [&line[..a], with.as_bytes(), &line[b..]].concat()
}

fn apply(lines: &mut Vec<Vec<u8>>, m: &Mutation) {
    if lines.is_empty() {
        return;
    }
    let n = lines.len();
    match *m {
        Mutation::Flip { line, at, mask } => {
            let l = &mut lines[line % n];
            if !l.is_empty() {
                let k = at % l.len();
                l[k] ^= mask;
            }
        }
        Mutation::Truncate { at } => {
            let mut text = lines.join(&b'\n');
            text.truncate(at % (text.len() + 1));
            *lines = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        }
        Mutation::Drop { line } => {
            lines.remove(line % n);
        }
        Mutation::Duplicate { line } => {
            let l = lines[line % n].clone();
            lines.insert(line % n, l);
        }
        Mutation::Huge { line, nth, which } => {
            let l = &mut lines[line % n];
            *l = replace_digits(l, nth, HUGE[which]);
        }
    }
}

/// Replays every command over `cap` in `mode`; only a panic fails.
fn replay(cap: Capture, mode: ReplayMode) {
    let mut t = CachedTarget::with_config(
        ReplayTarget::from_capture(cap, mode),
        CacheConfig::default(),
    );
    let mut s = Session::new(&mut t);
    s.options.error_values = true;
    s.options.max_ticks = 100_000;
    for e in RECORDED.iter().chain(UNSEEN) {
        let _ = s.eval_lines(e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512, ..ProptestConfig::default()
    })]

    #[test]
    fn mutated_captures_never_panic(muts in prop::collection::vec(mutation(), 1..5)) {
        let mut lines: Vec<Vec<u8>> =
            recorded_lines().iter().map(|l| l.as_bytes().to_vec()).collect();
        for m in &muts {
            apply(&mut lines, m);
        }
        let text = String::from_utf8_lossy(&lines.join(&b'\n')).into_owned();
        if let Ok(cap) = Capture::parse(&text) {
            replay(cap.clone(), ReplayMode::Strict);
            replay(cap, ReplayMode::Permissive);
        }
    }
}

/// The unmutated capture parses and replays strictly: the mutants
/// start from a valid session.
#[test]
fn the_recorded_session_replays_cleanly() {
    let text = recorded_lines().join("\n");
    let cap = Capture::parse(&text).expect("parse");
    assert!(cap.events.len() > 20, "{} events", cap.events.len());
    let mut t = CachedTarget::with_config(
        ReplayTarget::from_capture(cap, ReplayMode::Strict),
        CacheConfig::default(),
    );
    {
        let mut s = Session::new(&mut t);
        s.options.error_values = true;
        for e in RECORDED {
            s.eval_lines(e).unwrap();
        }
    }
    assert!(
        t.inner().divergence().is_none(),
        "{:?}",
        t.inner().divergence()
    );
    assert_eq!(t.inner().events_consumed(), t.inner().events_total());
}
