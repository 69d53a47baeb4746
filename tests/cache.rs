//! Cache-correctness integration suite: [`duel::target::CachedTarget`]
//! must be invisible to evaluation — identical output lines, fewer
//! backend round-trips — and must stay correct across writes, target
//! resumes (epoch bumps), and injected faults.

use duel::core::{EvalOptions, Session};
use duel::target::{
    scenario, CacheConfig, CachedTarget, ChaosTarget, FaultConfig, RetryPolicy, RetryTarget,
    SimTarget, Target, ARENA_BASE,
};
use proptest::prelude::*;

fn lines(t: &mut dyn Target, expr: &str) -> Vec<String> {
    let mut s = Session::with_options(
        t,
        EvalOptions {
            error_values: true,
            ..EvalOptions::default()
        },
    );
    s.eval_lines(expr)
        .unwrap_or_else(|e| panic!("`{expr}` failed: {e}"))
}

// ---- differential: cached output is byte-identical ---------------------

#[test]
fn cached_and_uncached_agree_across_scenarios() {
    type Case = (fn() -> SimTarget, &'static [&'static str]);
    let cases: &[Case] = &[
        (
            scenario::scan_array,
            &["x[..60]", "x[1..4,8,12..50] >? 5 <? 10", "x[3..9]+1"],
        ),
        (
            scenario::linked_lists,
            &["head-->next->value", "#/(L-->next)", "L-->next[[4]]->value"],
        ),
        (
            scenario::hash_table_basic,
            &["#/(hash[..1024]-->next)", "hash[..30]-->next->scope"],
        ),
        (scenario::binary_tree, &["root-->(left,right)->key"]),
    ];
    for (make, exprs) in cases {
        for expr in *exprs {
            let mut plain = make();
            let want = lines(&mut plain, expr);
            let mut cached = CachedTarget::new(make());
            let got = lines(&mut cached, expr);
            assert_eq!(got, want, "`{expr}` differs under caching");
            assert!(
                cached.stats().page_hits > 0 || cached.stats().backend_reads == 0,
                "`{expr}` never hit the cache: {:?}",
                cached.stats()
            );
        }
    }
}

#[test]
fn coalescing_cuts_backend_reads_at_least_5x() {
    for (make, expr) in [
        (
            scenario::bench_array(256, 42),
            "x[..256] >? 5 <? 10".to_string(),
        ),
        (
            scenario::bench_list(128, 7),
            "head-->next->value".to_string(),
        ),
    ] {
        let mut uncached = CachedTarget::with_config(make.clone(), CacheConfig::disabled());
        let want = lines(&mut uncached, &expr);
        let mut cached = CachedTarget::new(make);
        let got = lines(&mut cached, &expr);
        assert_eq!(got, want, "`{expr}`");
        let (u, c) = (
            uncached.stats().backend_reads,
            cached.stats().backend_reads.max(1),
        );
        assert!(
            u >= 5 * c,
            "`{expr}`: only {u} uncached vs {c} cached reads"
        );
    }
}

// ---- write-through visibility ------------------------------------------

#[test]
fn duel_assignment_is_visible_through_the_cache() {
    let mut t = CachedTarget::new(scenario::scan_array());
    assert_eq!(lines(&mut t, "x[3..3]"), vec!["x[3] = 7"]);
    assert!(lines(&mut t, "x[3] = 55 ;").is_empty());
    // Same page, already cached: the write must have been patched in.
    assert_eq!(lines(&mut t, "x[3..3]"), vec!["x[3] = 55"]);
    assert_eq!(lines(&mut t, "x[2..5]").len(), 4);
    // And the backend really holds the new value.
    let x = t.get_variable("x").unwrap();
    let mut buf = [0u8; 4];
    t.inner_mut().get_bytes(x.addr + 12, &mut buf).unwrap();
    assert_eq!(i32::from_le_bytes(buf), 55);
}

// ---- epoch invalidation after a simulated resume -----------------------

#[test]
fn epoch_bump_discards_state_from_the_previous_stop() {
    let mut t = CachedTarget::new(scenario::scan_array());
    assert_eq!(lines(&mut t, "x[3..3]"), vec!["x[3] = 7"]);
    // "Resume" the debuggee: memory changes behind the cache's back.
    let x = t.inner_mut().get_variable("x").unwrap();
    t.inner_mut()
        .put_bytes(x.addr + 12, &(99i32).to_le_bytes())
        .unwrap();
    assert_eq!(
        lines(&mut t, "x[3..3]"),
        vec!["x[3] = 7"],
        "within one stop, repeated reads are stable"
    );
    t.invalidate_all();
    assert_eq!(lines(&mut t, "x[3..3]"), vec!["x[3] = 99"]);
    assert_eq!(t.epoch(), 1);
    assert_eq!(t.stats().invalidations, 1);
}

// ---- composition with fault injection and retry ------------------------

#[test]
fn transient_faults_cannot_poison_pages() {
    // The first backend operation fails transiently. The cache must
    // not retain anything from that failed fetch; whatever does get
    // cached afterwards must agree with the debuggee.
    let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(1));
    let mut t = CachedTarget::new(flaky);
    let x = t.get_variable("x").unwrap();
    let mut buf = [0u8; 4];
    // First access: the page fetch eats the injected failure, so the
    // cache falls back to an exact, uncached read.
    t.get_bytes(x.addr + 12, &mut buf).unwrap();
    assert_eq!(i32::from_le_bytes(buf), 7);
    // Next access fetches and caches the page; contents must be sound.
    t.get_bytes(x.addr + 16, &mut buf).unwrap();
    assert_eq!(i32::from_le_bytes(buf), 104);
    t.get_bytes(x.addr + 12, &mut buf).unwrap();
    assert_eq!(i32::from_le_bytes(buf), 7);
}

#[test]
fn truncating_backend_degrades_to_exact_reads() {
    // A half-dead stub that refuses reads over 16 bytes: page fetches
    // (64B) always fail, exact element reads succeed. The cache must
    // stay transparent.
    let cfg = FaultConfig {
        truncate_reads_above: Some(16),
        ..FaultConfig::default()
    };
    let stub = ChaosTarget::with_faults(scenario::scan_array(), cfg);
    let mut t = CachedTarget::new(stub);
    assert_eq!(
        lines(&mut t, "x[1..4,8,12..50] >? 5 <? 10"),
        vec!["x[3] = 7", "x[18] = 9", "x[47] = 6"]
    );
}

#[test]
fn full_stack_retry_over_cache_over_faults() {
    // The documented production order: Retry(Cache(Fault(backend))).
    let flaky = ChaosTarget::with_faults(scenario::scan_array(), FaultConfig::transient(2));
    let cached = CachedTarget::new(flaky);
    let mut t = RetryTarget::with_policy(cached, RetryPolicy::fast(5));
    {
        let mut s = Session::new(&mut t);
        assert_eq!(s.eval_lines("x[3..3]").unwrap(), vec!["x[3] = 7"]);
    }
    assert!(t.retries() >= 1, "transients absorbed above the cache");
    // The cache underneath holds only sound pages.
    let mut buf = [0u8; 4];
    let x = t.get_variable("x").unwrap();
    t.get_bytes(x.addr + 18 * 4, &mut buf).unwrap();
    assert_eq!(i32::from_le_bytes(buf), 9);
}

#[test]
fn poisoned_ranges_stay_poisoned_through_the_cache() {
    // A permanently bad page must keep faulting (per access), while
    // its neighbours are served -- and cached -- normally.
    let t = scenario::scan_array();
    let mut probe = t.clone();
    let x = probe.get_variable("x").unwrap();
    let bad = ChaosTarget::with_faults(t, FaultConfig::poisoned(x.addr + 12, 4));
    let mut t = CachedTarget::new(bad);
    let out = lines(&mut t, "x[2..5]");
    assert_eq!(out.len(), 4);
    assert!(out[1].contains("error"), "{out:?}");
    assert!(
        out[0].ends_with("102") && out[2].ends_with("104"),
        "{out:?}"
    );
    // Repeat: identical answers from the now-warm cache.
    assert_eq!(lines(&mut t, "x[2..5]"), out);
}

// ---- oracle: `is_mapped` through the cache is the backend's answer ----

/// One access against scan_array's 240-byte arena: `(read?, addr, len)`.
/// Addresses cluster around both arena edges, with wild and top-of-space
/// pointers mixed in; lengths run from 0 through a page and more to
/// ranges that overflow the address space.
fn access() -> impl Strategy<Value = (bool, u64, u64)> {
    let addr = prop_oneof![
        (0u64..640).prop_map(|o| ARENA_BASE - 200 + o),
        (0u64..64).prop_map(|o| ARENA_BASE + 240 - 32 + o),
        0u64..u64::MAX,
        (0u64..64).prop_map(|o| u64::MAX - o),
    ];
    let len = prop_oneof![
        0u64..1,
        1u64..=16,
        1u64..=300,
        (0u64..8).prop_map(|k| u64::MAX - k),
        0u64..u64::MAX,
    ];
    (0u32..4, addr, len).prop_map(|(op, a, l)| (op == 0, a, l))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, ..ProptestConfig::default()
    })]

    #[test]
    fn is_mapped_through_the_cache_matches_the_bare_backend(
        accesses in prop::collection::vec(access(), 1..40),
        shape in (0usize..3, 1usize..6, 0u64..260, 0u64..33),
    ) {
        // Reads interleave with the queries so partial pages (arena
        // edge, poison) and evictions shape the cache being asked.
        let (ps, pages, poison_at, poison_len) = shape;
        let faults = || FaultConfig::poisoned(ARENA_BASE + poison_at, poison_len);
        let mut bare = ChaosTarget::with_faults(scenario::scan_array(), faults());
        let mut cached = CachedTarget::with_config(
            ChaosTarget::with_faults(scenario::scan_array(), faults()),
            CacheConfig {
                page_size: [8, 64, 4096][ps],
                max_pages: if pages == 5 { 1024 } else { pages },
                ..CacheConfig::default()
            },
        );
        for &(read, addr, len) in &accesses {
            if read {
                let n = len.min(256) as usize;
                let (mut want, mut got) = (vec![0u8; n], vec![0u8; n]);
                let w = bare.get_bytes(addr, &mut want).map(|()| want);
                let g = cached.get_bytes(addr, &mut got).map(|()| got);
                prop_assert_eq!(g.is_ok(), w.is_ok(), "get_bytes({:#x}, {})", addr, n);
                if let (Ok(g), Ok(w)) = (g, w) {
                    prop_assert_eq!(g, w, "bytes at {:#x}+{}", addr, n);
                }
            } else {
                prop_assert_eq!(
                    cached.is_mapped(addr, len),
                    bare.is_mapped(addr, len),
                    "is_mapped({:#x}, {}) with {}-byte pages, poison {:#x}+{}",
                    addr,
                    len,
                    [8, 64, 4096][ps],
                    ARENA_BASE + poison_at,
                    poison_len
                );
            }
        }
    }
}
