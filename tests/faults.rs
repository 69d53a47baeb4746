//! Fault-tolerance integration suite: the debugger-interface layer
//! under injected faults, and the evaluator under hostile expressions.
//!
//! Three layers are exercised together:
//!
//! 1. [`duel::target::ChaosTarget`] injects transient failures,
//!    poisoned address ranges, and truncated reads below the `Target`
//!    interface;
//! 2. [`duel::target::RetryTarget`] absorbs the transient class with
//!    bounded retries, while the fault class passes through;
//! 3. the evaluator's resource budgets (`max_ticks`, `max_depth`,
//!    `max_expand`, `timeout_ms`) terminate expressions that would
//!    otherwise never finish, naming the exhausted budget — and with
//!    `error_values` on, a fault confined to one element of a stream
//!    renders as `<error: ...>` while the rest of the stream continues.

use duel::core::{DuelError, Session};
use duel::gdbmi::{MiTarget, MockGdb};
use duel::target::{scenario, ChaosTarget, FaultConfig, RetryPolicy, RetryTarget, Target};

// ---- transient failures and retries ------------------------------------

#[test]
fn transient_faults_are_retried_to_success() {
    let sim = scenario::scan_array();
    // The first two memory operations fail with a transient backend
    // error, then the target recovers.
    let faulty = ChaosTarget::with_faults(sim, FaultConfig::transient(2));
    let mut t = RetryTarget::with_policy(faulty, RetryPolicy::fast(3));
    {
        let mut s = Session::new(&mut t);
        assert_eq!(s.eval_lines("x[3..3]").unwrap(), vec!["x[3] = 7"]);
    }
    assert_eq!(t.retries(), 2, "both transients observable as retries");
}

#[test]
fn persistent_transient_failures_exhaust_the_retry_budget() {
    let sim = scenario::scan_array();
    let faulty = ChaosTarget::with_faults(sim, FaultConfig::transient(100));
    let mut t = RetryTarget::with_policy(faulty, RetryPolicy::fast(2));
    let mut s = Session::new(&mut t);
    let err = s.eval("x[3..3]").unwrap_err();
    match err {
        DuelError::Target(e) => assert!(e.is_transient(), "{e}"),
        other => panic!("expected a backend failure, got {other:?}"),
    }
}

// ---- permanent faults as per-element symbolic errors -------------------

#[test]
fn permanent_fault_yields_error_value_and_stream_continues() {
    let mut sim = scenario::scan_array();
    let x = sim.get_variable("x").unwrap();
    // Poison exactly x[3]; the rest of the array stays readable.
    let mut t = ChaosTarget::with_faults(sim, FaultConfig::poisoned(x.addr + 12, 4));
    let mut s = Session::new(&mut t);
    s.options.error_values = true;
    let lines = s.eval_lines("x[0..5]").unwrap();
    assert_eq!(lines.len(), 6, "{lines:?}");
    assert_eq!(lines[2], "x[2] = 102");
    assert!(
        lines[3].starts_with("x[3] = <error:"),
        "poisoned element should render symbolically: {lines:?}"
    );
    assert_eq!(lines[4], "x[4] = 104");
}

#[test]
fn strict_mode_stops_at_the_first_fault() {
    let mut sim = scenario::scan_array();
    let x = sim.get_variable("x").unwrap();
    let mut t = ChaosTarget::with_faults(sim, FaultConfig::poisoned(x.addr + 12, 4));
    let mut s = Session::new(&mut t);
    // Default options: the paper's behaviour — values until the error,
    // then the error.
    let (lines, err) = s.eval_partial("x[0..5]").unwrap();
    assert_eq!(lines.len(), 3, "{lines:?}");
    let err = err.expect("the poisoned element must fault");
    assert!(err.is_fault(), "{err}");
}

#[test]
fn error_values_round_trip_the_mi_wire() {
    // The same fault-tolerant display works when the fault is reported
    // by a debugger over gdb/MI (taxonomy preserved through `^error`
    // records).
    let mut mi = MiTarget::connect(MockGdb::new(scenario::scan_array())).unwrap();
    let mut s = Session::new(&mut mi);
    s.options.error_values = true;
    // x[100000] is an lvalue far past the arena: reading it faults.
    let lines = s.eval_lines("x[99999..100000]").unwrap();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("<error:"), "{lines:?}");
    assert!(lines[1].contains("<error:"), "{lines:?}");
}

#[test]
fn truncated_reads_are_reported_with_partial_length() {
    let mut sim = scenario::scan_array();
    let x = sim.get_variable("x").unwrap();
    let cfg = FaultConfig {
        truncate_reads_above: Some(2),
        ..FaultConfig::default()
    };
    let mut t = ChaosTarget::with_faults(sim, cfg);
    let mut buf = [0u8; 4];
    let err = t.get_bytes(x.addr, &mut buf).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("wanted 4"), "{msg}");
    assert!(!err.is_fault() && err.is_transient(), "{msg}");
}

// ---- resource budgets ---------------------------------------------------

#[test]
fn step_budget_terminates_infinite_while() {
    let mut t = scenario::scan_array();
    let mut s = Session::new(&mut t);
    s.options.max_ticks = 10_000;
    let err = s.eval("while (1) 1").unwrap_err();
    match &err {
        DuelError::BudgetExceeded { budget, limit, .. } => {
            assert_eq!(budget, "step");
            assert_eq!(*limit, 10_000);
        }
        other => panic!("expected a budget error, got {other:?}"),
    }
    assert!(err.to_string().contains("step budget of 10000"), "{err}");
}

#[test]
fn time_budget_terminates_infinite_while() {
    let mut t = scenario::scan_array();
    let mut s = Session::new(&mut t);
    s.options.timeout_ms = 20;
    s.options.max_ticks = u64::MAX;
    let err = s.eval("while (1) 1 ;").unwrap_err();
    match &err {
        DuelError::BudgetExceeded { budget, limit, .. } => {
            assert_eq!(budget, "time");
            assert_eq!(*limit, 20);
        }
        other => panic!("expected a time budget error, got {other:?}"),
    }
}

#[test]
fn depth_budget_bounds_generator_nesting() {
    let mut t = scenario::scan_array();
    let mut s = Session::new(&mut t);
    s.options.max_depth = 8;
    // Shallow expressions still evaluate under the same limit...
    assert_eq!(s.eval_lines("1+2").unwrap(), vec!["3"]);
    // ...but nesting past the budget is refused before it can eat the
    // native stack.
    let err = s
        .eval("1+(1+(1+(1+(1+(1+(1+(1+(1+(1+1)))))))))")
        .unwrap_err();
    match &err {
        DuelError::BudgetExceeded { budget, .. } => assert_eq!(budget, "depth"),
        other => panic!("expected a depth budget error, got {other:?}"),
    }
}

// ---- cyclic structures under `-->` --------------------------------------

/// Makes the scenario's `L` list circular (last node's `next` points
/// back at the head) and returns the target.
fn cyclic_list() -> duel::target::SimTarget {
    let mut t = scenario::linked_lists();
    let (rid, _) = t.core.types.declare_struct("list");
    let layout = t.core.types.record_layout(rid, &t.core.abi).unwrap();
    let next_off = layout.fields[1].offset;
    let l_var = t.get_variable("L").unwrap();
    let head = t.core.read_ptr(l_var.addr).unwrap();
    let mut node = head;
    loop {
        let next = t.core.read_ptr(node + next_off).unwrap();
        if next == 0 {
            break;
        }
        node = next;
    }
    t.core.write_ptr(node + next_off, head).unwrap();
    t
}

#[test]
fn cycle_check_terminates_a_circular_list() {
    let mut t = cyclic_list();
    let mut s = Session::new(&mut t);
    // The visited set sees the back-edge: exactly the 12 distinct
    // nodes are produced.
    assert_eq!(s.eval_lines("L-->next->value").unwrap().len(), 12);
}

#[test]
fn expansion_budget_terminates_a_circular_list_without_cycle_check() {
    let mut t = cyclic_list();
    let mut s = Session::new(&mut t);
    // The paper's implementation "does not handle cycles"; with the
    // visited set off, the expansion budget is the backstop.
    s.options.dfs_cycle_check = false;
    s.options.max_expand = 50;
    let err = s.eval("L-->next->value").unwrap_err();
    match &err {
        DuelError::BudgetExceeded { budget, limit, sym } => {
            assert_eq!(budget, "expansion");
            assert_eq!(*limit, 50);
            assert!(
                sym.contains("next"),
                "the diagnostic should name the offending walk: {sym}"
            );
        }
        other => panic!("expected an expansion budget error, got {other:?}"),
    }
    assert!(err.to_string().contains("expansion budget of 50"), "{err}");
}

// ---- wide-scalar and probe-flake regressions ---------------------------

#[test]
fn wide_scalars_are_rejected_on_big_endian_not_truncated() {
    use duel::ctype::Abi;
    use duel::target::{value_io, SimTarget, TargetError};
    // Regression: `read_uint` with size > 8 used to keep only the first
    // 8 bytes it iterated — on big-endian targets those are the
    // *high-order* bytes, so a 16-byte scalar quietly collapsed to its
    // top half. Both directions must refuse the width instead.
    let mut t = SimTarget::new(Abi::ilp32_be());
    let addr = t.core.alloc(16, 16).unwrap();
    t.core
        .mem
        .write(addr, &[0xAB; 16])
        .expect("seed the wide slot");
    assert_eq!(
        value_io::read_uint(&mut t, addr, 16),
        Err(TargetError::UnsupportedWidth { bytes: 16 })
    );
    assert_eq!(
        value_io::write_uint(&mut t, addr, 0x1234, 16),
        Err(TargetError::UnsupportedWidth { bytes: 16 })
    );
    // A refused write leaves the destination untouched.
    let mut buf = [0u8; 16];
    t.core.mem.read(addr, &mut buf).unwrap();
    assert_eq!(buf, [0xAB; 16]);
    // In-range widths still work, in big-endian byte order.
    value_io::write_uint(&mut t, addr, 0x0102_0304, 4).unwrap();
    assert_eq!(value_io::read_uint(&mut t, addr, 4), Ok(0x0102_0304));
}

#[test]
fn zero_width_sign_extend_is_zero_not_overflow() {
    use duel::target::value_io;
    // Regression: `sign_extend(raw, 0)` computed `raw << 64`.
    assert_eq!(value_io::sign_extend(u64::MAX, 0), 0);
    assert_eq!(value_io::sign_extend(0xFF, 1), -1);
}

#[test]
fn probe_flakes_never_poison_the_cached_prefix() {
    use duel::target::{CacheConfig, CachedTarget};
    // scan_array's arena is 240 bytes; with 4096-byte pages every page
    // fetch faults at the arena edge and the cache bisects (~13 wire
    // ops) for the readable prefix. `fail_every: 7` guarantees every
    // single bisection is interrupted by a transient. The old code
    // conflated that transient with the fault class, so each flake
    // *shrank* the cached prefix and the shrunk page was served for the
    // rest of the epoch; the fixed code aborts the probe, caches
    // nothing, and serves the access through the exact-read fallback
    // (re-driven by RetryTarget when the fallback itself flakes) — so
    // every value stays correct and the cache holds no damaged page.
    // Recovery once the flakes stop (the full 240-byte prefix being
    // cached by a clean re-probe) is pinned down by the unit test in
    // `crates/target/src/cache.rs`.
    let flaky = ChaosTarget::with_faults(
        scenario::scan_array(),
        FaultConfig {
            fail_every: 7,
            ..FaultConfig::default()
        },
    );
    let cached = CachedTarget::with_config(
        flaky,
        CacheConfig {
            page_size: 4096,
            ..CacheConfig::default()
        },
    );
    let mut t = RetryTarget::with_policy(cached, RetryPolicy::fast(5));
    let mut s = Session::new(&mut t);
    assert_eq!(
        s.eval_lines("x[1..4,8,12..50] >? 5 <? 10").unwrap(),
        vec!["x[3] = 7", "x[18] = 9", "x[47] = 6"]
    );
    for _ in 0..5 {
        assert_eq!(s.eval_lines("x[..60]").unwrap().len(), 60);
    }
    let cache = t.inner_mut();
    assert!(
        cache.inner().handle().injected() > 0,
        "the flakes must actually have fired"
    );
    for (base, bytes) in cache.resident_pages() {
        assert_eq!(
            bytes.len(),
            240,
            "page {base:#x}: a flaked probe must never cache a shrunk prefix"
        );
    }
}
