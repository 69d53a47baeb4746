//! Heap allocations per scanned element, counted by a global allocator.
//!
//! A scanned element's symbolic value (`x[i]`: a shared base plus an
//! inline index) and a constant operand (`-2`) must cost no allocation,
//! so a filter over 10,000 elements allocates only per command, not per
//! element. The counter is per thread, so tests running side by side do
//! not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use duel::core::{EvalOptions, Session, SymMode};
use duel::target::{scenario, CachedTarget};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const N: u64 = 10_000;

/// Allocations per element of `src` (which scans all `N` elements) on
/// the cached sim, after one warm-up run that fills the cache.
fn per_element(src: &str, mode: SymMode) -> f64 {
    let mut t = CachedTarget::new(scenario::bench_array(N, 1));
    let opts = EvalOptions {
        sym_mode: mode,
        ..EvalOptions::default()
    };
    let mut s = Session::with_options(&mut t, opts);
    s.eval(src).unwrap();
    let before = allocs();
    s.eval(src).unwrap();
    (allocs() - before) as f64 / N as f64
}

#[test]
fn scanned_elements_do_not_allocate() {
    let counts: Vec<(&str, f64, f64)> = [
        "#/(x[..10000] >? 2)",
        "#/(x[..10000] >? -2)",
        "x[..10000] >? 1000000000",
    ]
    .into_iter()
    .map(|src| {
        let eager = per_element(src, SymMode::Eager);
        (src, eager, per_element(src, SymMode::Lazy))
    })
    .collect();
    assert!(
        counts.iter().all(|&(_, eager, _)| eager <= 0.1),
        "allocations per element (source, eager, lazy): {counts:?}"
    );
}

#[test]
fn constant_operands_keep_the_step_count() {
    let mut t = CachedTarget::new(scenario::bench_array(N, 1));
    let mut s = Session::new(&mut t);
    s.eval("#/(x[..100] >? -2)").unwrap();
    // Every element still activates the literal under the `-`: the
    // memo saves the arithmetic, not the steps.
    assert_eq!(s.last_stats().ticks, 305);
}
