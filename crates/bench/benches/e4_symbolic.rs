//! E4 — "In most cases, the computation of the symbolic value is more
//! expensive than computing the result. … in x[..1000] !=? 0, the
//! symbolic expression x[i] is computed 1000 times, even though it
//! might be printed only once."
//!
//! Ablation: the same expressions with eager vs lazy symbolic-value
//! construction ([`SymMode`]). The eager/lazy gap is the symbolic
//! overhead the paper says "would need to be eliminated" for
//! watchpoint-grade uses.
//!
//! Besides the timed groups, the bench counts heap allocations per
//! element, eager and lazy, for each workload and for a filter that
//! drops every element it scans, and writes them to
//! `BENCH_symbolic.json` (gated by `scripts/bench_gate.py`). Counts are
//! deterministic, so the gate compares them across hosts. Run with
//! `cargo bench -p duel-bench --bench e4_symbolic`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use duel_bench::eval_count;
use duel_core::{EvalOptions, Session, SymMode};
use duel_target::{scenario, CachedTarget, SimTarget, Target};

/// Counts every heap allocation in the process.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn options(mode: SymMode) -> EvalOptions {
    EvalOptions {
        sym_mode: mode,
        ..EvalOptions::default()
    }
}

fn hash() -> SimTarget {
    scenario::bench_hash(1024, 3, 7)
}

fn array() -> SimTarget {
    scenario::bench_array(1000, 11)
}

/// A timed workload.
struct Workload {
    name: &'static str,
    make: fn() -> SimTarget,
    expr: &'static str,
    /// Elements per evaluation: the left values a scan or filter
    /// visits, or the pairs a product forms; `None` for a walk, which
    /// counts the nodes it expands.
    elements: Option<u64>,
}

const WORKLOADS: [Workload; 3] = [
    // The paper's exact expression.
    Workload {
        name: "filter_1000",
        make: array,
        expr: "x[..1000] !=? 0",
        elements: Some(1000),
    },
    // A deeper symbolic build: chained fields over the hash table.
    Workload {
        name: "dfs_chain",
        make: hash,
        expr: "hash[..1024]-->next->scope >? 3",
        elements: None,
    },
    // Pure generator arithmetic.
    Workload {
        name: "product",
        make: array,
        expr: "#/((1..100)*(1..100))",
        elements: Some(10_000),
    },
];

fn bench_symbolic(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_symbolic");
    group.sample_size(20);
    for w in &WORKLOADS {
        for (arm, mode) in [("eager", SymMode::Eager), ("lazy", SymMode::Lazy)] {
            let opts = options(mode);
            let mut t = (w.make)();
            group.bench_function(BenchmarkId::new(arm, w.name), |b| {
                b.iter(|| eval_count(&mut t, w.expr, &opts))
            });
        }
    }
    group.finish();
}

/// Allocations per element of one evaluation of `expr` (after a
/// warm-up run), and the element count (`elements`, else the nodes the
/// evaluation expanded).
fn count(t: &mut dyn Target, expr: &str, mode: SymMode, elements: Option<u64>) -> (f64, u64) {
    let mut s = Session::with_options(t, options(mode));
    s.eval(expr)
        .unwrap_or_else(|e| panic!("bench expr `{expr}` failed: {e}"));
    let before = ALLOCS.load(Ordering::Relaxed);
    s.eval(expr).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let n = elements.unwrap_or(s.last_stats().expansions).max(1);
    (allocs as f64 / n as f64, n)
}

fn report_allocations(_: &mut Criterion) {
    // The timed workloads on the plain sim, plus the dropped filter on
    // the cached sim the REPL ships (its scan reads one window per
    // tower call, so only the evaluator allocates).
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let (eager, n) = count(&mut (w.make)(), w.expr, SymMode::Eager, w.elements);
        let (lazy, _) = count(&mut (w.make)(), w.expr, SymMode::Lazy, w.elements);
        rows.push((w.name, w.expr, n, eager, lazy));
    }
    let dropped = "#/(x[..10000] >? -2)";
    let cached = || CachedTarget::new(scenario::bench_array(10_000, 1));
    let (eager, n) = count(&mut cached(), dropped, SymMode::Eager, Some(10_000));
    let (lazy, _) = count(&mut cached(), dropped, SymMode::Lazy, Some(10_000));
    rows.push(("dropped_filter", dropped, n, eager, lazy));

    let mut workloads = Vec::new();
    for (name, expr, n, eager, lazy) in &rows {
        println!("{name:<16} {expr:<36} {n:>6} elements: {eager:.2} allocs/element eager, {lazy:.2} lazy");
        workloads.push(format!(
            "      {{\"name\": \"{name}\", \"expr\": \"{expr}\", \"elements\": {n}, \
             \"allocs_per_element\": {eager:.4}, \"lazy_allocs_per_element\": {lazy:.4}}}"
        ));
    }
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e4_symbolic\",\n  \"config\": {{\n    \
         \"backend\": \"sim\",\n    \"warm_up_runs\": 1\n  }},\n  \"metrics\": {{\n    \
         \"workloads\": [\n{}\n    ]\n  }}\n}}\n",
        workloads.join(",\n")
    );
    let path = duel_bench::report_path("BENCH_symbolic.json");
    std::fs::write(&path, &json).expect("write BENCH_symbolic.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, report_allocations, bench_symbolic);
criterion_main!(benches);
