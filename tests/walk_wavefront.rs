//! Differential oracle for the evaluator's wavefront reads.
//!
//! A `-->`/`-->>` walk whose root is a hinted range (`tab[a..b]`) and
//! whose step is a bare pointer field (`next`) reads its frontier level
//! by level in vectored batches whenever the tower has an enabled page
//! cache. Those reads are advisory: the demand walk is unchanged. So
//! every walk must print exactly what it prints through a disabled
//! cache, where no wavefront runs — over generated tables of lists with
//! NULL buckets, shared tails, cycles and wild or unaligned pointers,
//! with the cycle check on and off under `max_expand`, through `-->`
//! and `-->>`, windows `tab[a..b]`, and early stops through `[[n]]` and
//! `@`. The same holds under injected transient faults absorbed by the
//! retry layer, and a recorded wavefront walk replays strictly to
//! byte-identical output.

use duel::core::session::render_lines;
use duel::core::{EvalOptions, Session};
use duel::ctype::Abi;
use duel::target::{
    scenario, CacheConfig, CachedTarget, Capture, ChaosTarget, FaultConfig, RecordTarget,
    ReplayMode, ReplayTarget, RetryPolicy, RetryTarget, SharedSink, SimTarget, Target,
};
use proptest::prelude::*;

/// Where a pointer (a table slot or a node's `next`) points.
#[derive(Clone, Debug)]
enum Link {
    Null,
    /// Node `i` of the pool (shared tails and cycles come from several
    /// links naming the same node).
    Node(usize),
    /// Unmapped memory far from the arena.
    Wild(u64),
    /// `off` bytes into node `i`: mapped, but not a node boundary.
    Inside(usize, u64),
    /// The last mapped byte of the arena: the node read runs off it.
    Edge,
}

/// A generated table: `struct list *tab[slots.len()]` over a pool of
/// `struct list { int value; struct list *next; }` nodes.
#[derive(Clone, Debug)]
struct Table {
    /// Per node: its value, its `next`, and bytes of padding allocated
    /// before it (so nodes share, straddle and skip pages).
    nodes: Vec<(i32, Link, u64)>,
    slots: Vec<Link>,
}

/// A link drawn as (kind, node, offset) and resolved against a pool of
/// `n` nodes: mostly nodes, then NULL, and now and then a wild, inside
/// or edge pointer.
fn link((kind, i, off): (u8, usize, u64), n: usize) -> Link {
    match kind {
        0..=2 => Link::Null,
        3..=10 => Link::Node(i % n),
        11 => Link::Wild([0x10, 0xdead_beef_0000, u64::MAX - 3][i % 3]),
        12 => Link::Inside(i % n, off),
        _ => Link::Edge,
    }
}

fn table() -> impl Strategy<Value = Table> {
    let raw = || (0u8..14, 0usize..64, 1u64..16);
    (
        prop::collection::vec((0i32..6, raw(), 0u64..48), 1..24),
        prop::collection::vec(raw(), 1..20),
    )
        .prop_map(|(nodes, slots)| {
            let n = nodes.len();
            Table {
                nodes: nodes
                    .into_iter()
                    .map(|(v, l, pad)| (v, link(l, n), pad))
                    .collect(),
                slots: slots.into_iter().map(|l| link(l, n)).collect(),
            }
        })
}

/// Builds the debuggee for `tab`.
fn build(tab: &Table) -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    let (_, plty) = scenario::define_list_struct(&mut t);
    let (rid, _) = t.core.types.declare_struct("list");
    let l = t.core.types.record_layout(rid, &t.core.abi).unwrap();
    let (size, value_off, next_off) = (l.size, l.fields[0].offset, l.fields[1].offset);
    let arr = t.core.types.array(plty, Some(tab.slots.len() as u64));
    let base = t.core.define_global("tab", arr).unwrap();
    let mut addrs = Vec::new();
    for &(_, _, pad) in &tab.nodes {
        if pad > 0 {
            t.core.alloc(pad, 1).unwrap();
        }
        addrs.push(t.core.alloc(size, 8).unwrap());
    }
    let edge = t.core.alloc(1, 1).unwrap();
    let resolve = |l: &Link| match *l {
        Link::Null => 0,
        Link::Node(i) => addrs[i],
        Link::Wild(a) => a,
        Link::Inside(i, off) => addrs[i] + off,
        Link::Edge => edge,
    };
    for (i, (value, next, _)) in tab.nodes.iter().enumerate() {
        t.core.write_int(addrs[i] + value_off, *value).unwrap();
        t.core
            .write_ptr(addrs[i] + next_off, resolve(next))
            .unwrap();
    }
    for (i, s) in tab.slots.iter().enumerate() {
        t.core.write_ptr(base + 8 * i as u64, resolve(s)).unwrap();
    }
    t
}

/// The walk expressions over a table of `n` slots.
fn exprs() -> impl Strategy<Value = String> {
    ((0usize..20, 0usize..20), 0usize..6, 0i32..6, 0usize..8).prop_map(|((a, b), k, v, form)| {
        let (a, b) = (a.min(b), a.max(b));
        match form {
            0 => format!("tab[{a}..{b}]-->next->value"),
            1 => "#/(tab[..20]-->next)".to_string(),
            2 => format!("tab[{a}..{b}]-->>next->value"),
            3 => format!("(tab[{a}..{b}]-->next)[[{k}]]->value"),
            4 => format!("(tab[{a}..{b}]-->next->value)@{v}"),
            5 => format!("tab[..{}]-->next#i->(i, value)", b + 1),
            6 => format!("tab[{a}..{b}]-->>next"),
            _ => format!("+/(tab[{a}..{b}]-->next->value)"),
        }
    })
}

/// Everything a walk prints: its lines, then its error, if any.
fn outcome(t: &mut dyn Target, expr: &str, opts: &EvalOptions) -> String {
    let mut s = Session::with_options(t, opts.clone());
    match s.eval_partial(expr) {
        Ok((lines, err)) => {
            let mut out = render_lines(&lines).join("\n");
            if let Some(e) = err {
                out.push_str(&format!("\nerror: {e}"));
            }
            out
        }
        Err(e) => format!("error: {e}"),
    }
}

fn options() -> impl Strategy<Value = EvalOptions> {
    ((0u8..2, 0u8..2), 0u8..2, 0usize..3, 0usize..3).prop_map(
        |((cycle_check, error_values), prefetch, window, expand)| EvalOptions {
            dfs_cycle_check: cycle_check == 1,
            error_values: error_values == 1,
            prefetch: prefetch == 1,
            prefetch_window: [1, 2, 64][window],
            // Without the cycle check only `max_expand` ends a cycle.
            max_expand: if cycle_check == 1 {
                [2, 40, 1_000_000][expand]
            } else {
                [2, 40, 300][expand]
            },
            max_values: 20_000,
            ..EvalOptions::default()
        },
    )
}

fn cache() -> impl Strategy<Value = CacheConfig> {
    (0usize..3, 0usize..3).prop_map(|(page, cap)| CacheConfig {
        page_size: [8, 16, 64][page],
        max_pages: [3, 16, 1024][cap],
        ..CacheConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, ..ProptestConfig::default()
    })]

    #[test]
    fn wavefront_walks_print_what_uncached_walks_print(
        tab in table(),
        walks in prop::collection::vec(exprs(), 1..4),
        opts in options(),
        cfg in cache(),
    ) {
        let mut plain = CachedTarget::with_config(build(&tab), CacheConfig::disabled());
        let mut cached = CachedTarget::with_config(build(&tab), cfg);
        for expr in &walks {
            let want = outcome(&mut plain, expr, &opts);
            let got = outcome(&mut cached, expr, &opts);
            prop_assert_eq!(got, want, "`{}`", expr);
        }
    }
}

/// A table of `n` four-node chains, nodes of one chain adjacent, every
/// fifth bucket empty: the wavefront's home ground.
fn chains(n: usize) -> Table {
    let mut nodes = Vec::new();
    let mut slots = Vec::new();
    for b in 0..n {
        if b % 5 == 4 {
            slots.push(Link::Null);
            continue;
        }
        let first = nodes.len();
        slots.push(Link::Node(first));
        for j in 0..4 {
            let next = if j < 3 {
                Link::Node(first + j + 1)
            } else {
                Link::Null
            };
            nodes.push(((b + j) as i32 % 6, next, 0));
        }
    }
    Table { nodes, slots }
}

#[test]
fn wavefront_batches_the_walk_and_changes_nothing_it_prints() {
    let tab = chains(200);
    let mut plain = CachedTarget::with_config(build(&tab), CacheConfig::disabled());
    let mut cached = CachedTarget::new(build(&tab));
    let opts = EvalOptions::default();
    let expr = "tab[..200]-->next->value";
    assert_eq!(
        outcome(&mut cached, expr, &opts),
        outcome(&mut plain, expr, &opts)
    );
    let s = cached.stats();
    // 640 nodes and the table fill about 185 pages in a few batches.
    let filled = s.page_misses + s.pages_prefetched;
    assert!(filled >= 180, "{s:?}");
    assert!(s.backend_reads * 4 <= filled, "{s:?}");
    // A disabled cache runs no wavefront.
    assert_eq!(plain.stats().multi_reads, 0);
}

#[test]
fn wavefront_walks_agree_under_transient_faults() {
    let tab = chains(200);
    let faults = FaultConfig {
        fail_every: 5,
        ..FaultConfig::default()
    };
    let tower = |cfg: CacheConfig| {
        let gate = ChaosTarget::with_faults(build(&tab), faults.clone());
        let handle = gate.handle();
        let t =
            RetryTarget::with_policy(CachedTarget::with_config(gate, cfg), RetryPolicy::fast(4));
        (t, handle)
    };
    let (mut plain, _) = tower(CacheConfig::disabled());
    let (mut cached, injected) = tower(CacheConfig::default());
    let opts = EvalOptions::default();
    for expr in [
        "tab[..200]-->next->value",
        "tab[3..170]-->>next",
        "#/(tab[..200]-->next)",
    ] {
        let want = outcome(&mut plain, expr, &opts);
        assert!(!want.contains("error"), "`{expr}`: {want}");
        assert_eq!(outcome(&mut cached, expr, &opts), want, "`{expr}`");
    }
    assert!(
        cached.inner().stats().multi_reads > 0,
        "the walks ran the wavefront"
    );
    assert!(injected.injected() > 0, "faults reached the cached tower");
    assert_eq!(cached.stats().give_ups, 0);
}

#[test]
fn recorded_wavefront_walk_replays_strictly() {
    let tab = chains(200);
    let opts = EvalOptions::default();
    let exprs = ["tab[..200]-->next->value", "#/(tab[2..90]-->>next)"];
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(build(&tab));
    rec.start(Box::new(sink.clone()), "sim", "wavefront")
        .unwrap();
    let mut live = CachedTarget::new(rec);
    let want: Vec<String> = exprs.iter().map(|e| outcome(&mut live, e, &opts)).collect();
    live.inner_mut().stop().unwrap();
    assert!(live.stats().multi_reads > 0, "the walk ran the wavefront");

    let cap = Capture::parse(&sink.contents()).unwrap();
    let mut replay = CachedTarget::new(ReplayTarget::from_capture(cap, ReplayMode::Strict));
    let got: Vec<String> = exprs
        .iter()
        .map(|e| outcome(&mut replay, e, &opts))
        .collect();
    assert_eq!(got, want);
    let r = replay.inner();
    assert!(r.divergence().is_none(), "{:?}", r.divergence());
    assert_eq!(r.events_consumed(), r.events_total());
}

/// A wild `next` costs one `is_mapped` probe wherever it is met: the
/// demand walk probes it before the read, and a wavefront batch whose
/// page faulted serves that range with a probe and one exact read
/// instead of bisecting the page.
#[test]
fn a_wild_pointer_costs_one_probe_not_a_bisection() {
    let wild_hash = || {
        let mut t = scenario::bench_hash(8, 2, 1);
        let (rid, _) = t.core.types.declare_struct("symbol");
        let l = t.core.types.record_layout(rid, &t.core.abi).unwrap();
        let hash = t.get_variable("hash").unwrap().addr;
        let first = t.core.read_ptr(hash).unwrap();
        t.core
            .write_ptr(first + l.fields[2].offset, 0xdead_beef_0000)
            .unwrap();
        t
    };
    let opts = EvalOptions::default();
    let mut counts = Vec::new();
    for expr in ["hash[0]-->next->scope", "hash[0..0]-->next->scope"] {
        let mut plain = CachedTarget::with_config(wild_hash(), CacheConfig::disabled());
        let mut cached = CachedTarget::new(wild_hash());
        let want = outcome(&mut plain, expr, &opts);
        assert_eq!(outcome(&mut cached, expr, &opts), want, "`{expr}`");
        let s = cached.stats();
        counts.push((s.backend_reads, s.mapped_probes));
    }
    // (backend reads, is_mapped probes); the batch used to bisect the
    // wild page, 12 reads in all. Now: the batch, the page's refetch,
    // the probe and the exact read that confirms the fault.
    assert_eq!(counts, [(3, 1), (6, 2)]);
}
