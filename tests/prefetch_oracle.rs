//! Differential oracle for `prefetch`: read-ahead on against off.
//!
//! Read-ahead (scan windows, walk wavefronts, windows submitted ahead
//! to an I/O actor) only changes *when* bytes cross the wire, never
//! what a command prints. So every command must print the same values,
//! symbolic text and error text with [`EvalOptions::prefetch`] on and
//! off, over:
//!
//! * scans of `char`, `int`, `double`, struct and pointer arrays, in
//!   both byte orders, with spans that run into unmapped memory and
//!   stores inside the command;
//! * `-->`/`-->>` walks over ranged roots, with NULL links, cycles and
//!   wild pointers;
//! * transient faults absorbed by the retry layer;
//! * a pipelined sim tower (an I/O actor below the cache).
//!
//! A session recorded with either setting, on the plain and on the
//! pipelined tower, replays strictly to byte-identical output with
//! every event consumed.

use duel::core::session::render_lines;
use duel::core::{EvalOptions, Session};
use duel::ctype::{Abi, Field, Prim};
use duel::target::{
    AsyncTarget, CacheConfig, CachedTarget, Capture, ChaosTarget, FaultConfig, RecordTarget,
    ReplayMode, ReplayTarget, RetryPolicy, RetryTarget, SharedSink, SimTarget, Target,
};
use proptest::prelude::*;

/// Where a pointer (a `p[]` slot, a `tab[]` slot or a node's `next`)
/// points.
#[derive(Clone, Debug)]
enum Link {
    Null,
    /// Element `i` of `r[]` (for `p[]`) or node `i` of the pool (for
    /// `tab[]` and `next`; cycles come from links to earlier nodes).
    At(usize),
    /// Unmapped memory far from the arena.
    Wild,
}

/// The generated debuggee, laid out in this order so spans past the
/// end of `d` run off the arena:
/// `char c[]`, `int i[]`, `struct rec { int a; char b; int c; } r[]`,
/// `struct rec *p[]`, a pool of `struct list` nodes under
/// `struct list *tab[]`, and `double d[]`.
#[derive(Clone, Debug)]
struct Debuggee {
    big_endian: bool,
    c: Vec<u8>,
    i: Vec<i32>,
    r: Vec<(i32, u8, i32)>,
    p: Vec<Link>,
    nodes: Vec<(i32, Link)>,
    tab: Vec<Link>,
    d: Vec<i16>,
}

fn link((kind, i): (u8, usize), n: usize) -> Link {
    match kind {
        0..=2 => Link::Null,
        3 => Link::Wild,
        _ => Link::At(i % n),
    }
}

fn debuggee() -> impl Strategy<Value = Debuggee> {
    let raw = || (0u8..12, 0usize..64);
    (
        (0u8..2, prop::collection::vec(0u8..=255, 1..40)),
        (
            prop::collection::vec(-50i32..50, 1..200),
            prop::collection::vec((-9i32..9, 0u8..=255, -9i32..9), 1..60),
            prop::collection::vec(raw(), 1..40),
        ),
        (
            prop::collection::vec((0i32..6, raw()), 1..24),
            prop::collection::vec(raw(), 1..20),
            prop::collection::vec(-40i16..40, 1..60),
        ),
    )
        .prop_map(|((be, c), (i, r, p), (nodes, tab, d))| {
            let (nr, nn) = (r.len(), nodes.len());
            Debuggee {
                big_endian: be == 1,
                c,
                i,
                p: p.into_iter().map(|l| link(l, nr)).collect(),
                r,
                nodes: nodes.into_iter().map(|(v, l)| (v, link(l, nn))).collect(),
                tab: tab.into_iter().map(|l| link(l, nn)).collect(),
                d,
            }
        })
}

const WILD: u64 = 0xdead_0000;

fn build(g: &Debuggee) -> SimTarget {
    let mut t = SimTarget::new(if g.big_endian {
        Abi::ilp32_be()
    } else {
        Abi::lp64()
    });
    let types = &mut t.core.types;
    let (int, chr, dbl) = (
        types.prim(Prim::Int),
        types.prim(Prim::Char),
        types.prim(Prim::Double),
    );
    let (rec_id, rec) = types.declare_struct("rec");
    types.define_record(
        rec_id,
        vec![
            Field::new("a", int),
            Field::new("b", chr),
            Field::new("c", int),
        ],
    );
    let (list_id, list) = types.declare_struct("list");
    let plist = types.pointer(list);
    types.define_record(
        list_id,
        vec![Field::new("value", int), Field::new("next", plist)],
    );
    let prec = types.pointer(rec);
    let arrays = [
        ("c", chr, g.c.len()),
        ("i", int, g.i.len()),
        ("r", rec, g.r.len()),
        ("p", prec, g.p.len()),
        ("tab", plist, g.tab.len()),
    ];
    let mut base = Vec::new();
    for (name, elem, n) in arrays {
        let ty = t.core.types.array(elem, Some(n as u64));
        base.push(t.core.define_global(name, ty).unwrap());
    }
    let rl = t.core.types.record_layout(rec_id, &t.core.abi).unwrap();
    let ll = t.core.types.record_layout(list_id, &t.core.abi).unwrap();
    let nodes: Vec<u64> = g
        .nodes
        .iter()
        .map(|_| t.core.alloc(ll.size, 8).unwrap())
        .collect();
    let darr = t.core.types.array(dbl, Some(g.d.len() as u64));
    let d = t.core.define_global("d", darr).unwrap();
    let ptr = |l: &Link, at: &dyn Fn(usize) -> u64| match *l {
        Link::Null => 0,
        Link::At(i) => at(i),
        Link::Wild => WILD,
    };
    for (k, &v) in g.c.iter().enumerate() {
        t.core.write_uint(base[0] + k as u64, v as u64, 1).unwrap();
    }
    for (k, &v) in g.i.iter().enumerate() {
        t.core.write_int(base[1] + 4 * k as u64, v).unwrap();
    }
    for (k, &(a, b, c)) in g.r.iter().enumerate() {
        let e = base[2] + k as u64 * rl.size;
        t.core.write_int(e + rl.fields[0].offset, a).unwrap();
        t.core
            .write_uint(e + rl.fields[1].offset, b as u64, 1)
            .unwrap();
        t.core.write_int(e + rl.fields[2].offset, c).unwrap();
    }
    let pw = t.core.abi.pointer_bytes;
    let rec_at = |i: usize| base[2] + i as u64 * rl.size;
    for (k, l) in g.p.iter().enumerate() {
        t.core
            .write_ptr(base[3] + pw * k as u64, ptr(l, &rec_at))
            .unwrap();
    }
    let node_at = |i: usize| nodes[i];
    for (k, l) in g.tab.iter().enumerate() {
        t.core
            .write_ptr(base[4] + pw * k as u64, ptr(l, &node_at))
            .unwrap();
    }
    for (k, (v, next)) in g.nodes.iter().enumerate() {
        t.core
            .write_int(nodes[k] + ll.fields[0].offset, *v)
            .unwrap();
        t.core
            .write_ptr(nodes[k] + ll.fields[1].offset, ptr(next, &node_at))
            .unwrap();
    }
    for (k, &v) in g.d.iter().enumerate() {
        let bits = (v as f64 / 8.0).to_bits();
        t.core.write_uint(d + 8 * k as u64, bits, 8).unwrap();
    }
    t
}

/// Scans and walks; bounds run past an array's end now and then (into
/// the next array, or off the arena after `d`).
fn exprs() -> impl Strategy<Value = String> {
    (0usize..3, (0usize..70, 0usize..70), -8i32..8, 0usize..16).prop_map(
        |(arr, (a, b), v, form)| {
            let x = ["c", "i", "d"][arr];
            let (a, b) = (a.min(b), a.max(b));
            match form {
                0 => format!("{x}[{a}..{b}]"),
                1 => format!("{x}[..{}] >? {v}", b + 1),
                2 => format!("r[{a}..{b}]"),
                3 => format!("r[..{}].c >? {v}", b + 1),
                4 => format!("#/(r[{a}..{b}].(a + b) !=? {v})"),
                5 => format!("p[{a}..{b}]->c"),
                6 => format!("p[..{}]", b + 1),
                7 => format!("{x}[{a}..{b}] + ({x}[{}] += {v})", (a + b) / 2),
                8 => format!("r[{a}..{b}].a + (r[{}].a = {v})", b / 2),
                9 => format!("i[..{}] + (p[{}]->c++)", b + 1, a / 4),
                10 => format!("tab[{}..{}]-->next->value", a / 4, b / 4),
                11 => format!("tab[{}..{}]-->>next", a / 4, b / 4),
                12 => format!("#/(tab[..{}]-->next)", b / 4 + 1),
                13 => format!("(tab[{}..{}]-->next)[[{}]]->value", a / 4, b / 4, a % 5),
                14 => format!("(tab[..{}]-->next->value)@{}", b / 4 + 1, v.rem_euclid(6)),
                _ => format!("{x}[{a}..{b}], r[{a}..{b}].b <? {v}"),
            }
        },
    )
}

/// Everything a command prints: its lines, then its error, if any.
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

/// Runs every command on `t`, one transcript entry per command.
fn transcript(t: &mut dyn Target, cmds: &[String], opts: &EvalOptions) -> Vec<String> {
    cmds.iter().map(|e| outcome(t, e, opts)).collect()
}

/// Options with `prefetch` left for the caller to set.
fn options() -> impl Strategy<Value = EvalOptions> {
    ((0u8..2, 0u8..2), 0usize..3, 0usize..3).prop_map(
        |((cycle_check, error_values), window, expand)| EvalOptions {
            dfs_cycle_check: cycle_check == 1,
            error_values: error_values == 1,
            prefetch_window: [1, 2, 64][window],
            max_expand: [2, 40, 300][expand],
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

fn with_prefetch(opts: &EvalOptions, prefetch: bool) -> EvalOptions {
    EvalOptions {
        prefetch,
        ..opts.clone()
    }
}

/// Records `cmds` on `live` (whose innermost layer below the cache is
/// the recorder), replays the capture strictly through a cache
/// configured as `cfg`, and checks both transcripts against `want`.
fn round_trip<T: Target>(
    mut live: CachedTarget<RecordTarget<T>>,
    sink: &SharedSink,
    cfg: &CacheConfig,
    cmds: &[String],
    opts: &EvalOptions,
    want: &[String],
) -> Result<(), TestCaseError> {
    let got = transcript(&mut live, cmds, opts);
    live.inner_mut().stop().unwrap();
    prop_assert_eq!(&got, want, "live recording");
    let cap = Capture::parse(&sink.contents()).unwrap();
    let mut replay = CachedTarget::with_config(
        ReplayTarget::from_capture(cap, ReplayMode::Strict),
        cfg.clone(),
    );
    let replayed = transcript(&mut replay, cmds, opts);
    let r = replay.inner();
    prop_assert!(r.divergence().is_none(), "{:?}", r.divergence());
    prop_assert_eq!(r.events_consumed(), r.events_total());
    prop_assert_eq!(&replayed, want, "strict replay");
    Ok(())
}

fn recording<T: Target>(
    inner: T,
    cfg: &CacheConfig,
) -> (CachedTarget<RecordTarget<T>>, SharedSink) {
    let sink = SharedSink::default();
    let mut rec = RecordTarget::new(inner);
    rec.start(Box::new(sink.clone()), "sim", "prefetch-oracle")
        .unwrap();
    (CachedTarget::with_config(rec, cfg.clone()), sink)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96, ..ProptestConfig::default()
    })]

    #[test]
    fn prefetch_on_prints_what_prefetch_off_prints(
        g in debuggee(),
        cmds in prop::collection::vec(exprs(), 1..5),
        opts in options(),
        cfg in cache(),
    ) {
        let off = with_prefetch(&opts, false);
        let want = transcript(&mut CachedTarget::with_config(build(&g), cfg.clone()), &cmds, &off);
        for prefetch in [false, true] {
            let o = with_prefetch(&opts, prefetch);
            let plain = transcript(&mut CachedTarget::with_config(build(&g), cfg.clone()), &cmds, &o);
            prop_assert_eq!(&plain, &want, "plain tower, prefetch {}", prefetch);

            // Transient faults on every fifth call, absorbed by retries.
            let gate = ChaosTarget::with_faults(
                build(&g),
                FaultConfig { fail_every: 5, ..FaultConfig::default() },
            );
            let mut chaos = RetryTarget::with_policy(
                CachedTarget::with_config(gate, cfg.clone()),
                RetryPolicy::fast(4),
            );
            prop_assert_eq!(&transcript(&mut chaos, &cmds, &o), &want, "chaos, prefetch {}", prefetch);

            let mut piped = CachedTarget::with_config(AsyncTarget::spawned(build(&g)), cfg.clone());
            prop_assert_eq!(&transcript(&mut piped, &cmds, &o), &want, "pipelined, prefetch {}", prefetch);

            let (live, sink) = recording(build(&g), &cfg);
            round_trip(live, &sink, &cfg, &cmds, &o, &want)?;
            let (live, sink) = recording(AsyncTarget::spawned(build(&g)), &cfg);
            round_trip(live, &sink, &cfg, &cmds, &o, &want)?;
        }
    }
}
