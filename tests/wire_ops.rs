//! Differential guard over the whole wire-op set of `Target`.
//!
//! One proptest drives random sequences of every wire operation (reads
//! at wild, zero-length and address-wrapping addresses, vectored reads,
//! writes, allocations, calls, all four lookups, frames, `is_mapped`
//! and output drains) through the combined scenario and checks that
//!
//! 1. every idle decorator (trace off, recorder unarmed, live chaos
//!    gate, retry, closed-circuit supervisor) and the page cache (tiny
//!    pages and capacity, disabled) answers exactly what
//!    the bare `SimTarget` answers;
//! 2. the I/O actor (`AsyncTarget` on its worker thread) answers what
//!    the same layer answers inline;
//! 3. a recorded session replays strictly to identical answers.
//!
//! Each op's answer is rendered to a string; a read's buffer is part of
//! the answer only when the read succeeded (its contents are
//! unspecified on error). A second test pins the cache's counters after
//! one fixed, seeded op script with prefetch windows in flight on an
//! I/O actor.

use duel::ctype::Prim;
use duel::target::capture::Capture;
use duel::target::{
    scenario, AsyncTarget, CacheConfig, CacheStats, CachedTarget, CallValue, ChaosTarget,
    ReadRange, RecordTarget, ReplayMode, ReplayTarget, RetryTarget, SharedSink, SimTarget,
    SupervisedTarget, Target, TraceTarget, ARENA_BASE,
};
use proptest::prelude::*;
use proptest::TestRng;

/// One wire operation, test-local so the guard does not depend on the
/// crate's own op encoding.
#[derive(Clone, Debug)]
enum WireOp {
    Read(u64, usize),
    MultiRead(Vec<(u64, usize)>),
    Put(u64, Vec<u8>),
    Alloc(u64, u64),
    Call(&'static str, Vec<u64>),
    GetVariable(&'static str),
    GetVariableInFrame(&'static str, usize),
    LookupTypedef(&'static str),
    LookupStruct(&'static str),
    LookupUnion(&'static str),
    LookupEnum(&'static str),
    HasFunction(&'static str),
    FrameCount,
    FrameInfo(usize),
    IsMapped(u64, u64),
    TakeOutput,
}

const NAMES: [&str; 12] = [
    "x", "hash", "L", "head", "root", "argv", "s", "node", "tree", "printf", "nonesuch", "i",
];
const FUNCS: [&str; 5] = ["printf", "strlen", "abs", "malloc", "nonesuch"];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Addresses around the arena (both edges), low and wild pointers, and
/// the top of the address space (so `addr + len` wraps).
fn addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..8192).prop_map(|o| ARENA_BASE - 64 + o),
        0u64..64,
        0u64..u64::MAX,
        (0u64..64).prop_map(|o| u64::MAX - o),
    ]
}

/// Read lengths: zero, small, around a page.
fn read_len() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1, 1u64..=16, 0u64..=300]
}

/// `is_mapped` lengths: anything, including zero and huge.
fn probe_len() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1,
        1u64..=300,
        (0u64..8).prop_map(|k| u64::MAX - k),
        0u64..u64::MAX
    ]
}

fn op() -> impl Strategy<Value = WireOp> {
    (0u32..16, addr(), (read_len(), probe_len()), 0u64..u64::MAX).prop_map(
        |(kind, addr, (len, plen), seed)| {
            let mut s = seed;
            let name = NAMES[(splitmix(&mut s) % NAMES.len() as u64) as usize];
            match kind {
                0 => WireOp::Read(addr, len as usize),
                1 => WireOp::MultiRead(
                    (0..splitmix(&mut s) % 5)
                        .map(|_| {
                            let a = match splitmix(&mut s) % 3 {
                                0 => ARENA_BASE - 64 + splitmix(&mut s) % 8192,
                                1 => splitmix(&mut s),
                                _ => u64::MAX - splitmix(&mut s) % 64,
                            };
                            (a, (splitmix(&mut s) % 130) as usize)
                        })
                        .collect(),
                ),
                2 => WireOp::Put(
                    addr,
                    (0..splitmix(&mut s) % 17)
                        .map(|_| splitmix(&mut s) as u8)
                        .collect(),
                ),
                3 => WireOp::Alloc(splitmix(&mut s) % 200, 1 << (splitmix(&mut s) % 5)),
                4 => {
                    let f = FUNCS[(splitmix(&mut s) % FUNCS.len() as u64) as usize];
                    let args = (0..splitmix(&mut s) % 3)
                        .map(|_| match splitmix(&mut s) % 3 {
                            0 => addr,
                            1 => ARENA_BASE + splitmix(&mut s) % 4096,
                            // Small sizes only: a huge `malloc` is a
                            // transient failure, which retry and the
                            // supervisor are allowed to handle.
                            _ => splitmix(&mut s) % 64,
                        })
                        .collect();
                    WireOp::Call(f, args)
                }
                5 => WireOp::GetVariable(name),
                6 => WireOp::GetVariableInFrame(name, (seed % 3) as usize),
                7 => WireOp::LookupTypedef(name),
                8 => WireOp::LookupStruct(name),
                9 => WireOp::LookupUnion(name),
                10 => WireOp::LookupEnum(name),
                11 => WireOp::HasFunction(name),
                12 => WireOp::FrameCount,
                13 => WireOp::FrameInfo((seed % 3) as usize),
                14 => WireOp::IsMapped(addr, plen),
                _ => WireOp::TakeOutput,
            }
        },
    )
}

/// Issues `op` against `t` and renders the answer.
fn drive(t: &mut dyn Target, op: &WireOp) -> String {
    match op {
        WireOp::Read(addr, len) => {
            let mut buf = vec![0u8; *len];
            match t.get_bytes(*addr, &mut buf) {
                Ok(()) => format!("ok {buf:?}"),
                Err(e) => format!("err {e:?}"),
            }
        }
        WireOp::MultiRead(spec) => {
            let mut bufs: Vec<Vec<u8>> = spec.iter().map(|&(_, n)| vec![0u8; n]).collect();
            let mut ranges: Vec<ReadRange<'_>> = bufs
                .iter_mut()
                .zip(spec)
                .map(|(b, &(a, _))| ReadRange::new(a, b))
                .collect();
            let results = t.get_bytes_multi(&mut ranges);
            drop(ranges);
            assert_eq!(results.len(), spec.len(), "one result per range");
            let parts: Vec<String> = results
                .iter()
                .zip(&bufs)
                .map(|(r, b)| match r {
                    Ok(()) => format!("ok {b:?}"),
                    Err(e) => format!("err {e:?}"),
                })
                .collect();
            format!("multi [{}]", parts.join(", "))
        }
        WireOp::Put(addr, data) => format!("{:?}", t.put_bytes(*addr, data)),
        WireOp::Alloc(size, align) => format!("{:?}", t.alloc_space(*size, *align)),
        WireOp::Call(name, raw) => {
            let abi = t.abi().clone();
            let ty = t.types_mut().prim(Prim::Long);
            let args: Vec<CallValue> = raw
                .iter()
                .map(|&v| CallValue::from_u64(ty, v, 8, &abi).unwrap())
                .collect();
            format!("{:?}", t.call_func(name, &args))
        }
        WireOp::GetVariable(name) => format!("{:?}", t.get_variable(name)),
        WireOp::GetVariableInFrame(name, n) => format!("{:?}", t.get_variable_in_frame(name, *n)),
        WireOp::LookupTypedef(name) => format!("{:?}", t.lookup_typedef(name)),
        WireOp::LookupStruct(name) => format!("{:?}", t.lookup_struct(name)),
        WireOp::LookupUnion(name) => format!("{:?}", t.lookup_union(name)),
        WireOp::LookupEnum(name) => format!("{:?}", t.lookup_enum(name)),
        WireOp::HasFunction(name) => format!("{:?}", t.has_function(name)),
        WireOp::FrameCount => format!("{:?}", t.frame_count()),
        WireOp::FrameInfo(n) => format!("{:?}", t.frame_info(*n)),
        WireOp::IsMapped(addr, len) => format!("{:?}", t.is_mapped(*addr, *len)),
        WireOp::TakeOutput => format!("{:?}", t.take_output()),
    }
}

fn run(t: &mut dyn Target, ops: &[WireOp]) -> Vec<String> {
    ops.iter().map(|op| drive(t, op)).collect()
}

/// The cache in two forms: 8-byte pages in a 3-page LRU (every
/// access evicts, arena edges leave partial pages), and switched off.
fn cache_forms() -> [(&'static str, CacheConfig); 2] {
    [
        (
            "tiny cache",
            CacheConfig {
                page_size: 8,
                max_pages: 3,
                ..CacheConfig::default()
            },
        ),
        ("disabled cache", CacheConfig::disabled()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, ..ProptestConfig::default()
    })]

    #[test]
    fn every_wire_op_agrees_across_layers_actor_and_replay(
        ops in prop::collection::vec(op(), 1..60),
    ) {
        let want = run(&mut scenario::combined(), &ops);

        // 1. Idle decorators are transparent.
        let idle: Vec<(&str, Box<dyn Target>)> = vec![
            ("trace", Box::new(TraceTarget::new(scenario::combined()))),
            ("record", Box::new(RecordTarget::new(scenario::combined()))),
            ("chaos", Box::new(ChaosTarget::new(scenario::combined()))),
            ("retry", Box::new(RetryTarget::new(scenario::combined()))),
            ("supervise", Box::new(SupervisedTarget::new(scenario::combined()))),
        ];
        for (label, mut t) in idle {
            let got = run(t.as_mut(), &ops);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g, w, "{} layer, op {} {:?}", label, i, ops[i]);
            }
        }

        // The cache reports a fault over the whole request, fault
        // extents included.
        for (label, cfg) in cache_forms() {
            let got = run(&mut CachedTarget::with_config(scenario::combined(), cfg), &ops);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g, w, "{}, op {} {:?}", label, i, ops[i]);
            }
        }

        // 2. The I/O actor answers what the inline layer answers.
        let inline = run(&mut AsyncTarget::new(scenario::combined()), &ops);
        let actor = run(&mut AsyncTarget::spawned(scenario::combined()), &ops);
        for (i, (a, n)) in actor.iter().zip(&inline).enumerate() {
            prop_assert_eq!(a, n, "actor vs inline, op {} {:?}", i, ops[i]);
        }
        prop_assert_eq!(&inline, &want);

        // 3. Record, then replay strictly: identical answers.
        let sink = SharedSink::new();
        let mut rec = RecordTarget::new(scenario::combined());
        rec.start(Box::new(sink.clone()), "sim", "combined").unwrap();
        let recorded = run(&mut rec, &ops);
        rec.stop().unwrap();
        prop_assert_eq!(&recorded, &want);
        let cap = Capture::parse(&sink.contents()).unwrap();
        let mut replay = ReplayTarget::from_capture(cap, ReplayMode::Strict);
        let replayed = run(&mut replay, &ops);
        for (i, (r, w)) in replayed.iter().zip(&recorded).enumerate() {
            prop_assert_eq!(r, w, "strict replay, op {} {:?}", i, ops[i]);
        }
        prop_assert!(replay.divergence().is_none(), "{:?}", replay.divergence());
        prop_assert_eq!(replay.events_consumed(), replay.events_total());
    }
}

/// Drives `ops` through `t`, submitting a prefetch window over the
/// ranges of every other vectored read before it runs: the read
/// completes the window and takes it as its fetch. Every 50th op starts
/// a new epoch, as a resume would.
fn run_with_windows(t: &mut CachedTarget<AsyncTarget<SimTarget>>, ops: &[WireOp]) -> Vec<String> {
    let mut windows = 0;
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if i % 50 == 49 {
            t.invalidate_all();
        }
        let window = match op {
            WireOp::MultiRead(spec) => {
                windows += 1;
                let ranges: Vec<(u64, u64)> = spec.iter().map(|&(a, n)| (a, n as u64)).collect();
                windows % 2 == 0 && t.prefetch_submit(&ranges)
            }
            _ => false,
        };
        out.push(drive(t, op));
        if window {
            assert!(t.prefetch_poll().is_none(), "the read completed its window");
        }
    }
    out
}

#[test]
fn cache_counters_after_a_fixed_script_are_pinned() {
    let ops = prop::collection::vec(op(), 600..601).sample(&mut TestRng::new(0x5eed));
    let want = run(&mut scenario::combined(), &ops);
    let mut stats = Vec::new();
    for (label, cfg) in cache_forms() {
        let mut t =
            CachedTarget::with_config(AsyncTarget::spawned(scenario::combined()), cfg.clone());
        let got = run_with_windows(&mut t, &ops);
        assert_eq!(got, want, "{label}");
        // Without an actor no window is taken: each read fetches its
        // own pages, and the counters come out the same.
        let mut inline = CachedTarget::with_config(AsyncTarget::new(scenario::combined()), cfg);
        assert_eq!(run_with_windows(&mut inline, &ops), want, "{label}");
        assert_eq!(t.stats(), inline.stats(), "{label}");
        stats.push(t.stats().clone());
    }
    let pinned = [
        CacheStats {
            page_hits: 8,
            page_misses: 454,
            backend_reads: 559,
            wire_bytes: 6120,
            lookup_hits: 67,
            lookup_misses: 287,
            write_throughs: 7,
            invalidations: 12,
            multi_reads: 36,
            multi_ranges: 78,
            pages_prefetched: 348,
            mapped_probes: 71,
        },
        CacheStats {
            page_hits: 0,
            page_misses: 0,
            backend_reads: 73,
            wire_bytes: 3108,
            lookup_hits: 0,
            lookup_misses: 0,
            write_throughs: 0,
            invalidations: 12,
            multi_reads: 36,
            multi_ranges: 78,
            pages_prefetched: 0,
            mapped_probes: 34,
        },
    ];
    assert_eq!(stats, pinned);
}
