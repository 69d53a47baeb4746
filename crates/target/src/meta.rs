//! Self-hosted introspection: the debugger's own telemetry as a
//! synthetic debuggee.
//!
//! The paper's thesis is that one expression language beats a zoo of
//! fixed debugger commands — yet our own observability surface
//! (`.top`, `.stats`, `.trace dump`) is exactly such a zoo. This
//! module closes the loop: [`MetaSnapshot`] freezes every telemetry
//! source the tower publishes (the span ring, the wire-event ring, the
//! metrics registry, cache/retry/supervision counters, the replayed
//! capture header), and [`MetaSnapshot::image`] materializes that
//! snapshot as a simulated debuggee — a [`SimTarget`] with a synthetic
//! C type table and one global per root symbol — so **every DUEL
//! operator works on it unchanged**: generators, filters, reductions,
//! sorts, structure traversal, even the simulator's native functions.
//!
//! Root symbols of the synthetic image:
//!
//! | symbol     | type                        | contents                         |
//! |------------|-----------------------------|----------------------------------|
//! | `spans`    | `struct duel_span[nspans]`  | span ring, completed then open   |
//! | `events`   | `struct duel_wire_event[nevents]` | wire-event ring            |
//! | `counters` | `struct duel_counter[ncounters]` | registry counters, by name  |
//! | `hists`    | `struct duel_hist[nhists]`  | registry log₂ histograms         |
//! | `cache`    | `struct duel_cache`         | page cache + lookup memo stats   |
//! | `breaker`  | `struct duel_breaker`       | supervision + retry state        |
//! | `capture`  | `struct duel_capture`       | replayed capture header (if any) |
//!
//! `nspans`/`nevents`/`ncounters`/`nhists` are `unsigned long long`
//! globals, so `spans[..nspans].name` needs no out-of-band count.
//!
//! The image is a *copy*: querying it (writes and native calls
//! included) can perturb neither the debuggee nor the live telemetry it
//! was taken from.

use std::collections::HashMap;

use duel_ctype::{Abi, Field, Prim, RecordLayout, TypeId};

use crate::cache::CacheStats;
use crate::metrics::{log2_quantile, MetricsSnapshot};
use crate::retry::RetryStats;
use crate::sim::SimTarget;
use crate::span::SpanSnapshot;
use crate::supervise::{CircuitState, SupervisorStats};
use crate::trace::TraceEvent;

/// How far scratch allocation (`alloc_space`, `malloc`) may grow the
/// image past its encoded rows.
const META_ALLOC_CAP: u64 = 1 << 20;

/// Identity of the capture being replayed, for the `capture` root
/// symbol of a meta image taken over an offline session.
#[derive(Clone, Debug, Default)]
pub struct MetaCapture {
    /// Backend label recorded in the capture header (`sim`, `minic`…).
    pub backend: String,
    /// Scenario label recorded in the capture header.
    pub scenario: String,
    /// Wire events held by the capture (output drains are host-side
    /// buffer swaps and, as in live tracing, not counted).
    pub events: u64,
}

/// A frozen, point-in-time copy of every telemetry source a debugging
/// session publishes. Building one touches only snapshot APIs — it
/// never blocks the hot path for more than the rings' own locks.
#[derive(Clone, Debug)]
pub struct MetaSnapshot {
    /// The causal span ring (completed + open spans).
    pub spans: SpanSnapshot,
    /// The wire-event ring, oldest first.
    pub events: Vec<TraceEvent>,
    /// The always-on metrics registry (counters + log₂ histograms).
    pub metrics: MetricsSnapshot,
    /// Page-cache and lookup-memoization counters.
    pub cache: CacheStats,
    /// Pages resident in the cache at snapshot time.
    pub resident_pages: u64,
    /// Retry-layer counters.
    pub retry: RetryStats,
    /// Supervision counters.
    pub supervise: SupervisorStats,
    /// Circuit-breaker state.
    pub circuit: CircuitState,
    /// The replayed capture's identity, when the session is offline.
    pub capture: Option<MetaCapture>,
}

impl Default for MetaSnapshot {
    fn default() -> MetaSnapshot {
        MetaSnapshot {
            spans: SpanSnapshot::default(),
            events: Vec::new(),
            metrics: MetricsSnapshot::default(),
            cache: CacheStats::default(),
            resident_pages: 0,
            retry: RetryStats::default(),
            supervise: SupervisorStats::default(),
            circuit: CircuitState::Closed,
            capture: None,
        }
    }
}

/// Numeric code of a circuit state (`breaker.state_code`).
fn circuit_code(state: CircuitState) -> u64 {
    match state {
        CircuitState::Closed => 0,
        CircuitState::Open => 1,
        CircuitState::HalfOpen => 2,
    }
}

/// Parses a wire-event detail of the `0xADDR+LEN` shape into
/// `(addr, len)`; symbol details (`hash`, …) yield `(0, 0)`.
fn parse_addr_len(detail: &str) -> (u64, u64) {
    let Some(rest) = detail.strip_prefix("0x") else {
        return (0, 0);
    };
    let (hex, len) = match rest.split_once('+') {
        Some((h, l)) => (h, l.parse().unwrap_or(0)),
        None => (rest, 0),
    };
    (u64::from_str_radix(hex, 16).unwrap_or(0), len)
}

/// Writes one struct instance field by field, at the offsets the type
/// table computed — the image layout and the C layout can never skew.
struct FieldWriter<'a> {
    mem: &'a mut [u8],
    base: usize,
    layout: &'a RecordLayout,
    next: usize,
}

impl FieldWriter<'_> {
    fn field_off(&mut self) -> usize {
        let off = self.layout.fields[self.next].offset as usize;
        self.next += 1;
        self.base + off
    }

    /// Writes the next field as a little-endian `unsigned long long`.
    fn u64(&mut self, v: u64) {
        let off = self.field_off();
        self.mem[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes the next field as a NUL-terminated `char[cap]` (the
    /// string is truncated to `cap - 1` bytes on a char boundary).
    fn str(&mut self, cap: usize, s: &str) {
        let off = self.field_off();
        let mut end = s.len().min(cap - 1);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        self.mem[off..off + end].copy_from_slice(&s.as_bytes()[..end]);
        // The rest of the field is already zeroed.
    }

    /// Writes the next field as an `unsigned long long[n]` array.
    fn u64_array(&mut self, vals: &[u64]) {
        let off = self.field_off();
        for (i, v) in vals.iter().enumerate() {
            self.mem[off + i * 8..off + i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Encodes `items` as consecutive rows of the struct `layout`, in one
/// buffer.
fn rows<T>(
    items: &[T],
    layout: &RecordLayout,
    mut write: impl FnMut(&mut FieldWriter<'_>, &T),
) -> Vec<u8> {
    let size = layout.size as usize;
    let mut mem = vec![0u8; items.len() * size];
    for (i, item) in items.iter().enumerate() {
        let mut w = FieldWriter {
            mem: &mut mem,
            base: i * size,
            layout,
            next: 0,
        };
        write(&mut w, item);
    }
    mem
}

/// String-field capacities of the synthetic structs.
const KIND_CAP: usize = 12;
const NAME_CAP: usize = 32;
const DETAIL_CAP: usize = 48;
const OP_CAP: usize = 16;
const OUTCOME_CAP: usize = 12;
const METRIC_CAP: usize = 48;
const STATE_CAP: usize = 12;
const BACKEND_CAP: usize = 16;
const SCENARIO_CAP: usize = 48;

impl MetaSnapshot {
    /// Materializes the snapshot as a simulated debuggee under
    /// [`Abi::lp64`]: synthesizes the type table and defines one global
    /// per root symbol (see the module docs), each encoded at the
    /// offsets its struct layout gives. Scratch allocation may grow the
    /// image by at most 1 MiB.
    pub fn image(&self) -> SimTarget {
        let abi = Abi::lp64();
        let mut sim = SimTarget::new(abi.clone());
        let c = &mut sim.core;
        // The rings' own bounds size the rows; only scratch allocation
        // after them is capped.
        c.arena_cap = u64::MAX;
        let tt = &mut c.types;
        let u64_ = tt.prim(Prim::ULongLong);
        let ch = tt.prim(Prim::Char);
        let hist_buckets = self
            .metrics
            .histograms
            .iter()
            .map(|(_, b)| b.len())
            .max()
            .unwrap_or(crate::metrics::METRIC_HIST_BUCKETS);
        let buckets_t = tt.array(u64_, Some(hist_buckets as u64));
        let mut chars = |n: usize| tt.array(ch, Some(n as u64));
        let u64s = |names: &[&str]| {
            names
                .iter()
                .map(|n| Field::new(*n, u64_))
                .collect::<Vec<_>>()
        };

        let mut span_fields = u64s(&[
            "trace", "id", "parent", "start_ns", "dur_ns", "self_ns", "reads", "open",
        ]);
        span_fields.push(Field::new("kind", chars(KIND_CAP)));
        span_fields.push(Field::new("name", chars(NAME_CAP)));
        span_fields.push(Field::new("detail", chars(DETAIL_CAP)));

        let mut event_fields = u64s(&[
            "seq",
            "op_code",
            "outcome_code",
            "addr",
            "len",
            "lat_ns",
            "ts_ns",
            "trace",
            "span",
        ]);
        event_fields.push(Field::new("op", chars(OP_CAP)));
        event_fields.push(Field::new("outcome", chars(OUTCOME_CAP)));
        event_fields.push(Field::new("detail", chars(DETAIL_CAP)));

        let mut counter_fields = u64s(&["value"]);
        counter_fields.push(Field::new("name", chars(METRIC_CAP)));

        let mut hist_fields = u64s(&["count", "p50", "p99"]);
        hist_fields.push(Field::new("buckets", buckets_t));
        hist_fields.push(Field::new("name", chars(METRIC_CAP)));

        let cache_fields = u64s(&[
            "page_hits",
            "page_misses",
            "backend_reads",
            "wire_bytes",
            "lookup_hits",
            "lookup_misses",
            "write_throughs",
            "invalidations",
            "multi_reads",
            "multi_ranges",
            "pages_prefetched",
            "resident_pages",
        ]);

        let mut breaker_fields = u64s(&[
            "state_code",
            "operations",
            "failures",
            "probes",
            "probe_failures",
            "trips",
            "reconnects",
            "reconnect_failures",
            "fast_fails",
            "stale_reads",
            "retry_operations",
            "retry_retries",
            "retry_give_ups",
            "retry_backoff_ns",
        ]);
        breaker_fields.push(Field::new("state", chars(STATE_CAP)));

        let mut capture_fields = u64s(&["events"]);
        capture_fields.push(Field::new("backend", chars(BACKEND_CAP)));
        capture_fields.push(Field::new("scenario", chars(SCENARIO_CAP)));

        let mut def = |tag: &str, fields: Vec<Field>| {
            let (rid, ty) = tt.struct_type(tag, fields);
            let layout = tt
                .record_layout(rid, &abi)
                .expect("meta struct layouts are complete by construction");
            (ty, layout)
        };
        let (span_ty, span_l) = def("duel_span", span_fields);
        let (event_ty, event_l) = def("duel_wire_event", event_fields);
        let (counter_ty, counter_l) = def("duel_counter", counter_fields);
        let (hist_ty, hist_l) = def("duel_hist", hist_fields);
        let (cache_ty, cache_l) = def("duel_cache", cache_fields);
        let (breaker_ty, breaker_l) = def("duel_breaker", breaker_fields);
        let (capture_ty, capture_l) = def("duel_capture", capture_fields);

        // ----- rows ----------------------------------------------------
        // Completed spans first (oldest first), then still-open ones —
        // the same order `SpanSnapshot::aggregate` visits. Exclusive
        // time (children subtracted) and per-span attributed reads are
        // computed exactly as `.top`'s aggregation does.
        let all_spans: Vec<(&crate::span::SpanRecord, bool)> = self
            .spans
            .spans
            .iter()
            .map(|s| (s, false))
            .chain(self.spans.open.iter().map(|s| (s, true)))
            .collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for (s, _) in &all_spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
            }
        }
        let mut span_reads: HashMap<u64, u64> = HashMap::new();
        for e in &self.events {
            if e.span != 0 {
                *span_reads.entry(e.span).or_insert(0) += 1;
            }
        }
        let spans = rows(&all_spans, &span_l, |w, (s, open)| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            w.u64(s.trace);
            w.u64(s.id);
            w.u64(s.parent);
            w.u64(s.start_ns);
            w.u64(s.dur_ns);
            w.u64(s.dur_ns.saturating_sub(children.min(s.dur_ns)));
            w.u64(span_reads.get(&s.id).copied().unwrap_or(0));
            w.u64(*open as u64);
            w.str(KIND_CAP, s.kind.name());
            w.str(NAME_CAP, s.name);
            w.str(DETAIL_CAP, &s.detail);
        });
        let events = rows(&self.events, &event_l, |w, e| {
            let (addr, len) = parse_addr_len(&e.detail);
            for v in [
                e.seq,
                e.op.index() as u64,
                e.outcome.index() as u64,
                addr,
                len,
                e.nanos,
                e.ts_ns,
                e.trace,
                e.span,
            ] {
                w.u64(v);
            }
            w.str(OP_CAP, e.op.name());
            w.str(OUTCOME_CAP, e.outcome.name());
            w.str(DETAIL_CAP, &e.detail);
        });
        let counters = rows(&self.metrics.counters, &counter_l, |w, (name, v)| {
            w.u64(*v);
            w.str(METRIC_CAP, name);
        });
        let hists = rows(&self.metrics.histograms, &hist_l, |w, (name, buckets)| {
            w.u64(buckets.iter().sum());
            w.u64(log2_quantile(buckets, 0.5));
            w.u64(log2_quantile(buckets, 0.99));
            w.u64_array(buckets);
            w.str(METRIC_CAP, name);
        });
        let cache = rows(std::slice::from_ref(&self.cache), &cache_l, |w, c| {
            for v in [
                c.page_hits,
                c.page_misses,
                c.backend_reads,
                c.wire_bytes,
                c.lookup_hits,
                c.lookup_misses,
                c.write_throughs,
                c.invalidations,
                c.multi_reads,
                c.multi_ranges,
                c.pages_prefetched,
                self.resident_pages,
            ] {
                w.u64(v);
            }
        });
        let breaker = rows(&[()], &breaker_l, |w, _| {
            let (s, r) = (&self.supervise, &self.retry);
            for v in [
                circuit_code(self.circuit),
                s.operations,
                s.failures,
                s.probes,
                s.probe_failures,
                s.trips,
                s.reconnects,
                s.reconnect_failures,
                s.fast_fails,
                s.stale_reads,
                r.operations,
                r.retries,
                r.give_ups,
                r.backoff_ns,
            ] {
                w.u64(v);
            }
            w.str(STATE_CAP, self.circuit.name());
        });
        let capture = self.capture.as_ref().map(|cap| {
            rows(std::slice::from_ref(cap), &capture_l, |w, cap| {
                w.u64(cap.events);
                w.str(BACKEND_CAP, &cap.backend);
                w.str(SCENARIO_CAP, &cap.scenario);
            })
        });

        // ----- globals, in image order ----------------------------------
        let nspans = all_spans.len() as u64;
        let nevents = self.events.len() as u64;
        let ncounters = self.metrics.counters.len() as u64;
        let nhists = self.metrics.histograms.len() as u64;
        let arrays = [
            ("spans", span_ty, nspans, &spans),
            ("events", event_ty, nevents, &events),
            ("counters", counter_ty, ncounters, &counters),
            ("hists", hist_ty, nhists, &hists),
        ]
        .map(|(name, elem, n, bytes)| (name, c.types.array(elem, Some(n)), bytes));
        let mut global = |name: &str, ty: TypeId, bytes: &[u8]| {
            let addr = c
                .define_global(name, ty)
                .expect("the meta image has no arena cap while it is built");
            c.mem
                .write(addr, bytes)
                .expect("a global holds its own rows");
        };
        for (name, ty, bytes) in arrays {
            global(name, ty, bytes);
        }
        global("cache", cache_ty, &cache);
        global("breaker", breaker_ty, &breaker);
        if let Some(bytes) = &capture {
            global("capture", capture_ty, bytes);
        }
        for (name, v) in [
            ("nspans", nspans),
            ("nevents", nevents),
            ("ncounters", ncounters),
            ("nhists", nhists),
        ] {
            global(name, u64_, &v.to_le_bytes());
        }
        c.cap_growth(META_ALLOC_CAP);
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{CallValue, Target};
    use crate::span::{SpanKind, SpanRecord};
    use crate::trace::{TraceOp, TraceOutcome};

    fn sample_snapshot() -> MetaSnapshot {
        let root = SpanRecord {
            trace: 1,
            id: 1,
            parent: 0,
            kind: SpanKind::Root,
            name: "eval",
            detail: "x[..4]".into(),
            start_ns: 0,
            dur_ns: 1000,
        };
        let node = SpanRecord {
            trace: 1,
            id: 2,
            parent: 1,
            kind: SpanKind::Node,
            name: "index",
            detail: "x[i]".into(),
            start_ns: 100,
            dur_ns: 400,
        };
        let snap = SpanSnapshot {
            spans: vec![root, node],
            open: Vec::new(),
            dropped: 0,
        };
        let events = vec![TraceEvent {
            seq: 1,
            op: TraceOp::GetBytes,
            detail: "0x1040+16".into(),
            outcome: TraceOutcome::Ok,
            nanos: 250,
            ts_ns: 120,
            trace: 1,
            span: 2,
        }];
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.push(("eval.values".into(), 4));
        metrics
            .histograms
            .push(("eval.ticks".into(), vec![0, 2, 1]));
        let cache = CacheStats {
            page_hits: 7,
            backend_reads: 3,
            ..CacheStats::default()
        };
        MetaSnapshot {
            spans: snap,
            events,
            metrics,
            cache,
            resident_pages: 2,
            capture: Some(MetaCapture {
                backend: "sim".into(),
                scenario: "combined".into(),
                events: 9,
            }),
            ..MetaSnapshot::default()
        }
    }

    fn read_u64(t: &mut SimTarget, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        t.get_bytes(addr, &mut buf).unwrap();
        u64::from_le_bytes(buf)
    }

    #[test]
    fn roots_and_counts_are_registered() {
        let mut t = sample_snapshot().image();
        let mut last = 0;
        for name in [
            "spans",
            "events",
            "counters",
            "hists",
            "cache",
            "breaker",
            "capture",
            "nspans",
            "nevents",
            "ncounters",
            "nhists",
        ] {
            let v = t.get_variable(name).expect(name);
            assert!(v.addr > last, "roots are laid out in order: {name}");
            last = v.addr;
        }
        assert_eq!(t.get_variable("spans").unwrap().addr, crate::ARENA_BASE);
        let nspans = t.get_variable("nspans").unwrap();
        assert_eq!(read_u64(&mut t, nspans.addr), 2);
        let nevents = t.get_variable("nevents").unwrap();
        assert_eq!(read_u64(&mut t, nevents.addr), 1);
    }

    #[test]
    fn span_fields_round_trip_through_the_arena() {
        let snap = sample_snapshot();
        let mut t = snap.image();
        let spans = t.get_variable("spans").unwrap();
        let rid = t.lookup_struct("duel_span").unwrap();
        let layout = t.types().record_layout(rid, &Abi::lp64()).unwrap();
        let rec = t.types().record(rid).clone();
        // Row 0 is the root; row 1 the node under it.
        let node = &snap.spans.spans[1];
        assert_eq!(node.kind, SpanKind::Node);
        let node_base = spans.addr + layout.size;
        let field = |t: &mut SimTarget, name: &str| {
            let i = rec.field_index(name).unwrap();
            read_u64(t, node_base + layout.fields[i].offset)
        };
        assert_eq!(field(&mut t, "id"), node.id);
        assert_eq!(field(&mut t, "dur_ns"), node.dur_ns);
        assert_eq!(field(&mut t, "self_ns"), node.dur_ns); // leaf: no children
        assert_eq!(field(&mut t, "reads"), 1); // the one attributed event
                                               // Root row: exclusive time = 1000 - 400.
        let i = rec.field_index("self_ns").unwrap();
        assert_eq!(read_u64(&mut t, spans.addr + layout.fields[i].offset), 600);
        // The name char array is NUL-terminated.
        let i = rec.field_index("name").unwrap();
        let mut buf = [0u8; NAME_CAP];
        t.get_bytes(node_base + layout.fields[i].offset, &mut buf)
            .unwrap();
        assert_eq!(&buf[..6], b"index\0");
    }

    #[test]
    fn hist_rows_carry_log2_quantiles() {
        let mut t = sample_snapshot().image();
        let hists = t.get_variable("hists").unwrap();
        let rid = t.lookup_struct("duel_hist").unwrap();
        let layout = t.types().record_layout(rid, &Abi::lp64()).unwrap();
        let rec = t.types().record(rid).clone();
        let field = |t: &mut SimTarget, name: &str| {
            let i = rec.field_index(name).unwrap();
            read_u64(t, hists.addr + layout.fields[i].offset)
        };
        // `eval.ticks` buckets [0, 2, 1]: 3 samples, p50 in [2, 4),
        // p99 in [4, 8).
        assert_eq!(field(&mut t, "count"), 3);
        assert_eq!(field(&mut t, "p50"), 4);
        assert_eq!(field(&mut t, "p99"), 8);
    }

    #[test]
    fn event_addr_len_parse_from_detail() {
        assert_eq!(parse_addr_len("0x1040+16"), (0x1040, 16));
        assert_eq!(parse_addr_len("0xdead"), (0xdead, 0));
        assert_eq!(parse_addr_len("hash"), (0, 0));
        assert_eq!(parse_addr_len("0xzz+3"), (0, 3));
    }

    #[test]
    fn queries_may_scratch_up_to_a_mebibyte_and_call_natives() {
        let mut t = MetaSnapshot::default().image();
        let abi = Abi::lp64();
        assert!(t.alloc_space(META_ALLOC_CAP / 2, 8).is_ok());
        assert!(t.alloc_space(META_ALLOC_CAP, 8).is_err());
        let int = t.core.types.prim(Prim::Int);
        let arg = CallValue::from_u64(int, (-3i32) as u32 as u64, 4, &abi).unwrap();
        assert_eq!(t.call_func("abs", &[arg]).unwrap().to_u64(&abi), 3);
    }
}
