//! Self-hosted introspection: the debugger's own telemetry as a
//! synthetic debuggee.
//!
//! The paper's thesis is that one expression language beats a zoo of
//! fixed debugger commands — yet our own observability surface
//! (`.top`, `.stats`, `.trace dump`) is exactly such a zoo. This
//! module closes the loop: [`MetaSnapshot`] freezes every telemetry
//! source the tower publishes (the span ring, the wire-event ring, the
//! metrics registry, cache/retry/supervision counters, the replayed
//! capture header), and [`MetaTarget`] materializes that snapshot as
//! an ordinary [`Target`] — a synthetic C type table plus a little-
//! endian arena served through `get_bytes` — so **every DUEL operator
//! works on it unchanged**: generators, filters, reductions, sorts,
//! structure traversal.
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
//! The snapshot is a *copy*: querying it can perturb neither the
//! debuggee nor the live telemetry it was taken from.

use std::collections::HashMap;

use duel_ctype::{Abi, EnumId, Field, Prim, RecordId, RecordLayout, TypeId, TypeTable};

use crate::cache::CacheStats;
use crate::error::{TargetError, TargetResult};
use crate::iface::{CallValue, FrameInfo, Target, VarInfo, VarKind};
use crate::metrics::MetricsSnapshot;
use crate::retry::RetryStats;
use crate::span::SpanSnapshot;
use crate::supervise::{CircuitState, SupervisorStats};
use crate::trace::TraceEvent;

/// Base address of the synthetic telemetry arena (same convention as
/// the simulated debuggee: NULL and small integers stay unmapped).
pub const META_BASE: u64 = 0x1000;

/// Growth cap for [`Target::alloc_space`] scratch allocations.
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
pub fn circuit_code(state: CircuitState) -> u64 {
    match state {
        CircuitState::Closed => 0,
        CircuitState::Open => 1,
        CircuitState::HalfOpen => 2,
    }
}

/// Parses a wire-event detail of the `0xADDR+LEN` shape into
/// `(addr, len)`; symbol details (`hash`, …) yield `(0, 0)`.
pub fn parse_addr_len(detail: &str) -> (u64, u64) {
    let Some(rest) = detail.strip_prefix("0x") else {
        return (0, 0);
    };
    let (hex, len) = match rest.split_once('+') {
        Some((h, l)) => (h, l.parse().unwrap_or(0)),
        None => (rest, 0),
    };
    (u64::from_str_radix(hex, 16).unwrap_or(0), len)
}

/// Upper bound of the bucket holding the `q`-quantile sample of a log₂
/// histogram (same semantics as `Histogram::quantile`, but over a
/// frozen bucket vector).
pub fn bucket_quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return 1u64 << (i + 1).min(63);
        }
    }
    u64::MAX
}

/// One synthesized struct: its type, record id, and computed layout.
struct StructDef {
    layout: RecordLayout,
}

impl StructDef {
    fn new(tt: &TypeTable, abi: &Abi, rid: RecordId) -> StructDef {
        let layout = tt
            .record_layout(rid, abi)
            .expect("meta struct layouts are complete by construction");
        StructDef { layout }
    }

    fn size(&self) -> u64 {
        self.layout.size
    }
}

/// Writes one struct instance field by field, at the offsets the type
/// table computed — the arena layout and the C layout can never skew.
struct FieldWriter<'a> {
    mem: &'a mut [u8],
    base: usize,
    def: &'a StructDef,
    next: usize,
}

impl<'a> FieldWriter<'a> {
    fn new(mem: &'a mut [u8], base: usize, def: &'a StructDef) -> FieldWriter<'a> {
        FieldWriter {
            mem,
            base,
            def,
            next: 0,
        }
    }

    fn field_off(&mut self) -> usize {
        let off = self.def.layout.fields[self.next].offset as usize;
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

/// A synthetic in-process [`Target`] whose memory image is a frozen
/// [`MetaSnapshot`] of the debugger's own telemetry.
///
/// See the module docs for the root symbols. The image is served from
/// a flat little-endian arena under [`Abi::lp64`]; writes land in the
/// copy (harmless), scratch allocation bump-extends the arena, and
/// function calls / frames are honestly absent.
pub struct MetaTarget {
    abi: Abi,
    types: TypeTable,
    mem: Vec<u8>,
    globals: HashMap<String, (u64, TypeId)>,
    alloc_extra: u64,
}

impl MetaTarget {
    /// Materializes a snapshot: synthesizes the type table, lays the
    /// data out as an arena, and registers the root symbols.
    pub fn new(snap: &MetaSnapshot) -> MetaTarget {
        let abi = Abi::lp64();
        let mut tt = TypeTable::new();
        let u64_ = tt.prim(Prim::ULongLong);
        let ch = tt.prim(Prim::Char);
        let chars = |n: usize, tt: &mut TypeTable| tt.array(ch, Some(n as u64));

        // ----- struct duel_span ---------------------------------------
        let kind_t = chars(KIND_CAP, &mut tt);
        let name_t = chars(NAME_CAP, &mut tt);
        let detail_t = chars(DETAIL_CAP, &mut tt);
        let (span_rid, span_ty) = tt.struct_type(
            "duel_span",
            vec![
                Field::new("trace", u64_),
                Field::new("id", u64_),
                Field::new("parent", u64_),
                Field::new("start_ns", u64_),
                Field::new("dur_ns", u64_),
                Field::new("self_ns", u64_),
                Field::new("reads", u64_),
                Field::new("open", u64_),
                Field::new("kind", kind_t),
                Field::new("name", name_t),
                Field::new("detail", detail_t),
            ],
        );

        // ----- struct duel_wire_event ---------------------------------
        let op_t = chars(OP_CAP, &mut tt);
        let outcome_t = chars(OUTCOME_CAP, &mut tt);
        let edetail_t = chars(DETAIL_CAP, &mut tt);
        let (event_rid, event_ty) = tt.struct_type(
            "duel_wire_event",
            vec![
                Field::new("seq", u64_),
                Field::new("op_code", u64_),
                Field::new("outcome_code", u64_),
                Field::new("addr", u64_),
                Field::new("len", u64_),
                Field::new("lat_ns", u64_),
                Field::new("ts_ns", u64_),
                Field::new("trace", u64_),
                Field::new("span", u64_),
                Field::new("op", op_t),
                Field::new("outcome", outcome_t),
                Field::new("detail", edetail_t),
            ],
        );

        // ----- struct duel_counter / struct duel_hist -----------------
        let metric_t = chars(METRIC_CAP, &mut tt);
        let (counter_rid, counter_ty) = tt.struct_type(
            "duel_counter",
            vec![Field::new("value", u64_), Field::new("name", metric_t)],
        );
        let hist_buckets = snap
            .metrics
            .histograms
            .iter()
            .map(|(_, b)| b.len())
            .max()
            .unwrap_or(crate::metrics::METRIC_HIST_BUCKETS);
        let buckets_t = tt.array(u64_, Some(hist_buckets as u64));
        let hmetric_t = chars(METRIC_CAP, &mut tt);
        let (hist_rid, hist_ty) = tt.struct_type(
            "duel_hist",
            vec![
                Field::new("count", u64_),
                Field::new("p50", u64_),
                Field::new("p99", u64_),
                Field::new("buckets", buckets_t),
                Field::new("name", hmetric_t),
            ],
        );

        // ----- struct duel_cache --------------------------------------
        let (cache_rid, cache_ty) = tt.struct_type(
            "duel_cache",
            vec![
                Field::new("page_hits", u64_),
                Field::new("page_misses", u64_),
                Field::new("backend_reads", u64_),
                Field::new("wire_bytes", u64_),
                Field::new("lookup_hits", u64_),
                Field::new("lookup_misses", u64_),
                Field::new("write_throughs", u64_),
                Field::new("invalidations", u64_),
                Field::new("multi_reads", u64_),
                Field::new("multi_ranges", u64_),
                Field::new("pages_prefetched", u64_),
                Field::new("readahead_pages", u64_),
                Field::new("resident_pages", u64_),
            ],
        );

        // ----- struct duel_breaker ------------------------------------
        let state_t = chars(STATE_CAP, &mut tt);
        let (breaker_rid, breaker_ty) = tt.struct_type(
            "duel_breaker",
            vec![
                Field::new("state_code", u64_),
                Field::new("operations", u64_),
                Field::new("failures", u64_),
                Field::new("probes", u64_),
                Field::new("probe_failures", u64_),
                Field::new("trips", u64_),
                Field::new("reconnects", u64_),
                Field::new("reconnect_failures", u64_),
                Field::new("fast_fails", u64_),
                Field::new("stale_reads", u64_),
                Field::new("retry_operations", u64_),
                Field::new("retry_retries", u64_),
                Field::new("retry_give_ups", u64_),
                Field::new("retry_backoff_ns", u64_),
                Field::new("state", state_t),
            ],
        );

        // ----- struct duel_capture ------------------------------------
        let backend_t = chars(BACKEND_CAP, &mut tt);
        let cscenario_t = chars(SCENARIO_CAP, &mut tt);
        let (capture_rid, capture_ty) = tt.struct_type(
            "duel_capture",
            vec![
                Field::new("events", u64_),
                Field::new("backend", backend_t),
                Field::new("scenario", cscenario_t),
            ],
        );

        let span_def = StructDef::new(&tt, &abi, span_rid);
        let event_def = StructDef::new(&tt, &abi, event_rid);
        let counter_def = StructDef::new(&tt, &abi, counter_rid);
        let hist_def = StructDef::new(&tt, &abi, hist_rid);
        let cache_def = StructDef::new(&tt, &abi, cache_rid);
        let breaker_def = StructDef::new(&tt, &abi, breaker_rid);
        let capture_def = StructDef::new(&tt, &abi, capture_rid);

        // ----- arena layout -------------------------------------------
        // Completed spans first (oldest first), then still-open ones —
        // the same order `SpanSnapshot::aggregate` visits.
        let all_spans: Vec<(&crate::span::SpanRecord, bool)> = snap
            .spans
            .spans
            .iter()
            .map(|s| (s, false))
            .chain(snap.spans.open.iter().map(|s| (s, true)))
            .collect();
        let nspans = all_spans.len() as u64;
        let nevents = snap.events.len() as u64;
        let ncounters = snap.metrics.counters.len() as u64;
        let nhists = snap.metrics.histograms.len() as u64;

        let mut globals = HashMap::new();
        let mut cursor = META_BASE;
        let mut place = |name: &str, ty: TypeId, size: u64, align: u64| {
            let a = align.max(1);
            cursor = cursor.div_ceil(a) * a;
            let addr = cursor;
            cursor += size;
            globals.insert(name.to_string(), (addr, ty));
            addr
        };

        let spans_ty = tt.array(span_ty, Some(nspans));
        let spans_addr = place("spans", spans_ty, nspans * span_def.size(), 8);
        let events_ty = tt.array(event_ty, Some(nevents));
        let events_addr = place("events", events_ty, nevents * event_def.size(), 8);
        let counters_ty = tt.array(counter_ty, Some(ncounters));
        let counters_addr = place("counters", counters_ty, ncounters * counter_def.size(), 8);
        let hists_ty = tt.array(hist_ty, Some(nhists));
        let hists_addr = place("hists", hists_ty, nhists * hist_def.size(), 8);
        let cache_addr = place("cache", cache_ty, cache_def.size(), 8);
        let breaker_addr = place("breaker", breaker_ty, breaker_def.size(), 8);
        let capture_addr = if snap.capture.is_some() {
            Some(place("capture", capture_ty, capture_def.size(), 8))
        } else {
            None
        };
        for (name, v) in [
            ("nspans", nspans),
            ("nevents", nevents),
            ("ncounters", ncounters),
            ("nhists", nhists),
        ] {
            let addr = place(name, u64_, 8, 8);
            let _ = (addr, v); // encoded below, once mem exists
        }

        let mut mem = vec![0u8; (cursor - META_BASE) as usize];
        let at = |addr: u64| (addr - META_BASE) as usize;

        // ----- encode spans -------------------------------------------
        // Exclusive time (children subtracted) and per-span attributed
        // reads, computed exactly as `.top`'s aggregation does.
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for (s, _) in &all_spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
            }
        }
        let mut span_reads: HashMap<u64, u64> = HashMap::new();
        for e in &snap.events {
            if e.span != 0 {
                *span_reads.entry(e.span).or_insert(0) += 1;
            }
        }
        for (i, (s, open)) in all_spans.iter().enumerate() {
            let base = at(spans_addr) + i * span_def.size() as usize;
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let mut w = FieldWriter::new(&mut mem, base, &span_def);
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
        }

        // ----- encode events ------------------------------------------
        for (i, e) in snap.events.iter().enumerate() {
            let base = at(events_addr) + i * event_def.size() as usize;
            let (addr, len) = parse_addr_len(&e.detail);
            let mut w = FieldWriter::new(&mut mem, base, &event_def);
            w.u64(e.seq);
            w.u64(e.op.index() as u64);
            w.u64(e.outcome.index() as u64);
            w.u64(addr);
            w.u64(len);
            w.u64(e.nanos);
            w.u64(e.ts_ns);
            w.u64(e.trace);
            w.u64(e.span);
            w.str(OP_CAP, e.op.name());
            w.str(OUTCOME_CAP, e.outcome.name());
            w.str(DETAIL_CAP, &e.detail);
        }

        // ----- encode metrics -----------------------------------------
        for (i, (name, v)) in snap.metrics.counters.iter().enumerate() {
            let base = at(counters_addr) + i * counter_def.size() as usize;
            let mut w = FieldWriter::new(&mut mem, base, &counter_def);
            w.u64(*v);
            w.str(METRIC_CAP, name);
        }
        for (i, (name, buckets)) in snap.metrics.histograms.iter().enumerate() {
            let base = at(hists_addr) + i * hist_def.size() as usize;
            let mut padded = buckets.clone();
            padded.resize(hist_buckets, 0);
            let mut w = FieldWriter::new(&mut mem, base, &hist_def);
            w.u64(buckets.iter().sum());
            w.u64(bucket_quantile(buckets, 0.5));
            w.u64(bucket_quantile(buckets, 0.99));
            w.u64_array(&padded);
            w.str(METRIC_CAP, name);
        }

        // ----- encode cache / breaker / capture -----------------------
        {
            let c = &snap.cache;
            let mut w = FieldWriter::new(&mut mem, at(cache_addr), &cache_def);
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
                c.readahead_pages,
                snap.resident_pages,
            ] {
                w.u64(v);
            }
        }
        {
            let s = &snap.supervise;
            let r = &snap.retry;
            let mut w = FieldWriter::new(&mut mem, at(breaker_addr), &breaker_def);
            for v in [
                circuit_code(snap.circuit),
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
            w.str(STATE_CAP, snap.circuit.name());
        }
        if let (Some(addr), Some(cap)) = (capture_addr, &snap.capture) {
            let mut w = FieldWriter::new(&mut mem, at(addr), &capture_def);
            w.u64(cap.events);
            w.str(BACKEND_CAP, &cap.backend);
            w.str(SCENARIO_CAP, &cap.scenario);
        }
        for (name, v) in [
            ("nspans", nspans),
            ("nevents", nevents),
            ("ncounters", ncounters),
            ("nhists", nhists),
        ] {
            let (addr, _) = globals[name];
            let off = at(addr);
            mem[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }

        MetaTarget {
            abi,
            types: tt,
            mem,
            globals,
            alloc_extra: 0,
        }
    }

    fn contains(&self, addr: u64, len: u64) -> bool {
        let end = META_BASE + self.mem.len() as u64;
        addr >= META_BASE && addr.checked_add(len).is_some_and(|e| e <= end)
    }

    /// The root symbols of the image, sorted by name (for `.query`
    /// usage text and tests).
    pub fn symbol_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.globals.keys().cloned().collect();
        v.sort();
        v
    }

    /// Size of the encoded arena in bytes.
    pub fn arena_len(&self) -> usize {
        self.mem.len()
    }
}

impl Target for MetaTarget {
    fn abi(&self) -> &Abi {
        &self.abi
    }

    fn types(&self) -> &TypeTable {
        &self.types
    }

    fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.types
    }

    fn get_bytes(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        let len = buf.len() as u64;
        if !self.contains(addr, len) {
            return Err(TargetError::IllegalMemory { addr, len });
        }
        let off = (addr - META_BASE) as usize;
        buf.copy_from_slice(&self.mem[off..off + buf.len()]);
        Ok(())
    }

    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        let len = bytes.len() as u64;
        if !self.contains(addr, len) {
            return Err(TargetError::IllegalMemory { addr, len });
        }
        let off = (addr - META_BASE) as usize;
        self.mem[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64> {
        let a = align.max(1);
        let end = META_BASE + self.mem.len() as u64;
        let addr = end.div_ceil(a) * a;
        let new_end = addr
            .checked_add(size)
            .ok_or_else(|| TargetError::Backend("allocation overflows the arena".into()))?;
        let grow = new_end - end;
        if self.alloc_extra + grow > META_ALLOC_CAP {
            return Err(TargetError::Backend(format!(
                "meta arena allocation cap ({META_ALLOC_CAP} bytes) exceeded"
            )));
        }
        self.alloc_extra += grow;
        self.mem.resize((new_end - META_BASE) as usize, 0);
        Ok(addr)
    }

    fn call_func(&mut self, name: &str, _args: &[CallValue]) -> TargetResult<CallValue> {
        Err(TargetError::UnknownFunction(name.to_string()))
    }

    fn get_variable(&mut self, name: &str) -> Option<VarInfo> {
        let (addr, ty) = *self.globals.get(name)?;
        Some(VarInfo {
            name: name.to_string(),
            addr,
            ty,
            kind: VarKind::Global,
        })
    }

    fn get_variable_in_frame(&mut self, _name: &str, _frame: usize) -> Option<VarInfo> {
        None
    }

    fn lookup_typedef(&mut self, name: &str) -> Option<TypeId> {
        self.types.typedef(name)
    }

    fn lookup_struct(&mut self, tag: &str) -> Option<RecordId> {
        self.types.struct_tag(tag)
    }

    fn lookup_union(&mut self, tag: &str) -> Option<RecordId> {
        self.types.union_tag(tag)
    }

    fn lookup_enum(&mut self, _tag: &str) -> Option<EnumId> {
        None
    }

    fn has_function(&mut self, _name: &str) -> bool {
        false
    }

    fn frame_count(&mut self) -> usize {
        0
    }

    fn frame_info(&mut self, _n: usize) -> Option<FrameInfo> {
        None
    }

    fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
        self.contains(addr, len)
    }

    fn take_output(&mut self) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn read_u64(t: &mut MetaTarget, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        t.get_bytes(addr, &mut buf).unwrap();
        u64::from_le_bytes(buf)
    }

    #[test]
    fn roots_and_counts_are_registered() {
        let mut t = MetaTarget::new(&sample_snapshot());
        assert_eq!(
            t.symbol_names(),
            vec![
                "breaker",
                "cache",
                "capture",
                "counters",
                "events",
                "hists",
                "ncounters",
                "nevents",
                "nhists",
                "nspans",
                "spans",
            ]
        );
        let nspans = t.get_variable("nspans").unwrap();
        assert_eq!(read_u64(&mut t, nspans.addr), 2);
        let nevents = t.get_variable("nevents").unwrap();
        assert_eq!(read_u64(&mut t, nevents.addr), 1);
    }

    #[test]
    fn span_fields_round_trip_through_the_arena() {
        let snap = sample_snapshot();
        let mut t = MetaTarget::new(&snap);
        let spans = t.get_variable("spans").unwrap();
        let rid = t.lookup_struct("duel_span").unwrap();
        let layout = t.types().record_layout(rid, &Abi::lp64()).unwrap();
        let rec = t.types().record(rid).clone();
        // Row 0 is the root; row 1 the node under it.
        let node = &snap.spans.spans[1];
        assert_eq!(node.kind, SpanKind::Node);
        let node_base = spans.addr + layout.size;
        let field = |t: &mut MetaTarget, name: &str| {
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
    fn event_addr_len_parse_from_detail() {
        assert_eq!(parse_addr_len("0x1040+16"), (0x1040, 16));
        assert_eq!(parse_addr_len("0xdead"), (0xdead, 0));
        assert_eq!(parse_addr_len("hash"), (0, 0));
        assert_eq!(parse_addr_len("0xzz+3"), (0, 3));
    }

    #[test]
    fn hist_quantiles_match_live_histograms() {
        let reg = crate::metrics::MetricsRegistry::new();
        let h = reg.histogram("h");
        for v in [1, 1, 1, 1000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let (_, buckets) = &snap.histograms[0];
        assert_eq!(bucket_quantile(buckets, 0.5), h.quantile(0.5));
        assert_eq!(bucket_quantile(buckets, 0.99), h.quantile(0.99));
        assert_eq!(bucket_quantile(&[], 0.5), 0);
    }

    #[test]
    fn reads_outside_the_arena_fault() {
        let mut t = MetaTarget::new(&MetaSnapshot::default());
        let mut buf = [0u8; 4];
        assert!(matches!(
            t.get_bytes(0, &mut buf),
            Err(TargetError::IllegalMemory { .. })
        ));
        assert!(!t.is_mapped(0, 1));
        assert!(t.call_func("getpid", &[]).is_err());
        assert_eq!(t.frame_count(), 0);
    }

    #[test]
    fn alloc_space_bumps_past_the_image() {
        let mut t = MetaTarget::new(&MetaSnapshot::default());
        let before = t.arena_len();
        let addr = t.alloc_space(32, 8).unwrap();
        assert_eq!(addr % 8, 0);
        assert!(t.arena_len() >= before + 32);
        t.put_bytes(addr, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        t.get_bytes(addr, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }
}
