//! Offline replay: a [`Target`] served entirely from a capture file.
//!
//! `ReplayTarget` never talks to a live backend — every answer comes
//! from the recorded event stream, in one of two modes:
//!
//! * **Strict** ([`ReplayMode::Strict`]) — the session must issue
//!   exactly the recorded call sequence. Each call is matched against
//!   the next capture event and answered with the recorded reply
//!   (including recorded faults and transients, so a replayed flaky
//!   session replays its flakiness deterministically). The first
//!   mismatch produces a symbolic [`Divergence`] report — expected vs
//!   actual call, position in the capture — and the report is *sticky*:
//!   the stream stops advancing, so postmortem tooling sees the original
//!   point of divergence, not a cascade.
//! * **Permissive** ([`ReplayMode::Permissive`]) — the capture is
//!   pre-scanned into a sparse memory image plus symbol/frame/function
//!   tables, and calls are answered best-effort from that frozen state.
//!   This is what lets *new* expressions — ones the recorded session
//!   never evaluated — run against a capture: any byte the recording
//!   ever observed is addressable, and anything outside the image is an
//!   honest [`TargetError::IllegalMemory`] fault.
//!
//! Type identity comes from the capture's snapshot (footer if present,
//! else header), restored via `TypeTable::from_snapshot`, so recorded
//! raw type ids resolve to the same types on replay and re-interning by
//! the evaluator is idempotent.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::capture::{Capture, CaptureCall, CaptureEvent, CaptureReply};
use crate::error::{TargetError, TargetResult};
use crate::iface::{CallValue, FrameInfo, ReadRange, Target, VarInfo, VarKind};
use crate::op::{Op, Reply};
use duel_ctype::{Abi, EnumId, RecordId, TypeId, TypeTable};

/// How a [`ReplayTarget`] answers calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// Sequential event matching; divergence is an error.
    Strict,
    /// Best-effort service from a rebuilt sparse image.
    Permissive,
}

/// A symbolic report of the first strict-mode divergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based event position where the session diverged.
    pub at: u64,
    /// What the capture holds at that position (`"end of capture"` if
    /// the session outran the recording).
    pub expected: String,
    /// The call the session actually issued.
    pub got: String,
}

impl Divergence {
    /// Renders the report as one line.
    pub fn render(&self) -> String {
        format!(
            "replay divergence at event {}: capture has {}, session issued {}",
            self.at, self.expected, self.got
        )
    }

    fn to_error(&self) -> TargetError {
        TargetError::ReplayDivergence {
            at: self.at,
            expected: self.expected.clone(),
            got: self.got.clone(),
        }
    }
}

/// A function-call memo key: name plus raw-typed argument bytes.
type CallKey = (String, Vec<(u32, Vec<u8>)>);

/// The permissive-mode image rebuilt from a capture: a leaf backend
/// answering from frozen recorded state. In strict mode it holds only
/// the ABI and type table.
#[derive(Debug, Default)]
struct Image {
    abi: Abi,
    types: TypeTable,
    /// Sparse debuggee memory: every byte any recorded read returned or
    /// any recorded write stored, applied in event order.
    memory: BTreeMap<u64, u8>,
    /// Recorded global variable resolutions.
    globals: HashMap<String, VarInfo>,
    /// Recorded per-frame variable resolutions.
    frame_vars: HashMap<(String, u64), VarInfo>,
    /// Names the capture proves callable.
    functions: HashSet<String>,
    /// Memoized recorded call results, keyed by name + argument bytes.
    call_results: HashMap<CallKey, CallValue>,
    /// Last recorded frame count.
    frame_count: u64,
    /// Recorded frame metadata.
    frames: HashMap<u64, FrameInfo>,
    /// Recorded `is_mapped` probes, exact-match.
    mapped_probes: HashMap<(u64, u64), bool>,
    /// First address safely beyond everything the capture touched;
    /// permissive `alloc_space` bumps from here.
    alloc_next: u64,
}

fn call_key(name: &str, args: &[CallValue]) -> CallKey {
    (
        name.to_string(),
        args.iter().map(|a| (a.ty.raw(), a.bytes.clone())).collect(),
    )
}

impl Image {
    fn new(abi: Abi, types: TypeTable) -> Image {
        Image {
            abi,
            types,
            ..Image::default()
        }
    }

    fn build(mut img: Image, events: &[CaptureEvent]) -> Image {
        let mut high_water = 0u64;
        let mut touch = |addr: u64, len: u64| {
            high_water = high_water.max(addr.saturating_add(len));
        };
        for ev in events {
            match (&ev.call, &ev.reply) {
                (CaptureCall::GetBytes { addr, .. }, CaptureReply::Bytes(bytes)) => {
                    touch(*addr, bytes.len() as u64);
                    for (i, b) in bytes.iter().enumerate() {
                        img.memory.insert(addr + i as u64, *b);
                    }
                }
                (CaptureCall::PutBytes { addr, data }, CaptureReply::Unit) => {
                    touch(*addr, data.len() as u64);
                    for (i, b) in data.iter().enumerate() {
                        img.memory.insert(addr + i as u64, *b);
                    }
                }
                (CaptureCall::AllocSpace { size, .. }, CaptureReply::Addr(a)) => {
                    touch(*a, *size);
                }
                (CaptureCall::CallFunc { name, args }, CaptureReply::Value(v)) => {
                    img.functions.insert(name.clone());
                    img.call_results.insert(call_key(name, args), v.clone());
                }
                (CaptureCall::GetVariable { name, frame }, CaptureReply::Var(Some(v))) => {
                    touch(v.addr, 1);
                    match frame {
                        None => {
                            img.globals.insert(name.clone(), v.clone());
                        }
                        Some(f) => {
                            img.frame_vars.insert((name.clone(), *f), v.clone());
                        }
                    }
                }
                (CaptureCall::HasFunction { name }, CaptureReply::Flag(true)) => {
                    img.functions.insert(name.clone());
                }
                (CaptureCall::FrameCount, CaptureReply::Count(n)) => {
                    img.frame_count = *n;
                }
                (CaptureCall::FrameInfo { n }, CaptureReply::Frame(Some(f))) => {
                    img.frames.insert(*n, f.clone());
                }
                (CaptureCall::IsMapped { addr, len }, CaptureReply::Flag(b)) => {
                    img.mapped_probes.insert((*addr, *len), *b);
                }
                (CaptureCall::MultiRead { ranges }, CaptureReply::Multi(rs)) => {
                    for ((addr, _), res) in ranges.iter().zip(rs) {
                        if let Ok(bytes) = res {
                            touch(*addr, bytes.len() as u64);
                            for (i, b) in bytes.iter().enumerate() {
                                img.memory.insert(addr + i as u64, *b);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Serve fresh allocations from a page-aligned region the
        // recorded session never touched.
        img.alloc_next = (high_water.max(0x1000) + 0xFFFF) & !0xFFF;
        img
    }

    fn read(&self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        for (i, slot) in buf.iter_mut().enumerate() {
            match self.memory.get(&(addr + i as u64)) {
                Some(b) => *slot = *b,
                None => {
                    return Err(TargetError::IllegalMemory {
                        addr,
                        len: buf.len() as u64,
                    })
                }
            }
        }
        Ok(())
    }

    fn covered(&self, addr: u64, len: u64) -> bool {
        (0..len).all(|i| self.memory.contains_key(&(addr + i)))
    }
}

/// A [`Target`] that answers entirely from a parsed [`Capture`].
#[derive(Debug)]
pub struct ReplayTarget {
    mode: ReplayMode,
    events: Vec<CaptureEvent>,
    pos: usize,
    divergence: Option<Divergence>,
    image: Image,
    /// Backend/scenario labels from the capture header, for status.
    backend: String,
    scenario: String,
}

impl ReplayTarget {
    /// Builds a replay target from a parsed capture.
    pub fn from_capture(cap: Capture, mode: ReplayMode) -> ReplayTarget {
        let image = Image::new(
            cap.header.abi.clone(),
            TypeTable::from_snapshot(cap.types()),
        );
        let image = match mode {
            ReplayMode::Strict => image,
            ReplayMode::Permissive => Image::build(image, &cap.events),
        };
        ReplayTarget {
            mode,
            events: cap.events,
            pos: 0,
            divergence: None,
            image,
            backend: cap.header.backend,
            scenario: cap.header.scenario,
        }
    }
    /// Loads a capture file and builds a replay target from it.
    pub fn load(path: &str, mode: ReplayMode) -> Result<ReplayTarget, String> {
        Ok(ReplayTarget::from_capture(Capture::load(path)?, mode))
    }

    /// The replay mode.
    pub fn mode(&self) -> ReplayMode {
        self.mode
    }

    /// Backend label recorded in the capture header.
    pub fn backend_label(&self) -> &str {
        &self.backend
    }

    /// Scenario label recorded in the capture header.
    pub fn scenario_label(&self) -> &str {
        &self.scenario
    }

    /// Events consumed so far (strict mode).
    pub fn events_consumed(&self) -> usize {
        self.pos
    }

    /// Total events in the capture.
    pub fn events_total(&self) -> usize {
        self.events.len()
    }

    /// Wire events in the capture: every event but output drains,
    /// which no stats view counts.
    pub fn wire_events(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.call.trace_op().is_some())
            .count()
    }

    /// The sticky first-divergence report, if strict replay diverged.
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    /// Strict-mode engine: match `call` against the next recorded event
    /// and hand back the recorded reply, or report divergence.
    fn advance(&mut self, call: CaptureCall) -> Result<CaptureReply, Divergence> {
        if let Some(d) = &self.divergence {
            // Sticky: after the first divergence the stream is frozen
            // so the original report survives any follow-on calls.
            return Err(d.clone());
        }
        let expected = match self.events.get(self.pos) {
            None => {
                let d = Divergence {
                    at: self.pos as u64,
                    expected: "end of capture".into(),
                    got: format!("{} {}", call.op_name(), call.detail()),
                };
                self.divergence = Some(d.clone());
                return Err(d);
            }
            Some(ev) => ev,
        };
        if expected.call != call {
            let d = Divergence {
                at: self.pos as u64,
                expected: format!("{} {}", expected.call.op_name(), expected.call.detail()),
                got: format!("{} {}", call.op_name(), call.detail()),
            };
            self.divergence = Some(d.clone());
            return Err(d);
        }
        let reply = expected.reply.clone();
        self.pos += 1;
        Ok(reply)
    }
}

impl crate::op::Layer for ReplayTarget {
    type Next = dyn Target;

    fn next(&self) -> &Self::Next {
        &self.image
    }

    fn next_mut(&mut self) -> &mut Self::Next {
        &mut self.image
    }

    /// Strict: match the call against the next recorded event and
    /// answer with its reply (a divergence fails the op). Permissive:
    /// answer from the frozen image.
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        match self.mode {
            ReplayMode::Strict => {
                let reply = self
                    .advance(op.to_call())
                    .unwrap_or_else(|d| CaptureReply::Err(d.to_error()));
                op.fill(reply)
            }
            ReplayMode::Permissive => op.apply(&mut self.image),
        }
    }
}

impl Target for Image {
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
        self.read(addr, buf)
    }

    fn get_bytes_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        ranges
            .iter_mut()
            .map(|r| self.read(r.addr, r.buf))
            .collect()
    }

    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        // The frozen image is a private copy; writes land in it so
        // follow-up reads in the same postmortem session see them,
        // without any live target involved.
        for (i, b) in bytes.iter().enumerate() {
            self.memory.insert(addr + i as u64, *b);
        }
        Ok(())
    }

    fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64> {
        let align = align.max(1);
        let addr = self.alloc_next.div_ceil(align) * align;
        self.alloc_next = addr + size.max(1);
        // Fresh scratch space reads back as zeroes.
        for i in 0..size {
            self.memory.insert(addr + i, 0);
        }
        Ok(addr)
    }

    fn call_func(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue> {
        if let Some(v) = self.call_results.get(&call_key(name, args)) {
            return Ok(v.clone());
        }
        if self.functions.contains(name) {
            Err(TargetError::CallFailed {
                func: name.to_string(),
                reason: "call with these arguments is not in the capture \
                         (replay cannot execute debuggee code)"
                    .into(),
            })
        } else {
            Err(TargetError::UnknownFunction(name.to_string()))
        }
    }

    fn get_variable(&mut self, name: &str) -> Option<VarInfo> {
        self.globals.get(name).cloned().or_else(|| {
            // A local recorded in the innermost frame still resolves
            // by bare name, mirroring live shadowing.
            self.frame_vars.get(&(name.to_string(), 0)).cloned()
        })
    }

    fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<VarInfo> {
        self.frame_vars
            .get(&(name.to_string(), frame as u64))
            .cloned()
            .or_else(|| match self.globals.get(name) {
                Some(v) if v.kind == VarKind::Global => Some(v.clone()),
                _ => None,
            })
    }

    // The restored snapshot already holds every tag the recorded
    // session ever defined.
    fn lookup_typedef(&mut self, name: &str) -> Option<TypeId> {
        self.types.typedef(name)
    }

    fn lookup_struct(&mut self, tag: &str) -> Option<RecordId> {
        self.types.struct_tag(tag)
    }

    fn lookup_union(&mut self, tag: &str) -> Option<RecordId> {
        self.types.union_tag(tag)
    }

    fn lookup_enum(&mut self, tag: &str) -> Option<EnumId> {
        self.types.enum_tag(tag)
    }

    fn has_function(&mut self, name: &str) -> bool {
        self.functions.contains(name)
    }

    fn frame_count(&mut self) -> usize {
        self.frame_count as usize
    }

    fn frame_info(&mut self, n: usize) -> Option<FrameInfo> {
        self.frames.get(&(n as u64)).cloned()
    }

    fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
        self.mapped_probes
            .get(&(addr, len))
            .copied()
            .unwrap_or_else(|| self.covered(addr, len))
    }

    fn take_output(&mut self) -> String {
        // The recorded session already drained the output stream; new
        // evaluation over a frozen image produces none.
        String::new()
    }
}
