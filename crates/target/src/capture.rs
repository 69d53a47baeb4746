//! The capture file format: a flight recorder for debugging sessions.
//!
//! A capture is a JSONL file — one JSON object per line — holding
//! everything that crossed the [`crate::Target`] interface during a
//! session:
//!
//! * a **header** (`{"schema_version":1,"name":"duel_capture",
//!   "config":{...},"types":{...}}`) with the backend label, scenario,
//!   ABI, and a [`TableSnapshot`] of the type table at recording start;
//! * one **event** per interface call
//!   (`{"seq":0,"call":{...},"reply":{...},"ns":123}`) with the full
//!   arguments and full reply bytes/values — faults and transients are
//!   recorded too, as `{"err":{...}}` replies;
//! * a **footer** (`{"footer":true,"metrics":{...},"types":{...}}`)
//!   with per-op totals and a *final* type snapshot. Backends define
//!   types lazily mid-session, so the footer snapshot is authoritative
//!   for replay; the header snapshot is the crash-safe floor.
//!
//! The shared `schema_version`/`name`/`config`/`metrics` envelope is
//! the same convention the bench reports and `--trace-json` use, so one
//! set of tooling can validate all three.
//!
//! [`crate::RecordTarget`] writes this format; [`crate::ReplayTarget`]
//! consumes it.

use std::fmt::Write as _;
use std::io::{self, Read as _, Write};
use std::sync::{Arc, Mutex};

use crate::error::TargetError;
use crate::iface::{CallValue, FrameInfo, ReadRange, VarInfo, VarKind};
use crate::json::{quote, Json};
use crate::op::{ranges_detail, span_detail, Op};
use crate::trace::{TraceOp, TraceOutcome};
use duel_ctype::{
    Abi, Endian, EnumDef, EnumId, Field, Prim, Record, RecordId, TableSnapshot, TypeId, TypeKind,
};

/// Version of the capture schema this build writes. Version 2 added the
/// `multi_read` vectored-read event; files written by older builds
/// (back to [`CAPTURE_MIN_SCHEMA_VERSION`]) still parse.
pub const CAPTURE_SCHEMA_VERSION: u64 = 2;

/// Oldest schema version this build still reads.
pub const CAPTURE_MIN_SCHEMA_VERSION: u64 = 1;

/// The `name` field of every capture header.
pub const CAPTURE_NAME: &str = "duel_capture";

/// Encodes bytes as lowercase hex.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decodes lowercase/uppercase hex back into bytes.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or("bad hex digit")?;
        let lo = (pair[1] as char).to_digit(16).ok_or("bad hex digit")?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(out)
}

/// One call crossing the interface, with its full arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaptureCall {
    /// `get_bytes(addr, buf)` — only the length of `buf` matters.
    GetBytes {
        /// Start address.
        addr: u64,
        /// Bytes requested.
        len: u64,
    },
    /// `put_bytes(addr, bytes)`.
    PutBytes {
        /// Start address.
        addr: u64,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// `alloc_space(size, align)`.
    AllocSpace {
        /// Requested size in bytes.
        size: u64,
        /// Requested alignment.
        align: u64,
    },
    /// `call_func(name, args)`.
    CallFunc {
        /// Function name.
        name: String,
        /// Marshalled arguments.
        args: Vec<CallValue>,
    },
    /// `get_variable(name)` or `get_variable_in_frame(name, frame)`.
    GetVariable {
        /// Symbol name.
        name: String,
        /// `Some(n)` for the in-frame variant.
        frame: Option<u64>,
    },
    /// One of the four type lookups; `ns` is `typedef`, `struct`,
    /// `union`, or `enum`.
    LookupType {
        /// Which namespace.
        ns: String,
        /// Tag or typedef name.
        name: String,
    },
    /// `has_function(name)`.
    HasFunction {
        /// Function name.
        name: String,
    },
    /// `frame_count()`.
    FrameCount,
    /// `frame_info(n)`.
    FrameInfo {
        /// Frame index, 0 = innermost.
        n: u64,
    },
    /// `is_mapped(addr, len)`.
    IsMapped {
        /// Start address.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
    /// `take_output()` — recorded because session transcripts embed
    /// debuggee output, so byte-identical replay needs it.
    TakeOutput,
    /// `get_bytes_multi(ranges)` — one vectored read; each entry is
    /// `(addr, len)`. Schema version 2+.
    MultiRead {
        /// The requested `(addr, len)` ranges, in call order.
        ranges: Vec<(u64, u64)>,
    },
}

impl CaptureCall {
    /// The wire-level op name used in the JSON encoding.
    pub fn op_name(&self) -> &'static str {
        match self {
            CaptureCall::GetBytes { .. } => "get_bytes",
            CaptureCall::PutBytes { .. } => "put_bytes",
            CaptureCall::AllocSpace { .. } => "alloc_space",
            CaptureCall::CallFunc { .. } => "call_func",
            CaptureCall::GetVariable { .. } => "get_variable",
            CaptureCall::LookupType { .. } => "lookup_type",
            CaptureCall::HasFunction { .. } => "has_function",
            CaptureCall::FrameCount => "frame_count",
            CaptureCall::FrameInfo { .. } => "frame_info",
            CaptureCall::IsMapped { .. } => "is_mapped",
            CaptureCall::TakeOutput => "take_output",
            CaptureCall::MultiRead { .. } => "multi_read",
        }
    }

    /// Runs `f` on this call as a borrowed [`Op`] over scratch buffers
    /// (zeroed, sized as recorded) — the inverse of [`Op::to_call`].
    fn with_op<R>(&self, f: impl FnOnce(Op<'_, '_>) -> R) -> R {
        match self {
            CaptureCall::GetBytes { addr, len } => f(Op::GetBytes {
                addr: *addr,
                buf: &mut vec![0u8; *len as usize],
            }),
            CaptureCall::MultiRead { ranges } => {
                let mut bufs: Vec<Vec<u8>> =
                    ranges.iter().map(|&(_, n)| vec![0u8; n as usize]).collect();
                let mut views: Vec<ReadRange<'_>> = ranges
                    .iter()
                    .zip(&mut bufs)
                    .map(|(&(addr, _), b)| ReadRange::new(addr, b))
                    .collect();
                f(Op::GetBytesMulti(&mut views))
            }
            CaptureCall::PutBytes { addr, data } => f(Op::PutBytes {
                addr: *addr,
                bytes: data,
            }),
            CaptureCall::AllocSpace { size, align } => f(Op::AllocSpace {
                size: *size,
                align: *align,
            }),
            CaptureCall::CallFunc { name, args } => f(Op::CallFunc { name, args }),
            CaptureCall::GetVariable { name, frame: None } => f(Op::GetVariable(name)),
            CaptureCall::GetVariable {
                name,
                frame: Some(n),
            } => f(Op::GetVariableInFrame(name, *n as usize)),
            CaptureCall::LookupType { ns, name } => f(match ns.as_str() {
                "struct" => Op::LookupStruct(name),
                "union" => Op::LookupUnion(name),
                "enum" => Op::LookupEnum(name),
                _ => Op::LookupTypedef(name),
            }),
            CaptureCall::HasFunction { name } => f(Op::HasFunction(name)),
            CaptureCall::FrameCount => f(Op::FrameCount),
            CaptureCall::FrameInfo { n } => f(Op::FrameInfo(*n as usize)),
            CaptureCall::IsMapped { addr, len } => f(Op::IsMapped {
                addr: *addr,
                len: *len,
            }),
            CaptureCall::TakeOutput => f(Op::TakeOutput),
        }
    }

    /// Issues this call against `t` and captures the answer — how the
    /// I/O actor's worker runs an op it was sent as [`Op::to_call`]. A
    /// read goes into fresh buffers of the call's own length.
    pub(crate) fn apply<T: crate::Target + ?Sized>(&self, t: &mut T) -> CaptureReply {
        self.with_op(|mut op| {
            let reply = op.reborrow().apply(t);
            op.to_reply(&reply)
        })
    }

    /// The [`TraceOp`] bucket this call belongs to ([`Op::trace_op`]).
    /// Reads are described from their recorded lengths here: building
    /// the op would allocate buffers of those lengths.
    pub fn trace_op(&self) -> Option<TraceOp> {
        match self {
            CaptureCall::GetBytes { .. } => Some(TraceOp::GetBytes),
            CaptureCall::MultiRead { .. } => Some(TraceOp::MultiRead),
            call => call.with_op(|op| op.trace_op()),
        }
    }

    /// A short human detail ([`Op::detail`]).
    pub fn detail(&self) -> String {
        match self {
            CaptureCall::GetBytes { addr, len } => span_detail(*addr, *len),
            CaptureCall::MultiRead { ranges } => ranges_detail(ranges.iter().map(|r| r.1)),
            call => call.with_op(|op| op.detail()),
        }
    }

    fn to_json(&self) -> String {
        let op = self.op_name();
        match self {
            CaptureCall::GetBytes { addr, len } | CaptureCall::IsMapped { addr, len } => {
                format!("{{\"op\":\"{op}\",\"addr\":{addr},\"len\":{len}}}")
            }
            CaptureCall::PutBytes { addr, data } => format!(
                "{{\"op\":\"{op}\",\"addr\":{addr},\"data\":\"{}\"}}",
                hex_encode(data)
            ),
            CaptureCall::AllocSpace { size, align } => {
                format!("{{\"op\":\"{op}\",\"size\":{size},\"align\":{align}}}")
            }
            CaptureCall::CallFunc { name, args } => {
                let args: Vec<String> = args.iter().map(call_value_to_json).collect();
                format!(
                    "{{\"op\":\"{op}\",\"name\":{},\"args\":[{}]}}",
                    quote(name),
                    args.join(",")
                )
            }
            CaptureCall::GetVariable { name, frame } => match frame {
                Some(n) => format!("{{\"op\":\"{op}\",\"name\":{},\"frame\":{n}}}", quote(name)),
                None => format!("{{\"op\":\"{op}\",\"name\":{}}}", quote(name)),
            },
            CaptureCall::LookupType { ns, name } => format!(
                "{{\"op\":\"{op}\",\"ns\":{},\"name\":{}}}",
                quote(ns),
                quote(name)
            ),
            CaptureCall::HasFunction { name } => {
                format!("{{\"op\":\"{op}\",\"name\":{}}}", quote(name))
            }
            CaptureCall::FrameCount | CaptureCall::TakeOutput => format!("{{\"op\":\"{op}\"}}"),
            CaptureCall::FrameInfo { n } => format!("{{\"op\":\"{op}\",\"n\":{n}}}"),
            CaptureCall::MultiRead { ranges } => {
                let rs: Vec<String> = ranges
                    .iter()
                    .map(|(addr, len)| format!("[{addr},{len}]"))
                    .collect();
                format!("{{\"op\":\"{op}\",\"ranges\":[{}]}}", rs.join(","))
            }
        }
    }

    fn from_json(j: &Json) -> Result<CaptureCall, String> {
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or("call missing op")?;
        let u = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("call missing {k}"))
        };
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("call missing {k}"))
        };
        Ok(match op {
            "get_bytes" => CaptureCall::GetBytes {
                addr: u("addr")?,
                len: u("len")?,
            },
            "put_bytes" => CaptureCall::PutBytes {
                addr: u("addr")?,
                data: hex_decode(&s("data")?)?,
            },
            "alloc_space" => CaptureCall::AllocSpace {
                size: u("size")?,
                align: u("align")?,
            },
            "call_func" => {
                let args = j
                    .get("args")
                    .and_then(Json::items)
                    .ok_or("call_func missing args")?
                    .iter()
                    .map(call_value_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                CaptureCall::CallFunc {
                    name: s("name")?,
                    args,
                }
            }
            "get_variable" => CaptureCall::GetVariable {
                name: s("name")?,
                frame: j.get("frame").and_then(Json::as_u64),
            },
            "lookup_type" => match s("ns")?.as_str() {
                ns @ ("typedef" | "struct" | "union" | "enum") => CaptureCall::LookupType {
                    ns: ns.to_string(),
                    name: s("name")?,
                },
                other => return Err(format!("unknown lookup namespace {other:?}")),
            },
            "has_function" => CaptureCall::HasFunction { name: s("name")? },
            "frame_count" => CaptureCall::FrameCount,
            "frame_info" => CaptureCall::FrameInfo { n: u("n")? },
            "is_mapped" => CaptureCall::IsMapped {
                addr: u("addr")?,
                len: u("len")?,
            },
            "take_output" => CaptureCall::TakeOutput,
            "multi_read" => CaptureCall::MultiRead {
                ranges: j
                    .get("ranges")
                    .and_then(Json::items)
                    .ok_or("multi_read missing ranges")?
                    .iter()
                    .map(|pair| {
                        let pair = pair.items().ok_or("multi_read range pair")?;
                        Ok((
                            pair.first().and_then(Json::as_u64).ok_or("range addr")?,
                            pair.get(1).and_then(Json::as_u64).ok_or("range len")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            },
            other => return Err(format!("unknown op {other:?}")),
        })
    }
}

/// The recorded answer to one call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaptureReply {
    /// `get_bytes` success: the bytes read.
    Bytes(Vec<u8>),
    /// `put_bytes` success.
    Unit,
    /// `alloc_space` success: the allocated address.
    Addr(u64),
    /// `call_func` success: the return value.
    Value(CallValue),
    /// Variable resolution result.
    Var(Option<VarInfo>),
    /// Type lookup result, as a raw id into the capture's snapshot.
    TypeRef(Option<u32>),
    /// `has_function` / `is_mapped` answer.
    Flag(bool),
    /// `frame_count` answer.
    Count(u64),
    /// `frame_info` answer.
    Frame(Option<FrameInfo>),
    /// `take_output` answer.
    Output(String),
    /// Any `TargetResult` op that failed.
    Err(TargetError),
    /// `get_bytes_multi` answer: one result per requested range, in
    /// call order. Schema version 2+.
    Multi(Vec<Result<Vec<u8>, TargetError>>),
}

impl CaptureReply {
    /// The [`TraceOutcome`] this reply maps to.
    pub fn outcome(&self) -> TraceOutcome {
        match self {
            CaptureReply::Err(e) => TraceOutcome::of_errors(std::iter::once(e)),
            CaptureReply::Multi(rs) => {
                TraceOutcome::of_errors(rs.iter().filter_map(|r| r.as_ref().err()))
            }
            CaptureReply::Var(None) | CaptureReply::TypeRef(None) | CaptureReply::Frame(None) => {
                TraceOutcome::NotFound
            }
            CaptureReply::Flag(false) => TraceOutcome::NotFound,
            _ => TraceOutcome::Ok,
        }
    }

    fn to_json(&self) -> String {
        match self {
            CaptureReply::Bytes(b) => format!("{{\"bytes\":\"{}\"}}", hex_encode(b)),
            CaptureReply::Unit => "{\"unit\":true}".into(),
            CaptureReply::Addr(a) => format!("{{\"addr\":{a}}}"),
            CaptureReply::Value(v) => format!("{{\"value\":{}}}", call_value_to_json(v)),
            CaptureReply::Var(None) => "{\"var\":null}".into(),
            CaptureReply::Var(Some(v)) => {
                let kind = match v.kind {
                    VarKind::Global => "null".to_string(),
                    VarKind::Local { frame } => frame.to_string(),
                };
                format!(
                    "{{\"var\":{{\"name\":{},\"addr\":{},\"ty\":{},\"frame\":{}}}}}",
                    quote(&v.name),
                    v.addr,
                    v.ty.raw(),
                    kind
                )
            }
            CaptureReply::TypeRef(None) => "{\"type\":null}".into(),
            CaptureReply::TypeRef(Some(raw)) => format!("{{\"type\":{raw}}}"),
            CaptureReply::Flag(b) => format!("{{\"flag\":{b}}}"),
            CaptureReply::Count(n) => format!("{{\"count\":{n}}}"),
            CaptureReply::Frame(None) => "{\"frame\":null}".into(),
            CaptureReply::Frame(Some(f)) => format!(
                "{{\"frame\":{{\"function\":{},\"line\":{}}}}}",
                quote(&f.function),
                f.line.map_or("null".to_string(), |l| l.to_string())
            ),
            CaptureReply::Output(s) => format!("{{\"output\":{}}}", quote(s)),
            CaptureReply::Err(e) => format!("{{\"err\":{}}}", target_error_to_json(e)),
            CaptureReply::Multi(rs) => {
                let parts: Vec<String> = rs
                    .iter()
                    .map(|r| match r {
                        Ok(b) => format!("{{\"bytes\":\"{}\"}}", hex_encode(b)),
                        Err(e) => format!("{{\"err\":{}}}", target_error_to_json(e)),
                    })
                    .collect();
                format!("{{\"multi\":[{}]}}", parts.join(","))
            }
        }
    }

    fn from_json(j: &Json) -> Result<CaptureReply, String> {
        if let Some(v) = j.get("multi") {
            return Ok(CaptureReply::Multi(
                v.items()
                    .ok_or("multi not an array")?
                    .iter()
                    .map(|item| {
                        if let Some(b) = item.get("bytes") {
                            Ok(Ok(hex_decode(b.as_str().ok_or("multi bytes")?)?))
                        } else if let Some(e) = item.get("err") {
                            Ok(Err(target_error_from_json(e)?))
                        } else {
                            Err("unrecognized multi entry".to_string())
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            ));
        }
        if let Some(v) = j.get("bytes") {
            return Ok(CaptureReply::Bytes(hex_decode(
                v.as_str().ok_or("bytes not a string")?,
            )?));
        }
        if j.get("unit").is_some() {
            return Ok(CaptureReply::Unit);
        }
        if let Some(v) = j.get("addr") {
            return Ok(CaptureReply::Addr(v.as_u64().ok_or("addr not a number")?));
        }
        if let Some(v) = j.get("value") {
            return Ok(CaptureReply::Value(call_value_from_json(v)?));
        }
        if let Some(v) = j.get("var") {
            if *v == Json::Null {
                return Ok(CaptureReply::Var(None));
            }
            let name = v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("var missing name")?
                .to_string();
            let addr = v.get("addr").and_then(Json::as_u64).ok_or("var addr")?;
            let ty = TypeId::from_raw(v.get("ty").and_then(Json::as_u64).ok_or("var ty")? as u32);
            let kind = match v.get("frame") {
                Some(Json::Null) | None => VarKind::Global,
                Some(f) => VarKind::Local {
                    frame: f.as_u64().ok_or("var frame")? as usize,
                },
            };
            return Ok(CaptureReply::Var(Some(VarInfo {
                name,
                addr,
                ty,
                kind,
            })));
        }
        if let Some(v) = j.get("type") {
            return Ok(CaptureReply::TypeRef(match v {
                Json::Null => None,
                v => Some(v.as_u64().ok_or("type ref not a number")? as u32),
            }));
        }
        if let Some(v) = j.get("flag") {
            return Ok(CaptureReply::Flag(v.as_bool().ok_or("flag not a bool")?));
        }
        if let Some(v) = j.get("count") {
            return Ok(CaptureReply::Count(v.as_u64().ok_or("count")?));
        }
        if let Some(v) = j.get("frame") {
            if *v == Json::Null {
                return Ok(CaptureReply::Frame(None));
            }
            return Ok(CaptureReply::Frame(Some(FrameInfo {
                function: v
                    .get("function")
                    .and_then(Json::as_str)
                    .ok_or("frame function")?
                    .to_string(),
                line: match v.get("line") {
                    Some(Json::Null) | None => None,
                    Some(l) => Some(l.as_u64().ok_or("frame line")? as u32),
                },
            })));
        }
        if let Some(v) = j.get("output") {
            return Ok(CaptureReply::Output(
                v.as_str().ok_or("output not a string")?.to_string(),
            ));
        }
        if let Some(v) = j.get("err") {
            return Ok(CaptureReply::Err(target_error_from_json(v)?));
        }
        Err("unrecognized reply shape".into())
    }
}

fn call_value_to_json(v: &CallValue) -> String {
    format!(
        "{{\"ty\":{},\"bytes\":\"{}\"}}",
        v.ty.raw(),
        hex_encode(&v.bytes)
    )
}

fn call_value_from_json(j: &Json) -> Result<CallValue, String> {
    Ok(CallValue {
        ty: TypeId::from_raw(j.get("ty").and_then(Json::as_u64).ok_or("value ty")? as u32),
        bytes: hex_decode(j.get("bytes").and_then(Json::as_str).ok_or("value bytes")?)?,
    })
}

fn target_error_to_json(e: &TargetError) -> String {
    match e {
        TargetError::IllegalMemory { addr, len } => {
            format!("{{\"kind\":\"illegal_memory\",\"addr\":{addr},\"len\":{len}}}")
        }
        TargetError::UnknownSymbol(name) => {
            format!("{{\"kind\":\"unknown_symbol\",\"name\":{}}}", quote(name))
        }
        TargetError::UnknownFunction(name) => {
            format!("{{\"kind\":\"unknown_function\",\"name\":{}}}", quote(name))
        }
        TargetError::CallFailed { func, reason } => format!(
            "{{\"kind\":\"call_failed\",\"func\":{},\"reason\":{}}}",
            quote(func),
            quote(reason)
        ),
        TargetError::UnsupportedWidth { bytes } => {
            format!("{{\"kind\":\"unsupported_width\",\"bytes\":{bytes}}}")
        }
        TargetError::ReplayDivergence { at, expected, got } => format!(
            "{{\"kind\":\"replay_divergence\",\"at\":{at},\"expected\":{},\"got\":{}}}",
            quote(expected),
            quote(got)
        ),
        TargetError::CircuitOpen { retry_in_ms } => {
            format!("{{\"kind\":\"circuit_open\",\"retry_in_ms\":{retry_in_ms}}}")
        }
        TargetError::BackendDown(msg) => {
            format!("{{\"kind\":\"backend_down\",\"msg\":{}}}", quote(msg))
        }
        TargetError::Backend(msg) => format!("{{\"kind\":\"backend\",\"msg\":{}}}", quote(msg)),
        TargetError::Timeout { ms } => format!("{{\"kind\":\"timeout\",\"ms\":{ms}}}"),
        TargetError::Truncated { addr, wanted, got } => {
            format!("{{\"kind\":\"truncated\",\"addr\":{addr},\"wanted\":{wanted},\"got\":{got}}}")
        }
    }
}

fn target_error_from_json(j: &Json) -> Result<TargetError, String> {
    let kind = j.get("kind").and_then(Json::as_str).ok_or("err kind")?;
    let u = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("err missing {k}"))
    };
    let s = |k: &str| {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("err missing {k}"))
    };
    Ok(match kind {
        "illegal_memory" => TargetError::IllegalMemory {
            addr: u("addr")?,
            len: u("len")?,
        },
        "unknown_symbol" => TargetError::UnknownSymbol(s("name")?),
        "unknown_function" => TargetError::UnknownFunction(s("name")?),
        "call_failed" => TargetError::CallFailed {
            func: s("func")?,
            reason: s("reason")?,
        },
        "unsupported_width" => TargetError::UnsupportedWidth { bytes: u("bytes")? },
        "replay_divergence" => TargetError::ReplayDivergence {
            at: u("at")?,
            expected: s("expected")?,
            got: s("got")?,
        },
        "circuit_open" => TargetError::CircuitOpen {
            retry_in_ms: u("retry_in_ms")?,
        },
        "backend_down" => TargetError::BackendDown(s("msg")?),
        "backend" => TargetError::Backend(s("msg")?),
        "timeout" => TargetError::Timeout { ms: u("ms")? },
        "truncated" => TargetError::Truncated {
            addr: u("addr")?,
            wanted: u("wanted")?,
            got: u("got")?,
        },
        other => return Err(format!("unknown error kind {other:?}")),
    })
}

/// One line of the capture: a call, its reply, and the latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureEvent {
    /// Zero-based position in the event stream.
    pub seq: u64,
    /// The call.
    pub call: CaptureCall,
    /// The recorded answer.
    pub reply: CaptureReply,
    /// Observed live latency in nanoseconds.
    pub ns: u64,
}

impl CaptureEvent {
    /// Serializes the event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"seq\":{},\"call\":{},\"reply\":{},\"ns\":{}}}",
            self.seq,
            self.call.to_json(),
            self.reply.to_json(),
            self.ns
        )
    }

    /// Parses one event line.
    pub fn from_json(j: &Json) -> Result<CaptureEvent, String> {
        Ok(CaptureEvent {
            seq: j.get("seq").and_then(Json::as_u64).ok_or("event seq")?,
            call: CaptureCall::from_json(j.get("call").ok_or("event call")?)?,
            reply: CaptureReply::from_json(j.get("reply").ok_or("event reply")?)?,
            ns: j.get("ns").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

// ---------------------------------------------------------------------
// Type table snapshot <-> JSON
// ---------------------------------------------------------------------

fn prim_from_name(name: &str) -> Option<Prim> {
    const ALL: [Prim; 13] = [
        Prim::Char,
        Prim::SChar,
        Prim::UChar,
        Prim::Short,
        Prim::UShort,
        Prim::Int,
        Prim::UInt,
        Prim::Long,
        Prim::ULong,
        Prim::LongLong,
        Prim::ULongLong,
        Prim::Float,
        Prim::Double,
    ];
    ALL.into_iter().find(|p| p.c_name() == name)
}

fn kind_to_json(k: &TypeKind) -> String {
    match k {
        TypeKind::Void => "{\"k\":\"void\"}".into(),
        TypeKind::Prim(p) => format!("{{\"k\":\"prim\",\"p\":{}}}", quote(p.c_name())),
        TypeKind::Pointer(t) => format!("{{\"k\":\"ptr\",\"to\":{}}}", t.raw()),
        TypeKind::Array { elem, len } => format!(
            "{{\"k\":\"arr\",\"elem\":{},\"len\":{}}}",
            elem.raw(),
            len.map_or("null".to_string(), |l| l.to_string())
        ),
        TypeKind::Function {
            ret,
            params,
            varargs,
        } => {
            let ps: Vec<String> = params.iter().map(|p| p.raw().to_string()).collect();
            format!(
                "{{\"k\":\"fn\",\"ret\":{},\"params\":[{}],\"varargs\":{varargs}}}",
                ret.raw(),
                ps.join(",")
            )
        }
        TypeKind::Struct(r) => format!("{{\"k\":\"struct\",\"r\":{}}}", r.raw()),
        TypeKind::Union(r) => format!("{{\"k\":\"union\",\"r\":{}}}", r.raw()),
        TypeKind::Enum(e) => format!("{{\"k\":\"enum\",\"e\":{}}}", e.raw()),
    }
}

fn kind_from_json(j: &Json) -> Result<TypeKind, String> {
    let k = j.get("k").and_then(Json::as_str).ok_or("kind tag")?;
    let tid = |key: &str| -> Result<TypeId, String> {
        Ok(TypeId::from_raw(
            j.get(key).and_then(Json::as_u64).ok_or("kind id")? as u32,
        ))
    };
    Ok(match k {
        "void" => TypeKind::Void,
        "prim" => TypeKind::Prim(
            prim_from_name(j.get("p").and_then(Json::as_str).ok_or("prim name")?)
                .ok_or("unknown prim")?,
        ),
        "ptr" => TypeKind::Pointer(tid("to")?),
        "arr" => TypeKind::Array {
            elem: tid("elem")?,
            len: match j.get("len") {
                Some(Json::Null) | None => None,
                Some(l) => Some(l.as_u64().ok_or("array len")?),
            },
        },
        "fn" => TypeKind::Function {
            ret: tid("ret")?,
            params: j
                .get("params")
                .and_then(Json::items)
                .ok_or("fn params")?
                .iter()
                .map(|p| Ok(TypeId::from_raw(p.as_u64().ok_or("fn param")? as u32)))
                .collect::<Result<Vec<_>, String>>()?,
            varargs: j.get("varargs").and_then(Json::as_bool).unwrap_or(false),
        },
        "struct" => TypeKind::Struct(RecordId::from_raw(
            j.get("r").and_then(Json::as_u64).ok_or("struct rid")? as u32,
        )),
        "union" => TypeKind::Union(RecordId::from_raw(
            j.get("r").and_then(Json::as_u64).ok_or("union rid")? as u32,
        )),
        "enum" => TypeKind::Enum(EnumId::from_raw(
            j.get("e").and_then(Json::as_u64).ok_or("enum eid")? as u32,
        )),
        other => return Err(format!("unknown kind {other:?}")),
    })
}

fn record_to_json(r: &Record) -> String {
    let fields: Vec<String> = r
        .fields
        .iter()
        .map(|f| {
            format!(
                "{{\"name\":{},\"ty\":{},\"bits\":{}}}",
                quote(&f.name),
                f.ty.raw(),
                f.bits.map_or("null".to_string(), |b| b.to_string())
            )
        })
        .collect();
    format!(
        "{{\"name\":{},\"fields\":[{}],\"union\":{},\"complete\":{}}}",
        r.name.as_deref().map_or("null".to_string(), quote),
        fields.join(","),
        r.is_union,
        r.complete
    )
}

fn record_from_json(j: &Json) -> Result<Record, String> {
    Ok(Record {
        name: match j.get("name") {
            Some(Json::Null) | None => None,
            Some(n) => Some(n.as_str().ok_or("record name")?.to_string()),
        },
        fields: j
            .get("fields")
            .and_then(Json::items)
            .ok_or("record fields")?
            .iter()
            .map(|f| {
                Ok(Field {
                    name: f
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("field name")?
                        .to_string(),
                    ty: TypeId::from_raw(
                        f.get("ty").and_then(Json::as_u64).ok_or("field ty")? as u32
                    ),
                    bits: match f.get("bits") {
                        Some(Json::Null) | None => None,
                        Some(b) => Some(b.as_u64().ok_or("field bits")? as u8),
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        is_union: j.get("union").and_then(Json::as_bool).unwrap_or(false),
        complete: j.get("complete").and_then(Json::as_bool).unwrap_or(true),
    })
}

fn enum_to_json(e: &EnumDef) -> String {
    let vals: Vec<String> = e
        .enumerators
        .iter()
        .map(|(n, v)| format!("[{},{v}]", quote(n)))
        .collect();
    format!(
        "{{\"name\":{},\"vals\":[{}]}}",
        e.name.as_deref().map_or("null".to_string(), quote),
        vals.join(",")
    )
}

fn enum_from_json(j: &Json) -> Result<EnumDef, String> {
    Ok(EnumDef {
        name: match j.get("name") {
            Some(Json::Null) | None => None,
            Some(n) => Some(n.as_str().ok_or("enum name")?.to_string()),
        },
        enumerators: j
            .get("vals")
            .and_then(Json::items)
            .ok_or("enum vals")?
            .iter()
            .map(|pair| {
                let pair = pair.items().ok_or("enum pair")?;
                Ok((
                    pair.first()
                        .and_then(Json::as_str)
                        .ok_or("enum pair name")?
                        .to_string(),
                    pair.get(1).and_then(Json::as_i64).ok_or("enum pair val")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?,
    })
}

/// Serializes a type snapshot as a JSON object.
pub fn snapshot_to_json(snap: &TableSnapshot) -> String {
    let kinds: Vec<String> = snap.kinds.iter().map(kind_to_json).collect();
    let records: Vec<String> = snap.records.iter().map(record_to_json).collect();
    let enums: Vec<String> = snap.enums.iter().map(enum_to_json).collect();
    let named = |pairs: &[(String, u32)]| -> String {
        let items: Vec<String> = pairs
            .iter()
            .map(|(n, id)| format!("[{},{id}]", quote(n)))
            .collect();
        format!("[{}]", items.join(","))
    };
    let typedefs: Vec<(String, u32)> = snap
        .typedefs
        .iter()
        .map(|(n, id)| (n.clone(), id.raw()))
        .collect();
    let structs: Vec<(String, u32)> = snap
        .struct_tags
        .iter()
        .map(|(n, id)| (n.clone(), id.raw()))
        .collect();
    let unions: Vec<(String, u32)> = snap
        .union_tags
        .iter()
        .map(|(n, id)| (n.clone(), id.raw()))
        .collect();
    let enums_tags: Vec<(String, u32)> = snap
        .enum_tags
        .iter()
        .map(|(n, id)| (n.clone(), id.raw()))
        .collect();
    format!(
        "{{\"kinds\":[{}],\"records\":[{}],\"enums\":[{}],\"typedefs\":{},\
         \"struct_tags\":{},\"union_tags\":{},\"enum_tags\":{}}}",
        kinds.join(","),
        records.join(","),
        enums.join(","),
        named(&typedefs),
        named(&structs),
        named(&unions),
        named(&enums_tags)
    )
}

/// Parses a type snapshot back from its JSON object.
pub fn snapshot_from_json(j: &Json) -> Result<TableSnapshot, String> {
    fn pairs<I: Copy>(
        j: &Json,
        key: &str,
        mk: impl Fn(u32) -> I,
    ) -> Result<Vec<(String, I)>, String> {
        j.get(key)
            .and_then(Json::items)
            .ok_or_else(|| format!("snapshot missing {key}"))?
            .iter()
            .map(|pair| {
                let pair = pair.items().ok_or("snapshot pair")?;
                Ok((
                    pair.first()
                        .and_then(Json::as_str)
                        .ok_or("pair name")?
                        .to_string(),
                    mk(pair.get(1).and_then(Json::as_u64).ok_or("pair id")? as u32),
                ))
            })
            .collect()
    }
    Ok(TableSnapshot {
        kinds: j
            .get("kinds")
            .and_then(Json::items)
            .ok_or("snapshot kinds")?
            .iter()
            .map(kind_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        records: j
            .get("records")
            .and_then(Json::items)
            .ok_or("snapshot records")?
            .iter()
            .map(record_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        enums: j
            .get("enums")
            .and_then(Json::items)
            .ok_or("snapshot enums")?
            .iter()
            .map(enum_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        typedefs: pairs(j, "typedefs", TypeId::from_raw)?,
        struct_tags: pairs(j, "struct_tags", RecordId::from_raw)?,
        union_tags: pairs(j, "union_tags", RecordId::from_raw)?,
        enum_tags: pairs(j, "enum_tags", EnumId::from_raw)?,
    })
}

// ---------------------------------------------------------------------
// Header / footer / whole-capture parsing
// ---------------------------------------------------------------------

/// The parsed header line of a capture.
#[derive(Clone, Debug, PartialEq)]
pub struct CaptureHeader {
    /// Schema version the file was written with.
    pub schema_version: u64,
    /// Backend label, e.g. `"sim"` or `"gdb-mi"`.
    pub backend: String,
    /// Scenario or program label (free-form).
    pub scenario: String,
    /// ABI of the recorded target.
    pub abi: Abi,
    /// Type table at recording start.
    pub types: TableSnapshot,
}

/// Serializes the header line.
pub fn header_to_json(backend: &str, scenario: &str, abi: &Abi, types: &TableSnapshot) -> String {
    let endian = match abi.endian {
        Endian::Little => "little",
        Endian::Big => "big",
    };
    format!(
        "{{\"schema_version\":{CAPTURE_SCHEMA_VERSION},\"name\":\"{CAPTURE_NAME}\",\
         \"config\":{{\"backend\":{},\"scenario\":{},\
         \"abi\":{{\"pointer_bytes\":{},\"long_bytes\":{},\"endian\":\"{endian}\",\
         \"char_signed\":{},\"max_align\":{}}}}},\"types\":{}}}",
        quote(backend),
        quote(scenario),
        abi.pointer_bytes,
        abi.long_bytes,
        abi.char_signed,
        abi.max_align,
        snapshot_to_json(types)
    )
}

fn header_from_json(j: &Json) -> Result<CaptureHeader, String> {
    let schema_version = j
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("header missing schema_version")?;
    if !(CAPTURE_MIN_SCHEMA_VERSION..=CAPTURE_SCHEMA_VERSION).contains(&schema_version) {
        return Err(format!(
            "unsupported capture schema_version {schema_version} (this build reads \
             {CAPTURE_MIN_SCHEMA_VERSION}..={CAPTURE_SCHEMA_VERSION})"
        ));
    }
    if j.get("name").and_then(Json::as_str) != Some(CAPTURE_NAME) {
        return Err("not a duel_capture file (bad name field)".into());
    }
    let config = j.get("config").ok_or("header missing config")?;
    let abi_j = config.get("abi").ok_or("config missing abi")?;
    let abi = Abi {
        pointer_bytes: abi_j
            .get("pointer_bytes")
            .and_then(Json::as_u64)
            .ok_or("abi pointer_bytes")?,
        long_bytes: abi_j
            .get("long_bytes")
            .and_then(Json::as_u64)
            .ok_or("abi long_bytes")?,
        endian: match abi_j.get("endian").and_then(Json::as_str) {
            Some("little") => Endian::Little,
            Some("big") => Endian::Big,
            _ => return Err("abi endian".into()),
        },
        char_signed: abi_j
            .get("char_signed")
            .and_then(Json::as_bool)
            .ok_or("abi char_signed")?,
        max_align: abi_j
            .get("max_align")
            .and_then(Json::as_u64)
            .ok_or("abi max_align")?,
    };
    Ok(CaptureHeader {
        schema_version,
        backend: config
            .get("backend")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        scenario: config
            .get("scenario")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        abi,
        types: snapshot_from_json(j.get("types").ok_or("header missing types")?)?,
    })
}

/// Serializes the footer line: per-op metrics plus the final type
/// snapshot (authoritative for replay — backends intern types lazily).
pub fn footer_to_json(
    op_counts: &[(TraceOp, u64)],
    total_events: u64,
    types: &TableSnapshot,
) -> String {
    let ops: Vec<String> = op_counts
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(op, n)| format!("\"{}\":{n}", op.name()))
        .collect();
    format!(
        "{{\"footer\":true,\"metrics\":{{\"events\":{total_events},\"ops\":{{{}}}}},\"types\":{}}}",
        ops.join(","),
        snapshot_to_json(types)
    )
}

/// A fully parsed capture file.
#[derive(Clone, Debug)]
pub struct Capture {
    /// The header line.
    pub header: CaptureHeader,
    /// Every recorded event, in order.
    pub events: Vec<CaptureEvent>,
    /// Final type snapshot from the footer, if the capture was
    /// finalized cleanly (use [`Capture::types`] for the right one).
    pub footer_types: Option<TableSnapshot>,
}

impl Capture {
    /// Parses a capture from its JSONL text.
    pub fn parse(text: &str) -> Result<Capture, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines.next().ok_or("empty capture file")?;
        let header =
            header_from_json(&Json::parse(first).map_err(|e| format!("capture line 1: {e}"))?)?;
        let mut events = Vec::new();
        let mut footer_types = None;
        for (i, line) in lines {
            let j = Json::parse(line).map_err(|e| format!("capture line {}: {e}", i + 1))?;
            if j.get("footer").and_then(Json::as_bool) == Some(true) {
                if let Some(t) = j.get("types") {
                    footer_types = Some(snapshot_from_json(t)?);
                }
                continue;
            }
            events.push(
                CaptureEvent::from_json(&j).map_err(|e| format!("capture line {}: {e}", i + 1))?,
            );
        }
        header.types.validate()?;
        if let Some(t) = &footer_types {
            t.validate()?;
        }
        let cap = Capture {
            header,
            events,
            footer_types,
        };
        // The replay hands reply type ids to the evaluator, which
        // indexes the restored table with them.
        let kinds = cap.types().kinds.len() as u64;
        for (seq, e) in cap.events.iter().enumerate() {
            let ty = match &e.reply {
                CaptureReply::Var(Some(v)) => Some(v.ty.raw()),
                CaptureReply::Value(v) => Some(v.ty.raw()),
                CaptureReply::TypeRef(t) => *t,
                _ => None,
            };
            if let Some(t) = ty.filter(|&t| u64::from(t) >= kinds) {
                return Err(format!("capture event {seq}: type id {t} out of range"));
            }
        }
        Ok(cap)
    }

    /// Loads and parses a capture file.
    pub fn load(path: &str) -> Result<Capture, String> {
        let mut text = String::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        Capture::parse(&text)
    }

    /// The authoritative type snapshot: the footer's if the capture was
    /// finalized, else the header's.
    pub fn types(&self) -> &TableSnapshot {
        self.footer_types.as_ref().unwrap_or(&self.header.types)
    }
}

/// A `Write` implementation backed by a shared byte buffer — lets tests
/// and benches record in memory and read the capture back without
/// touching the filesystem.
#[derive(Clone, Debug, Default)]
pub struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl SharedSink {
    /// Creates an empty shared sink.
    pub fn new() -> SharedSink {
        SharedSink::default()
    }

    /// The bytes written so far, as UTF-8 text.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duel_ctype::TypeTable;

    #[test]
    fn hex_roundtrip() {
        let data = vec![0x00, 0x7f, 0xff, 0xab];
        assert_eq!(hex_encode(&data), "007fffab");
        assert_eq!(hex_decode("007fffab").unwrap(), data);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    fn sample_events(tt: &mut TypeTable) -> Vec<CaptureEvent> {
        let int = tt.prim(Prim::Int);
        vec![
            CaptureEvent {
                seq: 0,
                call: CaptureCall::GetBytes {
                    addr: 0x1000,
                    len: 4,
                },
                reply: CaptureReply::Bytes(vec![1, 2, 3, 4]),
                ns: 120,
            },
            CaptureEvent {
                seq: 1,
                call: CaptureCall::GetVariable {
                    name: "x".into(),
                    frame: None,
                },
                reply: CaptureReply::Var(Some(VarInfo {
                    name: "x".into(),
                    addr: 0x1000,
                    ty: int,
                    kind: VarKind::Global,
                })),
                ns: 80,
            },
            CaptureEvent {
                seq: 2,
                call: CaptureCall::CallFunc {
                    name: "f".into(),
                    args: vec![CallValue {
                        ty: int,
                        bytes: vec![7, 0, 0, 0],
                    }],
                },
                reply: CaptureReply::Err(TargetError::CallFailed {
                    func: "f".into(),
                    reason: "no \"such\" fn".into(),
                }),
                ns: 999,
            },
            CaptureEvent {
                seq: 3,
                call: CaptureCall::TakeOutput,
                reply: CaptureReply::Output("hello\nworld".into()),
                ns: 5,
            },
            CaptureEvent {
                seq: 4,
                call: CaptureCall::GetBytes { addr: 0x10, len: 4 },
                reply: CaptureReply::Err(TargetError::IllegalMemory { addr: 0x10, len: 4 }),
                ns: 40,
            },
            CaptureEvent {
                seq: 5,
                call: CaptureCall::MultiRead {
                    ranges: vec![(0x1000, 4), (0x1010, 8), (0x10, 4)],
                },
                reply: CaptureReply::Multi(vec![
                    Ok(vec![1, 2, 3, 4]),
                    Ok(vec![9, 9, 9, 9, 9, 9, 9, 9]),
                    Err(TargetError::IllegalMemory { addr: 0x10, len: 4 }),
                ]),
                ns: 60,
            },
        ]
    }

    #[test]
    fn event_json_roundtrip() {
        let mut tt = TypeTable::new();
        for ev in sample_events(&mut tt) {
            let line = ev.to_json_line();
            let back = CaptureEvent::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn whole_capture_roundtrip() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        let (rid, sty) = tt.declare_struct("node");
        let pnode = tt.pointer(sty);
        tt.define_record(rid, vec![Field::new("v", int), Field::new("next", pnode)]);
        tt.define_typedef("node_t", sty);

        let events = sample_events(&mut tt);
        let snap = tt.snapshot();
        let mut text = String::new();
        text.push_str(&header_to_json("sim", "combined", &Abi::lp64(), &snap));
        text.push('\n');
        for ev in &events {
            text.push_str(&ev.to_json_line());
            text.push('\n');
        }
        text.push_str(&footer_to_json(
            &[(TraceOp::GetBytes, 2), (TraceOp::PutBytes, 0)],
            events.len() as u64,
            &snap,
        ));
        text.push('\n');

        let cap = Capture::parse(&text).unwrap();
        assert_eq!(cap.header.backend, "sim");
        assert_eq!(cap.header.scenario, "combined");
        assert_eq!(cap.header.abi, Abi::lp64());
        assert_eq!(cap.events, events);
        assert_eq!(cap.types(), &snap);

        // The snapshot restores a table where the recorded ids resolve.
        let back = TypeTable::from_snapshot(cap.types());
        assert_eq!(back.typedef("node_t"), Some(sty));
        assert_eq!(back.kind(pnode), &TypeKind::Pointer(sty));
    }

    #[test]
    fn unfinalized_capture_falls_back_to_header_types() {
        let tt = TypeTable::new();
        let snap = tt.snapshot();
        let text = header_to_json("sim", "s", &Abi::ilp32_be(), &snap) + "\n";
        let cap = Capture::parse(&text).unwrap();
        assert!(cap.footer_types.is_none());
        assert_eq!(cap.types(), &snap);
        assert_eq!(cap.header.abi.endian, Endian::Big);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = r#"{"schema_version":99,"name":"duel_capture","config":{},"types":{}}"#;
        let err = Capture::parse(text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let text = r#"{"schema_version":1,"name":"other","config":{},"types":{}}"#;
        assert!(Capture::parse(text).is_err());
    }

    #[test]
    fn older_schema_versions_still_parse() {
        // A v1 capture (pre-multi_read) written by an older build.
        let tt = TypeTable::new();
        let snap = tt.snapshot();
        let text = header_to_json("sim", "s", &Abi::lp64(), &snap).replacen(
            "\"schema_version\":2",
            "\"schema_version\":1",
            1,
        ) + "\n";
        let cap = Capture::parse(&text).unwrap();
        assert_eq!(cap.header.schema_version, 1);
    }

    #[test]
    fn all_error_kinds_roundtrip() {
        let errs = [
            TargetError::IllegalMemory { addr: 1, len: 2 },
            TargetError::UnknownSymbol("s".into()),
            TargetError::UnknownFunction("f".into()),
            TargetError::CallFailed {
                func: "f".into(),
                reason: "r".into(),
            },
            TargetError::UnsupportedWidth { bytes: 16 },
            TargetError::ReplayDivergence {
                at: 3,
                expected: "get_bytes 0x1000+4".into(),
                got: "put_bytes 0x2000+8".into(),
            },
            TargetError::Backend("b".into()),
            TargetError::Timeout { ms: 10 },
            TargetError::Truncated {
                addr: 1,
                wanted: 4,
                got: 2,
            },
        ];
        for e in errs {
            let j = Json::parse(&target_error_to_json(&e)).unwrap();
            assert_eq!(target_error_from_json(&j).unwrap(), e);
        }
    }

    #[test]
    fn shared_sink_accumulates() {
        let sink = SharedSink::new();
        let mut w = sink.clone();
        w.write_all(b"abc").unwrap();
        w.write_all(b"def").unwrap();
        assert_eq!(sink.contents(), "abcdef");
    }
}
