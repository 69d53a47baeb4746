//! The wire-op set of [`Target`], written down once.
//!
//! [`Op`] reifies one call of a wire method (every `Target` method that
//! may cross to the debugger) as a borrowed value: it carries the
//! caller's own buffers and arguments, so building and forwarding one
//! never allocates. [`Reply`] is the matching result. Everything a
//! decorator needs to know about an op is written once: its trace kind
//! and detail string ([`Op::trace_op`], [`Op::detail`]), its owned
//! capture form ([`Op::to_call`]), the captured form of a result
//! ([`Op::to_reply`]), the result rebuilt from a captured reply
//! ([`Op::fill`]), and the call itself ([`Op::apply`]).
//!
//! A decorator implements [`Layer`] instead of [`Target`]: one
//! [`Layer::call`] hook sees every wire op, the plumbing methods
//! forward to the next target unless the layer answers them itself,
//! and a blanket impl turns every `Layer` into a `Target`.

use crate::capture::{CaptureCall, CaptureReply};
use crate::error::{TargetError, TargetResult};
use crate::iface::{
    CallValue, FrameInfo, OwnedRange, PipelineTicket, PrefetchCompletion, ReadRange, Target,
    VarInfo,
};
use crate::pipeline::PipelineHandle;
use crate::span::SpanContext;
use crate::supervise::StalenessHandle;
use crate::trace::{TraceHandle, TraceOp, TraceOutcome};
use duel_ctype::{Abi, EnumId, RecordId, TypeId, TypeTable};

/// One call of a wire method of [`Target`], borrowing the caller's
/// buffers and arguments. `'a` is the borrow of the arguments, `'r` the
/// buffers inside a vectored read's ranges.
#[derive(Debug)]
pub enum Op<'a, 'r> {
    /// [`Target::get_bytes`].
    GetBytes {
        /// Start address.
        addr: u64,
        /// Destination; its length is the request.
        buf: &'a mut [u8],
    },
    /// [`Target::get_bytes_multi`].
    GetBytesMulti(&'a mut [ReadRange<'r>]),
    /// [`Target::put_bytes`].
    PutBytes {
        /// Start address.
        addr: u64,
        /// The bytes to write.
        bytes: &'a [u8],
    },
    /// [`Target::alloc_space`].
    AllocSpace {
        /// Requested size in bytes.
        size: u64,
        /// Requested alignment.
        align: u64,
    },
    /// [`Target::call_func`].
    CallFunc {
        /// Function name.
        name: &'a str,
        /// Marshalled arguments.
        args: &'a [CallValue],
    },
    /// [`Target::get_variable`].
    GetVariable(&'a str),
    /// [`Target::get_variable_in_frame`].
    GetVariableInFrame(&'a str, usize),
    /// [`Target::lookup_typedef`].
    LookupTypedef(&'a str),
    /// [`Target::lookup_struct`].
    LookupStruct(&'a str),
    /// [`Target::lookup_union`].
    LookupUnion(&'a str),
    /// [`Target::lookup_enum`].
    LookupEnum(&'a str),
    /// [`Target::has_function`].
    HasFunction(&'a str),
    /// [`Target::frame_count`].
    FrameCount,
    /// [`Target::frame_info`].
    FrameInfo(usize),
    /// [`Target::is_mapped`].
    IsMapped {
        /// Start address.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
    /// [`Target::take_output`].
    TakeOutput,
}

/// The answer to an [`Op`]: one variant per return type of the wire
/// methods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `get_bytes` / `put_bytes`.
    Done(TargetResult<()>),
    /// `get_bytes_multi`: one result per range.
    Multi(Vec<TargetResult<()>>),
    /// `alloc_space`.
    Addr(TargetResult<u64>),
    /// `call_func`.
    Value(TargetResult<CallValue>),
    /// `get_variable` / `get_variable_in_frame`.
    Var(Option<VarInfo>),
    /// `lookup_typedef`.
    Type(Option<TypeId>),
    /// `lookup_struct` / `lookup_union`.
    Record(Option<RecordId>),
    /// `lookup_enum`.
    Enum(Option<EnumId>),
    /// `has_function` / `is_mapped`.
    Flag(bool),
    /// `frame_count`.
    Count(usize),
    /// `frame_info`.
    Frame(Option<FrameInfo>),
    /// `take_output`.
    Output(String),
}

impl<'r> Op<'_, 'r> {
    /// A shorter-lived copy of this op, so a layer can issue it more
    /// than once (retry) or look at it after the call (trace, record).
    pub fn reborrow(&mut self) -> Op<'_, 'r> {
        match self {
            Op::GetBytes { addr, buf } => Op::GetBytes { addr: *addr, buf },
            Op::GetBytesMulti(ranges) => Op::GetBytesMulti(ranges),
            Op::PutBytes { addr, bytes } => Op::PutBytes { addr: *addr, bytes },
            Op::AllocSpace { size, align } => Op::AllocSpace {
                size: *size,
                align: *align,
            },
            Op::CallFunc { name, args } => Op::CallFunc { name, args },
            Op::GetVariable(n) => Op::GetVariable(n),
            Op::GetVariableInFrame(n, f) => Op::GetVariableInFrame(n, *f),
            Op::LookupTypedef(n) => Op::LookupTypedef(n),
            Op::LookupStruct(n) => Op::LookupStruct(n),
            Op::LookupUnion(n) => Op::LookupUnion(n),
            Op::LookupEnum(n) => Op::LookupEnum(n),
            Op::HasFunction(n) => Op::HasFunction(n),
            Op::FrameCount => Op::FrameCount,
            Op::FrameInfo(n) => Op::FrameInfo(*n),
            Op::IsMapped { addr, len } => Op::IsMapped {
                addr: *addr,
                len: *len,
            },
            Op::TakeOutput => Op::TakeOutput,
        }
    }

    /// Issues the op against `t`. Always inlined: once a layer's
    /// `call` is inlined into a wire method, the op's variant is known
    /// and the match folds to one direct call.
    #[inline(always)]
    pub fn apply<T: Target + ?Sized>(self, t: &mut T) -> Reply {
        match self {
            Op::GetBytes { addr, buf } => Reply::Done(t.get_bytes(addr, buf)),
            Op::GetBytesMulti(ranges) => Reply::Multi(t.get_bytes_multi(ranges)),
            Op::PutBytes { addr, bytes } => Reply::Done(t.put_bytes(addr, bytes)),
            Op::AllocSpace { size, align } => Reply::Addr(t.alloc_space(size, align)),
            Op::CallFunc { name, args } => Reply::Value(t.call_func(name, args)),
            Op::GetVariable(n) => Reply::Var(t.get_variable(n)),
            Op::GetVariableInFrame(n, f) => Reply::Var(t.get_variable_in_frame(n, f)),
            Op::LookupTypedef(n) => Reply::Type(t.lookup_typedef(n)),
            Op::LookupStruct(n) => Reply::Record(t.lookup_struct(n)),
            Op::LookupUnion(n) => Reply::Record(t.lookup_union(n)),
            Op::LookupEnum(n) => Reply::Enum(t.lookup_enum(n)),
            Op::HasFunction(n) => Reply::Flag(t.has_function(n)),
            Op::FrameCount => Reply::Count(t.frame_count()),
            Op::FrameInfo(n) => Reply::Frame(t.frame_info(n)),
            Op::IsMapped { addr, len } => Reply::Flag(t.is_mapped(addr, len)),
            Op::TakeOutput => Reply::Output(t.take_output()),
        }
    }

    /// Whether the op answers with a [`TargetResult`] — memory,
    /// allocation and calls, the ops a backend can fail. Lookups,
    /// frames, `is_mapped` and output drains answer plainly.
    #[inline]
    pub fn is_fallible(&self) -> bool {
        matches!(
            self,
            Op::GetBytes { .. }
                | Op::GetBytesMulti(_)
                | Op::PutBytes { .. }
                | Op::AllocSpace { .. }
                | Op::CallFunc { .. }
        )
    }

    /// The [`TraceOp`] bucket the op belongs to. `take_output` drains a
    /// host-side buffer rather than crossing the wire, so it has none
    /// and no stats view counts it.
    pub fn trace_op(&self) -> Option<TraceOp> {
        Some(match self {
            Op::GetBytes { .. } => TraceOp::GetBytes,
            Op::GetBytesMulti(_) => TraceOp::MultiRead,
            Op::PutBytes { .. } => TraceOp::PutBytes,
            Op::AllocSpace { .. } => TraceOp::AllocSpace,
            Op::CallFunc { .. } => TraceOp::CallFunc,
            Op::GetVariable(_) | Op::GetVariableInFrame(..) => TraceOp::GetVariable,
            Op::LookupTypedef(_) | Op::LookupStruct(_) | Op::LookupUnion(_) | Op::LookupEnum(_) => {
                TraceOp::LookupType
            }
            Op::HasFunction(_) => TraceOp::HasFunction,
            Op::FrameCount | Op::FrameInfo(_) => TraceOp::Frames,
            Op::IsMapped { .. } => TraceOp::IsMapped,
            Op::TakeOutput => return None,
        })
    }

    /// A short human detail (`.trace dump` style): address + length,
    /// or the symbol asked for.
    pub fn detail(&self) -> String {
        match self {
            Op::GetBytes { addr, buf } => span_detail(*addr, buf.len() as u64),
            Op::GetBytesMulti(ranges) => ranges_detail(ranges.iter().map(|r| r.len() as u64)),
            Op::PutBytes { addr, bytes } => span_detail(*addr, bytes.len() as u64),
            Op::IsMapped { addr, len } => span_detail(*addr, *len),
            Op::AllocSpace { size, align } => format!("{size}b align {align}"),
            Op::CallFunc { name, args } => format!("{name}({} args)", args.len()),
            Op::GetVariable(n) | Op::HasFunction(n) => n.to_string(),
            Op::GetVariableInFrame(n, f) => format!("{n}@frame{f}"),
            Op::LookupTypedef(n) | Op::LookupStruct(n) | Op::LookupUnion(n) | Op::LookupEnum(n) => {
                format!("{} {n}", self.lookup_ns())
            }
            Op::FrameCount => "count".into(),
            Op::FrameInfo(n) => format!("frame {n}"),
            Op::TakeOutput => "output".into(),
        }
    }

    /// A type lookup's namespace as captures name it (empty for every
    /// other op).
    fn lookup_ns(&self) -> &'static str {
        match self {
            Op::LookupTypedef(_) => "typedef",
            Op::LookupStruct(_) => "struct",
            Op::LookupUnion(_) => "union",
            Op::LookupEnum(_) => "enum",
            _ => "",
        }
    }

    /// The op as an owned capture call (what the flight recorder writes
    /// and the I/O actor ships to its worker).
    pub fn to_call(&self) -> CaptureCall {
        match self {
            Op::GetBytes { addr, buf } => CaptureCall::GetBytes {
                addr: *addr,
                len: buf.len() as u64,
            },
            Op::GetBytesMulti(ranges) => CaptureCall::MultiRead {
                ranges: ranges.iter().map(|r| (r.addr, r.len() as u64)).collect(),
            },
            Op::PutBytes { addr, bytes } => CaptureCall::PutBytes {
                addr: *addr,
                data: bytes.to_vec(),
            },
            Op::AllocSpace { size, align } => CaptureCall::AllocSpace {
                size: *size,
                align: *align,
            },
            Op::CallFunc { name, args } => CaptureCall::CallFunc {
                name: name.to_string(),
                args: args.to_vec(),
            },
            Op::GetVariable(n) => CaptureCall::GetVariable {
                name: n.to_string(),
                frame: None,
            },
            Op::GetVariableInFrame(n, f) => CaptureCall::GetVariable {
                name: n.to_string(),
                frame: Some(*f as u64),
            },
            Op::LookupTypedef(n) | Op::LookupStruct(n) | Op::LookupUnion(n) | Op::LookupEnum(n) => {
                CaptureCall::LookupType {
                    ns: self.lookup_ns().into(),
                    name: n.to_string(),
                }
            }
            Op::HasFunction(n) => CaptureCall::HasFunction {
                name: n.to_string(),
            },
            Op::FrameCount => CaptureCall::FrameCount,
            Op::FrameInfo(n) => CaptureCall::FrameInfo { n: *n as u64 },
            Op::IsMapped { addr, len } => CaptureCall::IsMapped {
                addr: *addr,
                len: *len,
            },
            Op::TakeOutput => CaptureCall::TakeOutput,
        }
    }

    /// The captured form of `reply`, this op's answer. A read's bytes
    /// come from the op's (now filled) buffers.
    pub fn to_reply(&self, reply: &Reply) -> CaptureReply {
        let bytes = |r: &TargetResult<()>, buf: &[u8]| match r {
            Ok(()) => Ok(buf.to_vec()),
            Err(e) => Err(e.clone()),
        };
        match (self, reply) {
            (_, Reply::Done(Err(e)) | Reply::Addr(Err(e)) | Reply::Value(Err(e))) => {
                CaptureReply::Err(e.clone())
            }
            (Op::GetBytes { buf, .. }, Reply::Done(Ok(()))) => CaptureReply::Bytes(buf.to_vec()),
            (_, Reply::Done(Ok(()))) => CaptureReply::Unit,
            (Op::GetBytesMulti(ranges), Reply::Multi(rs)) => CaptureReply::Multi(
                ranges
                    .iter()
                    .zip(rs)
                    .map(|(r, res)| bytes(res, r.buf))
                    .collect(),
            ),
            (_, Reply::Multi(_)) => unreachable!("a vectored reply to {self:?}"),
            (_, Reply::Addr(Ok(a))) => CaptureReply::Addr(*a),
            (_, Reply::Value(Ok(v))) => CaptureReply::Value(v.clone()),
            (_, Reply::Var(v)) => CaptureReply::Var(v.clone()),
            (_, Reply::Type(t)) => CaptureReply::TypeRef(t.map(TypeId::raw)),
            (_, Reply::Record(r)) => CaptureReply::TypeRef(r.map(RecordId::raw)),
            (_, Reply::Enum(e)) => CaptureReply::TypeRef(e.map(EnumId::raw)),
            (_, Reply::Flag(b)) => CaptureReply::Flag(*b),
            (_, Reply::Count(n)) => CaptureReply::Count(*n as u64),
            (_, Reply::Frame(f)) => CaptureReply::Frame(f.clone()),
            (_, Reply::Output(s)) => CaptureReply::Output(s.clone()),
        }
    }

    /// Answers the op from a captured reply, copying recorded bytes
    /// into the op's buffers. A recorded error fails a fallible op;
    /// ops that cannot fail answer "not found" (`None`, `false`, 0, no
    /// output) instead, as they do for a reply of the wrong shape. A
    /// recorded read of the wrong length is [`TargetError::Truncated`].
    pub fn fill(self, reply: CaptureReply) -> Reply {
        let shape = || TargetError::Backend("capture reply shape does not match its call".into());
        let copy = |addr: u64, buf: &mut [u8], got: Vec<u8>| {
            if got.len() != buf.len() {
                return Err(TargetError::Truncated {
                    addr,
                    wanted: buf.len() as u64,
                    got: got.len() as u64,
                });
            }
            buf.copy_from_slice(&got);
            Ok(())
        };
        match (self, reply) {
            (Op::GetBytes { addr, buf }, CaptureReply::Bytes(b)) => Reply::Done(copy(addr, buf, b)),
            (Op::GetBytesMulti(ranges), CaptureReply::Multi(rs)) if rs.len() == ranges.len() => {
                Reply::Multi(
                    ranges
                        .iter_mut()
                        .zip(rs)
                        .map(|(r, res)| copy(r.addr, r.buf, res?))
                        .collect(),
                )
            }
            (Op::GetBytesMulti(ranges), reply) => {
                let e = match reply {
                    CaptureReply::Err(e) => e,
                    _ => shape(),
                };
                Reply::Multi(ranges.iter().map(|_| Err(e.clone())).collect())
            }
            (Op::PutBytes { .. }, CaptureReply::Unit) => Reply::Done(Ok(())),
            (Op::AllocSpace { .. }, CaptureReply::Addr(a)) => Reply::Addr(Ok(a)),
            (Op::CallFunc { .. }, CaptureReply::Value(v)) => Reply::Value(Ok(v)),
            (Op::GetBytes { .. } | Op::PutBytes { .. }, reply) => {
                Reply::Done(Err(error_of(reply).unwrap_or_else(shape)))
            }
            (Op::AllocSpace { .. }, reply) => {
                Reply::Addr(Err(error_of(reply).unwrap_or_else(shape)))
            }
            (Op::CallFunc { .. }, reply) => {
                Reply::Value(Err(error_of(reply).unwrap_or_else(shape)))
            }
            (Op::GetVariable(_) | Op::GetVariableInFrame(..), CaptureReply::Var(v)) => {
                Reply::Var(v)
            }
            (Op::GetVariable(_) | Op::GetVariableInFrame(..), _) => Reply::Var(None),
            (Op::LookupTypedef(_), r) => Reply::Type(type_ref(r).map(TypeId::from_raw)),
            (Op::LookupStruct(_) | Op::LookupUnion(_), r) => {
                Reply::Record(type_ref(r).map(RecordId::from_raw))
            }
            (Op::LookupEnum(_), r) => Reply::Enum(type_ref(r).map(EnumId::from_raw)),
            (Op::HasFunction(_) | Op::IsMapped { .. }, r) => {
                Reply::Flag(matches!(r, CaptureReply::Flag(true)))
            }
            (Op::FrameCount, CaptureReply::Count(n)) => Reply::Count(n as usize),
            (Op::FrameCount, _) => Reply::Count(0),
            (Op::FrameInfo(_), CaptureReply::Frame(f)) => Reply::Frame(f),
            (Op::FrameInfo(_), _) => Reply::Frame(None),
            (Op::TakeOutput, CaptureReply::Output(s)) => Reply::Output(s),
            (Op::TakeOutput, _) => Reply::Output(String::new()),
        }
    }

    /// Fails the op with `e` without issuing it: every range of a
    /// vectored read gets `e`; ops that cannot fail answer "not found".
    pub fn fail(self, e: TargetError) -> Reply {
        self.fill(CaptureReply::Err(e))
    }
}

/// The detail of an op over `len` bytes at `addr`.
pub(crate) fn span_detail(addr: u64, len: u64) -> String {
    format!("0x{addr:x}+{len}")
}

/// The detail of a vectored read of ranges `lens` bytes long.
pub(crate) fn ranges_detail(lens: impl ExactSizeIterator<Item = u64>) -> String {
    let n = lens.len();
    format!("{n} ranges, {}b", lens.sum::<u64>())
}

fn error_of(reply: CaptureReply) -> Option<TargetError> {
    match reply {
        CaptureReply::Err(e) => Some(e),
        _ => None,
    }
}

fn type_ref(reply: CaptureReply) -> Option<u32> {
    match reply {
        CaptureReply::TypeRef(t) => t,
        _ => None,
    }
}

impl Reply {
    /// The errors this reply carries: the one of a failed scalar op, or
    /// one per failed range of a vectored read.
    #[inline]
    pub fn errors(&self) -> impl Iterator<Item = &TargetError> {
        let (one, many) = match self {
            Reply::Done(Err(e)) | Reply::Addr(Err(e)) | Reply::Value(Err(e)) => (Some(e), &[][..]),
            Reply::Multi(rs) => (None, &rs[..]),
            _ => (None, &[][..]),
        };
        one.into_iter()
            .chain(many.iter().filter_map(|r| r.as_ref().err()))
    }

    /// Visits every result the reply carries (one for a scalar op, one
    /// per range of a vectored read; none for ops that cannot fail):
    /// `f` sees `None` for a success and `Some(err)` for a failure, and
    /// a `Some(new)` return replaces the result with `Err(new)`.
    pub fn map_results(&mut self, mut f: impl FnMut(Option<&TargetError>) -> Option<TargetError>) {
        fn visit<R>(
            r: &mut TargetResult<R>,
            f: &mut impl FnMut(Option<&TargetError>) -> Option<TargetError>,
        ) {
            if let Some(e) = f(r.as_ref().err()) {
                *r = Err(e);
            }
        }
        match self {
            Reply::Done(r) => visit(r, &mut f),
            Reply::Addr(r) => visit(r, &mut f),
            Reply::Value(r) => visit(r, &mut f),
            Reply::Multi(rs) => rs.iter_mut().for_each(|r| visit(r, &mut f)),
            _ => {}
        }
    }

    /// How the call ended, for trace stats.
    pub fn outcome(&self) -> TraceOutcome {
        let found = match self {
            Reply::Var(v) => v.is_some(),
            Reply::Type(t) => t.is_some(),
            Reply::Record(r) => r.is_some(),
            Reply::Enum(e) => e.is_some(),
            Reply::Frame(f) => f.is_some(),
            Reply::Flag(b) => *b,
            _ => return TraceOutcome::of_errors(self.errors()),
        };
        if found {
            TraceOutcome::Ok
        } else {
            TraceOutcome::NotFound
        }
    }
}

/// Unwraps the reply variant a wire method expects; anything else is a
/// layer that answered an op with another op's reply.
macro_rules! expect {
    ($reply:expr, $variant:ident) => {
        match $reply {
            Reply::$variant(r) => r,
            other => unreachable!(
                "a layer answered a {} op with {other:?}",
                stringify!($variant)
            ),
        }
    };
}

/// A decorator over the next target of a tower.
///
/// A layer sees every wire op through one hook, [`Layer::call`], and
/// answers the plumbing methods (handles, span context, pipeline,
/// prefetch) by forwarding to [`Layer::next`] unless it overrides
/// them. The read seam ([`Layer::read_submit`], [`Layer::read_poll`])
/// is the exception: it answers `None` unless a layer opts in. Every
/// `Layer` is a [`Target`] through a blanket impl, so a new decorator
/// writes only what it changes:
///
/// ```
/// use duel_target::{scenario, Layer, Op, Reply, Target};
///
/// struct Counting<T> {
///     inner: T,
///     calls: u64,
/// }
///
/// impl<T: Target> Layer for Counting<T> {
///     type Next = T;
///     fn next(&self) -> &T {
///         &self.inner
///     }
///     fn next_mut(&mut self) -> &mut T {
///         &mut self.inner
///     }
///     fn call(&mut self, op: Op<'_, '_>) -> Reply {
///         self.calls += 1;
///         op.apply(&mut self.inner)
///     }
/// }
///
/// let mut t = Counting { inner: scenario::scan_array(), calls: 0 };
/// let x = t.get_variable("x").unwrap();
/// let mut buf = [0u8; 4];
/// t.get_bytes(x.addr + 12, &mut buf).unwrap();
/// assert_eq!((i32::from_le_bytes(buf), t.calls), (7, 2));
/// ```
///
/// Import `Layer` only where a layer is implemented: its plumbing
/// methods share their names with [`Target`]'s, so calling them on a
/// concrete layer is ambiguous while both traits are in scope.
pub trait Layer {
    /// The target this layer decorates.
    type Next: Target + ?Sized;

    /// The next target down the tower.
    fn next(&self) -> &Self::Next;

    /// Mutable access to the next target down the tower.
    fn next_mut(&mut self) -> &mut Self::Next;

    /// Handles one wire op. The default forwards it untouched.
    #[inline]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        op.apply(self.next_mut())
    }

    /// See [`Target::abi`].
    fn abi(&self) -> &Abi {
        self.next().abi()
    }

    /// See [`Target::types`].
    fn types(&self) -> &TypeTable {
        self.next().types()
    }

    /// See [`Target::types_mut`].
    fn types_mut(&mut self) -> &mut TypeTable {
        self.next_mut().types_mut()
    }

    /// See [`Target::trace_handle`].
    fn trace_handle(&self) -> Option<TraceHandle> {
        self.next().trace_handle()
    }

    /// See [`Target::set_span_context`].
    fn set_span_context(&mut self, spans: &SpanContext) {
        self.next_mut().set_span_context(spans)
    }

    /// See [`Target::span_context`].
    fn span_context(&self) -> Option<SpanContext> {
        self.next().span_context()
    }

    /// See [`Target::staleness_handle`].
    fn staleness_handle(&self) -> Option<StalenessHandle> {
        self.next().staleness_handle()
    }

    /// See [`Target::read_submit`]. Opt-in: the default answers `None`
    /// (no I/O actor below), so a read cannot slip past a layer that
    /// must see every wire op. Only the layers between the page cache
    /// and the actor forward it.
    fn read_submit(&mut self, _ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        None
    }

    /// See [`Target::read_poll`]; opt-in like [`Layer::read_submit`].
    fn read_poll(
        &mut self,
        _ticket: PipelineTicket,
    ) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        None
    }

    /// See [`Target::prefetch_submit`].
    fn prefetch_submit(&mut self, ranges: &[(u64, u64)]) -> bool {
        self.next_mut().prefetch_submit(ranges)
    }

    /// See [`Target::prefetch_poll`].
    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        self.next_mut().prefetch_poll()
    }

    /// See [`Target::cache_page_size`].
    fn cache_page_size(&self) -> Option<u64> {
        self.next().cache_page_size()
    }

    /// See [`Target::pipeline_handle`].
    fn pipeline_handle(&self) -> Option<PipelineHandle> {
        self.next().pipeline_handle()
    }
}

impl<L: Layer> Target for L {
    fn abi(&self) -> &Abi {
        Layer::abi(self)
    }

    fn types(&self) -> &TypeTable {
        Layer::types(self)
    }

    fn types_mut(&mut self) -> &mut TypeTable {
        Layer::types_mut(self)
    }

    #[inline]
    fn get_bytes(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        expect!(self.call(Op::GetBytes { addr, buf }), Done)
    }

    #[inline]
    fn get_bytes_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        expect!(self.call(Op::GetBytesMulti(ranges)), Multi)
    }

    #[inline]
    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        expect!(self.call(Op::PutBytes { addr, bytes }), Done)
    }

    #[inline]
    fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64> {
        expect!(self.call(Op::AllocSpace { size, align }), Addr)
    }

    #[inline]
    fn call_func(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue> {
        expect!(self.call(Op::CallFunc { name, args }), Value)
    }

    #[inline]
    fn get_variable(&mut self, name: &str) -> Option<VarInfo> {
        expect!(self.call(Op::GetVariable(name)), Var)
    }

    #[inline]
    fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<VarInfo> {
        expect!(self.call(Op::GetVariableInFrame(name, frame)), Var)
    }

    #[inline]
    fn lookup_typedef(&mut self, name: &str) -> Option<TypeId> {
        expect!(self.call(Op::LookupTypedef(name)), Type)
    }

    #[inline]
    fn lookup_struct(&mut self, tag: &str) -> Option<RecordId> {
        expect!(self.call(Op::LookupStruct(tag)), Record)
    }

    #[inline]
    fn lookup_union(&mut self, tag: &str) -> Option<RecordId> {
        expect!(self.call(Op::LookupUnion(tag)), Record)
    }

    #[inline]
    fn lookup_enum(&mut self, tag: &str) -> Option<EnumId> {
        expect!(self.call(Op::LookupEnum(tag)), Enum)
    }

    #[inline]
    fn has_function(&mut self, name: &str) -> bool {
        expect!(self.call(Op::HasFunction(name)), Flag)
    }

    #[inline]
    fn frame_count(&mut self) -> usize {
        expect!(self.call(Op::FrameCount), Count)
    }

    #[inline]
    fn frame_info(&mut self, n: usize) -> Option<FrameInfo> {
        expect!(self.call(Op::FrameInfo(n)), Frame)
    }

    #[inline]
    fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
        expect!(self.call(Op::IsMapped { addr, len }), Flag)
    }

    #[inline]
    fn take_output(&mut self) -> String {
        expect!(self.call(Op::TakeOutput), Output)
    }

    fn trace_handle(&self) -> Option<TraceHandle> {
        Layer::trace_handle(self)
    }

    fn set_span_context(&mut self, spans: &SpanContext) {
        Layer::set_span_context(self, spans)
    }

    fn span_context(&self) -> Option<SpanContext> {
        Layer::span_context(self)
    }

    fn staleness_handle(&self) -> Option<StalenessHandle> {
        Layer::staleness_handle(self)
    }

    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        Layer::read_submit(self, ranges)
    }

    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        Layer::read_poll(self, ticket)
    }

    fn prefetch_submit(&mut self, ranges: &[(u64, u64)]) -> bool {
        Layer::prefetch_submit(self, ranges)
    }

    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        Layer::prefetch_poll(self)
    }

    fn cache_page_size(&self) -> Option<u64> {
        Layer::cache_page_size(self)
    }

    fn pipeline_handle(&self) -> Option<PipelineHandle> {
        Layer::pipeline_handle(self)
    }
}
