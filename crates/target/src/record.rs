//! The flight recorder: a [`Target`] decorator that streams every
//! interface call to a capture file.
//!
//! `RecordTarget` is designed to live permanently in a decorator tower
//! (the CLI keeps one under the cache layer at all times): while no
//! sink is attached every call forwards with zero bookkeeping, and
//! [`RecordTarget::start`] arms it mid-session. It sits *innermost* —
//! below the cache — so the capture holds the calls that actually
//! reached the backend; cache hits never hollow out a capture.
//!
//! Output is streamed through a fixed-size [`BufWriter`] and flushed
//! every [`FLUSH_EVERY`] events, so memory use is bounded no matter how
//! long the session runs and at most a handful of events are lost on a
//! crash. A sink write error stops the recording (and is reported via
//! [`RecordTarget::last_error`]) rather than failing the session: the
//! debugger must keep working even when the disk does not.

use std::io::{BufWriter, Write};
use std::time::Instant;

use crate::capture::{footer_to_json, header_to_json, CaptureCall, CaptureEvent, CaptureReply};
use crate::error::TargetResult;
use crate::iface::{OwnedRange, PipelineTicket, ReadRange, Target};
use crate::op::{Op, Reply};
use crate::trace::{TraceOp, TRACE_OPS};

/// Events between forced flushes of the capture stream.
pub const FLUSH_EVERY: u64 = 256;

struct Recorder {
    sink: BufWriter<Box<dyn Write + Send>>,
    events: u64,
    op_counts: Vec<(TraceOp, u64)>,
}

/// A deferred capture event: either complete and waiting behind an
/// in-flight read, or the placeholder for that read itself.
enum Deferred {
    /// An event whose bytes are known, queued behind an earlier hole.
    Ready(CaptureCall, CaptureReply, u64),
    /// A pipelined read submitted but not yet polled. Filled in (and
    /// the queue flushed) when its ticket completes.
    Hole(PipelineTicket),
}

/// A [`Target`] decorator that records every call to a capture sink.
pub struct RecordTarget<T: Target> {
    inner: T,
    recorder: Option<Recorder>,
    last_error: Option<String>,
    /// Submit instants of in-flight pipeline reads (FIFO — tickets
    /// complete in submission order).
    inflight: std::collections::VecDeque<(PipelineTicket, Instant)>,
    /// Events held back so pipelined reads land in the capture at
    /// their *submission* position, not their poll position. A strict
    /// replay drives the same session against a synchronous backend,
    /// where each window read happens at submit time; recording it
    /// there keeps the two op streams identical. While a hole is
    /// outstanding, every later event queues behind it; completing the
    /// hole flushes the ready prefix. Bounded by the pipeline depth
    /// (double buffering: one window).
    deferred: std::collections::VecDeque<Deferred>,
}

impl<T: Target> std::fmt::Debug for RecordTarget<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordTarget")
            .field("recording", &self.is_recording())
            .field("events", &self.events_recorded())
            .finish()
    }
}

impl<T: Target> RecordTarget<T> {
    /// Wraps `inner` with recording off (pure passthrough).
    pub fn new(inner: T) -> RecordTarget<T> {
        RecordTarget {
            inner,
            recorder: None,
            last_error: None,
            inflight: std::collections::VecDeque::new(),
            deferred: std::collections::VecDeque::new(),
        }
    }

    /// Starts recording to `sink`, writing the capture header from the
    /// inner target's current ABI and type table. Any recording already
    /// in progress is finalized first.
    pub fn start(
        &mut self,
        sink: Box<dyn Write + Send>,
        backend: &str,
        scenario: &str,
    ) -> std::io::Result<()> {
        self.stop()?;
        let mut sink = BufWriter::new(sink);
        let snap = self.inner.types().snapshot();
        writeln!(
            sink,
            "{}",
            header_to_json(backend, scenario, self.inner.abi(), &snap)
        )?;
        self.recorder = Some(Recorder {
            sink,
            events: 0,
            op_counts: TRACE_OPS.iter().map(|&op| (op, 0)).collect(),
        });
        self.last_error = None;
        Ok(())
    }

    /// Starts recording to a file at `path`.
    pub fn start_file(&mut self, path: &str, backend: &str, scenario: &str) -> std::io::Result<()> {
        let f = std::fs::File::create(path)?;
        self.start(Box::new(f), backend, scenario)
    }

    /// Finalizes the capture: writes the footer (per-op metrics + the
    /// authoritative final type snapshot) and flushes. Returns the
    /// number of events recorded, or 0 if recording was off.
    pub fn stop(&mut self) -> std::io::Result<u64> {
        // Write out anything still queued. Abandoned holes (a read
        // submitted but never polled — sessions drain theirs, so this
        // is defensive) are dropped: the capture then contains neither
        // the submit nor the bytes, exactly as if the read never
        // happened.
        let pending = std::mem::take(&mut self.deferred);
        for ev in pending {
            if let Deferred::Ready(call, reply, ns) = ev {
                self.write_event(call, reply, ns);
            }
        }
        let Some(mut rec) = self.recorder.take() else {
            return Ok(0);
        };
        let snap = self.inner.types().snapshot();
        writeln!(
            rec.sink,
            "{}",
            footer_to_json(&rec.op_counts, rec.events, &snap)
        )?;
        rec.sink.flush()?;
        Ok(rec.events)
    }

    /// Whether a sink is currently attached.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Events written to the current recording (0 when off).
    pub fn events_recorded(&self) -> u64 {
        self.recorder.as_ref().map_or(0, |r| r.events)
    }

    /// The sink error that stopped the last recording, if any.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// The wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped target.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Counts one event of `kind` toward the footer's per-op totals.
    fn count(&mut self, kind: TraceOp) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.op_counts[kind.index()].1 += 1;
        }
    }

    /// Writes one event, or queues it behind an outstanding hole: an
    /// event that happened after an in-flight read was submitted must
    /// land after that read in the capture too.
    fn queue(&mut self, call: CaptureCall, reply: CaptureReply, ns: u64) {
        if self.deferred.is_empty() {
            self.write_event(call, reply, ns);
        } else {
            self.deferred.push_back(Deferred::Ready(call, reply, ns));
        }
    }

    /// Writes one event line to the sink (unconditionally past the
    /// deferral queue). A sink error stops the recording and drops
    /// anything still deferred.
    fn write_event(&mut self, call: CaptureCall, reply: CaptureReply, ns: u64) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let ev = CaptureEvent {
            seq: rec.events,
            call,
            reply,
            ns,
        };
        let line_ok = writeln!(rec.sink, "{}", ev.to_json_line());
        rec.events += 1;
        let flush_ok = if rec.events % FLUSH_EVERY == 0 {
            rec.sink.flush()
        } else {
            Ok(())
        };
        if let Err(e) = line_ok.and(flush_ok) {
            self.last_error = Some(format!("capture sink error, recording stopped: {e}"));
            self.recorder = None;
            self.deferred.clear();
        }
    }

    /// Writes the ready prefix of the deferral queue: everything up to
    /// the next still-open hole.
    fn flush_deferred(&mut self) {
        while matches!(self.deferred.front(), Some(Deferred::Ready(..))) {
            let Some(Deferred::Ready(call, reply, ns)) = self.deferred.pop_front() else {
                unreachable!()
            };
            self.write_event(call, reply, ns);
        }
    }
}

impl<T: Target> crate::op::Layer for RecordTarget<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.inner
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Forwards with zero bookkeeping while no sink is attached.
    #[inline(always)]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        if self.recorder.is_none() {
            return op.apply(&mut self.inner);
        }
        self.recorded(op)
    }

    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        let ticket = self.inner.read_submit(ranges)?;
        if self.recorder.is_some() {
            // Reserve the event's place *now*: a strict replay runs
            // against a synchronous backend that performs this read at
            // submit time, so the capture must order it here. The
            // bytes arrive at poll time and fill the hole.
            self.inflight.push_back((ticket, Instant::now()));
            self.deferred.push_back(Deferred::Hole(ticket));
        }
        Some(ticket)
    }

    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        let mut done = self.inner.read_poll(ticket)?;
        let start = match self.inflight.front() {
            Some(&(t, at)) if t == ticket => {
                self.inflight.pop_front();
                Some(at)
            }
            _ => None,
        };
        if self.recorder.is_some() {
            // The completed read is the vectored read a synchronous
            // backend would have served at submit time.
            let results = Reply::Multi(done.iter().map(|(_, r)| r.clone()).collect());
            let mut views: Vec<ReadRange<'_>> = done
                .iter_mut()
                .map(|(o, _)| ReadRange::new(o.addr, &mut o.buf))
                .collect();
            let op = Op::GetBytesMulti(&mut views);
            let (call, reply) = (op.to_call(), op.to_reply(&results));
            let ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            self.count(TraceOp::MultiRead);
            let hole = self
                .deferred
                .iter_mut()
                .find(|d| matches!(d, Deferred::Hole(t) if *t == ticket));
            match hole {
                Some(slot) => *slot = Deferred::Ready(call, reply, ns),
                // Submitted before recording was armed: no reserved
                // slot, so it lands here in poll order.
                None => self.queue(call, reply, ns),
            }
            self.flush_deferred();
        }
        Some(done)
    }
}

impl<T: Target> RecordTarget<T> {
    /// The recording path of [`crate::Layer::call`]: times the call and
    /// captures it with its full reply.
    #[inline(never)]
    fn recorded(&mut self, mut op: Op<'_, '_>) -> Reply {
        let start = Instant::now();
        let reply = op.reborrow().apply(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(kind) = op.trace_op() {
            self.count(kind);
        }
        self.queue(op.to_call(), op.to_reply(&reply), ns);
        reply
    }
}

impl<T: Target> Drop for RecordTarget<T> {
    fn drop(&mut self) {
        // Finalize an in-flight recording so the file has its footer
        // even when the session exits without `.record stop`.
        let _ = self.stop();
    }
}
