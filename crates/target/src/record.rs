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
use crate::iface::{OwnedRange, PipelineTicket, Target};
use crate::op::{Op, Reply};
use crate::trace::{TraceOp, TRACE_OPS};

/// Events between forced flushes of the capture stream.
pub const FLUSH_EVERY: u64 = 256;

struct Recorder {
    sink: BufWriter<Box<dyn Write + Send>>,
    events: u64,
    op_counts: Vec<(TraceOp, u64)>,
}

/// A [`Target`] decorator that records every call to a capture sink.
pub struct RecordTarget<T: Target> {
    inner: T,
    recorder: Option<Recorder>,
    last_error: Option<String>,
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

    /// Writes one event line to the sink. A sink error stops the
    /// recording.
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

    /// Refused while recording: a strict replay reads each window when
    /// the scan reaches it, so a recorded session reads it there too,
    /// and the capture holds the wire in the order it happened.
    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        if self.recorder.is_some() {
            return None;
        }
        self.inner.read_submit(ranges)
    }

    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        self.inner.read_poll(ticket)
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
        self.write_event(op.to_call(), op.to_reply(&reply), ns);
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
