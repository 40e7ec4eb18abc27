//! Spans around the harness's calls into each layer's public API.
//!
//! The harness is one thread and `StripedRuntime::run_tasks` blocks, so
//! its calls split the loop into disjoint intervals: a span per call,
//! each the child of the loop round that made it, covers exactly the
//! time that layer held the harness. Spans stay in memory and are
//! written out when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// An outside call the harness makes, named after the function called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Call {
    /// One turn of the harness loop (the parent of every other span).
    Round,
    /// `ClientSim::poll`.
    ClientPoll,
    /// `ClientSim::deliver`.
    ClientDeliver,
    /// `ChannelConn::send`.
    Send,
    /// `ChannelHub::poll_request`.
    PollRequest,
    /// `ChannelHub::respond`.
    Respond,
    /// `ChannelConn::try_recv`.
    Recv,
    /// `ServerCore::submit`.
    Submit,
    /// `ServerCore::ack`.
    Ack,
    /// `ServerCore::drain_tasks`.
    Drain,
    /// `StripedRuntime::run_tasks`.
    RunTasks,
    /// `ServerCore::answers_for`.
    Answers,
    /// Recovery step 1: `StripedRuntime::reopen_all_with`.
    Reopen,
    /// Recovery step 2: store, request-table and runtime `open`.
    Attach,
    /// Recovery step 3: `StripedRuntime::recover(Parallel)`.
    Replay,
    /// Recovery step 4: `ServerCore::new`.
    Front,
}

impl Call {
    /// Every call, in discriminant order.
    pub const ALL: [Call; 16] = [
        Call::Round,
        Call::ClientPoll,
        Call::ClientDeliver,
        Call::Send,
        Call::PollRequest,
        Call::Respond,
        Call::Recv,
        Call::Submit,
        Call::Ack,
        Call::Drain,
        Call::RunTasks,
        Call::Answers,
        Call::Reopen,
        Call::Attach,
        Call::Replay,
        Call::Front,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Call::Round => "harness.round",
            Call::ClientPoll => "client.poll",
            Call::ClientDeliver => "client.deliver",
            Call::Send => "transport.send",
            Call::PollRequest => "transport.poll_request",
            Call::Respond => "transport.respond",
            Call::Recv => "transport.try_recv",
            Call::Submit => "server.submit",
            Call::Ack => "server.ack",
            Call::Drain => "server.drain_tasks",
            Call::RunTasks => "runtime.run_tasks",
            Call::Answers => "server.answers_for",
            Call::Reopen => "recovery.reopen",
            Call::Attach => "recovery.attach",
            Call::Replay => "recovery.replay",
            Call::Front => "recovery.front",
        }
    }
}

/// One recorded span; times are nanoseconds since the tracer's base.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call.
    pub call: Call,
    /// Index of the parent span (`u32::MAX` for a root).
    pub parent: u32,
    /// Start, ns since base.
    pub start: u64,
    /// End, ns since base.
    pub end: u64,
    /// The request the call carried, or 0.
    pub req_id: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// Records spans when on; a disabled tracer only runs the calls.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    recording: bool,
    round: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or passes calls straight through.
    pub fn new(on: bool) -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            recording: on,
            round: NO_PARENT,
        }
    }

    /// `true` while recording.
    pub fn is_on(&self) -> bool {
        self.recording
    }

    /// Starts or stops recording; spans already recorded are kept.
    pub fn set_on(&mut self, on: bool) {
        self.recording = on;
        self.round = NO_PARENT;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Runs `f` as one call, recording its span under the current
    /// round when on.
    #[inline]
    pub fn call<R>(&mut self, call: Call, req_id: u64, f: impl FnOnce() -> R) -> R {
        if !self.recording {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(call, start, end, req_id);
        out
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(&mut self, call: Call, start: Instant, end: Instant, req_id: u64) {
        if !self.recording {
            return;
        }
        self.spans.push(Span {
            call,
            parent: self.round,
            start: self.ns(start),
            end: self.ns(end),
            req_id,
        });
    }

    /// Opens a loop round; the calls until [`Tracer::end_round`] are its
    /// children.
    pub fn begin_round(&mut self) {
        if !self.recording {
            return;
        }
        let start = self.ns(Instant::now());
        self.round = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            call: Call::Round,
            parent: NO_PARENT,
            start,
            end: start,
            req_id: 0,
        });
    }

    /// Closes the open round.
    pub fn end_round(&mut self) {
        if !self.recording || self.round == NO_PARENT {
            return;
        }
        self.spans[self.round as usize].end = self.ns(Instant::now());
        self.round = NO_PARENT;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV: `name,parent,start_ns,end_ns,req_id`
    /// (`parent` is a row index, -1 for a root).
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing `path`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,parent,start_ns,end_ns,req_id")?;
        for s in self.spans() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{},{},{},{},{}",
                s.call.name(),
                parent,
                s.start,
                s.end,
                s.req_id
            )?;
        }
        out.flush()
    }
}

/// Self time per call over a set of spans: each span's duration minus
/// the part its children cover. Indexed like [`Call::ALL`].
pub fn self_times(spans: &[Span]) -> [u64; Call::ALL.len()] {
    let mut total = [0i128; Call::ALL.len()];
    for s in spans {
        let d = i128::from(s.end - s.start);
        total[s.call as usize] += d;
        if s.parent != NO_PARENT {
            total[spans[s.parent as usize].call as usize] -= d;
        }
    }
    total.map(|t| u64::try_from(t).expect("children lie inside their round"))
}
