//! Load generation: the closed loop (callers that wait for replies,
//! `AriaClient::pipeline`) and the open loop (independent users with
//! Poisson arrivals, speaking `aria_net::proto` after `HELLO`), plus the
//! SLO rate ladder built on the open loop.
//!
//! Every reply is checked against the [`Model`]; a wrong or stale read
//! is recorded in the [`Tally`] and fails the run. Typed refusals and
//! timeouts count as failed, never as wrong.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use aria_net::proto::{self, Decoded, ErrorCode, Request, Response, TraceContext};
use aria_net::{AriaClient, ClientConfig};
use aria_telemetry::{clock_nanos, Span};

use crate::report::windowed;
use crate::workload::{key, Model, Op, OpGen, Spec, THREADS};

/// Outcomes of one phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations sent (or due to be sent).
    pub attempted: u64,
    /// Operations answered correctly.
    pub ok: u64,
    /// Refused, failed or timed-out operations.
    pub failed: u64,
    /// Wrong or stale reads (any fails the run).
    pub wrong: u64,
    /// The first few wrong reads, for the report.
    pub first_wrong: Vec<String>,
    /// Reads answered.
    pub gets: u64,
    /// Writes answered.
    pub puts: u64,
}

impl Tally {
    /// Fold another tally in.
    pub fn absorb(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.gets += o.gets;
        self.puts += o.puts;
        for w in &o.first_wrong {
            if self.first_wrong.len() < 8 {
                self.first_wrong.push(w.clone());
            }
        }
    }

    fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.first_wrong.len() < 8 {
            self.first_wrong.push(what);
        }
    }
}

/// A request waiting for its reply: what to check it against.
#[derive(Debug, Clone, Copy)]
struct Sent {
    op: Op,
    /// Read floor (GET) or version written (PUT).
    version: u64,
}

fn build(model: &Model, op: Op) -> (Request, Sent) {
    match op {
        Op::Get(id) => {
            let floor = model.read_floor(id);
            (Request::Get { key: key(id) }, Sent { op, version: floor })
        }
        Op::Put(id) => {
            let (version, value) = model.begin_put(id);
            (Request::Put { key: key(id), value }, Sent { op, version })
        }
    }
}

/// Whether an error code is a typed refusal: the server declined the op
/// before executing it, and the caller may retry. Integrity, data and
/// store errors are not refusals; they fail the run like a wrong read.
fn is_refusal(code: ErrorCode) -> bool {
    matches!(
        code,
        ErrorCode::Overloaded
            | ErrorCode::DeadlineExceeded
            | ErrorCode::WrongShard
            | ErrorCode::ShuttingDown
            | ErrorCode::TooManyConnections
    )
}

/// Check one reply; returns whether it was a served GET (`Some(true)`),
/// a served PUT (`Some(false)`), or a refusal or wrong reply (`None`).
fn settle(model: &Model, tally: &mut Tally, sent: Sent, resp: &Response) -> Option<bool> {
    match (sent.op, resp) {
        (Op::Get(id), Response::Value(v)) => match model.check_read(id, sent.version, v.as_deref())
        {
            Ok(()) => {
                tally.ok += 1;
                tally.gets += 1;
                Some(true)
            }
            Err(w) => {
                tally.wrong(w.to_string());
                None
            }
        },
        (Op::Put(id), Response::PutOk) => {
            model.ack_put(id, sent.version);
            tally.ok += 1;
            tally.puts += 1;
            Some(false)
        }
        (_, Response::WrongShard { .. }) => {
            tally.failed += 1;
            None
        }
        (_, Response::Error { code, .. }) if is_refusal(*code) => {
            tally.failed += 1;
            None
        }
        (op, other) => {
            tally.wrong(format!("{op:?}: unexpected reply {other:?}"));
            None
        }
    }
}

/// Result of a closed-loop phase.
#[derive(Debug, Default)]
pub struct Closed {
    /// Outcomes.
    pub tally: Tally,
    /// Spans drained from the server (traced phases only).
    pub spans: Vec<Span>,
    /// Phase wall time.
    pub wall: Duration,
}

/// Run `THREADS` closed-loop clients at the workload's depth for
/// `secs`. With `trace_sample > 0` the clients stamp one request in
/// `trace_sample` and client 0 drains the server's spans over its own
/// connection.
pub fn closed_loop(
    addr: SocketAddr,
    spec: &Spec,
    model: &Model,
    seed: u64,
    lane: u64,
    secs: f64,
    trace_sample: u32,
) -> Closed {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let outs: Vec<Closed> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    closed_client(addr, spec, model, seed, lane, t, deadline, trace_sample)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    });
    let mut out = Closed { wall: start.elapsed(), ..Closed::default() };
    for o in outs {
        out.tally.absorb(&o.tally);
        out.spans.extend(o.spans);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn closed_client(
    addr: SocketAddr,
    spec: &Spec,
    model: &Model,
    seed: u64,
    lane: u64,
    thread: usize,
    deadline: Instant,
    trace_sample: u32,
) -> Closed {
    let mut out = Closed::default();
    poll::raise_priority();
    let config = ClientConfig { trace_sample, ..ClientConfig::default() };
    let mut client = match AriaClient::connect(addr, config) {
        Ok(c) => c,
        Err(e) => {
            out.tally.attempted += 1;
            out.tally.failed += 1;
            eprintln!("closed loop: connect failed: {e}");
            return out;
        }
    };
    let mut gen = OpGen::new(spec, seed, thread, lane);
    let drain = trace_sample > 0 && thread == 0;
    let mut cursors: Vec<u64> = Vec::new();
    let mut last_drain = Instant::now();
    let mut reqs = Vec::with_capacity(spec.depth);
    let mut sent = Vec::with_capacity(spec.depth);
    while Instant::now() < deadline {
        reqs.clear();
        sent.clear();
        for _ in 0..spec.depth {
            let (req, s) = build(model, gen.next_op());
            reqs.push(req);
            sent.push(s);
        }
        out.tally.attempted += reqs.len() as u64;
        match client.pipeline(&reqs) {
            Ok(resps) => {
                for (s, r) in sent.iter().zip(&resps) {
                    settle(model, &mut out.tally, *s, r);
                }
                out.tally.failed += sent.len().saturating_sub(resps.len()) as u64;
            }
            Err(_) => out.tally.failed += reqs.len() as u64,
        }
        if drain && last_drain.elapsed() >= DRAIN_EVERY {
            last_drain = Instant::now();
            if let Ok((spans, next)) = client.trace_spans(&cursors) {
                out.spans.extend(spans);
                cursors = next;
            }
        }
    }
    if drain {
        if let Ok((spans, _)) = client.trace_spans(&cursors) {
            out.spans.extend(spans);
        }
    }
    out
}

/// How often a tracing client drains the server's span rings (the rings
/// hold 256 spans per shard).
const DRAIN_EVERY: Duration = Duration::from_millis(20);

/// Open-loop settings.
#[derive(Debug, Clone, Copy)]
pub struct OpenCfg {
    /// Arrival rate across both connections, ops/s.
    pub rate: f64,
    /// How long arrivals are scheduled for.
    pub secs: f64,
    /// Stamp every n-th request of each user with a trace context the
    /// generator chooses (0 = none); user 0 drains the spans.
    pub sample_every: u64,
}

/// Result of an open-loop phase.
#[derive(Debug, Default)]
pub struct Open {
    /// Outcomes (timeouts count as failed).
    pub tally: Tally,
    /// GETs: (due time in seconds from the phase start, latency from
    /// the due time in microseconds).
    pub get_us: Vec<(f64, f64)>,
    /// PUTs, as `get_us`.
    pub put_us: Vec<(f64, f64)>,
    /// How late each request was sent, microseconds.
    pub late_us: Vec<f64>,
    /// Requests still unanswered when arrivals stopped.
    pub backlog: Vec<u64>,
    /// Round trips of traced requests: (trace id, send, receive), both
    /// on `aria_telemetry::clock_nanos`.
    pub traced: Vec<(u64, u64, u64)>,
    /// Spans drained from the server.
    pub spans: Vec<Span>,
}

impl Open {
    fn absorb(&mut self, o: Open) {
        self.tally.absorb(&o.tally);
        self.get_us.extend(o.get_us);
        self.put_us.extend(o.put_us);
        self.late_us.extend(o.late_us);
        if self.backlog.is_empty() {
            self.backlog = o.backlog;
        } else {
            for (a, b) in self.backlog.iter_mut().zip(o.backlog) {
                *a += b;
            }
        }
        self.traced.extend(o.traced);
        self.spans.extend(o.spans);
    }

    /// The [`TAIL_Q`] latency over every request of a `secs`-long
    /// phase: the median of the per-window values over `windows`
    /// sub-windows.
    pub fn tail_us(&self, secs: f64, windows: usize) -> Option<(f64, usize)> {
        let all: Vec<(f64, f64)> = self.get_us.iter().chain(&self.put_us).copied().collect();
        windowed(&all, secs, windows, TAIL_Q)
    }
}

/// How long an open loop waits for its last replies once arrivals
/// stop; a request still unanswered then counts as failed. Long enough
/// that an overloaded ladder step drains rather than fails.
pub const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Latency of a request measured from when it was due, so a stalled
/// generator or server charges the wait to every request behind it.
pub fn from_schedule(due: Instant, received: Instant) -> Duration {
    received.saturating_duration_since(due)
}

/// Run `THREADS` independent users for `cfg.secs`, each on its own
/// connection with its own Poisson arrival stream.
pub fn open_loop(
    addr: SocketAddr,
    spec: &Spec,
    model: &Model,
    seed: u64,
    lane: u64,
    cfg: OpenCfg,
) -> Open {
    let outs: Vec<Open> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| scope.spawn(move || open_user(addr, spec, model, seed, lane, t, cfg)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("open-loop user panicked")).collect()
    });
    let mut out = Open::default();
    for o in outs {
        out.absorb(o);
    }
    out
}

struct Pending {
    sent: Sent,
    due: Instant,
    trace_id: u64,
    send_ns: u64,
}

fn open_user(
    addr: SocketAddr,
    spec: &Spec,
    model: &Model,
    seed: u64,
    lane: u64,
    thread: usize,
    cfg: OpenCfg,
) -> Open {
    let mut out = Open::default();
    let (mut stream, version) = match handshake(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("open loop: connect failed: {e}");
            out.tally.attempted += 1;
            out.tally.failed += 1;
            return out;
        }
    };
    poll::tighten_timer_slack();
    poll::raise_priority();
    let mut gen = OpGen::new(spec, seed, thread, lane);
    let rate = cfg.rate / THREADS as f64;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(cfg.secs);
    let give_up = end + DRAIN_GRACE;
    let gap = |gen: &mut OpGen| Duration::from_secs_f64(gen.rng().exp_gap_secs(rate));
    let mut next_due = start + gap(&mut gen);
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut next_id = 1u64;
    let mut seq = 0u64;
    let drain = cfg.sample_every > 0 && thread == 0;
    let mut cursors: Vec<u64> = Vec::new();
    let mut trace_req: Option<u64> = None;
    let mut last_drain = start;
    let mut wbuf = Vec::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut backlog = Vec::with_capacity(BACKLOG_MARKS);
    let mark_every = Duration::from_secs_f64(cfg.secs / BACKLOG_MARKS as f64);
    let mut batch: Vec<u64> = Vec::new();
    loop {
        let now = Instant::now();
        wbuf.clear();
        batch.clear();
        while next_due <= now && next_due < end {
            let (req, sent) = build(model, gen.next_op());
            seq += 1;
            let trace = if cfg.sample_every > 0 && seq.is_multiple_of(cfg.sample_every) {
                TraceContext { id: ((thread as u64 + 1) << 48) | seq, sampled: true }
            } else {
                TraceContext::NONE
            };
            proto::encode_request_traced(&mut wbuf, next_id, &req, 0, trace, version)
                .expect("benchmark requests fit a frame");
            out.late_us.push(now.saturating_duration_since(next_due).as_secs_f64() * 1e6);
            pending
                .insert(next_id, Pending { sent, due: next_due, trace_id: trace.id, send_ns: 0 });
            batch.push(next_id);
            next_id += 1;
            out.tally.attempted += 1;
            next_due += gap(&mut gen);
        }
        if drain && trace_req.is_none() && now.duration_since(last_drain) >= DRAIN_EVERY {
            last_drain = now;
            let req = Request::Trace { mode: 0, cursors: cursors.clone() };
            proto::encode_request_versioned(&mut wbuf, next_id, &req, 0, version)
                .expect("trace request fits a frame");
            trace_req = Some(next_id);
            next_id += 1;
        }
        if !wbuf.is_empty() {
            let send_ns = clock_nanos();
            for id in &batch {
                if let Some(p) = pending.get_mut(id) {
                    p.send_ns = send_ns;
                }
            }
            if stream.write_all(&wbuf).is_err() {
                break;
            }
        }
        while backlog.len() < BACKLOG_MARKS
            && now >= start + mark_every * (backlog.len() as u32 + 1)
        {
            backlog.push(pending.len() as u64);
        }
        if now >= end && ((pending.is_empty() && trace_req.is_none()) || now >= give_up) {
            break;
        }
        let wait = if next_due < end {
            next_due.saturating_duration_since(now)
        } else {
            give_up.saturating_duration_since(now).min(Duration::from_millis(5))
        };
        if !poll::readable(&stream, wait) {
            continue;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let received = Instant::now();
        let recv_ns = clock_nanos();
        rbuf.extend_from_slice(&chunk[..n]);
        let mut off = 0;
        while let Ok(Decoded::Frame(used, id, resp)) =
            proto::decode_response_versioned(&rbuf[off..], version)
        {
            off += used;
            if Some(id) == trace_req {
                trace_req = None;
                if let Response::Trace(bytes) = &resp {
                    if let Ok((spans, next)) = aria_telemetry::decode_spans(bytes) {
                        out.spans.extend(spans);
                        cursors = next;
                    }
                }
                continue;
            }
            let Some(p) = pending.remove(&id) else {
                out.tally.wrong(format!("reply to unknown request id {id}"));
                continue;
            };
            let at = p.due.duration_since(start).as_secs_f64();
            let us = from_schedule(p.due, received).as_secs_f64() * 1e6;
            match settle(model, &mut out.tally, p.sent, &resp) {
                Some(true) => out.get_us.push((at, us)),
                Some(false) => out.put_us.push((at, us)),
                None => {}
            }
            if p.trace_id != 0 {
                out.traced.push((p.trace_id, p.send_ns, recv_ns));
            }
        }
        rbuf.drain(..off);
    }
    // Unanswered at the end: timed out.
    out.tally.failed += pending.len() as u64;
    backlog.resize(BACKLOG_MARKS, pending.len() as u64);
    out.backlog = backlog;
    out
}

/// Dial, negotiate the protocol version with `HELLO`, and return the
/// blocking stream with the version to speak.
fn handshake(addr: SocketAddr) -> std::io::Result<(TcpStream, u16)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut out = Vec::new();
    let hello = Request::Hello { version: proto::PROTOCOL_VERSION, features: 0 };
    proto::encode_request(&mut out, 0x4e110, &hello).expect("hello fits a frame");
    stream.write_all(&out)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::other("server closed during HELLO"));
        }
        buf.extend_from_slice(&chunk[..n]);
        match proto::decode_response_versioned(&buf, proto::BASE_PROTOCOL_VERSION) {
            Ok(Decoded::Frame(_, _, Response::HelloAck { version, .. })) => {
                stream.set_read_timeout(None)?;
                return Ok((stream, version));
            }
            Ok(Decoded::Incomplete) => {}
            other => return Err(std::io::Error::other(format!("HELLO refused: {other:?}"))),
        }
    }
}

/// The latency quantile the SLO limits and the end-to-end tail metrics
/// use. On a shared 2-core host the p99 of a loopback round trip is set
/// by scheduler and hypervisor stalls (multi-millisecond, varying from
/// minute to minute), not by the program, so the bounded tail is p90;
/// p99 is still printed with its sample count.
pub const TAIL_Q: f64 = 0.90;

/// A stable queue holds about rate x latency (Little's law); more than
/// this span of arrivals unanswered is a backlog.
pub const BACKLOG_SPAN: Duration = Duration::from_millis(20);

/// Times per open-loop phase the unanswered requests are counted.
pub const BACKLOG_MARKS: usize = 3;

/// Whether the backlog grew: over the cap at every mark and rising from
/// mark to mark (one stall that drains again is not growth).
pub fn backlog_grows(marks: &[u64], cap: f64) -> bool {
    marks.iter().all(|&m| m as f64 > cap) && marks.windows(2).all(|w| w[1] > w[0])
}

/// One ladder probe.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Offered rate, ops/s.
    pub rate: f64,
    /// Whether every condition held.
    pub pass: bool,
    /// [`TAIL_Q`] latency over all requests of the step, microseconds.
    pub tail_us: f64,
    /// Requests the tail latency rests on.
    pub samples: usize,
    /// Requests unanswered at each of the [`BACKLOG_MARKS`] marks.
    pub backlog: Vec<u64>,
}

/// Find the highest step of the workload's fixed ladder at which the
/// open loop's tail latency is within the limit, nothing fails, and the
/// backlog does not grow ([`backlog_grows`]). Binary search over the
/// steps, spending about `budget_secs` of arrivals.
pub fn slo_rate(
    addr: SocketAddr,
    spec: &Spec,
    model: &Model,
    seed: u64,
    steps: &[f64],
    budget_secs: f64,
    tally: &mut Tally,
) -> (f64, Vec<Probe>) {
    let probes_needed = (steps.len() as f64).log2().ceil().max(1.0);
    let per_probe = budget_secs / probes_needed;
    let mut probes = Vec::new();
    let (mut lo, mut hi) = (-1i64, steps.len() as i64);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = steps[mid as usize];
        let secs = per_probe.max(1_100.0 / rate);
        let limit = spec.tail_limit_us;
        let cfg = OpenCfg { rate, secs, sample_every: 0 };
        let o = open_loop(addr, spec, model, seed, 100 + probes.len() as u64, cfg);
        tally.absorb(&o.tally);
        let (tail, samples) = o.tail_us(secs, 1).unwrap_or((f64::INFINITY, 0));
        let backlog_cap = rate * BACKLOG_SPAN.as_secs_f64() + 8.0;
        let pass = o.tally.failed == 0
            && o.tally.wrong == 0
            && tail <= limit
            && !backlog_grows(&o.backlog, backlog_cap);
        probes.push(Probe { rate, pass, tail_us: tail, samples, backlog: o.backlog });
        if pass {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let best = if lo >= 0 { steps[lo as usize] } else { 0.0 };
    (best, probes)
}

pub use poll::priority_report;

/// Readiness waits with sub-millisecond timeouts: `ppoll` takes a
/// nanosecond timeout, where a socket read timeout rounds up to the
/// kernel tick.
mod poll {
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x1;
    const PR_SET_TIMERSLACK: i32 = 29;
    const PRIO_PROCESS: i32 = 0;
    /// Nice value of the load-generator threads.
    const GENERATOR_NICE: i32 = -10;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn prctl(option: i32, ...) -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        fn gettid() -> i32;
    }

    /// Wait up to `wait` for `stream` to have bytes (or EOF) to read.
    pub fn readable(stream: &TcpStream, wait: Duration) -> bool {
        let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
        let ts =
            Timespec { tv_sec: wait.as_secs() as i64, tv_nsec: i64::from(wait.subsec_nanos()) };
        // SAFETY: `fd` and `ts` are live, properly laid out (`repr(C)`
        // matching `struct pollfd` / `struct timespec` on 64-bit Linux)
        // for the whole call; nfds is 1; a null sigmask means "leave the
        // signal mask alone".
        let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        n > 0 && fd.revents != 0
    }

    /// Run this load-generator thread ahead of the server's threads
    /// (nice -10), as if it had a core of its own: on a 2-core host a
    /// generator queued behind a shard's long maintenance pass would
    /// send late, and that lateness is the harness's, not the program's.
    /// Without the privilege to raise priority the thread keeps its
    /// nice value; `loadgen.late_p99_us` shows the cost.
    pub fn raise_priority() {
        // SAFETY: gettid has no preconditions; setpriority only reads
        // its integer arguments and changes this thread's nice value.
        let rc = unsafe { setpriority(PRIO_PROCESS, gettid() as u32, GENERATOR_NICE) };
        let outcome = if rc == 0 { &RAISED } else { &NOT_RAISED };
        outcome.fetch_add(1, Ordering::Relaxed);
    }

    /// Generator threads that did and did not get nice -10.
    static RAISED: AtomicU64 = AtomicU64::new(0);
    static NOT_RAISED: AtomicU64 = AtomicU64::new(0);

    /// How the generator threads of this process ran, for the record:
    /// a run whose threads kept their nice value shares the cores with
    /// the server differently and is not comparable with one whose
    /// threads were raised.
    pub fn priority_report() -> String {
        let (ok, not) = (RAISED.load(Ordering::Relaxed), NOT_RAISED.load(Ordering::Relaxed));
        match (ok, not) {
            (_, 0) => format!("nice {GENERATOR_NICE} ({ok} generator threads)"),
            (0, _) => {
                format!("nice unchanged (setpriority refused for all {not} generator threads)")
            }
            _ => format!(
                "mixed: nice {GENERATOR_NICE} for {ok} generator threads, unchanged for {not}"
            ),
        }
    }

    /// Let this thread's timed waits end within a microsecond of their
    /// deadline instead of the default 50 us slack.
    pub fn tighten_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000u64) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error(code: ErrorCode) -> Response {
        Response::Error { code, message: String::new(), retry_after_ms: 0 }
    }

    #[test]
    fn integrity_errors_fail_the_run_and_refusals_only_count() {
        let model = Model::preloaded(4, 32);
        let get = Sent { op: Op::Get(1), version: 1 };
        let put = Sent { op: Op::Put(2), version: 2 };
        for code in
            [ErrorCode::MerkleMismatch, ErrorCode::DataDestroyed, ErrorCode::ShardQuarantined]
        {
            for sent in [get, put] {
                let mut t = Tally::default();
                assert_eq!(settle(&model, &mut t, sent, &error(code)), None);
                assert_eq!((t.wrong, t.failed), (1, 0), "{code:?} on {:?}", sent.op);
            }
        }
        for resp in [error(ErrorCode::Overloaded), Response::WrongShard { epoch: 3, hint: 1 }] {
            let mut t = Tally::default();
            assert_eq!(settle(&model, &mut t, get, &resp), None);
            assert_eq!((t.wrong, t.failed), (0, 1), "{resp:?}");
        }
        let mut t = Tally::default();
        let v = crate::workload::value(1, 1, 32);
        assert_eq!(settle(&model, &mut t, get, &Response::Value(Some(v))), Some(true));
        assert_eq!((t.ok, t.wrong, t.failed), (1, 0, 0));
    }
}
