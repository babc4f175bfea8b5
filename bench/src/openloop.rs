//! The open-loop load generator of `serve_get_open`.
//!
//! Independent users do not wait for each other, so requests are sent on a
//! fixed schedule whatever the server does: request `k` of a step is *due*
//! at `start + k / rate`. Latency is timed from the due time, not the send
//! time, so a stall is charged to every request it delayed; how late the
//! generator itself ran is reported separately as the scheduling lag.
//!
//! The generator is written against [`Clock`] and [`Wire`] so the due-time
//! accounting can be tested with a simulated server.

use crate::stats::{percentile, Summary, Windows};
use crate::trace::{Tracer, ROOT, SAMPLE_EVERY};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock {
    /// Nanoseconds since an arbitrary origin.
    fn now_ns(&mut self) -> u64;
}

/// Wall clock.
#[derive(Debug)]
pub struct Monotonic(Instant);

impl Monotonic {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Monotonic(Instant::now())
    }
}

impl Clock for Monotonic {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One reply as the generator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Whether the status byte was OK.
    pub ok: bool,
    /// Length of the reply body.
    pub body_len: usize,
}

/// A connection that never blocks the generator. Replies arrive in request
/// order.
pub trait Wire {
    /// Queues one GET for document `id` and pushes out what the socket
    /// takes.
    fn send_get(&mut self, id: u32) -> io::Result<()>;
    /// Appends every reply that has fully arrived to `replies`.
    fn poll(&mut self, replies: &mut Vec<Reply>) -> io::Result<()>;
}

/// What one fixed-rate step measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Requests sent during the step.
    pub sent: u64,
    /// Replies received before the step ended.
    pub received_in_step: u64,
    /// From the step's start to the last of those replies, in ns.
    pub served_ns: u64,
    /// Requests still unanswered when the step ended.
    pub backlog: u64,
    /// Replies that were errors or had the wrong length.
    pub failed: u64,
    /// Latency from due time, windowed.
    pub latency: Summary,
    /// p99 of how late after its due time a request was sent, in µs.
    pub sched_lag_p99_us: f64,
}

impl StepResult {
    /// The latency limit: windowed p99 within `limit_us` and no backlog
    /// growing over the step (the connection starts each step drained, so
    /// the backlog at its end must stay within 1 % of what was sent).
    pub fn meets(&self, limit_us: f64) -> bool {
        self.failed == 0
            && self.latency.samples > 0
            && self.latency.p99_us <= limit_us
            && self.backlog as f64 <= 0.01 * self.sent as f64
    }
}

/// One step's fixed inputs.
#[derive(Debug, Clone, Copy)]
pub struct Step<'a> {
    /// Requests per second.
    pub rate: f64,
    /// How long to keep sending.
    pub duration_ns: u64,
    /// Length of the latency windows.
    pub window_ns: u64,
    /// Document ids, cycled.
    pub ids: &'a [u32],
    /// Expected reply length per document id.
    pub doc_lens: &'a [u32],
    /// After sending stops, how long to wait for outstanding replies.
    pub drain_ns: u64,
}

/// Runs one open-loop step. With a `tracer`, every 16th request gets a
/// `wire.get` span from its due time to its reply.
pub fn run_step(
    wire: &mut impl Wire,
    clock: &mut impl Clock,
    step: Step<'_>,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<StepResult> {
    let gap_ns = 1e9 / step.rate;
    let start = clock.now_ns();
    let end = start + step.duration_ns;
    // Due time and id of every unanswered request, oldest first.
    let mut pending: VecDeque<(u64, u32)> = VecDeque::new();
    let mut replies = Vec::new();
    let mut windows = Windows::new(step.window_ns);
    let mut lags: Vec<u32> = Vec::new();
    let (mut sent, mut received, mut received_in_step, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let (mut last_reply_ns, mut served_ns) = (0u64, 0u64);
    let mut backlog_at_end = None;
    loop {
        let now = clock.now_ns();
        if now < end {
            // Send everything that has come due, however late we are.
            loop {
                let due = start + (sent as f64 * gap_ns) as u64;
                if due > now || due >= end {
                    break;
                }
                let id = step.ids[sent as usize % step.ids.len()];
                wire.send_get(id)?;
                lags.push(u32::try_from(now - due).unwrap_or(u32::MAX));
                pending.push_back((due, id));
                sent += 1;
            }
        } else if backlog_at_end.is_none() {
            backlog_at_end = Some(sent - received);
            received_in_step = received;
            served_ns = last_reply_ns;
        }
        replies.clear();
        wire.poll(&mut replies)?;
        if !replies.is_empty() {
            let now = clock.now_ns();
            last_reply_ns = now - start;
            for reply in &replies {
                let Some((due, id)) = pending.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "reply without a request",
                    ));
                };
                let expected = step.doc_lens.get(id as usize).copied();
                if !reply.ok || expected != Some(reply.body_len as u32) {
                    failed += 1;
                }
                windows.record(now - start, now - due);
                if let Some(t) = tracer.as_deref_mut() {
                    if received.is_multiple_of(SAMPLE_EVERY) {
                        let origin = t.now_ns().saturating_sub(now - due);
                        let span = t.begin_at("wire.get", ROOT, received, origin);
                        t.end(span);
                    }
                }
                received += 1;
            }
        }
        if let Some(backlog) = backlog_at_end {
            if pending.is_empty() || now >= end + step.drain_ns {
                // Whatever never came back is lost to the user.
                failed += pending.len() as u64;
                lags.sort_unstable();
                return Ok(StepResult {
                    sent,
                    received_in_step,
                    served_ns,
                    backlog,
                    failed,
                    latency: windows.finish(),
                    sched_lag_p99_us: f64::from(percentile(&lags, 99.0)) / 1e3,
                });
            }
        }
        // Give the core away rather than spin on it: the server shares it,
        // and runs the moment it has work.
        std::thread::yield_now();
    }
}

/// [`Wire`] over a nonblocking TCP connection speaking the `rlz-serve`
/// frame protocol (`len:u32le status:u8 body`). Reply bodies are counted,
/// not kept, so the generator's memory does not depend on how far the
/// server falls behind.
#[derive(Debug)]
pub struct TcpWire {
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    /// Landing area for socket reads, allocated once.
    chunk: Vec<u8>,
    /// Length prefix and status byte of the frame being received.
    header: [u8; 5],
    header_len: usize,
    /// Body bytes of that frame still to arrive.
    body_left: usize,
}

impl TcpWire {
    /// Wraps a connected stream, switching it to nonblocking mode.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(TcpWire {
            stream,
            out: Vec::new(),
            out_at: 0,
            chunk: vec![0u8; 64 << 10],
            header: [0; 5],
            header_len: 0,
            body_left: 0,
        })
    }

    fn flush_out(&mut self) -> io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_at = 0;
        Ok(())
    }

    /// Queues GETs for all of `ids` and hands them to the socket in one
    /// write, so the server finds them together.
    pub fn send_burst(&mut self, ids: &[u32]) -> io::Result<()> {
        for &id in ids {
            rlz_serve::protocol::write_get(&mut self.out, id);
        }
        self.flush_out()
    }

    /// Walks `n` freshly read bytes of `self.chunk` through the frame
    /// state machine, pushing a reply for every frame they complete.
    fn consume(&mut self, n: usize, replies: &mut Vec<Reply>) -> io::Result<()> {
        let mut at = 0;
        while at < n {
            if self.header_len < self.header.len() {
                let take = (self.header.len() - self.header_len).min(n - at);
                self.header[self.header_len..self.header_len + take]
                    .copy_from_slice(&self.chunk[at..at + take]);
                self.header_len += take;
                at += take;
                if self.header_len < self.header.len() {
                    break;
                }
                let len = u32::from_le_bytes(self.header[..4].try_into().expect("4 bytes"));
                if len == 0 || len > rlz_serve::protocol::MAX_RESPONSE_LEN {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "bad response frame length",
                    ));
                }
                self.body_left = len as usize - 1;
            }
            let skip = self.body_left.min(n - at);
            self.body_left -= skip;
            at += skip;
            if self.body_left == 0 {
                let len = u32::from_le_bytes(self.header[..4].try_into().expect("4 bytes"));
                replies.push(Reply {
                    ok: self.header[4] == rlz_serve::protocol::STATUS_OK,
                    body_len: len as usize - 1,
                });
                self.header_len = 0;
            }
        }
        Ok(())
    }
}

impl Wire for TcpWire {
    fn send_get(&mut self, id: u32) -> io::Result<()> {
        rlz_serve::protocol::write_get(&mut self.out, id);
        self.flush_out()
    }

    fn poll(&mut self, replies: &mut Vec<Reply>) -> io::Result<()> {
        self.flush_out()?;
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.consume(n, replies)?,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serial server: each request takes `service_ns`, except request
    /// `stall_at`, which takes `stall_ns`. Replies become visible once
    /// the shared clock passes their completion time.
    struct FakeServer {
        now: std::rc::Rc<std::cell::Cell<u64>>,
        service_ns: u64,
        stall_at: u64,
        stall_ns: u64,
        accepted: u64,
        busy_until: u64,
        completions: VecDeque<u64>,
        send_times: Vec<u64>,
    }

    /// Advances the shared time by 1 µs every time it is read.
    struct SharedClock(std::rc::Rc<std::cell::Cell<u64>>);

    impl Clock for SharedClock {
        fn now_ns(&mut self) -> u64 {
            self.0.set(self.0.get() + 1_000);
            self.0.get()
        }
    }

    impl Wire for FakeServer {
        fn send_get(&mut self, _id: u32) -> io::Result<()> {
            let now = self.now.get();
            self.send_times.push(now);
            let service = if self.accepted == self.stall_at {
                self.stall_ns
            } else {
                self.service_ns
            };
            self.busy_until = self.busy_until.max(now) + service;
            self.completions.push_back(self.busy_until);
            self.accepted += 1;
            Ok(())
        }

        fn poll(&mut self, replies: &mut Vec<Reply>) -> io::Result<()> {
            while self
                .completions
                .front()
                .is_some_and(|&t| t <= self.now.get())
            {
                self.completions.pop_front();
                replies.push(Reply {
                    ok: true,
                    body_len: 10,
                });
            }
            Ok(())
        }
    }

    fn step<'a>(ids: &'a [u32], lens: &'a [u32]) -> Step<'a> {
        Step {
            rate: 10_000.0, // one request every 100 µs
            duration_ns: 10_000_000,
            window_ns: 1_000_000,
            ids,
            doc_lens: lens,
            drain_ns: 50_000_000,
        }
    }

    #[test]
    fn a_stalled_reply_delays_no_later_send() {
        let now = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut server = FakeServer {
            now: now.clone(),
            service_ns: 20_000,
            stall_at: 10,
            stall_ns: 3_000_000, // 3 ms: thirty send slots
            accepted: 0,
            busy_until: 0,
            completions: VecDeque::new(),
            send_times: Vec::new(),
        };
        let mut clock = SharedClock(now);
        let r = run_step(&mut server, &mut clock, step(&[0], &[10]), None).unwrap();
        assert_eq!(r.sent, 100);
        assert_eq!(r.failed, 0);
        // Every request left within a few clock ticks of its due time,
        // including the thirty that came due during the stall.
        let start = server.send_times[0] - 1_000;
        for (k, &t) in server.send_times.iter().enumerate() {
            let due = start + k as u64 * 100_000;
            assert!(
                t >= due && t - due <= 5_000,
                "request {k} sent {} ns late",
                t - due
            );
        }
        assert!(r.sched_lag_p99_us <= 5.0);
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time() {
        let now = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut server = FakeServer {
            now: now.clone(),
            service_ns: 20_000,
            stall_at: 10,
            stall_ns: 3_000_000,
            accepted: 0,
            busy_until: 0,
            completions: VecDeque::new(),
            send_times: Vec::new(),
        };
        let mut clock = SharedClock(now);
        let s = Step {
            window_ns: 100_000_000, // one window: plain percentiles
            ..step(&[0], &[10])
        };
        let r = run_step(&mut server, &mut clock, s, None).unwrap();
        // The serial server answers request 10 after 3 ms and everything
        // queued behind it afterwards: requests 11.. waited for the stall
        // although each was *sent* on time, so more than 1 % of the step
        // saw over 2 ms — a send-time clock would have hidden all but one.
        assert_eq!(r.latency.samples, 100);
        assert!(r.latency.p99_us >= 2_900.0, "p99 {}", r.latency.p99_us);
        assert!(r.latency.p50_us <= 30.0, "p50 {}", r.latency.p50_us);
        assert!(!r.meets(2_000.0));
        assert_eq!(r.backlog, 0);
    }

    #[test]
    fn a_server_slower_than_the_rate_grows_a_backlog() {
        let now = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut server = FakeServer {
            now: now.clone(),
            service_ns: 150_000, // 6.7 k/s against 10 k/s offered
            stall_at: u64::MAX,
            stall_ns: 0,
            accepted: 0,
            busy_until: 0,
            completions: VecDeque::new(),
            send_times: Vec::new(),
        };
        let mut clock = SharedClock(now);
        let r = run_step(&mut server, &mut clock, step(&[0], &[10]), None).unwrap();
        assert_eq!(r.sent, 100);
        assert!(r.backlog >= 30, "backlog {}", r.backlog);
        assert_eq!(r.received_in_step + r.backlog, 100);
        assert_eq!(r.failed, 0); // all drained afterwards
        assert!(!r.meets(1e9));
    }

    #[test]
    fn frames_split_anywhere_are_counted_once() {
        // Two replies (bodies of 3 and 0 bytes, the second an error)
        // delivered one byte at a time, then both in one read.
        let bytes = [4, 0, 0, 0, 0, b'a', b'b', b'c', 1, 0, 0, 0, 7];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut wire = TcpWire::new(listener.accept().unwrap().0).unwrap();
        drop(peer);
        let expected = [
            Reply {
                ok: true,
                body_len: 3,
            },
            Reply {
                ok: false,
                body_len: 0,
            },
        ];
        let mut replies = Vec::new();
        for &b in &bytes {
            wire.chunk[0] = b;
            wire.consume(1, &mut replies).unwrap();
        }
        assert_eq!(replies, expected);
        replies.clear();
        wire.chunk[..bytes.len()].copy_from_slice(&bytes);
        wire.consume(bytes.len(), &mut replies).unwrap();
        assert_eq!(replies, expected);
        wire.chunk[..4].copy_from_slice(&[0, 0, 0, 0]);
        wire.chunk[4] = 0;
        assert!(wire.consume(5, &mut replies).is_err());
    }

    #[test]
    fn wrong_lengths_and_lost_replies_are_failures() {
        let now = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut server = FakeServer {
            now: now.clone(),
            service_ns: 20_000,
            stall_at: 95,
            stall_ns: 1_000_000_000, // never answers within the drain
            accepted: 0,
            busy_until: 0,
            completions: VecDeque::new(),
            send_times: Vec::new(),
        };
        let mut clock = SharedClock(now);
        // Expected length 11, replies carry 10: every reply is wrong.
        let r = run_step(&mut server, &mut clock, step(&[0], &[11]), None).unwrap();
        assert_eq!(r.sent, 100);
        assert_eq!(r.failed, 100); // 95 wrong + 5 lost
    }
}
