//! The load generator: open-loop and closed-loop request streams over a
//! few TCP connections, all multiplexed on the calling thread.
//!
//! Waiting uses ppoll(2), whose timeout has nanosecond resolution; a
//! socket read timeout would round every wait up to a scheduler tick
//! and make the generator late by up to that much on every send.

use crate::host::Mark;
use crate::spans::Recorder;
use crate::stats::WINDOW_S;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// How a phase issues its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Request `k` is due `k / rate` seconds after the start and goes
    /// to connection `k mod conns`, whatever the replies do; requests
    /// are issued while their due time is inside `duration`.
    Open {
        /// Requests per second over all connections.
        rate: f64,
        /// Length of the schedule.
        duration: Duration,
    },
    /// Each connection keeps `window` requests in flight and issues a
    /// new one per reply until `duration` has passed.
    Closed {
        /// Requests in flight per connection.
        window: usize,
        /// How long new requests are issued.
        duration: Duration,
    },
}

impl Pace {
    /// How long the phase issues requests.
    pub fn duration(self) -> Duration {
        match self {
            Pace::Open { duration, .. } | Pace::Closed { duration, .. } => duration,
        }
    }
}

/// The scheduled send offsets of an open-loop phase: request `k` at
/// `k / rate`, for every `k` whose offset falls inside `duration`.
pub fn open_schedule(rate: f64, duration: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "an open loop needs a positive rate");
    let count = (rate * duration.as_secs_f64()).ceil() as usize;
    (0..count)
        .map(|k| Duration::from_secs_f64(k as f64 / rate))
        .filter(|due| *due < duration)
        .collect()
}

/// One request of a phase. Offsets are from the phase start.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Request id: the position in the phase's request sequence.
    pub id: usize,
    /// When it was due (closed loop: when a window slot freed up).
    pub due: Duration,
    /// When the generator handed it to its connection.
    pub sent: Duration,
    /// When its reply line was complete; `None` if it never came.
    pub done: Option<Duration>,
    /// The reply line, without its newline.
    pub reply: Option<String>,
}

impl Exchange {
    /// Latency in ms from the due time to the complete reply.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|done| (done.saturating_sub(self.due)).as_secs_f64() * 1e3)
    }

    /// How late the generator issued the request, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Everything one phase did.
#[derive(Debug)]
pub struct Phase {
    /// Host CPU counters at the start of each [`WINDOW_S`] window, and
    /// at the end of the phase, each with the time it was taken.
    pub cpu_marks: Vec<Mark>,
    /// The pace it ran at.
    pub pace: Pace,
    /// Every request issued, by id.
    pub exchanges: Vec<Exchange>,
}

impl Phase {
    /// Replies completed inside the pace's duration.
    pub fn completed_in_time(&self) -> usize {
        let duration = self.pace.duration();
        self.exchanges
            .iter()
            .filter(|e| e.done.is_some_and(|d| d <= duration))
            .count()
    }

    /// The largest generator lateness, in ms.
    pub fn late_max_ms(&self) -> f64 {
        self.exchanges
            .iter()
            .map(Exchange::late_ms)
            .fold(0.0, f64::max)
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    input: Vec<u8>,
    scanned: usize,
    pending: VecDeque<usize>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            input: Vec::new(),
            scanned: 0,
            pending: VecDeque::new(),
        })
    }

    fn queue(&mut self, id: usize, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.pending.push_back(id);
    }

    /// Writes as much queued output as the socket takes right now.
    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.written = 0;
        Ok(())
    }

    /// Reads what has arrived and hands each complete reply line to
    /// `done` with the id of the oldest request still waiting (replies
    /// come back in request order on a connection).
    fn receive(&mut self, mut done: impl FnMut(usize, String)) -> io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "the server closed a connection",
                    ))
                }
                Ok(n) => self.input.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut consumed = 0;
        while let Some(pos) = self.input[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + pos;
            let line = String::from_utf8_lossy(&self.input[consumed..end]).into_owned();
            let id = self.pending.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "reply without a request")
            })?;
            done(id, line);
            consumed = end + 1;
            self.scanned = consumed;
        }
        self.input.drain(..consumed);
        self.scanned = self.input.len();
        Ok(())
    }
}

/// Runs one phase against `addr` over `conns` connections. Request `k`
/// sends `lines[k % lines.len()]`. Replies still missing `grace` after
/// the last issue time are left as `done: None` (timeouts). With a
/// recorder, each reply also records a `client.request` span from the
/// request's due time to its reply.
///
/// # Errors
///
/// Connection, read or write failures, and a server that closes a
/// connection.
pub fn drive(
    addr: &str,
    conns: usize,
    lines: &[String],
    pace: Pace,
    grace: Duration,
    mut recorder: Option<&mut Recorder>,
) -> io::Result<Phase> {
    assert!(
        conns > 0 && !lines.is_empty(),
        "a phase needs connections and lines"
    );
    let mut conns: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<_>>()?;
    let schedule = match pace {
        Pace::Open { rate, duration } => open_schedule(rate, duration),
        Pace::Closed { .. } => Vec::new(),
    };
    let duration = pace.duration();
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd::new(c.stream.as_raw_fd()))
        .collect();
    let issuing = |issued: usize, now: Duration| match pace {
        Pace::Open { .. } => issued < schedule.len(),
        Pace::Closed { .. } => now < duration,
    };
    let last_issue = match pace {
        Pace::Open { .. } => schedule.last().copied().unwrap_or_default(),
        Pace::Closed { .. } => duration,
    };
    let mark_at = |marks: usize| Duration::from_secs_f64(marks as f64 * WINDOW_S);
    let start = Instant::now();
    let mut cpu_marks = vec![Mark::now(start)];
    loop {
        let now = start.elapsed();
        if now >= mark_at(cpu_marks.len()) {
            cpu_marks.push(Mark::now(start));
        }
        if issuing(exchanges.len(), now) {
            match pace {
                Pace::Open { .. } => {
                    while let Some(&due) = schedule.get(exchanges.len()) {
                        if due > now {
                            break;
                        }
                        let k = exchanges.len() % conns.len();
                        issue(&mut exchanges, &mut conns[k], lines, due, start);
                    }
                }
                Pace::Closed { window, .. } => {
                    for conn in &mut conns {
                        while conn.pending.len() < window {
                            issue(&mut exchanges, conn, lines, now, start);
                        }
                    }
                }
            }
        }
        for conn in &mut conns {
            conn.flush()?;
        }
        let outstanding: usize = conns.iter().map(|c| c.pending.len()).sum();
        let still_issuing = issuing(exchanges.len(), now);
        if !still_issuing && (outstanding == 0 || now >= last_issue + grace) {
            break;
        }
        let wake = match pace {
            Pace::Open { .. } => schedule.get(exchanges.len()).copied(),
            Pace::Closed { .. } => still_issuing.then_some(duration),
        }
        .unwrap_or(last_issue + grace)
        .min(mark_at(cpu_marks.len()));
        for (fd, conn) in fds.iter_mut().zip(&conns) {
            fd.want(conn.written < conn.out.len());
        }
        wait_ready(&mut fds, wake.saturating_sub(start.elapsed()))?;
        for (fd, conn) in fds.iter().zip(&mut conns) {
            if fd.revents != 0 {
                let at = Instant::now();
                conn.receive(|id, line| {
                    let exchange = &mut exchanges[id];
                    exchange.done = Some(at - start);
                    exchange.reply = Some(line);
                    if let Some(recorder) = recorder.as_deref_mut() {
                        recorder.record("client.request", id as u64, start + exchange.due, at);
                    }
                })?;
            }
        }
    }
    cpu_marks.push(Mark::now(start));
    Ok(Phase {
        cpu_marks,
        pace,
        exchanges,
    })
}

/// Queues the next request of the sequence on `conn`.
fn issue(
    exchanges: &mut Vec<Exchange>,
    conn: &mut Conn,
    lines: &[String],
    due: Duration,
    start: Instant,
) {
    let id = exchanges.len();
    conn.queue(id, &lines[id % lines.len()]);
    exchanges.push(Exchange {
        id,
        due,
        sent: start.elapsed(),
        done: None,
        reply: None,
    });
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// `struct pollfd`, in the kernel's layout.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    fn new(fd: i32) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Watches for replies, and for buffer space when output is queued.
    fn want(&mut self, writable: bool) {
        self.events = if writable { POLLIN | POLLOUT } else { POLLIN };
        self.revents = 0;
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Blocks until a watched connection is ready or `timeout` passes.
#[allow(unsafe_code)]
fn wait_ready(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is an exclusively borrowed array of `PollFd`, which
    // is `repr(C)` with `struct pollfd`'s layout, and its length goes
    // with it; `timeout` outlives the call; a null signal mask leaves
    // the thread's mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn open_schedule_is_evenly_spaced_inside_the_duration() {
        let due = open_schedule(4.0, Duration::from_secs(2));
        let millis: Vec<u128> = due.iter().map(Duration::as_millis).collect();
        assert_eq!(millis, vec![0, 250, 500, 750, 1000, 1250, 1500, 1750]);
        assert_eq!(open_schedule(3.0, Duration::from_millis(1_000)).len(), 3);
        assert_eq!(open_schedule(1000.0, Duration::from_millis(1)).len(), 1);
    }

    /// A server that echoes each line back after `delay`, in order.
    fn echo_server(delay: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in io::BufReader::new(stream).lines() {
                std::thread::sleep(delay);
                writeln!(writer, "{}", line.unwrap()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_times_from_the_schedule_and_pairs_replies_in_order() {
        let (addr, server) = echo_server(Duration::from_millis(5));
        let lines: Vec<String> = (0..3).map(|i| format!("req{i}")).collect();
        let pace = Pace::Open {
            rate: 100.0,
            duration: Duration::from_millis(200),
        };
        let mut recorder = Recorder::new();
        let phase = drive(
            &addr,
            1,
            &lines,
            pace,
            Duration::from_secs(5),
            Some(&mut recorder),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(phase.exchanges.len(), 20);
        assert_eq!(
            recorder.durations_us("client.request").len(),
            20,
            "one span per reply"
        );
        for e in &phase.exchanges {
            assert_eq!(e.reply.as_deref(), Some(lines[e.id % 3].as_str()));
            assert_eq!(e.due, Duration::from_secs_f64(e.id as f64 / 100.0));
            assert!(e.sent >= e.due);
            assert!(
                e.latency_ms().unwrap() >= 5.0,
                "includes the server's delay"
            );
        }
    }

    #[test]
    fn closed_loop_keeps_its_window_and_stops_issuing_at_the_end() {
        let (addr, server) = echo_server(Duration::from_millis(2));
        let lines = vec!["x".to_string()];
        let pace = Pace::Closed {
            window: 3,
            duration: Duration::from_millis(100),
        };
        let phase = drive(&addr, 1, &lines, pace, Duration::from_secs(5), None).unwrap();
        server.join().unwrap();
        let issued_late = phase
            .exchanges
            .iter()
            .filter(|e| e.due >= Duration::from_millis(100))
            .count();
        assert_eq!(issued_late, 0);
        assert!(phase.exchanges.iter().all(|e| e.reply.is_some()));
        assert!(
            phase.completed_in_time() >= 10,
            "{}",
            phase.completed_in_time()
        );
        assert!(phase.completed_in_time() <= phase.exchanges.len());
    }
}
