//! The poll(2) event loop: the server's one connection path (unix
//! targets).
//!
//! One thread owns the TCP, Unix and `/metrics` listeners, a self-wake
//! pipe, and every connection not lent to a job. Readiness drives the
//! work — an idle connection costs one `pollfd` entry per iteration and
//! nothing else, so thousands of mostly-idle clients pin no threads.
//!
//! A connection belongs to exactly one thread at a time. Cheap requests
//! are answered by whichever thread reads them. A `simulate`, `sweep`
//! or forward request moves the connection into its job ([`ReplyTo`]),
//! after the answers queued ahead of it are flushed. The worker that
//! runs the job encodes and writes the reply, reads what the socket
//! holds, and serves every complete line the client pipelined behind it
//! through the same [`service`] path: a follow-up job is admitted
//! through the same bounded queue and takes the connection along. Only
//! when nothing is left to run, or the connection is closing or dead,
//! does the worker hand it back over the completion queue and write one
//! byte into the wake pipe, which pops the poll. Replies therefore come
//! back in request order by construction, and a pipelined burst wakes
//! the loop twice: when it arrives and when its connection comes home.
//! A peer that vanishes while its job runs is reclaimed when the job
//! ends.
//!
//! A `/metrics` scrape is an ordinary connection flagged as a scrape:
//! its request head is buffered until the blank line, EOF or
//! [`SCRAPE_HEAD_LIMIT`], answered with the Prometheus exposition
//! (`GET`) or `405`, and closed once the reply drains — so a scraper
//! that connects and sends nothing delays no other scrape. Scrapes
//! never leave the loop. On a router the scrape's shard fan-out runs on
//! this thread, as the NDJSON `metrics` request's does when the loop
//! reads it: each live fetch is bounded by the connect timeout and
//! known-down shards are skipped.
//!
//! Flow control: responses are buffered per connection and written when
//! the socket accepts them; while a connection's outbound buffer is at
//! [`WRITE_BUF_LIMIT`], neither the loop nor a worker reads from it or
//! answers the lines it already read — TCP back-pressure propagates to
//! the client instead of growing an unbounded buffer. Once a flush makes
//! room, the loop answers those lines without waiting for new input.
//!
//! Observability: the loop publishes per-connection lifecycle counters
//! (`event_loop_conns_{accepted,closed,drained}_total`,
//! `event_loop_half_closes_total`, counted once on whichever thread sees
//! the event; scrapes count like any connection),
//! `event_loop_poll_wait_us` / `event_loop_dispatch_us` histograms, and
//! `event_loop_connections` (polled plus lent) / `event_loop_busy_jobs`
//! (lent) / `event_loop_write_buf_bytes` gauges into the session
//! registry. Request spans and `access_log` events come from the worker
//! pool; journal emission stays gated on the sink, so a journal-less
//! server pays nothing for spans.

use crate::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::protocol::{ErrorBody, ErrorCode, Response, MAX_LINE_BYTES};
use crate::server::{dispatch_request, submit_job, Handled, ServerState};
use crate::transport::{Listener, Transport};
use smith85_obs::Counter;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poll timeout: how often the loop rechecks shutdown with no events.
const POLL_TIMEOUT_MS: i32 = 100;

/// Bucket bounds (microseconds) for the loop's poll-wait and dispatch
/// histograms: spans idle 100 ms poll timeouts down to hot sub-50 µs
/// dispatch rounds.
const US_BOUNDS: [f64; 8] = [
    50.0,
    100.0,
    500.0,
    1_000.0,
    5_000.0,
    25_000.0,
    100_000.0,
    500_000.0,
];

/// Outbound-buffer level at which neither the loop nor a worker reads
/// or answers more requests from a connection until writes drain.
const WRITE_BUF_LIMIT: usize = 256 * 1024;

/// Upper bound on the shutdown drain: past it, in-flight connections
/// are dropped rather than keeping the process alive forever on a lost
/// reply.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(600);

/// Upper bound on a buffered `/metrics` request head: a scraper that
/// sends this much without a blank line is answered on what arrived.
const SCRAPE_HEAD_LIMIT: usize = 8 * 1024;

/// Connections the workers hand back, keyed by connection id, with
/// whether each is still alive; plus the write end of the loop's
/// self-wake pipe (the classic self-pipe trick, on a nonblocking
/// socketpair so a full pipe — wake already pending — never blocks a
/// worker) and the loop counter a worker may bump.
pub(crate) struct Completions {
    returned: Mutex<Vec<(u64, Conn, bool)>>,
    wake_tx: UnixStream,
    half_closes: Arc<Counter>,
}

impl Completions {
    /// Hands connection `id` back to the loop (to close it, when not
    /// `alive`) and wakes the poller.
    fn give_back(&self, id: u64, conn: Conn, alive: bool) {
        self.returned
            .lock()
            .expect("completion queue lock poisoned")
            .push((id, conn, alive));
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn take(&self) -> Vec<(u64, Conn, bool)> {
        std::mem::take(
            &mut *self
                .returned
                .lock()
                .expect("completion queue lock poisoned"),
        )
    }
}

/// A connection lent to the job its latest request started; the worker
/// that runs the job answers through it ([`ReplyTo::send`]).
pub(crate) struct ReplyTo {
    id: u64,
    conn: Conn,
    completions: Arc<Completions>,
}

impl ReplyTo {
    /// Encodes and writes a finished job's response on the calling
    /// worker, then reads what the socket holds and serves the complete
    /// buffered lines, both while the outbound buffer is under
    /// [`WRITE_BUF_LIMIT`]. A follow-up job takes the connection along;
    /// otherwise it goes back to the loop.
    pub(crate) fn send(self, response: Response, state: &ServerState) {
        let ReplyTo {
            id,
            mut conn,
            completions,
        } = self;
        let started = Instant::now();
        conn.enqueue(&response);
        let encoded = Instant::now();
        let mut alive = conn.flush();
        let metrics = &state.metrics;
        metrics.encode_us.observe(micros(encoded - started));
        metrics.write_us.observe(micros(encoded.elapsed()));
        if alive && conn.reads() {
            alive = conn.fill(&completions.half_closes);
        }
        if alive {
            match service(conn, id, state, &completions) {
                Serviced::Lent => return,
                Serviced::Kept(kept, still) => (conn, alive) = (kept, still),
            }
        }
        completions.give_back(id, conn, alive);
    }
}

fn micros(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e6
}

/// One multiplexed connection.
struct Conn {
    stream: Box<dyn Transport>,
    fd: RawFd,
    /// A `/metrics` scrape (one HTTP request, answered, then closed)
    /// rather than an NDJSON request stream.
    scrape: bool,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Flush the outbound buffer, then close; set on unrecoverable
    /// input (oversized lines) and once a scrape is answered. Unlike
    /// `eof`, no further buffered input is parsed.
    closing: bool,
    /// The peer half-closed: parse what it already sent, answer it,
    /// flush, then close.
    eof: bool,
}

impl Conn {
    fn new(stream: Box<dyn Transport>, scrape: bool) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            fd: stream.raw_fd(),
            stream,
            scrape,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            closing: false,
            eof: false,
        })
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether more requests may be read: not closing, not half-closed,
    /// and the outbound buffer under [`WRITE_BUF_LIMIT`].
    fn reads(&self) -> bool {
        !self.closing && !self.eof && self.pending_write() < WRITE_BUF_LIMIT
    }

    /// Whether complete request lines wait unanswered in `read_buf`,
    /// left there while the outbound buffer was at [`WRITE_BUF_LIMIT`].
    fn backlog(&self) -> bool {
        !self.scrape && !self.closing && self.read_buf.contains(&b'\n')
    }

    /// A closing or half-closed connection is finished once its
    /// outbound buffer drains and no line waits for an answer: every
    /// line it will be answered for has been.
    fn finished(&self) -> bool {
        (self.closing || (self.eof && !self.backlog())) && self.pending_write() == 0
    }

    /// The poll mask this connection currently cares about.
    fn interest(&self) -> i16 {
        let mut mask = 0;
        if self.reads() {
            mask |= POLLIN;
        }
        if self.pending_write() > 0 {
            mask |= POLLOUT;
        }
        mask
    }

    fn enqueue(&mut self, response: &Response) {
        let mut line = response.encode();
        line.push('\n');
        self.write_buf.extend_from_slice(line.as_bytes());
    }

    /// Writes as much buffered output as the socket accepts. Returns
    /// `false` when the write failed: the connection is dead.
    fn flush(&mut self) -> bool {
        while self.pending_write() > 0 {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.pending_write() == 0 {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        true
    }

    /// Reads everything currently available. Returns `false` on a
    /// fatal read error; EOF marks the connection half-closed (counted
    /// in `half_closes`) so already buffered requests still get their
    /// responses before the slot is reclaimed.
    fn fill(&mut self, half_closes: &Counter) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if !self.eof {
                        self.eof = true;
                        half_closes.inc();
                    }
                    return true;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
}

/// What [`service`] did with a connection.
enum Serviced {
    /// Still the caller's; `false` when it is finished or dead and
    /// should close.
    Kept(Conn, bool),
    /// Lent to a job on the worker pool.
    Lent,
}

/// Answers the complete buffered lines — inline, or by lending the
/// connection to the first job line — or, on a scrape, a complete
/// request head; then flushes. Lines stay buffered while the outbound
/// buffer is still at [`WRITE_BUF_LIMIT`] after a flush, so on return
/// either none is left or the socket is full and the connection waits
/// for POLLOUT. Runs on the loop for polled connections and on a worker
/// for a connection whose job just finished.
fn service(
    mut conn: Conn,
    id: u64,
    state: &ServerState,
    completions: &Arc<Completions>,
) -> Serviced {
    if conn.scrape {
        answer_scrape(&mut conn, state);
    }
    while !conn.scrape && !conn.closing {
        if conn.pending_write() >= WRITE_BUF_LIMIT {
            if !conn.flush() {
                return Serviced::Kept(conn, false);
            }
            if conn.pending_write() >= WRITE_BUF_LIMIT {
                // The socket is full: the rest waits for POLLOUT.
                return Serviced::Kept(conn, true);
            }
        }
        let newline = conn.read_buf.iter().position(|&b| b == b'\n');
        if newline.unwrap_or(conn.read_buf.len()) > MAX_LINE_BYTES {
            state.metrics.protocol_errors.inc();
            conn.enqueue(&Response::Error(ErrorBody::new(
                ErrorCode::Oversized,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            )));
            conn.closing = true;
            break;
        }
        let Some(pos) = newline else { break };
        let mut line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
        line.pop(); // the newline
        let text = match std::str::from_utf8(&line) {
            Ok(text) => text,
            Err(_) => {
                state.metrics.protocol_errors.inc();
                conn.enqueue(&Response::Error(ErrorBody::new(
                    ErrorCode::BadRequest,
                    "request line is not valid UTF-8",
                )));
                continue;
            }
        };
        if text.trim().is_empty() {
            continue;
        }
        match dispatch_request(text, state) {
            Handled::Inline(response) => conn.enqueue(&response),
            Handled::Job(request) => {
                // Answers queued ahead of the job go out before it runs.
                if !conn.flush() {
                    return Serviced::Kept(conn, false);
                }
                let reply = ReplyTo {
                    id,
                    conn,
                    completions: Arc::clone(completions),
                };
                match submit_job(state, request, reply) {
                    Ok(()) => return Serviced::Lent,
                    Err((reply, refusal)) => {
                        conn = reply.conn;
                        conn.enqueue(&refusal);
                    }
                }
            }
        }
    }
    let alive = conn.flush() && !conn.finished();
    Serviced::Kept(conn, alive)
}

/// Answers a scrape once its request head is complete — a blank line,
/// EOF, or [`SCRAPE_HEAD_LIMIT`] bytes — and marks the connection
/// closing, so it closes once the reply drains. A deliberately minimal
/// HTTP/1.1 responder (a method check, no routing, no keep-alive): the
/// offline toolchain has no HTTP dependency, and scrapers only ever
/// issue one-shot GETs.
fn answer_scrape(conn: &mut Conn, state: &ServerState) {
    let head = &conn.read_buf;
    let complete = conn.eof
        || head.len() >= SCRAPE_HEAD_LIMIT
        || head.windows(4).any(|w| w == b"\r\n\r\n")
        || head.windows(2).any(|w| w == b"\n\n");
    if conn.closing || !complete {
        return;
    }
    let (status, content_type, body) = if head.starts_with(b"GET ") {
        // Router nodes answer with the federated fleet view.
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            state.metrics_snapshot().to_prometheus(),
        )
    } else {
        (
            "405 Method Not Allowed",
            "text/plain",
            "metrics endpoint only answers GET\n".to_string(),
        )
    };
    let reply = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_buf.extend_from_slice(reply.as_bytes());
    conn.closing = true;
}

/// Accepts everything pending on a nonblocking listener; `scrape` flags
/// the connections as `/metrics` scrapes.
fn accept_burst(
    listener: &dyn Listener,
    scrape: bool,
    conns: &mut HashMap<u64, Conn>,
    next_id: &mut u64,
    accepted: &Counter,
) {
    loop {
        match listener.accept_transport() {
            Ok(stream) => match Conn::new(stream, scrape) {
                Ok(conn) => {
                    let id = *next_id;
                    *next_id += 1;
                    conns.insert(id, conn);
                    accepted.inc();
                }
                Err(e) => eprintln!("smith85-serve: connection setup failed: {e}"),
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // Transient accept failures (e.g. EMFILE) must not take
                // the service down; the listener stays in the poll set.
                eprintln!("smith85-serve: accept failed: {e}");
                break;
            }
        }
    }
}

/// Runs the event loop until shutdown, then drains: stops accepting,
/// lets in-flight jobs reply, flushes their responses, and returns.
pub(crate) fn run(
    listener: &TcpListener,
    unix_listener: Option<&UnixListener>,
    metrics_listener: Option<&TcpListener>,
    state: &ServerState,
) -> io::Result<()> {
    // Every listener's fd, with whether its connections are scrapes.
    let mut listeners: Vec<(RawFd, &dyn Listener, bool)> =
        vec![(listener.as_raw_fd(), listener, false)];
    if let Some(unix) = unix_listener {
        listeners.push((unix.as_raw_fd(), unix, false));
    }
    if let Some(metrics) = metrics_listener {
        listeners.push((metrics.as_raw_fd(), metrics, true));
    }
    for (_, listener, _) in &listeners {
        listener.set_nonblocking(true)?;
    }
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    // Connections lent to jobs; each comes back through `completions`.
    let mut lent: usize = 0;
    let mut next_id: u64 = 1;
    let mut drain_started: Option<Instant> = None;

    // Loop metric handles are resolved once here; the hot path only
    // touches relaxed atomics through them.
    let registry = state.session().registry();
    let accepted = registry.counter("event_loop_conns_accepted_total");
    let closed = registry.counter("event_loop_conns_closed_total");
    let drained_ctr = registry.counter("event_loop_conns_drained_total");
    let conns_gauge = registry.gauge("event_loop_connections");
    let busy_gauge = registry.gauge("event_loop_busy_jobs");
    let write_buf_gauge = registry.gauge("event_loop_write_buf_bytes");
    let poll_wait = registry.histogram("event_loop_poll_wait_us", &US_BOUNDS);
    let dispatch_hist = registry.histogram("event_loop_dispatch_us", &US_BOUNDS);
    let completions = Arc::new(Completions {
        returned: Mutex::new(Vec::new()),
        wake_tx,
        half_closes: registry.counter("event_loop_half_closes_total"),
    });

    loop {
        if crate::signal::sigint_received() {
            state.begin_shutdown();
        }
        let draining = state.shutting_down();
        if draining {
            let started = *drain_started.get_or_insert_with(Instant::now);
            // Idle connections are dropped immediately; connections
            // with unflushed output get the drain window to finish, and
            // lent ones come back when their jobs end.
            let before = conns.len();
            conns.retain(|_, conn| conn.pending_write() > 0);
            drained_ctr.add((before - conns.len()) as u64);
            if (conns.is_empty() && lent == 0) || started.elapsed() > DRAIN_TIMEOUT {
                conns_gauge.set(0.0);
                busy_gauge.set(0.0);
                write_buf_gauge.set(0.0);
                return Ok(());
            }
        }

        let mut fds = vec![PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
        if !draining {
            fds.extend(listeners.iter().map(|&(fd, _, _)| PollFd::new(fd, POLLIN)));
        }
        let conn_base = fds.len();
        let order: Vec<u64> = conns.keys().copied().collect();
        for &id in &order {
            let conn = &conns[&id];
            fds.push(PollFd::new(conn.fd, conn.interest()));
        }

        let poll_started = Instant::now();
        match poll_fds(&mut fds, POLL_TIMEOUT_MS) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        poll_wait.observe(poll_started.elapsed().as_micros() as f64);
        let dispatch_started = Instant::now();

        if fds[0].ready(POLLIN) {
            let mut sink = [0u8; 64];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // Connections coming home: the worker already served every
        // complete line they held.
        for (id, conn, alive) in completions.take() {
            lent -= 1;
            if alive {
                conns.insert(id, conn);
            } else {
                closed.inc();
            }
        }

        if !draining {
            for (slot, &(_, listener, scrape)) in listeners.iter().enumerate() {
                if fds[1 + slot].ready(POLLIN) {
                    accept_burst(listener, scrape, &mut conns, &mut next_id, &accepted);
                }
            }
        }

        for (slot, &id) in order.iter().enumerate() {
            let pfd = fds[conn_base + slot];
            if !pfd.ready(POLLIN | POLLOUT) {
                continue;
            }
            let Some(mut conn) = conns.remove(&id) else {
                continue;
            };
            let mut alive = true;
            if pfd.ready(POLLOUT) {
                alive = conn.flush() && !conn.finished();
            }
            if alive && pfd.ready(POLLIN) {
                alive = conn.fill(&completions.half_closes);
            }
            // Answer what arrived, and the lines a flush just made room for.
            if alive && (pfd.ready(POLLIN) || conn.backlog()) {
                match service(conn, id, state, &completions) {
                    Serviced::Lent => {
                        lent += 1;
                        continue;
                    }
                    Serviced::Kept(kept, still) => (conn, alive) = (kept, still),
                }
            }
            if alive {
                conns.insert(id, conn);
            } else {
                closed.inc();
            }
        }

        conns_gauge.set((conns.len() + lent) as f64);
        busy_gauge.set(lent as f64);
        let buffered: usize = conns.values().map(Conn::pending_write).sum();
        write_buf_gauge.set(buffered as f64);
        dispatch_hist.observe(dispatch_started.elapsed().as_micros() as f64);
    }
}
