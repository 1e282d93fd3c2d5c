//! The poll(2) event loop: the server's one connection path (unix
//! targets).
//!
//! One thread owns every socket: the TCP, Unix and `/metrics`
//! listeners, a self-wake pipe, and all client connections. Readiness
//! drives the work — an idle connection costs one `pollfd` entry per
//! iteration and nothing else, so thousands of mostly-idle clients pin
//! no threads. `simulate`/`sweep` execute on the worker pool; a worker
//! finishing a job pushes the response onto the completion queue and
//! writes one byte into the wake pipe, which pops the poll.
//!
//! A `/metrics` scrape is an ordinary connection flagged as a scrape:
//! its request head is buffered until the blank line, EOF or
//! [`SCRAPE_HEAD_LIMIT`], answered with the Prometheus exposition
//! (`GET`) or `405`, and closed once the reply drains — so a scraper
//! that connects and sends nothing delays no other scrape. On a router
//! the scrape's shard fan-out runs on this thread, as the NDJSON
//! `metrics` request's does: each live fetch is bounded by the connect
//! timeout and known-down shards are skipped.
//!
//! Flow control: responses are buffered per connection and written when
//! the socket reports `POLLOUT`; while a connection's outbound buffer
//! is above [`WRITE_BUF_LIMIT`] (or a job is in flight for it), the
//! loop stops reading from it — TCP back-pressure propagates to the
//! client instead of growing an unbounded buffer.
//!
//! Observability: the loop publishes per-connection lifecycle counters
//! (`event_loop_conns_{accepted,closed,drained}_total`,
//! `event_loop_half_closes_total`; scrapes count like any connection),
//! `event_loop_poll_wait_us` / `event_loop_dispatch_us` histograms, and
//! `event_loop_connections` / `event_loop_busy_jobs` /
//! `event_loop_write_buf_bytes` gauges into the session registry.
//! Request spans and `access_log` events come from the worker pool;
//! journal emission stays gated on the sink, so a journal-less server
//! pays nothing for spans.

use crate::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::protocol::{ErrorBody, ErrorCode, Response, MAX_LINE_BYTES};
use crate::server::{dispatch_request, Handled, ServerState};
use crate::stats::ServerStats;
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

/// Outbound-buffer level above which the loop stops reading more
/// requests from a connection until writes drain.
const WRITE_BUF_LIMIT: usize = 256 * 1024;

/// Upper bound on the shutdown drain: past it, in-flight connections
/// are dropped rather than keeping the process alive forever on a lost
/// reply.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(600);

/// Upper bound on a buffered `/metrics` request head: a scraper that
/// sends this much without a blank line is answered on what arrived.
const SCRAPE_HEAD_LIMIT: usize = 8 * 1024;

/// Finished jobs waiting to be written back, keyed by connection id,
/// plus the write end of the loop's self-wake pipe (the classic
/// self-pipe trick, on a nonblocking socketpair so a full pipe — wake
/// already pending — never blocks a worker).
pub(crate) struct Completions {
    done: Mutex<Vec<(u64, Response)>>,
    wake_tx: UnixStream,
}

impl Completions {
    /// Queues `response` for connection `conn_id` and wakes the poller.
    fn push(&self, conn_id: u64, response: Response) {
        self.done
            .lock()
            .expect("completion queue lock poisoned")
            .push((conn_id, response));
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn take(&self) -> Vec<(u64, Response)> {
        std::mem::take(&mut *self.done.lock().expect("completion queue lock poisoned"))
    }
}

/// Where a finished job's response goes: the loop's completion queue,
/// tagged with the connection that sent the request.
pub(crate) struct ReplyTo {
    conn_id: u64,
    completions: Arc<Completions>,
}

impl ReplyTo {
    pub(crate) fn send(&self, response: Response) {
        self.completions.push(self.conn_id, response);
    }
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
    /// One job in flight on the worker pool for this connection; the
    /// loop stops parsing further lines until it completes, so replies
    /// come back in request order.
    busy: bool,
    /// Flush the outbound buffer (and finish the in-flight job, if
    /// any), then close; set on unrecoverable input (oversized lines)
    /// and once a scrape is answered. Unlike `eof`, no further buffered
    /// input is parsed.
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
            busy: false,
            closing: false,
            eof: false,
        })
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// The poll mask this connection currently cares about.
    fn interest(&self) -> i16 {
        let mut mask = 0;
        if !self.busy && !self.closing && !self.eof && self.pending_write() < WRITE_BUF_LIMIT {
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
    /// `false` when the connection is finished (write failure, or a
    /// deferred close whose buffer just drained).
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
            // A closing or half-closed connection dies once its buffer
            // drains — but not while a job is still in flight for it:
            // the reply is owed first. When `service` left `busy`
            // clear, every complete buffered line has been answered.
            if (self.closing || self.eof) && !self.busy {
                return false;
            }
        }
        true
    }

    /// Reads everything currently available. Returns `false` on a
    /// fatal read error; EOF marks the connection closing so already
    /// buffered requests (a peer that sent then half-closed) still get
    /// their responses before the slot is reclaimed.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
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

/// Parses and dispatches every complete buffered line (stopping at one
/// in-flight job) or, on a scrape, answers a complete request head;
/// then flushes. Returns `false` when the connection is finished.
fn service(
    conn: &mut Conn,
    id: u64,
    state: &Arc<ServerState>,
    completions: &Arc<Completions>,
) -> bool {
    if conn.scrape {
        answer_scrape(conn, state);
        return conn.flush();
    }
    while !conn.busy && !conn.closing {
        let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else {
            if conn.read_buf.len() > MAX_LINE_BYTES {
                ServerStats::bump(&state.stats.protocol_errors);
                conn.enqueue(&Response::Error(ErrorBody::new(
                    ErrorCode::Oversized,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                )));
                conn.closing = true;
            }
            break;
        };
        let mut line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
        line.pop(); // the newline
        if line.len() > MAX_LINE_BYTES {
            ServerStats::bump(&state.stats.protocol_errors);
            conn.enqueue(&Response::Error(ErrorBody::new(
                ErrorCode::Oversized,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            )));
            conn.closing = true;
            break;
        }
        let text = match std::str::from_utf8(&line) {
            Ok(text) => text,
            Err(_) => {
                ServerStats::bump(&state.stats.protocol_errors);
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
        let reply = ReplyTo {
            conn_id: id,
            completions: Arc::clone(completions),
        };
        match dispatch_request(text, state, reply) {
            Handled::Inline(response) => conn.enqueue(&response),
            Handled::Admitted => conn.busy = true,
        }
    }
    conn.flush()
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
    state: &Arc<ServerState>,
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
    let completions = Arc::new(Completions {
        done: Mutex::new(Vec::new()),
        wake_tx,
    });
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut drain_started: Option<Instant> = None;

    // Loop metric handles are resolved once here; the hot path only
    // touches relaxed atomics through them.
    let registry = state.session().registry();
    let accepted = registry.counter("event_loop_conns_accepted_total");
    let closed = registry.counter("event_loop_conns_closed_total");
    let half_closed = registry.counter("event_loop_half_closes_total");
    let drained_ctr = registry.counter("event_loop_conns_drained_total");
    let conns_gauge = registry.gauge("event_loop_connections");
    let busy_gauge = registry.gauge("event_loop_busy_jobs");
    let write_buf_gauge = registry.gauge("event_loop_write_buf_bytes");
    let poll_wait = registry.histogram("event_loop_poll_wait_us", &US_BOUNDS);
    let dispatch_hist = registry.histogram("event_loop_dispatch_us", &US_BOUNDS);

    loop {
        if crate::signal::sigint_received() {
            state.begin_shutdown();
        }
        let draining = state.shutting_down();
        if draining {
            let started = *drain_started.get_or_insert_with(Instant::now);
            // Idle connections are dropped immediately; connections
            // with a job in flight or unflushed output get the drain
            // window to finish.
            let before = conns.len();
            conns.retain(|_, conn| conn.busy || conn.pending_write() > 0);
            drained_ctr.add((before - conns.len()) as u64);
            if conns.is_empty() || started.elapsed() > DRAIN_TIMEOUT {
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

        // Worker completions first: they clear `busy`, which may let a
        // pipelined follow-up line in the read buffer dispatch below.
        let mut dead: Vec<u64> = Vec::new();
        for (id, response) in completions.take() {
            // A connection that died while its job ran simply has its
            // response dropped: no one is left to read it.
            if let Some(conn) = conns.get_mut(&id) {
                conn.busy = false;
                conn.enqueue(&response);
                if !service(conn, id, state, &completions) {
                    dead.push(id);
                }
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
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            let mut alive = true;
            if pfd.ready(POLLOUT) {
                alive = conn.flush();
            }
            if alive && pfd.ready(POLLIN) {
                let was_eof = conn.eof;
                alive = conn.fill() && service(conn, id, state, &completions);
                if !was_eof && conn.eof {
                    half_closed.inc();
                }
            }
            if alive && conn.busy && pfd.broken() && !pfd.ready(POLLIN) {
                // Peer vanished while its job runs: no one will read
                // the reply, so reclaim the slot now.
                alive = false;
            }
            if !alive {
                dead.push(id);
            }
        }
        // A connection can land in `dead` twice (completion handling
        // then readiness handling); dedup so the counter stays exact.
        dead.sort_unstable();
        dead.dedup();
        for id in dead {
            if conns.remove(&id).is_some() {
                closed.inc();
            }
        }

        conns_gauge.set(conns.len() as f64);
        let (mut busy_jobs, mut buffered) = (0u64, 0u64);
        for conn in conns.values() {
            busy_jobs += u64::from(conn.busy);
            buffered += conn.pending_write() as u64;
        }
        busy_gauge.set(busy_jobs as f64);
        write_buf_gauge.set(buffered as f64);
        dispatch_hist.observe(dispatch_started.elapsed().as_micros() as f64);
    }
}
