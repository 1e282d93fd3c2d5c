//! A blocking NDJSON client for the serve protocol.
//!
//! The surface is [`Client::builder`]: pick an [`Endpoint`] (TCP or a
//! Unix socket), optionally attach a default deadline, a [`RetryPolicy`]
//! and a trace id, then [`ClientBuilder::connect`]. [`Client::call`]
//! returns a typed [`ClientError`] — a server-side [`ErrorBody`] is
//! `Err(Server(..))`, not a response the caller has to pattern-match
//! for failure.
//!
//! One request per call; responses come back in order, so a single
//! connection is also a valid way to issue a request sequence.

use crate::protocol::{ErrorBody, ErrorCode, Request, Response, TraceEnvelope, MAX_LINE_BYTES};
use crate::transport::{Endpoint, Transport};
use std::io::{self, BufRead, BufReader, Read, Write};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration;

/// Ceiling for one backoff delay, whatever the attempt count.
pub const MAX_BACKOFF_MS: u64 = 5_000;

/// Capped exponential backoff with deterministic jitter, for retrying
/// *transient* failures: a typed `overloaded` response (the server's
/// admission queue is full) or a refused connection (the server is
/// restarting). Permanent failures — bad requests, unknown workloads,
/// protocol errors — are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = fail fast).
    pub retries: u32,
    /// Base delay before the first retry; attempt `n` waits roughly
    /// `backoff_ms << n`, capped at [`MAX_BACKOFF_MS`].
    pub backoff_ms: u64,
}

impl RetryPolicy {
    /// No retries: a single attempt, fail fast.
    pub const NONE: RetryPolicy = RetryPolicy {
        retries: 0,
        backoff_ms: 0,
    };

    /// The delay before retry number `attempt` (0-based): exponential
    /// growth capped at [`MAX_BACKOFF_MS`], minus up to half of itself as
    /// deterministic jitter seeded by `seed` — so a fleet of scripted
    /// clients hitting the same overloaded server spreads out instead of
    /// retrying in lockstep.
    pub fn delay_ms(&self, attempt: u32, seed: u64) -> u64 {
        let exp = self
            .backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(MAX_BACKOFF_MS);
        if exp == 0 {
            return 0;
        }
        // splitmix64, same mix the fault injectors use.
        let mut z = seed
            .wrapping_add(u64::from(attempt))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let jitter = (z ^ (z >> 31)) % (exp / 2 + 1);
        exp - jitter
    }
}

/// What a [`Client::call`] can fail with, each failure mode typed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure: connect, write, read, or timeout.
    Io(io::Error),
    /// The server answered with a typed protocol error.
    Server(ErrorBody),
    /// The server's reply line did not decode.
    Protocol(String),
    /// The builder was misconfigured (e.g. an invalid trace id).
    Config(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(body) => write!(f, "server error: {body}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Config(msg) => write!(f, "client configuration error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether this failure is worth retrying: a typed `overloaded`
    /// response or a refused connection.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Server(body) => body.code == ErrorCode::Overloaded,
            ClientError::Io(e) => e.kind() == io::ErrorKind::ConnectionRefused,
            _ => false,
        }
    }
}

/// Runs `attempt` until it succeeds, fails permanently, or the policy's
/// retry budget is spent, sleeping through `sleep` between attempts (the
/// one retry loop, shared by [`ClientBuilder::connect`] and
/// [`Client::call`]; tests inject the sleep). Returns the last outcome.
fn with_retries<T>(
    policy: RetryPolicy,
    seed: u64,
    mut attempt: impl FnMut() -> Result<T, ClientError>,
    mut sleep: impl FnMut(Duration),
) -> Result<T, ClientError> {
    let mut retry = 0;
    loop {
        match attempt() {
            Err(e) if e.is_transient() && retry < policy.retries => {
                sleep(Duration::from_millis(policy.delay_ms(retry, seed)));
                retry += 1;
            }
            outcome => return outcome,
        }
    }
}

/// Jitter seed: stable per request shape, so reruns are reproducible,
/// but different requests in a sweep spread their retries.
fn jitter_seed(encoded: &str) -> u64 {
    encoded.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Configures and connects a [`Client`] (see [`Client::builder`]).
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    endpoint: Endpoint,
    deadline_ms: Option<u64>,
    retry: RetryPolicy,
    trace_id: Option<String>,
    timeout: Option<Duration>,
}

impl ClientBuilder {
    /// Connect over TCP to `addr`.
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.endpoint = Endpoint::Tcp(addr.into());
        self
    }

    /// Connect to a Unix-domain socket (unix targets only).
    #[cfg(unix)]
    #[must_use]
    pub fn unix(mut self, path: impl Into<PathBuf>) -> Self {
        self.endpoint = Endpoint::Unix(path.into());
        self
    }

    /// Default per-request deadline, attached to every `simulate`/`sweep`
    /// that does not already carry one.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline_ms = Some(deadline.as_millis() as u64);
        self
    }

    /// Retry transient failures (typed `overloaded`, refused
    /// connections) with this policy; the default is fail-fast.
    #[must_use]
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attach this trace id to every request envelope, so the server
    /// (and, through a router, the backend shard) journals the request
    /// under the caller's id. Must be 1–64 ASCII-alphanumeric bytes.
    #[must_use]
    pub fn trace_id(mut self, trace_id: impl Into<String>) -> Self {
        self.trace_id = Some(trace_id.into());
        self
    }

    /// Read timeout for responses (`None`, the default, blocks forever).
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Validates the configuration and connects. A refused connection is
    /// retried per the builder's [`RetryPolicy`] (a restarting server is
    /// exactly the transient failure the policy describes); every other
    /// failure is immediate.
    ///
    /// # Errors
    ///
    /// [`ClientError::Config`] for an invalid trace id;
    /// [`ClientError::Io`] for the connect failure.
    pub fn connect(self) -> Result<Client, ClientError> {
        if let Some(id) = &self.trace_id {
            let valid =
                !id.is_empty() && id.len() <= 64 && id.bytes().all(|b| b.is_ascii_alphanumeric());
            if !valid {
                return Err(ClientError::Config(format!(
                    "trace id {id:?} must be 1-64 ASCII-alphanumeric bytes"
                )));
            }
        }
        let seed = jitter_seed(&format!("{:?}", self.endpoint));
        let stream = with_retries(
            self.retry,
            seed,
            || Ok(self.endpoint.connect()?),
            std::thread::sleep,
        )?;
        if let Some(timeout) = self.timeout {
            stream.set_read_timeout(Some(timeout))?;
        }
        let reader = BufReader::new(stream.try_clone_transport()?);
        Ok(Client {
            reader,
            writer: stream,
            endpoint: self.endpoint,
            deadline_ms: self.deadline_ms,
            retry: self.retry,
            envelope: TraceEnvelope {
                trace_id: self.trace_id,
                parent_span: None,
            },
            timeout: self.timeout,
        })
    }
}

/// A connected client over any [`Transport`].
///
/// The `Debug` form shows the endpoint and policy, not the stream.
pub struct Client {
    reader: BufReader<Box<dyn Transport>>,
    writer: Box<dyn Transport>,
    endpoint: Endpoint,
    deadline_ms: Option<u64>,
    retry: RetryPolicy,
    envelope: TraceEnvelope,
    timeout: Option<Duration>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("endpoint", &self.endpoint)
            .field("deadline_ms", &self.deadline_ms)
            .field("retry", &self.retry)
            .field("trace_id", &self.envelope.trace_id)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// A builder defaulting to TCP against the default serve address,
    /// no deadline, no retries, no trace id.
    pub fn builder() -> ClientBuilder {
        ClientBuilder {
            endpoint: Endpoint::Tcp("127.0.0.1:4085".to_string()),
            deadline_ms: None,
            retry: RetryPolicy::NONE,
            trace_id: None,
            timeout: None,
        }
    }

    /// Sends one request and returns its typed outcome: deadline and
    /// trace id from the builder are attached, transient failures are
    /// retried per the builder's [`RetryPolicy`] (reconnecting when the
    /// connection itself failed), and a server-side error body comes
    /// back as [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let effective = self.with_deadline(request);
        let line = effective.encode_with_envelope(&self.envelope);
        let seed = jitter_seed(&line);
        // A refused connection means this stream is dead, so the next
        // attempt reconnects first; transient overloads keep the
        // existing connection.
        let mut stream_dead = false;
        with_retries(
            self.retry,
            seed,
            || {
                if stream_dead {
                    self.reconnect()?;
                }
                let outcome = match self.exchange(&line) {
                    Ok(Response::Error(body)) => Err(ClientError::Server(body)),
                    Ok(response) => Ok(response),
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        Err(ClientError::Protocol(e.to_string()))
                    }
                    Err(e) => Err(ClientError::Io(e)),
                };
                stream_dead = matches!(outcome, Err(ClientError::Io(_)));
                outcome
            },
            std::thread::sleep,
        )
    }

    /// Sends one request and reads its raw response — no deadline or
    /// trace injection, no retries, server errors as `Ok(Error(..))`.
    /// The untyped surface wire-level tests and the benchmark use.
    ///
    /// # Errors
    ///
    /// Returns I/O failures, a closed connection (`UnexpectedEof`), or an
    /// undecodable response line (`InvalidData`).
    pub fn call_raw(&mut self, request: &Request) -> io::Result<Response> {
        self.exchange(&request.encode())
    }

    /// Sends an arbitrary line (no newline) and reads one response.
    /// This is the hook the malformed-input tests use to put invalid
    /// bytes on the wire.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call_raw`].
    pub fn send_raw_line(&mut self, line: &str) -> io::Result<Response> {
        self.exchange(line)
    }

    /// Attaches the builder's default deadline to a job request that
    /// carries none.
    fn with_deadline(&self, request: &Request) -> Request {
        let Some(default_ms) = self.deadline_ms else {
            return request.clone();
        };
        let mut request = request.clone();
        match &mut request {
            Request::Simulate(spec) if spec.deadline_ms.is_none() => {
                spec.deadline_ms = Some(default_ms);
            }
            Request::Sweep(spec) if spec.deadline_ms.is_none() => {
                spec.deadline_ms = Some(default_ms);
            }
            _ => {}
        }
        request
    }

    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = self.endpoint.connect()?;
        if let Some(timeout) = self.timeout {
            stream.set_read_timeout(Some(timeout))?;
        }
        self.reader = BufReader::new(stream.try_clone_transport()?);
        self.writer = stream;
        Ok(())
    }

    fn exchange(&mut self, line: &str) -> io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        // Responses can legitimately exceed the *request* line cap (the
        // catalog lists 49 profiles), so allow a generous multiple.
        let cap = MAX_LINE_BYTES * 8;
        loop {
            let before = line.len();
            let n = self
                .reader
                .by_ref()
                .take((cap - before) as u64)
                .read_line(&mut line)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if line.ends_with('\n') {
                break;
            }
            if line.len() >= cap {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response line exceeds the client cap",
                ));
            }
        }
        Response::decode(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            retries: 10,
            backoff_ms: 100,
        };
        // Jitter subtracts at most half, so each delay sits in
        // [ceil(exp/2), exp] for exp = min(100 << n, 5000).
        for (attempt, exp) in [(0u32, 100u64), (1, 200), (2, 400), (6, 5_000), (16, 5_000)] {
            let d = policy.delay_ms(attempt, 42);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: delay {d} outside [{}, {exp}]",
                exp / 2
            );
        }
        // Huge attempt counts must not overflow the shift.
        let _ = policy.delay_ms(u32::MAX, 42);
    }

    #[test]
    fn delay_is_deterministic_per_seed() {
        let policy = RetryPolicy {
            retries: 3,
            backoff_ms: 250,
        };
        assert_eq!(policy.delay_ms(2, 7), policy.delay_ms(2, 7));
        // Zero base means zero wait, jitter included.
        let eager = RetryPolicy {
            retries: 3,
            backoff_ms: 0,
        };
        assert_eq!(eager.delay_ms(5, 7), 0);
    }

    #[test]
    fn transient_classification() {
        let overloaded = ClientError::Server(ErrorBody::new(ErrorCode::Overloaded, "queue full"));
        assert!(overloaded.is_transient());
        let refused =
            ClientError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"));
        assert!(refused.is_transient());
        let bad = ClientError::Server(ErrorBody::new(ErrorCode::BadRequest, "nope"));
        assert!(!bad.is_transient());
        let eof = ClientError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        assert!(!eof.is_transient());
        assert!(!ClientError::Protocol("junk".to_string()).is_transient());
    }

    fn io_kind(result: Result<(), ClientError>) -> io::ErrorKind {
        match result {
            Err(ClientError::Io(e)) => e.kind(),
            other => panic!("expected an I/O failure, got {other:?}"),
        }
    }

    #[test]
    fn retry_exhausts_budget_on_refused_connections() {
        let mut attempts = 0u32;
        let mut sleeps: Vec<u64> = Vec::new();
        let policy = RetryPolicy {
            retries: 3,
            backoff_ms: 10,
        };
        let result = with_retries(
            policy,
            42,
            || {
                attempts += 1;
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, "refused").into())
            },
            |d| sleeps.push(d.as_millis() as u64),
        );
        assert_eq!(attempts, 4, "1 initial try + 3 retries");
        assert_eq!(sleeps.len(), 3, "sleeps only between attempts");
        assert_eq!(io_kind(result), io::ErrorKind::ConnectionRefused);
        // Backoff must not shrink below the jittered floor of the base.
        assert!(sleeps.iter().all(|&ms| ms <= MAX_BACKOFF_MS));
    }

    #[test]
    fn permanent_failures_do_not_retry() {
        let mut attempts = 0u32;
        let policy = RetryPolicy {
            retries: 5,
            backoff_ms: 10,
        };
        let result = with_retries(
            policy,
            42,
            || {
                attempts += 1;
                Err(io::Error::new(io::ErrorKind::PermissionDenied, "denied").into())
            },
            |_| panic!("must not sleep on a permanent failure"),
        );
        assert_eq!(attempts, 1);
        assert_eq!(io_kind(result), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn builder_rejects_junk_trace_ids() {
        let err = Client::builder()
            .trace_id("has spaces!")
            .connect()
            .unwrap_err();
        assert!(matches!(err, ClientError::Config(_)), "{err}");
        let err = Client::builder().trace_id("").connect().unwrap_err();
        assert!(matches!(err, ClientError::Config(_)), "{err}");
    }

    #[test]
    fn deadline_is_attached_only_when_absent() {
        // The connect completes on the kernel backlog; nothing accepts.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = Client::builder()
            .addr(listener.local_addr().expect("local addr").to_string())
            .deadline(Duration::from_millis(750))
            .connect()
            .expect("connect");
        let bare = Request::Simulate(crate::protocol::SimulateSpec {
            workload: "VCCOM".to_string(),
            len: 1,
            seed: None,
            cache: crate::protocol::CacheSpec {
                size: 1024,
                line: 16,
                ways: None,
                purge: None,
            },
            policy: None,
            deadline_ms: None,
        });
        match client.with_deadline(&bare) {
            Request::Simulate(spec) => assert_eq!(spec.deadline_ms, Some(750)),
            other => panic!("unexpected: {other:?}"),
        }
        let mut explicit = bare.clone();
        if let Request::Simulate(spec) = &mut explicit {
            spec.deadline_ms = Some(10);
        }
        match client.with_deadline(&explicit) {
            Request::Simulate(spec) => assert_eq!(spec.deadline_ms, Some(10)),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
