//! The simulation server: listeners, the worker pool, and the
//! shard-router mode.
//!
//! Architecture (all `std`, no async runtime — the offline shims
//! preclude tokio):
//!
//! ```text
//!  poll event loop ───────┐                   ┌─ worker 0 ─┐
//!   TCP + Unix listeners  ├─ NDJSON lines ──▶ │ bounded    │──▶ TracePool
//!   + /metrics listener   │                   │ work queue │    (shared)
//!   + every connection ───┘                   └─ worker N ─┘
//! ```
//!
//! * One poll(2)-driven thread owns the TCP, Unix and `/metrics`
//!   listeners and every connection: idle connections cost one pollfd
//!   per iteration, and a new connection is admitted the instant its
//!   listener is readable. It is the only connection path; poll(2) and
//!   the SIGINT shim are unix-only, so [`Server::bind`] refuses other
//!   targets with `Unsupported`.
//! * Cheap requests (`catalog`, `stats`, `ping`, `shutdown`) are answered
//!   inline; `simulate`/`sweep` go through the [`BoundedQueue`] with
//!   their connection, and the worker that runs the job writes its
//!   reply; a full queue is an immediate typed `overloaded` response
//!   (admission control), never an unbounded backlog.
//! * In router mode ([`RouterOptions`]) workers forward `simulate`/`sweep`
//!   to backend shards picked by consistent hashing instead of executing
//!   them locally; see [`crate::router`].
//! * Workers run jobs under `catch_unwind`, so a panicking job produces
//!   an `internal` error response instead of a dead worker.
//! * Graceful shutdown (SIGINT, or a `shutdown` request): stop
//!   accepting, close the queue, drain already-admitted jobs, join every
//!   thread, then return the final stats snapshot.

#[cfg(unix)]
use crate::event_loop::ReplyTo;
use crate::exec;
use crate::protocol::{
    ErrorBody, ErrorCode, Request, Response, SimulateSpec, StatsResult, SweepSpec, TraceEnvelope,
};
use crate::queue::{BoundedQueue, PushError};
use crate::router::{RouterOptions, RouterState};
use crate::stats::{self, ServeMetrics};
use smith85_core::session::SimSession;
use smith85_tracelog::{
    self as tracelog, mint_trace_id, NdjsonWriter, Severity, SinkHandle, TraceContext,
};
use std::io;
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Why [`Server::bind`] refuses non-unix targets.
const UNIX_ONLY: &str = "smith85-serve runs on unix targets only: \
     its one connection path is a poll(2) event loop";

/// Server construction parameters.
///
/// Construct directly: every field is public and `Default` is sensible.
/// [`Server::bind`] validates, so an invalid combo — router mode plus a
/// persistent store, zero workers — is a typed [`ConfigError`] before
/// any socket is bound.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP bind address, e.g. `"127.0.0.1:4085"` (port 0 for ephemeral).
    pub addr: String,
    /// Optional Unix-domain socket path. An existing socket file at the
    /// path is replaced.
    pub unix_path: Option<PathBuf>,
    /// Worker threads executing `simulate`/`sweep` jobs (or, in router
    /// mode, forwarding them).
    pub workers: usize,
    /// Work-queue capacity; submissions beyond it are rejected with
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Default per-job deadline applied when a request carries none.
    pub default_deadline_ms: Option<u64>,
    /// The instrumented simulation session every job runs through.
    /// Pass a clone to share its trace pool and metrics registry with
    /// other components; the default is a fresh session with a fresh
    /// registry.
    pub session: SimSession,
    /// Optional bind address for the Prometheus text-exposition
    /// endpoint (`GET /metrics`); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Optional NDJSON trace-journal path. When set, every worker
    /// records a per-request span tree (trace id minted at admission —
    /// or adopted from the request envelope, so a router's id threads
    /// through to the backend journal) plus an access-log event into
    /// the file; `None` disables journaling at zero cost.
    pub journal: Option<PathBuf>,
    /// Router mode: forward `simulate`/`sweep` to these backend shards
    /// instead of executing locally. Incompatible with a session store.
    pub router: Option<RouterOptions>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:4085".to_string(),
            unix_path: None,
            workers: smith85_core::sweep::default_threads(),
            queue_capacity: 64,
            default_deadline_ms: None,
            session: SimSession::default(),
            metrics_addr: None,
            journal: None,
            router: None,
        }
    }
}

/// A [`ServeOptions`] combination the server refuses to run with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The TCP bind address is empty.
    EmptyAddr,
    /// `workers` is zero: nothing would ever execute a job.
    ZeroWorkers,
    /// `queue_capacity` is zero: every job would be rejected.
    ZeroQueueCapacity,
    /// Router mode with a persistent store: the router holds no results
    /// of its own (the backends own their stores), so a store on the
    /// router could only serve stale or diverging data.
    RouterWithStore,
    /// Router mode with an empty backend list.
    RouterWithoutBackends,
    /// A per-shard in-flight budget of zero would reject every request.
    RouterZeroInflight,
    /// Zero virtual nodes per shard leaves the hash ring empty.
    RouterZeroReplicas,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyAddr => write!(f, "bind address is empty"),
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::ZeroQueueCapacity => write!(f, "queue capacity must be at least 1"),
            ConfigError::RouterWithStore => write!(
                f,
                "router mode is incompatible with a persistent store; \
                 configure the store on the backend shards instead"
            ),
            ConfigError::RouterWithoutBackends => {
                write!(f, "router mode needs at least one backend address")
            }
            ConfigError::RouterZeroInflight => {
                write!(f, "per-shard in-flight budget must be at least 1")
            }
            ConfigError::RouterZeroReplicas => {
                write!(f, "hash-ring replicas must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServeOptions {
    /// Checks the option combination; [`Server::bind`] calls this.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.addr.trim().is_empty() {
            return Err(ConfigError::EmptyAddr);
        }
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if let Some(router) = &self.router {
            if self.session.store().is_some() {
                return Err(ConfigError::RouterWithStore);
            }
            if router.backends.is_empty() {
                return Err(ConfigError::RouterWithoutBackends);
            }
            if router.shard_inflight == 0 {
                return Err(ConfigError::RouterZeroInflight);
            }
            if router.replicas == 0 {
                return Err(ConfigError::RouterZeroReplicas);
            }
        }
        Ok(())
    }
}

pub(crate) enum JobKind {
    Simulate(SimulateSpec),
    Sweep(SweepSpec),
    /// Router mode: forward the original request to a backend shard.
    Forward(Request),
}

/// Non-unix targets run no event loop ([`Server::bind`] refuses them),
/// so no job is ever admitted there and nothing replies.
#[cfg(not(unix))]
pub(crate) enum ReplyTo {}

#[cfg(not(unix))]
impl ReplyTo {
    fn send(self, _response: Response, _state: &ServerState) {
        match self {}
    }
}

pub(crate) struct Job {
    kind: JobKind,
    /// The connection the request arrived on, lent to the job: the
    /// worker that runs it writes the reply.
    reply: ReplyTo,
    admitted: Instant,
    deadline: Option<Instant>,
    /// Minted at admission (or adopted from the request envelope, as a
    /// router's forwarded id is), echoed in the response envelope and
    /// every journal record for this request.
    trace_id: String,
    /// The sender's span id from the request envelope (0 = none): the
    /// request's root span opens with this as its parent, so a merged
    /// multi-journal report hangs this node's subtree under the
    /// sender's hop span.
    parent_span: u64,
}

pub(crate) struct ServerState {
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) metrics: ServeMetrics,
    shutdown: AtomicBool,
    workers: usize,
    default_deadline_ms: Option<u64>,
    session: SimSession,
    journal: SinkHandle,
    router: Option<Arc<RouterState>>,
}

impl ServerState {
    /// The session this server executes jobs through (the event loop
    /// reads its metrics registry).
    pub(crate) fn session(&self) -> &SimSession {
        &self.session
    }

    /// The metrics view this node answers `metrics` and `/metrics`
    /// with: its own registry, federated with every shard's snapshot
    /// when running as a router.
    pub(crate) fn metrics_snapshot(&self) -> smith85_obs::RegistrySnapshot {
        match &self.router {
            Some(router) => router.federated_snapshot(),
            None => self.session.registry().snapshot(),
        }
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn snapshot(&self) -> StatsResult {
        stats::stats_result(
            &self.session,
            self.queue.depth(),
            self.queue.high_water(),
            self.workers,
            self.router.is_some(),
        )
    }

    /// Points the queue-depth gauge at the queue's current depth.
    fn publish_queue_depth(&self) {
        self.metrics.queue_depth.set(self.queue.depth() as f64);
    }
}

/// Requests a running server to shut down gracefully. Cloneable and
/// usable from any thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Begins graceful shutdown: stop accepting, drain in-flight jobs.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    #[cfg(unix)]
    unix_listener: Option<UnixListener>,
    unix_path: Option<PathBuf>,
    metrics_listener: Option<TcpListener>,
    state: Arc<ServerState>,
}

impl Server {
    /// Validates the options and binds the TCP (and optional Unix and
    /// metrics) listeners.
    ///
    /// # Errors
    ///
    /// `InvalidInput` wrapping a [`ConfigError`] for a rejected option
    /// combination; `Unsupported` on a non-unix target; otherwise the
    /// bind failure.
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        opts.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if cfg!(not(unix)) {
            return Err(io::Error::new(io::ErrorKind::Unsupported, UNIX_ONLY));
        }
        let listener = TcpListener::bind(&opts.addr)?;
        #[cfg(unix)]
        let unix_listener = match &opts.unix_path {
            None => None,
            Some(path) => Some(crate::transport::bind_unix(path)?),
        };
        let metrics_listener = match &opts.metrics_addr {
            None => None,
            Some(addr) => Some(TcpListener::bind(addr)?),
        };
        // Resolving the serve-layer handles once here also registers
        // them, so the Prometheus exposition lists every family from the
        // first scrape, before any job has run.
        let registry = opts.session.registry();
        let metrics = ServeMetrics::resolve(registry);
        let router = opts
            .router
            .clone()
            .map(|router_opts| Arc::new(RouterState::new(router_opts, registry.clone())));
        let journal = match &opts.journal {
            None => SinkHandle::disabled(),
            Some(path) => SinkHandle::new(Arc::new(NdjsonWriter::create(path)?)),
        };
        Ok(Server {
            listener,
            #[cfg(unix)]
            unix_listener,
            unix_path: opts.unix_path.clone(),
            metrics_listener,
            state: Arc::new(ServerState {
                queue: BoundedQueue::new(opts.queue_capacity),
                metrics,
                shutdown: AtomicBool::new(false),
                workers: opts.workers.max(1),
                default_deadline_ms: opts.default_deadline_ms,
                session: opts.session,
                journal,
                router,
            }),
        })
    }

    /// The bound Prometheus endpoint address, when one was requested
    /// (useful after binding port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The bound TCP address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs until shutdown (SIGINT, a `shutdown` request, or a
    /// [`ShutdownHandle`]), then drains and returns the final counters.
    ///
    /// # Errors
    ///
    /// Returns event-loop I/O failures (after the drain); per-connection
    /// and per-job errors are handled internally and never abort the
    /// server.
    pub fn run(self) -> io::Result<StatsResult> {
        #[cfg(unix)]
        crate::signal::install_sigint_handler();

        let state = Arc::clone(&self.state);
        let mut workers = Vec::with_capacity(state.workers);
        for i in 0..state.workers {
            let state = Arc::clone(&state);
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))?,
            );
        }

        let prober = match &state.router {
            None => None,
            Some(router) => {
                let router = Arc::clone(router);
                let state = Arc::clone(&state);
                Some(
                    thread::Builder::new()
                        .name("serve-router-probe".to_string())
                        .spawn(move || prober_loop(&router, &state))?,
                )
            }
        };

        #[cfg(unix)]
        let served = crate::event_loop::run(
            &self.listener,
            self.unix_listener.as_ref(),
            self.metrics_listener.as_ref(),
            &state,
        );
        #[cfg(not(unix))]
        let served: io::Result<()> = Err(io::Error::new(io::ErrorKind::Unsupported, UNIX_ONLY));

        // The loop returns once every in-flight reply is flushed (or on
        // a poll failure); close the queue either way so the workers
        // finish what they hold and exit.
        state.begin_shutdown();
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(handle) = prober {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        served?;
        Ok(state.snapshot())
    }

    /// Binds and runs the server on a background thread; the returned
    /// [`RunningServer`] exposes the bound address and a stop method.
    /// This is the entry point tests, the load generator and embedders
    /// use.
    ///
    /// # Errors
    ///
    /// Returns bind or spawn failures.
    pub fn spawn(opts: ServeOptions) -> io::Result<RunningServer> {
        let server = Server::bind(opts)?;
        let addr = server.local_addr()?;
        let metrics_addr = server.metrics_addr();
        let handle = server.shutdown_handle();
        let thread = thread::Builder::new()
            .name("serve-main".to_string())
            .spawn(move || server.run())?;
        Ok(RunningServer {
            addr,
            metrics_addr,
            handle,
            thread,
        })
    }
}

/// A server running on a background thread (see [`Server::spawn`]).
pub struct RunningServer {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    handle: ShutdownHandle,
    thread: thread::JoinHandle<io::Result<StatsResult>>,
}

impl RunningServer {
    /// The bound TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus endpoint address, when one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A shutdown handle usable from other threads.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Requests shutdown, waits for the drain, and returns the final
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns the server's I/O error, or `Other` if its thread
    /// panicked.
    pub fn stop(self) -> io::Result<StatsResult> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// The health-probe loop for router mode: one round per interval, with
/// the sleep sliced so shutdown is noticed promptly.
fn prober_loop(router: &RouterState, state: &ServerState) {
    while !state.shutting_down() {
        router.probe_round();
        let interval = router.probe_interval();
        let start = Instant::now();
        while start.elapsed() < interval && !state.shutting_down() {
            thread::sleep(Duration::from_millis(20).min(interval));
        }
    }
}

fn worker_loop(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        state.publish_queue_depth();
        let (reply, response) = run_job(state, job);
        // The request's span is closed by now, so whatever the client
        // pipelined behind it is attributed to its own request.
        reply.send(response, state);
        // The gauge must track the queue on *every* exit path, not just
        // the next iteration's pop.
        state.publish_queue_depth();
    }
    // Shutdown drain finished: whatever value the gauge last held, the
    // queue is empty now — report that, so a final scrape never shows a
    // stale nonzero depth.
    state.publish_queue_depth();
    state.journal.flush();
}

/// Runs one admitted job under its request span; returns the job's
/// connection with the response it owes.
fn run_job(state: &ServerState, job: Job) -> (ReplyTo, Response) {
    let metrics = &state.metrics;
    let queue_wait = job.admitted.elapsed();
    let queue_ms = queue_wait.as_millis() as u64;
    metrics
        .queue_wait_ms
        .observe(queue_wait.as_secs_f64() * 1_000.0);
    metrics.queue_us.observe(queue_wait.as_secs_f64() * 1e6);
    let kind_name = match &job.kind {
        JobKind::Simulate(_) => "simulate",
        JobKind::Sweep(_) => "sweep",
        JobKind::Forward(_) => "forward",
    };
    // Root span for the whole request, under the trace id minted at
    // admission; entered thread-locally so the session kernels, the
    // pool, and the router's forward spans land in the same trace.
    // A router roots `router_request` (its hop spans nest below); a
    // shard receiving a forwarded request roots under the wire
    // `parent_span`, linking the journals into one tree.
    let root_name = if state.router.is_some() {
        "router_request"
    } else {
        "request"
    };
    let span = state.journal.enabled().then(|| {
        TraceContext::root_with_parent(
            state.journal.clone(),
            &job.trace_id,
            job.parent_span,
            root_name,
            vec![("kind".to_string(), kind_name.into())],
        )
    });
    let _enter = span.as_ref().map(|s| tracelog::enter(s.ctx().clone()));
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            metrics.deadline_misses.inc();
            access_log(&span, kind_name, "deadline_miss", queue_ms, 0);
            let error = ErrorBody::new(
                ErrorCode::DeadlineExceeded,
                format!("job waited {queue_ms} ms in queue, past its deadline"),
            );
            return (job.reply, Response::Error(error));
        }
    }
    let forwarded = matches!(&job.kind, JobKind::Forward(_));
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match &job.kind {
        JobKind::Simulate(spec) => exec::run_simulate(&state.session, spec).map(Response::Simulate),
        JobKind::Sweep(spec) => exec::run_sweep(&state.session, spec).map(Response::Sweep),
        JobKind::Forward(request) => {
            let router = state
                .router
                .as_ref()
                .expect("forward jobs exist only in router mode");
            router.forward(request, &job.trace_id).map(|outcome| {
                let ctx = tracelog::current();
                if ctx.enabled() {
                    ctx.event(
                        Severity::Info,
                        "router_route",
                        vec![
                            ("shard".to_string(), outcome.shard.clone().into()),
                            ("hedges".to_string(), outcome.hedges.into()),
                        ],
                    );
                }
                outcome.response
            })
        }
    }));
    let exec_elapsed = start.elapsed();
    let exec_ms = exec_elapsed.as_millis() as u64;
    metrics
        .exec_ms
        .observe(exec_elapsed.as_secs_f64() * 1_000.0);
    let busy_counter = match &job.kind {
        JobKind::Simulate(_) => Some(&metrics.busy_ms_simulate),
        JobKind::Sweep(_) => Some(&metrics.busy_ms_sweep),
        JobKind::Forward(_) => None,
    };
    if let Some(counter) = busy_counter {
        counter.add(exec_ms);
    }
    let (response, outcome_name) = match outcome {
        Ok(Ok(mut response)) => {
            if job
                .deadline
                .is_some_and(|deadline| Instant::now() > deadline)
            {
                metrics.deadline_misses.inc();
                (
                    Response::Error(ErrorBody::new(
                        ErrorCode::DeadlineExceeded,
                        format!("job finished after its deadline ({exec_ms} ms of work)"),
                    )),
                    "deadline_miss",
                )
            } else {
                // Forwarded responses pass through verbatim — their
                // queue/exec times and trace id describe the backend
                // that actually ran the job, which is what makes the
                // router transparent (and bit-identical) to clients.
                if !forwarded {
                    match &mut response {
                        Response::Simulate(r) => {
                            r.queue_ms = queue_ms;
                            r.exec_ms = exec_ms;
                            r.trace_id = job.trace_id.clone();
                        }
                        Response::Sweep(r) => {
                            r.queue_ms = queue_ms;
                            r.exec_ms = exec_ms;
                            r.trace_id = job.trace_id.clone();
                        }
                        _ => {}
                    }
                }
                metrics.completed.inc();
                (response, "ok")
            }
        }
        Ok(Err(error)) => {
            // A shard at its budget (or an unreachable ring) is an
            // overload signal, not a protocol violation.
            if error.code == ErrorCode::Overloaded {
                metrics.rejected_overload.inc();
            } else {
                metrics.protocol_errors.inc();
            }
            (Response::Error(error), "error")
        }
        Err(payload) => (
            Response::Error(ErrorBody::new(
                ErrorCode::Internal,
                format!(
                    "job panicked: {}",
                    smith85_core::sweep::panic_message(payload.as_ref())
                ),
            )),
            "panic",
        ),
    };
    access_log(&span, kind_name, outcome_name, queue_ms, exec_ms);
    (job.reply, response)
}

/// One per-request access-log event: kind, outcome, and the two wait
/// components, attached to the request's root span.
fn access_log(
    span: &Option<smith85_tracelog::SpanGuard>,
    kind: &str,
    outcome: &str,
    queue_ms: u64,
    exec_ms: u64,
) {
    let Some(span) = span else { return };
    let severity = if outcome == "ok" {
        Severity::Info
    } else {
        Severity::Error
    };
    span.ctx().event(
        severity,
        "access_log",
        vec![
            ("kind".to_string(), kind.into()),
            ("outcome".to_string(), outcome.into()),
            ("queue_ms".to_string(), queue_ms.into()),
            ("exec_ms".to_string(), exec_ms.into()),
        ],
    );
}

/// How [`dispatch_request`] settled a request.
pub(crate) enum Handled {
    /// Answered without touching the worker pool.
    Inline(Box<Response>),
    /// A job for the worker pool: [`submit_job`] admits it together
    /// with the connection its reply goes to.
    Job(JobRequest),
}

/// A decoded `simulate`/`sweep` (on a router, forward) request that
/// [`submit_job`] has yet to admit.
pub(crate) struct JobRequest {
    kind: JobKind,
    deadline_ms: Option<u64>,
    envelope: TraceEnvelope,
}

/// Parses and routes one request line: cheap requests are answered
/// inline, `simulate`/`sweep` become a [`JobRequest`].
pub(crate) fn dispatch_request(line: &str, state: &ServerState) -> Handled {
    let started = Instant::now();
    let decoded = Request::decode_with_envelope(line);
    state
        .metrics
        .decode_us
        .observe(started.elapsed().as_secs_f64() * 1e6);
    let (request, envelope) = match decoded {
        Ok(decoded) => decoded,
        Err(error) => {
            state.metrics.protocol_errors.inc();
            return Handled::Inline(Box::new(Response::Error(error)));
        }
    };
    match request {
        Request::Ping => Handled::Inline(Box::new(Response::Pong)),
        Request::Catalog => {
            state.metrics.catalog_requests.add(1);
            Handled::Inline(Box::new(Response::Catalog(exec::catalog_result())))
        }
        Request::Stats => {
            // Counted before the snapshot, so the reply includes itself.
            state.metrics.stats_requests.add(1);
            Handled::Inline(Box::new(Response::Stats(state.snapshot())))
        }
        // On a router this federates the healthy shards' snapshots;
        // every fetch is bounded by the (short) connect timeout and
        // known-down shards are skipped outright, so the inline answer
        // stays fast even with a dead backend.
        Request::Metrics => Handled::Inline(Box::new(Response::Metrics(state.metrics_snapshot()))),
        Request::Shutdown => {
            state.begin_shutdown();
            Handled::Inline(Box::new(Response::Ok))
        }
        Request::Simulate(spec) => {
            let deadline_ms = spec.deadline_ms.or(state.default_deadline_ms);
            let kind = if state.router.is_some() {
                JobKind::Forward(Request::Simulate(spec))
            } else {
                JobKind::Simulate(spec)
            };
            Handled::Job(JobRequest {
                kind,
                deadline_ms,
                envelope,
            })
        }
        Request::Sweep(spec) => {
            let deadline_ms = spec.deadline_ms.or(state.default_deadline_ms);
            let kind = if state.router.is_some() {
                JobKind::Forward(Request::Sweep(spec))
            } else {
                JobKind::Sweep(spec)
            };
            Handled::Job(JobRequest {
                kind,
                deadline_ms,
                envelope,
            })
        }
    }
}

/// Admits `request` to the work queue with the connection its reply
/// goes to. A full queue or a draining server refuses it, and the
/// connection comes back with the typed error it owes the client.
pub(crate) fn submit_job(
    state: &ServerState,
    request: JobRequest,
    reply: ReplyTo,
) -> Result<(), (ReplyTo, Box<Response>)> {
    let JobRequest {
        kind,
        deadline_ms,
        envelope,
    } = request;
    let requests = match &kind {
        JobKind::Sweep(_) | JobKind::Forward(Request::Sweep(_)) => &state.metrics.sweep_requests,
        _ => &state.metrics.simulate_requests,
    };
    let admitted = Instant::now();
    let job = Job {
        kind,
        reply,
        admitted,
        deadline: deadline_ms.map(|ms| admitted + Duration::from_millis(ms)),
        trace_id: envelope.trace_id.unwrap_or_else(mint_trace_id),
        parent_span: envelope.parent_span.unwrap_or(0),
    };
    match state.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full(job)) => {
            state.metrics.rejected_overload.inc();
            let error = ErrorBody::new(
                ErrorCode::Overloaded,
                format!(
                    "work queue is full ({} jobs); retry later",
                    state.queue.depth()
                ),
            );
            return Err((job.reply, Box::new(Response::Error(error))));
        }
        Err(PushError::Closed(job)) => {
            let error = ErrorBody::new(
                ErrorCode::ShuttingDown,
                "server is draining and no longer admits work",
            );
            return Err((job.reply, Box::new(Response::Error(error))));
        }
    }
    requests.add(1);
    state.publish_queue_depth();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_and_zero_queue_are_typed_errors() {
        let check = |opts: ServeOptions| opts.validate().unwrap_err();
        assert_eq!(
            check(ServeOptions {
                workers: 0,
                ..ServeOptions::default()
            }),
            ConfigError::ZeroWorkers
        );
        assert_eq!(
            check(ServeOptions {
                queue_capacity: 0,
                ..ServeOptions::default()
            }),
            ConfigError::ZeroQueueCapacity
        );
        assert_eq!(
            check(ServeOptions {
                addr: "  ".to_string(),
                ..ServeOptions::default()
            }),
            ConfigError::EmptyAddr
        );
    }

    #[test]
    fn router_combos_are_validated() {
        let backends = || RouterOptions {
            backends: vec!["127.0.0.1:1".to_string()],
            ..RouterOptions::default()
        };
        let routed = |router: RouterOptions| {
            ServeOptions {
                router: Some(router),
                ..ServeOptions::default()
            }
            .validate()
        };
        assert_eq!(
            routed(RouterOptions::default()).unwrap_err(),
            ConfigError::RouterWithoutBackends
        );
        assert_eq!(
            routed(RouterOptions {
                shard_inflight: 0,
                ..backends()
            })
            .unwrap_err(),
            ConfigError::RouterZeroInflight
        );
        assert_eq!(
            routed(RouterOptions {
                replicas: 0,
                ..backends()
            })
            .unwrap_err(),
            ConfigError::RouterZeroReplicas
        );
        assert!(routed(backends()).is_ok());
    }

    #[test]
    fn router_plus_store_is_rejected_before_binding() {
        let dir = std::env::temp_dir().join(format!(
            "smith85-serve-cfg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let session = SimSession::builder()
            .store(dir.join("store"))
            .build()
            .expect("session with store");
        let err = ServeOptions {
            session,
            router: Some(RouterOptions {
                backends: vec!["127.0.0.1:1".to_string()],
                ..RouterOptions::default()
            }),
            ..ServeOptions::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::RouterWithStore);
        assert!(err.to_string().contains("store"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bind_rejects_invalid_options_with_invalid_input() {
        let err = Server::bind(ServeOptions {
            addr: String::new(),
            ..ServeOptions::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
