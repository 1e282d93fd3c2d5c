//! smith85-tracelog: request-scoped structured tracing for the Smith '85
//! cache-evaluation reproduction.
//!
//! Like `smith85-obs` this crate is std-only. It records *typed events*
//! ([`TraceEvent`]: span start/end plus point events, each carrying a
//! monotonic timestamp, a severity, free-form key-value [`fields`], and a
//! `trace_id`/`span_id`/`parent_span_id` triple) into any [`EventSink`].
//! Two sinks ship here:
//!
//! - [`RingJournal`] — a lock-sharded bounded in-memory ring; overflow
//!   drops the *oldest* events and counts the drops, so the newest
//!   evidence is always present when something goes wrong.
//! - [`NdjsonWriter`] — one JSON object per line to a file, encoded by
//!   this crate's [`json`] codec (the workspace's one JSON codec, which
//!   the serve wire protocol uses too). Lines are written by a
//!   dedicated writer thread that flushes after each drained batch,
//!   so `smith85 trace follow` can tail a live journal while emission
//!   stays off the request path; [`EventSink::flush`] blocks until
//!   everything emitted so far is durable. The first line is a
//!   versioned `{"v":1,...}` header, written synchronously on create.
//!
//! Propagation uses a cheap, cloneable [`TraceContext`] plus a
//! thread-local "current context" ([`current`]/[`enter`]) so existing
//! call seams (session kernels, trace pool, sweep jobs, suite runner,
//! serve workers) pick up attribution without signature changes. When no
//! sink is installed everything short-circuits on [`SinkHandle::enabled`]
//! and the tracing layer costs nothing.
//!
//! Offline analysis lives in [`report`]: span trees with self/total
//! time, top-N slowest traces, and collapsed-stack (flamegraph
//! compatible) output, all consumed by `smith85 trace report`.
//!
//! [`fields`]: TraceEvent::fields

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod report;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Journal format version emitted in the NDJSON header line.
pub const JOURNAL_VERSION: u64 = 1;

/// Schema identifier emitted in the NDJSON header line.
pub const JOURNAL_SCHEMA: &str = "smith85-tracelog-v1";

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (wall-clock interval begins).
    SpanStart,
    /// A span closed; carries a `dur_us` field with the measured duration.
    SpanEnd,
    /// A point-in-time event attached to the current span.
    Event,
}

impl EventKind {
    /// Wire name used in the NDJSON journal.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Event => "event",
        }
    }

    /// Parses the wire name back; `None` for unknown kinds.
    pub fn parse(s: &str) -> Option<EventKind> {
        match s {
            "span_start" => Some(EventKind::SpanStart),
            "span_end" => Some(EventKind::SpanEnd),
            "event" => Some(EventKind::Event),
            _ => None,
        }
    }
}

/// How important an event is. Spans are recorded at `Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Diagnostic detail.
    Debug,
    /// Normal operation.
    Info,
    /// Something suspicious but non-fatal.
    Warn,
    /// A failure (for example a panicked sweep job).
    Error,
}

impl Severity {
    /// Wire name used in the NDJSON journal.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses the wire name back; `None` for unknown severities.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// A key-value field payload attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string value.
    Str(String),
    /// An unsigned integer value (counts, sizes, indices).
    U64(u64),
    /// A floating-point value (durations in ms, ratios).
    F64(f64),
}

impl FieldValue {
    /// The string payload, if this is a string field.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as u64, if numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::F64(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Str(s) => write!(f, "{s}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

/// One structured record in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the process's monotonic epoch (see [`now_us`]).
    pub ts_us: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Severity.
    pub severity: Severity,
    /// Span or event name (for example `"pool_materialize"`).
    pub name: String,
    /// The request/run this record belongs to.
    pub trace_id: Arc<str>,
    /// The span this record describes (or is attached to, for events).
    pub span_id: u64,
    /// Parent span id; `0` means "no parent" (a root span).
    pub parent_span_id: u64,
    /// Free-form key-value payload.
    pub fields: Vec<(String, FieldValue)>,
}

/// Microseconds since the process-wide monotonic epoch.
///
/// The epoch is the first call in the process, so timestamps are small,
/// strictly meaningful for ordering/duration, and never go backwards.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Mints a 16-hex-char trace id, unique within (and overwhelmingly
/// likely across) processes: wall-clock nanoseconds mixed with a
/// process-local counter through a splitmix64 finalizer.
pub fn mint_trace_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut z = nanos
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    format!("{z:016x}")
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives every recorded [`TraceEvent`]. Implementations must be
/// cheap and non-blocking-ish: emitters call from hot paths.
pub trait EventSink: Send + Sync {
    /// Records one event.
    fn emit(&self, event: TraceEvent);
    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// A cloneable, optionally-absent handle to a sink. `disabled()` is the
/// zero-cost default: call sites guard all event construction on
/// [`SinkHandle::enabled`].
#[derive(Clone)]
pub struct SinkHandle {
    inner: Option<Arc<dyn EventSink>>,
}

impl SinkHandle {
    /// A handle that records nothing and costs nothing.
    pub fn disabled() -> SinkHandle {
        SinkHandle { inner: None }
    }

    /// Wraps a concrete sink.
    pub fn new(sink: Arc<dyn EventSink>) -> SinkHandle {
        SinkHandle { inner: Some(sink) }
    }

    /// Whether events will actually be recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Forwards to the sink, if any.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.inner {
            sink.emit(event);
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.inner {
            sink.flush();
        }
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::disabled()
    }
}

// ---------------------------------------------------------------------------
// Context + spans
// ---------------------------------------------------------------------------

fn empty_trace_id() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

/// Where new spans/events attach: a sink plus the current
/// `trace_id`/`span_id` pair. Cloning is two `Arc` bumps.
#[derive(Clone, Debug)]
pub struct TraceContext {
    sink: SinkHandle,
    trace_id: Arc<str>,
    span_id: u64,
}

impl TraceContext {
    /// A context that records nothing.
    pub fn disabled() -> TraceContext {
        TraceContext {
            sink: SinkHandle::disabled(),
            trace_id: empty_trace_id(),
            span_id: 0,
        }
    }

    /// Whether spans/events created from this context are recorded.
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// The trace id this context belongs to (empty when disabled).
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// The span new children will attach under (0 = none).
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The sink this context records into.
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// Opens a root span under a freshly minted trace id.
    pub fn root(
        sink: SinkHandle,
        name: &str,
        fields: Vec<(String, FieldValue)>,
    ) -> SpanGuard {
        Self::root_with_id(sink, &mint_trace_id(), name, fields)
    }

    /// Opens a root span under a caller-supplied trace id (for example
    /// one minted at serve admission and echoed back to the client).
    pub fn root_with_id(
        sink: SinkHandle,
        trace_id: &str,
        name: &str,
        fields: Vec<(String, FieldValue)>,
    ) -> SpanGuard {
        let ctx = TraceContext {
            sink,
            trace_id: Arc::from(trace_id),
            span_id: 0,
        };
        ctx.child(name, fields)
    }

    /// Opens a span under a caller-supplied trace id whose parent is a
    /// span id minted by *another process* (the protocol envelope's
    /// `parent_span`): the span starts with `parent_span_id` set to that
    /// foreign id, so a multi-journal `trace report` merge can hang this
    /// process's subtree under the sender's hop span. A `parent_span` of
    /// 0 degrades to [`TraceContext::root_with_id`].
    pub fn root_with_parent(
        sink: SinkHandle,
        trace_id: &str,
        parent_span: u64,
        name: &str,
        fields: Vec<(String, FieldValue)>,
    ) -> SpanGuard {
        let ctx = TraceContext {
            sink,
            trace_id: Arc::from(trace_id),
            span_id: parent_span,
        };
        ctx.child(name, fields)
    }

    /// Opens a child span of this context. On a disabled context the
    /// guard is inert.
    pub fn child(&self, name: &str, fields: Vec<(String, FieldValue)>) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard {
                ctx: TraceContext::disabled(),
                parent: 0,
                name: String::new(),
                start_us: 0,
                end_fields: Vec::new(),
            };
        }
        let span_id = next_span_id();
        let start_us = now_us();
        let child_ctx = TraceContext {
            sink: self.sink.clone(),
            trace_id: self.trace_id.clone(),
            span_id,
        };
        self.sink.emit(TraceEvent {
            ts_us: start_us,
            kind: EventKind::SpanStart,
            severity: Severity::Info,
            name: name.to_string(),
            trace_id: self.trace_id.clone(),
            span_id,
            parent_span_id: self.span_id,
            fields,
        });
        SpanGuard {
            ctx: child_ctx,
            parent: self.span_id,
            name: name.to_string(),
            start_us,
            end_fields: Vec::new(),
        }
    }

    /// Records a point event attached to this context's span.
    pub fn event(&self, severity: Severity, name: &str, fields: Vec<(String, FieldValue)>) {
        if !self.enabled() {
            return;
        }
        self.sink.emit(TraceEvent {
            ts_us: now_us(),
            kind: EventKind::Event,
            severity,
            name: name.to_string(),
            trace_id: self.trace_id.clone(),
            span_id: self.span_id,
            parent_span_id: self.span_id,
            fields,
        });
    }
}

/// An open span. Emits `SpanStart` on creation and `SpanEnd` (with a
/// `dur_us` field) from `Drop`, so the interval is recorded even when
/// the instrumented scope unwinds from a panic.
pub struct SpanGuard {
    ctx: TraceContext,
    parent: u64,
    name: String,
    start_us: u64,
    end_fields: Vec<(String, FieldValue)>,
}

impl SpanGuard {
    /// The context inside this span; clone it into [`enter`] or pass it
    /// to children.
    pub fn ctx(&self) -> &TraceContext {
        &self.ctx
    }

    /// Attaches a field to the closing `SpanEnd` event (for values only
    /// known at the end, like byte counts).
    pub fn add_field(&mut self, key: &str, value: FieldValue) {
        if self.ctx.enabled() {
            self.end_fields.push((key.to_string(), value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.ctx.enabled() {
            return;
        }
        let end_us = now_us();
        let mut fields = std::mem::take(&mut self.end_fields);
        fields.push((
            "dur_us".to_string(),
            FieldValue::U64(end_us.saturating_sub(self.start_us)),
        ));
        self.ctx.sink.emit(TraceEvent {
            ts_us: end_us,
            kind: EventKind::SpanEnd,
            severity: Severity::Info,
            name: std::mem::take(&mut self.name),
            trace_id: self.ctx.trace_id.clone(),
            span_id: self.ctx.span_id,
            parent_span_id: self.parent,
            fields,
        });
    }
}

// ---------------------------------------------------------------------------
// Thread-local propagation
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<TraceContext> = RefCell::new(TraceContext::disabled());
}

/// The calling thread's current context (disabled if none was entered).
pub fn current() -> TraceContext {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `ctx` as the thread's current context until the returned
/// guard drops (which restores the previous context, unwind-safe).
pub fn enter(ctx: TraceContext) -> EnterGuard {
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx));
    EnterGuard { prev: Some(prev) }
}

/// Restores the previously current context on drop. Not `Send`: scoped
/// to the thread that entered.
pub struct EnterGuard {
    prev: Option<TraceContext>,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

// ---------------------------------------------------------------------------
// RingJournal
// ---------------------------------------------------------------------------

/// A lock-sharded bounded in-memory journal. Each shard is an
/// independent mutex-protected ring; emitters round-robin across shards
/// so concurrent workers rarely contend. When a shard is full the
/// *oldest* event in that shard is dropped (and counted), keeping the
/// newest evidence.
pub struct RingJournal {
    shards: Vec<Mutex<VecDeque<TraceEvent>>>,
    capacity_per_shard: usize,
    cursor: AtomicUsize,
    dropped: AtomicU64,
}

impl RingJournal {
    /// A journal with `shards` independent rings of `capacity_per_shard`
    /// events each (both clamped to at least 1).
    pub fn new(shards: usize, capacity_per_shard: usize) -> RingJournal {
        let shards = shards.max(1);
        RingJournal {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events dropped to overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently retained across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All retained events, sorted by timestamp. Ties (events within the
    /// same microsecond) break causally: span starts first in parent
    /// order, then point events, then span ends in child-before-parent
    /// order — so a parent's end never sorts between its children.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(guard.iter().cloned());
        }
        all.sort_by_key(|e| {
            let (rank, id_order) = match e.kind {
                EventKind::SpanStart => (0u8, e.span_id as i64),
                EventKind::Event => (1, e.span_id as i64),
                EventKind::SpanEnd => (2, -(e.span_id as i64)),
            };
            (e.ts_us, rank, id_order)
        });
        all
    }
}

impl EventSink for RingJournal {
    fn emit(&self, event: TraceEvent) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut shard = self.shards[idx].lock().unwrap_or_else(|e| e.into_inner());
        if shard.len() >= self.capacity_per_shard {
            shard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(event);
    }
}

// ---------------------------------------------------------------------------
// NdjsonWriter
// ---------------------------------------------------------------------------

/// How many encoded lines the journal queue may buffer before
/// producers block on the writer thread (lossless back-pressure, not
/// drops — a journal that silently loses spans is worse than one that
/// briefly stalls a producer that is 64k events ahead of the disk).
const JOURNAL_QUEUE_CAP: usize = 1 << 16;

/// How long the writer thread lingers after being woken before it
/// drains. A request emits a burst of spans over its lifetime; without
/// the linger the writer wakes per event (the queue is always drained
/// by the time the next event lands) and on a saturated box each wake
/// is a context switch stolen from the workload. Lingering turns
/// thousands of wakes per second into at most ~100, and bounds how
/// stale a tailed journal can be at roughly this duration (explicit
/// [`EventSink::flush`] calls and shutdown skip the linger).
const JOURNAL_LINGER: std::time::Duration = std::time::Duration::from_millis(10);

/// Queue shared between producers ([`EventSink::emit`]) and the
/// journal writer thread.
struct JournalQueue {
    events: VecDeque<TraceEvent>,
    shutdown: bool,
    /// Monotonic flush tickets: [`EventSink::flush`] takes a ticket and
    /// waits until the writer reports it completed, which guarantees
    /// every event emitted before the call is on disk.
    flush_requested: u64,
    flush_completed: u64,
}

/// Writes one JSON object per line to a file. The first line is a
/// versioned header — `{"v":1,"schema":"smith85-tracelog-v1"}` —
/// written synchronously in [`create`](NdjsonWriter::create); events
/// are handed to a dedicated writer thread that encodes and writes
/// them, so neither JSON encoding nor a write syscall sits inside any
/// instrumented request. The writer flushes after each
/// drained batch: under light load that is effectively per line, so
/// `smith85 trace follow` can still tail a live journal; under heavy
/// load batches coalesce and the per-event cost amortises.
///
/// [`EventSink::flush`] blocks until everything emitted so far is
/// durable, and dropping the writer drains the queue before returning
/// — readers that stop the workload first never see a truncated tail.
///
/// Emission is best-effort: I/O errors after creation are swallowed
/// (the journal must never take down the workload it observes).
pub struct NdjsonWriter {
    shared: Arc<(Mutex<JournalQueue>, Condvar, Condvar)>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl NdjsonWriter {
    /// Creates (truncating) `path`, writes the header line, and starts
    /// the writer thread.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<NdjsonWriter> {
        let file = File::create(path)?;
        let mut writer = BufWriter::new(file);
        let header = json::obj(vec![
            ("v", Json::Uint(JOURNAL_VERSION)),
            ("schema", json::s(JOURNAL_SCHEMA)),
        ]);
        writeln!(writer, "{header}")?;
        writer.flush()?;

        let shared = Arc::new((
            Mutex::new(JournalQueue {
                events: VecDeque::new(),
                shutdown: false,
                flush_requested: 0,
                flush_completed: 0,
            }),
            Condvar::new(), // work: the writer thread waits here
            Condvar::new(), // done: producers and flushers wait here
        ));
        let thread_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("smith85-journal".to_string())
            .spawn(move || Self::writer_loop(&thread_shared, writer))?;
        Ok(NdjsonWriter {
            shared,
            worker: Some(worker),
        })
    }

    fn writer_loop(
        shared: &(Mutex<JournalQueue>, Condvar, Condvar),
        mut writer: BufWriter<File>,
    ) {
        let (queue, work, done) = shared;
        loop {
            let (batch, flush_target, quit) = {
                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                while q.events.is_empty()
                    && !q.shutdown
                    && q.flush_requested == q.flush_completed
                {
                    q = work.wait(q).unwrap_or_else(|e| e.into_inner());
                }
                if !q.shutdown && q.flush_requested == q.flush_completed {
                    // Woken by the first event of a burst: linger so
                    // the rest of the burst lands in the same batch.
                    // Flushes and shutdown skip the linger.
                    drop(q);
                    std::thread::sleep(JOURNAL_LINGER);
                    q = queue.lock().unwrap_or_else(|e| e.into_inner());
                }
                let batch: Vec<TraceEvent> = q.events.drain(..).collect();
                // The queue is empty again: wake producers blocked on
                // capacity before the (slow) encode + file I/O below.
                done.notify_all();
                (batch, q.flush_requested, q.shutdown)
            };
            for event in &batch {
                let _ = writeln!(writer, "{}", NdjsonWriter::encode(event));
            }
            let _ = writer.flush();
            {
                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                q.flush_completed = q.flush_completed.max(flush_target);
                done.notify_all();
                if quit && q.events.is_empty() {
                    return;
                }
            }
        }
    }

    /// Encodes one event as its NDJSON line (no trailing newline).
    pub fn encode(event: &TraceEvent) -> String {
        let fields = event
            .fields
            .iter()
            .map(|(key, value)| {
                let value = match value {
                    FieldValue::Str(text) => json::s(text.as_str()),
                    FieldValue::U64(v) => Json::Uint(*v),
                    // Non-finite values are written as `null`.
                    FieldValue::F64(v) => Json::Num(*v),
                };
                (key.clone(), value)
            })
            .collect();
        json::obj(vec![
            ("ts_us", Json::Uint(event.ts_us)),
            ("kind", json::s(event.kind.as_str())),
            ("sev", json::s(event.severity.as_str())),
            ("name", json::s(event.name.as_str())),
            ("trace", json::s(&*event.trace_id)),
            ("span", Json::Uint(event.span_id)),
            ("parent", Json::Uint(event.parent_span_id)),
            ("fields", Json::Obj(fields)),
        ])
        .to_string()
    }
}

impl EventSink for NdjsonWriter {
    fn emit(&self, event: TraceEvent) {
        let (queue, work, done) = &*self.shared;
        let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
        while q.events.len() >= JOURNAL_QUEUE_CAP && !q.shutdown {
            q = done.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        if q.shutdown {
            return;
        }
        q.events.push_back(event);
        // Encoding happens writer-side; the only producer cost is the
        // push above. The writer re-checks the queue before sleeping,
        // so a wake is only owed on the empty -> non-empty transition.
        if q.events.len() == 1 {
            work.notify_one();
        }
    }

    fn flush(&self) {
        let (queue, work, done) = &*self.shared;
        let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
        q.flush_requested += 1;
        let ticket = q.flush_requested;
        work.notify_one();
        while q.flush_completed < ticket && !q.shutdown {
            q = done.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for NdjsonWriter {
    fn drop(&mut self) {
        {
            let (queue, work, _) = &*self.shared;
            let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
            work.notify_one();
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_sink() -> (SinkHandle, Arc<RingJournal>) {
        let journal = Arc::new(RingJournal::new(2, 1024));
        (SinkHandle::new(journal.clone()), journal)
    }

    #[test]
    fn span_guard_emits_start_and_end_with_duration() {
        let (sink, journal) = mem_sink();
        {
            let root = TraceContext::root_with_id(sink, "t1", "request", vec![]);
            let _child = root.ctx().child("inner", vec![("k".into(), "v".into())]);
        }
        let events = journal.snapshot();
        assert_eq!(events.len(), 4, "{events:?}");
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[0].name, "request");
        assert_eq!(events[0].parent_span_id, 0);
        assert_eq!(events[1].name, "inner");
        assert_eq!(events[1].parent_span_id, events[0].span_id);
        let end = events.iter().find(|e| e.kind == EventKind::SpanEnd && e.name == "inner");
        let end = end.expect("inner span_end");
        assert!(end.fields.iter().any(|(k, _)| k == "dur_us"));
        assert!(events.iter().all(|e| &*e.trace_id == "t1"));
    }

    #[test]
    fn disabled_context_is_inert() {
        let ctx = TraceContext::disabled();
        assert!(!ctx.enabled());
        let span = ctx.child("nothing", vec![]);
        assert!(!span.ctx().enabled());
        ctx.event(Severity::Error, "nothing", vec![]);
        drop(span);
    }

    #[test]
    fn spans_close_even_when_the_scope_unwinds() {
        let (sink, journal) = mem_sink();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = TraceContext::root_with_id(sink, "t2", "doomed", vec![]);
            panic!("boom");
        }));
        assert!(result.is_err());
        let events = journal.snapshot();
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::SpanEnd && e.name == "doomed"),
            "span end must be recorded through unwind: {events:?}"
        );
    }

    #[test]
    fn thread_local_enter_restores_previous_context() {
        let (sink, _journal) = mem_sink();
        assert!(!current().enabled());
        let span = TraceContext::root_with_id(sink, "outer", "outer", vec![]);
        {
            let _guard = enter(span.ctx().clone());
            assert_eq!(current().trace_id(), "outer");
        }
        assert!(!current().enabled(), "previous (disabled) context restored");
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_drops() {
        let journal = RingJournal::new(1, 4);
        for i in 0..10u64 {
            journal.emit(TraceEvent {
                ts_us: i,
                kind: EventKind::Event,
                severity: Severity::Info,
                name: format!("e{i}"),
                trace_id: Arc::from("t"),
                span_id: i,
                parent_span_id: 0,
                fields: vec![],
            });
        }
        assert_eq!(journal.dropped(), 6);
        assert_eq!(journal.len(), 4);
        let names: Vec<String> = journal.snapshot().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["e6", "e7", "e8", "e9"], "newest events kept");
    }

    #[test]
    fn minted_trace_ids_are_distinct_and_hex() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn ndjson_lines_round_trip() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        let beyond_f64 = (1u64 << 53) + 1;
        let event = TraceEvent {
            ts_us: 42,
            kind: EventKind::SpanEnd,
            severity: Severity::Warn,
            name: "weird \"name\"\n".to_string(),
            trace_id: Arc::from("abc123"),
            span_id: beyond_f64,
            parent_span_id: beyond_f64,
            fields: vec![
                ("workload".to_string(), FieldValue::Str("VC\\COM".to_string())),
                ("bytes".to_string(), FieldValue::U64(1024)),
                ("ratio".to_string(), FieldValue::F64(0.125)),
                ("whole".to_string(), FieldValue::F64(3.0)),
                ("max".to_string(), FieldValue::U64(u64::MAX)),
                ("beyond_f64".to_string(), FieldValue::U64(beyond_f64)),
            ],
        };
        let line = NdjsonWriter::encode(&event);
        assert!(line.contains(r#""whole":3.0,"#), "{line}");
        let value = Json::parse(&line).expect("line parses");
        let back = report::parse_event(&value).expect("event decodes");
        assert_eq!(back, event);
    }

    #[test]
    fn ndjson_writer_header_is_immediate_and_flush_makes_events_durable() {
        let path = std::env::temp_dir().join(format!(
            "smith85-tracelog-test-{}-{}.ndjson",
            std::process::id(),
            now_us()
        ));
        let writer = NdjsonWriter::create(&path).expect("create journal");
        // The header is written synchronously: a reader attaching right
        // after create sees a well-formed journal before any event.
        let header_only = std::fs::read_to_string(&path).expect("read journal");
        assert_eq!(header_only.lines().count(), 1, "{header_only}");
        writer.emit(TraceEvent {
            ts_us: 1,
            kind: EventKind::Event,
            severity: Severity::Info,
            name: "ping".to_string(),
            trace_id: Arc::from("t"),
            span_id: 1,
            parent_span_id: 0,
            fields: vec![],
        });
        // Deliberately do NOT drop the writer: flush() must block until
        // the writer thread has made the event visible to a concurrent
        // reader ("trace follow").
        writer.flush();
        let contents = std::fs::read_to_string(&path).expect("read journal");
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2, "{contents}");
        assert_eq!(lines[0], r#"{"v":1,"schema":"smith85-tracelog-v1"}"#);
        let header = Json::parse(lines[0]).expect("header parses");
        assert_eq!(header.get("v").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            header.get("schema").and_then(|v| v.as_str()),
            Some(JOURNAL_SCHEMA)
        );
        drop(writer);
        let _ = std::fs::remove_file(&path);
    }
}
