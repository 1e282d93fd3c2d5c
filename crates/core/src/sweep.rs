//! Parallel execution of independent simulation jobs, with per-job panic
//! isolation.
//!
//! The experiments sweep (workload × cache size × policy) grids of
//! independent trace-driven simulations; this module fans them out over a
//! bounded set of worker threads with `std::thread::scope`, so no
//! `'static` bounds leak into the experiment code.
//!
//! Long measurement campaigns must survive individual bad cells: one
//! panicking simulation (a corrupt trace, a degenerate configuration)
//! must not sink a multi-hour sweep. [`try_parallel_map`] therefore wraps
//! every job in [`std::panic::catch_unwind`] and reports per-job
//! [`JobFailure`]s instead of propagating the first panic, leaving the
//! caller to choose between fail-fast ([`parallel_map`]) and
//! skip-and-report (inspecting [`SweepError`]).

use crate::experiments::{CoreMetrics, ExperimentConfig};
use smith85_tracelog::{self as tracelog, FieldValue, Severity, TraceContext};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One job's panic, captured by [`try_parallel_map`].
#[derive(Debug)]
pub struct JobFailure {
    /// Index of the failed job in the input vector.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// preserved; anything else becomes a placeholder).
    pub message: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

/// The aggregate failure report of a sweep: which jobs panicked, while
/// every other job's result is preserved in order.
#[derive(Debug)]
pub struct SweepError<R> {
    /// Per-slot outcomes, in input order: `Some` for completed jobs,
    /// `None` for panicked ones.
    pub results: Vec<Option<R>>,
    /// The failures, ordered by job index.
    pub failures: Vec<JobFailure>,
}

impl<R> fmt::Display for SweepError<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} sweep jobs panicked",
            self.failures.len(),
            self.results.len()
        )?;
        if let Some(first) = self.failures.first() {
            write!(f, " (first: {first})")?;
        }
        Ok(())
    }
}

impl<R: fmt::Debug> std::error::Error for SweepError<R> {}

/// Renders a panic payload (from `catch_unwind`) as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item, in parallel, preserving input order, and
/// isolating panics: a panicking job is reported in the returned
/// [`SweepError`] while all other jobs run to completion.
///
/// `config.threads = 1` runs inline (useful under test); otherwise up to
/// `config.threads` workers pull items off a shared queue. Every job
/// counts into the registry `config` carries.
///
/// # Errors
///
/// Returns [`SweepError`] if any job panicked; `results` still carries
/// every completed job's output in input order.
pub fn try_parallel_map<T, R, F>(
    config: &ExperimentConfig,
    items: Vec<T>,
    f: F,
) -> Result<Vec<R>, SweepError<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = config.threads.max(1);
    let metrics = &config.metrics;
    let n = items.len();
    // Captured on the calling thread: sweep workers are fresh threads
    // with no thread-local context of their own, so the caller's trace
    // context is re-entered around every job.
    let trace_ctx = tracelog::current();
    let mut slots: Vec<Result<R, JobFailure>> = Vec::with_capacity(n);
    if threads == 1 || n <= 1 {
        for (index, item) in items.into_iter().enumerate() {
            slots.push(run_caught(&f, index, item, &trace_ctx, metrics));
        }
    } else {
        let next = AtomicUsize::new(0);
        let inputs: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let outputs: Vec<Mutex<Option<Result<R, JobFailure>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // A poisoned lock means another worker panicked while
                    // holding it; since the critical sections below never
                    // panic (moves only), recover the data instead of
                    // poisoning the whole sweep.
                    let item = inputs[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .take();
                    // invariant: each index is dispensed once by the atomic
                    // counter, so the slot is always still populated.
                    let Some(item) = item else { break };
                    let out = run_caught(&f, i, item, &trace_ctx, metrics);
                    *outputs[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                });
            }
        });
        for m in outputs {
            let slot = m
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // invariant: the scope joins every worker, and each worker
            // stores exactly one outcome per dispensed index.
            slots.push(slot.expect("every job produced an outcome"));
        }
    }
    collect_outcomes(slots)
}

fn run_caught<T, R, F>(
    f: &F,
    index: usize,
    item: T,
    trace_ctx: &TraceContext,
    metrics: &CoreMetrics,
) -> Result<R, JobFailure>
where
    F: Fn(T) -> R + Sync,
{
    let start = Instant::now();
    let span = trace_ctx.enabled().then(|| {
        trace_ctx.child(
            "sweep_job",
            vec![("index".to_string(), FieldValue::U64(index as u64))],
        )
    });
    let _enter = span.as_ref().map(|s| tracelog::enter(s.ctx().clone()));
    let outcome = catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| JobFailure {
        index,
        message: panic_message(payload.as_ref()),
    });
    if let (Some(span), Err(failure)) = (&span, &outcome) {
        span.ctx().event(
            Severity::Error,
            "sweep_job_panic",
            vec![
                ("index".to_string(), FieldValue::U64(index as u64)),
                ("message".to_string(), FieldValue::Str(failure.message.clone())),
            ],
        );
    }
    metrics.sweep_jobs.inc();
    metrics
        .sweep_job_ms
        .observe(start.elapsed().as_secs_f64() * 1e3);
    if outcome.is_err() {
        metrics.sweep_panics.inc();
    }
    outcome
}

fn collect_outcomes<R>(slots: Vec<Result<R, JobFailure>>) -> Result<Vec<R>, SweepError<R>> {
    if slots.iter().all(Result::is_ok) {
        return Ok(slots.into_iter().map(|r| r.unwrap_or_else(|_| unreachable!())).collect());
    }
    let mut results = Vec::with_capacity(slots.len());
    let mut failures = Vec::new();
    for slot in slots {
        match slot {
            Ok(r) => results.push(Some(r)),
            Err(failure) => {
                results.push(None);
                failures.push(failure);
            }
        }
    }
    Err(SweepError { results, failures })
}

/// Applies `f` to every item, in parallel, preserving input order
/// (fail-fast wrapper over [`try_parallel_map`]).
///
/// `config.threads = 1` runs inline (useful under test); otherwise up to
/// `config.threads` workers pull items off a shared queue.
///
/// # Panics
///
/// Re-raises the first job panic (by message) after all workers finish,
/// so sibling jobs are never cancelled mid-simulation.
pub fn parallel_map<T, R, F>(config: &ExperimentConfig, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    match try_parallel_map(config, items, f) {
        Ok(results) => results,
        Err(err) => {
            let first = &err.failures[0];
            panic!("sweep job {} panicked: {}", first.index, first.message)
        }
    }
}

/// A sensible default worker count: the machine's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A default configuration running `n` sweep threads.
    fn threads(n: usize) -> ExperimentConfig {
        ExperimentConfig::builder().threads(n).build().unwrap()
    }

    #[test]
    fn preserves_order() {
        let out = parallel_map(&threads(4), (0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_inline() {
        let out = parallel_map(&threads(1), vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(&threads(8), Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn handles_non_copy_items() {
        let items: Vec<String> = (0..10).map(|i| format!("s{i}")).collect();
        let out = parallel_map(&threads(3), items, |s| s.len());
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn try_map_isolates_panics_and_keeps_other_results() {
        for n in [1, 4] {
            let err = try_parallel_map(&threads(n), (0..10).collect(), |x: i32| {
                assert!(x != 3 && x != 7, "bad cell {x}");
                x * 10
            })
            .unwrap_err();
            assert_eq!(err.results.len(), 10);
            assert_eq!(err.failures.len(), 2, "threads={n}");
            assert_eq!(err.failures[0].index, 3);
            assert_eq!(err.failures[1].index, 7);
            assert!(err.failures[0].message.contains("bad cell 3"));
            for (i, slot) in err.results.iter().enumerate() {
                if i == 3 || i == 7 {
                    assert!(slot.is_none());
                } else {
                    assert_eq!(*slot, Some(i as i32 * 10), "slot {i}");
                }
            }
        }
    }

    #[test]
    fn try_map_all_ok_returns_plain_vec() {
        let out = try_parallel_map(&threads(4), (0..50).collect(), |x: i32| x + 1).unwrap();
        assert_eq!(out, (1..51).collect::<Vec<_>>());
    }

    #[test]
    fn one_failure_does_not_cancel_siblings() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        let err = try_parallel_map(&threads(4), (0..20).collect(), |x: i32| {
            if x == 0 {
                panic!("first job dies");
            }
            completed.fetch_add(1, Ordering::Relaxed);
            x
        })
        .unwrap_err();
        assert_eq!(completed.load(Ordering::Relaxed), 19);
        assert_eq!(err.failures.len(), 1);
    }

    #[test]
    #[should_panic(expected = "sweep job 2 panicked")]
    fn parallel_map_fail_fast_reports_first_failure() {
        let _ = parallel_map(&threads(2), vec![1, 2, 3, 4], |x: i32| {
            assert!(x != 3, "cell {x}");
            x
        });
    }

    #[test]
    fn sweep_error_display_summarises() {
        let err = try_parallel_map(&threads(1), vec![1, 2], |x: i32| {
            assert!(x != 2, "nope");
            x
        })
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("1 of 2"), "{text}");
        assert!(text.contains("nope"), "{text}");
    }

    #[test]
    fn probe_counts_jobs_and_panics() {
        let config = threads(1);
        let _ = try_parallel_map(&config, vec![1, 2, 3], |x: i32| {
            assert!(x != 2, "instrumented failure");
            x
        });
        let registry = config.registry();
        assert_eq!(registry.counter("sweep_jobs_total").get(), 3);
        assert_eq!(registry.counter("sweep_panics_total").get(), 1);
        let job_ms = registry.histogram("sweep_job_ms", smith85_obs::MS_BOUNDS);
        assert_eq!(job_ms.count(), 3);
    }

    #[test]
    fn journaled_sweep_records_job_spans_and_panic_events() {
        use smith85_tracelog::{EventKind, RingJournal, SinkHandle};
        let journal = std::sync::Arc::new(RingJournal::new(2, 1024));
        let root = TraceContext::root_with_id(
            SinkHandle::new(journal.clone()),
            "sweeptest",
            "sweep",
            vec![],
        );
        {
            let _enter = tracelog::enter(root.ctx().clone());
            let _ = try_parallel_map(&threads(4), (0..6).collect(), |x: i32| {
                assert!(x != 2, "cell {x} dies");
                x
            });
        }
        drop(root);
        let events = journal.snapshot();
        let starts = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanStart && e.name == "sweep_job")
            .count();
        assert_eq!(starts, 6, "one span per job");
        let ends = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd && e.name == "sweep_job")
            .count();
        assert_eq!(ends, 6, "panicked job's span still closes");
        let panic_event = events
            .iter()
            .find(|e| e.kind == EventKind::Event && e.name == "sweep_job_panic")
            .expect("panic error event");
        assert_eq!(panic_event.severity, Severity::Error);
        assert!(panic_event
            .fields
            .iter()
            .any(|(k, v)| k == "message"
                && v.as_str().is_some_and(|m| m.contains("cell 2 dies"))));
        assert!(events.iter().all(|e| &*e.trace_id == "sweeptest"));
    }

    #[test]
    fn non_string_panic_payload_is_placeholdered() {
        let err = try_parallel_map(&threads(1), vec![0], |_| -> i32 {
            std::panic::panic_any(42i32);
        })
        .unwrap_err();
        assert_eq!(err.failures[0].message, "non-string panic payload");
    }
}
