//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded around the benchmark's calls into each layer (the
//! program itself is not instrumented for this). Each span has a name,
//! start, end, parent and request id; spans stay in memory and are
//! written out as NDJSON when the run ends. A layer's self time is its
//! span minus the part of it that its children cover.

use smith85_serve::json::{self, Json};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `"one_pass.sweep_grid"`.
    pub name: &'static str,
    /// The request (or sweep) this span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span log for one thread of work.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before it).
    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open. Returns `f`'s result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.offset(Instant::now());
        result
    }

    /// Records a top-level span whose times were taken elsewhere (a
    /// live request timed from its scheduled send to its reply).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let start_ns = self.offset(start);
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start_ns,
            end_ns: self.offset(end).max(start_ns),
        });
    }

    /// Every recorded span, in start order of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Summed duration (µs) of every span named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Self time (µs) of span `index`: its duration minus the union of
    /// its direct children's intervals, clipped to the span.
    pub fn self_us(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns - span.start_ns - covered) as f64 / 1e3
    }

    /// Writes every span as one NDJSON line.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_ndjson(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let line = json::obj(vec![
                ("id", Json::Uint(index as u64)),
                ("name", json::s(span.name)),
                ("request", Json::Uint(span.request)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Uint(p as u64)),
                ),
                ("start_ns", Json::Uint(span.start_ns)),
                ("end_ns", Json::Uint(span.end_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut recorder = Recorder::new();
        recorder.spans = vec![
            span("request", None, 0, 10_000),
            span("decode", Some(0), 1_000, 3_000),
            span("exec", Some(0), 2_000, 6_000), // overlaps decode by 1 µs
            span("pool", Some(2), 2_500, 4_000), // grandchild: not subtracted from 0
            span("late", Some(0), 9_000, 12_000), // clipped at the parent's end
        ];
        assert_eq!(recorder.self_us(0), 10.0 - 5.0 - 1.0);
        assert_eq!(recorder.self_us(2), 4.0 - 1.5);
        assert_eq!(recorder.self_us(1), 2.0);
        assert_eq!(recorder.durations_us("exec"), vec![4.0]);
    }

    #[test]
    fn nested_timing_links_parents() {
        let mut recorder = Recorder::new();
        let value = recorder.time("outer", 7, |r| r.time("inner", 7, |_| 42));
        assert_eq!(value, 42);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
