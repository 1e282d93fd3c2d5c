//! Dependency-free metrics for the smith85 workspace.
//!
//! The workspace's external dependencies resolve to no-op offline shims,
//! so this crate hand-rolls the three metric primitives the simulator
//! needs — atomic [`Counter`]s, [`Gauge`]s and fixed-bucket
//! [`Histogram`]s — plus a [`Registry`] that owns them by name and can
//! render a point-in-time [`RegistrySnapshot`] or a Prometheus
//! text-exposition page.
//!
//! Everything is lock-free on the hot path: metric handles are
//! `Arc`-shared and updated with relaxed atomics; the registry's maps
//! are only locked when a handle is first looked up or a snapshot is
//! taken.
//!
//! ```
//! use smith85_obs::{Registry, MS_BOUNDS};
//!
//! let registry = Registry::new();
//! registry.counter("requests_total").inc();
//! registry.gauge("queue_depth").set(3.0);
//! registry.histogram("exec_ms", MS_BOUNDS).observe(12.5);
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters[0].value, 1);
//! assert!(snapshot.to_prometheus().contains("smith85_requests_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default bucket upper bounds for millisecond timings: 250µs up to one
/// minute, roughly log-spaced.
pub const MS_BOUNDS: &[f64] = &[
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
    10_000.0, 30_000.0, 60_000.0,
];

/// Default bucket upper bounds for simulation throughput in
/// references/second (1e5 .. 1e9, 1-2.5-5 spaced).
pub const REFS_PER_SEC_BOUNDS: &[f64] = &[
    1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9,
];

/// Prefix applied to every metric name in the Prometheus exposition.
const PROMETHEUS_PREFIX: &str = "smith85_";

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depth, pool bytes).
///
/// Stored as the `f64` bit pattern in an `AtomicU64` so reads and
/// writes need no lock.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with Prometheus `le` semantics.
///
/// Bucket `i` counts observations `v <= bounds[i]` (the first such
/// bound wins, so an exact boundary value lands in the bucket it
/// bounds). Values above the last finite bound land in an implicit
/// `+Inf` overflow bucket; values below the lowest bound land in bucket
/// 0, which doubles as the underflow bucket.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One per finite bound, plus a trailing `+Inf` overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum, stored as `f64` bits and updated with a CAS loop.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given finite bucket upper bounds.
    ///
    /// Bounds must be finite and strictly increasing; violations are a
    /// programming error and panic.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for pair in bounds.windows(2) {
            assert!(pair[0] < pair[1], "histogram bounds must be increasing");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let index = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket containing the target rank.
    ///
    /// Returns `0.0` for an empty histogram; observations in the
    /// overflow bucket report the last finite bound (the histogram
    /// cannot resolve beyond it).
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        // NaN would silently fall to the lowest bucket via the `as u64`
        // cast; treat it as an explicit "lowest quantile" instead.
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &bucket_count) in counts.iter().enumerate() {
            cumulative += bucket_count;
            if cumulative >= target {
                return self.bounds.get(index).copied().unwrap_or_else(|| {
                    // Overflow bucket: saturate at the last finite bound.
                    *self.bounds.last().expect("bounds are non-empty")
                });
            }
        }
        *self.bounds.last().expect("bounds are non-empty")
    }
}

/// A metric identity: name plus sorted label pairs. Plain (unlabeled)
/// metrics sort ahead of labeled series of the same name, which keeps
/// exposition output grouped by family.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
}

/// A named collection of metrics, cheaply cloneable (clones share the
/// underlying metrics).
///
/// `BTreeMap`s keep snapshot and exposition output deterministically
/// ordered by name.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

/// Recovers the map even if a panicking thread poisoned the lock;
/// metric maps hold no invariants a half-finished insert can break.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter named `name` with the given label pairs, created on
    /// first use. Label order does not matter: pairs are sorted, so
    /// `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]` are the same
    /// series.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        Arc::clone(
            lock(&self.inner.counters)
                .entry(MetricKey::new(name, labels))
                .or_default(),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge named `name` with the given label pairs, created on
    /// first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        Arc::clone(
            lock(&self.inner.gauges)
                .entry(MetricKey::new(name, labels))
                .or_default(),
        )
    }

    /// The histogram named `name`, created with `bounds` on first use.
    ///
    /// The first registration wins: later calls return the existing
    /// histogram and ignore their `bounds` argument.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, &[], bounds)
    }

    /// The histogram named `name` with the given label pairs, created
    /// with `bounds` on first use (first registration wins the bounds).
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        Arc::clone(
            lock(&self.inner.histograms)
                .entry(MetricKey::new(name, labels))
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A point-in-time copy of every metric, ordered by name then labels.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = lock(&self.inner.counters)
            .iter()
            .map(|(key, counter)| CounterSnapshot {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: counter.get(),
            })
            .collect();
        let gauges = lock(&self.inner.gauges)
            .iter()
            .map(|(key, gauge)| GaugeSnapshot {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: gauge.get(),
            })
            .collect();
        let histograms = lock(&self.inner.histograms)
            .iter()
            .map(|(key, histogram)| {
                let buckets = histogram
                    .bounds
                    .iter()
                    .zip(&histogram.buckets)
                    .map(|(&le, count)| BucketSnapshot {
                        le,
                        count: count.load(Ordering::Relaxed),
                    })
                    .collect();
                HistogramSnapshot {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    count: histogram.count(),
                    sum: histogram.sum(),
                    overflow: histogram.buckets[histogram.bounds.len()].load(Ordering::Relaxed),
                    p50: histogram.quantile(0.50),
                    p95: histogram.quantile(0.95),
                    p99: histogram.quantile(0.99),
                    buckets,
                }
            })
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Metric name (unprefixed).
    pub name: String,
    /// Sorted label pairs (empty for plain metrics).
    pub labels: Vec<(String, String)>,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name (unprefixed).
    pub name: String,
    /// Sorted label pairs (empty for plain metrics).
    pub labels: Vec<(String, String)>,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// One histogram bucket: observations `<= le` (non-cumulative count).
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSnapshot {
    /// Upper bound of this bucket.
    pub le: f64,
    /// Raw (per-bucket, not cumulative) observation count.
    pub count: u64,
}

/// One histogram in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name (unprefixed).
    pub name: String,
    /// Sorted label pairs (empty for plain metrics).
    pub labels: Vec<(String, String)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Observations above the last finite bound (the `+Inf` bucket).
    pub overflow: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Finite buckets with raw counts, in bound order.
    pub buckets: Vec<BucketSnapshot>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile recomputed from the snapshot's buckets,
    /// with the same semantics as [`Histogram::quantile`]: the upper
    /// bound of the bucket containing the target rank, saturating at the
    /// last finite bound, `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().map(|b| b.count).sum::<u64>() + self.overflow;
        if total == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for bucket in &self.buckets {
            cumulative += bucket.count;
            if cumulative >= target {
                return bucket.le;
            }
        }
        self.buckets.last().map(|b| b.le).unwrap_or(0.0)
    }

    /// Bucket-wise merge with another snapshot of the same shape: counts
    /// and sums add exactly, and the quantile estimates are recomputed
    /// from the merged buckets. Returns `None` when the two histograms do
    /// not share the same bucket bounds (there is no lossless merge in
    /// that case). The merged snapshot keeps `self`'s name and labels.
    pub fn merge(&self, other: &HistogramSnapshot) -> Option<HistogramSnapshot> {
        if self.buckets.len() != other.buckets.len()
            || self
                .buckets
                .iter()
                .zip(&other.buckets)
                .any(|(a, b)| a.le.to_bits() != b.le.to_bits())
        {
            return None;
        }
        let buckets: Vec<BucketSnapshot> = self
            .buckets
            .iter()
            .zip(&other.buckets)
            .map(|(a, b)| BucketSnapshot {
                le: a.le,
                count: a.count + b.count,
            })
            .collect();
        let mut merged = HistogramSnapshot {
            name: self.name.clone(),
            labels: self.labels.clone(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            overflow: self.overflow + other.overflow,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            buckets,
        };
        merged.p50 = merged.quantile(0.50);
        merged.p95 = merged.quantile(0.95);
        merged.p99 = merged.quantile(0.99);
        Some(merged)
    }
}

/// A point-in-time copy of a [`Registry`], ordered by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Escapes a label value for the Prometheus text format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders `{k="v",...}` for a series, with `extra` appended last (the
/// `le` bucket label). Empty labels and no extra renders nothing.
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl RegistrySnapshot {
    /// The value of the counter `name` with exactly the label pairs
    /// `labels` (in any order), or 0 when the snapshot has no such
    /// series: a counter never created has counted nothing.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .find(|c| {
                c.name == name
                    && c.labels.len() == labels.len()
                    && labels
                        .iter()
                        .all(|(k, v)| c.labels.iter().any(|(ck, cv)| ck == k && cv == v))
            })
            .map_or(0, |c| c.value)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4), every metric prefixed `smith85_`.
    ///
    /// Histogram buckets are emitted cumulatively with a final
    /// `le="+Inf"` bucket equal to `_count`, as the format requires.
    /// A `# TYPE` line is emitted once per family, so an unlabeled
    /// aggregate and its labeled per-shard series share one header.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for counter in &self.counters {
            let name = format!("{PROMETHEUS_PREFIX}{}", counter.name);
            if name != last_family {
                let _ = writeln!(out, "# TYPE {name} counter");
                last_family = name.clone();
            }
            let _ = writeln!(
                out,
                "{name}{} {}",
                render_labels(&counter.labels, None),
                counter.value
            );
        }
        last_family.clear();
        for gauge in &self.gauges {
            let name = format!("{PROMETHEUS_PREFIX}{}", gauge.name);
            if name != last_family {
                let _ = writeln!(out, "# TYPE {name} gauge");
                last_family = name.clone();
            }
            let _ = writeln!(
                out,
                "{name}{} {}",
                render_labels(&gauge.labels, None),
                gauge.value
            );
        }
        last_family.clear();
        for histogram in &self.histograms {
            let name = format!("{PROMETHEUS_PREFIX}{}", histogram.name);
            if name != last_family {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last_family = name.clone();
            }
            let mut cumulative = 0u64;
            for bucket in &histogram.buckets {
                cumulative += bucket.count;
                let le = bucket.le.to_string();
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    render_labels(&histogram.labels, Some(("le", &le)))
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{} {}",
                render_labels(&histogram.labels, Some(("le", "+Inf"))),
                histogram.count
            );
            let labels = render_labels(&histogram.labels, None);
            let _ = writeln!(out, "{name}_sum{labels} {}", histogram.sum);
            let _ = writeln!(out, "{name}_count{labels} {}", histogram.count);
        }
        out
    }

    /// A copy of the snapshot with `key=value` set on every series (an
    /// existing label with the same key is replaced). This is how a
    /// federating node tags a shard's snapshot with `shard=<addr>`
    /// before merging it into its own exposition.
    #[must_use]
    pub fn with_label(&self, key: &str, value: &str) -> RegistrySnapshot {
        let relabel = |labels: &[(String, String)]| {
            let mut labels: Vec<(String, String)> = labels
                .iter()
                .filter(|(k, _)| k != key)
                .cloned()
                .collect();
            labels.push((key.to_string(), value.to_string()));
            labels.sort();
            labels
        };
        RegistrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| CounterSnapshot {
                    labels: relabel(&c.labels),
                    ..c.clone()
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| GaugeSnapshot {
                    labels: relabel(&g.labels),
                    ..g.clone()
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSnapshot {
                    labels: relabel(&h.labels),
                    ..h.clone()
                })
                .collect(),
        }
    }

    /// Folds `other`'s counters and histograms into this snapshot's
    /// same-(name, labels) series: counters sum exactly, histograms merge
    /// bucket-wise (a bounds mismatch keeps the existing series and drops
    /// the other's — there is no lossless merge), and series `self` does
    /// not have yet are added. Gauges are deliberately NOT aggregated:
    /// summing instantaneous values across processes has no meaning, so
    /// gauges only federate as per-shard labeled series.
    pub fn absorb_totals(&mut self, other: &RegistrySnapshot) {
        for counter in &other.counters {
            match self
                .counters
                .iter_mut()
                .find(|c| c.name == counter.name && c.labels == counter.labels)
            {
                Some(existing) => existing.value += counter.value,
                None => self.counters.push(counter.clone()),
            }
        }
        for histogram in &other.histograms {
            match self
                .histograms
                .iter_mut()
                .find(|h| h.name == histogram.name && h.labels == histogram.labels)
            {
                Some(existing) => {
                    if let Some(merged) = existing.merge(histogram) {
                        *existing = merged;
                    }
                }
                None => self.histograms.push(histogram.clone()),
            }
        }
        self.sort();
    }

    /// Appends every series of `other` (no merging; callers relabel
    /// first so keys cannot collide) and restores (name, labels) order.
    pub fn append(&mut self, other: RegistrySnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.sort();
    }

    /// Re-sorts every section by (name, labels), the registry's own
    /// snapshot order.
    pub fn sort(&mut self) {
        self.counters
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.gauges
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.histograms
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let counter = Counter::default();
        counter.inc();
        counter.add(41);
        assert_eq!(counter.get(), 42);
    }

    #[test]
    fn gauge_last_write_wins() {
        let gauge = Gauge::default();
        assert_eq!(gauge.get(), 0.0);
        gauge.set(7.5);
        gauge.set(-2.25);
        assert_eq!(gauge.get(), -2.25);
    }

    #[test]
    fn concurrent_counter_increments_lose_nothing() {
        let registry = Registry::new();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let registry = registry.clone();
                scope.spawn(move || {
                    let counter = registry.counter("hits");
                    for _ in 0..PER_THREAD {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(registry.counter("hits").get(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn histogram_exact_boundary_lands_in_the_bucket_it_bounds() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(1.0); // exactly on the first bound
        h.observe(10.0); // exactly on the second bound
        h.observe(100.0); // exactly on the last bound
        let counts: Vec<u64> = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![1, 1, 1, 0], "le semantics: v <= bound");
    }

    #[test]
    fn histogram_underflow_lands_in_the_first_bucket() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(-5.0);
        h.observe(0.0);
        h.observe(0.999);
        let counts: Vec<u64> = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![3, 0, 0]);
    }

    #[test]
    fn histogram_overflow_lands_in_the_inf_bucket() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(10.0001);
        h.observe(1e12);
        let counts: Vec<u64> = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![0, 0, 2]);
        assert_eq!(h.count(), 2);
        // Quantiles saturate at the last finite bound.
        assert_eq!(h.quantile(0.99), 10.0);
    }

    #[test]
    fn histogram_quantiles_walk_cumulative_counts() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        // 10 observations: 5 in le=1, 3 in le=2, 2 in le=4.
        for _ in 0..5 {
            h.observe(0.5);
        }
        for _ in 0..3 {
            h.observe(1.5);
        }
        for _ in 0..2 {
            h.observe(3.0);
        }
        assert_eq!(h.quantile(0.50), 1.0); // rank 5 of 10 -> first bucket
        assert_eq!(h.quantile(0.80), 2.0); // rank 8 -> second bucket
        assert_eq!(h.quantile(0.95), 4.0); // rank 10 -> third bucket
        assert_eq!(h.count(), 10);
        assert!((h.sum() - (5.0 * 0.5 + 3.0 * 1.5 + 2.0 * 3.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(MS_BOUNDS);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn out_of_range_quantiles_clamp_instead_of_panicking() {
        // Empty: every q, however malformed, reports 0.0.
        let empty = Histogram::new(&[1.0, 10.0]);
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(empty.quantile(q), 0.0, "q={q}");
        }
        // Populated: q < 0 clamps to the lowest bucket, q > 1 to the
        // highest populated one, and NaN behaves like q = 0.
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(0.5);
        h.observe(50.0);
        assert_eq!(h.quantile(-3.0), 1.0);
        assert_eq!(h.quantile(0.0), 1.0, "q=0 still reports rank 1");
        assert_eq!(h.quantile(7.0), 100.0);
        assert_eq!(h.quantile(f64::INFINITY), 100.0);
        assert_eq!(h.quantile(f64::NAN), 1.0);
    }

    #[test]
    fn first_histogram_registration_wins_bounds() {
        let registry = Registry::new();
        let first = registry.histogram("t_ms", &[1.0, 2.0]);
        let second = registry.histogram("t_ms", &[100.0]);
        assert!(Arc::ptr_eq(&first, &second));
        first.observe(1.5);
        assert_eq!(second.count(), 1);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let registry = Registry::new();
        registry.counter("zeta").inc();
        registry.counter("alpha").add(3);
        registry.gauge("mid").set(1.5);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(snapshot.counters[0].value, 3);
        assert_eq!(snapshot.gauges[0].value, 1.5);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_with_inf_bucket() {
        let registry = Registry::new();
        registry.counter("reqs_total").add(2);
        registry.gauge("depth").set(4.0);
        let h = registry.histogram("lat_ms", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(99.0); // overflow
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE smith85_reqs_total counter"));
        assert!(text.contains("smith85_reqs_total 2"));
        assert!(text.contains("# TYPE smith85_depth gauge"));
        assert!(text.contains("smith85_depth 4"));
        assert!(text.contains("smith85_lat_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("smith85_lat_ms_bucket{le=\"10\"} 2"), "{text}");
        assert!(text.contains("smith85_lat_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("smith85_lat_ms_count 3"));
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value_part) =
                line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name_part.is_empty());
            assert!(value_part.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn counter_value_matches_name_and_exact_label_set() {
        let registry = Registry::new();
        registry.counter("jobs_total").add(3);
        registry.counter_with("jobs_total", &[("kind", "a")]).add(5);
        registry.counter_with("jobs_total", &[("kind", "a"), ("node", "x")]).add(7);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("jobs_total", &[]), 3);
        assert_eq!(snap.counter_value("jobs_total", &[("kind", "a")]), 5);
        assert_eq!(snap.counter_value("jobs_total", &[("node", "x"), ("kind", "a")]), 7);
        assert_eq!(snap.counter_value("jobs_total", &[("kind", "b")]), 0);
        assert_eq!(snap.counter_value("absent_total", &[]), 0);
    }

    #[test]
    fn registry_clones_share_metrics() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.counter("shared").add(5);
        assert_eq!(registry.counter("shared").get(), 5);
    }

    #[test]
    fn labeled_series_are_distinct_and_label_order_is_insensitive() {
        let registry = Registry::new();
        registry.counter_with("fwd", &[("shard", "a"), ("zone", "1")]).inc();
        // Same pair set, swapped argument order: must hit the same series.
        registry.counter_with("fwd", &[("zone", "1"), ("shard", "a")]).add(2);
        registry.counter_with("fwd", &[("shard", "b")]).add(7);
        registry.counter("fwd").add(10);
        let snapshot = registry.snapshot();
        let series: Vec<(Vec<(String, String)>, u64)> = snapshot
            .counters
            .iter()
            .filter(|c| c.name == "fwd")
            .map(|c| (c.labels.clone(), c.value))
            .collect();
        assert_eq!(series.len(), 3);
        // Unlabeled aggregate sorts first within the family.
        assert_eq!(series[0], (vec![], 10));
        assert_eq!(
            series[1],
            (
                vec![
                    ("shard".to_string(), "a".to_string()),
                    ("zone".to_string(), "1".to_string())
                ],
                3
            )
        );
        assert_eq!(series[2].1, 7);
    }

    #[test]
    fn labeled_exposition_renders_escaped_label_sets_once_per_family() {
        let registry = Registry::new();
        registry.counter("fwd").add(1);
        registry.counter_with("fwd", &[("shard", "127.0.0.1:4090")]).add(2);
        registry
            .gauge_with("up", &[("path", "a\"b\\c\nd")])
            .set(1.0);
        registry
            .histogram_with("lat_ms", &[("shard", "a")], &[1.0, 10.0])
            .observe(0.5);
        let text = registry.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE smith85_fwd counter").count(), 1);
        assert!(text.contains("smith85_fwd 1"));
        assert!(text.contains("smith85_fwd{shard=\"127.0.0.1:4090\"} 2"));
        assert!(text.contains("smith85_up{path=\"a\\\"b\\\\c\\nd\"} 1"));
        assert!(text.contains("smith85_lat_ms_bucket{shard=\"a\",le=\"1\"} 1"));
        assert!(text.contains("smith85_lat_ms_bucket{shard=\"a\",le=\"+Inf\"} 1"));
        assert!(text.contains("smith85_lat_ms_sum{shard=\"a\"} 0.5"));
        // Labeled lines still parse as `series value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value_part) =
                line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name_part.is_empty());
            assert!(value_part.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    /// Deterministic pseudo-random stream for the merge property test.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn histogram_merge_is_exact_on_counts_and_bounded_on_quantiles() {
        let bounds = [1.0, 2.0, 5.0, 10.0, 50.0, 100.0];
        let mut seed = 0xdecafbadu64;
        for case in 0..64 {
            let left = Registry::new();
            let right = Registry::new();
            let lh = left.histogram("m", &bounds);
            let rh = right.histogram("m", &bounds);
            let n_left = 1 + (splitmix64(&mut seed) % 40) as usize;
            let n_right = 1 + (splitmix64(&mut seed) % 40) as usize;
            for _ in 0..n_left {
                lh.observe((splitmix64(&mut seed) % 120) as f64);
            }
            for _ in 0..n_right {
                rh.observe((splitmix64(&mut seed) % 120) as f64);
            }
            let a = left.snapshot().histograms[0].clone();
            let b = right.snapshot().histograms[0].clone();
            let merged = a.merge(&b).expect("same bounds must merge");
            // Counters are exact sums.
            assert_eq!(merged.count, a.count + b.count, "case {case}");
            assert_eq!(merged.overflow, a.overflow + b.overflow);
            assert!((merged.sum - (a.sum + b.sum)).abs() < 1e-9);
            for (i, bucket) in merged.buckets.iter().enumerate() {
                assert_eq!(bucket.count, a.buckets[i].count + b.buckets[i].count);
            }
            // Merged quantiles are bounded by the component quantiles.
            for q in [0.5, 0.9, 0.95, 0.99] {
                let (qa, qb, qm) = (a.quantile(q), b.quantile(q), merged.quantile(q));
                assert!(
                    qm >= qa.min(qb) && qm <= qa.max(qb),
                    "case {case} q={q}: merged {qm} outside [{}, {}]",
                    qa.min(qb),
                    qa.max(qb)
                );
            }
        }
    }

    #[test]
    fn histogram_merge_refuses_mismatched_bounds() {
        let left = Registry::new();
        let right = Registry::new();
        left.histogram("m", &[1.0, 2.0]).observe(0.5);
        right.histogram("m", &[1.0, 3.0]).observe(0.5);
        let a = left.snapshot().histograms[0].clone();
        let b = right.snapshot().histograms[0].clone();
        assert!(a.merge(&b).is_none());
    }

    #[test]
    fn federation_helpers_sum_totals_and_keep_labeled_series() {
        let router = Registry::new();
        router.counter("requests_total").add(5);
        router.histogram("lat_ms", &[1.0, 10.0]).observe(0.5);
        let shard = Registry::new();
        shard.counter("requests_total").add(3);
        shard.counter("shard_only_total").add(9);
        shard.gauge("depth").set(2.0);
        shard.histogram("lat_ms", &[1.0, 10.0]).observe(5.0);

        let mut federated = router.snapshot();
        let shard_snap = shard.snapshot();
        federated.absorb_totals(&shard_snap);
        federated.append(shard_snap.with_label("shard", "127.0.0.1:4090"));

        let get = |name: &str, labels: &[(&str, &str)]| -> Option<u64> {
            let labels: Vec<(String, String)> = labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect();
            federated
                .counters
                .iter()
                .find(|c| c.name == name && c.labels == labels)
                .map(|c| c.value)
        };
        // Aggregate equals router + shard; labeled series keeps shard's own value.
        assert_eq!(get("requests_total", &[]), Some(8));
        assert_eq!(
            get("requests_total", &[("shard", "127.0.0.1:4090")]),
            Some(3)
        );
        // A series only the shard has still shows up in the aggregate.
        assert_eq!(get("shard_only_total", &[]), Some(9));
        // Gauges are not aggregated — only the labeled copy exists.
        assert!(!federated
            .gauges
            .iter()
            .any(|g| g.name == "depth" && g.labels.is_empty()));
        assert!(federated
            .gauges
            .iter()
            .any(|g| g.name == "depth" && !g.labels.is_empty()));
        // Histogram aggregate merged bucket-wise.
        let agg = federated
            .histograms
            .iter()
            .find(|h| h.name == "lat_ms" && h.labels.is_empty())
            .unwrap();
        assert_eq!(agg.count, 2);
        assert_eq!(agg.buckets[0].count, 1);
        assert_eq!(agg.buckets[1].count, 1);
        // Exposition stays parseable with the mixed label sets.
        for line in federated.to_prometheus().lines().filter(|l| !l.starts_with('#')) {
            assert!(line.rsplit_once(' ').unwrap().1.parse::<f64>().is_ok());
        }
    }
}
