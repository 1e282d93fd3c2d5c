//! Order statistics, the sample-count rule, and registry-snapshot diffs.

use smith85_obs::{BucketSnapshot, HistogramSnapshot, RegistrySnapshot};

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the "percentile" is a single outlier.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile (`q` in `0..=1`) of an ascending slice.
///
/// # Panics
///
/// On an empty slice: callers check the sample count first.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether the `q`-quantile of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_TAIL_SAMPLES
}

/// Median of unsorted values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Mean of values (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The latency distribution of one phase, as the sample-count rule
/// allows it to be reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile, when reportable.
    pub p90: Option<f64>,
    /// 99th percentile, when reportable.
    pub p99: Option<f64>,
    /// Largest sample.
    pub max: f64,
}

impl Dist {
    /// Summarizes unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Dist> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = |q: f64| reportable(n, q).then(|| percentile(&sorted, q));
        Some(Dist {
            n,
            p50: percentile(&sorted, 0.5),
            p90: tail(0.9),
            p99: tail(0.99),
            max: sorted[n - 1],
        })
    }

    /// One report line: each percentile with the samples beyond it.
    pub fn render(&self, unit: &str) -> String {
        let mut out = format!("p50 {:.4} {unit} (n={})", self.p50, self.n);
        for (label, q, value) in [("p90", 0.9, self.p90), ("p99", 0.99, self.p99)] {
            match value {
                Some(v) => {
                    let beyond = self.n - rank(self.n, q);
                    out.push_str(&format!(", {label} {v:.4} {unit} ({beyond} beyond)"));
                }
                None => out.push_str(&format!(", {label} not reportable")),
            }
        }
        out.push_str(&format!(", max {:.4} {unit}", self.max));
        out
    }
}

/// Width of the windows served phases are summarized over, in seconds:
/// short enough to find stretches without host CPU steal.
pub const WINDOW_S: f64 = 0.1;

/// Share of grid-sweep's nominal batches, and of a run's set-ups, the
/// ones with the least host CPU steal, that the figures come from.
pub const CALM_SHARE: f64 = 0.5;

/// While the kept windows' mean steal share is above this, a run goes
/// on measuring, up to [`MAX_STRETCH`] times its nominal length, so a
/// burst of steal can pass.
pub const CALM_STEAL: f64 = 0.02;

/// The most a run stretches, as a multiple of its nominal length.
pub const MAX_STRETCH: usize = 2;

/// Splits `(time, value)` samples into consecutive windows `width`
/// long, starting at time 0, and returns each window's values.
pub fn windows(samples: &[(f64, f64)], width: f64) -> Vec<Vec<f64>> {
    assert!(width > 0.0, "windows need a positive width");
    let mut out: Vec<Vec<f64>> = Vec::new();
    for &(time, value) in samples {
        let index = (time.max(0.0) / width) as usize;
        if out.len() <= index {
            out.resize_with(index + 1, Vec::new);
        }
        out[index].push(value);
    }
    out
}

/// How many of `nominal` windows the figures come from: the calmest
/// `share` of them, at least one.
pub fn calm_count(nominal: usize, share: f64) -> usize {
    ((nominal as f64 * share).ceil() as usize).max(1)
}

/// The indices of the `keep` windows with the least steal (all of them
/// when there are fewer), in window order. Steal is counted in whole
/// CPU ticks, so windows often tie; ties go by a fixed hash of the
/// index, which favours no part of a run.
pub fn calmest(steal: &[f64], keep: usize) -> Vec<usize> {
    let tiebreak = |i: usize| crate::mix(0, 6, i as u64);
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| {
        steal[a]
            .total_cmp(&steal[b])
            .then_with(|| tiebreak(a).cmp(&tiebreak(b)))
    });
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// The windows served figures come from: the `keep` calmest, or only
/// the steal-free ones when fewer than `keep` read no steal at all, but
/// never fewer than half of `keep`. During a burst of steal a few
/// windows still read none, and they are kept alone rather than padded
/// with stolen ones.
pub fn calm_windows(steal: &[f64], keep: usize) -> Vec<usize> {
    let clean = steal.iter().filter(|&&s| s == 0.0).count();
    calmest(steal, keep.min(clean.max(keep.div_ceil(2))))
}

/// The median of the calmer half of `values`, where `steal[i]` is the
/// host's steal share while `values[i]` was measured.
pub fn calm_median(values: &[f64], steal: &[f64]) -> f64 {
    median_of(
        values,
        &calmest(steal, calm_count(values.len(), CALM_SHARE)),
    )
}

/// The mean steal share of the kept windows.
pub fn kept_steal(steal: &[f64], keep: &[usize]) -> f64 {
    mean(&keep.iter().map(|&i| steal[i]).collect::<Vec<_>>())
}

/// The samples of the kept windows, pooled.
pub fn pooled(windows: &[Vec<f64>], keep: &[usize]) -> Vec<f64> {
    keep.iter()
        .filter_map(|&i| windows.get(i))
        .flatten()
        .copied()
        .collect()
}

/// Per-second totals of `(time, weight)` events in each whole window
/// that fits inside `span`.
pub fn window_rates(events: &[(f64, f64)], span: f64) -> Vec<f64> {
    let mut totals = vec![0.0; (span / WINDOW_S).floor() as usize];
    for &(time, weight) in events {
        if let Some(total) = totals.get_mut((time.max(0.0) / WINDOW_S) as usize) {
            *total += weight;
        }
    }
    totals.iter().map(|t| t / WINDOW_S).collect()
}

/// The median of the kept entries of `values`.
pub fn median_of(values: &[f64], keep: &[usize]) -> f64 {
    let kept: Vec<f64> = keep
        .iter()
        .filter_map(|&i| values.get(i).copied())
        .collect();
    median(&kept)
}

/// The value of the unlabelled counter `name` (`0` when absent).
pub fn counter(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|c| c.name == name && c.labels.is_empty())
        .map_or(0, |c| c.value)
}

/// How much the unlabelled counter `name` grew between two snapshots.
pub fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    counter(after, name).saturating_sub(counter(before, name))
}

/// The observations the unlabelled histogram `name` received between
/// two snapshots of one registry, bucket by bucket. An empty histogram
/// when the series is absent from `after`.
pub fn histogram_delta(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    name: &str,
) -> HistogramSnapshot {
    let find = |snapshot: &RegistrySnapshot| {
        snapshot
            .histograms
            .iter()
            .find(|h| h.name == name && h.labels.is_empty())
            .cloned()
    };
    let Some(mut delta) = find(after) else {
        return empty_histogram(name);
    };
    if let Some(old) = find(before) {
        for (bucket, earlier) in delta.buckets.iter_mut().zip(&old.buckets) {
            bucket.count = bucket.count.saturating_sub(earlier.count);
        }
        delta.count = delta.count.saturating_sub(old.count);
        delta.sum -= old.sum;
        delta.overflow = delta.overflow.saturating_sub(old.overflow);
    }
    delta
}

fn empty_histogram(name: &str) -> HistogramSnapshot {
    HistogramSnapshot {
        name: name.to_string(),
        labels: Vec::new(),
        count: 0,
        sum: 0.0,
        overflow: 0,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        buckets: Vec::new(),
    }
}

/// The `q`-quantile of a bucketed histogram, interpolated linearly
/// inside the bucket that holds the target rank (the first bucket
/// starts at 0). Observations past the last bound report that bound.
/// `0.0` when the histogram is empty.
pub fn histogram_quantile(histogram: &HistogramSnapshot, q: f64) -> f64 {
    let total: u64 = histogram.buckets.iter().map(|b| b.count).sum::<u64>() + histogram.overflow;
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    let mut lower = 0.0;
    for BucketSnapshot { le, count } in &histogram.buckets {
        if *count > 0 && (below + count) as f64 >= target {
            let within = (target - below as f64) / *count as f64;
            return lower + (le - lower) * within.clamp(0.0, 1.0);
        }
        below += count;
        lower = *le;
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_obs::{CounterSnapshot, Registry};

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.9), 90.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(mean(&[]).to_bits(), 0.0f64.to_bits(), "not -0.0");
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(reportable(100, 0.9), "rank 90 leaves 10 beyond");
        assert!(!reportable(99, 0.9), "rank 90 of 99 leaves 9 beyond");
        assert!(reportable(1_000, 0.99));
        assert!(!reportable(999, 0.99));
        assert!(!reportable(0, 0.5));
        let dist = Dist::of(&(1..=200).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            (dist.n, dist.p50, dist.p90, dist.max),
            (200, 100.0, Some(180.0), 200.0)
        );
        assert_eq!(dist.p99, None, "2 samples beyond p99 of 200");
        let line = dist.render("ms");
        assert!(
            line.contains("n=200") && line.contains("20 beyond"),
            "{line}"
        );
        assert!(line.contains("p99 not reportable"), "{line}");
        assert_eq!(Dist::of(&[]), None);
    }

    #[test]
    fn timed_figures_come_from_the_calmest_windows() {
        // Four 1 s windows of 100 samples; window 1 stalled, window 3
        // had the most steal.
        let mut samples = Vec::new();
        for w in 0..4 {
            for i in 0..100 {
                let value = if w == 1 {
                    50.0
                } else {
                    1.0 + f64::from(i) / 100.0
                };
                samples.push((f64::from(w) + f64::from(i) / 100.0, value));
            }
        }
        let split = windows(&samples, 1.0);
        assert_eq!(split.iter().map(Vec::len).collect::<Vec<_>>(), vec![100; 4]);
        let keep = calmest(&[0.02, 0.01, 0.03, 0.20], calm_count(4, CALM_SHARE));
        assert_eq!(keep, vec![0, 1], "the calmer half, in window order");
        assert!((kept_steal(&[0.02, 0.01, 0.03, 0.20], &keep) - 0.015).abs() < 1e-12);
        assert_eq!(calmest(&[0.5], calm_count(1, CALM_SHARE)), vec![0]);
        assert_eq!(
            calmest(&[0.3, 0.1], 5),
            vec![0, 1],
            "fewer windows than kept"
        );
        let bursty = [0.0, 0.0, 0.1, 0.2, 0.0, 0.3, 0.05, 0.1];
        assert_eq!(calm_windows(&bursty, 2), vec![0, 1], "enough clean windows");
        assert_eq!(
            calm_windows(&bursty, 4),
            vec![0, 1, 4],
            "only the steal-free windows, when there are at least half of `keep`"
        );
        assert_eq!(
            calm_windows(&bursty, 8),
            vec![0, 1, 4, 6],
            "never fewer than half of `keep`"
        );
        let tied = calmest(&[0.0; 100], 50);
        assert_eq!(tied, calmest(&[0.0; 100], 50), "ties break the same way");
        let early = tied.iter().filter(|&&i| i < 50).count();
        assert!(
            (15..=35).contains(&early),
            "ties favour no part of a run: {early} of 50 kept windows are early"
        );
        assert_eq!(
            calm_median(&[9.0, 1.0, 2.0, 50.0, 3.0], &[0.0, 0.1, 0.0, 0.5, 0.0]),
            3.0,
            "the median of the three calmest set-ups"
        );
        let calm = Dist::of(&pooled(&split, &[0, 2, 3])).unwrap();
        assert_eq!(calm.n, 300);
        assert!(
            (calm.p90.unwrap() - 1.89).abs() < 1e-9,
            "the stalled window is left out"
        );
        assert_eq!(
            pooled(&split, &[1, 9]),
            vec![50.0; 100],
            "missing windows add nothing"
        );
        let events: Vec<(f64, f64)> = (0..100)
            .map(|i| ((f64::from(i) + 0.5) * 0.004, 1.0))
            .collect();
        let rates = window_rates(&events, 0.4);
        assert_eq!(rates.len(), 4);
        assert!(rates.iter().all(|r| (r - 250.0).abs() < 1e-9), "{rates:?}");
        assert_eq!(
            window_rates(&events, 0.35).len(),
            3,
            "the partial last window is dropped"
        );
        assert_eq!(median_of(&[5.0, 1.0, 9.0, 7.0], &[1, 3]), 1.0);
    }

    #[test]
    fn registry_snapshots_diff_counters_and_histograms() {
        let registry = Registry::new();
        registry.counter("jobs_total").add(5);
        let hist = registry.histogram("wait_ms", &[1.0, 2.0, 4.0]);
        hist.observe(0.5);
        let before = registry.snapshot();
        registry.counter("jobs_total").add(7);
        registry.counter("fresh_total").add(3);
        for v in [1.5, 1.5, 3.0, 9.0] {
            hist.observe(v);
        }
        let after = registry.snapshot();
        assert_eq!(counter_delta(&before, &after, "jobs_total"), 7);
        assert_eq!(
            counter_delta(&before, &after, "fresh_total"),
            3,
            "new series diff from 0"
        );
        assert_eq!(counter_delta(&before, &after, "missing_total"), 0);
        let delta = histogram_delta(&before, &after, "wait_ms");
        assert_eq!(delta.count, 4);
        assert_eq!(delta.overflow, 1);
        let counts: Vec<u64> = delta.buckets.iter().map(|b| b.count).collect();
        assert_eq!(
            counts,
            vec![0, 2, 1],
            "the pre-window 0.5 ms sample is gone"
        );
        assert!((delta.sum - 15.0).abs() < 1e-9);
        assert_eq!(histogram_delta(&before, &after, "absent").count, 0);
    }

    #[test]
    fn labelled_series_are_not_the_aggregate() {
        let mut snapshot = RegistrySnapshot::default();
        snapshot.counters.push(CounterSnapshot {
            name: "router_forwarded_total".to_string(),
            labels: vec![("shard".to_string(), "a".to_string())],
            value: 9,
        });
        assert_eq!(counter(&snapshot, "router_forwarded_total"), 0);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_a_bucket() {
        let registry = Registry::new();
        let hist = registry.histogram("h", &[1.0, 2.0, 4.0]);
        for v in [1.5, 1.5, 3.0, 3.0] {
            hist.observe(v);
        }
        let snap = registry.snapshot().histograms[0].clone();
        assert!((histogram_quantile(&snap, 0.25) - 1.5).abs() < 1e-9);
        assert!((histogram_quantile(&snap, 0.5) - 2.0).abs() < 1e-9);
        assert!((histogram_quantile(&snap, 0.75) - 3.0).abs() < 1e-9);
        assert_eq!(histogram_quantile(&empty_histogram("e"), 0.9), 0.0);
    }
}
