//! The synthetic data-reference model.
//!
//! Data references are drawn from three segments, mixed per reference:
//!
//! * a **stack** segment — a small, intensely hot region (activation
//!   records, temporaries);
//! * a **static/heap** segment — a Zipf-weighted set of lines with an
//!   optional slow *phase drift* that re-randomizes part of the hot set,
//!   modelling program phases (and making task-switch purges matter);
//! * a **sequential** segment — streaming walks over arrays, the dominant
//!   pattern of the paper's Fortran scientific codes and the reason data
//!   prefetching works (§3.5.1: "data is often stored and referenced
//!   sequentially").

use crate::dist::{derive_seed, ZipfRanks};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the data-reference model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataParams {
    /// Base address of the data region (stack, static and array segments
    /// are carved out of it in that order).
    pub data_base: u64,
    /// Total data footprint target in bytes.
    pub data_bytes: u64,
    /// Access size in bytes (the architecture's word size).
    pub word_bytes: u64,
    /// Fraction of data references that go to the stack segment.
    pub stack_fraction: f64,
    /// Fraction of data references that are sequential array walks.
    pub seq_fraction: f64,
    /// Zipf skew over static-segment lines (the data-locality knob).
    pub static_alpha: f64,
    /// Bytes reserved for the stack segment.
    pub stack_bytes: u64,
    /// Number of concurrently walked arrays in the sequential segment.
    pub seq_streams: usize,
    /// Data references between phase drifts of the static hot set
    /// (0 disables drift).
    pub phase_interval: u64,
    /// Fraction of the static segment's rank space that writes draw from
    /// (1.0 = writes land anywhere reads do). Real programs write a small
    /// hot subset of their data (activation records, output buffers) while
    /// much of the footprint is read-only; this knob calibrates the
    /// dirty-push fraction of the paper's Table 3.
    pub write_concentration: f64,
}

impl DataParams {
    fn validate(&self) {
        assert!(self.word_bytes > 0, "word size must be nonzero");
        assert!(
            self.stack_fraction >= 0.0
                && self.seq_fraction >= 0.0
                && self.stack_fraction + self.seq_fraction <= 1.0,
            "segment fractions must be nonnegative and sum to <= 1"
        );
        assert!(self.seq_streams > 0, "need at least one sequential stream");
        assert!(
            self.data_bytes > self.stack_bytes,
            "data region must exceed the stack segment"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_concentration),
            "write concentration must lie in [0, 1]"
        );
    }
}

const LINE: u64 = 16;

/// Stateful generator of data-reference addresses.
#[derive(Debug, Clone)]
pub struct DataModel {
    params: DataParams,
    rng: SmallRng,
    stack_lines: u64,
    static_lines: u64,
    static_zipf: ZipfRanks,
    /// Zipf over the writable prefix of the rank space.
    write_zipf: ZipfRanks,
    /// Permutation from Zipf rank to line index within the static segment.
    static_perm: Vec<u32>,
    seq_cursors: Vec<u64>,
    seq_lines: u64,
    refs_since_phase: u64,
    /// Slowly advancing stack-pointer anchor.
    stack_anchor: u64,
}

impl DataModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent.
    pub fn new(params: DataParams, seed: u64) -> Self {
        params.validate();
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0xda7a));
        let stack_lines = (params.stack_bytes / LINE).max(1);
        let remaining = params.data_bytes - params.stack_bytes;
        // Split the rest: static gets (1 - seq share), arrays the rest,
        // proportional to their reference fractions (with floors so both
        // segments exist).
        let dyn_frac = 1.0 - params.stack_fraction;
        let seq_share = if dyn_frac > 0.0 {
            (params.seq_fraction / dyn_frac).min(0.9)
        } else {
            0.0
        };
        let seq_bytes = ((remaining as f64) * seq_share) as u64;
        let static_bytes = (remaining - seq_bytes).max(LINE);
        let static_lines = (static_bytes / LINE).max(1);
        let seq_lines = (seq_bytes / LINE).max(params.seq_streams as u64);
        let static_zipf = ZipfRanks::new(static_lines as usize, params.static_alpha);
        // Writes are more skewed than reads: a program re-writes a few
        // output buffers and counters far more than it re-reads its
        // hottest inputs. `write_concentration` = 1 means writes spread
        // exactly like reads; 0 means they collapse onto a tiny hot set.
        let write_skew = 2.0 * (1.0 - params.write_concentration);
        let write_zipf = ZipfRanks::new(static_lines as usize, params.static_alpha + write_skew);
        let mut static_perm: Vec<u32> = (0..static_lines as u32).collect();
        // Fisher-Yates so the hot ranks land on scattered lines.
        for i in (1..static_perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            static_perm.swap(i, j);
        }
        let seq_cursors = (0..params.seq_streams)
            .map(|k| (k as u64 * seq_lines / params.seq_streams as u64) * LINE)
            .collect();
        DataModel {
            params,
            rng,
            stack_lines,
            static_lines,
            static_zipf,
            write_zipf,
            static_perm,
            seq_cursors,
            seq_lines,
            refs_since_phase: 0,
            stack_anchor: 0,
        }
    }

    /// Address of the next data reference. `is_write` steers the
    /// reference toward the writable portions of the data (the stack, a
    /// concentrated static subset, and the first sequential stream).
    pub fn next_ref(&mut self, is_write: bool) -> u64 {
        self.refs_since_phase += 1;
        if self.params.phase_interval > 0 && self.refs_since_phase >= self.params.phase_interval {
            self.drift_phase();
            self.refs_since_phase = 0;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let p = &self.params;
        // Writes favour the concentrated static subset over the stack:
        // activation records are re-read far more than re-written, and
        // this keeps the distinct-dirty-line count (Table 3) realistic.
        let stack_f = if is_write {
            p.stack_fraction * 0.4
        } else {
            p.stack_fraction
        };
        if u < stack_f {
            self.stack_ref(is_write)
        } else if u < stack_f + p.seq_fraction {
            // Most array walks are input scans; only a `write_concentration`
            // share of the writes actually streams into the output array,
            // the rest update concentrated static state (accumulators).
            if is_write && self.rng.gen_range(0.0..1.0) > p.write_concentration {
                self.static_ref(true)
            } else {
                self.seq_ref(is_write)
            }
        } else {
            self.static_ref(is_write)
        }
    }

    /// Access size in bytes.
    pub fn word_bytes(&self) -> u8 {
        self.params.word_bytes.min(u8::MAX as u64) as u8
    }

    fn stack_ref(&mut self, is_write: bool) -> u64 {
        // Accesses cluster near the anchor; the anchor itself random-walks
        // over the stack segment. Writes stay at the top of the stack
        // (the current frame); reads also touch caller frames.
        if self.rng.gen_ratio(1, 64) {
            let step = self.rng.gen_range(0u64..4);
            self.stack_anchor = (self.stack_anchor + step) % self.stack_lines;
        }
        let max_depth: u64 = if is_write { 2 } else { 4 };
        let depth = self.rng.gen_range(0..max_depth).min(self.stack_lines - 1);
        let line = (self.stack_anchor + self.stack_lines - depth) % self.stack_lines;
        self.params.data_base + line * LINE + self.word_offset()
    }

    fn static_ref(&mut self, is_write: bool) -> u64 {
        let rank = if is_write {
            self.write_zipf.sample(&mut self.rng)
        } else {
            self.static_zipf.sample(&mut self.rng)
        };
        let line = self.static_perm[rank] as u64;
        self.params.data_base + self.params.stack_bytes + line * LINE + self.word_offset()
    }

    fn seq_ref(&mut self, is_write: bool) -> u64 {
        // Writes stream into one output array; the other walks are scans.
        let k = if is_write {
            0
        } else {
            self.rng.gen_range(0..self.seq_cursors.len())
        };
        let base = self.params.data_base + self.params.stack_bytes + self.static_lines * LINE;
        let cursor = &mut self.seq_cursors[k];
        let addr = base + *cursor;
        *cursor += self.params.word_bytes;
        if *cursor >= self.seq_lines * LINE {
            *cursor = 0;
        }
        addr
    }

    fn word_offset(&mut self) -> u64 {
        let words = LINE / self.params.word_bytes.min(LINE);
        self.rng.gen_range(0..words.max(1)) * self.params.word_bytes % LINE
    }

    /// Swaps a slice of hot ranks to new random lines: a program phase
    /// change.
    fn drift_phase(&mut self) {
        let n = self.static_perm.len();
        let hot = (n / 16).max(1).min(n);
        for i in 0..hot {
            let j = self.rng.gen_range(0..n);
            self.static_perm.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn params() -> DataParams {
        DataParams {
            data_base: 0x100_0000,
            data_bytes: 16 * 1024,
            word_bytes: 4,
            stack_fraction: 0.25,
            seq_fraction: 0.3,
            static_alpha: 0.9,
            stack_bytes: 512,
            seq_streams: 2,
            phase_interval: 10_000,
            write_concentration: 0.4,
        }
    }

    #[test]
    fn addresses_stay_in_data_region() {
        let p = params();
        let mut m = DataModel::new(p, 3);
        for _ in 0..50_000 {
            let a = m.next_ref(false);
            assert!(
                a >= p.data_base && a < p.data_base + p.data_bytes + LINE,
                "address {a:#x} escaped"
            );
        }
    }

    #[test]
    fn footprint_bounded_by_target() {
        let p = params();
        let mut m = DataModel::new(p, 4);
        let mut lines = HashSet::new();
        for _ in 0..100_000 {
            lines.insert(m.next_ref(false) / LINE);
        }
        let touched = lines.len() as u64 * LINE;
        assert!(touched <= p.data_bytes + LINE);
        assert!(touched > p.data_bytes / 4, "only {touched} bytes touched");
    }

    #[test]
    fn higher_alpha_means_tighter_locality() {
        let hot_share = |alpha: f64| {
            let mut p = params();
            p.static_alpha = alpha;
            p.stack_fraction = 0.0;
            p.seq_fraction = 0.0;
            p.phase_interval = 0;
            let mut m = DataModel::new(p, 5);
            let mut counts = std::collections::HashMap::new();
            for _ in 0..30_000 {
                *counts.entry(m.next_ref(false) / LINE).or_insert(0u64) += 1;
            }
            let mut v: Vec<u64> = counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            let top: u64 = v.iter().take(16).sum();
            top as f64 / 30_000.0
        };
        assert!(hot_share(1.2) > hot_share(0.4));
    }

    #[test]
    fn sequential_segment_walks_forward() {
        let mut p = params();
        p.stack_fraction = 0.0;
        p.seq_fraction = 1.0;
        p.seq_streams = 1;
        p.phase_interval = 0;
        let mut m = DataModel::new(p, 6);
        let a = m.next_ref(false);
        let b = m.next_ref(false);
        assert_eq!(b - a, p.word_bytes);
    }

    #[test]
    fn phase_drift_changes_hot_set() {
        let mut p = params();
        p.stack_fraction = 0.0;
        p.seq_fraction = 0.0;
        p.phase_interval = 1_000;
        let mut m = DataModel::new(p, 7);
        let hot_before: HashSet<u64> = (0..500).map(|_| m.next_ref(false) / LINE).collect();
        for _ in 0..20_000 {
            m.next_ref(false);
        }
        let hot_after: HashSet<u64> = (0..500).map(|_| m.next_ref(false) / LINE).collect();
        let overlap = hot_before.intersection(&hot_after).count();
        assert!(
            overlap < hot_before.len(),
            "hot set never drifted ({overlap} of {})",
            hot_before.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = DataModel::new(params(), 9);
        let mut b = DataModel::new(params(), 9);
        for _ in 0..1000 {
            assert_eq!(a.next_ref(false), b.next_ref(false));
        }
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn rejects_bad_fractions() {
        let mut p = params();
        p.stack_fraction = 0.8;
        p.seq_fraction = 0.5;
        let _ = DataModel::new(p, 0);
    }
}
