//! Trace fault injection: a deterministic, seeded iterator adapter that
//! corrupts an access stream in controlled ways.
//!
//! Long measurement campaigns have to survive bad input — truncated trace
//! files, flipped bits from a flaky disk, duplicated records from a
//! half-retried write. The paper's own numbers came from batch runs over
//! 49 real traces that could not all be pristine. [`FaultInjector`] makes
//! such corruption reproducible: wrap any access stream, give it a seed
//! and per-fault rates, and the same corrupted stream comes out every
//! time — which is what a regression test for robustness needs.
//!
//! ```
//! use smith85_trace::fault::{FaultConfig, FaultInjector};
//! use smith85_trace::{Addr, MemoryAccess};
//!
//! let clean = (0..1000).map(|i| MemoryAccess::read(Addr::new(i * 4), 4));
//! let config = FaultConfig {
//!     drop_rate: 0.01,
//!     duplicate_rate: 0.01,
//!     bit_flip_rate: 0.005,
//! };
//! let injector = FaultInjector::new(clean, 85, config).unwrap();
//! let corrupted: Vec<MemoryAccess> = injector.collect();
//! assert!(!corrupted.is_empty());
//! ```

use crate::MemoryAccess;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The shared splitmix64 step: one deterministic 64-bit draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-fault probabilities, each applied independently per reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a reference is silently dropped.
    pub drop_rate: f64,
    /// Probability that a reference is emitted twice.
    pub duplicate_rate: f64,
    /// Probability that one random address bit is flipped.
    pub bit_flip_rate: f64,
}

impl FaultConfig {
    /// No faults at all (the identity adapter).
    pub const NONE: FaultConfig = FaultConfig {
        drop_rate: 0.0,
        duplicate_rate: 0.0,
        bit_flip_rate: 0.0,
    };

    /// Checks every rate is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`FaultConfigError`] naming the offending rate if any rate
    /// is outside `[0, 1]` or not finite.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("bit_flip_rate", self.bit_flip_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(FaultConfigError { name, rate });
            }
        }
        Ok(())
    }
}

/// A fault rate outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfigError {
    /// Which rate was bad.
    pub name: &'static str,
    /// The offending value.
    pub rate: f64,
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault {} = {} is not a probability in [0, 1]",
            self.name, self.rate
        )
    }
}

impl Error for FaultConfigError {}

/// Counters of the faults actually injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// References consumed from the wrapped stream.
    pub seen: u64,
    /// References dropped.
    pub dropped: u64,
    /// References duplicated.
    pub duplicated: u64,
    /// References with a flipped address bit.
    pub bit_flipped: u64,
}

/// A seeded, deterministic fault-injecting iterator adapter.
///
/// Faults are decided per reference from a private splitmix64 stream, so
/// the output depends only on `(input stream, seed, config)` — rerunning
/// with the same three reproduces the corruption exactly.
#[derive(Debug, Clone)]
pub struct FaultInjector<I> {
    inner: I,
    config: FaultConfig,
    rng: u64,
    pending_duplicate: Option<MemoryAccess>,
    stats: FaultStats,
}

impl<I> FaultInjector<I>
where
    I: Iterator<Item = MemoryAccess>,
{
    /// Wraps `inner`, injecting faults at the configured rates.
    ///
    /// # Errors
    ///
    /// Returns [`FaultConfigError`] if a rate is not a probability.
    pub fn new(inner: I, seed: u64, config: FaultConfig) -> Result<Self, FaultConfigError> {
        config.validate()?;
        Ok(FaultInjector {
            inner,
            config,
            // Mix the seed so seed 0 still gets a lively stream.
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
            pending_duplicate: None,
            stats: FaultStats::default(),
        })
    }

    /// The faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    fn roll(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }
}

impl<I> Iterator for FaultInjector<I>
where
    I: Iterator<Item = MemoryAccess>,
{
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if let Some(dup) = self.pending_duplicate.take() {
            return Some(dup);
        }
        loop {
            let mut access = self.inner.next()?;
            self.stats.seen += 1;
            if self.roll(self.config.drop_rate) {
                self.stats.dropped += 1;
                continue;
            }
            if self.roll(self.config.bit_flip_rate) {
                let bit = self.next_u64() % u64::BITS as u64;
                access.addr = crate::Addr::new(access.addr.get() ^ (1 << bit));
                self.stats.bit_flipped += 1;
            }
            if self.roll(self.config.duplicate_rate) {
                self.stats.duplicated += 1;
                self.pending_duplicate = Some(access);
            }
            return Some(access);
        }
    }
}

/// A disk-level fault: how to damage a byte image or file.
///
/// These model the failure modes a persistent store must survive — the
/// crash-safety tests for `smith85-store` inject them deterministically
/// and assert that recovery quarantines exactly the damaged entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// A write interrupted partway: the file keeps only a prefix (possibly
    /// empty) of its bytes.
    TornWrite,
    /// Media rot: exactly one randomly-chosen bit is inverted.
    BitFlip,
    /// A read that returned fewer bytes than asked: the tail (1 to 64
    /// bytes) is missing.
    ShortRead,
}

impl fmt::Display for DiskFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskFault::TornWrite => write!(f, "torn write"),
            DiskFault::BitFlip => write!(f, "bit flip"),
            DiskFault::ShortRead => write!(f, "short read"),
        }
    }
}

/// A seeded, deterministic corruptor of byte images and files: the
/// disk-fault counterpart of [`FaultInjector`].
///
/// The damage depends only on `(seed, sequence of calls, input sizes)`,
/// so a crash-safety test reproduces the exact same corruption every run.
///
/// ```
/// use smith85_trace::fault::{DiskFault, DiskFaultInjector};
///
/// let mut injector = DiskFaultInjector::new(85);
/// let mut image = vec![0xAAu8; 128];
/// injector.corrupt_buf(DiskFault::BitFlip, &mut image);
/// assert_eq!(image.iter().filter(|&&b| b != 0xAA).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DiskFaultInjector {
    rng: u64,
}

impl DiskFaultInjector {
    /// Creates a corruptor with the given seed.
    pub fn new(seed: u64) -> Self {
        DiskFaultInjector {
            // Same seed pre-mix as FaultInjector so seed 0 is lively.
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Applies `fault` to an in-memory image. Returns the number of bytes
    /// removed (torn write / short read) or `0` for a bit flip. Empty
    /// images are left untouched.
    pub fn corrupt_buf(&mut self, fault: DiskFault, bytes: &mut Vec<u8>) -> usize {
        if bytes.is_empty() {
            return 0;
        }
        let len = bytes.len();
        match fault {
            DiskFault::TornWrite => {
                // Keep a strict prefix: 0..len bytes survive.
                let keep = (self.next_u64() as usize) % len;
                bytes.truncate(keep);
                len - keep
            }
            DiskFault::BitFlip => {
                let bit = (self.next_u64() as usize) % (len * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                0
            }
            DiskFault::ShortRead => {
                let lost = 1 + (self.next_u64() as usize) % len.min(64);
                bytes.truncate(len - lost);
                lost
            }
        }
    }

    /// Applies `fault` to the file at `path` in place (read, corrupt,
    /// rewrite — deliberately *not* atomic, this is the failure being
    /// modelled). Returns the bytes removed, as for
    /// [`corrupt_buf`](Self::corrupt_buf).
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn corrupt_file(&mut self, fault: DiskFault, path: &Path) -> io::Result<usize> {
        let mut bytes = fs::read(path)?;
        let removed = self.corrupt_buf(fault, &mut bytes);
        fs::write(path, &bytes)?;
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    fn clean(n: u64) -> impl Iterator<Item = MemoryAccess> + Clone {
        (0..n).map(|i| MemoryAccess::read(Addr::new(0x1000 + i * 4), 4))
    }

    #[test]
    fn zero_rates_are_the_identity() {
        let out: Vec<_> = FaultInjector::new(clean(500), 1, FaultConfig::NONE)
            .unwrap()
            .collect();
        assert_eq!(out, clean(500).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_corrupted_stream() {
        let config = FaultConfig {
            drop_rate: 0.05,
            duplicate_rate: 0.05,
            bit_flip_rate: 0.02,
        };
        let a: Vec<_> = FaultInjector::new(clean(2000), 85, config).unwrap().collect();
        let b: Vec<_> = FaultInjector::new(clean(2000), 85, config).unwrap().collect();
        assert_eq!(a, b);
        let c: Vec<_> = FaultInjector::new(clean(2000), 86, config).unwrap().collect();
        assert_ne!(a, c, "different seed must corrupt differently");
    }

    #[test]
    fn rates_shape_the_output() {
        let drop_all = FaultConfig {
            drop_rate: 1.0,
            ..FaultConfig::NONE
        };
        let out: Vec<_> = FaultInjector::new(clean(100), 1, drop_all).unwrap().collect();
        assert!(out.is_empty());

        let dup_all = FaultConfig {
            duplicate_rate: 1.0,
            ..FaultConfig::NONE
        };
        let mut inj = FaultInjector::new(clean(100), 1, dup_all).unwrap();
        let out: Vec<_> = inj.by_ref().collect();
        assert_eq!(out.len(), 200);
        assert_eq!(out[0], out[1]);
        assert_eq!(inj.stats().duplicated, 100);

        let flip_all = FaultConfig {
            bit_flip_rate: 1.0,
            ..FaultConfig::NONE
        };
        let mut inj = FaultInjector::new(clean(100), 1, flip_all).unwrap();
        let out: Vec<_> = inj.by_ref().collect();
        assert_eq!(out.len(), 100);
        assert!(out
            .iter()
            .zip(clean(100))
            .all(|(corrupt, orig)| corrupt.addr != orig.addr));
        assert_eq!(inj.stats().bit_flipped, 100);
    }

    #[test]
    fn moderate_rates_inject_roughly_proportionally() {
        let config = FaultConfig {
            drop_rate: 0.10,
            duplicate_rate: 0.10,
            bit_flip_rate: 0.10,
        };
        let mut inj = FaultInjector::new(clean(10_000), 7, config).unwrap();
        let _drain: Vec<_> = inj.by_ref().collect();
        let s = inj.stats();
        assert_eq!(s.seen, 10_000);
        for (label, count) in [
            ("dropped", s.dropped),
            ("duplicated", s.duplicated),
            ("bit_flipped", s.bit_flipped),
        ] {
            assert!(
                (600..=1500).contains(&count),
                "{label} = {count}, expected ~1000"
            );
        }
    }

    #[test]
    fn bad_rates_are_typed_errors() {
        for bad in [
            FaultConfig {
                drop_rate: -0.1,
                ..FaultConfig::NONE
            },
            FaultConfig {
                duplicate_rate: 1.5,
                ..FaultConfig::NONE
            },
            FaultConfig {
                bit_flip_rate: f64::NAN,
                ..FaultConfig::NONE
            },
        ] {
            let Err(err) = FaultInjector::new(clean(1), 0, bad) else {
                panic!("rate {bad:?} accepted");
            };
            assert!(err.to_string().contains("not a probability"), "{err}");
        }
    }

    #[test]
    fn disk_faults_are_deterministic() {
        for fault in [DiskFault::TornWrite, DiskFault::BitFlip, DiskFault::ShortRead] {
            let mut a_inj = DiskFaultInjector::new(85);
            let mut b_inj = DiskFaultInjector::new(85);
            let mut a: Vec<u8> = (0..=255).collect();
            let mut b = a.clone();
            assert_eq!(
                a_inj.corrupt_buf(fault, &mut a),
                b_inj.corrupt_buf(fault, &mut b)
            );
            assert_eq!(a, b, "{fault} must be reproducible");
        }
    }

    #[test]
    fn disk_fault_shapes() {
        let original: Vec<u8> = (0..=255).cycle().take(1000).collect();

        let mut inj = DiskFaultInjector::new(7);
        let mut torn = original.clone();
        let removed = inj.corrupt_buf(DiskFault::TornWrite, &mut torn);
        assert!(torn.len() < original.len());
        assert_eq!(torn.len() + removed, original.len());
        assert_eq!(torn[..], original[..torn.len()], "torn write keeps a prefix");

        let mut flipped = original.clone();
        assert_eq!(inj.corrupt_buf(DiskFault::BitFlip, &mut flipped), 0);
        assert_eq!(flipped.len(), original.len());
        let differing: Vec<usize> = (0..original.len())
            .filter(|&i| flipped[i] != original[i])
            .collect();
        assert_eq!(differing.len(), 1);
        let i = differing[0];
        assert_eq!((flipped[i] ^ original[i]).count_ones(), 1, "exactly one bit");

        let mut short = original.clone();
        let lost = inj.corrupt_buf(DiskFault::ShortRead, &mut short);
        assert!((1..=64).contains(&lost));
        assert_eq!(short.len(), original.len() - lost);
        assert_eq!(short[..], original[..short.len()]);
    }

    #[test]
    fn disk_fault_edge_sizes() {
        let mut inj = DiskFaultInjector::new(1);
        let mut empty: Vec<u8> = Vec::new();
        for fault in [DiskFault::TornWrite, DiskFault::BitFlip, DiskFault::ShortRead] {
            assert_eq!(inj.corrupt_buf(fault, &mut empty), 0);
            assert!(empty.is_empty());
        }
        // One-byte images: short read must still remove the only byte.
        let mut one = vec![0xFFu8];
        let lost = inj.corrupt_buf(DiskFault::ShortRead, &mut one);
        assert_eq!((lost, one.len()), (1, 0));
    }

    #[test]
    fn disk_fault_corrupts_files_on_disk() {
        let path = std::env::temp_dir().join(format!("s85-diskfault-{}", std::process::id()));
        std::fs::write(&path, [0u8; 64]).unwrap();
        let mut inj = DiskFaultInjector::new(3);
        inj.corrupt_file(DiskFault::BitFlip, &path).unwrap();
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after.len(), 64);
        assert_eq!(after.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
