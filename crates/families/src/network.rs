//! The network destination-address workload family.
//!
//! Models the locality structure Jain's destination-address study
//! (arXiv cs/9809092) identifies in LAN traffic: packets arrive in
//! **trains** (geometric runs of consecutive packets to one
//! destination), trains revisit **recently active destinations** far
//! more often than chance (a recency stack with geometrically decaying
//! depth preference), and long-term destination popularity is skewed.
//! That paper evaluates small fully-associative address caches under
//! FIFO vs LRU vs random replacement — exactly the policy matrix
//! `smith85-cachesim` exposes — so these streams are the replication
//! vehicle for its qualitative findings.
//!
//! Every access is a read of one destination's cache entry; addresses
//! are spaced [`DEST_SPACING`] bytes apart so each destination occupies
//! its own line at any line size up to that spacing.

use crate::rng::FamilyRng;
use smith85_trace::{AccessKind, Addr, MemoryAccess};

/// Base byte address of the destination-address space; disjoint from
/// both the CPU segments and [`crate::storage::STORAGE_BASE`].
pub const NETWORK_BASE: u64 = 0x4000_0000_0000;

/// Byte distance between destination entries.
pub const DEST_SPACING: u64 = 64;

/// Scatters popularity ranks over the destination space.
const RANK_SCRAMBLE: u64 = 2_654_435_761;

/// A destination-address stream description. All knobs are public;
/// validation happens in [`NetworkProfile::try_generator`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Catalog name, e.g. `"N-LAN"`.
    pub name: String,
    /// One-line description for catalog listings.
    pub description: String,
    /// Distinct destinations ever seen on the wire.
    pub hosts: u64,
    /// Probability each packet continues the current train, so trains
    /// are geometric with mean `1 / (1 - train_prob)` packets.
    pub train_prob: f64,
    /// Probability a *new* train goes to a recently active destination
    /// (drawn from the recency stack) rather than a fresh draw.
    pub locality: f64,
    /// Recency stack capacity (most-recently-used destinations).
    pub stack_depth: usize,
    /// Zipf exponent of long-term destination popularity for fresh
    /// draws (0 = uniform).
    pub zipf_alpha: f64,
    /// Generator seed; the stream is a pure function of the profile.
    pub seed: u64,
}

impl NetworkProfile {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 {
            return Err(format!("network profile {}: hosts must be > 0", self.name));
        }
        if !(0.0..1.0).contains(&self.train_prob) {
            return Err(format!("network profile {}: train_prob must lie in [0, 1)", self.name));
        }
        if !(0.0..=1.0).contains(&self.locality) {
            return Err(format!("network profile {}: locality must lie in [0, 1]", self.name));
        }
        if self.stack_depth == 0 {
            return Err(format!("network profile {}: stack_depth must be > 0", self.name));
        }
        if !(0.0..=8.0).contains(&self.zipf_alpha) {
            return Err(format!("network profile {}: zipf_alpha must lie in [0, 8]", self.name));
        }
        Ok(())
    }

    /// An infinite, deterministic destination stream.
    ///
    /// # Errors
    ///
    /// Returns [`validate`](Self::validate)'s message for bad knobs.
    pub fn try_generator(&self) -> Result<NetworkGenerator, String> {
        self.validate()?;
        Ok(NetworkGenerator {
            rng: FamilyRng::new(self.seed),
            hosts: self.hosts,
            train_prob: self.train_prob,
            locality: self.locality,
            stack_depth: self.stack_depth,
            zipf_alpha: self.zipf_alpha,
            current: 0,
            started: false,
            stack: Vec::with_capacity(self.stack_depth),
        })
    }

    /// Panicking form of [`try_generator`](Self::try_generator).
    ///
    /// # Panics
    ///
    /// Panics on an invalid profile.
    pub fn generator(&self) -> NetworkGenerator {
        self.try_generator().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The pool/store identity string: every field the stream depends
    /// on, floats as bit patterns so distinct dials never alias.
    pub fn identity_key(&self) -> String {
        format!(
            "network/{}/{:x}/{:x}:{:x}:{:x}/{}/{:x}",
            self.name,
            self.hosts,
            self.train_prob.to_bits(),
            self.locality.to_bits(),
            self.zipf_alpha.to_bits(),
            self.stack_depth,
            self.seed,
        )
    }
}

/// The iterator behind [`NetworkProfile::generator`].
#[derive(Debug, Clone)]
pub struct NetworkGenerator {
    rng: FamilyRng,
    hosts: u64,
    train_prob: f64,
    locality: f64,
    stack_depth: usize,
    zipf_alpha: f64,
    current: u64,
    started: bool,
    /// Most-recent-first recency stack of destinations.
    stack: Vec<u64>,
}

impl NetworkGenerator {
    fn new_train(&mut self) -> u64 {
        if !self.stack.is_empty() && self.rng.next_f64() < self.locality {
            // Geometric depth preference over the recency stack: each
            // deeper entry is half as likely, matching the sharply
            // recency-weighted reuse Jain measures.
            let mut depth = 0usize;
            while depth + 1 < self.stack.len() && self.rng.next_f64() < 0.5 {
                depth += 1;
            }
            self.stack[depth]
        } else {
            let rank = self.rng.next_zipf(self.hosts, self.zipf_alpha);
            rank.wrapping_mul(RANK_SCRAMBLE) % self.hosts
        }
    }

    /// Moves `dest` to the front of the recency stack, dropping the
    /// least recent entry when a new destination finds the stack full.
    /// One rotation shifts the entries above `dest` down a slot, so a
    /// train continuation (`dest` already in front) moves nothing.
    fn touch(&mut self, dest: u64) {
        let pos = match self.stack.iter().position(|&d| d == dest) {
            Some(pos) => pos,
            None => {
                if self.stack.len() < self.stack_depth {
                    self.stack.push(dest);
                }
                self.stack.len() - 1
            }
        };
        self.stack[..=pos].rotate_right(1);
        self.stack[0] = dest;
    }
}

impl Iterator for NetworkGenerator {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if !self.started || self.rng.next_f64() >= self.train_prob {
            self.current = self.new_train();
            self.started = true;
        }
        let dest = self.current;
        self.touch(dest);
        let addr = Addr::new(NETWORK_BASE + dest * DEST_SPACING);
        Some(MemoryAccess::new(AccessKind::Read, addr, 4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> NetworkProfile {
        NetworkProfile {
            name: "test-net".to_string(),
            description: String::new(),
            hosts: 500,
            train_prob: 0.6,
            locality: 0.7,
            stack_depth: 16,
            zipf_alpha: 0.8,
            seed: 85,
        }
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a: Vec<_> = profile().generator().take(2_000).collect();
        let b: Vec<_> = profile().generator().take(2_000).collect();
        assert_eq!(a, b);
        let mut reseeded = profile();
        reseeded.seed = 99;
        assert_ne!(a, reseeded.generator().take(2_000).collect::<Vec<_>>());
    }

    #[test]
    fn every_access_is_a_read_of_a_known_destination() {
        for access in profile().generator().take(5_000) {
            assert_eq!(access.kind, AccessKind::Read);
            let raw = access.addr.get();
            assert!(raw >= NETWORK_BASE);
            assert_eq!((raw - NETWORK_BASE) % DEST_SPACING, 0);
            assert!((raw - NETWORK_BASE) / DEST_SPACING < 500);
        }
    }

    #[test]
    fn trains_repeat_destinations() {
        let trace: Vec<_> = profile().generator().take(20_000).collect();
        let repeats = trace
            .windows(2)
            .filter(|w| w[0].addr == w[1].addr)
            .count();
        let fraction = repeats as f64 / (trace.len() - 1) as f64;
        // train_prob 0.6 means ~60% of packets continue the train (a few
        // "new" trains also re-pick the same destination).
        assert!(fraction > 0.55, "train repeat fraction {fraction}");
    }

    #[test]
    fn locality_shrinks_the_working_set() {
        let distinct = |locality: f64| {
            let mut p = profile();
            p.locality = locality;
            let mut set = std::collections::HashSet::new();
            for a in p.generator().take(10_000) {
                set.insert(a.addr.get());
            }
            set.len()
        };
        assert!(
            distinct(0.95) < distinct(0.0),
            "high locality must touch fewer destinations"
        );
    }

    #[test]
    fn bad_knobs_are_rejected() {
        let mut p = profile();
        p.hosts = 0;
        assert!(p.try_generator().is_err());
        let mut p = profile();
        p.train_prob = 1.0;
        assert!(p.try_generator().is_err());
        let mut p = profile();
        p.stack_depth = 0;
        assert!(p.try_generator().unwrap_err().contains("stack_depth"));
    }
}
