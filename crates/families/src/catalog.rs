//! Named profiles of the non-CPU families — the analogue of
//! `smith85_synth::catalog` for storage-I/O and network streams.
//!
//! Storage profiles follow the archetypes the 2DIO benchmark
//! parameterizes (key-value point access, OLTP, analytic scans, log
//! append, backup streaming); network profiles span the environments
//! Jain contrasts, from a small server farm to a backbone router. Every
//! profile's seed derives from its name (same FNV-1a convention as the
//! CPU catalog), so the catalog names a fixed, reproducible stream set.

use crate::network::NetworkProfile;
use crate::storage::StorageProfile;
use crate::Family;
use std::sync::OnceLock;

/// A profile from either non-CPU family: the polymorphic handle the
/// rest of the stack (workloads, pool, serve, CLI) consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilySpec {
    /// A storage-I/O block stream.
    Storage(StorageProfile),
    /// A network destination-address stream.
    Network(NetworkProfile),
}

impl FamilySpec {
    /// Catalog name.
    pub fn name(&self) -> &str {
        match self {
            FamilySpec::Storage(p) => &p.name,
            FamilySpec::Network(p) => &p.name,
        }
    }

    /// Which family the profile belongs to.
    pub fn family(&self) -> Family {
        match self {
            FamilySpec::Storage(_) => Family::Storage,
            FamilySpec::Network(_) => Family::Network,
        }
    }

    /// One-line description for catalog listings.
    pub fn description(&self) -> &str {
        match self {
            FamilySpec::Storage(p) => &p.description,
            FamilySpec::Network(p) => &p.description,
        }
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        match self {
            FamilySpec::Storage(p) => p.seed,
            FamilySpec::Network(p) => p.seed,
        }
    }

    /// Replaces the generator seed (serve's per-request override).
    pub fn set_seed(&mut self, seed: u64) {
        match self {
            FamilySpec::Storage(p) => p.seed = seed,
            FamilySpec::Network(p) => p.seed = seed,
        }
    }

    /// An infinite, deterministic access stream.
    ///
    /// # Errors
    ///
    /// Returns the profile's validation message for bad knobs.
    pub fn try_generator(
        &self,
    ) -> Result<Box<dyn Iterator<Item = smith85_trace::MemoryAccess> + Send>, String> {
        match self {
            FamilySpec::Storage(p) => Ok(Box::new(p.try_generator()?)),
            FamilySpec::Network(p) => Ok(Box::new(p.try_generator()?)),
        }
    }

    /// The pool/store identity string (see the per-profile
    /// `identity_key` methods).
    pub fn identity_key(&self) -> String {
        match self {
            FamilySpec::Storage(p) => p.identity_key(),
            FamilySpec::Network(p) => p.identity_key(),
        }
    }
}

/// FNV-1a, the same per-name seed convention the CPU catalog uses.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn storage(
    name: &str,
    description: &str,
    footprint_blocks: u64,
    zipf_alpha: f64,
    seq_prob: f64,
    read_fraction: f64,
) -> FamilySpec {
    FamilySpec::Storage(StorageProfile {
        name: name.to_string(),
        description: description.to_string(),
        footprint_blocks,
        zipf_alpha,
        seq_prob,
        read_fraction,
        seed: fnv1a(name),
    })
}

fn network(
    name: &str,
    description: &str,
    hosts: u64,
    train_prob: f64,
    locality: f64,
    stack_depth: usize,
    zipf_alpha: f64,
) -> FamilySpec {
    FamilySpec::Network(NetworkProfile {
        name: name.to_string(),
        description: description.to_string(),
        hosts,
        train_prob,
        locality,
        stack_depth,
        zipf_alpha,
        seed: fnv1a(name),
    })
}

/// The profile table, built on first use and shared for the life of the
/// process: a name lookup scans it and clones only the profile it
/// returns.
fn profiles() -> &'static [FamilySpec] {
    static PROFILES: OnceLock<Vec<FamilySpec>> = OnceLock::new();
    PROFILES.get_or_init(build_profiles)
}

/// Every family profile, storage first, each family in fixed order.
pub fn all() -> Vec<FamilySpec> {
    profiles().to_vec()
}

fn build_profiles() -> Vec<FamilySpec> {
    vec![
        storage(
            "S-KVSTORE",
            "key-value store: highly skewed point reads over a large block set",
            8_192,
            1.1,
            0.05,
            0.90,
        ),
        storage(
            "S-OLTP",
            "transaction processing: moderate skew, 70/30 read/write, short runs",
            16_384,
            0.9,
            0.10,
            0.70,
        ),
        storage(
            "S-SCAN",
            "analytic scans: long sequential runs over a wide, barely skewed footprint",
            32_768,
            0.2,
            0.90,
            0.98,
        ),
        storage(
            "S-LOGWRITE",
            "log append: write-dominated sequential runs over a small hot region",
            4_096,
            0.3,
            0.85,
            0.05,
        ),
        storage(
            "S-BACKUP",
            "backup streaming: uniform popularity, near-pure sequential reads",
            65_536,
            0.0,
            0.90,
            1.00,
        ),
        network(
            "N-SERVERFARM",
            "server farm uplink: few destinations, long trains, intense recency reuse",
            50,
            0.80,
            0.90,
            8,
            0.4,
        ),
        network(
            "N-LAN",
            "departmental LAN: small destination set with strong packet-train locality",
            200,
            0.70,
            0.80,
            16,
            0.6,
        ),
        network(
            "N-WAN",
            "WAN access link: thousands of destinations, moderate trains and reuse",
            5_000,
            0.50,
            0.60,
            32,
            1.0,
        ),
        network(
            "N-GATEWAY",
            "campus gateway: tens of thousands of destinations, skewed popularity",
            20_000,
            0.40,
            0.45,
            64,
            1.2,
        ),
        network(
            "N-BACKBONE",
            "backbone router: huge destination space, weak trains, popularity only",
            100_000,
            0.30,
            0.30,
            64,
            1.0,
        ),
    ]
}

/// Looks a family profile up by name, case-insensitively.
pub fn by_name(name: &str) -> Option<FamilySpec> {
    profiles()
        .iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .cloned()
}

/// Every family profile name, in [`all`]'s order.
pub fn names() -> Vec<String> {
    profiles().iter().map(|s| s.name().to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_both_families_and_unique_names() {
        let specs = all();
        assert_eq!(specs.len(), 10);
        assert_eq!(specs.iter().filter(|s| s.family() == Family::Storage).count(), 5);
        assert_eq!(specs.iter().filter(|s| s.family() == Family::Network).count(), 5);
        let mut names: Vec<_> = specs.iter().map(|s| s.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate profile name");
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("S-KVSTORE").is_some());
        assert!(by_name("s-kvstore").is_some());
        assert!(by_name("N-lan").is_some());
        assert!(by_name("VCCOM").is_none(), "CPU profiles live in synth");
    }

    #[test]
    fn every_profile_validates_and_generates() {
        for spec in all() {
            let mut generator = spec
                .try_generator()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            assert!(generator.next().is_some(), "{}", spec.name());
        }
    }

    #[test]
    fn seeds_are_distinct_and_name_derived() {
        let specs = all();
        let mut seeds: Vec<_> = specs.iter().map(|s| s.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), specs.len(), "seed collision");
        assert_eq!(by_name("S-OLTP").unwrap().seed(), fnv1a("S-OLTP"));
    }

    #[test]
    fn identity_keys_distinguish_profiles_and_seeds() {
        let a = by_name("S-OLTP").unwrap();
        let mut b = a.clone();
        b.set_seed(a.seed() ^ 1);
        assert_ne!(a.identity_key(), b.identity_key());
        let specs = all();
        let mut keys: Vec<_> = specs.iter().map(FamilySpec::identity_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), specs.len());
    }
}
