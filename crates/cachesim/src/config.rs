//! Cache configuration: the design choices the paper evaluates.

use crate::error::ConfigError;
use smith85_trace::PAPER_LINE_SIZE;
use std::fmt;

/// The placement (mapping) algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mapping {
    /// Direct mapped: one way per set.
    Direct,
    /// Set associative with the given number of ways per set.
    SetAssociative(usize),
    /// Fully associative: a single set spanning the whole cache (the
    /// paper's Table 1 configuration).
    FullyAssociative,
}

impl Mapping {
    /// Ways per set for a cache of `lines` total lines.
    pub fn ways(self, lines: usize) -> usize {
        match self {
            Mapping::Direct => 1,
            Mapping::SetAssociative(w) => w,
            Mapping::FullyAssociative => lines,
        }
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mapping::Direct => write!(f, "direct-mapped"),
            Mapping::SetAssociative(w) => write!(f, "{w}-way set-associative"),
            Mapping::FullyAssociative => write!(f, "fully-associative"),
        }
    }
}

/// The replacement algorithm used within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Least recently used (the paper's choice).
    Lru,
    /// First in, first out.
    Fifo,
    /// Pseudo-random (deterministic, seeded).
    Random {
        /// Seed for the xorshift victim chooser.
        seed: u64,
    },
    /// Tree pseudo-LRU, the hardware-cheap approximation real set-
    /// associative machines shipped (one bit per internal node).
    TreePlru,
}

impl Replacement {
    /// The default seed for `random` when a spelling carries none; fixed
    /// so unseeded requests are still deterministic and cacheable.
    pub const DEFAULT_RANDOM_SEED: u64 = 85;

    /// Parses the canonical policy spellings shared by the CLI and the
    /// serve protocol: `lru`, `fifo`, `random`, `random:<seed>`, `plru`
    /// (case-insensitive). `None` for anything else.
    pub fn parse(text: &str) -> Option<Replacement> {
        let lower = text.to_ascii_lowercase();
        Some(match lower.as_str() {
            "lru" => Replacement::Lru,
            "fifo" => Replacement::Fifo,
            "random" => Replacement::Random {
                seed: Self::DEFAULT_RANDOM_SEED,
            },
            "plru" | "tree-plru" => Replacement::TreePlru,
            _ => {
                let seed = lower.strip_prefix("random:")?.parse().ok()?;
                Replacement::Random { seed }
            }
        })
    }

    /// A canonical spelling that [`parse`](Self::parse) inverts; stable,
    /// so it is safe inside persistent-store keys.
    pub fn key_label(&self) -> String {
        match self {
            Replacement::Lru => "lru".to_string(),
            Replacement::Fifo => "fifo".to_string(),
            Replacement::Random { seed } => format!("random:{seed}"),
            Replacement::TreePlru => "plru".to_string(),
        }
    }
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replacement::Lru => write!(f, "LRU"),
            Replacement::Fifo => write!(f, "FIFO"),
            Replacement::Random { .. } => write!(f, "random"),
            Replacement::TreePlru => write!(f, "tree-PLRU"),
        }
    }
}

/// The write (update) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Every store is sent to memory. `allocate` controls whether a write
    /// miss also loads the line into the cache.
    WriteThrough {
        /// Allocate (fetch) the line on a write miss.
        allocate: bool,
    },
    /// Stores dirty the cached line; memory is updated when the line is
    /// pushed (the paper's "copy back"). `fetch_on_write` controls whether
    /// a write miss fetches the line from memory first (the paper uses
    /// copy-back *with* fetch-on-write).
    CopyBack {
        /// Fetch the missing line from memory before writing into it.
        fetch_on_write: bool,
    },
}

impl WritePolicy {
    /// The paper's Table 1 policy: copy back with fetch on write.
    pub const PAPER: WritePolicy = WritePolicy::CopyBack {
        fetch_on_write: true,
    };
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WritePolicy::WriteThrough { allocate: true } => write!(f, "write-through (allocate)"),
            WritePolicy::WriteThrough { allocate: false } => {
                write!(f, "write-through (no-allocate)")
            }
            WritePolicy::CopyBack {
                fetch_on_write: true,
            } => write!(f, "copy-back (fetch-on-write)"),
            WritePolicy::CopyBack {
                fetch_on_write: false,
            } => write!(f, "copy-back (write-allocate, no fetch)"),
        }
    }
}

/// The fetch algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchPolicy {
    /// Fetch a line only on a miss to it.
    Demand,
    /// "Prefetch always" (§3.5): on every reference to line `i`, verify
    /// that line `i + 1` is resident and fetch it if not.
    PrefetchAlways,
}

impl fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchPolicy::Demand => write!(f, "demand"),
            FetchPolicy::PrefetchAlways => write!(f, "prefetch-always"),
        }
    }
}

/// Full configuration of one cache.
///
/// Build with [`CacheConfig::builder`] or start from a paper preset:
///
/// ```
/// use smith85_cachesim::{CacheConfig, Mapping, Replacement};
///
/// let config = CacheConfig::builder(16 * 1024)
///     .line_size(32)
///     .mapping(Mapping::SetAssociative(4))
///     .replacement(Replacement::Fifo)
///     .build()
///     .unwrap();
/// assert_eq!(config.sets(), 16 * 1024 / 32 / 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    size_bytes: usize,
    line_size: usize,
    mapping: Mapping,
    replacement: Replacement,
    write_policy: WritePolicy,
    fetch_policy: FetchPolicy,
    purge_interval: Option<u64>,
}

impl CacheConfig {
    /// Starts building a configuration for a cache of `size_bytes` bytes.
    pub fn builder(size_bytes: usize) -> CacheConfigBuilder {
        CacheConfigBuilder {
            config: CacheConfig {
                size_bytes,
                line_size: PAPER_LINE_SIZE,
                mapping: Mapping::FullyAssociative,
                replacement: Replacement::Lru,
                write_policy: WritePolicy::PAPER,
                fetch_policy: FetchPolicy::Demand,
                purge_interval: None,
            },
        }
    }

    /// The paper's Table 1 configuration: fully associative, LRU, demand
    /// fetch, 16-byte lines, copy back with fetch on write, no purging.
    ///
    /// # Errors
    ///
    /// Returns an error if `size_bytes` is not a power of two of at least
    /// one line.
    pub fn paper_table1(size_bytes: usize) -> Result<CacheConfig, ConfigError> {
        Self::builder(size_bytes).build()
    }

    /// The paper's Table 3 / Figures 3-10 per-cache configuration: like
    /// Table 1 but purged every `purge_interval` references.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid size or a zero interval.
    pub fn paper_purged(
        size_bytes: usize,
        purge_interval: u64,
    ) -> Result<CacheConfig, ConfigError> {
        Self::builder(size_bytes)
            .purge_interval(Some(purge_interval))
            .build()
    }

    /// Total cache capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Line (block) size in bytes.
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Number of lines the cache can hold.
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_size
    }

    /// The mapping algorithm.
    pub fn mapping(&self) -> Mapping {
        self.mapping
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.mapping.ways(self.lines())
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.ways()
    }

    /// The replacement algorithm.
    pub fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// The write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// The fetch policy.
    pub fn fetch_policy(&self) -> FetchPolicy {
        self.fetch_policy
    }

    /// The task-switch purge interval in references, if any.
    pub fn purge_interval(&self) -> Option<u64> {
        self.purge_interval
    }

    fn validate(self) -> Result<Self, ConfigError> {
        for (what, value) in [
            ("cache size", self.size_bytes),
            ("line size", self.line_size),
        ] {
            if value == 0 || !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { what, value });
            }
        }
        if self.size_bytes < self.line_size {
            return Err(ConfigError::CacheSmallerThanLine {
                cache: self.size_bytes,
                line: self.line_size,
            });
        }
        let lines = self.lines();
        let ways = self.mapping.ways(lines);
        if ways == 0 || !ways.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "associativity",
                value: ways,
            });
        }
        if ways > lines {
            return Err(ConfigError::AssociativityTooLarge { ways, lines });
        }
        if self.purge_interval == Some(0) {
            return Err(ConfigError::ZeroPurgeInterval);
        }
        Ok(self)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B {} cache, {}B lines, {}, {}, {}",
            self.size_bytes,
            self.mapping,
            self.line_size,
            self.replacement,
            self.write_policy,
            self.fetch_policy
        )?;
        if let Some(q) = self.purge_interval {
            write!(f, ", purge every {q} refs")?;
        }
        Ok(())
    }
}

/// Builder for [`CacheConfig`]; see [`CacheConfig::builder`].
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    config: CacheConfig,
}

impl CacheConfigBuilder {
    /// Sets the line (block) size in bytes (default 16, as in the paper).
    pub fn line_size(mut self, bytes: usize) -> Self {
        self.config.line_size = bytes;
        self
    }

    /// Sets the mapping algorithm (default fully associative).
    pub fn mapping(mut self, mapping: Mapping) -> Self {
        self.config.mapping = mapping;
        self
    }

    /// Sets the replacement algorithm (default LRU).
    pub fn replacement(mut self, replacement: Replacement) -> Self {
        self.config.replacement = replacement;
        self
    }

    /// Sets the write policy (default copy back with fetch on write).
    pub fn write_policy(mut self, policy: WritePolicy) -> Self {
        self.config.write_policy = policy;
        self
    }

    /// Sets the fetch policy (default demand).
    pub fn fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.config.fetch_policy = policy;
        self
    }

    /// Sets the task-switch purge interval (default none).
    pub fn purge_interval(mut self, interval: Option<u64>) -> Self {
        self.config.purge_interval = interval;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if sizes are not powers of two, the cache
    /// cannot hold one line, or the associativity is unrealizable.
    pub fn build(self) -> Result<CacheConfig, ConfigError> {
        self.config.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_preset() {
        let c = CacheConfig::paper_table1(1024).unwrap();
        assert_eq!(c.size_bytes(), 1024);
        assert_eq!(c.line_size(), 16);
        assert_eq!(c.lines(), 64);
        assert_eq!(c.ways(), 64);
        assert_eq!(c.sets(), 1);
        assert_eq!(c.write_policy(), WritePolicy::PAPER);
        assert_eq!(c.fetch_policy(), FetchPolicy::Demand);
        assert_eq!(c.purge_interval(), None);
    }

    #[test]
    fn geometry_for_set_associative() {
        let c = CacheConfig::builder(8192)
            .line_size(32)
            .mapping(Mapping::SetAssociative(4))
            .build()
            .unwrap();
        assert_eq!(c.lines(), 256);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn direct_mapped_has_one_way() {
        let c = CacheConfig::builder(1024)
            .mapping(Mapping::Direct)
            .build()
            .unwrap();
        assert_eq!(c.ways(), 1);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            CacheConfig::builder(1000).build(),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheConfig::builder(1024).line_size(24).build(),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheConfig::builder(1024)
                .mapping(Mapping::SetAssociative(3))
                .build(),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
    }

    #[test]
    fn rejects_cache_smaller_than_line() {
        assert!(matches!(
            CacheConfig::builder(8).line_size(16).build(),
            Err(ConfigError::CacheSmallerThanLine { .. })
        ));
    }

    #[test]
    fn rejects_oversized_associativity() {
        assert!(matches!(
            CacheConfig::builder(64)
                .line_size(16)
                .mapping(Mapping::SetAssociative(8))
                .build(),
            Err(ConfigError::AssociativityTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_zero_purge_interval() {
        assert!(matches!(
            CacheConfig::builder(64).purge_interval(Some(0)).build(),
            Err(ConfigError::ZeroPurgeInterval)
        ));
    }

    #[test]
    fn display_mentions_key_parameters() {
        let c = CacheConfig::paper_purged(2048, 20_000).unwrap();
        let s = c.to_string();
        assert!(s.contains("2048B"));
        assert!(s.contains("fully-associative"));
        assert!(s.contains("purge every 20000"));
    }

    #[test]
    fn replacement_spellings_parse_and_round_trip() {
        for policy in [
            Replacement::Lru,
            Replacement::Fifo,
            Replacement::Random { seed: 85 },
            Replacement::Random { seed: 12_345 },
            Replacement::TreePlru,
        ] {
            assert_eq!(Replacement::parse(&policy.key_label()), Some(policy));
        }
        assert_eq!(Replacement::parse("LRU"), Some(Replacement::Lru));
        assert_eq!(
            Replacement::parse("random"),
            Some(Replacement::Random {
                seed: Replacement::DEFAULT_RANDOM_SEED
            })
        );
        assert_eq!(Replacement::parse("tree-plru"), Some(Replacement::TreePlru));
        assert_eq!(Replacement::parse("clock"), None);
        assert_eq!(Replacement::parse("random:"), None);
        assert_eq!(Replacement::parse("random:x"), None);
    }
}
