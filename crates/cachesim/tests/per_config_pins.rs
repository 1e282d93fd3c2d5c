//! Pinned answers of the per-configuration simulator.
//!
//! Every `CacheStats` field of every configuration in a matrix — direct
//! mapped, 2-, 4- and 8-way and fully associative × LRU, FIFO, `random:85`
//! and tree-PLRU × copy-back with and without fetch-on-write and
//! write-through with and without allocate × demand and prefetch-always ×
//! no purge and a purge every 5,000 references × two sizes — is folded
//! into FNV-1a digests, on fixed-seed VCCOM (CPU), S-OLTP (storage) and
//! N-GATEWAY (network) streams. The digests were computed with the kernel
//! that dispatched through a trait object on every reference and gave
//! each set its own vector of ways, so any later kernel must reproduce
//! that kernel's answers bit for bit.
//!
//! One test per replacement policy; each digest covers one (stream,
//! mapping) pair, folding its 32 configurations in a fixed order. On a
//! mismatch the test names every pin that moved and prints the whole
//! table as computed, ready to paste if an answer is meant to change.

use smith85_cachesim::{
    Cache, CacheConfig, CacheStats, FetchPolicy, Mapping, Replacement, WritePolicy,
};
use smith85_trace::{AccessKind, MemoryAccess};

const LEN: usize = 12_000;
const LINE: usize = 16;
const SIZES: [usize; 2] = [512, 4_096];
const STREAMS: [&str; 3] = ["VCCOM", "S-OLTP", "N-GATEWAY"];
const MAPPINGS: [(&str, Mapping); 5] = [
    ("direct", Mapping::Direct),
    ("2-way", Mapping::SetAssociative(2)),
    ("4-way", Mapping::SetAssociative(4)),
    ("8-way", Mapping::SetAssociative(8)),
    ("full", Mapping::FullyAssociative),
];
const WRITE_POLICIES: [WritePolicy; 4] = [
    WritePolicy::CopyBack {
        fetch_on_write: true,
    },
    WritePolicy::CopyBack {
        fetch_on_write: false,
    },
    WritePolicy::WriteThrough { allocate: true },
    WritePolicy::WriteThrough { allocate: false },
];
const FETCH_POLICIES: [FetchPolicy; 2] = [FetchPolicy::Demand, FetchPolicy::PrefetchAlways];
const PURGES: [Option<u64>; 2] = [None, Some(5_000)];

fn stream(name: &str) -> Vec<MemoryAccess> {
    match smith85_synth::catalog::by_name(name) {
        Some(spec) => spec.generate(LEN).as_slice().to_vec(),
        None => smith85_families::by_name(name)
            .expect("family catalog profile")
            .try_generator()
            .expect("catalog profiles are valid")
            .take(LEN)
            .collect(),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: &mut u64, stats: &CacheStats) {
    let mut fields = Vec::with_capacity(16);
    for kind in AccessKind::ALL {
        fields.push(stats.refs(kind));
        fields.push(stats.misses(kind));
    }
    fields.extend([
        stats.demand_fetches,
        stats.prefetch_fetches,
        stats.prefetch_hits,
        stats.pushes,
        stats.dirty_pushes,
        stats.bytes_fetched,
        stats.bytes_pushed,
        stats.bytes_written_through,
        stats.bytes_demanded,
        stats.purges,
    ]);
    for field in fields {
        for byte in field.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
}

/// The digest of one (stream, mapping, policy) cell over its 32
/// configurations.
fn digest(trace: &[MemoryAccess], mapping: Mapping, policy: Replacement) -> u64 {
    let mut hash = FNV_OFFSET;
    for size in SIZES {
        for write_policy in WRITE_POLICIES {
            for fetch_policy in FETCH_POLICIES {
                for purge in PURGES {
                    let config = CacheConfig::builder(size)
                        .line_size(LINE)
                        .mapping(mapping)
                        .replacement(policy)
                        .write_policy(write_policy)
                        .fetch_policy(fetch_policy)
                        .purge_interval(purge)
                        .build()
                        .expect("valid config");
                    let mut cache = Cache::new(config).expect("valid cache");
                    cache.run(trace);
                    fold(&mut hash, cache.stats());
                }
            }
        }
    }
    hash
}

/// Compares every (stream, mapping) digest of `policy` against `pins`.
fn check(label: &str, policy: Replacement, pins: &[(&str, &str, u64)]) {
    let mut table = String::new();
    let mut moved = Vec::new();
    for name in STREAMS {
        let trace = stream(name);
        assert_eq!(trace.len(), LEN, "{name} stream length");
        for (mapping_name, mapping) in MAPPINGS {
            let got = digest(&trace, mapping, policy);
            table.push_str(&format!("    ({name:?}, {mapping_name:?}, {got:#018x}),\n"));
            let want = pins
                .iter()
                .find(|(s, m, _)| *s == name && *m == mapping_name)
                .map(|&(_, _, d)| d);
            if want != Some(got) {
                moved.push(format!("{label}/{name}/{mapping_name}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "pins moved: {}\ncomputed table:\n{table}",
        moved.join(", ")
    );
}

#[test]
fn lru_pins() {
    check("lru", Replacement::Lru, LRU);
}

#[test]
fn fifo_pins() {
    check("fifo", Replacement::Fifo, FIFO);
}

#[test]
fn random_pins() {
    check("random:85", Replacement::Random { seed: 85 }, RANDOM);
}

#[test]
fn plru_pins() {
    check("plru", Replacement::TreePlru, PLRU);
}

const LRU: &[(&str, &str, u64)] = &[
    ("VCCOM", "direct", 0x8c899ba81eb58c58),
    ("VCCOM", "2-way", 0xc50f45ca32774510),
    ("VCCOM", "4-way", 0x86b01e8a1876cc18),
    ("VCCOM", "8-way", 0xf058ad1087d6b9a3),
    ("VCCOM", "full", 0xcb47503ac5f628ab),
    ("S-OLTP", "direct", 0xc6fa3cbb24375ee5),
    ("S-OLTP", "2-way", 0x74a9e0939c74871d),
    ("S-OLTP", "4-way", 0xbb5eff3be9c97a85),
    ("S-OLTP", "8-way", 0x1950f306f66b6005),
    ("S-OLTP", "full", 0x5ac4302994ceed4e),
    ("N-GATEWAY", "direct", 0x279e40ad4c885215),
    ("N-GATEWAY", "2-way", 0x9547a8ca5a3c232d),
    ("N-GATEWAY", "4-way", 0x26617dee97f17c85),
    ("N-GATEWAY", "8-way", 0xcf8caa3a7aef49c5),
    ("N-GATEWAY", "full", 0xd7ccf5add3d70f2d),
];
const FIFO: &[(&str, &str, u64)] = &[
    ("VCCOM", "direct", 0x8c899ba81eb58c58),
    ("VCCOM", "2-way", 0xec570a15c8e35e04),
    ("VCCOM", "4-way", 0x99ceba3c78b625e3),
    ("VCCOM", "8-way", 0xef0531ccbe93f2e1),
    ("VCCOM", "full", 0x12fa613ebb6355f6),
    ("S-OLTP", "direct", 0xc6fa3cbb24375ee5),
    ("S-OLTP", "2-way", 0x0868f17edc7e895d),
    ("S-OLTP", "4-way", 0x542a4dcb4e4d82cd),
    ("S-OLTP", "8-way", 0x3988f1cfe46b6f75),
    ("S-OLTP", "full", 0x4c19984b3598f5b0),
    ("N-GATEWAY", "direct", 0x279e40ad4c885215),
    ("N-GATEWAY", "2-way", 0x0bab0e85118273b5),
    ("N-GATEWAY", "4-way", 0x41236df82944dae5),
    ("N-GATEWAY", "8-way", 0x321a1649221ba8e5),
    ("N-GATEWAY", "full", 0x355eaa574092929d),
];
const RANDOM: &[(&str, &str, u64)] = &[
    ("VCCOM", "direct", 0x8c899ba81eb58c58),
    ("VCCOM", "2-way", 0x306c9b2b516bf078),
    ("VCCOM", "4-way", 0x93a9d293a95cb201),
    ("VCCOM", "8-way", 0x13f4143beb3fa85a),
    ("VCCOM", "full", 0xdf76f5a598d9f9ae),
    ("S-OLTP", "direct", 0xc6fa3cbb24375ee5),
    ("S-OLTP", "2-way", 0x4c04e282f5e84c7d),
    ("S-OLTP", "4-way", 0x9a6283a34494e825),
    ("S-OLTP", "8-way", 0x7206603b28e20b25),
    ("S-OLTP", "full", 0x0a4cd8ecdefa0db8),
    ("N-GATEWAY", "direct", 0x279e40ad4c885215),
    ("N-GATEWAY", "2-way", 0x32536d771756d3d5),
    ("N-GATEWAY", "4-way", 0x847d93be80b6a115),
    ("N-GATEWAY", "8-way", 0x543ef55adf42e705),
    ("N-GATEWAY", "full", 0x8e83c516441d1c8d),
];
const PLRU: &[(&str, &str, u64)] = &[
    ("VCCOM", "direct", 0x8c899ba81eb58c58),
    ("VCCOM", "2-way", 0xc50f45ca32774510),
    ("VCCOM", "4-way", 0x64e8715f13c587ff),
    ("VCCOM", "8-way", 0x13e1d68c2e81b4bf),
    ("VCCOM", "full", 0xbe6f93b611704221),
    ("S-OLTP", "direct", 0xc6fa3cbb24375ee5),
    ("S-OLTP", "2-way", 0x74a9e0939c74871d),
    ("S-OLTP", "4-way", 0x5e9e0576d119946d),
    ("S-OLTP", "8-way", 0x9d0c1111f6ed86ad),
    ("S-OLTP", "full", 0xbf563371bb8887bc),
    ("N-GATEWAY", "direct", 0x279e40ad4c885215),
    ("N-GATEWAY", "2-way", 0x9547a8ca5a3c232d),
    ("N-GATEWAY", "4-way", 0x9ec23178a900b6e5),
    ("N-GATEWAY", "8-way", 0x531c16590e7f9265),
    ("N-GATEWAY", "full", 0xd989492dabd53965),
];
