//! Characterizer coverage on non-CPU streams (pinned).
//!
//! The CPU catalog pins Table 2; these tests pin the same statistics
//! for one storage and one network profile under the catalog's fixed
//! name-derived seeds, so any change to the generators, the RNG, or
//! the characterizer's sequentiality/repeat accounting shows up as an
//! exact-value diff here rather than as silent drift in experiment
//! results (family streams are memoized by these identities in the
//! pool and the persistent store).

use smith85_families::by_name;
use smith85_trace::stats::{TraceCharacterizer, TraceCharacteristics};

const LEN: usize = 50_000;

fn characterize(name: &str) -> TraceCharacteristics {
    let spec = by_name(name).unwrap_or_else(|| panic!("{name} not in the family catalog"));
    let mut c = TraceCharacterizer::new();
    for access in spec.try_generator().expect("catalog profiles are valid").take(LEN) {
        c.observe(access);
    }
    c.finish()
}

#[test]
fn storage_scan_profile_is_pinned() {
    let s = characterize("S-SCAN");
    assert_eq!(s.total_refs(), LEN as u64);
    // Pure block stream: no instruction fetches at all.
    assert_eq!(s.ifetches(), 0);
    assert_eq!(s.instruction_lines(), 0);
    // Read/write mix: the profile dials 98% reads.
    assert_eq!(s.reads(), 49_056);
    assert_eq!(s.writes(), 944);
    // Sequentiality: seq_prob 0.90, minus run starts and stride breaks.
    assert_eq!((s.sequential_fraction() * 1e6).round() as u64, 808_740);
    assert_eq!((s.repeat_fraction() * 1e6).round() as u64, 20);
    // Footprint: 25,613 of the 32,768 catalogued blocks touched, one
    // 16-byte line each.
    assert_eq!(s.data_lines(), 25_613);
    assert_eq!(s.address_space_bytes(), 409_808);
}

#[test]
fn network_lan_profile_is_pinned() {
    let s = characterize("N-LAN");
    assert_eq!(s.total_refs(), LEN as u64);
    // Destination lookups are reads of the address cache, nothing else.
    assert_eq!(s.ifetches(), 0);
    assert_eq!(s.writes(), 0);
    assert_eq!(s.reads(), 50_000);
    // Packet trains: train_prob 0.70 plus recency re-picks of the same
    // destination put back-to-back repeats just under 82%.
    assert_eq!((s.repeat_fraction() * 1e6).round() as u64, 818_880);
    // Destination lookups never scan.
    assert_eq!((s.sequential_fraction() * 1e6).round() as u64, 60);
    // Footprint: 199 of the 200 catalogued destinations appear.
    assert_eq!(s.data_lines(), 199);
    assert_eq!(s.address_space_bytes(), 3_184);
}

/// FNV-1a over the little-endian bytes of the first `LEN` addresses.
fn address_checksum(name: &str) -> u64 {
    let spec = by_name(name).unwrap_or_else(|| panic!("{name} not in the family catalog"));
    let generator = spec.try_generator().expect("catalog profiles are valid");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for access in generator.take(LEN) {
        for byte in access.addr.get().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The statistics above can hold while the sequence changes; these pin
/// the exact destination order, so any change to the train draws, the
/// recency stack's update or the popularity scramble shows here.
/// N-SERVERFARM's 8-deep stack is the one whose depth cap the recency
/// draws reach within this length: a stack that outgrew its cap would
/// pass the other two.
#[test]
fn network_address_streams_are_pinned() {
    assert_eq!(address_checksum("N-LAN"), 0xacd1_a13c_606b_048b);
    assert_eq!(address_checksum("N-GATEWAY"), 0xa1e8_d0cf_1551_c7fe);
    assert_eq!(address_checksum("N-SERVERFARM"), 0x2243_7745_5a41_5072);
}
