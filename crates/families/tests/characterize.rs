//! Characterizer coverage on non-CPU streams (pinned).
//!
//! The CPU catalog pins Table 2; these tests pin the same statistics
//! for one storage and one network profile under the catalog's fixed
//! name-derived seeds, so any change to the generators, the RNG, or
//! the characterizer's sequentiality/repeat accounting shows up as an
//! exact-value diff here rather than as silent drift in experiment
//! results (family streams are memoized by these identities in the
//! pool and the persistent store). FNV-1a digests then pin the exact
//! reference stream of every storage and network profile.

use smith85_families::by_name;
use smith85_trace::stats::{TraceCharacterizer, TraceCharacteristics};
use smith85_trace::{AccessKind, MemoryAccess};

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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The first `LEN` references of a catalog profile.
fn references(name: &str) -> impl Iterator<Item = MemoryAccess> {
    let spec = by_name(name).unwrap_or_else(|| panic!("{name} not in the family catalog"));
    spec.try_generator()
        .expect("catalog profiles are valid")
        .take(LEN)
}

/// Folds `bytes` into the FNV-1a hash `h`.
fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(h, |h, byte| (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over the little-endian bytes of the first `LEN` addresses.
fn address_checksum(name: &str) -> u64 {
    references(name).fold(FNV_OFFSET, |h, access| {
        fnv1a(h, access.addr.get().to_le_bytes())
    })
}

/// FNV-1a over the first `LEN` references: each one's kind (0 fetch,
/// 1 read, 2 write), then the little-endian bytes of its address.
fn reference_checksum(name: &str) -> u64 {
    references(name).fold(FNV_OFFSET, |h, access| {
        let kind = match access.kind {
            AccessKind::InstructionFetch => 0,
            AccessKind::Read => 1,
            AccessKind::Write => 2,
        };
        fnv1a(
            h,
            std::iter::once(kind).chain(access.addr.get().to_le_bytes()),
        )
    })
}

/// The statistics above can hold while the sequence changes; these pin
/// the exact destination order, so any change to the train draws, the
/// recency stack's update or the popularity scramble shows here.
/// N-SERVERFARM's 8-deep stack has a depth cap the recency draws reach
/// within this length: a stack that outgrew its cap would pass N-LAN
/// and N-GATEWAY. N-WAN and N-BACKBONE complete the family.
#[test]
fn network_address_streams_are_pinned() {
    assert_eq!(address_checksum("N-LAN"), 0xacd1_a13c_606b_048b);
    assert_eq!(address_checksum("N-GATEWAY"), 0xa1e8_d0cf_1551_c7fe);
    assert_eq!(address_checksum("N-SERVERFARM"), 0x2243_7745_5a41_5072);
    assert_eq!(address_checksum("N-WAN"), 0x0d43_1600_fd78_5e38);
    assert_eq!(address_checksum("N-BACKBONE"), 0xb49f_f817_4752_6e30);
}

/// The exact block order of every storage profile, reads and writes
/// alike: a change to the Zipf draws, the sequential runs, the
/// read/write split or the block scramble shows here.
#[test]
fn storage_streams_are_pinned() {
    assert_eq!(reference_checksum("S-KVSTORE"), 0x7bfa_587a_36fe_3a37);
    assert_eq!(reference_checksum("S-OLTP"), 0x2399_b543_7b6a_8e23);
    assert_eq!(reference_checksum("S-SCAN"), 0xa247_eb8a_f60c_1e0e);
    assert_eq!(reference_checksum("S-LOGWRITE"), 0xddda_75a5_a946_4d63);
    assert_eq!(reference_checksum("S-BACKUP"), 0x0e42_d0f6_c037_13a2);
}
