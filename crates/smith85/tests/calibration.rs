//! Calibration tests: the synthetic catalog must reproduce the *shape* of
//! the paper's findings — who wins, by roughly what factor, and where the
//! crossovers fall.

use smith85::cachesim::{one_pass_grid, GridSpec};
use smith85::synth::{catalog, TraceGroup};
use smith85::trace::stats::TraceCharacterizer;

const LEN: usize = 60_000;

fn group_mean_miss(group: TraceGroup, cache_bytes: usize) -> f64 {
    let specs = catalog::group(group);
    assert!(!specs.is_empty());
    let total: f64 = specs
        .iter()
        .map(|s| {
            let spec = GridSpec::fully_associative(vec![cache_bytes], 16);
            let grid = one_pass_grid(s.generate(LEN).as_slice(), &spec).unwrap();
            grid.fully_associative(cache_bytes).unwrap().miss_ratio()
        })
        .sum();
    total / specs.len() as f64
}

/// §3.1's ordering at 1K: MVS worst; 370 compilers next; LISP worse than
/// the other VAX traces but better than 370; Z8000 near the best; M68000
/// best.
#[test]
fn group_ordering_at_1k_matches_section_3_1() {
    let at = |g| group_mean_miss(g, 1024);
    let mvs = at(TraceGroup::Mvs);
    let ibm370 = at(TraceGroup::Ibm370);
    let ibm360 = at(TraceGroup::Ibm360);
    let lisp = at(TraceGroup::VaxLisp);
    let vax = at(TraceGroup::VaxUnix);
    let cdc = at(TraceGroup::Cdc6400);
    let z8000 = at(TraceGroup::Z8000);
    let m68k = at(TraceGroup::M68000);

    assert!(mvs > ibm370, "MVS {mvs} vs 370 {ibm370}");
    assert!(ibm370 > lisp, "370 {ibm370} vs LISP {lisp}");
    assert!(lisp > vax, "LISP {lisp} vs VAX {vax}");
    assert!(vax > z8000, "VAX {vax} vs Z8000 {z8000}");
    assert!(z8000 > m68k, "Z8000 {z8000} vs M68000 {m68k}");
    // CDC sits "near the middle of the group".
    assert!(cdc < ibm360 && cdc > vax, "CDC {cdc}, 360 {ibm360}, VAX {vax}");
}

/// The paper's rough magnitudes at 1K: M68000 ~1.7%, Z8000 ~3.1%,
/// VAX ~4.8%, 370/360 ~17%. Allow a generous band — the substitution only
/// promises shape.
#[test]
fn group_magnitudes_at_1k_are_in_band() {
    let at = |g| group_mean_miss(g, 1024);
    let m68k = at(TraceGroup::M68000);
    assert!((0.005..0.05).contains(&m68k), "M68000 {m68k}");
    let z8000 = at(TraceGroup::Z8000);
    assert!((0.015..0.09).contains(&z8000), "Z8000 {z8000}");
    let vax = at(TraceGroup::VaxUnix);
    assert!((0.03..0.16).contains(&vax), "VAX {vax}");
    let ibm370 = at(TraceGroup::Ibm370);
    assert!((0.10..0.40).contains(&ibm370), "370 {ibm370}");
}

/// §3.1 on LISP: "while those miss ratios are worse than for the other
/// VAX traces, they are better than for the 370 and 360 traces and are
/// not distressingly high."
#[test]
fn lisp_locality_is_not_distressing() {
    for size in [4096usize, 16384] {
        let lisp = group_mean_miss(TraceGroup::VaxLisp, size);
        let ibm370 = group_mean_miss(TraceGroup::Ibm370, size);
        assert!(lisp < ibm370, "size {size}: LISP {lisp} vs 370 {ibm370}");
        assert!(lisp < 0.30, "size {size}: LISP {lisp}");
    }
}

/// Table 2 shape: reference mixes match the paper's per-group columns.
#[test]
fn reference_mixes_match_table2() {
    let mix = |name: &str| {
        let spec = catalog::by_name(name).unwrap();
        let mut c = TraceCharacterizer::new();
        for access in spec.stream().take(40_000) {
            c.observe(access);
        }
        c.finish()
    };
    // Z8000: 75.1% instruction fetches, low writes.
    let z = mix("ZGREP");
    assert!((z.ifetch_fraction() - 0.751).abs() < 0.03, "{}", z.ifetch_fraction());
    // CDC: 77.2% ifetch, 4.2% branch.
    let cdc = mix("TWOD");
    assert!((cdc.ifetch_fraction() - 0.772).abs() < 0.03);
    assert!(cdc.branch_fraction() < 0.09, "{}", cdc.branch_fraction());
    // VAX: roughly half instruction fetches, branch-rich.
    let vax = mix("VCCOM");
    assert!((vax.ifetch_fraction() - 0.50).abs() < 0.04);
    assert!(vax.branch_fraction() > cdc.branch_fraction());
    // Reads outnumber writes ~2:1 on the 370.
    let mvs = mix("MVS1");
    let ratio = mvs.read_fraction() / mvs.write_fraction();
    assert!((1.4..3.2).contains(&ratio), "read:write {ratio}");
}

/// §3.2's footprint ordering: 370 and LISP programs are the largest,
/// M68000 the smallest, with Z8000 close behind.
#[test]
fn footprint_ordering_matches_section_3_2() {
    let aspace = |g: TraceGroup| {
        let specs = catalog::group(g);
        let total: u64 = specs
            .iter()
            .map(|s| {
                let mut c = TraceCharacterizer::new();
                for access in s.stream().take(LEN) {
                    c.observe(access);
                }
                c.finish().address_space_bytes()
            })
            .sum();
        total as f64 / specs.len() as f64
    };
    let m68k = aspace(TraceGroup::M68000);
    let z8000 = aspace(TraceGroup::Z8000);
    let vax = aspace(TraceGroup::VaxUnix);
    let mvs = aspace(TraceGroup::Mvs);
    let lisp = aspace(TraceGroup::VaxLisp);
    assert!(m68k < z8000, "M68000 {m68k} vs Z8000 {z8000}");
    assert!(z8000 < vax, "Z8000 {z8000} vs VAX {vax}");
    assert!(vax < lisp, "VAX {vax} vs LISP {lisp}");
    assert!(vax < mvs, "VAX {vax} vs MVS {mvs}");
    // Absolute scale: M68000 programs are tiny (paper: ~2.9 KB average).
    assert!(m68k < 8_000.0, "M68000 {m68k}");
    assert!(mvs > 40_000.0, "MVS {mvs}");
}

/// §3.2: "34 of the 37 traces show larger numbers of data lines than
/// instruction lines; those showing the converse are for the Z8000."
#[test]
fn data_footprint_usually_exceeds_instruction_footprint() {
    let mut converse_groups = std::collections::HashSet::new();
    let mut converse = 0;
    let mut total = 0;
    for spec in catalog::all() {
        let mut c = TraceCharacterizer::new();
        for access in spec.stream().take(30_000) {
            c.observe(access);
        }
        let s = c.finish();
        total += 1;
        if s.instruction_lines() > s.data_lines() {
            converse += 1;
            converse_groups.insert(spec.group());
        }
    }
    assert!(
        converse * 3 < total,
        "{converse} of {total} traces have I > D footprints"
    );
    // The converse cases concentrate in the Z8000 set.
    assert!(
        converse_groups.contains(&TraceGroup::Z8000) || converse == 0,
        "converse cases in {converse_groups:?}"
    );
}
