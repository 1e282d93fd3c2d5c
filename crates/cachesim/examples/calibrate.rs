//! Calibration scratchpad: prints Table 1-style miss ratios per catalog
//! trace so profile parameters can be tuned against the paper's values.

use smith85_cachesim::{one_pass_grid, CacheStats, GridSpec};
use smith85_synth::catalog;

fn main() {
    let len: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let sizes = [256usize, 1024, 4096, 16384, 65536];
    println!(
        "{:<10} {:>9} | {}",
        "trace",
        "group",
        sizes
            .iter()
            .map(|s| format!("{:>7}", s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut groups: std::collections::BTreeMap<String, (Vec<f64>, u32)> = Default::default();
    let grid_spec = GridSpec::fully_associative(sizes.to_vec(), 16);
    for spec in catalog::all() {
        let grid = one_pass_grid(spec.generate(len).as_slice(), &grid_spec).expect("valid sizes");
        let stats: Vec<&CacheStats> = sizes
            .iter()
            .map(|&s| grid.fully_associative(s).expect("swept size"))
            .collect();
        let curve: Vec<f64> = stats.iter().map(|s| s.miss_ratio()).collect();
        if std::env::var("SPLIT").is_ok() {
            let column = |ratio: fn(&CacheStats) -> f64| {
                stats
                    .iter()
                    .map(|&s| format!("{:>7.4}", ratio(s)))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("  I: {}", column(CacheStats::instruction_miss_ratio));
            println!("  D: {}", column(CacheStats::data_miss_ratio));
        }
        println!(
            "{:<10} {:>9} | {}",
            spec.name(),
            format!("{}", spec.group()),
            curve
                .iter()
                .map(|m| format!("{:>7.4}", m))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let e = groups
            .entry(spec.group().to_string())
            .or_insert((vec![0.0; sizes.len()], 0));
        for (i, m) in curve.iter().enumerate() {
            e.0[i] += m;
        }
        e.1 += 1;
    }
    println!("\ngroup averages:");
    for (g, (sums, n)) in groups {
        println!(
            "{:<12} | {}",
            g,
            sums.iter()
                .map(|s| format!("{:>7.4}", s / n as f64))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}
