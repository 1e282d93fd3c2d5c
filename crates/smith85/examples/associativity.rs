//! All associativities in one pass: the one-pass engine generalizes the
//! stack algorithm to every set count at once. §4.1 waves at the
//! set-associativity effect ("should be small"); this measures it.
//!
//! ```text
//! cargo run --release --example associativity
//! ```

use smith85::cachesim::{one_pass_grid, GridSpec};
use smith85::synth::catalog;

fn main() {
    let spec = catalog::by_name("FCOMP1").expect("catalog trace");
    let trace = spec.generate(200_000);
    println!("workload: {}\n", spec.name());

    // One pass over the grid of every size from 64 sets × 1 way to
    // 256 sets × 16 ways gives the whole associativity spectrum of each
    // set count.
    let set_counts = [64usize, 128, 256];
    let ways = vec![1, 2, 4, 8, 16];
    let sizes = (10..=16).map(|shift| 1usize << shift).collect();
    let grid = one_pass_grid(trace.as_slice(), &GridSpec::new(sizes, ways)).expect("valid grid");

    println!(
        "{:>6} {:>6} {:>9} {:>9}  (LRU, 16-byte lines)",
        "sets", "ways", "size", "miss"
    );
    for &sets in &set_counts {
        for (cell, stats) in grid.iter().filter(|(cell, _)| cell.sets == sets) {
            println!(
                "{:>6} {:>6} {:>9} {:>9.4}",
                sets,
                cell.ways,
                cell.size_bytes,
                stats.miss_ratio()
            );
        }
        println!();
    }
    println!(
        "Read the table at constant size (e.g. 4096 B = 256x1, 128x2, 64x4):\n\
         direct-mapped pays a visible conflict penalty; 2-way recovers most\n\
         of it; beyond 4-way the gain is small — the paper's §4.1 aside,\n\
         quantified."
    );
}
