//! The paper's introduction in executable form: is the more expensive
//! cache worth it? Combine a simulated miss-ratio curve with the CPI/MIPS
//! model and decide.
//!
//! ```text
//! cargo run --release --example performance_model
//! ```

use smith85::cachesim::{one_pass_grid, GridSpec};
use smith85::core::performance::{performance_gain_percent, MachineModel};
use smith85::synth::catalog;

fn main() {
    // Miss-ratio curve for a compiler workload, one size sweep.
    let spec = catalog::by_name("FCOMP1").expect("catalog trace");
    let sizes = [1024usize, 2048, 4096, 8192, 16384, 32768, 65536];
    let curve = one_pass_grid(
        spec.generate(200_000).as_slice(),
        &GridSpec::fully_associative(sizes.to_vec(), 16),
    )
    .expect("valid sizes");
    let miss_ratio = |size| curve.fully_associative(size).expect("swept size").miss_ratio();

    let machine = MachineModel::MICRO_32;
    println!("workload: {} on a generic 32-bit microprocessor\n", spec.name());
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>12}",
        "size", "miss", "CPI", "MIPS", "vs half size"
    );
    for (i, &size) in sizes.iter().enumerate() {
        let miss = miss_ratio(size);
        let gain = if i == 0 {
            String::new()
        } else {
            let prev = miss_ratio(sizes[i - 1]);
            format!("+{:.1}%", 100.0 * (machine.speedup(prev, miss) - 1.0))
        };
        println!(
            "{:>8} {:>10.4} {:>8.2} {:>8.2} {:>12}",
            size,
            miss,
            machine.cpi(miss),
            machine.mips(miss),
            gain
        );
    }

    // The intro's arithmetic, verbatim.
    println!(
        "\nintro example: improving the hit ratio from 98% to 99% buys \
         {:.1}% performance;",
        performance_gain_percent(&machine, 0.98, 0.99)
    );
    println!(
        "from 80% to 90% it buys {:.1}% — the same 'one point of hit ratio' \
         is worth wildly different amounts, which is why workload-realistic \
         miss ratios matter.",
        performance_gain_percent(&machine, 0.80, 0.90)
    );

    // Merill's measured anecdote (§1.2).
    let m168 = MachineModel::IBM_370_168;
    println!(
        "\n[Mer74] reproduction: a 370/168 at hit 0.969 → {:.2} MIPS, at \
         0.988 → {:.2} MIPS (measured: 2.07 → 2.34).",
        m168.mips(1.0 - 0.969),
        m168.mips(1.0 - 0.988)
    );
}
