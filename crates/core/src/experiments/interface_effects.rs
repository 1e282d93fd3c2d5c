//! **Interface effects** — §1.1's point that a trace bakes in the design
//! architecture: the same instruction stream produces very different
//! memory-reference counts depending on the width and "memory" of the
//! path to memory. This experiment measures memory references per 1,000
//! processor references for each architecture's workload under a grid of
//! interfaces, reproducing the "4, 2 or 1 memory references" arithmetic
//! and explaining why the CDC and 360/91 trace sets overstate fetch
//! counts.

use crate::experiments::ExperimentConfig;
use crate::report::TextTable;
use crate::sweep::parallel_map;
use smith85_synth::catalog;
use smith85_trace::interface::InterfaceAdapter;
use smith85_trace::InterfaceSpec;

/// The interface grid swept.
pub const INTERFACES: [InterfaceSpec; 6] = [
    InterfaceSpec::new(2, false),
    InterfaceSpec::new(4, false),
    InterfaceSpec::new(8, false),
    InterfaceSpec::new(2, true),
    InterfaceSpec::new(4, true),
    InterfaceSpec::new(8, true),
];

/// One trace's expansion factors.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceRow {
    /// Trace name.
    pub name: String,
    /// Memory references per 1,000 processor references, per interface in
    /// [`INTERFACES`] order.
    pub refs_per_1000: Vec<f64>,
}

/// The interface study.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceEffects {
    /// Per-trace rows.
    pub rows: Vec<InterfaceRow>,
}

/// Runs the study over one representative per architecture.
pub fn run(config: &ExperimentConfig) -> InterfaceEffects {
    let names = ["MVS1", "WATEX", "VCCOM", "ZGREP", "TWOD", "PL0"];
    let len = config.trace_len.min(100_000);
    let specs: Vec<_> = names
        .iter()
        .map(|n| catalog::by_name(n).unwrap_or_else(|| panic!("{n} missing")))
        .collect();
    let rows = parallel_map(config, specs, |spec| {
        let trace = config.pool.profile(spec.profile(), len);
        let refs_per_1000 = INTERFACES
            .iter()
            .map(|&iface| {
                let replay = trace.as_slice()[..len].iter().copied();
                let n = InterfaceAdapter::new(replay, iface).count();
                1000.0 * n as f64 / len as f64
            })
            .collect();
        InterfaceRow {
            name: format!("{} ({})", spec.name(), spec.arch()),
            refs_per_1000,
        }
    });
    InterfaceEffects { rows }
}

impl InterfaceEffects {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut headers = vec!["trace".to_string()];
        headers.extend(INTERFACES.iter().map(|i| {
            format!(
                "{}B{}",
                i.width_bytes,
                if i.remembers { "+mem" } else { "" }
            )
        }));
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.name.clone()];
            cells.extend(r.refs_per_1000.iter().map(|x| format!("{x:.0}")));
            t.row(cells);
        }
        format!(
            "Memory references per 1,000 processor references, by memory \
             interface (§1.1 design-architecture effect)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(20_000)
            .sizes(vec![1024])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn wider_interfaces_need_fewer_references() {
        let e = run(&tiny());
        for r in &e.rows {
            // 2B no-mem >= 4B no-mem >= 8B no-mem.
            assert!(r.refs_per_1000[0] >= r.refs_per_1000[1], "{}", r.name);
            assert!(r.refs_per_1000[1] >= r.refs_per_1000[2], "{}", r.name);
        }
    }

    #[test]
    fn memory_always_helps() {
        let e = run(&tiny());
        for r in &e.rows {
            for (k, iface) in INTERFACES.iter().enumerate().take(3) {
                assert!(
                    r.refs_per_1000[k + 3] <= r.refs_per_1000[k] + 1e-9,
                    "{}: {}B",
                    r.name,
                    iface.width_bytes
                );
            }
        }
    }

    #[test]
    fn sequential_code_benefits_most_from_memory() {
        // The Z8000's long sequential runs of 2-byte instructions are
        // exactly what a remembering 8-byte interface absorbs.
        let e = run(&tiny());
        let z = e.rows.iter().find(|r| r.name.starts_with("ZGREP")).unwrap();
        let saving = z.refs_per_1000[2] / z.refs_per_1000[5];
        assert!(saving > 1.5, "saving only {saving}");
    }

    #[test]
    fn render_shows_grid() {
        let s = run(&tiny()).render();
        assert!(s.contains("8B+mem"));
        assert!(s.contains("VCCOM"));
    }
}
