//! **Figure 2** — the \[Hard80\] supervisor- and problem-state miss-ratio
//! curves the paper reproduces for comparison with its MVS traces.

use crate::experiments::ExperimentConfig;
use crate::hard80;
use crate::report::render_series;

/// The Figure 2 result: analytic curves evaluated at the swept sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// Cache sizes (bytes).
    pub sizes: Vec<usize>,
    /// Supervisor-state miss ratios.
    pub supervisor: Vec<f64>,
    /// Problem-state miss ratios.
    pub problem: Vec<f64>,
    /// Cycle-weighted blend (73% supervisor, per \[Mil85\]).
    pub blended: Vec<f64>,
}

/// Runs the experiment (pure evaluation of the analytic model).
pub fn run(config: &ExperimentConfig) -> Fig2 {
    let sizes = config.sizes.clone();
    Fig2 {
        supervisor: sizes.iter().map(|&s| hard80::SUPERVISOR.miss_ratio(s)).collect(),
        problem: sizes.iter().map(|&s| hard80::PROBLEM.miss_ratio(s)).collect(),
        blended: sizes.iter().map(|&s| hard80::blended_miss_ratio(s)).collect(),
        sizes,
    }
}

impl Fig2 {
    /// Renders the series (table plus an ASCII plot).
    pub fn render(&self) -> String {
        let series = [
            ("supervisor".to_string(), self.supervisor.clone()),
            ("problem".to_string(), self.problem.clone()),
            ("blended 73/27".to_string(), self.blended.clone()),
        ];
        format!(
            "{}\n{}",
            render_series(
                "Figure 2: [Hard80] IBM 370/MVS miss ratios (32-byte lines)",
                &self.sizes,
                &series,
            ),
            crate::report::ascii_plot("Figure 2 (log y)", &self.sizes, &series)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_match_module_constants() {
        let f = run(&ExperimentConfig::quick());
        for (i, &s) in f.sizes.iter().enumerate() {
            assert_eq!(f.supervisor[i], crate::hard80::SUPERVISOR.miss_ratio(s));
            assert!(f.supervisor[i] > f.problem[i]);
            assert!(f.blended[i] < f.supervisor[i] && f.blended[i] > f.problem[i]);
        }
    }

    #[test]
    fn render_mentions_both_states() {
        let s = run(&ExperimentConfig::quick()).render();
        assert!(s.contains("supervisor"));
        assert!(s.contains("problem"));
    }
}
