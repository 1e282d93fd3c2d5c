//! **§4.3 fudge-factor validation** — the paper's final deliverable is a
//! recipe: take numbers measured on machine M1 and "fudge" them into
//! estimates for an unbuilt machine M2. This experiment closes the loop
//! inside the reproduction: predict each architecture group's miss ratio
//! from another group's *measurement* times the
//! [`miss_ratio_fudge`](crate::fudge::miss_ratio_fudge) factor, then
//! compare against the simulation of the target group itself.

use crate::experiments::{lru_miss_ratios, ExperimentConfig};
use crate::fudge;
use crate::report::{fmt_ratio, TextTable};
use crate::stat_util::mean;
use crate::sweep::parallel_map;
use smith85_synth::{catalog, TraceGroup};
use smith85_trace::MachineArch;

/// Cache size at which the cross-architecture prediction is evaluated.
pub const EVAL_SIZE: usize = 1024;

/// One prediction: source group → target group.
#[derive(Debug, Clone, PartialEq)]
pub struct FudgePrediction {
    /// Group whose measurement is the starting point.
    pub from: String,
    /// Group being predicted.
    pub to: String,
    /// Source group's measured mean miss ratio.
    pub measured_from: f64,
    /// Applied fudge factor.
    pub factor: f64,
    /// Predicted miss ratio for the target.
    pub predicted: f64,
    /// The target group's own measured mean miss ratio.
    pub measured_to: f64,
}

impl FudgePrediction {
    /// Ratio of prediction to measurement (1.0 = perfect).
    pub fn accuracy(&self) -> f64 {
        if self.measured_to == 0.0 {
            0.0
        } else {
            self.predicted / self.measured_to
        }
    }
}

/// The validation result.
#[derive(Debug, Clone, PartialEq)]
pub struct FudgeValidation {
    /// All evaluated (from, to) pairs.
    pub predictions: Vec<FudgePrediction>,
}

/// The (group, architecture) pairs the factors are evaluated over. The
/// groups chosen have one dominant architecture each.
const PAIRS: [(TraceGroup, MachineArch); 4] = [
    (TraceGroup::VaxUnix, MachineArch::Vax),
    (TraceGroup::Ibm370, MachineArch::Ibm370),
    (TraceGroup::Z8000, MachineArch::Z8000),
    (TraceGroup::Cdc6400, MachineArch::Cdc6400),
];

/// Runs the validation.
pub fn run(config: &ExperimentConfig) -> FudgeValidation {
    let len = config.trace_len;
    // Measure every group once.
    let measured: Vec<(TraceGroup, f64)> = parallel_map(
        config,
        PAIRS.to_vec(),
        move |(group, _)| {
            let specs = catalog::group(group);
            let misses: Vec<f64> = specs
                .iter()
                .map(|s| {
                    let trace = config.profile_trace(s.profile());
                    let replay = &trace.as_slice()[..len];
                    lru_miss_ratios(replay, &[EVAL_SIZE], smith85_trace::PAPER_LINE_SIZE)[0]
                })
                .collect();
            (group, mean(&misses))
        },
    );
    let miss_of = |g: TraceGroup| {
        measured
            .iter()
            .find(|(gg, _)| *gg == g)
            .map(|(_, m)| *m)
            .expect("group measured")
    };
    let mut predictions = Vec::new();
    for &(from_g, from_a) in &PAIRS {
        for &(to_g, to_a) in &PAIRS {
            if from_g == to_g {
                continue;
            }
            let factor = fudge::miss_ratio_fudge(from_a, to_a);
            let measured_from = miss_of(from_g);
            predictions.push(FudgePrediction {
                from: from_g.to_string(),
                to: to_g.to_string(),
                measured_from,
                factor,
                predicted: measured_from * factor,
                measured_to: miss_of(to_g),
            });
        }
    }
    FudgeValidation { predictions }
}

impl FudgeValidation {
    /// Predictions where the 16↔32-bit width correction applies.
    pub fn width_corrections(&self) -> Vec<&FudgePrediction> {
        self.predictions
            .iter()
            .filter(|p| (p.factor - 1.0).abs() > 0.5)
            .collect()
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "from", "to", "measured(from)", "factor", "predicted", "measured(to)", "pred/meas",
        ]);
        for p in &self.predictions {
            t.row(vec![
                p.from.clone(),
                p.to.clone(),
                fmt_ratio(p.measured_from),
                format!("{:.2}", p.factor),
                fmt_ratio(p.predicted),
                fmt_ratio(p.measured_to),
                format!("{:.2}", p.accuracy()),
            ]);
        }
        format!(
            "§4.3 fudge-factor validation at {EVAL_SIZE} B: predicting one \
             architecture's miss ratio from another's\n{}\nThe width \
             correction (16-bit ↔ 32-bit) carries most of the signal — the \
             paper's Z80000 lesson; complexity-only corrections are \
             deliberately mild.\n",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(25_000)
            .sizes(vec![EVAL_SIZE])
            .threads(crate::sweep::default_threads())
            .build()
            .unwrap()
    }

    #[test]
    fn all_ordered_pairs_predicted() {
        let v = run(&tiny());
        assert_eq!(v.predictions.len(), 12);
        for p in &v.predictions {
            assert!(p.predicted > 0.0, "{} -> {}", p.from, p.to);
        }
    }

    #[test]
    fn width_correction_improves_z8000_to_vax_prediction() {
        // Without the 2.5x factor, a Z8000 measurement wildly underpredicts
        // a 32-bit machine; with it, the prediction lands within ~2.5x.
        let v = run(&tiny());
        let p = v
            .predictions
            .iter()
            .find(|p| p.from == "Z8000" && p.to == "VAX")
            .unwrap();
        let uncorrected = p.measured_from / p.measured_to;
        assert!(uncorrected < 0.8, "uncorrected already fine: {uncorrected}");
        let corrected = p.accuracy();
        assert!(
            (corrected - 1.0).abs() < (uncorrected - 1.0).abs(),
            "correction made it worse: {uncorrected} -> {corrected}"
        );
    }

    #[test]
    fn same_width_predictions_are_order_of_magnitude() {
        let v = run(&tiny());
        let p = v
            .predictions
            .iter()
            .find(|p| p.from == "VAX" && p.to == "IBM 370")
            .unwrap();
        // Complexity-only factor is mild, so this prediction underestimates
        // the big-footprint 370 workload — but stays within ~10x.
        assert!(p.accuracy() > 0.1 && p.accuracy() < 10.0, "{}", p.accuracy());
    }

    #[test]
    fn width_corrections_identified() {
        let v = run(&tiny());
        // Every pair involving exactly one 16-bit machine carries the
        // width correction: Z8000 with each of VAX/370/CDC, both ways.
        assert_eq!(v.width_corrections().len(), 6);
    }

    #[test]
    fn render_mentions_the_z80000_lesson() {
        assert!(run(&tiny()).render().contains("Z80000"));
    }
}
