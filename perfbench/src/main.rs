//! The smith85 benchmark: runs one named workload from a seed and prints
//! every metric, with its unit, as the last line of standard output.
//!
//! ```text
//! perfbench --workload <grid-sweep|hot-simulate> --seed <n>
//!           --seconds <s> --trace <0|1> --smith85 <serve binary> --workdir <dir>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the
//! run with the benchmark's span recorder on and prints the per-layer
//! metrics. Every answer is checked against a reference computed outside
//! the timed phases; a wrong answer fails the run. `run.sh` builds the
//! binaries and supplies `--smith85` and `--workdir`; `README.md`
//! describes the workloads and metrics.

#![deny(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads /proc and waits with ppoll(2): Linux only");

mod fleet;
mod grid_sweep;
mod host;
mod load;
mod served;
mod spans;
mod stats;

use smith85_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics (printed by untraced runs) and their units, in
/// the order `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("refs_per_s", "refs/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("capacity_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (printed by traced runs) and their units. A layer
/// a workload bypasses reads 0 on it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_pool.materialize_ms", "ms"),
    ("trace_pool.materialized_mb", "MiB"),
    ("trace_pool.hit_us", "us"),
    ("trace_pool.hit_ratio", "ratio"),
    ("one_pass.sweep_ms", "ms"),
    ("one_pass.refs_per_s.cpu", "refs/s"),
    ("one_pass.refs_per_s.storage", "refs/s"),
    ("one_pass.refs_per_s.network", "refs/s"),
    ("one_pass.share", "ratio"),
    ("cachesim.simulate_us", "us"),
    ("experiments.resolve_us.cpu", "us"),
    ("experiments.resolve_us.family", "us"),
    ("exec.self_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us.simulate", "us"),
    ("protocol.encode_us.sweep", "us"),
    ("protocol.reply_bytes.simulate", "bytes"),
    ("protocol.reply_bytes.sweep", "bytes"),
    ("event_loop.residual_us", "us"),
    ("event_loop.wakeups_per_req", "wakeups/req"),
    ("queue.wait_ms.p90", "ms"),
    ("exec.store_hit_us.simulate", "us"),
    ("exec.store_hit_us.sweep", "us"),
    ("store.put_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("router.hop_us", "us"),
    ("router.shard_share_max", "ratio"),
    ("router.hedged", "count"),
    ("router.shard_overloads", "count"),
    ("gen.late_ms.max", "ms"),
    ("host.steal_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for request order and generator seeds.
    pub seed: u64,
    /// Length of the measured work.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `smith85` release binary.
    pub smith85: PathBuf,
    /// Scratch directory for logs, stores and span dumps.
    pub workdir: PathBuf,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        while let Some(flag) = raw.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(name.to_string(), value);
        }
        let mut take = |name: &str| {
            values
                .remove(name)
                .ok_or_else(|| format!("missing --{name}"))
        };
        let number = |name: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("--{name} {text:?} is not a whole number"))
        };
        let args = Args {
            workload: take("workload")?,
            seed: number("seed", take("seed")?)?,
            seconds: number("seconds", take("seconds")?)?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            smith85: take("smith85")?.into(),
            workdir: take("workdir")?.into(),
        };
        if let Some(extra) = values.keys().next() {
            return Err(format!("unknown flag --{extra}"));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(args)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Errors + typed `overloaded` + timeouts + wrong answers.
    pub failed: u64,
    /// Why the measurement is not valid, if it is not.
    pub invalid: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric; the name must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Sets a hit ratio, `hits` ÷ `lookups`, that a valid run reads as
    /// exactly `required`: any other value, or no lookups at all, means
    /// the workload did not exercise the layer the way it is built to,
    /// and the run is flagged invalid.
    pub fn require_ratio(&mut self, name: &'static str, hits: u64, lookups: u64, required: f64) {
        let ratio = hits as f64 / lookups.max(1) as f64;
        self.set(name, ratio);
        if lookups == 0 || ratio != required {
            self.invalid.push(format!(
                "{name} read {ratio} ({hits} hits in {lookups} lookups); a valid run reads {required}"
            ));
        }
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: exactly the metrics of this run's kind, each
    /// with its unit. Per-layer metrics of bypassed layers read 0.
    fn result(&self, trace: bool) -> Result<Json, String> {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(value) => *value,
                None if trace => 0.0,
                None => return Err(format!("the workload did not measure {name}")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not a finite number"));
            }
            metrics.push((
                name.to_string(),
                json::obj(vec![("value", Json::Num(value)), ("unit", json::s(*unit))]),
            ));
        }
        if self.attempted == 0 {
            return Err("the workload attempted nothing".to_string());
        }
        Ok(json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.invalid.is_empty()),
            ),
            ("attempted", Json::Uint(self.attempted)),
            ("failed", Json::Uint(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// SplitMix64 over `(seed, a, b)`: the benchmark's only source of
/// randomness, so one seed always gives the same inputs.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <grid-sweep|hot-simulate> --seed N \
                 --seconds S --trace 0|1 --smith85 PATH --workdir DIR"
            );
            return ExitCode::from(2);
        }
    };
    let provenance = host::provenance(&args.workload, args.seed, args.seconds, args.trace);
    let run = || -> Result<Outcome, String> {
        std::fs::create_dir_all(&args.workdir)
            .map_err(|e| format!("cannot create {}: {e}", args.workdir.display()))?;
        match args.workload.as_str() {
            "grid-sweep" => grid_sweep::run(&args),
            "hot-simulate" => served::run(&args),
            other => Err(format!(
                "unknown workload {other:?} (grid-sweep, hot-simulate)"
            )),
        }
    };
    let outcome = match run() {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match outcome.result(args.trace) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        println!("# {line}");
    }
    for reason in &outcome.invalid {
        println!("# INVALID: {reason}");
    }
    println!("# provenance {provenance}");
    println!("{result}");
    if outcome.failed == 0 && outcome.invalid.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_command_line_is_checked() {
        let ok = args(&[
            "--workload",
            "grid-sweep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--smith85",
            "bin",
            "--workdir",
            "w",
        ])
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3, true));
        assert!(args(&["--workload", "x"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "3",
            "--trace",
            "0",
            "--smith85",
            "b",
            "--workdir",
            "w",
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "3",
            "--trace",
            "2",
            "--smith85",
            "b",
            "--workdir",
            "w",
        ])
        .is_err());
    }

    #[test]
    fn a_refusal_or_wrong_answer_fails_the_result() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        outcome.attempted = 10;
        let clean = outcome.result(false).unwrap().to_string();
        assert!(clean.starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}"#), "{clean}");
        outcome.failed = 1;
        let failed = outcome.result(false).unwrap();
        assert_eq!(failed.get("correct").and_then(Json::as_bool), Some(false));
        outcome.failed = 0;
        outcome.invalid.push("generator late".to_string());
        assert_eq!(
            outcome
                .result(false)
                .unwrap()
                .get("correct")
                .and_then(Json::as_bool),
            Some(false)
        );
        outcome.attempted = 0;
        assert!(
            outcome.result(false).is_err(),
            "a run must attempt something"
        );
        outcome.attempted = 10;
        outcome.metrics.remove("p50_ms");
        assert!(
            outcome.result(false).is_err(),
            "every end-to-end metric is required"
        );
        let traced = outcome.result(true).unwrap();
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("router.hop_us")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn a_hit_ratio_off_its_required_value_invalidates_the_run() {
        let mut outcome = Outcome::default();
        outcome.require_ratio("trace_pool.hit_ratio", 128, 128, 1.0);
        outcome.require_ratio("store.hit_ratio", 0, 0, 1.0);
        assert_eq!(outcome.invalid.len(), 1, "no lookups proves nothing");
        outcome.require_ratio("trace_pool.hit_ratio", 127, 128, 1.0);
        assert_eq!(outcome.invalid.len(), 2, "one miss on a warm pool");
        outcome.require_ratio("trace_pool.hit_ratio", 1, 216, 0.0);
        assert_eq!(outcome.invalid.len(), 3, "one hit where every key is new");
        outcome.require_ratio("trace_pool.hit_ratio", 0, 216, 0.0);
        assert_eq!(outcome.invalid.len(), 3);
        assert_eq!(outcome.metrics["trace_pool.hit_ratio"], 0.0);
        assert!(
            outcome.invalid[1].contains("127 hits in 128 lookups"),
            "{:?}",
            outcome.invalid
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Json::parse(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn seeded_shuffles_repeat_and_differ_by_seed() {
        let shuffled = |seed| {
            let mut items: Vec<u32> = (0..20).collect();
            shuffle(&mut items, seed, 0);
            items
        };
        assert_eq!(shuffled(1), shuffled(1));
        assert_ne!(shuffled(1), shuffled(2));
        let mut sorted = shuffled(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
