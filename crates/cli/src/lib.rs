//! Library backing the `smith85` command-line tool.
//!
//! Every subcommand is a pure function from parsed options to an output
//! string, so the whole surface is unit-testable without spawning
//! processes. See [`run`] for dispatch and `smith85 help` for usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commands;
mod opts;

pub use opts::Opts;

use std::error::Error;
use std::fmt;

/// Errors surfaced to the command line.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; the message explains what to fix.
    Usage(String),
    /// No CPU trace, Table 3 mix or family profile has this name.
    UnknownTrace(String),
    /// A named experiment does not exist.
    UnknownExperiment(String),
    /// Reading or writing a trace file failed.
    Io(smith85_trace::TraceIoError),
    /// A cache configuration was invalid.
    Config(smith85_cachesim::ConfigError),
    /// A plain file-system error.
    File(std::io::Error),
    /// `smith85 suite` completed with failed experiments; the payload is
    /// the final report (the run itself was not aborted).
    Suite(String),
    /// An experiment ran, but a claim it checks does not hold; the
    /// payload is its full output, which still goes to stdout.
    ClaimFailed(String),
    /// The simulation server answered a `submit` with a typed error.
    Server(String),
    /// A persistent-store operation failed, or `cache verify` found
    /// corruption (the payload is the report; damaged entries are
    /// already quarantined).
    Store(String),
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::UnknownTrace(n) => {
                write!(f, "no trace, mix or family profile named {n:?}")?;
                if let Some(nearest) = smith85_core::experiments::nearest_workload_name(n) {
                    write!(f, "; nearest catalog match is {nearest:?}")?;
                }
                write!(f, " (try `smith85 catalog`)")
            }
            CliError::UnknownExperiment(n) => {
                write!(f, "no experiment named {n:?} (try `smith85 help`)")
            }
            CliError::Io(e) => e.fmt(f),
            CliError::Config(e) => e.fmt(f),
            CliError::File(e) => e.fmt(f),
            CliError::Suite(report) => write!(f, "suite finished with failures\n{report}"),
            CliError::ClaimFailed(_) => write!(f, "a checked claim does not hold (see the output)"),
            CliError::Server(m) => write!(f, "{m}"),
            CliError::Store(m) => write!(f, "{m}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Config(e) => Some(e),
            CliError::File(e) => Some(e),
            _ => None,
        }
    }
}

impl From<smith85_trace::TraceIoError> for CliError {
    fn from(e: smith85_trace::TraceIoError) -> Self {
        CliError::Io(e)
    }
}

impl From<smith85_cachesim::ConfigError> for CliError {
    fn from(e: smith85_cachesim::ConfigError) -> Self {
        CliError::Config(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::File(e)
    }
}

/// Dispatches a full argument vector (without the program name) and
/// returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing bad usage, unknown names, I/O
/// failures or invalid configurations.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = match args.split_first() {
        None => return Ok(commands::help()),
        Some((c, rest)) => (c.as_str(), rest),
    };
    // `trace report` merges several per-process journals, so --journal
    // is repeatable there (and only there).
    let opts = if command == "trace" {
        Opts::parse_allowing_repeats(rest, &["journal"])?
    } else {
        Opts::parse(rest)?
    };
    match command {
        "help" | "--help" | "-h" => Ok(commands::help()),
        "list" => commands::list(&opts),
        "catalog" => commands::catalog_cmd(&opts),
        "generate" => commands::generate(&opts),
        "characterize" => commands::characterize(&opts),
        "simulate" => commands::simulate(&opts),
        "sweep" => commands::sweep(&opts),
        "assoc" => commands::assoc(&opts),
        "target" => commands::target(&opts),
        "custom" => commands::custom(&opts),
        "experiment" => commands::experiment(&opts),
        "suite" => commands::suite(&opts),
        "serve" => commands::serve(&opts),
        "submit" => commands::submit(&opts),
        "cache" => commands::cache(&opts),
        "trace" => commands::trace(&opts),
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn empty_and_help_print_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run_str(&["help"]).unwrap().contains("simulate"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(run_str(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn list_names_all_traces() {
        let out = run_str(&["list"]).unwrap();
        for name in ["MVS1", "VSPICE", "ZGREP", "TWOD", "PL0", "VAXIMA"] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn catalog_groups_profiles_by_family() {
        let out = run_str(&["catalog"]).unwrap();
        assert!(out.contains("family cpu (49 profiles):"), "{out}");
        assert!(out.contains("family storage (5 profiles):"), "{out}");
        assert!(out.contains("family network (5 profiles):"), "{out}");
        assert!(out.contains("S-KVSTORE"));
        assert!(out.contains("N-BACKBONE"));

        let storage = run_str(&["catalog", "--family", "storage"]).unwrap();
        assert!(storage.contains("S-SCAN"), "{storage}");
        assert!(!storage.contains("VCCOM"), "{storage}");
        assert!(!storage.contains("family network"), "{storage}");

        assert!(matches!(
            run_str(&["catalog", "--family", "gpu"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn family_profiles_simulate_with_policies() {
        let lru = run_str(&[
            "simulate", "--trace", "S-KVSTORE", "--len", "4000", "--size", "2048", "--line", "64",
        ])
        .unwrap();
        assert!(lru.contains("miss ratio"), "{lru}");
        let fifo = run_str(&[
            "simulate", "--trace", "S-KVSTORE", "--len", "4000", "--size", "2048", "--line", "64",
            "--policy", "fifo",
        ])
        .unwrap();
        assert_ne!(lru, fifo, "policy must show up in the banner or the numbers");
        assert!(matches!(
            run_str(&[
                "simulate", "--trace", "VCCOM", "--size", "1024", "--policy", "clock",
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn sweep_with_non_lru_policy_runs_per_config() {
        let out = run_str(&[
            "sweep", "--trace", "ZGREP", "--len", "4000", "--sizes", "1024,4096", "--ways", "2",
            "--policy", "random:7",
        ])
        .unwrap();
        assert!(out.contains("per config"), "{out}");
        assert!(out.contains("random:7"), "{out}");
        assert_eq!(out.lines().count(), 3, "{out}");
        let sizes_only = run_str(&[
            "sweep", "--trace", "N-LAN", "--len", "4000", "--sizes", "256,1024", "--line", "64",
            "--policy", "plru",
        ])
        .unwrap();
        assert!(sizes_only.contains("plru"), "{sizes_only}");
        assert_eq!(sizes_only.lines().count(), 3, "{sizes_only}");
    }

    #[test]
    fn simulate_runs_a_catalog_trace() {
        let out = run_str(&[
            "simulate", "--trace", "VCCOM", "--len", "5000", "--size", "4096",
        ])
        .unwrap();
        assert!(out.contains("miss ratio"), "{out}");
    }

    #[test]
    fn simulate_rejects_unknown_trace() {
        assert!(matches!(
            run_str(&["simulate", "--trace", "NOPE", "--size", "1024"]),
            Err(CliError::UnknownTrace(_))
        ));
        let err = run_str(&["simulate", "--trace", "VCOM", "--size", "1024"]).unwrap_err();
        assert!(err.to_string().contains("nearest catalog match is \"VCCOM\""), "{err}");
    }

    #[test]
    fn table3_mixes_resolve_as_served() {
        let out = run_str(&["characterize", "--trace", "Z8000 - Assorted", "--len", "3000"]);
        assert!(out.unwrap().starts_with("refs      3000\n"));
    }

    #[test]
    fn sweep_produces_a_curve() {
        let out = run_str(&["sweep", "--trace", "ZGREP", "--len", "5000"]).unwrap();
        assert!(out.contains("1024"));
        assert!(out.lines().count() > 10);
    }

    #[test]
    fn sweep_with_ways_produces_the_grid() {
        let out = run_str(&[
            "sweep", "--trace", "ZGREP", "--len", "5000", "--sizes", "1024,4096", "--ways", "1,2,4",
        ])
        .unwrap();
        assert!(out.contains("one pass"), "{out}");
        assert!(out.contains("traffic"), "{out}");
        // 2 sizes x 3 ways, all realizable, plus the header line.
        assert_eq!(out.lines().count(), 7, "{out}");
        // A grid nothing can realize is a usage error, not a panic.
        let err = run_str(&[
            "sweep", "--trace", "ZGREP", "--len", "1000", "--sizes", "64", "--ways", "8",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn assoc_sweeps_way_counts() {
        let out = run_str(&["assoc", "--trace", "VCCOM", "--len", "6000", "--sets", "16"]).unwrap();
        assert!(out.contains("ways"));
        assert!(out.lines().count() > 5);
        assert!(run_str(&["assoc", "--trace", "VCCOM", "--sets", "12"]).is_err());
    }

    #[test]
    fn target_looks_up_table5() {
        let out = run_str(&["target", "--size", "8192"]).unwrap();
        assert!(out.contains("0.08"), "{out}");
    }

    #[test]
    fn generate_and_characterize_roundtrip() {
        let dir = std::env::temp_dir().join("smith85-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_str = path.to_str().unwrap();
        let out = run_str(&[
            "generate", "--trace", "PL0", "--len", "3000", "--out", path_str,
        ])
        .unwrap();
        assert!(out.contains("3000"));
        let out = run_str(&["characterize", "--file", path_str]).unwrap();
        assert!(out.contains("ifetch"), "{out}");
    }

    #[test]
    fn custom_profile_sweeps() {
        let out = run_str(&[
            "custom", "--ifetch", "0.6", "--read", "0.3", "--code-kb", "4", "--data-kb", "4",
            "--len", "8000",
        ])
        .unwrap();
        assert!(out.contains("characteristics"));
        assert!(out.contains("65536"));
    }

    #[test]
    fn custom_rejects_bad_fractions() {
        assert!(run_str(&["custom", "--ifetch", "0.9", "--read", "0.5"]).is_err());
    }

    #[test]
    fn simulate_fault_injection_is_deterministic() {
        let faulty = [
            "simulate", "--trace", "ZGREP", "--len", "4000", "--size", "1024", "--fault-drop",
            "0.05", "--fault-flip", "0.02",
        ];
        let a = run_str(&faulty).unwrap();
        let b = run_str(&faulty).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same corruption");
        let clean = run_str(&[
            "simulate", "--trace", "ZGREP", "--len", "4000", "--size", "1024",
        ])
        .unwrap();
        assert_ne!(a, clean, "faults must perturb the statistics");
        assert!(matches!(
            run_str(&[
                "simulate", "--trace", "ZGREP", "--size", "1024", "--fault-drop", "1.5",
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn suite_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("smith85-suite-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap();
        let first = run_str(&["suite", "--quick", "true", "--len", "200", "--out", out]).unwrap();
        assert!(first.contains("23 passed, 0 failed, 0 skipped"), "{first}");
        assert!(dir.join("manifest.json").exists());
        assert!(dir.join("table1.json").exists());
        let second = run_str(&[
            "suite", "--quick", "true", "--len", "200", "--out", out, "--resume", "true",
        ])
        .unwrap();
        assert!(second.contains("0 passed, 0 failed, 23 skipped"), "{second}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_rejects_corrupt_binary_trace_without_panicking() {
        let dir = std::env::temp_dir().join(format!("smith85-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        let path_str = path.to_str().unwrap().to_string();
        run_str(&[
            "generate", "--trace", "PL0", "--len", "1000", "--out", &path_str, "--format",
            "binary",
        ])
        .unwrap();
        // Truncate mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = run_str(&["simulate", "--file", &path_str, "--size", "1024"]).unwrap_err();
        assert!(
            matches!(
                &err,
                CliError::Io(smith85_trace::TraceIoError::Truncated { .. })
            ),
            "{err}"
        );
        // Corrupt a kind byte.
        let mut bytes = bytes;
        bytes[8] = 9;
        std::fs::write(&path, &bytes).unwrap();
        let err = run_str(&["simulate", "--file", &path_str, "--size", "1024"]).unwrap_err();
        assert!(
            matches!(
                &err,
                CliError::Io(smith85_trace::TraceIoError::BadKind { record: 1, found: 9 })
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_talks_to_a_live_server() {
        let server = smith85_serve::Server::spawn(smith85_serve::ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..smith85_serve::ServeOptions::default()
        })
        .unwrap();
        let addr = server.addr().to_string();

        let out = run_str(&["submit", "ping", "--addr", &addr]).unwrap();
        assert_eq!(out, "pong\n");

        let out = run_str(&["submit", "catalog", "--addr", &addr, "--json", "true"]).unwrap();
        assert!(out.starts_with("{\"type\":\"catalog_result\""), "{out}");
        assert!(out.contains("VCCOM"));

        let out = run_str(&[
            "submit", "simulate", "--addr", &addr, "--workload", "VCCOM", "--len", "3000",
            "--size", "4096",
        ])
        .unwrap();
        assert!(out.contains("miss ratio"), "{out}");

        let out = run_str(&[
            "submit", "simulate", "--addr", &addr, "--workload", "S-KVSTORE", "--len", "2000",
            "--size", "2048", "--line", "64", "--policy", "fifo",
        ])
        .unwrap();
        assert!(out.contains("miss ratio"), "{out}");

        let err = run_str(&[
            "submit", "simulate", "--addr", &addr, "--workload", "NOPE", "--size", "4096",
        ])
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Server(m) if m.contains("unknown_workload")),
            "{err}"
        );
        assert!(
            matches!(&err, CliError::Server(m) if m.contains("nearest catalog match")),
            "{err}"
        );

        // A policy typo fails locally, before any connection attempt.
        assert!(matches!(
            run_str(&[
                "submit", "simulate", "--addr", "127.0.0.1:1", "--workload", "VCCOM", "--size",
                "4096", "--policy", "clock",
            ]),
            Err(CliError::Usage(_))
        ));

        let stats = server.stop().unwrap();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.simulate_requests, 3);
        assert_eq!(stats.catalog_requests, 1);
    }

    #[test]
    fn submit_rejects_bad_request_types_locally() {
        assert!(matches!(
            run_str(&["submit", "frobnicate", "--addr", "127.0.0.1:1"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["submit", "--addr", "127.0.0.1:1"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_report_and_follow_render_a_journal() {
        let journal = std::env::temp_dir()
            .join(format!("smith85-cli-journal-{}.ndjson", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let server = smith85_serve::Server::spawn(smith85_serve::ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            journal: Some(journal.clone()),
            ..smith85_serve::ServeOptions::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let out = run_str(&[
            "submit", "simulate", "--addr", &addr, "--workload", "VCCOM", "--len", "3000",
            "--size", "4096",
        ])
        .unwrap();
        assert!(out.contains("trace id"), "{out}");
        server.stop().unwrap();

        let path = journal.to_str().unwrap();
        let report = run_str(&["trace", "report", path]).unwrap();
        assert!(report.contains("request"), "{report}");
        assert!(report.contains("simulate_workload"), "{report}");
        let collapsed = run_str(&["trace", "report", path, "--format", "collapsed"]).unwrap();
        assert!(collapsed.contains("request;simulate_workload"), "{collapsed}");
        let followed = run_str(&["trace", "follow", path, "--max-events", "3"]).unwrap();
        assert!(followed.contains("followed 3 event(s)"), "{followed}");

        assert!(matches!(run_str(&["trace", "frobnicate", path]), Err(CliError::Usage(_))));
        assert!(matches!(run_str(&["trace", "report"]), Err(CliError::Usage(_))));
        std::fs::remove_file(&journal).unwrap();
    }

    #[test]
    fn cache_subcommand_lifecycle() {
        let dir = std::env::temp_dir().join(format!("smith85-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().unwrap().to_string();

        // Seed two records through the public store API.
        {
            let store = smith85_store::Store::open(&dir).unwrap();
            store.put_json("v1/c1/result/a", "{\"x\":1}").unwrap();
            store.put_json("v1/c1/result/b", "{\"x\":2}").unwrap();
        }

        let stats = run_str(&["cache", "stats", "--store", &dir_str]).unwrap();
        assert!(stats.contains("entries        2"), "{stats}");
        assert!(stats.contains("recovery scan: 2 scanned, 2 ok, 0 quarantined"), "{stats}");

        let clean = run_str(&["cache", "verify", "--store", &dir_str]).unwrap();
        assert!(clean.contains("all intact"), "{clean}");

        // Flip a byte in one object; verify must catch and quarantine it.
        let object = std::fs::read_dir(dir.join("objects"))
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .next()
            .unwrap();
        let mut bytes = std::fs::read(&object).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&object, &bytes).unwrap();
        let err = run_str(&["cache", "verify", "--store", &dir_str]).unwrap_err();
        assert!(
            matches!(&err, CliError::Store(m) if m.contains("1 of 2")),
            "{err}"
        );

        let stats = run_str(&["cache", "stats", "--store", &dir_str]).unwrap();
        assert!(stats.contains("quarantined    1 file(s)"), "{stats}");

        // GC to zero leaves the quarantine evidence alone.
        assert!(matches!(
            run_str(&["cache", "gc", "--store", &dir_str]),
            Err(CliError::Usage(_))
        ));
        let gc = run_str(&["cache", "gc", "--store", &dir_str, "--budget", "0"]).unwrap();
        assert!(gc.contains("evicted 1"), "{gc}");
        let cleared = run_str(&["cache", "clear", "--store", &dir_str]).unwrap();
        assert!(cleared.contains("removed 0"), "{cleared}");
        assert!(dir.join("quarantine").read_dir().unwrap().next().is_some());

        assert!(matches!(
            run_str(&["cache", "frobnicate", "--store", &dir_str]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run_str(&["cache", "stats"]), Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_retries_refused_connections_then_gives_up() {
        // Nothing listens on this port; with retries the command must
        // still fail with the final refused attempt, quickly.
        let err = run_str(&[
            "submit", "ping", "--addr", "127.0.0.1:1", "--retries", "2", "--backoff-ms", "1",
        ])
        .unwrap_err();
        assert!(
            matches!(&err, CliError::File(e) if e.kind() == std::io::ErrorKind::ConnectionRefused),
            "{err}"
        );
        assert!(matches!(
            run_str(&["submit", "ping", "--addr", "127.0.0.1:1", "--retries", "x"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn experiment_dispatch() {
        let out = run_str(&["experiment", "fig2"]).unwrap();
        assert!(out.contains("supervisor"));
        assert!(matches!(
            run_str(&["experiment", "nope"]),
            Err(CliError::UnknownExperiment(_))
        ));
    }

    #[test]
    fn every_experiment_name_and_alias_runs_through_the_registry() {
        let printed = |name: &str| match run_str(&[
            "experiment", name, "--quick", "true", "--len", "300",
        ]) {
            Ok(text) | Err(CliError::ClaimFailed(text)) => text,
            Err(e) => panic!("experiment {name}: {e}"),
        };
        let help = run_str(&["help"]).unwrap();
        let mut all = String::new();
        for entry in smith85_core::runner::registry() {
            let text = printed(entry.name);
            assert!(!text.is_empty(), "{} printed nothing", entry.name);
            assert!(help.contains(entry.name), "help misses {}", entry.name);
            for alias in entry.aliases {
                assert_eq!(printed(alias), text, "alias {alias} of {}", entry.name);
                assert!(help.contains(alias), "help misses {alias}");
            }
            all.push_str(&text);
            all.push('\n');
        }
        assert!(smith85_core::runner::lookup("all").is_none());
        assert_eq!(printed("all"), all, "`all` prints every entry in registry order");
    }

    #[test]
    fn experiment_csv_needs_an_entry_with_a_csv_form() {
        let args = |name| ["experiment", name, "--quick", "true", "--len", "300", "--csv", "true"];
        for entry in smith85_core::runner::registry() {
            for name in std::iter::once(entry.name).chain(entry.aliases.iter().copied()) {
                let out = run_str(&args(name));
                if entry.csv.is_some() {
                    let csv = out.unwrap();
                    assert!(csv.lines().next().unwrap().contains(','), "{name}: {csv}");
                } else {
                    assert!(matches!(out, Err(CliError::Usage(_))), "{name}");
                }
            }
        }
        assert!(matches!(run_str(&args("all")), Err(CliError::Usage(_))));
    }

    #[test]
    fn family_conclusions_experiment_dispatches() {
        let out = run_str(&[
            "experiment", "family_conclusions", "--quick", "true", "--len", "2000",
        ])
        .unwrap();
        assert!(out.contains("workload"), "{out}");
        assert!(out.contains("policy"), "{out}");
    }
}
