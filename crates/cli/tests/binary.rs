//! End-to-end tests of the `smith85` binary itself (exit codes, stdout,
//! stderr), via the path Cargo bakes in for integration tests.

use std::process::Command;

fn smith85(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_smith85"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_exits_zero() {
    let out = smith85(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn bad_command_exits_nonzero_with_hint() {
    let out = smith85(&["bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("smith85:"), "{err}");
    assert!(err.contains("help"), "{err}");
}

/// Errors that are not about the command line carry no usage hint.
#[test]
fn runtime_errors_carry_no_usage_hint() {
    let refused_submit = ["submit", "ping", "--addr", "127.0.0.1:1"];
    let failed_claim = [
        "experiment",
        "conclusions",
        "--quick",
        "true",
        "--len",
        "2000",
    ];
    for args in [&refused_submit[..], &failed_claim[..]] {
        let out = smith85(args);
        assert!(!out.status.success(), "{args:?} must fail: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("smith85:"), "{args:?}: {err}");
        assert!(
            !err.contains("smith85 help"),
            "{args:?} printed the usage hint: {err}"
        );
    }
}

/// A sweep size that holds no line is refused, naming the size; it
/// used to panic (exit 101) in the stack analysis.
#[test]
fn sweep_rejects_sizes_smaller_than_a_line() {
    for size in ["8", "0"] {
        let out = smith85(&["sweep", "--trace", "VCCOM", "--len", "2000", "--sizes", size]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("cache of {size} bytes")), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn assoc_rejects_line_sizes_that_are_not_powers_of_two() {
    for line in ["24", "0"] {
        let out = smith85(&["assoc", "--trace", "VCCOM", "--len", "2000", "--line", line]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("line size must be a positive power of two, got {line}")),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
}

/// FNV-1a digests of `sweep` without `--ways` and of `assoc`, computed
/// while the stack analyzer and the all-associativity analyzer answered
/// them: the one-pass engine must print the same bytes.
#[test]
fn size_sweep_and_assoc_output_is_pinned() {
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let pins = [
        ("sweep", "VCCOM", 0x907f_86ef_2a52_5dbf_u64),
        ("sweep", "S-OLTP", 0xdfa7_6b10_a479_6c7a),
        ("assoc", "VCCOM", 0xb457_3fd7_6a1c_4cf7),
        ("assoc", "S-OLTP", 0xb018_bb1b_4b02_4558),
    ];
    for (command, trace, pin) in pins {
        let out = smith85(&[command, "--trace", trace, "--len", "20000"]);
        assert!(out.status.success(), "{out:?}");
        assert_eq!(
            fnv1a(&out.stdout),
            pin,
            "{command} {trace} moved:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// Every cache-shape flag of `simulate`, `sweep` and `assoc` at 0, 1, 3,
/// 24, 2^40 and 2^60 exits 0, 1 or 2: never a panic (101) or an aborted
/// allocation (134). A cache of more than 2^18 lines is refused with the
/// server's message before the trace loads, and `assoc` refuses a row
/// size that overflows.
#[test]
fn cache_shape_flags_never_panic_or_abort() {
    let huge = (1u64 << 40).to_string();
    let overflowing = (1u64 << 60).to_string();
    let commands = [
        ("simulate", ["size", "ways", "line"].as_slice()),
        ("sweep", &["sizes", "ways", "line"]),
        ("assoc", &["sets", "line"]),
    ];
    for (command, flags) in commands {
        for &flag in flags {
            for value in ["0", "1", "3", "24", huge.as_str(), overflowing.as_str()] {
                let long = format!("--{flag}");
                let mut args = vec![command, "--trace", "VCCOM", "--len", "2000"];
                // `simulate` needs a size; its other flags vary around 1 KiB.
                if command == "simulate" && flag != "size" {
                    args.extend(["--size", "1024"]);
                }
                args.extend([long.as_str(), value]);
                let out = smith85(&args);
                let code = out.status.code();
                assert!(matches!(code, Some(0..=2)), "{args:?} exited {code:?}: {out:?}");
                let capped = value == huge && matches!(flag, "size" | "sizes" | "sets");
                if capped {
                    let err = String::from_utf8_lossy(&out.stderr);
                    assert_eq!(code, Some(1), "{args:?}: {err}");
                    assert!(err.contains("over the per-request cap of 262144"), "{args:?}: {err}");
                }
            }
        }
    }
}

#[test]
fn simulate_pipeline_end_to_end() {
    let out = smith85(&[
        "simulate", "--trace", "ZGREP", "--len", "4000", "--size", "1024",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("miss ratio"), "{text}");
    assert!(text.contains("traffic"), "{text}");
}

#[test]
fn generate_then_consume_file() {
    let dir = std::env::temp_dir().join("smith85-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.strc");
    let path_str = path.to_str().unwrap();
    let out = smith85(&[
        "generate", "--trace", "VCAT", "--len", "2000", "--out", path_str, "--format", "binary",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let out = smith85(&["sweep", "--file", path_str, "--sizes", "64,1024"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1024"), "{text}");
}

#[test]
fn list_is_stable_output() {
    let a = smith85(&["list"]);
    let b = smith85(&["list"]);
    assert_eq!(a.stdout, b.stdout);
    assert_eq!(
        String::from_utf8_lossy(&a.stdout)
            .lines()
            .count(),
        50 // header + 49 traces
    );
}

#[test]
fn conclusions_exit_status_follows_the_checklist() {
    let out = smith85(&["experiment", "conclusions", "--quick", "true", "--len", "2000"]);
    let session = smith85_core::session::SimSession::builder()
        .quick()
        .trace_len(2000)
        .build()
        .unwrap();
    let checked = smith85_core::experiments::conclusions::run(session.config());
    assert_eq!(out.status.success(), checked.all_hold(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), checked.render());
}
