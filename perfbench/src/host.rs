//! What the benchmark reads from the host: CPU steal, peak memory and
//! the provenance printed with every result.

use smith85_serve::json::{self, Json};
use std::fs;
use std::io;
use std::process::Command;
use std::time::{Duration, Instant};

/// Bytes in a MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Aggregate CPU time from the `cpu` line of `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time the hypervisor ran another guest while this one wanted to.
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
}

impl CpuTimes {
    /// The current counters (zeros when `/proc/stat` is unreadable).
    pub fn now() -> CpuTimes {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| CpuTimes::parse(&text))
            .unwrap_or_default()
    }

    fn parse(stat: &str) -> Option<CpuTimes> {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        (fields.len() == 8).then(|| CpuTimes {
            steal: fields[7],
            total: fields.iter().sum(),
        })
    }

    /// Steal as a share of all CPU time between `self` and `later`;
    /// [`UNKNOWN_STEAL`] when no CPU tick passed in between.
    pub fn steal_share(self, later: CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            UNKNOWN_STEAL
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// The steal share of an interval that was not measured: it ranks as
/// the most stolen, so it is never picked as calm.
pub const UNKNOWN_STEAL: f64 = 1.0;

/// A reading of the CPU counters, taken `at` after a phase started.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// When it was taken.
    pub at: Duration,
    /// What it read.
    pub cpu: CpuTimes,
}

impl Mark {
    /// Reads the counters now; `start` is the phase start.
    pub fn now(start: Instant) -> Mark {
        Mark {
            at: start.elapsed(),
            cpu: CpuTimes::now(),
        }
    }
}

/// How late, as a share of a window, a boundary mark may be taken.
const MARK_SLACK: f64 = 0.1;

/// The steal share of each `width`-second window, from marks meant to
/// be taken at the window boundaries (mark `i` at `i * width`). A window
/// whose first or last mark came more than [`MARK_SLACK`] of a window
/// after its boundary reads [`UNKNOWN_STEAL`]: the generator was stalled
/// then, and after a stall the overdue marks are taken back to back, so
/// the windows between them see no ticks and would otherwise read calm.
pub fn window_steal(marks: &[Mark], width: f64) -> Vec<f64> {
    let on_time = |i: usize| marks[i].at.as_secs_f64() <= (i as f64 + MARK_SLACK) * width;
    (1..marks.len())
        .map(|i| {
            if on_time(i - 1) && on_time(i) {
                marks[i - 1].cpu.steal_share(marks[i].cpu)
            } else {
                UNKNOWN_STEAL
            }
        })
        .collect()
}

/// The times of a run's set-ups, each with the host's steal share
/// during it. A run spreads its set-ups over its length, so that a
/// burst of steal, which lasts seconds to minutes, reaches only some.
#[derive(Debug, Default)]
pub struct SetUps {
    times: Vec<f64>,
    steal: Vec<f64>,
}

impl SetUps {
    /// Runs `f` as one set-up and records its time and steal share.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let cpu = CpuTimes::now();
        let started = Instant::now();
        let result = f();
        self.times.push(started.elapsed().as_secs_f64());
        self.steal.push(cpu.steal_share(CpuTimes::now()));
        result
    }

    /// How many set-ups were timed.
    pub fn count(&self) -> usize {
        self.times.len()
    }

    /// `setup_s`: the median time of the calmer half of the set-ups.
    pub fn calm_median(&self) -> f64 {
        crate::stats::calm_median(&self.times, &self.steal)
    }

    /// One report line: each set-up's time with its steal share.
    pub fn render(&self) -> String {
        let each: Vec<String> = self
            .times
            .iter()
            .zip(&self.steal)
            .map(|(s, steal)| format!("{s:.4} ({steal:.2})"))
            .collect();
        format!("set-ups in s (host steal share): {}", each.join(", "))
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
///
/// # Errors
///
/// An unreadable file or one without a VmHWM line.
pub fn peak_rss_mib(status_path: &str) -> io::Result<f64> {
    let status = fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib * 1024.0 / MIB)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

/// The first line a command prints, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was measured.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    json::obj(vec![
        ("workload", json::s(workload)),
        ("seed", Json::Uint(seed)),
        ("seconds", Json::Uint(seconds)),
        ("trace", Json::Bool(trace)),
        ("logical_cpus", Json::Uint(cpus)),
        ("rustc", json::s(command_line("rustc", &["--version"]))),
        (
            "profile",
            json::s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_rev", json::s(git_rev())),
    ])
}

/// The commit checked out in the working directory, or `"unknown"` when
/// it is not the top of a git work tree (benchmark checkouts are often
/// plain file trees, possibly inside some other repository).
fn git_rev() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = std::path::Path::new(&top).canonicalize().ok();
    if top.is_some() && top == here {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_all_cpu_time() {
        let before = CpuTimes::parse("cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            before,
            CpuTimes {
                steal: 40,
                total: 1000
            }
        );
        let after = CpuTimes::parse("cpu  150 0 70 900 10 0 0 70 0 0\n").unwrap();
        assert!((before.steal_share(after) - 30.0 / 200.0).abs() < 1e-12);
        assert_eq!(
            before.steal_share(before),
            UNKNOWN_STEAL,
            "no ticks, no evidence of calm"
        );
        assert_eq!(CpuTimes::parse("intr 5\n"), None);
    }

    /// Marks every 0.1 s with 20 ticks per window and 1 of them stolen.
    fn steady(count: u64) -> Vec<Mark> {
        (0..count)
            .map(|i| Mark {
                at: Duration::from_millis(100 * i + 1),
                cpu: CpuTimes {
                    steal: i,
                    total: 20 * i,
                },
            })
            .collect()
    }

    #[test]
    fn a_stall_makes_no_calm_windows() {
        let shares = window_steal(&steady(4), 0.1);
        assert_eq!(shares, vec![0.05; 3]);
        // The generator stalls from 0.15 s to 0.404 s: the marks due at
        // 0.2, 0.3 and 0.4 s are all taken at 0.404 s, where the
        // counters have moved on by 27 ticks, 9 of them stolen.
        let mut marks = steady(2);
        let stalled = CpuTimes {
            steal: 1 + 9,
            total: 20 + 27,
        };
        for _ in 0..3 {
            marks.push(Mark {
                at: Duration::from_millis(404),
                cpu: stalled,
            });
        }
        marks.push(Mark {
            at: Duration::from_millis(501),
            cpu: CpuTimes {
                steal: stalled.steal,
                total: stalled.total + 16,
            },
        });
        let shares = window_steal(&marks, 0.1);
        assert_eq!(shares[0], 0.05, "the window before the stall");
        assert_eq!(
            &shares[1..4],
            &[UNKNOWN_STEAL; 3],
            "the stalled window and the catch-up windows with no ticks"
        );
        assert_eq!(shares[4], 0.0, "back on time after the stall");
        let mut late = steady(4);
        late[2].at = Duration::from_millis(215);
        assert_eq!(
            window_steal(&late, 0.1),
            vec![0.05, UNKNOWN_STEAL, UNKNOWN_STEAL],
            "a mark 15 ms late leaves both its windows unmeasured"
        );
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mib("/proc/self/status").unwrap() > 0.0);
    }
}
