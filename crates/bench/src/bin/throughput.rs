//! Refs/sec throughput baseline for the simulation engine's hot paths.
//!
//! Times each kernel over the same VCCOM trace (the one-pass engine also
//! over one storage and one network trace; `resolve_workload` over the
//! catalog's names) five times and reports the median with the fastest
//! and slowest repeat, so the numbers are comparable across commits and
//! carry their spread:
//!
//! * `generation` — synthesizing the trace itself;
//! * `size_sweep` — the fully-associative LRU miss ratio at the paper's
//!   twelve sizes, from one pass of the one-pass engine
//!   ([`GridSpec::fully_associative`]); its `refs` are trace references;
//! * `set_assoc_sim` — an 8-way 16 KiB cache driven by the slice path;
//! * `unified_sim` — the fully associative paper cache, purges on;
//! * `session_unified` — the same cache through the instrumented
//!   [`SimSession`](smith85_core::session::SimSession) entry point
//!   (metrics and, with `--journal`, tracing);
//! * `one_pass_sweep` — the one-pass multi-configuration engine over the
//!   paper's full size × associativity grid. Its `refs` are *effective*
//!   references (trace length × grid cells: one traversal replaces that
//!   many per-config simulation steps); the honest per-pass numbers ride
//!   along as `trace_refs` / `trace_refs_per_sec`;
//! * `one_pass_sweep_storage` / `one_pass_sweep_network` — the same grid
//!   over S-OLTP and N-GATEWAY. The engine's cost per reference depends
//!   on footprint and locality, so one CPU trace would misstate it.
//!   Every one-pass kernel carries its `workload` and a `phase_share`
//!   split of its time from ablation runs (see [`PhaseSplit`]);
//! * `fifo_random_policy` — the replacement-policy matrix's non-LRU hot
//!   path: the same 8-way cache under FIFO and then seeded-random
//!   replacement (`refs` counts both passes);
//! * `resolve_workload` — naming a workload, the first step of every
//!   served `simulate` and `sweep`: [`resolve_named_workload`] over every
//!   name [`workload_names`] lists (CPU traces, Table 3 mixes, family
//!   profiles), each with a seed override. Its `refs` count lookups, not
//!   trace references.
//!
//! ```text
//! cargo run --release -p smith85-bench --bin throughput -- [quick|paper] [OUT.json]
//!     [--journal PATH]
//! ```
//!
//! `--journal PATH` attaches an NDJSON trace journal to the session
//! kernel, so comparing `session_unified` with and without the flag
//! bounds the journaling overhead. The non-session kernels never touch
//! the tracing layer, so for them the cost is zero by construction.
//!
//! Results land in `OUT.json` (default `BENCH_sim.json`), documented in
//! `EXPERIMENTS.md`, with the host and build they were measured on:
//! logical CPUs, the `rustc` version, the build profile and the git
//! revision.

use smith85_cachesim::{
    CacheConfig, GridSpec, OnePassEngine, OnePassGrid, Simulator, UnifiedCache, WritePolicy,
    PAPER_SIZES,
};
use smith85_core::experiments::{resolve_named_workload, workload_names};
use smith85_synth::catalog;
use smith85_trace::MemoryAccess;
use smith85_tracelog::json;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// The workload every kernel is timed on.
const TRACE: &str = "VCCOM";
/// The one-pass kernels and the workload each sweeps: one per family.
const ONE_PASS_KERNELS: [(&str, &str); 3] = [
    ("one_pass_sweep", TRACE),
    ("one_pass_sweep_storage", "S-OLTP"),
    ("one_pass_sweep_network", "N-GATEWAY"),
];
/// Timed repeats per kernel; the median one counts.
const REPEATS: usize = 5;

struct KernelResult {
    name: &'static str,
    refs: usize,
    /// Every repeat's time, fastest first.
    secs: Vec<f64>,
    grid: Option<GridInfo>,
}

impl KernelResult {
    fn median_secs(&self) -> f64 {
        self.secs[self.secs.len() / 2]
    }

    fn min_secs(&self) -> f64 {
        self.secs[0]
    }

    fn max_secs(&self) -> f64 {
        self.secs[self.secs.len() - 1]
    }

    /// `count` items per median repeat.
    fn per_sec(&self, count: usize) -> f64 {
        count as f64 / self.median_secs().max(1e-12)
    }
}

/// Grid dimensions for a one-pass kernel, plus the raw
/// single-traversal numbers behind its effective-refs figure.
struct GridInfo {
    workload: &'static str,
    sizes: usize,
    ways: usize,
    cells: usize,
    trace_refs: usize,
    phases: PhaseSplit,
}

/// Rounds of interleaved ablation timings behind a [`PhaseSplit`].
const ABLATION_ROUNDS: usize = 7;

/// The one-pass engine's time split by phase, as shares of the full
/// paper-grid sweep. Each share comes from an ablation run of the same
/// trace through a grid that drops that phase's work and keeps the
/// rest:
///
/// * `dirty` — the full grid under write-through with allocate: the
///   same recency work without the dirty bitset;
/// * `single_set` — only the sizes with at least two sets at 8 ways, no
///   fully-associative points: the same twelve set-associative levels
///   without the single-set (fully-associative) level;
/// * `base` — one direct-mapped 32-byte cell: interning, cold inserts
///   and per-reference bookkeeping over a one-way walk;
/// * `walk` — the rest: the set-associative level walk.
///
/// Every round times the full grid and the three ablations back to back,
/// and each ratio to the full grid is the median over the rounds, so
/// host drift between rounds cancels. The ablations overlap a little
/// (each keeps the others' phases), so the shares are estimates, not an
/// exact partition.
struct PhaseSplit {
    base: f64,
    walk: f64,
    single_set: f64,
    dirty: f64,
}

impl PhaseSplit {
    fn measure(replay: &[MemoryAccess]) -> PhaseSplit {
        let full = GridSpec::paper_grid();
        let no_dirty = GridSpec {
            write_policy: WritePolicy::WriteThrough { allocate: true },
            ..full.clone()
        };
        let max_ways = full.ways.iter().copied().max().unwrap_or(1);
        let no_single_set = GridSpec {
            sizes: full
                .sizes
                .iter()
                .copied()
                .filter(|&size| size / (full.line_size * max_ways) >= 2)
                .collect(),
            include_fully_associative: false,
            ..full.clone()
        };
        let base = GridSpec::new(vec![32], vec![1]);
        let ablations = [no_dirty, no_single_set, base];
        let mut ratios: [Vec<f64>; 3] = Default::default();
        for _ in 0..ABLATION_ROUNDS {
            let full_secs = time_once(|| {
                sweep(&full, replay);
            });
            for (spec, ratio) in ablations.iter().zip(&mut ratios) {
                let secs = time_once(|| {
                    sweep(spec, replay);
                });
                ratio.push(secs / full_secs.max(1e-12));
            }
        }
        let [no_dirty, no_single_set, base] = ratios.map(|mut r| {
            r.sort_by(f64::total_cmp);
            r[r.len() / 2]
        });
        let dirty = 1.0 - no_dirty;
        let single_set = 1.0 - no_single_set;
        PhaseSplit {
            base,
            walk: 1.0 - base - single_set - dirty,
            single_set,
            dirty,
        }
    }
}

/// One traversal of `replay` through a fresh engine for `spec`.
fn sweep(spec: &GridSpec, replay: &[MemoryAccess]) -> OnePassGrid {
    let mut engine = OnePassEngine::new(spec).expect("valid grid");
    engine.observe_slice(replay);
    engine.finish()
}

/// The paper grid over `replay`, with its ablation phase split.
fn one_pass_kernel(
    name: &'static str,
    workload: &'static str,
    replay: &[MemoryAccess],
) -> KernelResult {
    let spec = GridSpec::paper_grid();
    let cells = OnePassEngine::new(&spec)
        .expect("paper grid is inside the one-pass envelope")
        .cells()
        .len();
    // One traversal produces every cell, so the comparable refs/sec
    // figure is trace length x cells — what the per-config path would
    // have to touch for the same answer.
    let mut result = kernel(name, replay.len() * cells, || {
        let grid = sweep(&spec, replay);
        assert!(grid.miss_ratio(1024, 1).expect("cell in the grid") > 0.0);
    });
    result.grid = Some(GridInfo {
        workload,
        sizes: spec.sizes.len(),
        ways: spec.ways.len(),
        cells,
        trace_refs: replay.len(),
        phases: PhaseSplit::measure(replay),
    });
    result
}

fn time_once(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn kernel(name: &'static str, refs: usize, mut f: impl FnMut()) -> KernelResult {
    let mut secs: Vec<f64> = (0..REPEATS).map(|_| time_once(&mut f)).collect();
    secs.sort_by(f64::total_cmp);
    KernelResult {
        name,
        refs,
        secs,
        grid: None,
    }
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

/// The commit checked out in the working directory, or `"unknown"` when
/// the directory is not the top of a git work tree.
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

fn run_kernels(len: usize, journal: Option<&str>) -> Vec<KernelResult> {
    let spec = catalog::by_name(TRACE).expect("VCCOM is in the catalog");
    let profile = spec.profile().clone();
    let trace = profile.generate(len);
    let replay: &[MemoryAccess] = &trace.as_slice()[..len];

    let mut results = Vec::new();
    results.push(kernel("generation", len, || {
        let t = profile.generate(len);
        assert_eq!(t.len(), len);
    }));
    let sizes = GridSpec::fully_associative(PAPER_SIZES.to_vec(), smith85_trace::PAPER_LINE_SIZE);
    results.push(kernel("size_sweep", len, || {
        let grid = sweep(&sizes, replay);
        assert!(grid.fully_associative(1024).expect("swept size").miss_ratio() > 0.0);
    }));
    results.push(kernel("set_assoc_sim", len, || {
        let cfg = CacheConfig::builder(16 * 1024)
            .mapping(smith85_cachesim::Mapping::SetAssociative(8))
            .build()
            .expect("valid configuration");
        let mut c = smith85_cachesim::Cache::new(cfg).expect("valid config");
        c.run(replay);
        assert_eq!(c.stats().total_refs(), len as u64);
    }));
    results.push(kernel("fifo_random_policy", 2 * len, || {
        for policy in [
            smith85_cachesim::Replacement::Fifo,
            smith85_cachesim::Replacement::Random { seed: 85 },
        ] {
            let cfg = CacheConfig::builder(16 * 1024)
                .mapping(smith85_cachesim::Mapping::SetAssociative(8))
                .replacement(policy)
                .build()
                .expect("valid configuration");
            let mut c = smith85_cachesim::Cache::new(cfg).expect("valid config");
            c.run(replay);
            assert_eq!(c.stats().total_refs(), len as u64);
        }
    }));
    // Every name once per 1,000 trace references: 250 rounds of 63
    // lookups in paper mode.
    let names = workload_names();
    let rounds = len / 1_000;
    results.push(kernel("resolve_workload", names.len() * rounds, || {
        for round in 0..rounds {
            for name in &names {
                let workload = resolve_named_workload(black_box(name), Some(round as u64))
                    .expect("every listed name resolves");
                black_box(workload);
            }
        }
    }));
    results.push(kernel("unified_sim", len, || {
        let cfg = CacheConfig::builder(16 * 1024)
            .purge_interval(Some(smith85_trace::PAPER_PURGE_INTERVAL))
            .build()
            .expect("valid configuration");
        let mut c = UnifiedCache::new(cfg).expect("valid config");
        c.run_slice(replay);
        assert_eq!(c.stats().total_refs(), len as u64);
    }));

    for (name, workload) in ONE_PASS_KERNELS {
        let trace: Vec<MemoryAccess> = if workload == TRACE {
            replay.to_vec()
        } else {
            resolve_named_workload(workload, None)
                .expect("the one-pass workloads are catalog profiles")
                .stream()
                .take(len)
                .collect()
        };
        results.push(one_pass_kernel(name, workload, &trace));
    }

    let mut builder = smith85_core::session::SimSession::builder();
    if let Some(path) = journal {
        let writer = smith85_tracelog::NdjsonWriter::create(path).expect("create journal file");
        builder = builder.journal(smith85_tracelog::SinkHandle::new(std::sync::Arc::new(writer)));
    }
    let session = builder.build().expect("default session configuration");
    results.push(kernel("session_unified", len, || {
        let cfg = CacheConfig::builder(16 * 1024)
            .purge_interval(Some(smith85_trace::PAPER_PURGE_INTERVAL))
            .build()
            .expect("valid configuration");
        let stats = session.simulate_unified(replay, cfg).expect("valid config");
        assert_eq!(stats.total_refs(), len as u64);
    }));
    results
}

fn render_json(mode: &str, len: usize, journaled: bool, results: &[KernelResult]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut s = String::new();
    s.push_str("{\n");
    // v7 times every kernel `repeats` times and adds each kernel's
    // `median_secs`, `min_secs` and `max_secs`; `refs_per_sec` and
    // `trace_refs_per_sec` come from the median (in v6 they came from
    // the best of three), and `best_secs` equals `min_secs`. It also
    // records the host and build: `logical_cpus`, `rustc`, `profile`
    // and `git_rev`. Every v6 field is kept.
    s.push_str("  \"schema\": \"smith85-throughput-v7\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"journaled\": {journaled},\n"));
    s.push_str(&format!("  \"logical_cpus\": {cpus},\n"));
    s.push_str(&format!(
        "  \"rustc\": {},\n",
        json::s(command_line("rustc", &["--version"]))
    ));
    s.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    s.push_str(&format!("  \"git_rev\": {},\n", json::s(git_rev())));
    s.push_str(&format!("  \"trace\": \"{TRACE}\",\n"));
    s.push_str(&format!("  \"trace_len\": {len},\n"));
    s.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        let grid = r.grid.as_ref().map_or(String::new(), |g| {
            let p = &g.phases;
            format!(
                ", \"workload\": \"{}\", \"grid_sizes\": {}, \"grid_ways\": {}, \
                 \"grid_cells\": {}, \"trace_refs\": {}, \"trace_refs_per_sec\": {:.0}, \
                 \"phase_share\": {{\"base\": {:.3}, \"walk\": {:.3}, \"single_set\": {:.3}, \
                 \"dirty\": {:.3}}}",
                g.workload,
                g.sizes,
                g.ways,
                g.cells,
                g.trace_refs,
                r.per_sec(g.trace_refs),
                p.base,
                p.walk,
                p.single_set,
                p.dirty,
            )
        });
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"refs\": {}, \"best_secs\": {:.6}, \
             \"median_secs\": {:.6}, \"min_secs\": {:.6}, \"max_secs\": {:.6}, \
             \"refs_per_sec\": {:.0}{}}}{}\n",
            r.name,
            r.refs,
            r.min_secs(),
            r.median_secs(),
            r.min_secs(),
            r.max_secs(),
            r.per_sec(r.refs),
            grid,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let mut mode = "paper".to_string();
    let mut out_path = "BENCH_sim.json".to_string();
    let mut journal = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "quick" | "paper" => mode = arg,
            "--journal" => {
                journal = Some(args.next().expect("--journal needs a file path"));
            }
            other => out_path = other.to_string(),
        }
    }
    let len = if mode == "quick" { 50_000 } else { 250_000 };
    let results = run_kernels(len, journal.as_deref());
    for r in &results {
        println!(
            "{:<22} {:>9} refs  {:>9.1} ms ({:.1}-{:.1})  {:>12.0} refs/sec",
            r.name,
            r.refs,
            r.median_secs() * 1e3,
            r.min_secs() * 1e3,
            r.max_secs() * 1e3,
            r.per_sec(r.refs)
        );
    }
    let json = render_json(&mode, len, journal.is_some(), &results);
    std::fs::write(&out_path, &json).expect("write benchmark result file");
    println!("wrote {out_path}");
}
