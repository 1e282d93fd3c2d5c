//! Refs/sec throughput baseline for the simulation engine's hot paths.
//!
//! Times each kernel over the same VCCOM trace (the one-pass engine also
//! over one storage and one network trace) and reports the best of
//! several repeats, so the numbers are comparable across commits:
//!
//! * `generation` — synthesizing the trace itself;
//! * `stack_analysis` — one-pass LRU stack distances ([`StackAnalyzer`]);
//! * `assoc_analysis` — one-pass per-set stack distances ([`AssocAnalyzer`]);
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
//!   replacement (`refs` counts both passes).
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
//! `EXPERIMENTS.md`.

use smith85_cachesim::{
    AssocAnalyzer, CacheConfig, GridSpec, OnePassEngine, OnePassGrid, Simulator, StackAnalyzer,
    UnifiedCache, WritePolicy,
};
use smith85_core::experiments::resolve_named_workload;
use smith85_synth::catalog;
use smith85_trace::MemoryAccess;
use std::time::Instant;

/// The workload every kernel is timed on.
const TRACE: &str = "VCCOM";
/// The one-pass kernels and the workload each sweeps: one per family.
const ONE_PASS_KERNELS: [(&str, &str); 3] = [
    ("one_pass_sweep", TRACE),
    ("one_pass_sweep_storage", "S-OLTP"),
    ("one_pass_sweep_network", "N-GATEWAY"),
];
/// Timed repeats per kernel; the best (least interfered-with) one counts.
const REPEATS: usize = 3;

struct KernelResult {
    name: &'static str,
    refs: usize,
    best_secs: f64,
    refs_per_sec: f64,
    grid: Option<GridInfo>,
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

fn time_best<F: FnMut()>(mut f: F) -> f64 {
    (0..REPEATS)
        .map(|_| time_once(&mut f))
        .fold(f64::INFINITY, f64::min)
}

fn kernel(name: &'static str, refs: usize, f: impl FnMut()) -> KernelResult {
    let best_secs = time_best(f);
    KernelResult {
        name,
        refs,
        best_secs,
        refs_per_sec: refs as f64 / best_secs.max(1e-12),
        grid: None,
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
    results.push(kernel("stack_analysis", len, || {
        let mut a = StackAnalyzer::with_line_size_and_capacity(
            smith85_trace::PAPER_LINE_SIZE,
            len,
        );
        a.observe_slice(replay);
        let p = a.finish();
        assert!(p.miss_ratio(1024) > 0.0);
    }));
    results.push(kernel("assoc_analysis", len, || {
        let mut a =
            AssocAnalyzer::with_line_size_and_capacity(64, smith85_trace::PAPER_LINE_SIZE, len);
        a.observe_slice(replay);
        let p = a.finish();
        assert!(p.cache_bytes(1) > 0);
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
    let mut s = String::new();
    s.push_str("{\n");
    // v5 renames phase_share's `fenwick` to `single_set`: the single-set
    // level is no longer a Fenwick tree. Every other v4 field is kept.
    s.push_str("  \"schema\": \"smith85-throughput-v5\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"journaled\": {journaled},\n"));
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
                g.trace_refs as f64 / r.best_secs.max(1e-12),
                p.base,
                p.walk,
                p.single_set,
                p.dirty,
            )
        });
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"refs\": {}, \"best_secs\": {:.6}, \"refs_per_sec\": {:.0}{}}}{}\n",
            r.name,
            r.refs,
            r.best_secs,
            r.refs_per_sec,
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
            "{:<22} {:>9} refs  {:>9.1} ms  {:>12.0} refs/sec",
            r.name,
            r.refs,
            r.best_secs * 1e3,
            r.refs_per_sec
        );
    }
    let json = render_json(&mode, len, journal.is_some(), &results);
    std::fs::write(&out_path, &json).expect("write benchmark result file");
    println!("wrote {out_path}");
}
