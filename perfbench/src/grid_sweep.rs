//! `grid-sweep`: a closed loop with one in-process caller. Each request
//! is a paper-grid sweep (`GridSpec::paper_grid()`, 54 cells) of 250,000
//! references through `SimSession::sweep_grid_workload` on one session.
//! Every (profile, seed) is new, so every sweep misses the trace pool
//! and the result memo: the workload exercises trace generation (the
//! pool's write path) and the one-pass engine, and bypasses `serve` and
//! `store`.
//!
//! Sweeps run in batches of one sweep per profile of a fixed mix. After
//! each batch the clock stops, one seed-chosen cell of every sweep is
//! checked against a per-config `UnifiedCache` run over an independently
//! regenerated trace, and the pool is cleared so memory stays bounded
//! by one batch whatever the engine's speed.

use crate::host::{self, CpuTimes, SetUps};
use crate::spans::Recorder;
use crate::stats::{self, Dist, CALM_SHARE, CALM_STEAL, MAX_STRETCH};
use crate::{mix, shuffle, Args, Outcome};
use smith85_cachesim::{
    CacheConfig, GridCell, GridSpec, Mapping, OnePassGrid, Simulator, UnifiedCache,
};
use smith85_core::experiments::{resolve_named_workload, Workload};
use smith85_core::SimSession;
use std::time::{Duration, Instant};

/// References per sweep.
const SWEEP_LEN: usize = 250_000;

/// The fixed profile mix, across the three families: engine cost per
/// reference depends on footprint and locality, and the storage
/// profiles sweep slowest and the network profiles fastest (compare
/// `one_pass.refs_per_s.*` in a traced run).
const PROFILES: [&str; 12] = [
    "VCCOM",
    "MVS1",
    "FGO1",
    "ZGREP",
    "LISPCOMP",
    "CGO1",
    "S-OLTP",
    "S-KVSTORE",
    "S-SCAN",
    "N-LAN",
    "N-GATEWAY",
    "N-WAN",
];

/// Set-ups per untraced run: one builds the measured session, the others
/// run after each of the timed phase's first batches. `setup_s` is the
/// median of the calmer half of them by host steal. A set-up takes about
/// 0.1 s and varies by a tenth even without steal, so there are many.
const SETUPS: usize = 17;

/// An untraced phase runs at least this many batches, so that the
/// calmest half of them hold 100 sweeps and their p90 has ten samples
/// beyond it however slow the engine gets.
const MIN_BATCHES: usize = 18;

struct Sweep {
    id: u64,
    workload: Workload,
}

/// Batch `batch` of the run: every profile once, in a seed-shuffled
/// order, each with a generator seed of its own.
fn batch(seed: u64, batch: u64) -> Vec<Sweep> {
    let mut order: Vec<usize> = (0..PROFILES.len()).collect();
    shuffle(&mut order, seed, batch);
    order
        .into_iter()
        .map(|slot| {
            let id = batch * PROFILES.len() as u64 + slot as u64;
            Sweep {
                id,
                workload: resolve_named_workload(PROFILES[slot], Some(mix(seed, 1, id)))
                    .expect("the mix names catalog profiles"),
            }
        })
        .collect()
}

/// One batch: its timed wall, the host's steal share meanwhile, and
/// each sweep's latency.
struct Batch {
    wall: Duration,
    steal: f64,
    latencies_ms: Vec<f64>,
}

impl Batch {
    fn refs_per_s(&self) -> f64 {
        (self.latencies_ms.len() * SWEEP_LEN) as f64 / self.wall.as_secs_f64()
    }
}

/// What one timed phase did.
#[derive(Default)]
struct Phase {
    batches: Vec<Batch>,
    /// How many of the calmest batches the figures come from.
    keep: usize,
    sweeps: u64,
    failed: u64,
}

impl Phase {
    fn wall(&self) -> Duration {
        self.batches.iter().map(|b| b.wall).sum()
    }

    /// References per second over the whole phase.
    fn refs_per_s(&self) -> f64 {
        (self.sweeps * SWEEP_LEN as u64) as f64 / self.wall().as_secs_f64()
    }
}

/// The per-config cache for one grid cell (the reference the one-pass
/// engine must match bit for bit).
fn cell_config(spec: &GridSpec, cell: &GridCell) -> CacheConfig {
    let lines = cell.size_bytes / spec.line_size;
    let mapping = match cell.ways {
        1 => Mapping::Direct,
        ways if ways == lines => Mapping::FullyAssociative,
        ways => Mapping::SetAssociative(ways),
    };
    CacheConfig::builder(cell.size_bytes)
        .line_size(spec.line_size)
        .mapping(mapping)
        .write_policy(spec.write_policy)
        .build()
        .expect("grid cells are valid cache shapes")
}

/// Whether a seed-chosen cell of `grid` matches a per-config run over a
/// freshly generated copy of the sweep's trace.
fn cell_matches(seed: u64, sweep: &Sweep, spec: &GridSpec, grid: &OnePassGrid) -> bool {
    let cells = grid.cells();
    if cells.is_empty() {
        return false;
    }
    let pick = (mix(seed, 2, sweep.id) % cells.len() as u64) as usize;
    let mut cache = UnifiedCache::new(cell_config(spec, &cells[pick])).expect("valid cell config");
    cache.run(sweep.workload.stream().take(SWEEP_LEN));
    *cache.stats() == grid.stats()[pick]
}

/// One set-up: a fresh session and one warm-up sweep.
fn set_up(seed: u64, round: u64) -> Result<SimSession, String> {
    let session = SimSession::builder()
        .build()
        .map_err(|e| format!("session: {e}"))?;
    let warm = resolve_named_workload("VCCOM", Some(mix(seed, 3, round)))
        .expect("VCCOM is a catalog profile");
    session
        .sweep_grid_workload(&warm, SWEEP_LEN, &GridSpec::paper_grid())
        .map_err(|e| format!("warm-up sweep: {e}"))?;
    Ok(session)
}

/// Runs batches until `seconds` of timed sweeping have passed and at
/// least `min_batches` batches are done, the nominal length. The figures
/// come from the calmer half of the nominal batches; while those saw
/// more than `CALM_STEAL` steal, the phase goes on, up to `MAX_STRETCH`
/// times its nominal length. With a recorder, each sweep is split into
/// `TracePool::workload` and `SimSession::sweep_grid` spans instead of
/// one `sweep_grid_workload`. `between` runs, with the clock stopped,
/// after each batch, given the number of batches done.
fn run_phase(
    session: &SimSession,
    seed: u64,
    first_batch: u64,
    (seconds, min_batches): (Duration, usize),
    mut recorder: Option<&mut Recorder>,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<Phase, String> {
    let spec = GridSpec::paper_grid();
    let mut phase = Phase::default();
    let mut index = first_batch;
    let mut nominal = None;
    loop {
        if phase.wall() >= seconds && phase.batches.len() >= min_batches {
            let nominal = *nominal.get_or_insert(phase.batches.len());
            phase.keep = stats::calm_count(nominal, CALM_SHARE);
            let steal: Vec<f64> = phase.batches.iter().map(|b| b.steal).collect();
            let calm = stats::kept_steal(&steal, &stats::calmest(&steal, phase.keep));
            if calm <= CALM_STEAL || phase.batches.len() >= nominal * MAX_STRETCH {
                break;
            }
        }
        let sweeps = batch(seed, index);
        index += 1;
        let mut grids = Vec::with_capacity(sweeps.len());
        let mut latencies_ms = Vec::with_capacity(sweeps.len());
        let cpu_before = CpuTimes::now();
        let started = Instant::now();
        for sweep in &sweeps {
            let call = Instant::now();
            let grid = match recorder.as_deref_mut() {
                None => session.sweep_grid_workload(&sweep.workload, SWEEP_LEN, &spec),
                Some(recorder) => recorder.time("sweep", sweep.id, |r| {
                    let trace = r.time("trace_pool.workload", sweep.id, |_| {
                        session.pool().workload(&sweep.workload, SWEEP_LEN)
                    });
                    r.time("one_pass.sweep_grid", sweep.id, |_| {
                        session.sweep_grid(&trace.as_slice()[..SWEEP_LEN], &spec)
                    })
                }),
            };
            latencies_ms.push(call.elapsed().as_secs_f64() * 1e3);
            grids.push(grid);
        }
        phase.batches.push(Batch {
            wall: started.elapsed(),
            steal: cpu_before.steal_share(CpuTimes::now()),
            latencies_ms,
        });
        for (sweep, grid) in sweeps.iter().zip(&grids) {
            phase.sweeps += 1;
            let ok = grid
                .as_ref()
                .is_ok_and(|grid| cell_matches(seed, sweep, &spec, grid));
            if !ok {
                phase.failed += 1;
            }
        }
        session.pool().clear();
        between(phase.batches.len())?;
    }
    Ok(phase)
}

/// Runs the workload.
///
/// # Errors
///
/// An invalid session configuration or a failed warm-up.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = SetUps::default();
    let session = setups.time(|| set_up(args.seed, 0))?;
    session.pool().clear();
    let mut out = Outcome::default();
    let seconds = Duration::from_secs(args.seconds);
    if !args.trace {
        let mut spare_set_up = |_| {
            if setups.count() < SETUPS {
                let round = setups.count() as u64;
                setups.time(|| set_up(args.seed, round))?;
            }
            Ok(())
        };
        let timed = (seconds, MIN_BATCHES);
        let phase = run_phase(&session, args.seed, 0, timed, None, &mut spare_set_up)?;
        report_end_to_end(&mut out, &phase, &setups)?;
        return Ok(out);
    }
    // Traced run: an untraced half, then a traced half on new sweeps.
    let half = seconds / 2;
    let mut nothing = |_| Ok(());
    let plain = run_phase(&session, args.seed, 0, (half, 1), None, &mut nothing)?;
    let before = session.registry().snapshot();
    let mut recorder = Recorder::new();
    let traced = run_phase(
        &session,
        args.seed,
        1 << 20,
        (half, 1),
        Some(&mut recorder),
        &mut nothing,
    )?;
    let after = session.registry().snapshot();
    out.attempted = plain.sweeps + traced.sweeps;
    out.failed = plain.failed + traced.failed;

    let ms = |name: &str| {
        let mut d = recorder.durations_us(name);
        d.iter_mut().for_each(|us| *us /= 1e3);
        d
    };
    let materialize = Dist::of(&ms("trace_pool.workload")).ok_or("no pool spans")?;
    let engine = Dist::of(&ms("one_pass.sweep_grid")).ok_or("no engine spans")?;
    out.set("trace_pool.materialize_ms", materialize.p50);
    out.set(
        "trace_pool.materialized_mb",
        stats::counter_delta(&before, &after, "pool_materialized_bytes_total") as f64 / host::MIB,
    );
    let hits = stats::counter_delta(&before, &after, "pool_hits_total");
    let misses = stats::counter_delta(&before, &after, "pool_misses_total");
    // Every (profile, seed) is new, so every lookup must miss.
    out.require_ratio("trace_pool.hit_ratio", hits, hits + misses, 0.0);
    out.set("one_pass.sweep_ms", engine.p50);
    let wall_us = traced.wall().as_secs_f64() * 1e6;
    let engine_us = recorder.total_us("one_pass.sweep_grid");
    out.set("one_pass.share", engine_us / wall_us);
    let families: Vec<&str> = PROFILES
        .iter()
        .map(|name| {
            resolve_named_workload(name, None)
                .expect("the mix names catalog profiles")
                .family_name()
        })
        .collect();
    for (family, metric) in [
        ("cpu", "one_pass.refs_per_s.cpu"),
        ("storage", "one_pass.refs_per_s.storage"),
        ("network", "one_pass.refs_per_s.network"),
    ] {
        let mut refs = 0u64;
        let mut us = 0.0;
        for span in recorder
            .spans()
            .iter()
            .filter(|s| s.name == "one_pass.sweep_grid")
        {
            // Sweep ids are `batch * PROFILES.len() + slot`.
            if families[span.request as usize % PROFILES.len()] == family {
                refs += SWEEP_LEN as u64;
                us += span.us();
            }
        }
        out.set(metric, refs as f64 / (us / 1e6));
    }
    let covered = recorder.total_us("trace_pool.workload") + engine_us;
    let steal: Vec<f64> = traced.batches.iter().map(|b| b.steal).collect();
    out.set("host.steal_share", stats::mean(&steal));
    out.set(
        "trace.overhead_pct",
        (plain.refs_per_s() - traced.refs_per_s()) / plain.refs_per_s() * 100.0,
    );
    out.note(format!(
        "traced: {} sweeps over {:.2} s; trace_pool.workload {}; one_pass.sweep_grid {}",
        traced.sweeps,
        traced.wall().as_secs_f64(),
        materialize.render("ms"),
        engine.render("ms"),
    ));
    let uncovered: Vec<f64> = (0..recorder.spans().len())
        .filter(|&i| recorder.spans()[i].name == "sweep")
        .map(|i| recorder.self_us(i))
        .collect();
    out.note(format!(
        "pool and engine spans cover {:.1}% of the timed wall (sweep self time p50 {:.1} us); \
         pool {hits} hits / {misses} misses",
        covered / wall_us * 100.0,
        stats::median(&uncovered)
    ));
    out.note(format!(
        "refs/s untraced {:.0} vs traced {:.0}",
        plain.refs_per_s(),
        traced.refs_per_s()
    ));
    let path = args
        .workdir
        .join(format!("spans-grid-sweep-{}.ndjson", args.seed));
    recorder
        .write_ndjson(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    Ok(out)
}

/// End-to-end metrics from the calmest batches (by host steal), so a
/// burst of stolen CPU moves a few batches, not the result.
fn report_end_to_end(out: &mut Outcome, phase: &Phase, setups: &SetUps) -> Result<(), String> {
    let steal: Vec<f64> = phase.batches.iter().map(|b| b.steal).collect();
    let keep = stats::calmest(&steal, phase.keep);
    let kept: Vec<&Batch> = keep.iter().map(|&i| &phase.batches[i]).collect();
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|b| b.latencies_ms.iter().copied())
        .collect();
    let latency = Dist::of(&latencies).ok_or("no sweeps ran")?;
    let rates: Vec<f64> = kept.iter().map(|b| b.refs_per_s()).collect();
    let sweeps_per_s: Vec<f64> = kept
        .iter()
        .map(|b| b.latencies_ms.len() as f64 / b.wall.as_secs_f64())
        .collect();
    out.attempted = phase.sweeps;
    out.failed = phase.failed;
    out.set("setup_s", setups.calm_median());
    out.set("refs_per_s", stats::median(&rates));
    out.set("p50_ms", latency.p50);
    out.set("p90_ms", latency.p90.ok_or("too few sweeps for a p90")?);
    out.set("capacity_rps", stats::median(&sweeps_per_s));
    out.set(
        "peak_rss_mb",
        host::peak_rss_mib("/proc/self/status").map_err(|e| e.to_string())?,
    );

    out.note(format!(
        "{} sweeps of {SWEEP_LEN} refs in {} batches, {:.2} s timed, {:.0} refs/s overall, \
         host steal share {:.4}",
        phase.sweeps,
        phase.batches.len(),
        phase.wall().as_secs_f64(),
        phase.refs_per_s(),
        stats::mean(&steal),
    ));
    out.note(format!(
        "calmest {} batches (steal {:.4}): sweep latency {}",
        kept.len(),
        stats::kept_steal(&steal, &keep),
        latency.render("ms")
    ));
    out.note(setups.render());
    Ok(())
}
