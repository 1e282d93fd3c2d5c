//! Subcommand implementations.

use crate::{CliError, Opts};
use smith85_cachesim::{
    CacheConfig, FetchPolicy, Mapping, Replacement, StackAnalyzer, WritePolicy, PAPER_SIZES,
};
use smith85_core::experiments::{self};
use smith85_core::runner;
use smith85_core::session::SimSession;
use smith85_core::targets::{design_target, traffic_factor, CacheKind};
use smith85_synth::catalog;
use smith85_trace::{io as trace_io, Trace};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Read as _;

/// Usage text.
pub(crate) fn help() -> String {
    "\
smith85 — trace-driven cache evaluation (Smith, ISCA 1985 reproduction)

USAGE:
  smith85 list
      List the 49-trace CPU workload catalog.
  smith85 catalog [--family cpu|storage|network]
      List every workload profile grouped by family (the 49 CPU traces
      plus the storage-I/O and network destination-address families);
      --family restricts the listing to one family.
  smith85 generate --trace NAME --len N --out FILE [--format text|binary|dinero]
      Generate a synthetic trace and write it to disk.
  smith85 characterize (--trace NAME [--len N] | --file FILE)
      Print the Table 2 characteristics of a workload.
  smith85 simulate (--trace NAME [--len N] | --file FILE) --size BYTES
          [--line BYTES] [--ways N|full]
          [--policy lru|fifo|random[:seed]|plru] (--replacement is a synonym)
          [--write cb|cb-nofetch|wt|wt-noalloc] [--fetch demand|prefetch]
          [--purge N] [--org unified|split]
          [--fault-drop P] [--fault-dup P] [--fault-flip P] [--fault-seed N]
      Run one cache configuration and print its statistics. The --fault-*
      rates deterministically drop/duplicate/bit-flip references before
      simulation (robustness experiments).
  smith85 sweep (--trace NAME [--len N] | --file FILE) [--sizes a,b,c]
          [--ways a,b,c] [--line BYTES] [--policy lru|fifo|random[:seed]|plru]
      Miss ratio at every cache size in one stack-analysis pass.
      --ways runs the one-pass grid engine instead: every requested
      size x associativity cell — miss ratio, traffic ratio and
      dirty-push fraction — from a single trace traversal. A non-LRU
      --policy is outside the one-pass envelope, so those sweeps run
      each configuration individually instead.
  smith85 assoc (--trace NAME [--len N] | --file FILE) [--sets N] [--line BYTES]
      Miss ratio at every associativity for a fixed set count, one pass.
  smith85 target --size BYTES [--kind unified|instruction|data]
      Look up the paper's Table 5 design target and Table 4 traffic factor.
  smith85 custom --ifetch F --read F --branch F --code-kb N --data-kb N
          [--instr-alpha F] [--data-alpha F] [--seq F] [--stack F]
          [--arch vax|ibm370|z8000|cdc6400|m68000] [--len N] [--seed N]
      Build a custom workload profile, characterize it and sweep it.
  smith85 experiment NAME [--quick true] [--len N] [--threads N]
      Run a paper experiment (table1, table2, fig2, table3, fig3_4,
      prefetch, table5, clark, z80000, m68020, traffic_ratio,
      trace_length, multiprocessor, multiprogramming, calibration,
      perturbations, interface, line_size, fudge, conclusions,
      ablations, design_grid, family_conclusions).
  smith85 suite [--out DIR] [--resume true] [--quick true] [--len N]
          [--threads N]
      Run every experiment with checkpointing: each result lands in
      DIR (default suite-results/) as JSON, a manifest.json tracks
      status, and --resume true skips experiments already completed
      under the same configuration. A panicking experiment is recorded
      and the rest of the suite still runs.
  smith85 serve [--addr HOST:PORT] [--unix PATH] [--workers N] [--queue N]
          [--deadline-ms N] [--metrics-addr HOST:PORT] [--journal PATH]
          [--store DIR] [--store-budget BYTES] [--router ADDR,ADDR,...]
          [--probe-ms MS] [--shard-inflight N] [--router-replicas N]
      Run the simulation server (unix only; newline-delimited JSON over
      TCP, plus a Unix socket with --unix). One poll-based event loop
      owns every connection, /metrics scrapes included, so idle ones
      cost nothing. Requests past the queue bound get a typed
      \"overloaded\" rejection. --metrics-addr serves Prometheus text
      exposition at /metrics. --journal appends every request's spans and
      access-log events to an NDJSON trace journal (see `smith85 trace`).
      --store persists traces and results to a crash-safe on-disk store:
      a restarted server answers previously-seen requests bit-identically
      without regenerating anything (corrupt entries are quarantined at
      startup, never served). --store-budget caps the store size with LRU
      eviction. --router turns the node into a shard router: simulate and
      sweep requests consistent-hash across the listed backends, a prober
      (every --probe-ms, default 500) marks dead shards down, each shard
      carries an in-flight budget (--shard-inflight, default 32) answered
      as typed \"overloaded\" when full, and a refused shard fails over to
      the next distinct shard on the hash ring (--router-replicas vnodes
      per shard, default 64). --router cannot be combined with --store.
      Ctrl-C drains in-flight jobs and exits.
  smith85 submit TYPE [--addr HOST:PORT] [--unix PATH] [--json true]
          [--retries N] [--backoff-ms MS] [--trace-id ID] ...
      Send one request to a running server. TYPE is one of:
        simulate --workload NAME --size BYTES [--len N] [--seed N]
                 [--line BYTES] [--ways N|full] [--purge N] [--policy P]
                 [--deadline-ms N]
        sweep    --workload NAME [--len N] [--seed N] [--sizes a,b,c]
                 [--ways a,b,c] [--line BYTES] [--policy P] [--deadline-ms N]
      NAME may be any catalog profile from any family (see `smith85
      catalog`); --policy P is lru (default), fifo, random[:seed] or plru.
        catalog | stats | metrics | ping | shutdown
      --json true prints the raw response line instead of a summary.
      --retries N retries transient failures (typed \"overloaded\"
      rejections and refused connections) with capped exponential backoff
      starting at --backoff-ms (default 100 ms) plus jitter; anything
      else fails immediately. --trace-id tags the request envelope so the
      server (and any backend shard behind a router) journals it under
      the caller's id.
  smith85 cache ACTION --store DIR [--budget BYTES]
      Inspect or maintain a persistent store directory. ACTION is one of:
        stats   print entry/byte counts, hit/miss/write tallies and the
                startup recovery summary
        gc      evict least-recently-used entries until under --budget
        clear   delete all live entries (quarantined evidence is kept)
        verify  re-validate every record; corrupt entries are moved to
                quarantine/ and the exit status is nonzero if any were
                found
  smith85 trace report JOURNAL [--journal PATH]... [--top N] [--format tree|collapsed]
      Render NDJSON trace journals as per-trace span trees with total
      and self times (slowest first, --top per default 10), or as
      collapsed stacks (`root;child;leaf self_us`) for flamegraph tools.
      --journal is repeatable: a router's journal and its shards'
      journals merge into one cross-process tree per trace id (shard
      subtrees hang under the router's forwarding hops).
  smith85 trace follow JOURNAL [--max-events N] [--trace-id ID]
      Tail a journal: print events as they are appended (ctrl-c stops;
      --max-events exits after N printed events; --trace-id shows only
      one trace).
"
    .to_string()
}

fn load_workload(opts: &Opts) -> Result<Trace, CliError> {
    match (opts.get("trace"), opts.get("file")) {
        (Some(name), None) => {
            let len = opts.get_parse("len", 100_000usize)?;
            if let Some(spec) = catalog::by_name(name) {
                return Ok(spec.generate(len));
            }
            // Fall back to the storage/network family catalog so every
            // profile family works with --trace.
            let spec = smith85_families::by_name(name)
                .ok_or_else(|| CliError::UnknownTrace(name.to_string()))?;
            let stream = spec
                .try_generator()
                .map_err(|e| CliError::usage(format!("invalid family profile: {e}")))?;
            Ok(stream.take(len).collect::<Vec<_>>().into())
        }
        (None, Some(path)) => {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let trace = if bytes.starts_with(&trace_io::BINARY_MAGIC) {
                trace_io::read_binary(bytes.as_slice())?
            } else {
                trace_io::read_text(bytes.as_slice())?
            };
            let len = opts.get_parse("len", trace.len())?;
            let mut trace = trace;
            trace.truncate(len);
            Ok(trace)
        }
        (Some(_), Some(_)) => Err(CliError::usage("give either --trace or --file, not both")),
        (None, None) => Err(CliError::usage("need a workload: --trace NAME or --file PATH")),
    }
}

pub(crate) fn list(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&[])?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<12} {:<10} {:<9} description",
        "name", "group", "arch", "language"
    );
    for spec in catalog::all() {
        let p = spec.profile();
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:<10} {:<9} {}",
            spec.name(),
            spec.group().to_string(),
            p.arch.to_string(),
            p.language.to_string(),
            p.description
        );
    }
    Ok(out)
}

/// `smith85 catalog`: every profile grouped by family, with `--family`
/// restricting the listing to one family.
pub(crate) fn catalog_cmd(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&["family"])?;
    let filter = match opts.get("family") {
        None => None,
        Some(f) => {
            let f = f.to_ascii_lowercase();
            if !["cpu", "storage", "network"].contains(&f.as_str()) {
                return Err(CliError::usage(format!(
                    "unknown family {f:?} (cpu, storage or network)"
                )));
            }
            Some(f)
        }
    };
    let wants = |family: &str| filter.as_deref().is_none_or(|f| f == family);
    let mut out = String::new();
    if wants("cpu") {
        let specs = catalog::all();
        let _ = writeln!(out, "family cpu ({} profiles):", specs.len());
        for spec in specs {
            let p = spec.profile();
            let _ = writeln!(
                out,
                "  {:<12} {:<12} {:<10} {:<9} {}",
                spec.name(),
                spec.group().to_string(),
                p.arch.to_string(),
                p.language.to_string(),
                p.description
            );
        }
    }
    for family in [
        smith85_families::Family::Storage,
        smith85_families::Family::Network,
    ] {
        if !wants(family.name()) {
            continue;
        }
        let specs: Vec<_> = smith85_families::all()
            .into_iter()
            .filter(|s| s.family() == family)
            .collect();
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "family {} ({} profiles):", family.name(), specs.len());
        for spec in specs {
            let _ = writeln!(out, "  {:<12} {}", spec.name(), spec.description());
        }
    }
    Ok(out)
}

pub(crate) fn generate(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&["trace", "len", "out", "format"])?;
    let name = opts.require("trace")?;
    let spec = catalog::by_name(name).ok_or_else(|| CliError::UnknownTrace(name.to_string()))?;
    let len = opts.get_parse("len", 250_000usize)?;
    let out_path = opts.require("out")?;
    let trace = spec.generate(len);
    let file = File::create(out_path)?;
    match opts.get("format").unwrap_or("text") {
        "text" => trace_io::write_text(file, &trace)?,
        "binary" => trace_io::write_binary(file, &trace)?,
        "dinero" => trace_io::write_dinero(file, &trace)?,
        other => return Err(CliError::usage(format!("unknown format {other:?}"))),
    }
    Ok(format!("wrote {} references of {} to {}\n", len, spec.name(), out_path))
}

pub(crate) fn characterize(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&["trace", "file", "len"])?;
    let trace = load_workload(opts)?;
    let s = trace.characteristics();
    Ok(format!(
        "refs      {}\nifetch    {:.1}%\nread      {:.1}%\nwrite     {:.1}%\nbranch    {:.1}% of ifetches\n#Ilines   {}\n#Dlines   {}\nAspace    {} bytes\n",
        s.total_refs(),
        100.0 * s.ifetch_fraction(),
        100.0 * s.read_fraction(),
        100.0 * s.write_fraction(),
        100.0 * s.branch_fraction(),
        s.instruction_lines(),
        s.data_lines(),
        s.address_space_bytes()
    ))
}

fn parse_config(opts: &Opts) -> Result<CacheConfig, CliError> {
    let size = opts.get_parse("size", 0usize)?;
    if size == 0 {
        return Err(CliError::usage("missing required --size BYTES"));
    }
    let mapping = match opts.get("ways") {
        None | Some("full") => Mapping::FullyAssociative,
        Some("1") => Mapping::Direct,
        Some(w) => Mapping::SetAssociative(
            w.parse()
                .map_err(|_| CliError::usage(format!("bad --ways {w:?}")))?,
        ),
    };
    let replacement = parse_policy(opts)?;
    let write = match opts.get("write").unwrap_or("cb") {
        "cb" => WritePolicy::CopyBack {
            fetch_on_write: true,
        },
        "cb-nofetch" => WritePolicy::CopyBack {
            fetch_on_write: false,
        },
        "wt" => WritePolicy::WriteThrough { allocate: true },
        "wt-noalloc" => WritePolicy::WriteThrough { allocate: false },
        other => return Err(CliError::usage(format!("unknown write policy {other:?}"))),
    };
    let fetch = match opts.get("fetch").unwrap_or("demand") {
        "demand" => FetchPolicy::Demand,
        "prefetch" => FetchPolicy::PrefetchAlways,
        other => return Err(CliError::usage(format!("unknown fetch policy {other:?}"))),
    };
    let purge = match opts.get("purge") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::usage(format!("bad --purge {v:?}")))?,
        ),
    };
    Ok(CacheConfig::builder(size)
        .line_size(opts.get_parse("line", 16usize)?)
        .mapping(mapping)
        .replacement(replacement)
        .write_policy(write)
        .fetch_policy(fetch)
        .purge_interval(purge)
        .build()?)
}

/// Parses the shared `--policy` flag (with `--replacement` kept as a
/// synonym for older scripts) into a [`Replacement`].
fn parse_policy(opts: &Opts) -> Result<Replacement, CliError> {
    match opts.get("policy").or_else(|| opts.get("replacement")) {
        None => Ok(Replacement::Lru),
        Some(text) => Replacement::parse(text).ok_or_else(|| {
            CliError::usage(format!(
                "unknown replacement policy {text:?} (lru, fifo, random, random:<seed> or plru)"
            ))
        }),
    }
}

fn render_stats(stats: &smith85_cachesim::CacheStats) -> String {
    format!(
        "refs          {}\nmisses        {}\nmiss ratio    {:.4}\n  instruction {:.4}\n  data        {:.4}\ntraffic       {} bytes ({:.3}x demanded)\npushes        {} ({:.0}% dirty)\nprefetches    {} issued, {} already resident\npurges        {}\n",
        stats.total_refs(),
        stats.total_misses(),
        stats.miss_ratio(),
        stats.instruction_miss_ratio(),
        stats.data_miss_ratio(),
        stats.traffic_bytes(),
        stats.traffic_ratio(),
        stats.pushes,
        100.0 * stats.dirty_push_fraction(),
        stats.prefetch_fetches,
        stats.prefetch_hits,
        stats.purges,
    )
}

pub(crate) fn simulate(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&[
        "trace", "file", "len", "size", "line", "ways", "policy", "replacement", "write", "fetch",
        "purge", "org", "fault-drop", "fault-dup", "fault-flip", "fault-seed",
    ])?;
    let mut trace = load_workload(opts)?;
    let faults = smith85_trace::fault::FaultConfig {
        drop_rate: opts.get_parse("fault-drop", 0.0f64)?,
        duplicate_rate: opts.get_parse("fault-dup", 0.0f64)?,
        bit_flip_rate: opts.get_parse("fault-flip", 0.0f64)?,
    };
    if faults != smith85_trace::fault::FaultConfig::NONE {
        let seed = opts.get_parse("fault-seed", 85u64)?;
        let injector =
            smith85_trace::fault::FaultInjector::new(trace.iter().copied(), seed, faults)
                .map_err(|e| CliError::usage(e.to_string()))?;
        trace = injector.collect::<Vec<_>>().into();
    }
    let trace = trace;
    let config = parse_config(opts)?;
    let session = SimSession::default();
    match opts.get("org").unwrap_or("unified") {
        "unified" => {
            let stats = session.simulate_unified(trace.as_slice(), config)?;
            Ok(format!("{}\n{}", config, render_stats(&stats)))
        }
        "split" => {
            let purge = config.purge_interval();
            let split = session.simulate_split(trace.as_slice(), config, config, purge)?;
            Ok(format!(
                "{} (split)\n--- instruction ---\n{}--- data ---\n{}",
                config,
                render_stats(&split.instruction),
                render_stats(&split.data)
            ))
        }
        other => Err(CliError::usage(format!("unknown organisation {other:?}"))),
    }
}

fn parse_usize_list(list: &str, flag: &str) -> Result<Vec<usize>, CliError> {
    list.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| CliError::usage(format!("bad value {s:?} in --{flag}")))
        })
        .collect()
}

pub(crate) fn sweep(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&["trace", "file", "len", "sizes", "ways", "line", "policy"])?;
    let trace = load_workload(opts)?;
    let sizes: Vec<usize> = match opts.get("sizes") {
        None => PAPER_SIZES.to_vec(),
        Some(list) => parse_usize_list(list, "sizes")?,
    };
    let line = opts.get_parse("line", 16usize)?;
    let policy = parse_policy(opts)?;
    // --ways switches to the one-pass grid engine: every requested
    // (size, ways) cell from a single trace traversal. The one-pass
    // engine is LRU-only (it returns `OnePassUnsupported` otherwise);
    // non-LRU policies simulate each cell individually instead.
    if let Some(list) = opts.get("ways") {
        let ways = parse_usize_list(list, "ways")?;
        let mut spec = smith85_cachesim::GridSpec::new(sizes, ways);
        spec.line_size = line;
        if policy == Replacement::Lru {
            let grid = SimSession::default()
                .sweep_grid(trace.as_slice(), &spec)
                .map_err(|e| CliError::usage(format!("bad sweep grid: {e}")))?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:>10} {:>6} {:>6} {:>9} {:>9} {:>7}  (LRU, copy-back, {line}-byte lines; one pass)",
                "size", "ways", "sets", "miss", "traffic", "dirty"
            );
            for (cell, stats) in grid.iter() {
                let _ = writeln!(
                    out,
                    "{:>10} {:>6} {:>6} {:>9.4} {:>9.4} {:>7.4}",
                    cell.size_bytes,
                    cell.ways,
                    cell.sets,
                    stats.miss_ratio(),
                    stats.traffic_ratio(),
                    stats.dirty_push_fraction()
                );
            }
            return Ok(out);
        }
        // Cell enumeration and validation are policy-independent, so the
        // fallback borrows them from the engine with LRU swapped in.
        let engine = smith85_cachesim::OnePassEngine::new(&spec)
            .map_err(|e| CliError::usage(format!("bad sweep grid: {e}")))?;
        let session = SimSession::default();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>6} {:>9} {:>9} {:>7}  ({}, copy-back, {line}-byte lines; per config)",
            "size", "ways", "sets", "miss", "traffic", "dirty",
            policy.key_label()
        );
        for cell in engine.cells() {
            let lines = cell.size_bytes / line;
            let mapping = if cell.ways == lines {
                Mapping::FullyAssociative
            } else if cell.ways == 1 {
                Mapping::Direct
            } else {
                Mapping::SetAssociative(cell.ways)
            };
            let config = CacheConfig::builder(cell.size_bytes)
                .line_size(line)
                .mapping(mapping)
                .replacement(policy)
                .build()?;
            let stats = session.simulate_unified(trace.as_slice(), config)?;
            let _ = writeln!(
                out,
                "{:>10} {:>6} {:>6} {:>9.4} {:>9.4} {:>7.4}",
                cell.size_bytes,
                cell.ways,
                cell.sets,
                stats.miss_ratio(),
                stats.traffic_ratio(),
                stats.dirty_push_fraction()
            );
        }
        return Ok(out);
    }
    if policy != Replacement::Lru {
        // Stack analysis is itself an LRU algorithm; non-LRU size sweeps
        // simulate a fully-associative cache per size.
        let session = SimSession::default();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>10}  {:>9}  (fully associative {}, {line}-byte lines; per config)",
            "size",
            "miss",
            policy.key_label()
        );
        for size in sizes {
            let config = CacheConfig::builder(size)
                .line_size(line)
                .replacement(policy)
                .build()?;
            let stats = session.simulate_unified(trace.as_slice(), config)?;
            let _ = writeln!(out, "{:>10}  {:>9.4}", size, stats.miss_ratio());
        }
        return Ok(out);
    }
    let profile = SimSession::default().sweep_stack(trace.as_slice(), line);
    let mut out = String::new();
    let _ = writeln!(out, "{:>10}  {:>9}  (fully associative LRU, {line}-byte lines)", "size", "miss");
    for size in sizes {
        let _ = writeln!(out, "{:>10}  {:>9.4}", size, profile.miss_ratio(size));
    }
    Ok(out)
}

pub(crate) fn assoc(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&["trace", "file", "len", "sets", "line"])?;
    let trace = load_workload(opts)?;
    let sets = opts.get_parse("sets", 64usize)?;
    let line = opts.get_parse("line", 16usize)?;
    if !sets.is_power_of_two() || sets == 0 {
        return Err(CliError::usage("--sets must be a positive power of two"));
    }
    let mut analyzer = smith85_cachesim::AssocAnalyzer::with_line_size(sets, line);
    for access in &trace {
        analyzer.observe(*access);
    }
    let profile = analyzer.finish();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>9}  (LRU, {sets} sets, {line}-byte lines; one pass)",
        "ways", "size", "miss"
    );
    for (ways, miss) in profile.curve(64) {
        let _ = writeln!(out, "{:>6} {:>10} {:>9.4}", ways, profile.cache_bytes(ways), miss);
    }
    Ok(out)
}

pub(crate) fn target(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&["size", "kind"])?;
    let size = opts.get_parse("size", 0usize)?;
    if size == 0 {
        return Err(CliError::usage("missing required --size BYTES"));
    }
    let kinds: Vec<CacheKind> = match opts.get("kind") {
        None => CacheKind::ALL.to_vec(),
        Some("unified") => vec![CacheKind::Unified],
        Some("instruction") => vec![CacheKind::Instruction],
        Some("data") => vec![CacheKind::Data],
        Some(other) => return Err(CliError::usage(format!("unknown kind {other:?}"))),
    };
    let mut out = String::new();
    for kind in kinds {
        let _ = writeln!(
            out,
            "{:<12} design-target miss {:.2}, prefetch traffic factor {:.3}",
            kind.label(),
            design_target(size, kind),
            traffic_factor(size, kind)
        );
    }
    Ok(out)
}

pub(crate) fn custom(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&[
        "ifetch", "read", "branch", "code-kb", "data-kb", "instr-alpha", "data-alpha", "seq",
        "stack", "arch", "len", "seed",
    ])?;
    let arch = match opts.get("arch").unwrap_or("vax") {
        "vax" => smith85_trace::MachineArch::Vax,
        "ibm370" | "370" => smith85_trace::MachineArch::Ibm370,
        "z8000" => smith85_trace::MachineArch::Z8000,
        "cdc6400" | "cdc" => smith85_trace::MachineArch::Cdc6400,
        "m68000" | "68000" => smith85_trace::MachineArch::M68000,
        other => return Err(CliError::usage(format!("unknown arch {other:?}"))),
    };
    let ifetch = opts.get_parse("ifetch", 0.50f64)?;
    let read = opts.get_parse("read", 0.33f64)?;
    let profile = smith85_synth::ProgramProfile {
        name: "CUSTOM".to_string(),
        arch,
        language: smith85_trace::SourceLanguage::C,
        description: "user-defined workload".to_string(),
        ifetch_fraction: ifetch,
        read_fraction: read,
        branch_fraction: opts.get_parse("branch", 0.17f64)?,
        code_bytes: (opts.get_parse("code-kb", 12.0f64)? * 1024.0) as u64,
        data_bytes: (opts.get_parse("data-kb", 12.0f64)? * 1024.0) as u64,
        locality: smith85_synth::Locality {
            instr_alpha: opts.get_parse("instr-alpha", 1.5f64)?,
            data_alpha: opts.get_parse("data-alpha", 1.4f64)?,
            seq_fraction: opts.get_parse("seq", 0.15f64)?,
            stack_fraction: opts.get_parse("stack", 0.3f64)?,
            ..Default::default()
        },
        seed: opts.get_parse("seed", 85u64)?,
        paper_length: 250_000,
    };
    // User-supplied knobs go through the typed validator, never the
    // generator's panic path.
    profile
        .validate()
        .map_err(|e| CliError::usage(format!("invalid custom profile: {e}")))?;
    let len = opts.get_parse("len", 100_000usize)?;
    let trace = profile.generate(len);
    let stats = trace.characteristics();
    let mut analyzer = StackAnalyzer::new();
    for access in &trace {
        analyzer.observe(*access);
    }
    let p = analyzer.finish();
    let mut out = format!("custom profile on {}\ncharacteristics: {stats}\n\n", arch);
    let _ = writeln!(out, "{:>10}  {:>9}", "size", "miss");
    for size in PAPER_SIZES {
        let _ = writeln!(out, "{:>10}  {:>9.4}", size, p.miss_ratio(size));
    }
    Ok(out)
}

/// Builds an instrumented session from the shared `--quick`/`--len`/
/// `--threads` flags — the one configure→run surface the `experiment`
/// and `suite` subcommands share with the serve workers.
fn session_from_opts(opts: &Opts) -> Result<SimSession, CliError> {
    let mut builder = SimSession::builder();
    if opts.get("quick").is_some() {
        builder = builder.quick();
    }
    if let Some(len) = opts.get("len") {
        builder = builder.trace_len(
            len.parse()
                .map_err(|_| CliError::usage(format!("bad --len {len:?}")))?,
        );
    }
    if let Some(threads) = opts.get("threads") {
        builder = builder.threads(
            threads
                .parse()
                .map_err(|_| CliError::usage(format!("bad --threads {threads:?}")))?,
        );
    }
    builder
        .build()
        .map_err(|e| CliError::usage(format!("invalid configuration: {e}")))
}

pub(crate) fn experiment(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&["quick", "len", "csv", "threads"])?;
    let name = opts
        .positional()
        .first()
        .ok_or_else(|| CliError::usage("which experiment? (e.g. `smith85 experiment table1`)"))?;
    let session = session_from_opts(opts)?;
    let config = session.config().clone();
    let csv = opts.get("csv").is_some();
    let out = match name.as_str() {
        "table1" | "fig1" => {
            let t = experiments::table1::run(&config);
            if csv {
                t.to_csv()
            } else {
                t.render()
            }
        }
        "table2" => experiments::table2::run(&config).render(),
        "fig2" => experiments::fig2::run(&config).render(),
        "table3" => experiments::table3::run(&config).render(),
        "fig3_4" | "fig3" | "fig4" => experiments::fig3_fig4::run(&config).render(),
        "prefetch" | "fig5_6_7" | "fig8_9_10" | "table4" => {
            experiments::prefetch::run(&config).render()
        }
        "table5" => experiments::table5::run(&config).render(),
        "clark" => experiments::clark_validation::run(&config).render(),
        "z80000" => experiments::z80000::run(&config).render(),
        "m68020" => experiments::m68020::run(&config).render(),
        "traffic_ratio" => experiments::traffic_ratio::run(&config).render(),
        "design_grid" => experiments::design_grid::run(&config).render(),
        "trace_length" => experiments::trace_length::run(&config).render(),
        "multiprocessor" => experiments::multiprocessor::run(&config).render(),
        "calibration" => experiments::calibration_report::run(&config).render(),
        "multiprogramming" => experiments::multiprogramming::run(&config).render(),
        "conclusions" => experiments::conclusions::run(&config).render(),
        "family_conclusions" => experiments::family_conclusions::run(&config).render(),
        "line_size" => experiments::line_size::run(&config).render(),
        "fudge" => experiments::fudge_validation::run(&config).render(),
        "perturbations" => experiments::perturbations::run(&config).render(),
        "interface" => experiments::interface_effects::run(&config).render(),
        "ablations" => experiments::ablations::run(&config).render(),
        other => return Err(CliError::UnknownExperiment(other.to_string())),
    };
    Ok(out)
}

pub(crate) fn suite(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&["out", "resume", "quick", "len", "threads"])?;
    let session = session_from_opts(opts)?;
    let config = session.config().clone();
    let options = runner::RunnerOptions {
        out_dir: std::path::PathBuf::from(opts.get("out").unwrap_or("suite-results")),
        resume: opts.get_parse("resume", false)?,
    };
    let mut entries = runner::registry();
    // Test hook: lets the robustness path (failure recorded, siblings
    // still run, resume retries it) be exercised from the command line.
    if std::env::var_os("SMITH85_SUITE_PANIC").is_some() {
        entries.push(runner::ExperimentEntry {
            name: "injected-panic",
            run: |_| panic!("deliberate panic injected via SMITH85_SUITE_PANIC"),
        });
    }
    let report = runner::run_suite_with(&config, &options, &entries, |outcome| {
        eprintln!(
            "suite: {:<18} {}",
            outcome.name,
            match (&outcome.error, outcome.status) {
                (Some(e), _) => format!("FAIL ({e})"),
                (None, runner::ExperimentStatus::Skip) => "skip (cached)".to_string(),
                (None, _) => format!("pass in {} ms", outcome.duration_ms),
            }
        );
    })?;
    let pool = pool_summary(&config.pool.stats());
    if report.is_success() {
        Ok(format!("{report}\n{pool}\n"))
    } else {
        Err(CliError::Suite(format!("{report}\n{pool}")))
    }
}

/// One-line trace-pool summary appended to the suite report.
fn pool_summary(stats: &smith85_core::trace_pool::PoolStats) -> String {
    format!(
        "trace pool: {} entries ({} refs, {:.1} MiB resident), {} hits / {} misses ({:.0}% hit), {:.1} MiB materialized",
        stats.entries,
        stats.total_refs,
        stats.memory_bytes as f64 / (1024.0 * 1024.0),
        stats.hits,
        stats.misses,
        100.0 * stats.hit_ratio(),
        stats.materialized_bytes as f64 / (1024.0 * 1024.0),
    )
}

pub(crate) fn serve(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&[
        "addr", "unix", "workers", "queue", "deadline-ms", "metrics-addr", "journal", "store",
        "store-budget", "router", "probe-ms", "shard-inflight", "router-replicas",
    ])?;
    let defaults = smith85_serve::ServeOptions::default();
    let mut builder = smith85_serve::ServeOptions::builder()
        .addr(opts.get("addr").unwrap_or("127.0.0.1:4085"))
        .workers(opts.get_parse("workers", defaults.workers)?.max(1))
        .queue_capacity(opts.get_parse("queue", defaults.queue_capacity)?);
    if let Some(store_dir) = opts.get("store") {
        let mut session = SimSession::builder().store(store_dir);
        if let Some(budget) = opts.get("store-budget") {
            session = session.store_budget(
                budget
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad --store-budget {budget:?}")))?,
            );
        }
        let session = session
            .build()
            .map_err(|e| CliError::usage(format!("invalid configuration: {e}")))?;
        if let Some(store) = session.store() {
            eprintln!(
                "smith85-serve: store {} — {}",
                store.root().display(),
                store.recovery().summary()
            );
            for entry in &store.recovery().quarantined {
                eprintln!("smith85-serve: quarantined {} ({})", entry.name, entry.reason);
            }
        }
        builder = builder.session(session);
    } else if opts.get("store-budget").is_some() {
        return Err(CliError::usage("--store-budget needs --store DIR"));
    }
    let router = match opts.get("router") {
        Some(backends) => {
            let router_defaults = smith85_serve::RouterOptions::default();
            Some(smith85_serve::RouterOptions {
                backends: backends
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect(),
                probe_interval_ms: opts
                    .get_parse("probe-ms", router_defaults.probe_interval_ms)?,
                shard_inflight: opts
                    .get_parse("shard-inflight", router_defaults.shard_inflight)?,
                replicas: opts.get_parse("router-replicas", router_defaults.replicas)?,
                ..router_defaults
            })
        }
        None => {
            for flag in ["probe-ms", "shard-inflight", "router-replicas"] {
                if opts.get(flag).is_some() {
                    return Err(CliError::usage(format!(
                        "--{flag} needs --router ADDR[,ADDR...]"
                    )));
                }
            }
            None
        }
    };
    let routed = router.is_some();
    if let Some(router) = router {
        builder = builder.router(router);
    }
    if let Some(path) = opts.get("unix") {
        builder = builder.unix_path(path);
    }
    if let Some(ms) = opts.get("deadline-ms") {
        builder = builder.default_deadline_ms(
            ms.parse()
                .map_err(|_| CliError::usage(format!("bad --deadline-ms {ms:?}")))?,
        );
    }
    if let Some(addr) = opts.get("metrics-addr") {
        builder = builder.metrics_addr(addr);
    }
    if let Some(path) = opts.get("journal") {
        builder = builder.journal(path);
    }
    let options = builder
        .build()
        .map_err(|e| CliError::usage(format!("invalid serve configuration: {e}")))?;
    let (workers, queue) = (options.workers, options.queue_capacity);
    let unix = options.unix_path.clone();
    let backends = options
        .router
        .as_ref()
        .map(|r| r.backends.join(", "));
    let server = smith85_serve::Server::bind(options)?;
    // The banner goes to stderr immediately; the returned string only
    // exists once the server has already shut down.
    eprintln!(
        "smith85-serve: listening on {} ({} workers, queue bound {}){}",
        server.local_addr()?,
        workers,
        queue,
        unix
            .as_deref()
            .map(|p| format!(", unix socket {}", p.display()))
            .unwrap_or_default(),
    );
    if let Some(backends) = backends.filter(|_| routed) {
        eprintln!("smith85-serve: routing simulate/sweep across shards [{backends}]");
    }
    if let Some(addr) = server.metrics_addr() {
        eprintln!("smith85-serve: Prometheus metrics on http://{addr}/metrics");
    }
    if let Some(path) = opts.get("journal") {
        eprintln!("smith85-serve: journaling traces to {path} (render with `smith85 trace report {path}`)");
    }
    eprintln!("smith85-serve: ctrl-c drains in-flight jobs and exits");
    let stats = server.run()?;
    Ok(format!(
        "shut down after {} completed jobs ({} simulate, {} sweep admitted), \
         {} overload rejections, {} protocol errors, {} deadline misses\n\
         queue high water {}, pool: {} hits / {} misses, {:.1} MiB materialized\n",
        stats.completed,
        stats.simulate_requests,
        stats.sweep_requests,
        stats.rejected_overload,
        stats.protocol_errors,
        stats.deadline_misses,
        stats.queue_high_water,
        stats.pool.hits,
        stats.pool.misses,
        stats.pool.materialized_bytes as f64 / (1024.0 * 1024.0),
    ))
}

fn parse_ways(value: Option<&str>) -> Result<Option<usize>, CliError> {
    match value {
        None | Some("full") => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::usage(format!("--ways {v:?} is not a number or \"full\""))),
    }
}

fn build_request(kind: &str, opts: &Opts) -> Result<smith85_serve::Request, CliError> {
    use smith85_serve::protocol::{DEFAULT_LINE_BYTES, DEFAULT_TRACE_LEN};
    let deadline_ms = match opts.get("deadline-ms") {
        None => None,
        Some(ms) => Some(
            ms.parse()
                .map_err(|_| CliError::usage(format!("bad --deadline-ms {ms:?}")))?,
        ),
    };
    let seed = match opts.get("seed") {
        None => None,
        Some(s) => Some(
            s.parse()
                .map_err(|_| CliError::usage(format!("bad --seed {s:?}")))?,
        ),
    };
    // Validate the policy spelling locally so a typo fails before a
    // connection is even attempted; the server re-validates anyway.
    let policy = match opts.get("policy") {
        None => None,
        Some(p) => {
            if Replacement::parse(p).is_none() {
                return Err(CliError::usage(format!(
                    "unknown replacement policy {p:?} (lru, fifo, random, random:<seed> or plru)"
                )));
            }
            Some(p.to_string())
        }
    };
    match kind {
        "simulate" => Ok(smith85_serve::Request::Simulate(smith85_serve::SimulateSpec {
            workload: opts.require("workload")?.to_string(),
            len: opts.get_parse("len", DEFAULT_TRACE_LEN)?,
            seed,
            cache: smith85_serve::CacheSpec {
                size: opts.require("size")?.parse().map_err(|_| {
                    CliError::usage(format!("--size {:?} is not a number", opts.get("size").unwrap_or("")))
                })?,
                line: opts.get_parse("line", DEFAULT_LINE_BYTES)?,
                ways: parse_ways(opts.get("ways"))?,
                purge: match opts.get("purge") {
                    None => None,
                    Some(p) => Some(
                        p.parse()
                            .map_err(|_| CliError::usage(format!("bad --purge {p:?}")))?,
                    ),
                },
            },
            policy,
            deadline_ms,
        })),
        "sweep" => Ok(smith85_serve::Request::Sweep(smith85_serve::SweepSpec {
            workload: opts.require("workload")?.to_string(),
            len: opts.get_parse("len", DEFAULT_TRACE_LEN)?,
            seed,
            sizes: match opts.get("sizes") {
                None => Vec::new(),
                Some(list) => parse_usize_list(list, "sizes")?,
            },
            // A ways list turns the request into a one-pass grid sweep.
            ways: match opts.get("ways") {
                None => Vec::new(),
                Some(list) => parse_usize_list(list, "ways")?,
            },
            line: opts.get_parse("line", DEFAULT_LINE_BYTES)?,
            policy,
            deadline_ms,
        })),
        "catalog" => Ok(smith85_serve::Request::Catalog),
        "stats" => Ok(smith85_serve::Request::Stats),
        "metrics" => Ok(smith85_serve::Request::Metrics),
        "ping" => Ok(smith85_serve::Request::Ping),
        "shutdown" => Ok(smith85_serve::Request::Shutdown),
        other => Err(CliError::usage(format!(
            "unknown request type {other:?} (simulate, sweep, catalog, stats, metrics, ping, shutdown)"
        ))),
    }
}

fn render_response(response: &smith85_serve::Response) -> Result<String, CliError> {
    use smith85_serve::Response;
    let mut out = String::new();
    match response {
        Response::Simulate(r) => {
            let _ = writeln!(out, "workload       {}", r.workload);
            let _ = writeln!(out, "references     {}", r.refs);
            let _ = writeln!(out, "cache bytes    {}", r.cache_bytes);
            let _ = writeln!(out, "misses         {}", r.misses);
            let _ = writeln!(out, "miss ratio     {:.6}", r.miss_ratio);
            let _ = writeln!(out, "  instruction  {:.6}", r.instruction_miss_ratio);
            let _ = writeln!(out, "  data         {:.6}", r.data_miss_ratio);
            let _ = writeln!(out, "traffic bytes  {}", r.traffic_bytes);
            let _ = writeln!(out, "queued/exec ms {} / {}", r.queue_ms, r.exec_ms);
            if !r.trace_id.is_empty() {
                let _ = writeln!(out, "trace id       {}", r.trace_id);
            }
        }
        Response::Sweep(r) => {
            let _ = writeln!(out, "workload {} ({} refs)", r.workload, r.len);
            if r.points.iter().any(|p| p.ways.is_some()) {
                let _ = writeln!(out, "{:>10} {:>6}  miss ratio  traffic   dirty", "size", "ways");
                for point in &r.points {
                    let _ = writeln!(
                        out,
                        "{:>10} {:>6}  {:.6}  {:.6}  {:.6}",
                        point.size,
                        point.ways.unwrap_or(0),
                        point.miss_ratio,
                        point.traffic_ratio.unwrap_or(f64::NAN),
                        point.dirty_push_fraction.unwrap_or(f64::NAN)
                    );
                }
            } else {
                let _ = writeln!(out, "{:>10}  miss ratio", "size");
                for point in &r.points {
                    let _ = writeln!(out, "{:>10}  {:.6}", point.size, point.miss_ratio);
                }
            }
            let _ = writeln!(out, "queued/exec ms {} / {}", r.queue_ms, r.exec_ms);
            if !r.trace_id.is_empty() {
                let _ = writeln!(out, "trace id       {}", r.trace_id);
            }
        }
        Response::Catalog(c) => {
            let _ = writeln!(out, "{} profiles:", c.profiles.len());
            let mut families: Vec<&str> = Vec::new();
            for entry in &c.profiles {
                if !families.contains(&entry.family.as_str()) {
                    families.push(&entry.family);
                }
            }
            for family in families {
                let _ = writeln!(out, " family {family}:");
                for entry in c.profiles.iter().filter(|e| e.family == family) {
                    let _ = writeln!(
                        out,
                        "  {:<12} {:<12} {:<10} {}",
                        entry.name, entry.group, entry.arch, entry.language
                    );
                }
            }
            let _ = writeln!(out, "{} mixes:", c.mixes.len());
            for mix in &c.mixes {
                let _ = writeln!(out, "  {mix}");
            }
        }
        Response::Stats(s) => {
            let _ = writeln!(
                out,
                "requests: {} simulate, {} sweep, {} catalog, {} stats",
                s.simulate_requests, s.sweep_requests, s.catalog_requests, s.stats_requests
            );
            let _ = writeln!(
                out,
                "jobs: {} completed, {} overload rejections, {} protocol errors, {} deadline misses",
                s.completed, s.rejected_overload, s.protocol_errors, s.deadline_misses
            );
            let _ = writeln!(
                out,
                "queue: depth {}, high water {}, {} workers",
                s.queue_depth, s.queue_high_water, s.workers
            );
            let _ = writeln!(
                out,
                "busy ms: {} simulate, {} sweep",
                s.busy_ms_simulate, s.busy_ms_sweep
            );
            let _ = writeln!(
                out,
                "pool: {} entries, {} hits / {} misses, {:.1} MiB materialized, {:.1} MiB resident",
                s.pool.entries,
                s.pool.hits,
                s.pool.misses,
                s.pool.materialized_bytes as f64 / (1024.0 * 1024.0),
                s.pool.resident_bytes as f64 / (1024.0 * 1024.0),
            );
            if let Some(one_pass) = &s.one_pass {
                let _ = writeln!(
                    out,
                    "one-pass: {} refs traversed, {} grid cells produced",
                    one_pass.refs, one_pass.grid_cells
                );
            }
            if let Some(router) = &s.router {
                let _ = writeln!(
                    out,
                    "router: {}/{} shards healthy, {} forwarded, {} hedged, \
                     {} shard overloads, {} health probes",
                    router.healthy,
                    router.shards,
                    router.forwarded,
                    router.hedged,
                    router.shard_overloads,
                    router.health_probes
                );
                if router.federated_shards + router.stale_shards > 0 {
                    let _ = writeln!(
                        out,
                        "router metrics federation: {} shard snapshot(s) absorbed, \
                         {} shard(s) marked stale",
                        router.federated_shards, router.stale_shards
                    );
                }
            }
        }
        Response::Metrics(snapshot) => {
            let series = |name: &str, labels: &[(String, String)]| {
                if labels.is_empty() {
                    name.to_string()
                } else {
                    let body: Vec<String> =
                        labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    format!("{name}{{{}}}", body.join(","))
                }
            };
            let _ = writeln!(out, "counters:");
            for c in &snapshot.counters {
                let _ = writeln!(out, "  {:<40} {}", series(&c.name, &c.labels), c.value);
            }
            let _ = writeln!(out, "gauges:");
            for g in &snapshot.gauges {
                let _ = writeln!(out, "  {:<40} {}", series(&g.name, &g.labels), g.value);
            }
            let _ = writeln!(out, "histograms:");
            for h in &snapshot.histograms {
                let _ = writeln!(
                    out,
                    "  {:<40} count {}  p50 {:.3}  p95 {:.3}  p99 {:.3}",
                    series(&h.name, &h.labels),
                    h.count,
                    h.p50,
                    h.p95,
                    h.p99
                );
            }
        }
        Response::Pong => out.push_str("pong\n"),
        Response::Ok => out.push_str("ok (server is draining)\n"),
        Response::Error(e) => {
            return Err(CliError::Server(format!(
                "server error [{}]: {}",
                e.code.as_str(),
                e.message
            )))
        }
    }
    Ok(out)
}

pub(crate) fn submit(opts: &Opts) -> Result<String, CliError> {
    opts.expect_only(&[
        "addr",
        "unix",
        "json",
        "workload",
        "len",
        "seed",
        "size",
        "line",
        "ways",
        "purge",
        "sizes",
        "policy",
        "deadline-ms",
        "retries",
        "backoff-ms",
        "trace-id",
    ])?;
    let kind = opts
        .positional()
        .first()
        .map(String::as_str)
        .ok_or_else(|| {
            CliError::usage(
                "need a request type: simulate, sweep, catalog, stats, metrics, ping or shutdown",
            )
        })?;
    let request = build_request(kind, opts)?;
    let policy = smith85_serve::RetryPolicy {
        retries: opts.get_parse("retries", 0u32)?,
        backoff_ms: opts.get_parse("backoff-ms", 100u64)?,
    };
    #[cfg(not(unix))]
    if opts.get("unix").is_some() {
        return Err(CliError::usage(
            "--unix is only available on unix targets; use --addr",
        ));
    }
    let mut builder = smith85_serve::Client::builder().retry_policy(policy);
    builder = match opts.get("unix") {
        #[cfg(unix)]
        Some(path) => builder.unix(path),
        #[cfg(not(unix))]
        Some(_) => unreachable!("rejected above"),
        None => builder.addr(opts.get("addr").unwrap_or("127.0.0.1:4085")),
    };
    if let Some(id) = opts.get("trace-id") {
        builder = builder.trace_id(id);
    }
    let mut client = builder.connect().map_err(client_error)?;
    // A typed server error stays a wire response here so `--json` can
    // print it verbatim; render_response turns it into a CliError.
    let response = match client.call(&request) {
        Ok(response) => response,
        Err(smith85_serve::ClientError::Server(body)) => smith85_serve::Response::Error(body),
        Err(other) => return Err(client_error(other)),
    };
    if opts.get("json").is_some() {
        let mut line = response.encode();
        line.push('\n');
        return Ok(line);
    }
    render_response(&response)
}

/// Maps a client failure onto the CLI's error surface: transport
/// problems keep their `io::Error` (and exit-code semantics), protocol
/// and configuration failures become server-side messages.
fn client_error(e: smith85_serve::ClientError) -> CliError {
    match e {
        smith85_serve::ClientError::Io(e) => CliError::File(e),
        other => CliError::Server(other.to_string()),
    }
}

pub(crate) fn cache(opts: &Opts) -> Result<String, CliError> {
    let action = opts
        .positional()
        .first()
        .map(String::as_str)
        .ok_or_else(|| {
            CliError::usage("need an action: `smith85 cache stats|gc|clear|verify --store DIR`")
        })?;
    opts.expect_only(&["store", "budget"])?;
    let dir = opts.require("store")?;
    let store =
        smith85_store::Store::open(dir).map_err(|e| CliError::Store(e.to_string()))?;
    match action {
        "stats" => {
            let s = store.stats();
            let quarantined = std::fs::read_dir(store.quarantine_dir())
                .map(|entries| entries.filter_map(Result::ok).count())
                .unwrap_or(0);
            let mut out = String::new();
            let _ = writeln!(out, "store          {}", store.root().display());
            let _ = writeln!(out, "entries        {}", s.entries);
            let _ = writeln!(out, "bytes          {}", s.total_bytes);
            let _ = writeln!(
                out,
                "budget         {}",
                store
                    .budget()
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "unbounded".to_string())
            );
            let _ = writeln!(out, "quarantined    {quarantined} file(s)");
            let _ = writeln!(out, "{}", store.recovery().summary());
            Ok(out)
        }
        "gc" => {
            let budget = opts.get_parse("budget", 0u64)?;
            if opts.get("budget").is_none() {
                return Err(CliError::usage("`smith85 cache gc` needs --budget BYTES"));
            }
            let report = store.gc(budget);
            let after = store.stats();
            Ok(format!(
                "evicted {} entrie(s), freed {} bytes; {} entrie(s), {} bytes remain\n",
                report.evicted, report.freed_bytes, after.entries, after.total_bytes
            ))
        }
        "clear" => {
            let removed = store.clear()?;
            Ok(format!(
                "removed {removed} live entrie(s); quarantined evidence kept in {}\n",
                store.quarantine_dir().display()
            ))
        }
        "verify" => {
            // Corruption shows up in two places: the recovery scan that
            // ran when we opened the store, and the explicit re-read
            // below. Either one means the store was not intact.
            let report = store.verify()?;
            let damaged: Vec<&smith85_store::QuarantinedEntry> = store
                .recovery()
                .quarantined
                .iter()
                .chain(report.quarantined.iter())
                .collect();
            if damaged.is_empty() {
                Ok(format!(
                    "verified {} record(s), all intact\n",
                    report.checked
                ))
            } else {
                let mut detail = format!(
                    "verify: {} of {} record(s) corrupt, moved to {}",
                    damaged.len(),
                    report.checked + store.recovery().quarantined.len(),
                    store.quarantine_dir().display()
                );
                for entry in damaged {
                    let _ = write!(detail, "\n  {} ({})", entry.name, entry.reason);
                }
                Err(CliError::Store(detail))
            }
        }
        other => Err(CliError::usage(format!(
            "unknown cache action {other:?} (stats, gc, clear or verify)"
        ))),
    }
}

pub(crate) fn trace(opts: &Opts) -> Result<String, CliError> {
    let action = opts.positional().first().map(String::as_str).ok_or_else(|| {
        CliError::usage("need an action: `smith85 trace report JOURNAL` or `smith85 trace follow JOURNAL`")
    })?;
    match action {
        "report" => {
            opts.expect_only(&["top", "format", "journal"])?;
            // Journals come as a positional path, repeated --journal
            // flags, or both; several paths (e.g. a router's and its
            // shards') are merged into one cross-process view.
            let mut paths: Vec<&str> = opts.positional().iter().skip(1).map(String::as_str).collect();
            paths.extend(opts.get_all("journal"));
            if paths.is_empty() {
                return Err(CliError::usage(
                    "`smith85 trace report` needs a journal path (positional or --journal, repeatable)",
                ));
            }
            let mut journals: Vec<Vec<smith85_tracelog::TraceEvent>> = Vec::new();
            for path in &paths {
                let (header, events) = smith85_tracelog::report::read_journal(path)?;
                if let Some(header) = &header {
                    if header.version != smith85_tracelog::JOURNAL_VERSION {
                        return Err(CliError::usage(format!(
                            "journal {path:?} is format v{}, this build reads v{}",
                            header.version,
                            smith85_tracelog::JOURNAL_VERSION
                        )));
                    }
                }
                journals.push(events);
            }
            let events = smith85_tracelog::report::merge_journals(&journals);
            let trees = smith85_tracelog::report::build_trees(&events);
            match opts.get("format").unwrap_or("tree") {
                "tree" => {
                    let top = opts.get_parse("top", 10usize)?;
                    Ok(smith85_tracelog::report::render_report(&trees, top))
                }
                "collapsed" => Ok(smith85_tracelog::report::collapsed_stacks(&trees)),
                other => Err(CliError::usage(format!(
                    "unknown format {other:?} (tree or collapsed)"
                ))),
            }
        }
        "follow" => {
            opts.expect_only(&["max-events", "trace-id"])?;
            let journal = opts.positional().get(1).map(String::as_str).ok_or_else(|| {
                CliError::usage("`smith85 trace follow` needs a journal path")
            })?;
            let max_events = opts.get_parse("max-events", usize::MAX)?;
            follow_journal(journal, max_events, opts.get("trace-id"))
        }
        other => Err(CliError::usage(format!(
            "unknown trace action {other:?} (report or follow)"
        ))),
    }
}

/// Tails a journal file: prints each event line as it lands, polling for
/// growth. With `max_events == usize::MAX` it runs until interrupted, so
/// events go straight to stdout rather than the returned string. With a
/// `trace_id` filter, only that trace's events print (or count).
fn follow_journal(path: &str, max_events: usize, trace_id: Option<&str>) -> Result<String, CliError> {
    use std::io::BufRead as _;
    let file = File::open(path)?;
    let mut reader = std::io::BufReader::new(file);
    let mut line = String::new();
    let mut printed = 0usize;
    let mut header_seen = false;
    while printed < max_events {
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            // At EOF: a bounded follow with no more data would otherwise
            // spin forever in tests, so only block when tailing live.
            if max_events != usize::MAX {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
            continue;
        }
        if !line.ends_with('\n') {
            // A partially written line: keep it and wait for the writer
            // to finish it (the next read appends the remainder).
            std::thread::sleep(std::time::Duration::from_millis(50));
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            line.clear();
            continue;
        }
        if !header_seen {
            header_seen = true;
            if trimmed.contains("\"schema\"") {
                line.clear();
                continue; // journal header, not an event
            }
        }
        let value = smith85_tracelog::json::parse(trimmed)
            .map_err(|e| CliError::usage(format!("bad journal line: {e}")))?;
        let event = smith85_tracelog::report::parse_event(&value)
            .map_err(|e| CliError::usage(format!("bad journal event: {e}")))?;
        if trace_id.is_none_or(|id| &*event.trace_id == id) {
            println!("{}", smith85_tracelog::report::render_event_line(&event));
            printed += 1;
        }
        line.clear();
    }
    Ok(format!("followed {printed} event(s) from {path}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Opts::parse(&v).unwrap()
    }

    #[test]
    fn parse_config_defaults_to_paper_shape() {
        let c = parse_config(&opts(&["--size", "1024"])).unwrap();
        assert_eq!(c.line_size(), 16);
        assert_eq!(c.mapping(), Mapping::FullyAssociative);
        assert_eq!(c.replacement(), Replacement::Lru);
    }

    #[test]
    fn parse_config_full_grid() {
        let c = parse_config(&opts(&[
            "--size", "8192", "--line", "32", "--ways", "4", "--replacement", "fifo", "--write",
            "wt", "--fetch", "prefetch", "--purge", "20000",
        ]))
        .unwrap();
        assert_eq!(c.ways(), 4);
        assert_eq!(c.replacement(), Replacement::Fifo);
        assert_eq!(c.write_policy(), WritePolicy::WriteThrough { allocate: true });
        assert_eq!(c.fetch_policy(), FetchPolicy::PrefetchAlways);
        assert_eq!(c.purge_interval(), Some(20_000));
    }

    #[test]
    fn parse_config_rejects_nonsense() {
        assert!(parse_config(&opts(&["--size", "1024", "--replacement", "clock"])).is_err());
        assert!(parse_config(&opts(&["--size", "1024", "--write", "wb"])).is_err());
        assert!(parse_config(&opts(&[])).is_err());
    }

    #[test]
    fn split_simulation_prints_both_halves() {
        let out = simulate(&opts(&[
            "--trace", "ZGREP", "--len", "4000", "--size", "1024", "--org", "split",
        ]))
        .unwrap();
        assert!(out.contains("instruction"));
        assert!(out.contains("data"));
    }

    #[test]
    fn sweep_accepts_custom_sizes() {
        let out = sweep(&opts(&["--trace", "PL0", "--len", "4000", "--sizes", "64,256"])).unwrap();
        assert!(out.contains("64"));
        assert!(out.contains("256"));
        assert!(!out.contains("65536"));
    }

    #[test]
    fn target_kind_filter() {
        let out = target(&opts(&["--size", "256", "--kind", "instruction"])).unwrap();
        assert!(out.contains("instruction"));
        assert!(!out.contains("unified"));
        assert!(out.contains("0.25"));
    }
}
