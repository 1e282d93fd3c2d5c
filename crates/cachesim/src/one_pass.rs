//! One-pass multi-configuration simulation: the complete miss-ratio,
//! dirty-eviction and traffic grid for every requested cache size ×
//! associativity in a **single traversal** of the trace.
//!
//! # Algorithm
//!
//! The engine generalizes Mattson's stack algorithm to set-associative
//! LRU caches. For a grid of `(size, ways)` cells over one line size,
//! every cell maps a line to set `line & (sets - 1)` where
//! `sets = size / (line * ways)` — so all cells sharing a *set count*
//! see identical per-set reference substreams and therefore identical
//! within-set LRU stack distances. The engine groups cells into
//! **levels** (one per distinct set count), maintains one recency
//! structure per level, and records a per-kind histogram of capped
//! stack distances. By LRU inclusion, a cell with `w` ways hits exactly
//! when the within-set distance is `<= w`, so at the end each cell's
//! miss counts fall out of a suffix sum over its level's histogram —
//! one pass, N configurations.
//!
//! Two recency structures are used, picked per level:
//!
//! * **Top-region arrays** (set count > 1): each set keeps only its
//!   `max_ways` most-recent distinct lines in exact LRU order in a flat
//!   struct-of-arrays block. Distances beyond `max_ways` all fold into
//!   one overflow histogram bucket, so order below the top region is
//!   irrelevant and each access costs at most `max_ways` comparisons —
//!   branch-friendly and independent of trace locality.
//! * **A bounded LRU list** (set count == 1, where fully-associative
//!   cells have up to thousands of ways): the set's `cap` most recent
//!   lines in exact LRU order, cut at the level's way counts (its
//!   *bounds*). A cell only asks whether a depth exceeds its way count,
//!   so each line stores its *bucket* — how many bounds its depth
//!   exceeds — and one marker per bound points at the line sitting
//!   exactly on it. A reference to a line in bucket `b` moves it to MRU
//!   and pushes the line on each of the `b` bounds above it across that
//!   bound: one pointer step per bound, at most 12 on the paper grid,
//!   whatever the trace length. The line pushed past `cap` leaves the
//!   list. The level reports each bucket's largest depth (`cap + 1` past
//!   the last bound), which decides every cell exactly as the true
//!   depth would.
//!
//! # Pruning by set refinement
//!
//! Under bit-selection indexing with power-of-two set counts, every set
//! of a level with more sets lies inside one set of each level with
//! fewer sets. A line's within-set LRU depth can therefore only shrink
//! as the set count grows. Levels are kept in ascending set count, and
//! the engine skips two kinds of work whose answer is already fixed:
//!
//! * **Repeats.** A reference to the previous reference's line is at
//!   depth 1 at every level: every cell hits and no recency changes. It
//!   is counted per access kind and returns without interning or
//!   walking. A write still dirties every copy; a read changes nothing,
//!   because no cell misses at depth 1.
//! * **Early exit.** The walk runs coarse to fine and stops at the first
//!   level reporting depth 1. Every finer level is at depth 1 too: its
//!   recency is already right, and no cell misses, so there is no dirty
//!   push to count.
//!
//! [`OnePassEngine::finish`] folds both tallies into each level's
//! depth-1 bucket, so every level's histogram still counts every warm
//! reference once. On the benchmark's grid-sweep profiles, 17–47% of
//! CPU and 55–82% of network references repeat the previous line, and a
//! warm lookup walks 5–8 of the paper grid's 13 levels. Storage streams
//! gain nothing here: 0–2% of their references repeat, and a warm
//! lookup walks 12.8–13 levels. The single-set level is the coarsest,
//! so every warm lookup that is not a repeat reaches it, and it never
//! reports depth 1.
//!
//! # Cost
//!
//! Time per 250,000-reference sweep of the 54-cell paper grid with the
//! single-set level as a Fenwick tree over reference timestamps (before:
//! a prefix sum and two point updates per warm reference, `O(log n)` in
//! the trace length) and as the bounded list (after): median of five
//! interleaved `throughput` runs, each best of three, on a
//! 2-logical-CPU Intel Xeon host:
//!
//! | trace     | before            | after              | speed-up |
//! |-----------|-------------------|--------------------|----------|
//! | VCCOM     | 35.0 ms, 7.2M r/s | 25.8 ms, 9.7M r/s  | 1.36×    |
//! | S-OLTP    | 86.2 ms, 2.9M r/s | 74.6 ms, 3.4M r/s  | 1.16×    |
//! | N-GATEWAY | 25.6 ms, 9.8M r/s | 18.1 ms, 13.8M r/s | 1.41×    |
//!
//! The `phase_share` ablation kernels of the `throughput` bench split
//! each sweep's own time into interning and bookkeeping (`base`), the
//! set-associative walk, the single-set level and dirty bits,
//! before → after:
//!
//! | trace     | base        | walk        | single_set  | dirty       |
//! |-----------|-------------|-------------|-------------|-------------|
//! | VCCOM     | 0.18 → 0.24 | 0.20 → 0.30 | 0.42 → 0.22 | 0.20 → 0.22 |
//! | S-OLTP    | 0.19 → 0.26 | 0.20 → 0.26 | 0.38 → 0.23 | 0.22 → 0.26 |
//! | N-GATEWAY | 0.19 → 0.24 | 0.46 → 0.56 | 0.33 → 0.18 | 0.02 → 0.02 |
//!
//! Storage gains least: nearly every warm storage reference lies past
//! the last bound, so it pushes a line across all 12 bounds, and the
//! deep bounds hold lines referenced thousands of lines ago, out of
//! cache. See the one-pass section of `EXPERIMENTS.md` for how each
//! ablation is built.
//!
//! Write-back traffic is tracked without per-cell caches via a
//! **deferred dirty bitset**: one bit per (line, cell). A store sets
//! the line's bits for every cell (hit cells dirty the resident copy;
//! missed cells insert it dirty or refill-and-dirty it, depending on
//! policy — either way the copy is dirty). When a later access *misses*
//! a cell while the line's bit is set, the line must have been evicted
//! dirty from that cell exactly once in between — count one dirty push
//! and reset the bit on refill (reads refill clean; writes re-dirty).
//! A final sweep counts lines that end dirty but no longer resident.
//! Clean evictions need no tracking at all: every miss inserts exactly
//! one line, so `pushes = misses - lines_resident_at_end`.
//!
//! # Supported envelope
//!
//! LRU replacement, bit-selection set indexing, demand fetch, no
//! prefetch, no purging; write policies [`WritePolicy::CopyBack`] (both
//! fetch-on-write settings) and [`WritePolicy::WriteThrough`] with
//! allocate. Write-through *without* allocate breaks the stack
//! property (a write miss does not insert, so recency diverges across
//! cells) and is rejected with [`ConfigError::OnePassUnsupported`].
//! Within this envelope the per-cell [`CacheStats`] are bit-identical
//! to running [`crate::Cache`] once per configuration — pinned by
//! `tests/one_pass_equiv.rs`.

use crate::config::{Replacement, WritePolicy};
use crate::error::ConfigError;
use crate::fast_hash::FastHashMap;
use crate::stats::CacheStats;
use smith85_trace::{AccessKind, MemoryAccess, PAPER_LINE_SIZE};

/// The grid of cache configurations a [`OnePassEngine`] evaluates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    /// Cache sizes in bytes (each a power of two, at least one line).
    pub sizes: Vec<usize>,
    /// Set associativities to cross with every size (powers of two).
    /// A way count exceeding a size's line count is skipped for that
    /// size rather than rejected.
    pub ways: Vec<usize>,
    /// Line size in bytes.
    pub line_size: usize,
    /// Write policy applied to every cell.
    pub write_policy: WritePolicy,
    /// Replacement policy applied to every cell. The engine's Mattson
    /// inclusion argument only holds for [`Replacement::Lru`]; any other
    /// policy is rejected with [`ConfigError::OnePassUnsupported`] —
    /// run those grids through the per-configuration simulators.
    pub replacement: Replacement,
    /// Also evaluate the fully-associative point (`ways == lines`) of
    /// every size, deduplicated against the explicit way list.
    pub include_fully_associative: bool,
}

impl GridSpec {
    /// A grid over `sizes` × `ways` with the paper's defaults: 16-byte
    /// lines, copy-back with fetch-on-write, no extra fully-associative
    /// points.
    pub fn new(sizes: Vec<usize>, ways: Vec<usize>) -> Self {
        GridSpec {
            sizes,
            ways,
            line_size: PAPER_LINE_SIZE,
            write_policy: WritePolicy::PAPER,
            replacement: Replacement::Lru,
            include_fully_associative: false,
        }
    }

    /// The paper's design-space grid: every [`crate::PAPER_SIZES`] size
    /// crossed with 1/2/4/8-way set-associativity plus the
    /// fully-associative point of each size.
    pub fn paper_grid() -> Self {
        GridSpec {
            sizes: crate::PAPER_SIZES.to_vec(),
            ways: vec![1, 2, 4, 8],
            line_size: PAPER_LINE_SIZE,
            write_policy: WritePolicy::PAPER,
            replacement: Replacement::Lru,
            include_fully_associative: true,
        }
    }
}

/// One realized cache configuration within a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// Cache size in bytes.
    pub size_bytes: usize,
    /// Ways per set (`ways == size_bytes / line` means fully
    /// associative).
    pub ways: usize,
    /// Number of sets (`size_bytes / (line * ways)`).
    pub sets: usize,
}

/// The per-cell results of a one-pass sweep, in the engine's
/// deterministic cell order (ascending size, then ascending ways).
#[derive(Debug, Clone)]
pub struct OnePassGrid {
    line_size: usize,
    write_policy: WritePolicy,
    cells: Vec<GridCell>,
    stats: Vec<CacheStats>,
}

impl OnePassGrid {
    /// The realized grid cells, parallel to [`stats`](Self::stats).
    pub fn cells(&self) -> &[GridCell] {
        &self.cells
    }

    /// Per-cell statistics, parallel to [`cells`](Self::cells).
    pub fn stats(&self) -> &[CacheStats] {
        &self.stats
    }

    /// Iterates `(cell, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&GridCell, &CacheStats)> {
        self.cells.iter().zip(self.stats.iter())
    }

    /// The statistics for one `(size, ways)` cell, if it was in the grid.
    pub fn cell_stats(&self, size_bytes: usize, ways: usize) -> Option<&CacheStats> {
        self.cells
            .iter()
            .position(|c| c.size_bytes == size_bytes && c.ways == ways)
            .map(|i| &self.stats[i])
    }

    /// The miss ratio of one `(size, ways)` cell, if it was in the grid.
    pub fn miss_ratio(&self, size_bytes: usize, ways: usize) -> Option<f64> {
        self.cell_stats(size_bytes, ways).map(CacheStats::miss_ratio)
    }

    /// Line size the grid was evaluated with.
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Write policy the grid was evaluated with.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }
}

/// Per-set exact-LRU top region, or a bounded LRU list for single-set
/// levels where way counts run into the thousands.
#[derive(Debug)]
enum Recency {
    /// Flat `sets × cap` array of interned line ids, MRU first within
    /// each set's block; `u32::MAX` marks empty slots.
    Scan {
        tops: Vec<u32>,
        /// Per-set distinct-line count, saturated at `cap` (enough for
        /// residency: all cell ways are `<= cap`).
        occupancy: Vec<u32>,
    },
    /// The single set's `cap` most recent lines, bucketed by the
    /// level's way counts.
    Bounded(BoundedLru),
}

/// Node index of a [`BoundedLru`]'s sentinel: its `next` is the MRU
/// line, its `prev` the LRU end. Line id `i` is node `i + 1`.
const SENTINEL: u32 = 0;

/// One line's place in a [`BoundedLru`].
#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    /// How many bounds the line's depth exceeds; the bound count once
    /// the line has left the list.
    bucket: u32,
}

/// An exact LRU list of the `cap` most recent lines of one set, cut at
/// the level's way counts (its *bounds*). The cells only ask which
/// bounds a depth exceeds, so each line stores its bucket instead of a
/// depth, and one marker per bound holds the line sitting exactly on
/// it. Moving a line in bucket `b` to MRU pushes the line on each of
/// the `b` bounds above it one place deeper, across that bound — one
/// pointer step per bound, however long the trace — and the line pushed
/// past `cap` leaves the list.
#[derive(Debug)]
struct BoundedLru {
    /// Largest depth in each bucket: the bounds in ascending order (the
    /// last is `cap`), then `cap + 1` for lines no longer in the list.
    bucket_depth: Vec<usize>,
    /// `markers[j]` is the node at depth `bucket_depth[j]`, for the
    /// first `filled` bounds; the list is still shorter than the rest.
    markers: Vec<u32>,
    filled: usize,
    /// The sentinel, then one node per interned line id.
    nodes: Vec<Node>,
}

impl BoundedLru {
    fn new(ways: impl Iterator<Item = usize>, cap: usize) -> BoundedLru {
        let mut bucket_depth: Vec<usize> = ways.chain([cap + 1]).collect();
        bucket_depth.dedup();
        BoundedLru {
            markers: vec![SENTINEL; bucket_depth.len() - 1],
            bucket_depth,
            filled: 0,
            nodes: vec![Node {
                prev: SENTINEL,
                next: SENTINEL,
                bucket: 0,
            }],
        }
    }

    /// First access to line `id` (the next unused id): it enters as MRU.
    fn insert_cold(&mut self, id: u32) {
        debug_assert_eq!(self.nodes.len(), id as usize + 1);
        self.nodes.push(Node {
            prev: SENTINEL,
            next: SENTINEL,
            bucket: self.markers.len() as u32,
        });
        self.touch(id);
    }

    /// Moves line `id` to MRU and returns its capped depth before the
    /// move: the largest depth of its bucket.
    fn touch(&mut self, id: u32) -> usize {
        let x = id + 1;
        let b = self.nodes[x as usize].bucket as usize;
        let outside = self.markers.len();
        let crossing = if b < outside {
            let Node { prev, next, .. } = self.nodes[x as usize];
            if prev == SENTINEL {
                // Already MRU: nothing moves.
                return self.bucket_depth[b];
            }
            // Lines below x keep their depth; the one above it moves
            // onto x's place, and onto its bound if x sat on one.
            if self.markers[b] == x {
                self.markers[b] = prev;
            }
            self.nodes[prev as usize].next = next;
            self.nodes[next as usize].prev = prev;
            b
        } else {
            self.filled
        };
        let head = self.nodes[SENTINEL as usize].next;
        self.nodes[x as usize] = Node {
            prev: SENTINEL,
            next: head,
            bucket: 0,
        };
        self.nodes[head as usize].prev = x;
        self.nodes[SENTINEL as usize].next = x;
        // Each line on a bound above x's old depth crosses it, and the
        // line above it takes its place: x itself on a bound of 1, which
        // is why x is linked first.
        for marker in &mut self.markers[..crossing] {
            let node = &mut self.nodes[*marker as usize];
            node.bucket += 1;
            *marker = node.prev;
        }
        if b == outside {
            if self.filled == outside {
                // The line pushed across the last bound was the tail.
                let tail = self.markers[outside - 1];
                self.nodes[tail as usize].next = SENTINEL;
                self.nodes[SENTINEL as usize].prev = tail;
            } else if self.nodes.len() - 1 == self.bucket_depth[self.filled] {
                // No line has left yet, so the list holds every line,
                // and it just grew onto the next bound.
                self.markers[self.filled] = self.nodes[SENTINEL as usize].prev;
                self.filled += 1;
            }
        }
        self.bucket_depth[b]
    }

    /// Line `id`'s capped depth, read-only.
    fn position(&self, id: u32) -> usize {
        self.bucket_depth[self.nodes[id as usize + 1].bucket as usize]
    }
}

/// All cells sharing one set count, with their shared histogram.
#[derive(Debug)]
struct Level {
    set_mask: u64,
    /// Largest way count among this level's cells; histogram bucket
    /// `cap + 1` collects every distance beyond it.
    cap: usize,
    /// `(global cell index, ways)` sorted ascending by ways.
    cells: Vec<(usize, usize)>,
    /// `missed_by_dcap[d]` = bitmask (over global cell indices) of this
    /// level's cells with `ways < d`, for `d` in `0..=cap + 1` — the
    /// cells that miss an access at capped distance `d`, and equally
    /// the cells where a line at capped stack position `d` is no longer
    /// resident.
    missed_by_dcap: Vec<Vec<u64>>,
    /// Capped-distance histogram per access kind: `hist[d][kind]`,
    /// `d` in `1..=cap + 1`. Depth-1 accesses the walk skipped are
    /// folded into `hist[1]` by [`OnePassEngine::finish`].
    hist: Vec<[u64; 3]>,
    /// Per access kind, walks that stopped here because the line was at
    /// depth 1: every finer level was skipped at depth 1 too.
    early_exits: [u64; 3],
    recency: Recency,
}

impl Level {
    fn new(sets: usize, cells: Vec<(usize, usize)>, words_per_line: usize) -> Level {
        let cap = cells.last().map_or(1, |&(_, w)| w);
        let mut missed_by_dcap = vec![vec![0u64; words_per_line]; cap + 2];
        for (d, mask) in missed_by_dcap.iter_mut().enumerate() {
            for &(ci, w) in &cells {
                if w < d {
                    mask[ci / 64] |= 1u64 << (ci % 64);
                }
            }
        }
        let recency = if sets == 1 {
            Recency::Bounded(BoundedLru::new(cells.iter().map(|&(_, w)| w), cap))
        } else {
            Recency::Scan {
                tops: vec![u32::MAX; sets * cap],
                occupancy: vec![0; sets],
            }
        };
        Level {
            set_mask: (sets - 1) as u64,
            cap,
            cells,
            missed_by_dcap,
            hist: vec![[0; 3]; cap + 2],
            early_exits: [0; 3],
            recency,
        }
    }

    /// First access to a line anywhere: push it MRU in its set.
    fn insert_cold(&mut self, line: u64, id: u32) {
        match &mut self.recency {
            Recency::Scan { tops, occupancy } => {
                let set = (line & self.set_mask) as usize;
                let cap = self.cap;
                let top = &mut tops[set * cap..set * cap + cap];
                top.copy_within(0..cap - 1, 1);
                top[0] = id;
                let occ = &mut occupancy[set];
                *occ = (*occ + 1).min(cap as u32);
            }
            Recency::Bounded(list) => list.insert_cold(id),
        }
    }

    /// Re-access of a known line: returns its capped within-set stack
    /// distance (`1..=cap`, `cap + 1` for anything deeper) and moves it
    /// to MRU. The bounded list rounds a distance up to the next way
    /// count, which every cell of the level answers the same way.
    fn observe_warm(&mut self, line: u64, id: u32) -> usize {
        match &mut self.recency {
            Recency::Scan { tops, .. } => {
                let set = (line & self.set_mask) as usize;
                let cap = self.cap;
                let top = &mut tops[set * cap..set * cap + cap];
                let mut found = cap;
                for (i, &slot) in top.iter().enumerate() {
                    if slot == id {
                        found = i;
                        break;
                    }
                }
                if found < cap {
                    top.copy_within(0..found, 1);
                    top[0] = id;
                    found + 1
                } else {
                    // Warm but below the top region: overflow distance.
                    top.copy_within(0..cap - 1, 1);
                    top[0] = id;
                    cap + 1
                }
            }
            Recency::Bounded(list) => list.touch(id),
        }
    }

    /// The line's current capped stack position (`1..=cap`, `cap + 1`
    /// deeper, rounded as in [`observe_warm`](Self::observe_warm)),
    /// read-only; used by the final dirty sweep.
    fn position(&self, line: u64, id: u32) -> usize {
        match &self.recency {
            Recency::Scan { tops, .. } => {
                let set = (line & self.set_mask) as usize;
                let cap = self.cap;
                let top = &tops[set * cap..set * cap + cap];
                match top.iter().position(|&slot| slot == id) {
                    Some(i) => i + 1,
                    None => cap + 1,
                }
            }
            Recency::Bounded(list) => list.position(id),
        }
    }

    /// Lines resident at end per cell: `Σ_sets min(distinct, ways)`.
    fn add_residency(&self, total_lines: usize, resident: &mut [u64]) {
        match &self.recency {
            Recency::Scan { occupancy, .. } => {
                for &occ in occupancy {
                    for &(ci, w) in &self.cells {
                        resident[ci] += u64::from(occ).min(w as u64);
                    }
                }
            }
            Recency::Bounded(_) => {
                for &(ci, w) in &self.cells {
                    resident[ci] += (total_lines as u64).min(w as u64);
                }
            }
        }
    }
}

/// Streaming one-pass engine: feed it a trace once, then
/// [`finish`](OnePassEngine::finish) into an [`OnePassGrid`].
///
/// ```
/// use smith85_cachesim::{one_pass_grid, GridSpec};
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let trace: Vec<MemoryAccess> = (0..10_000u64)
///     .map(|i| MemoryAccess::read(Addr::new((i * 24) % 4096), 4))
///     .collect();
/// let grid = one_pass_grid(&trace, &GridSpec::new(vec![256, 1024], vec![1, 2]))?;
/// assert_eq!(grid.cells().len(), 4);
/// # Ok::<(), smith85_cachesim::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct OnePassEngine {
    line_size: usize,
    write_policy: WritePolicy,
    copy_back: bool,
    cells: Vec<GridCell>,
    levels: Vec<Level>,
    /// Line address → dense id.
    intern: FastHashMap<u64, u32>,
    /// Dense id → line address (for set indexing in the final sweep).
    line_addrs: Vec<u64>,
    /// One bit per (line, cell): line's latest store not yet pushed out
    /// of that cell. Line-major, `words_per_line` words each.
    dirty: Vec<u64>,
    words_per_line: usize,
    all_cells_mask: Vec<u64>,
    /// Scratch: union of per-level missed masks for the current access.
    scratch_missed: Vec<u64>,
    /// Scratch: capped distance per walked level for the current access.
    dcaps: Vec<u32>,
    /// Dirty pushes counted so far per cell (deferred accounting).
    cell_dirty_pushes: Vec<u64>,
    /// The previous reference's line and interned id.
    prev: Option<(u64, u32)>,
    /// Per access kind, references to the previous reference's line:
    /// depth 1 at every level, folded into each `hist[1]` at the end.
    repeats: [u64; 3],
    cold: [u64; 3],
    refs: [u64; 3],
    bytes_demanded: u64,
    bytes_written_through: u64,
}

impl OnePassEngine {
    /// Builds an engine for `spec`.
    ///
    /// # Errors
    ///
    /// Rejects non-power-of-two sizes/ways/line, sizes smaller than one
    /// line, and requests outside the one-pass envelope (write-through
    /// without allocate, or a grid with no realizable cell).
    pub fn new(spec: &GridSpec) -> Result<Self, ConfigError> {
        let line = spec.line_size;
        if line == 0 || !line.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                value: line,
            });
        }
        if let WritePolicy::WriteThrough { allocate: false } = spec.write_policy {
            return Err(ConfigError::OnePassUnsupported {
                what: "write-through without allocate (write misses do not \
                       insert, so LRU stack inclusion does not hold)",
            });
        }
        if spec.replacement != Replacement::Lru {
            return Err(ConfigError::OnePassUnsupported {
                what: "a non-LRU replacement policy (Mattson stack inclusion \
                       only holds for LRU; use the per-configuration \
                       simulators for FIFO/random/PLRU grids)",
            });
        }
        for &w in &spec.ways {
            if w == 0 || !w.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo {
                    what: "associativity",
                    value: w,
                });
            }
        }
        let mut cells: Vec<GridCell> = Vec::new();
        for &size in &spec.sizes {
            if size == 0 || !size.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo {
                    what: "cache size",
                    value: size,
                });
            }
            if size < line {
                return Err(ConfigError::CacheSmallerThanLine { cache: size, line });
            }
            let lines = size / line;
            let mut push = |ways: usize| {
                if !cells.iter().any(|c| c.size_bytes == size && c.ways == ways) {
                    cells.push(GridCell {
                        size_bytes: size,
                        ways,
                        sets: lines / ways,
                    });
                }
            };
            for &w in &spec.ways {
                if w <= lines {
                    push(w);
                }
            }
            if spec.include_fully_associative {
                push(lines);
            }
        }
        if cells.is_empty() {
            return Err(ConfigError::OnePassUnsupported {
                what: "an empty grid (no size admits any requested associativity)",
            });
        }
        cells.sort_by_key(|c| (c.size_bytes, c.ways));
        let words_per_line = cells.len().div_ceil(64);

        // Group cells by set count into levels.
        let mut set_counts: Vec<usize> = cells.iter().map(|c| c.sets).collect();
        set_counts.sort_unstable();
        set_counts.dedup();
        let levels = set_counts
            .iter()
            .map(|&sets| {
                let mut members: Vec<(usize, usize)> = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.sets == sets)
                    .map(|(ci, c)| (ci, c.ways))
                    .collect();
                members.sort_by_key(|&(_, w)| w);
                Level::new(sets, members, words_per_line)
            })
            .collect::<Vec<_>>();

        let mut all_cells_mask = vec![0u64; words_per_line];
        for ci in 0..cells.len() {
            all_cells_mask[ci / 64] |= 1u64 << (ci % 64);
        }
        let copy_back = matches!(spec.write_policy, WritePolicy::CopyBack { .. });
        Ok(OnePassEngine {
            line_size: line,
            write_policy: spec.write_policy,
            copy_back,
            cell_dirty_pushes: vec![0; cells.len()],
            dcaps: vec![0; levels.len()],
            cells,
            levels,
            intern: FastHashMap::default(),
            line_addrs: Vec::new(),
            dirty: Vec::new(),
            words_per_line,
            all_cells_mask,
            scratch_missed: vec![0; words_per_line],
            prev: None,
            repeats: [0; 3],
            cold: [0; 3],
            refs: [0; 3],
            bytes_demanded: 0,
            bytes_written_through: 0,
        })
    }

    /// The realized cells, in result order.
    pub fn cells(&self) -> &[GridCell] {
        &self.cells
    }

    /// Processes one reference.
    pub fn observe(&mut self, access: MemoryAccess) {
        self.step(
            access.line(self.line_size).get(),
            access.kind,
            access.size,
        );
    }

    /// Processes a contiguous slice of references.
    ///
    /// The hot path: references are staged chunk-wise into
    /// struct-of-arrays buffers (line number, kind index, size split
    /// apart) so the address arithmetic vectorizes and the per-level
    /// walks run over plain scalars.
    pub fn observe_slice(&mut self, trace: &[MemoryAccess]) {
        const CHUNK: usize = 1024;
        let shift = self.line_size.trailing_zeros();
        let mut lines = [0u64; CHUNK];
        let mut kinds = [0u8; CHUNK];
        let mut sizes = [0u8; CHUNK];
        for chunk in trace.chunks(CHUNK) {
            for (i, a) in chunk.iter().enumerate() {
                lines[i] = a.addr.get() >> shift;
                kinds[i] = a.kind.index() as u8;
                sizes[i] = a.size;
            }
            for i in 0..chunk.len() {
                self.step(
                    lines[i],
                    AccessKind::ALL[kinds[i] as usize],
                    sizes[i],
                );
            }
        }
    }

    fn step(&mut self, line: u64, kind: AccessKind, size: u8) {
        let kidx = kind.index();
        self.refs[kidx] += 1;
        self.bytes_demanded += u64::from(size);
        let is_write = kind == AccessKind::Write;
        if is_write && !self.copy_back {
            self.bytes_written_through += u64::from(size);
        }

        if let Some((prev_line, prev_id)) = self.prev {
            if prev_line == line {
                // Repeat: the line is MRU in its set at every level, so
                // every cell hits and no recency changes. A write leaves
                // every copy dirty; a read changes nothing, since no cell
                // misses at depth 1.
                self.repeats[kidx] += 1;
                if is_write && self.copy_back {
                    let base = prev_id as usize * self.words_per_line;
                    self.dirty[base..base + self.words_per_line]
                        .copy_from_slice(&self.all_cells_mask);
                }
                return;
            }
        }

        let next_id = self.line_addrs.len() as u32;
        let id = *self.intern.entry(line).or_insert(next_id);
        self.prev = Some((line, id));
        if id == next_id {
            // Line `id` is node `id + 1` of a single-set level's list,
            // after its sentinel, and node indices are `u32`.
            assert!(
                self.line_addrs.len() < u32::MAX as usize,
                "one-pass engine: distinct-line count reached u32::MAX"
            );
            // Cold: first touch anywhere. Every cell misses; no walk
            // needed, the line simply becomes MRU at every level.
            self.cold[kidx] += 1;
            self.line_addrs.push(line);
            for level in &mut self.levels {
                level.insert_cold(line, id);
            }
            if self.copy_back {
                if is_write {
                    self.dirty.extend_from_slice(&self.all_cells_mask);
                } else {
                    self.dirty.resize(self.dirty.len() + self.words_per_line, 0);
                }
            }
            return;
        }

        // Coarse to fine. Each set of a finer level lies inside one set
        // of every coarser level, so the line's depth can only shrink
        // down the walk: once it is 1, it is 1 at every finer level,
        // whose recency is then already right and whose cells all hit.
        let mut walked = 0;
        for level in &mut self.levels {
            let dcap = level.observe_warm(line, id);
            level.hist[dcap][kidx] += 1;
            self.dcaps[walked] = dcap as u32;
            walked += 1;
            if dcap == 1 {
                level.early_exits[kidx] += 1;
                break;
            }
        }

        if self.copy_back {
            let base = id as usize * self.words_per_line;
            let words = base..base + self.words_per_line;
            let has_dirty = self.dirty[words.clone()].iter().any(|&w| w != 0);
            if has_dirty {
                // The line carries unpushed stores somewhere. Cells
                // missing this access evicted it (dirty) since then:
                // count those pushes now, then settle the bits — a
                // read refills missed cells clean, a write leaves
                // every copy dirty again. Skipped levels miss nothing.
                self.scratch_missed.fill(0);
                for (level, &dcap) in self.levels.iter().zip(&self.dcaps[..walked]) {
                    let mask = &level.missed_by_dcap[dcap as usize];
                    for (acc, &m) in self.scratch_missed.iter_mut().zip(mask) {
                        *acc |= m;
                    }
                }
                for (wi, (&d, &m)) in self.dirty[words.clone()]
                    .iter()
                    .zip(&self.scratch_missed)
                    .enumerate()
                {
                    let mut bits = d & m;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        self.cell_dirty_pushes[wi * 64 + b] += 1;
                        bits &= bits - 1;
                    }
                }
                if is_write {
                    self.dirty[words].copy_from_slice(&self.all_cells_mask);
                } else {
                    for (d, &m) in self.dirty[words].iter_mut().zip(&self.scratch_missed) {
                        *d &= !m;
                    }
                }
            } else if is_write {
                self.dirty[words].copy_from_slice(&self.all_cells_mask);
            }
        }
    }

    /// Folds the histograms into per-cell [`CacheStats`].
    pub fn finish(mut self) -> OnePassGrid {
        // Depth-1 accesses no walk recorded: repeats at every level, and
        // early exits at every level finer than the one they stopped at.
        let mut carry = self.repeats;
        for level in &mut self.levels {
            for (k, c) in carry.iter_mut().enumerate() {
                level.hist[1][k] += *c;
                *c += level.early_exits[k];
                debug_assert_eq!(
                    level.hist.iter().map(|h| h[k]).sum::<u64>() + self.cold[k],
                    self.refs[k],
                    "every warm reference lands in each level's histogram once"
                );
            }
        }

        let n_cells = self.cells.len();
        let total_lines = self.line_addrs.len();
        let mut dirty_pushes = self.cell_dirty_pushes;

        // Lines that end dirty but not resident in some cell were
        // evicted dirty after their last store — pushes not yet
        // counted by the deferred accounting.
        if self.copy_back {
            for (id, words) in self.dirty.chunks_exact(self.words_per_line).enumerate() {
                if words.iter().all(|&w| w == 0) {
                    continue;
                }
                let line = self.line_addrs[id];
                for level in &self.levels {
                    let pos = level.position(line, id as u32);
                    let gone = &level.missed_by_dcap[pos];
                    for (wi, (&d, &g)) in words.iter().zip(gone).enumerate() {
                        let mut bits = d & g;
                        while bits != 0 {
                            let b = bits.trailing_zeros() as usize;
                            dirty_pushes[wi * 64 + b] += 1;
                            bits &= bits - 1;
                        }
                    }
                }
            }
        }

        let mut resident = vec![0u64; n_cells];
        for level in &self.levels {
            level.add_residency(total_lines, &mut resident);
        }

        let mut stats = vec![CacheStats::new(); n_cells];
        let line_bytes = self.line_size as u64;
        for level in &self.levels {
            // suffix[d][k] = accesses of kind k at capped distance >= d.
            let mut suffix = vec![[0u64; 3]; level.cap + 3];
            for d in (1..=level.cap + 1).rev() {
                let next = suffix[d + 1];
                for (k, slot) in suffix[d].iter_mut().enumerate() {
                    *slot = next[k] + level.hist[d][k];
                }
            }
            for &(ci, ways) in &level.cells {
                let s = &mut stats[ci];
                let mut misses = [0u64; 3];
                let mut total_misses = 0;
                for kind in AccessKind::ALL {
                    let k = kind.index();
                    let m = self.cold[k] + suffix[ways + 1][k];
                    misses[k] = m;
                    total_misses += m;
                    s.add_refs(kind, self.refs[k]);
                    s.add_misses(kind, m);
                }
                s.bytes_demanded = self.bytes_demanded;
                s.demand_fetches = match self.write_policy {
                    WritePolicy::CopyBack {
                        fetch_on_write: false,
                    } => {
                        misses[AccessKind::InstructionFetch.index()]
                            + misses[AccessKind::Read.index()]
                    }
                    _ => total_misses,
                };
                s.bytes_fetched = s.demand_fetches * line_bytes;
                s.pushes = total_misses - resident[ci];
                s.dirty_pushes = dirty_pushes[ci];
                s.bytes_pushed = dirty_pushes[ci] * line_bytes;
                s.bytes_written_through = if self.copy_back {
                    0
                } else {
                    self.bytes_written_through
                };
            }
        }
        OnePassGrid {
            line_size: self.line_size,
            write_policy: self.write_policy,
            cells: self.cells,
            stats,
        }
    }
}

/// Runs one pass of `trace` through a fresh engine for `spec`.
///
/// # Errors
///
/// Returns the [`GridSpec`] validation errors of
/// [`OnePassEngine::new`].
pub fn one_pass_grid(trace: &[MemoryAccess], spec: &GridSpec) -> Result<OnePassGrid, ConfigError> {
    let mut engine = OnePassEngine::new(spec)?;
    engine.observe_slice(trace);
    Ok(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_trace::Addr;

    fn read(addr: u64) -> MemoryAccess {
        MemoryAccess::read(Addr::new(addr), 4)
    }

    fn write(addr: u64) -> MemoryAccess {
        MemoryAccess::write(Addr::new(addr), 4)
    }

    #[test]
    fn paper_grid_realizes_54_cells() {
        let engine = OnePassEngine::new(&GridSpec::paper_grid()).unwrap();
        // 32B: {1,2}; 64B: {1,2,4}; 128B: {1,2,4,8}; nine larger sizes:
        // {1,2,4,8} + one distinct fully-associative point each.
        assert_eq!(engine.cells().len(), 54);
        let cells = engine.cells();
        assert!(cells.windows(2).all(|w| (w[0].size_bytes, w[0].ways)
            < (w[1].size_bytes, w[1].ways)));
        for c in cells {
            assert_eq!(c.sets * c.ways * 16, c.size_bytes);
        }
    }

    #[test]
    fn rejects_write_through_without_allocate() {
        let mut spec = GridSpec::new(vec![256], vec![1]);
        spec.write_policy = WritePolicy::WriteThrough { allocate: false };
        match OnePassEngine::new(&spec) {
            Err(ConfigError::OnePassUnsupported { .. }) => {}
            other => panic!("expected OnePassUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_grid_and_bad_shapes() {
        assert!(matches!(
            OnePassEngine::new(&GridSpec::new(vec![32], vec![4])),
            Err(ConfigError::OnePassUnsupported { .. })
        ));
        assert!(matches!(
            OnePassEngine::new(&GridSpec::new(vec![96], vec![1])),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            OnePassEngine::new(&GridSpec::new(vec![256], vec![3])),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            OnePassEngine::new(&GridSpec::new(vec![8], vec![1])),
            Err(ConfigError::CacheSmallerThanLine { .. })
        ));
    }

    #[test]
    fn oversized_ways_are_skipped_not_fatal() {
        let engine = OnePassEngine::new(&GridSpec::new(vec![32, 256], vec![1, 8])).unwrap();
        let cells: Vec<_> = engine.cells().iter().map(|c| (c.size_bytes, c.ways)).collect();
        assert_eq!(cells, vec![(32, 1), (256, 1), (256, 8)]);
    }

    #[test]
    fn tiny_trace_by_hand() {
        // 32B cache, 16B lines, direct-mapped: lines 0 and 2 collide in
        // set 0; line 1 sits alone in set 1.
        let trace = [read(0x00), read(0x10), read(0x20), read(0x00), write(0x10)];
        let grid = one_pass_grid(&trace, &GridSpec::new(vec![32], vec![1, 2])).unwrap();
        let dm = grid.cell_stats(32, 1).unwrap();
        // 0 cold, 1 cold, 2 cold (evicts 0), 0 miss (evicts 2), 1 hit.
        assert_eq!(dm.total_misses(), 4);
        assert_eq!(dm.pushes, 2);
        assert_eq!(dm.dirty_pushes, 0);
        let fa = grid.cell_stats(32, 2).unwrap();
        // 2-way full: 0 cold, 1 cold, 2 cold (evicts 0), 0 miss
        // (evicts 1), then the write to 1 misses again (evicts 2).
        assert_eq!(fa.total_misses(), 5);
        assert_eq!(fa.pushes, 3);
        assert_eq!(fa.dirty_pushes, 0);
        assert_eq!(dm.refs(AccessKind::Write), 1);
    }

    #[test]
    fn dirty_line_ending_resident_is_not_pushed() {
        let trace = [write(0x00), read(0x10)];
        let grid = one_pass_grid(&trace, &GridSpec::new(vec![64], vec![2])).unwrap();
        let s = grid.cell_stats(64, 2).unwrap();
        assert_eq!(s.total_misses(), 2);
        assert_eq!(s.pushes, 0);
        assert_eq!(s.dirty_pushes, 0);
    }

    #[test]
    fn dirty_eviction_is_counted_once() {
        // One-line cache: write 0, evict it with 1, re-read 0, evict
        // with 1 again (clean this time).
        let trace = [write(0x00), read(0x10), read(0x00), read(0x10)];
        let grid = one_pass_grid(&trace, &GridSpec::new(vec![16], vec![1])).unwrap();
        let s = grid.cell_stats(16, 1).unwrap();
        assert_eq!(s.total_misses(), 4);
        assert_eq!(s.pushes, 3);
        assert_eq!(s.dirty_pushes, 1);
        assert_eq!(s.bytes_pushed, 16);
    }

    #[test]
    fn final_sweep_counts_evicted_dirty_lines() {
        // Write 0, then stream enough lines through the one-line cache
        // that 0 is long gone and never re-touched.
        let trace = [write(0x00), read(0x10), read(0x20), read(0x30)];
        let grid = one_pass_grid(&trace, &GridSpec::new(vec![16], vec![1])).unwrap();
        let s = grid.cell_stats(16, 1).unwrap();
        assert_eq!(s.dirty_pushes, 1);
        assert_eq!(s.pushes, 3);
    }

    #[test]
    fn write_through_accumulates_store_bytes_everywhere() {
        let mut spec = GridSpec::new(vec![32, 64], vec![1, 2]);
        spec.write_policy = WritePolicy::WriteThrough { allocate: true };
        let trace = [write(0x00), read(0x10), write(0x00), write(0x20)];
        let grid = one_pass_grid(&trace, &spec).unwrap();
        for (_, s) in grid.iter() {
            assert_eq!(s.bytes_written_through, 12);
            assert_eq!(s.dirty_pushes, 0);
            assert_eq!(s.bytes_pushed, 0);
        }
    }

    #[test]
    fn single_set_level_drops_and_readmits_lines() {
        // One single-set level with bounds 1, 2 and 4. A loop over 97
        // lines pushes every line off the 4-line list; a loop over 3 of
        // them then brings them back, and only the 4-line cell keeps
        // them after the first round.
        let mut spec = GridSpec::new(vec![16, 32, 64], vec![]);
        spec.include_fully_associative = true;
        let mut engine = OnePassEngine::new(&spec).unwrap();
        for i in 0..1500u64 {
            engine.observe(read((i % 97) * 16));
        }
        for i in 0..1500u64 {
            engine.observe(read((i % 3) * 16));
        }
        let grid = engine.finish();
        assert_eq!(grid.cell_stats(16, 1).unwrap().total_misses(), 3000);
        assert_eq!(grid.cell_stats(32, 2).unwrap().total_misses(), 3000);
        assert_eq!(grid.cell_stats(64, 4).unwrap().total_misses(), 1503);
    }

    #[test]
    fn accessors_answer_the_grid() {
        let trace: Vec<MemoryAccess> = (0..500u64).map(|i| read((i * 40) % 2048)).collect();
        let grid = one_pass_grid(&trace, &GridSpec::new(vec![256, 512], vec![2])).unwrap();
        assert!(grid.miss_ratio(256, 2).unwrap() >= grid.miss_ratio(512, 2).unwrap());
        assert!(grid.cell_stats(512, 4).is_none());
        assert_eq!(grid.line_size(), 16);
        assert_eq!(grid.write_policy(), WritePolicy::PAPER);
    }
}
