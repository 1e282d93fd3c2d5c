//! The synthetic instruction-stream model.
//!
//! Code is laid out as a set of procedures in a bounded code region.
//! Execution walks the program counter sequentially in instruction-size
//! steps; at the end of each (geometrically distributed) run it takes a
//! *successful branch*: a return, a call to a Zipf-hot procedure, a short
//! backward loop jump, or a local forward skip. The knobs map directly onto
//! the paper's Table 2 columns: run length ↔ %Branch, code region size ↔
//! #Ilines, procedure Zipf skew ↔ instruction-cache miss-ratio curve.

use crate::dist::{derive_seed, Geometric, ZipfRanks};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the instruction-stream model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrParams {
    /// Base address of the code region.
    pub code_base: u64,
    /// Size of the code region in bytes (the instruction footprint target).
    pub code_bytes: u64,
    /// Average instruction length in bytes (also the fetch step).
    pub instr_bytes: u64,
    /// Mean number of instructions executed between successful branches.
    pub mean_run: f64,
    /// Zipf skew over procedures: higher concentrates execution in fewer
    /// procedures (tighter instruction locality).
    pub proc_alpha: f64,
    /// Average procedure size in bytes.
    pub proc_bytes: u64,
    /// At a branch: probability it is a procedure call.
    pub call_prob: f64,
    /// At a branch: probability it is a return (when the stack is
    /// non-empty).
    pub return_prob: f64,
    /// At a branch: probability it is a short backward loop jump.
    pub loop_prob: f64,
}

impl InstrParams {
    fn validate(&self) {
        assert!(self.code_bytes >= self.proc_bytes, "code region smaller than one procedure");
        assert!(self.instr_bytes > 0, "instructions must have nonzero length");
        assert!(self.proc_bytes >= self.instr_bytes, "procedure smaller than one instruction");
        assert!(self.mean_run >= 1.0, "mean run must be at least one instruction");
        let p = self.call_prob + self.return_prob + self.loop_prob;
        assert!(
            (0.0..=1.0).contains(&p),
            "branch kind probabilities must sum to <= 1, got {p}"
        );
    }
}

/// Stateful generator of instruction-fetch addresses.
#[derive(Debug, Clone)]
pub struct InstrModel {
    params: InstrParams,
    procs: ZipfRanks,
    run: Geometric,
    loop_span: Geometric,
    rng: SmallRng,
    pc: u64,
    proc_start: u64,
    proc_end: u64,
    to_next_branch: u64,
    call_stack: Vec<(u64, u64, u64)>,
}

/// Depth bound on the simulated call stack (beyond it, calls behave like
/// jumps, which keeps recursion from growing without bound).
const MAX_CALL_DEPTH: usize = 64;

impl InstrModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (see source for the
    /// individual assertions).
    pub fn new(params: InstrParams, seed: u64) -> Self {
        params.validate();
        let n_procs = (params.code_bytes / params.proc_bytes).max(1) as usize;
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x1757));
        let procs = ZipfRanks::new(n_procs, params.proc_alpha);
        let run = Geometric::with_mean(params.mean_run);
        let loop_span = Geometric::with_mean(4.0);
        let first = procs.sample(&mut rng);
        let (proc_start, proc_end) = proc_bounds(&params, first);
        let to_next_branch = run.sample(&mut rng);
        InstrModel {
            params,
            procs,
            run,
            loop_span,
            rng,
            pc: proc_start,
            proc_start,
            proc_end,
            to_next_branch,
            call_stack: Vec::new(),
        }
    }

    /// Address of the next instruction fetch.
    pub fn next_fetch(&mut self) -> u64 {
        if self.to_next_branch == 0 {
            self.branch();
            self.to_next_branch = self.run.sample(&mut self.rng);
        }
        self.to_next_branch -= 1;
        let fetch = self.pc;
        self.pc += self.params.instr_bytes;
        if self.pc >= self.proc_end {
            // Fell off the end of the procedure: wrap to its start (a
            // backward branch, in effect — real code returns or loops).
            self.pc = self.proc_start;
        }
        fetch
    }

    /// Fetch size in bytes.
    pub fn fetch_bytes(&self) -> u8 {
        self.params.instr_bytes.min(u8::MAX as u64) as u8
    }

    fn branch(&mut self) {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let p = &self.params;
        if u < p.return_prob {
            if let Some((pc, start, end)) = self.call_stack.pop() {
                self.pc = pc;
                self.proc_start = start;
                self.proc_end = end;
                return;
            }
            // Empty stack: fall through to a call instead.
            self.call(true);
        } else if u < p.return_prob + p.call_prob {
            self.call(false);
        } else if u < p.return_prob + p.call_prob + p.loop_prob {
            // Backward loop jump within the procedure.
            let span = self.loop_span.sample(&mut self.rng) * p.instr_bytes * 4;
            self.pc = self.pc.saturating_sub(span).max(self.proc_start);
        } else {
            // Local forward skip (an if/else or case jump).
            let span = self.loop_span.sample(&mut self.rng) * p.instr_bytes * 2;
            self.pc += span;
            if self.pc >= self.proc_end {
                self.pc = self.proc_start;
            }
        }
    }

    fn call(&mut self, tail: bool) {
        let target = self.procs.sample(&mut self.rng);
        let (start, end) = proc_bounds(&self.params, target);
        if !tail && self.call_stack.len() < MAX_CALL_DEPTH {
            self.call_stack
                .push((self.pc, self.proc_start, self.proc_end));
        }
        self.pc = start;
        self.proc_start = start;
        self.proc_end = end;
    }
}

fn proc_bounds(params: &InstrParams, index: usize) -> (u64, u64) {
    let start = params.code_base + index as u64 * params.proc_bytes;
    (start, start + params.proc_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_trace::stats::TraceCharacterizer;
    use smith85_trace::{Addr, MemoryAccess};

    fn params() -> InstrParams {
        InstrParams {
            code_base: 0x1_0000,
            code_bytes: 8 * 1024,
            instr_bytes: 4,
            mean_run: 6.0,
            proc_alpha: 0.9,
            proc_bytes: 256,
            call_prob: 0.25,
            return_prob: 0.2,
            loop_prob: 0.35,
        }
    }

    fn characterize(params: InstrParams, seed: u64, n: usize) -> smith85_trace::stats::TraceCharacteristics {
        let mut m = InstrModel::new(params, seed);
        let size = m.fetch_bytes();
        let mut c = TraceCharacterizer::new();
        for _ in 0..n {
            c.observe(MemoryAccess::ifetch(Addr::new(m.next_fetch()), size));
        }
        c.finish()
    }

    #[test]
    fn addresses_stay_in_code_region() {
        let p = params();
        let mut m = InstrModel::new(p, 7);
        for _ in 0..50_000 {
            let a = m.next_fetch();
            assert!(a >= p.code_base && a < p.code_base + p.code_bytes, "pc {a:#x} escaped");
        }
    }

    #[test]
    fn branch_fraction_tracks_mean_run() {
        // mean run 6 → roughly 1/6 ≈ 17% branches (the >8-byte heuristic
        // misses some short skips and adds wrap-around jumps; allow slack).
        let s = characterize(params(), 11, 60_000);
        let b = s.branch_fraction();
        assert!((0.10..=0.28).contains(&b), "branch fraction {b}");
    }

    #[test]
    fn longer_runs_mean_fewer_branches() {
        let mut long = params();
        long.mean_run = 24.0;
        let short = characterize(params(), 3, 40_000);
        let sparse = characterize(long, 3, 40_000);
        assert!(sparse.branch_fraction() < short.branch_fraction());
    }

    #[test]
    fn footprint_approaches_code_region() {
        let p = params();
        let s = characterize(p, 5, 200_000);
        let touched = s.instruction_lines() * 16;
        // Zipf has a long tail; most of the region should be touched
        // eventually but the coldest procedures may not be.
        assert!(
            touched as f64 > 0.35 * p.code_bytes as f64,
            "only {touched} of {} bytes touched",
            p.code_bytes
        );
        assert!(touched <= p.code_bytes);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = InstrModel::new(params(), 9);
        let mut b = InstrModel::new(params(), 9);
        for _ in 0..1000 {
            assert_eq!(a.next_fetch(), b.next_fetch());
        }
        let mut c = InstrModel::new(params(), 10);
        let same = (0..1000).all(|_| a.next_fetch() == c.next_fetch());
        assert!(!same);
    }

    #[test]
    fn call_stack_is_bounded() {
        let mut p = params();
        p.call_prob = 0.6;
        p.return_prob = 0.0;
        p.loop_prob = 0.1;
        let mut m = InstrModel::new(p, 1);
        for _ in 0..100_000 {
            m.next_fetch();
        }
        assert!(m.call_stack.len() <= MAX_CALL_DEPTH);
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn rejects_bad_probabilities() {
        let mut p = params();
        p.call_prob = 0.9;
        p.loop_prob = 0.9;
        let _ = InstrModel::new(p, 0);
    }
}
