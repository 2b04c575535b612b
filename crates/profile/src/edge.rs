//! Edge (point) profiling.
//!
//! Records, per procedure, the execution frequency of every basic block and
//! every traversed CFG edge. Edge profiles aggregate information about each
//! program point independently; Figure 1 of the paper shows why this loses
//! the trace-completion information that path profiles retain.

use pps_ir::{BlockId, ProcId, Program, TraceSink};
use std::collections::HashMap;

/// Live edge-profile collector. Attach to
/// [`Interp::run_traced`](pps_ir::interp::Interp::run_traced), then call
/// [`finish`](Self::finish).
///
/// The hot path is counter-indexed, not hashed: every traversed edge in a
/// well-formed program is a static CFG edge, so each block carries a dense
/// per-successor counter and an edge event is a short scan of the (tiny)
/// successor list. Edges outside the static CFG — possible only in
/// corrupted programs — fall back to a hash map so the observable counts
/// stay exact for any input.
#[derive(Debug)]
pub struct EdgeProfiler {
    tables: Vec<EdgeTable>,
    /// Dynamic edge events observed (across all procedures).
    dyn_edges: u64,
}

/// "No previous block": the activation has not entered a block yet.
const NO_PREV: u32 = u32::MAX;

/// One procedure's counters, in flat arrays.
#[derive(Debug)]
struct EdgeTable {
    block_freq: Vec<u64>,
    /// Block `b`'s static successors are `succ_to[succ_start[b]..succ_start[b + 1]]`,
    /// in terminator order, counted in the parallel `succ_count`.
    succ_start: Vec<u32>,
    succ_to: Vec<BlockId>,
    succ_count: Vec<u64>,
    /// Traversed edges not present in the static CFG.
    overflow: HashMap<(BlockId, BlockId), u64>,
    /// Previous block index of each live activation (`NO_PREV` before the
    /// first block).
    prev: Vec<u32>,
}

impl EdgeTable {
    fn new(proc: &pps_ir::Proc) -> Self {
        let mut succ_start = vec![0u32];
        let mut succ_to = Vec::new();
        for b in &proc.blocks {
            succ_to.extend(b.term.successors());
            succ_start.push(succ_to.len() as u32);
        }
        EdgeTable {
            block_freq: vec![0; proc.blocks.len()],
            succ_count: vec![0; succ_to.len()],
            succ_start,
            succ_to,
            overflow: HashMap::new(),
            prev: Vec::new(),
        }
    }

    /// All traversed edges with their counts.
    fn into_edge_freq(self) -> HashMap<(BlockId, BlockId), u64> {
        let mut m = self.overflow;
        for (from, range) in self.succ_start.windows(2).enumerate() {
            for i in range[0] as usize..range[1] as usize {
                if self.succ_count[i] > 0 {
                    *m.entry((BlockId::new(from as u32), self.succ_to[i])).or_insert(0) +=
                        self.succ_count[i];
                }
            }
        }
        m
    }
}

impl EdgeProfiler {
    /// Creates a collector sized for `program`.
    pub fn new(program: &Program) -> Self {
        EdgeProfiler { tables: program.procs.iter().map(EdgeTable::new).collect(), dyn_edges: 0 }
    }

    /// Freezes the collected counts into an [`EdgeProfile`].
    pub fn finish(self) -> EdgeProfile {
        let (block_freq, edge_freq) = self
            .tables
            .into_iter()
            .map(|mut t| (std::mem::take(&mut t.block_freq), t.into_edge_freq()))
            .unzip();
        EdgeProfile { block_freq, edge_freq, dyn_edges: self.dyn_edges }
    }
}

impl TraceSink for EdgeProfiler {
    fn enter_proc(&mut self, proc: ProcId) {
        self.tables[proc.index()].prev.push(NO_PREV);
    }

    fn exit_proc(&mut self, proc: ProcId) {
        self.tables[proc.index()].prev.pop();
    }

    fn block(&mut self, proc: ProcId, block: BlockId) {
        let t = &mut self.tables[proc.index()];
        t.block_freq[block.index()] += 1;
        let slot = t.prev.last_mut().expect("activation exists");
        let prev = std::mem::replace(slot, block.index() as u32);
        if prev != NO_PREV {
            let (lo, hi) = (t.succ_start[prev as usize], t.succ_start[prev as usize + 1]);
            match t.succ_to[lo as usize..hi as usize].iter().position(|&to| to == block) {
                Some(i) => t.succ_count[lo as usize + i] += 1,
                None => *t.overflow.entry((BlockId::new(prev), block)).or_insert(0) += 1,
            }
            self.dyn_edges += 1;
        }
    }
}

/// A frozen edge profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeProfile {
    block_freq: Vec<Vec<u64>>,
    edge_freq: Vec<HashMap<(BlockId, BlockId), u64>>,
    dyn_edges: u64,
}

impl EdgeProfile {
    /// Execution frequency of `block` in `proc`.
    pub fn block_freq(&self, proc: ProcId, block: BlockId) -> u64 {
        self.block_freq[proc.index()][block.index()]
    }

    /// Traversal frequency of the edge `from → to` in `proc`.
    pub fn edge_freq(&self, proc: ProcId, from: BlockId, to: BlockId) -> u64 {
        self.edge_freq[proc.index()]
            .get(&(from, to))
            .copied()
            .unwrap_or(0)
    }

    /// All outgoing edges of `from` with non-zero frequency, unordered.
    pub fn out_edges(&self, proc: ProcId, from: BlockId) -> Vec<(BlockId, u64)> {
        self.edge_freq[proc.index()]
            .iter()
            .filter(|((a, _), _)| *a == from)
            .map(|((_, b), f)| (*b, *f))
            .collect()
    }

    /// All incoming edges of `to` with non-zero frequency, unordered.
    pub fn in_edges(&self, proc: ProcId, to: BlockId) -> Vec<(BlockId, u64)> {
        self.edge_freq[proc.index()]
            .iter()
            .filter(|((_, b), _)| *b == to)
            .map(|((a, _), f)| (*a, *f))
            .collect()
    }

    /// The most frequent successor of `from` among actual CFG successors,
    /// with its frequency (ties broken toward the smaller block id for
    /// determinism). Returns `None` when no outgoing edge executed.
    pub fn most_likely_successor(&self, proc: ProcId, from: BlockId) -> Option<(BlockId, u64)> {
        let mut best: Option<(BlockId, u64)> = None;
        for (b, f) in self.out_edges(proc, from) {
            best = Some(match best {
                None => (b, f),
                Some((bb, bf)) => {
                    if f > bf || (f == bf && b < bb) {
                        (b, f)
                    } else {
                        (bb, bf)
                    }
                }
            });
        }
        best
    }

    /// The most frequent predecessor of `to`, with its frequency.
    pub fn most_likely_predecessor(&self, proc: ProcId, to: BlockId) -> Option<(BlockId, u64)> {
        let mut best: Option<(BlockId, u64)> = None;
        for (b, f) in self.in_edges(proc, to) {
            best = Some(match best {
                None => (b, f),
                Some((bb, bf)) => {
                    if f > bf || (f == bf && b < bb) {
                        (b, f)
                    } else {
                        (bb, bf)
                    }
                }
            });
        }
        best
    }

    /// Blocks of `proc` sorted by descending frequency (then ascending id),
    /// excluding never-executed blocks.
    pub fn blocks_by_freq(&self, proc: ProcId) -> Vec<(BlockId, u64)> {
        let mut v: Vec<(BlockId, u64)> = self.block_freq[proc.index()]
            .iter()
            .enumerate()
            .filter(|(_, f)| **f > 0)
            .map(|(i, f)| (BlockId::new(i as u32), *f))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Total dynamic intra-procedural edge events observed.
    pub fn dyn_edges(&self) -> u64 {
        self.dyn_edges
    }

    /// Number of procedures covered.
    pub fn num_procs(&self) -> usize {
        self.block_freq.len()
    }

    /// Number of blocks tracked for `proc`.
    pub fn num_blocks(&self, proc: ProcId) -> usize {
        self.block_freq[proc.index()].len()
    }

    /// Iterates all edges of `proc` with non-zero frequency.
    pub fn iter_edges(&self, proc: ProcId) -> impl Iterator<Item = ((BlockId, BlockId), u64)> + '_ {
        self.edge_freq[proc.index()].iter().map(|(&k, &v)| (k, v))
    }

    /// Records profile summary metrics into `obs`: total dynamic edge
    /// events and procedures covered, as `profile.edge.*` counters.
    pub fn record_metrics(&self, obs: &pps_obs::Obs) {
        obs.counter("profile.edge.dyn_edges", self.dyn_edges);
        obs.counter("profile.edge.procs", self.num_procs() as u64);
    }

    /// Reconstructs a profile from raw counts (profile deserialization).
    pub fn from_counts(
        block_freq: Vec<Vec<u64>>,
        edge_freq: Vec<HashMap<(BlockId, BlockId), u64>>,
    ) -> EdgeProfile {
        let dyn_edges = edge_freq.iter().flat_map(|m| m.values()).sum();
        EdgeProfile { block_freq, edge_freq, dyn_edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand};

    /// Loop running `n` iterations with a conditional inside that is taken
    /// when `i % 4 != 3` (the TTTF pattern of the `alt` microbenchmark).
    fn alt_like(n: i64) -> (pps_ir::Program, Vec<BlockId>) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let left = f.new_block();
        let right = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Rem, m, i, 4i64);
        f.alu(AluOp::CmpNe, c, m, 3i64);
        f.branch(c, left, right);
        f.switch_to(left);
        f.jump(latch);
        f.switch_to(right);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        let blocks = vec![
            BlockId::new(0),
            head,
            left,
            right,
            latch,
            exit,
        ];
        (pb.finish(main), blocks)
    }

    #[test]
    fn edge_counts_match_loop_structure() {
        let (p, b) = alt_like(8);
        let mut prof = EdgeProfiler::new(&p);
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[], &mut prof)
            .unwrap();
        let e = prof.finish();
        let main = p.entry;
        let (entry, head, left, right, latch, exit) = (b[0], b[1], b[2], b[3], b[4], b[5]);
        assert_eq!(e.block_freq(main, head), 8);
        assert_eq!(e.block_freq(main, left), 6, "TTTF pattern: 6 of 8 taken");
        assert_eq!(e.block_freq(main, right), 2);
        assert_eq!(e.edge_freq(main, entry, head), 1);
        assert_eq!(e.edge_freq(main, head, left), 6);
        assert_eq!(e.edge_freq(main, head, right), 2);
        assert_eq!(e.edge_freq(main, latch, head), 7);
        assert_eq!(e.edge_freq(main, latch, exit), 1);
        assert_eq!(e.most_likely_successor(main, head), Some((left, 6)));
        assert_eq!(e.most_likely_predecessor(main, head), Some((latch, 7)));
    }

    #[test]
    fn blocks_by_freq_is_sorted() {
        let (p, _) = alt_like(8);
        let mut prof = EdgeProfiler::new(&p);
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[], &mut prof)
            .unwrap();
        let e = prof.finish();
        let v = e.blocks_by_freq(p.entry);
        for w in v.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(v.iter().all(|(_, f)| *f > 0));
    }

    #[test]
    fn unexecuted_edges_are_zero() {
        let (p, b) = alt_like(8);
        let mut prof = EdgeProfiler::new(&p);
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[], &mut prof)
            .unwrap();
        let e = prof.finish();
        assert_eq!(e.edge_freq(p.entry, b[2], b[3]), 0);
        assert_eq!(e.most_likely_successor(p.entry, b[5]), None);
    }
}
