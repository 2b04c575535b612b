//! k-iteration Ball–Larus path profiling.
//!
//! A Ball–Larus *forward* path chops the dynamic block trace at *every*
//! back edge, so no path spans a loop iteration boundary and
//! cross-iteration branch correlation is invisible. Following the
//! multi-iteration Ball–Larus construction (arXiv:1304.5197), this profiler
//! lets a path run until it is about to cross its **k-th** back edge: each
//! counted path covers up to `k` consecutive iterations of the enclosing
//! loop, exposing exactly the correlation a cross-iteration superblock
//! former needs. `k = 1` is the forward-path profile: `tests/kpath_props.rs`
//! checks it, and every k, against a naive chop of the recorded trace on
//! every suite benchmark and on random programs.
//!
//! A frozen [`KPathProfile`] answers exact counts for completed k-paths and
//! derives a [`PathProfile`] view ([`KPathProfile::to_path_profile`]) whose
//! `freq(seq)` is the number of occurrences of `seq` *within* recorded
//! k-iteration spans. Substrings that would cross a chop boundary score
//! zero — that loss is the honest fidelity semantics of kBL profiles, and
//! it is what lets the existing path-based trace selector and enlarger run
//! unchanged over k-iteration data: enlargement simply finds no support for
//! extensions the profile never observed.
//!
//! The collector counts paths on a forward trie per procedure, so a block
//! event neither hashes nor allocates: the in-progress path is a trie node,
//! extending it scans that node's children (at most the block's successor
//! count), back edges are per-block target lists, and completing a path
//! bumps the node's counter. [`KPathProfiler::finish`] rebuilds the
//! path → count map from the counted nodes.

use crate::path::PathProfile;
use pps_ir::analysis::ProcAnalysis;
use pps_ir::{BlockId, ProcId, Program, TraceSink};
use std::collections::HashMap;

type NodeId = u32;
/// The empty path.
const ROOT: NodeId = 0;
/// Null link: no child, no sibling, no node yet.
const NONE: NodeId = NodeId::MAX;

/// One forward-trie node: the path from the root to it, oldest block
/// first. Its label is the path's newest block.
#[derive(Debug, Clone, Copy)]
struct Node {
    block: BlockId,
    parent: NodeId,
    first_child: NodeId,
    next_sibling: NodeId,
}

/// One live activation: its in-progress path and how far along it is.
#[derive(Debug, Clone, Copy)]
struct Activation {
    node: NodeId,
    /// Back edges the path has crossed.
    crossings: usize,
}

/// Per-procedure collector state: a forward trie of every path prefix
/// seen, with completed-path counts in a parallel array.
#[derive(Debug)]
struct ProcTable {
    /// Back-edge targets of block `b`:
    /// `back_to[back_start[b]..back_start[b + 1]]`.
    back_start: Vec<u32>,
    back_to: Vec<BlockId>,
    nodes: Vec<Node>,
    /// `counts[n]` = times node `n`'s path completed.
    counts: Vec<u64>,
    /// The root's children (single-block paths), indexed by block.
    starts: Vec<NodeId>,
    /// One in-progress path per live activation.
    activations: Vec<Activation>,
}

impl ProcTable {
    fn new(proc: &pps_ir::Proc) -> Self {
        let n = proc.blocks.len();
        let mut back_edges = ProcAnalysis::compute(proc).loops.back_edges;
        back_edges.sort_unstable();
        let mut back_start = vec![0u32; n + 1];
        for &(from, _) in &back_edges {
            back_start[from.index() + 1] += 1;
        }
        for b in 0..n {
            back_start[b + 1] += back_start[b];
        }
        let root =
            Node { block: BlockId::new(0), parent: NONE, first_child: NONE, next_sibling: NONE };
        ProcTable {
            back_start,
            back_to: back_edges.into_iter().map(|(_, to)| to).collect(),
            nodes: vec![root],
            counts: vec![0],
            starts: vec![NONE; n],
            activations: Vec::new(),
        }
    }

    fn is_back_edge(&self, from: BlockId, to: BlockId) -> bool {
        let (lo, hi) = (self.back_start[from.index()], self.back_start[from.index() + 1]);
        self.back_to[lo as usize..hi as usize].contains(&to)
    }

    fn new_node(&mut self, parent: NodeId, block: BlockId, next_sibling: NodeId) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node { block, parent, first_child: NONE, next_sibling });
        self.counts.push(0);
        id
    }

    /// The node of `node`'s path extended by `block`, created on first use.
    fn extend(&mut self, node: NodeId, block: BlockId) -> NodeId {
        if node == ROOT {
            let start = self.starts[block.index()];
            if start != NONE {
                return start;
            }
            let id = self.new_node(ROOT, block, NONE);
            self.starts[block.index()] = id;
            return id;
        }
        let first = self.nodes[node as usize].first_child;
        let mut c = first;
        while c != NONE {
            let n = &self.nodes[c as usize];
            if n.block == block {
                return c;
            }
            c = n.next_sibling;
        }
        let id = self.new_node(node, block, first);
        self.nodes[node as usize].first_child = id;
        id
    }

    /// Counts `act`'s path as completed and starts an empty one.
    fn finalize(&mut self, act: &mut Activation) {
        if act.node != ROOT {
            self.counts[act.node as usize] += 1;
        }
        *act = Activation { node: ROOT, crossings: 0 };
    }

    /// The completed paths and their counts.
    fn into_counts(self) -> HashMap<Vec<BlockId>, u64> {
        let mut out = HashMap::new();
        for (id, &count) in self.counts.iter().enumerate().skip(1) {
            if count > 0 {
                let mut path = Vec::new();
                let mut n = id as NodeId;
                while n != ROOT {
                    path.push(self.nodes[n as usize].block);
                    n = self.nodes[n as usize].parent;
                }
                path.reverse();
                out.insert(path, count);
            }
        }
        out
    }
}

/// Live k-iteration path collector. A [`TraceSink`], like the other
/// profilers, so it tees onto any interpreter run.
///
/// Paths are counted on a forward trie per procedure: the in-progress path
/// is a trie node, a block event is a scan of that node's (few) children,
/// and completing a path bumps the node's counter. Back edges are looked up
/// in per-block target lists.
#[derive(Debug)]
pub struct KPathProfiler {
    /// Back-edge crossings allowed per path (`k >= 1`).
    k: usize,
    tables: Vec<ProcTable>,
}

impl KPathProfiler {
    /// Creates a collector for `program` counting paths of up to `k`
    /// iterations.
    ///
    /// # Panics
    /// Panics if `k == 0`; a path that may cross no back edge and contain
    /// no block is not a path.
    pub fn new(program: &Program, k: usize) -> Self {
        assert!(k >= 1, "k-iteration paths need k >= 1");
        KPathProfiler { k, tables: program.procs.iter().map(ProcTable::new).collect() }
    }

    /// Freezes into a queryable profile.
    pub fn finish(self) -> KPathProfile {
        let counts = self
            .tables
            .into_iter()
            .map(|mut t| {
                for mut act in std::mem::take(&mut t.activations) {
                    t.finalize(&mut act);
                }
                t.into_counts()
            })
            .collect();
        KPathProfile { k: self.k, counts }
    }
}

impl TraceSink for KPathProfiler {
    fn enter_proc(&mut self, proc: ProcId) {
        self.tables[proc.index()].activations.push(Activation { node: ROOT, crossings: 0 });
    }

    fn exit_proc(&mut self, proc: ProcId) {
        let t = &mut self.tables[proc.index()];
        if let Some(mut act) = t.activations.pop() {
            t.finalize(&mut act);
        }
    }

    fn block(&mut self, proc: ProcId, block: BlockId) {
        let t = &mut self.tables[proc.index()];
        let mut act = *t.activations.last().expect("activation exists");
        if act.node != ROOT {
            let last = t.nodes[act.node as usize].block;
            let is_back = t.is_back_edge(last, block);
            if is_back && act.crossings + 1 == self.k {
                // Crossing this back edge would be crossing number
                // `crossings + 1`; the k-th crossing closes the path.
                t.finalize(&mut act);
            } else if is_back {
                act.crossings += 1;
            }
        }
        act.node = t.extend(act.node, block);
        *t.activations.last_mut().expect("activation exists") = act;
    }
}

/// A frozen k-iteration path profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KPathProfile {
    k: usize,
    counts: Vec<HashMap<Vec<BlockId>, u64>>,
}

impl KPathProfile {
    /// Builds a profile directly from per-procedure completed-path counts,
    /// as a parser of [`crate::serialize::kpath_to_text`]'s text would.
    /// Duplicate paths have their counts summed (saturating).
    pub fn from_paths(k: usize, per_proc: Vec<Vec<(Vec<BlockId>, u64)>>) -> Self {
        assert!(k >= 1, "k-iteration paths need k >= 1");
        let counts = per_proc
            .into_iter()
            .map(|paths| {
                let mut m: HashMap<Vec<BlockId>, u64> = HashMap::new();
                for (path, count) in paths {
                    let slot = m.entry(path).or_insert(0);
                    *slot = slot.saturating_add(count);
                }
                m
            })
            .collect();
        KPathProfile { k, counts }
    }

    /// The iteration bound this profile was collected at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of procedures covered.
    pub fn num_procs(&self) -> usize {
        self.counts.len()
    }

    /// Count of the exact completed k-path `seq`.
    pub fn path_count(&self, proc: ProcId, seq: &[BlockId]) -> u64 {
        self.counts[proc.index()].get(seq).copied().unwrap_or(0)
    }

    /// Iterates over all completed k-paths of `proc` with their counts.
    pub fn iter_paths(&self, proc: ProcId) -> impl Iterator<Item = (&[BlockId], u64)> {
        self.counts[proc.index()]
            .iter()
            .map(|(k, v)| (k.as_slice(), *v))
    }

    /// Number of distinct k-paths recorded for `proc`.
    pub fn distinct_paths(&self, proc: ProcId) -> usize {
        self.counts[proc.index()].len()
    }

    /// Derives the general-path view that drives trace selection and
    /// enlargement: a [`PathProfile`] at window `depth` whose
    /// `freq(proc, seq)` equals the number of occurrences of `seq` as a
    /// contiguous subsequence of recorded k-paths (weighted by path
    /// counts).
    ///
    /// The construction loads every *prefix* of each k-path as a window:
    /// `PathProfile::freq` counts stored windows having `seq` as a suffix,
    /// and a prefix of a k-path has `seq` as a suffix exactly once per
    /// occurrence of `seq` ending at that prefix's last block. Sequences
    /// that would cross a chop boundary (more than `k` back-edge
    /// crossings) were never recorded and therefore score zero — the
    /// fidelity cliff that distinguishes `Pk2`/`Pk3` from the unbounded
    /// general-path profile.
    pub fn to_path_profile(&self, depth: usize) -> PathProfile {
        PathProfile::from_prefixes(
            depth,
            self.counts.iter().map(|m| m.iter().map(|(path, &count)| (path.as_slice(), count))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, BlockEvent, Operand, Program, VecSink};

    /// Simple counted loop: entry -> head; head -> body|exit; body -> head.
    fn counted_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, body, exit);
        f.switch_to(body);
        f.alu(AluOp::Add, i, i, 1i64);
        f.jump(head);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        pb.finish(main)
    }

    /// A loop whose body alternates between two sides per iteration, so
    /// cross-iteration correlation exists for k >= 2 to see.
    fn alternating_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let a = f.new_block();
        let b = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Rem, m, i, 2i64);
        f.branch(m, a, b);
        f.switch_to(a);
        f.jump(latch);
        f.switch_to(b);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        pb.finish(main)
    }

    fn kprofile(p: &Program, k: usize) -> KPathProfile {
        let mut prof = KPathProfiler::new(p, k);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[], &mut prof)
            .unwrap();
        prof.finish()
    }

    #[test]
    fn forward_paths_chop_at_back_edges() {
        let p = counted_loop(5);
        let kp = kprofile(&p, 1);
        let main = p.entry;
        let (entry, head, body, exit) =
            (BlockId::new(0), BlockId::new(1), BlockId::new(2), BlockId::new(3));
        // First piece: entry, head, body (chopped before re-entering head).
        assert_eq!(kp.path_count(main, &[entry, head, body]), 1);
        // Middle iterations: head, body — 4 of them.
        assert_eq!(kp.path_count(main, &[head, body]), 4);
        // Final piece: head, exit.
        assert_eq!(kp.path_count(main, &[head, exit]), 1);
        assert_eq!(kp.distinct_paths(main), 3);
        // No forward path spans a back edge.
        assert_eq!(kp.path_count(main, &[head, body, head]), 0);
    }

    #[test]
    fn k1_matches_forward_profiler_exactly() {
        for n in [0, 1, 5, 17] {
            let p = counted_loop(n);
            let main = p.entry;
            let mut trace = VecSink::new();
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut trace)
                .unwrap();
            // Forward paths by hand: split the one activation's block
            // sequence before every back-edge target.
            let back_edges = ProcAnalysis::compute(p.proc(main)).loops.back_edges;
            let mut fwd: HashMap<Vec<BlockId>, u64> = HashMap::new();
            let mut path: Vec<BlockId> = Vec::new();
            for e in &trace.events {
                if let BlockEvent::Block(_, b) = *e {
                    if path.last().is_some_and(|&last| back_edges.contains(&(last, b))) {
                        *fwd.entry(std::mem::take(&mut path)).or_insert(0) += 1;
                    }
                    path.push(b);
                }
            }
            *fwd.entry(path).or_insert(0) += 1;
            let mut a: Vec<(Vec<BlockId>, u64)> = fwd.into_iter().collect();
            let mut b: Vec<(Vec<BlockId>, u64)> = kprofile(&p, 1)
                .iter_paths(main)
                .map(|(p, c)| (p.to_vec(), c))
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn k2_paths_span_two_iterations() {
        let p = counted_loop(5);
        let kp = kprofile(&p, 2);
        let main = p.entry;
        let (entry, head, body, exit) =
            (BlockId::new(0), BlockId::new(1), BlockId::new(2), BlockId::new(3));
        // First piece runs until the second back-edge crossing:
        // entry head body | head body | (chop) ...
        assert_eq!(kp.path_count(main, &[entry, head, body, head, body]), 1);
        // Middle piece: two more iterations.
        assert_eq!(kp.path_count(main, &[head, body, head, body]), 1);
        // Final piece: fifth iteration plus the exit test.
        assert_eq!(kp.path_count(main, &[head, body, head, exit]), 1);
        assert_eq!(kp.distinct_paths(main), 3);
    }

    #[test]
    fn derived_path_profile_counts_substring_occurrences() {
        let p = alternating_loop(40);
        let kp = kprofile(&p, 2);
        let main = p.entry;
        let derived = kp.to_path_profile(15);
        let (head, a, b, latch) =
            (BlockId::new(1), BlockId::new(2), BlockId::new(3), BlockId::new(4));

        // Spans start at even iterations (b-side first), so within a
        // 2-iteration span the alternation b -> a is visible...
        assert!(derived.freq(main, &[head, b, latch, head, a]) > 0);
        // ...the same-side repeat never happens...
        assert_eq!(derived.freq(main, &[head, b, latch, head, b]), 0);
        // ...and the a -> b transition always falls on a chop boundary, so
        // it scores zero even though it happens dynamically: exactly the
        // fidelity loss that separates Pk2 from the general path profile.
        assert_eq!(derived.freq(main, &[head, a, latch, head, b]), 0);

        // Exact count check against a brute-force scan over the k-paths.
        let seq = [head, a, latch];
        let mut expect = 0u64;
        for (path, count) in kp.iter_paths(main) {
            let occurrences = path
                .windows(seq.len())
                .filter(|w| *w == seq)
                .count() as u64;
            expect += occurrences * count;
        }
        assert_eq!(derived.freq(main, &seq), expect);
    }

    #[test]
    fn from_paths_sums_duplicates() {
        let b0 = BlockId::new(0);
        let kp = KPathProfile::from_paths(
            2,
            vec![vec![(vec![b0], 3), (vec![b0], 4)]],
        );
        assert_eq!(kp.path_count(ProcId::new(0), &[b0]), 7);
    }
}
