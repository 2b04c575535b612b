//! Static branch prediction from profiles — the companion application of
//! path profiles (Young & Smith, ASPLOS 1994, cited as \[20\] and the origin
//! of the `corr` microbenchmark).
//!
//! Two predictors over the same training profile:
//!
//! - [`EdgePredictor`]: classical profile-guided prediction — each branch
//!   is statically predicted in its majority direction.
//! - [`PathPredictor`]: static *correlated* prediction — the prediction is
//!   keyed by the path context (the last `k` blocks) leading to the
//!   branch, falling back to shorter contexts and finally to the edge
//!   majority. Correlated branches (whose direction is determined by how
//!   control arrived) become perfectly predictable.
//!
//! [`evaluate`] replays a program against a predictor and reports the
//! misprediction rate, enabling the edge-vs-path comparison on a testing
//! input.

use crate::edge::EdgeProfile;
use crate::path::PathProfile;
use pps_ir::interp::{ExecConfig, ExecError};
use pps_ir::Exec;
use pps_ir::{BlockId, ProcId, Program, TraceSink};
use std::collections::HashMap;

/// A static branch predictor: given where execution is (and optionally how
/// it got there), predict the next block.
pub trait Predictor {
    /// Predicts the successor of `block` given the path `context` (the
    /// blocks executed before it, oldest first, ending with `block`).
    fn predict(&self, proc: ProcId, context: &[BlockId], block: BlockId) -> Option<BlockId>;
}

/// Majority-direction prediction from an edge profile.
#[derive(Debug, Clone)]
pub struct EdgePredictor {
    majority: Vec<HashMap<BlockId, BlockId>>,
}

impl EdgePredictor {
    /// Builds the predictor from a training edge profile.
    pub fn from_profile(program: &Program, profile: &EdgeProfile) -> Self {
        let mut majority = Vec::with_capacity(program.procs.len());
        for (pid, proc) in program.iter_procs() {
            let mut m = HashMap::new();
            for (b, _) in proc.iter_blocks() {
                if let Some((succ, _)) = profile.most_likely_successor(pid, b) {
                    m.insert(b, succ);
                }
            }
            majority.push(m);
        }
        EdgePredictor { majority }
    }
}

impl Predictor for EdgePredictor {
    fn predict(&self, proc: ProcId, _context: &[BlockId], block: BlockId) -> Option<BlockId> {
        self.majority[proc.index()].get(&block).copied()
    }
}

/// Path-context (correlated) prediction from a general path profile.
///
/// For each branch, the prediction table maps the last `k` blocks of
/// context to the majority successor observed *after that context* in the
/// training profile; shorter suffixes back each context off, and the
/// 1-block context is the edge majority.
#[derive(Debug, Clone)]
pub struct PathPredictor<'p> {
    program: &'p Program,
    profile: &'p PathProfile,
    /// Maximum context length in blocks (including the branch block).
    context: usize,
}

impl<'p> PathPredictor<'p> {
    /// Builds the predictor over a training path profile with contexts of
    /// up to `context` blocks.
    pub fn new(program: &'p Program, profile: &'p PathProfile, context: usize) -> Self {
        PathPredictor { program, profile, context: context.max(1) }
    }
}

impl Predictor for PathPredictor<'_> {
    fn predict(&self, proc: ProcId, context: &[BlockId], block: BlockId) -> Option<BlockId> {
        let proc_body = self.program.proc(proc);
        let succs = proc_body.block(block).term.successors();
        if succs.len() == 1 {
            return Some(succs[0]);
        }
        // Longest-context-first back-off.
        let avail = context.len().min(self.context.saturating_sub(1));
        let mut buf: Vec<BlockId> = Vec::with_capacity(avail + 2);
        for ctx_len in (0..=avail).rev() {
            buf.clear();
            buf.extend_from_slice(&context[context.len() - ctx_len..]);
            buf.push(block);
            let mut best: Option<(BlockId, u64)> = None;
            for &s in &succs {
                buf.push(s);
                let q = self.profile.trim_to_depth(proc_body, &buf);
                let f = self.profile.freq(proc, q);
                buf.pop();
                if f == 0 {
                    continue;
                }
                best = Some(match best {
                    None => (s, f),
                    Some((bb, bf)) => {
                        if f > bf || (f == bf && s < bb) {
                            (s, f)
                        } else {
                            (bb, bf)
                        }
                    }
                });
            }
            if let Some((s, _)) = best {
                return Some(s);
            }
        }
        None
    }
}

/// Branch-prediction evaluation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Conditional/multiway branch executions evaluated.
    pub branches: u64,
    /// Mispredictions (including unpredicted branches).
    pub mispredicts: u64,
}

impl PredictStats {
    /// Misprediction rate.
    pub fn miss_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

struct EvalSink<'a, P: Predictor> {
    predictor: &'a P,
    program: &'a Program,
    /// Per-activation context windows (last `context` blocks).
    stacks: Vec<Vec<Vec<BlockId>>>,
    context: usize,
    stats: PredictStats,
}

impl<P: Predictor> TraceSink for EvalSink<'_, P> {
    fn enter_proc(&mut self, proc: ProcId) {
        self.stacks[proc.index()].push(Vec::new());
    }

    fn exit_proc(&mut self, proc: ProcId) {
        self.stacks[proc.index()].pop();
    }

    fn block(&mut self, proc: ProcId, block: BlockId) {
        let window = self.stacks[proc.index()].last_mut().expect("activation");
        if let Some(&prev) = window.last() {
            // The transfer prev -> block resolves prev's terminator; score
            // it if it was a counted branch.
            if self.program.proc(proc).block(prev).term.is_counted_branch() {
                self.stats.branches += 1;
                let ctx = &window[..window.len() - 1];
                let predicted = self.predictor.predict(proc, ctx, prev);
                if predicted != Some(block) {
                    self.stats.mispredicts += 1;
                }
            }
        }
        window.push(block);
        if window.len() > self.context + 1 {
            window.remove(0);
        }
    }
}

/// Replays `program` on `args`, scoring `predictor` on every executed
/// conditional/multiway branch. `context` bounds the history given to the
/// predictor.
///
/// # Errors
/// Propagates interpreter errors.
pub fn evaluate<P: Predictor>(
    program: &Program,
    predictor: &P,
    context: usize,
    args: &[i64],
) -> Result<PredictStats, ExecError> {
    let mut sink = EvalSink {
        predictor,
        program,
        stacks: program.procs.iter().map(|_| Vec::new()).collect(),
        context,
        stats: PredictStats::default(),
    };
    Exec::new(program, ExecConfig::default()).run_traced(args, &mut sink)?;
    Ok(sink.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::interp::Interp;
    use crate::{EdgeProfiler, PathProfiler};
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::{AluOp, Operand};

    /// The correlated-branch shape: first branch alternates; second branch
    /// copies the first. Edge prediction caps at ~50% on the second branch;
    /// path-context prediction gets it exactly.
    fn corr(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let x = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let a1 = f.new_block();
        let a2 = f.new_block();
        let mid = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Rem, m, i, 2i64);
        f.branch(m, a1, a2);
        f.switch_to(a1);
        f.mov(x, 1i64);
        f.jump(mid);
        f.switch_to(a2);
        f.mov(x, 0i64);
        f.jump(mid);
        f.switch_to(mid);
        f.branch(x, b1, b2);
        f.switch_to(b1);
        f.jump(latch);
        f.switch_to(b2);
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

    #[test]
    fn path_context_prediction_beats_edge_on_correlated_branches() {
        let p = corr(400);
        let interp = Interp::new(&p, ExecConfig::default());
        let mut ep = EdgeProfiler::new(&p);
        interp.run_traced(&[], &mut ep).unwrap();
        let edge = ep.finish();
        let mut pp = PathProfiler::new(&p, 15);
        interp.run_traced(&[], &mut pp).unwrap();
        let path = pp.finish();

        let edge_pred = EdgePredictor::from_profile(&p, &edge);
        let e = evaluate(&p, &edge_pred, 8, &[]).unwrap();
        let path_pred = PathPredictor::new(&p, &path, 8);
        let pa = evaluate(&p, &path_pred, 8, &[]).unwrap();

        // Three branches per iteration: first (50/50 alternating — but
        // alternation is itself path-visible), second (fully correlated),
        // loop (always taken until the end).
        assert!(e.miss_rate() > 0.25, "edge prediction stuck: {:.3}", e.miss_rate());
        assert!(
            pa.miss_rate() < 0.02,
            "path context resolves the correlation: {:.3}",
            pa.miss_rate()
        );
        assert_eq!(e.branches, pa.branches);
    }

    #[test]
    fn single_successor_blocks_always_predicted() {
        let p = corr(10);
        let interp = Interp::new(&p, ExecConfig::default());
        let mut pp = PathProfiler::new(&p, 15);
        interp.run_traced(&[], &mut pp).unwrap();
        let path = pp.finish();
        let pred = PathPredictor::new(&p, &path, 4);
        // Jumps are not counted branches, so stats only cover real
        // branches; miss rate is well-defined and bounded.
        let s = evaluate(&p, &pred, 4, &[]).unwrap();
        assert!(s.branches > 0);
        assert!(s.miss_rate() <= 1.0);
    }
}
