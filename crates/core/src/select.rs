//! Trace selection: partitioning a procedure's blocks into traces.
//!
//! Both selectors pick seeds in decreasing block-frequency order and grow
//! traces subject to the classical restrictions: a trace never contains a
//! back edge and never claims a block already in another trace.
//!
//! - [`select_traces_edge`] grows bidirectionally using the
//!   *mutual-most-likely* heuristic of the Multiflow compiler: B extends A's
//!   trace only when B is A's most likely successor *and* A is B's most
//!   likely predecessor.
//! - [`select_traces_path`] (paper Figure 2) grows downward using the
//!   *most-likely path successor*: the successor `s` maximizing the exact
//!   path frequency `f(t·s)` of the whole extended trace, so the selector
//!   knows precisely how much execution would be lost by each extension.

use crate::config::{FormConfig, SEED_FRACTION};
use pps_ir::analysis::ProcAnalysis;
use pps_ir::{BlockId, ProcId, Proc};
use pps_profile::{EdgeProfile, PathProfile};

/// A selected trace: a block sequence that may still have side entrances
/// (tail duplication removes them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Blocks in control-flow order.
    pub blocks: Vec<BlockId>,
}

/// Selects traces for `proc` using the mutual-most-likely heuristic over an
/// edge profile.
pub fn select_traces_edge(
    proc: &Proc,
    pid: ProcId,
    analysis: &ProcAnalysis,
    profile: &EdgeProfile,
) -> Vec<Trace> {
    let n = proc.blocks.len();
    let mut in_trace = vec![false; n];
    let mut traces = Vec::new();

    let by_freq = profile.blocks_by_freq(pid);
    let max_freq = by_freq.first().map(|&(_, f)| f).unwrap_or(0);
    let seed_min = ((max_freq as f64) * SEED_FRACTION).max(1.0) as u64;

    for &(seed, freq) in &by_freq {
        if in_trace[seed.index()] || freq < seed_min {
            continue;
        }
        let mut blocks = vec![seed];
        in_trace[seed.index()] = true;

        // Grow downward.
        loop {
            let last = *blocks.last().expect("non-empty");
            let Some((succ, f)) = profile.most_likely_successor(pid, last) else {
                break;
            };
            if f == 0
                || in_trace[succ.index()]
                || analysis.loops.is_back_edge(last, succ)
                || profile.most_likely_predecessor(pid, succ).map(|(b, _)| b) != Some(last)
            {
                break;
            }
            blocks.push(succ);
            in_trace[succ.index()] = true;
        }
        // Grow upward.
        loop {
            let head = blocks[0];
            let Some((pred, f)) = profile.most_likely_predecessor(pid, head) else {
                break;
            };
            if f == 0
                || in_trace[pred.index()]
                || analysis.loops.is_back_edge(pred, head)
                || profile.most_likely_successor(pid, pred).map(|(b, _)| b) != Some(head)
            {
                break;
            }
            blocks.insert(0, pred);
            in_trace[pred.index()] = true;
        }
        traces.push(Trace { blocks });
    }

    // Leftovers (cold or unexecuted but reachable) become singletons.
    for b in proc.block_ids() {
        if !in_trace[b.index()] && analysis.cfg.is_reachable(b) {
            traces.push(Trace { blocks: vec![b] });
        }
    }
    traces
}

/// The most-likely path successor of the trace `t` (paper Figure 2): the
/// CFG successor `s` of `t`'s last block maximizing `f(t·s)`, where the
/// query is trimmed to the profile depth (longest-suffix rule). Returns
/// `None` when no successor was ever observed following `t`.
pub fn most_likely_path_successor(
    proc: &Proc,
    pid: ProcId,
    analysis: &ProcAnalysis,
    profile: &PathProfile,
    t: &[BlockId],
) -> Option<(BlockId, u64)> {
    let last = *t.last()?;
    let mut best: Option<(BlockId, u64)> = None;
    let mut buf: Vec<BlockId> = Vec::with_capacity(t.len() + 1);
    for &s in &analysis.cfg.succs[last.index()] {
        buf.clear();
        buf.extend_from_slice(t);
        buf.push(s);
        let q = profile.trim_to_depth(proc, &buf);
        let f = profile.freq(pid, q);
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
    best
}

/// Selects traces for `proc` using the path-based selector of Figure 2.
pub fn select_traces_path(
    proc: &Proc,
    pid: ProcId,
    analysis: &ProcAnalysis,
    profile: &PathProfile,
    config: &FormConfig,
) -> Vec<Trace> {
    let n = proc.blocks.len();
    let mut in_trace = vec![false; n];
    let mut traces = Vec::new();

    // Seeds in node-frequency order, as in the edge-profile method.
    let mut by_freq: Vec<(BlockId, u64)> = proc
        .block_ids()
        .map(|b| (b, profile.block_freq(pid, b)))
        .filter(|&(_, f)| f > 0)
        .collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let max_freq = by_freq.first().map(|&(_, f)| f).unwrap_or(0);
    let seed_min = ((max_freq as f64) * SEED_FRACTION).max(1.0) as u64;

    for &(seed, freq) in &by_freq {
        if in_trace[seed.index()] || freq < seed_min {
            continue;
        }
        let mut blocks = vec![seed];
        in_trace[seed.index()] = true;
        while let Some((s, _)) =
            most_likely_path_successor(proc, pid, analysis, profile, &blocks)
        {
            let last = *blocks.last().expect("non-empty");
            if in_trace[s.index()] || analysis.loops.is_back_edge(last, s) {
                break;
            }
            blocks.push(s);
            in_trace[s.index()] = true;
        }
        // Optional upward growth (paper footnote 2): prepend the
        // most-likely path *predecessor* — the predecessor whose extension
        // of the whole trace has the highest exact frequency.
        if config.upward_growth {
            loop {
                let head = blocks[0];
                let mut best: Option<(BlockId, u64)> = None;
                let mut buf: Vec<BlockId> = Vec::with_capacity(blocks.len() + 1);
                for &p in &analysis.cfg.preds[head.index()] {
                    if in_trace[p.index()] || analysis.loops.is_back_edge(p, head) {
                        continue;
                    }
                    buf.clear();
                    buf.push(p);
                    buf.extend_from_slice(&blocks);
                    let q = profile.trim_to_depth(proc, &buf);
                    if q.len() != buf.len() {
                        // The prefix fell outside the profiling depth; no
                        // exact frequency exists for this extension.
                        continue;
                    }
                    let f = profile.freq(pid, q);
                    if f == 0 {
                        continue;
                    }
                    best = Some(match best {
                        None => (p, f),
                        Some((bb, bf)) => {
                            if f > bf || (f == bf && p < bb) {
                                (p, f)
                            } else {
                                (bb, bf)
                            }
                        }
                    });
                }
                let Some((p, _)) = best else { break };
                blocks.insert(0, p);
                in_trace[p.index()] = true;
            }
        }
        traces.push(Trace { blocks });
    }

    for b in proc.block_ids() {
        if !in_trace[b.index()] && analysis.cfg.is_reachable(b) {
            traces.push(Trace { blocks: vec![b] });
        }
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand, Program};
    use pps_profile::{EdgeProfiler, PathProfiler};

    /// Figure-1 style program: A -> B or X; X -> B; B -> C or Y; Y, C ->
    /// latch -> A or exit. The X and Y decisions are correlated: iterations
    /// that go through X always continue to C; iterations that skip X go to
    /// Y half the time.
    fn correlated(n: i64) -> (Program, [BlockId; 6]) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let a = f.new_block();
        let x = f.new_block();
        let b = f.new_block();
        let y = f.new_block();
        let cc = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(a);
        f.switch_to(a);
        f.alu(AluOp::Rem, m, i, 2i64);
        f.alu(AluOp::CmpEq, c, m, 0i64);
        f.branch(c, x, b); // even iterations via X
        f.switch_to(x);
        f.jump(b);
        f.switch_to(b);
        // Correlated: odd iterations with i % 4 == 1 go to Y; even never.
        f.alu(AluOp::Rem, m, i, 4i64);
        f.alu(AluOp::CmpEq, c, m, 1i64);
        f.branch(c, y, cc);
        f.switch_to(y);
        f.jump(latch);
        f.switch_to(cc);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, a, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        (pb.finish(main), [a, x, b, y, cc, latch])
    }

    /// Shared test fixture: the correlated program with both profiles
    /// collected and the entry procedure's analysis computed — the setup
    /// every selection test needs.
    struct Setup {
        p: Program,
        ids: [BlockId; 6],
        ep: EdgeProfile,
        pp: PathProfile,
        an: ProcAnalysis,
    }

    impl Setup {
        fn new(n: i64) -> Setup {
            let (p, ids) = correlated(n);
            let mut ep = EdgeProfiler::new(&p);
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut ep)
                .unwrap();
            let mut pp = PathProfiler::new(&p, 15);
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut pp)
                .unwrap();
            let an = ProcAnalysis::compute(p.proc(p.entry));
            Setup { p, ids, ep: ep.finish(), pp: pp.finish(), an }
        }

        fn proc(&self) -> &pps_ir::Proc {
            self.p.proc(self.p.entry)
        }

        fn entry(&self) -> ProcId {
            self.p.entry
        }
    }

    #[test]
    fn edge_selection_partitions_all_reachable_blocks() {
        let s = Setup::new(16);
        let traces = select_traces_edge(s.proc(), s.entry(), &s.an, &s.ep);
        let mut seen = std::collections::HashSet::new();
        for t in &traces {
            for &b in &t.blocks {
                assert!(seen.insert(b), "{b} in two traces");
            }
        }
        for b in s.proc().block_ids() {
            if s.an.cfg.is_reachable(b) {
                assert!(seen.contains(&b), "{b} unclaimed");
            }
        }
    }

    #[test]
    fn edge_traces_never_contain_back_edges() {
        let s = Setup::new(16);
        let traces = select_traces_edge(s.proc(), s.entry(), &s.an, &s.ep);
        for t in &traces {
            for w in t.blocks.windows(2) {
                assert!(!s.an.loops.is_back_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn path_selection_follows_dominant_path() {
        let s = Setup::new(16);
        let traces = select_traces_path(s.proc(), s.entry(), &s.an, &s.pp, &FormConfig::default());
        // The hottest trace should start at the hottest block. In 16
        // iterations: a,b,latch run 16x; x 8x; cc 12x; y 4x. The dominant
        // trace seeded at `a` (or latch) follows the most frequent path.
        let [a, x, b, _y, cc, latch] = s.ids;
        let hot = traces
            .iter()
            .find(|t| t.blocks.contains(&a))
            .expect("trace containing a");
        // f(a,x,b)=8 vs f(a,b)=8: tie - but extended paths diverge.
        // Whatever the choice, the trace must be a real executed path.
        assert!(hot.blocks.len() >= 2);
        // All traces partition blocks.
        let mut seen = std::collections::HashSet::new();
        for t in &traces {
            for &bb in &t.blocks {
                assert!(seen.insert(bb));
            }
        }
        let _ = (x, b, cc, latch);
    }

    #[test]
    fn most_likely_path_successor_uses_path_context() {
        // After [a, x, b] the correlated branch always goes to cc (even
        // iterations never take y). An edge profile would see b->cc at
        // 12/16 only; the path query must see certainty.
        let s = Setup::new(16);
        let [a, x, b, y, cc, _latch] = s.ids;
        let got = most_likely_path_successor(s.proc(), s.entry(), &s.an, &s.pp, &[a, x, b]);
        assert_eq!(got, Some((cc, 8)), "correlation: via-X iterations always reach C");
        // And the frequency of the rejected path is exactly zero.
        assert_eq!(s.pp.freq(s.entry(), &[a, x, b, y]), 0);
    }

    #[test]
    fn cold_blocks_become_singletons() {
        let s = Setup::new(2);
        // exit block (frequency 1 vs max 2) is above the default seed
        // fraction, so instead check never-executed blocks: none here; use
        // a tiny seed fraction program: with n=2, y executes once (i=1).
        let te = select_traces_edge(s.proc(), s.entry(), &s.an, &s.ep);
        let tp = select_traces_path(s.proc(), s.entry(), &s.an, &s.pp, &FormConfig::default());
        for traces in [te, tp] {
            let total: usize = traces.iter().map(|t| t.blocks.len()).sum();
            assert_eq!(
                total,
                s.an.cfg.rpo.len(),
                "every reachable block exactly once"
            );
        }
    }
}
