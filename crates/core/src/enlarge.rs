//! Superblock enlargement (paper §2.1–2.2).
//!
//! Enlargement appends *copies* of likely successor blocks to a superblock,
//! so the compactor sees more instructions and execution reaches further
//! before leaving a scheduled region.
//!
//! [`enlarge_edge`] implements the classical IMPACT trio over edge
//! profiles: branch target expansion for non-loop superblocks, and loop
//! peeling / loop unrolling for superblock loops (peeling is realized as
//! unrolling by the expected trip count — see DESIGN.md §4).
//!
//! [`enlarge_path`] implements the paper's unified mechanism (Figure 2):
//! repeatedly append the *most-likely path successor* of the entire trace
//! so far. Because the path profile gives exact frequencies, (a) only
//! superblocks that actually complete with high frequency are enlarged, and
//! (b) the walk automatically performs branch target expansion, peeling,
//! and unrolling, and follows correlated and phased behavior across loop
//! iterations (Figure 3).
//!
//! Copies take their terminator from a snapshot of the post-tail-
//! duplication CFG, so a copied loop latch branches back to the *original*
//! loop head (where the walk recognizes the crossing), not into an earlier
//! copy. A walk that stops mid-body is rolled back to the last *clean*
//! point — where every dangling off-trace edge targets a superblock head —
//! so enlargement never introduces side entrances.

use crate::config::{FormConfig, LIKELY_THRESHOLD, PEEL_MAX_AVG};
use pps_ir::analysis::ProcAnalysis;
use pps_ir::{Block, BlockId, Proc, ProcId, Terminator};
use pps_profile::{EdgeProfile, PathProfile};

/// A superblock being built: physical blocks plus the original block each
/// position copies (identity for non-copies). Frequencies are always
/// queried on original ids, since profiles were collected on the
/// unmodified program.
#[derive(Debug, Clone)]
pub struct SbBuild {
    /// Physical blocks in on-trace order.
    pub blocks: Vec<BlockId>,
    /// Original (profile-time) block per position.
    pub orig: Vec<BlockId>,
}

impl SbBuild {
    /// A superblock over original (uncopied) blocks.
    pub fn from_original(blocks: Vec<BlockId>) -> Self {
        SbBuild { orig: blocks.clone(), blocks }
    }

    /// Head block (physical).
    pub fn head(&self) -> BlockId {
        self.blocks[0]
    }

    /// Last block (physical).
    pub fn last(&self) -> BlockId {
        *self.blocks.last().expect("non-empty")
    }

    /// Static size in instructions (terminators included).
    pub fn static_size(&self, proc: &Proc) -> usize {
        self.blocks
            .iter()
            .map(|&b| proc.block(b).len_with_term())
            .sum()
    }
}

/// Classification of the already-formed superblocks, consulted during
/// enlargement.
#[derive(Debug, Clone)]
pub struct SbIndex {
    /// For each physical block: index of the superblock it heads, if any.
    pub head_of: Vec<Option<u32>>,
    /// Per superblock: is it a superblock loop (last block likely jumps to
    /// its head)? Used by the classical edge-based enlarger.
    pub is_loop: Vec<bool>,
    /// Per superblock: is it loop-like — a superblock loop *or* headed by a
    /// natural-loop header? Downward-only trace selection can rotate a loop
    /// so that no single superblock's last block targets its own head (the
    /// back edge lands mid-rotation); the path-based enlarger uses this
    /// broader classification for its crossing budget and the P4e candidate
    /// check.
    pub is_loopish: Vec<bool>,
    /// Per superblock: block count (heads of singletons are "transparent"
    /// to path-based expansion).
    pub len: Vec<u32>,
    /// Per superblock: is it compensation code — a tail-duplication chain
    /// or an enlargement repair chain? The paper's P4e may absorb these
    /// ("enlargement uses only tail-duplicated code") while stopping at
    /// real superblock heads.
    pub is_chain: Vec<bool>,
    /// For each block: its `(superblock, position)` in the pass-start
    /// partition (repair chains need the entered superblock's suffix).
    pub loc: Vec<Option<(u32, u32)>>,
    /// Pass-start block list per superblock.
    pub blocks: Vec<Vec<BlockId>>,
}

impl SbIndex {
    /// Builds the index over the formed superblocks. `analysis` must
    /// describe the current body of `proc` — the caller passes its cached
    /// bundle down instead of this function recomputing one per pass.
    ///
    /// A superblock is a *superblock loop* when its last block has an edge
    /// to its head and that edge is likely:
    /// `f(last → head) >= LIKELY_THRESHOLD * f(last)` on original ids.
    pub fn build(
        proc: &Proc,
        pid: ProcId,
        sbs: &[SbBuild],
        chain_flags: &[bool],
        edge: &EdgeProfile,
        analysis: &ProcAnalysis,
    ) -> Self {
        debug_assert_eq!(chain_flags.len(), sbs.len());
        let mut head_of = vec![None; proc.blocks.len()];
        let mut is_loop = Vec::with_capacity(sbs.len());
        let mut is_loopish = Vec::with_capacity(sbs.len());
        let mut len = Vec::with_capacity(sbs.len());
        let mut loc = vec![None; proc.blocks.len()];
        let mut blocks = Vec::with_capacity(sbs.len());
        for (i, sb) in sbs.iter().enumerate() {
            for (p, &b) in sb.blocks.iter().enumerate() {
                loc[b.index()] = Some((i as u32, p as u32));
            }
            blocks.push(sb.blocks.clone());
        }
        debug_assert_eq!(analysis.cfg.len(), proc.blocks.len(), "analysis is current");
        let mut is_header = vec![false; proc.blocks.len()];
        for &h in &analysis.loops.headers {
            is_header[h.index()] = true;
        }
        for (i, sb) in sbs.iter().enumerate() {
            head_of[sb.head().index()] = Some(i as u32);
            len.push(sb.blocks.len() as u32);
            let last_term = &proc.block(sb.last()).term;
            let has_back = last_term.successors().contains(&sb.head());
            let lik = if has_back {
                let lf = edge.edge_freq(pid, *sb.orig.last().expect("non-empty"), sb.orig[0]);
                let bf = edge.block_freq(pid, *sb.orig.last().expect("non-empty"));
                bf > 0 && (lf as f64) >= LIKELY_THRESHOLD * (bf as f64)
            } else {
                false
            };
            is_loop.push(lik);
            is_loopish.push(lik || is_header[sb.head().index()]);
        }
        SbIndex { head_of, is_loop, is_loopish, len, loc, blocks, is_chain: chain_flags.to_vec() }
    }

    /// Superblock headed by `b`, if any.
    pub fn headed_by(&self, b: BlockId) -> Option<u32> {
        self.head_of.get(b.index()).copied().flatten()
    }
}

/// Shared enlargement machinery: appends copies with snapshot terminators
/// and repairs edges that would otherwise enter another superblock's
/// interior.
///
/// When a walk crosses into superblock `B` and then *diverges* from `B`'s
/// internal trace, the appended copy is left with an edge pointing into
/// `B`'s interior — a would-be side entrance. The grower repairs each such
/// edge with a fresh *tail-duplicate chain* of `B`'s suffix (the classical
/// compensation for entering a superblock mid-way), so enlargement never
/// degrades existing superblocks. Repairs are deferred until the walk's
/// next step (so the on-trace edge the walk itself follows is not
/// duplicated) and completed by [`finish`](Self::finish).
#[derive(Debug)]
pub struct Grower<'a> {
    /// Terminators of the pass-start CFG, indexed by block. Only blocks
    /// that existed at snapshot time can be copy sources.
    snapshot: &'a [Terminator],
    /// The copy whose unfollowed edges still await repair.
    pending_repair: Option<BlockId>,
    /// Compensation chains created by repairs (new superblocks).
    chains: Vec<SbBuild>,
    /// Blocks appended across the walk (statistics).
    appended: u32,
}

/// Longest superblock suffix a single repair may duplicate; longer
/// residues are left to the fixup splitter (rare).
const MAX_REPAIR_CHAIN: usize = 32;

impl<'a> Grower<'a> {
    /// Creates a grower for one superblock walk. The superblock must be in
    /// its pre-enlargement (clean) state.
    pub fn new(snapshot: &'a [Terminator], sb: &SbBuild) -> Self {
        let _ = sb;
        Grower { snapshot, pending_repair: None, chains: Vec::new(), appended: 0 }
    }

    /// Appends a copy of `src` to `sb`: instructions cloned from `src`, the
    /// terminator taken from the snapshot, and the current last block's
    /// edges to `src` retargeted onto the copy. Unfollowed interior edges
    /// of the *previous* copy are repaired now that the walk's direction is
    /// known.
    ///
    /// # Panics
    /// Panics if `src` postdates the snapshot (only pass-start blocks can
    /// be copy sources; the walk never encounters newer blocks because
    /// snapshot terminators only reference pass-start blocks).
    pub fn append(
        &mut self,
        proc: &mut Proc,
        sb: &mut SbBuild,
        src: BlockId,
        orig_of: &mut Vec<BlockId>,
        index: &SbIndex,
    ) -> BlockId {
        assert!(
            src.index() < self.snapshot.len(),
            "copy source {src} postdates the snapshot"
        );
        if let Some(prev) = self.pending_repair.take() {
            self.repair_unfollowed(proc, prev, Some(src), orig_of, index);
        }
        let term = self.snapshot[src.index()].clone();
        let instrs = proc.block(src).instrs.clone();
        let copy = proc.push_block(Block::new(instrs, term));
        let last = sb.last();
        proc.block_mut(last)
            .term
            .retarget(|t| if t == src { copy } else { t });
        let src_orig = orig_of[src.index()];
        orig_of.push(src_orig);
        debug_assert_eq!(orig_of.len(), proc.blocks.len());
        sb.blocks.push(copy);
        sb.orig.push(src_orig);
        self.pending_repair = Some(copy);
        self.appended += 1;
        copy
    }

    /// Completes the walk: repairs the final copy's interior edges and
    /// returns `(blocks appended, compensation chains)`. The chains must be
    /// added to the partition as superblocks.
    pub fn finish(
        mut self,
        proc: &mut Proc,
        orig_of: &mut Vec<BlockId>,
        index: &SbIndex,
    ) -> (u32, Vec<SbBuild>) {
        if let Some(prev) = self.pending_repair.take() {
            self.repair_unfollowed(proc, prev, None, orig_of, index);
        }
        (self.appended, self.chains)
    }

    /// Repairs every successor edge of `copy` that targets a superblock
    /// interior, except the edge to `followed` (the walk continues there
    /// and the next append retargets it).
    fn repair_unfollowed(
        &mut self,
        proc: &mut Proc,
        copy: BlockId,
        followed: Option<BlockId>,
        orig_of: &mut Vec<BlockId>,
        index: &SbIndex,
    ) {
        let targets = proc.block(copy).term.successors();
        for t in targets {
            if Some(t) == followed || t.index() >= self.snapshot.len() {
                continue;
            }
            if index.headed_by(t).is_some() {
                continue;
            }
            let Some((sbi, pos)) = index.loc.get(t.index()).copied().flatten() else {
                continue;
            };
            let suffix = &index.blocks[sbi as usize][pos as usize..];
            if suffix.is_empty() || suffix.len() > MAX_REPAIR_CHAIN {
                continue; // the fixup splitter handles the residue
            }
            // Tail-duplicate the suffix: clone each block with its
            // snapshot terminator, chain internal edges pairwise.
            let mut chain: Vec<BlockId> = Vec::with_capacity(suffix.len());
            let mut chain_orig: Vec<BlockId> = Vec::with_capacity(suffix.len());
            for &b in suffix {
                let term = self.snapshot[b.index()].clone();
                let instrs = proc.block(b).instrs.clone();
                let c = proc.push_block(Block::new(instrs, term));
                orig_of.push(orig_of[b.index()]);
                chain.push(c);
                chain_orig.push(orig_of[b.index()]);
            }
            for k in 0..chain.len() - 1 {
                let next_src = suffix[k + 1];
                let next_copy = chain[k + 1];
                proc.block_mut(chain[k])
                    .term
                    .retarget(|x| if x == next_src { next_copy } else { x });
            }
            let chain_head = chain[0];
            proc.block_mut(copy)
                .term
                .retarget(|x| if x == t { chain_head } else { x });
            self.appended += chain.len() as u32;
            self.chains.push(SbBuild { blocks: chain, orig: chain_orig });
        }
    }
}

/// Outcome statistics of enlarging one superblock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnlargeStats {
    /// Blocks appended to the superblock plus blocks in compensation
    /// chains.
    pub appended: u32,
    /// Loop-head crossings consumed (path) or unroll bodies added (edge).
    pub loop_crossings: u32,
    /// True when enlargement was skipped by the completion-frequency check.
    pub skipped_low_completion: bool,
}

/// Path-based enlargement (Figure 2), `P4`/`P4e`.
///
/// Grows `sb` by most-likely path successors. Stops at: exhausted path
/// frequency, the instruction-count cap, a multi-block non-loop superblock
/// head, or when the `unroll` loop-head-crossing budget is consumed
/// (singleton non-loop heads are transparent — this is how the unified
/// mechanism subsumes branch target expansion). Under `restrained` (P4e),
/// superblocks that are not themselves superblock loops are not enlarged at
/// all ("enlargement uses only tail-duplicated code").
#[allow(clippy::too_many_arguments)]
pub fn enlarge_path(
    proc: &mut Proc,
    pid: ProcId,
    sb: &mut SbBuild,
    sb_idx_self: u32,
    index: &SbIndex,
    snapshot: &[Terminator],
    profile: &PathProfile,
    orig_of: &mut Vec<BlockId>,
    unroll: u32,
    restrained: bool,
    config: &FormConfig,
) -> (EnlargeStats, Vec<SbBuild>) {
    let mut stats = EnlargeStats::default();
    let self_is_loop = index.is_loopish[sb_idx_self as usize];

    // Enlarge only superblocks that complete with high frequency: the
    // exact completion frequency is f(trace)/f(head) (longest-suffix rule
    // for long traces).
    let head_freq = profile.block_freq(pid, sb.orig[0]);
    if head_freq == 0 {
        return (stats, Vec::new());
    }
    let q = profile.trim_to_depth(proc, &sb.orig);
    let completion = profile.freq(pid, q) as f64 / head_freq as f64;
    if completion < config.completion_threshold {
        stats.skipped_low_completion = true;
        return (stats, Vec::new());
    }

    let mut grower = Grower::new(snapshot, sb);
    let mut crossings = 0u32;
    loop {
        if sb.static_size(proc) >= config.max_superblock_instrs {
            break;
        }
        // Most-likely path successor over the current last block's CFG
        // successors, queried on original ids.
        let last = sb.last();
        let succs = proc.block(last).term.successors();
        let mut best: Option<(BlockId, u64)> = None;
        let mut buf: Vec<BlockId> = Vec::with_capacity(sb.orig.len() + 1);
        for &s in &succs {
            buf.clear();
            buf.extend_from_slice(&sb.orig);
            buf.push(orig_of[s.index()]);
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
        let Some((s, _)) = best else { break };

        if let Some(target_idx) = index.headed_by(s) {
            let t = target_idx as usize;
            if index.is_chain[t] {
                // Tail-duplicated compensation code: absorbable under
                // every variant ("enlargement uses only tail-duplicated
                // code" is exactly what P4e permits for non-loop
                // superblocks).
            } else if index.is_loopish[t] {
                // A superblock-loop head: P4e non-loop candidates stop at
                // any real head; otherwise consume the unroll budget
                // (Figure 2's `c++ >= 4`: the walk may cross `unroll` loop
                // heads and stops at the next one).
                if restrained && !self_is_loop {
                    break;
                }
                if crossings >= unroll {
                    break;
                }
                crossings += 1;
                stats.loop_crossings += 1;
            } else if restrained && (index.len[t] > 1 || !self_is_loop) {
                // P4e limits code expansion: stop at real superblock
                // heads. P4 crosses any head — per the paper's §4, a
                // superblock "is enlarged until it contains at most 4
                // superblock loops" — the unified branch target expansion.
                break;
            }
        }
        grower.append(proc, sb, s, orig_of, index);
    }
    let (appended, chains) = grower.finish(proc, orig_of, index);
    stats.appended = appended;
    (stats, chains)
}

/// Edge-based enlargement: the classical trio, `M4`/`M16`.
#[allow(clippy::too_many_arguments)]
pub fn enlarge_edge(
    proc: &mut Proc,
    pid: ProcId,
    sb: &mut SbBuild,
    sb_idx_self: u32,
    index: &SbIndex,
    snapshot: &[Terminator],
    sbs_snapshot: &[Vec<BlockId>],
    edge: &EdgeProfile,
    orig_of: &mut Vec<BlockId>,
    unroll: u32,
    config: &FormConfig,
) -> (EnlargeStats, Vec<SbBuild>) {
    let mut stats = EnlargeStats::default();
    let self_is_loop = index.is_loop[sb_idx_self as usize];
    let mut grower = Grower::new(snapshot, sb);

    if self_is_loop {
        // Average trip count per entry: f(head) / (f(head) - f(back edge)).
        let head_f = edge.block_freq(pid, sb.orig[0]) as f64;
        let back_f =
            edge.edge_freq(pid, *sb.orig.last().expect("non-empty"), sb.orig[0]) as f64;
        if head_f <= 0.0 {
            return (stats, Vec::new());
        }
        let entries = (head_f - back_f).max(1.0);
        let avg_trip = head_f / entries;
        // High-trip loops unroll by the factor; low-trip loops "peel" the
        // expected iteration count (realized as unrolling by that count).
        let bodies = if avg_trip >= PEEL_MAX_AVG {
            unroll
        } else {
            (avg_trip.round() as u32).clamp(1, unroll)
        };
        let body: Vec<BlockId> = sb.blocks.clone();
        'outer: for _ in 1..bodies {
            for &b in &body {
                if sb.static_size(proc) >= config.max_superblock_instrs {
                    break 'outer;
                }
                // Follow the loop path: the current last block must have an
                // edge to a block copying the same original as `b`.
                let last = sb.last();
                let want = orig_of[b.index()];
                let src = proc
                    .block(last)
                    .term
                    .successors()
                    .into_iter()
                    .find(|&t| orig_of[t.index()] == want);
                let Some(src) = src else { break 'outer };
                grower.append(proc, sb, src, orig_of, index);
            }
            stats.loop_crossings += 1;
        }
    } else {
        // Branch target expansion: while the last branch likely jumps to
        // the head of another non-loop superblock, append that superblock's
        // blocks.
        loop {
            if sb.static_size(proc) >= config.max_superblock_instrs {
                break;
            }
            let last = sb.last();
            let last_orig = *sb.orig.last().expect("non-empty");
            let bf = edge.block_freq(pid, last_orig);
            if bf == 0 {
                break;
            }
            // Most likely successor by original edge frequency.
            let mut best: Option<(BlockId, u64)> = None;
            for s in proc.block(last).term.successors() {
                let f = edge.edge_freq(pid, last_orig, orig_of[s.index()]);
                if f == 0 {
                    continue;
                }
                best = Some(match best {
                    None => (s, f),
                    Some((bb, ff)) => {
                        if f > ff || (f == ff && s < bb) {
                            (s, f)
                        } else {
                            (bb, ff)
                        }
                    }
                });
            }
            let Some((s, f)) = best else { break };
            if (f as f64) < LIKELY_THRESHOLD * (bf as f64) {
                break;
            }
            let Some(target_idx) = index.headed_by(s) else { break };
            let t = target_idx as usize;
            if index.is_loop[t] || target_idx == sb_idx_self {
                break;
            }
            // Append the entire target superblock (as it was before any
            // enlargement, to bound growth).
            let target_blocks = &sbs_snapshot[t];
            let mut ok = true;
            for &tb in target_blocks {
                if sb.static_size(proc) >= config.max_superblock_instrs {
                    ok = false;
                    break;
                }
                let last = sb.last();
                let want = orig_of[tb.index()];
                let src = proc
                    .block(last)
                    .term
                    .successors()
                    .into_iter()
                    .find(|&x| orig_of[x.index()] == want);
                let Some(src) = src else {
                    ok = false;
                    break;
                };
                grower.append(proc, sb, src, orig_of, index);
            }
            if !ok {
                break;
            }
        }
    }
    let (appended, chains) = grower.finish(proc, orig_of, index);
    stats.appended = appended;
    (stats, chains)
}

/// Captures the terminators of all blocks — the copy-source snapshot for
/// enlargement. Call after tail duplication, before any enlargement.
pub fn snapshot_terms(proc: &Proc) -> Vec<Terminator> {
    proc.blocks.iter().map(|b| b.term.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::verify::verify_program;
    use pps_ir::{AluOp, Operand, Program};

    /// Counted loop with body blocks head -> body -> latch(-> head|exit).
    fn loop3(n: i64) -> (Program, [BlockId; 4]) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let body = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.nop();
        f.jump(body);
        f.switch_to(body);
        f.alu(AluOp::Add, i, i, 1i64);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.out(i);
        f.ret(None);
        let main = f.finish();
        (pb.finish(main), [head, body, latch, exit])
    }

    fn profiles(p: &Program) -> (EdgeProfile, PathProfile) {
        let mut ep = pps_profile::EdgeProfiler::new(p);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[], &mut ep)
            .unwrap();
        let mut pp = pps_profile::PathProfiler::new(p, 15);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[], &mut pp)
            .unwrap();
        (ep.finish(), pp.finish())
    }

    fn identity_orig(p: &Program) -> Vec<BlockId> {
        p.proc(p.entry).block_ids().collect()
    }

    #[test]
    fn edge_unroll_appends_bodies() {
        let (mut p, [head, body, latch, exit]) = loop3(100);
        let before = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        let (ep, _) = profiles(&p);
        let pid = p.entry;
        let mut orig_of = identity_orig(&p);
        let mut sbs = vec![
            SbBuild::from_original(vec![head, body, latch]),
            SbBuild::from_original(vec![BlockId::new(0)]),
            SbBuild::from_original(vec![exit]),
        ];
        let config = FormConfig::default();
        let no_chains = vec![false; sbs.len()];
        let an = ProcAnalysis::compute(p.proc(pid));
        let index = SbIndex::build(p.proc(pid), pid, &sbs, &no_chains, &ep, &an);
        assert!(index.is_loop[0], "loop classified");
        assert!(!index.is_loop[1]);
        let snap = snapshot_terms(p.proc(pid));
        let snapshot: Vec<Vec<BlockId>> = sbs.iter().map(|s| s.blocks.clone()).collect();
        let proc = p.proc_mut(pid);
        let (stats, chains) = enlarge_edge(
            proc, pid, &mut sbs[0], 0, &index, &snap, &snapshot, &ep, &mut orig_of, 4, &config,
        );
        // Unroll factor 4: three extra bodies of 3 blocks each; the walk
        // ends cleanly at the loop head, so no compensation chains.
        assert_eq!(stats.appended, 9);
        assert!(chains.is_empty());
        assert_eq!(sbs[0].blocks.len(), 12);
        verify_program(&p).unwrap();
        let after = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(before.output, after.output);
    }

    #[test]
    fn edge_low_trip_loop_peels() {
        // Average trip count 5 (< PEEL_MAX_AVG 8): with a generous unroll
        // limit of 8, peeling appends bodies to match the trip count (5),
        // not the limit.
        let (mut p, [head, body, latch, exit]) = loop3(5);
        let (ep, _) = profiles(&p);
        let pid = p.entry;
        let mut orig_of = identity_orig(&p);
        let mut sbs = vec![
            SbBuild::from_original(vec![head, body, latch]),
            SbBuild::from_original(vec![BlockId::new(0)]),
            SbBuild::from_original(vec![exit]),
        ];
        let config = FormConfig::default();
        let no_chains = vec![false; sbs.len()];
        let an = ProcAnalysis::compute(p.proc(pid));
        let index = SbIndex::build(p.proc(pid), pid, &sbs, &no_chains, &ep, &an);
        assert!(index.is_loop[0], "trip-5 loop is likely (4/5 back-edge)");
        let snap = snapshot_terms(p.proc(pid));
        let snapshot: Vec<Vec<BlockId>> = sbs.iter().map(|s| s.blocks.clone()).collect();
        let (stats, _chains) = enlarge_edge(
            p.proc_mut(pid), pid, &mut sbs[0], 0, &index, &snap, &snapshot, &ep,
            &mut orig_of, 8, &config,
        );
        assert_eq!(stats.appended, 12, "peel to 5 bodies total");
        verify_program(&p).unwrap();
    }

    #[test]
    fn path_enlarge_unrolls_dominant_loop() {
        let (mut p, [head, body, latch, exit]) = loop3(100);
        let before = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        let (ep, pp) = profiles(&p);
        let pid = p.entry;
        let mut orig_of = identity_orig(&p);
        let mut sbs = vec![
            SbBuild::from_original(vec![head, body, latch]),
            SbBuild::from_original(vec![BlockId::new(0)]),
            SbBuild::from_original(vec![exit]),
        ];
        let config = FormConfig::default();
        let no_chains = vec![false; sbs.len()];
        let an = ProcAnalysis::compute(p.proc(pid));
        let index = SbIndex::build(p.proc(pid), pid, &sbs, &no_chains, &ep, &an);
        let snap = snapshot_terms(p.proc(pid));
        let (stats, chains) = enlarge_path(
            p.proc_mut(pid), pid, &mut sbs[0], 0, &index, &snap, &pp, &mut orig_of,
            4, false, &config,
        );
        // Figure 2 budget: 4 head crossings consumed, 4 extra bodies of 3
        // blocks appended (5 bodies total incl. the original).
        assert_eq!(stats.loop_crossings, 4);
        assert_eq!(stats.appended, 12);
        assert!(chains.is_empty(), "uniform loop: no divergence, no chains");
        // The final latch copy branches back to the original head: no side
        // entrance, nothing rolled back.
        let last = sbs[0].last();
        assert!(p.proc(pid).block(last).term.successors().contains(&head));
        verify_program(&p).unwrap();
        let after = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(before.output, after.output);
    }

    #[test]
    fn path_enlarge_skips_low_completion() {
        // Deliberately bad trace [head, rare] where rare runs 10% of
        // iterations: completion check must refuse to enlarge.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let rare = f.new_block();
        let common = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Rem, m, i, 10i64);
        f.alu(AluOp::CmpEq, c, m, 0i64);
        f.branch(c, rare, common);
        f.switch_to(rare);
        f.jump(latch);
        f.switch_to(common);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(200));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        let mut p = pb.finish(main);
        let (ep, pp) = profiles(&p);
        let pid = p.entry;
        let mut orig_of = identity_orig(&p);
        let mut sbs = vec![
            SbBuild::from_original(vec![head, rare]),
            SbBuild::from_original(vec![BlockId::new(0)]),
            SbBuild::from_original(vec![common]),
            SbBuild::from_original(vec![latch]),
            SbBuild::from_original(vec![exit]),
        ];
        let config = FormConfig::default();
        let no_chains = vec![false; sbs.len()];
        let an = ProcAnalysis::compute(p.proc(pid));
        let index = SbIndex::build(p.proc(pid), pid, &sbs, &no_chains, &ep, &an);
        let snap = snapshot_terms(p.proc(pid));
        let (stats, chains) = enlarge_path(
            p.proc_mut(pid), pid, &mut sbs[0], 0, &index, &snap, &pp, &mut orig_of,
            4, false, &config,
        );
        assert!(stats.skipped_low_completion);
        assert_eq!(stats.appended, 0);
        assert!(chains.is_empty());
    }

    #[test]
    fn p4e_skips_non_loop_superblocks() {
        let (mut p, [head, body, latch, exit]) = loop3(100);
        let (ep, pp) = profiles(&p);
        let pid = p.entry;
        let mut orig_of = identity_orig(&p);
        // Entry superblock is not a loop.
        let mut sbs = vec![
            SbBuild::from_original(vec![BlockId::new(0)]),
            SbBuild::from_original(vec![head, body, latch]),
            SbBuild::from_original(vec![exit]),
        ];
        let config = FormConfig::default();
        let no_chains = vec![false; sbs.len()];
        let an = ProcAnalysis::compute(p.proc(pid));
        let index = SbIndex::build(p.proc(pid), pid, &sbs, &no_chains, &ep, &an);
        let snap = snapshot_terms(p.proc(pid));
        let (stats, _chains) = enlarge_path(
            p.proc_mut(pid), pid, &mut sbs[0], 0, &index, &snap, &pp, &mut orig_of,
            4, true, &config,
        );
        assert_eq!(stats.appended, 0, "P4e: non-loop superblock untouched");
    }

    #[test]
    fn size_cap_stop_gets_compensation_chain() {
        let (mut p, [head, body, latch, exit]) = loop3(1000);
        let before = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        let (ep, pp) = profiles(&p);
        let pid = p.entry;
        let mut orig_of = identity_orig(&p);
        let mut sbs = vec![
            SbBuild::from_original(vec![head, body, latch]),
            SbBuild::from_original(vec![BlockId::new(0)]),
            SbBuild::from_original(vec![exit]),
        ];
        // Cap mid-body: initial 6 instrs, each body adds 6; a cap of 14
        // stops inside the second appended body.
        let config = FormConfig { max_superblock_instrs: 14, ..Default::default() };
        let no_chains = vec![false; sbs.len()];
        let an = ProcAnalysis::compute(p.proc(pid));
        let index = SbIndex::build(p.proc(pid), pid, &sbs, &no_chains, &ep, &an);
        let snap = snapshot_terms(p.proc(pid));
        let (stats, chains) = enlarge_path(
            p.proc_mut(pid), pid, &mut sbs[0], 0, &index, &snap, &pp, &mut orig_of,
            64, false, &config,
        );
        // The walk stopped mid-body; the final copy's dangling edge into
        // the loop interior is repaired with a tail-duplicate chain, so no
        // side entrance exists anywhere.
        assert!(stats.appended > 0);
        assert!(!chains.is_empty(), "mid-body stop needs a compensation chain");
        let mut all = sbs.clone();
        all.extend(chains);
        let post_cfg = pps_ir::analysis::Cfg::compute(p.proc(pid));
        let (splits, _) = crate::fixup::split_side_entrances(&post_cfg, &mut all);
        assert_eq!(splits, 0, "repair chains leave the partition clean");
        verify_program(&p).unwrap();
        let after = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(before.output, after.output);
        let _ = body;
    }
}
