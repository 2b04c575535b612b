//! Profile aggregation and drift measurement for the continuous-PGO loop.
//!
//! Merging is pure counter addition — per-block / per-edge counts for
//! [`EdgeProfile`], maximal-window counts for [`PathProfile`] — so the
//! operation is commutative and associative, and merging then serializing
//! is byte-identical no matter the merge order (`tests/profile_props.rs`
//! proves this over random multi-procedure programs). Path profiles are
//! merged on their frozen tries, walked together node by node
//! ([`merge_paths`]); no window is materialized.
//!
//! [`path_drift`] quantifies how far a live aggregate has moved from the
//! profile a unit was compiled with: top-k hot-path set overlap plus total
//! variation distance over the normalized top-k weights. Only the hottest
//! windows are materialized to compute it. The serve daemon's drift
//! detector applies hysteresis thresholds on the combined score.

use crate::edge::EdgeProfile;
use crate::path::PathProfile;
use pps_ir::{BlockId, ProcId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Why two profiles cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The path profiles were collected at different window depths; their
    /// window populations are not comparable, let alone addable.
    DepthMismatch {
        /// Depth of the left operand.
        left: usize,
        /// Depth of the right operand.
        right: usize,
    },
    /// The profiles cover different numbers of procedures — they describe
    /// different programs.
    ShapeMismatch {
        /// Procedure count of the left operand.
        left: usize,
        /// Procedure count of the right operand.
        right: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::DepthMismatch { left, right } => {
                write!(f, "path depth mismatch: {left} vs {right}")
            }
            MergeError::ShapeMismatch { left, right } => {
                write!(f, "procedure count mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges two edge profiles by counter addition (saturating, so the
/// operation stays associative even at the `u64` ceiling).
///
/// # Errors
/// [`MergeError::ShapeMismatch`] when the profiles cover different
/// procedure counts.
pub fn merge_edges(a: &EdgeProfile, b: &EdgeProfile) -> Result<EdgeProfile, MergeError> {
    if a.num_procs() != b.num_procs() {
        return Err(MergeError::ShapeMismatch { left: a.num_procs(), right: b.num_procs() });
    }
    let mut block_freq: Vec<Vec<u64>> = Vec::with_capacity(a.num_procs());
    let mut edge_freq: Vec<HashMap<(BlockId, BlockId), u64>> = Vec::with_capacity(a.num_procs());
    for pi in 0..a.num_procs() {
        let pid = ProcId::new(pi as u32);
        let n = a.num_blocks(pid).max(b.num_blocks(pid));
        let mut blocks = vec![0u64; n];
        for (i, slot) in blocks.iter_mut().enumerate() {
            let id = BlockId::new(i as u32);
            let fa = if i < a.num_blocks(pid) { a.block_freq(pid, id) } else { 0 };
            let fb = if i < b.num_blocks(pid) { b.block_freq(pid, id) } else { 0 };
            *slot = fa.saturating_add(fb);
        }
        let mut edges: HashMap<(BlockId, BlockId), u64> = a.iter_edges(pid).collect();
        for (key, f) in b.iter_edges(pid) {
            let slot = edges.entry(key).or_insert(0);
            *slot = slot.saturating_add(f);
        }
        block_freq.push(blocks);
        edge_freq.push(edges);
    }
    Ok(EdgeProfile::from_counts(block_freq, edge_freq))
}

/// Merges two general path profiles by adding their maximal-window counts
/// (saturating). The result answers every [`PathProfile::freq`] query with
/// the sum of the operands' answers. The two frozen tries are walked
/// together into their union, so no window is materialized; a subtree
/// without a positive count is dropped, as if built from the positive
/// windows alone.
///
/// # Errors
/// [`MergeError::DepthMismatch`] / [`MergeError::ShapeMismatch`] when the
/// profiles are not comparable.
pub fn merge_paths(a: &PathProfile, b: &PathProfile) -> Result<PathProfile, MergeError> {
    if a.depth() != b.depth() {
        return Err(MergeError::DepthMismatch { left: a.depth(), right: b.depth() });
    }
    if a.num_procs() != b.num_procs() {
        return Err(MergeError::ShapeMismatch { left: a.num_procs(), right: b.num_procs() });
    }
    Ok(PathProfile::merge(a, b))
}

/// How far a live path aggregate has moved from a reference profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Fraction of the reference's top-k hot windows still in the live
    /// top-k (1.0 = identical hot set, 0.0 = disjoint).
    pub top_k_overlap: f64,
    /// Total variation distance between the normalized weights of the two
    /// top-k sets, over their union (0.0 = same distribution, 1.0 =
    /// disjoint mass).
    pub weight_divergence: f64,
    /// Combined drift score in `[0, 1]`:
    /// `0.5 * (1 - overlap) + 0.5 * divergence`.
    pub score: f64,
    /// Windows actually compared (`min(k, distinct windows)`), 0 when
    /// either profile is empty — an empty comparison scores 0 drift.
    pub compared: usize,
}

/// The `k` hottest maximal windows of `profile` across all procedures,
/// hottest first, deterministically tie-broken by (procedure, window).
///
/// A pass over the trie nodes' counts finds the `k`-th largest count; only
/// windows at least that hot are materialized (the `k` plus any tied with
/// the last), then sorted and cut to `k`.
fn top_k_windows(profile: &PathProfile, k: usize) -> Vec<((ProcId, Vec<BlockId>), u64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut hottest: BinaryHeap<Reverse<u64>> = BinaryHeap::with_capacity(k + 1);
    profile.for_each_count(|count| {
        if count > 0 && (hottest.len() < k || hottest.peek().is_some_and(|&Reverse(c)| count > c)) {
            hottest.push(Reverse(count));
            if hottest.len() > k {
                hottest.pop();
            }
        }
    });
    let threshold = match hottest.peek() {
        Some(&Reverse(kth)) if hottest.len() == k => kth,
        _ => 1,
    };
    let mut top: Vec<((ProcId, Vec<BlockId>), u64)> = Vec::new();
    for pi in 0..profile.num_procs() {
        let pid = ProcId::new(pi as u32);
        profile.for_each_window(pid, |key, count| {
            if count >= threshold {
                top.push(((pid, key.iter().rev().copied().collect()), count));
            }
        });
    }
    top.sort_by(|(ka, ca), (kb, cb)| cb.cmp(ca).then_with(|| ka.cmp(kb)));
    top.truncate(k);
    top
}

/// Measures drift of the `live` aggregate relative to the `compiled`
/// reference over their `k` hottest windows.
///
/// The two halves catch different failure shapes: `top_k_overlap` drops
/// when *which* paths are hot changes (the compiled unit optimized traces
/// that no longer run), while `weight_divergence` rises when the same
/// paths stay hot but their relative weights shift enough to invalidate
/// trace-selection priorities.
pub fn path_drift(compiled: &PathProfile, live: &PathProfile, k: usize) -> DriftReport {
    let (top_c, top_l) = (top_k_windows(compiled, k), top_k_windows(live, k));
    let compared = top_c.len().min(top_l.len());
    if compared == 0 {
        return DriftReport { top_k_overlap: 1.0, weight_divergence: 0.0, score: 0.0, compared: 0 };
    }

    let set_c: HashMap<&(ProcId, Vec<BlockId>), u64> =
        top_c.iter().map(|(key, count)| (key, *count)).collect();
    let set_l: HashMap<&(ProcId, Vec<BlockId>), u64> =
        top_l.iter().map(|(key, count)| (key, *count)).collect();

    let shared = top_c.iter().filter(|(key, _)| set_l.contains_key(key)).count();
    let top_k_overlap = shared as f64 / compared as f64;

    // Total variation distance over the union of the two top-k sets, each
    // side normalized by its own top-k mass.
    let mass_c: f64 = top_c.iter().map(|(_, c)| *c as f64).sum();
    let mass_l: f64 = top_l.iter().map(|(_, c)| *c as f64).sum();
    // The union in rank order (the compiled side's, then the live side's
    // others), so the sum is the same on every run.
    let only_live = top_l.iter().filter(|(key, _)| !set_c.contains_key(key));
    let mut divergence = 0.0;
    for (key, _) in top_c.iter().chain(only_live) {
        let pc = set_c.get(key).map_or(0.0, |&c| c as f64 / mass_c.max(1.0));
        let pl = set_l.get(key).map_or(0.0, |&c| c as f64 / mass_l.max(1.0));
        divergence += (pc - pl).abs();
    }
    let weight_divergence = (divergence / 2.0).clamp(0.0, 1.0);

    let score = 0.5 * (1.0 - top_k_overlap) + 0.5 * weight_divergence;
    DriftReport { top_k_overlap, weight_divergence, score, compared }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{edge_to_text, path_to_text};
    use crate::{EdgeProfiler, PathProfiler};
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand, Program};

    /// A loop whose branch pattern depends on `period`, so different
    /// periods yield genuinely different path distributions over the same
    /// block structure.
    fn patterned(n: i64, period: i64) -> Program {
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
        f.alu(AluOp::Rem, m, i, period);
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

    fn profiles(p: &Program, depth: usize) -> (EdgeProfile, PathProfile) {
        let mut ep = EdgeProfiler::new(p);
        Interp::new(p, ExecConfig::default()).run_traced(&[], &mut ep).unwrap();
        let mut pp = PathProfiler::new(p, depth);
        Interp::new(p, ExecConfig::default()).run_traced(&[], &mut pp).unwrap();
        (ep.finish(), pp.finish())
    }

    #[test]
    fn merge_adds_counts_exactly() {
        let p = patterned(40, 3);
        let (edge, path) = profiles(&p, 15);
        let edge2 = merge_edges(&edge, &edge).unwrap();
        let path2 = merge_paths(&path, &path).unwrap();
        let main = p.entry;
        for bi in 0..edge.num_blocks(main) {
            let b = pps_ir::BlockId::new(bi as u32);
            assert_eq!(edge2.block_freq(main, b), 2 * edge.block_freq(main, b));
        }
        for (window, count) in path.iter_maximal_windows(main) {
            assert_eq!(path2.freq(main, &window), 2 * path.freq(main, &window), "{window:?}");
            assert_eq!(path2.maximal_window_count(main, &window), 2 * count);
        }
    }

    #[test]
    fn merge_is_commutative_in_serialized_form() {
        let pa = patterned(60, 3);
        let pb = patterned(60, 7);
        let (ea, fa) = profiles(&pa, 15);
        let (eb, fb) = profiles(&pb, 15);
        assert_eq!(
            path_to_text(&merge_paths(&fa, &fb).unwrap()),
            path_to_text(&merge_paths(&fb, &fa).unwrap())
        );
        assert_eq!(
            edge_to_text(&merge_edges(&ea, &eb).unwrap()),
            edge_to_text(&merge_edges(&eb, &ea).unwrap())
        );
    }

    #[test]
    fn mismatched_depths_and_shapes_are_rejected() {
        let p = patterned(20, 2);
        let (_, d15) = profiles(&p, 15);
        let (_, d4) = profiles(&p, 4);
        assert!(matches!(merge_paths(&d15, &d4), Err(MergeError::DepthMismatch { .. })));

        let empty = PathProfile::from_windows(15, vec![]);
        assert!(matches!(merge_paths(&d15, &empty), Err(MergeError::ShapeMismatch { .. })));
    }

    #[test]
    fn identical_profiles_have_zero_drift() {
        let p = patterned(50, 4);
        let (_, path) = profiles(&p, 15);
        let report = path_drift(&path, &path, 16);
        assert_eq!(report.top_k_overlap, 1.0);
        assert!(report.weight_divergence < 1e-12);
        assert!(report.score < 1e-12);
        assert!(report.compared > 0);
    }

    #[test]
    fn different_patterns_drift_more_than_scaled_copies() {
        let (_, base) = profiles(&patterned(200, 3), 15);
        let (_, scaled) = profiles(&patterned(400, 3), 15);
        let (_, shifted) = profiles(&patterned(200, 13), 15);
        let same_shape = path_drift(&base, &scaled, 16);
        let new_shape = path_drift(&base, &shifted, 16);
        assert!(
            new_shape.score > same_shape.score,
            "pattern change must out-drift pure scaling: {} vs {}",
            new_shape.score,
            same_shape.score
        );
        assert!(new_shape.score > 0.2, "pattern change must register: {}", new_shape.score);
    }

    #[test]
    fn empty_comparison_scores_no_drift() {
        let empty = PathProfile::from_windows(15, vec![Vec::new()]);
        let p = patterned(20, 2);
        let (_, path) = profiles(&p, 15);
        assert_eq!(path_drift(&empty, &path, 8).score, 0.0);
        assert_eq!(path_drift(&path, &empty, 8).compared, 0);
    }
}
