//! What a run without a layout computes, derived from an edge profile of
//! that run instead of from a second execution.
//!
//! [`CycleSim`](crate::CycleSim) without a layout charges every superblock
//! exit and counts every inter-superblock transfer as the trace goes by.
//! All of it depends only on how often each block ran and how often each
//! intra-procedural edge was taken, which is what an edge profile of the
//! same run records. For a superblock `b_0 … b_{n-1}`:
//!
//! - Position `p` is left `freq(b_p) − freq(b_p → b_{p+1})` times
//!   (`freq(b_{n-1})` times for the last position): each execution of
//!   `b_p` either falls through to `b_{p+1}` inside the schedule or leaves.
//!   A leave costs `cost_of_exit(p)` cycles and is one Figure 7 traversal
//!   of `p + 1` blocks.
//! - Every other edge `a → b` is a transition from `a`'s superblock to
//!   `b`'s.
//! - A procedure's activations are `freq(entry)` minus the edges into its
//!   entry block, and each one enters at the entry block's superblock.
//!
//! The profile must be of a run that completed: the open activations of a
//! truncated run never left their last superblock. `tests/interp_diff.rs`
//! checks the derivation against [`CycleSim`](crate::CycleSim) under both
//! engines.

use crate::cycle::Transitions;
use crate::metrics::SbDynStats;
use crate::record_sim_counters;
use pps_compact::CompactedProgram;
use pps_ir::{BlockId, ProcId, Program};
use pps_obs::Obs;
use pps_profile::EdgeProfile;

/// What [`simulate`](crate::simulate) without a layout computes for a run,
/// less the execution result: see [`from_edge_profile`].
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Cycle count with a perfect instruction cache.
    pub cycles: u64,
    /// Inter-superblock transition counts (for layout construction).
    pub transitions: Transitions,
    /// Figure 7 statistics.
    pub sb_stats: SbDynStats,
}

/// Derives the cycles, Figure 7 statistics and superblock transitions of a
/// completed run of `program` from `profile`, an edge profile of that run
/// (see the module docs), and records them into `obs` as the same `sim.*`
/// counters [`simulate_obs`](crate::simulate_obs) records without a
/// layout.
///
/// # Panics
/// If a block the profile executed lies in no superblock of `compacted`,
/// as [`CycleSim`](crate::CycleSim) does.
pub fn from_edge_profile(
    program: &Program,
    compacted: &CompactedProgram,
    profile: &EdgeProfile,
    obs: &Obs,
) -> ProfiledRun {
    let mut run = ProfiledRun {
        cycles: 0,
        transitions: Transitions::new(compacted),
        sb_stats: SbDynStats::default(),
    };
    for (pi, cp) in compacted.procs.iter().enumerate() {
        let pid = ProcId::new(pi as u32);
        let location = |block: BlockId| {
            cp.location(block)
                .unwrap_or_else(|| panic!("executed block {block} of {pid} not in any superblock"))
        };
        for block in (0..profile.num_blocks(pid) as u32).map(BlockId::new) {
            let freq = profile.block_freq(pid, block);
            if freq == 0 {
                continue;
            }
            let (sb, pos) = location(block);
            let scheduled = &cp.superblocks[sb as usize];
            let fall_through = scheduled
                .spec
                .blocks
                .get(pos as usize + 1)
                .map_or(0, |&next| profile.edge_freq(pid, block, next));
            let leaves = freq - fall_through;
            if leaves > 0 {
                run.cycles += leaves * scheduled.schedule.cost_of_exit(pos as usize);
                run.sb_stats.record_n(pos + 1, scheduled.spec.len() as u32, leaves);
            }
        }
        let entry = program.proc(pid).entry;
        let mut reentries = 0;
        for ((from, to), count) in profile.iter_edges(pid) {
            if to == entry {
                reentries += count;
            }
            let ((from_sb, from_pos), (to_sb, to_pos)) = (location(from), location(to));
            if count > 0 && (from_sb != to_sb || to_pos != from_pos + 1) {
                run.transitions.record_n(pid, from_sb, to_sb, count);
            }
        }
        let activations = profile.block_freq(pid, entry) - reentries;
        if activations > 0 {
            run.transitions.record_activations(pid, location(entry).0, activations);
        }
    }
    record_sim_counters(obs, run.cycles, None, &run.sb_stats);
    run
}

