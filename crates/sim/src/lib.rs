#![warn(missing_docs)]

//! Compiled-simulation analog (paper §3.2).
//!
//! The paper measures cycle counts by compiled simulation on a real Alpha.
//! Here, the execution engine ([`pps_ir::Exec`]: the fast engine unless
//! `PPS_ENGINE=reference` selects the reference interpreter) executes the
//! *transformed* program (so semantics are exact) while a
//! [`cycle::CycleSim`] trace sink charges cycles from the compacted
//! schedules: every dynamic superblock traversal leaves through exactly one
//! exit, and leaving through the terminator scheduled at cycle `c` costs
//! `c + 1` cycles.
//!
//! The instruction cache (32KB direct-mapped, 32-byte lines, 6-cycle miss
//! penalty) is simulated over the fetch stream implied by the schedules:
//! leaving a superblock at exit `e` fetches the prefix of instructions
//! scheduled at cycles `<= cycle(e)`, laid out in schedule order at the
//! superblock's base address from a Pettis–Hansen-style [`layout`].
//!
//! [`simulate`] packages one run; [`metrics`] aggregates the Figure 7
//! statistics (dynamically-weighted blocks-executed-per-superblock and
//! superblock size). [`from_edge_profile`] derives what a run without a
//! layout computes from an edge profile of that run, so the layout weights
//! need no execution of their own.

pub mod cycle;
pub mod icache;
pub mod layout;
pub mod metrics;
pub mod profiled;
pub mod tracecache;

use pps_compact::CompactedProgram;
use pps_ir::interp::{ExecConfig, ExecError, ExecResult};
use pps_ir::{Exec, Program};
use pps_machine::MachineConfig;
use pps_obs::Obs;

pub use cycle::{CycleSim, Transitions};
pub use icache::{CacheStats, DirectMappedICache};
pub use layout::Layout;
pub use metrics::SbDynStats;
pub use profiled::{from_edge_profile, ProfiledRun};
pub use tracecache::{TraceCacheConfig, TraceCacheSim, TraceCacheStats};

/// The complete outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Observable execution result (outputs, return value, dynamic counts).
    pub exec: ExecResult,
    /// Cycle count with a perfect instruction cache.
    pub cycles: u64,
    /// Instruction-cache statistics, when a layout was supplied.
    pub icache: Option<CacheStats>,
    /// Inter-superblock transition counts (for layout construction).
    pub transitions: Transitions,
    /// Figure 7 statistics.
    pub sb_stats: SbDynStats,
}

impl SimOutcome {
    /// Cycle count including instruction-cache miss penalties (equals
    /// [`cycles`](Self::cycles) when no layout was supplied).
    pub fn cycles_with_icache(&self) -> u64 {
        self.cycles + self.icache.as_ref().map_or(0, |c| c.penalty_cycles)
    }

    /// Instruction-cache miss rate (per instruction fetched), if simulated.
    pub fn miss_rate(&self) -> Option<f64> {
        self.icache.as_ref().map(CacheStats::miss_rate)
    }

    /// Records this outcome into `obs` as `sim.*` counters: cycle count,
    /// instruction-cache statistics (when simulated), and the dynamic
    /// superblock statistics behind Figure 7.
    pub fn record_metrics(&self, obs: &Obs) {
        record_sim_counters(obs, self.cycles, self.icache.as_ref(), &self.sb_stats);
    }
}

/// The `sim.*` counters of one run: cycles, instruction-cache statistics
/// when simulated, and the Figure 7 statistics.
fn record_sim_counters(obs: &Obs, cycles: u64, icache: Option<&CacheStats>, sb: &SbDynStats) {
    obs.counter("sim.cycles", cycles);
    if let Some(ic) = icache {
        obs.counter("sim.icache.accesses", ic.accesses);
        obs.counter("sim.icache.misses", ic.misses);
        obs.counter("sim.icache.penalty_cycles", ic.penalty_cycles);
    }
    obs.counter("sim.sb.traversals", sb.traversals);
    obs.counter("sim.sb.blocks_executed", sb.blocks_executed);
    obs.counter("sim.sb.size_blocks", sb.size_blocks);
}

/// Runs `program` on `args`, charging cycles from `compacted`'s schedules.
/// Pass a [`Layout`] to simulate the instruction cache as well.
///
/// # Errors
/// Propagates interpreter errors ([`ExecError`]).
pub fn simulate(
    program: &Program,
    compacted: &CompactedProgram,
    machine: &MachineConfig,
    layout: Option<&Layout>,
    args: &[i64],
) -> Result<SimOutcome, ExecError> {
    simulate_obs(program, compacted, machine, layout, args, &Obs::noop())
}

/// [`simulate`] with observability: the run executes under a `simulate`
/// span and the outcome's `sim.*` metrics are recorded into `obs`.
///
/// # Errors
/// As [`simulate`].
pub fn simulate_obs(
    program: &Program,
    compacted: &CompactedProgram,
    machine: &MachineConfig,
    layout: Option<&Layout>,
    args: &[i64],
    obs: &Obs,
) -> Result<SimOutcome, ExecError> {
    let span = obs.span("simulate").arg("icache", layout.is_some());
    let mut sim = CycleSim::new(compacted, machine, layout);
    let exec = Exec::new(program, ExecConfig::default()).run_traced(args, &mut sim)?;
    let outcome = sim.finish(exec);
    drop(span.arg("cycles", outcome.cycles));
    outcome.record_metrics(obs);
    Ok(outcome)
}

#[cfg(test)]
mod test_programs {
    use pps_compact::{compact_program, singleton_partition, CompactConfig, CompactedProgram};
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::{ProcId, Program};

    /// A program whose procedure `i` is a straight chain of `sizes[i]`
    /// blocks, compacted as singletons: `sizes[i]` superblocks each, the
    /// superblock of block `b` being `b`. Every block outputs its index,
    /// so no superblock is empty.
    pub(crate) fn chain_program(sizes: &[usize]) -> (Program, CompactedProgram) {
        let mut pb = ProgramBuilder::new();
        let ids: Vec<ProcId> =
            (0..sizes.len()).map(|i| pb.declare_proc(format!("p{i}"), 0)).collect();
        for (&id, &n) in ids.iter().zip(sizes) {
            let mut f = pb.begin_declared(id);
            for b in 1..n {
                f.out(b as i64 - 1);
                let next = f.new_block();
                f.jump(next);
                f.switch_to(next);
            }
            f.out(n as i64 - 1);
            f.ret(None);
            f.finish();
        }
        let mut p = pb.finish(ids[0]);
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        (p, compacted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::interp::Interp;
    use pps_compact::compactor::singleton_partition;
    use pps_compact::{compact_program, CompactConfig};
    use pps_core::{form_and_compact, FormConfig, Scheme};
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::{AluOp, Operand, Program, Reg};
    use pps_profile::{EdgeProfiler, PathProfiler};

    fn loopy() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let i = f.reg();
        let s = f.reg();
        let c = f.reg();
        f.mov(i, 0i64);
        f.mov(s, 0i64);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Reg(n));
        f.branch(c, body, exit);
        f.switch_to(body);
        f.alu(AluOp::Add, s, s, i);
        f.alu(AluOp::Add, i, i, 1i64);
        f.jump(head);
        f.switch_to(exit);
        f.out(s);
        f.ret(Some(Operand::Reg(s)));
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn baseline_cycles_match_hand_count() {
        let mut p = loopy();
        let part = singleton_partition(&p);
        // Renaming off so the arithmetic below has no compensation stubs.
        let cc = CompactConfig { renaming: false, move_renaming: false, ..Default::default() };
        let compacted = compact_program(&mut p, &part, &cc);
        let m = MachineConfig::paper();
        let out = simulate(&p, &compacted, &m, None, &[3]).unwrap();
        assert_eq!(out.exec.return_value, Some(3));
        // Hand count (8-wide, 1 control/cycle, unit latency):
        //  entry: mov,mov @0 + jump @0 -> 1 cycle
        //  head: cmp @0, branch @1 -> 2 cycles, 4 traversals
        //  body: add,add @0, jump @0 -> 1 cycle, 3 traversals
        //  exit: out @0, ret @0 (latency-0 edge) -> 1 cycle
        // total = 1 + 4*2 + 3*1 + 1 = 13.
        assert_eq!(out.cycles, 13);
        // Transitions recorded.
        assert!(out.transitions.total() > 0);
        // Fig-7 stats: every traversal of a singleton executes 1 block.
        assert_eq!(out.sb_stats.traversals, 1 + 4 + 3 + 1);
        assert_eq!(out.sb_stats.blocks_executed, out.sb_stats.traversals);
    }

    #[test]
    fn formed_program_reaches_fewer_cycles_than_baseline() {
        let mut base = loopy();
        let part = singleton_partition(&base);
        let compact_base = compact_program(&mut base, &part, &CompactConfig::default());
        let m = MachineConfig::paper();
        let cycles_base = simulate(&base, &compact_base, &m, None, &[500])
            .unwrap()
            .cycles;

        let mut formed = loopy();
        let mut ep = EdgeProfiler::new(&formed);
        Interp::new(&formed, ExecConfig::default())
            .run_traced(&[300], &mut ep)
            .unwrap();
        let mut pp = PathProfiler::new(&formed, 15);
        Interp::new(&formed, ExecConfig::default())
            .run_traced(&[300], &mut pp)
            .unwrap();
        let (compacted, _) = form_and_compact(
            &mut formed,
            &ep.finish(),
            Some(&pp.finish()),
            Scheme::P4,
            &FormConfig::default(),
            &CompactConfig::default(),
        )
        .unwrap();
        let out = simulate(&formed, &compacted, &m, None, &[500]).unwrap();
        assert_eq!(out.exec.return_value, Some(500 * 499 / 2));
        assert!(
            out.cycles < cycles_base,
            "P4 {} !< baseline {}",
            out.cycles,
            cycles_base
        );
    }

    #[test]
    fn icache_simulation_counts_misses() {
        let mut p = loopy();
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let m = MachineConfig::paper();
        // Training run for transitions, then layout, then measured run.
        let train = simulate(&p, &compacted, &m, None, &[50]).unwrap();
        let layout = Layout::build(&p, &compacted, &train.transitions, &m);
        let out = simulate(&p, &compacted, &m, Some(&layout), &[50]).unwrap();
        let stats = out.icache.expect("icache simulated");
        assert!(stats.accesses > 0);
        // Tiny program: everything fits; misses only compulsory.
        assert!(stats.misses >= 1, "at least one compulsory miss");
        assert!(stats.miss_rate() < 0.05, "tiny working set mostly hits");
        assert_eq!(
            out.cycles_with_icache(),
            out.cycles + stats.misses * m.icache.miss_penalty
        );
    }
}
