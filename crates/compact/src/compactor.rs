//! Whole-program compaction driver.
//!
//! Takes a superblock partition per procedure (from `pps-core` formation or
//! [`singleton_partition`] for the basic-block baseline), renames and
//! schedules every superblock, schedules the compensation stubs renaming
//! creates, and returns the per-superblock schedules the timing simulator
//! consumes.

use crate::ddg::{build_ddg, ItemKind};
use crate::error::CompactError;
use crate::liveness::Liveness;
use crate::rename::{rename_superblock, RenameConfig};
use crate::sched::{check_schedule, schedule, Schedule};
use crate::superblock::SuperblockSpec;
use pps_ir::analysis::Cfg;
use pps_ir::{Instr, Proc, ProcId, Program};
use pps_machine::MachineConfig;
use pps_obs::{ArgValue, Obs};

/// Compaction options.
#[derive(Debug, Clone, Copy)]
pub struct CompactConfig {
    /// Machine description.
    pub machine: MachineConfig,
    /// Allow loads to be hoisted above exits (converted to non-excepting
    /// form when actually hoisted).
    pub speculate_loads: bool,
    /// Enable register renaming (anti/output + live-off-trace).
    pub renaming: bool,
    /// Enable move renaming (forward substitution through moves).
    pub move_renaming: bool,
}

impl Default for CompactConfig {
    fn default() -> Self {
        CompactConfig {
            machine: MachineConfig::paper(),
            speculate_loads: true,
            renaming: true,
            move_renaming: true,
        }
    }
}

/// A superblock together with its compacted schedule.
#[derive(Debug, Clone)]
pub struct ScheduledSuperblock {
    /// The region (block sequence).
    pub spec: SuperblockSpec,
    /// Its schedule.
    pub schedule: Schedule,
}

/// Compaction result for one procedure.
#[derive(Debug, Clone)]
pub struct CompactedProc {
    /// All scheduled superblocks, including compensation stubs (as trailing
    /// singletons).
    pub superblocks: Vec<ScheduledSuperblock>,
    /// For every block id: `(superblock index, position within it)`, or
    /// `None` for unreachable blocks outside any superblock.
    pub block_loc: Vec<Option<(u32, u32)>>,
}

impl CompactedProc {
    /// Superblock index and position of `block`, if any.
    pub fn location(&self, block: pps_ir::BlockId) -> Option<(u32, u32)> {
        self.block_loc.get(block.index()).copied().flatten()
    }
}

/// Compaction result for a whole program.
#[derive(Debug, Clone)]
pub struct CompactedProgram {
    /// Per-procedure results, indexed by [`ProcId`].
    pub procs: Vec<CompactedProc>,
}

impl CompactedProgram {
    /// Result for one procedure.
    pub fn proc(&self, id: ProcId) -> &CompactedProc {
        &self.procs[id.index()]
    }

    /// Total scheduled size in instructions (layout size).
    pub fn total_items(&self) -> u64 {
        self.procs
            .iter()
            .flat_map(|p| &p.superblocks)
            .map(|s| u64::from(s.schedule.n_items))
            .sum()
    }
}

/// The trivial partition: every reachable block is its own superblock (the
/// paper's "basic-block scheduled" baseline).
pub fn singleton_partition(program: &Program) -> Vec<Vec<SuperblockSpec>> {
    program
        .procs
        .iter()
        .map(|p| {
            let cfg = Cfg::compute(p);
            p.block_ids()
                .filter(|b| cfg.is_reachable(*b))
                .map(SuperblockSpec::singleton)
                .collect()
        })
        .collect()
}

/// Compacts `program` under `partition`.
///
/// Mutates the program: registers are renamed, compensation stubs are
/// inserted on off-trace edges, and loads hoisted above exits are converted
/// to their non-excepting form. The observable semantics are preserved
/// (validated by the differential tests).
///
/// # Panics
/// Panics when a superblock violates its invariants, or when a produced
/// schedule fails verification — both indicate formation
/// or compaction bugs. Use [`try_compact_program`] to receive these as
/// typed [`CompactError`]s instead.
pub fn compact_program(
    program: &mut Program,
    partition: &[Vec<SuperblockSpec>],
    config: &CompactConfig,
) -> CompactedProgram {
    try_compact_program(program, partition, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`compact_program`].
///
/// On `Err` the program may be left partially compacted (procedures before
/// the failing one are already renamed); callers that need atomicity must
/// snapshot and restore, which is exactly what the pipeline guard in
/// `pps-core` does per procedure.
pub fn try_compact_program(
    program: &mut Program,
    partition: &[Vec<SuperblockSpec>],
    config: &CompactConfig,
) -> Result<CompactedProgram, CompactError> {
    try_compact_program_obs(program, partition, config, &Obs::noop())
}

/// [`try_compact_program`] with observability: per-procedure compaction
/// spans, schedule metrics, and decision events flow into `obs`.
pub fn try_compact_program_obs(
    program: &mut Program,
    partition: &[Vec<SuperblockSpec>],
    config: &CompactConfig,
    obs: &Obs,
) -> Result<CompactedProgram, CompactError> {
    if partition.len() != program.procs.len() {
        return Err(CompactError::PartitionSize {
            expected: program.procs.len(),
            got: partition.len(),
        });
    }
    let mut procs = Vec::with_capacity(program.procs.len());
    for (pi, specs) in partition.iter().enumerate() {
        let proc = program.proc_mut(ProcId::new(pi as u32));
        procs.push(try_compact_proc_obs(proc, specs, config, obs)?);
    }
    Ok(CompactedProgram { procs })
}

/// Compacts a single procedure under its superblock list.
///
/// This is the per-procedure unit of work [`try_compact_program`] iterates;
/// it is public so the recovery boundary in `pps-core` can compact (and on
/// failure roll back) one procedure at a time.
pub fn try_compact_proc(
    proc: &mut Proc,
    specs: &[SuperblockSpec],
    config: &CompactConfig,
) -> Result<CompactedProc, CompactError> {
    try_compact_proc_obs(proc, specs, config, &Obs::noop())
}

/// [`try_compact_proc`] with observability.
///
/// Emits a `compact` span for the procedure; counters for superblocks
/// scheduled, rename registers allocated, compensation stubs, and
/// speculated loads; a `compact.slot_occupancy` histogram (issued items
/// over `cycles × issue width`, per superblock); and a `compact.schedule`
/// decision event per superblock with its size, schedule length, and
/// occupancy — the compactor-side data `pps-explore` scheme comparisons
/// need.
pub fn try_compact_proc_obs(
    proc: &mut Proc,
    specs: &[SuperblockSpec],
    config: &CompactConfig,
    obs: &Obs,
) -> Result<CompactedProc, CompactError> {
    let _span = obs
        .span("compact")
        .arg("proc", proc.name.as_str())
        .arg("superblocks", specs.len());
    let rename_config = RenameConfig {
        enabled: config.renaming,
        move_renaming: config.move_renaming,
        max_registers: config.machine.num_registers,
    };
    let base_reg_count = proc.reg_count;
    let cfg = Cfg::compute(proc);
    for spec in specs {
        if let Err(e) = spec.validate(proc, &cfg) {
            return Err(CompactError::InvalidSuperblock {
                proc: proc.name.clone(),
                detail: e.to_string(),
            });
        }
    }
    // Coverage: every reachable block in exactly one superblock.
    let mut seen = vec![false; proc.blocks.len()];
    for spec in specs {
        for &b in &spec.blocks {
            if seen[b.index()] {
                return Err(CompactError::DuplicateBlock {
                    proc: proc.name.clone(),
                    block: b,
                });
            }
            seen[b.index()] = true;
        }
    }
    for b in proc.block_ids() {
        if cfg.is_reachable(b) && !seen[b.index()] {
            return Err(CompactError::UncoveredBlock {
                proc: proc.name.clone(),
                block: b,
            });
        }
    }
    let liveness = Liveness::compute(proc, &cfg);

    let mut superblocks = Vec::with_capacity(specs.len());
    let mut stub_specs: Vec<SuperblockSpec> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let rename = rename_superblock(proc, spec, &liveness, base_reg_count, &rename_config);
        for &(stub, _) in &rename.stubs {
            stub_specs.push(SuperblockSpec::singleton(stub));
        }
        let ddg = build_ddg(proc, spec, &rename.exit_reads, &config.machine, config.speculate_loads);
        let sched = schedule(&ddg, &config.machine);
        if let Err(e) = check_schedule(&ddg, &config.machine, &sched) {
            return Err(CompactError::BadSchedule {
                proc: proc.name.clone(),
                detail: e.to_string(),
            });
        }
        // Convert loads actually hoisted above an earlier exit to the
        // non-excepting (speculative) form.
        let speculated = if config.speculate_loads {
            mark_speculated_loads(proc, spec, &ddg, &sched)
        } else {
            0
        };
        if obs.is_recording() {
            let slots = u64::from(sched.n_cycles) * config.machine.issue_width as u64;
            let occupancy = if slots == 0 {
                0.0
            } else {
                f64::from(sched.n_items) / slots as f64
            };
            obs.histogram("compact.slot_occupancy", occupancy);
            obs.counter("compact.speculated_loads", speculated);
            obs.counter("compact.rename_stubs", rename.stubs.len() as u64);
            obs.decision(
                "compact.schedule",
                &[
                    ("proc", ArgValue::Str(proc.name.clone())),
                    ("sb", ArgValue::UInt(si as u64)),
                    ("head", ArgValue::Str(spec.head().to_string())),
                    ("blocks", ArgValue::UInt(spec.len() as u64)),
                    ("items", ArgValue::UInt(sched.n_items.into())),
                    ("cycles", ArgValue::UInt(sched.n_cycles.into())),
                    ("occupancy", ArgValue::Float(occupancy)),
                    ("speculated_loads", ArgValue::UInt(speculated)),
                    ("rename_stubs", ArgValue::UInt(rename.stubs.len() as u64)),
                ],
            );
        }
        superblocks.push(ScheduledSuperblock { spec: spec.clone(), schedule: sched });
    }
    obs.counter("compact.superblocks", specs.len() as u64);
    obs.counter(
        "compact.renames_applied",
        u64::from(proc.reg_count.saturating_sub(base_reg_count)),
    );
    // Schedule compensation stubs as singleton superblocks.
    for spec in stub_specs {
        let ddg = build_ddg(proc, &spec, &[Vec::new()], &config.machine, config.speculate_loads);
        let sched = schedule(&ddg, &config.machine);
        superblocks.push(ScheduledSuperblock { spec, schedule: sched });
    }

    let mut block_loc = vec![None; proc.blocks.len()];
    for (si, sb) in superblocks.iter().enumerate() {
        for (bi, &b) in sb.spec.blocks.iter().enumerate() {
            block_loc[b.index()] = Some((si as u32, bi as u32));
        }
    }
    Ok(CompactedProc { superblocks, block_loc })
}

/// Marks loads scheduled at or above an earlier exit's cycle as
/// speculative: on a taken exit, ops issued in the same or earlier cycles
/// have already executed, so such a load runs on paths where the original
/// program would not have reached it. Returns the number of loads marked.
fn mark_speculated_loads(
    proc: &mut pps_ir::Proc,
    spec: &SuperblockSpec,
    ddg: &crate::ddg::Ddg,
    sched: &Schedule,
) -> u64 {
    // Exit items in item order with their cycles.
    let exits: Vec<(u32, u32)> = ddg
        .exit_items
        .iter()
        .flatten()
        .map(|&i| (i, sched.cycle_of[i as usize]))
        .collect();
    let mut marked = 0;
    for (i, item) in ddg.items.iter().enumerate() {
        if let ItemKind::Instr { pos, idx } = item.kind {
            let bid = spec.blocks[pos];
            let is_load = matches!(
                proc.block(bid).instrs[idx],
                Instr::Load { speculative: false, .. }
            );
            if !is_load {
                continue;
            }
            let my_cycle = sched.cycle_of[i];
            let hoisted = exits
                .iter()
                .any(|&(e, ec)| (e as usize) < i && my_cycle <= ec);
            if hoisted {
                if let Instr::Load { speculative, .. } = &mut proc.block_mut(bid).instrs[idx] {
                    *speculative = true;
                    marked += 1;
                }
            }
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::verify::verify_program;
    use pps_ir::{AluOp, BlockId, Operand, Reg};

    /// A diamond + loop program with memory traffic, calls and outputs.
    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare_proc("helper", 1);
        let mut h = pb.begin_declared(helper);
        let x = Reg::new(0);
        let y = h.reg();
        h.alu(AluOp::Mul, y, x, 3i64);
        h.ret(Some(Operand::Reg(y)));
        h.finish();

        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let i = f.reg();
        let acc = f.reg();
        let c = f.reg();
        let addr = f.reg();
        f.mov(i, 0i64);
        f.mov(acc, 0i64);
        f.mov(addr, 64i64);
        let head = f.new_block();
        let odd = f.new_block();
        let even = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let m = f.reg();
        f.alu(AluOp::Rem, m, i, 2i64);
        f.branch(m, odd, even);
        f.switch_to(odd);
        let t = f.reg();
        f.call(helper, vec![Operand::Reg(i)], Some(t));
        f.alu(AluOp::Add, acc, acc, t);
        f.jump(latch);
        f.switch_to(even);
        f.store(i, addr, 0);
        let u = f.reg();
        f.load(u, addr, 0);
        f.alu(AluOp::Add, acc, acc, u);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Reg(n));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.out(acc);
        f.ret(Some(Operand::Reg(acc)));
        let main = f.finish();
        pb.finish(main)
    }

    use pps_ir::Program;

    #[test]
    fn singleton_partition_covers_reachable_blocks() {
        let p = sample();
        let part = singleton_partition(&p);
        assert_eq!(part.len(), 2);
        assert_eq!(part[1].len(), 6, "main has 6 reachable blocks");
        assert!(part[1].iter().all(|s| s.len() == 1));
    }

    #[test]
    fn baseline_compaction_preserves_semantics() {
        let mut p = sample();
        let before = Interp::new(&p, ExecConfig::default()).run(&[10]).unwrap();
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        verify_program(&p).unwrap();
        let after = Interp::new(&p, ExecConfig::default()).run(&[10]).unwrap();
        assert_eq!(before.output, after.output);
        assert_eq!(before.return_value, after.return_value);
        assert_eq!(before.memory, after.memory);
        // Every reachable block got a location.
        let main = p.entry;
        let cp = compacted.proc(main);
        assert!(cp.superblocks.len() >= 6);
        assert!(cp.location(BlockId::new(0)).is_some());
    }

    #[test]
    fn multiblock_superblock_compaction_preserves_semantics() {
        let mut p = sample();
        let before = Interp::new(&p, ExecConfig::default()).run(&[9]).unwrap();
        // Superblock [head, even, latch] (even is the i%2==0 direction,
        // the not-taken side of the branch)... head's branch goes odd when
        // m != 0. even is not_taken: on-trace = head -> even requires even
        // to be a successor; it is. latch follows even. But latch has a
        // side entrance from odd -> invalid as-is. Use [head, even] with
        // latch singleton... latch is reached from odd and even: side
        // entrance either way. So pick [entry-ish blocks]: use singletons
        // except [even] which pairs with nothing. Instead build the valid
        // two-block region [odd] ... odd's successor latch shared. The only
        // side-entrance-free multiblock region here is [entry(b0), head]?
        // head is reached from latch (back edge) too -> side entrance.
        // Construct tail-duplication-free program: use [even] + rest
        // singleton but exercise a multiblock region in `helper` by
        // splitting? helper is single-block. Fall back: craft a superblock
        // on a straight-line chain program instead.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let a = f.reg();
        let b2 = f.new_block();
        let b3 = f.new_block();
        let off = f.new_block();
        f.alu(AluOp::Add, a, n, 1i64);
        f.branch(a, b2, off);
        f.switch_to(b2);
        let d = f.reg();
        f.alu(AluOp::Mul, d, a, 2i64);
        f.out(d);
        f.jump(b3);
        f.switch_to(b3);
        f.out(a);
        f.ret(Some(Operand::Reg(d)));
        f.switch_to(off);
        f.out(a);
        f.ret(Some(Operand::Reg(a)));
        let main = f.finish();
        let mut chain = pb.finish(main);
        let chain_before_t = Interp::new(&chain, ExecConfig::default()).run(&[1]).unwrap();
        let chain_before_f = Interp::new(&chain, ExecConfig::default()).run(&[-1]).unwrap();
        let part = vec![vec![
            SuperblockSpec::new(vec![BlockId::new(0), b2, b3]),
            SuperblockSpec::singleton(off),
        ]];
        let compacted = compact_program(&mut chain, &part, &CompactConfig::default());
        verify_program(&chain).unwrap();
        let after_t = Interp::new(&chain, ExecConfig::default()).run(&[1]).unwrap();
        let after_f = Interp::new(&chain, ExecConfig::default()).run(&[-1]).unwrap();
        assert_eq!(chain_before_t.output, after_t.output);
        assert_eq!(chain_before_f.output, after_f.output);
        assert_eq!(chain_before_t.return_value, after_t.return_value);
        assert_eq!(chain_before_f.return_value, after_f.return_value);
        let sbs = &compacted.proc(chain.entry).superblocks;
        // First superblock spans three blocks with one early exit.
        assert_eq!(sbs[0].spec.len(), 3);
        let sched = &sbs[0].schedule;
        assert!(sched.exit_cycles[0].is_some(), "branch exit");
        assert!(sched.exit_cycles[2].is_some(), "final ret");
        assert!(sched.n_cycles >= 2);

        // Also sanity-check the earlier sample still runs (exercise above).
        let _ = before;
        let part2 = singleton_partition(&p);
        let _ = compact_program(&mut p, &part2, &CompactConfig::default());
        let after = Interp::new(&p, ExecConfig::default()).run(&[9]).unwrap();
        assert_eq!(before.output, after.output);
    }

    #[test]
    fn renaming_off_ablation_runs() {
        let mut p = sample();
        let before = Interp::new(&p, ExecConfig::default()).run(&[6]).unwrap();
        let part = singleton_partition(&p);
        let config = CompactConfig { renaming: false, move_renaming: false, ..Default::default() };
        let _ = compact_program(&mut p, &part, &config);
        let after = Interp::new(&p, ExecConfig::default()).run(&[6]).unwrap();
        assert_eq!(before.output, after.output);
    }

    #[test]
    #[should_panic(expected = "in two superblocks")]
    fn invalid_partition_panics() {
        let mut p = sample();
        let mut part = singleton_partition(&p);
        // Duplicate a block across superblocks.
        part[1].push(SuperblockSpec::singleton(BlockId::new(0)));
        let _ = compact_program(&mut p, &part, &CompactConfig::default());
    }

    #[test]
    fn try_compact_reports_typed_errors() {
        let mut p = sample();
        let mut part = singleton_partition(&p);
        part[1].push(SuperblockSpec::singleton(BlockId::new(0)));
        match try_compact_program(&mut p, &part, &CompactConfig::default()) {
            Err(CompactError::DuplicateBlock { proc, block }) => {
                assert_eq!(proc, "main");
                assert_eq!(block, BlockId::new(0));
            }
            other => panic!("expected DuplicateBlock, got {other:?}"),
        }

        let mut p = sample();
        let mut part = singleton_partition(&p);
        part[1].pop();
        assert!(matches!(
            try_compact_program(&mut p, &part, &CompactConfig::default()),
            Err(CompactError::UncoveredBlock { .. })
        ));

        let mut p = sample();
        let part = vec![Vec::new()];
        assert!(matches!(
            try_compact_program(&mut p, &part, &CompactConfig::default()),
            Err(CompactError::PartitionSize { expected: 2, got: 1 })
        ));
    }
}
