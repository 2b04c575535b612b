//! Guarded interprocedural inlining — phase one of the `Px4` scheme.
//!
//! [`inline_hot_calls`] selects the hottest call sites by edge profile and
//! splices the callee bodies in with [`pps_ir::inline::inline_call`],
//! caller by caller behind the same recovery discipline the scheduling
//! guard uses: per-caller snapshot, `catch_unwind` around the mutation,
//! structural verification of the whole program, a bounded differential
//! oracle against the pre-inline baseline (the guard's comparison: output,
//! return value, final memory, identical errors), and rollback of exactly the
//! offending caller on any failure. Accepted callers stay inlined; a
//! rolled-back caller simply keeps its calls, so the subsequent path-based
//! formation degrades gracefully to intra-procedural behaviour there.
//!
//! Profiles trained on the original program do not describe the cloned
//! blocks, so `Px4` re-trains its edge/path pair *after* this phase — the
//! two-phase flow lives in the serve runner.

use crate::guard::{oracle_check, OracleBaseline};
use pps_ir::inline::{call_sites, inline_call, REG_FILE_CAP};
use pps_ir::interp::ExecConfig;
use pps_ir::verify::verify_program;
use pps_ir::{BlockId, Exec, ProcId, Program};
use pps_obs::Obs;
use pps_profile::EdgeProfile;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Total inlined sites per program (hottest first).
pub const MAX_CALL_SITES: usize = 8;

/// A site's block frequency must reach this fraction of the program's
/// hottest block to qualify.
pub const MIN_SITE_FRACTION: f64 = 0.05;

/// Site-selection and safety knobs for [`inline_hot_calls`].
#[derive(Debug, Clone)]
pub struct InlineConfig {
    /// Callees with more static blocks than this are never inlined (code
    /// growth guard; the CFG-blowup knee is sharp for the switch-heavy
    /// benchmarks).
    pub max_callee_blocks: usize,
    /// Inputs for the differential oracle (empty disables it; verification
    /// and panic recovery still apply).
    pub oracle_inputs: Vec<Vec<i64>>,
    /// Instruction budget per oracle run of the pre-inline baseline; the
    /// inlined program gets 8x slack (parameter moves replace call
    /// overhead, so dynamic counts move a little either way).
    pub step_budget: u64,
}

impl Default for InlineConfig {
    fn default() -> Self {
        InlineConfig {
            max_callee_blocks: 24,
            oracle_inputs: Vec::new(),
            step_budget: 1_000_000,
        }
    }
}

/// One accepted inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlinedSite {
    /// The mutated caller.
    pub caller: ProcId,
    /// The callee whose body was spliced in.
    pub callee: ProcId,
    /// Caller block that contained the call.
    pub block: BlockId,
}

/// What [`inline_hot_calls`] did.
#[derive(Debug, Clone, Default)]
pub struct InlineOutcome {
    /// Accepted sites, in application order.
    pub inlined: Vec<InlinedSite>,
    /// Callers whose whole batch was rolled back by the guard.
    pub rolled_back: usize,
    /// Candidate sites skipped by policy (cold, too big, register
    /// pressure, self-call).
    pub skipped: usize,
}

/// Inlines the hottest eligible call sites of `program`, guarded.
///
/// Site selection is deterministic: candidates are ranked by profiled
/// block frequency (ties broken by caller/block/instruction position), the
/// top [`MAX_CALL_SITES`] survive, and each caller's sites
/// are applied in reverse positional order so earlier splices never shift
/// later sites. Every caller's batch is verified and oracle-checked before
/// being accepted; failures roll that caller back to its snapshot.
pub fn inline_hot_calls(
    program: &mut Program,
    edge: &EdgeProfile,
    config: &InlineConfig,
) -> InlineOutcome {
    inline_hot_calls_with(program, edge, config, None)
}

/// [`inline_hot_calls`] with a shared pre-inline oracle baseline. It is
/// used only when it [matches](OracleBaseline::matches) `program`,
/// [`InlineConfig::oracle_inputs`] and [`InlineConfig::step_budget`];
/// otherwise the inliner runs its own, with the same outcome.
pub fn inline_hot_calls_with(
    program: &mut Program,
    edge: &EdgeProfile,
    config: &InlineConfig,
    baseline: Option<&OracleBaseline>,
) -> InlineOutcome {
    let mut outcome = InlineOutcome::default();

    // Rank every call site in the program.
    let hottest = program
        .proc_ids()
        .flat_map(|pid| {
            (0..edge.num_blocks(pid)).map(move |b| (pid, BlockId::new(b as u32)))
        })
        .map(|(pid, b)| edge.block_freq(pid, b))
        .max()
        .unwrap_or(0);
    let threshold = (hottest as f64 * MIN_SITE_FRACTION).ceil() as u64;
    let mut candidates: Vec<(u64, ProcId, BlockId, usize, ProcId)> = Vec::new();
    for caller in program.proc_ids() {
        for (block, idx, callee) in call_sites(program.proc(caller)) {
            let freq = if block.index() < edge.num_blocks(caller) {
                edge.block_freq(caller, block)
            } else {
                0
            };
            let eligible = callee != caller
                && freq >= threshold.max(1)
                && program.proc(callee).blocks.len() <= config.max_callee_blocks;
            if eligible {
                candidates.push((freq, caller, block, idx, callee));
            } else {
                outcome.skipped += 1;
            }
        }
    }
    candidates.sort_by(|a, b| {
        b.0.cmp(&a.0).then_with(|| (a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
    });
    candidates.truncate(MAX_CALL_SITES);

    // Group by caller, keeping sites in reverse positional order so each
    // splice leaves the remaining (earlier) sites' coordinates intact.
    let mut by_caller: BTreeMap<ProcId, Vec<(BlockId, usize, ProcId)>> = BTreeMap::new();
    for (_, caller, block, idx, callee) in candidates {
        by_caller.entry(caller).or_default().push((block, idx, callee));
    }

    // Oracle ground truth: the pre-inline program's bounded behaviour.
    let baseline = OracleBaseline::reuse_or_compute(
        baseline,
        program,
        &config.oracle_inputs,
        config.step_budget,
        &Obs::noop(),
    );
    let checked_config = ExecConfig {
        max_instrs: config.step_budget.saturating_mul(8),
        ..ExecConfig::default()
    };

    for (caller, mut sites) in by_caller {
        sites.sort_by_key(|s| std::cmp::Reverse((s.0, s.1)));
        let snapshot = program.proc(caller).clone();
        let mut applied = Vec::new();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            for &(block, idx, callee) in &sites {
                // Register pressure can only be judged against the live
                // caller: earlier splices into it already grew the file.
                if program.proc(caller).reg_count + program.proc(callee).reg_count > REG_FILE_CAP {
                    return Err(sites.len() - applied.len());
                }
                let callee_body = program.proc(callee).clone();
                match inline_call(program.proc_mut(caller), block, idx, &callee_body) {
                    Ok(()) => applied.push(InlinedSite { caller, callee, block }),
                    Err(_) => return Err(1),
                }
            }
            Ok(())
        }));

        let healthy = match attempt {
            Ok(Ok(())) => {
                verify_program(program).is_ok() && {
                    let exec = Exec::new(program, checked_config);
                    let name = &program.proc(caller).name;
                    baseline.runs().iter().zip(&config.oracle_inputs).enumerate().all(
                        |(input_index, (want, args))| {
                            oracle_check(name, input_index, want, &exec.run_bounded(args))
                                .is_none()
                        },
                    )
                }
            }
            Ok(Err(skipped)) => {
                // Policy skip mid-batch (register pressure): keep what
                // applied cleanly if it verifies, count the rest.
                outcome.skipped += skipped;
                verify_program(program).is_ok()
            }
            Err(_) => false,
        };

        if healthy {
            outcome.inlined.extend(applied);
        } else {
            *program.proc_mut(caller) = snapshot;
            outcome.rolled_back += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand, Reg};
    use pps_profile::EdgeProfiler;

    /// main loops `n` times calling a small leaf per iteration.
    fn call_loop() -> Program {
        let mut pb = ProgramBuilder::new();

        let mut f = pb.begin_proc("leaf", 1);
        let x = Reg::new(0);
        let y = f.reg();
        f.alu(AluOp::Mul, y, x, 3i64);
        f.ret(Some(Operand::Reg(y)));
        let leaf = f.finish();

        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let i = f.reg();
        let acc = f.reg();
        let t = f.reg();
        let c = f.reg();
        f.mov(i, 0i64);
        f.mov(acc, 0i64);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Reg(n));
        f.branch(c, body, exit);
        f.switch_to(body);
        f.call(leaf, vec![Operand::Reg(i)], Some(t));
        f.alu(AluOp::Add, acc, acc, Operand::Reg(t));
        f.alu(AluOp::Add, i, i, 1i64);
        f.jump(head);
        f.switch_to(exit);
        f.out(Operand::Reg(acc));
        f.ret(Some(Operand::Reg(acc)));
        let main = f.finish();
        pb.finish(main)
    }

    fn edge_profile(p: &Program, n: i64) -> EdgeProfile {
        let mut ep = EdgeProfiler::new(p);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[n], &mut ep)
            .unwrap();
        ep.finish()
    }

    #[test]
    fn hot_call_is_inlined_and_semantics_hold() {
        let mut p = call_loop();
        let edge = edge_profile(&p, 50);
        let before = Interp::new(&p, ExecConfig::default()).run(&[37]).unwrap();

        let config = InlineConfig {
            oracle_inputs: vec![vec![13], vec![0]],
            ..InlineConfig::default()
        };
        let outcome = inline_hot_calls(&mut p, &edge, &config);
        assert_eq!(outcome.inlined.len(), 1, "{outcome:?}");
        assert_eq!(outcome.rolled_back, 0);
        assert!(call_sites(p.proc(p.entry)).is_empty(), "hot call gone");

        verify_program(&p).unwrap();
        let after = Interp::new(&p, ExecConfig::default()).run(&[37]).unwrap();
        assert_eq!(before.output, after.output);
        assert_eq!(before.return_value, after.return_value);

        // The inlined body really runs: the leaf procedure is no longer
        // entered.
        let mut sink = CountEnters::default();
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[10], &mut sink)
            .unwrap();
        assert_eq!(sink.enters, 1, "only main itself");
    }

    #[derive(Default)]
    struct CountEnters {
        enters: usize,
    }
    impl pps_ir::TraceSink for CountEnters {
        fn enter_proc(&mut self, _proc: ProcId) {
            self.enters += 1;
        }
        fn exit_proc(&mut self, _proc: ProcId) {}
        fn block(&mut self, _proc: ProcId, _block: BlockId) {}
    }

    #[test]
    fn cold_and_oversized_callees_are_skipped() {
        let mut p = call_loop();
        let edge = edge_profile(&p, 50);
        let config = InlineConfig { max_callee_blocks: 0, ..InlineConfig::default() };
        let outcome = inline_hot_calls(&mut p, &edge, &config);
        assert!(outcome.inlined.is_empty());
        assert_eq!(outcome.skipped, 1);
        assert!(!call_sites(p.proc(p.entry)).is_empty(), "call survives");
    }
}
