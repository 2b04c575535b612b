//! Seeded fault injection for validating the pipeline's guardrails.
//!
//! The fault-tolerance claim in this repository — "a miscompilation in any
//! pass is caught by the structural verifier or the differential oracle and
//! degraded away, never silently shipped" — is only testable if we can
//! *produce* miscompilations on demand. [`FaultInjector`] corrupts a
//! procedure of an already-transformed program the way a buggy pass would:
//! retargeting a branch, swapping non-commutative operands, dropping an
//! instruction, clobbering a register index, or pointing a terminator at a
//! nonexistent block.
//!
//! Not every syntactic corruption changes behaviour (dropping a dead
//! instruction, retargeting a never-taken branch), so the harness entry
//! point is [`FaultInjector::inject_effective`]: it retries seeded
//! candidate corruptions until one provably matters — the structural
//! verifier rejects it, or a bounded reference interpretation of the
//! corrupted program observably diverges from the uncorrupted one on the
//! given inputs. Faults filtered this way are exactly the ones the
//! guardrails must catch, making "100% of injected faults detected" a
//! well-defined acceptance criterion.

use crate::instr::{AluOp, Instr, Terminator};
use crate::exec::Exec;
use crate::interp::ExecConfig;
use crate::proc::{BlockId, Reg};
use crate::program::{ProcId, Program};
use crate::verify::verify_program;
use std::fmt;

/// The kinds of corruption a buggy pass plausibly introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Redirect one successor of a branch/jump/switch to a different
    /// (valid) block.
    RetargetBranch,
    /// Swap the operands of a non-commutative ALU instruction.
    SwapOperands,
    /// Replace an instruction with `Nop`.
    DropInstr,
    /// Rewrite an instruction's destination to an out-of-range register.
    ClobberReg,
    /// Point a terminator successor at a nonexistent block id.
    BadTarget,
}

impl FaultKind {
    /// All kinds, in the order the injector cycles through them.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::RetargetBranch,
        FaultKind::SwapOperands,
        FaultKind::DropInstr,
        FaultKind::ClobberReg,
        FaultKind::BadTarget,
    ];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::RetargetBranch => "retarget-branch",
            FaultKind::SwapOperands => "swap-operands",
            FaultKind::DropInstr => "drop-instr",
            FaultKind::ClobberReg => "clobber-reg",
            FaultKind::BadTarget => "bad-target",
        };
        f.write_str(s)
    }
}

/// A fault that was actually applied to a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Corrupted procedure.
    pub proc: ProcId,
    /// Corrupted block within it.
    pub block: BlockId,
    /// What was done.
    pub kind: FaultKind,
    /// Human-readable description of the exact mutation.
    pub detail: String,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {} {}: {}", self.kind, self.proc, self.block, self.detail)
    }
}

/// Seeded source of IR corruptions.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// Creates an injector; equal seeds produce equal fault sequences.
    pub fn new(seed: u64) -> Self {
        // Avoid the splitmix64 fixed point at zero state.
        FaultInjector { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }

    /// splitmix64 — self-contained so `pps-ir` keeps zero dependencies.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Applies one random corruption to procedure `pid`, with no
    /// guarantee of observable effect. Returns `None` when the procedure
    /// offers no site for any fault kind (e.g. a single empty block with a
    /// bare return and no other block to retarget to).
    pub fn inject(&mut self, program: &mut Program, pid: ProcId) -> Option<FaultRecord> {
        // Try each kind starting from a random one so the distribution over
        // kinds stays roughly uniform even when some have no sites.
        let start = self.pick(FaultKind::ALL.len());
        for i in 0..FaultKind::ALL.len() {
            let kind = FaultKind::ALL[(start + i) % FaultKind::ALL.len()];
            if let Some(record) = self.try_kind(program, pid, kind) {
                return Some(record);
            }
        }
        None
    }

    /// Injects a fault into `pid` that is *provably effective*: after the
    /// corruption, either [`verify_program`] rejects the program, or a
    /// bounded interpretation on one of `inputs` observably diverges from
    /// the uncorrupted program. Retries up to `attempts` seeded candidates
    /// (each on a scratch clone) before giving up.
    ///
    /// Returns the applied fault, or `None` if no effective fault was found
    /// — callers should treat that as "skip this program", not as a
    /// guardrail failure.
    pub fn inject_effective(
        &mut self,
        program: &mut Program,
        pid: ProcId,
        inputs: &[Vec<i64>],
        budget: u64,
        attempts: u32,
    ) -> Option<FaultRecord> {
        let config = ExecConfig { max_instrs: budget, ..ExecConfig::default() };
        let exec = Exec::new(program, config);
        let baseline: Vec<_> = inputs.iter().map(|args| exec.run_bounded(args)).collect();
        for _ in 0..attempts {
            let mut candidate = program.clone();
            let Some(record) = self.inject(&mut candidate, pid) else {
                return None; // no sites at all; more attempts won't help
            };
            if verify_program(&candidate).is_err() {
                *program = candidate;
                return Some(record);
            }
            let candidate_exec = Exec::new(&candidate, config);
            let diverges = inputs.iter().zip(&baseline).any(|(args, base)| {
                let run = candidate_exec.run_bounded(args);
                observably_differs(base, &run)
            });
            if diverges {
                *program = candidate;
                return Some(record);
            }
        }
        None
    }

    fn try_kind(
        &mut self,
        program: &mut Program,
        pid: ProcId,
        kind: FaultKind,
    ) -> Option<FaultRecord> {
        match kind {
            FaultKind::RetargetBranch => self.retarget_branch(program, pid),
            FaultKind::SwapOperands => self.swap_operands(program, pid),
            FaultKind::DropInstr => self.drop_instr(program, pid),
            FaultKind::ClobberReg => self.clobber_reg(program, pid),
            FaultKind::BadTarget => self.bad_target(program, pid),
        }
    }

    fn retarget_branch(&mut self, program: &mut Program, pid: ProcId) -> Option<FaultRecord> {
        let proc = program.proc_mut(pid);
        let n_blocks = proc.blocks.len();
        if n_blocks < 2 {
            return None;
        }
        // Sites: every successor slot of every terminator.
        let sites: Vec<(usize, usize)> = proc
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| {
                let n = match &b.term {
                    Terminator::Jump { .. } => 1,
                    Terminator::Branch { .. } => 2,
                    Terminator::Switch { targets, .. } => targets.len() + 1,
                    Terminator::Return { .. } => 0,
                };
                (0..n).map(move |slot| (bi, slot))
            })
            .collect();
        if sites.is_empty() {
            return None;
        }
        let (bi, slot) = sites[self.pick(sites.len())];
        let old = successor_slot(&proc.blocks[bi].term, slot);
        // A different, in-range block.
        let mut new = BlockId::new(self.pick(n_blocks) as u32);
        if new == old {
            new = BlockId::new(((new.index() + 1) % n_blocks) as u32);
        }
        if new == old {
            return None;
        }
        *successor_slot_mut(&mut proc.blocks[bi].term, slot) = new;
        Some(FaultRecord {
            proc: pid,
            block: BlockId::new(bi as u32),
            kind: FaultKind::RetargetBranch,
            detail: format!("successor slot {slot}: {old} -> {new}"),
        })
    }

    fn swap_operands(&mut self, program: &mut Program, pid: ProcId) -> Option<FaultRecord> {
        let proc = program.proc_mut(pid);
        let sites: Vec<(usize, usize)> = proc
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| {
                b.instrs.iter().enumerate().filter_map(move |(ii, instr)| {
                    match instr {
                        Instr::Alu { op, lhs, rhs, .. }
                            if !commutative(*op) && lhs != rhs =>
                        {
                            Some((bi, ii))
                        }
                        _ => None,
                    }
                })
            })
            .collect();
        if sites.is_empty() {
            return None;
        }
        let (bi, ii) = sites[self.pick(sites.len())];
        if let Instr::Alu { op, lhs, rhs, .. } = &mut proc.blocks[bi].instrs[ii] {
            std::mem::swap(lhs, rhs);
            let detail = format!("instr {ii}: swapped operands of {op:?}");
            return Some(FaultRecord {
                proc: pid,
                block: BlockId::new(bi as u32),
                kind: FaultKind::SwapOperands,
                detail,
            });
        }
        unreachable!("site list only contains ALU instructions");
    }

    fn drop_instr(&mut self, program: &mut Program, pid: ProcId) -> Option<FaultRecord> {
        let proc = program.proc_mut(pid);
        let sites: Vec<(usize, usize)> = proc
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| {
                b.instrs
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| !matches!(i, Instr::Nop))
                    .map(move |(ii, _)| (bi, ii))
            })
            .collect();
        if sites.is_empty() {
            return None;
        }
        let (bi, ii) = sites[self.pick(sites.len())];
        let old = std::mem::replace(&mut proc.blocks[bi].instrs[ii], Instr::Nop);
        Some(FaultRecord {
            proc: pid,
            block: BlockId::new(bi as u32),
            kind: FaultKind::DropInstr,
            detail: format!("instr {ii}: dropped {old:?}"),
        })
    }

    fn clobber_reg(&mut self, program: &mut Program, pid: ProcId) -> Option<FaultRecord> {
        let proc = program.proc_mut(pid);
        let bad = Reg::new(proc.reg_count + 7);
        let sites: Vec<(usize, usize)> = proc
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| {
                b.instrs
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| {
                        matches!(
                            i,
                            Instr::Alu { .. } | Instr::Mov { .. } | Instr::Load { .. }
                        )
                    })
                    .map(move |(ii, _)| (bi, ii))
            })
            .collect();
        if sites.is_empty() {
            return None;
        }
        let (bi, ii) = sites[self.pick(sites.len())];
        match &mut proc.blocks[bi].instrs[ii] {
            Instr::Alu { dst, .. } | Instr::Mov { dst, .. } | Instr::Load { dst, .. } => {
                let old = *dst;
                *dst = bad;
                Some(FaultRecord {
                    proc: pid,
                    block: BlockId::new(bi as u32),
                    kind: FaultKind::ClobberReg,
                    detail: format!("instr {ii}: dst {old} -> out-of-range {bad}"),
                })
            }
            _ => unreachable!("site list only contains register-writing instructions"),
        }
    }

    fn bad_target(&mut self, program: &mut Program, pid: ProcId) -> Option<FaultRecord> {
        let proc = program.proc_mut(pid);
        let n_blocks = proc.blocks.len();
        let sites: Vec<(usize, usize)> = proc
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| {
                let n = match &b.term {
                    Terminator::Jump { .. } => 1,
                    Terminator::Branch { .. } => 2,
                    Terminator::Switch { targets, .. } => targets.len() + 1,
                    Terminator::Return { .. } => 0,
                };
                (0..n).map(move |slot| (bi, slot))
            })
            .collect();
        if sites.is_empty() {
            return None;
        }
        let (bi, slot) = sites[self.pick(sites.len())];
        let bad = BlockId::new((n_blocks + 3) as u32);
        let old = successor_slot(&proc.blocks[bi].term, slot);
        *successor_slot_mut(&mut proc.blocks[bi].term, slot) = bad;
        Some(FaultRecord {
            proc: pid,
            block: BlockId::new(bi as u32),
            kind: FaultKind::BadTarget,
            detail: format!("successor slot {slot}: {old} -> nonexistent {bad}"),
        })
    }
}

/// Whether the two bounded runs are observably identical as far as both got.
///
/// Divergence is only claimed when it is *certain*: mismatched output
/// prefixes, or (when both runs completed) any difference in output, return
/// value, or final memory. An error on the corrupted run also counts — the
/// oracle in the guard surfaces execution errors. Two truncated runs with
/// consistent prefixes are treated as "no observable difference".
fn observably_differs(
    base: &Result<crate::interp::BoundedRun, crate::interp::ExecError>,
    run: &Result<crate::interp::BoundedRun, crate::interp::ExecError>,
) -> bool {
    match (base, run) {
        (Ok(b), Ok(r)) => {
            if b.completed && r.completed {
                b.result.output != r.result.output
                    || b.result.return_value != r.result.return_value
                    || b.result.memory != r.result.memory
            } else {
                let n = b.result.output.len().min(r.result.output.len());
                // A completed run's output is total: the truncated side's
                // prefix must not be longer, and prefixes must agree.
                b.result.output[..n] != r.result.output[..n]
                    || (b.completed && r.result.output.len() > b.result.output.len())
                    || (r.completed && b.result.output.len() > r.result.output.len())
            }
        }
        // Baseline ran, corrupted program errored (or vice versa).
        (Ok(_), Err(_)) | (Err(_), Ok(_)) => true,
        (Err(be), Err(re)) => be != re,
    }
}

fn commutative(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add
            | AluOp::Mul
            | AluOp::And
            | AluOp::Or
            | AluOp::Xor
            | AluOp::CmpEq
            | AluOp::CmpNe
            | AluOp::Min
            | AluOp::Max
    )
}

fn successor_slot(term: &Terminator, slot: usize) -> BlockId {
    match term {
        Terminator::Jump { target } => *target,
        Terminator::Branch { taken, not_taken, .. } => {
            if slot == 0 {
                *taken
            } else {
                *not_taken
            }
        }
        Terminator::Switch { targets, default, .. } => {
            if slot < targets.len() {
                targets[slot]
            } else {
                *default
            }
        }
        Terminator::Return { .. } => unreachable!("returns have no successors"),
    }
}

fn successor_slot_mut(term: &mut Terminator, slot: usize) -> &mut BlockId {
    match term {
        Terminator::Jump { target } => target,
        Terminator::Branch { taken, not_taken, .. } => {
            if slot == 0 {
                taken
            } else {
                not_taken
            }
        }
        Terminator::Switch { targets, default, .. } => {
            if slot < targets.len() {
                &mut targets[slot]
            } else {
                default
            }
        }
        Terminator::Return { .. } => unreachable!("returns have no successors"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::builder::ProgramBuilder;
    use crate::instr::Operand;

    /// main(n) { a = n - 1; out(a); if a { out(10) } else { out(20) }; ret a }
    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let a = f.reg();
        let t = f.new_block();
        let e = f.new_block();
        f.alu(AluOp::Sub, a, Operand::Reg(n), Operand::Imm(1));
        f.out(Operand::Reg(a));
        f.branch(a, t, e);
        f.switch_to(t);
        f.out(Operand::Imm(10));
        f.ret(Some(Operand::Reg(a)));
        f.switch_to(e);
        f.out(Operand::Imm(20));
        f.ret(Some(Operand::Reg(a)));
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn injector_is_deterministic() {
        let base = sample();
        let mut p1 = base.clone();
        let mut p2 = base.clone();
        let r1 = FaultInjector::new(42).inject(&mut p1, base.entry);
        let r2 = FaultInjector::new(42).inject(&mut p2, base.entry);
        assert_eq!(r1, r2);
        let r3 = FaultInjector::new(43).inject(&mut p2.clone(), base.entry);
        // Different seeds are allowed to coincide, but the common case is a
        // different fault; just ensure both produced something.
        assert!(r1.is_some() && r3.is_some());
    }

    #[test]
    fn effective_faults_are_detectable() {
        let inputs: Vec<Vec<i64>> = vec![vec![1], vec![5], vec![-3]];
        for seed in 0..50u64 {
            let base = sample();
            let mut p = base.clone();
            let mut inj = FaultInjector::new(seed);
            let record = inj
                .inject_effective(&mut p, base.entry, &inputs, 10_000, 32)
                .expect("sample program has effective faults");
            // The defining property: verification fails, or behaviour
            // observably differs on at least one input.
            if verify_program(&p).is_ok() {
                let cfg = ExecConfig { max_instrs: 10_000, ..ExecConfig::default() };
                let differs = inputs.iter().any(|args| {
                    let b = Interp::new(&base, cfg).run_bounded(args);
                    let r = Interp::new(&p, cfg).run_bounded(args);
                    observably_differs(&b, &r)
                });
                assert!(differs, "seed {seed}: fault {record} had no observable effect");
            }
        }
    }

    #[test]
    fn all_fault_kinds_reachable() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            let base = sample();
            let mut p = base.clone();
            if let Some(r) = FaultInjector::new(seed).inject(&mut p, base.entry) {
                seen.insert(format!("{}", r.kind));
                // Every corruption must actually change the program text.
                assert_ne!(
                    crate::text::print_program(&p),
                    crate::text::print_program(&base),
                    "seed {seed}: {r} was a no-op"
                );
            }
        }
        assert_eq!(seen.len(), FaultKind::ALL.len(), "kinds seen: {seen:?}");
    }
}
