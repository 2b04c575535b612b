//! Procedure inlining: the IR mutator under interprocedural superblock
//! formation (`Px4`).
//!
//! [`inline_call`] splices a copy of a callee's body into its caller at one
//! call site. Registers are procedure-local, so the clone's registers are
//! renumbered above the caller's existing file; arguments become `Mov`s
//! into the renumbered parameter registers, and every `Return` becomes a
//! jump to the continuation block (writing the call's destination register
//! first — 0 when the callee returns nothing, matching the interpreter's
//! call semantics). Only the caller is mutated.
//!
//! Inlining is one level deep by construction: calls *inside* the cloned
//! body still call their callees normally, which also makes inlining a
//! recursive callee semantically safe (the clone's self-call simply
//! recurses).

use crate::instr::{Instr, Operand, Terminator};
use crate::proc::{Block, BlockId, Proc, Reg};
use crate::program::ProcId;
use std::error::Error;
use std::fmt;

/// The machine register-file cap the renumbered clone must fit under (the
/// compactor's renamer and `pps-machine` both assume it).
pub const REG_FILE_CAP: u32 = 128;

/// Why a call site cannot be inlined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InlineError {
    /// The named instruction is not a `Call`.
    NotACall {
        /// Block of the offending site.
        block: BlockId,
        /// Instruction index within the block.
        idx: usize,
    },
    /// The call site passes a different number of arguments than the
    /// callee declares parameters.
    ArityMismatch {
        /// Parameters the callee declares.
        expected: u32,
        /// Arguments the site passes.
        got: usize,
    },
    /// Renumbering the callee's registers above the caller's would
    /// overflow the machine register file.
    RegPressure {
        /// Combined register count required.
        needed: u32,
        /// The file cap ([`REG_FILE_CAP`]).
        cap: u32,
    },
}

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineError::NotACall { block, idx } => {
                write!(f, "instruction {idx} of {block} is not a call")
            }
            InlineError::ArityMismatch { expected, got } => {
                write!(f, "call site passes {got} args, callee declares {expected}")
            }
            InlineError::RegPressure { needed, cap } => {
                write!(f, "inlining needs {needed} registers, register file caps at {cap}")
            }
        }
    }
}

impl Error for InlineError {}

/// Every call site of `proc`, in deterministic (block, instruction) order.
pub fn call_sites(proc: &Proc) -> Vec<(BlockId, usize, ProcId)> {
    let mut sites = Vec::new();
    for (bid, block) in proc.iter_blocks() {
        for (idx, instr) in block.instrs.iter().enumerate() {
            if let Instr::Call { callee, .. } = instr {
                sites.push((bid, idx, *callee));
            }
        }
    }
    sites
}

#[inline]
fn shift_reg(r: Reg, off: u32) -> Reg {
    Reg::new(r.index() as u32 + off)
}

#[inline]
fn shift_operand(o: Operand, off: u32) -> Operand {
    match o {
        Operand::Reg(r) => Operand::Reg(shift_reg(r, off)),
        imm @ Operand::Imm(_) => imm,
    }
}

fn shift_instr(instr: &mut Instr, off: u32) {
    match instr {
        Instr::Alu { dst, lhs, rhs, .. } => {
            *dst = shift_reg(*dst, off);
            *lhs = shift_operand(*lhs, off);
            *rhs = shift_operand(*rhs, off);
        }
        Instr::Mov { dst, src } => {
            *dst = shift_reg(*dst, off);
            *src = shift_operand(*src, off);
        }
        Instr::Load { dst, base, .. } => {
            *dst = shift_reg(*dst, off);
            *base = shift_reg(*base, off);
        }
        Instr::Store { src, base, .. } => {
            *src = shift_operand(*src, off);
            *base = shift_reg(*base, off);
        }
        Instr::Call { args, dst, .. } => {
            for a in args.iter_mut() {
                *a = shift_operand(*a, off);
            }
            if let Some(d) = dst {
                *d = shift_reg(*d, off);
            }
        }
        Instr::Out { src } => *src = shift_operand(*src, off),
        Instr::Nop => {}
    }
}

/// Inlines the `Call` at instruction `site_idx` of `site_block` in `proc`,
/// splicing in a renumbered copy of `callee`'s body.
///
/// The caller block is split after the call: its suffix (plus its original
/// terminator) moves to a fresh continuation block, the call becomes
/// argument `Mov`s, and the block now jumps into the clone's entry. Cloned
/// `Return`s write the call's destination register (0 for a bare `ret`
/// when a destination was requested) and jump to the continuation.
///
/// # Errors
/// [`InlineError`] when the site is not a call, arities disagree, or the
/// combined register file would exceed [`REG_FILE_CAP`]. On error, `proc`
/// is unchanged.
pub fn inline_call(
    proc: &mut Proc,
    site_block: BlockId,
    site_idx: usize,
    callee: &Proc,
) -> Result<(), InlineError> {
    let (args, dst) = match proc.block(site_block).instrs.get(site_idx) {
        Some(Instr::Call { args, dst, .. }) => (args.clone(), *dst),
        _ => return Err(InlineError::NotACall { block: site_block, idx: site_idx }),
    };
    if args.len() != callee.num_params as usize {
        return Err(InlineError::ArityMismatch { expected: callee.num_params, got: args.len() });
    }
    let offset = proc.reg_count;
    let needed = offset + callee.reg_count;
    if needed > REG_FILE_CAP {
        return Err(InlineError::RegPressure { needed, cap: REG_FILE_CAP });
    }
    proc.reg_count = needed;

    // Block layout after splicing: the callee's blocks land at
    // `base .. base + n`, the continuation right after them.
    let base = proc.block_ids().count() as u32;
    let n_callee = callee.block_ids().count() as u32;
    let map_block = |b: BlockId| BlockId::new(base + b.index() as u32);
    let cont = BlockId::new(base + n_callee);

    // Split the call site: suffix + original terminator move to the
    // continuation; the call becomes parameter moves + a jump into the
    // clone.
    let inlined_entry = map_block(callee.entry);
    let (tail, old_term) = {
        let block = proc.block_mut(site_block);
        let tail: Vec<Instr> = block.instrs.drain(site_idx + 1..).collect();
        block.instrs.pop(); // the call itself
        for (i, a) in args.iter().enumerate() {
            block
                .instrs
                .push(Instr::Mov { dst: shift_reg(Reg::new(i as u32), offset), src: *a });
        }
        let old_term =
            std::mem::replace(&mut block.term, Terminator::Jump { target: inlined_entry });
        (tail, old_term)
    };

    // Clone the callee body: registers renumbered, targets remapped,
    // returns lowered to (optional) destination writes + continuation
    // jumps.
    for (_, src_block) in callee.iter_blocks() {
        let mut block = src_block.clone();
        for instr in block.instrs.iter_mut() {
            shift_instr(instr, offset);
        }
        block.term = match block.term {
            Terminator::Return { value } => {
                if let Some(d) = dst {
                    let src = value.map_or(Operand::Imm(0), |v| shift_operand(v, offset));
                    block.instrs.push(Instr::Mov { dst: d, src });
                }
                Terminator::Jump { target: cont }
            }
            Terminator::Branch { cond, taken, not_taken } => Terminator::Branch {
                cond: shift_reg(cond, offset),
                taken: map_block(taken),
                not_taken: map_block(not_taken),
            },
            Terminator::Switch { sel, targets, default } => Terminator::Switch {
                sel: shift_reg(sel, offset),
                targets: targets.into_iter().map(map_block).collect(),
                default: map_block(default),
            },
            Terminator::Jump { target } => Terminator::Jump { target: map_block(target) },
        };
        proc.push_block(block);
    }
    proc.push_block(Block::new(tail, old_term));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::interp::{ExecConfig, Interp};
    use crate::verify::verify_program;
    use crate::AluOp;

    /// main(x): calls add3(x) twice and a void helper once; add3 returns
    /// x + 3, the helper just outs a constant.
    fn sample() -> crate::Program {
        let mut pb = ProgramBuilder::new();

        let mut f = pb.begin_proc("add3", 1);
        let x = Reg::new(0); // parameter slot
        let y = f.reg();
        f.alu(AluOp::Add, y, x, 3i64);
        f.ret(Some(Operand::Reg(y)));
        let add3 = f.finish();

        let mut f = pb.begin_proc("shout", 0);
        f.out(7i64);
        f.ret(None);
        let shout = f.finish();

        let mut f = pb.begin_proc("main", 1);
        let x = Reg::new(0); // parameter slot
        let a = f.reg();
        let b = f.reg();
        f.call(add3, vec![Operand::Reg(x)], Some(a));
        f.call(shout, vec![], None);
        f.call(add3, vec![Operand::Reg(a)], Some(b));
        f.out(Operand::Reg(b));
        f.ret(Some(Operand::Reg(b)));
        let main = f.finish();

        pb.finish(main)
    }

    #[test]
    fn inlining_preserves_semantics() {
        let mut p = sample();
        let before = Interp::new(&p, ExecConfig::default()).run(&[10]).unwrap();

        let main = p.entry;
        // Inline every call site of main, re-scanning after each splice
        // (indices shift as blocks split).
        loop {
            let sites = call_sites(p.proc(main));
            let Some(&(block, idx, callee)) = sites.first() else { break };
            let callee_clone = p.proc(callee).clone();
            inline_call(p.proc_mut(main), block, idx, &callee_clone).unwrap();
        }
        assert!(call_sites(p.proc(main)).is_empty());

        verify_program(&p).unwrap();
        let after = Interp::new(&p, ExecConfig::default()).run(&[10]).unwrap();
        assert_eq!(before.output, after.output);
        assert_eq!(before.return_value, after.return_value);
        // 10 + 3 + 3, via both an out and the return value.
        assert_eq!(after.return_value, Some(16));
    }

    #[test]
    fn errors_leave_caller_unchanged() {
        let mut p = sample();
        let main = p.entry;
        let callee = p.proc(crate::ProcId::new(0)).clone();
        let snapshot = p.proc(main).clone();

        let err = inline_call(p.proc_mut(main), BlockId::new(0), 99, &callee).unwrap_err();
        assert!(matches!(err, InlineError::NotACall { .. }));
        assert_eq!(*p.proc(main), snapshot);

        let mut fat = callee.clone();
        fat.reg_count = REG_FILE_CAP;
        let sites = call_sites(p.proc(main));
        let (block, idx, _) = sites[0];
        let err = inline_call(p.proc_mut(main), block, idx, &fat).unwrap_err();
        assert!(matches!(err, InlineError::RegPressure { .. }));
        assert_eq!(*p.proc(main), snapshot);
    }
}
