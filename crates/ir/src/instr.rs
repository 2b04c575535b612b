//! Instructions, operands and block terminators.
//!
//! The instruction set is deliberately Alpha-flavoured: three-operand ALU
//! operations over 64-bit integer registers, displacement-addressed loads and
//! stores against a word-addressed memory, register moves, calls, and an
//! observable [`Instr::Out`] used by differential tests to compare program
//! behaviour before and after transformation.
//!
//! Control flow lives exclusively in [`Terminator`]s, which close every basic
//! block: unconditional jumps, two-way conditional branches, multiway
//! branches (`Switch`), and returns. This matches the paper's profiling
//! granularity, where a "branch" means a conditional or multiway branch
//! (unconditional jumps do not count against the path-length limit).

use crate::proc::{BlockId, Reg};
use crate::program::ProcId;
use std::fmt;

/// Arithmetic/logical operations.
///
/// All ALU operations are *non-excepting*: division and remainder by zero
/// yield 0 (mirroring the software-checked, trap-suppressed semantics the
/// paper's compiled simulation installs), so every ALU instruction is safe to
/// speculate above a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; division by zero yields 0.
    Div,
    /// Remainder; remainder by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Left shift (shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (shift amount masked to 0..64).
    Shr,
    /// 1 if equal, else 0.
    CmpEq,
    /// 1 if not equal, else 0.
    CmpNe,
    /// 1 if less than (signed), else 0.
    CmpLt,
    /// 1 if less or equal (signed), else 0.
    CmpLe,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit values.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::CmpEq => (a == b) as i64,
            AluOp::CmpNe => (a != b) as i64,
            AluOp::CmpLt => (a < b) as i64,
            AluOp::CmpLe => (a <= b) as i64,
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }

    /// All ALU operations, for exhaustive testing and random generation.
    pub const ALL: [AluOp; 16] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::CmpEq,
        AluOp::CmpNe,
        AluOp::CmpLt,
        AluOp::CmpLe,
        AluOp::Min,
        AluOp::Max,
    ];
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::CmpEq => "cmpeq",
            AluOp::CmpNe => "cmpne",
            AluOp::CmpLt => "cmplt",
            AluOp::CmpLe => "cmple",
            AluOp::Min => "min",
            AluOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// A source operand: either a register or a 64-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Value of a register.
    Reg(Reg),
    /// Immediate constant.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// A straight-line (non-control-transfer) instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst = op(lhs, rhs)`.
    Alu {
        /// Operation to perform.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left source operand.
        lhs: Operand,
        /// Right source operand.
        rhs: Operand,
    },
    /// `dst = src` (register move or load-immediate).
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = memory[base + offset]`.
    ///
    /// A `speculative` load is the non-excepting form: an out-of-bounds
    /// address yields 0 instead of a runtime error. The compactor rewrites
    /// loads into this form when hoisting them above superblock exits.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Constant displacement added to the base.
        offset: i64,
        /// True when this is a non-excepting (speculative) load.
        speculative: bool,
    },
    /// `memory[base + offset] = src`.
    Store {
        /// Value to store.
        src: Operand,
        /// Base address register.
        base: Reg,
        /// Constant displacement added to the base.
        offset: i64,
    },
    /// Calls `callee` with argument values; the return value, if any, is
    /// written to `dst`.
    Call {
        /// Procedure to invoke.
        callee: ProcId,
        /// Argument operands, one per callee parameter.
        args: Vec<Operand>,
        /// Register receiving the return value (0 if the callee returns
        /// nothing and `dst` is `Some`).
        dst: Option<Reg>,
    },
    /// Appends a value to the program's observable output stream.
    Out {
        /// Value emitted.
        src: Operand,
    },
    /// No operation. Used as a scheduling filler in tests.
    Nop,
}

impl Instr {
    /// Destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Alu { dst, .. } | Instr::Mov { dst, .. } | Instr::Load { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            Instr::Store { .. } | Instr::Out { .. } | Instr::Nop => None,
        }
    }

    /// Appends every register read by this instruction to `out`.
    pub fn collect_uses(&self, out: &mut Vec<Reg>) {
        let mut push = |o: &Operand| {
            if let Operand::Reg(r) = o {
                out.push(*r);
            }
        };
        match self {
            Instr::Alu { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            Instr::Mov { src, .. } | Instr::Out { src } => push(src),
            Instr::Load { base, .. } => out.push(*base),
            Instr::Store { src, base, .. } => {
                push(src);
                out.push(*base);
            }
            Instr::Call { args, .. } => {
                for a in args {
                    push(a);
                }
            }
            Instr::Nop => {}
        }
    }

    /// Registers read by this instruction, as a fresh vector.
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.collect_uses(&mut v);
        v
    }

    /// True if this instruction may be speculated above a branch, i.e. it
    /// has no side effect other than writing its destination register and
    /// it cannot raise an exception (loads must first be converted to their
    /// non-excepting form).
    pub fn is_speculation_safe(&self) -> bool {
        match self {
            Instr::Alu { .. } | Instr::Mov { .. } | Instr::Nop => true,
            Instr::Load { speculative, .. } => *speculative,
            Instr::Store { .. } | Instr::Call { .. } | Instr::Out { .. } => false,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Instr::Mov { dst, src } => write!(f, "{dst} = mov {src}"),
            Instr::Load {
                dst,
                base,
                offset,
                speculative,
            } => {
                let spec = if *speculative { ".s" } else { "" };
                write!(f, "{dst} = load{spec} [{base}+{offset}]")
            }
            Instr::Store { src, base, offset } => write!(f, "store {src}, [{base}+{offset}]"),
            Instr::Call { callee, args, dst } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {callee}(")?;
                } else {
                    write!(f, "call {callee}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Instr::Out { src } => write!(f, "out {src}"),
            Instr::Nop => write!(f, "nop"),
        }
    }
}

/// A control transfer closing a basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Two-way conditional branch: to `taken` if `cond != 0`, else to
    /// `not_taken`.
    Branch {
        /// Condition register.
        cond: Reg,
        /// Target when the condition is non-zero.
        taken: BlockId,
        /// Target when the condition is zero.
        not_taken: BlockId,
    },
    /// Multiway branch: to `targets[sel]` when `0 <= sel < targets.len()`,
    /// otherwise to `default`.
    Switch {
        /// Selector register.
        sel: Reg,
        /// In-range targets.
        targets: Vec<BlockId>,
        /// Out-of-range target.
        default: BlockId,
    },
    /// Return from the procedure with an optional value.
    Return {
        /// Returned value, if any.
        value: Option<Operand>,
    },
}

impl Terminator {
    /// True for conditional or multiway branches — the events that count
    /// against the paper's 15-branch path-length limit.
    pub fn is_counted_branch(&self) -> bool {
        matches!(self, Terminator::Branch { .. } | Terminator::Switch { .. })
    }

    /// All possible successor blocks, in a deterministic order
    /// (deduplicated).
    pub fn successors(&self) -> Vec<BlockId> {
        let mut v = match self {
            Terminator::Jump { target } => vec![*target],
            Terminator::Branch { taken, not_taken, .. } => vec![*taken, *not_taken],
            Terminator::Switch { targets, default, .. } => {
                let mut v = targets.clone();
                v.push(*default);
                v
            }
            Terminator::Return { .. } => Vec::new(),
        };
        let mut seen = Vec::new();
        v.retain(|b| {
            if seen.contains(b) {
                false
            } else {
                seen.push(*b);
                true
            }
        });
        v
    }

    /// Rewrites every successor through `f`.
    pub fn retarget(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump { target } => *target = f(*target),
            Terminator::Branch { taken, not_taken, .. } => {
                *taken = f(*taken);
                *not_taken = f(*not_taken);
            }
            Terminator::Switch { targets, default, .. } => {
                for t in targets.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            Terminator::Return { .. } => {}
        }
    }

    /// Registers read by the terminator.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Terminator::Branch { cond, .. } => vec![*cond],
            Terminator::Switch { sel, .. } => vec![*sel],
            Terminator::Return { value: Some(Operand::Reg(r)) } => vec![*r],
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump { target } => write!(f, "jump {target}"),
            Terminator::Branch { cond, taken, not_taken } => {
                write!(f, "br {cond} ? {taken} : {not_taken}")
            }
            Terminator::Switch { sel, targets, default } => {
                write!(f, "switch {sel} [")?;
                for (i, t) in targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "] default {default}")
            }
            Terminator::Return { value: Some(v) } => write!(f, "ret {v}"),
            Terminator::Return { value: None } => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), -1);
        assert_eq!(AluOp::Mul.eval(4, -3), -12);
        assert_eq!(AluOp::Div.eval(7, 2), 3);
        assert_eq!(AluOp::Rem.eval(7, 2), 1);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.eval(1, 4), 16);
        assert_eq!(AluOp::Shr.eval(-16, 2), -4);
        assert_eq!(AluOp::CmpEq.eval(3, 3), 1);
        assert_eq!(AluOp::CmpNe.eval(3, 3), 0);
        assert_eq!(AluOp::CmpLt.eval(-1, 0), 1);
        assert_eq!(AluOp::CmpLe.eval(0, 0), 1);
        assert_eq!(AluOp::Min.eval(-5, 2), -5);
        assert_eq!(AluOp::Max.eval(-5, 2), 2);
    }

    #[test]
    fn alu_eval_non_excepting_division() {
        assert_eq!(AluOp::Div.eval(42, 0), 0);
        assert_eq!(AluOp::Rem.eval(42, 0), 0);
        // i64::MIN / -1 overflows on hardware; wrapping semantics apply.
        assert_eq!(AluOp::Div.eval(i64::MIN, -1), i64::MIN);
        assert_eq!(AluOp::Rem.eval(i64::MIN, -1), 0);
    }

    #[test]
    fn alu_eval_shift_masking() {
        assert_eq!(AluOp::Shl.eval(1, 64), 1, "shift of 64 masks to 0");
        assert_eq!(AluOp::Shl.eval(1, 65), 2, "shift of 65 masks to 1");
        assert_eq!(AluOp::Shr.eval(8, 67), 1);
    }

    #[test]
    fn instr_defs_and_uses() {
        let r0 = Reg::new(0);
        let r1 = Reg::new(1);
        let r2 = Reg::new(2);
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: r2,
            lhs: Operand::Reg(r0),
            rhs: Operand::Reg(r1),
        };
        assert_eq!(i.dst(), Some(r2));
        assert_eq!(i.uses(), vec![r0, r1]);

        let s = Instr::Store {
            src: Operand::Reg(r2),
            base: r0,
            offset: 4,
        };
        assert_eq!(s.dst(), None);
        assert_eq!(s.uses(), vec![r2, r0]);

        let c = Instr::Call {
            callee: ProcId::new(1),
            args: vec![Operand::Reg(r1), Operand::Imm(3)],
            dst: Some(r0),
        };
        assert_eq!(c.dst(), Some(r0));
        assert_eq!(c.uses(), vec![r1]);
    }

    #[test]
    fn speculation_safety() {
        let r = Reg::new(0);
        assert!(Instr::Mov { dst: r, src: Operand::Imm(1) }.is_speculation_safe());
        assert!(!Instr::Load { dst: r, base: r, offset: 0, speculative: false }
            .is_speculation_safe());
        assert!(Instr::Load { dst: r, base: r, offset: 0, speculative: true }
            .is_speculation_safe());
        assert!(!Instr::Store { src: Operand::Imm(0), base: r, offset: 0 }
            .is_speculation_safe());
        assert!(!Instr::Out { src: Operand::Imm(0) }.is_speculation_safe());
    }

    #[test]
    fn terminator_successors_dedup() {
        let b0 = BlockId::new(0);
        let b1 = BlockId::new(1);
        let t = Terminator::Branch { cond: Reg::new(0), taken: b0, not_taken: b0 };
        assert_eq!(t.successors(), vec![b0]);
        let s = Terminator::Switch {
            sel: Reg::new(0),
            targets: vec![b0, b1, b0],
            default: b1,
        };
        assert_eq!(s.successors(), vec![b0, b1]);
    }

    #[test]
    fn terminator_retarget() {
        let b0 = BlockId::new(0);
        let b1 = BlockId::new(1);
        let b9 = BlockId::new(9);
        let mut t = Terminator::Branch { cond: Reg::new(0), taken: b0, not_taken: b1 };
        t.retarget(|b| if b == b0 { b9 } else { b });
        assert_eq!(t.successors(), vec![b9, b1]);
    }

    #[test]
    fn display_round_trip_smoke() {
        let r0 = Reg::new(0);
        let i = Instr::Load { dst: r0, base: r0, offset: 8, speculative: true };
        assert_eq!(format!("{i}"), "r0 = load.s [r0+8]");
        let t = Terminator::Jump { target: BlockId::new(3) };
        assert_eq!(format!("{t}"), "jump b3");
    }
}
