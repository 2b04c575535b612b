//! Flat pre-decoded instruction streams for the fast execution engine.
//!
//! The reference interpreter walks the tree-shaped IR directly: `Vec<Block>`
//! → `Vec<Instr>` → enum payloads with heap-allocated operand vectors. That
//! is the clearest possible statement of the semantics, but it costs two
//! bounds-checked indirections plus an operand-shape match per executed
//! instruction. [`DecodedProc`] flattens a procedure into one contiguous
//! `Op` array with:
//!
//! - **dense program counters** — every block's body is laid out
//!   back-to-back, terminator included, and control transfers carry the
//!   *resolved* target pc (plus the original [`BlockId`](crate::BlockId)
//!   so trace sinks see exactly the events the reference engine emits);
//! - **operand-shape specialization** — `reg op reg`, `reg op imm`,
//!   `imm op reg` and constant-foldable forms decode to distinct opcodes,
//!   so the hot dispatch loop is a single match with no nested operand
//!   test (an `Alu` over two immediates decodes to an `Op::MovImm` of the
//!   folded value: still one dynamic instruction, same register effect);
//! - **side-table arenas** — call argument lists and switch target tables
//!   live in per-procedure arenas referenced by `(start, len)`, keeping
//!   `Op` `Copy` and free of heap payloads.
//!
//! Decoding is *total*: it never inspects whether the procedure would pass
//! the verifier. A control transfer to an out-of-range block decodes to an
//! unresolved target (`pc == u32::MAX`) that panics only if executed —
//! matching the reference engine, which also fails lazily, so
//! fault-injected programs behave identically under both engines.
//!
//! A decoded procedure is a pure function of the procedure body, and
//! decoding is cheap next to running it: [`crate::exec::Exec::new`]
//! decodes the whole program afresh each time.

use crate::instr::{AluOp, Instr, Operand, Terminator};
use crate::proc::Proc;
use crate::program::{ProcId, Program};

/// Sentinel meaning "no register" / "unresolved pc".
pub(crate) const NONE: u32 = u32::MAX;

/// A call-argument source: register index or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// Read register `0`.
    Reg(u32),
    /// Immediate value.
    Imm(i64),
}

impl Src {
    fn decode(op: Operand) -> Src {
        match op {
            Operand::Reg(r) => Src::Reg(r.index() as u32),
            Operand::Imm(v) => Src::Imm(v),
        }
    }
}

/// A pre-resolved control-transfer target: the pc of the target block's
/// first op, plus the original block id for trace-sink events. An
/// out-of-range block id decodes to `pc == NONE`, which faults (panics)
/// only when the transfer is actually taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Target {
    pub pc: u32,
    pub block: u32,
}

/// One decoded operation. Straight-line instructions and terminators share
/// the stream; a block's ops are contiguous and end with its terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `dst = op(regs[a], regs[b])`.
    AluRR { op: AluOp, dst: u32, a: u32, b: u32 },
    /// `dst = op(regs[a], imm)`.
    AluRI { op: AluOp, dst: u32, a: u32, imm: i64 },
    /// `dst = op(imm, regs[b])`.
    AluIR { op: AluOp, dst: u32, imm: i64, b: u32 },
    /// `dst = imm` (also the folded form of `Alu` over two immediates).
    MovImm { dst: u32, imm: i64 },
    /// `dst = regs[src]`.
    MovReg { dst: u32, src: u32 },
    /// `dst = memory[regs[base] + offset]`, faulting when out of bounds.
    Load { dst: u32, base: u32, offset: i64 },
    /// Speculative load: out of bounds yields 0.
    LoadSpec { dst: u32, base: u32, offset: i64 },
    /// `memory[regs[base] + offset] = regs[src]`.
    StoreR { src: u32, base: u32, offset: i64 },
    /// `memory[regs[base] + offset] = imm`.
    StoreI { imm: i64, base: u32, offset: i64 },
    /// Call `callee` with `args_len` arguments at `args_start` in the
    /// argument arena; `dst == NONE` means no return destination.
    Call { callee: u32, args_start: u32, args_len: u32, dst: u32 },
    /// Append `regs[src]` to the output stream.
    OutR { src: u32 },
    /// Append `imm` to the output stream.
    OutI { imm: i64 },
    /// No operation (still one dynamic instruction).
    Nop,
    /// Unconditional transfer.
    Jump { t: Target },
    /// Two-way branch on `regs[cond] != 0`.
    Branch { cond: u32, taken: Target, not_taken: Target },
    /// Multiway branch: `tab_len` targets at `tab_start` in the switch
    /// arena, else `default`.
    Switch { sel: u32, tab_start: u32, tab_len: u32, default: Target },
    /// Return `regs[src]`.
    RetR { src: u32 },
    /// Return `imm`.
    RetI { imm: i64 },
    /// Return without a value.
    RetNone,
}

/// One procedure decoded into a flat op stream (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProc {
    pub(crate) code: Vec<Op>,
    /// Call-argument arena referenced by [`Op::Call`].
    pub(crate) args: Vec<Src>,
    /// Switch-target arena referenced by [`Op::Switch`].
    pub(crate) switch_targets: Vec<Target>,
    /// Entry block's target (pc + block id).
    pub(crate) entry: Target,
    /// Register-window size for one activation (`reg_count.max(1)`, the
    /// reference engine's allocation rule).
    pub(crate) window: u32,
    /// Parameter count, checked against the entry argument vector.
    pub(crate) num_params: u32,
}

impl DecodedProc {
    /// Decodes `proc` into a flat op stream. Total: never panics on
    /// malformed bodies — invalid targets fault only when executed.
    pub fn decode(proc: &Proc) -> DecodedProc {
        // First pass: pc of each block's first op.
        let mut block_pc = Vec::with_capacity(proc.blocks.len());
        let mut pc = 0u32;
        for b in &proc.blocks {
            block_pc.push(pc);
            pc += b.len_with_term() as u32;
        }
        let resolve = |b: crate::proc::BlockId| -> Target {
            Target {
                pc: block_pc.get(b.index()).copied().unwrap_or(NONE),
                block: b.index() as u32,
            }
        };

        let mut code = Vec::with_capacity(pc as usize);
        let mut args: Vec<Src> = Vec::new();
        let mut switch_targets: Vec<Target> = Vec::new();
        for b in &proc.blocks {
            for i in &b.instrs {
                code.push(match i {
                    Instr::Alu { op, dst, lhs, rhs } => {
                        let dst = dst.index() as u32;
                        match (lhs, rhs) {
                            (Operand::Reg(a), Operand::Reg(b)) => Op::AluRR {
                                op: *op,
                                dst,
                                a: a.index() as u32,
                                b: b.index() as u32,
                            },
                            (Operand::Reg(a), Operand::Imm(imm)) => Op::AluRI {
                                op: *op,
                                dst,
                                a: a.index() as u32,
                                imm: *imm,
                            },
                            (Operand::Imm(imm), Operand::Reg(b)) => Op::AluIR {
                                op: *op,
                                dst,
                                imm: *imm,
                                b: b.index() as u32,
                            },
                            (Operand::Imm(a), Operand::Imm(b)) => Op::MovImm {
                                dst,
                                imm: op.eval(*a, *b),
                            },
                        }
                    }
                    Instr::Mov { dst, src } => match src {
                        Operand::Reg(r) => Op::MovReg {
                            dst: dst.index() as u32,
                            src: r.index() as u32,
                        },
                        Operand::Imm(v) => Op::MovImm { dst: dst.index() as u32, imm: *v },
                    },
                    Instr::Load { dst, base, offset, speculative } => {
                        let (dst, base) = (dst.index() as u32, base.index() as u32);
                        if *speculative {
                            Op::LoadSpec { dst, base, offset: *offset }
                        } else {
                            Op::Load { dst, base, offset: *offset }
                        }
                    }
                    Instr::Store { src, base, offset } => match src {
                        Operand::Reg(r) => Op::StoreR {
                            src: r.index() as u32,
                            base: base.index() as u32,
                            offset: *offset,
                        },
                        Operand::Imm(v) => Op::StoreI {
                            imm: *v,
                            base: base.index() as u32,
                            offset: *offset,
                        },
                    },
                    Instr::Call { callee, args: call_args, dst } => {
                        let args_start = args.len() as u32;
                        args.extend(call_args.iter().map(|a| Src::decode(*a)));
                        Op::Call {
                            callee: callee.index() as u32,
                            args_start,
                            args_len: call_args.len() as u32,
                            dst: dst.map_or(NONE, |r| r.index() as u32),
                        }
                    }
                    Instr::Out { src } => match src {
                        Operand::Reg(r) => Op::OutR { src: r.index() as u32 },
                        Operand::Imm(v) => Op::OutI { imm: *v },
                    },
                    Instr::Nop => Op::Nop,
                });
            }
            code.push(match &b.term {
                Terminator::Jump { target } => Op::Jump { t: resolve(*target) },
                Terminator::Branch { cond, taken, not_taken } => Op::Branch {
                    cond: cond.index() as u32,
                    taken: resolve(*taken),
                    not_taken: resolve(*not_taken),
                },
                Terminator::Switch { sel, targets, default } => {
                    let tab_start = switch_targets.len() as u32;
                    switch_targets.extend(targets.iter().map(|t| resolve(*t)));
                    Op::Switch {
                        sel: sel.index() as u32,
                        tab_start,
                        tab_len: targets.len() as u32,
                        default: resolve(*default),
                    }
                }
                Terminator::Return { value } => match value {
                    Some(Operand::Reg(r)) => Op::RetR { src: r.index() as u32 },
                    Some(Operand::Imm(v)) => Op::RetI { imm: *v },
                    None => Op::RetNone,
                },
            });
        }

        DecodedProc {
            code,
            args,
            switch_targets,
            entry: resolve(proc.entry),
            window: proc.reg_count.max(1),
            num_params: proc.num_params,
        }
    }

    /// Number of decoded ops (instructions + terminators).
    pub fn n_ops(&self) -> usize {
        self.code.len()
    }
}

/// A whole program in decoded form, ready for the fast engine.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// Decoded procedures, indexed like `Program::procs`.
    pub(crate) procs: Vec<DecodedProc>,
    /// Entry procedure.
    pub(crate) entry: ProcId,
}

impl DecodedProgram {
    /// Decodes every procedure of `program`.
    pub fn decode(program: &Program) -> DecodedProgram {
        DecodedProgram {
            procs: program.procs.iter().map(DecodedProc::decode).collect(),
            entry: program.entry,
        }
    }

    /// Total decoded ops over all procedures.
    pub fn n_ops(&self) -> usize {
        self.procs.iter().map(|p| p.n_ops()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::proc::BlockId;

    #[test]
    fn decode_flattens_blocks_in_order() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let r = f.reg();
        let next = f.new_block();
        f.mov(r, 7i64);
        f.jump(next);
        f.switch_to(next);
        f.out(r);
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);
        let d = DecodedProc::decode(p.proc(p.entry));
        assert_eq!(d.n_ops(), 4, "mov, jump, out, ret + nothing else");
        assert_eq!(d.entry, Target { pc: 0, block: 0 });
        // The jump resolves to the second block's first op.
        assert_eq!(d.code[1], Op::Jump { t: Target { pc: 2, block: 1 } });
        assert_eq!(d.code[2], Op::OutR { src: r.index() as u32 });
    }

    #[test]
    fn alu_over_immediates_folds_to_mov() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let r = f.reg();
        f.alu(AluOp::Add, r, 20i64, 22i64);
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);
        let d = DecodedProc::decode(p.proc(p.entry));
        assert_eq!(d.code[0], Op::MovImm { dst: 0, imm: 42 });
    }

    #[test]
    fn out_of_range_target_decodes_unresolved() {
        use crate::instr::Terminator;
        use crate::proc::Block;
        let mut proc = Proc::new("bad", 0);
        proc.push_block(Block::new(
            vec![],
            Terminator::Jump { target: BlockId::new(99) },
        ));
        let d = DecodedProc::decode(&proc);
        assert_eq!(d.code[0], Op::Jump { t: Target { pc: NONE, block: 99 } });
    }
}
