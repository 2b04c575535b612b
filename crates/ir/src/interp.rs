//! Reference interpreter — the semantic ground truth of the IR.
//!
//! The interpreter executes a [`Program`] with an explicit call stack (so
//! deeply recursive benchmarks cannot overflow the host stack), reports every
//! block entry to a [`TraceSink`], and gathers the dynamic counts the paper's
//! Table 1 reports: branches, instructions (cycles are computed by `pps-sim`
//! from schedules, not here).
//!
//! Semantics notes:
//! - registers are 64-bit signed integers, zero-initialized per activation;
//! - ALU operations are non-excepting (see [`crate::instr::AluOp`]);
//! - a non-speculative load or any store with an out-of-bounds address is a
//!   runtime error; a speculative load out of bounds yields 0;
//! - `Out` appends to the observable output stream, which differential tests
//!   compare across transformations.

use crate::instr::{Instr, Operand, Terminator};
use crate::proc::{BlockId, Reg};
use crate::program::{ProcId, Program};
use crate::trace::{NullSink, TraceSink};
use std::error::Error;
use std::fmt;

/// Limits and options for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum dynamic instruction count before aborting (guards tests and
    /// randomly generated programs against non-termination).
    pub max_instrs: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_instrs: 500_000_000,
            max_call_depth: 100_000,
        }
    }
}

/// Why an execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A non-speculative memory access touched an address outside
    /// `[0, mem_size)`.
    MemoryFault {
        /// Offending address.
        addr: i64,
        /// Procedure where the fault occurred.
        proc: ProcId,
    },
    /// The dynamic instruction budget was exhausted.
    InstrLimit,
    /// The call stack exceeded the configured depth.
    CallDepth,
    /// Wrong number of arguments passed to the entry procedure.
    ArityMismatch {
        /// Expected parameter count.
        expected: u32,
        /// Provided argument count.
        got: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemoryFault { addr, proc } => {
                write!(f, "memory fault at address {addr} in {proc}")
            }
            ExecError::InstrLimit => write!(f, "dynamic instruction limit exceeded"),
            ExecError::CallDepth => write!(f, "call depth limit exceeded"),
            ExecError::ArityMismatch { expected, got } => {
                write!(f, "entry procedure expects {expected} arguments, got {got}")
            }
        }
    }
}

impl Error for ExecError {}

/// Dynamic counts gathered during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynCounts {
    /// Dynamic instructions executed, including terminators.
    pub instrs: u64,
    /// Conditional + multiway branches executed (the paper's "Branches").
    pub branches: u64,
    /// Basic blocks entered.
    pub blocks: u64,
    /// Procedure activations.
    pub calls: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

/// The observable result of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// Values emitted by `Out` instructions, in order.
    pub output: Vec<i64>,
    /// Value returned by the entry procedure, if any.
    pub return_value: Option<i64>,
    /// Dynamic counts.
    pub counts: DynCounts,
    /// Final memory image.
    pub memory: Vec<i64>,
}

/// Outcome of [`Interp::run_bounded`]: the observable state at the point
/// execution stopped, plus whether the program actually finished.
///
/// When `completed` is false the run was cut off by `max_instrs`;
/// `result.output` and `result.memory` hold the state produced *so far*
/// (a prefix of a longer run's observables) and `result.return_value` is
/// `None`. This is what the pipeline guard's differential oracle consumes:
/// it can compare output prefixes of truncated runs instead of treating a
/// long-running program as an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedRun {
    /// Observable state when execution stopped.
    pub result: ExecResult,
    /// True if the program ran to completion within the budget.
    pub completed: bool,
}

struct Frame {
    proc: ProcId,
    regs: Vec<i64>,
    block: BlockId,
    instr_idx: usize,
    /// Destination register in the *caller* for the return value.
    ret_dst: Option<Reg>,
}

/// The reference interpreter.
///
/// See the crate-level example for typical use. Construct one per execution;
/// `run` consumes per-run state but the interpreter may be reused.
#[derive(Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    config: ExecConfig,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter over `program`.
    pub fn new(program: &'p Program, config: ExecConfig) -> Self {
        Interp { program, config }
    }

    /// Runs the program entry procedure with `args`, discarding the trace.
    ///
    /// # Errors
    /// Returns an [`ExecError`] on memory faults, limit exhaustion, or an
    /// argument-count mismatch.
    pub fn run(&self, args: &[i64]) -> Result<ExecResult, ExecError> {
        self.run_traced(args, &mut NullSink)
    }

    /// Runs the program, reporting every block entry to `sink`.
    ///
    /// # Errors
    /// Returns an [`ExecError`] on memory faults, limit exhaustion, or an
    /// argument-count mismatch.
    pub fn run_traced<S: TraceSink>(
        &self,
        args: &[i64],
        sink: &mut S,
    ) -> Result<ExecResult, ExecError> {
        match self.exec(args, sink)? {
            BoundedRun { completed: true, result } => Ok(result),
            BoundedRun { completed: false, .. } => Err(ExecError::InstrLimit),
        }
    }

    /// Runs the entry procedure with `args`, treating `max_instrs`
    /// exhaustion as a *truncated success* rather than an error.
    ///
    /// # Errors
    /// Returns an [`ExecError`] on memory faults, call-depth exhaustion, or
    /// an argument-count mismatch — never [`ExecError::InstrLimit`].
    pub fn run_bounded(&self, args: &[i64]) -> Result<BoundedRun, ExecError> {
        self.run_bounded_traced(args, &mut NullSink)
    }

    /// [`run_bounded`](Self::run_bounded), reporting every block entry to
    /// `sink`. A truncated run stops reporting where it stopped executing.
    ///
    /// # Errors
    /// As [`run_bounded`](Self::run_bounded).
    pub fn run_bounded_traced<S: TraceSink>(
        &self,
        args: &[i64],
        sink: &mut S,
    ) -> Result<BoundedRun, ExecError> {
        self.exec(args, sink)
    }

    fn exec<S: TraceSink>(&self, args: &[i64], sink: &mut S) -> Result<BoundedRun, ExecError> {
        let program = self.program;
        let entry = program.proc(program.entry);
        if entry.num_params as usize != args.len() {
            return Err(ExecError::ArityMismatch {
                expected: entry.num_params,
                got: args.len(),
            });
        }

        let mut memory = program.initial_memory();
        let mut output = Vec::new();
        let mut counts = DynCounts::default();
        let mut stack: Vec<Frame> = Vec::new();
        let mut return_value: Option<i64> = None;

        let mut regs = vec![0i64; entry.reg_count.max(1) as usize];
        regs[..args.len()].copy_from_slice(args);
        stack.push(Frame {
            proc: program.entry,
            regs,
            block: entry.entry,
            instr_idx: 0,
            ret_dst: None,
        });
        counts.calls += 1;
        sink.enter_proc(program.entry);
        sink.block(program.entry, entry.entry);
        counts.blocks += 1;

        'outer: while !stack.is_empty() {
            let depth = stack.len();
            let frame = stack.last_mut().expect("stack non-empty");
            let proc = program.proc(frame.proc);
            let block = proc.block(frame.block);

            // Execute the remaining straight-line instructions.
            while frame.instr_idx < block.instrs.len() {
                if counts.instrs >= self.config.max_instrs {
                    return Ok(truncated(output, counts, memory));
                }
                counts.instrs += 1;
                let instr = &block.instrs[frame.instr_idx];
                frame.instr_idx += 1;
                match instr {
                    Instr::Alu { op, dst, lhs, rhs } => {
                        let a = read(&frame.regs, *lhs);
                        let b = read(&frame.regs, *rhs);
                        frame.regs[dst.index()] = op.eval(a, b);
                    }
                    Instr::Mov { dst, src } => {
                        frame.regs[dst.index()] = read(&frame.regs, *src);
                    }
                    Instr::Load { dst, base, offset, speculative } => {
                        counts.loads += 1;
                        let addr = frame.regs[base.index()].wrapping_add(*offset);
                        let val = if addr >= 0 && (addr as usize) < memory.len() {
                            memory[addr as usize]
                        } else if *speculative {
                            0
                        } else {
                            return Err(ExecError::MemoryFault { addr, proc: frame.proc });
                        };
                        frame.regs[dst.index()] = val;
                    }
                    Instr::Store { src, base, offset } => {
                        counts.stores += 1;
                        let addr = frame.regs[base.index()].wrapping_add(*offset);
                        if addr >= 0 && (addr as usize) < memory.len() {
                            memory[addr as usize] = read(&frame.regs, *src);
                        } else {
                            return Err(ExecError::MemoryFault { addr, proc: frame.proc });
                        }
                    }
                    Instr::Call { callee, args, dst } => {
                        if depth >= self.config.max_call_depth {
                            return Err(ExecError::CallDepth);
                        }
                        let callee_id = *callee;
                        let callee_proc = program.proc(callee_id);
                        debug_assert_eq!(
                            callee_proc.num_params as usize,
                            args.len(),
                            "call arity mismatch: {} expects {} args, got {}",
                            callee_proc.name,
                            callee_proc.num_params,
                            args.len()
                        );
                        let mut callee_regs = vec![0i64; callee_proc.reg_count.max(1) as usize];
                        for (i, a) in args.iter().enumerate() {
                            callee_regs[i] = read(&frame.regs, *a);
                        }
                        let ret_dst = *dst;
                        let callee_entry = callee_proc.entry;
                        counts.calls += 1;
                        stack.push(Frame {
                            proc: callee_id,
                            regs: callee_regs,
                            block: callee_entry,
                            instr_idx: 0,
                            ret_dst,
                        });
                        sink.enter_proc(callee_id);
                        sink.block(callee_id, callee_entry);
                        counts.blocks += 1;
                        continue 'outer;
                    }
                    Instr::Out { src } => {
                        output.push(read(&frame.regs, *src));
                    }
                    Instr::Nop => {}
                }
            }

            // Terminator.
            if counts.instrs >= self.config.max_instrs {
                return Ok(truncated(output, counts, memory));
            }
            counts.instrs += 1;
            let next = match &block.term {
                Terminator::Jump { target } => Some(*target),
                Terminator::Branch { cond, taken, not_taken } => {
                    counts.branches += 1;
                    if frame.regs[cond.index()] != 0 {
                        Some(*taken)
                    } else {
                        Some(*not_taken)
                    }
                }
                Terminator::Switch { sel, targets, default } => {
                    counts.branches += 1;
                    let v = frame.regs[sel.index()];
                    if v >= 0 && (v as usize) < targets.len() {
                        Some(targets[v as usize])
                    } else {
                        Some(*default)
                    }
                }
                Terminator::Return { value } => {
                    let ret = value.map(|v| read(&frame.regs, v));
                    let finished = stack.pop().expect("frame exists");
                    sink.exit_proc(finished.proc);
                    match stack.last_mut() {
                        Some(caller) => {
                            if let (Some(dst), Some(v)) = (finished.ret_dst, ret) {
                                caller.regs[dst.index()] = v;
                            } else if let Some(dst) = finished.ret_dst {
                                // Callee returned nothing but a destination
                                // was requested: define it as 0.
                                caller.regs[dst.index()] = 0;
                            }
                        }
                        None => return_value = ret,
                    }
                    None
                }
            };

            if let Some(next) = next {
                let frame = stack.last_mut().expect("frame exists");
                frame.block = next;
                frame.instr_idx = 0;
                sink.block(frame.proc, next);
                counts.blocks += 1;
            }
        }

        Ok(BoundedRun {
            result: ExecResult { output, return_value, counts, memory },
            completed: true,
        })
    }
}

/// Packages the observable state of a budget-truncated run.
fn truncated(output: Vec<i64>, counts: DynCounts, memory: Vec<i64>) -> BoundedRun {
    BoundedRun {
        result: ExecResult { output, return_value: None, counts, memory },
        completed: false,
    }
}

#[inline]
fn read(regs: &[i64], op: Operand) -> i64 {
    match op {
        Operand::Reg(r) => regs[r.index()],
        Operand::Imm(v) => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::AluOp;
    use crate::trace::{BlockEvent, VecSink};

    /// main() { out(7); return 3; }
    fn straightline() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        f.out(Operand::Imm(7));
        f.ret(Some(Operand::Imm(3)));
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn straightline_output_and_return() {
        let p = straightline();
        let r = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(r.output, vec![7]);
        assert_eq!(r.return_value, Some(3));
        assert_eq!(r.counts.blocks, 1);
        assert_eq!(r.counts.instrs, 2);
        assert_eq!(r.counts.branches, 0);
    }

    /// main(n) { s = 0; for i in 0..n { s += i }; return s }
    fn loop_sum() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let s = f.reg();
        let i = f.reg();
        let c = f.reg();
        f.mov(s, Operand::Imm(0));
        f.mov(i, Operand::Imm(0));
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Reg(n));
        f.branch(c, body, exit);
        f.switch_to(body);
        f.alu(AluOp::Add, s, Operand::Reg(s), Operand::Reg(i));
        f.alu(AluOp::Add, i, Operand::Reg(i), Operand::Imm(1));
        f.jump(head);
        f.switch_to(exit);
        f.ret(Some(Operand::Reg(s)));
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn loop_sums_correctly() {
        let p = loop_sum();
        let r = Interp::new(&p, ExecConfig::default()).run(&[10]).unwrap();
        assert_eq!(r.return_value, Some(45));
        assert_eq!(r.counts.branches, 11, "one compare-branch per head visit");
    }

    #[test]
    fn trace_events_cover_loop() {
        let p = loop_sum();
        let mut sink = VecSink::new();
        let r = Interp::new(&p, ExecConfig::default())
            .run_traced(&[2], &mut sink)
            .unwrap();
        assert_eq!(r.return_value, Some(1));
        // entry, head, body, head, body, head, exit
        let blocks = sink.blocks();
        assert_eq!(blocks.len(), 7);
        assert_eq!(r.counts.blocks, 7);
        assert!(matches!(sink.events.first(), Some(BlockEvent::Enter(_))));
        assert!(matches!(sink.events.last(), Some(BlockEvent::Exit(_))));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let p = loop_sum();
        let err = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap_err();
        assert_eq!(err, ExecError::ArityMismatch { expected: 1, got: 0 });
    }

    #[test]
    fn memory_fault_on_oob_store() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let a = f.reg();
        f.mov(a, Operand::Imm(1 << 40));
        f.store(Operand::Imm(1), a, 0);
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);
        let err = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap_err();
        assert!(matches!(err, ExecError::MemoryFault { .. }));
    }

    #[test]
    fn speculative_load_oob_yields_zero() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let a = f.reg();
        let v = f.reg();
        f.mov(a, Operand::Imm(-5));
        f.load_spec(v, a, 0);
        f.out(Operand::Reg(v));
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);
        let r = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(r.output, vec![0]);
    }

    #[test]
    fn instr_limit_stops_infinite_loop() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let head = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.jump(head);
        let main = f.finish();
        let p = pb.finish(main);
        let cfg = ExecConfig { max_instrs: 1000, ..ExecConfig::default() };
        let err = Interp::new(&p, cfg).run(&[]).unwrap_err();
        assert_eq!(err, ExecError::InstrLimit);
    }

    #[test]
    fn bounded_run_truncates_instead_of_erroring() {
        // out(1); out(2); ... in an infinite loop: the bounded run keeps the
        // output prefix produced before the budget ran out.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let head = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.out(Operand::Imm(1));
        f.jump(head);
        let main = f.finish();
        let p = pb.finish(main);
        let cfg = ExecConfig { max_instrs: 100, ..ExecConfig::default() };
        let b = Interp::new(&p, cfg).run_bounded(&[]).unwrap();
        assert!(!b.completed);
        assert!(!b.result.output.is_empty());
        assert_eq!(b.result.return_value, None);
        assert!(b.result.counts.instrs <= 100);

        // A terminating program completes with identical observables to
        // `run`.
        let p = loop_sum();
        let full = Interp::new(&p, ExecConfig::default()).run(&[10]).unwrap();
        let b = Interp::new(&p, ExecConfig::default()).run_bounded(&[10]).unwrap();
        assert!(b.completed);
        assert_eq!(b.result, full);
    }

    #[test]
    fn recursion_executes_with_explicit_stack() {
        // f(n) = n == 0 ? 0 : n + f(n-1)
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare_proc("f", 1);
        let mut f = pb.begin_proc("main", 0);
        let r = f.reg();
        f.call(fid, vec![Operand::Imm(300)], Some(r));
        f.ret(Some(Operand::Reg(r)));
        let main = f.finish();

        let mut g = pb.begin_declared(fid);
        let n = Reg::new(0);
        let c = g.reg();
        let rec = g.reg();
        let base = g.new_block();
        let step = g.new_block();
        g.alu(AluOp::CmpEq, c, Operand::Reg(n), Operand::Imm(0));
        g.branch(c, base, step);
        g.switch_to(base);
        g.ret(Some(Operand::Imm(0)));
        g.switch_to(step);
        let m = g.reg();
        g.alu(AluOp::Sub, m, Operand::Reg(n), Operand::Imm(1));
        g.call(fid, vec![Operand::Reg(m)], Some(rec));
        let s = g.reg();
        g.alu(AluOp::Add, s, Operand::Reg(n), Operand::Reg(rec));
        g.ret(Some(Operand::Reg(s)));
        g.finish();

        let p = pb.finish(main);
        let r = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(r.return_value, Some(300 * 301 / 2));
    }

    #[test]
    fn call_depth_limit_enforced() {
        // f() { f() }
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare_proc("f", 0);
        let mut f = pb.begin_proc("main", 0);
        f.call(fid, vec![], None);
        f.ret(None);
        let main = f.finish();
        let mut g = pb.begin_declared(fid);
        g.call(fid, vec![], None);
        g.ret(None);
        g.finish();
        let p = pb.finish(main);
        let cfg = ExecConfig { max_call_depth: 64, ..ExecConfig::default() };
        let err = Interp::new(&p, cfg).run(&[]).unwrap_err();
        assert_eq!(err, ExecError::CallDepth);
    }

    #[test]
    fn switch_selects_and_defaults() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let sel = Reg::new(0);
        let c0 = f.new_block();
        let c1 = f.new_block();
        let dfl = f.new_block();
        f.switch(sel, vec![c0, c1], dfl);
        for (b, v) in [(c0, 100), (c1, 101), (dfl, 999)] {
            f.switch_to(b);
            f.out(Operand::Imm(v));
            f.ret(None);
        }
        let main = f.finish();
        let p = pb.finish(main);
        let interp = Interp::new(&p, ExecConfig::default());
        assert_eq!(interp.run(&[0]).unwrap().output, vec![100]);
        assert_eq!(interp.run(&[1]).unwrap().output, vec![101]);
        assert_eq!(interp.run(&[2]).unwrap().output, vec![999]);
        assert_eq!(interp.run(&[-7]).unwrap().output, vec![999]);
    }
}
