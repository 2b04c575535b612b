//! Execution-engine selection and the fast direct-threaded engine.
//!
//! Two engines define (and cross-check) the IR's observable semantics:
//!
//! - the **reference** engine, [`crate::interp::Interp`] — the tree-walking
//!   interpreter that *is* the semantic ground truth;
//! - the **fast** engine — a direct-threaded loop over the flat
//!   [`DecodedProgram`] stream ([`crate::decode`]), with all activation
//!   registers in one arena (a register *window* per frame, no per-call
//!   allocation) and control transfers resolved to program counters.
//!
//! The contract between them is exact equality of everything observable:
//! [`ExecResult`] including [`DynCounts`], the full [`TraceSink`] event
//! stream, every [`ExecError`], and the truncation point of bounded runs
//! (the budget is checked before *every* dynamic instruction, terminators
//! included, in both engines). `tests/interp_diff.rs` enforces the
//! contract over randomized programs and fault-injected variants.
//!
//! [`Exec`] is the engine-dispatching front door the pipeline uses
//! everywhere the reference engine used to be constructed directly. The
//! engine defaults to [`Engine::Fast`]; set `PPS_ENGINE=reference` to run a
//! whole process on the reference engine (A/B benchmarking, bug triage),
//! or use [`with_engine`] to pin an engine for a scope (differential
//! tests). The thread-local override takes precedence over the
//! environment.

use crate::decode::{DecodedProgram, Op, Src, NONE};
use crate::interp::{BoundedRun, DynCounts, ExecConfig, ExecError, ExecResult, Interp};
use crate::proc::BlockId;
use crate::program::{ProcId, Program};
use crate::trace::{NullSink, TraceSink};
use std::cell::Cell;
use std::sync::OnceLock;

/// Which execution engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Direct-threaded dispatch over the flat decoded stream (default).
    Fast,
    /// The tree-walking reference interpreter.
    Reference,
}

thread_local! {
    static ENGINE_OVERRIDE: Cell<Option<Engine>> = const { Cell::new(None) };
}

static ENV_ENGINE: OnceLock<Engine> = OnceLock::new();

/// The engine [`Exec::new`] selects: a [`with_engine`] override if one is
/// active on this thread, else `PPS_ENGINE` (`reference`/`ref` → reference,
/// anything else → fast; read once per process), else [`Engine::Fast`].
pub fn current_engine() -> Engine {
    if let Some(e) = ENGINE_OVERRIDE.with(Cell::get) {
        return e;
    }
    *ENV_ENGINE.get_or_init(|| match std::env::var("PPS_ENGINE").as_deref() {
        Ok("reference") | Ok("ref") => Engine::Reference,
        _ => Engine::Fast,
    })
}

/// Runs `f` with `engine` as this thread's engine, restoring the previous
/// selection afterwards (panic-safe). Differential tests use this to pin
/// each side of a comparison.
pub fn with_engine<R>(engine: Engine, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Engine>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENGINE_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(ENGINE_OVERRIDE.with(|c| c.replace(Some(engine))));
    f()
}

/// Engine-dispatching executor with the same API surface as
/// [`Interp`]: `run`, `run_traced`, `run_bounded`, `run_bounded_traced`.
/// Construct once per program (decoding happens here) and run any number
/// of inputs.
#[derive(Debug)]
pub struct Exec<'p> {
    program: &'p Program,
    config: ExecConfig,
    /// Present iff the engine is fast.
    decoded: Option<DecodedProgram>,
}

impl<'p> Exec<'p> {
    /// Creates an executor using [`current_engine`].
    pub fn new(program: &'p Program, config: ExecConfig) -> Self {
        Self::with_engine(program, config, current_engine())
    }

    /// Creates an executor on an explicit engine.
    pub fn with_engine(program: &'p Program, config: ExecConfig, engine: Engine) -> Self {
        let decoded = match engine {
            Engine::Fast => Some(DecodedProgram::decode(program)),
            Engine::Reference => None,
        };
        Exec { program, config, decoded }
    }

    /// The engine this executor dispatches to.
    pub fn engine(&self) -> Engine {
        if self.decoded.is_some() {
            Engine::Fast
        } else {
            Engine::Reference
        }
    }

    /// Runs the entry procedure with `args`, discarding the trace.
    ///
    /// # Errors
    /// As [`Interp::run`].
    pub fn run(&self, args: &[i64]) -> Result<ExecResult, ExecError> {
        self.run_traced(args, &mut NullSink)
    }

    /// Runs the program, reporting every block entry to `sink`.
    ///
    /// # Errors
    /// As [`Interp::run_traced`].
    pub fn run_traced<S: TraceSink>(
        &self,
        args: &[i64],
        sink: &mut S,
    ) -> Result<ExecResult, ExecError> {
        match &self.decoded {
            Some(dp) => match run_flat(self.program, dp, self.config, args, sink)? {
                BoundedRun { completed: true, result } => Ok(result),
                BoundedRun { completed: false, .. } => Err(ExecError::InstrLimit),
            },
            None => Interp::new(self.program, self.config).run_traced(args, sink),
        }
    }

    /// Runs with `max_instrs` exhaustion treated as truncated success.
    ///
    /// # Errors
    /// As [`Interp::run_bounded`].
    pub fn run_bounded(&self, args: &[i64]) -> Result<BoundedRun, ExecError> {
        self.run_bounded_traced(args, &mut NullSink)
    }

    /// [`run_bounded`](Self::run_bounded), reporting every block entry to
    /// `sink`. A truncated run stops reporting where it stopped executing.
    ///
    /// # Errors
    /// As [`Interp::run_bounded_traced`].
    pub fn run_bounded_traced<S: TraceSink>(
        &self,
        args: &[i64],
        sink: &mut S,
    ) -> Result<BoundedRun, ExecError> {
        match &self.decoded {
            Some(dp) => run_flat(self.program, dp, self.config, args, sink),
            None => Interp::new(self.program, self.config).run_bounded_traced(args, sink),
        }
    }
}

/// Pops the innermost activation: emits the exit event, restores the
/// caller's window and pc, and writes the return destination (defined as 0
/// when the callee returned nothing — the reference engine's rule). The
/// `$top` block runs instead when this was the entry activation.
macro_rules! ret_transfer {
    ($frames:expr, $regs:expr, $base:expr, $cur:expr, $cur_proc:expr, $pc:expr, $dp:expr,
     $sink:expr, $ret:expr, $top:block) => {{
        $sink.exit_proc(ProcId::new($cur_proc));
        match $frames.pop() {
            Some(f) => {
                $regs.truncate($base);
                $base = f.base as usize;
                if f.ret_dst != NONE {
                    let v: Option<i64> = $ret;
                    $regs[$base + f.ret_dst as usize] = v.unwrap_or(0);
                }
                $cur_proc = f.proc;
                $cur = &$dp.procs[f.proc as usize];
                $pc = f.pc;
            }
            None => $top,
        }
    }};
}

/// A suspended caller: where to resume when the callee returns.
struct SavedFrame {
    proc: u32,
    /// Register-window base in the shared arena.
    base: u32,
    /// Resume pc (the op after the call).
    pc: u32,
    /// Return-value destination (`NONE` = none).
    ret_dst: u32,
}

/// The fast engine's dispatch loop. Semantics mirror
/// [`Interp`]'s `exec` exactly — see the module docs for the contract.
fn run_flat<S: TraceSink>(
    program: &Program,
    dp: &DecodedProgram,
    config: ExecConfig,
    args: &[i64],
    sink: &mut S,
) -> Result<BoundedRun, ExecError> {
    let entry_id = dp.entry;
    let entry = &dp.procs[entry_id.index()];
    if entry.num_params as usize != args.len() {
        return Err(ExecError::ArityMismatch {
            expected: entry.num_params,
            got: args.len(),
        });
    }

    let mut memory = program.initial_memory();
    let mut output: Vec<i64> = Vec::new();
    let mut counts = DynCounts::default();
    let mut return_value: Option<i64> = None;

    // One register arena for the whole run: each activation owns the
    // window `[base, base + window)` at the arena's tail while it is the
    // innermost frame, so an in-window register index bounds-checks
    // against the arena length exactly like the reference engine's
    // per-frame vector.
    let mut regs: Vec<i64> = vec![0; entry.window as usize];
    regs[..args.len()].copy_from_slice(args);
    let mut frames: Vec<SavedFrame> = Vec::new();
    let mut arg_buf: Vec<i64> = Vec::new();

    let mut cur_proc: u32 = entry_id.index() as u32;
    let mut cur = entry;
    let mut base: usize = 0;
    let mut pc: u32 = cur.entry.pc;

    counts.calls += 1;
    sink.enter_proc(entry_id);
    sink.block(entry_id, BlockId::new(cur.entry.block));
    counts.blocks += 1;

    macro_rules! transfer {
        ($t:expr) => {{
            let t = $t;
            sink.block(ProcId::new(cur_proc), BlockId::new(t.block));
            counts.blocks += 1;
            pc = t.pc;
        }};
    }

    loop {
        if counts.instrs >= config.max_instrs {
            return Ok(BoundedRun {
                result: ExecResult { output, return_value: None, counts, memory },
                completed: false,
            });
        }
        counts.instrs += 1;
        match cur.code[pc as usize] {
            Op::AluRR { op, dst, a, b } => {
                let x = regs[base + a as usize];
                let y = regs[base + b as usize];
                regs[base + dst as usize] = op.eval(x, y);
                pc += 1;
            }
            Op::AluRI { op, dst, a, imm } => {
                let x = regs[base + a as usize];
                regs[base + dst as usize] = op.eval(x, imm);
                pc += 1;
            }
            Op::AluIR { op, dst, imm, b } => {
                let y = regs[base + b as usize];
                regs[base + dst as usize] = op.eval(imm, y);
                pc += 1;
            }
            Op::MovImm { dst, imm } => {
                regs[base + dst as usize] = imm;
                pc += 1;
            }
            Op::MovReg { dst, src } => {
                regs[base + dst as usize] = regs[base + src as usize];
                pc += 1;
            }
            Op::Load { dst, base: b, offset } => {
                counts.loads += 1;
                let addr = regs[base + b as usize].wrapping_add(offset);
                if addr >= 0 && (addr as usize) < memory.len() {
                    regs[base + dst as usize] = memory[addr as usize];
                } else {
                    return Err(ExecError::MemoryFault { addr, proc: ProcId::new(cur_proc) });
                }
                pc += 1;
            }
            Op::LoadSpec { dst, base: b, offset } => {
                counts.loads += 1;
                let addr = regs[base + b as usize].wrapping_add(offset);
                regs[base + dst as usize] = if addr >= 0 && (addr as usize) < memory.len() {
                    memory[addr as usize]
                } else {
                    0
                };
                pc += 1;
            }
            Op::StoreR { src, base: b, offset } => {
                counts.stores += 1;
                let addr = regs[base + b as usize].wrapping_add(offset);
                if addr >= 0 && (addr as usize) < memory.len() {
                    memory[addr as usize] = regs[base + src as usize];
                } else {
                    return Err(ExecError::MemoryFault { addr, proc: ProcId::new(cur_proc) });
                }
                pc += 1;
            }
            Op::StoreI { imm, base: b, offset } => {
                counts.stores += 1;
                let addr = regs[base + b as usize].wrapping_add(offset);
                if addr >= 0 && (addr as usize) < memory.len() {
                    memory[addr as usize] = imm;
                } else {
                    return Err(ExecError::MemoryFault { addr, proc: ProcId::new(cur_proc) });
                }
                pc += 1;
            }
            Op::Call { callee, args_start, args_len, dst } => {
                // `frames` holds suspended callers; the live frame makes
                // the depth `frames.len() + 1`, matching the reference
                // engine's stack length at its depth check.
                if frames.len() + 1 >= config.max_call_depth {
                    return Err(ExecError::CallDepth);
                }
                let cd = &dp.procs[callee as usize];
                debug_assert_eq!(
                    cd.num_params, args_len,
                    "call arity mismatch: callee expects {} args, got {}",
                    cd.num_params, args_len
                );
                // Evaluate arguments while the caller window is still the
                // arena tail (out-of-window reads must fault, not read the
                // callee's zeroed window).
                arg_buf.clear();
                for s in &cur.args[args_start as usize..(args_start + args_len) as usize] {
                    arg_buf.push(match *s {
                        Src::Reg(r) => regs[base + r as usize],
                        Src::Imm(v) => v,
                    });
                }
                frames.push(SavedFrame {
                    proc: cur_proc,
                    base: base as u32,
                    pc: pc + 1,
                    ret_dst: dst,
                });
                base = regs.len();
                regs.resize(base + cd.window as usize, 0);
                regs[base..base + arg_buf.len()].copy_from_slice(&arg_buf);
                cur_proc = callee;
                cur = cd;
                pc = cur.entry.pc;
                counts.calls += 1;
                let callee_id = ProcId::new(callee);
                sink.enter_proc(callee_id);
                sink.block(callee_id, BlockId::new(cur.entry.block));
                counts.blocks += 1;
            }
            Op::OutR { src } => {
                output.push(regs[base + src as usize]);
                pc += 1;
            }
            Op::OutI { imm } => {
                output.push(imm);
                pc += 1;
            }
            Op::Nop => {
                pc += 1;
            }
            Op::Jump { t } => transfer!(t),
            Op::Branch { cond, taken, not_taken } => {
                counts.branches += 1;
                let t = if regs[base + cond as usize] != 0 { taken } else { not_taken };
                transfer!(t);
            }
            Op::Switch { sel, tab_start, tab_len, default } => {
                counts.branches += 1;
                let v = regs[base + sel as usize];
                let t = if v >= 0 && (v as u64) < u64::from(tab_len) {
                    cur.switch_targets[tab_start as usize + v as usize]
                } else {
                    default
                };
                transfer!(t);
            }
            Op::RetR { src } => {
                let ret = regs[base + src as usize];
                ret_transfer!(frames, regs, base, cur, cur_proc, pc, dp, sink, Some(ret), {
                    return_value = Some(ret);
                    break;
                });
            }
            Op::RetI { imm } => {
                ret_transfer!(frames, regs, base, cur, cur_proc, pc, dp, sink, Some(imm), {
                    return_value = Some(imm);
                    break;
                });
            }
            Op::RetNone => {
                ret_transfer!(frames, regs, base, cur, cur_proc, pc, dp, sink, None, {
                    break;
                });
            }
        }
    }

    Ok(BoundedRun {
        result: ExecResult { output, return_value, counts, memory },
        completed: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::{AluOp, Operand};

    fn sum_to(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let s = f.reg();
        let i = f.reg();
        let c = f.reg();
        f.mov(s, 0i64);
        f.mov(i, 0i64);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, body, exit);
        f.switch_to(body);
        f.alu(AluOp::Add, s, Operand::Reg(s), Operand::Reg(i));
        f.alu(AluOp::Add, i, Operand::Reg(i), Operand::Imm(1));
        f.jump(head);
        f.switch_to(exit);
        f.out(Operand::Reg(s));
        f.ret(Some(Operand::Reg(s)));
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn engines_agree_on_a_loop() {
        let p = sum_to(10);
        let fast = Exec::with_engine(&p, ExecConfig::default(), Engine::Fast)
            .run(&[])
            .unwrap();
        let reference = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(fast, reference);
        assert_eq!(fast.return_value, Some(45));
    }

    #[test]
    fn engines_agree_on_truncation_points() {
        let p = sum_to(1000);
        for budget in [0u64, 1, 2, 3, 7, 20, 100] {
            let cfg = ExecConfig { max_instrs: budget, ..ExecConfig::default() };
            let fast = Exec::with_engine(&p, cfg, Engine::Fast).run_bounded(&[]).unwrap();
            let reference = Interp::new(&p, cfg).run_bounded(&[]).unwrap();
            assert_eq!(fast, reference, "budget {budget}");
        }
    }

    #[test]
    fn with_engine_scopes_and_restores() {
        assert_eq!(current_engine(), Engine::Fast);
        with_engine(Engine::Reference, || {
            assert_eq!(current_engine(), Engine::Reference);
            with_engine(Engine::Fast, || assert_eq!(current_engine(), Engine::Fast));
            assert_eq!(current_engine(), Engine::Reference);
        });
        assert_eq!(current_engine(), Engine::Fast);
        let p = sum_to(3);
        let e = with_engine(Engine::Reference, || Exec::new(&p, ExecConfig::default()).engine());
        assert_eq!(e, Engine::Reference);
    }
}
