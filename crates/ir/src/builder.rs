//! Ergonomic construction of programs, procedures, and CFGs.
//!
//! [`ProgramBuilder`] collects procedures; [`FuncBuilder`] builds one
//! procedure's CFG with a "current block" cursor. Blocks may be created ahead
//! of time (forward references) with [`FuncBuilder::new_block`] and filled in
//! later via [`FuncBuilder::switch_to`].
//!
//! ```
//! use pps_ir::builder::ProgramBuilder;
//! use pps_ir::{AluOp, Operand, Reg};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.begin_proc("abs", 1);
//! let x = Reg::new(0);
//! let neg = f.new_block();
//! let pos = f.new_block();
//! let c = f.reg();
//! f.alu(AluOp::CmpLt, c, Operand::Reg(x), Operand::Imm(0));
//! f.branch(c, neg, pos);
//! f.switch_to(neg);
//! let y = f.reg();
//! f.alu(AluOp::Sub, y, Operand::Imm(0), Operand::Reg(x));
//! f.ret(Some(Operand::Reg(y)));
//! f.switch_to(pos);
//! f.ret(Some(Operand::Reg(x)));
//! let abs = f.finish();
//! let program = pb.finish(abs);
//! assert_eq!(program.procs.len(), 1);
//! ```

use crate::instr::{AluOp, Instr, Operand, Terminator};
use crate::proc::{Block, BlockId, Proc, Reg};
use crate::program::{ProcId, Program};

/// Default memory size for built programs, in 64-bit words (1 MiB).
pub const DEFAULT_MEM_WORDS: usize = 1 << 17;

/// Builder for a whole [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    procs: Vec<Option<Proc>>,
    names: Vec<String>,
    mem_size: usize,
    data: Vec<i64>,
}

impl ProgramBuilder {
    /// Creates an empty builder with the default memory size.
    pub fn new() -> Self {
        ProgramBuilder {
            procs: Vec::new(),
            names: Vec::new(),
            mem_size: DEFAULT_MEM_WORDS,
            data: Vec::new(),
        }
    }

    /// Sets the memory size (words) and initial data section.
    ///
    /// # Panics
    /// Panics if `data.len() > mem_size`.
    pub fn set_memory(&mut self, mem_size: usize, data: Vec<i64>) -> &mut Self {
        assert!(data.len() <= mem_size, "data exceeds memory size");
        self.mem_size = mem_size;
        self.data = data;
        self
    }

    /// Declares a procedure (fixing its id and arity) without defining its
    /// body yet. Enables mutual recursion and forward calls.
    pub fn declare_proc(&mut self, name: impl Into<String>, num_params: u32) -> ProcId {
        let id = ProcId::new(self.procs.len() as u32);
        let name = name.into();
        self.names.push(name.clone());
        let mut p = Proc::new(name, num_params);
        p.reg_count = num_params;
        self.procs.push(Some(p));
        id
    }

    /// Declares a procedure and immediately begins building its body.
    pub fn begin_proc(&mut self, name: impl Into<String>, num_params: u32) -> FuncBuilder<'_> {
        let id = self.declare_proc(name, num_params);
        self.begin_declared(id)
    }

    /// Begins building the body of a previously declared procedure.
    ///
    /// # Panics
    /// Panics if the procedure is currently being built or was never
    /// declared.
    pub fn begin_declared(&mut self, id: ProcId) -> FuncBuilder<'_> {
        let mut proc = self.procs[id.index()]
            .take()
            .expect("procedure already being built");
        // Create the entry block eagerly.
        let entry = proc.push_block(Block::new(Vec::new(), Terminator::Return { value: None }));
        proc.entry = entry;
        FuncBuilder {
            parent: self,
            id,
            proc,
            current: entry,
            pending: Vec::new(),
            closed: vec![false],
        }
    }

    /// Parameter count of a declared procedure.
    pub fn arity(&self, id: ProcId) -> u32 {
        self.procs[id.index()]
            .as_ref()
            .map(|p| p.num_params)
            .unwrap_or_else(|| panic!("procedure {id} is being built"))
    }

    /// Finalizes the program with `entry` as the entry procedure.
    ///
    /// # Panics
    /// Panics if any declared procedure was never defined (has no blocks).
    pub fn finish(self, entry: ProcId) -> Program {
        let procs: Vec<Proc> = self
            .procs
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let p = p.unwrap_or_else(|| panic!("procedure {i} still being built"));
                assert!(
                    !p.blocks.is_empty(),
                    "procedure `{}` declared but never defined",
                    p.name
                );
                p
            })
            .collect();
        Program::new(procs, entry, self.mem_size, self.data)
    }
}

/// Builder for one procedure's CFG.
///
/// Instruction methods append to the *current block*; terminator methods
/// ([`jump`](Self::jump), [`branch`](Self::branch), [`switch`](Self::switch),
/// [`ret`](Self::ret)) close it. After closing a block, select the next one
/// with [`switch_to`](Self::switch_to).
#[derive(Debug)]
pub struct FuncBuilder<'a> {
    parent: &'a mut ProgramBuilder,
    id: ProcId,
    proc: Proc,
    current: BlockId,
    pending: Vec<Instr>,
    closed: Vec<bool>,
}

impl FuncBuilder<'_> {
    /// Id of the procedure being built.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Entry block of the procedure.
    pub fn entry(&self) -> BlockId {
        self.proc.entry
    }

    /// Allocates a fresh register.
    pub fn reg(&mut self) -> Reg {
        self.proc.fresh_reg()
    }

    /// Creates an empty, not-yet-closed block for later filling.
    pub fn new_block(&mut self) -> BlockId {
        let id = self
            .proc
            .push_block(Block::new(Vec::new(), Terminator::Return { value: None }));
        self.closed.push(false);
        id
    }

    /// Moves the cursor to `block` so subsequent instructions append there.
    ///
    /// # Panics
    /// Panics if the current block has pending instructions but no
    /// terminator yet, or if `block` was already closed.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            self.pending.is_empty(),
            "block {} has pending instructions but no terminator",
            self.current
        );
        assert!(
            !self.closed[block.index()],
            "block {block} was already terminated"
        );
        self.current = block;
    }

    /// Appends an ALU instruction.
    pub fn alu(&mut self, op: AluOp, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.push(Instr::Alu { op, dst, lhs: lhs.into(), rhs: rhs.into() });
    }

    /// Appends a move.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.push(Instr::Mov { dst, src: src.into() });
    }

    /// Appends a (normal, excepting) load.
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64) {
        self.push(Instr::Load { dst, base, offset, speculative: false });
    }

    /// Appends a speculative (non-excepting) load.
    pub fn load_spec(&mut self, dst: Reg, base: Reg, offset: i64) {
        self.push(Instr::Load { dst, base, offset, speculative: true });
    }

    /// Appends a store.
    pub fn store(&mut self, src: impl Into<Operand>, base: Reg, offset: i64) {
        self.push(Instr::Store { src: src.into(), base, offset });
    }

    /// Appends a call.
    pub fn call(&mut self, callee: ProcId, args: Vec<Operand>, dst: Option<Reg>) {
        self.push(Instr::Call { callee, args, dst });
    }

    /// Appends an output instruction.
    pub fn out(&mut self, src: impl Into<Operand>) {
        self.push(Instr::Out { src: src.into() });
    }

    /// Appends a no-op.
    pub fn nop(&mut self) {
        self.push(Instr::Nop);
    }

    /// Appends an arbitrary instruction.
    pub fn push(&mut self, instr: Instr) {
        assert!(
            !self.closed[self.current.index()],
            "appending to closed block {}",
            self.current
        );
        self.pending.push(instr);
    }

    /// Closes the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.close(Terminator::Jump { target });
    }

    /// Closes the current block with a conditional branch.
    pub fn branch(&mut self, cond: Reg, taken: BlockId, not_taken: BlockId) {
        self.close(Terminator::Branch { cond, taken, not_taken });
    }

    /// Closes the current block with a multiway branch.
    pub fn switch(&mut self, sel: Reg, targets: Vec<BlockId>, default: BlockId) {
        self.close(Terminator::Switch { sel, targets, default });
    }

    /// Closes the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.close(Terminator::Return { value });
    }

    /// Closes the current block with an arbitrary terminator.
    pub fn close(&mut self, term: Terminator) {
        let idx = self.current.index();
        assert!(!self.closed[idx], "block {} terminated twice", self.current);
        let block = &mut self.proc.blocks[idx];
        block.instrs = std::mem::take(&mut self.pending);
        block.term = term;
        self.closed[idx] = true;
    }

    /// Finishes the procedure, depositing it into the parent builder.
    ///
    /// # Panics
    /// Panics if any created block was never terminated.
    pub fn finish(self) -> ProcId {
        assert!(self.pending.is_empty(), "current block not terminated");
        for (i, closed) in self.closed.iter().enumerate() {
            assert!(*closed, "block b{i} of `{}` never terminated", self.proc.name);
        }
        let slot = &mut self.parent.procs[self.id.index()];
        debug_assert!(slot.is_none());
        *slot = Some(self.proc);
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ExecConfig, Interp};

    #[test]
    fn forward_reference_blocks() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let later = f.new_block();
        f.jump(later);
        f.switch_to(later);
        f.out(Operand::Imm(9));
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);
        let r = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(r.output, vec![9]);
    }

    #[test]
    #[should_panic(expected = "never terminated")]
    fn unterminated_block_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let dangling = f.new_block();
        let _ = dangling;
        f.ret(None);
        f.finish();
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        f.ret(None);
        f.ret(None);
    }

    #[test]
    fn mutual_recursion_via_declare() {
        // even(n) = n == 0 ? 1 : odd(n-1); odd(n) = n == 0 ? 0 : even(n-1)
        let mut pb = ProgramBuilder::new();
        let even = pb.declare_proc("even", 1);
        let odd = pb.declare_proc("odd", 1);
        for (me, other, base_val) in [(even, odd, 1i64), (odd, even, 0i64)] {
            let mut f = pb.begin_declared(me);
            let n = Reg::new(0);
            let c = f.reg();
            let bb = f.new_block();
            let rb = f.new_block();
            f.alu(AluOp::CmpEq, c, n, 0i64);
            f.branch(c, bb, rb);
            f.switch_to(bb);
            f.ret(Some(Operand::Imm(base_val)));
            f.switch_to(rb);
            let m = f.reg();
            let res = f.reg();
            f.alu(AluOp::Sub, m, n, 1i64);
            f.call(other, vec![Operand::Reg(m)], Some(res));
            f.ret(Some(Operand::Reg(res)));
            f.finish();
        }
        let mut f = pb.begin_proc("main", 1);
        let r = f.reg();
        f.call(even, vec![Operand::Reg(Reg::new(0))], Some(r));
        f.ret(Some(Operand::Reg(r)));
        let main = f.finish();
        let p = pb.finish(main);
        let interp = Interp::new(&p, ExecConfig::default());
        assert_eq!(interp.run(&[10]).unwrap().return_value, Some(1));
        assert_eq!(interp.run(&[7]).unwrap().return_value, Some(0));
    }

    #[test]
    fn memory_configuration() {
        let mut pb = ProgramBuilder::new();
        pb.set_memory(16, vec![5, 6]);
        let mut f = pb.begin_proc("main", 0);
        let a = f.reg();
        let v = f.reg();
        f.mov(a, 1i64);
        f.load(v, a, 0);
        f.out(v);
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);
        assert_eq!(p.mem_size, 16);
        let r = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        assert_eq!(r.output, vec![6]);
    }
}
