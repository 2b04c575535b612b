//! Procedures, basic blocks, and their identifiers.

use crate::instr::{Instr, Terminator};
use std::fmt;

/// A virtual/architectural integer register within a procedure.
///
/// Registers are procedure-local; calls copy argument values into the
/// callee's low registers. The machine model caps the register file at 128
/// (`pps-machine`), which the compactor's renamer respects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u32);

impl Reg {
    /// Creates a register id.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Reg(index)
    }

    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a basic block within a procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id.
    #[inline]
    pub const fn new(index: u32) -> Self {
        BlockId(index)
    }

    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A basic block: straight-line instructions closed by a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// Closing control transfer.
    pub term: Terminator,
}

impl Block {
    /// Creates a block with the given body and terminator.
    pub fn new(instrs: Vec<Instr>, term: Terminator) -> Self {
        Block { instrs, term }
    }

    /// Number of instructions including the terminator, i.e. the block's
    /// contribution to static code size.
    pub fn len_with_term(&self) -> usize {
        self.instrs.len() + 1
    }
}

/// A procedure: an entry block plus a control-flow graph of basic blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proc {
    /// Human-readable name (for reports and dot output).
    pub name: String,
    /// Number of parameters; arguments arrive in registers `r0..rN-1`.
    pub num_params: u32,
    /// Number of registers used; all `Reg` indices are below this.
    pub reg_count: u32,
    /// Blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
}

impl Proc {
    /// Creates an empty procedure shell. Blocks must be added before use.
    pub fn new(name: impl Into<String>, num_params: u32) -> Self {
        Proc {
            name: name.into(),
            num_params,
            reg_count: num_params,
            blocks: Vec::new(),
            entry: BlockId::new(0),
        }
    }

    /// Shared access to a block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Appends a block and returns its id.
    pub fn push_block(&mut self, block: Block) -> BlockId {
        let id = BlockId::new(self.blocks.len() as u32);
        self.blocks.push(block);
        id
    }

    /// Allocates a fresh register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg::new(self.reg_count);
        self.reg_count += 1;
        r
    }

    /// Iterates over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::new(i as u32), b))
    }

    /// All block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId::new)
    }

    /// Static instruction count (instructions + terminators).
    pub fn static_size(&self) -> usize {
        self.blocks.iter().map(Block::len_with_term).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Operand, Terminator};

    #[test]
    fn proc_block_management() {
        let mut p = Proc::new("f", 2);
        assert_eq!(p.reg_count, 2);
        let b0 = p.push_block(Block::new(vec![], Terminator::Return { value: None }));
        let b1 = p.push_block(Block::new(
            vec![Instr::Nop],
            Terminator::Jump { target: b0 },
        ));
        assert_eq!(b0.index(), 0);
        assert_eq!(b1.index(), 1);
        assert_eq!(p.block(b1).instrs.len(), 1);
        assert_eq!(p.static_size(), 3);
        let r = p.fresh_reg();
        assert_eq!(r, Reg::new(2));
        assert_eq!(p.reg_count, 3);
    }

    #[test]
    fn block_len_counts_terminator() {
        let b = Block::new(
            vec![Instr::Nop, Instr::Out { src: Operand::Imm(1) }],
            Terminator::Return { value: None },
        );
        assert_eq!(b.len_with_term(), 3);
    }
}
