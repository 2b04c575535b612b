//! Per-procedure compilation units.
//!
//! A [`CompileUnit`] is one procedure detached from its [`Program`]
//! together with its memoized analyses ([`UnitCache`]). Formation passes
//! operate on the unit: mutators go through [`CompileUnit::proc_mut`] (the
//! procedure's mutation generation invalidates the cache automatically),
//! and queries go through [`CompileUnit::analysis`] / [`CompileUnit::cfg`],
//! which recompute only when the body has actually changed since the last
//! query.

use pps_ir::analysis::{Cfg, ProcAnalysis};
use pps_ir::cache::UnitCache;
use pps_ir::{Proc, ProcId, Program};
use std::sync::Arc;

/// One procedure checked out of a program for formation, carrying its
/// analysis memos.
#[derive(Debug)]
pub(crate) struct CompileUnit {
    pid: ProcId,
    proc: Proc,
    cache: UnitCache,
}

impl CompileUnit {
    /// Checks procedure `pid` out of `program`, leaving an empty shell in
    /// its slot. The caller must [`reattach`](Self::reattach) (or restore a
    /// snapshot) before the program is executed or verified again.
    pub fn detach(program: &mut Program, pid: ProcId) -> CompileUnit {
        let proc = std::mem::replace(program.proc_mut(pid), Proc::new(String::new(), 0));
        CompileUnit { pid, proc, cache: UnitCache::new() }
    }

    /// Returns the procedure to its slot in `program`.
    ///
    /// # Panics
    /// Panics if `program` does not have the unit's procedure id.
    pub fn reattach(self, program: &mut Program) {
        *program.proc_mut(self.pid) = self.proc;
    }

    /// The procedure's id in its program.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Shared access to the procedure.
    pub fn proc(&self) -> &Proc {
        &self.proc
    }

    /// Mutable access to the procedure. Mutation bumps the procedure's
    /// generation, which invalidates the unit's cached analyses on the
    /// next query — no manual invalidation needed.
    pub fn proc_mut(&mut self) -> &mut Proc {
        &mut self.proc
    }

    /// The memoized CFG of the current body.
    pub fn cfg(&mut self) -> Arc<Cfg> {
        self.cache.cfg(&self.proc)
    }

    /// The memoized analysis bundle (CFG + dominators + loops) of the
    /// current body.
    pub fn analysis(&mut self) -> Arc<ProcAnalysis> {
        self.cache.analysis(&self.proc)
    }

    /// `(hits, misses)` of the unit's analysis cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::instr::Terminator;
    use pps_ir::Block;

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let next = f.new_block();
        f.jump(next);
        f.switch_to(next);
        f.ret(None);
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn detach_reattach_round_trips() {
        let mut p = program();
        let original = p.proc(p.entry).clone();
        let unit = { let entry = p.entry; CompileUnit::detach(&mut p, entry) };
        assert_eq!(p.proc(p.entry).blocks.len(), 0, "shell left behind");
        unit.reattach(&mut p);
        assert_eq!(*p.proc(p.entry), original);
    }

    #[test]
    fn mutation_through_unit_invalidates_cache() {
        let mut p = program();
        let mut unit = { let entry = p.entry; CompileUnit::detach(&mut p, entry) };
        let a1 = unit.analysis();
        let a2 = unit.analysis();
        assert!(Arc::ptr_eq(&a1, &a2));
        unit.proc_mut()
            .push_block(Block::new(vec![], Terminator::Return { value: None }));
        let a3 = unit.analysis();
        assert_eq!(a3.cfg.len(), 3);
        assert_eq!(a1.cfg.len(), 2, "held Arc still describes the old body");
        let (hits, misses) = unit.cache_stats();
        assert_eq!((hits, misses), (1, 2));
        unit.reattach(&mut p);
    }
}
