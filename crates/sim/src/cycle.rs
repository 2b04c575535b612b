//! Cycle accounting over a dynamic execution of the transformed program.
//!
//! [`CycleSim`] is a [`TraceSink`]: the execution engine ([`pps_ir::Exec`],
//! the fast engine unless `PPS_ENGINE=reference` selects the reference
//! interpreter) reports every block entry, and the sink maps blocks to
//! `(superblock, position)` pairs.
//! Advancing to the next position of the same superblock is free (those
//! cycles are inside the schedule); any other transfer *leaves* the current
//! superblock through the terminator at its current position and charges
//! `exit cycle + 1` cycles — exactly the paper's model where the compactor
//! minimizes the cycle count to each exit.

use crate::icache::DirectMappedICache;
use crate::layout::Layout;
use crate::metrics::SbDynStats;
use crate::SimOutcome;
use pps_compact::CompactedProgram;
use pps_ir::interp::ExecResult;
use pps_ir::{BlockId, ProcId, TraceSink};
use pps_machine::MachineConfig;

/// One procedure's transition counts: an open-addressed table of
/// `(from << 32 | to, count)` slots, Fibonacci-hashed with linear probing
/// and kept at most half full. It holds only the transitions taken, so its
/// size is O(distinct transitions) however many superblocks the procedure
/// has, and a record is one multiply and, almost always, one probe.
#[derive(Debug, Clone)]
struct EdgeTable {
    /// Superblock count of the procedure.
    n: u32,
    /// `(key, count)`; [`EMPTY`] keys mark free slots.
    slots: Vec<(u64, u64)>,
    len: usize,
}

/// A key no transition packs to: `to < n <= u32::MAX`.
const EMPTY: u64 = u64::MAX;

impl EdgeTable {
    fn slot(key: u64, mask: usize) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the high bits.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
    }

    fn bump(&mut self, key: u64, count: u64) {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::slot(key, mask);
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == key {
                slot.1 += count;
                return;
            }
            if slot.0 == EMPTY {
                *slot = (key, count);
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0); cap]);
        for (key, count) in old.into_iter().filter(|&(key, _)| key != EMPTY) {
            let mut i = Self::slot(key, cap - 1);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = (key, count);
        }
    }

    fn edges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots.iter().copied().filter(|&(key, _)| key != EMPTY)
    }
}

/// Inter-superblock transition counts from one run, used to build a
/// [`Layout`].
///
/// Storage is sparse: one hashed table per procedure holding the
/// transitions actually taken. Memory and time are O(superblocks +
/// distinct transitions), never O(superblocks²) — path-based enlargement
/// grows procedures to thousands of superblocks while the transitions
/// taken stay few. [`record`](Self::record) hashes with one multiply (no
/// SipHash); [`iter_proc`](Self::iter_proc) sorts, so edges come out
/// row-major whatever order they were recorded in (and hence
/// independently of `--jobs` scheduling).
#[derive(Debug, Clone)]
pub struct Transitions {
    /// Per procedure: the `(from, to)` transition counts.
    per_proc: Vec<EdgeTable>,
    /// Per procedure: entry counts per superblock (first superblock of an
    /// activation, or entered from a call return context).
    entry_counts: Vec<Vec<u64>>,
    /// Activation counts per procedure.
    activation_counts: Vec<u64>,
}

impl Transitions {
    /// Creates empty counters shaped like `compacted`.
    pub fn new(compacted: &CompactedProgram) -> Self {
        Transitions {
            per_proc: compacted
                .procs
                .iter()
                .map(|p| EdgeTable { n: p.superblocks.len() as u32, slots: Vec::new(), len: 0 })
                .collect(),
            entry_counts: compacted
                .procs
                .iter()
                .map(|p| vec![0; p.superblocks.len()])
                .collect(),
            activation_counts: vec![0; compacted.procs.len()],
        }
    }

    /// Records a transition between superblocks of `proc`.
    ///
    /// # Panics
    /// If `from_sb` or `to_sb` is not a superblock of `proc`.
    pub fn record(&mut self, proc: ProcId, from_sb: u32, to_sb: u32) {
        self.record_n(proc, from_sb, to_sb, 1);
    }

    /// Records `count` (non-zero) transitions between superblocks of
    /// `proc`.
    pub(crate) fn record_n(&mut self, proc: ProcId, from_sb: u32, to_sb: u32, count: u64) {
        let table = &mut self.per_proc[proc.index()];
        assert!(
            from_sb < table.n && to_sb < table.n,
            "transition {from_sb} -> {to_sb} out of range"
        );
        table.bump(u64::from(from_sb) << 32 | u64::from(to_sb), count);
    }

    /// Records `count` activations of `proc`, each entering at `sb`.
    pub(crate) fn record_activations(&mut self, proc: ProcId, sb: u32, count: u64) {
        self.activation_counts[proc.index()] += count;
        self.entry_counts[proc.index()][sb as usize] += count;
    }

    /// Records an activation-entry into `sb` of `proc`.
    pub fn record_entry(&mut self, proc: ProcId, sb: u32) {
        self.entry_counts[proc.index()][sb as usize] += 1;
    }

    /// Records an activation of `proc`.
    pub fn record_activation(&mut self, proc: ProcId) {
        self.activation_counts[proc.index()] += 1;
    }

    /// Activation count of `proc`.
    pub fn activations(&self, proc: ProcId) -> u64 {
        self.activation_counts[proc.index()]
    }

    /// Entry count of superblock `sb` of `proc`.
    pub fn entries(&self, proc: ProcId, sb: u32) -> u64 {
        self.entry_counts[proc.index()][sb as usize]
    }

    /// Iterates `( (from, to), count )` over the non-zero edges of `proc`,
    /// in row-major `(from, to)` order — deterministic regardless of the
    /// order transitions were recorded in.
    pub fn iter_proc(&self, proc: ProcId) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        let mut edges: Vec<(u64, u64)> = self.per_proc[proc.index()].edges().collect();
        edges.sort_unstable();
        edges.into_iter().map(|(key, count)| (((key >> 32) as u32, key as u32), count))
    }

    /// Total transition events recorded.
    pub fn total(&self) -> u64 {
        self.per_proc.iter().flat_map(EdgeTable::edges).map(|(_, count)| count).sum()
    }
}

/// One live activation's position within the superblock structure.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    proc: ProcId,
    /// Current `(superblock, position)`, `None` before the first block.
    at: Option<(u32, u32)>,
}

/// The cycle-charging trace sink. See the module docs.
#[derive(Debug)]
pub struct CycleSim<'a> {
    compacted: &'a CompactedProgram,
    layout: Option<&'a Layout>,
    icache: Option<DirectMappedICache>,
    stack: Vec<Cursor>,
    cycles: u64,
    transitions: Transitions,
    sb_stats: SbDynStats,
}

impl<'a> CycleSim<'a> {
    /// Creates a sink charging cycles from `compacted`'s schedules; when
    /// `layout` is given, the instruction cache is simulated too.
    pub fn new(
        compacted: &'a CompactedProgram,
        machine: &MachineConfig,
        layout: Option<&'a Layout>,
    ) -> Self {
        CycleSim {
            compacted,
            layout,
            icache: layout.map(|_| DirectMappedICache::new(machine.icache)),
            stack: Vec::new(),
            cycles: 0,
            transitions: Transitions::new(compacted),
            sb_stats: SbDynStats::default(),
        }
    }

    fn leave(&mut self, proc: ProcId, sb: u32, pos: u32) {
        let scheduled = &self.compacted.proc(proc).superblocks[sb as usize];
        let sched = &scheduled.schedule;
        self.cycles += sched.cost_of_exit(pos as usize);
        self.sb_stats.record(pos + 1, scheduled.spec.len() as u32);
        if let (Some(layout), Some(icache)) = (self.layout, self.icache.as_mut()) {
            let base = layout.base(proc, sb);
            // Batched: consecutive leaves walking the layout contiguously
            // (the hot-chain case the layout is built for) merge into one
            // tag-array pass.
            icache.fetch_batched(base, sched.fetch_of_exit(pos as usize));
        }
    }

    /// Consumes the sink, producing the run outcome.
    pub fn finish(mut self, exec: ExecResult) -> SimOutcome {
        debug_assert!(self.stack.is_empty(), "all activations closed");
        if let Some(icache) = self.icache.as_mut() {
            icache.flush();
        }
        SimOutcome {
            exec,
            cycles: self.cycles,
            icache: self.icache.map(|c| c.stats()),
            transitions: self.transitions,
            sb_stats: self.sb_stats,
        }
    }
}

impl TraceSink for CycleSim<'_> {
    fn enter_proc(&mut self, proc: ProcId) {
        self.stack.push(Cursor { proc, at: None });
        self.transitions.record_activation(proc);
    }

    fn exit_proc(&mut self, proc: ProcId) {
        let cur = self.stack.pop().expect("activation open");
        debug_assert_eq!(cur.proc, proc);
        if let Some((sb, pos)) = cur.at {
            self.leave(proc, sb, pos);
        }
    }

    fn block(&mut self, proc: ProcId, block: BlockId) {
        let (sb, pos) = self
            .compacted
            .proc(proc)
            .location(block)
            .unwrap_or_else(|| panic!("executed block {block} of {proc} not in any superblock"));
        let cur = self.stack.last_mut().expect("activation open");
        debug_assert_eq!(cur.proc, proc);
        match cur.at {
            Some((csb, cpos)) if csb == sb && pos == cpos + 1 => {
                // Internal fall-through: inside the schedule, free.
                cur.at = Some((sb, pos));
            }
            prev => {
                debug_assert_eq!(pos, 0, "inter-superblock transfers target heads");
                if let Some((psb, ppos)) = prev {
                    self.leave(proc, psb, ppos);
                    self.transitions.record(proc, psb, sb);
                } else {
                    self.transitions.record_entry(proc, sb);
                }
                let cur = self.stack.last_mut().expect("activation open");
                cur.at = Some((sb, pos));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_programs::chain_program;
    use crate::simulate;
    use pps_compact::{compact_program, singleton_partition, CompactConfig, SuperblockSpec};
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::{AluOp, Operand, Program, Reg};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    /// Two-block straight-line program compiled as one superblock.
    fn straight2() -> (Program, Vec<Vec<SuperblockSpec>>) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let a = f.reg();
        let nxt = f.new_block();
        f.mov(a, 1i64);
        f.jump(nxt);
        f.switch_to(nxt);
        f.out(a);
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);
        let part = vec![vec![SuperblockSpec::new(vec![BlockId::new(0), nxt])]];
        (p, part)
    }

    #[test]
    fn internal_fallthrough_is_free() {
        let (mut p, part) = straight2();
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let m = MachineConfig::paper();
        let out = simulate(&p, &compacted, &m, None, &[]).unwrap();
        // One superblock traversal. Move renaming forwards the constant
        // into `out`, so mov/out/ret all pack into cycle 0: 1 cycle.
        assert_eq!(out.cycles, 1);
        assert_eq!(out.sb_stats.traversals, 1);
        assert_eq!(out.sb_stats.blocks_executed, 2);
        assert_eq!(out.sb_stats.size_blocks, 2);

        // Without move renaming the true dependence chain costs 2 cycles:
        // mov@0 (jump elided), out@1, ret@1.
        let (mut p2, part2) = straight2();
        let cfg = CompactConfig { move_renaming: false, ..Default::default() };
        let compacted2 = compact_program(&mut p2, &part2, &cfg);
        let out2 = simulate(&p2, &compacted2, &m, None, &[]).unwrap();
        assert_eq!(out2.cycles, 2);
    }

    #[test]
    fn early_exit_charges_exit_cycle() {
        // superblock [b0, fall]: the branch exit costs fewer cycles than
        // completion.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let fall = f.new_block();
        let off = f.new_block();
        let a = f.reg();
        f.mov(a, 1i64);
        f.branch(Reg::new(0), off, fall);
        f.switch_to(fall);
        f.out(a);
        let b = f.reg();
        f.alu(AluOp::Add, b, a, 1i64);
        f.out(b);
        f.ret(None);
        f.switch_to(off);
        f.ret(None);
        let main = f.finish();
        let mut p = pb.finish(main);
        let part = vec![vec![
            SuperblockSpec::new(vec![BlockId::new(0), fall]),
            SuperblockSpec::singleton(off),
        ]];
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let m = MachineConfig::paper();
        let taken = simulate(&p, &compacted, &m, None, &[1]).unwrap();
        let fell = simulate(&p, &compacted, &m, None, &[0]).unwrap();
        assert!(taken.cycles < fell.cycles, "early exit cheaper than completion");
        // Early-exit traversal executed 1 of 2 blocks, plus the off
        // singleton (1 of 1).
        assert_eq!(taken.sb_stats.traversals, 2);
        assert_eq!(taken.sb_stats.blocks_executed, 2);
        assert_eq!(taken.sb_stats.size_blocks, 3);
    }

    #[test]
    fn calls_do_not_break_caller_superblock() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare_proc("f", 0);
        let mut g = pb.begin_declared(callee);
        g.ret(Some(Operand::Imm(7)));
        g.finish();
        let mut f = pb.begin_proc("main", 0);
        let r = f.reg();
        let nxt = f.new_block();
        f.call(callee, vec![], Some(r));
        f.jump(nxt);
        f.switch_to(nxt);
        f.out(r);
        f.ret(None);
        let main = f.finish();
        let mut p = pb.finish(main);
        let part = vec![
            vec![SuperblockSpec::singleton(BlockId::new(0))],
            vec![SuperblockSpec::new(vec![BlockId::new(0), nxt])],
        ];
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let m = MachineConfig::paper();
        let out = simulate(&p, &compacted, &m, None, &[]).unwrap();
        assert_eq!(out.exec.output, vec![7]);
        // Two traversals: callee singleton + caller superblock (the call
        // does not end the caller's traversal).
        assert_eq!(out.sb_stats.traversals, 2);
        assert_eq!(out.sb_stats.blocks_executed, 3);
    }

    #[test]
    fn transitions_track_superblock_flow() {
        let (mut p, _) = straight2();
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let m = MachineConfig::paper();
        let out = simulate(&p, &compacted, &m, None, &[]).unwrap();
        let pid = p.entry;
        assert_eq!(out.transitions.activations(pid), 1);
        // b0-singleton -> nxt-singleton transition recorded once.
        assert_eq!(out.transitions.total(), 1);
        let (sb0, _) = compacted.proc(pid).location(BlockId::new(0)).unwrap();
        assert_eq!(out.transitions.entries(pid, sb0), 1);
    }

    #[test]
    fn transition_iteration_is_row_major_regardless_of_record_order() {
        let (mut p, _) = straight2();
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let pid = p.entry;
        let mut a = Transitions::new(&compacted);
        a.record(pid, 1, 0);
        a.record(pid, 0, 1);
        a.record(pid, 0, 1);
        let mut b = Transitions::new(&compacted);
        b.record(pid, 0, 1);
        b.record(pid, 1, 0);
        b.record(pid, 0, 1);
        let ea: Vec<_> = a.iter_proc(pid).collect();
        let eb: Vec<_> = b.iter_proc(pid).collect();
        assert_eq!(ea, eb, "edge order is a function of the counts alone");
        assert_eq!(ea, vec![((0, 1), 2), ((1, 0), 1)]);
        assert_eq!(a.total(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The sparse table answers every query exactly as a naive map of
        /// every recorded event does, whatever the superblock counts and
        /// the record order.
        #[test]
        fn transitions_match_a_naive_map(seed in 0u64..1_000_000, n_procs in 1usize..5) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Small procedures make repeated transitions common; large
            // ones spread the keys and grow the table several times.
            let max_sbs = [1, 3, 16, 200][rng.gen_range(0..4usize)];
            let sizes: Vec<usize> = (0..n_procs).map(|_| rng.gen_range(1..=max_sbs)).collect();
            let (_, compacted) = chain_program(&sizes);
            let sbs: Vec<u32> =
                compacted.procs.iter().map(|p| p.superblocks.len() as u32).collect();

            let mut table = Transitions::new(&compacted);
            let mut edges: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
            let mut entries: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            let mut activations: BTreeMap<u32, u64> = BTreeMap::new();
            for _ in 0..rng.gen_range(0..500usize) {
                let pi = rng.gen_range(0..n_procs as u32);
                let pid = ProcId::new(pi);
                let n = sbs[pi as usize];
                match rng.gen_range(0..4u32) {
                    0 => {
                        let sb = rng.gen_range(0..n);
                        table.record_entry(pid, sb);
                        *entries.entry((pi, sb)).or_default() += 1;
                    }
                    1 => {
                        table.record_activation(pid);
                        *activations.entry(pi).or_default() += 1;
                    }
                    _ => {
                        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        table.record(pid, from, to);
                        *edges.entry((pi, from, to)).or_default() += 1;
                    }
                }
            }

            for (pi, &n) in sbs.iter().enumerate() {
                let pi = pi as u32;
                let pid = ProcId::new(pi);
                let got: Vec<_> = table.iter_proc(pid).collect();
                let want: Vec<_> = edges
                    .range((pi, 0, 0)..=(pi, u32::MAX, u32::MAX))
                    .map(|(&(_, from, to), &c)| ((from, to), c))
                    .collect();
                prop_assert_eq!(got, want, "row-major edges of proc {}", pi);
                prop_assert_eq!(table.activations(pid), activations.get(&pi).copied().unwrap_or(0));
                for sb in 0..n {
                    prop_assert_eq!(table.entries(pid, sb), entries.get(&(pi, sb)).copied().unwrap_or(0));
                }
            }
            prop_assert_eq!(table.total(), edges.values().sum::<u64>());
        }
    }

    /// One procedure of 40,000 superblocks: a dense table would be
    /// 40,000² counters (12.8 GB). Simulation and layout cost only the
    /// transitions taken.
    #[test]
    fn wide_procedure_simulates_and_lays_out_in_linear_space() {
        const N: usize = 40_000;
        let (p, compacted) = chain_program(&[N]);
        let pid = p.entry;
        assert_eq!(compacted.proc(pid).superblocks.len(), N);
        let m = MachineConfig::paper();

        let train = simulate(&p, &compacted, &m, None, &[]).unwrap();
        assert_eq!(train.transitions.total(), N as u64 - 1);
        assert_eq!(train.transitions.iter_proc(pid).count(), N - 1);
        assert_eq!(train.transitions.entries(pid, 0), 1);

        // The chain is one hot fall-through chain, laid out in order.
        let layout = Layout::build(&p, &compacted, &train.transitions, &m);
        let mut cursor = 0;
        for b in 0..N {
            let (sb, _) = compacted.proc(pid).location(BlockId::new(b as u32)).unwrap();
            assert_eq!(layout.base(pid, sb), cursor, "block {b} follows its predecessor");
            cursor += u64::from(compacted.proc(pid).superblocks[sb as usize].schedule.n_items)
                * m.icache.instr_bytes as u64;
        }
        assert_eq!(cursor, layout.total_bytes());

        let measured = simulate(&p, &compacted, &m, Some(&layout), &[]).unwrap();
        assert_eq!(measured.cycles, train.cycles, "layout changes fetch, not schedules");
        assert!(measured.icache.expect("icache simulated").accesses > 0);
    }
}
