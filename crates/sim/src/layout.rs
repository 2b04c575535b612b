//! Pettis–Hansen-style code layout.
//!
//! The paper's compiler runs a Pettis & Hansen procedure-placement
//! optimization before measuring the instruction cache. We implement the
//! chain-merging variant at superblock granularity: within each procedure,
//! superblocks that frequently transfer to one another are chained so hot
//! fall-throughs stay adjacent; procedures are then ordered by activation
//! count (hottest first, entry procedure leading).

use crate::cycle::Transitions;
use pps_compact::CompactedProgram;
use pps_ir::{ProcId, Program};
use pps_machine::MachineConfig;

/// Base byte address per superblock.
#[derive(Debug, Clone)]
pub struct Layout {
    /// `addr[proc][sb]` — base address of that superblock's code.
    addr: Vec<Vec<u64>>,
    /// Total laid-out size in bytes.
    total_bytes: u64,
}

impl Layout {
    /// Base address of superblock `sb` of `proc`.
    pub fn base(&self, proc: ProcId, sb: u32) -> u64 {
        self.addr[proc.index()][sb as usize]
    }

    /// Total code size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Builds a layout from training-run transition counts.
    ///
    /// Superblocks within a procedure are chained greedily by descending
    /// transition weight (Pettis–Hansen chain merging); chains are emitted
    /// hottest-first with the entry superblock's chain leading. Procedures
    /// are ordered by activation count, the program entry first.
    pub fn build(
        program: &Program,
        compacted: &CompactedProgram,
        transitions: &Transitions,
        machine: &MachineConfig,
    ) -> Layout {
        let ib = machine.icache.instr_bytes as u64;
        let mut addr: Vec<Vec<u64>> = compacted
            .procs
            .iter()
            .map(|p| vec![0u64; p.superblocks.len()])
            .collect();

        // Procedure order: entry first, then by activation count.
        let mut proc_order: Vec<usize> = (0..program.procs.len()).collect();
        proc_order.sort_by_key(|&pi| {
            let pid = ProcId::new(pi as u32);
            let is_entry = pid == program.entry;
            (
                std::cmp::Reverse(u64::from(is_entry)),
                std::cmp::Reverse(transitions.activations(pid)),
                pi,
            )
        });

        let mut cursor: u64 = 0;
        for pi in proc_order {
            let pid = ProcId::new(pi as u32);
            let cp = &compacted.procs[pi];
            let n = cp.superblocks.len();
            if n == 0 {
                continue;
            }

            // Chain merging. A chain is named by its head superblock and
            // linked through `next`; appending chain `b` to the chain
            // ending in `a` is O(1), so the whole pass is linear in the
            // superblocks plus the edges taken.
            let mut next: Vec<Option<usize>> = vec![None; n];
            let mut is_head = vec![true; n];
            // `tail[c]`: last superblock of chain `c`; `ends[sb]`: the
            // chain `sb` is the last superblock of, if any.
            let mut tail: Vec<usize> = (0..n).collect();
            let mut ends: Vec<Option<usize>> = (0..n).map(Some).collect();
            let mut weight: Vec<u64> = (0..n)
                .map(|i| transitions.entries(pid, i as u32))
                .collect();
            let mut edges: Vec<(u64, u32, u32)> = transitions
                .iter_proc(pid)
                .map(|((a, b), w)| (w, a, b))
                .collect();
            edges.sort_by(|x, y| y.cmp(x));
            for (w, a, b) in edges {
                let (a, b) = (a as usize, b as usize);
                if a >= n || b >= n {
                    continue;
                }
                // Merge only tail-of(ca) == a with head-of(cb) == b.
                let Some(ca) = ends[a] else { continue };
                if !is_head[b] || ca == b {
                    continue;
                }
                next[a] = Some(b);
                is_head[b] = false;
                ends[a] = None;
                ends[tail[b]] = Some(ca);
                tail[ca] = tail[b];
                weight[ca] += weight[b] + w;
                weight[b] = 0;
            }
            let members = |c: usize| std::iter::successors(Some(c), |&sb| next[sb]);

            // Entry chain first, then by weight.
            let entry_sb = cp
                .location(program.proc(pid).entry)
                .map(|(sb, _)| sb as usize)
                .unwrap_or(0);
            let mut chain_ids: Vec<usize> = (0..n).filter(|&c| is_head[c]).collect();
            let entry_chain = chain_ids
                .iter()
                .copied()
                .find(|&c| members(c).any(|sb| sb == entry_sb));
            chain_ids.sort_by_key(|&c| {
                (
                    std::cmp::Reverse(u64::from(Some(c) == entry_chain)),
                    std::cmp::Reverse(weight[c]),
                    c,
                )
            });

            for c in chain_ids {
                for sb in members(c) {
                    addr[pi][sb] = cursor;
                    cursor += u64::from(cp.superblocks[sb].schedule.n_items) * ib;
                }
            }
        }
        Layout { addr, total_bytes: cursor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_programs::chain_program;
    use pps_compact::{compact_program, singleton_partition, CompactConfig};
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::Reg;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cmp::Reverse;

    /// Reference chain merging: chains are vectors and a merge moves
    /// every superblock of the appended chain (quadratic, but plainly
    /// right). Returns one procedure's superblocks in layout order.
    fn naive_order(tr: &Transitions, pid: ProcId, n: usize, entry_sb: usize) -> Vec<usize> {
        let mut chain_of: Vec<usize> = (0..n).collect();
        let mut chains: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut weight: Vec<u64> = (0..n).map(|i| tr.entries(pid, i as u32)).collect();
        let mut edges: Vec<(u64, u32, u32)> =
            tr.iter_proc(pid).map(|((a, b), w)| (w, a, b)).collect();
        edges.sort_by(|x, y| y.cmp(x));
        for (w, a, b) in edges {
            let (a, b) = (a as usize, b as usize);
            let (ca, cb) = (chain_of[a], chain_of[b]);
            if ca != cb && chains[ca].last() == Some(&a) && chains[cb].first() == Some(&b) {
                let moved = std::mem::take(&mut chains[cb]);
                for &m in &moved {
                    chain_of[m] = ca;
                }
                chains[ca].extend(moved);
                weight[ca] += weight[cb] + w;
                weight[cb] = 0;
            }
        }
        let entry_chain = chain_of[entry_sb];
        let mut ids: Vec<usize> = (0..n).filter(|&c| !chains[c].is_empty()).collect();
        ids.sort_by_key(|&c| (Reverse(u64::from(c == entry_chain)), Reverse(weight[c]), c));
        ids.into_iter().flat_map(|c| chains[c].clone()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Linked chains lay every procedure out exactly as moving vectors
        /// does, over random transition weights.
        #[test]
        fn layout_matches_naive_chain_merging(seed in 0u64..1_000_000, n_procs in 1usize..4) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let max_sbs = [1, 4, 12, 40][rng.gen_range(0..4usize)];
            let sizes: Vec<usize> = (0..n_procs).map(|_| rng.gen_range(1..=max_sbs)).collect();
            let (p, compacted) = chain_program(&sizes);
            let m = MachineConfig::paper();
            let mut tr = Transitions::new(&compacted);
            for (pi, &n) in sizes.iter().enumerate() {
                let pid = ProcId::new(pi as u32);
                let n = n as u32;
                for _ in 0..rng.gen_range(0..4u32) {
                    tr.record_activation(pid);
                    tr.record_entry(pid, rng.gen_range(0..n));
                }
                // Few distinct edges, taken a varying number of times, so
                // weights tie and chains compete for the same heads.
                for _ in 0..rng.gen_range(0..3 * n) {
                    let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    for _ in 0..rng.gen_range(1..4u32) {
                        tr.record(pid, from, to);
                    }
                }
            }

            let layout = Layout::build(&p, &compacted, &tr, &m);
            for (pi, &n) in sizes.iter().enumerate() {
                let pid = ProcId::new(pi as u32);
                let cp = compacted.proc(pid);
                let (entry_sb, _) = cp.location(p.proc(pid).entry).unwrap();
                let mut at = (0..n as u32).map(|sb| layout.base(pid, sb)).min().unwrap();
                for sb in naive_order(&tr, pid, n, entry_sb as usize) {
                    prop_assert_eq!(layout.base(pid, sb as u32), at, "proc {} superblock {}", pi, sb);
                    at += u64::from(cp.superblocks[sb].schedule.n_items) * 4;
                }
            }
        }
    }

    #[test]
    fn hot_successor_laid_out_adjacent() {
        // entry branches to hot/cold; both return.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let hot = f.new_block();
        let cold = f.new_block();
        f.branch(Reg::new(0), hot, cold);
        f.switch_to(hot);
        f.ret(None);
        f.switch_to(cold);
        f.ret(None);
        let main = f.finish();
        let mut p = pb.finish(main);
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let m = MachineConfig::paper();

        // Fake transitions: entry->hot dominates.
        let mut tr = Transitions::new(&compacted);
        let pid = p.entry;
        let (entry_sb, _) = compacted.proc(pid).location(pps_ir::BlockId::new(0)).unwrap();
        let (hot_sb, _) = compacted.proc(pid).location(hot).unwrap();
        let (cold_sb, _) = compacted.proc(pid).location(cold).unwrap();
        tr.record_activation(pid);
        for _ in 0..100 {
            tr.record(pid, entry_sb, hot_sb);
        }
        tr.record(pid, entry_sb, cold_sb);

        let layout = Layout::build(&p, &compacted, &tr, &m);
        let a_entry = layout.base(pid, entry_sb);
        let a_hot = layout.base(pid, hot_sb);
        let a_cold = layout.base(pid, cold_sb);
        let entry_size =
            u64::from(compacted.proc(pid).superblocks[entry_sb as usize].schedule.n_items) * 4;
        assert_eq!(a_hot, a_entry + entry_size, "hot block directly follows entry");
        assert!(a_cold > a_hot, "cold block placed after the hot chain");
        assert!(layout.total_bytes() > 0);
    }

    #[test]
    fn entry_procedure_laid_out_first() {
        // Two procs; helper is hotter by activation count, but the entry
        // procedure must still lead the layout.
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare_proc("helper", 0);
        let mut h = pb.begin_declared(helper);
        h.ret(None);
        h.finish();
        let mut f = pb.begin_proc("main", 0);
        f.call(helper, vec![], None);
        f.ret(None);
        let main = f.finish();
        let mut p = pb.finish(main);
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let m = MachineConfig::paper();
        let mut tr = Transitions::new(&compacted);
        for _ in 0..100 {
            tr.record_activation(helper);
        }
        tr.record_activation(p.entry);
        let layout = Layout::build(&p, &compacted, &tr, &m);
        assert_eq!(layout.base(p.entry, 0), 0, "entry proc at address 0");
        assert!(layout.base(helper, 0) > 0);
    }

    #[test]
    fn layout_is_dense_and_non_overlapping() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let a = f.new_block();
        let b = f.new_block();
        f.branch(Reg::new(0), a, b);
        f.switch_to(a);
        f.ret(None);
        f.switch_to(b);
        f.ret(None);
        let main = f.finish();
        let mut p = pb.finish(main);
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());
        let m = MachineConfig::paper();
        let tr = Transitions::new(&compacted);
        let layout = Layout::build(&p, &compacted, &tr, &m);
        // Collect (base, size) pairs; they must tile [0, total) exactly.
        let pid = p.entry;
        let mut spans: Vec<(u64, u64)> = compacted
            .proc(pid)
            .superblocks
            .iter()
            .enumerate()
            .map(|(i, sb)| (layout.base(pid, i as u32), u64::from(sb.schedule.n_items) * 4))
            .collect();
        spans.sort();
        let mut cursor = 0;
        for (base, size) in spans {
            assert_eq!(base, cursor, "dense, non-overlapping layout");
            cursor += size;
        }
        assert_eq!(cursor, layout.total_bytes());
    }
}
