//! k-iteration Ball–Larus profiler lockdown (the `Pk*` schemes' profile
//! kind).
//!
//! Three layers of evidence:
//!
//! - **Brute-force oracle** — for k = 1, 2, 3 the collector's paths equal
//!   a naive chop of the recorded trace, activation by activation. At
//!   k = 1 the chop is the Ball–Larus forward-path profile, checked on
//!   every suite benchmark, on counted loops and on random programs.
//! - **Canonical text** — serialize → parse → serialize is a fixpoint and
//!   preserves equality.
//! - **Derived view** — the path profile derived for `Pk*` formation
//!   scores only windows some recorded k-path contains.

#[path = "support/kpath_text.rs"]
mod kpath_text;

use kpath_text::kpath_from_text;
use pps::ir::analysis::ProcAnalysis;
use pps::ir::builder::ProgramBuilder;
use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::trace::TeeSink;
use pps::ir::{AluOp, BlockEvent, BlockId, Operand, Program, VecSink};
use pps::profile::serialize::kpath_to_text;
use pps::profile::{KPathProfile, KPathProfiler};
use pps::suite::{all_benchmarks, Scale};
use pps::testgen::{gen_program, GenConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Sorted `(path, count)` list — the order-free view both profilers must
/// agree on.
fn sorted_paths<'a>(
    iter: impl Iterator<Item = (&'a [BlockId], u64)>,
) -> Vec<(Vec<BlockId>, u64)> {
    let mut v: Vec<_> = iter.map(|(p, c)| (p.to_vec(), c)).collect();
    v.sort();
    v
}

/// One traced run of `program` on `args`: the k-path profile and a naive
/// chop of the same trace must hold identical path multisets in every
/// procedure.
fn assert_matches_naive_chop(program: &Program, args: &[i64], k: usize, label: &str) {
    let mut tee = TeeSink::new(VecSink::new(), KPathProfiler::new(program, k));
    Interp::new(program, ExecConfig::default())
        .run_traced(args, &mut tee)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let prof = tee.b.finish();
    let naive = naive_kpaths(program, &tee.a.events, k);
    for pid in program.proc_ids() {
        assert_eq!(
            sorted_paths(prof.iter_paths(pid)),
            sorted_paths(naive[pid.index()].iter().map(|(p, &c)| (p.as_slice(), c))),
            "{label}: k={k} multiset diverges from the naive chop in {pid}"
        );
    }
}

/// Simple counted loop: entry -> head; head -> body|exit; body -> head.
fn counted_loop(n: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.begin_proc("main", 0);
    let i = f.reg();
    let c = f.reg();
    f.mov(i, 0i64);
    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.jump(head);
    f.switch_to(head);
    f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
    f.branch(c, body, exit);
    f.switch_to(body);
    f.alu(AluOp::Add, i, i, 1i64);
    f.jump(head);
    f.switch_to(exit);
    f.ret(None);
    let main = f.finish();
    pb.finish(main)
}

/// The k = 1 profile is the forward-path profile on every suite
/// benchmark (real loop nests, switches and call structures, not just
/// generated CFGs) over the training input, and on counted loops that run
/// their body zero, one and many times.
#[test]
fn k1_matches_forward_profiler_on_every_suite_benchmark() {
    for bench in all_benchmarks(Scale::quick()) {
        assert_matches_naive_chop(&bench.program, &bench.train_args, 1, bench.name);
    }
    for n in [0, 1, 5, 17] {
        assert_matches_naive_chop(&counted_loop(n), &[], 1, &format!("counted loop n = {n}"));
    }
}

/// The k-path profile of one run of `seed`'s generated program.
fn trained(seed: u64, k: usize) -> KPathProfile {
    let program = gen_program(seed, GenConfig::default());
    let mut prof = KPathProfiler::new(&program, k);
    Interp::new(&program, ExecConfig::default()).run_traced(&[], &mut prof).unwrap();
    prof.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn k1_matches_forward_profiler_on_random_programs(seed in 0u64..100_000) {
        let program = gen_program(seed, GenConfig::default());
        assert_matches_naive_chop(&program, &[], 1, &format!("seed {seed}"));
    }

    /// Canonical text is a fixpoint: serialize → parse → serialize yields
    /// the identical bytes and an equal profile.
    #[test]
    fn kpath_text_round_trips(seed in 0u64..100_000, k in 1u32..4) {
        let prof = trained(seed, k as usize);
        let text = kpath_to_text(&prof);
        let reparsed = kpath_from_text(&text).unwrap();
        prop_assert_eq!(&reparsed, &prof);
        prop_assert_eq!(kpath_to_text(&reparsed), text);
    }

    /// The derived path profile never invents transitions: any window the
    /// derivation scores was a substring of some recorded k-path.
    #[test]
    fn derived_windows_are_kpath_substrings(seed in 0u64..50_000, k in 2u32..4) {
        let prof = trained(seed, k as usize);
        let program = gen_program(seed, GenConfig::default());
        let derived = prof.to_path_profile(15);
        for pid in program.proc_ids() {
            for (window, count) in derived.iter_maximal_windows(pid) {
                if count == 0 {
                    continue;
                }
                let witnessed = prof.iter_paths(pid).any(|(path, _)| {
                    path.windows(window.len().min(path.len()))
                        .any(|w| w == window.as_slice())
                });
                prop_assert!(
                    witnessed,
                    "seed {} {:?}: derived window {:?} not a substring of any k-path",
                    seed, pid, window
                );
            }
        }
    }
}

/// The k-path specification, applied naively: splits each activation's
/// block sequence before the block that would be its `k`-th back-edge
/// crossing.
fn naive_kpaths(
    program: &Program,
    events: &[BlockEvent],
    k: usize,
) -> Vec<HashMap<Vec<BlockId>, u64>> {
    let back_edges: Vec<HashSet<(BlockId, BlockId)>> = program
        .procs
        .iter()
        .map(|p| ProcAnalysis::compute(p).loops.back_edges.into_iter().collect())
        .collect();
    let mut counts: Vec<HashMap<Vec<BlockId>, u64>> =
        program.procs.iter().map(|_| HashMap::new()).collect();
    // Per-activation block sequences, completed at exit.
    let mut stacks: Vec<Vec<Vec<BlockId>>> = program.procs.iter().map(|_| Vec::new()).collect();
    for e in events {
        match *e {
            BlockEvent::Enter(p) => stacks[p.index()].push(Vec::new()),
            BlockEvent::Block(p, b) => stacks[p.index()].last_mut().expect("activation").push(b),
            BlockEvent::Exit(p) => {
                let seq = stacks[p.index()].pop().expect("activation");
                let (mut path, mut crossings) = (Vec::new(), 0);
                for b in seq {
                    if let Some(&last) = path.last() {
                        let back = back_edges[p.index()].contains(&(last, b));
                        if back && crossings + 1 == k {
                            *counts[p.index()].entry(std::mem::take(&mut path)).or_insert(0) += 1;
                            crossings = 0;
                        } else if back {
                            crossings += 1;
                        }
                    }
                    path.push(b);
                }
                if !path.is_empty() {
                    *counts[p.index()].entry(path).or_insert(0) += 1;
                }
            }
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn kpaths_match_a_naive_chop_of_the_trace(seed in 0u64..100_000, k in 1usize..4) {
        let program = gen_program(seed, GenConfig::default());
        assert_matches_naive_chop(&program, &[], k, &format!("seed {seed}"));
    }
}
