//! k-iteration Ball–Larus profiler lockdown (the `Pk*` schemes' profile
//! kind).
//!
//! Three layers of evidence:
//!
//! - **k=1 differential identity** — chopping at the first back-edge
//!   crossing is, by construction, the forward profiler: on every suite
//!   benchmark and across random multi-procedure programs, the k=1
//!   chopper's path multiset equals [`ForwardPathProfiler`]'s exactly.
//! - **Merge algebra** — `merge_kpaths` is commutative and associative
//!   down to byte-identical canonical text, the property the serving
//!   aggregate relies on to fold worker shards in any order.
//! - **Canonical text** — serialize → parse → serialize is a fixpoint and
//!   preserves equality.
//! - **Brute-force oracle** — for k = 1, 2, 3 with and without a block
//!   cap, the collector's paths equal a naive chop of the recorded trace,
//!   activation by activation.

use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::trace::TeeSink;
use pps::ir::analysis::ProcAnalysis;
use pps::ir::{BlockEvent, BlockId, VecSink};
use pps::profile::serialize::{kpath_from_text, kpath_to_text};
use pps::profile::{merge_kpaths, ForwardPathProfiler, KPathProfile, KPathProfiler};
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

/// One traced run feeding the forward profiler and the k=1 chopper;
/// asserts identical path multisets per procedure.
fn assert_k1_identity(program: &pps::ir::Program, args: &[i64], label: &str) {
    let mut tee =
        TeeSink::new(ForwardPathProfiler::new(program), KPathProfiler::new(program, 1));
    Interp::new(program, ExecConfig::default())
        .run_traced(args, &mut tee)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let fwd = tee.a.finish();
    let k1 = tee.b.finish();
    for pid in program.proc_ids() {
        assert_eq!(
            sorted_paths(k1.iter_paths(pid)),
            sorted_paths(fwd.iter_paths(pid)),
            "{label}: k=1 multiset diverges from the forward profiler in {pid}"
        );
    }
}

/// Satellite requirement: the identity holds on every suite benchmark —
/// real loop nests, switches, and call structures, not just generated
/// CFGs — over the training input.
#[test]
fn k1_matches_forward_profiler_on_every_suite_benchmark() {
    for bench in all_benchmarks(Scale::quick()) {
        assert_k1_identity(&bench.program, &bench.train_args, bench.name);
    }
}

/// A k-path profile for `seed`'s generated program, accumulated over
/// `runs` executions (so differently-trained profiles of one program have
/// genuinely different counts to merge).
fn trained(seed: u64, k: usize, runs: usize) -> KPathProfile {
    let program = gen_program(seed, GenConfig::default());
    let mut prof = KPathProfiler::new(&program, k);
    let interp = Interp::new(&program, ExecConfig::default());
    for _ in 0..runs {
        interp.run_traced(&[], &mut prof).unwrap();
    }
    prof.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn k1_matches_forward_profiler_on_random_programs(seed in 0u64..100_000) {
        let program = gen_program(seed, GenConfig::default());
        assert_k1_identity(&program, &[], &format!("seed {seed}"));
    }

    /// Merging is commutative and associative down to the canonical bytes
    /// (profiles trained at different k refuse to merge — covered by the
    /// unit tests in `pps-profile`).
    #[test]
    fn kpath_merge_is_commutative_and_associative(
        seed in 0u64..50_000,
        ra in 1u32..4,
        rb in 1u32..4,
        rc in 1u32..4,
        k in 1u32..4,
    ) {
        // Merging requires one program shape, so all three profiles come
        // from `seed`'s program; differing run counts give them genuinely
        // different counts.
        let k = k as usize;
        let a = trained(seed, k, ra as usize);
        let b = trained(seed, k, rb as usize);
        let c = trained(seed, k, rc as usize);

        let ab = merge_kpaths(&a, &b).unwrap();
        let ba = merge_kpaths(&b, &a).unwrap();
        prop_assert_eq!(kpath_to_text(&ab), kpath_to_text(&ba), "commutativity");

        let ab_c = merge_kpaths(&ab, &c).unwrap();
        let a_bc = merge_kpaths(&a, &merge_kpaths(&b, &c).unwrap()).unwrap();
        prop_assert_eq!(kpath_to_text(&ab_c), kpath_to_text(&a_bc), "associativity");
    }

    /// Canonical text is a fixpoint: serialize → parse → serialize yields
    /// the identical bytes and an equal profile.
    #[test]
    fn kpath_text_round_trips(seed in 0u64..100_000, k in 1u32..4) {
        let prof = trained(seed, k as usize, 1);
        let text = kpath_to_text(&prof);
        let reparsed = kpath_from_text(&text).unwrap();
        prop_assert_eq!(&reparsed, &prof);
        prop_assert_eq!(kpath_to_text(&reparsed), text);
    }

    /// The derived path profile never invents transitions: any window the
    /// derivation scores was a substring of some recorded k-path.
    #[test]
    fn derived_windows_are_kpath_substrings(seed in 0u64..50_000, k in 2u32..4) {
        let prof = trained(seed, k as usize, 1);
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
/// crossing, and before any block that would exceed `max_blocks` blocks
/// (0 = no cap); a cap cut starts the crossing count afresh.
fn naive_kpaths(
    program: &pps::ir::Program,
    events: &[BlockEvent],
    k: usize,
    max_blocks: usize,
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
                        let capped = max_blocks > 0 && path.len() >= max_blocks;
                        if (back && crossings + 1 == k) || capped {
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
    fn kpaths_match_a_naive_chop_of_the_trace(
        seed in 0u64..100_000,
        k in 1usize..4,
        capped in 0u32..2,
    ) {
        let max_blocks = if capped == 1 { 5 } else { 0 };
        let program = gen_program(seed, GenConfig::default());
        let mut tee = TeeSink::new(
            VecSink::new(),
            KPathProfiler::with_max_blocks(&program, k, max_blocks),
        );
        Interp::new(&program, ExecConfig::default()).run_traced(&[], &mut tee).unwrap();
        let prof = tee.b.finish();
        let naive = naive_kpaths(&program, &tee.a.events, k, max_blocks);
        for pid in program.proc_ids() {
            let mut want: Vec<(Vec<BlockId>, u64)> =
                naive[pid.index()].iter().map(|(p, &c)| (p.clone(), c)).collect();
            want.sort();
            prop_assert_eq!(
                sorted_paths(prof.iter_paths(pid)),
                want,
                "seed {} k {} max_blocks {} {:?}", seed, k, max_blocks, pid
            );
        }
    }
}
