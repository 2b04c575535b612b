//! Property tests for the profilers over random programs: the general
//! path profile must agree with a brute-force recount of the raw trace,
//! and its derived point statistics must equal the edge profiler's.

use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::{BlockId, ProcId, VecSink};
use pps::profile::{EdgeProfiler, KPathProfiler, PathProfiler};
use pps::testgen::{gen_program, GenConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// Recomputes, per procedure, every maximal window of the block trace and
/// counts all suffix occurrences — the specification the trie implements.
fn brute_force_freqs(
    program: &pps::ir::Program,
    events: &[pps::ir::BlockEvent],
    depth: usize,
) -> Vec<HashMap<Vec<BlockId>, u64>> {
    use pps::ir::BlockEvent;
    let mut per_proc: Vec<HashMap<Vec<BlockId>, u64>> =
        program.procs.iter().map(|_| HashMap::new()).collect();
    // Reconstruct per-activation block sequences.
    let mut stacks: Vec<Vec<Vec<BlockId>>> = program.procs.iter().map(|_| Vec::new()).collect();
    let mut order: Vec<(ProcId, Vec<BlockId>)> = Vec::new();
    for e in events {
        match e {
            BlockEvent::Enter(p) => stacks[p.index()].push(Vec::new()),
            BlockEvent::Exit(p) => {
                let seq = stacks[p.index()].pop().expect("activation");
                order.push((*p, seq));
            }
            BlockEvent::Block(p, b) => {
                stacks[p.index()].last_mut().expect("activation").push(*b)
            }
        }
    }
    for (pid, seq) in order {
        let proc = program.proc(pid);
        let is_branch =
            |b: BlockId| proc.block(b).term.is_counted_branch();
        for end in 0..seq.len() {
            let mut start = end;
            let mut branches = 0;
            while start > 0 {
                let b = seq[start - 1];
                if branches + usize::from(is_branch(b)) > depth {
                    break;
                }
                branches += usize::from(is_branch(b));
                start -= 1;
            }
            // The maximal window ending at `end` contributes one count to
            // every suffix of itself.
            for s in start..=end {
                *per_proc[pid.index()]
                    .entry(seq[s..=end].to_vec())
                    .or_insert(0) += 1;
            }
        }
    }
    per_proc
}

/// Transition-memo `(hits, misses)` summed over every procedure.
fn summed_cache_stats(program: &pps::ir::Program, path: &PathProfile) -> (u64, u64) {
    program.proc_ids().fold((0, 0), |(h, m), pid| {
        let (ph, pm) = path.cache_stats(pid);
        (h + ph, m + pm)
    })
}

fn check_seed(seed: u64, depth: usize) {
    let program = gen_program(seed, GenConfig { max_depth: 2, ..GenConfig::default() });
    let interp = Interp::new(&program, ExecConfig::default());

    let mut sink = VecSink::new();
    interp.run_traced(&[], &mut sink).unwrap();
    // Keep brute force tractable.
    if sink.events.len() > 8_000 {
        return;
    }

    let mut pp = PathProfiler::new(&program, depth);
    interp.run_traced(&[], &mut pp).unwrap();
    let path = pp.finish();

    // Every block event either hits or misses the transition memo.
    let block_events =
        sink.events.iter().filter(|e| matches!(e, pps::ir::BlockEvent::Block(..))).count() as u64;
    let (hits, misses) = summed_cache_stats(&program, &path);
    assert_eq!(hits + misses, block_events, "seed {seed} depth {depth}");

    let expected = brute_force_freqs(&program, &sink.events, depth);
    for (pi, table) in expected.iter().enumerate() {
        let pid = ProcId::new(pi as u32);
        for (seq, &count) in table {
            assert_eq!(
                path.freq(pid, seq),
                count,
                "seed {seed} depth {depth} {pid} seq {seq:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn path_profile_matches_brute_force(seed in 0u64..100_000, depth in 0usize..6) {
        check_seed(seed, depth);
    }

    #[test]
    fn derived_point_stats_match_edge_profiler(seed in 0u64..100_000) {
        let program = gen_program(seed, GenConfig::default());
        let interp = Interp::new(&program, ExecConfig::default());
        let mut ep = EdgeProfiler::new(&program);
        interp.run_traced(&[], &mut ep).unwrap();
        let edge = ep.finish();
        let mut pp = PathProfiler::new(&program, 15);
        interp.run_traced(&[], &mut pp).unwrap();
        let path = pp.finish();
        for (pid, proc) in program.iter_procs() {
            for (b, _) in proc.iter_blocks() {
                prop_assert_eq!(path.block_freq(pid, b), edge.block_freq(pid, b));
                for (s, f) in edge.out_edges(pid, b) {
                    prop_assert_eq!(path.edge_freq(pid, b, s), f);
                }
            }
        }
    }

    #[test]
    fn forward_paths_partition_the_trace(seed in 0u64..100_000) {
        // Every block event belongs to exactly one forward path (a k-path
        // at k = 1), so the length-weighted path counts must sum to the
        // block-event count.
        let program = gen_program(seed, GenConfig::default());
        let interp = Interp::new(&program, ExecConfig::default());
        let mut fp = KPathProfiler::new(&program, 1);
        let result = interp.run_traced(&[], &mut fp).unwrap();
        let fwd = fp.finish();
        let total: u64 = program
            .proc_ids()
            .map(|pid| {
                fwd.iter_paths(pid)
                    .map(|(p, c)| p.len() as u64 * c)
                    .sum::<u64>()
            })
            .sum();
        prop_assert_eq!(total, result.counts.blocks);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn serialized_profiles_round_trip(seed in 0u64..100_000) {
        use pps::profile::serialize::{edge_from_text, edge_to_text, path_from_text, path_to_text};
        let program = gen_program(seed, GenConfig::default());
        let interp = Interp::new(&program, ExecConfig::default());
        let mut ep = EdgeProfiler::new(&program);
        interp.run_traced(&[], &mut ep).unwrap();
        let edge = ep.finish();
        let mut pp = PathProfiler::new(&program, 15);
        interp.run_traced(&[], &mut pp).unwrap();
        let path = pp.finish();

        let edge2 = edge_from_text(&edge_to_text(&edge)).unwrap();
        prop_assert_eq!(edge_to_text(&edge2), edge_to_text(&edge));
        let path2 = path_from_text(&path_to_text(&path)).unwrap();
        prop_assert_eq!(path_to_text(&path2), path_to_text(&path));

        // Formation from the reloaded profiles is identical to formation
        // from the originals.
        use pps::core::{form_program, FormConfig, Scheme};
        let mut p1 = program.clone();
        let mut p2 = program.clone();
        let f1 = form_program(&mut p1, &edge, Some(&path), Scheme::P4, &FormConfig::default())
            .unwrap();
        let f2 = form_program(&mut p2, &edge2, Some(&path2), Scheme::P4, &FormConfig::default())
            .unwrap();
        prop_assert_eq!(p1, p2);
        prop_assert_eq!(f1.partition, f2.partition);
    }
}

// ---------------------------------------------------------------------------
// Serialization round-trips (`pps::profile::serialize`): the text formats
// must preserve every count — across procedures and out to the paper's
// depth-15 windows — and re-serialize to the identical canonical text.

use pps::profile::serialize::{edge_from_text, edge_to_text, path_from_text, path_to_text};
use pps::profile::{EdgeProfile, PathProfile};
use pps::suite::{benchmark_by_name, Scale};

/// Profiles one program with both profilers over a single traced run.
fn collect_both(
    program: &pps::ir::Program,
    args: &[i64],
    depth: usize,
) -> (EdgeProfile, PathProfile) {
    let mut tee = pps::ir::trace::TeeSink::new(
        EdgeProfiler::new(program),
        PathProfiler::new(program, depth),
    );
    Interp::new(program, ExecConfig::default())
        .run_traced(args, &mut tee)
        .unwrap();
    (tee.a.finish(), tee.b.finish())
}

/// Asserts both profiles survive text round-trips exactly, window by
/// window, for every procedure.
fn assert_round_trip(program: &pps::ir::Program, edge: &EdgeProfile, path: &PathProfile) {
    let edge_text = edge_to_text(edge);
    let edge_back = edge_from_text(&edge_text).unwrap();
    assert_eq!(edge_to_text(&edge_back), edge_text, "edge canonical fixpoint");

    let path_text = path_to_text(path);
    let path_back = path_from_text(&path_text).unwrap();
    assert_eq!(path_back.depth(), path.depth());
    assert_eq!(path_to_text(&path_back), path_text, "path canonical fixpoint");

    for (pid, proc) in program.iter_procs() {
        for (b, _) in proc.iter_blocks() {
            assert_eq!(edge_back.block_freq(pid, b), edge.block_freq(pid, b));
            for (s, f) in edge.out_edges(pid, b) {
                assert_eq!(edge_back.edge_freq(pid, b, s), f);
            }
        }
        for (window, freq) in path.iter_maximal_windows(pid) {
            assert_eq!(
                path_back.freq(pid, &window),
                freq,
                "{pid} window {window:?} lost its count"
            );
        }
    }
}

/// Counted branches among a window's first `len-1` blocks — the quantity
/// the depth limit bounds.
fn window_branches(proc: &pps::ir::Proc, window: &[BlockId]) -> usize {
    window
        .iter()
        .take(window.len().saturating_sub(1))
        .filter(|&&b| proc.block(b).term.is_counted_branch())
        .count()
}

#[test]
fn serialized_profiles_round_trip_on_a_multi_proc_benchmark_at_depth_15() {
    let bench = benchmark_by_name("gcc", Scale::quick()).unwrap();
    assert!(
        bench.program.procs.len() > 1,
        "need a multi-procedure program, got {}",
        bench.program.procs.len()
    );
    let (edge, path) = collect_both(&bench.program, &bench.train_args, 15);
    assert_round_trip(&bench.program, &edge, &path);

    // The run must actually exercise the depth limit: somewhere a maximal
    // window saturates at exactly 15 counted branches, so the round trip
    // above covered full-depth windows, not just short ones.
    let saturated = bench.program.proc_ids().any(|pid| {
        let proc = bench.program.proc(pid);
        path.iter_maximal_windows(pid)
            .iter()
            .any(|(w, _)| window_branches(proc, w) == 15)
    });
    assert!(saturated, "no maximal window reached the depth-15 limit");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn serialized_profiles_round_trip_on_random_multi_proc_programs(seed in 0u64..100_000) {
        let program = gen_program(seed, GenConfig::default());
        let (edge, path) = collect_both(&program, &[], 15);
        assert_round_trip(&program, &edge, &path);
    }
}

// ---------------------------------------------------------------------------
// Merge algebra (`pps::profile::merge`): the continuous-PGO aggregator
// folds profiles by counter addition, so the operation must be commutative
// and associative — *in serialized form*, since the daemon's aggregates are
// compared and shipped as canonical text. Depth 15 over random multi-proc
// programs, like the round-trip suite above.

use pps::profile::{merge_edges, merge_paths};

/// A path profile over a *different support*: keeps only the windows whose
/// enumeration index satisfies `keep`, with counts rescaled and salted.
/// Merging profiles with partial window overlap is exactly what the
/// daemon's aggregate does when the workload shifts.
fn path_variant(path: &PathProfile, keep: impl Fn(usize) -> bool, scale: u64) -> PathProfile {
    let per_proc = (0..path.num_procs())
        .map(|pi| {
            path.iter_maximal_windows(ProcId::new(pi as u32))
                .into_iter()
                .enumerate()
                .filter(|(i, _)| keep(*i))
                .map(|(i, (w, c))| (w, c * scale + i as u64 + 1))
                .collect()
        })
        .collect();
    PathProfile::from_windows(path.depth(), per_proc)
}

/// Three genuinely different profile pairs of the same program: the paths
/// cover overlapping-but-distinct window subsets with distinct weights,
/// the edges are distinct multiples of the traced run.
fn three_profiles(seed: u64) -> [(EdgeProfile, PathProfile); 3] {
    let program = gen_program(seed, GenConfig::default());
    let (e1, p1) = collect_both(&program, &[], 15);
    let e2 = merge_edges(&e1, &e1).unwrap();
    let e3 = merge_edges(&e2, &e1).unwrap();
    let p2 = path_variant(&p1, |i| i % 2 == 0, 3);
    let p3 = path_variant(&p1, |i| i % 3 != 0, 7);
    [(e1, p1), (e2, p2), (e3, p3)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn profile_merge_is_commutative_and_associative_in_serialized_form(
        seed in 0u64..100_000,
    ) {
        let [(ea, pa), (eb, pb), (ec, pc)] = three_profiles(seed);

        // Commutativity: a+b == b+a, byte for byte.
        prop_assert_eq!(
            edge_to_text(&merge_edges(&ea, &eb).unwrap()),
            edge_to_text(&merge_edges(&eb, &ea).unwrap())
        );
        prop_assert_eq!(
            path_to_text(&merge_paths(&pa, &pb).unwrap()),
            path_to_text(&merge_paths(&pb, &pa).unwrap())
        );

        // Associativity: (a+b)+c == a+(b+c), byte for byte — the aggregate
        // is independent of the order requests arrived in.
        let left_e = merge_edges(&merge_edges(&ea, &eb).unwrap(), &ec).unwrap();
        let right_e = merge_edges(&ea, &merge_edges(&eb, &ec).unwrap()).unwrap();
        prop_assert_eq!(edge_to_text(&left_e), edge_to_text(&right_e));
        let left_p = merge_paths(&merge_paths(&pa, &pb).unwrap(), &pc).unwrap();
        let right_p = merge_paths(&pa, &merge_paths(&pb, &pc).unwrap()).unwrap();
        prop_assert_eq!(path_to_text(&left_p), path_to_text(&right_p));
    }

    #[test]
    fn merged_profiles_answer_queries_with_summed_counts(seed in 0u64..100_000) {
        let program = gen_program(seed, GenConfig::default());
        let (edge, path) = collect_both(&program, &[], 15);
        let edge2 = merge_edges(&edge, &edge).unwrap();
        let path2 = merge_paths(&path, &path).unwrap();
        for (pid, proc) in program.iter_procs() {
            for (b, _) in proc.iter_blocks() {
                prop_assert_eq!(edge2.block_freq(pid, b), 2 * edge.block_freq(pid, b));
            }
            for (window, _) in path.iter_maximal_windows(pid) {
                prop_assert_eq!(path2.freq(pid, &window), 2 * path.freq(pid, &window));
            }
        }
        // The merge result also survives the text round trip exactly.
        assert_round_trip(&program, &edge2, &path2);
    }
}

// ---------------------------------------------------------------------------
// Profile lockdown: the canonical hash of every profile kind on every suite
// benchmark's training input at scale 1, plus the path profiler's summed
// transition-cache statistics. A collector rewrite must reproduce these
// byte for byte. To regenerate after an *intentional* change:
// `BLESS=1 cargo test --test profile_props golden_profile_hashes`.

use pps::ir::{Exec, TraceSink};
use pps::profile::{edge_hash, kpath_hash, path_hash};
use pps::suite::all_benchmarks;

/// Runs `program` on `args` on the fast engine (the one training uses),
/// feeding `sink`.
fn trace_into<S: TraceSink>(program: &pps::ir::Program, args: &[i64], sink: &mut S) {
    Exec::new(program, ExecConfig::default())
        .run_traced(args, sink)
        .expect("training run completes");
}

/// One line per benchmark: edge hash, path hashes at depths 1/4/15, k-path
/// hashes at k = 1/2/3, then `hits/misses` summed over procedures at each
/// path depth.
fn render_profile_hashes() -> String {
    let mut out = String::from(
        "# bench edge path1 path4 path15 kpath1 kpath2 kpath3 cache1 cache4 cache15\n",
    );
    for bench in all_benchmarks(Scale::quick()) {
        let (program, args) = (&bench.program, &bench.train_args);
        let mut edge = EdgeProfiler::new(program);
        trace_into(program, args, &mut edge);
        let mut line = format!("{} {:016x}", bench.name, edge_hash(&edge.finish()));
        let mut caches = String::new();
        for depth in [1, 4, 15] {
            let mut pp = PathProfiler::new(program, depth);
            trace_into(program, args, &mut pp);
            let path = pp.finish();
            let (hits, misses) = summed_cache_stats(program, &path);
            line += &format!(" {:016x}", path_hash(&path));
            caches += &format!(" {hits}/{misses}");
        }
        for k in [1, 2, 3] {
            let mut kp = KPathProfiler::new(program, k);
            trace_into(program, args, &mut kp);
            line += &format!(" {:016x}", kpath_hash(&kp.finish()));
        }
        out += &line;
        out += &caches;
        out.push('\n');
    }
    out
}

#[test]
fn golden_profile_hashes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/profile_hashes_scale1.txt");
    let got = render_profile_hashes();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert!(
        got == want,
        "profile hashes drifted from {}:\n--- want\n{want}--- got\n{got}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// The edge-profile tee. Training runs the edge profiler beside the path
// profiler, although a path profile answers `block_freq` and `edge_freq`
// itself. At the paper's depth the two agree on every executed block and
// edge of every suite benchmark, so the tee could become one sink. The one
// exception is depth 0: a window then holds no executed branch before its
// newest block, so an edge leaving a branch block is never a window and
// scores zero.

#[test]
fn path_profile_answers_every_edge_profile_query_on_the_suite() {
    use pps::ir::trace::TeeSink;
    for bench in all_benchmarks(Scale::quick()) {
        let program = &bench.program;
        let mut tee = TeeSink::new(
            EdgeProfiler::new(program),
            TeeSink::new(PathProfiler::new(program, 15), PathProfiler::new(program, 0)),
        );
        trace_into(program, &bench.train_args, &mut tee);
        let edge = tee.a.finish();
        let (path, shallow) = (tee.b.a.finish(), tee.b.b.finish());
        let name = bench.name;
        for (pid, proc) in program.iter_procs() {
            for (b, _) in proc.iter_blocks() {
                let want = edge.block_freq(pid, b);
                assert_eq!(path.block_freq(pid, b), want, "{name} {pid} {b:?}");
                assert_eq!(shallow.block_freq(pid, b), want, "{name} {pid} {b:?} depth 0");
            }
            for ((from, to), f) in edge.iter_edges(pid) {
                assert_eq!(path.edge_freq(pid, from, to), f, "{name} {pid} {from:?}->{to:?}");
                let want0 = if proc.block(from).term.is_counted_branch() { 0 } else { f };
                assert_eq!(
                    shallow.edge_freq(pid, from, to),
                    want0,
                    "{name} {pid} {from:?}->{to:?} depth 0"
                );
            }
        }
    }
}
