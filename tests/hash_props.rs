//! Property tests for canonical content hashing — the identity layer
//! under the serving stack's `ArtifactKey`. Over random multi-procedure
//! programs: structural hashes must survive text serialize → deserialize
//! and clone, any actual mutation must change the hash, and profile hashes
//! (depth 15) must survive their own serialize round-trip.

#[path = "support/ir_text.rs"]
mod ir_text;
#[path = "support/kpath_text.rs"]
mod kpath_text;

use ir_text::parse_program;
use kpath_text::kpath_from_text;
use pps::ir::hash::{proc_hash, program_hash};
use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::text::print_program;
use pps::ir::trace::TeeSink;
use pps::profile::serialize::{
    edge_from_text, edge_to_text, kpath_to_text, path_from_text, path_to_text,
};
use pps::profile::{
    edge_hash, kpath_hash, path_hash, profile_pair_hash, profile_triple_hash, EdgeProfiler,
    KPathProfiler, PathProfiler,
};
use pps::testgen::{gen_program, GenConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The structural hash is a content address: parsing the printed
    /// program and cloning it both yield the same body, so neither may
    /// move the hash.
    #[test]
    fn program_hash_survives_round_trip_and_clone(seed in 0u64..1_000_000) {
        let p = gen_program(seed, GenConfig::default());
        let h = program_hash(&p);

        // Text round-trip: same body, rebuilt from scratch.
        let q = parse_program(&print_program(&p)).unwrap();
        prop_assert_eq!(program_hash(&q), h, "seed {}", seed);
        for (a, b) in p.procs.iter().zip(&q.procs) {
            prop_assert_eq!(proc_hash(a), proc_hash(b), "seed {}", seed);
        }

        // Clone: same body, same hash, per procedure and for the whole
        // program.
        let r = p.clone();
        prop_assert_eq!(program_hash(&r), h, "seed {}", seed);
        for (a, b) in p.procs.iter().zip(&r.procs) {
            prop_assert_eq!(proc_hash(a), proc_hash(b), "seed {}", seed);
        }
    }

    /// Any touched mutation that changes the body must change the hash of
    /// the mutated procedure (and hence the program), while every other
    /// procedure's hash stays put — exactly the granularity the compile
    /// cache invalidates at.
    #[test]
    fn any_touched_mutation_changes_the_hash(seed in 0u64..1_000_000, kind in 0u8..3) {
        let mut p = gen_program(seed, GenConfig::default());
        let h = program_hash(&p);
        let before: Vec<u64> = p.procs.iter().map(proc_hash).collect();
        let victim = (seed as usize) % p.procs.len();

        let proc = &mut p.procs[victim];
        match kind {
            0 => proc.name.push('_'),
            1 => proc.reg_count += 1,
            _ => {
                // Drop the last instruction of some non-empty block;
                // fall back to a rename when every block is bare.
                let target = proc
                    .block_ids()
                    .find(|&b| !proc.block(b).instrs.is_empty());
                match target {
                    Some(b) => {
                        proc.block_mut(b).instrs.pop();
                    }
                    None => proc.name.push('_'),
                }
            }
        }

        prop_assert_ne!(program_hash(&p), h, "seed {} kind {}", seed, kind);
        for (i, proc) in p.procs.iter().enumerate() {
            if i == victim {
                prop_assert_ne!(proc_hash(proc), before[i], "seed {} kind {}", seed, kind);
            } else {
                prop_assert_eq!(proc_hash(proc), before[i], "seed {} kind {}", seed, kind);
            }
        }
    }

    /// Profile hashes are content addresses too: serializing a trained
    /// edge/path profile to text and parsing it back must preserve both
    /// hashes and the pair hash, and the pair hash must be
    /// order-sensitive.
    #[test]
    fn profile_hashes_survive_serialize_round_trip(seed in 0u64..1_000_000) {
        let program = gen_program(seed, GenConfig::default());
        let mut tee = TeeSink::new(EdgeProfiler::new(&program), PathProfiler::new(&program, 15));
        Interp::new(&program, ExecConfig::default())
            .run_traced(&[], &mut tee)
            .unwrap();
        let edge = tee.a.finish();
        let path = tee.b.finish();

        let edge2 = edge_from_text(&edge_to_text(&edge)).unwrap();
        let path2 = path_from_text(&path_to_text(&path)).unwrap();
        prop_assert_eq!(edge_hash(&edge2), edge_hash(&edge), "seed {}", seed);
        prop_assert_eq!(path_hash(&path2), path_hash(&path), "seed {}", seed);
        prop_assert_eq!(
            profile_pair_hash(&edge2, &path2),
            profile_pair_hash(&edge, &path),
            "seed {}", seed
        );
    }

    /// The k-path profile hash — the new ingredient the `Pk*` schemes fold
    /// into `ArtifactKey` — is a content address with the same contract:
    /// stable under canonical-text round-trip (for the triple hash too),
    /// and moved by any count mutation.
    #[test]
    fn kpath_hash_survives_round_trip_and_detects_mutation(
        seed in 0u64..1_000_000,
        k in 1u32..4,
    ) {
        let program = gen_program(seed, GenConfig::default());
        let mut tee = TeeSink::new(
            EdgeProfiler::new(&program),
            TeeSink::new(PathProfiler::new(&program, 15), KPathProfiler::new(&program, k as usize)),
        );
        Interp::new(&program, ExecConfig::default())
            .run_traced(&[], &mut tee)
            .unwrap();
        let edge = tee.a.finish();
        let path = tee.b.a.finish();
        let kprof = tee.b.b.finish();

        // Round-trip stability, for the component hash and for the triple
        // hash the serving stack keys server-trained Pk units with.
        let kprof2 = kpath_from_text(&kpath_to_text(&kprof)).unwrap();
        prop_assert_eq!(kpath_hash(&kprof2), kpath_hash(&kprof), "seed {}", seed);
        prop_assert_eq!(
            profile_triple_hash(&edge, &path, &kprof2),
            profile_triple_hash(&edge, &path, &kprof),
            "seed {}", seed
        );

        // The triple hash must not degenerate to the pair hash: the k-path
        // component has to move the key, or two schemes trained on
        // different k-path data would alias in the artifact cache.
        prop_assert_ne!(
            profile_triple_hash(&edge, &path, &kprof),
            profile_pair_hash(&edge, &path),
            "seed {}", seed
        );

        // Mutation sensitivity: bump one recorded path's count via the
        // canonical text (lines read `path <count> <b0> <b1> ...`). A
        // profile with no completed path has nothing to mutate; skip it.
        let text = kpath_to_text(&kprof);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        if let Some(i) = lines.iter().position(|l| l.starts_with("path ")) {
            let rest = lines[i].strip_prefix("path ").unwrap();
            let (count, tail) = rest.split_once(' ').unwrap();
            let bumped = count.parse::<u64>().unwrap() + 1;
            lines[i] = format!("path {bumped} {tail}");
            let kprof3 = kpath_from_text(&(lines.join("\n") + "\n")).unwrap();
            prop_assert_ne!(kpath_hash(&kprof3), kpath_hash(&kprof), "seed {}", seed);
            prop_assert_ne!(
                profile_triple_hash(&edge, &path, &kprof3),
                profile_triple_hash(&edge, &path, &kprof),
                "seed {}", seed
            );
        }
    }
}

/// Distinct programs get distinct hashes in practice: across a spread of
/// generator seeds, no two structurally different programs may collide
/// (deterministic generator, so this is a fixed regression check rather
/// than a probabilistic one).
#[test]
fn distinct_programs_hash_distinctly() {
    use std::collections::HashMap;
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for seed in 0..200u64 {
        let p = gen_program(seed, GenConfig::default());
        let h = program_hash(&p);
        if let Some(&prior) = seen.get(&h) {
            let q = gen_program(prior, GenConfig::default());
            assert_eq!(p, q, "seeds {prior} and {seed} collide on {h:#x} yet differ");
        }
        seen.entry(h).or_insert(seed);
    }
    assert!(seen.len() > 150, "generator should produce mostly distinct programs");
}
