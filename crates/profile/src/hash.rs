//! Canonical content hashes for profiles.
//!
//! A profile's identity is its canonical serialized form
//! ([`crate::serialize`]): edges and windows are emitted sorted, so two
//! profiles that answer every query identically serialize to the same
//! bytes, and the hash of those bytes is a stable, machine-independent
//! content address. The bytes are never built: the serializer's emitter
//! streams them straight into a [`Fold`], whose `bytes` + `finish` is
//! exactly [`profile_text_hash`] of the text. This is the `profile_hash` leg of the serving stack's
//! `ArtifactKey` — the precondition for reusing profile-guided compiles
//! across requests, processes, and machines.

use crate::edge::EdgeProfile;
use crate::kpath::KPathProfile;
use crate::path::PathProfile;
use crate::serialize::{emit_edge, emit_kpath, emit_path};
use pps_ir::hash::{fnv1a64, splitmix64, Fold};

/// Hashes a canonical profile text: FNV-1a-64 over the bytes, diffused
/// through splitmix64. This is the one definition of a profile hash; the
/// hashes below compute it for a profile's text without building it.
#[inline]
pub fn profile_text_hash(text: &str) -> u64 {
    splitmix64(fnv1a64(text.as_bytes()))
}

/// [`profile_text_hash`] of the text `emit` writes, without the text.
fn streamed_hash(emit: impl FnOnce(&mut Fold)) -> u64 {
    let mut fold = Fold::new();
    emit(&mut fold);
    fold.finish()
}

/// Canonical hash of an edge profile (over
/// [`edge_to_text`](crate::serialize::edge_to_text)).
pub fn edge_hash(profile: &EdgeProfile) -> u64 {
    streamed_hash(|fold| emit_edge(profile, fold))
}

/// Canonical hash of a path profile (over
/// [`path_to_text`](crate::serialize::path_to_text)).
pub fn path_hash(profile: &PathProfile) -> u64 {
    streamed_hash(|fold| emit_path(profile, false, fold))
}

/// Canonical hash of the edge+path profile pair a compile request carries.
/// Folds both hashes order-sensitively so `(e, p)` and `(p, e)` differ.
pub fn profile_pair_hash(edge: &EdgeProfile, path: &PathProfile) -> u64 {
    splitmix64(edge_hash(edge) ^ splitmix64(path_hash(path)))
}

/// Canonical hash of a k-iteration path profile (over
/// [`kpath_to_text`](crate::serialize::kpath_to_text), which embeds `k` in
/// its header — the same counts at different `k` hash differently, as they
/// must: they answer different queries).
pub fn kpath_hash(profile: &KPathProfile) -> u64 {
    streamed_hash(|fold| emit_kpath(profile, fold))
}

/// Folds a k-iteration profile hash into an edge+path pair hash, giving
/// the profile leg of the `ArtifactKey` for `Pk*` scheme compiles. Order-
/// sensitive like [`profile_pair_hash`], so swapping legs moves the key.
pub fn profile_triple_hash(edge: &EdgeProfile, path: &PathProfile, kpath: &KPathProfile) -> u64 {
    splitmix64(profile_pair_hash(edge, path) ^ splitmix64(kpath_hash(kpath)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{edge_from_text, edge_to_text, path_from_text, path_to_text};
    use crate::{EdgeProfiler, PathProfiler};
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand, Program};

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(20));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        pb.finish(main)
    }

    fn profiles() -> (EdgeProfile, PathProfile) {
        let p = sample();
        let mut ep = EdgeProfiler::new(&p);
        let mut pp = PathProfiler::new(&p, 15);
        Interp::new(&p, ExecConfig::default()).run_traced(&[], &mut ep).unwrap();
        Interp::new(&p, ExecConfig::default()).run_traced(&[], &mut pp).unwrap();
        (ep.finish(), pp.finish())
    }

    #[test]
    fn hashes_survive_text_round_trip() {
        let (edge, path) = profiles();
        let e2 = edge_from_text(&edge_to_text(&edge)).unwrap();
        let p2 = path_from_text(&path_to_text(&path)).unwrap();
        assert_eq!(edge_hash(&edge), edge_hash(&e2));
        assert_eq!(path_hash(&path), path_hash(&p2));
        assert_eq!(profile_pair_hash(&edge, &path), profile_pair_hash(&e2, &p2));
    }

    #[test]
    fn different_profiles_hash_differently() {
        let (edge, path) = profiles();
        // A profile of the same program with different counts.
        let text = edge_to_text(&edge).replace(" 20\n", " 21\n");
        let other = edge_from_text(&text).unwrap();
        assert_ne!(edge_hash(&edge), edge_hash(&other));
        // Pair hash is order-sensitive in its components.
        assert_ne!(
            profile_pair_hash(&edge, &path),
            splitmix64(path_hash(&path) ^ splitmix64(edge_hash(&edge)))
        );
    }
}
