//! Canonical content hashing of the IR, plus the repo-wide hash
//! primitives.
//!
//! Two distinct jobs live here:
//!
//! 1. **Primitives** — [`fnv1a32`], [`fnv1a64`] and [`splitmix64`] are the
//!    one shared home for the FNV-1a / splitmix64 arithmetic that used to
//!    be copied independently into the serve frame checksum, the harness
//!    fault seed, and the loadgen retry jitter; every layer imports them
//!    from here.
//! 2. **Structural hashing** — [`proc_hash`] / [`program_hash`] give a
//!    [`Proc`]/[`Program`] a canonical 64-bit content identity: two values
//!    hash equal iff they compare equal, which means the hash covers
//!    exactly what `PartialEq` covers (name, params, register count,
//!    blocks, entry) and deliberately ignores the mutation generation
//!    nonce. The fold walks the IR in its defined order with a type tag
//!    per node, so the hash is stable across clone, text serialize →
//!    deserialize, and process restarts — unlike the generation nonce,
//!    which is process-local and never repeats.
//!
//! The structural hash is what [`crate::cache::UnitCache::structural_hash`]
//! memoizes per mutation generation: recomputing it costs a full IR walk,
//! but within one generation the body cannot have changed, so the memo is
//! exact.

use crate::instr::{Instr, Operand, Terminator};
use crate::proc::{Block, Proc};
use crate::program::Program;

/// FNV-1a offset basis, 32-bit.
pub const FNV32_OFFSET: u32 = 0x811c_9dc5;
/// FNV-1a prime, 32-bit.
pub const FNV32_PRIME: u32 = 0x0100_0193;
/// FNV-1a offset basis, 64-bit.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime, 64-bit.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, 32-bit. This is the PPSF frame checksum.
#[inline]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = FNV32_OFFSET;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(FNV32_PRIME);
    }
    h
}

/// FNV-1a over a byte slice, 64-bit.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// The splitmix64 finalizer: a cheap, high-quality 64→64 bit mixer.
/// Shared by the loadgen retry jitter and the consistent-hash ring.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An incremental FNV-1a-64 fold with typed writes. Every write is
/// length- or tag-delimited so adjacent fields cannot alias (e.g. the
/// strings `"ab" + "c"` and `"a" + "bc"` fold differently).
#[derive(Debug, Clone)]
pub struct Fold {
    state: u64,
}

impl Fold {
    /// A fold seeded with the FNV-1a-64 offset basis.
    #[inline]
    pub fn new() -> Self {
        Fold { state: FNV64_OFFSET }
    }

    /// Folds in raw bytes (not self-delimiting; callers tag or
    /// length-prefix).
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV64_PRIME);
        }
        self
    }

    /// Folds in one byte, typically a variant tag.
    #[inline]
    pub fn tag(&mut self, t: u8) -> &mut Self {
        self.bytes(&[t])
    }

    /// Folds in a `u32` (little-endian).
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds in a `u64` (little-endian).
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds in an `i64` (little-endian two's complement).
    #[inline]
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds in a string, length-prefixed.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes())
    }

    /// The accumulated hash, passed through [`splitmix64`] so that short
    /// inputs still diffuse into all 64 bits.
    #[inline]
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

impl Default for Fold {
    fn default() -> Self {
        Fold::new()
    }
}

fn fold_operand(f: &mut Fold, o: &Operand) {
    match o {
        Operand::Reg(r) => {
            f.tag(0).u32(r.index() as u32);
        }
        Operand::Imm(v) => {
            f.tag(1).i64(*v);
        }
    }
}

fn fold_instr(f: &mut Fold, i: &Instr) {
    match i {
        Instr::Alu { op, dst, lhs, rhs } => {
            f.tag(0).u32(*op as u32).u32(dst.index() as u32);
            fold_operand(f, lhs);
            fold_operand(f, rhs);
        }
        Instr::Mov { dst, src } => {
            f.tag(1).u32(dst.index() as u32);
            fold_operand(f, src);
        }
        Instr::Load { dst, base, offset, speculative } => {
            f.tag(2)
                .u32(dst.index() as u32)
                .u32(base.index() as u32)
                .i64(*offset)
                .tag(u8::from(*speculative));
        }
        Instr::Store { src, base, offset } => {
            f.tag(3);
            fold_operand(f, src);
            f.u32(base.index() as u32).i64(*offset);
        }
        Instr::Call { callee, args, dst } => {
            f.tag(4).u32(callee.index() as u32).u64(args.len() as u64);
            for a in args {
                fold_operand(f, a);
            }
            match dst {
                Some(d) => f.tag(1).u32(d.index() as u32),
                None => f.tag(0),
            };
        }
        Instr::Out { src } => {
            f.tag(5);
            fold_operand(f, src);
        }
        Instr::Nop => {
            f.tag(6);
        }
    }
}

fn fold_terminator(f: &mut Fold, t: &Terminator) {
    match t {
        Terminator::Jump { target } => {
            f.tag(0).u32(target.index() as u32);
        }
        Terminator::Branch { cond, taken, not_taken } => {
            f.tag(1)
                .u32(cond.index() as u32)
                .u32(taken.index() as u32)
                .u32(not_taken.index() as u32);
        }
        Terminator::Switch { sel, targets, default } => {
            f.tag(2).u32(sel.index() as u32).u64(targets.len() as u64);
            for t in targets {
                f.u32(t.index() as u32);
            }
            f.u32(default.index() as u32);
        }
        Terminator::Return { value } => {
            f.tag(3);
            match value {
                Some(v) => {
                    f.tag(1);
                    fold_operand(f, v);
                }
                None => {
                    f.tag(0);
                }
            }
        }
    }
}

fn fold_block(f: &mut Fold, b: &Block) {
    f.u64(b.instrs.len() as u64);
    for i in &b.instrs {
        fold_instr(f, i);
    }
    fold_terminator(f, &b.term);
}

/// Folds a procedure's content (everything `PartialEq` compares, nothing
/// it ignores) into `f`. Exposed so [`program_hash`] and the memoized
/// per-unit hash agree on the per-procedure encoding.
pub fn fold_proc(f: &mut Fold, p: &Proc) {
    f.str(&p.name)
        .u32(p.num_params)
        .u32(p.reg_count)
        .u32(p.entry.index() as u32)
        .u64(p.blocks.len() as u64);
    for b in &p.blocks {
        fold_block(f, b);
    }
}

/// Canonical structural hash of one procedure.
///
/// Equal procedures (by `PartialEq`, which ignores the mutation
/// generation) hash equal; the hash survives clone, text round-trips, and
/// process restarts. Prefer the memoized
/// [`crate::cache::UnitCache::structural_hash`] when a cache is at hand.
pub fn proc_hash(p: &Proc) -> u64 {
    let mut f = Fold::new();
    fold_proc(&mut f, p);
    f.finish()
}

/// Canonical structural hash of a whole program: the per-procedure hashes
/// in procedure order, then the entry id, memory size, and data section.
///
/// Built from [`proc_hash`] values (rather than one flat fold) so a
/// caller holding memoized per-procedure hashes can combine them with
/// [`combine_program_hash`] and get the identical result.
pub fn program_hash(p: &Program) -> u64 {
    combine_program_hash(
        p.procs.iter().map(proc_hash),
        p.entry.index() as u32,
        p.mem_size,
        &p.data,
    )
}

/// Combines already-computed per-procedure hashes into the program hash.
/// `program_hash` is exactly this over freshly computed [`proc_hash`]es.
pub fn combine_program_hash(
    proc_hashes: impl Iterator<Item = u64>,
    entry_index: u32,
    mem_size: usize,
    data: &[i64],
) -> u64 {
    let mut f = Fold::new();
    let mut n: u64 = 0;
    for h in proc_hashes {
        f.u64(h);
        n += 1;
    }
    f.u64(n).u32(entry_index).u64(mem_size as u64).u64(data.len() as u64);
    for &d in data {
        f.i64(d);
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::AluOp;
    use crate::proc::BlockId;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 1);
        let r = f.reg();
        f.alu(AluOp::Add, r, Operand::Reg(crate::Reg::new(0)), Operand::Imm(7));
        f.out(Operand::Reg(r));
        f.ret(Some(Operand::Reg(r)));
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn fnv_test_vectors() {
        // Classic FNV-1a vectors.
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn splitmix_is_a_bijection_sample() {
        // Distinct inputs must give distinct outputs (spot-check).
        let outs: Vec<u64> = (0..64).map(splitmix64).collect();
        for (i, a) in outs.iter().enumerate() {
            for b in &outs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn clone_and_touch_preserve_hash() {
        let p = sample();
        let h = program_hash(&p);
        let mut q = p.clone();
        assert_eq!(program_hash(&q), h, "clone hashes identically");
        q.proc_mut(q.entry).touch();
        assert_eq!(program_hash(&q), h, "generation churn does not change content");
    }

    #[test]
    fn mutation_changes_hash() {
        let p = sample();
        let h = program_hash(&p);
        let mut q = p.clone();
        q.proc_mut(q.entry).block_mut(BlockId::new(0)).instrs.push(Instr::Nop);
        assert_ne!(program_hash(&q), h);
    }

    #[test]
    fn field_boundaries_do_not_alias() {
        // Same flattened bytes, different field split.
        let mut a = Fold::new();
        a.str("ab").str("c");
        let mut b = Fold::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn combine_matches_flat_program_hash() {
        let p = sample();
        let combined = combine_program_hash(
            p.procs.iter().map(proc_hash),
            p.entry.index() as u32,
            p.mem_size,
            &p.data,
        );
        assert_eq!(combined, program_hash(&p));
    }

    #[test]
    fn speculative_flag_is_part_of_identity() {
        let mk = |spec| {
            let mut p = Proc::new("f", 1);
            p.push_block(Block::new(
                vec![Instr::Load {
                    dst: crate::Reg::new(0),
                    base: crate::Reg::new(0),
                    offset: 0,
                    speculative: spec,
                }],
                Terminator::Return { value: None },
            ));
            p
        };
        assert_ne!(proc_hash(&mk(false)), proc_hash(&mk(true)));
    }
}
