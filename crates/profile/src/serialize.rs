//! Profile serialization: save collected profiles as text and reload them
//! later, so expensive training runs need not be repeated per scheme.
//!
//! Formats are line-oriented and diff-friendly:
//!
//! ```text
//! pps-edge-profile v1
//! proc 0 blocks 5
//! block 1 12000
//! edge 1 2 8000
//! ...
//! ```
//!
//! ```text
//! pps-path-profile v1 depth 15
//! proc 0
//! window 8000 1 2 4
//! ...
//! ```
//!
//! A saved path profile may also carry the profiler's transition-cache
//! statistics, one `cache HITS MISSES` line after a `proc` line
//! ([`path_to_text_with_stats`]).
//!
//! Each format has one emitter, which writes decimal numbers by hand into
//! a byte sink: a buffer that becomes the text, or a hash fold
//! ([`crate::hash`]), so hashing never builds the text. A path profile's
//! windows are enumerated from the frozen trie into one flat arena per
//! procedure and sorted there; no `Vec` is built per window. The path
//! parser streams each `window` line, through one reused block buffer,
//! into the trie loader (`path::PathLoader`). It accepts and rejects exactly
//! what the window-based codec it replaced did, with the same error text
//! and line numbers (`tests/codec_diff.rs` checks both against that codec).
//!
//! Both parsers read untrusted text: a `Compile` request may carry a
//! profile pair. The edge parser allocates one counter per declared block,
//! so it refuses a text that declares more than [`MAX_PROFILE_BLOCKS`].
//! A k-iteration profile is only written ([`kpath_to_text`], the text
//! [`crate::kpath_hash`] folds); the shipped crates never parse one.

use crate::edge::EdgeProfile;
use crate::kpath::KPathProfile;
use crate::path::{PathLoader, PathProfile};
use pps_ir::hash::Fold;
use pps_ir::{BlockId, ProcId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A profile-deserialization failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileParseError {
    /// Offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ProfileParseError {}

/// Most blocks an edge-profile text may declare, summed over its
/// procedures. [`edge_from_text`] allocates a counter per declared block,
/// so this bounds what one text can make it allocate (512 KiB) however
/// large the numbers in its `proc` lines are. The largest suite program
/// has 239 blocks at scales 1 and 4.
pub const MAX_PROFILE_BLOCKS: usize = 1 << 16;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ProfileParseError> {
    Err(ProfileParseError { line, message: message.into() })
}

/// Where canonical profile text goes: a byte buffer that becomes the
/// text, or a hash [`Fold`] that consumes it as it is written, so hashing
/// a profile never builds its text. Numbers are formatted by hand.
pub(crate) trait Emit {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Appends a space and `v` in decimal.
    #[inline]
    fn num(&mut self, mut v: u64) {
        let mut buf = [0u8; 21];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        buf[i - 1] = b' ';
        self.put(&buf[i - 1..]);
    }
}

impl Emit for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        // Byte by byte: the pieces are a few bytes long, and a `memcpy`
        // call per piece costs more than the copy.
        for &b in bytes {
            self.push(b);
        }
    }
}

impl Emit for Fold {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }
}

/// The text an emitter wrote into a byte buffer.
fn into_text(emit: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    emit(&mut out);
    String::from_utf8(out).expect("profile text is ASCII")
}

/// Writes an edge profile's canonical text.
pub(crate) fn emit_edge(profile: &EdgeProfile, out: &mut impl Emit) {
    out.put(b"pps-edge-profile v1\n");
    let mut edges: Vec<((BlockId, BlockId), u64)> = Vec::new();
    for pi in 0..profile.num_procs() {
        let pid = ProcId::new(pi as u32);
        out.put(b"proc");
        out.num(pi as u64);
        out.put(b" blocks");
        out.num(profile.num_blocks(pid) as u64);
        out.put(b"\n");
        for b in 0..profile.num_blocks(pid) {
            let f = profile.block_freq(pid, BlockId::new(b as u32));
            if f > 0 {
                out.put(b"block");
                out.num(b as u64);
                out.num(f);
                out.put(b"\n");
            }
        }
        edges.clear();
        edges.extend(profile.iter_edges(pid));
        edges.sort_unstable();
        for &((a, b), f) in &edges {
            out.put(b"edge");
            out.num(a.index() as u64);
            out.num(b.index() as u64);
            out.num(f);
            out.put(b"\n");
        }
    }
}

/// Serializes an edge profile.
pub fn edge_to_text(profile: &EdgeProfile) -> String {
    into_text(|out| emit_edge(profile, out))
}

/// Deserializes an edge profile.
///
/// # Errors
/// Returns a [`ProfileParseError`] on malformed input, on more than
/// [`MAX_PROFILE_BLOCKS`] declared blocks, and on a `block` or `edge` line
/// naming a block at or beyond its procedure's declared count.
pub fn edge_from_text(text: &str) -> Result<EdgeProfile, ProfileParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let Some((ln, header)) = lines.next() else {
        return err(0, "empty input");
    };
    if header != "pps-edge-profile v1" {
        return err(ln, format!("bad header `{header}`"));
    }
    let mut block_freq: Vec<Vec<u64>> = Vec::new();
    let mut edge_freq: Vec<HashMap<(BlockId, BlockId), u64>> = Vec::new();
    let mut declared = 0usize;
    for (ln, l) in lines {
        if l.is_empty() {
            continue;
        }
        let toks: Vec<&str> = l.split_whitespace().collect();
        match toks.as_slice() {
            ["proc", pi, "blocks", n] => {
                let pi: usize = pi.parse().map_err(|_| ProfileParseError {
                    line: ln,
                    message: "bad proc index".into(),
                })?;
                if pi != block_freq.len() {
                    return err(ln, "procs must appear in order");
                }
                let n: usize = n
                    .parse()
                    .map_err(|_| ProfileParseError { line: ln, message: "bad block count".into() })?;
                declared = declared.saturating_add(n);
                if declared > MAX_PROFILE_BLOCKS {
                    return err(ln, format!("more than {MAX_PROFILE_BLOCKS} blocks declared"));
                }
                block_freq.push(vec![0; n]);
                edge_freq.push(HashMap::new());
            }
            ["block", b, f] => {
                let (Some(cur), Ok(b), Ok(f)) =
                    (block_freq.last_mut(), b.parse::<usize>(), f.parse::<u64>())
                else {
                    return err(ln, "bad block line");
                };
                if b >= cur.len() {
                    return err(ln, "block index out of range");
                }
                cur[b] = f;
            }
            ["edge", a, b, f] => {
                let (Some(n), Some(cur), Ok(a), Ok(b), Ok(f)) = (
                    block_freq.last().map(Vec::len),
                    edge_freq.last_mut(),
                    a.parse::<u32>(),
                    b.parse::<u32>(),
                    f.parse::<u64>(),
                ) else {
                    return err(ln, "bad edge line");
                };
                if a as usize >= n || b as usize >= n {
                    return err(ln, "edge endpoint out of range");
                }
                cur.insert((BlockId::new(a), BlockId::new(b)), f);
            }
            _ => return err(ln, format!("unrecognized line `{l}`")),
        }
    }
    Ok(EdgeProfile::from_counts(block_freq, edge_freq))
}

/// Serializes a general path profile as its maximal-window counts.
pub fn path_to_text(profile: &PathProfile) -> String {
    into_text(|out| emit_path(profile, false, out))
}

/// [`path_to_text`] plus each procedure's transition-cache statistics
/// (a `cache HITS MISSES` line after its `proc` line, when non-zero): the
/// form a trained profile is saved to disk in, so a reloaded profile
/// records the same `profile.path.cache_*` metrics as the one its training
/// run built. The canonical form ([`path_to_text`], which content hashes
/// and the serve protocol use) leaves them out.
pub fn path_to_text_with_stats(profile: &PathProfile) -> String {
    into_text(|out| emit_path(profile, true, out))
}

/// One procedure's maximal windows in one flat arena: every window's
/// blocks oldest first in `blocks`, and a `(count, start, len)` record per
/// window, sorted by block sequence. Windows are unique per procedure, so
/// that is the canonical order.
#[derive(Default)]
struct WindowArena {
    blocks: Vec<BlockId>,
    windows: Vec<(u64, usize, usize)>,
}

impl WindowArena {
    /// Refills the arena with `proc`'s windows, sorted.
    fn fill(&mut self, profile: &PathProfile, proc: ProcId) {
        let WindowArena { blocks, windows } = self;
        blocks.clear();
        windows.clear();
        profile.for_each_window(proc, |key, count| {
            windows.push((count, blocks.len(), key.len()));
            blocks.extend(key.iter().rev());
        });
        let blocks = &self.blocks;
        let seq = |&(_, start, len): &(u64, usize, usize)| &blocks[start..start + len];
        self.windows.sort_unstable_by(|a, b| seq(a).cmp(seq(b)));
    }
}

/// Writes a path profile's text, with its cache statistics when `stats`.
pub(crate) fn emit_path(profile: &PathProfile, stats: bool, out: &mut impl Emit) {
    out.put(b"pps-path-profile v1 depth");
    out.num(profile.depth() as u64);
    out.put(b"\n");
    let mut arena = WindowArena::default();
    for pi in 0..profile.num_procs() {
        let pid = ProcId::new(pi as u32);
        out.put(b"proc");
        out.num(pi as u64);
        out.put(b"\n");
        let (hits, misses) = profile.cache_stats(pid);
        if stats && (hits, misses) != (0, 0) {
            out.put(b"cache");
            out.num(hits);
            out.num(misses);
            out.put(b"\n");
        }
        arena.fill(profile, pid);
        for &(count, start, len) in &arena.windows {
            out.put(b"window");
            out.num(count);
            for b in &arena.blocks[start..start + len] {
                out.num(b.index() as u64);
            }
            out.put(b"\n");
        }
    }
}

/// Deserializes a general path profile. Each `window` line is streamed,
/// through one reused block buffer, into the loader that builds the
/// procedure's trie.
///
/// # Errors
/// Returns a [`ProfileParseError`] on malformed input.
pub fn path_from_text(text: &str) -> Result<PathProfile, ProfileParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let Some((ln, header)) = lines.next() else {
        return err(0, "empty input");
    };
    let depth = header
        .strip_prefix("pps-path-profile v1 depth ")
        .and_then(|d| d.parse::<usize>().ok())
        .ok_or(ProfileParseError { line: ln, message: format!("bad header `{header}`") })?;
    let mut loader = PathLoader::new(depth);
    let mut window: Vec<BlockId> = Vec::new();
    for (ln, l) in lines {
        if l.is_empty() {
            continue;
        }
        if let Some(pi) = l.strip_prefix("proc ") {
            let pi: usize = pi
                .parse()
                .map_err(|_| ProfileParseError { line: ln, message: "bad proc index".into() })?;
            if pi != loader.num_procs() {
                return err(ln, "procs must appear in order");
            }
            loader.begin_proc();
        } else if let Some(rest) = l.strip_prefix("cache ") {
            if loader.num_procs() == 0 {
                return err(ln, "cache before proc");
            }
            let mut counts = rest.split_whitespace().map(|t| t.parse::<u64>().ok());
            let (Some(Some(hits)), Some(Some(misses)), None) =
                (counts.next(), counts.next(), counts.next())
            else {
                return err(ln, "bad cache statistics");
            };
            loader.set_cache_stats(hits, misses);
        } else if let Some(rest) = l.strip_prefix("window ") {
            if loader.num_procs() == 0 {
                return err(ln, "window before proc");
            }
            let mut toks = rest.split_whitespace();
            let count: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ProfileParseError { line: ln, message: "bad window count".into() })?;
            window.clear();
            for t in toks {
                let b: u32 = t
                    .parse()
                    .map_err(|_| ProfileParseError { line: ln, message: "bad block id".into() })?;
                window.push(BlockId::new(b));
            }
            if window.is_empty() {
                return err(ln, "empty window");
            }
            loader.add_window(&window, count);
        } else {
            return err(ln, format!("unrecognized line `{l}`"));
        }
    }
    Ok(loader.finish())
}

/// Writes a k-iteration profile's text: each procedure's paths sorted.
pub(crate) fn emit_kpath(profile: &KPathProfile, out: &mut impl Emit) {
    out.put(b"pps-kpath-profile v1 k");
    out.num(profile.k() as u64);
    out.put(b"\n");
    let mut paths: Vec<(&[BlockId], u64)> = Vec::new();
    for pi in 0..profile.num_procs() {
        let pid = ProcId::new(pi as u32);
        out.put(b"proc");
        out.num(pi as u64);
        out.put(b"\n");
        paths.clear();
        paths.extend(profile.iter_paths(pid));
        paths.sort_unstable();
        for &(path, count) in &paths {
            out.put(b"path");
            out.num(count);
            for b in path {
                out.num(b.index() as u64);
            }
            out.put(b"\n");
        }
    }
}

/// Serializes a k-iteration path profile as its completed-path counts.
/// Paths are emitted sorted, so the text is canonical: two profiles that
/// answer every query identically serialize to the same bytes.
pub fn kpath_to_text(profile: &KPathProfile) -> String {
    into_text(|out| emit_kpath(profile, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeProfiler, KPathProfiler, PathProfiler};
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand, Program};

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let a = f.new_block();
        let b = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Rem, m, i, 3i64);
        f.branch(m, a, b);
        f.switch_to(a);
        f.jump(latch);
        f.switch_to(b);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(50));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn edge_profile_round_trips() {
        let p = sample();
        let mut ep = EdgeProfiler::new(&p);
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[], &mut ep)
            .unwrap();
        let edge = ep.finish();
        let text = edge_to_text(&edge);
        let back = edge_from_text(&text).unwrap();
        // Canonical re-serialization is identical.
        assert_eq!(edge_to_text(&back), text);
        // And spot queries agree.
        let pid = p.entry;
        for b in p.proc(pid).block_ids() {
            assert_eq!(back.block_freq(pid, b), edge.block_freq(pid, b));
        }
    }

    #[test]
    fn path_profile_round_trips() {
        let p = sample();
        let mut pp = PathProfiler::new(&p, 15);
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[], &mut pp)
            .unwrap();
        let path = pp.finish();
        let text = path_to_text(&path);
        let back = path_from_text(&text).unwrap();
        assert_eq!(back.depth(), path.depth());
        assert_eq!(path_to_text(&back), text, "canonical fixpoint");
        // Every recorded window keeps its exact frequency.
        let pid = p.entry;
        for (window, _) in path.iter_maximal_windows(pid) {
            assert_eq!(back.freq(pid, &window), path.freq(pid, &window));
        }
    }

    #[test]
    fn saved_path_profile_keeps_its_cache_statistics() {
        let p = sample();
        let mut pp = PathProfiler::new(&p, 15);
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[], &mut pp)
            .unwrap();
        let path = pp.finish();
        let pid = p.entry;
        assert_ne!(path.cache_stats(pid), (0, 0));
        let saved = path_to_text_with_stats(&path);
        assert!(saved.contains("\ncache "), "{saved}");
        let back = path_from_text(&saved).unwrap();
        assert_eq!(back.cache_stats(pid), path.cache_stats(pid));
        // The canonical form is unchanged and leaves the statistics out.
        assert_eq!(path_to_text(&back), path_to_text(&path));
        assert_eq!(path_from_text(&path_to_text(&path)).unwrap().cache_stats(pid), (0, 0));
        for bad in [
            "pps-path-profile v1 depth 15\ncache 1 2",
            "pps-path-profile v1 depth 15\nproc 0\ncache 1",
            "pps-path-profile v1 depth 15\nproc 0\ncache 1 x 2",
        ] {
            assert!(path_from_text(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn kpath_profile_round_trips() {
        // The shipped crates never parse k-path text: a profile rebuilt
        // from its own paths writes the same canonical text.
        let p = sample();
        for k in [1usize, 2, 3] {
            let mut kp = KPathProfiler::new(&p, k);
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut kp)
                .unwrap();
            let kpath = kp.finish();
            let paths = (0..kpath.num_procs())
                .map(|pi| kpath.iter_paths(ProcId::new(pi as u32)).map(|(p, c)| (p.to_vec(), c)))
                .map(Iterator::collect)
                .collect();
            let back = KPathProfile::from_paths(k, paths);
            assert_eq!(kpath_to_text(&back), kpath_to_text(&kpath), "canonical at k = {k}");
            assert_eq!(back, kpath, "k = {k}");
        }
    }

    #[test]
    fn parse_errors_have_line_numbers() {
        let e = edge_from_text("pps-edge-profile v1\nbogus").unwrap_err();
        assert_eq!(e.line, 2);
        let e = path_from_text("wrong header").unwrap_err();
        assert_eq!(e.line, 1);
        let e = path_from_text("pps-path-profile v1 depth 15\nwindow 3 1").unwrap_err();
        assert!(e.message.contains("before proc"));
    }

    #[test]
    fn edge_parser_bounds_what_it_allocates() {
        // Each declared count alone would abort the process (an 8 TiB
        // allocation) or panic (capacity overflow) if allocated.
        for n in ["1099511627776", "18446744073709551615"] {
            let text = format!("pps-edge-profile v1\nproc 0 blocks {n}\n");
            let e = edge_from_text(&text).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains("blocks declared"), "{e}");
        }
        // The bound is on the sum over procedures.
        let half = MAX_PROFILE_BLOCKS / 2;
        let two = format!("pps-edge-profile v1\nproc 0 blocks {half}\nproc 1 blocks {half}\n");
        assert_eq!(edge_from_text(&two).unwrap().num_blocks(ProcId::new(1)), half);
        let three = format!("{two}proc 2 blocks 1\n");
        assert_eq!(edge_from_text(&three).unwrap_err().line, 4);
    }

    #[test]
    fn edge_endpoints_must_be_declared_blocks() {
        let ok = edge_from_text("pps-edge-profile v1\nproc 0 blocks 2\nedge 0 1 5\n").unwrap();
        assert_eq!(ok.edge_freq(ProcId::new(0), BlockId::new(0), BlockId::new(1)), 5);
        for bad in ["edge 0 2 5", "edge 2 0 5", "edge 4294967295 0 1"] {
            let text = format!("pps-edge-profile v1\nproc 0 blocks 2\n{bad}\n");
            let e = edge_from_text(&text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (3, "edge endpoint out of range"), "{bad}");
        }
        let e = edge_from_text("pps-edge-profile v1\nedge 0 0 1\n").unwrap_err();
        assert_eq!(e.message, "bad edge line");
    }

    #[test]
    fn edge_counts_sum_without_overflow() {
        let max = u64::MAX;
        let text =
            format!("pps-edge-profile v1\nproc 0 blocks 2\nedge 0 1 {max}\nedge 1 0 {max}\n");
        let profile = edge_from_text(&text).unwrap();
        assert_eq!(profile.dyn_edges(), u64::MAX);
        assert_eq!(edge_to_text(&profile), text);
    }
}
