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

use crate::edge::EdgeProfile;
use crate::kpath::KPathProfile;
use crate::path::PathProfile;
use pps_ir::{BlockId, ProcId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

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

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ProfileParseError> {
    Err(ProfileParseError { line, message: message.into() })
}

/// Serializes an edge profile.
pub fn edge_to_text(profile: &EdgeProfile) -> String {
    let mut s = String::from("pps-edge-profile v1\n");
    for pi in 0..profile.num_procs() {
        let pid = ProcId::new(pi as u32);
        let _ = writeln!(s, "proc {pi} blocks {}", profile.num_blocks(pid));
        for b in 0..profile.num_blocks(pid) {
            let f = profile.block_freq(pid, BlockId::new(b as u32));
            if f > 0 {
                let _ = writeln!(s, "block {b} {f}");
            }
        }
        let mut edges: Vec<((BlockId, BlockId), u64)> = profile.iter_edges(pid).collect();
        edges.sort();
        for ((a, b), f) in edges {
            let _ = writeln!(s, "edge {} {} {f}", a.index(), b.index());
        }
    }
    s
}

/// Deserializes an edge profile.
///
/// # Errors
/// Returns a [`ProfileParseError`] on malformed input.
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
                let (Some(cur), Ok(a), Ok(b), Ok(f)) = (
                    edge_freq.last_mut(),
                    a.parse::<u32>(),
                    b.parse::<u32>(),
                    f.parse::<u64>(),
                ) else {
                    return err(ln, "bad edge line");
                };
                cur.insert((BlockId::new(a), BlockId::new(b)), f);
            }
            _ => return err(ln, format!("unrecognized line `{l}`")),
        }
    }
    Ok(EdgeProfile::from_counts(block_freq, edge_freq))
}

/// Serializes a general path profile as its maximal-window counts.
pub fn path_to_text(profile: &PathProfile) -> String {
    write_path(profile, false)
}

/// [`path_to_text`] plus each procedure's transition-cache statistics
/// (a `cache HITS MISSES` line after its `proc` line, when non-zero): the
/// form a trained profile is saved to disk in, so a reloaded profile
/// records the same `profile.path.cache_*` metrics as the one its training
/// run built. The canonical form ([`path_to_text`], which content hashes
/// and the serve protocol use) leaves them out.
pub fn path_to_text_with_stats(profile: &PathProfile) -> String {
    write_path(profile, true)
}

fn write_path(profile: &PathProfile, stats: bool) -> String {
    let mut s = format!("pps-path-profile v1 depth {}\n", profile.depth());
    for pi in 0..profile.num_procs() {
        let pid = ProcId::new(pi as u32);
        let _ = writeln!(s, "proc {pi}");
        let (hits, misses) = profile.cache_stats(pid);
        if stats && (hits, misses) != (0, 0) {
            let _ = writeln!(s, "cache {hits} {misses}");
        }
        let mut windows = profile.iter_maximal_windows(pid);
        windows.sort();
        for (window, count) in windows {
            let _ = write!(s, "window {count}");
            for b in window {
                let _ = write!(s, " {}", b.index());
            }
            let _ = writeln!(s);
        }
    }
    s
}

/// Deserializes a general path profile.
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
    let mut per_proc: Vec<Vec<(Vec<BlockId>, u64)>> = Vec::new();
    let mut stats: Vec<(ProcId, u64, u64)> = Vec::new();
    for (ln, l) in lines {
        if l.is_empty() {
            continue;
        }
        if let Some(pi) = l.strip_prefix("proc ") {
            let pi: usize = pi
                .parse()
                .map_err(|_| ProfileParseError { line: ln, message: "bad proc index".into() })?;
            if pi != per_proc.len() {
                return err(ln, "procs must appear in order");
            }
            per_proc.push(Vec::new());
        } else if let Some(rest) = l.strip_prefix("cache ") {
            let Some(pi) = per_proc.len().checked_sub(1) else {
                return err(ln, "cache before proc");
            };
            let counts: Vec<Option<u64>> = rest.split_whitespace().map(|t| t.parse().ok()).collect();
            let [Some(hits), Some(misses)] = counts[..] else {
                return err(ln, "bad cache statistics");
            };
            stats.push((ProcId::new(pi as u32), hits, misses));
        } else if let Some(rest) = l.strip_prefix("window ") {
            let Some(cur) = per_proc.last_mut() else {
                return err(ln, "window before proc");
            };
            let mut toks = rest.split_whitespace();
            let count: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or(ProfileParseError { line: ln, message: "bad window count".into() })?;
            let mut window = Vec::new();
            for t in toks {
                let b: u32 = t
                    .parse()
                    .map_err(|_| ProfileParseError { line: ln, message: "bad block id".into() })?;
                window.push(BlockId::new(b));
            }
            if window.is_empty() {
                return err(ln, "empty window");
            }
            cur.push((window, count));
        } else {
            return err(ln, format!("unrecognized line `{l}`"));
        }
    }
    let mut profile = PathProfile::from_windows(depth, per_proc);
    for (pid, hits, misses) in stats {
        profile.set_cache_stats(pid, hits, misses);
    }
    Ok(profile)
}

/// Serializes a k-iteration path profile as its completed-path counts.
/// Paths are emitted sorted, so the text is canonical: two profiles that
/// answer every query identically serialize to the same bytes.
pub fn kpath_to_text(profile: &KPathProfile) -> String {
    let mut s = format!("pps-kpath-profile v1 k {}\n", profile.k());
    for pi in 0..profile.num_procs() {
        let pid = ProcId::new(pi as u32);
        let _ = writeln!(s, "proc {pi}");
        let mut paths: Vec<(Vec<BlockId>, u64)> = profile
            .iter_paths(pid)
            .map(|(p, c)| (p.to_vec(), c))
            .collect();
        paths.sort();
        for (path, count) in paths {
            let _ = write!(s, "path {count}");
            for b in path {
                let _ = write!(s, " {}", b.index());
            }
            let _ = writeln!(s);
        }
    }
    s
}

/// Deserializes a k-iteration path profile.
///
/// # Errors
/// Returns a [`ProfileParseError`] on malformed input.
pub fn kpath_from_text(text: &str) -> Result<KPathProfile, ProfileParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let Some((ln, header)) = lines.next() else {
        return err(0, "empty input");
    };
    let k = header
        .strip_prefix("pps-kpath-profile v1 k ")
        .and_then(|d| d.parse::<usize>().ok())
        .filter(|&k| k >= 1)
        .ok_or(ProfileParseError { line: ln, message: format!("bad header `{header}`") })?;
    let mut per_proc: Vec<Vec<(Vec<BlockId>, u64)>> = Vec::new();
    for (ln, l) in lines {
        if l.is_empty() {
            continue;
        }
        if let Some(pi) = l.strip_prefix("proc ") {
            let pi: usize = pi
                .parse()
                .map_err(|_| ProfileParseError { line: ln, message: "bad proc index".into() })?;
            if pi != per_proc.len() {
                return err(ln, "procs must appear in order");
            }
            per_proc.push(Vec::new());
        } else if let Some(rest) = l.strip_prefix("path ") {
            let Some(cur) = per_proc.last_mut() else {
                return err(ln, "path before proc");
            };
            let mut toks = rest.split_whitespace();
            let count: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or(ProfileParseError { line: ln, message: "bad path count".into() })?;
            let mut path = Vec::new();
            for t in toks {
                let b: u32 = t
                    .parse()
                    .map_err(|_| ProfileParseError { line: ln, message: "bad block id".into() })?;
                path.push(BlockId::new(b));
            }
            if path.is_empty() {
                return err(ln, "empty path");
            }
            cur.push((path, count));
        } else {
            return err(ln, format!("unrecognized line `{l}`"));
        }
    }
    Ok(KPathProfile::from_paths(k, per_proc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpath::KPathProfiler;
    use crate::{EdgeProfiler, PathProfiler};
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
        let p = sample();
        for k in [1usize, 2, 3] {
            let mut kp = KPathProfiler::new(&p, k);
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut kp)
                .unwrap();
            let kpath = kp.finish();
            let text = kpath_to_text(&kpath);
            let back = kpath_from_text(&text).unwrap();
            assert_eq!(back.k(), k);
            assert_eq!(kpath_to_text(&back), text, "canonical fixpoint at k = {k}");
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
        let e = kpath_from_text("pps-kpath-profile v1 k 0").unwrap_err();
        assert_eq!(e.line, 1);
        let e = kpath_from_text("pps-kpath-profile v1 k 2\npath 3 1").unwrap_err();
        assert!(e.message.contains("before proc"));
    }
}
