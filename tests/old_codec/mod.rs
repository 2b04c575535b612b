//! The window-based profile codec that `pps::profile` replaced with one
//! that works on the frozen trie, kept as a differential-test oracle.
//!
//! Everything here materializes one `Vec` per window and goes through
//! SipHash maps or `write!`, as the shipped code once did: the text writers
//! sort materialized windows, the path parser collects each procedure's
//! windows, the path trie is built with a `HashMap` of child links, and
//! path merging adds window counts in a `HashMap`. The shipped codec must
//! agree with it byte for byte and count for count.

#![allow(dead_code)]

use pps::ir::{BlockId, ProcId};
use pps::profile::serialize::ProfileParseError;
use pps::profile::{DriftReport, EdgeProfile, KPathProfile, PathProfile};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-procedure maximal windows with their counts, oldest block first.
pub type Windows = Vec<Vec<(Vec<BlockId>, u64)>>;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ProfileParseError> {
    Err(ProfileParseError {
        line,
        message: message.into(),
    })
}

/// The old `edge_to_text`.
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

/// The old `kpath_to_text`.
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

/// The old path-profile writer over materialized windows: each
/// procedure's windows sorted, written with `write!`. `stats` holds each
/// procedure's transition-cache statistics, written when given and
/// non-zero.
fn write_windows(depth: usize, windows: Windows, stats: Option<&[(u64, u64)]>) -> String {
    let mut s = format!("pps-path-profile v1 depth {depth}\n");
    for (pi, mut windows) in windows.into_iter().enumerate() {
        let _ = writeln!(s, "proc {pi}");
        if let Some(&(hits, misses)) = stats.and_then(|st| st.get(pi)) {
            if (hits, misses) != (0, 0) {
                let _ = writeln!(s, "cache {hits} {misses}");
            }
        }
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

/// The old `path_to_text` (`stats: false`) and `path_to_text_with_stats`.
pub fn write_path(profile: &PathProfile, stats: bool) -> String {
    let procs = 0..profile.num_procs() as u32;
    let windows = procs
        .clone()
        .map(|pi| profile.iter_maximal_windows(ProcId::new(pi)))
        .collect();
    let cache: Vec<(u64, u64)> = procs
        .map(|pi| profile.cache_stats(ProcId::new(pi)))
        .collect();
    write_windows(profile.depth(), windows, stats.then_some(&cache[..]))
}

/// A path-profile text as the old line parser read it, before it built
/// the trie.
pub struct Parsed {
    /// Header depth.
    pub depth: usize,
    /// Every `window` line, per procedure, in text order.
    pub windows: Windows,
    /// Every `cache` line, in text order.
    pub stats: Vec<(ProcId, u64, u64)>,
}

/// The old `path_from_text` line parser, up to the trie build.
pub fn parse_path(text: &str) -> Result<Parsed, ProfileParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let Some((ln, header)) = lines.next() else {
        return err(0, "empty input");
    };
    let depth = header
        .strip_prefix("pps-path-profile v1 depth ")
        .and_then(|d| d.parse::<usize>().ok())
        .ok_or(ProfileParseError {
            line: ln,
            message: format!("bad header `{header}`"),
        })?;
    let mut per_proc: Windows = Vec::new();
    let mut stats: Vec<(ProcId, u64, u64)> = Vec::new();
    for (ln, l) in lines {
        if l.is_empty() {
            continue;
        }
        if let Some(pi) = l.strip_prefix("proc ") {
            let pi: usize = pi.parse().map_err(|_| ProfileParseError {
                line: ln,
                message: "bad proc index".into(),
            })?;
            if pi != per_proc.len() {
                return err(ln, "procs must appear in order");
            }
            per_proc.push(Vec::new());
        } else if let Some(rest) = l.strip_prefix("cache ") {
            let Some(pi) = per_proc.len().checked_sub(1) else {
                return err(ln, "cache before proc");
            };
            let counts: Vec<Option<u64>> =
                rest.split_whitespace().map(|t| t.parse().ok()).collect();
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
                .ok_or(ProfileParseError {
                    line: ln,
                    message: "bad window count".into(),
                })?;
            let mut window = Vec::new();
            for t in toks {
                let b: u32 = t.parse().map_err(|_| ProfileParseError {
                    line: ln,
                    message: "bad block id".into(),
                })?;
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
    Ok(Parsed {
        depth,
        windows: per_proc,
        stats,
    })
}

/// One procedure's trie as the old `from_windows` built it: keyed by the
/// reversed window, child links in a `HashMap`, parent links per node.
struct ProcTrie {
    child: HashMap<(u32, BlockId), u32>,
    /// `(parent, label)` of each node; the root's is unused.
    parent: Vec<(u32, BlockId)>,
    /// Maximal-window count of each node.
    counts: Vec<u64>,
    /// Count of each node plus its descendants (wrapping).
    subtree: Vec<u64>,
}

impl ProcTrie {
    fn build(windows: Vec<(Vec<BlockId>, u64)>) -> Self {
        let mut t = ProcTrie {
            child: HashMap::new(),
            parent: vec![(0, BlockId::new(0))],
            counts: vec![0],
            subtree: Vec::new(),
        };
        for (window, count) in windows {
            let mut cur = 0;
            for &b in window.iter().rev() {
                cur = match t.child.get(&(cur, b)) {
                    Some(&c) => c,
                    None => {
                        let id = t.parent.len() as u32;
                        t.parent.push((cur, b));
                        t.counts.push(0);
                        t.child.insert((cur, b), id);
                        id
                    }
                };
            }
            t.counts[cur as usize] = t.counts[cur as usize].wrapping_add(count);
        }
        t.subtree = t.counts.clone();
        for i in (1..t.parent.len()).rev() {
            let p = t.parent[i].0 as usize;
            t.subtree[p] = t.subtree[p].wrapping_add(t.subtree[i]);
        }
        t
    }

    fn lookup(&self, seq: &[BlockId]) -> Option<u32> {
        seq.iter()
            .rev()
            .try_fold(0, |cur, &b| self.child.get(&(cur, b)).copied())
    }

    /// The windows with a positive count.
    fn windows(&self) -> Vec<(Vec<BlockId>, u64)> {
        let mut out = Vec::new();
        for (n, &count) in self.counts.iter().enumerate() {
            if count > 0 {
                let mut window = Vec::new();
                let mut cur = n as u32;
                while cur != 0 {
                    let (p, b) = self.parent[cur as usize];
                    window.push(b);
                    cur = p;
                }
                out.push((window, count));
            }
        }
        out
    }
}

/// A path profile as the old codec held it.
pub struct OldPath {
    depth: usize,
    procs: Vec<ProcTrie>,
    stats: Vec<(u64, u64)>,
}

impl OldPath {
    /// The old `PathProfile::from_windows`.
    pub fn from_windows(depth: usize, windows: Windows) -> Self {
        let stats = vec![(0, 0); windows.len()];
        OldPath {
            depth,
            procs: windows.into_iter().map(ProcTrie::build).collect(),
            stats,
        }
    }

    /// What the old `path_from_text` returned for a parsed text.
    pub fn from_parsed(parsed: Parsed) -> Self {
        let mut profile = OldPath::from_windows(parsed.depth, parsed.windows);
        for (pid, hits, misses) in parsed.stats {
            profile.stats[pid.index()] = (hits, misses);
        }
        profile
    }

    /// The old `path_from_text`.
    pub fn parse(text: &str) -> Result<Self, ProfileParseError> {
        parse_path(text).map(OldPath::from_parsed)
    }

    /// Profile depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Procedures covered.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Transition-cache statistics of `proc`.
    pub fn cache_stats(&self, proc: ProcId) -> (u64, u64) {
        self.stats[proc.index()]
    }

    /// Trie nodes of `proc` other than the root.
    pub fn distinct_paths(&self, proc: ProcId) -> usize {
        self.procs[proc.index()].parent.len() - 1
    }

    /// `PathProfile::freq`.
    pub fn freq(&self, proc: ProcId, seq: &[BlockId]) -> u64 {
        let t = &self.procs[proc.index()];
        if seq.is_empty() {
            return 0;
        }
        t.lookup(seq).map_or(0, |n| t.subtree[n as usize])
    }

    /// `PathProfile::freq` of every non-empty suffix of `window`, shortest
    /// first: one walk of the reversed window.
    pub fn suffix_freqs(&self, proc: ProcId, window: &[BlockId]) -> Vec<u64> {
        let t = &self.procs[proc.index()];
        let mut out = Vec::with_capacity(window.len());
        let mut cur = Some(0);
        for &b in window.iter().rev() {
            cur = cur.and_then(|c| t.child.get(&(c, b)).copied());
            out.push(cur.map_or(0, |n| t.subtree[n as usize]));
        }
        out
    }

    /// `PathProfile::maximal_window_count`.
    pub fn window_count(&self, proc: ProcId, seq: &[BlockId]) -> u64 {
        let t = &self.procs[proc.index()];
        t.lookup(seq).map_or(0, |n| t.counts[n as usize])
    }

    /// Every window of `proc` with a positive count.
    pub fn windows(&self, proc: ProcId) -> Vec<(Vec<BlockId>, u64)> {
        self.procs[proc.index()].windows()
    }

    /// The old writer's text of this profile, with the cache statistics
    /// when `stats`.
    pub fn to_text(&self, stats: bool) -> String {
        let windows = self.procs.iter().map(ProcTrie::windows).collect();
        write_windows(self.depth, windows, stats.then_some(&self.stats[..]))
    }
}

/// The old `merge_paths`: window counts added (saturating) in a
/// `HashMap`, then the old `from_windows`. `None` where the shipped merge
/// reports a depth or shape mismatch.
pub fn merge_paths(a: &PathProfile, b: &PathProfile) -> Option<OldPath> {
    if a.depth() != b.depth() || a.num_procs() != b.num_procs() {
        return None;
    }
    let mut per_proc: Windows = Vec::with_capacity(a.num_procs());
    for pi in 0..a.num_procs() {
        let pid = ProcId::new(pi as u32);
        let mut counts: HashMap<Vec<BlockId>, u64> =
            a.iter_maximal_windows(pid).into_iter().collect();
        for (window, count) in b.iter_maximal_windows(pid) {
            let slot = counts.entry(window).or_insert(0);
            *slot = slot.saturating_add(count);
        }
        per_proc.push(counts.into_iter().collect());
    }
    Some(OldPath::from_windows(a.depth(), per_proc))
}

type Ranked = Vec<((ProcId, Vec<BlockId>), u64)>;

/// The old `top_k_windows`: every window materialized and sorted.
fn top_k_windows(profile: &PathProfile, k: usize) -> Ranked {
    let mut all: Ranked = Vec::new();
    for pi in 0..profile.num_procs() {
        let pid = ProcId::new(pi as u32);
        for (window, count) in profile.iter_maximal_windows(pid) {
            all.push(((pid, window), count));
        }
    }
    all.sort_by(|(ka, ca), (kb, cb)| cb.cmp(ca).then_with(|| ka.cmp(kb)));
    all.truncate(k);
    all
}

/// The old `path_drift`: its top-k selection, with the divergence summed
/// in rank order as the shipped one sums it.
pub fn path_drift(compiled: &PathProfile, live: &PathProfile, k: usize) -> DriftReport {
    let (top_c, top_l) = (top_k_windows(compiled, k), top_k_windows(live, k));
    let compared = top_c.len().min(top_l.len());
    if compared == 0 {
        return DriftReport {
            top_k_overlap: 1.0,
            weight_divergence: 0.0,
            score: 0.0,
            compared: 0,
        };
    }
    let set_c: HashMap<&(ProcId, Vec<BlockId>), u64> =
        top_c.iter().map(|(key, count)| (key, *count)).collect();
    let set_l: HashMap<&(ProcId, Vec<BlockId>), u64> =
        top_l.iter().map(|(key, count)| (key, *count)).collect();
    let shared = top_c
        .iter()
        .filter(|(key, _)| set_l.contains_key(key))
        .count();
    let top_k_overlap = shared as f64 / compared as f64;
    let mass_c: f64 = top_c.iter().map(|(_, c)| *c as f64).sum();
    let mass_l: f64 = top_l.iter().map(|(_, c)| *c as f64).sum();
    // The union in rank order (the compiled side's, then the live side's
    // others), so the sum is the same on every run.
    let only_live = top_l.iter().filter(|(key, _)| !set_c.contains_key(key));
    let mut divergence = 0.0;
    for (key, _) in top_c.iter().chain(only_live) {
        let pc = set_c.get(key).map_or(0.0, |&c| c as f64 / mass_c.max(1.0));
        let pl = set_l.get(key).map_or(0.0, |&c| c as f64 / mass_l.max(1.0));
        divergence += (pc - pl).abs();
    }
    let weight_divergence = (divergence / 2.0).clamp(0.0, 1.0);
    let score = 0.5 * (1.0 - top_k_overlap) + 0.5 * weight_divergence;
    DriftReport {
        top_k_overlap,
        weight_divergence,
        score,
        compared,
    }
}
