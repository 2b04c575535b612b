//! The path-profile codec on the frozen trie (`pps::profile::{serialize,
//! hash, merge}`) against the window-based codec it replaced
//! (`old_codec`): the same text bytes, hashes, loaded profiles, merges and
//! drift reports on every suite benchmark, on generated programs, at the
//! `u64` ceiling, and on a seeded corpus of mutated profile texts, where
//! both parsers must accept the same inputs and reject the rest with the
//! same error.

mod old_codec;

use old_codec::{OldPath, Windows};
use pps::eval::runner::train;
use pps::ir::{BlockId, ProcId};
use pps::profile::hash::profile_text_hash;
use pps::profile::serialize::{
    edge_to_text, kpath_to_text, path_from_text, path_to_text, path_to_text_with_stats,
};
use pps::profile::{
    edge_hash, kpath_hash, merge_paths, path_drift, path_hash, EdgeProfile, KPathProfile,
    PathProfile,
};
use pps::suite::{all_benchmarks, benchmark_by_name, Scale};
use pps::testgen::{gen_program, GenConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn windows_of(profile: &PathProfile) -> Windows {
    (0..profile.num_procs())
        .map(|pi| profile.iter_maximal_windows(ProcId::new(pi as u32)))
        .collect()
}

/// Asserts that `new`, a profile the shipped codec built, is the profile
/// `old` the old codec built: depth, cache statistics, distinct paths, the
/// canonical text, and the count and frequency of every window of `old`'s
/// and of `probes` (zero counts too), and with `suffixes` the frequency of
/// every suffix of each.
fn assert_same(
    new: &PathProfile,
    old: &OldPath,
    probes: Option<&Windows>,
    suffixes: bool,
    what: &str,
) {
    assert_eq!(new.depth(), old.depth(), "{what}: depth");
    assert_eq!(new.num_procs(), old.num_procs(), "{what}: procedures");
    for pi in 0..new.num_procs() {
        let pid = ProcId::new(pi as u32);
        assert_eq!(
            new.cache_stats(pid),
            old.cache_stats(pid),
            "{what}: {pid} cache"
        );
        assert_eq!(
            new.distinct_paths(pid),
            old.distinct_paths(pid),
            "{what}: {pid} paths"
        );
        let probed = probes
            .and_then(|p| p.get(pi))
            .into_iter()
            .flatten()
            .cloned();
        for (window, _) in old.windows(pid).into_iter().chain(probed) {
            let count = old.window_count(pid, &window);
            assert_eq!(
                new.maximal_window_count(pid, &window),
                count,
                "{what}: {window:?}"
            );
            let want = old.suffix_freqs(pid, &window);
            let whole = want.len() - 1;
            for (i, want) in want
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| suffixes || i == whole)
            {
                let suffix = &window[window.len() - 1 - i..];
                assert_eq!(
                    new.freq(pid, suffix),
                    want,
                    "{what}: {pid} suffix {suffix:?}"
                );
            }
        }
    }
    assert!(
        path_to_text(new) == old.to_text(false),
        "{what}: canonical text"
    );
}

/// The weight inversion `pps-client loadgen --drift` carries: every
/// window's count becomes `(max + 1 - count) * 100`.
fn inverted(path: &PathProfile) -> PathProfile {
    let per_proc = windows_of(path)
        .into_iter()
        .map(|windows| {
            let max = windows.iter().map(|(_, c)| *c).max().unwrap_or(0);
            windows
                .into_iter()
                .map(|(w, c)| (w, (max + 1 - c).saturating_mul(100)))
                .collect()
        })
        .collect();
    PathProfile::from_windows(path.depth(), per_proc)
}

/// Every codec operation on `path` against the old codec; merges and
/// drift reports (with the profile's inversion, and itself) when `merges`.
fn check_path(path: &PathProfile, merges: bool, what: &str) {
    let text = path_to_text(path);
    let saved = path_to_text_with_stats(path);
    assert!(
        text == old_codec::write_path(path, false),
        "{what}: canonical text"
    );
    assert!(
        saved == old_codec::write_path(path, true),
        "{what}: saved text"
    );
    assert_eq!(path_hash(path), profile_text_hash(&text), "{what}: hash");

    let new = path_from_text(&text).unwrap();
    let old = OldPath::parse(&text).unwrap();
    assert_same(&new, &old, None, true, &format!("{what}: text loaded"));
    let (new, old) = (
        path_from_text(&saved).unwrap(),
        OldPath::parse(&saved).unwrap(),
    );
    for pi in 0..new.num_procs() {
        let pid = ProcId::new(pi as u32);
        assert_eq!(
            new.cache_stats(pid),
            old.cache_stats(pid),
            "{what}: {pid} cache"
        );
    }
    assert!(
        path_to_text_with_stats(&new) == old.to_text(true),
        "{what}: saved text loaded"
    );
    let windows = windows_of(path);
    let new = PathProfile::from_windows(path.depth(), windows.clone());
    assert_same(
        &new,
        &OldPath::from_windows(path.depth(), windows),
        None,
        false,
        what,
    );
    if !merges {
        return;
    }

    let inv = inverted(path);
    for (a, b, pair) in [
        (path, path, "self"),
        (path, &inv, "inverted"),
        (&inv, path, "reversed"),
    ] {
        let old = old_codec::merge_paths(a, b).unwrap();
        let new = merge_paths(a, b).unwrap();
        assert_same(&new, &old, None, false, &format!("{what}: {pair} merge"));
    }
    for k in [0, 1, 16, 1000] {
        assert_eq!(
            path_drift(path, &inv, k),
            old_codec::path_drift(path, &inv, k),
            "{what}: k={k}"
        );
        assert_eq!(
            path_drift(&inv, path, k),
            old_codec::path_drift(&inv, path, k),
            "{what}: k={k}"
        );
    }
}

fn check_edge(edge: &EdgeProfile, what: &str) {
    let old = old_codec::edge_to_text(edge);
    assert!(edge_to_text(edge) == old, "{what}: edge text");
    assert_eq!(
        edge_hash(edge),
        profile_text_hash(&old),
        "{what}: edge hash"
    );
}

fn check_kpath(kpath: &KPathProfile, what: &str) {
    let old = old_codec::kpath_to_text(kpath);
    assert!(kpath_to_text(kpath) == old, "{what}: k-path text");
    assert_eq!(
        kpath_hash(kpath),
        profile_text_hash(&old),
        "{what}: k-path hash"
    );
}

/// Trains `program` at path `depth`, or as a k-path derived profile at
/// depth 15 when `k` is given, and checks the profiles it gets; merges
/// and drift too when `merges`.
fn check_trained(
    program: &pps::ir::Program,
    args: &[i64],
    depth: usize,
    k: Option<u32>,
    merges: bool,
    name: &str,
) {
    let trained = train(program, args, depth, k).unwrap();
    let what = format!("{name} depth {depth} k {k:?}");
    match &trained.kpath {
        Some(kpath) => check_kpath(kpath, &what),
        None => check_edge(&trained.edge, &what),
    }
    check_path(&trained.path, merges, &what);
}

// The suite at scale 1, split so the tests run side by side. Merges and
// drift reports are checked on every benchmark but gcc, whose depth-15
// profile (a 3.7 MB text) takes minutes through the old codec in a debug
// build; gcc's are checked at depth 1.

#[test]
fn trie_codec_matches_the_window_codec_on_the_suite_at_depths_1_and_4() {
    for bench in all_benchmarks(Scale::quick()) {
        for depth in [1, 4] {
            let merges = depth == 1 && bench.name == "gcc";
            check_trained(
                &bench.program,
                &bench.train_args,
                depth,
                None,
                merges,
                bench.name,
            );
        }
    }
}

#[test]
fn trie_codec_matches_the_window_codec_on_the_suite_at_depth_15() {
    for bench in all_benchmarks(Scale::quick()) {
        let merges = bench.name != "gcc";
        check_trained(
            &bench.program,
            &bench.train_args,
            15,
            None,
            merges,
            bench.name,
        );
    }
}

#[test]
fn trie_codec_matches_the_window_codec_on_the_suite_k_paths() {
    for bench in all_benchmarks(Scale::quick()) {
        for k in [2, 3] {
            let merges = k == 2 && bench.name != "gcc";
            check_trained(
                &bench.program,
                &bench.train_args,
                15,
                Some(k),
                merges,
                bench.name,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn trie_codec_matches_the_window_codec_on_random_programs(seed in 0u64..100_000) {
        let program = gen_program(seed, GenConfig::default());
        let what = format!("seed {seed}");
        for depth in [1, 4, 15] {
            check_trained(&program, &[], depth, None, depth == 15, &what);
        }
        for k in [2, 3] {
            check_trained(&program, &[], 15, Some(k), k == 2, &what);
        }
    }
}

fn trained_wc(depth: usize) -> PathProfile {
    let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
    train(&bench.program, &bench.train_args, depth, None)
        .unwrap()
        .path
}

#[test]
fn merges_saturate_at_the_ceiling_and_drop_zero_counts() {
    let path = trained_wc(15);
    // Counts just under `u64::MAX`: a self-merge saturates every window.
    let per_proc = windows_of(&path)
        .into_iter()
        .map(|ws| {
            ws.into_iter()
                .enumerate()
                .map(|(i, (w, _))| (w, u64::MAX - i as u64))
                .collect()
        })
        .collect();
    let huge = PathProfile::from_windows(15, per_proc);
    for (a, b) in [(&huge, &huge), (&huge, &path), (&path, &huge)] {
        let old = old_codec::merge_paths(a, b).unwrap();
        assert_same(
            &merge_paths(a, b).unwrap(),
            &old,
            None,
            true,
            "ceiling merge",
        );
    }

    // A text with `window 0` lines: new windows, extensions of recorded
    // ones, and recorded ones again. Loading keeps their trie nodes; a
    // merge drops every subtree without a positive count.
    let text = path_to_text(&path);
    let mut zeros = String::new();
    for (i, line) in text.lines().enumerate() {
        zeros.push_str(line);
        zeros.push('\n');
        if let Some(rest) = line.strip_prefix("window ") {
            let blocks = rest.split_once(' ').unwrap().1;
            match i % 3 {
                0 => zeros.push_str(&format!("window 0 {blocks}\n")),
                1 => zeros.push_str(&format!("window 0 7 {blocks}\n")),
                _ => zeros.push_str(&format!("window 0 {} 9 9\n", 1000 + i)),
            }
        }
    }
    let loaded = path_from_text(&zeros).unwrap();
    let parsed = old_codec::parse_path(&zeros).unwrap();
    let probes = parsed.windows.clone();
    assert_same(
        &loaded,
        &OldPath::from_parsed(parsed),
        Some(&probes),
        true,
        "zero-count text",
    );
    let pid = ProcId::new(0);
    assert!(
        loaded.distinct_paths(pid) > path.distinct_paths(pid),
        "no zero-count node was loaded"
    );
    for (a, b) in [(&loaded, &loaded), (&loaded, &path), (&path, &loaded)] {
        let merged = merge_paths(a, b).unwrap();
        let old = old_codec::merge_paths(a, b).unwrap();
        assert_same(&merged, &old, Some(&probes), true, "zero-count merge");
        assert_eq!(merged.distinct_paths(pid), path.distinct_paths(pid));
    }
}

/// One random edit of a profile text: the damage a file or a client can
/// do to it.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let pick = |rng: &mut StdRng| rng.gen_range(0..lines.len());
    let mut owned: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    match rng.gen_range(0..12u32) {
        // Truncation.
        0 => {
            let mut cut = rng.gen_range(0..=text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_string();
        }
        // A byte flip to a character a parser must think about.
        1 => {
            const PALETTE: [char; 14] = [
                '0', '9', ' ', '\t', '\n', '\r', 'x', '+', '-', 'w', '\u{b}', '\u{c}', '#', 'p',
            ];
            let mut bytes: Vec<char> = text.chars().collect();
            if !bytes.is_empty() {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = PALETTE[rng.gen_range(0..PALETTE.len())];
            }
            return bytes.into_iter().collect();
        }
        // CRLF line ends, everywhere or on one line.
        2 => {
            if rng.gen_bool(0.5) {
                return text.replace('\n', "\r\n");
            }
            let l = pick(rng);
            owned[l].push('\r');
        }
        // Tabs and runs of spaces between tokens; Unicode spaces too.
        3 => {
            let l = pick(rng);
            let sep = [
                "\t", "   ", " \t ", "\u{3000}", "\u{a0}", "\u{2028}", "\u{feff}",
            ];
            let sep = sep[rng.gen_range(0..sep.len())];
            owned[l] = owned[l].replacen(' ', sep, rng.gen_range(1..4));
            if rng.gen_bool(0.3) {
                owned[l] = format!("{sep}{}{sep}", owned[l]);
            }
        }
        // Procedures out of order, repeated or renumbered.
        4 => {
            let procs: Vec<usize> = (0..owned.len())
                .filter(|&i| owned[i].starts_with("proc "))
                .collect();
            if let Some(&l) = procs.get(rng.gen_range(0..procs.len().max(1))) {
                let edits = [
                    "proc 0", "proc 1", "proc 01", "proc +1", "proc 5", "proc -1", "proc",
                ];
                owned[l] = edits[rng.gen_range(0..edits.len())].to_string();
            }
        }
        // Block ids and counts at and past the integer limits, signed or
        // zero-padded.
        5 => {
            let l = pick(rng);
            let toks: Vec<&str> = owned[l].split(' ').collect();
            if toks.len() > 1 {
                let at = rng.gen_range(1..toks.len());
                let values = [
                    "4294967295",
                    "4294967296",
                    "18446744073709551615",
                    "18446744073709551616",
                    "+7",
                    "007",
                    "0",
                    "-3",
                ];
                let mut toks: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
                toks[at] = values[rng.gen_range(0..values.len())].to_string();
                owned[l] = toks.join(" ");
            }
        }
        // `cache` lines in odd places, well-formed or not.
        6 => {
            let cache = [
                "cache 3 4",
                "cache 1",
                "cache 1 2 3",
                "cache x 2",
                "cache +1 0",
                "cache",
            ];
            let at = rng.gen_range(0..=owned.len());
            owned.insert(at, cache[rng.gen_range(0..cache.len())].to_string());
        }
        // A deleted, duplicated or emptied line.
        7 => {
            let l = pick(rng);
            match rng.gen_range(0..3u32) {
                0 => {
                    owned.remove(l);
                }
                1 => owned.insert(l, owned[l].clone()),
                _ => owned[l].clear(),
            }
        }
        // Zero-count and single-block windows.
        8 => {
            let at = rng.gen_range(1..=owned.len());
            let w = [
                "window 0 1 2",
                "window 0 3",
                "window 5 3",
                "window 2",
                "window",
            ];
            owned.insert(at, w[rng.gen_range(0..w.len())].to_string());
        }
        // Header damage.
        9 => {
            let h = [
                "pps-path-profile v1 depth +4",
                "pps-path-profile v1 depth 04",
                "pps-path-profile v1 depth  4",
                "pps-path-profile v2 depth 4",
                "",
                "  pps-path-profile v1 depth 4  ",
            ];
            owned[0] = h[rng.gen_range(0..h.len())].to_string();
        }
        // A line of another format.
        10 => {
            let l = pick(rng);
            let other = [
                "edge 1 2 3",
                "block 1 2",
                "path 3 1 2",
                "windows 1 2",
                "Window 1 2",
            ];
            owned[l] = other[rng.gen_range(0..other.len())].to_string();
        }
        // Two lines swapped.
        _ => {
            let (a, b) = (pick(rng), pick(rng));
            owned.swap(a, b);
        }
    }
    let mut out = owned.join("\n");
    if text.ends_with('\n') && rng.gen_bool(0.8) {
        out.push('\n');
    }
    out
}

#[test]
fn both_parsers_accept_and_reject_the_same_mutated_texts() {
    let mut seeds = Vec::new();
    for (name, depth) in [("wc", 4), ("com", 2), ("eqn", 1)] {
        let bench = benchmark_by_name(name, Scale::quick()).unwrap();
        let path = train(&bench.program, &bench.train_args, depth, None)
            .unwrap()
            .path;
        seeds.push(path_to_text_with_stats(&path));
        seeds.push(path_to_text(&path));
    }
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..600 {
        let mut text = seeds[i % seeds.len()].clone();
        for _ in 0..rng.gen_range(1..4u32) {
            text = mutate(&mut rng, &text);
        }
        match (path_from_text(&text), old_codec::parse_path(&text)) {
            (Ok(new), Ok(parsed)) => {
                accepted += 1;
                let probes = parsed.windows.clone();
                assert_same(
                    &new,
                    &OldPath::from_parsed(parsed),
                    Some(&probes),
                    true,
                    "mutant",
                );
            }
            (Err(new), Err(old)) => {
                rejected += 1;
                assert_eq!(new, old, "mutant {i}:\n{text}");
            }
            (new, old) => panic!(
                "mutant {i}: shipped {:?}, old {:?}\n{text}",
                new.err(),
                old.err()
            ),
        }
    }
    assert!(
        accepted >= 100 && rejected >= 100,
        "accepted {accepted}, rejected {rejected}"
    );
}

#[test]
fn parsers_agree_on_hand_picked_edge_cases() {
    let cases = [
        "",
        "\n",
        "pps-path-profile v1 depth 4",
        "pps-path-profile v1 depth 4\r\nproc 0\r\nwindow 3 1 2\r\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow\u{3000}3 1\u{a0}2\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow 3\u{b}1\u{c}2\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow 3 1\u{1f}2\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow +3 +1 002\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow 3 4294967295 0\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow 3 4294967296\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow 18446744073709551615 1\nwindow 1 1\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow 2 1 2\nwindow 5 1 2\nwindow 0 3\n",
        "pps-path-profile v1 depth 4\nproc 0\ncache 1 2\ncache 3 4\nproc 1\nwindow 1 1\n",
        "pps-path-profile v1 depth 4\nproc 1\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow x 1\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow 1 1 y\n",
        "pps-path-profile v1 depth 4\nproc 0\nwindow 1 \n",
        "pps-path-profile v1 depth 4\nproc 0\ncache 1 2 \n",
        "pps-path-profile v1 depth 4\nproc 0\ncache 1\t2\n",
    ];
    for text in cases {
        match (path_from_text(text), old_codec::parse_path(text)) {
            (Ok(new), Ok(parsed)) => {
                let probes = parsed.windows.clone();
                assert_same(
                    &new,
                    &OldPath::from_parsed(parsed),
                    Some(&probes),
                    true,
                    text,
                );
            }
            (Err(new), Err(old)) => assert_eq!(new, old, "{text:?}"),
            (new, old) => panic!("{text:?}: shipped {:?}, old {:?}", new.err(), old.err()),
        }
    }
    // The block-id buffer is reused across lines, never carried over.
    let p = path_from_text("pps-path-profile v1 depth 4\nproc 0\nwindow 1 5 6 7\nwindow 2 8\n");
    let p = p.unwrap();
    let w: Vec<BlockId> = [8].map(BlockId::new).to_vec();
    assert_eq!(p.maximal_window_count(ProcId::new(0), &w), 2);
}
