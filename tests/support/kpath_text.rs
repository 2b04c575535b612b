//! The k-path text parser: reads what
//! `pps::profile::serialize::kpath_to_text` writes back into a
//! `KPathProfile`, so tests can check that the canonical text is a
//! fixpoint and that `kpath_hash` survives a rebuild from text.

use pps::ir::BlockId;
use pps::profile::serialize::ProfileParseError;
use pps::profile::KPathProfile;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ProfileParseError> {
    Err(ProfileParseError { line, message: message.into() })
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
