//! Result sets: printing them, and comparing them with the bounds
//! `BENCHMARK.json` fixes.
//!
//! A result set is a directory of run result lines, one file per run:
//! `<workload>.json` for an untraced run and `<workload>.traced.json` for
//! a traced one; `<workload>.<tag>.json` and `<workload>.traced.<tag>.json`
//! add more runs of the same kind. Chrome traces (`*.trace.json`) beside
//! them are skipped.

use crate::report::{RunResult, Spec};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// Per-layer metrics the same code must reproduce exactly on any host.
pub const EXACT: &[&str] = &[
    "profile.path_text_bytes",
    "core.oracle_runs",
    "core.incidents",
    "core.superblocks",
    "core.tail_dup_blocks",
    "core.enlarged_blocks",
    "compact.static_instrs",
    "compact.code_growth_p4",
    "sim.icache_miss_rate",
    "sim.cycles_p4_over_m4",
    "sim.cycles_px4_over_m4",
];

/// Runs of one workload.
#[derive(Debug, Default)]
pub struct Runs {
    /// Untraced runs.
    pub untraced: Vec<RunResult>,
    /// Traced runs.
    pub traced: Vec<RunResult>,
}

impl Runs {
    /// Every value of `metric` across the untraced or traced runs.
    pub fn values(&self, metric: &str, traced: bool) -> Vec<f64> {
        let runs = if traced { &self.traced } else { &self.untraced };
        runs.iter()
            .filter_map(|r| r.values.get(metric).copied())
            .collect()
    }
}

/// Groups result files by workload (the file name up to its first dot).
///
/// # Errors
/// A file that cannot be read or parsed.
pub fn load_files<P: AsRef<Path>>(files: &[P]) -> Result<BTreeMap<String, Runs>, String> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for f in files {
        let f = f.as_ref();
        let name = f.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if name.ends_with(".trace.json") {
            continue;
        }
        let Some(workload) = name.strip_suffix(".json").and_then(|n| n.split('.').next()) else {
            continue;
        };
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let last = text.lines().last().unwrap_or_default();
        let run = RunResult::parse(last).map_err(|e| format!("{}: {e}", f.display()))?;
        let runs = out.entry(workload.to_string()).or_default();
        if name.contains(".traced") {
            runs.traced.push(run);
        } else {
            runs.untraced.push(run);
        }
    }
    Ok(out)
}

/// Every `*.json` result file in `dir`.
///
/// # Errors
/// The directory cannot be read, or a file cannot be parsed.
pub fn load_dir(dir: &Path) -> Result<BTreeMap<String, Runs>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    load_files(&files)
}

/// Every metric of a result set as `name workload value unit` lines:
/// end-to-end metrics from the untraced runs, per-layer metrics from the
/// traced runs (medians when a set holds several), then each workload's
/// failed operations and whether its checks passed.
pub fn summary(spec: &Spec, runs: &BTreeMap<String, Runs>) -> String {
    let mut out = String::new();
    for w in &spec.workloads {
        let Some(r) = runs.get(w) else { continue };
        for (metrics, traced) in [(&spec.end_to_end, false), (&spec.per_layer, true)] {
            for m in metrics {
                if let Some(v) = stats::median(&r.values(&m.name, traced)) {
                    out += &format!("{} {w} {v} {}\n", m.name, m.unit);
                }
            }
        }
        let all = r.untraced.iter().chain(&r.traced);
        let failed: u64 = all.clone().map(|x| x.failed).sum();
        out += &format!("failed_ops {w} {failed} count\n");
        out += &format!("correct {w} {} bool\n", all.clone().all(|x| x.correct));
    }
    out
}

/// Compares set `b` with set `a`, metric by metric and workload by
/// workload: an end-to-end metric agrees when the medians differ by at
/// most its bound, an exact per-layer metric when they are equal. Returns
/// the table and whether everything agreed.
pub fn agree(
    spec: &Spec,
    a: &BTreeMap<String, Runs>,
    b: &BTreeMap<String, Runs>,
) -> (String, bool) {
    let mut out = format!(
        "{:<26} {:<11} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "metric", "workload", "A", "B", "B/A-1", "bound"
    );
    let mut all = true;
    let rows = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.bound, false))
        .chain(EXACT.iter().map(|&m| (m, Some(0.0), true)));
    for (metric, bound, traced) in rows {
        for w in &spec.workloads {
            let (Some(ra), Some(rb)) = (a.get(w), b.get(w)) else {
                continue;
            };
            let (Some(va), Some(vb)) = (
                stats::median(&ra.values(metric, traced)),
                stats::median(&rb.values(metric, traced)),
            ) else {
                continue;
            };
            let bound = bound.unwrap_or(0.0);
            let rel = if va == 0.0 {
                if vb == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                vb / va - 1.0
            };
            let ok = if traced { va == vb } else { rel.abs() <= bound };
            all &= ok;
            out += &format!(
                "{metric:<26} {w:<11} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%  {}\n",
                100.0 * rel,
                100.0 * bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    (out, all)
}

/// Run-to-run spread of each end-to-end metric: the distance between the
/// quartiles as a share of the median, against the metric's bound.
/// `setup_s` is only reported. Returns the table and whether every other
/// spread stays within its bound.
pub fn spread(spec: &Spec, runs: &BTreeMap<String, Runs>) -> (String, bool) {
    let mut out = format!(
        "{:<12} {:<12} {:>4} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    let mut all = true;
    for (w, r) in runs {
        for m in &spec.end_to_end {
            let values = r.values(&m.name, false);
            let (Some(median), Some(spread)) = (stats::median(&values), stats::spread(&values))
            else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else if m.name == "setup_s" {
                "wide (not gated)"
            } else {
                all = false;
                "TOO WIDE"
            };
            out += &format!(
                "{w:<12} {:<12} {:>4} {median:>14.4} {:>7.2}% {:>6.1}%  {verdict}\n",
                m.name,
                values.len(),
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    (out, all)
}
