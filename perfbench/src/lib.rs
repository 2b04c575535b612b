//! `pps-bench`: one benchmark for the paper pipeline and the compile
//! daemon. See `README.md` next to this crate for the workloads, the
//! metric dictionary and how to run it.

pub mod accesslog;
pub mod calib;
pub mod mix;
pub mod offline;
pub mod report;
pub mod results;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One run's command line, already checked.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed the workload's inputs are drawn from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub traced: bool,
    /// The `pps-serve` executable, for the serve workloads.
    pub serve_bin: Option<PathBuf>,
    /// Working directory for port files and access logs.
    pub work_dir: PathBuf,
    /// Where a traced run writes its Chrome trace and self-time table.
    pub out_dir: Option<PathBuf>,
}

/// Runs `pass` once, then again while another pass of the mean length so
/// far still ends within `budget`. Only whole passes are measured, so every
/// pass has the same composition. Returns each pass's duration.
///
/// # Errors
/// The first error a pass returns.
pub fn passes<E>(
    budget: Duration,
    mut pass: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<Duration>, E> {
    let start = Instant::now();
    let mut durations: Vec<Duration> = Vec::new();
    loop {
        let t = Instant::now();
        pass(durations.len())?;
        durations.push(t.elapsed());
        let mean = start.elapsed() / durations.len() as u32;
        if start.elapsed() + mean > budget {
            return Ok(durations);
        }
    }
}

/// The trace's own figures: how much of the traced wall the layer spans
/// cover, and how much slower the traced work ran than the same work
/// untraced.
pub(crate) fn report_trace(report: &mut report::Report, tracer: &trace::Tracer, overhead_pct: f64) {
    if let Some(c) = trace::coverage(&tracer.spans()) {
        report.set("trace.coverage_pct", 100.0 * c);
    }
    report.set("trace.overhead_pct", overhead_pct);
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of process `pid` (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
