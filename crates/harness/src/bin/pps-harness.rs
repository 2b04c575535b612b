//! Command-line experiment driver.
//!
//! ```text
//! pps-harness --experiment fig4 [--scale N] [--bench NAME] [--csv] [--mode strict|degrade]
//!             [--jobs N] [--profile-in DIR] [--profile-out DIR]
//!             [--trace-out FILE] [--metrics-out FILE] [--log-level LEVEL]
//! pps-harness --all
//! ```
//!
//! `--jobs N` runs each experiment's benchmark × scheme cells on N worker
//! threads (default: the machine's available parallelism); tables and
//! metrics output are byte-identical for every N. `--profile-out DIR`
//! saves each benchmark's training profiles (`pps_profile::serialize` text
//! formats) into DIR; `--profile-in DIR` loads them instead of re-running
//! the training input (with `--profile-out` too, misses fall back to
//! training and save — cache semantics). Only schemes that read a profile
//! save or load one: `BB` reads none, so `table1` writes no files. `--trace-out` writes a
//! Chrome-trace-event JSON file (open it at <https://ui.perfetto.dev>);
//! `--metrics-out` writes the metrics registry as JSON; `--log-level`
//! controls progress logging on stderr (off|error|warn|info|debug, default
//! info).
//!
//! The compile service's clients (`loadgen`, `top`, `ping`) live in the
//! `pps-client` binary of `pps-serve`; this crate does not link the daemon.

use pps_core::GuardMode;
use pps_harness::experiments::{run_experiment_jobs_config, EXPERIMENTS};
use pps_harness::pool::default_jobs;
use pps_harness::runner::RunConfig;
use pps_obs::{Level, Obs, ObsConfig};
use pps_suite::Scale;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: pps-harness --experiment <id> [--scale N] [--bench NAME] [--csv] [--mode strict|degrade]\n\
         \x20                  [--jobs N] [--profile-in DIR] [--profile-out DIR]\n\
         \x20                  [--trace-out FILE] [--metrics-out FILE] [--log-level off|error|warn|info|debug]\n\
         \x20      pps-harness --all [--scale N] [--csv] [--mode strict|degrade] [--jobs N]\n\
         experiments: {}\n\
         modes: strict  = abort on the first pipeline incident (CI, paper tables)\n\
         \x20      degrade = fall back to basic-block scheduling per failed procedure (default)\n\
         parallelism: --jobs runs benchmark x scheme cells on N worker threads\n\
         \x20           (default: available parallelism; output is identical for every N)\n\
         profiles: --profile-out saves training profiles; --profile-in reuses them\n\
         \x20         (only schemes that read profiles: table1's BB saves and loads none)\n\
         observability: --trace-out writes Chrome-trace JSON (view in Perfetto);\n\
         \x20             --metrics-out writes the counters/histograms registry as JSON",
        EXPERIMENTS.join(", ")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
    let mut scale = Scale::paper();
    let mut bench: Option<String> = None;
    let mut csv = false;
    let mut all = false;
    let mut mode = GuardMode::Degrade;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut level = Level::Info;
    let mut jobs = default_jobs();
    let mut profile_in: Option<String> = None;
    let mut profile_out: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--experiment" | "-e" => {
                experiment = Some(it.next().unwrap_or_else(|| usage()).clone());
            }
            "--scale" | "-s" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = Scale(v.parse().unwrap_or_else(|_| usage()));
            }
            "--bench" | "-b" => {
                bench = Some(it.next().unwrap_or_else(|| usage()).clone());
            }
            "--mode" | "-m" => match it.next().unwrap_or_else(|| usage()).as_str() {
                "strict" => mode = GuardMode::Strict,
                "degrade" => mode = GuardMode::Degrade,
                _ => usage(),
            },
            "--jobs" | "-j" => {
                let v = it.next().unwrap_or_else(|| usage());
                jobs = v.parse().unwrap_or_else(|_| usage());
                if jobs == 0 {
                    usage();
                }
            }
            "--profile-in" => profile_in = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--profile-out" => profile_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--trace-out" => trace_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--metrics-out" => metrics_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--log-level" => {
                level = Level::parse(it.next().unwrap_or_else(|| usage()))
                    .unwrap_or_else(|| usage());
            }
            "--csv" => csv = true,
            "--all" => all = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let ids: Vec<&str> = if all {
        EXPERIMENTS.to_vec()
    } else {
        match &experiment {
            Some(e) if EXPERIMENTS.contains(&e.as_str()) => vec![e.as_str()],
            Some(e) => {
                eprintln!("unknown experiment `{e}`");
                usage();
            }
            None => usage(),
        }
    };

    // Recording is selected per sink: spans/events only when --trace-out is
    // given, metrics only when --metrics-out is given. Logging always goes
    // through the same handle so `--log-level` governs all progress output.
    let obs = Obs::recording(ObsConfig {
        level,
        trace: trace_out.is_some(),
        metrics: metrics_out.is_some(),
    });

    let mut config = RunConfig::paper();
    config.guard.mode = mode;
    config.profile_in = profile_in;
    config.profile_out = profile_out;

    let code = run_experiments(&ids, scale, bench.as_deref(), &config, jobs, csv, &obs);

    // Exports happen even when a run failed: a trace of the failure is
    // exactly what the flag was for.
    let mut export_failed = false;
    if let Some(path) = &trace_out {
        match obs.write_trace(path) {
            Ok(_) => obs.log(Level::Info, || format!("trace written to {path}")),
            Err(e) => {
                eprintln!("[pps error] writing trace to {path}: {e}");
                export_failed = true;
            }
        }
    }
    if let Some(path) = &metrics_out {
        match obs.write_metrics(path) {
            Ok(_) => obs.log(Level::Info, || format!("metrics written to {path}")),
            Err(e) => {
                eprintln!("[pps error] writing metrics to {path}: {e}");
                export_failed = true;
            }
        }
    }
    if export_failed {
        return ExitCode::FAILURE;
    }
    code
}

/// Runs every selected experiment under one root span, printing each table
/// as text or CSV.
fn run_experiments(
    ids: &[&str],
    scale: Scale,
    bench: Option<&str>,
    config: &RunConfig,
    jobs: usize,
    csv: bool,
    obs: &Obs,
) -> ExitCode {
    let _root = obs.span("pps-harness").arg("experiments", ids.len());
    for id in ids {
        let mode = config.guard.mode;
        obs.log(Level::Info, || {
            format!("running {id} at scale {} (mode {mode}, jobs {jobs}) ...", scale.0)
        });
        let start = std::time::Instant::now();
        let tables = match run_experiment_jobs_config(id, scale, bench, config, jobs, obs) {
            Ok(tables) => tables,
            Err(e) => {
                obs.log(Level::Error, || format!("{id} failed: {e}"));
                return ExitCode::FAILURE;
            }
        };
        for t in &tables {
            if csv {
                print!("{}", t.to_csv());
            } else {
                println!("{}", t.render());
            }
        }
        obs.log(Level::Info, || {
            format!("{id} done in {:.1}s", start.elapsed().as_secs_f64())
        });
    }
    ExitCode::SUCCESS
}
