//! Clients of the compile service.
//!
//! ```text
//! pps-client loadgen --addr HOST:PORT [--conns N] [--requests M] ...
//! pps-client top --addr HOST:PORT [--interval-ms N] [--iterations N] [--watch-json]
//! pps-client ping --addr HOST:PORT
//! ```
//!
//! `loadgen` drives a running `pps-serve` daemon and verifies replies byte-for-byte against the in-process pipeline;
//! `top` is the live dashboard over a daemon's telemetry listener; `ping`
//! prints one health snapshot as JSON. See `pps-client <command> --help`.

use pps_obs::{Level, Obs, ObsConfig};
use pps_serve::loadgen::{self, LoadgenConfig};
use pps_serve::top::{self, TopConfig};
use pps_serve::{Client, Request, Response};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pps-client loadgen --addr HOST:PORT [options]  (see `loadgen --help`)\n\
         \x20      pps-client top --addr HOST:PORT [options]      (see `top --help`)\n\
         \x20      pps-client ping --addr HOST:PORT               (one health snapshot as JSON)"
    );
    ExitCode::from(2)
}

fn loadgen_usage() -> ! {
    eprintln!(
        "usage: pps-client loadgen --addr HOST:PORT [--conns N] [--requests M]\n\
         \x20                         [--bench NAME] [--scale N] [--scheme NAME]\n\
         \x20                         [--probe-malformed] [--shutdown] [--out FILE]\n\
         \x20                         [--drift]\n\
         \x20                         [--log-level off|error|warn|info|debug]\n\
         Drives a pps-serve daemon with a Profile/Compile/RunCell mix over N\n\
         concurrent connections, verifying every reply byte-for-byte against\n\
         the in-process pipeline. Busy replies, timeouts, and disconnects are\n\
         retried with bounded backoff: at most {} transport-fault attempts per\n\
         request and {} fault retries per run, and up to {} Busy\n\
         (backpressure) waits per request, which don't draw on the fault\n\
         budget. --probe-malformed also sends corrupt frames and asserts clean\n\
         rejection; --shutdown drains the daemon afterwards; --drift\n\
         phase-shifts the workload's profiles and waits up to {}s for a\n\
         continuous-PGO hot-swap (needs a daemon with --pgo on); --out writes\n\
         the report as JSON.",
        loadgen::MAX_ATTEMPTS,
        loadgen::RETRY_BUDGET,
        loadgen::BUSY_ATTEMPTS,
        loadgen::DRIFT_TIMEOUT.as_secs(),
    );
    std::process::exit(2);
}

/// `pps-client loadgen ...`: exit 0 only when every reply verified.
fn loadgen_main(args: &[String]) -> ExitCode {
    let mut config = LoadgenConfig::default();
    let mut out: Option<String> = None;
    let mut level = Level::Info;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = it.next().unwrap_or_else(|| loadgen_usage()).clone(),
            "--conns" => {
                config.conns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| loadgen_usage());
            }
            "--requests" => {
                config.requests =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| loadgen_usage());
            }
            "--bench" => config.bench = it.next().unwrap_or_else(|| loadgen_usage()).clone(),
            "--scale" => {
                config.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| loadgen_usage());
            }
            "--scheme" => {
                // Canonicalize up front (`pk2` -> `Pk2`) so the report and
                // every request carry the same name the daemon keys by.
                config.scheme = it
                    .next()
                    .and_then(|v| pps_core::Scheme::parse(v))
                    .unwrap_or_else(|| loadgen_usage())
                    .name();
            }
            "--probe-malformed" => config.probe_malformed = true,
            "--shutdown" => config.shutdown = true,
            "--drift" => config.drift = true,
            "--out" => out = Some(it.next().unwrap_or_else(|| loadgen_usage()).clone()),
            "--log-level" => {
                level = Level::parse(it.next().unwrap_or_else(|| loadgen_usage()))
                    .unwrap_or_else(|| loadgen_usage());
            }
            _ => loadgen_usage(),
        }
    }
    if config.addr.is_empty() {
        loadgen_usage();
    }

    let obs = Obs::recording(ObsConfig { level, trace: false, metrics: false });
    let report = match loadgen::run(&config, &obs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[loadgen error] {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "loadgen: {} ok, {} mismatches, {} errors, {} busy + {} transport retries \
         in {:.2}s ({:.1} req/s; p50 {:.1}ms p95 {:.1}ms p99 {:.1}ms max {:.1}ms; \
         probes {}/{})",
        report.ok,
        report.mismatches,
        report.errors,
        report.busy_retries,
        report.transport_retries,
        report.elapsed_s,
        report.throughput_rps,
        report.latency.p50,
        report.latency.p95,
        report.latency.p99,
        report.latency.max,
        report.probes_passed,
        report.probes_run,
    );
    if let Some(d) = &report.drift {
        println!(
            "loadgen drift: swap after {:.2}s ({} recompiles, {} swaps, {} rollbacks, \
             max generation {}, {} in flight at drain); runcell p50 {:.1}ms -> {:.1}ms",
            d.swap_wait_s,
            d.recompiles,
            d.swaps,
            d.rollbacks,
            d.max_generation,
            d.in_flight_final,
            d.phase_a_runcell.p50,
            d.phase_b_runcell.p50,
        );
    }
    for f in &report.failures {
        eprintln!("[loadgen failure] {f}");
    }
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, report.to_json(&config)) {
            eprintln!("[loadgen error] writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        obs.log(Level::Info, || format!("report written to {path}"));
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn top_usage() -> ! {
    eprintln!(
        "usage: pps-client top --addr HOST:PORT [--interval-ms N] [--iterations N]\n\
         \x20                     [--watch-json]\n\
         Live dashboard for a pps-serve daemon started with --telemetry-addr:\n\
         polls /metrics (validated Prometheus exposition; rps from counter\n\
         deltas) and /health (windowed rates + latency quantiles) every\n\
         interval. --watch-json emits one machine-readable JSON line per poll\n\
         (schema pps-top v1) instead of repainting; --iterations N exits after\n\
         N polls (useful for scripts and CI)."
    );
    std::process::exit(2);
}

/// `pps-client top ...`: exit 0 only while every poll scrapes cleanly.
fn top_main(args: &[String]) -> ExitCode {
    let mut config = TopConfig::default();
    let mut addr_set = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                config.addr = it.next().unwrap_or_else(|| top_usage()).clone();
                addr_set = true;
            }
            "--interval-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| top_usage());
                config.interval = Duration::from_millis(ms);
            }
            "--iterations" => {
                config.iterations = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .unwrap_or_else(|| top_usage()),
                );
            }
            "--watch-json" => config.json = true,
            _ => top_usage(),
        }
    }
    if !addr_set {
        top_usage();
    }
    let mut stdout = std::io::stdout();
    match top::run(&config, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[top error] {e}");
            ExitCode::FAILURE
        }
    }
}

/// `pps-client ping --addr HOST:PORT`: one PPSF `Ping` round-trip,
/// printing the daemon's raw health snapshot as one JSON line.
fn ping_main(args: &[String]) -> ExitCode {
    let ping_usage = || {
        eprintln!("usage: pps-client ping --addr HOST:PORT");
        ExitCode::from(2)
    };
    let addr = match args {
        [flag, addr] if flag == "--addr" => addr,
        _ => return ping_usage(),
    };
    let health = match Client::connect(addr, Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.request(Request::Ping).map_err(|e| e.to_string()))
    {
        Ok(Response::Pong { health }) => health,
        Ok(other) => {
            eprintln!("[ping error] expected Pong, got {}", other.outcome_name());
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("[ping error] {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"schema\":\"pps-ping\",\"queue_depth\":{},\"queue_capacity\":{},\
         \"workers\":{},\"connections\":{},\"requests\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"cache_evictions\":{},\"cache_invalidations\":{},\"cache_entries\":{},\
         \"recompiles\":{},\"swaps\":{}}}",
        health.queue_depth,
        health.queue_capacity,
        health.workers,
        health.connections,
        health.requests,
        health.cache_hits,
        health.cache_misses,
        health.cache_evictions,
        health.cache_invalidations,
        health.cache_entries,
        health.recompiles,
        health.swaps,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("loadgen") => loadgen_main(&args[1..]),
        Some("top") => top_main(&args[1..]),
        Some("ping") => ping_main(&args[1..]),
        _ => usage(),
    }
}
