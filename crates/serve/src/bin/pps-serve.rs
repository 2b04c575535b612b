//! The compile-service daemon.
//!
//! ```text
//! pps-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!           [--port-file FILE] [--metrics-out FILE] [--log-level LEVEL]
//!           [--telemetry-addr HOST:PORT] [--telemetry-port-file FILE]
//!           [--access-log FILE] [--cache-cap N]
//! ```
//!
//! Binds the address (default `127.0.0.1:0` — an ephemeral port), prints
//! `listening on ADDR`, optionally writes the bound address to
//! `--port-file` (atomically, for scripts to poll), and serves until
//! SIGTERM/SIGINT or an in-band `Shutdown` request, draining accepted work
//! before exiting. `--metrics-out` writes the `serve.*` request counters
//! and latency/queue-depth histograms as JSON on exit.
//!
//! `--telemetry-addr` starts the live-telemetry HTTP listener
//! (`/metrics`, `/health`, `/trace` — see README §Live telemetry);
//! `--access-log` writes one JSON line per reply. Either flag switches the
//! telemetry layer on; replies stay byte-identical either way.

use pps_obs::{Level, Obs, ObsConfig};
use pps_serve::cache::CompileCache;
use pps_serve::pgo::{PgoConfig, PgoFault, PgoRuntime, PgoState};
use pps_serve::server::{serve, write_port_file, ServeConfig};
use pps_serve::service::PipelineHandler;
use pps_serve::telemetry::{Telemetry, TelemetryConfig};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: pps-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]\n\
         \x20               [--port-file FILE] [--metrics-out FILE] [--log-level off|error|warn|info|debug]\n\
         \x20               [--telemetry-addr HOST:PORT] [--telemetry-port-file FILE]\n\
         \x20               [--access-log FILE]\n\
         \x20               [--pgo on|off] [--pgo-interval-ms N] [--pgo-min-samples N]\n\
         \x20               [--pgo-cooldown-ms N] [--pgo-fault none|panic|corrupt]\n\
         \x20               [--cache-cap N]\n\
         Serves Profile/Compile/RunCell requests over the PPSF framed protocol.\n\
         Replies are cached by content address (program x profiles x scheme x\n\
         machine); --cache-cap bounds the resident replies (default 128; 0 =\n\
         no replies and no memo of trained state). One store holds replies,\n\
         trained state and PGO profiles per (benchmark, scale, profile kind),\n\
         within a fixed byte budget, evicting least recently used keys.\n\
         --telemetry-addr exposes /metrics (Prometheus text), /health (JSON),\n\
         and /trace (tail-sampled spans) over HTTP; --access-log writes one\n\
         JSON line per reply. Replies are byte-identical with telemetry on.\n\
         With --pgo on (default), live profiles are aggregated, drifted units\n\
         are recompiled in the background, and verified rebuilds hot-swap in\n\
         atomically (see README \u{a7}Continuous PGO).\n\
         Stop with SIGTERM, SIGINT, or an in-band Shutdown request; accepted\n\
         work is drained before exit."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServeConfig::default();
    let mut port_file: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut telemetry_addr: Option<String> = None;
    let mut telemetry_port_file: Option<String> = None;
    let mut access_log: Option<String> = None;
    let mut level = Level::Info;
    let mut pgo_enabled = true;
    let mut pgo = PgoConfig::default();
    let mut cache_cap: usize = pps_serve::cache::DEFAULT_CAPACITY;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pgo" => {
                pgo_enabled = match it.next().map(String::as_str) {
                    Some("on") => true,
                    Some("off") => false,
                    _ => usage(),
                };
            }
            "--pgo-interval-ms" => {
                let ms: u64 = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                pgo.interval = Duration::from_millis(ms.max(1));
            }
            "--pgo-min-samples" => {
                pgo.min_samples =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--pgo-cooldown-ms" => {
                let ms: u64 = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                pgo.cooldown = Duration::from_millis(ms);
            }
            "--pgo-fault" => {
                pgo.fault = it
                    .next()
                    .and_then(|v| PgoFault::parse(v))
                    .unwrap_or_else(|| usage());
            }
            "--cache-cap" => {
                cache_cap = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--addr" => addr = it.next().unwrap_or_else(|| usage()).clone(),
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--queue-cap" => {
                config.queue_capacity = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--port-file" => port_file = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--metrics-out" => metrics_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--telemetry-addr" => {
                telemetry_addr = Some(it.next().unwrap_or_else(|| usage()).clone());
            }
            "--telemetry-port-file" => {
                telemetry_port_file = Some(it.next().unwrap_or_else(|| usage()).clone());
            }
            "--access-log" => access_log = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--log-level" => {
                level = Level::parse(it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let telemetry_on = telemetry_addr.is_some() || access_log.is_some();
    let obs = Obs::recording(ObsConfig {
        level,
        trace: false,
        // /metrics scrapes the cumulative registry, so telemetry needs it
        // recording even without --metrics-out.
        metrics: metrics_out.is_some() || telemetry_on,
    });

    let shutdown = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    pps_serve::signal::install_shutdown_flag(Arc::clone(&shutdown));

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("[pps-serve error] bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[pps-serve error] local_addr: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("pps-serve listening on {local}");
    obs.log(Level::Info, || {
        format!(
            "workers {} queue-cap {} (drain on SIGTERM/Shutdown)",
            config.workers, config.queue_capacity
        )
    });
    if let Some(path) = &port_file {
        if let Err(e) = write_port_file(path, local) {
            eprintln!("[pps-serve error] port file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let telemetry = if telemetry_on {
        let tconfig = TelemetryConfig { access_log: access_log.clone(), ..TelemetryConfig::default() };
        match Telemetry::new(telemetry_addr.as_deref(), tconfig) {
            Ok(t) => Some(Arc::new(t)),
            Err(e) => {
                eprintln!("[pps-serve error] telemetry: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if let Some(t) = &telemetry {
        if let Some(scrape) = t.http_addr() {
            println!("pps-serve telemetry on {scrape}");
            if let Some(path) = &telemetry_port_file {
                if let Err(e) = write_port_file(path, scrape) {
                    eprintln!("[pps-serve error] telemetry port file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = &access_log {
            obs.log(Level::Info, || format!("access log: {path}"));
        }
    }

    // One handler serves every configuration. With PGO on, it feeds every
    // request's profiles into the aggregator and a background sweeper
    // recompiles drifted units; replies are identical either way.
    // One store holds the replies, the memo and the PGO state.
    let store = Arc::new(CompileCache::new(cache_cap));
    obs.log(Level::Info, || match cache_cap {
        0 => "reply cache: off".to_string(),
        n => format!("reply cache: {n} entries"),
    });
    let state = pgo_enabled.then(|| Arc::new(PgoState::new(pgo, obs.clone(), Arc::clone(&store))));
    if let Some(state) = &state {
        obs.log(Level::Info, || {
            let c = state.config();
            format!(
                "pgo: on (interval {:?}, enter {:.2}, exit {:.2}, budget {}/sweep, fault {:?})",
                c.interval, c.enter_threshold, c.exit_threshold, c.recompiles_per_sweep, c.fault
            )
        });
    }
    let handler = PipelineHandler::new(Some(store), state.clone());
    let runtime = state.map(PgoRuntime::start);

    let stats = match serve(listener, &config, &handler, &obs, &shutdown, telemetry.as_deref()) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("[pps-serve error] serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The server has drained; stop the sweeper and wait out any in-flight
    // recompile so exit never races a swap.
    if let Some(runtime) = runtime {
        runtime.shutdown();
    }

    obs.log(Level::Info, || {
        format!(
            "drained: {} connections, {} requests ({} busy, {} frame errors)",
            stats.connections, stats.requests, stats.busy, stats.frame_errors
        )
    });
    if let Some(t) = &telemetry {
        obs.log(Level::Info, || {
            format!(
                "telemetry: {} access-log lines, {} traces sampled",
                t.access_log_lines(),
                t.traces_sampled()
            )
        });
    }
    if let Some(path) = &metrics_out {
        match obs.write_metrics(path) {
            Ok(_) => obs.log(Level::Info, || format!("metrics written to {path}")),
            Err(e) => {
                eprintln!("[pps-serve error] writing metrics to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
