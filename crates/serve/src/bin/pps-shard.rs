//! The consistent-hash shard router.
//!
//! ```text
//! pps-shard --shard HOST:PORT [--shard HOST:PORT ...]
//!           [--addr HOST:PORT] [--port-file FILE] [--log-level LEVEL]
//! ```
//!
//! Binds the front-door address (default `127.0.0.1:0`), prints
//! `listening on ADDR`, optionally writes the bound address to
//! `--port-file` (atomically, for scripts to poll), and relays PPSF
//! frames to the configured `pps-serve` shards by artifact identity until
//! SIGTERM/SIGINT or an in-band `Shutdown` (which it also fans out to
//! every shard). `Ping` answers with the summed health of all shards plus
//! the router's `routed`/`shards` counters; `Busy` and structured errors
//! pass through from the owning shard byte-identically.

use pps_obs::{Level, Obs, ObsConfig};
use pps_serve::server::write_port_file;
use pps_serve::shard::{route, Router, RouterConfig, ShardRing, VNODES};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: pps-shard --shard HOST:PORT [--shard HOST:PORT ...]\n\
         \x20               [--addr HOST:PORT] [--port-file FILE]\n\
         \x20               [--log-level off|error|warn|info|debug]\n\
         Routes PPSF requests across pps-serve shards by content address\n\
         (consistent hashing over the artifact key), so repeats of one\n\
         artifact always land on the same daemon's reply cache. Ping\n\
         fans in every shard's health; Shutdown drains the whole cluster."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:0".to_string();
    let mut shards: Vec<String> = Vec::new();
    let mut port_file: Option<String> = None;
    let mut level = Level::Info;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shard" => shards.push(it.next().unwrap_or_else(|| usage()).clone()),
            "--addr" => addr = it.next().unwrap_or_else(|| usage()).clone(),
            "--port-file" => port_file = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--log-level" => {
                level = Level::parse(it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if shards.is_empty() {
        usage();
    }

    let obs = Obs::recording(ObsConfig { level, trace: false, metrics: false });
    let shutdown = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    pps_serve::signal::install_shutdown_flag(Arc::clone(&shutdown));

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("[pps-shard error] bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[pps-shard error] local_addr: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("pps-shard listening on {local}");
    obs.log(Level::Info, || {
        format!("routing over {} shards, {VNODES} vnodes each: {shards:?}", shards.len())
    });
    if let Some(path) = &port_file {
        if let Err(e) = write_port_file(path, local) {
            eprintln!("[pps-shard error] port file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let router = Router::new(ShardRing::new(shards), RouterConfig::default());
    let stats = match route(listener, &router, &obs, &shutdown) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("[pps-shard error] route: {e}");
            return ExitCode::FAILURE;
        }
    };
    obs.log(Level::Info, || {
        format!(
            "drained: {} connections, {} routed ({} errors, {} frame errors), per-shard {:?}",
            stats.connections,
            stats.routed,
            stats.errors,
            stats.frame_errors,
            router.per_shard_routed(),
        )
    });
    ExitCode::SUCCESS
}
