#![warn(missing_docs)]

//! `pps-serve`: the compile service, its wire protocol, and every program
//! that speaks it.
//!
//! The CLI harness runs one-shot sweeps; real PGO deployments are
//! services — profiles are collected in one place and consumed by many
//! compile requests. This crate turns the reproduction into that shape
//! without any external dependencies. The offline paper harness does not
//! link it:
//!
//! - [`frame`] — length-prefixed, versioned, checksummed binary frames;
//! - [`proto`] — the `Profile` / `Compile` / `RunCell` request set and
//!   structured error replies, with a bounds-checked binary codec;
//! - [`server`] — a `TcpListener` daemon: bounded queue with `Busy`
//!   backpressure ([`pool::BoundedQueue`]), a scoped worker team,
//!   per-request queue-wait deadlines, and graceful drain on SIGTERM /
//!   in-band `Shutdown`;
//! - [`cache`] — a bounded content-addressed reply cache keyed by
//!   [`cache::ArtifactKey`], consulted before the pipeline and
//!   invalidated by PGO hot-swaps, beside a bounded memo of the trained
//!   state each key is computed from;
//! - [`client`] — the blocking client;
//! - [`loadgen`] — the load generator that byte-verifies every reply
//!   against the in-process [`execute`] (`pps-client loadgen`);
//! - [`top`] — the live telemetry dashboard (`pps-client top`);
//! - [`service`] — `execute`, a pure function of the request so replies
//!   are byte-comparable against in-process runs, and the daemon's one
//!   handler over it (optional reply cache, optional PGO state). Requests
//!   compile through `pps_eval::runner`, the path the harness takes;
//! - [`signal`] — SIGTERM/SIGINT → shutdown flag (Unix);
//! - [`telemetry`] — the live-observability layer: rolling-window
//!   metrics, a `/metrics` / `/health` / `/trace` scrape listener, a
//!   JSON-lines access log, and tail-sampled request traces.
//!
//! Two binaries wire these together: `pps-serve` (the daemon) and
//! `pps-client` (`loadgen`, `top`, `ping`); see README §Serving.

pub mod cache;
pub mod client;
pub mod frame;
pub mod loadgen;
pub mod pgo;
pub mod pool;
pub mod proto;
pub mod server;
pub mod service;
pub mod signal;
pub mod swap;
pub mod telemetry;
pub mod top;

pub use cache::{CacheClass, CacheKey, CompileCache};
pub use client::{Client, ClientError};
pub use pgo::{PgoConfig, PgoFault, PgoRuntime, PgoState};
pub use proto::{Envelope, ErrorKind, HealthSnapshot, ProfileText, Request, Response};
pub use server::{serve, write_port_file, Handler, ServeConfig, ServerHandle, ServerStats};
pub use service::{execute, PipelineHandler};
pub use telemetry::{RequestRecord, Telemetry, TelemetryConfig};
