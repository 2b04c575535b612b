#![warn(missing_docs)]

//! `pps-serve`: the compile service.
//!
//! The CLI harness runs one-shot sweeps; real PGO deployments are
//! services — profiles are collected in one place and consumed by many
//! compile requests. This crate turns the reproduction into that shape
//! without any external dependencies:
//!
//! - [`frame`] — length-prefixed, versioned, checksummed binary frames;
//! - [`proto`] — the `Profile` / `Compile` / `RunCell` request set and
//!   structured error replies, with a bounds-checked binary codec;
//! - [`server`] — a `TcpListener` daemon: bounded queue with `Busy`
//!   backpressure ([`pps_core::pool::BoundedQueue`]), a scoped worker
//!   team, per-request queue-wait deadlines, and graceful drain on
//!   SIGTERM / in-band `Shutdown`;
//! - [`cache`] — a bounded content-addressed reply cache keyed by
//!   [`pps_core::ArtifactKey`], consulted before the pipeline and
//!   invalidated by PGO hot-swaps;
//! - [`client`] — the blocking client used by `pps-harness loadgen`;
//! - [`service`] — `execute`, a pure function of the request so replies
//!   are byte-comparable against in-process runs, and the daemon's one
//!   handler over it (optional reply cache, optional PGO state). Requests
//!   compile through `pps_eval::runner`, the path the harness takes;
//! - [`shard`] — the consistent-hash shard router (`pps-shard`): one
//!   PPSF front door placing requests on N daemons by artifact identity,
//!   with health fan-in on `Ping`;
//! - [`signal`] — SIGTERM/SIGINT → shutdown flag (Unix);
//! - [`telemetry`] — the live-observability layer: rolling-window
//!   metrics, a `/metrics` / `/health` / `/trace` scrape listener, a
//!   JSON-lines access log, and tail-sampled request traces.
//!
//! The `pps-serve` binary wires these together; see README §Serving.

pub mod cache;
pub mod client;
pub mod frame;
pub mod pgo;
pub mod proto;
pub mod server;
pub mod service;
pub mod shard;
pub mod signal;
pub mod telemetry;

pub use cache::{CacheClass, CacheKey, CompileCache};
pub use client::{Client, ClientError};
pub use pgo::{PgoConfig, PgoFault, PgoRuntime, PgoState};
pub use proto::{Envelope, ErrorKind, HealthSnapshot, ProfileText, Request, Response};
pub use server::{serve, serve_with_telemetry, Handler, ServeConfig, ServerHandle, ServerStats};
pub use service::{execute, PipelineHandler};
pub use shard::{Router, RouterConfig, RouterHandle, RouterStats, ShardRing};
pub use telemetry::{RequestRecord, Telemetry, TelemetryConfig};
