//! The compile-service daemon: accept loop, bounded queue, worker team,
//! and graceful drain.
//!
//! Threading model (all scoped, no detached threads):
//!
//! - the **accept loop** runs on the caller's thread with a nonblocking
//!   listener, polling the shutdown flag between accepts;
//! - each connection gets a **connection thread** that reads frames,
//!   answers `Ping`/`Shutdown` inline, and pushes real work onto the
//!   bounded queue ([`pps_core::pool::BoundedQueue`]) — a full queue is an
//!   immediate [`Response::Busy`], never a blocked producer;
//! - a fixed team of **worker threads** pops jobs, enforces each request's
//!   queue-wait deadline, runs the [`Handler`], and hands the response back
//!   to the connection thread over a per-request channel.
//!
//! Shutdown (SIGTERM via [`crate::signal`], an in-band
//! [`Request::Shutdown`], or [`ServerHandle::shutdown`]) flips one atomic
//! flag: the accept loop stops accepting, connection threads finish their
//! in-flight request and close, then the queue is closed and the workers
//! drain everything already accepted before exiting — accepted work is
//! never dropped.

use crate::frame::{self, read_first, First};
use crate::proto::{
    decode_request, encode_response, Envelope, ErrorKind, HealthSnapshot, Request, Response,
};
use crate::telemetry::{self, RequestRecord, Telemetry};
use pps_core::pool::{BoundedQueue, PushError};
use pps_obs::{Level, Obs, ObsConfig};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Executes decoded requests. `Ping` and `Shutdown` never reach the
/// handler; everything else does.
pub trait Handler: Send + Sync {
    /// Produces the response for one request. Panics are caught and
    /// reported as [`ErrorKind::Internal`].
    fn handle(&self, request: &Request, obs: &Obs) -> Response;

    /// Enriches the server-built health snapshot with handler-level state
    /// (the continuous-PGO tier fills in aggregate/drift/swap counters
    /// here). The default handler has nothing to add.
    fn health(&self, base: HealthSnapshot) -> HealthSnapshot {
        base
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests (default: available parallelism).
    pub workers: usize,
    /// Bounded-queue capacity; a full queue rejects with `Busy`.
    pub queue_capacity: usize,
    /// How often idle loops re-check the shutdown flag.
    pub poll: Duration,
    /// How long a started frame may take to arrive completely.
    pub frame_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = pps_core::pool::default_jobs();
        ServeConfig {
            workers,
            queue_capacity: (workers * 8).max(16),
            poll: Duration::from_millis(20),
            frame_timeout: Duration::from_secs(10),
        }
    }
}

/// Counters the server reports when it exits (also exported through the
/// `serve.*` metrics while running).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests that produced a reply (including errors and `Busy`).
    pub requests: u64,
    /// `Busy` rejections among those.
    pub busy: u64,
    /// Connections dropped for malformed frames.
    pub frame_errors: u64,
}

#[derive(Default)]
struct AtomicStats {
    connections: AtomicU64,
    requests: AtomicU64,
    busy: AtomicU64,
    frame_errors: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
        }
    }
}

/// One queued request: the decoded envelope, when it was accepted, and the
/// channel its response travels back on.
struct Job {
    env: Envelope,
    enqueued: Instant,
    /// Capture a per-request span tree for the tail sampler.
    want_trace: bool,
    reply: mpsc::Sender<Finished>,
}

/// What a worker hands back to the connection thread: the reply plus the
/// timing split and any captured span tree, so the access log can report
/// queue-wait vs service time without re-deriving them.
struct Finished {
    resp: Response,
    queue_wait_ms: f64,
    service_ms: f64,
    trace_json: Option<String>,
}

impl Finished {
    fn inline(resp: Response) -> Finished {
        Finished { resp, queue_wait_ms: 0.0, service_ms: 0.0, trace_json: None }
    }
}

/// Runs the server on the calling thread until `shutdown` becomes true,
/// then drains and returns the final stats.
///
/// With `telemetry` attached, every reply is observed (windows, access
/// log, tail sampler) and, when the [`Telemetry`] owns an HTTP listener, a
/// scrape thread serves `/metrics`, `/health`, and `/trace` inside the
/// same drain scope. Reply bytes are identical with and without telemetry
/// — the layer is strictly observational.
///
/// # Errors
/// Only listener setup errors; per-connection failures are absorbed into
/// the stats.
pub fn serve(
    listener: TcpListener,
    config: &ServeConfig,
    handler: &dyn Handler,
    obs: &Obs,
    shutdown: &AtomicBool,
    telemetry: Option<&Telemetry>,
) -> io::Result<ServerStats> {
    listener.set_nonblocking(true)?;
    let queue: BoundedQueue<Job> = BoundedQueue::new(config.queue_capacity);
    let stats = AtomicStats::default();
    let active_conns = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        if let Some(t) = telemetry {
            if let Some(http) = t.take_http_listener() {
                let queue = &queue;
                let stats = &stats;
                let obs = obs.clone();
                scope.spawn(move || {
                    let health = || build_health(queue, config, stats, handler, Some(t));
                    telemetry::http_loop(http, t, &obs, &health, shutdown, config.poll);
                });
            }
        }

        for w in 0..config.workers.max(1) {
            let queue = &queue;
            let obs = obs.clone();
            scope.spawn(move || worker_loop(w, queue, handler, &obs));
        }

        loop {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    active_conns.fetch_add(1, Ordering::SeqCst);
                    let queue = &queue;
                    let stats = &stats;
                    let active_conns = &active_conns;
                    let config = config.clone();
                    let obs = obs.clone();
                    scope.spawn(move || {
                        let r = conn_loop(
                            stream, &config, queue, handler, shutdown, stats, &obs, telemetry,
                        );
                        if let Err(e) = r {
                            obs.log(pps_obs::Level::Debug, || {
                                format!("connection {peer}: {e}")
                            });
                        }
                        active_conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(config.poll);
                }
                Err(_) => std::thread::sleep(config.poll),
            }
        }

        // Drain: stop accepting (done), wait for connection threads to
        // finish their in-flight request, then let workers empty the
        // queue.
        while active_conns.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(config.poll);
        }
        queue.close();
    });

    if let Some(t) = telemetry {
        t.flush();
    }
    Ok(stats.snapshot())
}

/// A server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<io::Result<ServerStats>>,
}

impl ServerHandle {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
    /// on a background thread, with the live-telemetry layer when
    /// `telemetry` is given (see [`serve`]).
    ///
    /// # Errors
    /// Bind/local-addr failures.
    pub fn spawn(
        addr: &str,
        config: ServeConfig,
        handler: Arc<dyn Handler>,
        obs: Obs,
        telemetry: Option<Arc<Telemetry>>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || {
            serve(listener, &config, handler.as_ref(), &obs, &flag, telemetry.as_deref())
        });
        Ok(ServerHandle { addr: local, shutdown, thread })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to finish draining.
    ///
    /// # Errors
    /// The serve loop's setup error, if any.
    ///
    /// # Panics
    /// Propagates a panic of the serving thread.
    pub fn join(self) -> io::Result<ServerStats> {
        self.thread.join().expect("serve thread panicked")
    }
}

/// Writes `addr` and a newline to `path` by write-then-rename, so a script
/// polling the file never reads a half-written address. The daemon, its
/// telemetry listener and the shard router all publish their bound
/// ephemeral ports this way.
///
/// # Errors
/// Write or rename failures.
pub fn write_port_file(path: &str, addr: SocketAddr) -> io::Result<()> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, path)
}

/// Server-built part of the health snapshot, enriched by the handler
/// (the PGO tier fills in its counters). Shared by the inline `Ping`
/// path and the telemetry HTTP thread, so `/health` and `Pong` agree.
fn build_health(
    queue: &BoundedQueue<Job>,
    config: &ServeConfig,
    stats: &AtomicStats,
    handler: &dyn Handler,
    telemetry: Option<&Telemetry>,
) -> HealthSnapshot {
    let base = HealthSnapshot {
        queue_depth: queue.len() as u32,
        queue_capacity: config.queue_capacity as u32,
        workers: config.workers as u32,
        connections: stats.connections.load(Ordering::Relaxed),
        requests: stats.requests.load(Ordering::Relaxed),
        telemetry_enabled: telemetry.is_some(),
        access_log_lines: telemetry.map_or(0, Telemetry::access_log_lines),
        traces_sampled: telemetry.map_or(0, Telemetry::traces_sampled),
        ..HealthSnapshot::default()
    };
    handler.health(base)
}

/// Encodes and writes one reply, recording it into the cumulative
/// metrics and (when attached) the telemetry layer. The reply bytes are
/// computed before any observation, so telemetry can never perturb them.
#[allow(clippy::too_many_arguments)]
fn emit_reply(
    stream: &mut TcpStream,
    obs: &Obs,
    stats: &AtomicStats,
    telemetry: Option<&Telemetry>,
    trace_id: u64,
    kind: &str,
    started: Instant,
    fin: Finished,
) -> io::Result<()> {
    let payload = encode_response(&fin.resp);
    record(obs, stats, kind, fin.resp.outcome_name(), started);
    if let Some(t) = telemetry {
        t.observe(&RequestRecord {
            trace_id,
            kind,
            outcome: fin.resp.outcome_name(),
            retcode: fin.resp.retcode(),
            queue_wait_ms: fin.queue_wait_ms,
            service_ms: fin.service_ms,
            total_ms: started.elapsed().as_secs_f64() * 1e3,
            bytes: payload.len() as u64,
            trace_json: fin.trace_json,
        });
    }
    frame::write_frame(stream, &payload)
}

/// Serves one connection until EOF, shutdown, or a poisoned stream.
#[allow(clippy::too_many_arguments)]
fn conn_loop(
    mut stream: TcpStream,
    config: &ServeConfig,
    queue: &BoundedQueue<Job>,
    handler: &dyn Handler,
    shutdown: &AtomicBool,
    stats: &AtomicStats,
    obs: &Obs,
    telemetry: Option<&Telemetry>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_nonblocking(false)?;
    loop {
        stream.set_read_timeout(Some(config.poll))?;
        let first = match read_first(&mut stream) {
            First::Eof => return Ok(()),
            First::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            First::Err(e) => return Err(e),
            First::Byte(b) => b,
        };

        // A frame has started: give it a generous (but bounded) window to
        // arrive in full, so a stalled peer cannot pin the thread forever.
        stream.set_read_timeout(Some(config.frame_timeout))?;
        let started = Instant::now();
        let trace_id = telemetry.map_or(0, Telemetry::next_trace_id);
        let payload = match frame::read_frame_after(first, &mut stream) {
            Ok(p) => p,
            Err(e) => {
                // The stream offset can no longer be trusted: send one
                // structured error, then close.
                stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    kind: ErrorKind::BadFrame,
                    message: e.to_string(),
                };
                let _ = emit_reply(
                    &mut stream, obs, stats, telemetry, trace_id, "frame", started,
                    Finished::inline(resp),
                );
                return Ok(());
            }
        };

        let env = match decode_request(&payload) {
            Ok(env) => env,
            Err(e) => {
                // Frame boundaries held, so the connection survives a
                // malformed payload.
                let resp =
                    Response::Error { kind: ErrorKind::BadRequest, message: e.to_string() };
                emit_reply(
                    &mut stream, obs, stats, telemetry, trace_id, "payload", started,
                    Finished::inline(resp),
                )?;
                continue;
            }
        };

        let kind = env.request.kind_name();
        let fin = match env.request {
            Request::Ping => Finished::inline(Response::Pong {
                health: build_health(queue, config, stats, handler, telemetry),
            }),
            Request::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                Finished::inline(Response::ShuttingDown)
            }
            _ => {
                let (tx, rx) = mpsc::channel();
                let depth = queue.len();
                let job = Job {
                    env,
                    enqueued: started,
                    want_trace: telemetry.is_some(),
                    reply: tx,
                };
                match queue.try_push(job) {
                    Ok(()) => {
                        obs.histogram("serve.queue_depth", depth as f64);
                        rx.recv().unwrap_or_else(|_| {
                            Finished::inline(Response::Error {
                                kind: ErrorKind::Internal,
                                message: "worker dropped the request".into(),
                            })
                        })
                    }
                    Err(PushError::Full(_)) => {
                        stats.busy.fetch_add(1, Ordering::Relaxed);
                        Finished::inline(Response::Busy)
                    }
                    Err(PushError::Closed(_)) => Finished::inline(Response::ShuttingDown),
                }
            }
        };

        emit_reply(&mut stream, obs, stats, telemetry, trace_id, kind, started, fin)?;
    }
}

/// Request-level instrumentation: one labeled counter tick and the
/// end-to-end latency histogram.
fn record(obs: &Obs, stats: &AtomicStats, kind: &str, outcome: &str, started: Instant) {
    stats.requests.fetch_add(1, Ordering::Relaxed);
    if obs.is_recording() {
        obs.counter_labeled("serve.requests", &[("type", kind), ("outcome", outcome)], 1);
        obs.with_label("type", kind)
            .histogram("serve.latency_ms", started.elapsed().as_secs_f64() * 1e3);
    }
}

/// Pops jobs until the queue closes and drains; enforces deadlines, shields
/// the server from handler panics.
fn worker_loop(index: usize, queue: &BoundedQueue<Job>, handler: &dyn Handler, obs: &Obs) {
    while let Some(job) = queue.pop() {
        let waited = job.enqueued.elapsed();
        let queue_wait_ms = waited.as_secs_f64() * 1e3;
        let deadline = job.env.deadline_ms;
        let request = &job.env.request;
        let fin = if deadline > 0 && waited > Duration::from_millis(u64::from(deadline)) {
            let resp = Response::Error {
                kind: ErrorKind::DeadlineExceeded,
                message: format!(
                    "request waited {:.1}ms in queue, deadline {deadline}ms",
                    waited.as_secs_f64() * 1e3
                ),
            };
            Finished { resp, queue_wait_ms, service_ms: 0.0, trace_json: None }
        } else {
            let service_started = Instant::now();
            let (resp, trace_json) = if job.want_trace {
                // Record this request's spans into a fork so the tail
                // sampler can keep the tree; metrics recorded there are
                // absorbed back, so cumulative series are unchanged and
                // the reply bytes never depend on telemetry.
                let req_obs =
                    Obs::recording(ObsConfig { level: Level::Off, trace: true, metrics: true });
                let span = req_obs
                    .span("serve.request")
                    .arg("type", request.kind_name())
                    .arg("worker", index as u64);
                let r = catch_unwind(AssertUnwindSafe(|| handler.handle(request, &req_obs)))
                    .unwrap_or_else(|_| Response::Error {
                        kind: ErrorKind::Internal,
                        message: "handler panicked".into(),
                    });
                drop(span);
                let trace_json = req_obs.export_trace_json();
                obs.absorb(&req_obs);
                (r, trace_json)
            } else {
                let span = obs
                    .span("serve.request")
                    .arg("type", request.kind_name())
                    .arg("worker", index as u64);
                let r = catch_unwind(AssertUnwindSafe(|| handler.handle(request, obs)))
                    .unwrap_or_else(|_| Response::Error {
                        kind: ErrorKind::Internal,
                        message: "handler panicked".into(),
                    });
                drop(span);
                (r, None)
            };
            Finished {
                resp,
                queue_wait_ms,
                service_ms: service_started.elapsed().as_secs_f64() * 1e3,
                trace_json,
            }
        };
        // The connection thread may have died; its channel being gone is
        // not the worker's problem.
        let _ = job.reply.send(fin);
    }
}
