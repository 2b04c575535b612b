//! Request/response messages and their binary payload encoding.
//!
//! Payloads are built from three primitives only — `u8`, big-endian `u32`
//! / `u64`, and length-prefixed UTF-8 strings — decoded by a
//! bounds-checked cursor, so a corrupted payload always surfaces as a
//! [`ProtoError`] with a byte offset, never a panic or over-read. The
//! profile texts carried by [`Request::Compile`] are exactly the
//! `pps_profile::serialize` formats the harness writes with
//! `--profile-out`.

use std::fmt;

/// A payload-decoding failure with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Byte offset in the payload.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Profile texts a `Compile` request ships along, in the
/// `pps_profile::serialize` formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileText {
    /// `pps-edge-profile v1` text.
    pub edge: String,
    /// `pps-path-profile v1` text.
    pub path: String,
}

/// One service request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Run a benchmark's training input under the edge *and* general-path
    /// profilers and return both serialized profiles.
    Profile {
        /// Benchmark name (see `pps_suite`).
        bench: String,
        /// Suite scale factor.
        scale: u32,
        /// Path-profile window depth (0 = the paper's default, 15).
        depth: u32,
    },
    /// Form + compact the benchmark's program under a named scheme,
    /// against a client-supplied profile when present (otherwise the
    /// server trains one), returning a deterministic compile report.
    Compile {
        /// Benchmark name.
        bench: String,
        /// Suite scale factor.
        scale: u32,
        /// Scheme name (`BB`, `M4`, `M16`, `P4`, `P4e`, …).
        scheme: String,
        /// Saved profiles to compile against instead of training.
        profile: Option<ProfileText>,
    },
    /// One full benchmark × scheme experiment cell (train → form →
    /// compact → layout → measure), returning the same metrics JSON the
    /// harness emits with `--metrics-out`.
    RunCell {
        /// Benchmark name.
        bench: String,
        /// Suite scale factor.
        scale: u32,
        /// Scheme name.
        scheme: String,
        /// Guard mode: fail-fast instead of degrade-and-continue.
        strict: bool,
    },
    /// Ask the daemon to drain and exit (the in-band equivalent of
    /// SIGTERM).
    Shutdown,
}

impl Request {
    /// Stable lowercase tag for metrics labels.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Profile { .. } => "profile",
            Request::Compile { .. } => "compile",
            Request::RunCell { .. } => "runcell",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request plus its per-request deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Milliseconds the request may wait in the server's queue before the
    /// worker rejects it with [`ErrorKind::DeadlineExceeded`]; 0 = none.
    pub deadline_ms: u32,
    /// The request proper.
    pub request: Request,
}

impl Envelope {
    /// Wraps a request with no deadline.
    pub fn new(request: Request) -> Self {
        Envelope { deadline_ms: 0, request }
    }
}

/// Category of a structured error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame itself was malformed (the connection closes after this).
    BadFrame,
    /// The payload did not decode as a request.
    BadRequest,
    /// No benchmark by that name.
    UnknownBench,
    /// Unparseable scheme name.
    UnknownScheme,
    /// A client-supplied profile failed to parse.
    BadProfile,
    /// The scheduling pipeline failed (strict mode).
    Pipeline,
    /// An interpreter/simulator run failed.
    Exec,
    /// The request out-waited its deadline in the queue.
    DeadlineExceeded,
    /// Server-side invariant failure (e.g. a panicking handler).
    Internal,
}

impl ErrorKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrorKind::BadFrame => 0,
            ErrorKind::BadRequest => 1,
            ErrorKind::UnknownBench => 2,
            ErrorKind::UnknownScheme => 3,
            ErrorKind::BadProfile => 4,
            ErrorKind::Pipeline => 5,
            ErrorKind::Exec => 6,
            ErrorKind::DeadlineExceeded => 7,
            ErrorKind::Internal => 8,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorKind> {
        Some(match v {
            0 => ErrorKind::BadFrame,
            1 => ErrorKind::BadRequest,
            2 => ErrorKind::UnknownBench,
            3 => ErrorKind::UnknownScheme,
            4 => ErrorKind::BadProfile,
            5 => ErrorKind::Pipeline,
            6 => ErrorKind::Exec,
            7 => ErrorKind::DeadlineExceeded,
            8 => ErrorKind::Internal,
            _ => return None,
        })
    }

    /// Stable numeric code (also the wire byte). Access-log `retcode`s
    /// for errors are `10 + code()`.
    pub fn code(self) -> u8 {
        self.to_u8()
    }

    /// Stable lowercase tag for metrics labels.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::BadFrame => "bad-frame",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::UnknownBench => "unknown-bench",
            ErrorKind::UnknownScheme => "unknown-scheme",
            ErrorKind::BadProfile => "bad-profile",
            ErrorKind::Pipeline => "pipeline",
            ErrorKind::Exec => "exec",
            ErrorKind::DeadlineExceeded => "deadline",
            ErrorKind::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// In-band server health, carried by every `Pong` reply. Lets loadgen and
/// ops observe the continuous-PGO loop state without a side channel:
/// drift detection, swaps, and rollbacks are all visible through the same
/// socket the work flows over. The `Pong` payload is every field below in
/// declaration order; a payload with fewer or more bytes is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSnapshot {
    /// Requests currently waiting in the bounded queue.
    pub queue_depth: u32,
    /// The queue's capacity.
    pub queue_capacity: u32,
    /// Worker threads serving the queue.
    pub workers: u32,
    /// Connections accepted so far.
    pub connections: u64,
    /// Requests decoded so far.
    pub requests: u64,
    /// Whether the continuous-PGO loop is running.
    pub pgo_enabled: bool,
    /// Profiles folded into the live aggregate so far.
    pub profiles_merged: u64,
    /// Serving units tracked by the PGO tier.
    pub units: u32,
    /// Highest unit generation currently serving (1 = never re-swapped).
    pub max_generation: u64,
    /// Units whose drift score is currently above the enter threshold.
    pub drifted_units: u32,
    /// Background recompiles attempted.
    pub recompiles: u64,
    /// Recompiles that landed via atomic swap.
    pub swaps: u64,
    /// Recompiles rejected (fault, verifier/oracle reject, or stale CAS)
    /// and rolled back — the old unit kept serving.
    pub rollbacks: u64,
    /// Recompiles running right now (must be 0 after a clean drain).
    pub in_flight_recompiles: u32,
    /// Whether the live-telemetry layer (scrape endpoint / access log /
    /// tail sampler) is active.
    pub telemetry_enabled: bool,
    /// Access-log lines written so far.
    pub access_log_lines: u64,
    /// Span trees retained by the tail sampler so far.
    pub traces_sampled: u64,
    /// Compile-cache hits (requests answered without running the
    /// pipeline).
    pub cache_hits: u64,
    /// Compile-cache misses.
    pub cache_misses: u64,
    /// Compile-cache entries evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Compile-cache entries invalidated by a PGO hot-swap epoch bump.
    pub cache_invalidations: u64,
    /// Compile-cache entries currently resident.
    pub cache_entries: u32,
}

/// One service reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong {
        /// Server health at reply time.
        health: HealthSnapshot,
    },
    /// Serialized edge + path profiles.
    Profile {
        /// `pps-edge-profile v1` text.
        edge: String,
        /// `pps-path-profile v1` text.
        path: String,
    },
    /// Deterministic `pps-compile-report v1` text.
    Compile {
        /// The report.
        report: String,
    },
    /// Metrics-registry JSON, byte-identical to the harness's
    /// `--metrics-out` for the same cell.
    RunCell {
        /// The metrics JSON.
        metrics_json: String,
    },
    /// The bounded queue was full — retry later (backpressure, not an
    /// error).
    Busy,
    /// The daemon is draining; no new work is accepted.
    ShuttingDown,
    /// A structured failure.
    Error {
        /// Category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Stable lowercase outcome tag for metrics labels.
    pub fn outcome_name(&self) -> &'static str {
        match self {
            Response::Pong { .. } | Response::Profile { .. } | Response::Compile { .. } | Response::RunCell { .. } => "ok",
            Response::Busy => "busy",
            Response::ShuttingDown => "shutting-down",
            Response::Error { kind, .. } => kind.name(),
        }
    }

    /// Numeric outcome for access logs: 0 ok, 1 busy, 2 shutting-down,
    /// `10 + ErrorKind::code()` for structured errors.
    pub fn retcode(&self) -> u32 {
        match self {
            Response::Pong { .. }
            | Response::Profile { .. }
            | Response::Compile { .. }
            | Response::RunCell { .. } => 0,
            Response::Busy => 1,
            Response::ShuttingDown => 2,
            Response::Error { kind, .. } => 10 + u32::from(kind.code()),
        }
    }
}

// --- encoding primitives ----------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload cursor.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ProtoError> {
        Err(ProtoError { offset: self.pos, message: message.into() })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return self.err(format!(
                "need {n} bytes, {} left",
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => {
                self.pos -= 1;
                self.err(format!("bad bool {other}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let start = self.pos;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(ProtoError { offset: start, message: "invalid UTF-8".into() }),
        }
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError {
                offset: self.pos,
                message: format!("{} trailing bytes", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

const REQ_PING: u8 = 0;
const REQ_PROFILE: u8 = 1;
const REQ_COMPILE: u8 = 2;
const REQ_RUNCELL: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

const RESP_PONG: u8 = 0;
const RESP_PROFILE: u8 = 1;
const RESP_COMPILE: u8 = 2;
const RESP_RUNCELL: u8 = 3;
const RESP_BUSY: u8 = 4;
const RESP_SHUTTING_DOWN: u8 = 5;
const RESP_ERROR: u8 = 6;

/// Encodes a request envelope into a frame payload.
pub fn encode_request(env: &Envelope) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, env.deadline_ms);
    match &env.request {
        Request::Ping => buf.push(REQ_PING),
        Request::Profile { bench, scale, depth } => {
            buf.push(REQ_PROFILE);
            put_str(&mut buf, bench);
            put_u32(&mut buf, *scale);
            put_u32(&mut buf, *depth);
        }
        Request::Compile { bench, scale, scheme, profile } => {
            buf.push(REQ_COMPILE);
            put_str(&mut buf, bench);
            put_u32(&mut buf, *scale);
            put_str(&mut buf, scheme);
            match profile {
                None => buf.push(0),
                Some(p) => {
                    buf.push(1);
                    put_str(&mut buf, &p.edge);
                    put_str(&mut buf, &p.path);
                }
            }
        }
        Request::RunCell { bench, scale, scheme, strict } => {
            buf.push(REQ_RUNCELL);
            put_str(&mut buf, bench);
            put_u32(&mut buf, *scale);
            put_str(&mut buf, scheme);
            buf.push(u8::from(*strict));
        }
        Request::Shutdown => buf.push(REQ_SHUTDOWN),
    }
    buf
}

/// Decodes a frame payload into a request envelope.
///
/// # Errors
/// [`ProtoError`] on any malformed payload.
pub fn decode_request(payload: &[u8]) -> Result<Envelope, ProtoError> {
    let mut c = Cursor::new(payload);
    let deadline_ms = c.u32()?;
    let tag = c.u8()?;
    let request = match tag {
        REQ_PING => Request::Ping,
        REQ_PROFILE => Request::Profile {
            bench: c.string()?,
            scale: c.u32()?,
            depth: c.u32()?,
        },
        REQ_COMPILE => {
            let bench = c.string()?;
            let scale = c.u32()?;
            let scheme = c.string()?;
            let profile = match c.u8()? {
                0 => None,
                1 => Some(ProfileText { edge: c.string()?, path: c.string()? }),
                other => return c.err(format!("bad profile flag {other}")),
            };
            Request::Compile { bench, scale, scheme, profile }
        }
        REQ_RUNCELL => Request::RunCell {
            bench: c.string()?,
            scale: c.u32()?,
            scheme: c.string()?,
            strict: match c.u8()? {
                0 => false,
                1 => true,
                other => return c.err(format!("bad strict flag {other}")),
            },
        },
        REQ_SHUTDOWN => Request::Shutdown,
        other => return c.err(format!("unknown request tag {other}")),
    };
    c.done()?;
    Ok(Envelope { deadline_ms, request })
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Pong { health } => {
            buf.push(RESP_PONG);
            put_u32(&mut buf, health.queue_depth);
            put_u32(&mut buf, health.queue_capacity);
            put_u32(&mut buf, health.workers);
            put_u64(&mut buf, health.connections);
            put_u64(&mut buf, health.requests);
            buf.push(u8::from(health.pgo_enabled));
            put_u64(&mut buf, health.profiles_merged);
            put_u32(&mut buf, health.units);
            put_u64(&mut buf, health.max_generation);
            put_u32(&mut buf, health.drifted_units);
            put_u64(&mut buf, health.recompiles);
            put_u64(&mut buf, health.swaps);
            put_u64(&mut buf, health.rollbacks);
            put_u32(&mut buf, health.in_flight_recompiles);
            buf.push(u8::from(health.telemetry_enabled));
            put_u64(&mut buf, health.access_log_lines);
            put_u64(&mut buf, health.traces_sampled);
            put_u64(&mut buf, health.cache_hits);
            put_u64(&mut buf, health.cache_misses);
            put_u64(&mut buf, health.cache_evictions);
            put_u64(&mut buf, health.cache_invalidations);
            put_u32(&mut buf, health.cache_entries);
        }
        Response::Profile { edge, path } => {
            buf.push(RESP_PROFILE);
            put_str(&mut buf, edge);
            put_str(&mut buf, path);
        }
        Response::Compile { report } => {
            buf.push(RESP_COMPILE);
            put_str(&mut buf, report);
        }
        Response::RunCell { metrics_json } => {
            buf.push(RESP_RUNCELL);
            put_str(&mut buf, metrics_json);
        }
        Response::Busy => buf.push(RESP_BUSY),
        Response::ShuttingDown => buf.push(RESP_SHUTTING_DOWN),
        Response::Error { kind, message } => {
            buf.push(RESP_ERROR);
            buf.push(kind.to_u8());
            put_str(&mut buf, message);
        }
    }
    buf
}

/// Decodes a frame payload into a response.
///
/// # Errors
/// [`ProtoError`] on any malformed payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let resp = match tag {
        RESP_PONG => Response::Pong {
            health: HealthSnapshot {
                queue_depth: c.u32()?,
                queue_capacity: c.u32()?,
                workers: c.u32()?,
                connections: c.u64()?,
                requests: c.u64()?,
                pgo_enabled: c.bool()?,
                profiles_merged: c.u64()?,
                units: c.u32()?,
                max_generation: c.u64()?,
                drifted_units: c.u32()?,
                recompiles: c.u64()?,
                swaps: c.u64()?,
                rollbacks: c.u64()?,
                in_flight_recompiles: c.u32()?,
                telemetry_enabled: c.bool()?,
                access_log_lines: c.u64()?,
                traces_sampled: c.u64()?,
                cache_hits: c.u64()?,
                cache_misses: c.u64()?,
                cache_evictions: c.u64()?,
                cache_invalidations: c.u64()?,
                cache_entries: c.u32()?,
            },
        },
        RESP_PROFILE => Response::Profile { edge: c.string()?, path: c.string()? },
        RESP_COMPILE => Response::Compile { report: c.string()? },
        RESP_RUNCELL => Response::RunCell { metrics_json: c.string()? },
        RESP_BUSY => Response::Busy,
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_ERROR => {
            let kind_byte = c.u8()?;
            let Some(kind) = ErrorKind::from_u8(kind_byte) else {
                return c.err(format!("unknown error kind {kind_byte}"));
            };
            Response::Error { kind, message: c.string()? }
        }
        other => return c.err(format!("unknown response tag {other}")),
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Envelope> {
        vec![
            Envelope::new(Request::Ping),
            Envelope {
                deadline_ms: 250,
                request: Request::Profile { bench: "wc".into(), scale: 1, depth: 15 },
            },
            Envelope::new(Request::Compile {
                bench: "gcc".into(),
                scale: 2,
                scheme: "P4".into(),
                profile: None,
            }),
            Envelope::new(Request::Compile {
                bench: "alt".into(),
                scale: 1,
                scheme: "P4e".into(),
                profile: Some(ProfileText {
                    edge: "pps-edge-profile v1\n".into(),
                    path: "pps-path-profile v1 depth 15\n".into(),
                }),
            }),
            Envelope {
                deadline_ms: 1000,
                request: Request::RunCell {
                    bench: "wc".into(),
                    scale: 1,
                    scheme: "M4".into(),
                    strict: true,
                },
            },
            Envelope::new(Request::Shutdown),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for env in sample_requests() {
            let payload = encode_request(&env);
            assert_eq!(decode_request(&payload).unwrap(), env);
        }
    }

    /// A snapshot with every field non-zero, so a field the codec drops
    /// or reorders cannot round-trip by accident.
    fn full_snapshot() -> HealthSnapshot {
        HealthSnapshot {
            queue_depth: 3,
            queue_capacity: 64,
            workers: 4,
            connections: 17,
            requests: 123_456,
            pgo_enabled: true,
            profiles_merged: 99,
            units: 6,
            max_generation: 4,
            drifted_units: 2,
            recompiles: 11,
            swaps: 9,
            rollbacks: 2,
            in_flight_recompiles: 1,
            telemetry_enabled: true,
            access_log_lines: 4321,
            traces_sampled: 12,
            cache_hits: 42,
            cache_misses: 7,
            cache_evictions: 3,
            cache_invalidations: 2,
            cache_entries: 5,
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Pong { health: HealthSnapshot::default() },
            Response::Pong { health: full_snapshot() },
            Response::Profile { edge: "e".into(), path: "p".into() },
            Response::Compile { report: "pps-compile-report v1\n".into() },
            Response::RunCell { metrics_json: "{}".into() },
            Response::Busy,
            Response::ShuttingDown,
            Response::Error { kind: ErrorKind::DeadlineExceeded, message: "late".into() },
        ];
        for resp in responses {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    // Each group of health fields must survive the trip with the others
    // left zero.
    #[test]
    fn telemetry_fields_round_trip() {
        let resp = Response::Pong {
            health: HealthSnapshot {
                telemetry_enabled: true,
                access_log_lines: 99,
                traces_sampled: 3,
                ..HealthSnapshot::default()
            },
        };
        let Response::Pong { health } = decode_response(&encode_response(&resp)).unwrap() else {
            panic!("not a Pong");
        };
        assert!(health.telemetry_enabled);
        assert_eq!(health.access_log_lines, 99);
        assert_eq!(health.traces_sampled, 3);
        assert_eq!(health.cache_hits, 0);
    }

    #[test]
    fn cache_fields_round_trip() {
        let resp = Response::Pong {
            health: HealthSnapshot {
                cache_hits: 12,
                cache_misses: 8,
                cache_evictions: 2,
                cache_invalidations: 1,
                cache_entries: 6,
                ..HealthSnapshot::default()
            },
        };
        let decoded = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn pong_decodes_only_at_its_exact_length() {
        let payload = encode_response(&Response::Pong { health: full_snapshot() });
        for cut in 0..payload.len() {
            let got = decode_response(&payload[..cut]);
            assert!(
                matches!(got, Err(ProtoError { .. })),
                "Pong cut at {cut} of {} decoded: {got:?}",
                payload.len()
            );
        }
        let mut long = payload.clone();
        long.push(0);
        let e = decode_response(&long).unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
        assert_eq!(e.offset, payload.len());
    }

    #[test]
    fn truncated_payloads_error_at_an_offset() {
        for env in sample_requests() {
            let payload = encode_request(&env);
            for cut in 0..payload.len() {
                let e = decode_request(&payload[..cut]);
                assert!(e.is_err(), "{env:?} cut at {cut} decoded");
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_request(&Envelope::new(Request::Ping));
        payload.push(7);
        let e = decode_request(&payload).unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn error_kinds_round_trip() {
        for v in 0..=8u8 {
            let k = ErrorKind::from_u8(v).unwrap();
            assert_eq!(k.to_u8(), v);
            assert_eq!(k.code(), v);
        }
        assert!(ErrorKind::from_u8(9).is_none());
    }

    #[test]
    fn retcodes_are_stable() {
        assert_eq!(Response::Pong { health: HealthSnapshot::default() }.retcode(), 0);
        assert_eq!(Response::Compile { report: String::new() }.retcode(), 0);
        assert_eq!(Response::Busy.retcode(), 1);
        assert_eq!(Response::ShuttingDown.retcode(), 2);
        let err = Response::Error { kind: ErrorKind::DeadlineExceeded, message: String::new() };
        assert_eq!(err.retcode(), 10 + u32::from(ErrorKind::DeadlineExceeded.code()));
    }
}
