//! Live telemetry for the daemon: windowed metrics, a Prometheus scrape
//! endpoint, a JSON-lines access log, and tail-sampled request traces.
//!
//! Everything here is a **pure side effect** of the request path — reply
//! bytes never depend on whether telemetry is on (the loadgen's
//! byte-identity checks run with it enabled). One [`Telemetry`] instance
//! is shared by the connection threads (which call [`Telemetry::observe`]
//! once per reply) and the HTTP listener thread (spawned by
//! [`crate::server::serve`] when telemetry is attached), which serves:
//!
//! - `GET /metrics` — the daemon's cumulative counters and bucketed
//!   latency histograms in Prometheus text exposition
//!   ([`pps_obs::expo`]), plus point-in-time queue/worker/PGO gauges from
//!   the same health path `Ping` uses;
//! - `GET /health` — the [`HealthSnapshot`] as JSON, extended with rates
//!   and latency quantiles over the rolling window ring (recent past, not
//!   process lifetime);
//! - `GET /trace` — the tail sampler's retained span trees: full
//!   `pps-obs` traces kept only for error replies and slow-percentile
//!   requests, correlated to access-log lines by trace id.
//!
//! The access log (`--access-log`) writes one JSON object per reply:
//! `{"ts_ms","trace_id","type","outcome","retcode","queue_wait_ms",
//! "service_ms","total_ms","bytes"}` — `retcode` is 0 for ok, 1 busy,
//! 2 shutting-down, 10+kind for structured errors.

use crate::proto::HealthSnapshot;
use pps_obs::expo::{self, Gauge};
use pps_obs::window::SystemClock;
use pps_obs::{json, MetricKey, MetricsRegistry, Obs, WindowedRegistry};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Tuning for the telemetry layer.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// JSON-lines access log path (`None` = no log).
    pub access_log: Option<String>,
    /// Rolling window ring size.
    pub windows: usize,
    /// Width of each window, milliseconds.
    pub window_ms: u64,
    /// Sampled traces retained (newest win).
    pub trace_ring: usize,
    /// Requests at or above this windowed latency quantile are
    /// tail-sampled.
    pub slow_quantile: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            access_log: None,
            windows: 8,
            window_ms: 1000,
            trace_ring: 64,
            slow_quantile: 0.95,
        }
    }
}

/// Everything [`Telemetry::observe`] needs to know about one finished
/// request/reply exchange.
#[derive(Debug)]
pub struct RequestRecord<'a> {
    /// Server-assigned id correlating the access-log line with any
    /// sampled trace.
    pub trace_id: u64,
    /// Request kind tag (`ping`, `compile`, …).
    pub kind: &'a str,
    /// Reply outcome tag (`ok`, `busy`, error kind names).
    pub outcome: &'a str,
    /// Numeric outcome: 0 ok, 1 busy, 2 shutting-down, 10+kind errors.
    pub retcode: u32,
    /// Time spent waiting in the bounded queue (0 for inline replies).
    pub queue_wait_ms: f64,
    /// Handler execution time (0 for inline replies).
    pub service_ms: f64,
    /// First request byte to reply written.
    pub total_ms: f64,
    /// Encoded reply payload size.
    pub bytes: u64,
    /// The request's recorded span tree (Chrome trace JSON), if the
    /// worker captured one.
    pub trace_json: Option<String>,
}

/// Shared telemetry state; see the module docs.
pub struct Telemetry {
    config: TelemetryConfig,
    windows: WindowedRegistry<SystemClock>,
    http: Mutex<Option<TcpListener>>,
    http_addr: Option<SocketAddr>,
    access: Option<Mutex<BufWriter<File>>>,
    access_lines: AtomicU64,
    traces_sampled: AtomicU64,
    trace_seq: AtomicU64,
    /// Cached slow-sampling threshold (f64 bits); refreshed every
    /// [`THRESHOLD_REFRESH`] observes, `INFINITY` until warmed up.
    slow_threshold_bits: AtomicU64,
    observed: AtomicU64,
    sampled: Mutex<VecDeque<String>>,
    started: Instant,
}

/// Observe calls between threshold recomputations.
const THRESHOLD_REFRESH: u64 = 64;
/// Minimum windowed samples before slow-sampling arms.
const THRESHOLD_WARMUP: u64 = 64;

impl Telemetry {
    /// Builds the telemetry state, binding the HTTP listener (when
    /// `http_addr` is given) and opening/truncating the access log.
    ///
    /// # Errors
    /// Bind or log-open failures.
    pub fn new(http_addr: Option<&str>, config: TelemetryConfig) -> io::Result<Telemetry> {
        let (http, bound) = match http_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                let a = l.local_addr()?;
                (Some(l), Some(a))
            }
            None => (None, None),
        };
        let access = match &config.access_log {
            Some(path) => Some(Mutex::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        Ok(Telemetry {
            windows: WindowedRegistry::new(config.windows, config.window_ms, SystemClock::new()),
            http: Mutex::new(http),
            http_addr: bound,
            access,
            access_lines: AtomicU64::new(0),
            traces_sampled: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            slow_threshold_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            observed: AtomicU64::new(0),
            sampled: Mutex::new(VecDeque::new()),
            started: Instant::now(),
            config,
        })
    }

    /// The bound scrape address, when an HTTP listener was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Hands the HTTP listener to the serving loop (once).
    pub(crate) fn take_http_listener(&self) -> Option<TcpListener> {
        self.http.lock().unwrap().take()
    }

    /// A fresh request trace id (unique per daemon lifetime).
    pub fn next_trace_id(&self) -> u64 {
        self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Access-log lines written so far.
    pub fn access_log_lines(&self) -> u64 {
        self.access_lines.load(Ordering::Relaxed)
    }

    /// Span trees retained by the tail sampler so far.
    pub fn traces_sampled(&self) -> u64 {
        self.traces_sampled.load(Ordering::Relaxed)
    }

    /// The rolling window ring (for rates/quantiles over the recent past).
    pub fn windows(&self) -> &WindowedRegistry<SystemClock> {
        &self.windows
    }

    /// Records one finished exchange: windows, access log, tail sampler.
    pub fn observe(&self, rec: &RequestRecord) {
        self.windows.add(
            MetricKey::new("serve.requests", &[("type", rec.kind), ("outcome", rec.outcome)]),
            1,
        );
        self.windows.record(MetricKey::new("serve.latency_ms", &[]), rec.total_ms);

        if let Some(log) = &self.access {
            let ts_ms = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            let mut line = String::with_capacity(160);
            line.push_str("{\"ts_ms\":");
            line.push_str(&ts_ms.to_string());
            line.push_str(",\"trace_id\":");
            line.push_str(&rec.trace_id.to_string());
            line.push_str(",\"type\":");
            json::escape_into(&mut line, rec.kind);
            line.push_str(",\"outcome\":");
            json::escape_into(&mut line, rec.outcome);
            line.push_str(&format!(
                ",\"retcode\":{},\"queue_wait_ms\":{},\"service_ms\":{},\"total_ms\":{},\
                 \"bytes\":{}}}",
                rec.retcode,
                json::number(rec.queue_wait_ms),
                json::number(rec.service_ms),
                json::number(rec.total_ms),
                rec.bytes,
            ));
            let mut w = log.lock().unwrap();
            if writeln!(w, "{line}").and_then(|()| w.flush()).is_ok() {
                self.access_lines.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Tail sampling: keep the span tree for errors and for requests at
        // or above the windowed slow quantile (threshold cached and
        // refreshed periodically; Infinity until enough samples exist, so
        // warm-up noise is not "slow").
        let n = self.observed.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(THRESHOLD_REFRESH) {
            if let Some(h) = self.windows.histogram_total("serve.latency_ms") {
                if h.count >= THRESHOLD_WARMUP {
                    let t = h.quantile(self.config.slow_quantile);
                    self.slow_threshold_bits.store(t.to_bits(), Ordering::Relaxed);
                }
            }
        }
        let is_error = rec.retcode >= 10;
        let threshold = f64::from_bits(self.slow_threshold_bits.load(Ordering::Relaxed));
        let is_slow = rec.total_ms >= threshold;
        if is_error || is_slow {
            self.retain_trace(rec, if is_error { "error" } else { "slow" });
        }
    }

    fn retain_trace(&self, rec: &RequestRecord, reason: &str) {
        let mut entry = String::with_capacity(192);
        entry.push_str("{\"trace_id\":");
        entry.push_str(&rec.trace_id.to_string());
        entry.push_str(",\"reason\":");
        json::escape_into(&mut entry, reason);
        entry.push_str(",\"type\":");
        json::escape_into(&mut entry, rec.kind);
        entry.push_str(",\"outcome\":");
        json::escape_into(&mut entry, rec.outcome);
        entry.push_str(&format!(
            ",\"queue_wait_ms\":{},\"service_ms\":{},\"total_ms\":{},\"spans\":",
            json::number(rec.queue_wait_ms),
            json::number(rec.service_ms),
            json::number(rec.total_ms),
        ));
        match &rec.trace_json {
            // Already a JSON document (Chrome trace export) — embed as-is.
            Some(spans) => entry.push_str(spans.trim_end()),
            None => entry.push_str("null"),
        }
        entry.push('}');
        let mut ring = self.sampled.lock().unwrap();
        while ring.len() >= self.config.trace_ring.max(1) {
            ring.pop_front();
        }
        ring.push_back(entry);
        self.traces_sampled.fetch_add(1, Ordering::Relaxed);
    }

    /// The retained traces as one JSON document (newest last).
    pub fn traces_json(&self) -> String {
        let ring = self.sampled.lock().unwrap();
        let mut out = String::with_capacity(64 + ring.iter().map(String::len).sum::<usize>());
        out.push_str("{\"schema\":\"pps-traces\",\"sampled_total\":");
        out.push_str(&self.traces_sampled().to_string());
        out.push_str(",\"traces\":[");
        for (i, t) in ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(t);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Flushes the access log (also done per line; kept for tests and
    /// explicit drains).
    pub fn flush(&self) {
        if let Some(log) = &self.access {
            let _ = log.lock().unwrap().flush();
        }
    }

    /// Renders `/health`: the snapshot plus windowed rates and latency
    /// quantiles.
    pub fn health_json(&self, h: &HealthSnapshot) -> String {
        let (reg, seconds) = self.windows.snapshot();
        let (mut total, mut errors, mut busy) = (0u64, 0u64, 0u64);
        for (key, value) in reg.counters() {
            if key.name != "serve.requests" {
                continue;
            }
            total += value;
            match key.labels.iter().find(|(k, _)| k == "outcome").map(|(_, v)| v.as_str()) {
                Some("ok") | None => {}
                Some("busy") => busy += value,
                Some(_) => errors += value,
            }
        }
        let lat = {
            let mut acc: Option<pps_obs::Histogram> = None;
            for (key, hist) in reg.histograms() {
                if key.name == "serve.latency_ms" {
                    acc.get_or_insert_with(Default::default).merge(hist);
                }
            }
            acc.unwrap_or_default()
        };
        let secs = seconds.max(1e-9);
        format!(
            "{{\"schema\":\"pps-health\",\"uptime_s\":{},\
             \"queue_depth\":{},\"queue_capacity\":{},\"workers\":{},\
             \"connections\":{},\"requests\":{},\
             \"pgo\":{{\"enabled\":{},\"profiles_merged\":{},\"units\":{},\"max_generation\":{},\
             \"drifted_units\":{},\"recompiles\":{},\"swaps\":{},\"rollbacks\":{},\
             \"in_flight_recompiles\":{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{},\
             \"entries\":{}}},\
             \"telemetry\":{{\"enabled\":{},\"access_log_lines\":{},\"traces_sampled\":{}}},\
             \"window\":{{\"seconds\":{},\"requests\":{},\"rps\":{},\"error_rps\":{},\"busy_rps\":{},\
             \"latency_ms\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p95\":{},\
             \"p99\":{},\"max\":{}}}}}}}\n",
            json::number(self.started.elapsed().as_secs_f64()),
            h.queue_depth,
            h.queue_capacity,
            h.workers,
            h.connections,
            h.requests,
            h.pgo_enabled,
            h.profiles_merged,
            h.units,
            h.max_generation,
            h.drifted_units,
            h.recompiles,
            h.swaps,
            h.rollbacks,
            h.in_flight_recompiles,
            h.cache_hits,
            h.cache_misses,
            h.cache_evictions,
            h.cache_invalidations,
            h.cache_entries,
            h.telemetry_enabled,
            h.access_log_lines,
            h.traces_sampled,
            json::number(seconds),
            total,
            json::number(total as f64 / secs),
            json::number(errors as f64 / secs),
            json::number(busy as f64 / secs),
            lat.count,
            json::number(lat.mean()),
            json::number(lat.quantile(0.50)),
            json::number(lat.quantile(0.90)),
            json::number(lat.quantile(0.95)),
            json::number(lat.quantile(0.99)),
            json::number(lat.max_or_zero()),
        )
    }

    /// Renders `/metrics`: the cumulative registry plus gauges from the
    /// health snapshot.
    pub fn metrics_exposition(&self, registry: &MetricsRegistry, h: &HealthSnapshot) -> String {
        let gauges = [
            Gauge::new("serve_queue_depth", f64::from(h.queue_depth)),
            Gauge::new("serve_queue_capacity", f64::from(h.queue_capacity)),
            Gauge::new("serve_workers", f64::from(h.workers)),
            Gauge::new("serve_connections", h.connections as f64),
            Gauge::new("pgo_enabled", f64::from(u8::from(h.pgo_enabled))),
            Gauge::new("pgo_profiles_merged", h.profiles_merged as f64),
            Gauge::new("pgo_units", f64::from(h.units)),
            Gauge::new("pgo_max_generation", h.max_generation as f64),
            Gauge::new("pgo_drifted_units", f64::from(h.drifted_units)),
            Gauge::new("pgo_recompiles", h.recompiles as f64),
            Gauge::new("pgo_swaps", h.swaps as f64),
            Gauge::new("pgo_rollbacks", h.rollbacks as f64),
            Gauge::new("pgo_in_flight_recompiles", f64::from(h.in_flight_recompiles)),
            Gauge::new("cache_hits", h.cache_hits as f64),
            Gauge::new("cache_misses", h.cache_misses as f64),
            Gauge::new("cache_evictions", h.cache_evictions as f64),
            Gauge::new("cache_invalidations", h.cache_invalidations as f64),
            Gauge::new("cache_entries", f64::from(h.cache_entries)),
            Gauge::new("telemetry_access_log_lines", h.access_log_lines as f64),
            Gauge::new("telemetry_traces_sampled", h.traces_sampled as f64),
        ];
        expo::render(registry, &gauges)
    }
}

// ----------------------------------------------------------------------
// Minimal HTTP/1.1 listener
// ----------------------------------------------------------------------

/// Serves `/metrics`, `/health`, and `/trace` until `shutdown` flips.
/// Requests are handled one at a time on this thread — scrapers poll at
/// human timescales, so there is nothing to parallelize.
pub(crate) fn http_loop(
    listener: TcpListener,
    telemetry: &Telemetry,
    obs: &Obs,
    health: &dyn Fn() -> HealthSnapshot,
    shutdown: &AtomicBool,
    poll: Duration,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_http(stream, telemetry, obs, health);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
            Err(_) => std::thread::sleep(poll),
        }
    }
}

fn handle_http(
    mut stream: TcpStream,
    telemetry: &Telemetry,
    obs: &Obs,
    health: &dyn Fn() -> HealthSnapshot,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true).ok();
    let path = match read_request_path(&mut stream) {
        Ok(p) => p,
        Err(_) => return write_http(&mut stream, 400, "text/plain", "bad request\n"),
    };
    match path.as_str() {
        "/metrics" => {
            let registry = obs.metrics_snapshot().unwrap_or_default();
            let body = telemetry.metrics_exposition(&registry, &health());
            write_http(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/health" => {
            let body = telemetry.health_json(&health());
            write_http(&mut stream, 200, "application/json", &body)
        }
        "/trace" => write_http(&mut stream, 200, "application/json", &telemetry.traces_json()),
        _ => write_http(&mut stream, 404, "text/plain", "unknown path\n"),
    }
}

/// Reads one request head (through the blank line) and returns the path.
/// Anything that is not a well-formed `GET <path> HTTP/1.x` head errors.
fn read_request_path(stream: &mut TcpStream) -> io::Result<String> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 256];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("GET"), Some(path), Some(version)) if version.starts_with("HTTP/1") => {
            // Strip any query string; the endpoints take no parameters.
            Ok(path.split('?').next().unwrap_or(path).to_string())
        }
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "not a GET request")),
    }
}

fn write_http(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: &'static str, retcode: u32, total_ms: f64) -> RequestRecord<'static> {
        RequestRecord {
            trace_id: 1,
            kind: "compile",
            outcome,
            retcode,
            queue_wait_ms: 0.1,
            service_ms: total_ms - 0.1,
            total_ms,
            bytes: 42,
            trace_json: Some("{\"traceEvents\":[]}".to_string()),
        }
    }

    #[test]
    fn errors_are_always_tail_sampled_and_ring_is_bounded() {
        let t = Telemetry::new(
            None,
            TelemetryConfig { trace_ring: 3, ..TelemetryConfig::default() },
        )
        .unwrap();
        for i in 0..10 {
            let mut r = record("internal", 18, 1.0);
            r.trace_id = i;
            t.observe(&r);
        }
        // Fast, ok requests before warm-up are not "slow".
        t.observe(&record("ok", 0, 0.5));
        assert_eq!(t.traces_sampled(), 10);
        let doc = json::parse(&t.traces_json()).expect("traces JSON parses");
        let traces = doc.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(traces.len(), 3, "ring keeps only the newest trace_ring entries");
        assert_eq!(traces[2].get("trace_id").unwrap().as_num(), Some(9.0));
        assert_eq!(traces[2].get("reason").unwrap().as_str(), Some("error"));
        assert!(traces[2].get("spans").unwrap().get("traceEvents").is_some());
    }

    #[test]
    fn slow_requests_sample_after_warmup() {
        let t = Telemetry::new(None, TelemetryConfig::default()).unwrap();
        // Warm the window and the threshold cache with fast requests.
        for _ in 0..THRESHOLD_WARMUP + THRESHOLD_REFRESH {
            t.observe(&record("ok", 0, 1.0));
        }
        let before = t.traces_sampled();
        t.observe(&record("ok", 0, 500.0));
        assert_eq!(t.traces_sampled(), before + 1, "an outlier must be tail-sampled");
        let json_doc = t.traces_json();
        assert!(json_doc.contains("\"reason\":\"slow\""), "{json_doc}");
    }

    #[test]
    fn access_log_lines_are_json_and_counted() {
        let dir = std::env::temp_dir().join(format!("pps-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let t = Telemetry::new(
            None,
            TelemetryConfig {
                access_log: Some(path.to_string_lossy().to_string()),
                ..TelemetryConfig::default()
            },
        )
        .unwrap();
        t.observe(&record("ok", 0, 2.0));
        t.observe(&record("deadline", 17, 9.0));
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(t.access_log_lines(), 2);
        for line in lines {
            let doc = json::parse(line).expect("access line parses as JSON");
            for field in ["ts_ms", "trace_id", "retcode", "queue_wait_ms", "service_ms", "bytes"] {
                assert!(doc.get(field).is_some(), "missing {field}: {line}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_json_reflects_window_rates() {
        let t = Telemetry::new(None, TelemetryConfig::default()).unwrap();
        for _ in 0..20 {
            t.observe(&record("ok", 0, 2.0));
        }
        t.observe(&record("busy", 1, 0.1));
        t.observe(&record("exec", 16, 3.0));
        let health = HealthSnapshot {
            workers: 4,
            cache_hits: 7,
            cache_entries: 3,
            ..HealthSnapshot::default()
        };
        let doc = json::parse(&t.health_json(&health)).expect("health JSON parses");
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_num(), Some(7.0));
        assert_eq!(cache.get("entries").unwrap().as_num(), Some(3.0));
        let window = doc.get("window").unwrap();
        assert_eq!(window.get("requests").unwrap().as_num(), Some(22.0));
        assert!(window.get("rps").unwrap().as_num().unwrap() > 0.0);
        assert!(window.get("error_rps").unwrap().as_num().unwrap() > 0.0);
        assert!(window.get("busy_rps").unwrap().as_num().unwrap() > 0.0);
        let lat = window.get("latency_ms").unwrap();
        assert_eq!(lat.get("count").unwrap().as_num(), Some(22.0));
        assert!(lat.get("p99").unwrap().as_num().unwrap() >= 1.0);
    }

    #[test]
    fn metrics_exposition_includes_gauges_and_validates() {
        let t = Telemetry::new(None, TelemetryConfig::default()).unwrap();
        let mut reg = MetricsRegistry::default();
        reg.add(MetricKey::new("serve.requests", &[("type", "ping"), ("outcome", "ok")]), 3);
        reg.record(MetricKey::new("serve.latency_ms", &[("type", "ping")]), 1.25);
        let health = HealthSnapshot {
            queue_depth: 2,
            queue_capacity: 64,
            workers: 4,
            pgo_enabled: true,
            swaps: 5,
            cache_hits: 11,
            cache_entries: 4,
            ..HealthSnapshot::default()
        };
        let text = t.metrics_exposition(&reg, &health);
        let doc = expo::parse(&text).expect("exposition parses");
        expo::validate(&doc).expect("exposition validates");
        assert_eq!(doc.single("serve_queue_depth"), Some(2.0));
        assert_eq!(doc.single("pgo_swaps"), Some(5.0));
        assert_eq!(doc.single("cache_hits"), Some(11.0));
        assert_eq!(doc.single("cache_entries"), Some(4.0));
        assert_eq!(doc.single("serve_latency_ms_count"), Some(1.0));
        assert_eq!(doc.total("serve_requests_total"), 3.0);
    }
}
