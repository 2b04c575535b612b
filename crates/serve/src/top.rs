//! `pps-client top`: a live terminal dashboard for a `pps-serve` daemon
//! running with `--telemetry-addr`.
//!
//! Each poll does two HTTP GETs against the telemetry listener:
//!
//! - `/metrics` — parsed **and validated** with [`pps_obs::expo`] (series
//!   finite, histogram buckets cumulative and `+Inf`-terminated, `_count`
//!   consistent); request-rate and error-rate are counter *deltas*
//!   between consecutive scrapes, the same arithmetic a Prometheus
//!   `rate()` does;
//! - `/health` — the daemon's snapshot plus windowed rates and latency
//!   quantiles over the recent past (see
//!   [`pps_obs::WindowedRegistry`]).
//!
//! The default view repaints an ANSI dashboard per interval. With
//! `--watch-json` it instead emits one machine-readable JSON line per
//! poll (schema `pps-top` v1) — that mode doubles as the CI scrape
//! validator: any malformed exposition or unreachable endpoint is a hard
//! error, not a rendering detail.

use pps_obs::expo::{self, ExpoDoc};
use pps_obs::json::{self, Json};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Dashboard configuration (`pps-client top` flags).
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Telemetry listener address (`HOST:PORT`).
    pub addr: String,
    /// Poll interval.
    pub interval: Duration,
    /// Stop after this many polls (`None` = until interrupted).
    pub iterations: Option<u64>,
    /// Emit one JSON line per poll instead of repainting the dashboard.
    pub json: bool,
}

impl Default for TopConfig {
    fn default() -> Self {
        TopConfig {
            addr: "127.0.0.1:9100".to_string(),
            interval: Duration::from_millis(1000),
            iterations: None,
            json: false,
        }
    }
}

/// One HTTP GET over a fresh connection; returns the body of a 200 reply.
///
/// # Errors
/// Connect/read failures, non-200 statuses, and malformed responses.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).ok();
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).map_err(|e| format!("GET {path}: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("read {path}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{path}: missing header terminator"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{path}: {status}"));
    }
    Ok(body.to_string())
}

/// Everything one poll extracted from the two endpoints.
#[derive(Debug, Clone)]
pub struct TopSample {
    at: Instant,
    /// Sum of `serve_requests_total` across labels.
    requests_total: f64,
    /// ... with error outcomes (not ok, not busy).
    errors_total: f64,
    /// ... with the busy outcome.
    busy_total: f64,
    /// Series count in the validated exposition.
    pub series: usize,
    /// The parsed `/health` document.
    pub health: Json,
}

fn outcome_of(labels: &[(String, String)]) -> &str {
    labels.iter().find(|(k, _)| k == "outcome").map_or("ok", |(_, v)| v.as_str())
}

fn sum_requests(doc: &ExpoDoc) -> (f64, f64, f64) {
    let (mut total, mut errors, mut busy) = (0.0, 0.0, 0.0);
    for s in doc.by_name("serve_requests_total") {
        total += s.value;
        match outcome_of(&s.labels) {
            "ok" => {}
            "busy" => busy += s.value,
            _ => errors += s.value,
        }
    }
    (total, errors, busy)
}

/// Polls both endpoints once and validates the exposition.
///
/// # Errors
/// Unreachable endpoints, non-200 replies, exposition parse/validation
/// failures, or unparseable health JSON — all fatal by design.
pub fn poll(addr: &str, timeout: Duration) -> Result<TopSample, String> {
    let exposition = http_get(addr, "/metrics", timeout)?;
    let doc = expo::parse(&exposition).map_err(|e| format!("/metrics parse: {e}"))?;
    expo::validate(&doc).map_err(|e| format!("/metrics validate: {e}"))?;
    let health_text = http_get(addr, "/health", timeout)?;
    let health = json::parse(&health_text).map_err(|e| format!("/health parse: {e}"))?;
    let (requests_total, errors_total, busy_total) = sum_requests(&doc);
    Ok(TopSample {
        at: Instant::now(),
        requests_total,
        errors_total,
        busy_total,
        series: doc.samples.len(),
        health,
    })
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_num().unwrap_or(0.0)
}

/// Derived view of one poll (deltas against the previous one, windowed
/// numbers from `/health`).
#[derive(Debug, Clone, Default)]
pub struct TopView {
    /// Requests/s from the counter delta between the last two scrapes
    /// (0 on the first poll).
    pub scrape_rps: f64,
    /// Error replies/s from the counter delta.
    pub scrape_error_rps: f64,
    /// Busy replies/s from the counter delta.
    pub scrape_busy_rps: f64,
    /// Requests/s over the daemon's rolling window.
    pub window_rps: f64,
    /// Error replies/s over the window.
    pub window_error_rps: f64,
    /// Busy replies/s over the window.
    pub window_busy_rps: f64,
    /// Windowed latency quantiles, milliseconds: (p50, p90, p95, p99, max).
    pub latency_ms: (f64, f64, f64, f64, f64),
    /// Worker utilization estimate in [0, 1]: windowed request-seconds
    /// per worker-second (Little's law on the windowed mean latency).
    pub utilization: f64,
    /// Queue depth / capacity / workers / connections.
    pub queue_depth: f64,
    /// Queue capacity.
    pub queue_capacity: f64,
    /// Worker threads.
    pub workers: f64,
    /// Connections accepted so far.
    pub connections: f64,
    /// PGO counters: (units, max_generation, drifted, recompiles, swaps,
    /// rollbacks, in_flight).
    pub pgo: (f64, f64, f64, f64, f64, f64, f64),
    /// Telemetry counters: (access_log_lines, traces_sampled).
    pub telemetry: (f64, f64),
    /// Cumulative request total from the scrape.
    pub requests_total: f64,
    /// Validated series count in the exposition.
    pub series: usize,
    /// Daemon uptime, seconds.
    pub uptime_s: f64,
}

/// Reduces a poll (and its predecessor, for deltas) to the display values.
pub fn view(prev: Option<&TopSample>, cur: &TopSample) -> TopView {
    let h = &cur.health;
    let mut v = TopView {
        window_rps: num(h, &["window", "rps"]),
        window_error_rps: num(h, &["window", "error_rps"]),
        window_busy_rps: num(h, &["window", "busy_rps"]),
        latency_ms: (
            num(h, &["window", "latency_ms", "p50"]),
            num(h, &["window", "latency_ms", "p90"]),
            num(h, &["window", "latency_ms", "p95"]),
            num(h, &["window", "latency_ms", "p99"]),
            num(h, &["window", "latency_ms", "max"]),
        ),
        queue_depth: num(h, &["queue_depth"]),
        queue_capacity: num(h, &["queue_capacity"]),
        workers: num(h, &["workers"]),
        connections: num(h, &["connections"]),
        pgo: (
            num(h, &["pgo", "units"]),
            num(h, &["pgo", "max_generation"]),
            num(h, &["pgo", "drifted_units"]),
            num(h, &["pgo", "recompiles"]),
            num(h, &["pgo", "swaps"]),
            num(h, &["pgo", "rollbacks"]),
            num(h, &["pgo", "in_flight_recompiles"]),
        ),
        telemetry: (
            num(h, &["telemetry", "access_log_lines"]),
            num(h, &["telemetry", "traces_sampled"]),
        ),
        requests_total: cur.requests_total,
        series: cur.series,
        uptime_s: num(h, &["uptime_s"]),
        ..TopView::default()
    };
    if let Some(p) = prev {
        let dt = cur.at.duration_since(p.at).as_secs_f64().max(1e-9);
        v.scrape_rps = ((cur.requests_total - p.requests_total) / dt).max(0.0);
        v.scrape_error_rps = ((cur.errors_total - p.errors_total) / dt).max(0.0);
        v.scrape_busy_rps = ((cur.busy_total - p.busy_total) / dt).max(0.0);
    }
    let mean_ms = num(h, &["window", "latency_ms", "mean"]);
    if v.workers > 0.0 {
        v.utilization = (v.window_rps * mean_ms / 1e3 / v.workers).clamp(0.0, 1.0);
    }
    v
}

/// One `--watch-json` output line (schema `pps-top` v1), without the
/// trailing newline.
pub fn json_line(seq: u64, v: &TopView) -> String {
    format!(
        "{{\"schema\":\"pps-top\",\"version\":1,\"seq\":{seq},\"uptime_s\":{},\
         \"rps\":{},\"error_rps\":{},\"busy_rps\":{},\
         \"window\":{{\"rps\":{},\"error_rps\":{},\"busy_rps\":{},\
         \"latency_ms\":{{\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"max\":{}}}}},\
         \"queue_depth\":{},\"queue_capacity\":{},\"workers\":{},\"connections\":{},\
         \"utilization\":{},\
         \"pgo\":{{\"units\":{},\"max_generation\":{},\"drifted_units\":{},\"recompiles\":{},\
         \"swaps\":{},\"rollbacks\":{},\"in_flight_recompiles\":{}}},\
         \"telemetry\":{{\"access_log_lines\":{},\"traces_sampled\":{}}},\
         \"exposition\":{{\"series\":{},\"valid\":true}},\"requests_total\":{}}}",
        json::number(v.uptime_s),
        json::number(v.scrape_rps),
        json::number(v.scrape_error_rps),
        json::number(v.scrape_busy_rps),
        json::number(v.window_rps),
        json::number(v.window_error_rps),
        json::number(v.window_busy_rps),
        json::number(v.latency_ms.0),
        json::number(v.latency_ms.1),
        json::number(v.latency_ms.2),
        json::number(v.latency_ms.3),
        json::number(v.latency_ms.4),
        json::number(v.queue_depth),
        json::number(v.queue_capacity),
        json::number(v.workers),
        json::number(v.connections),
        json::number(v.utilization),
        json::number(v.pgo.0),
        json::number(v.pgo.1),
        json::number(v.pgo.2),
        json::number(v.pgo.3),
        json::number(v.pgo.4),
        json::number(v.pgo.5),
        json::number(v.pgo.6),
        json::number(v.telemetry.0),
        json::number(v.telemetry.1),
        v.series,
        json::number(v.requests_total),
    )
}

/// The repainted dashboard frame (ANSI home+clear prefix included).
pub fn render(addr: &str, v: &TopView) -> String {
    let bar = |frac: f64| {
        let width = 20usize;
        let filled = ((frac * width as f64).round() as usize).min(width);
        format!("[{}{}]", "#".repeat(filled), "-".repeat(width - filled))
    };
    let queue_frac =
        if v.queue_capacity > 0.0 { v.queue_depth / v.queue_capacity } else { 0.0 };
    format!(
        "\x1b[H\x1b[2J\
         pps-client top — {addr}   uptime {up:.1}s   series {series}\n\
         \n\
         rps      {rps:8.1}  (scrape Δ)    window {wrps:8.1}/s\n\
         errors   {erps:8.2}/s             busy   {brps:8.2}/s\n\
         latency  p50 {p50:7.2}  p90 {p90:7.2}  p95 {p95:7.2}  p99 {p99:7.2}  max {max:7.2}  ms\n\
         \n\
         queue    {qd:.0}/{qc:.0} {qbar}\n\
         workers  {wk:.0}   util {ubar} {util:3.0}%   conns {conns:.0}\n\
         \n\
         pgo      units {units:.0}  gen {generation:.0}  drifted {drifted:.0}  recompiles {rc:.0}  \
         swaps {swaps:.0}  rollbacks {rb:.0}  in-flight {inflight:.0}\n\
         telemetry  access-log lines {lines:.0}   traces sampled {traces:.0}\n",
        up = v.uptime_s,
        series = v.series,
        rps = v.scrape_rps,
        wrps = v.window_rps,
        erps = v.scrape_error_rps,
        brps = v.scrape_busy_rps,
        p50 = v.latency_ms.0,
        p90 = v.latency_ms.1,
        p95 = v.latency_ms.2,
        p99 = v.latency_ms.3,
        max = v.latency_ms.4,
        qd = v.queue_depth,
        qc = v.queue_capacity,
        qbar = bar(queue_frac),
        wk = v.workers,
        ubar = bar(v.utilization),
        util = v.utilization * 100.0,
        conns = v.connections,
        units = v.pgo.0,
        generation = v.pgo.1,
        drifted = v.pgo.2,
        rc = v.pgo.3,
        swaps = v.pgo.4,
        rb = v.pgo.5,
        inflight = v.pgo.6,
        lines = v.telemetry.0,
        traces = v.telemetry.1,
    )
}

/// Runs the dashboard loop, writing frames (or JSON lines) to `out`.
///
/// # Errors
/// A failed poll (unreachable daemon, invalid exposition) or a failed
/// write to `out`; in JSON mode both are fatal so CI can rely on the
/// exit status.
pub fn run(config: &TopConfig, out: &mut dyn std::io::Write) -> Result<(), String> {
    let timeout = config.interval.max(Duration::from_millis(250)) * 4;
    let mut prev: Option<TopSample> = None;
    let mut seq = 0u64;
    loop {
        let sample = poll(&config.addr, timeout)?;
        let v = view(prev.as_ref(), &sample);
        seq += 1;
        let text = if config.json {
            let mut line = json_line(seq, &v);
            line.push('\n');
            line
        } else {
            render(&config.addr, &v)
        };
        out.write_all(text.as_bytes()).map_err(|e| format!("write: {e}"))?;
        out.flush().ok();
        prev = Some(sample);
        if let Some(n) = config.iterations {
            if seq >= n {
                return Ok(());
            }
        }
        std::thread::sleep(config.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(requests: f64, errors: f64, at: Instant, health: &str) -> TopSample {
        TopSample {
            at,
            requests_total: requests,
            errors_total: errors,
            busy_total: 0.0,
            series: 7,
            health: json::parse(health).unwrap(),
        }
    }

    const HEALTH: &str = r#"{"schema":"pps-health","uptime_s":12.5,"queue_depth":3,
        "queue_capacity":64,"workers":4,"connections":9,"requests":500,
        "pgo":{"enabled":true,"units":2,"max_generation":3,"drifted_units":1,
               "recompiles":5,"swaps":4,"rollbacks":1,"in_flight_recompiles":0},
        "telemetry":{"enabled":true,"access_log_lines":500,"traces_sampled":7},
        "window":{"seconds":4.0,"requests":400,"rps":100.0,"error_rps":0.5,"busy_rps":0,
                  "latency_ms":{"count":400,"mean":20.0,"p50":15.0,"p90":30.0,
                                "p95":35.0,"p99":60.0,"max":80.0}}}"#;

    #[test]
    fn view_computes_scrape_deltas_and_utilization() {
        let t0 = Instant::now();
        let a = sample(100.0, 1.0, t0, HEALTH);
        let b = sample(300.0, 3.0, t0 + Duration::from_secs(2), HEALTH);
        let v = view(Some(&a), &b);
        assert!((v.scrape_rps - 100.0).abs() < 1e-6, "{}", v.scrape_rps);
        assert!((v.scrape_error_rps - 1.0).abs() < 1e-6);
        assert!((v.window_rps - 100.0).abs() < 1e-6);
        assert_eq!(v.latency_ms.3, 60.0);
        // 100 rps × 20 ms = 2 request-seconds/s over 4 workers → 50%.
        assert!((v.utilization - 0.5).abs() < 1e-6, "{}", v.utilization);
        assert_eq!(v.pgo.4, 4.0, "swaps");
        // First poll has no baseline: deltas are zero, window numbers live.
        let first = view(None, &a);
        assert_eq!(first.scrape_rps, 0.0);
        assert!((first.window_rps - 100.0).abs() < 1e-6);
    }

    #[test]
    fn json_line_parses_and_carries_the_numbers() {
        let t0 = Instant::now();
        let a = sample(0.0, 0.0, t0, HEALTH);
        let b = sample(50.0, 0.0, t0 + Duration::from_secs(1), HEALTH);
        let v = view(Some(&a), &b);
        let doc = json::parse(&json_line(3, &v)).expect("top JSON line parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("pps-top"));
        assert_eq!(doc.get("seq").unwrap().as_num(), Some(3.0));
        assert!((doc.get("rps").unwrap().as_num().unwrap() - 50.0).abs() < 1e-6);
        let window = doc.get("window").unwrap();
        assert_eq!(window.get("latency_ms").unwrap().get("p95").unwrap().as_num(), Some(35.0));
        assert_eq!(doc.get("utilization").unwrap().as_num(), Some(0.5));
        assert_eq!(doc.get("exposition").unwrap().get("series").unwrap().as_num(), Some(7.0));
    }

    #[test]
    fn render_mentions_the_key_numbers() {
        let t0 = Instant::now();
        let s = sample(10.0, 0.0, t0, HEALTH);
        let frame = render("127.0.0.1:9", &view(None, &s));
        for needle in ["pps-client top", "latency", "queue", "workers", "pgo", "swaps 4"] {
            assert!(frame.contains(needle), "missing {needle:?} in frame:\n{frame}");
        }
    }
}
