//! End-to-end tests of the live-telemetry stack: a real daemon with the
//! scrape listener, access log, and tail sampler attached, driven by the
//! real loadgen — scraped *while under load* — plus the two invariants
//! that make telemetry safe to leave on: reply bytes are identical with
//! it enabled, and every reply produces exactly one access-log line.

use pps::serve::loadgen::{self, LoadgenConfig};
use pps::serve::top::{self, TopConfig};
use pps::obs::expo;
use pps::obs::{json, Level, Obs, ObsConfig};
use pps::serve::proto::{encode_response, Envelope, Request, Response};
use pps::serve::server::{ServeConfig, ServerHandle};
use pps::serve::service::PipelineHandler;
use pps::serve::telemetry::{Telemetry, TelemetryConfig};
use pps::serve::Client;
use std::sync::Arc;
use std::time::Duration;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pps-telemetry-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn spawn_daemon_with_telemetry(access_log: &str) -> (ServerHandle, Arc<Telemetry>, String) {
    let tconfig = TelemetryConfig {
        access_log: Some(access_log.to_string()),
        ..TelemetryConfig::default()
    };
    let telemetry =
        Arc::new(Telemetry::new(Some("127.0.0.1:0"), tconfig).expect("telemetry bind"));
    let scrape = telemetry.http_addr().expect("scrape addr").to_string();
    let obs = Obs::recording(ObsConfig { level: Level::Off, trace: false, metrics: true });
    let config = ServeConfig { poll: Duration::from_millis(5), ..ServeConfig::default() };
    let server = ServerHandle::spawn(
        "127.0.0.1:0",
        config,
        Arc::new(PipelineHandler::default()),
        obs,
        Some(Arc::clone(&telemetry)),
    )
    .expect("bind");
    (server, telemetry, scrape)
}

#[test]
fn scrape_under_load_validates_and_access_log_matches_replies() {
    let log_path = temp_path("access-load.jsonl");
    let (server, telemetry, scrape) = spawn_daemon_with_telemetry(&log_path.to_string_lossy());
    let config = LoadgenConfig {
        addr: server.addr().to_string(),
        conns: 8,
        requests: 12,
        bench: "wc".into(),
        scale: 1,
        scheme: "P4".into(),
        probe_malformed: true,
        shutdown: true,
        ..LoadgenConfig::default()
    };

    let (report, polls, max_latency_count) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| loadgen::run(&config, &Obs::noop()).expect("loadgen ran"));
        // Scrape concurrently with the load, validating every exposition.
        let mut polls = 0u64;
        let mut max_latency_count = 0.0f64;
        while !handle.is_finished() {
            let text = match top::http_get(&scrape, "/metrics", Duration::from_secs(5)) {
                Ok(t) => t,
                // The in-band Shutdown at the end of the run races the
                // scrape; a refused connection there is not a failure.
                Err(_) => break,
            };
            let doc = expo::parse(&text).expect("exposition parses");
            expo::validate(&doc).expect("exposition validates");
            max_latency_count = max_latency_count.max(doc.total("serve_latency_ms_count"));
            polls += 1;
            std::thread::sleep(Duration::from_millis(25));
        }
        (handle.join().expect("loadgen thread"), polls, max_latency_count)
    });

    assert!(report.clean(), "loadgen failures: {:?}", report.failures);
    assert_eq!(report.ok, 12);
    assert!(polls > 0, "never managed to scrape during the load phase");
    assert!(
        max_latency_count > 0.0,
        "serve_latency_ms must accumulate samples while loadgen drives"
    );

    let stats = server.join().expect("drained after in-band Shutdown");
    telemetry.flush();
    let text = std::fs::read_to_string(&log_path).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len() as u64,
        stats.requests,
        "one access-log line per reply (got {} lines, {} replies)",
        lines.len(),
        stats.requests
    );
    for line in &lines {
        let doc = json::parse(line).expect("access-log line is JSON");
        for field in
            ["ts_ms", "trace_id", "type", "outcome", "retcode", "queue_wait_ms", "bytes"]
        {
            assert!(doc.get(field).is_some(), "missing {field}: {line}");
        }
    }
    // The malformed-frame probes show up as error outcomes and are
    // tail-sampled unconditionally.
    assert!(telemetry.access_log_lines() >= 12);
    assert!(telemetry.traces_sampled() > 0, "probe errors must be tail-sampled");
    std::fs::remove_file(&log_path).ok();
}

#[test]
fn replies_are_byte_identical_with_telemetry_on() {
    let log_path = temp_path("access-ident.jsonl");
    let (server, telemetry, scrape) = spawn_daemon_with_telemetry(&log_path.to_string_lossy());
    let addr = server.addr().to_string();

    let requests = [
        Request::Profile { bench: "wc".into(), scale: 1, depth: 0 },
        Request::Compile { bench: "wc".into(), scale: 1, scheme: "P4".into(), profile: None },
        Request::RunCell { bench: "wc".into(), scale: 1, scheme: "M4".into(), strict: false },
        // An unknown bench: the error reply must match too, and the error
        // outcome must land in the tail sampler.
        Request::Compile { bench: "nope".into(), scale: 1, scheme: "P4".into(), profile: None },
    ];
    let expected: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_response(&pps::serve::execute(r, &Obs::noop(), None, None)))
        .collect();

    let mut client = Client::connect(&addr, Some(Duration::from_secs(120))).expect("connect");
    for (i, request) in requests.iter().enumerate() {
        let mut resp = client.call(&Envelope::new(request.clone())).expect("request");
        let mut tries = 0;
        while matches!(resp, Response::Busy) {
            tries += 1;
            assert!(tries < 100, "persistent Busy");
            std::thread::sleep(Duration::from_millis(10));
            resp = client.call(&Envelope::new(request.clone())).expect("retry");
        }
        assert_eq!(
            encode_response(&resp),
            expected[i],
            "request {i}: reply with telemetry on differs from the in-process pipeline"
        );
    }

    // The health snapshot advertises the telemetry counters through the
    // same socket the work flows over.
    let Response::Pong { health } = client.request(Request::Ping).expect("ping") else {
        panic!("expected Pong");
    };
    assert!(health.telemetry_enabled);
    assert!(health.access_log_lines >= 4, "{health:?}");
    assert!(health.traces_sampled >= 1, "error reply must be tail-sampled");

    // /health agrees with the Pong, /trace carries the sampled span tree.
    let health_doc = json::parse(
        &top::http_get(&scrape, "/health", Duration::from_secs(5)).expect("GET /health"),
    )
    .expect("health JSON");
    assert_eq!(
        health_doc.get("telemetry").and_then(|t| t.get("enabled")),
        Some(&json::Json::Bool(true))
    );
    let traces = json::parse(
        &top::http_get(&scrape, "/trace", Duration::from_secs(5)).expect("GET /trace"),
    )
    .expect("traces JSON");
    let sampled = traces.get("traces").and_then(json::Json::as_arr).expect("traces array");
    assert!(!sampled.is_empty(), "the unknown-bench error must be retained");
    assert!(sampled
        .iter()
        .any(|t| t.get("reason").and_then(json::Json::as_str) == Some("error")));

    // `pps-client top --watch-json` over the live daemon: every line is
    // machine-readable and the poll validates the exposition en route.
    let mut out = Vec::new();
    let top_config = TopConfig {
        addr: scrape.clone(),
        interval: Duration::from_millis(50),
        iterations: Some(2),
        json: true,
    };
    top::run(&top_config, &mut out).expect("top --watch-json");
    let out = String::from_utf8(out).expect("utf8");
    let json_lines: Vec<&str> = out.lines().collect();
    assert_eq!(json_lines.len(), 2);
    for line in json_lines {
        let doc = json::parse(line).expect("pps-top line parses");
        assert_eq!(doc.get("schema").and_then(json::Json::as_str), Some("pps-top"));
        assert!(doc.get("window").is_some());
    }

    server.shutdown();
    let stats = server.join().expect("clean drain");
    telemetry.flush();
    let text = std::fs::read_to_string(&log_path).expect("access log exists");
    assert_eq!(text.lines().count() as u64, stats.requests);
    // The error line carries the structured retcode (10 + kind).
    assert!(
        text.lines().any(|l| l.contains("\"outcome\":\"unknown-bench\"")),
        "unknown-bench outcome missing from access log"
    );
    std::fs::remove_file(&log_path).ok();
}
