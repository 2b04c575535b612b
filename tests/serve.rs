//! End-to-end test of the compile service: a real daemon (in a background
//! thread) serving the real pipeline, driven concurrently, with every
//! reply checked byte-for-byte against the in-process [`pps::serve::execute`].

use pps::serve::loadgen::{self, LoadgenConfig};
use pps::obs::Obs;
use pps::serve::proto::{encode_response, Envelope, Request, Response};
use pps::serve::server::{ServeConfig, ServerHandle};
use pps::serve::service::PipelineHandler;
use pps::serve::Client;
use std::sync::Arc;
use std::time::Duration;

fn spawn_daemon() -> ServerHandle {
    let config = ServeConfig { poll: Duration::from_millis(5), ..ServeConfig::default() };
    ServerHandle::spawn(
        "127.0.0.1:0",
        config,
        Arc::new(PipelineHandler::default()),
        Obs::noop(),
        None,
    )
    .expect("bind")
}

#[test]
fn concurrent_requests_match_the_in_process_pipeline_byte_for_byte() {
    let server = spawn_daemon();
    let addr = server.addr().to_string();

    // The three request shapes of the loadgen mix, precomputed in-process.
    let requests = [
        Request::Profile { bench: "wc".into(), scale: 1, depth: 0 },
        Request::Compile { bench: "wc".into(), scale: 1, scheme: "P4".into(), profile: None },
        Request::RunCell { bench: "wc".into(), scale: 1, scheme: "M4".into(), strict: false },
    ];
    let expected: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_response(&pps::serve::execute(r, &Obs::noop(), None, None)))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..6 {
            let addr = &addr;
            let requests = &requests;
            let expected = &expected;
            scope.spawn(move || {
                let mut client =
                    Client::connect(addr, Some(Duration::from_secs(120))).expect("connect");
                for i in 0..3 {
                    let slot = (t + i) % requests.len();
                    let mut resp = client
                        .call(&Envelope::new(requests[slot].clone()))
                        .expect("request");
                    // The daemon may answer Busy under load; retry.
                    let mut tries = 0;
                    while matches!(resp, Response::Busy) {
                        tries += 1;
                        assert!(tries < 100, "persistent Busy");
                        std::thread::sleep(Duration::from_millis(10));
                        resp = client
                            .call(&Envelope::new(requests[slot].clone()))
                            .expect("retry");
                    }
                    assert_eq!(
                        encode_response(&resp),
                        expected[slot],
                        "thread {t} slot {slot}: daemon reply differs from in-process pipeline"
                    );
                }
            });
        }
    });

    server.shutdown();
    let stats = server.join().expect("clean drain");
    assert_eq!(stats.frame_errors, 0);
    assert!(stats.requests >= 18, "{stats:?}");
}

#[test]
fn loadgen_reports_clean_against_a_live_daemon_and_drains_it() {
    let server = spawn_daemon();
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
    let report = loadgen::run(&config, &Obs::noop()).expect("loadgen ran");
    assert!(report.clean(), "loadgen failures: {:?}", report.failures);
    assert_eq!(report.ok, 12);
    assert_eq!(report.probes_run, 6);
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency.max >= report.latency.p50);
    pps::obs::json::parse(&report.to_json(&config)).expect("report JSON parses");

    // loadgen's --shutdown flag sent the in-band Shutdown request: the
    // daemon must drain and exit on its own, no flag flip needed.
    let stats = server.join().expect("drained after in-band Shutdown");
    assert!(stats.requests >= 12, "{stats:?}");
}

#[test]
fn in_band_shutdown_answers_then_drains() {
    let server = spawn_daemon();
    let mut client =
        Client::connect(&server.addr().to_string(), Some(Duration::from_secs(30))).unwrap();
    let resp = client.request(Request::Shutdown).expect("shutdown reply");
    assert!(matches!(resp, Response::ShuttingDown), "got {resp:?}");
    // join() returning at all is the drain: the accept loop noticed the
    // in-band request, stopped, and the scope wound down.
    server.join().expect("drained");
}
