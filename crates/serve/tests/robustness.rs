//! Adversarial-input tests: whatever bytes arrive, the daemon must answer
//! with a structured error or close the connection cleanly — never panic,
//! never hang — and keep serving well-formed peers afterwards.

use pps_obs::Obs;
use pps_serve::cache::{CompileCache, DEFAULT_CAPACITY};
use pps_serve::frame::{self, HEADER_LEN, MAX_PAYLOAD, VERSION};
use pps_serve::pgo::{PgoConfig, PgoState};
use pps_serve::proto::{
    decode_response, encode_request, encode_response, Envelope, ErrorKind, ProfileText, Request,
    Response,
};
use pps_serve::server::{Handler, ServeConfig, ServerHandle};
use pps_serve::service::{execute, PipelineHandler};
use pps_serve::Client;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Replies instantly without touching the pipeline; optionally blocks
/// until released (for backpressure/deadline tests) and counts calls.
#[derive(Default)]
struct MockHandler {
    calls: AtomicUsize,
    gate: Option<(Mutex<bool>, Condvar)>,
}

impl MockHandler {
    fn gated() -> Self {
        MockHandler { calls: AtomicUsize::new(0), gate: Some((Mutex::new(false), Condvar::new())) }
    }

    fn release(&self) {
        if let Some((lock, cv)) = &self.gate {
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
    }
}

impl Handler for MockHandler {
    fn handle(&self, request: &Request, _obs: &Obs) -> Response {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if let Some((lock, cv)) = &self.gate {
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
        Response::Compile { report: format!("mock reply to {}", request.kind_name()) }
    }
}

/// Small timeouts so a regression fails fast instead of pinning CI.
fn test_config() -> ServeConfig {
    ServeConfig {
        poll: Duration::from_millis(5),
        frame_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

fn spawn(handler: Arc<dyn Handler>, config: ServeConfig) -> ServerHandle {
    ServerHandle::spawn("127.0.0.1:0", config, handler, Obs::noop(), None).expect("bind")
}

/// Sends raw bytes, half-closes, and drains whatever comes back. Panics on
/// a read timeout — that is the "daemon hung on garbage" failure mode.
fn send_raw(addr: &std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).expect("send");
    stream.shutdown(Shutdown::Write).ok();
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Ok(_) => {}
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
            ) => {}
        Err(e) => panic!("daemon hung or errored on garbage: {e}"),
    }
    reply
}

/// A reply, if present, must be exactly one structured-error frame.
fn assert_clean_rejection(reply: &[u8], what: &str) {
    if reply.is_empty() {
        return; // clean close without a reply is acceptable
    }
    let payload = frame::read_frame(&mut &reply[..])
        .unwrap_or_else(|e| panic!("{what}: reply not a valid frame: {e}"));
    match decode_response(&payload) {
        Ok(Response::Error { .. }) => {}
        Ok(other) => panic!("{what}: expected an error reply, got {}", other.outcome_name()),
        Err(e) => panic!("{what}: reply payload did not decode: {e}"),
    }
}

fn good_ping_frame() -> Vec<u8> {
    frame::encode_frame(&encode_request(&Envelope::new(Request::Ping)))
}

#[test]
fn malformed_headers_get_one_bad_frame_reply_then_close() {
    let server = spawn(Arc::new(MockHandler::default()), test_config());
    let addr = server.addr();
    let good = good_ping_frame();

    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"JUNK");
    let mut bad_version = good.clone();
    bad_version[4] = VERSION + 1;
    let mut bad_reserved = good.clone();
    bad_reserved[5] = 0xff;
    let mut oversized = good.clone();
    oversized[6..10].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_be_bytes());
    let mut bad_checksum = good.clone();
    let last = bad_checksum.len() - 1;
    bad_checksum[last] ^= 0x5a;

    for (name, bytes) in [
        ("bad magic", bad_magic),
        ("bad version", bad_version),
        ("bad reserved", bad_reserved),
        ("oversized length", oversized),
        ("checksum mismatch", bad_checksum),
    ] {
        let reply = send_raw(&addr, &bytes);
        assert!(!reply.is_empty(), "{name}: want a structured BadFrame reply");
        let payload = frame::read_frame(&mut &reply[..]).expect(name);
        let resp = decode_response(&payload).expect(name);
        assert!(
            matches!(resp, Response::Error { kind: ErrorKind::BadFrame, .. }),
            "{name}: got {resp:?}"
        );
    }

    // The daemon is still healthy.
    let mut client = Client::connect(&addr.to_string(), Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(client.request(Request::Ping), Ok(Response::Pong { .. })));
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn truncated_frames_and_mid_request_disconnects_never_hang() {
    let server = spawn(Arc::new(MockHandler::default()), test_config());
    let addr = server.addr();
    let good = good_ping_frame();

    // Cut the stream at every prefix of a valid frame: header fragments,
    // full header with missing payload, and the degenerate empty send.
    for cut in 0..good.len() {
        let reply = send_raw(&addr, &good[..cut]);
        assert_clean_rejection(&reply, &format!("truncated at {cut}"));
    }

    // Disconnect right after a complete request, before reading the reply:
    // the worker's reply channel dies mid-request and the server must shrug.
    let compile = frame::encode_frame(&encode_request(&Envelope::new(Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "P4".into(),
        profile: None,
    })));
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&compile).unwrap();
        drop(stream);
    }

    // Still serving.
    let mut client = Client::connect(&addr.to_string(), Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(client.request(Request::Ping), Ok(Response::Pong { .. })));
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn malformed_payload_keeps_the_connection_alive() {
    let server = spawn(Arc::new(MockHandler::default()), test_config());
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr, Some(Duration::from_secs(10))).unwrap();

    // A perfectly framed payload full of garbage: frame boundaries held, so
    // the server answers BadRequest and the same connection keeps working.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    frame::write_frame(&mut stream, b"\xff\xffnot a request").unwrap();
    let payload = frame::read_frame(&mut stream).expect("structured reply");
    let resp = decode_response(&payload).expect("decodes");
    assert!(matches!(resp, Response::Error { kind: ErrorKind::BadRequest, .. }), "got {resp:?}");
    frame::write_frame(&mut stream, &encode_request(&Envelope::new(Request::Ping))).unwrap();
    let payload = frame::read_frame(&mut stream).expect("conn survived");
    assert!(matches!(decode_response(&payload), Ok(Response::Pong { .. })));

    assert!(matches!(client.request(Request::Ping), Ok(Response::Pong { .. })));
    server.shutdown();
    server.join().unwrap();
}

/// xorshift64* — deterministic corruption, independent of any RNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

#[test]
fn seeded_corruption_sweep_never_panics_or_hangs() {
    let handler = Arc::new(MockHandler::default());
    let server = spawn(handler, test_config());
    let addr = server.addr();
    let good = frame::encode_frame(&encode_request(&Envelope::new(Request::Profile {
        bench: "wc".into(),
        scale: 1,
        depth: 0,
    })));

    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for case in 0..48 {
        let mut bytes = good.clone();
        match case % 3 {
            // Flip 1–4 bytes anywhere in the frame.
            0 => {
                for _ in 0..=(rng.next() % 4) {
                    let i = (rng.next() as usize) % bytes.len();
                    bytes[i] ^= (rng.next() % 255 + 1) as u8;
                }
            }
            // Truncate to a random prefix.
            1 => bytes.truncate((rng.next() as usize) % bytes.len()),
            // Flip a byte AND truncate — corrupt and short.
            _ => {
                let i = (rng.next() as usize) % bytes.len();
                bytes[i] ^= 0x80;
                let keep = HEADER_LEN.min(bytes.len());
                bytes.truncate(keep + (rng.next() as usize) % (bytes.len() - keep + 1));
            }
        }
        // Corruption may happen to leave a valid frame (payload flips keep
        // the checksum only if unchanged); any reply that decodes is fine —
        // the test is that nothing panics or hangs.
        let reply = send_raw(&addr, &bytes);
        if !reply.is_empty() {
            if let Ok(payload) = frame::read_frame(&mut &reply[..]) {
                decode_response(&payload)
                    .unwrap_or_else(|e| panic!("case {case}: undecodable reply: {e}"));
            }
        }
    }

    let mut client = Client::connect(&addr.to_string(), Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(client.request(Request::Ping), Ok(Response::Pong { .. })));
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn full_queue_rejects_with_busy_and_drains_on_shutdown() {
    let handler = Arc::new(MockHandler::gated());
    let config = ServeConfig { workers: 1, queue_capacity: 1, ..test_config() };
    let server = spawn(Arc::clone(&handler) as Arc<dyn Handler>, config);
    let addr = server.addr().to_string();

    let req = Request::Compile { bench: "wc".into(), scale: 1, scheme: "BB".into(), profile: None };

    // One request occupies the single (gated) worker; wait until it is
    // actually being handled, so the queue is observably empty.
    let blocker = {
        let addr = addr.clone();
        let req = req.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Some(Duration::from_secs(30))).unwrap();
            c.request(req).unwrap()
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handler.calls.load(Ordering::SeqCst) < 1 {
        assert!(std::time::Instant::now() < deadline, "worker never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Probe with a short reply timeout. The first probe gets queued (its
    // reply blocks behind the gate, so the client times out) — the queue
    // is now full, and a subsequent probe must bounce with Busy.
    let mut saw_busy = false;
    let mut queued: Vec<Client> = Vec::new();
    for _ in 0..200 {
        let mut c = Client::connect(&addr, Some(Duration::from_millis(250))).unwrap();
        match c.request(req.clone()) {
            Ok(Response::Busy) => {
                saw_busy = true;
                break;
            }
            // Timed out: this probe occupies the queue slot; keep the
            // connection alive so the slot stays taken.
            Err(_) => queued.push(c),
            Ok(other) => panic!("unexpected reply {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_busy, "a full queue never answered Busy");

    // Graceful drain: release the gate, request shutdown; the in-flight
    // request must still complete (accepted work is never dropped).
    server.shutdown();
    handler.release();
    let resp = blocker.join().expect("blocker panicked");
    assert!(matches!(resp, Response::Compile { .. }), "dropped during drain: {resp:?}");
    drop(queued);
    let stats = server.join().unwrap();
    assert!(stats.busy >= 1, "busy count not recorded: {stats:?}");
    assert!(stats.requests >= 3);
}

#[test]
fn queue_wait_deadlines_are_enforced() {
    let handler = Arc::new(MockHandler::gated());
    let config = ServeConfig { workers: 1, queue_capacity: 4, ..test_config() };
    let server = spawn(Arc::clone(&handler) as Arc<dyn Handler>, config);
    let addr = server.addr().to_string();

    let req = Request::Compile { bench: "wc".into(), scale: 1, scheme: "BB".into(), profile: None };

    // Occupy the worker.
    let blocker = {
        let addr = addr.clone();
        let req = req.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Some(Duration::from_secs(30))).unwrap();
            c.request(req).unwrap()
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handler.calls.load(Ordering::SeqCst) < 1 {
        assert!(std::time::Instant::now() < deadline, "worker never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Queue a request with a 1ms deadline, let it soak, then release: the
    // worker must answer DeadlineExceeded without running the handler.
    let impatient = {
        let addr = addr.clone();
        let req = req.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Some(Duration::from_secs(30))).unwrap();
            c.call(&Envelope { deadline_ms: 1, request: req }).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let calls_before = handler.calls.load(Ordering::SeqCst);
    handler.release();
    let resp = impatient.join().expect("impatient waiter panicked");
    assert!(
        matches!(resp, Response::Error { kind: ErrorKind::DeadlineExceeded, .. }),
        "got {resp:?}"
    );
    assert_eq!(calls_before, 1, "expired request must not reach the handler");
    assert!(matches!(blocker.join().unwrap(), Response::Compile { .. }));
    server.shutdown();
    server.join().unwrap();
}

/// A carried edge profile of 48 bytes whose header declares 2^40 blocks:
/// allocating its counters would abort the whole daemon. It must get a
/// `BadProfile` reply, and the daemon must then answer a valid `Compile`
/// byte-identically to the in-process pipeline.
#[test]
fn hostile_carried_profile_is_refused_and_the_daemon_keeps_serving() {
    let store = Arc::new(CompileCache::new(DEFAULT_CAPACITY));
    let pgo = Arc::new(PgoState::new(PgoConfig::default(), Obs::noop(), Arc::clone(&store)));
    let server = spawn(Arc::new(PipelineHandler::new(Some(store), Some(pgo))), test_config());
    let trained = Request::Profile { bench: "wc".into(), scale: 1, depth: 0 };
    let Response::Profile { edge, path } = execute(&trained, &Obs::noop(), None, None) else {
        panic!("profile failed");
    };
    let compile = |edge: &str| Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "P4".into(),
        profile: Some(ProfileText { edge: edge.into(), path: path.clone() }),
    };
    let hostile = "pps-edge-profile v1\nproc 0 blocks 1099511627776\n";
    assert_eq!(hostile.len(), 48);

    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr, Some(Duration::from_secs(120))).unwrap();
    let reply = client.request(compile(hostile)).expect("the daemon answers");
    assert!(matches!(reply, Response::Error { kind: ErrorKind::BadProfile, .. }), "{reply:?}");
    let want = encode_response(&execute(&compile(&edge), &Obs::noop(), None, None));
    let got = client.request(compile(&edge)).expect("the daemon still answers");
    assert_eq!(encode_response(&got), want, "{got:?}");
    server.shutdown();
    server.join().unwrap();
}
