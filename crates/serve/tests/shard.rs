//! The shard router, end to end: a 2-daemon cluster behind `pps-shard`
//! must answer byte-identically to a single daemon and to in-process
//! execution, concentrate repeats on the owning shard's cache, fan in
//! health on Ping, and pass structured errors through unchanged.

use pps_obs::Obs;
use pps_serve::cache::CompileCache;
use pps_serve::proto::{encode_response, Request, Response};
use pps_serve::server::{ServeConfig, ServerHandle};
use pps_serve::service::{execute, PipelineHandler};
use pps_serve::shard::{Router, RouterConfig, RouterHandle, ShardRing};
use pps_serve::Client;
use std::sync::Arc;
use std::time::Duration;

fn spawn_daemon() -> (ServerHandle, Arc<CompileCache>) {
    let cache = Arc::new(CompileCache::new(32));
    let config = ServeConfig { poll: Duration::from_millis(5), ..ServeConfig::default() };
    let server = ServerHandle::spawn(
        "127.0.0.1:0",
        config,
        Arc::new(PipelineHandler::new(Some(Arc::clone(&cache)), None)),
        Obs::noop(),
        None,
    )
    .expect("bind daemon");
    (server, cache)
}

#[test]
fn cluster_is_byte_identical_and_fans_in_health() {
    let (s1, c1) = spawn_daemon();
    let (s2, c2) = spawn_daemon();
    let ring = ShardRing::new(vec![s1.addr().to_string(), s2.addr().to_string()]);
    let router = RouterHandle::spawn(
        "127.0.0.1:0",
        Router::new(ring, RouterConfig::default()),
        Obs::noop(),
    )
    .expect("bind router");
    let mut client =
        Client::connect(&router.addr().to_string(), Some(Duration::from_secs(120))).unwrap();

    let compile = |bench: &str, scheme: &str| Request::Compile {
        bench: bench.into(),
        scale: 1,
        scheme: scheme.into(),
        profile: None,
    };
    let requests = [
        compile("alt", "BB"),
        compile("alt", "P4"),
        compile("ph", "BB"),
        compile("ph", "P4"),
        compile("corr", "P4"),
        compile("wc", "P4"),
        Request::RunCell { bench: "wc".into(), scale: 1, scheme: "M4".into(), strict: true },
        Request::Profile { bench: "alt".into(), scale: 1, depth: 0 },
    ];
    let cacheable = 7; // all but the Profile request

    // Two passes: the first populates the shard caches, the second must be
    // served from them — byte-identically either way.
    for pass in 0..2 {
        for request in &requests {
            let reply = client.request(request.clone()).unwrap();
            assert_eq!(
                encode_response(&reply),
                encode_response(&execute(request, &Obs::noop(), None, None)),
                "pass {pass}: cluster reply differs from in-process execute: {request:?}"
            );
        }
    }

    let routed = router.router().routed();
    assert_eq!(routed, requests.len() as u64 * 2, "every work request is relayed");
    let per_shard = router.router().per_shard_routed();
    assert_eq!(per_shard.iter().sum::<u64>(), routed);
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "both shards must own some of these artifacts: {per_shard:?}"
    );

    // Repeats hit the owning shard's cache: summed across the cluster, the
    // second pass is all hits.
    let hits: u64 = [&c1, &c2].iter().map(|c| c.stats().0).sum();
    let misses: u64 = [&c1, &c2].iter().map(|c| c.stats().1).sum();
    assert_eq!(hits, cacheable, "second pass must be served from cache");
    assert_eq!(misses, cacheable, "first pass misses once per artifact");

    // Ping fans in: both shards' counters summed, router's own fields set.
    let Response::Pong { health } = client.request(Request::Ping).unwrap() else {
        panic!("expected Pong");
    };
    assert_eq!(health.shards, 2, "{health:?}");
    assert_eq!(health.routed, routed, "{health:?}");
    assert_eq!(health.cache_hits, hits, "{health:?}");
    assert_eq!(health.cache_misses, misses, "{health:?}");
    assert_eq!(health.requests, routed, "shard request counters sum: {health:?}");
    assert!(health.workers > 0 && health.queue_capacity > 0, "{health:?}");

    // Structured errors pass through byte-identically too.
    let bad = Request::Compile { bench: "nope".into(), scale: 1, scheme: "P4".into(), profile: None };
    let reply = client.request(bad.clone()).unwrap();
    assert_eq!(
        encode_response(&reply),
        encode_response(&execute(&bad, &Obs::noop(), None, None)),
        "error replies must pass through unchanged"
    );

    // One in-band Shutdown quiesces the whole cluster: both daemons and
    // the router drain.
    let reply = client.request(Request::Shutdown).unwrap();
    assert!(matches!(reply, Response::ShuttingDown));
    drop(client);
    s1.join().expect("shard 1 drains");
    s2.join().expect("shard 2 drains");
    router.join().expect("router drains");
}

#[test]
fn unreachable_shard_is_a_structured_error_not_a_hang() {
    // A ring whose single shard is a bound-then-dropped port: connecting
    // fails fast, and the router must answer with a structured error.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead.local_addr().unwrap().to_string();
    drop(dead);
    let router = RouterHandle::spawn(
        "127.0.0.1:0",
        Router::new(
            ShardRing::new(vec![dead_addr]),
            RouterConfig { reply_timeout: Some(Duration::from_secs(2)), ..RouterConfig::default() },
        ),
        Obs::noop(),
    )
    .expect("bind router");
    let mut client =
        Client::connect(&router.addr().to_string(), Some(Duration::from_secs(30))).unwrap();
    let reply = client
        .request(Request::Compile {
            bench: "wc".into(),
            scale: 1,
            scheme: "P4".into(),
            profile: None,
        })
        .unwrap();
    match reply {
        Response::Error { message, .. } => {
            assert!(message.contains("unavailable"), "{message}");
        }
        other => panic!("expected a structured error, got {other:?}"),
    }
    router.shutdown();
    router.join().expect("router drains");
}
