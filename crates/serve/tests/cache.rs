//! The content-addressed reply cache, end to end: repeated requests served
//! from cache byte-identically, PGO hot-swaps invalidating exactly the
//! swapped unit's group, and the daemon reporting cache counters in Pong.

use pps_ir::interp::{ExecConfig, Interp};
use pps_ir::trace::TeeSink;
use pps_ir::ProcId;
use pps_obs::Obs;
use pps_profile::serialize::{edge_to_text, path_to_text};
use pps_profile::{EdgeProfile, EdgeProfiler, PathProfile, PathProfiler, DEFAULT_PATH_DEPTH};
use pps_serve::cache::CompileCache;
use pps_serve::pgo::{PgoConfig, PgoState};
use pps_serve::proto::{encode_response, ProfileText, Request, Response};
use pps_serve::server::{Handler, ServeConfig, ServerHandle};
use pps_serve::service::{execute, PipelineHandler};
use pps_serve::Client;
use pps_suite::{benchmark_by_name, Scale};
use std::sync::Arc;
use std::time::Duration;

fn train(bench: &str, scale: u32, depth: usize) -> (EdgeProfile, PathProfile) {
    let b = benchmark_by_name(bench, Scale(scale)).expect("bench");
    let mut tee = TeeSink::new(
        EdgeProfiler::new(&b.program),
        PathProfiler::new(&b.program, depth),
    );
    Interp::new(&b.program, ExecConfig::default())
        .run_traced(&b.train_args, &mut tee)
        .expect("train run");
    (tee.a.finish(), tee.b.finish())
}

/// Weight-inverts and boosts the path profile so the merged aggregate
/// drifts decisively away from the compiled-against profile.
fn inverted(path: &PathProfile) -> PathProfile {
    let per_proc = (0..path.num_procs())
        .map(|pi| {
            let windows = path.iter_maximal_windows(ProcId::new(pi as u32));
            let max = windows.iter().map(|(_, c)| *c).max().unwrap_or(0);
            windows
                .into_iter()
                .map(|(w, c)| (w, (max + 1 - c).saturating_mul(100)))
                .collect()
        })
        .collect();
    PathProfile::from_windows(path.depth(), per_proc)
}

fn fast_config() -> PgoConfig {
    PgoConfig {
        min_samples: 1,
        cooldown: Duration::ZERO,
        enter_threshold: 0.3,
        exit_threshold: 0.15,
        ..PgoConfig::default()
    }
}

#[test]
fn repeated_requests_hit_the_cache_byte_identically() {
    let cache = CompileCache::new(8);
    let obs = Obs::noop();
    let requests = [
        Request::Compile { bench: "wc".into(), scale: 1, scheme: "P4".into(), profile: None },
        Request::RunCell { bench: "wc".into(), scale: 1, scheme: "M4".into(), strict: true },
    ];
    for request in &requests {
        let plain = encode_response(&execute(request, &obs, None, None));
        let first = encode_response(&execute(request, &obs, None, Some(&cache)));
        let second = encode_response(&execute(request, &obs, None, Some(&cache)));
        assert_eq!(plain, first, "cold reply differs from uncached execute: {request:?}");
        assert_eq!(plain, second, "cache hit changed reply bytes: {request:?}");
    }
    let (hits, misses, evictions, invalidations, entries) = cache.stats();
    assert_eq!((hits, misses), (2, 2), "one miss then one hit per request");
    assert_eq!((evictions, invalidations), (0, 0));
    assert_eq!(entries, 2);
}

#[test]
fn basic_block_requests_train_nothing_for_pgo_or_the_cache() {
    let cache = CompileCache::new(8);
    let state = PgoState::new(fast_config(), Obs::noop());
    let obs = Obs::noop();
    for request in [
        Request::Compile { bench: "wc".into(), scale: 1, scheme: "BB".into(), profile: None },
        Request::RunCell { bench: "wc".into(), scale: 1, scheme: "BB".into(), strict: true },
    ] {
        let plain = encode_response(&execute(&request, &obs, None, None));
        for _ in 0..2 {
            let served = encode_response(&execute(&request, &obs, Some(&state), Some(&cache)));
            assert_eq!(plain, served, "cache or PGO changed a BB reply: {request:?}");
        }
    }
    assert_eq!(cache.stats().0, 2, "the second of each request is a hit");
    assert_eq!(state.aggregate_stats("wc").map_or(0, |(samples, _)| samples), 0);
    assert_eq!(state.fill_health(Default::default()).units, 0, "no PGO unit for BB");
}

#[test]
fn strictness_is_part_of_runcell_identity_and_errors_are_never_cached() {
    let cache = CompileCache::new(8);
    let obs = Obs::noop();
    let strict = Request::RunCell { bench: "wc".into(), scale: 1, scheme: "P4".into(), strict: true };
    let lax = Request::RunCell { bench: "wc".into(), scale: 1, scheme: "P4".into(), strict: false };
    execute(&strict, &obs, None, Some(&cache));
    execute(&lax, &obs, None, Some(&cache));
    let (hits, misses, _, _, entries) = cache.stats();
    assert_eq!(hits, 0, "strict and lax cells must not collide");
    assert_eq!(misses, 2);
    assert_eq!(entries, 2);

    // An error reply (unknown bench) must not enter the cache.
    let bad = Request::Compile { bench: "nope".into(), scale: 1, scheme: "P4".into(), profile: None };
    let reply = execute(&bad, &obs, None, Some(&cache));
    assert!(matches!(reply, Response::Error { .. }));
    let (_, _, _, _, entries_after) = cache.stats();
    assert_eq!(entries_after, entries, "error replies are never cached");
}

#[test]
fn hot_swap_invalidates_the_swapped_groups_cache_entries() {
    let cache = Arc::new(CompileCache::new(16));
    let state = Arc::new(PgoState::new(fast_config(), Obs::noop()));
    let handler = PipelineHandler::new(Some(Arc::clone(&cache)), Some(Arc::clone(&state)));
    let obs = Obs::noop();

    let (edge, path) = train("wc", 1, DEFAULT_PATH_DEPTH);
    let steady = Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "P4".into(),
        profile: Some(ProfileText { edge: edge_to_text(&edge), path: path_to_text(&path) }),
    };
    // Another group (different scheme) that must survive the invalidation.
    // Executed without the PGO state so the tier never tracks it: only the
    // P4 unit can drift and swap.
    let other = Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "M4".into(),
        profile: Some(ProfileText { edge: edge_to_text(&edge), path: path_to_text(&path) }),
    };

    // Warm the cache and register the unit; a repeat is a hit.
    let first = handler.handle(&steady, &obs);
    let again = handler.handle(&steady, &obs);
    assert_eq!(encode_response(&first), encode_response(&again));
    execute(&other, &obs, None, Some(&cache));
    let (hits, _, _, invalidations, entries) = cache.stats();
    assert_eq!(hits, 1);
    assert_eq!(invalidations, 0);
    assert_eq!(entries, 2);

    // Drift the aggregate; the sweep recompiles and hot-swaps P4.
    state.publish("wc", 1, &edge, &inverted(&path));
    let report = state.sweep();
    assert_eq!(report.swaps, 1, "{report:?}");

    // The swap dropped exactly the P4 group: the steady request misses and
    // recomputes the same bytes; the M4 entry still hits.
    let (h0, m0, _, inv0, _) = cache.stats();
    assert!(inv0 >= 1, "swap must invalidate the group");
    let after = handler.handle(&steady, &obs);
    assert_eq!(
        encode_response(&first),
        encode_response(&after),
        "post-swap recompute must stay byte-identical (pure function of the key)"
    );
    let (h1, m1, ..) = cache.stats();
    assert_eq!(h1, h0, "stale P4 entry must not serve a hit after the swap");
    assert_eq!(m1, m0 + 1);
    let other_again = handler.handle(&other, &obs);
    assert!(matches!(other_again, Response::Compile { .. }));
    let (h2, ..) = cache.stats();
    assert_eq!(h2, h1 + 1, "the M4 group must survive the P4 invalidation");

    // The handler's health carries the cache counters next to the PGO ones.
    let health = handler.health(Default::default());
    assert_eq!(health.cache_hits, h2);
    assert!(health.cache_invalidations >= 1);
}

#[test]
fn daemon_reports_cache_counters_in_pong() {
    let cache = Arc::new(CompileCache::new(8));
    let config = ServeConfig { poll: Duration::from_millis(5), ..ServeConfig::default() };
    let server = ServerHandle::spawn(
        "127.0.0.1:0",
        config,
        Arc::new(PipelineHandler::new(Some(Arc::clone(&cache)), None)),
        Obs::noop(),
        None,
    )
    .expect("bind");
    let mut client =
        Client::connect(&server.addr().to_string(), Some(Duration::from_secs(120))).unwrap();

    let request = Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "P4".into(),
        profile: None,
    };
    let first = client.request(request.clone()).unwrap();
    let second = client.request(request.clone()).unwrap();
    assert_eq!(
        encode_response(&first),
        encode_response(&second),
        "cached daemon reply differs from cold reply"
    );
    assert_eq!(
        encode_response(&first),
        encode_response(&execute(&request, &Obs::noop(), None, None)),
        "daemon reply differs from in-process pipeline"
    );

    let Response::Pong { health } = client.request(Request::Ping).unwrap() else {
        panic!("expected Pong");
    };
    assert_eq!(health.cache_hits, 1, "{health:?}");
    assert_eq!(health.cache_misses, 1, "{health:?}");
    assert_eq!(health.cache_entries, 1, "{health:?}");

    drop(client);
    server.shutdown();
    server.join().expect("clean drain");
}
