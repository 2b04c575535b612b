//! The daemon's store, end to end: repeated requests served from it
//! byte-identically, across PGO hot-swaps too, the daemon reporting its
//! counters in Pong, and perfbench's serve mixes meeting the checks the
//! benchmark makes of them.

use pps_ir::interp::{ExecConfig, Interp};
use pps_ir::trace::TeeSink;
use pps_ir::ProcId;
use pps_obs::Obs;
use pps_profile::serialize::{edge_to_text, path_to_text};
use pps_profile::{EdgeProfile, EdgeProfiler, PathProfile, PathProfiler, DEFAULT_PATH_DEPTH};
use pps_eval::runner::ProfilePair;
use pps_serve::cache::{CompileCache, ProfileKind, DEFAULT_CAPACITY};
use pps_serve::pgo::{PgoConfig, PgoState};
use pps_serve::proto::{encode_response, ProfileText, Request, Response};
use pps_serve::server::{Handler, ServeConfig, ServerHandle};
use pps_serve::service::{execute, PipelineHandler};
use pps_serve::Client;
use pps_suite::{benchmark_by_name, Scale};
use std::sync::Arc;
use std::time::Duration;

/// The profile kind `P4` (and `M4`, `Px4`) trains and is scored against.
const P4: ProfileKind = ProfileKind { depth: DEFAULT_PATH_DEPTH, k: None };

/// A shared profile pair, as the request path hands it to PGO.
fn pair(edge: &EdgeProfile, path: &PathProfile) -> ProfilePair {
    Arc::new((edge.clone(), path.clone()))
}

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
    let (hits, misses, evictions, entries) = cache.stats();
    assert_eq!((hits, misses), (2, 2), "one miss then one hit per request");
    assert_eq!(evictions, 0);
    assert_eq!(entries, 2);
}

#[test]
fn basic_block_requests_train_nothing_for_pgo_or_the_cache() {
    let cache = Arc::new(CompileCache::new(8));
    let state = PgoState::new(fast_config(), Obs::noop(), Arc::clone(&cache));
    let obs = Obs::noop();
    // A carried profile changes nothing either: BB reads none.
    let (edge, path) = train("wc", 1, DEFAULT_PATH_DEPTH);
    let carried = ProfileText { edge: edge_to_text(&edge), path: path_to_text(&path) };
    for request in [
        Request::Compile { bench: "wc".into(), scale: 1, scheme: "BB".into(), profile: None },
        Request::Compile { bench: "wc".into(), scale: 1, scheme: "BB".into(), profile: Some(carried) },
        Request::RunCell { bench: "wc".into(), scale: 1, scheme: "BB".into(), strict: true },
    ] {
        let plain = encode_response(&execute(&request, &obs, None, None));
        for _ in 0..2 {
            let served = encode_response(&execute(&request, &obs, Some(&state), Some(&cache)));
            assert_eq!(plain, served, "cache or PGO changed a BB reply: {request:?}");
        }
    }
    assert_eq!(cache.stats().0, 3, "the second of each request is a hit");
    assert_eq!(state.aggregate_stats("wc", 1, P4).map_or(0, |(samples, _)| samples), 0);
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
    let (hits, misses, _, entries) = cache.stats();
    assert_eq!(hits, 0, "strict and lax cells must not collide");
    assert_eq!(misses, 2);
    assert_eq!(entries, 2);

    // An error reply (unknown bench) must not enter the cache.
    let bad = Request::Compile { bench: "nope".into(), scale: 1, scheme: "P4".into(), profile: None };
    let reply = execute(&bad, &obs, None, Some(&cache));
    assert!(matches!(reply, Response::Error { .. }));
    let (_, _, _, entries_after) = cache.stats();
    assert_eq!(entries_after, entries, "error replies are never cached");
}

#[test]
fn hot_swap_leaves_stored_replies_serving_byte_identically() {
    let cache = Arc::new(CompileCache::new(16));
    let state = Arc::new(PgoState::new(fast_config(), Obs::noop(), Arc::clone(&cache)));
    let handler = PipelineHandler::new(Some(Arc::clone(&cache)), Some(Arc::clone(&state)));
    let obs = Obs::noop();

    let (edge, path) = train("wc", 1, DEFAULT_PATH_DEPTH);
    let steady = Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "P4".into(),
        profile: Some(ProfileText { edge: edge_to_text(&edge), path: path_to_text(&path) }),
    };
    // Another scheme, executed without the PGO state so the tier never
    // tracks it: only the P4 unit can drift and swap.
    let other = Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "M4".into(),
        profile: Some(ProfileText { edge: edge_to_text(&edge), path: path_to_text(&path) }),
    };

    // Warm the store and register the unit; a repeat is a hit.
    let first = handler.handle(&steady, &obs);
    let again = handler.handle(&steady, &obs);
    assert_eq!(encode_response(&first), encode_response(&again));
    execute(&other, &obs, None, Some(&cache));
    let (hits, _, _, entries) = cache.stats();
    assert_eq!(hits, 1);
    assert_eq!(entries, 2);

    // Drift the aggregate; the sweep recompiles and hot-swaps P4.
    state.publish("wc", 1, P4, &pair(&edge, &inverted(&path)));
    let report = state.sweep();
    assert_eq!(report.swaps, 1, "{report:?}");

    // A reply is a pure function of its key, which no swap changes: the
    // steady request still hits with the same bytes, and so does M4.
    let (h0, m0, ..) = cache.stats();
    let after = handler.handle(&steady, &obs);
    assert_eq!(encode_response(&first), encode_response(&after), "post-swap reply changed");
    let (h1, m1, ..) = cache.stats();
    assert_eq!((h1, m1), (h0 + 1, m0), "the stored P4 reply serves across the swap");
    let other_again = handler.handle(&other, &obs);
    assert!(matches!(other_again, Response::Compile { .. }));
    let (h2, ..) = cache.stats();
    assert_eq!(h2, h1 + 1, "the M4 reply serves too");

    // The handler's health carries the store's counters next to the PGO
    // ones.
    let health = handler.health(Default::default());
    assert_eq!(health.cache_hits, h2);
    assert_eq!(health.swaps, 1, "{health:?}");
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

#[test]
fn repeated_requests_train_nothing_once_the_memo_is_filled() {
    let cache = Arc::new(CompileCache::new(64));
    let state = PgoState::new(fast_config(), Obs::noop(), Arc::clone(&cache));
    let obs = Obs::noop();
    let mut requests = vec![Request::Profile { bench: "wc".into(), scale: 1, depth: 0 }];
    for scheme in ["BB", "M4", "P4", "Pk2", "Px4"] {
        requests.push(Request::Compile {
            bench: "wc".into(),
            scale: 1,
            scheme: scheme.into(),
            profile: None,
        });
        requests.push(Request::RunCell {
            bench: "wc".into(),
            scale: 1,
            scheme: scheme.into(),
            strict: true,
        });
    }
    let first: Vec<_> = requests
        .iter()
        .map(|r| encode_response(&execute(r, &obs, Some(&state), Some(&cache))))
        .collect();
    // One entry per profile kind, shared by every scheme and request kind
    // that trains it: untrained (`BB`), depth 15, and k = 2.
    let fills = cache.memo_fills();
    assert_eq!(fills, 3);
    for (request, reply) in requests.iter().zip(&first) {
        let again = encode_response(&execute(request, &obs, Some(&state), Some(&cache)));
        assert_eq!(&again, reply, "memoized state changed the reply of {request:?}");
        let plain = encode_response(&execute(request, &obs, None, None));
        assert_eq!(&plain, reply, "memoized state changed the reply of {request:?}");
    }
    assert_eq!(cache.memo_fills(), fills, "a repeated request trained again");
    let (hits, misses, ..) = cache.stats();
    assert_eq!((hits, misses), (10, 10), "every repeated Compile/RunCell is a hit");
}

/// perfbench's serve requests (`perfbench/src/serve.rs`): 8 benchmarks x
/// {M4, P4, Pk2, Px4} at scale 1.
const SERVE_BENCHES: [&str; 8] = ["wc", "com", "eqn", "esp", "go", "m88k", "perl", "vortex"];
const SERVE_SCHEMES: [&str; 4] = ["M4", "P4", "Pk2", "Px4"];

fn serve_hot_requests() -> Vec<Request> {
    let mut requests = Vec::new();
    for bench in SERVE_BENCHES {
        for scheme in SERVE_SCHEMES {
            let (bench, scheme) = (bench.to_string(), scheme.to_string());
            requests.push(Request::Compile {
                bench: bench.clone(),
                scale: 1,
                scheme: scheme.clone(),
                profile: None,
            });
            requests.push(Request::RunCell { bench, scale: 1, scheme, strict: true });
        }
    }
    requests
}

/// perfbench fails a serve-cold run that makes any store lookup and a
/// serve-hot run that evicts anything (`check_cache`). The daemon runs with
/// PGO on in both; serve-cold passes `--cache-cap 0`.
#[test]
fn perfbench_serve_mixes_pass_its_cache_checks() {
    let obs = Obs::noop();

    // serve-cold: every request kind, carried profiles included, over a
    // store that keeps no replies. PGO still files its state there.
    let store = Arc::new(CompileCache::new(0));
    let state = PgoState::new(PgoConfig::default(), Obs::noop(), Arc::clone(&store));
    for bench in SERVE_BENCHES {
        let profile = Request::Profile { bench: bench.into(), scale: 1, depth: 0 };
        let Response::Profile { edge, path } = execute(&profile, &obs, Some(&state), Some(&store))
        else {
            panic!("{bench}: profile failed");
        };
        for scheme in SERVE_SCHEMES {
            let carried = Request::Compile {
                bench: bench.into(),
                scale: 1,
                scheme: scheme.into(),
                profile: Some(ProfileText { edge: edge.clone(), path: path.clone() }),
            };
            let reply = execute(&carried, &obs, Some(&state), Some(&store));
            assert!(matches!(reply, Response::Compile { .. }), "{carried:?}: {reply:?}");
        }
    }
    for request in serve_hot_requests() {
        let reply = execute(&request, &obs, Some(&state), Some(&store));
        assert!(!matches!(reply, Response::Error { .. }), "{request:?}: {reply:?}");
    }
    let (hits, misses, evictions, entries) = store.stats();
    assert_eq!((hits + misses, entries), (0, 0), "serve-cold looked up the store");
    assert_eq!(store.memo_fills(), 0, "serve-cold filled a memo");
    assert_eq!(evictions, 0);
    assert!(state.fill_health(Default::default()).units > 0, "PGO saw no units");

    // serve-hot: a warm pass over the 64 artifacts, then every one again.
    let cache = Arc::new(CompileCache::new(DEFAULT_CAPACITY));
    let state = PgoState::new(PgoConfig::default(), Obs::noop(), Arc::clone(&cache));
    for _ in 0..2 {
        for request in serve_hot_requests() {
            let reply = execute(&request, &obs, Some(&state), Some(&cache));
            assert!(!matches!(reply, Response::Error { .. }), "{request:?}: {reply:?}");
        }
    }
    let (hits, misses, evictions, entries) = cache.stats();
    assert_eq!((hits, misses, entries), (64, 64, 64));
    assert_eq!(evictions, 0, "serve-hot evicted from a warm store");
}
