//! The continuous-PGO loop, end to end: aggregation from request traffic,
//! drift detection with hysteresis, fault-isolated background recompiles,
//! and atomic generation-stamped hot-swap — plus the invariant that the
//! profile sink never changes reply bytes.

use pps_ir::interp::{ExecConfig, Interp};
use pps_ir::trace::TeeSink;
use pps_ir::ProcId;
use pps_obs::Obs;
use pps_profile::serialize::{edge_to_text, path_to_text};
use pps_profile::{
    EdgeProfile, EdgeProfiler, PathProfile, PathProfiler, DEFAULT_PATH_DEPTH,
};
use pps_eval::runner::ProfilePair;
use pps_serve::cache::{CompileCache, ProfileKind, DEFAULT_CAPACITY};
use pps_serve::pgo::{PgoConfig, PgoFault, PgoRuntime, PgoState, SweepReport};
use pps_serve::proto::{encode_response, ProfileText, Request, Response};
use pps_serve::server::{ServeConfig, ServerHandle};
use pps_serve::service::{execute, PipelineHandler};
use pps_serve::Client;
use pps_suite::{benchmark_by_name, Scale};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Weight-inverts and boosts the path profile, the same shape the
/// loadgen's drift mode sends: the hot set becomes the cold set and the
/// inverted mass dominates any merged aggregate.
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

/// Test-speed knobs: every published sample counts, no cooldown.
fn fast_config() -> PgoConfig {
    PgoConfig {
        min_samples: 1,
        cooldown: Duration::ZERO,
        enter_threshold: 0.3,
        exit_threshold: 0.15,
        ..PgoConfig::default()
    }
}

/// Registers a unit compiled against the true profile, then shifts the
/// aggregate with an inverted publish — the canonical drift setup.
fn drifted_state(config: PgoConfig) -> (PgoState, EdgeProfile, PathProfile) {
    let state = PgoState::new(config, Obs::noop());
    let (edge, path) = train("wc", 1, DEFAULT_PATH_DEPTH);
    state.observe_unit("wc", 1, "P4", P4, &pair(&edge, &path));
    state.publish("wc", 1, P4, &pair(&edge, &path));
    state.publish("wc", 1, P4, &pair(&edge, &inverted(&path)));
    (state, edge, path)
}

#[test]
fn publish_folds_profiles_and_skips_unmergeable_ones() {
    let state = PgoState::new(fast_config(), Obs::noop());
    let (edge, path) = train("wc", 1, DEFAULT_PATH_DEPTH);
    state.publish("wc", 1, P4, &pair(&edge, &path));
    state.publish("wc", 1, P4, &pair(&edge, &path));
    assert_eq!(state.aggregate_stats("wc", 1, P4), Some((2, 2)));

    // A different collection depth is unmergeable: skipped, not poisoned.
    let (_, shallow) = train("wc", 1, 4);
    state.publish("wc", 1, P4, &pair(&edge, &shallow));
    assert_eq!(state.aggregate_stats("wc", 1, P4), Some((2, 2)));
}

#[test]
fn sweep_detects_drift_recompiles_and_hot_swaps() {
    let state = PgoState::new(fast_config(), Obs::noop());
    let (edge, path) = train("wc", 1, DEFAULT_PATH_DEPTH);

    // Nothing registered, nothing aggregated: a sweep is a no-op.
    assert_eq!(state.sweep(), SweepReport::default());

    state.observe_unit("wc", 1, "P4", P4, &pair(&edge, &path));
    assert_eq!(state.unit_generation("wc", 1, "P4", P4), Some(1));
    // Duplicate observations don't reset the serving unit.
    state.observe_unit("wc", 1, "P4", P4, &pair(&edge, &path));
    assert_eq!(state.unit_generation("wc", 1, "P4", P4), Some(1));

    // Aggregate matches the compiled-against profile: no drift, no churn.
    state.publish("wc", 1, P4, &pair(&edge, &path));
    let steady = state.sweep();
    assert_eq!(steady.evaluated, 1);
    assert_eq!(steady.drifted, 0);
    assert_eq!(steady.recompiles, 0);

    // The hot set flips: the sweep must recompile and swap atomically.
    state.publish("wc", 1, P4, &pair(&edge, &inverted(&path)));
    let drifted = state.sweep();
    assert_eq!(drifted.recompiles, 1, "{drifted:?}");
    assert_eq!(drifted.swaps, 1, "{drifted:?}");
    assert_eq!(drifted.rollbacks, 0, "{drifted:?}");

    let (generation, unit) = state.unit("wc", 1, "P4", P4).expect("unit tracked");
    assert_eq!(generation, 2, "swap bumps the generation");
    assert!(unit.report.starts_with("pps-compile-report v1\n"), "{}", unit.report);
    let (_, epoch) = state.aggregate_stats("wc", 1, P4).unwrap();
    assert_eq!(unit.epoch, epoch, "new unit serves the aggregate epoch");

    // The swapped unit now matches the aggregate: hysteresis exits and the
    // loop goes quiet — no recompile storm.
    let settled = state.sweep();
    assert_eq!(settled.drifted, 0, "{settled:?}");
    assert_eq!(settled.recompiles, 0, "{settled:?}");
    assert_eq!(state.unit_generation("wc", 1, "P4", P4), Some(2));
}

#[test]
fn injected_panic_is_contained_and_rolls_back() {
    let config = PgoConfig { fault: PgoFault::Panic, ..fast_config() };
    let (state, _, path) = drifted_state(config);
    let report = state.sweep();
    assert_eq!(report.recompiles, 1, "{report:?}");
    assert_eq!(report.swaps, 0, "{report:?}");
    assert_eq!(report.rollbacks, 1, "{report:?}");

    // The serving unit is untouched — same generation, same reference.
    let (generation, unit) = state.unit("wc", 1, "P4", P4).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(unit.epoch, 0);
    assert_eq!(path_to_text(&unit.profiles.1), path_to_text(&path));

    let health = state.fill_health(Default::default());
    assert_eq!(health.rollbacks, 1);
    assert_eq!(health.swaps, 0);
    assert_eq!(health.in_flight_recompiles, 0, "containment leaves no zombie recompile");
}

#[test]
fn injected_corruption_is_rejected_by_the_strict_guard() {
    let config = PgoConfig { fault: PgoFault::Corrupt, ..fast_config() };
    let (state, _, _) = drifted_state(config);
    let report = state.sweep();
    assert_eq!(report.recompiles, 1, "{report:?}");
    assert_eq!(report.swaps, 0, "corrupted unit must not swap in: {report:?}");
    assert_eq!(report.rollbacks, 1, "{report:?}");
    assert_eq!(state.unit_generation("wc", 1, "P4", P4), Some(1));
}

#[test]
fn churn_budget_and_cooldown_defer_recompiles() {
    // Budget zero: the drifted unit is detected but deferred.
    let (state, _, _) =
        drifted_state(PgoConfig { recompiles_per_sweep: 0, ..fast_config() });
    let report = state.sweep();
    assert_eq!(report.drifted, 1, "{report:?}");
    assert_eq!(report.deferred, 1, "{report:?}");
    assert_eq!(report.recompiles, 0, "{report:?}");

    // A failing recompile inside a long cooldown: the second sweep defers
    // instead of hammering the compiler.
    let (state, _, _) = drifted_state(PgoConfig {
        cooldown: Duration::from_secs(3600),
        fault: PgoFault::Panic,
        ..fast_config()
    });
    assert_eq!(state.sweep().rollbacks, 1);
    let second = state.sweep();
    assert_eq!(second.deferred, 1, "{second:?}");
    assert_eq!(second.recompiles, 0, "{second:?}");
}

#[test]
fn a_sweep_over_unchanged_state_scores_nothing_and_decides_the_same() {
    // Budget zero: the drifted unit stays deferred, sweep after sweep.
    let (state, edge, path) =
        drifted_state(PgoConfig { recompiles_per_sweep: 0, ..fast_config() });
    let first = state.sweep();
    assert_eq!((first.evaluated, first.drifted, first.deferred), (1, 1, 1), "{first:?}");
    let second = state.sweep();
    assert_eq!(second.evaluated, 0, "unchanged aggregate and unit: {second:?}");
    assert_eq!(SweepReport { evaluated: 1, ..second }, first, "same decisions");

    // A merge moves the aggregate epoch: the unit is scored again.
    state.publish("wc", 1, P4, &pair(&edge, &inverted(&path)));
    let third = state.sweep();
    assert_eq!(third, first, "{third:?}");
}

/// A steady load of server-trained requests over every profile kind
/// carries one profile per kind, so no unit drifts and nothing
/// recompiles. These benchmarks drifted and hot-swapped units under this
/// load while the aggregates mixed the kinds and merged the server's own
/// pair again on every request.
#[test]
fn steady_server_trained_mixed_scheme_load_recompiles_nothing() {
    let cache = CompileCache::new(DEFAULT_CAPACITY);
    let state = PgoState::new(PgoConfig { min_samples: 1, ..fast_config() }, Obs::noop());
    let obs = Obs::noop();
    for bench in ["wc", "m88k"] {
        for _ in 0..2 {
            for scheme in ["M4", "P4", "Pk2", "Px4"] {
                let compile = Request::Compile {
                    bench: bench.into(),
                    scale: 1,
                    scheme: scheme.into(),
                    profile: None,
                };
                let run_cell = Request::RunCell {
                    bench: bench.into(),
                    scale: 1,
                    scheme: scheme.into(),
                    strict: true,
                };
                for request in [compile, run_cell] {
                    let reply = execute(&request, &obs, Some(&state), Some(&cache));
                    assert!(!matches!(reply, Response::Error { .. }), "{request:?}: {reply:?}");
                }
            }
        }
    }
    let first = state.sweep();
    assert_eq!(first.evaluated, 8, "every unit is scored: {first:?}");
    for report in std::iter::once(first).chain((0..3).map(|_| state.sweep())) {
        assert_eq!((report.drifted, report.recompiles), (0, 0), "{report:?}");
    }
    let health = state.fill_health(Default::default());
    assert_eq!((health.recompiles, health.swaps), (0, 0), "{health:?}");
    assert_eq!(health.units, 8, "{health:?}");
}

/// A scheme compiled against a carried pair and against the server's own
/// k-iteration pair is two units, each scored against the aggregate of its
/// own profile kind: which request came first decides nothing.
#[test]
fn carried_and_server_trained_pk_requests_are_separate_units() {
    const PK2: ProfileKind = ProfileKind { depth: DEFAULT_PATH_DEPTH, k: Some(2) };
    let config = PgoConfig { recompiles_per_sweep: 0, ..fast_config() };
    let state = PgoState::new(config, Obs::noop());
    let obs = Obs::noop();
    let Response::Profile { edge, path } = execute(
        &Request::Profile { bench: "wc".into(), scale: 1, depth: 0 },
        &obs,
        None,
        None,
    ) else {
        panic!("profile failed");
    };
    let requests = [
        Request::Compile {
            bench: "wc".into(),
            scale: 1,
            scheme: "Pk2".into(),
            profile: Some(ProfileText { edge, path: path.clone() }),
        },
        Request::RunCell { bench: "wc".into(), scale: 1, scheme: "Pk2".into(), strict: true },
    ];
    for request in &requests {
        let reply = execute(request, &obs, Some(&state), None);
        assert!(!matches!(reply, Response::Error { .. }), "{request:?}: {reply:?}");
    }
    assert_eq!(state.fill_health(Default::default()).units, 2);

    // Each unit's drift reference is the pair of its own kind.
    let (_, carried) = state.unit("wc", 1, "Pk2", P4).expect("carried-pair unit");
    let (_, trained) = state.unit("wc", 1, "Pk2", PK2).expect("server-trained unit");
    assert_eq!(path_to_text(&carried.profiles.1), path);
    assert_ne!(path_to_text(&trained.profiles.1), path);
    assert_eq!(state.aggregate_stats("wc", 1, P4), Some((1, 1)));
    assert_eq!(state.aggregate_stats("wc", 1, PK2), Some((1, 1)));

    // Both units match their aggregates: scored, nothing drifted.
    let steady = state.sweep();
    assert_eq!((steady.evaluated, steady.drifted), (2, 0), "{steady:?}");

    // Moving the general aggregate rescores and drifts only the unit
    // compiled against the carried pair.
    let (edge, path) = train("wc", 1, DEFAULT_PATH_DEPTH);
    state.publish("wc", 1, P4, &pair(&edge, &inverted(&path)));
    let moved = state.sweep();
    assert_eq!((moved.evaluated, moved.drifted, moved.deferred), (1, 1, 1), "{moved:?}");
}

#[test]
fn profile_sink_never_changes_reply_bytes() {
    let state = PgoState::new(fast_config(), Obs::noop());
    let requests = [
        Request::Profile { bench: "wc".into(), scale: 1, depth: 0 },
        Request::Compile { bench: "wc".into(), scale: 1, scheme: "P4".into(), profile: None },
        Request::RunCell { bench: "wc".into(), scale: 1, scheme: "P4".into(), strict: false },
    ];
    for request in &requests {
        let plain = encode_response(&execute(request, &Obs::noop(), None, None));
        let observed =
            encode_response(&execute(request, &Obs::noop(), Some(&state), None));
        assert_eq!(plain, observed, "sink changed bytes of {request:?}");
    }
    // ... while actually having observed the traffic: the one pair the
    // server trains for all three requests, merged once.
    let health = state.fill_health(Default::default());
    assert_eq!(health.profiles_merged, 1, "{health:?}");
    assert!(health.units >= 1, "{health:?}");
}

#[test]
fn daemon_serves_health_and_hot_swaps_under_drifting_traffic() {
    let state = Arc::new(PgoState::new(fast_config(), Obs::noop()));
    let config = ServeConfig { poll: Duration::from_millis(5), ..ServeConfig::default() };
    let server = ServerHandle::spawn(
        "127.0.0.1:0",
        config,
        Arc::new(PipelineHandler::new(None, Some(Arc::clone(&state)))),
        Obs::noop(),
        None,
    )
    .expect("bind");
    let mut client =
        Client::connect(&server.addr().to_string(), Some(Duration::from_secs(120))).unwrap();

    // Health is enriched before any traffic: PGO on, nothing tracked.
    let Response::Pong { health } = client.request(Request::Ping).unwrap() else {
        panic!("expected Pong");
    };
    assert!(health.pgo_enabled);
    assert_eq!(health.units, 0);
    assert!(health.queue_capacity > 0);

    // Steady traffic: a compile against the true profile registers the
    // unit; replies stay byte-identical to the in-process pipeline.
    let (edge, path) = train("wc", 1, DEFAULT_PATH_DEPTH);
    let steady = Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "P4".into(),
        profile: Some(ProfileText { edge: edge_to_text(&edge), path: path_to_text(&path) }),
    };
    let reply = client.request(steady.clone()).unwrap();
    assert_eq!(
        encode_response(&reply),
        encode_response(&execute(&steady, &Obs::noop(), None, None)),
        "daemon reply differs from in-process pipeline"
    );

    // Drifted traffic shifts the aggregate the same way loadgen --drift
    // does; the sweep then recompiles and swaps.
    let drifted = Request::Compile {
        bench: "wc".into(),
        scale: 1,
        scheme: "P4".into(),
        profile: Some(ProfileText {
            edge: edge_to_text(&edge),
            path: path_to_text(&inverted(&path)),
        }),
    };
    let reply = client.request(drifted.clone()).unwrap();
    assert_eq!(
        encode_response(&reply),
        encode_response(&execute(&drifted, &Obs::noop(), None, None))
    );
    let report = state.sweep();
    assert_eq!(report.swaps, 1, "{report:?}");

    let Response::Pong { health } = client.request(Request::Ping).unwrap() else {
        panic!("expected Pong");
    };
    assert_eq!(health.units, 1);
    assert_eq!(health.swaps, 1);
    assert_eq!(health.rollbacks, 0);
    assert!(health.max_generation >= 2, "{health:?}");
    assert_eq!(health.in_flight_recompiles, 0);
    assert!(health.profiles_merged >= 2, "{health:?}");

    drop(client);
    server.shutdown();
    server.join().expect("clean drain");
}

#[test]
fn background_runtime_swaps_on_its_own_and_drains_cleanly() {
    let config = PgoConfig { interval: Duration::from_millis(10), ..fast_config() };
    let (state, _, _) = drifted_state(config);
    let state = Arc::new(state);
    let runtime = PgoRuntime::start(Arc::clone(&state));

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = state.fill_health(Default::default());
        if health.swaps >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "sweeper never swapped: {health:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    runtime.shutdown();

    let health = state.fill_health(Default::default());
    assert_eq!(health.in_flight_recompiles, 0, "drain left a recompile in flight");
    assert_eq!(health.rollbacks, 0, "{health:?}");
    assert!(health.max_generation >= 2, "{health:?}");
}
