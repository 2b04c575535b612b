//! The store's one bound, measured: with every key of every suite
//! benchmark resident the store accounts no more than the live heap, a
//! hostile request sequence through `execute` with a store and PGO retains
//! no more live heap than the store's byte budget, and evicting a key
//! drops its aggregate and units.
//!
//! A counting global allocator measures the live heap, so this file holds
//! one test: a second would allocate concurrently and blur the count.

use pps_obs::Obs;
use pps_serve::cache::{CompileCache, ProfileKind, DEFAULT_CAPACITY, STORE_BUDGET};
use pps_serve::pgo::{PgoConfig, PgoState};
use pps_serve::proto::{ProfileText, Request, Response};
use pps_serve::service::{execute, MAX_DEPTH};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Benchmarks fast enough to train at every depth. Every depth is an
/// entry of its own; the kinds of one benchmark and scale share its data
/// and memory image, which the store counts once.
const SMALL: [&str; 3] = ["alt", "ph", "corr"];

fn profile(bench: &str, scale: u32, depth: u32) -> Request {
    Request::Profile { bench: bench.into(), scale, depth }
}

#[test]
fn hostile_traffic_stays_within_the_store_budget() {
    let obs = Obs::noop();
    let run = |request: &Request, state: &PgoState, store: &CompileCache| {
        let reply = execute(request, &obs, Some(state), Some(store));
        assert!(!matches!(reply, Response::Error { .. }), "{request:?}: {reply:?}");
        reply
    };
    let live_before = LIVE.load(Ordering::Relaxed);

    // Every key of every suite benchmark at scale 1 resident (untrained,
    // depth 15, k = 2 and k = 3): the store counts what the kinds of a
    // benchmark share once, so it accounts no more than the live heap.
    let store = CompileCache::new(DEFAULT_CAPACITY);
    for (bench, _) in pps_suite::BENCHMARKS {
        let compile = |scheme: &str| Request::Compile {
            bench: bench.into(),
            scale: 1,
            scheme: scheme.into(),
            profile: None,
        };
        for request in [profile(bench, 1, 0), compile("BB"), compile("Pk2"), compile("Pk3")] {
            let reply = execute(&request, &obs, None, Some(&store));
            assert!(!matches!(reply, Response::Error { .. }), "{request:?}: {reply:?}");
        }
    }
    assert_eq!(store.stats().2, 0, "a key was evicted");
    let live = LIVE.load(Ordering::Relaxed) - live_before;
    assert!(store.bytes() <= live, "the store accounts {} bytes of {live} live", store.bytes());
    drop(store);

    let store = Arc::new(CompileCache::new(DEFAULT_CAPACITY));
    let state = PgoState::new(PgoConfig::default(), Obs::noop(), Arc::clone(&store));
    let units = || state.fill_health(Default::default()).units;

    // Carried pairs of several depths: each is a unit filed under the
    // store entry of its kind.
    let depths = [2, 4, 8, 15];
    for depth in depths {
        let Response::Profile { edge, path } = run(&profile("wc", 1, depth), &state, &store) else {
            panic!("not a profile")
        };
        let carried = Request::Compile {
            bench: "wc".into(),
            scale: 1,
            scheme: "M4".into(),
            profile: Some(ProfileText { edge, path }),
        };
        run(&carried, &state, &store);
    }
    let tracked = units();
    assert_eq!(tracked, depths.len() as u32);
    let kind = ProfileKind { depth: 2, k: None };
    let (_, unit) = state.unit("wc", 1, "M4", kind).expect("carried depth-2 unit");
    let pair = Arc::clone(&unit.profiles);
    drop(unit);
    assert!(Arc::strong_count(&pair) > 1, "the store holds the unit's pair");

    // Every suite benchmark at the default depth, the small ones at every
    // depth up to the bound, at scales 1 and 2, and the basic-block scheme
    // of each (an untrained entry).
    for scale in 1..=2 {
        for (bench, _) in pps_suite::BENCHMARKS {
            run(&profile(bench, scale, 0), &state, &store);
            let bb = Request::Compile {
                bench: bench.into(),
                scale,
                scheme: "BB".into(),
                profile: None,
            };
            run(&bb, &state, &store);
        }
        for bench in SMALL {
            for depth in 1..=MAX_DEPTH as u32 {
                run(&profile(bench, scale, depth), &state, &store);
            }
        }
    }

    // gcc's depth-15 profile at scale 4, about 80 MB, takes the store over
    // its budget.
    run(&profile("gcc", 4, 0), &state, &store);

    // The carried units' entries were evicted, and with them their pairs.
    assert!(units() < tracked, "no unit was evicted: {} of {tracked}", units());
    assert_eq!(Arc::strong_count(&pair), 1, "an evicted unit's pair is still held");
    assert!(store.stats().2 > 0, "nothing was evicted");

    // What stays is within the budget, as the store counts it and as the
    // allocator does: the store counts all but a sliver of what it keeps.
    let retained = LIVE.load(Ordering::Relaxed) - live_before;
    let accounted = store.bytes();
    assert!(accounted <= STORE_BUDGET, "store accounts {accounted} bytes");
    assert!(
        retained <= accounted + STORE_BUDGET / 1000,
        "retained {retained} bytes, {accounted} of them accounted"
    );
    assert!(retained <= STORE_BUDGET, "retained {retained} bytes, over the store's budget");
}
