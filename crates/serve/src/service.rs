//! Executes decoded requests against the real scheduling pipeline.
//!
//! [`execute`] is deliberately a pure function of the request (plus the
//! workspace's deterministic pipeline), so the load generator can compute
//! the expected reply in-process and assert the daemon's bytes are
//! identical — the service must never drift from the library. Every
//! request compiles through the one train → inline → compile path of
//! [`pps_eval::runner`], the path the harness and `pps-explore` take.
//!
//! With the daemon's store attached ([`CompileCache`]), the state a
//! request derives deterministically from its benchmark, scale and profile
//! kind — the built benchmark, its program hash, the trained pair, the
//! artifact profile hash and the oracle baseline — comes from the memo of
//! that key's entry ([`CompileCache::prepared`]), filled once. A hit is
//! then a memo lookup plus a reply lookup in the same entry
//! ([`CompileCache::get`]): no suite build, no training, no hashing and no
//! PGO merge. A miss hands the memo's pair and baseline to the runner, so
//! neither the training run nor the guard's `oracle-baseline` run repeats.
//! Without a store, or with one of capacity 0, every request builds and
//! trains what it needs itself.
//!
//! Requests are bounded before any work: a scale above [`MAX_SCALE`], or a
//! path-profile depth above [`MAX_DEPTH`] (requested or carried), is a
//! `BadRequest`. A carried pair whose text does not parse, or which does
//! not fit the benchmark's program ([`runner::check_profile_shape`]), is a
//! `BadProfile`, given before the pair is published, stored or compiled
//! against. The store bounds what is kept after.

use crate::cache::{
    machine_hash, ArtifactKey, CacheClass, CacheKey, CompileCache, Prepared, ProfileKind, StoreKey,
};
use crate::pgo::PgoState;
use crate::proto::{ErrorKind, HealthSnapshot, ProfileText, Request, Response};
use crate::server::Handler;
use pps_core::{GuardMode, OracleBaseline, Scheme};
use pps_eval::runner::{self, ProfilePair, RunConfig, RunError, Trained};
use pps_obs::{Level, Obs, ObsConfig};
use pps_profile::serialize::{edge_from_text, edge_to_text, path_from_text, path_to_text};
use pps_profile::{profile_pair_hash, profile_triple_hash, DEFAULT_PATH_DEPTH};
use pps_suite::{Benchmark, Build, Scale};
use std::sync::Arc;

/// Largest accepted suite scale — bounds per-request work.
pub const MAX_SCALE: u32 = 100;

/// Largest accepted path-profile depth, of a `Profile` request or of a
/// carried path profile. Training memory grows about linearly in depth
/// (gcc at scale 1: 52 MB RSS at depth 15, 256 MB at depth 60), so this
/// bounds one request near 130 MB at scale 1.
pub const MAX_DEPTH: usize = 32;

/// The daemon's [`Handler`]: every request runs [`execute`] with the
/// daemon's store and continuous-PGO state, each optional. Health
/// snapshots carry the counters of whichever is attached.
#[derive(Default, Clone)]
pub struct PipelineHandler {
    cache: Option<Arc<CompileCache>>,
    pgo: Option<Arc<PgoState>>,
}

impl PipelineHandler {
    /// A handler over the given store and PGO state
    /// ([`PipelineHandler::default`] has neither). The daemon builds the
    /// PGO state over the same store.
    pub fn new(cache: Option<Arc<CompileCache>>, pgo: Option<Arc<PgoState>>) -> Self {
        PipelineHandler { cache, pgo }
    }
}

impl Handler for PipelineHandler {
    fn handle(&self, request: &Request, obs: &Obs) -> Response {
        execute(request, obs, self.pgo.as_deref(), self.cache.as_deref())
    }

    fn health(&self, mut base: HealthSnapshot) -> HealthSnapshot {
        if let Some(cache) = &self.cache {
            cache.fill_health(&mut base);
        }
        match &self.pgo {
            Some(pgo) => pgo.fill_health(base),
            None => base,
        }
    }
}

fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error { kind, message: message.into() }
}

/// A suite benchmark's canonical name and builder.
type Builder = (&'static str, Build);

// The Err is the reply the caller returns as-is; it is never propagated
// up a deep call chain, so its size (dominated by Pong's HealthSnapshot)
// costs nothing here.
#[allow(clippy::result_large_err)]
fn lookup_bench(name: &str, scale: u32) -> Result<Builder, Response> {
    if scale == 0 || scale > MAX_SCALE {
        return Err(error(
            ErrorKind::BadRequest,
            format!("scale {scale} out of range 1..={MAX_SCALE}"),
        ));
    }
    pps_suite::lookup(name)
        .ok_or_else(|| error(ErrorKind::UnknownBench, format!("no benchmark `{name}`")))
}

/// [`runner::train`] on `bench`'s training input, failing as a reply.
#[allow(clippy::result_large_err)]
fn train(bench: &Benchmark, kind: ProfileKind) -> Result<Trained, Response> {
    runner::train(&bench.program, &bench.train_args, kind.depth, kind.k)
        .map_err(|e| error(ErrorKind::Exec, format!("{} train run: {e}", bench.name)))
}

/// The artifact profile hash of a training run. For a k-iteration run it
/// folds the k-iteration profile in ([`pps_profile::profile_triple_hash`]),
/// so two k values that happen to derive the same flattened path profile
/// still address different artifacts.
fn profile_hash(trained: &Trained) -> u64 {
    match &trained.kpath {
        Some(kp) => profile_triple_hash(&trained.edge, &trained.path, kp),
        None => profile_pair_hash(&trained.edge, &trained.path),
    }
}

/// Refuses a `carried` pair that does not fit `bench`'s program.
#[allow(clippy::result_large_err)]
fn check_carried(bench: &Benchmark, carried: Option<&ProfilePair>) -> Result<(), Response> {
    let Some(pair) = carried else { return Ok(()) };
    runner::check_profile_shape(&bench.program, &pair.0, &pair.1)
        .map_err(|e| error(ErrorKind::BadProfile, e))
}

/// Fills the memo of store entry `key`: builds the benchmark and its oracle
/// baseline (or takes both from `sibling`, an entry of the same benchmark
/// and scale), trains the key's profile kind and hashes the result. The
/// k-iteration profile is dropped once hashed. A `carried` pair that does
/// not fit the benchmark fails the fill before the baseline is computed.
#[allow(clippy::result_large_err)]
fn prepare(
    key: &StoreKey,
    build: Build,
    sibling: Option<Arc<Prepared>>,
    carried: Option<&ProfilePair>,
) -> Result<Prepared, Response> {
    let (bench, program_hash, baseline) = match sibling {
        Some(s) => {
            check_carried(&s.bench, carried)?;
            (Arc::clone(&s.bench), s.program_hash, Arc::clone(&s.baseline))
        }
        None => {
            let bench = build(Scale(key.scale));
            check_carried(&bench, carried)?;
            // The guard's oracle inputs and budget under `RunConfig::paper`
            // in either guard mode: the training input alone.
            let budget = RunConfig::paper().guard.step_budget;
            let inputs = std::slice::from_ref(&bench.train_args);
            let baseline = OracleBaseline::compute(&bench.program, inputs, budget);
            let program_hash = pps_ir::hash::program_hash(&bench.program);
            (Arc::new(bench), program_hash, Arc::new(baseline))
        }
    };
    let trained = key.kind.map(|kind| train(&bench, kind)).transpose()?;
    let profile_hash = profile_hash(trained.as_ref().unwrap_or(&Trained::empty()));
    Ok(Prepared {
        bench,
        program_hash,
        baseline,
        pair: trained.map(|t| Arc::new(t.into_pair())),
        profile_hash,
    })
}

/// What a request compiles against: the benchmark, the pair trained for
/// the requested kind, and — with a store — the memo both came from.
struct Resolved {
    bench: Arc<Benchmark>,
    pair: Option<ProfilePair>,
    memo: Option<Arc<Prepared>>,
}

/// Resolves `(bench, scale)` with `kind` trained (nothing when `None`):
/// from the store's memo when one is attached, else built and trained for
/// this request alone. A `carried` pair that does not fit the benchmark
/// is refused ([`check_carried`]) before a memo is filled or kept.
#[allow(clippy::result_large_err)]
fn resolve(
    (name, build): Builder,
    scale: u32,
    kind: Option<ProfileKind>,
    carried: Option<&ProfilePair>,
    cache: Option<&CompileCache>,
) -> Result<Resolved, Response> {
    match cache {
        Some(cache) => {
            let key = StoreKey { bench: name, scale, kind };
            let memo = cache.prepared(&key, |sibling| prepare(&key, build, sibling, carried))?;
            // A resident memo skipped the fill and its check.
            check_carried(&memo.bench, carried)?;
            let (bench, pair) = (Arc::clone(&memo.bench), memo.pair.clone());
            Ok(Resolved { bench, pair, memo: Some(memo) })
        }
        None => {
            let bench = build(Scale(scale));
            check_carried(&bench, carried)?;
            let pair = kind.map(|kind| train(&bench, kind)).transpose()?;
            Ok(Resolved {
                bench: Arc::new(bench),
                pair: pair.map(|t| Arc::new(t.into_pair())),
                memo: None,
            })
        }
    }
}

/// Executes one request, deterministically. `Ping`/`Shutdown` are answered
/// by the server itself and only reach here in tests.
///
/// Neither optional companion ever changes the reply bytes:
///
/// - `pgo` folds the profiles requests carry, and once per aggregate key
///   the pair the server trains, into the continuous-PGO aggregate of the
///   request's profile kind, and registers each compiled unit's drift
///   reference, in the store it was built over. The load generator
///   asserts the invariance by diffing daemon replies against in-process
///   `execute`.
/// - `cache` is the store, consulted before the pipeline: the memo of
///   trained state and the content-addressed replies (none at capacity
///   0). A hit returns a [`Response`] byte-identical to what the pipeline
///   would recompute, because `execute` is a pure function of exactly the
///   inputs the key hashes (program structure, canonical profiles, scheme,
///   machine model, plus the request's residual bench/scale/class). Only
///   successful replies are stored; errors always re-execute. Pass the
///   store `pgo` was built over, so one store holds every key's state.
pub fn execute(
    request: &Request,
    obs: &Obs,
    pgo: Option<&PgoState>,
    cache: Option<&CompileCache>,
) -> Response {
    let cache = cache.filter(|c| c.capacity() > 0);
    match request {
        Request::Ping => Response::Pong { health: HealthSnapshot::default() },
        Request::Shutdown => Response::ShuttingDown,
        Request::Profile { bench, scale, depth } => profile(bench, *scale, *depth, pgo, cache),
        Request::Compile { bench, scale, scheme, profile } => {
            compile(bench, *scale, scheme, profile.as_ref(), obs, pgo, cache)
        }
        Request::RunCell { bench, scale, scheme, strict } => {
            run_cell(bench, *scale, scheme, *strict, pgo, cache)
        }
    }
}

/// [`execute`] under the name the benchmark in `perfbench/` calls.
pub use self::execute as execute_cached;

fn profile(
    bench: &str,
    scale: u32,
    depth: u32,
    pgo: Option<&PgoState>,
    cache: Option<&CompileCache>,
) -> Response {
    let builder = match lookup_bench(bench, scale) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let depth = if depth == 0 { DEFAULT_PATH_DEPTH } else { depth as usize };
    if depth > MAX_DEPTH {
        return error(ErrorKind::BadRequest, format!("depth {depth} out of range 1..={MAX_DEPTH}"));
    }
    let kind = ProfileKind { depth, k: None };
    let pair = match resolve(builder, scale, Some(kind), None, cache) {
        Ok(Resolved { pair: Some(pair), .. }) => pair,
        Ok(_) => unreachable!("a trained kind resolves to a pair"),
        Err(r) => return r,
    };
    if let Some(pgo) = pgo {
        pgo.publish_trained(builder.0, scale, kind, &pair);
    }
    Response::Profile { edge: edge_to_text(&pair.0), path: path_to_text(&pair.1) }
}

/// Parses a carried profile pair. Whether it fits the benchmark is checked
/// once the benchmark is resolved ([`check_carried`]).
#[allow(clippy::result_large_err)]
fn parse_profile(p: &ProfileText) -> Result<ProfilePair, Response> {
    let edge = edge_from_text(&p.edge)
        .map_err(|e| error(ErrorKind::BadProfile, format!("edge profile: {e}")))?;
    let path = path_from_text(&p.path)
        .map_err(|e| error(ErrorKind::BadProfile, format!("path profile: {e}")))?;
    if path.depth() > MAX_DEPTH {
        let message = format!("path profile depth {} out of range 1..={MAX_DEPTH}", path.depth());
        return Err(error(ErrorKind::BadRequest, message));
    }
    Ok(Arc::new((edge, path)))
}

/// The key of a resolved request's reply in its store entry, when a store
/// is attached. A request that brings its own profile pair is keyed on
/// that pair.
fn cache_key(
    resolved: &Resolved,
    carried: Option<&ProfilePair>,
    scheme: Scheme,
    config: &RunConfig,
    class: CacheClass,
) -> Option<CacheKey> {
    let memo = resolved.memo.as_ref()?;
    Some(CacheKey {
        artifact: ArtifactKey::new(
            memo.program_hash,
            carried.map_or(memo.profile_hash, |p| profile_pair_hash(&p.0, &p.1)),
            scheme.name(),
            machine_hash(&config.machine),
        ),
        class,
    })
}

fn compile(
    bench: &str,
    scale: u32,
    scheme_name: &str,
    profile: Option<&ProfileText>,
    obs: &Obs,
    pgo: Option<&PgoState>,
    cache: Option<&CompileCache>,
) -> Response {
    let Some(scheme) = Scheme::parse(scheme_name) else {
        return error(ErrorKind::UnknownScheme, format!("no scheme `{scheme_name}`"));
    };
    // Scheme identity is the canonical spelling from here on — cache
    // keys and PGO labels must not see `PK2` vs `Pk2`.
    let scheme_name = scheme.name();
    let builder = match lookup_bench(bench, scale) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let mut config = RunConfig::paper();
    let carried = match profile.map(parse_profile).transpose() {
        Ok(c) => c,
        Err(r) => return r,
    };
    // No supplied pair: the scheme's own profile kind (k-iteration for
    // `Pk*`, whose k-path profile the artifact key folds in). A supplied
    // pair, or a scheme that reads none (`BB`), trains nothing.
    let kind = ProfileKind::of(scheme);
    let own = kind.filter(|_| carried.is_none());
    let resolved = match resolve(builder, scale, own, carried.as_ref(), cache) {
        Ok(r) => r,
        Err(r) => return r,
    };
    let pair = match carried.as_ref().or(resolved.pair.as_ref()) {
        Some(p) => Arc::clone(p),
        None => Arc::new(Trained::empty().into_pair()),
    };
    // No profile can change a `BB` compile: PGO gets nothing to aggregate
    // or track, whether or not the request carries a profile. A carried
    // pair says nothing of a k-iteration run: it is a general path profile
    // of its depth, merged on every request. The server's own pair is of
    // the scheme's kind, merged once. The reply is stored under that kind
    // too, so a carried pair equal to the server's shares its reply.
    let filed = kind.map(|kind| match &carried {
        Some(p) => ProfileKind { depth: p.1.depth(), k: None },
        None => kind,
    });
    let store_key = StoreKey { bench: builder.0, scale, kind: filed };
    // Each unit's drift reference: the carried pair, or the server's own
    // pair as its aggregate keeps it, which the kind's units share.
    let pgo = pgo.zip(filed).map(|(pgo, kind)| {
        let reference = match &carried {
            Some(p) => {
                pgo.publish(builder.0, scale, kind, p);
                Arc::clone(p)
            }
            None => pgo.publish_trained(builder.0, scale, kind, &pair),
        };
        (pgo, kind, reference)
    });

    let key = cache_key(&resolved, carried.as_ref(), scheme, &config, CacheClass::Compile);
    if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
        if let Some(reply) = cache.get(&store_key, key) {
            // A hit stands in for a successful pipeline run, so the PGO
            // tier still observes the unit (same content — the key
            // equality guarantees the identical path profile).
            if let Some((pgo, kind, reference)) = &pgo {
                pgo.observe_unit(builder.0, scale, &scheme_name, *kind, reference);
            }
            return (*reply).clone();
        }
    }

    // `Px4` inlines and retrains inside `compile`, exactly as `RunCell`
    // does, so the two request kinds agree on what every scheme means.
    config.baseline = resolved.memo.as_ref().map(|m| Arc::clone(&m.baseline));
    let bench = &*resolved.bench;
    let compiled = match runner::compile(bench, scheme, &pair.0, &pair.1, &config, obs) {
        Ok(c) => c,
        Err(RunError::Pipeline { error: e, .. }) => {
            return error(ErrorKind::Pipeline, e.to_string())
        }
        Err(e) => return error(ErrorKind::Exec, e.to_string()),
    };
    // The drift reference is the profile the client's traffic is made of:
    // the pair before any inlining, as on a cache hit.
    if let Some((pgo, kind, reference)) = &pgo {
        pgo.observe_unit(builder.0, scale, &scheme_name, *kind, reference);
    }

    let guarded = &compiled.guarded;
    let stats = &guarded.stats;
    let report = format!(
        "pps-compile-report v1\n\
         bench {bench} scheme {scheme}\n\
         procs {procs}\n\
         degraded {degraded}\n\
         incidents {incidents}\n\
         superblocks {superblocks}\n\
         tail_dup_blocks {tail_dup}\n\
         enlarged_blocks {enlarged}\n\
         skipped_low_completion {skipped}\n\
         splits {splits}\n\
         static_before {before}\n\
         static_after {after}\n\
         sched_items {items}\n",
        bench = bench.name,
        scheme = scheme.name(),
        procs = guarded.report.total_procs,
        degraded = guarded.report.degraded_procs,
        incidents = guarded.report.incidents.len(),
        superblocks = stats.superblocks,
        tail_dup = stats.tail_dup_blocks,
        enlarged = stats.enlarged_blocks,
        skipped = stats.skipped_low_completion,
        splits = stats.splits,
        before = stats.static_before,
        after = stats.static_after,
        items = guarded.compacted.total_items(),
    );
    let response = Response::Compile { report };
    if let (Some(cache), Some(key)) = (cache, key) {
        cache.insert(&store_key, key, response.clone());
    }
    response
}

fn run_cell(
    bench: &str,
    scale: u32,
    scheme_name: &str,
    strict: bool,
    pgo: Option<&PgoState>,
    cache: Option<&CompileCache>,
) -> Response {
    let Some(scheme) = Scheme::parse(scheme_name) else {
        return error(ErrorKind::UnknownScheme, format!("no scheme `{scheme_name}`"));
    };
    let scheme_name = scheme.name();
    let builder = match lookup_bench(bench, scale) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let mut config = RunConfig::paper();
    config.guard.mode = if strict { GuardMode::Strict } else { GuardMode::Degrade };
    // Train up front when anyone needs the pair — the PGO tier to
    // aggregate it, the cache to key on it — then hand the same objects to
    // the runner. The runner would train exactly this (the scheme's own
    // profile kind) itself, so the reply stays byte-for-byte equal to
    // plain execution. `BB` reads no profile: it trains none, keys the
    // cache on empty profiles and gives PGO nothing.
    let kind = ProfileKind::of(scheme);
    let trains = pgo.is_some() || cache.is_some();
    let resolved = match resolve(builder, scale, kind.filter(|_| trains), None, cache) {
        Ok(r) => r,
        Err(r) => return r,
    };
    if let (Some(pgo), Some(kind), Some(pair)) = (pgo, kind, &resolved.pair) {
        let reference = pgo.publish_trained(builder.0, scale, kind, pair);
        pgo.observe_unit(builder.0, scale, &scheme_name, kind, &reference);
    }
    let store_key = StoreKey { bench: builder.0, scale, kind };
    let class = CacheClass::RunCell { strict };
    let key = cache_key(&resolved, None, scheme, &config, class);
    if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
        if let Some(reply) = cache.get(&store_key, key) {
            return (*reply).clone();
        }
    }
    config.preloaded = resolved.pair;
    config.baseline = resolved.memo.as_ref().map(|m| Arc::clone(&m.baseline));
    // The cell records into its own metrics-only registry — exactly what
    // `pps-harness --metrics-out` exports for the same cell, and byte-
    // deterministic, so clients can diff replies against local runs.
    let cell_obs = Obs::recording(ObsConfig { level: Level::Off, trace: false, metrics: true });
    match runner::run_scheme_obs(&resolved.bench, scheme, &config, &cell_obs) {
        Ok(_) => {
            let response = Response::RunCell {
                metrics_json: cell_obs
                    .export_metrics_json()
                    .unwrap_or_else(|| "{}".to_string()),
            };
            if let (Some(cache), Some(key)) = (cache, key) {
                cache.insert(&store_key, key, response.clone());
            }
            response
        }
        Err(e @ RunError::Exec { .. }) => error(ErrorKind::Exec, e.to_string()),
        Err(e @ RunError::Pipeline { .. }) => error(ErrorKind::Pipeline, e.to_string()),
        Err(e) => error(ErrorKind::Internal, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DEFAULT_CAPACITY;
    use crate::pgo::PgoConfig;
    use std::collections::HashMap;

    #[test]
    fn scheme_names_round_trip() {
        for scheme in Scheme::FAMILY {
            assert_eq!(Scheme::parse(&scheme.name()), Some(scheme), "{}", scheme.name());
            // Spelling variants canonicalize instead of splitting cache
            // entries.
            assert_eq!(
                Scheme::parse(&scheme.name().to_ascii_uppercase()),
                Some(scheme),
                "{}",
                scheme.name()
            );
        }
        assert_eq!(Scheme::parse("Q4"), None);
        assert_eq!(Scheme::parse("M"), None);
        assert_eq!(Scheme::parse("P4x"), None);
    }

    #[test]
    fn kpath_compile_is_deterministic_and_distinct_per_k() {
        let obs = Obs::noop();
        let compile = |scheme: &str| {
            execute(
                &Request::Compile {
                    bench: "wc".into(),
                    scale: 1,
                    scheme: scheme.into(),
                    profile: None,
                },
                &obs,
                None,
                None,
            )
        };
        let pk2 = compile("Pk2");
        assert_eq!(pk2, compile("pk2"), "spelling variants are one scheme");
        let Response::Compile { report } = &pk2 else { panic!("Pk2 compile failed: {pk2:?}") };
        assert!(report.contains("scheme Pk2"), "{report}");
        let px4 = compile("Px4");
        let Response::Compile { report } = &px4 else { panic!("Px4 compile failed: {px4:?}") };
        assert!(report.contains("scheme Px4"), "{report}");
    }

    #[test]
    fn unknown_bench_and_scale_bounds_are_structured_errors() {
        let r = execute(
            &Request::Profile { bench: "nope".into(), scale: 1, depth: 0 },
            &Obs::noop(),
            None,
            None,
        );
        assert!(matches!(r, Response::Error { kind: ErrorKind::UnknownBench, .. }));
        let r = execute(
            &Request::Profile { bench: "wc".into(), scale: 0, depth: 0 },
            &Obs::noop(),
            None,
            None,
        );
        assert!(matches!(r, Response::Error { kind: ErrorKind::BadRequest, .. }));
        let deep = MAX_DEPTH as u32 + 1;
        let r = execute(
            &Request::Profile { bench: "wc".into(), scale: 1, depth: deep },
            &Obs::noop(),
            None,
            None,
        );
        assert!(matches!(r, Response::Error { kind: ErrorKind::BadRequest, .. }), "{r:?}");
        // A carried path profile whose header is deeper than the bound.
        let Response::Profile { edge, path } = execute(
            &Request::Profile { bench: "wc".into(), scale: 1, depth: 0 },
            &Obs::noop(),
            None,
            None,
        ) else {
            panic!("profile failed");
        };
        let header = format!("depth {DEFAULT_PATH_DEPTH}\n");
        let path = path.replacen(&header, &format!("depth {deep}\n"), 1);
        let r = execute(
            &Request::Compile {
                bench: "wc".into(),
                scale: 1,
                scheme: "P4".into(),
                profile: Some(ProfileText { edge, path }),
            },
            &Obs::noop(),
            None,
            None,
        );
        assert!(matches!(r, Response::Error { kind: ErrorKind::BadRequest, .. }), "{r:?}");
    }

    #[test]
    fn profile_then_compile_against_it_matches_server_trained_compile() {
        let obs = Obs::noop();
        let Response::Profile { edge, path } = execute(
            &Request::Profile { bench: "wc".into(), scale: 1, depth: 0 },
            &obs,
            None,
            None,
        ) else {
            panic!("profile failed");
        };
        let with_profile = execute(
            &Request::Compile {
                bench: "wc".into(),
                scale: 1,
                scheme: "P4".into(),
                profile: Some(ProfileText { edge, path }),
            },
            &obs,
            None,
            None,
        );
        let trained = execute(
            &Request::Compile { bench: "wc".into(), scale: 1, scheme: "P4".into(), profile: None },
            &obs,
            None,
            None,
        );
        assert_eq!(with_profile, trained, "saved profile must reproduce training");
        let Response::Compile { report } = trained else { panic!("compile failed") };
        assert!(report.starts_with("pps-compile-report v1\n"));
        assert!(report.contains("superblocks "));
    }

    #[test]
    fn run_cell_is_deterministic_and_matches_metrics_schema() {
        let req = Request::RunCell {
            bench: "wc".into(),
            scale: 1,
            scheme: "M4".into(),
            strict: true,
        };
        let a = execute(&req, &Obs::noop(), None, None);
        let b = execute(&req, &Obs::noop(), None, None);
        assert_eq!(a, b, "RunCell must be byte-deterministic");
        let Response::RunCell { metrics_json } = a else { panic!("runcell failed") };
        pps_obs::json::parse(&metrics_json).expect("valid metrics JSON");
        assert!(metrics_json.contains("sim."), "simulator metrics present");
    }

    /// Carried pairs the service must refuse as `BadProfile` before PGO or
    /// the store sees them: malformed text; edge headers declaring more
    /// blocks than the parser allocates (allocating the first aborts the
    /// process, the second overflows a capacity); and well-formed pairs
    /// that do not fit the benchmark (wc's pair sent for gcc, and wc's
    /// edge profile with one procedure too many), with and without the
    /// benchmark's memo resident.
    #[test]
    fn bad_carried_profiles_are_refused_before_pgo_or_the_store() {
        let obs = Obs::noop();
        let request = Request::Profile { bench: "wc".into(), scale: 1, depth: 0 };
        let Response::Profile { edge, path } = execute(&request, &obs, None, None) else {
            panic!("profile failed");
        };
        let wc = ProfileText { edge, path };
        let with_edge = |edge: String| ProfileText { edge, path: wc.path.clone() };
        let hostile = with_edge("pps-edge-profile v1\nproc 0 blocks 1099511627776\n".into());
        assert_eq!(hostile.edge.len(), 48);
        let procs = wc.edge.matches("\nproc ").count();
        let extra_proc = with_edge(format!("{}proc {procs} blocks 1\n", wc.edge));
        let compile = |bench: &str, profile: &ProfileText| Request::Compile {
            bench: bench.into(),
            scale: 1,
            scheme: "P4".into(),
            profile: Some(profile.clone()),
        };
        let cases = [
            compile("wc", &with_edge("pps-edge-profile v1\nbogus\n".into())),
            compile("wc", &ProfileText { edge: wc.edge.clone(), path: "depth 15".into() }),
            compile("wc", &hostile),
            compile("wc", &with_edge("pps-edge-profile v1\nproc 0 blocks 18446744073709551615".into())),
            compile("gcc", &wc),
            compile("wc", &extra_proc),
        ];
        let store = Arc::new(CompileCache::new(DEFAULT_CAPACITY));
        let pgo = PgoState::new(PgoConfig::default(), Obs::noop(), Arc::clone(&store));
        let refused = |request: &Request| {
            for reply in [
                execute(request, &obs, None, None),
                execute(request, &obs, Some(&pgo), Some(&store)),
            ] {
                assert!(
                    matches!(reply, Response::Error { kind: ErrorKind::BadProfile, .. }),
                    "{request:?}: {reply:?}"
                );
            }
        };
        for request in &cases {
            refused(request);
            assert!(store.with_entries(HashMap::is_empty), "{request:?} left a store entry");
        }
        assert_eq!(store.memo_fills(), 0);
        let health = pgo.fill_health(HealthSnapshot::default());
        assert_eq!((health.profiles_merged, health.units), (0, 0));

        // wc's memo resident: a valid carried compile fills it, and the
        // mis-shaped pair still changes nothing.
        let valid = execute(&compile("wc", &wc), &obs, Some(&pgo), Some(&store));
        assert!(matches!(valid, Response::Compile { .. }), "{valid:?}");
        let state = || {
            let mut keys = store.with_entries(|e| e.keys().copied().collect::<Vec<_>>());
            keys.sort_by_key(|k| format!("{k:?}"));
            let health = pgo.fill_health(HealthSnapshot::default());
            (keys, store.stats().3, store.memo_fills(), health.profiles_merged, health.units)
        };
        let before = state();
        refused(&compile("wc", &extra_proc));
        assert_eq!(state(), before);
    }
}
