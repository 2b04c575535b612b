//! Executes decoded requests against the real scheduling pipeline.
//!
//! [`execute`] is deliberately a pure function of the request (plus the
//! workspace's deterministic pipeline), so the load generator can compute
//! the expected reply in-process and assert the daemon's bytes are
//! identical — the service must never drift from the library. Every
//! request compiles through the one train → inline → compile path of
//! [`pps_eval::runner`], the path the harness and `pps-explore` take.

use crate::cache::{machine_hash, ArtifactKey, CacheClass, CacheKey, CompileCache};
use crate::pgo::PgoState;
use crate::proto::{ErrorKind, HealthSnapshot, ProfileText, Request, Response};
use crate::server::Handler;
use pps_core::{GuardMode, Scheme};
use pps_eval::runner::{self, RunConfig, RunError, Trained};
use pps_machine::MachineConfig;
use pps_obs::{Level, Obs, ObsConfig};
use pps_profile::serialize::{edge_from_text, edge_to_text, path_from_text, path_to_text};
use pps_profile::DEFAULT_PATH_DEPTH;
use pps_suite::{benchmark_by_name, Benchmark, Scale};
use std::sync::Arc;

/// Largest accepted suite scale — bounds per-request work.
pub const MAX_SCALE: u32 = 100;

/// The daemon's [`Handler`]: every request runs [`execute`] with the
/// daemon's reply cache and continuous-PGO state, each optional. Health
/// snapshots carry the counters of whichever is attached.
#[derive(Default, Clone)]
pub struct PipelineHandler {
    cache: Option<Arc<CompileCache>>,
    pgo: Option<Arc<PgoState>>,
}

impl PipelineHandler {
    /// A handler over the given reply cache and PGO state
    /// ([`PipelineHandler::default`] has neither). With both, a PGO
    /// hot-swap invalidates the swapped unit's cache entries.
    pub fn new(cache: Option<Arc<CompileCache>>, pgo: Option<Arc<PgoState>>) -> Self {
        if let (Some(cache), Some(pgo)) = (&cache, &pgo) {
            pgo.attach_cache(Arc::clone(cache));
        }
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

// The Err is the reply the caller returns as-is; it is never propagated
// up a deep call chain, so its size (dominated by Pong's HealthSnapshot)
// costs nothing here.
#[allow(clippy::result_large_err)]
fn lookup_bench(name: &str, scale: u32) -> Result<Benchmark, Response> {
    if scale == 0 || scale > MAX_SCALE {
        return Err(error(
            ErrorKind::BadRequest,
            format!("scale {scale} out of range 1..={MAX_SCALE}"),
        ));
    }
    benchmark_by_name(name, Scale(scale))
        .ok_or_else(|| error(ErrorKind::UnknownBench, format!("no benchmark `{name}`")))
}

/// [`runner::train`] on `bench`'s training input, failing as a reply.
#[allow(clippy::result_large_err)]
fn train(bench: &Benchmark, depth: usize, k: Option<u32>) -> Result<Trained, Response> {
    runner::train(&bench.program, &bench.train_args, depth, k)
        .map_err(|e| error(ErrorKind::Exec, format!("{} train run: {e}", bench.name)))
}

/// Executes one request, deterministically. `Ping`/`Shutdown` are answered
/// by the server itself and only reach here in tests.
///
/// Neither optional companion ever changes the reply bytes:
///
/// - `pgo` folds every profile pair the request trains or carries into the
///   continuous-PGO aggregate and registers each compiled unit's drift
///   reference. The load generator asserts the invariance by diffing
///   daemon replies against in-process `execute`.
/// - `cache` is a content-addressed reply cache consulted before the
///   pipeline. A hit returns a [`Response`] byte-identical to what the
///   pipeline would recompute, because `execute` is a pure function of
///   exactly the inputs the cache key hashes (program structure, canonical
///   profiles, scheme, machine model, plus the request's residual
///   bench/scale/class). Only successful replies are cached; errors always
///   re-execute.
pub fn execute(
    request: &Request,
    obs: &Obs,
    pgo: Option<&PgoState>,
    cache: Option<&CompileCache>,
) -> Response {
    match request {
        Request::Ping => Response::Pong { health: HealthSnapshot::default() },
        Request::Shutdown => Response::ShuttingDown,
        Request::Profile { bench, scale, depth } => profile(bench, *scale, *depth, pgo),
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

/// The content address of the unit a request resolves to: canonical
/// program hash, canonical profile hash, scheme name, machine hash. For
/// `Pk*` units trained server-side the profile hash folds the k-iteration
/// profile in ([`pps_profile::profile_triple_hash`]), so two k values that
/// happen to derive the same flattened path profile still address
/// different artifacts.
fn artifact_key(
    bench: &Benchmark,
    trained: &Trained,
    scheme: Scheme,
    machine: &MachineConfig,
) -> ArtifactKey {
    let profile_hash = match &trained.kpath {
        Some(kp) => pps_profile::profile_triple_hash(&trained.edge, &trained.path, kp),
        None => pps_profile::profile_pair_hash(&trained.edge, &trained.path),
    };
    ArtifactKey::new(
        pps_ir::hash::program_hash(&bench.program),
        profile_hash,
        scheme.name(),
        machine_hash(machine),
    )
}

fn profile(bench: &str, scale: u32, depth: u32, pgo: Option<&PgoState>) -> Response {
    let bench = match lookup_bench(bench, scale) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let depth = if depth == 0 { DEFAULT_PATH_DEPTH } else { depth as usize };
    match train(&bench, depth, None) {
        Ok(Trained { edge, path, .. }) => {
            if let Some(pgo) = pgo {
                pgo.publish(bench.name, scale, &edge, &path);
            }
            Response::Profile {
                edge: edge_to_text(&edge),
                path: path_to_text(&path),
            }
        }
        Err(r) => r,
    }
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
    // keys, shard routing and PGO labels must not see `PK2` vs `Pk2`.
    let scheme_name = scheme.name();
    let bench = match lookup_bench(bench, scale) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let config = RunConfig::paper();
    let trained = match profile {
        Some(p) => {
            let edge = match edge_from_text(&p.edge) {
                Ok(e) => e,
                Err(e) => return error(ErrorKind::BadProfile, format!("edge profile: {e}")),
            };
            let path = match path_from_text(&p.path) {
                Ok(p) => p,
                Err(e) => return error(ErrorKind::BadProfile, format!("path profile: {e}")),
            };
            Some(Trained { edge, path, kpath: None })
        }
        // No supplied pair: one training run of the scheme's profile kind
        // (k-iteration for `Pk*`, whose k-path profile the artifact key
        // folds in).
        None if scheme.needs_profile() => {
            match train(&bench, DEFAULT_PATH_DEPTH, scheme.kpath_k()) {
                Ok(t) => Some(t),
                Err(r) => return r,
            }
        }
        None => None,
    };
    // A scheme that reads no profile (`BB`) and carries none trains none:
    // it compiles and keys the cache against empty profiles, and PGO has
    // nothing to aggregate or track.
    let pgo = pgo.filter(|_| trained.is_some());
    let trained = trained.unwrap_or_else(Trained::empty);
    if let Some(pgo) = pgo {
        pgo.publish(bench.name, scale, &trained.edge, &trained.path);
    }

    let key = cache.map(|_| CacheKey {
        artifact: artifact_key(&bench, &trained, scheme, &config.machine),
        class: CacheClass::Compile,
        bench: bench.name.to_string(),
        scale,
    });
    let Trained { edge, path, .. } = trained;
    if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
        if let Some(reply) = cache.get(key) {
            // A hit stands in for a successful pipeline run, so the PGO
            // tier still observes the unit (same content — the key
            // equality guarantees the identical path profile).
            if let Some(pgo) = pgo {
                pgo.observe_unit(bench.name, scale, &scheme_name, &path);
            }
            return (*reply).clone();
        }
    }

    // `Px4` inlines and retrains inside `compile`, exactly as `RunCell`
    // does, so the two request kinds agree on what every scheme means.
    let compiled = match runner::compile(&bench, scheme, &edge, &path, &config, obs) {
        Ok(c) => c,
        Err(RunError::Pipeline { error: e, .. }) => {
            return error(ErrorKind::Pipeline, e.to_string())
        }
        Err(e) => return error(ErrorKind::Exec, e.to_string()),
    };
    // The drift reference is the profile the client's traffic is made of:
    // the pair before any inlining, as on a cache hit.
    if let Some(pgo) = pgo {
        pgo.observe_unit(bench.name, scale, &scheme_name, &path);
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
        cache.insert(key, response.clone());
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
    let bench = match lookup_bench(bench, scale) {
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
    // cache on empty profiles and gives PGO nothing. The daemon passes no
    // shared oracle baseline: the guard runs its own.
    let trained = if scheme.needs_profile() && (pgo.is_some() || cache.is_some()) {
        match train(&bench, DEFAULT_PATH_DEPTH, scheme.kpath_k()) {
            Ok(t) => Some(t),
            Err(r) => return r,
        }
    } else {
        None
    };
    if let (Some(pgo), Some(t)) = (pgo, &trained) {
        pgo.publish(bench.name, scale, &t.edge, &t.path);
        pgo.observe_unit(bench.name, scale, &scheme_name, &t.path);
    }
    let key = cache.map(|_| CacheKey {
        artifact: artifact_key(
            &bench,
            trained.as_ref().unwrap_or(&Trained::empty()),
            scheme,
            &config.machine,
        ),
        class: CacheClass::RunCell { strict },
        bench: bench.name.to_string(),
        scale,
    });
    if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
        if let Some(reply) = cache.get(key) {
            return (*reply).clone();
        }
    }
    if let Some(t) = trained {
        config.preloaded = Some(Arc::new(t.into_pair()));
    }
    // The cell records into its own metrics-only registry — exactly what
    // `pps-harness --metrics-out` exports for the same cell, and byte-
    // deterministic, so clients can diff replies against local runs.
    let cell_obs = Obs::recording(ObsConfig { level: Level::Off, trace: false, metrics: true });
    match runner::run_scheme_obs(&bench, scheme, &config, &cell_obs) {
        Ok(_) => {
            let response = Response::RunCell {
                metrics_json: cell_obs
                    .export_metrics_json()
                    .unwrap_or_else(|| "{}".to_string()),
            };
            if let (Some(cache), Some(key)) = (cache, key) {
                cache.insert(key, response.clone());
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

    #[test]
    fn scheme_names_round_trip() {
        for scheme in Scheme::FAMILY {
            assert_eq!(Scheme::parse(&scheme.name()), Some(scheme), "{}", scheme.name());
            // Spelling variants canonicalize instead of splitting cache
            // entries or shard routes.
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
}
