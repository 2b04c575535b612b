//! One benchmark × scheme measurement, end to end, and the one
//! train → inline → compile path it shares with every other consumer of
//! a scheme.

use pps_compact::CompactConfig;
use pps_core::guard::PostPass;
use pps_core::{
    guarded_form_and_compact_with, FormConfig, FormStats, GuardConfig, GuardReport,
    GuardedResult, InlineOutcome, OracleBaseline, PipelineError, Scheme,
};
use pps_ir::hash::fnv1a64;
use pps_ir::interp::{DynCounts, ExecConfig, ExecError, Interp};
use pps_ir::trace::TeeSink;
use pps_ir::{Exec, FaultInjector, ProcId, Program};
use pps_machine::MachineConfig;
use pps_obs::Obs;
use pps_profile::serialize::{
    edge_from_text, edge_to_text, path_from_text, path_to_text_with_stats,
};
use pps_profile::{
    EdgeProfile, EdgeProfiler, KPathProfile, KPathProfiler, PathProfile, PathProfiler,
    DEFAULT_PATH_DEPTH,
};
use pps_sim::{from_edge_profile, simulate_obs, Layout, SbDynStats};
use pps_suite::Benchmark;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Any failure of one benchmark × scheme run, with the benchmark name
/// attached so sweep-level reports can say *which* run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An interpreter/simulator run failed. `stage` is `train run`,
    /// `inline retrain run` (`Px4`), `layout run` (the profiling run made
    /// only when the guard hands back no training-input profile) or
    /// `test run`.
    Exec {
        /// Benchmark being measured.
        bench: String,
        /// Which execution failed.
        stage: &'static str,
        /// The underlying interpreter error.
        error: ExecError,
    },
    /// The scheduling pipeline failed (strict mode) or could not recover.
    Pipeline {
        /// Benchmark being measured.
        bench: String,
        /// The underlying pipeline error.
        error: PipelineError,
    },
    /// Loading or saving a serialized profile failed
    /// ([`RunConfig::profile_in`] / [`RunConfig::profile_out`]).
    Profile {
        /// Benchmark being measured.
        bench: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Exec { bench, stage, error } => write!(f, "{bench} {stage}: {error}"),
            RunError::Pipeline { bench, error } => write!(f, "{bench} pipeline: {error}"),
            RunError::Profile { bench, message } => write!(f, "{bench} profile: {message}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Exec { error, .. } => Some(error),
            RunError::Pipeline { error, .. } => Some(error),
            RunError::Profile { .. } => None,
        }
    }
}

/// Shared configuration across a sweep.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Machine model (latencies, width, cache).
    pub machine: MachineConfig,
    /// Formation parameters.
    pub form: FormConfig,
    /// Compaction parameters.
    pub compact: CompactConfig,
    /// Recovery-boundary configuration. With empty `oracle_inputs` the
    /// runner substitutes the benchmark's training input, so every run gets
    /// a real differential check against the untransformed program.
    pub guard: GuardConfig,
    /// When set, a deterministic fault injector corrupts each procedure
    /// after its formation + compaction (the guard's post-pass seam),
    /// exercising the recovery boundary under load. The injector is seeded
    /// from this value and the benchmark name only, so the same faults hit
    /// the same procedures no matter how runs are scheduled across workers.
    pub fault_seed: Option<u64>,
    /// Directory of saved profiles (`<bench>.edgeprof` / `<bench>.pathprof`,
    /// the `pps_profile::serialize` text formats). When set, the training
    /// run is skipped and profiles are loaded instead; a missing pair is an
    /// error unless [`RunConfig::profile_out`] also points somewhere (then
    /// the run falls back to training and saves — cache semantics). Only
    /// schemes that read a profile ([`Scheme::needs_profile`]) look here.
    pub profile_in: Option<String>,
    /// Directory to save freshly collected profiles into (atomic
    /// write-then-rename, so concurrent cells of the same benchmark never
    /// tear a file). Schemes that read no profile save none.
    pub profile_out: Option<String>,
    /// An already-collected profile pair to compile against, skipping both
    /// the training run and any [`RunConfig::profile_in`] lookup. The serve
    /// daemon uses this to train once, fold the pair into its live
    /// aggregate, and still hand the *same object* to the pipeline — so
    /// metrics stay byte-identical to the train-inline path.
    pub preloaded: Option<std::sync::Arc<(EdgeProfile, PathProfile)>>,
    /// The benchmark's bounded oracle baseline, shared by every scheme
    /// compiled from it ([`ProfileCache::fill`] attaches it). The guard
    /// and the `Px4` inliner use it only when its key matches the program
    /// and inputs they check, and otherwise run their own; results are the
    /// same either way.
    pub baseline: Option<Arc<OracleBaseline>>,
}

impl RunConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        RunConfig::default()
    }
}

/// File paths of a benchmark's saved profile pair under `dir`. `suffix`
/// distinguishes profile kinds that must never collide on disk: empty for
/// the standard pair, `.pk{k}` for pairs whose path profile was derived
/// from a k-iteration training run.
fn profile_paths(dir: &str, bench: &str, suffix: &str) -> (String, String) {
    (
        format!("{dir}/{bench}{suffix}.edgeprof"),
        format!("{dir}/{bench}{suffix}.pathprof"),
    )
}

/// Loads a saved profile pair; `Ok(None)` when either file is absent. A
/// path profile saved at any depth but [`DEFAULT_PATH_DEPTH`] is an error.
fn load_profiles(
    dir: &str,
    bench: &str,
    suffix: &str,
) -> Result<Option<(EdgeProfile, PathProfile)>, String> {
    let (ep, pp) = profile_paths(dir, bench, suffix);
    if !Path::new(&ep).exists() || !Path::new(&pp).exists() {
        return Ok(None);
    }
    let edge_text = std::fs::read_to_string(&ep).map_err(|e| format!("{ep}: {e}"))?;
    let edge = edge_from_text(&edge_text).map_err(|e| format!("{ep}: {e}"))?;
    let path_text = std::fs::read_to_string(&pp).map_err(|e| format!("{pp}: {e}"))?;
    let path = path_from_text(&path_text).map_err(|e| format!("{pp}: {e}"))?;
    if path.depth() != DEFAULT_PATH_DEPTH {
        return Err(format!(
            "{pp}: saved at depth {}, this run wants depth {DEFAULT_PATH_DEPTH}",
            path.depth()
        ));
    }
    Ok(Some((edge, path)))
}

/// Saves a profile pair atomically (unique temp name, then rename), so
/// parallel cells of the same benchmark can save concurrently without
/// tearing each other's files.
fn save_profiles(
    dir: &str,
    bench: &str,
    suffix: &str,
    edge: &EdgeProfile,
    path: &PathProfile,
) -> Result<(), String> {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let (ep, pp) = profile_paths(dir, bench, suffix);
    for (dest, text) in [(ep, edge_to_text(edge)), (pp, path_to_text_with_stats(path))] {
        let tmp = format!(
            "{dest}.tmp.{}.{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        );
        std::fs::write(&tmp, text).map_err(|e| format!("{tmp}: {e}"))?;
        std::fs::rename(&tmp, &dest).map_err(|e| format!("{dest}: {e}"))?;
    }
    Ok(())
}

/// The profiles of one training run.
#[derive(Debug, Clone)]
pub struct Trained {
    /// Edge profile.
    pub edge: EdgeProfile,
    /// Path profile: recorded directly, or derived from [`Trained::kpath`].
    pub path: PathProfile,
    /// The k-iteration profile `path` was derived from (`Pk*` kinds only).
    /// Content addresses fold it in, so two k values that happen to derive
    /// the same path profile still name different artifacts.
    pub kpath: Option<KPathProfile>,
}

impl Trained {
    /// Empty profiles: what a scheme that reads none (`BB`) compiles
    /// against, with no training run.
    pub fn empty() -> Trained {
        Trained {
            edge: EdgeProfile::default(),
            path: PathProfile::from_windows(DEFAULT_PATH_DEPTH, Vec::new()),
            kpath: None,
        }
    }

    /// The `(edge, path)` pair formation consumes.
    pub fn into_pair(self) -> (EdgeProfile, PathProfile) {
        (self.edge, self.path)
    }
}

/// One training run of `program` on `args`, feeding the edge profiler and
/// a path profiler of the kind `k` selects (`Scheme::kpath_k`):
///
/// - `None` — the general-path profiler at `depth`;
/// - `Some(k)` — the k-iteration Ball–Larus profiler. The path profile is
///   derived from it at `depth` (every prefix of every chopped k-path
///   loaded as a suffix-trie window), so formation sees cross-iteration
///   context exactly where a recorded span witnessed it.
///
/// # Errors
/// The interpreter's error when the run fails.
pub fn train(
    program: &Program,
    args: &[i64],
    depth: usize,
    k: Option<u32>,
) -> Result<Trained, ExecError> {
    let exec = Exec::new(program, ExecConfig::default());
    match k {
        None => {
            let mut tee =
                TeeSink::new(EdgeProfiler::new(program), PathProfiler::new(program, depth));
            exec.run_traced(args, &mut tee)?;
            Ok(Trained { edge: tee.a.finish(), path: tee.b.finish(), kpath: None })
        }
        Some(k) => {
            let mut tee =
                TeeSink::new(EdgeProfiler::new(program), KPathProfiler::new(program, k as usize));
            exec.run_traced(args, &mut tee)?;
            let kpath = tee.b.finish();
            Ok(Trained {
                edge: tee.a.finish(),
                path: kpath.to_path_profile(depth),
                kpath: Some(kpath),
            })
        }
    }
}

/// [`train`] on `bench`'s training input, for `scheme`'s profile kind.
fn train_bench(bench: &Benchmark, scheme: Scheme) -> Result<Trained, RunError> {
    let k = scheme.kpath_k();
    train(&bench.program, &bench.train_args, DEFAULT_PATH_DEPTH, k).map_err(|error| {
        RunError::Exec { bench: bench.name.to_string(), stage: "train run", error }
    })
}

/// Cross-run training cache: one trained `(edge, path)` profile pair per
/// `(benchmark, profile kind)`, where the kind is the standard
/// forward profiler or a k-iteration derivation (`Pk*` schemes), and one
/// bounded [`OracleBaseline`] per `(benchmark, oracle inputs, step budget)`.
///
/// A profile pair depends only on the benchmark's program, its training
/// input, and — for k-iteration pairs — k; not on machine
/// model, guard mode, or fault seed (faults are injected after profiling).
/// A baseline depends only on the program, the inputs and the budget.
/// Sweeps that fan one benchmark out across many schemes can therefore
/// train and run the baseline once, and compile many times against the
/// *same* objects; the profilers and the interpreter are deterministic, so
/// results are byte-identical to recomputing per cell.
///
/// Clones share the cache. The cache is thread-safe; when parallel workers
/// race on a missing entry, one computes it while the others wait for it,
/// so each entry is computed once.
#[derive(Debug, Clone, Default)]
pub struct ProfileCache {
    pairs: Arc<Mutex<HashMap<ProfileKey, Slot<ProfilePair>>>>,
    baselines: Arc<Mutex<HashMap<BaselineKey, Slot<Arc<OracleBaseline>>>>>,
}

/// Cache key: `(benchmark name, k-iteration bound)` — `None` for the
/// standard forward pair.
type ProfileKey = (String, Option<u32>);
/// Shared, immutable trained profile pair.
type ProfilePair = Arc<(EdgeProfile, PathProfile)>;
/// Baseline key: `(benchmark name, oracle inputs, step budget)`.
type BaselineKey = (String, Vec<Vec<i64>>, u64);
/// One cache entry, locked on its own while it is computed.
type Slot<V> = Arc<Mutex<Option<V>>>;

/// The entry of `map` under `key`, computed by `make` on a miss. Only the
/// entry stays locked while `make` runs: a worker wanting the same entry
/// waits for it, one wanting another entry does not. A failed `make`
/// leaves the entry empty.
fn get_or_insert<K: std::hash::Hash + Eq, V: Clone, E>(
    map: &Mutex<HashMap<K, Slot<V>>>,
    key: K,
    make: impl FnOnce() -> Result<V, E>,
) -> Result<V, E> {
    let slot = map.lock().expect("profile cache lock").entry(key).or_default().clone();
    let mut entry = slot.lock().expect("profile cache entry lock");
    if let Some(v) = &*entry {
        return Ok(v.clone());
    }
    let v = make()?;
    *entry = Some(v.clone());
    Ok(v)
}

impl ProfileCache {
    /// Returns `config` with [`RunConfig::baseline`] and
    /// [`RunConfig::preloaded`] filled from the cache, computing either on
    /// a miss under `obs` (an `oracle-baseline` span; a `profile` span
    /// with `stage=train`, and `k` for `Pk*`).
    ///
    /// Every scheme and profile source gets the baseline: the guard's, on
    /// the oracle inputs [`compile`] will use. Only schemes that read a
    /// profile ([`Scheme::needs_profile`]) get a pair, and only when the
    /// config carries no profile source of its own (`preloaded`,
    /// `profile_in`) and wants none saved (`profile_out`). `Pk*` schemes
    /// get a pair whose path profile is derived from a k-iteration training
    /// run, cached under a distinct key so the two kinds never alias.
    ///
    /// # Errors
    /// [`RunError::Exec`] when the training run fails.
    pub fn fill(
        &self,
        bench: &Benchmark,
        scheme: Scheme,
        config: &RunConfig,
        obs: &Obs,
    ) -> Result<RunConfig, RunError> {
        let mut filled = config.clone();
        if filled.baseline.is_none() {
            let inputs = oracle_inputs(bench, config);
            let budget = config.guard.step_budget;
            let key = (bench.name.to_string(), inputs.clone(), budget);
            filled.baseline = Some(
                get_or_insert(&self.baselines, key, || {
                    let _span = obs
                        .span("oracle-baseline")
                        .arg("bench", bench.name)
                        .arg("inputs", inputs.len());
                    Ok::<_, RunError>(Arc::new(OracleBaseline::compute(
                        &bench.program,
                        &inputs,
                        budget,
                    )))
                })?,
            );
        }
        let sourced = config.preloaded.is_some()
            || config.profile_in.is_some()
            || config.profile_out.is_some();
        if scheme.needs_profile() && !sourced {
            let key = (bench.name.to_string(), scheme.kpath_k());
            filled.preloaded = Some(get_or_insert(&self.pairs, key, || {
                let mut span = obs.span("profile").arg("stage", "train").arg("bench", bench.name);
                if let Some(k) = scheme.kpath_k() {
                    span = span.arg("k", k);
                }
                let pair = Arc::new(train_bench(bench, scheme)?.into_pair());
                drop(span);
                Ok(pair)
            })?);
        }
        Ok(filled)
    }
}

/// The guard's oracle inputs for `bench` under `config`: the configured
/// ones, or the training input when none are.
fn oracle_inputs(bench: &Benchmark, config: &RunConfig) -> Vec<Vec<i64>> {
    if config.guard.oracle_inputs.is_empty() {
        vec![bench.train_args.clone()]
    } else {
        config.guard.oracle_inputs.clone()
    }
}

/// The measured result of one benchmark × scheme run.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// Scheme that produced the code.
    pub scheme: Scheme,
    /// Cycle count on the testing input, perfect I-cache.
    pub cycles: u64,
    /// Cycle count including I-cache miss penalties.
    pub cycles_icache: u64,
    /// I-cache miss rate per instruction fetch.
    pub miss_rate: f64,
    /// I-cache fetch accesses.
    pub accesses: u64,
    /// I-cache misses.
    pub misses: u64,
    /// Figure 7 statistics (testing input).
    pub sb_stats: SbDynStats,
    /// Laid-out code size in instructions.
    pub static_instrs: u64,
    /// Formation statistics.
    pub form_stats: FormStats,
    /// Dynamic counts of the testing run.
    pub counts: DynCounts,
    /// Guardrail outcome: incidents recorded and procedures degraded while
    /// producing this run (empty/zero on a clean run).
    pub guard: GuardReport,
}

/// A benchmark compiled under one scheme by [`compile`].
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The transformed program: inlined (`Px4`), formed and compacted.
    pub program: Program,
    /// What the inline phase did (`Px4` only).
    pub inline: Option<InlineOutcome>,
    /// Formation + compaction under the recovery boundary.
    pub guarded: GuardedResult,
}

/// Compiles `bench` under `scheme` against a trained `(edge, path)` pair —
/// everything after [`train`] on the one train → inline → compile path
/// that the runner, the daemon's `Compile` and PGO recompiles, and
/// `pps-explore` share:
///
/// 1. **Inline** (`Px4` only): guarded inlining of the hottest call sites
///    ([`pps_core::inline_hot_calls_with`], training input as the oracle
///    input), then a retrain of both profilers on the inlined program — the
///    profiles the pipeline consumes must describe the blocks formation
///    will actually see.
/// 2. **Form + compact** inside the recovery boundary
///    ([`guarded_form_and_compact_with`]). Empty
///    [`GuardConfig::oracle_inputs`] become the training input, and
///    [`RunConfig::machine`] overrides the compactor's copy so latency-model
///    sweeps affect the schedules, not just the cache simulation. With
///    [`RunConfig::fault_seed`] set, a fault injector corrupts each
///    procedure after its passes (the guard's post-pass seam).
///
/// [`RunConfig::baseline`] goes to the inliner and the guard, which each
/// use it only when it is the baseline of the program they check: a `Px4`
/// program the inliner changed is no longer the benchmark's, so its guard
/// runs its own. A scheme that reads no profile (`BB`) may be handed empty
/// profiles.
///
/// Records `inline.*` counters and the consumed profiles' metrics (none for
/// `BB`) into `obs`, under `inline` and `profile` (`stage=retrain`) spans.
///
/// # Errors
/// [`RunError::Exec`] when the retrain run fails; [`RunError::Pipeline`]
/// when the guard gives up (strict mode: the first incident).
pub fn compile(
    bench: &Benchmark,
    scheme: Scheme,
    edge: &EdgeProfile,
    path: &PathProfile,
    config: &RunConfig,
    obs: &Obs,
) -> Result<Compiled, RunError> {
    let mut program = bench.program.clone();
    let baseline = config.baseline.as_deref();
    let mut inline = None;
    let mut retrained = None;
    if matches!(scheme, Scheme::Inter { .. }) {
        let inline_span = obs.span("inline");
        let inline_config = pps_core::InlineConfig {
            oracle_inputs: vec![bench.train_args.clone()],
            step_budget: config.guard.step_budget,
            ..pps_core::InlineConfig::default()
        };
        let outcome =
            pps_core::inline_hot_calls_with(&mut program, edge, &inline_config, baseline);
        if obs.is_recording() {
            obs.counter("inline.sites", outcome.inlined.len() as u64);
            obs.counter("inline.rolled_back", outcome.rolled_back as u64);
            obs.counter("inline.skipped", outcome.skipped as u64);
        }
        drop(inline_span);
        if !outcome.inlined.is_empty() {
            let _retrain_span = obs.span("profile").arg("stage", "retrain");
            let args = &bench.train_args;
            retrained = Some(train(&program, args, DEFAULT_PATH_DEPTH, None).map_err(|error| {
                RunError::Exec { bench: bench.name.to_string(), stage: "inline retrain run", error }
            })?);
        }
        inline = Some(outcome);
    }
    let (edge, path, baseline) = match &retrained {
        Some(t) => (&t.edge, &t.path, None),
        None => (edge, path, baseline),
    };
    if scheme.needs_profile() {
        edge.record_metrics(obs);
        path.record_metrics(obs);
    }

    let mut compact_config = config.compact;
    compact_config.machine = config.machine;
    let mut guard = config.guard.clone();
    guard.oracle_inputs = oracle_inputs(bench, config);
    let mut inject = config.fault_seed.map(|seed| {
        // Seeded per (seed, benchmark) only — never per worker or run
        // order — so fault routing is identical at any job count; FNV-1a
        // because `std`'s hasher is randomized per process.
        let mut injector = FaultInjector::new(seed ^ fnv1a64(bench.name.as_bytes()));
        let inputs = vec![bench.train_args.clone()];
        let budget = guard.step_budget;
        move |prog: &mut Program, pid: ProcId| {
            let _ = injector.inject_effective(prog, pid, &inputs, budget, 32);
        }
    });
    let guarded = guarded_form_and_compact_with(
        &mut program,
        edge,
        Some(path),
        scheme,
        &config.form,
        &compact_config,
        &guard,
        baseline,
        obs,
        inject.as_mut().map(|f| f as &mut PostPass<'_>),
    )
    .map_err(|error| RunError::Pipeline { bench: bench.name.to_string(), error })?;
    Ok(Compiled { program, inline, guarded })
}

/// The profile pair `scheme` compiles against, under a `profile` span:
/// [`RunConfig::preloaded`], else a pair loaded from
/// [`RunConfig::profile_in`], else a training run (saved to
/// [`RunConfig::profile_out`] when set).
fn profile_pair(
    bench: &Benchmark,
    scheme: Scheme,
    config: &RunConfig,
    obs: &Obs,
) -> Result<Arc<(EdgeProfile, PathProfile)>, RunError> {
    let _span = obs.span("profile").arg("depth", DEFAULT_PATH_DEPTH);
    let profile_err =
        |message: String| RunError::Profile { bench: bench.name.to_string(), message };
    // k-iteration schemes train a different profile kind (the path
    // profile is derived from chopped k-paths); their saved pairs live
    // under `.pk{k}` names so the two kinds never alias on disk. The
    // preloaded seam is the caller's responsibility — the ProfileCache
    // and the serve daemon both key on the scheme.
    let suffix = scheme.kpath_k().map(|k| format!(".pk{k}")).unwrap_or_default();
    if let Some(pair) = &config.preloaded {
        return Ok(pair.clone());
    }
    if let Some(dir) = &config.profile_in {
        match load_profiles(dir, bench.name, &suffix).map_err(&profile_err)? {
            Some(pair) => return Ok(Arc::new(pair)),
            // With an output directory the missing pair is a cache miss:
            // train below and save. Without one it is a user error.
            None if config.profile_out.is_some() => {}
            None => {
                return Err(profile_err(format!(
                    "no saved profile in {dir} (expected {name}{suffix}.edgeprof and \
                     {name}{suffix}.pathprof); run with --profile-out first",
                    name = bench.name
                )))
            }
        }
    }
    let pair = train_bench(bench, scheme)?.into_pair();
    if let Some(dir) = &config.profile_out {
        save_profiles(dir, bench.name, &suffix, &pair.0, &pair.1).map_err(&profile_err)?;
    }
    Ok(Arc::new(pair))
}

/// Runs the complete methodology for `bench` under `scheme`:
/// train-profile → [`compile`] → lay out → measure on test input.
///
/// The layout weights come from an edge profile of the transformed program
/// on the training input ([`pps_sim::from_edge_profile`]). That profile is
/// the guard's own ([`GuardedResult::profile`]) when its first oracle input
/// is the training input and its last oracle pass ran the shipped program
/// to completion; otherwise one profiling run makes it. Either way the
/// transformed program runs on the training input once.
///
/// The formation + compaction step runs inside the pipeline's recovery
/// boundary ([`guarded_form_and_compact_with`]): in
/// [`GuardMode::Degrade`](pps_core::GuardMode) a procedure that fails its
/// post-pass checks falls back to basic-block scheduling and the run
/// continues (see [`SchemeRun::guard`]); in strict mode the first incident
/// surfaces here as [`RunError::Pipeline`].
pub fn run_scheme(
    bench: &Benchmark,
    scheme: Scheme,
    config: &RunConfig,
) -> Result<SchemeRun, RunError> {
    run_scheme_obs(bench, scheme, config, &Obs::noop())
}

/// [`run_scheme`] with observability: the whole run executes under a
/// `run-scheme` span (children: `profile` unless the scheme reads no
/// profile, the guarded pipeline's
/// per-procedure spans, a `profile` span with `stage=layout` when the
/// guard handed back no profile, `layout`, and the one `simulate` run, on
/// the test input), with metrics and decision events labeled `bench` and
/// `scheme`. The layout's `sim.*` counters carry `stage=layout`, the test
/// run's `stage=test`.
///
/// # Errors
/// As [`run_scheme`].
pub fn run_scheme_obs(
    bench: &Benchmark,
    scheme: Scheme,
    config: &RunConfig,
    obs: &Obs,
) -> Result<SchemeRun, RunError> {
    let obs = obs.with_label("bench", bench.name).with_label("scheme", scheme.name());
    let _run_span = obs
        .span("run-scheme")
        .arg("bench", bench.name)
        .arg("scheme", scheme.name());
    let exec_config = ExecConfig::default();
    let exec_err = |stage: &'static str| {
        move |error: ExecError| RunError::Exec { bench: bench.name.to_string(), stage, error }
    };

    // 1. Profiles: none for a scheme that reads none (`BB`); otherwise a
    // saved pair when configured, else one training run feeding both
    // profilers (optionally saving the pair so later runs — or a serve
    // daemon's Compile requests — can reuse it).
    let pair = if scheme.needs_profile() {
        profile_pair(bench, scheme, config, &obs)?
    } else {
        Arc::new(Trained::empty().into_pair())
    };

    // 2. Inline (`Px4`), form and compact under the recovery boundary.
    let Compiled { program, guarded, .. } = compile(bench, scheme, &pair.0, &pair.1, config, &obs)?;
    let compacted = guarded.compacted;
    let form_stats = guarded.stats;

    // 3. Layout weights from an edge profile of the transformed code on
    // the training input: the guard's last oracle pass when it ran exactly
    // that (`compile` makes the training input the oracle's input 0 unless
    // the config names other inputs), otherwise one profiling run.
    let oracle_trains =
        config.guard.oracle_inputs.first().is_none_or(|args| *args == bench.train_args);
    let profile = match guarded.profile.filter(|_| oracle_trains) {
        Some(profile) => profile,
        None => {
            let _span = obs.span("profile").arg("stage", "layout");
            let mut profiler = EdgeProfiler::new(&program);
            Exec::new(&program, exec_config)
                .run_traced(&bench.train_args, &mut profiler)
                .map_err(exec_err("layout run"))?;
            profiler.finish()
        }
    };
    let layout = {
        let _span = obs.span("layout");
        let train =
            from_edge_profile(&program, &compacted, &profile, &obs.with_label("stage", "layout"));
        Layout::build(&program, &compacted, &train.transitions, &config.machine)
    };

    // 4. Measured run on the testing input.
    let out = simulate_obs(
        &program,
        &compacted,
        &config.machine,
        Some(&layout),
        &bench.test_args,
        &obs.with_label("stage", "test"),
    )
    .map_err(exec_err("test run"))?;

    // Sanity: the transformed program must behave like the original.
    debug_assert_eq!(
        out.exec.output,
        Interp::new(&bench.program, exec_config)
            .run(&bench.test_args)
            .expect("original runs")
            .output,
        "{}: transformation changed observable behavior",
        bench.name
    );

    let icache = out.icache.expect("layout supplied");
    if obs.is_recording() {
        obs.counter("form.static_before", form_stats.static_before);
        obs.counter("form.static_after", form_stats.static_after);
        obs.counter("compact.static_instrs", compacted.total_items());
    }
    Ok(SchemeRun {
        scheme,
        cycles: out.cycles,
        cycles_icache: out.cycles_with_icache(),
        miss_rate: icache.miss_rate(),
        accesses: icache.accesses,
        misses: icache.misses,
        sb_stats: out.sb_stats,
        static_instrs: compacted.total_items(),
        form_stats,
        counts: out.exec.counts,
        guard: guarded.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_suite::{benchmark_by_name, Scale};

    #[test]
    fn full_methodology_on_wc() {
        let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
        let config = RunConfig::paper();
        let bb = run_scheme(&bench, Scheme::BasicBlock, &config).unwrap();
        let m4 = run_scheme(&bench, Scheme::M4, &config).unwrap();
        let p4 = run_scheme(&bench, Scheme::P4, &config).unwrap();
        assert!(m4.cycles < bb.cycles, "M4 {} !< BB {}", m4.cycles, bb.cycles);
        assert!(p4.cycles < bb.cycles, "P4 {} !< BB {}", p4.cycles, bb.cycles);
        assert!(p4.sb_stats.avg_blocks_executed() > bb.sb_stats.avg_blocks_executed());
        assert!(p4.static_instrs >= bb.static_instrs);
        assert!(p4.miss_rate >= 0.0 && p4.miss_rate < 1.0);
        // The runs went through the guarded pipeline and were clean.
        assert!(bb.guard.clean() && m4.guard.clean() && p4.guard.clean());
    }

    #[test]
    fn saved_profiles_reproduce_the_training_run() {
        let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
        let dir = std::env::temp_dir()
            .join(format!("pps-profile-io-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();

        // Pass 1: train and save.
        let mut save_cfg = RunConfig::paper();
        save_cfg.profile_out = Some(dir.clone());
        let trained = run_scheme(&bench, Scheme::P4, &save_cfg).unwrap();
        assert!(Path::new(&format!("{dir}/wc.edgeprof")).exists());
        assert!(Path::new(&format!("{dir}/wc.pathprof")).exists());

        // Pass 2: load; measurements must be identical.
        let mut load_cfg = RunConfig::paper();
        load_cfg.profile_in = Some(dir.clone());
        let loaded = run_scheme(&bench, Scheme::P4, &load_cfg).unwrap();
        assert_eq!(loaded.cycles, trained.cycles);
        assert_eq!(loaded.cycles_icache, trained.cycles_icache);
        assert_eq!(loaded.static_instrs, trained.static_instrs);
        assert_eq!(loaded.sb_stats, trained.sb_stats);

        // A missing pair without an output fallback is a structured error.
        let mut missing_cfg = RunConfig::paper();
        missing_cfg.profile_in = Some(format!("{dir}/nowhere"));
        let err = run_scheme(&bench, Scheme::P4, &missing_cfg).unwrap_err();
        assert!(matches!(err, RunError::Profile { .. }), "{err}");

        // A path profile saved at another depth is an error, not a reuse.
        let shallow = train(&bench.program, &bench.train_args, 4, None).unwrap();
        std::fs::write(format!("{dir}/wc.pathprof"), path_to_text_with_stats(&shallow.path))
            .unwrap();
        let err = run_scheme(&bench, Scheme::P4, &load_cfg).unwrap_err();
        assert!(err.to_string().contains("saved at depth 4"), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn basic_block_cells_load_train_and_save_no_profile() {
        let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
        let dir = std::env::temp_dir()
            .join(format!("pps-bb-profile-io-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::create_dir_all(&dir).unwrap();
        let plain = run_scheme(&bench, Scheme::BasicBlock, &RunConfig::paper()).unwrap();

        // An empty profile directory is no error for a scheme that reads
        // no profile, and saving writes nothing.
        for config in [
            RunConfig { profile_in: Some(dir.clone()), ..RunConfig::paper() },
            RunConfig { profile_out: Some(dir.clone()), ..RunConfig::paper() },
        ] {
            let r = run_scheme(&bench, Scheme::BasicBlock, &config).unwrap();
            assert_eq!(r.cycles, plain.cycles);
            assert_eq!(r.cycles_icache, plain.cycles_icache);
            assert_eq!(r.static_instrs, plain.static_instrs);
            assert_eq!(r.sb_stats, plain.sb_stats);
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "BB saved a profile");

        // The cache trains no pair for it either, but attaches the baseline.
        let filled = ProfileCache::default()
            .fill(&bench, Scheme::BasicBlock, &RunConfig::paper(), &Obs::noop())
            .unwrap();
        assert!(filled.preloaded.is_none());
        assert!(filled.baseline.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kpath_and_inter_schemes_run_end_to_end() {
        let config = RunConfig::paper();
        // A loopy benchmark exercises the k-iteration chopper; `calls`-style
        // benchmarks exercise the inline phase. Both must run the full
        // methodology cleanly and produce sane measurements.
        let bench = benchmark_by_name("alt", Scale::quick()).unwrap();
        let bb = run_scheme(&bench, Scheme::BasicBlock, &config).unwrap();
        for scheme in [Scheme::PK2, Scheme::PK3, Scheme::PX4] {
            let r = run_scheme(&bench, scheme, &config).unwrap();
            assert!(r.guard.clean(), "{}: {:?}", scheme.name(), r.guard);
            assert!(r.cycles > 0 && r.cycles <= bb.cycles, "{}", scheme.name());
        }
        // Runs are deterministic per scheme.
        let a = run_scheme(&bench, Scheme::PK2, &config).unwrap();
        let b = run_scheme(&bench, Scheme::PK2, &config).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.static_instrs, b.static_instrs);
    }

    #[test]
    fn micro_benchmarks_strongly_favor_paths() {
        let bench = benchmark_by_name("alt", Scale::quick()).unwrap();
        let config = RunConfig::paper();
        let m4 = run_scheme(&bench, Scheme::M4, &config).unwrap();
        let p4 = run_scheme(&bench, Scheme::P4, &config).unwrap();
        assert!(
            p4.cycles < m4.cycles,
            "alt: P4 {} !< M4 {} (path profiles must exploit the TTTF pattern)",
            p4.cycles,
            m4.cycles
        );
    }
}
