//! The continuous-PGO loop: aggregate live profiles, detect drift, and
//! recompile drifted units off the request path with atomic hot-swap.
//!
//! Three pieces close the loop the paper leaves open (profiles from a
//! training run steering *future* runs):
//!
//! - **Aggregation** — [`crate::service::execute`] hands [`PgoState`]
//!   the profiles of `Profile`, `Compile` and `RunCell` requests, and they
//!   are folded by counter addition ([`pps_profile::merge`]) into a live
//!   aggregate per `(bench, scale, profile kind)`
//!   ([`crate::cache::ProfileKind`]: path depth and k-iteration bound), so
//!   a general-path profile never mixes with a k-path-derived one. The
//!   pair the server trains is of the scheme's kind (the requested depth
//!   for `Profile`) and deterministic: [`PgoState::publish_trained`]
//!   merges it once per aggregate, as a second copy adds no information
//!   and would only dilute what clients carry. A carried pair says nothing
//!   of a k-iteration run, so it counts as a general path profile of its
//!   depth, and [`PgoState::publish`] merges every one. Publishing is a
//!   pure side effect: replies stay byte-identical to execution without
//!   the PGO state.
//! - **Drift detection** — a serving unit is one `(bench, scale, scheme,
//!   profile kind)`, so a scheme compiled against a carried pair and
//!   against the server's k-iteration pair is two units. Each remembers
//!   the pair it was compiled against; [`PgoState::sweep`] scores the live
//!   aggregate of the unit's kind against it ([`pps_profile::path_drift`]:
//!   top-k overlap + weight divergence) with hysteresis (enter above
//!   `enter_threshold`, exit below `exit_threshold`) so a unit oscillating
//!   near the line doesn't flap. A sweep snapshots each aggregate once and
//!   scores a unit only when its aggregate epoch or its slot generation
//!   moved, so an idle sweeper scores nothing. A steady server-trained
//!   load leaves one sample per aggregate, below any useful
//!   `min_samples`: nothing is scored or recompiled.
//! - **Fault-isolated recompile + swap** — drifted units are rebuilt
//!   against an aggregate snapshot inside `catch_unwind`, through the same
//!   train → inline → compile path as the request path
//!   ([`pps_eval::runner::compile`]) behind the strict guard (structural
//!   verifier + differential oracle). Only a fully verified unit is
//!   published, through a generation-stamped CAS ([`SwapSlot::swap_if`]):
//!   a stale recompile (another swap landed first) or any fault rolls
//!   back — the old unit keeps serving, untouched. A per-sweep recompile
//!   budget plus a per-unit cooldown bound churn under oscillating
//!   workloads.
//!
//! [`PgoState`] keeps no maps of its own. An aggregate and the units
//! scored against it live in the entry of their `(bench, scale, kind)` in
//! the daemon's store ([`CompileCache`]). They share the memo's `Arc`s,
//! or the one copy of the server's own pair the aggregate keeps, rather
//! than copying profiles. The store's byte budget bounds them, and
//! evicting a key drops its aggregate and units with the rest of the
//! entry: a unit that comes back starts over from the next request's
//! pair. No request reads a unit, so a swap touches no stored reply. Log
//! lines name a unit `bench/scale/scheme/kind`, e.g. `wc/1/Pk2/d15k2`.
//!
//! [`PgoRuntime`] runs [`PgoState::sweep`] on a background thread;
//! [`PgoRuntime::shutdown`] drains it — the swap is a single slot
//! operation, so shutdown can never observe a half-swapped unit.

use crate::cache::{CompileCache, ProfileKind, StoreKey};
use crate::proto::HealthSnapshot;
use crate::swap::{SwapOutcome, SwapSlot};
use pps_core::{GuardMode, Scheme};
use pps_eval::runner::{self, ProfilePair, RunConfig};
use pps_obs::{Level, Obs};
use pps_profile::{merge_edges, merge_paths, path_drift};
use pps_suite::{benchmark_by_name, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Injected recompile fault, for exercising the containment paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PgoFault {
    /// No injection — recompiles run for real.
    #[default]
    None,
    /// The recompile attempt panics before reaching the pipeline; the
    /// tier's `catch_unwind` must contain it.
    Panic,
    /// A deterministic effective fault corrupts each procedure after
    /// formation (the guard's post-pass seam); the strict verifier /
    /// differential oracle must reject the unit.
    Corrupt,
}

impl PgoFault {
    /// Parses a `--pgo-fault` CLI value.
    pub fn parse(s: &str) -> Option<PgoFault> {
        match s {
            "none" => Some(PgoFault::None),
            "panic" => Some(PgoFault::Panic),
            "corrupt" => Some(PgoFault::Corrupt),
            _ => None,
        }
    }
}

/// Hot windows the drift metric compares between a unit's compile-time
/// profile and the live aggregate.
pub const DRIFT_TOP_K: usize = 16;

/// Tuning knobs of the continuous-PGO loop.
#[derive(Debug, Clone)]
pub struct PgoConfig {
    /// Profiles that must be folded into a bench's aggregate before its
    /// units are drift-checked (a one-sample aggregate is noise).
    pub min_samples: u64,
    /// Background sweep period.
    pub interval: Duration,
    /// Hysteresis: a unit enters the drifted set at or above this score.
    pub enter_threshold: f64,
    /// Hysteresis: a drifted unit exits below this score.
    pub exit_threshold: f64,
    /// Minimum wall time between recompiles of the same unit.
    pub cooldown: Duration,
    /// Recompiles allowed per sweep, across all units (churn budget).
    pub recompiles_per_sweep: usize,
    /// Injected fault mode (tests and the drift-smoke stage).
    pub fault: PgoFault,
}

impl Default for PgoConfig {
    fn default() -> Self {
        PgoConfig {
            min_samples: 2,
            interval: Duration::from_millis(500),
            enter_threshold: 0.5,
            exit_threshold: 0.25,
            cooldown: Duration::from_secs(5),
            recompiles_per_sweep: 2,
            fault: PgoFault::None,
        }
    }
}

/// A compiled unit as the PGO tier tracks it: the profiles it was built
/// against (the drift reference), its verified compile report, and the
/// aggregate epoch it snapshotted.
#[derive(Debug, Clone)]
pub struct ServingUnit {
    /// The `(edge, path)` pair the unit was compiled against, shared with
    /// the request or aggregate it came from. Drift is measured from the
    /// path profile.
    pub profiles: ProfilePair,
    /// Deterministic compile report (`pps-compile-report v1`), empty for
    /// the initial request-path unit (its report went to the client).
    pub report: String,
    /// Aggregate epoch the profiles were snapshotted at.
    pub epoch: u64,
}

/// Live merged profiles for one benchmark, scale and profile kind: a
/// field of the store entry of that key.
pub(crate) struct Aggregate {
    /// The merged pair; a sweep snapshots it by cloning the `Arc`.
    pub(crate) pair: ProfilePair,
    samples: u64,
    /// Bumped on every merge, so sweeps can reuse the scores of units
    /// whose aggregate is unchanged.
    epoch: u64,
    /// The server's own trained pair, once merged: it is deterministic, so
    /// merging it again would add no information, and the units compiled
    /// against it share this copy.
    pub(crate) trained: Option<ProfilePair>,
}

/// Sweep-owned drift bookkeeping for one unit.
struct UnitMeta {
    drifted: bool,
    /// `(aggregate epoch, slot generation)` of the last drift score, which
    /// `drifted` holds the verdict of.
    scored_at: Option<(u64, u64)>,
    last_recompile: Option<Instant>,
}

/// One unit, held by the store entry of the kind it was compiled against.
pub(crate) struct UnitEntry {
    pub(crate) slot: SwapSlot<ServingUnit>,
    meta: Mutex<UnitMeta>,
}

/// What one [`PgoState::sweep`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Units whose drift score was (re)evaluated.
    pub evaluated: usize,
    /// Units in the drifted set when the sweep finished.
    pub drifted: usize,
    /// Recompiles attempted this sweep.
    pub recompiles: usize,
    /// Recompiles that swapped in.
    pub swaps: usize,
    /// Recompiles rolled back (fault, verifier reject, or stale CAS).
    pub rollbacks: usize,
    /// Drifted units skipped for cooldown or budget.
    pub deferred: usize,
}

/// Shared state of the continuous-PGO loop. One instance is shared by the
/// request path ([`PgoState::publish`], [`PgoState::observe_unit`]), the
/// background sweeper, and the health snapshot. Its aggregates and units
/// live in the store it is given.
pub struct PgoState {
    config: PgoConfig,
    store: Arc<CompileCache>,
    profiles_merged: AtomicU64,
    recompiles: AtomicU64,
    swaps: AtomicU64,
    rollbacks: AtomicU64,
    in_flight: AtomicU32,
    obs: Obs,
}

impl PgoState {
    /// Creates the loop state over `store`, which holds its aggregates and
    /// units; `obs` receives the `pgo.*` counters and histograms.
    pub fn new(config: PgoConfig, obs: Obs, store: Arc<CompileCache>) -> Self {
        PgoState {
            config,
            store,
            profiles_merged: AtomicU64::new(0),
            recompiles: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            in_flight: AtomicU32::new(0),
            obs,
        }
    }

    /// The configuration the loop runs with.
    pub fn config(&self) -> &PgoConfig {
        &self.config
    }

    /// `(samples, epoch)` of the aggregate of `(bench, scale, kind)`, if
    /// any — test/ops introspection.
    pub fn aggregate_stats(
        &self,
        bench: &'static str,
        scale: u32,
        kind: ProfileKind,
    ) -> Option<(u64, u64)> {
        let key = StoreKey { bench, scale, kind: Some(kind) };
        self.store.with_entries(|entries| {
            let aggregate = entries.get(&key)?.aggregate.as_ref()?;
            Some((aggregate.samples, aggregate.epoch))
        })
    }

    /// The serving copy of a unit, if tracked: `(generation, unit)`.
    pub fn unit(
        &self,
        bench: &'static str,
        scale: u32,
        scheme: &str,
        kind: ProfileKind,
    ) -> Option<(u64, Arc<ServingUnit>)> {
        let key = StoreKey { bench, scale, kind: Some(kind) };
        self.store.with_entries(|entries| Some(entries.get(&key)?.units.get(scheme)?.slot.load()))
    }

    /// Every tracked unit.
    fn units(&self) -> Vec<Arc<UnitEntry>> {
        self.store.with_entries(|entries| {
            entries.values().flat_map(|e| e.units.values()).cloned().collect()
        })
    }

    /// Fills the PGO half of the health snapshot (the reply cache fills its
    /// own counters).
    pub fn fill_health(&self, mut base: HealthSnapshot) -> HealthSnapshot {
        base.pgo_enabled = true;
        base.profiles_merged = self.profiles_merged.load(Ordering::Relaxed);
        base.recompiles = self.recompiles.load(Ordering::Relaxed);
        base.swaps = self.swaps.load(Ordering::Relaxed);
        base.rollbacks = self.rollbacks.load(Ordering::Relaxed);
        base.in_flight_recompiles = self.in_flight.load(Ordering::Relaxed);
        let units = self.units();
        base.units = units.len() as u32;
        base.max_generation = units.iter().map(|u| u.slot.generation()).max().unwrap_or(0);
        base.drifted_units = units.iter().filter(|u| u.meta.lock().unwrap().drifted).count() as u32;
        base
    }

    /// One pass of the drift detector + recompile tier. The background
    /// runtime calls this on its interval; tests call it directly for a
    /// fully synchronous loop.
    ///
    /// Each aggregate is snapshotted once, as an `Arc`. A unit whose
    /// aggregate epoch and slot generation are what it was last scored at
    /// keeps its last score and is not scored again; its recompile is
    /// still reconsidered, so a unit deferred by cooldown or budget gets
    /// its turn.
    pub fn sweep(&self) -> SweepReport {
        let mut report = SweepReport::default();
        // Every unit whose aggregate has enough samples, with a snapshot of
        // that aggregate.
        let units: Vec<_> = self.store.with_entries(|entries| {
            let eligible = entries.iter().filter_map(|(key, e)| {
                let agg = e.aggregate.as_ref().filter(|a| a.samples >= self.config.min_samples)?;
                Some(e.units.iter().map(move |(scheme, unit)| {
                    (*key, scheme.clone(), Arc::clone(unit), Arc::clone(&agg.pair), agg.epoch)
                }))
            });
            eligible.flatten().collect()
        });
        let mut budget = self.config.recompiles_per_sweep;
        for (key, scheme, entry, agg, agg_epoch) in units {
            let (bench, scale, kind) = (key.bench, key.scale, key.kind.expect("a unit's kind"));
            let (generation, unit) = entry.slot.load();

            let wants_recompile = {
                let mut meta = entry.meta.lock().unwrap();
                if meta.scored_at != Some((agg_epoch, generation)) {
                    let drift = path_drift(&unit.profiles.1, &agg.1, DRIFT_TOP_K);
                    report.evaluated += 1;
                    self.obs.histogram("pgo.drift_score", drift.score);
                    meta.scored_at = Some((agg_epoch, generation));
                    if !meta.drifted && drift.score >= self.config.enter_threshold {
                        meta.drifted = true;
                        self.obs.log(Level::Info, || {
                            format!(
                                "pgo: {bench}/{scale}/{scheme}/{kind} drifted \
                                 (score {:.3}, overlap {:.3}, divergence {:.3})",
                                drift.score, drift.top_k_overlap, drift.weight_divergence
                            )
                        });
                    } else if meta.drifted && drift.score < self.config.exit_threshold {
                        meta.drifted = false;
                    }
                }
                // Already serving this aggregate epoch: a fresh recompile
                // would rebuild the same unit.
                meta.drifted && unit.epoch != agg_epoch
            };

            if wants_recompile {
                let cooled = {
                    let meta = entry.meta.lock().unwrap();
                    meta.last_recompile
                        .is_none_or(|t| t.elapsed() >= self.config.cooldown)
                };
                if budget == 0 || !cooled {
                    report.deferred += 1;
                } else {
                    budget -= 1;
                    report.recompiles += 1;
                    entry.meta.lock().unwrap().last_recompile = Some(Instant::now());
                    let swapped =
                        self.recompile(&key, &scheme, &entry, generation, agg, agg_epoch);
                    if swapped {
                        report.swaps += 1;
                    } else {
                        report.rollbacks += 1;
                    }
                }
            }
        }
        report.drifted =
            self.units().iter().filter(|u| u.meta.lock().unwrap().drifted).count();
        self.obs.histogram("pgo.sweep_recompiles", report.recompiles as f64);
        report
    }

    /// Rebuilds one unit against the aggregate snapshot and publishes it
    /// via CAS. Returns true when the new unit swapped in; any failure —
    /// panic, pipeline error, verifier/oracle reject, stale generation —
    /// leaves the serving copy untouched and counts a rollback.
    fn recompile(
        &self,
        key: &StoreKey,
        scheme_name: &str,
        entry: &UnitEntry,
        observed_gen: u64,
        profiles: ProfilePair,
        epoch: u64,
    ) -> bool {
        let (bench_name, scale, kind) = (key.bench, key.scale, key.kind.expect("a unit's kind"));
        let name = format!("{bench_name}/{scale}/{scheme_name}/{kind}");
        self.recompiles.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let fault = self.config.fault;
        let obs = self.obs.clone();
        let built = catch_unwind(AssertUnwindSafe(|| {
            build_unit(bench_name, scale, scheme_name, profiles, epoch, fault, &obs)
        }));
        self.in_flight.fetch_sub(1, Ordering::Relaxed);

        let outcome = match built {
            Ok(Ok(unit)) => match entry.slot.swap_if(observed_gen, unit) {
                SwapOutcome::Swapped(generation) => {
                    self.obs.log(Level::Info, || {
                        format!("pgo: {name} hot-swapped (generation {generation}, epoch {epoch})")
                    });
                    // The unit now holds the snapshot's pair.
                    self.store.refresh(key);
                    "swapped"
                }
                SwapOutcome::Stale(_) => "stale",
            },
            Ok(Err(message)) => {
                self.obs.log(Level::Warn, || format!("pgo: {name} recompile rejected: {message}"));
                "rejected"
            }
            Err(_) => {
                self.obs.log(Level::Warn, || format!("pgo: {name} recompile panicked (contained)"));
                "panicked"
            }
        };
        self.obs
            .counter_labeled("pgo.recompiles", &[("outcome", outcome)], 1);
        if outcome == "swapped" {
            self.swaps.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.rollbacks.fetch_add(1, Ordering::Relaxed);
            self.obs.counter("pgo.rollbacks", 1);
            false
        }
    }
}

/// Fault seed of [`PgoFault::Corrupt`] recompiles.
const CORRUPT_SEED: u64 = 0xD81F;

/// Compiles `(bench, scale, scheme)` against the given profiles behind the
/// strict guard (verifier + differential oracle on the training input),
/// through [`runner::compile`] — the path request-path compiles take, so a
/// recompiled `Px4` unit inlines exactly as the one it replaces. Runs
/// inside the caller's `catch_unwind`.
fn build_unit(
    bench_name: &str,
    scale: u32,
    scheme_name: &str,
    profiles: ProfilePair,
    epoch: u64,
    fault: PgoFault,
    obs: &Obs,
) -> Result<ServingUnit, String> {
    if fault == PgoFault::Panic {
        panic!("pgo: injected recompile panic");
    }
    let scheme: Scheme =
        Scheme::parse(scheme_name).ok_or_else(|| format!("no scheme `{scheme_name}`"))?;
    let bench = benchmark_by_name(bench_name, Scale(scale))
        .ok_or_else(|| format!("no benchmark `{bench_name}`"))?;
    let mut config = RunConfig::paper();
    config.guard.mode = GuardMode::Strict;
    // The injector probes the whole program, so a corrupt recompile takes
    // the hooked guard (oracle settled after every procedure).
    config.fault_seed = (fault == PgoFault::Corrupt).then_some(CORRUPT_SEED);
    let (edge, path) = &*profiles;
    let compiled =
        runner::compile(&bench, scheme, edge, path, &config, obs).map_err(|e| e.to_string())?;
    let stats = &compiled.guarded.stats;
    let report = format!(
        "pps-compile-report v1\n\
         bench {bench_name} scheme {scheme}\n\
         superblocks {superblocks}\n\
         static_after {after}\n\
         epoch {epoch}\n",
        scheme = scheme.name(),
        superblocks = stats.superblocks,
        after = stats.static_after,
    );
    Ok(ServingUnit { profiles, report, epoch })
}

impl PgoState {
    /// Folds a profile pair that a request carried into the live aggregate
    /// of `(bench, scale, kind)`. Every carried pair is merged.
    pub fn publish(&self, bench: &'static str, scale: u32, kind: ProfileKind, pair: &ProfilePair) {
        self.fold(StoreKey { bench, scale, kind: Some(kind) }, pair, false);
    }

    /// Folds the pair the server trained for `(bench, scale, kind)` into
    /// that aggregate, once: training is deterministic, so later copies
    /// would add no information and only dilute what clients carried.
    /// Returns the copy the aggregate keeps, equal to `pair`, for the units
    /// compiled against it to share.
    pub fn publish_trained(
        &self,
        bench: &'static str,
        scale: u32,
        kind: ProfileKind,
        pair: &ProfilePair,
    ) -> ProfilePair {
        self.fold(StoreKey { bench, scale, kind: Some(kind) }, pair, true)
    }

    /// Folds `pair` into the aggregate of `key`; returns the server's
    /// pair as the aggregate keeps it when `trained`, else `pair`.
    fn fold(&self, key: StoreKey, pair: &ProfilePair, trained: bool) -> ProfilePair {
        let mut skipped = None;
        let mut kept = Arc::clone(pair);
        let own = trained.then(|| Arc::clone(pair));
        let merged = self.store.update(&key, |entry| match &mut entry.aggregate {
            None => {
                let pair = Arc::clone(pair);
                entry.aggregate = Some(Aggregate { pair, samples: 1, epoch: 1, trained: own });
                true
            }
            Some(Aggregate { trained: Some(kept_own), .. }) if trained => {
                kept = Arc::clone(kept_own);
                false
            }
            // A different collection depth (or a shape change) makes the
            // pair unmergeable; count and skip rather than poison the
            // aggregate.
            Some(agg) => {
                match (merge_edges(&agg.pair.0, &pair.0), merge_paths(&agg.pair.1, &pair.1)) {
                    (Ok(e), Ok(p)) => {
                        agg.pair = Arc::new((e, p));
                        agg.samples += 1;
                        agg.epoch += 1;
                        agg.trained = agg.trained.take().or(own);
                        true
                    }
                    (_, Err(e)) | (Err(e), _) => {
                        skipped = Some(e);
                        false
                    }
                }
            }
        });
        if let Some(e) = skipped {
            self.obs.counter("pgo.merges_skipped", 1);
            self.obs.log(Level::Debug, || {
                format!("pgo: skipped unmergeable profile for {}: {e}", key.bench)
            });
        }
        if merged {
            self.profiles_merged.fetch_add(1, Ordering::Relaxed);
            self.obs.counter("pgo.profiles_merged", 1);
        }
        kept
    }

    /// Registers the unit `(bench, scale, scheme, kind)`, compiled against
    /// `pair` of profile kind `kind`, for drift tracking: the pair's path
    /// profile is the reference drift is measured from, against the
    /// aggregate of `kind`. `scheme` is the canonical name. A unit already
    /// tracked keeps its serving copy.
    pub fn observe_unit(
        &self,
        bench: &'static str,
        scale: u32,
        scheme: &str,
        kind: ProfileKind,
        pair: &ProfilePair,
    ) {
        let key = StoreKey { bench, scale, kind: Some(kind) };
        let added = self.store.update(&key, |entry| {
            if entry.units.contains_key(scheme) {
                return false;
            }
            // The request path already compiled (and replied with) this
            // unit; the tier only needs its drift reference.
            let unit = ServingUnit { profiles: Arc::clone(pair), report: String::new(), epoch: 0 };
            let meta = UnitMeta { drifted: false, scored_at: None, last_recompile: None };
            let unit = UnitEntry { slot: SwapSlot::new(unit), meta: Mutex::new(meta) };
            entry.units.insert(scheme.to_string(), Arc::new(unit));
            true
        });
        if added {
            self.obs.counter("pgo.units_observed", 1);
        }
    }
}

/// The background sweeper: runs [`PgoState::sweep`] every
/// [`PgoConfig::interval`] until shut down.
pub struct PgoRuntime {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl PgoRuntime {
    /// Starts the sweeper thread.
    pub fn start(state: Arc<PgoState>) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let interval = state.config.interval;
        let thread = std::thread::Builder::new()
            .name("pps-pgo-sweeper".into())
            .spawn(move || {
                let (lock, cvar) = &*flag;
                loop {
                    {
                        let mut stopped = lock.lock().unwrap();
                        while !*stopped {
                            let (guard, timeout) =
                                cvar.wait_timeout(stopped, interval).unwrap();
                            stopped = guard;
                            if timeout.timed_out() {
                                break;
                            }
                        }
                        if *stopped {
                            return;
                        }
                    }
                    state.sweep();
                }
            })
            .expect("spawn pgo sweeper");
        PgoRuntime { stop, thread: Some(thread) }
    }

    /// Stops the sweeper and waits for any in-flight sweep to finish.
    /// Because publication is a single CAS, no half-swapped unit can
    /// survive this join.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if let Some(thread) = self.thread.take() {
            let (lock, cvar) = &*self.stop;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
            let _ = thread.join();
        }
    }
}

impl Drop for PgoRuntime {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ProfileText, Request, Response};
    use crate::service::execute;
    use pps_profile::serialize::{edge_to_text, path_to_text};
    use pps_profile::DEFAULT_PATH_DEPTH;

    /// The `superblocks` and `static_after` lines of a compile report.
    fn shape(report: &str) -> Vec<&str> {
        report
            .lines()
            .filter(|l| l.starts_with("superblocks ") || l.starts_with("static_after "))
            .collect()
    }

    /// A recompile runs the request path's compile, so against the same
    /// profile pair it builds the same unit under every scheme — `Px4`
    /// included, whose inline phase recompiles once skipped.
    #[test]
    fn recompiles_build_what_request_path_compiles_build() {
        let bench = benchmark_by_name("eqn", Scale(1)).expect("eqn");
        let (edge, path) =
            runner::train(&bench.program, &bench.train_args, DEFAULT_PATH_DEPTH, None)
                .expect("train run")
                .into_pair();
        let config = RunConfig::paper();
        let outcome = runner::compile(&bench, Scheme::PX4, &edge, &path, &config, &Obs::noop())
            .expect("Px4 compile")
            .inline
            .expect("Px4 runs the inline phase");
        assert!(!outcome.inlined.is_empty(), "eqn must exercise the inline phase");

        let profile = ProfileText { edge: edge_to_text(&edge), path: path_to_text(&path) };
        for scheme in Scheme::FAMILY {
            let request = Request::Compile {
                bench: "eqn".into(),
                scale: 1,
                scheme: scheme.name(),
                profile: Some(profile.clone()),
            };
            let reply = execute(&request, &Obs::noop(), None, None);
            let Response::Compile { report } = reply else {
                panic!("{}: compile failed: {reply:?}", scheme.name())
            };
            let pair = Arc::new((edge.clone(), path.clone()));
            let unit = build_unit("eqn", 1, &scheme.name(), pair, 1, PgoFault::None, &Obs::noop())
                .expect("recompile");
            assert_eq!(shape(&unit.report), shape(&report), "{}", scheme.name());
        }
    }
}
