//! Bounded, content-addressed caching of compile artifacts.
//!
//! Every `Compile`/`RunCell` reply is a pure function of the request, and
//! the request's semantic content is captured by its [`ArtifactKey`] —
//! canonical program hash, canonical profile hash, scheme, machine hash
//! ([`machine_hash`]) — plus the residual request class (which benchmark
//! cell and guard mode selected the oracle/measurement inputs).
//! [`CompileCache`] memoizes replies under exactly that identity: a hit
//! returns the `Arc`'d reply whose encoding is byte-identical to
//! re-running the pipeline, because the key pins every input the pipeline
//! reads.
//!
//! # Coherence with PGO hot-swap
//!
//! The continuous-PGO loop recompiles drifted units in the background and
//! swaps them in atomically. Each `(bench, scale, scheme)` group carries
//! an *epoch* here; a successful hot-swap bumps it
//! ([`CompileCache::invalidate_group`]), which eagerly drops the group's
//! entries and lazily rejects any stragglers on lookup — so a unit that
//! drifted is never served from cache across a swap. (Replies are pure,
//! so this is a freshness guarantee, not a correctness patch: the next
//! miss recompiles against the same key and produces the same bytes.)
//!
//! Eviction is LRU over a fixed entry budget; counters (hits, misses,
//! evictions, invalidations) feed `/metrics`, `/health`, and the minor-3
//! Pong snapshot.
//!
//! # The memo of trained state
//!
//! Computing a key is most of a request's cost: building the benchmark,
//! training its profiles and hashing them. Beside the replies, the cache
//! therefore memoizes that deterministic state per [`MemoKey`] —
//! `(bench, scale, profile kind)` — as a [`Prepared`]: the built
//! benchmark, its program hash, the trained pair, the artifact profile
//! hash and the oracle baseline ([`CompileCache::prepared`]). A reply-cache
//! hit is one memo lookup plus [`CompileCache::get`]; a miss compiles
//! against the memo's pair and baseline. Entries are filled single-flight
//! (`pps_eval::runner::get_or_insert`), the kinds of one benchmark and
//! scale share its built benchmark and baseline, and a PGO hot-swap leaves
//! the memo alone (training does not change). With the cache off
//! (`--cache-cap 0`) there is no memo either.
//!
//! The memo holds at most [`MEMO_CAPACITY`] (64) entries, least recently
//! used out first: every key of every suite benchmark at one scale (a
//! `Profile` at any depth but the default is not memoized). Its worst case
//! at one scale is therefore every key resident, measured as live heap on
//! the suite: about 32 MB at scale 1 and 102 MB at scale 4. Both are
//! dominated by `gcc`'s depth-15 path profile (21 MB and 80 MB), which a
//! request without the memo builds too, but holds only while it runs.
//! Serving the 8 benchmarks × 2 kinds of perfbench's `serve-hot` takes
//! about 6 MB.

use crate::proto::{HealthSnapshot, Response};
use pps_core::{OracleBaseline, Scheme};
use pps_eval::runner::{get_or_insert, ProfilePair, Slot};
use pps_ir::hash::Fold;
use pps_machine::{LatencyModel, MachineConfig};
use pps_profile::DEFAULT_PATH_DEPTH;
use pps_suite::Benchmark;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Canonical hash of a machine model. Folds every field that affects
/// scheduling or timing, so any config change yields a new artifact
/// identity.
pub fn machine_hash(m: &MachineConfig) -> u64 {
    let mut f = Fold::new();
    f.u64(m.issue_width as u64)
        .u64(m.control_per_cycle as u64)
        .u32(m.num_registers)
        .tag(match m.latency {
            LatencyModel::Unit => 0,
            LatencyModel::Realistic => 1,
        })
        .u64(m.icache.size_bytes as u64)
        .u64(m.icache.line_bytes as u64)
        .u64(m.icache.miss_penalty)
        .u64(m.icache.instr_bytes as u64);
    f.finish()
}

/// The content address of one compile artifact.
///
/// A key is stable across processes and machines: every component is a
/// canonical content hash (or the scheme's canonical name), never a
/// process-local nonce. [`CompileCache`] keys on it, and the shard router
/// places it on the consistent-hash ring via [`ArtifactKey::route_hash`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey {
    /// Canonical structural hash of the program.
    pub program_hash: u64,
    /// Canonical hash of the training profile(s).
    pub profile_hash: u64,
    /// Formation scheme name (`BB`, `M4`, `P4`, `P4e`, …).
    pub scheme: String,
    /// Canonical hash of the machine model.
    pub machine_hash: u64,
}

impl ArtifactKey {
    /// Builds a key from already-computed component hashes.
    pub fn new(
        program_hash: u64,
        profile_hash: u64,
        scheme: impl Into<String>,
        machine_hash: u64,
    ) -> Self {
        ArtifactKey { program_hash, profile_hash, scheme: scheme.into(), machine_hash }
    }

    /// One 64-bit digest of the whole key: the value consistent-hash
    /// routing and cache bucketing use. Folds all four components
    /// order-sensitively.
    pub fn route_hash(&self) -> u64 {
        let mut f = Fold::new();
        f.u64(self.program_hash)
            .u64(self.profile_hash)
            .str(&self.scheme)
            .u64(self.machine_hash);
        f.finish()
    }
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}-{:016x}-{}-{:016x}",
            self.program_hash, self.profile_hash, self.scheme, self.machine_hash
        )
    }
}

/// Default entry budget of the daemon's cache.
pub const DEFAULT_CAPACITY: usize = 128;

/// Entry budget of the memo of trained state ([`CompileCache::prepared`]):
/// every key of every suite benchmark at one scale (14 benchmarks × 4
/// kinds: untrained, depth 15, k = 2 and k = 3).
pub const MEMO_CAPACITY: usize = 64;

/// Which profile a training run collects: a path profile of `depth`, from
/// the general-path profiler (`k: None`) or derived from a k-iteration
/// run. The memo and the PGO aggregates are keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKind {
    /// Path-profile depth.
    pub depth: usize,
    /// k-iteration bound (`Pk*` schemes), `None` for the general profiler.
    pub k: Option<u32>,
}

impl ProfileKind {
    /// The kind `scheme` trains, at [`DEFAULT_PATH_DEPTH`]; `None` for a
    /// scheme that reads no profile (`BB`).
    pub fn of(scheme: Scheme) -> Option<ProfileKind> {
        scheme
            .needs_profile()
            .then(|| ProfileKind { depth: DEFAULT_PATH_DEPTH, k: scheme.kpath_k() })
    }
}

/// Key of one memo entry: a benchmark at a scale, trained for one profile
/// kind or (`kind: None`) not trained at all.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Benchmark name, as the suite spells it.
    pub bench: &'static str,
    /// Suite scale.
    pub scale: u32,
    /// Profile kind trained, if any.
    pub kind: Option<ProfileKind>,
}

/// The deterministic per-request state of one [`MemoKey`]: what every
/// `Compile`/`RunCell`/`Profile` of it would otherwise rebuild.
#[derive(Debug)]
pub struct Prepared {
    /// The built benchmark.
    pub bench: Arc<Benchmark>,
    /// Canonical structural hash of its program.
    pub program_hash: u64,
    /// Its bounded oracle baseline on the training input, which the guard
    /// and the `Px4` inliner reuse instead of running their own.
    pub baseline: Arc<OracleBaseline>,
    /// The trained `(edge, path)` pair; `None` for an untrained key.
    pub pair: Option<ProfilePair>,
    /// The artifact profile hash of the training run (the pair's, or the
    /// triple's for a k-iteration run), or of empty profiles when untrained.
    pub profile_hash: u64,
}

/// Which request class produced (and may reuse) a cached artifact. Two
/// classes never share entries even under an equal [`ArtifactKey`]: the
/// reply shapes differ, and `RunCell` additionally folds the guard mode
/// into the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheClass {
    /// A `Compile` request (report reply).
    Compile,
    /// A `RunCell` request with the given strict flag (metrics reply).
    RunCell {
        /// Guard mode the cell ran under.
        strict: bool,
    },
}

/// Full cache key: the content address plus the request class and the
/// benchmark cell it was computed for. `bench`/`scale` select the
/// training/oracle inputs, which the ArtifactKey's program hash does not
/// cover by construction (it hashes the program, not the suite row).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content address of the artifact.
    pub artifact: ArtifactKey,
    /// Request class.
    pub class: CacheClass,
    /// Benchmark name.
    pub bench: String,
    /// Suite scale.
    pub scale: u32,
}

impl CacheKey {
    fn group(&self) -> GroupKey {
        GroupKey {
            bench: self.bench.clone(),
            scale: self.scale,
            scheme: self.artifact.scheme.clone(),
        }
    }
}

/// The invalidation granule: the PGO tier tracks serving units per
/// `(bench, scale, scheme)`, so that is what a hot-swap invalidates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    bench: String,
    scale: u32,
    scheme: String,
}

#[derive(Debug)]
struct Entry {
    response: Arc<Response>,
    epoch: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<CacheKey, Entry>,
    epochs: HashMap<GroupKey, u64>,
    tick: u64,
}

/// The memo's entries and their last-use ticks.
#[derive(Debug, Default)]
struct Memo {
    slots: Mutex<HashMap<MemoKey, Slot<Arc<Prepared>>>>,
    /// `(tick, last use per key)`, for LRU eviction.
    used: Mutex<(u64, HashMap<MemoKey, u64>)>,
    fills: AtomicU64,
}

/// A bounded LRU of compile artifacts keyed by content, beside a bounded
/// memo of the trained state the keys are computed from. Shared across
/// worker threads behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct CompileCache {
    capacity: usize,
    inner: Mutex<Inner>,
    memo: Memo,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl CompileCache {
    /// A cache bounded at `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CompileCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            memo: Memo::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The entry budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`. A current-epoch entry is a hit; an entry stranded
    /// behind an epoch bump is dropped and counted as both an
    /// invalidation and a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Response>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let current = inner.epochs.get(&key.group()).copied().unwrap_or(0);
        match inner.entries.get_mut(key) {
            Some(e) if e.epoch == current => {
                e.last_used = tick;
                let r = e.response.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            Some(_) => {
                inner.entries.remove(key);
                drop(inner);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a reply under `key`, stamped with the group's current
    /// epoch. Evicts the least-recently-used entry when the budget is
    /// full. Error replies must not be cached — callers only insert
    /// successful compiles.
    pub fn insert(&self, key: CacheKey, response: Response) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let epoch = inner.epochs.get(&key.group()).copied().unwrap_or(0);
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner
            .entries
            .insert(key, Entry { response: Arc::new(response), epoch, last_used: tick });
    }

    /// Bumps the epoch of `(bench, scale, scheme)` and eagerly drops its
    /// resident entries. Called by the PGO tier when a recompiled unit
    /// hot-swaps in, so a drifted group never serves a pre-swap entry.
    pub fn invalidate_group(&self, bench: &str, scale: u32, scheme: &str) {
        let group = GroupKey { bench: bench.to_string(), scale, scheme: scheme.to_string() };
        let mut inner = self.inner.lock().expect("cache lock");
        *inner.epochs.entry(group.clone()).or_insert(0) += 1;
        let stale: Vec<CacheKey> = inner
            .entries
            .keys()
            .filter(|k| k.group() == group)
            .cloned()
            .collect();
        let dropped = stale.len() as u64;
        for k in stale {
            inner.entries.remove(&k);
        }
        drop(inner);
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// The memo entry of `key`, filled by `fill` on a miss. Single-flight:
    /// a worker wanting an entry that is being filled waits for it.
    /// `fill` gets an entry of the same benchmark and scale when one is
    /// resident, so kinds share one built benchmark and one baseline. At
    /// most [`MEMO_CAPACITY`] entries stay, least recently used out first;
    /// a failed fill leaves none.
    ///
    /// # Errors
    /// `fill`'s error.
    pub fn prepared<E>(
        &self,
        key: &MemoKey,
        fill: impl FnOnce(Option<Arc<Prepared>>) -> Result<Prepared, E>,
    ) -> Result<Arc<Prepared>, E> {
        let memo = &self.memo;
        let filled = get_or_insert(&memo.slots, key.clone(), || {
            let sibling = memo.slots.lock().expect("memo lock").iter().find_map(|(k, slot)| {
                if (k.bench, k.scale) != (key.bench, key.scale) {
                    return None;
                }
                // An entry being filled is locked: skip it rather than wait.
                slot.try_lock().ok()?.clone()
            });
            let prepared = fill(sibling)?;
            memo.fills.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(prepared))
        });
        let mut slots = memo.slots.lock().expect("memo lock");
        let mut used = memo.used.lock().expect("memo lock");
        if filled.is_err() {
            // Unless a waiter has filled it since, the entry stays empty.
            if slots.get(key).is_some_and(|s| s.try_lock().is_ok_and(|v| v.is_none())) {
                slots.remove(key);
            }
            return filled;
        }
        used.0 += 1;
        let tick = used.0;
        used.1.insert(key.clone(), tick);
        while used.1.len() > MEMO_CAPACITY {
            let victim = used.1.iter().min_by_key(|(_, t)| **t).map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            used.1.remove(&victim);
            slots.remove(&victim);
        }
        filled
    }

    /// How many memo entries have been filled (trained, built, hashed):
    /// a repeat of a request whose entry is resident fills none.
    pub fn memo_fills(&self) -> u64 {
        self.memo.fills.load(Ordering::Relaxed)
    }

    /// `(hits, misses, evictions, invalidations, entries)` right now.
    pub fn stats(&self) -> (u64, u64, u64, u64, usize) {
        let entries = self.inner.lock().expect("cache lock").entries.len();
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.invalidations.load(Ordering::Relaxed),
            entries,
        )
    }

    /// Copies the counters into a health snapshot (the minor-3 fields).
    pub fn fill_health(&self, h: &mut HealthSnapshot) {
        let (hits, misses, evictions, invalidations, entries) = self.stats();
        h.cache_hits = hits;
        h.cache_misses = misses;
        h.cache_evictions = evictions;
        h.cache_invalidations = invalidations;
        h.cache_entries = entries as u32;
    }
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_machine::ICacheConfig;

    fn key(n: u64, scheme: &str) -> CacheKey {
        CacheKey {
            artifact: ArtifactKey::new(n, n + 1, scheme, 7),
            class: CacheClass::Compile,
            bench: "wc".into(),
            scale: 1,
        }
    }

    fn reply(s: &str) -> Response {
        Response::Compile { report: s.to_string() }
    }

    #[test]
    fn hit_returns_the_inserted_reply() {
        let cache = CompileCache::new(4);
        let k = key(1, "P4");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), reply("r1"));
        assert_eq!(*cache.get(&k).unwrap(), reply("r1"));
        let (hits, misses, ..) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn classes_do_not_collide() {
        let cache = CompileCache::new(4);
        let compile = key(1, "P4");
        let runcell = CacheKey { class: CacheClass::RunCell { strict: true }, ..compile.clone() };
        cache.insert(compile.clone(), reply("compile"));
        assert!(cache.get(&runcell).is_none());
        let lax = CacheKey { class: CacheClass::RunCell { strict: false }, ..runcell.clone() };
        cache.insert(runcell.clone(), reply("strict"));
        assert!(cache.get(&lax).is_none(), "strict flag is part of the identity");
        assert_eq!(*cache.get(&compile).unwrap(), reply("compile"));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = CompileCache::new(2);
        let (a, b, c) = (key(1, "P4"), key(2, "P4"), key(3, "P4"));
        cache.insert(a.clone(), reply("a"));
        cache.insert(b.clone(), reply("b"));
        let _ = cache.get(&a); // warm `a`, leaving `b` coldest
        cache.insert(c.clone(), reply("c"));
        assert!(cache.get(&b).is_none(), "b was evicted");
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&c).is_some());
        let (.., evictions, _, entries) = cache.stats();
        assert_eq!(evictions, 1);
        assert_eq!(entries, 2);
    }

    #[test]
    fn swap_invalidation_drops_the_group_and_only_the_group() {
        let cache = CompileCache::new(8);
        let p4 = key(1, "P4");
        let m4 = key(1, "M4");
        cache.insert(p4.clone(), reply("p4"));
        cache.insert(m4.clone(), reply("m4"));
        cache.invalidate_group("wc", 1, "P4");
        assert!(cache.get(&p4).is_none(), "swapped group no longer serves");
        assert!(cache.get(&m4).is_some(), "other schemes untouched");
        let (_, _, _, invalidations, _) = cache.stats();
        assert_eq!(invalidations, 1);
        // Re-inserting after the bump serves again at the new epoch.
        cache.insert(p4.clone(), reply("p4'"));
        assert_eq!(*cache.get(&p4).unwrap(), reply("p4'"));
    }

    #[test]
    fn entry_inserted_before_bump_is_rejected_lazily_too() {
        let cache = CompileCache::new(8);
        let k = key(9, "P4e");
        cache.insert(k.clone(), reply("old"));
        // Simulate the bump racing ahead of eager cleanup by re-inserting
        // at the old epoch: epoch mismatch must reject on lookup.
        {
            let mut inner = cache.inner.lock().unwrap();
            let group = k.group();
            *inner.epochs.entry(group).or_insert(0) += 1;
        }
        assert!(cache.get(&k).is_none(), "stale epoch never serves");
    }

    #[test]
    fn fill_health_reports_counters() {
        let cache = CompileCache::new(2);
        let k = key(1, "BB");
        let _ = cache.get(&k);
        cache.insert(k.clone(), reply("x"));
        let _ = cache.get(&k);
        let mut h = HealthSnapshot::default();
        cache.fill_health(&mut h);
        assert_eq!(h.cache_hits, 1);
        assert_eq!(h.cache_misses, 1);
        assert_eq!(h.cache_entries, 1);
    }

    #[test]
    fn memo_is_a_bounded_lru_that_keeps_no_failed_fill() {
        let bench = Arc::new(pps_suite::micro::alt(pps_suite::Scale(1)));
        let baseline = Arc::new(OracleBaseline::compute(&bench.program, &[], 1));
        let prepared = || Prepared {
            bench: Arc::clone(&bench),
            program_hash: 1,
            baseline: Arc::clone(&baseline),
            pair: None,
            profile_hash: 2,
        };
        let key = |scale| MemoKey { bench: "alt", scale, kind: None };
        let cache = CompileCache::new(1);

        // A failed fill leaves no entry behind: the next lookup fills.
        assert!(cache.prepared(&key(0), |_| Err::<Prepared, _>("no")).is_err());
        assert_eq!(cache.memo_fills(), 0);
        for scale in 0..MEMO_CAPACITY as u32 {
            cache.prepared(&key(scale), |_| Ok::<_, ()>(prepared())).unwrap();
        }
        assert_eq!(cache.memo_fills(), MEMO_CAPACITY as u64);

        // Touch key 0, so key 1 is the least recently used; one more key
        // evicts it and only it.
        cache.prepared::<()>(&key(0), |_| panic!("resident entry refilled")).unwrap();
        cache.prepared(&key(MEMO_CAPACITY as u32), |_| Ok::<_, ()>(prepared())).unwrap();
        cache.prepared::<()>(&key(0), |_| panic!("resident entry refilled")).unwrap();
        let fills = cache.memo_fills();
        cache.prepared(&key(1), |_| Ok::<_, ()>(prepared())).unwrap();
        assert_eq!(cache.memo_fills(), fills + 1, "the evicted entry fills again");

        // Another kind of a resident benchmark and scale is filled from it.
        let kind = Some(ProfileKind { depth: DEFAULT_PATH_DEPTH, k: Some(2) });
        let trained = MemoKey { bench: "alt", scale: 0, kind };
        let got = cache
            .prepared(&trained, |sibling| sibling.map(|_| prepared()).ok_or("no sibling"))
            .unwrap();
        assert!(Arc::ptr_eq(&got.bench, &bench));
    }

    #[test]
    fn machine_hash_covers_every_field() {
        let base = MachineConfig::paper();
        let h = machine_hash(&base);
        let variants = [
            MachineConfig { issue_width: 4, ..base },
            MachineConfig { control_per_cycle: 2, ..base },
            MachineConfig { num_registers: 64, ..base },
            MachineConfig { latency: LatencyModel::Realistic, ..base },
            MachineConfig {
                icache: ICacheConfig { size_bytes: 64 * 1024, ..base.icache },
                ..base
            },
            MachineConfig {
                icache: ICacheConfig { miss_penalty: 12, ..base.icache },
                ..base
            },
        ];
        for v in &variants {
            assert_ne!(machine_hash(v), h, "field change must change the hash: {v:?}");
        }
        assert_eq!(machine_hash(&base), h, "hash is deterministic");
    }

    #[test]
    fn route_hash_distinguishes_components() {
        let k = ArtifactKey::new(1, 2, "P4", 3);
        assert_ne!(k.route_hash(), ArtifactKey::new(2, 1, "P4", 3).route_hash());
        assert_ne!(k.route_hash(), ArtifactKey::new(1, 2, "P4e", 3).route_hash());
        assert_ne!(k.route_hash(), ArtifactKey::new(1, 2, "P4", 4).route_hash());
        assert_eq!(k.route_hash(), k.clone().route_hash());
    }

    #[test]
    fn display_is_compact_and_ordered() {
        let k = ArtifactKey::new(0xAB, 0xCD, "M16", 0xEF);
        let s = k.to_string();
        assert!(s.starts_with("00000000000000ab-00000000000000cd-M16-"));
    }
}
