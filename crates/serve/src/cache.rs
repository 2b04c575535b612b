//! The daemon's one store of per-artifact state, bounded by bytes.
//!
//! [`CompileCache`] holds everything the daemon keeps between requests, in
//! one entry per [`StoreKey`] — `(bench, scale, profile kind)`, the kind
//! `None` for requests that train nothing (`BB`, or a carried profile):
//!
//! - **the memo** ([`CompileCache::prepared`]): the built benchmark, its
//!   program hash, the trained pair, the artifact profile hash and the
//!   oracle baseline, as a [`Prepared`]. Computing these is most of a
//!   request's cost. A worker fills an entry's memo once (single-flight),
//!   from a resident entry of the same benchmark and scale when there is
//!   one, so kinds share one build and one baseline;
//! - **the PGO aggregate** of the key's kind and **the PGO units**
//!   compiled against it, by scheme ([`crate::pgo`]);
//! - **the replies** computed against the key. Every `Compile`/`RunCell`
//!   reply is a pure function of the request, whose semantic content is
//!   its [`ArtifactKey`] — canonical program hash, canonical profile hash,
//!   scheme, machine hash ([`machine_hash`]) — plus its request class
//!   ([`CacheKey`]) and the entry's benchmark and scale, which select the
//!   oracle and measurement inputs. A hit returns the `Arc`'d reply, whose
//!   encoding is byte-identical to re-running the pipeline.
//!
//! A hot-swap changes none of this: no request reads a swapped unit, so a
//! stored reply stays the bytes a recompute would give.
//!
//! # One bound
//!
//! Each entry measures the bytes it retains whenever it is filled or
//! grows: its maps, every distinct profile pair once, from the profiles'
//! own vectors, the units and the replies. The memo's benchmark (code with
//! its operand lists, data and inputs) and its baseline (inputs, outputs
//! and memory image) are shared by the kinds of one benchmark and scale,
//! one `Arc` each; they are measured once, when the memo is filled, and the
//! store counts each of them once across all entries, plus its own entry
//! map. Over [`STORE_BUDGET`] bytes, or over its
//! reply capacity (`--cache-cap`), the store evicts whole entries, least
//! recently used first, dropping a key's memo, aggregate, units and replies
//! together. An entry larger than the whole budget serves its request and
//! is not kept. With capacity 0 the daemon keeps no replies and no memo,
//! only PGO state.
//!
//! Every key of every suite benchmark (14 × untrained, depth 15, k = 2 and
//! k = 3) accounts 32.5 MB at scale 1, within the live heap a counting
//! allocator sees (`tests/budget.rs`). That is dominated by
//! `gcc`'s depth-15 path profile (21 MB), which a request without the store
//! builds too, but holds only while it runs. Counters (hits,
//! misses, evictions, resident replies) feed `/metrics`, `/health` and the
//! Pong snapshot.

use crate::pgo::{Aggregate, ServingUnit, UnitEntry};
use crate::proto::{HealthSnapshot, Response};
use pps_core::{OracleBaseline, Scheme};
use pps_eval::runner::ProfilePair;
use pps_ir::hash::Fold;
use pps_ir::{Block, BlockId, Instr, Operand, Proc, Terminator};
use pps_machine::{LatencyModel, MachineConfig};
use pps_profile::{EdgeProfile, PathProfile, DEFAULT_PATH_DEPTH};
use pps_suite::Benchmark;
use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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
/// process-local nonce. [`CompileCache`] keys on it.
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
}

/// Default reply budget of the daemon's store (`--cache-cap`).
pub const DEFAULT_CAPACITY: usize = 128;

/// Retained-byte budget of the store ([`CompileCache::new`]), as its
/// entries account themselves: every key of every suite benchmark at
/// scale 4 fits.
pub const STORE_BUDGET: usize = 160 << 20;

/// Which profile a training run collects: a path profile of `depth`, from
/// the general-path profiler (`k: None`) or derived from a k-iteration
/// run. Store keys, and so the memo, the PGO aggregates and units, are
/// keyed by it.
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

/// `d15`, or `d15k2` for a k-iteration kind, as log lines name it.
impl fmt::Display for ProfileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.depth)?;
        match self.k {
            Some(k) => write!(f, "k{k}"),
            None => Ok(()),
        }
    }
}

/// Key of one store entry: a benchmark at a scale and the profile kind its
/// state was trained, carried or aggregated as, or (`kind: None`) none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Benchmark name, as the suite spells it.
    pub bench: &'static str,
    /// Suite scale.
    pub scale: u32,
    /// Profile kind trained, if any.
    pub kind: Option<ProfileKind>,
}

/// The deterministic per-request state of one [`StoreKey`]: what every
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

/// Key of one reply within its store entry: the content address plus the
/// request class. The entry's [`StoreKey`] supplies the benchmark and
/// scale, which select the training and oracle inputs the program hash
/// does not cover.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content address of the artifact.
    pub artifact: ArtifactKey,
    /// Request class.
    pub class: CacheClass,
}

/// Everything the store holds under one [`StoreKey`]; evicted as a whole.
#[derive(Default)]
pub(crate) struct Entry {
    /// The memo's state, once filled.
    memo: Option<Arc<Prepared>>,
    /// Held while the memo is filled, so one worker fills it.
    filling: Arc<Mutex<()>>,
    /// The PGO aggregate of this key's kind.
    pub(crate) aggregate: Option<Aggregate>,
    /// PGO units compiled against this key's kind, by canonical scheme.
    pub(crate) units: HashMap<String, Arc<UnitEntry>>,
    replies: HashMap<CacheKey, Arc<Response>>,
    /// What [`Entry::measure`] last counted.
    bytes: usize,
    /// Bytes of the memo's benchmark and of its baseline, which the kinds
    /// of one benchmark and scale share; measured once, when it is filled.
    shared: [usize; 2],
    last_used: u64,
}

impl Entry {
    /// Bytes the entry retains of its own: its fill lock, memo and maps,
    /// each distinct profile pair of the memo, the aggregate and the units
    /// once, the units and the replies with their keys. The memo's
    /// benchmark and baseline, which the kinds of one benchmark and scale
    /// share, the store counts once ([`Inner::bytes`]).
    fn measure(&self) -> usize {
        let mut pairs: Vec<ProfilePair> = Vec::new();
        let memo_pair = self.memo.as_ref().and_then(|m| m.pair.clone());
        let aggregate = self.aggregate.iter().flat_map(|a| [Some(&a.pair), a.trained.as_ref()]);
        let aggregate = aggregate.flatten().cloned();
        let unit_pairs = self.units.values().map(|u| Arc::clone(&u.slot.load().1.profiles));
        for pair in memo_pair.into_iter().chain(aggregate).chain(unit_pairs) {
            if !pairs.iter().any(|p| Arc::ptr_eq(p, &pair)) {
                pairs.push(pair);
            }
        }
        let pair = |p: &ProfilePair| p.0.heap_bytes() + p.1.heap_bytes();
        let profiles = pairs.len() * arc::<(EdgeProfile, PathProfile)>()
            + pairs.iter().map(pair).sum::<usize>();
        let units = self.units.iter().map(|(scheme, u)| {
            let report = u.slot.load().1.report.capacity();
            scheme.capacity() + arc::<UnitEntry>() + arc::<ServingUnit>() + report
        });
        let replies = self.replies.iter().map(|(key, r)| {
            let text = match &**r {
                Response::Compile { report: text } | Response::RunCell { metrics_json: text } => {
                    text.capacity()
                }
                _ => 0,
            };
            key.artifact.scheme.capacity() + arc::<Response>() + text
        });
        let memo = if self.memo.is_some() { arc::<Prepared>() } else { 0 };
        arc::<Mutex<()>>()
            + memo
            + map_bytes(&self.units)
            + map_bytes(&self.replies)
            + profiles
            + units.sum::<usize>()
            + replies.sum::<usize>()
    }

    /// What the entry would retain alone: its own bytes, its memo's
    /// shared ones and its slot in the store's map.
    fn alone(&self) -> usize {
        self.bytes + self.shared.iter().sum::<usize>() + size_of::<(StoreKey, Entry)>() + 1
    }

    fn is_empty(&self) -> bool {
        self.memo.is_none()
            && self.aggregate.is_none()
            && self.units.is_empty()
            && self.replies.is_empty()
    }
}

/// Bytes of the allocation behind an `Arc<T>`: its two counts and `T`.
fn arc<T>() -> usize {
    2 * size_of::<usize>() + size_of::<T>()
}

/// Bytes of a hash map's table: a slot and a control byte per bucket. The
/// map keeps its buckets at most 7/8 full, so it has about `8/7` of its
/// capacity of them.
fn map_bytes<K, V>(map: &HashMap<K, V>) -> usize {
    map.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)
}

/// Bytes of a benchmark in its `Arc`: its procedures, blocks and
/// instructions with their operand and switch-target lists, its data
/// section and its inputs.
fn bench_bytes(bench: &Benchmark) -> usize {
    let block = |b: &Block| {
        let args = b.instrs.iter().map(|i| match i {
            Instr::Call { args, .. } => args.capacity() * size_of::<Operand>(),
            _ => 0,
        });
        let targets = match &b.term {
            Terminator::Switch { targets, .. } => targets.capacity() * size_of::<BlockId>(),
            _ => 0,
        };
        b.instrs.capacity() * size_of::<Instr>() + args.sum::<usize>() + targets
    };
    let program = &bench.program;
    let procs = program.procs.iter().map(|p| {
        let blocks = p.blocks.iter().map(block).sum::<usize>();
        p.name.capacity() + p.blocks.capacity() * size_of::<Block>() + blocks
    });
    let words = program.data.capacity() + bench.train_args.capacity() + bench.test_args.capacity();
    arc::<Benchmark>()
        + program.procs.capacity() * size_of::<Proc>()
        + procs.sum::<usize>()
        + size_of::<i64>() * words
}

/// Bytes of an oracle baseline in its `Arc`.
fn baseline_bytes(baseline: &OracleBaseline) -> usize {
    arc::<OracleBaseline>() + baseline.heap_bytes()
}

#[derive(Default)]
struct Inner {
    entries: HashMap<StoreKey, Entry>,
    tick: u64,
}

impl Inner {
    /// The entry of `key`, created empty if absent, marked most recently
    /// used.
    fn touch(&mut self, key: &StoreKey) -> &mut Entry {
        self.tick += 1;
        let entry = self.entries.entry(*key).or_default();
        entry.last_used = self.tick;
        entry
    }

    /// The entry map, every entry's own bytes, and each distinct benchmark
    /// and baseline of the memos once.
    fn bytes(&self) -> usize {
        let mut benches: Vec<&Arc<Benchmark>> = Vec::new();
        let mut baselines: Vec<&Arc<OracleBaseline>> = Vec::new();
        let mut shared = 0;
        for e in self.entries.values() {
            let Some(memo) = e.memo.as_deref() else { continue };
            if !benches.iter().any(|b| Arc::ptr_eq(b, &memo.bench)) {
                benches.push(&memo.bench);
                shared += e.shared[0];
            }
            if !baselines.iter().any(|b| Arc::ptr_eq(b, &memo.baseline)) {
                baselines.push(&memo.baseline);
                shared += e.shared[1];
            }
        }
        map_bytes(&self.entries) + shared + self.entries.values().map(|e| e.bytes).sum::<usize>()
    }

    fn replies(&self) -> usize {
        self.entries.values().map(|e| e.replies.len()).sum()
    }
}

/// The daemon's one store of per-artifact state, keyed by [`StoreKey`]:
/// per key the memo of trained state, the PGO aggregate and units of its
/// kind, and the replies computed against it. Bounded by accounted bytes
/// and by resident replies; over either bound it evicts whole entries,
/// least recently used first. Shared across worker threads and the PGO
/// sweeper behind an `Arc`; all methods take `&self`.
pub struct CompileCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    fills: AtomicU64,
}

impl CompileCache {
    /// A store holding at most `capacity` replies within [`STORE_BUDGET`]
    /// bytes. At `capacity` 0 [`crate::service::execute`] keeps neither
    /// replies nor a memo in it: only PGO aggregates and units.
    pub fn new(capacity: usize) -> Self {
        CompileCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            fills: AtomicU64::new(0),
        }
    }

    /// The reply budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("store lock")
    }

    /// The reply stored under `reply` in the entry of `key`, counted as a
    /// hit or a miss.
    pub fn get(&self, key: &StoreKey, reply: &CacheKey) -> Option<Arc<Response>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.entries.get_mut(key).and_then(|e| {
            e.last_used = tick;
            e.replies.get(reply).cloned()
        });
        drop(inner);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a reply under `reply` in the entry of `key`. Error replies
    /// must not be stored: callers only insert successful compiles.
    pub fn insert(&self, key: &StoreKey, reply: CacheKey, response: Response) {
        self.update(key, |entry| {
            entry.replies.insert(reply, Arc::new(response));
            true
        });
    }

    /// Runs `f` on the entry of `key` (created empty if absent). When `f`
    /// reports a change the entry is measured again and the store evicts
    /// down to its bounds. Returns what `f` returned.
    pub(crate) fn update(&self, key: &StoreKey, f: impl FnOnce(&mut Entry) -> bool) -> bool {
        let mut inner = self.lock();
        let changed = f(inner.touch(key));
        if changed {
            self.settle(&mut inner, key);
        }
        changed
    }

    /// Measures the entry of `key` again, if it is still resident, and
    /// evicts down to the bounds. The PGO tier calls this after a swap
    /// changed a unit's pair.
    pub(crate) fn refresh(&self, key: &StoreKey) {
        self.settle(&mut self.lock(), key);
    }

    /// Re-measures `key`'s entry, drops it alone if it outgrows the whole
    /// budget, then evicts least recently used entries while the store is
    /// over its byte or reply bound.
    fn settle(&self, inner: &mut Inner, key: &StoreKey) {
        let Some(entry) = inner.entries.get_mut(key) else { return };
        entry.bytes = entry.measure();
        if entry.alone() > STORE_BUDGET {
            inner.entries.remove(key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        while inner.bytes() > STORE_BUDGET || inner.replies() > self.capacity {
            let lru = inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
            let Some(victim) = lru else { break };
            inner.entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Read access to every resident entry, under the store's lock.
    pub(crate) fn with_entries<R>(&self, f: impl FnOnce(&HashMap<StoreKey, Entry>) -> R) -> R {
        f(&self.lock().entries)
    }

    /// The memo state of `key`, filled by `fill` on a miss. Single-flight:
    /// a worker wanting an entry that is being filled waits for it.
    /// `fill` gets the state of the same benchmark and scale when one is
    /// resident, so kinds share one built benchmark and one baseline. A
    /// failed fill leaves nothing behind.
    ///
    /// # Errors
    /// `fill`'s error.
    pub fn prepared<E>(
        &self,
        key: &StoreKey,
        fill: impl FnOnce(Option<Arc<Prepared>>) -> Result<Prepared, E>,
    ) -> Result<Arc<Prepared>, E> {
        let gate = {
            let mut inner = self.lock();
            let entry = inner.touch(key);
            if let Some(memo) = &entry.memo {
                return Ok(Arc::clone(memo));
            }
            Arc::clone(&entry.filling)
        };
        let _filling = gate.lock().expect("memo fill lock");
        let sibling = {
            let inner = self.lock();
            if let Some(memo) = inner.entries.get(key).and_then(|e| e.memo.clone()) {
                return Ok(memo);
            }
            let same = |k: &StoreKey| (k.bench, k.scale) == (key.bench, key.scale);
            inner.entries.iter().find_map(|(k, e)| e.memo.clone().filter(|_| same(k)))
        };
        let filled = fill(sibling).map(Arc::new);
        match &filled {
            Ok(memo) => {
                let shared = [bench_bytes(&memo.bench), baseline_bytes(&memo.baseline)];
                let mut inner = self.lock();
                self.fills.fetch_add(1, Ordering::Relaxed);
                // An entry evicted while it filled is not brought back.
                if let Some(entry) = inner.entries.get_mut(key) {
                    entry.memo = Some(Arc::clone(memo));
                    entry.shared = shared;
                    self.settle(&mut inner, key);
                }
            }
            Err(_) => {
                let mut inner = self.lock();
                if inner.entries.get(key).is_some_and(Entry::is_empty) {
                    inner.entries.remove(key);
                }
            }
        }
        filled
    }

    /// How many memo entries have been filled (trained, built, hashed):
    /// a repeat of a request whose entry is resident fills none.
    pub fn memo_fills(&self) -> u64 {
        self.fills.load(Ordering::Relaxed)
    }

    /// Bytes the resident entries account for.
    pub fn bytes(&self) -> usize {
        self.lock().bytes()
    }

    /// `(hits, misses, evictions, resident replies)` right now.
    pub fn stats(&self) -> (u64, u64, u64, usize) {
        let replies = self.lock().replies();
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            replies,
        )
    }

    /// Copies the counters into a health snapshot (its cache fields).
    pub fn fill_health(&self, h: &mut HealthSnapshot) {
        let (hits, misses, evictions, replies) = self.stats();
        h.cache_hits = hits;
        h.cache_misses = misses;
        h.cache_evictions = evictions;
        h.cache_entries = replies as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_machine::ICacheConfig;

    fn store_key(scale: u32) -> StoreKey {
        StoreKey { bench: "wc", scale, kind: None }
    }

    fn key(n: u64, scheme: &str) -> CacheKey {
        CacheKey { artifact: ArtifactKey::new(n, n + 1, scheme, 7), class: CacheClass::Compile }
    }

    fn reply(s: &str) -> Response {
        Response::Compile { report: s.to_string() }
    }

    #[test]
    fn hit_returns_the_inserted_reply() {
        let cache = CompileCache::new(4);
        let (sk, k) = (store_key(1), key(1, "P4"));
        assert!(cache.get(&sk, &k).is_none());
        cache.insert(&sk, k.clone(), reply("r1"));
        assert_eq!(*cache.get(&sk, &k).unwrap(), reply("r1"));
        assert!(cache.get(&store_key(2), &k).is_none(), "another entry holds no reply");
        let (hits, misses, ..) = cache.stats();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn classes_do_not_collide() {
        let cache = CompileCache::new(4);
        let sk = store_key(1);
        let compile = key(1, "P4");
        let runcell = CacheKey { class: CacheClass::RunCell { strict: true }, ..compile.clone() };
        cache.insert(&sk, compile.clone(), reply("compile"));
        assert!(cache.get(&sk, &runcell).is_none());
        let lax = CacheKey { class: CacheClass::RunCell { strict: false }, ..runcell.clone() };
        cache.insert(&sk, runcell.clone(), reply("strict"));
        assert!(cache.get(&sk, &lax).is_none(), "strict flag is part of the identity");
        assert_eq!(*cache.get(&sk, &compile).unwrap(), reply("compile"));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = CompileCache::new(2);
        let (a, b, c) = (store_key(1), store_key(2), store_key(3));
        let k = key(1, "P4");
        cache.insert(&a, k.clone(), reply("a"));
        cache.insert(&b, k.clone(), reply("b"));
        let _ = cache.get(&a, &k); // warm `a`, leaving `b` coldest
        cache.insert(&c, k.clone(), reply("c"));
        assert!(cache.get(&b, &k).is_none(), "b was evicted");
        assert!(cache.get(&a, &k).is_some());
        assert!(cache.get(&c, &k).is_some());
        let (.., evictions, replies) = cache.stats();
        assert_eq!(evictions, 1);
        assert_eq!(replies, 2);
    }

    #[test]
    fn fill_health_reports_counters() {
        let cache = CompileCache::new(2);
        let (sk, k) = (store_key(1), key(1, "BB"));
        let _ = cache.get(&sk, &k);
        cache.insert(&sk, k.clone(), reply("x"));
        let _ = cache.get(&sk, &k);
        let mut h = HealthSnapshot::default();
        cache.fill_health(&mut h);
        assert_eq!(h.cache_hits, 1);
        assert_eq!(h.cache_misses, 1);
        assert_eq!(h.cache_entries, 1);
    }

    /// A memo of `alt` at scale 1 with a benchmark and baseline of its
    /// own, as a benchmark at another scale has.
    fn own_memo() -> Prepared {
        let bench = pps_suite::micro::alt(pps_suite::Scale(1));
        let inputs = [bench.train_args.clone()];
        let baseline = Arc::new(OracleBaseline::compute(&bench.program, &inputs, 1));
        Prepared { bench: Arc::new(bench), program_hash: 1, baseline, pair: None, profile_hash: 2 }
    }

    #[test]
    fn memo_is_a_bounded_lru_that_keeps_no_failed_fill() {
        let key = |scale| StoreKey { bench: "alt", scale, kind: None };
        let cache = CompileCache::new(1);

        // A failed fill leaves no entry behind: the next lookup fills.
        assert!(cache.prepared(&key(0), |_| Err::<Prepared, _>("no")).is_err());
        assert_eq!(cache.memo_fills(), 0);
        assert!(cache.with_entries(HashMap::is_empty));
        cache.prepared(&key(0), |_| Ok::<_, ()>(own_memo())).unwrap();
        // Each entry counts its benchmark and memory image.
        let one = cache.bytes();
        assert!(one > size_of::<i64>() * own_memo().bench.program.mem_size);

        // Fill further keys, touching key 0 before each, until the store
        // is over its budget: it evicts key 1, the least recently used.
        let mut next = 1;
        while cache.stats().2 == 0 {
            cache.prepared::<()>(&key(0), |_| panic!("resident entry refilled")).unwrap();
            cache.prepared(&key(next), |_| Ok::<_, ()>(own_memo())).unwrap();
            next += 1;
        }
        assert!(cache.bytes() <= STORE_BUDGET);
        assert!(next as usize >= STORE_BUDGET / one, "evicted after {next} of {one} bytes each");
        cache.prepared::<()>(&key(0), |_| panic!("resident entry refilled")).unwrap();
        assert_eq!(cache.stats().2, 1);
        let fills = cache.memo_fills();
        cache.prepared(&key(1), |_| Ok::<_, ()>(own_memo())).unwrap();
        assert_eq!(cache.memo_fills(), fills + 1, "the evicted entry fills again");

        // An entry larger than the whole budget serves its request and is
        // not retained; it evicts nothing else.
        let mut huge = own_memo();
        let mut bench = pps_suite::micro::alt(pps_suite::Scale(1));
        bench.program.data = Vec::with_capacity(STORE_BUDGET / size_of::<i64>());
        huge.bench = Arc::new(bench);
        let (bytes, evictions) = (cache.bytes(), cache.stats().2);
        let huge_bench = Arc::clone(&huge.bench);
        let got = cache.prepared(&key(next), |_| Ok::<_, ()>(huge)).unwrap();
        assert!(Arc::ptr_eq(&got.bench, &huge_bench));
        assert_eq!((cache.bytes(), cache.stats().2), (bytes, evictions + 1));
    }

    #[test]
    fn kinds_of_one_benchmark_share_and_count_its_state_once() {
        let cache = CompileCache::new(1);
        let untrained = StoreKey { bench: "alt", scale: 1, kind: None };
        let memo = cache.prepared(&untrained, |_| Ok::<_, ()>(own_memo())).unwrap();
        let (one, one_map) = (cache.bytes(), cache.with_entries(map_bytes));

        // Another kind of a resident benchmark and scale is filled from it,
        // and the benchmark and baseline they share count once.
        let kind = Some(ProfileKind { depth: DEFAULT_PATH_DEPTH, k: Some(2) });
        let trained = StoreKey { kind, ..untrained };
        let got = cache
            .prepared(&trained, |sibling| {
                let s = sibling.ok_or("no sibling")?;
                let (bench, baseline) = (Arc::clone(&s.bench), Arc::clone(&s.baseline));
                Ok::<_, &str>(Prepared { bench, baseline, pair: None, program_hash: 1, profile_hash: 3 })
            })
            .unwrap();
        assert!(Arc::ptr_eq(&got.bench, &memo.bench));
        let (own, map) = cache.with_entries(|e| (e[&trained].bytes, map_bytes(e)));
        assert_eq!(cache.bytes(), one - one_map + map + own);
        assert!(own < bench_bytes(&memo.bench));
    }

    #[test]
    fn kinds_display_as_log_lines_name_them() {
        assert_eq!(ProfileKind { depth: 15, k: None }.to_string(), "d15");
        assert_eq!(ProfileKind { depth: 15, k: Some(2) }.to_string(), "d15k2");
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
}
