//! Consistent-hash shard router: one PPSF front door fanning requests out
//! across N `pps-serve` daemons by artifact identity.
//!
//! The router decodes each request only far enough to compute its
//! [`ArtifactKey`] projection (canonical program hash — memoized per
//! `(bench, scale)` — carried-profile hash, canonical scheme name, machine
//! hash), places the key's [`ArtifactKey::route_hash`] on a splitmix64
//! vnode ring, and relays the *original* request payload to the owning
//! shard, returning the shard's reply payload verbatim. Replies are never
//! re-encoded, so byte-identity through the router is structural: the
//! client sees exactly the bytes the daemon produced, including `Busy`
//! and structured errors (pass-through, not retry — backpressure is the
//! daemon's signal to make).
//!
//! Keying placement by content (not by connection or round-robin) is what
//! makes the per-daemon [`crate::cache::CompileCache`] effective in a
//! cluster: every repeat of an artifact lands on the same shard, so the
//! cluster-wide hit rate matches the single-daemon hit rate instead of
//! being diluted by N.
//!
//! `Ping` is answered by fan-in: the router pings every shard, sums the
//! counter fields of their Pongs (taking the max of generation-like
//! fields), and reports its own `routed`/`shards` counters — the fields a
//! single daemon leaves zero. `Shutdown` is forwarded to every shard
//! (best effort) and then drains the router itself, so one in-band
//! shutdown quiesces the whole cluster.

use crate::frame::{self, read_first, First, FrameError};
use crate::proto::{
    decode_request, decode_response, encode_request, encode_response, Envelope, ErrorKind,
    HealthSnapshot, Request, Response,
};
use pps_core::hash::Fold;
use pps_core::{machine_hash, ArtifactKey, Scheme};
use pps_machine::MachineConfig;
use pps_obs::{Level, Obs};
use pps_suite::{benchmark_by_name, Scale};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Virtual nodes per shard — enough that removing one shard of a handful
/// moves only its own share of keys.
pub const VNODES: usize = 64;

/// A consistent-hash ring: [`VNODES`] points per shard, placed by folding
/// the shard address with the vnode index through splitmix64. A key owns
/// the first point clockwise from its hash.
#[derive(Debug, Clone)]
pub struct ShardRing {
    addrs: Vec<String>,
    points: Vec<(u64, usize)>,
}

impl ShardRing {
    /// Builds the ring.
    ///
    /// # Panics
    /// Panics if `addrs` is empty — a router with no shards is a
    /// configuration error, not a runtime state.
    pub fn new(addrs: Vec<String>) -> ShardRing {
        assert!(!addrs.is_empty(), "shard ring needs at least one shard");
        let mut points = Vec::with_capacity(addrs.len() * VNODES);
        for (index, addr) in addrs.iter().enumerate() {
            for v in 0..VNODES {
                let mut f = Fold::new();
                f.str(addr).u64(v as u64);
                points.push((f.finish(), index));
            }
        }
        points.sort_unstable();
        ShardRing { addrs, points }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when the ring has no shards (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The shard addresses, in configuration order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The shard owning `hash`: the first ring point at or after it,
    /// wrapping to the start.
    pub fn shard_for(&self, hash: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < hash);
        let (_, shard) = self.points[i % self.points.len()];
        shard
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// How often idle loops re-check the shutdown flag.
    pub poll: Duration,
    /// How long a started client frame may take to arrive completely.
    pub frame_timeout: Duration,
    /// Per-reply timeout on shard connections (None = wait forever).
    pub reply_timeout: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            poll: Duration::from_millis(20),
            frame_timeout: Duration::from_secs(10),
            reply_timeout: Some(Duration::from_secs(300)),
        }
    }
}

/// Counters the router reports when it drains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests relayed to a shard.
    pub routed: u64,
    /// Relay failures answered with a structured error.
    pub errors: u64,
    /// Connections dropped for malformed frames.
    pub frame_errors: u64,
}

/// Shared router state: the ring, the routing memo, and the counters the
/// fan-in health path reports.
pub struct Router {
    ring: ShardRing,
    config: RouterConfig,
    routed: AtomicU64,
    per_shard: Vec<AtomicU64>,
    errors: AtomicU64,
    /// Canonical program hashes, memoized per `(bench, scale)` — the
    /// program is a pure function of both, so the memo never invalidates.
    memo: Mutex<HashMap<(String, u32), u64>>,
    machine: u64,
}

impl Router {
    /// Builds the router over `ring`.
    pub fn new(ring: ShardRing, config: RouterConfig) -> Router {
        let shards = ring.len();
        Router {
            ring,
            config,
            routed: AtomicU64::new(0),
            per_shard: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            errors: AtomicU64::new(0),
            memo: Mutex::new(HashMap::new()),
            machine: machine_hash(&MachineConfig::paper()),
        }
    }

    /// The ring.
    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    /// Requests relayed so far.
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// Requests relayed per shard, in configuration order.
    pub fn per_shard_routed(&self) -> Vec<u64> {
        self.per_shard.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    fn program_hash_for(&self, bench: &str, scale: u32) -> u64 {
        let key = (bench.to_string(), scale);
        let mut memo = self.memo.lock().unwrap();
        if let Some(&h) = memo.get(&key) {
            return h;
        }
        // Unknown benches still need a stable placement — any shard will
        // produce the identical structured error.
        let h = match benchmark_by_name(bench, Scale(scale)) {
            Some(b) => pps_ir::hash::program_hash(&b.program),
            None => pps_core::hash::fnv1a64(bench.as_bytes()),
        };
        memo.insert(key, h);
        h
    }

    /// The request's routing identity: `Some(route_hash)` for work
    /// requests, `None` for `Ping`/`Shutdown` (answered by fan-in /
    /// fan-out, not placement).
    ///
    /// The identity is the [`ArtifactKey`] projection computable without
    /// running anything: server-trained profiles hash as 0 (the daemon
    /// trains deterministically, so bench x scale already pins them), and
    /// carried profile texts hash by content.
    pub fn route_identity(&self, request: &Request) -> Option<u64> {
        let key = match request {
            Request::Ping | Request::Shutdown => return None,
            Request::Profile { bench, scale, depth } => {
                let mut f = Fold::new();
                f.u64(u64::from(*depth));
                ArtifactKey::new(
                    self.program_hash_for(bench, *scale),
                    f.finish(),
                    "profile",
                    self.machine,
                )
            }
            Request::Compile { bench, scale, scheme, profile } => ArtifactKey::new(
                self.program_hash_for(bench, *scale),
                profile.as_ref().map_or(0, |p| {
                    let mut f = Fold::new();
                    f.str(&p.edge).str(&p.path);
                    f.finish()
                }),
                canonical_scheme(scheme),
                self.machine,
            ),
            Request::RunCell { bench, scale, scheme, .. } => ArtifactKey::new(
                self.program_hash_for(bench, *scale),
                0,
                canonical_scheme(scheme),
                self.machine,
            ),
        };
        Some(key.route_hash())
    }

    fn connect(&self, shard: usize) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(&self.ring.addrs[shard])?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.config.reply_timeout)?;
        Ok(stream)
    }

    /// Relays the raw request payload to `shard` and returns the raw reply
    /// payload. The cached upstream connection is retried once with a
    /// fresh one — it may have idled out since the last request.
    fn relay(
        &self,
        shard: usize,
        payload: &[u8],
        upstream: &mut HashMap<usize, TcpStream>,
    ) -> Result<Vec<u8>, String> {
        for fresh in [false, true] {
            if fresh {
                upstream.remove(&shard);
            }
            let stream = match upstream.entry(shard) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => match self.connect(shard) {
                    Ok(s) => e.insert(s),
                    Err(err) => {
                        if fresh {
                            return Err(format!("connect: {err}"));
                        }
                        continue;
                    }
                },
            };
            let attempt = frame::write_frame(stream, payload)
                .map_err(FrameError::from)
                .and_then(|()| frame::read_frame(stream));
            match attempt {
                Ok(reply) => {
                    self.routed.fetch_add(1, Ordering::Relaxed);
                    self.per_shard[shard].fetch_add(1, Ordering::Relaxed);
                    return Ok(reply);
                }
                Err(e) => {
                    upstream.remove(&shard);
                    if fresh {
                        return Err(e.to_string());
                    }
                }
            }
        }
        unreachable!("second relay attempt always returns")
    }

    /// Fan-in health: pings every shard, sums counters (max for
    /// generation-like fields), and stamps the router's own
    /// `routed`/`shards` numbers. Unreachable shards contribute nothing —
    /// `shards` always reports the configured ring size.
    pub fn aggregate_health(&self) -> HealthSnapshot {
        let mut agg = HealthSnapshot {
            routed: self.routed(),
            shards: self.ring.len() as u32,
            ..HealthSnapshot::default()
        };
        for shard in 0..self.ring.len() {
            let Ok(mut stream) = self.connect(shard) else { continue };
            let sent = frame::write_frame(&mut stream, &encode_request(&Envelope::new(Request::Ping)));
            let Ok(()) = sent else { continue };
            let Ok(payload) = frame::read_frame(&mut stream) else { continue };
            let Ok(Response::Pong { health }) = decode_response(&payload) else { continue };
            agg.queue_depth += health.queue_depth;
            agg.queue_capacity += health.queue_capacity;
            agg.workers += health.workers;
            agg.connections += health.connections;
            agg.requests += health.requests;
            agg.pgo_enabled |= health.pgo_enabled;
            agg.profiles_merged += health.profiles_merged;
            agg.units += health.units;
            agg.max_generation = agg.max_generation.max(health.max_generation);
            agg.drifted_units += health.drifted_units;
            agg.recompiles += health.recompiles;
            agg.swaps += health.swaps;
            agg.rollbacks += health.rollbacks;
            agg.in_flight_recompiles += health.in_flight_recompiles;
            agg.telemetry_enabled |= health.telemetry_enabled;
            agg.access_log_lines += health.access_log_lines;
            agg.traces_sampled += health.traces_sampled;
            agg.cache_hits += health.cache_hits;
            agg.cache_misses += health.cache_misses;
            agg.cache_evictions += health.cache_evictions;
            agg.cache_invalidations += health.cache_invalidations;
            agg.cache_entries += health.cache_entries;
        }
        agg
    }

    /// Forwards `Shutdown` to every shard, best effort.
    fn fan_out_shutdown(&self) {
        let payload = encode_request(&Envelope::new(Request::Shutdown));
        for shard in 0..self.ring.len() {
            if let Ok(mut stream) = self.connect(shard) {
                let _ = frame::write_frame(&mut stream, &payload)
                    .map_err(FrameError::from)
                    .and_then(|()| frame::read_frame(&mut stream));
            }
        }
    }
}

/// Scheme names canonicalize through [`Scheme::parse`] so spelled-out
/// variants of one scheme place identically.
fn canonical_scheme(scheme: &str) -> String {
    Scheme::parse(scheme).map_or_else(|| scheme.to_string(), |s| s.name())
}

struct AtomicStats {
    connections: AtomicU64,
    frame_errors: AtomicU64,
}

/// Runs the router on the calling thread until `shutdown` becomes true,
/// then returns the final stats. One thread per client connection; shard
/// connections are cached per client connection, so a client's stream of
/// same-artifact requests rides one upstream socket.
///
/// # Errors
/// Only listener setup errors; per-connection failures are absorbed.
pub fn route(
    listener: TcpListener,
    router: &Router,
    obs: &Obs,
    shutdown: &AtomicBool,
) -> io::Result<RouterStats> {
    listener.set_nonblocking(true)?;
    let stats = AtomicStats { connections: AtomicU64::new(0), frame_errors: AtomicU64::new(0) };

    std::thread::scope(|scope| {
        loop {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    let stats = &stats;
                    let obs = obs.clone();
                    scope.spawn(move || {
                        if let Err(e) = conn_loop(stream, router, shutdown, stats, &obs) {
                            obs.log(Level::Debug, || format!("router connection {peer}: {e}"));
                        }
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(router.config.poll);
                }
                Err(_) => std::thread::sleep(router.config.poll),
            }
        }
    });

    Ok(RouterStats {
        connections: stats.connections.load(Ordering::Relaxed),
        routed: router.routed(),
        errors: router.errors.load(Ordering::Relaxed),
        frame_errors: stats.frame_errors.load(Ordering::Relaxed),
    })
}

fn conn_loop(
    mut stream: TcpStream,
    router: &Router,
    shutdown: &AtomicBool,
    stats: &AtomicStats,
    obs: &Obs,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_nonblocking(false)?;
    let mut upstream: HashMap<usize, TcpStream> = HashMap::new();
    loop {
        stream.set_read_timeout(Some(router.config.poll))?;
        let first = match read_first(&mut stream) {
            First::Eof => return Ok(()),
            First::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            First::Err(e) => return Err(e),
            First::Byte(b) => b,
        };

        stream.set_read_timeout(Some(router.config.frame_timeout))?;
        let started = Instant::now();
        let payload = match frame::read_frame_after(first, &mut stream) {
            Ok(p) => p,
            Err(e) => {
                stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                let resp =
                    Response::Error { kind: ErrorKind::BadFrame, message: e.to_string() };
                let _ = frame::write_frame(&mut stream, &encode_response(&resp));
                return Ok(());
            }
        };

        let env = match decode_request(&payload) {
            Ok(env) => env,
            Err(e) => {
                let resp =
                    Response::Error { kind: ErrorKind::BadRequest, message: e.to_string() };
                frame::write_frame(&mut stream, &encode_response(&resp))?;
                continue;
            }
        };

        let reply: Vec<u8> = match router.route_identity(&env.request) {
            None => match env.request {
                Request::Ping => {
                    encode_response(&Response::Pong { health: router.aggregate_health() })
                }
                _ => {
                    // Shutdown: quiesce the shards, then the router.
                    router.fan_out_shutdown();
                    shutdown.store(true, Ordering::SeqCst);
                    encode_response(&Response::ShuttingDown)
                }
            },
            Some(hash) => {
                let shard = router.ring.shard_for(hash);
                match router.relay(shard, &payload, &mut upstream) {
                    Ok(reply) => reply,
                    Err(e) => {
                        router.errors.fetch_add(1, Ordering::Relaxed);
                        obs.log(Level::Warn, || {
                            format!(
                                "router: shard {shard} ({}) failed after {:.1}ms: {e}",
                                router.ring.addrs[shard],
                                started.elapsed().as_secs_f64() * 1e3,
                            )
                        });
                        encode_response(&Response::Error {
                            kind: ErrorKind::Internal,
                            message: format!(
                                "shard {shard} ({}) unavailable: {e}",
                                router.ring.addrs[shard]
                            ),
                        })
                    }
                }
            }
        };
        frame::write_frame(&mut stream, &reply)?;
    }
}

/// A router running on a background thread (tests and embedding).
pub struct RouterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    router: Arc<Router>,
    thread: std::thread::JoinHandle<io::Result<RouterStats>>,
}

impl RouterHandle {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and routes on a background
    /// thread.
    ///
    /// # Errors
    /// Bind/local-addr failures.
    pub fn spawn(addr: &str, router: Router, obs: Obs) -> io::Result<RouterHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let router = Arc::new(router);
        let worker = Arc::clone(&router);
        let thread = std::thread::spawn(move || route(listener, worker.as_ref(), &obs, &flag));
        Ok(RouterHandle { addr: local, shutdown, router, thread })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared router state.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Requests a drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the router to finish.
    ///
    /// # Errors
    /// The route loop's setup error, if any.
    ///
    /// # Panics
    /// Propagates a panic of the routing thread.
    pub fn join(self) -> io::Result<RouterStats> {
        self.thread.join().expect("router thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProfileText;

    fn ring2() -> ShardRing {
        ShardRing::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()])
    }

    #[test]
    fn ring_placement_is_deterministic_and_covers_all_shards() {
        let ring = ShardRing::new((0..4).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect());
        let mut seen = [0u64; 4];
        for k in 0..10_000u64 {
            let h = pps_core::hash::splitmix64(k);
            let s = ring.shard_for(h);
            assert_eq!(s, ring.shard_for(h), "placement must be deterministic");
            seen[s] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(
                count > 1000,
                "shard {i} owns {count}/10000 keys — vnode spread is badly skewed: {seen:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let addrs: Vec<String> = (0..4).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let full = ShardRing::new(addrs.clone());
        let reduced = ShardRing::new(addrs[..3].to_vec());
        let mut moved = 0u64;
        let total = 10_000u64;
        for k in 0..total {
            let h = pps_core::hash::splitmix64(k);
            let before = full.shard_for(h);
            let after = reduced.shard_for(h);
            if before < 3 && before != after {
                moved += 1;
            }
        }
        // Consistent hashing: keys on surviving shards overwhelmingly stay
        // put (round-robin or modulo would move ~2/3 of them).
        assert!(
            moved < total / 10,
            "{moved}/{total} keys moved off surviving shards"
        );
    }

    #[test]
    fn route_identity_separates_artifacts_and_sticks_per_artifact() {
        let router = Router::new(ring2(), RouterConfig::default());
        let compile = |scheme: &str, scale: u32| Request::Compile {
            bench: "wc".into(),
            scale,
            scheme: scheme.into(),
            profile: None,
        };
        let a = router.route_identity(&compile("P4", 1)).unwrap();
        assert_eq!(a, router.route_identity(&compile("P4", 1)).unwrap(), "identity is stable");
        assert_ne!(a, router.route_identity(&compile("M4", 1)).unwrap(), "scheme separates");
        assert_ne!(a, router.route_identity(&compile("P4", 2)).unwrap(), "scale separates");
        let with_profile = Request::Compile {
            bench: "wc".into(),
            scale: 1,
            scheme: "P4".into(),
            profile: Some(ProfileText { edge: "e".into(), path: "p".into() }),
        };
        assert_ne!(
            a,
            router.route_identity(&with_profile).unwrap(),
            "carried profiles separate from server-trained"
        );
        assert!(router.route_identity(&Request::Ping).is_none());
        assert!(router.route_identity(&Request::Shutdown).is_none());
    }

    #[test]
    fn runcell_and_compile_for_one_artifact_place_on_the_same_shard() {
        let router = Router::new(ring2(), RouterConfig::default());
        let compile = Request::Compile {
            bench: "wc".into(),
            scale: 1,
            scheme: "P4".into(),
            profile: None,
        };
        let run = Request::RunCell {
            bench: "wc".into(),
            scale: 1,
            scheme: "P4".into(),
            strict: true,
        };
        let ring = router.ring();
        assert_eq!(
            ring.shard_for(router.route_identity(&compile).unwrap()),
            ring.shard_for(router.route_identity(&run).unwrap()),
            "one artifact's compile and run traffic must share a shard cache"
        );
    }

    #[test]
    fn scheme_spelling_canonicalizes_for_placement() {
        let router = Router::new(ring2(), RouterConfig::default());
        let req = |scheme: &str| Request::RunCell {
            bench: "wc".into(),
            scale: 1,
            scheme: scheme.into(),
            strict: false,
        };
        // "P04" parses to the same scheme as "P4".
        assert_eq!(
            router.route_identity(&req("P4")).unwrap(),
            router.route_identity(&req("P04")).unwrap()
        );
    }
}
