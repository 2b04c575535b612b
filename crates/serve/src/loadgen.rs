//! Load generator for the `pps-serve` daemon.
//!
//! Drives N concurrent connections through a fixed request mix
//! (`Profile`, `Compile` against a client-supplied profile, `RunCell`)
//! and verifies every reply is **byte-identical** to what the in-process
//! pipeline produces for the same request — the daemon must never drift
//! from the library. Reports throughput and p50/p95/p99/max latency, and
//! can optionally probe the frame layer with malformed input
//! (`--probe-malformed`), drain the daemon (`--shutdown`), or run the
//! **drifting-workload mode** (`--drift`): after a steady phase of true
//! profiles, the mix phase-shifts to `Compile` requests carrying a
//! weight-inverted path profile, then polls the in-band health snapshot
//! until the daemon's continuous-PGO loop detects the drift and hot-swaps
//! a recompiled unit — with every reply still byte-verified.
//!
//! Transient failures — `Busy` backpressure, reply timeouts, mid-request
//! disconnects — are absorbed by bounded retry (exponential backoff with
//! deterministic jitter, per-run retry budget); everything retried is
//! reported in the JSON summary.

use crate::client::{Client, ClientError};
use crate::frame::{self, FrameError, HEADER_LEN, MAX_PAYLOAD, VERSION};
use crate::proto::{
    decode_response, encode_response, Envelope, HealthSnapshot, ProfileText, Request, Response,
};
use crate::service::execute;
use pps_ir::ProcId;
use pps_obs::quantile::percentile_sorted;
use pps_obs::{Level, Obs};
use pps_profile::path::PathProfile;
use pps_profile::serialize::{path_from_text, path_to_text};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// Bounded retry for transient request failures. Two failure classes get
// separate bounds: *transport faults* (reply timeouts, mid-request
// disconnects) are capped at `MAX_ATTEMPTS` per request and draw from a
// per-run `RETRY_BUDGET` shared across all connections — when it runs dry,
// failures surface instead of masking a sick daemon under infinite
// patience. `Busy` replies are backpressure, not faults: the daemon is
// healthy and explicitly asking the client to wait, so they get their own,
// much larger per-request cap (`BUSY_ATTEMPTS`) and don't consume the
// fault budget. Backoff is exponential from `BACKOFF_BASE` to
// `BACKOFF_CAP` with deterministic "equal jitter" (half fixed, half seeded
// by request index and attempt), so concurrent workers don't retry in
// lockstep yet runs stay reproducible.

/// Transport-fault attempts per request, including the first.
pub const MAX_ATTEMPTS: usize = 6;
/// `Busy` replies tolerated per request before giving up. At the backoff
/// ceiling this bounds the per-request wait to roughly
/// `BUSY_ATTEMPTS × BACKOFF_CAP`.
pub const BUSY_ATTEMPTS: usize = 256;
/// Total transport-fault retries allowed per run, shared across
/// connections.
pub const RETRY_BUDGET: usize = 1024;
/// First backoff delay. Unit tests shrink the backoff so a saturated fake
/// daemon exhausts [`BUSY_ATTEMPTS`] in milliseconds.
#[cfg(not(test))]
const BACKOFF_BASE: Duration = Duration::from_millis(5);
#[cfg(test)]
const BACKOFF_BASE: Duration = Duration::from_micros(100);
/// Backoff ceiling.
#[cfg(not(test))]
const BACKOFF_CAP: Duration = Duration::from_millis(200);
#[cfg(test)]
const BACKOFF_CAP: Duration = Duration::from_millis(1);
/// Per-reply timeout. Pipeline requests on a loaded box can take a while.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(300);
/// How long drift mode waits for the daemon to swap (and then to finish
/// in-flight recompiles) before declaring failure.
pub const DRIFT_TIMEOUT: Duration = Duration::from_secs(120);

/// Backoff before retry number `attempt` (1-based) of request `index`:
/// exponential with deterministic equal jitter.
fn backoff(index: usize, attempt: usize) -> Duration {
    let exp = BACKOFF_BASE.saturating_mul(1u32 << attempt.min(16) as u32).min(BACKOFF_CAP);
    // splitmix64 over (index, attempt) — no RNG dependency, and the
    // same request retries with the same delays in every run.
    let z = pps_ir::hash::splitmix64(
        (index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64),
    );
    let jitter = (z % 1000) as f64 / 1000.0;
    exp.mul_f64(0.5 + 0.5 * jitter)
}

/// What to drive at the daemon.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, `HOST:PORT`.
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Benchmark every request targets.
    pub bench: String,
    /// Suite scale for that benchmark.
    pub scale: u32,
    /// Scheme for `Compile`/`RunCell` requests.
    pub scheme: String,
    /// Also send malformed frames and assert they are rejected cleanly.
    pub probe_malformed: bool,
    /// Send `Shutdown` after the run and expect `ShuttingDown`.
    pub shutdown: bool,
    /// Drifting-workload mode: phase-shift to weight-inverted profiles
    /// after the steady phase and wait for a continuous-PGO hot-swap.
    pub drift: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            conns: 4,
            requests: 16,
            bench: "wc".to_string(),
            scale: 1,
            scheme: "P4".to_string(),
            probe_malformed: false,
            shutdown: false,
            drift: false,
        }
    }
}

/// Latency percentiles over the successful requests, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyMs {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst request.
    pub max: f64,
}

/// Continuous-PGO observations of a drift-mode run, from the daemon's
/// in-band health snapshots plus per-phase `RunCell` latencies.
#[derive(Debug, Clone, Default)]
pub struct DriftStats {
    /// Steady-phase (true profiles) `RunCell` latency.
    pub phase_a_runcell: LatencyMs,
    /// Drifted-phase (inverted profiles) `RunCell` latency.
    pub phase_b_runcell: LatencyMs,
    /// `RunCell` requests measured per phase.
    pub runcells: [usize; 2],
    /// Profiles the daemon folded into its aggregate by run end.
    pub profiles_merged: u64,
    /// Background recompiles the daemon attempted.
    pub recompiles: u64,
    /// Hot-swaps that landed.
    pub swaps: u64,
    /// Recompiles rolled back (must be 0 without injected faults).
    pub rollbacks: u64,
    /// Highest unit generation seen (≥ 2 proves a swap).
    pub max_generation: u64,
    /// In-flight recompiles at the final health poll (0 = clean drain).
    pub in_flight_final: u32,
    /// Health polls issued while waiting.
    pub health_polls: usize,
    /// Seconds from the phase shift to the first observed swap.
    pub swap_wait_s: f64,
}

/// Outcome of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests that completed with the expected reply bytes.
    pub ok: usize,
    /// Requests whose reply decoded but differed from the in-process
    /// pipeline's bytes.
    pub mismatches: usize,
    /// Transport/decode failures (after retries were exhausted).
    pub errors: usize,
    /// `Busy` replies absorbed by retry (each retry counts once).
    pub busy_retries: usize,
    /// Timeouts/disconnects absorbed by reconnect-and-retry.
    pub transport_retries: usize,
    /// Requests that failed because the per-run retry budget ran dry.
    pub budget_exhausted: usize,
    /// Drift-mode observations (`None` unless `--drift`).
    pub drift: Option<DriftStats>,
    /// Wall-clock for the measured request phase, seconds.
    pub elapsed_s: f64,
    /// `ok / elapsed_s`.
    pub throughput_rps: f64,
    /// Latency distribution of successful requests.
    pub latency: LatencyMs,
    /// Requests per mix slot: `[profile, compile, runcell]`.
    pub mix: [usize; 3],
    /// Malformed probes run / passed (zeros when not requested).
    pub probes_run: usize,
    /// Probes that were rejected cleanly (structured error or clean
    /// close, no hang).
    pub probes_passed: usize,
    /// First few human-readable failure descriptions.
    pub failures: Vec<String>,
}

impl LoadgenReport {
    /// True when every request verified and every probe passed.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.errors == 0 && self.probes_passed == self.probes_run
    }

    /// The report as a JSON object (hand-rendered; keys are fixed and
    /// values numeric, so no escaping is needed beyond the failure
    /// strings).
    pub fn to_json(&self, config: &LoadgenConfig) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        let drift = match &self.drift {
            None => "null".to_string(),
            Some(d) => format!(
                "{{\n    \"phase_a_runcell_ms\": {{\"p50\": {ap50:.2}, \"p95\": {ap95:.2}, \"count\": {ac}}},\n    \
                 \"phase_b_runcell_ms\": {{\"p50\": {bp50:.2}, \"p95\": {bp95:.2}, \"count\": {bc}}},\n    \
                 \"profiles_merged\": {merged},\n    \"recompiles\": {recompiles},\n    \
                 \"swaps\": {swaps},\n    \"rollbacks\": {rollbacks},\n    \
                 \"max_generation\": {max_gen},\n    \"in_flight_final\": {in_flight},\n    \
                 \"health_polls\": {polls},\n    \"swap_wait_s\": {wait:.3}\n  }}",
                ap50 = d.phase_a_runcell.p50,
                ap95 = d.phase_a_runcell.p95,
                ac = d.runcells[0],
                bp50 = d.phase_b_runcell.p50,
                bp95 = d.phase_b_runcell.p95,
                bc = d.runcells[1],
                merged = d.profiles_merged,
                recompiles = d.recompiles,
                swaps = d.swaps,
                rollbacks = d.rollbacks,
                max_gen = d.max_generation,
                in_flight = d.in_flight_final,
                polls = d.health_polls,
                wait = d.swap_wait_s,
            ),
        };
        format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"scale\": {scale},\n  \"scheme\": \"{scheme}\",\n  \
             \"conns\": {conns},\n  \"requests\": {requests},\n  \"ok\": {ok},\n  \
             \"mismatches\": {mismatches},\n  \"errors\": {errors},\n  \"busy_retries\": {busy},\n  \
             \"retry\": {{\"busy\": {busy}, \"transport\": {transport}, \"budget\": {budget}, \
             \"budget_exhausted\": {exhausted}}},\n  \
             \"elapsed_s\": {elapsed:.3},\n  \"throughput_rps\": {rps:.2},\n  \
             \"latency_ms\": {{\"p50\": {p50:.2}, \"p95\": {p95:.2}, \"p99\": {p99:.2}, \"max\": {max:.2}}},\n  \
             \"mix\": {{\"profile\": {m0}, \"compile\": {m1}, \"runcell\": {m2}}},\n  \
             \"probes\": {{\"run\": {pr}, \"passed\": {pp}}},\n  \
             \"drift\": {drift},\n  \
             \"failures\": [{failures}]\n}}\n",
            bench = config.bench,
            scale = config.scale,
            scheme = config.scheme,
            conns = config.conns,
            requests = config.requests,
            ok = self.ok,
            mismatches = self.mismatches,
            errors = self.errors,
            busy = self.busy_retries,
            transport = self.transport_retries,
            budget = RETRY_BUDGET,
            exhausted = self.budget_exhausted,
            elapsed = self.elapsed_s,
            rps = self.throughput_rps,
            p50 = self.latency.p50,
            p95 = self.latency.p95,
            p99 = self.latency.p99,
            max = self.latency.max,
            m0 = self.mix[0],
            m1 = self.mix[1],
            m2 = self.mix[2],
            pr = self.probes_run,
            pp = self.probes_passed,
            failures = failures.join(", "),
        )
    }
}

/// The request for mix slot `i % 3`, given the profile the mix's
/// `Compile` requests carry.
fn mix_request(config: &LoadgenConfig, slot: usize, profile: &ProfileText) -> Request {
    match slot {
        0 => Request::Profile { bench: config.bench.clone(), scale: config.scale, depth: 0 },
        1 => Request::Compile {
            bench: config.bench.clone(),
            scale: config.scale,
            scheme: config.scheme.clone(),
            profile: Some(profile.clone()),
        },
        _ => Request::RunCell {
            bench: config.bench.clone(),
            scale: config.scale,
            scheme: config.scheme.clone(),
            strict: false,
        },
    }
}

/// Shared worker state: the next request index, the run-level retry
/// budget (shared across phases), and accumulated outcomes.
struct Shared<'a> {
    next: AtomicUsize,
    total: usize,
    retry_budget: &'a AtomicUsize,
    results: Mutex<WorkerTally>,
}

impl Shared<'_> {
    /// Takes one retry from the shared budget; false when it ran dry.
    fn take_retry(&self) -> bool {
        self.retry_budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }
}

#[derive(Default)]
struct WorkerTally {
    ok: usize,
    mismatches: usize,
    errors: usize,
    busy_retries: usize,
    transport_retries: usize,
    budget_exhausted: usize,
    latencies_us: Vec<u64>,
    runcell_us: Vec<u64>,
    mix: [usize; 3],
    failures: Vec<String>,
}

impl WorkerTally {
    fn absorb(&mut self, local: WorkerTally) {
        self.ok += local.ok;
        self.mismatches += local.mismatches;
        self.errors += local.errors;
        self.busy_retries += local.busy_retries;
        self.transport_retries += local.transport_retries;
        self.budget_exhausted += local.budget_exhausted;
        self.latencies_us.extend(local.latencies_us);
        self.runcell_us.extend(local.runcell_us);
        for (a, b) in self.mix.iter_mut().zip(local.mix) {
            *a += b;
        }
        self.failures.extend(local.failures);
    }
}

/// True for failures worth retrying on a fresh connection: reply timeouts
/// and mid-request disconnects. After a timeout the old stream may carry a
/// late reply, so the retry must reconnect — same-connection retry would
/// desynchronize request/reply pairing.
fn retryable(e: &ClientError) -> bool {
    fn io_retryable(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut
                | io::ErrorKind::Interrupted
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
        )
    }
    match e {
        ClientError::Io(e) => io_retryable(e),
        ClientError::Frame(FrameError::Io(e)) => io_retryable(e),
        ClientError::Frame(FrameError::Truncated) => true,
        _ => false,
    }
}

/// One request through the retry policy. Returns the verified-decodable
/// response and its latency, or an error string once retries are
/// exhausted. `client` is reconnected as needed and left usable (or
/// `None`) for the next request.
fn call_with_retry(
    config: &LoadgenConfig,
    shared: &Shared,
    local: &mut WorkerTally,
    client: &mut Option<Client>,
    env: &Envelope,
    index: usize,
) -> Result<(Response, Duration), String> {
    let kind = env.request.kind_name();
    // Failed transport attempts (including the initial try) and Busy
    // replies for this request, bounded separately — backpressure waits
    // must not eat into the fault allowance.
    let mut faults = 0usize;
    let mut busy = 0usize;
    let mut last_error;
    // Takes a shared-budget token and sleeps before a transport-fault
    // retry; `Err` when the run-wide budget is dry.
    let fault_backoff = |local: &mut WorkerTally, attempt: usize, last: &str| {
        if !shared.take_retry() {
            local.budget_exhausted += 1;
            return Err(format!(
                "request {index} ({kind}): retry budget exhausted after: {last}"
            ));
        }
        std::thread::sleep(backoff(index, attempt));
        Ok(())
    };
    loop {
        if client.is_none() {
            match Client::connect(&config.addr, Some(REPLY_TIMEOUT)) {
                Ok(c) => *client = Some(c),
                Err(e) => {
                    faults += 1;
                    local.transport_retries += 1;
                    last_error = format!("reconnect: {e}");
                    if faults >= MAX_ATTEMPTS {
                        break;
                    }
                    fault_backoff(local, faults, &last_error)?;
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        let start = Instant::now();
        match c.call(env) {
            Ok(Response::Busy) => {
                local.busy_retries += 1;
                busy += 1;
                if busy >= BUSY_ATTEMPTS {
                    return Err(format!(
                        "request {index} ({kind}): still busy after {BUSY_ATTEMPTS} replies"
                    ));
                }
                // Backpressure, not a fault: wait out the queue without
                // drawing the shared fault budget.
                std::thread::sleep(backoff(index, busy));
            }
            Ok(resp) => return Ok((resp, start.elapsed())),
            Err(e) if retryable(&e) => {
                // The stream can no longer be trusted; retry reconnects.
                *client = None;
                faults += 1;
                local.transport_retries += 1;
                last_error = e.to_string();
                if faults >= MAX_ATTEMPTS {
                    break;
                }
                fault_backoff(local, faults, &last_error)?;
            }
            Err(e) => return Err(format!("request {index} ({kind}): {e}")),
        }
    }
    Err(format!(
        "request {index} ({kind}): {MAX_ATTEMPTS} attempts exhausted, last: {last_error}"
    ))
}

fn worker(
    config: &LoadgenConfig,
    shared: &Shared,
    expected: &[Vec<u8>; 3],
    profile: &ProfileText,
) {
    let mut client: Option<Client> = None;
    let mut local = WorkerTally::default();
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= shared.total {
            break;
        }
        let slot = i % 3;
        local.mix[slot] += 1;
        let env = Envelope::new(mix_request(config, slot, profile));
        match call_with_retry(config, shared, &mut local, &mut client, &env, i) {
            Ok((resp, elapsed)) => {
                let got = encode_response(&resp);
                if got == expected[slot] {
                    local.ok += 1;
                    local.latencies_us.push(elapsed.as_micros() as u64);
                    if slot == 2 {
                        local.runcell_us.push(elapsed.as_micros() as u64);
                    }
                } else {
                    local.mismatches += 1;
                    if local.failures.len() < 5 {
                        local.failures.push(format!(
                            "request {i} ({}): reply bytes differ from in-process \
                             pipeline ({} vs {} bytes, outcome {})",
                            env.request.kind_name(),
                            got.len(),
                            expected[slot].len(),
                            resp.outcome_name(),
                        ));
                    }
                }
            }
            Err(msg) => {
                local.errors += 1;
                if local.failures.len() < 5 {
                    local.failures.push(msg);
                }
            }
        }
    }
    shared.results.lock().unwrap().absorb(local);
}

/// Drives `requests` requests of the standard mix over
/// `config.conns` connections, verifying against `expected`, and returns
/// the phase's tally. `budget` is the run-level retry budget, decremented
/// in place so successive phases share it.
fn drive(
    config: &LoadgenConfig,
    budget: &AtomicUsize,
    expected: &[Vec<u8>; 3],
    profile: &ProfileText,
    requests: usize,
) -> WorkerTally {
    let shared = Shared {
        next: AtomicUsize::new(0),
        total: requests,
        retry_budget: budget,
        results: Mutex::new(WorkerTally::default()),
    };
    std::thread::scope(|scope| {
        for _ in 0..config.conns.max(1) {
            scope.spawn(|| worker(config, &shared, expected, profile));
        }
    });
    shared.results.into_inner().unwrap()
}

fn latency_ms(us: &mut [u64]) -> LatencyMs {
    us.sort_unstable();
    // Microsecond samples, reported in milliseconds; the nearest-rank
    // quantile itself is the shared `pps_obs::quantile` helper (the same
    // convention the bucketed histograms estimate against).
    LatencyMs {
        p50: percentile_sorted(us, 0.50) / 1e3,
        p95: percentile_sorted(us, 0.95) / 1e3,
        p99: percentile_sorted(us, 0.99) / 1e3,
        max: percentile_sorted(us, 1.0) / 1e3,
    }
}

/// One `Ping` round-trip for the daemon's health snapshot.
fn poll_health(addr: &str) -> Result<HealthSnapshot, String> {
    let mut client = Client::connect(addr, Some(Duration::from_secs(10)))
        .map_err(|e| format!("health connect: {e}"))?;
    match client.request(Request::Ping).map_err(|e| format!("health ping: {e}"))? {
        Response::Pong { health } => Ok(health),
        other => Err(format!("health ping: expected Pong, got {}", other.outcome_name())),
    }
}

/// Weight-inverts the path profile so its hot set becomes its cold set:
/// every maximal window's count becomes `(max + 1 - count) * BOOST`. The
/// boost makes the inverted mass dominate the daemon's aggregate even
/// though the mix's `Profile`/`RunCell` slots keep feeding true profiles
/// into it.
fn drifted_profile_text(profile: &ProfileText) -> Result<ProfileText, String> {
    const BOOST: u64 = 100;
    let path = path_from_text(&profile.path).map_err(|e| format!("parse path profile: {e}"))?;
    let per_proc: Vec<Vec<(Vec<_>, u64)>> = (0..path.num_procs())
        .map(|pi| {
            let windows = path.iter_maximal_windows(ProcId::new(pi as u32));
            let max = windows.iter().map(|(_, c)| *c).max().unwrap_or(0);
            windows
                .into_iter()
                .map(|(w, c)| (w, (max + 1 - c).saturating_mul(BOOST)))
                .collect()
        })
        .collect();
    let inverted = PathProfile::from_windows(path.depth(), per_proc);
    Ok(ProfileText { edge: profile.edge.clone(), path: path_to_text(&inverted) })
}

/// The drifting-workload phase: shift the mix's `Compile` slot to a
/// weight-inverted profile, drive another `config.requests` requests (all
/// still byte-verified), then poll the health snapshot until the daemon's
/// continuous-PGO loop hot-swaps a recompiled unit and finishes every
/// in-flight recompile. Phase-B outcomes are absorbed into `tally`.
fn drift_phase(
    config: &LoadgenConfig,
    budget: &AtomicUsize,
    profile: &ProfileText,
    tally: &mut WorkerTally,
    obs: &Obs,
) -> Result<(DriftStats, Duration), String> {
    let start = Instant::now();
    let base = poll_health(&config.addr)?;
    if !base.pgo_enabled {
        return Err("drift mode needs a daemon running with --pgo on".to_string());
    }

    let mut stats = DriftStats {
        phase_a_runcell: latency_ms(&mut tally.runcell_us.clone()),
        ..DriftStats::default()
    };
    stats.runcells[0] = tally.runcell_us.len();

    let drifted = drifted_profile_text(profile)?;
    let expected_b: [Vec<u8>; 3] = [0usize, 1, 2].map(|slot| {
        let req = mix_request(config, slot, &drifted);
        encode_response(&execute(&req, &Obs::noop(), None, None))
    });
    obs.log(Level::Info, || {
        format!(
            "drift phase: driving {} requests with weight-inverted profiles ...",
            config.requests
        )
    });
    let phase_b = drive(config, budget, &expected_b, &drifted, config.requests);
    stats.phase_b_runcell = latency_ms(&mut phase_b.runcell_us.clone());
    stats.runcells[1] = phase_b.runcell_us.len();
    tally.absorb(phase_b);

    // Wait for the hot-swap, then for the recompile tier to go idle.
    let shift = Instant::now();
    let deadline = shift + DRIFT_TIMEOUT;
    let mut last;
    loop {
        last = poll_health(&config.addr)?;
        stats.health_polls += 1;
        if last.swaps > base.swaps {
            stats.swap_wait_s = shift.elapsed().as_secs_f64();
            break;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "no hot-swap within {:?} (recompiles {}, swaps {}, rollbacks {}, \
                 profiles merged {}, drifted units {})",
                DRIFT_TIMEOUT,
                last.recompiles,
                last.swaps,
                last.rollbacks,
                last.profiles_merged,
                last.drifted_units,
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    while last.in_flight_recompiles > 0 {
        if Instant::now() >= deadline {
            break; // reported via in_flight_final
        }
        std::thread::sleep(Duration::from_millis(100));
        last = poll_health(&config.addr)?;
        stats.health_polls += 1;
    }
    obs.log(Level::Info, || {
        format!(
            "drift detected and swapped after {:.2}s ({} recompiles, {} swaps, {} rollbacks)",
            stats.swap_wait_s, last.recompiles, last.swaps, last.rollbacks
        )
    });

    stats.profiles_merged = last.profiles_merged;
    stats.recompiles = last.recompiles;
    stats.swaps = last.swaps;
    stats.rollbacks = last.rollbacks;
    stats.max_generation = last.max_generation;
    stats.in_flight_final = last.in_flight_recompiles;
    Ok((stats, start.elapsed()))
}

/// Runs the load phase (plus optional probes and shutdown) against a
/// daemon at `config.addr`.
///
/// # Errors
/// Returns `Err` only when the run cannot start at all (expected-reply
/// precomputation failed, e.g. unknown benchmark). Per-request failures
/// are reported in the [`LoadgenReport`]; check [`LoadgenReport::clean`].
///
/// # Panics
/// Panics if a worker thread panics (it holds no locks across request
/// handling, so this indicates a bug in loadgen itself).
pub fn run(config: &LoadgenConfig, obs: &Obs) -> Result<LoadgenReport, String> {
    let _span = obs.span("loadgen").arg("conns", config.conns as u64).arg(
        "requests",
        config.requests as u64,
    );

    // Precompute the mix's expected replies in-process. `execute` is a pure
    // function of the request, so these are exactly the bytes the daemon
    // must produce.
    obs.log(Level::Info, || {
        format!(
            "precomputing expected replies for {} scale {} scheme {} ...",
            config.bench, config.scale, config.scheme
        )
    });
    let profile_req =
        Request::Profile { bench: config.bench.clone(), scale: config.scale, depth: 0 };
    let profile_resp = execute(&profile_req, &Obs::noop(), None, None);
    let Response::Profile { edge, path } = &profile_resp else {
        return Err(format!("profile precompute failed: {profile_resp:?}"));
    };
    let profile = ProfileText { edge: edge.clone(), path: path.clone() };
    let expected: [Vec<u8>; 3] = [0usize, 1, 2].map(|slot| {
        let req = mix_request(config, slot, &profile);
        encode_response(&execute(&req, &Obs::noop(), None, None))
    });

    let budget = AtomicUsize::new(RETRY_BUDGET);
    obs.log(Level::Info, || {
        format!("driving {} requests over {} connections ...", config.requests, config.conns)
    });
    let start = Instant::now();
    let mut tally = drive(config, &budget, &expected, &profile, config.requests);
    let mut elapsed = start.elapsed();

    // Drift mode rides on the same tally and retry budget: phase A above
    // was the steady phase; phase B shifts the profile under the daemon.
    let mut drift = None;
    if config.drift {
        match drift_phase(config, &budget, &profile, &mut tally, obs) {
            Ok((stats, phase_elapsed)) => {
                elapsed += phase_elapsed;
                drift = Some(stats);
            }
            Err(e) => {
                tally.errors += 1;
                tally.failures.push(format!("drift: {e}"));
            }
        }
    }

    let mut report = LoadgenReport {
        ok: tally.ok,
        mismatches: tally.mismatches,
        errors: tally.errors,
        busy_retries: tally.busy_retries,
        transport_retries: tally.transport_retries,
        budget_exhausted: tally.budget_exhausted,
        drift,
        elapsed_s: elapsed.as_secs_f64(),
        throughput_rps: tally.ok as f64 / elapsed.as_secs_f64().max(1e-9),
        latency: latency_ms(&mut tally.latencies_us),
        mix: tally.mix,
        probes_run: 0,
        probes_passed: 0,
        failures: std::mem::take(&mut tally.failures),
    };

    if config.probe_malformed {
        probe_malformed(config, &mut report, obs);
    }

    if config.shutdown {
        shutdown_daemon(config, &mut report, obs);
    }

    Ok(report)
}

/// Sends `Shutdown` and expects `ShuttingDown`.
fn shutdown_daemon(config: &LoadgenConfig, report: &mut LoadgenReport, obs: &Obs) {
    match Client::connect(&config.addr, Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.request(Request::Shutdown).map_err(|e| e.to_string()))
    {
        Ok(Response::ShuttingDown) => {
            obs.log(Level::Info, || "daemon acknowledged shutdown".to_string());
        }
        Ok(other) => {
            report.errors += 1;
            report
                .failures
                .push(format!("shutdown: expected ShuttingDown, got {}", other.outcome_name()));
        }
        Err(e) => {
            report.errors += 1;
            report.failures.push(format!("shutdown: {e}"));
        }
    }
}

/// One malformed-input case: raw bytes to send, and whether to half-close
/// the write side afterwards (the truncation probe).
struct Probe {
    name: &'static str,
    bytes: Vec<u8>,
    half_close: bool,
}

fn probes() -> Vec<Probe> {
    let good = frame::encode_frame(b"never decoded");
    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"XPSF");
    let mut bad_version = good.clone();
    bad_version[4] = VERSION.wrapping_add(7);
    let mut oversized = good.clone();
    oversized[6..10].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_be_bytes());
    let mut bad_checksum = good.clone();
    let last = bad_checksum.len() - 1;
    bad_checksum[last] ^= 0xff;
    let truncated = good[..HEADER_LEN + 4].to_vec();
    vec![
        Probe { name: "bad-magic", bytes: bad_magic, half_close: false },
        Probe { name: "bad-version", bytes: bad_version, half_close: false },
        Probe { name: "oversized-length", bytes: oversized, half_close: false },
        Probe { name: "checksum-mismatch", bytes: bad_checksum, half_close: false },
        Probe { name: "truncated-frame", bytes: truncated, half_close: true },
    ]
}

/// A probe passes when the daemon answers with a structured error and/or
/// closes the connection — without hanging — and a fresh connection still
/// serves a good request afterwards.
fn probe_malformed(config: &LoadgenConfig, report: &mut LoadgenReport, obs: &Obs) {
    for probe in probes() {
        report.probes_run += 1;
        match run_probe(&config.addr, &probe) {
            Ok(()) => {
                report.probes_passed += 1;
                obs.log(Level::Debug, || format!("probe {}: rejected cleanly", probe.name));
            }
            Err(e) => {
                report.failures.push(format!("probe {}: {e}", probe.name));
                obs.log(Level::Error, || format!("probe {} FAILED: {e}", probe.name));
            }
        }
    }
    // The daemon must still be healthy after absorbing garbage.
    report.probes_run += 1;
    match Client::connect(&config.addr, Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.request(Request::Ping).map_err(|e| e.to_string()))
    {
        Ok(Response::Pong { .. }) => report.probes_passed += 1,
        Ok(other) => report
            .failures
            .push(format!("post-probe ping: expected Pong, got {}", other.outcome_name())),
        Err(e) => report.failures.push(format!("post-probe ping: {e}")),
    }
}

fn run_probe(addr: &str, probe: &Probe) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream.write_all(&probe.bytes).map_err(|e| format!("send: {e}"))?;
    if probe.half_close {
        stream.shutdown(Shutdown::Write).map_err(|e| format!("half-close: {e}"))?;
    }
    // The daemon replies with one structured-error frame and closes, or —
    // for header corruption it cannot safely frame a reply into — just
    // closes. Either way the stream must reach EOF without a hang.
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Ok(_) => {}
        // A reset after the daemon closed is also a clean rejection.
        Err(e)
            if e.kind() == std::io::ErrorKind::ConnectionReset
                || e.kind() == std::io::ErrorKind::ConnectionAborted => {}
        Err(e) => return Err(format!("read: {e} (timeout = daemon hung on garbage)")),
    }
    if reply.is_empty() {
        return Ok(()); // clean close without a reply
    }
    let payload = frame::read_frame(&mut reply.as_slice())
        .map_err(|e| format!("reply frame: {e}"))?;
    match decode_response(&payload) {
        Ok(Response::Error { .. }) => Ok(()),
        Ok(other) => Err(format!("expected a structured error, got {}", other.outcome_name())),
        Err(e) => Err(format!("reply decode: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_sanely() {
        let mut empty: [u64; 0] = [];
        assert_eq!(latency_ms(&mut empty).p50, 0.0);
        let mut us: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        let lat = latency_ms(&mut us);
        assert!((lat.p50 - 50.0).abs() < 1.5);
        assert!((lat.p95 - 95.0).abs() < 1.5);
        assert!((lat.max - 100.0).abs() < 0.01);
    }

    #[test]
    fn probe_set_covers_every_header_failure() {
        let names: Vec<&str> = probes().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["bad-magic", "bad-version", "oversized-length", "checksum-mismatch", "truncated-frame"]
        );
        // Bytes really are malformed: each probe must fail frame decoding
        // (the truncated probe by EOF).
        for p in probes() {
            assert!(
                frame::read_frame(&mut p.bytes.as_slice()).is_err(),
                "probe {} decoded as a valid frame",
                p.name
            );
        }
    }

    #[test]
    fn report_json_is_parseable() {
        let config = LoadgenConfig { addr: "127.0.0.1:0".into(), ..LoadgenConfig::default() };
        let mut report = LoadgenReport::default();
        report.failures.push("a \"quoted\" failure".to_string());
        let json = report.to_json(&config);
        pps_obs::json::parse(&json).expect("loadgen report JSON parses");
    }

    /// Fake daemon for retry-policy tests: replies `Busy` to the first
    /// `busy_replies` requests on each connection, then `Pong`. With
    /// `busy_replies == usize::MAX` it is permanently saturated.
    fn busy_then_pong_server(busy_replies: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            // One connection is enough for these tests; exit when the
            // client hangs up.
            let (mut stream, _) = listener.accept().expect("accept");
            let mut served = 0usize;
            while frame::read_frame(&mut stream).is_ok() {
                let resp = if served < busy_replies {
                    Response::Busy
                } else {
                    Response::Pong { health: HealthSnapshot::default() }
                };
                served += 1;
                if frame::write_frame(&mut stream, &encode_response(&resp)).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn test_shared(budget: &AtomicUsize) -> Shared<'_> {
        Shared {
            next: AtomicUsize::new(0),
            total: 0,
            retry_budget: budget,
            results: Mutex::new(WorkerTally::default()),
        }
    }

    #[test]
    fn busy_replies_are_not_bounded_by_fault_attempts_or_budget() {
        // More Busy replies than MAX_ATTEMPTS, with a ZERO fault budget:
        // backpressure waits must succeed anyway, without touching either
        // bound.
        let busy_replies = MAX_ATTEMPTS + 4;
        let (addr, server) = busy_then_pong_server(busy_replies);
        let config = LoadgenConfig { addr, ..LoadgenConfig::default() };
        let budget = AtomicUsize::new(0);
        let shared = test_shared(&budget);
        let mut local = WorkerTally::default();
        let mut client = None;
        let env = Envelope::new(Request::Ping);
        let got = call_with_retry(&config, &shared, &mut local, &mut client, &env, 0);
        assert!(matches!(got, Ok((Response::Pong { .. }, _))), "got {got:?}");
        assert_eq!(local.busy_retries, busy_replies);
        assert_eq!(local.transport_retries, 0);
        assert_eq!(local.budget_exhausted, 0);
        assert_eq!(budget.load(Ordering::Relaxed), 0, "Busy must not draw the fault budget");
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn saturated_daemon_exhausts_the_busy_cap() {
        let (addr, server) = busy_then_pong_server(usize::MAX);
        let config = LoadgenConfig { addr, ..LoadgenConfig::default() };
        let budget = AtomicUsize::new(RETRY_BUDGET);
        let shared = test_shared(&budget);
        let mut local = WorkerTally::default();
        let mut client = None;
        let env = Envelope::new(Request::Ping);
        let got = call_with_retry(&config, &shared, &mut local, &mut client, &env, 0);
        let err = got.expect_err("permanently busy daemon must fail the request");
        assert!(
            err.contains(&format!("still busy after {BUSY_ATTEMPTS}")),
            "unexpected error: {err}"
        );
        assert_eq!(local.busy_retries, BUSY_ATTEMPTS);
        assert_eq!(budget.load(Ordering::Relaxed), RETRY_BUDGET);
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn transport_faults_still_drain_the_shared_budget() {
        // A server that drops the connection mid-request: the retry is a
        // transport fault, and with a zero budget it must surface as
        // budget exhaustion rather than retrying forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = frame::read_frame(&mut stream);
            // Drop without replying: the client sees EOF.
        });
        let config = LoadgenConfig { addr, ..LoadgenConfig::default() };
        let budget = AtomicUsize::new(0);
        let shared = test_shared(&budget);
        let mut local = WorkerTally::default();
        let mut client = None;
        let env = Envelope::new(Request::Ping);
        let got = call_with_retry(&config, &shared, &mut local, &mut client, &env, 0);
        let err = got.expect_err("dropped connection with zero budget must fail");
        assert!(err.contains("retry budget exhausted"), "unexpected error: {err}");
        assert_eq!(local.transport_retries, 1);
        assert_eq!(local.budget_exhausted, 1);
        server.join().expect("server thread");
    }
}
