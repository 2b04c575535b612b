//! The two serving workloads, against a `pps-serve` child process with
//! one worker, driven closed loop by two connections: the second
//! connection always finds one request in service, so queue wait shows.
//!
//! - `serve-cold`: reply cache off. Each cycle sends every combination of
//!   8 benchmarks x {Profile, Compile with a client profile, Compile
//!   trained on the server, RunCell} x {M4, P4, Pk2, Px4} once.
//! - `serve-hot`: default reply cache. Each cycle sends the 64 cacheable
//!   artifacts (server-trained Compile and RunCell) with a triangular skew;
//!   an untimed warm pass fills the cache first and counts as set-up.
//!
//! Every reply must be byte-equal to the in-process `service` reply,
//! computed before the daemon starts.

use crate::accesslog::{self, AccessRecord};
use crate::calib::Sampler;
use crate::mix::{Mix, Rng};
use crate::report::Report;
use crate::trace::{self, Tracer};
use crate::{ms, peak_rss_mb, stats, RunArgs};
use pps_obs::Obs;
use pps_profile::serialize::{path_from_text, path_to_text};
use pps_serve::cache::{CompileCache, DEFAULT_CAPACITY};
use pps_serve::frame::{read_frame, write_frame};
use pps_serve::proto::{
    decode_response, encode_request, encode_response, Envelope, HealthSnapshot, ProfileText,
    Request, Response,
};
use pps_serve::service::execute_cached;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BENCHES: [&str; 8] = ["wc", "com", "eqn", "esp", "go", "m88k", "perl", "vortex"];
const SCHEMES: [&str; 4] = ["M4", "P4", "Pk2", "Px4"];
const SCALE: u32 = 1;
/// Client connections; with one daemon worker, one request queues.
const CONNS: usize = 2;
/// Tiers of the hot workload's triangular skew: 4 tiers of 16 artifacts,
/// drawn 4, 3, 2 and 1 times per cycle (160 requests).
const HOT_TIERS: usize = 4;
/// Time between calibration samples (each about 1 ms of one core).
const CALIB_PERIOD: Duration = Duration::from_millis(50);
/// Longest a reply or a daemon start may take before the run gives up.
const PATIENCE: Duration = Duration::from_secs(60);

/// One request type of a workload, with the reply it must get.
struct Op {
    envelope: Envelope,
    expected: Vec<u8>,
}

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Reply cache off; every request runs the pipeline.
    Cold,
    /// Reply cache on and warm; nearly every request is a hit.
    Hot,
}

impl Flavor {
    /// Times set-up is repeated; its median is `setup_s`. A cold set-up
    /// is a daemon start of about 20 ms, so it is repeated more often than
    /// a hot one, which adds a warm pass of about 3 s.
    fn setups(self) -> usize {
        match self {
            Flavor::Cold => 9,
            Flavor::Hot => 3,
        }
    }
}

/// The request types of `flavor`, hottest first, and their mix.
fn requests(flavor: Flavor) -> (Vec<Request>, Mix) {
    let compile = |b: &str, s: &str| Request::Compile {
        bench: b.into(),
        scale: SCALE,
        scheme: s.into(),
        profile: None,
    };
    // Strict, so a guard incident is an error reply, not a degraded cell.
    let run_cell = |b: &str, s: &str| Request::RunCell {
        bench: b.into(),
        scale: SCALE,
        scheme: s.into(),
        strict: true,
    };
    match flavor {
        Flavor::Cold => {
            let mut reqs = Vec::new();
            for b in BENCHES {
                for s in SCHEMES {
                    reqs.push(Request::Profile {
                        bench: b.into(),
                        scale: SCALE,
                        depth: 0,
                    });
                    // The client profile is filled in once the Profile
                    // reply is known.
                    reqs.push(Request::Compile {
                        bench: b.into(),
                        scale: SCALE,
                        scheme: s.into(),
                        profile: Some(ProfileText {
                            edge: String::new(),
                            path: String::new(),
                        }),
                    });
                    reqs.push(compile(b, s));
                    reqs.push(run_cell(b, s));
                }
            }
            let n = reqs.len();
            (reqs, Mix::uniform(n))
        }
        Flavor::Hot => {
            // Row r holds every benchmark once, each with a different
            // (kind, scheme) pair, so every skew tier (two rows) costs
            // about the same: the skew shapes reuse, not the cost mix.
            let combos = 2 * SCHEMES.len();
            let mut reqs = Vec::new();
            for r in 0..combos {
                for (i, b) in BENCHES.iter().enumerate() {
                    let c = (r + i) % combos;
                    let s = SCHEMES[c % SCHEMES.len()];
                    reqs.push(if c < SCHEMES.len() {
                        compile(b, s)
                    } else {
                        run_cell(b, s)
                    });
                }
            }
            let n = reqs.len();
            (reqs, Mix::triangular(n, HOT_TIERS))
        }
    }
}

/// The in-process replies every daemon reply is compared with. Hot
/// requests are executed twice through a local reply cache: the miss gives
/// the reply, the hit must repeat it.
fn reference(
    flavor: Flavor,
    mut reqs: Vec<Request>,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(Vec<Op>, Vec<String>), String> {
    let obs = Obs::noop();
    let cache = (flavor == Flavor::Hot).then(|| CompileCache::new(DEFAULT_CAPACITY));
    // Profile replies by benchmark: the client profiles of Compile
    // requests, and the reply of every repeated Profile request.
    let mut profiles: HashMap<String, Response> = HashMap::new();
    let mut ops = Vec::with_capacity(reqs.len());
    for (i, mut request) in reqs.drain(..).enumerate() {
        if let Request::Compile {
            bench,
            profile: Some(p),
            ..
        } = &mut request
        {
            let Some(Response::Profile { edge, path }) = profiles.get(bench.as_str()) else {
                return Err(format!(
                    "{bench}: Compile with a client profile before its Profile"
                ));
            };
            *p = ProfileText {
                edge: edge.clone(),
                path: path.clone(),
            };
        }
        let known = match &request {
            Request::Profile { bench, .. } => profiles.get(bench).cloned(),
            _ => None,
        };
        let miss = match known {
            Some(reply) => reply,
            None => {
                let _s = tracer.span("serve.execute_miss", i as u64);
                execute_cached(&request, &obs, None, cache.as_ref())
            }
        };
        if let Some(cache) = &cache {
            let hit = {
                let _s = tracer.span("serve.execute_hit", i as u64);
                execute_cached(&request, &obs, None, Some(cache))
            };
            report.check(hit == miss, || {
                format!("{request:?}: cache hit differs from the miss")
            });
        }
        if matches!(
            miss,
            Response::Error { .. } | Response::Busy | Response::ShuttingDown
        ) {
            return Err(format!(
                "in-process reference failed for {request:?}: {miss:?}"
            ));
        }
        if let Request::Profile { bench, .. } = &request {
            profiles
                .entry(bench.clone())
                .or_insert_with(|| miss.clone());
        }
        ops.push(Op {
            envelope: Envelope::new(request),
            expected: encode_response(&miss),
        });
    }
    let path_texts = BENCHES
        .iter()
        .filter_map(|b| match profiles.get(*b) {
            Some(Response::Profile { path, .. }) => Some(path.clone()),
            _ => None,
        })
        .collect();
    Ok((ops, path_texts))
}

/// A running daemon; killed if dropped while still running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon and waits for its first Pong.
    fn start(bin: &Path, dir: &Path, tag: &str, extra: &[String]) -> Result<Daemon, String> {
        let port_file = dir.join(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let t = Instant::now();
        let child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--log-level",
                "error",
                "--port-file",
            ])
            .arg(&port_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if !text.trim().is_empty() {
                    daemon.addr = text.trim().to_string();
                    break;
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("pps-serve exited during start-up: {status}"));
            }
            if t.elapsed() > PATIENCE {
                return Err("pps-serve did not write its port file".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        daemon.health()?;
        Ok(daemon)
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        Ok(stream)
    }

    fn call(&self, request: Request) -> Result<Response, String> {
        let mut stream = self.connect()?;
        write_frame(&mut stream, &encode_request(&Envelope::new(request)))
            .map_err(|e| e.to_string())?;
        let reply = read_frame(&mut stream).map_err(|e| e.to_string())?;
        decode_response(&reply).map_err(|e| e.to_string())
    }

    fn health(&self) -> Result<HealthSnapshot, String> {
        match self.call(Request::Ping)? {
            Response::Pong { health } => Ok(health),
            other => Err(format!("Ping answered with {other:?}")),
        }
    }

    /// Shuts the daemon down in band and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let reply = self.call(Request::Shutdown);
        let t = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                reply?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("pps-serve exited {status}"))
                };
            }
            if t.elapsed() > PATIENCE {
                return Err("pps-serve did not exit after Shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One measured request.
#[derive(Debug, Clone)]
struct Sample {
    /// When the request was encoded, and when its reply was decoded: the
    /// latency the caller sees.
    start: Instant,
    end: Instant,
    /// Frame written to reply frame read.
    roundtrip_ms: f64,
    encode_us: f64,
    decode_us: f64,
    request_bytes: usize,
    reply_bytes: usize,
    error: Option<String>,
}

/// What one load phase measured.
struct Load {
    samples: Vec<Sample>,
    busy_retries: u64,
    started: Instant,
    wall: Duration,
}

/// Hands out request types in seeded cycles; starts another cycle only
/// while one more of the mean length fits in the budget.
struct Cursor<'m> {
    mix: &'m Mix,
    rng: Rng,
    cycle: Vec<usize>,
    pos: usize,
    cycles: u32,
    started: Instant,
    budget: Duration,
    done: bool,
}

impl Cursor<'_> {
    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        if self.pos == self.cycle.len() {
            let elapsed = self.started.elapsed();
            if self.cycles > 0 && elapsed + elapsed / self.cycles > self.budget {
                self.done = true;
                return None;
            }
            self.cycle = self.mix.cycle(&mut self.rng);
            self.pos = 0;
            self.cycles += 1;
        }
        self.pos += 1;
        Some(self.cycle[self.pos - 1])
    }
}

/// Closed-loop load: each connection sends its next request when the
/// previous reply has arrived.
fn load(
    daemon: &Daemon,
    ops: &[Op],
    mix: &Mix,
    rng: Rng,
    budget: Duration,
    tracer: &Tracer,
) -> Result<Load, String> {
    let load_span = tracer.span("bench.load", 0);
    let parent = load_span.id();
    let started = Instant::now();
    let cursor = Mutex::new(Cursor {
        mix,
        rng,
        cycle: Vec::new(),
        pos: 0,
        cycles: 0,
        started,
        budget,
        done: false,
    });
    let per_conn: Vec<Result<(Vec<Sample>, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let _conn = tracer.span_under("bench.conn", parent, c as u64);
                    let mut stream = daemon.connect()?;
                    let mut samples = Vec::new();
                    let mut busy = 0;
                    loop {
                        let next = cursor.lock().expect("cursor lock").next();
                        let Some(t) = next else { break };
                        let (sample, retries) = exchange(&mut stream, &ops[t], t as u64, tracer)
                            .map_err(|e| format!("connection {c}: {e}"))?;
                        busy += retries;
                        samples.push(sample);
                    }
                    Ok((samples, busy))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    drop(load_span);
    let mut out = Load {
        samples: Vec::new(),
        busy_retries: 0,
        started,
        wall,
    };
    for r in per_conn {
        let (samples, busy) = r?;
        out.samples.extend(samples);
        out.busy_retries += busy;
    }
    Ok(out)
}

/// Sends one request and reads its reply, retrying while the daemon
/// answers Busy; returns the sample and the number of Busy replies.
fn exchange(
    stream: &mut TcpStream,
    op: &Op,
    id: u64,
    tracer: &Tracer,
) -> io::Result<(Sample, u64)> {
    let start = Instant::now();
    let mut busy = 0;
    loop {
        let payload = {
            let _s = tracer.span("serve.encode_request", id);
            encode_request(&op.envelope)
        };
        let encoded = Instant::now();
        let reply = {
            let _s = tracer.span("serve.roundtrip", id);
            write_frame(stream, &payload)?;
            read_frame(stream).map_err(|e| io::Error::other(e.to_string()))?
        };
        let replied = Instant::now();
        let decoded = {
            let _s = tracer.span("serve.decode_response", id);
            decode_response(&reply)
        };
        let done = Instant::now();
        if matches!(decoded, Ok(Response::Busy)) {
            busy += 1;
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let _s = tracer.span("bench.verify", id);
        let error = match decoded {
            Err(e) => Some(format!("undecodable reply: {e}")),
            Ok(_) if reply != op.expected => Some(format!(
                "reply to {} differs from the in-process reply",
                op.envelope.request.kind_name()
            )),
            Ok(_) => None,
        };
        let sample = Sample {
            start,
            end: done,
            roundtrip_ms: ms(replied - encoded),
            encode_us: (encoded - start).as_secs_f64() * 1e6,
            decode_us: (done - replied).as_secs_f64() * 1e6,
            request_bytes: payload.len(),
            reply_bytes: reply.len(),
            error,
        };
        return Ok((sample, busy));
    }
}

/// Starts a daemon and, for the hot workload, fills its cache with one
/// untimed request per artifact. Returns the daemon, when set-up started
/// and ended, and the number of warm-pass requests.
fn set_up(
    flavor: Flavor,
    bin: &Path,
    dir: &Path,
    tag: &str,
    extra: &[String],
    ops: &[Op],
    report: &mut Report,
) -> Result<(Daemon, (Instant, Instant), usize), String> {
    let t = Instant::now();
    let daemon = Daemon::start(bin, dir, tag, extra)?;
    let mut warm = 0;
    if flavor == Flavor::Hot {
        let mut stream = daemon.connect()?;
        for (i, op) in ops.iter().enumerate() {
            let (sample, _) = exchange(&mut stream, op, i as u64, &Tracer::new(false))
                .map_err(|e| format!("warm pass: {e}"))?;
            report.check(sample.error.is_none(), || {
                format!("warm pass: {:?}", sample.error)
            });
            warm += 1;
        }
    }
    Ok((daemon, (t, Instant::now()), warm))
}

fn daemon_flags(flavor: Flavor) -> Vec<String> {
    match flavor {
        Flavor::Cold => vec!["--cache-cap".into(), "0".into()],
        Flavor::Hot => Vec::new(),
    }
}

fn count_samples(report: &mut Report, load: &Load) {
    for s in &load.samples {
        report.op(s.error.clone());
    }
}

/// `serve-cold` and `serve-hot`.
///
/// # Errors
/// A failure that leaves nothing to measure.
pub fn serve(
    flavor: Flavor,
    args: &RunArgs,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("the serve workloads need --serve-bin")?;
    let (reqs, mix) = requests(flavor);
    let dir = &args.work_dir;
    let flags = daemon_flags(flavor);
    let root = tracer.span(trace::ROOT, 0);
    let (ops, path_texts) = reference(flavor, reqs, tracer, report)?;

    if !tracer.enabled() {
        drop(root);
        // Kernel samples on a thread of their own: the work happens in the
        // daemon, on whichever core is free.
        let sampler = Sampler::default();
        let stop = AtomicBool::new(false);
        let m = std::thread::scope(|scope| {
            scope.spawn(|| sampler.run(&stop, CALIB_PERIOD));
            let _stop = StopOnDrop(&stop);
            measure(flavor, args, bin, &flags, &ops, &mix, report)
        })?;
        // Every time in reference units, scaled by the kernel samples
        // taken while it ran.
        let over = |from: Instant, to: Instant| sampler.scale_over(from - CALIB_PERIOD, to);
        let mut setups = Vec::with_capacity(m.setups.len());
        for &(from, to) in &m.setups {
            setups.push((to - from).as_secs_f64() * over(from, to)?);
        }
        let mut latencies = Vec::with_capacity(m.load.samples.len());
        for s in &m.load.samples {
            latencies.push(ms(s.end - s.start) * over(s.start, s.end)?);
        }
        let wall_s =
            m.load.wall.as_secs_f64() * over(m.load.started, m.load.started + m.load.wall)?;
        report.set(
            "setup_s",
            stats::median(&setups).expect("set up at least once"),
        );
        report.set("ops_per_s", latencies.len() as f64 / wall_s);
        report.set("p50_ms", stats::median(&latencies).ok_or("no requests")?);
        report.set("p90_ms", stats::percentile(&latencies, 90.0)?);
        report.set("peak_rss_mb", m.rss_mb);
        return Ok(());
    }

    // Traced: the first half of the budget without tracing, for the
    // overhead figure; the second half with client spans and the
    // daemon's access log.
    let half = args.seconds / 2;
    let plain = {
        let _s = tracer.span(trace::UNTRACED, 0);
        let (daemon, _, _) = set_up(flavor, bin, dir, "untraced", &flags, &ops, report)?;
        let plain = load(
            &daemon,
            &ops,
            &mix,
            Rng::new(args.seed),
            half,
            &Tracer::new(false),
        )?;
        daemon.stop()?;
        plain
    };
    count_samples(report, &plain);

    let log_path = dir.join("access.jsonl");
    let mut traced_flags = flags.clone();
    traced_flags.extend(["--access-log".to_string(), log_path.display().to_string()]);
    let (daemon, _, warm) = {
        let _s = tracer.span("bench.setup", 0);
        set_up(flavor, bin, dir, "traced", &traced_flags, &ops, report)?
    };
    let before = daemon.health()?;
    let traced = load(&daemon, &ops, &mix, Rng::new(args.seed ^ 1), half, tracer)?;
    let after = daemon.health()?;
    {
        let _s = tracer.span("bench.setup", 0);
        daemon.stop()?;
    }
    count_samples(report, &traced);
    check_cache(flavor, &before, &after, report);

    let text_bytes = text_round_trip(tracer, &path_texts, report);
    drop(root);

    let spans = tracer.spans();
    let med = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        stats::median(&v).unwrap_or(0.0)
    };
    report.set("serve.service_miss_ms", med("serve.execute_miss"));
    report.set("serve.service_hit_ms", med("serve.execute_hit"));
    let records = measured_records(&log_path, warm, &traced, report)?;
    let queue: Vec<f64> = records.iter().map(|r| r.queue_wait_ms).collect();
    let service: Vec<f64> = records.iter().map(|r| r.service_ms).collect();
    report.set(
        "serve.queue_wait_p50_ms",
        stats::median(&queue).ok_or("empty access log")?,
    );
    report.set("serve.queue_wait_p90_ms", stats::percentile(&queue, 90.0)?);
    report.set(
        "serve.service_p50_ms",
        stats::median(&service).ok_or("empty access log")?,
    );
    report.set("serve.service_p90_ms", stats::percentile(&service, 90.0)?);
    // Client round trip minus the daemon's own first-byte-to-reply time,
    // as a mean: both sums cover exactly the same requests.
    let n = traced.samples.len() as f64;
    let roundtrip: f64 = traced.samples.iter().map(|s| s.roundtrip_ms).sum();
    let daemon_total: f64 = records.iter().map(|r| r.total_ms).sum();
    report.set("serve.transport_ms", (roundtrip - daemon_total) / n);
    let encode: Vec<f64> = traced.samples.iter().map(|s| s.encode_us).collect();
    let decode: Vec<f64> = traced.samples.iter().map(|s| s.decode_us).collect();
    report.set(
        "serve.encode_request_us",
        stats::median(&encode).unwrap_or(0.0),
    );
    report.set(
        "serve.decode_response_us",
        stats::median(&decode).unwrap_or(0.0),
    );
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    report.set(
        "serve.cache_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    report.set(
        "serve.cache_evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
    report.set(
        "serve.pgo_recompiles",
        (after.recompiles - before.recompiles) as f64,
    );
    report.set("serve.busy_retries", traced.busy_retries as f64);
    report.set(
        "serve.request_bytes",
        traced
            .samples
            .iter()
            .map(|s| s.request_bytes as f64)
            .sum::<f64>()
            / n,
    );
    report.set(
        "serve.reply_bytes",
        traced
            .samples
            .iter()
            .map(|s| s.reply_bytes as f64)
            .sum::<f64>()
            / n,
    );
    let folded = trace::fold(&spans);
    let self_ms = |name: &str| folded.get(name).map_or(0.0, |f| f.self_ns as f64 / 1e6);
    report.set("profile.path_text_bytes", text_bytes as f64);
    report.set(
        "profile.path_from_text_ms",
        self_ms("profile.path_from_text"),
    );
    report.set("profile.path_to_text_ms", self_ms("profile.path_to_text"));
    let mean = |l: &Load| {
        l.samples.iter().map(|s| ms(s.end - s.start)).sum::<f64>() / l.samples.len() as f64
    };
    crate::report_trace(report, tracer, 100.0 * (mean(&traced) / mean(&plain) - 1.0));
    Ok(())
}

/// Path-profile text as the daemon handles it: parsed when a Compile
/// carries a client profile, printed for a Profile reply. Each text must
/// print back unchanged. Returns the texts' total size.
fn text_round_trip(tracer: &Tracer, texts: &[String], report: &mut Report) -> usize {
    if texts.is_empty() {
        return 0;
    }
    let _s = tracer.span("bench.subpass", 0);
    for (i, text) in texts.iter().enumerate() {
        let parsed = {
            let _s = tracer.span("profile.path_from_text", i as u64);
            path_from_text(text)
        };
        let printed = parsed.map(|p| {
            let _s = tracer.span("profile.path_to_text", i as u64);
            path_to_text(&p)
        });
        report.check(printed.as_ref() == Ok(text), || {
            format!("{}: path profile text does not round-trip", BENCHES[i])
        });
    }
    texts.iter().map(String::len).sum()
}

/// Stops the calibration sampler however the measurement ends.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// What an untraced run measured.
struct Measured {
    /// When each set-up started and ended.
    setups: Vec<(Instant, Instant)>,
    load: Load,
    rss_mb: f64,
}

/// Sets the daemon up [`Flavor::setups`] times (the median is the set-up
/// time), then drives the last one for the run's budget.
fn measure(
    flavor: Flavor,
    args: &RunArgs,
    bin: &Path,
    flags: &[String],
    ops: &[Op],
    mix: &Mix,
    report: &mut Report,
) -> Result<Measured, String> {
    let mut setups = Vec::with_capacity(flavor.setups());
    let mut last = None;
    for i in 0..flavor.setups() {
        let (daemon, took, _) = set_up(
            flavor,
            bin,
            &args.work_dir,
            &format!("setup{i}"),
            flags,
            ops,
            report,
        )?;
        setups.push(took);
        if let Some(prev) = last.replace(daemon) {
            Daemon::stop(prev)?;
        }
    }
    let daemon = last.expect("set up at least once");
    let before = daemon.health()?;
    let load = load(
        &daemon,
        ops,
        mix,
        Rng::new(args.seed),
        args.seconds,
        &Tracer::new(false),
    )?;
    let after = daemon.health()?;
    let rss_mb = peak_rss_mb(daemon.child.id()).ok_or("no VmHWM for pps-serve")?;
    daemon.stop()?;
    count_samples(report, &load);
    check_cache(flavor, &before, &after, report);
    Ok(Measured {
        setups,
        load,
        rss_mb,
    })
}

/// The cache counters must match the workload: untouched with the cache
/// off, no evictions with it on (it holds every artifact).
fn check_cache(
    flavor: Flavor,
    before: &HealthSnapshot,
    after: &HealthSnapshot,
    report: &mut Report,
) {
    let lookups = after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses;
    let evictions = after.cache_evictions - before.cache_evictions;
    match flavor {
        Flavor::Cold => report.check(lookups == 0, || format!("cache off, yet {lookups} lookups")),
        Flavor::Hot => report.check(evictions == 0, || {
            format!("{evictions} evictions from a warm cache")
        }),
    }
}

/// The access-log lines of the measured requests: every request line after
/// the warm pass, Busy replies left out. Their number must equal the
/// replies the client got.
fn measured_records(
    path: &Path,
    warm: usize,
    load: &Load,
    report: &mut Report,
) -> Result<Vec<AccessRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records: Vec<AccessRecord> = text
        .lines()
        .map(accesslog::parse_line)
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .filter(|r| matches!(r.kind.as_str(), "profile" | "compile" | "runcell") && r.retcode != 1)
        .skip(warm)
        .collect();
    report.check(records.len() == load.samples.len(), || {
        format!(
            "access log has {} measured lines for {} replies",
            records.len(),
            load.samples.len()
        )
    });
    report.check(records.iter().all(|r| r.retcode == 0), || {
        "access log shows error replies".into()
    });
    Ok(records)
}
