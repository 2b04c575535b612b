//! `pps-bench`: runs the benchmark's workloads and compares result sets.
//! `run.sh` next to this crate builds everything and calls it.
//!
//! ```text
//! pps-bench run --workload W --seed N --seconds S --trace 0|1
//!               [--serve-bin FILE] [--work-dir DIR] [--out DIR] [--spec FILE]
//! pps-bench suite --seed N --out DIR [--serve-bin FILE] [--work-dir DIR] [--spec FILE]
//! pps-bench agree DIR_A DIR_B [--spec FILE]
//! pps-bench spread FILE... [--spec FILE]
//! ```
//!
//! `run` prints one JSON result line last on stdout and exits 0 when every
//! check passed, 1 when a check failed, and 2 without a result line on bad
//! usage or when nothing could be measured. `suite` runs every workload
//! untraced three times (interleaved, seeds N, N+1, N+2) and then traced,
//! each run in a child process, writes the result lines and a summary
//! into DIR, and prints the summary.

use pps_perfbench::report::{Report, Spec};
use pps_perfbench::serve::Flavor;
use pps_perfbench::trace::{self, Tracer};
use pps_perfbench::{offline, results, serve, RunArgs};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pps-bench run --workload W --seed N --seconds S --trace 0|1\n\
         \x20                    [--serve-bin FILE] [--work-dir DIR] [--out DIR] [--spec FILE]\n\
         \x20      pps-bench suite --seed N --out DIR [--serve-bin FILE] [--work-dir DIR] [--spec FILE]\n\
         \x20      pps-bench agree DIR_A DIR_B [--spec FILE]\n\
         \x20      pps-bench spread FILE... [--spec FILE]"
    );
    ExitCode::from(2)
}

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("[pps-bench] {message}");
    ExitCode::from(2)
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--name value` pairs and positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Option<Args> {
        let mut out = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => out.flags.push((name.to_string(), it.next()?.clone())),
                None => out.positional.push(a.clone()),
            }
        }
        Some(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when every flag is one of `known`.
    fn only(&self, known: &[&str]) -> bool {
        self.flags.iter().all(|(n, _)| known.contains(&n.as_str()))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(args) = Args::parse(rest) else {
        return usage();
    };
    let spec_path = args.get("spec").unwrap_or("BENCHMARK.json").to_string();
    let spec = match Spec::load(&spec_path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let positional = args.positional.as_slice();
    match cmd.as_str() {
        "run" if positional.is_empty() => match run_args(&args) {
            Some(run) => run_workload(&spec, &run),
            None => usage(),
        },
        "suite" if positional.is_empty() => suite(&spec, &spec_path, &args),
        "agree" if positional.len() == 2 && args.only(&["spec"]) => {
            let load = |d: &str| results::load_dir(Path::new(d));
            match (load(&positional[0]), load(&positional[1])) {
                (Ok(a), Ok(b)) => {
                    let (table, ok) = results::agree(&spec, &a, &b);
                    print!("{table}");
                    exit(ok)
                }
                (Err(e), _) | (_, Err(e)) => fail(e),
            }
        }
        "spread" if !positional.is_empty() && args.only(&["spec"]) => {
            match results::load_files(positional) {
                Ok(runs) => {
                    let (table, ok) = results::spread(&spec, &runs);
                    print!("{table}");
                    exit(ok)
                }
                Err(e) => fail(e),
            }
        }
        _ => usage(),
    }
}

fn run_args(args: &Args) -> Option<RunArgs> {
    let known = [
        "workload",
        "seed",
        "seconds",
        "trace",
        "serve-bin",
        "work-dir",
        "out",
        "spec",
    ];
    if !args.only(&known) {
        return None;
    }
    let seconds: u64 = args.get("seconds")?.parse().ok().filter(|&s| s > 0)?;
    Some(RunArgs {
        workload: args.get("workload")?.to_string(),
        seed: args.get("seed")?.parse().ok()?,
        seconds: Duration::from_secs(seconds),
        traced: match args.get("trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
        serve_bin: args.get("serve-bin").map(PathBuf::from),
        work_dir: PathBuf::from(args.get("work-dir").unwrap_or("target/pps-bench-work"))
            .join(std::process::id().to_string()),
        out_dir: args.get("out").map(PathBuf::from),
    })
}

fn run_workload(spec: &Spec, args: &RunArgs) -> ExitCode {
    if !spec.workloads.contains(&args.workload) {
        return fail(format!("unknown workload `{}`", args.workload));
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        return fail(format!("{}: {e}", args.work_dir.display()));
    }
    let tracer = Tracer::new(args.traced);
    let mut report = Report::default();
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "paper-eval" => offline::paper_eval(args, &tracer, &mut report),
        "profile-s4" => offline::profile_s4(args, &tracer, &mut report),
        "serve-cold" => serve::serve(Flavor::Cold, args, &tracer, &mut report),
        "serve-hot" => serve::serve(Flavor::Hot, args, &tracer, &mut report),
        other => Err(format!("workload `{other}` has no implementation")),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = outcome {
        return fail(format!("{}: {e}", args.workload));
    }
    if args.traced {
        if let Err(e) = write_trace(args, &tracer, started.elapsed()) {
            return fail(e);
        }
    }
    let metrics = if args.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let line = match report.to_json(metrics, args.traced) {
        Ok(line) => line,
        Err(e) => return fail(e),
    };
    for e in &report.errors {
        eprintln!("[pps-bench] check failed: {e}");
    }
    println!("{line}");
    exit(report.correct())
}

/// Writes the Chrome trace and the folded self-time table of a traced run.
fn write_trace(args: &RunArgs, tracer: &Tracer, wall: Duration) -> Result<(), String> {
    let Some(dir) = &args.out_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spans = tracer.spans();
    let root_ns = trace::traced_wall_ns(&spans).unwrap_or(wall.as_nanos() as u64);
    let table = format!(
        "# {} seed {}: span self times folded by name. self_% is the share of the\n\
         # traced wall ({:.3} s), which leaves out the {} comparison phase; spans on\n\
         # concurrent connections overlap, so shares can pass 100%.\n{}",
        args.workload,
        args.seed,
        root_ns as f64 / 1e9,
        trace::UNTRACED,
        trace::folded_table(&trace::fold(&spans), root_ns)
    );
    let write = |name: String, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{}.selftime.txt", args.workload), &table)?;
    write(
        format!("{}.trace.json", args.workload),
        &trace::chrome_json(&spans),
    )
}

/// Untraced rounds per workload in a suite; the rounds interleave the
/// workloads, and each uses the next seed.
const ROUNDS: u64 = 3;

/// [`ROUNDS`] interleaved untraced rounds of every workload, then one
/// traced run of each, every run in a child process so its peak memory is
/// its own. Untraced results go to `<workload>.<seed>.json`, traced ones to
/// `<workload>.traced.json`.
fn suite(spec: &Spec, spec_path: &str, args: &Args) -> ExitCode {
    if !args.only(&["seed", "out", "serve-bin", "work-dir", "spec"]) {
        return usage();
    }
    let (Some(Ok(seed)), Some(out)) = (args.get("seed").map(str::parse::<u64>), args.get("out"))
    else {
        return usage();
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return fail(e),
    };
    let runs = (0..ROUNDS)
        .flat_map(|r| spec.workloads.iter().map(move |w| (w, seed + r, false)))
        .chain(spec.workloads.iter().map(|w| (w, seed, true)));
    let mut ok = true;
    for (w, seed, traced) in runs {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            w,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &spec.run_seconds.to_string(),
        ])
        .args(["--out", out, "--spec", spec_path])
        .stdout(Stdio::piped());
        for flag in ["serve-bin", "work-dir"] {
            if let Some(v) = args.get(flag) {
                cmd.arg(format!("--{flag}")).arg(v);
            }
        }
        let name = if traced {
            format!("{w}.traced.json")
        } else {
            format!("{w}.{seed}.json")
        };
        eprintln!("[pps-bench] {name}");
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => return fail(e),
        };
        ok &= output.status.success();
        let text = String::from_utf8_lossy(&output.stdout);
        let Some(line) = text.lines().last() else {
            eprintln!("[pps-bench] {w}: no result");
            ok = false;
            continue;
        };
        if let Err(e) = std::fs::write(Path::new(out).join(name), format!("{line}\n")) {
            return fail(e);
        }
    }
    let runs = match results::load_dir(Path::new(out)) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let summary = results::summary(spec, &runs);
    print!("{summary}");
    if let Err(e) = std::fs::write(Path::new(out).join("summary.txt"), &summary) {
        return fail(e);
    }
    exit(ok)
}
