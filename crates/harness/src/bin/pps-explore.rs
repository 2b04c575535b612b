//! Developer tool: dump what formation and compaction did to a benchmark.
//!
//! ```text
//! pps-explore --bench wc [--scheme P4] [--scale N] [--ir] [--dot] [--schedules]
//!             [--trace-out FILE] [--metrics-out FILE] [--log-level LEVEL]
//! ```
//!
//! Prints per-procedure superblock summaries (blocks, sizes, schedules) and
//! optionally the transformed program's textual IR or Graphviz CFGs. The
//! benchmark is compiled exactly as `pps-harness` and the daemon compile it
//! (`pps_eval::runner::{train, compile}`: guarded, `Px4` inlined first,
//! no training run for `BB`).
//! `--trace-out` / `--metrics-out` record the compile the same way
//! `pps-harness` does (Chrome-trace JSON / metrics JSON).

use pps_core::Scheme;
use pps_eval::runner::{compile, train, Compiled, RunConfig, Trained};
use pps_obs::{Level, Obs, ObsConfig};
use pps_profile::DEFAULT_PATH_DEPTH;
use pps_suite::{benchmark_by_name, Scale};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: pps-explore --bench NAME [--scheme BB|M4|M16|P4|P4e|Pk2|Pk3|Px4] [--scale N] \
         [--ir] [--dot] [--schedules] \
         [--trace-out FILE] [--metrics-out FILE] [--log-level off|error|warn|info|debug]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_name = None;
    let mut scheme = Scheme::P4;
    let mut scale = Scale(2);
    let mut show_ir = false;
    let mut show_dot = false;
    let mut show_schedules = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut level = Level::Info;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" | "-b" => bench_name = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--scheme" => {
                scheme = Scheme::parse(it.next().unwrap_or_else(|| usage()))
                    .unwrap_or_else(|| usage())
            }
            "--scale" | "-s" => {
                scale = Scale(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--ir" => show_ir = true,
            "--dot" => show_dot = true,
            "--schedules" => show_schedules = true,
            "--trace-out" => trace_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--metrics-out" => metrics_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--log-level" => {
                level = Level::parse(it.next().unwrap_or_else(|| usage()))
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    let Some(bench_name) = bench_name else { usage() };
    let Some(bench) = benchmark_by_name(&bench_name, scale) else {
        eprintln!("unknown benchmark `{bench_name}`");
        return ExitCode::FAILURE;
    };

    let obs = Obs::recording(ObsConfig {
        level,
        trace: trace_out.is_some(),
        metrics: metrics_out.is_some(),
    });
    let root = obs
        .span("pps-explore")
        .arg("bench", bench_name.as_str())
        .arg("scheme", scheme.name());

    // The one train → inline → compile path the harness and the daemon
    // take: train the scheme's profile kind (none for `BB`, which reads no
    // profile), then (`Px4`) inline and retrain, then form and compact
    // behind the guard.
    let trained = if !scheme.needs_profile() {
        Trained::empty()
    } else {
        let _profile_span = obs.span("profile");
        match train(&bench.program, &bench.train_args, DEFAULT_PATH_DEPTH, scheme.kpath_k()) {
            Ok(trained) => trained,
            Err(e) => {
                eprintln!("{bench_name}: train run: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let (Some(k), Some(kprof)) = (scheme.kpath_k(), &trained.kpath) {
        println!(
            "k-path profile (k={k}): {} distinct paths across {} procs",
            (0..kprof.num_procs())
                .map(|p| kprof.distinct_paths(pps_ir::ProcId::new(p as u32)))
                .sum::<usize>(),
            kprof.num_procs(),
        );
    }
    let config = RunConfig::paper();
    let compiled = match compile(&bench, scheme, &trained.edge, &trained.path, &config, &obs) {
        Ok(compiled) => compiled,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(outcome) = &compiled.inline {
        println!(
            "inline phase: {} sites inlined, {} rolled back, {} skipped",
            outcome.inlined.len(),
            outcome.rolled_back,
            outcome.skipped,
        );
    }
    let Compiled { program, guarded, .. } = compiled;
    let stats = &guarded.stats;
    println!(
        "benchmark {bench_name}, scheme {}: {} superblocks, static {} -> {} instrs, \
         {} tail-dup + {} enlargement blocks, {} splits",
        scheme.name(),
        stats.superblocks,
        stats.static_before,
        stats.static_after,
        stats.tail_dup_blocks,
        stats.enlarged_blocks,
        stats.splits,
    );
    // A clean compile prints nothing here; degraded procedures name
    // themselves so a dump never silently shows basic-block code.
    for incident in &guarded.report.incidents {
        println!("guard incident: {incident}");
    }

    let compacted = guarded.compacted;
    for (pid, proc) in program.iter_procs() {
        let cp = compacted.proc(pid);
        println!("\nproc {} ({} blocks, {} superblocks):", proc.name, proc.blocks.len(), cp.superblocks.len());
        for (i, sb) in cp.superblocks.iter().enumerate() {
            let s = &sb.schedule;
            println!(
                "  sb{i}: head {}, {} blocks, {} instrs in {} cycles",
                sb.spec.head(),
                sb.spec.len(),
                s.n_items,
                s.n_cycles
            );
            if show_schedules {
                for (pos, &b) in sb.spec.blocks.iter().enumerate() {
                    match s.exit_cycles[pos] {
                        Some(c) => println!(
                            "      {b} exit@cycle {c} (fetch {} instrs)",
                            s.fetch_counts[pos]
                        ),
                        None => println!("      {b} (internal jump, elided)"),
                    }
                }
            }
        }
        if show_dot {
            println!("\n{}", pps_ir::dot::proc_to_dot(proc));
        }
    }
    if show_ir {
        println!("\n=== transformed program ===\n{}", pps_ir::text::print_program(&program));
    }
    drop(root);
    if let Some(p) = &trace_out {
        if let Err(e) = obs.write_trace(p) {
            eprintln!("[pps error] writing trace to {p}: {e}");
            return ExitCode::FAILURE;
        }
        obs.log(Level::Info, || format!("trace written to {p}"));
    }
    if let Some(p) = &metrics_out {
        if let Err(e) = obs.write_metrics(p) {
            eprintln!("[pps error] writing metrics to {p}: {e}");
            return ExitCode::FAILURE;
        }
        obs.log(Level::Info, || format!("metrics written to {p}"));
    }
    ExitCode::SUCCESS
}
