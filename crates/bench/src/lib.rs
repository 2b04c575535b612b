//! Criterion benchmarks, one target per paper table/figure plus component
//! ablations. Shared helpers live here; the bench targets are under
//! `benches/`.
//!
//! Each target measures the machinery that *regenerates* its table or
//! figure (the harness binary prints the actual rows):
//!
//! - `table1` — baseline (basic-block) compaction + timing simulation;
//! - `fig4` — the full guarded M4 and P4 pipelines with ideal I-cache
//!   timing;
//! - `fig5` — P4/P4e with layout + I-cache simulation;
//! - `fig6` — M16 vs P4e formation;
//! - `fig7` — dynamic superblock statistics collection;
//! - `profiler` — §3.1: general path profiling vs edge profiling vs plain
//!   execution (the O(1)-amortized-per-edge claim);
//! - `ablate` — compactor feature ablations (renaming, speculation,
//!   realistic latencies).

use pps_compact::{CompactConfig, CompactedProgram};
use pps_core::{guarded_form_and_compact, FormConfig, GuardConfig, Scheme};
use pps_ir::interp::ExecConfig;
use pps_ir::trace::TeeSink;
use pps_ir::{Exec, Program};
use pps_machine::MachineConfig;
use pps_profile::{EdgeProfile, EdgeProfiler, PathProfile, PathProfiler};
use pps_sim::{simulate, Layout, SimOutcome};
use pps_suite::Benchmark;

/// Profiles `bench` on its training input (one run, both profilers).
pub fn profile(bench: &Benchmark) -> (EdgeProfile, PathProfile) {
    let mut tee = TeeSink::new(
        EdgeProfiler::new(&bench.program),
        PathProfiler::new(&bench.program, 15),
    );
    Exec::new(&bench.program, ExecConfig::default())
        .run_traced(&bench.train_args, &mut tee)
        .expect("train run");
    (tee.a.finish(), tee.b.finish())
}

/// Formation + compaction behind the recovery boundary, with the training
/// input as the oracle input — the path `run_scheme` takes.
fn guarded_pipeline(
    bench: &Benchmark,
    program: &mut Program,
    scheme: Scheme,
    edge: &EdgeProfile,
    path: &PathProfile,
) -> CompactedProgram {
    let guard = GuardConfig {
        oracle_inputs: vec![bench.train_args.clone()],
        ..GuardConfig::default()
    };
    guarded_form_and_compact(
        program,
        edge,
        Some(path),
        scheme,
        &FormConfig::default(),
        &CompactConfig::default(),
        &guard,
    )
    .expect("pipeline")
    .compacted
}

/// Runs guarded formation + compaction for one scheme, returning the
/// transformed program and its timing on the testing input (ideal I-cache).
pub fn pipeline_ideal(
    bench: &Benchmark,
    scheme: Scheme,
    edge: &EdgeProfile,
    path: &PathProfile,
) -> (Program, SimOutcome) {
    let mut program = bench.program.clone();
    let compacted = guarded_pipeline(bench, &mut program, scheme, edge, path);
    let machine = MachineConfig::paper();
    let out = simulate(&program, &compacted, &machine, None, &bench.test_args)
        .expect("test run");
    (program, out)
}

/// Full methodology including layout + I-cache simulation.
pub fn pipeline_icache(bench: &Benchmark, scheme: Scheme) -> SimOutcome {
    let (edge, path) = profile(bench);
    let mut program = bench.program.clone();
    let compacted = guarded_pipeline(bench, &mut program, scheme, &edge, &path);
    let machine = MachineConfig::paper();
    let train = simulate(&program, &compacted, &machine, None, &bench.train_args)
        .expect("layout run");
    let layout = Layout::build(&program, &compacted, &train.transitions, &machine);
    simulate(&program, &compacted, &machine, Some(&layout), &bench.test_args)
        .expect("measured run")
}
