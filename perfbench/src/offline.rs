//! The two offline workloads.
//!
//! - `paper-eval`: Table 1 then Figure 4, cell by cell. Untraced, each
//!   cell runs through the harness's serial sweep context
//!   (`RunCtx::run`: `ProfileCache::fill` then `run_scheme_obs`, the calls
//!   `pps-harness --jobs 1` makes per cell). Traced, each cell is
//!   re-decomposed into the public calls `run_scheme` makes, one span each.
//! - `profile-s4`: for every benchmark at scale 4, a plain run and the
//!   three profilers on the training input.
//!
//! Only whole passes are measured. `paper-eval` runs the tables in their
//! own order, so its seed is recorded but unused: the order a cell runs in
//! moves its time, and the median cell with it. The seed orders each
//! `profile-s4` pass.

use crate::calib;
use crate::mix::Rng;
use crate::report::Report;
use crate::trace::{self, Folded, Tracer};
use crate::{ms, passes, peak_rss_mb, stats, RunArgs};
use pps_compact::{try_compact_program, CompactConfig};
use pps_core::{
    form_program, guarded_form_and_compact, inline_hot_calls, GuardMode, InlineConfig, Scheme,
};
use pps_harness::experiments::{run_experiment_jobs_config, RunCtx};
use pps_harness::report::millions;
use pps_harness::RunConfig;
use pps_ir::interp::{ExecConfig, ExecResult, Interp};
use pps_ir::trace::TeeSink;
use pps_ir::{Exec, Program};
use pps_obs::Obs;
use pps_profile::{
    profile_pair_hash, profile_triple_hash, EdgeProfile, EdgeProfiler, KPathProfile, KPathProfiler,
    PathProfile, PathProfiler, DEFAULT_PATH_DEPTH,
};
use pps_sim::{simulate, Layout};
use pps_suite::{all_benchmarks, Benchmark, Scale};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Suite scale of `paper-eval`. A scale-2 pass takes about 5.5 s on the
/// reference host, so a run measures at least two passes: the 168 cells
/// that p90 needs. Scale 4 fits one pass, too few cells.
pub const PAPER_SCALE: u32 = 2;
/// Suite scale of `profile-s4`.
pub const PROFILE_SCALE: u32 = 4;
/// Times set-up is repeated; its median is `setup_s`.
const SETUPS: usize = 11;

const TABLE1: &[Scheme] = &[Scheme::BasicBlock];
const FIG4: &[Scheme] = &[
    Scheme::M4,
    Scheme::P4,
    Scheme::PK2,
    Scheme::PK3,
    Scheme::PX4,
];

/// Builds the suite [`SETUPS`] times: a user's set-up before the first
/// cell. Returns the suite and the median build time in reference seconds.
fn setup_suite(scale: Scale) -> (Vec<Benchmark>, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut benches = Vec::new();
    for _ in 0..SETUPS {
        // Free the previous build first, so every build starts from the
        // same heap; otherwise the builds alternate between two layouts.
        benches.clear();
        let speed = calib::scale(calib::kernel_ms());
        let t = Instant::now();
        benches = all_benchmarks(scale);
        times.push(t.elapsed().as_secs_f64() * speed);
    }
    (benches, stats::median(&times).expect("set-up ran"))
}

/// Self time of every span named `name`, per pass, in milliseconds.
fn per_pass_ms(folded: &BTreeMap<&'static str, Folded>, name: &str, passes: usize) -> f64 {
    folded
        .get(name)
        .map_or(0.0, |f| f.self_ns as f64 / 1e6 / passes as f64)
}

/// Untraced end-to-end metrics of an offline workload, from set-up and
/// operation times already in reference units (see [`crate::calib`]).
fn report_ops(report: &mut Report, setup_s: f64, latencies_ms: &[f64]) -> Result<(), String> {
    let total_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    report.set("setup_s", setup_s);
    report.set("ops_per_s", latencies_ms.len() as f64 / total_s);
    report.set(
        "p50_ms",
        stats::median(latencies_ms).ok_or("no operations")?,
    );
    report.set("p90_ms", stats::percentile(latencies_ms, 90.0)?);
    report.set(
        "peak_rss_mb",
        peak_rss_mb(std::process::id()).ok_or("no VmHWM")?,
    );
    Ok(())
}

/// Times `op` in milliseconds; with `calibrated`, in reference
/// milliseconds: its wall time scaled by a kernel run just before it.
fn timed<T>(calibrated: bool, op: impl FnOnce() -> T) -> (T, f64) {
    let speed = if calibrated {
        calib::scale(calib::kernel_ms())
    } else {
        1.0
    };
    let t = Instant::now();
    let out = op();
    (out, ms(t.elapsed()) * speed)
}

// ---------------------------------------------------------------- paper-eval

/// What the harness's own tables say a cell must produce.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    /// Exact cycles (Figure 4), or Table 1's cycles in millions.
    cycles: String,
    /// Table 1's static instruction count.
    static_instrs: Option<u64>,
}

/// Renders a cell's cycles the way its table does.
fn cycles_text(scheme: Scheme, cycles: u64) -> String {
    if scheme == Scheme::BasicBlock {
        millions(cycles)
    } else {
        cycles.to_string()
    }
}

type ExpectMap = HashMap<(String, String), Expected>;

/// Renders Table 1 and Figure 4 through `run_experiment_jobs_config` at
/// `--jobs 1`, the path `pps-harness` runs, and reads every cell's
/// expected cycles from the CSV.
fn reference_tables(scale: Scale) -> Result<ExpectMap, String> {
    let config = RunConfig::paper();
    let mut expect = ExpectMap::new();
    let mut tables = Vec::new();
    for id in ["table1", "fig4"] {
        let t = run_experiment_jobs_config(id, scale, None, &config, 1, &Obs::noop())
            .map_err(|e| format!("reference {id}: {e}"))?;
        if t.len() != 1 {
            return Err(format!("reference {id}: guard incidents were reported"));
        }
        tables.push(t[0].to_csv());
    }
    for line in tables[0].lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let size = f[1].parse().map_err(|_| format!("table1 row `{line}`"))?;
        let e = Expected {
            cycles: f[3].to_string(),
            static_instrs: Some(size),
        };
        expect.insert((f[0].to_string(), Scheme::BasicBlock.name()), e);
    }
    for line in tables[1].lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        for (i, scheme) in FIG4.iter().enumerate() {
            let e = Expected {
                cycles: f[1 + i].to_string(),
                static_instrs: None,
            };
            expect.insert((f[0].to_string(), scheme.name()), e);
        }
    }
    Ok(expect)
}

fn check_cell(
    expect: &ExpectMap,
    bench: &str,
    scheme: Scheme,
    cycles: u64,
    static_instrs: u64,
) -> Option<String> {
    let Some(e) = expect.get(&(bench.to_string(), scheme.name())) else {
        return Some(format!(
            "{bench} {}: not in the reference tables",
            scheme.name()
        ));
    };
    let got = cycles_text(scheme, cycles);
    if got != e.cycles || e.static_instrs.is_some_and(|s| s != static_instrs) {
        return Some(format!(
            "{bench} {}: cycles {got} size {static_instrs}, table says {} size {:?}",
            scheme.name(),
            e.cycles,
            e.static_instrs
        ));
    }
    None
}

/// `paper-eval`.
///
/// # Errors
/// A failure that leaves nothing to measure.
pub fn paper_eval(args: &RunArgs, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let scale = Scale(PAPER_SCALE);
    let (benches, setup_s) = setup_suite(scale);
    let expect = reference_tables(scale)?;
    if !tracer.enabled() {
        let mut latencies = Vec::new();
        passes(args.seconds, |_| {
            latencies.extend(harness_pass(&benches, &expect, report, true));
            Ok::<(), String>(())
        })?;
        return report_ops(report, setup_s, &latencies);
    }
    // The same work untraced, for the overhead figure.
    let untraced_wall: f64 = harness_pass(&benches, &expect, report, false).iter().sum();

    // Reference outputs of the untransformed programs on the test inputs,
    // from the tree-walking reference interpreter.
    let reference: Vec<Vec<i64>> = benches
        .iter()
        .map(|b| {
            Interp::new(&b.program, ExecConfig::default())
                .run(&b.test_args)
                .map(|r| r.output)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference run: {e}"))?;
    let mut acc = PaperTotals::default();
    let mut cell_walls: Vec<f64> = Vec::new();
    let root = tracer.span(trace::ROOT, 0);
    let pass_count = passes(args.seconds, |pass| {
        let mut wall = 0.0;
        let mut results: HashMap<(usize, String), CellOut> = HashMap::new();
        for schemes in [TABLE1, FIG4] {
            let mut profiles = TrainedProfiles::new();
            for (b, bench) in benches.iter().enumerate() {
                for &scheme in schemes {
                    let op = acc.cells;
                    let t = Instant::now();
                    let out = decomposed_cell(tracer, op, bench, scheme, &mut profiles);
                    wall += ms(t.elapsed());
                    let out = match out {
                        Ok(out) => out,
                        Err(e) => {
                            report.op(Some(e));
                            continue;
                        }
                    };
                    {
                        let _check = tracer.span("bench.check", op);
                        report.op(if out.incidents > 0 {
                            Some(format!("{} {}: guard incidents", bench.name, scheme.name()))
                        } else if out.output != reference[b] {
                            Some(format!(
                                "{} {}: test output differs from the reference interpreter",
                                bench.name,
                                scheme.name()
                            ))
                        } else {
                            check_cell(&expect, bench.name, scheme, out.cycles, out.static_instrs)
                        });
                        acc.add(&out);
                    }
                    subpass(tracer, op, bench, scheme, &out)?;
                    results.insert((b, scheme.name()), out);
                }
            }
        }
        if pass == 0 {
            acc.quality(&benches, &results)?;
        }
        cell_walls.push(wall);
        Ok::<(), String>(())
    })?
    .len();
    drop(root);

    let folded = trace::fold(&tracer.spans());
    let pp = |name: &str| per_pass_ms(&folded, name, pass_count);
    let n = pass_count as f64;
    for (metric, span) in [
        ("profile.path_train_ms", "profile.path_train"),
        ("profile.kpath2_train_ms", "profile.kpath2_train"),
        ("profile.kpath3_train_ms", "profile.kpath3_train"),
        ("profile.kpath_derive_ms", "profile.kpath_derive"),
        ("core.inline_ms", "core.inline"),
        ("core.guard_ms", "core.guard"),
        ("core.form_ms", "core.form"),
        ("compact.compact_ms", "compact.compact"),
        ("sim.layout_run_ms", "sim.layout_run"),
        ("sim.layout_ms", "sim.layout"),
        ("sim.test_run_ms", "sim.test_run"),
    ] {
        report.set(metric, pp(span));
    }
    report.set(
        "core.guard_overhead_ms",
        pp("core.guard") - pp("core.form") - pp("compact.compact"),
    );
    report.set("core.oracle_runs", acc.oracle_runs as f64 / n);
    report.set("core.incidents", acc.incidents as f64);
    report.set("core.superblocks", acc.superblocks as f64 / n);
    report.set("core.tail_dup_blocks", acc.tail_dup_blocks as f64 / n);
    report.set("core.enlarged_blocks", acc.enlarged_blocks as f64 / n);
    report.set("compact.static_instrs", acc.static_instrs as f64 / n);
    let sim_ms = pp("sim.layout_run") + pp("sim.test_run");
    report.set(
        "sim.mcycles_per_s",
        acc.sim_cycles as f64 / n / 1e6 / (sim_ms / 1e3),
    );
    report.set(
        "sim.icache_miss_rate",
        acc.icache_misses as f64 / acc.icache_accesses as f64,
    );
    report.set("sim.cycles_p4_over_m4", acc.p4_over_m4);
    report.set("sim.cycles_px4_over_m4", acc.px4_over_m4);
    report.set("compact.code_growth_p4", acc.code_growth_p4);
    let cells: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "harness.cell")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    report.set(
        "harness.cell_p50_ms",
        stats::median(&cells).ok_or("no cells")?,
    );
    report.set("harness.cell_p90_ms", stats::percentile(&cells, 90.0)?);
    let traced_wall = stats::median(&cell_walls).ok_or("no passes")?;
    crate::report_trace(report, tracer, 100.0 * (traced_wall / untraced_wall - 1.0));
    Ok(())
}

/// Trained profile pairs by (benchmark, k-iteration bound), as the
/// harness's `ProfileCache` keeps them for one experiment.
type TrainedProfiles = HashMap<(&'static str, Option<u32>), Arc<(EdgeProfile, PathProfile)>>;

/// One pass of Table 1 then Figure 4 through the harness's sweep context,
/// checking every cell against the reference tables. Returns each cell's
/// time in milliseconds, reference milliseconds when `calibrated`.
fn harness_pass(
    benches: &[Benchmark],
    expect: &ExpectMap,
    report: &mut Report,
    calibrated: bool,
) -> Vec<f64> {
    let mut latencies = Vec::new();
    for schemes in [TABLE1, FIG4] {
        // One sweep context per experiment, as each harness invocation
        // has: profiles train once per benchmark and kind.
        let mut ctx = RunCtx::paper(GuardMode::Degrade);
        for bench in benches {
            for &scheme in schemes {
                let (run, latency) = timed(calibrated, || ctx.run(bench, scheme));
                latencies.push(latency);
                report.op(match run {
                    Ok(r) if !r.guard.clean() => {
                        Some(format!("{} {}: guard incidents", bench.name, scheme.name()))
                    }
                    Ok(r) => check_cell(expect, bench.name, scheme, r.cycles, r.static_instrs),
                    Err(e) => Some(e.to_string()),
                });
            }
        }
    }
    latencies
}

/// One decomposed cell's results.
struct CellOut {
    cycles: u64,
    static_instrs: u64,
    output: Vec<i64>,
    incidents: usize,
    procs: usize,
    superblocks: u64,
    tail_dup_blocks: u64,
    enlarged_blocks: u64,
    sim_cycles: u64,
    icache: (u64, u64),
    /// The program formation started from (the inlined one for `Px4`).
    pre_guard: Option<Program>,
    pair: Arc<(EdgeProfile, PathProfile)>,
}

/// Sums over the cells of a traced run.
#[derive(Default)]
struct PaperTotals {
    cells: u64,
    oracle_runs: u64,
    incidents: u64,
    superblocks: u64,
    tail_dup_blocks: u64,
    enlarged_blocks: u64,
    static_instrs: u64,
    sim_cycles: u64,
    icache_misses: u64,
    icache_accesses: u64,
    p4_over_m4: f64,
    px4_over_m4: f64,
    code_growth_p4: f64,
}

impl PaperTotals {
    fn add(&mut self, out: &CellOut) {
        self.cells += 1;
        // One oracle run per procedure per oracle input (the training one).
        self.oracle_runs += out.procs as u64;
        self.incidents += out.incidents as u64;
        self.superblocks += out.superblocks;
        self.tail_dup_blocks += out.tail_dup_blocks;
        self.enlarged_blocks += out.enlarged_blocks;
        self.static_instrs += out.static_instrs;
        self.sim_cycles += out.sim_cycles;
        self.icache_misses += out.icache.0;
        self.icache_accesses += out.icache.1;
    }

    /// Figure 4's geometric means over the suite.
    fn quality(
        &mut self,
        benches: &[Benchmark],
        results: &HashMap<(usize, String), CellOut>,
    ) -> Result<(), String> {
        let get = |b: usize, s: Scheme| {
            results
                .get(&(b, s.name()))
                .ok_or_else(|| format!("{} {} missing", benches[b].name, s.name()))
        };
        let (mut p4, mut px4, mut growth) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0..benches.len() {
            let m4 = get(b, Scheme::M4)?.cycles as f64;
            p4.push(get(b, Scheme::P4)?.cycles as f64 / m4);
            px4.push(get(b, Scheme::PX4)?.cycles as f64 / m4);
            growth.push(
                get(b, Scheme::P4)?.static_instrs as f64
                    / get(b, Scheme::BasicBlock)?.static_instrs as f64,
            );
        }
        self.p4_over_m4 = stats::geomean(&p4).ok_or("no P4/M4 ratio")?;
        self.px4_over_m4 = stats::geomean(&px4).ok_or("no Px4/M4 ratio")?;
        self.code_growth_p4 = stats::geomean(&growth).ok_or("no code growth")?;
        Ok(())
    }
}

/// The compactor's configuration as `run_scheme` builds it: the run's
/// machine model overrides the compactor's own copy.
fn compact_config(config: &RunConfig) -> CompactConfig {
    CompactConfig {
        machine: config.machine,
        ..config.compact
    }
}

/// One training run feeding the edge and path profilers.
fn train_path(
    tracer: &Tracer,
    op: u64,
    program: &Program,
    args: &[i64],
) -> Result<(EdgeProfile, PathProfile, ExecResult), String> {
    let _s = tracer.span("profile.path_train", op);
    let mut tee = TeeSink::new(
        EdgeProfiler::new(program),
        PathProfiler::new(program, DEFAULT_PATH_DEPTH),
    );
    let out = Exec::new(program, ExecConfig::default())
        .run_traced(args, &mut tee)
        .map_err(|e| format!("path training run: {e}"))?;
    Ok((tee.a.finish(), tee.b.finish(), out))
}

/// One training run feeding the edge and k-iteration path profilers.
fn train_kpath(
    tracer: &Tracer,
    op: u64,
    program: &Program,
    args: &[i64],
    k: usize,
) -> Result<(EdgeProfile, KPathProfile, ExecResult), String> {
    let _s = tracer.span(
        if k == 2 {
            "profile.kpath2_train"
        } else {
            "profile.kpath3_train"
        },
        op,
    );
    let mut tee = TeeSink::new(EdgeProfiler::new(program), KPathProfiler::new(program, k));
    let out = Exec::new(program, ExecConfig::default())
        .run_traced(args, &mut tee)
        .map_err(|e| format!("k={k} training run: {e}"))?;
    Ok((tee.a.finish(), tee.b.finish(), out))
}

fn derive(tracer: &Tracer, op: u64, kprof: &KPathProfile) -> PathProfile {
    let _s = tracer.span("profile.kpath_derive", op);
    kprof.to_path_profile(DEFAULT_PATH_DEPTH)
}

/// The calls `run_scheme` makes for one cell, one span each, under a
/// `harness.cell` span. `profiles` plays the experiment's `ProfileCache`.
fn decomposed_cell(
    tracer: &Tracer,
    op: u64,
    bench: &Benchmark,
    scheme: Scheme,
    profiles: &mut TrainedProfiles,
) -> Result<CellOut, String> {
    let _cell = tracer.span("harness.cell", op);
    let fail = |e: String| format!("{} {}: {e}", bench.name, scheme.name());
    let config = RunConfig::paper();
    let key = (bench.name, scheme.kpath_k());
    let mut pair = match profiles.get(&key) {
        Some(pair) => Arc::clone(pair),
        None => {
            let pair = match scheme.kpath_k() {
                Some(k) => {
                    let (edge, kprof, _) =
                        train_kpath(tracer, op, &bench.program, &bench.train_args, k as usize)
                            .map_err(fail)?;
                    (edge, derive(tracer, op, &kprof))
                }
                None => {
                    let (edge, path, _) =
                        train_path(tracer, op, &bench.program, &bench.train_args).map_err(fail)?;
                    (edge, path)
                }
            };
            let pair = Arc::new(pair);
            profiles.insert(key, Arc::clone(&pair));
            pair
        }
    };
    let mut program = bench.program.clone();
    let mut pre_guard = None;
    if matches!(scheme, Scheme::Inter { .. }) {
        let outcome = {
            let _s = tracer.span("core.inline", op);
            let inline_config = InlineConfig {
                oracle_inputs: vec![bench.train_args.clone()],
                step_budget: config.guard.step_budget,
                ..InlineConfig::default()
            };
            inline_hot_calls(&mut program, &pair.0, &inline_config)
        };
        if !outcome.inlined.is_empty() {
            let (edge, path, _) =
                train_path(tracer, op, &program, &bench.train_args).map_err(fail)?;
            pair = Arc::new((edge, path));
        }
        let _s = tracer.span("bench.clone", op);
        pre_guard = Some(program.clone());
    }
    let compact_config = compact_config(&config);
    let mut guard = config.guard.clone();
    guard.oracle_inputs = vec![bench.train_args.clone()];
    let guarded = {
        let _s = tracer.span("core.guard", op);
        guarded_form_and_compact(
            &mut program,
            &pair.0,
            Some(&pair.1),
            scheme,
            &config.form,
            &compact_config,
            &guard,
        )
        .map_err(|e| fail(e.to_string()))?
    };
    let train_out = {
        let _s = tracer.span("sim.layout_run", op);
        simulate(
            &program,
            &guarded.compacted,
            &config.machine,
            None,
            &bench.train_args,
        )
        .map_err(|e| fail(format!("layout run: {e}")))?
    };
    let layout = {
        let _s = tracer.span("sim.layout", op);
        Layout::build(
            &program,
            &guarded.compacted,
            &train_out.transitions,
            &config.machine,
        )
    };
    let out = {
        let _s = tracer.span("sim.test_run", op);
        simulate(
            &program,
            &guarded.compacted,
            &config.machine,
            Some(&layout),
            &bench.test_args,
        )
        .map_err(|e| fail(format!("test run: {e}")))?
    };
    let icache = out
        .icache
        .as_ref()
        .map_or((0, 0), |c| (c.misses, c.accesses));
    Ok(CellOut {
        cycles: out.cycles,
        static_instrs: guarded.compacted.total_items(),
        output: out.exec.output,
        incidents: guarded.report.incidents.len(),
        procs: guarded.report.total_procs,
        superblocks: guarded.stats.superblocks,
        tail_dup_blocks: guarded.stats.tail_dup_blocks,
        enlarged_blocks: guarded.stats.enlarged_blocks,
        sim_cycles: train_out.cycles + out.cycles,
        icache,
        pre_guard,
        pair,
    })
}

/// Formation and compaction alone, on a copy of the cell's input program:
/// splits the guard's own cost out of `core.guard`. Not part of any cell.
fn subpass(
    tracer: &Tracer,
    op: u64,
    bench: &Benchmark,
    scheme: Scheme,
    out: &CellOut,
) -> Result<(), String> {
    let _s = tracer.span("bench.subpass", op);
    let config = RunConfig::paper();
    let compact_config = compact_config(&config);
    let mut program = out
        .pre_guard
        .clone()
        .unwrap_or_else(|| bench.program.clone());
    let formed = {
        let _s = tracer.span("core.form", op);
        form_program(
            &mut program,
            &out.pair.0,
            Some(&out.pair.1),
            scheme,
            &config.form,
        )
        .map_err(|e| format!("{} {} form: {e}", bench.name, scheme.name()))?
    };
    let _s = tracer.span("compact.compact", op);
    try_compact_program(&mut program, &formed.partition, &compact_config)
        .map_err(|e| format!("{} {} compact: {e}", bench.name, scheme.name()))?;
    Ok(())
}

// ---------------------------------------------------------------- profile-s4

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ProfOp {
    /// A plain run, no profiler.
    Plain,
    /// Edge and path (depth 15) profilers through one `TeeSink`.
    Path,
    /// Edge and k-iteration path profilers, then the derived path profile.
    KPath(usize),
}

const PROF_OPS: [ProfOp; 4] = [
    ProfOp::Plain,
    ProfOp::Path,
    ProfOp::KPath(2),
    ProfOp::KPath(3),
];

/// What one profiling operation produced, checked after it is timed.
struct ProfOut {
    result: ExecResult,
    profiles: Option<(EdgeProfile, PathProfile, Option<KPathProfile>)>,
}

fn profile_op(
    tracer: &Tracer,
    op: u64,
    bench: &Benchmark,
    kind: ProfOp,
) -> Result<ProfOut, String> {
    let (program, args) = (&bench.program, &bench.train_args);
    Ok(match kind {
        ProfOp::Plain => {
            let _s = tracer.span("ir.exec", op);
            let result = Exec::new(program, ExecConfig::default())
                .run(args)
                .map_err(|e| format!("{} plain run: {e}", bench.name))?;
            ProfOut {
                result,
                profiles: None,
            }
        }
        ProfOp::Path => {
            let (edge, path, result) = train_path(tracer, op, program, args)?;
            ProfOut {
                result,
                profiles: Some((edge, path, None)),
            }
        }
        ProfOp::KPath(k) => {
            let (edge, kprof, result) = train_kpath(tracer, op, program, args, k)?;
            let path = derive(tracer, op, &kprof);
            ProfOut {
                result,
                profiles: Some((edge, path, Some(kprof))),
            }
        }
    })
}

/// `profile-s4`.
///
/// # Errors
/// A failure that leaves nothing to measure.
pub fn profile_s4(args: &RunArgs, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let (benches, setup_s) = setup_suite(Scale(PROFILE_SCALE));
    // Reference outputs on the training inputs, from the reference
    // interpreter: every profiled run must reproduce them.
    let reference: Vec<Vec<i64>> = benches
        .iter()
        .map(|b| {
            Interp::new(&b.program, ExecConfig::default())
                .run(&b.train_args)
                .map(|r| r.output)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference run: {e}"))?;
    let mut run = ProfileRun {
        benches: &benches,
        reference,
        rng: Rng::new(args.seed),
        hashes: HashMap::new(),
        latencies: Vec::new(),
        plain_instrs: 0,
    };
    if !tracer.enabled() {
        passes(args.seconds, |i| {
            run.pass(tracer, i, report, true).map(drop)
        })?;
        return report_ops(report, setup_s, &run.latencies);
    }

    // One untraced pass first: the wall the traced passes are compared to.
    let untraced_wall = run.pass(&Tracer::new(false), 0, report, false)?;
    run.plain_instrs = 0;
    let mut walls = Vec::new();
    let root = tracer.span(trace::ROOT, 0);
    let pass_count = passes(args.seconds, |i| {
        walls.push(run.pass(tracer, i + 1, report, false)?);
        Ok::<(), String>(())
    })?
    .len();
    drop(root);

    let folded = trace::fold(&tracer.spans());
    let pp = |name: &str| per_pass_ms(&folded, name, pass_count);
    let instrs_per_pass = run.plain_instrs as f64 / pass_count as f64;
    report.set("ir.exec_ms", pp("ir.exec"));
    report.set(
        "ir.exec_minstr_per_s",
        instrs_per_pass / 1e3 / pp("ir.exec"),
    );
    report.set("profile.path_train_ms", pp("profile.path_train"));
    report.set("profile.kpath2_train_ms", pp("profile.kpath2_train"));
    report.set("profile.kpath3_train_ms", pp("profile.kpath3_train"));
    report.set("profile.kpath_derive_ms", pp("profile.kpath_derive"));
    report.set(
        "profile.path_overhead_x",
        pp("profile.path_train") / pp("ir.exec"),
    );
    report.set(
        "profile.kpath2_overhead_x",
        pp("profile.kpath2_train") / pp("ir.exec"),
    );
    let traced_wall = stats::median(&walls).ok_or("no passes")?;
    crate::report_trace(report, tracer, 100.0 * (traced_wall / untraced_wall - 1.0));
    Ok(())
}

/// State carried across the passes of a `profile-s4` run.
struct ProfileRun<'b> {
    benches: &'b [Benchmark],
    reference: Vec<Vec<i64>>,
    rng: Rng,
    /// Each (benchmark, profiler)'s profile hash from the first pass.
    hashes: HashMap<(usize, ProfOp), u64>,
    latencies: Vec<f64>,
    plain_instrs: u64,
}

impl ProfileRun<'_> {
    /// One pass over every (benchmark, profiler) pair in seeded order;
    /// returns the summed operation time in milliseconds (reference
    /// milliseconds when `calibrated`). Profile hashes cost about half a
    /// pass at this scale, so only the first two passes compute them: the
    /// second must repeat the first.
    fn pass(
        &mut self,
        tracer: &Tracer,
        pass: usize,
        report: &mut Report,
        calibrated: bool,
    ) -> Result<f64, String> {
        let mut ops: Vec<(usize, ProfOp)> = (0..self.benches.len())
            .flat_map(|b| PROF_OPS.map(|k| (b, k)))
            .collect();
        self.rng.shuffle(&mut ops);
        let mut total = 0.0;
        for (i, &(b, kind)) in ops.iter().enumerate() {
            let bench = &self.benches[b];
            let op = (pass * ops.len() + i) as u64;
            let (out, latency) = timed(calibrated, || profile_op(tracer, op, bench, kind));
            self.latencies.push(latency);
            total += latency;
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    report.op(Some(e));
                    continue;
                }
            };
            let _check = tracer.span("bench.check", op);
            if kind == ProfOp::Plain {
                self.plain_instrs += out.result.counts.instrs;
            }
            let hash = match &out.profiles {
                _ if pass > 1 => None,
                None => None,
                Some((edge, path, None)) => Some(profile_pair_hash(edge, path)),
                Some((edge, path, Some(kp))) => Some(profile_triple_hash(edge, path, kp)),
            };
            let first = hash.map(|h| *self.hashes.entry((b, kind)).or_insert(h));
            report.op(if out.result.output != self.reference[b] {
                Some(format!(
                    "{} {kind:?}: output differs from the reference interpreter",
                    bench.name
                ))
            } else if hash != first {
                Some(format!(
                    "{} {kind:?}: profile hash changed between passes",
                    bench.name
                ))
            } else {
                None
            });
        }
        Ok(total)
    }
}
