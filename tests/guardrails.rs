//! The guardrail property (ISSUE: fault-tolerant pipeline): drive hundreds
//! of generated programs through the *guarded* pipeline with a seeded
//! fault injector emulating a buggy pass between compaction and
//! verification, and prove the recovery boundary holds:
//!
//! - the pipeline never panics (panics inside formation/compaction are
//!   caught and converted to incidents);
//! - **every** injected effective fault is caught by the structural
//!   verifier or the differential oracle and recorded as an [`Incident`];
//! - in degrade mode the faulted procedure falls back to basic-block
//!   scheduling and the final program still matches the original's
//!   observable behavior exactly;
//! - in strict mode the same fault surfaces as a hard `Err`.
//!
//! Fault effectiveness and catchability line up because the injector only
//! commits corruptions that fail `verify_program` or observably diverge on
//! the same oracle inputs and step budget the guard uses.

use pps::compact::CompactConfig;
use pps::core::{
    form_and_compact, guarded_form_and_compact, guarded_form_and_compact_with, FormConfig,
    GuardConfig, GuardMode, OracleBaseline, Scheme,
};
use pps::eval::runner::{compile, Compiled, ProfileCache, RunConfig, Trained};
use pps::ir::interp::{ExecConfig, ExecResult, Interp};
use pps::ir::text::print_program;
use pps::ir::trace::TeeSink;
use pps::ir::verify::verify_program;
use pps::ir::{FaultInjector, Program};
use pps::obs::{json, Level, Obs, ObsConfig};
use pps::profile::{EdgeProfile, EdgeProfiler, PathProfile, PathProfiler};
use pps::suite::{all_benchmarks, Benchmark, Scale};
use pps::testgen::{gen_program, GenConfig};

const SEEDS: u64 = 200;
/// Testgen programs are dynamically bounded well below this (50k instrs).
const STEP_BUDGET: u64 = 200_000;
const INJECT_ATTEMPTS: u32 = 16;

fn schemes() -> [Scheme; 4] {
    [Scheme::P4, Scheme::M4, Scheme::P4E, Scheme::M16]
}

fn run(p: &Program) -> ExecResult {
    Interp::new(p, ExecConfig::default())
        .run(&[])
        .expect("generated programs never fault")
}

fn profile(p: &Program) -> (EdgeProfile, PathProfile) {
    let mut tee = TeeSink::new(EdgeProfiler::new(p), PathProfiler::new(p, 15));
    Interp::new(p, ExecConfig::default())
        .run_traced(&[], &mut tee)
        .expect("profiling run");
    (tee.a.finish(), tee.b.finish())
}

fn guard(mode: GuardMode) -> GuardConfig {
    GuardConfig {
        mode,
        oracle_inputs: vec![vec![]],
        step_budget: STEP_BUDGET,
        budget_factor: 8,
    }
}

/// The headline sweep: ≥200 generated programs, each transformed under the
/// guarded pipeline while a seeded injector corrupts the post-compaction IR
/// of every procedure it can. Every committed fault must be caught and
/// degraded away, and the surviving program must behave like the original.
#[test]
fn injected_faults_are_always_caught_and_degraded() {
    let oracle_inputs = vec![vec![]];
    let mut total_injected = 0usize;
    let mut strict_checked = 0usize;

    for seed in 0..SEEDS {
        let base = gen_program(seed, GenConfig::default());
        let scheme = schemes()[(seed % 4) as usize];
        let (edge, path) = profile(&base);
        let expected = run(&base);

        let mut program = base.clone();
        let mut injector = FaultInjector::new(seed ^ 0xBAD_5EED);
        let mut injected = Vec::new();
        let result = guarded_form_and_compact_with(
            &mut program,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &guard(GuardMode::Degrade),
            None,
            &Obs::noop(),
            Some(&mut |prog, pid| {
                if let Some(r) =
                    injector.inject_effective(prog, pid, &oracle_inputs, STEP_BUDGET, INJECT_ATTEMPTS)
                {
                    injected.push(r);
                }
            }),
        )
        .unwrap_or_else(|e| panic!("seed {seed} ({}): degrade mode must not fail: {e}", scheme.name()));

        // Every committed fault raised exactly one incident, with fallback.
        assert_eq!(
            result.report.incidents.len(),
            injected.len(),
            "seed {seed} ({}): faults {injected:?} vs incidents {:?}",
            scheme.name(),
            result.report.incidents
        );
        assert_eq!(result.report.degraded_procs, injected.len(), "seed {seed}");
        assert!(
            result.report.incidents.iter().all(|i| i.fallback),
            "seed {seed}: {:?}",
            result.report.incidents
        );
        total_injected += injected.len();

        // The recovered program is structurally valid, fully scheduled, and
        // behaves exactly like the original.
        verify_program(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(result.compacted.procs.len(), program.procs.len(), "seed {seed}");
        let got = run(&program);
        assert_eq!(expected.output, got.output, "seed {seed} ({})", scheme.name());
        assert_eq!(expected.return_value, got.return_value, "seed {seed}");
        assert_eq!(expected.memory, got.memory, "seed {seed}");

        // Strict mode on the same seed turns the first fault into a hard
        // Err (spot-check a bounded number to keep the sweep fast).
        if !injected.is_empty() && strict_checked < 25 {
            strict_checked += 1;
            let mut strict_program = base.clone();
            let mut strict_injector = FaultInjector::new(seed ^ 0xBAD_5EED);
            let err = guarded_form_and_compact_with(
                &mut strict_program,
                &edge,
                Some(&path),
                scheme,
                &FormConfig::default(),
                &CompactConfig::default(),
                &guard(GuardMode::Strict),
                None,
                &Obs::noop(),
                Some(&mut |prog, pid| {
                    let _ = strict_injector.inject_effective(
                        prog,
                        pid,
                        &oracle_inputs,
                        STEP_BUDGET,
                        INJECT_ATTEMPTS,
                    );
                }),
            );
            assert!(err.is_err(), "seed {seed}: strict mode must fail fast");
        }
    }

    // The sweep only proves something if the injector actually landed
    // faults; with 200 programs it lands many.
    assert!(
        total_injected >= 50,
        "only {total_injected} effective faults across {SEEDS} programs — injector too weak"
    );
    assert!(strict_checked > 0, "strict mode never exercised");
}

/// Clean-path property: without injected faults the guarded pipeline
/// reports clean, degrades nothing, and preserves behavior — the guard is
/// pure observation on healthy runs.
#[test]
fn clean_guarded_runs_report_clean_and_preserve_behavior() {
    for seed in 0..50u64 {
        let base = gen_program(seed, GenConfig::default());
        let scheme = schemes()[(seed % 4) as usize];
        let (edge, path) = profile(&base);
        let expected = run(&base);

        let mut program = base.clone();
        let result = guarded_form_and_compact(
            &mut program,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &guard(GuardMode::Strict),
        )
        .unwrap_or_else(|e| panic!("seed {seed} ({}): {e}", scheme.name()));

        assert!(result.report.clean(), "seed {seed}: {:?}", result.report);
        assert_eq!(result.report.total_procs, program.procs.len(), "seed {seed}");
        let got = run(&program);
        assert_eq!(expected.output, got.output, "seed {seed}");
        assert_eq!(expected.return_value, got.return_value, "seed {seed}");
        assert_eq!(expected.memory, got.memory, "seed {seed}");

        // A clean guarded run computes exactly what the unguarded pipeline
        // computes: same partition (the leading superblocks of each
        // procedure's schedule, ahead of compensation stubs), same
        // statistics, same program text.
        let mut unguarded = base.clone();
        let (compacted, stats) = form_and_compact(
            &mut unguarded,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
        )
        .unwrap_or_else(|e| panic!("seed {seed} ({}): unguarded: {e}", scheme.name()));
        assert_eq!(compacted.procs.len(), result.partition.len(), "seed {seed}");
        for (cp, specs) in compacted.procs.iter().zip(&result.partition) {
            let leading: Vec<_> =
                cp.superblocks.iter().take(specs.len()).map(|sb| sb.spec.clone()).collect();
            assert_eq!(&leading, specs, "seed {seed} ({}): partition", scheme.name());
        }
        assert_eq!(result.stats, stats, "seed {seed} ({}): stats", scheme.name());
        assert_eq!(
            print_program(&program),
            print_program(&unguarded),
            "seed {seed} ({}): program text",
            scheme.name()
        );
    }
}

/// Deferred-oracle exactness: the unhooked guard (one oracle pass over the
/// whole program) and a guard with a no-op post-pass hook (oracle settled
/// after every procedure), each with and without a precomputed shared
/// oracle baseline, ship the same program, partition, statistics, report
/// and input-0 edge profile (present in all or none, and equal) on every
/// generated program, in both modes.
#[test]
fn deferred_oracle_matches_per_procedure_oracle() {
    let mut profiled = 0;
    for seed in 0..SEEDS {
        let base = gen_program(seed, GenConfig::default());
        let scheme = schemes()[(seed % 4) as usize];
        let (edge, path) = profile(&base);
        for mode in [GuardMode::Degrade, GuardMode::Strict] {
            let config = guard(mode);
            let shared = OracleBaseline::compute(&base, &config.oracle_inputs, config.step_budget);
            let mut runs = Vec::new();
            for baseline in [None, Some(&shared)] {
                for hooked in [false, true] {
                    let mut program = base.clone();
                    let mut no_op = |_: &mut Program, _| {};
                    let result = guarded_form_and_compact_with(
                        &mut program,
                        &edge,
                        Some(&path),
                        scheme,
                        &FormConfig::default(),
                        &CompactConfig::default(),
                        &config,
                        baseline,
                        &Obs::noop(),
                        if hooked { Some(&mut no_op) } else { None },
                    )
                    .map(|r| {
                        (format!("{:?}\n{:?}\n{:?}", r.partition, r.stats, r.report), r.profile)
                    });
                    runs.push((result, print_program(&program)));
                }
            }
            profiled += usize::from(matches!(&runs[0].0, Ok((_, Some(_)))));
            for (i, run) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    run, &runs[0],
                    "seed {seed} ({}, {mode}): run {i} (baseline {}, hooked {})",
                    scheme.name(),
                    i >= 2,
                    i % 2 == 1
                );
            }
        }
    }
    assert!(profiled > 0, "no guarded run handed back a profile");
}

/// Number of `oracle-baseline` spans in `obs`'s trace: baselines some
/// layer computed itself.
fn baseline_spans(obs: &Obs) -> usize {
    let doc = json::parse(&obs.export_trace_json().expect("tracing enabled")).unwrap();
    doc.get("traceEvents")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("X")
                && e.get("name").and_then(|v| v.as_str()) == Some("oracle-baseline")
        })
        .count()
}

fn tracing() -> Obs {
    Obs::recording(ObsConfig { level: Level::Off, trace: true, metrics: false })
}

/// Everything a guarded compile ships, for comparison: the program, the
/// inline outcome, the schedules, the statistics and the incidents in
/// order, rendered; and the guard's input-0 profile (whose `Debug` order is
/// per instance).
fn shipped(compiled: &Compiled) -> (String, Option<EdgeProfile>) {
    let g = &compiled.guarded;
    let text = format!(
        "{}\n{:?}\n{:?}\n{:?}\n{:?}",
        print_program(&compiled.program),
        compiled.inline,
        g.compacted,
        g.stats,
        g.report.incidents,
    );
    (text, g.profile.clone())
}

/// `compile` of `bench` under `scheme` against the pair `config` carries
/// (empty profiles for `BB`), with the number of baselines it ran itself.
fn compile_counting(
    bench: &Benchmark,
    scheme: Scheme,
    config: &RunConfig,
) -> (Result<Compiled, String>, usize) {
    let empty = Trained::empty().into_pair();
    let pair = config.preloaded.as_deref().unwrap_or(&empty);
    let obs = tracing();
    let result = compile(bench, scheme, &pair.0, &pair.1, config, &obs).map_err(|e| e.to_string());
    (result, baseline_spans(&obs))
}

/// One bounded oracle baseline per benchmark serves every scheme: over the
/// suite at scale 1, for `BB`, `M4`, `P4`, `Pk2` and `Px4` with fault seeds
/// none/1/7/42, a compile handed the `ProfileCache`'s baseline ships
/// exactly what one without it ships — and runs no baseline of its own,
/// except the guard of a `Px4` program the inliner changed. Two threads
/// share the benchmark × scheme cells, costliest benchmarks first (the
/// fault-seeded gcc cells dominate).
#[test]
fn shared_oracle_baseline_changes_no_guarded_result() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let mut benches = all_benchmarks(Scale(1));
    benches.sort_by_key(|b| std::cmp::Reverse(b.program.static_size()));
    let caches: Vec<ProfileCache> = benches.iter().map(|_| ProfileCache::default()).collect();
    let schemes = [Scheme::BasicBlock, Scheme::M4, Scheme::P4, Scheme::PK2, Scheme::PX4];
    let next = AtomicUsize::new(0);
    let faulted: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut faulted = 0;
                    loop {
                        let cell = next.fetch_add(1, Ordering::Relaxed);
                        let Some(bench) = benches.get(cell / schemes.len()) else {
                            return faulted;
                        };
                        let cache = &caches[cell / schemes.len()];
                        faulted += shared_baseline_cell(bench, schemes[cell % schemes.len()], cache);
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker panicked")).sum()
    });
    assert!(faulted > 0, "no fault seed produced an incident");
}

/// One benchmark × scheme cell of
/// [`shared_oracle_baseline_changes_no_guarded_result`]; returns how many
/// of its fault seeds produced incidents.
fn shared_baseline_cell(bench: &Benchmark, scheme: Scheme, cache: &ProfileCache) -> usize {
    let shared = cache.fill(bench, scheme, &RunConfig::paper(), &Obs::noop()).unwrap();
    assert!(shared.baseline.is_some(), "{} {}", bench.name, scheme.name());
    assert_eq!(shared.preloaded.is_some(), scheme != Scheme::BasicBlock);
    let mut faulted = 0;
    for fault_seed in [None, Some(1), Some(7), Some(42)] {
        let with = RunConfig { fault_seed, ..shared.clone() };
        let without = RunConfig { baseline: None, ..with.clone() };
        let what = format!("{} {} seed {fault_seed:?}", bench.name, scheme.name());
        let (got, own_with) = compile_counting(bench, scheme, &with);
        let (want, own_without) = compile_counting(bench, scheme, &without);
        let (got, want) = (got.expect(&what), want.expect(&what));
        assert_eq!(shipped(&got), shipped(&want), "{what}");
        faulted += usize::from(!want.guarded.report.incidents.is_empty());
        // Without a baseline the guard runs its own (the inliner's is
        // unspanned); with one, only the guard of a program the inliner
        // changed does.
        assert_eq!(own_without, 1, "{what}");
        let inlined = want.inline.as_ref().is_some_and(|o| !o.inlined.is_empty());
        assert_eq!(own_with, usize::from(inlined), "{what}");
    }
    faulted
}

/// A baseline of another benchmark's program is never used: the guard
/// runs its own and ships what it ships with none.
#[test]
fn another_benchmarks_baseline_is_ignored() {
    let benches = all_benchmarks(Scale(1));
    let budget = RunConfig::paper().guard.step_budget;
    for (i, bench) in benches.iter().enumerate() {
        let other = &benches[(i + 1) % benches.len()];
        let inputs = vec![bench.train_args.clone()];
        let foreign = OracleBaseline::compute(&other.program, &inputs, budget);
        assert!(!foreign.matches(&bench.program, &inputs, budget), "{}", bench.name);
        let own = OracleBaseline::compute(&bench.program, &inputs, budget);
        assert!(own.matches(&bench.program, &inputs, budget), "{}", bench.name);

        let filled = ProfileCache::default()
            .fill(bench, Scheme::M4, &RunConfig::paper(), &Obs::noop())
            .unwrap();
        let mismatched = RunConfig { baseline: Some(foreign.into()), ..filled.clone() };
        let (got, own_runs) = compile_counting(bench, Scheme::M4, &mismatched);
        let (want, shared_runs) = compile_counting(bench, Scheme::M4, &filled);
        assert_eq!(shipped(&got.unwrap()), shipped(&want.unwrap()), "{}", bench.name);
        assert_eq!((own_runs, shared_runs), (1, 0), "{}", bench.name);
    }
}

/// Engine parity (ISSUE: flat pre-decoded interpreter): the guard's
/// `run_bounded` differential oracle, rollback, and degrade behavior must
/// be *identical* whichever execution engine is active — the injector's
/// effectiveness probe, the oracle baselines, and the per-procedure oracle
/// re-runs all go through the engine-dispatched `Exec`. Each sweep runs
/// inside `catch_unwind`: the guard's recovery boundary must contain every
/// fault under the fast engine exactly as it does under the reference
/// engine, and never let a panic escape.
#[test]
fn guard_oracle_and_rollback_identical_across_engines() {
    use pps::ir::{with_engine, Engine};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Everything observable about one guarded degrade-mode sweep plus the
    /// strict-mode replay: incidents, degraded count, recovered program,
    /// and the strict error (if any).
    #[derive(Debug, PartialEq)]
    struct SweepOutcome {
        incidents: Vec<(String, &'static str, String, bool)>,
        degraded: usize,
        program: Program,
        output: Vec<i64>,
        strict_err: Option<String>,
    }

    fn sweep(seed: u64) -> SweepOutcome {
        let oracle_inputs = vec![vec![]];
        let base = gen_program(seed, GenConfig::default());
        let scheme = schemes()[(seed % 4) as usize];
        let (edge, path) = profile(&base);

        let mut program = base.clone();
        let mut injector = FaultInjector::new(seed ^ 0xBAD_5EED);
        let result = guarded_form_and_compact_with(
            &mut program,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &guard(GuardMode::Degrade),
            None,
            &Obs::noop(),
            Some(&mut |prog, pid| {
                let _ = injector.inject_effective(prog, pid, &oracle_inputs, STEP_BUDGET, INJECT_ATTEMPTS);
            }),
        )
        .expect("degrade mode never fails");

        let mut strict_program = base.clone();
        let mut strict_injector = FaultInjector::new(seed ^ 0xBAD_5EED);
        let strict_err = guarded_form_and_compact_with(
            &mut strict_program,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &guard(GuardMode::Strict),
            None,
            &Obs::noop(),
            Some(&mut |prog, pid| {
                let _ = strict_injector.inject_effective(prog, pid, &oracle_inputs, STEP_BUDGET, INJECT_ATTEMPTS);
            }),
        )
        .err()
        .map(|e| e.to_string());

        SweepOutcome {
            incidents: result
                .report
                .incidents
                .iter()
                .map(|i| (i.proc.clone(), i.pass.name(), i.error.to_string(), i.fallback))
                .collect(),
            degraded: result.report.degraded_procs,
            output: run(&program).output,
            program,
            strict_err,
        }
    }

    let mut with_incidents = 0usize;
    for seed in 0..40u64 {
        let reference = catch_unwind(AssertUnwindSafe(|| with_engine(Engine::Reference, || sweep(seed))))
            .unwrap_or_else(|_| panic!("seed {seed}: reference-engine sweep panicked"));
        let fast = catch_unwind(AssertUnwindSafe(|| with_engine(Engine::Fast, || sweep(seed))))
            .unwrap_or_else(|_| panic!("seed {seed}: fast-engine sweep panicked"));
        assert_eq!(fast, reference, "seed {seed}: guard behavior diverges across engines");
        if !fast.incidents.is_empty() {
            with_incidents += 1;
            assert!(fast.strict_err.is_some(), "seed {seed}: strict mode must fail when degrade degraded");
        }
    }
    assert!(with_incidents >= 10, "only {with_incidents}/40 sweeps saw incidents — parity check too weak");
}
