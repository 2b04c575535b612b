//! Differential lockdown of the fast execution engine (ISSUE: flat
//! pre-decoded interpreter).
//!
//! The tree-walking [`Interp`] is the semantic ground truth; the fast
//! engine ([`Exec`] with [`Engine::Fast`]) re-implements it over a flat
//! pre-decoded stream with direct-threaded dispatch. This suite proves
//! exact observable equality over hundreds of generated multi-procedure
//! programs and their fault-injected (often structurally invalid)
//! variants:
//!
//! - complete runs: `ExecResult` (output, return value, dynamic counts,
//!   final memory) and the full trace-sink event stream;
//! - bounded runs: identical truncation prefixes at a ladder of budgets,
//!   down to `max_instrs == 0`;
//! - errors: the same `ExecError` on faulting programs, and when a broken
//!   program panics the interpreter, both engines panic;
//! - simulation: byte-identical cycle/I-cache/transition/Fig-7 tables when
//!   each engine drives the cycle simulator;
//! - layout weights: what [`from_edge_profile`] derives from an edge
//!   profile of a run equals what the cycle simulator counts over that
//!   run without a layout, under either engine, on generated programs and
//!   on every suite benchmark.

use pps::compact::{compact_program, singleton_partition, CompactConfig, CompactedProgram};
use pps::core::{form_and_compact, FormConfig, Scheme};
use pps::eval::runner::{compile, train, RunConfig};
use pps::ir::interp::{BoundedRun, ExecConfig, ExecError, ExecResult, Interp};
use pps::ir::trace::VecSink;
use pps::ir::builder::ProgramBuilder;
use pps::ir::{
    current_engine, AluOp, BlockId, Engine, Exec, FaultInjector, Operand, ProcId, Program, Reg,
};
use pps::machine::MachineConfig;
use pps::obs::Obs;
use pps::profile::{EdgeProfiler, DEFAULT_PATH_DEPTH};
use pps::sim::{from_edge_profile, CycleSim, Layout, SbDynStats, SimOutcome, Transitions};
use pps::suite::{all_benchmarks, Scale};
use pps::testgen::{gen_program, GenConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEEDS: u64 = 200;
/// Generated programs terminate well under this (testgen budgets 50k).
const BUDGETS: &[u64] = &[0, 1, 2, 3, 5, 13, 100, 1_000, 50_000];

/// Shape variety: cycle the generator config with the seed.
fn config_for(seed: u64) -> GenConfig {
    let base = GenConfig::default();
    GenConfig {
        max_depth: 1 + (seed % 3) as u32,
        max_stmts: 2 + (seed % 4) as u32,
        max_procs: (seed % 4) as u32,
        ..base
    }
}

fn reference_traced(p: &Program, config: ExecConfig) -> (Result<ExecResult, ExecError>, VecSink) {
    let mut sink = VecSink::new();
    let r = Interp::new(p, config).run_traced(&[], &mut sink);
    (r, sink)
}

fn fast_traced(p: &Program, config: ExecConfig) -> (Result<ExecResult, ExecError>, VecSink) {
    let mut sink = VecSink::new();
    let r = Exec::with_engine(p, config, Engine::Fast).run_traced(&[], &mut sink);
    (r, sink)
}

#[test]
fn fast_engine_is_the_default() {
    // The whole pipeline (sim, guard, serve, harness) goes through
    // `Exec::new`; this pins that production default to the fast engine
    // unless PPS_ENGINE overrides it. CI runs without the override.
    if std::env::var_os("PPS_ENGINE").is_none() {
        assert_eq!(current_engine(), Engine::Fast);
    }
}

#[test]
fn engines_agree_on_results_and_traces() {
    for seed in 0..SEEDS {
        let p = gen_program(seed, config_for(seed));
        let config = ExecConfig::default();
        let (rr, rs) = reference_traced(&p, config);
        let (fr, fs) = fast_traced(&p, config);
        assert_eq!(fr, rr, "seed {seed}: ExecResult diverges");
        assert_eq!(fs, rs, "seed {seed}: trace event stream diverges");
        assert!(rr.is_ok(), "seed {seed}: generated programs never fault");
    }
}

#[test]
fn engines_agree_on_bounded_prefixes() {
    for seed in 0..SEEDS / 2 {
        let p = gen_program(seed, config_for(seed));
        for &budget in BUDGETS {
            let config = ExecConfig { max_instrs: budget, ..ExecConfig::default() };
            let rr = Interp::new(&p, config).run_bounded(&[]);
            let fr = Exec::with_engine(&p, config, Engine::Fast).run_bounded(&[]);
            assert_eq!(fr, rr, "seed {seed} budget {budget}: bounded prefix diverges");

            // The traced entry point stops both the run and its event
            // stream at the same point on both engines.
            let (mut rs, mut fs) = (VecSink::new(), VecSink::new());
            let rt = Interp::new(&p, config).run_bounded_traced(&[], &mut rs);
            let ft = Exec::with_engine(&p, config, Engine::Fast).run_bounded_traced(&[], &mut fs);
            assert_eq!(ft, rt, "seed {seed} budget {budget}: traced bounded prefix diverges");
            assert_eq!(rt, rr, "seed {seed} budget {budget}: tracing changed the run");
            assert_eq!(fs, rs, "seed {seed} budget {budget}: truncated event stream diverges");
        }
    }
}

/// What a (possibly invalid) program observably does under one engine: a
/// bounded run, an error, or a panic.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Run(Box<BoundedRun>),
    Error(ExecError),
    Panicked,
}

fn outcome(run: impl FnOnce() -> Result<BoundedRun, ExecError> + std::panic::UnwindSafe) -> Outcome {
    match catch_unwind(run) {
        Ok(Ok(b)) => Outcome::Run(Box::new(b)),
        Ok(Err(e)) => Outcome::Error(e),
        Err(_) => Outcome::Panicked,
    }
}

#[test]
fn engines_agree_on_fault_injected_programs() {
    // Corrupted programs — including ones the verifier rejects — must
    // behave identically: same results, same errors, and panics (from
    // structurally broken bodies) on both engines or neither. The decoder
    // is total, so even an unresolvable branch target decodes; it faults
    // only when executed, like the reference engine.
    let mut injected = 0u64;
    for seed in 0..SEEDS {
        let base = gen_program(seed, config_for(seed));
        let mut injector = FaultInjector::new(seed.wrapping_mul(0x9e37_79b9));
        for pi in 0..base.procs.len() {
            let mut corrupted = base.clone();
            if injector.inject(&mut corrupted, ProcId::new(pi as u32)).is_none() {
                continue;
            }
            injected += 1;
            let config = ExecConfig { max_instrs: 50_000, ..ExecConfig::default() };
            let r = outcome(AssertUnwindSafe(|| {
                Interp::new(&corrupted, config).run_bounded(&[])
            }));
            let f = outcome(AssertUnwindSafe(|| {
                Exec::with_engine(&corrupted, config, Engine::Fast).run_bounded(&[])
            }));
            assert_eq!(f, r, "seed {seed} proc {pi}: corrupted-program outcome diverges");
        }
    }
    assert!(injected >= SEEDS / 2, "fault injection exercised enough programs");
}

/// Everything a simulated run reports, in comparable form.
#[derive(Debug, PartialEq)]
struct SimTable {
    exec: ExecResult,
    cycles: u64,
    cycles_with_icache: u64,
    icache: Option<pps::sim::CacheStats>,
    sb_stats: pps::sim::SbDynStats,
    transitions: Vec<ProcTransitions>,
}

/// Per-proc transition snapshot: `(proc, edges, per-sb entries, activations)`.
type ProcTransitions = (u32, Vec<((u32, u32), u64)>, Vec<u64>, u64);

impl SimTable {
    fn capture(p: &Program, out: SimOutcome) -> SimTable {
        let transitions = (0..p.procs.len() as u32)
            .map(|pi| {
                let pid = ProcId::new(pi);
                let edges: Vec<_> = out.transitions.iter_proc(pid).collect();
                let n_sb = edges
                    .iter()
                    .flat_map(|((a, b), _)| [*a, *b])
                    .max()
                    .map_or(0, |m| m + 1);
                let entries = (0..n_sb).map(|sb| out.transitions.entries(pid, sb)).collect();
                (pi, edges, entries, out.transitions.activations(pid))
            })
            .collect();
        SimTable {
            cycles: out.cycles,
            cycles_with_icache: out.cycles_with_icache(),
            icache: out.icache,
            sb_stats: out.sb_stats,
            exec: out.exec,
            transitions,
        }
    }
}

fn simulate_with(
    engine: Engine,
    p: &Program,
    compacted: &pps::compact::CompactedProgram,
    machine: &MachineConfig,
    layout: Option<&Layout>,
) -> SimTable {
    let mut sim = CycleSim::new(compacted, machine, layout);
    let exec = Exec::with_engine(p, ExecConfig::default(), engine)
        .run_traced(&[], &mut sim)
        .expect("generated programs simulate cleanly");
    SimTable::capture(p, sim.finish(exec))
}

#[test]
fn engines_produce_identical_sim_tables() {
    let machine = MachineConfig::paper();
    for seed in 0..SEEDS / 4 {
        let mut p = gen_program(seed, config_for(seed));
        let part = singleton_partition(&p);
        let compacted = compact_program(&mut p, &part, &CompactConfig::default());

        // Ideal I-cache pass; its transitions feed the layout.
        let ref_ideal = simulate_with(Engine::Reference, &p, &compacted, &machine, None);
        let fast_ideal = simulate_with(Engine::Fast, &p, &compacted, &machine, None);
        assert_eq!(fast_ideal, ref_ideal, "seed {seed}: ideal-cache sim table diverges");

        // I-cache pass over a real layout.
        let mut sim = CycleSim::new(&compacted, &machine, None);
        let exec = Exec::with_engine(&p, ExecConfig::default(), Engine::Reference)
            .run_traced(&[], &mut sim)
            .unwrap();
        let train = sim.finish(exec);
        let layout = Layout::build(&p, &compacted, &train.transitions, &machine);
        let ref_ic = simulate_with(Engine::Reference, &p, &compacted, &machine, Some(&layout));
        let fast_ic = simulate_with(Engine::Fast, &p, &compacted, &machine, Some(&layout));
        assert_eq!(fast_ic, ref_ic, "seed {seed}: icache sim table diverges");
        assert!(fast_ic.icache.is_some());
    }
}

/// The layout weights of one run without a layout: cycles, Figure 7
/// statistics and every transition count, with entries listed for every
/// superblock.
#[derive(Debug, PartialEq)]
struct LayoutWeights {
    cycles: u64,
    sb_stats: SbDynStats,
    total: u64,
    transitions: Vec<ProcTransitions>,
}

impl LayoutWeights {
    fn capture(
        compacted: &CompactedProgram,
        cycles: u64,
        sb_stats: SbDynStats,
        transitions: &Transitions,
    ) -> LayoutWeights {
        let per_proc = compacted
            .procs
            .iter()
            .enumerate()
            .map(|(pi, cp)| {
                let pid = ProcId::new(pi as u32);
                let entries = (0..cp.superblocks.len() as u32)
                    .map(|sb| transitions.entries(pid, sb))
                    .collect();
                (pi as u32, transitions.iter_proc(pid).collect(), entries, transitions.activations(pid))
            })
            .collect();
        LayoutWeights { cycles, sb_stats, total: transitions.total(), transitions: per_proc }
    }
}

/// Layout weights derived from an edge profile of `p` on `args`.
fn derived_weights(
    engine: Engine,
    p: &Program,
    compacted: &CompactedProgram,
    args: &[i64],
) -> LayoutWeights {
    let mut profiler = EdgeProfiler::new(p);
    Exec::with_engine(p, ExecConfig::default(), engine)
        .run_traced(args, &mut profiler)
        .expect("profiled run completes");
    let run = from_edge_profile(p, compacted, &profiler.finish(), &Obs::noop());
    LayoutWeights::capture(compacted, run.cycles, run.sb_stats, &run.transitions)
}

/// Layout weights counted by the cycle simulator running `p` on `args`.
fn simulated_weights(
    engine: Engine,
    p: &Program,
    compacted: &CompactedProgram,
    args: &[i64],
) -> LayoutWeights {
    let mut sim = CycleSim::new(compacted, &MachineConfig::paper(), None);
    let exec = Exec::with_engine(p, ExecConfig::default(), engine)
        .run_traced(args, &mut sim)
        .expect("simulated run completes");
    let out = sim.finish(exec);
    LayoutWeights::capture(compacted, out.cycles, out.sb_stats, &out.transitions)
}

/// `main(n)` calls `down(i)` for every `i < n`, and `down(k)` branches
/// back into its own entry block `k` times: a procedure entered both by
/// activations and by edges, which generated programs never have.
fn reentrant_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let down = pb.declare_proc("down", 1);
    let mut d = pb.begin_declared(down);
    let k = Reg::new(0);
    let c = d.reg();
    let done = d.new_block();
    d.alu(AluOp::CmpLt, c, 0i64, Operand::Reg(k));
    d.alu(AluOp::Sub, k, k, 1i64);
    d.out(k);
    d.branch(c, BlockId::new(0), done);
    d.switch_to(done);
    d.ret(None);
    d.finish();
    let mut f = pb.begin_proc("main", 1);
    let n = Reg::new(0);
    let (i, c) = (f.reg(), f.reg());
    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.mov(i, 0i64);
    f.jump(head);
    f.switch_to(head);
    f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Reg(n));
    f.branch(c, body, exit);
    f.switch_to(body);
    f.call(down, vec![Operand::Reg(i)], None);
    f.alu(AluOp::Add, i, i, 1i64);
    f.jump(head);
    f.switch_to(exit);
    f.ret(None);
    let main = f.finish();
    pb.finish(main)
}

/// `p` compacted as singleton superblocks, or formed under P4 from a
/// training run on `args`, with the length of its longest superblock.
fn compacted_for(p: &mut Program, args: &[i64], formed: bool) -> (CompactedProgram, usize) {
    let compacted = if formed {
        let trained = train(p, args, DEFAULT_PATH_DEPTH, None).unwrap();
        form_and_compact(
            p,
            &trained.edge,
            Some(&trained.path),
            Scheme::P4,
            &FormConfig::default(),
            &CompactConfig::default(),
        )
        .unwrap()
        .0
    } else {
        let part = singleton_partition(p);
        compact_program(p, &part, &CompactConfig::default())
    };
    let longest = compacted.procs.iter().flat_map(|cp| &cp.superblocks).map(|sb| sb.spec.len());
    let longest = longest.max().unwrap_or(0);
    (compacted, longest)
}

#[test]
fn edge_profile_derivation_matches_the_simulator() {
    let mut programs: Vec<(String, Program, Vec<i64>)> = (0..SEEDS / 4)
        .map(|seed| (format!("seed {seed}"), gen_program(seed, config_for(seed)), Vec::new()))
        .collect();
    programs.push(("reentrant".to_string(), reentrant_program(), vec![5]));
    let mut multi_block = 0u64;
    for (name, base, args) in &programs {
        // Singleton superblocks, then P4-formed ones whose internal
        // fall-throughs the derivation must not count as transitions.
        for formed in [false, true] {
            let mut p = base.clone();
            let (compacted, longest) = compacted_for(&mut p, args, formed);
            multi_block += u64::from(longest > 1);
            for engine in [Engine::Reference, Engine::Fast] {
                assert_eq!(
                    derived_weights(engine, &p, &compacted, args),
                    simulated_weights(engine, &p, &compacted, args),
                    "{name} formed {formed} {engine:?}: derived layout weights diverge"
                );
            }
        }
    }
    assert!(multi_block >= SEEDS / 8, "only {multi_block} formed programs had fall-throughs");
}

#[test]
fn edge_profile_derivation_matches_the_simulator_on_the_suite() {
    let config = RunConfig::paper();
    for bench in all_benchmarks(Scale(1)) {
        for scheme in [Scheme::BasicBlock, Scheme::M4, Scheme::P4, Scheme::PK2, Scheme::PX4] {
            let trained =
                train(&bench.program, &bench.train_args, DEFAULT_PATH_DEPTH, scheme.kpath_k())
                    .unwrap();
            let compiled =
                compile(&bench, scheme, &trained.edge, &trained.path, &config, &Obs::noop())
                    .unwrap();
            let (p, compacted) = (&compiled.program, &compiled.guarded.compacted);
            let engine = current_engine();
            assert_eq!(
                derived_weights(engine, p, compacted, &bench.train_args),
                simulated_weights(engine, p, compacted, &bench.train_args),
                "{} {}: derived layout weights diverge",
                bench.name,
                scheme.name()
            );
        }
    }
}
