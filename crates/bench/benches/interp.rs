//! Execution-engine microbenchmarks (ISSUE: flat pre-decoded interpreter):
//! decode cost, and dispatch throughput of the fast direct-threaded engine
//! against the tree-walking reference interpreter on the same workloads.
//! Throughput is dynamic instructions per iteration, so the reported
//! element rates are directly comparable across engines.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pps_ir::interp::{ExecConfig, Interp};
use pps_ir::{DecodedProgram, Engine, Exec, NullSink};
use pps_suite::{benchmark_by_name, Scale};

fn bench_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp");
    group.sample_size(10);
    for name in ["wc", "gcc", "perl"] {
        let bench = benchmark_by_name(name, Scale(2)).expect("benchmark exists");
        let program = &bench.program;
        let args = &bench.train_args;
        let instrs = Interp::new(program, ExecConfig::default())
            .run(args)
            .unwrap()
            .counts
            .instrs;
        group.throughput(Throughput::Elements(instrs));

        group.bench_function(format!("reference/{name}"), |b| {
            let exec = Exec::with_engine(program, ExecConfig::default(), Engine::Reference);
            b.iter(|| exec.run(args).unwrap())
        });
        group.bench_function(format!("fast/{name}"), |b| {
            let exec = Exec::with_engine(program, ExecConfig::default(), Engine::Fast);
            b.iter(|| exec.run(args).unwrap())
        });
        group.bench_function(format!("fast-traced/{name}"), |b| {
            let exec = Exec::with_engine(program, ExecConfig::default(), Engine::Fast);
            b.iter(|| exec.run_traced(args, &mut NullSink).unwrap())
        });
    }
    group.finish();

    // Decode cost: every fast-engine `Exec::new` pays it once, before any
    // run (the guard's oracle decodes the whole program per pass).
    let mut decode = c.benchmark_group("decode");
    for name in ["wc", "gcc", "perl"] {
        let bench = benchmark_by_name(name, Scale(2)).expect("benchmark exists");
        let n_ops = DecodedProgram::decode(&bench.program).n_ops() as u64;
        decode.throughput(Throughput::Elements(n_ops));
        decode.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| DecodedProgram::decode(&bench.program))
        });
    }
    decode.finish();
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
