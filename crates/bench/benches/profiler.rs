//! §3.1's efficiency claim: general path profiling averages O(1) work per
//! executed edge — the same order as edge profiling. This bench measures
//! plain execution, edge profiling, general path profiling (several
//! depths), k-iteration path profiling (k = 2, 3) and forward-path
//! profiling over the same runs, on the fast engine that training uses.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pps_ir::interp::ExecConfig;
use pps_ir::{Exec, NullSink};
use pps_profile::{EdgeProfiler, ForwardPathProfiler, KPathProfiler, PathProfiler};
use pps_suite::{benchmark_by_name, Scale};

fn bench_profiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiler");
    group.sample_size(10);
    for name in ["wc", "gcc", "perl"] {
        let bench = benchmark_by_name(name, Scale(2)).expect("benchmark exists");
        let exec = Exec::new(&bench.program, ExecConfig::default());
        let events = exec
            .run_traced(&bench.train_args, &mut pps_ir::CountSink::new())
            .unwrap()
            .counts
            .blocks;
        group.throughput(Throughput::Elements(events));

        group.bench_function(format!("null/{name}"), |b| {
            b.iter(|| exec.run_traced(&bench.train_args, &mut NullSink).unwrap())
        });
        group.bench_function(format!("edge/{name}"), |b| {
            b.iter(|| {
                let mut p = EdgeProfiler::new(&bench.program);
                exec.run_traced(&bench.train_args, &mut p).unwrap();
                p.finish()
            })
        });
        for depth in [7, 15] {
            group.bench_function(format!("path{depth}/{name}"), |b| {
                b.iter(|| {
                    let mut p = PathProfiler::new(&bench.program, depth);
                    exec.run_traced(&bench.train_args, &mut p).unwrap();
                    p.finish()
                })
            });
        }
        for k in [2, 3] {
            group.bench_function(format!("kpath{k}/{name}"), |b| {
                b.iter(|| {
                    let mut p = KPathProfiler::new(&bench.program, k);
                    exec.run_traced(&bench.train_args, &mut p).unwrap();
                    p.finish()
                })
            });
        }
        group.bench_function(format!("forward/{name}"), |b| {
            b.iter(|| {
                let mut p = ForwardPathProfiler::new(&bench.program);
                exec.run_traced(&bench.train_args, &mut p).unwrap();
                p.finish()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_profiler);
criterion_main!(benches);
