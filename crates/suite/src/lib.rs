#![warn(missing_docs)]

//! The benchmark suite of Table 1, as synthetic analogs.
//!
//! The paper evaluates three microbenchmarks (`alt`, `ph`, `corr` — built
//! here exactly as described in Table 1's caption) and eleven SPECint
//! programs. SPEC sources, reference inputs and an Alpha toolchain are not
//! available in this environment, so each SPEC program is replaced by a
//! synthetic analog that reproduces the control-flow character the paper
//! attributes to it (see DESIGN.md §4 for the substitution table): `wc`'s
//! byte-classification loop, `compress`'s hash match/miss loop, `eqntott`'s
//! tiny correlated-branch-guarded block, `espresso`'s data-dependent
//! bit-set loops, `gcc`'s large call-heavy switch-driven CFG, `go`'s
//! recursion over low-iteration loops, `ijpeg`'s deep regular loop nests,
//! `li`'s interpreter dispatch with short list walks, `m88ksim`'s
//! decode–dispatch loop, `perl`'s stack-machine opcode dispatch, and
//! `vortex`'s method-call-heavy object store.
//!
//! Every benchmark carries distinct *training* and *testing* inputs (the
//! paper's methodology): profiles are collected with
//! [`Benchmark::train_args`] and performance is measured with
//! [`Benchmark::test_args`]. Both input datasets live in the program's data
//! section; the argument vector selects which one a run uses.
//!
//! # Example
//!
//! ```
//! use pps_suite::{all_benchmarks, Scale};
//! let benches = all_benchmarks(Scale::quick());
//! assert_eq!(benches.len(), 14);
//! assert!(benches.iter().any(|b| b.name == "alt"));
//! ```

pub mod com;
pub mod eqn;
pub mod esp;
pub mod gcc;
pub mod go;
pub mod ijpeg;
pub mod li;
pub mod m88k;
pub mod micro;
pub mod perl;
pub mod util;
pub mod vortex;
pub mod wc;

pub use util::{Benchmark, Category, Scale};

/// Builds one benchmark at the given scale.
pub type Build = fn(Scale) -> Benchmark;

/// Every benchmark of Table 1 by name, with its builder, in table order.
/// The one list behind [`all_benchmarks`] and [`benchmark_by_name`].
pub const BENCHMARKS: [(&str, Build); 14] = [
    ("alt", micro::alt),
    ("ph", micro::ph),
    ("corr", micro::corr),
    ("wc", wc::build),
    ("com", com::build),
    ("eqn", eqn::build),
    ("esp", esp::build),
    ("gcc", gcc::build),
    ("go", go::build),
    ("ijpeg", ijpeg::build),
    ("li", li::build),
    ("m88k", m88k::build),
    ("perl", perl::build),
    ("vortex", vortex::build),
];

/// Builds all fourteen benchmarks of Table 1 at the given scale.
pub fn all_benchmarks(scale: Scale) -> Vec<Benchmark> {
    BENCHMARKS.iter().map(|(_, build)| build(scale)).collect()
}

/// The table entry of the benchmark called `name`: its canonical name and
/// its builder. Builds nothing.
pub fn lookup(name: &str) -> Option<(&'static str, Build)> {
    BENCHMARKS.iter().copied().find(|(n, _)| *n == name)
}

/// Builds the benchmark called `name`, and only that one.
pub fn benchmark_by_name(name: &str, scale: Scale) -> Option<Benchmark> {
    lookup(name).map(|(_, build)| build(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::verify::verify_program;

    #[test]
    fn all_benchmarks_run_on_both_inputs() {
        for b in all_benchmarks(Scale::quick()) {
            verify_program(&b.program).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let interp = Interp::new(&b.program, ExecConfig::default());
            let train = interp
                .run(&b.train_args)
                .unwrap_or_else(|e| panic!("{} train: {e}", b.name));
            let test = interp
                .run(&b.test_args)
                .unwrap_or_else(|e| panic!("{} test: {e}", b.name));
            assert!(!train.output.is_empty(), "{} emits a checksum", b.name);
            assert!(!test.output.is_empty(), "{} emits a checksum", b.name);
            assert!(
                train.counts.branches > 100,
                "{} train too small: {} branches",
                b.name,
                train.counts.branches
            );
        }
    }

    #[test]
    fn train_and_test_inputs_differ_behaviorally() {
        for b in all_benchmarks(Scale::quick()) {
            if matches!(b.name, "alt" | "ph" | "corr") {
                // Micros take "null" input in the paper; train == test is
                // acceptable there.
                continue;
            }
            let interp = Interp::new(&b.program, ExecConfig::default());
            let train = interp.run(&b.train_args).unwrap();
            let test = interp.run(&b.test_args).unwrap();
            assert_ne!(
                train.output, test.output,
                "{}: train and test must exercise different data",
                b.name
            );
        }
    }

    #[test]
    fn scale_grows_dynamic_size() {
        for (small, large) in all_benchmarks(Scale::quick())
            .into_iter()
            .zip(all_benchmarks(Scale(4)))
        {
            let i1 = Interp::new(&small.program, ExecConfig::default());
            let r1 = i1.run(&small.test_args).unwrap();
            let i2 = Interp::new(&large.program, ExecConfig::default());
            let r2 = i2.run(&large.test_args).unwrap();
            assert!(
                r2.counts.branches > r1.counts.branches,
                "{}: scaling must grow work",
                small.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark_by_name("gcc", Scale::quick()).is_some());
        assert!(benchmark_by_name("nonesuch", Scale::quick()).is_none());
    }

    #[test]
    fn lookup_by_name_builds_what_all_benchmarks_builds() {
        use pps_ir::hash::program_hash;
        for scale in [Scale(1), Scale(2)] {
            let all = all_benchmarks(scale);
            assert_eq!(all.len(), BENCHMARKS.len());
            for (b, (name, _)) in all.iter().zip(BENCHMARKS) {
                assert_eq!(b.name, name, "table order is all_benchmarks order");
                let one = benchmark_by_name(name, scale).expect("listed name builds");
                assert_eq!(one.name, b.name);
                assert_eq!(program_hash(&one.program), program_hash(&b.program), "{name}");
                assert_eq!(one.train_args, b.train_args, "{name}");
                assert_eq!(one.test_args, b.test_args, "{name}");
            }
            assert!(benchmark_by_name("nonesuch", scale).is_none());
            assert!(benchmark_by_name("", scale).is_none());
        }
    }
}
