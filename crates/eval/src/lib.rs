#![warn(missing_docs)]

//! The paper's methodology for one benchmark × scheme cell, shared by
//! every consumer of a scheme: the experiment harness, the compile
//! daemon (`Compile`, `RunCell` and PGO recompiles) and `pps-explore`.
//!
//! [`runner`] holds the one train → inline → compile path:
//!
//! 1. [`train`] — one training run feeding the edge profiler and the
//!    scheme's path profiler (k-iteration for `Pk*`);
//! 2. [`compile`] — for `Px4`, guarded inlining of the hottest call sites
//!    and a retrain on the inlined program; then formation + compaction
//!    behind the guard, with the training input as the oracle input;
//! 3. [`run_scheme`] — the two steps above, then a layout run on the
//!    training input and the measured run on the testing input.
//!
//! The crate sits below both `pps-harness` and `pps-serve`: the experiments
//! reach the runner without going through the daemon.

pub mod runner;

pub use runner::{
    compile, run_scheme, run_scheme_obs, train, Compiled, ProfileCache, RunConfig, RunError,
    SchemeRun, Trained,
};
