#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the paper.
//!
//! [`runner`] executes the full methodology for one benchmark × scheme
//! pair: profile on the training input (edge + general-path profilers over
//! one run), form and compact under the scheme, lay code out from a
//! training-run transition profile, then measure cycles, instruction-cache
//! behavior and superblock statistics on the *testing* input.
//!
//! [`experiments`] drives the per-figure sweeps:
//!
//! | id | paper | output |
//! |----|-------|--------|
//! | `table1` | Table 1 | benchmark statistics under basic-block scheduling |
//! | `fig4` | Figure 4 | P4 vs M4 cycle counts, perfect I-cache |
//! | `fig5` | Figure 5 | P4, P4e vs M4 with the 32KB I-cache |
//! | `fig6` | Figure 6 | P4e vs M16 with the I-cache |
//! | `fig7` | Figure 7 | blocks executed per dynamic superblock vs size |
//! | `missrates` | §4 in-text | I-cache miss rates per scheme |
//! | `ablate` | §2.3/§4 | realistic latencies, renaming/speculation off |
//!
//! The `pps-harness` binary (`cargo run -p pps-harness --release -- --help`)
//! prints the chosen experiment as an aligned text table and CSV. Its
//! `--jobs N` flag fans each experiment's benchmark × scheme cells across
//! a scoped-thread [`pool`] (default: available parallelism); the
//! plan → execute → replay engine in [`experiments`] keeps every output
//! byte-identical to a serial run.

pub mod experiments;
pub mod pool;
pub mod report;

// The per-cell runner lives in `pps_eval::runner` (below both this crate
// and the daemon); it keeps its `pps_harness::` path through this
// re-export.
pub use pps_eval::runner;

pub use experiments::{run_experiment_jobs_config, RunCtx};
pub use runner::{run_scheme, run_scheme_obs, RunConfig, RunError, SchemeRun};
