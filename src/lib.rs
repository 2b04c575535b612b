#![warn(missing_docs)]

//! Path-profile-driven superblock scheduling.
//!
//! This is the umbrella crate of the reproduction of Young & Smith,
//! *Better Global Scheduling Using Path Profiles* (MICRO-31, 1998). It
//! re-exports the component crates:
//!
//! - [`ir`] — executable compiler IR and reference interpreter;
//! - [`profile`] — edge, general-path, and forward-path profilers;
//! - [`machine`] — the 8-wide VLIW machine model and I-cache parameters;
//! - [`compact`] — superblock compaction (renaming + list scheduling);
//! - [`core`] — superblock formation (selection, tail duplication,
//!   enlargement) driven by either edge or path profiles — the paper's
//!   central contribution;
//! - [`sim`] — the compiled-simulation analog (cycle accounting, I-cache,
//!   layout);
//! - [`suite`] — the benchmark programs of Table 1 (micro + SPEC analogs);
//! - [`eval`] — one benchmark × scheme cell end to end: the shared
//!   train → inline → compile path, then layout and measurement;
//! - [`harness`] — experiment drivers regenerating every table and figure;
//! - [`serve`] — the compile service: the daemon (framed protocol,
//!   bounded queue), the shard router, and the clients that speak the
//!   protocol (`pps-client loadgen`, `top`, `ping`).
//!
//! [`testgen`] generates random structured programs for the differential
//! property tests in `tests/`.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub mod testgen;

pub use pps_compact as compact;
pub use pps_core as core;
pub use pps_eval as eval;
pub use pps_harness as harness;
pub use pps_ir as ir;
pub use pps_machine as machine;
pub use pps_obs as obs;
pub use pps_profile as profile;
pub use pps_serve as serve;
pub use pps_sim as sim;
pub use pps_suite as suite;
