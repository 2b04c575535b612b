#![warn(missing_docs)]

//! Profilers over dynamic execution traces.
//!
//! Three profilers, all implemented as [`pps_ir::TraceSink`]s so they attach
//! directly to the reference interpreter:
//!
//! - [`edge::EdgeProfiler`] — the classical *point* profile: independent
//!   frequencies per CFG edge (and per block). This is what the paper's
//!   baseline mutual-most-likely superblock former consumes.
//! - [`path::PathProfiler`] — the paper's *general path* profile (§2.2,
//!   §3.1): a sliding window over the dynamic basic-block trace bounded at 15
//!   conditional/multiway branches, collected lazily with cached successor
//!   transitions so steady-state work is O(1) per dynamic edge. Frequencies
//!   of arbitrary contiguous block sequences (up to the depth bound) are
//!   answered exactly via suffix sums over a reversed trie.
//! - [`kpath::KPathProfiler`] — k-iteration Ball–Larus paths
//!   (arXiv:1304.5197): the chop moves to the k-th back-edge crossing, so a
//!   path spans up to `k` loop iterations and exposes cross-iteration branch
//!   correlation. `k = 1` gives Ball–Larus forward paths (chopped at every
//!   back edge), the prior work the paper compares against (§2.2, §5); the
//!   derived [`kpath::KPathProfile::to_path_profile`] view feeds the
//!   `Pk2`/`Pk3` superblock-formation schemes.
//!
//! All profiles are collected per procedure with one window per activation,
//! so recursion is handled exactly and paths never cross procedure
//! boundaries (the paper's basic-block-sequence profiles).
//!
//! # Example
//!
//! ```
//! use pps_ir::builder::ProgramBuilder;
//! use pps_ir::interp::{ExecConfig, Interp};
//! use pps_profile::path::PathProfiler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-block program: entry jumps to an exit block.
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.begin_proc("main", 0);
//! let exit = f.new_block();
//! f.jump(exit);
//! f.switch_to(exit);
//! f.ret(None);
//! let main = f.finish();
//! let program = pb.finish(main);
//!
//! let mut profiler = PathProfiler::new(&program, 15);
//! Interp::new(&program, ExecConfig::default()).run_traced(&[], &mut profiler)?;
//! let profile = profiler.finish();
//! let p = program.entry;
//! use pps_ir::BlockId;
//! assert_eq!(profile.freq(p, &[BlockId::new(0), BlockId::new(1)]), 1);
//! # Ok(())
//! # }
//! ```

pub mod edge;
pub mod hash;
pub mod kpath;
pub mod merge;
pub mod path;
pub mod predict;
pub mod serialize;

pub use edge::{EdgeProfile, EdgeProfiler};
pub use hash::{edge_hash, kpath_hash, path_hash, profile_pair_hash, profile_triple_hash};
pub use merge::{merge_edges, merge_paths, path_drift, DriftReport, MergeError};
pub use kpath::{KPathProfile, KPathProfiler};
pub use path::{PathProfile, PathProfiler, DEFAULT_PATH_DEPTH};
pub use predict::{EdgePredictor, PathPredictor, PredictStats, Predictor};
