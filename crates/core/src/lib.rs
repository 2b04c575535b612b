#![warn(missing_docs)]

//! Superblock formation driven by edge or general-path profiles — the
//! central contribution of Young & Smith (MICRO-31, 1998).
//!
//! Formation has three steps (paper §2.1):
//!
//! 1. **Trace selection** partitions each procedure's blocks into traces:
//!    [`select::select_traces_edge`] implements the classical
//!    mutual-most-likely heuristic over edge profiles;
//!    [`select::select_traces_path`] implements the paper's path-based
//!    selector (Figure 2), which grows a seed downward by the
//!    *most-likely path successor* — the successor whose extension of the
//!    whole current trace has the highest exact path frequency.
//! 2. **Tail duplication** ([`tail_dup`]) removes side entrances by
//!    duplicating trace tails, turning traces into superblocks.
//! 3. **Enlargement** ([`enlarge`]) appends copies of likely successor
//!    blocks: the edge-based enlarger implements the classical trio (branch
//!    target expansion, loop peeling, loop unrolling); the path-based
//!    enlarger unifies all three into the single most-likely-path-successor
//!    mechanism of Figure 2, enlarging only superblocks whose exact
//!    completion frequency is high, and capturing cross-iteration branch
//!    correlation (Figure 3).
//!
//! Every entry point is keyed by a [`config::Scheme`] (`BasicBlock`,
//! `M4`/`M16` edge schemes, `P4`/`P4e` path schemes — the configurations
//! of the paper's Figures 4–7). There are four:
//!
//! - [`form_program`] — formation only;
//! - [`form_and_compact`] — formation + compaction, unguarded;
//! - [`guarded_form_and_compact`] — the same inside the per-procedure
//!   recovery boundary of [`guard`];
//! - [`guarded_form_and_compact_with`] — that, plus an observability
//!   handle and an optional post-pass hook.
//!
//! Besides the three steps ([`select`], [`tail_dup`], [`enlarge`], with
//! [`fixup`] splitting residual side entrances) the crate holds only what
//! formation needs around them: [`config`], the [`pipeline`] driver, the
//! recovery boundary ([`guard`]) and the `Px4` inliner ([`inline`]). The
//! serving daemon's machinery lives in `pps-serve`.

pub mod config;
pub mod enlarge;
pub mod fixup;
pub mod guard;
pub mod inline;
pub mod pipeline;
pub mod select;
pub mod tail_dup;
mod unit;

pub use config::{FormConfig, Scheme};
pub use inline::{
    inline_hot_calls, inline_hot_calls_with, InlineConfig, InlineOutcome, InlinedSite,
};
pub use guard::{
    guarded_form_and_compact, guarded_form_and_compact_with, GuardConfig, GuardMode, GuardReport,
    GuardedResult, Incident, OracleBaseline, Pass, PipelineError,
};
pub use pipeline::{form_and_compact, form_program, FormStats, FormedProgram};
