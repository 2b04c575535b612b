//! Pipeline guardrails: typed errors, per-procedure recovery, and graceful
//! degradation.
//!
//! The formation + compaction pipeline rewrites programs aggressively (tail
//! duplication, enlargement, renaming, speculation). A bug anywhere in that
//! chain used to abort the whole experiment with a panic — or worse, ship a
//! miscompiled program into the timing simulation, silently corrupting the
//! paper's numbers. This module makes the pipeline *fail safe* instead:
//!
//! - every failure class has a typed [`PipelineError`];
//! - [`guarded_form_and_compact`] processes one procedure at a time inside a
//!   recovery boundary: panics are caught, the structural verifier checks
//!   the result, and on any failure the procedure is rolled back to its
//!   pre-pass state; a seeded differential-interpretation oracle then
//!   checks the whole transformed program once, replaying procedure by
//!   procedure only when that pass fails;
//! - in [`GuardMode::Degrade`] a failed procedure falls back to the
//!   basic-block (singleton superblock) baseline and the run continues,
//!   with a structured [`Incident`] recorded; in [`GuardMode::Strict`] the
//!   first failure is returned as a hard `Err` — the right setting for CI
//!   and for producing paper tables, where silent degradation would skew
//!   comparisons.
//!
//! The oracle compares observable behaviour (output stream, return value,
//! final memory) of the original and transformed program on configurable
//! inputs under an instruction budget, using [`Exec::run_bounded`] so
//! long-running programs are compared on output *prefixes* instead of being
//! misreported as failures. A transformed procedure that blows through a
//! generous multiple of the original's budget is reported as
//! [`PipelineError::StepBudgetExceeded`] — the symptom of a miscompiled
//! loop exit.
//!
//! The companion fault-injection harness (`pps_ir::fault`) corrupts
//! post-pass IR the way a buggy pass would; `tests/guardrails.rs` drives
//! hundreds of generated programs through this guard with injected faults
//! to prove every one is caught here and degraded away.

use crate::config::{FormConfig, Scheme};
use crate::pipeline::{form_proc, FormStats};
use pps_compact::{
    try_compact_proc_obs, CompactConfig, CompactError, CompactedProc, CompactedProgram,
    SuperblockSpec,
};
use pps_ir::analysis::Cfg;
use pps_ir::hash::program_hash;
use pps_ir::interp::{BoundedRun, ExecConfig, ExecError};
use pps_ir::verify::{verify_program, VerifyError};
use pps_ir::{Exec, Proc, ProcId, Program};
use pps_obs::{ArgValue, Level, Obs};
use pps_profile::{EdgeProfile, EdgeProfiler, PathProfile};
use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Any failure the scheduling pipeline can produce, by pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A path-based scheme was requested without a path profile.
    MissingPathProfile {
        /// Name of the scheme that needed the profile.
        scheme: String,
    },
    /// Superblock formation panicked (caught at the recovery boundary).
    Formation {
        /// Procedure being formed.
        proc: String,
        /// Panic payload rendered to text.
        message: String,
    },
    /// Compaction rejected its input or its own output.
    Compaction(CompactError),
    /// The structural verifier rejected the transformed program.
    Verification(VerifyError),
    /// The transformed program's observable behaviour diverged from the
    /// original's on an oracle input.
    Divergence {
        /// Procedure whose transformation introduced the divergence.
        proc: String,
        /// Index into the oracle input list.
        input_index: usize,
        /// What differed (output / return value / memory).
        detail: String,
    },
    /// The transformed program failed to finish within [`BUDGET_FACTOR`]
    /// times the original's instruction budget — a miscompiled loop exit
    /// until proven otherwise.
    StepBudgetExceeded {
        /// Procedure whose transformation blew the budget.
        proc: String,
        /// Index into the oracle input list.
        input_index: usize,
    },
    /// The transformed program hit a runtime error the original did not.
    Execution {
        /// Procedure whose transformation introduced the error.
        proc: String,
        /// Index into the oracle input list.
        input_index: usize,
        /// The interpreter error.
        error: ExecError,
    },
}

impl PipelineError {
    /// Stable short tag for the failure class — the `kind` label of the
    /// `guard.incidents` metric and of `incident` trace events.
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineError::MissingPathProfile { .. } => "missing_path_profile",
            PipelineError::Formation { .. } => "formation_panic",
            PipelineError::Compaction(_) => "compaction",
            PipelineError::Verification(_) => "verification",
            PipelineError::Divergence { .. } => "divergence",
            PipelineError::StepBudgetExceeded { .. } => "step_budget_exceeded",
            PipelineError::Execution { .. } => "execution",
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MissingPathProfile { scheme } => {
                write!(f, "scheme {scheme} needs a path profile")
            }
            PipelineError::Formation { proc, message } => {
                write!(f, "formation panicked in {proc}: {message}")
            }
            PipelineError::Compaction(e) => write!(f, "compaction: {e}"),
            PipelineError::Verification(e) => write!(f, "verification: {e}"),
            PipelineError::Divergence { proc, input_index, detail } => {
                write!(f, "divergence after scheduling {proc} on input #{input_index}: {detail}")
            }
            PipelineError::StepBudgetExceeded { proc, input_index } => {
                write!(f, "step budget exceeded after scheduling {proc} on input #{input_index}")
            }
            PipelineError::Execution { proc, input_index, error } => {
                write!(
                    f,
                    "execution error after scheduling {proc} on input #{input_index}: {error}"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Compaction(e) => Some(e),
            PipelineError::Verification(e) => Some(e),
            PipelineError::Execution { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<CompactError> for PipelineError {
    fn from(e: CompactError) -> Self {
        PipelineError::Compaction(e)
    }
}

impl From<VerifyError> for PipelineError {
    fn from(e: VerifyError) -> Self {
        PipelineError::Verification(e)
    }
}

/// What to do when a procedure fails its post-pass checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardMode {
    /// Fail fast: the first incident aborts the run with a hard `Err`.
    /// Right for CI and for producing paper tables, where a silently
    /// degraded procedure would skew scheme comparisons.
    Strict,
    /// Roll the procedure back to its original (unscheduled) form, record
    /// an [`Incident`], and continue — the production default.
    #[default]
    Degrade,
}

impl fmt::Display for GuardMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardMode::Strict => f.write_str("strict"),
            GuardMode::Degrade => f.write_str("degrade"),
        }
    }
}

/// The transformed program may use `BUDGET_FACTOR * step_budget`
/// instructions before [`PipelineError::StepBudgetExceeded`] is raised
/// (scheduling never changes dynamic instruction counts by much; the slack
/// only needs to absorb compensation code).
pub const BUDGET_FACTOR: u64 = 8;

/// Configuration of the recovery boundary.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Strict (fail-fast) or degrade (fallback-and-continue).
    pub mode: GuardMode,
    /// Inputs for the differential oracle. Empty disables the oracle;
    /// verification and panic recovery still apply.
    pub oracle_inputs: Vec<Vec<i64>>,
    /// Instruction budget for the *original* program's oracle runs. Runs
    /// that exceed it are compared on output prefixes.
    pub step_budget: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            mode: GuardMode::Degrade,
            oracle_inputs: Vec::new(),
            step_budget: 1_000_000,
        }
    }
}

/// The untransformed program's bounded behaviour on a list of oracle
/// inputs: the ground truth the guard's differential oracle and the
/// inliner's compare against, keyed by what determines it.
///
/// A program's baseline depends only on the program, the inputs and the
/// step budget, so one computed ahead of time can serve every guarded run
/// of the same program (every scheme of a benchmark). Consumers check the
/// key with [`OracleBaseline::matches`] and compute their own on a
/// mismatch: a baseline of another program would let the oracle judge the
/// transformed code against the wrong behaviour.
#[derive(Clone)]
pub struct OracleBaseline {
    program_hash: u64,
    inputs: Vec<Vec<i64>>,
    step_budget: u64,
    runs: Vec<Result<BoundedRun, ExecError>>,
}

impl OracleBaseline {
    /// Runs `program` on each of `inputs` under `step_budget` instructions
    /// (longer runs stop early and are compared on output prefixes).
    pub fn compute(program: &Program, inputs: &[Vec<i64>], step_budget: u64) -> Self {
        let config = ExecConfig { max_instrs: step_budget, ..ExecConfig::default() };
        let exec = Exec::new(program, config);
        OracleBaseline {
            program_hash: program_hash(program),
            inputs: inputs.to_vec(),
            step_budget,
            runs: inputs.iter().map(|args| exec.run_bounded(args)).collect(),
        }
    }

    /// True when this is `program`'s baseline on exactly `inputs` under
    /// `step_budget` (structural program hash, inputs in order, budget).
    pub fn matches(&self, program: &Program, inputs: &[Vec<i64>], step_budget: u64) -> bool {
        self.step_budget == step_budget
            && self.inputs == inputs
            && self.program_hash == program_hash(program)
    }

    /// One bounded run per input, in input order.
    pub fn runs(&self) -> &[Result<BoundedRun, ExecError>] {
        &self.runs
    }

    /// Heap bytes held by the baseline's vectors: its inputs and each
    /// run's outputs and memory image.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let words = |v: &Vec<i64>| v.capacity() * size_of::<i64>();
        let inputs = self.inputs.iter().map(words).sum::<usize>();
        let runs = self.runs.iter().flatten();
        let runs = runs.map(|r| words(&r.result.output) + words(&r.result.memory));
        self.inputs.capacity() * size_of::<Vec<i64>>()
            + inputs
            + self.runs.capacity() * size_of::<Result<BoundedRun, ExecError>>()
            + runs.sum::<usize>()
    }

    /// `baseline` when it matches, else `program`'s own, computed under
    /// an `oracle-baseline` span.
    pub(crate) fn reuse_or_compute<'a>(
        baseline: Option<&'a OracleBaseline>,
        program: &Program,
        inputs: &[Vec<i64>],
        step_budget: u64,
        obs: &Obs,
    ) -> Cow<'a, OracleBaseline> {
        match baseline.filter(|b| b.matches(program, inputs, step_budget)) {
            Some(b) => Cow::Borrowed(b),
            None => {
                let _span = obs.span("oracle-baseline").arg("inputs", inputs.len());
                Cow::Owned(OracleBaseline::compute(program, inputs, step_budget))
            }
        }
    }
}

/// Prints the key only: the runs carry whole memory images.
impl fmt::Debug for OracleBaseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OracleBaseline")
            .field("program_hash", &format_args!("{:016x}", self.program_hash))
            .field("inputs", &self.inputs.len())
            .field("step_budget", &self.step_budget)
            .finish()
    }
}

/// Which pass an incident was detected in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Superblock formation (selection, tail duplication, enlargement,
    /// fixup).
    Formation,
    /// Renaming + scheduling.
    Compaction,
    /// Post-pass structural verification.
    Verification,
    /// Post-pass differential interpretation.
    Oracle,
}

impl Pass {
    /// Stable short name — the `pass` label of the `guard.incidents` metric.
    pub fn name(&self) -> &'static str {
        match self {
            Pass::Formation => "formation",
            Pass::Compaction => "compaction",
            Pass::Verification => "verification",
            Pass::Oracle => "oracle",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recovered (or, in strict mode, fatal) pipeline failure.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Procedure the failure occurred in.
    pub proc: String,
    /// Pass that detected it.
    pub pass: Pass,
    /// The typed failure.
    pub error: PipelineError,
    /// True when the procedure was rolled back to the basic-block baseline
    /// and the run continued.
    pub fallback: bool,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}{}",
            self.pass,
            self.proc,
            self.error,
            if self.fallback { " (degraded to basic-block baseline)" } else { "" }
        )
    }
}

/// Summary of a guarded pipeline run.
#[derive(Debug, Clone, Default)]
pub struct GuardReport {
    /// Every failure encountered, in procedure order.
    pub incidents: Vec<Incident>,
    /// Procedures degraded to the basic-block baseline.
    pub degraded_procs: usize,
    /// Total procedures processed.
    pub total_procs: usize,
}

impl GuardReport {
    /// True when every procedure was scheduled as requested.
    pub fn clean(&self) -> bool {
        self.incidents.is_empty()
    }
}

/// The output of [`guarded_form_and_compact`].
#[derive(Debug, Clone)]
pub struct GuardedResult {
    /// Per-procedure schedules (degraded procedures carry their baseline
    /// singleton schedules).
    pub compacted: CompactedProgram,
    /// The final superblock partition per procedure.
    pub partition: Vec<Vec<SuperblockSpec>>,
    /// Formation statistics (contributions of degraded procedures rolled
    /// back).
    pub stats: FormStats,
    /// What happened.
    pub report: GuardReport,
    /// The edge profile of the returned program on oracle input 0, recorded
    /// by the last oracle pass. `Some` only when that pass ran over exactly
    /// the returned program and finished within its budget: a rollback or
    /// a degrade after it, a truncated or failing run, and empty
    /// [`GuardConfig::oracle_inputs`] all leave it `None`.
    pub profile: Option<EdgeProfile>,
}

/// Forms and compacts `program` with per-procedure recovery.
///
/// Procedures are processed in order. For each one, formation + compaction
/// run inside `catch_unwind` and the structural verifier checks the whole
/// transformed program. The differential oracle (when `guard.oracle_inputs`
/// is non-empty) is deferred: one pass over the finished program judges
/// every procedure at once, and only if it fails are the procedures
/// reinstalled one at a time, in order, with the oracle after each. A
/// failed procedure is restored from its snapshot and — in degrade mode —
/// re-compacted as basic-block singletons, so the returned schedules always
/// cover every procedure.
///
/// Formation and compaction of a procedure read only that procedure, so
/// the replay reproduces the per-procedure verdicts exactly. The one
/// difference from checking after every procedure: two miscompiles that
/// cancel out on every oracle input are accepted, since the program that
/// ships matches the original on all of them.
///
/// When nothing fails this computes exactly what
/// [`crate::pipeline::form_and_compact`] computes (same per-procedure
/// iteration order, same results).
///
/// # Errors
/// In strict mode, the first incident is returned as its underlying
/// [`PipelineError`]. In degrade mode an error is returned only when the
/// scheme needed a missing path profile, or when even the basic-block
/// fallback of a procedure failed (which indicates corruption outside the
/// pipeline's control).
pub fn guarded_form_and_compact(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    guard: &GuardConfig,
) -> Result<GuardedResult, PipelineError> {
    guarded_form_and_compact_with(
        program,
        edge,
        path,
        scheme,
        form_config,
        compact_config,
        guard,
        None,
        &Obs::noop(),
        None,
    )
}

/// [`guarded_form_and_compact`] with a shared oracle baseline,
/// observability and an optional post-pass hook.
///
/// `baseline` stands in for the guard's own bounded runs of the
/// untransformed program when it [matches](OracleBaseline::matches)
/// `program`, `guard.oracle_inputs` and `guard.step_budget`; otherwise (or
/// when `None`) the guard computes its own under an `oracle-baseline` span,
/// as a mismatched baseline would judge the wrong program. Either way the
/// result is the same.
///
/// `obs` receives per-procedure `schedule-proc` spans (with `form` /
/// `compact` / `guard-verify` children), one `oracle` span per settle (with
/// an `oracle-replay` child per procedure when the whole-program pass
/// failed), `guard.incidents` counters labeled by failure kind and pass,
/// `guard.degraded_procs`, and one `incident` trace event plus a warning
/// log line per recovered failure.
///
/// `post_pass` runs after each procedure's formation + compaction, *before*
/// verification and the oracle — the seam the fault-injection harness uses
/// to emulate a buggy pass (`pps_ir::fault::FaultInjector` corrupting the
/// just-scheduled procedure). The hook must only mutate procedure `pid`:
/// the recovery boundary snapshots and restores exactly that procedure.
/// The hook may read the whole program, so with a hook the oracle settles
/// after every procedure: each call sees the earlier procedures in their
/// final (accepted or degraded) form, and nothing pending.
///
/// # Errors
/// As [`guarded_form_and_compact`].
#[allow(clippy::too_many_arguments)]
pub fn guarded_form_and_compact_with(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    guard: &GuardConfig,
    baseline: Option<&OracleBaseline>,
    obs: &Obs,
    post_pass: Option<&mut PostPass<'_>>,
) -> Result<GuardedResult, PipelineError> {
    let (post_pass, settle): (&mut PostPass<'_>, _) = match post_pass {
        Some(hook) => (hook, Settle::PerProc),
        None => (&mut |_, _| {}, Settle::Deferred),
    };
    guarded_impl(
        program,
        edge,
        path,
        scheme,
        form_config,
        compact_config,
        guard,
        baseline,
        obs,
        post_pass,
        settle,
    )
}

/// A post-pass hook for [`guarded_form_and_compact_with`]: called with the
/// program and the id of the procedure just formed and compacted.
pub type PostPass<'a> = dyn FnMut(&mut Program, ProcId) + 'a;

/// When the differential oracle judges scheduled procedures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settle {
    /// Once over the whole transformed program, replaying per procedure
    /// only when that pass fails.
    Deferred,
    /// After every procedure, before the next one is scheduled: a post-pass
    /// hook may observe the whole program, so it must see exactly the
    /// settled earlier procedures.
    PerProc,
}

#[allow(clippy::too_many_arguments)]
fn guarded_impl(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    guard: &GuardConfig,
    baseline: Option<&OracleBaseline>,
    obs: &Obs,
    post_pass: &mut PostPass<'_>,
    settle: Settle,
) -> Result<GuardedResult, PipelineError> {
    if scheme.needs_path_profile() && path.is_none() {
        return Err(PipelineError::MissingPathProfile { scheme: scheme.name() });
    }

    let mut run = GuardRun::new(program, guard, baseline, compact_config, obs);
    for pi in 0..program.procs.len() {
        let pid = ProcId::new(pi as u32);
        let name = program.proc(pid).name.clone();
        let snapshot = program.proc(pid).clone();
        // This procedure's own formation counters; folded into the run's
        // totals only once the procedure is accepted.
        let mut stats = FormStats::default();

        let proc_obs = obs.with_label("proc", name.as_str());
        let proc_span = proc_obs.span("schedule-proc").arg("proc", name.as_str());
        let attempt = schedule_proc(
            program, pid, edge, path, scheme, form_config, compact_config, &mut stats, post_pass,
            &proc_obs,
        );
        drop(proc_span);
        match attempt {
            Ok((specs, cp, formed_size)) => {
                run.pending.push(Pending { pid, name, snapshot, stats, specs, cp, formed_size });
                if settle == Settle::PerProc {
                    run.settle(program)?;
                }
            }
            Err((pass, error)) => {
                // Roll back (only procedure `pid` was touched), then judge
                // the earlier procedures first so incidents stay in
                // procedure order and strict mode fails on the first one.
                *program.proc_mut(pid) = snapshot;
                run.settle(program)?;
                run.reject(program, pid, &name, pass, error)?;
            }
        }
    }
    run.settle(program)?;
    Ok(run.finish())
}

/// A scheduled, verified procedure whose oracle verdict is still open.
struct Pending {
    pid: ProcId,
    name: String,
    /// The pre-pass body, reinstalled on rejection.
    snapshot: Proc,
    /// This procedure's formation counters.
    stats: FormStats,
    specs: Vec<SuperblockSpec>,
    cp: CompactedProc,
    /// Static size of the formed procedure (before compaction stubs).
    formed_size: u64,
}

/// Accumulated state of one guarded run: the oracle's ground truth, the
/// procedures awaiting it, and everything already settled (in procedure
/// order).
struct GuardRun<'a> {
    guard: &'a GuardConfig,
    compact_config: &'a CompactConfig,
    obs: &'a Obs,
    /// The untransformed program's behaviour, one run per oracle input:
    /// the caller's shared baseline when it matches, else the guard's own.
    baseline: Cow<'a, OracleBaseline>,
    /// Edge profile of oracle input 0 from the last oracle pass. Every
    /// later change to the program is either judged by another pass or
    /// rejected, and a rejection clears it, so at [`GuardRun::finish`] it
    /// describes exactly the returned program.
    profile: Option<EdgeProfile>,
    pending: Vec<Pending>,
    stats: FormStats,
    /// `static_after` measures the *formed* program (pre-compaction
    /// stubs), matching `form_program`; accumulated per procedure since
    /// formation and compaction interleave here.
    static_after: u64,
    partition: Vec<Vec<SuperblockSpec>>,
    compacted: Vec<CompactedProc>,
    report: GuardReport,
}

impl<'a> GuardRun<'a> {
    fn new(
        program: &Program,
        guard: &'a GuardConfig,
        baseline: Option<&'a OracleBaseline>,
        compact_config: &'a CompactConfig,
        obs: &'a Obs,
    ) -> Self {
        let baseline = OracleBaseline::reuse_or_compute(
            baseline,
            program,
            &guard.oracle_inputs,
            guard.step_budget,
            obs,
        );
        let n = program.procs.len();
        GuardRun {
            guard,
            compact_config,
            obs,
            baseline,
            profile: None,
            pending: Vec::new(),
            stats: FormStats {
                static_before: program.static_size() as u64,
                ..FormStats::default()
            },
            static_after: 0,
            partition: Vec::with_capacity(n),
            compacted: Vec::with_capacity(n),
            report: GuardReport {
                total_procs: n,
                ..GuardReport::default()
            },
        }
    }

    /// Runs the oracle over `program` as it stands, blaming `proc` for any
    /// divergence. Input 0 runs through an edge profiler; when the whole
    /// pass agrees and that run completed, its profile becomes
    /// [`GuardRun::profile`].
    fn oracle(&mut self, program: &Program, proc: &str) -> Result<(), PipelineError> {
        self.profile = None;
        let config = ExecConfig {
            max_instrs: self.guard.step_budget.saturating_mul(BUDGET_FACTOR),
            ..ExecConfig::default()
        };
        let mut profiler = EdgeProfiler::new(program);
        let mut profiled = false;
        let exec = Exec::new(program, config);
        for (input_index, baseline) in self.baseline.runs().iter().enumerate() {
            let args = &self.guard.oracle_inputs[input_index];
            let run = if input_index == 0 {
                let run = exec.run_bounded_traced(args, &mut profiler);
                profiled = matches!(run, Ok(BoundedRun { completed: true, .. }));
                run
            } else {
                exec.run_bounded(args)
            };
            if let Some(error) = oracle_check(proc, input_index, baseline, &run) {
                return Err(error);
            }
        }
        if profiled {
            self.profile = Some(profiler.finish());
        }
        Ok(())
    }

    /// Judges every pending procedure. One oracle pass over the whole
    /// program accepts them all when it succeeds. When it fails (with more
    /// than one procedure pending) the pending procedures are reverted and
    /// reinstalled one at a time in procedure order, with the oracle after
    /// each — exactly the per-procedure checks an eager guard would have
    /// run, since formation and compaction of a procedure read only that
    /// procedure.
    ///
    /// # Errors
    /// As [`GuardRun::reject`].
    fn settle(&mut self, program: &mut Program) -> Result<(), PipelineError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        let _span = self
            .obs
            .span("oracle")
            .arg("inputs", self.baseline.runs().len())
            .arg("procs", pending.len());
        match self.oracle(program, &pending[pending.len() - 1].name) {
            Ok(()) => {
                for p in pending {
                    self.accept(p);
                }
                Ok(())
            }
            // A lone pending procedure's verdict is the whole program's.
            Err(error) if pending.len() == 1 => {
                let p = pending.into_iter().next().expect("one pending procedure");
                self.roll_back(program, p, error)
            }
            Err(_) => self.replay(program, pending),
        }
    }

    /// Reverts every procedure in `pending`, then reinstalls them in order,
    /// each judged against the settled ones before it.
    ///
    /// # Errors
    /// As [`GuardRun::reject`].
    fn replay(&mut self, program: &mut Program, pending: Vec<Pending>) -> Result<(), PipelineError> {
        let bodies: Vec<Proc> = pending
            .iter()
            .map(|p| std::mem::replace(program.proc_mut(p.pid), p.snapshot.clone()))
            .collect();
        for (p, body) in pending.into_iter().zip(bodies) {
            *program.proc_mut(p.pid) = body;
            let verdict = {
                let _span = self.obs.span("oracle-replay").arg("proc", p.name.as_str());
                self.oracle(program, &p.name)
            };
            match verdict {
                Ok(()) => self.accept(p),
                Err(error) => self.roll_back(program, p, error)?,
            }
        }
        Ok(())
    }

    /// Restores an oracle-rejected procedure's snapshot and rejects it.
    fn roll_back(
        &mut self,
        program: &mut Program,
        p: Pending,
        error: PipelineError,
    ) -> Result<(), PipelineError> {
        *program.proc_mut(p.pid) = p.snapshot;
        self.reject(program, p.pid, &p.name, Pass::Oracle, error)
    }

    fn accept(&mut self, p: Pending) {
        self.stats.add_proc(&p.stats);
        self.static_after += p.formed_size;
        self.partition.push(p.specs);
        self.compacted.push(p.cp);
    }

    /// Records an incident for procedure `pid`, already rolled back to its
    /// pre-pass body, and — in degrade mode — schedules it as basic-block
    /// singletons.
    ///
    /// # Errors
    /// In strict mode, `error` itself. In degrade mode, a failure of the
    /// basic-block fallback (corruption outside the pipeline's control).
    fn reject(
        &mut self,
        program: &mut Program,
        pid: ProcId,
        name: &str,
        pass: Pass,
        error: PipelineError,
    ) -> Result<(), PipelineError> {
        // The program changed (rollback, then degrade) since any oracle
        // pass, so that pass's profile no longer describes it.
        self.profile = None;
        let obs = self.obs;
        let fallback = self.guard.mode == GuardMode::Degrade;
        let incident = Incident {
            proc: name.to_string(),
            pass,
            error: error.clone(),
            fallback,
        };
        obs.counter_labeled("guard.incidents", &[("kind", error.kind()), ("pass", pass.name())], 1);
        obs.instant(
            "guard",
            "incident",
            &[
                ("proc", ArgValue::from(name)),
                ("pass", ArgValue::from(pass.name())),
                ("kind", ArgValue::from(error.kind())),
                ("error", ArgValue::from(error.to_string())),
                ("fallback", ArgValue::from(fallback)),
            ],
        );
        obs.log(Level::Warn, || format!("incident: {incident}"));
        self.report.incidents.push(incident);
        if !fallback {
            return Err(error);
        }
        obs.counter("guard.degraded_procs", 1);
        // Degrade: schedule the pristine procedure as basic-block
        // singletons. This is the baseline path every scheme shares; if
        // even it fails, recovery is impossible.
        self.static_after += program.proc(pid).static_size() as u64;
        let specs = singleton_specs(program, pid);
        let proc_obs = obs.with_label("proc", name);
        let cp = try_compact_proc_obs(program.proc_mut(pid), &specs, self.compact_config, &proc_obs)?;
        verify_program(program)?;
        self.report.degraded_procs += 1;
        self.partition.push(specs);
        self.compacted.push(cp);
        Ok(())
    }

    fn finish(self) -> GuardedResult {
        debug_assert!(self.pending.is_empty(), "finish before the last settle");
        let mut stats = self.stats;
        stats.static_after = self.static_after;
        stats.superblocks = self.partition.iter().map(|p| p.len() as u64).sum();
        GuardedResult {
            compacted: CompactedProgram { procs: self.compacted },
            partition: self.partition,
            stats,
            report: self.report,
            profile: self.profile,
        }
    }
}

/// One procedure's form + compact + post-pass hook + verify. On `Err`, the
/// caller rolls the procedure back; the pass tag says where it failed.
#[allow(clippy::too_many_arguments)]
fn schedule_proc(
    program: &mut Program,
    pid: ProcId,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    stats: &mut FormStats,
    post_pass: &mut PostPass<'_>,
    obs: &Obs,
) -> Result<(Vec<SuperblockSpec>, CompactedProc, u64), (Pass, PipelineError)> {
    let proc_name = program.proc(pid).name.clone();

    // Formation + compaction under a panic boundary. Everything these
    // passes mutate is the procedure itself (restored by the caller on
    // failure) and `stats` (discarded likewise), so unwinding here cannot
    // leave broken shared state behind.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (specs, _) = form_proc(program, pid, edge, path, scheme, form_config, stats, obs);
        // Code-growth accounting happens on the formed procedure, before
        // compaction appends singleton stubs (same point `form_program`
        // measures `static_after`).
        let formed_size = program.proc(pid).static_size() as u64;
        let cp = try_compact_proc_obs(program.proc_mut(pid), &specs, compact_config, obs)
            .map_err(|e| (Pass::Compaction, PipelineError::Compaction(e)))?;
        Ok((specs, cp, formed_size))
    }));
    let (specs, cp, formed_size) = match outcome {
        Ok(result) => result?,
        Err(payload) => {
            return Err((
                Pass::Formation,
                PipelineError::Formation {
                    proc: proc_name,
                    message: panic_message(payload.as_ref()),
                },
            ));
        }
    };

    post_pass(program, pid);

    // Post-pass structural check over the whole program (procedures before
    // `pid` already passed it; later ones are untouched — a failure here
    // is attributable to `pid`).
    let _verify_span = obs.span("guard-verify");
    verify_program(program).map_err(|e| (Pass::Verification, PipelineError::Verification(e)))?;

    Ok((specs, cp, formed_size))
}

/// Compares one oracle input's baseline and transformed runs. `None` means
/// consistent.
pub(crate) fn oracle_check(
    proc: &str,
    input_index: usize,
    baseline: &Result<BoundedRun, ExecError>,
    run: &Result<BoundedRun, ExecError>,
) -> Option<PipelineError> {
    let divergence = |detail: String| {
        Some(PipelineError::Divergence {
            proc: proc.to_string(),
            input_index,
            detail,
        })
    };
    match (baseline, run) {
        (Ok(b), Ok(r)) => {
            if b.completed {
                if !r.completed {
                    // The original finished within the base budget; the
                    // transformed program got `BUDGET_FACTOR` times that
                    // and still didn't.
                    return Some(PipelineError::StepBudgetExceeded {
                        proc: proc.to_string(),
                        input_index,
                    });
                }
                if b.result.output != r.result.output {
                    return divergence("output streams differ".to_string());
                }
                if b.result.return_value != r.result.return_value {
                    return divergence(format!(
                        "return value {:?} != {:?}",
                        b.result.return_value, r.result.return_value
                    ));
                }
                if b.result.memory != r.result.memory {
                    return divergence("final memory images differ".to_string());
                }
                None
            } else {
                // Baseline truncated: the transformed run (complete or not)
                // must agree on the observable prefix.
                let n = b.result.output.len().min(r.result.output.len());
                if b.result.output[..n] != r.result.output[..n] {
                    return divergence("output prefixes differ".to_string());
                }
                if r.completed && r.result.output.len() < b.result.output.len() {
                    return divergence(
                        "transformed program finished with less output".to_string(),
                    );
                }
                None
            }
        }
        (Ok(_), Err(e)) => Some(PipelineError::Execution {
            proc: proc.to_string(),
            input_index,
            error: e.clone(),
        }),
        // The original program itself errors on this input: the
        // transformed program must reproduce the same error.
        (Err(be), Err(re)) if be == re => None,
        (Err(be), re) => divergence(format!("baseline error {be:?}, transformed {re:?}")),
    }
}

/// The basic-block baseline partition for one procedure.
fn singleton_specs(program: &Program, pid: ProcId) -> Vec<SuperblockSpec> {
    let proc = program.proc(pid);
    let cfg = Cfg::compute(proc);
    proc.block_ids()
        .filter(|b| cfg.is_reachable(*b))
        .map(SuperblockSpec::singleton)
        .collect()
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::interp::Interp;
    use crate::pipeline::form_and_compact;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::fault::FaultInjector;
    use pps_ir::text::print_program;
    use pps_ir::{AluOp, Operand, Reg};
    use pps_profile::{EdgeProfiler, PathProfiler};

    /// Loop + diamond + call workload (mirrors the pipeline tests).
    fn workload() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.set_memory(1 << 12, (0..64).map(|x| (x * 7 + 3) % 13).collect());
        let helper = pb.declare_proc("mix", 2);
        let mut h = pb.begin_declared(helper);
        let a = Reg::new(0);
        let b = Reg::new(1);
        let r = h.reg();
        h.alu(AluOp::Xor, r, a, b);
        h.alu(AluOp::Mul, r, r, 31i64);
        h.ret(Some(Operand::Reg(r)));
        h.finish();

        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let i = f.reg();
        let acc = f.reg();
        let c = f.reg();
        let v = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        f.mov(acc, 0i64);
        let head = f.new_block();
        let odd = f.new_block();
        let even = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Rem, m, i, 64i64);
        f.load(v, m, 0);
        f.alu(AluOp::Rem, m, i, 3i64);
        f.branch(m, odd, even);
        f.switch_to(odd);
        f.alu(AluOp::Add, acc, acc, v);
        f.jump(latch);
        f.switch_to(even);
        let t = f.reg();
        f.call(helper, vec![Operand::Reg(acc), Operand::Reg(v)], Some(t));
        f.alu(AluOp::Add, acc, acc, t);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Reg(n));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.out(acc);
        f.ret(Some(Operand::Reg(acc)));
        let main = f.finish();
        pb.finish(main)
    }

    fn profiles(p: &Program, arg: i64) -> (EdgeProfile, PathProfile) {
        let mut ep = EdgeProfiler::new(p);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[arg], &mut ep)
            .unwrap();
        let mut pp = PathProfiler::new(p, 15);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[arg], &mut pp)
            .unwrap();
        (ep.finish(), pp.finish())
    }

    fn test_guard(mode: GuardMode) -> GuardConfig {
        GuardConfig {
            mode,
            oracle_inputs: vec![vec![87], vec![13]],
            step_budget: 500_000,
        }
    }

    #[test]
    fn clean_run_matches_unguarded_pipeline() {
        for scheme in [Scheme::BasicBlock, Scheme::M4, Scheme::P4, Scheme::P4E] {
            let base = workload();
            let (ep, pp) = profiles(&base, 150);

            let mut unguarded = base.clone();
            let (_, stats_u) = form_and_compact(
                &mut unguarded,
                &ep,
                Some(&pp),
                scheme,
                &FormConfig::default(),
                &CompactConfig::default(),
            )
            .unwrap();

            let mut guarded = base.clone();
            let result = guarded_form_and_compact(
                &mut guarded,
                &ep,
                Some(&pp),
                scheme,
                &FormConfig::default(),
                &CompactConfig::default(),
                &test_guard(GuardMode::Strict),
            )
            .unwrap();

            assert!(result.report.clean(), "{}: {:?}", scheme.name(), result.report);
            assert_eq!(result.report.degraded_procs, 0);
            assert_eq!(
                print_program(&unguarded),
                print_program(&guarded),
                "{}: guarded transform must be byte-identical",
                scheme.name()
            );
            assert_eq!(result.stats, stats_u, "{}", scheme.name());
        }
    }

    #[test]
    fn missing_path_profile_is_typed() {
        let mut p = workload();
        let (ep, _) = profiles(&p, 50);
        for mode in [GuardMode::Strict, GuardMode::Degrade] {
            let err = guarded_form_and_compact(
                &mut p.clone(),
                &ep,
                None,
                Scheme::P4,
                &FormConfig::default(),
                &CompactConfig::default(),
                &test_guard(mode),
            )
            .unwrap_err();
            assert!(matches!(err, PipelineError::MissingPathProfile { .. }), "{err}");
        }
        let err =
            crate::pipeline::form_program(&mut p, &ep, None, Scheme::P4, &FormConfig::default())
                .unwrap_err();
        assert!(matches!(err, PipelineError::MissingPathProfile { .. }));
    }

    #[test]
    fn injected_fault_degrades_and_preserves_semantics() {
        let base = workload();
        let (ep, pp) = profiles(&base, 150);
        let expected = Interp::new(&base, ExecConfig::default()).run(&[87]).unwrap();
        let inputs = vec![vec![87], vec![13]];

        let mut program = base.clone();
        let mut injector = FaultInjector::new(0xFA11);
        let mut injected = Vec::new();
        let result = guarded_form_and_compact_with(
            &mut program,
            &ep,
            Some(&pp),
            Scheme::P4,
            &FormConfig::default(),
            &CompactConfig::default(),
            &test_guard(GuardMode::Degrade),
            None,
            &Obs::noop(),
            Some(&mut |prog, pid| {
                if let Some(r) = injector.inject_effective(prog, pid, &inputs, 500_000, 32) {
                    injected.push(r);
                }
            }),
        )
        .unwrap();

        assert!(!injected.is_empty(), "injector found no effective fault");
        assert_eq!(
            result.report.incidents.len(),
            injected.len(),
            "every effective fault must raise an incident: {:?}",
            result.report.incidents
        );
        assert_eq!(result.report.degraded_procs, injected.len());
        assert!(result.report.incidents.iter().all(|i| i.fallback));
        // The degraded program still computes the original's answer.
        verify_program(&program).unwrap();
        let got = Interp::new(&program, ExecConfig::default()).run(&[87]).unwrap();
        assert_eq!(expected.output, got.output);
        assert_eq!(expected.return_value, got.return_value);
        // Every procedure still has a schedule.
        assert_eq!(result.compacted.procs.len(), program.procs.len());
    }

    #[test]
    fn strict_mode_fails_fast_on_injected_fault() {
        let base = workload();
        let (ep, pp) = profiles(&base, 150);
        let inputs = vec![vec![87], vec![13]];
        let mut program = base.clone();
        let mut injector = FaultInjector::new(7);
        let err = guarded_form_and_compact_with(
            &mut program,
            &ep,
            Some(&pp),
            Scheme::M4,
            &FormConfig::default(),
            &CompactConfig::default(),
            &test_guard(GuardMode::Strict),
            None,
            &Obs::noop(),
            Some(&mut |prog, pid| {
                let _ = injector.inject_effective(prog, pid, &inputs, 500_000, 32);
            }),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Verification(_)
                    | PipelineError::Divergence { .. }
                    | PipelineError::Execution { .. }
                    | PipelineError::StepBudgetExceeded { .. }
            ),
            "unexpected error class: {err}"
        );
    }

    /// Miscompiles procedure `pid` the same way whatever the rest of the
    /// program looks like: bumps the first immediate ALU operand.
    fn miscompile(prog: &mut Program, pid: ProcId) {
        let proc = prog.proc_mut(pid);
        let site = proc.iter_blocks().find_map(|(b, block)| {
            let i = block.instrs.iter().position(|instr| {
                matches!(instr, pps_ir::Instr::Alu { rhs: Operand::Imm(_), .. })
            })?;
            Some((b, i))
        });
        let (b, i) = site.expect("an immediate ALU operand");
        if let pps_ir::Instr::Alu { rhs: Operand::Imm(k), .. } = &mut proc.block_mut(b).instrs[i] {
            *k += 1;
        }
    }

    /// Breaks procedure `pid` structurally: its entry jumps out of range.
    fn break_structure(prog: &mut Program, pid: ProcId) {
        let proc = prog.proc_mut(pid);
        let target = pps_ir::BlockId::new(proc.blocks.len() as u32 + 7);
        let entry = proc.entry;
        proc.block_mut(entry).term = pps_ir::Terminator::Jump { target };
    }

    /// Guarded P4 run of `workload` with `hook` as the post-pass seam and
    /// the oracle settled as `settle` says.
    fn run_with(
        mode: GuardMode,
        settle: Settle,
        obs: &Obs,
        hook: &mut PostPass<'_>,
    ) -> (Program, Result<GuardedResult, PipelineError>) {
        let mut program = workload();
        let (ep, pp) = profiles(&program, 150);
        let result = guarded_impl(
            &mut program,
            &ep,
            Some(&pp),
            Scheme::P4,
            &FormConfig::default(),
            &CompactConfig::default(),
            &test_guard(mode),
            None,
            obs,
            hook,
            settle,
        );
        (program, result)
    }

    fn span_count(obs: &Obs, name: &str) -> usize {
        let doc = pps_obs::json::parse(&obs.export_trace_json().unwrap()).unwrap();
        doc.get("traceEvents")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("X")
                    && e.get("name").and_then(|v| v.as_str()) == Some(name)
            })
            .count()
    }

    fn recording() -> Obs {
        Obs::recording(pps_obs::ObsConfig { level: Level::Off, trace: true, metrics: false })
    }

    #[test]
    fn deferred_replay_matches_per_procedure_settling() {
        let procs = workload().procs.len();
        assert!(procs >= 2);
        for bad in 0..procs {
            let bad = ProcId::new(bad as u32);
            let mut hook = |prog: &mut Program, pid: ProcId| {
                if pid == bad {
                    miscompile(prog, pid);
                }
            };
            let obs = recording();
            let (deferred_prog, deferred) =
                run_with(GuardMode::Degrade, Settle::Deferred, &obs, &mut hook);
            let deferred = deferred.unwrap();
            let (eager_prog, eager) =
                run_with(GuardMode::Degrade, Settle::PerProc, &Obs::noop(), &mut hook);
            let eager = eager.unwrap();

            // The whole-program pass failed, so every pending procedure was
            // replayed one at a time.
            assert_eq!(span_count(&obs, "oracle"), 1, "{bad}");
            assert_eq!(span_count(&obs, "oracle-replay"), procs, "{bad}");
            assert_eq!(eager.report.incidents.len(), 1, "{bad}: {:?}", eager.report);
            assert_eq!(eager.report.incidents[0].pass, Pass::Oracle);
            assert_eq!(format!("{:?}", deferred.report), format!("{:?}", eager.report), "{bad}");
            assert_eq!(deferred.partition, eager.partition, "{bad}");
            assert_eq!(deferred.stats, eager.stats, "{bad}");
            assert_eq!(print_program(&deferred_prog), print_program(&eager_prog), "{bad}");
        }
    }

    #[test]
    fn strict_mode_reports_earlier_oracle_failure_before_later_verification_failure() {
        let mut hook = |prog: &mut Program, pid: ProcId| match pid.index() {
            0 => miscompile(prog, pid),
            _ => break_structure(prog, pid),
        };
        let (_, deferred) = run_with(GuardMode::Strict, Settle::Deferred, &Obs::noop(), &mut hook);
        let (_, eager) = run_with(GuardMode::Strict, Settle::PerProc, &Obs::noop(), &mut hook);
        let err = deferred.unwrap_err();
        assert_eq!(err, eager.unwrap_err());
        let first = workload().procs[0].name.clone();
        assert!(
            matches!(
                &err,
                PipelineError::Divergence { proc, .. }
                    | PipelineError::Execution { proc, .. }
                    | PipelineError::StepBudgetExceeded { proc, .. } if *proc == first
            ),
            "expected the oracle failure of `{first}`, got {err}"
        );
    }

    #[test]
    fn clean_run_executes_one_oracle_span_per_settle() {
        let base = workload();
        let (ep, pp) = profiles(&base, 150);
        let guard = test_guard(GuardMode::Strict);
        let (form, compact) = (FormConfig::default(), CompactConfig::default());

        // Unhooked: a single settle after the last procedure.
        let obs = recording();
        let result = guarded_form_and_compact_with(
            &mut base.clone(),
            &ep,
            Some(&pp),
            Scheme::P4,
            &form,
            &compact,
            &guard,
            None,
            &obs,
            None,
        )
        .unwrap();
        assert!(result.report.clean());
        assert_eq!(span_count(&obs, "oracle"), 1);
        assert_eq!(span_count(&obs, "oracle-replay"), 0);

        // Hooked: settled after every procedure.
        let obs = recording();
        guarded_form_and_compact_with(
            &mut base.clone(),
            &ep,
            Some(&pp),
            Scheme::P4,
            &form,
            &compact,
            &guard,
            None,
            &obs,
            Some(&mut |_, _| {}),
        )
        .unwrap();
        assert_eq!(span_count(&obs, "oracle"), base.procs.len());
        assert_eq!(span_count(&obs, "oracle-replay"), 0);
    }

    #[test]
    fn shared_baseline_is_used_only_when_its_key_matches() {
        let base = workload();
        let (ep, pp) = profiles(&base, 150);
        let guard = test_guard(GuardMode::Strict);
        let (inputs, budget) = (&guard.oracle_inputs, guard.step_budget);
        let mut other = base.clone();
        miscompile(&mut other, ProcId::new(0));
        // (baseline, baselines the guard runs itself): only its own
        // program's, on the same inputs and budget, is used. The others
        // would reject the clean compile if the guard trusted them.
        let cases = [
            (None, 1),
            (Some(OracleBaseline::compute(&base, inputs, budget)), 0),
            (Some(OracleBaseline::compute(&other, inputs, budget)), 1),
            (Some(OracleBaseline::compute(&base, &inputs[..1], budget)), 1),
            (Some(OracleBaseline::compute(&base, inputs, budget * 2)), 1),
        ];
        let mut shipped = Vec::new();
        for (baseline, own_runs) in &cases {
            let obs = recording();
            let mut program = base.clone();
            let result = guarded_form_and_compact_with(
                &mut program,
                &ep,
                Some(&pp),
                Scheme::P4,
                &FormConfig::default(),
                &CompactConfig::default(),
                &guard,
                baseline.as_ref(),
                &obs,
                None,
            )
            .unwrap();
            assert!(result.report.clean(), "{baseline:?}");
            assert_eq!(span_count(&obs, "oracle-baseline"), *own_runs, "{baseline:?}");
            shipped.push((print_program(&program), format!("{:?}", result.partition), result.profile));
        }
        assert!(shipped.iter().all(|s| *s == shipped[0]));
    }

    /// A fresh edge profile of `p` on `args`.
    fn edge_profile(p: &Program, args: &[i64]) -> EdgeProfile {
        let mut profiler = EdgeProfiler::new(p);
        Interp::new(p, ExecConfig::default()).run_traced(args, &mut profiler).unwrap();
        profiler.finish()
    }

    #[test]
    fn clean_run_returns_the_shipped_programs_profile_on_input_0() {
        for settle in [Settle::Deferred, Settle::PerProc] {
            let (program, result) =
                run_with(GuardMode::Strict, settle, &Obs::noop(), &mut |_, _| {});
            let result = result.unwrap();
            assert!(result.report.clean(), "{settle:?}");
            let input0 = &test_guard(GuardMode::Strict).oracle_inputs[0];
            assert_eq!(result.profile, Some(edge_profile(&program, input0)), "{settle:?}");
        }
    }

    #[test]
    fn profile_follows_the_last_program_change() {
        let procs = workload().procs.len();
        let input0 = test_guard(GuardMode::Degrade).oracle_inputs[0].clone();
        for settle in [Settle::Deferred, Settle::PerProc] {
            for bad in 0..procs {
                let mut hook = |prog: &mut Program, pid: ProcId| {
                    if pid.index() == bad {
                        miscompile(prog, pid);
                    }
                };
                let (program, result) =
                    run_with(GuardMode::Degrade, settle, &Obs::noop(), &mut hook);
                let result = result.unwrap();
                assert_eq!(result.report.degraded_procs, 1, "{settle:?} {bad}");
                if bad == procs - 1 {
                    // The degrade came after the last oracle pass.
                    assert_eq!(result.profile, None, "{settle:?} {bad}");
                } else {
                    // A later procedure's pass ran over the degraded one.
                    assert_eq!(
                        result.profile,
                        Some(edge_profile(&program, &input0)),
                        "{settle:?} {bad}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_profile_without_a_complete_oracle_run() {
        let base = workload();
        let (ep, pp) = profiles(&base, 150);
        let no_inputs = GuardConfig { oracle_inputs: Vec::new(), ..test_guard(GuardMode::Strict) };
        // 80 instructions: far short of either input's run, so both the
        // baseline and the transformed run stop early and agree.
        let truncated = GuardConfig { step_budget: 10, ..test_guard(GuardMode::Strict) };
        for guard in [no_inputs, truncated] {
            let result = guarded_form_and_compact(
                &mut base.clone(),
                &ep,
                Some(&pp),
                Scheme::P4,
                &FormConfig::default(),
                &CompactConfig::default(),
                &guard,
            )
            .unwrap();
            assert!(result.report.clean(), "{guard:?}");
            assert_eq!(result.profile, None, "{guard:?}");
        }
    }

    #[test]
    fn oracle_prefix_logic_handles_truncation() {
        let mk = |completed, output: Vec<i64>| {
            Ok(BoundedRun {
                result: pps_ir::interp::ExecResult {
                    output,
                    return_value: None,
                    counts: Default::default(),
                    memory: Vec::new(),
                },
                completed,
            })
        };
        // Consistent prefixes: no error.
        assert!(oracle_check("p", 0, &mk(false, vec![1, 2]), &mk(false, vec![1, 2, 3])).is_none());
        // Prefix mismatch: divergence.
        assert!(matches!(
            oracle_check("p", 0, &mk(false, vec![1, 2]), &mk(true, vec![1, 9])),
            Some(PipelineError::Divergence { .. })
        ));
        // Transformed completes with *less* output than the baseline saw.
        assert!(matches!(
            oracle_check("p", 0, &mk(false, vec![1, 2, 3]), &mk(true, vec![1, 2])),
            Some(PipelineError::Divergence { .. })
        ));
        // Baseline completed, transformed truncated at 8x budget.
        assert!(matches!(
            oracle_check("p", 3, &mk(true, vec![1]), &mk(false, vec![1])),
            Some(PipelineError::StepBudgetExceeded { input_index: 3, .. })
        ));
    }
}
