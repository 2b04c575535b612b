//! The complete formation pipeline, and formation + compaction in one call.

use crate::config::{FormConfig, Scheme};
use crate::enlarge::{enlarge_edge, enlarge_path, snapshot_terms, SbBuild, SbIndex};
use crate::fixup::split_side_entrances;
use crate::guard::PipelineError;
use crate::select::{select_traces_edge, select_traces_path, Trace};
use crate::tail_dup::tail_duplicate;
use crate::unit::CompileUnit;
use pps_compact::{try_compact_program, CompactConfig, CompactedProgram, SuperblockSpec};
use pps_ir::{BlockId, ProcId, Program};
use pps_obs::{ArgValue, Obs};
use pps_profile::{EdgeProfile, PathProfile};

/// Aggregate statistics of one formation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormStats {
    /// Superblocks formed (before compaction stubs).
    pub superblocks: u64,
    /// Blocks copied by tail duplication.
    pub tail_dup_blocks: u64,
    /// Blocks appended by enlargement.
    pub enlarged_blocks: u64,
    /// Superblocks skipped by the path completion-frequency check.
    pub skipped_low_completion: u64,
    /// Side-entrance splits performed by fixup.
    pub splits: u64,
    /// Static program size (instructions) before formation.
    pub static_before: u64,
    /// Static program size (instructions) after formation.
    pub static_after: u64,
}

impl FormStats {
    /// Adds one procedure's formation counters (the per-procedure fields;
    /// the program-level ones are the caller's to set).
    pub(crate) fn add_proc(&mut self, local: &FormStats) {
        self.tail_dup_blocks += local.tail_dup_blocks;
        self.enlarged_blocks += local.enlarged_blocks;
        self.skipped_low_completion += local.skipped_low_completion;
        self.splits += local.splits;
    }
}

/// A formed program: the superblock partition per procedure.
#[derive(Debug, Clone)]
pub struct FormedProgram {
    /// Per-procedure superblocks, each with physical blocks and the
    /// original (profile-time) block per position.
    pub partition: Vec<Vec<SuperblockSpec>>,
    /// Per-procedure original-block maps (physical → original), for
    /// diagnostics.
    pub orig_of: Vec<Vec<BlockId>>,
    /// Formation statistics.
    pub stats: FormStats,
}

/// Forms superblocks over the whole program with the given scheme.
///
/// Mutates the program (tail duplication and enlargement copy blocks and
/// rewire edges) while preserving observable semantics. Profiles must have
/// been collected on the program *before* this call; original-id bookkeeping
/// keeps the queries valid.
///
/// # Errors
/// Returns [`PipelineError::MissingPathProfile`] when `scheme` needs a path
/// profile and `path` is `None`.
pub fn form_program(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    config: &FormConfig,
) -> Result<FormedProgram, PipelineError> {
    if scheme.needs_path_profile() && path.is_none() {
        return Err(PipelineError::MissingPathProfile { scheme: scheme.name() });
    }
    let mut stats = FormStats {
        static_before: program.static_size() as u64,
        ..FormStats::default()
    };
    let mut partition = Vec::with_capacity(program.procs.len());
    let mut orig_maps = Vec::with_capacity(program.procs.len());
    let obs = Obs::noop();

    for pi in 0..program.procs.len() {
        let pid = ProcId::new(pi as u32);
        let (specs, orig_of) = form_proc(program, pid, edge, path, scheme, config, &mut stats, &obs);
        partition.push(specs);
        orig_maps.push(orig_of);
    }
    stats.static_after = program.static_size() as u64;
    stats.superblocks = partition.iter().map(|p: &Vec<SuperblockSpec>| p.len() as u64).sum();
    Ok(FormedProgram { partition, orig_of: orig_maps, stats })
}

/// Forms superblocks for procedure `pid` alone — the per-procedure unit of
/// work [`form_program`] iterates and the guard's recovery boundary
/// ([`crate::guard`]) wraps, which must be able to form, validate, and on
/// failure roll back one procedure at a time. The caller has already
/// checked that a path scheme has its path profile.
///
/// Checks the procedure out as a [`CompileUnit`] so every pass consumes its
/// cached analyses; only mutations (which bump the procedure's generation)
/// trigger recomputation. When `obs` records, the work runs under a `form`
/// span scoped to the procedure, with formation counter deltas recorded
/// around it.
///
/// Only procedure `pid` is mutated. `stats` is updated in place (the guard
/// passes a per-procedure copy so a rollback discards it); program-level
/// fields (`static_before`/`static_after`/`superblocks`) are left to the
/// caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn form_proc(
    program: &mut Program,
    pid: ProcId,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    config: &FormConfig,
    stats: &mut FormStats,
    obs: &Obs,
) -> (Vec<SuperblockSpec>, Vec<BlockId>) {
    let mut unit = CompileUnit::detach(program, pid);
    let (sbs, orig_of) = if obs.is_recording() {
        let obs = obs.with_label("proc", unit.proc().name.as_str());
        let span = obs
            .span("form")
            .arg("proc", unit.proc().name.as_str())
            .arg("scheme", scheme.name());
        let before = *stats;
        let out = form_unit(&mut unit, edge, path, scheme, config, stats, &obs);
        obs.counter("form.superblocks", out.0.len() as u64);
        obs.counter("form.tail_dup_blocks", stats.tail_dup_blocks - before.tail_dup_blocks);
        obs.counter("form.enlarged_blocks", stats.enlarged_blocks - before.enlarged_blocks);
        obs.counter(
            "form.skipped_low_completion",
            stats.skipped_low_completion - before.skipped_low_completion,
        );
        obs.counter("form.splits", stats.splits - before.splits);
        let (hits, misses) = unit.cache_stats();
        obs.counter("form.analysis_cache_hits", hits);
        obs.counter("form.analysis_cache_misses", misses);
        drop(span);
        out
    } else {
        form_unit(&mut unit, edge, path, scheme, config, stats, obs)
    };
    unit.reattach(program);
    let specs = sbs.into_iter().map(|sb| SuperblockSpec::new(sb.blocks)).collect();
    (specs, orig_of)
}

/// Select → tail duplication → enlargement → fixup over one checked-out
/// procedure.
fn form_unit(
    unit: &mut CompileUnit,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    config: &FormConfig,
    stats: &mut FormStats,
    obs: &Obs,
) -> (Vec<SbBuild>, Vec<BlockId>) {
    let pid = unit.pid();
    let mut orig_of: Vec<BlockId> = unit.proc().block_ids().collect();

    if scheme == Scheme::BasicBlock {
        let cfg = unit.cfg();
        let sbs = unit
            .proc()
            .block_ids()
            .filter(|b| cfg.is_reachable(*b))
            .map(|b| SbBuild::from_original(vec![b]))
            .collect();
        return (sbs, orig_of);
    }

    // 1. Trace selection.
    let select_span = obs.span("select").arg("scheme", scheme.name());
    let analysis = unit.analysis();
    let traces: Vec<Trace> = match scheme {
        Scheme::Edge { .. } => select_traces_edge(unit.proc(), pid, &analysis, edge),
        // The Pk*/Px* schemes run the path selector over their derived
        // profile view (k-iteration substring counts / post-inline paths);
        // the fidelity difference lives entirely in the profile.
        Scheme::Path { .. } | Scheme::KPath { .. } | Scheme::Inter { .. } => {
            select_traces_path(unit.proc(), pid, &analysis, path.expect("path profile"), config)
        }
        Scheme::BasicBlock => unreachable!(),
    };
    drop(select_span.arg("traces", traces.len()));
    if obs.is_recording() {
        obs.counter("form.traces_selected", traces.len() as u64);
        for (ti, trace) in traces.iter().enumerate() {
            let head = trace.blocks[0];
            obs.decision(
                "form.trace_selected",
                &[
                    ("scheme", ArgValue::from(scheme.name())),
                    ("trace", ArgValue::from(ti)),
                    ("head", ArgValue::from(head.index())),
                    ("blocks", ArgValue::from(trace.blocks.len())),
                    ("head_freq", ArgValue::from(edge.block_freq(pid, head))),
                ],
            );
        }
    }

    // 2. Tail duplication.
    let tail_span = obs.span("tail_dup");
    let mut sbs: Vec<SbBuild> = Vec::with_capacity(traces.len());
    let mut chains: Vec<SbBuild> = Vec::new();
    for trace in &traces {
        // Each duplication rewires edges, so the cached CFG refreshes
        // per trace; with no duplications it is a straight cache hit.
        let cfg = unit.cfg();
        let dup = tail_duplicate(unit.proc_mut(), trace, &cfg);
        stats.tail_dup_blocks += dup.chain.len() as u64;
        for (&c, &o) in dup.chain.iter().zip(dup.chain_orig.iter()) {
            debug_assert_eq!(c.index(), orig_of.len());
            orig_of.push(orig_of[o.index()]);
        }
        sbs.push(SbBuild { blocks: dup.main.clone(), orig: dup.main });
        if !dup.chain.is_empty() {
            let orig: Vec<BlockId> = dup.chain_orig.iter().map(|o| orig_of[o.index()]).collect();
            chains.push(SbBuild { blocks: dup.chain, orig });
        }
    }
    let n_mains = sbs.len();
    sbs.extend(chains);
    // Compensation-code flags: tail-dup chains (and, later, repair chains)
    // are absorbable by P4e.
    let mut is_chain: Vec<bool> = (0..sbs.len()).map(|i| i >= n_mains).collect();

    // Split any residual side entrances before classification (tail
    // duplication of later traces may have redirected edges into earlier
    // copy chains).
    let cfg = unit.cfg();
    let (n, pieces) = split_side_entrances(&cfg, &mut sbs);
    stats.splits += n as u64;
    is_chain = pieces.iter().map(|p| is_chain[p.origin]).collect();
    drop(tail_span.arg("superblocks", sbs.len()).arg("splits", n));

    // 3. Enlargement, iterated with fixup. An enlargement walk that
    // diverges from another superblock's internal trace leaves a copy with
    // an edge into that superblock's interior; fixup splits the entered
    // superblock there, and the next pass may enlarge the fresh fragments
    // (whose heads the new classification now sees). Two to three passes
    // reach a fixpoint in practice; each superblock is enlarged at most
    // once.
    let mut pending: Vec<bool> = vec![true; sbs.len()];
    for pass in 0..3 {
        if !pending.iter().any(|&p| p) {
            break;
        }
        let _enlarge_span = obs.span("enlarge").arg("pass", pass);
        let analysis = unit.analysis();
        let index = SbIndex::build(unit.proc(), pid, &sbs, &is_chain, edge, &analysis);
        let snapshot: Vec<Vec<BlockId>> = sbs.iter().map(|s| s.blocks.clone()).collect();
        let term_snapshot = snapshot_terms(unit.proc());
        // Hot-first order by head frequency.
        let mut order: Vec<usize> = (0..sbs.len()).filter(|&i| pending[i]).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(edge.block_freq(pid, sbs[i].orig[0])));
        let proc = unit.proc_mut();
        let mut new_chains: Vec<SbBuild> = Vec::new();
        for i in order {
            match scheme {
                Scheme::Edge { unroll } => {
                    let (st, chains) = enlarge_edge(
                        proc, pid, &mut sbs[i], i as u32, &index, &term_snapshot, &snapshot,
                        edge, &mut orig_of, unroll, config,
                    );
                    stats.enlarged_blocks += u64::from(st.appended);
                    new_chains.extend(chains);
                }
                Scheme::Path { .. } | Scheme::KPath { .. } | Scheme::Inter { .. } => {
                    // Pk*/Px* enlarge exactly like P{n}: cross-iteration
                    // and cross-call growth are bounded by where their
                    // derived profiles have support, not by new rules.
                    let (unroll, restrained) = match scheme {
                        Scheme::Path { unroll, restrained } => (unroll, restrained),
                        Scheme::KPath { unroll, .. } | Scheme::Inter { unroll } => {
                            (unroll, false)
                        }
                        _ => unreachable!(),
                    };
                    let (st, chains) = enlarge_path(
                        proc, pid, &mut sbs[i], i as u32, &index, &term_snapshot,
                        path.expect("path profile"), &mut orig_of, unroll, restrained, config,
                    );
                    stats.enlarged_blocks += u64::from(st.appended);
                    stats.skipped_low_completion += u64::from(st.skipped_low_completion);
                    if st.skipped_low_completion {
                        obs.decision(
                            "form.enlarge_skipped",
                            &[
                                ("sb", ArgValue::from(i)),
                                ("head", ArgValue::from(sbs[i].orig[0].index())),
                                ("reason", ArgValue::from("low_completion")),
                            ],
                        );
                    }
                    new_chains.extend(chains);
                }
                Scheme::BasicBlock => unreachable!(),
            }
        }
        // Compensation chains are complete superblocks; they are not
        // themselves enlarged.
        sbs.extend(new_chains);
        pending.resize(sbs.len(), false);
        is_chain.resize(sbs.len(), true);
        let cfg = unit.cfg();
        let (n, pieces) = split_side_entrances(&cfg, &mut sbs);
        stats.splits += n as u64;
        // Fresh fragments become enlargement candidates; everything
        // else is done.
        pending = pieces.iter().map(|p| p.fragment).collect();
        is_chain = pieces.iter().map(|p| is_chain[p.origin]).collect();
        if n == 0 {
            break;
        }
    }

    // Final fixup (harmless if already clean).
    let fixup_span = obs.span("fixup");
    let cfg = unit.cfg();
    let (n, _) = split_side_entrances(&cfg, &mut sbs);
    stats.splits += n as u64;
    drop(fixup_span.arg("splits", n));
    (sbs, orig_of)
}

/// Forms superblocks and immediately compacts them: the paper's complete
/// `form` + `compact` back end.
///
/// This is the *unguarded* pipeline: any internal invariant violation
/// surfaces as an `Err` (or, for bugs that panic outright, a panic). Use
/// [`crate::guard::guarded_form_and_compact`] for the fault-tolerant entry
/// point with per-procedure recovery.
///
/// # Errors
/// Returns [`PipelineError::MissingPathProfile`] when `scheme` needs a path
/// profile none was given, and [`PipelineError::Compaction`] when the formed
/// partition fails compaction validation.
pub fn form_and_compact(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
) -> Result<(CompactedProgram, FormStats), PipelineError> {
    let formed = form_program(program, edge, path, scheme, form_config)?;
    let compacted = try_compact_program(program, &formed.partition, compact_config)
        .map_err(PipelineError::Compaction)?;
    Ok((compacted, formed.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::verify::verify_program;
    use pps_compact::compact_program;
    use pps_ir::{AluOp, Operand, Reg};
    use pps_profile::{EdgeProfiler, PathProfiler};

    /// A program exercising loops, joins, calls and memory: computes a
    /// checksum over a small table with a conditional in the loop.
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

    #[test]
    fn all_schemes_preserve_semantics_and_partition() {
        for scheme in [
            Scheme::BasicBlock,
            Scheme::M4,
            Scheme::M16,
            Scheme::P4,
            Scheme::P4E,
        ] {
            let mut p = workload();
            // Train on 150 iterations; test on 87 (different input).
            let (ep, pp) = profiles(&p, 150);
            let before = Interp::new(&p, ExecConfig::default()).run(&[87]).unwrap();
            let formed = form_program(&mut p, &ep, Some(&pp), scheme, &FormConfig::default())
                .unwrap();
            verify_program(&p).unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            let after = Interp::new(&p, ExecConfig::default()).run(&[87]).unwrap();
            assert_eq!(before.output, after.output, "{}", scheme.name());
            assert_eq!(before.return_value, after.return_value, "{}", scheme.name());

            // Partition invariants hold (compact_program would panic
            // otherwise; run it for the full check + semantics again).
            let compacted = compact_program(
                &mut p,
                &formed.partition,
                &CompactConfig::default(),
            );
            verify_program(&p).unwrap();
            let after2 = Interp::new(&p, ExecConfig::default()).run(&[87]).unwrap();
            assert_eq!(before.output, after2.output, "{} post-compact", scheme.name());
            assert!(compacted.total_items() > 0);
        }
    }

    #[test]
    fn enlargement_grows_code_for_hot_loops() {
        let mut p = workload();
        let (ep, pp) = profiles(&p, 300);
        let formed =
            form_program(&mut p, &ep, Some(&pp), Scheme::P4, &FormConfig::default()).unwrap();
        assert!(formed.stats.enlarged_blocks > 0, "hot loop enlarged");
        assert!(formed.stats.static_after > formed.stats.static_before);
    }

    #[test]
    fn m16_expands_more_than_m4() {
        let mut p4 = workload();
        let mut p16 = workload();
        let (ep, _) = profiles(&p4, 300);
        let f4 = form_program(&mut p4, &ep, None, Scheme::M4, &FormConfig::default()).unwrap();
        let f16 = form_program(&mut p16, &ep, None, Scheme::M16, &FormConfig::default()).unwrap();
        assert!(
            f16.stats.static_after > f4.stats.static_after,
            "M16 {} !> M4 {}",
            f16.stats.static_after,
            f4.stats.static_after
        );
    }

    #[test]
    fn form_and_compact_end_to_end() {
        let mut p = workload();
        let (ep, pp) = profiles(&p, 120);
        let before = Interp::new(&p, ExecConfig::default()).run(&[64]).unwrap();
        let (compacted, stats) = form_and_compact(
            &mut p,
            &ep,
            Some(&pp),
            Scheme::P4,
            &FormConfig::default(),
            &CompactConfig::default(),
        )
        .unwrap();
        let after = Interp::new(&p, ExecConfig::default()).run(&[64]).unwrap();
        assert_eq!(before.output, after.output);
        assert!(stats.superblocks > 0);
        assert_eq!(compacted.procs.len(), p.procs.len());
    }

    #[test]
    fn basic_block_scheme_is_singletons() {
        let mut p = workload();
        let (ep, _) = profiles(&p, 50);
        let formed = form_program(&mut p, &ep, None, Scheme::BasicBlock, &FormConfig::default())
            .unwrap();
        for sbs in &formed.partition {
            assert!(sbs.iter().all(|s| s.len() == 1));
        }
        assert_eq!(formed.stats.enlarged_blocks, 0);
        assert_eq!(formed.stats.static_before, formed.stats.static_after);
    }
}
