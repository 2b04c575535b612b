//! The per-figure experiment drivers and the parallel experiment engine.
//!
//! Every driver (`table1`, `fig4`…`fig7`, `missrates`, `ablate`) walks its
//! benchmark × scheme matrix through a [`RunCtx`]. The context can service
//! those walks three ways:
//!
//! - **Direct** — execute each cell inline (a bare [`RunCtx::paper`]
//!   context, for callers that drive one driver by hand).
//! - **Plan** — record which cells the driver asks for, returning
//!   placeholder results. Driver control flow is data-independent, so one
//!   plan walk discovers the exact cell list of the real run.
//! - **Replay** — answer each cell from precomputed results.
//!
//! [`run_experiment_jobs_config`] composes them: plan the cells, execute the
//! unique ones across a scoped-thread pool ([`crate::pool`]) with each cell
//! recording into a private forked `Obs` sink, then replay the driver,
//! absorbing each cell's sink in matrix order. Because replay order never
//! depends on the job count, the rendered tables and the merged metrics
//! registry are byte-identical for any `--jobs` value.

use crate::pool;
use crate::report::{incident_table, millions, percent, ratio, Table};
use crate::runner::{run_scheme_obs, ProfileCache, RunConfig, RunError, SchemeRun};
use pps_core::config::Scheme;
use pps_core::{GuardMode, Incident};
use pps_machine::MachineConfig;
use pps_obs::Obs;
use pps_suite::{all_benchmarks, Benchmark, Scale};
use std::collections::HashMap;

/// All experiment identifiers accepted by the harness binary.
pub const EXPERIMENTS: &[&str] = &[
    "table1", "fig4", "fig5", "fig6", "fig7", "missrates", "ablate", "tracecache", "predict",
    "diverge",
];

/// Selects benchmarks, optionally filtered by name.
pub fn select_benchmarks(scale: Scale, filter: Option<&str>) -> Vec<Benchmark> {
    all_benchmarks(scale)
        .into_iter()
        .filter(|b| filter.is_none_or(|f| f == b.name))
        .collect()
}

/// Identity of one benchmark × scheme × configuration cell. The config's
/// `Debug` rendering keys ablation variants apart.
type CellKey = (String, String, String);

fn cell_key(bench: &Benchmark, scheme: Scheme, config: &RunConfig) -> CellKey {
    (bench.name.to_string(), scheme.name(), config_fingerprint(config))
}

/// A deterministic identity string for a config variant. The derived
/// `Debug` won't do for `preloaded` profiles: their `HashMap`s iterate in
/// a per-instance order, and the plan / execute / replay walks each
/// retrain their own instances — so the pair is keyed by its canonical
/// content hash instead.
fn config_fingerprint(config: &RunConfig) -> String {
    let preloaded = config
        .preloaded
        .as_ref()
        .map(|p| pps_profile::profile_pair_hash(&p.0, &p.1));
    let mut slim = config.clone();
    slim.preloaded = None;
    format!("{slim:?} preloaded={preloaded:?}")
}

/// One cell the plan pass discovered.
#[derive(Debug, Clone)]
struct PlannedCell {
    bench: String,
    scheme: Scheme,
    config: RunConfig,
}

/// One executed cell awaiting replay: its result and the private `Obs`
/// fork it recorded into.
#[derive(Debug, Clone)]
struct ExecutedCell {
    result: Result<SchemeRun, RunError>,
    fork: Obs,
    absorbed: bool,
}

/// How a [`RunCtx`] services `run` calls (see the module docs).
#[derive(Debug, Clone, Default)]
enum CtxMode {
    /// Execute each cell inline.
    #[default]
    Direct,
    /// Record requested cells; return placeholders.
    Plan(Vec<PlannedCell>),
    /// Answer from precomputed results, absorbing each cell's sink once.
    Replay(HashMap<CellKey, ExecutedCell>),
}

/// Sweep context: the shared [`RunConfig`] plus every guardrail incident
/// collected across the sweep's runs, tagged with benchmark and scheme.
#[derive(Debug, Clone, Default)]
pub struct RunCtx {
    /// Base configuration for every run of the sweep.
    pub config: RunConfig,
    /// `(benchmark, scheme, incident)` for every incident recorded.
    pub incidents: Vec<(String, String, Incident)>,
    /// Observability handle every run records into (no-op by default).
    pub obs: Obs,
    /// Per-benchmark trained-profile cache shared by every run of the
    /// sweep: a benchmark fanned across several schemes trains once.
    pub profiles: ProfileCache,
    mode: CtxMode,
}

impl RunCtx {
    /// The paper's configuration under the given guard mode.
    pub fn paper(mode: GuardMode) -> Self {
        let mut config = RunConfig::paper();
        config.guard.mode = mode;
        RunCtx { config, ..RunCtx::default() }
    }

    /// Runs `bench` × `scheme` under the context's own configuration.
    pub fn run(&mut self, bench: &Benchmark, scheme: Scheme) -> Result<SchemeRun, RunError> {
        let config = self.config.clone();
        self.run_with(bench, scheme, &config)
    }

    /// Runs `bench` × `scheme` under a configuration variant (ablations),
    /// still collecting its incidents into this context.
    pub fn run_with(
        &mut self,
        bench: &Benchmark,
        scheme: Scheme,
        config: &RunConfig,
    ) -> Result<SchemeRun, RunError> {
        match &mut self.mode {
            CtxMode::Direct => {
                let filled = self.profiles.fill(bench, scheme, config)?;
                let r = run_scheme_obs(bench, scheme, &filled, &self.obs)?;
                for inc in &r.guard.incidents {
                    self.incidents
                        .push((bench.name.to_string(), scheme.name(), inc.clone()));
                }
                Ok(r)
            }
            CtxMode::Plan(cells) => {
                let key = cell_key(bench, scheme, config);
                if !cells.iter().any(|c| cell_matches(c, &key)) {
                    cells.push(PlannedCell {
                        bench: bench.name.to_string(),
                        scheme,
                        config: config.clone(),
                    });
                }
                Ok(placeholder_run(scheme))
            }
            CtxMode::Replay(cells) => {
                let key = cell_key(bench, scheme, config);
                let cell = cells.get_mut(&key).expect("replayed cell was planned");
                // Absorb before inspecting the result so a failed cell's
                // partial metrics merge exactly as the direct path records
                // them. Repeat cells were executed once; their sink is
                // drained, so re-absorbing is a no-op.
                if !cell.absorbed {
                    cell.absorbed = true;
                    self.obs.absorb(&cell.fork);
                }
                let r = cell.result.clone()?;
                for inc in &r.guard.incidents {
                    self.incidents
                        .push((bench.name.to_string(), scheme.name(), inc.clone()));
                }
                Ok(r)
            }
        }
    }
}

fn cell_matches(cell: &PlannedCell, key: &CellKey) -> bool {
    cell.bench == key.0 && cell.scheme.name() == key.1 && config_fingerprint(&cell.config) == key.2
}

/// An empty [`SchemeRun`] for the plan pass. Drivers may do arithmetic on
/// it while planning (ratios of zeros and the like); the resulting tables
/// are discarded — only the recorded cell list matters.
fn placeholder_run(scheme: Scheme) -> SchemeRun {
    SchemeRun {
        scheme,
        cycles: 0,
        cycles_icache: 0,
        miss_rate: 0.0,
        accesses: 0,
        misses: 0,
        sb_stats: Default::default(),
        static_instrs: 0,
        form_stats: Default::default(),
        counts: Default::default(),
        guard: Default::default(),
    }
}

/// Dispatches an experiment id to its driver under the given context.
fn build_tables(
    id: &str,
    benches: &[Benchmark],
    ctx: &mut RunCtx,
) -> Result<Vec<Table>, RunError> {
    Ok(match id {
        "table1" => vec![table1(benches, ctx)?],
        "fig4" => vec![fig4(benches, ctx)?],
        "fig5" => vec![fig5(benches, ctx)?],
        "fig6" => vec![fig6(benches, ctx)?],
        "fig7" => vec![fig7(benches, ctx)?],
        "missrates" => vec![missrates(benches, ctx)?],
        "diverge" => vec![diverge(benches, ctx)?],
        "ablate" => ablate(benches, ctx)?,
        "tracecache" => vec![tracecache(benches)?],
        "predict" => vec![predict(benches)?],
        other => panic!("unknown experiment `{other}`; try one of {EXPERIMENTS:?}"),
    })
}

/// Runs one experiment by id under the base configuration `config`,
/// returning the rendered tables. When any run degraded a procedure, an
/// incident table is appended after the experiment's own tables.
///
/// The experiment's benchmark × scheme cells execute across `jobs` worker
/// threads (see the module docs for the plan → execute → replay engine);
/// `jobs = 1` runs every cell inline on the calling thread. The experiment
/// runs under an `experiment` span and every cell records its spans and
/// metrics into `obs` (see [`run_scheme_obs`]). Output — rendered tables,
/// collected incidents, and the metrics merged into `obs` — is
/// byte-identical for every `jobs` value.
///
/// # Errors
/// Returns the first [`RunError`] in matrix order — in
/// [`GuardMode::Strict`] that includes any procedure failing its post-pass
/// checks.
///
/// # Panics
/// Panics on an unknown experiment id.
pub fn run_experiment_jobs_config(
    id: &str,
    scale: Scale,
    filter: Option<&str>,
    config: &RunConfig,
    jobs: usize,
    obs: &Obs,
) -> Result<Vec<Table>, RunError> {
    let _span = obs.span("experiment").arg("id", id).arg("jobs", jobs as u64);
    let benches = select_benchmarks(scale, filter);

    // `tracecache` and `predict` drive their own executions without a
    // context; they run inline exactly once (trivially job-count
    // independent).
    if id == "tracecache" {
        return Ok(vec![tracecache(&benches)?]);
    }
    if id == "predict" {
        return Ok(vec![predict(&benches)?]);
    }

    // Pass 1 (plan): walk the driver with placeholder results to discover
    // the unique cells of its matrix, in matrix order.
    let mut plan_ctx = RunCtx {
        config: config.clone(),
        mode: CtxMode::Plan(Vec::new()),
        ..RunCtx::default()
    };
    build_tables(id, &benches, &mut plan_ctx)?;
    let CtxMode::Plan(planned) = plan_ctx.mode else { unreachable!("plan mode preserved") };

    // Pass 2 (execute): run every unique cell across the pool. Each cell
    // records into a private fork of `obs`, so workers never contend on or
    // interleave into the parent sink. The profile cache is shared across
    // workers: each benchmark trains once (per racing worker at worst) no
    // matter how many schemes fan out from it.
    let profiles = ProfileCache::default();
    let executed: Vec<(CellKey, ExecutedCell)> = pool::run_indexed(jobs, planned.len(), |i| {
        let cell = &planned[i];
        let bench = benches
            .iter()
            .find(|b| b.name == cell.bench)
            .expect("planned bench selected");
        let fork = obs.fork_sink();
        let result = profiles
            .fill(bench, cell.scheme, &cell.config)
            .and_then(|filled| run_scheme_obs(bench, cell.scheme, &filled, &fork));
        (cell_key(bench, cell.scheme, &cell.config), ExecutedCell { result, fork, absorbed: false })
    });

    // Pass 3 (replay): walk the driver again, answering each cell from the
    // executed results and absorbing each cell's sink on first use — the
    // absorb order is the matrix order, independent of the job count.
    let mut ctx = RunCtx {
        config: config.clone(),
        obs: obs.clone(),
        mode: CtxMode::Replay(executed.into_iter().collect()),
        ..RunCtx::default()
    };
    let mut tables = build_tables(id, &benches, &mut ctx)?;
    if !ctx.incidents.is_empty() {
        tables.push(incident_table(&ctx.incidents));
    }
    Ok(tables)
}

/// Table 1: benchmark statistics under basic-block scheduling.
pub fn table1(benches: &[Benchmark], ctx: &mut RunCtx) -> Result<Table, RunError> {
    let mut t = Table::new(
        "Table 1: benchmarks, data sets, statistics (basic-block scheduled; counts in millions)",
        &["benchmark", "size(instrs)", "branches(M)", "cycles(M)", "instrs(M)"],
    );
    for b in benches {
        let r = ctx.run(b, Scheme::BasicBlock)?;
        t.row(vec![
            b.name.to_string(),
            r.static_instrs.to_string(),
            millions(r.counts.branches),
            millions(r.cycles),
            millions(r.counts.instrs),
        ]);
    }
    Ok(t)
}

/// Figure 4: path-scheme cycle counts vs M4 with a perfect I-cache — the
/// paper's P4 column plus the extension schemes (k-iteration `Pk2`/`Pk3`,
/// interprocedural `Px4`).
pub fn fig4(benches: &[Benchmark], ctx: &mut RunCtx) -> Result<Table, RunError> {
    let mut t = Table::new(
        "Figure 4: cycle counts, path schemes normalized to M4, ideal I-cache",
        &["benchmark", "M4 cycles", "P4", "Pk2", "Pk3", "Px4", "P4/M4", "Pk2/M4", "Px4/M4"],
    );
    for b in benches {
        let m4 = ctx.run(b, Scheme::M4)?;
        let p4 = ctx.run(b, Scheme::P4)?;
        let pk2 = ctx.run(b, Scheme::PK2)?;
        let pk3 = ctx.run(b, Scheme::PK3)?;
        let px4 = ctx.run(b, Scheme::PX4)?;
        t.row(vec![
            b.name.to_string(),
            m4.cycles.to_string(),
            p4.cycles.to_string(),
            pk2.cycles.to_string(),
            pk3.cycles.to_string(),
            px4.cycles.to_string(),
            ratio(p4.cycles, m4.cycles),
            ratio(pk2.cycles, m4.cycles),
            ratio(px4.cycles, m4.cycles),
        ]);
    }
    Ok(t)
}

/// Figure 5: P4 and P4e vs M4 with the 32KB direct-mapped I-cache.
pub fn fig5(benches: &[Benchmark], ctx: &mut RunCtx) -> Result<Table, RunError> {
    let mut t = Table::new(
        "Figure 5: cycle counts with 32KB I-cache, normalized to M4",
        &["benchmark", "M4", "P4", "P4e", "Pk2", "Px4", "P4/M4", "P4e/M4", "Pk2/M4", "Px4/M4"],
    );
    for b in benches {
        if b.category == pps_suite::Category::Micro {
            // The paper omits micros here: "they are so small that they
            // always fit in the cache".
            continue;
        }
        let m4 = ctx.run(b, Scheme::M4)?;
        let p4 = ctx.run(b, Scheme::P4)?;
        let p4e = ctx.run(b, Scheme::P4E)?;
        let pk2 = ctx.run(b, Scheme::PK2)?;
        let px4 = ctx.run(b, Scheme::PX4)?;
        t.row(vec![
            b.name.to_string(),
            m4.cycles_icache.to_string(),
            p4.cycles_icache.to_string(),
            p4e.cycles_icache.to_string(),
            pk2.cycles_icache.to_string(),
            px4.cycles_icache.to_string(),
            ratio(p4.cycles_icache, m4.cycles_icache),
            ratio(p4e.cycles_icache, m4.cycles_icache),
            ratio(pk2.cycles_icache, m4.cycles_icache),
            ratio(px4.cycles_icache, m4.cycles_icache),
        ]);
    }
    Ok(t)
}

/// Figure 6: P4e vs M16 with the I-cache (paths with limited unrolling
/// against aggressive unrolling).
pub fn fig6(benches: &[Benchmark], ctx: &mut RunCtx) -> Result<Table, RunError> {
    let mut t = Table::new(
        "Figure 6: cycle counts with 32KB I-cache, normalized to M4",
        &["benchmark", "M4", "M16", "P4e", "Pk2", "Px4", "M16/M4", "P4e/M4", "Pk2/M4", "Px4/M4"],
    );
    for b in benches {
        if b.category == pps_suite::Category::Micro {
            continue;
        }
        let m4 = ctx.run(b, Scheme::M4)?;
        let m16 = ctx.run(b, Scheme::M16)?;
        let p4e = ctx.run(b, Scheme::P4E)?;
        let pk2 = ctx.run(b, Scheme::PK2)?;
        let px4 = ctx.run(b, Scheme::PX4)?;
        t.row(vec![
            b.name.to_string(),
            m4.cycles_icache.to_string(),
            m16.cycles_icache.to_string(),
            p4e.cycles_icache.to_string(),
            pk2.cycles_icache.to_string(),
            px4.cycles_icache.to_string(),
            ratio(m16.cycles_icache, m4.cycles_icache),
            ratio(p4e.cycles_icache, m4.cycles_icache),
            ratio(pk2.cycles_icache, m4.cycles_icache),
            ratio(px4.cycles_icache, m4.cycles_icache),
        ]);
    }
    Ok(t)
}

/// Figure 7: average basic blocks executed per dynamic superblock (and the
/// average superblock size), for M4, M16, P4e, P4 — in the paper's
/// left-to-right bar order.
pub fn fig7(benches: &[Benchmark], ctx: &mut RunCtx) -> Result<Table, RunError> {
    let mut t = Table::new(
        "Figure 7: avg blocks executed per dynamic superblock / avg superblock size",
        &[
            "benchmark",
            "M4 avg", "M4 size",
            "M16 avg", "M16 size",
            "P4e avg", "P4e size",
            "P4 avg", "P4 size",
            "Pk2 avg", "Pk2 size",
            "Px4 avg", "Px4 size",
        ],
    );
    for b in benches {
        let mut cells = vec![b.name.to_string()];
        for scheme in
            [Scheme::M4, Scheme::M16, Scheme::P4E, Scheme::P4, Scheme::PK2, Scheme::PX4]
        {
            let r = ctx.run(b, scheme)?;
            cells.push(format!("{:.2}", r.sb_stats.avg_blocks_executed()));
            cells.push(format!("{:.2}", r.sb_stats.avg_size()));
        }
        t.row(cells);
    }
    Ok(t)
}

/// In-text miss-rate study (the paper quotes gcc and go).
pub fn missrates(benches: &[Benchmark], ctx: &mut RunCtx) -> Result<Table, RunError> {
    let mut t = Table::new(
        "I-cache miss rates per scheme (32KB direct-mapped, 32B lines)",
        &["benchmark", "M4", "M16", "P4", "P4e", "static M4", "static P4"],
    );
    for b in benches {
        if b.category == pps_suite::Category::Micro {
            continue;
        }
        let m4 = ctx.run(b, Scheme::M4)?;
        let m16 = ctx.run(b, Scheme::M16)?;
        let p4 = ctx.run(b, Scheme::P4)?;
        let p4e = ctx.run(b, Scheme::P4E)?;
        t.row(vec![
            b.name.to_string(),
            percent(m4.miss_rate),
            percent(m16.miss_rate),
            percent(p4.miss_rate),
            percent(p4e.miss_rate),
            m4.static_instrs.to_string(),
            p4.static_instrs.to_string(),
        ]);
    }
    Ok(t)
}

/// Weight-inverted copy of a path profile: every maximal window's count
/// becomes `max + 1 - count`, so the hot set becomes the cold set with the
/// same shape (the serve load generator's drift phase uses the same
/// construction to trip the continuous-PGO loop).
fn invert_path(path: &pps_profile::PathProfile) -> pps_profile::PathProfile {
    use pps_ir::ProcId;
    let per_proc: Vec<Vec<(Vec<_>, u64)>> = (0..path.num_procs())
        .map(|pi| {
            let windows = path.iter_maximal_windows(ProcId::new(pi as u32));
            let max = windows.iter().map(|(_, c)| *c).max().unwrap_or(0);
            windows.into_iter().map(|(w, c)| (w, max + 1 - c)).collect()
        })
        .collect();
    pps_profile::PathProfile::from_windows(path.depth(), per_proc)
}

/// Train/test divergence sweep: how each path-consuming scheme degrades
/// when its training profile diverges from the test workload. Three
/// regimes per scheme: `true` (the paper's methodology — train on the
/// training input), `inverted` (adversarial: the path profile's hot set
/// becomes its cold set), and `mixed` (phase-changing workload: true and
/// inverted mass merged, as a run whose behavior flips halfway through
/// would train). The edge profile stays true throughout, isolating the
/// path-profile contribution; ratios above 1.000 measure how much each
/// scheme trusts its path profile.
pub fn diverge(benches: &[Benchmark], ctx: &mut RunCtx) -> Result<Table, RunError> {
    use pps_profile::merge_paths;
    let mut t = Table::new(
        "Divergence sweep: cycles under true / inverted / phase-mixed path profiles \
         (ideal I-cache)",
        &["benchmark", "scheme", "true", "inverted", "mixed", "inv/true", "mix/true"],
    );
    for b in benches {
        for scheme in [Scheme::P4, Scheme::PK2, Scheme::PK3] {
            let truth = ctx.run(b, scheme)?;
            // The adversarial pairs derive from the same training run the
            // true regime used (the shared profile cache makes this one
            // training run per scheme kind, deterministic across plan /
            // execute / replay walks).
            let filled = ctx.profiles.fill(b, scheme, &ctx.config)?;
            let pair = filled.preloaded.clone().expect("fill preloads a pair");
            let inverted = invert_path(&pair.1);
            let mixed = merge_paths(&pair.1, &inverted).expect("same program, same depth");
            let inv_cfg = RunConfig {
                preloaded: Some(std::sync::Arc::new((pair.0.clone(), inverted))),
                ..ctx.config.clone()
            };
            let mix_cfg = RunConfig {
                preloaded: Some(std::sync::Arc::new((pair.0.clone(), mixed))),
                ..ctx.config.clone()
            };
            let inv = ctx.run_with(b, scheme, &inv_cfg)?;
            let mix = ctx.run_with(b, scheme, &mix_cfg)?;
            t.row(vec![
                b.name.to_string(),
                scheme.name(),
                truth.cycles.to_string(),
                inv.cycles.to_string(),
                mix.cycles.to_string(),
                ratio(inv.cycles, truth.cycles),
                ratio(mix.cycles, truth.cycles),
            ]);
        }
    }
    Ok(t)
}

/// Ablations: realistic latencies (paper: the path benefit grows), and the
/// compactor features (renaming, speculation) turned off.
pub fn ablate(benches: &[Benchmark], ctx: &mut RunCtx) -> Result<Vec<Table>, RunError> {
    let mut tables = Vec::new();

    // Realistic latencies.
    let mut t = Table::new(
        "Ablation: realistic latencies (load 3, mul 3, div 8) — P4/M4, ideal I-cache",
        &["benchmark", "unit P4/M4", "realistic P4/M4"],
    );
    for b in benches {
        let unit = ctx.config.clone();
        let real = RunConfig { machine: MachineConfig::realistic(), ..ctx.config.clone() };
        let m4u = ctx.run_with(b, Scheme::M4, &unit)?;
        let p4u = ctx.run_with(b, Scheme::P4, &unit)?;
        let m4r = ctx.run_with(b, Scheme::M4, &real)?;
        let p4r = ctx.run_with(b, Scheme::P4, &real)?;
        t.row(vec![
            b.name.to_string(),
            ratio(p4u.cycles, m4u.cycles),
            ratio(p4r.cycles, m4r.cycles),
        ]);
    }
    tables.push(t);

    // Compactor features off (P4 formation held fixed).
    let mut t = Table::new(
        "Ablation: compactor features (P4 cycles normalized to full compactor)",
        &["benchmark", "full", "no renaming", "no speculation"],
    );
    for b in benches {
        let full = ctx.run(b, Scheme::P4)?;
        let mut norename = ctx.config.clone();
        norename.compact.renaming = false;
        norename.compact.move_renaming = false;
        let nr = ctx.run_with(b, Scheme::P4, &norename)?;
        let mut nospec = ctx.config.clone();
        nospec.compact.speculate_loads = false;
        let ns = ctx.run_with(b, Scheme::P4, &nospec)?;
        t.row(vec![
            b.name.to_string(),
            "1.000".to_string(),
            ratio(nr.cycles, full.cycles),
            ratio(ns.cycles, full.cycles),
        ]);
    }
    tables.push(t);

    // Upward trace growth (paper footnote 2 predicts no noticeable
    // change).
    let mut t = Table::new(
        "Ablation: upward path-trace growth (footnote 2) — P4 cycles, ideal I-cache",
        &["benchmark", "downward only", "with upward", "ratio"],
    );
    for b in benches {
        let down = ctx.run(b, Scheme::P4)?;
        let mut up_cfg = ctx.config.clone();
        up_cfg.form.upward_growth = true;
        let up = ctx.run_with(b, Scheme::P4, &up_cfg)?;
        t.row(vec![
            b.name.to_string(),
            down.cycles.to_string(),
            up.cycles.to_string(),
            ratio(up.cycles, down.cycles),
        ]);
    }
    tables.push(t);

    // Enlargement-threshold sweep (path completion threshold).
    let mut t = Table::new(
        "Ablation: P4 completion-frequency threshold sweep (cycles, ideal I-cache)",
        &["benchmark", "thr 0.5", "thr 0.8", "thr 0.95"],
    );
    for b in benches {
        let mut cells = vec![b.name.to_string()];
        for thr in [0.5, 0.8, 0.95] {
            let mut cfg = ctx.config.clone();
            cfg.form.completion_threshold = thr;
            let r = ctx.run_with(b, Scheme::P4, &cfg)?;
            cells.push(r.cycles.to_string());
        }
        t.row(cells);
    }
    tables.push(t);
    Ok(tables)
}

/// §6 extension: hardware trace-cache effectiveness over the block streams
/// of the original and software-formed programs. Measures whether software
/// superblock formation helps a Rotenberg-style trace cache.
pub fn tracecache(benches: &[Benchmark]) -> Result<Table, RunError> {
    use pps_core::{form_program, FormConfig};
    use pps_ir::interp::ExecConfig;
    use pps_ir::trace::TeeSink;
    use pps_ir::Exec;
    use pps_profile::{EdgeProfiler, PathProfiler};
    use pps_sim::{TraceCacheConfig, TraceCacheSim};

    let mut t = Table::new(
        "Extension (paper §6): 64-entry trace cache over the dynamic block stream",
        &["benchmark", "BB hit%", "M4 hit%", "P4 hit%", "BB cover%", "P4 cover%"],
    );
    for b in benches {
        let mut cells = vec![b.name.to_string()];
        let mut hits = Vec::new();
        let mut covers = Vec::new();
        for scheme in [Scheme::BasicBlock, Scheme::M4, Scheme::P4] {
            let mut program = b.program.clone();
            let mut tee = TeeSink::new(
                EdgeProfiler::new(&program),
                PathProfiler::new(&program, 15),
            );
            Exec::new(&program, ExecConfig::default())
                .run_traced(&b.train_args, &mut tee)
                .map_err(|error| RunError::Exec {
                    bench: b.name.to_string(),
                    stage: "train run",
                    error,
                })?;
            form_program(
                &mut program,
                &tee.a.finish(),
                Some(&tee.b.finish()),
                scheme,
                &FormConfig::default(),
            )
            .map_err(|error| RunError::Pipeline { bench: b.name.to_string(), error })?;
            let mut sim = TraceCacheSim::new(&program, TraceCacheConfig::default());
            Exec::new(&program, ExecConfig::default())
                .run_traced(&b.test_args, &mut sim)
                .map_err(|error| RunError::Exec {
                    bench: b.name.to_string(),
                    stage: "test run",
                    error,
                })?;
            let stats = sim.finish();
            hits.push(stats.hit_rate());
            covers.push(stats.instr_coverage());
        }
        for h in &hits {
            cells.push(percent(*h));
        }
        cells.push(percent(covers[0]));
        cells.push(percent(covers[2]));
        t.row(cells);
    }
    Ok(t)
}

/// Companion-work extension: static branch prediction accuracy, edge
/// majority vs path-context (Young & Smith, ASPLOS 1994 — the paper's
/// reference [20] and the origin of the `corr` microbenchmark). Trained on
/// the training input, evaluated on the testing input.
pub fn predict(benches: &[Benchmark]) -> Result<Table, RunError> {
    use pps_ir::interp::ExecConfig;
    use pps_ir::trace::TeeSink;
    use pps_ir::Exec;
    use pps_profile::predict::{evaluate, EdgePredictor, PathPredictor};
    use pps_profile::{EdgeProfiler, PathProfiler};

    let exec_err = |bench: &str, stage: &'static str| {
        let bench = bench.to_string();
        move |error| RunError::Exec { bench, stage, error }
    };
    let mut t = Table::new(
        "Extension (ref [20]): static branch misprediction, edge majority vs path context",
        &["benchmark", "edge miss%", "path miss%", "branches(M)"],
    );
    for b in benches {
        let program = &b.program;
        let mut tee = TeeSink::new(EdgeProfiler::new(program), PathProfiler::new(program, 15));
        Exec::new(program, ExecConfig::default())
            .run_traced(&b.train_args, &mut tee)
            .map_err(exec_err(b.name, "train run"))?;
        let edge = tee.a.finish();
        let path = tee.b.finish();

        let ep = EdgePredictor::from_profile(program, &edge);
        let e = evaluate(program, &ep, 8, &b.test_args).map_err(exec_err(b.name, "edge eval"))?;
        let pp = PathPredictor::new(program, &path, 8);
        let p = evaluate(program, &pp, 8, &b.test_args).map_err(exec_err(b.name, "path eval"))?;
        t.row(vec![
            b.name.to_string(),
            percent(e.miss_rate()),
            percent(p.miss_rate()),
            millions(e.branches),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict() -> RunConfig {
        let mut config = RunConfig::paper();
        config.guard.mode = GuardMode::Strict;
        config
    }

    #[test]
    fn experiment_ids_all_run_on_one_benchmark() {
        for id in EXPERIMENTS {
            // `ablate` is heavy; use the smallest scale and one benchmark.
            let tables =
                run_experiment_jobs_config(id, Scale::quick(), Some("wc"), &strict(), 1, &Obs::noop())
                    .unwrap();
            assert!(!tables.is_empty(), "{id}");
            for t in &tables {
                let rendered = t.render();
                assert!(rendered.contains("=="), "{id} renders");
            }
        }
    }

    #[test]
    fn table1_covers_all_benchmarks() {
        let benches = select_benchmarks(Scale::quick(), None);
        assert_eq!(benches.len(), 14);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let _ = run_experiment_jobs_config("nope", Scale::quick(), None, &RunConfig::paper(), 1, &Obs::noop());
    }

    #[test]
    fn plan_pass_discovers_cells_without_executing() {
        let benches = select_benchmarks(Scale::quick(), Some("wc"));
        let mut ctx = RunCtx {
            config: RunConfig::paper(),
            mode: CtxMode::Plan(Vec::new()),
            ..RunCtx::default()
        };
        build_tables("fig4", &benches, &mut ctx).unwrap();
        let CtxMode::Plan(cells) = &ctx.mode else { panic!("mode changed") };
        // fig4 runs M4, P4, Pk2, Pk3 and Px4 per benchmark.
        assert_eq!(cells.len(), 5);
        assert!(cells.iter().all(|c| c.bench == "wc"));
        assert!(ctx.incidents.is_empty());
    }

    #[test]
    fn repeated_cells_plan_once() {
        // `ablate` asks for (wc, P4, paper-config) from several of its
        // tables; planning must dedupe it while keeping variants distinct.
        let benches = select_benchmarks(Scale::quick(), Some("wc"));
        let mut ctx = RunCtx {
            config: RunConfig::paper(),
            mode: CtxMode::Plan(Vec::new()),
            ..RunCtx::default()
        };
        build_tables("ablate", &benches, &mut ctx).unwrap();
        let CtxMode::Plan(cells) = &ctx.mode else { panic!("mode changed") };
        let p4_paper = cells
            .iter()
            .filter(|c| cell_matches(c, &cell_key(&benches[0], Scheme::P4, &RunConfig::paper())))
            .count();
        assert_eq!(p4_paper, 1, "repeated paper-config P4 cell planned once");
        assert!(cells.len() > 4, "config variants stay distinct cells");
    }

    #[test]
    fn jobs_engine_matches_itself_across_job_counts() {
        let render = |jobs: usize| {
            let tables =
                run_experiment_jobs_config("fig4", Scale::quick(), Some("wc"), &RunConfig::paper(), jobs, &Obs::noop())
                    .unwrap();
            tables.iter().map(Table::render).collect::<Vec<_>>().join("\n")
        };
        let serial = render(1);
        let parallel = render(4);
        assert_eq!(serial, parallel);
        assert!(serial.contains("wc"));
    }
}
