//! Determinism of the parallel experiment engine: for any `--jobs` value,
//! the rendered tables, merged metrics, and fault-incident routing must be
//! byte-identical to a serial run.

use pps_core::GuardMode;
use pps_harness::{run_experiment_jobs_config, RunConfig};
use pps_obs::{Level, Obs, ObsConfig};
use pps_suite::Scale;

fn obs_metrics_only() -> Obs {
    Obs::recording(ObsConfig { level: Level::Off, trace: false, metrics: true })
}

/// Full experiment report (all tables rendered + the merged metrics JSON)
/// for one experiment at the given job count.
fn report(id: &str, jobs: usize, config: &RunConfig) -> (String, String) {
    let obs = obs_metrics_only();
    let tables = run_experiment_jobs_config(
        id,
        Scale::quick(),
        Some("wc"),
        config,
        jobs,
        &obs,
    )
    .unwrap();
    let rendered = tables
        .iter()
        .map(|t| t.render())
        .collect::<Vec<_>>()
        .join("\n");
    (rendered, obs.export_metrics_json().unwrap())
}

#[test]
fn tables_and_metrics_identical_at_any_job_count() {
    for id in ["table1", "fig4", "fig7"] {
        let config = RunConfig::paper();
        let (t1, m1) = report(id, 1, &config);
        let (t8, m8) = report(id, 8, &config);
        assert_eq!(t1, t8, "{id}: tables differ between --jobs 1 and --jobs 8");
        assert_eq!(m1, m8, "{id}: merged metrics differ between --jobs 1 and --jobs 8");
        assert!(!m1.is_empty());
    }
}

#[test]
fn ablation_variants_stay_deterministic_in_parallel() {
    // `ablate` mixes repeated cells and config variants — the hardest case
    // for cell keying.
    let config = RunConfig::paper();
    let (t1, m1) = report("ablate", 1, &config);
    let (t6, m6) = report("ablate", 6, &config);
    assert_eq!(t1, t6);
    assert_eq!(m1, m6);
}

#[test]
fn fault_injected_runs_route_same_incidents_at_any_job_count() {
    let mut config = RunConfig::paper();
    config.guard.mode = GuardMode::Degrade;
    config.fault_seed = Some(0xfeed_beef);
    let run = |jobs: usize| {
        let tables = run_experiment_jobs_config(
            "fig4",
            Scale::quick(),
            Some("wc"),
            &config,
            jobs,
            &Obs::noop(),
        )
        .unwrap();
        tables
            .iter()
            .map(|t| t.render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = run(1);
    let parallel = run(8);
    // Injected faults must degrade at least one procedure, and the
    // incident table (appended when incidents exist) must match exactly —
    // same procedures, same passes, same fallback decisions.
    assert!(
        serial.contains("incident") || serial.contains("Incident"),
        "fault seed produced no incidents:\n{serial}"
    );
    assert_eq!(serial, parallel, "incident routing depends on job count");
}

#[test]
fn engine_handles_ctx_free_experiments() {
    // tracecache/predict run without a RunCtx; the engine must pass them
    // through unchanged at any job count.
    for id in ["tracecache", "predict"] {
        let run = |jobs: usize| {
            run_experiment_jobs_config(id, Scale::quick(), Some("wc"), &RunConfig::paper(), jobs, &Obs::noop())
                .unwrap()
                .iter()
                .map(|t| t.render())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(run(1), run(4), "{id}");
    }
}
