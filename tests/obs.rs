//! Integration tests of the observability layer over the real pipeline:
//! the no-op sink records nothing, and a recorded `run_scheme` produces a
//! parseable Chrome trace and a metrics document with the expected series.

use pps_core::{
    guarded_form_and_compact_with, FormConfig, GuardConfig, GuardMode, Scheme,
};
use pps_compact::CompactConfig;
use pps_harness::experiments::run_experiment_jobs_config;
use pps_harness::{run_scheme_obs, RunConfig, RunCtx};
use pps_ir::fault::FaultInjector;
use pps_ir::interp::{ExecConfig, Interp};
use pps_ir::trace::TeeSink;
use pps_obs::{json, Level, Obs, ObsConfig};
use pps_profile::{EdgeProfiler, PathProfiler};
use pps_suite::{benchmark_by_name, Scale};

#[test]
fn noop_sink_records_nothing_and_exports_nothing() {
    let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
    let obs = Obs::noop();
    let r = run_scheme_obs(&bench, Scheme::P4, &RunConfig::paper(), &obs).unwrap();
    assert!(r.cycles > 0, "the run itself is unaffected");
    assert!(!obs.is_recording());
    assert_eq!(obs.event_count(), 0);
    assert_eq!(obs.counter_total("sim.cycles"), 0);
    assert!(obs.export_trace_json().is_none());
    assert!(obs.export_metrics_json().is_none());
}

#[test]
fn recorded_run_scheme_produces_parseable_trace_and_metrics() {
    let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
    let obs = Obs::recording(ObsConfig { level: Level::Off, trace: true, metrics: true });
    let root = obs.span("pps-harness");
    let r = run_scheme_obs(&bench, Scheme::P4, &RunConfig::paper(), &obs).unwrap();
    drop(root);
    assert!(r.guard.clean(), "clean run expected: {:?}", r.guard);

    // --- Trace: valid Chrome trace-event JSON with the pipeline's spans.
    let trace = obs.export_trace_json().expect("tracing enabled");
    let doc = json::parse(&trace).expect("trace parses");
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
    }
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    for expected in [
        "pps-harness", "run-scheme", "profile", "schedule-proc", "form", "select", "tail_dup",
        "fixup", "compact", "guard-verify", "layout", "simulate",
    ] {
        assert!(span_names.contains(&expected), "missing span `{expected}` in {span_names:?}");
    }
    // Decision events from formation and the compactor rode along.
    let decisions: Vec<&str> = events
        .iter()
        .filter(|e| e.get("cat").and_then(|v| v.as_str()) == Some("decision"))
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(decisions.contains(&"form.trace_selected"), "{decisions:?}");
    assert!(decisions.contains(&"compact.schedule"), "{decisions:?}");

    // Nesting is by time interval: every `profile` span must lie inside
    // some `run-scheme` span on the same tid.
    let interval = |e: &json::Json| {
        let ts = e.get("ts").and_then(|v| v.as_num()).unwrap();
        let dur = e.get("dur").and_then(|v| v.as_num()).unwrap_or(0.0);
        let tid = e.get("tid").and_then(|v| v.as_num()).unwrap();
        (ts, ts + dur, tid)
    };
    let spans_named = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("X")
                    && e.get("name").and_then(|v| v.as_str()) == Some(name)
            })
            .map(interval)
            .collect::<Vec<_>>()
    };
    let runs = spans_named("run-scheme");
    for (s, e, tid) in spans_named("profile") {
        assert!(
            runs.iter().any(|&(rs, re, rtid)| rtid == tid && rs <= s && e <= re),
            "profile span [{s}, {e}] not nested in any run-scheme span {runs:?}"
        );
    }

    // --- Metrics: stable schema with the expected series.
    let metrics = obs.export_metrics_json().expect("metrics enabled");
    let doc = json::parse(&metrics).expect("metrics parse");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("pps-metrics"));
    assert_eq!(doc.get("version").and_then(|v| v.as_num()), Some(1.0));
    let counters = doc.get("counters").and_then(|v| v.as_arr()).expect("counters array");
    let counter_names: Vec<&str> = counters
        .iter()
        .filter_map(|c| c.get("name").and_then(|v| v.as_str()))
        .collect();
    for expected in [
        "form.superblocks", "form.traces_selected", "profile.edge.dyn_edges",
        "profile.path.distinct_paths", "compact.superblocks", "sim.cycles",
        "sim.icache.accesses",
    ] {
        assert!(counter_names.contains(&expected), "missing counter `{expected}`");
    }
    let histograms = doc.get("histograms").and_then(|v| v.as_arr()).expect("histograms array");
    assert!(
        histograms
            .iter()
            .any(|h| h.get("name").and_then(|v| v.as_str()) == Some("compact.slot_occupancy")),
        "missing compact.slot_occupancy histogram"
    );
    // Counter values line up with the run's own numbers.
    assert_eq!(obs.counter_total("form.superblocks"), r.form_stats.superblocks);
    assert!(obs.counter_total("sim.cycles") >= r.cycles, "layout + test runs both recorded");
}

#[test]
fn trace_disabled_still_collects_metrics() {
    let bench = benchmark_by_name("alt", Scale::quick()).unwrap();
    let obs = Obs::recording(ObsConfig { level: Level::Off, trace: false, metrics: true });
    run_scheme_obs(&bench, Scheme::M4, &RunConfig::paper(), &obs).unwrap();
    assert_eq!(obs.event_count(), 0, "no trace events buffered");
    assert!(obs.export_trace_json().is_none());
    assert!(obs.counter_total("sim.cycles") > 0);
}

#[test]
fn injected_fault_surfaces_as_incident_metric_and_event() {
    let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
    let mut program = bench.program.clone();
    let mut tee = TeeSink::new(EdgeProfiler::new(&program), PathProfiler::new(&program, 15));
    Interp::new(&program, ExecConfig::default())
        .run_traced(&bench.train_args, &mut tee)
        .unwrap();
    let (edge, path) = (tee.a.finish(), tee.b.finish());

    let obs = Obs::recording(ObsConfig { level: Level::Off, trace: true, metrics: true });
    let guard = GuardConfig {
        mode: GuardMode::Degrade,
        oracle_inputs: vec![bench.train_args.clone()],
        ..GuardConfig::default()
    };
    let inputs = vec![bench.train_args.clone()];
    let mut injector = FaultInjector::new(0xFA11);
    let mut injected = 0usize;
    let result = guarded_form_and_compact_with(
        &mut program,
        &edge,
        Some(&path),
        Scheme::P4,
        &FormConfig::default(),
        &CompactConfig::default(),
        &guard,
        None,
        &obs,
        Some(&mut |prog, pid| {
            if injector.inject_effective(prog, pid, &inputs, 500_000, 32).is_some() {
                injected += 1;
            }
        }),
    )
    .unwrap();
    assert!(injected > 0, "injector found no effective fault");
    assert_eq!(result.report.incidents.len(), injected);

    // Satellite 2: every incident lands in the metrics registry and as an
    // instant trace event.
    assert_eq!(obs.counter_total("guard.incidents"), injected as u64);
    assert_eq!(obs.counter_total("guard.degraded_procs"), injected as u64);
    let trace = obs.export_trace_json().unwrap();
    let doc = json::parse(&trace).unwrap();
    let incident_events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .filter(|e| {
            e.get("cat").and_then(|v| v.as_str()) == Some("guard")
                && e.get("name").and_then(|v| v.as_str()) == Some("incident")
        })
        .count();
    assert_eq!(incident_events, injected);
}

/// Spans named `name` in `obs`'s trace whose `key` argument is `value`.
fn spans_with_arg(obs: &Obs, name: &str, key: &str, value: &json::Json) -> usize {
    let doc = json::parse(&obs.export_trace_json().expect("tracing enabled")).unwrap();
    doc.get("traceEvents")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("X")
                && e.get("name").and_then(|v| v.as_str()) == Some(name)
                && e.get("args").and_then(|a| a.get(key)) == Some(value)
        })
        .count()
}

#[test]
fn a_cell_runs_the_transformed_program_once_per_input() {
    let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
    let recording = || Obs::recording(ObsConfig { level: Level::Off, trace: true, metrics: true });
    let layout_stage = json::Json::Str("layout".to_string());

    // Clean: the layout is built from the guard's own oracle pass over
    // the training input, so the only simulated run is the measured one.
    let obs = recording();
    let clean = run_scheme_obs(&bench, Scheme::P4, &RunConfig::paper(), &obs).unwrap();
    assert!(clean.guard.clean(), "{:?}", clean.guard);
    assert_eq!(spans_with_arg(&obs, "simulate", "icache", &json::Json::Bool(true)), 1);
    assert_eq!(spans_with_arg(&obs, "simulate", "icache", &json::Json::Bool(false)), 0);
    assert_eq!(spans_with_arg(&obs, "profile", "stage", &layout_stage), 0);

    // An oracle on the test input profiles the wrong run, so the cell
    // makes its own profiling run of the training input, and measures
    // exactly the same.
    assert_ne!(bench.test_args, bench.train_args);
    let mut config = RunConfig::paper();
    config.guard.oracle_inputs = vec![bench.test_args.clone()];
    let obs = recording();
    let fallback = run_scheme_obs(&bench, Scheme::P4, &config, &obs).unwrap();
    assert!(fallback.guard.clean(), "{:?}", fallback.guard);
    assert_eq!(spans_with_arg(&obs, "profile", "stage", &layout_stage), 1);
    assert_eq!(spans_with_arg(&obs, "simulate", "icache", &json::Json::Bool(false)), 0);
    assert_eq!(fallback.cycles, clean.cycles);
    assert_eq!(fallback.cycles_icache, clean.cycles_icache);
}

#[test]
fn a_scheme_that_reads_no_profile_records_none() {
    let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
    let obs = Obs::recording(ObsConfig { level: Level::Off, trace: true, metrics: true });
    run_scheme_obs(&bench, Scheme::BasicBlock, &RunConfig::paper(), &obs).unwrap();
    let doc = json::parse(&obs.export_trace_json().unwrap()).unwrap();
    let spans: Vec<&str> = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(spans.contains(&"run-scheme") && spans.contains(&"simulate"), "{spans:?}");
    assert!(!spans.contains(&"profile"), "{spans:?}");
    let metrics = obs.metrics_snapshot().unwrap().to_json();
    assert!(metrics.contains("\"form.superblocks\""), "{metrics}");
    assert!(!metrics.contains("\"profile."), "{metrics}");
}

#[test]
fn a_fig4_sweep_trains_once_per_profile_kind() {
    let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
    let recording = || Obs::recording(ObsConfig { level: Level::Off, trace: true, metrics: true });
    let train = json::Json::Str("train".to_string());
    let bench_arg = json::Json::Str("wc".to_string());
    let check = |obs: &Obs, how: &str| {
        // The standard pair (M4, P4, Px4), k = 2 and k = 3.
        assert_eq!(spans_with_arg(obs, "profile", "stage", &train), 3, "{how}");
        assert_eq!(spans_with_arg(obs, "profile", "k", &json::Json::Num(2.0)), 1, "{how}");
        assert_eq!(spans_with_arg(obs, "profile", "k", &json::Json::Num(3.0)), 1, "{how}");
        // One shared baseline for the benchmark.
        assert_eq!(spans_with_arg(obs, "oracle-baseline", "bench", &bench_arg), 1, "{how}");
    };

    // Cell by cell through one sweep context, as `--jobs 1` runs them.
    let obs = recording();
    let mut ctx = RunCtx::paper(GuardMode::Strict);
    ctx.obs = obs.clone();
    for scheme in [Scheme::M4, Scheme::P4, Scheme::PK2, Scheme::PK3, Scheme::PX4] {
        ctx.run(&bench, scheme).unwrap();
    }
    check(&obs, "RunCtx::run");

    // The parallel engine records the same spans in the cells' forks,
    // and spans leave the metrics alone.
    let mut metrics = Vec::new();
    for jobs in [1, 2] {
        let obs = recording();
        run_experiment_jobs_config("fig4", Scale::quick(), Some("wc"), &RunConfig::paper(), jobs, &obs)
            .unwrap();
        check(&obs, &format!("--jobs {jobs}"));
        metrics.push(obs.export_metrics_json().unwrap());
    }
    assert_eq!(metrics[0], metrics[1]);
}
