//! Golden-table regression lockdown (ISSUE: flat pre-decoded interpreter).
//!
//! The committed snapshots under `tests/golden/` pin the harness's
//! Table 1, Figure 4 and Figure 5 output at small scale **byte-for-byte**.
//! Figure 5 is the one that exercises code layout: its cycle counts
//! include the I-cache penalties of the Pettis–Hansen placement. Every
//! downstream equality check — the parallel experiment engine, the serve
//! loadgen byte-verification, the PGO hot-swap verifier — assumes the
//! pipeline is deterministic; this test catches any refactor (engine
//! swaps, counter reorganizations, layout changes) that silently perturbs
//! the numbers or even the formatting.
//!
//! The tables must also be identical under the reference engine: the
//! golden files double as a cross-engine end-to-end check.
//!
//! The Table 1 and Figure 4 runs also record metrics, and
//! `tests/golden/layout_stage_scale1.txt` pins the `stage=layout`
//! simulator counters of every cell they run: the cycles and Figure 7
//! traversal statistics of the transformed program on the training input,
//! from which the code layout is built. Those counters appear in no table,
//! so this is what holds the layout weights fixed.
//!
//! To regenerate after an *intentional* output change:
//! `BLESS=1 cargo test --test golden_tables`.

use pps::core::GuardMode;
use pps::harness::experiments::run_experiment_jobs_config;
use pps::harness::report::Table;
use pps::harness::RunConfig;
use pps::ir::{with_engine, Engine};
use pps::obs::{Level, Obs, ObsConfig};
use pps::suite::Scale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const SCALE: Scale = Scale(1);

/// The counters the layout-stage golden pins, in file column order.
const LAYOUT_COUNTERS: [&str; 4] =
    ["sim.cycles", "sim.sb.traversals", "sim.sb.blocks_executed", "sim.sb.size_blocks"];

/// Serializes read-modify-write blessing of the shared layout-stage file.
static LAYOUT_BLESS: Mutex<()> = Mutex::new(());

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Renders experiment `id`'s tables; with `obs` recording, its metrics
/// land there too.
fn render_experiment(id: &str, obs: &Obs) -> String {
    let mut config = RunConfig::paper();
    config.guard.mode = GuardMode::Strict;
    // One job runs every cell inline on this thread, so a `with_engine`
    // scope around this call reaches every execution.
    let tables: Vec<Table> = run_experiment_jobs_config(id, SCALE, None, &config, 1, obs)
        .expect("experiment runs clean");
    let mut out = String::new();
    for t in &tables {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// `[id]` followed by one line per (bench, scheme) cell: its
/// `stage=layout` counters in [`LAYOUT_COUNTERS`] order.
fn layout_stage_section(id: &str, obs: &Obs) -> String {
    let registry = obs.metrics_snapshot().expect("metrics recorded");
    let mut cells: BTreeMap<(String, String), [u64; 4]> = BTreeMap::new();
    for (key, value) in registry.counters() {
        let Some(column) = LAYOUT_COUNTERS.iter().position(|&n| n == key.name) else { continue };
        let label = |k: &str| key.labels.iter().find(|(lk, _)| lk == k).map(|(_, v)| v.clone());
        if label("stage").as_deref() != Some("layout") {
            continue;
        }
        let cell = (label("bench").expect("bench label"), label("scheme").expect("scheme label"));
        cells.entry(cell).or_default()[column] += value;
    }
    assert!(!cells.is_empty(), "{id}: no stage=layout counters recorded");
    let mut out = format!("[{id}]\n");
    for ((bench, scheme), [cycles, traversals, executed, size]) in cells {
        out.push_str(&format!(
            "{bench} {scheme} cycles={cycles} traversals={traversals} \
             blocks_executed={executed} size_blocks={size}\n"
        ));
    }
    out
}

/// The sections of the layout-stage file, keyed by experiment id.
fn layout_stage_sections(text: &str) -> BTreeMap<String, String> {
    let mut sections = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in text.lines() {
        if let Some(id) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            sections.extend(current.take());
            current = Some((id.to_string(), String::new()));
        }
        if let Some((_, body)) = current.as_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    sections.extend(current);
    sections
}

fn check_layout_stage(id: &str, got: &str) {
    let path = golden_path("layout_stage_scale1.txt");
    if std::env::var_os("BLESS").is_some() {
        let _lock = LAYOUT_BLESS.lock().unwrap_or_else(|e| e.into_inner());
        let mut sections =
            layout_stage_sections(&std::fs::read_to_string(&path).unwrap_or_default());
        sections.insert(id.to_string(), got.to_string());
        // Fixed order, so blessing one experiment never reorders the file.
        let text: String = ["table1", "fig4"]
            .iter()
            .filter_map(|id| sections.get(*id).cloned())
            .collect();
        std::fs::write(&path, text).unwrap();
        eprintln!("blessed [{id}] in {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with BLESS=1 cargo test --test golden_tables",
            path.display()
        )
    });
    let want = layout_stage_sections(&text).remove(id).unwrap_or_default();
    assert_eq!(
        got,
        want,
        "{id}: stage=layout simulator counters changed vs {}; if intentional, re-bless",
        path.display()
    );
}

/// Checks experiment `id` against its golden table. With `layout_stage`
/// set, the same run records metrics and its `stage=layout` counters are
/// checked against `layout_stage_scale1.txt` as well.
fn check_golden(id: &str, layout_stage: bool) {
    let path = golden_path(&format!("{id}_scale1.txt"));
    let obs = if layout_stage {
        Obs::recording(ObsConfig { level: Level::Off, trace: false, metrics: true })
    } else {
        Obs::noop()
    };
    let got = render_experiment(id, &obs);
    if layout_stage {
        check_layout_stage(id, &layout_stage_section(id, &obs));
    }

    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with BLESS=1 cargo test --test golden_tables",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{id}: harness output changed byte-wise vs {}; if intentional, re-bless",
        path.display()
    );

    // Same bytes under the reference engine: the golden file pins the
    // cross-engine contract end-to-end, not just the fast engine's output.
    let reference = with_engine(Engine::Reference, || render_experiment(id, &Obs::noop()));
    assert_eq!(
        reference, want,
        "{id}: reference engine disagrees with the golden table"
    );
}

#[test]
fn table1_output_is_byte_stable() {
    check_golden("table1", true);
}

#[test]
fn fig4_output_is_byte_stable() {
    check_golden("fig4", true);
}

#[test]
fn fig5_output_is_byte_stable() {
    check_golden("fig5", false);
}
