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
//! To regenerate after an *intentional* output change:
//! `BLESS=1 cargo test --test golden_tables`.

use pps::core::GuardMode;
use pps::harness::experiments::run_experiment_jobs_config;
use pps::harness::report::Table;
use pps::harness::RunConfig;
use pps::ir::{with_engine, Engine};
use pps::obs::Obs;
use pps::suite::Scale;
use std::path::Path;

const SCALE: Scale = Scale(1);

fn render_experiment(id: &str) -> String {
    let mut config = RunConfig::paper();
    config.guard.mode = GuardMode::Strict;
    // One job runs every cell inline on this thread, so a `with_engine`
    // scope around this call reaches every execution.
    let tables: Vec<Table> = run_experiment_jobs_config(id, SCALE, None, &config, 1, &Obs::noop())
        .expect("experiment runs clean");
    let mut out = String::new();
    for t in &tables {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

fn check_golden(id: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}_scale1.txt"));
    let got = render_experiment(id);

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
    let reference = with_engine(Engine::Reference, || render_experiment(id));
    assert_eq!(
        reference, want,
        "{id}: reference engine disagrees with the golden table"
    );
}

#[test]
fn table1_output_is_byte_stable() {
    check_golden("table1");
}

#[test]
fn fig4_output_is_byte_stable() {
    check_golden("fig4");
}

#[test]
fn fig5_output_is_byte_stable() {
    check_golden("fig5");
}
