//! Property tests for compaction: every schedule produced over random
//! programs (any scheme, any compactor configuration) must satisfy the
//! dependence, resource and ordering invariants checked by
//! `pps_compact::sched::check_schedule`, and the Figure 7 accounting must
//! be internally consistent with the cycle charges.

use pps::compact::{compact_program, singleton_partition, CompactConfig};
use pps::core::{form_program, FormConfig, Scheme};
use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::trace::TeeSink;
use pps::machine::MachineConfig;
use pps::profile::{EdgeProfiler, PathProfiler};
use pps::sim::simulate;
use pps::testgen::{gen_program, GenConfig};
use proptest::prelude::*;

// `compact_program` runs `check_schedule` on every superblock; these tests
// lean on that and assert the higher-level accounting.

fn form_and_check(seed: u64, scheme: Scheme, machine: MachineConfig) {
    let mut program = gen_program(seed, GenConfig::default());
    let mut tee = TeeSink::new(EdgeProfiler::new(&program), PathProfiler::new(&program, 15));
    Interp::new(&program, ExecConfig::default())
        .run_traced(&[], &mut tee)
        .unwrap();
    let formed = form_program(
        &mut program,
        &tee.a.finish(),
        Some(&tee.b.finish()),
        scheme,
        &FormConfig::default(),
    )
    .unwrap();
    let cc = CompactConfig { machine, ..Default::default() };
    let compacted = compact_program(&mut program, &formed.partition, &cc);

    // Schedule-level invariants beyond the checker: exits cost at least 1
    // cycle, completion costs the whole schedule, fetch counts are
    // monotone in exit position and bounded by the item count.
    for cp in &compacted.procs {
        for sb in &cp.superblocks {
            let s = &sb.schedule;
            let mut prev_exit: Option<u32> = None;
            for (pos, ec) in s.exit_cycles.iter().enumerate() {
                let Some(ec) = ec else { continue };
                assert!(*ec < s.n_cycles.max(1));
                if let Some(p) = prev_exit {
                    assert!(*ec > p, "exits in order");
                }
                prev_exit = Some(*ec);
                let fetch = s.fetch_counts[pos];
                assert!(fetch >= 1 && fetch <= s.n_items);
            }
        }
    }

    // Cycle accounting: simulated cycles are at least the dynamic
    // control-transfer count (every superblock exit costs >= 1) and the
    // run is reproducible.
    let out = simulate(&program, &compacted, &machine, None, &[]).unwrap();
    assert!(out.cycles >= out.sb_stats.traversals);
    let out2 = simulate(&program, &compacted, &machine, None, &[]).unwrap();
    assert_eq!(out.cycles, out2.cycles, "deterministic timing");
    assert_eq!(
        out.sb_stats.blocks_executed, out.exec.counts.blocks,
        "every executed block is attributed to exactly one traversal"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn schedules_valid_under_p4(seed in 0u64..1_000_000) {
        form_and_check(seed, Scheme::P4, MachineConfig::paper());
    }

    #[test]
    fn schedules_valid_under_m4(seed in 0u64..1_000_000) {
        form_and_check(seed, Scheme::M4, MachineConfig::paper());
    }

    #[test]
    fn schedules_valid_with_realistic_latencies(seed in 0u64..1_000_000) {
        form_and_check(seed, Scheme::P4, MachineConfig::realistic());
    }

    #[test]
    fn narrow_machine_schedules_are_longer(seed in 0u64..1_000_000) {
        // Ablation sanity: a 2-wide machine can never beat the 8-wide one.
        let mut p8 = gen_program(seed, GenConfig::default());
        let mut p2 = p8.clone();
        let part8 = singleton_partition(&p8);
        let part2 = part8.clone();
        let wide = MachineConfig::paper();
        let narrow = MachineConfig { issue_width: 2, ..MachineConfig::paper() };
        let c8 = compact_program(&mut p8, &part8, &CompactConfig { machine: wide, ..Default::default() });
        let c2 = compact_program(&mut p2, &part2, &CompactConfig { machine: narrow, ..Default::default() });
        let o8 = simulate(&p8, &c8, &wide, None, &[]).unwrap();
        let o2 = simulate(&p2, &c2, &narrow, None, &[]).unwrap();
        prop_assert!(o2.cycles >= o8.cycles);
    }
}
