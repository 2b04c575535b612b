//! The textual IR round-trips: every generated program, a hand-built one
//! using every instruction form, and whole transformed programs print and
//! parse back equal and execute identically. Hand-written inputs parse,
//! and malformed ones fail with the offending line.

#[path = "support/ir_text.rs"]
mod ir_text;

use ir_text::parse_program;
use pps::ir::builder::ProgramBuilder;
use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::text::print_program;
use pps::ir::{AluOp, Instr, Operand, Program, Reg};
use pps::testgen::{gen_program, GenConfig};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn textual_ir_round_trips(seed in 0u64..1_000_000) {
        let p = gen_program(seed, GenConfig::default());
        let text = print_program(&p);
        let q = parse_program(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        prop_assert_eq!(&p, &q);
        // Printing is a fixpoint.
        prop_assert_eq!(print_program(&q), text);
    }

    #[test]
    fn parsed_programs_execute_identically(seed in 0u64..1_000_000) {
        let p = gen_program(seed, GenConfig::default());
        let q = parse_program(&print_program(&p)).unwrap();
        let a = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
        let b = Interp::new(&q, ExecConfig::default()).run(&[]).unwrap();
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.return_value, b.return_value);
        prop_assert_eq!(a.counts.instrs, b.counts.instrs);
    }
}

/// The transformed (formed + compacted) program also round-trips: the text
/// format must cover everything the pipeline produces (speculative loads,
/// stubs, compensation chains).
#[test]
fn transformed_programs_round_trip() {
    use pps::compact::{compact_program, CompactConfig};
    use pps::core::{form_program, FormConfig, Scheme};
    use pps::ir::trace::TeeSink;
    use pps::profile::{EdgeProfiler, PathProfiler};

    for seed in 0..40u64 {
        let mut p = gen_program(seed, GenConfig::default());
        let mut tee = TeeSink::new(EdgeProfiler::new(&p), PathProfiler::new(&p, 15));
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[], &mut tee)
            .unwrap();
        let formed = form_program(
            &mut p,
            &tee.a.finish(),
            Some(&tee.b.finish()),
            Scheme::P4,
            &FormConfig::default(),
        )
        .unwrap();
        let _ = compact_program(&mut p, &formed.partition, &CompactConfig::default());
        let text = print_program(&p);
        let q = parse_program(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(p, q, "seed {seed}");
    }
}

fn sample() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.set_memory(64, vec![5, -3, 7]);
    let helper = pb.declare_proc("helper", 1);
    let mut h = pb.begin_declared(helper);
    let x = Reg::new(0);
    let y = h.reg();
    h.alu(AluOp::Mul, y, x, 3i64);
    h.ret(Some(Operand::Reg(y)));
    h.finish();
    let mut f = pb.begin_proc("main", 1);
    let n = Reg::new(0);
    let a = f.reg();
    let b = f.reg();
    let t = f.new_block();
    let e = f.new_block();
    let j = f.new_block();
    f.alu(AluOp::Add, a, n, -1i64);
    f.load(b, a, 2);
    f.load_spec(b, a, -1);
    f.store(b, a, 0);
    f.call(helper, vec![Operand::Reg(b)], Some(a));
    f.call(helper, vec![Operand::Imm(2)], None);
    f.out(a);
    f.branch(a, t, e);
    f.switch_to(t);
    f.nop();
    f.jump(j);
    f.switch_to(e);
    let s = f.reg();
    f.mov(s, 1i64);
    f.switch(s, vec![t, j], j);
    f.switch_to(j);
    f.ret(Some(Operand::Reg(a)));
    let main = f.finish();
    pb.finish(main)
}

#[test]
fn print_parse_round_trip() {
    let p = sample();
    let text = print_program(&p);
    let q = parse_program(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(p, q, "{text}");
    // And printing again is a fixpoint.
    assert_eq!(print_program(&q), text);
}

#[test]
fn parsed_program_executes_identically() {
    let p = sample();
    let q = parse_program(&print_program(&p)).unwrap();
    let a = Interp::new(&p, ExecConfig::default()).run(&[1]).unwrap();
    let b = Interp::new(&q, ExecConfig::default()).run(&[1]).unwrap();
    assert_eq!(a.output, b.output);
    assert_eq!(a.return_value, b.return_value);
}

#[test]
fn hand_written_program_parses() {
    let text = "\
program entry=main mem=32
data 10 20

proc main(0) regs=3 entry=b0 {
b0:
  r0 = mov #1
  r1 = load [r0+0]
  r2 = add r1, #2
  out r2
  ret r2
}
";
    let p = parse_program(text).unwrap();
    let r = Interp::new(&p, ExecConfig::default()).run(&[]).unwrap();
    assert_eq!(r.output, vec![22]);
}

#[test]
fn comments_and_blanks_ignored() {
    let text = "\
; a comment
program entry=main mem=8

; another
proc main(0) regs=1 entry=b0 {
b0:
  nop
  ret
}
";
    assert!(parse_program(text).is_ok());
}

#[test]
fn errors_carry_line_numbers() {
    let bad = "\
program entry=main mem=8
proc main(0) regs=1 entry=b0 {
b0:
  r0 = frobnicate r0, r0
  ret
}
";
    let e = parse_program(bad).unwrap_err();
    assert_eq!(e.line, 4);
    assert!(e.message.contains("frobnicate"));
}

#[test]
fn unknown_callee_rejected() {
    let bad = "\
program entry=main mem=8
proc main(0) regs=1 entry=b0 {
b0:
  r0 = call nothere()
  ret
}
";
    let e = parse_program(bad).unwrap_err();
    assert!(e.message.contains("nothere"));
}

#[test]
fn missing_terminator_rejected() {
    let bad = "\
program entry=main mem=8
proc main(0) regs=1 entry=b0 {
b0:
  nop
b1:
  ret
}
";
    let e = parse_program(bad).unwrap_err();
    assert!(e.message.contains("terminator"), "{e}");
}

#[test]
fn all_alu_ops_round_trip() {
    for op in AluOp::ALL {
        let line = format!("r1 = {op} r0, #7");
        let parsed = ir_text::parse_line(1, &line, &HashMap::new()).unwrap();
        match parsed {
            ir_text::Line::Instr(Instr::Alu { op: got, .. }) => assert_eq!(got, op),
            _ => panic!("not an ALU instr"),
        }
    }
}
