//! Textual IR: a human-readable printed form of a program.
//!
//! It is the format `pps-explore --ir` prints, handy for diffing
//! transformed programs. The format round-trips exactly: the test suite's
//! parser (`tests/support/ir_text.rs`) reads every printed program back
//! into an equal [`Program`].
//!
//! ```text
//! program entry=main mem=1024
//! data 1 2 3
//!
//! proc main(1) regs=4 entry=b0 {
//! b0:
//!   r1 = add r0, #1
//!   r2 = load [r1+0]
//!   store r2, [r1+4]
//!   out r2
//!   br r2 ? b1 : b2
//! b1:
//!   r3 = call helper(r2)
//!   jump b2
//! b2:
//!   ret r1
//! }
//!
//! proc helper(1) regs=2 entry=b0 {
//! b0:
//!   r1 = mul r0, #3
//!   ret r1
//! }
//! ```
//!
//! Instruction syntax is exactly the crate's `Display` output.

use crate::instr::Instr;
use crate::program::Program;
use std::fmt::Write as _;

/// Prints a whole program in the textual format.
pub fn print_program(program: &Program) -> String {
    let mut s = String::new();
    let entry_name = &program.proc(program.entry).name;
    let _ = writeln!(s, "program entry={} mem={}", entry_name, program.mem_size);
    if !program.data.is_empty() {
        let _ = write!(s, "data");
        for v in &program.data {
            let _ = write!(s, " {v}");
        }
        let _ = writeln!(s);
    }
    for (_, proc) in program.iter_procs() {
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "proc {}({}) regs={} entry={} {{",
            proc.name, proc.num_params, proc.reg_count, proc.entry
        );
        for (bid, block) in proc.iter_blocks() {
            let _ = writeln!(s, "{bid}:");
            for instr in &block.instrs {
                let _ = writeln!(s, "  {}", display_instr(instr, program));
            }
            let _ = writeln!(s, "  {}", block.term);
        }
        let _ = writeln!(s, "}}");
    }
    s
}

/// Instruction display, with procedure names substituted into calls.
fn display_instr(instr: &Instr, program: &Program) -> String {
    match instr {
        Instr::Call { callee, args, dst } => {
            let name = &program.proc(*callee).name;
            let mut s = String::new();
            if let Some(d) = dst {
                let _ = write!(s, "{d} = call {name}(");
            } else {
                let _ = write!(s, "call {name}(");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{a}");
            }
            s.push(')');
            s
        }
        other => other.to_string(),
    }
}
