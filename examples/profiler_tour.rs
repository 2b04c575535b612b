//! A tour of the three profilers on one program: edge (point) profiles,
//! general path profiles (the paper's), and Ball–Larus-style forward path
//! profiles (k-iteration paths at k = 1) — showing what each can and
//! cannot answer.
//!
//! ```sh
//! cargo run --release --example profiler_tour
//! ```

use pps::ir::builder::ProgramBuilder;
use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::{AluOp, BlockId, Operand, Program};
use pps::profile::{EdgeProfiler, KPathProfiler, PathProfiler};

/// The Figure 1 CFG: A → (X|direct) → B → (C|Y) → latch → A, 1000 loop
/// iterations. Via-X iterations always continue to C (correlation).
fn figure1() -> (Program, [BlockId; 6]) {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.begin_proc("main", 0);
    let i = f.reg();
    let c = f.reg();
    let m = f.reg();
    f.mov(i, 0i64);
    let a = f.new_block();
    let x = f.new_block();
    let b = f.new_block();
    let y = f.new_block();
    let cc = f.new_block();
    let latch = f.new_block();
    let exit = f.new_block();
    f.jump(a);
    f.switch_to(a);
    f.alu(AluOp::Rem, m, i, 2i64);
    f.branch(m, b, x); // odd: directly to B; even: via X
    f.switch_to(x);
    f.jump(b);
    f.switch_to(b);
    // Correlated: odd iterations (those that skipped X) go to Y half the
    // time; even iterations never do.
    f.alu(AluOp::Rem, m, i, 4i64);
    f.alu(AluOp::CmpEq, c, m, 1i64);
    f.branch(c, y, cc);
    f.switch_to(y);
    f.jump(latch);
    f.switch_to(cc);
    f.jump(latch);
    f.switch_to(latch);
    f.alu(AluOp::Add, i, i, 1i64);
    f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(1000));
    f.branch(c, a, exit);
    f.switch_to(exit);
    f.ret(None);
    let main = f.finish();
    (pb.finish(main), [a, x, b, y, cc, latch])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (program, [a, x, b, y, cc, latch]) = figure1();
    let pid = program.entry;
    let interp = Interp::new(&program, ExecConfig::default());

    let mut ep = EdgeProfiler::new(&program);
    interp.run_traced(&[], &mut ep)?;
    let edge = ep.finish();

    let mut pp = PathProfiler::new(&program, 15);
    interp.run_traced(&[], &mut pp)?;
    let path = pp.finish();

    let mut fp = KPathProfiler::new(&program, 1);
    interp.run_traced(&[], &mut fp)?;
    let fwd = fp.finish();

    println!("EDGE PROFILE — independent frequencies per edge:");
    println!("  f(A→X) = {:>4}   f(A→B) = {:>4}", edge.edge_freq(pid, a, x), edge.edge_freq(pid, a, b));
    println!("  f(B→Y) = {:>4}   f(B→C) = {:>4}", edge.edge_freq(pid, b, y), edge.edge_freq(pid, b, cc));
    println!("  As in the paper's Figure 1, the completion frequency of the");
    println!("  trace A-X-B-C can only be bounded from these numbers.\n");

    println!("GENERAL PATH PROFILE — exact frequencies for block sequences:");
    println!("  f(A-X-B-C) = {:>4}  (exact: via-X iterations always reach C)", path.freq(pid, &[a, x, b, cc]));
    println!("  f(A-X-B-Y) = {:>4}  (the impossible combination)", path.freq(pid, &[a, x, b, y]));
    println!("  f(A-B-Y)   = {:>4}", path.freq(pid, &[a, b, y]));
    let two_iter = [a, x, b, cc, latch, a, b];
    println!("  f(A-X-B-C-latch-A-B) = {} — paths cross loop iterations", path.freq(pid, &two_iter));
    let (hits, misses) = path.cache_stats(pid);
    println!("  profiler transition cache: {hits} hits / {misses} misses");
    println!("  distinct paths recorded: {}\n", path.distinct_paths(pid));

    println!("FORWARD PATH PROFILE (Ball–Larus) — chopped at back edges:");
    println!("  distinct forward paths: {}", fwd.distinct_paths(pid));
    println!("  f(A-X-B-C-latch) = {:>4} (within one iteration: exact)", fwd.path_count(pid, &[a, x, b, cc, latch]));
    println!(
        "  f(…-latch-A-…)   = {:>4} (cannot span the back edge — the reason\n\
         \x20                         the paper collects *general* paths)",
        fwd.path_count(pid, &[latch, a])
    );
    Ok(())
}
