#![warn(missing_docs)]

//! Executable compiler IR for the path-profile scheduling reproduction.
//!
//! This crate defines an Alpha-flavoured, executable intermediate
//! representation: programs made of procedures, procedures made of basic
//! blocks over a control-flow graph, and blocks made of straight-line
//! [`Instr`]s closed by a [`Terminator`]. A reference [`interp`]reter defines
//! the observable semantics of the IR; every transformation performed by the
//! scheduling pipeline must preserve them.
//!
//! The IR plays the role that compiled Digital Alpha binaries play in the
//! paper (Young & Smith, MICRO-31 1998): it is the thing that gets profiled,
//! restructured into superblocks, compacted, and finally timed by the
//! compiled-simulation analog in `pps-sim`.
//!
//! # Example
//!
//! ```
//! use pps_ir::builder::ProgramBuilder;
//! use pps_ir::{interp::{Interp, ExecConfig}, AluOp, Operand};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.begin_proc("main", 0);
//! let r = f.reg();
//! f.mov(r, Operand::Imm(21));
//! let r2 = f.reg();
//! f.alu(AluOp::Add, r2, Operand::Reg(r), Operand::Reg(r));
//! f.out(Operand::Reg(r2));
//! f.ret(None);
//! let main = f.finish();
//! let program = pb.finish(main);
//!
//! let result = Interp::new(&program, ExecConfig::default()).run(&[])?;
//! assert_eq!(result.output, vec![42]);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod builder;
pub mod decode;
pub mod dot;
pub mod exec;
pub mod fault;
pub mod hash;
pub mod inline;
pub mod instr;
pub mod interp;
pub mod proc;
pub mod program;
pub mod text;
pub mod trace;
pub mod verify;

pub use decode::{DecodedProc, DecodedProgram};
pub use exec::{current_engine, with_engine, Engine, Exec};
pub use fault::{FaultInjector, FaultKind, FaultRecord};
pub use instr::{AluOp, Instr, Operand, Terminator};
pub use proc::{Block, BlockId, Proc, Reg};
pub use program::{ProcId, Program};
pub use trace::{BlockEvent, CountSink, NullSink, TraceSink, VecSink};
