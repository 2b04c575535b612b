//! The textual-IR parser: reads what `pps::ir::text::print_program`
//! prints back into a `Program`, so tests can check that the printed form
//! round-trips exactly (`parse(print(p)) == p`) and that hashes survive
//! a rebuild from text.
//!
//! Besides the printed form it accepts blank lines and lines starting with
//! `;`, so test inputs can be written by hand.

use pps::ir::{AluOp, Block, BlockId, Instr, Operand, Proc, ProcId, Program, Reg, Terminator};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse failure, with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

/// Parses the textual format back into a [`Program`].
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input,
/// unknown procedure or block references, or a missing entry procedure.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with(';'))
        .collect();
    let mut it = lines.into_iter().peekable();

    // Header.
    let Some((ln, header)) = it.next() else {
        return err(0, "empty input");
    };
    let (entry_name, mem_size) = parse_header(ln, header)?;

    // Optional data line(s).
    let mut data: Vec<i64> = Vec::new();
    while let Some(&(ln, l)) = it.peek() {
        if let Some(rest) = l.strip_prefix("data") {
            for tok in rest.split_whitespace() {
                match tok.parse::<i64>() {
                    Ok(v) => data.push(v),
                    Err(_) => return err(ln, format!("bad data value `{tok}`")),
                }
            }
            it.next();
        } else {
            break;
        }
    }

    // First pass: scan proc declarations to build the name table (so calls
    // can be forward references).
    #[allow(clippy::type_complexity)]
    let mut raw_procs: Vec<(usize, String, u32, u32, u32, Vec<(usize, String)>)> = Vec::new();
    while let Some((ln, l)) = it.next() {
        let Some(rest) = l.strip_prefix("proc ") else {
            return err(ln, format!("expected `proc`, got `{l}`"));
        };
        let (name, nparams, regs, entry) = parse_proc_header(ln, rest)?;
        let mut body: Vec<(usize, String)> = Vec::new();
        let mut closed = false;
        for (ln2, l2) in it.by_ref() {
            if l2 == "}" {
                closed = true;
                break;
            }
            body.push((ln2, l2.to_string()));
        }
        if !closed {
            return err(ln, format!("proc `{name}` missing closing `}}`"));
        }
        raw_procs.push((ln, name, nparams, regs, entry, body));
    }
    let proc_names: HashMap<String, ProcId> = raw_procs
        .iter()
        .enumerate()
        .map(|(i, (_, name, ..))| (name.clone(), ProcId::new(i as u32)))
        .collect();
    if proc_names.len() != raw_procs.len() {
        return err(0, "duplicate procedure name");
    }

    // Second pass: parse bodies.
    let mut procs = Vec::with_capacity(raw_procs.len());
    for (ln, name, nparams, regs, entry, body) in raw_procs {
        let mut proc = Proc::new(name, nparams);
        proc.reg_count = regs;
        let mut cur: Option<(Vec<Instr>, usize)> = None;
        let mut blocks: Vec<(Block, usize)> = Vec::new();
        for (ln2, l2) in body {
            if let Some(label) = l2.strip_suffix(':') {
                if cur.is_some() {
                    return err(ln2, "previous block missing terminator");
                }
                let idx = parse_block_ref(ln2, label)?;
                cur = Some((Vec::new(), idx as usize));
                continue;
            }
            let Some((ref mut instrs, _)) = cur else {
                return err(ln2, "instruction outside a block");
            };
            match parse_line(ln2, &l2, &proc_names)? {
                Line::Instr(i) => instrs.push(i),
                Line::Term(t) => {
                    let (instrs, idx) = cur.take().expect("open block");
                    blocks.push((Block::new(instrs, t), idx));
                }
            }
        }
        if cur.is_some() {
            return err(ln, "last block missing terminator");
        }
        // Blocks must be declared densely in order b0, b1, ...
        for (i, (_, idx)) in blocks.iter().enumerate() {
            if *idx != i {
                return err(ln, format!("block b{idx} out of order (expected b{i})"));
            }
        }
        proc.blocks = blocks.into_iter().map(|(b, _)| b).collect();
        if entry as usize >= proc.blocks.len() {
            return err(ln, format!("entry b{entry} out of range"));
        }
        proc.entry = BlockId::new(entry);
        procs.push(proc);
    }

    let Some(&entry) = proc_names.get(&entry_name) else {
        return err(0, format!("entry procedure `{entry_name}` not defined"));
    };
    if data.len() > mem_size {
        return err(0, "data section exceeds mem size");
    }
    Ok(Program::new(procs, entry, mem_size, data))
}

fn parse_header(ln: usize, l: &str) -> Result<(String, usize), ParseError> {
    let Some(rest) = l.strip_prefix("program ") else {
        return err(ln, format!("expected `program`, got `{l}`"));
    };
    let mut entry = None;
    let mut mem = None;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("entry=") {
            entry = Some(v.to_string());
        } else if let Some(v) = tok.strip_prefix("mem=") {
            mem = v.parse().ok();
        } else {
            return err(ln, format!("unknown program attribute `{tok}`"));
        }
    }
    match (entry, mem) {
        (Some(e), Some(m)) => Ok((e, m)),
        _ => err(ln, "program header needs entry= and mem="),
    }
}

fn parse_proc_header(ln: usize, rest: &str) -> Result<(String, u32, u32, u32), ParseError> {
    // `<name>(<n>) regs=<r> entry=b<k> {`
    let Some(open) = rest.find('(') else {
        return err(ln, "proc header missing `(`");
    };
    let name = rest[..open].trim().to_string();
    let Some(close) = rest.find(')') else {
        return err(ln, "proc header missing `)`");
    };
    let nparams: u32 = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| ParseError { line: ln, message: "bad parameter count".into() })?;
    let mut regs = None;
    let mut entry = None;
    for tok in rest[close + 1..].split_whitespace() {
        if let Some(v) = tok.strip_prefix("regs=") {
            regs = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("entry=") {
            entry = v.strip_prefix('b').and_then(|x| x.parse().ok());
        } else if tok == "{" {
        } else {
            return err(ln, format!("unknown proc attribute `{tok}`"));
        }
    }
    match (regs, entry) {
        (Some(r), Some(e)) => Ok((name, nparams, r, e)),
        _ => err(ln, "proc header needs regs= and entry=bN"),
    }
}

/// One parsed body line.
pub enum Line {
    /// A straight-line instruction.
    Instr(Instr),
    /// A block terminator.
    Term(Terminator),
}

fn parse_reg(ln: usize, tok: &str) -> Result<Reg, ParseError> {
    tok.strip_prefix('r')
        .and_then(|x| x.parse().ok())
        .map(Reg::new)
        .ok_or(ParseError { line: ln, message: format!("bad register `{tok}`") })
}

fn parse_operand(ln: usize, tok: &str) -> Result<Operand, ParseError> {
    if let Some(v) = tok.strip_prefix('#') {
        v.parse()
            .map(Operand::Imm)
            .map_err(|_| ParseError { line: ln, message: format!("bad immediate `{tok}`") })
    } else {
        parse_reg(ln, tok).map(Operand::Reg)
    }
}

fn parse_block_ref(ln: usize, tok: &str) -> Result<u32, ParseError> {
    tok.strip_prefix('b')
        .and_then(|x| x.parse().ok())
        .ok_or(ParseError { line: ln, message: format!("bad block `{tok}`") })
}

fn parse_mem_ref(ln: usize, tok: &str) -> Result<(Reg, i64), ParseError> {
    // `[rN+off]` where off may be negative.
    let inner = tok
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or(ParseError { line: ln, message: format!("bad address `{tok}`") })?;
    let plus = inner
        .find(['+', '-'])
        .ok_or(ParseError { line: ln, message: format!("bad address `{tok}`") })?;
    let base = parse_reg(ln, &inner[..plus])?;
    // Display emits `+<off>` even for negative offsets (`+-1`).
    let off_str = inner[plus..].strip_prefix('+').unwrap_or(&inner[plus..]);
    let off: i64 = off_str
        .parse()
        .map_err(|_| ParseError { line: ln, message: format!("bad offset in `{tok}`") })?;
    Ok((base, off))
}

fn alu_from_name(name: &str) -> Option<AluOp> {
    AluOp::ALL.into_iter().find(|op| op.to_string() == name)
}

pub fn parse_line(
    ln: usize,
    l: &str,
    procs: &HashMap<String, ProcId>,
) -> Result<Line, ParseError> {
    // Terminators first.
    if let Some(rest) = l.strip_prefix("jump ") {
        return Ok(Line::Term(Terminator::Jump { target: BlockId::new(parse_block_ref(ln, rest.trim())?) }));
    }
    if let Some(rest) = l.strip_prefix("br ") {
        // `br rC ? bT : bF`
        let parts: Vec<&str> = rest.split_whitespace().collect();
        if parts.len() != 5 || parts[1] != "?" || parts[3] != ":" {
            return err(ln, format!("bad branch `{l}`"));
        }
        return Ok(Line::Term(Terminator::Branch {
            cond: parse_reg(ln, parts[0])?,
            taken: BlockId::new(parse_block_ref(ln, parts[2])?),
            not_taken: BlockId::new(parse_block_ref(ln, parts[4])?),
        }));
    }
    if let Some(rest) = l.strip_prefix("switch ") {
        // `switch rS [b1, b2] default b3`
        let Some(lb) = rest.find('[') else { return err(ln, "switch missing `[`") };
        let Some(rb) = rest.find(']') else { return err(ln, "switch missing `]`") };
        let sel = parse_reg(ln, rest[..lb].trim())?;
        let mut targets = Vec::new();
        for tok in rest[lb + 1..rb].split(',') {
            let tok = tok.trim();
            if !tok.is_empty() {
                targets.push(BlockId::new(parse_block_ref(ln, tok)?));
            }
        }
        let Some(dflt) = rest[rb + 1..].trim().strip_prefix("default ") else {
            return err(ln, "switch missing `default`");
        };
        return Ok(Line::Term(Terminator::Switch {
            sel,
            targets,
            default: BlockId::new(parse_block_ref(ln, dflt.trim())?),
        }));
    }
    if l == "ret" {
        return Ok(Line::Term(Terminator::Return { value: None }));
    }
    if let Some(rest) = l.strip_prefix("ret ") {
        return Ok(Line::Term(Terminator::Return { value: Some(parse_operand(ln, rest.trim())?) }));
    }

    // Instructions.
    if l == "nop" {
        return Ok(Line::Instr(Instr::Nop));
    }
    if let Some(rest) = l.strip_prefix("out ") {
        return Ok(Line::Instr(Instr::Out { src: parse_operand(ln, rest.trim())? }));
    }
    if let Some(rest) = l.strip_prefix("store ") {
        // `store <src>, [rB+off]`
        let Some((src, addr)) = rest.split_once(',') else {
            return err(ln, format!("bad store `{l}`"));
        };
        let (base, offset) = parse_mem_ref(ln, addr.trim())?;
        return Ok(Line::Instr(Instr::Store { src: parse_operand(ln, src.trim())?, base, offset }));
    }
    if let Some(rest) = l.strip_prefix("call ") {
        return parse_call(ln, rest, None, procs);
    }
    // `rD = ...`
    let Some((dst_tok, rhs)) = l.split_once('=') else {
        return err(ln, format!("unrecognized line `{l}`"));
    };
    let dst = parse_reg(ln, dst_tok.trim())?;
    let rhs = rhs.trim();
    if let Some(rest) = rhs.strip_prefix("mov ") {
        return Ok(Line::Instr(Instr::Mov { dst, src: parse_operand(ln, rest.trim())? }));
    }
    if let Some(rest) = rhs.strip_prefix("load.s ") {
        let (base, offset) = parse_mem_ref(ln, rest.trim())?;
        return Ok(Line::Instr(Instr::Load { dst, base, offset, speculative: true }));
    }
    if let Some(rest) = rhs.strip_prefix("load ") {
        let (base, offset) = parse_mem_ref(ln, rest.trim())?;
        return Ok(Line::Instr(Instr::Load { dst, base, offset, speculative: false }));
    }
    if let Some(rest) = rhs.strip_prefix("call ") {
        return parse_call(ln, rest, Some(dst), procs);
    }
    // ALU: `<op> <lhs>, <rhs>`
    let Some((op_tok, operands)) = rhs.split_once(' ') else {
        return err(ln, format!("unrecognized instruction `{l}`"));
    };
    let Some(op) = alu_from_name(op_tok) else {
        return err(ln, format!("unknown operation `{op_tok}`"));
    };
    let Some((a, b)) = operands.split_once(',') else {
        return err(ln, format!("ALU needs two operands: `{l}`"));
    };
    Ok(Line::Instr(Instr::Alu {
        op,
        dst,
        lhs: parse_operand(ln, a.trim())?,
        rhs: parse_operand(ln, b.trim())?,
    }))
}

fn parse_call(
    ln: usize,
    rest: &str,
    dst: Option<Reg>,
    procs: &HashMap<String, ProcId>,
) -> Result<Line, ParseError> {
    let Some(open) = rest.find('(') else { return err(ln, "call missing `(`") };
    let Some(close) = rest.rfind(')') else { return err(ln, "call missing `)`") };
    let name = rest[..open].trim();
    let Some(&callee) = procs.get(name) else {
        return err(ln, format!("unknown procedure `{name}`"));
    };
    let mut args = Vec::new();
    for tok in rest[open + 1..close].split(',') {
        let tok = tok.trim();
        if !tok.is_empty() {
            args.push(parse_operand(ln, tok)?);
        }
    }
    Ok(Line::Instr(Instr::Call { callee, args, dst }))
}
