//! A textual assembly format for classic (un-annotated) programs:
//! [`to_asm`] emits it, [`parse_asm`] parses it back. The instruction
//! syntax is exactly what the [`crate::disassemble`] listing uses;
//! directives carry the program metadata:
//!
//! ```text
//! .name sum
//! .entry 0
//! .data 0x1000 7 8 9          ; base word address, then values
//! .dataf 0x1003 1.5 -2.25     ; f64 values
//! .output 0x1006 1
//! .readonly 0x1000 3
//! li r1, 0x1000
//! ld r2, [r1+0]
//! add r3, r2, r2
//! bgeu r1, r2, @5
//! st r3, [r1+1]
//! halt
//! ```
//!
//! Annotated binaries (with embedded slices) are intentionally out of
//! scope: slice metadata is a compiler artifact, not a source format.

use std::fmt;

use crate::inst::{AluOp, BranchCond, CvtKind, FpOp, FpUnOp, Instruction};
use crate::program::Program;
use crate::{IsaError, Reg};

/// Errors from [`parse_asm`].
#[derive(Debug, Clone, PartialEq)]
pub enum AsmError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed program failed structural validation.
    Invalid(IsaError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            AsmError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<IsaError> for AsmError {
    fn from(e: IsaError) -> Self {
        AsmError::Invalid(e)
    }
}

/// Emits the textual form of a classic program.
///
/// # Panics
///
/// Panics if the program is annotated (slices have no source form).
pub fn to_asm(program: &Program) -> String {
    assert!(
        !program.is_annotated(),
        "annotated binaries have no assembly source form"
    );
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, ".name {}", program.name);
    let _ = writeln!(out, ".entry {}", program.entry);
    // each maximal run of consecutive words is one .data directive
    for (base, words) in program.data.runs() {
        let _ = write!(out, ".data {base:#x}");
        for value in words {
            let _ = write!(out, " {value:#x}");
        }
        out.push('\n');
    }
    for r in &program.output {
        let _ = writeln!(out, ".output {:#x} {}", r.start, r.len);
    }
    for r in &program.read_only {
        let _ = writeln!(out, ".readonly {:#x} {}", r.start, r.len);
    }
    for inst in &program.instructions {
        let _ = writeln!(out, "{inst}");
    }
    out
}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError::Syntax {
        line,
        message: message.into(),
    }
}

fn parse_u64(tok: &str, line: usize) -> Result<u64, AsmError> {
    let tok = tok.trim();
    if let Some(hex) = tok.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| err(line, format!("bad hex `{tok}`: {e}")))
    } else if let Some(hex) = tok.strip_prefix("-0x") {
        u64::from_str_radix(hex, 16)
            .map(|v| v.wrapping_neg())
            .map_err(|e| err(line, format!("bad hex `{tok}`: {e}")))
    } else {
        tok.parse::<i64>()
            .map(|v| v as u64)
            .map_err(|e| err(line, format!("bad integer `{tok}`: {e}")))
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let tok = tok.trim();
    let id = tok
        .strip_prefix('r')
        .ok_or_else(|| err(line, format!("expected register, got `{tok}`")))?
        .parse::<u8>()
        .map_err(|e| err(line, format!("bad register `{tok}`: {e}")))?;
    Ok(Reg(id))
}

fn parse_target(tok: &str, line: usize) -> Result<usize, AsmError> {
    tok.trim()
        .strip_prefix('@')
        .ok_or_else(|| err(line, format!("expected @target, got `{tok}`")))?
        .parse::<usize>()
        .map_err(|e| err(line, format!("bad target `{tok}`: {e}")))
}

/// Parses `[rN+off]` / `[rN-off]` memory operands.
fn parse_mem(tok: &str, line: usize) -> Result<(Reg, i64), AsmError> {
    let inner = tok
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected [reg±off], got `{tok}`")))?;
    let split = inner
        .char_indices()
        .skip(1)
        .find(|&(_, c)| c == '+' || c == '-')
        .map(|(i, _)| i)
        .ok_or_else(|| err(line, format!("missing offset in `{tok}`")))?;
    let reg = parse_reg(&inner[..split], line)?;
    let offset = inner[split..]
        .parse::<i64>()
        .map_err(|e| err(line, format!("bad offset in `{tok}`: {e}")))?;
    Ok((reg, offset))
}

fn alu_op(mnemonic: &str) -> Option<AluOp> {
    Some(match mnemonic {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "rem" => AluOp::Rem,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "shl" => AluOp::Shl,
        "shr" => AluOp::Shr,
        "slt" => AluOp::Slt,
        "sltu" => AluOp::Sltu,
        "seq" => AluOp::Seq,
        "min" => AluOp::Min,
        "max" => AluOp::Max,
        _ => return None,
    })
}

fn fp_op(mnemonic: &str) -> Option<FpOp> {
    Some(match mnemonic {
        "fadd" => FpOp::Add,
        "fsub" => FpOp::Sub,
        "fmul" => FpOp::Mul,
        "fdiv" => FpOp::Div,
        "fmin" => FpOp::Min,
        "fmax" => FpOp::Max,
        "flt" => FpOp::Flt,
        _ => return None,
    })
}

fn fp_un_op(mnemonic: &str) -> Option<FpUnOp> {
    Some(match mnemonic {
        "fsqrt" => FpUnOp::Sqrt,
        "fneg" => FpUnOp::Neg,
        "fabs" => FpUnOp::Abs,
        "fexp" => FpUnOp::Exp,
        "fln" => FpUnOp::Ln,
        _ => return None,
    })
}

fn branch_cond(mnemonic: &str) -> Option<BranchCond> {
    Some(match mnemonic {
        "beq" => BranchCond::Eq,
        "bne" => BranchCond::Ne,
        "blt" => BranchCond::Lt,
        "bge" => BranchCond::Ge,
        "bltu" => BranchCond::Ltu,
        "bgeu" => BranchCond::Geu,
        _ => return None,
    })
}

fn parse_instruction(text: &str, line: usize) -> Result<Instruction, AsmError> {
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r),
        None => (text, ""),
    };
    let operands: Vec<&str> = if rest.trim().is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let want = |n: usize| -> Result<(), AsmError> {
        if operands.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("`{mnemonic}` expects {n} operands, got {}", operands.len()),
            ))
        }
    };

    if mnemonic == "halt" {
        want(0)?;
        return Ok(Instruction::Halt);
    }
    if mnemonic == "j" {
        want(1)?;
        return Ok(Instruction::Jump {
            target: parse_target(operands[0], line)?,
        });
    }
    if mnemonic == "li" {
        want(2)?;
        return Ok(Instruction::Li {
            dst: parse_reg(operands[0], line)?,
            imm: parse_u64(operands[1], line)?,
        });
    }
    if mnemonic == "ld" {
        want(2)?;
        let (base, offset) = parse_mem(operands[1], line)?;
        return Ok(Instruction::Load {
            dst: parse_reg(operands[0], line)?,
            base,
            offset,
        });
    }
    if mnemonic == "st" {
        want(2)?;
        let (base, offset) = parse_mem(operands[1], line)?;
        return Ok(Instruction::Store {
            src: parse_reg(operands[0], line)?,
            base,
            offset,
        });
    }
    if mnemonic == "fma" {
        want(4)?;
        return Ok(Instruction::Fma {
            dst: parse_reg(operands[0], line)?,
            a: parse_reg(operands[1], line)?,
            b: parse_reg(operands[2], line)?,
            c: parse_reg(operands[3], line)?,
        });
    }
    if mnemonic == "i2f" || mnemonic == "f2i" {
        want(2)?;
        return Ok(Instruction::Cvt {
            kind: if mnemonic == "i2f" {
                CvtKind::I2F
            } else {
                CvtKind::F2I
            },
            dst: parse_reg(operands[0], line)?,
            src: parse_reg(operands[1], line)?,
        });
    }
    if let Some(cond) = branch_cond(mnemonic) {
        want(3)?;
        return Ok(Instruction::Branch {
            cond,
            lhs: parse_reg(operands[0], line)?,
            rhs: parse_reg(operands[1], line)?,
            target: parse_target(operands[2], line)?,
        });
    }
    if let Some(op) = fp_un_op(mnemonic) {
        want(2)?;
        return Ok(Instruction::FpuUn {
            op,
            dst: parse_reg(operands[0], line)?,
            src: parse_reg(operands[1], line)?,
        });
    }
    if let Some(op) = fp_op(mnemonic) {
        want(3)?;
        return Ok(Instruction::Fpu {
            op,
            dst: parse_reg(operands[0], line)?,
            lhs: parse_reg(operands[1], line)?,
            rhs: parse_reg(operands[2], line)?,
        });
    }
    // register-immediate forms: `addi`, `muli`, … (op name + `i`)
    if let Some(op) = mnemonic.strip_suffix('i').and_then(alu_op) {
        want(3)?;
        return Ok(Instruction::Alui {
            op,
            dst: parse_reg(operands[0], line)?,
            src: parse_reg(operands[1], line)?,
            imm: parse_u64(operands[2], line)?,
        });
    }
    if let Some(op) = alu_op(mnemonic) {
        want(3)?;
        return Ok(Instruction::Alu {
            op,
            dst: parse_reg(operands[0], line)?,
            lhs: parse_reg(operands[1], line)?,
            rhs: parse_reg(operands[2], line)?,
        });
    }
    Err(err(line, format!("unknown mnemonic `{mnemonic}`")))
}

/// Parses a classic program from its textual form.
///
/// # Errors
///
/// Returns [`AsmError::Syntax`] on malformed lines and
/// [`AsmError::Invalid`] when the assembled program fails
/// [`crate::validate::validate`].
pub fn parse_asm(text: &str) -> Result<Program, AsmError> {
    let mut program = Program::new("asm");
    // `.data`/`.dataf` words in directive order; collected into the image
    // in address order at the end, the later directive winning an overlap
    let mut data: Vec<(u64, u64)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split(';').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if let Some(directive) = content.strip_prefix('.') {
            let mut parts = directive.split_whitespace();
            let kind = parts.next().unwrap_or("");
            let args: Vec<&str> = parts.collect();
            match kind {
                "name" => {
                    program.name = args.join(" ");
                }
                "entry" => {
                    let [tok] = args.as_slice() else {
                        return Err(err(line, ".entry expects one argument"));
                    };
                    program.entry = parse_u64(tok, line)? as usize;
                }
                "data" | "dataf" => {
                    let (base_tok, values) = args
                        .split_first()
                        .ok_or_else(|| err(line, ".data expects a base address"))?;
                    let base = parse_u64(base_tok, line)?;
                    for (i, v) in values.iter().enumerate() {
                        let addr = base.checked_add(i as u64).ok_or_else(|| {
                            err(
                                line,
                                format!(".{kind} run at {base:#x} passes address 2^64"),
                            )
                        })?;
                        let word = if kind == "dataf" {
                            v.parse::<f64>()
                                .map_err(|e| err(line, format!("bad f64 `{v}`: {e}")))?
                                .to_bits()
                        } else {
                            parse_u64(v, line)?
                        };
                        data.push((addr, word));
                    }
                }
                "output" | "readonly" => {
                    let [start, len] = args.as_slice() else {
                        return Err(err(line, format!(".{kind} expects `start len`")));
                    };
                    let range = crate::program::MemRange::new(
                        parse_u64(start, line)?,
                        parse_u64(len, line)?,
                    );
                    if kind == "output" {
                        program.output.push(range);
                    } else {
                        program.read_only.push(range);
                    }
                }
                other => return Err(err(line, format!("unknown directive `.{other}`"))),
            }
            continue;
        }
        // instruction lines may carry a leading `pc:` (disassembly style)
        let content = match content.split_once(':') {
            Some((pc, rest)) if pc.trim().parse::<usize>().is_ok() => rest.trim(),
            _ => content,
        };
        program.instructions.push(parse_instruction(content, line)?);
    }
    program.data = data.into_iter().collect();
    program.code_len = program.instructions.len();
    crate::validate::validate(&program)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new("sample");
        let data = b.alloc_data(&[7, 8]);
        let fdata = b.alloc_f64(&[1.5]);
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.mark_read_only(data, 2);
        b.li(Reg(1), data);
        b.load(Reg(2), Reg(1), 0);
        b.alui(AluOp::Mul, Reg(3), Reg(2), 3);
        b.li(Reg(4), fdata);
        b.load(Reg(5), Reg(4), 0);
        b.fpu(FpOp::Add, Reg(5), Reg(5), Reg(5));
        b.fma(Reg(6), Reg(5), Reg(5), Reg(5));
        b.fpu_un(FpUnOp::Sqrt, Reg(6), Reg(6));
        b.cvt(CvtKind::F2I, Reg(7), Reg(6));
        let skip = b.label();
        b.branch(BranchCond::Geu, Reg(7), Reg(3), skip);
        b.alu(AluOp::Add, Reg(3), Reg(3), Reg(7));
        b.bind(skip).unwrap();
        b.li(Reg(8), out);
        b.store(Reg(3), Reg(8), 0);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample();
        let text = to_asm(&original);
        let parsed = parse_asm(&text).unwrap();
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.entry, original.entry);
        assert_eq!(parsed.instructions, original.instructions);
        assert_eq!(parsed.code_len, original.code_len);
        assert_eq!(parsed.output, original.output);
        assert_eq!(parsed.read_only, original.read_only);
        let a: Vec<_> = parsed.data.iter().collect();
        let b: Vec<_> = original.data.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn parses_disassembly_style_lines_with_pc_prefix() {
        let text = "\n.name t\n 0: li r1, 0x2\n 1: addi r2, r1, 0x3\n 2: halt\n";
        let p = parse_asm(text).unwrap();
        assert_eq!(p.instructions.len(), 3);
        assert_eq!(
            p.instructions[1],
            Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(2),
                src: Reg(1),
                imm: 3
            }
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "; header\n.name t\n\nli r1, 5 ; trailing\nhalt\n";
        let p = parse_asm(text).unwrap();
        assert_eq!(p.instructions.len(), 2);
        assert_eq!(p.name, "t");
    }

    #[test]
    fn negative_offsets_parse() {
        let text = ".name t\nli r1, 0x1000\nld r2, [r1-3]\nhalt\n";
        let p = parse_asm(text).unwrap();
        assert_eq!(
            p.instructions[1],
            Instruction::Load {
                dst: Reg(2),
                base: Reg(1),
                offset: -3
            }
        );
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        for (text, needle) in [
            (".name t\nbogus r1, r2\nhalt\n", "unknown mnemonic"),
            (".name t\nli r1\nhalt\n", "expects 2 operands"),
            (".name t\nld r2, r1\nhalt\n", "expected [reg"),
            (".name t\n.weird 1\nhalt\n", "unknown directive"),
            (".name t\nli rx, 1\nhalt\n", "bad register"),
        ] {
            let e = parse_asm(text).unwrap_err();
            match e {
                AsmError::Syntax { line, message } => {
                    assert_eq!(line, 2, "{text}");
                    assert!(message.contains(needle), "{message} vs {needle}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn data_runs_past_the_address_space_end_are_syntax_errors() {
        let e = parse_asm(".name t\n.data 0xffffffffffffffff 1 2\nhalt\n").unwrap_err();
        assert!(
            matches!(&e, AsmError::Syntax { line: 2, message } if message.contains("2^64")),
            "{e:?}"
        );
        // the last word itself is addressable, and prints back the same
        let p = parse_asm(".name t\n.data 0xffffffffffffffff 1\nhalt\n").unwrap();
        assert_eq!(p.data.get(u64::MAX), 1);
        assert_eq!(parse_asm(&to_asm(&p)).unwrap(), p);
    }

    #[test]
    fn overlapping_data_directives_keep_the_later_word() {
        let p = parse_asm(".data 0x10 1 2 3\n.data 0x11 9\nhalt\n").unwrap();
        assert_eq!(
            p.data.iter().collect::<Vec<_>>(),
            [(0x10, 1), (0x11, 9), (0x12, 3)]
        );
        let p = parse_asm(".data 0x11 9\n.data 0x10 1 2 3\nhalt\n").unwrap();
        assert_eq!(
            p.data.iter().collect::<Vec<_>>(),
            [(0x10, 1), (0x11, 2), (0x12, 3)]
        );
    }

    #[test]
    fn descending_data_directives_parse_like_their_ascending_twin() {
        // one word per directive, so each lands below the one before: a
        // word-at-a-time insert would move the whole image every line
        let lines = |addrs: &mut dyn Iterator<Item = u64>| -> String {
            let mut text = String::from(".name t\n");
            for a in addrs {
                text.push_str(&format!(".data {a:#x} {}\n", a * 3));
            }
            text + "halt\n"
        };
        let n = 100_000;
        let descending = parse_asm(&lines(&mut (0x1000..0x1000 + n).rev())).unwrap();
        let ascending = parse_asm(&lines(&mut (0x1000..0x1000 + n))).unwrap();
        assert_eq!(descending.data.len(), n as usize);
        assert_eq!(descending.data.runs().count(), 1);
        assert_eq!(descending, ascending);
    }

    #[test]
    fn invalid_programs_are_rejected_after_parse() {
        let text = ".name t\nj @9\nhalt\n";
        assert!(matches!(parse_asm(text), Err(AsmError::Invalid(_))));
    }

    #[test]
    #[should_panic(expected = "no assembly source form")]
    fn annotated_programs_cannot_be_emitted() {
        let mut p = sample();
        p.slices.push(crate::program::SliceMeta {
            id: crate::program::SliceId(0),
            rcmp_pc: 0,
            entry: 0,
            len: 0,
            root_reg: Reg(0),
            plans: Vec::new(),
            leaves: Vec::new(),
            has_nonrecomputable: false,
            est_recompute_nj: 0.0,
            est_load_nj: 0.0,
            height: 0,
        });
        to_asm(&p);
    }
}
