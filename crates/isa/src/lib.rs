#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-isa
//!
//! The RISC-style mini instruction set, program representation, and program
//! builder used throughout the AMNESIAC reproduction.
//!
//! The ISA deliberately mirrors the assumptions of the paper's §3.4 storage
//! analysis: every computational instruction has at most three register
//! sources (`max#src = 3`, reached only by [`Instruction::Fma`]) and exactly
//! one register destination (`max#dest = 1`), so the maximum number of rename
//! requests per recomputing instruction is bounded.
//!
//! Besides the classic subset (ALU, FPU, loads/stores, branches), the ISA
//! carries the three amnesic extensions introduced in §3.1.2 of the paper:
//!
//! * [`Instruction::Rcmp`] — the fusion of a conditional branch with a load.
//!   At runtime the amnesic scheduler either performs the load or branches to
//!   the entry of the associated recomputation slice.
//! * [`Instruction::Rtn`] — returns control to the instruction following the
//!   `RCMP` once slice traversal finishes.
//! * [`Instruction::Rec`] — checkpoints the non-recomputable input operands
//!   of a slice leaf into the history table (`Hist`).
//!
//! Programs are built with [`ProgramBuilder`], a small label-based assembler
//! DSL, and validated by [`validate::validate`].
//!
//! ```
//! use amnesiac_isa::{ProgramBuilder, Reg, AluOp};
//!
//! # fn main() -> Result<(), amnesiac_isa::IsaError> {
//! let mut b = ProgramBuilder::new("double");
//! let base = b.alloc_data(&[21]);
//! b.li(Reg(1), base);
//! b.load(Reg(2), Reg(1), 0);
//! b.alu(AluOp::Add, Reg(3), Reg(2), Reg(2));
//! b.store(Reg(3), Reg(1), 1);
//! b.halt();
//! let program = b.finish()?;
//! assert_eq!(program.instructions.len(), 5);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod binary;
mod builder;
mod decoded;
mod disasm;
mod inst;
mod program;
pub mod validate;

pub use asm::{parse_asm, to_asm, AsmError};
pub use binary::{decode_program, encode_program, encoded_len, DecodeError};
pub use builder::{Label, ProgramBuilder, DATA_BASE};
pub use decoded::{predecode, DecodedInst, DecodedOp};
pub use disasm::disassemble;
pub use inst::{
    AluOp, BranchCond, Category, CvtKind, FpOp, FpUnOp, Instruction, MAX_DEST_OPERANDS,
    MAX_SRC_OPERANDS,
};
pub use program::{
    DataImage, LeafInfo, MemRange, OperandPlan, OperandSource, Program, SliceId, SliceMeta,
};

use std::fmt;

/// Number of architectural registers in the unified register file.
pub const NUM_REGS: usize = 64;

/// An architectural register identifier (`r0` … `r63`).
///
/// The register file is unified: integer and floating-point operations share
/// the same 64 × 64-bit registers, with FP operations reinterpreting the bit
/// pattern as an IEEE-754 `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Returns the register index as a `usize`, for register-file indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if the register id is architecturally valid.
    pub fn is_valid(self) -> bool {
        (self.0 as usize) < NUM_REGS
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Errors produced while constructing or validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // fields are the offending pc/register/target/label
pub enum IsaError {
    /// A register id is out of range (≥ [`NUM_REGS`]).
    InvalidRegister { pc: usize, reg: u8 },
    /// A control-flow target lies outside the program.
    InvalidTarget { pc: usize, target: usize },
    /// A label was used in a branch but never bound to a position.
    UnboundLabel { label: usize },
    /// A label was bound more than once.
    RebindLabel { label: usize },
    /// The program has no terminating `Halt` in the main code region.
    MissingHalt,
    /// A slice's metadata is inconsistent with the instruction stream.
    MalformedSlice { slice: u32, reason: String },
    /// Main code contains an instruction only legal inside a slice body.
    SliceInstOutsideSlice { pc: usize },
    /// A memory instruction appears inside a slice body (forbidden by
    /// construction, §3.1.1 of the paper).
    MemoryInstInSlice { slice: u32, pc: usize },
    /// Two data allocations overlap, or a data address is duplicated.
    OverlappingData { addr: u64 },
    /// The main code region is longer than the instruction stream.
    CodeLenOutOfRange { code_len: usize, len: usize },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::InvalidRegister { pc, reg } => {
                write!(f, "invalid register r{reg} at pc {pc}")
            }
            IsaError::InvalidTarget { pc, target } => {
                write!(f, "control-flow target {target} out of range at pc {pc}")
            }
            IsaError::UnboundLabel { label } => write!(f, "label {label} was never bound"),
            IsaError::RebindLabel { label } => write!(f, "label {label} bound twice"),
            IsaError::MissingHalt => write!(f, "program has no halt in the main code region"),
            IsaError::MalformedSlice { slice, reason } => {
                write!(f, "slice {slice} is malformed: {reason}")
            }
            IsaError::SliceInstOutsideSlice { pc } => {
                write!(f, "slice-only instruction outside any slice at pc {pc}")
            }
            IsaError::MemoryInstInSlice { slice, pc } => {
                write!(f, "memory instruction inside slice {slice} at pc {pc}")
            }
            IsaError::OverlappingData { addr } => {
                write!(f, "overlapping data allocation at word address {addr}")
            }
            IsaError::CodeLenOutOfRange { code_len, len } => {
                write!(
                    f,
                    "main code length {code_len} exceeds the instruction count {len}"
                )
            }
        }
    }
}

impl std::error::Error for IsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_display_and_validity() {
        assert_eq!(Reg(7).to_string(), "r7");
        assert!(Reg(63).is_valid());
        assert!(!Reg(64).is_valid());
        assert_eq!(Reg(9).index(), 9);
    }

    #[test]
    fn error_display_is_nonempty() {
        let errors: Vec<IsaError> = vec![
            IsaError::InvalidRegister { pc: 3, reg: 99 },
            IsaError::InvalidTarget {
                pc: 0,
                target: 1000,
            },
            IsaError::UnboundLabel { label: 2 },
            IsaError::RebindLabel { label: 2 },
            IsaError::MissingHalt,
            IsaError::MalformedSlice {
                slice: 1,
                reason: "x".into(),
            },
            IsaError::SliceInstOutsideSlice { pc: 5 },
            IsaError::MemoryInstInSlice { slice: 0, pc: 7 },
            IsaError::OverlappingData { addr: 16 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
