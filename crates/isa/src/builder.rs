//! A small label-based assembler DSL for constructing [`Program`]s.

use crate::inst::{AluOp, BranchCond, CvtKind, FpOp, FpUnOp, Instruction};
use crate::program::{DataImage, MemRange, Program};
use crate::validate;
use crate::{IsaError, Reg};

/// A forward-referencable code label issued by [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) usize);

/// Builder for classic (un-annotated) programs.
///
/// Data memory is allocated linearly from word address `DATA_BASE` upward so
/// that kernels get deterministic, non-overlapping layouts.
///
/// ```
/// use amnesiac_isa::{ProgramBuilder, Reg, AluOp, BranchCond};
///
/// # fn main() -> Result<(), amnesiac_isa::IsaError> {
/// // sum the first 4 naturals into memory
/// let mut b = ProgramBuilder::new("sum");
/// let out = b.alloc_zeroed(1);
/// b.li(Reg(1), 0);         // acc
/// b.li(Reg(2), 0);         // i
/// b.li(Reg(3), 4);         // n
/// let top = b.label();
/// let done = b.label();
/// b.bind(top)?;
/// b.branch(BranchCond::Geu, Reg(2), Reg(3), done);
/// b.alu(AluOp::Add, Reg(1), Reg(1), Reg(2));
/// b.alui(AluOp::Add, Reg(2), Reg(2), 1);
/// b.jump(top);
/// b.bind(done)?;
/// b.li(Reg(4), out);
/// b.store(Reg(1), Reg(4), 0);
/// b.halt();
/// let p = b.finish()?;
/// assert_eq!(p.name, "sum");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    insts: Vec<Instruction>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
    data: DataImage,
    next_data: u64,
    output: Vec<MemRange>,
    read_only: Vec<MemRange>,
}

/// First word address handed out by the data allocator.
pub const DATA_BASE: u64 = 0x1000;

impl ProgramBuilder {
    /// Creates a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            insts: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            data: DataImage::new(),
            next_data: DATA_BASE,
            output: Vec::new(),
            read_only: Vec::new(),
        }
    }

    /// Current program counter (index of the next emitted instruction).
    pub fn pc(&self) -> usize {
        self.insts.len()
    }

    /// Issues a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current pc.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::RebindLabel`] if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), IsaError> {
        let slot = &mut self.labels[label.0];
        if slot.is_some() {
            return Err(IsaError::RebindLabel { label: label.0 });
        }
        *slot = Some(self.insts.len());
        Ok(())
    }

    // ---- data segment ------------------------------------------------

    /// Allocates and initialises `values.len()` words; returns the base
    /// word address.
    pub fn alloc_data(&mut self, values: &[u64]) -> u64 {
        let base = self.next_data;
        self.data.set_run(base, values);
        self.next_data += values.len() as u64;
        base
    }

    /// Allocates and initialises words from `f64` values (bit patterns).
    pub fn alloc_f64(&mut self, values: &[f64]) -> u64 {
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        self.alloc_data(&bits)
    }

    /// Allocates `len` zero-initialised words; returns the base address.
    pub fn alloc_zeroed(&mut self, len: u64) -> u64 {
        self.alloc_data(&vec![0; len as usize])
    }

    /// Marks `[start, start+len)` as observable program output.
    pub fn mark_output(&mut self, start: u64, len: u64) {
        self.output.push(MemRange::new(start, len));
    }

    /// Marks `[start, start+len)` as read-only program input (§2.2:
    /// non-recomputable by definition).
    pub fn mark_read_only(&mut self, start: u64, len: u64) {
        self.read_only.push(MemRange::new(start, len));
    }

    // ---- instruction emission ----------------------------------------

    /// Emits a raw instruction and returns its pc.
    pub fn emit(&mut self, inst: Instruction) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    /// `dst ← imm`.
    pub fn li(&mut self, dst: Reg, imm: u64) -> usize {
        self.emit(Instruction::Li { dst, imm })
    }

    /// `dst ← imm` where `imm` is an `f64`.
    pub fn lfi(&mut self, dst: Reg, imm: f64) -> usize {
        self.emit(Instruction::Li {
            dst,
            imm: imm.to_bits(),
        })
    }

    /// Register-register ALU operation.
    pub fn alu(&mut self, op: AluOp, dst: Reg, lhs: Reg, rhs: Reg) -> usize {
        self.emit(Instruction::Alu { op, dst, lhs, rhs })
    }

    /// Register-immediate ALU operation.
    pub fn alui(&mut self, op: AluOp, dst: Reg, src: Reg, imm: u64) -> usize {
        self.emit(Instruction::Alui { op, dst, src, imm })
    }

    /// Register-register FP operation.
    pub fn fpu(&mut self, op: FpOp, dst: Reg, lhs: Reg, rhs: Reg) -> usize {
        self.emit(Instruction::Fpu { op, dst, lhs, rhs })
    }

    /// Unary FP operation.
    pub fn fpu_un(&mut self, op: FpUnOp, dst: Reg, src: Reg) -> usize {
        self.emit(Instruction::FpuUn { op, dst, src })
    }

    /// Fused multiply-add `dst ← a·b + c`.
    pub fn fma(&mut self, dst: Reg, a: Reg, b: Reg, c: Reg) -> usize {
        self.emit(Instruction::Fma { dst, a, b, c })
    }

    /// Int/FP conversion.
    pub fn cvt(&mut self, kind: CvtKind, dst: Reg, src: Reg) -> usize {
        self.emit(Instruction::Cvt { kind, dst, src })
    }

    /// `dst ← mem[base + offset]`.
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64) -> usize {
        self.emit(Instruction::Load { dst, base, offset })
    }

    /// `mem[base + offset] ← src`.
    pub fn store(&mut self, src: Reg, base: Reg, offset: i64) -> usize {
        self.emit(Instruction::Store { src, base, offset })
    }

    /// Conditional branch to `label`.
    pub fn branch(&mut self, cond: BranchCond, lhs: Reg, rhs: Reg, label: Label) -> usize {
        let pc = self.emit(Instruction::Branch {
            cond,
            lhs,
            rhs,
            target: usize::MAX,
        });
        self.fixups.push((pc, label));
        pc
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> usize {
        let pc = self.emit(Instruction::Jump { target: usize::MAX });
        self.fixups.push((pc, label));
        pc
    }

    /// Terminates the program.
    pub fn halt(&mut self) -> usize {
        self.emit(Instruction::Halt)
    }

    /// Patches label fixups, validates, and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnboundLabel`] if a referenced label was never
    /// bound, or any validation error from [`validate::validate`].
    pub fn finish(self) -> Result<Program, IsaError> {
        let ProgramBuilder {
            name,
            mut insts,
            labels,
            fixups,
            data,
            output,
            read_only,
            ..
        } = self;
        for (pc, label) in fixups {
            let target = labels[label.0].ok_or(IsaError::UnboundLabel { label: label.0 })?;
            match &mut insts[pc] {
                Instruction::Branch { target: t, .. } | Instruction::Jump { target: t } => {
                    *t = target;
                }
                other => unreachable!("fixup on non-control instruction {other:?}"),
            }
        }
        let code_len = insts.len();
        let program = Program {
            name,
            instructions: insts,
            code_len,
            entry: 0,
            slices: Vec::new(),
            data,
            output,
            read_only,
        };
        validate::validate(&program)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_straight_line_program() {
        let mut b = ProgramBuilder::new("t");
        let base = b.alloc_data(&[7, 8]);
        assert_eq!(base, DATA_BASE);
        let second = b.alloc_zeroed(3);
        assert_eq!(second, DATA_BASE + 2, "allocations are contiguous");
        b.li(Reg(1), base);
        b.load(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.code_len, 3);
        assert_eq!(p.data.get(base), 7);
        assert_eq!(p.data.get(base + 1), 8);
        assert_eq!(p.data.get(second + 2), 0);
        assert!(p.data.is_initialized(second + 2));
    }

    #[test]
    fn labels_patch_forward_and_backward() {
        let mut b = ProgramBuilder::new("t");
        let top = b.label();
        let end = b.label();
        b.bind(top).unwrap();
        b.li(Reg(1), 0);
        b.branch(BranchCond::Eq, Reg(1), Reg(1), end); // forward
        b.jump(top); // backward
        b.bind(end).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        match p.instructions[1] {
            Instruction::Branch { target, .. } => assert_eq!(target, 3),
            ref other => panic!("unexpected {other:?}"),
        }
        match p.instructions[2] {
            Instruction::Jump { target } => assert_eq!(target, 0),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        let l = b.label();
        b.jump(l);
        b.halt();
        assert_eq!(b.finish().unwrap_err(), IsaError::UnboundLabel { label: 0 });
    }

    #[test]
    fn rebinding_a_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        let l = b.label();
        b.bind(l).unwrap();
        assert_eq!(b.bind(l).unwrap_err(), IsaError::RebindLabel { label: 0 });
    }

    #[test]
    fn missing_halt_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg(1), 1);
        assert_eq!(b.finish().unwrap_err(), IsaError::MissingHalt);
    }

    #[test]
    fn f64_allocation_roundtrips() {
        let mut b = ProgramBuilder::new("t");
        let base = b.alloc_f64(&[1.5, -2.25]);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(f64::from_bits(p.data.get(base)), 1.5);
        assert_eq!(f64::from_bits(p.data.get(base + 1)), -2.25);
    }

    #[test]
    fn output_and_read_only_marks() {
        let mut b = ProgramBuilder::new("t");
        let input = b.alloc_data(&[1, 2, 3]);
        let out = b.alloc_zeroed(2);
        b.mark_read_only(input, 3);
        b.mark_output(out, 2);
        b.halt();
        let p = b.finish().unwrap();
        assert!(p.is_read_only(input + 2));
        assert!(!p.is_read_only(out));
        assert_eq!(p.output, vec![MemRange::new(out, 2)]);
    }
}
