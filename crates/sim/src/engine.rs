//! The execution engine: the one instruction loop every interpreter runs.
//!
//! The classic core, the amnesic core (`amnesiac-core`) and the compiler's
//! validation replay (`amnesiac-compiler`) execute the same ISA over the same
//! predecoded stream; they differ only in what an instruction *costs* and in
//! what `REC` and `RCMP` mean. [`execute`] owns the architectural state — the
//! register file and the flat data memory — and the control flow, and calls
//! out to a [`Hooks`] implementation at exactly those points. The hooks are a
//! generic parameter, so each interpreter gets its own monomorphised loop and
//! a no-op hook compiles away.

use std::collections::BTreeMap;

use amnesiac_isa::{Category, DecodedInst, DecodedOp, Instruction, Program, SliceId, NUM_REGS};
use amnesiac_mem::{PagedMem, ServiceLevel};

use crate::machine::RunError;

/// Everything a dynamic-instruction observer can see at retirement.
#[derive(Debug, Clone)]
pub struct RetireEvent<'a> {
    /// Static program counter of the retired instruction.
    pub pc: usize,
    /// The instruction itself.
    pub inst: &'a Instruction,
    /// Source operand values, in [`Instruction::srcs`] order (unused
    /// positions are 0).
    pub src_values: [u64; 3],
    /// Value written to the destination register, if any.
    pub result: Option<u64>,
    /// Effective word address, for loads and stores.
    pub addr: Option<u64>,
    /// Hierarchy level that serviced a load/store.
    pub level: Option<ServiceLevel>,
}

/// How an `RCMP` resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcmpOutcome {
    /// The value for the destination register, or `None` to perform the
    /// load (the loop then reads memory, charges it through [`Hooks::load`]
    /// and counts it).
    pub value: Option<u64>,
    /// Retirements the `RCMP` adds beyond its own (the decision and any
    /// traversed slice), counted against the fuse.
    pub extra_retired: u64,
}

/// The points where interpreters differ. Every method is called in program
/// order for each retiring main-code instruction; see [`execute`] for the
/// exact sequence.
pub trait Hooks {
    /// Error type of a run; engine-level failures convert into it.
    type Error: From<RunError>;

    /// Instruction supply for the instruction at `pc`, before it executes.
    fn fetch(&mut self, pc: usize);

    /// Charges a non-memory instruction (compute, branch, jump, halt).
    fn charge(&mut self, category: Category);

    /// Charges a load of word `addr` (the loop reads the value) and returns
    /// the level that serviced it, if the hooks model one.
    fn load(&mut self, addr: u64) -> Option<ServiceLevel>;

    /// Charges a store to word `addr` (the loop writes the value).
    fn store(&mut self, addr: u64) -> Option<ServiceLevel>;

    /// `REC` at `pc`: checkpoint `values` (the source operands) under `key`.
    ///
    /// # Errors
    ///
    /// Whatever the interpreter reports for a `REC` it cannot execute.
    fn rec(&mut self, pc: usize, key: u16, values: [u64; 3]) -> Result<(), Self::Error>;

    /// `RCMP` at `pc` for `slice`, whose load would read word `addr`:
    /// decide between recomputing and loading.
    ///
    /// # Errors
    ///
    /// Whatever the interpreter reports for an `RCMP` it cannot execute or
    /// a recomputation it rejects.
    fn rcmp(
        &mut self,
        state: &ArchState,
        pc: usize,
        slice: SliceId,
        addr: u64,
    ) -> Result<RcmpOutcome, Self::Error>;

    /// Observes a retirement, after its effects are applied. No-op unless
    /// overridden.
    #[inline(always)]
    fn retire(&mut self, _event: &RetireEvent<'_>) {}
}

/// Architectural state the engine owns: the register file and the flat data
/// memory (word-addressed, paged; untouched words read 0).
#[derive(Debug, Clone)]
pub struct ArchState {
    /// Register file.
    pub regs: [u64; NUM_REGS],
    /// Data memory.
    pub mem: PagedMem,
}

impl ArchState {
    /// Zeroed registers over the program's data image.
    pub(crate) fn new(program: &Program) -> Self {
        ArchState {
            regs: [0; NUM_REGS],
            mem: program.data.iter().collect(),
        }
    }

    /// Source operand values of `d`, in [`DecodedInst::srcs`] order (unused
    /// positions are 0).
    #[inline(always)]
    fn gather(&self, d: &DecodedInst) -> [u64; 3] {
        let mut vals = [0u64; 3];
        for (j, s) in d.srcs.iter().enumerate() {
            if let Some(r) = s {
                vals[j] = self.regs[r.index()];
            }
        }
        vals
    }

    /// Values of the program's declared output ranges, in address order.
    pub fn output(&self, program: &Program) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for range in &program.output {
            for addr in range.iter() {
                out.insert(addr, self.mem.get(addr));
            }
        }
        out
    }
}

/// A run that reached `Halt`: the final state and its dynamic counts.
#[derive(Debug, Clone)]
pub struct Halted {
    /// Final architectural state.
    pub state: ArchState,
    /// Dynamic instructions retired, including `RCMP` extras.
    pub instructions: u64,
    /// Loads performed, including `RCMP`s that loaded.
    pub loads: u64,
    /// Stores performed.
    pub stores: u64,
}

/// Runs `program` from its entry to `Halt` over `decoded` (its
/// [`amnesiac_isa::predecode`]), calling `hooks` at every cost and amnesic
/// decision point.
///
/// Per instruction the order is fixed: the fuse check, the pc range check,
/// [`Hooks::fetch`], the operation (which charges through [`Hooks::charge`],
/// [`Hooks::load`] or [`Hooks::store`], or delegates to [`Hooks::rec`] /
/// [`Hooks::rcmp`]), then [`Hooks::retire`]. `Halt` is charged and
/// retired like a jump.
///
/// # Errors
///
/// * [`RunError::FuseBlown`] once `max_instructions` have retired and
///   another instruction is due;
/// * [`RunError::PcOutOfRange`] if control leaves the main code region;
/// * [`RunError::UnexpectedInstruction`] on an `RTN` in main code;
/// * whatever [`Hooks::rec`] or [`Hooks::rcmp`] return.
pub fn execute<H: Hooks>(
    program: &Program,
    decoded: &[DecodedInst],
    max_instructions: u64,
    hooks: &mut H,
) -> Result<Halted, H::Error> {
    let mut state = ArchState::new(program);
    let mut pc = program.entry;
    let mut retired: u64 = 0;
    let mut loads: u64 = 0;
    let mut stores: u64 = 0;

    loop {
        if retired >= max_instructions {
            return Err(RunError::FuseBlown {
                limit: max_instructions,
            }
            .into());
        }
        if pc >= program.code_len {
            return Err(RunError::PcOutOfRange { pc }.into());
        }
        hooks.fetch(pc);
        retired += 1;
        let d = &decoded[pc];
        let src_values = state.gather(d);
        let mut next_pc = pc + 1;
        let mut result = None;
        let mut addr = None;
        let mut level = None;

        match d.op {
            DecodedOp::Halt => {
                hooks.charge(d.category);
                hooks.retire(&RetireEvent {
                    pc,
                    inst: &program.instructions[pc],
                    src_values,
                    result: None,
                    addr: None,
                    level: None,
                });
                break;
            }
            DecodedOp::Load { offset } => {
                let a = src_values[0].wrapping_add(offset as u64);
                level = hooks.load(a);
                let value = state.mem.get(a);
                state.regs[dst(d)] = value;
                loads += 1;
                result = Some(value);
                addr = Some(a);
            }
            DecodedOp::Store { offset } => {
                let a = src_values[1].wrapping_add(offset as u64);
                state.mem.set(a, src_values[0]);
                level = hooks.store(a);
                stores += 1;
                addr = Some(a);
            }
            DecodedOp::Branch { cond, target } => {
                hooks.charge(d.category);
                if cond.eval(src_values[0], src_values[1]) {
                    next_pc = target;
                }
            }
            DecodedOp::Jump { target } => {
                hooks.charge(d.category);
                next_pc = target;
            }
            DecodedOp::Rec { key } => hooks.rec(pc, key, src_values)?,
            DecodedOp::Rcmp { offset, slice } => {
                let a = src_values[0].wrapping_add(offset as u64);
                let outcome = hooks.rcmp(&state, pc, slice, a)?;
                retired += outcome.extra_retired;
                let value = match outcome.value {
                    Some(value) => value,
                    None => {
                        level = hooks.load(a);
                        loads += 1;
                        state.mem.get(a)
                    }
                };
                state.regs[dst(d)] = value;
                result = Some(value);
                addr = Some(a);
            }
            DecodedOp::Rtn => return Err(RunError::unexpected(program, pc).into()),
            _ => {
                let value = d.eval_compute(src_values);
                state.regs[dst(d)] = value;
                hooks.charge(d.category);
                result = Some(value);
            }
        }

        hooks.retire(&RetireEvent {
            pc,
            inst: &program.instructions[pc],
            src_values,
            result,
            addr,
            level,
        });
        pc = next_pc;
    }

    Ok(Halted {
        state,
        instructions: retired,
        loads,
        stores,
    })
}

/// Destination register index of an instruction that has one.
#[inline(always)]
fn dst(d: &DecodedInst) -> usize {
    d.dst
        .expect("value-producing instructions have a dst")
        .index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::ProgramBuilder;

    #[test]
    fn state_starts_from_the_data_image() {
        let mut b = ProgramBuilder::new("t");
        let base = b.alloc_data(&[5, 6, 7]);
        b.mark_output(base, 2);
        b.halt();
        let p = b.finish().unwrap();
        let s = ArchState::new(&p);
        assert_eq!(s.regs, [0; NUM_REGS]);
        assert_eq!(s.mem.get(base + 2), 7);
        assert_eq!(s.mem.get(base + 99), 0, "untouched words read 0");
        assert_eq!(s.output(&p), BTreeMap::from([(base, 5), (base + 1, 6)]));
    }
}
