//! Structural validation of [`Program`]s, including the well-formedness
//! rules of amnesic annotations (paper §3.1).

use crate::inst::Instruction;
use crate::program::{Program, SliceId};
use crate::IsaError;

/// Validates a program (classic or annotated).
///
/// Checks performed:
///
/// 1. every register id is `< NUM_REGS`;
/// 2. the main code region lies within the instruction stream, and every
///    branch/jump target lies within the main code region;
/// 3. the main code region is terminated by at least one `Halt`;
/// 4. slice-only instructions (`RTN`) never appear in main code, and
///    `RCMP`/`REC` only appear in main code;
/// 5. each slice's metadata is internally consistent: the body lies in
///    `instructions[code_len..]`, ends with the matching `RTN`, contains
///    only compute instructions otherwise (no memory or control flow,
///    §3.1.1), has one operand plan per compute instruction with plans for
///    exactly the register operands the instruction has, leaf indices in
///    range, and the owning `RCMP` at `rcmp_pc` referencing the slice.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate(program: &Program) -> Result<(), IsaError> {
    validate_registers(program)?;
    validate_control_flow(program)?;
    validate_region_placement(program)?;
    for meta in &program.slices {
        validate_slice(program, meta)?;
    }
    Ok(())
}

fn validate_registers(program: &Program) -> Result<(), IsaError> {
    for (pc, inst) in program.instructions.iter().enumerate() {
        for reg in inst.srcs().into_iter().flatten() {
            if !reg.is_valid() {
                return Err(IsaError::InvalidRegister { pc, reg: reg.0 });
            }
        }
        if let Some(dst) = inst.dst() {
            if !dst.is_valid() {
                return Err(IsaError::InvalidRegister { pc, reg: dst.0 });
            }
        }
    }
    Ok(())
}

fn validate_control_flow(program: &Program) -> Result<(), IsaError> {
    let code_len = program.code_len;
    let Some(main) = program.instructions.get(..code_len) else {
        return Err(IsaError::CodeLenOutOfRange {
            code_len,
            len: program.instructions.len(),
        });
    };
    let mut has_halt = false;
    for (pc, inst) in main.iter().enumerate() {
        match inst {
            Instruction::Branch { target, .. } | Instruction::Jump { target }
                if *target >= code_len =>
            {
                return Err(IsaError::InvalidTarget {
                    pc,
                    target: *target,
                });
            }
            Instruction::Halt => has_halt = true,
            _ => {}
        }
    }
    if !has_halt {
        return Err(IsaError::MissingHalt);
    }
    if program.entry >= code_len {
        return Err(IsaError::InvalidTarget {
            pc: 0,
            target: program.entry,
        });
    }
    Ok(())
}

fn validate_region_placement(program: &Program) -> Result<(), IsaError> {
    for (pc, inst) in program.instructions.iter().enumerate() {
        let in_main = pc < program.code_len;
        match inst {
            Instruction::Rtn { .. } if in_main => {
                return Err(IsaError::SliceInstOutsideSlice { pc });
            }
            Instruction::Rcmp { slice, .. } => {
                if !in_main {
                    return Err(IsaError::MalformedSlice {
                        slice: slice.0,
                        reason: format!("RCMP inside slice region at pc {pc}"),
                    });
                }
                if slice.index() >= program.slices.len() {
                    return Err(IsaError::MalformedSlice {
                        slice: slice.0,
                        reason: "slice id out of range".into(),
                    });
                }
            }
            Instruction::Rec { key, .. } if !in_main => {
                return Err(IsaError::MalformedSlice {
                    slice: u32::from(*key),
                    reason: format!("REC inside slice region at pc {pc}"),
                });
            }
            _ => {}
        }
    }
    Ok(())
}

fn validate_slice(program: &Program, meta: &crate::program::SliceMeta) -> Result<(), IsaError> {
    let err = |reason: String| IsaError::MalformedSlice {
        slice: meta.id.0,
        reason,
    };
    if meta.entry < program.code_len {
        return Err(err("slice body overlaps main code".into()));
    }
    let end = meta.entry + meta.len;
    if end > program.instructions.len() {
        return Err(err("slice body extends past program end".into()));
    }
    if meta.len < 2 {
        return Err(err(
            "slice must have at least one compute inst and RTN".into()
        ));
    }
    // body: compute instructions then a matching RTN
    let body = &program.instructions[meta.entry..end];
    let Some((last, compute)) = body.split_last() else {
        return Err(err("slice body is empty".into()));
    };
    match last {
        Instruction::Rtn { slice } if *slice == meta.id => {}
        _ => return Err(err("slice body must end with its own RTN".into())),
    }
    for (i, inst) in compute.iter().enumerate() {
        if !inst.is_slice_compute() {
            let pc = meta.entry + i;
            if matches!(inst, Instruction::Load { .. } | Instruction::Store { .. }) {
                return Err(IsaError::MemoryInstInSlice {
                    slice: meta.id.0,
                    pc,
                });
            }
            return Err(err(format!(
                "non-compute instruction in slice body at pc {pc}"
            )));
        }
    }
    if meta.plans.len() != compute.len() {
        return Err(err(format!(
            "expected {} operand plans, found {}",
            compute.len(),
            meta.plans.len()
        )));
    }
    for (i, (inst, plan)) in compute.iter().zip(&meta.plans).enumerate() {
        let srcs = inst.srcs();
        for (j, (src, planned)) in srcs.iter().zip(&plan.sources).enumerate() {
            if src.is_some() != planned.is_some() {
                return Err(err(format!(
                    "operand plan mismatch at slice inst {i}, operand {j}"
                )));
            }
            if let Some(crate::program::OperandSource::SFile { producer }) = planned {
                if *producer as usize >= i {
                    return Err(err(format!(
                        "slice inst {i} operand {j} reads producer {producer} that has \
                         not executed yet (slices run in dependency order)"
                    )));
                }
            }
        }
    }
    for leaf in &meta.leaves {
        let idx = leaf.index as usize;
        if idx >= compute.len() {
            return Err(err(format!("leaf index {idx} out of range")));
        }
        if !meta.plans[idx].is_leaf() {
            return Err(err(format!("leaf index {idx} has SFile-sourced operands")));
        }
        if leaf.needs_hist != meta.plans[idx].reads_hist() {
            return Err(err(format!("leaf {idx} hist flag disagrees with plan")));
        }
    }
    // every Hist key the slice reads must be checkpointed by a REC in the
    // main code region
    for key in meta.hist_keys() {
        let found = program
            .instructions
            .iter()
            .take(program.code_len)
            .any(|i| matches!(i, Instruction::Rec { key: k, .. } if *k == key));
        if !found {
            return Err(err(format!("hist key {key} has no REC checkpoint")));
        }
    }
    // the owning RCMP must reference this slice
    match program.instructions.get(meta.rcmp_pc) {
        Some(Instruction::Rcmp { slice, .. }) if *slice == meta.id => {}
        _ => {
            return Err(err(format!(
                "rcmp_pc {} does not hold the owning RCMP",
                meta.rcmp_pc
            )))
        }
    }
    // root register must be written by the last compute instruction
    match compute.last().and_then(|i| i.dst()) {
        Some(dst) if dst == meta.root_reg => {}
        _ => return Err(err("root register not written by slice root".into())),
    }
    // id must match position
    if program.slices.get(meta.id.index()).map(|m| m.id) != Some(meta.id) {
        return Err(err("slice id does not match its table position".into()));
    }
    let _ = SliceId(meta.id.0); // id is structurally fine
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::AluOp;
    use crate::program::{LeafInfo, OperandPlan, OperandSource, SliceMeta};
    use crate::Reg;

    fn classic_program() -> Program {
        let mut p = Program::new("t");
        p.instructions = vec![
            Instruction::Li {
                dst: Reg(1),
                imm: 0x1000,
            },
            Instruction::Load {
                dst: Reg(2),
                base: Reg(1),
                offset: 0,
            },
            Instruction::Halt,
        ];
        p.code_len = 3;
        p
    }

    /// Hand-builds a minimal valid annotated program:
    /// main: li r1,#base ; li r3,#5 ; rcmp r2,[r1+0],s0 ; halt
    /// slice0: alui add r2, r3, 1 ; rtn
    fn annotated_program() -> Program {
        let mut p = Program::new("t");
        p.instructions = vec![
            Instruction::Li {
                dst: Reg(1),
                imm: 0x1000,
            },
            Instruction::Li {
                dst: Reg(3),
                imm: 5,
            },
            Instruction::Rcmp {
                dst: Reg(2),
                base: Reg(1),
                offset: 0,
                slice: SliceId(0),
            },
            Instruction::Halt,
            // slice body
            Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(2),
                src: Reg(3),
                imm: 1,
            },
            Instruction::Rtn { slice: SliceId(0) },
        ];
        p.code_len = 4;
        p.slices = vec![SliceMeta {
            id: SliceId(0),
            rcmp_pc: 2,
            entry: 4,
            len: 2,
            root_reg: Reg(2),
            plans: vec![OperandPlan {
                sources: [Some(OperandSource::LiveReg), None, None],
            }],
            leaves: vec![LeafInfo {
                index: 0,
                needs_hist: false,
                origin_pc: Some(1),
            }],
            has_nonrecomputable: false,
            est_recompute_nj: 0.3,
            est_load_nj: 10.0,
            height: 0,
        }];
        p
    }

    #[test]
    fn classic_program_validates() {
        assert_eq!(validate(&classic_program()), Ok(()));
    }

    #[test]
    fn annotated_program_validates() {
        assert_eq!(validate(&annotated_program()), Ok(()));
    }

    #[test]
    fn rejects_invalid_register() {
        let mut p = classic_program();
        p.instructions[0] = Instruction::Li {
            dst: Reg(64),
            imm: 0,
        };
        assert!(matches!(
            validate(&p),
            Err(IsaError::InvalidRegister { pc: 0, reg: 64 })
        ));
    }

    #[test]
    fn rejects_out_of_range_branch() {
        let mut p = classic_program();
        p.instructions[0] = Instruction::Jump { target: 99 };
        assert!(matches!(validate(&p), Err(IsaError::InvalidTarget { .. })));
    }

    #[test]
    fn rejects_branch_into_slice_region() {
        let mut p = annotated_program();
        p.instructions[1] = Instruction::Jump { target: 4 };
        assert!(matches!(validate(&p), Err(IsaError::InvalidTarget { .. })));
    }

    #[test]
    fn rejects_rtn_in_main_code() {
        let mut p = annotated_program();
        p.instructions[1] = Instruction::Rtn { slice: SliceId(0) };
        assert!(matches!(
            validate(&p),
            Err(IsaError::SliceInstOutsideSlice { pc: 1 })
        ));
    }

    #[test]
    fn rejects_memory_instruction_in_slice() {
        let mut p = annotated_program();
        p.instructions[4] = Instruction::Load {
            dst: Reg(2),
            base: Reg(1),
            offset: 0,
        };
        assert!(matches!(
            validate(&p),
            Err(IsaError::MemoryInstInSlice { slice: 0, pc: 4 })
        ));
    }

    #[test]
    fn rejects_slice_without_matching_rtn() {
        let mut p = annotated_program();
        p.instructions[5] = Instruction::Rtn { slice: SliceId(7) };
        assert!(matches!(validate(&p), Err(IsaError::MalformedSlice { .. })));
    }

    #[test]
    fn rejects_wrong_plan_count() {
        let mut p = annotated_program();
        p.slices[0].plans.push(OperandPlan::empty());
        assert!(matches!(validate(&p), Err(IsaError::MalformedSlice { .. })));
    }

    #[test]
    fn rejects_plan_operand_mismatch() {
        let mut p = annotated_program();
        p.slices[0].plans[0] = OperandPlan::empty(); // Alui has one register src
        assert!(matches!(validate(&p), Err(IsaError::MalformedSlice { .. })));
    }

    #[test]
    fn rejects_wrong_root_register() {
        let mut p = annotated_program();
        p.slices[0].root_reg = Reg(9);
        assert!(matches!(validate(&p), Err(IsaError::MalformedSlice { .. })));
    }

    #[test]
    fn rejects_rcmp_with_unknown_slice_id() {
        let mut p = annotated_program();
        p.instructions[2] = Instruction::Rcmp {
            dst: Reg(2),
            base: Reg(1),
            offset: 0,
            slice: SliceId(3),
        };
        assert!(matches!(validate(&p), Err(IsaError::MalformedSlice { .. })));
    }

    #[test]
    fn rejects_leaf_with_sfile_operand() {
        let mut p = annotated_program();
        p.slices[0].plans[0] = OperandPlan {
            sources: [Some(OperandSource::SFile { producer: 0 }), None, None],
        };
        assert!(matches!(validate(&p), Err(IsaError::MalformedSlice { .. })));
    }
}
