//! Functional validation replay: runs an annotated binary (no caches, no
//! energy) firing every slice at every `RCMP`, and checks that each slice
//! reproduces the value the load would have read. This is the compiler's
//! safety net — only slices with a 100% match rate stay in the binary, so
//! amnesic execution is bit-exact on the profiled input.

use std::collections::BTreeMap;

use amnesiac_isa::{predecode, Category, DecodedInst, OperandSource, Program, SliceId, NUM_REGS};
use amnesiac_mem::{FastMap, ServiceLevel};
use amnesiac_sim::{execute, ArchState, Hooks, RcmpOutcome, RunError};

/// Per-slice replay statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceReplayStats {
    /// Times the slice was traversed.
    pub fired: u64,
    /// Traversals whose recomputed value equalled the loaded value.
    pub matches: u64,
    /// Traversals that produced a different value.
    pub mismatches: u64,
    /// Traversals that found no `Hist` entry for a checkpointed operand
    /// (the origin had not executed yet) — counted as mismatches too.
    pub missing_hist: u64,
}

impl SliceReplayStats {
    /// `true` if every traversal reproduced the loaded value.
    pub fn is_exact(&self) -> bool {
        self.mismatches == 0 && self.missing_hist == 0
    }
}

/// Outcome of a validation replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Statistics per slice, indexed by slice id.
    pub per_slice: Vec<SliceReplayStats>,
    /// Values of the program's output ranges at halt (must equal the
    /// classic run's — the replay always uses the loaded value), in
    /// address order.
    pub output: BTreeMap<u64, u64>,
}

impl ReplayOutcome {
    /// Ids of slices that ever failed to reproduce the loaded value.
    pub fn failing_slices(&self) -> Vec<u32> {
        self.per_slice
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_exact())
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Replay error (re-exported alias of the simulator's error type).
pub type ReplayError = RunError;

/// Runs the validation replay.
///
/// # Errors
///
/// * [`RunError::FuseBlown`] after `max_instructions` dynamic instructions;
/// * [`RunError::PcOutOfRange`] if control escapes the main code region.
pub fn replay_validate(
    program: &Program,
    max_instructions: u64,
) -> Result<ReplayOutcome, RunError> {
    replay_decoded(program, &predecode(program), max_instructions)
}

/// [`replay_validate`] over a caller-supplied predecode of `program`.
///
/// The validation loop re-annotates and replays up to
/// `MAX_VALIDATION_ROUNDS` times per compile; the compile gate predecodes
/// each round's annotated binary once and shares the stream between static
/// verification and this replay.
pub(crate) fn replay_decoded(
    program: &Program,
    decoded: &[DecodedInst],
    max_instructions: u64,
) -> Result<ReplayOutcome, RunError> {
    let mut hooks = ReplayHooks {
        program,
        decoded,
        hist: FastMap::default(),
        per_slice: vec![SliceReplayStats::default(); program.slices.len()],
        scratch: Vec::new(),
    };
    let halted = execute(program, decoded, max_instructions, &mut hooks)?;
    Ok(ReplayOutcome {
        per_slice: hooks.per_slice,
        output: halted.state.output(program),
    })
}

/// Functional replay: no caches, no energy, an unbounded `Hist`, and every
/// `RCMP` fires its slice and keeps the loaded value.
struct ReplayHooks<'a> {
    program: &'a Program,
    decoded: &'a [DecodedInst],
    hist: FastMap<u16, [u64; 3]>,
    per_slice: Vec<SliceReplayStats>,
    /// Slice value stack, reused across traversals so the per-`RCMP` hot
    /// path does not allocate.
    scratch: Vec<u64>,
}

impl Hooks for ReplayHooks<'_> {
    type Error = RunError;

    #[inline(always)]
    fn fetch(&mut self, _pc: usize) {}

    #[inline(always)]
    fn charge(&mut self, _category: Category) {}

    #[inline(always)]
    fn load(&mut self, _addr: u64) -> Option<ServiceLevel> {
        None
    }

    #[inline(always)]
    fn store(&mut self, _addr: u64) -> Option<ServiceLevel> {
        None
    }

    fn rec(&mut self, _pc: usize, key: u16, values: [u64; 3]) -> Result<(), RunError> {
        self.hist.insert(key, values);
        Ok(())
    }

    fn rcmp(
        &mut self,
        state: &ArchState,
        _pc: usize,
        slice: SliceId,
        addr: u64,
    ) -> Result<RcmpOutcome, RunError> {
        let actual = state.mem.get(addr);
        let stats = &mut self.per_slice[slice.index()];
        stats.fired += 1;
        match traverse(
            self.program,
            self.decoded,
            slice.0,
            &state.regs,
            &self.hist,
            &mut self.scratch,
        ) {
            Some(recomputed) if recomputed == actual => stats.matches += 1,
            Some(_) => stats.mismatches += 1,
            None => stats.missing_hist += 1,
        }
        // validation always keeps the architecturally correct value
        Ok(RcmpOutcome {
            value: Some(actual),
            extra_retired: 0,
        })
    }
}

/// Functionally traverses a slice; returns the recomputed value, or `None`
/// if a required `Hist` entry is missing. `values` is a caller-owned
/// scratch buffer (cleared here) so the per-`RCMP` hot path does not
/// allocate a fresh value stack per traversal.
fn traverse(
    program: &Program,
    decoded: &[DecodedInst],
    slice_id: u32,
    regs: &[u64; NUM_REGS],
    hist: &FastMap<u16, [u64; 3]>,
    values: &mut Vec<u64>,
) -> Option<u64> {
    let meta = &program.slices[slice_id as usize];
    let body = &decoded[meta.entry..meta.entry + meta.compute_len()];
    values.clear();
    for (k, d) in body.iter().enumerate() {
        let plan = &meta.plans[k];
        let mut vals = [0u64; 3];
        for j in 0..3 {
            let Some(source) = plan.sources[j] else {
                continue;
            };
            vals[j] = match source {
                OperandSource::SFile { producer } => values[producer as usize],
                OperandSource::LiveReg => regs[d.srcs[j].expect("planned operand exists").index()],
                OperandSource::Hist { key } => {
                    let entry = hist.get(&key)?;
                    entry[j]
                }
            };
        }
        values.push(d.eval_compute(vals));
    }
    values.last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use crate::slice::{SliceInstSpec, SliceSpec};
    use amnesiac_isa::{AluOp, Instruction, ProgramBuilder, Reg};

    /// Program computing v = r2 + 3, storing, loading back; slice recomputes
    /// it from a Hist-checkpointed operand.
    fn annotated(hist: bool, clobber: bool) -> Program {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.mark_output(cell, 1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 20);
        let add_pc = b.alui(AluOp::Add, Reg(3), Reg(2), 3);
        b.store(Reg(3), Reg(1), 0);
        if clobber {
            b.li(Reg(2), 999); // kills the LiveReg assumption
        }
        let load_pc = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let spec = SliceSpec {
            load_pc,
            insts: vec![SliceInstSpec {
                inst: Instruction::Alui {
                    op: AluOp::Add,
                    dst: Reg(3),
                    src: Reg(2),
                    imm: 3,
                },
                origin_pc: add_pc,
                sources: [
                    Some(if hist {
                        OperandSource::Hist { key: 0 }
                    } else {
                        OperandSource::LiveReg
                    }),
                    None,
                    None,
                ],
            }],
            height: 0,
            est_recompute_nj: 1.0,
            est_load_nj: 20.0,
        };
        annotate(&p, &[spec]).unwrap()
    }

    #[test]
    fn live_leaf_matches_when_register_survives() {
        let outcome = replay_validate(&annotated(false, false), 10_000).unwrap();
        assert_eq!(outcome.per_slice[0].fired, 1);
        assert!(outcome.per_slice[0].is_exact());
        assert!(outcome.failing_slices().is_empty());
    }

    #[test]
    fn live_leaf_mismatches_when_register_is_clobbered() {
        let outcome = replay_validate(&annotated(false, true), 10_000).unwrap();
        assert_eq!(outcome.per_slice[0].mismatches, 1);
        assert_eq!(outcome.failing_slices(), vec![0]);
    }

    #[test]
    fn hist_leaf_survives_clobbering() {
        let outcome = replay_validate(&annotated(true, true), 10_000).unwrap();
        assert!(
            outcome.per_slice[0].is_exact(),
            "REC checkpointed the operand"
        );
    }

    #[test]
    fn output_is_architecturally_correct_either_way() {
        for (hist, clobber) in [(false, false), (false, true), (true, true)] {
            let outcome = replay_validate(&annotated(hist, clobber), 10_000).unwrap();
            let (&_addr, &v) = outcome.output.iter().next().unwrap();
            assert_eq!(v, 23, "replay keeps the loaded value regardless");
        }
    }

    #[test]
    fn fuse_guards_against_runaway() {
        let p = annotated(false, false);
        assert!(matches!(
            replay_validate(&p, 2),
            Err(RunError::FuseBlown { .. })
        ));
    }
}
