//! Abstract interpretation over the decoded AMNESIAC instruction stream.
//!
//! Cooperating analyses on the main-code CFG and over slice bodies, plus a
//! prover that ties them together:
//!
//! * [`ValueAnalysis`] — forward constant/interval domain with widening at
//!   loop heads and branch refinement on edges;
//! * [`SliceLiveness`] — backward liveness over a slice body's `SFile`
//!   slots;
//! * [`Footprint`] — interval bounds on every load/store/`RCMP` address
//!   and on the values a loaded range can hold;
//! * [`SymbolicAnalysis`] + [`ZeroTrip`] + [`equiv`] — the static
//!   replay-equivalence prover: per-slice proofs that recomputation equals
//!   the loaded value on every input, letting the compile pipeline skip
//!   dynamic validation rounds (dynamic replay stays on as the
//!   differential oracle).
//!
//! [`Analysis::of_program`] runs everything; [`Analysis::slice_reports`]
//! yields per-slice facts for the verifier and the `lint` verb. The compile
//! gate builds one `Analysis` per annotated binary: the verifier reads its
//! CFG, zero-trip facts and slice reports, and the static skip reads the
//! same reports' verdicts.

#![deny(unsafe_code)]
#![warn(missing_docs)]
// transfer functions take the absolute pc as an operand, so iterating the
// `start..end` pc range directly reads better than enumerate-with-offset
#![allow(clippy::needless_range_loop)]

pub mod domain;
pub mod equiv;
pub mod footprint;
pub mod liveness;
pub mod symbolic;
pub mod values;
pub mod zerotrip;

use amnesiac_cfg::Cfg;
use amnesiac_isa::{predecode, DecodedInst, Program};

pub use domain::Interval;
pub use equiv::{Equivalence, ProofKind, SliceVerdict};
pub use footprint::{initial_value_interval, Access, AccessKind, Footprint};
pub use liveness::SliceLiveness;
pub use symbolic::{ExprArena, ExprId, Node, SymbolicAnalysis};
pub use values::ValueAnalysis;
pub use zerotrip::ZeroTrip;

/// All analyses over one program, sharing a decode and a CFG.
#[derive(Debug)]
pub struct Analysis {
    /// The decoded instruction stream (main code and slice bodies).
    pub decoded: Vec<DecodedInst>,
    /// The main-code CFG.
    pub cfg: Cfg,
    /// Forward interval analysis.
    pub values: ValueAnalysis,
    /// Memory access bounds.
    pub footprint: Footprint,
    /// First-visit / must-pass facts.
    pub zerotrip: ZeroTrip,
    /// Symbolic value-flow (the prover's substrate).
    pub sym: SymbolicAnalysis,
}

/// Per-slice facts for the verifier and the lint report.
#[derive(Debug, Clone)]
pub struct SliceReport {
    /// Slice id (index into `program.slices`).
    pub slice: u32,
    /// The static replay-equivalence verdict.
    pub verdict: SliceVerdict,
    /// Body producers whose value is never consumed.
    pub dead_producers: Vec<u16>,
    /// Minimal concurrently-live `SFile` slots the body needs.
    pub peak_sfile: usize,
    /// The recomputed value, when it folds to a constant.
    pub recomputed_const: Option<u64>,
    /// `Some((recomputed, lo, hi))` when the recomputation is a constant
    /// provably outside the loaded-value bound `[lo, hi]` — the slice
    /// diverges at every firing.
    pub divergent: Option<(u64, u64, u64)>,
}

impl Analysis {
    /// Runs every analysis over `program`'s main code.
    pub fn of_program(program: &Program) -> Analysis {
        let decoded = predecode(program);
        let code_len = program.code_len.min(decoded.len());
        let cfg = Cfg::build(&decoded, code_len, program.entry);
        let values = ValueAnalysis::run(&decoded, &cfg);
        let footprint = Footprint::analyze(&decoded, &cfg, &values);
        let zerotrip = ZeroTrip::analyze(&decoded, &cfg);
        let sym = SymbolicAnalysis::run(&decoded, &cfg);
        Analysis {
            decoded,
            cfg,
            values,
            footprint,
            zerotrip,
            sym,
        }
    }

    /// Builds the per-slice report for every slice of `program`.
    pub fn slice_reports(&mut self, program: &Program) -> Vec<SliceReport> {
        let mut eq = Equivalence::new(
            &self.decoded,
            &self.cfg,
            &mut self.sym,
            &self.zerotrip,
            &self.footprint,
            program.code_len.min(self.decoded.len()),
        );
        let mut out = Vec::with_capacity(program.slices.len());
        for (i, meta) in program.slices.iter().enumerate() {
            let verdict = eq.prove(program, meta);
            let recomputed_const = eq.slice_const(meta);
            let sl = SliceLiveness::analyze(meta);
            let divergent = recomputed_const.and_then(|c| {
                let acc = self.footprint.at(meta.rcmp_pc)?;
                let iv = self.footprint.loaded_value_interval(acc.addr, program);
                match iv {
                    Interval::Range(lo, hi) if !iv.contains(c) => Some((c, lo, hi)),
                    _ => None,
                }
            });
            out.push(SliceReport {
                slice: i as u32,
                verdict,
                dead_producers: sl.dead_producers,
                peak_sfile: sl.peak_sfile,
                recomputed_const,
                divergent,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{
        AluOp, BranchCond, Instruction, OperandPlan, OperandSource, ProgramBuilder, Reg, SliceId,
        SliceMeta,
    };

    fn sfile(p: u16) -> Option<OperandSource> {
        Some(OperandSource::SFile { producer: p })
    }

    fn live() -> Option<OperandSource> {
        Some(OperandSource::LiveReg)
    }

    /// Hand-annotates: replaces the load at `load_pc` with an `RCMP`,
    /// appends the slice body + `Rtn`, and registers the meta.
    fn annotate(p: &mut Program, load_pc: usize, body: Vec<(Instruction, OperandPlan)>) {
        let Instruction::Load { dst, base, offset } = p.instructions[load_pc] else {
            panic!("annotation target must be a load");
        };
        p.instructions[load_pc] = Instruction::Rcmp {
            dst,
            base,
            offset,
            slice: SliceId(0),
        };
        let entry = p.instructions.len();
        let len = body.len() + 1;
        let mut plans = Vec::new();
        let mut root_reg = Reg(0);
        for (inst, plan) in body {
            if let Some(r) = inst.dst() {
                root_reg = r;
            }
            p.instructions.push(inst);
            plans.push(plan);
        }
        p.instructions.push(Instruction::Rtn { slice: SliceId(0) });
        p.slices.push(SliceMeta {
            id: SliceId(0),
            rcmp_pc: load_pc,
            entry,
            len,
            root_reg,
            plans,
            leaves: Vec::new(),
            has_nonrecomputable: false,
            est_recompute_nj: 0.0,
            est_load_nj: 0.0,
            height: 1,
        });
    }

    /// The flagship shape: fill `tmp[i] = 7*i + 13`, then a consumer loop
    /// whose `RCMP` recomputes from `LiveReg` leaves running in lockstep.
    fn fill_consume_kernel() -> Program {
        let mut b = ProgramBuilder::new("t");
        let tmp = b.alloc_zeroed(50);
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.li(Reg(1), tmp);
        b.li(Reg(2), 0);
        b.li(Reg(3), 50);
        b.li(Reg(4), 7);
        b.li(Reg(5), 13);
        let top = b.label();
        let fill_done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), fill_done);
        b.alu(AluOp::Mul, Reg(6), Reg(4), Reg(2));
        b.alu(AluOp::Add, Reg(6), Reg(6), Reg(5));
        b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        b.store(Reg(6), Reg(7), 0);
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top);
        b.bind(fill_done).unwrap();
        b.li(Reg(2), 0);
        let top2 = b.label();
        let done = b.label();
        b.bind(top2).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), done);
        b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        let load_pc = b.load(Reg(9), Reg(7), 0);
        b.alu(AluOp::Add, Reg(8), Reg(8), Reg(9));
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top2);
        b.bind(done).unwrap();
        b.li(Reg(10), out);
        b.store(Reg(8), Reg(10), 0);
        b.halt();
        let mut p = b.finish().unwrap();
        annotate(
            &mut p,
            load_pc,
            vec![
                (
                    Instruction::Alu {
                        op: AluOp::Mul,
                        dst: Reg(6),
                        lhs: Reg(4),
                        rhs: Reg(2),
                    },
                    OperandPlan {
                        sources: [live(), live(), None],
                    },
                ),
                (
                    Instruction::Alu {
                        op: AluOp::Add,
                        dst: Reg(6),
                        lhs: Reg(6),
                        rhs: Reg(5),
                    },
                    OperandPlan {
                        sources: [sfile(0), live(), None],
                    },
                ),
            ],
        );
        p
    }

    #[test]
    fn affine_fill_loop_slice_is_proven() {
        let p = fill_consume_kernel();
        let mut a = Analysis::of_program(&p);
        let reports = a.slice_reports(&p);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(
            r.verdict,
            SliceVerdict::Proven(ProofKind::AffineLoop),
            "reason: {:?}",
            r.verdict.reason()
        );
        assert!(r.dead_producers.is_empty());
        assert_eq!(r.peak_sfile, 1);
        assert!(r.recomputed_const.is_none(), "value varies per iteration");
        assert!(r.divergent.is_none());
    }

    /// Straight-line store/load of a constant: the ground proof fires and
    /// the recomputation folds.
    fn ground_kernel(clobber: bool) -> Program {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 20);
        b.alui(AluOp::Add, Reg(3), Reg(2), 3);
        b.store(Reg(3), Reg(1), 0);
        if clobber {
            b.li(Reg(2), 999); // breaks the LiveReg lockstep
        }
        let load_pc = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let mut p = b.finish().unwrap();
        annotate(
            &mut p,
            load_pc,
            vec![(
                Instruction::Alui {
                    op: AluOp::Add,
                    dst: Reg(3),
                    src: Reg(2),
                    imm: 3,
                },
                OperandPlan {
                    sources: [live(), None, None],
                },
            )],
        );
        p
    }

    #[test]
    fn ground_store_slice_is_proven_and_folds() {
        let p = ground_kernel(false);
        let mut a = Analysis::of_program(&p);
        let r = &a.slice_reports(&p)[0];
        assert_eq!(
            r.verdict,
            SliceVerdict::Proven(ProofKind::GroundStore),
            "reason: {:?}",
            r.verdict.reason()
        );
        assert_eq!(r.recomputed_const, Some(23));
        assert!(r.divergent.is_none());
    }

    #[test]
    fn clobbered_leaf_is_unknown_and_provably_divergent() {
        let p = ground_kernel(true);
        let mut a = Analysis::of_program(&p);
        let r = &a.slice_reports(&p)[0];
        assert!(!r.verdict.is_proven());
        // recomputes 999 + 3 = 1002, but the cell can only hold 0 or 23
        assert_eq!(r.recomputed_const, Some(1002));
        assert_eq!(r.divergent, Some((1002, 0, 23)));
    }

    #[test]
    fn hist_key_without_rec_site_is_flagged() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 20);
        b.alui(AluOp::Add, Reg(3), Reg(2), 3);
        b.store(Reg(3), Reg(1), 0);
        let load_pc = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let mut p = b.finish().unwrap();
        annotate(
            &mut p,
            load_pc,
            vec![(
                Instruction::Alui {
                    op: AluOp::Add,
                    dst: Reg(3),
                    src: Reg(2),
                    imm: 3,
                },
                OperandPlan {
                    sources: [Some(OperandSource::Hist { key: 7 }), None, None],
                },
            )],
        );
        let mut a = Analysis::of_program(&p);
        let r = &a.slice_reports(&p)[0];
        assert!(!r.verdict.is_proven());
    }
}
