//! Soundness properties: seeded-random programs are executed concretely,
//! and every abstract result must contain the concrete one at every step.
//!
//! * interval analysis: each register value lies inside its interval at
//!   every block entry;
//! * footprint: every executed load/store address (and stored value) lies
//!   inside the access bounds;
//! * symbolic flow: any register whose block-entry expression folds to a
//!   constant holds exactly that value;
//! * zero-trip: an edge marked first-visit-infeasible is never taken on
//!   its source block's first execution.

use std::collections::HashMap;

use amnesiac_absint::{Analysis, Interval, Node};
use amnesiac_cfg::Cfg;
use amnesiac_isa::{
    predecode, AluOp, BranchCond, DecodedInst, DecodedOp, Program, ProgramBuilder, Reg, NUM_REGS,
};
use amnesiac_rng::Rng;

/// Emits a random compute/memory instruction over scratch registers
/// `r1..r15`, with `r16` holding the array base.
fn random_inst(b: &mut ProgramBuilder, rng: &mut Rng) {
    let r = |rng: &mut Rng| Reg(1 + rng.below(15) as u8);
    match rng.below(8) {
        0 => {
            let imm = if rng.below(2) == 0 {
                rng.below(1000)
            } else {
                *rng.choose(&amnesiac_rng::U64_EDGE_CASES)
            };
            b.li(r(rng), imm);
        }
        1 | 2 => {
            let op = *rng.choose(AluOp::ALL.as_slice());
            b.alu(op, r(rng), r(rng), r(rng));
        }
        3 | 4 => {
            let op = *rng.choose(AluOp::ALL.as_slice());
            b.alui(op, r(rng), r(rng), rng.below(64));
        }
        5 => {
            // keep the index in range so stores stay on the array, but the
            // analysis must stay sound even when they would not
            let idx = r(rng);
            b.alui(AluOp::And, Reg(17), idx, 7);
            b.alu(AluOp::Add, Reg(17), Reg(16), Reg(17));
            b.store(r(rng), Reg(17), 0);
        }
        6 => {
            let idx = r(rng);
            b.alui(AluOp::And, Reg(17), idx, 7);
            b.alu(AluOp::Add, Reg(17), Reg(16), Reg(17));
            b.load(r(rng), Reg(17), 0);
        }
        _ => {
            // a forward skip over one instruction
            let cond = *rng.choose(BranchCond::ALL.as_slice());
            let skip = b.label();
            b.branch(cond, r(rng), r(rng), skip);
            b.li(r(rng), rng.below(100));
            b.bind(skip).unwrap();
        }
    }
}

/// Builds a random terminating program: straight-line segments and up to
/// two counted loops with constant trip counts.
fn random_program(seed: u64) -> Program {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new("prop");
    let base = b.alloc_zeroed(8);
    b.li(Reg(16), base);
    for _ in 0..rng.below(5) {
        random_inst(&mut b, &mut rng);
    }
    let loops = 1 + rng.below(2);
    for l in 0..loops {
        let ctr = Reg(60 - 2 * l as u8);
        let bound = Reg(61 - 2 * l as u8);
        b.li(ctr, 0);
        b.li(bound, 1 + rng.below(12));
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, ctr, bound, done);
        for _ in 0..1 + rng.below(4) {
            random_inst(&mut b, &mut rng);
        }
        b.alui(AluOp::Add, ctr, ctr, 1);
        b.jump(top);
        b.bind(done).unwrap();
        for _ in 0..rng.below(3) {
            random_inst(&mut b, &mut rng);
        }
    }
    b.halt();
    b.finish().unwrap()
}

/// One concrete step; returns the next pc, or `None` on halt.
fn step(
    decoded: &[DecodedInst],
    pc: usize,
    regs: &mut [u64; NUM_REGS],
    mem: &mut HashMap<u64, u64>,
) -> Option<usize> {
    let d = &decoded[pc];
    let mut vals = [0u64; 3];
    for (j, s) in d.srcs.iter().enumerate() {
        if let Some(r) = s {
            vals[j] = regs[r.index()];
        }
    }
    match d.op {
        DecodedOp::Branch { cond, target } => {
            return Some(if cond.eval(vals[0], vals[1]) {
                target
            } else {
                pc + 1
            });
        }
        DecodedOp::Jump { target } => return Some(target),
        DecodedOp::Halt | DecodedOp::Rtn => return None,
        DecodedOp::Load { offset } | DecodedOp::Rcmp { offset, .. } => {
            let addr = vals[0].wrapping_add(offset as u64);
            if let Some(dst) = d.dst {
                regs[dst.index()] = mem.get(&addr).copied().unwrap_or(0);
            }
        }
        DecodedOp::Store { offset } => {
            let addr = vals[1].wrapping_add(offset as u64);
            mem.insert(addr, vals[0]);
        }
        DecodedOp::Rec { .. } => {}
        _ => {
            if let Some(dst) = d.dst {
                regs[dst.index()] = d.eval_compute(vals);
            }
        }
    }
    Some(pc + 1)
}

fn check_block_entry(a: &mut Analysis, program: &Program, b: usize, regs: &[u64; NUM_REGS]) {
    let entry = a
        .values
        .block_entry(b)
        .unwrap_or_else(|| panic!("executed block {b} must be reachable"));
    for (r, &iv) in entry.iter().enumerate() {
        assert!(
            iv.contains(regs[r]),
            "[{}] r{r} = {} escapes {iv:?} at entry of block {b}",
            program.name,
            regs[r]
        );
    }
    let start = a.cfg.blocks[b].start;
    let decoded = std::mem::take(&mut a.decoded);
    if let Some(state) = a.sym.state_at(&decoded, &a.cfg, start) {
        for (r, &e) in state.iter().enumerate() {
            if let Node::Const(c) = a.sym.arena.node(e) {
                assert_eq!(
                    regs[r], c,
                    "[{}] symbolic const for r{r} at block {b} is wrong",
                    program.name
                );
            }
        }
    }
    a.decoded = decoded;
}

#[test]
fn abstract_results_contain_concrete_execution() {
    for seed in 0..60u64 {
        let program = random_program(seed);
        let decoded = predecode(&program);
        let cfg = Cfg::build(&decoded, program.code_len, program.entry);
        let mut a = Analysis::of_program(&program);
        let infeasible = a.zerotrip.infeasible_first_visit().clone();

        let mut regs = [0u64; NUM_REGS];
        let mut mem: HashMap<u64, u64> = program.data.iter().collect();
        let mut visits = vec![0u64; cfg.len()];
        let mut pc = program.entry;
        let mut fuel = 50_000u64;
        loop {
            fuel -= 1;
            assert!(fuel > 0, "seed {seed}: runaway program");
            let b = cfg.block_of_pc(pc).expect("executed pc is in a block");
            if pc == cfg.blocks[b].start {
                visits[b] += 1;
                check_block_entry(&mut a, &program, b, &regs);
            }
            // footprint: the executed access stays inside its bounds
            match decoded[pc].op {
                DecodedOp::Load { offset } | DecodedOp::Rcmp { offset, .. } => {
                    let addr = decoded[pc].srcs[0]
                        .map(|r| regs[r.index()])
                        .unwrap_or(0)
                        .wrapping_add(offset as u64);
                    let acc = a.footprint.at(pc).expect("reachable load has a record");
                    assert!(
                        acc.addr.contains(addr),
                        "seed {seed}: load addr {addr} escapes {:?} at pc {pc}",
                        acc.addr
                    );
                }
                DecodedOp::Store { offset } => {
                    let addr = decoded[pc].srcs[1]
                        .map(|r| regs[r.index()])
                        .unwrap_or(0)
                        .wrapping_add(offset as u64);
                    let value = decoded[pc].srcs[0].map(|r| regs[r.index()]).unwrap_or(0);
                    let acc = a.footprint.at(pc).expect("reachable store has a record");
                    assert!(
                        acc.addr.contains(addr),
                        "seed {seed}: store addr {addr} escapes {:?} at pc {pc}",
                        acc.addr
                    );
                    assert!(
                        acc.value.contains(value),
                        "seed {seed}: stored value {value} escapes {:?} at pc {pc}",
                        acc.value
                    );
                }
                _ => {}
            }
            let Some(next) = step(&decoded, pc, &mut regs, &mut mem) else {
                break;
            };
            // zero-trip: a first-visit-infeasible edge is never the first
            // transition out of its source block
            if next == cfg.blocks[b].end
                || !(cfg.blocks[b].start..cfg.blocks[b].end).contains(&next)
            {
                if let Some(s) = cfg.block_of_pc(next) {
                    if visits[b] == 1 {
                        assert!(
                            !infeasible.contains(&(b, s)),
                            "seed {seed}: first visit of block {b} took infeasible edge to {s}"
                        );
                    }
                }
            }
            pc = next;
        }
    }
}

#[test]
fn interval_refinement_keeps_loop_counters_bounded() {
    // sanity on the generator itself: the counted loops it emits get
    // non-trivial interval facts (the property test would pass vacuously
    // on TOP everywhere)
    let mut nontrivial = 0usize;
    for seed in 0..20u64 {
        let program = random_program(seed);
        let a = Analysis::of_program(&program);
        for b in 0..a.cfg.len() {
            if let Some(entry) = a.values.block_entry(b) {
                if entry
                    .iter()
                    .any(|iv| !iv.is_top() && *iv != Interval::constant(0))
                {
                    nontrivial += 1;
                }
            }
        }
    }
    assert!(
        nontrivial > 20,
        "interval analysis learned almost nothing on random programs ({nontrivial})"
    );
}
