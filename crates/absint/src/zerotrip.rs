//! Zero-trip analysis: which CFG edges are provably not taken on a block's
//! *first* execution, and the must-pass query built on top of it.
//!
//! The motivating shape is the fill-then-consume kernel: a guard
//! `bgeu i, n, done` at a loop head is false on the head's first visit
//! whenever `i` and `n` are known constants there (`0 >= 50` — the loop
//! cannot zero-trip), yet plain dominance cannot use that fact, so a `REC`
//! or store inside the loop body "fails" to dominate a later consumer.
//! [`ZeroTrip::must_pass`] restores the guarantee: it deletes the must-block
//! from the graph, prunes first-visit-infeasible edges whose source block
//! provably cannot re-execute without the must-block, and checks the target
//! became unreachable.
//!
//! Soundness of the pruning (documented here because the verifier downgrades
//! diagnostics on its strength): consider an execution prefix that reaches
//! the target while avoiding the must-block, and its first traversal of a
//! pruned edge `(B, s)`. The prefix so far lies in the pruned graph; since
//! `B` cannot reach itself there, this is `B`'s first execution, where the
//! constant propagation below proves the branch outcome excludes `s` —
//! contradiction. Constants at a loop head are taken from the *pre-kill*
//! merge (valid exactly at the first visit); constants elsewhere only
//! involve registers never written inside any surrounding loop (valid at
//! every visit), enforced by killing loop-defined registers at each head.

use std::collections::BTreeSet;

use amnesiac_cfg::Cfg;
use amnesiac_isa::{DecodedInst, DecodedOp, NUM_REGS};

/// Per-register known-constant state (`None` = unknown).
type ConstState = Vec<Option<u64>>;

/// First-visit edge facts over the main-code CFG.
#[derive(Debug, Clone)]
pub struct ZeroTrip {
    /// Edges `(block, succ)` provably not taken on `block`'s first
    /// execution; for non-head blocks the proof holds on *every* execution.
    infeasible: BTreeSet<(usize, usize)>,
    /// Subset of `infeasible` sources that are loop heads (their facts need
    /// the cannot-re-execute side condition).
    head_sources: BTreeSet<usize>,
}

/// Applies one instruction to a constant state.
fn const_transfer(d: &DecodedInst, state: &mut ConstState) {
    let src = |state: &ConstState, j: usize| -> Option<u64> {
        match d.srcs[j] {
            Some(r) => state[r.index()],
            None => Some(0),
        }
    };
    let out: Option<Option<u64>> = match d.op {
        DecodedOp::Li { imm } => Some(Some(imm)),
        DecodedOp::Alu { op } => Some(match (src(state, 0), src(state, 1)) {
            (Some(a), Some(b)) => Some(op.apply(a, b)),
            _ => None,
        }),
        DecodedOp::Alui { op, imm } => Some(src(state, 0).map(|a| op.apply(a, imm))),
        DecodedOp::Fpu { .. }
        | DecodedOp::FpuUn { .. }
        | DecodedOp::Fma
        | DecodedOp::Cvt { .. }
        | DecodedOp::Load { .. }
        | DecodedOp::Rcmp { .. } => Some(None),
        DecodedOp::Store { .. }
        | DecodedOp::Branch { .. }
        | DecodedOp::Jump { .. }
        | DecodedOp::Halt
        | DecodedOp::Rtn
        | DecodedOp::Rec { .. } => None,
    };
    if let (Some(v), Some(dst)) = (out, d.dst) {
        state[dst.index()] = v;
    }
}

/// The natural-loop body of head `h`: `h` plus every block that reaches a
/// back-edge source without passing through `h`.
pub(crate) fn natural_loop(cfg: &Cfg, h: usize) -> BTreeSet<usize> {
    let mut body = BTreeSet::from([h]);
    let mut stack: Vec<usize> = Vec::new();
    for b in 0..cfg.len() {
        if cfg.is_back_edge(b, h) && body.insert(b) {
            stack.push(b);
        }
    }
    while let Some(b) = stack.pop() {
        for &p in &cfg.blocks[b].preds {
            if body.insert(p) {
                stack.push(p);
            }
        }
    }
    body
}

/// Registers defined anywhere in `blocks`, as a bit mask.
fn defs_in(decoded: &[DecodedInst], cfg: &Cfg, blocks: &BTreeSet<usize>) -> u64 {
    let mut mask = 0u64;
    for &b in blocks {
        for pc in cfg.blocks[b].start..cfg.blocks[b].end {
            if let Some(r) = decoded[pc].dst {
                mask |= 1 << r.index();
            }
        }
    }
    mask
}

impl ZeroTrip {
    /// Computes first-visit edge facts for the main-code CFG.
    pub fn analyze(decoded: &[DecodedInst], cfg: &Cfg) -> ZeroTrip {
        let n = cfg.len();
        let mut out = ZeroTrip {
            infeasible: BTreeSet::new(),
            head_sources: BTreeSet::new(),
        };
        let Some(e) = cfg.entry_block else {
            return out;
        };
        let heads: BTreeSet<usize> = cfg.loop_heads().into_iter().collect();
        // reducibility guard: every back-edge source must lie inside its
        // head's natural loop, else the kill sets below are unreliable
        let loops: Vec<(usize, BTreeSet<usize>, u64)> = heads
            .iter()
            .map(|&h| {
                let body = natural_loop(cfg, h);
                let defs = defs_in(decoded, cfg, &body);
                (h, body, defs)
            })
            .collect();
        for b in 0..n {
            for &s in &cfg.blocks[b].succs {
                if cfg.is_back_edge(b, s) {
                    let Some((_, body, _)) = loops.iter().find(|(h, _, _)| *h == s) else {
                        return out;
                    };
                    if !body.contains(&b) {
                        return out;
                    }
                }
            }
        }

        // one topological (RPO, back edges ignored) constant pass
        let mut exit: Vec<Option<ConstState>> = vec![None; n];
        for &b in cfg.rpo() {
            // merge any-visit states over non-back-edge predecessors
            let merged: Option<ConstState> = if b == e {
                Some(vec![Some(0); NUM_REGS])
            } else {
                let mut merged: Option<ConstState> = None;
                for &p in &cfg.blocks[b].preds {
                    if cfg.is_back_edge(p, b) {
                        continue;
                    }
                    let Some(px) = &exit[p] else { continue };
                    merged = Some(match merged {
                        None => px.clone(),
                        Some(m) => m
                            .iter()
                            .zip(px.iter())
                            .map(|(&a, &c)| if a == c { a } else { None })
                            .collect(),
                    });
                }
                merged
            };
            let Some(mut state) = merged else {
                continue;
            };
            // evaluate the block's terminating branch on the first-visit
            // state (heads) / any-visit state (others — identical before
            // the kill below)
            let last = cfg.blocks[b].end - 1;
            if let DecodedOp::Branch { cond, target } = decoded[last].op {
                let mut fv = state.clone();
                for pc in cfg.blocks[b].start..last {
                    const_transfer(&decoded[pc], &mut fv);
                }
                let d = &decoded[last];
                let lv = d.srcs[0].and_then(|r| fv[r.index()]);
                let rv = d.srcs[1].and_then(|r| fv[r.index()]);
                if let (Some(lv), Some(rv)) = (lv, rv) {
                    let taken_block = cfg.block_of_pc(target);
                    let fall_block = cfg.block_of_pc(last + 1);
                    if taken_block != fall_block {
                        let losing = if cond.eval(lv, rv) {
                            fall_block
                        } else {
                            taken_block
                        };
                        if let Some(losing) = losing {
                            if cfg.blocks[b].succs.contains(&losing) {
                                out.infeasible.insert((b, losing));
                                if heads.contains(&b) {
                                    out.head_sources.insert(b);
                                }
                            }
                        }
                    }
                }
            }
            // any-visit state: at a loop head, kill loop-defined registers
            for (h, _, defs) in &loops {
                if *h == b {
                    for r in 0..NUM_REGS {
                        if defs & (1 << r) != 0 {
                            state[r] = None;
                        }
                    }
                }
            }
            // transfer to block exit
            for pc in cfg.blocks[b].start..cfg.blocks[b].end {
                const_transfer(&decoded[pc], &mut state);
            }
            exit[b] = Some(state);
        }
        out
    }

    /// Edges provably untaken on their source's first execution.
    pub fn infeasible_first_visit(&self) -> &BTreeSet<(usize, usize)> {
        &self.infeasible
    }

    /// `true` if every execution path that reaches `target_block` has
    /// executed `must_block` at least once before arriving (modulo the
    /// zero-trip pruning documented on the module).
    ///
    /// Same-block queries return `true`; the caller is responsible for
    /// intra-block pc ordering.
    pub fn must_pass(&self, cfg: &Cfg, must_block: usize, target_block: usize) -> bool {
        if must_block == target_block {
            return true;
        }
        let Some(e) = cfg.entry_block else {
            return false;
        };
        if e == must_block {
            return true;
        }
        // Greatest-fixpoint pruning: start from every infeasible edge not
        // touching the must-block, then repeatedly drop head facts whose
        // source can re-execute in the *currently* pruned graph, until
        // stable. The side condition is checked against the final set —
        // the soundness argument on the module needs exactly that (the
        // minimal counterexample's first pruned-edge traversal lies in the
        // fully pruned graph) — which lets the exit guards of nested loops
        // keep each other's facts alive where one-edge-at-a-time growth
        // would deadlock.
        let mut pruned: BTreeSet<(usize, usize)> = self
            .infeasible
            .iter()
            .filter(|&&(b, s)| b != must_block && s != must_block)
            .copied()
            .collect();
        loop {
            // head facts hold only at the first execution: require that
            // the source cannot re-execute without the must-block
            let stale: Vec<(usize, usize)> = pruned
                .iter()
                .filter(|&&(b, _)| {
                    self.head_sources.contains(&b)
                        && cfg.blocks[b].succs.iter().any(|&n| {
                            !pruned.contains(&(b, n))
                                && n != must_block
                                && (n == b || reaches(cfg, n, b, must_block, &pruned))
                        })
                })
                .copied()
                .collect();
            if stale.is_empty() {
                break;
            }
            for edge in stale {
                pruned.remove(&edge);
            }
        }
        !reaches(cfg, e, target_block, must_block, &pruned)
    }
}

/// BFS reachability in the CFG with one block deleted and an edge set
/// pruned.
fn reaches(
    cfg: &Cfg,
    from: usize,
    to: usize,
    deleted: usize,
    pruned: &BTreeSet<(usize, usize)>,
) -> bool {
    if from == deleted {
        return false;
    }
    if from == to {
        return true;
    }
    let mut seen = vec![false; cfg.len()];
    seen[from] = true;
    let mut queue = vec![from];
    while let Some(b) = queue.pop() {
        for &s in &cfg.blocks[b].succs {
            if s == deleted || pruned.contains(&(b, s)) || seen[s] {
                continue;
            }
            if s == to {
                return true;
            }
            seen[s] = true;
            queue.push(s);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{predecode, AluOp, BranchCond, ProgramBuilder, Reg};

    /// fill loop over tmp, then a consumer loop reading it back; returns
    /// (decoded, cfg, store_pc, load_pc).
    fn two_loop_kernel() -> (Vec<DecodedInst>, Cfg, usize, usize) {
        let mut b = ProgramBuilder::new("t");
        let tmp = b.alloc_zeroed(50);
        b.li(Reg(1), tmp);
        b.li(Reg(2), 0);
        b.li(Reg(3), 50);
        let top = b.label();
        let fill_done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), fill_done);
        b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        let store_pc = b.store(Reg(2), Reg(7), 0);
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
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top2);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        (decoded, cfg, store_pc, load_pc)
    }

    #[test]
    fn fill_loop_guard_cannot_zero_trip() {
        let (decoded, cfg, store_pc, load_pc) = two_loop_kernel();
        let zt = ZeroTrip::analyze(&decoded, &cfg);
        let store_block = cfg.block_of_pc(store_pc).unwrap();
        let load_block = cfg.block_of_pc(load_pc).unwrap();
        // dominance alone fails: the (statically feasible, dynamically
        // impossible) zero-trip edge skips the fill body
        assert!(!cfg.block_dominates(store_block, load_block));
        // both loop-head exit edges are first-visit infeasible (0 >= 50)
        assert_eq!(zt.infeasible_first_visit().len(), 2);
        // ...and the must-pass query restores the guarantee
        assert!(zt.must_pass(&cfg, store_block, load_block));
    }

    #[test]
    fn unknown_bound_defeats_the_proof() {
        // same shape but the trip count comes from memory: the guard is not
        // first-visit determined, so nothing can be pruned
        let mut b = ProgramBuilder::new("t");
        let tmp = b.alloc_zeroed(50);
        let n_cell = b.alloc_data(&[50]);
        b.li(Reg(1), tmp);
        b.li(Reg(4), n_cell);
        b.load(Reg(3), Reg(4), 0);
        b.li(Reg(2), 0);
        let top = b.label();
        let fill_done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), fill_done);
        b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        let store_pc = b.store(Reg(2), Reg(7), 0);
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top);
        b.bind(fill_done).unwrap();
        let load_pc = b.load(Reg(9), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let zt = ZeroTrip::analyze(&decoded, &cfg);
        let store_block = cfg.block_of_pc(store_pc).unwrap();
        let load_block = cfg.block_of_pc(load_pc).unwrap();
        assert!(zt.infeasible_first_visit().is_empty());
        assert!(!zt.must_pass(&cfg, store_block, load_block));
    }

    /// A two-deep nest (outer sweep, inner fill) then a separate consumer:
    /// the inner head's exit fact and the outer head's exit fact each hold
    /// only if the other is pruned, so one-edge-at-a-time pruning deadlocks
    /// — the greatest-fixpoint form must still prove the store runs first.
    #[test]
    fn nested_loop_store_must_pass() {
        let mut b = ProgramBuilder::new("t");
        let tmp = b.alloc_zeroed(64);
        b.li(Reg(1), tmp);
        b.li(Reg(5), 0);
        b.li(Reg(6), 2);
        let outer = b.label();
        let outer_done = b.label();
        b.bind(outer).unwrap();
        b.branch(BranchCond::Geu, Reg(5), Reg(6), outer_done);
        b.li(Reg(2), 0);
        b.li(Reg(3), 64);
        let inner = b.label();
        let inner_done = b.label();
        b.bind(inner).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), inner_done);
        b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        let store_pc = b.store(Reg(2), Reg(7), 0);
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(inner);
        b.bind(inner_done).unwrap();
        b.alui(AluOp::Add, Reg(5), Reg(5), 1);
        b.jump(outer);
        b.bind(outer_done).unwrap();
        let load_pc = b.load(Reg(9), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let zt = ZeroTrip::analyze(&decoded, &cfg);
        let store_block = cfg.block_of_pc(store_pc).unwrap();
        let load_block = cfg.block_of_pc(load_pc).unwrap();
        assert!(!cfg.block_dominates(store_block, load_block));
        assert_eq!(zt.infeasible_first_visit().len(), 2);
        assert!(zt.must_pass(&cfg, store_block, load_block));
    }

    #[test]
    fn dominating_block_passes_trivially() {
        let (decoded, cfg, _, load_pc) = two_loop_kernel();
        let zt = ZeroTrip::analyze(&decoded, &cfg);
        let entry_block = cfg.entry_block.unwrap();
        let load_block = cfg.block_of_pc(load_pc).unwrap();
        assert!(zt.must_pass(&cfg, entry_block, load_block));
        assert!(zt.must_pass(&cfg, load_block, load_block), "same block");
    }
}
