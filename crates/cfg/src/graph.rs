//! Control-flow graph over the main-code region of a program.
//!
//! Blocks are built from the predecoded instruction stream
//! ([`amnesiac_isa::DecodedInst`]) and cover `[0, code_len)` exactly: slice
//! bodies are *not* part of the graph — they are only reachable through the
//! `RCMP`/`RTN` protocol, which the verifier checks separately. On top of the
//! block graph the module computes reachability from the program entry and
//! immediate dominators (the iterative Cooper–Harvey–Kennedy algorithm), which
//! the replay-equivalence prover in `amnesiac-absint` queries per block.

use amnesiac_isa::{DecodedInst, DecodedOp};

/// Marks the block leaders of `decoded[..code_len]`: pc 0, the entry, every
/// in-range control target, and every instruction following a control
/// instruction. Returns one flag per main-code pc (empty if `code_len` is 0).
fn leaders(decoded: &[DecodedInst], code_len: usize, entry: usize) -> Vec<bool> {
    let code_len = code_len.min(decoded.len());
    let mut leader = vec![false; code_len];
    if code_len == 0 {
        return leader;
    }
    leader[0] = true;
    if entry < code_len {
        leader[entry] = true;
    }
    for (pc, inst) in decoded[..code_len].iter().enumerate() {
        match inst.op {
            DecodedOp::Branch { target, .. } | DecodedOp::Jump { target } => {
                if target < code_len {
                    leader[target] = true;
                }
                if pc + 1 < code_len {
                    leader[pc + 1] = true;
                }
            }
            DecodedOp::Halt | DecodedOp::Rcmp { .. } | DecodedOp::Rtn if pc + 1 < code_len => {
                leader[pc + 1] = true;
            }
            _ => {}
        }
    }
    leader
}

/// A maximal straight-line run of main-code instructions.
///
/// A block is single-entry (control only enters at `start`) and exits only
/// after its last instruction, so an execution that reaches any instruction
/// of the block has executed every earlier instruction of the same block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction index (exclusive).
    pub end: usize,
    /// Successor block ids. Branch/jump targets outside the main-code
    /// region are *not* edges; the verifier reports them as diagnostics.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

/// Control-flow graph of the main-code region, with reachability and
/// dominator information.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in ascending `start` order (block id = index).
    pub blocks: Vec<BasicBlock>,
    /// Block containing the program entry, if the entry pc is in range.
    pub entry_block: Option<usize>,
    block_of: Vec<usize>,
    reachable: Vec<bool>,
    idom: Vec<Option<usize>>,
    rpo: Vec<usize>,
    rpo_num: Vec<usize>,
}

impl Cfg {
    /// Builds the graph over `decoded[..code_len]` with the given entry pc.
    ///
    /// `decoded` may be longer than `code_len` (the full stream including
    /// slice bodies); only the main-code prefix is examined. Out-of-range
    /// branch targets and entry pcs never panic — they simply contribute no
    /// edges (the verifier diagnoses them).
    pub fn build(decoded: &[DecodedInst], code_len: usize, entry: usize) -> Cfg {
        let code_len = code_len.min(decoded.len());
        if code_len == 0 {
            return Cfg {
                blocks: Vec::new(),
                entry_block: None,
                block_of: Vec::new(),
                reachable: Vec::new(),
                idom: Vec::new(),
                rpo: Vec::new(),
                rpo_num: Vec::new(),
            };
        }

        let leader = leaders(decoded, code_len, entry);

        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of = vec![0usize; code_len];
        for pc in 0..code_len {
            match blocks.last_mut() {
                Some(block) if !leader[pc] => block.end = pc + 1,
                _ => blocks.push(BasicBlock {
                    start: pc,
                    end: pc + 1,
                    succs: Vec::new(),
                    preds: Vec::new(),
                }),
            }
            block_of[pc] = blocks.len() - 1;
        }

        // Successor edges from each block's terminating instruction.
        let n = blocks.len();
        for b in 0..n {
            let last = blocks[b].end - 1;
            let mut succs = Vec::new();
            let push = |succs: &mut Vec<usize>, pc: usize| {
                if pc < code_len {
                    let t = block_of[pc];
                    if !succs.contains(&t) {
                        succs.push(t);
                    }
                }
            };
            match decoded[last].op {
                DecodedOp::Branch { target, .. } => {
                    push(&mut succs, last + 1);
                    push(&mut succs, target);
                }
                DecodedOp::Jump { target } => push(&mut succs, target),
                // Halt ends execution; a main-code RTN is malformed (the
                // verifier flags it) and never returns here statically.
                DecodedOp::Halt | DecodedOp::Rtn => {}
                // RCMP either loads or fires a slice whose RTN resumes at
                // the next instruction — a fallthrough edge either way.
                _ => push(&mut succs, last + 1),
            }
            for &t in &succs {
                blocks[t].preds.push(b);
            }
            blocks[b].succs = succs;
        }

        let entry_block = (entry < code_len).then(|| block_of[entry]);

        // Reachability + postorder from the entry block (iterative DFS).
        let mut reachable = vec![false; n];
        let mut postorder = Vec::with_capacity(n);
        if let Some(e) = entry_block {
            // stack of (block, next-successor-index)
            let mut stack = vec![(e, 0usize)];
            reachable[e] = true;
            while let Some(top) = stack.last_mut() {
                let (b, i) = *top;
                if i < blocks[b].succs.len() {
                    top.1 += 1;
                    let s = blocks[b].succs[i];
                    if !reachable[s] {
                        reachable[s] = true;
                        stack.push((s, 0));
                    }
                } else {
                    postorder.push(b);
                    stack.pop();
                }
            }
        }
        let rpo: Vec<usize> = postorder.iter().rev().copied().collect();
        let mut rpo_num = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b] = i;
        }

        let mut cfg = Cfg {
            blocks,
            entry_block,
            block_of,
            reachable,
            idom: vec![None; n],
            rpo,
            rpo_num,
        };
        cfg.compute_dominators();
        cfg
    }

    /// Iterative dominator computation (Cooper–Harvey–Kennedy) over the
    /// reachable subgraph in reverse postorder.
    fn compute_dominators(&mut self) {
        let Some(entry) = self.entry_block else {
            return;
        };
        self.idom[entry] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in self.rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &self.blocks[b].preds {
                    if self.idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => self.intersect(entry, p, cur),
                    });
                }
                if new_idom.is_some() && self.idom[b] != new_idom {
                    self.idom[b] = new_idom;
                    changed = true;
                }
            }
        }
    }

    /// Nearest common dominator of two processed blocks. Every block on
    /// their idom chains is processed too; a missing idom would stand for
    /// the entry, which dominates every reachable block.
    fn intersect(&self, entry: usize, mut a: usize, mut b: usize) -> usize {
        while a != b {
            while self.rpo_num[a] > self.rpo_num[b] {
                a = self.idom[a].unwrap_or(entry);
            }
            while self.rpo_num[b] > self.rpo_num[a] {
                b = self.idom[b].unwrap_or(entry);
            }
        }
        a
    }

    /// The block containing `pc`, or `None` if `pc` is outside the main code.
    pub fn block_of_pc(&self, pc: usize) -> Option<usize> {
        self.block_of.get(pc).copied()
    }

    /// Reachable blocks in reverse postorder from the entry. Forward
    /// dataflow (dominators here, the interval analysis in
    /// `amnesiac-absint`) converges fastest iterating in this order.
    pub fn rpo(&self) -> &[usize] {
        &self.rpo
    }

    /// Position of block `b` in [`Cfg::rpo`], or `None` if `b` is
    /// unreachable from the entry.
    pub fn rpo_number(&self, b: usize) -> Option<usize> {
        match self.rpo_num.get(b) {
            Some(&n) if n != usize::MAX => Some(n),
            _ => None,
        }
    }

    /// Returns `true` if the edge `from → to` is a retreating (back) edge
    /// in the depth-first ordering: it closes a cycle, so `to` is a loop
    /// head for any analysis that widens there.
    pub fn is_back_edge(&self, from: usize, to: usize) -> bool {
        match (self.rpo_number(from), self.rpo_number(to)) {
            (Some(f), Some(t)) => t <= f && self.blocks[from].succs.contains(&to),
            _ => false,
        }
    }

    /// Blocks that are the target of at least one back edge — the widening
    /// points of any forward analysis over this graph.
    pub fn loop_heads(&self) -> Vec<usize> {
        let mut heads = vec![false; self.blocks.len()];
        for (from, block) in self.blocks.iter().enumerate() {
            for &to in &block.succs {
                if self.is_back_edge(from, to) {
                    heads[to] = true;
                }
            }
        }
        heads
            .iter()
            .enumerate()
            .filter_map(|(b, &h)| h.then_some(b))
            .collect()
    }

    /// Returns `true` if the instruction at `pc` is reachable from the entry.
    pub fn is_reachable_pc(&self, pc: usize) -> bool {
        self.block_of_pc(pc).is_some_and(|b| self.reachable[b])
    }

    /// Returns `true` if block `a` dominates block `b` (every path from the
    /// entry to `b` passes through `a`). Reflexive; `false` if either block
    /// is unreachable.
    pub fn block_dominates(&self, a: usize, b: usize) -> bool {
        // walk b's idom chain; only reachable blocks have an idom
        let mut cur = b;
        while let Some(&Some(up)) = self.idom.get(cur) {
            if cur == a {
                return true;
            }
            if up == cur {
                return false; // reached the entry
            }
            cur = up;
        }
        false
    }

    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if the graph has no blocks (empty main code).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{predecode, AluOp, BranchCond, Instruction, Program, Reg};

    fn program(insts: Vec<Instruction>) -> Program {
        let mut p = Program::new("cfg-test");
        p.code_len = insts.len();
        p.instructions = insts;
        p
    }

    fn alu(dst: u8) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            dst: Reg(dst),
            lhs: Reg(0),
            rhs: Reg(0),
        }
    }

    fn branch(target: usize) -> Instruction {
        Instruction::Branch {
            cond: BranchCond::Eq,
            lhs: Reg(0),
            rhs: Reg(0),
            target,
        }
    }

    #[test]
    fn straight_line_is_one_block() {
        let p = program(vec![alu(1), alu(2), Instruction::Halt]);
        let cfg = Cfg::build(&predecode(&p), p.code_len, 0);
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.blocks[0].start, 0);
        assert_eq!(cfg.blocks[0].end, 3);
        assert!(cfg.is_reachable_pc(2));
    }

    #[test]
    fn diamond_dominators() {
        // 0: branch 3 | 1: alu, 2: jump 4 | 3: alu | 4: halt
        let p = program(vec![
            branch(3),
            alu(1),
            Instruction::Jump { target: 4 },
            alu(2),
            Instruction::Halt,
        ]);
        let cfg = Cfg::build(&predecode(&p), p.code_len, 0);
        assert_eq!(cfg.len(), 4);
        // The branch dominates everything; neither arm dominates the join.
        let [branch, then, other, join] = [0, 1, 3, 4].map(|pc| cfg.block_of_pc(pc).unwrap());
        assert!(cfg.block_dominates(branch, join));
        assert!(!cfg.block_dominates(then, join));
        assert!(!cfg.block_dominates(other, join));
    }

    #[test]
    fn loop_back_edge_and_reachability() {
        // 0: alu | 1: branch 4 (exit) | 2: alu, 3: jump 1 | 4: halt | 5: alu (dead)
        let p = program(vec![
            alu(1),
            branch(4),
            alu(2),
            Instruction::Jump { target: 1 },
            Instruction::Halt,
            alu(3),
        ]);
        let cfg = Cfg::build(&predecode(&p), p.code_len, 0);
        assert!(cfg.is_reachable_pc(2), "loop body reachable");
        assert!(!cfg.is_reachable_pc(5), "code after halt is dead");
        // the loop header dominates the exit; the body and dead code do not
        let [head, body, exit, dead] = [1, 2, 4, 5].map(|pc| cfg.block_of_pc(pc).unwrap());
        assert!(cfg.block_dominates(head, exit));
        assert!(!cfg.block_dominates(body, exit));
        assert!(!cfg.block_dominates(dead, exit));
    }

    #[test]
    fn back_edges_and_loop_heads() {
        // 0: alu | 1: branch 4 (exit) | 2: alu, 3: jump 1 | 4: halt
        let p = program(vec![
            alu(1),
            branch(4),
            alu(2),
            Instruction::Jump { target: 1 },
            Instruction::Halt,
        ]);
        let cfg = Cfg::build(&predecode(&p), p.code_len, 0);
        let head = cfg.block_of_pc(1).unwrap();
        let body = cfg.block_of_pc(2).unwrap();
        assert!(cfg.is_back_edge(body, head));
        assert!(!cfg.is_back_edge(head, body));
        assert_eq!(cfg.loop_heads(), vec![head]);
        // rpo covers exactly the reachable blocks, entry first
        assert_eq!(cfg.rpo().len(), cfg.len());
        assert_eq!(cfg.rpo()[0], cfg.entry_block.unwrap());
        assert_eq!(cfg.rpo_number(cfg.rpo()[0]), Some(0));
    }

    #[test]
    fn unreachable_block_has_no_rpo_number() {
        // 0: halt | 1: alu (dead)
        let p = program(vec![Instruction::Halt, alu(1)]);
        let cfg = Cfg::build(&predecode(&p), p.code_len, 0);
        let dead = cfg.block_of_pc(1).unwrap();
        assert_eq!(cfg.rpo_number(dead), None);
        assert!(cfg.loop_heads().is_empty());
    }

    #[test]
    fn out_of_range_target_has_no_edge() {
        let p = program(vec![branch(9), Instruction::Halt]);
        let cfg = Cfg::build(&predecode(&p), p.code_len, 0);
        assert_eq!(cfg.blocks[0].succs, vec![1], "only the fallthrough edge");
    }

    #[test]
    fn empty_code_is_empty_graph() {
        let p = program(vec![]);
        let cfg = Cfg::build(&predecode(&p), 0, 0);
        assert!(cfg.is_empty());
        assert_eq!(cfg.entry_block, None);
        assert!(!cfg.block_dominates(0, 0));
    }
}
