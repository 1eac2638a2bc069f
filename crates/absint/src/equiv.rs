//! Static replay-equivalence: proves that a slice's recomputation equals
//! the value its `RCMP` loads, on *every* input — not just the profiled
//! one — so the pipeline can skip dynamic validation rounds.
//!
//! The proof obligation mirrors the replay oracle exactly. A slice fires at
//! its `RCMP`, recomputes a value from `SFile`/`LiveReg`/`Hist` operands,
//! and must reproduce the architecturally loaded word. We build symbolic
//! expressions for both sides over the shared [`ExprArena`]:
//!
//! 1. the *slice expression* from the operand plans at the `RCMP` state
//!    (`LiveReg` → register expression at the `RCMP`, `Hist` → the unique
//!    constant or single-valued expression all `REC` sites record, with an
//!    order proof that some site executes first);
//! 2. the *stored expression* of every store whose address interval
//!    intersects the load's.
//!
//! Unification then solves `store_addr(store time) = load_addr(rcmp time)`
//! for the store-side tokens. Every descent rule is an *exact inverse*
//! (constant cancellation through injective operators, modular inverses for
//! odd multipliers), so a successful unification means the binding is
//! forced: if the store wrote the loaded address, its tokens took exactly
//! the bound values — and the stored value, under that binding, must equal
//! the slice expression id-for-id. With every aliasing store agreeing, the
//! last writer (whichever it was) wrote the slice's value; a coverage
//! argument (ground store, stride-1 affine loop, or constant initial image)
//! shows the address was written — or holds the same constant — before the
//! `RCMP` fires.

use std::collections::{BTreeSet, HashMap};

use amnesiac_cfg::Cfg;
use amnesiac_isa::{AluOp, BranchCond, DecodedInst, DecodedOp, OperandSource, Program, SliceMeta};

use crate::domain::Interval;
use crate::footprint::{initial_value_interval, Footprint};
use crate::symbolic::{ExprArena, ExprId, Node, SymbolicAnalysis};
use crate::zerotrip::ZeroTrip;

/// Which coverage argument closed a proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofKind {
    /// A singleton-address store to the loaded address executes first.
    GroundStore,
    /// A stride-1 affine loop writes the whole loaded interval first.
    AffineLoop,
    /// No store can intervene (or all agree) and the initial image over
    /// the loaded range is one constant equal to the recomputation.
    InitialValue,
}

/// Outcome of the static equivalence check for one slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceVerdict {
    /// The slice provably reproduces the loaded value at every firing, on
    /// every input.
    Proven(ProofKind),
    /// No proof found; the reason string feeds the lint report. Dynamic
    /// replay remains the oracle for these.
    Unknown(String),
}

impl SliceVerdict {
    /// `true` for [`SliceVerdict::Proven`].
    pub fn is_proven(&self) -> bool {
        matches!(self, SliceVerdict::Proven(_))
    }

    /// The no-proof reason, if any.
    pub fn reason(&self) -> Option<&str> {
        match self {
            SliceVerdict::Proven(_) => None,
            SliceVerdict::Unknown(r) => Some(r),
        }
    }
}

/// One reachable `REC` site with the symbolic expressions of its gathered
/// sources at the site.
#[derive(Debug, Clone)]
struct RecSite {
    pc: usize,
    srcs: [ExprId; 3],
}

/// Blocks that may execute more than once: the union of every natural-loop
/// body. `None` when the CFG is irreducible (a retreating edge in RPO that
/// is not a back edge) — natural loops then under-approximate the cyclic
/// region, so every block must conservatively count as re-executable.
fn multi_exec_blocks(cfg: &Cfg) -> Option<BTreeSet<usize>> {
    let mut order = vec![usize::MAX; cfg.len()];
    for (i, &b) in cfg.rpo().iter().enumerate() {
        order[b] = i;
    }
    for b in 0..cfg.len() {
        if order[b] == usize::MAX {
            continue;
        }
        for &s in &cfg.blocks[b].succs {
            if order[s] != usize::MAX && order[s] <= order[b] && !cfg.is_back_edge(b, s) {
                return None;
            }
        }
    }
    let mut multi = BTreeSet::new();
    for h in cfg.loop_heads() {
        multi.extend(crate::zerotrip::natural_loop(cfg, h));
    }
    Some(multi)
}

/// Multiplicative inverse of an odd `c` modulo 2^64 (Newton iteration).
fn mul_inverse(c: u64) -> u64 {
    debug_assert!(c & 1 == 1);
    let mut inv = c;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)));
    }
    inv
}

/// `true` if `op` with one operand fixed to a constant is injective in the
/// other (so equal-constant cancellation is an exact inverse).
fn cancels(op: AluOp, c: u64) -> bool {
    match op {
        AluOp::Add | AluOp::Sub | AluOp::Xor => true,
        AluOp::Mul => c & 1 == 1,
        _ => false,
    }
}

/// Unification of a store-side expression (tokens = variables) against a
/// load-side expression (rigid). Every rule is invertible, so a success
/// means the binding is *forced* by address equality.
struct Unify<'a> {
    arena: &'a mut ExprArena,
    sigma: HashMap<ExprId, ExprId>,
}

impl Unify<'_> {
    fn bind(&mut self, tok: ExprId, l: ExprId) -> bool {
        match self.sigma.get(&tok) {
            Some(&b) => b == l,
            None => {
                self.sigma.insert(tok, l);
                true
            }
        }
    }

    fn go(&mut self, s: ExprId, l: ExprId) -> bool {
        match self.arena.node(s) {
            Node::Const(a) => matches!(self.arena.node(l), Node::Const(b) if a == b),
            Node::Join { .. } | Node::Load { .. } => self.bind(s, l),
            Node::Pure { kind, args } => match self.arena.node(l) {
                Node::Pure {
                    kind: lk,
                    args: largs,
                } if lk == kind => (0..3).all(|j| self.go(args[j], largs[j])),
                _ => false,
            },
            Node::Alu { op, lhs, rhs } => {
                // equal-constant cancellation through an injective operator
                if let Node::Alu {
                    op: lop,
                    lhs: llhs,
                    rhs: lrhs,
                } = self.arena.node(l)
                {
                    if lop == op {
                        if let (Node::Const(a), Node::Const(b)) =
                            (self.arena.node(lhs), self.arena.node(llhs))
                        {
                            if a == b && cancels(op, a) {
                                let save = self.sigma.clone();
                                if self.go(rhs, lrhs) {
                                    return true;
                                }
                                self.sigma = save;
                            }
                        }
                        if let (Node::Const(a), Node::Const(b)) =
                            (self.arena.node(rhs), self.arena.node(lrhs))
                        {
                            if a == b && cancels(op, a) {
                                let save = self.sigma.clone();
                                if self.go(lhs, llhs) {
                                    return true;
                                }
                                self.sigma = save;
                            }
                        }
                    }
                }
                // inverse peeling of a constant operand
                match (op, self.arena.node(lhs), self.arena.node(rhs)) {
                    (AluOp::Add, Node::Const(c), _) | (AluOp::Add, _, Node::Const(c)) => {
                        let x = if matches!(self.arena.node(lhs), Node::Const(_)) {
                            rhs
                        } else {
                            lhs
                        };
                        let ce = self.arena.constant(c);
                        let t = self.arena.alu(AluOp::Sub, l, ce);
                        self.go(x, t)
                    }
                    (AluOp::Sub, _, Node::Const(c)) => {
                        let ce = self.arena.constant(c);
                        let t = self.arena.alu(AluOp::Add, l, ce);
                        self.go(lhs, t)
                    }
                    (AluOp::Sub, Node::Const(c), _) => {
                        let ce = self.arena.constant(c);
                        let t = self.arena.alu(AluOp::Sub, ce, l);
                        self.go(rhs, t)
                    }
                    (AluOp::Mul, Node::Const(c), _) | (AluOp::Mul, _, Node::Const(c))
                        if c & 1 == 1 =>
                    {
                        let x = if matches!(self.arena.node(lhs), Node::Const(_)) {
                            rhs
                        } else {
                            lhs
                        };
                        let inv = self.arena.constant(mul_inverse(c));
                        let t = self.arena.alu(AluOp::Mul, inv, l);
                        self.go(x, t)
                    }
                    (AluOp::Xor, Node::Const(c), _) | (AluOp::Xor, _, Node::Const(c)) => {
                        let x = if matches!(self.arena.node(lhs), Node::Const(_)) {
                            rhs
                        } else {
                            lhs
                        };
                        let ce = self.arena.constant(c);
                        let t = self.arena.alu(AluOp::Xor, l, ce);
                        self.go(x, t)
                    }
                    _ => false,
                }
            }
        }
    }
}

/// The static equivalence prover, borrowing the sibling analyses.
pub struct Equivalence<'a> {
    decoded: &'a [DecodedInst],
    cfg: &'a Cfg,
    sym: &'a mut SymbolicAnalysis,
    zt: &'a ZeroTrip,
    fp: &'a Footprint,
    rec: HashMap<u16, Vec<RecSite>>,
    /// Blocks that may run more than once (`None` = irreducible CFG, all
    /// blocks conservatively multi-execution).
    multi: Option<BTreeSet<usize>>,
}

impl<'a> Equivalence<'a> {
    /// Builds the prover, indexing every reachable `REC` site.
    pub fn new(
        decoded: &'a [DecodedInst],
        cfg: &'a Cfg,
        sym: &'a mut SymbolicAnalysis,
        zt: &'a ZeroTrip,
        fp: &'a Footprint,
        code_len: usize,
    ) -> Equivalence<'a> {
        let mut rec: HashMap<u16, Vec<RecSite>> = HashMap::new();
        for (pc, d) in decoded.iter().enumerate().take(code_len) {
            let DecodedOp::Rec { key } = d.op else {
                continue;
            };
            if !cfg.is_reachable_pc(pc) {
                continue;
            }
            let Some(state) = sym.state_at(decoded, cfg, pc) else {
                continue;
            };
            let zero = sym.arena.constant(0);
            let mut srcs = [zero; 3];
            for (j, s) in d.srcs.iter().enumerate() {
                if let Some(r) = s {
                    srcs[j] = state[r.index()];
                }
            }
            rec.entry(key).or_default().push(RecSite { pc, srcs });
        }
        let multi = multi_exec_blocks(cfg);
        Equivalence {
            decoded,
            cfg,
            sym,
            zt,
            fp,
            rec,
            multi,
        }
    }

    /// `true` when the token (a `Join` or `Load` node) is defined in a
    /// block that executes at most once, so it denotes one fixed runtime
    /// value for the whole run. Any expression a state carries at a program
    /// point descends, merge by merge, from the token's defining site — so
    /// every point whose state mentions the token has provably executed it,
    /// and id-equal occurrences at different points denote the same value.
    fn single_valued_token(&self, t: ExprId) -> bool {
        let Some(multi) = &self.multi else {
            return false;
        };
        let block = match self.sym.arena.node(t) {
            Node::Join { block, .. } => Some(block as usize),
            Node::Load { pc } => self.cfg.block_of_pc(pc as usize),
            _ => None,
        };
        block.is_some_and(|b| !multi.contains(&b))
    }

    /// `true` when every token of `e` is single-valued (the expression
    /// denotes one fixed value for the run).
    fn single_valued(&self, e: ExprId) -> bool {
        self.sym
            .arena
            .tokens(e)
            .iter()
            .all(|&t| self.single_valued_token(t))
    }

    /// `true` if every path reaching `b_pc` executed `a_pc` first.
    fn executes_before(&self, a_pc: usize, b_pc: usize) -> bool {
        let (Some(ab), Some(bb)) = (self.cfg.block_of_pc(a_pc), self.cfg.block_of_pc(b_pc)) else {
            return false;
        };
        self.zt.must_pass(self.cfg, ab, bb) && (ab != bb || a_pc < b_pc)
    }

    /// Builds the slice's recomputation expression at the `RCMP` state.
    fn slice_expr(&mut self, meta: &SliceMeta) -> Result<ExprId, String> {
        let rcmp_state = self
            .sym
            .state_at(self.decoded, self.cfg, meta.rcmp_pc)
            .ok_or_else(|| "rcmp is unreachable".to_string())?;
        let n = meta.compute_len();
        let mut values: Vec<ExprId> = Vec::with_capacity(n);
        for k in 0..n {
            let d = self
                .decoded
                .get(meta.entry.wrapping_add(k))
                .ok_or_else(|| format!("body instruction {k} is outside the stream"))?;
            let plan = meta
                .plans
                .get(k)
                .ok_or_else(|| format!("no operand plan for body instruction {k}"))?;
            let mut vals = [self.sym.arena.constant(0); 3];
            for j in 0..3 {
                let Some(source) = plan.sources[j] else {
                    continue;
                };
                vals[j] = match source {
                    OperandSource::SFile { producer } => {
                        let p = producer as usize;
                        *values
                            .get(p)
                            .ok_or_else(|| format!("forward SFile reference {p}"))?
                    }
                    OperandSource::LiveReg => {
                        let r = d.srcs[j].ok_or_else(|| "planned operand missing".to_string())?;
                        rcmp_state[r.index()]
                    }
                    OperandSource::Hist { key } => self.hist_value(key, j, meta.rcmp_pc)?,
                };
            }
            values.push(compute_expr(&mut self.sym.arena, d, vals)?);
        }
        values
            .last()
            .copied()
            .ok_or_else(|| "empty slice body".to_string())
    }

    /// The value a `Hist` operand is guaranteed to hold: all reachable
    /// `REC` sites for `key` record the same expression in source slot `j`,
    /// that expression is a constant or single-valued (each of its tokens
    /// executes at most once, so every site records the same runtime word),
    /// and at least one site provably executes before the `RCMP`.
    fn hist_value(&mut self, key: u16, j: usize, rcmp_pc: usize) -> Result<ExprId, String> {
        let sites = self
            .rec
            .get(&key)
            .ok_or_else(|| format!("no reachable REC site for hist key {key}"))?
            .clone();
        let mut value: Option<ExprId> = None;
        for s in &sites {
            let e = s.srcs[j];
            if value.is_some_and(|v| v != e) {
                return Err(format!("REC sites for key {key} disagree"));
            }
            value = Some(e);
        }
        let value = value.ok_or_else(|| format!("no REC site for key {key}"))?;
        if !self.single_valued(value) {
            return Err(format!(
                "REC at pc {} records a multi-valued expression for key {key}",
                sites[0].pc
            ));
        }
        if !sites.iter().any(|s| self.executes_before(s.pc, rcmp_pc)) {
            return Err(format!("no REC for key {key} provably precedes the rcmp"));
        }
        Ok(value)
    }

    /// The recomputed value, when it folds to a constant (used for the
    /// constant-foldable and provably-divergent diagnostics).
    pub fn slice_const(&mut self, meta: &SliceMeta) -> Option<u64> {
        match self.slice_expr(meta) {
            Ok(e) => match self.sym.arena.node(e) {
                Node::Const(c) => Some(c),
                _ => None,
            },
            Err(_) => None,
        }
    }

    /// Attempts the full static replay-equivalence proof for one slice.
    pub fn prove(&mut self, program: &Program, meta: &SliceMeta) -> SliceVerdict {
        let slice_e = match self.slice_expr(meta) {
            Ok(e) => e,
            Err(r) => return SliceVerdict::Unknown(r),
        };
        let Some(acc) = self.fp.at(meta.rcmp_pc) else {
            return SliceVerdict::Unknown("rcmp has no footprint record".to_string());
        };
        let addr_iv = acc.addr;
        if addr_iv == Interval::Bot {
            return SliceVerdict::Unknown("rcmp address is unbounded-bottom".to_string());
        }

        // every possibly-aliasing store must unify: address equality must
        // force a binding under which the stored value IS the slice value
        let stores: Vec<(usize, Interval)> = self
            .fp
            .aliasing_stores(addr_iv)
            .iter()
            .map(|a| (a.pc, a.addr))
            .collect();
        if stores.is_empty() {
            return match self.initial_const(addr_iv, program, slice_e) {
                true => SliceVerdict::Proven(ProofKind::InitialValue),
                false => SliceVerdict::Unknown(
                    "no aliasing store and the initial image is not one matching constant"
                        .to_string(),
                ),
            };
        }
        let load_addr = match self.rcmp_addr_expr(meta.rcmp_pc) {
            Ok(e) => e,
            Err(r) => return SliceVerdict::Unknown(r),
        };
        let mut unified: Vec<(usize, ExprId)> = Vec::new();
        for &(s_pc, _) in &stores {
            let (s_addr, s_value) = match self.store_exprs(s_pc) {
                Ok(p) => p,
                Err(r) => return SliceVerdict::Unknown(r),
            };
            let (unifies, sigma) = {
                let mut u = Unify {
                    arena: &mut self.sym.arena,
                    sigma: HashMap::new(),
                };
                let ok = u.go(s_addr, load_addr);
                (ok, u.sigma)
            };
            if !unifies {
                // fallback: when the store value is the slice expression
                // verbatim and single-valued, the store writes the right
                // word *wherever* it lands — address agreement is moot
                if s_value == slice_e && self.single_valued(s_value) {
                    unified.push((s_pc, s_addr));
                    continue;
                }
                return SliceVerdict::Unknown(format!(
                    "store at pc {s_pc} does not unify with the rcmp address"
                ));
            }
            // every token of the stored value must be forced by address
            // equality — except single-valued tokens, which denote the same
            // word at store time and rcmp time unbound
            for t in self.sym.arena.tokens(s_value) {
                if !sigma.contains_key(&t) && !self.single_valued_token(t) {
                    return SliceVerdict::Unknown(format!(
                        "store at pc {s_pc} has a value token the address does not determine"
                    ));
                }
            }
            let bound = self.sym.arena.substitute(s_value, &sigma);
            if bound != slice_e {
                return SliceVerdict::Unknown(format!(
                    "store at pc {s_pc} writes a value other than the slice recomputation"
                ));
            }
            unified.push((s_pc, s_addr));
        }

        // coverage: the loaded address was written (or never written and
        // initially equal) before the rcmp fires
        let Some(rcmp_block) = self.cfg.block_of_pc(meta.rcmp_pc) else {
            return SliceVerdict::Unknown("rcmp is outside the main-code CFG".to_string());
        };
        for &(s_pc, s_addr) in &unified {
            if let (Node::Const(k), Some(lk)) = (self.sym.arena.node(s_addr), addr_iv.as_const()) {
                if k == lk && self.executes_before(s_pc, meta.rcmp_pc) {
                    return SliceVerdict::Proven(ProofKind::GroundStore);
                }
            }
            if self.affine_covering_store(s_pc, s_addr, addr_iv, rcmp_block, meta.rcmp_pc) {
                return SliceVerdict::Proven(ProofKind::AffineLoop);
            }
        }
        if self.initial_const(addr_iv, program, slice_e) {
            // all stores agree with the slice, and so does the untouched
            // initial image — the load matches whether or not a store ran
            return SliceVerdict::Proven(ProofKind::InitialValue);
        }
        SliceVerdict::Unknown("no coverage proof (ground, affine, or initial)".to_string())
    }

    /// `true` if the initial image over the loaded range is a single
    /// constant equal to the slice expression.
    fn initial_const(&mut self, addr_iv: Interval, program: &Program, slice_e: ExprId) -> bool {
        match (
            initial_value_interval(addr_iv, program).as_const(),
            self.sym.arena.node(slice_e),
        ) {
            (Some(c), Node::Const(s)) => c == s,
            _ => false,
        }
    }

    fn rcmp_addr_expr(&mut self, rcmp_pc: usize) -> Result<ExprId, String> {
        let d = self
            .decoded
            .get(rcmp_pc)
            .ok_or_else(|| "slice rcmp_pc is outside the stream".to_string())?;
        let DecodedOp::Rcmp { offset, .. } = d.op else {
            return Err("slice rcmp_pc is not an RCMP".to_string());
        };
        let state = self
            .sym
            .state_at(self.decoded, self.cfg, rcmp_pc)
            .ok_or_else(|| "rcmp is unreachable".to_string())?;
        let base = match self.decoded[rcmp_pc].srcs[0] {
            Some(r) => state[r.index()],
            None => self.sym.arena.constant(0),
        };
        let off = self.sym.arena.constant(offset as u64);
        Ok(self.sym.arena.alu(AluOp::Add, base, off))
    }

    fn store_exprs(&mut self, s_pc: usize) -> Result<(ExprId, ExprId), String> {
        let DecodedOp::Store { offset } = self
            .decoded
            .get(s_pc)
            .ok_or_else(|| format!("store pc {s_pc} is outside the stream"))?
            .op
        else {
            return Err(format!("pc {s_pc} is not a store"));
        };
        let state = self
            .sym
            .state_at(self.decoded, self.cfg, s_pc)
            .ok_or_else(|| format!("store at pc {s_pc} has no symbolic state"))?;
        let d = &self.decoded[s_pc];
        let value = match d.srcs[0] {
            Some(r) => state[r.index()],
            None => self.sym.arena.constant(0),
        };
        let base = match d.srcs[1] {
            Some(r) => state[r.index()],
            None => self.sym.arena.constant(0),
        };
        let off = self.sym.arena.constant(offset as u64);
        let addr = self.sym.arena.alu(AluOp::Add, base, off);
        Ok((addr, value))
    }

    /// The affine coverage argument: the store sits in a stride-1 counted
    /// loop `tau = c0, c0+1, .., n-1` whose single exit is the head guard,
    /// executes on every iteration, and its address function sweeps an
    /// interval containing the whole loaded range; the rcmp is outside the
    /// loop and must-passes the store.
    fn affine_covering_store(
        &mut self,
        s_pc: usize,
        s_addr: ExprId,
        load_iv: Interval,
        rcmp_block: usize,
        rcmp_pc: usize,
    ) -> bool {
        // address shape: tau, or Add(Const, tau) / Add(tau, Const)
        let tok = match self.sym.arena.node(s_addr) {
            Node::Join { .. } => s_addr,
            Node::Alu {
                op: AluOp::Add,
                lhs,
                rhs,
            } => match (self.sym.arena.node(lhs), self.sym.arena.node(rhs)) {
                (Node::Const(_), Node::Join { .. }) => rhs,
                (Node::Join { .. }, Node::Const(_)) => lhs,
                _ => return false,
            },
            _ => return false,
        };
        let Node::Join { block: h, reg } = self.sym.arena.node(tok) else {
            return false;
        };
        let h = h as usize;
        if !self.cfg.loop_heads().contains(&h) {
            return false;
        }
        let body = crate::zerotrip::natural_loop(self.cfg, h);
        // loop shape sanity: body->head edges are exactly the back edges,
        // every non-head body block stays inside the loop and cannot end
        // execution (so leaving the loop means passing the head guard)
        for &p in &self.cfg.blocks[h].preds {
            if self.cfg.is_back_edge(p, h) != body.contains(&p) {
                return false;
            }
        }
        for &b in &body {
            if b == h {
                continue;
            }
            let succs = &self.cfg.blocks[b].succs;
            if succs.is_empty() || succs.iter().any(|s| !body.contains(s)) {
                return false;
            }
        }
        // join inputs: entry edges carry one constant c0, back edges tau+1
        let Some(inputs) = self.sym.join_inputs(h, reg).map(|v| v.to_vec()) else {
            return false;
        };
        let one = self.sym.arena.constant(1);
        let mut c0: Option<u64> = None;
        for (p, e) in inputs {
            if self.cfg.is_back_edge(p, h) {
                let ok = match self.sym.arena.node(e) {
                    Node::Alu {
                        op: AluOp::Add,
                        lhs,
                        rhs,
                    } => (lhs == tok && rhs == one) || (rhs == tok && lhs == one),
                    _ => false,
                };
                if !ok {
                    return false;
                }
            } else {
                match self.sym.arena.node(e) {
                    Node::Const(c) if c0.is_none_or(|x| x == c) => c0 = Some(c),
                    _ => return false,
                }
            }
        }
        let Some(c0) = c0 else { return false };
        // the head guard compares tau against a constant bound, continuing
        // exactly while tau < n (given stride 1 starting below n)
        let head_last = self.cfg.blocks[h].end - 1;
        let DecodedOp::Branch { cond, target } = self.decoded[head_last].op else {
            return false;
        };
        let Some(gs) = self.sym.state_at(self.decoded, self.cfg, head_last) else {
            return false;
        };
        let d = &self.decoded[head_last];
        let (Some(lr), Some(rr)) = (d.srcs[0], d.srcs[1]) else {
            return false;
        };
        if gs[lr.index()] != tok {
            return false;
        }
        let Node::Const(n) = self.sym.arena.node(gs[rr.index()]) else {
            return false;
        };
        let (Some(taken_b), Some(fall_b)) = (
            self.cfg.block_of_pc(target),
            self.cfg.block_of_pc(head_last + 1),
        ) else {
            return false;
        };
        if taken_b == fall_b {
            return false;
        }
        let guard_ok = match cond {
            // exit on taken: continue while !cond(tau, n)
            BranchCond::Geu | BranchCond::Eq => !body.contains(&taken_b) && body.contains(&fall_b),
            // exit on fallthrough: continue while cond(tau, n)
            BranchCond::Ltu | BranchCond::Ne => body.contains(&taken_b) && !body.contains(&fall_b),
            _ => false,
        };
        if !guard_ok || c0 >= n {
            return false;
        }
        // the store runs on every iteration, and the rcmp only after exit
        let Some(store_block) = self.cfg.block_of_pc(s_pc) else {
            return false;
        };
        if !body.contains(&store_block) || body.contains(&rcmp_block) {
            return false;
        }
        for b in 0..self.cfg.len() {
            if self.cfg.is_back_edge(b, h) && !self.cfg.block_dominates(store_block, b) {
                return false;
            }
        }
        if !self.executes_before(s_pc, rcmp_pc) {
            return false;
        }
        // swept interval [G(c0), G(n-1)] covers the loaded range
        let lo_c = self.sym.arena.constant(c0);
        let hi_c = self.sym.arena.constant(n - 1);
        let mut bind = HashMap::new();
        bind.insert(tok, lo_c);
        let g_lo = self.sym.arena.substitute(s_addr, &bind);
        bind.insert(tok, hi_c);
        let g_hi = self.sym.arena.substitute(s_addr, &bind);
        let (Node::Const(lo), Node::Const(hi)) =
            (self.sym.arena.node(g_lo), self.sym.arena.node(g_hi))
        else {
            return false;
        };
        if lo > hi {
            return false; // address sweep wraps: no contiguous guarantee
        }
        Interval::Range(lo, hi).covers(load_iv)
    }
}

/// Symbolic mirror of `DecodedInst::eval_compute` for slice-body
/// instructions; rejects anything outside the compute category.
fn compute_expr(
    arena: &mut ExprArena,
    d: &DecodedInst,
    vals: [ExprId; 3],
) -> Result<ExprId, String> {
    use crate::symbolic::PureKind;
    match d.op {
        DecodedOp::Li { imm } => Ok(arena.constant(imm)),
        DecodedOp::Alu { op } => Ok(arena.alu(op, vals[0], vals[1])),
        DecodedOp::Alui { op, imm } => {
            let i = arena.constant(imm);
            Ok(arena.alu(op, vals[0], i))
        }
        DecodedOp::Fpu { op } => {
            let z = arena.constant(0);
            Ok(arena.pure(PureKind::Fpu(op), [vals[0], vals[1], z]))
        }
        DecodedOp::FpuUn { op } => {
            let z = arena.constant(0);
            Ok(arena.pure(PureKind::FpuUn(op), [vals[0], z, z]))
        }
        DecodedOp::Fma => Ok(arena.pure(PureKind::Fma, vals)),
        DecodedOp::Cvt { kind } => {
            let z = arena.constant(0);
            Ok(arena.pure(PureKind::Cvt(kind), [vals[0], z, z]))
        }
        _ => Err("slice body contains a non-compute instruction".to_string()),
    }
}
