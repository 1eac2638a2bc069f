//! Canonical per-load-site producer trees.
//!
//! The first dynamic instance of a load extracts its tree from the
//! provenance DAG. Every later instance is merged into that canonical tree
//! straight from the DAG: identical subtrees are kept, differing subtrees
//! are pruned to checkpointable operands, and per-operand liveness flags
//! accumulate (`always_live` holds only if the operand's register still
//! held the operand value at *every* dynamic instance of the load).

use amnesiac_isa::{Instruction, Program, Reg};

use crate::provenance::{Arena, Node, NodeId};

/// Maximum height of extracted trees. The compiler's own height cap is
/// lower; this bounds extraction work.
pub const EXTRACT_DEPTH_CAP: u32 = 48;

/// One source operand of a [`ProvNode`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProvOperand {
    /// Architectural register the parent instruction reads.
    pub reg: Reg,
    /// `true` while the register has held the operand value at the load,
    /// for every observed instance — the paper's live-register leaf inputs
    /// (§2.2), which need no `Hist` buffering.
    pub always_live: bool,
    /// Producer subtree, when the operand is recomputable and its shape is
    /// stable across instances.
    pub child: Option<Box<ProvNode>>,
    /// `true` when `child` is `None` only because the provenance tracker's
    /// depth cap dropped the subtree for this operand (an artifact), rather
    /// than the producer being genuinely absent or divergent. Unknown
    /// operands do not veto a known canonical subtree during merging — the
    /// compiler's validation replay remains the correctness backstop.
    pub unknown: bool,
    /// `true` while, at every observed load instance, the parent
    /// instruction's *most recent* dynamic execution used exactly this
    /// operand value — i.e. a `REC` checkpoint (which always holds the
    /// latest execution's operands, §3.1.2) would deliver the right value.
    /// Operands that are neither live nor checkpoint-fresh cannot be `Hist`
    /// leaves; the compiler must expand their producer into the slice.
    pub checkpoint_fresh: bool,
}

/// A node of a canonical producer tree (the raw material of an RSlice).
#[derive(Debug, Clone, PartialEq)]
pub struct ProvNode {
    /// Static pc of the producer in the main code.
    pub pc: usize,
    /// The producer instruction (always a compute instruction; loads are
    /// seen through during extraction).
    pub inst: Instruction,
    /// Source operands, aligned with [`Instruction::srcs`].
    pub operands: [Option<ProvOperand>; 3],
}

/// One dynamic load instance as the provenance DAG sees it: the DAG plus
/// the machine state at the load.
pub(crate) struct Instance<'a> {
    /// The profiled program: a node's instruction is
    /// `program.instructions[node.pc()]`.
    pub(crate) program: &'a Program,
    /// The provenance DAG.
    pub(crate) arena: &'a Arena,
    /// The architectural register file at the load (the anticipated
    /// recomputation point), for liveness flags.
    pub(crate) regs: &'a [u64],
    /// The dense per-pc table of each compute instruction's most recent
    /// operand values (`None` where the pc never executed), for freshness
    /// flags.
    pub(crate) last_exec: &'a [Option<[u64; 3]>],
}

/// What one instance records for one operand of a producer.
struct Seen {
    always_live: bool,
    checkpoint_fresh: bool,
    /// The depth cap hid the operand's producer.
    unknown: bool,
    /// The operand's compute producer, when tracked and within the cap.
    child: Option<NodeId>,
}

impl Instance<'_> {
    /// Operand `j` (read from `reg`) of compute node `node`, which sits
    /// `depth` levels below the root of the instance tree.
    fn operand(&self, node: &Node, j: usize, reg: Reg, depth: u32) -> Seen {
        let unknown = node.truncated() || depth + 1 >= EXTRACT_DEPTH_CAP;
        Seen {
            always_live: self.regs[reg.index()] == node.src_values[j],
            checkpoint_fresh: self
                .last_exec
                .get(node.pc())
                .copied()
                .flatten()
                .is_some_and(|vals| vals[j] == node.src_values[j]),
            unknown,
            child: if unknown {
                None
            } else {
                self.arena.resolve_compute(node.srcs[j])
            },
        }
    }
}

impl ProvNode {
    /// Extracts the instance tree below compute node `id`, which sits
    /// `depth` levels below the root.
    pub(crate) fn extract(instance: &Instance<'_>, id: NodeId, depth: u32) -> ProvNode {
        let node = instance.arena.node(id);
        debug_assert!(!node.is_load(), "loads are seen through");
        let inst = &instance.program.instructions[node.pc()];
        let mut operands: [Option<ProvOperand>; 3] = [None, None, None];
        for (j, reg) in inst.srcs().into_iter().enumerate() {
            let Some(reg) = reg else { continue };
            let seen = instance.operand(node, j, reg, depth);
            operands[j] = Some(ProvOperand {
                reg,
                always_live: seen.always_live,
                child: seen
                    .child
                    .map(|c| Box::new(Self::extract(instance, c, depth + 1))),
                unknown: seen.unknown,
                checkpoint_fresh: seen.checkpoint_fresh,
            });
        }
        ProvNode {
            pc: node.pc(),
            inst: inst.clone(),
            operands,
        }
    }

    /// Merges the instance rooted at compute node `id`, `depth` levels
    /// below the root, into this canonical tree, in place: only nodes the
    /// canonical tree still has are visited, and an instance subtree is
    /// extracted only to adopt it for an `unknown` operand.
    ///
    /// Returns `false`, changing nothing, when the producers differ: at
    /// the root, the site cannot be recomputed with a single embedded
    /// slice and must be marked unstable; below it, the caller prunes the
    /// operand's subtree.
    pub(crate) fn merge_instance(
        &mut self,
        instance: &Instance<'_>,
        id: NodeId,
        depth: u32,
    ) -> bool {
        let node = instance.arena.node(id);
        if self.pc != node.pc() {
            return false;
        }
        for (j, mine) in self.operands.iter_mut().enumerate() {
            let Some(mine) = mine else { continue };
            let theirs = instance.operand(node, j, mine.reg, depth);
            mine.always_live &= theirs.always_live;
            mine.checkpoint_fresh &= theirs.checkpoint_fresh;
            let keep_child = match (&mut mine.child, theirs.child) {
                (Some(a), Some(b)) => a.merge_instance(instance, b, depth + 1),
                // the instance didn't record the subtree: keep the
                // canonical one (validated later)
                (Some(_), None) => theirs.unknown,
                // the canonical side was a truncation artifact: adopt the
                // instance's subtree (liveness/freshness flags
                // re-accumulate from here; the validation replay remains
                // the correctness backstop)
                (None, Some(b)) if mine.unknown => {
                    mine.child = Some(Box::new(Self::extract(instance, b, depth + 1)));
                    true
                }
                (None, _) => true, // semantically absent: stays pruned
            };
            if !keep_child {
                mine.child = None;
            }
            // a semantic absence in either instance is sticky
            if !theirs.unknown && theirs.child.is_none() {
                mine.unknown = false;
            }
        }
        true
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self
            .operands
            .iter()
            .flatten()
            .filter_map(|o| o.child.as_ref())
            .map(|c| c.size())
            .sum::<usize>()
    }

    /// Height of the tree (a lone root has height 0), the paper's `h`.
    pub fn height(&self) -> u32 {
        self.operands
            .iter()
            .flatten()
            .filter_map(|o| o.child.as_ref())
            .map(|c| 1 + c.height())
            .max()
            .unwrap_or(0)
    }

    /// Visits nodes in post-order (children before parents) — the order in
    /// which a slice body must execute (data flows leaves → root, Fig. 1).
    pub fn post_order<'a>(&'a self, visit: &mut impl FnMut(&'a ProvNode)) {
        for operand in self.operands.iter().flatten() {
            if let Some(child) = &operand.child {
                child.post_order(visit);
            }
        }
        visit(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{AluOp, NUM_REGS};

    use crate::provenance::{NIL, TRACK_DEPTH_CAP};

    fn leaf(pc: usize, reg: u8, live: bool) -> ProvNode {
        ProvNode {
            pc,
            inst: Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(9),
                src: Reg(reg),
                imm: 1,
            },
            operands: [
                Some(ProvOperand {
                    reg: Reg(reg),
                    always_live: live,
                    child: None,
                    unknown: false,
                    checkpoint_fresh: true,
                }),
                None,
                None,
            ],
        }
    }

    fn parent(pc: usize, a: ProvNode, b: ProvNode) -> ProvNode {
        ProvNode {
            pc,
            inst: Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(9),
                lhs: Reg(1),
                rhs: Reg(2),
            },
            operands: [
                Some(ProvOperand {
                    reg: Reg(1),
                    always_live: true,
                    child: Some(Box::new(a)),
                    unknown: false,
                    checkpoint_fresh: true,
                }),
                Some(ProvOperand {
                    reg: Reg(2),
                    always_live: true,
                    child: Some(Box::new(b)),
                    unknown: false,
                    checkpoint_fresh: true,
                }),
                None,
            ],
        }
    }

    #[test]
    fn size_and_height() {
        let t = parent(10, leaf(1, 3, true), leaf(2, 4, true));
        assert_eq!(t.size(), 3);
        assert_eq!(t.height(), 1);
        assert_eq!(leaf(1, 3, true).height(), 0);
    }

    #[test]
    fn post_order_visits_leaves_first() {
        let t = parent(10, leaf(1, 3, true), leaf(2, 4, true));
        let mut pcs = Vec::new();
        t.post_order(&mut |n| pcs.push(n.pc));
        assert_eq!(pcs, vec![1, 2, 10]);
    }

    /// Provenance DAGs over a program whose pcs 1, 2 and 7 hold
    /// `r9 ← rX + 1` leaves and pcs 10 and 11 hold `r9 ← r1 + r2`;
    /// every register reads 0 at the load.
    struct Dag {
        program: Program,
        arena: Arena,
        regs: [u64; NUM_REGS],
        last_exec: Vec<Option<[u64; 3]>>,
    }

    impl Dag {
        fn new() -> Self {
            let alui = |src| Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(9),
                src: Reg(src),
                imm: 1,
            };
            let add = Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(9),
                lhs: Reg(1),
                rhs: Reg(2),
            };
            let mut program = Program::new("dag");
            program.instructions = vec![Instruction::Halt; 12];
            for (pc, inst) in [(1, alui(3)), (2, alui(4)), (7, alui(3))] {
                program.instructions[pc] = inst;
            }
            program.instructions[10] = add.clone();
            program.instructions[11] = add;
            program.code_len = 12;
            Dag::over(program)
        }

        fn over(program: Program) -> Self {
            let last_exec = vec![None; program.code_len];
            Dag {
                program,
                arena: Arena::default(),
                regs: [0; NUM_REGS],
                last_exec,
            }
        }

        /// A leaf producer whose operand register still holds its value
        /// at the load when `live`.
        fn leaf(&mut self, pc: usize, live: bool) -> NodeId {
            self.arena.compute(pc, [NIL; 3], [u64::from(!live), 0, 0])
        }

        fn parent(&mut self, pc: usize, a: NodeId, b: NodeId) -> NodeId {
            self.arena.compute(pc, [a, b, NIL], [0; 3])
        }

        fn instance(&self) -> Instance<'_> {
            Instance {
                program: &self.program,
                arena: &self.arena,
                regs: &self.regs,
                last_exec: &self.last_exec,
            }
        }

        fn extract(&self, root: NodeId) -> ProvNode {
            ProvNode::extract(&self.instance(), root, 0)
        }

        fn merge_into(&self, canon: &mut ProvNode, root: NodeId) -> bool {
            canon.merge_instance(&self.instance(), root, 0)
        }

        /// `parent(pc, leaf(l, left_live), leaf(r))`.
        fn tree(&mut self, pc: usize, l: usize, left_live: bool, r: usize) -> NodeId {
            let a = self.leaf(l, left_live);
            let b = self.leaf(r, true);
            self.parent(pc, a, b)
        }
    }

    fn operand(tree: &ProvNode, j: usize) -> &ProvOperand {
        tree.operands[j].as_ref().expect("operand present")
    }

    #[test]
    fn extract_follows_the_dag() {
        let mut dag = Dag::new();
        let root = dag.tree(10, 1, false, 2);
        let tree = dag.extract(root);
        assert_eq!(tree.pc, 10);
        assert_eq!(tree.inst, dag.program.instructions[10]);
        assert_eq!(tree.size(), 3);
        let left = operand(&tree, 0).child.as_ref().expect("left producer");
        assert_eq!(left.pc, 1);
        assert!(!operand(left, 0).always_live);
        assert!(!operand(left, 0).checkpoint_fresh, "pc 1 never executed");
    }

    #[test]
    fn merge_identical_keeps_shape() {
        let mut dag = Dag::new();
        let first = dag.tree(10, 1, true, 2);
        let mut canon = dag.extract(first);
        let again = dag.tree(10, 1, true, 2);
        assert!(dag.merge_into(&mut canon, again));
        assert_eq!(canon, dag.extract(first));
    }

    #[test]
    fn merge_root_mismatch_fails() {
        let mut dag = Dag::new();
        let first = dag.tree(10, 1, true, 2);
        let mut canon = dag.extract(first);
        let other = dag.tree(11, 1, true, 2);
        assert!(!dag.merge_into(&mut canon, other));
        assert_eq!(canon, dag.extract(first), "a failed merge changes nothing");
    }

    #[test]
    fn merge_prunes_differing_subtrees() {
        let mut dag = Dag::new();
        let first = dag.tree(10, 1, true, 2);
        let mut canon = dag.extract(first);
        let other = dag.tree(10, 7, true, 2); // left child differs
        assert!(dag.merge_into(&mut canon, other));
        assert!(operand(&canon, 0).child.is_none(), "left pruned");
        assert!(operand(&canon, 1).child.is_some(), "right kept");
        assert_eq!(canon.size(), 2);
    }

    #[test]
    fn merge_accumulates_liveness_conjunctively() {
        let mut dag = Dag::new();
        let first = dag.tree(10, 1, true, 2);
        let mut canon = dag.extract(first);
        let other = dag.tree(10, 1, false, 2);
        assert!(dag.merge_into(&mut canon, other));
        let left_leaf = operand(&canon, 0).child.as_ref().unwrap();
        assert!(!operand(left_leaf, 0).always_live);
        let right_leaf = operand(&canon, 1).child.as_ref().unwrap();
        assert!(operand(right_leaf, 0).always_live);
    }

    #[test]
    fn merge_with_missing_child_prunes() {
        let mut dag = Dag::new();
        let first = dag.tree(10, 1, true, 2);
        let mut canon = dag.extract(first);
        let a = dag.leaf(1, true);
        let untracked = dag.parent(10, a, NIL);
        assert!(dag.merge_into(&mut canon, untracked));
        assert!(operand(&canon, 1).child.is_none());
        assert!(!operand(&canon, 1).unknown);
    }

    /// A chain cut by the tracking depth cap leaves an `unknown` operand;
    /// a later instance whose chain is intact there supplies the subtree.
    #[test]
    fn merge_adopts_a_subtree_for_an_unknown_operand() {
        let mut program = Program::new("chain");
        program.instructions = vec![
            Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(1),
                src: Reg(1),
                imm: 1,
            };
            80
        ];
        program.code_len = 80;
        let mut dag = Dag::over(program);
        let cap = TRACK_DEPTH_CAP as usize;
        // pcs 0..=cap in a chain: the node at pc `cap` cuts its child
        let mut node = dag.arena.compute(0, [NIL; 3], [0; 3]);
        for pc in 1..=cap {
            node = dag.arena.compute(pc, [node, NIL, NIL], [0; 3]);
        }
        let mut canon = dag.extract(node);
        let cut = operand(&canon, 0).child.as_ref().expect("the cut copy");
        assert_eq!(cut.pc, cap - 1);
        assert!(operand(cut, 0).unknown && operand(cut, 0).child.is_none());

        // a short chain through the same pcs
        let start = dag.arena.compute(cap - 2, [NIL; 3], [0; 3]);
        let mid = dag.arena.compute(cap - 1, [start, NIL, NIL], [0; 3]);
        let root = dag.arena.compute(cap, [mid, NIL, NIL], [0; 3]);
        assert!(dag.merge_into(&mut canon, root));
        let mid = operand(&canon, 0).child.as_ref().unwrap();
        let adopted = operand(mid, 0).child.as_ref().expect("adopted");
        assert_eq!(adopted.pc, cap - 2);
        assert_eq!(canon.height(), 2);
    }
}
