//! The dynamic provenance DAG: which instruction produced each live value,
//! and from which operand values.
//!
//! Nodes live in one slab, the [`Arena`], and link to their operand
//! producers by index. A node records only what extraction reads: the
//! producer's pc (the instruction itself is `program.instructions[pc]`),
//! its operand values, up to three child links, its depth and two flag
//! bits. Each register, memory cell and parent link that holds a node
//! counts one reference; [`Arena::release`] returns a node whose count
//! drops to zero to the free list and releases its children, iteratively,
//! so the slab's size tracks the live DAG rather than the run length.
//!
//! Every retirement allocates a node and releases the register value it
//! overwrites, so the common paths are kept short: [`Arena::compute`] and
//! [`Arena::load`] read a child's pc, depth and links in place and bump
//! its count there, and [`Arena::release`] is an inlined decrement whose
//! rare zero case calls the out-of-line cascade.
//!
//! The DAG is depth-capped: when a new node would exceed
//! [`TRACK_DEPTH_CAP`], its deep operands are replaced by childless
//! copies, bounding both memory and later extraction work. The amnesic
//! compiler caps slice height far below this anyway (§3.4: tall slices
//! cannot be energy-efficient).

/// Maximum provenance depth retained while tracking.
pub const TRACK_DEPTH_CAP: u32 = 64;

/// Index of a node in the [`Arena`].
pub(crate) type NodeId = u32;

/// The absent link: a never-written register, an untracked operand, or a
/// child dropped by the depth cap.
pub(crate) const NIL: NodeId = NodeId::MAX;

/// Slots the arena can hold. Ids stay below 2^31 - 2, so a memory cell
/// packs a node id or [`NIL`] into 31 bits beside a full 32-bit store pc.
pub(crate) const MAX_NODES: u32 = (1 << 31) - 2;

/// The node is a load's pass-through to the value it read.
const LOAD: u8 = 1;
/// The node's children were dropped by the depth cap.
const TRUNCATED: u8 = 2;

/// One node of the provenance DAG.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Operand values at production time ([`Instruction::srcs`] order;
    /// zero for loads).
    ///
    /// [`Instruction::srcs`]: amnesiac_isa::Instruction::srcs
    pub(crate) src_values: [u64; 3],
    /// Provenance of each source operand, or [`NIL`]. A load keeps the
    /// provenance of the stored value it observed in `srcs[0]`: slices
    /// see *through* loads.
    pub(crate) srcs: [NodeId; 3],
    pc: u32,
    refs: u32,
    /// Longest path to a leaf below this node (loads add none).
    pub(crate) depth: u8,
    flags: u8,
}

impl Node {
    /// Static pc of the producing instruction.
    pub(crate) fn pc(&self) -> usize {
        self.pc as usize
    }

    /// `true` for a load's pass-through node, `false` for a compute.
    pub(crate) fn is_load(&self) -> bool {
        self.flags & LOAD != 0
    }

    /// `true` if this node's children were dropped by the depth cap — its
    /// operand producers are *unknown* (a tracking artifact), not absent.
    pub(crate) fn truncated(&self) -> bool {
        self.flags & TRUNCATED != 0
    }

    fn is_leaf(&self) -> bool {
        self.srcs == [NIL; 3]
    }
}

pub(crate) fn narrow_pc(pc: usize) -> u32 {
    u32::try_from(pc).expect("pcs fit in 32 bits")
}

/// The slab holding every live node, with its free list.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    /// Scratch work list of [`Arena::release`].
    pending: Vec<NodeId>,
}

impl Arena {
    /// The node at `id` (not [`NIL`]).
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    #[inline]
    fn alloc(&mut self, node: Node) -> NodeId {
        debug_assert_eq!(node.refs, 1, "a new node has its creator's reference");
        match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => self.push(node),
        }
    }

    /// Grows the slab by one slot holding `node`.
    #[inline(never)]
    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id < MAX_NODES)
            .expect("fewer than 2^31 - 2 live provenance nodes");
        self.nodes.push(node);
        id
    }

    /// Takes one more reference to `id` ([`NIL`] is a no-op).
    pub(crate) fn retain(&mut self, id: NodeId) {
        if id != NIL {
            self.nodes[id as usize].refs += 1;
        }
    }

    /// Drops one reference to `id` ([`NIL`] is a no-op). A node left
    /// unreferenced goes to the free list and drops its children's
    /// references in turn.
    #[inline]
    pub(crate) fn release(&mut self, id: NodeId) {
        if id == NIL {
            return;
        }
        let node = &mut self.nodes[id as usize];
        node.refs -= 1;
        if node.refs == 0 {
            self.free_cascade(id);
        }
    }

    /// Frees `id`, whose count just reached zero, and every node that its
    /// release leaves unreferenced. `pending` holds only nodes already at
    /// zero, so a child that keeps other holders costs one decrement.
    #[inline(never)]
    fn free_cascade(&mut self, mut id: NodeId) {
        loop {
            self.free.push(id);
            for child in self.nodes[id as usize].srcs {
                if child != NIL {
                    let node = &mut self.nodes[child as usize];
                    node.refs -= 1;
                    if node.refs == 0 {
                        self.pending.push(child);
                    }
                }
            }
            match self.pending.pop() {
                Some(next) => id = next,
                None => return,
            }
        }
    }

    /// A childless, truncated copy of `id` at depth 0, holding one
    /// reference: the immediate producer survives the cut, its operand
    /// producers become unknown.
    #[inline(never)]
    fn shallow_clone(&mut self, id: NodeId) -> NodeId {
        let node = *self.node(id);
        self.alloc(Node {
            srcs: [NIL; 3],
            refs: 1,
            depth: 0,
            flags: node.flags | TRUNCATED,
            ..node
        })
    }

    /// A compute node for `pc` whose operands (in [`Instruction::srcs`]
    /// order) were produced by `srcs`, holding one reference. `srcs` stay
    /// owned by the caller; the node takes its own references.
    ///
    /// Children that would push the node past the depth cap are replaced
    /// by shallow clones: the immediate producer structure survives —
    /// essential for stable tree shapes across loop iterations whose
    /// induction-variable chains grow without bound — while memory stays
    /// bounded.
    ///
    /// [`Instruction::srcs`]: amnesiac_isa::Instruction::srcs
    #[inline]
    pub(crate) fn compute(&mut self, pc: usize, srcs: [NodeId; 3], src_values: [u64; 3]) -> NodeId {
        let pc = narrow_pc(pc);
        let mut links = [NIL; 3];
        let mut depth = 0;
        for (link, child) in links.iter_mut().zip(srcs) {
            if child == NIL {
                continue;
            }
            let node = &mut self.nodes[child as usize];
            // self-recurrences (loop counters `i ← i+1`, accumulators) grow
            // without bound and are never recomputable as chains — the
            // merge prunes them anyway. Cut them at one level so they
            // cannot blow the depth cap and truncate unrelated structure
            // around them.
            let recurrence = node.pc == pc;
            let cut = if recurrence {
                !node.is_leaf()
            } else {
                u32::from(node.depth) + 1 >= TRACK_DEPTH_CAP
            };
            if cut {
                *link = self.shallow_clone(child);
                depth = depth.max(1);
            } else {
                node.refs += 1;
                *link = child;
                depth = depth.max(if recurrence { 1 } else { node.depth + 1 });
            }
        }
        self.alloc(Node {
            src_values,
            srcs: links,
            pc,
            refs: 1,
            depth,
            flags: 0,
        })
    }

    /// A load node for `pc` wrapping `source`, the provenance of the value
    /// it read ([`NIL`] when untracked), holding one reference. `source`
    /// stays owned by the caller.
    #[inline]
    pub(crate) fn load(&mut self, pc: usize, source: NodeId) -> NodeId {
        let (srcs, depth) = if source == NIL {
            ([NIL; 3], 0)
        } else {
            let node = &mut self.nodes[source as usize];
            if u32::from(node.depth) + 1 >= TRACK_DEPTH_CAP {
                ([self.shallow_clone(source), NIL, NIL], 0)
            } else {
                node.refs += 1;
                // see-through: loads add no slice depth
                ([source, NIL, NIL], node.depth)
            }
        };
        self.alloc(Node {
            src_values: [0; 3],
            srcs,
            pc: narrow_pc(pc),
            refs: 1,
            depth,
            flags: LOAD,
        })
    }

    /// Follows load pass-through links from `id` to the nearest compute
    /// producer, if any survives the depth cap.
    pub(crate) fn resolve_compute(&self, mut id: NodeId) -> Option<NodeId> {
        while id != NIL {
            let node = self.node(id);
            if !node.is_load() {
                return Some(id);
            }
            id = node.srcs[0];
        }
        None
    }

    /// Slots ever allocated: the slab's high-water mark.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.nodes.len()
    }

    /// Checks the reference accounting against the holders outside the
    /// arena (`roots`, one entry per held reference): every node reachable
    /// from them carries exactly its in-degree as its count, and every
    /// other slot is on the free list, once.
    #[cfg(test)]
    pub(crate) fn check_accounting(&self, roots: impl IntoIterator<Item = NodeId>) {
        let mut expected = vec![0u32; self.nodes.len()];
        let mut reached = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.into_iter().filter(|&r| r != NIL).collect();
        for &root in &stack {
            expected[root as usize] += 1;
        }
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reached[id as usize], true) {
                continue;
            }
            for child in self.node(id).srcs.into_iter().filter(|&c| c != NIL) {
                expected[child as usize] += 1;
                stack.push(child);
            }
        }
        let mut on_free_list = vec![false; self.nodes.len()];
        for &id in &self.free {
            assert!(
                !std::mem::replace(&mut on_free_list[id as usize], true),
                "slot {id} is on the free list twice"
            );
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if reached[id] {
                assert!(!on_free_list[id], "reachable slot {id} is on the free list");
                assert_eq!(node.refs, expected[id], "reference count of slot {id}");
            } else {
                assert!(on_free_list[id], "unreachable slot {id} is not free");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leaf compute node (an `li`).
    fn li(arena: &mut Arena, pc: usize) -> NodeId {
        arena.compute(pc, [NIL; 3], [0; 3])
    }

    /// A two-operand compute node; the caller keeps its references.
    fn add(arena: &mut Arena, pc: usize, a: NodeId, b: NodeId) -> NodeId {
        arena.compute(pc, [a, b, NIL], [0; 3])
    }

    #[test]
    fn nodes_stay_compact() {
        assert_eq!(std::mem::size_of::<Node>(), 48);
    }

    #[test]
    fn depth_grows_with_chains() {
        let mut arena = Arena::default();
        let a = li(&mut arena, 0);
        assert_eq!(arena.node(a).depth, 0);
        let b = add(&mut arena, 1, a, a);
        assert_eq!(arena.node(b).depth, 1);
        let c = add(&mut arena, 2, b, a);
        assert_eq!(arena.node(c).depth, 2);
        arena.check_accounting([a, b, c]);
    }

    #[test]
    fn chains_are_cut_at_the_cap() {
        let mut arena = Arena::default();
        let mut node = li(&mut arena, 0);
        for pc in 1..100 {
            let next = add(&mut arena, pc, node, node);
            arena.release(node);
            node = next;
        }
        assert!(u32::from(arena.node(node).depth) < TRACK_DEPTH_CAP);
        // the deep end was cut: walking down bottoms out at a truncated copy
        let mut depth_walked = 0;
        let mut cur = node;
        while arena.node(cur).srcs[0] != NIL {
            cur = arena.node(cur).srcs[0];
            depth_walked += 1;
            assert!(depth_walked <= TRACK_DEPTH_CAP, "walk must terminate");
        }
        assert!(arena.node(cur).truncated());
        // the cut-off chain was freed: only the live path is left
        arena.check_accounting([node]);
        assert!(arena.high_water() - arena.free.len() <= 2 * TRACK_DEPTH_CAP as usize);
    }

    #[test]
    fn self_recurrences_are_cut_at_one_level() {
        let mut arena = Arena::default();
        let first = li(&mut arena, 0);
        let mut i = arena.compute(1, [first, NIL, NIL], [0; 3]);
        arena.release(first);
        for _ in 0..10 {
            let next = arena.compute(1, [i, NIL, NIL], [0; 3]);
            arena.release(i);
            i = next;
        }
        let node = *arena.node(i);
        assert_eq!(node.depth, 1);
        let child = arena.node(node.srcs[0]);
        assert_eq!((child.pc(), child.truncated()), (1, true));
        assert!(child.is_leaf(), "the previous iteration, cut");
        arena.check_accounting([i]);
    }

    #[test]
    fn load_nodes_pass_through_to_compute() {
        let mut arena = Arena::default();
        let producer = li(&mut arena, 0);
        let ld1 = arena.load(1, producer);
        let ld2 = arena.load(2, ld1);
        assert_eq!(arena.resolve_compute(ld2), Some(producer));
        arena.release(ld1);
        arena.release(producer);
        assert_eq!(arena.resolve_compute(ld2), Some(producer), "ld2 holds it");
        arena.check_accounting([ld2]);
        arena.release(ld2);
        arena.check_accounting([]);
    }

    #[test]
    fn untracked_load_resolves_to_none() {
        let mut arena = Arena::default();
        let ld = arena.load(1, NIL);
        assert_eq!(arena.resolve_compute(ld), None);
        assert_eq!(arena.resolve_compute(NIL), None);
    }

    #[test]
    fn loads_do_not_add_slice_depth() {
        let mut arena = Arena::default();
        let a = li(&mut arena, 0);
        let producer = add(&mut arena, 1, a, a);
        let ld = arena.load(2, producer);
        assert_eq!(
            arena.node(ld).depth,
            arena.node(producer).depth,
            "pass-through is free"
        );
    }

    #[test]
    fn released_slots_are_reused() {
        let mut arena = Arena::default();
        let a = li(&mut arena, 0);
        let b = add(&mut arena, 1, a, a);
        arena.release(a);
        arena.release(b);
        arena.check_accounting([]);
        let c = li(&mut arena, 2);
        let d = add(&mut arena, 3, c, c);
        assert_eq!(arena.high_water(), 2, "both slots came off the free list");
        arena.check_accounting([c, d]);
    }
}
