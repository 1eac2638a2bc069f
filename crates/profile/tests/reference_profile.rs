//! Differential oracle for the profiler: [`profile_program`] must build the
//! same [`ProgramProfile`], field for field, as [`reference`], a profiler
//! that keeps its provenance DAG in `Rc<ValueNode>`s and, at every dynamic
//! load, extracts a whole instance tree from it and merges that into the
//! site's canonical tree.
//!
//! The reference shares only the output types ([`ProgramProfile`] and what
//! it holds) and the [`RetireEvent`] stream with the profiler under test.
//! It covers every workload at test scale, seeded random loop programs and
//! hand-built edge cases of the depth caps and the merge; two ignored tests
//! run the focal kernels and the serve benchmark's compile sweep at paper
//! scale (run them in release).

use amnesiac_isa::{AluOp, BranchCond, FpOp, Instruction, Program, ProgramBuilder, Reg};
use amnesiac_loadgen::PAPER_SWEEP;
use amnesiac_profile::{
    profile_program, LoadSiteProfile, ProgramProfile, ProvNode, ProvOperand, Unswappable,
};
use amnesiac_rng::Rng;
use amnesiac_sim::{ClassicCore, CoreConfig, RunError};
use amnesiac_workloads::{all_workloads, build_focal, Scale, FOCAL_NAMES, KERNELS};

/// The `Rc` provenance DAG.
mod provenance {
    use std::rc::Rc;

    use amnesiac_isa::Instruction;

    /// Maximum provenance depth retained while tracking.
    pub const TRACK_DEPTH_CAP: u32 = 64;

    /// How a tracked value came to be.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum NodeKind {
        /// Produced by a register-to-register compute instruction.
        Compute,
        /// Produced by a load; `srcs[0]` (if kept) is the provenance of the
        /// stored value the load observed — slices see *through* loads.
        Load {
            /// Word address the load read.
            #[allow(dead_code)]
            addr: u64,
        },
    }

    /// One node of the provenance DAG.
    #[derive(Debug)]
    pub struct ValueNode {
        /// Static pc of the producing instruction.
        pub pc: usize,
        /// Snapshot of the producing instruction.
        pub inst: Instruction,
        /// The produced value.
        #[allow(dead_code)]
        pub value: u64,
        /// Provenance of each source operand ([`Instruction::srcs`] order);
        /// `None` when untracked (never-written register) or depth-cut.
        pub srcs: [Option<Rc<ValueNode>>; 3],
        /// Operand values at production time.
        pub src_values: [u64; 3],
        /// What kind of producer this is.
        pub kind: NodeKind,
        /// Longest path to a leaf below this node.
        pub depth: u32,
        /// `true` if this node's children were dropped by the depth cap —
        /// its operand producers are *unknown* (a tracking artifact), not
        /// absent.
        pub truncated: bool,
    }

    impl ValueNode {
        /// Builds a compute node. Children that would push the node past
        /// the depth cap are replaced by *shallow clones* (the child node
        /// without its own children).
        pub fn compute(
            pc: usize,
            inst: Instruction,
            value: u64,
            mut srcs: [Option<Rc<ValueNode>>; 3],
            src_values: [u64; 3],
        ) -> Rc<Self> {
            let mut depth = 0;
            for slot in srcs.iter_mut() {
                if let Some(child) = slot {
                    // self-recurrences (loop counters `i ← i+1`,
                    // accumulators) grow without bound and are never
                    // recomputable as chains — the merge prunes them
                    // anyway. Cut them at one level so they cannot blow the
                    // depth cap and truncate unrelated structure around
                    // them.
                    if child.pc == pc && child.inst == inst {
                        if !child.srcs.iter().all(Option::is_none) {
                            *slot = Some(child.shallow_clone());
                        }
                        depth = depth.max(1);
                    } else if child.depth + 1 >= TRACK_DEPTH_CAP {
                        *slot = Some(child.shallow_clone());
                        depth = depth.max(1);
                    } else {
                        depth = depth.max(child.depth + 1);
                    }
                }
            }
            Rc::new(ValueNode {
                pc,
                inst,
                value,
                srcs,
                src_values,
                kind: NodeKind::Compute,
                depth,
                truncated: false,
            })
        }

        /// A copy of this node with its children dropped (depth 0).
        pub fn shallow_clone(&self) -> Rc<Self> {
            Rc::new(ValueNode {
                pc: self.pc,
                inst: self.inst.clone(),
                value: self.value,
                srcs: [None, None, None],
                src_values: self.src_values,
                kind: self.kind,
                depth: 0,
                truncated: true,
            })
        }

        /// Builds a load node wrapping the provenance of the value it read.
        pub fn load(
            pc: usize,
            inst: Instruction,
            value: u64,
            addr: u64,
            source: Option<Rc<ValueNode>>,
        ) -> Rc<Self> {
            let (srcs, depth) = match source {
                Some(node) => {
                    let node = if node.depth + 1 >= TRACK_DEPTH_CAP {
                        node.shallow_clone()
                    } else {
                        node
                    };
                    let d = node.depth; // see-through: loads add no slice depth
                    ([Some(node), None, None], d)
                }
                None => ([None, None, None], 0),
            };
            Rc::new(ValueNode {
                pc,
                inst,
                value,
                srcs,
                src_values: [0; 3],
                kind: NodeKind::Load { addr },
                depth,
                truncated: false,
            })
        }

        /// Follows `Load` pass-through links to the nearest compute
        /// producer, if any survives the depth cap.
        pub fn resolve_compute(self: &Rc<Self>) -> Option<Rc<ValueNode>> {
            let mut current = Rc::clone(self);
            loop {
                match current.kind {
                    NodeKind::Compute => return Some(current),
                    NodeKind::Load { .. } => match &current.srcs[0] {
                        Some(next) => current = Rc::clone(next),
                        None => return None,
                    },
                }
            }
        }
    }
}

/// Instance-tree extraction and the tree-to-tree merge.
mod tree {
    use std::rc::Rc;

    use amnesiac_profile::{ProvNode, ProvOperand};

    use super::provenance::{NodeKind, ValueNode};

    /// Maximum height of extracted trees.
    pub const EXTRACT_DEPTH_CAP: u32 = 48;

    /// Extracts an instance tree from the provenance DAG; `None` if `root`
    /// has no compute producer.
    pub fn extract(
        root: &Rc<ValueNode>,
        regs: &[u64],
        last_exec: &[Option<[u64; 3]>],
    ) -> Option<ProvNode> {
        let compute = root.resolve_compute()?;
        Some(extract_compute(&compute, regs, last_exec, 0))
    }

    fn extract_compute(
        node: &Rc<ValueNode>,
        regs: &[u64],
        last_exec: &[Option<[u64; 3]>],
        depth: u32,
    ) -> ProvNode {
        debug_assert_eq!(node.kind, NodeKind::Compute);
        let regs_of = node.inst.srcs();
        let mut operands: [Option<ProvOperand>; 3] = [None, None, None];
        for j in 0..3 {
            let Some(reg) = regs_of[j] else { continue };
            let (child, unknown) = if node.truncated || depth + 1 >= EXTRACT_DEPTH_CAP {
                (None, true)
            } else {
                let child = node.srcs[j]
                    .as_ref()
                    .and_then(|n| n.resolve_compute())
                    .map(|n| Box::new(extract_compute(&n, regs, last_exec, depth + 1)));
                (child, false)
            };
            let fresh = last_exec
                .get(node.pc)
                .copied()
                .flatten()
                .is_some_and(|vals| vals[j] == node.src_values[j]);
            operands[j] = Some(ProvOperand {
                reg,
                always_live: regs[reg.index()] == node.src_values[j],
                child,
                unknown,
                checkpoint_fresh: fresh,
            });
        }
        ProvNode {
            pc: node.pc,
            inst: node.inst.clone(),
            operands,
        }
    }

    /// Merges another instance into the canonical tree `canon`; `false`
    /// when the root producers differ.
    pub fn merge(canon: &mut ProvNode, other: &ProvNode) -> bool {
        if canon.pc != other.pc || canon.inst != other.inst {
            return false;
        }
        for j in 0..3 {
            match (&mut canon.operands[j], &other.operands[j]) {
                (Some(mine), Some(theirs)) => {
                    debug_assert_eq!(mine.reg, theirs.reg, "same static instruction");
                    mine.always_live &= theirs.always_live;
                    mine.checkpoint_fresh &= theirs.checkpoint_fresh;
                    let keep_child = match (&mut mine.child, &theirs.child) {
                        (Some(a), Some(b)) => merge(a, b),
                        // the instance didn't record the subtree: keep the
                        // canonical one (validated later)
                        (Some(_), None) if theirs.unknown => true,
                        (Some(_), None) => false,
                        // the canonical side was a truncation artifact:
                        // adopt the instance's subtree (liveness/freshness
                        // flags re-accumulate from here; the validation
                        // replay remains the correctness backstop)
                        (None, Some(b)) if mine.unknown => {
                            mine.child = Some(b.clone());
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
                (None, None) => {}
                _ => unreachable!("operand shape is fixed by the static instruction"),
            }
        }
        true
    }
}

/// The reference observer.
mod observer {
    use std::collections::{BTreeMap, HashMap};
    use std::rc::Rc;

    use amnesiac_isa::{Instruction, Program, NUM_REGS};
    use amnesiac_mem::LevelStats;
    use amnesiac_profile::{
        LoadSiteProfile, ProgramProfile, ProvNode, StoreSiteProfile, Unswappable,
    };
    use amnesiac_sim::{Observer, RetireEvent};

    use super::provenance::ValueNode;
    use super::tree;

    struct Site {
        pc: usize,
        count: u64,
        levels: LevelStats,
        tree: Option<ProvNode>,
        unswappable: Option<Unswappable>,
        value_matches: u64,
        last_value: Option<u64>,
    }

    impl Site {
        fn mark_unswappable(&mut self, why: Unswappable) {
            if self.unswappable.is_none() {
                self.unswappable = Some(why);
            }
            self.tree = None;
        }
    }

    struct MemCell {
        node: Option<Rc<ValueNode>>,
        store_pc: usize,
        read: bool,
    }

    pub struct Reference<'p> {
        program: &'p Program,
        regs: [u64; NUM_REGS],
        reg_prov: Vec<Option<Rc<ValueNode>>>,
        mem_prov: HashMap<u64, MemCell>,
        loads: BTreeMap<usize, Site>,
        stores: BTreeMap<usize, StoreSiteProfile>,
        all_loads: LevelStats,
        pc_counts: Vec<u64>,
        last_exec: Vec<Option<[u64; 3]>>,
    }

    impl<'p> Reference<'p> {
        pub fn new(program: &'p Program) -> Self {
            Reference {
                program,
                regs: [0; NUM_REGS],
                reg_prov: vec![None; NUM_REGS],
                mem_prov: HashMap::new(),
                loads: BTreeMap::new(),
                stores: BTreeMap::new(),
                all_loads: LevelStats::default(),
                pc_counts: vec![0; program.code_len],
                last_exec: vec![None; program.code_len],
            }
        }

        fn on_load(&mut self, event: &RetireEvent<'_>) {
            let addr = event.addr.expect("loads carry an address");
            let value = event.result.expect("loads produce a value");
            let level = event.level.expect("loads carry a service level");
            let pc = event.pc;

            self.all_loads.record(level);
            let regs = &self.regs;
            let site = self.loads.entry(pc).or_insert_with(|| Site {
                pc,
                count: 0,
                levels: LevelStats::default(),
                tree: None,
                unswappable: None,
                value_matches: 0,
                last_value: None,
            });
            site.count += 1;
            site.levels.record(level);
            if site.last_value == Some(value) {
                site.value_matches += 1;
            }
            site.last_value = Some(value);

            let cell_node = match self.mem_prov.get_mut(&addr) {
                Some(cell) => {
                    cell.read = true;
                    let store_pc = cell.store_pc;
                    let node = cell.node.clone();
                    *self
                        .stores
                        .entry(store_pc)
                        .or_default()
                        .consumers
                        .entry(pc)
                        .or_insert(0) += 1;
                    match node {
                        Some(n) => Some(n),
                        None => {
                            site.mark_unswappable(Unswappable::NoProducer);
                            None
                        }
                    }
                }
                None => {
                    let why = if self.program.is_read_only(addr) {
                        Unswappable::ReadOnlyRoot
                    } else {
                        Unswappable::NoProducer
                    };
                    site.mark_unswappable(why);
                    None
                }
            };

            if site.unswappable.is_none() {
                if let Some(node) = &cell_node {
                    match tree::extract(node, regs, &self.last_exec) {
                        Some(instance) => match &mut site.tree {
                            None => site.tree = Some(instance),
                            Some(canon) => {
                                if !tree::merge(canon, &instance) {
                                    site.mark_unswappable(Unswappable::UnstableRoot);
                                }
                            }
                        },
                        None => site.mark_unswappable(Unswappable::NoProducer),
                    }
                }
            }

            let dst = event.inst.dst().expect("loads have a destination");
            self.reg_prov[dst.index()] = Some(ValueNode::load(
                pc,
                event.inst.clone(),
                value,
                addr,
                cell_node,
            ));
            self.regs[dst.index()] = value;
        }

        fn on_store(&mut self, event: &RetireEvent<'_>) {
            let addr = event.addr.expect("stores carry an address");
            let src_reg = event.inst.srcs()[0].expect("stores read a source register");
            self.stores.entry(event.pc).or_default().count += 1;
            let previous = self.mem_prov.insert(
                addr,
                MemCell {
                    node: self.reg_prov[src_reg.index()].clone(),
                    store_pc: event.pc,
                    read: false,
                },
            );
            if let Some(prev) = previous {
                if !prev.read {
                    self.stores.entry(prev.store_pc).or_default().unread += 1;
                }
            }
        }

        fn on_compute(&mut self, event: &RetireEvent<'_>) {
            let value = event.result.expect("compute instructions produce a value");
            let dst = event.inst.dst().expect("compute instructions have a dst");
            let mut srcs: [Option<Rc<ValueNode>>; 3] = [None, None, None];
            for (j, reg) in event.inst.srcs().iter().enumerate() {
                if let Some(r) = reg {
                    srcs[j] = self.reg_prov[r.index()].clone();
                }
            }
            let node =
                ValueNode::compute(event.pc, event.inst.clone(), value, srcs, event.src_values);
            self.reg_prov[dst.index()] = Some(node);
            self.regs[dst.index()] = value;
            self.last_exec[event.pc] = Some(event.src_values);
        }

        pub fn finish(mut self, instructions: u64) -> ProgramProfile {
            for cell in self.mem_prov.values() {
                if !cell.read {
                    self.stores.entry(cell.store_pc).or_default().unread += 1;
                }
            }
            let loads = self
                .loads
                .into_iter()
                .map(|(pc, s)| {
                    let site = LoadSiteProfile::from_parts(
                        s.pc,
                        s.count,
                        s.levels,
                        s.tree,
                        s.unswappable,
                        s.value_matches,
                        s.last_value,
                    );
                    (pc, site)
                })
                .collect();
            ProgramProfile {
                loads,
                stores: self.stores,
                all_loads: self.all_loads,
                instructions,
                pc_counts: self.pc_counts,
            }
        }
    }

    impl Observer for Reference<'_> {
        fn on_retire(&mut self, event: &RetireEvent<'_>) {
            self.pc_counts[event.pc] += 1;
            match event.inst {
                Instruction::Load { .. } => self.on_load(event),
                Instruction::Store { .. } => self.on_store(event),
                inst if inst.is_slice_compute() => self.on_compute(event),
                _ => {}
            }
        }
    }
}

/// The reference profile of one classic run of `program`.
fn reference(program: &Program, config: &CoreConfig) -> Result<ProgramProfile, RunError> {
    let mut observer = observer::Reference::new(program);
    let result = ClassicCore::new(config.clone()).run_observed(program, &mut observer)?;
    Ok(observer.finish(result.instructions))
}

/// Where two profiles first differ, without printing whole trees.
fn first_difference(a: &ProgramProfile, b: &ProgramProfile) -> String {
    if let Some((pc, site)) = a.loads.iter().find(|(pc, s)| b.loads.get(pc) != Some(s)) {
        let other = b.loads.get(pc);
        if site.unswappable != other.and_then(|s| s.unswappable) {
            return format!(
                "load pc {pc}: unswappable {:?} vs {:?}",
                site.unswappable,
                other.map(|s| s.unswappable)
            );
        }
        return format!("load pc {pc}: {site:?}\nvs\n{other:?}");
    }
    if a.loads.len() != b.loads.len() {
        return format!("load sites: {} vs {}", a.loads.len(), b.loads.len());
    }
    if a.stores != b.stores {
        return format!("stores: {:?}\nvs\n{:?}", a.stores, b.stores);
    }
    format!(
        "totals: {:?} {} vs {:?} {}",
        a.all_loads, a.instructions, b.all_loads, b.instructions
    )
}

/// Profiles `program` both ways, asserts the profiles are equal and
/// returns the profiler's.
fn assert_matches(program: &Program, config: &CoreConfig) -> ProgramProfile {
    let (profile, _) = profile_program(program, config).expect("profiling succeeds");
    let expected = reference(program, config).expect("reference profiling succeeds");
    assert!(
        profile == expected,
        "{}: profile differs from the reference: {}",
        program.name,
        first_difference(&profile, &expected)
    );
    profile
}

#[test]
fn every_workload_matches_the_reference_at_test_scale() {
    let workloads = all_workloads(Scale::Test);
    assert_eq!(workloads.len(), 33);
    for workload in &workloads {
        assert_matches(&workload.program, &CoreConfig::paper());
    }
}

#[test]
#[ignore = "paper scale: minutes in a debug build; run with --release"]
fn focal_kernels_match_the_reference_at_paper_scale() {
    for name in FOCAL_NAMES {
        let workload = build_focal(name, Scale::Paper);
        assert_matches(&workload.program, &CoreConfig::paper());
    }
}

/// The kernels a serve-miss compile profiles: the `compile` sweep of the
/// serve benchmark's seeded arrival schedule (two focal, four control and
/// eleven extended kernels).
#[test]
#[ignore = "paper scale: minutes in a debug build; run with --release"]
fn serve_sweep_kernels_match_the_reference_at_paper_scale() {
    let sweep: Vec<_> = KERNELS
        .iter()
        .filter(|k| PAPER_SWEEP.contains(&k.name))
        .collect();
    assert_eq!(sweep.len(), PAPER_SWEEP.len());
    assert_eq!(sweep.len(), 17);
    for kernel in sweep {
        assert_matches(&kernel.build(Scale::Paper).program, &CoreConfig::paper());
    }
}

const RNG_PROGRAMS: usize = 200;
const RNG_SEED: u64 = 0x9E0F;

/// A random terminating program: a counted loop (sometimes a second one
/// nested inside) around straight-line compute, dependence chains, loads
/// and stores over a 16-word window whose first words may be read-only
/// inputs. `r0..r3` carry data (some never written, so untracked), `r6`
/// and `r9` count, `r7` is the window base, `r11` a loop-varying address
/// and `r12..r15` constants. An instruction reads at most one data
/// register; its other operands are the counter or constants. Two data
/// operands would let the DAG become a lattice, whose unfolding into a
/// tree doubles with depth.
fn random_program(r: &mut Rng, case: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("rng-{case}"));
    let words: Vec<u64> = (0..16).map(|_| r.below(64)).collect();
    let window = b.alloc_data(&words);
    if r.bool() {
        b.mark_read_only(window, r.range_u64(1, 6));
    }
    let data = |r: &mut Rng| Reg(r.below(4) as u8);
    b.li(Reg(7), window);
    b.li(Reg(11), window);
    for k in 12..16 {
        b.li(Reg(k), r.below(64));
    }
    for _ in 0..r.below(4) {
        let reg = data(r);
        b.li(reg, r.below(64));
    }
    let loops = r.range_usize(1, 3);
    let counters = [(Reg(6), Reg(8)), (Reg(9), Reg(10))];
    let mut exits = Vec::new();
    for &(counter, bound) in &counters[..loops] {
        b.li(counter, 0);
        b.li(bound, r.range_u64(1, 30));
        let top = b.label();
        let exit = b.label();
        b.bind(top).expect("fresh label");
        b.branch(BranchCond::Geu, counter, bound, exit);
        exits.push((top, exit, counter));
    }
    let ops = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Xor, AluOp::And];
    // mostly store values computed earlier in the body and reload stored
    // words, so that many sites keep a tree for the merge to work on
    let mut computed: Vec<Reg> = Vec::new();
    let mut stored: Vec<(Reg, i64)> = Vec::new();
    for _ in 0..r.range_usize(4, 96) {
        // the loop counter gives recurrences and varying values
        let src = |r: &mut Rng| {
            if r.below(5) == 0 {
                Reg(6)
            } else {
                data(r)
            }
        };
        let shallow = |r: &mut Rng| *r.choose(&[Reg(6), Reg(12), Reg(13), Reg(14), Reg(15)]);
        let dst = data(r);
        match r.below(13) {
            0 => {
                b.li(dst, r.below(64));
            }
            1 | 2 => {
                let (mut lhs, mut rhs) = (src(r), shallow(r));
                if r.bool() {
                    std::mem::swap(&mut lhs, &mut rhs);
                }
                b.alu(*r.choose(&ops), dst, lhs, rhs);
            }
            3 | 4 => {
                let lhs = src(r);
                b.alui(*r.choose(&ops), dst, lhs, r.below(16));
            }
            5 => {
                let (x, y, z) = (shallow(r), src(r), shallow(r));
                b.emit(Instruction::Fma {
                    dst,
                    a: x,
                    b: y,
                    c: z,
                });
            }
            6 => {
                let (lhs, rhs) = (shallow(r), src(r));
                b.fpu(FpOp::Add, dst, lhs, rhs);
            }
            7 => {
                b.alui(AluOp::And, Reg(11), Reg(6), 7);
                b.alu(AluOp::Add, Reg(11), Reg(11), Reg(7));
                continue;
            }
            8 | 9 => {
                let (base, offset) = if stored.is_empty() || r.below(4) == 0 {
                    (*r.choose(&[Reg(7), Reg(11)]), r.below(8) as i64)
                } else {
                    *r.choose(&stored)
                };
                b.load(dst, base, offset);
            }
            // a dependence chain past the extraction cap, sometimes past
            // the tracking cap
            12 => {
                let mut reg = src(r);
                for _ in 0..r.range_usize(20, 80) {
                    let next = data(r);
                    b.alui(*r.choose(&ops), next, reg, r.below(16));
                    reg = next;
                }
                let slot = (Reg(7), r.below(8) as i64);
                b.store(reg, slot.0, slot.1);
                stored.push(slot);
                computed.push(reg);
                continue;
            }
            _ => {
                let value = if computed.is_empty() || r.below(4) == 0 {
                    data(r)
                } else {
                    *r.choose(&computed)
                };
                let slot = (*r.choose(&[Reg(7), Reg(11)]), r.below(8) as i64);
                b.store(value, slot.0, slot.1);
                stored.push(slot);
                continue;
            }
        }
        computed.push(dst);
    }
    for (top, exit, counter) in exits.into_iter().rev() {
        b.alui(AluOp::Add, counter, counter, 1);
        b.jump(top);
        b.bind(exit).expect("fresh label");
    }
    b.halt();
    b.finish().expect("valid program")
}

#[test]
fn random_programs_match_the_reference() {
    let mut r = Rng::seed_from_u64(RNG_SEED);
    // sites whose tree survived merging (of them: 3+ levels high, or with
    // an unknown operand) and sites whose root producer changed
    let (mut merged, mut unstable, mut tall, mut unknown) = (0, 0, 0, 0);
    for case in 0..RNG_PROGRAMS {
        let program = random_program(&mut r, case);
        let profile = assert_matches(&program, &CoreConfig::paper());
        for site in profile.loads.values() {
            if let (Some(tree), true) = (&site.tree, site.count > 1) {
                merged += 1;
                tall += usize::from(tree.height() >= 3);
                let mut any_unknown = false;
                tree.post_order(&mut |n| {
                    any_unknown |= n.operands.iter().flatten().any(|o| o.unknown)
                });
                unknown += usize::from(any_unknown);
            }
            unstable += usize::from(site.unswappable == Some(Unswappable::UnstableRoot));
        }
    }
    // the generator reaches every part of the merge
    assert!(
        merged > RNG_PROGRAMS && unstable > RNG_PROGRAMS,
        "{merged} {unstable}"
    );
    assert!(
        tall > RNG_PROGRAMS && unknown > RNG_PROGRAMS / 2,
        "{tall} {unknown}"
    );
}

/// Holds the base address of a 64-word zeroed array in [`counted_loop`]s.
const BASE: Reg = Reg(20);

/// Builds a program with one counted loop: `setup` runs first, then `r6`
/// runs `0..trips` around `body`, then `after` runs once.
fn counted_loop(
    name: &str,
    trips: u64,
    setup: impl FnOnce(&mut ProgramBuilder),
    body: impl FnOnce(&mut ProgramBuilder),
    after: impl FnOnce(&mut ProgramBuilder),
) -> Program {
    let mut b = ProgramBuilder::new(name);
    let array = b.alloc_zeroed(64);
    b.li(BASE, array);
    setup(&mut b);
    b.li(Reg(6), 0);
    b.li(Reg(8), trips);
    let top = b.label();
    let exit = b.label();
    b.bind(top).expect("fresh label");
    b.branch(BranchCond::Geu, Reg(6), Reg(8), exit);
    body(&mut b);
    b.alui(AluOp::Add, Reg(6), Reg(6), 1);
    b.jump(top);
    b.bind(exit).expect("fresh label");
    after(&mut b);
    b.halt();
    b.finish().expect("valid program")
}

/// The executed load sites of `profile`, in pc order.
fn load_sites(profile: &ProgramProfile) -> Vec<&LoadSiteProfile> {
    profile.loads.values().collect()
}

/// `i ← i + 1` stored and reloaded every iteration: the recurrence is cut
/// at one level, so the first instance's `li` child and the later cut
/// copies of the `addi` disagree and the operand is pruned.
#[test]
fn self_recurrence_is_cut() {
    let program = counted_loop(
        "self-recurrence",
        20,
        |b| {
            b.li(Reg(2), 0);
        },
        |b| {
            b.alui(AluOp::Add, Reg(2), Reg(2), 1);
            b.store(Reg(2), BASE, 0);
            b.load(Reg(3), BASE, 0);
        },
        |_| {},
    );
    let profile = assert_matches(&program, &CoreConfig::paper());
    let site = load_sites(&profile)[0];
    let tree = site.tree.as_ref().expect("the increment is a stable root");
    assert!(matches!(tree.inst, Instruction::Alui { .. }));
    let operand = tree.operands[0].as_ref().expect("one register operand");
    assert!(
        operand.child.is_none() && !operand.unknown,
        "recurrence pruned"
    );

    // two increments of a never-written register, reloaded once after the
    // loop: the first increment has no producer of its own, so the second
    // keeps it whole rather than cutting it
    let program = counted_loop(
        "self-recurrence-from-nothing",
        2,
        |_| {},
        |b| {
            b.alui(AluOp::Add, Reg(2), Reg(2), 1);
            b.store(Reg(2), BASE, 0);
        },
        |b| {
            b.load(Reg(3), BASE, 0);
        },
    );
    let profile = assert_matches(&program, &CoreConfig::paper());
    let tree = load_sites(&profile)[0].tree.as_ref().unwrap();
    let first = tree.operands[0].as_ref().unwrap().child.as_ref().unwrap();
    assert_eq!(first.pc, tree.pc, "the first increment");
    let untracked = first.operands[0].as_ref().unwrap();
    assert!(untracked.child.is_none() && !untracked.unknown);
}

/// `x ← x + 1` passed through one memory word 100 times at distinct pcs,
/// three times over: the chain of computes and loads outgrows the
/// tracking cap, and the cut lands at a different depth in each instance
/// of the final reload.
#[test]
fn chain_through_loads_outgrows_the_tracking_cap() {
    let program = counted_loop(
        "load-chain",
        3,
        |b| {
            b.li(Reg(3), 5);
            b.store(Reg(3), BASE, 0);
        },
        |b| {
            for _ in 0..100 {
                b.load(Reg(3), BASE, 0);
                b.alui(AluOp::Add, Reg(3), Reg(3), 1);
                b.store(Reg(3), BASE, 0);
            }
            b.load(Reg(5), BASE, 0);
        },
        |_| {},
    );
    let profile = assert_matches(&program, &CoreConfig::paper());
    let reload = *load_sites(&profile).last().expect("the reload");
    assert_eq!(reload.count, 3);
    let tree = reload
        .tree
        .as_ref()
        .expect("the last increment is a stable root");
    assert!(tree.height() > 0, "the chain through memory survives");
}

/// A 60-instruction chain on `r1` at distinct pcs, stored and reloaded
/// each iteration. The first iteration enters the chain with a deep `r1`,
/// so the tracking cap cuts it 25 levels below the root: the operand there
/// is unknown. The second resets `r1` first, so its chain is intact past
/// the extraction cap and the canonical tree adopts that subtree.
fn deep_chain(trips: u64) -> Program {
    counted_loop(
        "deep-chain",
        trips,
        |b| {
            // a 30-deep history for r1 (r1 itself starts untracked)
            for _ in 0..30 {
                b.alui(AluOp::Add, Reg(1), Reg(1), 1);
            }
        },
        |b| {
            // odd iterations restart r1
            let keep = b.label();
            b.alui(AluOp::And, Reg(2), Reg(6), 1);
            b.li(Reg(3), 0);
            b.branch(BranchCond::Eq, Reg(2), Reg(3), keep);
            b.li(Reg(1), 0);
            b.bind(keep).expect("fresh label");
            for _ in 0..60 {
                b.alui(AluOp::Add, Reg(1), Reg(1), 1);
            }
            b.store(Reg(1), BASE, 0);
            b.load(Reg(4), BASE, 0);
        },
        |_| {},
    )
}

#[test]
fn unknown_operand_of_a_deep_tree_is_adopted() {
    let extract_cap = 48;
    let first = assert_matches(&deep_chain(1), &CoreConfig::paper());
    let tree = |p: &ProgramProfile| {
        p.swappable_sites()
            .next()
            .and_then(|s| s.tree.clone())
            .expect("the chain head is a stable root")
    };
    let cut = tree(&first);
    assert!(cut.height() < extract_cap - 1, "cut by the tracking cap");
    let deepest = deepest_operand(&cut);
    assert!(deepest.unknown && deepest.child.is_none());

    let later = assert_matches(&deep_chain(4), &CoreConfig::paper());
    let adopted = tree(&later);
    assert_eq!(
        adopted.height(),
        extract_cap - 1,
        "adopted to the extraction cap"
    );
    assert!(deepest_operand(&adopted).unknown);
}

/// A 40-instruction chain on `r1` at distinct pcs, stored and reloaded.
/// The first iteration enters it with a 62-deep `r1`, so the tracking cap
/// cuts right below its first instruction: that operand is unknown. The
/// second reloads `r1` from a never-written word first, so the same
/// operand has no producer: a semantic absence, which sticks.
fn absent_after_unknown(trips: u64) -> Program {
    counted_loop(
        "absent-after-unknown",
        trips,
        |b| {
            for _ in 0..63 {
                b.alui(AluOp::Add, Reg(1), Reg(1), 1);
            }
        },
        |b| {
            let keep = b.label();
            b.alui(AluOp::And, Reg(2), Reg(6), 1);
            b.li(Reg(3), 0);
            b.branch(BranchCond::Eq, Reg(2), Reg(3), keep);
            b.load(Reg(1), BASE, 63);
            b.bind(keep).expect("fresh label");
            for _ in 0..40 {
                b.alui(AluOp::Add, Reg(1), Reg(1), 1);
            }
            b.store(Reg(1), BASE, 0);
            b.load(Reg(4), BASE, 0);
        },
        |_| {},
    )
}

#[test]
fn absence_after_an_unknown_operand_is_sticky() {
    let tree = |trips| {
        let program = absent_after_unknown(trips);
        let profile = assert_matches(&program, &CoreConfig::paper());
        let site = *load_sites(&profile).last().unwrap();
        site.tree.clone().expect("the chain head is a stable root")
    };
    let first = tree(1);
    assert_eq!(first.height(), 39);
    assert!(deepest_operand(&first).unknown, "cut by the tracking cap");
    let later = tree(3);
    assert_eq!(later.height(), 39);
    let operand = deepest_operand(&later);
    assert!(operand.child.is_none() && !operand.unknown);
}

/// The first operand of the deepest node along first operands.
fn deepest_operand(tree: &ProvNode) -> &ProvOperand {
    let mut node = tree;
    loop {
        let operand = node.operands[0].as_ref().expect("a register operand");
        match &operand.child {
            Some(child) => node = child,
            None => return operand,
        }
    }
}

/// Five iterations store an `addi` result, then five store a `mul` result:
/// the reload's root producer changes mid-run.
#[test]
fn root_producer_changing_mid_run_is_unstable() {
    let program = counted_loop(
        "unstable-root",
        10,
        |b| {
            b.li(Reg(7), 5);
        },
        |b| {
            let second = b.label();
            let join = b.label();
            b.branch(BranchCond::Geu, Reg(6), Reg(7), second);
            b.alui(AluOp::Add, Reg(2), Reg(6), 100);
            b.jump(join);
            b.bind(second).expect("fresh label");
            b.alui(AluOp::Mul, Reg(2), Reg(6), 3);
            b.bind(join).expect("fresh label");
            b.store(Reg(2), BASE, 0);
            b.load(Reg(3), BASE, 0);
        },
        |_| {},
    );
    let profile = assert_matches(&program, &CoreConfig::paper());
    let site = load_sites(&profile)[0];
    assert_eq!(site.count, 10);
    assert_eq!(site.unswappable, Some(Unswappable::UnstableRoot));
    assert!(site.tree.is_none());
}

/// A sweep reloads the words it computes, but skips the store of the last
/// one (the stencil pattern): the site was swappable until its last
/// instance. A second site reloads a word stored from a never-written
/// register.
#[test]
fn swappable_site_ends_without_a_producer() {
    let program = counted_loop(
        "no-producer",
        8,
        |b| {
            b.li(Reg(7), 7);
            b.store(Reg(12), BASE, 8); // r12 is never written
        },
        |b| {
            // x[i] = 3i for i < 7; x[7] stays unwritten
            let skip = b.label();
            b.alu(AluOp::Add, Reg(4), BASE, Reg(6));
            b.alui(AluOp::Mul, Reg(3), Reg(6), 3);
            b.branch(BranchCond::Geu, Reg(6), Reg(7), skip);
            b.store(Reg(3), Reg(4), 0);
            b.bind(skip).expect("fresh label");
            b.load(Reg(5), Reg(4), 0);
        },
        |b| {
            b.load(Reg(5), BASE, 8);
        },
    );
    let profile = assert_matches(&program, &CoreConfig::paper());
    let sites = load_sites(&profile);
    assert_eq!(sites[0].count, 8);
    assert_eq!(sites[0].unswappable, Some(Unswappable::NoProducer));
    assert!(sites[0].tree.is_none());
    assert_eq!(sites[1].unswappable, Some(Unswappable::NoProducer));

    // the same sweep stopped one word short keeps its tree
    let mut shorter = program.clone();
    let bound = shorter
        .instructions
        .iter_mut()
        .find(|i| matches!(i, Instruction::Li { dst: Reg(8), .. }))
        .expect("the trip count");
    *bound = Instruction::Li {
        dst: Reg(8),
        imm: 7,
    };
    let profile = assert_matches(&shorter, &CoreConfig::paper());
    assert!(load_sites(&profile)[0].tree.is_some());
}

/// Words stored twice before any read, and words never read at all, count
/// as unread for the store that wrote them; a read word counts its reader.
#[test]
fn stores_overwritten_before_any_read() {
    let program = counted_loop(
        "overwritten",
        6,
        |_| {},
        |b| {
            b.alu(AluOp::Add, Reg(4), BASE, Reg(6));
            b.alui(AluOp::Add, Reg(2), Reg(6), 1);
            b.store(Reg(2), Reg(4), 0); // overwritten below, never read
            b.alui(AluOp::Mul, Reg(3), Reg(6), 2);
            b.store(Reg(3), Reg(4), 0); // read back on even iterations
            let skip = b.label();
            b.alui(AluOp::And, Reg(5), Reg(6), 1);
            b.li(Reg(9), 0);
            b.branch(BranchCond::Ne, Reg(5), Reg(9), skip);
            b.load(Reg(10), Reg(4), 0);
            b.bind(skip).expect("fresh label");
        },
        |_| {},
    );
    let profile = assert_matches(&program, &CoreConfig::paper());
    let stores: Vec<_> = profile.stores.values().collect();
    assert_eq!(stores.len(), 2);
    assert_eq!((stores[0].count, stores[0].unread), (6, 6));
    assert!(stores[0].consumers.is_empty());
    assert_eq!((stores[1].count, stores[1].unread), (6, 3));
    assert_eq!(stores[1].consumers.values().sum::<u64>(), 3);
}
