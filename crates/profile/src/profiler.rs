//! The profiling pass: one observed classic run producing a
//! [`ProgramProfile`].

use std::collections::BTreeMap;

use amnesiac_isa::{Instruction, Program, NUM_REGS};
use amnesiac_mem::{LevelStats, PagedMem};
use amnesiac_sim::{ClassicCore, CoreConfig, Observer, RetireEvent, RunError, RunResult};

use crate::provenance::{narrow_pc, Arena, NodeId, MAX_NODES, NIL};
use crate::tree::{Instance, ProvNode};

/// Why a load site cannot be swapped for recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unswappable {
    /// The loaded value is a read-only program input (§2.2): there is
    /// nothing to recompute.
    ReadOnlyRoot,
    /// No tracked producer (uninitialised memory, or the producer chain was
    /// depth-cut before reaching a compute instruction).
    NoProducer,
    /// The immediate producer differed across dynamic instances; a single
    /// embedded slice cannot cover the site.
    UnstableRoot,
}

/// Profile of one static load site.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSiteProfile {
    /// Static pc of the load.
    pub pc: usize,
    /// Dynamic execution count.
    pub count: u64,
    /// Service-level distribution of this site's dynamic instances — the
    /// per-site `PrLi` of §3.1.1.
    pub levels: LevelStats,
    /// Canonical producer tree, if the site is swappable.
    pub tree: Option<ProvNode>,
    /// Set when the site cannot be recomputed.
    pub unswappable: Option<Unswappable>,
    value_matches: u64,
    last_value: Option<u64>,
}

impl LoadSiteProfile {
    fn new(pc: usize) -> Self {
        LoadSiteProfile {
            pc,
            count: 0,
            levels: LevelStats::default(),
            tree: None,
            unswappable: None,
            value_matches: 0,
            last_value: None,
        }
    }

    /// Builds a bare site profile for tests in downstream crates.
    #[doc(hidden)]
    pub fn for_tests(pc: usize, count: u64) -> Self {
        LoadSiteProfile {
            count,
            ..LoadSiteProfile::new(pc)
        }
    }

    /// Assembles a site profile from every field, for differential tests
    /// that build profiles without this profiler.
    #[doc(hidden)]
    pub fn from_parts(
        pc: usize,
        count: u64,
        levels: LevelStats,
        tree: Option<ProvNode>,
        unswappable: Option<Unswappable>,
        value_matches: u64,
        last_value: Option<u64>,
    ) -> Self {
        LoadSiteProfile {
            pc,
            count,
            levels,
            tree,
            unswappable,
            value_matches,
            last_value,
        }
    }

    /// Value locality in `[0, 1]`: the fraction of dynamic instances whose
    /// value matched the immediately preceding instance (history depth 1,
    /// after Lipasti et al.; the paper's Fig. 8 metric).
    pub fn value_locality(&self) -> f64 {
        if self.count <= 1 {
            0.0
        } else {
            self.value_matches as f64 / (self.count - 1) as f64
        }
    }

    /// Per-site `PrLi` probability vector over `[L1, L2, Mem]`.
    pub fn probabilities(&self) -> [f64; 3] {
        self.levels.probabilities()
    }

    fn mark_unswappable(&mut self, why: Unswappable) {
        // first reason sticks; the tree is no longer meaningful
        if self.unswappable.is_none() {
            self.unswappable = Some(why);
        }
        self.tree = None;
    }
}

/// Profile of one static store site (for the dead-store elision analysis).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreSiteProfile {
    /// Dynamic execution count.
    pub count: u64,
    /// Dynamic count of loads that read this store's values, per load pc.
    pub consumers: BTreeMap<usize, u64>,
    /// Dynamic count of stored words that were overwritten or never read.
    pub unread: u64,
}

/// Everything the amnesic compiler needs to know about one program's
/// dynamic behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramProfile {
    /// Per static load site.
    pub loads: BTreeMap<usize, LoadSiteProfile>,
    /// Per static store site.
    pub stores: BTreeMap<usize, StoreSiteProfile>,
    /// Global load service-level distribution (whole-program `PrLi`).
    pub all_loads: LevelStats,
    /// Dynamic instruction count of the profiling run.
    pub instructions: u64,
    /// Dynamic execution count per static pc (for amortising `REC`
    /// overheads in the compiler's energy estimates). Dense: indexed by pc,
    /// one slot per main-code instruction.
    pub pc_counts: Vec<u64>,
}

impl ProgramProfile {
    /// Dynamic execution count of the instruction at `pc` (O(1)).
    pub fn pc_count(&self, pc: usize) -> u64 {
        self.pc_counts.get(pc).copied().unwrap_or(0)
    }
}

impl ProgramProfile {
    /// Swappable sites: those with a canonical producer tree.
    pub fn swappable_sites(&self) -> impl Iterator<Item = &LoadSiteProfile> {
        self.loads.values().filter(|s| s.tree.is_some())
    }
}

/// The provenance of one memory word, packed into the word itself so the
/// per-address table is a [`PagedMem`]:
///
/// ```text
/// bits 32..64  store pc (any pc below 2^32)
/// bit  31      read since that store
/// bits  0..31  node id + 2 (ids stay below MAX_NODES; NIL wraps to 1)
/// ```
///
/// The node field is never 0, so a written cell is never 0, and 0 — what
/// a [`PagedMem`] reads for a word no store wrote — means "untracked".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemCell(u64);

impl MemCell {
    const READ: u64 = 1 << 31;
    const NODE_MASK: u64 = Self::READ - 1;

    /// A cell for a store at `store_pc` of a value produced by `node`
    /// ([`NIL`] when untracked), not yet read.
    fn new(node: NodeId, store_pc: usize) -> MemCell {
        debug_assert!(node == NIL || node < MAX_NODES);
        MemCell((u64::from(narrow_pc(store_pc)) << 32) | u64::from(node.wrapping_add(2)))
    }

    /// The cell at a word, or `None` for a word no store wrote.
    fn at(word: u64) -> Option<MemCell> {
        (word != 0).then_some(MemCell(word))
    }

    /// Provenance of the stored value ([`NIL`] when untracked); the cell
    /// holds one reference.
    fn node(self) -> NodeId {
        ((self.0 & Self::NODE_MASK) as NodeId).wrapping_sub(2)
    }

    fn store_pc(self) -> usize {
        (self.0 >> 32) as usize
    }

    fn read(self) -> bool {
        self.0 & Self::READ != 0
    }

    fn mark_read(self) -> MemCell {
        MemCell(self.0 | Self::READ)
    }
}

/// The profiling observer: follows a classic run's retirement stream and
/// builds its [`ProgramProfile`]. [`profile_program`] drives it with the
/// classic core; any other source of the same [`RetireEvent`] stream yields
/// the same profile.
pub struct Profiler<'p> {
    program: &'p Program,
    regs: [u64; NUM_REGS],
    /// The provenance DAG; every live value's node is in here.
    arena: Arena,
    /// Provenance of each register's value ([`NIL`] while never written);
    /// each holds one reference.
    reg_prov: [NodeId; NUM_REGS],
    /// One packed [`MemCell`] per word address, probed on every dynamic
    /// load and store. Only a store allocates a page, and the simulator's
    /// own data memory already holds every page a store touches.
    mem_prov: PagedMem,
    /// Per-site profiles, dense by pc (every observed pc is main code, so
    /// `pc < code_len`): the per-dynamic-load site lookup is an index, not
    /// a map probe. [`Profiler::finish`] converts to the profile's BTreeMaps.
    loads: Vec<Option<LoadSiteProfile>>,
    stores: Vec<Option<StoreSiteProfile>>,
    /// Store→load flows, dense by load pc: each load pc's store pcs with
    /// how many of its loads read their values. A load pc reads from few
    /// store pcs, so a short scan beats a map probe; [`Profiler::finish`]
    /// folds them into each store's `consumers`.
    flows: Vec<Vec<(u32, u64)>>,
    all_loads: LevelStats,
    /// dense per-pc execution counters (pcs are `< code_len`)
    pc_counts: Vec<u64>,
    /// operand values of each compute pc's most recent execution, for the
    /// checkpoint-freshness analysis; dense, indexed by pc
    last_exec: Vec<Option<[u64; 3]>>,
}

impl<'p> Profiler<'p> {
    /// A profiler for runs of `program`.
    pub fn new(program: &'p Program) -> Self {
        Profiler {
            program,
            regs: [0; NUM_REGS],
            arena: Arena::default(),
            reg_prov: [NIL; NUM_REGS],
            mem_prov: PagedMem::new(),
            loads: vec![None; program.code_len],
            stores: vec![None; program.code_len],
            flows: vec![Vec::new(); program.code_len],
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
        let site = self.loads[pc].get_or_insert_with(|| LoadSiteProfile::new(pc));
        site.count += 1;
        site.levels.record(level);
        if site.last_value == Some(value) {
            site.value_matches += 1;
        }
        site.last_value = Some(value);

        // provenance of the value the load observed
        let cell_node = match MemCell::at(self.mem_prov.get(addr)) {
            Some(cell) => {
                if !cell.read() {
                    self.mem_prov.set(addr, cell.mark_read().0);
                }
                count_flow(&mut self.flows[pc], cell.store_pc());
                if cell.node() == NIL {
                    site.mark_unswappable(Unswappable::NoProducer);
                }
                cell.node()
            }
            None => {
                let why = if self.program.is_read_only(addr) {
                    Unswappable::ReadOnlyRoot
                } else {
                    Unswappable::NoProducer
                };
                site.mark_unswappable(why);
                NIL
            }
        };

        if site.unswappable.is_none() && cell_node != NIL {
            let instance = Instance {
                program: self.program,
                arena: &self.arena,
                regs: &self.regs,
                last_exec: &self.last_exec,
            };
            match self.arena.resolve_compute(cell_node) {
                None => site.mark_unswappable(Unswappable::NoProducer),
                Some(root) => match &mut site.tree {
                    None => site.tree = Some(ProvNode::extract(&instance, root, 0)),
                    Some(canon) => {
                        if !canon.merge_instance(&instance, root, 0) {
                            site.mark_unswappable(Unswappable::UnstableRoot);
                        }
                    }
                },
            }
        }

        // register provenance of the destination
        let dst = event.inst.dst().expect("loads have a destination");
        let node = self.arena.load(pc, cell_node);
        self.set_reg(dst.index(), value, node);
    }

    /// Gives register `reg` the value `value` produced by `node`, whose
    /// reference the register takes over.
    fn set_reg(&mut self, reg: usize, value: u64, node: NodeId) {
        let old = std::mem::replace(&mut self.reg_prov[reg], node);
        self.arena.release(old);
        self.regs[reg] = value;
    }

    fn on_store(&mut self, event: &RetireEvent<'_>) {
        let addr = event.addr.expect("stores carry an address");
        let src_reg = event.inst.srcs()[0].expect("stores read a source register");
        let store = self.stores[event.pc].get_or_insert_with(Default::default);
        store.count += 1;
        let node = self.reg_prov[src_reg.index()];
        self.arena.retain(node);
        let previous = MemCell::at(self.mem_prov.get(addr));
        self.mem_prov.set(addr, MemCell::new(node, event.pc).0);
        if let Some(prev) = previous {
            self.arena.release(prev.node());
            if !prev.read() {
                self.stores[prev.store_pc()]
                    .get_or_insert_with(Default::default)
                    .unread += 1;
            }
        }
    }

    fn on_compute(&mut self, event: &RetireEvent<'_>) {
        let value = event.result.expect("compute instructions produce a value");
        let dst = event.inst.dst().expect("compute instructions have a dst");
        let srcs = event
            .inst
            .srcs()
            .map(|reg| reg.map_or(NIL, |r| self.reg_prov[r.index()]));
        let node = self.arena.compute(event.pc, srcs, event.src_values);
        self.set_reg(dst.index(), value, node);
        self.last_exec[event.pc] = Some(event.src_values);
    }

    /// The profile of the observed run, which retired `instructions`
    /// dynamic instructions.
    pub fn finish(mut self, instructions: u64) -> ProgramProfile {
        // words never read before halt count as unread for their last store
        for cell in self.mem_prov.words().filter_map(MemCell::at) {
            if !cell.read() {
                self.stores[cell.store_pc()]
                    .get_or_insert_with(Default::default)
                    .unread += 1;
            }
        }
        for (load_pc, flows) in self.flows.into_iter().enumerate() {
            for (store_pc, count) in flows {
                self.stores[store_pc as usize]
                    .get_or_insert_with(Default::default)
                    .consumers
                    .insert(load_pc, count);
            }
        }
        let loads = self
            .loads
            .into_iter()
            .flatten()
            .map(|s| (s.pc, s))
            .collect();
        let stores = self
            .stores
            .into_iter()
            .enumerate()
            .filter_map(|(pc, s)| s.map(|s| (pc, s)))
            .collect();
        ProgramProfile {
            loads,
            stores,
            all_loads: self.all_loads,
            instructions,
            pc_counts: self.pc_counts,
        }
    }
}

/// Counts one load, whose pc's flows are `flows`, of a value stored at
/// `store_pc`.
#[inline]
fn count_flow(flows: &mut Vec<(u32, u64)>, store_pc: usize) {
    let store_pc = narrow_pc(store_pc);
    match flows.iter_mut().find(|(pc, _)| *pc == store_pc) {
        Some((_, count)) => *count += 1,
        None => flows.push((store_pc, 1)),
    }
}

impl Observer for Profiler<'_> {
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        self.pc_counts[event.pc] += 1;
        match event.inst {
            Instruction::Load { .. } => self.on_load(event),
            Instruction::Store { .. } => self.on_store(event),
            inst if inst.is_slice_compute() => self.on_compute(event),
            _ => {} // control flow carries no value provenance
        }
    }
}

/// Profiles a classic program with one observed run.
///
/// Returns the profile and the run result (the classic baseline numbers of
/// the same run — the profiling input is also the evaluation input, as in
/// the paper's single-input methodology).
///
/// # Errors
///
/// Propagates any [`RunError`] from the underlying classic run.
pub fn profile_program(
    program: &Program,
    config: &CoreConfig,
) -> Result<(ProgramProfile, RunResult), RunError> {
    let mut profiler = Profiler::new(program);
    let result = ClassicCore::new(config.clone()).run_observed(program, &mut profiler)?;
    Ok((profiler.finish(result.instructions), result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{AluOp, BranchCond, ProgramBuilder, Reg};
    use amnesiac_mem::ServiceLevel;

    fn profile(p: &Program) -> ProgramProfile {
        profile_program(p, &CoreConfig::paper())
            .expect("run succeeds")
            .0
    }

    /// store computed value, load it back: the load site must get a tree
    /// rooted at the computing instruction.
    #[test]
    fn load_of_computed_value_gets_producer_tree() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 20);
        let mul_pc = b.alui(AluOp::Mul, Reg(3), Reg(2), 3); // r3 = 60
        b.store(Reg(3), Reg(1), 0);
        let load_pc = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();

        let prof = profile(&p);
        let site = &prof.loads[&load_pc];
        assert_eq!(site.count, 1);
        assert!(site.unswappable.is_none());
        let tree = site.tree.as_ref().expect("swappable");
        assert_eq!(tree.pc, mul_pc, "root is the immediate producer P(v)");
        // producer chain continues into the li
        let op = tree.operands[0].as_ref().unwrap();
        assert_eq!(op.reg, Reg(2));
        assert!(op.always_live, "r2 still holds 20 at the load");
        assert_eq!(op.child.as_ref().unwrap().pc, 1);
    }

    #[test]
    fn load_of_read_only_input_is_unswappable() {
        let mut b = ProgramBuilder::new("t");
        let input = b.alloc_data(&[5]);
        b.mark_read_only(input, 1);
        b.li(Reg(1), input);
        let load_pc = b.load(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        assert_eq!(
            prof.loads[&load_pc].unswappable,
            Some(Unswappable::ReadOnlyRoot)
        );
    }

    #[test]
    fn load_of_unmarked_initial_memory_has_no_producer() {
        let mut b = ProgramBuilder::new("t");
        let data = b.alloc_data(&[5]);
        b.li(Reg(1), data);
        let load_pc = b.load(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        assert_eq!(
            prof.loads[&load_pc].unswappable,
            Some(Unswappable::NoProducer)
        );
    }

    /// Copy through memory: st A ← f(x); ld r ← A; st B ← r; ld r' ← B.
    /// The second load's tree must see through to f's instruction.
    #[test]
    fn provenance_sees_through_intermediate_loads() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_zeroed(1);
        let c = b.alloc_zeroed(1);
        b.li(Reg(1), a);
        b.li(Reg(2), c);
        b.li(Reg(3), 7);
        let add_pc = b.alui(AluOp::Add, Reg(4), Reg(3), 1); // f(x) = 8
        b.store(Reg(4), Reg(1), 0);
        b.load(Reg(5), Reg(1), 0);
        b.store(Reg(5), Reg(2), 0);
        let load2 = b.load(Reg(6), Reg(2), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        let site = &prof.loads[&load2];
        let tree = site.tree.as_ref().expect("swappable through the copy");
        assert_eq!(tree.pc, add_pc);
    }

    /// A loop that overwrites r2 before the load: operand no longer live.
    #[test]
    fn overwritten_operand_is_not_live() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 20);
        b.alui(AluOp::Add, Reg(3), Reg(2), 1);
        b.store(Reg(3), Reg(1), 0);
        b.li(Reg(2), 999); // clobber the producer's operand register
        let load_pc = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        let tree = prof.loads[&load_pc].tree.as_ref().unwrap();
        let op = tree.operands[0].as_ref().unwrap();
        assert!(!op.always_live, "r2 was overwritten before the load");
    }

    /// Two stores from different producers to the same address, each read
    /// back: the root producers differ between instances → unstable.
    #[test]
    fn alternating_producers_make_site_unstable() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(5), 0); // i = 0
        b.li(Reg(6), 2); // n = 2
        let top = b.label();
        let done = b.label();
        let else_ = b.label();
        let join = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(5), Reg(6), done);
        b.branch(BranchCond::Ne, Reg(5), Reg(5), else_); // never taken…
                                                         // iteration body: pick producer by parity
        let odd = b.label();
        let after = b.label();
        b.alui(AluOp::And, Reg(7), Reg(5), 1);
        b.li(Reg(8), 1);
        b.branch(BranchCond::Eq, Reg(7), Reg(8), odd);
        b.alui(AluOp::Add, Reg(3), Reg(5), 100); // producer A
        b.jump(after);
        b.bind(odd).unwrap();
        b.alui(AluOp::Mul, Reg(3), Reg(5), 3); // producer B
        b.bind(after).unwrap();
        b.store(Reg(3), Reg(1), 0);
        b.load(Reg(4), Reg(1), 0);
        b.alui(AluOp::Add, Reg(5), Reg(5), 1);
        b.jump(top);
        b.bind(else_).unwrap();
        b.jump(join);
        b.bind(join).unwrap();
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        let site = prof
            .loads
            .values()
            .find(|s| s.count == 2)
            .expect("the in-loop load ran twice");
        assert_eq!(site.unswappable, Some(Unswappable::UnstableRoot));
    }

    #[test]
    fn value_locality_tracks_repeats() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 5);
        b.store(Reg(2), Reg(1), 0);
        // three loads of the same value → locality 1.0
        let load_pc = b.load(Reg(3), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        // the three loads are distinct static sites; check the first
        let site = &prof.loads[&load_pc];
        assert_eq!(site.count, 1);
        assert_eq!(site.value_locality(), 0.0, "single instance has no history");

        // same site in a loop with a constant value
        let mut b = ProgramBuilder::new("t2");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 5);
        b.store(Reg(2), Reg(1), 0);
        b.li(Reg(5), 0);
        b.li(Reg(6), 4);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(5), Reg(6), done);
        let lp = b.load(Reg(3), Reg(1), 0);
        b.alui(AluOp::Add, Reg(5), Reg(5), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p2 = b.finish().unwrap();
        let prof2 = profile(&p2);
        assert_eq!(prof2.loads[&lp].count, 4);
        assert_eq!(prof2.loads[&lp].value_locality(), 1.0);
    }

    #[test]
    fn store_consumer_and_unread_tracking() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_zeroed(2);
        b.li(Reg(1), a);
        b.li(Reg(2), 3);
        b.alui(AluOp::Add, Reg(3), Reg(2), 0);
        let st_read = b.store(Reg(3), Reg(1), 0);
        let st_dead = b.store(Reg(3), Reg(1), 1);
        let ld = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        assert_eq!(prof.stores[&st_read].consumers[&ld], 1);
        assert_eq!(prof.stores[&st_read].unread, 0);
        assert_eq!(prof.stores[&st_dead].count, 1);
        assert_eq!(prof.stores[&st_dead].unread, 1, "never read before halt");
    }

    /// The arena has no `Drop` to catch a missed release. A loop that keeps
    /// overwriting a few registers and memory words with computed and
    /// loaded values must keep reusing a few slots, and leave every slot
    /// that no register or memory cell reaches on the free list.
    #[test]
    fn arena_slots_are_recycled() {
        let mut b = ProgramBuilder::new("churn");
        let cells = b.alloc_zeroed(4);
        b.li(Reg(1), cells);
        b.li(Reg(5), 0);
        b.li(Reg(6), 100_000);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(5), Reg(6), done);
        b.alui(AluOp::Mul, Reg(2), Reg(5), 3);
        b.store(Reg(2), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.alu(AluOp::Add, Reg(4), Reg(3), Reg(2));
        b.store(Reg(4), Reg(1), 1);
        b.load(Reg(2), Reg(1), 1);
        // alternate between two more words
        b.alui(AluOp::And, Reg(7), Reg(5), 1);
        b.alu(AluOp::Add, Reg(8), Reg(1), Reg(7));
        b.store(Reg(2), Reg(8), 2);
        b.load(Reg(3), Reg(8), 2);
        b.alui(AluOp::Add, Reg(5), Reg(5), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();

        let mut profiler = Profiler::new(&p);
        let run = ClassicCore::new(CoreConfig::paper())
            .run_observed(&p, &mut profiler)
            .expect("run succeeds");
        assert!(run.instructions > 1_000_000);
        assert!(
            profiler.arena.high_water() < 64,
            "{} slots for a handful of live values",
            profiler.arena.high_water()
        );
        let cells = profiler.mem_prov.words().filter_map(MemCell::at);
        let roots = profiler.reg_prov.iter().copied();
        profiler
            .arena
            .check_accounting(roots.chain(cells.map(MemCell::node)));
        // dropping every register's and memory word's reference frees
        // every slot: nothing else holds a node
        for reg in profiler.reg_prov {
            profiler.arena.release(reg);
        }
        for word in profiler.mem_prov.words_mut() {
            if let Some(cell) = MemCell::at(std::mem::take(word)) {
                profiler.arena.release(cell.node());
            }
        }
        profiler.arena.check_accounting([]);
    }

    #[test]
    fn memory_cells_pack_their_edges() {
        let largest_pc = u32::MAX as usize;
        let largest_node = MAX_NODES - 1;
        for node in [NIL, 0, 1, largest_node] {
            for store_pc in [0, 1, largest_pc] {
                let cell = MemCell::new(node, store_pc);
                assert_ne!(cell.0, 0, "a written word is never the unwritten 0");
                assert_eq!(MemCell::at(cell.0), Some(cell));
                for (cell, read) in [(cell, false), (cell.mark_read(), true)] {
                    assert_eq!(
                        (cell.node(), cell.store_pc(), cell.read()),
                        (node, store_pc, read),
                        "node {node}, store pc {store_pc}, read {read}"
                    );
                }
                assert_eq!(cell.mark_read().mark_read(), cell.mark_read());
            }
        }
        assert_eq!(MemCell::at(0), None, "a word no store wrote is untracked");
    }

    #[test]
    fn global_load_levels_accumulate() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 1);
        b.store(Reg(2), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        assert_eq!(prof.all_loads.total(), 2);
        // store warmed the line: both loads hit L1
        assert_eq!(prof.all_loads.by_level[ServiceLevel::L1.index()], 2);
        assert!(prof.instructions > 0);
    }
}
