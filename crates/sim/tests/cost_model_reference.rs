//! Differential oracle for the cost model: [`Machine`] (the cache
//! hierarchy plus the energy account) against a naive reference that shares
//! no code with it.
//!
//! The reference keeps each cache set as a most-recently-used-first `Vec`,
//! finds line, set and tag by division, takes no same-line shortcuts, and
//! sums its account in two `BTreeMap`s in call order. It uses only
//! [`EnergyModel`]'s constants and the enums. Both sides are driven with the
//! same stream of `fetch`/`load`/`store`/`charge_op`/`probe` calls; every
//! returned service level must agree, and at the end so must the cycles,
//! the hierarchy statistics, every count and every energy to the bit, and
//! the account's JSON.
//!
//! The seeded half runs under `cargo test`. The paper-scale half replays the
//! retirement streams of the 11 focal kernels and is `#[ignore]`d; run it
//! with `cargo test --release -p amnesiac-sim --test cost_model_reference --
//! --ignored`.

use std::collections::BTreeMap;

use amnesiac_energy::{EnergyModel, UarchEvent};
use amnesiac_isa::Category;
use amnesiac_mem::{CacheConfig, HierarchyConfig, HierarchyStats, LevelStats, ServiceLevel};
use amnesiac_rng::Rng;
use amnesiac_sim::{ClassicCore, CoreConfig, Machine, Observer, RetireEvent};
use amnesiac_telemetry::{Json, ToJson};
use amnesiac_workloads::{build_focal, Scale, FOCAL_NAMES};

/// Byte address of instruction slot 0 (the simulator's text base).
const TEXT_BASE: u64 = 0x4000_0000;
/// Bytes per data word and per instruction slot.
const WORD: u64 = 8;

/// Every microarchitectural event, in declaration order.
const EVENTS: [UarchEvent; 12] = [
    UarchEvent::HistRead,
    UarchEvent::HistWrite,
    UarchEvent::SFileAccess,
    UarchEvent::IBuffRead,
    UarchEvent::IBuffFill,
    UarchEvent::ProbeL1,
    UarchEvent::ProbeL2,
    UarchEvent::WritebackL1,
    UarchEvent::WritebackL2,
    UarchEvent::IFetchL2,
    UarchEvent::IFetchMem,
    UarchEvent::Prefetch,
];

/// One write-back, write-allocate, true-LRU cache: per set, a list of
/// `(line number, dirty)`, most recently used first.
struct RefCache {
    line_bytes: u64,
    n_sets: u64,
    ways: usize,
    sets: Vec<Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let n_sets = (config.size_bytes / (config.ways * config.line_bytes)) as u64;
        RefCache {
            line_bytes: config.line_bytes as u64,
            n_sets,
            ways: config.ways,
            sets: vec![Vec::new(); n_sets as usize],
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.n_sets) as usize
    }

    /// `(hit, byte address of a dirty victim)`.
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        let line = addr / self.line_bytes;
        let set = self.set_of(line);
        let (ways, line_bytes) = (self.ways, self.line_bytes);
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&(l, _)| l == line) {
            let (_, dirty) = entries.remove(pos);
            entries.insert(0, (line, dirty || write));
            return (true, None);
        }
        let mut writeback = None;
        if entries.len() == ways {
            let (victim, dirty) = entries.pop().expect("a full set has a victim");
            if dirty {
                writeback = Some(victim * line_bytes);
            }
        }
        entries.insert(0, (line, write));
        (false, writeback)
    }

    fn holds(&self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        self.sets[self.set_of(line)].iter().any(|&(l, _)| l == line)
    }
}

/// What one reference hierarchy access did.
struct RefAccess {
    level: ServiceLevel,
    l1_writebacks: u32,
    l2_writebacks: u32,
    prefetch_from: Option<ServiceLevel>,
}

/// L1-I and L1-D over a unified L2, with the optional next-line prefetcher,
/// walked in full on every access.
struct RefHierarchy {
    l1i: RefCache,
    l1d: RefCache,
    l2: RefCache,
    prefetch: bool,
    stats: HierarchyStats,
}

fn count(stats: &mut LevelStats, level: ServiceLevel) {
    let i = match level {
        ServiceLevel::L1 => 0,
        ServiceLevel::L2 => 1,
        ServiceLevel::Mem => 2,
    };
    stats.by_level[i] += 1;
}

impl RefHierarchy {
    fn new(config: HierarchyConfig) -> Self {
        RefHierarchy {
            l1i: RefCache::new(config.l1i),
            l1d: RefCache::new(config.l1d),
            l2: RefCache::new(config.l2),
            prefetch: config.next_line_prefetch,
            stats: HierarchyStats::default(),
        }
    }

    /// L1-D, then L2 (a read), then memory; a dirty L1 victim is written
    /// into L2.
    fn data(&mut self, addr: u64, write: bool) -> RefAccess {
        let mut access = RefAccess {
            level: ServiceLevel::L1,
            l1_writebacks: 0,
            l2_writebacks: 0,
            prefetch_from: None,
        };
        let (l1_hit, l1_victim) = self.l1d.access(addr, write);
        if l1_hit {
            return access;
        }
        let (l2_hit, l2_victim) = self.l2.access(addr, false);
        access.level = if l2_hit {
            ServiceLevel::L2
        } else {
            ServiceLevel::Mem
        };
        access.l2_writebacks += u32::from(l2_victim.is_some());
        if let Some(victim) = l1_victim {
            access.l1_writebacks += 1;
            access.l2_writebacks += u32::from(self.l2.access(victim, true).1.is_some());
        }
        access
    }

    fn read(&mut self, addr: u64) -> RefAccess {
        let mut access = self.data(addr, false);
        let next = addr.wrapping_add(self.l1d.line_bytes);
        if self.prefetch && access.level != ServiceLevel::L1 && !self.l1d.holds(next) {
            let fill = self.data(next, false);
            access.l1_writebacks += fill.l1_writebacks;
            access.l2_writebacks += fill.l2_writebacks;
            access.prefetch_from = Some(fill.level);
            self.stats.prefetches += 1;
        }
        count(&mut self.stats.loads, access.level);
        self.tally_writebacks(&access);
        access
    }

    fn write(&mut self, addr: u64) -> RefAccess {
        let access = self.data(addr, true);
        count(&mut self.stats.stores, access.level);
        self.tally_writebacks(&access);
        access
    }

    fn fetch(&mut self, addr: u64) -> RefAccess {
        let mut access = RefAccess {
            level: ServiceLevel::L1,
            l1_writebacks: 0,
            l2_writebacks: 0,
            prefetch_from: None,
        };
        if !self.l1i.access(addr, false).0 {
            let (l2_hit, l2_victim) = self.l2.access(addr, false);
            access.level = if l2_hit {
                ServiceLevel::L2
            } else {
                ServiceLevel::Mem
            };
            access.l2_writebacks += u32::from(l2_victim.is_some());
        }
        count(&mut self.stats.fetches, access.level);
        self.tally_writebacks(&access);
        access
    }

    fn peek(&self, addr: u64) -> ServiceLevel {
        if self.l1d.holds(addr) {
            ServiceLevel::L1
        } else if self.l2.holds(addr) {
            ServiceLevel::L2
        } else {
            ServiceLevel::Mem
        }
    }

    fn tally_writebacks(&mut self, access: &RefAccess) {
        self.stats.l1_writebacks += u64::from(access.l1_writebacks);
        self.stats.l2_writebacks += u64::from(access.l2_writebacks);
    }
}

/// The reference machine: the hierarchy plus a per-key account, charged
/// at the model's constants.
struct RefMachine {
    mem: RefHierarchy,
    by_category: BTreeMap<Category, (u64, f64)>,
    by_event: BTreeMap<UarchEvent, (u64, f64)>,
    cycles: u64,
    epi: BTreeMap<Category, f64>,
    model: EnergyModel,
}

/// `[L1, L2, Mem]` position of a level.
fn at<T: Copy>(table: [T; 3], level: ServiceLevel) -> T {
    match level {
        ServiceLevel::L1 => table[0],
        ServiceLevel::L2 => table[1],
        ServiceLevel::Mem => table[2],
    }
}

impl RefMachine {
    fn new(config: &CoreConfig) -> Self {
        let model = config.energy.clone();
        let epi = Category::ALL
            .into_iter()
            .filter(|c| !matches!(c, Category::Load | Category::Store))
            .map(|c| (c, model.epi(c)))
            .collect();
        RefMachine {
            mem: RefHierarchy::new(config.hierarchy),
            by_category: BTreeMap::new(),
            by_event: BTreeMap::new(),
            cycles: 0,
            epi,
            model,
        }
    }

    fn record(&mut self, category: Category, nj: f64) {
        let slot = self.by_category.entry(category).or_insert((0, 0.0));
        slot.0 += 1;
        slot.1 += nj;
    }

    fn event(&mut self, event: UarchEvent, nj: f64) {
        let slot = self.by_event.entry(event).or_insert((0, 0.0));
        slot.0 += 1;
        slot.1 += nj;
    }

    fn fetch(&mut self, pc: usize) {
        let addr = TEXT_BASE.wrapping_add((pc as u64).wrapping_mul(WORD));
        let access = self.mem.fetch(addr);
        let (nj, latency) = (self.model.load_nj, self.model.mem_cycles);
        match access.level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => {
                self.event(UarchEvent::IFetchL2, nj[1]);
                self.cycles += latency[1];
            }
            ServiceLevel::Mem => {
                self.event(UarchEvent::IFetchMem, nj[2]);
                self.cycles += latency[2];
            }
        }
        for _ in 0..access.l2_writebacks {
            self.event(UarchEvent::WritebackL2, self.model.writeback_nj[1]);
        }
    }

    fn charge_op(&mut self, category: Category) {
        self.record(category, self.epi[&category]);
        self.cycles += self.model.op_cycles;
    }

    fn load(&mut self, word: u64) -> ServiceLevel {
        let access = self.mem.read(word.wrapping_mul(WORD));
        self.charge_mem(Category::Load, self.model.load_nj, &access);
        access.level
    }

    fn store(&mut self, word: u64) -> ServiceLevel {
        let access = self.mem.write(word.wrapping_mul(WORD));
        self.charge_mem(Category::Store, self.model.store_nj, &access);
        access.level
    }

    fn probe(&self, word: u64) -> ServiceLevel {
        self.mem.peek(word.wrapping_mul(WORD))
    }

    fn charge_mem(&mut self, category: Category, nj: [f64; 3], access: &RefAccess) {
        let writeback_nj = self.model.writeback_nj;
        self.record(category, at(nj, access.level));
        self.cycles += at(self.model.mem_cycles, access.level);
        if let Some(level) = access.prefetch_from {
            self.event(UarchEvent::Prefetch, at(self.model.load_nj, level));
        }
        for _ in 0..access.l1_writebacks {
            self.event(UarchEvent::WritebackL1, writeback_nj[0]);
        }
        for _ in 0..access.l2_writebacks {
            self.event(UarchEvent::WritebackL2, writeback_nj[1]);
        }
    }

    fn category_nj(&self, c: Category) -> f64 {
        self.by_category.get(&c).map_or(0.0, |s| s.1)
    }

    fn event_nj(&self, e: UarchEvent) -> f64 {
        self.by_event.get(&e).map_or(0.0, |s| s.1)
    }

    /// The account's JSON document, built from the maps.
    fn json(&self) -> Json {
        let total = self.by_category.values().map(|s| s.1).sum::<f64>()
            + self.by_event.values().map(|s| s.1).sum::<f64>();
        let load = self.category_nj(Category::Load);
        let store = self.category_nj(Category::Store)
            + self.event_nj(UarchEvent::WritebackL1)
            + self.event_nj(UarchEvent::WritebackL2);
        let hist = self.event_nj(UarchEvent::HistRead);
        let pct = |x: f64| if total == 0.0 { 0.0 } else { 100.0 * x / total };
        let breakdown = Json::obj()
            .with("load_pct", pct(load))
            .with("store_pct", pct(store))
            .with("non_mem_pct", pct(total - load - store - hist))
            .with("hist_read_pct", pct(hist));
        let slot = |&(n, nj): &(u64, f64)| Json::obj().with("count", n).with("nj", nj);
        let mut by_category = Json::obj();
        for (c, s) in &self.by_category {
            by_category.set(&format!("{c:?}"), slot(s));
        }
        let mut by_event = Json::obj();
        for (e, s) in &self.by_event {
            by_event.set(&format!("{e:?}"), slot(s));
        }
        Json::obj()
            .with("cycles", self.cycles)
            .with("total_nj", total)
            .with("edp_nj_cycles", total * self.cycles as f64)
            .with(
                "total_instructions",
                self.by_category.values().map(|s| s.0).sum::<u64>(),
            )
            .with("breakdown", breakdown)
            .with("by_category", by_category)
            .with("by_event", by_event)
    }
}

/// One cost-model call.
#[derive(Debug, Clone, Copy)]
enum Op {
    Fetch(usize),
    Charge(Category),
    Load(u64),
    Store(u64),
    Probe(u64),
}

/// Applies `op` to both models and checks the returned service levels.
fn step(dut: &mut Machine, reference: &mut RefMachine, op: Op, ctx: &str) {
    let (got, want) = match op {
        Op::Fetch(pc) => {
            dut.fetch(pc);
            reference.fetch(pc);
            return;
        }
        Op::Charge(c) => {
            dut.charge_op(c);
            reference.charge_op(c);
            return;
        }
        Op::Load(w) => (dut.load(w), reference.load(w)),
        Op::Store(w) => (dut.store(w), reference.store(w)),
        Op::Probe(w) => (dut.probe(w), reference.probe(w)),
    };
    assert_eq!(got, want, "{ctx}: {op:?}");
}

/// Compares everything the two models accumulated.
fn same_totals(dut: &Machine, reference: &RefMachine, ctx: &str) {
    let account = &dut.account;
    assert_eq!(account.cycles(), reference.cycles, "{ctx}: cycles");
    assert_eq!(dut.hierarchy.stats(), &reference.mem.stats, "{ctx}: stats");
    for c in Category::ALL {
        let (n, nj) = reference.by_category.get(&c).copied().unwrap_or((0, 0.0));
        assert_eq!(account.count(c), n, "{ctx}: {c:?} count");
        assert_eq!(account.energy(c).to_bits(), nj.to_bits(), "{ctx}: {c:?}");
    }
    for e in EVENTS {
        let (n, nj) = reference.by_event.get(&e).copied().unwrap_or((0, 0.0));
        assert_eq!(account.event_count(e), n, "{ctx}: {e:?} count");
        assert_eq!(
            account.event_energy(e).to_bits(),
            nj.to_bits(),
            "{ctx}: {e:?}"
        );
    }
    assert_eq!(
        account.to_json().compact(),
        reference.json().compact(),
        "{ctx}: account JSON"
    );
}

fn cache(size_bytes: usize, ways: usize, line_bytes: usize) -> CacheConfig {
    CacheConfig {
        size_bytes,
        ways,
        line_bytes,
    }
}

/// The machines under test: the paper's, with and without the prefetcher,
/// and small geometries: 1-way with 8-byte lines and a single set, where
/// every access conflicts and a prefetch lands in the accessed line's set;
/// a single 2-way set of 64-byte lines; and 8-byte lines over a few sets,
/// where the line and set shifts differ (the paper's L1-D has 64 sets of
/// 64 bytes, so swapping them would go unseen there).
fn configs() -> Vec<(&'static str, HierarchyConfig)> {
    let tiny = HierarchyConfig {
        l1i: cache(8, 1, 8),
        l1d: cache(8, 1, 8),
        l2: cache(64, 2, 8),
        next_line_prefetch: false,
    };
    let one_set = HierarchyConfig {
        l1i: cache(128, 2, 64),
        l1d: cache(128, 2, 64),
        l2: cache(1024, 8, 64),
        next_line_prefetch: true,
    };
    let few_sets = HierarchyConfig {
        l1i: cache(64, 2, 8),
        l1d: cache(64, 2, 8),
        l2: cache(512, 4, 8),
        next_line_prefetch: false,
    };
    let with_prefetch = |h: HierarchyConfig| HierarchyConfig {
        next_line_prefetch: true,
        ..h
    };
    vec![
        ("paper", HierarchyConfig::paper()),
        ("paper+prefetch", HierarchyConfig::paper_with_prefetch()),
        ("tiny", tiny),
        ("tiny+prefetch", with_prefetch(tiny)),
        ("one-set+prefetch", one_set),
        ("few-sets", few_sets),
        ("few-sets+prefetch", with_prefetch(few_sets)),
    ]
}

const NON_MEM: [Category; 12] = [
    Category::IntAlu,
    Category::IntMul,
    Category::IntDiv,
    Category::FpAdd,
    Category::FpMul,
    Category::FpDiv,
    Category::Fma,
    Category::Branch,
    Category::Jump,
    Category::Rcmp,
    Category::Rtn,
    Category::Rec,
];

/// A data word address: mostly a small hot region, sometimes a stride
/// away, anywhere in the 64-bit space, or at its top, where the byte
/// address wraps.
fn word(r: &mut Rng, last: u64) -> u64 {
    match r.below(10) {
        0..=4 => r.below(512),
        5 => last.wrapping_add(r.below(16)),
        6 => last.wrapping_add(r.range_u64(64, 4096)),
        7 => r.next_u64(),
        8 => u64::MAX - r.below(64),
        _ => u64::MAX / WORD - 32 + r.below(64),
    }
}

/// A seeded call stream: straight-line fetch runs with jumps, each
/// instruction charged as compute or a memory access, with probes
/// interleaved the way `RCMP` uses them. A stream charges a random subset
/// of the categories and may have no stores, so accounts also differ in
/// which slots were never recorded.
fn stream(r: &mut Rng, len: usize) -> Vec<Op> {
    let categories: Vec<Category> = NON_MEM.into_iter().filter(|_| r.bool()).collect();
    let stores = r.bool();
    let mut ops = Vec::with_capacity(len * 2);
    let mut pc = 0usize;
    let mut last = 0u64;
    while ops.len() < len {
        ops.push(Op::Fetch(pc));
        pc = match r.below(16) {
            0 => r.range_usize(0, 4096),
            1 => usize::MAX - r.range_usize(0, 64),
            _ => pc.wrapping_add(1),
        };
        last = word(r, last);
        ops.push(match r.below(8) {
            0..=2 if !categories.is_empty() => Op::Charge(*r.choose(&categories)),
            5 if stores => Op::Store(last),
            0..=5 => Op::Load(last),
            _ => Op::Probe(last),
        });
    }
    ops
}

/// Seeded call streams on every configuration.
#[test]
fn machine_matches_the_reference_on_seeded_streams() {
    let mut r = Rng::seed_from_u64(0xC057);
    for (name, hierarchy) in configs() {
        let config = CoreConfig {
            hierarchy,
            ..CoreConfig::paper()
        };
        for case in 0..48 {
            let ops = stream(&mut r, 400 + case * 20);
            let mut dut = Machine::new(&config);
            let mut reference = RefMachine::new(&config);
            let ctx = format!("{name} case {case}");
            for &op in &ops {
                step(&mut dut, &mut reference, op, &ctx);
            }
            same_totals(&dut, &reference, &ctx);
        }
    }
}

/// Replays every retirement of a classic run through both models, probing
/// each data address before it is accessed.
struct Replay {
    dut: Machine,
    reference: RefMachine,
    name: String,
}

impl Observer for Replay {
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        let (dut, reference, ctx) = (&mut self.dut, &mut self.reference, &self.name);
        step(dut, reference, Op::Fetch(event.pc), ctx);
        let category = event.inst.category();
        let op = match (category, event.addr) {
            (Category::Load, Some(w)) => Op::Load(w),
            (Category::Store, Some(w)) => Op::Store(w),
            _ => Op::Charge(category),
        };
        if let Op::Load(w) | Op::Store(w) = op {
            step(dut, reference, Op::Probe(w), ctx);
        }
        step(dut, reference, op, ctx);
    }
}

/// The 11 focal kernels at paper scale, on the paper machine with and
/// without the prefetcher. The replayed machine must also reproduce the
/// classic core's own account, which checks that the replay charges what
/// a run charges.
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn machine_matches_the_reference_on_focal_retirement_streams() {
    for hierarchy in [
        HierarchyConfig::paper(),
        HierarchyConfig::paper_with_prefetch(),
    ] {
        let config = CoreConfig {
            hierarchy,
            ..CoreConfig::paper()
        };
        for name in FOCAL_NAMES {
            let program = build_focal(name, Scale::Paper).program;
            let mut replay = Replay {
                dut: Machine::new(&config),
                reference: RefMachine::new(&config),
                name: format!("{name} (prefetch {})", hierarchy.next_line_prefetch),
            };
            let run = ClassicCore::new(config.clone())
                .run_observed(&program, &mut replay)
                .expect("focal kernels run");
            same_totals(&replay.dut, &replay.reference, &replay.name);
            assert_eq!(replay.dut.account, run.account, "{}: replay", replay.name);
        }
    }
}
