//! The cost model — memory hierarchy plus the energy/time account — and the
//! simulator's configuration and error types.

use amnesiac_energy::{EnergyAccount, EnergyModel, UarchEvent};
use amnesiac_isa::{Category, Program};
use amnesiac_mem::{
    wrapping_addr, Access, HierarchyConfig, MemoryHierarchy, ServiceLevel, WORD_BYTES,
};

/// Base byte address of the instruction region (kept disjoint from data;
/// data word addresses start at `amnesiac_isa::DATA_BASE`).
const TEXT_BASE: u64 = 0x4000_0000;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Cache geometry.
    pub hierarchy: HierarchyConfig,
    /// Energy/timing model.
    pub energy: EnergyModel,
    /// Safety fuse: abort after this many dynamic instructions.
    pub max_instructions: u64,
}

impl CoreConfig {
    /// The paper's Table 3 machine.
    pub fn paper() -> Self {
        CoreConfig {
            hierarchy: HierarchyConfig::paper(),
            energy: EnergyModel::paper(),
            max_instructions: 200_000_000,
        }
    }

    /// Paper machine with a different energy model (e.g. an R-sweep point).
    pub fn with_energy(energy: EnergyModel) -> Self {
        CoreConfig {
            energy,
            ..Self::paper()
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Errors raised while running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // fields are the offending limit/pc/instruction
pub enum RunError {
    /// The instruction fuse blew (likely an infinite loop).
    FuseBlown { limit: u64 },
    /// The program counter left the valid instruction range.
    PcOutOfRange { pc: usize },
    /// An amnesic instruction was encountered by an executor that cannot
    /// handle it (e.g. the classic core fetched an `RTN`).
    UnexpectedInstruction { pc: usize, what: String },
}

impl RunError {
    /// [`RunError::UnexpectedInstruction`] for the instruction at `pc`.
    pub fn unexpected(program: &Program, pc: usize) -> Self {
        RunError::UnexpectedInstruction {
            pc,
            what: program.instructions[pc].to_string(),
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::FuseBlown { limit } => {
                write!(f, "instruction fuse blew after {limit} instructions")
            }
            RunError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            RunError::UnexpectedInstruction { pc, what } => {
                write!(f, "unexpected instruction at pc {pc}: {what}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The cost model of the Table 3 core: the cache hierarchy (tags only) and
/// the energy/time account it charges.
///
/// Values live in the engine's [`crate::ArchState`]; the machine only sees
/// addresses, so functional and timing state stay decoupled but consistent.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Cache hierarchy.
    pub hierarchy: MemoryHierarchy,
    /// Energy and time account.
    pub account: EnergyAccount,
    /// Energy/timing model.
    pub energy: EnergyModel,
}

impl Machine {
    /// A cold machine.
    pub fn new(config: &CoreConfig) -> Self {
        Machine {
            hierarchy: MemoryHierarchy::new(config.hierarchy),
            account: EnergyAccount::new(),
            energy: config.energy.clone(),
        }
    }

    /// Charges a load of data word `addr` — energy per level plus
    /// write-back traffic, and stall cycles — and returns the level that
    /// serviced it.
    #[inline]
    pub fn load(&mut self, addr: u64) -> ServiceLevel {
        let access = self.hierarchy.read_data(wrapping_addr(0, addr, WORD_BYTES));
        self.charge_mem(Category::Load, access);
        access.level
    }

    /// Charges a store to data word `addr` and returns the servicing level.
    #[inline]
    pub fn store(&mut self, addr: u64) -> ServiceLevel {
        let access = self
            .hierarchy
            .write_data(wrapping_addr(0, addr, WORD_BYTES));
        self.charge_mem(Category::Store, access);
        access.level
    }

    /// Where a load of data word `addr` would be serviced right now, without
    /// touching cache state or the account (the `RCMP` residency probe).
    #[inline]
    pub fn probe(&self, addr: u64) -> ServiceLevel {
        self.hierarchy.peek_data(wrapping_addr(0, addr, WORD_BYTES))
    }

    /// Charges a memory instruction and its write-back side effects.
    fn charge_mem(&mut self, category: Category, access: Access) {
        let nj = match category {
            Category::Load => self.energy.load_energy(access.level),
            Category::Store => self.energy.store_energy(access.level),
            _ => unreachable!("charge_mem is for loads/stores"),
        };
        self.account.record(category, nj);
        self.account
            .add_cycles(self.energy.mem_latency(access.level));
        if let Some(level) = access.prefetch_from {
            // prefetch fills cost their source access energy; their
            // latency overlaps with execution
            self.account
                .record_event(UarchEvent::Prefetch, self.energy.load_energy(level));
        }
        for _ in 0..access.l1_writebacks {
            self.account
                .record_event(UarchEvent::WritebackL1, self.energy.writeback_nj[0]);
        }
        for _ in 0..access.l2_writebacks {
            self.account
                .record_event(UarchEvent::WritebackL2, self.energy.writeback_nj[1]);
        }
    }

    /// Charges a non-memory instruction's EPI and single-cycle latency.
    #[inline]
    pub fn charge_op(&mut self, category: Category) {
        self.account.record(category, self.energy.epi(category));
        self.account.add_cycles(self.energy.op_cycles);
    }

    /// Models instruction supply for the instruction at index `pc`: the
    /// fetch goes through L1-I; misses charge fill energy and stall cycles.
    #[inline]
    pub fn fetch(&mut self, pc: usize) {
        let byte_addr = wrapping_addr(TEXT_BASE, pc as u64, WORD_BYTES);
        let access = self.hierarchy.fetch_inst(byte_addr);
        match access.level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => {
                self.account
                    .record_event(UarchEvent::IFetchL2, self.energy.load_nj[1]);
                self.account.add_cycles(self.energy.mem_cycles[1]);
            }
            ServiceLevel::Mem => {
                self.account
                    .record_event(UarchEvent::IFetchMem, self.energy.load_nj[2]);
                self.account.add_cycles(self.energy.mem_cycles[2]);
            }
        }
        for _ in 0..access.l2_writebacks {
            self.account
                .record_event(UarchEvent::WritebackL2, self.energy.writeback_nj[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(&CoreConfig::paper())
    }

    #[test]
    fn load_charges_level_energy_and_latency() {
        let mut m = machine();
        let base = amnesiac_isa::DATA_BASE;
        assert_eq!(m.load(base), ServiceLevel::Mem);
        assert_eq!(m.account.count(Category::Load), 1);
        assert!((m.account.energy(Category::Load) - 52.14).abs() < 1e-9);
        assert_eq!(m.account.cycles(), 109);
        // second load hits L1
        assert_eq!(m.load(base), ServiceLevel::L1);
        assert!((m.account.energy(Category::Load) - 53.02).abs() < 1e-9);
        assert_eq!(m.account.cycles(), 113);
    }

    #[test]
    fn store_charges_the_account() {
        let mut m = machine();
        m.store(amnesiac_isa::DATA_BASE + 1);
        assert_eq!(m.account.count(Category::Store), 1);
        assert!((m.account.energy(Category::Store) - 62.14).abs() < 1e-9);
    }

    #[test]
    fn probe_sees_residency_without_charging() {
        let mut m = machine();
        let base = amnesiac_isa::DATA_BASE;
        assert_eq!(m.probe(base), ServiceLevel::Mem);
        m.load(base);
        let before = m.account.clone();
        assert_eq!(m.probe(base), ServiceLevel::L1);
        assert_eq!(m.account, before, "a probe is free");
    }

    #[test]
    fn charge_op_uses_epi_table() {
        let mut m = machine();
        m.charge_op(Category::Fma);
        assert_eq!(m.account.count(Category::Fma), 1);
        assert_eq!(m.account.cycles(), 1);
    }

    #[test]
    fn fetch_models_l1i_misses_then_hits() {
        let mut m = machine();
        m.fetch(0); // cold: line fill from memory
        let cold_cycles = m.account.cycles();
        assert!(cold_cycles >= 109);
        assert_eq!(m.account.event_count(UarchEvent::IFetchMem), 1);
        m.fetch(1); // same 64B line: 8 slots per line
        assert_eq!(m.account.cycles(), cold_cycles, "line hit adds no stall");
    }
}
