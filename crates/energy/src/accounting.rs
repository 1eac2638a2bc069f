//! Run-level energy, time, and EDP accounting.

use amnesiac_isa::Category;
use amnesiac_telemetry::{Json, ToJson};

/// Microarchitectural energy events outside the per-instruction EPI table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UarchEvent {
    /// Leaf operand fetch from `Hist` (charged to the Table 4 "Hist Read"
    /// column).
    HistRead,
    /// `REC` checkpoint write into `Hist` (charged as part of the `REC`
    /// instruction itself; kept for occupancy reporting).
    HistWrite,
    /// `SFile` read or write during slice traversal.
    SFileAccess,
    /// Recomputing-instruction fetch serviced by `IBuff`.
    IBuffRead,
    /// A slice body filled into `IBuff` on an `IBuff` miss: one event per
    /// fill, not per instruction (the body's instructions are fetched
    /// through L1-I and charged there).
    IBuffFill,
    /// L1 tag probe (FLC/LLC policy overhead).
    ProbeL1,
    /// L2 tag probe (LLC policy overhead).
    ProbeL2,
    /// Dirty line written back L1 → L2.
    WritebackL1,
    /// Dirty line written back L2 → memory.
    WritebackL2,
    /// Instruction-fetch line fill serviced by L2 (L1-I miss).
    IFetchL2,
    /// Instruction-fetch line fill serviced by main memory.
    IFetchMem,
    /// Next-line data prefetch fill (charged at its source level's access
    /// energy; latency overlaps).
    Prefetch,
}

impl UarchEvent {
    /// All events, in declaration order (the account's slot order).
    pub const ALL: [UarchEvent; 12] = [
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
}

/// The paper's Table 4 energy breakdown: shares of total energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// % of total energy consumed by loads (incl. `RCMP`-performed loads).
    pub load_pct: f64,
    /// % consumed by stores (incl. write-backs).
    pub store_pct: f64,
    /// % consumed by all other instructions and structures.
    pub non_mem_pct: f64,
    /// % consumed by `Hist` reads (a sub-share reported separately in
    /// Table 4; included in `non_mem_pct`'s complement accounting below).
    pub hist_read_pct: f64,
}

/// One account slot: dynamic count and energy (nJ).
type Slot = (u64, f64);

/// Accumulates energy (nJ) and time (cycles) over a run.
///
/// Slots are dense arrays indexed by the enum discriminant. A slot with a
/// zero count was never recorded, and totals and the JSON skip it; each
/// recorded slot sums its charges in call order. Every figure therefore has
/// the bit pattern of a per-key map summed in call order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccount {
    by_category: [Slot; Category::ALL.len()],
    by_event: [Slot; UarchEvent::ALL.len()],
    cycles: u64,
}

impl EnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one dynamic instruction of `category` costing `nj`.
    #[inline]
    pub fn record(&mut self, category: Category, nj: f64) {
        let slot = &mut self.by_category[category as usize];
        slot.0 += 1;
        slot.1 += nj;
    }

    /// Records a microarchitectural event costing `nj`.
    #[inline]
    pub fn record_event(&mut self, event: UarchEvent, nj: f64) {
        let slot = &mut self.by_event[event as usize];
        slot.0 += 1;
        slot.1 += nj;
    }

    /// Advances simulated time by `cycles`.
    #[inline]
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Retracts `cycles` from the elapsed time — used when work previously
    /// charged turns out to overlap with other execution (e.g. offloaded
    /// recomputation on a helper core). Saturates at zero.
    #[inline]
    pub fn add_cycles_saved(&mut self, cycles: u64) {
        self.cycles = self.cycles.saturating_sub(cycles);
    }

    /// Total simulated time in cycles.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Recorded categories with their slots, in enum order.
    fn categories(&self) -> impl Iterator<Item = (Category, Slot)> + '_ {
        Category::ALL
            .into_iter()
            .zip(self.by_category)
            .filter(|&(_, (n, _))| n > 0)
    }

    /// Recorded events with their slots, in enum order.
    fn events(&self) -> impl Iterator<Item = (UarchEvent, Slot)> + '_ {
        UarchEvent::ALL
            .into_iter()
            .zip(self.by_event)
            .filter(|&(_, (n, _))| n > 0)
    }

    /// Dynamic instruction count of one category.
    pub fn count(&self, category: Category) -> u64 {
        self.by_category[category as usize].0
    }

    /// Energy (nJ) attributed to one category.
    pub fn energy(&self, category: Category) -> f64 {
        self.by_category[category as usize].1
    }

    /// Event count.
    pub fn event_count(&self, event: UarchEvent) -> u64 {
        self.by_event[event as usize].0
    }

    /// Energy (nJ) attributed to one event class.
    pub fn event_energy(&self, event: UarchEvent) -> f64 {
        self.by_event[event as usize].1
    }

    /// Total dynamic instruction count (events excluded).
    pub fn total_instructions(&self) -> u64 {
        self.by_category.iter().map(|s| s.0).sum()
    }

    /// Total energy in nanojoules (instructions + events).
    pub fn total_nj(&self) -> f64 {
        self.categories().map(|(_, s)| s.1).sum::<f64>()
            + self.events().map(|(_, s)| s.1).sum::<f64>()
    }

    /// Energy-delay product in nJ·cycles — the paper's efficiency proxy.
    pub fn edp(&self) -> f64 {
        self.total_nj() * self.cycles as f64
    }

    /// The Table 4 breakdown. Store energy includes write-back traffic;
    /// load energy includes loads performed by `RCMP` (recorded under
    /// [`Category::Load`] by the executors).
    pub fn breakdown(&self) -> EnergyBreakdown {
        let total = self.total_nj();
        if total == 0.0 {
            return EnergyBreakdown {
                load_pct: 0.0,
                store_pct: 0.0,
                non_mem_pct: 0.0,
                hist_read_pct: 0.0,
            };
        }
        let load = self.energy(Category::Load);
        let store = self.energy(Category::Store)
            + self.event_energy(UarchEvent::WritebackL1)
            + self.event_energy(UarchEvent::WritebackL2);
        let hist = self.event_energy(UarchEvent::HistRead);
        let non_mem = total - load - store - hist;
        EnergyBreakdown {
            load_pct: 100.0 * load / total,
            store_pct: 100.0 * store / total,
            non_mem_pct: 100.0 * non_mem / total,
            hist_read_pct: 100.0 * hist / total,
        }
    }
}

impl ToJson for EnergyBreakdown {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("load_pct", self.load_pct)
            .with("store_pct", self.store_pct)
            .with("non_mem_pct", self.non_mem_pct)
            .with("hist_read_pct", self.hist_read_pct)
    }
}

impl ToJson for EnergyAccount {
    /// Full account: totals, the Table 4 breakdown, and per-category /
    /// per-event `{count, nj}` maps (keys are the enum variant names).
    fn to_json(&self) -> Json {
        let mut by_category = Json::obj();
        for (c, (n, nj)) in self.categories() {
            by_category.set(
                &format!("{c:?}"),
                Json::obj().with("count", n).with("nj", nj),
            );
        }
        let mut by_event = Json::obj();
        for (ev, (n, nj)) in self.events() {
            by_event.set(
                &format!("{ev:?}"),
                Json::obj().with("count", n).with("nj", nj),
            );
        }
        Json::obj()
            .with("cycles", self.cycles)
            .with("total_nj", self.total_nj())
            .with("edp_nj_cycles", self.edp())
            .with("total_instructions", self.total_instructions())
            .with("breakdown", self.breakdown().to_json())
            .with("by_category", by_category)
            .with("by_event", by_event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_energy_and_cycles() {
        let mut a = EnergyAccount::new();
        a.record(Category::IntAlu, 0.35);
        a.record(Category::IntAlu, 0.35);
        a.record(Category::Load, 52.14);
        a.record_event(UarchEvent::HistRead, 0.88);
        a.add_cycles(10);
        assert_eq!(a.count(Category::IntAlu), 2);
        assert_eq!(a.count(Category::Load), 1);
        assert_eq!(a.event_count(UarchEvent::HistRead), 1);
        assert_eq!(a.total_instructions(), 3);
        assert!((a.total_nj() - (0.7 + 52.14 + 0.88)).abs() < 1e-12);
        assert_eq!(a.cycles(), 10);
        assert!((a.edp() - a.total_nj() * 10.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums_to_100_percent() {
        let mut a = EnergyAccount::new();
        a.record(Category::Load, 80.0);
        a.record(Category::Store, 10.0);
        a.record(Category::IntAlu, 5.0);
        a.record_event(UarchEvent::HistRead, 3.0);
        a.record_event(UarchEvent::WritebackL2, 2.0);
        let b = a.breakdown();
        let sum = b.load_pct + b.store_pct + b.non_mem_pct + b.hist_read_pct;
        assert!(
            (sum - 100.0).abs() < 1e-9,
            "breakdown sums to 100, got {sum}"
        );
        assert!((b.load_pct - 80.0).abs() < 1e-9);
        assert!(
            (b.store_pct - 12.0).abs() < 1e-9,
            "write-backs count as stores"
        );
        assert!((b.hist_read_pct - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = EnergyAccount::new().breakdown();
        assert_eq!(b.load_pct, 0.0);
        assert_eq!(b.store_pct, 0.0);
    }
}
