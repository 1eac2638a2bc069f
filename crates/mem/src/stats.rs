//! Hierarchy access statistics: per-class service-level counters used to
//! derive the paper's PrLi estimates (§3.1.1) and Table 5 profiles.

use amnesiac_telemetry::{Json, ToJson};

use crate::hierarchy::Access;
use crate::ServiceLevel;

/// Service-level counters for one access class (loads, stores, or fetches).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses serviced per level, indexed by [`ServiceLevel::index`].
    pub by_level: [u64; 3],
}

impl LevelStats {
    /// Records an access serviced at `level`.
    #[inline]
    pub fn record(&mut self, level: ServiceLevel) {
        self.by_level[level.index()] += 1;
    }

    /// Total accesses of this class.
    pub fn total(&self) -> u64 {
        self.by_level.iter().sum()
    }

    /// Fraction serviced at `level` (0 when no accesses were recorded).
    pub fn fraction(&self, level: ServiceLevel) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.by_level[level.index()] as f64 / total as f64
        }
    }

    /// The probability vector `PrLi` over `[L1, L2, Mem]` (uniform prior of
    /// all-L1 when empty, matching a compiler that has seen no profile).
    pub fn probabilities(&self) -> [f64; 3] {
        if self.total() == 0 {
            [1.0, 0.0, 0.0]
        } else {
            [
                self.fraction(ServiceLevel::L1),
                self.fraction(ServiceLevel::L2),
                self.fraction(ServiceLevel::Mem),
            ]
        }
    }
}

impl ToJson for LevelStats {
    /// `{"l1": n, "l2": n, "mem": n, "total": n}` — the service-level mix
    /// of one access class.
    fn to_json(&self) -> Json {
        Json::obj()
            .with("l1", self.by_level[ServiceLevel::L1.index()])
            .with("l2", self.by_level[ServiceLevel::L2.index()])
            .with("mem", self.by_level[ServiceLevel::Mem.index()])
            .with("total", self.total())
    }
}

/// Aggregate statistics for a [`crate::MemoryHierarchy`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Data loads.
    pub loads: LevelStats,
    /// Data stores.
    pub stores: LevelStats,
    /// Instruction fetches.
    pub fetches: LevelStats,
    /// Dirty L1 lines written back into L2.
    pub l1_writebacks: u64,
    /// Dirty L2 lines written back to main memory.
    pub l2_writebacks: u64,
    /// Next-line prefetches issued.
    pub prefetches: u64,
}

impl HierarchyStats {
    #[inline]
    pub(crate) fn record_load(&mut self, access: Access) {
        self.loads.record(access.level);
        self.record_writebacks(access);
    }

    #[inline]
    pub(crate) fn record_store(&mut self, access: Access) {
        self.stores.record(access.level);
        self.record_writebacks(access);
    }

    #[inline]
    pub(crate) fn record_fetch(&mut self, access: Access) {
        self.fetches.record(access.level);
        self.record_writebacks(access);
    }

    #[inline]
    fn record_writebacks(&mut self, access: Access) {
        self.l1_writebacks += access.l1_writebacks as u64;
        self.l2_writebacks += access.l2_writebacks as u64;
    }
}

impl ToJson for HierarchyStats {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("loads", self.loads.to_json())
            .with("stores", self.stores.to_json())
            .with("fetches", self.fetches.to_json())
            .with("l1_writebacks", self.l1_writebacks)
            .with("l2_writebacks", self.l2_writebacks)
            .with("prefetches", self.prefetches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_probabilities() {
        let mut s = LevelStats::default();
        s.record(ServiceLevel::L1);
        s.record(ServiceLevel::L1);
        s.record(ServiceLevel::L2);
        s.record(ServiceLevel::Mem);
        assert_eq!(s.total(), 4);
        assert_eq!(s.fraction(ServiceLevel::L1), 0.5);
        assert_eq!(s.fraction(ServiceLevel::L2), 0.25);
        let p = s.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_default_to_l1() {
        let s = LevelStats::default();
        assert_eq!(s.fraction(ServiceLevel::Mem), 0.0);
        assert_eq!(s.probabilities(), [1.0, 0.0, 0.0]);
    }
}
