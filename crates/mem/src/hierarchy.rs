//! The multi-level memory hierarchy: L1-I + L1-D backed by a unified L2,
//! backed by main memory.

use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::stats::HierarchyStats;
use crate::{wrapping_addr, ServiceLevel};

/// Geometry of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Enable a next-line data prefetcher: every L1-D load miss also pulls
    /// the following line into L1 (tagged prefetch, the baseline the
    /// paper's related work compares against via Mowry et al.). Off in the
    /// paper configuration.
    pub next_line_prefetch: bool,
}

impl HierarchyConfig {
    /// The paper's Table 3 configuration.
    pub fn paper() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::paper_l1i(),
            l1d: CacheConfig::paper_l1d(),
            l2: CacheConfig::paper_l2(),
            next_line_prefetch: false,
        }
    }

    /// The paper configuration plus the next-line prefetcher.
    pub fn paper_with_prefetch() -> Self {
        HierarchyConfig {
            next_line_prefetch: true,
            ..Self::paper()
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Level that serviced the access.
    pub level: ServiceLevel,
    /// Dirty lines written back from L1 to L2 during fills.
    pub l1_writebacks: u32,
    /// Dirty lines written back from L2 to main memory during fills.
    pub l2_writebacks: u32,
    /// Level a next-line prefetch was filled from, if one was issued.
    pub prefetch_from: Option<ServiceLevel>,
}

impl Access {
    fn at(level: ServiceLevel) -> Self {
        Access {
            level,
            l1_writebacks: 0,
            l2_writebacks: 0,
            prefetch_from: None,
        }
    }
}

/// The simulated memory hierarchy (tags and statistics only; data values
/// live in the simulator's flat memory image).
///
/// Inclusion is not enforced (non-inclusive, like most real L2s): L1 fills
/// allocate in both L1 and L2, but L2 evictions do not invalidate L1.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    stats: HierarchyStats,
    next_line_prefetch: bool,
    /// Line number of the most recent instruction fetch ([`NO_LINE`] if
    /// none). Only fetches touch L1-I, so this line is still resident and
    /// MRU in its set: a repeat fetch of it *must* hit and can skip the
    /// cache model entirely (see [`MemoryHierarchy::fetch_inst`]).
    fetch_memo: u64,
    /// Line number of the most recent data access ([`NO_LINE`] if none, or
    /// if a prefetch fill may have evicted it). Same reasoning as
    /// `fetch_memo` over L1-D.
    data_memo: u64,
    /// Whether `data_memo`'s line is known dirty (a repeat *store* may only
    /// shortcut when the dirty bit is already set; conservatively false).
    data_memo_dirty: bool,
}

/// Sentinel for an empty access memo.
const NO_LINE: u64 = u64::MAX;

impl MemoryHierarchy {
    /// Creates an empty (all-cold) hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            stats: HierarchyStats::default(),
            next_line_prefetch: config.next_line_prefetch,
            fetch_memo: NO_LINE,
            data_memo: NO_LINE,
            data_memo_dirty: false,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Data read at `byte_addr`; walks L1-D → L2 → memory, filling on the
    /// way back. With the next-line prefetcher enabled, an L1 miss also
    /// pulls the following line into L1 (its fill source is reported in
    /// [`Access::prefetch_from`] so the energy model can charge it).
    #[inline]
    pub fn read_data(&mut self, byte_addr: u64) -> Access {
        let line = self.l1d.line_of(byte_addr);
        if line == self.data_memo {
            // Repeat access to the last-touched data line: it is resident
            // and already MRU in its set (only data accesses touch L1-D),
            // so the full model could only report an L1 hit and re-stamp a
            // line whose relative LRU order cannot change. Skip it.
            let access = Access::at(ServiceLevel::L1);
            self.stats.record_load(access);
            return access;
        }
        let mut access = self.data_access(byte_addr, AccessKind::Read);
        if self.next_line_prefetch && access.level != ServiceLevel::L1 {
            let next_line = wrapping_addr(byte_addr, 1, self.l1d.config().line_bytes as u64);
            if !self.l1d.peek(next_line) {
                let fill = self.data_access(next_line, AccessKind::Read);
                access.l1_writebacks += fill.l1_writebacks;
                access.l2_writebacks += fill.l2_writebacks;
                access.prefetch_from = Some(fill.level);
                self.stats.prefetches += 1;
            }
        }
        // A prefetch fill may map to any set (including the just-filled
        // line's, for degenerate single-set geometries) — don't trust the
        // memo after one.
        if access.prefetch_from.is_some() {
            self.data_memo = NO_LINE;
        } else {
            self.data_memo = line;
            // On a hit the line's dirty bit is unknown from here; false is
            // the safe side (a later store then takes the full path).
            self.data_memo_dirty = false;
        }
        self.stats.record_load(access);
        access
    }

    /// Data write at `byte_addr` (write-back, write-allocate).
    #[inline]
    pub fn write_data(&mut self, byte_addr: u64) -> Access {
        let line = self.l1d.line_of(byte_addr);
        if line == self.data_memo && self.data_memo_dirty {
            // Repeat store to the last-touched line with the dirty bit
            // already set: the full model would hit, re-dirty, and re-stamp
            // the MRU line — all no-ops. Skip it.
            let access = Access::at(ServiceLevel::L1);
            self.stats.record_store(access);
            return access;
        }
        let access = self.data_access(byte_addr, AccessKind::Write);
        // Hit or write-allocate fill, the line is now resident and dirty.
        self.data_memo = line;
        self.data_memo_dirty = true;
        self.stats.record_store(access);
        access
    }

    /// Instruction fetch at `byte_addr`; walks L1-I → L2 → memory.
    #[inline]
    pub fn fetch_inst(&mut self, byte_addr: u64) -> Access {
        let line = self.l1i.line_of(byte_addr);
        if line == self.fetch_memo {
            // Straight-line fetch within the last-touched I-line: resident
            // and MRU (only fetches touch L1-I) — a guaranteed L1 hit.
            let access = Access::at(ServiceLevel::L1);
            self.stats.record_fetch(access);
            return access;
        }
        self.fetch_memo = line;
        let mut access;
        let l1 = self.l1i.access(byte_addr, AccessKind::Read);
        if l1.hit {
            access = Access::at(ServiceLevel::L1);
        } else {
            let l2 = self.l2.access(byte_addr, AccessKind::Read);
            access = Access::at(if l2.hit {
                ServiceLevel::L2
            } else {
                ServiceLevel::Mem
            });
            if l2.writeback.is_some() {
                access.l2_writebacks += 1;
            }
            // L1-I lines are never dirty; no write-back from L1-I.
            debug_assert!(l1.writeback.is_none());
        }
        self.stats.record_fetch(access);
        access
    }

    /// Side-effect-free residency query: where would a data access to
    /// `byte_addr` be serviced right now?
    #[inline]
    pub fn peek_data(&self, byte_addr: u64) -> ServiceLevel {
        if self.l1d.peek(byte_addr) {
            ServiceLevel::L1
        } else if self.l2.peek(byte_addr) {
            ServiceLevel::L2
        } else {
            ServiceLevel::Mem
        }
    }

    fn data_access(&mut self, byte_addr: u64, kind: AccessKind) -> Access {
        let l1 = self.l1d.access(byte_addr, kind);
        if l1.hit {
            return Access::at(ServiceLevel::L1);
        }
        let mut access;
        let l2 = self.l2.access(byte_addr, AccessKind::Read);
        access = Access::at(if l2.hit {
            ServiceLevel::L2
        } else {
            ServiceLevel::Mem
        });
        if l2.writeback.is_some() {
            access.l2_writebacks += 1;
        }
        // dirty line displaced from L1 is written into L2
        if let Some(victim_addr) = l1.writeback {
            access.l1_writebacks += 1;
            let wb = self.l2.access(victim_addr, AccessKind::Write);
            if wb.writeback.is_some() {
                access.l2_writebacks += 1;
            }
        }
        access
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemoryHierarchy {
        // tiny hierarchy: L1 128B (2 sets × 1 way), L2 512B (4 sets × 2 ways)
        MemoryHierarchy::new(HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 128,
                ways: 1,
                line_bytes: 64,
            },
            l1d: CacheConfig {
                size_bytes: 128,
                ways: 1,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 64,
            },
            next_line_prefetch: false,
        })
    }

    #[test]
    fn read_walks_down_then_hits_near() {
        let mut m = small();
        assert_eq!(m.read_data(0).level, ServiceLevel::Mem);
        assert_eq!(m.read_data(0).level, ServiceLevel::L1);
    }

    #[test]
    fn l1_eviction_leaves_line_in_l2() {
        let mut m = small();
        m.read_data(0);
        m.read_data(128); // same L1 set (1-way), evicts 0 from L1; both in L2
        assert_eq!(m.read_data(0).level, ServiceLevel::L2);
    }

    #[test]
    fn dirty_l1_eviction_writes_back_into_l2() {
        let mut m = small();
        m.write_data(0);
        let a = m.read_data(128); // displaces dirty line 0
        assert_eq!(a.l1_writebacks, 1);
        // line 0 still L2-resident (write-back kept it warm)
        assert_eq!(m.peek_data(0), ServiceLevel::L2);
    }

    #[test]
    fn l2_dirty_eviction_counts_memory_writeback() {
        let mut m = small();
        // fill L2 set 0 (addresses ≡ 0 mod 256) with dirty lines: 0, 256
        m.write_data(0);
        m.write_data(64); // displace 0 from L1 (dirty) → L2 write
        m.write_data(256);
        m.write_data(320); // displace 256 → L2 write
                           // now L2 set 0 holds dirty 0 and 256; touch 512 → dirty eviction
        let a = m.read_data(512);
        assert_eq!(a.level, ServiceLevel::Mem);
        assert!(
            a.l2_writebacks >= 1,
            "dirty L2 victim must be written to memory"
        );
    }

    #[test]
    fn fetch_uses_l1i_not_l1d() {
        let mut m = small();
        assert_eq!(m.fetch_inst(0).level, ServiceLevel::Mem);
        assert_eq!(m.fetch_inst(0).level, ServiceLevel::L1);
        // the data side is unaffected but L2 now holds the line
        assert_eq!(m.peek_data(0), ServiceLevel::L2);
    }

    #[test]
    fn peek_is_side_effect_free() {
        let mut m = small();
        m.read_data(0);
        let before = m.stats().clone();
        for _ in 0..10 {
            assert_eq!(m.peek_data(0), ServiceLevel::L1);
            assert_eq!(m.peek_data(4096), ServiceLevel::Mem);
        }
        assert_eq!(m.stats(), &before, "peek must not record stats");
        assert_eq!(m.read_data(0).level, ServiceLevel::L1);
    }

    #[test]
    fn next_line_prefetch_pulls_the_following_line() {
        let mut m = MemoryHierarchy::new(HierarchyConfig {
            next_line_prefetch: true,
            ..HierarchyConfig::paper()
        });
        let access = m.read_data(0);
        assert_eq!(access.level, ServiceLevel::Mem);
        assert_eq!(access.prefetch_from, Some(ServiceLevel::Mem));
        assert_eq!(m.stats().prefetches, 1);
        // the next line is already L1-resident: a streaming read hits
        assert_eq!(m.peek_data(64), ServiceLevel::L1);
        let access = m.read_data(64);
        assert_eq!(access.level, ServiceLevel::L1);
        assert_eq!(access.prefetch_from, None, "hits do not prefetch");
    }

    #[test]
    fn prefetcher_off_by_default_changes_nothing() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper());
        m.read_data(0);
        assert_eq!(m.stats().prefetches, 0);
        assert_eq!(m.peek_data(64), ServiceLevel::Mem);
    }

    #[test]
    fn repeat_same_line_reads_count_as_l1_hits() {
        let mut m = small();
        m.read_data(0); // Mem
        for _ in 0..5 {
            assert_eq!(m.read_data(8).level, ServiceLevel::L1); // same 64B line
        }
        assert_eq!(m.stats().loads.total(), 6);
        assert_eq!(m.stats().loads.by_level[ServiceLevel::L1.index()], 5);
    }

    #[test]
    fn dirty_bit_survives_shortcut_reads_before_eviction() {
        let mut m = small();
        m.write_data(0); // line 0 dirty
        m.read_data(8); // same line: shortcut read must not lose dirtiness
        m.read_data(8);
        let a = m.read_data(128); // 1-way L1: evicts dirty line 0
        assert_eq!(a.l1_writebacks, 1, "dirty victim still written back");
        assert_eq!(m.peek_data(0), ServiceLevel::L2);
    }

    #[test]
    fn store_after_clean_read_redirties_the_line() {
        let mut m = small();
        m.read_data(0); // clean fill
        m.write_data(8); // same line: must take the full path and set dirty
        let a = m.read_data(128); // evict it
        assert_eq!(a.l1_writebacks, 1, "the store dirtied the line");
    }

    #[test]
    fn interleaved_fetch_and_data_keep_independent_memos() {
        let mut m = small();
        m.read_data(0);
        m.fetch_inst(0);
        // data memo survives the fetch (separate L1s), fetch memo survives
        // the data read
        assert_eq!(m.read_data(8).level, ServiceLevel::L1);
        assert_eq!(m.fetch_inst(8).level, ServiceLevel::L1);
        assert_eq!(m.stats().fetches.by_level[ServiceLevel::L1.index()], 1);
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut m = small();
        m.read_data(0);
        m.read_data(0);
        m.write_data(64);
        m.fetch_inst(0);
        let s = m.stats();
        assert_eq!(s.loads.total(), 2);
        assert_eq!(s.stores.total(), 1);
        assert_eq!(s.fetches.total(), 1);
        assert_eq!(s.loads.by_level[ServiceLevel::Mem.index()], 1);
        assert_eq!(s.loads.by_level[ServiceLevel::L1.index()], 1);
    }
}
