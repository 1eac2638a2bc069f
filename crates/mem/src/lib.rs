#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-mem
//!
//! Set-associative cache and memory-hierarchy simulator.
//!
//! Models the paper's Table 3 configuration: L1-I 32 KB 4-way, L1-D 32 KB
//! 8-way (LRU, write-back), a unified L2 of 512 KB 8-way (LRU, write-back),
//! and main memory. The hierarchy reports at which level each access was
//! serviced ([`ServiceLevel`]); energy and latency conversion lives in
//! `amnesiac-energy`.
//!
//! Two access surfaces matter for amnesic execution:
//!
//! * [`MemoryHierarchy::read_data`] / [`MemoryHierarchy::write_data`] /
//!   [`MemoryHierarchy::fetch_inst`] — state-changing accesses used by the
//!   simulator;
//! * [`MemoryHierarchy::peek_data`] — a side-effect-free residency query used
//!   by the `Oracle` and `C-Oracle` policies and by cache *probes* under the
//!   `FLC`/`LLC` policies. A probe only checks tags; it does not fill lines
//!   or touch LRU state, so skipped loads genuinely forgo their locality
//!   benefit (the temporal-locality degradation discussed in the paper §5).
//!
//! ```
//! use amnesiac_mem::{MemoryHierarchy, HierarchyConfig, ServiceLevel};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::paper());
//! // cold miss goes to main memory …
//! assert_eq!(mem.read_data(0x1000).level, ServiceLevel::Mem);
//! // … and is then L1-resident.
//! assert_eq!(mem.read_data(0x1000).level, ServiceLevel::L1);
//! ```

mod cache;
mod fasthash;
mod hierarchy;
mod paged;
mod stats;

pub use cache::{AccessKind, Cache, CacheConfig};
pub use fasthash::{hash128, BuildFoldHasher, FastMap, FoldHasher};
pub use hierarchy::{Access, HierarchyConfig, MemoryHierarchy};
pub use paged::{PagedMem, PAGE_SHIFT, PAGE_WORDS};
pub use stats::{HierarchyStats, LevelStats};

/// Bytes per data word and per instruction slot.
pub const WORD_BYTES: u64 = 8;

/// Byte address `count` strides of `stride` bytes past `base`.
///
/// Every address the simulator hands to the hierarchy is formed here: word
/// and instruction-slot indices scale to bytes (`stride` = [`WORD_BYTES`]),
/// and the next-line prefetcher steps one line on (`count` = 1). Word
/// addresses are raw 64-bit register values, so the arithmetic wraps —
/// what a release build already did, made explicit so a debug build
/// computes the same address instead of panicking.
#[inline]
pub fn wrapping_addr(base: u64, count: u64, stride: u64) -> u64 {
    base.wrapping_add(count.wrapping_mul(stride))
}

/// The level of the memory hierarchy that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceLevel {
    /// First-level cache (L1-D for data, L1-I for instructions).
    L1,
    /// Unified second-level cache.
    L2,
    /// Main memory (off-chip).
    Mem,
}

impl ServiceLevel {
    /// All levels, nearest first.
    pub const ALL: [ServiceLevel; 3] = [ServiceLevel::L1, ServiceLevel::L2, ServiceLevel::Mem];

    /// Stable index (0 = L1, 1 = L2, 2 = Mem) for array-indexed statistics.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => 1,
            ServiceLevel::Mem => 2,
        }
    }
}

impl std::fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceLevel::L1 => write!(f, "L1"),
            ServiceLevel::L2 => write!(f, "L2"),
            ServiceLevel::Mem => write!(f, "Mem"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_level_ordering_and_index() {
        assert!(ServiceLevel::L1 < ServiceLevel::L2);
        assert!(ServiceLevel::L2 < ServiceLevel::Mem);
        assert_eq!(ServiceLevel::L1.index(), 0);
        assert_eq!(ServiceLevel::L2.index(), 1);
        assert_eq!(ServiceLevel::Mem.index(), 2);
        assert_eq!(ServiceLevel::ALL.len(), 3);
        assert_eq!(ServiceLevel::Mem.to_string(), "Mem");
    }
}
