//! A single set-associative, write-back, LRU cache.

/// Whether an access reads or writes the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read access (load or instruction fetch).
    Read,
    /// A write access (store or write-back fill from an upper level).
    Write,
}

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `ways * line_bytes * n_sets`.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line (block) size in bytes. Must be a power of two.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `ways * line_bytes`, or `line_bytes` not a power of two).
    pub fn n_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(
            self.ways > 0 && self.size_bytes.is_multiple_of(self.ways * self.line_bytes),
            "inconsistent cache geometry: {self:?}"
        );
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }

    /// L1 instruction cache of the paper's Table 3: 32 KB, 4-way, 64 B lines.
    pub fn paper_l1i() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// L1 data cache of the paper's Table 3: 32 KB, 8-way, 64 B lines.
    pub fn paper_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Unified L2 of the paper's Table 3: 512 KB, 8-way, 64 B lines.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotone timestamp of last use; smallest = LRU victim.
    last_use: u64,
}

/// Outcome of a state-changing cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// `true` if the line was present before the access.
    pub hit: bool,
    /// Byte address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// A set-associative, write-back, write-allocate, true-LRU cache.
///
/// The cache tracks tags only (data values live in the simulator's flat
/// memory image); this is exactly the information needed for service-level
/// and energy accounting. Line size and set count are powers of two
/// ([`CacheConfig::n_sets`] asserts it), so line, set and tag are shifts
/// and a mask of the address.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Line>,
    /// `log2(line_bytes)`: byte address → line number.
    line_shift: u32,
    /// `log2(n_sets)`: line number → tag.
    set_shift: u32,
    /// `n_sets - 1`: line number → set.
    set_mask: u64,
    clock: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let n_sets = config.n_sets();
        Cache {
            config,
            sets: vec![Line::default(); n_sets * config.ways],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: n_sets.trailing_zeros(),
            set_mask: n_sets as u64 - 1,
            clock: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line number of byte address `addr`.
    #[inline]
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn line_addr(&self, addr: u64) -> (usize, u64) {
        let line = self.line_of(addr);
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    fn set_lines(&mut self, set: usize) -> &mut [Line] {
        let w = self.config.ways;
        &mut self.sets[set * w..(set + 1) * w]
    }

    /// Performs an access, allocating the line on miss (write-allocate) and
    /// returning whether it hit and any dirty eviction.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> CacheAccess {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag) = self.line_addr(addr);
        let (line_shift, set_shift) = (self.line_shift, self.set_shift);
        let lines = self.set_lines(set);

        if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = clock;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        // miss: pick victim = invalid line, else true-LRU
        let victim = lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_use } else { 0 })
            .expect("ways > 0");
        let writeback = if victim.valid && victim.dirty {
            // reconstruct the victim's byte address from tag and set
            Some(((victim.tag << set_shift) | set as u64) << line_shift)
        } else {
            None
        };
        *victim = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            last_use: clock,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Tag-only residency check; never changes cache state.
    pub fn peek(&self, addr: u64) -> bool {
        let (set, tag) = self.line_addr(addr);
        let w = self.config.ways;
        self.sets[set * w..(set + 1) * w]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the line containing `addr` (without write-back); returns
    /// `true` if a line was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.line_addr(addr);
        let lines = self.set_lines(set);
        if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.valid = false;
            line.dirty = false;
            true
        } else {
            false
        }
    }

    /// Number of currently valid lines (for occupancy assertions in tests).
    pub fn valid_lines(&self) -> usize {
        self.sets.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64B lines = 256B
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn paper_geometries_are_consistent() {
        assert_eq!(CacheConfig::paper_l1i().n_sets(), 128);
        assert_eq!(CacheConfig::paper_l1d().n_sets(), 64);
        assert_eq!(CacheConfig::paper_l2().n_sets(), 1024);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, AccessKind::Read).hit);
        assert!(c.access(0, AccessKind::Read).hit);
        assert!(c.access(63, AccessKind::Read).hit, "same line");
        assert!(!c.access(64, AccessKind::Read).hit, "next line, other set");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // set 0 holds lines with addresses ≡ 0 (mod 128): 0, 128, 256, …
        c.access(0, AccessKind::Read);
        c.access(128, AccessKind::Read);
        c.access(0, AccessKind::Read); // 0 is now MRU
        c.access(256, AccessKind::Read); // evicts 128
        assert!(c.peek(0));
        assert!(!c.peek(128));
        assert!(c.peek(256));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(128, AccessKind::Read);
        let out = c.access(256, AccessKind::Read); // evicts dirty line 0
        assert_eq!(out.writeback, Some(0));
        // clean eviction reports none
        let out = c.access(384, AccessKind::Read); // evicts clean 128
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write);
        c.access(128, AccessKind::Read);
        let out = c.access(256, AccessKind::Read); // evict line 0, now dirty
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn peek_does_not_change_state() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(128, AccessKind::Read);
        // peek 128 must NOT refresh its LRU position
        assert!(c.peek(128));
        assert!(c.peek(0));
        c.access(0, AccessKind::Read); // 0 MRU regardless
        c.access(256, AccessKind::Read); // must evict 128, not 0
        assert!(c.peek(0));
        assert!(!c.peek(128));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        assert!(c.invalidate(0));
        assert!(!c.peek(0));
        assert!(!c.invalidate(0), "second invalidate is a no-op");
        // and the dirty bit was dropped: refilling then evicting is clean
        c.access(0, AccessKind::Read);
        c.access(128, AccessKind::Read);
        assert_eq!(c.access(256, AccessKind::Read).writeback, None);
    }

    #[test]
    fn valid_line_count_tracks_occupancy() {
        let mut c = tiny();
        assert_eq!(c.valid_lines(), 0);
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        assert_eq!(c.valid_lines(), 2);
        c.access(0, AccessKind::Read);
        assert_eq!(c.valid_lines(), 2, "hits do not allocate");
    }

    #[test]
    #[should_panic(expected = "inconsistent cache geometry")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 64,
        });
    }
}
