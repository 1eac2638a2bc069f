//! Randomized tests: the set-associative cache must agree with a
//! brute-force reference model under arbitrary access streams. Driven by
//! the deterministic in-repo RNG (fixed seeds, reproducible corpus).

use amnesiac_mem::{AccessKind, Cache, CacheConfig, ServiceLevel};
use amnesiac_mem::{HierarchyConfig, MemoryHierarchy};
use amnesiac_rng::Rng;

const CASES: usize = 192;

/// Brute-force LRU write-back cache: a list of (line_addr, dirty) per set,
/// most-recently-used first.
struct RefCache {
    line_bytes: u64,
    n_sets: u64,
    ways: usize,
    sets: Vec<Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let n_sets = config.n_sets() as u64;
        RefCache {
            line_bytes: config.line_bytes as u64,
            n_sets,
            ways: config.ways,
            sets: vec![Vec::new(); n_sets as usize],
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.n_sets) as usize
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// Returns (hit, writeback address).
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        let set = self.set_of(addr);
        let line = self.line_of(addr);
        let ways = self.ways;
        let line_bytes = self.line_bytes;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&(l, _)| l == line) {
            let (l, dirty) = entries.remove(pos);
            entries.insert(0, (l, dirty || write));
            return (true, None);
        }
        let mut writeback = None;
        if entries.len() == ways {
            let (victim, dirty) = entries.pop().expect("full set");
            if dirty {
                writeback = Some(victim * line_bytes);
            }
        }
        entries.insert(0, (line, write));
        (false, writeback)
    }

    fn peek(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let line = self.line_of(addr);
        self.sets[set].iter().any(|&(l, _)| l == line)
    }
}

fn access_kind(write: bool) -> AccessKind {
    if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

fn stream(r: &mut Rng, addr_bound: u64, min_len: usize, max_len: usize) -> Vec<(u64, bool)> {
    (0..r.range_usize(min_len, max_len))
        .map(|_| (r.below(addr_bound), r.bool()))
        .collect()
}

fn cache(size_bytes: usize, ways: usize, line_bytes: usize) -> CacheConfig {
    CacheConfig {
        size_bytes,
        ways,
        line_bytes,
    }
}

/// Cache geometries under test: 1, 2 and 8 ways; 8- and 64-byte lines;
/// 1 to 1,024 sets, including the paper's L1-D and L2.
fn geometries() -> [CacheConfig; 8] {
    [
        cache(8, 1, 8),
        cache(16, 2, 8),
        cache(512, 2, 64),
        cache(1024, 8, 8),
        cache(64 * 1024, 1, 64),
        cache(8 * 1024, 8, 8),
        CacheConfig::paper_l1d(),
        CacheConfig::paper_l2(),
    ]
}

/// An address for `config`: near the bottom or the top of the 64-bit space,
/// a line that conflicts with others in one of a few sets, anywhere at all,
/// or one already used.
fn address(r: &mut Rng, config: CacheConfig, seen: &[u64]) -> u64 {
    let size = config.size_bytes as u64;
    let line = config.line_bytes as u64;
    // bytes between two lines of the same set
    let way_stride = size / config.ways as u64;
    let conflict = r.below(4) * line + r.below(2 * config.ways as u64 + 1) * way_stride;
    match r.below(6) {
        0 if !seen.is_empty() => *r.choose(seen),
        0 | 1 => r.below(4 * size),
        2 => conflict,
        3 => u64::MAX - r.below(4 * size),
        4 => u64::MAX - conflict,
        _ => r.next_u64(),
    }
}

/// A read/write stream over addresses drawn for any of `configs`.
fn geometry_stream(r: &mut Rng, configs: &[CacheConfig], max_len: usize) -> Vec<(u64, bool)> {
    let mut seen = Vec::new();
    (0..r.range_usize(1, max_len))
        .map(|_| {
            let config = *r.choose(configs);
            let addr = address(r, config, &seen);
            seen.push(addr);
            (addr, r.bool())
        })
        .collect()
}

/// Hit/miss, write-back addresses and residency all match the reference
/// model for every prefix of a random access stream, on every geometry.
#[test]
fn cache_matches_reference() {
    let mut r = Rng::seed_from_u64(0xCA);
    for config in geometries() {
        for _ in 0..CASES / 4 {
            let ops = geometry_stream(&mut r, &[config], 400);
            let mut dut = Cache::new(config);
            let mut reference = RefCache::new(config);
            for (i, &(addr, write)) in ops.iter().enumerate() {
                let got = dut.access(addr, access_kind(write));
                let (want_hit, want_wb) = reference.access(addr, write);
                let ctx = format!("{config:?} op {i} addr {addr:#x}");
                assert_eq!(got.hit, want_hit, "{ctx}");
                assert_eq!(got.writeback, want_wb, "{ctx}");
            }
            // final residency agrees everywhere touched
            for &(addr, _) in &ops {
                assert_eq!(dut.peek(addr), reference.peek(addr), "{config:?}");
            }
        }
    }
}

/// Occupancy never exceeds capacity, and peek never disturbs state
/// (interleaving peeks must not change hit/miss behaviour).
#[test]
fn peek_transparency() {
    let mut r = Rng::seed_from_u64(0xCB);
    for _ in 0..CASES {
        let ops = stream(&mut r, 2048, 1, 200);
        let config = CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        };
        let mut plain = Cache::new(config);
        let mut peeked = Cache::new(config);
        for &(addr, write) in &ops {
            // interleave heavy peeking on one of the two caches
            for probe in [0u64, 64, 128, addr] {
                let _ = peeked.peek(probe);
            }
            let a = plain.access(addr, access_kind(write));
            let b = peeked.access(addr, access_kind(write));
            assert_eq!(a, b);
            assert!(plain.valid_lines() <= 4);
        }
    }
}

/// The full hierarchy never reports a nearer level than where the line
/// actually is, and peek agrees with a subsequent read's service level, on
/// every geometry.
#[test]
fn hierarchy_peek_predicts_read_level() {
    let mut r = Rng::seed_from_u64(0xCC);
    let small = HierarchyConfig {
        l1i: cache(128, 1, 64),
        l1d: cache(128, 1, 64),
        l2: cache(512, 2, 64),
        next_line_prefetch: false,
    };
    let tiny = HierarchyConfig {
        l1i: cache(8, 1, 8),
        l1d: cache(8, 1, 8),
        l2: cache(64, 2, 8),
        next_line_prefetch: false,
    };
    let narrow = HierarchyConfig {
        l1i: cache(1024, 8, 8),
        l1d: cache(1024, 8, 8),
        l2: cache(8 * 1024, 8, 8),
        next_line_prefetch: true,
    };
    let hierarchies = [
        small,
        tiny,
        HierarchyConfig {
            next_line_prefetch: true,
            ..tiny
        },
        narrow,
        HierarchyConfig::paper(),
        HierarchyConfig::paper_with_prefetch(),
    ];
    for config in hierarchies {
        for _ in 0..CASES / 4 {
            let ops = geometry_stream(&mut r, &[config.l1d, config.l2], 300);
            let mut m = MemoryHierarchy::new(config);
            for &(addr, write) in &ops {
                let predicted = m.peek_data(addr);
                let got = if write {
                    m.write_data(addr)
                } else {
                    m.read_data(addr)
                };
                assert_eq!(
                    got.level, predicted,
                    "{config:?}: peek said {predicted:?} but {addr:#x} was serviced at {:?}",
                    got.level
                );
            }
            // loads + stores recorded = ops issued
            let s = m.stats();
            assert_eq!(s.loads.total() + s.stores.total(), ops.len() as u64);
        }
    }
}

/// After any access the line is L1-resident.
#[test]
fn accessed_line_becomes_l1_resident() {
    let mut r = Rng::seed_from_u64(0xCD);
    for _ in 0..CASES {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper());
        for _ in 0..r.range_usize(1, 200) {
            let addr = r.below(8192);
            m.read_data(addr);
            assert_eq!(m.peek_data(addr), ServiceLevel::L1);
        }
    }
}

/// With the next-line prefetcher, every L1 load miss leaves BOTH the
/// accessed line and its successor L1-resident, and the prefetch
/// source level is reported whenever one was issued.
#[test]
fn prefetcher_invariants() {
    let mut r = Rng::seed_from_u64(0xCE);
    for _ in 0..CASES {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper_with_prefetch());
        let mut issued = 0u64;
        for _ in 0..r.range_usize(1, 200) {
            let addr = r.below(8192);
            let access = m.read_data(addr);
            assert_eq!(m.peek_data(addr), ServiceLevel::L1);
            if access.level != ServiceLevel::L1 {
                assert_eq!(m.peek_data(addr + 64), ServiceLevel::L1);
            }
            if access.prefetch_from.is_some() {
                issued += 1;
                assert!(
                    access.level != ServiceLevel::L1,
                    "prefetches only trigger on misses"
                );
            }
        }
        assert_eq!(m.stats().prefetches, issued);
    }
}
