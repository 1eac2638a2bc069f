//! A two-level sparse paged word store — the simulator's flat data memory.
//!
//! Every interpreter hot loop (classic core, amnesic core, validation
//! replay) reads or writes one data word per memory instruction. A
//! `HashMap<u64, u64>` pays a SipHash per word; [`PagedMem`] instead splits
//! the word address into a page number and a page offset, keeps pages in a
//! directory, and caches the two most recently touched pages (MRU order,
//! promote on hit) so loop-local accesses — including two-page patterns
//! like copy loops and slice traversals re-reading their `RCMP` line —
//! cost at most two comparisons and one indexed read.
//!
//! Pages are zero-filled on first touch, matching the simulators'
//! "uninitialised memory reads 0" semantics, so a [`PagedMem`] and a
//! `HashMap` defaulting to 0 are observationally identical (see the
//! equivalence property test in `tests/paged_mem_props.rs`).

use std::cell::Cell;

use crate::fasthash::FastMap;

/// log2 of the page size in words.
pub const PAGE_SHIFT: u32 = 12;

/// Words per page (4096 words = 32 KiB per page).
pub const PAGE_WORDS: usize = 1 << PAGE_SHIFT;

const OFFSET_MASK: u64 = (PAGE_WORDS as u64) - 1;

type Page = Box<[u64; PAGE_WORDS]>;

fn zero_page() -> Page {
    // Box::new([0; N]) may construct on the stack first; a zeroed Vec is
    // guaranteed heap-allocated (and uses calloc-style zeroing).
    vec![0u64; PAGE_WORDS]
        .into_boxed_slice()
        .try_into()
        .expect("length matches PAGE_WORDS")
}

/// A sparse word-addressed memory with two-level paging and a two-entry
/// MRU page cache.
///
/// Untouched words read as 0. Writing 0 to an untouched address allocates
/// its page but is otherwise indistinguishable from not writing at all.
///
/// ```
/// use amnesiac_mem::PagedMem;
///
/// let mut mem = PagedMem::new();
/// assert_eq!(mem.get(0x1000), 0);
/// mem.set(0x1000, 7);
/// assert_eq!(mem.get(0x1000), 7);
/// ```
#[derive(Clone, Default)]
pub struct PagedMem {
    /// Page number → index into `pages` (fixed-key folded-multiply hash:
    /// page numbers are simulator-internal, never attacker-controlled).
    directory: FastMap<u64, u32>,
    /// Allocated pages, each tagged with its page number.
    pages: Vec<(u64, Page)>,
    /// Indices into `pages` of the two most recently accessed pages,
    /// most-recent first (a `Cell` so reads refresh the cache too; per-word
    /// reads dominate the hot loops). A hit on the second entry promotes
    /// it, so two pages alternating stay cached with no directory probe.
    mru: Cell<[u32; 2]>,
}

impl PagedMem {
    /// Creates an empty memory (every word reads 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the word at `addr` (0 if never written).
    ///
    /// The inlined fast path probes only the front MRU entry, exactly the
    /// shape of the single-entry cache it replaced — keeping it this small
    /// is what lets the interpreters' load handlers inline it. The second
    /// entry and the directory live in the outlined cold path.
    #[inline]
    pub fn get(&self, addr: u64) -> u64 {
        let page_no = addr >> PAGE_SHIFT;
        let offset = (addr & OFFSET_MASK) as usize;
        if let Some((no, page)) = self.pages.get(self.mru.get()[0] as usize) {
            if *no == page_no {
                return page[offset];
            }
        }
        self.get_slow(page_no, offset)
    }

    /// Front-entry miss: probe the second MRU entry (promote on hit), then
    /// the directory.
    #[cold]
    fn get_slow(&self, page_no: u64, offset: usize) -> u64 {
        let [m0, m1] = self.mru.get();
        if let Some((no, page)) = self.pages.get(m1 as usize) {
            if *no == page_no {
                self.mru.set([m1, m0]);
                return page[offset];
            }
        }
        match self.directory.get(&page_no) {
            Some(&idx) => {
                self.mru.set([idx, m0]);
                self.pages[idx as usize].1[offset]
            }
            None => 0,
        }
    }

    /// Writes the word at `addr`, allocating its page on first touch.
    ///
    /// Fast path mirrors [`PagedMem::get`]: front MRU entry only; second
    /// entry, directory, and allocation are outlined.
    #[inline]
    pub fn set(&mut self, addr: u64, value: u64) {
        let page_no = addr >> PAGE_SHIFT;
        let offset = (addr & OFFSET_MASK) as usize;
        if let Some((no, page)) = self.pages.get_mut(self.mru.get()[0] as usize) {
            if *no == page_no {
                page[offset] = value;
                return;
            }
        }
        self.set_slow(page_no, offset, value);
    }

    /// Front-entry miss: probe the second MRU entry (promote on hit), then
    /// the directory, allocating the page on first touch.
    #[cold]
    fn set_slow(&mut self, page_no: u64, offset: usize, value: u64) {
        let [m0, m1] = self.mru.get();
        if let Some((no, page)) = self.pages.get_mut(m1 as usize) {
            if *no == page_no {
                page[offset] = value;
                self.mru.set([m1, m0]);
                return;
            }
        }
        let idx = self.page_index(page_no);
        self.mru.set([idx, m0]);
        self.pages[idx as usize].1[offset] = value;
    }

    /// Index into `pages` of page `page_no`, allocating it on first touch.
    fn page_index(&mut self, page_no: u64) -> u32 {
        if let Some(&idx) = self.directory.get(&page_no) {
            return idx;
        }
        let idx = u32::try_from(self.pages.len()).expect("page count fits u32");
        self.pages.push((page_no, zero_page()));
        self.directory.insert(page_no, idx);
        idx
    }

    /// Writes `words` to `base, base + 1, …` (wrapping past `u64::MAX`),
    /// one page-sized copy at a time. Leaves the memory exactly as one
    /// [`PagedMem::set`] per word in order would: the same words, the same
    /// pages allocated in the same order, the same MRU pages.
    pub fn fill(&mut self, base: u64, words: &[u64]) {
        let mut addr = base;
        let mut rest = words;
        while !rest.is_empty() {
            let offset = (addr & OFFSET_MASK) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_WORDS - offset));
            let idx = self.page_index(addr >> PAGE_SHIFT);
            let [m0, _] = self.mru.get();
            if idx != m0 {
                self.mru.set([idx, m0]);
            }
            self.pages[idx as usize].1[offset..offset + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
    }

    /// Number of allocated (touched) pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Iterates over all non-zero words as `(address, value)` pairs, in
    /// ascending address order — the output-extraction and debugging view.
    /// Words that were written and later zeroed are skipped, exactly as an
    /// address never touched: both read as 0.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut order: Vec<&(u64, Page)> = self.pages.iter().collect();
        order.sort_unstable_by_key(|(no, _)| *no);
        order.into_iter().flat_map(|(no, page)| {
            let base = no << PAGE_SHIFT;
            page.iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(move |(i, &v)| (base + i as u64, v))
        })
    }
}

impl FromIterator<(u64, u64)> for PagedMem {
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let mut mem = PagedMem::new();
        for (addr, value) in iter {
            mem.set(addr, value);
        }
        mem
    }
}

impl std::fmt::Debug for PagedMem {
    /// Summarises as page count and non-zero word count; dumping 32 KiB
    /// pages verbatim would drown every containing struct's Debug output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedMem")
            .field("pages", &self.pages.len())
            .field("nonzero_words", &self.iter_nonzero().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_words_read_zero() {
        let mem = PagedMem::new();
        assert_eq!(mem.get(0), 0);
        assert_eq!(mem.get(u64::MAX), 0);
        assert_eq!(mem.page_count(), 0);
    }

    #[test]
    fn set_get_roundtrip_within_and_across_pages() {
        let mut mem = PagedMem::new();
        mem.set(0x1000, 11);
        mem.set(0x1001, 22);
        mem.set(0x1000 + PAGE_WORDS as u64, 33); // next page
        assert_eq!(mem.get(0x1000), 11);
        assert_eq!(mem.get(0x1001), 22);
        assert_eq!(mem.get(0x1000 + PAGE_WORDS as u64), 33);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn page_cache_survives_alternating_pages() {
        let mut mem = PagedMem::new();
        let a = 0;
        let b = 10 * PAGE_WORDS as u64;
        for i in 0..100 {
            mem.set(a + (i % 8), i);
            mem.set(b + (i % 8), i + 1);
        }
        assert_eq!(mem.get(a + 3), 99); // i=99 wrote a+3 (99 % 8 == 3)
        assert_eq!(mem.get(b + 3), 100);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn two_entry_mru_promotes_and_evicts_correctly() {
        let mut mem = PagedMem::new();
        let (a, b, c) = (0, PAGE_WORDS as u64, 2 * PAGE_WORDS as u64);
        mem.set(a, 1); // mru: [A, ?]
        mem.set(b, 2); // mru: [B, A]
        assert_eq!(mem.get(a), 1); // second-entry hit → promote: [A, B]
        mem.set(c, 3); // directory miss → [C, A], B evicted
        assert_eq!(mem.get(b), 2); // B correct via directory
        assert_eq!(mem.get(a), 1);
        assert_eq!(mem.get(c), 3);
        assert_eq!(mem.page_count(), 3);
    }

    #[test]
    fn extreme_addresses_stay_sparse() {
        // a wrapping negative offset can produce an address near u64::MAX;
        // paging must not try to allocate the whole range
        let mut mem = PagedMem::new();
        mem.set(u64::MAX, 1);
        mem.set(0, 2);
        assert_eq!(mem.get(u64::MAX), 1);
        assert_eq!(mem.get(0), 2);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn iter_nonzero_is_address_ordered_and_skips_zeros() {
        let mut mem = PagedMem::new();
        let far = 5 * PAGE_WORDS as u64;
        mem.set(far, 3); // later page first
        mem.set(7, 1);
        mem.set(8, 0); // explicit zero: invisible
        mem.set(9, 2);
        let words: Vec<(u64, u64)> = mem.iter_nonzero().collect();
        assert_eq!(words, vec![(7, 1), (9, 2), (far, 3)]);
    }

    #[test]
    fn from_iterator_matches_set() {
        let mem: PagedMem = vec![(1, 10), (2, 20)].into_iter().collect();
        assert_eq!(mem.get(1), 10);
        assert_eq!(mem.get(2), 20);
        assert_eq!(mem.get(3), 0);
    }

    #[test]
    fn fill_matches_per_word_set_across_pages_and_the_address_wrap() {
        let words: Vec<u64> = (1..=2 * PAGE_WORDS as u64 + 5).collect();
        for base in [0, 7, PAGE_WORDS as u64 - 1, u64::MAX - 3] {
            let mut filled = PagedMem::new();
            filled.set(3 * PAGE_WORDS as u64, 9); // an earlier page
            let mut per_word = filled.clone();
            filled.fill(base, &words);
            for (i, &w) in words.iter().enumerate() {
                per_word.set(base.wrapping_add(i as u64), w);
            }
            assert_eq!(filled.page_count(), per_word.page_count(), "base {base}");
            let tags = |m: &PagedMem| m.pages.iter().map(|(no, _)| *no).collect::<Vec<_>>();
            assert_eq!(tags(&filled), tags(&per_word), "allocation order");
            assert_eq!(filled.mru.get(), per_word.mru.get(), "MRU pages");
            assert!(filled.iter_nonzero().eq(per_word.iter_nonzero()));
        }
        let mut empty = PagedMem::new();
        empty.fill(5, &[]);
        assert_eq!(empty.page_count(), 0, "an empty fill touches no page");
    }

    #[test]
    fn debug_is_summary_not_dump() {
        let mut mem = PagedMem::new();
        mem.set(1, 5);
        let s = format!("{mem:?}");
        assert!(s.contains("pages: 1"));
        assert!(s.contains("nonzero_words: 1"));
        assert!(s.len() < 100, "no page dumps: {s}");
    }

    #[test]
    fn clone_is_independent() {
        let mut a = PagedMem::new();
        a.set(1, 5);
        let mut b = a.clone();
        b.set(1, 6);
        assert_eq!(a.get(1), 5);
        assert_eq!(b.get(1), 6);
    }
}
