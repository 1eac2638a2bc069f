//! Program representation: instruction stream, data image, and the slice
//! annotations produced by the amnesic compiler.

use std::fmt;

use crate::inst::{Instruction, MAX_SRC_OPERANDS};
use crate::Reg;

/// Identifier of a recomputation slice embedded in a binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SliceId(pub u32);

impl SliceId {
    /// Returns the id as a `usize`, for indexing [`Program::slices`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice{}", self.0)
    }
}

/// Where a slice instruction's register operand is sourced from during
/// recomputation (paper §3.5: leaves read from the register file or `Hist`;
/// intermediate operands come from the `SFile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandSource {
    /// Produced by the slice instruction at slice-relative index `producer`;
    /// read from the scratch file via the renamer. The compiler resolves the
    /// dependency (the paper's §3.5 leaf/interior annotation), so the
    /// runtime renamer maps producer indices to `SFile` slots without
    /// register-name clashes.
    SFile {
        /// Slice-relative index of the producing instruction.
        producer: u16,
    },
    /// A live architectural register value, read from the register file.
    LiveReg,
    /// A checkpointed (non-recomputable) value, read from the `Hist` entry
    /// for the producing instruction's leaf address `key` (the paper keys
    /// `Hist` by leaf address, so slices sharing a producer share the
    /// entry), at the operand's position.
    Hist {
        /// Compiler-assigned leaf-address id; matches the `REC` that
        /// checkpoints it.
        key: u16,
    },
}

/// Per-instruction operand sourcing plan inside a slice body.
///
/// `sources[i]` describes where the `i`-th register source (in
/// [`Instruction::srcs`] order) comes from; positions without a register
/// operand are `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandPlan {
    /// One entry per potential source operand.
    pub sources: [Option<OperandSource>; MAX_SRC_OPERANDS],
}

impl OperandPlan {
    /// A plan with no register sources (e.g. for `Li`).
    pub fn empty() -> Self {
        OperandPlan {
            sources: [None; MAX_SRC_OPERANDS],
        }
    }

    /// Returns `true` if no operand reads the `SFile` — the definition of a
    /// leaf instruction (no in-slice producers).
    pub fn is_leaf(&self) -> bool {
        !self
            .sources
            .iter()
            .any(|s| matches!(s, Some(OperandSource::SFile { .. })))
    }

    /// Returns `true` if any operand reads the `Hist` table.
    pub fn reads_hist(&self) -> bool {
        self.sources
            .iter()
            .any(|s| matches!(s, Some(OperandSource::Hist { .. })))
    }

    /// Leaf-address keys of the `Hist`-sourced operands.
    pub fn hist_keys(&self) -> impl Iterator<Item = u16> + '_ {
        self.sources.iter().filter_map(|s| match s {
            Some(OperandSource::Hist { key }) => Some(*key),
            _ => None,
        })
    }
}

/// Metadata about one leaf of a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafInfo {
    /// Slice-relative index of the leaf instruction (0 = slice entry).
    pub index: u16,
    /// `true` if the leaf has at least one `Hist`-sourced operand, i.e. a
    /// non-recomputable input that must have been checkpointed by `REC`.
    pub needs_hist: bool,
    /// Program counter of the producer instruction in the main code whose
    /// replica this leaf is (the instruction followed by the matching `REC`),
    /// if any. Leaves synthesised from constants have no origin.
    pub origin_pc: Option<usize>,
}

/// Compiler-produced metadata describing one recomputation slice.
///
/// The slice body occupies `instructions[entry .. entry + len]` of the owning
/// [`Program`]; its last instruction is the `RTN`. Instructions appear in
/// dependency order: data flows from the leaves (first) to the root (last
/// compute instruction before `RTN`), as in the paper's Fig. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceMeta {
    /// The slice's id; equals its index in [`Program::slices`].
    pub id: SliceId,
    /// Program counter of the `RCMP` that owns this slice.
    pub rcmp_pc: usize,
    /// Absolute index of the first slice instruction.
    pub entry: usize,
    /// Number of instructions in the body, including the terminating `RTN`.
    pub len: usize,
    /// Register holding the recomputed value `v` after the root executes;
    /// copied into the `RCMP` destination before return.
    pub root_reg: Reg,
    /// Operand sourcing plan for each compute instruction of the body (one
    /// per instruction, excluding the final `RTN`).
    pub plans: Vec<OperandPlan>,
    /// Leaves of the slice tree.
    pub leaves: Vec<LeafInfo>,
    /// `true` if any leaf has non-recomputable inputs (needs `Hist`).
    pub has_nonrecomputable: bool,
    /// Compiler estimate of the recomputation energy `E_rc` in nanojoules
    /// (instruction mix × EPI, §3.1.1).
    pub est_recompute_nj: f64,
    /// Compiler estimate of the probabilistic load energy `E_ld` in
    /// nanojoules (Σ PrLi × EPI_Li, §3.1.1).
    pub est_load_nj: f64,
    /// Height of the slice tree (root at height 0 plus `height` producer
    /// levels).
    pub height: u32,
}

impl SliceMeta {
    /// Number of compute instructions in the body (excluding `RTN`).
    pub fn compute_len(&self) -> usize {
        self.len.saturating_sub(1)
    }

    /// Distinct `Hist` leaf-address keys this slice reads.
    pub fn hist_keys(&self) -> Vec<u16> {
        let mut keys: Vec<u16> = self.plans.iter().flat_map(|p| p.hist_keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// A half-open range of word addresses `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRange {
    /// First word address of the range.
    pub start: u64,
    /// Number of 64-bit words.
    pub len: u64,
}

impl MemRange {
    /// Creates a range.
    pub fn new(start: u64, len: u64) -> Self {
        MemRange { start, len }
    }

    /// Returns `true` if `addr` falls within the range.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.start + self.len
    }

    /// Iterates over the word addresses of the range.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.start..self.start + self.len
    }
}

/// Initial data memory contents, word addressed (one `u64` per address).
///
/// Word address `a` corresponds to byte address `8·a` in the cache model.
///
/// The words are held as maximal runs of consecutive addresses: one
/// address-ordered `Vec<u64>` plus a run table giving each run's base
/// address and the index of its first word. The runs are canonical —
/// sorted by base, and no two runs touch (a run ends at least one address
/// below the next run's base) — so the derived `PartialEq` means "holds the
/// same words". Paper-scale programs initialise whole arrays, so an image
/// is a handful of runs over a flat array: 8 bytes a word, and the bulk
/// paths ([`DataImage::set_run`], [`DataImage::runs`]) copy slices.
///
/// A word set above every initialised word is appended in O(1); a word set
/// below one is inserted in O(n). Builders and decoders therefore write in
/// address order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataImage {
    /// Every initialised word, in address order.
    words: Vec<u64>,
    /// One entry per run, sorted by base address.
    runs: Vec<Run>,
}

/// One maximal run of consecutive initialised words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// Address of the run's first word.
    base: u64,
    /// Index of the run's first word in [`DataImage::words`].
    start: usize,
}

impl DataImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for at least `additional` more words.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.words.reserve(additional);
    }

    /// Index one past run `i`'s last word in `words`.
    fn end(&self, i: usize) -> usize {
        self.runs.get(i + 1).map_or(self.words.len(), |r| r.start)
    }

    /// Address of run `i`'s last word (runs are never empty).
    fn last_addr(&self, i: usize) -> u64 {
        let run = self.runs[i];
        run.base + (self.end(i) - run.start - 1) as u64
    }

    /// Address of the highest initialised word.
    fn top(&self) -> Option<u64> {
        let last = self.runs.len().checked_sub(1)?;
        Some(self.last_addr(last))
    }

    /// Index into `words` of the word at `addr`, if it is initialised.
    fn index_of(&self, addr: u64) -> Option<usize> {
        let i = self
            .runs
            .partition_point(|r| r.base <= addr)
            .checked_sub(1)?;
        let run = self.runs[i];
        let index = run.start + usize::try_from(addr - run.base).ok()?;
        (index < self.end(i)).then_some(index)
    }

    /// Sets the initial value of a word; a later `set` of the same word
    /// wins.
    pub fn set(&mut self, addr: u64, value: u64) {
        // the common case: a word above every initialised one extends the
        // top run, or starts a run past a gap
        let top = self.top();
        if top.is_none_or(|top| addr > top) {
            if top.is_none_or(|top| addr - top > 1) {
                self.runs.push(Run {
                    base: addr,
                    start: self.words.len(),
                });
            }
            self.words.push(value);
            return;
        }
        if let Some(index) = self.index_of(addr) {
            self.words[index] = value;
            return;
        }
        // a gap below the top: `next` is the first run above `addr`, and
        // the new word goes in front of its first word
        let next = self.runs.partition_point(|r| r.base <= addr);
        let joins_prev = next > 0 && addr - self.last_addr(next - 1) == 1;
        let joins_next = self.runs[next].base - addr == 1;
        let at = self.runs[next].start;
        self.words.insert(at, value);
        for run in &mut self.runs[next + 1..] {
            run.start += 1;
        }
        match (joins_prev, joins_next) {
            (true, true) => {
                self.runs.remove(next);
            }
            (false, true) => self.runs[next].base = addr,
            (true, false) => self.runs[next].start += 1,
            (false, false) => {
                self.runs[next].start += 1;
                self.runs.insert(
                    next,
                    Run {
                        base: addr,
                        start: at,
                    },
                );
            }
        }
    }

    /// Sets the words at `base, base + 1, …` to `values`, exactly as one
    /// [`DataImage::set`] per value in order would. A run placed above
    /// every initialised word is appended with one slice copy.
    ///
    /// # Panics
    ///
    /// Panics if the run would pass address `u64::MAX`.
    pub fn set_run(&mut self, base: u64, values: &[u64]) {
        let Some((&first, rest)) = values.split_first() else {
            return;
        };
        assert!(
            base.checked_add(rest.len() as u64).is_some(),
            "data run at {base:#x} passes the end of the address space"
        );
        if self.top().is_none_or(|top| base > top) {
            self.set(base, first);
            self.words.extend_from_slice(rest);
        } else {
            for (i, &value) in values.iter().enumerate() {
                self.set(base + i as u64, value);
            }
        }
    }

    /// Returns the initial value of a word (0 if never set).
    pub fn get(&self, addr: u64) -> u64 {
        self.index_of(addr).map_or(0, |i| self.words[i])
    }

    /// Returns `true` if the word was explicitly initialised.
    pub fn is_initialized(&self, addr: u64) -> bool {
        self.index_of(addr).is_some()
    }

    /// Number of explicitly initialised words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if no word was initialised.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The maximal runs of consecutive initialised words, in address
    /// order, as `(base address, words)`. No two runs touch.
    pub fn runs(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        self.runs
            .iter()
            .enumerate()
            .map(|(i, run)| (run.base, &self.words[run.start..self.end(i)]))
    }

    /// Iterates over `(address, value)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs().flat_map(|(base, words)| {
            words
                .iter()
                .enumerate()
                .map(move |(i, &value)| (base + i as u64, value))
        })
    }
}

impl FromIterator<(u64, u64)> for DataImage {
    /// Collects `(address, value)` pairs; where an address repeats, the
    /// later pair wins, as with [`DataImage::set`]. The pairs are sorted
    /// first, so any order costs O(n log n).
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let mut pairs: Vec<(u64, u64)> = iter.into_iter().collect();
        // stable: equal addresses keep their order, and the last one wins
        pairs.sort_by_key(|&(addr, _)| addr);
        let mut image = DataImage::new();
        image.reserve(pairs.len());
        for (addr, value) in pairs {
            image.set(addr, value);
        }
        image
    }
}

/// A complete executable program in the amnesiac mini-ISA.
///
/// The instruction stream has two regions: the *main code* occupies
/// `instructions[..code_len]` and must be terminated by `Halt`; slice bodies
/// (if the program was annotated by the amnesic compiler) occupy
/// `instructions[code_len..]` and are only reachable through `RCMP`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Human-readable program name (used in reports).
    pub name: String,
    /// The full instruction stream: main code followed by slice bodies.
    pub instructions: Vec<Instruction>,
    /// Length of the main code region (slice bodies start here).
    pub code_len: usize,
    /// Entry program counter.
    pub entry: usize,
    /// Slice annotations (empty for classic binaries).
    pub slices: Vec<SliceMeta>,
    /// Initial data memory.
    pub data: DataImage,
    /// Word ranges holding the program's observable output; used by
    /// equivalence checks between classic and amnesic execution.
    pub output: Vec<MemRange>,
    /// Word ranges holding read-only program inputs (non-recomputable by
    /// definition, §2.2).
    pub read_only: Vec<MemRange>,
}

impl Program {
    /// Creates an empty program shell with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            instructions: Vec::new(),
            code_len: 0,
            entry: 0,
            slices: Vec::new(),
            data: DataImage::new(),
            output: Vec::new(),
            read_only: Vec::new(),
        }
    }

    /// Looks up the slice with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (a validated annotated program
    /// always has ids `0..slices.len()`).
    pub fn slice(&self, id: SliceId) -> &SliceMeta {
        &self.slices[id.index()]
    }

    /// Returns `true` if the program carries amnesic annotations.
    pub fn is_annotated(&self) -> bool {
        !self.slices.is_empty()
    }

    /// Returns `true` if `addr` lies in a read-only input region.
    pub fn is_read_only(&self, addr: u64) -> bool {
        self.read_only.iter().any(|r| r.contains(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_image_roundtrip() {
        let mut img = DataImage::new();
        assert!(img.is_empty());
        img.set(10, 99);
        img.set(11, 100);
        assert_eq!(img.get(10), 99);
        assert_eq!(img.get(12), 0, "uninitialised words read as zero");
        assert!(img.is_initialized(11));
        assert!(!img.is_initialized(12));
        assert_eq!(img.len(), 2);
        let pairs: Vec<_> = img.iter().collect();
        assert_eq!(pairs, vec![(10, 99), (11, 100)]);
    }

    #[test]
    fn data_image_from_iterator() {
        let img: DataImage = vec![(3, 4), (1, 2), (3, 5)].into_iter().collect();
        assert_eq!(img.get(1), 2);
        assert_eq!(img.get(3), 5, "the later pair wins");
        assert_eq!(img.len(), 2);
    }

    #[test]
    fn data_image_keeps_maximal_runs() {
        let mut img = DataImage::new();
        img.set_run(10, &[1, 2, 3]);
        img.set(20, 0); // explicit zero: initialised
        img.set(14, 5);
        let runs: Vec<_> = img.runs().collect();
        assert_eq!(runs, [(10, &[1, 2, 3][..]), (14, &[5][..]), (20, &[0][..])]);
        assert!(img.is_initialized(20));
        img.set(13, 4); // fills the gap: the first two runs join
        img.set(9, 0); // extends the first run downwards
        img.set(11, 7); // overwrites in place
        let runs: Vec<_> = img.runs().collect();
        assert_eq!(runs, [(9, &[0, 1, 7, 3, 4, 5][..]), (20, &[0][..])]);
        assert_eq!(img.len(), 7);
    }

    #[test]
    #[should_panic(expected = "passes the end of the address space")]
    fn data_runs_cannot_pass_the_last_address() {
        DataImage::new().set_run(u64::MAX, &[1, 2]);
    }

    #[test]
    fn mem_range_contains() {
        let r = MemRange::new(100, 5);
        assert!(r.contains(100));
        assert!(r.contains(104));
        assert!(!r.contains(105));
        assert!(!r.contains(99));
        assert_eq!(r.iter().count(), 5);
    }

    #[test]
    fn operand_plan_leaf_detection() {
        let leaf = OperandPlan {
            sources: [
                Some(OperandSource::LiveReg),
                Some(OperandSource::Hist { key: 0 }),
                None,
            ],
        };
        assert!(leaf.is_leaf());
        assert!(leaf.reads_hist());

        let interior = OperandPlan {
            sources: [
                Some(OperandSource::SFile { producer: 0 }),
                Some(OperandSource::LiveReg),
                None,
            ],
        };
        assert!(!interior.is_leaf());
        assert!(!interior.reads_hist());

        assert!(OperandPlan::empty().is_leaf());
    }

    #[test]
    fn read_only_lookup() {
        let mut p = Program::new("t");
        p.read_only.push(MemRange::new(50, 10));
        assert!(p.is_read_only(55));
        assert!(!p.is_read_only(60));
    }
}
