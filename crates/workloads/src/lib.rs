#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-workloads
//!
//! Benchmark kernels written in the amnesiac mini-ISA.
//!
//! The paper evaluates 33 benchmarks from SPEC-2006, NAS, PARSEC and
//! Rodinia and focuses on the 11 that respond to amnesic execution. We
//! cannot run x86 binaries on the mini-ISA, so each focal benchmark is
//! substituted by a hand-written kernel implementing the *same algorithmic
//! pattern*, with working sets sized against the paper's Table 3 hierarchy
//! (32 KB L1-D, 512 KB L2) so that the memory-access profile of its
//! swappable loads matches the paper's Table 5, and producer-expression
//! shapes chosen so slice lengths match Fig. 6. Five compute-bound
//! controls stand in for "the rest" — benchmarks the paper reports as not
//! benefiting.
//!
//! Each kernel is one row of [`KERNELS`] — its name, suite and builder —
//! in Table-2 order. [`workload`] builds a kernel by name; the name arrays
//! ([`FOCAL_NAMES`], [`CONTROL_NAMES`], [`EXTENDED_NAMES`]) are the
//! table's three runs of rows, so a name cannot exist without a builder.
//!
//! | name | models | pattern |
//! |---|---|---|
//! | `mcf` | SPEC mcf | pointer-chasing reduced-cost updates over a memory-resident arc array |
//! | `sx` | SPEC sphinx3 | GMM partial-score table build + frame scoring |
//! | `cg` | NAS CG | conjugate-gradient sparse matvec iterations |
//! | `is` | NAS IS | integer bucket ranking of a large key space |
//! | `ca` | PARSEC canneal | annealing cost table with random swap reads |
//! | `fs` | PARSEC facesim | dense per-node physics update chains |
//! | `fe` | PARSEC ferret | feature-vector distance scoring |
//! | `rt` | PARSEC raytrace | ray-sphere intersection against a hot scene table |
//! | `bp` | Rodinia backprop | MLP forward activations reused in backward pass |
//! | `bfs` | Rodinia bfs | level-synchronous BFS over an adjacency list |
//! | `sr` | Rodinia srad | SRAD-style stencil relaxation |
//! | `blackscholes` … | PARSEC/Rodinia controls | compute-bound kernels with few swappable loads |
//! | `perlbench` … `particlefilter` | Table 2 remainder | 17 kernels completing the paper's 33-benchmark deployment: mostly non-responders, with `lbm`/`soplex`/`GemsFDTD`/`nw` as the paper's "4 with more than 5% gain" and `mg` slightly degrading |

mod control;
mod extended;
mod nas;
mod parsec;
mod rodinia;
mod spec;
pub(crate) mod util;

use amnesiac_isa::Program;

/// Benchmark suite a kernel models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006.
    Spec,
    /// NAS Parallel Benchmarks.
    Nas,
    /// PARSEC.
    Parsec,
    /// Rodinia.
    Rodinia,
    /// Compute-bound control (stands in for the paper's non-responders).
    Control,
}

/// Problem scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for unit tests (sub-millisecond runs).
    Test,
    /// Evaluation inputs sized against the paper's cache hierarchy.
    Paper,
}

/// A built benchmark: a row of [`KERNELS`] and the program its builder
/// made.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in the paper's figures (e.g. `"sx"`).
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// The built program.
    pub program: Program,
}

/// One row of [`KERNELS`]: a built-in kernel's name, suite and builder.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// Short name used in the paper's figures and in `bench:NAME` targets.
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    program: fn(Scale) -> Program,
}

impl Kernel {
    const fn new(name: &'static str, suite: Suite, program: fn(Scale) -> Program) -> Self {
        Kernel {
            name,
            suite,
            program,
        }
    }

    /// Builds this kernel at `scale`.
    pub fn build(&self, scale: Scale) -> Workload {
        Workload {
            name: self.name,
            suite: self.suite,
            program: (self.program)(scale),
        }
    }
}

/// Every built-in kernel, in Table-2 order: the 11 focal kernels in the
/// paper's figure order, the 5 compute-bound controls, then the 17
/// kernels that complete the paper's 33-benchmark deployment.
/// [`FOCAL_NAMES`], [`CONTROL_NAMES`] and [`EXTENDED_NAMES`] are its three
/// runs of rows.
pub const KERNELS: &[Kernel] = &[
    Kernel::new("mcf", Suite::Spec, spec::mcf),
    Kernel::new("sx", Suite::Spec, spec::sphinx3),
    Kernel::new("cg", Suite::Nas, nas::cg),
    Kernel::new("is", Suite::Nas, nas::is),
    Kernel::new("ca", Suite::Parsec, parsec::canneal),
    Kernel::new("fs", Suite::Parsec, parsec::facesim),
    Kernel::new("fe", Suite::Parsec, parsec::ferret),
    Kernel::new("rt", Suite::Parsec, parsec::raytrace),
    Kernel::new("bp", Suite::Rodinia, rodinia::backprop),
    Kernel::new("bfs", Suite::Rodinia, rodinia::bfs),
    Kernel::new("sr", Suite::Rodinia, rodinia::srad),
    Kernel::new("blackscholes", Suite::Control, control::blackscholes),
    Kernel::new("swaptions", Suite::Control, control::swaptions),
    Kernel::new("freqmine", Suite::Control, control::freqmine),
    Kernel::new("kmeans", Suite::Control, control::kmeans),
    Kernel::new("hotspot", Suite::Control, control::hotspot),
    Kernel::new("perlbench", Suite::Spec, extended::perlbench),
    Kernel::new("gobmk", Suite::Spec, extended::gobmk),
    Kernel::new("calculix", Suite::Spec, extended::calculix),
    Kernel::new("GemsFDTD", Suite::Spec, extended::gemsfdtd),
    Kernel::new("libquantum", Suite::Spec, extended::libquantum),
    Kernel::new("soplex", Suite::Spec, extended::soplex),
    Kernel::new("lbm", Suite::Spec, extended::lbm),
    Kernel::new("omnetpp", Suite::Spec, extended::omnetpp),
    Kernel::new("mg", Suite::Nas, extended::mg),
    Kernel::new("ft", Suite::Nas, extended::ft),
    Kernel::new("x264", Suite::Parsec, extended::x264),
    Kernel::new("dedup", Suite::Parsec, extended::dedup),
    Kernel::new("fluidanimate", Suite::Parsec, extended::fluidanimate),
    Kernel::new("streamcluster", Suite::Parsec, extended::streamcluster),
    Kernel::new("bodytrack", Suite::Parsec, extended::bodytrack),
    Kernel::new("nw", Suite::Rodinia, extended::nw),
    Kernel::new("particlefilter", Suite::Rodinia, extended::particlefilter),
];

/// The 11 focal benchmarks, in the paper's figure order.
pub const FOCAL_NAMES: [&str; 11] = names(0);

/// The compute-bound controls.
pub const CONTROL_NAMES: [&str; 5] = names(FOCAL_NAMES.len());

/// The remaining benchmarks of the paper's Table 2 (11 focal + 5 controls
/// + these 17 = the full 33-benchmark deployment).
pub const EXTENDED_NAMES: [&str; 17] = names(FOCAL_NAMES.len() + CONTROL_NAMES.len());

const _: () = assert!(
    FOCAL_NAMES.len() + CONTROL_NAMES.len() + EXTENDED_NAMES.len() == KERNELS.len(),
    "the three name runs cover every row of KERNELS"
);

/// The names of the `N` rows of [`KERNELS`] from row `first` on.
const fn names<const N: usize>(first: usize) -> [&'static str; N] {
    let mut names = [""; N];
    let mut i = 0;
    while i < N {
        names[i] = KERNELS[first + i].name;
        i += 1;
    }
    names
}

/// Builds the built-in kernel called `name`, or `None` when no row of
/// [`KERNELS`] has that name.
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    KERNELS
        .iter()
        .find(|k| k.name == name)
        .map(|k| k.build(scale))
}

/// Builds one focal benchmark by name.
///
/// # Panics
///
/// Panics on a name that is not in [`FOCAL_NAMES`].
pub fn build_focal(name: &str, scale: Scale) -> Workload {
    KERNELS[..FOCAL_NAMES.len()]
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("unknown focal benchmark `{name}`"))
        .build(scale)
}

/// Builds the paper's full 33-benchmark deployment, in [`KERNELS`] order.
pub fn all_workloads(scale: Scale) -> Vec<Workload> {
    KERNELS.iter().map(|k| k.build(scale)).collect()
}

/// Seeded variants of the input-dependent focal benchmarks, for
/// cross-input (train/test) studies: the program *structure* is identical
/// for every seed; only the read-only input data changes.
///
/// # Panics
///
/// Panics on a name other than `mcf`, `is` and `ca`.
pub fn build_focal_with_input(name: &str, scale: Scale, seed: u64) -> Workload {
    type Seeded = fn(Scale, u64) -> Program;
    let seeded: [(&str, Seeded); 3] = [
        ("mcf", spec::mcf_with_input),
        ("is", nas::is_with_input),
        ("ca", parsec::canneal_with_input),
    ];
    let (_, program) = seeded
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no seeded variant for `{name}`"));
    Workload {
        program: program(scale, seed),
        ..build_focal(name, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_deployment_has_33_benchmarks_like_table_2() {
        let all = all_workloads(Scale::Test);
        assert_eq!(all.len(), 33, "11 focal + 5 controls + 17 extended");
        // names are unique
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 33);
        for w in &all {
            amnesiac_isa::validate::validate(&w.program)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", w.name));
            assert!(!w.program.output.is_empty(), "{} declares output", w.name);
        }
    }

    #[test]
    fn every_row_is_found_by_its_name_and_nothing_else_is() {
        for kernel in KERNELS {
            let built = workload(kernel.name, Scale::Test).expect("a row's name is found");
            assert_eq!((built.name, built.suite), (kernel.name, kernel.suite));
        }
        assert!(workload("nope", Scale::Test).is_none());
        assert_eq!(build_focal("sr", Scale::Test).name, "sr");
    }

    #[test]
    #[should_panic(expected = "unknown focal benchmark")]
    fn unknown_name_panics() {
        build_focal("blackscholes", Scale::Test);
    }
}
