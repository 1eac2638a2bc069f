#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-experiments
//!
//! Experiment drivers that regenerate **every table and figure** of the
//! paper's evaluation (§4–§5), plus the ablations called out in DESIGN.md.
//!
//! The shared machinery lives in [`pipeline`]: one [`BenchEval`] per
//! benchmark bundles the classic baseline, the compiled binaries
//! (probabilistic and oracle slice sets), and the amnesic runs under every
//! runtime policy. Each `table*`/`fig*` module computes one paper
//! artifact's rows from that data once, and renders both its text and its
//! JSON twin from those rows; [`export`] lists the twins. The `all` binary
//! computes the suite once and renders everything (this is what
//! EXPERIMENTS.md records); [`DriverArgs`] is the command line the `all`,
//! `ablations` and `controls` drivers share.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — communication vs computation energy across nodes |
//! | [`table2`] | Table 2 — the 33-benchmark deployment |
//! | [`table3`] | Table 3 — the simulated architecture |
//! | [`fig3`]   | Figs. 3–5 — EDP, energy and execution-time gain per policy, and the 22 non-focal kernels |
//! | [`table4`] | Table 4 — dynamic instruction mix & energy breakdown |
//! | [`table5`] | Table 5 — residency profile of swapped loads |
//! | [`fig6`]   | Fig. 6 — instruction count per recomputed RSlice |
//! | [`fig7`]   | Fig. 7 — share of RSlices with non-recomputable inputs |
//! | [`fig8`]   | Fig. 8 — value locality of swapped loads |
//! | [`table6`] | Table 6 — break-even `R` per benchmark |
//! | [`ablations`] | structure-sizing, probe-cost and store-elision studies |
//! | [`verification`] | suite-wide static well-formedness sweep (`amnesiac verify`) |
//! | [`lint`] | abstract-interpretation lint sweep (`amnesiac lint`) |

pub mod ablations;
pub mod args;
pub mod export;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod lint;
pub mod pipeline;
pub mod report;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod verification;

pub use args::DriverArgs;
pub use lint::LintSweep;
pub use pipeline::{BenchEval, EvalSuite, PolicyOutcome};
pub use verification::VerifySweep;
