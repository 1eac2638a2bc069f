#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-compiler
//!
//! The amnesic compiler pass (paper §3.1): starting from a
//! [`amnesiac_profile::ProgramProfile`], it
//!
//! 1. **forms recomputation slices** — for each swappable load site it cuts
//!    the profiled producer tree level by level, keeping the cut whose
//!    estimated recomputation energy `E_rc` (instruction mix × EPI, plus
//!    `SFile`/`Hist`/`REC` overheads) is lowest, and selecting the site only
//!    if `E_rc` stays below the probabilistic load energy
//!    `E_ld = Σ PrLi × EPI_Li` (§3.1.1);
//! 2. **annotates the binary** — each selected load becomes an `RCMP`, the
//!    slice body (leaves-first, dependency order) is embedded after the main
//!    code terminated by `RTN`, and a `REC` checkpoint is inserted
//!    immediately *before* every producer whose replica needs `Hist`-sourced
//!    operands (checkpointing inputs pre-execution keeps instructions that
//!    overwrite their own sources, e.g. accumulators, recomputable);
//! 3. **validates** — a functional replay of the annotated binary verifies
//!    that every slice reproduces the loaded value on every dynamic
//!    instance of the profiling input; slices that ever mismatch are
//!    dropped and the binary is re-annotated. Amnesic execution is
//!    therefore bit-exact by construction.
//!
//! Two slice-set policies mirror the paper's evaluation: the probabilistic
//! compiler set (used by the `Compiler`/`FLC`/`LLC`/`C-Oracle` runtime
//! policies) and the `Oracle` set, chosen with exact knowledge of where
//! each load is serviced (§5.1).

mod annotate;
mod elide;
mod estimate;
mod pipeline;
mod replay;
mod slice;
mod storage;

pub use annotate::{annotate, annotate_with_map};
pub use elide::remove_stores;
pub use estimate::{CutCost, SliceEstimator};
pub use pipeline::{
    compile, redundant_stores, CompileError, CompileOptions, CompileReport, SiteDecision,
    SiteOutcome, SliceSetPolicy,
};
pub use replay::{replay_validate, ReplayError, ReplayOutcome, SliceReplayStats};
pub use slice::{SliceInstSpec, SliceSpec};
pub use storage::StorageBounds;
