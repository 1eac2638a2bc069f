#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-profile
//!
//! The runtime profiler of the amnesic toolchain (the paper's Pin-based
//! dependency profiler, §4, rebuilt on top of `amnesiac-sim`).
//!
//! A profiling run executes the classic binary once while tracking:
//!
//! * **dynamic def-use provenance** — for every register and memory word,
//!   which instruction produced its current value and from which operands:
//!   a depth-capped DAG of small fixed-size nodes in one slab arena, each
//!   node freed as soon as no register, memory word or other node holds it;
//! * **per-load-site producer trees** — the first dynamic instance of a
//!   load extracts the backward slice of the loaded value (seeing *through*
//!   intermediate loads, since slices may not contain memory instructions,
//!   §3.1.1) as a canonical per-site tree, [`ProvNode`]; every later
//!   instance is merged into it straight from the DAG, pruning any subtree
//!   whose shape varies across instances;
//! * **liveness** — whether a producer's source register still holds the
//!   operand value at the load (the paper's live-register leaves, §2.2);
//! * **PrLi** — per-site and global service-level distributions (§3.1.1);
//! * **value locality** — for the paper's Fig. 8 analysis;
//! * **store→load flows** — for the dead-store elision analysis (§2).
//!
//! The output, [`ProgramProfile`], is exactly the information the amnesic
//! compiler needs to form and annotate recomputation slices.

#[cfg(test)]
mod freshness_tests;
mod profiler;
mod provenance;
mod tree;

pub use profiler::{
    profile_program, LoadSiteProfile, Profiler, ProgramProfile, StoreSiteProfile, Unswappable,
};
pub use tree::{ProvNode, ProvOperand};
