#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Control-flow structure of a program's main code, for static analysis.
//!
//! [`graph`] builds basic blocks over the predecoded instruction stream,
//! reachability from the entry, and immediate dominators over the main-code
//! region — the substrate of `amnesiac-absint`'s abstract interpreters and
//! of `amnesiac-verify`'s "`REC` on all paths" dataflow, which both run on
//! the one graph an `amnesiac_absint::Analysis` builds. Execution does not
//! use it: the interpreters run instruction by instruction on
//! `amnesiac-sim`'s engine.

pub mod graph;

pub use graph::{BasicBlock, Cfg};
