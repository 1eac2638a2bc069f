#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-sim
//!
//! The in-order core simulator. Three pieces are shared by every interpreter
//! in the workspace:
//!
//! * the execution engine ([`execute`]): the one instruction loop, over the
//!   predecoded stream, generic over a [`Hooks`] implementation that supplies
//!   costs and the amnesic `REC`/`RCMP` behaviour;
//! * the cost model ([`Machine`]): cache hierarchy plus energy/time account;
//! * the pure instruction semantics ([`eval_compute`]).
//!
//! The crate's own hooks implementation is the *classic* (non-amnesic) core,
//! [`ClassicCore`]; `amnesiac-core` plugs in the amnesic core and
//! `amnesiac-compiler` the validation replay.
//!
//! The model matches the paper's Table 3 machine: a single in-order core at
//! 1.09 GHz with L1-I/L1-D/L2/DRAM. Non-memory instructions take one cycle;
//! loads and stores stall for the round-trip latency of the level that
//! services them; instruction supply goes through L1-I (misses charge L2 or
//! memory fill energy and latency).
//!
//! ```
//! use amnesiac_isa::{ProgramBuilder, Reg, AluOp};
//! use amnesiac_sim::{ClassicCore, CoreConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new("inc");
//! let cell = b.alloc_data(&[41]);
//! b.mark_output(cell, 1);
//! b.li(Reg(1), cell);
//! b.load(Reg(2), Reg(1), 0);
//! b.alui(AluOp::Add, Reg(2), Reg(2), 1);
//! b.store(Reg(2), Reg(1), 0);
//! b.halt();
//! let program = b.finish()?;
//!
//! let result = ClassicCore::new(CoreConfig::paper()).run(&program)?;
//! assert_eq!(result.final_memory.get(&cell), Some(&42));
//! assert!(result.account.total_nj() > 0.0);
//! # Ok(())
//! # }
//! ```

mod classic;
mod engine;
mod eval;
mod machine;

pub use classic::{ClassicCore, NullObserver, Observer, RunResult, TraceWriter};
pub use engine::{execute, ArchState, Halted, Hooks, RcmpOutcome, RetireEvent};
pub use eval::{compute_exception, decoded_exception, eval_compute, ExceptionKind};
pub use machine::{CoreConfig, Machine, RunError};
