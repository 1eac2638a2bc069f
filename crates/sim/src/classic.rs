//! The classic (baseline) in-order core: the engine with cost hooks that
//! drive an [`Observer`] and reject amnesic instructions.

use std::collections::BTreeMap;

use amnesiac_energy::EnergyAccount;
use amnesiac_isa::{predecode, Category, Program, SliceId};
use amnesiac_mem::{HierarchyStats, ServiceLevel};
use amnesiac_telemetry::{Json, ToJson};

use crate::engine::{execute, ArchState, Halted, Hooks, RcmpOutcome, RetireEvent};
use crate::machine::{CoreConfig, Machine, RunError};

/// Hook invoked at each dynamic instruction retirement; implemented by the
/// profiler in `amnesiac-profile`.
pub trait Observer {
    /// Called after each instruction retires with full dynamic context.
    fn on_retire(&mut self, event: &RetireEvent<'_>);
}

/// An observer that does nothing (zero-cost baseline runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_retire(&mut self, _event: &RetireEvent<'_>) {}
}

impl<T: Observer + ?Sized> Observer for &mut T {
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        (**self).on_retire(event);
    }
}

/// An observer that renders a human-readable dynamic trace of the first
/// `limit` retirements (pc, instruction, result, memory effects) — the
/// debugging view a `Pin`-style tool would print.
#[derive(Debug, Clone, Default)]
pub struct TraceWriter {
    lines: Vec<String>,
    limit: usize,
    retired: u64,
}

impl TraceWriter {
    /// Creates a tracer keeping at most `limit` lines.
    pub fn new(limit: usize) -> Self {
        TraceWriter {
            lines: Vec::new(),
            limit,
            retired: 0,
        }
    }

    /// The rendered trace, one line per retirement, plus a trailer with
    /// the total dynamic count.
    pub fn render(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        if self.retired > self.lines.len() as u64 {
            out.push_str(&format!(
                "… {} further retirements elided\n",
                self.retired - self.lines.len() as u64
            ));
        }
        out
    }

    /// Total retirements observed (beyond the kept lines).
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

impl Observer for TraceWriter {
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        self.retired += 1;
        if self.lines.len() >= self.limit {
            return;
        }
        let mut line = format!("{:>8} pc {:>5}  {}", self.retired, event.pc, event.inst);
        if let Some(result) = event.result {
            line.push_str(&format!("  => {result:#x}"));
        }
        if let (Some(addr), Some(level)) = (event.addr, event.level) {
            line.push_str(&format!("  [mem {addr:#x} @ {level}]"));
        }
        self.lines.push(line);
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Energy/time account of the whole run.
    pub account: EnergyAccount,
    /// Hierarchy statistics.
    pub hierarchy: HierarchyStats,
    /// Values of the program's declared output ranges at halt, in address
    /// order.
    pub final_memory: BTreeMap<u64, u64>,
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Dynamic load count.
    pub loads: u64,
    /// Dynamic store count.
    pub stores: u64,
}

impl RunResult {
    /// Assembles the result of a halted run from its cost model.
    pub fn new(program: &Program, machine: Machine, halted: Halted) -> Self {
        RunResult {
            final_memory: halted.state.output(program),
            hierarchy: machine.hierarchy.stats().clone(),
            account: machine.account,
            instructions: halted.instructions,
            loads: halted.loads,
            stores: halted.stores,
        }
    }

    /// Energy-delay product of the run, the paper's efficiency metric.
    pub fn edp(&self) -> f64 {
        self.account.edp()
    }
}

impl ToJson for RunResult {
    /// Dynamic counts plus the full energy account and hierarchy stats.
    /// `final_memory` is summarized as its size only (output values are
    /// checked by the equivalence asserts, not reported as telemetry).
    fn to_json(&self) -> Json {
        Json::obj()
            .with("instructions", self.instructions)
            .with("loads", self.loads)
            .with("stores", self.stores)
            .with("output_words", self.final_memory.len())
            .with("account", self.account.to_json())
            .with("hierarchy", self.hierarchy.to_json())
    }
}

/// The classic in-order core.
///
/// Executes un-annotated programs exactly; rejects amnesic instructions
/// (`RCMP`/`RTN`/`REC`) with [`RunError::UnexpectedInstruction`] — the
/// baseline must never silently interpret an annotated binary.
#[derive(Debug, Clone)]
pub struct ClassicCore {
    config: CoreConfig,
}

impl ClassicCore {
    /// Creates a core with the given configuration.
    pub fn new(config: CoreConfig) -> Self {
        ClassicCore { config }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Runs `program` to `Halt` with no observer.
    ///
    /// # Errors
    ///
    /// See [`ClassicCore::run_observed`].
    pub fn run(&self, program: &Program) -> Result<RunResult, RunError> {
        self.run_observed(program, &mut NullObserver)
    }

    /// Runs `program` to `Halt`, reporting every retirement to `observer`.
    ///
    /// Generic over the observer so each caller gets a monomorphised run
    /// loop: with [`NullObserver`] the `on_retire` calls — and the
    /// [`RetireEvent`] construction feeding them — compile away entirely,
    /// so unobserved runs pay nothing for the observation hook.
    ///
    /// # Errors
    ///
    /// * [`RunError::FuseBlown`] if the dynamic instruction limit is hit;
    /// * [`RunError::PcOutOfRange`] if control leaves the main code region;
    /// * [`RunError::UnexpectedInstruction`] on amnesic instructions.
    pub fn run_observed<O: Observer + ?Sized>(
        &self,
        program: &Program,
        observer: &mut O,
    ) -> Result<RunResult, RunError> {
        let mut hooks = ClassicHooks {
            program,
            machine: Machine::new(&self.config),
            observer,
        };
        let decoded = predecode(program);
        let halted = execute(program, &decoded, self.config.max_instructions, &mut hooks)?;
        Ok(RunResult::new(program, hooks.machine, halted))
    }
}

/// Classic execution: every cost goes to the [`Machine`] and every
/// retirement to the observer; amnesic instructions are errors.
struct ClassicHooks<'a, O: ?Sized> {
    program: &'a Program,
    machine: Machine,
    observer: &'a mut O,
}

impl<O: Observer + ?Sized> Hooks for ClassicHooks<'_, O> {
    type Error = RunError;

    #[inline(always)]
    fn fetch(&mut self, pc: usize) {
        self.machine.fetch(pc);
    }

    #[inline(always)]
    fn charge(&mut self, category: Category) {
        self.machine.charge_op(category);
    }

    #[inline(always)]
    fn load(&mut self, addr: u64) -> Option<ServiceLevel> {
        Some(self.machine.load(addr))
    }

    #[inline(always)]
    fn store(&mut self, addr: u64) -> Option<ServiceLevel> {
        Some(self.machine.store(addr))
    }

    fn rec(&mut self, pc: usize, _key: u16, _values: [u64; 3]) -> Result<(), RunError> {
        Err(RunError::unexpected(self.program, pc))
    }

    fn rcmp(
        &mut self,
        _state: &ArchState,
        pc: usize,
        _slice: SliceId,
        _addr: u64,
    ) -> Result<RcmpOutcome, RunError> {
        Err(RunError::unexpected(self.program, pc))
    }

    #[inline(always)]
    fn retire(&mut self, event: &RetireEvent<'_>) {
        self.observer.on_retire(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{AluOp, BranchCond, ProgramBuilder, Reg};

    fn paper_core() -> ClassicCore {
        ClassicCore::new(CoreConfig::paper())
    }

    #[test]
    fn loop_sums_and_stores() {
        // out = Σ_{i<10} i = 45
        let mut b = ProgramBuilder::new("sum");
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.li(Reg(1), 0);
        b.li(Reg(2), 0);
        b.li(Reg(3), 10);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), done);
        b.alu(AluOp::Add, Reg(1), Reg(1), Reg(2));
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.li(Reg(4), out);
        b.store(Reg(1), Reg(4), 0);
        b.halt();
        let p = b.finish().unwrap();

        let r = paper_core().run(&p).unwrap();
        assert_eq!(r.final_memory[&out], 45);
        assert_eq!(r.stores, 1);
        assert_eq!(r.loads, 0);
        assert!(r.instructions > 30);
        assert!(r.account.cycles() > 0);
    }

    #[test]
    fn load_value_flows_to_register() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_data(&[111, 222]);
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.li(Reg(1), a);
        b.load(Reg(2), Reg(1), 1);
        b.li(Reg(3), out);
        b.store(Reg(2), Reg(3), 0);
        b.halt();
        let p = b.finish().unwrap();
        let r = paper_core().run(&p).unwrap();
        assert_eq!(r.final_memory[&out], 222);
        assert_eq!(r.hierarchy.loads.total(), 1);
    }

    #[test]
    fn infinite_loop_blows_fuse() {
        let mut b = ProgramBuilder::new("t");
        let top = b.label();
        b.bind(top).unwrap();
        b.jump(top);
        b.halt();
        let p = b.finish().unwrap();
        let mut config = CoreConfig::paper();
        config.max_instructions = 100;
        let err = ClassicCore::new(config).run(&p).unwrap_err();
        assert_eq!(err, RunError::FuseBlown { limit: 100 });
    }

    #[test]
    fn classic_core_rejects_amnesic_instructions() {
        use amnesiac_isa::Instruction;
        let mut p = Program::new("t");
        p.instructions = vec![
            Instruction::Rec {
                key: 0,
                srcs: [None, None, None],
            },
            Instruction::Halt,
        ];
        p.code_len = 2;
        // bypass the builder (REC without a slice table fails validation)
        let err = paper_core().run(&p).unwrap_err();
        assert!(matches!(err, RunError::UnexpectedInstruction { pc: 0, .. }));
    }

    #[test]
    fn observer_sees_every_retirement_with_values() {
        struct Collect(Vec<(usize, Option<u64>, Option<u64>)>);
        impl Observer for Collect {
            fn on_retire(&mut self, e: &RetireEvent<'_>) {
                self.0.push((e.pc, e.result, e.addr));
            }
        }
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_data(&[7]);
        b.li(Reg(1), a);
        b.load(Reg(2), Reg(1), 0);
        b.alui(AluOp::Add, Reg(3), Reg(2), 1);
        b.halt();
        let p = b.finish().unwrap();
        let mut obs = Collect(Vec::new());
        paper_core().run_observed(&p, &mut obs).unwrap();
        assert_eq!(obs.0.len(), 4);
        assert_eq!(obs.0[0], (0, Some(a), None));
        assert_eq!(obs.0[1], (1, Some(7), Some(a)));
        assert_eq!(obs.0[2], (2, Some(8), None));
        assert_eq!(obs.0[3].0, 3);
    }

    #[test]
    fn fp_pipeline_computes_dot_product() {
        let mut b = ProgramBuilder::new("dot");
        let x = b.alloc_f64(&[1.0, 2.0, 3.0]);
        let y = b.alloc_f64(&[4.0, 5.0, 6.0]);
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.li(Reg(1), x);
        b.li(Reg(2), y);
        b.lfi(Reg(3), 0.0); // acc
        for i in 0..3 {
            b.load(Reg(4), Reg(1), i);
            b.load(Reg(5), Reg(2), i);
            b.fma(Reg(3), Reg(4), Reg(5), Reg(3));
        }
        b.li(Reg(6), out);
        b.store(Reg(3), Reg(6), 0);
        b.halt();
        let p = b.finish().unwrap();
        let r = paper_core().run(&p).unwrap();
        assert_eq!(f64::from_bits(r.final_memory[&out]), 32.0);
    }
}
