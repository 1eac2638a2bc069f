//! Differential suite for the execution engine: every interpreter built on
//! `amnesiac-sim`'s one instruction loop — the classic core (with its
//! observer and the profiler), the amnesic core under every policy and
//! structure variant, and the compiler's validation replay — must agree
//! exactly with [`reference`], a deliberately naive interpreter, on
//! architectural state, dynamic counts, energy accounts (bit-exact),
//! amnesic statistics, replay outcomes, observer event streams, profiles
//! and error values.
//!
//! The reference shares no execution code with the engine: it walks
//! `program.instructions[pc]` itself, reads operands through
//! `Instruction::srcs`, keeps data memory in a `HashMap`, and evaluates with
//! `eval_compute`/`compute_exception`. What it does share is the cost model
//! (`Machine`), the §3.2 structures and `Policy`: under test here are the
//! loop, the decode and what each interpreter does at each instruction,
//! not the caches.

use amnesiac_compiler::{
    annotate, compile, replay_validate, CompileOptions, ReplayOutcome, SliceInstSpec, SliceSpec,
};
use amnesiac_core::{AmnesicConfig, AmnesicCore, AmnesicError, AmnesicRunResult, Policy};
use amnesiac_isa::{
    parse_asm, AluOp, BranchCond, Instruction, MemRange, OperandSource, Program, ProgramBuilder,
    Reg, SliceId,
};
use amnesiac_mem::{CacheConfig, HierarchyConfig, ServiceLevel};
use amnesiac_profile::{profile_program, Profiler};
use amnesiac_rng::Rng;
use amnesiac_sim::{ClassicCore, CoreConfig, Observer, RetireEvent, RunResult};
use amnesiac_workloads::{all_workloads, Scale};

const RNG_PROGRAMS: usize = 64;
const RNG_SEED: u64 = 0xB10C;
const FUSES: [u64; 4] = [1, 2, 3, 7];

/// The naive reference interpreter.
mod reference {
    use std::collections::{BTreeMap, HashMap, HashSet};

    use amnesiac_compiler::{ReplayOutcome, SliceReplayStats};
    use amnesiac_core::{
        AmnesicConfig, AmnesicError, AmnesicRunResult, AmnesicStats, DeferredException, Hist,
        IBuff, MissPredictor, Policy, Renamer, SFile, SliceRuntimeStats,
    };
    use amnesiac_energy::UarchEvent;
    use amnesiac_isa::{Category, Instruction, OperandSource, Program, SliceId, NUM_REGS};
    use amnesiac_mem::ServiceLevel;
    use amnesiac_sim::{
        compute_exception, eval_compute, CoreConfig, Machine, NullObserver, Observer, RetireEvent,
        RunError, RunResult,
    };

    /// Registers plus a sparse word memory (absent words read 0).
    struct Arch {
        regs: [u64; NUM_REGS],
        mem: HashMap<u64, u64>,
    }

    impl Arch {
        fn read(&self, addr: u64) -> u64 {
            self.mem.get(&addr).copied().unwrap_or(0)
        }

        fn operands(&self, inst: &Instruction) -> [u64; 3] {
            inst.srcs().map(|s| s.map_or(0, |r| self.regs[r.index()]))
        }

        fn write(&mut self, inst: &Instruction, value: u64) {
            self.regs[inst.dst().expect("instruction has a dst").index()] = value;
        }
    }

    /// How the amnesic instructions behave.
    enum Mode<'a> {
        /// They are errors.
        Classic,
        /// The amnesic core.
        Amnesic(Box<Amnesic<'a>>),
        /// Validation: an unbounded `Hist`; every `RCMP` fires and keeps
        /// the loaded value.
        Replay {
            hist: HashMap<u16, [u64; 3]>,
            per_slice: Vec<SliceReplayStats>,
        },
    }

    struct Amnesic<'a> {
        config: &'a AmnesicConfig,
        sfile: SFile,
        renamer: Renamer,
        hist: Hist,
        ibuff: IBuff,
        predictor: MissPredictor,
        stats: AmnesicStats,
        failed_keys: HashSet<u16>,
    }

    struct Finished {
        arch: Arch,
        retired: u64,
        loads: u64,
        stores: u64,
    }

    fn unexpected(pc: usize, inst: &Instruction) -> AmnesicError {
        RunError::UnexpectedInstruction {
            pc,
            what: inst.to_string(),
        }
        .into()
    }

    /// Runs `program` to `Halt`; `machine` is the cost model (none for the
    /// replay).
    fn run(
        program: &Program,
        max: u64,
        machine: &mut Option<Machine>,
        mode: &mut Mode<'_>,
        observer: &mut dyn Observer,
    ) -> Result<Finished, AmnesicError> {
        let mut arch = Arch {
            regs: [0; NUM_REGS],
            mem: program.data.iter().collect(),
        };
        let (mut retired, mut loads, mut stores) = (0u64, 0u64, 0u64);
        let mut pc = program.entry;
        loop {
            if retired >= max {
                return Err(RunError::FuseBlown { limit: max }.into());
            }
            if pc >= program.code_len {
                return Err(RunError::PcOutOfRange { pc }.into());
            }
            if let Some(m) = machine.as_mut() {
                m.fetch(pc);
            }
            retired += 1;
            let inst = &program.instructions[pc];
            let vals = arch.operands(inst);
            let mut event = RetireEvent {
                pc,
                inst,
                src_values: vals,
                result: None,
                addr: None,
                level: None,
            };
            let mut next = pc + 1;
            match *inst {
                Instruction::Load { offset, .. } => {
                    let addr = vals[0].wrapping_add(offset as u64);
                    event.level = machine.as_mut().map(|m| m.load(addr));
                    let value = arch.read(addr);
                    arch.write(inst, value);
                    loads += 1;
                    event.result = Some(value);
                    event.addr = Some(addr);
                }
                Instruction::Store { offset, .. } => {
                    let addr = vals[1].wrapping_add(offset as u64);
                    arch.mem.insert(addr, vals[0]);
                    event.level = machine.as_mut().map(|m| m.store(addr));
                    stores += 1;
                    event.addr = Some(addr);
                }
                Instruction::Rtn { .. } => return Err(unexpected(pc, inst)),
                Instruction::Rec { key, .. } => match mode {
                    Mode::Classic => return Err(unexpected(pc, inst)),
                    Mode::Amnesic(a) => {
                        let m = machine.as_mut().expect("the amnesic core is costed");
                        m.charge_op(Category::Rec);
                        m.account.record_event(UarchEvent::HistWrite, 0.0);
                        if !a.hist.write(key, vals) {
                            a.failed_keys.insert(key);
                        }
                    }
                    Mode::Replay { hist, .. } => {
                        hist.insert(key, vals);
                    }
                },
                Instruction::Rcmp { offset, slice, .. } => {
                    let addr = vals[0].wrapping_add(offset as u64);
                    let recomputed = match mode {
                        Mode::Classic => return Err(unexpected(pc, inst)),
                        Mode::Amnesic(a) => {
                            let m = machine.as_mut().expect("the amnesic core is costed");
                            let (value, extra) = a.rcmp(program, m, &arch, pc, slice, addr)?;
                            retired += extra;
                            value
                        }
                        Mode::Replay { hist, per_slice } => {
                            let actual = arch.read(addr);
                            let s = &mut per_slice[slice.index()];
                            s.fired += 1;
                            match recompute(program, slice, &arch.regs, hist) {
                                Some(v) if v == actual => s.matches += 1,
                                Some(_) => s.mismatches += 1,
                                None => s.missing_hist += 1,
                            }
                            Some(actual)
                        }
                    };
                    let value = match recomputed {
                        Some(value) => value,
                        None => {
                            event.level = machine.as_mut().map(|m| m.load(addr));
                            loads += 1;
                            arch.read(addr)
                        }
                    };
                    arch.write(inst, value);
                    event.result = Some(value);
                    event.addr = Some(addr);
                }
                _ => {
                    if let Some(m) = machine.as_mut() {
                        m.charge_op(inst.category());
                    }
                    match *inst {
                        Instruction::Halt => {
                            observer.on_retire(&event);
                            return Ok(Finished {
                                arch,
                                retired,
                                loads,
                                stores,
                            });
                        }
                        Instruction::Branch { cond, target, .. } => {
                            if cond.eval(vals[0], vals[1]) {
                                next = target;
                            }
                        }
                        Instruction::Jump { target } => next = target,
                        _ => {
                            let value = eval_compute(inst, vals);
                            arch.write(inst, value);
                            event.result = Some(value);
                        }
                    }
                }
            }
            observer.on_retire(&event);
            pc = next;
        }
    }

    /// The replay's functional slice traversal: `None` on a missing `Hist`
    /// row or an empty body.
    fn recompute(
        program: &Program,
        slice: SliceId,
        regs: &[u64; NUM_REGS],
        hist: &HashMap<u16, [u64; 3]>,
    ) -> Option<u64> {
        let meta = program.slice(slice);
        let mut values: Vec<u64> = Vec::new();
        for k in 0..meta.compute_len() {
            let inst = &program.instructions[meta.entry + k];
            let mut vals = [0u64; 3];
            for (j, source) in meta.plans[k].sources.iter().enumerate() {
                vals[j] = match source {
                    None => 0,
                    Some(OperandSource::SFile { producer }) => values[*producer as usize],
                    Some(OperandSource::LiveReg) => {
                        regs[inst.srcs()[j].expect("planned operand").index()]
                    }
                    Some(OperandSource::Hist { key }) => hist.get(key)?[j],
                };
            }
            values.push(eval_compute(inst, vals));
        }
        values.last().copied()
    }

    impl Amnesic<'_> {
        /// The scheduler at an `RCMP`: the recomputed value (or `None` when
        /// the load is performed) and the retirements it adds.
        fn rcmp(
            &mut self,
            program: &Program,
            m: &mut Machine,
            arch: &Arch,
            pc: usize,
            slice: SliceId,
            addr: u64,
        ) -> Result<(Option<u64>, u64), AmnesicError> {
            m.charge_op(Category::Rcmp);
            let level = m.probe(addr);
            let meta = program.slice(slice);
            let s = slice.index();
            let mut forced = meta.compute_len() > self.sfile.capacity()
                || meta
                    .hist_keys()
                    .iter()
                    .any(|k| self.failed_keys.contains(k));
            if !forced && self.fires(program, m, pc, slice, level) {
                match self.traverse(program, m, arch, slice) {
                    Some(value) => {
                        self.stats.per_slice[s].fired += 1;
                        self.stats.swapped_levels.record(level);
                        let expected = arch.read(addr);
                        if self.config.check_values && value != expected {
                            return Err(AmnesicError::ValueMismatch {
                                pc,
                                slice: slice.0,
                                expected,
                                got: value,
                            });
                        }
                        return Ok((Some(value), 1 + meta.len as u64));
                    }
                    None => forced = true,
                }
            } else if !forced {
                self.stats.per_slice[s].loaded += 1;
            }
            if forced {
                self.stats.per_slice[s].forced_loads += 1;
            }
            self.stats.performed_levels.record(level);
            Ok((None, 1))
        }

        /// §3.3.1: whether the policy fires, charging any probes.
        fn fires(
            &mut self,
            program: &Program,
            m: &mut Machine,
            pc: usize,
            slice: SliceId,
            level: ServiceLevel,
        ) -> bool {
            let e = m.energy.clone();
            match self.config.policy {
                Policy::Compiler => true,
                Policy::Flc if level == ServiceLevel::L1 => false,
                Policy::Flc => {
                    m.account.record_event(UarchEvent::ProbeL1, e.probe_nj[0]);
                    m.account.add_cycles(e.probe_cycles[0]);
                    true
                }
                Policy::Llc if level != ServiceLevel::Mem => false,
                Policy::Llc => {
                    m.account.record_event(UarchEvent::ProbeL1, e.probe_nj[0]);
                    m.account.record_event(UarchEvent::ProbeL2, e.probe_nj[1]);
                    m.account.add_cycles(e.probe_cycles[0] + e.probe_cycles[1]);
                    true
                }
                Policy::Oracle => program.slice(slice).est_recompute_nj < e.load_energy(level),
                Policy::Predictor => {
                    let fire = self.predictor.predict_miss(pc);
                    self.predictor.train(pc, level != ServiceLevel::L1);
                    fire
                }
            }
        }

        /// Slice traversal through `IBuff`, `SFile`/`Renamer` and `Hist`;
        /// `None` when a `Hist` row is missing or the `SFile` overflows.
        fn traverse(
            &mut self,
            program: &Program,
            m: &mut Machine,
            arch: &Arch,
            slice: SliceId,
        ) -> Option<u64> {
            let meta = program.slice(slice);
            let n = meta.compute_len();
            let e = m.energy.clone();
            let cycles_before = m.account.cycles();
            if self.ibuff.access(slice, n) {
                for _ in 0..n {
                    m.account
                        .record_event(UarchEvent::IBuffRead, e.ibuff_read_nj);
                }
            } else {
                for k in 0..n {
                    m.fetch(meta.entry + k);
                }
                m.account
                    .record_event(UarchEvent::IBuffFill, e.ibuff_fill_nj);
            }

            let mut result = Some(0);
            'body: for k in 0..n {
                let inst = &program.instructions[meta.entry + k];
                let mut vals = [0u64; 3];
                // the last Hist row read for this instruction
                let mut row: Option<(u16, [u64; 3])> = None;
                for (j, source) in meta.plans[k].sources.iter().enumerate() {
                    vals[j] = match *source {
                        None => 0,
                        Some(OperandSource::SFile { producer }) => {
                            let slot = self.renamer.resolve(producer as usize);
                            m.account.record_event(UarchEvent::SFileAccess, e.sfile_nj);
                            self.sfile.read(slot)
                        }
                        Some(OperandSource::LiveReg) => {
                            arch.regs[inst.srcs()[j].expect("planned operand").index()]
                        }
                        Some(OperandSource::Hist { key }) => {
                            m.account.record_event(UarchEvent::HistRead, e.hist_read_nj);
                            let entry = match row {
                                Some((k, r)) if k == key => Some(r),
                                _ => {
                                    m.account.add_cycles(e.hist_cycles);
                                    self.hist.read(key)
                                }
                            };
                            let Some(entry) = entry else {
                                result = None;
                                break 'body;
                            };
                            row = Some((key, entry));
                            entry[j]
                        }
                    };
                }
                if let Some(kind) = compute_exception(inst, vals) {
                    self.stats.deferred_exceptions.push(DeferredException {
                        slice: slice.0,
                        slice_inst: k as u16,
                        kind,
                    });
                }
                let value = eval_compute(inst, vals);
                m.charge_op(inst.category());
                self.stats.recompute_insts += 1;
                let Some(slot) = self.sfile.alloc_write(value) else {
                    result = None;
                    break;
                };
                m.account.record_event(UarchEvent::SFileAccess, e.sfile_nj);
                self.renamer.bind(k, slot);
                result = Some(value);
            }

            m.charge_op(Category::Rtn);
            if self.config.offload {
                let spent = m.account.cycles() - cycles_before;
                m.account.add_cycles_saved(spent);
            }
            self.sfile.release_all();
            self.renamer.clear();
            result
        }
    }

    fn output(program: &Program, arch: &Arch) -> BTreeMap<u64, u64> {
        let words = program.output.iter().flat_map(|range| range.iter());
        words.map(|addr| (addr, arch.read(addr))).collect()
    }

    fn run_result(program: &Program, m: Machine, f: &Finished) -> RunResult {
        RunResult {
            account: m.account,
            hierarchy: m.hierarchy.stats().clone(),
            final_memory: output(program, &f.arch),
            instructions: f.retired,
            loads: f.loads,
            stores: f.stores,
        }
    }

    fn run_error(e: AmnesicError) -> RunError {
        match e {
            AmnesicError::Run(e) => e,
            other => unreachable!("only the amnesic core rejects values: {other}"),
        }
    }

    /// Classic execution, reporting every retirement to `observer`.
    pub fn classic(
        program: &Program,
        config: &CoreConfig,
        observer: &mut dyn Observer,
    ) -> Result<RunResult, RunError> {
        let mut machine = Some(Machine::new(config));
        let f = run(
            program,
            config.max_instructions,
            &mut machine,
            &mut Mode::Classic,
            observer,
        )
        .map_err(run_error)?;
        Ok(run_result(program, machine.expect("costed"), &f))
    }

    /// Amnesic execution.
    pub fn amnesic(
        program: &Program,
        config: &AmnesicConfig,
    ) -> Result<AmnesicRunResult, AmnesicError> {
        let mut machine = Some(Machine::new(&config.core));
        let mut mode = Mode::Amnesic(Box::new(Amnesic {
            config,
            sfile: SFile::new(config.sfile_capacity),
            renamer: Renamer::new(),
            hist: Hist::new(config.hist_capacity),
            ibuff: IBuff::new(config.ibuff_capacity),
            predictor: MissPredictor::new(),
            stats: AmnesicStats {
                per_slice: vec![SliceRuntimeStats::default(); program.slices.len()],
                ..AmnesicStats::default()
            },
            failed_keys: HashSet::new(),
        }));
        let f = run(
            program,
            config.core.max_instructions,
            &mut machine,
            &mut mode,
            &mut NullObserver,
        )?;
        let Mode::Amnesic(a) = mode else {
            unreachable!()
        };
        let mut stats = a.stats;
        stats.sfile_high_water = a.sfile.high_water();
        stats.hist_high_water = a.hist.high_water();
        stats.ibuff_high_water = a.ibuff.high_water();
        stats.ibuff_hits = a.ibuff.hits();
        stats.ibuff_misses = a.ibuff.misses();
        stats.hist_reads = a.hist.reads();
        stats.hist_failed_writes = a.hist.failed_writes();
        stats.rename_requests = a.renamer.requests();
        stats.predictions = a.predictor.predictions();
        stats.mispredictions = a.predictor.mispredictions();
        Ok(AmnesicRunResult {
            run: run_result(program, machine.expect("costed"), &f),
            stats,
        })
    }

    /// The compiler's validation replay.
    pub fn replay(program: &Program, max: u64) -> Result<ReplayOutcome, RunError> {
        let mut mode = Mode::Replay {
            hist: HashMap::new(),
            per_slice: vec![SliceReplayStats::default(); program.slices.len()],
        };
        let f = run(program, max, &mut None, &mut mode, &mut NullObserver).map_err(run_error)?;
        let Mode::Replay { per_slice, .. } = mode else {
            unreachable!()
        };
        Ok(ReplayOutcome {
            per_slice,
            output: output(program, &f.arch),
        })
    }
}

/// One owned retirement record: pc, operand values, result, address, level.
type Retired = (
    usize,
    [u64; 3],
    Option<u64>,
    Option<u64>,
    Option<ServiceLevel>,
);

/// Records every retirement as owned values, optionally feeding a profiler
/// the same stream.
#[derive(Default)]
struct Recorder<'p> {
    events: Vec<Retired>,
    profiler: Option<Profiler<'p>>,
}

impl Observer for Recorder<'_> {
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        self.events.push((
            event.pc,
            event.src_values,
            event.result,
            event.addr,
            event.level,
        ));
        if let Some(p) = &mut self.profiler {
            p.on_retire(event);
        }
    }
}

fn fused(fuse: u64) -> CoreConfig {
    CoreConfig {
        max_instructions: fuse,
        ..CoreConfig::paper()
    }
}

fn same_run(name: &str, engine: &RunResult, reference: &RunResult) {
    assert_eq!(
        (engine.instructions, engine.loads, engine.stores),
        (reference.instructions, reference.loads, reference.stores),
        "{name}: instruction/load/store counts"
    );
    assert_eq!(
        engine.final_memory, reference.final_memory,
        "{name}: memory image"
    );
    assert_eq!(engine.hierarchy, reference.hierarchy, "{name}: hierarchy");
    // Debug prints each f64 in round-trip form: equal strings, equal bits
    assert_eq!(
        format!("{:?}", engine.account),
        format!("{:?}", reference.account),
        "{name}: energy account (bit-exact)"
    );
}

/// Asserts both sides succeeded and agree, or failed with the same error.
fn same_outcome<T, E: std::fmt::Debug + PartialEq>(
    name: &str,
    engine: &Result<T, E>,
    reference: &Result<T, E>,
    agree: impl FnOnce(&T, &T),
) {
    match (engine, reference) {
        (Ok(a), Ok(b)) => agree(a, b),
        (Err(a), Err(b)) => assert_eq!(a, b, "{name}: error values"),
        (a, b) => panic!(
            "{name}: engine {:?} vs reference {:?}",
            a.as_ref().err(),
            b.as_ref().err()
        ),
    }
}

/// Classic core vs reference, event stream included.
fn check_classic(name: &str, program: &Program, config: &CoreConfig) {
    let mut engine_events = Recorder::default();
    let mut reference_events = Recorder::default();
    let engine = ClassicCore::new(config.clone()).run_observed(program, &mut engine_events);
    let reference = reference::classic(program, config, &mut reference_events);
    same_outcome(name, &engine, &reference, |a, b| same_run(name, a, b));
    assert_eq!(
        engine_events.events, reference_events.events,
        "{name}: observer event streams"
    );
}

/// Validation replay vs reference.
fn check_replay(name: &str, program: &Program, fuse: u64) {
    let engine = replay_validate(program, fuse);
    let reference = reference::replay(program, fuse);
    same_outcome(name, &engine, &reference, |a: &ReplayOutcome, b| {
        assert_eq!(a.per_slice, b.per_slice, "{name}: replay slice stats");
        assert_eq!(a.output, b.output, "{name}: replay output image");
    });
}

/// Amnesic core vs reference, every statistic included.
fn check_amnesic(name: &str, program: &Program, config: &AmnesicConfig) {
    let engine = AmnesicCore::new(config.clone()).run(program);
    let reference = reference::amnesic(program, config);
    same_outcome(
        name,
        &engine,
        &reference,
        |a: &AmnesicRunResult, b: &AmnesicRunResult| {
            same_run(name, &a.run, &b.run);
            assert_eq!(
                format!("{:?}", a.stats),
                format!("{:?}", b.stats),
                "{name}: amnesic stats"
            );
        },
    );
}

/// All three interpreters at one fuse budget.
fn check_all(name: &str, program: &Program, fuse: u64) {
    check_classic(name, program, &fused(fuse));
    check_replay(name, program, fuse);
    check_amnesic(
        name,
        program,
        &AmnesicConfig {
            core: fused(fuse),
            ..AmnesicConfig::paper(Policy::Compiler)
        },
    );
}

/// Generates a random classic program exercising the loop's edges: zero-trip
/// loops, backward branches, stores into a declared output window, and
/// (sometimes) a fallthrough off the end of main code into a junk region
/// shaped like slice bodies.
fn rng_program(r: &mut Rng, case: usize) -> Program {
    let n = r.range_usize(4, 40);
    // r0..r6 carry arbitrary data; r7 is the only load/store base and only
    // ever holds small `li` constants, keeping effective addresses inside
    // the data window like a real program
    let reg = |r: &mut Rng| Reg(r.below(7) as u8);
    let alu_ops = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Xor, AluOp::And];
    let conds = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
    let mut insts = Vec::with_capacity(n + 4);
    for _ in 0..n {
        let inst = match r.below(10) {
            0 => Instruction::Li {
                dst: Reg(7),
                imm: r.below(64),
            },
            1 => Instruction::Li {
                dst: reg(r),
                imm: r.below(64),
            },
            2 | 3 => Instruction::Alu {
                op: *r.choose(&alu_ops),
                dst: reg(r),
                lhs: reg(r),
                rhs: reg(r),
            },
            4 | 5 => Instruction::Alui {
                op: *r.choose(&alu_ops),
                dst: reg(r),
                src: reg(r),
                imm: r.below(16),
            },
            6 => Instruction::Load {
                dst: reg(r),
                base: Reg(7),
                offset: r.below(8) as i64,
            },
            7 => Instruction::Store {
                src: reg(r),
                base: Reg(7),
                offset: r.below(8) as i64,
            },
            // any main-code target, forward or backward (the fuse bounds
            // runaway loops; both sides must agree on the blow)
            8 => Instruction::Branch {
                cond: *r.choose(&conds),
                lhs: reg(r),
                rhs: reg(r),
                target: r.below((n + 1) as u64) as usize,
            },
            _ => Instruction::Jump {
                target: r.below((n + 1) as u64) as usize,
            },
        };
        insts.push(inst);
    }
    // Half the programs halt cleanly; the rest fall through to code_len,
    // which must yield the same PcOutOfRange on both sides.
    let falls_through = case % 2 == 1;
    if !falls_through {
        insts.push(Instruction::Halt);
    }
    let mut p = Program::new(format!("rng-{case}"));
    p.code_len = insts.len();
    if falls_through {
        // a junk region past code_len that must never run
        for _ in 0..r.range_usize(1, 4) {
            insts.push(Instruction::Li {
                dst: Reg(1),
                imm: 0xDEAD,
            });
        }
    }
    p.instructions = insts;
    p.entry = 0;
    for a in 0..8 {
        p.data.set(a, r.next_u64() % 64);
    }
    // stores land in [0, 64 + 8); observe the whole window
    p.output.push(MemRange::new(0, 80));
    p
}

#[test]
fn rng_programs_agree_at_every_fuse() {
    let mut r = Rng::seed_from_u64(RNG_SEED);
    for case in 0..RNG_PROGRAMS {
        let p = rng_program(&mut r, case);
        // generous fuse: terminating programs finish, loops blow alike
        check_all(&p.name, &p, 50_000);
        // tiny fuses: FuseBlown must fire at the same retirement
        for fuse in FUSES {
            check_all(&format!("{}/fuse{fuse}", p.name), &p, fuse);
        }
    }
}

#[test]
fn directed_edge_cases_agree() {
    // a single-instruction block branching to itself spins until the fuse;
    // a zero-trip loop's guard skips the body on its first evaluation
    for text in [
        ".name self-branch\nbeq r0, r0, @0\nhalt",
        ".name zero-trip\n.output 0 4\nli r1, 0\nli r2, 0\nbgeu r1, r2, @6\n\
         addi r1, r1, 1\nst r1, [r0+0]\nj @2\nhalt",
    ] {
        let p = parse_asm(text).expect("valid program");
        check_all(&p.name, &p, 1_000);
    }

    // shapes the validator refuses: falling off the end of main code
    // reports PcOutOfRange at code_len without running the slice-shaped
    // instructions past it, and an RTN in main code is an error everywhere
    let li = |imm| Instruction::Li { dst: Reg(1), imm };
    let rtn = Instruction::Rtn { slice: SliceId(0) };
    for (name, code_len, instructions) in [
        ("fallthrough", 2, vec![li(1), li(9), li(0xBAD)]),
        ("rtn", 3, vec![li(1), rtn, Instruction::Halt]),
    ] {
        let mut p = Program::new(name);
        p.instructions = instructions;
        p.code_len = code_len;
        check_all(name, &p, 1_000);
    }
}

/// Where the hand-built slice's leaf operand comes from.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    /// The live register.
    Live,
    /// A `Hist` row checkpointed before the reload.
    Hist,
    /// A `Hist` row checkpointed only after the reload: missing at `RCMP`.
    LateHist,
}

/// `v = r2 op imm` stored then reloaded, with one slice recomputing it;
/// `clobber` overwrites `r2` between the store and the reload.
fn single_slice_program(leaf: Leaf, clobber: bool, op: AluOp, imm: u64) -> Program {
    let mut b = ProgramBuilder::new("one-slice");
    let cell = b.alloc_zeroed(1);
    b.mark_output(cell, 1);
    b.li(Reg(1), cell);
    b.li(Reg(2), 20);
    let mut origin_pc = b.alui(op, Reg(3), Reg(2), imm);
    b.store(Reg(3), Reg(1), 0);
    if clobber {
        b.li(Reg(2), 999);
    }
    let load_pc = b.load(Reg(4), Reg(1), 0);
    if let Leaf::LateHist = leaf {
        origin_pc = b.alui(op, Reg(5), Reg(2), imm);
    }
    b.halt();
    let p = b.finish().expect("valid program");
    let source = match leaf {
        Leaf::Live => OperandSource::LiveReg,
        Leaf::Hist | Leaf::LateHist => OperandSource::Hist { key: 0 },
    };
    let spec = SliceSpec {
        load_pc,
        insts: vec![SliceInstSpec {
            inst: Instruction::Alui {
                op,
                dst: Reg(3),
                src: Reg(2),
                imm,
            },
            origin_pc,
            sources: [Some(source), None, None],
        }],
        height: 0,
        est_recompute_nj: 1.0,
        est_load_nj: 20.0,
    };
    annotate(&p, &[spec]).expect("annotates")
}

#[test]
fn hand_annotated_slices_agree_on_values_and_errors() {
    // a clobbered live-register leaf recomputes the wrong value (the replay
    // counts a mismatch, the amnesic core reports ValueMismatch), a late
    // checkpoint leaves the Hist row missing, and a division by zero inside
    // the slice is a deferred exception
    let cases = [
        (Leaf::Live, false, AluOp::Add, 3),
        (Leaf::Live, true, AluOp::Add, 3),
        (Leaf::Hist, true, AluOp::Add, 3),
        (Leaf::LateHist, false, AluOp::Add, 3),
        (Leaf::Hist, true, AluOp::Div, 0),
    ];
    for (leaf, clobber, op, imm) in cases {
        let p = single_slice_program(leaf, clobber, op, imm);
        let name = format!("one-slice/{leaf:?}/clobber={clobber}/{op:?}");
        check_classic(&name, &p, &CoreConfig::paper());
        check_replay(&name, &p, 10_000);
        for policy in Policy::ALL_EXTENDED {
            check_amnesic(&name, &p, &AmnesicConfig::paper(policy));
        }
        // the fuse landing inside the RCMP's extra retirements
        for fuse in 1..8 {
            check_all(&format!("{name}/fuse{fuse}"), &p, fuse);
        }
    }

    let compiler = AmnesicCore::new(AmnesicConfig::paper(Policy::Compiler));
    let mismatch = compiler.run(&single_slice_program(Leaf::Live, true, AluOp::Add, 3));
    assert!(
        matches!(mismatch, Err(AmnesicError::ValueMismatch { .. })),
        "the clobbered slice is caught: {mismatch:?}"
    );
    let late = replay_validate(
        &single_slice_program(Leaf::LateHist, false, AluOp::Add, 3),
        10_000,
    )
    .expect("replay completes");
    assert_eq!(late.per_slice[0].missing_hist, 1);
    let deferred = compiler
        .run(&single_slice_program(Leaf::Hist, true, AluOp::Div, 0))
        .expect("division by zero is deferred, not fatal");
    assert_eq!(deferred.stats.deferred_exceptions.len(), 1);
}

/// Tiny caches with 8-byte lines: reloads miss, so the compiler selects
/// slices at test scale and every policy's fire and probe branches run.
fn tiny_caches() -> CoreConfig {
    let cache = |size_bytes, line_bytes| CacheConfig {
        size_bytes,
        ways: 2,
        line_bytes,
    };
    CoreConfig {
        hierarchy: HierarchyConfig {
            l1i: cache(256, 64),
            l1d: cache(128, 8),
            l2: cache(1024, 8),
            next_line_prefetch: false,
        },
        ..CoreConfig::paper()
    }
}

#[test]
fn whole_sweep_agrees_under_every_policy_and_structure_variant() {
    type Variant = (&'static str, fn(&mut AmnesicConfig));
    let variants: [Variant; 3] = [
        ("offload", |c| c.offload = true),
        ("sfile0", |c| c.sfile_capacity = 0),
        ("hist0", |c| c.hist_capacity = 0),
    ];
    for (machine_name, machine) in [("paper", CoreConfig::paper()), ("tiny", tiny_caches())] {
        let fuse = machine.max_instructions;
        for workload in all_workloads(Scale::Test) {
            let name = format!("{}/{machine_name}", workload.name);
            let program = &workload.program;

            // classic core, observer stream and profile
            check_classic(&format!("{name}/classic"), program, &machine);
            let mut profiled = Recorder {
                events: Vec::new(),
                profiler: Some(Profiler::new(program)),
            };
            let reference_run = reference::classic(program, &machine, &mut profiled)
                .expect("reference classic run");
            let reference_profile = profiled
                .profiler
                .take()
                .expect("profiler attached")
                .finish(reference_run.instructions);
            let (profile, profile_run) =
                profile_program(program, &machine).expect("profiling succeeds");
            same_run(&format!("{name}/profile"), &profile_run, &reference_run);
            assert_eq!(
                format!("{profile:?}"),
                format!("{reference_profile:?}"),
                "{name}: profiles"
            );

            let (binary, _) =
                compile(program, &profile, &CompileOptions::default()).expect("compile succeeds");
            check_replay(&format!("{name}/replay"), &binary, fuse);
            // the classic core rejects an annotated binary identically
            check_classic(&format!("{name}/classic-annotated"), &binary, &machine);

            for policy in Policy::ALL_EXTENDED {
                let config = AmnesicConfig {
                    core: machine.clone(),
                    ..AmnesicConfig::paper(policy)
                };
                check_amnesic(&format!("{name}/amnesic/{policy}"), &binary, &config);
            }
            for (variant, apply) in variants {
                let mut config = AmnesicConfig {
                    core: machine.clone(),
                    ..AmnesicConfig::paper(Policy::Compiler)
                };
                apply(&mut config);
                check_amnesic(&format!("{name}/amnesic/{variant}"), &binary, &config);
            }
        }
    }
}
