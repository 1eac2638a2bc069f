//! The amnesic execution engine: an in-order core extended with the
//! amnesic scheduler and the Fig. 2 microarchitecture.

use std::collections::HashSet;

use amnesiac_energy::UarchEvent;
use amnesiac_isa::{predecode, Category, DecodedInst, OperandSource, Program, SliceId, NUM_REGS};
use amnesiac_mem::ServiceLevel;
use amnesiac_sim::{
    decoded_exception, execute, ArchState, CoreConfig, Hooks, Machine, RcmpOutcome, RunError,
    RunResult,
};
use amnesiac_telemetry::{Json, ToJson};

use crate::policy::Policy;
use crate::predictor::MissPredictor;
use crate::stats::{AmnesicStats, DeferredException, SliceRuntimeStats};
use crate::structures::{Hist, IBuff, Renamer, SFile};

/// Configuration of an [`AmnesicCore`].
#[derive(Debug, Clone)]
pub struct AmnesicConfig {
    /// Base machine (caches, energy model, fuse).
    pub core: CoreConfig,
    /// Runtime scheduler policy.
    pub policy: Policy,
    /// `SFile` capacity in entries. Slices that cannot fit always fall back
    /// to the load.
    pub sfile_capacity: usize,
    /// `Hist` capacity in entries (the paper sizes ≤ 600 for the worst
    /// case, §5.4).
    pub hist_capacity: usize,
    /// `IBuff` capacity in instructions.
    pub ibuff_capacity: usize,
    /// Verify at every fired recomputation that the recomputed value equals
    /// the in-memory value (it must, by compiler validation); a mismatch is
    /// reported as [`AmnesicError::ValueMismatch`].
    pub check_values: bool,
    /// Model the paper's footnote-4 future work: recomputation offloaded
    /// to a spare/idle core. Slice traversal still costs its energy, but
    /// its latency overlaps with the main thread (no cycles are charged
    /// for recomputing instructions, `RTN`, or `IBuff`/`Hist` supply).
    pub offload: bool,
}

impl AmnesicConfig {
    /// The paper's evaluation setup with the given policy.
    pub fn paper(policy: Policy) -> Self {
        AmnesicConfig {
            core: CoreConfig::paper(),
            policy,
            sfile_capacity: 256,
            hist_capacity: 600,
            ibuff_capacity: 256,
            check_values: true,
            offload: false,
        }
    }
}

/// Errors from amnesic execution.
#[derive(Debug, Clone, PartialEq)]
pub enum AmnesicError {
    /// The underlying run failed (fuse, pc range, malformed program).
    Run(RunError),
    /// A fired recomputation produced a value different from memory — a
    /// compiler-validation escape, i.e. a bug.
    ValueMismatch {
        /// Pc of the `RCMP`.
        pc: usize,
        /// The offending slice.
        slice: u32,
        /// The value in memory.
        expected: u64,
        /// The recomputed value.
        got: u64,
    },
}

impl std::fmt::Display for AmnesicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmnesicError::Run(e) => write!(f, "{e}"),
            AmnesicError::ValueMismatch {
                pc,
                slice,
                expected,
                got,
            } => write!(
                f,
                "recomputation mismatch at pc {pc} (slice {slice}): memory {expected:#x}, \
                 recomputed {got:#x}"
            ),
        }
    }
}

impl std::error::Error for AmnesicError {}

impl From<RunError> for AmnesicError {
    fn from(e: RunError) -> Self {
        AmnesicError::Run(e)
    }
}

/// Result of an amnesic run.
#[derive(Debug, Clone)]
pub struct AmnesicRunResult {
    /// Baseline run metrics (energy, time, output, hierarchy stats).
    pub run: RunResult,
    /// Amnesic-specific statistics.
    pub stats: AmnesicStats,
}

impl AmnesicRunResult {
    /// Energy-delay product.
    pub fn edp(&self) -> f64 {
        self.run.account.edp()
    }
}

impl ToJson for AmnesicRunResult {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("run", self.run.to_json())
            .with("amnesic", self.stats.to_json())
    }
}

enum Traversal {
    Done(u64),
    MissingHist,
    SFileOverflow,
}

/// The amnesic core (§3.2–§3.3): classic in-order execution plus the
/// amnesic scheduler, `SFile`, `Renamer`, `Hist`, and `IBuff`.
#[derive(Debug, Clone)]
pub struct AmnesicCore {
    config: AmnesicConfig,
}

impl AmnesicCore {
    /// Creates a core.
    pub fn new(config: AmnesicConfig) -> Self {
        AmnesicCore { config }
    }

    /// The core's configuration.
    pub fn config(&self) -> &AmnesicConfig {
        &self.config
    }

    /// Runs an annotated (or classic) program to `Halt`.
    ///
    /// # Errors
    ///
    /// * [`AmnesicError::Run`] on fuse/pc errors;
    /// * [`AmnesicError::ValueMismatch`] if a recomputation diverges from
    ///   memory while `check_values` is set.
    pub fn run(&self, program: &Program) -> Result<AmnesicRunResult, AmnesicError> {
        // covers slice bodies too, so `traverse` walks the same table
        let decoded = predecode(program);
        let mut hooks = AmnesicHooks {
            config: &self.config,
            program,
            decoded: &decoded,
            machine: Machine::new(&self.config.core),
            sfile: SFile::new(self.config.sfile_capacity),
            renamer: Renamer::new(),
            hist: Hist::new(self.config.hist_capacity),
            ibuff: IBuff::new(self.config.ibuff_capacity),
            predictor: MissPredictor::new(),
            stats: AmnesicStats {
                per_slice: vec![SliceRuntimeStats::default(); program.slices.len()],
                ..AmnesicStats::default()
            },
            failed_keys: HashSet::new(),
            slice_keys: program.slices.iter().map(|m| m.hist_keys()).collect(),
        };
        let halted = execute(
            program,
            &decoded,
            self.config.core.max_instructions,
            &mut hooks,
        )?;

        let AmnesicHooks {
            machine,
            sfile,
            renamer,
            hist,
            ibuff,
            predictor,
            mut stats,
            ..
        } = hooks;
        stats.sfile_high_water = sfile.high_water();
        stats.hist_high_water = hist.high_water();
        stats.ibuff_high_water = ibuff.high_water();
        stats.ibuff_hits = ibuff.hits();
        stats.ibuff_misses = ibuff.misses();
        stats.hist_reads = hist.reads();
        stats.hist_failed_writes = hist.failed_writes();
        stats.rename_requests = renamer.requests();
        stats.predictions = predictor.predictions();
        stats.mispredictions = predictor.mispredictions();
        Ok(AmnesicRunResult {
            run: RunResult::new(program, machine, halted),
            stats,
        })
    }
}

/// Amnesic execution: classic costs plus the runtime scheduler (§3.3) at
/// every `RCMP` and the §3.2 structures behind `REC` and slice traversal.
struct AmnesicHooks<'a> {
    config: &'a AmnesicConfig,
    program: &'a Program,
    decoded: &'a [DecodedInst],
    machine: Machine,
    sfile: SFile,
    renamer: Renamer,
    hist: Hist,
    ibuff: IBuff,
    predictor: MissPredictor,
    stats: AmnesicStats,
    /// Leaf-address keys whose `REC` overflowed (§3.5: failed `REC`s force
    /// the owning `RCMP`s to perform the load) …
    failed_keys: HashSet<u16>,
    /// … and the `Hist` keys each slice depends on.
    slice_keys: Vec<Vec<u16>>,
}

impl Hooks for AmnesicHooks<'_> {
    type Error = AmnesicError;

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

    /// Checkpoints the origin's source operand values (§3.1.2).
    fn rec(&mut self, _pc: usize, key: u16, values: [u64; 3]) -> Result<(), AmnesicError> {
        self.machine.charge_op(Category::Rec);
        self.machine
            .account
            .record_event(UarchEvent::HistWrite, 0.0);
        if !self.hist.write(key, values) {
            self.failed_keys.insert(key);
        }
        Ok(())
    }

    fn rcmp(
        &mut self,
        state: &ArchState,
        pc: usize,
        slice: SliceId,
        addr: u64,
    ) -> Result<RcmpOutcome, AmnesicError> {
        self.machine.charge_op(Category::Rcmp);
        let level = self.machine.probe(addr);
        let meta = self.program.slice(slice);
        // the RCMP decision itself retires work
        let load = RcmpOutcome {
            value: None,
            extra_retired: 1,
        };

        let forced = meta.compute_len() > self.sfile.capacity()
            || self.slice_keys[slice.index()]
                .iter()
                .any(|k| self.failed_keys.contains(k));
        if forced {
            self.stats.per_slice[slice.index()].forced_loads += 1;
            self.stats.performed_levels.record(level);
            return Ok(load);
        }
        if !self.decide(pc, slice, level) {
            self.stats.record_decision(slice.index(), false, level);
            return Ok(load);
        }
        match self.traverse(&state.regs, slice) {
            Traversal::Done(value) => {
                self.stats.record_decision(slice.index(), true, level);
                let expected = state.mem.get(addr);
                if self.config.check_values && value != expected {
                    return Err(AmnesicError::ValueMismatch {
                        pc,
                        slice: slice.0,
                        expected,
                        got: value,
                    });
                }
                Ok(RcmpOutcome {
                    value: Some(value),
                    extra_retired: 1 + meta.len as u64,
                })
            }
            Traversal::MissingHist | Traversal::SFileOverflow => {
                self.stats.per_slice[slice.index()].forced_loads += 1;
                self.stats.performed_levels.record(level);
                Ok(load)
            }
        }
    }
}

impl AmnesicHooks<'_> {
    /// Resolves the `RCMP` branching condition (§3.3.1), charging any
    /// probing overhead to the machine when recomputation fires.
    fn decide(&mut self, pc: usize, slice: SliceId, level: ServiceLevel) -> bool {
        let machine = &mut self.machine;
        let energy = &machine.energy;
        match self.config.policy {
            Policy::Compiler => true,
            Policy::Flc => {
                if level == ServiceLevel::L1 {
                    false
                } else {
                    machine
                        .account
                        .record_event(UarchEvent::ProbeL1, energy.probe_nj[0]);
                    machine.account.add_cycles(energy.probe_cycles[0]);
                    true
                }
            }
            Policy::Llc => {
                if level != ServiceLevel::Mem {
                    false
                } else {
                    let (p1, p2) = (energy.probe_nj[0], energy.probe_nj[1]);
                    let cyc = energy.probe_cycles[0] + energy.probe_cycles[1];
                    machine.account.record_event(UarchEvent::ProbeL1, p1);
                    machine.account.record_event(UarchEvent::ProbeL2, p2);
                    machine.account.add_cycles(cyc);
                    true
                }
            }
            Policy::Oracle => {
                let meta = self.program.slice(slice);
                meta.est_recompute_nj < energy.load_energy(level)
            }
            Policy::Predictor => {
                // no probe: the prediction is free; training uses the true
                // outcome (available to the model, as a real predictor
                // would learn it from the eventual fill/hit signal)
                let fire = self.predictor.predict_miss(pc);
                self.predictor.train(pc, level != ServiceLevel::L1);
                fire
            }
        }
    }

    /// Traverses a slice: instruction supply via `IBuff`/L1-I, operands via
    /// `SFile`/register file/`Hist`, results into `SFile`; exceptions are
    /// deferred (§2.3). Returns the recomputed root value.
    fn traverse(&mut self, regs: &[u64; NUM_REGS], slice: SliceId) -> Traversal {
        let meta = self.program.slice(slice);
        let body_len = meta.compute_len();
        let machine = &mut self.machine;
        let cycles_before = machine.account.cycles();

        // instruction supply: IBuff hit avoids all L1-I traffic
        let resident = self.ibuff.access(slice, body_len);
        if resident {
            for _ in 0..body_len {
                machine
                    .account
                    .record_event(UarchEvent::IBuffRead, machine.energy.ibuff_read_nj);
            }
        } else {
            for k in 0..body_len {
                machine.fetch(meta.entry + k);
            }
            machine
                .account
                .record_event(UarchEvent::IBuffFill, machine.energy.ibuff_fill_nj);
        }

        let mut outcome = None;
        let mut last_value = 0u64;
        for k in 0..body_len {
            let d = &self.decoded[meta.entry + k];
            let plan = &meta.plans[k];
            let mut vals = [0u64; 3];
            let mut hist_entry: Option<(u16, [u64; 3])> = None;
            let mut ok = true;
            for j in 0..3 {
                let Some(source) = plan.sources[j] else {
                    continue;
                };
                vals[j] = match source {
                    OperandSource::SFile { producer } => {
                        let slot = self.renamer.resolve(producer as usize);
                        machine
                            .account
                            .record_event(UarchEvent::SFileAccess, machine.energy.sfile_nj);
                        self.sfile.read(slot)
                    }
                    OperandSource::LiveReg => {
                        regs[d.srcs[j].expect("planned operand exists").index()]
                    }
                    OperandSource::Hist { key } => {
                        machine
                            .account
                            .record_event(UarchEvent::HistRead, machine.energy.hist_read_nj);
                        let entry = match hist_entry {
                            Some((k, e)) if k == key => Some(e),
                            _ => {
                                machine.account.add_cycles(machine.energy.hist_cycles);
                                self.hist.read(key)
                            }
                        };
                        match entry {
                            Some(e) => {
                                hist_entry = Some((key, e));
                                e[j]
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                };
            }
            if !ok {
                outcome = Some(Traversal::MissingHist);
                break;
            }
            if let Some(kind) = decoded_exception(d, vals) {
                self.stats.deferred_exceptions.push(DeferredException {
                    slice: slice.0,
                    slice_inst: k as u16,
                    kind,
                });
            }
            let value = d.eval_compute(vals);
            machine.charge_op(d.category);
            self.stats.recompute_insts += 1;
            let Some(slot) = self.sfile.alloc_write(value) else {
                outcome = Some(Traversal::SFileOverflow);
                break;
            };
            machine
                .account
                .record_event(UarchEvent::SFileAccess, machine.energy.sfile_nj);
            self.renamer.bind(k, slot);
            last_value = value;
        }

        machine.charge_op(Category::Rtn);
        if self.config.offload {
            // footnote 4: a helper core hides the traversal latency; only
            // the energy is paid by the package
            let spent = machine.account.cycles() - cycles_before;
            machine.account.add_cycles_saved(spent);
        }
        self.sfile.release_all();
        self.renamer.clear();
        outcome.unwrap_or(Traversal::Done(last_value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_compiler::{compile, CompileOptions};
    use amnesiac_isa::{AluOp, BranchCond, ProgramBuilder, Reg};
    use amnesiac_mem::{CacheConfig, HierarchyConfig};
    use amnesiac_profile::profile_program;
    use amnesiac_sim::ClassicCore;

    /// Tiny-cache machine where streaming reloads miss (8-byte lines).
    fn small_config() -> CoreConfig {
        let mut c = CoreConfig::paper();
        c.hierarchy = HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 256,
                ways: 2,
                line_bytes: 64,
            },
            l1d: CacheConfig {
                size_bytes: 128,
                ways: 2,
                line_bytes: 8,
            },
            l2: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 8,
            },
            next_line_prefetch: false,
        };
        c
    }

    /// fill tmp[i] = 7·i + 13, then sum it back (reloads recomputable).
    fn kernel(n: u64) -> amnesiac_isa::Program {
        let mut b = ProgramBuilder::new("k");
        let tmp = b.alloc_zeroed(n);
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.li(Reg(1), tmp);
        b.li(Reg(2), 0);
        b.li(Reg(3), n);
        b.li(Reg(4), 7);
        b.li(Reg(5), 13);
        let top = b.label();
        let fill_done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), fill_done);
        b.alu(AluOp::Mul, Reg(6), Reg(4), Reg(2));
        b.alu(AluOp::Add, Reg(6), Reg(6), Reg(5));
        b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        b.store(Reg(6), Reg(7), 0);
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top);
        b.bind(fill_done).unwrap();
        b.li(Reg(2), 0);
        b.li(Reg(8), 0);
        let top2 = b.label();
        let done = b.label();
        b.bind(top2).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), done);
        b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        b.load(Reg(9), Reg(7), 0);
        b.alu(AluOp::Add, Reg(8), Reg(8), Reg(9));
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top2);
        b.bind(done).unwrap();
        b.li(Reg(10), out);
        b.store(Reg(8), Reg(10), 0);
        b.halt();
        b.finish().unwrap()
    }

    fn compiled(n: u64) -> (amnesiac_isa::Program, amnesiac_isa::Program) {
        let p = kernel(n);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (annotated, report) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        assert!(report.n_selected() >= 1, "kernel must produce slices");
        (p, annotated)
    }

    fn amnesic_config(policy: Policy) -> AmnesicConfig {
        AmnesicConfig {
            core: small_config(),
            ..AmnesicConfig::paper(policy)
        }
    }

    #[test]
    fn amnesic_output_matches_classic_under_every_policy() {
        let (p, annotated) = compiled(50);
        let classic = ClassicCore::new(small_config()).run(&p).unwrap();
        for policy in Policy::ALL {
            let result = AmnesicCore::new(amnesic_config(policy))
                .run(&annotated)
                .unwrap();
            assert_eq!(
                result.run.final_memory, classic.final_memory,
                "policy {policy} diverged"
            );
        }
    }

    #[test]
    fn compiler_policy_fires_every_rcmp() {
        let (_, annotated) = compiled(50);
        let result = AmnesicCore::new(amnesic_config(Policy::Compiler))
            .run(&annotated)
            .unwrap();
        assert!(result.stats.fired_total() > 0);
        assert_eq!(
            result.stats.fired_total(),
            result.stats.rcmp_total(),
            "Compiler never performs the load"
        );
        assert!(result.stats.recompute_insts > 0);
    }

    #[test]
    fn flc_skips_l1_resident_loads() {
        let (_, annotated) = compiled(50);
        let result = AmnesicCore::new(amnesic_config(Policy::Flc))
            .run(&annotated)
            .unwrap();
        // swapped loads must all have been L1 misses
        assert_eq!(
            result.stats.swapped_levels.by_level[ServiceLevel::L1.index()],
            0,
            "FLC only fires on L1 misses"
        );
    }

    #[test]
    fn llc_fires_only_on_memory_bound_loads() {
        let (_, annotated) = compiled(50);
        let result = AmnesicCore::new(amnesic_config(Policy::Llc))
            .run(&annotated)
            .unwrap();
        let swapped = &result.stats.swapped_levels;
        assert_eq!(swapped.by_level[ServiceLevel::L1.index()], 0);
        assert_eq!(swapped.by_level[ServiceLevel::L2.index()], 0);
    }

    #[test]
    fn amnesic_reduces_dynamic_loads_vs_classic() {
        let (p, annotated) = compiled(50);
        let classic = ClassicCore::new(small_config()).run(&p).unwrap();
        let amnesic = AmnesicCore::new(amnesic_config(Policy::Compiler))
            .run(&annotated)
            .unwrap();
        assert!(
            amnesic.run.loads < classic.loads,
            "swapping loads must reduce the dynamic load count \
             ({} vs {})",
            amnesic.run.loads,
            classic.loads
        );
        assert!(
            amnesic.run.instructions > classic.instructions,
            "recomputation adds dynamic instructions"
        );
    }

    #[test]
    fn oracle_on_probabilistic_set_never_loses_to_classic_on_energy() {
        let (p, annotated) = compiled(50);
        let classic = ClassicCore::new(small_config()).run(&p).unwrap();
        let oracle = AmnesicCore::new(amnesic_config(Policy::Oracle))
            .run(&annotated)
            .unwrap();
        // Oracle recomputes only when it is cheaper than the load; modulo
        // the standing REC overhead the energy cannot exceed classic by
        // more than that overhead. Use a loose sanity margin.
        assert!(
            oracle.run.account.total_nj() < classic.account.total_nj() * 1.05,
            "oracle {} vs classic {}",
            oracle.run.account.total_nj(),
            classic.account.total_nj()
        );
    }

    #[test]
    fn tiny_hist_forces_loads_not_wrong_values() {
        let (p, annotated) = compiled(50);
        // does this binary even use Hist?
        let uses_hist = annotated.slices.iter().any(|s| s.has_nonrecomputable);
        let mut config = amnesic_config(Policy::Compiler);
        config.hist_capacity = 0;
        let result = AmnesicCore::new(config).run(&annotated).unwrap();
        let classic = ClassicCore::new(small_config()).run(&p).unwrap();
        assert_eq!(result.run.final_memory, classic.final_memory);
        if uses_hist {
            assert!(result.stats.hist_failed_writes > 0);
            let forced: u64 = result.stats.per_slice.iter().map(|s| s.forced_loads).sum();
            assert!(forced > 0, "hist overflow must force loads");
        }
    }

    #[test]
    fn tiny_sfile_forces_loads_not_wrong_values() {
        let (p, annotated) = compiled(50);
        let mut config = amnesic_config(Policy::Compiler);
        config.sfile_capacity = 0;
        let result = AmnesicCore::new(config).run(&annotated).unwrap();
        let classic = ClassicCore::new(small_config()).run(&p).unwrap();
        assert_eq!(result.run.final_memory, classic.final_memory);
        assert_eq!(result.stats.fired_total(), 0, "nothing fits the SFile");
        let forced: u64 = result.stats.per_slice.iter().map(|s| s.forced_loads).sum();
        assert!(forced > 0);
    }

    #[test]
    fn occupancies_respect_section_3_4_bounds() {
        let (_, annotated) = compiled(50);
        let bounds = amnesiac_compiler::StorageBounds::of(&annotated);
        let result = AmnesicCore::new(amnesic_config(Policy::Compiler))
            .run(&annotated)
            .unwrap();
        assert!(result.stats.sfile_high_water <= bounds.sfile_entries.max(1));
        assert!(result.stats.ibuff_high_water <= bounds.ibuff_entries.max(1).max(256));
        assert!(result.stats.hist_high_water <= bounds.hist_entries.max(1));
    }

    #[test]
    fn classic_binary_runs_unchanged_on_amnesic_core() {
        let p = kernel(20);
        let classic = ClassicCore::new(small_config()).run(&p).unwrap();
        let amnesic = AmnesicCore::new(amnesic_config(Policy::Compiler))
            .run(&p)
            .unwrap();
        assert_eq!(amnesic.run.final_memory, classic.final_memory);
        assert_eq!(amnesic.stats.rcmp_total(), 0);
        assert!((amnesic.run.account.total_nj() - classic.account.total_nj()).abs() < 1e-6);
    }

    #[test]
    fn offload_hides_traversal_latency_but_not_energy() {
        let (p, annotated) = compiled(50);
        let classic = ClassicCore::new(small_config()).run(&p).unwrap();
        let inline = AmnesicCore::new(amnesic_config(Policy::Compiler))
            .run(&annotated)
            .unwrap();
        let offloaded = AmnesicCore::new(AmnesicConfig {
            offload: true,
            ..amnesic_config(Policy::Compiler)
        })
        .run(&annotated)
        .unwrap();
        assert_eq!(offloaded.run.final_memory, classic.final_memory);
        assert!(
            offloaded.run.account.cycles() < inline.run.account.cycles(),
            "offloading must hide traversal cycles"
        );
        assert!(
            (offloaded.run.account.total_nj() - inline.run.account.total_nj()).abs() < 1e-6,
            "offloading does not change the energy bill"
        );
    }

    #[test]
    fn predictor_policy_is_exact_and_learns() {
        let (p, annotated) = compiled(50);
        let classic = ClassicCore::new(small_config()).run(&p).unwrap();
        let result = AmnesicCore::new(amnesic_config(Policy::Predictor))
            .run(&annotated)
            .unwrap();
        assert_eq!(result.run.final_memory, classic.final_memory);
        assert!(result.stats.predictions > 0);
        // the kernel's reloads miss consistently: the predictor converges
        let rate = result.stats.mispredictions as f64 / result.stats.predictions as f64;
        assert!(rate < 0.2, "misprediction rate {rate} should be small");
    }

    #[test]
    fn ibuff_serves_repeated_traversals() {
        let (_, annotated) = compiled(50);
        let result = AmnesicCore::new(amnesic_config(Policy::Compiler))
            .run(&annotated)
            .unwrap();
        assert!(
            result.stats.ibuff_hits > 0,
            "loops retraverse the same slice"
        );
        assert!(result.stats.ibuff_misses >= 1, "first traversal misses");
    }
}
