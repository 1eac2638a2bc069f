//! The end-to-end compile pipeline: select → annotate → validate.

use std::collections::BTreeSet;

use amnesiac_absint::Analysis;
use amnesiac_energy::EnergyModel;
use amnesiac_isa::{DecodedInst, IsaError, Program};
use amnesiac_mem::ServiceLevel;
use amnesiac_profile::{ProgramProfile, Unswappable};
use amnesiac_sim::RunError;
use amnesiac_telemetry::{Json, ToJson};
use amnesiac_verify::VerifyReport;

use crate::annotate::annotate_with_map;
use crate::estimate::SliceEstimator;
use crate::replay::replay_decoded;
use crate::slice::SliceSpec;
use crate::storage::StorageBounds;

/// How the set of embedded slices is chosen (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SliceSetPolicy {
    /// The compiler's probabilistic energy model: embed a slice iff its
    /// estimated `E_rc` is below the expected `E_ld = Σ PrLi × EPI_Li`.
    /// This is the set `S` used by the `Compiler`, `FLC`, `LLC`, and
    /// `C-Oracle` runtime policies.
    #[default]
    Probabilistic,
    /// The `Oracle` set: embed a slice iff recomputing only the *beneficial*
    /// dynamic instances (known exactly) yields a positive net gain. This
    /// set is typically a superset of the probabilistic one — it keeps
    /// slices for mostly-L1 loads whose occasional misses are worth
    /// recovering.
    Oracle,
}

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Energy model used for the §3.1.1 estimates.
    pub energy: EnergyModel,
    /// Slice-set selection policy.
    pub slice_set: SliceSetPolicy,
    /// Maximum slice tree height `h` (§3.4: the compiler caps `h`).
    pub max_height: u32,
    /// Maximum compute instructions per slice (ties `SFile`/`IBuff` sizing).
    pub max_slice_insts: usize,
    /// Run the validation replay and drop any slice that ever fails to
    /// reproduce the loaded value. Disable only in tests.
    pub validate: bool,
    /// Dynamic-instruction fuse for the validation replay.
    pub replay_fuse: u64,
    /// Let the abstract-interpretation prover (`amnesiac-absint`) skip a
    /// whole-program replay round when every embedded slice is statically
    /// proven replay-equivalent. Never changes the drop set — a proof only
    /// skips a confirmation that could not have dropped anything.
    pub static_equivalence: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            energy: EnergyModel::paper(),
            slice_set: SliceSetPolicy::Probabilistic,
            max_height: 48,
            max_slice_insts: 64,
            validate: true,
            replay_fuse: 400_000_000,
            static_equivalence: true,
        }
    }
}

impl CompileOptions {
    /// Default options with the `Oracle` slice set.
    pub fn oracle() -> Self {
        CompileOptions {
            slice_set: SliceSetPolicy::Oracle,
            ..Self::default()
        }
    }
}

/// Per-site compilation outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteOutcome {
    /// The load was swapped for a recomputation slice.
    Selected {
        /// Compute instructions in the slice body.
        slice_len: usize,
        /// Chosen cut height.
        height: u32,
        /// Whether the slice has non-recomputable (`Hist`) inputs.
        has_nonrecomputable: bool,
        /// Estimated `E_rc` (nJ).
        est_recompute_nj: f64,
        /// Estimated `E_ld` (nJ).
        est_load_nj: f64,
    },
    /// Recomputation was estimated more expensive than the load.
    RejectedEnergy {
        /// Estimated `E_rc` of the best cut (nJ).
        est_recompute_nj: f64,
        /// Estimated `E_ld` (nJ).
        est_load_nj: f64,
    },
    /// The profiler found the site unswappable.
    Unswappable(Unswappable),
    /// The validation replay found a value mismatch and dropped the slice.
    DroppedByValidation,
}

/// One load site's decision record.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDecision {
    /// Static pc of the load in the *original* program.
    pub load_pc: usize,
    /// Dynamic instances observed while profiling.
    pub dyn_count: u64,
    /// What the compiler did.
    pub outcome: SiteOutcome,
}

/// Summary of a compile run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileReport {
    /// Per-site decisions, in pc order.
    pub decisions: Vec<SiteDecision>,
    /// §3.4 storage bounds of the final binary.
    pub storage: StorageBounds,
    /// Validation rounds executed (0 when validation is disabled).
    pub validation_rounds: u32,
    /// Whole-program replay rounds the incremental validator skipped
    /// because a round's dropped slices shared no `REC`/`Hist` origin with
    /// any survivor (their outcomes could not have changed).
    pub validation_rounds_saved: u32,
    /// Whole-program replay rounds skipped because the static
    /// replay-equivalence prover certified every embedded slice — the
    /// abstract interpreter proved the recomputation equals the loaded
    /// value on all inputs, so the replay could not have dropped anything.
    pub validation_rounds_saved_static: u32,
    /// `true` when the validation-round cap was hit with slices still
    /// failing — the binary ships with unvalidated slices and must not be
    /// trusted for bit-exact amnesic execution.
    pub validation_capped: bool,
    /// `REC` instructions inserted into the final binary.
    pub rec_count: usize,
    /// Mapping from each original main-code pc to the annotated binary's
    /// position of the same (or replacing) instruction.
    pub pc_map: Vec<usize>,
    /// Static verification report of the final annotated binary. The
    /// pipeline hard-fails on Error-severity diagnostics, so a returned
    /// report is always [`VerifyReport::is_clean`]; warnings (e.g. `REC`s
    /// that cannot be proven to dominate their `RCMP` on all static paths)
    /// are preserved here for the JSON export.
    pub verify: VerifyReport,
}

impl CompileReport {
    /// Pcs (in the original program) of the selected loads.
    pub fn selected_load_pcs(&self) -> BTreeSet<usize> {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, SiteOutcome::Selected { .. }))
            .map(|d| d.load_pc)
            .collect()
    }

    /// Number of selected sites.
    pub fn n_selected(&self) -> usize {
        self.selected_load_pcs().len()
    }
}

impl ToJson for CompileReport {
    /// Compile summary: per-outcome site counts, inserted `REC`s,
    /// validation rounds, and the §3.4 storage bounds.
    fn to_json(&self) -> Json {
        let mut rejected_energy = 0usize;
        let mut unswappable = 0usize;
        let mut dropped_by_validation = 0usize;
        let mut max_slice_len = 0usize;
        for d in &self.decisions {
            match &d.outcome {
                SiteOutcome::Selected { slice_len, .. } => {
                    max_slice_len = max_slice_len.max(*slice_len);
                }
                SiteOutcome::RejectedEnergy { .. } => rejected_energy += 1,
                SiteOutcome::Unswappable(_) => unswappable += 1,
                SiteOutcome::DroppedByValidation => dropped_by_validation += 1,
            }
        }
        Json::obj()
            .with("n_sites", self.decisions.len())
            .with("n_selected", self.n_selected())
            .with("rejected_energy", rejected_energy)
            .with("unswappable", unswappable)
            .with("dropped_by_validation", dropped_by_validation)
            .with("max_selected_slice_len", max_slice_len)
            .with("rec_count", self.rec_count)
            .with("validation_rounds", self.validation_rounds)
            .with("validation_rounds_saved", self.validation_rounds_saved)
            .with(
                "validation_rounds_saved_static",
                self.validation_rounds_saved_static,
            )
            .with("validation_capped", self.validation_capped)
            .with("storage", self.storage.to_json())
            .with("verify", self.verify.to_json())
    }
}

/// Errors from the compile pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The rewritten binary failed structural validation (a compiler bug).
    Isa(IsaError),
    /// The validation replay failed to run.
    Replay(RunError),
    /// The static verifier found Error-severity invariant violations in the
    /// annotated binary (a compiler bug: `annotate` must produce
    /// well-formed slices). The full diagnostic list is carried along.
    Verify(VerifyReport),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Isa(e) => write!(f, "annotation produced an invalid binary: {e}"),
            CompileError::Replay(e) => write!(f, "validation replay failed: {e}"),
            CompileError::Verify(report) => {
                write!(
                    f,
                    "static verification found {} error(s) in the annotated binary",
                    report.error_count()
                )?;
                for d in report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == amnesiac_verify::Severity::Error)
                {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<IsaError> for CompileError {
    fn from(e: IsaError) -> Self {
        CompileError::Isa(e)
    }
}

impl From<RunError> for CompileError {
    fn from(e: RunError) -> Self {
        CompileError::Replay(e)
    }
}

/// Runs the amnesic compiler pass on a classic program.
///
/// Returns the annotated binary and the per-site report. If no site is
/// worth swapping, the returned program is the input program unchanged
/// (with an empty slice table) — amnesic execution then degenerates to
/// classic execution, as the paper's semantics require.
///
/// # Errors
///
/// Returns a [`CompileError`] if annotation or validation replay fails
/// structurally (never because slices mis-predict — those are dropped).
pub fn compile(
    program: &Program,
    profile: &ProgramProfile,
    options: &CompileOptions,
) -> Result<(Program, CompileReport), CompileError> {
    let estimator = SliceEstimator::new(&options.energy, profile);
    let mut decisions = Vec::new();
    let mut specs: Vec<SliceSpec> = Vec::new();

    // plan every swappable site first: the Oracle criterion amortises REC
    // overheads across slices that share checkpointed origins (Hist is
    // keyed by leaf address, §3.2).
    let plans = profile.loads.values().map(|site| {
        let plan = if site.unswappable.is_some() {
            None
        } else {
            estimator.plan_site(site, options.max_height, options.max_slice_insts)
        };
        (site, plan)
    });
    let mut planned = Vec::new();
    let mut origin_usage: std::collections::BTreeMap<usize, usize> =
        std::collections::BTreeMap::new();
    for (site, plan) in plans {
        if let Some(why) = site.unswappable {
            decisions.push(SiteDecision {
                load_pc: site.pc,
                dyn_count: site.count,
                outcome: SiteOutcome::Unswappable(why),
            });
            continue;
        }
        let Some((cost, insts)) = plan else {
            decisions.push(SiteDecision {
                load_pc: site.pc,
                dyn_count: site.count,
                outcome: SiteOutcome::Unswappable(Unswappable::NoProducer),
            });
            continue;
        };
        for inst in insts.iter().filter(|i| i.needs_hist()) {
            *origin_usage.entry(inst.origin_pc).or_insert(0) += 1;
        }
        planned.push((site, cost, insts));
    }

    for (site, cost, insts) in planned {
        let est_load = match options.slice_set {
            SliceSetPolicy::Probabilistic => estimator.load_energy_global(),
            SliceSetPolicy::Oracle => estimator.load_energy_site(site),
        };
        let select = match options.slice_set {
            // the paper's §3.1.1 model: E_rc is the recomputation energy
            // itself (instruction mix × EPI + operand supply); the REC
            // main-path overhead is paid either way and does not gate
            // selection
            SliceSetPolicy::Probabilistic => cost.fire_nj < est_load,
            SliceSetPolicy::Oracle => {
                let pr = site.probabilities();
                let gain: f64 = ServiceLevel::ALL
                    .iter()
                    .zip(pr.iter())
                    .map(|(&level, &p)| {
                        p * (options.energy.load_energy(level) - cost.fire_nj).max(0.0)
                    })
                    .sum();
                // this site's share of the shared REC traffic
                let standing: f64 = insts
                    .iter()
                    .filter(|i| i.needs_hist())
                    .map(|i| {
                        let execs = profile.pc_count(i.origin_pc).max(1) as f64;
                        let share = origin_usage[&i.origin_pc].max(1) as f64;
                        execs * options.energy.hist_write_nj / (share * site.count.max(1) as f64)
                    })
                    .sum();
                gain > standing
            }
        };
        if select {
            decisions.push(SiteDecision {
                load_pc: site.pc,
                dyn_count: site.count,
                outcome: SiteOutcome::Selected {
                    slice_len: insts.len(),
                    height: cost.height,
                    has_nonrecomputable: insts.iter().any(|s| s.needs_hist()),
                    est_recompute_nj: cost.total_nj(),
                    est_load_nj: est_load,
                },
            });
            specs.push(SliceSpec {
                load_pc: site.pc,
                insts,
                height: cost.height,
                // the runtime scheduler compares this against the actual
                // load energy when deciding to fire: the REC standing cost
                // is sunk at that point, so only the fire cost belongs here
                est_recompute_nj: cost.fire_nj,
                est_load_nj: est_load,
            });
        } else {
            decisions.push(SiteDecision {
                load_pc: site.pc,
                dyn_count: site.count,
                outcome: SiteOutcome::RejectedEnergy {
                    est_recompute_nj: cost.total_nj(),
                    est_load_nj: est_load,
                },
            });
        }
    }

    // annotate + validate, dropping any slice that ever mismatches
    let validated = validate_specs(program, specs, options)?;
    for d in &mut decisions {
        if validated.dropped_pcs.contains(&d.load_pc) {
            d.outcome = SiteOutcome::DroppedByValidation;
        }
    }

    let annotated = validated.annotated;
    let rec_count = annotated.instructions[..annotated.code_len]
        .iter()
        .filter(|i| matches!(i, amnesiac_isa::Instruction::Rec { .. }))
        .count();
    decisions.sort_by_key(|d| d.load_pc);
    let report = CompileReport {
        storage: StorageBounds::of(&annotated),
        decisions,
        validation_rounds: validated.rounds,
        validation_rounds_saved: validated.rounds_saved,
        validation_rounds_saved_static: validated.rounds_saved_static,
        validation_capped: validated.capped,
        rec_count,
        pc_map: validated.pc_map,
        verify: validated.verify,
    };
    Ok((annotated, report))
}

/// Outcome of the validate-and-drop loop.
#[derive(Debug)]
struct ValidationSummary {
    /// The final annotated binary (re-annotated after any drops).
    annotated: Program,
    /// Original-pc → rewritten-position map of the final binary.
    pc_map: Vec<usize>,
    /// Whole-program replay rounds executed.
    rounds: u32,
    /// Confirmatory rounds skipped thanks to the independence argument.
    rounds_saved: u32,
    /// Rounds skipped thanks to the static replay-equivalence prover.
    rounds_saved_static: u32,
    /// The round cap was hit with slices still failing.
    capped: bool,
    /// Load pcs whose slices were dropped.
    dropped_pcs: BTreeSet<usize>,
    /// Static verification report of the final annotated binary.
    verify: VerifyReport,
}

/// The static half of validating one annotated binary: one predecode, one
/// CFG, one run of every `amnesiac-absint` analysis and one proof per slice.
#[derive(Debug)]
struct StaticPass {
    /// The binary's predecode, which the round's validation replay
    /// dispatches on.
    decoded: Vec<DecodedInst>,
    /// The verifier's report; clean, since the gate fails on errors.
    verify: VerifyReport,
    /// `true` when the prover certifies every slice replay-equivalent
    /// (`false` without slices), so a validation replay cannot drop
    /// anything. This *static pre-pass* only ever skips a replay round
    /// wholesale, never drops or keeps a slice, so a prover bug can cost a
    /// wasted replay but never changes which slices ship; the differential
    /// oracle `statically_approved_skips_are_replay_exact` replays what it
    /// skips.
    all_proven: bool,
}

/// Analyses an annotated binary, runs the static verifier on the analysis
/// and hard-fails the compile on any Error-severity diagnostic. This is the
/// pre-replay gate: the §3.2 slice invariants are proven for *all* inputs
/// before the dynamic replay (which only exercises the profiled ones) is
/// allowed to run.
fn gate_verify(annotated: &Program) -> Result<StaticPass, CompileError> {
    let mut analysis = Analysis::of_program(annotated);
    let reports = analysis.slice_reports(annotated);
    let verify = amnesiac_verify::verify_analyzed(annotated, &analysis, &reports);
    if !verify.is_clean() {
        return Err(CompileError::Verify(verify));
    }
    Ok(StaticPass {
        decoded: analysis.decoded,
        verify,
        all_proven: !reports.is_empty() && reports.iter().all(|r| r.verdict.is_proven()),
    })
}

/// Cap on whole-program validation replays per compile.
const MAX_VALIDATION_ROUNDS: u32 = 8;

/// Load pcs whose slices fail one validation replay of `annotated`, the
/// annotation of `specs` (`decoded` is its predecode).
fn failing_load_pcs(
    annotated: &Program,
    decoded: &[DecodedInst],
    specs: &[SliceSpec],
    fuse: u64,
) -> Result<BTreeSet<usize>, CompileError> {
    let outcome = replay_decoded(annotated, decoded, fuse)?;
    // slice ids are assigned in load-pc order by annotate()
    let mut by_pc: Vec<usize> = specs.iter().map(|s| s.load_pc).collect();
    by_pc.sort_unstable();
    Ok(outcome
        .failing_slices()
        .iter()
        .map(|&id| by_pc[id as usize])
        .collect())
}

/// Annotates `specs` into `program` and validates them by whole-program
/// replay, dropping every slice that ever fails to reproduce its loaded
/// value.
///
/// **Incremental invariant:** the replay retires the architecturally
/// correct value at every `RCMP`, so one slice's match/mismatch record
/// cannot depend on whether another slice is present — *except* through
/// shared `REC`/`Hist` origins, where re-annotation after a drop rebuilds
/// the checkpoint key assignment. After a round's drops, the loop
/// therefore replays again only when a dropped slice shared a `REC` origin
/// with a surviving slice; independent drops are final after their one
/// discovery round, and the skipped confirmatory replay is counted in
/// `rounds_saved`.
fn validate_specs(
    program: &Program,
    mut specs: Vec<SliceSpec>,
    options: &CompileOptions,
) -> Result<ValidationSummary, CompileError> {
    let (mut annotated, mut pc_map) = annotate_with_map(program, &specs)?;
    // One static pass per annotated binary, shared by the verify gate, the
    // static skip and the round's validation replay.
    let mut checked = gate_verify(&annotated)?;
    let mut rounds = 0;
    let mut rounds_saved = 0;
    let mut rounds_saved_static = 0;
    let mut capped = false;
    let mut dropped_pcs: BTreeSet<usize> = BTreeSet::new();
    // Static pre-pass: when every slice is proven replay-equivalent the
    // discovery round cannot drop anything, so it is skipped outright.
    let statically_proven =
        options.validate && !specs.is_empty() && options.static_equivalence && checked.all_proven;
    if statically_proven {
        rounds_saved_static += 1;
    } else if options.validate && !specs.is_empty() {
        loop {
            rounds += 1;
            let round_dropped =
                failing_load_pcs(&annotated, &checked.decoded, &specs, options.replay_fuse)?;
            if round_dropped.is_empty() {
                break;
            }
            if rounds >= MAX_VALIDATION_ROUNDS {
                capped = true;
                break;
            }
            let dropped_origins: BTreeSet<usize> = specs
                .iter()
                .filter(|s| round_dropped.contains(&s.load_pc))
                .flat_map(|s| s.rec_origins().into_iter().map(|(pc, _)| pc))
                .collect();
            specs.retain(|s| !round_dropped.contains(&s.load_pc));
            dropped_pcs.extend(round_dropped);
            (annotated, pc_map) = annotate_with_map(program, &specs)?;
            checked = gate_verify(&annotated)?;
            if specs.is_empty() {
                break;
            }
            let shares_origin = specs.iter().any(|s| {
                s.rec_origins()
                    .iter()
                    .any(|(pc, _)| dropped_origins.contains(pc))
            });
            if !shares_origin {
                rounds_saved += 1;
                break;
            }
            // The drops shared REC origins with survivors, so a
            // confirmatory replay is normally owed — unless the prover
            // certifies every survivor under the re-annotation.
            if options.static_equivalence && checked.all_proven {
                rounds_saved_static += 1;
                break;
            }
        }
    }
    Ok(ValidationSummary {
        annotated,
        pc_map,
        rounds,
        rounds_saved,
        rounds_saved_static,
        capped,
        dropped_pcs,
        verify: checked.verify,
    })
}

/// Stores whose every profiled consumer load was swapped for recomputation:
/// candidates for elision under amnesic execution (§2 — "the corresponding
/// store can become redundant if no other load depends on it"). Reported,
/// not applied: a runtime policy may still perform the load.
pub fn redundant_stores(profile: &ProgramProfile, selected: &BTreeSet<usize>) -> Vec<usize> {
    profile
        .stores
        .iter()
        .filter(|(_, s)| {
            !s.consumers.is_empty() && s.consumers.keys().all(|pc| selected.contains(pc))
        })
        .map(|(&pc, _)| pc)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_validate;
    use crate::slice::SliceInstSpec;
    use amnesiac_isa::{AluOp, BranchCond, Instruction, OperandSource, ProgramBuilder, Reg};
    use amnesiac_profile::profile_program;
    use amnesiac_sim::CoreConfig;

    /// A machine with deliberately tiny caches so that the test kernel's
    /// reloads are serviced by main memory, making recomputation pay.
    fn small_config() -> CoreConfig {
        use amnesiac_mem::{CacheConfig, HierarchyConfig};
        let mut c = CoreConfig::paper();
        // 8-byte lines defeat spatial locality, so streaming reloads miss
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

    /// A kernel whose loads read back values computed from live inputs:
    /// for i in 0..n { tmp[i] = a·i + b } ; sum = Σ tmp[i] (second loop).
    /// With the tiny caches of `small_config`, the second loop's reloads
    /// come from main memory, and the slices are tiny (mul+add from live
    /// registers), so the compiler selects them.
    fn kernel(n: u64) -> Program {
        let mut b = ProgramBuilder::new("k");
        let tmp = b.alloc_zeroed(n);
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.li(Reg(1), tmp);
        b.li(Reg(2), 0); // i
        b.li(Reg(3), n);
        b.li(Reg(4), 7); // a
        b.li(Reg(5), 13); // b
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
        b.li(Reg(8), 0); // sum
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

    #[test]
    fn compiles_and_validates_a_loop_kernel() {
        let p = kernel(50);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (annotated, report) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        assert!(
            report.n_selected() >= 1,
            "the tmp[i] reload is recomputable"
        );
        assert!(annotated.is_annotated());
        // the fill-loop slices are statically proven replay-equivalent, so
        // the pre-pass skips the discovery replay outright
        assert_eq!(report.validation_rounds, 0);
        assert_eq!(report.validation_rounds_saved_static, 1);
        assert!(!report.validation_capped);
        // differential oracle: a statically-approved skip must be backed by
        // an exact dynamic replay
        let outcome = replay_validate(&annotated, 1_000_000).unwrap();
        assert!(outcome.failing_slices().is_empty());
        assert!(outcome.per_slice.iter().all(|s| s.is_exact()));
        // RCMPs replaced the selected loads
        let rcmps = annotated.instructions[..annotated.code_len]
            .iter()
            .filter(|i| matches!(i, Instruction::Rcmp { .. }))
            .count();
        assert_eq!(rcmps, report.n_selected());
    }

    #[test]
    fn compile_is_deterministic() {
        let p = kernel(50);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (a1, r1) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        let (a2, r2) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        assert_eq!(a1.instructions, a2.instructions);
        assert_eq!(a1.slices, a2.slices);
        assert_eq!(r1.decisions, r2.decisions);
    }

    #[test]
    fn selected_slices_respect_the_energy_budget() {
        let p = kernel(50);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (_, report) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        for d in &report.decisions {
            if let SiteOutcome::Selected {
                est_recompute_nj,
                est_load_nj,
                ..
            } = d.outcome
            {
                assert!(
                    est_recompute_nj < est_load_nj,
                    "budget rule violated at pc {}: E_rc {est_recompute_nj} ≥ E_ld {est_load_nj}",
                    d.load_pc
                );
            }
        }
    }

    #[test]
    fn oracle_set_contains_probabilistic_set_here() {
        let p = kernel(50);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (_, prob) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        let (_, oracle) = compile(&p, &profile, &CompileOptions::oracle()).unwrap();
        let prob_set = prob.selected_load_pcs();
        let oracle_set = oracle.selected_load_pcs();
        assert!(
            prob_set.is_subset(&oracle_set),
            "oracle keeps every probabilistically-good slice: {prob_set:?} ⊄ {oracle_set:?}"
        );
    }

    #[test]
    fn no_candidates_yields_unannotated_program() {
        // a program whose only load reads a read-only input
        let mut b = ProgramBuilder::new("t");
        let input = b.alloc_data(&[1]);
        b.mark_read_only(input, 1);
        b.li(Reg(1), input);
        b.load(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (annotated, report) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        assert_eq!(report.n_selected(), 0);
        assert!(!annotated.is_annotated());
        assert_eq!(annotated.instructions, p.instructions);
    }

    #[test]
    fn storage_bounds_reflect_slices() {
        let p = kernel(50);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (_, report) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        assert!(report.storage.n_slices >= 1);
        assert!(report.storage.max_insts_per_slice >= 1);
        assert_eq!(
            report.storage.sfile_entries,
            report.storage.max_insts_per_slice * 4
        );
    }

    /// Two cells computed from `r3 = 20` and reloaded: `cell_a = 20 + 3`,
    /// `cell_b = 20 + 5`. Returns `(program, add_a, add_b, load_a, load_b)`.
    /// The incremental-validation tests hand-build slice specs against it.
    fn two_cell_program() -> (Program, usize, usize, usize, usize) {
        let mut b = ProgramBuilder::new("t");
        let cell_a = b.alloc_zeroed(1);
        let cell_b = b.alloc_zeroed(1);
        b.mark_output(cell_a, 1);
        b.mark_output(cell_b, 1);
        b.li(Reg(1), cell_a);
        b.li(Reg(2), cell_b);
        b.li(Reg(3), 20);
        let add_a = b.alui(AluOp::Add, Reg(4), Reg(3), 3);
        b.store(Reg(4), Reg(1), 0);
        let add_b = b.alui(AluOp::Add, Reg(5), Reg(3), 5);
        b.store(Reg(5), Reg(2), 0);
        let load_a = b.load(Reg(6), Reg(1), 0);
        let load_b = b.load(Reg(7), Reg(2), 0);
        b.halt();
        (b.finish().unwrap(), add_a, add_b, load_a, load_b)
    }

    fn spec_with(load_pc: usize, insts: Vec<SliceInstSpec>) -> SliceSpec {
        SliceSpec {
            load_pc,
            insts,
            height: 0,
            est_recompute_nj: 1.0,
            est_load_nj: 20.0,
        }
    }

    /// A deliberately wrong replica of `add_a` (imm 4 instead of 3),
    /// checkpointed at `add_a` — recomputes 24 against the loaded 23, so it
    /// mismatches on every firing and must be dropped.
    fn bad_spec(load_a: usize, add_a: usize) -> SliceSpec {
        spec_with(
            load_a,
            vec![SliceInstSpec {
                inst: Instruction::Alui {
                    op: AluOp::Add,
                    dst: Reg(4),
                    src: Reg(3),
                    imm: 4,
                },
                origin_pc: add_a,
                sources: [Some(OperandSource::Hist { key: 0 }), None, None],
            }],
        )
    }

    #[test]
    fn shared_rec_origin_forces_confirmatory_replay() {
        let (p, add_a, add_b, load_a, load_b) = two_cell_program();
        // the survivor recomputes cell_b's 25 from the *same* add_a
        // checkpoint the dropped slice used: (20 + 3) + 2
        let good = spec_with(
            load_b,
            vec![
                SliceInstSpec {
                    inst: Instruction::Alui {
                        op: AluOp::Add,
                        dst: Reg(4),
                        src: Reg(3),
                        imm: 3,
                    },
                    origin_pc: add_a,
                    sources: [Some(OperandSource::Hist { key: 0 }), None, None],
                },
                SliceInstSpec {
                    inst: Instruction::Alui {
                        op: AluOp::Add,
                        dst: Reg(5),
                        src: Reg(4),
                        imm: 2,
                    },
                    origin_pc: add_b,
                    sources: [Some(OperandSource::SFile { producer: 0 }), None, None],
                },
            ],
        );
        let specs = vec![bad_spec(load_a, add_a), good.clone()];
        let opts = CompileOptions {
            static_equivalence: false,
            ..CompileOptions::default()
        };
        let v = validate_specs(&p, specs, &opts).unwrap();
        assert_eq!(v.dropped_pcs, BTreeSet::from([load_a]));
        assert_eq!(
            v.rounds, 2,
            "a drop sharing a REC origin with a survivor needs a confirmatory replay"
        );
        assert_eq!(v.rounds_saved, 0);
        assert!(!v.capped);
        assert_eq!(v.annotated.slices.len(), 1, "only the good slice remains");

        // with the prover on, the confirmatory replay is skipped: the
        // surviving slice is certified under the re-annotation
        let specs = vec![bad_spec(load_a, add_a), good];
        let v = validate_specs(&p, specs, &CompileOptions::default()).unwrap();
        assert_eq!(v.dropped_pcs, BTreeSet::from([load_a]));
        assert_eq!(v.rounds, 1, "only the discovery replay runs");
        assert_eq!(v.rounds_saved_static, 1);
        assert_eq!(v.annotated.slices.len(), 1);
    }

    #[test]
    fn independent_drop_skips_confirmatory_replay() {
        let (p, add_a, add_b, load_a, load_b) = two_cell_program();
        // the survivor checkpoints its own origin, disjoint from the drop's
        let good = spec_with(
            load_b,
            vec![SliceInstSpec {
                inst: Instruction::Alui {
                    op: AluOp::Add,
                    dst: Reg(5),
                    src: Reg(3),
                    imm: 5,
                },
                origin_pc: add_b,
                sources: [Some(OperandSource::Hist { key: 0 }), None, None],
            }],
        );
        let specs = vec![bad_spec(load_a, add_a), good];
        let v = validate_specs(&p, specs, &CompileOptions::default()).unwrap();
        assert_eq!(v.dropped_pcs, BTreeSet::from([load_a]));
        assert_eq!(v.rounds, 1, "independent drops are final after discovery");
        assert_eq!(v.rounds_saved, 1);
        assert!(!v.capped);
        // the skipped confirmatory round would have found nothing: the
        // surviving binary replays clean
        let outcome = replay_validate(&v.annotated, 10_000).unwrap();
        assert_eq!(v.annotated.slices.len(), 1);
        assert!(outcome.failing_slices().is_empty());
    }

    #[test]
    fn all_slices_passing_takes_one_round_with_nothing_saved() {
        let (p, _add_a, add_b, _load_a, load_b) = two_cell_program();
        let good = spec_with(
            load_b,
            vec![SliceInstSpec {
                inst: Instruction::Alui {
                    op: AluOp::Add,
                    dst: Reg(5),
                    src: Reg(3),
                    imm: 5,
                },
                origin_pc: add_b,
                sources: [Some(OperandSource::Hist { key: 0 }), None, None],
            }],
        );
        // with the prover off, one discovery round runs and nothing is saved
        let opts = CompileOptions {
            static_equivalence: false,
            ..CompileOptions::default()
        };
        let v = validate_specs(&p, vec![good.clone()], &opts).unwrap();
        assert!(v.dropped_pcs.is_empty());
        assert_eq!(v.rounds, 1);
        assert_eq!(v.rounds_saved, 0);
        assert_eq!(v.rounds_saved_static, 0);
        assert!(!v.capped);

        // with the prover on, even the discovery round is skipped
        let v = validate_specs(&p, vec![good], &CompileOptions::default()).unwrap();
        assert!(v.dropped_pcs.is_empty());
        assert_eq!(v.rounds, 0);
        assert_eq!(v.rounds_saved_static, 1);
    }

    #[test]
    fn compile_report_carries_a_clean_verify_report() {
        let p = kernel(50);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (annotated, report) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        assert!(
            report.verify.is_clean(),
            "the gate hard-fails on errors, so a returned report is clean: {:?}",
            report.verify.diagnostics
        );
        assert_eq!(report.verify.slices_checked, annotated.slices.len());
        let j = report.to_json();
        let clean = j.get("verify").and_then(|v| v.get("clean"));
        assert_eq!(clean, Some(&Json::Bool(true)));
    }

    #[test]
    fn gate_rejects_a_corrupted_annotated_binary() {
        let p = kernel(50);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (mut annotated, _) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        assert!(annotated.is_annotated());
        // inject a store into the first slice body — an invariant the
        // dynamic replay can miss (it never alters retired state) but the
        // static gate must catch
        let entry = annotated.slices[0].entry;
        annotated.instructions[entry] = Instruction::Store {
            src: Reg(1),
            base: Reg(1),
            offset: 0,
        };
        match gate_verify(&annotated) {
            Err(CompileError::Verify(report)) => {
                assert!(report
                    .diagnostics
                    .iter()
                    .any(|d| d.kind == amnesiac_verify::DiagnosticKind::SliceSideEffect));
                let msg = CompileError::Verify(report).to_string();
                assert!(msg.contains("static verification"), "display: {msg}");
            }
            other => panic!("expected a verify error, got {other:?}"),
        }
    }

    #[test]
    fn redundant_store_analysis_flags_fully_swapped_flows() {
        let p = kernel(50);
        let (profile, _) = profile_program(&p, &small_config()).unwrap();
        let (_, report) = compile(&p, &profile, &CompileOptions::default()).unwrap();
        let selected = report.selected_load_pcs();
        let redundant = redundant_stores(&profile, &selected);
        // the tmp[i] store's only consumer is the swapped load
        if !selected.is_empty() {
            assert!(!redundant.is_empty());
        }
        // and with nothing selected, nothing is redundant
        assert!(redundant_stores(&profile, &BTreeSet::new()).is_empty());
    }
}
