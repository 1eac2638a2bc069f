//! Adversarial mutation tests: corrupt a pipeline-produced annotated binary
//! in four structurally distinct ways and check that the static verifier
//! catches each with its own diagnostic kind. Mutation sites are chosen by
//! the deterministic [`amnesiac_rng::Rng`], so a seed bump widens coverage
//! without changing the harness.

use amnesiac_compiler::{compile, CompileOptions};
use amnesiac_isa::{Instruction, OperandSource, Program, Reg, SliceId};
use amnesiac_profile::profile_program;
use amnesiac_rng::Rng;
use amnesiac_sim::CoreConfig;
use amnesiac_verify::{verify, DiagnosticKind};
use amnesiac_workloads::{all_workloads, Scale, Workload};

/// Compiles a workload into a verifier-clean annotated binary.
fn annotated(workload: &Workload) -> Program {
    let config = CoreConfig::paper();
    let (profile, _) = profile_program(&workload.program, &config).expect("profiling succeeds");
    let (binary, _) =
        compile(&workload.program, &profile, &CompileOptions::default()).expect("compile succeeds");
    binary
}

/// Binaries across all three suites that actually carry slices (many
/// test-scale kernels swap nothing, which would make a mutation vacuous).
fn sliced_binaries() -> Vec<Program> {
    all_workloads(Scale::Test)
        .iter()
        .map(annotated)
        .filter(|b| !b.slices.is_empty())
        .collect()
}

/// Main-code pcs of reachable `REC`s whose key some slice actually reads
/// from the `Hist` (deleting one of these must starve that slice).
fn needed_rec_pcs(binary: &Program) -> Vec<usize> {
    let needed: std::collections::BTreeSet<u16> =
        binary.slices.iter().flat_map(|m| m.hist_keys()).collect();
    binary.instructions[..binary.code_len]
        .iter()
        .enumerate()
        .filter_map(|(pc, inst)| match inst {
            Instruction::Rec { key, .. } if needed.contains(key) => Some(pc),
            _ => None,
        })
        .collect()
}

#[test]
fn deleting_a_rec_is_an_uncheckpointed_hist_error() {
    let mut rng = Rng::seed_from_u64(0xDE1E7E);
    let mut exercised = 0;
    for mut binary in sliced_binaries() {
        let recs = needed_rec_pcs(&binary);
        let Some(&pc) = recs.get(rng.below(recs.len().max(1) as u64) as usize) else {
            continue;
        };
        // A forward jump of one is a no-op in the CFG; only the checkpoint
        // disappears.
        binary.instructions[pc] = Instruction::Jump { target: pc + 1 };
        let report = verify(&binary);
        assert!(
            report.has_kind(DiagnosticKind::UncheckpointedHist),
            "{}: deleting the REC at pc {pc} went unnoticed: {report:?}",
            binary.name
        );
        assert!(!report.is_clean());
        exercised += 1;
    }
    assert!(exercised >= 2, "too few binaries had deletable RECs");
}

#[test]
fn retargeting_an_rcmp_is_a_bad_target_error() {
    let mut rng = Rng::seed_from_u64(0x47C0DE);
    let mut exercised = 0;
    for mut binary in sliced_binaries() {
        let rcmps: Vec<usize> = binary.instructions[..binary.code_len]
            .iter()
            .enumerate()
            .filter_map(|(pc, i)| matches!(i, Instruction::Rcmp { .. }).then_some(pc))
            .collect();
        let pc = rcmps[rng.below(rcmps.len() as u64) as usize];
        let bogus = SliceId(binary.slices.len() as u32 + 1 + rng.below(100) as u32);
        if let Instruction::Rcmp { slice, .. } = &mut binary.instructions[pc] {
            *slice = bogus;
        }
        let report = verify(&binary);
        assert!(
            report.has_kind(DiagnosticKind::RcmpBadTarget),
            "{}: retargeting the RCMP at pc {pc} went unnoticed: {report:?}",
            binary.name
        );
        assert!(!report.is_clean());
        exercised += 1;
    }
    assert!(exercised >= 3);
}

#[test]
fn injecting_a_store_into_a_slice_body_is_a_side_effect_error() {
    let mut rng = Rng::seed_from_u64(0x57073);
    let mut exercised = 0;
    for mut binary in sliced_binaries() {
        let meta = &binary.slices[rng.below(binary.slices.len() as u64) as usize];
        // Any body position except the terminating RTN.
        let pos = meta.entry + rng.below((meta.len - 1) as u64) as usize;
        binary.instructions[pos] = Instruction::Store {
            src: Reg(1),
            base: Reg(2),
            offset: 0,
        };
        let report = verify(&binary);
        assert!(
            report.has_kind(DiagnosticKind::SliceSideEffect),
            "{}: a Store at body pc {pos} went unnoticed: {report:?}",
            binary.name
        );
        assert!(!report.is_clean());
        exercised += 1;
    }
    assert!(exercised >= 3);
}

#[test]
fn dropping_a_rtn_is_a_missing_rtn_error() {
    let mut rng = Rng::seed_from_u64(0x0447);
    let mut exercised = 0;
    for mut binary in sliced_binaries() {
        let meta = &binary.slices[rng.below(binary.slices.len() as u64) as usize];
        let rtn_pc = meta.entry + meta.len - 1;
        // Replace the terminator with pure compute: the body stays clean,
        // only the missing RTN can trip the verifier.
        binary.instructions[rtn_pc] = Instruction::Alu {
            op: amnesiac_isa::AluOp::Add,
            dst: Reg(1),
            lhs: Reg(1),
            rhs: Reg(1),
        };
        let report = verify(&binary);
        assert!(
            report.has_kind(DiagnosticKind::SliceMissingRtn),
            "{}: dropping the RTN at pc {rtn_pc} went unnoticed: {report:?}",
            binary.name
        );
        assert!(
            !report.has_kind(DiagnosticKind::SliceSideEffect),
            "the compute replacement must not read as a side effect"
        );
        assert!(!report.is_clean());
        exercised += 1;
    }
    assert!(exercised >= 3);
}

#[test]
fn widening_a_hist_key_past_the_table_is_an_out_of_range_error() {
    let mut rng = Rng::seed_from_u64(0x4157_0CAB);
    let mut exercised = 0;
    for mut binary in sliced_binaries() {
        // every (slice, plan, source-slot) carrying a checkpointed operand
        let sites: Vec<(usize, usize, usize)> = binary
            .slices
            .iter()
            .enumerate()
            .flat_map(|(i, m)| {
                m.plans.iter().enumerate().flat_map(move |(k, p)| {
                    p.sources.iter().enumerate().filter_map(move |(j, s)| {
                        matches!(s, Some(OperandSource::Hist { .. })).then_some((i, k, j))
                    })
                })
            })
            .collect();
        let Some(&(i, k, j)) = sites.get(rng.below(sites.len().max(1) as u64) as usize) else {
            continue;
        };
        if let Some(OperandSource::Hist { key }) = &mut binary.slices[i].plans[k].sources[j] {
            *key = u16::MAX; // far past any checkpoint table capacity
        }
        let report = verify(&binary);
        assert!(
            report.has_kind(DiagnosticKind::HistKeyOutOfRange),
            "{}: widening the Hist key of slice {i} went unnoticed: {report:?}",
            binary.name
        );
        assert!(!report.is_clean());
        exercised += 1;
    }
    assert!(exercised >= 1, "no binary carried a Hist operand to widen");
}

/// A pipeline-compiled constant-fill kernel: `tmp[i] = 42` in a counted
/// loop, then a reload-sum loop. Deliberately tiny caches make the reloads
/// miss, so the compiler slices them; the one-instruction recomputation
/// folds to 42 and the footprint bounds the loaded region to `[0, 42]`.
fn constant_fill_binary() -> Program {
    use amnesiac_isa::{AluOp, BranchCond, ProgramBuilder};
    use amnesiac_mem::{CacheConfig, HierarchyConfig};
    let mut b = ProgramBuilder::new("const-fill");
    let tmp = b.alloc_zeroed(50);
    let out = b.alloc_zeroed(1);
    b.mark_output(out, 1);
    b.li(Reg(1), tmp);
    b.li(Reg(2), 0);
    b.li(Reg(3), 50);
    b.li(Reg(4), 42);
    let top = b.label();
    let fill_done = b.label();
    b.bind(top).unwrap();
    b.branch(BranchCond::Geu, Reg(2), Reg(3), fill_done);
    b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
    b.store(Reg(4), Reg(7), 0);
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
    let p = b.finish().unwrap();
    let mut config = CoreConfig::paper();
    config.hierarchy = HierarchyConfig {
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
    let (profile, _) = profile_program(&p, &config).expect("profiling succeeds");
    let (binary, _) = compile(&p, &profile, &CompileOptions::default()).expect("compile succeeds");
    assert!(!binary.slices.is_empty(), "the constant reload must slice");
    binary
}

#[test]
fn constant_folding_a_divergent_recomputation_is_flagged() {
    let mut binary = constant_fill_binary();
    assert!(verify(&binary).is_clean(), "the unmutated kernel is clean");
    // Push the body's immediate far outside any value the loaded region
    // can hold: the fold still closes, but now provably diverges from the
    // footprint's loaded-value bound at every firing.
    let li_pcs: Vec<usize> = binary
        .slices
        .iter()
        .flat_map(|m| m.entry..m.entry + m.compute_len())
        .filter(|&pc| matches!(binary.instructions[pc], Instruction::Li { .. }))
        .collect();
    assert!(!li_pcs.is_empty(), "the slice body recomputes via an Li");
    for pc in li_pcs {
        if let Instruction::Li { imm, .. } = &mut binary.instructions[pc] {
            *imm = imm.wrapping_add(0x00AB_5EED_0000);
        }
    }
    let report = verify(&binary);
    assert!(
        report.has_kind(DiagnosticKind::RcmpDivergent),
        "constant-folding the recomputation away from the loaded bound went unnoticed: {report:?}"
    );
    assert_eq!(
        DiagnosticKind::RcmpDivergent.severity(),
        amnesiac_verify::Severity::Warn,
        "divergence is a profitability warning, not a soundness error"
    );
}

#[test]
fn the_four_mutation_classes_map_to_four_distinct_kinds() {
    let kinds = [
        DiagnosticKind::UncheckpointedHist,
        DiagnosticKind::RcmpBadTarget,
        DiagnosticKind::SliceSideEffect,
        DiagnosticKind::SliceMissingRtn,
    ];
    let names: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.name()).collect();
    assert_eq!(names.len(), kinds.len(), "kinds must be distinguishable");
    for k in kinds {
        assert_eq!(k.severity(), amnesiac_verify::Severity::Error);
    }
}
