//! Cross-crate integration tests: for every workload and every runtime
//! policy, amnesic execution must be bit-identical to classic execution —
//! the system's fundamental safety property.

use amnesiac::compiler::{compile, CompileOptions, SliceSetPolicy};
use amnesiac::core::{AmnesicConfig, AmnesicCore, Policy};
use amnesiac::energy::EnergyModel;
use amnesiac::profile::profile_program;
use amnesiac::sim::{ClassicCore, CoreConfig};
use amnesiac::workloads::{build_focal, workload, Scale, CONTROL_NAMES, FOCAL_NAMES};

fn check_program(program: &amnesiac::isa::Program) {
    let config = CoreConfig::paper();
    let classic = ClassicCore::new(config.clone())
        .run(program)
        .expect("classic run succeeds");
    let (profile, _) = profile_program(program, &config).expect("profiling succeeds");

    for slice_set in [SliceSetPolicy::Probabilistic, SliceSetPolicy::Oracle] {
        let options = CompileOptions {
            slice_set,
            ..CompileOptions::default()
        };
        let (binary, _) = compile(program, &profile, &options).expect("compile succeeds");
        for policy in Policy::ALL_EXTENDED {
            let result = AmnesicCore::new(AmnesicConfig::paper(policy))
                .run(&binary)
                .unwrap_or_else(|e| {
                    panic!("{}: {policy} on {slice_set:?} failed: {e}", program.name)
                });
            assert_eq!(
                result.run.final_memory, classic.final_memory,
                "{}: {policy} on {slice_set:?} diverged from classic",
                program.name
            );
        }
    }
}

#[test]
fn every_focal_benchmark_is_policy_equivalent() {
    for name in FOCAL_NAMES {
        check_program(&build_focal(name, Scale::Test).program);
    }
}

#[test]
fn every_control_benchmark_is_policy_equivalent() {
    for name in CONTROL_NAMES {
        check_program(&workload(name, Scale::Test).unwrap().program);
    }
}

#[test]
fn amnesic_core_runs_unannotated_binaries_exactly_like_classic() {
    for name in FOCAL_NAMES {
        let program = build_focal(name, Scale::Test).program;
        let config = CoreConfig::paper();
        let classic = ClassicCore::new(config.clone()).run(&program).unwrap();
        let amnesic = AmnesicCore::new(AmnesicConfig::paper(Policy::Compiler))
            .run(&program)
            .unwrap();
        assert_eq!(amnesic.run.final_memory, classic.final_memory);
        assert_eq!(amnesic.run.instructions, classic.instructions, "{name}");
        assert!(
            (amnesic.run.account.total_nj() - classic.account.total_nj()).abs() < 1e-6,
            "{name}: energy must match exactly without annotations"
        );
    }
}

#[test]
fn compiled_binaries_respect_the_energy_budget_rule() {
    use amnesiac::compiler::SiteOutcome;
    for name in FOCAL_NAMES {
        let program = build_focal(name, Scale::Test).program;
        let config = CoreConfig::paper();
        let (profile, _) = profile_program(&program, &config).unwrap();
        let (binary, report) = compile(&program, &profile, &CompileOptions::default()).unwrap();
        for d in &report.decisions {
            if let SiteOutcome::Selected {
                est_recompute_nj,
                est_load_nj,
                ..
            } = d.outcome
            {
                // the probabilistic budget is the whole-program E_ld
                let _ = est_load_nj;
                assert!(est_recompute_nj.is_finite());
            }
        }
        // every embedded slice carries consistent §3.4 metadata
        let bounds = amnesiac::compiler::StorageBounds::of(&binary);
        for meta in &binary.slices {
            assert!(meta.compute_len() <= bounds.max_insts_per_slice);
            assert!(meta.compute_len() <= 64, "{name}: compiler inst cap");
            assert!(meta.height <= 48, "{name}: compiler height cap");
        }
    }
}

#[test]
fn scaled_energy_models_preserve_equivalence() {
    // the break-even sweep recompiles under scaled EPIs; correctness must
    // hold at every point of the sweep
    let program = build_focal("ca", Scale::Test).program;
    let config = CoreConfig::paper();
    let classic = ClassicCore::new(config.clone()).run(&program).unwrap();
    let (profile, _) = profile_program(&program, &config).unwrap();
    for factor in [0.25, 1.0, 8.0, 64.0] {
        let energy = EnergyModel::paper().with_r_factor(factor);
        let options = CompileOptions {
            energy: energy.clone(),
            ..CompileOptions::default()
        };
        let (binary, _) = compile(&program, &profile, &options).unwrap();
        let result = AmnesicCore::new(AmnesicConfig {
            core: CoreConfig::with_energy(energy),
            ..AmnesicConfig::paper(Policy::Compiler)
        })
        .run(&binary)
        .unwrap();
        assert_eq!(result.run.final_memory, classic.final_memory, "R×{factor}");
    }
}
