//! Gates the static replay-equivalence pre-pass at test scale: the prover
//! must close on the provable focal slice (rt), must NOT close on slices
//! whose invariants are beyond static reach (is, bfs — dynamic replay stays
//! the oracle there), must leave no unexplained warnings, and must skip at
//! least 30% of the focal benches' validation rounds.

use amnesiac_absint::{Analysis, SliceVerdict};
use amnesiac_compiler::{compile, replay_validate, CompileOptions, CompileReport};
use amnesiac_isa::Program;
use amnesiac_profile::profile_program;
use amnesiac_sim::CoreConfig;
use amnesiac_verify::Severity;
use amnesiac_workloads::{workload, Scale, FOCAL_NAMES};

/// Compiles both slice sets of a workload, returning `(set, binary, report)`.
fn compile_both(name: &str) -> Vec<(&'static str, Program, CompileReport)> {
    let config = CoreConfig::paper();
    let w = workload(name, Scale::Test).unwrap();
    let (profile, _) = profile_program(&w.program, &config).unwrap();
    [
        ("probabilistic", CompileOptions::default()),
        ("oracle", CompileOptions::oracle()),
    ]
    .into_iter()
    .map(|(set, options)| {
        let (binary, report) = compile(&w.program, &profile, &options).unwrap();
        (set, binary, report)
    })
    .collect()
}

fn verdicts(binary: &Program) -> Vec<SliceVerdict> {
    let mut analysis = Analysis::of_program(binary);
    analysis
        .slice_reports(binary)
        .into_iter()
        .map(|r| r.verdict)
        .collect()
}

#[test]
fn rt_slice_proves_statically_and_skips_its_round() {
    for (set, binary, report) in compile_both("rt") {
        if binary.slices.is_empty() {
            continue;
        }
        assert!(
            verdicts(&binary).iter().all(SliceVerdict::is_proven),
            "rt/{set}: the hist-operand slice should prove via the affine fill loop"
        );
        assert_eq!(
            report.validation_rounds, 0,
            "rt/{set}: no dynamic round left"
        );
        assert!(report.validation_rounds_saved_static >= 1, "rt/{set}");
    }
}

#[test]
fn data_dependent_slices_stay_dynamic() {
    // is: histogram-offset store whose inner bound is data-dependent;
    // bfs: reachability invariant (every visited cell holds 7). Neither is
    // in reach of the prover — replay must remain the oracle.
    for name in ["is", "bfs"] {
        for (set, binary, report) in compile_both(name) {
            if binary.slices.is_empty() {
                continue;
            }
            assert!(
                verdicts(&binary).iter().all(|v| !v.is_proven()),
                "{name}/{set}: statically unprovable slice must stay Unknown"
            );
            assert!(
                report.validation_rounds >= 1,
                "{name}/{set}: dynamic replay must still run"
            );
            assert_eq!(report.validation_rounds_saved_static, 0, "{name}/{set}");
        }
    }
}

#[test]
fn focal_suite_has_no_unexplained_warnings() {
    for name in FOCAL_NAMES.into_iter().chain(["hotspot"]) {
        for (set, _, report) in compile_both(name) {
            for d in &report.verify.diagnostics {
                assert_eq!(report.verify.error_count(), 0, "{name}/{set}: {d}");
                assert!(
                    d.severity != Severity::Warn || d.explained.is_some(),
                    "{name}/{set}: unexplained warning: {d}"
                );
            }
        }
    }
}

#[test]
fn statically_approved_skips_are_replay_exact() {
    // The differential oracle: a slice the prover approves (its dynamic
    // validation round was skipped) must still replay bit-exactly when the
    // dynamic oracle is forced to run.
    let mut checked = 0;
    for name in FOCAL_NAMES.into_iter().chain(["hotspot"]) {
        for (set, binary, _) in compile_both(name) {
            if binary.slices.is_empty() {
                continue;
            }
            let proven: Vec<usize> = verdicts(&binary)
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.is_proven().then_some(i))
                .collect();
            if proven.is_empty() {
                continue;
            }
            let outcome = replay_validate(&binary, 50_000_000).unwrap();
            for i in proven {
                let stats = outcome.per_slice[i];
                assert!(
                    stats.fired > 0,
                    "{name}/{set}: proven slice {i} never fired"
                );
                assert!(
                    stats.is_exact(),
                    "{name}/{set}: statically approved slice {i} diverged dynamically: {stats:?}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 1, "no statically proven slice to cross-check");
}

#[test]
fn focal_static_skip_ratio_meets_the_gate() {
    let (mut run, mut saved) = (0u64, 0u64);
    for name in FOCAL_NAMES {
        for (_, _, report) in compile_both(name) {
            run += u64::from(report.validation_rounds);
            saved += u64::from(report.validation_rounds_saved_static);
        }
    }
    assert!(run + saved > 0, "focal suite has validation rounds");
    let ratio = saved as f64 / (run + saved) as f64;
    assert!(
        ratio >= 0.3,
        "static pre-pass must skip >= 30% of focal validation rounds, got {ratio:.3} ({saved}/{})",
        run + saved
    );
}
