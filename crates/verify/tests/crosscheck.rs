//! Cross-check property: a binary the static verifier accepts must also be
//! dynamically sound. For every generated workload, the pipeline's output
//! must (a) verify clean, (b) carry that same verifier report in its
//! compile report and (c) pass the compiler's whole-program replay
//! validation with zero failing slices — the static and dynamic oracles
//! must agree on the same artifact.

use amnesiac_compiler::{compile, replay_validate, CompileOptions};
use amnesiac_profile::profile_program;
use amnesiac_rng::Rng;
use amnesiac_sim::CoreConfig;
use amnesiac_telemetry::ToJson;
use amnesiac_verify::verify;
use amnesiac_workloads::{
    build_focal, workload, Scale, Workload, CONTROL_NAMES, EXTENDED_NAMES, FOCAL_NAMES,
};

const REPLAY_FUSE: u64 = 50_000_000;

fn check(workload: &Workload) {
    let config = CoreConfig::paper();
    let (profile, _) = profile_program(&workload.program, &config).expect("profiling succeeds");
    for options in [CompileOptions::default(), CompileOptions::oracle()] {
        let (binary, compiled) =
            compile(&workload.program, &profile, &options).expect("compile succeeds");
        let report = verify(&binary);
        assert!(
            report.is_clean(),
            "{}: verifier rejected the pipeline output: {report:?}",
            workload.name
        );
        // `verify` answers with the compile's gate report, so it must equal
        // a fresh pass over the shipped binary, down to the wire bytes.
        assert_eq!(compiled.verify, report, "{}", workload.name);
        assert_eq!(
            compiled.verify.to_json().compact(),
            report.to_json().compact(),
            "{}",
            workload.name
        );
        let outcome = replay_validate(&binary, REPLAY_FUSE)
            .unwrap_or_else(|e| panic!("{}: replay diverged: {e}", workload.name));
        assert!(
            outcome.failing_slices().is_empty(),
            "{}: verifier-clean binary has failing slices {:?}",
            workload.name,
            outcome.failing_slices()
        );
    }
}

#[test]
fn every_focal_workload_is_statically_and_dynamically_sound() {
    for name in FOCAL_NAMES {
        check(&build_focal(name, Scale::Test));
    }
}

#[test]
fn sampled_controls_and_extended_workloads_agree_with_replay() {
    let mut rng = Rng::seed_from_u64(0xC0550);
    for _ in 0..3 {
        let c = CONTROL_NAMES[rng.below(CONTROL_NAMES.len() as u64) as usize];
        check(&workload(c, Scale::Test).unwrap());
        let e = EXTENDED_NAMES[rng.below(EXTENDED_NAMES.len() as u64) as usize];
        check(&workload(e, Scale::Test).unwrap());
    }
}
