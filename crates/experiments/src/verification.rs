//! Suite-wide static verification sweep (the `amnesiac verify` verb).
//!
//! Compiles every built-in workload (all 33 of Table 2) under both slice
//! sets — probabilistic and oracle — on scoped threads, one workload per
//! task, and reports the [`amnesiac_verify`] findings for each annotated
//! binary. The findings are the compile's own gate report: the pipeline
//! verifies every binary it ships under the default options, so a second
//! pass would only repeat it. A binary with Error diagnostics fails its
//! compile and counts as one error. The sweep exists to (a) prove the
//! whole generated suite clean end-to-end in CI and (b) surface the Warn
//! diagnostics (non-dominating `REC`s and the like) that the hard gate
//! deliberately lets through.

use amnesiac_energy::EnergyModel;
use amnesiac_profile::profile_program;
use amnesiac_sim::CoreConfig;
use amnesiac_telemetry::{Json, ToJson};
use amnesiac_verify::VerifyReport;
use amnesiac_workloads::{
    build_control, build_extended, build_focal, Scale, Workload, CONTROL_NAMES, EXTENDED_NAMES,
    FOCAL_NAMES,
};

use amnesiac_compiler::{compile, CompileOptions};

use crate::pipeline::fan_out;

/// Verification result for one annotated binary of a workload.
#[derive(Debug, Clone)]
pub struct VerifiedBinary {
    /// Which slice set produced the binary (`"probabilistic"` / `"oracle"`).
    pub slice_set: &'static str,
    /// Slices embedded in the binary.
    pub n_slices: usize,
    /// The static analyser's findings.
    pub report: VerifyReport,
}

/// Verification results for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadVerification {
    /// Workload short name (paper Table 2).
    pub name: String,
    /// Originating suite label.
    pub suite: String,
    /// One entry per compiled binary, or the compile error that prevented
    /// verification (the pipeline's own gate rejecting the binary).
    pub outcome: Result<Vec<VerifiedBinary>, String>,
}

impl WorkloadVerification {
    /// Error-severity diagnostics across this workload's binaries; a failed
    /// compile counts as one error.
    pub fn error_count(&self) -> usize {
        match &self.outcome {
            Ok(binaries) => binaries.iter().map(|b| b.report.error_count()).sum(),
            Err(_) => 1,
        }
    }

    /// Warn-severity diagnostics across this workload's binaries.
    pub fn warn_count(&self) -> usize {
        match &self.outcome {
            Ok(binaries) => binaries.iter().map(|b| b.report.warn_count()).sum(),
            Err(_) => 0,
        }
    }
}

/// The whole-suite sweep.
#[derive(Debug, Clone)]
pub struct VerifySweep {
    /// Per-workload results, in Table-2 order (focal, controls, extended).
    pub workloads: Vec<WorkloadVerification>,
}

impl VerifySweep {
    /// Compiles and verifies all 33 built-in workloads at `scale`, one
    /// task per workload, in Table-2 order.
    pub fn compute(scale: Scale) -> Self {
        let workloads: Vec<Workload> = FOCAL_NAMES
            .iter()
            .map(|n| build_focal(n, scale))
            .chain(CONTROL_NAMES.iter().map(|n| build_control(n, scale)))
            .chain(EXTENDED_NAMES.iter().map(|n| build_extended(n, scale)))
            .collect();
        let results = fan_out(workloads, |w| Self::verify_workload(&w));
        VerifySweep { workloads: results }
    }

    /// Profiles, compiles (both slice sets), and verifies one workload.
    pub fn verify_workload(workload: &Workload) -> WorkloadVerification {
        let name = workload.name.to_string();
        let suite = format!("{:?}", workload.suite);
        let config = CoreConfig::paper();
        let outcome = (|| {
            let (profile, _) = profile_program(&workload.program, &config)
                .map_err(|e| format!("profiling failed: {e}"))?;
            let mut binaries = Vec::new();
            for (slice_set, options) in [
                ("probabilistic", CompileOptions::default()),
                ("oracle", CompileOptions::oracle()),
            ] {
                let options = CompileOptions {
                    energy: EnergyModel::paper(),
                    ..options
                };
                let (binary, report) = compile(&workload.program, &profile, &options)
                    .map_err(|e| format!("{slice_set} compile failed: {e}"))?;
                binaries.push(VerifiedBinary {
                    slice_set,
                    n_slices: binary.slices.len(),
                    report: report.verify,
                });
            }
            Ok(binaries)
        })();
        WorkloadVerification {
            name,
            suite,
            outcome,
        }
    }

    /// Total Error-severity diagnostics (plus failed compiles) in the sweep.
    pub fn total_errors(&self) -> usize {
        self.workloads.iter().map(|w| w.error_count()).sum()
    }

    /// Total Warn-severity diagnostics in the sweep.
    pub fn total_warnings(&self) -> usize {
        self.workloads.iter().map(|w| w.warn_count()).sum()
    }

    /// `true` when no workload has an Error-severity finding.
    pub fn is_clean(&self) -> bool {
        self.total_errors() == 0
    }

    /// Plain-text report, one line per workload.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:>8} {:>8} {:>8}",
            "bench", "suite", "slices", "errors", "warns"
        );
        for w in &self.workloads {
            match &w.outcome {
                Ok(binaries) => {
                    let slices: usize = binaries.iter().map(|b| b.n_slices).sum();
                    let _ = writeln!(
                        out,
                        "{:<12} {:<10} {:>8} {:>8} {:>8}",
                        w.name,
                        w.suite,
                        slices,
                        w.error_count(),
                        w.warn_count()
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<12} {:<10} COMPILE FAILED: {e}", w.name, w.suite);
                }
            }
        }
        let _ = writeln!(
            out,
            "{} workloads: {} error(s), {} warning(s) — {}",
            self.workloads.len(),
            self.total_errors(),
            self.total_warnings(),
            if self.is_clean() { "CLEAN" } else { "DIRTY" }
        );
        out
    }
}

impl ToJson for VerifySweep {
    /// `{clean, errors, warnings, workloads: [{name, suite, binaries|error}]}`.
    fn to_json(&self) -> Json {
        let workloads: Vec<Json> = self
            .workloads
            .iter()
            .map(|w| {
                let base = Json::obj()
                    .with("name", w.name.as_str())
                    .with("suite", w.suite.as_str());
                match &w.outcome {
                    Ok(binaries) => base.with(
                        "binaries",
                        binaries
                            .iter()
                            .map(|b| {
                                Json::obj()
                                    .with("slice_set", b.slice_set)
                                    .with("n_slices", b.n_slices)
                                    .with("report", b.report.to_json())
                            })
                            .collect::<Vec<_>>(),
                    ),
                    Err(e) => base.with("error", e.as_str()),
                }
            })
            .collect();
        Json::obj()
            .with("clean", self.is_clean())
            .with("errors", self.total_errors())
            .with("warnings", self.total_warnings())
            .with("workloads", workloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focal_workload_verifies_clean() {
        let w = build_focal("is", Scale::Test);
        let v = VerifySweep::verify_workload(&w);
        assert_eq!(v.error_count(), 0, "outcome: {:?}", v.outcome);
        let binaries = v.outcome.as_ref().unwrap();
        assert_eq!(binaries.len(), 2, "both slice sets verified");
        assert!(binaries.iter().all(|b| b.report.is_clean()));
    }

    #[test]
    fn sweep_json_shape_and_determinism() {
        let w = build_focal("sr", Scale::Test);
        let a = VerifySweep::verify_workload(&w);
        let b = VerifySweep::verify_workload(&w);
        let sweep = VerifySweep {
            workloads: vec![a, b],
        };
        let j = sweep.to_json();
        assert_eq!(j.get("clean"), Some(&Json::Bool(true)));
        let ws = j.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].compact(), ws[1].compact(), "deterministic");
    }
}
