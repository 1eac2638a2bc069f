//! Suite-wide static lint sweep (the `amnesiac lint` verb).
//!
//! Compiles every built-in workload (all 33 of Table 2) under both slice
//! sets, on scoped threads one workload per task, and reports what the
//! abstract-interpretation layer concluded about each binary: the verifier's full diagnostic set (including the
//! absint-backed kinds and machine-checked `explained` annotations) plus
//! the pipeline's replay-validation counters, which show how many dynamic
//! replay rounds the static replay-equivalence prover skipped.
//!
//! The sweep's pass condition is stricter than `amnesiac verify`'s: a lint
//! is clean only with **zero Errors and zero unexplained Warns** across
//! the whole suite. A Warn that carries an `explained` proof (e.g. a
//! non-dominating `REC` whose uncovered paths the zero-trip analysis shows
//! infeasible) is allowed; an unexplained one fails the sweep. CI gates on
//! this, and on the aggregate static-skip ratio over the focal benches.
//! The `verify` sweep ([`crate::VerifySweep`]) reads this same
//! computation with the looser pass condition of zero Errors.

use amnesiac_profile::profile_program;
use amnesiac_sim::CoreConfig;
use amnesiac_telemetry::{Json, ToJson};
use amnesiac_verify::VerifyReport;
use amnesiac_workloads::{all_workloads, Scale, Workload, FOCAL_NAMES};

use amnesiac_compiler::{compile, CompileOptions};

use crate::pipeline::fan_out;

/// Lint result for one annotated binary of a workload.
#[derive(Debug, Clone)]
pub struct LintedBinary {
    /// Which slice set produced the binary (`"probabilistic"` / `"oracle"`).
    pub slice_set: &'static str,
    /// Slices embedded in the binary.
    pub n_slices: usize,
    /// Dynamic replay-validation rounds the pipeline actually ran.
    pub validation_rounds: u32,
    /// Rounds skipped because dropped slices shared no `REC` origins.
    pub validation_rounds_saved: u32,
    /// Rounds skipped because the static replay-equivalence prover closed
    /// over every surviving slice.
    pub validation_rounds_saved_static: u32,
    /// The verifier's findings for the final binary (the pipeline's own
    /// post-drop gate report, on the analysis its static skip also read).
    pub report: VerifyReport,
}

/// Lint results for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadLint {
    /// Workload short name (paper Table 2).
    pub name: String,
    /// Originating suite label.
    pub suite: String,
    /// Whether this is one of the 11 focal benches (the static-skip-ratio
    /// acceptance gate is measured over these).
    pub focal: bool,
    /// One entry per compiled binary, or the compile error that prevented
    /// linting.
    pub outcome: Result<Vec<LintedBinary>, String>,
}

impl WorkloadLint {
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

    /// Warn-severity diagnostics without an `explained` benignity proof.
    pub fn unexplained_warn_count(&self) -> usize {
        match &self.outcome {
            Ok(binaries) => binaries
                .iter()
                .map(|b| b.report.unexplained_warn_count())
                .sum(),
            Err(_) => 0,
        }
    }

    /// `(rounds run, rounds saved statically)` summed over the binaries.
    pub fn replay_rounds(&self) -> (u64, u64) {
        match &self.outcome {
            Ok(binaries) => binaries.iter().fold((0, 0), |(run, saved), b| {
                (
                    run + u64::from(b.validation_rounds),
                    saved + u64::from(b.validation_rounds_saved_static),
                )
            }),
            Err(_) => (0, 0),
        }
    }
}

/// The whole-suite lint sweep.
#[derive(Debug, Clone)]
pub struct LintSweep {
    /// Per-workload results, in Table-2 order (focal, controls, extended).
    pub workloads: Vec<WorkloadLint>,
}

impl LintSweep {
    /// Compiles and lints all 33 built-in workloads at `scale`, one task
    /// per workload, in Table-2 order.
    pub fn compute(scale: Scale) -> Self {
        let results = fan_out(all_workloads(scale), |w| Self::lint_workload(&w));
        LintSweep { workloads: results }
    }

    /// Profiles, compiles (both slice sets), and lints one workload.
    pub fn lint_workload(workload: &Workload) -> WorkloadLint {
        let name = workload.name.to_string();
        let suite = format!("{:?}", workload.suite);
        let focal = FOCAL_NAMES.contains(&workload.name);
        let config = CoreConfig::paper();
        let outcome = (|| {
            let (profile, _) = profile_program(&workload.program, &config)
                .map_err(|e| format!("profiling failed: {e}"))?;
            let mut binaries = Vec::new();
            for (slice_set, options) in [
                ("probabilistic", CompileOptions::default()),
                ("oracle", CompileOptions::oracle()),
            ] {
                let (binary, report) = compile(&workload.program, &profile, &options)
                    .map_err(|e| format!("{slice_set} compile failed: {e}"))?;
                binaries.push(LintedBinary {
                    slice_set,
                    n_slices: binary.slices.len(),
                    validation_rounds: report.validation_rounds,
                    validation_rounds_saved: report.validation_rounds_saved,
                    validation_rounds_saved_static: report.validation_rounds_saved_static,
                    report: report.verify,
                });
            }
            Ok(binaries)
        })();
        WorkloadLint {
            name,
            suite,
            focal,
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

    /// Total Warn diagnostics lacking an `explained` benignity proof.
    pub fn total_unexplained_warnings(&self) -> usize {
        self.workloads
            .iter()
            .map(|w| w.unexplained_warn_count())
            .sum()
    }

    /// `(rounds run, rounds saved statically)` over `workloads`.
    fn rounds_over<'a>(workloads: impl Iterator<Item = &'a WorkloadLint>) -> (u64, u64) {
        workloads.fold((0, 0), |(run, saved), w| {
            let (r, s) = w.replay_rounds();
            (run + r, saved + s)
        })
    }

    /// Fraction of would-be replay-validation rounds the static prover
    /// skipped, over the whole suite: `saved / (run + saved)` (0 when no
    /// validation happened at all).
    pub fn static_skip_ratio(&self) -> f64 {
        let (run, saved) = Self::rounds_over(self.workloads.iter());
        if run + saved == 0 {
            0.0
        } else {
            saved as f64 / (run + saved) as f64
        }
    }

    /// [`Self::static_skip_ratio`] restricted to the 11 focal benches —
    /// the figure the CI gate holds at ≥ 0.3.
    pub fn focal_static_skip_ratio(&self) -> f64 {
        let (run, saved) = Self::rounds_over(self.workloads.iter().filter(|w| w.focal));
        if run + saved == 0 {
            0.0
        } else {
            saved as f64 / (run + saved) as f64
        }
    }

    /// `true` when the sweep has zero Errors **and** zero unexplained
    /// Warns — the lint pass condition.
    pub fn is_clean(&self) -> bool {
        self.total_errors() == 0 && self.total_unexplained_warnings() == 0
    }

    /// Plain-text report, one line per workload.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
            "bench", "suite", "slices", "errors", "warns", "unexpl", "rounds", "saved-stat"
        );
        for w in &self.workloads {
            match &w.outcome {
                Ok(binaries) => {
                    let slices: usize = binaries.iter().map(|b| b.n_slices).sum();
                    let (run, saved) = w.replay_rounds();
                    let _ = writeln!(
                        out,
                        "{:<12} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
                        w.name,
                        w.suite,
                        slices,
                        w.error_count(),
                        w.warn_count(),
                        w.unexplained_warn_count(),
                        run,
                        saved
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<12} {:<10} COMPILE FAILED: {e}", w.name, w.suite);
                }
            }
        }
        let _ = writeln!(
            out,
            "{} workloads: {} error(s), {} warning(s) ({} unexplained) — {}",
            self.workloads.len(),
            self.total_errors(),
            self.total_warnings(),
            self.total_unexplained_warnings(),
            if self.is_clean() { "CLEAN" } else { "DIRTY" }
        );
        let _ = writeln!(
            out,
            "static replay-equivalence skipped {:.1}% of validation rounds \
             ({:.1}% over the focal benches)",
            100.0 * self.static_skip_ratio(),
            100.0 * self.focal_static_skip_ratio()
        );
        out
    }
}

impl ToJson for LintSweep {
    /// `{clean, errors, warnings, unexplained_warnings, static_skip_ratio,
    /// focal_static_skip_ratio, workloads: [{name, suite, focal,
    /// binaries|error}]}`.
    fn to_json(&self) -> Json {
        let workloads: Vec<Json> = self
            .workloads
            .iter()
            .map(|w| {
                let base = Json::obj()
                    .with("name", w.name.as_str())
                    .with("suite", w.suite.as_str())
                    .with("focal", w.focal);
                match &w.outcome {
                    Ok(binaries) => base.with(
                        "binaries",
                        binaries
                            .iter()
                            .map(|b| {
                                Json::obj()
                                    .with("slice_set", b.slice_set)
                                    .with("n_slices", b.n_slices)
                                    .with("validation_rounds", b.validation_rounds)
                                    .with("validation_rounds_saved", b.validation_rounds_saved)
                                    .with(
                                        "validation_rounds_saved_static",
                                        b.validation_rounds_saved_static,
                                    )
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
            .with("unexplained_warnings", self.total_unexplained_warnings())
            .with("static_skip_ratio", self.static_skip_ratio())
            .with("focal_static_skip_ratio", self.focal_static_skip_ratio())
            .with("workloads", workloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_workloads::build_focal;

    #[test]
    fn focal_workload_lints_clean() {
        let w = build_focal("is", Scale::Test);
        let l = LintSweep::lint_workload(&w);
        assert!(l.focal);
        assert_eq!(l.error_count(), 0, "outcome: {:?}", l.outcome);
        assert_eq!(l.unexplained_warn_count(), 0, "outcome: {:?}", l.outcome);
        let binaries = l.outcome.as_ref().unwrap();
        assert_eq!(binaries.len(), 2, "both slice sets linted");
    }

    #[test]
    fn skip_ratio_counts_static_savings() {
        let w = build_focal("is", Scale::Test);
        let a = LintSweep::lint_workload(&w);
        let sweep = LintSweep { workloads: vec![a] };
        let (run, saved) = sweep.workloads[0].replay_rounds();
        let ratio = sweep.static_skip_ratio();
        if run + saved == 0 {
            assert_eq!(ratio, 0.0);
        } else {
            assert!((ratio - saved as f64 / (run + saved) as f64).abs() < 1e-12);
        }
        assert_eq!(ratio, sweep.focal_static_skip_ratio(), "all-focal sweep");
    }

    #[test]
    fn lint_json_carries_the_gate_fields() {
        let w = build_focal("sr", Scale::Test);
        let l = LintSweep::lint_workload(&w);
        let sweep = LintSweep { workloads: vec![l] };
        let j = sweep.to_json();
        for field in [
            "clean",
            "errors",
            "warnings",
            "unexplained_warnings",
            "static_skip_ratio",
            "focal_static_skip_ratio",
            "workloads",
        ] {
            assert!(j.get(field).is_some(), "missing {field}");
        }
        let ws = j.get("workloads").and_then(Json::as_arr).unwrap();
        let bins = ws[0].get("binaries").and_then(Json::as_arr).unwrap();
        assert!(bins[0].get("validation_rounds_saved_static").is_some());
    }
}
