//! Suite-wide static verification sweep (the `amnesiac verify` verb).
//!
//! A view of the [`LintSweep`]: the same compiles of every built-in
//! workload under both slice sets, read with `verify`'s pass condition.
//! The findings are the compile's own gate report: the pipeline verifies
//! every binary it ships under the default options, so a second pass
//! would only repeat it. A binary with Error diagnostics fails its
//! compile and counts as one error. The sweep is clean with zero Errors;
//! Warn diagnostics (non-dominating `REC`s and the like), which the hard
//! gate deliberately lets through, are reported but pass. It exists to
//! (a) prove the whole generated suite clean end-to-end in CI and (b)
//! surface those warnings.

use amnesiac_telemetry::{Json, ToJson};
use amnesiac_workloads::Scale;

use crate::lint::LintSweep;

/// The whole-suite sweep, read as `verify` reads it.
#[derive(Debug, Clone)]
pub struct VerifySweep {
    /// The per-workload compiles and findings, shared with `lint`.
    lint: LintSweep,
}

impl VerifySweep {
    /// Compiles and verifies all 33 built-in workloads at `scale`, one
    /// task per workload, in Table-2 order.
    pub fn compute(scale: Scale) -> Self {
        VerifySweep {
            lint: LintSweep::compute(scale),
        }
    }

    /// Total Error-severity diagnostics (plus failed compiles) in the sweep.
    pub fn total_errors(&self) -> usize {
        self.lint.total_errors()
    }

    /// Total Warn-severity diagnostics in the sweep.
    pub fn total_warnings(&self) -> usize {
        self.lint.total_warnings()
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
        for w in &self.lint.workloads {
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
            self.lint.workloads.len(),
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
            .lint
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
    use amnesiac_verify::{Diagnostic, DiagnosticKind};
    use amnesiac_workloads::build_focal;

    fn sweep_of(names: &[&str]) -> VerifySweep {
        let workloads = names
            .iter()
            .map(|name| LintSweep::lint_workload(&build_focal(name, Scale::Test)))
            .collect();
        VerifySweep {
            lint: LintSweep { workloads },
        }
    }

    #[test]
    fn focal_workload_verifies_clean() {
        let sweep = sweep_of(&["is"]);
        assert!(sweep.is_clean());
        let w = &sweep.lint.workloads[0];
        assert_eq!(w.error_count(), 0, "outcome: {:?}", w.outcome);
        let binaries = w.outcome.as_ref().unwrap();
        assert_eq!(binaries.len(), 2, "both slice sets verified");
        assert!(binaries.iter().all(|b| b.report.is_clean()));
    }

    #[test]
    fn sweep_json_shape_and_determinism() {
        let sweep = sweep_of(&["sr", "sr"]);
        let j = sweep.to_json();
        assert_eq!(j.get("clean"), Some(&Json::Bool(true)));
        let ws = j.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].compact(), ws[1].compact(), "deterministic");
    }

    #[test]
    fn an_unexplained_warning_passes_verify_and_fails_lint() {
        let mut sweep = sweep_of(&["is"]);
        let binaries = sweep.lint.workloads[0].outcome.as_mut().unwrap();
        let kind = DiagnosticKind::RecNotDominating;
        binaries[0].report.diagnostics.push(Diagnostic {
            kind,
            severity: kind.severity(),
            pc: None,
            slice: None,
            message: "planted".into(),
            explained: None,
        });
        assert_eq!(sweep.total_warnings(), 1);
        assert!(sweep.is_clean(), "verify counts errors only");
        assert!(!sweep.lint.is_clean(), "lint also fails unexplained warns");
        // a failed compile is an error under both readings
        sweep.lint.workloads[0].outcome = Err("compile failed".into());
        assert!(!sweep.is_clean());
        assert_eq!(
            sweep.to_json().get("errors").and_then(Json::as_f64),
            Some(1.0)
        );
    }
}
