//! What a run reports: the end-to-end metrics (untraced runs), the
//! per-layer metrics (traced runs), printed-only context, and the final
//! JSON line. The metric names and units come from `spec.json`; a unit
//! test keeps `BENCHMARK.json` in step with it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::oracle::Oracle;
use crate::spec::{Metric, Spec};
use crate::stats::{median, sorted};
use crate::trace::Tracer;

/// Everything a workload needs while it runs.
pub struct Ctx {
    /// The benchmark's definitions.
    pub spec: Spec,
    /// The run seed.
    pub seed: u64,
    /// Seconds the measured phase may use.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The span recorder (records only when `trace`).
    pub tracer: Tracer,
    /// The output oracle.
    pub oracle: Oracle,
    /// The `amnesiac` binary the serve workloads boot.
    pub amnesiac: PathBuf,
    /// Output directory for generated files and run records.
    pub out_dir: PathBuf,
}

/// One run's results.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, protocol error, missing, mismatch).
    pub failed: u64,
    workload: String,
    trace: bool,
    gated: Vec<Metric>,
    layer_list: Vec<Metric>,
    e2e: BTreeMap<String, f64>,
    extra: Vec<(String, String, f64)>,
    layers: BTreeMap<String, f64>,
    lines: Vec<String>,
    failed_checks: Vec<String>,
}

/// Formats a value with all its digits; non-finite values (a tail that
/// lands on a failed request) become the largest finite number, since
/// JSON has no infinity.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        format!("{}", f64::MAX)
    }
}

impl Report {
    /// An empty report for `workload`, reporting the metrics `spec`
    /// declares.
    pub fn new(workload: &str, trace: bool, spec: &Spec) -> Report {
        Report {
            attempted: 0,
            failed: 0,
            workload: workload.to_string(),
            trace,
            gated: spec.gated.clone(),
            layer_list: spec.layers.clone(),
            e2e: BTreeMap::new(),
            extra: Vec::new(),
            layers: spec.layers.iter().map(|m| (m.name.clone(), 0.0)).collect(),
            lines: Vec::new(),
            failed_checks: Vec::new(),
        }
    }

    /// Sets a gated end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `spec.json` does not gate.
    pub fn e2e(&mut self, name: &str, value: f64) {
        assert!(
            self.gated.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.e2e.insert(name.to_string(), value);
    }

    /// Sets `setup_s` to the median of the set-up samples (seconds) and
    /// prints every sample.
    pub fn setups(&mut self, samples: &[f64]) {
        self.e2e("setup_s", median(&sorted(samples)));
        let listed: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        self.line(format!(
            "set-up samples (s), in order: {}",
            listed.join(" ")
        ));
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `spec.json` does not list.
    pub fn layer(&mut self, name: &str, value: f64) {
        let slot = self
            .layers
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        *slot = value;
    }

    /// Adds a printed-only figure.
    pub fn extra(&mut self, name: &str, unit: &str, value: f64) {
        self.extra.push((name.to_string(), unit.to_string(), value));
    }

    /// Adds a printed-only line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records a failed self-check; the run is then not correct.
    pub fn check_failed(&mut self, what: String) {
        self.failed_checks.push(what);
    }

    /// Whether every output matched and every self-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks.is_empty()
    }

    /// Every end-to-end figure, gated and printed-only, for the run record.
    pub fn record(&self) -> BTreeMap<String, f64> {
        self.e2e
            .iter()
            .map(|(name, value)| (name.to_string(), *value))
            .chain(
                self.extra
                    .iter()
                    .map(|(name, _, value)| (name.clone(), *value)),
            )
            .collect()
    }

    /// The human-readable report, ending with the JSON result line. A
    /// traced run passes the untraced run's record of the same seed, and
    /// each figure is printed next to it.
    pub fn render(&self, seed: u64, untraced: Option<&BTreeMap<String, f64>>) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench {} seed={seed} trace={}",
            self.workload,
            u8::from(self.trace)
        );
        let failed_pct = 100.0 * self.failed as f64 / self.attempted.max(1) as f64;
        let rows = self
            .gated
            .iter()
            .map(|m| {
                let value = self.e2e.get(&m.name).copied().unwrap_or(0.0);
                (m.name.as_str(), m.unit.as_str(), value)
            })
            .chain(
                self.extra
                    .iter()
                    .map(|(n, u, v)| (n.as_str(), u.as_str(), *v)),
            );
        for (name, unit, value) in rows {
            let _ = write!(out, "  {name:<26} {:>14} {unit}", num(value));
            match untraced.and_then(|u| u.get(name)) {
                Some(&before) if before != 0.0 => {
                    let _ = write!(
                        out,
                        "   untraced {} ({:+.1}% traced vs untraced)",
                        num(before),
                        100.0 * (value / before - 1.0)
                    );
                }
                Some(&before) => {
                    let _ = write!(out, "   untraced {}", num(before));
                }
                None => {}
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  {:<26} {:>14} %  ({} failed of {} attempted)",
            "failed_pct",
            num(failed_pct),
            self.failed,
            self.attempted
        );
        for line in &self.lines {
            let _ = writeln!(out, "  {line}");
        }
        for check in &self.failed_checks {
            let _ = writeln!(out, "  FAILED CHECK: {check}");
        }
        let (list, values) = if self.trace {
            (&self.layer_list, &self.layers)
        } else {
            (&self.gated, &self.e2e)
        };
        let value = |name: &str| values.get(name).copied().unwrap_or(0.0);
        if self.trace {
            for m in list {
                let _ = writeln!(
                    out,
                    "  {:<30} {:>14} {}",
                    m.name,
                    num(value(&m.name)),
                    m.unit
                );
            }
        }
        let metrics: Vec<String> = list
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(value(&m.name)),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        out
    }
}
