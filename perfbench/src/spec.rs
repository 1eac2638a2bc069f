//! The benchmark's definitions, read from `perfbench/spec.json` (compiled
//! in, so a run cannot drift from the file it ships with).

use amnesiac_telemetry::Json;

/// The spec document.
pub const SPEC_JSON: &str = include_str!("../spec.json");

/// One workload's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (`--workload`).
    pub name: String,
    /// `paper`, `miss` or `hit`.
    pub kind: String,
    /// Kernel names: the paper suite's, or the paper-scale pool the serve
    /// workloads compile and verify.
    pub kernels: Vec<String>,
    /// `amnesiac` arguments that boot the service (serve workloads).
    pub server: Vec<String>,
    /// Protocol version of the requests (1 or 2).
    pub proto: u64,
    /// Nominal offered rate, requests per second.
    pub rate_rps: f64,
    /// Request mix spec (hit workloads).
    pub mix: String,
    /// Share of the run's seconds given to the nominal phase (the rest
    /// goes to the ladder).
    pub nominal_share: f64,
    /// Ladder rates above the nominal rate.
    pub ladder_rps: Vec<f64>,
    /// The p99 latency limit a ladder rung must meet.
    pub p99_limit_ms: f64,
    /// Slack of the growing-backlog test.
    pub backlog_slack_ms: f64,
    /// The paper's focal-average EDP gain (paper-suite).
    pub paper_edp_gain_pct: f64,
}

/// A reported metric: name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in the JSON result.
    pub name: String,
    /// Its unit.
    pub unit: String,
}

/// The whole spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The seed kept out of tuning, for checking later claims.
    pub held_out_seed: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// A request sent more than this behind its due time counts as late.
    pub late_threshold_ms: f64,
    /// A run whose p99 generator lateness exceeds this is invalid.
    pub late_p99_limit_ms: f64,
    /// The workloads.
    pub workloads: Vec<Workload>,
    /// The gated end-to-end metrics, which an untraced run's JSON result
    /// carries.
    pub gated: Vec<Metric>,
    /// The per-layer metrics, which a traced run's JSON result carries.
    pub layers: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str, gated_only: bool) -> Vec<Metric> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|m| !gated_only || matches!(m.get("gated"), Some(Json::Bool(true))))
        .map(|m| Metric {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .expect("metric named")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .expect("metric has a unit")
                .to_string(),
        })
        .collect()
}

fn strings(value: Option<&Json>) -> Vec<String> {
    value
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect()
}

impl Spec {
    /// Parses the compiled-in spec.
    ///
    /// # Panics
    ///
    /// Panics when `spec.json` is malformed (a unit test parses it).
    pub fn load() -> Spec {
        let doc = amnesiac_telemetry::parse(SPEC_JSON).expect("spec.json parses");
        let num = |v: &Json, key: &str| v.get_path(key).and_then(Json::as_f64).unwrap_or(0.0);
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("spec.json lists workloads")
            .iter()
            .map(|w| Workload {
                name: w
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string(),
                kind: w
                    .get("kind")
                    .and_then(Json::as_str)
                    .expect("kind")
                    .to_string(),
                kernels: strings(w.get("kernels")),
                server: strings(w.get("server")),
                proto: num(w, "proto").max(1.0) as u64,
                rate_rps: num(w, "rate_rps"),
                mix: w
                    .get("mix")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                nominal_share: num(w, "nominal_share"),
                ladder_rps: w
                    .get("ladder_rps")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect(),
                p99_limit_ms: num(w, "p99_limit_ms"),
                backlog_slack_ms: num(w, "backlog_slack_ms"),
                paper_edp_gain_pct: num(w, "paper_focal_avg_edp_gain_pct"),
            })
            .collect();
        Spec {
            held_out_seed: num(&doc, "held_out_seed") as u64,
            setup_repeats: num(&doc, "setup_repeats").max(1.0) as usize,
            late_threshold_ms: num(&doc, "generator.late_threshold_ms"),
            late_p99_limit_ms: num(&doc, "generator.late_p99_limit_ms"),
            workloads,
            gated: metrics(&doc, "end_to_end", true),
            layers: metrics(&doc, "per_layer", false),
        }
    }

    /// The workload called `name`.
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}
