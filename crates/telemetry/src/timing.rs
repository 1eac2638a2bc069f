//! Wall-clock stage timing for pipeline instrumentation.

use std::time::Instant;

use crate::{Json, ToJson};

/// A simple wall-clock stopwatch.
///
/// ```
/// let sw = amnesiac_telemetry::Stopwatch::start();
/// let ms = sw.elapsed_ms();
/// assert!(ms >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }
}

/// Wall-clock timings of the evaluation pipeline's stages for one
/// benchmark: profile → compile (both slice sets) → classic + per-policy
/// amnesic runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimings {
    /// Profiling run (classic execution + provenance tracking).
    pub profile_ms: f64,
    /// Compilation of the probabilistic slice set.
    pub compile_prob_ms: f64,
    /// Compilation of the oracle slice set.
    pub compile_oracle_ms: f64,
    /// Per-policy amnesic run times, as `(policy label, ms)` in run order.
    pub policy_run_ms: Vec<(String, f64)>,
}

impl StageTimings {
    /// Total wall time across all recorded stages.
    pub fn total_ms(&self) -> f64 {
        self.profile_ms
            + self.compile_prob_ms
            + self.compile_oracle_ms
            + self.policy_run_ms.iter().map(|(_, ms)| ms).sum::<f64>()
    }

    /// True when every recorded stage is non-negative (sanity check used by
    /// tests; wall clocks are monotonic so this must always hold).
    pub fn is_sane(&self) -> bool {
        self.profile_ms >= 0.0
            && self.compile_prob_ms >= 0.0
            && self.compile_oracle_ms >= 0.0
            && self.policy_run_ms.iter().all(|(_, ms)| *ms >= 0.0)
    }
}

impl ToJson for StageTimings {
    fn to_json(&self) -> Json {
        let mut runs = Json::obj();
        for (label, ms) in &self.policy_run_ms {
            runs.set(label, *ms);
        }
        Json::obj()
            .with("profile_ms", self.profile_ms)
            .with("compile_prob_ms", self.compile_prob_ms)
            .with("compile_oracle_ms", self.compile_oracle_ms)
            .with("policy_run_ms", runs)
            .with("total_ms", self.total_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances() {
        // spin rather than sleep-and-assert: coarse clocks and scheduler
        // jitter make any fixed sleep/threshold pair flaky
        let sw = Stopwatch::start();
        while sw.elapsed_ms() <= 0.0 {
            std::hint::spin_loop();
        }
        assert!(sw.elapsed_ms() > 0.0);
    }

    #[test]
    fn totals_and_sanity() {
        let t = StageTimings {
            profile_ms: 1.0,
            compile_prob_ms: 2.0,
            compile_oracle_ms: 3.0,
            policy_run_ms: vec![("Oracle".into(), 4.0), ("FLC".into(), 5.0)],
        };
        assert!((t.total_ms() - 15.0).abs() < 1e-12);
        assert!(t.is_sane());
        let json = t.to_json();
        assert_eq!(json.get("total_ms").and_then(Json::as_f64), Some(15.0));
        assert_eq!(
            json.get_path("policy_run_ms.FLC").and_then(Json::as_f64),
            Some(5.0)
        );
    }
}
