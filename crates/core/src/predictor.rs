//! A history-based miss predictor — the refinement the paper's §3.3.1
//! leaves to future work: "Better amnesic policies can be devised by using
//! more accurate (miss) predictors, which can also help eliminate the
//! probing overhead."
//!
//! Each static `RCMP` gets a 2-bit saturating counter trained on the true
//! residency of its dynamic instances. A predicted L1 miss fires
//! recomputation *without probing the caches*; a predicted hit performs
//! the load. Mispredictions cost either a wasted recomputation
//! (false positive) or a lost opportunity (false negative) — never
//! correctness, since the value is recomputed or loaded exactly as under
//! the other policies.

use amnesiac_mem::FastMap;

/// Per-site 2-bit saturating miss predictor.
#[derive(Debug, Clone, Default)]
pub struct MissPredictor {
    counters: FastMap<usize, u8>,
    predictions: u64,
    mispredictions: u64,
}

/// Counter value at and above which a miss is predicted.
const TAKEN_THRESHOLD: u8 = 2;
/// Saturation limit of the 2-bit counter.
const MAX_COUNT: u8 = 3;
/// Initial counter value: weakly predict-miss, so cold sites behave like
/// the `Compiler` policy until trained.
const INITIAL: u8 = 2;

impl MissPredictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicts whether the `RCMP` at `pc` will miss L1.
    pub fn predict_miss(&mut self, pc: usize) -> bool {
        self.predictions += 1;
        *self.counters.entry(pc).or_insert(INITIAL) >= TAKEN_THRESHOLD
    }

    /// Trains the counter with the observed outcome. Call after every
    /// decision, whichever way it went.
    pub fn train(&mut self, pc: usize, missed: bool) {
        let counter = self.counters.entry(pc).or_insert(INITIAL);
        let predicted = *counter >= TAKEN_THRESHOLD;
        if predicted != missed {
            self.mispredictions += 1;
        }
        *counter = if missed {
            (*counter + 1).min(MAX_COUNT)
        } else {
            counter.saturating_sub(1)
        };
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Predictions that disagreed with the observed outcome.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_sites_predict_miss() {
        let mut p = MissPredictor::new();
        assert!(p.predict_miss(10), "weakly-miss initial state");
    }

    #[test]
    fn counters_saturate_and_flip() {
        let mut p = MissPredictor::new();
        // train toward hit
        for _ in 0..4 {
            p.train(10, false);
        }
        assert!(!p.predict_miss(10));
        // one miss does not flip a saturated hit-state immediately…
        p.train(10, true);
        assert!(!p.predict_miss(10));
        // …but two do
        p.train(10, true);
        assert!(p.predict_miss(10));
    }

    #[test]
    fn misprediction_rate_tracks_disagreements() {
        let mut p = MissPredictor::new();
        p.predict_miss(1);
        p.train(1, false); // predicted miss (initial 2), was hit → mispredict
        p.predict_miss(1);
        p.train(1, false); // counter now 1 → predicted hit, was hit → correct
        assert_eq!(p.mispredictions(), 1);
        assert_eq!(p.predictions(), 2);
    }

    #[test]
    fn sites_are_independent() {
        let mut p = MissPredictor::new();
        for _ in 0..4 {
            p.train(1, false);
            p.train(2, true);
        }
        assert!(!p.predict_miss(1));
        assert!(p.predict_miss(2));
    }
}
