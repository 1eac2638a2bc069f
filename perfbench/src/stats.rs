//! Order statistics behind every reported number: nearest-rank
//! percentiles, the highest percentile a sample supports, and the
//! saturation-ladder rule that turns fixed-rate load points into
//! `max_rate_rps`.

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample ascending; failed operations are `f64::INFINITY`, so
/// they land beyond every finite latency and count as missing any limit.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank percentile of an ascending sample, `p` in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample (mean of the middle pair for an even
/// count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(1, n.max(1)))
}

/// Whether a sample of `n` supports reporting percentile `p`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// One fixed-rate load point of a saturation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Nearest-rank p99 latency, failures counted as infinite.
    pub p99_ms: f64,
    /// Requests that failed (error, protocol error, missing, mismatch).
    pub failed: u64,
    /// Whether latency kept growing through the rung.
    pub backlog_growing: bool,
}

impl Rung {
    /// A rung passes when its p99 meets the limit with no failures and
    /// no growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.p99_ms <= limit_ms
    }
}

/// The saturation knee: the highest rate of the leading run of passing
/// rungs (rungs in ascending rate order). `None` when the first rung
/// already fails.
pub fn knee(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|rung| rung.passes(limit_ms))
        .last()
        .map(|rung| rung.rate)
}

/// Backlog test over latencies in due-time order: the queue is growing
/// when the median of the last third exceeds twice the median of the
/// first third plus `slack_ms` (a stable queue keeps the two close; an
/// overloaded one grows linearly through the rung).
pub fn backlog_growing(latencies_in_due_order: &[f64], slack_ms: f64) -> bool {
    let n = latencies_in_due_order.len();
    if n < 6 {
        return false;
    }
    let third = n / 3;
    let head = median(&sorted(&latencies_in_due_order[..third]));
    let tail = median(&sorted(&latencies_in_due_order[n - third..]));
    tail > 2.0 * head + slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_known_sample() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 90.0), 90.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.0), 1.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn failures_sort_beyond_every_latency() {
        let s = sorted(&[3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, f64::INFINITY]);
        assert_eq!(percentile(&s, 100.0), f64::INFINITY);
        assert_eq!(percentile(&s, 75.0), 3.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        // p90 of 100 sits at rank 90: exactly 10 beyond
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        // p99 needs a thousand samples
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(!supports(0, 50.0));
        assert_eq!(beyond(160, 90.0), 16);
        assert_eq!(beyond(3000, 99.0), 30);
    }

    fn rung(rate: f64, p99_ms: f64, failed: u64, backlog_growing: bool) -> Rung {
        Rung {
            rate,
            p99_ms,
            failed,
            backlog_growing,
        }
    }

    #[test]
    fn knee_is_the_last_rung_of_the_passing_prefix() {
        let limit = 20.0;
        let rungs = [
            rung(300.0, 5.0, 0, false),
            rung(500.0, 8.0, 0, false),
            rung(700.0, 25.0, 0, false),
            // a later pass after a failure does not count
            rung(900.0, 10.0, 0, false),
        ];
        assert_eq!(knee(&rungs, limit), Some(500.0));
        assert_eq!(knee(&rungs[..2], limit), Some(500.0));
        assert_eq!(knee(&rungs[2..3], limit), None);
        assert_eq!(knee(&[], limit), None);
    }

    #[test]
    fn failures_and_backlog_disqualify_a_rung() {
        assert!(rung(1.0, 20.0, 0, false).passes(20.0));
        assert!(!rung(1.0, 20.1, 0, false).passes(20.0));
        assert!(!rung(1.0, 1.0, 1, false).passes(20.0));
        assert!(!rung(1.0, 1.0, 0, true).passes(20.0));
        assert!(!rung(1.0, f64::INFINITY, 0, false).passes(20.0));
    }

    #[test]
    fn backlog_test_separates_flat_from_growing_latency() {
        let flat: Vec<f64> = (0..300).map(|i| 2.0 + f64::from(i % 7) * 0.1).collect();
        assert!(!backlog_growing(&flat, 1.0));
        let growing: Vec<f64> = (0..300).map(|i| 2.0 + f64::from(i) * 0.5).collect();
        assert!(backlog_growing(&growing, 1.0));
        assert!(
            !backlog_growing(&[100.0, 1.0, 1.0], 1.0),
            "too short to judge"
        );
    }
}
