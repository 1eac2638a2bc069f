//! Fig. 6: histograms of instruction count per recomputed RSlice under the
//! Compiler policy.

use std::collections::BTreeMap;

use amnesiac_telemetry::Json;

use crate::pipeline::{share_pct, EvalSuite, PolicyOutcome};
use crate::report::{bucketize, histogram};

/// Per benchmark, how many of the slices the Compiler run recomputed have
/// each `compute_len`.
fn rows(suite: &EvalSuite) -> Vec<(&'static str, BTreeMap<usize, usize>)> {
    suite
        .benches
        .iter()
        .map(|bench| {
            let lengths: Vec<usize> = bench
                .prob_binary
                .slices
                .iter()
                .map(|s| s.compute_len())
                .collect();
            let stats = &bench.run(PolicyOutcome::Compiler).stats;
            (bench.name, stats.recomputed_length_histogram(&lengths))
        })
        .collect()
}

/// The aggregate the paper quotes: recomputed slices, and the % of them
/// under 10 and over 50 instructions (0 when none was recomputed).
fn aggregate(rows: &[(&'static str, BTreeMap<usize, usize>)]) -> (usize, f64, f64) {
    let count = |keep: fn(usize) -> bool| -> usize {
        rows.iter()
            .flat_map(|(_, hist)| hist)
            .filter(|&(&len, _)| keep(len))
            .map(|(_, &n)| n)
            .sum()
    };
    let total = count(|_| true);
    (
        total,
        share_pct(count(|l| l < 10), total),
        share_pct(count(|l| l > 50), total),
    )
}

/// Renders one histogram per benchmark, plus the aggregate statistics the
/// paper quotes (§5.4: 78.32% of RSlices under 10 instructions, 0.09%
/// above 50).
pub fn render(suite: &EvalSuite) -> String {
    let rows = rows(suite);
    let mut out = String::new();
    for (name, hist) in &rows {
        let values: Vec<(f64, u64)> = hist
            .iter()
            .map(|(&len, &count)| (len as f64, count as u64))
            .collect();
        let max = values
            .iter()
            .map(|&(l, _)| l)
            .fold(10.0f64, f64::max)
            .max(10.0);
        let bin = (max / 8.0).ceil().max(1.0);
        let bins = bucketize(&values, bin, bin * 8.0);
        out.push_str(&histogram(
            &format!("Fig. 6 ({name}): instructions per recomputed RSlice"),
            &bins,
        ));
        out.push('\n');
    }
    let (total, short_pct, long_pct) = aggregate(&rows);
    if total > 0 {
        out.push_str(&format!(
            "Aggregate: {short_pct:.2}% of recomputed RSlices are under 10 instructions \
             (paper: 78.32%), {long_pct:.2}% above 50 (paper: 0.09%)\n",
        ));
    }
    out
}

/// The twin of [`render`]: `{length: slice count}` per benchmark, plus the
/// aggregate.
pub fn json(suite: &EvalSuite) -> Json {
    let rows = rows(suite);
    let mut benches = Json::obj();
    for (name, hist) in &rows {
        let mut bins = Json::obj();
        for (len, &count) in hist {
            bins.set(&len.to_string(), count);
        }
        benches.set(name, bins);
    }
    let (total, short_pct, long_pct) = aggregate(&rows);
    Json::obj()
        .with("artifact", "fig6")
        .with("benches", benches)
        .with(
            "aggregate",
            Json::obj()
                .with("recomputed_slices", total)
                .with("under_10_insts_pct", short_pct)
                .with("over_50_insts_pct", long_pct),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tiny_suite;

    #[test]
    fn histogram_reflects_slice_table() {
        let text = render(&tiny_suite("is"));
        assert!(text.contains("Fig. 6 (is)"));
    }
}
