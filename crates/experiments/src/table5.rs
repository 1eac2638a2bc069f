//! Table 5: memory-access profile of the loads swapped for recomputation
//! under the Compiler, FLC, and LLC policies.

use amnesiac_mem::ServiceLevel;
use amnesiac_telemetry::Json;

use crate::pipeline::{EvalSuite, PolicyOutcome};
use crate::report::Table;

const POLICIES: [PolicyOutcome; 3] = [
    PolicyOutcome::Compiler,
    PolicyOutcome::Flc,
    PolicyOutcome::Llc,
];

/// Per benchmark and policy of [`POLICIES`], the % of swapped loads that
/// each [`ServiceLevel`] would have serviced.
fn rows(suite: &EvalSuite) -> Vec<(&'static str, [[f64; 3]; 3])> {
    suite
        .benches
        .iter()
        .map(|bench| {
            let shares = POLICIES.map(|policy| {
                let swapped = &bench.run(policy).stats.swapped_levels;
                ServiceLevel::ALL.map(|level| 100.0 * swapped.fraction(level))
            });
            (bench.name, shares)
        })
        .collect()
}

/// Renders the paper's Table 5: for each policy, where the swapped loads
/// (the `RCMP` instances that fired) would have been serviced.
pub fn render(suite: &EvalSuite) -> String {
    let mut t = Table::new(&[
        "bench", "Cmp L1%", "Cmp L2%", "Cmp Mem%", "FLC L1%", "FLC L2%", "FLC Mem%", "LLC L1%",
        "LLC L2%", "LLC Mem%",
    ]);
    for (name, shares) in rows(suite) {
        t.row(
            std::iter::once(name.to_string())
                .chain(shares.iter().flatten().map(|pct| format!("{pct:.2}")))
                .collect(),
        );
    }
    format!(
        "Table 5: Memory access profile of load instructions swapped for \
         recomputation (per policy)\n\n{}",
        t.render()
    )
}

/// The twin of [`render`].
pub fn json(suite: &EvalSuite) -> Json {
    let mut benches = Json::obj();
    for (name, shares) in rows(suite) {
        let mut per_policy = Json::obj();
        for (policy, levels) in POLICIES.iter().zip(shares) {
            let mut mix = Json::obj();
            for (level, pct) in ServiceLevel::ALL.iter().zip(levels) {
                mix.set(&format!("{level:?}").to_lowercase(), pct);
            }
            per_policy.set(policy.label(), mix);
        }
        benches.set(name, per_policy);
    }
    Json::obj()
        .with("artifact", "table5")
        .with("benches", benches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tiny_suite;

    #[test]
    fn flc_column_shows_no_l1_swaps() {
        let suite = tiny_suite("is");
        let bench = &suite.benches[0];
        let flc = &bench.run(PolicyOutcome::Flc).stats.swapped_levels;
        assert_eq!(
            flc.by_level[ServiceLevel::L1.index()],
            0,
            "FLC never swaps an L1-resident load"
        );
        assert!(render(&suite).contains("Cmp L1%"));
    }
}
