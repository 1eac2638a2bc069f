//! Fig. 8: value locality of the loads swapped for recomputation by the
//! Compiler policy, and the memoization-orthogonality argument of §5.6.

use amnesiac_energy::EnergyModel;
use amnesiac_telemetry::Json;

use crate::pipeline::EvalSuite;
use crate::report::{bucketize, histogram, Table};

/// A swapped load site: `(pc, value locality %, dynamic count)`.
type Site = (usize, f64, u64);

/// Per benchmark, each swapped load site.
fn rows(suite: &EvalSuite) -> Vec<(&'static str, Vec<Site>)> {
    suite
        .benches
        .iter()
        .map(|bench| {
            let selected = bench.prob_report.selected_load_pcs();
            let sites = bench
                .profile
                .loads
                .values()
                .filter(|site| selected.contains(&site.pc))
                .map(|site| (site.pc, 100.0 * site.value_locality(), site.count))
                .collect();
            (bench.name, sites)
        })
        .collect()
}

/// Renders per-benchmark locality histograms over the swapped load sites
/// (weighted by dynamic instance count, as the paper plots "% loads").
pub fn render(suite: &EvalSuite) -> String {
    let mut out = String::new();
    for (name, sites) in rows(suite) {
        let values: Vec<(f64, u64)> = sites
            .iter()
            .map(|&(_, locality, count)| (locality, count))
            .collect();
        let bins = bucketize(&values, 10.0, 100.0);
        out.push_str(&histogram(
            &format!("Fig. 8 ({name}): value locality of swapped loads (% of dynamic loads)"),
            &bins,
        ));
        out.push('\n');
    }
    out.push_str(
        "Loads with high locality would also be served by memoization / load-value\n\
         prediction; low-locality benchmarks show recomputation is orthogonal (§5.6).\n\n",
    );
    out.push_str(&memoization_comparison(suite));
    out
}

/// The twin of [`render`]'s histograms: the swapped sites per benchmark.
pub fn json(suite: &EvalSuite) -> Json {
    let mut benches = Json::obj();
    for (name, sites) in rows(suite) {
        let sites = sites
            .into_iter()
            .map(|(pc, locality, count)| {
                Json::obj()
                    .with("pc", pc)
                    .with("locality_pct", locality)
                    .with("dyn_count", count)
            })
            .collect();
        benches.set(name, Json::Arr(sites));
    }
    Json::obj()
        .with("artifact", "fig8")
        .with("benches", benches)
}

/// §5.6's duality, made quantitative: estimated per-swapped-load energy
/// under classic execution, under memoization (a value table modelled at
/// L1-D lookup cost, hitting at the measured value-locality rate), and
/// under recomputation (the slice's fire cost).
pub fn memoization_comparison(suite: &EvalSuite) -> String {
    let energy = EnergyModel::paper();
    let lookup_nj = energy.hist_read_nj; // a table lookup ≈ L1-D
    let mut t = Table::new(&[
        "bench",
        "locality %",
        "E/load classic",
        "E/load memoized",
        "E/load recomputed",
        "winner",
    ]);
    for bench in &suite.benches {
        let selected = bench.prob_report.selected_load_pcs();
        let mut weight = 0u64;
        let mut locality = 0.0f64;
        let mut classic_nj = 0.0f64;
        for site in bench.profile.loads.values() {
            if !selected.contains(&site.pc) {
                continue;
            }
            let e = energy.probabilistic_load_energy(site.probabilities());
            locality += site.value_locality() * site.count as f64;
            classic_nj += e * site.count as f64;
            weight += site.count;
        }
        if weight == 0 {
            continue;
        }
        let locality = locality / weight as f64;
        let classic_nj = classic_nj / weight as f64;
        let memo_nj = locality * lookup_nj + (1.0 - locality) * (classic_nj + lookup_nj);
        let recompute_nj = bench
            .prob_binary
            .slices
            .iter()
            .map(|m| m.est_recompute_nj)
            .sum::<f64>()
            / bench.prob_binary.slices.len().max(1) as f64;
        let winner = if recompute_nj < memo_nj {
            "recompute"
        } else {
            "memoize"
        };
        t.row(vec![
            bench.name.to_string(),
            format!("{:.1}", 100.0 * locality),
            format!("{classic_nj:.2}"),
            format!("{memo_nj:.2}"),
            format!("{recompute_nj:.2}"),
            winner.to_string(),
        ]);
    }
    format!(
        "§5.6 quantified: memoization (value table at L1-D cost, hit rate =          measured value locality) vs recomputation, per swapped load

{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tiny_suite;

    #[test]
    fn srad_locality_lands_in_top_bins() {
        let text = render(&tiny_suite("sr"));
        assert!(text.contains("Fig. 8 (sr)"));
    }
}
