//! Fig. 7: share of RSlices with non-recomputable leaf inputs, and the
//! accompanying `Hist` sizing analysis (§5.4).

use amnesiac_telemetry::Json;

use crate::pipeline::{share_pct as pct, EvalSuite};
use crate::report::Table;

/// One benchmark's row: embedded slices, how many of them have
/// non-recomputable inputs, and the `Hist` high-water mark over every
/// policy's run.
struct Row {
    name: &'static str,
    slices: usize,
    with_nc: usize,
    hist_high_water: usize,
}

fn rows(suite: &EvalSuite) -> Vec<Row> {
    suite
        .benches
        .iter()
        .map(|bench| {
            let slices = &bench.prob_binary.slices;
            Row {
                name: bench.name,
                slices: slices.len(),
                with_nc: slices.iter().filter(|s| s.has_nonrecomputable).count(),
                hist_high_water: bench
                    .runs
                    .iter()
                    .map(|(_, r)| r.stats.hist_high_water)
                    .max()
                    .unwrap_or(0),
            }
        })
        .collect()
}

/// Renders the paper's Fig. 7 as a table, plus observed `Hist` occupancy
/// against the ≤600-entry design point the paper derives.
pub fn render(suite: &EvalSuite) -> String {
    let rows = rows(suite);
    let mut t = Table::new(&["bench", "slices", "w/ nc %", "w/o nc %", "Hist high-water"]);
    for row in &rows {
        t.row(vec![
            row.name.to_string(),
            row.slices.to_string(),
            format!("{:.1}", pct(row.with_nc, row.slices)),
            format!("{:.1}", pct(row.slices - row.with_nc, row.slices)),
            row.hist_high_water.to_string(),
        ]);
    }
    format!(
        "Fig. 7: RSlices with non-recomputable (nc) leaf inputs\n\n{}\n\
         Worst-case Hist occupancy observed: {} entries \
         (paper sizes Hist at no more than 600 entries)\n",
        t.render(),
        worst_hist(&rows)
    )
}

fn worst_hist(rows: &[Row]) -> usize {
    rows.iter().map(|r| r.hist_high_water).max().unwrap_or(0)
}

/// The twin of [`render`].
pub fn json(suite: &EvalSuite) -> Json {
    let rows = rows(suite);
    let mut benches = Json::obj();
    for row in &rows {
        benches.set(
            row.name,
            Json::obj()
                .with("slices", row.slices)
                .with("with_nc_pct", pct(row.with_nc, row.slices))
                .with("hist_high_water", row.hist_high_water),
        );
    }
    Json::obj()
        .with("artifact", "fig7")
        .with("benches", benches)
        .with("worst_hist_high_water", worst_hist(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tiny_suite;

    #[test]
    fn shares_sum_to_100_for_annotated_binaries() {
        let text = render(&tiny_suite("is"));
        assert!(text.contains("w/ nc"));
        assert!(text.contains("Hist"));
    }
}
