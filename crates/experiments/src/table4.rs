//! Table 4: dynamic instruction mix and energy breakdown under amnesic
//! execution (Compiler policy — the maximum possible number of
//! recomputations, as in the paper).

use amnesiac_energy::EnergyBreakdown;
use amnesiac_telemetry::{Json, ToJson};

use crate::pipeline::{pct_gain, EvalSuite, PolicyOutcome};
use crate::report::Table;

/// One benchmark's row: % instruction increase and % load decrease of the
/// Compiler run over classic, then both energy breakdowns.
struct Row {
    name: &'static str,
    inst_increase_pct: f64,
    load_decrease_pct: f64,
    classic: EnergyBreakdown,
    amnesic: EnergyBreakdown,
}

fn rows(suite: &EvalSuite) -> Vec<Row> {
    suite
        .benches
        .iter()
        .map(|bench| {
            let amnesic = &bench.run(PolicyOutcome::Compiler).run;
            Row {
                name: bench.name,
                inst_increase_pct: 100.0
                    * (amnesic.instructions as f64 / bench.classic.instructions.max(1) as f64
                        - 1.0),
                load_decrease_pct: pct_gain(amnesic.loads as f64, bench.classic.loads as f64),
                classic: bench.classic.account.breakdown(),
                amnesic: amnesic.account.breakdown(),
            }
        })
        .collect()
}

/// Renders the paper's Table 4.
pub fn render(suite: &EvalSuite) -> String {
    let mut t = Table::new(&[
        "bench",
        "Δinst %",
        "Δload %",
        "cl Load%",
        "cl Store%",
        "cl Nonmem%",
        "am Load%",
        "am Store%",
        "am Nonmem%",
        "am Hist%",
    ]);
    for Row {
        name,
        inst_increase_pct,
        load_decrease_pct,
        classic: cl,
        amnesic: am,
    } in rows(suite)
    {
        t.row(vec![
            name.to_string(),
            format!("{inst_increase_pct:+.2}"),
            format!("{load_decrease_pct:+.2}"),
            format!("{:.2}", cl.load_pct),
            format!("{:.2}", cl.store_pct),
            format!("{:.2}", cl.non_mem_pct),
            format!("{:.2}", am.load_pct),
            format!("{:.2}", am.store_pct),
            format!("{:.2}", am.non_mem_pct),
            format!("{:.3}", am.hist_read_pct),
        ]);
    }
    format!(
        "Table 4: Dynamic instruction mix and energy breakdown under amnesic \
         execution (Compiler policy)\n\n{}",
        t.render()
    )
}

/// The twin of [`render`].
pub fn json(suite: &EvalSuite) -> Json {
    let mut benches = Json::obj();
    for row in rows(suite) {
        benches.set(
            row.name,
            Json::obj()
                .with("inst_increase_pct", row.inst_increase_pct)
                .with("load_decrease_pct", row.load_decrease_pct)
                .with("classic_breakdown", row.classic.to_json())
                .with("amnesic_breakdown", row.amnesic.to_json()),
        );
    }
    Json::obj()
        .with("artifact", "table4")
        .with("benches", benches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tiny_suite;

    #[test]
    fn breakdown_row_renders() {
        let text = render(&tiny_suite("is"));
        assert!(text.contains("Δinst"));
        assert!(text.contains("is"));
    }
}
