//! Figs. 3–5: EDP, energy, and execution-time gains under amnesic
//! execution, per benchmark and runtime policy; and the same EDP table
//! for the 22 non-focal kernels (`controls.json`).

use amnesiac_telemetry::Json;

use crate::pipeline::{BenchEval, EvalSuite, PolicyOutcome};
use crate::report::{bar_chart, Table};

/// One gain figure: its title, its twin's artifact and metric names, and
/// the gain it plots.
#[derive(Debug, Clone, Copy)]
pub struct Gain {
    title: &'static str,
    artifact: &'static str,
    metric: &'static str,
    of: fn(&BenchEval, PolicyOutcome) -> f64,
}

/// Fig. 3: % EDP gain.
pub const FIG3: Gain = Gain {
    title: "Fig. 3: EDP gain (%) under amnesic execution",
    artifact: "fig3",
    metric: "edp_gain_pct",
    of: BenchEval::edp_gain,
};

/// Fig. 4: % energy gain.
pub const FIG4: Gain = Gain {
    title: "Fig. 4: Energy gain (%) under amnesic execution",
    artifact: "fig4",
    metric: "energy_gain_pct",
    of: BenchEval::energy_gain,
};

/// Fig. 5: % reduction in execution time.
pub const FIG5: Gain = Gain {
    title: "Fig. 5: Performance gain (%) under amnesic execution",
    artifact: "fig5",
    metric: "time_gain_pct",
    of: BenchEval::time_gain,
};

/// Fig. 3 over the 22 non-focal kernels.
const CONTROLS: Gain = Gain {
    artifact: "controls",
    ..FIG3
};

/// Per benchmark, the gain under each policy of [`PolicyOutcome::ALL`].
fn rows(suite: &EvalSuite, gain: Gain) -> Vec<(&'static str, [f64; 5])> {
    suite
        .benches
        .iter()
        .map(|bench| (bench.name, PolicyOutcome::ALL.map(|p| (gain.of)(bench, p))))
        .collect()
}

/// Renders one gain figure: a bar chart, then the same gains as a table.
pub fn render(suite: &EvalSuite, gain: Gain) -> String {
    let rows = rows(suite, gain);
    let max_abs = rows
        .iter()
        .flat_map(|(_, gains)| gains)
        .fold(1.0f64, |max, g| max.max(g.abs()));
    let groups: Vec<(String, Vec<(String, f64)>)> = rows
        .iter()
        .map(|(name, gains)| {
            let series = PolicyOutcome::ALL
                .iter()
                .zip(gains)
                .map(|(p, &g)| (p.label().to_string(), g))
                .collect();
            (name.to_string(), series)
        })
        .collect();
    let chart = bar_chart(gain.title, &groups, max_abs);

    let mut table = Table::new(&["bench", "Oracle", "C-Oracle", "Compiler", "FLC", "LLC"]);
    for (name, gains) in &rows {
        table.row(
            std::iter::once(name.to_string())
                .chain(gains.iter().map(|g| format!("{g:+.2}")))
                .collect(),
        );
    }
    format!("{chart}\n{}", table.render())
}

/// The twin of one gain figure: the gain per benchmark and policy.
pub fn json(suite: &EvalSuite, gain: Gain) -> Json {
    let mut benches = Json::obj();
    for (name, gains) in rows(suite, gain) {
        let mut per_policy = Json::obj();
        for (p, g) in PolicyOutcome::ALL.iter().zip(gains) {
            per_policy.set(p.label(), g);
        }
        benches.set(name, per_policy);
    }
    Json::obj()
        .with("artifact", gain.artifact)
        .with("metric", gain.metric)
        .with("benches", benches)
}

/// Fig. 3 over the non-focal kernels, with the responder count the paper
/// quotes.
pub fn render_controls(rest: &EvalSuite) -> String {
    format!(
        "{}\n{} of {} non-focal benchmarks clear 5% EDP gain under their best \
         policy (paper: \"only 4 provided more than 5% gain\")",
        render(rest, CONTROLS),
        rest.responders(5.0),
        rest.benches.len()
    )
}

/// The twin of [`render_controls`] (`controls.json`).
pub fn controls_json(rest: &EvalSuite) -> Json {
    json(rest, CONTROLS)
        .with("responders_over_5pct", rest.responders(5.0))
        .with("n_benches", rest.benches.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tiny_suite;

    #[test]
    fn renders_all_policies_for_a_benchmark() {
        let suite = tiny_suite("is");
        for gain in [FIG3, FIG4, FIG5] {
            let text = render(&suite, gain);
            assert!(text.contains("is"));
            assert!(text.contains("C-Oracle"));
            assert!(text.contains("LLC"));
        }
    }

    #[test]
    fn twin_matches_the_text_table() {
        let suite = tiny_suite("is");
        let json = json(&suite, FIG3);
        let bench = &suite.benches[0];
        for &p in &PolicyOutcome::ALL {
            let path = format!("benches.is.{}", p.label());
            let from_json = json.get_path(&path).and_then(Json::as_f64).unwrap();
            assert_eq!(from_json, bench.edp_gain(p));
        }
    }
}
