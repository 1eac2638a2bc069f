//! Table 2: the benchmark deployment — suites, names, and inputs.

use amnesiac_telemetry::Json;
use amnesiac_workloads::{all_workloads, Scale, Suite};

use crate::report::Table;

/// One deployed kernel: name, suite, static instructions and data words
/// at paper scale.
fn rows() -> Vec<(&'static str, &'static str, usize, usize)> {
    all_workloads(Scale::Paper)
        .into_iter()
        .map(|w| {
            let suite = match w.suite {
                Suite::Spec => "SPEC",
                Suite::Nas => "NAS",
                Suite::Parsec => "PARSEC",
                Suite::Rodinia => "Rodinia",
                Suite::Control => "control",
            };
            (w.name, suite, w.program.code_len, w.program.data.len())
        })
        .collect()
}

/// Renders the paper's Table 2 analogue: the full 33-kernel deployment
/// with this reproduction's input sizes (static instructions and data
/// words at paper scale).
pub fn render() -> String {
    let mut t = Table::new(&["bench", "suite", "static insts", "data words"]);
    for (name, suite, static_insts, data_words) in rows() {
        t.row(vec![
            name.to_string(),
            suite.to_string(),
            static_insts.to_string(),
            data_words.to_string(),
        ]);
    }
    format!(
        "Table 2: Benchmarks deployed — the paper's 33-kernel suite as \
         implemented here (paper-scale inputs)\n\n{}",
        t.render()
    )
}

/// The twin of [`render`].
pub fn json() -> Json {
    let benches = rows()
        .into_iter()
        .map(|(name, suite, static_insts, data_words)| {
            Json::obj()
                .with("name", name)
                .with("suite", suite)
                .with("static_insts", static_insts)
                .with("data_words", data_words)
        })
        .collect();
    Json::obj()
        .with("artifact", "table2")
        .with("benches", Json::Arr(benches))
}

#[cfg(test)]
mod tests {
    #[test]
    fn lists_all_33() {
        let text = super::render();
        assert_eq!(
            text.lines().filter(|l| !l.trim().is_empty()).count() - 3,
            33
        );
        assert!(text.contains("mcf"));
        assert!(text.contains("particlefilter"));
    }
}
