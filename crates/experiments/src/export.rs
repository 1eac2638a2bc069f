//! The JSON twins of the paper artifacts that `all` and the CLI
//! `experiments` verb both write.
//!
//! Each artifact module renders its text and its twin from the same rows;
//! this module only lists the twins. The schema follows the telemetry
//! conventions: ordered objects, `*_pct`/`*_nj`/`*_ms` unit suffixes,
//! non-finite floats as `null`.

use amnesiac_telemetry::{Json, ToJson};

use crate::pipeline::EvalSuite;
use crate::{fig3, fig6, fig7, fig8, table1, table2, table4, table5};

/// The twins of the focal suite's artifacts, then of Tables 1–2, as
/// `(file name, document)` pairs in write order. `suite.json` is the raw
/// dump: both compile reports and every policy's run stats per benchmark.
pub fn artifacts(suite: &EvalSuite) -> Vec<(&'static str, Json)> {
    vec![
        ("fig3.json", fig3::json(suite, fig3::FIG3)),
        ("fig4.json", fig3::json(suite, fig3::FIG4)),
        ("fig5.json", fig3::json(suite, fig3::FIG5)),
        ("table4.json", table4::json(suite)),
        ("table5.json", table5::json(suite)),
        ("fig6.json", fig6::json(suite)),
        ("fig7.json", fig7::json(suite)),
        ("fig8.json", fig8::json(suite)),
        ("suite.json", suite.to_json()),
        ("table1.json", table1::json()),
        ("table2.json", table2::json()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tiny_suite;
    use crate::{table6, PolicyOutcome};
    use amnesiac_telemetry::parse;

    #[test]
    fn every_artifact_round_trips_through_the_parser() {
        let suite = tiny_suite("is");
        let rows = [("is", Some(2.5)), ("mcf", None)];
        let extra = [table6::json(&rows), fig3::controls_json(&suite)];
        for json in artifacts(&suite).into_iter().map(|(_, j)| j).chain(extra) {
            let reparsed = parse(&json.pretty()).expect("emitted JSON parses");
            assert_eq!(reparsed, json, "emit → parse is the identity");
            let compact = parse(&json.compact()).expect("compact JSON parses");
            assert_eq!(compact, json);
        }
    }

    #[test]
    fn the_artifact_list_is_eleven_files_in_write_order() {
        let names: Vec<&str> = artifacts(&tiny_suite("is"))
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            names,
            [
                "fig3.json",
                "fig4.json",
                "fig5.json",
                "table4.json",
                "table5.json",
                "fig6.json",
                "fig7.json",
                "fig8.json",
                "suite.json",
                "table1.json",
                "table2.json"
            ]
        );
    }

    #[test]
    fn suite_dump_carries_every_policy() {
        let json = tiny_suite("is").to_json();
        let bench = json.get("benches").and_then(Json::as_arr).unwrap()[0].clone();
        assert_eq!(bench.get("name").and_then(Json::as_str), Some("is"));
        for &p in &PolicyOutcome::ALL {
            assert!(
                bench
                    .get_path(&format!(
                        "policies.{}.result.run.account.total_nj",
                        p.label()
                    ))
                    .is_some(),
                "{} missing from suite dump",
                p.label()
            );
        }
    }
}
