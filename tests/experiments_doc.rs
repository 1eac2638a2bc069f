//! EXPERIMENTS.md quotes the paper-scale EDP gains of Fig. 3. The
//! benchmark's oracle, `perfbench/expected.json`, holds the same gains
//! exactly, and CI checks the program against it. This test checks the
//! document against the oracle, so a stale cell or average fails here
//! instead of drifting unnoticed.

use amnesiac::workloads::FOCAL_NAMES;
use amnesiac_telemetry::Json;

const POLICIES: [&str; 5] = ["Oracle", "C-Oracle", "Compiler", "FLC", "LLC"];

fn read(relative: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `paper_suite.<kernel>.<policy>.edp_gain_pct` from the oracle.
fn edp_gain(oracle: &Json, kernel: &str, policy: &str) -> f64 {
    oracle
        .get("paper_suite")
        .and_then(|suite| suite.get(kernel))
        .and_then(|row| row.get(policy))
        .and_then(|cell| cell.get("edp_gain_pct"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("expected.json has no edp_gain_pct for {kernel} {policy}"))
}

/// The text of the `## Fig. 3` section, up to the next `## ` heading.
fn fig3_section(doc: &str) -> &str {
    let start = doc
        .find("## Fig. 3")
        .expect("EXPERIMENTS.md has a Fig. 3 section");
    let section = &doc[start..];
    let end = section.find("\n## ").map_or(section.len(), |i| i + 1);
    &section[..end]
}

fn cells(row: &str) -> Vec<&str> {
    let row = row.trim().trim_start_matches('|').trim_end_matches('|');
    row.split('|').map(str::trim).collect()
}

/// A table cell as the number it prints: `**−2.5**` and `+71.7` read as
/// `-2.5` and `71.7`.
fn normalise(cell: &str) -> String {
    cell.trim_matches('*')
        .replace('−', "-")
        .trim_start_matches('+')
        .to_string()
}

#[test]
fn fig3_table_and_averages_match_the_benchmark_oracle() {
    let doc = read("EXPERIMENTS.md");
    let oracle = amnesiac_telemetry::parse(&read("perfbench/expected.json"))
        .expect("perfbench/expected.json parses");
    let section = fig3_section(&doc);
    let mut rows = section.lines().filter(|line| line.starts_with('|'));
    let header = cells(rows.next().expect("Fig. 3 table header"));
    assert_eq!(header[1..=POLICIES.len()], POLICIES, "Fig. 3 columns");

    let mut stale = Vec::new();
    let mut seen = Vec::new();
    for row in rows {
        let row = cells(row);
        if !FOCAL_NAMES.contains(&row[0]) {
            continue;
        }
        seen.push(row[0]);
        for (policy, cell) in POLICIES.iter().zip(&row[1..]) {
            let want = format!("{:.1}", edp_gain(&oracle, row[0], policy));
            if normalise(cell) != want {
                stale.push(format!("{} {policy}: doc {cell}, oracle {want}", row[0]));
            }
        }
    }
    assert_eq!(seen, FOCAL_NAMES, "one row per focal kernel");
    assert!(
        stale.is_empty(),
        "stale Fig. 3 cells:\n{}",
        stale.join("\n")
    );

    let mean = |gain: &dyn Fn(&str) -> f64| {
        FOCAL_NAMES.iter().map(|k| gain(k)).sum::<f64>() / FOCAL_NAMES.len() as f64
    };
    let best = mean(&|k| {
        POLICIES
            .iter()
            .map(|p| edp_gain(&oracle, k, p))
            .fold(f64::NEG_INFINITY, f64::max)
    });
    let mut quotes = vec![
        format!("best policy per benchmark: {best:+.1}%"),
        format!("prints {best:+.2}%"),
    ];
    for policy in ["Compiler", "FLC", "LLC"] {
        let average = mean(&|k| edp_gain(&oracle, k, policy));
        quotes.push(format!("{policy} {average:+.2}%"));
    }
    let prose = section.split_whitespace().collect::<Vec<_>>().join(" ");
    for quote in quotes {
        assert!(prose.contains(&quote), "Fig. 3 should quote `{quote}`");
    }
}
