//! Compares all five runtime configurations of the paper (Oracle,
//! C-Oracle, Compiler, FLC, LLC) on one benchmark.
//!
//! ```sh
//! cargo run --release --example policy_comparison [bench] [--paper-scale]
//! ```
//!
//! `bench` is one of the 11 focal names (`mcf sx cg is ca fs fe rt bp bfs
//! sr`); default `is`. Any other argument prints the usage and exits 2.

use amnesiac::experiments::pipeline::{BenchEval, PolicyOutcome};
use amnesiac::workloads::{build_focal, Scale, FOCAL_NAMES};

/// The benchmark and scale the arguments name, or `None` on anything but
/// at most one focal name and at most one `--paper-scale`.
fn parse_args() -> Option<(&'static str, Scale)> {
    let (mut name, mut scale) = (None, None);
    for arg in std::env::args().skip(1) {
        if arg == "--paper-scale" && scale.is_none() {
            scale = Some(Scale::Paper);
        } else if let Some(&focal) = FOCAL_NAMES.iter().find(|&&n| n == arg) {
            if name.replace(focal).is_some() {
                return None;
            }
        } else {
            return None;
        }
    }
    Some((name.unwrap_or("is"), scale.unwrap_or(Scale::Test)))
}

fn main() {
    let Some((name, scale)) = parse_args() else {
        eprintln!(
            "usage: policy_comparison [{}] [--paper-scale]",
            FOCAL_NAMES.join("|")
        );
        std::process::exit(2);
    };

    let eval = BenchEval::compute(build_focal(name, scale));
    println!(
        "benchmark `{name}`: {} dynamic instructions classic, {} slices embedded\n",
        eval.classic.instructions,
        eval.prob_binary.slices.len()
    );
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "policy", "EDP gain", "E gain", "T gain", "fired", "forced"
    );
    for outcome in PolicyOutcome::ALL {
        let run = eval.run(outcome);
        let forced: u64 = run.stats.per_slice.iter().map(|s| s.forced_loads).sum();
        println!(
            "{:<10} {:>9.2}% {:>9.2}% {:>9.2}% {:>12} {:>10}",
            outcome.label(),
            eval.edp_gain(outcome),
            eval.energy_gain(outcome),
            eval.time_gain(outcome),
            run.stats.fired_total(),
            forced
        );
    }
}
