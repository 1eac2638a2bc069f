//! Compares all five runtime configurations of the paper (Oracle,
//! C-Oracle, Compiler, FLC, LLC) on one benchmark.
//!
//! ```sh
//! cargo run --release --example policy_comparison [bench] [--paper-scale]
//! ```
//!
//! `bench` is one of the 11 focal names (`mcf sx cg is ca fs fe rt bp bfs
//! sr`); default `is`.

use amnesiac::experiments::pipeline::{BenchEval, PolicyOutcome};
use amnesiac::workloads::{build_focal, Scale, FOCAL_NAMES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args
        .iter()
        .skip(1)
        .find(|a| FOCAL_NAMES.contains(&a.as_str()))
        .map(String::as_str)
        .unwrap_or("is");
    let scale = if args.iter().any(|a| a == "--paper-scale") {
        Scale::Paper
    } else {
        Scale::Test
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
