//! Evaluates "the rest": the paper's 22 non-responding benchmarks
//! (5 compute-bound controls + the 17 Table 2 remainder kernels). Pass
//! `--test-scale` for a quick run and `--json <dir>` for the
//! machine-readable twin; any other argument is a usage error (exit 2).
use amnesiac_experiments::{fig3, DriverArgs, EvalSuite};
use amnesiac_telemetry::JsonSink;

fn main() {
    let DriverArgs { scale, json_dir } = DriverArgs::from_env("controls", true);
    let rest = EvalSuite::compute_rest(scale);
    println!("{}", fig3::render_controls(&rest));
    if let Some(dir) = json_dir {
        JsonSink::new(&dir)
            .write("controls.json", &fig3::controls_json(&rest))
            .expect("results dir is writable");
        println!("machine-readable results written to {}", dir.display());
    }
}
