//! Evaluates "the rest": the paper's 22 non-responding benchmarks
//! (5 compute-bound controls + the 17 Table 2 remainder kernels). Pass
//! `--json <dir>` for the machine-readable twin.
use amnesiac_experiments::{export, fig3, EvalSuite};
use amnesiac_telemetry::JsonSink;
use amnesiac_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Paper
    };
    let rest = EvalSuite::compute_rest(scale);
    println!("{}", fig3::render_controls(&rest));
    if let Some(dir) = export::json_dir_from_args(&args) {
        JsonSink::new(&dir)
            .write("controls.json", &fig3::controls_json(&rest))
            .expect("results dir is writable");
        println!("machine-readable results written to {}", dir.display());
    }
}
