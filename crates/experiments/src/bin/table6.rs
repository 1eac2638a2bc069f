//! Regenerates the paper's Table 6 (break-even R sweep). Pass
//! `--json <dir>` for the machine-readable twin.
use amnesiac_experiments::export;
use amnesiac_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Paper
    };
    let rows = amnesiac_experiments::table6::compute(scale);
    println!("{}", amnesiac_experiments::table6::render_rows(&rows));
    if let Some(dir) = export::json_dir_from_args(&args) {
        export::write_json(&dir.join("table6.json"), &export::table6_rows_json(&rows))
            .expect("results dir is writable");
        println!("machine-readable results written to {}", dir.display());
    }
}
