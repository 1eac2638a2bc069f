//! Regenerates every table and figure of the paper in one run. Pass
//! `--test-scale` for a quick run and `--json <dir>` to also write the
//! machine-readable twins; any other argument is a usage error (exit 2).
use amnesiac_experiments::{
    ablations, export, fig3, fig6, fig7, fig8, table1, table2, table3, table4, table5, table6,
    DriverArgs, EvalSuite,
};
use amnesiac_telemetry::JsonSink;

fn main() {
    let DriverArgs { scale, json_dir } = DriverArgs::from_env("all", true);
    println!("{}", table1::render());
    println!("{}", table2::render());
    println!("{}", table3::render());
    let suite = EvalSuite::compute(scale);
    for gain in [fig3::FIG3, fig3::FIG4, fig3::FIG5] {
        println!("{}", fig3::render(&suite, gain));
    }
    println!("{}", table4::render(&suite));
    println!("{}", table5::render(&suite));
    println!("{}", fig6::render(&suite));
    println!("{}", fig7::render(&suite));
    println!("{}", fig8::render(&suite));
    println!("{}", ablations::store_elision(&suite));
    let table6_rows = table6::rows(&suite);
    println!("{}", table6::render(&table6_rows));
    if let Some(dir) = json_dir {
        let sink = JsonSink::new(&dir);
        let table6 = ("table6.json", table6::json(&table6_rows));
        for (name, json) in export::artifacts(&suite).into_iter().chain([table6]) {
            sink.write(name, &json).expect("results dir is writable");
        }
        println!("machine-readable results written to {}", dir.display());
    }
}
