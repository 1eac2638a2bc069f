//! Runs the ablation studies (structure sizing, Hist capacity, probe cost,
//! technology trend). Pass `--test-scale` for a quick run; any other
//! argument is a usage error (exit 2).
use amnesiac_experiments::{ablations, DriverArgs, EvalSuite};

fn main() {
    let args = DriverArgs::from_env("ablations", false);
    let suite = EvalSuite::compute(args.scale);
    println!("{}", ablations::predictor_policy(&suite));
    println!("{}", ablations::store_elision_applied(&suite));
    println!("{}", ablations::offload(&suite));
    println!("{}", ablations::prefetch_interaction(&suite));
    println!("{}", ablations::structure_sizing(&suite));
    println!("{}", ablations::hist_sizing(&suite));
    println!("{}", ablations::probe_cost(&suite));
    println!("{}", ablations::technology_trend(&suite));
}
