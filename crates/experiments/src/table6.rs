//! Table 6: the break-even point — how much the relative cost of
//! non-memory instructions, `R = EPI_non-mem / EPI_ld`, must grow before
//! amnesic execution (C-Oracle) stops paying (§5.5).

use amnesiac_compiler::{compile, CompileOptions};
use amnesiac_core::{AmnesicConfig, AmnesicCore, Policy};
use amnesiac_energy::EnergyModel;
use amnesiac_profile::ProgramProfile;
use amnesiac_sim::{ClassicCore, CoreConfig};
use amnesiac_telemetry::Json;

use crate::pipeline::{fan_out, pct_gain, EvalSuite};
use crate::report::Table;

/// Upper limit of the sweep; benchmarks still winning here report `> MAX`.
pub const MAX_FACTOR: f64 = 256.0;

/// C-Oracle EDP gain (%) at one `R` scaling factor. The profile is reused
/// across probes (cache behaviour does not depend on EPIs); the compile
/// and both runs are redone under the scaled model, since dearer compute
/// changes both the selection and the baseline.
fn gain_at(program: &amnesiac_isa::Program, profile: &ProgramProfile, factor: f64) -> f64 {
    let energy = EnergyModel::paper().with_r_factor(factor);
    let config = CoreConfig::with_energy(energy.clone());
    let classic = ClassicCore::new(config.clone())
        .run(program)
        .expect("classic run succeeds");
    let options = CompileOptions {
        energy,
        ..CompileOptions::default()
    };
    let (binary, _) = compile(program, profile, &options).expect("compile succeeds");
    let amnesic_config = AmnesicConfig {
        core: config,
        ..AmnesicConfig::paper(Policy::Oracle)
    };
    let amnesic = AmnesicCore::new(amnesic_config)
        .run(&binary)
        .expect("amnesic run succeeds");
    pct_gain(amnesic.edp(), classic.edp())
}

/// Finds the break-even `R` factor (relative to `R_default`) by bisection.
/// Returns `None` when the benchmark still gains at [`MAX_FACTOR`].
pub fn break_even(program: &amnesiac_isa::Program, profile: &ProgramProfile) -> Option<f64> {
    const EPS: f64 = 0.05; // % EDP gain considered zero
    if gain_at(program, profile, 1.0) <= EPS {
        return Some(1.0);
    }
    if gain_at(program, profile, MAX_FACTOR) > EPS {
        return None;
    }
    let (mut lo, mut hi) = (1.0f64, MAX_FACTOR);
    for _ in 0..10 {
        let mid = (lo * hi).sqrt(); // geometric bisection over a ratio
        if gain_at(program, profile, mid) > EPS {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some((lo * hi).sqrt())
}

/// Computes the break-even factor of every bench of `suite` (the focal
/// suite; in parallel), from the program and profile it already holds:
/// `(name, Some(factor))`, or `(name, None)` when the benchmark still gains
/// at [`MAX_FACTOR`]. [`render`] and [`json`] read these rows.
pub fn rows(suite: &EvalSuite) -> Vec<(&'static str, Option<f64>)> {
    fan_out(suite.benches.iter().collect(), |bench| {
        (bench.name, break_even(&bench.program, &bench.profile))
    })
}

/// Renders the paper's Table 6 from [`rows`].
pub fn render(rows: &[(&str, Option<f64>)]) -> String {
    let mut t = Table::new(&["bench", "R_breakeven (normalized to R_default)"]);
    for (name, factor) in rows {
        t.row(vec![
            name.to_string(),
            match factor {
                Some(f) => format!("{f:.2}"),
                None => format!("> {MAX_FACTOR:.0}"),
            },
        ]);
    }
    format!(
        "Table 6: Break-even point for C-Oracle — the factor by which \
         R = EPI_non-mem/EPI_ld (default {:.4}) must grow to erase the EDP \
         gain\n\n{}",
        amnesiac_energy::R_DEFAULT,
        t.render()
    )
}

/// The twin of [`render`]: `null` means the benchmark still gains at
/// [`MAX_FACTOR`].
pub fn json(rows: &[(&str, Option<f64>)]) -> Json {
    let mut benches = Json::obj();
    for (name, factor) in rows {
        benches.set(name, factor.map_or(Json::Null, Json::from));
    }
    Json::obj()
        .with("artifact", "table6")
        .with("r_default", amnesiac_energy::R_DEFAULT)
        .with("max_factor", MAX_FACTOR)
        .with("benches", benches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_profile::profile_program;
    use amnesiac_workloads::{build_focal, Scale};

    #[test]
    fn dear_compute_turns_amnesic_off() {
        // At test scale the caches hold everything, so even the baseline
        // gain may be slightly negative. What must hold: with compute 64×
        // dearer, the compiler stops selecting slices and amnesic execution
        // degenerates to classic (gain ≈ 0).
        let w = build_focal("is", Scale::Test);
        let (profile, _) = profile_program(&w.program, &CoreConfig::paper()).unwrap();
        let g1 = gain_at(&w.program, &profile, 1.0);
        assert!(g1.is_finite());
        let g64 = gain_at(&w.program, &profile, 64.0);
        assert!(
            g64.abs() < 0.5,
            "at 64× compute cost nothing should be worth recomputing ({g64})"
        );
    }
}
