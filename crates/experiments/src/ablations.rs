//! Ablation studies beyond the paper's headline results, covering the
//! design points DESIGN.md calls out: structure sizing (§5.4), probe cost
//! (the FLC/LLC delimiter, §5.1), dead-store elision (§2), and the
//! technology trend (Table 1 → Table 6 continuation).

use amnesiac_compiler::redundant_stores;
use amnesiac_core::{AmnesicConfig, AmnesicCore, Policy};
use amnesiac_energy::EnergyModel;
use amnesiac_sim::CoreConfig;

use crate::pipeline::{pct_gain, BenchEval, EvalSuite, PolicyOutcome};
use crate::report::Table;

/// Re-runs one benchmark's Compiler-policy run with custom structure
/// capacities; returns `(EDP gain %, forced loads, fired)`.
fn run_with_structures(
    bench: &BenchEval,
    sfile: usize,
    hist: usize,
    ibuff: usize,
) -> (f64, u64, u64) {
    let config = AmnesicConfig {
        sfile_capacity: sfile,
        hist_capacity: hist,
        ibuff_capacity: ibuff,
        ..AmnesicConfig::paper(Policy::Compiler)
    };
    let result = AmnesicCore::new(config)
        .run(&bench.prob_binary)
        .expect("amnesic run succeeds");
    assert_eq!(
        result.run.final_memory, bench.classic.final_memory,
        "{} diverged under reduced structures",
        bench.name
    );
    let gain = pct_gain(result.edp(), bench.classic.edp());
    let forced = result.stats.per_slice.iter().map(|s| s.forced_loads).sum();
    (gain, forced, result.stats.fired_total())
}

/// §5.4 ablation: how small can `SFile`/`IBuff` get? The paper argues
/// "less than 50 entries … can cover most of the RSlices".
pub fn structure_sizing(suite: &EvalSuite) -> String {
    let sizes = [2usize, 4, 8, 16, 50, 256];
    let mut t = Table::new(&["bench", "2", "4", "8", "16", "50", "256"]);
    for bench in &suite.benches {
        let mut cells = vec![bench.name.to_string()];
        for &size in &sizes {
            let (gain, _, _) = run_with_structures(bench, size, 600, size);
            cells.push(format!("{gain:+.1}"));
        }
        t.row(cells);
    }
    format!(
        "Ablation: EDP gain (%) under Compiler with SFile = IBuff = N entries \
         (paper §5.4: <50 covers most RSlices)\n\n{}",
        t.render()
    )
}

/// `Hist` capacity sweep: slices with non-recomputable inputs fall back to
/// the load when their `REC` fails (§3.5); correctness must hold at every
/// size.
pub fn hist_sizing(suite: &EvalSuite) -> String {
    let sizes = [0usize, 2, 8, 64, 600];
    let mut t = Table::new(&["bench", "0", "2", "8", "64", "600", "forced@0"]);
    for bench in &suite.benches {
        let mut cells = vec![bench.name.to_string()];
        let mut forced_at_zero = 0;
        for &size in &sizes {
            let (gain, forced, _) = run_with_structures(bench, 256, size, 256);
            if size == 0 {
                forced_at_zero = forced;
            }
            cells.push(format!("{gain:+.1}"));
        }
        cells.push(forced_at_zero.to_string());
        t.row(cells);
    }
    format!(
        "Ablation: EDP gain (%) under Compiler vs Hist capacity \
         (REC failures force the load, never a wrong value)\n\n{}",
        t.render()
    )
}

/// Probe-cost ablation: the paper blames LLC's shortfall on the L2 tag
/// probe. Scaling probe energy shows the FLC/LLC gap opening.
pub fn probe_cost(suite: &EvalSuite) -> String {
    let factors = [0.0f64, 1.0, 2.0, 4.0];
    let mut t = Table::new(&[
        "bench", "FLC x0", "LLC x0", "FLC x1", "LLC x1", "FLC x2", "LLC x2", "FLC x4", "LLC x4",
    ]);
    for bench in &suite.benches {
        let mut cells = vec![bench.name.to_string()];
        for &factor in &factors {
            for policy in [Policy::Flc, Policy::Llc] {
                let mut energy = EnergyModel::paper();
                energy.probe_nj = [energy.probe_nj[0] * factor, energy.probe_nj[1] * factor];
                let config = AmnesicConfig {
                    core: CoreConfig::with_energy(energy),
                    ..AmnesicConfig::paper(policy)
                };
                let result = AmnesicCore::new(config)
                    .run(&bench.prob_binary)
                    .expect("run succeeds");
                let gain = pct_gain(result.edp(), bench.classic.edp());
                cells.push(format!("{gain:+.1}"));
            }
        }
        t.row(cells);
    }
    format!(
        "Ablation: EDP gain (%) of FLC/LLC as tag-probe energy scales \
         (the paper's stated LLC delimiter)\n\n{}",
        t.render()
    )
}

/// The §3.3.1 future-work policy: history-based miss prediction, compared
/// against the paper's probing policies. The predictor pays no probe
/// energy; its cost is mispredictions.
pub fn predictor_policy(suite: &EvalSuite) -> String {
    let mut t = Table::new(&["bench", "FLC EDP%", "LLC EDP%", "Pred EDP%", "mispredict %"]);
    for bench in &suite.benches {
        let run_policy = |policy| {
            AmnesicCore::new(AmnesicConfig::paper(policy))
                .run(&bench.prob_binary)
                .expect("run succeeds")
        };
        let flc = run_policy(Policy::Flc);
        let llc = run_policy(Policy::Llc);
        let pred = run_policy(Policy::Predictor);
        assert_eq!(
            pred.run.final_memory, bench.classic.final_memory,
            "{}: Predictor diverged",
            bench.name
        );
        let gain = |r: &amnesiac_core::AmnesicRunResult| pct_gain(r.edp(), bench.classic.edp());
        let mispredict = if pred.stats.predictions == 0 {
            0.0
        } else {
            100.0 * pred.stats.mispredictions as f64 / pred.stats.predictions as f64
        };
        t.row(vec![
            bench.name.to_string(),
            format!("{:+.1}", gain(&flc)),
            format!("{:+.1}", gain(&llc)),
            format!("{:+.1}", gain(&pred)),
            format!("{mispredict:.2}"),
        ]);
    }
    format!(
        "Extension (§3.3.1 future work): per-site 2-bit miss predictor vs the          probing policies — prediction removes the probe overhead entirely

{}",
        t.render()
    )
}

/// §2 applied: measure the payoff of *actually removing* the redundant
/// stores, under the always-fire envelope (no fallbacks, no memory
/// cross-check).
pub fn store_elision_applied(suite: &EvalSuite) -> String {
    use std::collections::BTreeSet;
    let mut t = Table::new(&[
        "bench",
        "stores removed (dyn)",
        "EDP% annotated",
        "EDP% elided",
    ]);
    for bench in &suite.benches {
        let selected = bench.prob_report.selected_load_pcs();
        let redundant = redundant_stores(&bench.profile, &selected);
        if redundant.is_empty() {
            continue;
        }
        let remove: BTreeSet<usize> = redundant
            .iter()
            .map(|&pc| bench.prob_report.pc_map[pc])
            .collect();
        let elided = amnesiac_compiler::remove_stores(&bench.prob_binary, &remove)
            .expect("elision succeeds");
        let run = |binary: &amnesiac_isa::Program| {
            let config = AmnesicConfig {
                check_values: false,
                ..AmnesicConfig::paper(Policy::Compiler)
            };
            AmnesicCore::new(config).run(binary).expect("run succeeds")
        };
        let annotated_run = run(&bench.prob_binary);
        let elided_run = run(&elided);
        let forced: u64 = elided_run
            .stats
            .per_slice
            .iter()
            .map(|s| s.forced_loads)
            .sum();
        assert_eq!(forced, 0, "{}: envelope violated", bench.name);
        assert_eq!(
            elided_run.run.final_memory, bench.classic.final_memory,
            "{}: elided binary diverged",
            bench.name
        );
        t.row(vec![
            bench.name.to_string(),
            format!(
                "{}",
                annotated_run
                    .run
                    .stores
                    .saturating_sub(elided_run.run.stores)
            ),
            format!("{:+.1}", pct_gain(annotated_run.edp(), bench.classic.edp())),
            format!("{:+.1}", pct_gain(elided_run.edp(), bench.classic.edp())),
        ]);
    }
    format!(
        "Extension (§2 applied): removing the redundant stores under the          always-fire envelope — the additional gain recomputation unlocks

{}",
        t.render()
    )
}

/// §2's store-elision opportunity: stores whose every profiled consumer
/// was swapped for recomputation.
pub fn store_elision(suite: &EvalSuite) -> String {
    let mut t = Table::new(&[
        "bench",
        "stores (static)",
        "elidable (static)",
        "dyn stores elidable %",
    ]);
    for bench in &suite.benches {
        let selected = bench.prob_report.selected_load_pcs();
        let elidable = redundant_stores(&bench.profile, &selected);
        let dyn_total: u64 = bench.profile.stores.values().map(|s| s.count).sum();
        let dyn_elidable: u64 = elidable
            .iter()
            .map(|pc| bench.profile.stores[pc].count)
            .sum();
        t.row(vec![
            bench.name.to_string(),
            bench.profile.stores.len().to_string(),
            elidable.len().to_string(),
            format!(
                "{:.1}",
                100.0 * dyn_elidable as f64 / dyn_total.max(1) as f64
            ),
        ]);
    }
    format!(
        "Extension (§2): stores made redundant when all their consumer loads \
         are swapped — the memory-footprint reduction opportunity\n\n{}",
        t.render()
    )
}

/// Related-work interaction: does a next-line prefetcher (the classic
/// latency-tolerance alternative, cf. Mowry et al. \[28\]) erode amnesic
/// execution's advantage? Both the baseline and the amnesic pipeline are
/// re-profiled and re-compiled under the prefetching hierarchy, so the
/// compiler sees the prefetch-improved PrLi.
pub fn prefetch_interaction(suite: &EvalSuite) -> String {
    use amnesiac_compiler::{compile, CompileOptions};
    use amnesiac_mem::HierarchyConfig;
    use amnesiac_profile::profile_program;
    use amnesiac_sim::ClassicCore;

    let mut t = Table::new(&[
        "bench",
        "EDP% amnesic",
        "EDP% prefetch only",
        "EDP% amnesic+prefetch",
    ]);
    for bench in &suite.benches {
        let mut config = CoreConfig::paper();
        config.hierarchy = HierarchyConfig::paper_with_prefetch();
        // baseline without prefetch is the suite's classic run
        let classic = &bench.classic;
        let classic_pf = ClassicCore::new(config.clone())
            .run(&bench.program)
            .expect("classic+prefetch runs");
        let (profile_pf, _) =
            profile_program(&bench.program, &config).expect("profiles under prefetch");
        let (binary_pf, _) = compile(&bench.program, &profile_pf, &CompileOptions::default())
            .expect("compiles under prefetch");
        let amnesic_pf = AmnesicCore::new(AmnesicConfig {
            core: config,
            ..AmnesicConfig::paper(Policy::Compiler)
        })
        .run(&binary_pf)
        .expect("amnesic+prefetch runs");
        assert_eq!(
            amnesic_pf.run.final_memory, classic.final_memory,
            "{}: prefetch pipeline diverged",
            bench.name
        );
        let amnesic = bench.run(PolicyOutcome::Compiler);
        t.row(vec![
            bench.name.to_string(),
            format!("{:+.1}", pct_gain(amnesic.edp(), classic.edp())),
            format!("{:+.1}", pct_gain(classic_pf.edp(), classic.edp())),
            format!("{:+.1}", pct_gain(amnesic_pf.edp(), classic.edp())),
        ]);
    }
    format!(
        "Related-work interaction: next-line prefetching vs amnesic execution          (all columns vs the no-prefetch classic baseline)

{}",
        t.render()
    )
}

/// Footnote-4 future work: recomputation offloaded to a spare core. The
/// traversal's latency is hidden (overlapped), only its energy is paid.
pub fn offload(suite: &EvalSuite) -> String {
    let mut t = Table::new(&["bench", "Compiler EDP%", "Offloaded EDP%"]);
    for bench in &suite.benches {
        let run = |offload: bool| {
            let config = AmnesicConfig {
                offload,
                ..AmnesicConfig::paper(Policy::Compiler)
            };
            let result = AmnesicCore::new(config)
                .run(&bench.prob_binary)
                .expect("run succeeds");
            assert_eq!(
                result.run.final_memory, bench.classic.final_memory,
                "{}: offload diverged",
                bench.name
            );
            pct_gain(result.edp(), bench.classic.edp())
        };
        t.row(vec![
            bench.name.to_string(),
            format!("{:+.1}", run(false)),
            format!("{:+.1}", run(true)),
        ]);
    }
    format!(
        "Extension (footnote 4): recomputation offloaded to spare/idle cores          — slice latency overlaps with the main thread

{}",
        t.render()
    )
}

/// Technology trend: EDP gain of the Compiler policy as loads get
/// relatively *cheaper* or compute relatively dearer (R sweep both ways) —
/// the forward-looking argument of Table 1.
pub fn technology_trend(suite: &EvalSuite) -> String {
    let factors = [0.25f64, 0.5, 1.0, 2.0, 8.0, 32.0];
    let mut t = Table::new(&["bench", "R/4", "R/2", "R", "2R", "8R", "32R"]);
    for bench in &suite.benches {
        let mut cells = vec![bench.name.to_string()];
        for &factor in &factors {
            let energy = EnergyModel::paper().with_r_factor(factor);
            let config = AmnesicConfig {
                core: CoreConfig::with_energy(energy.clone()),
                ..AmnesicConfig::paper(Policy::Compiler)
            };
            // both sides re-measured under the scaled model
            let classic = amnesiac_sim::ClassicCore::new(CoreConfig::with_energy(energy))
                .run(&bench.program)
                .expect("classic run succeeds");
            let result = AmnesicCore::new(config)
                .run(&bench.prob_binary)
                .expect("run succeeds");
            let gain = pct_gain(result.edp(), classic.edp());
            cells.push(format!("{gain:+.1}"));
        }
        t.row(cells);
    }
    format!(
        "Ablation: Compiler-policy EDP gain (%) as the compute/communication \
         cost ratio scales (technology trend of Table 1; slice set fixed at R)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tiny_suite;

    #[test]
    fn structure_sizing_preserves_correctness_at_every_size() {
        // run_with_structures asserts output equality internally
        let text = structure_sizing(&tiny_suite("is"));
        assert!(text.contains("is"));
    }

    #[test]
    fn hist_sizing_renders() {
        let text = hist_sizing(&tiny_suite("is"));
        assert!(text.contains("forced@0"));
    }

    #[test]
    fn store_elision_reports_is_buckets() {
        let text = store_elision(&tiny_suite("is"));
        assert!(text.contains("elidable"));
    }
}
