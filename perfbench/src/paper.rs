//! `paper-suite`: the paper reproduction, in-process. Each pass runs the
//! 11 focal kernels at paper scale one at a time through profile →
//! compile (probabilistic and oracle slice sets) → the five amnesic
//! policies, in the paper's figure order, and checks every simulated
//! result against the oracle. The suite is the paper's, so the seed does
//! not change it.

use std::time::Instant;

use amnesiac_absint::Analysis;
use amnesiac_compiler::{compile, CompileOptions};
use amnesiac_core::{AmnesicConfig, AmnesicCore, Policy};
use amnesiac_energy::EnergyModel;
use amnesiac_isa::Program;
use amnesiac_profile::profile_program;
use amnesiac_sim::{ClassicCore, CoreConfig};
use amnesiac_workloads::{build_focal, Scale};

use crate::oracle::SimExpect;
use crate::report::{Ctx, Report};
use crate::spec::Workload;
use crate::stats::{median, sorted};

/// The paper's five configurations: label, runtime policy, and whether
/// the run uses the oracle slice set (otherwise the probabilistic one).
const POLICIES: [(&str, Policy, bool); 5] = [
    ("Oracle", Policy::Oracle, true),
    ("C-Oracle", Policy::Oracle, false),
    ("Compiler", Policy::Compiler, false),
    ("FLC", Policy::Flc, false),
    ("LLC", Policy::Llc, false),
];

/// `100 × (1 − amnesic/classic)`, the gain the paper's figures plot.
fn pct_gain(amnesic: f64, classic: f64) -> f64 {
    if classic == 0.0 {
        0.0
    } else {
        100.0 * (1.0 - amnesic / classic)
    }
}

/// Counters one kernel's pipeline reports to the traced run.
#[derive(Debug, Default)]
struct KernelWork {
    profile_insts: u64,
    core_insts: u64,
    validation_rounds: u64,
    rounds_saved_static: u64,
    gains: Vec<(&'static str, f64)>,
}

/// One kernel through the whole pipeline; checks every result against
/// the oracle. Returns whether all checks passed, the work counters, and
/// the probabilistic binary.
fn kernel_pipeline(
    name: &str,
    program: &Program,
    id: u64,
    ctx: &mut Ctx,
) -> Result<(bool, KernelWork, Program), String> {
    let energy = EnergyModel::paper();
    let config = CoreConfig::with_energy(energy.clone());
    let tracer = &mut ctx.tracer;
    let (profile, classic) = tracer
        .span(id, "profile", |_| profile_program(program, &config))
        .map_err(|e| format!("{name}: profiling failed: {e}"))?;
    let prob_options = CompileOptions {
        energy: energy.clone(),
        ..CompileOptions::default()
    };
    let oracle_options = CompileOptions {
        energy,
        ..CompileOptions::oracle()
    };
    let (prob, prob_report) = tracer
        .span(id, "compiler", |_| {
            compile(program, &profile, &prob_options)
        })
        .map_err(|e| format!("{name}: compile failed: {e}"))?;
    let (oracle_bin, oracle_report) = tracer
        .span(id, "compiler", |_| {
            compile(program, &profile, &oracle_options)
        })
        .map_err(|e| format!("{name}: oracle compile failed: {e}"))?;
    let mut work = KernelWork {
        profile_insts: profile.instructions,
        validation_rounds: u64::from(
            prob_report.validation_rounds + oracle_report.validation_rounds,
        ),
        rounds_saved_static: u64::from(
            prob_report.validation_rounds_saved_static
                + oracle_report.validation_rounds_saved_static,
        ),
        ..KernelWork::default()
    };
    let classic_edp = classic.edp();
    let mut ok = ctx.oracle.check_sim(
        name,
        "classic",
        SimExpect {
            cycles: classic.account.cycles(),
            energy_nj: classic.account.total_nj(),
            edp_gain_pct: 0.0,
        },
    );
    for (label, policy, oracle_set) in POLICIES {
        let binary = if oracle_set { &oracle_bin } else { &prob };
        let amnesic = AmnesicConfig {
            core: config.clone(),
            ..AmnesicConfig::paper(policy)
        };
        let result = ctx
            .tracer
            .span(id, "core", |_| AmnesicCore::new(amnesic).run(binary))
            .map_err(|e| format!("{name}/{label}: amnesic run failed: {e}"))?;
        work.core_insts += result.run.instructions;
        let gain = pct_gain(result.edp(), classic_edp);
        ok &= ctx.oracle.check_sim(
            name,
            label,
            SimExpect {
                cycles: result.run.account.cycles(),
                energy_nj: result.run.account.total_nj(),
                edp_gain_pct: gain,
            },
        );
        if result.run.final_memory != classic.final_memory {
            ctx.oracle
                .mismatches
                .push(format!("{name}/{label}: final memory differs from classic"));
            ok = false;
        }
        work.gains.push((label, gain));
    }
    Ok((ok, work, prob))
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when a pipeline stage itself errors (a bug, not a mismatch).
pub fn run(w: &Workload, ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::new(&w.name, ctx.trace, &ctx.spec);
    // set-up: build the paper-scale programs, several times; each build
    // starts with the previous one's programs dropped, as a fresh set-up
    // would
    let mut setups = Vec::new();
    let mut programs: Vec<Program> = Vec::new();
    for _ in 0..ctx.spec.setup_repeats {
        programs.clear();
        let start = Instant::now();
        programs = w
            .kernels
            .iter()
            .enumerate()
            .map(|(i, name)| {
                ctx.tracer.span(i as u64, "workloads.build", |_| {
                    build_focal(name, Scale::Paper).program
                })
            })
            .collect();
        setups.push(start.elapsed().as_secs_f64());
    }

    // measured phase: whole passes until the run's seconds are used
    let n = w.kernels.len();
    let cpu0 = crate::wire::cpu_s_of(std::process::id());
    let start = Instant::now();
    let mut pass_ms = Vec::new();
    let mut work = KernelWork::default();
    let mut binaries: Vec<(u64, Program)> = (0..n as u64).map(|k| (k, Program::new(""))).collect();
    let mut gains: Vec<(&str, &'static str, f64)> = Vec::new();
    let mut covered_ns = 0u64;
    let mut traced_ns = 0u64;
    while pass_ms.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let pass = pass_ms.len();
        let pass_start = Instant::now();
        let p0 = ctx.tracer.ns(pass_start);
        for k in 0..n {
            let id = (pass * n + k) as u64;
            let (ok, kw, prob) = kernel_pipeline(&w.kernels[k], &programs[k], id, ctx)?;
            report.attempted += 1;
            if !ok {
                report.failed += 1;
            }
            if pass == 0 {
                work.profile_insts += kw.profile_insts;
                work.core_insts += kw.core_insts;
                work.validation_rounds += kw.validation_rounds;
                work.rounds_saved_static += kw.rounds_saved_static;
                gains.extend(
                    kw.gains
                        .iter()
                        .map(|&(label, g)| (w.kernels[k].as_str(), label, g)),
                );
            }
            binaries[k].1 = prob;
        }
        let pass_end = Instant::now();
        pass_ms.push(pass_end.duration_since(pass_start).as_secs_f64() * 1e3);
        let p1 = ctx.tracer.ns(pass_end);
        covered_ns += ctx
            .tracer
            .covered_by(&["profile", "compiler", "core"], p0, p1);
        traced_ns += p1 - p0;
    }
    let passes = pass_ms.len() as f64;
    let cpu_ms = (crate::wire::cpu_s_of(std::process::id()) - cpu0) * 1e3 / passes;
    report.setups(&setups);
    report.e2e("cpu_ms_per_op", cpu_ms);
    report.e2e(
        "peak_rss_mb",
        crate::wire::peak_rss_mb_of(std::process::id()),
    );
    report.extra("pipeline_s", "s", median(&sorted(&pass_ms)) / 1e3);
    report.extra("passes", "count", passes);
    report.line(format!(
        "one operation is a pass of the {n}-kernel pipeline; {} passes, {} kernel pipelines",
        pass_ms.len(),
        report.attempted
    ));
    focal_average_lines(w, &gains, &mut report);

    if ctx.trace {
        // standalone layer measurements on the same programs
        let config = CoreConfig::paper();
        for (i, program) in programs.iter().enumerate() {
            ctx.tracer
                .span(i as u64, "sim", |_| {
                    ClassicCore::new(config.clone()).run(program)
                })
                .map_err(|e| format!("{}: classic run failed: {e}", w.kernels[i]))?;
        }
        verify_and_absint(&binaries, ctx);
        let totals = ctx.tracer.totals();
        let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
        let repeats = ctx.spec.setup_repeats as f64;
        report.layer("workloads.build_ms", ms("workloads.build") / repeats);
        report.layer("sim.ms", ms("sim"));
        report.layer("profile.ms", ms("profile") / passes);
        report.layer(
            "profile.ns_per_inst",
            ms("profile") * 1e6 / passes / work.profile_insts.max(1) as f64,
        );
        report.layer("compiler.ms", ms("compiler") / passes);
        report.layer("compiler.validation_rounds", work.validation_rounds as f64);
        report.layer(
            "compiler.rounds_saved_static",
            work.rounds_saved_static as f64,
        );
        report.layer("verify.ms", ms("verify"));
        report.layer("absint.ms", ms("absint"));
        report.layer("core.ms", ms("core") / passes);
        report.layer(
            "core.ns_per_inst",
            ms("core") * 1e6 / passes / work.core_insts.max(1) as f64,
        );
        let coverage = covered_ns as f64 / traced_ns.max(1) as f64;
        report.layer("trace.span_coverage", coverage);
        if coverage < 0.9 {
            report.check_failed(format!(
                "layer spans cover {:.1}% of the traced pipeline time (< 90%)",
                coverage * 100.0
            ));
        }
    }
    Ok(report)
}

/// Standalone `verify` and abstract interpretation (`Analysis::of_program`
/// then `slice_reports`) over annotated binaries, recorded as `verify`
/// and `absint` spans.
pub fn verify_and_absint(binaries: &[(u64, Program)], ctx: &mut Ctx) {
    for (id, binary) in binaries {
        let report = ctx
            .tracer
            .span(*id, "verify", |_| amnesiac_verify::verify(binary));
        std::hint::black_box(report);
        let slices = ctx.tracer.span(*id, "absint", |_| {
            Analysis::of_program(binary).slice_reports(binary)
        });
        std::hint::black_box(slices);
    }
}

/// Prints the focal-average EDP gain per policy beside the paper's.
fn focal_average_lines(w: &Workload, gains: &[(&str, &'static str, f64)], report: &mut Report) {
    let kernels = w.kernels.len() as f64;
    let mut best_sum = 0.0;
    for kernel in &w.kernels {
        best_sum += gains
            .iter()
            .filter(|(k, _, _)| k == kernel)
            .map(|(_, _, g)| *g)
            .fold(f64::NEG_INFINITY, f64::max);
    }
    let best = best_sum / kernels;
    report.line(format!(
        "focal-average EDP gain, best policy per kernel: {best:+.2}% (paper {:.2}%; difference {:+.2} pp)",
        w.paper_edp_gain_pct,
        best - w.paper_edp_gain_pct
    ));
    for (label, _, _) in POLICIES {
        let avg: f64 = gains
            .iter()
            .filter(|(_, l, _)| *l == label)
            .map(|(_, _, g)| *g)
            .sum::<f64>()
            / kernels;
        report.line(format!("focal-average EDP gain, {label}: {avg:+.2}%"));
    }
}
