//! The shared evaluation pipeline: profile → compile (both slice sets) →
//! run classic + every amnesic policy, once per benchmark.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::{Mutex, PoisonError};
use std::thread;

use amnesiac_compiler::{compile, CompileOptions, CompileReport};
use amnesiac_core::{AmnesicConfig, AmnesicCore, AmnesicRunResult, Policy};
use amnesiac_isa::Program;
use amnesiac_profile::{profile_program, ProgramProfile};
use amnesiac_sim::{CoreConfig, RunResult};
use amnesiac_telemetry::{Json, ToJson};
use amnesiac_workloads::{Kernel, Scale, Workload, FOCAL_NAMES, KERNELS};

/// The paper's five evaluated configurations, in Fig. 3 legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyOutcome {
    /// `Oracle`: oracle slice set + exact runtime decisions.
    Oracle,
    /// `C-Oracle`: compiler's probabilistic slice set + exact decisions.
    COracle,
    /// `Compiler`: probabilistic set, always recompute.
    Compiler,
    /// `FLC`: probabilistic set, recompute on L1 miss.
    Flc,
    /// `LLC`: probabilistic set, recompute on L2 miss.
    Llc,
}

impl PolicyOutcome {
    /// All five, in the paper's order.
    pub const ALL: [PolicyOutcome; 5] = [
        PolicyOutcome::Oracle,
        PolicyOutcome::COracle,
        PolicyOutcome::Compiler,
        PolicyOutcome::Flc,
        PolicyOutcome::Llc,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PolicyOutcome::Oracle => "Oracle",
            PolicyOutcome::COracle => "C-Oracle",
            PolicyOutcome::Compiler => "Compiler",
            PolicyOutcome::Flc => "FLC",
            PolicyOutcome::Llc => "LLC",
        }
    }
}

/// Everything measured for one benchmark.
#[derive(Debug)]
pub struct BenchEval {
    /// Benchmark short name (paper x-axis label).
    pub name: &'static str,
    /// The classic (un-annotated) program.
    pub program: Program,
    /// Profiling output.
    pub profile: ProgramProfile,
    /// Classic-execution baseline.
    pub classic: RunResult,
    /// Binary annotated with the probabilistic slice set.
    pub prob_binary: Program,
    /// Compile report for the probabilistic set.
    pub prob_report: CompileReport,
    /// Binary annotated with the oracle slice set.
    pub oracle_binary: Program,
    /// Compile report for the oracle set.
    pub oracle_report: CompileReport,
    /// Amnesic runs, indexed per [`PolicyOutcome::ALL`].
    pub runs: Vec<(PolicyOutcome, AmnesicRunResult)>,
}

impl BenchEval {
    /// Runs the full pipeline for one benchmark on the paper's machine and
    /// energy model.
    ///
    /// # Panics
    ///
    /// Panics if any stage fails — the suite is deterministic, so a failure
    /// is a bug, not an input condition.
    pub fn compute(workload: Workload) -> Self {
        let (profile, classic) = profile_program(&workload.program, &CoreConfig::paper())
            .expect("profiling run succeeds");
        let (prob_binary, prob_report) =
            compile(&workload.program, &profile, &CompileOptions::default())
                .expect("compile succeeds");
        let (oracle_binary, oracle_report) =
            compile(&workload.program, &profile, &CompileOptions::oracle())
                .expect("compile succeeds");

        let runs = PolicyOutcome::ALL
            .iter()
            .map(|&outcome| {
                let (policy, binary) = match outcome {
                    PolicyOutcome::Oracle => (Policy::Oracle, &oracle_binary),
                    PolicyOutcome::COracle => (Policy::Oracle, &prob_binary),
                    PolicyOutcome::Compiler => (Policy::Compiler, &prob_binary),
                    PolicyOutcome::Flc => (Policy::Flc, &prob_binary),
                    PolicyOutcome::Llc => (Policy::Llc, &prob_binary),
                };
                let result = AmnesicCore::new(AmnesicConfig::paper(policy))
                    .run(binary)
                    .expect("amnesic run succeeds");
                assert_eq!(
                    result.run.final_memory,
                    classic.final_memory,
                    "{} diverged under {}",
                    workload.program.name,
                    outcome.label()
                );
                (outcome, result)
            })
            .collect();

        BenchEval {
            name: workload.name,
            program: workload.program,
            profile,
            classic,
            prob_binary,
            prob_report,
            oracle_binary,
            oracle_report,
            runs,
        }
    }

    /// The run for one policy.
    pub fn run(&self, outcome: PolicyOutcome) -> &AmnesicRunResult {
        &self
            .runs
            .iter()
            .find(|(o, _)| *o == outcome)
            .expect("all policies were run")
            .1
    }

    /// % EDP gain of a policy over classic (positive = better).
    pub fn edp_gain(&self, outcome: PolicyOutcome) -> f64 {
        pct_gain(self.run(outcome).edp(), self.classic.edp())
    }

    /// % energy gain of a policy over classic.
    pub fn energy_gain(&self, outcome: PolicyOutcome) -> f64 {
        pct_gain(
            self.run(outcome).run.account.total_nj(),
            self.classic.account.total_nj(),
        )
    }

    /// % execution-time gain of a policy over classic.
    pub fn time_gain(&self, outcome: PolicyOutcome) -> f64 {
        pct_gain(
            self.run(outcome).run.account.cycles() as f64,
            self.classic.account.cycles() as f64,
        )
    }
}

/// `100 × (1 − amnesic/classic)`, guarded against a degenerate classic
/// baseline: a zero (or non-finite) denominator yields 0% instead of a
/// NaN/∞ that would poison aggregates like [`EvalSuite::responders`].
/// Every gain and reduction the artifacts report goes through it.
pub(crate) fn pct_gain(amnesic: f64, classic: f64) -> f64 {
    if classic == 0.0 || !classic.is_finite() || !amnesic.is_finite() {
        0.0
    } else {
        100.0 * (1.0 - amnesic / classic)
    }
}

/// `100 × n / total`, or 0 when `total` is 0: the share of a count.
pub(crate) fn share_pct(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}

impl ToJson for BenchEval {
    /// One benchmark's machine-readable record: classic baseline, both
    /// compile reports, and per-policy gains + full run stats.
    fn to_json(&self) -> Json {
        let mut policies = Json::obj();
        for &(outcome, ref result) in &self.runs {
            policies.set(
                outcome.label(),
                Json::obj()
                    .with("edp_gain_pct", self.edp_gain(outcome))
                    .with("energy_gain_pct", self.energy_gain(outcome))
                    .with("time_gain_pct", self.time_gain(outcome))
                    .with("result", result.to_json()),
            );
        }
        Json::obj()
            .with("name", self.name)
            .with("classic", self.classic.to_json())
            .with("compile_prob", self.prob_report.to_json())
            .with("compile_oracle", self.oracle_report.to_json())
            .with("policies", policies)
    }
}

/// The whole evaluation: one [`BenchEval`] per benchmark of a suite (the
/// focal kernels, or the 22 non-focal ones), all on the paper's machine
/// and energy model.
#[derive(Debug)]
pub struct EvalSuite {
    /// The suite's benchmarks, in the paper's order.
    pub benches: Vec<BenchEval>,
}

/// Maps `f` over `items` on scoped threads and returns the results in
/// input order. Each thread claims the next unclaimed item until none is
/// left, so uneven items still balance. There are `available_parallelism`
/// threads, capped at the item count. A panic in `f` is re-thrown here,
/// with its payload, once every thread has stopped.
pub(crate) fn fan_out<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    // The guard drops when `claim` returns, so `f` never runs under it.
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let mut done: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(claim)
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .flat_map(|r| r.unwrap_or_else(|payload| panic::resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

impl EvalSuite {
    /// Computes the suite for the 11 focal benchmarks (in parallel, one
    /// task per benchmark).
    pub fn compute(scale: Scale) -> Self {
        Self::of(&KERNELS[..FOCAL_NAMES.len()], scale)
    }

    /// Computes "the rest": the 22 non-focal benchmarks of Table 2
    /// (5 controls + 17 extended), in parallel.
    pub fn compute_rest(scale: Scale) -> Self {
        Self::of(&KERNELS[FOCAL_NAMES.len()..], scale)
    }

    /// Builds `kernels` at `scale` and runs the full pipeline for each,
    /// fanned out with [`fan_out`]. Results keep input order, so suite
    /// records are identical to a sequential pass.
    fn of(kernels: &[Kernel], scale: Scale) -> Self {
        let workloads = kernels.iter().map(|k| k.build(scale)).collect();
        EvalSuite {
            benches: fan_out(workloads, BenchEval::compute),
        }
    }

    /// Counts how many benchmarks clear `threshold`% EDP gain under their
    /// best policy (the paper's "only 4 provided more than 5% gain"
    /// statistic for the rest).
    pub fn responders(&self, threshold: f64) -> usize {
        self.benches
            .iter()
            .filter(|b| {
                PolicyOutcome::ALL
                    .iter()
                    .any(|&p| b.edp_gain(p) > threshold)
            })
            .count()
    }
}

impl ToJson for EvalSuite {
    /// `{"benches": [per-benchmark records, in suite order]}`.
    fn to_json(&self) -> Json {
        Json::obj().with(
            "benches",
            Json::Arr(self.benches.iter().map(|b| b.to_json()).collect()),
        )
    }
}

/// A one-benchmark suite at test scale, for the artifact modules' tests.
#[cfg(test)]
pub(crate) fn tiny_suite(name: &str) -> EvalSuite {
    let workload = amnesiac_workloads::build_focal(name, Scale::Test);
    EvalSuite {
        benches: vec![BenchEval::compute(workload)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_workloads::{build_focal, workload};

    #[test]
    fn pipeline_runs_one_benchmark_end_to_end() {
        let eval = BenchEval::compute(build_focal("is", Scale::Test));
        assert_eq!(eval.runs.len(), 5);
        // all runs agree with classic on output (asserted inside compute);
        // gains are finite numbers
        for outcome in PolicyOutcome::ALL {
            assert!(eval.edp_gain(outcome).is_finite());
        }
    }

    #[test]
    fn controls_do_not_explode() {
        let eval = BenchEval::compute(workload("swaptions", Scale::Test).unwrap());
        // a compute-bound kernel gains (or loses) next to nothing
        let gain = eval.edp_gain(PolicyOutcome::Compiler);
        assert!(gain.abs() < 10.0, "swaptions moved {gain}%");
    }

    #[test]
    fn policy_labels_are_stable() {
        let labels: Vec<_> = PolicyOutcome::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["Oracle", "C-Oracle", "Compiler", "FLC", "LLC"]);
    }

    #[test]
    fn zero_classic_baseline_yields_zero_gain_not_nan() {
        // A degenerate baseline (0 nJ, 0 cycles ⇒ 0 EDP) must not poison
        // gains with NaN/∞ — responders() compares them against thresholds.
        let mut eval = BenchEval::compute(build_focal("is", Scale::Test));
        eval.classic.account = amnesiac_energy::EnergyAccount::new();
        for outcome in PolicyOutcome::ALL {
            assert_eq!(eval.edp_gain(outcome), 0.0);
            assert_eq!(eval.energy_gain(outcome), 0.0);
            assert_eq!(eval.time_gain(outcome), 0.0);
        }
        let suite = EvalSuite {
            benches: vec![eval],
        };
        assert_eq!(suite.responders(5.0), 0);
    }

    #[test]
    fn pct_gain_guards_degenerate_inputs() {
        assert_eq!(pct_gain(10.0, 0.0), 0.0);
        assert_eq!(pct_gain(10.0, f64::NAN), 0.0);
        assert_eq!(pct_gain(f64::INFINITY, 10.0), 0.0);
        assert!((pct_gain(50.0, 100.0) - 50.0).abs() < 1e-12);
        assert!((pct_gain(150.0, 100.0) + 50.0).abs() < 1e-12);
    }

    #[test]
    fn fan_out_handles_empty_and_single_inputs() {
        assert!(fan_out(Vec::<u32>::new(), |x| x).is_empty());
        assert_eq!(fan_out(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn fan_out_keeps_input_order_under_uneven_durations() {
        fn spin(iters: u64) -> u64 {
            let mut acc = iters;
            for i in 0..iters {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                std::hint::spin_loop();
            }
            acc
        }
        let mut rng = amnesiac_rng::Rng::seed_from_u64(0x9e3779b97f4a7c15);
        for round in 0..4 {
            let n = rng.below(100);
            let items: Vec<(u64, u64)> = (0..n).map(|index| (index, rng.below(20_000))).collect();
            let expected: Vec<u64> = items
                .iter()
                .map(|&(index, iters)| index.wrapping_add(spin(iters)))
                .collect();
            let got = fan_out(items, |(index, iters)| index.wrapping_add(spin(iters)));
            assert_eq!(got, expected, "round {round}, {n} items");
        }
    }

    #[test]
    fn fan_out_rethrows_a_panic_with_its_payload() {
        let result = std::panic::catch_unwind(|| {
            fan_out((0..16).collect(), |x: u32| {
                if x == 9 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = result.expect_err("the panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom at 9")
        );
    }

    #[test]
    fn pooled_fanout_matches_sequential_byte_for_byte() {
        // the suite must be bitwise independent of how it was scheduled:
        // same binaries, same records
        let kernels = &KERNELS[..2];
        let fanned = EvalSuite::of(kernels, Scale::Test);
        assert_eq!(fanned.benches.len(), kernels.len());
        for (p, kernel) in fanned.benches.iter().zip(kernels) {
            let s = BenchEval::compute(kernel.build(Scale::Test));
            assert_eq!(p.name, s.name, "fan_out must preserve input order");
            assert_eq!(p.prob_binary.instructions, s.prob_binary.instructions);
            assert_eq!(p.oracle_binary.instructions, s.oracle_binary.instructions);
            assert_eq!(p.to_json().compact(), s.to_json().compact());
        }
    }
}
