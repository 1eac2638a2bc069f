//! The typed result of every CLI verb.
//!
//! [`crate::run`] returns a [`Response`] — one structured variant per
//! verb — and the two consumers diverge from there: the `amnesiac`
//! binary renders it with [`Response::render_text`] (byte-identical to
//! the historical output) and exports [`Response::payload_json`] under
//! `--json <dir>`, while `amnesiac serve` ships the same payload over
//! the wire. One computation, two faithful projections.

use std::fmt::Write as _;
use std::path::PathBuf;

use amnesiac_compiler::{CompileReport, SiteOutcome};
use amnesiac_core::AmnesicRunResult;
use amnesiac_experiments::regress::{self, Regression, ServeComparison};
use amnesiac_experiments::{LintSweep, VerifySweep};
use amnesiac_profile::ProgramProfile;
use amnesiac_sim::RunResult;
use amnesiac_telemetry::{Json, ToJson};
use amnesiac_verify::VerifyReport;

/// The structured outcome of one verb.
///
/// Failure-shaped outcomes (a dirty `verify`, a regressed
/// `bench-compare`) are still `Ok` responses from [`crate::run`] — [`Response::is_failure`] tells the
/// caller whether to exit non-zero, so the service layer can transport
/// the full structured payload instead of a flattened error string.
#[derive(Debug)]
pub enum Response {
    /// `run`: classic execution of one program.
    Run {
        /// Program name (from the `.name` directive or the benchmark).
        program: String,
        /// The simulator's result.
        result: RunResult,
    },
    /// `disasm`: the textual listing.
    Disasm {
        /// Program name.
        program: String,
        /// The disassembly listing.
        listing: String,
    },
    /// `trace`: a rendered retirement trace.
    Trace {
        /// Program name.
        program: String,
        /// The rendered trace.
        rendered: String,
    },
    /// `profile`: per-load-site statistics.
    Profile {
        /// Program name.
        program: String,
        /// The load-site profile.
        profile: ProgramProfile,
    },
    /// `compile`: selection report plus annotated listing.
    Compile {
        /// Program name.
        program: String,
        /// The compiler's decision report.
        report: CompileReport,
        /// Disassembly of the annotated binary.
        listing: String,
        /// Compile-cache counters, attached only on the one-shot
        /// `--cache-dir` path. Deliberately `None` for served requests:
        /// counters are volatile, and a cache-hit response must stay
        /// byte-identical on the wire to its cold-compile twin (the serve
        /// `stats` verb reports the shared cache instead).
        cache: Option<Json>,
    },
    /// `compare`: classic vs every amnesic policy.
    Compare {
        /// Program name.
        program: String,
        /// The classic (baseline) run.
        classic: RunResult,
        /// One `(policy label, result)` row per policy, in table order.
        policies: Vec<(String, AmnesicRunResult)>,
    },
    /// `encode`: a binary image was written.
    Encode {
        /// Output path.
        path: String,
        /// Image size in bytes.
        bytes: usize,
        /// Instruction count.
        instructions: usize,
    },
    /// `verify <target>`: static analysis of one program.
    VerifyTarget {
        /// The target as given on the command line.
        target: String,
        /// The analyser's report.
        report: VerifyReport,
    },
    /// `verify` with no target: the whole-suite sweep.
    VerifySweep {
        /// The sweep over all built-in workloads.
        sweep: VerifySweep,
    },
    /// `lint <target>`: abstract-interpretation findings for one program
    /// (the full compile report — verifier diagnostics plus the
    /// replay-validation counters showing what the static prover skipped).
    LintTarget {
        /// The target as given on the command line.
        target: String,
        /// The compiler's report for the default slice set.
        report: CompileReport,
    },
    /// `lint` with no target: the whole-suite sweep.
    LintSweep {
        /// The sweep over all built-in workloads.
        sweep: LintSweep,
    },
    /// `experiments`: the evaluation suite's artifact set.
    Experiments {
        /// Destination directory (`None` when invoked over the wire —
        /// artifacts travel in the payload instead of touching disk).
        dir: Option<PathBuf>,
        /// Number of benchmarks evaluated.
        n_benches: usize,
        /// `(file name, document)` pairs in canonical write order.
        artifacts: Vec<(String, Json)>,
    },
    /// `bench-snapshot`: a perf baseline was written.
    BenchSnapshot {
        /// Output path.
        path: String,
        /// Number of benchmarks in the baseline.
        n_benches: usize,
        /// The snapshot document.
        snapshot: Json,
    },
    /// `bench-compare`: fresh gains diffed against a baseline.
    BenchCompare {
        /// Tolerance in percentage points.
        tolerance_pp: f64,
        /// Zero-baseline blind-spot warnings.
        warnings: Vec<String>,
        /// Every gain that fell beyond the tolerance.
        regressions: Vec<Regression>,
    },
    /// `serve`: the service drained and stopped.
    Serve {
        /// The address the server was bound to.
        addr: String,
        /// Final statistics snapshot.
        stats: Json,
    },
    /// `loadgen`: one open-loop load run against an in-process server.
    Loadgen {
        /// The full snapshot document (`{schema_version, kind,
        /// config, results}`) — the exact bytes `--json` writes, so a
        /// run can be committed verbatim as `BENCH_serve.json`.
        snapshot: Json,
    },
    /// `cluster`: the router drained and stopped, workers reaped.
    Cluster {
        /// The address the router was bound to.
        addr: String,
        /// Number of worker processes spawned.
        workers: usize,
        /// Final router statistics (aggregated worker counters,
        /// membership view, reroute counts).
        stats: Json,
    },
    /// `bench-compare` against a `kind: "serve"` baseline: a fresh
    /// loadgen replay diffed against the committed service baseline.
    BenchCompareServe {
        /// Tolerance in percentage points (applied to the error rate).
        tolerance_pp: f64,
        /// Gated regressions plus informational latency notes.
        comparison: ServeComparison,
        /// The freshly measured snapshot.
        current: Json,
    },
}

impl Response {
    /// The verb name this response answers — also the stem of the
    /// `--json` artifact (`<verb>.json`).
    pub fn verb_name(&self) -> &'static str {
        match self {
            Response::Run { .. } => "run",
            Response::Disasm { .. } => "disasm",
            Response::Trace { .. } => "trace",
            Response::Profile { .. } => "profile",
            Response::Compile { .. } => "compile",
            Response::Compare { .. } => "compare",
            Response::Encode { .. } => "encode",
            Response::VerifyTarget { .. } | Response::VerifySweep { .. } => "verify",
            Response::LintTarget { .. } | Response::LintSweep { .. } => "lint",
            Response::Experiments { .. } => "experiments",
            Response::BenchSnapshot { .. } => "bench-snapshot",
            Response::BenchCompare { .. } => "bench-compare",
            Response::Serve { .. } => "serve",
            Response::Loadgen { .. } => "loadgen",
            Response::Cluster { .. } => "cluster",
            Response::BenchCompareServe { .. } => "bench-compare",
        }
    }

    /// Whether this outcome should make the process exit non-zero
    /// (e.g. a dirty `verify` or a regressed `bench-compare`).
    pub fn is_failure(&self) -> bool {
        match self {
            Response::VerifyTarget { report, .. } => !report.is_clean(),
            Response::VerifySweep { sweep } => !sweep.is_clean(),
            Response::LintTarget { report, .. } => {
                !report.verify.is_clean() || report.verify.unexplained_warn_count() > 0
            }
            Response::LintSweep { sweep } => !sweep.is_clean(),
            Response::BenchCompare { regressions, .. } => !regressions.is_empty(),
            Response::BenchCompareServe { comparison, .. } => !comparison.ok(),
            _ => false,
        }
    }

    /// Renders the historical terminal report for this verb.
    pub fn render_text(&self) -> String {
        match self {
            Response::Run { program, result } => {
                let mut out = String::new();
                let _ = writeln!(out, "program `{program}` halted");
                let _ = writeln!(
                    out,
                    "  {} instructions, {} loads, {} stores",
                    result.instructions, result.loads, result.stores
                );
                let _ = writeln!(
                    out,
                    "  energy {:.1} nJ, time {} cycles, EDP {:.3e}",
                    result.account.total_nj(),
                    result.account.cycles(),
                    result.edp()
                );
                for (addr, value) in &result.final_memory {
                    let _ = writeln!(out, "  out[{addr:#x}] = {value:#x}");
                }
                out
            }
            Response::Disasm { listing, .. } => listing.clone(),
            Response::Trace { rendered, .. } => rendered.clone(),
            Response::Profile { profile, .. } => {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{} load sites over {} dynamic instructions:",
                    profile.loads.len(),
                    profile.instructions
                );
                for site in profile.loads.values() {
                    let pr = site.probabilities();
                    let _ = write!(
                        out,
                        "  pc {:>5}: {:>9} instances, L1/L2/Mem {:>5.1}/{:>4.1}/{:>5.1}%, \
                         locality {:>5.1}%",
                        site.pc,
                        site.count,
                        100.0 * pr[0],
                        100.0 * pr[1],
                        100.0 * pr[2],
                        100.0 * site.value_locality()
                    );
                    match (&site.tree, site.unswappable) {
                        (Some(t), _) => {
                            let _ = writeln!(out, ", producer tree {} nodes", t.size());
                        }
                        (None, Some(why)) => {
                            let _ = writeln!(out, ", unswappable ({why:?})");
                        }
                        (None, None) => {
                            let _ = writeln!(out);
                        }
                    }
                }
                out
            }
            Response::Compile {
                report, listing, ..
            } => {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{} of {} sites swapped; {} RECs; storage bounds: SFile {} / Hist {} / IBuff {}",
                    report.n_selected(),
                    report.decisions.len(),
                    report.rec_count,
                    report.storage.sfile_entries,
                    report.storage.hist_entries,
                    report.storage.ibuff_entries
                );
                for d in &report.decisions {
                    match &d.outcome {
                        SiteOutcome::Selected {
                            slice_len,
                            height,
                            est_recompute_nj,
                            est_load_nj,
                            ..
                        } => {
                            let _ = writeln!(
                                out,
                                "  pc {:>5}: SELECTED ({slice_len} insts, h={height}, \
                                 E_rc {est_recompute_nj:.2} < E_ld {est_load_nj:.2} nJ)",
                                d.load_pc
                            );
                        }
                        other => {
                            let _ = writeln!(out, "  pc {:>5}: {other:?}", d.load_pc);
                        }
                    }
                }
                let _ = writeln!(out, "\n{listing}");
                out
            }
            Response::Compare {
                classic, policies, ..
            } => {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{:<10} {:>14} {:>12} {:>12} {:>9}",
                    "policy", "energy (nJ)", "cycles", "EDP", "gain"
                );
                let _ = writeln!(
                    out,
                    "{:<10} {:>14.1} {:>12} {:>12.3e} {:>9}",
                    "classic",
                    classic.account.total_nj(),
                    classic.account.cycles(),
                    classic.edp(),
                    "-"
                );
                for (label, result) in policies {
                    let _ = writeln!(
                        out,
                        "{:<10} {:>14.1} {:>12} {:>12.3e} {:>8.2}%",
                        label,
                        result.run.account.total_nj(),
                        result.run.account.cycles(),
                        result.edp(),
                        100.0 * (1.0 - result.edp() / classic.edp())
                    );
                }
                out
            }
            Response::Encode {
                path,
                bytes,
                instructions,
            } => {
                format!("wrote {bytes} bytes ({instructions} instructions) to {path}\n")
            }
            Response::VerifyTarget { target, report } => {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{target}: {} slices, {} blocks: {} error(s), {} warning(s)",
                    report.slices_checked,
                    report.blocks,
                    report.error_count(),
                    report.warn_count()
                );
                for d in &report.diagnostics {
                    let _ = writeln!(out, "  {d}");
                }
                out
            }
            Response::VerifySweep { sweep } => sweep.render(),
            Response::LintTarget { target, report } => {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{target}: {} slices: {} error(s), {} warning(s) ({} unexplained)",
                    report.verify.slices_checked,
                    report.verify.error_count(),
                    report.verify.warn_count(),
                    report.verify.unexplained_warn_count()
                );
                let _ = writeln!(
                    out,
                    "  replay validation: {} round(s) run, {} saved by drop \
                     disjointness, {} saved by static equivalence",
                    report.validation_rounds,
                    report.validation_rounds_saved,
                    report.validation_rounds_saved_static
                );
                for d in &report.verify.diagnostics {
                    let _ = writeln!(out, "  {d}");
                }
                out
            }
            Response::LintSweep { sweep } => sweep.render(),
            Response::Experiments {
                dir,
                n_benches,
                artifacts,
            } => {
                let mut out = String::new();
                match dir {
                    Some(dir) => {
                        let _ = writeln!(
                            out,
                            "computed {n_benches} benchmarks; wrote {} artifacts to {}:",
                            artifacts.len(),
                            dir.display()
                        );
                        for (name, _) in artifacts {
                            let _ = writeln!(out, "  {}", dir.join(name).display());
                        }
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "computed {n_benches} benchmarks; {} artifacts in payload:",
                            artifacts.len()
                        );
                        for (name, _) in artifacts {
                            let _ = writeln!(out, "  {name}");
                        }
                    }
                }
                out
            }
            Response::BenchSnapshot {
                path, n_benches, ..
            } => {
                format!("wrote bench baseline for {n_benches} benchmarks to {path}\n")
            }
            Response::BenchCompare {
                tolerance_pp,
                warnings,
                regressions,
            } => {
                let mut out = String::new();
                for w in warnings {
                    let _ = writeln!(out, "warning: {w}");
                }
                out.push_str(&regress::render_report(regressions, *tolerance_pp));
                out
            }
            Response::Serve { addr, stats } => {
                let served = stats
                    .get_path("verbs")
                    .and_then(Json::as_obj)
                    .map(|verbs| {
                        verbs
                            .iter()
                            .filter_map(|(_, v)| v.get("requests").and_then(Json::as_f64))
                            .sum::<f64>() as u64
                    })
                    .unwrap_or(0);
                format!("amnesiac-serve on {addr} drained and stopped after {served} request(s)\n")
            }
            Response::Loadgen { snapshot } => {
                let num = |path: &str| {
                    snapshot
                        .get_path(path)
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "loadgen: {} requests scheduled at {} req/s over {} ms (seed {})",
                    num("results.scheduled"),
                    num("config.rate"),
                    num("config.duration_ms"),
                    num("config.seed"),
                );
                let _ = writeln!(
                    out,
                    "  ok {} / completed {} / protocol errors {} — error rate {:.3}%",
                    num("results.ok"),
                    num("results.completed"),
                    num("results.protocol_errors"),
                    num("results.error_rate_pct"),
                );
                let _ = writeln!(
                    out,
                    "  throughput {:.1} req/s over {:.1} ms",
                    num("results.throughput_rps"),
                    num("results.elapsed_ms"),
                );
                let _ = writeln!(
                    out,
                    "  latency ms: p50 {:.3}, p90 {:.3}, p99 {:.3}, p999 {:.3}, max {:.3}",
                    num("results.latency_ms.p50"),
                    num("results.latency_ms.p90"),
                    num("results.latency_ms.p99"),
                    num("results.latency_ms.p999"),
                    num("results.latency_ms.max"),
                );
                if let Some(errors) = snapshot
                    .get_path("results.errors_by_code")
                    .and_then(Json::as_obj)
                {
                    for (code, n) in errors {
                        let _ = writeln!(out, "  error `{code}`: {}", n.as_f64().unwrap_or(0.0));
                    }
                }
                if let Some(verbs) = snapshot.get_path("results.verbs").and_then(Json::as_obj) {
                    for (verb, n) in verbs {
                        let _ = writeln!(out, "  verb `{verb}`: {}", n.as_f64().unwrap_or(0.0));
                    }
                }
                out
            }
            Response::Cluster {
                addr,
                workers,
                stats,
            } => {
                let forwarded = stats.get("forwarded").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                let rerouted = stats.get("rerouted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                format!(
                    "amnesiac-cluster on {addr} drained and stopped: {workers} worker(s), \
                     {forwarded} forwarded, {rerouted} rerouted\n"
                )
            }
            Response::BenchCompareServe {
                tolerance_pp,
                comparison,
                ..
            } => regress::render_serve_report(comparison, *tolerance_pp),
        }
    }

    /// The machine-readable payload for this verb — the exact document
    /// `--json <dir>` writes to `<verb>.json`, and the exact `payload`
    /// object `amnesiac serve` puts on the wire.
    pub fn payload_json(&self) -> Json {
        match self {
            Response::Run { program, result } => Json::obj()
                .with("program", program.as_str())
                .with("result", result.to_json()),
            Response::Disasm { program, listing } => Json::obj()
                .with("program", program.as_str())
                .with("listing", listing.as_str()),
            Response::Trace { program, rendered } => Json::obj()
                .with("program", program.as_str())
                .with("trace", rendered.as_str()),
            Response::Profile { program, profile } => Json::obj()
                .with("program", program.as_str())
                .with("instructions", profile.instructions)
                .with(
                    "sites",
                    profile
                        .loads
                        .values()
                        .map(|site| {
                            let pr = site.probabilities();
                            let mut obj = Json::obj()
                                .with("pc", site.pc as u64)
                                .with("count", site.count)
                                .with("p_l1", pr[0])
                                .with("p_l2", pr[1])
                                .with("p_mem", pr[2])
                                .with("value_locality", site.value_locality());
                            obj = match (&site.tree, site.unswappable) {
                                (Some(t), _) => obj.with("tree_nodes", t.size() as u64),
                                (None, Some(why)) => obj.with("unswappable", format!("{why:?}")),
                                (None, None) => obj,
                            };
                            obj
                        })
                        .collect::<Vec<_>>(),
                ),
            Response::Compile {
                program,
                report,
                listing,
                cache,
            } => {
                let mut report_json = report.to_json();
                if let Some(cache) = cache {
                    report_json.set("cache", cache.clone());
                }
                Json::obj()
                    .with("program", program.as_str())
                    .with("report", report_json)
                    .with("listing", listing.as_str())
            }
            Response::Compare {
                program,
                classic,
                policies,
            } => Json::obj()
                .with("program", program.as_str())
                .with("classic", classic.to_json())
                .with(
                    "policies",
                    policies
                        .iter()
                        .map(|(label, result)| {
                            Json::obj()
                                .with("policy", label.as_str())
                                .with("result", result.to_json())
                                .with("edp_gain_pct", 100.0 * (1.0 - result.edp() / classic.edp()))
                        })
                        .collect::<Vec<_>>(),
                ),
            Response::Encode {
                path,
                bytes,
                instructions,
            } => Json::obj()
                .with("path", path.as_str())
                .with("bytes", *bytes as u64)
                .with("instructions", *instructions as u64),
            Response::VerifyTarget { report, .. } => report.to_json(),
            Response::VerifySweep { sweep } => sweep.to_json(),
            Response::LintTarget { target, report } => Json::obj()
                .with("target", target.as_str())
                .with("report", report.to_json()),
            Response::LintSweep { sweep } => sweep.to_json(),
            Response::Experiments {
                n_benches,
                artifacts,
                ..
            } => {
                let mut docs = Json::obj();
                for (name, json) in artifacts {
                    docs = docs.with(name.as_str(), json.clone());
                }
                Json::obj()
                    .with("n_benches", *n_benches as u64)
                    .with("artifacts", docs)
            }
            Response::BenchSnapshot {
                path,
                n_benches,
                snapshot,
            } => Json::obj()
                .with("path", path.as_str())
                .with("n_benches", *n_benches as u64)
                .with("snapshot", snapshot.clone()),
            Response::BenchCompare {
                tolerance_pp,
                warnings,
                regressions,
            } => regress::comparison_json(regressions, warnings, *tolerance_pp),
            Response::Serve { addr, stats } => Json::obj()
                .with("addr", addr.as_str())
                .with("stats", stats.clone()),
            // The loadgen payload IS the snapshot — `--json` writes it
            // verbatim, so a pinned run commits as `BENCH_serve.json`
            // without post-processing.
            Response::Loadgen { snapshot } => snapshot.clone(),
            Response::Cluster {
                addr,
                workers,
                stats,
            } => Json::obj()
                .with("addr", addr.as_str())
                .with("workers", *workers as u64)
                .with("stats", stats.clone()),
            Response::BenchCompareServe {
                tolerance_pp,
                comparison,
                current,
            } => regress::serve_comparison_json(comparison, *tolerance_pp)
                .with("current", current.clone()),
        }
    }
}
