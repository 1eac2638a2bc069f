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
use amnesiac_experiments::{LintSweep, VerifySweep};
use amnesiac_profile::ProgramProfile;
use amnesiac_sim::RunResult;
use amnesiac_telemetry::{Json, ToJson};
use amnesiac_verify::VerifyReport;

/// The structured outcome of one verb.
///
/// Failure-shaped outcomes (a dirty `verify` or `lint`) are still `Ok`
/// responses from [`crate::run`] — [`Response::is_failure`] tells the
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
    /// `serve`: the service drained and stopped.
    Serve {
        /// The address the server was bound to.
        addr: String,
        /// Final statistics snapshot.
        stats: Json,
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
            Response::Serve { .. } => "serve",
            Response::Cluster { .. } => "cluster",
        }
    }

    /// Whether this outcome should make the process exit non-zero
    /// (a dirty `verify` or `lint`).
    pub fn is_failure(&self) -> bool {
        match self {
            Response::VerifyTarget { report, .. } => !report.is_clean(),
            Response::VerifySweep { sweep } => !sweep.is_clean(),
            Response::LintTarget { report, .. } => {
                !report.verify.is_clean() || report.verify.unexplained_warn_count() > 0
            }
            Response::LintSweep { sweep } => !sweep.is_clean(),
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
            Response::Serve { addr, stats } => Json::obj()
                .with("addr", addr.as_str())
                .with("stats", stats.clone()),
            Response::Cluster {
                addr,
                workers,
                stats,
            } => Json::obj()
                .with("addr", addr.as_str())
                .with("workers", *workers as u64)
                .with("stats", stats.clone()),
        }
    }
}
