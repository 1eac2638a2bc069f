#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-cli
//!
//! The `amnesiac` command-line driver: run, disassemble, profile, compile,
//! and policy-compare programs written in the textual assembly format (or
//! any of the built-in benchmark kernels).
//!
//! ```text
//! amnesiac run <prog.asm | prog.bin | bench:NAME>      # classic execution
//! amnesiac disasm <prog.asm | prog.bin | bench:NAME>   # listing
//! amnesiac profile <prog | bench:NAME>                 # load-site report
//! amnesiac compile <prog | bench:NAME>                 # annotate + report
//! amnesiac compare <prog | bench:NAME>                 # classic vs policies
//! amnesiac encode <prog | bench:NAME> <out.bin>        # binary image
//! amnesiac trace <prog | bench:NAME>                   # dynamic trace
//! amnesiac verify [<prog | bench:NAME>] [--json <dir>] # static well-formedness
//! amnesiac lint [<prog | bench:NAME>] [--json <dir>]   # abstract-interpretation lint
//! amnesiac experiments --json <dir>                    # suite + JSON twins
//! amnesiac bench-snapshot <out.json>                   # perf baseline
//! amnesiac bench-compare <baseline.json> [--tolerance <pp>]
//! amnesiac serve [--port <p>] [--workers <n>]          # line-protocol service
//! amnesiac loadgen [--rate <r>] [--duration-ms <ms>] [--seed <n>] [--mix <m>]
//! amnesiac cluster [--workers <n>] [--port <p>]        # router + worker fleet
//! ```
//!
//! Every verb flows through the typed core: [`parse_args`] produces a
//! [`Command`], [`run`] executes it into a structured [`Response`], and
//! the callers project that response — [`execute`] renders the terminal
//! report (plus `--json <dir>` exports through
//! [`amnesiac_telemetry::JsonSink`]), while `amnesiac serve` ships
//! [`Response::payload_json`] over the wire, so a socket client and the
//! CLI see the same document for the same verb.
//!
//! `verify` compiles its target and runs the [`amnesiac_verify`] static
//! analyser over the annotated binary, printing every diagnostic; with no
//! target it sweeps all 33 built-in workloads in parallel and exits
//! non-zero if any Error-severity diagnostic is found (`--json <dir>`
//! additionally writes `verify.json`).
//!
//! The suite verbs drive the full evaluation (test scale unless
//! `--paper-scale`): `experiments` writes the machine-readable results
//! directory, `bench-snapshot` records a perf/gain baseline, and
//! `bench-compare` re-runs the suite and exits non-zero when any gain
//! fell more than the tolerance below the baseline.
//!
//! `serve` starts the [`amnesiac_serve`] line-protocol service with this
//! crate's [`serve_handler`] plugged in (verbs `compile`, `simulate`,
//! `verify`, `bench`, `experiments`, plus the read-only `disasm` /
//! `profile` / `trace`).
//!
//! `loadgen` boots the same service in-process and drives it with an
//! open-loop Poisson schedule ([`amnesiac_loadgen`]): deterministic per
//! `--seed`, weighted across verbs per `--mix`, latencies measured from
//! the *scheduled* send instant into log-bucketed histograms. Its
//! `--json` payload is the serve benchmark snapshot `BENCH_serve.json`
//! pins; `bench-compare` detects a `kind: "serve"` baseline, replays its
//! embedded config, and gates the error rate (latency is
//! informational).
//!
//! `cluster` scales the same service across processes: a router
//! consistent-hashes each request's routing key over `--workers <n>`
//! spawned `amnesiac serve` worker processes, with health probes, a
//! generation-numbered membership view, and re-route on worker loss;
//! `loadgen --cluster <n>` drives the open-loop schedule through the
//! router (DESIGN.md §4g).
//!
//! Programs are referenced either as a path to an `.asm` file or as
//! `bench:<name>` for any of the 33 built-in kernels (at test scale by
//! default; append `--paper-scale` for the evaluation inputs).

use std::fmt::Write as _;
use std::path::PathBuf;

use amnesiac_cache::CompileCache;
use amnesiac_compiler::{compile, compile_cached, CompileOptions};
use amnesiac_core::{AmnesicConfig, AmnesicCore, Policy};
use amnesiac_isa::{disassemble, parse_asm, Program};
use amnesiac_profile::profile_program;
use amnesiac_sim::{ClassicCore, CoreConfig};
use amnesiac_telemetry::JsonSink;
use amnesiac_workloads::{
    build_control, build_extended, build_focal, Scale, CONTROL_NAMES, EXTENDED_NAMES, FOCAL_NAMES,
};

mod cluster;
mod response;
mod service;

pub use response::Response;
pub use service::serve_handler;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// The subcommand verb.
    pub verb: Verb,
    /// Program reference (a path or `bench:<name>`) — or, for the suite
    /// verbs, the snapshot/baseline path.
    pub target: Option<String>,
    /// Output path (for `encode`).
    pub output: Option<String>,
    /// Use paper-scale inputs for built-in benchmarks.
    pub paper_scale: bool,
    /// Explicit workload scale (`--scale <test|paper>`); conflicts with
    /// the `--paper-scale` shorthand (parse rejects both together).
    pub scale: Option<Scale>,
    /// Results directory for machine-readable output (`--json <dir>`).
    pub json_dir: Option<String>,
    /// Regression tolerance in percentage points (`--tolerance <pp>`).
    pub tolerance: Option<f64>,
    /// Timing repetitions for the bench verbs (`--reps <n>`).
    pub reps: Option<usize>,
    /// TCP port for the serve verbs (`--port <p>`; 0 = ephemeral).
    pub port: Option<u16>,
    /// Worker-pool size for the serve verbs (`--workers <n>`).
    pub workers: Option<usize>,
    /// Admission-control bound for the serve verbs (`--backlog <n>`).
    pub backlog: Option<usize>,
    /// Per-request deadline for the serve verbs (`--timeout-ms <ms>`).
    pub timeout_ms: Option<u64>,
    /// Arrival rate for the loadgen verbs (`--rate <req/s>`).
    pub rate: Option<f64>,
    /// Load duration for the loadgen verbs (`--duration-ms <ms>`).
    pub duration_ms: Option<u64>,
    /// Schedule seed for the loadgen verbs (`--seed <n>`).
    pub seed: Option<u64>,
    /// Weighted verb mix for the loadgen verbs (`--mix <verb=w,...>`).
    pub mix: Option<String>,
    /// Persistent compile-cache directory (`--cache-dir <dir>`) for the
    /// cacheable verbs (compile, disasm, verify) and the serve verbs,
    /// where it backs the shared in-process cache across restarts.
    pub cache_dir: Option<String>,
    /// Router mode for `loadgen` (`--cluster <n>`): boot `n` worker
    /// processes behind a router and drive the load at the router
    /// instead of a single in-process server.
    pub cluster: Option<usize>,
}

/// CLI subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // verbs are documented in the module header
pub enum Verb {
    Run,
    Disasm,
    Profile,
    Compile,
    Compare,
    Encode,
    Trace,
    Verify,
    Lint,
    Experiments,
    BenchSnapshot,
    BenchCompare,
    Serve,
    Loadgen,
    Cluster,
}

/// CLI errors (also carry the usage text).
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; print usage.
    Usage(String),
    /// Anything the toolchain reported.
    Tool(String),
}

impl CliError {
    /// Stable machine-readable error code — the same namespace
    /// `amnesiac serve` puts in error payloads
    /// (see [`amnesiac_serve::protocol::code`]).
    pub fn code(&self) -> &'static str {
        match self {
            CliError::Usage(_) => amnesiac_serve::code::USAGE,
            CliError::Tool(_) => amnesiac_serve::code::TOOL,
        }
    }

    /// The process exit code for this error: `2` for usage errors,
    /// `1` for tool failures.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Tool(_) => 1,
        }
    }

    /// The raw message, without the usage text `Display` appends for
    /// [`CliError::Usage`] — what serve error payloads carry.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(msg) | CliError::Tool(msg) => msg,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Tool(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text.
pub const USAGE: &str = "usage: amnesiac <run|disasm|profile|compile|compare> \
<prog.asm | prog.bin | bench:NAME> [--paper-scale]
       amnesiac encode <prog | bench:NAME> <out.bin>
       amnesiac verify [<prog | bench:NAME>] [--json <dir>] [--scale <test|paper>]
       amnesiac lint [<prog | bench:NAME>] [--json <dir>] [--scale <test|paper>]
       amnesiac experiments --json <dir> [--paper-scale]
       amnesiac bench-snapshot <out.json> [--scale <test|paper>] [--reps <n>]
       amnesiac bench-compare <baseline.json> [--tolerance <pp>] [--scale <test|paper>] [--reps <n>] [--json <dir>]
       amnesiac serve [--port <p>] [--workers <n>] [--backlog <n>] [--timeout-ms <ms>] [--cache-dir <dir>]
       amnesiac cluster [--workers <n>] [--port <p>] [--timeout-ms <ms>] [--cache-dir <dir>]
       amnesiac loadgen [--rate <req/s>] [--duration-ms <ms>] [--seed <n>] [--mix <verb=w,...>]
                        [--workers <n>] [--backlog <n>] [--timeout-ms <ms>] [--cluster <n>] [--json <dir>]
  every verb accepts --json <dir> to export its payload as <verb>.json
  compile, disasm, and verify accept --cache-dir <dir>: a persistent
  content-addressed compile cache, reused across process restarts
  built-in benchmarks: 11 focal (mcf sx cg is ca fs fe rt bp bfs sr),
  5 controls, 17 extended (see `amnesiac-workloads`)";

/// Stores `value` into `slot`, rejecting a repeated flag.
fn set_once<T>(slot: &mut Option<T>, value: T, flag: &str) -> Result<(), CliError> {
    if slot.is_some() {
        return Err(CliError::Usage(format!("{flag} given twice")));
    }
    *slot = Some(value);
    Ok(())
}

/// Fetches the value following a flag, rejecting a missing one (end of
/// line or another `--flag` in the value position).
fn flag_value<'a>(
    args: &'a [String],
    i: &mut usize,
    flag: &str,
    what: &str,
) -> Result<&'a str, CliError> {
    *i += 1;
    match args.get(*i) {
        Some(v) if !v.starts_with("--") => Ok(v.as_str()),
        _ => Err(CliError::Usage(format!("{flag} needs {what}"))),
    }
}

/// Parses the argument list (without the binary name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] on unknown verbs, missing targets,
/// unknown flags, duplicated flags, or conflicting flags (`--scale`
/// with `--paper-scale`, serve-only flags on non-serve verbs).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut verb = None;
    let mut target = None;
    let mut output = None;
    let mut paper_scale = false;
    let mut scale = None;
    let mut json_dir = None;
    let mut tolerance = None;
    let mut reps = None;
    let mut port = None;
    let mut workers = None;
    let mut backlog = None;
    let mut timeout_ms = None;
    let mut rate = None;
    let mut duration_ms = None;
    let mut seed = None;
    let mut mix = None;
    let mut cache_dir = None;
    let mut cluster = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "run" | "disasm" | "profile" | "compile" | "compare" | "encode" | "trace"
            | "verify" | "lint" | "experiments" | "bench-snapshot" | "bench-compare" | "serve"
            | "loadgen" | "cluster"
                if verb.is_none() =>
            {
                verb = Some(match arg {
                    "run" => Verb::Run,
                    "disasm" => Verb::Disasm,
                    "profile" => Verb::Profile,
                    "compile" => Verb::Compile,
                    "compare" => Verb::Compare,
                    "trace" => Verb::Trace,
                    "verify" => Verb::Verify,
                    "lint" => Verb::Lint,
                    "experiments" => Verb::Experiments,
                    "bench-snapshot" => Verb::BenchSnapshot,
                    "bench-compare" => Verb::BenchCompare,
                    "serve" => Verb::Serve,
                    "loadgen" => Verb::Loadgen,
                    "cluster" => Verb::Cluster,
                    _ => Verb::Encode,
                });
            }
            "--paper-scale" => {
                if paper_scale {
                    return Err(CliError::Usage("--paper-scale given twice".into()));
                }
                paper_scale = true;
            }
            "--scale" => {
                let raw = flag_value(args, &mut i, arg, "<test|paper>")?;
                let parsed = match raw {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--scale: `{other}` is neither `test` nor `paper`"
                        )))
                    }
                };
                set_once(&mut scale, parsed, arg)?;
            }
            "--json" => {
                let dir = flag_value(args, &mut i, arg, "a directory")?;
                set_once(&mut json_dir, dir.to_string(), arg)?;
            }
            "--tolerance" => {
                let raw = flag_value(args, &mut i, arg, "a value")?;
                let parsed = raw.parse::<f64>().map_err(|_| {
                    CliError::Usage(format!("--tolerance: `{raw}` is not a number"))
                })?;
                set_once(&mut tolerance, parsed, arg)?;
            }
            "--reps" => {
                let raw = flag_value(args, &mut i, arg, "a count")?;
                let parsed = raw
                    .parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("--reps: `{raw}` is not a count")))?;
                if parsed == 0 {
                    return Err(CliError::Usage("--reps must be at least 1".into()));
                }
                set_once(&mut reps, parsed, arg)?;
            }
            "--port" => {
                let raw = flag_value(args, &mut i, arg, "a port number")?;
                let parsed = raw.parse::<u16>().map_err(|_| {
                    CliError::Usage(format!("--port: `{raw}` is not a port number"))
                })?;
                set_once(&mut port, parsed, arg)?;
            }
            "--workers" => {
                let raw = flag_value(args, &mut i, arg, "a count")?;
                let parsed = raw
                    .parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("--workers: `{raw}` is not a count")))?;
                if parsed == 0 {
                    return Err(CliError::Usage("--workers must be at least 1".into()));
                }
                set_once(&mut workers, parsed, arg)?;
            }
            "--backlog" => {
                let raw = flag_value(args, &mut i, arg, "a count")?;
                let parsed = raw
                    .parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("--backlog: `{raw}` is not a count")))?;
                if parsed == 0 {
                    return Err(CliError::Usage("--backlog must be at least 1".into()));
                }
                set_once(&mut backlog, parsed, arg)?;
            }
            "--timeout-ms" => {
                let raw = flag_value(args, &mut i, arg, "milliseconds")?;
                let parsed = raw.parse::<u64>().map_err(|_| {
                    CliError::Usage(format!("--timeout-ms: `{raw}` is not a duration"))
                })?;
                if parsed == 0 {
                    return Err(CliError::Usage("--timeout-ms must be at least 1".into()));
                }
                set_once(&mut timeout_ms, parsed, arg)?;
            }
            "--rate" => {
                let raw = flag_value(args, &mut i, arg, "requests per second")?;
                let parsed = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| {
                        CliError::Usage(format!("--rate: `{raw}` is not a positive rate"))
                    })?;
                set_once(&mut rate, parsed, arg)?;
            }
            "--duration-ms" => {
                let raw = flag_value(args, &mut i, arg, "milliseconds")?;
                let parsed = raw.parse::<u64>().ok().filter(|d| *d > 0).ok_or_else(|| {
                    CliError::Usage(format!("--duration-ms: `{raw}` is not a duration"))
                })?;
                set_once(&mut duration_ms, parsed, arg)?;
            }
            "--seed" => {
                let raw = flag_value(args, &mut i, arg, "a seed")?;
                let parsed = raw
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage(format!("--seed: `{raw}` is not a seed")))?;
                set_once(&mut seed, parsed, arg)?;
            }
            "--mix" => {
                let spec = flag_value(args, &mut i, arg, "a verb=weight list")?;
                set_once(&mut mix, spec.to_string(), arg)?;
            }
            "--cache-dir" => {
                let dir = flag_value(args, &mut i, arg, "a directory")?;
                set_once(&mut cache_dir, dir.to_string(), arg)?;
            }
            "--cluster" => {
                let raw = flag_value(args, &mut i, arg, "a worker count")?;
                let parsed = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| {
                        CliError::Usage(format!("--cluster: `{raw}` is not a worker count"))
                    })?;
                set_once(&mut cluster, parsed, arg)?;
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`")));
            }
            other if verb.is_some() && target.is_none() => target = Some(other.to_string()),
            other if verb == Some(Verb::Encode) && output.is_none() => {
                output = Some(other.to_string())
            }
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
        i += 1;
    }
    let verb = verb.ok_or_else(|| CliError::Usage("missing subcommand".into()))?;
    if paper_scale && scale.is_some() {
        return Err(CliError::Usage(
            "--scale conflicts with --paper-scale; pass one or the other".into(),
        ));
    }
    let loadgen_verb = verb == Verb::Loadgen;
    let serve_verb = matches!(verb, Verb::Serve | Verb::Loadgen | Verb::Cluster);
    if cluster.is_some() && !loadgen_verb {
        return Err(CliError::Usage(
            "--cluster only applies to the loadgen verbs (the cluster verbs size \
             the worker fleet with --workers)"
                .into(),
        ));
    }
    if !serve_verb {
        for (flag, given) in [
            ("--port", port.is_some()),
            ("--workers", workers.is_some()),
            ("--backlog", backlog.is_some()),
            ("--timeout-ms", timeout_ms.is_some()),
        ] {
            if given {
                return Err(CliError::Usage(format!(
                    "{flag} only applies to the serve verbs"
                )));
            }
        }
    }
    if !loadgen_verb {
        for (flag, given) in [
            ("--rate", rate.is_some()),
            ("--duration-ms", duration_ms.is_some()),
            ("--seed", seed.is_some()),
            ("--mix", mix.is_some()),
        ] {
            if given {
                return Err(CliError::Usage(format!(
                    "{flag} only applies to the loadgen verbs"
                )));
            }
        }
    }
    let cacheable = matches!(verb, Verb::Compile | Verb::Disasm | Verb::Verify) || serve_verb;
    if cache_dir.is_some() && !cacheable {
        return Err(CliError::Usage(
            "--cache-dir only applies to the cacheable verbs \
             (compile, disasm, verify) and the serve verbs"
                .into(),
        ));
    }
    match verb {
        Verb::Encode if output.is_none() => {
            return Err(CliError::Usage("encode needs an output path".into()));
        }
        Verb::Experiments if json_dir.is_none() => {
            return Err(CliError::Usage("experiments needs --json <dir>".into()));
        }
        Verb::BenchSnapshot if target.is_none() => {
            return Err(CliError::Usage(
                "bench-snapshot needs an output path".into(),
            ));
        }
        Verb::BenchCompare if target.is_none() => {
            return Err(CliError::Usage(
                "bench-compare needs a baseline path".into(),
            ));
        }
        Verb::Serve | Verb::Loadgen | Verb::Cluster if target.is_some() => {
            return Err(CliError::Usage(
                "the serve verbs take flags only — no positional argument".into(),
            ));
        }
        Verb::Verify
        | Verb::Lint
        | Verb::Experiments
        | Verb::BenchSnapshot
        | Verb::BenchCompare
        | Verb::Serve
        | Verb::Loadgen
        | Verb::Cluster => {}
        _ if target.is_none() => {
            return Err(CliError::Usage("missing program".into()));
        }
        _ => {}
    }
    Ok(Command {
        verb,
        target,
        output,
        paper_scale,
        scale,
        json_dir,
        tolerance,
        reps,
        port,
        workers,
        backlog,
        timeout_ms,
        rate,
        duration_ms,
        seed,
        mix,
        cache_dir,
        cluster,
    })
}

impl Command {
    /// Timing repetitions for the bench verbs: an explicit `--reps` wins,
    /// otherwise the harness default.
    pub fn effective_reps(&self) -> usize {
        self.reps
            .unwrap_or(amnesiac_experiments::pipeline::DEFAULT_TIMING_REPS)
    }

    /// The workload scale to run at: the explicit `--scale`, or the
    /// `--paper-scale` shorthand, or the test-scale default (the parser
    /// rejects the flag pair, so at most one is ever set).
    pub fn effective_scale(&self) -> Scale {
        self.scale.unwrap_or(if self.paper_scale {
            Scale::Paper
        } else {
            Scale::Test
        })
    }
}

/// Loads the target program (an `.asm` file or a built-in benchmark).
///
/// # Errors
///
/// Returns [`CliError::Tool`] for unreadable files, parse errors, or
/// unknown benchmark names.
pub fn load_program(target: &str, paper_scale: bool) -> Result<Program, CliError> {
    if let Some(name) = target.strip_prefix("bench:") {
        let scale = if paper_scale {
            Scale::Paper
        } else {
            Scale::Test
        };
        let workload = if FOCAL_NAMES.contains(&name) {
            build_focal(name, scale)
        } else if CONTROL_NAMES.contains(&name) {
            build_control(name, scale)
        } else if EXTENDED_NAMES.contains(&name) {
            build_extended(name, scale)
        } else {
            return Err(CliError::Tool(format!("unknown benchmark `{name}`")));
        };
        return Ok(workload.program);
    }
    let bytes = std::fs::read(target)
        .map_err(|e| CliError::Tool(format!("cannot read `{target}`: {e}")))?;
    if bytes.starts_with(amnesiac_isa::binary::MAGIC) {
        return amnesiac_isa::decode_program(&bytes)
            .map_err(|e| CliError::Tool(format!("{target}: {e}")));
    }
    let text = String::from_utf8(bytes)
        .map_err(|e| CliError::Tool(format!("{target}: not UTF-8: {e}")))?;
    parse_asm(&text).map_err(|e| CliError::Tool(format!("{target}: {e}")))
}

/// Executes a command into its structured [`Response`] — the typed core
/// shared by the terminal front-end ([`execute`]) and the service layer
/// ([`serve_handler`]).
///
/// Verb-inherent side effects happen here (`encode` writes its image,
/// `bench-snapshot` its baseline, `serve`/`cluster` run their
/// servers), but the `--json <dir>` exports do not — those belong to
/// [`execute`]. Failure-shaped outcomes (a dirty `verify`, a regressed
/// `bench-compare`) come back as `Ok` responses with
/// [`Response::is_failure`] set, so callers keep the structured data.
///
/// # Errors
///
/// Returns [`CliError::Tool`] when a pipeline stage itself fails
/// (unreadable input, simulator fault, divergence).
pub fn run(command: &Command) -> Result<Response, CliError> {
    // the serve verbs thread their own shared cache through the handler;
    // for the one-shot verbs a `--cache-dir` opens the persistent store
    let cache = match (&command.verb, command.cache_dir.as_deref()) {
        (Verb::Compile | Verb::Disasm | Verb::Verify, Some(dir)) => Some(
            CompileCache::persistent(std::path::Path::new(dir))
                .map_err(|e| CliError::Tool(format!("cannot open cache dir `{dir}`: {e}")))?,
        ),
        _ => None,
    };
    run_with_cache(command, cache.as_ref())
}

/// [`run`] with an externally owned cache — the entry point the serve
/// handler uses so every request shares one store.
pub(crate) fn run_with_cache(
    command: &Command,
    cache: Option<&CompileCache>,
) -> Result<Response, CliError> {
    match command.verb {
        Verb::Experiments | Verb::BenchSnapshot | Verb::BenchCompare => run_suite_verb(command),
        Verb::Verify => run_verify(command, cache),
        Verb::Lint => run_lint(command),
        Verb::Serve => service::run_serve(command),
        Verb::Loadgen => service::run_loadgen(command),
        Verb::Cluster => cluster::run_cluster(command),
        _ => run_program_verb(command, cache),
    }
}

/// Compiles through the cache when one is threaded in, plain otherwise.
/// Profiling (a full observed simulation, the expensive step) runs only
/// on a cache miss — a hit serves the artifact without simulating.
fn compile_maybe_cached(
    cache: Option<&CompileCache>,
    program: &Program,
    config: &CoreConfig,
    options: &CompileOptions,
) -> Result<(Program, amnesiac_compiler::CompileReport), amnesiac_compiler::CompileError> {
    let profile = || {
        profile_program(program, config)
            .map(|(profile, _)| profile)
            .map_err(amnesiac_compiler::CompileError::Replay)
    };
    match cache {
        Some(cache) => compile_cached(cache, program, options, profile),
        None => compile(program, &profile()?, options),
    }
}

/// The program verbs: `run`, `disasm`, `profile`, `compile`, `compare`,
/// `encode`, `trace`.
fn run_program_verb(command: &Command, cache: Option<&CompileCache>) -> Result<Response, CliError> {
    let target = command.target.as_deref().expect("parse_args enforced this");
    let program = load_program(target, command.effective_scale() == Scale::Paper)?;
    let config = CoreConfig::paper();
    let tool = |e: &dyn std::fmt::Display| CliError::Tool(e.to_string());
    match command.verb {
        Verb::Encode => {
            let out = command.output.as_deref().expect("parse_args enforced this");
            let bytes = amnesiac_isa::encode_program(&program);
            std::fs::write(out, &bytes)
                .map_err(|e| CliError::Tool(format!("cannot write `{out}`: {e}")))?;
            Ok(Response::Encode {
                path: out.to_string(),
                bytes: bytes.len(),
                instructions: program.instructions.len(),
            })
        }
        Verb::Disasm => {
            let listing = match cache {
                Some(cache) => cache
                    .get_or_listing(&program, || disassemble(&program))
                    .to_string(),
                None => disassemble(&program),
            };
            Ok(Response::Disasm {
                program: program.name.clone(),
                listing,
            })
        }
        Verb::Trace => {
            let mut tracer = amnesiac_sim::TraceWriter::new(200);
            ClassicCore::new(config)
                .run_observed(&program, &mut tracer)
                .map_err(|e| tool(&e))?;
            Ok(Response::Trace {
                program: program.name.clone(),
                rendered: tracer.render(),
            })
        }
        Verb::Run => {
            let result = ClassicCore::new(config)
                .run(&program)
                .map_err(|e| tool(&e))?;
            Ok(Response::Run {
                program: program.name.clone(),
                result,
            })
        }
        Verb::Profile => {
            let (profile, _) = profile_program(&program, &config).map_err(|e| tool(&e))?;
            Ok(Response::Profile {
                program: program.name.clone(),
                profile,
            })
        }
        Verb::Compile => {
            let (binary, report) =
                compile_maybe_cached(cache, &program, &config, &CompileOptions::default())
                    .map_err(|e| tool(&e))?;
            // counters ride along only on the one-shot `--cache-dir` path;
            // served responses must stay byte-identical hit vs cold
            let cache_stats = match (cache, &command.cache_dir) {
                (Some(cache), Some(_)) => Some(cache.stats_json()),
                _ => None,
            };
            Ok(Response::Compile {
                program: program.name.clone(),
                report,
                listing: disassemble(&binary),
                cache: cache_stats,
            })
        }
        Verb::Compare => {
            let classic = ClassicCore::new(config.clone())
                .run(&program)
                .map_err(|e| tool(&e))?;
            let (profile, _) = profile_program(&program, &config).map_err(|e| tool(&e))?;
            let (binary, _) =
                compile(&program, &profile, &CompileOptions::default()).map_err(|e| tool(&e))?;
            let mut policies = Vec::new();
            for policy in Policy::ALL_EXTENDED {
                let result = AmnesicCore::new(AmnesicConfig::paper(policy))
                    .run(&binary)
                    .map_err(|e| tool(&e))?;
                if result.run.final_memory != classic.final_memory {
                    return Err(CliError::Tool(format!("{policy} diverged from classic")));
                }
                policies.push((policy.to_string(), result));
            }
            Ok(Response::Compare {
                program: program.name.clone(),
                classic,
                policies,
            })
        }
        _ => unreachable!("non-program verbs are dispatched before program loading"),
    }
}

/// The `verify` verb: static well-formedness over one target (or, with no
/// target, the whole built-in suite in parallel).
fn run_verify(command: &Command, cache: Option<&CompileCache>) -> Result<Response, CliError> {
    use amnesiac_experiments::VerifySweep;

    match command.target.as_deref() {
        Some(target) => {
            let program = load_program(target, command.effective_scale() == Scale::Paper)?;
            let config = CoreConfig::paper();
            let tool = |e: &dyn std::fmt::Display| CliError::Tool(e.to_string());
            let (binary, _) =
                compile_maybe_cached(cache, &program, &config, &CompileOptions::default())
                    .map_err(|e| tool(&e))?;
            Ok(Response::VerifyTarget {
                target: target.to_string(),
                report: amnesiac_verify::verify(&binary),
            })
        }
        None => Ok(Response::VerifySweep {
            sweep: VerifySweep::compute(command.effective_scale()),
        }),
    }
}

/// The `lint` verb: abstract-interpretation findings for one target — or,
/// with no target, the whole built-in suite in parallel. Stricter than
/// `verify`: unexplained Warn diagnostics also fail the lint.
fn run_lint(command: &Command) -> Result<Response, CliError> {
    use amnesiac_experiments::LintSweep;

    match command.target.as_deref() {
        Some(target) => {
            let program = load_program(target, command.effective_scale() == Scale::Paper)?;
            let config = CoreConfig::paper();
            let tool = |e: &dyn std::fmt::Display| CliError::Tool(e.to_string());
            let (profile, _) = profile_program(&program, &config).map_err(|e| tool(&e))?;
            let (_, report) =
                compile(&program, &profile, &CompileOptions::default()).map_err(|e| tool(&e))?;
            Ok(Response::LintTarget {
                target: target.to_string(),
                report,
            })
        }
        None => Ok(Response::LintSweep {
            sweep: LintSweep::compute(command.effective_scale()),
        }),
    }
}

/// The suite verbs: `experiments`, `bench-snapshot`, `bench-compare`.
fn run_suite_verb(command: &Command) -> Result<Response, CliError> {
    use amnesiac_experiments::{export, regress, EvalSuite};

    let scale = command.effective_scale();
    match command.verb {
        Verb::Experiments => {
            let suite = EvalSuite::compute(scale);
            let mut artifacts: Vec<(String, amnesiac_telemetry::Json)> =
                export::suite_artifacts(&suite)
                    .into_iter()
                    .map(|(name, json)| (name.to_string(), json))
                    .collect();
            artifacts.push(("table1.json".to_string(), export::table1_json()));
            artifacts.push(("table2.json".to_string(), export::table2_json()));
            Ok(Response::Experiments {
                dir: command.json_dir.as_deref().map(PathBuf::from),
                n_benches: suite.benches.len(),
                artifacts,
            })
        }
        Verb::BenchSnapshot => {
            let out_path = command.target.as_deref().expect("parse_args enforced this");
            let suite = EvalSuite::compute_sequential(scale, command.effective_reps());
            let snapshot = regress::snapshot(&suite, scale);
            amnesiac_telemetry::write_json_file(std::path::Path::new(out_path), &snapshot)
                .map_err(|e| CliError::Tool(format!("cannot write `{out_path}`: {e}")))?;
            Ok(Response::BenchSnapshot {
                path: out_path.to_string(),
                n_benches: suite.benches.len(),
                snapshot,
            })
        }
        Verb::BenchCompare => {
            let baseline_path = command.target.as_deref().expect("parse_args enforced this");
            let text = std::fs::read_to_string(baseline_path)
                .map_err(|e| CliError::Tool(format!("cannot read `{baseline_path}`: {e}")))?;
            let baseline = amnesiac_telemetry::parse(&text)
                .map_err(|e| CliError::Tool(format!("{baseline_path}: {e}")))?;
            // A `kind: "serve"` baseline routes to the loadgen replay
            // path instead of the suite sweep.
            if regress::snapshot_kind(&baseline) == "serve" {
                return service::run_bench_compare_serve(command, &baseline);
            }
            let suite = EvalSuite::compute_sequential(scale, command.effective_reps());
            let current = regress::snapshot(&suite, scale);
            let tolerance_pp = command.tolerance.unwrap_or(regress::DEFAULT_TOLERANCE_PP);
            let regressions =
                regress::compare(&baseline, &current, tolerance_pp).map_err(CliError::Tool)?;
            let warnings: Vec<String> = regress::zero_baseline_cells(&baseline)
                .into_iter()
                .map(|cell| {
                    format!(
                        "baseline gain `{cell}` is exactly zero — the gate cannot see \
                         a drop there; consider re-snapshotting with a larger --scale"
                    )
                })
                .collect();
            Ok(Response::BenchCompare {
                tolerance_pp,
                warnings,
                regressions,
            })
        }
        _ => unreachable!("only suite verbs reach run_suite_verb"),
    }
}

/// Executes a command, returning the report text: [`run`] plus the
/// terminal projection ([`Response::render_text`]) plus the `--json
/// <dir>` exports (every verb writes `<verb>.json` with
/// [`Response::payload_json`]; `experiments` writes its artifact set).
///
/// # Errors
///
/// Returns [`CliError::Tool`] when any pipeline stage fails — including a
/// dirty `verify` or a `bench-compare` that finds regressions, so the
/// process exits non-zero.
pub fn execute(command: &Command) -> Result<String, CliError> {
    let response = run(command)?;
    let mut text = response.render_text();
    if let Some(dir) = command.json_dir.as_deref() {
        let sink = JsonSink::new(dir);
        match &response {
            Response::Experiments { artifacts, .. } => {
                for (name, json) in artifacts {
                    sink.write(name, json).map_err(|e| {
                        CliError::Tool(format!("cannot write `{}`: {e}", sink.path(name).display()))
                    })?;
                }
            }
            other => {
                let name = format!("{}.json", other.verb_name());
                let path = sink.write(&name, &other.payload_json()).map_err(|e| {
                    CliError::Tool(format!(
                        "cannot write `{}`: {e}",
                        sink.path(&name).display()
                    ))
                })?;
                let _ = writeln!(text, "wrote {}", path.display());
            }
        }
    }
    if response.is_failure() {
        Err(CliError::Tool(text))
    } else {
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_telemetry::Json;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_verbs_and_flags() {
        let c = parse_args(&args(&["compare", "bench:is", "--paper-scale"])).unwrap();
        assert_eq!(c.verb, Verb::Compare);
        assert_eq!(c.target.as_deref(), Some("bench:is"));
        assert!(c.paper_scale);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(matches!(parse_args(&args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(&args(&["run"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["run", "x", "--bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["frobnicate", "x"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rejects_duplicate_flags_with_specific_errors() {
        let cases: &[(&[&str], &str)] = &[
            (
                &["verify", "--scale", "test", "--scale", "paper"],
                "--scale given twice",
            ),
            (
                &["verify", "--json", "a", "--json", "b"],
                "--json given twice",
            ),
            (
                &[
                    "bench-compare",
                    "b.json",
                    "--tolerance",
                    "1",
                    "--tolerance",
                    "2",
                ],
                "--tolerance given twice",
            ),
            (
                &["bench-snapshot", "o.json", "--reps", "2", "--reps", "3"],
                "--reps given twice",
            ),
            (
                &["run", "bench:is", "--paper-scale", "--paper-scale"],
                "--paper-scale given twice",
            ),
            (
                &["serve", "--port", "1", "--port", "2"],
                "--port given twice",
            ),
            (
                &["serve", "--workers", "1", "--workers", "2"],
                "--workers given twice",
            ),
            (
                &["serve", "--backlog", "1", "--backlog", "2"],
                "--backlog given twice",
            ),
            (
                &["serve", "--timeout-ms", "1", "--timeout-ms", "2"],
                "--timeout-ms given twice",
            ),
        ];
        for (argv, want) in cases {
            match parse_args(&args(argv)) {
                Err(CliError::Usage(msg)) => assert_eq!(msg, *want),
                other => panic!("{argv:?}: expected usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_conflicting_and_misplaced_flags() {
        // --scale vs --paper-scale is a conflict, not a precedence rule
        match parse_args(&args(&[
            "bench-compare",
            "b.json",
            "--paper-scale",
            "--scale",
            "test",
        ])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("conflicts"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        // serve-only flags are rejected elsewhere
        for flag in ["--port", "--workers", "--backlog", "--timeout-ms"] {
            match parse_args(&args(&["run", "bench:is", flag, "4"])) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains("serve"), "{flag}: {msg}")
                }
                other => panic!("{flag}: expected usage error, got {other:?}"),
            }
        }
        // a flag in a value position is a missing value, not a value
        match parse_args(&args(&["verify", "--json", "--scale", "test"])) {
            Err(CliError::Usage(msg)) => assert_eq!(msg, "--json needs a directory"),
            other => panic!("expected usage error, got {other:?}"),
        }
        // serve verbs take no positional argument
        assert!(matches!(
            parse_args(&args(&["serve", "bench:is"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_and_validates_the_cache_dir_flag() {
        let c = parse_args(&args(&["compile", "bench:is", "--cache-dir", "/tmp/c"])).unwrap();
        assert_eq!(c.cache_dir.as_deref(), Some("/tmp/c"));
        for verb in ["disasm", "verify", "serve", "loadgen", "cluster"] {
            let argv: Vec<&str> = if matches!(verb, "serve" | "loadgen" | "cluster") {
                vec![verb, "--cache-dir", "/tmp/c"]
            } else {
                vec![verb, "bench:is", "--cache-dir", "/tmp/c"]
            };
            let c = parse_args(&args(&argv)).unwrap_or_else(|e| panic!("{verb}: {e:?}"));
            assert_eq!(c.cache_dir.as_deref(), Some("/tmp/c"), "{verb}");
        }
        // duplicate flag
        match parse_args(&args(&[
            "compile",
            "bench:is",
            "--cache-dir",
            "a",
            "--cache-dir",
            "b",
        ])) {
            Err(CliError::Usage(msg)) => assert_eq!(msg, "--cache-dir given twice"),
            other => panic!("expected usage error, got {other:?}"),
        }
        // missing value
        match parse_args(&args(&["compile", "bench:is", "--cache-dir"])) {
            Err(CliError::Usage(msg)) => assert_eq!(msg, "--cache-dir needs a directory"),
            other => panic!("expected usage error, got {other:?}"),
        }
        // non-cacheable verbs reject it
        match parse_args(&args(&["run", "bench:is", "--cache-dir", "/tmp/c"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("cacheable"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_serve_flags() {
        let c = parse_args(&args(&[
            "serve",
            "--port",
            "9191",
            "--workers",
            "3",
            "--backlog",
            "32",
            "--timeout-ms",
            "1500",
        ]))
        .unwrap();
        assert_eq!(c.verb, Verb::Serve);
        assert_eq!(c.port, Some(9191));
        assert_eq!(c.workers, Some(3));
        assert_eq!(c.backlog, Some(32));
        assert_eq!(c.timeout_ms, Some(1500));
        for bad in [
            &["serve", "--port", "70000"][..],
            &["serve", "--workers", "0"],
            &["serve", "--backlog", "0"],
            &["serve", "--timeout-ms", "0"],
        ] {
            assert!(matches!(parse_args(&args(bad)), Err(CliError::Usage(_))));
        }
    }

    #[test]
    fn parses_suite_verbs() {
        let c = parse_args(&args(&["experiments", "--json", "results"])).unwrap();
        assert_eq!(c.verb, Verb::Experiments);
        assert_eq!(c.json_dir.as_deref(), Some("results"));
        assert!(matches!(
            parse_args(&args(&["experiments"])),
            Err(CliError::Usage(_))
        ));
        let c = parse_args(&args(&[
            "bench-compare",
            "base.json",
            "--tolerance",
            "0.25",
        ]))
        .unwrap();
        assert_eq!(c.verb, Verb::BenchCompare);
        assert_eq!(c.target.as_deref(), Some("base.json"));
        assert_eq!(c.tolerance, Some(0.25));
        assert!(matches!(
            parse_args(&args(&["bench-snapshot"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["bench-compare", "x", "--tolerance", "abc"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_and_resolves_the_scale_flag() {
        let c = parse_args(&args(&["bench-snapshot", "out.json", "--scale", "paper"])).unwrap();
        assert_eq!(c.scale, Some(Scale::Paper));
        assert_eq!(c.effective_scale(), Scale::Paper);
        let c = parse_args(&args(&["bench-snapshot", "out.json", "--scale", "test"])).unwrap();
        assert_eq!(c.effective_scale(), Scale::Test);
        // --paper-scale alone still works
        let c = parse_args(&args(&["bench-snapshot", "out.json", "--paper-scale"])).unwrap();
        assert_eq!(c.effective_scale(), Scale::Paper);
        assert!(matches!(
            parse_args(&args(&["bench-snapshot", "out.json", "--scale", "huge"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["bench-snapshot", "out.json", "--scale"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_and_resolves_the_reps_flag() {
        let c = parse_args(&args(&["bench-snapshot", "out.json", "--reps", "9"])).unwrap();
        assert_eq!(c.reps, Some(9));
        assert_eq!(c.effective_reps(), 9);
        // default when the flag is absent
        let c = parse_args(&args(&["bench-snapshot", "out.json"])).unwrap();
        assert_eq!(
            c.effective_reps(),
            amnesiac_experiments::pipeline::DEFAULT_TIMING_REPS
        );
        for bad in [
            &["bench-snapshot", "out.json", "--reps", "zero"][..],
            &["bench-snapshot", "out.json", "--reps", "0"],
            &["bench-snapshot", "out.json", "--reps"],
        ] {
            assert!(matches!(parse_args(&args(bad)), Err(CliError::Usage(_))));
        }
    }

    #[test]
    fn error_codes_and_exit_codes_are_stable() {
        let usage = CliError::Usage("bad flag".into());
        assert_eq!(usage.code(), "usage");
        assert_eq!(usage.exit_code(), 2);
        assert_eq!(usage.message(), "bad flag");
        // Display appends the usage text; message() stays raw
        assert!(usage.to_string().contains("usage: amnesiac"));
        let tool = CliError::Tool("sim fault".into());
        assert_eq!(tool.code(), "tool");
        assert_eq!(tool.exit_code(), 1);
        assert_eq!(tool.message(), "sim fault");
        assert_eq!(tool.to_string(), "sim fault");
    }

    #[test]
    fn snapshot_then_compare_is_clean_and_catches_doctored_baselines() {
        let dir = std::env::temp_dir().join("amnesiac-cli-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let baseline_str = baseline.to_string_lossy().into_owned();

        let snap_cmd = parse_args(&args(&["bench-snapshot", &baseline_str])).unwrap();
        assert!(execute(&snap_cmd).unwrap().contains("wrote bench baseline"));

        // gains are deterministic, so a fresh run matches its own baseline
        let cmp_cmd = parse_args(&args(&["bench-compare", &baseline_str])).unwrap();
        assert!(execute(&cmp_cmd).unwrap().contains("OK"));

        // inflate one baseline gain: the fresh run must now look regressed
        let mut doc =
            amnesiac_telemetry::parse(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
        let benches = doc.get_mut("benches").unwrap();
        let (first, _) = {
            let fields = benches.as_obj().unwrap();
            (fields[0].0.clone(), ())
        };
        let gains = benches
            .get_mut(&first)
            .and_then(|b| b.get_mut("gains"))
            .and_then(|g| g.get_mut("Compiler"))
            .unwrap();
        let old = gains
            .get("edp_gain_pct")
            .and_then(amnesiac_telemetry::Json::as_f64)
            .unwrap();
        gains.set("edp_gain_pct", old + 50.0);
        std::fs::write(&baseline, doc.pretty()).unwrap();
        assert!(matches!(execute(&cmp_cmd), Err(CliError::Tool(_))));
        std::fs::remove_file(&baseline).ok();
    }

    #[test]
    fn experiments_writes_the_results_dir() {
        let dir = std::env::temp_dir().join("amnesiac-cli-results-test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        let cmd = parse_args(&args(&["experiments", "--json", &dir_str])).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("artifacts"));
        for name in ["fig3.json", "table4.json", "suite.json", "table2.json"] {
            let text = std::fs::read_to_string(dir.join(name)).expect(name);
            amnesiac_telemetry::parse(&text).expect(name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_verb_parses_with_and_without_a_target() {
        let c = parse_args(&args(&["verify", "bench:is"])).unwrap();
        assert_eq!(c.verb, Verb::Verify);
        assert_eq!(c.target.as_deref(), Some("bench:is"));
        // no target = suite sweep mode
        let c = parse_args(&args(&["verify", "--json", "out", "--scale", "test"])).unwrap();
        assert_eq!(c.verb, Verb::Verify);
        assert_eq!(c.target, None);
        assert_eq!(c.json_dir.as_deref(), Some("out"));
    }

    #[test]
    fn verifies_a_builtin_benchmark_and_writes_json() {
        let dir = std::env::temp_dir().join("amnesiac-cli-verify-test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        let cmd = parse_args(&args(&["verify", "bench:is", "--json", &dir_str])).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("0 error(s)"), "output: {out}");
        let text = std::fs::read_to_string(dir.join("verify.json")).unwrap();
        let json = amnesiac_telemetry::parse(&text).unwrap();
        assert_eq!(
            json.get("clean"),
            Some(&amnesiac_telemetry::Json::Bool(true))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runs_a_builtin_benchmark() {
        let cmd = parse_args(&args(&["run", "bench:is"])).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("halted"));
        assert!(out.contains("EDP"));
    }

    #[test]
    fn every_verbs_json_export_equals_its_payload() {
        let dir = std::env::temp_dir().join("amnesiac-cli-payload-test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        for (argv, file) in [
            (&["run", "bench:is"][..], "run.json"),
            (&["compile", "bench:is"], "compile.json"),
            (&["compare", "bench:is"], "compare.json"),
            (&["verify", "bench:is"], "verify.json"),
        ] {
            let mut with_json: Vec<&str> = argv.to_vec();
            with_json.extend(["--json", &dir_str]);
            let cmd = parse_args(&args(&with_json)).unwrap();
            let text = execute(&cmd).unwrap();
            assert!(text.contains("wrote"), "{argv:?}: {text}");
            let on_disk =
                amnesiac_telemetry::parse(&std::fs::read_to_string(dir.join(file)).unwrap())
                    .unwrap();
            let payload = super::run(&cmd).unwrap().payload_json();
            assert_eq!(on_disk, payload, "{argv:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_text_matches_the_historical_run_format() {
        let cmd = parse_args(&args(&["run", "bench:is"])).unwrap();
        let response = super::run(&cmd).unwrap();
        let text = response.render_text();
        assert!(text.starts_with("program `"), "{text}");
        assert_eq!(text, execute(&cmd).unwrap());
        assert_eq!(response.verb_name(), "run");
        assert!(!response.is_failure());
    }

    #[test]
    fn compares_policies_on_a_builtin() {
        let cmd = parse_args(&args(&["compare", "bench:is"])).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("classic"));
        assert!(out.contains("Predictor"));
    }

    #[test]
    fn profiles_and_compiles_builtins() {
        for verb in ["profile", "compile", "disasm"] {
            let cmd = parse_args(&args(&[verb, "bench:sr"])).unwrap();
            let out = execute(&cmd).unwrap();
            assert!(!out.is_empty(), "{verb}");
        }
    }

    #[test]
    fn encode_then_run_binary_image_roundtrips() {
        let dir = std::env::temp_dir().join("amnesiac-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bin_path = dir.join("is.bin");
        let bin_str = bin_path.to_string_lossy().into_owned();
        let cmd = parse_args(&args(&["encode", "bench:is", &bin_str])).unwrap();
        let report = execute(&cmd).unwrap();
        assert!(report.contains("wrote"));
        // run the image and compare against the built-in run
        let from_image = execute(&parse_args(&args(&["run", &bin_str])).unwrap()).unwrap();
        let from_builtin = execute(&parse_args(&args(&["run", "bench:is"])).unwrap()).unwrap();
        assert_eq!(from_image, from_builtin);
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn runs_an_asm_file_from_disk() {
        let dir = std::env::temp_dir().join("amnesiac-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let asm_path = dir.join("tiny.asm");
        std::fs::write(
            &asm_path,
            ".name tiny\n.output 0x1000 1\nli r1, 0x1000\nli r2, 9\nst r2, [r1+0]\nhalt\n",
        )
        .unwrap();
        let path = asm_path.to_string_lossy().into_owned();
        let out = execute(&parse_args(&args(&["run", &path])).unwrap()).unwrap();
        assert!(out.contains("out[0x1000] = 0x9"), "{out}");
        std::fs::remove_file(&asm_path).ok();
    }

    #[test]
    fn trace_renders_retirements() {
        let cmd = parse_args(&args(&["trace", "bench:bfs"])).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("pc "));
        assert!(out.contains("elided"), "bfs retires more than 200 insts");
    }

    #[test]
    fn encode_without_output_is_usage_error() {
        assert!(matches!(
            parse_args(&args(&["encode", "bench:is"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_benchmark_is_a_tool_error() {
        let cmd = parse_args(&args(&["run", "bench:nope"])).unwrap();
        assert!(matches!(execute(&cmd), Err(CliError::Tool(_))));
    }

    #[test]
    fn missing_file_is_a_tool_error() {
        let cmd = parse_args(&args(&["run", "/no/such/file.asm"])).unwrap();
        assert!(matches!(execute(&cmd), Err(CliError::Tool(_))));
    }

    #[test]
    fn parses_loadgen_flags() {
        let c = parse_args(&args(&[
            "loadgen",
            "--rate",
            "250.5",
            "--duration-ms",
            "800",
            "--seed",
            "9",
            "--mix",
            "compile=2,stats=1",
            "--timeout-ms",
            "5000",
        ]))
        .unwrap();
        assert_eq!(c.verb, Verb::Loadgen);
        assert_eq!(c.rate, Some(250.5));
        assert_eq!(c.duration_ms, Some(800));
        assert_eq!(c.seed, Some(9));
        assert_eq!(c.mix.as_deref(), Some("compile=2,stats=1"));
        assert_eq!(c.timeout_ms, Some(5000));

        // bare verbs parse with every flag defaulted
        let c = parse_args(&args(&["loadgen"])).unwrap();
        assert_eq!(c.verb, Verb::Loadgen);
        assert_eq!(c.rate, None);

        // malformed values are usage errors
        for bad in [
            &["loadgen", "--rate", "0"][..],
            &["loadgen", "--rate", "nan"],
            &["loadgen", "--rate", "-3"],
            &["loadgen", "--duration-ms", "0"],
            &["loadgen", "--seed", "x"],
            &["loadgen", "--rate", "100", "--rate", "200"],
        ] {
            assert!(
                matches!(parse_args(&args(bad)), Err(CliError::Usage(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn loadgen_flags_are_rejected_elsewhere_and_positionals_on_loadgen() {
        for bad in [
            &["run", "bench:is", "--rate", "100"][..],
            &["serve", "--duration-ms", "100"],
            &["bench-compare", "base.json", "--seed", "1"],
            &["verify", "--mix", "stats=1"],
            &["loadgen", "bench:is"],
            &["cluster", "stray"],
        ] {
            assert!(
                matches!(parse_args(&args(bad)), Err(CliError::Usage(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn snapshot_schema_versions_stay_in_lockstep() {
        // loadgen cannot depend on experiments, so the serve-snapshot
        // schema version is pinned in both crates; this is the tripwire
        // that keeps them moving together.
        assert_eq!(
            amnesiac_loadgen::SNAPSHOT_SCHEMA_VERSION,
            amnesiac_experiments::regress::SCHEMA_VERSION
        );
    }

    #[test]
    fn loadgen_schedule_replays_deterministically() {
        let cmd = parse_args(&args(&[
            "loadgen",
            "--rate",
            "300",
            "--duration-ms",
            "300",
            "--seed",
            "7",
            "--mix",
            "stats=1",
        ]))
        .unwrap();
        let snapshot = |response: Response| match response {
            Response::Loadgen { snapshot } => snapshot,
            other => panic!("expected a loadgen response, got {other:?}"),
        };
        let first = snapshot(super::run(&cmd).unwrap());
        let second = snapshot(super::run(&cmd).unwrap());
        // config and the seeded schedule replay exactly; wall-clock
        // numbers (latency, throughput) legitimately differ
        assert_eq!(first.get("config"), second.get("config"));
        assert_eq!(
            first.get_path("results.scheduled"),
            second.get_path("results.scheduled")
        );
        assert_eq!(
            first.get_path("results.verbs"),
            second.get_path("results.verbs")
        );
        assert_eq!(
            first
                .get_path("results.protocol_errors")
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn bench_compare_gates_a_serve_baseline() {
        let dir = std::env::temp_dir().join("amnesiac-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("bench_serve_test.json");
        let baseline_str = baseline.to_string_lossy().into_owned();

        let loadgen_cmd = parse_args(&args(&[
            "loadgen",
            "--rate",
            "300",
            "--duration-ms",
            "300",
            "--seed",
            "7",
            "--mix",
            "stats=1",
        ]))
        .unwrap();
        let snapshot = match super::run(&loadgen_cmd).unwrap() {
            Response::Loadgen { snapshot } => snapshot,
            other => panic!("expected a loadgen response, got {other:?}"),
        };
        std::fs::write(&baseline, snapshot.pretty()).unwrap();

        // a fresh replay of the embedded config stays within tolerance
        let cmp_cmd = parse_args(&args(&["bench-compare", &baseline_str])).unwrap();
        let response = super::run(&cmp_cmd).unwrap();
        match &response {
            Response::BenchCompareServe { comparison, .. } => {
                assert!(comparison.ok(), "clean replay must gate clean");
                assert!(!comparison.notes.is_empty(), "latency notes expected");
            }
            other => panic!("expected a serve comparison, got {other:?}"),
        }
        assert!(!response.is_failure());

        // an impossibly good baseline error rate makes the gate trip
        let mut doc = snapshot.clone();
        doc.get_mut("results")
            .unwrap()
            .set("error_rate_pct", -1.0f64);
        std::fs::write(&baseline, doc.pretty()).unwrap();
        let response = super::run(&cmp_cmd).unwrap();
        assert!(response.is_failure(), "error-rate rise must gate");

        // a doctored scheduled count means the replay diverged: hard error
        let mut doc = snapshot.clone();
        doc.get_mut("results").unwrap().set("scheduled", 1u64);
        std::fs::write(&baseline, doc.pretty()).unwrap();
        assert!(matches!(super::run(&cmp_cmd), Err(CliError::Tool(_))));

        std::fs::remove_file(&baseline).ok();
    }
}
