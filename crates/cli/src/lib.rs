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
//! amnesiac serve [--port <p>] [--workers <n>]          # line-protocol service
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
//! `experiments` drives the full evaluation (test scale unless
//! `--paper-scale`) and writes the machine-readable results directory.
//! The gains are gated elsewhere: the repository benchmark (`perfbench/`)
//! checks every paper-scale cycle count and gain against its exact
//! oracle.
//!
//! `serve` starts the [`amnesiac_serve`] line-protocol service with this
//! crate's [`serve_handler`] plugged in (verbs `compile`, `simulate`,
//! `verify`, `bench`, `experiments`, plus the read-only `disasm` /
//! `profile` / `trace`).
//!
//! `cluster` scales the same service across processes: a router
//! consistent-hashes each request's routing key over `--workers <n>`
//! spawned `amnesiac serve` worker processes, with health probes, a
//! generation-numbered membership view, and re-route on worker loss
//! (DESIGN.md §4g).
//!
//! Programs are referenced either as a path to an `.asm` file or as
//! `bench:<name>` for any of the 33 built-in kernels (at test scale by
//! default; append `--paper-scale` for the evaluation inputs).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use amnesiac_cache::{CompileArtifact, CompileCache, OptionsFingerprint, Source};
use amnesiac_compiler::{compile, CompileError, CompileOptions};
use amnesiac_core::{AmnesicConfig, AmnesicCore, Policy};
use amnesiac_isa::{disassemble, parse_asm, Program};
use amnesiac_profile::profile_program;
use amnesiac_sim::{ClassicCore, CoreConfig};
use amnesiac_telemetry::JsonSink;
use amnesiac_workloads::{workload, Scale};

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
    /// Program reference (a path or `bench:<name>`).
    pub target: Option<String>,
    /// Output path (for `encode`).
    pub output: Option<String>,
    /// Workload scale for built-in benchmarks: `--scale <test|paper>`, or
    /// the `--paper-scale` shorthand (parse rejects both together); test
    /// scale when neither is given.
    pub scale: Scale,
    /// Results directory for machine-readable output (`--json <dir>`).
    pub json_dir: Option<String>,
    /// TCP port for the serve verbs (`--port <p>`; 0 = ephemeral).
    pub port: Option<u16>,
    /// Worker-pool size for the serve verbs (`--workers <n>`).
    pub workers: Option<usize>,
    /// Admission-control bound of `serve` (`--backlog <n>`).
    pub backlog: Option<usize>,
    /// Per-request deadline for the serve verbs (`--timeout-ms <ms>`).
    pub timeout_ms: Option<u64>,
    /// Persistent compile-cache directory (`--cache-dir <dir>`) for the
    /// cacheable verbs (compile, disasm, verify) and the serve verbs,
    /// where it backs the shared in-process cache across restarts.
    pub cache_dir: Option<String>,
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
    Serve,
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

impl From<CompileError> for CliError {
    fn from(e: CompileError) -> CliError {
        CliError::Tool(e.to_string())
    }
}

/// The usage text.
pub const USAGE: &str = "usage: amnesiac <run|disasm|profile|compile|compare> \
<prog.asm | prog.bin | bench:NAME> [--paper-scale]
       amnesiac encode <prog | bench:NAME> <out.bin>
       amnesiac verify [<prog | bench:NAME>] [--json <dir>] [--scale <test|paper>]
       amnesiac lint [<prog | bench:NAME>] [--json <dir>] [--scale <test|paper>]
       amnesiac experiments --json <dir> [--paper-scale]
       amnesiac serve [--port <p>] [--workers <n>] [--backlog <n>] [--timeout-ms <ms>] [--cache-dir <dir>]
       amnesiac cluster [--workers <n>] [--port <p>] [--timeout-ms <ms>] [--cache-dir <dir>]
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
/// with `--paper-scale`, serve-only flags on non-serve verbs, `--backlog`
/// on `cluster`).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut verb = None;
    let mut target = None;
    let mut output = None;
    let mut paper_scale = false;
    let mut scale = None;
    let mut json_dir = None;
    let mut port = None;
    let mut workers = None;
    let mut backlog = None;
    let mut timeout_ms = None;
    let mut cache_dir = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "run" | "disasm" | "profile" | "compile" | "compare" | "encode" | "trace"
            | "verify" | "lint" | "experiments" | "serve" | "cluster"
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
                    "serve" => Verb::Serve,
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
            "--cache-dir" => {
                let dir = flag_value(args, &mut i, arg, "a directory")?;
                set_once(&mut cache_dir, dir.to_string(), arg)?;
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
    let serve_verb = matches!(verb, Verb::Serve | Verb::Cluster);
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
    if verb == Verb::Cluster && backlog.is_some() {
        return Err(CliError::Usage(
            "--backlog only applies to serve, not cluster".into(),
        ));
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
        Verb::Serve | Verb::Cluster if target.is_some() => {
            return Err(CliError::Usage(
                "the serve verbs take flags only — no positional argument".into(),
            ));
        }
        Verb::Verify | Verb::Lint | Verb::Experiments | Verb::Serve | Verb::Cluster => {}
        _ if target.is_none() => {
            return Err(CliError::Usage("missing program".into()));
        }
        _ => {}
    }
    Ok(Command {
        verb,
        target,
        output,
        scale: scale.unwrap_or(if paper_scale {
            Scale::Paper
        } else {
            Scale::Test
        }),
        json_dir,
        port,
        workers,
        backlog,
        timeout_ms,
        cache_dir,
    })
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
        return workload(name, scale)
            .map(|w| w.program)
            .ok_or_else(|| CliError::Tool(format!("unknown benchmark `{name}`")));
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

/// What `target` names, for a cache key: a built-in benchmark by name and
/// scale, or a file, which the cache keys by the program decoded from it.
fn source_of(target: &str, paper_scale: bool) -> Source<'_> {
    match target.strip_prefix("bench:") {
        Some(name) => Source::Bench {
            name,
            paper: paper_scale,
        },
        None => Source::File,
    }
}

/// Executes a command into its structured [`Response`] — the typed core
/// shared by the terminal front-end ([`execute`]) and the service layer
/// ([`serve_handler`]).
///
/// Verb-inherent side effects happen here (`encode` writes its image,
/// `serve`/`cluster` run their servers), but the `--json <dir>` exports
/// do not — those belong to [`execute`]. Failure-shaped outcomes (a dirty
/// `verify` or `lint`) come back as `Ok` responses with
/// [`Response::is_failure`] set, so callers keep the structured data.
///
/// # Errors
///
/// Returns [`CliError::Tool`] when a pipeline stage itself fails
/// (unreadable input, simulator fault, divergence).
pub fn run(command: &Command) -> Result<Response, CliError> {
    // the serve verbs thread their own shared cache through the handler;
    // a one-shot verb compiles through a cache of its own, persistent
    // under `--cache-dir`
    let dir = match command.verb {
        Verb::Compile | Verb::Disasm | Verb::Verify => command.cache_dir.as_deref(),
        _ => None,
    };
    run_with_cache(command, &open_cache(dir)?)
}

/// The persistent compile cache under `dir`, or a memory-only one.
fn open_cache(dir: Option<&str>) -> Result<CompileCache, CliError> {
    match dir {
        Some(dir) => CompileCache::persistent(std::path::Path::new(dir))
            .map_err(|e| CliError::Tool(format!("cannot open cache dir `{dir}`: {e}"))),
        None => Ok(CompileCache::in_memory()),
    }
}

/// [`run`] with an externally owned cache — the entry point the serve
/// handler uses so every request shares one store. This is where a
/// verb's target is checked: a program verb without one, or `experiments`
/// with one, is a usage error, whether it came from [`parse_args`] or off
/// the wire.
pub(crate) fn run_with_cache(
    command: &Command,
    cache: &CompileCache,
) -> Result<Response, CliError> {
    let paper_scale = command.scale == Scale::Paper;
    let target = || {
        command
            .target
            .as_deref()
            .ok_or_else(|| CliError::Usage("missing program".into()))
    };
    let program = || load_program(target()?, paper_scale);
    match command.verb {
        Verb::Experiments if command.target.is_some() => Err(CliError::Usage(
            "experiments runs the whole suite and takes no target".into(),
        )),
        Verb::Experiments => run_experiments(command),
        Verb::Compile => run_compile(command, target()?, cache),
        Verb::Disasm => run_disasm(target()?, paper_scale, cache),
        Verb::Verify => run_verify(command, cache),
        Verb::Lint => run_lint(command, cache),
        Verb::Serve => service::run_serve(command),
        Verb::Cluster => cluster::run_cluster(command),
        Verb::Encode => {
            let out = command
                .output
                .as_deref()
                .ok_or_else(|| CliError::Usage("encode needs an output path".into()))?;
            run_encode(&program()?, out)
        }
        Verb::Trace => run_trace(program()?),
        Verb::Run => run_classic(program()?),
        Verb::Profile => run_profile(program()?),
        Verb::Compare => run_compare(target()?, paper_scale, cache),
    }
}

/// A pipeline stage's failure, as the CLI reports it.
fn tool(e: impl std::fmt::Display) -> CliError {
    CliError::Tool(e.to_string())
}

/// The default compile options with their cache-key fingerprint, built and
/// formatted once per process rather than once per request.
fn default_options() -> &'static (CompileOptions, OptionsFingerprint) {
    static DEFAULT: OnceLock<(CompileOptions, OptionsFingerprint)> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        let options = CompileOptions::default();
        let fingerprint = OptionsFingerprint::of(&options);
        (options, fingerprint)
    })
}

/// Compiles `target` under the default options through the cache, and
/// returns the program's name with the shared artifact. A `bench:` target
/// is keyed by its source first, so a hit builds nothing; profiling (a
/// full observed simulation, the expensive step) runs only on a miss.
/// `loaded` is the target's program when the caller has built it already.
fn compile_cached(
    cache: &CompileCache,
    target: &str,
    paper_scale: bool,
    loaded: Option<Program>,
) -> Result<(Arc<str>, Arc<CompileArtifact>), CliError> {
    let (options, fingerprint) = default_options();
    cache.get_or_compile_source(
        &source_of(target, paper_scale),
        fingerprint,
        || loaded.map_or_else(|| load_program(target, paper_scale), Ok),
        |program| {
            let (profile, _) =
                profile_program(program, &CoreConfig::paper()).map_err(CompileError::Replay)?;
            compile(program, &profile, options)
        },
    )
}

/// The `compile` verb: annotate the target and report every site.
fn run_compile(
    command: &Command,
    target: &str,
    cache: &CompileCache,
) -> Result<Response, CliError> {
    let (program, artifact) = compile_cached(cache, target, command.scale == Scale::Paper, None)?;
    Ok(Response::Compile {
        program: program.to_string(),
        report: artifact.report.clone(),
        listing: disassemble(&artifact.program),
        // counters ride along only on the one-shot `--cache-dir` path;
        // served responses must stay byte-identical hit vs cold
        cache: command.cache_dir.as_ref().map(|_| cache.stats_json()),
    })
}

/// The `disasm` verb: the target's listing, through the cache's listing
/// entries.
fn run_disasm(target: &str, paper_scale: bool, cache: &CompileCache) -> Result<Response, CliError> {
    let (program, listing) = cache.get_or_listing_source(
        &source_of(target, paper_scale),
        || load_program(target, paper_scale),
        disassemble,
    )?;
    Ok(Response::Disasm {
        program: program.to_string(),
        listing: listing.to_string(),
    })
}

/// The `encode` verb: write the program's binary image to `out`.
fn run_encode(program: &Program, out: &str) -> Result<Response, CliError> {
    let bytes = amnesiac_isa::encode_program(program);
    std::fs::write(out, &bytes)
        .map_err(|e| CliError::Tool(format!("cannot write `{out}`: {e}")))?;
    Ok(Response::Encode {
        path: out.to_string(),
        bytes: bytes.len(),
        instructions: program.instructions.len(),
    })
}

/// The `trace` verb: a classic run's retirements, the first 200 shown.
fn run_trace(program: Program) -> Result<Response, CliError> {
    let mut tracer = amnesiac_sim::TraceWriter::new(200);
    ClassicCore::new(CoreConfig::paper())
        .run_observed(&program, &mut tracer)
        .map_err(tool)?;
    Ok(Response::Trace {
        program: program.name,
        rendered: tracer.render(),
    })
}

/// The `run` verb: classic execution.
fn run_classic(program: Program) -> Result<Response, CliError> {
    let result = ClassicCore::new(CoreConfig::paper())
        .run(&program)
        .map_err(tool)?;
    Ok(Response::Run {
        program: program.name,
        result,
    })
}

/// The `profile` verb: the per-load-site profile.
fn run_profile(program: Program) -> Result<Response, CliError> {
    let (profile, _) = profile_program(&program, &CoreConfig::paper()).map_err(tool)?;
    Ok(Response::Profile {
        program: program.name,
        profile,
    })
}

/// The `compare` verb: classic against every amnesic policy, each checked
/// to leave the same memory.
fn run_compare(
    target: &str,
    paper_scale: bool,
    cache: &CompileCache,
) -> Result<Response, CliError> {
    let program = load_program(target, paper_scale)?;
    let classic = ClassicCore::new(CoreConfig::paper())
        .run(&program)
        .map_err(tool)?;
    // the binary `compile` builds for the target, so a compare after a
    // compile (or another compare) profiles and compiles nothing
    let (name, artifact) = compile_cached(cache, target, paper_scale, Some(program))?;
    let mut policies = Vec::new();
    for policy in Policy::ALL_EXTENDED {
        let result = AmnesicCore::new(AmnesicConfig::paper(policy))
            .run(&artifact.program)
            .map_err(tool)?;
        if result.run.final_memory != classic.final_memory {
            return Err(CliError::Tool(format!("{policy} diverged from classic")));
        }
        policies.push((policy.to_string(), result));
    }
    Ok(Response::Compare {
        program: name.to_string(),
        classic,
        policies,
    })
}

/// The `verify` verb: static well-formedness over one target (or, with no
/// target, the whole built-in suite in parallel).
fn run_verify(command: &Command, cache: &CompileCache) -> Result<Response, CliError> {
    use amnesiac_experiments::VerifySweep;

    match command.target.as_deref() {
        Some(target) => {
            // `compile` gated the binary with the verifier's default
            // options, so its report is the verdict; a cache hit carries it.
            let (_, artifact) = compile_cached(cache, target, command.scale == Scale::Paper, None)?;
            Ok(Response::VerifyTarget {
                target: target.to_string(),
                report: artifact.report.verify.clone(),
            })
        }
        None => Ok(Response::VerifySweep {
            sweep: VerifySweep::compute(command.scale),
        }),
    }
}

/// The `lint` verb: abstract-interpretation findings for one target — or,
/// with no target, the whole built-in suite in parallel. Stricter than
/// `verify`: unexplained Warn diagnostics also fail the lint.
fn run_lint(command: &Command, cache: &CompileCache) -> Result<Response, CliError> {
    use amnesiac_experiments::LintSweep;

    match command.target.as_deref() {
        Some(target) => {
            // the compile's report carries the verifier's findings and the
            // replay-validation counters, so a cache hit carries the lint
            let (_, artifact) = compile_cached(cache, target, command.scale == Scale::Paper, None)?;
            Ok(Response::LintTarget {
                target: target.to_string(),
                report: artifact.report.clone(),
            })
        }
        None => Ok(Response::LintSweep {
            sweep: LintSweep::compute(command.scale),
        }),
    }
}

/// The `experiments` verb: the focal suite plus its JSON artifact set.
fn run_experiments(command: &Command) -> Result<Response, CliError> {
    use amnesiac_experiments::{export, EvalSuite};

    let suite = EvalSuite::compute(command.scale);
    let artifacts = export::artifacts(&suite)
        .into_iter()
        .map(|(name, json)| (name.to_string(), json))
        .collect();
    Ok(Response::Experiments {
        dir: command.json_dir.as_deref().map(PathBuf::from),
        n_benches: suite.benches.len(),
        artifacts,
    })
}

/// Executes a command, returning the report text: [`run`] plus the
/// terminal projection ([`Response::render_text`]) plus the
/// `--json <dir>` exports (every verb writes `<verb>.json` with
/// [`Response::payload_json`]; `experiments` writes its artifact set).
///
/// # Errors
///
/// Returns [`CliError::Tool`] when any pipeline stage fails — including a
/// dirty `verify` or `lint`, so the process exits non-zero.
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
    fn the_precomputed_fingerprint_is_the_default_options_debug_text() {
        let (options, fingerprint) = default_options();
        assert_eq!(
            fingerprint.as_str(),
            format!("{:?}", CompileOptions::default())
        );
        assert_eq!(format!("{options:?}"), fingerprint.as_str());
    }

    #[test]
    fn parses_verbs_and_flags() {
        let c = parse_args(&args(&["compare", "bench:is", "--paper-scale"])).unwrap();
        assert_eq!(c.verb, Verb::Compare);
        assert_eq!(c.target.as_deref(), Some("bench:is"));
        assert_eq!(c.scale, Scale::Paper);
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
        // verbs and flags the CLI does not have exit 2 with a usage error
        let absent: &[(&[&str], &str)] = &[
            (
                &["bench-snapshot", "x.json"],
                "unexpected argument `bench-snapshot`",
            ),
            (
                &["bench-compare", "b.json"],
                "unexpected argument `bench-compare`",
            ),
            (
                &["experiments", "--json", "d", "--reps", "3"],
                "unknown flag `--reps`",
            ),
            (
                &["verify", "--tolerance", "1"],
                "unknown flag `--tolerance`",
            ),
            (
                &["loadgen", "--rate", "100"],
                "unexpected argument `loadgen`",
            ),
            (&["serve", "--rate", "100"], "unknown flag `--rate`"),
            (
                &["serve", "--duration-ms", "500"],
                "unknown flag `--duration-ms`",
            ),
            (&["serve", "--seed", "7"], "unknown flag `--seed`"),
            (&["serve", "--mix", "stats=1"], "unknown flag `--mix`"),
        ];
        for (argv, want) in absent {
            match parse_args(&args(argv)) {
                Err(e @ CliError::Usage(_)) => {
                    assert_eq!(e.message(), *want);
                    assert_eq!(e.exit_code(), 2);
                }
                other => panic!("{argv:?}: expected usage error, got {other:?}"),
            }
        }
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
                &["experiments", "--json", "a", "--json", "b"],
                "--json given twice",
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
            "experiments",
            "--json",
            "d",
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
        // the router has no admission backlog of its own
        match parse_args(&args(&["cluster", "--backlog", "4"])) {
            Err(CliError::Usage(msg)) => {
                assert_eq!(msg, "--backlog only applies to serve, not cluster")
            }
            other => panic!("expected usage error, got {other:?}"),
        }
        // a flag in a value position is a missing value, not a value
        match parse_args(&args(&["verify", "--json", "--scale", "test"])) {
            Err(CliError::Usage(msg)) => assert_eq!(msg, "--json needs a directory"),
            other => panic!("expected usage error, got {other:?}"),
        }
        // serve verbs take no positional argument
        for bad in [&["serve", "bench:is"], &["cluster", "stray"]] {
            assert!(
                matches!(parse_args(&args(bad)), Err(CliError::Usage(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn parses_and_validates_the_cache_dir_flag() {
        let c = parse_args(&args(&["compile", "bench:is", "--cache-dir", "/tmp/c"])).unwrap();
        assert_eq!(c.cache_dir.as_deref(), Some("/tmp/c"));
        for verb in ["disasm", "verify", "serve", "cluster"] {
            let argv: Vec<&str> = if matches!(verb, "serve" | "cluster") {
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
    }

    #[test]
    fn parses_and_resolves_the_scale_flag() {
        let c = parse_args(&args(&["verify", "--scale", "paper"])).unwrap();
        assert_eq!(c.scale, Scale::Paper);
        let c = parse_args(&args(&["lint", "--scale", "test"])).unwrap();
        assert_eq!(c.scale, Scale::Test);
        // --paper-scale alone still works, and neither flag means test scale
        let c = parse_args(&args(&["experiments", "--json", "d", "--paper-scale"])).unwrap();
        assert_eq!(c.scale, Scale::Paper);
        let c = parse_args(&args(&["verify"])).unwrap();
        assert_eq!(c.scale, Scale::Test);
        assert!(matches!(
            parse_args(&args(&["verify", "--scale", "huge"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["verify", "--scale"])),
            Err(CliError::Usage(_))
        ));
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
    fn a_command_without_its_program_is_a_usage_error_not_a_panic() {
        // commands built without `parse_args`, as the service builds them
        let base = Command {
            target: None,
            output: Some("never-written.bin".into()),
            ..parse_args(&args(&["run", "bench:is"])).unwrap()
        };
        for verb in [
            Verb::Run,
            Verb::Disasm,
            Verb::Profile,
            Verb::Compile,
            Verb::Compare,
            Verb::Encode,
            Verb::Trace,
        ] {
            let command = Command {
                verb,
                ..base.clone()
            };
            match super::run(&command) {
                Err(e @ CliError::Usage(_)) => assert_eq!(e.message(), "missing program"),
                other => panic!("{verb:?}: expected a usage error, got {other:?}"),
            }
        }
        let command = Command {
            verb: Verb::Encode,
            target: Some("bench:is".into()),
            output: None,
            ..base
        };
        match super::run(&command) {
            Err(e @ CliError::Usage(_)) => assert_eq!(e.message(), "encode needs an output path"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn served_lints_share_the_compile_cache_and_match_the_cli_export() {
        let dir = std::env::temp_dir().join("amnesiac-cli-lint-test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        execute(&parse_args(&args(&["lint", "bench:is", "--json", &dir_str])).unwrap()).unwrap();
        let on_disk =
            amnesiac_telemetry::parse(&std::fs::read_to_string(dir.join("lint.json")).unwrap())
                .unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let cache = Arc::new(CompileCache::in_memory());
        let handler = service::serve_handler_with_cache(Arc::clone(&cache));
        let lint = amnesiac_serve::Request::new("lint").with_target("bench:is");
        for _ in 0..2 {
            assert_eq!(handler(&lint).unwrap(), on_disk);
        }
        // a compile of the same target reads the artifact the lint built
        let compile = amnesiac_serve::Request::new("compile").with_target("bench:is");
        handler(&compile).unwrap();
        let stats = cache.stats_json();
        let count = |field: &str| stats.get(field).and_then(Json::as_f64);
        assert_eq!(
            (count("misses"), count("hits")),
            (Some(1.0), Some(2.0)),
            "{}",
            stats.compact()
        );
    }

    #[test]
    fn served_compares_share_the_compile_cache_and_match_the_cli_export() {
        let dir = std::env::temp_dir().join("amnesiac-cli-compare-test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        execute(&parse_args(&args(&["compare", "bench:is", "--json", &dir_str])).unwrap()).unwrap();
        let on_disk =
            amnesiac_telemetry::parse(&std::fs::read_to_string(dir.join("compare.json")).unwrap())
                .unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let cache = Arc::new(CompileCache::in_memory());
        let handler = service::serve_handler_with_cache(Arc::clone(&cache));
        let compile = amnesiac_serve::Request::new("compile").with_target("bench:is");
        handler(&compile).unwrap();
        // the compare runs the binary the compile built and cached
        let compare = amnesiac_serve::Request::new("compare").with_target("bench:is");
        assert_eq!(handler(&compare).unwrap(), on_disk);
        let stats = cache.stats_json();
        let count = |field: &str| stats.get(field).and_then(Json::as_f64);
        assert_eq!(
            (count("misses"), count("hits")),
            (Some(1.0), Some(1.0)),
            "{}",
            stats.compact()
        );
    }

    #[test]
    fn experiments_with_a_target_is_a_usage_error() {
        let dir = std::env::temp_dir().join("amnesiac-cli-experiments-stray");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        let command = parse_args(&args(&["experiments", "stray", "--json", &dir_str])).unwrap();
        let err = execute(&command).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
        assert!(!dir.exists(), "nothing ran, so nothing was written");

        let handler = service::serve_handler();
        let stray = amnesiac_serve::Request::new("experiments").with_target("stray");
        let err = handler(&stray).unwrap_err();
        assert_eq!(err.code, amnesiac_serve::code::USAGE, "{}", err.message);
    }

    #[test]
    fn missing_file_is_a_tool_error() {
        let cmd = parse_args(&args(&["run", "/no/such/file.asm"])).unwrap();
        assert!(matches!(execute(&cmd), Err(CliError::Tool(_))));
    }
}
