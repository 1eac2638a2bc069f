//! The service layer glue: plugs the typed [`crate::run`] core into
//! `amnesiac-serve`.
//!
//! [`serve_handler`] maps wire verbs onto [`Command`]s and returns
//! [`Response::payload_json`] — the same document `--json <dir>` writes
//! — so a socket client and the CLI see identical payloads for the same
//! verb. [`run_serve`] hosts the public service.
//!
//! The loadgen verbs live here too: [`run_loadgen`] boots a private
//! server and drives `amnesiac-loadgen`'s open-loop schedule at it, and
//! [`run_bench_compare_serve`] replays a committed `BENCH_serve.json`
//! baseline's exact load and gates the error rate.

use std::io::Write as _;
use std::sync::Arc;

use amnesiac_cache::CompileCache;
use amnesiac_experiments::regress;
use amnesiac_loadgen::{run_against, LoadgenConfig, Mix};
use amnesiac_serve::{code, Handler, Request, ServeError};
use amnesiac_serve::{Server, ServerConfig, StatsHook, WireVerb};
use amnesiac_telemetry::Json;
use amnesiac_workloads::Scale;

use crate::{CliError, Command, Response, Verb};

/// The wire-facing brain: parses a [`Request`] into a [`Command`], runs
/// the typed core, and answers with [`Response::payload_json`].
///
/// Exposed verbs: `compile`, `simulate` (alias `run`), `verify`
/// (sweeps the suite when no target is given), `bench` (alias
/// `compare`), `experiments`, plus the read-only `disasm` / `profile` /
/// `trace`. Failure-shaped outcomes (a dirty `verify`) still answer
/// `ok` with the full structured payload; only pipeline faults become
/// error payloads, carrying [`CliError::code`].
pub fn serve_handler() -> Handler {
    serve_handler_with_cache(Arc::new(CompileCache::in_memory()))
}

/// [`serve_handler`] over an externally owned compile cache, so the
/// embedding layer can share one store across the handler, the `stats`
/// hook, and (for `--cache-dir`) a persistent directory.
pub fn serve_handler_with_cache(cache: Arc<CompileCache>) -> Handler {
    Arc::new(move |request: &Request| {
        let command = request_command(request)?;
        let response = crate::run_with_cache(&command, Some(&cache))
            .map_err(|e| ServeError::new(e.code(), e.message()))?;
        Ok(response.payload_json())
    })
}

/// Builds the shared cache for a serve verb: persistent when the command
/// carries `--cache-dir`, memory-only otherwise.
fn serve_cache(command: &Command) -> Result<Arc<CompileCache>, CliError> {
    Ok(Arc::new(match command.cache_dir.as_deref() {
        Some(dir) => CompileCache::persistent(std::path::Path::new(dir))
            .map_err(|e| CliError::Tool(format!("cannot open cache dir `{dir}`: {e}")))?,
        None => CompileCache::in_memory(),
    }))
}

/// The `stats`-payload extension reporting the shared cache's counters.
fn cache_stats_hook(cache: &Arc<CompileCache>) -> Option<StatsHook> {
    let cache = Arc::clone(cache);
    Some(Arc::new(move || {
        Json::obj().with("cache", cache.stats_json())
    }))
}

/// Maps a wire request onto the typed [`Command`] it stands for. The
/// verb vocabulary is the shared [`WireVerb`] enum — the same one the
/// router places with and the load generator draws mixes from — so the
/// three layers cannot drift apart.
fn request_command(request: &Request) -> Result<Command, ServeError> {
    let verb = match request.wire_verb() {
        Some(WireVerb::Compile) => Verb::Compile,
        Some(WireVerb::Simulate | WireVerb::Run) => Verb::Run,
        Some(WireVerb::Verify) => Verb::Verify,
        Some(WireVerb::Lint) => Verb::Lint,
        Some(WireVerb::Bench | WireVerb::Compare) => Verb::Compare,
        Some(WireVerb::Experiments) => Verb::Experiments,
        Some(WireVerb::Disasm) => Verb::Disasm,
        Some(WireVerb::Profile) => Verb::Profile,
        Some(WireVerb::Trace) => Verb::Trace,
        // The lifecycle verbs are the transport's, not the handler's
        // (`stats`/`shutdown` answer inside `amnesiac-serve`; `drain` /
        // `cluster` inside the router), so reaching the handler with one
        // is a usage error, same as an unknown verb.
        Some(WireVerb::Stats | WireVerb::Shutdown | WireVerb::Drain | WireVerb::Cluster) | None => {
            return Err(ServeError::new(
                code::USAGE,
                format!(
                    "unknown verb `{}`; this server answers compile, simulate, \
                     verify, lint, bench, experiments, disasm, profile, and trace",
                    request.verb
                ),
            ))
        }
    };
    let scale = match request.scale.as_deref() {
        None => None,
        Some("test") => Some(Scale::Test),
        Some("paper") => Some(Scale::Paper),
        Some(other) => {
            return Err(ServeError::bad_request(format!(
                "scale `{other}` is neither `test` nor `paper`"
            )))
        }
    };
    let target = request.target.clone();
    if target.is_none() && !matches!(verb, Verb::Verify | Verb::Lint | Verb::Experiments) {
        return Err(ServeError::bad_request(format!(
            "verb `{}` needs a target (a path or `bench:<name>`)",
            request.verb
        )));
    }
    Ok(Command {
        verb,
        target,
        output: None,
        paper_scale: false,
        scale,
        json_dir: None,
        tolerance: None,
        reps: None,
        port: None,
        workers: None,
        backlog: None,
        timeout_ms: None,
        rate: None,
        duration_ms: None,
        seed: None,
        mix: None,
        cache_dir: None,
        cluster: None,
    })
}

/// Builds the server configuration from the serve flags, keeping the
/// crate defaults for anything not given.
fn server_config(command: &Command) -> ServerConfig {
    let mut config = ServerConfig::default();
    if let Some(port) = command.port {
        config.port = port;
    }
    if let Some(workers) = command.workers {
        config.workers = workers;
    }
    if let Some(backlog) = command.backlog {
        config.backlog = backlog;
    }
    if let Some(timeout_ms) = command.timeout_ms {
        config.timeout_ms = timeout_ms;
    }
    config
}

/// The `serve` verb: host the line-protocol service until a `shutdown`
/// request drains it.
pub(crate) fn run_serve(command: &Command) -> Result<Response, CliError> {
    let config = server_config(command);
    let (workers, backlog, timeout_ms) = (config.workers, config.backlog, config.timeout_ms);
    let cache = serve_cache(command)?;
    let mut server = Server::start_with_stats(
        config,
        serve_handler_with_cache(Arc::clone(&cache)),
        cache_stats_hook(&cache),
    )
    .map_err(|e| CliError::Tool(format!("cannot start server: {e}")))?;
    let addr = server.addr();
    println!(
        "amnesiac-serve listening on {addr} ({workers} workers, backlog {backlog}, \
         timeout {timeout_ms} ms) — send {{\"verb\":\"shutdown\"}} to drain and stop"
    );
    std::io::stdout().flush().ok();
    server.join();
    let stats = server.stats_json();
    Ok(Response::Serve {
        addr: addr.to_string(),
        stats,
    })
}

/// Server tuning for the loadgen verbs' private in-process server.
/// Worker count and backlog are pinned (not derived from the machine)
/// so a committed `BENCH_serve.json` baseline replays against the same
/// service shape everywhere; explicit serve flags still win.
fn loadgen_server_config(command: &Command) -> ServerConfig {
    let mut config = server_config(command);
    if command.workers.is_none() {
        config.workers = 2;
    }
    if command.backlog.is_none() {
        config.backlog = 1024;
    }
    if command.port.is_none() {
        config.port = 0; // ephemeral: never collide with a real service
    }
    config
}

/// Builds the load configuration from the loadgen flags, keeping the
/// crate defaults for anything not given.
fn loadgen_config(command: &Command) -> Result<LoadgenConfig, CliError> {
    let mut config = LoadgenConfig::default();
    if let Some(rate) = command.rate {
        config.rate = rate;
    }
    if let Some(duration_ms) = command.duration_ms {
        config.duration_ms = duration_ms;
    }
    if let Some(seed) = command.seed {
        config.seed = seed;
    }
    if let Some(mix) = command.mix.as_deref() {
        config.mix = Mix::parse(mix).map_err(|e| CliError::Usage(format!("--mix: {e}")))?;
    }
    if let Some(timeout_ms) = command.timeout_ms {
        config.timeout_ms = timeout_ms;
    }
    config.validate().map_err(CliError::Usage)?;
    Ok(config)
}

/// Boots a private server with a shared compile cache, drives `config`'s
/// open-loop load at it twice — a cold burst against the empty cache,
/// then a warm burst replaying the *identical* schedule — and returns the
/// snapshot document for the cold burst with two extra `results` blocks:
/// `cache` (the shared cache's counters after both bursts) and `warm`
/// (the warm burst's outcome). Snapshot schema v4; the comparator keeps
/// accepting v3 baselines, which simply lack the two blocks.
fn drive_loadgen(command: &Command, config: &LoadgenConfig) -> Result<Json, CliError> {
    let cache = serve_cache(command)?;
    let server = Server::start_with_stats(
        loadgen_server_config(command),
        serve_handler_with_cache(Arc::clone(&cache)),
        cache_stats_hook(&cache),
    )
    .map_err(|e| CliError::Tool(format!("cannot start loadgen server: {e}")))?;
    let outcome = (|| {
        let cold = run_against(server.addr(), config)
            .map_err(|e| CliError::Tool(format!("loadgen cold burst failed: {e}")))?;
        let warm = run_against(server.addr(), config)
            .map_err(|e| CliError::Tool(format!("loadgen warm burst failed: {e}")))?;
        Ok((cold, warm))
    })();
    server.stop();
    let (cold, warm) = outcome?;
    let mut snapshot = cold.snapshot(config);
    if let Some(results) = snapshot.get_mut("results") {
        results.set("cache", cache.stats_json());
        results.set(
            "warm",
            Json::obj()
                .with("scheduled", warm.scheduled)
                .with("completed", warm.completed)
                .with("ok", warm.ok)
                .with("protocol_errors", warm.protocol_errors)
                .with("error_rate_pct", warm.error_rate_pct())
                .with("throughput_rps", warm.throughput_rps())
                .with("elapsed_ms", warm.elapsed_ms)
                .with("latency_ms", warm.latency_ms_json()),
        );
    }
    Ok(snapshot)
}

/// The `loadgen` verb: one measured open-loop run against a private
/// in-process server, reported as the snapshot document (which `--json`
/// writes verbatim — commit it as `BENCH_serve.json` to pin a baseline).
/// With `--cluster <n>` the load is driven at a router in front of `n`
/// worker processes instead (see [`crate::cluster`]).
pub(crate) fn run_loadgen(command: &Command) -> Result<Response, CliError> {
    let config = loadgen_config(command)?;
    let snapshot = match command.cluster {
        Some(workers) => crate::cluster::drive_loadgen_cluster(command, &config, workers)?,
        None => drive_loadgen(command, &config)?,
    };
    Ok(Response::Loadgen { snapshot })
}

/// The serve arm of `bench-compare`: replays the committed baseline's
/// exact load config (schedule and all — it is embedded in the
/// snapshot) against a freshly booted server, then gates the error rate
/// while reporting latency deltas as notes.
pub(crate) fn run_bench_compare_serve(
    command: &Command,
    baseline: &Json,
) -> Result<Response, CliError> {
    let config_json = baseline
        .get("config")
        .ok_or_else(|| CliError::Tool("serve baseline has no `config` object".to_string()))?;
    let config = LoadgenConfig::from_json(config_json)
        .map_err(|e| CliError::Tool(format!("serve baseline: {e}")))?;
    let current = drive_loadgen(command, &config)?;
    let tolerance_pp = command.tolerance.unwrap_or(regress::DEFAULT_TOLERANCE_PP);
    let comparison =
        regress::compare_serve(baseline, &current, tolerance_pp).map_err(CliError::Tool)?;
    Ok(Response::BenchCompareServe {
        tolerance_pp,
        comparison,
        current,
    })
}
