//! The service layer glue: plugs the typed [`crate::run`] core into
//! `amnesiac-serve`.
//!
//! [`serve_handler`] maps wire verbs onto [`Command`]s and returns
//! [`Response::payload_json`] — the same document `--json <dir>` writes
//! — so a socket client and the CLI see identical payloads for the same
//! verb. [`run_serve`] hosts the public service.

use std::io::Write as _;
use std::sync::Arc;

use amnesiac_cache::CompileCache;
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
        let response = crate::run_with_cache(&command, &cache)
            .map_err(|e| ServeError::new(e.code(), e.message()))?;
        Ok(response.payload_json())
    })
}

/// Builds the shared cache for a serve verb: persistent when the command
/// carries `--cache-dir`, memory-only otherwise.
fn serve_cache(command: &Command) -> Result<Arc<CompileCache>, CliError> {
    crate::open_cache(command.cache_dir.as_deref()).map(Arc::new)
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
/// router places with and `amnesiac-loadgen`'s mixes draw from — so the
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
        None | Some("test") => Scale::Test,
        Some("paper") => Scale::Paper,
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
        scale,
        json_dir: None,
        port: None,
        workers: None,
        backlog: None,
        timeout_ms: None,
        cache_dir: None,
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
