//! The service layer glue: plugs the typed [`crate::run`] core into
//! `amnesiac-serve`.
//!
//! [`serve_handler`] maps wire verbs onto [`Command`]s and returns
//! [`Response::payload_json`] — the same document `--json <dir>` writes
//! — so a socket client and the CLI see identical payloads for the same
//! verb. [`run_serve`] hosts the public service; [`run_serve_smoke`]
//! boots a private server on an ephemeral port and fires a mixed
//! concurrent batch at it, checking every response against the typed
//! core it is supposed to mirror.
//!
//! The loadgen verbs live here too: [`run_loadgen`] boots a private
//! server and drives `amnesiac-loadgen`'s open-loop schedule at it,
//! [`run_loadgen_smoke`] is the CI soak test over that harness, and
//! [`run_bench_compare_serve`] replays a committed `BENCH_serve.json`
//! baseline's exact load and gates the error rate.

use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use amnesiac_cache::CompileCache;
use amnesiac_experiments::regress;
use amnesiac_loadgen::{run_against, LoadgenConfig, Mix};
use amnesiac_serve::{code, Client, Handler, Request, Response as WireResponse, ServeError};
use amnesiac_serve::{Server, ServerConfig, StatsHook, WireVerb};
use amnesiac_telemetry::Json;
use amnesiac_workloads::Scale;

use crate::{CliError, Command, Response, Verb};

/// How many concurrent clients the smoke test drives — the acceptance
/// bar is a mixed batch with zero dropped or mismatched responses.
const SMOKE_CLIENTS: usize = 8;

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
pub(crate) fn serve_cache(command: &Command) -> Result<Arc<CompileCache>, CliError> {
    Ok(Arc::new(match command.cache_dir.as_deref() {
        Some(dir) => CompileCache::persistent(std::path::Path::new(dir))
            .map_err(|e| CliError::Tool(format!("cannot open cache dir `{dir}`: {e}")))?,
        None => CompileCache::in_memory(),
    }))
}

/// The `stats`-payload extension reporting the shared cache's counters.
pub(crate) fn cache_stats_hook(cache: &Arc<CompileCache>) -> Option<StatsHook> {
    let cache = Arc::clone(cache);
    Some(Arc::new(move || {
        Json::obj().with("cache", cache.stats_json())
    }))
}

/// Maps a wire request onto the typed [`Command`] it stands for. The
/// verb vocabulary is the shared [`WireVerb`] enum — the same one the
/// router places with and the load generator draws mixes from — so the
/// three layers cannot drift apart.
pub(crate) fn request_command(request: &Request) -> Result<Command, ServeError> {
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

/// One smoke case: the request to put on the wire and the payload the
/// typed core produces for the equivalent command.
pub(crate) struct SmokeCase {
    pub(crate) request: Request,
    pub(crate) expected: Json,
}

/// The mixed batch every smoke client fires: one request per exposed
/// service verb family, all deterministic (no wall-clock fields), so
/// wire payloads must equal the typed core's documents byte for byte.
/// Shared with the cluster smoke test, where the same batch doubles as
/// the v1-parity proof against the router.
pub(crate) fn smoke_cases() -> Result<Vec<SmokeCase>, CliError> {
    let specs: &[(&str, Option<&str>)] = &[
        ("compile", Some("bench:is")),
        ("simulate", Some("bench:sr")),
        ("verify", Some("bench:is")),
        ("bench", Some("bench:is")),
        ("disasm", Some("bench:cg")),
    ];
    let mut cases = Vec::new();
    for (verb, target) in specs {
        let mut request = Request::new(*verb);
        if let Some(target) = target {
            request = request.with_target(*target);
        }
        let command = request_command(&request)
            .map_err(|e| CliError::Tool(format!("smoke case `{verb}`: {e}")))?;
        let expected = crate::run(&command)?.payload_json();
        cases.push(SmokeCase { request, expected });
    }
    Ok(cases)
}

/// Drives one client through the full mixed batch, pipelined; returns a
/// description of every check that failed.
fn smoke_client(addr: SocketAddr, client_id: usize, cases: &[SmokeCase]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => return vec![format!("client {client_id}: connect failed: {e}")],
    };
    client.set_read_timeout(Some(Duration::from_secs(300))).ok();
    let requests: Vec<Request> = cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            case.request
                .clone()
                .with_id(format!("c{client_id}-{i}-{}", case.request.verb))
        })
        .collect();
    let responses: Vec<WireResponse> = match client.batch(&requests) {
        Ok(responses) => responses,
        Err(e) => return vec![format!("client {client_id}: batch failed: {e}")],
    };
    for ((request, response), case) in requests.iter().zip(&responses).zip(cases) {
        let label = format!("client {client_id} verb `{}`", request.verb);
        if response.id != request.id {
            failures.push(format!(
                "{label}: id `{}` echoed as `{}`",
                request.id.compact(),
                response.id.compact()
            ));
            continue;
        }
        match response.payload() {
            Some(payload) if *payload == case.expected => {}
            Some(_) => failures.push(format!("{label}: payload differs from the typed core")),
            None => failures.push(format!(
                "{label}: error response: {}",
                response
                    .error()
                    .map(|e| format!("{} ({})", e.message, e.code))
                    .unwrap_or_default()
            )),
        }
    }
    failures
}

/// The `serve-smoke` verb: an in-process end-to-end self-test — boots a
/// server on an ephemeral port, drives [`SMOKE_CLIENTS`] concurrent
/// clients through a mixed batch, and checks every wire payload against
/// the typed core plus the server's own statistics.
pub(crate) fn run_serve_smoke(command: &Command) -> Result<Response, CliError> {
    let mut config = server_config(command);
    if command.port.is_none() {
        config.port = 0; // ephemeral: never collide with a real service
    }
    if command.timeout_ms.is_none() {
        config.timeout_ms = 300_000; // generous — the deadline path has its own tests
    }
    let cases = smoke_cases()?;
    let cache = serve_cache(command)?;
    let server = Server::start_with_stats(
        config,
        serve_handler_with_cache(Arc::clone(&cache)),
        cache_stats_hook(&cache),
    )
    .map_err(|e| CliError::Tool(format!("cannot start smoke server: {e}")))?;
    let addr = server.addr();

    let mut checks = 0usize;
    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SMOKE_CLIENTS)
            .map(|client_id| {
                let cases = &cases;
                scope.spawn(move || smoke_client(addr, client_id, cases))
            })
            .collect();
        for handle in handles {
            checks += cases.len();
            match handle.join() {
                Ok(client_failures) => failures.extend(client_failures),
                Err(_) => failures.push("smoke client thread panicked".to_string()),
            }
        }
    });

    // The per-verb counters must account for every request we sent.
    checks += 1;
    let mut admin = Client::connect(addr)
        .map_err(|e| CliError::Tool(format!("cannot connect stats client: {e}")))?;
    match admin.call(&Request::new("stats").with_id("stats")) {
        Ok(response) => match response.payload() {
            Some(payload) => {
                let compiles = payload
                    .get_path("verbs.compile.requests")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as usize;
                if compiles < SMOKE_CLIENTS {
                    failures.push(format!(
                        "stats: saw {compiles} compile requests, expected at least {SMOKE_CLIENTS}"
                    ));
                }
            }
            None => failures.push("stats request answered with an error".to_string()),
        },
        Err(e) => failures.push(format!("stats request failed: {e}")),
    }

    // Unknown verbs must come back as structured usage errors, not
    // dropped connections.
    checks += 1;
    match admin.call(&Request::new("frobnicate").with_id("bad")) {
        Ok(response) => match response.error() {
            Some(error) if error.code == code::USAGE => {}
            Some(error) => failures.push(format!(
                "unknown verb: expected code `{}`, got `{}`",
                code::USAGE,
                error.code
            )),
            None => failures.push("unknown verb unexpectedly succeeded".to_string()),
        },
        Err(e) => failures.push(format!("unknown-verb request failed: {e}")),
    }

    // Cache-path checks. A repeated identical compile must come back
    // byte-identical on the wire (the second answer is a cache hit), the
    // shared cache must report those hits, and a mutated program must
    // miss instead of falsely sharing the original's artifact.
    checks += 1;
    match repeated_compile_wire_lines(addr) {
        Ok((first, second)) if first == second => {}
        Ok((first, second)) => failures.push(format!(
            "cache hit is not byte-identical on the wire: {} vs {} bytes",
            first.len(),
            second.len()
        )),
        Err(e) => failures.push(format!("repeated-compile check failed: {e}")),
    }
    checks += 1;
    match admin.call(&Request::new("stats").with_id("cache-stats")) {
        Ok(response) => {
            let hits = response
                .payload()
                .and_then(|p| p.get_path("cache.hits"))
                .and_then(Json::as_f64)
                .unwrap_or(-1.0);
            if hits < 1.0 {
                failures.push(format!(
                    "stats: cache.hits is {hits}, expected at least 1 after repeated compiles"
                ));
            }
        }
        Err(e) => failures.push(format!("cache-stats request failed: {e}")),
    }
    checks += 1;
    if let Err(e) = mutated_program_misses(&mut admin) {
        failures.push(e);
    }

    let stats = server.stats_json();
    server.stop();
    Ok(Response::ServeSmoke {
        checks,
        failures,
        stats,
    })
}

/// Fires the same `compile` request (same id and all) twice over one raw
/// TCP connection and returns both serialized response payloads — the
/// wire-level byte-identity probe for cache hits. The envelope's
/// `elapsed_ms` is the one legitimately volatile field, so the probe
/// compares the compact `payload` bytes, not the whole line.
fn repeated_compile_wire_lines(addr: SocketAddr) -> Result<(String, String), CliError> {
    use std::io::{BufRead as _, BufReader};

    let request = Request::new("compile")
        .with_target("bench:is")
        .with_id("twin");
    let line = request.to_json().compact();
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| CliError::Tool(format!("connect: {e}")))?;
    stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
    let mut writer = stream
        .try_clone()
        .map_err(|e| CliError::Tool(format!("clone stream: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut answers = Vec::new();
    for _ in 0..2 {
        writeln!(writer, "{line}").map_err(|e| CliError::Tool(format!("send: {e}")))?;
        let mut answer = String::new();
        reader
            .read_line(&mut answer)
            .map_err(|e| CliError::Tool(format!("receive: {e}")))?;
        let payload = amnesiac_telemetry::parse(answer.trim_end())
            .map_err(|e| CliError::Tool(format!("parse response: {e}")))?
            .get("payload")
            .map(Json::compact)
            .ok_or_else(|| CliError::Tool("compile response carried no payload".into()))?;
        answers.push(payload);
    }
    let second = answers.pop().expect("two answers");
    let first = answers.pop().expect("two answers");
    Ok((first, second))
}

/// Compiles a temp `.asm` program, mutates one data word, compiles the
/// mutated file, and reports an error string unless the payloads differ —
/// the no-false-sharing probe for the content-addressed key.
fn mutated_program_misses(admin: &mut Client) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("amnesiac-smoke-mutate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mutation check: mkdir: {e}"))?;
    let path = dir.join("probe.asm");
    let source = include_str!("../../../assets/dotprod.asm");
    let mut compile_at = |source: &str| -> Result<Json, String> {
        std::fs::write(&path, source).map_err(|e| format!("mutation check: write: {e}"))?;
        let request = Request::new("compile")
            .with_target(path.to_string_lossy().as_ref())
            .with_id("mutate");
        let response = admin
            .call(&request)
            .map_err(|e| format!("mutation check: call: {e}"))?;
        response
            .payload()
            .cloned()
            .ok_or_else(|| "mutation check: compile answered with an error".to_string())
    };
    let original = compile_at(source)?;
    // shrink the loop bound: the mutated listing and dynamic counts differ
    let mutated_source = source.replace("li r4, 40960", "li r4, 40704");
    if mutated_source == source {
        return Err("mutation check: probe source did not change".to_string());
    }
    let mutated = compile_at(&mutated_source)?;
    let _ = std::fs::remove_dir_all(&dir);
    if original == mutated {
        return Err(
            "mutation check: mutated program produced the original's payload (false sharing)"
                .to_string(),
        );
    }
    Ok(())
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
pub(crate) fn loadgen_config(command: &Command) -> Result<LoadgenConfig, CliError> {
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

/// The `loadgen-smoke` verb: a fast in-process soak test. Defaults to a
/// few thousand requests of the cheap verbs at high rate, then a second
/// short burst, asserting zero lost requests, monotone server counters,
/// bounded connection-handle tracking, and a sane latency histogram.
pub(crate) fn run_loadgen_smoke(command: &Command) -> Result<Response, CliError> {
    let mut smoke = command.clone();
    smoke.rate.get_or_insert(2_000.0);
    smoke.duration_ms.get_or_insert(1_500);
    smoke
        .mix
        .get_or_insert_with(|| "stats=4,disasm=2,trace=1".to_string());
    smoke.backlog.get_or_insert(8_192);
    smoke.timeout_ms.get_or_insert(60_000);
    let config = loadgen_config(&smoke)?;

    let cache = serve_cache(&smoke)?;
    let server = Server::start_with_stats(
        loadgen_server_config(&smoke),
        serve_handler_with_cache(Arc::clone(&cache)),
        cache_stats_hook(&cache),
    )
    .map_err(|e| CliError::Tool(format!("cannot start smoke server: {e}")))?;
    let soak = run_against(server.addr(), &config)
        .map_err(|e| CliError::Tool(format!("loadgen soak failed: {e}")))?;
    let stats_after_soak = server.stats_json();
    // a second, smaller burst: counters must only grow, and the first
    // burst's connection handles must get reaped as this one arrives
    let burst_config = LoadgenConfig {
        rate: 500.0,
        duration_ms: 300,
        seed: config.seed.wrapping_add(1),
        ..config.clone()
    };
    let burst = run_against(server.addr(), &burst_config)
        .map_err(|e| CliError::Tool(format!("loadgen burst failed: {e}")))?;
    let stats_after_burst = server.stats_json();
    let tracked = server.tracked_connections();
    server.stop();

    let mut checks = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        checks += 1;
        if !ok {
            failures.push(what);
        }
    };

    check(
        soak.scheduled >= 1_000,
        format!("soak too small: {} requests scheduled", soak.scheduled),
    );
    check(
        soak.protocol_errors == 0 && burst.protocol_errors == 0,
        format!(
            "protocol errors: {} in soak, {} in burst",
            soak.protocol_errors, burst.protocol_errors
        ),
    );
    check(
        soak.ok == soak.scheduled && burst.ok == burst.scheduled,
        format!(
            "lost or failed requests: soak {}/{} ok ({:?}), burst {}/{} ok ({:?})",
            soak.ok,
            soak.scheduled,
            soak.errors_by_code,
            burst.ok,
            burst.scheduled,
            burst.errors_by_code
        ),
    );

    // monotone server counters: every verb's request count only grows,
    // and the totals account for both runs exactly
    let verb_requests = |stats: &Json| -> Vec<(String, f64)> {
        stats
            .get("verbs")
            .and_then(Json::as_obj)
            .map(|verbs| {
                verbs
                    .iter()
                    .filter_map(|(verb, v)| {
                        v.get("requests")
                            .and_then(Json::as_f64)
                            .map(|n| (verb.clone(), n))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let first = verb_requests(&stats_after_soak);
    let second = verb_requests(&stats_after_burst);
    let monotone = first.iter().all(|(verb, n_first)| {
        second
            .iter()
            .find(|(v, _)| v == verb)
            .is_some_and(|(_, n_second)| n_second >= n_first)
    });
    check(
        monotone,
        format!("stats counters went backwards: {first:?} then {second:?}"),
    );
    let total_first: f64 = first.iter().map(|(_, n)| n).sum();
    let total_second: f64 = second.iter().map(|(_, n)| n).sum();
    check(
        total_first == soak.scheduled as f64
            && total_second == (soak.scheduled + burst.scheduled) as f64,
        format!(
            "stats totals drifted: {total_first} after soak (sent {}), \
             {total_second} after burst (sent {})",
            soak.scheduled,
            soak.scheduled + burst.scheduled
        ),
    );
    let accept_errors = stats_after_burst
        .get("accept_errors")
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    check(
        accept_errors == 0.0,
        format!("acceptor reported {accept_errors} accept errors"),
    );

    // bounded handle tracking: both runs opened connections; finished
    // handles must have been reaped, not accumulated
    check(
        tracked <= config.connections + burst_config.connections,
        format!(
            "connection handles accumulate: {tracked} tracked after two runs \
             of {} + {} connections",
            config.connections, burst_config.connections
        ),
    );

    // histogram sanity over the soak
    let p50 = soak.latency.quantile(0.50);
    let p90 = soak.latency.quantile(0.90);
    let p99 = soak.latency.quantile(0.99);
    let p999 = soak.latency.quantile(0.999);
    check(
        p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= soak.latency.max(),
        format!(
            "latency quantiles out of order: p50 {p50} p90 {p90} p99 {p99} \
             p999 {p999} max {} (µs)",
            soak.latency.max()
        ),
    );
    check(
        soak.latency.count() == soak.ok,
        format!(
            "histogram holds {} samples for {} ok responses",
            soak.latency.count(),
            soak.ok
        ),
    );

    // the repeated disasm targets in the smoke mix must hit the shared
    // cache — the `stats` payload carries the counters via the hook
    let cache_hits = stats_after_burst
        .get_path("cache.hits")
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    check(
        cache_hits > 0.0,
        format!("shared cache reported {cache_hits} hits after repeated disasm requests"),
    );

    Ok(Response::LoadgenSmoke {
        checks,
        failures,
        snapshot: soak.snapshot(&config),
    })
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
