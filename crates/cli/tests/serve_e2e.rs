//! End-to-end socket tests for `amnesiac serve` with the real handler:
//! the wire payloads must mirror the typed `run()` core (and therefore
//! the CLI's `--json` artifacts), and the service semantics — deadlines,
//! backpressure, drain-on-shutdown, the shared compile cache, counters
//! under load — must hold under the real workload costs, not just the
//! toy handler `amnesiac-serve` tests with. The tests that read the
//! cache counters from `stats` run the built `amnesiac serve` process,
//! which is what attaches them.

mod common;

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use amnesiac_cli::{execute, parse_args, serve_handler};
use amnesiac_loadgen::{run_against, LoadgenConfig, Mix};
use amnesiac_serve::{code, Client, ClientPool, Request, Server, ServerConfig};
use amnesiac_telemetry::Json;
use common::{mixed_batch, spawn_listening};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn start(workers: usize, backlog: usize, timeout_ms: u64) -> Server {
    let config = ServerConfig {
        port: 0,
        workers,
        backlog,
        timeout_ms,
        ..ServerConfig::default()
    };
    Server::start(config, serve_handler()).expect("server starts")
}

#[test]
fn socket_payload_equals_the_cli_json_artifact() {
    let dir = std::env::temp_dir().join("amnesiac-serve-parity-test");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_string_lossy().into_owned();

    // CLI side: `amnesiac compile bench:is --json <dir>` writes compile.json.
    let cmd = parse_args(&args(&["compile", "bench:is", "--json", &dir_str])).unwrap();
    execute(&cmd).unwrap();
    let on_disk =
        amnesiac_telemetry::parse(&std::fs::read_to_string(dir.join("compile.json")).unwrap())
            .unwrap();

    // Wire side: the same verb over a pooled connection answers the same
    // document (the pool round-robins its lanes, so the two calls below
    // travel different connections and must still agree).
    let server = start(2, 16, 120_000);
    let mut pool = ClientPool::builder(server.addr())
        .lanes(2)
        .attempts(3)
        .backoff(Duration::from_millis(5), Duration::from_millis(50))
        .read_timeout(Some(Duration::from_secs(120)))
        .build()
        .unwrap();
    let response = pool
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_id(1u64),
        )
        .unwrap();
    assert!(response.is_ok(), "error: {:?}", response.error());
    assert_eq!(response.payload().unwrap(), &on_disk);

    // Same story for verify (a different payload family).
    let cmd = parse_args(&args(&["verify", "bench:is", "--json", &dir_str])).unwrap();
    execute(&cmd).unwrap();
    let on_disk =
        amnesiac_telemetry::parse(&std::fs::read_to_string(dir.join("verify.json")).unwrap())
            .unwrap();
    let response = pool
        .call(&Request::new("verify").with_target("bench:is").with_id(2u64))
        .unwrap();
    assert!(response.is_ok());
    assert_eq!(response.payload().unwrap(), &on_disk);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends the same request line twice on one raw connection and returns
/// both compact `payload` strings: the envelope's `elapsed_ms` is the one
/// field allowed to differ between two answers to one request.
fn twice_on_the_wire(addr: SocketAddr, request: &Request) -> (String, String) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let line = request.to_json().compact();
    let mut payload = || {
        writeln!(writer, "{line}").unwrap();
        let mut answer = String::new();
        reader.read_line(&mut answer).unwrap();
        amnesiac_telemetry::parse(answer.trim_end())
            .unwrap()
            .get("payload")
            .expect("compile answered a payload")
            .compact()
    };
    (payload(), payload())
}

fn stat(stats: &Json, path: &str) -> f64 {
    stats
        .get_path(path)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats lack `{path}`: {}", stats.compact()))
}

#[test]
fn eight_concurrent_clients_complete_a_mixed_batch_without_mismatches() {
    // The acceptance harness for the service: the built `serve` process,
    // 8 concurrent clients, a pipelined mixed batch each, every payload
    // checked against the typed core; then the compile cache's rules on
    // the wire.
    let server = spawn_listening(&["serve", "--port", "0", "--workers", "4"]);
    let cases = mixed_batch();
    std::thread::scope(|scope| {
        for client_id in 0..8 {
            let cases = &cases;
            scope.spawn(move || {
                let mut client = Client::connect(server.addr).unwrap();
                client
                    .set_read_timeout(Some(Duration::from_secs(300)))
                    .unwrap();
                let requests: Vec<Request> = cases
                    .iter()
                    .enumerate()
                    .map(|(i, (request, _))| request.clone().with_id(format!("c{client_id}-{i}")))
                    .collect();
                let responses = client.batch(&requests).unwrap();
                for ((request, response), (_, expected)) in
                    requests.iter().zip(&responses).zip(cases)
                {
                    assert_eq!(response.id, request.id, "client {client_id}");
                    assert_eq!(
                        response.payload(),
                        Some(expected),
                        "client {client_id} `{}`: {:?}",
                        request.verb,
                        response.error()
                    );
                }
            });
        }
    });

    // The per-verb counters account for every compile sent.
    let mut admin = Client::connect(server.addr).unwrap();
    admin
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let stats = admin.call(&Request::new("stats")).unwrap().result.unwrap();
    assert_eq!(stat(&stats, "verbs.compile.requests"), 8.0);

    // A repeated compile is a cache hit that is byte-identical on the
    // wire, and the shared cache counts it.
    let twin = Request::new("compile")
        .with_target("bench:is")
        .with_id("twin");
    let (first, second) = twice_on_the_wire(server.addr, &twin);
    assert_eq!(first, second, "a cache hit changed the wire payload");
    let stats = admin.call(&Request::new("stats")).unwrap().result.unwrap();
    assert!(stat(&stats, "cache.hits") >= 1.0, "{}", stats.compact());

    // A one-word program mutation misses instead of sharing the
    // original's artifact.
    let dir = std::env::temp_dir().join(format!("amnesiac-serve-mutate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("probe.asm");
    let source = include_str!("../../../assets/dotprod.asm");
    let mutated = source.replace("li r4, 40960", "li r4, 40704");
    assert_ne!(mutated, source, "the probe source did not change");
    let mut compile = |source: &str| {
        std::fs::write(&path, source).unwrap();
        let request = Request::new("compile").with_target(path.to_string_lossy().as_ref());
        admin.call(&request).unwrap().result.unwrap()
    };
    let original = compile(source);
    assert_ne!(
        compile(&mutated),
        original,
        "a mutated program shared the cache entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_two_burst_soak_keeps_the_server_counters_exact() {
    // An open-loop soak of cheap verbs at high rate, then a second burst
    // against the same `serve` process: nothing is lost, the per-verb
    // counters only grow and account for every request exactly (a `stats`
    // snapshot excludes itself; it is counted once answered), and the
    // repeated targets hit the shared cache.
    let server = spawn_listening(&[
        "serve",
        "--port",
        "0",
        "--workers",
        "2",
        "--backlog",
        "8192",
    ]);
    let soak = LoadgenConfig {
        rate: 2_500.0,
        duration_ms: 500,
        seed: 42,
        mix: Mix::parse("stats=4,disasm=2,trace=1").unwrap(),
        timeout_ms: 60_000,
        ..LoadgenConfig::default()
    };
    let burst = LoadgenConfig {
        rate: 500.0,
        duration_ms: 300,
        seed: 43,
        ..soak.clone()
    };
    let mut admin = Client::connect(server.addr).unwrap();
    let mut stats = || admin.call(&Request::new("stats")).unwrap().result.unwrap();

    let soaked = run_against(server.addr, &soak).unwrap();
    let after_soak = stats();
    let burst_report = run_against(server.addr, &burst).unwrap();
    let after_burst = stats();

    assert!(
        soaked.scheduled >= 1_000,
        "soak too small: {}",
        soaked.scheduled
    );
    for report in [&soaked, &burst_report] {
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.ok, report.scheduled, "{:?}", report.errors_by_code);
    }
    let requests = |stats: &Json| -> Vec<(String, f64)> {
        stats
            .get("verbs")
            .and_then(Json::as_obj)
            .expect("per-verb counters")
            .iter()
            .map(|(verb, counters)| (verb.clone(), stat(counters, "requests")))
            .collect()
    };
    let (first, second) = (requests(&after_soak), requests(&after_burst));
    for (verb, before) in &first {
        let after = second.iter().find(|(v, _)| v == verb).map(|(_, n)| *n);
        assert!(
            after >= Some(*before),
            "`{verb}` went backwards: {first:?} then {second:?}"
        );
    }
    let total = |counts: &[(String, f64)]| counts.iter().map(|(_, n)| n).sum::<f64>();
    assert_eq!(total(&first), soaked.scheduled as f64);
    assert_eq!(
        total(&second),
        (soaked.scheduled + 1 + burst_report.scheduled) as f64
    );
    assert_eq!(stat(&after_burst, "accept_errors"), 0.0);
    assert!(
        stat(&after_burst, "cache.hits") > 0.0,
        "{}",
        after_burst.compact()
    );
}

#[test]
fn expired_deadline_is_a_structured_timeout_error() {
    // A 1 ms deadline is far below what the suite costs, so the request
    // must come back as a structured timeout, not a hang or a drop.
    let server = start(1, 8, 1);
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let response = client
        .call(&Request::new("experiments").with_id("slow"))
        .unwrap();
    let error = response.error().expect("timed out, not answered");
    assert_eq!(error.code, code::TIMEOUT);
    server.stop();
}

#[test]
fn overflowing_the_backlog_is_a_structured_overloaded_error() {
    // One worker, a backlog of one: the first slow request occupies the
    // only slot, so a burst behind it must be refused with `overloaded`
    // (and the refusals must not poison the connection).
    let server = start(1, 1, 300_000);
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let mut requests = vec![Request::new("experiments").with_id("occupant")];
    for i in 0..4 {
        requests.push(
            Request::new("compile")
                .with_target("bench:is")
                .with_id(i as u64),
        );
    }
    let responses = client.batch(&requests).unwrap();
    assert_eq!(responses.len(), requests.len(), "no response was dropped");
    assert!(responses[0].is_ok(), "occupant: {:?}", responses[0].error());
    let overloaded = responses[1..]
        .iter()
        .filter(|r| r.error().is_some_and(|e| e.code == code::OVERLOADED))
        .count();
    assert!(overloaded >= 1, "burst was never refused: {responses:#?}");
    server.stop();
}

#[test]
fn malformed_requests_get_structured_errors_not_drops() {
    let server = start(1, 8, 120_000);
    let mut client = Client::connect(server.addr()).unwrap();
    // unknown scale value
    let response = client
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_scale("huge")
                .with_id(1u64),
        )
        .unwrap();
    assert_eq!(response.error().unwrap().code, code::BAD_REQUEST);
    // missing target on a verb that needs one
    let response = client.call(&Request::new("compile").with_id(2u64)).unwrap();
    assert_eq!(response.error().unwrap().code, code::BAD_REQUEST);
    // tool-level failure surfaces the CLI's stable error code
    let response = client
        .call(
            &Request::new("simulate")
                .with_target("bench:nope")
                .with_id(3u64),
        )
        .unwrap();
    assert_eq!(response.error().unwrap().code, code::TOOL);
    // an unknown verb is a usage error, not a dropped connection
    let response = client
        .call(&Request::new("frobnicate").with_id(4u64))
        .unwrap();
    assert_eq!(response.error().unwrap().code, code::USAGE);
    server.stop();
}

#[test]
fn shutdown_drains_the_in_flight_request_then_refuses_new_work() {
    let server = start(1, 8, 300_000);
    let addr = server.addr();
    let mut worker = Client::connect(addr).unwrap();
    worker
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    worker
        .send(&Request::new("experiments").with_id("draining"))
        .unwrap();
    // `send` returns once the bytes are written, not once the server has
    // admitted them: wait for the admission counter, or a busy host can
    // deliver the shutdown first and the request is refused, not drained.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while server.stats_json().get("inflight").and_then(Json::as_f64) != Some(1.0) {
        assert!(std::time::Instant::now() < deadline, "never admitted");
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut admin = Client::connect(addr).unwrap();
    let response = admin.call(&Request::new("shutdown")).unwrap();
    assert!(response.is_ok());

    // New work is refused while draining...
    let refused = admin
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_id(9u64),
        )
        .unwrap();
    assert_eq!(refused.error().unwrap().code, code::SHUTTING_DOWN);

    // ...but the in-flight suite still completes and is delivered.
    let drained = worker.recv().unwrap();
    assert!(
        drained.is_ok(),
        "in-flight request was dropped: {drained:#?}"
    );

    drop(worker);
    drop(admin);
    server.stop();
}
