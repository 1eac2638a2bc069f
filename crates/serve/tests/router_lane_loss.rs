//! The router's lane-loss path against a worker that closes cleanly.
//!
//! A worker that reads its forwarded requests and then closes the
//! connection without answering leaves a socket that still accepts the
//! next write, so the only thing keeping a re-placed request off that
//! dead lane is the order in which the lane receiver publishes the loss
//! and wakes the waiting writer. Every request must be re-placed on the
//! surviving worker once and answered: never lost twice.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use amnesiac_serve::{
    Client, Handler, Membership, Request, Router, RouterConfig, Server, ServerConfig, WireVerb,
};
use amnesiac_telemetry::Json;

/// Routers booted, each over a fresh pair of workers.
const ROUTERS: usize = 400;

/// Routers running at once (the race is more likely under contention).
const CONCURRENT: usize = 4;

/// Pipelined requests per router, one routing key each.
const REQUESTS: usize = 16;

/// A worker that answers every request with its target.
fn echo_server() -> Server {
    let handler: Handler = Arc::new(|request: &Request| {
        Ok(Json::obj().with("echo", request.target.clone().unwrap_or_default()))
    });
    Server::start(ServerConfig::default(), handler).expect("echo server starts")
}

/// A scripted worker: it closes `stats` probe connections unanswered,
/// reads exactly `forwarded` request lines from its lane, and then closes
/// the lane without answering. Every byte sent to it has been read by
/// then, so the close is a clean FIN rather than a reset.
fn silent_worker(forwarded: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("scripted worker binds");
    let addr = listener.local_addr().expect("scripted worker address");
    let handle = thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            if reader.read_line(&mut line).is_err() {
                continue;
            }
            let probe = Request::parse_line(line.trim())
                .is_ok_and(|request| request.wire_verb() == Some(WireVerb::Stats));
            if probe {
                continue;
            }
            for _ in 1..forwarded {
                line.clear();
                if reader.read_line(&mut line).is_err() {
                    break;
                }
            }
            return;
        }
    });
    (addr, handle)
}

#[test]
fn a_cleanly_closed_lane_never_loses_a_request_twice() {
    let keys: Vec<String> = (0..REQUESTS).map(|i| format!("lane-loss-{i}")).collect();
    // Placement depends only on worker ids, so the scripted worker (id 1)
    // owns the same keys under every router.
    let owners = Membership::new(&[
        "127.0.0.1:1".parse().unwrap(),
        "127.0.0.1:2".parse().unwrap(),
    ]);
    let forwarded = keys
        .iter()
        .filter(|key| owners.route(key).is_some_and(|(id, _, _)| id == 1))
        .count();
    assert!(
        (1..REQUESTS).contains(&forwarded),
        "both workers must own some keys: {forwarded} of {REQUESTS} on the scripted one"
    );
    let requests: Vec<Request> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            Request::new("echo")
                .with_target(key.as_str())
                .with_id(i as u64)
                .with_proto(2)
                .with_routing_key(key.as_str())
        })
        .collect();
    // Probe failures never mark a worker down here: the loss must be
    // discovered on the lane, which is the path under test.
    let config = RouterConfig {
        probe_interval: Duration::from_secs(60),
        probe_timeout: Duration::from_millis(500),
        probe_failure_threshold: u32::MAX,
        ..RouterConfig::default()
    };

    thread::scope(|scope| {
        for first in 0..CONCURRENT {
            let (requests, config) = (&requests, &config);
            scope.spawn(move || {
                for round in (first..ROUTERS).step_by(CONCURRENT) {
                    one_round(round, requests, forwarded, config);
                }
            });
        }
    });
}

/// Boots one router over a fresh echo server and a fresh scripted worker,
/// pipelines the batch through it, and checks every answer.
fn one_round(round: usize, requests: &[Request], forwarded: usize, config: &RouterConfig) {
    let echo = echo_server();
    let (silent_addr, silent) = silent_worker(forwarded);
    let router = Router::start(config.clone(), &[echo.addr(), silent_addr]).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let responses = client.batch(requests).unwrap();

    let mut rerouted = 0;
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(response.id, request.id, "round {round}: order broke");
        assert!(
            response.is_ok(),
            "round {round}: `{}` answered {:?}",
            request.routing_key(),
            response.error()
        );
        rerouted += response.meta.as_ref().map_or(0, |meta| meta.rerouted);
    }
    assert!(
        rerouted >= forwarded as u64,
        "round {round}: {rerouted} reroutes for {forwarded} lost requests"
    );
    let stats = router.stats_json();
    assert_eq!(
        stats.get("unavailable").and_then(Json::as_f64),
        Some(0.0),
        "round {round}: {}",
        stats.compact()
    );

    drop(client);
    router.stop();
    echo.stop();
    silent.join().unwrap();
}
