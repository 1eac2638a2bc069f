//! End-to-end socket tests of the service semantics — backpressure,
//! deadlines, cancellation, ordering, stats, and graceful shutdown —
//! using a controllable toy handler so timings are deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use amnesiac_serve::{code, Client, Handler, Request, Server, ServerConfig};
use amnesiac_telemetry::Json;

/// A handler with four verbs: `echo` (returns its target), `block`
/// (parks until released through the gate channel), `sleep` (sleeps
/// `target` milliseconds — a stand-in for an expensive compute), and
/// `boom` (panics).
struct Gate {
    release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    entered: Sender<()>,
}

fn gated_handler() -> (
    Handler,
    Sender<()>,
    std::sync::mpsc::Receiver<()>,
    Arc<AtomicUsize>,
) {
    let (release_tx, release_rx) = channel::<()>();
    let (entered_tx, entered_rx) = channel::<()>();
    let executed = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Gate {
        release: Mutex::new(Some(release_rx)),
        entered: entered_tx,
    });
    let executed_in = Arc::clone(&executed);
    let handler: Handler = Arc::new(move |req: &Request| {
        executed_in.fetch_add(1, Ordering::SeqCst);
        match req.verb.as_str() {
            "echo" => Ok(Json::obj()
                .with("target", req.target.clone().unwrap_or_default())
                .with("scale", req.scale.clone().unwrap_or_else(|| "test".into()))),
            "block" => {
                let _ = gate.entered.send(());
                // Each `block` request consumes one release token.
                let guard = gate.release.lock().unwrap();
                if let Some(rx) = guard.as_ref() {
                    let _ = rx.recv_timeout(Duration::from_secs(30));
                }
                Ok(Json::obj().with("blocked", true))
            }
            "sleep" => {
                let ms: u64 = req
                    .target
                    .as_deref()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or(10);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Json::obj().with("slept_ms", ms))
            }
            "boom" => panic!("deliberate handler panic"),
            other => Err(amnesiac_serve::ServeError::new(
                code::USAGE,
                format!("unknown verb `{other}`"),
            )),
        }
    });
    (handler, release_tx, entered_rx, executed)
}

fn echo_server(
    workers: usize,
    backlog: usize,
    timeout_ms: u64,
) -> (
    Server,
    Sender<()>,
    std::sync::mpsc::Receiver<()>,
    Arc<AtomicUsize>,
) {
    let (handler, release, entered, executed) = gated_handler();
    let server = Server::start(
        ServerConfig {
            workers,
            backlog,
            timeout_ms,
            ..ServerConfig::default()
        },
        handler,
    )
    .expect("server starts on an ephemeral port");
    (server, release, entered, executed)
}

#[test]
fn echo_round_trip_and_id_correlation() {
    let (server, _release, _entered, _executed) = echo_server(2, 8, 5_000);
    let mut client = Client::connect(server.addr()).unwrap();
    let response = client
        .call(&Request::new("echo").with_id(41u64).with_target("bench:is"))
        .unwrap();
    assert!(response.is_ok(), "error: {:?}", response.error());
    assert_eq!(response.id, Json::Num(41.0));
    assert_eq!(response.verb, "echo");
    assert!(response.elapsed_ms >= 0.0);
    assert_eq!(
        response
            .payload()
            .unwrap()
            .get("target")
            .and_then(Json::as_str),
        Some("bench:is")
    );
    server.stop();
}

#[test]
fn pipelined_batch_keeps_request_order() {
    let (server, _release, _entered, _executed) = echo_server(4, 32, 5_000);
    let mut client = Client::connect(server.addr()).unwrap();
    let requests: Vec<Request> = (0..20u64)
        .map(|i| Request::new("echo").with_id(i).with_target(format!("t{i}")))
        .collect();
    let responses = client.batch(&requests).unwrap();
    assert_eq!(responses.len(), 20);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.id, Json::Num(i as f64), "order preserved");
        assert_eq!(
            response
                .payload()
                .unwrap()
                .get("target")
                .and_then(Json::as_str),
            Some(format!("t{i}").as_str())
        );
    }
    server.stop();
}

#[test]
fn concurrent_clients_each_get_their_own_answers() {
    // Backlog must cover the whole pipelined burst (8 clients × 10
    // requests) or the admission control rejects the overflow by design.
    let (server, _release, _entered, _executed) = echo_server(4, 128, 5_000);
    let addr = server.addr();
    std::thread::scope(|scope| {
        for c in 0u64..8 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let requests: Vec<Request> = (0..10u64)
                    .map(|i| {
                        Request::new("echo")
                            .with_id(c * 100 + i)
                            .with_target(format!("c{c}-r{i}"))
                    })
                    .collect();
                for (i, response) in client.batch(&requests).unwrap().iter().enumerate() {
                    assert!(response.is_ok());
                    assert_eq!(
                        response
                            .payload()
                            .unwrap()
                            .get("target")
                            .and_then(Json::as_str),
                        Some(format!("c{c}-r{}", i).as_str()),
                        "no cross-client mixup"
                    );
                }
            });
        }
    });
    server.stop();
}

#[test]
fn deadline_produces_structured_timeout_and_late_result_is_discarded() {
    let (server, release, entered, _executed) = echo_server(1, 8, 60_000);
    let mut client = Client::connect(server.addr()).unwrap();
    // 80 ms deadline on a request that blocks until released.
    let response = client
        .call(&Request::new("block").with_id(1u64).with_timeout_ms(80))
        .unwrap();
    let error = response.error().expect("the deadline must fire");
    assert_eq!(error.code, code::TIMEOUT);
    assert!(error.message.contains("deadline"), "{}", error.message);
    // Release the (still running) job; the next request must get its own
    // fresh answer, not the stale blocked one.
    entered.recv_timeout(Duration::from_secs(5)).unwrap();
    release.send(()).unwrap();
    let after = client
        .call(&Request::new("echo").with_id(2u64).with_target("fresh"))
        .unwrap();
    assert!(after.is_ok());
    assert_eq!(after.id, Json::Num(2.0));
    assert_eq!(
        after
            .payload()
            .unwrap()
            .get("target")
            .and_then(Json::as_str),
        Some("fresh")
    );
    server.stop();
}

#[test]
fn queued_request_past_deadline_is_cancelled_without_executing() {
    // One worker, blocked; a second request with a short deadline times
    // out while still queued and must never run the handler.
    let (server, release, entered, executed) = echo_server(1, 8, 60_000);
    let mut blocker = Client::connect(server.addr()).unwrap();
    blocker.send(&Request::new("block").with_id(1u64)).unwrap();
    entered.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(executed.load(Ordering::SeqCst), 1);

    let mut client = Client::connect(server.addr()).unwrap();
    let response = client
        .call(&Request::new("echo").with_id(2u64).with_timeout_ms(60))
        .unwrap();
    assert_eq!(response.error().unwrap().code, code::TIMEOUT);

    // Unblock; the cancelled job must not have executed the handler.
    release.send(()).unwrap();
    let blocked = blocker.recv().unwrap();
    assert!(blocked.is_ok());
    // Give the worker a moment to drain the cancelled job, then check.
    let sentinel = client
        .call(&Request::new("echo").with_id(3u64).with_timeout_ms(5_000))
        .unwrap();
    assert!(sentinel.is_ok());
    assert_eq!(
        executed.load(Ordering::SeqCst),
        2,
        "block + sentinel only; the timed-out queued request was cancelled"
    );
    server.stop();
}

#[test]
fn backlog_overflow_is_rejected_with_overloaded() {
    // workers=1, backlog=2: one running + one queued; the third must be
    // rejected immediately with the structured backpressure error.
    let (server, release, entered, _executed) = echo_server(1, 2, 60_000);
    let mut blocker = Client::connect(server.addr()).unwrap();
    blocker.send(&Request::new("block").with_id(1u64)).unwrap();
    entered.recv_timeout(Duration::from_secs(5)).unwrap();
    let mut filler = Client::connect(server.addr()).unwrap();
    filler.send(&Request::new("block").with_id(2u64)).unwrap();
    // The filler is queued (not entered: single worker is busy). Now the
    // backlog (running + queued = 2) is full. `send` returns once the bytes
    // are written, not once the server has admitted them, so wait for the
    // admission counter (`stats` bypasses the backlog) before probing.
    let mut rejected = Client::connect(server.addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = rejected.call(&Request::new("stats")).unwrap();
        let inflight = stats
            .payload()
            .and_then(|p| p.get("inflight").and_then(Json::as_f64))
            .unwrap();
        if inflight >= 2.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "filler never admitted: inflight {inflight}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = rejected.call(&Request::new("echo").with_id(3u64)).unwrap();
    let error = response.error().expect("backlog is full");
    assert_eq!(error.code, code::OVERLOADED);
    assert!(error.message.contains("backlog full"), "{}", error.message);

    // Drain: two releases for the two block requests.
    release.send(()).unwrap();
    release.send(()).unwrap();
    assert!(blocker.recv().unwrap().is_ok());
    entered.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(filler.recv().unwrap().is_ok());

    // Capacity is back: the same client that was rejected now succeeds.
    let retry = rejected.call(&Request::new("echo").with_id(4u64)).unwrap();
    assert!(retry.is_ok(), "slot freed after drain: {:?}", retry.error());

    // The stats must have counted the rejection.
    let stats = rejected.call(&Request::new("stats")).unwrap();
    let payload = stats.payload().unwrap();
    assert_eq!(
        payload.get("rejected_overload").and_then(Json::as_f64),
        Some(1.0)
    );
    server.stop();
}

#[test]
fn handler_panic_is_an_internal_error_not_a_dead_server() {
    let (server, _release, _entered, _executed) = echo_server(2, 8, 5_000);
    let mut client = Client::connect(server.addr()).unwrap();
    let response = client.call(&Request::new("boom").with_id(1u64)).unwrap();
    assert_eq!(response.error().unwrap().code, code::INTERNAL);
    // The server survives and keeps answering.
    let after = client.call(&Request::new("echo").with_id(2u64)).unwrap();
    assert!(after.is_ok());
    server.stop();
}

#[test]
fn bad_lines_get_structured_bad_request_errors() {
    use std::io::Write as _;
    let (server, _release, _entered, _executed) = echo_server(1, 4, 5_000);
    let mut client = Client::connect(server.addr()).unwrap();
    // Raw garbage through the client's socket, then a valid request.
    // (Reach under the protocol client with a second raw connection.)
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"this is not json\n{\"no_verb\":1}\n")
        .unwrap();
    raw.flush().unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    for _ in 0..2 {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        let response = amnesiac_serve::Response::parse_line(line.trim()).unwrap();
        assert_eq!(response.error().unwrap().code, code::BAD_REQUEST);
    }
    // The protocol client still works against the same server.
    assert!(client
        .call(&Request::new("echo").with_id(1u64))
        .unwrap()
        .is_ok());
    server.stop();
}

#[test]
fn stats_tracks_per_verb_counters() {
    let (server, release, entered, _executed) = echo_server(2, 8, 5_000);
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..3u64 {
        assert!(client
            .call(&Request::new("echo").with_id(i))
            .unwrap()
            .is_ok());
    }
    let response = client
        .call(&Request::new("block").with_timeout_ms(50))
        .unwrap();
    assert_eq!(response.error().unwrap().code, code::TIMEOUT);
    // Unblock the (abandoned) handler so shutdown does not wait out its gate.
    entered.recv_timeout(Duration::from_secs(5)).unwrap();
    release.send(()).unwrap();
    let stats = client.call(&Request::new("stats")).unwrap();
    let payload = stats.payload().unwrap();
    assert_eq!(
        payload
            .get_path("verbs.echo.requests")
            .and_then(Json::as_f64),
        Some(3.0)
    );
    assert_eq!(
        payload.get_path("verbs.echo.ok").and_then(Json::as_f64),
        Some(3.0)
    );
    assert_eq!(
        payload
            .get_path("verbs.block.timeouts")
            .and_then(Json::as_f64),
        Some(1.0)
    );
    assert!(payload
        .get_path("verbs.echo.max_ms")
        .and_then(Json::as_f64)
        .is_some_and(|ms| ms >= 0.0));
    assert_eq!(payload.get("workers").and_then(Json::as_f64), Some(2.0));
    assert_eq!(payload.get("backlog").and_then(Json::as_f64), Some(8.0));
    server.stop();
}

#[test]
fn finished_connections_are_reaped_not_accumulated() {
    // Regression test for the connection-handle leak: the acceptor used to
    // push every connection's JoinHandle and only pop them at shutdown, so
    // a long-running server grew by one handle (and one parked-thread
    // stack) per connection ever accepted. Handles are now reaped on each
    // accept; sequential connect/close cycles must leave the tracked set
    // bounded by the few connections that are genuinely still winding down.
    const CYCLES: usize = 40;
    let (server, _release, _entered, _executed) = echo_server(1, 8, 5_000);
    for i in 0..CYCLES {
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client
            .call(&Request::new("echo").with_id(i as u64))
            .unwrap()
            .is_ok());
        drop(client);
    }
    // One extra accept gives the reaper a pass over the closed ones.
    let mut last = Client::connect(server.addr()).unwrap();
    assert!(last
        .call(&Request::new("echo").with_id(99u64))
        .unwrap()
        .is_ok());
    // The last few connections may still be draining their read poll, but
    // nothing like one handle per accepted connection may remain.
    let tracked = server.tracked_connections();
    assert!(
        tracked <= 8,
        "tracked {tracked} handles after {CYCLES} sequential connections — leak"
    );
    // The open-connection gauge is exposed through stats and agrees that
    // almost everything wound down.
    let stats = last.call(&Request::new("stats")).unwrap();
    let open = stats
        .payload()
        .unwrap()
        .get("open_connections")
        .and_then(Json::as_f64)
        .expect("stats carries the open_connections gauge");
    assert!(open <= 8.0, "open_connections {open}");
    server.stop();
}

#[test]
fn expired_queued_requests_are_skipped_before_reaching_the_handler() {
    // Regression test for the timed-out-requests-burn-a-worker bug: the
    // writer can only mark a request cancelled after resolving every
    // earlier response on its connection. Pipeline a long-deadline `block`
    // ahead of several already-expired `sleep`s: the writer is stuck on
    // the block, so by the time the single worker frees, the sleeps are
    // expired-but-not-yet-cancelled. Without the worker-side deadline check
    // they would all run (burning the worker for their full duration);
    // with it, the handler never sees them.
    let (server, release, entered, executed) = echo_server(1, 64, 60_000);

    // Occupy the single worker.
    let mut blocker = Client::connect(server.addr()).unwrap();
    blocker.send(&Request::new("block").with_id(1u64)).unwrap();
    entered.recv_timeout(Duration::from_secs(5)).unwrap();

    // A second connection pipelines: one more long-deadline block (pins
    // this connection's writer), five sleeps with a 25 ms deadline, and a
    // sentinel echo.
    let mut client = Client::connect(server.addr()).unwrap();
    client.send(&Request::new("block").with_id(2u64)).unwrap();
    for i in 0..5u64 {
        client
            .send(
                &Request::new("sleep")
                    .with_id(10 + i)
                    .with_target("200")
                    .with_timeout_ms(25),
            )
            .unwrap();
    }
    client
        .send(&Request::new("echo").with_id(20u64).with_timeout_ms(30_000))
        .unwrap();

    // Let every sleep's deadline pass while they sit in the queue.
    std::thread::sleep(Duration::from_millis(80));

    // Free the worker: first block completes, then the second runs.
    release.send(()).unwrap();
    assert!(blocker.recv().unwrap().is_ok());
    entered.recv_timeout(Duration::from_secs(5)).unwrap();
    release.send(()).unwrap();

    let drained = client.recv().unwrap();
    assert!(drained.is_ok(), "second block: {:?}", drained.error());
    let t_after_blocks = std::time::Instant::now();
    for i in 0..5u64 {
        let response = client.recv().unwrap();
        assert_eq!(response.id, Json::Num((10 + i) as f64));
        assert_eq!(response.error().unwrap().code, code::TIMEOUT);
    }
    let sentinel = client.recv().unwrap();
    assert!(sentinel.is_ok(), "sentinel: {:?}", sentinel.error());

    // Only the two blocks and the sentinel ever reached the handler — the
    // five expired sleeps (5 × 200 ms of would-be burn) were skipped.
    assert_eq!(
        executed.load(Ordering::SeqCst),
        3,
        "expired queued requests must not execute"
    );
    // And the sentinel arrived promptly instead of a second behind.
    assert!(
        t_after_blocks.elapsed() < Duration::from_millis(600),
        "sentinel was starved behind expired work: {:?}",
        t_after_blocks.elapsed()
    );
    // The skip counter saw all five.
    let stats = client.call(&Request::new("stats")).unwrap();
    let skipped = stats
        .payload()
        .unwrap()
        .get("expired_skipped")
        .and_then(Json::as_f64)
        .expect("stats carries expired_skipped");
    assert!(skipped >= 5.0, "expired_skipped {skipped}");
    server.stop();
}

#[test]
fn stats_carries_the_acceptor_health_counters() {
    // `accept_errors` counts transient accept() failures (each of which
    // now also costs the acceptor a backoff pause instead of a busy-spin);
    // on a healthy listener it must exist and be zero.
    let (server, _release, _entered, _executed) = echo_server(1, 4, 5_000);
    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.call(&Request::new("stats")).unwrap();
    let payload = stats.payload().unwrap().clone();
    assert_eq!(
        payload.get("accept_errors").and_then(Json::as_f64),
        Some(0.0)
    );
    assert_eq!(
        payload.get("expired_skipped").and_then(Json::as_f64),
        Some(0.0)
    );
    assert!(payload
        .get("open_connections")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    server.stop();
}

#[test]
fn shutdown_drains_in_flight_and_refuses_new_work() {
    let (mut server, release, entered, executed) = echo_server(1, 8, 60_000);
    let addr = server.addr();
    let mut worker_client = Client::connect(addr).unwrap();
    worker_client
        .send(&Request::new("block").with_id(1u64))
        .unwrap();
    entered.recv_timeout(Duration::from_secs(5)).unwrap();
    // A second request queues behind the blocked one on the only worker.
    worker_client
        .send(&Request::new("echo").with_id(2u64))
        .unwrap();
    let mut admin = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = admin.call(&Request::new("stats")).unwrap();
        let inflight = stats
            .payload()
            .unwrap()
            .get("inflight")
            .and_then(Json::as_f64);
        if inflight == Some(2.0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "echo never admitted: {inflight:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Ask for shutdown over the wire while a request is in flight.
    let response = admin.call(&Request::new("shutdown")).unwrap();
    assert!(response.is_ok());
    assert_eq!(
        response.payload().unwrap().get("draining"),
        Some(&Json::Bool(true))
    );

    // New work on an existing connection is refused while draining.
    let refused = admin.call(&Request::new("echo").with_id(9u64)).unwrap();
    assert_eq!(refused.error().unwrap().code, code::SHUTTING_DOWN);

    // The in-flight request still completes and is delivered.
    release.send(()).unwrap();
    let drained = worker_client.recv().unwrap();
    assert!(
        drained.is_ok(),
        "in-flight request drained: {:?}",
        drained.error()
    );
    assert_eq!(drained.id, Json::Num(1.0));
    // The queued request still runs and is answered after shutdown.
    let queued = worker_client.recv().unwrap();
    assert!(
        queued.is_ok(),
        "queued request drained: {:?}",
        queued.error()
    );
    assert_eq!(queued.id, Json::Num(2.0));
    assert_eq!(executed.load(Ordering::SeqCst), 2);

    // join() returns because every connection winds down after the flag.
    drop(worker_client);
    drop(admin);
    server.join();
}

#[test]
fn server_side_shutdown_api_unblocks_join() {
    let (server, _release, _entered, _executed) = echo_server(1, 4, 1_000);
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client
        .call(&Request::new("echo").with_id(1u64))
        .unwrap()
        .is_ok());
    server.stop(); // shutdown + join must return with a client still connected
}
