//! The cluster router's connection front end, driven over an echo server.
//!
//! A client cannot tell a router from a single server by how its lines
//! are read and answered. These are the checks `service_semantics.rs`
//! makes of the server's front end — malformed and blank lines, a last
//! line cut off by EOF, connection reaping, a request pipelined behind a
//! wire `shutdown` — made of the router's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

use amnesiac_serve::{
    code, Client, Handler, Request, Response, Router, RouterConfig, Server, ServerConfig,
};
use amnesiac_telemetry::Json;

/// A router over one worker that answers every request with its target.
fn router_over_echo() -> (Router, Server) {
    let handler: Handler = Arc::new(|request: &Request| {
        Ok(Json::obj().with("echo", request.target.clone().unwrap_or_default()))
    });
    let echo = Server::start(ServerConfig::default(), handler).expect("echo server starts");
    let router = Router::start(RouterConfig::default(), &[echo.addr()]).expect("router starts");
    (router, echo)
}

fn echoed(response: &Response) -> Option<&str> {
    response.payload()?.get("echo").and_then(Json::as_str)
}

#[test]
fn bad_lines_get_bad_request_and_blank_lines_get_nothing() {
    let (router, echo) = router_over_echo();
    let mut raw = TcpStream::connect(router.addr()).unwrap();
    raw.write_all(
        b"this is not json\n\n{\"no_verb\":1}\n   \n{\"id\":3,\"verb\":\"echo\",\"target\":\"after\"}\n",
    )
    .unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Response::parse_line(line.trim()).unwrap()
    };
    for _ in 0..2 {
        let response = next();
        assert_eq!(response.error().unwrap().code, code::BAD_REQUEST);
        assert_eq!(response.id, Json::Null);
        assert_eq!(response.verb, "?");
    }
    // The blank lines were skipped: the next answer is the echo's.
    let response = next();
    assert_eq!(response.id, Json::Num(3.0));
    assert_eq!(echoed(&response), Some("after"));
    drop(raw);
    router.stop();
    echo.stop();
}

#[test]
fn a_last_line_cut_off_by_eof_is_still_answered() {
    let (router, echo) = router_over_echo();
    let mut raw = TcpStream::connect(router.addr()).unwrap();
    raw.write_all(b"{\"id\":5,\"verb\":\"echo\",\"target\":\"cut\"}")
        .unwrap();
    raw.shutdown(Shutdown::Write).unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).unwrap();
    let lines: Vec<&str> = answer.lines().collect();
    assert_eq!(lines.len(), 1, "one answer, then the close: {answer:?}");
    let response = Response::parse_line(lines[0]).unwrap();
    assert_eq!(response.id, Json::Num(5.0));
    assert_eq!(echoed(&response), Some("cut"));
    router.stop();
    echo.stop();
}

#[test]
fn finished_connections_are_reaped_not_accumulated() {
    const CYCLES: usize = 40;
    let (router, echo) = router_over_echo();
    for i in 0..CYCLES {
        let mut client = Client::connect(router.addr()).unwrap();
        assert!(client
            .call(&Request::new("echo").with_id(i as u64))
            .unwrap()
            .is_ok());
    }
    // One extra accept gives the reaper a pass over the closed ones.
    let mut last = Client::connect(router.addr()).unwrap();
    assert!(last
        .call(&Request::new("echo").with_id(99u64))
        .unwrap()
        .is_ok());
    let stats = router.stats_json();
    let open = stats
        .get("open_connections")
        .and_then(Json::as_f64)
        .expect("router stats carry the open_connections gauge");
    assert!(
        open <= 8.0,
        "open_connections {open} after {CYCLES} sequential connections"
    );
    drop(last);
    router.stop();
    echo.stop();
}

#[test]
fn a_request_pipelined_behind_a_wire_shutdown_is_refused() {
    let (router, echo) = router_over_echo();
    let mut client = Client::connect(router.addr()).unwrap();
    let responses = client
        .batch(&[
            Request::new("shutdown").with_id(1u64),
            Request::new("echo").with_id(2u64).with_target("late"),
        ])
        .unwrap();
    assert_eq!(
        responses[0].payload().and_then(|p| p.get("draining")),
        Some(&Json::Bool(true))
    );
    assert_eq!(responses[1].id, Json::Num(2.0));
    assert_eq!(
        responses[1].error().map(|e| e.code.as_str()),
        Some(code::SHUTTING_DOWN)
    );
    drop(client);
    router.stop();
    echo.stop();
}
