//! End-to-end driver tests against a trivial in-process server: the
//! open-loop run must complete the whole schedule, measure sane
//! latencies, and produce a snapshot in the pinned shape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amnesiac_loadgen::{run_against, schedule, LoadgenConfig, Mix};
use amnesiac_serve::{Handler, Request, Server, ServerConfig};
use amnesiac_telemetry::Json;

fn echo_server(handled: Arc<AtomicU64>) -> Server {
    let handler: Handler = Arc::new(move |request: &Request| {
        handled.fetch_add(1, Ordering::AcqRel);
        Ok(Json::obj()
            .with("verb", request.verb.as_str())
            .with("target", request.target.clone().unwrap_or_default()))
    });
    let config = ServerConfig {
        workers: 2,
        backlog: 256,
        timeout_ms: 30_000,
        ..ServerConfig::default()
    };
    Server::start(config, handler).expect("server starts")
}

fn quick_config() -> LoadgenConfig {
    LoadgenConfig {
        rate: 600.0,
        duration_ms: 500,
        seed: 42,
        mix: Mix::parse("compile=2,stats=1,trace=1").unwrap(),
        connections: 2,
        timeout_ms: 20_000,
    }
}

#[test]
fn open_loop_run_completes_the_whole_schedule() {
    let handled = Arc::new(AtomicU64::new(0));
    let server = echo_server(handled.clone());
    let config = quick_config();
    let planned = schedule(&config).len() as u64;
    assert!(planned > 100, "schedule too small to be meaningful");

    let report = run_against(server.addr(), &config).expect("run succeeds");
    server.stop();

    assert_eq!(report.scheduled, planned);
    assert_eq!(report.completed, planned, "every request must come back");
    assert_eq!(report.ok, planned, "every request must succeed");
    assert_eq!(report.protocol_errors, 0);
    assert!(report.errors_by_code.is_empty());
    // `stats` is answered by the server itself, everything else by the
    // handler — so handled counts only the non-stats verbs.
    let stats_requests = report.verbs.get("stats").copied().unwrap_or(0);
    assert_eq!(handled.load(Ordering::Acquire), planned - stats_requests);
    // the verbs in the mix all showed up, and only those
    let seen: Vec<&str> = report.verbs.keys().map(String::as_str).collect();
    assert_eq!(seen, ["compile", "stats", "trace"]);
    // latency sanity: recorded for every ok response, ordered quantiles
    assert_eq!(report.latency.count(), planned);
    let p50 = report.latency.quantile(0.50);
    let p99 = report.latency.quantile(0.99);
    assert!(p50 <= p99 && p99 <= report.latency.max());
    assert!(report.elapsed_ms >= 400.0, "run shorter than the schedule");
    assert!(report.throughput_rps() > 0.0);
    assert_eq!(report.error_rate_pct(), 0.0);
}

#[test]
fn snapshot_has_the_pinned_shape_and_embeds_the_config() {
    let handled = Arc::new(AtomicU64::new(0));
    let server = echo_server(handled);
    let config = LoadgenConfig {
        rate: 400.0,
        duration_ms: 300,
        ..quick_config()
    };
    let report = run_against(server.addr(), &config).expect("run succeeds");
    server.stop();

    let snapshot = report.snapshot(&config);
    assert_eq!(snapshot.get("config"), Some(&config.to_json()));
    for path in [
        "results.scheduled",
        "results.completed",
        "results.ok",
        "results.protocol_errors",
        "results.error_rate_pct",
        "results.throughput_rps",
        "results.elapsed_ms",
        "results.latency_ms.p50",
        "results.latency_ms.p90",
        "results.latency_ms.p99",
        "results.latency_ms.p999",
        "results.latency_ms.max",
        "results.latency_ms.mean",
    ] {
        assert!(
            snapshot.get_path(path).and_then(Json::as_f64).is_some(),
            "snapshot missing number at {path}"
        );
    }
    // and the document survives the wire format
    let reparsed = amnesiac_telemetry::parse(&snapshot.pretty()).expect("valid JSON");
    assert_eq!(reparsed, snapshot);
}

#[test]
fn bookkeeping_stays_consistent_at_high_rate() {
    let handled = Arc::new(AtomicU64::new(0));
    let server = echo_server(handled);
    let config = LoadgenConfig {
        rate: 2_000.0,
        duration_ms: 250,
        seed: 7,
        mix: Mix::parse("stats=1,compile=1").unwrap(),
        connections: 2,
        timeout_ms: 20_000,
    };
    let report = run_against(server.addr(), &config).expect("run succeeds");
    server.stop();
    // the echo handler is fast, so the run mostly succeeds; the
    // invariant under test is bookkeeping consistency under pressure
    // (every scheduled request accounted for exactly once), not a
    // specific error count
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(
        report.completed,
        report.ok + report.errors_by_code.values().sum::<u64>()
    );
    assert_eq!(report.scheduled, report.completed);
}
