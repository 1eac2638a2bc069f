//! The open-loop driver: deals the schedule across connections, sends
//! each request at its scheduled instant, and folds the responses into a
//! [`LoadgenReport`].
//!
//! Per connection there are two threads. The **sender** owns the write
//! half and sleeps until each request's scheduled offset — it never
//! waits for responses, which is what makes the loop open. The
//! **receiver** owns the read half and matches responses (in-order per
//! connection, ids double-checked) against the expected sequence,
//! recording latency as *receipt time minus scheduled send time*: a
//! request that sat queued behind a slow server is charged its full
//! queueing delay, so the histogram cannot be flattered by coordinated
//! omission.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use amnesiac_serve::{ClientConfig, Request, Response};
use amnesiac_telemetry::Json;

use crate::{schedule, LoadgenConfig, LogHistogram};

/// Slack added to the per-request deadline before the receiver gives up
/// on a connection (the server answers `timeout` *at* the deadline, so
/// anything much later means the wire is wedged, not slow).
const RECV_SLACK: Duration = Duration::from_secs(10);

/// What one receiver thread accumulated.
#[derive(Default)]
struct LaneOutcome {
    completed: u64,
    ok: u64,
    protocol_errors: u64,
    errors_by_code: BTreeMap<String, u64>,
    verbs: BTreeMap<String, u64>,
    latency: LogHistogram,
}

impl LaneOutcome {
    fn merge_into(self, report: &mut LoadgenReport) {
        report.completed += self.completed;
        report.ok += self.ok;
        report.protocol_errors += self.protocol_errors;
        for (code, n) in self.errors_by_code {
            *report.errors_by_code.entry(code).or_insert(0) += n;
        }
        for (verb, n) in self.verbs {
            *report.verbs.entry(verb).or_insert(0) += n;
        }
        report.latency.merge(&self.latency);
    }
}

/// The measured outcome of one load run.
#[derive(Debug, Default)]
pub struct LoadgenReport {
    /// Requests the schedule called for.
    pub scheduled: u64,
    /// Well-formed responses received (ok or error).
    pub completed: u64,
    /// Successful responses.
    pub ok: u64,
    /// Wire-level failures: malformed response lines, id mismatches,
    /// write/read errors, connections closed early.
    pub protocol_errors: u64,
    /// Failed responses, counted by stable error code.
    pub errors_by_code: BTreeMap<String, u64>,
    /// Completed responses, counted by verb.
    pub verbs: BTreeMap<String, u64>,
    /// Latency of successful responses, in microseconds, measured from
    /// the scheduled send instant.
    pub latency: LogHistogram,
    /// Wall-clock span of the whole run (last response in).
    pub elapsed_ms: f64,
}

impl LoadgenReport {
    /// Share of scheduled requests that did not come back ok, in percent
    /// — the gated SLO. Covers service errors, protocol errors, and
    /// responses that never arrived.
    pub fn error_rate_pct(&self) -> f64 {
        if self.scheduled == 0 {
            return 0.0;
        }
        100.0 * (self.scheduled - self.ok) as f64 / self.scheduled as f64
    }

    /// Successful responses per second of wall-clock run time.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            return 0.0;
        }
        self.ok as f64 * 1000.0 / self.elapsed_ms
    }

    /// The latency summary in milliseconds.
    pub fn latency_ms_json(&self) -> Json {
        let ms = |us: u64| us as f64 / 1000.0;
        Json::obj()
            .with("p50", ms(self.latency.quantile(0.50)))
            .with("p90", ms(self.latency.quantile(0.90)))
            .with("p99", ms(self.latency.quantile(0.99)))
            .with("p999", ms(self.latency.quantile(0.999)))
            .with("max", ms(self.latency.max()))
            .with("mean", self.latency.mean() / 1000.0)
    }

    /// The snapshot document: `{config, results}`.
    pub fn snapshot(&self, config: &LoadgenConfig) -> Json {
        let mut errors = Json::obj();
        for (code, n) in &self.errors_by_code {
            errors.set(code, *n);
        }
        let mut verbs = Json::obj();
        for (verb, n) in &self.verbs {
            verbs.set(verb, *n);
        }
        let results = Json::obj()
            .with("scheduled", self.scheduled)
            .with("completed", self.completed)
            .with("ok", self.ok)
            .with("protocol_errors", self.protocol_errors)
            .with("error_rate_pct", self.error_rate_pct())
            .with("throughput_rps", self.throughput_rps())
            .with("elapsed_ms", self.elapsed_ms)
            .with("latency_ms", self.latency_ms_json())
            .with("errors_by_code", errors)
            .with("verbs", verbs);
        Json::obj()
            .with("config", config.to_json())
            .with("results", results)
    }
}

/// One request as a lane sees it: scheduled offset, the serialized wire
/// line (sender side), and the id/verb to check off (receiver side).
struct LanePlan {
    offset_us: u64,
    line: String,
    id: Json,
    verb: String,
}

/// Runs the configured load against a live server and collects the
/// report. The schedule is drawn, dealt round-robin across
/// `config.connections` pre-opened connections, and driven to
/// completion; the call returns once every lane's receiver is done.
///
/// # Errors
///
/// Fails on invalid configuration and on connection-setup errors.
/// Failures *during* the run are not errors — they are what the run
/// measures — and are reported as protocol or per-code error counts.
pub fn run_against(addr: SocketAddr, config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    config
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let arrivals = schedule(config);
    let lanes_n = config.connections;
    let mut plans: Vec<Vec<LanePlan>> = (0..lanes_n).map(|_| Vec::new()).collect();
    for (index, arrival) in arrivals.iter().enumerate() {
        let id = Json::from(index as u64);
        let mut request = Request::new(arrival.verb.clone())
            .with_id(id.clone())
            .with_timeout_ms(config.timeout_ms);
        if let Some(target) = &arrival.target {
            request = request.with_target(target.clone());
        }
        if let Some(scale) = &arrival.scale {
            request = request.with_scale(scale.clone());
        }
        let mut line = request.to_json().compact();
        line.push('\n');
        plans[index % lanes_n].push(LanePlan {
            offset_us: arrival.offset_us,
            line,
            id,
            verb: arrival.verb.clone(),
        });
    }

    // Connect every lane before the epoch so connection setup is not
    // charged to the first requests. Lanes come from the shared client
    // connector: a couple of retries absorb a router or server that is
    // still binding, and the read timeout bounds a wedged wire.
    let connector = ClientConfig::new()
        .attempts(3)
        .backoff(Duration::from_millis(10), Duration::from_millis(100))
        .read_timeout(Some(Duration::from_millis(config.timeout_ms) + RECV_SLACK));
    let mut lanes: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::with_capacity(lanes_n);
    for _ in 0..lanes_n {
        let (writer, reader) = connector.connect(addr)?.split();
        writer.set_nodelay(true).ok();
        lanes.push((writer, reader));
    }

    let mut report = LoadgenReport {
        scheduled: arrivals.len() as u64,
        ..LoadgenReport::default()
    };
    let epoch = Instant::now();
    thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(lanes_n);
        for ((writer, reader), plan) in lanes.into_iter().zip(&plans) {
            scope.spawn(move || sender_lane(writer, plan, epoch));
            receivers.push(scope.spawn(move || receiver_lane(reader, plan, epoch)));
        }
        for receiver in receivers {
            match receiver.join() {
                Ok(outcome) => outcome.merge_into(&mut report),
                Err(_) => report.protocol_errors += 1,
            }
        }
    });
    report.elapsed_ms = epoch.elapsed().as_secs_f64() * 1000.0;
    Ok(report)
}

/// Sends each request at its scheduled offset. Never blocks on
/// responses; a request whose instant has already passed goes out
/// immediately (its queueing delay shows up in the latency histogram,
/// where it belongs). A write failure ends the lane — the receiver
/// notices the missing responses and counts them.
fn sender_lane(mut writer: TcpStream, plan: &[LanePlan], epoch: Instant) {
    for request in plan {
        let due = epoch + Duration::from_micros(request.offset_us);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        if writer.write_all(request.line.as_bytes()).is_err() {
            break;
        }
    }
    // Closing the write half is left to drop after the scope ends; the
    // server tears the connection down once the receiver is done.
}

/// Reads the lane's responses in order, checking ids, and accumulates
/// the outcome. Stops early (counting the remainder as protocol errors)
/// when the connection dies or a read times out.
fn receiver_lane(
    mut reader: BufReader<TcpStream>,
    plan: &[LanePlan],
    epoch: Instant,
) -> LaneOutcome {
    let mut outcome = LaneOutcome::default();
    let mut line = String::new();
    for (received, expected) in plan.iter().enumerate() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                // EOF or read timeout: everything still outstanding on
                // this lane is lost on the wire.
                outcome.protocol_errors += (plan.len() - received) as u64;
                return outcome;
            }
            Ok(_) => {}
        }
        let received_us = epoch.elapsed().as_micros() as u64;
        let response = match Response::parse_line(line.trim()) {
            Ok(response) => response,
            Err(_) => {
                outcome.protocol_errors += 1;
                continue;
            }
        };
        if response.id != expected.id {
            outcome.protocol_errors += 1;
            continue;
        }
        outcome.completed += 1;
        *outcome.verbs.entry(expected.verb.clone()).or_insert(0) += 1;
        match response.result {
            Ok(_) => {
                outcome.ok += 1;
                outcome
                    .latency
                    .record(received_us.saturating_sub(expected.offset_us));
            }
            Err(error) => {
                *outcome.errors_by_code.entry(error.code).or_insert(0) += 1;
            }
        }
    }
    outcome
}
