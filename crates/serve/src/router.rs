//! The cluster router: one process speaking the same newline-delimited
//! JSON protocol as [`crate::server`], placing every request on one of
//! N worker processes by consistent-hashing its routing key.
//!
//! ## Topology
//!
//! Clients connect to the router exactly as they would to a single
//! server — v1 clients round-trip unchanged. Each client connection
//! gets a reader thread (parses requests, forwards them over per-worker
//! "lanes") and a writer thread (resolves responses in request order).
//! A lane is one TCP connection from this client connection to one
//! worker; because both the lane and the worker deliver responses in
//! request order, no id-matching is needed — ordering is the protocol.
//!
//! ## Membership, probes, reroute
//!
//! The [`Membership`] view (generation-numbered worker table) owns the
//! placement [`crate::ring::Ring`]. A probe thread periodically calls
//! the `stats` verb on every worker; consecutive failures mark a worker
//! down (generation bump, ring rebuild), and the `server_id` /
//! `started_at_ms` pair detects a restarted worker behind a reused
//! port. When a lane breaks mid-flight, every request pending on it is
//! re-placed on the rebuilt ring **once** (retry-once semantics): a
//! second loss answers a typed [`code::UNAVAILABLE`] error instead of
//! looping. Reroutes are counted (`rerouted` in router stats and in the
//! v2 response envelope) — never silent.
//!
//! ## Admin verbs
//!
//! The router answers `stats` (cluster-aggregated per-worker counters),
//! `cluster` (the membership view), `drain` (`target` names a worker:
//! take it out of the ring and ask it to shut down gracefully), and
//! `shutdown` (drain the whole fleet) inline; everything else is
//! forwarded.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amnesiac_telemetry::Json;

use crate::client::ClientConfig;
use crate::membership::{Membership, WorkerState};
use crate::protocol::{code, Request, Response, RouteMeta, ServeError, WireVerb, PROTOCOL_VERSION};
use crate::ring::WorkerId;
use crate::server::{fresh_server_id, wall_clock_ms};

/// Poll interval for reader/lane sockets (bounds how long threads take
/// to notice shutdown or a passed deadline).
const READ_POLL: Duration = Duration::from_millis(25);

/// Grace beyond a request's deadline before a silent worker is declared
/// wedged. The worker itself answers a structured timeout *at* the
/// deadline; only a worker that cannot even say "timeout" trips this.
const RESPONSE_SLACK: Duration = Duration::from_millis(2_000);

/// Bound on placement attempts for one request inside a single
/// [`forward`] call (each failed attempt marks a worker down, so the
/// loop shrinks the ring; the bound is a backstop, not a policy).
const MAX_FORWARD_HOPS: usize = 8;

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Interface to bind (`127.0.0.1` unless you mean to expose it).
    pub host: String,
    /// TCP port; `0` picks an ephemeral port (read [`Router::addr`]).
    pub port: u16,
    /// Default per-request deadline in milliseconds (overridable per
    /// request via `timeout_ms`), matching the server semantics.
    pub timeout_ms: u64,
    /// Pause between health-probe sweeps.
    pub probe_interval: Duration,
    /// Connect + read budget for one probe.
    pub probe_timeout: Duration,
    /// Consecutive probe failures before an up worker is marked down.
    pub probe_failure_threshold: u32,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            timeout_ms: 30_000,
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(2_000),
            probe_failure_threshold: 2,
        }
    }
}

/// See [`crate::server`]: recover a poisoned guard instead of turning
/// one panic into a router outage.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct RouterShared {
    addr: SocketAddr,
    timeout_ms: u64,
    probe_interval: Duration,
    probe_timeout: Duration,
    probe_failure_threshold: u32,
    shutdown: AtomicBool,
    membership: Mutex<Membership>,
    /// Last successful `stats` payload per worker (from probes and
    /// cluster-stats sweeps); kept for workers that later die.
    worker_stats: Mutex<BTreeMap<WorkerId, Json>>,
    forwarded: AtomicU64,
    rerouted: AtomicU64,
    unavailable: AtomicU64,
    probe_failures: AtomicU64,
    open_connections: AtomicUsize,
    router_id: String,
    started: Instant,
    started_at_ms: u64,
}

impl RouterShared {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the acceptor out of its blocking accept.
            let _ = TcpStream::connect(self.addr);
            // Drain the fleet: ask every live worker to shut down
            // gracefully (best-effort; a dead worker is already gone).
            let addrs: Vec<SocketAddr> = lock(&self.membership)
                .workers()
                .iter()
                .filter(|w| w.state != WorkerState::Down)
                .map(|w| w.addr)
                .collect();
            for addr in addrs {
                let _ = send_admin(addr, "shutdown", self.probe_timeout);
            }
        }
    }

    fn mark_worker_down(&self, id: WorkerId) {
        lock(&self.membership).mark_down(id);
    }

    /// The router's `stats` payload. With `fresh`, every live worker is
    /// swept for a current `stats` snapshot first (falling back to the
    /// cached probe snapshot when a sweep call fails).
    fn stats_payload(&self, fresh: bool) -> Json {
        if fresh {
            let sweep: Vec<(WorkerId, SocketAddr)> = lock(&self.membership)
                .workers()
                .iter()
                .filter(|w| w.state != WorkerState::Down)
                .map(|w| (w.id, w.addr))
                .collect();
            for (id, addr) in sweep {
                if let Ok(stats) = probe_worker(addr, self.probe_timeout) {
                    self.observe_worker_stats(id, stats);
                }
            }
        }
        let membership = lock(&self.membership);
        let cache = lock(&self.worker_stats);
        // Aggregate per-verb counters across the live workers.
        let mut verbs: BTreeMap<String, (f64, f64, f64, f64, f64, f64)> = BTreeMap::new();
        let mut workers = Vec::new();
        for worker in membership.workers() {
            let stats = cache.get(&worker.id);
            if worker.state != WorkerState::Down {
                if let Some(worker_verbs) =
                    stats.and_then(|s| s.get("verbs")).and_then(Json::as_obj)
                {
                    for (verb, counters) in worker_verbs {
                        let entry = verbs.entry(verb.clone()).or_default();
                        let n =
                            |field: &str| counters.get(field).and_then(Json::as_f64).unwrap_or(0.0);
                        entry.0 += n("requests");
                        entry.1 += n("ok");
                        entry.2 += n("errors");
                        entry.3 += n("timeouts");
                        entry.4 += n("total_ms");
                        entry.5 = entry.5.max(n("max_ms"));
                    }
                }
            }
            let mut row = Json::obj()
                .with("id", worker.id)
                .with("addr", worker.addr.to_string())
                .with("state", worker.state.name())
                .with("probe_failures", worker.probe_failures)
                .with("restarts", worker.restarts);
            if let Some(stats) = stats {
                row.set("stats", stats.clone());
            }
            workers.push(row);
        }
        let mut verbs_json = Json::obj();
        for (verb, (requests, ok, errors, timeouts, total_ms, max_ms)) in verbs {
            verbs_json.set(
                &verb,
                Json::obj()
                    .with("requests", requests)
                    .with("ok", ok)
                    .with("errors", errors)
                    .with("timeouts", timeouts)
                    .with("total_ms", total_ms)
                    .with("max_ms", max_ms),
            );
        }
        Json::obj()
            .with("role", "router")
            .with("protocol_version", PROTOCOL_VERSION)
            .with("server_id", self.router_id.as_str())
            .with("started_at_ms", self.started_at_ms)
            .with("uptime_ms", self.started.elapsed().as_secs_f64() * 1e3)
            .with("timeout_ms", self.timeout_ms)
            .with("generation", membership.generation())
            .with("workers_up", membership.up_count())
            .with("workers_total", membership.workers().len())
            .with("forwarded", self.forwarded.load(Ordering::Acquire))
            .with("rerouted", self.rerouted.load(Ordering::Acquire))
            .with("unavailable", self.unavailable.load(Ordering::Acquire))
            .with(
                "probe_failures",
                self.probe_failures.load(Ordering::Acquire),
            )
            .with(
                "open_connections",
                self.open_connections.load(Ordering::Acquire),
            )
            .with("draining", self.shutdown.load(Ordering::SeqCst))
            .with("verbs", verbs_json)
            .with("workers", Json::Arr(workers))
    }

    /// Folds a successful worker `stats` payload into the membership
    /// view (restart/rejoin detection) and the snapshot cache.
    fn observe_worker_stats(&self, id: WorkerId, stats: Json) {
        let server_id = stats
            .get("server_id")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let started_at_ms = stats
            .get("started_at_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        lock(&self.membership).observe_probe(id, &server_id, started_at_ms);
        lock(&self.worker_stats).insert(id, stats);
    }
}

/// One `stats` round-trip to a worker on a fresh short-lived connection.
fn probe_worker(addr: SocketAddr, timeout: Duration) -> std::io::Result<Json> {
    let timeout_ms = (timeout.as_millis() as u64).max(1);
    let mut client = ClientConfig::new()
        .read_timeout(Some(timeout))
        .connect(addr)?;
    let response = client.call(&Request::new("stats").with_timeout_ms(timeout_ms))?;
    response.result.map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("probe error: {e}"))
    })
}

/// Fire-and-forget admin verb to a worker (used for drain/shutdown).
fn send_admin(addr: SocketAddr, verb: &str, timeout: Duration) -> std::io::Result<()> {
    let mut client = ClientConfig::new()
        .read_timeout(Some(timeout))
        .connect(addr)?;
    let _ = client.call(&Request::new(verb))?;
    Ok(())
}

/// One forwarded request's completion slot, shared between the lane
/// receiver resolving it and the connection writer waiting on it.
struct RouterJob {
    slot: Mutex<Option<LaneOutcome>>,
    done: Condvar,
}

enum LaneOutcome {
    /// The worker answered: its result and self-reported elapsed ms.
    Answered {
        result: Result<Json, ServeError>,
        worker_ms: f64,
    },
    /// The lane broke before this request was answered; the writer
    /// re-places it once.
    LaneLost,
    /// The worker stayed silent past deadline + slack (wedged): the
    /// writer answers a structured timeout, no retry.
    TimedOut,
}

impl RouterJob {
    fn new() -> RouterJob {
        RouterJob {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn complete(&self, outcome: LaneOutcome) {
        *lock(&self.slot) = Some(outcome);
        self.done.notify_all();
    }

    fn wait_until(&self, deadline: Instant) -> Option<LaneOutcome> {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timeout) = self
                .done
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = next;
            if timeout.timed_out() && slot.is_none() {
                return None;
            }
        }
    }
}

struct LaneEntry {
    job: Arc<RouterJob>,
    deadline: Instant,
}

/// One TCP connection from one client connection to one worker. Both
/// ends deliver in request order, so the receiver thread matches the
/// k-th response line to the k-th queued entry.
struct Lane {
    writer: TcpStream,
    entries: Option<Sender<LaneEntry>>,
    broken: Arc<AtomicBool>,
    receiver: Option<JoinHandle<()>>,
}

impl Lane {
    /// Sends one request down the lane: bytes first, then the matching
    /// entry. Callers hold the lane-map lock, so byte order and entry
    /// order agree even when the reader and the retrying writer forward
    /// concurrently.
    fn send(&mut self, line: &[u8], entry: LaneEntry) -> std::io::Result<()> {
        self.writer.write_all(line)?;
        self.writer.flush()?;
        if let Some(entries) = &self.entries {
            if entries.send(entry).is_ok() {
                return Ok(());
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "lane receiver is gone",
        ))
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        self.entries.take(); // close the receiver's queue
        if let Some(receiver) = self.receiver.take() {
            let _ = receiver.join();
        }
    }
}

type LaneMap = Mutex<BTreeMap<WorkerId, Lane>>;

fn open_lane(
    shared: &Arc<RouterShared>,
    worker: WorkerId,
    addr: SocketAddr,
) -> std::io::Result<Lane> {
    let writer = ClientConfig::new()
        .attempts(2)
        .backoff(Duration::from_millis(5), Duration::from_millis(20))
        .read_timeout(Some(READ_POLL))
        .connect_stream(addr)?;
    let read_stream = writer.try_clone()?;
    let (tx, rx) = channel::<LaneEntry>();
    let broken = Arc::new(AtomicBool::new(false));
    let receiver = {
        let shared = Arc::clone(shared);
        let broken = Arc::clone(&broken);
        thread::Builder::new()
            .name("amnesiac-router-lane".into())
            .spawn(move || lane_receiver(shared, worker, read_stream, rx, broken))?
    };
    Ok(Lane {
        writer,
        entries: Some(tx),
        broken,
        receiver: Some(receiver),
    })
}

enum LaneRead {
    Response(Response),
    Malformed,
    TimedOut,
    Closed,
}

/// Reads one response line, polling so a passed deadline is noticed.
/// The buffer persists across polls — a timeout mid-line keeps the
/// partial bytes.
fn lane_read_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    deadline: Instant,
) -> LaneRead {
    loop {
        match reader.read_until(b'\n', buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return LaneRead::TimedOut;
                }
            }
            Err(_) | Ok(0) => return LaneRead::Closed,
            Ok(_) => {
                if buf.last() != Some(&b'\n') {
                    return LaneRead::Closed; // EOF mid-line
                }
                let line = String::from_utf8_lossy(buf);
                let parsed = Response::parse_line(line.trim());
                buf.clear();
                return match parsed {
                    Ok(response) => LaneRead::Response(response),
                    Err(_) => LaneRead::Malformed,
                };
            }
        }
    }
}

fn lane_receiver(
    shared: Arc<RouterShared>,
    worker: WorkerId,
    stream: TcpStream,
    entries: Receiver<LaneEntry>,
    broken: Arc<AtomicBool>,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut dead = false;
    // On every failure arm the loss is published (lane flagged broken,
    // worker marked down) *before* the waiter wakes: the woken writer
    // re-forwards at once, and must not find the dead worker still up
    // behind a lane that looks healthy — a write onto a cleanly closed
    // socket succeeds, so that request would be lost a second time.
    while let Ok(entry) = entries.recv() {
        if dead {
            entry.job.complete(LaneOutcome::LaneLost);
            continue;
        }
        match lane_read_line(&mut reader, &mut buf, entry.deadline + RESPONSE_SLACK) {
            LaneRead::Response(response) => {
                entry.job.complete(LaneOutcome::Answered {
                    result: response.result,
                    worker_ms: response.elapsed_ms,
                });
            }
            LaneRead::Malformed => {
                // Protocol corruption from the worker: answer a typed
                // internal error and poison the lane (a fresh lane will
                // be opened on the next request for this worker).
                dead = true;
                broken.store(true, Ordering::Release);
                entry.job.complete(LaneOutcome::Answered {
                    result: Err(ServeError::new(
                        code::INTERNAL,
                        format!("worker w{worker} sent a malformed response line"),
                    )),
                    worker_ms: 0.0,
                });
            }
            LaneRead::TimedOut => {
                dead = true;
                broken.store(true, Ordering::Release);
                shared.mark_worker_down(worker);
                entry.job.complete(LaneOutcome::TimedOut);
            }
            LaneRead::Closed => {
                dead = true;
                broken.store(true, Ordering::Release);
                shared.mark_worker_down(worker);
                entry.job.complete(LaneOutcome::LaneLost);
            }
        }
    }
}

/// Places one request on a worker and sends it, failing over (and
/// marking workers down) until a send sticks or the ring is empty.
/// `reroutes` counts failovers past the first placement.
fn forward(
    shared: &Arc<RouterShared>,
    lanes: &LaneMap,
    request: &Request,
    deadline: Instant,
    reroutes: &mut u64,
) -> Result<(Arc<RouterJob>, WorkerId), ServeError> {
    let key = request.routing_key();
    let mut line = request.to_json().compact().into_bytes();
    line.push(b'\n');
    let mut first = true;
    for _ in 0..MAX_FORWARD_HOPS {
        let Some((worker, addr, _generation)) = lock(&shared.membership).route(&key) else {
            return Err(ServeError::new(
                code::UNAVAILABLE,
                format!("no live worker for routing key `{key}`"),
            ));
        };
        if !first {
            *reroutes += 1;
        }
        first = false;
        let mut map = lock(lanes);
        if map
            .get(&worker)
            .is_some_and(|lane| lane.broken.load(Ordering::Acquire))
        {
            map.remove(&worker);
        }
        let opened = match map.entry(worker) {
            std::collections::btree_map::Entry::Occupied(_) => true,
            std::collections::btree_map::Entry::Vacant(slot) => {
                match open_lane(shared, worker, addr) {
                    Ok(lane) => {
                        slot.insert(lane);
                        true
                    }
                    Err(_) => false,
                }
            }
        };
        if !opened {
            drop(map);
            shared.mark_worker_down(worker);
            continue;
        }
        let Some(lane) = map.get_mut(&worker) else {
            continue;
        };
        let job = Arc::new(RouterJob::new());
        let entry = LaneEntry {
            job: Arc::clone(&job),
            deadline,
        };
        if lane.send(&line, entry).is_err() {
            map.remove(&worker);
            drop(map);
            shared.mark_worker_down(worker);
            continue;
        }
        return Ok((job, worker));
    }
    Err(ServeError::new(
        code::UNAVAILABLE,
        "forwarding kept failing across reroutes",
    ))
}

/// A response owed to the client, in request order.
struct RouterPendingResponse {
    id: Json,
    verb: String,
    received: Instant,
    /// `Some(key)` when the request opted into the v2 envelope.
    routing_key: Option<String>,
    kind: RouterPending,
}

enum RouterPending {
    /// Decided at dispatch time (admin verbs, rejections, errors).
    Ready(Result<Json, ServeError>),
    /// In flight on a worker lane.
    Forwarded {
        job: Arc<RouterJob>,
        worker: WorkerId,
        deadline: Instant,
        reroutes: u64,
        request: Request,
    },
}

/// A running cluster router. Same lifecycle contract as
/// [`crate::server::Server`]: [`Router::shutdown`] then
/// [`Router::join`], or [`Router::stop`] for both.
pub struct Router {
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Binds, seeds the membership view with `workers`, and starts the
    /// acceptor and probe threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: RouterConfig, workers: &[SocketAddr]) -> std::io::Result<Router> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(RouterShared {
            addr,
            timeout_ms: config.timeout_ms.max(1),
            probe_interval: config.probe_interval,
            probe_timeout: config.probe_timeout,
            probe_failure_threshold: config.probe_failure_threshold.max(1),
            shutdown: AtomicBool::new(false),
            membership: Mutex::new(Membership::new(workers)),
            worker_stats: Mutex::new(BTreeMap::new()),
            forwarded: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
            router_id: fresh_server_id(),
            started: Instant::now(),
            started_at_ms: wall_clock_ms(),
        });
        let conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("amnesiac-router-accept".into())
                .spawn(move || acceptor_loop(listener, shared, conns))?
        };
        let prober = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("amnesiac-router-probe".into())
                .spawn(move || probe_loop(shared))?
        };
        Ok(Router {
            shared,
            acceptor: Some(acceptor),
            prober: Some(prober),
            conns,
        })
    }

    /// The bound address (read this when `port` was 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins a graceful drain of the router and (best-effort) of every
    /// live worker. Returns immediately; pair with [`Router::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// The router `stats` payload from cached worker snapshots (the
    /// `stats` verb over the wire does a fresh sweep instead).
    pub fn stats_json(&self) -> Json {
        self.shared.stats_payload(false)
    }

    /// The generation-numbered membership view.
    pub fn membership_json(&self) -> Json {
        lock(&self.shared.membership).to_json()
    }

    /// The current membership generation.
    pub fn generation(&self) -> u64 {
        lock(&self.shared.membership).generation()
    }

    /// Waits until the acceptor, every connection, and the probe thread
    /// have exited (prompt only after [`Router::shutdown`]).
    pub fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        loop {
            let Some(conn) = lock(&self.conns).pop() else {
                break;
            };
            let _ = conn.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }

    /// [`Router::shutdown`] followed by [`Router::join`].
    pub fn stop(mut self) {
        self.shutdown();
        self.join();
    }
}

fn acceptor_loop(
    listener: TcpListener,
    shared: Arc<RouterShared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            thread::sleep(Duration::from_millis(10));
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Reap finished connection handles (same bounded-tracking
        // policy as the server's acceptor).
        {
            let mut guard = lock(&conns);
            let mut i = 0;
            while i < guard.len() {
                if guard[i].is_finished() {
                    let _ = guard.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
        }
        shared.open_connections.fetch_add(1, Ordering::AcqRel);
        let conn_shared = Arc::clone(&shared);
        match thread::Builder::new()
            .name("amnesiac-router-conn".into())
            .spawn(move || serve_connection(conn_shared, stream))
        {
            Ok(handle) => lock(&conns).push(handle),
            Err(_) => {
                shared.open_connections.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

fn probe_loop(shared: Arc<RouterShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let snapshot: Vec<(WorkerId, SocketAddr)> = lock(&shared.membership)
            .workers()
            .iter()
            .map(|w| (w.id, w.addr))
            .collect();
        for (id, addr) in snapshot {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match probe_worker(addr, shared.probe_timeout) {
                Ok(stats) => shared.observe_worker_stats(id, stats),
                Err(_) => {
                    shared.probe_failures.fetch_add(1, Ordering::AcqRel);
                    let mut membership = lock(&shared.membership);
                    let failures = membership.probe_failed(id);
                    let up = membership
                        .worker(id)
                        .is_some_and(|w| w.state == WorkerState::Up);
                    if up && failures >= shared.probe_failure_threshold {
                        membership.mark_down(id);
                    }
                }
            }
        }
        // Sleep in slices so shutdown stays prompt.
        let mut remaining = shared.probe_interval;
        while remaining > Duration::ZERO && !shared.shutdown.load(Ordering::SeqCst) {
            let step = remaining.min(Duration::from_millis(50));
            thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
    }
}

fn serve_connection(shared: Arc<RouterShared>, stream: TcpStream) {
    struct OpenGuard(Arc<RouterShared>);
    impl Drop for OpenGuard {
        fn drop(&mut self) {
            self.0.open_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let _open = OpenGuard(Arc::clone(&shared));
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let lanes: Arc<LaneMap> = Arc::new(Mutex::new(BTreeMap::new()));
    let (tx, rx) = channel::<RouterPendingResponse>();
    let writer = {
        let shared = Arc::clone(&shared);
        let lanes = Arc::clone(&lanes);
        let spawned = thread::Builder::new()
            .name("amnesiac-router-write".into())
            .spawn(move || writer_loop(shared, write_stream, rx, lanes));
        match spawned {
            Ok(handle) => handle,
            Err(_) => return,
        }
    };
    reader_loop(&shared, stream, &tx, &lanes);
    drop(tx);
    let _ = writer.join();
    // `lanes` drops here (writer's clone is gone too): sockets shut,
    // receiver threads joined.
}

fn reader_loop(
    shared: &Arc<RouterShared>,
    stream: TcpStream,
    tx: &Sender<RouterPendingResponse>,
    lanes: &Arc<LaneMap>,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) | Ok(0) => return,
            Ok(_) => {
                if buf.last() != Some(&b'\n') {
                    process_line(shared, lanes, tx, &buf);
                    return;
                }
                process_line(shared, lanes, tx, &buf);
                buf.clear();
            }
        }
    }
}

fn process_line(
    shared: &Arc<RouterShared>,
    lanes: &Arc<LaneMap>,
    tx: &Sender<RouterPendingResponse>,
    raw: &[u8],
) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let received = Instant::now();
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err(error) => {
            let _ = tx.send(RouterPendingResponse {
                id: Json::Null,
                verb: "?".to_string(),
                received,
                routing_key: None,
                kind: RouterPending::Ready(Err(error)),
            });
            return;
        }
    };
    let routing_key = (request.proto_version() >= 2).then(|| request.routing_key());
    let kind = route_dispatch(shared, lanes, &request);
    let _ = tx.send(RouterPendingResponse {
        id: request.id.clone(),
        verb: request.verb.clone(),
        received,
        routing_key,
        kind,
    });
}

/// Decides one parsed request: answered inline (admin verbs, drain
/// rejections, placement failures) or forwarded to a worker lane.
fn route_dispatch(
    shared: &Arc<RouterShared>,
    lanes: &Arc<LaneMap>,
    request: &Request,
) -> RouterPending {
    match request.wire_verb() {
        Some(WireVerb::Stats) => RouterPending::Ready(Ok(shared.stats_payload(true))),
        Some(WireVerb::Cluster) => RouterPending::Ready(Ok(lock(&shared.membership).to_json())),
        Some(WireVerb::Shutdown) => {
            let ready = RouterPending::Ready(Ok(Json::obj().with("draining", true)));
            shared.begin_shutdown();
            ready
        }
        Some(WireVerb::Drain) => RouterPending::Ready(drain_worker(shared, request)),
        _ if shared.shutdown.load(Ordering::SeqCst) => RouterPending::Ready(Err(ServeError::new(
            code::SHUTTING_DOWN,
            "router is draining and refuses new work",
        ))),
        _ => {
            let deadline = Instant::now()
                + Duration::from_millis(request.timeout_ms.unwrap_or(shared.timeout_ms));
            let mut reroutes = 0u64;
            match forward(shared, lanes, request, deadline, &mut reroutes) {
                Ok((job, worker)) => {
                    shared.forwarded.fetch_add(1, Ordering::AcqRel);
                    if reroutes > 0 {
                        shared.rerouted.fetch_add(reroutes, Ordering::AcqRel);
                    }
                    RouterPending::Forwarded {
                        job,
                        worker,
                        deadline,
                        reroutes,
                        request: request.clone(),
                    }
                }
                Err(error) => {
                    shared.unavailable.fetch_add(1, Ordering::AcqRel);
                    RouterPending::Ready(Err(error))
                }
            }
        }
    }
}

/// The `drain` admin verb: `target` names a worker (`w1`, `1`, or its
/// address); the worker leaves the ring and is asked to shut down
/// gracefully — in-flight requests on existing lanes finish normally.
fn drain_worker(shared: &Arc<RouterShared>, request: &Request) -> Result<Json, ServeError> {
    let Some(target) = request.target.as_deref() else {
        return Err(ServeError::new(
            code::USAGE,
            "drain requires a target worker (`w<id>`, `<id>`, or `host:port`)",
        ));
    };
    let mut membership = lock(&shared.membership);
    let id = target
        .strip_prefix('w')
        .unwrap_or(target)
        .parse::<WorkerId>()
        .ok()
        .filter(|id| membership.worker(*id).is_some())
        .or_else(|| {
            membership
                .workers()
                .iter()
                .find(|w| w.addr.to_string() == target)
                .map(|w| w.id)
        });
    let Some(id) = id else {
        return Err(ServeError::new(
            code::USAGE,
            format!("unknown worker `{target}`"),
        ));
    };
    let addr = membership.worker(id).map(|w| w.addr);
    let changed = membership.mark_draining(id);
    let generation = membership.generation();
    drop(membership);
    if let Some(addr) = addr {
        let _ = send_admin(addr, "shutdown", shared.probe_timeout);
    }
    Ok(Json::obj()
        .with("draining_worker", id)
        .with("changed", changed)
        .with("generation", generation))
}

fn writer_loop(
    shared: Arc<RouterShared>,
    mut stream: TcpStream,
    rx: Receiver<RouterPendingResponse>,
    lanes: Arc<LaneMap>,
) {
    let mut broken_client = false;
    for pending in rx {
        let (result, reroutes, worker_hop) = resolve(&shared, &lanes, pending.kind);
        if broken_client {
            continue; // keep draining so in-flight jobs are resolved
        }
        let elapsed_ms = pending.received.elapsed().as_secs_f64() * 1e3;
        let meta = pending.routing_key.map(|key| {
            let mut hops = vec![("router".to_string(), elapsed_ms)];
            if let Some((worker, worker_ms)) = worker_hop {
                hops.push((format!("w{worker}"), worker_ms));
            }
            RouteMeta {
                proto: 2,
                routing_key: key,
                rerouted: reroutes,
                hops,
            }
        });
        let response = Response {
            id: pending.id,
            verb: pending.verb,
            elapsed_ms,
            result,
            meta,
        };
        let mut line = response.to_json().compact();
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() || stream.flush().is_err() {
            broken_client = true;
        }
    }
}

/// Resolves one pending response: waits out the forwarded job,
/// re-placing it once when its lane is lost (retry-once), and converts
/// every terminal state into a structured result — never a hang.
fn resolve(
    shared: &Arc<RouterShared>,
    lanes: &Arc<LaneMap>,
    kind: RouterPending,
) -> (Result<Json, ServeError>, u64, Option<(WorkerId, f64)>) {
    match kind {
        RouterPending::Ready(result) => (result, 0, None),
        RouterPending::Forwarded {
            mut job,
            mut worker,
            deadline,
            mut reroutes,
            request,
        } => {
            let mut lane_retries = 0u32;
            loop {
                match job.wait_until(deadline + RESPONSE_SLACK * 2) {
                    Some(LaneOutcome::Answered { result, worker_ms }) => {
                        return (result, reroutes, Some((worker, worker_ms)));
                    }
                    Some(LaneOutcome::TimedOut) | None => {
                        return (
                            Err(ServeError::new(
                                code::TIMEOUT,
                                format!(
                                    "request exceeded its deadline (worker w{worker} unresponsive)"
                                ),
                            )),
                            reroutes,
                            Some((worker, 0.0)),
                        );
                    }
                    Some(LaneOutcome::LaneLost) => {
                        if lane_retries >= 1 {
                            shared.unavailable.fetch_add(1, Ordering::AcqRel);
                            return (
                                Err(ServeError::new(
                                    code::UNAVAILABLE,
                                    "worker lost twice while handling this request",
                                )),
                                reroutes,
                                None,
                            );
                        }
                        lane_retries += 1;
                        reroutes += 1;
                        shared.rerouted.fetch_add(1, Ordering::AcqRel);
                        let mut extra = 0u64;
                        match forward(shared, lanes, &request, deadline, &mut extra) {
                            Ok((next_job, next_worker)) => {
                                reroutes += extra;
                                if extra > 0 {
                                    shared.rerouted.fetch_add(extra, Ordering::AcqRel);
                                }
                                job = next_job;
                                worker = next_worker;
                            }
                            Err(error) => {
                                shared.unavailable.fetch_add(1, Ordering::AcqRel);
                                return (Err(error), reroutes, None);
                            }
                        }
                    }
                }
            }
        }
    }
}
