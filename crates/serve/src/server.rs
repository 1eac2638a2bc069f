//! The concurrent batch server.
//!
//! One acceptor thread takes TCP connections; each connection gets a
//! reader thread (parses request lines, dispatches jobs) and a writer
//! thread (waits for each job up to its deadline, writes response lines
//! in request order). Requests execute on `workers` threads that take
//! jobs from one shared queue in arrival order, so heavy verbs from many
//! connections share one bounded set of workers, and each request runs
//! on exactly one of them.
//!
//! ## Backpressure
//!
//! Admission is bounded: at most `backlog` requests may be queued or
//! running at once, across all connections. A request arriving at a full
//! backlog is rejected immediately with a structured
//! [`code::OVERLOADED`] error — it is never queued, so a fast client
//! cannot wedge the service.
//!
//! ## Deadlines and cancellation
//!
//! Every request carries a deadline (`timeout_ms` in the request, else
//! the server default). When the deadline passes before the job
//! completes, the writer sends a structured [`code::TIMEOUT`] error and
//! marks the job cancelled: a job still queued is skipped outright (true
//! cancellation); a job already running completes and its result is
//! discarded — safe Rust cannot preempt a compute in flight.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] (or a `shutdown` request) stops the acceptor,
//! makes readers refuse new requests with [`code::SHUTTING_DOWN`], and
//! lets every already-admitted request drain: writers deliver all pending
//! responses before their connections close. [`Server::join`] returns
//! once every connection and every worker have wound down.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amnesiac_rng::Rng;
use amnesiac_telemetry::Json;

use crate::protocol::{code, Request, Response, RouteMeta, ServeError, PROTOCOL_VERSION};

/// How the request handler is plugged into the server: a function from
/// parsed request to payload-or-error. Called on worker threads; must be
/// panic-safe in the sense that a panic is caught and reported as
/// [`code::INTERNAL`], never crashes the server.
pub type Handler = Arc<dyn Fn(&Request) -> Result<Json, ServeError> + Send + Sync>;

/// An optional extension to the `stats` verb's payload: called on every
/// stats snapshot, and every field of the returned object is appended to
/// the payload. Lets the embedding layer surface its own counters (e.g.
/// a shared compile cache) without the server knowing their shape.
pub type StatsHook = Arc<dyn Fn() -> Json + Send + Sync>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Interface to bind (`127.0.0.1` unless you mean to expose it).
    pub host: String,
    /// TCP port; `0` picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub port: u16,
    /// Worker threads executing requests. At least 1.
    pub workers: usize,
    /// Maximum requests queued-or-running at once before new requests are
    /// rejected with [`code::OVERLOADED`]. At least 1.
    pub backlog: usize,
    /// Default per-request deadline in milliseconds (overridable per
    /// request via `timeout_ms`).
    pub timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .clamp(1, 8),
            backlog: 64,
            timeout_ms: 30_000,
        }
    }
}

/// Per-verb counters exposed by the `stats` verb.
#[derive(Debug, Clone, Default)]
struct VerbStats {
    requests: u64,
    ok: u64,
    errors: u64,
    timeouts: u64,
    total_ms: f64,
    max_ms: f64,
}

#[derive(Debug, Default)]
struct Stats {
    verbs: BTreeMap<String, VerbStats>,
}

/// The poll interval readers use while blocked on a quiet socket; bounds
/// how long shutdown waits for an idle connection to notice the flag.
const READ_POLL: Duration = Duration::from_millis(25);

/// First pause after a transient `accept()` error. Without a pause, fd
/// exhaustion (EMFILE) under load turns the acceptor into a 100%-CPU
/// spin; with one, it backs off and retries once pressure eases.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(2);

/// Ceiling of the accept-error backoff (doubles per consecutive error).
/// Also bounds how long a draining server waits for the acceptor to
/// re-check the shutdown flag after an error streak.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// The next accept-error pause: exponential, capped.
fn next_accept_backoff(current: Duration) -> Duration {
    (current * 2).min(ACCEPT_BACKOFF_MAX)
}

/// Wall-clock milliseconds since the UNIX epoch (0 if the clock is
/// before the epoch, which only a badly broken host reports).
pub(crate) fn wall_clock_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A fresh process-unique server identity: a seeded-random 64-bit hex
/// string. Paired with `started_at_ms` in the `stats` payload so a
/// cluster membership view can tell a restarted worker from the old one
/// even when the OS reuses the port.
pub(crate) fn fresh_server_id() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 20))
        .unwrap_or(0);
    let seed = nanos ^ u64::from(std::process::id()).rotate_left(32);
    let mut rng = Rng::seed_from_u64(seed);
    format!("{:016x}", rng.next_u64())
}

/// Locks a mutex, recovering the guard when a panicking thread poisoned
/// it. Every structure behind a server mutex (stats counters, connection
/// handles, completion slots) stays well-formed across a handler panic,
/// and refusing all further service over a poisoned counter would turn
/// one panic into an outage.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    handler: Handler,
    addr: SocketAddr,
    backlog: usize,
    timeout_ms: u64,
    workers: usize,
    shutdown: AtomicBool,
    /// Requests currently queued or running (admission counter).
    inflight: AtomicUsize,
    rejected_overload: AtomicU64,
    /// Transient `listener.accept()` failures (each one also costs a
    /// backoff pause in the acceptor).
    accept_errors: AtomicU64,
    /// Connections whose reader/writer threads are still running.
    open_connections: AtomicUsize,
    /// Jobs a worker skipped because their deadline had already passed
    /// (or the writer had cancelled them) by the time a worker got there.
    expired_skipped: AtomicU64,
    stats: Mutex<Stats>,
    stats_ext: Option<StatsHook>,
    started: Instant,
    /// Seeded-random process identity, exposed via `stats` so a cluster
    /// membership view can detect a restart behind a reused port.
    server_id: String,
    /// Wall-clock UNIX ms at startup (same restart-detection purpose).
    started_at_ms: u64,
}

impl Shared {
    /// Tries to admit one request under the backlog bound.
    fn try_admit(&self) -> bool {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.backlog).then_some(n + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the acceptor out of its blocking `accept` so it can see
            // the flag; the throwaway connection is dropped unserved.
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn record(&self, verb: &str, outcome: &Result<Json, ServeError>, elapsed_ms: f64) {
        let mut stats = lock(&self.stats);
        let entry = stats.verbs.entry(verb.to_string()).or_default();
        entry.requests += 1;
        match outcome {
            Ok(_) => entry.ok += 1,
            Err(e) if e.code == code::TIMEOUT => entry.timeouts += 1,
            Err(_) => entry.errors += 1,
        }
        entry.total_ms += elapsed_ms;
        entry.max_ms = entry.max_ms.max(elapsed_ms);
    }

    /// The `stats` verb's payload.
    fn stats_json(&self) -> Json {
        let stats = lock(&self.stats);
        let mut verbs = Json::obj();
        for (verb, v) in &stats.verbs {
            verbs.set(
                verb,
                Json::obj()
                    .with("requests", v.requests)
                    .with("ok", v.ok)
                    .with("errors", v.errors)
                    .with("timeouts", v.timeouts)
                    .with("total_ms", v.total_ms)
                    .with("max_ms", v.max_ms),
            );
        }
        let mut payload = Json::obj()
            .with("protocol_version", PROTOCOL_VERSION)
            .with("server_id", self.server_id.as_str())
            .with("started_at_ms", self.started_at_ms)
            .with("uptime_ms", self.started.elapsed().as_secs_f64() * 1e3)
            .with("workers", self.workers)
            .with("backlog", self.backlog)
            .with("timeout_ms", self.timeout_ms)
            .with("inflight", self.inflight.load(Ordering::Acquire))
            .with(
                "rejected_overload",
                self.rejected_overload.load(Ordering::Acquire),
            )
            .with("accept_errors", self.accept_errors.load(Ordering::Acquire))
            .with(
                "open_connections",
                self.open_connections.load(Ordering::Acquire),
            )
            .with(
                "expired_skipped",
                self.expired_skipped.load(Ordering::Acquire),
            )
            .with("draining", self.shutdown.load(Ordering::SeqCst))
            .with("verbs", verbs);
        if let Some(hook) = &self.stats_ext {
            if let Json::Obj(fields) = hook() {
                for (key, value) in fields {
                    payload.set(&key, value);
                }
            }
        }
        payload
    }
}

/// One request's completion slot, shared between the worker job computing
/// it and the connection writer waiting on it.
struct Job {
    cancelled: AtomicBool,
    slot: Mutex<Option<Result<Json, ServeError>>>,
    done: Condvar,
}

impl Job {
    fn new() -> Job {
        Job {
            cancelled: AtomicBool::new(false),
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Json, ServeError>) {
        *lock(&self.slot) = Some(result);
        self.done.notify_all();
    }

    /// Waits for completion until `deadline`; `None` means the deadline
    /// passed first (the caller reports a timeout and cancels).
    fn wait_until(&self, deadline: Instant) -> Option<Result<Json, ServeError>> {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(result) = slot.take() {
                return Some(result);
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

/// A response owed to the client, in request order.
struct PendingResponse {
    id: Json,
    verb: String,
    received: Instant,
    /// `Some(key)` when the request opted into the v2 envelope: the
    /// writer folds routing metadata (key, zero reroutes, one `serve`
    /// hop) into the response. `None` keeps the v1 envelope unchanged.
    routing_key: Option<String>,
    kind: PendingKind,
}

enum PendingKind {
    /// Decided at dispatch time (stats, rejections, protocol errors).
    Ready(Result<Json, ServeError>),
    /// Executing (or queued) on a worker; resolved by the writer.
    Running(Arc<Job>, Instant),
}

/// A running batch service. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] then [`Server::join`] (or
/// [`Server::stop`] for both).
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// One admitted request's work, queued for the workers.
type Task = Box<dyn FnOnce() + Send>;

impl Server {
    /// Binds, spawns the workers and the acceptor, and returns
    /// immediately. Requests are served until [`Server::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates a bind failure or a failed thread spawn.
    pub fn start(config: ServerConfig, handler: Handler) -> std::io::Result<Server> {
        Server::start_with_stats(config, handler, None)
    }

    /// [`Server::start`] with an optional [`StatsHook`] whose fields are
    /// appended to every `stats` payload.
    ///
    /// # Errors
    ///
    /// Propagates a bind failure or a failed thread spawn.
    pub fn start_with_stats(
        config: ServerConfig,
        handler: Handler,
        stats_ext: Option<StatsHook>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            handler,
            addr,
            backlog: config.backlog.max(1),
            timeout_ms: config.timeout_ms.max(1),
            workers,
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            rejected_overload: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
            expired_skipped: AtomicU64::new(0),
            stats: Mutex::new(Stats::default()),
            stats_ext,
            started: Instant::now(),
            server_id: fresh_server_id(),
            started_at_ms: wall_clock_ms(),
        });
        // Jobs reach the workers over one channel whose senders are held
        // by the acceptor and the connection readers. It disconnects only
        // once the last of them is done, and a receiver still yields every
        // queued job before it sees the disconnect, so admitted work runs
        // before the workers exit.
        let (jobs_tx, jobs_rx) = channel::<Task>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let workers = (0..workers)
            .map(|_| {
                let jobs = Arc::clone(&jobs_rx);
                thread::Builder::new()
                    .name("amnesiac-serve-worker".into())
                    .spawn(move || worker_loop(&jobs))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("amnesiac-serve-accept".into())
                .spawn(move || acceptor_loop(listener, shared, conns, jobs_tx))?
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
            conns,
        })
    }

    /// The bound address (read this when `port` was 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins a graceful shutdown: stop accepting, refuse new requests,
    /// drain in-flight ones. Returns immediately; pair with
    /// [`Server::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// A snapshot of the server counters (same payload as the `stats`
    /// verb).
    pub fn stats_json(&self) -> Json {
        self.shared.stats_json()
    }

    /// How many connection handles the server currently tracks. Finished
    /// connections are reaped on every accept, so this stays close to the
    /// number of live connections instead of growing by one per
    /// connection ever accepted — soak tests assert exactly that bound.
    pub fn tracked_connections(&self) -> usize {
        reap_finished(&self.conns);
        lock(&self.conns).len()
    }

    /// Waits until the acceptor, every connection, and every worker have
    /// exited. Only returns promptly after [`Server::shutdown`] (or
    /// a `shutdown` request) — otherwise it waits for the next one. The
    /// server handle stays usable afterwards (e.g. for a final
    /// [`Server::stats_json`] snapshot); a second call is a no-op.
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
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// [`Server::shutdown`] followed by [`Server::join`].
    pub fn stop(mut self) {
        self.shutdown();
        self.join();
    }
}

/// Runs queued jobs in arrival order until the channel disconnects. The
/// lock is a temporary of the `let`, so it is released before the job runs.
fn worker_loop(jobs: &Mutex<Receiver<Task>>) {
    loop {
        let Ok(job) = lock(jobs).recv() else {
            return;
        };
        job();
    }
}

fn acceptor_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    jobs_tx: Sender<Task>,
) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Transient failure (EMFILE under load, a reset mid-handshake):
            // count it and pause before retrying so an error streak does
            // not pin a core at 100%.
            shared.accept_errors.fetch_add(1, Ordering::AcqRel);
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            thread::sleep(backoff);
            backoff = next_accept_backoff(backoff);
            continue;
        };
        backoff = ACCEPT_BACKOFF_MIN;
        if shared.shutdown.load(Ordering::SeqCst) {
            // Includes the self-connection `begin_shutdown` used as a wakeup.
            break;
        }
        // Reap connections that already wound down, so a long-running
        // server holds handles only for live connections rather than one
        // per connection ever accepted.
        reap_finished(&conns);
        shared.open_connections.fetch_add(1, Ordering::AcqRel);
        let conn_shared = Arc::clone(&shared);
        let conn_jobs = jobs_tx.clone();
        match thread::Builder::new()
            .name("amnesiac-serve-conn".into())
            .spawn(move || serve_connection(conn_shared, stream, conn_jobs))
        {
            Ok(handle) => lock(&conns).push(handle),
            Err(_) => {
                // Thread exhaustion: drop the connection unserved and count
                // it like an accept failure (same transient-pressure class).
                shared.open_connections.fetch_sub(1, Ordering::AcqRel);
                shared.accept_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

/// Removes and joins every finished connection handle. The join is
/// outside the lock (it is prompt — the threads are already done — but
/// there is no reason to hold up the acceptor's critical section for it).
fn reap_finished(conns: &Mutex<Vec<JoinHandle<()>>>) {
    let finished: Vec<JoinHandle<()>> = {
        let mut guard = lock(conns);
        let mut out = Vec::new();
        let mut i = 0;
        while i < guard.len() {
            if guard[i].is_finished() {
                out.push(guard.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out
    };
    for handle in finished {
        let _ = handle.join();
    }
}

/// Readies an accepted service connection (the server's and the
/// router's). Short read timeouts turn the blocking reader into a poll
/// loop that notices the shutdown flag; writes stay blocking.
/// `TCP_NODELAY` sends each small response at once: under Nagle's
/// algorithm a pipelined response waits until the one before it is
/// acknowledged.
pub(crate) fn prepare_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true)
}

fn serve_connection(shared: Arc<Shared>, stream: TcpStream, jobs_tx: Sender<Task>) {
    // Balances the acceptor's increment on every exit path.
    struct OpenGuard(Arc<Shared>);
    impl Drop for OpenGuard {
        fn drop(&mut self) {
            self.0.open_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let _open = OpenGuard(Arc::clone(&shared));
    if prepare_accepted(&stream).is_err() {
        return;
    }
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<PendingResponse>();
    let writer = {
        let shared = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("amnesiac-serve-write".into())
            .spawn(move || writer_loop(shared, write_stream, rx));
        match spawned {
            Ok(handle) => handle,
            // No writer means no way to answer: close the connection.
            Err(_) => return,
        }
    };
    reader_loop(&shared, stream, &jobs_tx, &tx);
    drop(tx); // close the writer's queue so it drains and exits
    let _ = writer.join();
}

fn reader_loop(
    shared: &Arc<Shared>,
    stream: TcpStream,
    jobs_tx: &Sender<Task>,
    tx: &Sender<PendingResponse>,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            // A timeout: keep any partial line accumulated so far and
            // poll again, unless the server is draining.
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
            Err(_) | Ok(0) => return, // connection error or clean EOF
            Ok(_) => {
                if buf.last() != Some(&b'\n') {
                    // EOF mid-line: process what we got, then close.
                    process_line(shared, jobs_tx, tx, &buf);
                    return;
                }
                process_line(shared, jobs_tx, tx, &buf);
                buf.clear();
            }
        }
    }
}

fn process_line(
    shared: &Arc<Shared>,
    jobs_tx: &Sender<Task>,
    tx: &Sender<PendingResponse>,
    raw: &[u8],
) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return; // blank keep-alive lines are ignored
    }
    let received = Instant::now();
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err(error) => {
            let _ = tx.send(PendingResponse {
                id: Json::Null,
                verb: "?".to_string(),
                received,
                routing_key: None,
                kind: PendingKind::Ready(Err(error)),
            });
            return;
        }
    };
    let routing_key = (request.proto_version() >= 2).then(|| request.routing_key());
    let kind = dispatch(shared, jobs_tx, &request);
    let _ = tx.send(PendingResponse {
        id: request.id,
        verb: request.verb,
        received,
        routing_key,
        kind,
    });
}

/// Decides what happens to one parsed request: answered inline (server
/// verbs, rejections) or admitted and queued for the workers.
fn dispatch(shared: &Arc<Shared>, jobs_tx: &Sender<Task>, request: &Request) -> PendingKind {
    match request.verb.as_str() {
        "stats" => PendingKind::Ready(Ok(shared.stats_json())),
        "shutdown" => {
            let ready = PendingKind::Ready(Ok(Json::obj().with("draining", true)));
            shared.begin_shutdown();
            ready
        }
        _ if shared.shutdown.load(Ordering::SeqCst) => PendingKind::Ready(Err(ServeError::new(
            code::SHUTTING_DOWN,
            "server is draining and refuses new work",
        ))),
        _ => {
            if !shared.try_admit() {
                shared.rejected_overload.fetch_add(1, Ordering::AcqRel);
                return PendingKind::Ready(Err(ServeError::new(
                    code::OVERLOADED,
                    format!("backlog full ({} requests in flight)", shared.backlog),
                )));
            }
            let job = Arc::new(Job::new());
            let deadline = Instant::now()
                + Duration::from_millis(request.timeout_ms.unwrap_or(shared.timeout_ms));
            let task = {
                let job = Arc::clone(&job);
                let shared = Arc::clone(shared);
                let request = request.clone();
                Box::new(move || {
                    // A request whose deadline passed while it was still
                    // queued is cancelled outright — never executed. The
                    // writer sets `cancelled` when it observes the timeout,
                    // but it can only do so after resolving every earlier
                    // response on its connection; the deadline check covers
                    // the window where an expired job reaches a worker
                    // before the writer got that far, so a pile-up of
                    // expired queued requests never burns worker time.
                    if job.cancelled.load(Ordering::Acquire) || Instant::now() >= deadline {
                        shared.expired_skipped.fetch_add(1, Ordering::AcqRel);
                    } else {
                        let outcome = catch_unwind(AssertUnwindSafe(|| (shared.handler)(&request)))
                            .unwrap_or_else(|_| {
                                Err(ServeError::new(
                                    code::INTERNAL,
                                    format!("handler panicked on verb `{}`", request.verb),
                                ))
                            });
                        job.complete(outcome);
                    }
                    shared.release();
                }) as Task
            };
            if jobs_tx.send(task).is_err() {
                // No worker is left to take it.
                shared.release();
                return PendingKind::Ready(Err(ServeError::new(
                    code::SHUTTING_DOWN,
                    "server is draining and refuses new work",
                )));
            }
            PendingKind::Running(job, deadline)
        }
    }
}

fn writer_loop(shared: Arc<Shared>, mut stream: TcpStream, rx: Receiver<PendingResponse>) {
    let mut broken = false;
    for pending in rx {
        let result = match pending.kind {
            PendingKind::Ready(result) => result,
            PendingKind::Running(job, deadline) => match job.wait_until(deadline) {
                Some(result) => result,
                None => {
                    job.cancelled.store(true, Ordering::Release);
                    Err(ServeError::new(
                        code::TIMEOUT,
                        format!(
                            "request exceeded its {} ms deadline",
                            (deadline - pending.received).as_millis()
                        ),
                    ))
                }
            },
        };
        let elapsed_ms = pending.received.elapsed().as_secs_f64() * 1e3;
        shared.record(&pending.verb, &result, elapsed_ms);
        if broken {
            continue; // client is gone; keep draining so jobs are released
        }
        let response = Response {
            id: pending.id,
            verb: pending.verb,
            elapsed_ms,
            result,
            meta: pending
                .routing_key
                .map(|key| RouteMeta::local(key, "serve", elapsed_ms)),
        };
        let mut line = response.to_json().compact();
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() || stream.flush().is_err() {
            broken = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_and_caps() {
        let mut backoff = ACCEPT_BACKOFF_MIN;
        let mut seen = vec![backoff];
        for _ in 0..10 {
            backoff = next_accept_backoff(backoff);
            seen.push(backoff);
        }
        // strictly doubling until the cap, then pinned at the cap
        for pair in seen.windows(2) {
            assert!(pair[1] >= pair[0], "backoff never shrinks: {seen:?}");
            assert!(pair[1] <= ACCEPT_BACKOFF_MAX, "capped: {seen:?}");
        }
        assert_eq!(seen[1], ACCEPT_BACKOFF_MIN * 2);
        assert_eq!(*seen.last().unwrap(), ACCEPT_BACKOFF_MAX);
    }

    #[test]
    fn service_sockets_disable_nagle_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let connected = crate::ClientConfig::new()
            .connect_stream(listener.local_addr().unwrap())
            .unwrap();
        let (accepted, _) = listener.accept().unwrap();
        prepare_accepted(&accepted).unwrap();
        assert!(connected.nodelay().unwrap(), "connect_stream");
        assert!(accepted.nodelay().unwrap(), "an accepted connection");
    }
}
