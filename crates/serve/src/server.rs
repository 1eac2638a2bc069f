//! The concurrent batch server.
//!
//! The server runs on the connection front end it shares with the
//! cluster router (acceptor, a reader and a writer thread per
//! connection, line parsing, envelopes, drain). What it adds is one job
//! queue: requests execute on `workers` threads that take jobs from it
//! in arrival order, so heavy verbs from many connections share one
//! bounded set of workers, and each request runs on exactly one of them.
//! It also answers `stats` and `shutdown` itself and counts every answer
//! per verb.
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
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amnesiac_telemetry::Json;

use crate::front::{lock, serve_connection, Acceptor, Front, Pending, Settled, Slot};
use crate::protocol::{code, Request, ServeError};

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

/// One verb's counters in a `stats` payload: a server's own, or a
/// router's sums over its live workers. Kept as JSON numbers (`f64`,
/// exact for any count a process reaches).
#[derive(Debug, Clone, Default)]
pub(crate) struct VerbStats {
    requests: f64,
    ok: f64,
    errors: f64,
    timeouts: f64,
    total_ms: f64,
    max_ms: f64,
}

impl VerbStats {
    /// Adds another node's counters: one entry of its `verbs` object.
    pub(crate) fn add(&mut self, counters: &Json) {
        let n = |field: &str| counters.get(field).and_then(Json::as_f64).unwrap_or(0.0);
        self.requests += n("requests");
        self.ok += n("ok");
        self.errors += n("errors");
        self.timeouts += n("timeouts");
        self.total_ms += n("total_ms");
        self.max_ms = self.max_ms.max(n("max_ms"));
    }
}

/// A `stats` payload's `verbs` object.
pub(crate) fn verbs_json(verbs: &BTreeMap<String, VerbStats>) -> Json {
    let mut out = Json::obj();
    for (verb, v) in verbs {
        out.set(
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
    out
}

struct Shared {
    front: Arc<Front>,
    handler: Handler,
    backlog: usize,
    timeout_ms: u64,
    workers: usize,
    /// Requests currently queued or running (admission counter).
    inflight: AtomicUsize,
    rejected_overload: AtomicU64,
    /// Jobs a worker skipped because their deadline had already passed
    /// (or the writer had cancelled them) by the time a worker got there.
    expired_skipped: AtomicU64,
    verbs: Mutex<BTreeMap<String, VerbStats>>,
    stats_ext: Option<StatsHook>,
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

    fn record(&self, verb: &str, outcome: &Result<Json, ServeError>, elapsed_ms: f64) {
        let mut verbs = lock(&self.verbs);
        let entry = verbs.entry(verb.to_string()).or_default();
        entry.requests += 1.0;
        match outcome {
            Ok(_) => entry.ok += 1.0,
            Err(e) if e.code == code::TIMEOUT => entry.timeouts += 1.0,
            Err(_) => entry.errors += 1.0,
        }
        entry.total_ms += elapsed_ms;
        entry.max_ms = entry.max_ms.max(elapsed_ms);
    }

    /// The `stats` verb's payload.
    fn stats_json(&self) -> Json {
        let verbs = verbs_json(&lock(&self.verbs));
        let front = &self.front;
        let mut payload = front
            .identify(Json::obj())
            .with("workers", self.workers)
            .with("backlog", self.backlog)
            .with("timeout_ms", self.timeout_ms)
            .with("inflight", self.inflight.load(Ordering::Acquire))
            .with(
                "rejected_overload",
                self.rejected_overload.load(Ordering::Acquire),
            )
            .with("accept_errors", front.accept_errors.load(Ordering::Acquire))
            .with("open_connections", front.open_connections())
            .with(
                "expired_skipped",
                self.expired_skipped.load(Ordering::Acquire),
            )
            .with("draining", front.draining())
            .with("verbs", verbs);
        if let Some(Json::Obj(fields)) = self.stats_ext.as_ref().map(|hook| hook()) {
            for (key, value) in fields {
                payload.set(&key, value);
            }
        }
        payload
    }
}

/// One admitted request, shared between the worker computing it and the
/// connection writer waiting on it.
struct Job {
    /// Set by the writer once the deadline passed: a job still queued is
    /// then skipped instead of run.
    cancelled: AtomicBool,
    result: Slot<Result<Json, ServeError>>,
}

/// A running batch service. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] then [`Server::join`] (or
/// [`Server::stop`] for both).
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Acceptor,
    workers: Vec<JoinHandle<()>>,
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
        let (listener, front) = Front::bind(&config.host, config.port, "serve")?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            front,
            handler,
            backlog: config.backlog.max(1),
            timeout_ms: config.timeout_ms.max(1),
            workers,
            inflight: AtomicUsize::new(0),
            rejected_overload: AtomicU64::new(0),
            expired_skipped: AtomicU64::new(0),
            verbs: Mutex::new(BTreeMap::new()),
            stats_ext,
        });
        // Jobs reach the workers over one channel. Its sender lives in the
        // connection function the acceptor and every connection thread
        // share, so it disconnects only once they are all done; a receiver
        // still yields every queued job first, so admitted work runs
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
        let acceptor = {
            let shared = Arc::clone(&shared);
            Acceptor::spawn(listener, Arc::clone(&shared.front), move |stream| {
                let recorder = Arc::clone(&shared);
                serve_connection(
                    &shared.front,
                    stream,
                    |request| dispatch(&shared, &jobs_tx, request),
                    settle,
                    move |verb, result, elapsed_ms| recorder.record(verb, result, elapsed_ms),
                );
            })?
        };
        Ok(Server {
            shared,
            acceptor,
            workers,
        })
    }

    /// The bound address (read this when `port` was 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.front.addr
    }

    /// Begins a graceful shutdown: stop accepting, refuse new requests,
    /// drain in-flight ones. Returns immediately; pair with
    /// [`Server::join`].
    pub fn shutdown(&self) {
        self.shared.front.begin_shutdown();
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
        self.acceptor.tracked()
    }

    /// Waits until the acceptor, every connection, and every worker have
    /// exited. Only returns promptly after [`Server::shutdown`] (or
    /// a `shutdown` request) — otherwise it waits for the next one. The
    /// server handle stays usable afterwards (e.g. for a final
    /// [`Server::stats_json`] snapshot); a second call is a no-op.
    pub fn join(&mut self) {
        self.acceptor.join();
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

/// Decides what happens to one parsed request: answered inline (server
/// verbs, rejections) or admitted and queued for the workers.
fn dispatch(
    shared: &Arc<Shared>,
    jobs_tx: &Sender<Task>,
    request: &Request,
) -> Pending<(Arc<Job>, Instant)> {
    let refused = || {
        Pending::Ready(Err(ServeError::new(
            code::SHUTTING_DOWN,
            "server is draining and refuses new work",
        )))
    };
    match request.verb.as_str() {
        "stats" => Pending::Ready(Ok(shared.stats_json())),
        "shutdown" => {
            shared.front.begin_shutdown();
            Pending::Ready(Ok(Json::obj().with("draining", true)))
        }
        _ if shared.front.draining() => refused(),
        _ => {
            if !shared.try_admit() {
                shared.rejected_overload.fetch_add(1, Ordering::AcqRel);
                return Pending::Ready(Err(ServeError::new(
                    code::OVERLOADED,
                    format!("backlog full ({} requests in flight)", shared.backlog),
                )));
            }
            let job = Arc::new(Job {
                cancelled: AtomicBool::new(false),
                result: Slot::new(),
            });
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
                        job.result.complete(outcome);
                    }
                    shared.release();
                }) as Task
            };
            if jobs_tx.send(task).is_err() {
                // No worker is left to take it.
                shared.release();
                return refused();
            }
            Pending::Waiting((job, deadline))
        }
    }
}

/// Waits for an admitted job up to its deadline. Past it the client gets
/// a structured timeout, and the job is cancelled.
fn settle((job, deadline): (Arc<Job>, Instant), received: Instant) -> Settled {
    let result = job.result.wait_until(deadline).unwrap_or_else(|| {
        job.cancelled.store(true, Ordering::Release);
        Err(ServeError::new(
            code::TIMEOUT,
            format!(
                "request exceeded its {} ms deadline",
                (deadline - received).as_millis()
            ),
        ))
    });
    Settled::from(result)
}
