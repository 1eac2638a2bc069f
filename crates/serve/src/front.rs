//! The connection front end [`crate::server`] and [`crate::router`]
//! share.
//!
//! One acceptor thread takes TCP connections; each connection gets a
//! reader thread, which parses request lines and hands each request to
//! its side's dispatch, and a writer thread, which settles each request
//! and writes its response line, in request order. A side supplies only
//! what it does with a request: the server admits it to its job queue,
//! the router forwards it on a worker lane.
//!
//! What a client sees of the transport is decided here, once:
//!
//! - a line that is not a request object gets [`code::BAD_REQUEST`]
//!   with `id: null` and verb `?`; a blank line gets nothing; a last
//!   line cut off by EOF is still answered;
//! - responses come back in request order, in the v1 envelope, or in
//!   the v2 envelope with `meta` when the request asked for it;
//! - a drain stops the acceptor, closes idle connections at their next
//!   read poll, and lets each writer deliver every response it owes
//!   before its connection closes.
//!
//! [`code::BAD_REQUEST`]: crate::protocol::code::BAD_REQUEST

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amnesiac_rng::Rng;
use amnesiac_telemetry::Json;

use crate::protocol::{Request, Response, RouteMeta, ServeError, PROTOCOL_VERSION};
use crate::ring::WorkerId;

/// The poll interval of every service socket read (client connections
/// and router lanes); bounds how long a blocked reader takes to notice a
/// drain or a passed deadline.
pub(crate) const READ_POLL: Duration = Duration::from_millis(25);

/// First pause after a transient `accept()` error. Without a pause, fd
/// exhaustion (EMFILE) under load turns the acceptor into a 100%-CPU
/// spin; with one, it backs off and retries once pressure eases.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(2);

/// Ceiling of the accept-error backoff (doubles per consecutive error).
/// Also bounds how long a draining node waits for the acceptor to
/// re-check the shutdown flag after an error streak.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// The next accept-error pause: exponential, capped.
fn next_accept_backoff(current: Duration) -> Duration {
    (current * 2).min(ACCEPT_BACKOFF_MAX)
}

/// Locks a mutex, recovering the guard when a panicking thread poisoned
/// it. Every structure behind a service mutex (stats counters, handles,
/// completion slots, lanes, membership) stays well-formed across a
/// handler panic, and refusing all further service over a poisoned
/// counter would turn one panic into an outage.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A process-unique 64-bit hex identity, seeded from the start time
/// (`now`, since the UNIX epoch) and the process id. Paired with
/// `started_at_ms` in `stats`, it lets a cluster membership view tell a
/// restarted worker from the old one behind a reused port.
fn fresh_server_id(now: Duration) -> String {
    let nanos = u64::from(now.subsec_nanos()) ^ (now.as_secs() << 20);
    let seed = nanos ^ u64::from(std::process::id()).rotate_left(32);
    let mut rng = Rng::seed_from_u64(seed);
    format!("{:016x}", rng.next_u64())
}

/// What a server and a router hold alike: the bound address, the drain
/// flag, the connection threads, the accept errors and the identity.
pub(crate) struct Front {
    /// The bound address (also the target of the drain's wake-up).
    pub(crate) addr: SocketAddr,
    /// `serve` or `router`: the node's label in a v2 `meta.hops` and
    /// the stem of its thread names.
    node: &'static str,
    shutdown: AtomicBool,
    /// Transient `listener.accept()` failures (each one also costs a
    /// backoff pause in the acceptor) and failed connection spawns.
    pub(crate) accept_errors: AtomicU64,
    /// One handle per connection thread; finished ones are reaped on
    /// every accept.
    conns: Mutex<Vec<JoinHandle<()>>>,
    id: String,
    started: Instant,
    /// Wall-clock UNIX ms at startup.
    started_at_ms: u64,
}

impl Front {
    /// Binds `host:port` for a `node` (`serve` or `router`).
    pub(crate) fn bind(
        host: &str,
        port: u16,
        node: &'static str,
    ) -> std::io::Result<(TcpListener, Arc<Front>)> {
        let listener = TcpListener::bind((host, port))?;
        // Zero on a clock before the epoch, which only a broken host reports.
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default();
        let front = Front {
            addr: listener.local_addr()?,
            node,
            shutdown: AtomicBool::new(false),
            accept_errors: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            id: fresh_server_id(now),
            started: Instant::now(),
            started_at_ms: now.as_millis() as u64,
        };
        Ok((listener, Arc::new(front)))
    }

    /// Connections whose threads are still running.
    pub(crate) fn open_connections(&self) -> usize {
        lock(&self.conns)
            .iter()
            .filter(|conn| !conn.is_finished())
            .count()
    }

    /// `true` once a drain has begun.
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begins the drain and wakes the acceptor out of its blocking
    /// `accept` so it sees the flag (the throwaway connection is dropped
    /// unserved). `true` only on the first call.
    pub(crate) fn begin_shutdown(&self) -> bool {
        let first = !self.shutdown.swap(true, Ordering::SeqCst);
        if first {
            let _ = TcpStream::connect(self.addr);
        }
        first
    }

    /// `payload` with the protocol version and the node's identity
    /// appended: the fields every `stats` payload carries first.
    pub(crate) fn identify(&self, payload: Json) -> Json {
        payload
            .with("protocol_version", PROTOCOL_VERSION)
            .with("server_id", self.id.as_str())
            .with("started_at_ms", self.started_at_ms)
            .with("uptime_ms", self.started.elapsed().as_secs_f64() * 1e3)
    }
}

/// One request's completion slot: whoever computes the result completes
/// it, and the connection writer waits on it up to a deadline.
pub(crate) struct Slot<T> {
    value: Mutex<Option<T>>,
    done: Condvar,
}

impl<T> Slot<T> {
    pub(crate) fn new() -> Slot<T> {
        Slot {
            value: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self, value: T) {
        *lock(&self.value) = Some(value);
        self.done.notify_all();
    }

    /// Waits for completion until `deadline`; `None` means the deadline
    /// passed first.
    pub(crate) fn wait_until(&self, deadline: Instant) -> Option<T> {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (mut value, _) = self
            .done
            .wait_timeout_while(lock(&self.value), timeout, |value| value.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        value.take()
    }
}

/// What a side's dispatch made of one request.
pub(crate) enum Pending<W> {
    /// Answered at dispatch (admin verbs, rejections).
    Ready(Result<Json, ServeError>),
    /// Still running; the writer settles it with the side's `settle`.
    Waiting(W),
}

/// A settled request: its result and, for a forwarded one, how it
/// travelled (the rest of its v2 `meta`).
pub(crate) struct Settled {
    pub(crate) result: Result<Json, ServeError>,
    /// Re-placements after a lost worker (0 unless routed).
    pub(crate) rerouted: u64,
    /// The worker that answered and its self-reported elapsed ms.
    pub(crate) worker: Option<(WorkerId, f64)>,
}

impl From<Result<Json, ServeError>> for Settled {
    fn from(result: Result<Json, ServeError>) -> Settled {
        Settled {
            result,
            rerouted: 0,
            worker: None,
        }
    }
}

/// A response owed to the client, in request order.
struct Owed<W> {
    id: Json,
    verb: String,
    received: Instant,
    /// `Some(key)` when the request opted into the v2 envelope.
    routing_key: Option<String>,
    pending: Pending<W>,
}

/// The acceptor thread (its connection threads are its front's).
pub(crate) struct Acceptor {
    thread: Option<JoinHandle<()>>,
    front: Arc<Front>,
}

impl Acceptor {
    /// Starts accepting on `listener`; `serve` runs each accepted
    /// connection on its own thread.
    pub(crate) fn spawn(
        listener: TcpListener,
        front: Arc<Front>,
        serve: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Acceptor> {
        let accepting = Arc::clone(&front);
        let thread = thread::Builder::new()
            .name(format!("amnesiac-{}-accept", front.node))
            .spawn(move || accept_loop(&listener, &accepting, Arc::new(serve)))?;
        Ok(Acceptor {
            thread: Some(thread),
            front,
        })
    }

    /// How many connection handles are tracked, finished ones reaped.
    pub(crate) fn tracked(&self) -> usize {
        reap_finished(&self.front.conns);
        lock(&self.front.conns).len()
    }

    /// Waits for the acceptor, then for every connection. Prompt only
    /// after a drain began; a second call is a no-op.
    pub(crate) fn join(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        // The acceptor is gone, so no handle is pushed after this take.
        let conns = std::mem::take(&mut *lock(&self.front.conns));
        for conn in conns {
            let _ = conn.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    front: &Front,
    serve: Arc<impl Fn(TcpStream) + Send + Sync + 'static>,
) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Transient failure (EMFILE under load, a reset mid-handshake):
            // count it and pause before retrying so an error streak does
            // not pin a core at 100%.
            front.accept_errors.fetch_add(1, Ordering::AcqRel);
            if front.draining() {
                break;
            }
            thread::sleep(backoff);
            backoff = next_accept_backoff(backoff);
            continue;
        };
        backoff = ACCEPT_BACKOFF_MIN;
        if front.draining() {
            // Includes the self-connection `begin_shutdown` used as a wakeup.
            break;
        }
        reap_finished(&front.conns);
        let serve = Arc::clone(&serve);
        // Spawned under the lock its handle is pushed under, so a
        // connection that counts open connections counts itself.
        let mut conns = lock(&front.conns);
        let spawned = thread::Builder::new()
            .name(format!("amnesiac-{}-conn", front.node))
            .spawn(move || {
                if prepare_accepted(&stream).is_ok() {
                    serve(stream);
                }
            });
        match spawned {
            Ok(handle) => conns.push(handle),
            // Thread exhaustion: drop the connection unserved and count it
            // like an accept failure (same transient-pressure class).
            Err(_) => {
                front.accept_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

/// Removes and joins every finished connection handle. The join is
/// outside the lock (it is prompt — the threads are already done — but
/// there is no reason to hold up the acceptor's critical section for it).
fn reap_finished(conns: &Mutex<Vec<JoinHandle<()>>>) {
    let finished: Vec<JoinHandle<()>> = lock(conns)
        .extract_if(.., |handle| handle.is_finished())
        .collect();
    for handle in finished {
        let _ = handle.join();
    }
}

/// Readies an accepted connection. Short read timeouts turn the blocking
/// reader into a poll loop that notices the drain; writes stay blocking.
/// `TCP_NODELAY` sends each small response at once: under Nagle's
/// algorithm a pipelined response waits until the one before it is
/// acknowledged.
fn prepare_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true)
}

/// Serves one accepted connection: this thread reads request lines and
/// `dispatch`es each one, and a writer thread answers them in request
/// order, waiting out each `Waiting` request with `settle(waiting,
/// received)` and passing every settled result to `record` with its
/// elapsed ms. Returns once the writer has settled every request the
/// reader took, answered or not (a gone client's are settled unwritten).
pub(crate) fn serve_connection<W: Send + 'static>(
    front: &Front,
    stream: TcpStream,
    mut dispatch: impl FnMut(&Request) -> Pending<W>,
    settle: impl FnMut(W, Instant) -> Settled + Send + 'static,
    record: impl FnMut(&str, &Result<Json, ServeError>, f64) + Send + 'static,
) {
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Owed<W>>();
    let node = front.node;
    let spawned = thread::Builder::new()
        .name(format!("amnesiac-{node}-write"))
        .spawn(move || write_loop(node, write_stream, rx, settle, record));
    // No writer means no way to answer: close the connection.
    let Ok(writer) = spawned else {
        return;
    };
    read_loop(front, stream, &tx, &mut dispatch);
    drop(tx); // close the writer's queue so it drains and exits
    let _ = writer.join();
}

fn read_loop<W>(
    front: &Front,
    stream: TcpStream,
    tx: &Sender<Owed<W>>,
    dispatch: &mut impl FnMut(&Request) -> Pending<W>,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            // A timeout: keep any partial line accumulated so far and
            // poll again, unless the node is draining.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if front.draining() {
                    return;
                }
            }
            Err(_) | Ok(0) => return, // connection error or clean EOF
            Ok(_) => {
                take_line(tx, &buf, dispatch);
                if buf.last() != Some(&b'\n') {
                    return; // EOF mid-line: answered what we got, now close
                }
                buf.clear();
            }
        }
    }
}

/// Parses one raw line and queues what is owed for it.
fn take_line<W>(
    tx: &Sender<Owed<W>>,
    raw: &[u8],
    dispatch: &mut impl FnMut(&Request) -> Pending<W>,
) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return; // blank keep-alive lines are ignored
    }
    let received = Instant::now();
    let owed = match Request::parse_line(line) {
        Ok(request) => Owed {
            routing_key: (request.proto_version() >= 2).then(|| request.routing_key()),
            pending: dispatch(&request),
            id: request.id,
            verb: request.verb,
            received,
        },
        Err(error) => Owed {
            id: Json::Null,
            verb: "?".to_string(),
            received,
            routing_key: None,
            pending: Pending::Ready(Err(error)),
        },
    };
    let _ = tx.send(owed);
}

/// Settles and writes each owed response in request order. The first
/// hop of a v2 `meta` is this `node`; a forwarded request adds the
/// worker that answered.
fn write_loop<W>(
    node: &str,
    mut stream: TcpStream,
    rx: Receiver<Owed<W>>,
    mut settle: impl FnMut(W, Instant) -> Settled,
    mut record: impl FnMut(&str, &Result<Json, ServeError>, f64),
) {
    let mut broken = false;
    for owed in rx {
        let settled = match owed.pending {
            Pending::Ready(result) => Settled::from(result),
            Pending::Waiting(waiting) => settle(waiting, owed.received),
        };
        let elapsed_ms = owed.received.elapsed().as_secs_f64() * 1e3;
        record(&owed.verb, &settled.result, elapsed_ms);
        if broken {
            continue; // client is gone; keep settling so work is released
        }
        let meta = owed.routing_key.map(|routing_key| {
            let mut meta = RouteMeta::local(routing_key, node, elapsed_ms);
            meta.rerouted = settled.rerouted;
            meta.hops
                .extend(settled.worker.map(|(id, ms)| (format!("w{id}"), ms)));
            meta
        });
        let response = Response {
            id: owed.id,
            verb: owed.verb,
            elapsed_ms,
            result: settled.result,
            meta,
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
