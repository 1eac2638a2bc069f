//! The cluster verbs: a router/worker topology built from the pieces the
//! serve crate provides.
//!
//! [`run_cluster`] spawns `--workers <n>` copies of this binary as
//! `amnesiac serve` worker processes on ephemeral ports, seeds an
//! in-process [`Router`] with their addresses, and hosts the router until
//! a `shutdown` request drains the fleet. Workers are found by reading
//! the `listening on <addr>` line each one prints.
//!
//! [`drive_loadgen_cluster`] backs `loadgen --cluster <n>`: the open-loop
//! schedule is driven at the router instead of a single in-process
//! server, and the snapshot gains a `results.cluster` block.

use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command as WorkerCommand, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use amnesiac_loadgen::{run_against, LoadgenConfig};
use amnesiac_serve::{Router, RouterConfig};
use amnesiac_telemetry::Json;

use crate::{CliError, Command, Response};

/// How long a freshly spawned worker gets to print its listen line.
const WORKER_BOOT_BUDGET: Duration = Duration::from_secs(10);

/// How long a worker gets to exit on its own after the fleet drains
/// before it is killed outright.
const WORKER_DRAIN_BUDGET: Duration = Duration::from_secs(5);

/// One spawned `amnesiac serve` worker process. Dropping it kills and
/// reaps the child, so a failed boot never leaks processes. Fleet index
/// equals membership worker id (both count up in spawn order).
struct WorkerProc {
    child: Child,
    addr: SocketAddr,
}

impl WorkerProc {
    /// Kills the process immediately and reaps it.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits up to `budget` for a voluntary exit (the drain path), then
    /// falls back to [`WorkerProc::kill`].
    fn wait_or_kill(&mut self, budget: Duration) {
        let deadline = Instant::now() + budget;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(25)),
                _ => return self.kill(),
            }
        }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Extracts the socket address from a `... listening on <addr> ...` line.
fn parse_listen_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split("listening on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Spawns worker `index` on an ephemeral port and waits for its listen
/// line. `--timeout-ms` is passed through, and `--cache-dir <dir>`
/// becomes a per-worker `<dir>/w<index>` so the processes never share a
/// store.
fn spawn_worker(binary: &Path, index: usize, command: &Command) -> Result<WorkerProc, CliError> {
    let mut worker = WorkerCommand::new(binary);
    worker.arg("serve").arg("--port").arg("0");
    if let Some(timeout_ms) = command.timeout_ms {
        worker.arg("--timeout-ms").arg(timeout_ms.to_string());
    }
    if let Some(dir) = command.cache_dir.as_deref() {
        let worker_dir = format!("{dir}/w{index}");
        std::fs::create_dir_all(&worker_dir)
            .map_err(|e| CliError::Tool(format!("cannot create `{worker_dir}`: {e}")))?;
        worker.arg("--cache-dir").arg(worker_dir);
    }
    worker
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = worker
        .spawn()
        .map_err(|e| CliError::Tool(format!("cannot spawn worker w{index}: {e}")))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(CliError::Tool(format!("worker w{index} has no stdout")));
    };
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        if reader.read_line(&mut line).is_ok() {
            tx.send(line).ok();
        }
        drop(tx);
        // keep draining so the worker never blocks on a full pipe
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });
    let line = match rx.recv_timeout(WORKER_BOOT_BUDGET) {
        Ok(line) => line,
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(CliError::Tool(format!(
                "worker w{index} did not report its address within {WORKER_BOOT_BUDGET:?}"
            )));
        }
    };
    let Some(addr) = parse_listen_addr(&line) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(CliError::Tool(format!(
            "worker w{index} printed `{}` instead of a listen address",
            line.trim()
        )));
    };
    Ok(WorkerProc { child, addr })
}

/// Spawns the worker fleet — copies of this very binary — and starts the
/// router over it. Worker ids in the membership view equal spawn order
/// ([`amnesiac_serve::Membership`] numbers the seed addresses 0..n-1), so
/// hop label `w<i>` names `fleet[i]`.
fn boot_cluster(command: &Command, workers: usize) -> Result<(Vec<WorkerProc>, Router), CliError> {
    let binary = std::env::current_exe()
        .map_err(|e| CliError::Tool(format!("cannot locate own binary: {e}")))?;
    let mut fleet = Vec::with_capacity(workers);
    for index in 0..workers {
        fleet.push(spawn_worker(&binary, index, command)?);
    }
    let addrs: Vec<SocketAddr> = fleet.iter().map(|w| w.addr).collect();
    let mut config = RouterConfig {
        port: command.port.unwrap_or(0),
        ..RouterConfig::default()
    };
    if let Some(timeout_ms) = command.timeout_ms {
        config.timeout_ms = timeout_ms;
    }
    let router = Router::start(config, &addrs)
        .map_err(|e| CliError::Tool(format!("cannot start router: {e}")))?;
    Ok((fleet, router))
}

/// The `cluster` verb: host a router over `--workers <n>` (default 3)
/// spawned worker processes until a `shutdown` request drains the fleet.
pub(crate) fn run_cluster(command: &Command) -> Result<Response, CliError> {
    let workers = command.workers.unwrap_or(3);
    let (mut fleet, mut router) = boot_cluster(command, workers)?;
    let addr = router.addr();
    println!(
        "amnesiac-cluster router listening on {addr} ({workers} workers) — \
         send {{\"verb\":\"shutdown\"}} to drain the fleet and stop"
    );
    std::io::stdout().flush().ok();
    router.join();
    let stats = router.stats_json();
    for worker in &mut fleet {
        worker.wait_or_kill(WORKER_DRAIN_BUDGET);
    }
    Ok(Response::Cluster {
        addr: addr.to_string(),
        workers,
        stats,
    })
}

/// `loadgen --cluster <n>`: boots the worker fleet behind a router and
/// drives the open-loop schedule at the router. The snapshot gains a
/// `results.cluster` block (fleet size, membership generation, and the
/// forwarded / rerouted / unavailable counters) but no `cache` / `warm`
/// blocks — the caches live in the worker processes.
pub(crate) fn drive_loadgen_cluster(
    command: &Command,
    config: &LoadgenConfig,
    workers: usize,
) -> Result<Json, CliError> {
    let (mut fleet, router) = boot_cluster(command, workers)?;
    let outcome = run_against(router.addr(), config)
        .map_err(|e| CliError::Tool(format!("cluster loadgen failed: {e}")));
    let stats = router.stats_json();
    router.stop();
    for worker in &mut fleet {
        worker.wait_or_kill(WORKER_DRAIN_BUDGET);
    }
    let report = outcome?;
    let mut snapshot = report.snapshot(config);
    if let Some(results) = snapshot.get_mut("results") {
        let counter = |key: &str| stats.get(key).cloned().unwrap_or(Json::Null);
        results.set(
            "cluster",
            Json::obj()
                .with("workers", workers as u64)
                .with("workers_up", counter("workers_up"))
                .with("generation", counter("generation"))
                .with("forwarded", counter("forwarded"))
                .with("rerouted", counter("rerouted"))
                .with("unavailable", counter("unavailable")),
        );
    }
    Ok(snapshot)
}
