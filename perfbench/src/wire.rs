//! The real service over the wire: spawning `amnesiac serve` /
//! `amnesiac cluster`, stopping it (and every worker it forked) on every
//! exit path, and an open-loop pipelined client.
//!
//! The client uses one connection with one sender thread and one
//! receiver (the calling thread). Each request is sent at its due time
//! regardless of outstanding responses, and its latency is measured
//! from that due time, so a stall is charged to every request it delays.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amnesiac_serve::Request;
use amnesiac_telemetry::Json;

/// How long a booting server may take to announce its address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained server may take to exit before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(15);
/// How long the receiver waits for any one response.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A spawned server or cluster router, in a process group of its own so
/// the router's workers can be killed with it.
pub struct ServerProc {
    child: Option<Child>,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns `bin args...` and waits for its "listening on ADDR" line.
    ///
    /// # Errors
    ///
    /// Fails when the process cannot start, exits early, or does not
    /// announce an address within [`BOOT_TIMEOUT`].
    pub fn boot(bin: &Path, args: &[&str]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let drain = thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut announced = false;
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if !announced {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or_default();
                        let _ = tx.send(addr.parse::<SocketAddr>().ok());
                        announced = true;
                    }
                }
                line.clear();
            }
        });
        let mut proc = ServerProc {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(Some(addr)) => {
                proc.addr = addr;
                Ok(proc)
            }
            _ => {
                proc.kill();
                Err(format!(
                    "{} {} did not announce an address",
                    bin.display(),
                    args.join(" ")
                ))
            }
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's pid and those of the processes it spawned (the
    /// cluster's workers).
    pub fn pids(&self) -> Vec<u32> {
        let Some(child) = &self.child else {
            return Vec::new();
        };
        let root = child.id();
        let mut pids = vec![root];
        pids.extend(children_of(root));
        pids
    }

    /// Summed peak resident set (`VmHWM`) of the server and its workers,
    /// in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(peak_rss_mb_of).sum()
    }

    /// Summed CPU seconds (user + system) the server and its workers have
    /// used so far.
    pub fn cpu_s(&self) -> f64 {
        self.pids().into_iter().map(cpu_s_of).sum()
    }

    /// Drains the server with a `shutdown` request and waits for it and
    /// its workers to exit, killing the process group if they do not.
    pub fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let pgid = child.id();
        let workers = children_of(pgid);
        let _ = call(self.addr, &Request::new("shutdown"));
        let deadline = Instant::now() + STOP_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        kill_group(pgid);
        let _ = child.wait();
        wait_gone(&workers);
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let workers = children_of(child.id());
            kill_group(child.id());
            let _ = child.wait();
            wait_gone(&workers);
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Kills every process in group `pgid` (the server and its workers).
fn kill_group(pgid: u32) {
    let _ = Command::new("kill")
        .args(["-KILL", "--", &format!("-{pgid}")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Polls until none of `pids` exists any more (at most a few seconds;
/// the group was already killed).
fn wait_gone(pids: &[u32]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline
        && pids
            .iter()
            .any(|pid| Path::new(&format!("/proc/{pid}")).exists() && !is_zombie(*pid))
    {
        thread::sleep(Duration::from_millis(10));
    }
}

fn proc_stat(pid: u32) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()
}

fn is_zombie(pid: u32) -> bool {
    proc_stat(pid)
        .and_then(|stat| {
            stat.rsplit_once(')')
                .map(|(_, rest)| rest.trim_start().starts_with('Z'))
        })
        .unwrap_or(false)
}

/// Direct children of `pid`, from the parent field of `/proc/*/stat`.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let Some(candidate) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let parent = proc_stat(candidate).and_then(|stat| {
            let (_, rest) = stat.rsplit_once(')')?;
            rest.split_whitespace().nth(1)?.parse::<u32>().ok()
        });
        if parent == Some(pid) {
            out.push(candidate);
        }
    }
    out.sort_unstable();
    out
}

/// CPU seconds (user + system, all threads) one process has used, from
/// `/proc/<pid>/stat` in clock ticks of 1/100 s (Linux's `USER_HZ`).
pub fn cpu_s_of(pid: u32) -> f64 {
    proc_stat(pid)
        .and_then(|stat| {
            let (_, rest) = stat.rsplit_once(')')?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            // fields after the command: state is [0]; utime [11], stime [12]
            let ticks: u64 =
                fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
            Some(ticks as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of one process in MB (0 when gone).
pub fn peak_rss_mb_of(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One request on a short-lived connection (`stats`, `shutdown`).
///
/// # Errors
///
/// Fails on connection or protocol errors and on error responses.
pub fn call(addr: SocketAddr, request: &Request) -> Result<Json, String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut line = request.to_json().compact();
    line.push('\n');
    (&stream)
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    let value = amnesiac_telemetry::parse(reply.trim_end()).map_err(|e| format!("reply: {e}"))?;
    match value.get("payload") {
        Some(payload) => Ok(payload.clone()),
        None => Err(format!("error reply: {}", reply.trim_end())),
    }
}

/// FNV-1a 64 over bytes: the payload digest the output oracle stores.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One request of a phase, rendered before the phase starts.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The request id; the reply must echo it.
    pub id: u64,
    /// Due time, microseconds after the phase epoch.
    pub due_us: u64,
    /// The request line (with its trailing newline).
    pub line: String,
    /// Index of the request's distinct input in the run's input table.
    pub input: usize,
    /// `(fresh, canonical)` program name substitution applied to the
    /// payload before hashing (renamed miss files).
    pub rename: Option<(String, String)>,
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The echoed request id.
    pub id: Option<u64>,
    /// Whether the server answered `ok: true`.
    pub ok: bool,
    /// Error code of an error response.
    pub error: Option<String>,
    /// The server's `elapsed_ms`.
    pub elapsed_ms: f64,
    /// Protocol-v2 hops `(node, ms)`.
    pub hops: Vec<(String, f64)>,
    /// Digest of the (renamed-back) payload of an ok response.
    pub digest: u64,
}

/// One request's timing and result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the request's distinct input.
    pub input: usize,
    /// Due time, ns after the phase epoch.
    pub due_ns: u64,
    /// Send time, ns after the phase epoch.
    pub sent_ns: u64,
    /// Receive time, ns after the phase epoch (`None` if missing).
    pub recv_ns: Option<u64>,
    /// The parsed reply, or the protocol failure.
    pub reply: Result<Reply, String>,
}

impl Outcome {
    /// Latency from due time in ms; infinite for anything but an ok reply.
    pub fn latency_ms(&self) -> f64 {
        match (&self.reply, self.recv_ns) {
            (Ok(reply), Some(recv)) if reply.ok => recv.saturating_sub(self.due_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent the request, ms.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Parses one response line. The payload is hashed as raw bytes, never
/// parsed, so the receiver stays cheap; only the small envelope is.
///
/// # Errors
///
/// Returns a description of a malformed line.
pub fn parse_reply(line: &str, rename: Option<&(String, String)>) -> Result<Reply, String> {
    let line = line.trim_end();
    let (header, digest) = match line.find(",\"payload\":") {
        Some(idx) if line.ends_with('}') => {
            let payload = &line[idx + ",\"payload\":".len()..line.len() - 1];
            let digest = match rename {
                Some((fresh, canonical)) => fnv64(payload.replace(fresh, canonical).as_bytes()),
                None => fnv64(payload.as_bytes()),
            };
            (format!("{}}}", &line[..idx]), digest)
        }
        _ => (line.to_string(), 0),
    };
    let value = amnesiac_telemetry::parse(&header).map_err(|e| format!("malformed reply: {e}"))?;
    let ok = matches!(value.get("ok"), Some(Json::Bool(true)));
    let id = value.get("id").and_then(Json::as_f64).map(|id| id as u64);
    let elapsed_ms = value
        .get("elapsed_ms")
        .and_then(Json::as_f64)
        .ok_or("reply without elapsed_ms")?;
    let error = value
        .get_path("error.code")
        .and_then(Json::as_str)
        .map(str::to_string);
    if ok == error.is_some() || (ok && digest == 0) {
        return Err(format!("inconsistent reply envelope: {header}"));
    }
    let hops = value
        .get("hops")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|hop| {
            Some((
                hop.get("node")?.as_str()?.to_string(),
                hop.get("ms")?.as_f64()?,
            ))
        })
        .collect();
    Ok(Reply {
        id,
        ok,
        error,
        elapsed_ms,
        hops,
        digest,
    })
}

/// A pipelined client connection.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connects to `addr` with Nagle off (every request line goes out
    /// at its due time).
    ///
    /// # Errors
    ///
    /// Fails when the server cannot be reached.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    /// Runs one open-loop phase: the sender thread writes each request at
    /// its due time while this thread reads the in-order replies. A read
    /// failure marks the rest of the phase missing (the caller should not
    /// reuse the connection then).
    pub fn run_phase(&self, planned: &[Planned]) -> Vec<Outcome> {
        let epoch = Instant::now() + Duration::from_millis(2);
        let ns = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
        thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let mut writer = &self.stream;
                let mut sent = Vec::with_capacity(planned.len());
                for request in planned {
                    let due = epoch + Duration::from_micros(request.due_us);
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let at = Instant::now();
                    if writer.write_all(request.line.as_bytes()).is_err() {
                        break;
                    }
                    sent.push(ns(at));
                }
                sent
            });
            let mut reader = BufReader::new(&self.stream);
            let mut received = Vec::with_capacity(planned.len());
            let mut line = String::new();
            for request in planned {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(n) if n > 0 => {
                        let at = ns(Instant::now());
                        let reply = parse_reply(&line, request.rename.as_ref()).and_then(|r| {
                            if r.id == Some(request.id) {
                                Ok(r)
                            } else {
                                Err(format!("reply id {:?} for request {}", r.id, request.id))
                            }
                        });
                        received.push(Ok((at, reply)));
                    }
                    Ok(_) => {
                        received.push(Err("connection closed".to_string()));
                        break;
                    }
                    Err(e) => {
                        received.push(Err(format!("read: {e}")));
                        break;
                    }
                }
            }
            let sent = sender.join().unwrap_or_default();
            planned
                .iter()
                .enumerate()
                .map(|(i, request)| {
                    let due_ns = request.due_us * 1000;
                    let sent_ns = sent.get(i).copied().unwrap_or(due_ns);
                    let (recv_ns, reply) = match received.get(i) {
                        Some(Ok((at, reply))) => (Some(*at), reply.clone()),
                        Some(Err(e)) => (None, Err(e.clone())),
                        None => (None, Err("no reply".to_string())),
                    };
                    Outcome {
                        input: request.input,
                        due_ns,
                        sent_ns,
                        recv_ns,
                        reply,
                    }
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_without_touching_the_payload() {
        let line = "{\"id\":3,\"ok\":true,\"verb\":\"compile\",\"elapsed_ms\":1.5,\"payload\":{\"program\":\"is~m1\",\"n\":[1]}}\n";
        let plain = parse_reply(line, None).unwrap();
        assert!(plain.ok);
        assert_eq!(plain.id, Some(3));
        assert_eq!(plain.elapsed_ms, 1.5);
        assert_eq!(plain.digest, fnv64(b"{\"program\":\"is~m1\",\"n\":[1]}"));
        let renamed = parse_reply(line, Some(&("is~m1".into(), "is".into()))).unwrap();
        assert_eq!(renamed.digest, fnv64(b"{\"program\":\"is\",\"n\":[1]}"));
    }

    #[test]
    fn error_and_v2_replies_parse() {
        let err = "{\"id\":1,\"ok\":false,\"verb\":\"x\",\"elapsed_ms\":0.1,\"error\":{\"code\":\"overloaded\",\"message\":\"m\"}}";
        let reply = parse_reply(err, None).unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.error.as_deref(), Some("overloaded"));
        let v2 = "{\"id\":1,\"ok\":true,\"verb\":\"disasm\",\"elapsed_ms\":2.5,\"proto\":2,\"routing_key\":\"bench:is\",\"rerouted\":0,\"hops\":[{\"node\":\"router\",\"ms\":2.5},{\"node\":\"w1\",\"ms\":2}],\"payload\":{}}";
        let reply = parse_reply(v2, None).unwrap();
        assert_eq!(reply.hops, vec![("router".into(), 2.5), ("w1".into(), 2.0)]);
        assert!(parse_reply("{\"ok\":true}", None).is_err());
        assert!(parse_reply("garbage", None).is_err());
    }

    #[test]
    fn failed_outcomes_have_infinite_latency() {
        let outcome = Outcome {
            input: 0,
            due_ns: 1_000_000,
            sent_ns: 1_500_000,
            recv_ns: Some(4_000_000),
            reply: Err("no reply".into()),
        };
        assert_eq!(outcome.latency_ms(), f64::INFINITY);
        assert_eq!(outcome.late_ms(), 0.5);
    }
}
