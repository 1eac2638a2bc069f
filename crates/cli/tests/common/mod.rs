//! Helpers shared by the socket end-to-end tests: spawning the built CLI
//! as a listening process, and the mixed request batch whose wire
//! payloads must equal the typed core's documents.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

use amnesiac_cli::{parse_args, run};
use amnesiac_serve::Request;
use amnesiac_telemetry::Json;

/// One spawned `amnesiac` process that printed a `listening on <addr>`
/// line. Dropping it kills and reaps the process, so a failed assertion
/// never leaks it.
pub struct Listening {
    pub child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Drop for Listening {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Runs the built CLI with `args` (a `serve` or `cluster` invocation on
/// port 0) and waits for the address it reports.
pub fn spawn_listening(args: &[&str]) -> Listening {
    let mut child = Command::new(env!("CARGO_BIN_EXE_amnesiac"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the CLI spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("a listen line");
    // keep draining so the process never blocks on a full pipe
    let drain = std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no listen address in `{}`", line.trim()));
    Listening {
        child,
        addr,
        drain: Some(drain),
    }
}

/// One request per served verb family, each paired with the payload the
/// typed core produces for the equivalent command line. Every payload is
/// deterministic (no wall-clock fields), so the wire answer must equal
/// it exactly.
pub fn mixed_batch() -> Vec<(Request, Json)> {
    [
        ("compile", "compile", "bench:is"),
        ("simulate", "run", "bench:sr"),
        ("verify", "verify", "bench:is"),
        ("bench", "compare", "bench:is"),
        ("disasm", "disasm", "bench:cg"),
    ]
    .into_iter()
    .map(|(wire_verb, cli_verb, target)| {
        let argv = [cli_verb.to_string(), target.to_string()];
        let expected = run(&parse_args(&argv).unwrap()).unwrap().payload_json();
        (Request::new(wire_verb).with_target(target), expected)
    })
    .collect()
}
