#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-serve
//!
//! A std-only concurrent batch service speaking newline-delimited JSON
//! over TCP — the service layer in front of the AMNESIAC toolchain. The
//! crate is handler-generic: it owns the transport, admission control,
//! deadlines, statistics, and lifecycle, while the meaning of each verb
//! is supplied by the embedding crate (`amnesiac-cli` plugs in its typed
//! `run()` API and serves `compile` / `simulate` / `verify` / `bench` /
//! `experiments`).
//!
//! ```no_run
//! use std::sync::Arc;
//! use amnesiac_serve::{Client, Request, Server, ServerConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let handler = Arc::new(|req: &Request| {
//!     Ok(amnesiac_telemetry::Json::obj().with("echo", req.verb.as_str()))
//! });
//! let server = Server::start(ServerConfig::default(), handler)?;
//! let mut client = Client::connect(server.addr())?;
//! let response = client.call(&Request::new("ping").with_id(1u64))?;
//! assert!(response.is_ok());
//! server.stop();
//! # Ok(())
//! # }
//! ```
//!
//! [`Server`] and [`Router`] run on one connection front end (acceptor,
//! a reader and a writer thread per connection, line parsing, envelopes,
//! drain). See [`protocol`] for the wire schema and the stable error
//! codes, [`server`] for what the server adds (a job queue with
//! backpressure and deadlines), and [`router`] for the sharded cluster
//! topology (consistent-hash placement over [`ring`], generation-numbered
//! [`membership`], health probes, and retry-once reroute).

pub mod client;
mod front;
pub mod membership;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod server;

pub use client::{Client, ClientConfig};
pub use membership::{Membership, ProbeOutcome, WorkerInfo, WorkerState};
pub use protocol::{code, Request, Response, RouteMeta, ServeError, WireVerb, PROTOCOL_VERSION};
pub use ring::{Ring, WorkerId, REPLICAS};
pub use router::{Router, RouterConfig};
pub use server::{Handler, Server, ServerConfig, StatsHook};
