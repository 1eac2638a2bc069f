//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, in request order per
//! connection. Requests carry an opaque `id` that is echoed verbatim in
//! the response, so clients that pipeline many requests can correlate
//! them either by order or by id.
//!
//! Request schema (all fields except `verb` optional):
//!
//! ```json
//! {"id": 7, "verb": "compile", "target": "bench:is",
//!  "scale": "test", "timeout_ms": 5000}
//! ```
//!
//! Response schema:
//!
//! ```json
//! {"id": 7, "ok": true,  "verb": "compile", "elapsed_ms": 1.9, "payload": {...}}
//! {"id": 8, "ok": false, "verb": "bench",   "elapsed_ms": 0.1,
//!  "error": {"code": "overloaded", "message": "backlog full (64 requests in flight)"}}
//! ```
//!
//! Error codes are stable strings (see [`code`]); clients dispatch on
//! `error.code`, never on `error.message`.
//!
//! ## Protocol v2 (routing-aware envelope)
//!
//! A request may carry `"proto": 2` to opt into the routing-aware
//! envelope. An absent `proto` means v1 and the response is emitted
//! exactly as before — no new fields — so v1 clients round-trip
//! unchanged against both a single server and a cluster router. A v2
//! request may also pin an explicit `routing_key`; otherwise the key is
//! derived from the target (see [`Request::routing_key`]). A v2
//! response folds routing metadata into the envelope:
//!
//! ```json
//! {"id": 7, "ok": true, "verb": "compile", "elapsed_ms": 2.2,
//!  "proto": 2, "routing_key": "bench:is", "rerouted": 0,
//!  "hops": [{"node": "router", "ms": 2.2}, {"node": "w1", "ms": 1.9}],
//!  "payload": {...}}
//! ```

use amnesiac_telemetry::Json;

/// Protocol version, reported by the `stats` verb and the maximum
/// accepted in a request's `proto` field. Version 2 adds the
/// routing-aware envelope; requests without a `proto` field speak v1
/// and get byte-identical v1 responses.
pub const PROTOCOL_VERSION: u64 = 2;

/// Stable machine-readable error codes carried in `error.code`.
pub mod code {
    /// The request line was not valid JSON or not a valid request object,
    /// or it lacks what its verb needs: a program verb without a target,
    /// or a `scale` other than `test` or `paper`.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The request was well-formed but asked for something the handler
    /// does not do: a verb it does not answer (an unknown verb, or a
    /// lifecycle verb that reached it) or `experiments` with a target.
    pub const USAGE: &str = "usage";
    /// The toolchain failed while executing the request (compile error,
    /// unknown benchmark, diverging policy, …).
    pub const TOOL: &str = "tool";
    /// The request did not complete before its deadline. The result, if
    /// the job was already running, is discarded; a still-queued job is
    /// cancelled outright.
    pub const TIMEOUT: &str = "timeout";
    /// The bounded backlog was full; the request was rejected without
    /// being queued. Retry later (backpressure signal).
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining for shutdown and refuses new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The handler panicked or the server hit an unexpected condition.
    pub const INTERNAL: &str = "internal";
    /// No worker could be found for the request: the cluster has no live
    /// member for its routing key, or the forward failed on both the
    /// primary and the reroute attempt.
    pub const UNAVAILABLE: &str = "unavailable";
}

/// Every verb that exists on the wire, shared by client, router, and
/// server so a verb cannot reach the wire without a typed counterpart.
///
/// `Request.verb` stays a string at the transport layer (an unknown verb
/// must produce a structured [`code::USAGE`] error from the handler, not
/// a parse failure), but every layer that *interprets* a verb goes
/// through [`WireVerb::parse`] / [`Request::wire_verb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireVerb {
    /// Compile a program (slice planning + validation).
    Compile,
    /// Simulate a program on the baseline interpreter.
    Simulate,
    /// Alias of `simulate` kept for CLI symmetry (`run`).
    Run,
    /// Static verification sweep of the slice contract.
    Verify,
    /// Abstract-interpretation lint diagnostics.
    Lint,
    /// Compile-oracle benchmark of one workload.
    Bench,
    /// Alias of `bench` (`compare` renders the same measurement).
    Compare,
    /// The paper's experiment table.
    Experiments,
    /// Disassemble an annotated binary.
    Disasm,
    /// Profile a program (basic-block heat).
    Profile,
    /// Instruction-trace a program.
    Trace,
    /// Server/router statistics snapshot (answered inline, never queued).
    Stats,
    /// Begin a graceful drain of the server or the whole cluster.
    Shutdown,
    /// Router-only: drain one worker out of the ring (`target` names it).
    Drain,
    /// Router-only: the generation-numbered membership view.
    Cluster,
}

impl WireVerb {
    /// Every wire verb, in canonical order.
    pub const ALL: [WireVerb; 15] = [
        WireVerb::Compile,
        WireVerb::Simulate,
        WireVerb::Run,
        WireVerb::Verify,
        WireVerb::Lint,
        WireVerb::Bench,
        WireVerb::Compare,
        WireVerb::Experiments,
        WireVerb::Disasm,
        WireVerb::Profile,
        WireVerb::Trace,
        WireVerb::Stats,
        WireVerb::Shutdown,
        WireVerb::Drain,
        WireVerb::Cluster,
    ];

    /// The canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            WireVerb::Compile => "compile",
            WireVerb::Simulate => "simulate",
            WireVerb::Run => "run",
            WireVerb::Verify => "verify",
            WireVerb::Lint => "lint",
            WireVerb::Bench => "bench",
            WireVerb::Compare => "compare",
            WireVerb::Experiments => "experiments",
            WireVerb::Disasm => "disasm",
            WireVerb::Profile => "profile",
            WireVerb::Trace => "trace",
            WireVerb::Stats => "stats",
            WireVerb::Shutdown => "shutdown",
            WireVerb::Drain => "drain",
            WireVerb::Cluster => "cluster",
        }
    }

    /// Parses a wire spelling; `None` for verbs unknown to the protocol
    /// (the handler answers those with a [`code::USAGE`] error).
    pub fn parse(name: &str) -> Option<WireVerb> {
        WireVerb::ALL.into_iter().find(|v| v.name() == name)
    }
}

impl std::fmt::Display for WireVerb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured service error: stable code plus human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// One of the [`code`] constants (handlers may add their own).
    pub code: String,
    /// Human-readable detail. Not part of the stable contract.
    pub message: String,
}

impl ServeError {
    /// A service error with the given stable code.
    pub fn new(code: &str, message: impl Into<String>) -> ServeError {
        ServeError {
            code: code.to_string(),
            message: message.into(),
        }
    }

    /// Shorthand for a [`code::BAD_REQUEST`] error.
    pub fn bad_request(message: impl Into<String>) -> ServeError {
        ServeError::new(code::BAD_REQUEST, message)
    }

    /// The `{"code": ..., "message": ...}` object of the wire format.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("code", self.code.as_str())
            .with("message", self.message.as_str())
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Opaque correlation id, echoed verbatim in the response
    /// ([`Json::Null`] when the client sent none).
    pub id: Json,
    /// The verb. `stats` and `shutdown` are handled by the server itself;
    /// everything else goes to the handler.
    pub verb: String,
    /// Program reference (a path or `bench:<name>`), where the verb takes
    /// one.
    pub target: Option<String>,
    /// Workload scale for built-in benchmarks: `"test"` (default) or
    /// `"paper"`.
    pub scale: Option<String>,
    /// Per-request deadline override in milliseconds; the server default
    /// applies when absent.
    pub timeout_ms: Option<u64>,
    /// Protocol version the client speaks. Absent means v1: the response
    /// envelope carries no routing metadata, byte-identical to the
    /// pre-cluster wire format.
    pub proto: Option<u64>,
    /// Explicit routing-key override (v2). Absent means the key is
    /// derived from target/verb — see [`Request::routing_key`].
    pub routing_key: Option<String>,
}

impl Request {
    /// A request with the given verb and no other fields.
    pub fn new(verb: impl Into<String>) -> Request {
        Request {
            id: Json::Null,
            verb: verb.into(),
            target: None,
            scale: None,
            timeout_ms: None,
            proto: None,
            routing_key: None,
        }
    }

    /// Sets the correlation id.
    pub fn with_id(mut self, id: impl Into<Json>) -> Request {
        self.id = id.into();
        self
    }

    /// Sets the target program reference.
    pub fn with_target(mut self, target: impl Into<String>) -> Request {
        self.target = Some(target.into());
        self
    }

    /// Sets the workload scale (`"test"` / `"paper"`).
    pub fn with_scale(mut self, scale: impl Into<String>) -> Request {
        self.scale = Some(scale.into());
        self
    }

    /// Sets the per-request deadline in milliseconds.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Request {
        self.timeout_ms = Some(timeout_ms);
        self
    }

    /// Opts into a protocol version (`2` for the routing-aware envelope).
    pub fn with_proto(mut self, proto: u64) -> Request {
        self.proto = Some(proto);
        self
    }

    /// Pins an explicit routing key (v2).
    pub fn with_routing_key(mut self, key: impl Into<String>) -> Request {
        self.routing_key = Some(key.into());
        self
    }

    /// The protocol version this request speaks (absent field = 1).
    pub fn proto_version(&self) -> u64 {
        self.proto.unwrap_or(1)
    }

    /// The typed wire verb, `None` when the verb string is unknown to the
    /// protocol (handlers answer those with [`code::USAGE`]).
    pub fn wire_verb(&self) -> Option<WireVerb> {
        WireVerb::parse(&self.verb)
    }

    /// The key a cluster router consistent-hashes to place this request:
    /// the explicit `routing_key` when pinned, else the target program
    /// reference (a `bench:NAME` or path — suffixed with the scale, since
    /// per-scale artifacts are distinct cache entries), else the verb, so
    /// target-less verbs still place deterministically.
    pub fn routing_key(&self) -> String {
        if let Some(key) = &self.routing_key {
            return key.clone();
        }
        match (&self.target, &self.scale) {
            (Some(target), Some(scale)) => format!("{target}#{scale}"),
            (Some(target), None) => target.clone(),
            (None, _) => self.verb.clone(),
        }
    }

    /// The request's wire object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        if self.id != Json::Null {
            obj.set("id", self.id.clone());
        }
        obj.set("verb", self.verb.as_str());
        if let Some(target) = &self.target {
            obj.set("target", target.as_str());
        }
        if let Some(scale) = &self.scale {
            obj.set("scale", scale.as_str());
        }
        if let Some(timeout_ms) = self.timeout_ms {
            obj.set("timeout_ms", timeout_ms);
        }
        if let Some(proto) = self.proto {
            obj.set("proto", proto);
        }
        if let Some(key) = &self.routing_key {
            obj.set("routing_key", key.as_str());
        }
        obj
    }

    /// Parses a request from its wire object.
    ///
    /// # Errors
    ///
    /// Returns a [`code::BAD_REQUEST`] error when the value is not an
    /// object, `verb` is missing or not a string, any known field has the
    /// wrong type, or an unknown field is present (strict by design: a
    /// misspelled field should fail loudly, not be ignored).
    pub fn from_json(value: &Json) -> Result<Request, ServeError> {
        let Some(fields) = value.as_obj() else {
            return Err(ServeError::bad_request("request must be a JSON object"));
        };
        let mut request = Request::new(String::new());
        let mut saw_verb = false;
        for (key, field) in fields {
            match key.as_str() {
                "id" => request.id = field.clone(),
                "verb" => match field.as_str() {
                    Some(verb) => {
                        request.verb = verb.to_string();
                        saw_verb = true;
                    }
                    None => return Err(ServeError::bad_request("`verb` must be a string")),
                },
                "target" => match field.as_str() {
                    Some(target) => request.target = Some(target.to_string()),
                    None => return Err(ServeError::bad_request("`target` must be a string")),
                },
                "scale" => match field.as_str() {
                    Some(scale) => request.scale = Some(scale.to_string()),
                    None => return Err(ServeError::bad_request("`scale` must be a string")),
                },
                "timeout_ms" => match field.as_f64() {
                    Some(ms) if ms >= 1.0 && ms.fract() == 0.0 => {
                        request.timeout_ms = Some(ms as u64);
                    }
                    _ => {
                        return Err(ServeError::bad_request(
                            "`timeout_ms` must be a positive integer",
                        ))
                    }
                },
                "proto" => match field.as_f64() {
                    Some(v) if v >= 1.0 && v.fract() == 0.0 && v as u64 <= PROTOCOL_VERSION => {
                        request.proto = Some(v as u64);
                    }
                    _ => {
                        return Err(ServeError::bad_request(format!(
                            "`proto` must be an integer between 1 and {PROTOCOL_VERSION}"
                        )))
                    }
                },
                "routing_key" => match field.as_str() {
                    Some(key) => request.routing_key = Some(key.to_string()),
                    None => return Err(ServeError::bad_request("`routing_key` must be a string")),
                },
                other => {
                    return Err(ServeError::bad_request(format!(
                        "unknown request field `{other}`"
                    )))
                }
            }
        }
        if !saw_verb {
            return Err(ServeError::bad_request("request is missing `verb`"));
        }
        Ok(request)
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`code::BAD_REQUEST`] error on malformed JSON or a
    /// malformed request object.
    pub fn parse_line(line: &str) -> Result<Request, ServeError> {
        let value = amnesiac_telemetry::parse(line)
            .map_err(|e| ServeError::bad_request(format!("malformed request line: {e}")))?;
        Request::from_json(&value)
    }
}

/// Protocol-v2 routing metadata folded into the response envelope.
/// Present only when the request opted in with `proto >= 2`; a v1
/// response omits all of it and stays byte-identical to the pre-cluster
/// format.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteMeta {
    /// Envelope version (currently always 2 when present).
    pub proto: u64,
    /// The routing key the placement decision used.
    pub routing_key: String,
    /// How many times this request was re-placed after a worker loss or
    /// drain (0 on the happy path; the router retries once).
    pub rerouted: u64,
    /// Per-hop timing: `(node label, wall-clock ms at that node)`. A
    /// single server reports one `serve` hop; a router reports itself
    /// plus the worker that answered.
    pub hops: Vec<(String, f64)>,
}

impl RouteMeta {
    /// Metadata for a request answered by a single node (no routing).
    pub fn local(routing_key: impl Into<String>, node: impl Into<String>, ms: f64) -> RouteMeta {
        RouteMeta {
            proto: 2,
            routing_key: routing_key.into(),
            rerouted: 0,
            hops: vec![(node.into(), ms)],
        }
    }
}

/// A response line: either a payload or a structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id, echoed verbatim.
    pub id: Json,
    /// The request's verb, echoed.
    pub verb: String,
    /// Wall-clock milliseconds from request receipt to response.
    pub elapsed_ms: f64,
    /// The payload (`ok: true`) or the error (`ok: false`).
    pub result: Result<Json, ServeError>,
    /// Routing metadata (v2 envelope only; `None` for v1 responses).
    pub meta: Option<RouteMeta>,
}

impl Response {
    /// `true` iff the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// The payload of a successful response.
    pub fn payload(&self) -> Option<&Json> {
        self.result.as_ref().ok()
    }

    /// The error of a failed response.
    pub fn error(&self) -> Option<&ServeError> {
        self.result.as_ref().err()
    }

    /// The response's wire object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .with("id", self.id.clone())
            .with("ok", self.is_ok())
            .with("verb", self.verb.as_str())
            .with("elapsed_ms", self.elapsed_ms);
        if let Some(meta) = &self.meta {
            let mut hops = Vec::with_capacity(meta.hops.len());
            for (node, ms) in &meta.hops {
                hops.push(Json::obj().with("node", node.as_str()).with("ms", *ms));
            }
            obj.set("proto", meta.proto);
            obj.set("routing_key", meta.routing_key.as_str());
            obj.set("rerouted", meta.rerouted);
            obj.set("hops", Json::Arr(hops));
        }
        match &self.result {
            Ok(payload) => obj.with("payload", payload.clone()),
            Err(error) => obj.with("error", error.to_json()),
        }
    }

    /// Parses a response from its wire object.
    ///
    /// # Errors
    ///
    /// Returns a [`code::BAD_REQUEST`] error when the object does not
    /// match the response schema.
    pub fn from_json(value: &Json) -> Result<Response, ServeError> {
        let bad = |msg: &str| ServeError::bad_request(format!("malformed response: {msg}"));
        let Some(ok) = value.get("ok").and_then(|v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        }) else {
            return Err(bad("missing boolean `ok`"));
        };
        let verb = value
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string `verb`"))?
            .to_string();
        let elapsed_ms = value
            .get("elapsed_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing number `elapsed_ms`"))?;
        let id = value.get("id").cloned().unwrap_or(Json::Null);
        let result = if ok {
            Ok(value
                .get("payload")
                .cloned()
                .ok_or_else(|| bad("ok response without `payload`"))?)
        } else {
            let error = value
                .get("error")
                .ok_or_else(|| bad("error response without `error`"))?;
            let code = error
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("error without string `code`"))?;
            let message = error
                .get("message")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("error without string `message`"))?;
            Err(ServeError::new(code, message))
        };
        let meta = match value.get("proto").and_then(Json::as_f64) {
            Some(proto) if proto >= 2.0 => {
                let routing_key = value
                    .get("routing_key")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                let rerouted = value
                    .get("rerouted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    .max(0.0) as u64;
                let hops = value
                    .get("hops")
                    .and_then(Json::as_arr)
                    .map(|hops| {
                        hops.iter()
                            .filter_map(|hop| {
                                let node = hop.get("node").and_then(Json::as_str)?;
                                let ms = hop.get("ms").and_then(Json::as_f64)?;
                                Some((node.to_string(), ms))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                Some(RouteMeta {
                    proto: proto as u64,
                    routing_key,
                    rerouted,
                    hops,
                })
            }
            _ => None,
        };
        Ok(Response {
            id,
            verb,
            elapsed_ms,
            result,
            meta,
        })
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Returns a [`code::BAD_REQUEST`] error on malformed JSON or a
    /// malformed response object.
    pub fn parse_line(line: &str) -> Result<Response, ServeError> {
        let value = amnesiac_telemetry::parse(line)
            .map_err(|e| ServeError::bad_request(format!("malformed response line: {e}")))?;
        Response::from_json(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_wire_format() {
        let request = Request::new("compile")
            .with_id(7u64)
            .with_target("bench:is")
            .with_scale("test")
            .with_timeout_ms(5000);
        let line = request.to_json().compact();
        assert_eq!(Request::parse_line(&line).unwrap(), request);
        // minimal request: just a verb
        let minimal = Request::new("stats");
        assert_eq!(
            Request::parse_line(&minimal.to_json().compact()).unwrap(),
            minimal
        );
    }

    #[test]
    fn request_parser_rejects_malformed_lines() {
        for (line, expect) in [
            ("{", "malformed request line"),
            ("[1,2]", "must be a JSON object"),
            ("{\"target\":\"x\"}", "missing `verb`"),
            ("{\"verb\":7}", "`verb` must be a string"),
            ("{\"verb\":\"run\",\"scale\":1}", "`scale` must be a string"),
            (
                "{\"verb\":\"run\",\"timeout_ms\":0}",
                "`timeout_ms` must be a positive integer",
            ),
            (
                "{\"verb\":\"run\",\"timeout_ms\":1.5}",
                "`timeout_ms` must be a positive integer",
            ),
            ("{\"verb\":\"run\",\"bogus\":1}", "unknown request field"),
        ] {
            let err = Request::parse_line(line).expect_err(line);
            assert_eq!(err.code, code::BAD_REQUEST, "{line}");
            assert!(err.message.contains(expect), "{line}: {}", err.message);
        }
    }

    #[test]
    fn response_round_trips_both_arms() {
        let ok = Response {
            id: Json::Num(3.0),
            verb: "verify".into(),
            elapsed_ms: 1.25,
            result: Ok(Json::obj().with("clean", true)),
            meta: None,
        };
        let err = Response {
            id: Json::Null,
            verb: "bench".into(),
            elapsed_ms: 0.5,
            result: Err(ServeError::new(code::OVERLOADED, "backlog full")),
            meta: None,
        };
        for response in [ok, err] {
            let line = response.to_json().compact();
            assert_eq!(Response::parse_line(&line).unwrap(), response, "{line}");
        }
    }

    #[test]
    fn v2_request_and_envelope_round_trip() {
        let request = Request::new("compile")
            .with_id(9u64)
            .with_target("bench:is")
            .with_proto(2)
            .with_routing_key("pin");
        let line = request.to_json().compact();
        let parsed = Request::parse_line(&line).unwrap();
        assert_eq!(parsed, request);
        assert_eq!(parsed.proto_version(), 2);
        assert_eq!(parsed.routing_key(), "pin");

        let response = Response {
            id: Json::Num(9.0),
            verb: "compile".into(),
            elapsed_ms: 2.5,
            result: Ok(Json::obj().with("gain", 1.5)),
            meta: Some(RouteMeta {
                proto: 2,
                routing_key: "pin".into(),
                rerouted: 1,
                hops: vec![("router".into(), 2.5), ("w1".into(), 2.0)],
            }),
        };
        let line = response.to_json().compact();
        assert_eq!(Response::parse_line(&line).unwrap(), response, "{line}");
    }

    #[test]
    fn v1_wire_format_is_unchanged_by_the_v2_fields() {
        // A request without `proto` emits exactly the v1 fields.
        let request = Request::new("compile")
            .with_id(1u64)
            .with_target("bench:is");
        assert_eq!(
            request.to_json().compact(),
            "{\"id\":1,\"verb\":\"compile\",\"target\":\"bench:is\"}"
        );
        // A response without meta emits exactly the v1 envelope.
        let response = Response {
            id: Json::Num(1.0),
            verb: "compile".into(),
            elapsed_ms: 1.0,
            result: Ok(Json::obj().with("x", 1u64)),
            meta: None,
        };
        let line = response.to_json().compact();
        for v2_field in ["proto", "routing_key", "rerouted", "hops"] {
            assert!(!line.contains(v2_field), "{line}");
        }
    }

    #[test]
    fn proto_field_is_validated_against_the_supported_range() {
        assert_eq!(
            Request::parse_line("{\"verb\":\"run\",\"proto\":2}")
                .unwrap()
                .proto_version(),
            2
        );
        for line in [
            "{\"verb\":\"run\",\"proto\":0}",
            "{\"verb\":\"run\",\"proto\":3}",
            "{\"verb\":\"run\",\"proto\":1.5}",
            "{\"verb\":\"run\",\"proto\":\"2\"}",
        ] {
            let err = Request::parse_line(line).expect_err(line);
            assert_eq!(err.code, code::BAD_REQUEST);
            assert!(err.message.contains("proto"), "{}", err.message);
        }
    }

    #[test]
    fn routing_key_derivation_prefers_pin_then_target_then_verb() {
        let pinned = Request::new("compile")
            .with_target("bench:is")
            .with_routing_key("k");
        assert_eq!(pinned.routing_key(), "k");
        let scaled = Request::new("compile")
            .with_target("bench:is")
            .with_scale("paper");
        assert_eq!(scaled.routing_key(), "bench:is#paper");
        let bare = Request::new("compile").with_target("bench:is");
        assert_eq!(bare.routing_key(), "bench:is");
        assert_eq!(Request::new("experiments").routing_key(), "experiments");
    }

    #[test]
    fn wire_verbs_round_trip_and_cover_the_vocabulary() {
        for verb in WireVerb::ALL {
            assert_eq!(WireVerb::parse(verb.name()), Some(verb));
        }
        assert_eq!(WireVerb::parse("frobnicate"), None);
        assert_eq!(Request::new("compile").wire_verb(), Some(WireVerb::Compile));
        assert_eq!(Request::new("nope").wire_verb(), None);
    }

    #[test]
    fn response_parser_rejects_malformed_objects() {
        for line in [
            "{}",
            "{\"ok\":true,\"verb\":\"x\",\"elapsed_ms\":1}",
            "{\"ok\":false,\"verb\":\"x\",\"elapsed_ms\":1}",
            "{\"ok\":false,\"verb\":\"x\",\"elapsed_ms\":1,\"error\":{}}",
        ] {
            assert!(Response::parse_line(line).is_err(), "{line}");
        }
    }
}
