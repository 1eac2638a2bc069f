//! The serve workloads, driven over the wire against the real binaries:
//!
//! * `serve-miss` — Poisson `compile` requests, each naming a `.bin` file
//!   the server has never seen (a paper-scale kernel re-encoded under a
//!   fresh program name), so every request runs the miss path;
//! * `serve-hit` — a Poisson `compile`/`disasm`/`verify` mix over
//!   `bench:` targets, all warmed during set-up, at a nominal rate and
//!   then up a ladder of fixed rates toward saturation;
//! * `cluster-hit` — the same stream as protocol v2 through
//!   `amnesiac cluster`.
//!
//! Server-side counts come from the `stats` verb (deltas across the
//! nominal phase), each response's `elapsed_ms`, and v2 `hops`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use amnesiac_cache::{artifact_key, listing_key};
use amnesiac_cli::load_program;
use amnesiac_compiler::{compile, CompileOptions};
use amnesiac_isa::{decode_program, encode_program, Program};
use amnesiac_loadgen::{Arrival, Mix};
use amnesiac_profile::profile_program;
use amnesiac_serve::Request;
use amnesiac_sim::CoreConfig;
use amnesiac_telemetry::Json;
use amnesiac_workloads::{CONTROL_NAMES, EXTENDED_NAMES, FOCAL_NAMES};

use crate::report::{Ctx, Report};
use crate::schedule::{hit_stream, miss_draw, miss_offsets, stream_seed};
use crate::spec::Workload;
use crate::stats::{backlog_growing, knee, median, percentile, sorted, Rung};
use crate::wire::{call, Conn, Outcome, Planned, ServerProc};

/// One distinct request input: its oracle key and how to rebuild it (the
/// CLI's `load_program`, as the server resolves a `bench:` target).
#[derive(Debug, Clone)]
struct Input {
    key: String,
    verb: String,
    target: String,
    scale: Option<String>,
}

impl Input {
    fn new(verb: &str, target: &str, scale: Option<&str>) -> Input {
        let key = match scale {
            Some(scale) => format!("{verb} {target}#{scale}"),
            None => format!("{verb} {target}"),
        };
        Input {
            key,
            verb: verb.to_string(),
            target: target.to_string(),
            scale: scale.map(str::to_string),
        }
    }

    fn program(&self) -> Result<Program, String> {
        load_program(&self.target, self.scale.as_deref() == Some("paper"))
            .map_err(|e| e.to_string())
    }
}

/// Counters read from a `stats` payload (a server's, or a router's with
/// its workers' summed).
#[derive(Debug, Clone, Default)]
struct Counters {
    cache: BTreeMap<&'static str, f64>,
    verbs: BTreeMap<String, (f64, f64)>,
    expired_skipped: f64,
    rejected_overload: f64,
    rerouted: f64,
    unavailable: f64,
}

const CACHE_FIELDS: [&str; 5] = ["hits", "misses", "inflight_waits", "evictions", "bytes"];

impl Counters {
    fn of(stats: &Json) -> Counters {
        let mut out = Counters::default();
        let num = |v: &Json, path: &str| v.get_path(path).and_then(Json::as_f64).unwrap_or(0.0);
        let servers: Vec<&Json> = match stats.get("workers").and_then(Json::as_arr) {
            Some(workers) => workers.iter().filter_map(|w| w.get("stats")).collect(),
            None => vec![stats],
        };
        for server in servers {
            for field in CACHE_FIELDS {
                *out.cache.entry(field).or_default() += num(server, &format!("cache.{field}"));
            }
            out.expired_skipped += num(server, "expired_skipped");
            out.rejected_overload += num(server, "rejected_overload");
        }
        for (verb, counters) in stats
            .get("verbs")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            out.verbs.insert(
                verb.clone(),
                (num(counters, "requests"), num(counters, "total_ms")),
            );
        }
        out.rerouted = num(stats, "rerouted");
        out.unavailable = num(stats, "unavailable");
        out
    }

    fn cache_delta(&self, before: &Counters, field: &str) -> f64 {
        let after = self.cache.get(field).copied().unwrap_or(0.0);
        if field == "bytes" {
            return after; // a gauge: resident bytes at the end
        }
        after - before.cache.get(field).copied().unwrap_or(0.0)
    }

    /// Mean server milliseconds per request of `verb` across the phase.
    fn verb_ms(&self, before: &Counters, verb: &str) -> f64 {
        let (n1, t1) = self.verbs.get(verb).copied().unwrap_or_default();
        let (n0, t0) = before.verbs.get(verb).copied().unwrap_or_default();
        if n1 > n0 {
            (t1 - t0) / (n1 - n0)
        } else {
            0.0
        }
    }
}

fn stats(server: &ServerProc) -> Result<Counters, String> {
    call(server.addr(), &Request::new("stats")).map(|s| Counters::of(&s))
}

/// What went wrong in one phase's outcomes.
#[derive(Debug, Default)]
struct Checked {
    /// Wrong outputs, protocol errors and missing replies: failures in
    /// any phase.
    wrong: u64,
    /// Error replies by code. Failures in the warm-up and the nominal
    /// phase; on a ladder rung (overload near saturation is the server's
    /// designed behaviour) they only make the rung miss.
    errors: BTreeMap<String, u64>,
}

impl Checked {
    fn error_replies(&self) -> u64 {
        self.errors.values().sum()
    }

    /// Both kinds together: the failures of a warm-up or nominal phase.
    fn all(&self) -> u64 {
        self.wrong + self.error_replies()
    }

    /// `" (3 overloaded)"`, or nothing without error replies.
    fn describe_errors(&self) -> String {
        if self.errors.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = self
            .errors
            .iter()
            .map(|(code, n)| format!("{n} {code}"))
            .collect();
        format!(" ({})", parts.join(", "))
    }
}

/// Checks every outcome against the oracle.
fn check_outcomes(outcomes: &[Outcome], inputs: &[Input], ctx: &mut Ctx) -> Checked {
    let mut checked = Checked::default();
    for outcome in outcomes {
        let key = &inputs[outcome.input].key;
        match &outcome.reply {
            Ok(reply) if reply.ok => {
                if !ctx.oracle.check_payload(key, reply.digest) {
                    checked.wrong += 1;
                }
            }
            Ok(reply) => {
                let code = reply.error.clone().unwrap_or_default();
                *checked.errors.entry(code).or_default() += 1;
            }
            Err(e) => {
                ctx.oracle.mismatches.push(format!("{key}: {e}"));
                checked.wrong += 1;
            }
        }
    }
    checked
}

/// Counts a warm-up or nominal phase's failures, error replies included.
fn count_failures(checked: &Checked, phase: &str, report: &mut Report) {
    report.failed += checked.all();
    if checked.error_replies() > 0 {
        report.line(format!(
            "{phase}: {} error replies{}",
            checked.error_replies(),
            checked.describe_errors()
        ));
    }
}

/// Latencies (ms, from due time; failures infinite) in due order.
fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes.iter().map(Outcome::latency_ms).collect()
}

/// Generator honesty: p99 of send-minus-due lateness and the share of
/// requests sent later than the threshold.
fn lateness(outcomes: &[Outcome], threshold_ms: f64) -> (f64, f64) {
    let late: Vec<f64> = outcomes.iter().map(Outcome::late_ms).collect();
    if late.is_empty() {
        return (0.0, 0.0);
    }
    let share = late.iter().filter(|&&l| l > threshold_ms).count() as f64 / late.len() as f64;
    (percentile(&sorted(&late), 99.0), share)
}

/// Reports the e2e latency metrics of the nominal phase, the generator
/// check, the per-request accounting check, and the wire-side layers.
fn nominal_metrics(
    w: &Workload,
    outcomes: &[Outcome],
    ctx: &mut Ctx,
    report: &mut Report,
) -> Result<(), String> {
    let lat = sorted(&latencies(outcomes));
    if lat.is_empty() {
        return Err("the nominal phase scheduled no requests".into());
    }
    let (late_p99, late_share) = lateness(outcomes, ctx.spec.late_threshold_ms);
    report.layer("loadgen.late_ms", late_p99);
    report.layer("loadgen.late_share", late_share);
    report.line(format!(
        "generator: p99 lateness {late_p99:.3} ms, {:.2}% sent more than {} ms late",
        late_share * 100.0,
        ctx.spec.late_threshold_ms
    ));
    if late_p99 > ctx.spec.late_p99_limit_ms {
        report.line(format!(
            "INVALID latency measurement: the generator's p99 lateness exceeds its bound of {} ms, \
             so the latencies would measure the generator; latencies withheld",
            ctx.spec.late_p99_limit_ms
        ));
    } else {
        for p in [50.0, 90.0, 99.0] {
            let name = format!("latency_p{p}_ms");
            report.extra(&name, "ms", percentile(&lat, p));
        }
        report.line(format!(
            "nominal phase: {} requests at {} rps, latency from due time; p90 has {} samples beyond it, p99 {}{}",
            lat.len(),
            w.rate_rps,
            crate::stats::beyond(lat.len(), 90.0),
            crate::stats::beyond(lat.len(), 99.0),
            if crate::stats::supports(lat.len(), 99.0) {
                ""
            } else {
                " (p99 unsupported: fewer than 10 beyond)"
            }
        ));
    }

    // server time + wire time rebuild each request's latency
    let mut server = Vec::new();
    let mut wire = Vec::new();
    let mut router_hops = Vec::new();
    let mut per_worker: BTreeMap<String, u64> = BTreeMap::new();
    let mut inconsistent = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        let (Ok(reply), Some(recv_ns)) = (&outcome.reply, outcome.recv_ns) else {
            continue;
        };
        let latency = outcome.latency_ms();
        if !reply.ok || !latency.is_finite() {
            continue;
        }
        let wire_ms = latency - reply.elapsed_ms;
        if wire_ms < -0.01 {
            inconsistent += 1;
        }
        server.push(reply.elapsed_ms);
        wire.push(wire_ms);
        let router = reply.hops.iter().find(|(node, _)| node == "router");
        let worker = reply.hops.iter().find(|(node, _)| node.starts_with('w'));
        if let (Some((_, r)), Some((node, wk))) = (router, worker) {
            router_hops.push(r - wk);
            *per_worker.entry(node.clone()).or_default() += 1;
        }
        // synthesized spans: request = due..recv; lateness, then the
        // server's elapsed time placed at the end of the window
        let id = i as u64;
        let root = ctx
            .tracer
            .record(id, "request", None, outcome.due_ns, recv_ns);
        ctx.tracer
            .record(id, "loadgen.late", root, outcome.due_ns, outcome.sent_ns);
        let server_start = recv_ns.saturating_sub((reply.elapsed_ms * 1e6) as u64);
        let hop = ctx
            .tracer
            .record(id, "serve.server", root, server_start, recv_ns);
        if let Some((_, wk)) = worker {
            let worker_start = recv_ns.saturating_sub((wk * 1e6) as u64);
            ctx.tracer.record(id, "worker", hop, worker_start, recv_ns);
        }
    }
    if inconsistent > 0 {
        report.check_failed(format!(
            "{inconsistent} requests report more server time than their client latency"
        ));
    }
    if !server.is_empty() {
        let (s, wr) = (median(&sorted(&server)), median(&sorted(&wire)));
        report.layer("serve.server_ms", s);
        report.layer("serve.wire_ms", wr);
        report.line(format!(
            "accounting: per request, server {s:.3} + wire {wr:.3} ms (medians); \
             every request's server + wire equals its latency, wire >= 0 checked on {}",
            server.len()
        ));
    }
    if !router_hops.is_empty() {
        report.layer("router.hop_ms", median(&sorted(&router_hops)));
        let total: u64 = per_worker.values().sum();
        let busiest = per_worker.values().copied().max().unwrap_or(0);
        report.layer("ring.max_share", busiest as f64 / total.max(1) as f64);
    }
    Ok(())
}

/// Server-side counter layers from the `stats` deltas of the nominal
/// phase.
fn counter_layers(before: &Counters, after: &Counters, report: &mut Report) {
    let hits = after.cache_delta(before, "hits");
    let misses = after.cache_delta(before, "misses");
    report.layer("cache.hits", hits);
    report.layer("cache.misses", misses);
    report.layer(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    report.layer(
        "cache.inflight_waits",
        after.cache_delta(before, "inflight_waits"),
    );
    report.layer("cache.evictions", after.cache_delta(before, "evictions"));
    report.layer("cache.bytes", after.cache_delta(before, "bytes"));
    report.layer("serve.compile_ms", after.verb_ms(before, "compile"));
    report.layer("serve.verify_ms", after.verb_ms(before, "verify"));
    report.layer("serve.disasm_ms", after.verb_ms(before, "disasm"));
    report.layer(
        "serve.expired_skipped",
        after.expired_skipped - before.expired_skipped,
    );
    report.layer(
        "serve.rejected_overload",
        after.rejected_overload - before.rejected_overload,
    );
    report.layer("router.rerouted", after.rerouted - before.rerouted);
    report.layer("router.unavailable", after.unavailable - before.unavailable);
}

/// Warm-up requests in flight at once (the server's default admission
/// backlog is 64).
const WARM_BATCH: usize = 16;

/// Renders one request line.
fn request_line(id: usize, input: &Input, target: &str, proto: u64) -> String {
    let mut request = Request::new(input.verb.as_str())
        .with_id(id as u64)
        .with_target(target);
    if let Some(scale) = &input.scale {
        request = request.with_scale(scale.as_str());
    }
    if proto >= 2 {
        request = request.with_proto(proto);
    }
    let mut line = request.to_json().compact();
    line.push('\n');
    line
}

/// Runs `serve-miss`.
fn run_miss(w: &Workload, ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::new(&w.name, ctx.trace, &ctx.spec);
    let count = (w.rate_rps * ctx.seconds).round().max(1.0) as usize;
    let offsets = miss_offsets(w.rate_rps, count, ctx.seed);
    let draw = miss_draw(
        offsets.len(),
        w.kernels.len(),
        stream_seed("miss-draw", ctx.seed),
    );
    let inputs: Vec<Input> = w
        .kernels
        .iter()
        .map(|k| Input::new("compile", &format!("bench:{k}"), Some("paper")))
        .collect();
    let dir = ctx.out_dir.join("miss");
    let server_args: Vec<&str> = w.server.iter().map(String::as_str).collect();

    let mut setups = Vec::new();
    let mut server: Option<ServerProc> = None;
    let mut files: Vec<(PathBuf, String)> = Vec::new();
    for _ in 0..ctx.spec.setup_repeats {
        if let Some(mut old) = server.take() {
            old.stop();
        }
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let start = Instant::now();
        let mut kernels = w
            .kernels
            .iter()
            .map(|k| load_program(&format!("bench:{k}"), true).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        files.clear();
        for (i, &k) in draw.iter().enumerate() {
            let fresh = format!("{}~miss{i:05}", w.kernels[k]);
            kernels[k].name.clone_from(&fresh);
            let path = dir.join(format!("{i:05}.bin"));
            std::fs::write(&path, encode_program(&kernels[k]))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            files.push((path, fresh));
        }
        server = Some(ServerProc::boot(&ctx.amnesiac, &server_args)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut server = server.ok_or("no set-up ran")?;
    let planned: Vec<Planned> = offsets
        .iter()
        .zip(&draw)
        .zip(&files)
        .enumerate()
        .map(|(i, ((&due_us, &k), (path, fresh)))| Planned {
            id: i as u64,
            due_us,
            line: request_line(i, &inputs[k], &path.display().to_string(), w.proto),
            input: k,
            rename: Some((fresh.clone(), w.kernels[k].clone())),
        })
        .collect();

    let before = stats(&server)?;
    let cpu0 = server.cpu_s();
    let outcomes = Conn::open(server.addr())?.run_phase(&planned);
    let cpu_ms = (server.cpu_s() - cpu0) * 1e3 / outcomes.len().max(1) as f64;
    let after = stats(&server)?;
    report.e2e("cpu_ms_per_op", cpu_ms);
    let peak_rss_mb = server.peak_rss_mb();
    server.stop();

    report.attempted += outcomes.len() as u64;
    count_failures(
        &check_outcomes(&outcomes, &inputs, ctx),
        "nominal",
        &mut report,
    );
    report.setups(&setups);
    report.e2e("peak_rss_mb", peak_rss_mb);
    nominal_metrics(w, &outcomes, ctx, &mut report)?;
    counter_layers(&before, &after, &mut report);
    let misses = after.cache_delta(&before, "misses");
    if misses as usize != outcomes.len() {
        report.check_failed(format!(
            "{misses} cache misses for {} distinct-key requests",
            outcomes.len()
        ));
    }

    if ctx.trace {
        // standalone miss-path layers, per request (weighted by the draw)
        let mut counts = vec![0usize; w.kernels.len()];
        for &k in &draw {
            counts[k] += 1;
        }
        let mut first_file: Vec<Option<&PathBuf>> = vec![None; w.kernels.len()];
        for (&k, (path, _)) in draw.iter().zip(&files) {
            first_file[k].get_or_insert(path);
        }
        let mut binaries = Vec::new();
        let mut insts = 0u64;
        let config = CoreConfig::paper();
        for (k, path) in first_file.iter().enumerate() {
            let Some(path) = path else { continue };
            let id = k as u64;
            let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let program = ctx
                .tracer
                .span(id, "isa.decode", |_| decode_program(&bytes))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let options = CompileOptions::default();
            ctx.tracer
                .span(id, "cache.key", |_| artifact_key(&program, &options));
            let (profile, _) = ctx
                .tracer
                .span(id, "profile", |_| profile_program(&program, &config))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            insts += profile.instructions * counts[k] as u64;
            let (binary, _) = ctx
                .tracer
                .span(id, "compiler", |_| compile(&program, &profile, &options))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            binaries.push((id, binary));
        }
        crate::paper::verify_and_absint(&binaries, ctx);
        let weighted = weighted_ms(ctx, &counts);
        let n = draw.len().max(1) as f64;
        report.layer("isa.decode_ms", weighted("isa.decode") / n);
        report.layer("cache.key_ms", weighted("cache.key") / n);
        report.layer("profile.ms", weighted("profile") / n);
        report.layer(
            "profile.ns_per_inst",
            weighted("profile") * 1e6 / insts.max(1) as f64,
        );
        report.layer("compiler.ms", weighted("compiler") / n);
        report.layer("verify.ms", weighted("verify") / n);
        report.layer("absint.ms", weighted("absint") / n);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// Sums span time per layer weighting each span by the request count of
/// its id (`counts[id]`), in ms.
fn weighted_ms<'a>(ctx: &'a Ctx, counts: &'a [usize]) -> impl Fn(&str) -> f64 + 'a {
    move |name| {
        ctx.tracer
            .spans()
            .iter()
            .filter(|s| s.name == name && s.parent.is_none())
            .map(|s| {
                (s.end_ns - s.start_ns) as f64 / 1e6
                    * counts.get(s.id as usize).copied().unwrap_or(0) as f64
            })
            .sum()
    }
}

/// The distinct inputs of the hit stream: `compile`/`verify` over the
/// paper-scale kernel pool and `disasm` over every built-in kernel at
/// test scale — the pools `amnesiac-loadgen` draws from (a request
/// outside this table fails planning).
fn hit_inputs(w: &Workload, mix: &Mix) -> Vec<Input> {
    let mut inputs = Vec::new();
    for entry in mix.entries() {
        let verb = entry.verb.name();
        if verb == "disasm" {
            for name in FOCAL_NAMES
                .iter()
                .chain(&CONTROL_NAMES)
                .chain(&EXTENDED_NAMES)
            {
                inputs.push(Input::new(verb, &format!("bench:{name}"), None));
            }
        } else {
            for name in &w.kernels {
                inputs.push(Input::new(verb, &format!("bench:{name}"), Some("paper")));
            }
        }
    }
    inputs
}

/// Plans one phase of the hit stream against the input table.
fn plan_hit(
    arrivals: &[Arrival],
    inputs: &[Input],
    proto: u64,
    first_id: usize,
) -> Result<Vec<Planned>, String> {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let target = a.target.clone().unwrap_or_default();
            let input = inputs
                .iter()
                .position(|x| x.verb == a.verb && x.target == target && x.scale == a.scale)
                .ok_or_else(|| format!("{} {target} is not a warmed input", a.verb))?;
            Ok(Planned {
                id: (first_id + i) as u64,
                due_us: a.offset_us,
                line: request_line(first_id + i, &inputs[input], &target, proto),
                input,
                rename: None,
            })
        })
        .collect()
}

/// Runs `serve-hit` / `cluster-hit`.
fn run_hit(w: &Workload, ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::new(&w.name, ctx.trace, &ctx.spec);
    let mix = Mix::parse(&w.mix)?;
    let inputs = hit_inputs(w, &mix);
    let nominal_ms = (ctx.seconds * w.nominal_share * 1e3) as u64;
    let rung_ms =
        (ctx.seconds * (1.0 - w.nominal_share) * 1e3 / w.ladder_rps.len().max(1) as f64) as u64;
    let nominal = plan_hit(
        &hit_stream("nominal", w.rate_rps, nominal_ms, &mix, ctx.seed),
        &inputs,
        w.proto,
        inputs.len(),
    )?;
    let warm: Vec<Planned> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| Planned {
            id: i as u64,
            due_us: 0,
            line: request_line(i, input, &input.target, w.proto),
            input: i,
            rename: None,
        })
        .collect();
    let server_args: Vec<&str> = w.server.iter().map(String::as_str).collect();

    let mut setups = Vec::new();
    let mut server: Option<ServerProc> = None;
    for _ in 0..ctx.spec.setup_repeats {
        if let Some(mut old) = server.take() {
            old.stop();
        }
        let start = Instant::now();
        let fresh = ServerProc::boot(&ctx.amnesiac, &server_args)?;
        let conn = Conn::open(fresh.addr())?;
        // warm in batches well inside the server's admission backlog
        let outcomes: Vec<Outcome> = warm
            .chunks(WARM_BATCH)
            .flat_map(|batch| conn.run_phase(batch))
            .collect();
        setups.push(start.elapsed().as_secs_f64());
        report.attempted += outcomes.len() as u64;
        count_failures(
            &check_outcomes(&outcomes, &inputs, ctx),
            "warm-up",
            &mut report,
        );
        server = Some(fresh);
    }
    let mut server = server.ok_or("no set-up ran")?;

    let before = stats(&server)?;
    let mut conn = Conn::open(server.addr())?;
    let cpu0 = server.cpu_s();
    let outcomes = conn.run_phase(&nominal);
    report.e2e(
        "cpu_ms_per_op",
        (server.cpu_s() - cpu0) * 1e3 / outcomes.len().max(1) as f64,
    );
    if outcomes.iter().any(|o| o.recv_ns.is_none()) {
        conn = Conn::open(server.addr())?;
    }
    let after = stats(&server)?;
    // the peak up to here: the ladder's overload must not move it
    report.e2e("peak_rss_mb", server.peak_rss_mb());
    report.attempted += outcomes.len() as u64;
    count_failures(
        &check_outcomes(&outcomes, &inputs, ctx),
        "nominal",
        &mut report,
    );
    report.setups(&setups);
    nominal_metrics(w, &outcomes, ctx, &mut report)?;
    counter_layers(&before, &after, &mut report);
    if after.cache_delta(&before, "misses") > 0.0 {
        report.check_failed("the hit workload missed the cache".into());
    }

    // the ladder: fixed rates toward saturation, stopping at the first
    // rung that misses the limit
    let lat = latencies(&outcomes);
    let mut rungs = vec![Rung {
        rate: w.rate_rps,
        p99_ms: percentile(&sorted(&lat), 99.0),
        failed: outcomes
            .iter()
            .filter(|o| !o.latency_ms().is_finite())
            .count() as u64,
        backlog_growing: backlog_growing(&lat, w.backlog_slack_ms),
    }];
    let mut rung_errors = vec![String::new()];
    let mut next_id = inputs.len() + nominal.len();
    for (i, &rate) in w.ladder_rps.iter().enumerate() {
        if !rungs.last().is_some_and(|r| r.passes(w.p99_limit_ms)) {
            break;
        }
        let plan = plan_hit(
            &hit_stream(&format!("rung-{i}"), rate, rung_ms, &mix, ctx.seed),
            &inputs,
            w.proto,
            next_id,
        )?;
        next_id += plan.len();
        let outcomes = conn.run_phase(&plan);
        report.attempted += outcomes.len() as u64;
        let checked = check_outcomes(&outcomes, &inputs, ctx);
        report.failed += checked.wrong;
        rung_errors.push(checked.describe_errors());
        let lat = latencies(&outcomes);
        let missing = outcomes.iter().any(|o| o.recv_ns.is_none());
        rungs.push(Rung {
            rate,
            p99_ms: percentile(&sorted(&lat), 99.0),
            failed: checked.all(),
            backlog_growing: backlog_growing(&lat, w.backlog_slack_ms),
        });
        if missing {
            conn = Conn::open(server.addr())?;
        }
    }
    server.stop();
    let max_rate = knee(&rungs, w.p99_limit_ms).unwrap_or(0.0);
    report.extra("max_rate_rps", "req/s", max_rate);
    for (rung, errors) in rungs.iter().zip(&rung_errors) {
        report.line(format!(
            "rung {:>6} rps: p99 {:>9.3} ms, {} failed{errors}{} -> {}",
            rung.rate,
            rung.p99_ms,
            rung.failed,
            if rung.backlog_growing {
                ", backlog growing"
            } else {
                ""
            },
            if rung.passes(w.p99_limit_ms) {
                "meets"
            } else {
                "misses"
            }
        ));
    }
    report.line(format!("p99 limit {} ms", w.p99_limit_ms));

    if ctx.trace {
        // standalone rebuild and key cost per request of the nominal stream
        let mut counts = vec![0usize; inputs.len()];
        for p in &nominal {
            counts[p.input] += 1;
        }
        let options = CompileOptions::default();
        for (i, input) in inputs.iter().enumerate() {
            let program = ctx
                .tracer
                .span(i as u64, "workloads.build", |_| input.program())?;
            ctx.tracer.span(i as u64, "cache.key", |_| {
                if input.verb == "disasm" {
                    listing_key(&program)
                } else {
                    artifact_key(&program, &options)
                }
            });
        }
        let weighted = weighted_ms(ctx, &counts);
        let n = nominal.len().max(1) as f64;
        report.layer("workloads.build_ms", weighted("workloads.build") / n);
        report.layer("cache.key_ms", weighted("cache.key") / n);
    }
    Ok(report)
}

/// Runs a serve workload.
///
/// # Errors
///
/// Fails when the service cannot be booted or reached, or the run is
/// invalid.
pub fn run(w: &Workload, ctx: &mut Ctx) -> Result<Report, String> {
    if w.kind == "miss" {
        run_miss(w, ctx)
    } else {
        run_hit(w, ctx)
    }
}
