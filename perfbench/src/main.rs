//! `amnesiac-perfbench`: the repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <paper-suite|serve-miss|serve-hit|cluster-hit> \
//!     --seed <n> --seconds <s> --trace <0|1> [--record-expected]
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) prints
//! every end-to-end metric; a traced run with the same seed prints the
//! per-layer metrics, the traced end-to-end figures next to the untraced
//! ones, and writes its spans to `perfbench/out/`. The last stdout line
//! is the JSON result. Workload definitions live in `perfbench/spec.json`
//! and expected outputs in `perfbench/expected.json`.

mod oracle;
mod paper;
mod report;
mod schedule;
mod serving;
mod spec;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use amnesiac_telemetry::Json;

use crate::oracle::Oracle;
use crate::report::{num, Ctx};
use crate::spec::Spec;
use crate::trace::Tracer;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    amnesiac: PathBuf,
    record: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut amnesiac = None;
    let mut record = false;
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        if flag == "--record-expected" {
            record = true;
            i += 1;
            continue;
        }
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("--seed: `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("--seconds: `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                }
            }
            "--amnesiac" => amnesiac = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        amnesiac: amnesiac.ok_or("--amnesiac is required")?,
        record,
    })
}

/// Reads a run record (`{metric: value}`) written by an earlier run.
fn read_record(path: &std::path::Path) -> Option<BTreeMap<String, f64>> {
    let doc = amnesiac_telemetry::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    Some(
        doc.as_obj()?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
    )
}

/// The `cpu` line of `/proc/stat`: jiffies spent by all CPUs in each
/// state (user, nice, system, idle, iowait, irq, softirq, steal, ...).
fn cpu_jiffies() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Share of the CPUs' time between two `/proc/stat` readings that the
/// hypervisor gave to other guests (steal).
fn steal_share(before: &[u64], after: &[u64]) -> Option<f64> {
    if before.len() < 8 || after.len() < 8 {
        return None;
    }
    let delta = |i: usize| after[i].saturating_sub(before[i]);
    let total: u64 = (0..8).map(delta).sum();
    (total > 0).then(|| delta(7) as f64 / total as f64)
}

fn run(args: Args) -> Result<String, String> {
    let jiffies = cpu_jiffies();
    let spec = Spec::load();
    let workload = spec
        .workload(&args.workload)
        .cloned()
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let out_dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let oracle = Oracle::load(&PathBuf::from("perfbench/expected.json"), args.record)?;
    let mut ctx = Ctx {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tracer: Tracer::new(args.trace),
        oracle,
        amnesiac: args.amnesiac,
        out_dir,
    };
    let mut report = match workload.kind.as_str() {
        "paper" => paper::run(&workload, &mut ctx)?,
        _ => serving::run(&workload, &mut ctx)?,
    };
    if let Some(steal) = steal_share(&jiffies, &cpu_jiffies()) {
        report.line(format!(
            "host: {:.1}% of the CPUs' time went to other guests during the run (steal); \
             a host this busy also slows the code while it runs",
            steal * 100.0
        ));
    }
    if args.seed == ctx.spec.held_out_seed {
        report.line("this is the held-out seed: it was never used while tuning".into());
    }
    for mismatch in ctx.oracle.mismatches.iter().take(20) {
        eprintln!("perfbench: mismatch: {mismatch}");
    }
    ctx.oracle.save()?;

    let stem = format!("{}-seed{}", workload.name, args.seed);
    let record = report
        .record()
        .iter()
        .fold(Json::obj(), |obj, (name, value)| obj.with(name, *value));
    let record_path = ctx
        .out_dir
        .join(format!("{stem}-trace{}.json", u8::from(args.trace)));
    std::fs::write(&record_path, record.pretty())
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    let untraced = if args.trace {
        let spans = ctx.out_dir.join(format!("{stem}-spans.jsonl"));
        std::fs::write(&spans, ctx.tracer.to_jsonl())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let mut table = String::from("layer self time (ms): ");
        for (name, total) in ctx.tracer.totals() {
            let _ = write!(
                table,
                "{name} {} over {} spans; ",
                num(total.self_ns as f64 / 1e6),
                total.count
            );
        }
        report.line(table);
        report.line(format!("spans written to {}", spans.display()));
        read_record(&ctx.out_dir.join(format!("{stem}-trace0.json")))
    } else {
        None
    };
    Ok(report.render(args.seed, untraced.as_ref()))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(run) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(&[
            "--amnesiac",
            "bin",
            "--workload",
            "serve-hit",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "serve-hit");
        assert_eq!(a.seed, 3);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace && !a.record);
        for bad in [
            &[
                "--workload",
                "x",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--amnesiac",
                "b",
            ][..],
            &[
                "--workload",
                "x",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
                "--amnesiac",
                "b",
            ],
            &["--workload", "x", "--seconds", "1", "--amnesiac", "b"],
            &["--bogus", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn steal_share_is_the_steal_delta_over_the_total_delta() {
        let before = [100, 0, 20, 300, 0, 0, 0, 10, 0, 0];
        let after = [140, 0, 30, 330, 0, 0, 0, 30, 0, 0];
        assert_eq!(steal_share(&before, &after), Some(0.2));
        assert_eq!(steal_share(&before, &before), None);
        assert_eq!(steal_share(&[], &after), None);
    }

    #[test]
    fn spec_parses_and_defines_every_workload() {
        let spec = Spec::load();
        for name in ["paper-suite", "serve-miss", "serve-hit", "cluster-hit"] {
            let w = spec.workload(name).unwrap_or_else(|| panic!("{name}"));
            assert!(!w.kernels.is_empty(), "{name}");
        }
        assert!(spec.held_out_seed > 0);
        let hit = spec.workload("serve-hit").unwrap();
        let cluster = spec.workload("cluster-hit").unwrap();
        assert_eq!(
            (hit.rate_rps, &hit.mix, &hit.ladder_rps),
            (cluster.rate_rps, &cluster.mix, &cluster.ladder_rps)
        );
        assert!(hit.ladder_rps.windows(2).all(|w| w[0] < w[1]));
        assert!(hit.ladder_rps[0] > hit.rate_rps);
    }

    #[test]
    fn benchmark_json_declares_the_metrics_and_workloads_of_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            amnesiac_telemetry::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("parses");
        let list = |key: &str, field: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let get = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (get("name"), get(field))
                })
                .collect()
        };
        let spec = Spec::load();
        let own = |metrics: &[spec::Metric]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        assert_eq!(list("end_to_end", "unit"), own(&spec.gated));
        assert_eq!(list("per_layer", "unit"), own(&spec.layers));
        for (name, why) in list("workloads", "why") {
            assert!(spec.workload(&name).is_some(), "{name} is not in spec.json");
            assert!(!why.is_empty(), "{name} has no why");
        }
    }
}
