#![deny(unsafe_code)]

//! `amnesiac-loadgen` — an open-loop load generator for `amnesiac-serve`.
//!
//! "Heavy traffic" is only a claim until there is a number attached; this
//! crate produces the number. It drives a live server with a **Poisson
//! arrival process** at a configured rate: request send times are drawn
//! up front from a seeded [`amnesiac_rng::Rng`], so the schedule is a
//! pure function of `(rate, duration, seed, mix)` and two runs against
//! different builds offer the exact same load. Crucially the loop is
//! **open**: a request is sent at its scheduled instant whether or not
//! earlier responses have arrived, so a slow server faces a growing
//! backlog exactly as it would in production, instead of the generator
//! politely slowing down with it (the closed-loop/coordinated-omission
//! trap — see DESIGN.md).
//!
//! Latency is measured from the request's *scheduled* arrival time to
//! response receipt and recorded into an HDR-style log-bucketed
//! [`LogHistogram`] (~3% relative resolution at any magnitude), from
//! which the report extracts p50/p90/p99/p999. The snapshot document
//! ([`LoadgenReport::snapshot`]) is the `loadgen` verb's payload. The
//! repository benchmark (`perfbench/`) draws its serve workloads'
//! arrivals from the same [`schedule`].

mod hist;
pub mod run;

pub use hist::LogHistogram;
pub use run::{run_against, LoadgenReport};

use amnesiac_rng::Rng;
use amnesiac_serve::WireVerb;
use amnesiac_telemetry::Json;

/// Hard cap on scheduled requests per run — a misconfigured
/// `rate * duration` should fail loudly, not allocate without bound.
pub const MAX_SCHEDULED: usize = 1 << 20;

/// The wire verbs a mix may draw from — the shared [`WireVerb`]
/// vocabulary minus the admin verbs the generator has no business firing
/// at rate (`shutdown`, `drain`, `cluster`) — with the default target
/// each one gets (`None` = the verb takes no target). Targets pick small
/// built-in benchmarks so a load point costs milliseconds, not seconds.
/// The cacheable verbs (`compile`, `verify`, `disasm`) override this
/// default at schedule time with a seeded draw over a kernel pool — see
/// [`schedule`].
const VERB_TARGETS: &[(WireVerb, Option<&str>)] = &[
    (WireVerb::Compile, Some("bench:is")),
    (WireVerb::Simulate, Some("bench:sr")),
    (WireVerb::Run, Some("bench:sr")),
    (WireVerb::Verify, Some("bench:is")),
    (WireVerb::Bench, Some("bench:is")),
    (WireVerb::Compare, Some("bench:is")),
    (WireVerb::Disasm, Some("bench:cg")),
    (WireVerb::Profile, Some("bench:is")),
    (WireVerb::Trace, Some("bench:bfs")),
    (WireVerb::Stats, None),
];

/// One weighted entry of a request mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixEntry {
    /// The wire verb (typed — the same vocabulary the server dispatches
    /// on and the router places with).
    pub verb: WireVerb,
    /// The target attached to each request of this verb.
    pub target: Option<String>,
    /// Relative sampling weight (> 0).
    pub weight: u64,
}

/// A weighted request mix over the service verbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mix {
    entries: Vec<MixEntry>,
    total_weight: u64,
}

impl Default for Mix {
    /// The default mix: a read-mostly blend of the cheap verbs, shaped
    /// like an interactive toolchain session (compiles dominating, a few
    /// simulations, the rest introspection).
    fn default() -> Mix {
        Mix::parse("compile=4,disasm=3,simulate=2,trace=2,stats=2,verify=1")
            .expect("default mix spec is valid")
    }
}

impl Mix {
    /// Parses a mix spec: comma-separated `verb=weight` entries (a bare
    /// `verb` means weight 1). Verbs must be known service verbs; weights
    /// must be positive integers.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry.
    pub fn parse(spec: &str) -> Result<Mix, String> {
        let mut entries: Vec<MixEntry> = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("empty entry in mix spec `{spec}`"));
            }
            let (raw_verb, weight) = match part.split_once('=') {
                None => (part, 1),
                Some((verb, weight)) => {
                    let weight: u64 = weight.parse().ok().filter(|&w| w > 0).ok_or_else(|| {
                        format!("mix weight `{weight}` is not a positive integer")
                    })?;
                    (verb.trim(), weight)
                }
            };
            let (verb, target) = WireVerb::parse(raw_verb)
                .and_then(|verb| {
                    VERB_TARGETS
                        .iter()
                        .find(|(known, _)| *known == verb)
                        .map(|(_, target)| (verb, target.map(str::to_string)))
                })
                .ok_or_else(|| {
                    let known: Vec<&str> = VERB_TARGETS.iter().map(|(v, _)| v.name()).collect();
                    format!(
                        "unknown mix verb `{raw_verb}` (known: {})",
                        known.join(", ")
                    )
                })?;
            if entries.iter().any(|e| e.verb == verb) {
                return Err(format!("verb `{verb}` appears twice in mix spec"));
            }
            entries.push(MixEntry {
                verb,
                target,
                weight,
            });
        }
        let total_weight = entries.iter().map(|e| e.weight).sum();
        Ok(Mix {
            entries,
            total_weight,
        })
    }

    /// The canonical `verb=weight,...` spec (round-trips through
    /// [`Mix::parse`]).
    pub fn spec(&self) -> String {
        self.entries
            .iter()
            .map(|e| format!("{}={}", e.verb, e.weight))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The entries of the mix.
    pub fn entries(&self) -> &[MixEntry] {
        &self.entries
    }

    /// Draws one entry, weight-proportionally.
    fn sample(&self, rng: &mut Rng) -> &MixEntry {
        let mut roll = rng.below(self.total_weight);
        for entry in &self.entries {
            if roll < entry.weight {
                return entry;
            }
            roll -= entry.weight;
        }
        unreachable!("roll is below the summed weights")
    }
}

/// Everything that determines a load run. The schedule is a pure
/// function of this struct, and the snapshot echoes it as its `config`
/// object, so a run's own output says how to repeat it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Mean arrival rate, requests per second (Poisson process).
    pub rate: f64,
    /// How long arrivals keep coming, in milliseconds.
    pub duration_ms: u64,
    /// Seed for the arrival schedule and mix draws.
    pub seed: u64,
    /// The weighted verb mix.
    pub mix: Mix,
    /// Client connections the schedule is dealt across (round-robin).
    pub connections: usize,
    /// Per-request deadline attached to every request, in milliseconds.
    pub timeout_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            rate: 200.0,
            duration_ms: 1000,
            seed: 42,
            mix: Mix::default(),
            connections: 16,
            timeout_ms: 10_000,
        }
    }
}

impl LoadgenConfig {
    /// Checks the configuration is runnable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first bad field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.rate.is_finite() || self.rate <= 0.0 {
            return Err(format!("rate must be a positive number, got {}", self.rate));
        }
        if self.duration_ms == 0 {
            return Err("duration-ms must be at least 1".to_string());
        }
        if self.connections == 0 {
            return Err("connections must be at least 1".to_string());
        }
        if self.timeout_ms == 0 {
            return Err("timeout-ms must be at least 1".to_string());
        }
        let expected = self.rate * self.duration_ms as f64 / 1000.0;
        if expected > MAX_SCHEDULED as f64 {
            return Err(format!(
                "rate {} over {} ms schedules ~{expected:.0} requests; the cap is {MAX_SCHEDULED}",
                self.rate, self.duration_ms
            ));
        }
        Ok(())
    }

    /// The `config` object embedded in snapshots.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("rate", self.rate)
            .with("duration_ms", self.duration_ms)
            .with("seed", self.seed)
            .with("mix", self.mix.spec())
            .with("connections", self.connections)
            .with("timeout_ms", self.timeout_ms)
    }
}

/// One scheduled request: when (µs after the run epoch) and what.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Scheduled send instant, microseconds after the run epoch.
    pub offset_us: u64,
    /// The wire verb.
    pub verb: String,
    /// The target, where the verb takes one.
    pub target: Option<String>,
    /// The workload scale attached to the request (`None` = the
    /// service default, test scale).
    pub scale: Option<String>,
}

/// The artifact sweep pool for `compile`/`verify`: kernels whose
/// paper-scale compile (profiling simulation included) costs tens of
/// milliseconds — expensive enough that a cache miss is clearly visible
/// in the latency histogram, cheap enough that a cold sweep of the whole
/// pool fits inside one burst. The heavy tail of the suite (paper-scale
/// `mcf`, `calculix`, ... run for seconds to minutes) stays out so the
/// pinned load point remains a latency benchmark, not a soak test.
const PAPER_SWEEP: &[&str] = &[
    "bodytrack",
    "hotspot",
    "particlefilter",
    "blackscholes",
    "bfs",
    "mg",
    "freqmine",
    "sr",
    "omnetpp",
    "perlbench",
    "soplex",
    "dedup",
    "swaptions",
    "x264",
    "libquantum",
    "ft",
    "nw",
];

/// The listing sweep pool for `disasm`: every built-in kernel at test
/// scale, as `bench:<name>` references, in suite order (focal, control,
/// extended) — breadth for the listing side of the cache.
fn listing_sweep_targets() -> Vec<String> {
    amnesiac_workloads::FOCAL_NAMES
        .iter()
        .chain(amnesiac_workloads::CONTROL_NAMES.iter())
        .chain(amnesiac_workloads::EXTENDED_NAMES.iter())
        .map(|name| format!("bench:{name}"))
        .collect()
}

/// Draws the full arrival schedule: exponential inter-arrival gaps at
/// `config.rate` (a Poisson process) until `config.duration_ms` is
/// exhausted, each arrival tagged with a mix draw. The cacheable verbs
/// additionally draw their target from a kernel pool:
/// `compile`/`verify` sweep `PAPER_SWEEP` at paper scale (expensive
/// artifacts), `disasm` sweeps the whole suite at test scale (broad
/// listings). Deterministic in `(rate, duration_ms, seed, mix)`; offsets
/// are non-decreasing and the length is capped at [`MAX_SCHEDULED`].
pub fn schedule(config: &LoadgenConfig) -> Vec<Arrival> {
    let mut rng = Rng::seed_from_u64(config.seed);
    let listings = listing_sweep_targets();
    let horizon_us = config.duration_ms as f64 * 1000.0;
    let mut t_us = 0.0f64;
    let mut arrivals = Vec::new();
    if !(config.rate.is_finite() && config.rate > 0.0) {
        return arrivals;
    }
    while arrivals.len() < MAX_SCHEDULED {
        // inverse-CDF draw of an Exp(rate) gap; u in [0,1) keeps ln finite
        let u = rng.range_f64(0.0, 1.0);
        t_us += -(1.0 - u).ln() / config.rate * 1e6;
        if t_us >= horizon_us {
            break;
        }
        let entry = config.mix.sample(&mut rng);
        let (target, scale) = match entry.verb {
            WireVerb::Compile | WireVerb::Verify => {
                let name = PAPER_SWEEP[rng.below(PAPER_SWEEP.len() as u64) as usize];
                (Some(format!("bench:{name}")), Some("paper".to_string()))
            }
            WireVerb::Disasm => {
                let target = listings[rng.below(listings.len() as u64) as usize].clone();
                (Some(target), None)
            }
            _ => (entry.target.clone(), None),
        };
        arrivals.push(Arrival {
            offset_us: t_us as u64,
            verb: entry.verb.name().to_string(),
            target,
            scale,
        });
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_spec_round_trips_and_weights_default_to_one() {
        let mix = Mix::parse("compile=4, stats ,trace=2").expect("valid spec");
        assert_eq!(mix.spec(), "compile=4,stats=1,trace=2");
        assert_eq!(Mix::parse(&mix.spec()).unwrap(), mix);
        let entries = mix.entries();
        assert_eq!(entries[0].target.as_deref(), Some("bench:is"));
        assert_eq!(entries[1].target, None);
        assert_eq!(entries[2].target.as_deref(), Some("bench:bfs"));
    }

    #[test]
    fn mix_parser_rejects_malformed_specs() {
        for (spec, expect) in [
            ("", "empty entry"),
            ("compile=4,,stats", "empty entry"),
            ("frobnicate=1", "unknown mix verb"),
            ("compile=0", "not a positive integer"),
            ("compile=-1", "not a positive integer"),
            ("compile=x", "not a positive integer"),
            ("compile=1,compile=2", "appears twice"),
        ] {
            let err = Mix::parse(spec).expect_err(spec);
            assert!(err.contains(expect), "{spec}: {err}");
        }
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = Mix::parse("compile=9,stats=1").unwrap();
        let mut rng = Rng::seed_from_u64(5);
        let mut compiles = 0u64;
        for _ in 0..10_000 {
            if mix.sample(&mut rng).verb == WireVerb::Compile {
                compiles += 1;
            }
        }
        // binomial(10_000, 0.9): anything outside [8700, 9300] is broken
        assert!((8_700..=9_300).contains(&compiles), "{compiles}");
    }

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let config = LoadgenConfig {
            rate: 500.0,
            duration_ms: 2_000,
            seed: 99,
            ..LoadgenConfig::default()
        };
        let a = schedule(&config);
        let b = schedule(&config);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let other_seed = schedule(&LoadgenConfig {
            seed: 100,
            ..config
        });
        assert_ne!(a, other_seed);
    }

    #[test]
    fn cacheable_verbs_sweep_the_kernel_pools() {
        let config = LoadgenConfig {
            rate: 1_000.0,
            duration_ms: 2_000,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let listings: std::collections::BTreeSet<String> =
            listing_sweep_targets().into_iter().collect();
        assert_eq!(listings.len(), 33, "the full built-in suite");
        let artifacts: std::collections::BTreeSet<String> = PAPER_SWEEP
            .iter()
            .map(|name| format!("bench:{name}"))
            .collect();
        let mut seen_artifacts: std::collections::BTreeSet<&str> = Default::default();
        let mut seen_listings: std::collections::BTreeSet<&str> = Default::default();
        let arrivals = schedule(&config);
        for arrival in &arrivals {
            match arrival.verb.as_str() {
                "compile" | "verify" => {
                    let target = arrival.target.as_deref().expect("artifact verbs take one");
                    assert!(artifacts.contains(target), "{target} not in the pool");
                    assert_eq!(arrival.scale.as_deref(), Some("paper"));
                    seen_artifacts.insert(target);
                }
                "disasm" => {
                    let target = arrival.target.as_deref().expect("disasm takes a target");
                    assert!(listings.contains(target), "{target} not in the suite");
                    assert_eq!(arrival.scale, None);
                    seen_listings.insert(target);
                }
                "stats" => {
                    assert_eq!(arrival.target, None);
                    assert_eq!(arrival.scale, None);
                }
                _ => assert_eq!(arrival.scale, None),
            }
        }
        // hundreds of draws per pool: everything shows up
        assert_eq!(seen_artifacts.len(), artifacts.len(), "artifact sweep");
        assert_eq!(seen_listings.len(), listings.len(), "listing sweep");
    }

    #[test]
    fn schedule_matches_the_rate_and_stays_inside_the_horizon() {
        let config = LoadgenConfig {
            rate: 1_000.0,
            duration_ms: 4_000,
            seed: 42,
            ..LoadgenConfig::default()
        };
        let arrivals = schedule(&config);
        // Poisson(4000): +-5 sigma is [3684, 4316]
        assert!(
            (3_600..=4_400).contains(&arrivals.len()),
            "{} arrivals",
            arrivals.len()
        );
        let mut prev = 0u64;
        for arrival in &arrivals {
            assert!(arrival.offset_us < 4_000_000, "offset past horizon");
            assert!(arrival.offset_us >= prev, "offsets must be non-decreasing");
            prev = arrival.offset_us;
        }
    }

    #[test]
    fn validate_catches_bad_configs() {
        for (mutate, expect) in [
            (
                Box::new(|c: &mut LoadgenConfig| c.rate = 0.0) as Box<dyn Fn(&mut LoadgenConfig)>,
                "rate must be",
            ),
            (
                Box::new(|c: &mut LoadgenConfig| c.rate = f64::NAN),
                "rate must be",
            ),
            (
                Box::new(|c: &mut LoadgenConfig| c.duration_ms = 0),
                "duration-ms",
            ),
            (
                Box::new(|c: &mut LoadgenConfig| c.connections = 0),
                "connections",
            ),
            (
                Box::new(|c: &mut LoadgenConfig| c.timeout_ms = 0),
                "timeout-ms",
            ),
            (
                Box::new(|c: &mut LoadgenConfig| c.rate = 1e12),
                "the cap is",
            ),
        ] {
            let mut config = LoadgenConfig::default();
            mutate(&mut config);
            let err = config.validate().expect_err("must be rejected");
            assert!(err.contains(expect), "{err}");
        }
        assert!(LoadgenConfig::default().validate().is_ok());
    }
}
