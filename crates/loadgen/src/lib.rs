#![deny(unsafe_code)]

//! `amnesiac-loadgen` — the seeded arrival schedule that the repository
//! benchmark (`perfbench/`) offers to `amnesiac serve`.
//!
//! Request send times follow a **Poisson arrival process** at a
//! configured rate and are drawn up front from a seeded
//! [`amnesiac_rng::Rng`], so the schedule is a pure function of
//! `(rate, duration, seed, mix)` and two runs against different builds
//! offer the exact same load. The schedule is meant for an **open**
//! loop: each request goes out at its scheduled instant whether or not
//! earlier responses have arrived, so a slow server faces a growing
//! backlog exactly as it would in production, instead of the client
//! politely slowing down with it (the closed-loop/coordinated-omission
//! trap — see DESIGN.md §4d). The driver that sends it, and the
//! latencies measured from each scheduled instant, live in perfbench.

use amnesiac_rng::Rng;
use amnesiac_serve::WireVerb;

/// Hard cap on scheduled requests per run, so a misconfigured
/// `rate * duration` cannot allocate without bound.
const MAX_SCHEDULED: usize = 1 << 20;

/// The wire verbs a mix may draw from — the shared [`WireVerb`]
/// vocabulary minus the admin verbs that have no business being fired
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

/// The inputs of a load run. [`schedule`] is a pure function of `rate`,
/// `duration_ms`, `seed` and `mix`; `connections` and `timeout_ms` are
/// carried for the caller that sends the schedule, and [`schedule`]
/// reads neither.
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
    /// Client connections the caller deals the schedule across; the
    /// schedule does not depend on it.
    pub connections: usize,
    /// Per-request deadline the caller attaches, in milliseconds; the
    /// schedule does not depend on it.
    pub timeout_ms: u64,
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
/// in the latencies, cheap enough that a cold sweep of the whole
/// pool fits inside one burst. The heavy tail of the suite (paper-scale
/// `mcf`, `calculix`, ... run for seconds to minutes) stays out so the
/// pinned load point remains a latency benchmark, not a soak test.
pub const PAPER_SWEEP: &[&str] = &[
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
/// scale, as `bench:<name>` references, in kernel-table order (focal,
/// control, extended) — breadth for the listing side of the cache.
fn listing_sweep_targets() -> Vec<String> {
    amnesiac_workloads::KERNELS
        .iter()
        .map(|k| format!("bench:{}", k.name))
        .collect()
}

/// Draws the full arrival schedule: exponential inter-arrival gaps at
/// `config.rate` (a Poisson process) until `config.duration_ms` is
/// exhausted, each arrival tagged with a mix draw. The cacheable verbs
/// additionally draw their target from a kernel pool:
/// `compile`/`verify` sweep `PAPER_SWEEP` at paper scale (expensive
/// artifacts), `disasm` sweeps the whole suite at test scale (broad
/// listings). Deterministic in `(rate, duration_ms, seed, mix)`; offsets
/// are non-decreasing and the length is capped at 2^20 arrivals. A rate
/// that is not a positive number schedules nothing.
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

    /// A run over `mix` at `rate` for `duration_ms`; the lane count and
    /// the deadline are placeholders the schedule never reads.
    fn config(rate: f64, duration_ms: u64, seed: u64, mix: &str) -> LoadgenConfig {
        LoadgenConfig {
            rate,
            duration_ms,
            seed,
            mix: Mix::parse(mix).unwrap(),
            connections: 16,
            timeout_ms: 10_000,
        }
    }

    /// A read-mostly blend: compiles dominate, then listings, a few
    /// simulations and introspection.
    const BLEND: &str = "compile=4,disasm=3,simulate=2,trace=2,stats=2,verify=1";

    #[test]
    fn mix_weights_default_to_one() {
        let mix = Mix::parse("compile=4, stats ,trace=2").expect("valid spec");
        assert_eq!(mix, Mix::parse("compile=4,stats=1,trace=2").unwrap());
        let entries = mix.entries();
        let weights: Vec<u64> = entries.iter().map(|e| e.weight).collect();
        assert_eq!(weights, [4, 1, 2]);
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
        let config = config(500.0, 2_000, 99, BLEND);
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
        let config = config(1_000.0, 2_000, 7, BLEND);
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
        let arrivals = schedule(&config(1_000.0, 4_000, 42, BLEND));
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

    /// FNV-1a over every field of every arrival, in order.
    fn digest(arrivals: &[Arrival]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for a in arrivals {
            let line = format!("{} {} {:?} {:?}\n", a.offset_us, a.verb, a.target, a.scale);
            for byte in line.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn the_benchmark_streams_keep_their_draws() {
        // perfbench's hit mix at its nominal rate, and its miss mix. Its
        // oracle checks each payload against the digest of its own input,
        // so a moved draw would pass the oracle while silently changing
        // the benchmark's workload; this test fails on it instead.
        for (spec, rate, duration_ms, len, want) in [
            (
                "compile=4,disasm=3,verify=1",
                300.0,
                2_000,
                592,
                0xb28d_7119_45c3_8a26u64,
            ),
            ("compile=1", 8.0, 20_000, 162, 0xb6be_d1e9_5a43_9cd4),
        ] {
            let config = config(rate, duration_ms, 7919, spec);
            let arrivals = schedule(&config);
            assert_eq!((arrivals.len(), digest(&arrivals)), (len, want), "{spec}");
            // the lane count and the deadline are the caller's, not the schedule's
            let other = LoadgenConfig {
                connections: 1,
                timeout_ms: 1,
                ..config
            };
            assert_eq!(schedule(&other), arrivals, "{spec}");
        }
    }
}
