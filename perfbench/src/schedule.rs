//! Seeded inputs. Every stream the benchmark offers — arrival times, the
//! request mix, the miss-file draw — is a pure function of
//! `(stream, seed)`, where the stream name is fixed by the workload. The
//! program under test only ever sees the generated requests.

use amnesiac_loadgen::{schedule, Arrival, LoadgenConfig, Mix};
use amnesiac_rng::Rng;

use crate::wire::fnv64;

/// Derives the seed of one named input stream from the run seed
/// (FNV-1a over the stream name, folded with the seed).
pub fn stream_seed(stream: &str, seed: u64) -> u64 {
    fnv64(stream.as_bytes()) ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// `amnesiac-loadgen`'s Poisson schedule of one named stream over `mix`,
/// sent on one connection.
fn stream(name: &str, rate: f64, duration_ms: u64, mix: &Mix, seed: u64) -> Vec<Arrival> {
    schedule(&LoadgenConfig {
        rate,
        duration_ms,
        seed: stream_seed(name, seed),
        mix: mix.clone(),
        connections: 1,
        timeout_ms: 30_000,
    })
}

/// The `serve-miss` arrival offsets in microseconds: the first `count`
/// arrivals of the loadgen schedule of a `compile`-only mix, whose
/// targets are ignored (every miss request names a file of its own, see
/// [`miss_draw`]). A fixed count gives every seed the same work, set-up
/// included; the phase lasts about `count / rate` seconds.
pub fn miss_offsets(rate: f64, count: usize, seed: u64) -> Vec<u64> {
    let mix = Mix::parse("compile=1").expect("a one-verb mix parses");
    // twice the expected span: fewer than `count` arrivals in it is many
    // standard deviations out for any count this benchmark uses
    let horizon_ms = (2.0 * count as f64 / rate * 1e3) as u64 + 1_000;
    stream("miss-arrivals", rate, horizon_ms, &mix, seed)
        .iter()
        .take(count)
        .map(|a| a.offset_us)
        .collect()
}

/// The miss-file draw: `n` indices into a pool of `pool` kernels, dealt
/// in shuffled rounds so every kernel appears `⌊n/pool⌋` or `⌈n/pool⌉`
/// times. The composition is nearly identical for every seed; only the
/// order changes, which keeps the per-run work comparable.
pub fn miss_draw(n: usize, pool: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut round: Vec<usize> = (0..pool).collect();
        rng.shuffle(&mut round);
        out.extend(round.into_iter().take(n - out.len()));
    }
    out
}

/// The cache-hit request stream of one phase (the nominal phase or one
/// ladder rung): `amnesiac-loadgen`'s Poisson schedule over `mix`, whose
/// cacheable verbs draw their targets from the 17-kernel paper-scale
/// pool (`compile`, `verify`) and the 33 built-ins at test scale
/// (`disasm`). `serve-hit` and `cluster-hit` share it.
pub fn hit_stream(phase: &str, rate: f64, duration_ms: u64, mix: &Mix, seed: u64) -> Vec<Arrival> {
    stream(&format!("hit-{phase}"), rate, duration_ms, mix, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_separate_streams_and_seeds() {
        assert_eq!(stream_seed("miss", 1), stream_seed("miss", 1));
        assert_ne!(stream_seed("miss", 1), stream_seed("miss", 2));
        assert_ne!(stream_seed("miss", 1), stream_seed("hit", 1));
    }

    #[test]
    fn arrival_schedule_is_a_pure_function_of_the_seed() {
        let a = miss_offsets(8.0, 160, 3);
        let b = miss_offsets(8.0, 160, 3);
        let c = miss_offsets(8.0, 160, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            (a.len(), c.len()),
            (160, 160),
            "a fixed count for every seed"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        // the 160th arrival at 8/s: Gamma(160, 8) has mean 20 s, sd 1.6 s
        let last = a[159] as f64 / 1e6;
        assert!((12.0..28.0).contains(&last), "last arrival at {last} s");
    }

    #[test]
    fn miss_draw_is_pure_and_balanced() {
        let a = miss_draw(160, 17, 11);
        assert_eq!(a, miss_draw(160, 17, 11));
        assert_ne!(a, miss_draw(160, 17, 12));
        let mut counts = [0usize; 17];
        for &k in &a {
            counts[k] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 160);
    }

    #[test]
    fn hit_stream_mix_and_targets_are_pure_in_the_seed() {
        let mix = Mix::parse("compile=4,disasm=3,verify=1").unwrap();
        let a = hit_stream("nominal", 300.0, 2_000, &mix, 9);
        assert_eq!(a, hit_stream("nominal", 300.0, 2_000, &mix, 9));
        assert_ne!(a, hit_stream("nominal", 300.0, 2_000, &mix, 10));
        assert_ne!(a, hit_stream("rung-0", 300.0, 2_000, &mix, 9));
        for arrival in &a {
            match arrival.verb.as_str() {
                "compile" | "verify" => assert_eq!(arrival.scale.as_deref(), Some("paper")),
                "disasm" => assert_eq!(arrival.scale, None),
                other => panic!("verb `{other}` is not in the mix"),
            }
        }
    }
}
