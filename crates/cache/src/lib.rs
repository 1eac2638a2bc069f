#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-cache
//!
//! Content-addressed store for compiled artifacts — the annotated
//! [`Program`] plus its [`CompileReport`] — so a byte-identical
//! (program, options) pair is compiled once, not once per request.
//!
//! Three layers (DESIGN.md §4f):
//!
//! * **Key derivation** — a 128-bit [`hash128`] over the canonical
//!   program image ([`encode_program`]), the [`CompileOptions`]
//!   fingerprint ([`OptionsFingerprint`]), and [`CACHE_SCHEMA_VERSION`].
//!   Bumping the schema version invalidates every prior key, which is the
//!   *only* invalidation rule: entries are never migrated or trusted across
//!   pipeline changes. A `bench:` request is first keyed by its [`Source`]
//!   — what it names, before any program is built — and an alias map
//!   sends a known benchmark straight to the key its first build derived.
//! * **Sharded in-memory LRU** with a byte budget and single-flight
//!   deduplication: N concurrent requests for one key block on one
//!   compilation and all receive the shared artifact ([`CompileCache`]).
//! * **Disk persistence** ([`CompileCache::persistent`]) with a versioned
//!   binary framing, loaded lazily on first miss so warm restarts serve
//!   hits without recompiling. Corrupt or version-mismatched entries are
//!   discarded, never trusted.
//!
//! The profile is deliberately **not** part of the key: every in-repo
//! caller derives it deterministically from the program, so
//! (program, options) fully determines the artifact. Callers that profile
//! differently must use distinct caches.

mod codec;
mod disk;
mod store;

use amnesiac_compiler::{CompileOptions, CompileReport};
use amnesiac_isa::{encode_program, encoded_len, Program};
use amnesiac_mem::hash128;
use amnesiac_telemetry::Json;
use std::sync::atomic::{AtomicU64, Ordering};

pub use codec::{report_from_json, report_to_json};
pub use store::CompileCache;

/// Version of the (pipeline semantics, report codec, disk framing) triple.
///
/// Part of every cache key, so bumping it orphans all previously stored
/// entries — in memory and on disk — at once. Bump whenever the compile
/// pipeline's output for a fixed input can change, or when the report
/// codec or disk framing changes shape.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// A compiled artifact: the annotated binary and its per-site report.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileArtifact {
    /// Annotated program as returned by `amnesiac_compiler::compile`.
    pub program: Program,
    /// The matching compile report.
    pub report: CompileReport,
}

impl CompileArtifact {
    /// Approximate resident size in bytes, for the LRU byte budget.
    ///
    /// Counts the canonical program image plus a fixed-cost estimate per
    /// report decision/diagnostic — an accounting figure, not an exact
    /// allocation measurement.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let program = encoded_len(&self.program);
        let report = self.report.decisions.len() * 96
            + self.report.pc_map.len() * 8
            + self.report.verify.diagnostics.len() * 128
            + 256;
        program + report
    }
}

/// The [`CompileOptions`] part of every artifact key: the options' full
/// `Debug` text (every field, including the energy model's per-class EPI
/// values, with shortest-round-trip float formatting).
///
/// Formatting it costs microseconds, so a caller that keys many lookups
/// under one set of options formats it once and passes it to
/// [`CompileCache::get_or_compile_source`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionsFingerprint(String);

impl OptionsFingerprint {
    /// The fingerprint of `options`.
    #[must_use]
    pub fn of(options: &CompileOptions) -> Self {
        OptionsFingerprint(format!("{options:?}"))
    }

    /// The text every key hashes.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Derives the content-addressed key for a compile artifact.
///
/// Stable across runs and processes: the program contributes its canonical
/// [`encode_program`] image, the options their [`OptionsFingerprint`], and
/// [`CACHE_SCHEMA_VERSION`] ties the key to the pipeline generation.
#[must_use]
pub fn artifact_key(program: &Program, options: &CompileOptions) -> u128 {
    artifact_key_for(program, &OptionsFingerprint::of(options))
}

/// [`artifact_key`] under an already formatted fingerprint.
#[must_use]
pub(crate) fn artifact_key_for(program: &Program, fingerprint: &OptionsFingerprint) -> u128 {
    let image = encode_program(program);
    hash128(&[
        b"artifact",
        &image,
        fingerprint.as_str().as_bytes(),
        &CACHE_SCHEMA_VERSION.to_le_bytes(),
    ])
}

/// Derives the key for a cached disassembly listing of `program`.
///
/// Tagged distinctly from [`artifact_key`] so the two key spaces cannot
/// collide even for the same program bytes.
#[must_use]
pub fn listing_key(program: &Program) -> u128 {
    let image = encode_program(program);
    hash128(&[b"listing", &image, &CACHE_SCHEMA_VERSION.to_le_bytes()])
}

/// What a request names, before any program is built or decoded (see
/// [`CompileCache::get_or_compile_source`]).
#[derive(Debug)]
pub enum Source<'a> {
    /// A built-in benchmark: a pure function of its name and scale, so it
    /// has a source key, and the cache aliases that key to the entry its
    /// first build resolved to. The alias is recorded only after the
    /// build succeeds, so the caller's build must accept a fixed set of
    /// names: the alias map then holds at most one alias per (name,
    /// scale, options fingerprint in use) for artifacts, and one per
    /// (name, scale) for listings.
    Bench {
        /// The benchmark name (`bench:NAME` without the prefix).
        name: &'a str,
        /// Paper scale (`true`) or test scale.
        paper: bool,
    },
    /// A file target: no source key, never aliased. It is keyed by the
    /// program decoded from it, so by its content and never its path: a
    /// file rewritten in place misses.
    File,
}

impl Source<'_> {
    /// The source key under `tag` and `extra`, for a benchmark.
    fn key(&self, tag: &[u8], extra: &[u8]) -> Option<u128> {
        let Source::Bench { name, paper } = self else {
            return None;
        };
        let schema = CACHE_SCHEMA_VERSION.to_le_bytes();
        Some(hash128(&[
            tag,
            name.as_bytes(),
            &[u8::from(*paper)],
            extra,
            &schema,
        ]))
    }

    /// The alias key of this source's compile artifact under the options
    /// `fingerprint` names.
    pub(crate) fn artifact_key(&self, fingerprint: &OptionsFingerprint) -> Option<u128> {
        self.key(b"artifact-source", fingerprint.as_str().as_bytes())
    }

    /// The alias key of this source's disassembly listing.
    pub(crate) fn listing_key(&self) -> Option<u128> {
        self.key(b"listing-source", &[])
    }
}

/// Monotonic cache counters, updated lock-free by every request path.
///
/// `bytes` is a gauge (resident artifact bytes under the LRU budget); the
/// rest only ever increase. Exposed as the `cache` object in
/// `CompileReport` JSON exports and the serve `stats` payload.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Requests answered from memory (including entries faulted in from
    /// disk — those also count a `disk_loads`).
    pub hits: AtomicU64,
    /// Requests that ran the compile pipeline.
    pub misses: AtomicU64,
    /// Requests that blocked on another request's in-flight compilation
    /// and received the shared artifact.
    pub inflight_waits: AtomicU64,
    /// Entries dropped by the byte-budget LRU.
    pub evictions: AtomicU64,
    /// Entries faulted in from the persistent store.
    pub disk_loads: AtomicU64,
    /// Resident artifact bytes currently held in memory (gauge).
    pub bytes: AtomicU64,
}

impl CacheStats {
    /// The counters as an ordered JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("hits", self.hits.load(Ordering::Relaxed))
            .with("misses", self.misses.load(Ordering::Relaxed))
            .with(
                "inflight_waits",
                self.inflight_waits.load(Ordering::Relaxed),
            )
            .with("evictions", self.evictions.load(Ordering::Relaxed))
            .with("disk_loads", self.disk_loads.load(Ordering::Relaxed))
            .with("bytes", self.bytes.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn renamed_program(name: &str) -> Program {
        let mut p = sample_program();
        p.name = name.to_string();
        p
    }

    fn sample_program() -> Program {
        let w = amnesiac_workloads::build_focal("is", amnesiac_workloads::Scale::Test);
        w.program
    }

    #[test]
    fn artifact_key_is_stable_and_content_sensitive() {
        let a = sample_program();
        let opts = CompileOptions::default();
        let k1 = artifact_key(&a, &opts);
        assert_eq!(k1, artifact_key(&a, &opts), "same content, same key");

        let b = renamed_program("renamed");
        assert_ne!(k1, artifact_key(&b, &opts), "name is part of the image");

        let mut mutated = a.clone();
        mutated.data.set(0, mutated.data.get(0).wrapping_add(1));
        assert_ne!(k1, artifact_key(&mutated, &opts), "data mutation must miss");
    }

    #[test]
    fn artifact_key_sees_every_option_field() {
        let p = sample_program();
        let base = CompileOptions::default();
        let k = artifact_key(&p, &base);

        let mut o = base.clone();
        o.energy.probe_nj[0] *= 2.0;
        assert_ne!(k, artifact_key(&p, &o));

        let mut o = base.clone();
        o.slice_set = amnesiac_compiler::SliceSetPolicy::Oracle;
        assert_ne!(k, artifact_key(&p, &o));

        let mut o = base.clone();
        o.static_equivalence = false;
        assert_ne!(k, artifact_key(&p, &o));
    }

    #[test]
    fn keys_of_a_built_in_benchmark_are_pinned() {
        // what the keys hash — the image bytes, the options' Debug text, the
        // schema version — must not move unnoticed, or every existing
        // `--cache-dir` store misses; a deliberate change bumps
        // CACHE_SCHEMA_VERSION and pins the new values here
        let p = sample_program();
        let options = CompileOptions::default();
        let fingerprint = OptionsFingerprint::of(&options);
        assert_eq!(fingerprint.as_str(), format!("{options:?}"));
        assert_eq!(
            artifact_key(&p, &options),
            0xce338bd43b3490f5462a3d6df1ad5475
        );
        assert_eq!(
            artifact_key_for(&p, &fingerprint),
            artifact_key(&p, &options)
        );
        assert_eq!(listing_key(&p), 0xb326a995284621edd0576f1aac47af4b);
        let source = Source::Bench {
            name: "is",
            paper: false,
        };
        assert_eq!(
            source.artifact_key(&fingerprint),
            Some(0x9f8dba68ee428a1f12ac35f2f219458f)
        );
        assert_eq!(
            source.listing_key(),
            Some(0xe22cd7953d3c8a5060ba89420c782cf4)
        );
    }

    #[test]
    fn listing_key_space_is_disjoint_from_artifact_keys() {
        let p = sample_program();
        assert_ne!(
            listing_key(&p),
            artifact_key(&p, &CompileOptions::default()),
            "tag must separate the key spaces"
        );
        assert_eq!(listing_key(&p), listing_key(&p));
    }

    #[test]
    fn stats_json_has_the_contracted_fields() {
        let stats = CacheStats::default();
        stats.hits.store(3, Ordering::Relaxed);
        let json = stats.to_json();
        for field in [
            "hits",
            "misses",
            "inflight_waits",
            "evictions",
            "disk_loads",
            "bytes",
        ] {
            assert!(json.get(field).is_some(), "missing {field}");
        }
        assert_eq!(json.get("hits").and_then(Json::as_f64), Some(3.0));
    }
}
