//! The sharded in-memory store: byte-budget LRU with single-flight
//! compilation, lazy disk fault-in, and the source-key alias map.

use crate::disk::DiskStore;
use crate::{
    artifact_key_for, listing_key, CacheStats, CompileArtifact, OptionsFingerprint, Source,
};
use amnesiac_compiler::{CompileError, CompileReport};
use amnesiac_isa::Program;
use amnesiac_mem::FastMap;
use amnesiac_telemetry::Json;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Shard count. Key bits select the shard, so contention on unrelated
/// programs never serialises; 8 matches the serve worker-count default.
const SHARDS: usize = 8;

/// Default total byte budget (split evenly across shards). Artifacts at
/// test scale are a few KB each, so this holds the whole benchmark suite
/// with room to spare while still exercising eviction under synthetic
/// pressure in tests.
pub const DEFAULT_BYTE_BUDGET: usize = 64 << 20;

/// What a shard holds for one key.
enum Slot {
    /// A resident artifact or listing.
    Ready(Entry),
    /// A compilation in progress; waiters block on the flight.
    InFlight(Arc<Flight>),
}

struct Entry {
    value: Value,
    bytes: usize,
    last_used: u64,
}

enum Value {
    Artifact(Arc<CompileArtifact>),
    Listing(Arc<str>),
}

impl Value {
    fn artifact(&self) -> Option<Arc<CompileArtifact>> {
        match self {
            Value::Artifact(artifact) => Some(Arc::clone(artifact)),
            Value::Listing(_) => None,
        }
    }

    fn listing(&self) -> Option<Arc<str>> {
        match self {
            Value::Listing(listing) => Some(Arc::clone(listing)),
            Value::Artifact(_) => None,
        }
    }
}

/// Where a source key resolved when it was last built: the artifact or
/// listing key its request derived from the program, and the program's
/// name (what a payload reports, so a hit needs no program at all).
struct Alias {
    key: u128,
    program: Arc<str>,
}

/// Rendezvous for concurrent requests of one key: the leader compiles,
/// everyone else blocks here and receives the shared result.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

/// Locks `m`, recovering the guard from a poisoned mutex: shard and
/// flight state stay structurally valid across a panicking holder (the
/// flight guard repairs its slot on unwind), so the data is safe to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

enum FlightState {
    Pending,
    /// The leader finished; errors are shared with waiters but the slot is
    /// already gone, so later requests retry the compilation.
    Done(Result<Arc<CompileArtifact>, CompileError>),
    /// The leader panicked. Waiters must retry as a fresh request.
    Poisoned,
}

struct Shard {
    slots: FastMap<u128, Slot>,
    resident_bytes: usize,
    /// Source key → alias, for the source keys this shard owns. Only
    /// benchmarks have source keys, so the map is bounded by the set of
    /// names a build accepts (see [`Source::Bench`]).
    aliases: FastMap<u128, Alias>,
}

/// The content-addressed compile cache (see crate docs for the design).
pub struct CompileCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget.
    shard_budget: usize,
    /// Global LRU clock; ticks on every touch.
    clock: AtomicU64,
    disk: Option<DiskStore>,
    stats: CacheStats,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("shards", &SHARDS)
            .field("shard_budget", &self.shard_budget)
            .field("persistent", &self.disk.is_some())
            .finish()
    }
}

impl CompileCache {
    /// A memory-only cache with the default byte budget.
    #[must_use]
    pub fn in_memory() -> CompileCache {
        CompileCache::with_budget(DEFAULT_BYTE_BUDGET)
    }

    /// A memory-only cache with an explicit total byte budget (split
    /// evenly across shards; a budget smaller than one artifact still
    /// retains the most recent entry per shard).
    #[must_use]
    pub fn with_budget(total_bytes: usize) -> CompileCache {
        CompileCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: FastMap::default(),
                        resident_bytes: 0,
                        aliases: FastMap::default(),
                    })
                })
                .collect(),
            shard_budget: total_bytes / SHARDS,
            clock: AtomicU64::new(0),
            disk: None,
            stats: CacheStats::default(),
        }
    }

    /// A cache backed by a persistent store under `dir` (created if
    /// absent). Artifacts are written through on compilation and faulted
    /// in lazily on the first miss after a restart.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if `dir` cannot be created.
    pub fn persistent(dir: &Path) -> std::io::Result<CompileCache> {
        let mut cache = CompileCache::in_memory();
        cache.disk = Some(DiskStore::open(dir)?);
        Ok(cache)
    }

    /// The cache's counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The counters as a JSON object (`{hits, misses, ...}`).
    #[must_use]
    pub fn stats_json(&self) -> Json {
        self.stats.to_json()
    }

    fn shard_for(&self, key: u128) -> &Mutex<Shard> {
        // the low bits already carry full fold-mix entropy
        &self.shards[(key as usize) % SHARDS]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up (or compiles exactly once, across all concurrent callers)
    /// the artifact for what `source` names, under the options `compute`
    /// compiles with, whose fingerprint is `fingerprint`, and returns the
    /// program's name with the shared artifact. When `source` is a
    /// benchmark aliased to a resident artifact, that is a hit and neither
    /// `build` nor `compute` runs. Otherwise `build` makes the program and
    /// the request takes the program-keyed path ([`artifact_key`], then
    /// memory, disk and a single-flight compile that calls `compute` only
    /// as the flight leader); a benchmark is then aliased to the key that
    /// path derived.
    ///
    /// [`artifact_key`]: crate::artifact_key
    ///
    /// # Errors
    ///
    /// `build`'s error, or `compute`'s [`CompileError`] converted to `E`.
    /// Errors are delivered to every waiter of the failing flight but are
    /// not retained: the next request for the key compiles again.
    pub fn get_or_compile_source<E: From<CompileError>>(
        &self,
        source: &Source<'_>,
        fingerprint: &OptionsFingerprint,
        build: impl FnOnce() -> Result<Program, E>,
        compute: impl FnOnce(&Program) -> Result<(Program, CompileReport), CompileError>,
    ) -> Result<(Arc<str>, Arc<CompileArtifact>), E> {
        let alias = source.artifact_key(fingerprint);
        if let Some(hit) = alias.and_then(|alias| self.resolve(alias, Value::artifact)) {
            return Ok(hit);
        }
        let program = build()?;
        let key = artifact_key_for(&program, fingerprint);
        let artifact = self.get_or_compile_key(key, || compute(&program))?;
        Ok((self.record_alias(alias, key, &program.name), artifact))
    }

    /// The value a source key aliases, when the alias and the entry it
    /// names are both resident and the entry is the kind `pick` accepts;
    /// counts a hit. An in-flight or evicted entry is `None`.
    fn resolve<T>(&self, source: u128, pick: fn(&Value) -> Option<T>) -> Option<(Arc<str>, T)> {
        let (key, program) = {
            let shard = lock(self.shard_for(source));
            let alias = shard.aliases.get(&source)?;
            (alias.key, Arc::clone(&alias.program))
        };
        let mut shard = lock(self.shard_for(key));
        let Some(Slot::Ready(entry)) = shard.slots.get_mut(&key) else {
            return None;
        };
        let value = pick(&entry.value)?;
        entry.last_used = self.tick();
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        Some((program, value))
    }

    /// Aliases `source`, when it has a source key, to `key`, the key its
    /// request derived after building `program`; returns the name as the
    /// alias shares it.
    fn record_alias(&self, source: Option<u128>, key: u128, program: &str) -> Arc<str> {
        let program: Arc<str> = Arc::from(program);
        if let Some(source) = source {
            let alias = Alias {
                key,
                program: Arc::clone(&program),
            };
            lock(self.shard_for(source)).aliases.insert(source, alias);
        }
        program
    }

    /// The program-keyed path under a derived `key`: memory, then disk,
    /// then a single-flight compile.
    fn get_or_compile_key(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<(Program, CompileReport), CompileError>,
    ) -> Result<Arc<CompileArtifact>, CompileError> {
        loop {
            let flight = {
                let mut shard = lock(self.shard_for(key));
                match shard.slots.get_mut(&key) {
                    Some(Slot::Ready(entry)) => {
                        if let Some(artifact) = entry.value.artifact() {
                            entry.last_used = self.tick();
                            self.stats.hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(artifact);
                        }
                        // A listing under an artifact key takes a 128-bit
                        // collision across the tagged key spaces: drop it
                        // and read the request as a miss.
                        self.remove_ready(&mut shard, key);
                        continue;
                    }
                    Some(Slot::InFlight(flight)) => Arc::clone(flight),
                    None => {
                        if let Some(artifact) = self.disk.as_ref().and_then(|d| d.load(key)) {
                            let artifact = Arc::new(artifact);
                            self.stats.hits.fetch_add(1, Ordering::Relaxed);
                            self.stats.disk_loads.fetch_add(1, Ordering::Relaxed);
                            self.insert_ready(
                                &mut shard,
                                key,
                                Value::Artifact(Arc::clone(&artifact)),
                            );
                            return Ok(artifact);
                        }
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            done: Condvar::new(),
                        });
                        shard.slots.insert(key, Slot::InFlight(Arc::clone(&flight)));
                        drop(shard);
                        return self.lead_flight(key, &flight, compute);
                    }
                }
            };
            // waiter path: block until the leader resolves the flight
            self.stats.inflight_waits.fetch_add(1, Ordering::Relaxed);
            let mut state = lock(&flight.state);
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = flight
                            .done
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    FlightState::Done(result) => return result.clone(),
                    FlightState::Poisoned => break, // retry as a fresh request
                }
            }
        }
    }

    /// Runs `compute` as the flight leader, publishes the result to the
    /// shard and to every waiter, and writes through to disk on success.
    fn lead_flight(
        &self,
        key: u128,
        flight: &Arc<Flight>,
        compute: impl FnOnce() -> Result<(Program, CompileReport), CompileError>,
    ) -> Result<Arc<CompileArtifact>, CompileError> {
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // If `compute` panics we must not strand waiters on a Pending
        // flight: the guard poisons it and clears the slot on unwind.
        let mut guard = FlightGuard {
            cache: self,
            key,
            flight: Arc::clone(flight),
            armed: true,
        };
        let result =
            compute().map(|(program, report)| Arc::new(CompileArtifact { program, report }));
        guard.armed = false;
        drop(guard);

        if let (Ok(artifact), Some(disk)) = (&result, self.disk.as_ref()) {
            // best-effort write-through; a full disk must not fail compiles
            let _ = disk.store(key, artifact);
        }
        {
            let mut shard = lock(self.shard_for(key));
            match &result {
                Ok(artifact) => {
                    self.insert_ready(&mut shard, key, Value::Artifact(Arc::clone(artifact)));
                }
                Err(_) => {
                    shard.slots.remove(&key);
                }
            }
        }
        let mut state = lock(&flight.state);
        *state = FlightState::Done(result.clone());
        drop(state);
        flight.done.notify_all();
        result
    }

    /// The cached disassembly listing of what `source` names: a hit through
    /// a benchmark's alias runs neither `build` nor `render`; otherwise
    /// `build` makes the program, the listing is looked up by
    /// [`listing_key`] (rendered with `render` on a miss), and a benchmark
    /// is aliased to that key.
    /// Listings are memory-only text artifacts in the same LRU (no
    /// single-flight: rendering is cheap and idempotent, so a race just
    /// renders twice and keeps one). Returns the program's name with the
    /// listing.
    ///
    /// # Errors
    ///
    /// `build`'s error.
    pub fn get_or_listing_source<E>(
        &self,
        source: &Source<'_>,
        build: impl FnOnce() -> Result<Program, E>,
        render: impl FnOnce(&Program) -> String,
    ) -> Result<(Arc<str>, Arc<str>), E> {
        let alias = source.listing_key();
        if let Some(hit) = alias.and_then(|alias| self.resolve(alias, Value::listing)) {
            return Ok(hit);
        }
        let program = build()?;
        let key = listing_key(&program);
        let listing = self.get_or_listing_key(key, || render(&program));
        Ok((self.record_alias(alias, key, &program.name), listing))
    }

    fn get_or_listing_key(&self, key: u128, render: impl FnOnce() -> String) -> Arc<str> {
        {
            let mut shard = lock(self.shard_for(key));
            if let Some(Slot::Ready(entry)) = shard.slots.get_mut(&key) {
                if let Some(listing) = entry.value.listing() {
                    entry.last_used = self.tick();
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return listing;
                }
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let listing: Arc<str> = Arc::from(render());
        let mut shard = lock(self.shard_for(key));
        match shard.slots.get_mut(&key) {
            // lost the render race: keep the incumbent for sharing
            Some(Slot::Ready(entry)) => entry.value.listing().unwrap_or(listing),
            _ => {
                self.insert_ready(&mut shard, key, Value::Listing(Arc::clone(&listing)));
                listing
            }
        }
    }

    /// Inserts a ready entry and evicts least-recently-used residents
    /// until the shard is back under budget. In-flight slots are never
    /// evicted, and the entry just inserted survives even when it alone
    /// exceeds the budget (evicting it would thrash).
    fn insert_ready(&self, shard: &mut Shard, key: u128, value: Value) {
        let bytes = match &value {
            Value::Artifact(artifact) => artifact.approx_bytes(),
            Value::Listing(listing) => listing.len(),
        };
        let previous = shard.slots.insert(
            key,
            Slot::Ready(Entry {
                value,
                bytes,
                last_used: self.tick(),
            }),
        );
        if let Some(Slot::Ready(old)) = previous {
            shard.resident_bytes -= old.bytes;
            self.stats
                .bytes
                .fetch_sub(old.bytes as u64, Ordering::Relaxed);
        }
        shard.resident_bytes += bytes;
        self.stats.bytes.fetch_add(bytes as u64, Ordering::Relaxed);

        while shard.resident_bytes > self.shard_budget {
            let victim = shard
                .slots
                .iter()
                .filter_map(|(&k, slot)| match slot {
                    Slot::Ready(entry) if k != key => Some((k, entry.last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, last_used)| last_used)
                .map(|(k, _)| k);
            let Some(victim) = victim else { break };
            self.remove_ready(shard, victim);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes the ready entry under `key` and takes its bytes off the
    /// shard's and the gauge's accounts.
    fn remove_ready(&self, shard: &mut Shard, key: u128) {
        if let Some(Slot::Ready(old)) = shard.slots.remove(&key) {
            shard.resident_bytes -= old.bytes;
            self.stats
                .bytes
                .fetch_sub(old.bytes as u64, Ordering::Relaxed);
        }
    }
}

/// Poisons the flight and clears its slot if the leader unwinds before
/// publishing a result, so waiters wake up and retry instead of hanging.
struct FlightGuard<'a> {
    cache: &'a CompileCache,
    key: u128,
    flight: Arc<Flight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Ok(mut shard) = self.cache.shard_for(self.key).lock() {
            if matches!(shard.slots.get(&self.key), Some(Slot::InFlight(_))) {
                shard.slots.remove(&self.key);
            }
        }
        if let Ok(mut state) = self.flight.state.lock() {
            *state = FlightState::Poisoned;
        }
        self.flight.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact_key;
    use amnesiac_compiler::{compile, CompileOptions};
    use amnesiac_isa::encode_program;
    use amnesiac_profile::profile_program;
    use amnesiac_sim::CoreConfig;
    use amnesiac_workloads::{build_focal, Scale};

    fn compiled(name: &str) -> (Program, CompileOptions, Arc<CompileArtifact>) {
        let program = build_focal(name, Scale::Test).program;
        let options = CompileOptions::default();
        let (profile, _) = profile_program(&program, &CoreConfig::paper()).expect("profile");
        let (annotated, report) = compile(&program, &profile, &options).expect("compile");
        (
            program,
            options,
            Arc::new(CompileArtifact {
                program: annotated,
                report,
            }),
        )
    }

    fn compute_from<'a>(
        artifact: &Arc<CompileArtifact>,
        calls: &'a mut usize,
    ) -> impl FnMut() -> Result<(Program, CompileReport), CompileError> + 'a {
        // the artifact is precomputed so tests control exactly how many
        // times the "pipeline" runs
        let artifact = Arc::clone(artifact);
        move || {
            *calls += 1;
            Ok((artifact.program.clone(), artifact.report.clone()))
        }
    }

    #[test]
    fn second_request_hits_without_computing() {
        let cache = CompileCache::in_memory();
        let (program, options, artifact) = compiled("is");
        let mut calls = 0;
        {
            let mut compute = compute_from(&artifact, &mut calls);
            let key = artifact_key(&program, &options);
            let first = cache.get_or_compile_key(key, &mut compute).expect("first");
            let second = cache.get_or_compile_key(key, &mut compute).expect("second");
            assert!(Arc::ptr_eq(&first, &second), "hit must share the artifact");
        }
        assert_eq!(calls, 1, "one compilation for two requests");
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
        assert!(cache.stats().bytes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn compile_errors_are_not_retained() {
        let cache = CompileCache::in_memory();
        let (program, options, artifact) = compiled("is");
        let mut failures = 0;
        let key = artifact_key(&program, &options);
        let err = cache.get_or_compile_key(key, || {
            failures += 1;
            Err(CompileError::Isa(amnesiac_isa::IsaError::UnboundLabel {
                label: 0,
            }))
        });
        assert!(err.is_err());
        let mut calls = 0;
        {
            let mut compute = compute_from(&artifact, &mut calls);
            cache
                .get_or_compile_key(key, &mut compute)
                .expect("retry compiles fresh");
        }
        assert_eq!(failures, 1);
        assert_eq!(calls, 1, "error was not cached");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        // a budget small enough that each shard holds roughly one artifact
        let (_, _, artifact) = compiled("is");
        let one = artifact.approx_bytes();
        let cache = CompileCache::with_budget(one * SHARDS);
        let mut calls = 0;

        // sixteen distinct keys, two per shard, all mapping to the same
        // artifact payload so sizes are equal
        {
            let mut compute = compute_from(&artifact, &mut calls);
            for key in 0..16u128 {
                cache.get_or_compile_key(key, &mut compute).expect("insert");
            }
        }
        assert!(
            cache.stats().evictions.load(Ordering::Relaxed) > 0,
            "16 one-budget artifacts across {SHARDS} shards must evict"
        );
        let resident = cache.stats().bytes.load(Ordering::Relaxed) as usize;
        assert!(
            resident <= one * SHARDS + one,
            "gauge {resident} must track the budget"
        );
    }

    #[test]
    fn listing_cache_shares_and_hits() {
        let cache = CompileCache::in_memory();
        let (program, _, _) = compiled("is");
        let source = Source::Bench {
            name: "is",
            paper: false,
        };
        let mut renders = 0;
        let (name, first) = cache
            .get_or_listing_source(
                &source,
                || Ok::<_, CompileError>(program.clone()),
                |_| {
                    renders += 1;
                    "LISTING".to_string()
                },
            )
            .expect("first");
        let (_, second) = cache
            .get_or_listing_source(
                &source,
                || {
                    Err(CompileError::Isa(amnesiac_isa::IsaError::UnboundLabel {
                        label: 0,
                    }))
                },
                |_| {
                    renders += 1;
                    "NEVER".to_string()
                },
            )
            .expect("a hit builds nothing");
        assert_eq!(renders, 1);
        assert_eq!(&*name, "is");
        assert_eq!(&*first, "LISTING");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 1);

        // a second source that builds the same program has no alias of
        // its own: it hits on the program's listing key
        let (_, third) = cache
            .get_or_listing_source(
                &Source::File,
                || Ok::<_, CompileError>(program.clone()),
                |_| {
                    renders += 1;
                    "NEVER".to_string()
                },
            )
            .expect("third");
        assert_eq!(renders, 1, "the program's listing is resident");
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 2);
    }

    /// Requests `source` through `cache`, counting builds and compiles.
    fn through_source(
        cache: &CompileCache,
        source: &Source<'_>,
        program: &Program,
        artifact: &Arc<CompileArtifact>,
        builds: &mut usize,
        compiles: &mut usize,
    ) -> (Arc<str>, Arc<CompileArtifact>) {
        cache
            .get_or_compile_source(
                source,
                &OptionsFingerprint::of(&CompileOptions::default()),
                || {
                    *builds += 1;
                    Ok::<_, CompileError>(program.clone())
                },
                |_| {
                    *compiles += 1;
                    Ok((artifact.program.clone(), artifact.report.clone()))
                },
            )
            .expect("source lookup")
    }

    #[test]
    fn repeated_source_lookups_build_the_program_once() {
        let cache = CompileCache::in_memory();
        let (program, _, artifact) = compiled("is");
        let source = Source::Bench {
            name: "is",
            paper: false,
        };
        let (mut builds, mut compiles) = (0, 0);
        let (name, first) = through_source(
            &cache,
            &source,
            &program,
            &artifact,
            &mut builds,
            &mut compiles,
        );
        for _ in 0..15 {
            let (again, hit) = through_source(
                &cache,
                &source,
                &program,
                &artifact,
                &mut builds,
                &mut compiles,
            );
            assert!(Arc::ptr_eq(&first, &hit), "a hit shares the artifact");
            assert_eq!(again, name);
        }
        assert_eq!((builds, compiles), (1, 1), "16 lookups, one build");
        assert_eq!(&*name, "is");
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 15);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn an_alias_to_an_evicted_entry_rebuilds_and_serves_equal_bytes() {
        let (program, options, artifact) = compiled("is");
        // one byte per shard: each shard keeps only its latest entry
        let cache = CompileCache::with_budget(SHARDS);
        let source = Source::Bench {
            name: "is",
            paper: false,
        };
        let (mut builds, mut compiles) = (0, 0);
        let (_, first) = through_source(
            &cache,
            &source,
            &program,
            &artifact,
            &mut builds,
            &mut compiles,
        );

        // a different key in the same shard evicts the aliased entry
        let rival = artifact_key(&program, &options).wrapping_add(SHARDS as u128);
        cache
            .get_or_compile_key(rival, || {
                Ok((artifact.program.clone(), artifact.report.clone()))
            })
            .expect("rival");
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 1);

        let misses = cache.stats().misses.load(Ordering::Relaxed);
        let (name, second) = through_source(
            &cache,
            &source,
            &program,
            &artifact,
            &mut builds,
            &mut compiles,
        );
        assert_eq!((builds, compiles), (2, 2), "rebuilt and recompiled");
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), misses + 1);
        assert_eq!(&*name, "is");
        assert_eq!(
            encode_program(&first.program),
            encode_program(&second.program)
        );
        assert_eq!(first.report, second.report);
    }

    #[test]
    fn test_and_paper_scale_never_share_an_alias() {
        let cache = CompileCache::in_memory();
        let (program, options, artifact) = compiled("is");
        let options = OptionsFingerprint::of(&options);
        let test = Source::Bench {
            name: "is",
            paper: false,
        };
        let paper = Source::Bench {
            name: "is",
            paper: true,
        };
        assert_ne!(test.artifact_key(&options), paper.artifact_key(&options));
        assert_ne!(test.listing_key(), paper.listing_key());
        assert_ne!(test.artifact_key(&options), test.listing_key());

        let (mut builds, mut compiles) = (0, 0);
        through_source(
            &cache,
            &test,
            &program,
            &artifact,
            &mut builds,
            &mut compiles,
        );
        // this build stands in for the paper-scale one: it yields the same
        // program, so only the alias decides whether it runs
        through_source(
            &cache,
            &paper,
            &program,
            &artifact,
            &mut builds,
            &mut compiles,
        );
        assert_eq!((builds, compiles), (2, 1), "the paper alias missed");
    }

    #[test]
    fn file_sources_are_keyed_by_the_program_they_decode_to() {
        let cache = CompileCache::in_memory();
        let (program, options, artifact) = compiled("is");
        let options = OptionsFingerprint::of(&options);
        assert_eq!(Source::File.artifact_key(&options), None);
        assert_eq!(Source::File.listing_key(), None);

        let (mut builds, mut compiles) = (0, 0);
        for _ in 0..2 {
            through_source(
                &cache,
                &Source::File,
                &program,
                &artifact,
                &mut builds,
                &mut compiles,
            );
        }
        assert_eq!((builds, compiles), (2, 1), "decoded again, hit by program");

        // a file rewritten in place decodes to another program: a miss
        let mut rewritten = program.clone();
        rewritten.data.set(0, rewritten.data.get(0).wrapping_add(1));
        through_source(
            &cache,
            &Source::File,
            &rewritten,
            &artifact,
            &mut builds,
            &mut compiles,
        );
        assert_eq!((builds, compiles), (3, 2));
        let aliases: usize = cache.shards.iter().map(|s| lock(s).aliases.len()).sum();
        assert_eq!(aliases, 0, "a file source is never aliased");
    }
}
