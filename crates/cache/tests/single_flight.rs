//! Satellite: single-flight deduplication under real concurrency.
//!
//! Eight threads request the same `bench:mcf` compile through one shared
//! cache, released together by a barrier. The pipeline must run exactly
//! once (counter hook on the compute closure) and every thread must
//! receive the identical artifact.

use amnesiac_cache::{CompileCache, OptionsFingerprint, Source};
use amnesiac_compiler::{compile, CompileError, CompileOptions};
use amnesiac_profile::profile_program;
use amnesiac_sim::CoreConfig;
use amnesiac_workloads::{build_focal, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;

const MCF: Source<'static> = Source::Bench {
    name: "mcf",
    paper: false,
};

#[test]
fn eight_threads_one_compilation() {
    let program = build_focal("mcf", Scale::Test).program;
    let options = CompileOptions::default();
    let fingerprint = OptionsFingerprint::of(&options);
    let (profile, _) = profile_program(&program, &CoreConfig::paper()).expect("profile");

    let cache = CompileCache::in_memory();
    let builds = AtomicUsize::new(0);
    let pipeline_runs = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    let artifacts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    cache
                        .get_or_compile_source(
                            &MCF,
                            &fingerprint,
                            || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                Ok::<_, CompileError>(program.clone())
                            },
                            |program| {
                                pipeline_runs.fetch_add(1, Ordering::SeqCst);
                                compile(program, &profile, &options)
                            },
                        )
                        .expect("cached compile")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    assert_eq!(
        pipeline_runs.load(Ordering::SeqCst),
        1,
        "exactly one pipeline execution for {THREADS} concurrent requests"
    );
    // no alias exists until the first request returns, so any number of
    // threads may build the program; the program-keyed single flight
    // still lets exactly one of them compile it
    let builds = builds.load(Ordering::SeqCst);
    assert!((1..=THREADS).contains(&builds), "{builds} builds");
    let (name, first) = &artifacts[0];
    for (other_name, artifact) in &artifacts[1..] {
        assert!(
            Arc::ptr_eq(first, artifact),
            "all threads must share one artifact allocation"
        );
        assert_eq!(other_name, name);
    }
    assert_eq!(&**name, "mcf");
    // the artifact is the real thing, not a placeholder
    let (expected_program, expected_report) =
        compile(&program, &profile, &options).expect("reference compile");
    assert_eq!(first.program, expected_program);
    assert_eq!(first.report, expected_report);

    let stats = cache.stats();
    assert_eq!(stats.misses.load(Ordering::SeqCst), 1);
    assert_eq!(
        stats.hits.load(Ordering::SeqCst) + stats.inflight_waits.load(Ordering::SeqCst),
        (THREADS - 1) as u64,
        "everyone but the leader either hit or waited in-flight"
    );
}

#[test]
fn warm_restart_serves_from_disk_without_recompiling() {
    // two cache instances over one directory = a process restart
    let dir = std::env::temp_dir().join(format!("amnesiac-cache-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let program = build_focal("mcf", Scale::Test).program;
    let options = CompileOptions::default();
    let fingerprint = OptionsFingerprint::of(&options);
    let (profile, _) = profile_program(&program, &CoreConfig::paper()).expect("profile");

    let cold = CompileCache::persistent(&dir).expect("cold cache");
    let mut cold_runs = 0;
    let (_, cold_artifact) = cold
        .get_or_compile_source(
            &MCF,
            &fingerprint,
            || Ok::<_, CompileError>(program.clone()),
            |program| {
                cold_runs += 1;
                compile(program, &profile, &options)
            },
        )
        .expect("cold compile");
    assert_eq!(cold_runs, 1);
    assert_eq!(cold.stats().disk_loads.load(Ordering::SeqCst), 0);

    let warm = CompileCache::persistent(&dir).expect("warm cache");
    let mut warm_runs = 0;
    // a fresh cache has no alias: the program-keyed path reads the disk
    let (_, warm_artifact) = warm
        .get_or_compile_source(
            &MCF,
            &fingerprint,
            || Ok::<_, CompileError>(program.clone()),
            |program| {
                warm_runs += 1;
                compile(program, &profile, &options)
            },
        )
        .expect("warm load");
    assert_eq!(warm_runs, 0, "warm restart must not recompile");
    assert_eq!(warm.stats().disk_loads.load(Ordering::SeqCst), 1);
    assert_eq!(warm.stats().misses.load(Ordering::SeqCst), 0);
    assert_eq!(warm.stats().hits.load(Ordering::SeqCst), 1);
    assert_eq!(cold_artifact.program, warm_artifact.program);
    assert_eq!(cold_artifact.report, warm_artifact.report);

    let _ = std::fs::remove_dir_all(&dir);
}
