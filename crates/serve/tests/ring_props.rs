//! Property tests for the consistent-hash placement ring: deterministic
//! placement, bounded key movement on a member leave, and uniformity of
//! the paper's 33-benchmark deployment across a small cluster.

use amnesiac_serve::{Membership, Ring, WorkerId};
use amnesiac_workloads::KERNELS;

/// The 33 `bench:NAME` routing keys of the full Table 2 deployment —
/// exactly what the cluster routes in practice.
fn workload_keys() -> Vec<String> {
    KERNELS
        .iter()
        .map(|k| format!("bench:{}", k.name))
        .collect()
}

#[test]
fn placement_is_deterministic_across_rebuilds_and_instances() {
    let keys = workload_keys();
    assert_eq!(keys.len(), 33);
    let workers: Vec<WorkerId> = vec![0, 1, 2, 3];
    let first = Ring::build(&workers);
    // A second instance (different build order, fresh allocation) and a
    // membership-driven rebuild must place every key identically.
    let second = Ring::build(&[3, 1, 0, 2]);
    let via_membership = {
        let addrs: Vec<std::net::SocketAddr> = (0..4)
            .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap())
            .collect();
        Membership::new(&addrs)
    };
    for key in &keys {
        let owner = first.route(key);
        assert!(owner.is_some(), "{key} unplaced");
        assert_eq!(owner, second.route(key), "{key} differs across instances");
        assert_eq!(
            owner,
            via_membership.route(key).map(|(id, _, _)| id),
            "{key} differs via membership"
        );
    }
}

#[test]
fn a_leave_moves_less_than_two_over_n_of_the_keys() {
    // Structural ring property: survivors' points do not move, so the
    // only keys that move are those the leaver owned (~1/N). Assert the
    // ISSUE's < 2/N bound over a large synthetic key population for
    // every possible leaver.
    let n = 5u64;
    let workers: Vec<WorkerId> = (0..n).collect();
    let before = Ring::build(&workers);
    let keys: Vec<String> = (0..10_000).map(|i| format!("key-{i}")).collect();
    for leaver in 0..n {
        let survivors: Vec<WorkerId> = (0..n).filter(|&w| w != leaver).collect();
        let after = Ring::build(&survivors);
        let mut moved = 0usize;
        for key in &keys {
            let (was, is) = (before.route(key), after.route(key));
            if was != is {
                moved += 1;
                // Only the leaver's keys are allowed to move, and they
                // must land on a survivor.
                assert_eq!(was, Some(leaver), "{key} moved off a survivor");
                assert!(is.is_some_and(|w| w != leaver));
            }
        }
        let bound = (2.0 / n as f64) * keys.len() as f64;
        assert!(
            (moved as f64) < bound,
            "leaver {leaver}: {moved} of {} keys moved (bound {bound})",
            keys.len()
        );
    }
}

#[test]
fn the_33_workload_keys_spread_within_fifteen_percent_of_ideal() {
    let keys = workload_keys();
    let workers: Vec<WorkerId> = vec![0, 1, 2];
    let ring = Ring::build(&workers);
    let mut counts = vec![0usize; workers.len()];
    for key in &keys {
        let owner = ring.route(key).expect("non-empty ring places every key");
        counts[owner as usize] += 1;
    }
    let ideal = keys.len() as f64 / workers.len() as f64;
    let tolerance = 0.15 * keys.len() as f64;
    for (worker, &count) in counts.iter().enumerate() {
        let skew = (count as f64 - ideal).abs();
        assert!(
            skew <= tolerance,
            "worker {worker} owns {count} of {} keys (ideal {ideal:.1}, tolerance {tolerance:.1})",
            keys.len()
        );
    }
}
