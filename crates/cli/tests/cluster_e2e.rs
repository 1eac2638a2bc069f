//! End-to-end tests for the cluster topology: the real router over real
//! `amnesiac serve` worker *processes* (spawned from the built binary),
//! not in-process toy servers. The kill test is the exactly-once proof:
//! a worker dies with a pipelined batch pinned to it and every request
//! still gets exactly one response.

mod common;

use std::process::Command;
use std::time::{Duration, Instant};

use amnesiac_serve::{Client, ClientConfig, Request, Router, RouterConfig};
use amnesiac_telemetry::Json;
use common::{mixed_batch, spawn_listening, Listening};

fn spawn_worker() -> Listening {
    spawn_listening(&["serve", "--port", "0"])
}

fn connector() -> ClientConfig {
    ClientConfig::new()
        .attempts(5)
        .backoff(Duration::from_millis(10), Duration::from_millis(100))
        .read_timeout(Some(Duration::from_secs(120)))
}

/// A v2 request pinned to `key`.
fn routed(verb: &str, target: &str, id: &str, key: &str) -> Request {
    Request::new(verb)
        .with_target(target)
        .with_id(id)
        .with_proto(2)
        .with_routing_key(key)
}

/// Sends one routed request and returns the fleet index of the worker
/// it landed on: worker ids follow the order the addresses were passed
/// in, so hop `w<i>` is `fleet[i]`.
fn placed_on(client: &mut Client, key: &str) -> usize {
    let response = client
        .call(&routed("disasm", "bench:cg", "probe", key))
        .unwrap();
    assert!(response.is_ok(), "`{key}`: {:?}", response.error());
    let meta = response.meta.expect("v2 response carries meta");
    meta.hops
        .iter()
        .find_map(|(node, _)| node.strip_prefix('w')?.parse().ok())
        .unwrap_or_else(|| panic!("no worker hop for `{key}`: {:?}", meta.hops))
}

fn get(json: &Json, path: &str) -> Json {
    json.get_path(path)
        .cloned()
        .unwrap_or_else(|| panic!("no `{path}` in {}", json.compact()))
}

#[test]
fn router_speaks_v1_and_v2_over_real_worker_processes() {
    let fleet = [spawn_worker(), spawn_worker()];
    let router = Router::start(RouterConfig::default(), &[fleet[0].addr, fleet[1].addr]).unwrap();
    let mut client = connector().connect(router.addr()).unwrap();

    // v1 parity: the mixed batch through the router answers the typed
    // core's payloads, and no envelope grows a meta block.
    let cases = mixed_batch();
    let requests: Vec<Request> = cases
        .iter()
        .enumerate()
        .map(|(i, (request, _))| request.clone().with_id(format!("v1-{i}")))
        .collect();
    let responses = client.batch(&requests).unwrap();
    for ((request, response), (_, expected)) in requests.iter().zip(&responses).zip(&cases) {
        assert_eq!(response.id, request.id);
        assert!(
            response.meta.is_none(),
            "v1 `{}` grew a meta block",
            request.verb
        );
        assert_eq!(response.payload(), Some(expected), "v1 `{}`", request.verb);
    }

    // A v2 request gets the routing envelope: proto and key echo and
    // per-hop timings through the router to a worker.
    let v2 = client
        .call(&routed("disasm", "bench:cg", "v2", "some-key"))
        .unwrap();
    assert!(v2.is_ok(), "v2 disasm failed: {:?}", v2.error());
    let meta = v2.meta.as_ref().expect("v2 response carries meta");
    assert_eq!(meta.proto, 2);
    assert_eq!(meta.routing_key, "some-key");
    assert_eq!(meta.rerouted, 0);
    assert_eq!(meta.hops.first().map(|(n, _)| n.as_str()), Some("router"));
    assert!(meta.hops.iter().any(|(n, _)| n.starts_with('w')));
    assert!(
        meta.hops.iter().all(|(_, ms)| *ms >= 0.0),
        "{:?}",
        meta.hops
    );

    // The same key lands on the same worker every time.
    let home = placed_on(&mut client, "pin-me");
    for _ in 0..2 {
        assert_eq!(placed_on(&mut client, "pin-me"), home, "placement moved");
    }

    // The router's stats sweep aggregates both workers: one disasm from
    // the v1 batch, the v2 one and three placements.
    let stats = client.call(&Request::new("stats")).unwrap().result.unwrap();
    assert_eq!(
        get(&stats, "role"),
        Json::from("router"),
        "{}",
        stats.compact()
    );
    assert_eq!(get(&stats, "workers_total"), Json::from(2u64));
    assert_eq!(get(&stats, "workers_up"), Json::from(2u64));
    assert_eq!(get(&stats, "generation"), Json::from(1u64));
    assert_eq!(get(&stats, "workers").as_arr().map(<[Json]>::len), Some(2));
    assert_eq!(get(&stats, "verbs.disasm.requests"), Json::from(5.0));

    // A wire shutdown acknowledges the drain.
    let bye = client.call(&Request::new("shutdown")).unwrap();
    assert_eq!(
        bye.payload().and_then(|p| p.get("draining")),
        Some(&Json::Bool(true))
    );
    router.stop();
}

#[test]
fn killing_a_worker_mid_batch_loses_and_duplicates_nothing() {
    let mut fleet = [spawn_worker(), spawn_worker(), spawn_worker()];
    let addrs: Vec<_> = fleet.iter().map(|worker| worker.addr).collect();
    // Probe failures never mark a worker down here: the victim is frozen
    // before it dies, and must be lost on its lanes, after the kill.
    let config = RouterConfig {
        probe_failure_threshold: u32::MAX,
        ..RouterConfig::default()
    };
    let router = Router::start(config, &addrs).unwrap();
    let mut client = connector().connect(router.addr()).unwrap();

    // While every worker is live: the victim owns the pinned key, and the
    // spread keys land on the other workers.
    let victim = placed_on(&mut client, "victim-pin");
    let spread: Vec<String> = (0..)
        .map(|i| format!("spread-{i}"))
        .filter(|key| placed_on(&mut client, key) != victim)
        .take(3)
        .collect();

    // Freeze the victim. From here on it answers nothing, so on any host
    // every pinned request is in flight or not yet placed when it dies.
    let frozen = Command::new("kill")
        .args(["-STOP", &fleet[victim].child.id().to_string()])
        .status()
        .unwrap();
    assert!(frozen.success(), "kill -STOP failed: {frozen}");

    // A spread request first (the one answer that can arrive while the
    // victim is frozen), six compiles pinned to the victim, then the
    // other spread requests.
    let targets = ["mcf", "sx", "ca", "fs", "fe", "rt"];
    let mut requests = vec![routed("disasm", "bench:cg", "m0", &spread[0])];
    for (i, name) in targets.iter().enumerate() {
        let id = format!("p{i}");
        requests.push(routed(
            "compile",
            &format!("bench:{name}"),
            &id,
            "victim-pin",
        ));
    }
    for (i, key) in spread.iter().enumerate().skip(1) {
        requests.push(routed("disasm", "bench:cg", &format!("m{i}"), key));
    }
    let generation_before = router.generation();
    for request in &requests {
        client.send(request).unwrap();
    }
    let first = client.recv().unwrap();
    assert_eq!(first.id, requests[0].id);
    fleet[victim].child.kill().unwrap();

    // Exactly one response per request, in order, all answered ok, and
    // the rerouting is visible in the metadata.
    let mut responses = vec![first];
    for _ in 1..requests.len() {
        responses.push(client.recv().expect("a response was lost"));
    }
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(response.id, request.id, "response order broke");
        assert!(
            response.is_ok(),
            "`{}` answered {:?}",
            request.id.compact(),
            response.error()
        );
    }
    let rerouted: u64 = responses
        .iter()
        .filter_map(|r| r.meta.as_ref())
        .map(|m| m.rerouted)
        .sum();
    assert!(rerouted >= 1, "no response recorded the reroute");

    // No duplicates: the next answer on the wire is the next request's.
    // That request reads the membership view: it advanced past the loss,
    // with the victim down, and the pinned key now lives elsewhere.
    let view = client
        .call(&Request::new("cluster").with_id("after-kill"))
        .unwrap();
    assert_eq!(
        view.id,
        Json::from("after-kill"),
        "a duplicate response arrived"
    );
    assert!(router.generation() > generation_before);
    let view = view.result.unwrap();
    assert_eq!(
        get(&view, "workers").as_arr().unwrap()[victim].get("state"),
        Some(&Json::from("down")),
        "{}",
        view.compact()
    );
    assert_ne!(placed_on(&mut client, "victim-pin"), victim);

    // Drain a survivor: it leaves the ring, so placement falls to the
    // last live worker.
    let survivor = (0..fleet.len()).find(|&i| i != victim).unwrap();
    let drained = client
        .call(&Request::new("drain").with_target(format!("w{survivor}")))
        .unwrap()
        .result
        .unwrap();
    assert_eq!(
        get(&drained, "draining_worker"),
        Json::from(survivor as u64)
    );
    assert_eq!(get(&drained, "changed"), Json::Bool(true));
    let last = placed_on(&mut client, "after-the-drain");
    assert!(last != victim && last != survivor, "placed on w{last}");

    assert!(get(&router.stats_json(), "rerouted").as_f64() >= Some(1.0));
    router.stop();
}

#[test]
fn the_cluster_verb_boots_serves_and_drains_on_shutdown() {
    // The full `amnesiac cluster` process: it self-spawns its workers,
    // reports them all up, serves requests, and exits zero once a
    // shutdown drains the fleet.
    let mut cluster = spawn_listening(&["cluster", "--workers", "2", "--port", "0"]);
    let mut client = connector().connect(cluster.addr).unwrap();
    let view = client
        .call(&Request::new("cluster"))
        .unwrap()
        .result
        .unwrap();
    assert_eq!(get(&view, "up"), Json::from(2u64), "{}", view.compact());
    let states: Vec<Json> = get(&view, "workers")
        .as_arr()
        .unwrap()
        .iter()
        .map(|worker| get(worker, "state"))
        .collect();
    assert_eq!(states, [Json::from("up"), Json::from("up")]);

    let response = client
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_id("via-cluster"),
        )
        .unwrap();
    assert!(
        response.is_ok(),
        "compile via cluster: {:?}",
        response.error()
    );
    let bye = client
        .call(&Request::new("shutdown").with_id("bye"))
        .unwrap();
    assert!(bye.is_ok());
    drop(client);

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match cluster.child.try_wait().expect("wait on cluster") {
            Some(status) => break status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => panic!("cluster did not exit after shutdown"),
        }
    };
    assert!(status.success(), "cluster exited with {status}");
}
