//! End-to-end failover over replicated object groups, plus the admission
//! gate's reserved control lane: kill a primary mid-stream and prove the
//! client rotates to a backup profile under at-most-once rules, on both
//! the simulated and the real TCP transport.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zc_cdr::ZcOctetSeq;
use zc_giop::Ior;
use zc_orb::{
    AdmissionConfig, AdmissionControl, ObjectAdapterExt, Orb, OrbError, OrbResult, RetryPolicy,
    Servant, ServerHandle, ServerRequest, TelemetryClient,
};
use zc_trace::Telemetry;
use zc_transport::{FaultPlan, SimConfig, SimNetwork};

const REPO_ID: &str = "IDL:zcorba/Replica:1.0";

/// A servant that tags replies with its replica name and counts real
/// executions — the ground truth for at-most-once and routing assertions.
struct Replica {
    name: &'static str,
    bumps: AtomicU32,
    gets: AtomicU32,
}

impl Replica {
    fn new(name: &'static str) -> Arc<Replica> {
        Arc::new(Replica {
            name,
            bumps: AtomicU32::new(0),
            gets: AtomicU32::new(0),
        })
    }
}

impl Servant for Replica {
    fn repo_id(&self) -> &'static str {
        REPO_ID
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            // Non-idempotent: every execution changes state.
            "bump" => {
                self.bumps.fetch_add(1, Ordering::SeqCst);
                req.result(&self.name.to_string())
            }
            // Idempotent read.
            "get" => {
                self.gets.fetch_add(1, Ordering::SeqCst);
                req.result(&self.name.to_string())
            }
            // Bulk deposit sink (exercises the zero-copy path under
            // admission control).
            "sum" => {
                let data: ZcOctetSeq = req.arg()?;
                let sum: u64 = data.iter().map(|&b| b as u64).sum();
                req.result(&sum)
            }
            // Sleeps `ms` then answers — occupies a dispatch slot.
            "nap" => {
                let ms: u32 = req.arg()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                req.result(&ms)
            }
            other => req.bad_operation(other),
        }
    }
}

struct Member {
    replica: Arc<Replica>,
    server: Option<ServerHandle>,
    _orb: Orb,
}

/// Two replicas on one sim network plus a merged group IOR.
fn sim_group(retry: RetryPolicy) -> (SimNetwork, Vec<Member>, Ior, Orb) {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let mut members = Vec::new();
    let mut iors = Vec::new();
    for name in ["primary", "backup"] {
        let replica = Replica::new(name);
        let orb = Orb::builder().sim(net.clone()).build();
        orb.adapter()
            .register("replica", Arc::clone(&replica) as Arc<dyn Servant>);
        let server = orb.serve(0).unwrap();
        iors.push(server.ior_for("replica", REPO_ID).unwrap());
        members.push(Member {
            replica,
            server: Some(server),
            _orb: orb,
        });
    }
    let group = Ior::merge_group(&iors).unwrap();
    let client = Orb::builder().sim(net.clone()).retry(retry).build();
    (net, members, group, client)
}

fn call_get(obj: &zc_orb::ObjectRef) -> OrbResult<String> {
    obj.request("get").idempotent().invoke()?.result()
}

fn call_bump(obj: &zc_orb::ObjectRef) -> OrbResult<String> {
    obj.request("bump").invoke()?.result()
}

#[test]
fn group_ior_binds_primary_first() {
    let (_net, members, group, client) = sim_group(RetryPolicy::default());
    let obj = client.resolve(&group).unwrap();
    assert_eq!(call_get(&obj).unwrap(), "primary");
    assert_eq!(members[0].replica.gets.load(Ordering::SeqCst), 1);
    assert_eq!(members[1].replica.gets.load(Ordering::SeqCst), 0);
}

#[test]
fn kill_primary_mid_stream_fails_over_idempotent_sim() {
    let (net, mut members, group, client) = sim_group(RetryPolicy::default());
    let obj = client.resolve(&group).unwrap();
    assert_eq!(call_get(&obj).unwrap(), "primary");

    // Kill the primary mid-stream: stop its acceptor (reconnects will be
    // refused) and sever the established connection at its next frame.
    members[0].server.take().unwrap().shutdown();
    net.inject_faults(FaultPlan::cut_after(0));

    // One logical call: the send fails, recovery reconnects, the primary
    // refuses, and rotation lands the retry on the backup.
    assert_eq!(call_get(&obj).unwrap(), "backup");
    // Routing is sticky once failed over: no more primary attempts.
    assert_eq!(call_get(&obj).unwrap(), "backup");
    assert!(members[1].replica.gets.load(Ordering::SeqCst) >= 2);
}

#[test]
fn non_idempotent_ops_never_double_execute_across_failover() {
    let (net, mut members, group, client) = sim_group(RetryPolicy::default());
    let obj = client.resolve(&group).unwrap();

    let mut successes = 0u32;
    let mut failures = 0u32;
    for round in 0..6 {
        if round == 2 {
            members[0].server.take().unwrap().shutdown();
            net.inject_faults(FaultPlan::cut_after(0));
        }
        match call_bump(&obj) {
            Ok(_) => successes += 1,
            Err(_) => failures += 1,
        }
    }
    let executed = members[0].replica.bumps.load(Ordering::SeqCst)
        + members[1].replica.bumps.load(Ordering::SeqCst);
    // At-most-once: every success executed exactly once, every failure at
    // most once — the cut send provably never dispatched, so rotation is
    // allowed even for non-idempotent ops, and nothing runs twice.
    assert_eq!(successes + failures, 6);
    assert!(
        executed >= successes && executed <= successes + failures,
        "executed {executed}, successes {successes}, failures {failures}"
    );
    assert!(
        members[1].replica.bumps.load(Ordering::SeqCst) > 0,
        "failover never reached the backup"
    );
}

#[test]
fn breaker_open_primary_fails_over_within_one_attempt() {
    let retry = RetryPolicy {
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(60),
        ..RetryPolicy::default()
    };
    let (net, mut members, group, client) = sim_group(retry);
    let obj = client.resolve(&group).unwrap();
    assert_eq!(call_get(&obj).unwrap(), "primary");

    members[0].server.take().unwrap().shutdown();
    net.inject_faults(FaultPlan::cut_after(0));
    // This call records the primary failure; threshold 1 opens its breaker.
    assert_eq!(call_get(&obj).unwrap(), "backup");

    // A freshly resolved reference must skip the open-breaker primary at
    // bind time and answer from the backup on the first attempt.
    let fresh = client.resolve(&group).unwrap();
    assert_eq!(call_get(&fresh).unwrap(), "backup");
}

#[test]
fn sticky_primary_reprobe_fails_back_when_primary_returns() {
    // Disable fail-back first: routing must stay on the backup.
    let no_reprobe = RetryPolicy {
        reprobe_interval: 0,
        ..RetryPolicy::default()
    };
    let (net, mut members, group, client) = sim_group(no_reprobe);
    let obj = client.resolve(&group).unwrap();
    assert_eq!(call_get(&obj).unwrap(), "primary");
    members[0].server.take().unwrap().shutdown();
    net.inject_faults(FaultPlan::cut_after(0));
    for _ in 0..8 {
        assert_eq!(call_get(&obj).unwrap(), "backup");
    }

    // Now with fail-back after 3 backup successes: once the primary is
    // listening again, the proxy re-probes and routing returns to it.
    let reprobe = RetryPolicy {
        reprobe_interval: 3,
        ..RetryPolicy::default()
    };
    let (net, mut members, group, client) = sim_group(reprobe);
    let obj = client.resolve(&group).unwrap();
    assert_eq!(call_get(&obj).unwrap(), "primary");
    let primary_orb = members[0]._orb.clone();
    let primary_port = members[0].server.as_ref().unwrap().port();
    members[0].server.take().unwrap().shutdown();
    net.inject_faults(FaultPlan::cut_after(0));
    assert_eq!(call_get(&obj).unwrap(), "backup");

    // Primary comes back on its old port.
    let revived = primary_orb.serve(primary_port).unwrap();
    let mut answers = Vec::new();
    for _ in 0..8 {
        answers.push(call_get(&obj).unwrap());
    }
    assert!(
        answers.iter().any(|a| a == "primary"),
        "no fail-back to the revived primary: {answers:?}"
    );
    revived.shutdown();
}

#[test]
fn kill_primary_mid_stream_fails_over_tcp() {
    let mut members = Vec::new();
    let mut iors = Vec::new();
    for name in ["primary", "backup"] {
        let replica = Replica::new(name);
        let orb = Orb::builder().tcp().build();
        orb.adapter()
            .register("replica", Arc::clone(&replica) as Arc<dyn Servant>);
        let server = orb.serve(0).unwrap();
        iors.push(server.ior_for("replica", REPO_ID).unwrap());
        members.push(Member {
            replica,
            server: Some(server),
            _orb: orb,
        });
    }
    let group = Ior::merge_group(&iors).unwrap();
    let client = Orb::builder().tcp().build();
    let obj = client.resolve(&group).unwrap();
    assert_eq!(call_get(&obj).unwrap(), "primary");

    // Kill the primary mid-stream: its acceptor stops, and the in-flight
    // connection is poisoned by a timed-out call (the servant stalls past
    // the deadline, the conn is quarantined — real TCP has no fault
    // injection, so the stall plays the role of the dead peer).
    members[0].server.take().unwrap().shutdown();
    let stalled = obj
        .request("nap")
        .arg(&5_000u32)
        .unwrap()
        .idempotent()
        .invoke_timeout(Duration::from_millis(50));
    assert!(stalled.is_err(), "stalled call must time out");

    // The next idempotent call reconnects, the primary refuses, and
    // rotation answers from the backup — within one retry budget.
    assert_eq!(call_get(&obj).unwrap(), "backup");
    assert_eq!(members[1].replica.gets.load(Ordering::SeqCst), 1);
}

#[test]
fn admission_sheds_bulk_while_reserved_lane_answers() {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let telemetry = Telemetry::with_capacity(1024);
    // Two dispatch slots, one reserved for the control plane: a single
    // long-running data call saturates the data budget.
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .admission(AdmissionConfig::bounded(2, 256 << 10))
        .build();
    let replica = Replica::new("only");
    server_orb
        .adapter()
        .register("replica", Arc::clone(&replica) as Arc<dyn Servant>);
    let server = server_orb.serve(0).unwrap();
    let ior = server.ior_for("replica", REPO_ID).unwrap();
    let client = Orb::builder()
        .sim(net.clone())
        .retry(RetryPolicy::none())
        .build();

    // Occupy the only data slot with a nap on a private connection.
    let napper = client.resolve_private(&ior).unwrap();
    let nap = std::thread::spawn(move || {
        napper
            .request("nap")
            .arg(&400u32)
            .unwrap()
            .invoke_timeout(Duration::from_secs(5))
            .and_then(|r| r.result::<u32>())
    });
    std::thread::sleep(Duration::from_millis(80));

    // A bulk deposit on a second connection must be shed, TRANSIENT with
    // completed = NO, before any deposit pages are pinned.
    let bulk = client.resolve_private(&ior).unwrap();
    let payload = ZcOctetSeq::with_length(64 << 10);
    let shed = bulk
        .request("sum")
        .arg(&payload)
        .unwrap()
        .invoke()
        .map(|_| ());
    match shed {
        Err(OrbError::System(ex)) => {
            assert!(zc_orb::admission::is_shed(&ex), "wrong exception: {ex:?}");
        }
        other => panic!("expected a shed, got {other:?}"),
    }

    // The reserved lane still answers while the data plane sheds.
    let tc = TelemetryClient::connect(&client, server.host(), server.port()).unwrap();
    assert_eq!(tc.ping().unwrap(), 1);

    // The napper finishes untouched; afterwards the slot frees and bulk
    // calls are admitted again.
    assert_eq!(nap.join().unwrap().unwrap(), 400);
    let sum: u64 = bulk
        .request("sum")
        .arg(&payload)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(sum, payload.iter().map(|&b| b as u64).sum::<u64>());
    assert!(telemetry.metrics().sheds.get() >= 1);
    server.shutdown();
}

/// One event is one booking: after a run that was shed, failed over and
/// retried, each signal's registry counter, rate-window lifetime total and
/// flight-recorder event count agree — they all moved in the same `emit`.
#[test]
fn counter_window_and_ring_agree_after_shed_failover_and_retry() {
    use zc_trace::EventKind;
    let net = SimNetwork::new(SimConfig::zero_copy());
    let telemetry = Telemetry::with_capacity(4096);
    let mut servers = Vec::new();
    let mut iors = Vec::new();
    for name in ["primary", "backup"] {
        // Two dispatch slots, one reserved for the control plane.
        let orb = Orb::builder()
            .sim(net.clone())
            .telemetry(Arc::clone(&telemetry))
            .admission(AdmissionConfig::bounded(2, 256 << 10))
            .build();
        orb.adapter()
            .register("replica", Replica::new(name) as Arc<dyn Servant>);
        let server = orb.serve(0).unwrap();
        iors.push(server.ior_for("replica", REPO_ID).unwrap());
        servers.push((orb, server));
    }
    let group = Ior::merge_group(&iors).unwrap();
    let client = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    let obj = client.resolve(&group).unwrap();
    assert_eq!(call_get(&obj).unwrap(), "primary");

    // Shed, then failed over: a nap holds the primary's only data slot, so
    // the primary sheds the next call and the reference rotates.
    let napper = client.resolve_private(&group).unwrap();
    let nap = std::thread::spawn(move || {
        napper
            .request("nap")
            .arg(&400u32)
            .unwrap()
            .invoke_timeout(Duration::from_secs(5))
            .and_then(|r| r.result::<u32>())
    });
    std::thread::sleep(Duration::from_millis(80));
    assert_eq!(call_get(&obj).unwrap(), "backup");
    assert_eq!(nap.join().unwrap().unwrap(), 400);

    // Retried: the wire to the backup is cut under the next send, and the
    // dial back to the same replica succeeds.
    net.inject_faults(FaultPlan::cut_after(0).on(zc_transport::FaultSide::Client));
    assert_eq!(call_get(&obj).unwrap(), "backup");

    let counters = telemetry.metrics().snapshot();
    let totals: std::collections::BTreeMap<_, _> = telemetry.windows().totals().collect();
    let events = telemetry.recorder().events();
    assert_eq!(telemetry.recorder().dropped(), 0);
    let ring =
        |kinds: &[EventKind]| events.iter().filter(|e| kinds.contains(&e.kind)).count() as u64;
    for (signal, counter, window, in_ring) in [
        (
            "requests received",
            counters.requests_received,
            totals["req_rx"],
            ring(&[EventKind::RequestReceived]),
        ),
        (
            "sheds",
            counters.sheds,
            totals["shed"],
            ring(&[EventKind::Shed, EventKind::Brownout]),
        ),
        (
            "brownout sheds",
            counters.brownout_sheds,
            totals["brownout"],
            ring(&[EventKind::Brownout]),
        ),
        (
            "failovers",
            counters.failovers,
            totals["failover"],
            ring(&[EventKind::Failover]),
        ),
        (
            "retries",
            counters.retries,
            totals["retries"],
            ring(&[EventKind::Retry]),
        ),
    ] {
        assert_eq!((counter, window), (in_ring, in_ring), "{signal}");
    }
    assert!(counters.sheds >= 1 && counters.failovers >= 1 && counters.retries >= 1);
    for (_, server) in servers {
        server.shutdown();
    }
}

/// Back-to-back `_ZcTelemetry` pings against a one-slot control reserve:
/// each ping's slot must be free again by the time its reply is on the
/// wire, so a poller that never sleeps is never shed by its own previous
/// request.
#[test]
fn back_to_back_pings_never_shed_on_a_one_slot_reserve() {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let telemetry = Telemetry::with_capacity(1024);
    let config = AdmissionConfig::bounded(2, 256 << 10);
    // One slot each for the data plane and the control-plane reserve.
    let gate = AdmissionControl::new(config);
    let _data = gate.admit(false, 0, false).unwrap();
    assert!(gate.admit(false, 0, false).is_err());
    assert!(gate.admit(true, 0, false).is_ok());
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .admission(config)
        .build();
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder()
        .sim(net.clone())
        .retry(RetryPolicy::none())
        .build();
    let tc = TelemetryClient::connect(&client, server.host(), server.port()).unwrap();
    for i in 0..10_000 {
        assert_eq!(tc.ping().unwrap(), 1, "ping {i} failed");
    }
    assert_eq!(telemetry.metrics().sheds.get(), 0);
    server.shutdown();
}
