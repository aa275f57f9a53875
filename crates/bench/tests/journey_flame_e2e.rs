//! End-to-end journey reconstruction: kill a primary mid-stream, spool the
//! shared flight recorder to disk, and prove `zc-top --spool`'s analysis
//! reconstructs the whole causal chain offline — the initial attempt
//! linked to the failover attempt under one journey id, with correct cause
//! tags and a critical path bounded by the measured wall clock. Run on both
//! the simulated and the real TCP transport; the built `zc-top --spool`
//! prints exactly the analysis' renderings.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zc_bench::flame::{analyze_spool_dir, render_json, render_text, Journey};
use zc_giop::Ior;
use zc_orb::{ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest};
use zc_trace::{
    pack_attempt, pack_stage, EventKind, JourneyCause, SpoolConfig, SpoolWriter, Stage, Telemetry,
};
use zc_transport::{FaultPlan, SimConfig, SimNetwork};

const REPO_ID: &str = "IDL:zcorba/bench/JourneyReplica:1.0";

/// Minimal replica: an idempotent echo plus a stall for poisoning TCP
/// connections to a dead peer.
struct Replica;

impl Servant for Replica {
    fn repo_id(&self) -> &'static str {
        REPO_ID
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "ping" => {
                let n: u32 = req.arg()?;
                req.result(&n)
            }
            "nap" => {
                let ms: u32 = req.arg()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                req.result(&ms)
            }
            other => req.bad_operation(other),
        }
    }
}

fn temp_spool_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("zcorba-flame-e2e-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ping(obj: &zc_orb::ObjectRef, n: u32) -> OrbResult<u32> {
    obj.request("ping").arg(&n)?.idempotent().invoke()?.result()
}

/// The journey the scenario must have produced: complete (ordinal chain
/// contiguous from an `initial` opener) and recovered through a `failover`
/// attempt.
fn assert_failover_journey(journeys: &[Journey], wall_clock: Duration) -> u64 {
    let recovered: Vec<&Journey> = journeys.iter().filter(|j| j.is_recovered()).collect();
    assert!(
        !recovered.is_empty(),
        "no recovered journey reconstructed from the spool (journeys: {})",
        journeys.len()
    );
    let j = recovered[0];
    assert!(
        j.attempts.len() >= 2,
        "failover journey needs >= 2 attempts"
    );
    assert_eq!(
        j.attempts[0].cause,
        JourneyCause::Initial,
        "journey must open with an initial attempt"
    );
    assert_eq!(j.attempts[0].ordinal, 0);
    assert!(
        j.attempts.iter().any(|a| a.cause == JourneyCause::Failover),
        "no attempt carries the failover cause: {:?}",
        j.attempts.iter().map(|a| a.cause).collect::<Vec<_>>()
    );
    // Causal link: every attempt shares the journey id, and ordinals are
    // the causal order.
    for (i, a) in j.attempts.iter().enumerate() {
        assert_eq!(a.ordinal, i as u32);
    }
    // The reconstructed critical path can never exceed what really
    // elapsed: stage legs are disjoint sub-intervals of the wall clock.
    assert!(
        j.critical_path_ns() <= wall_clock.as_nanos() as u64,
        "critical path {} ns exceeds wall clock {} ns",
        j.critical_path_ns(),
        wall_clock.as_nanos()
    );
    // Untouched journeys stay single-attempt: the pre-kill pings.
    assert!(journeys
        .iter()
        .any(|o| o.attempts.len() == 1 && o.is_complete()));
    j.journey_id
}

#[test]
fn killed_primary_journey_reconstructs_from_spool_sim() {
    let dir = temp_spool_dir("sim");
    let telemetry = Telemetry::with_capacity(4096);
    let net = SimNetwork::new(SimConfig::zero_copy());
    let mut servers = Vec::new();
    let mut orbs = Vec::new();
    let mut iors = Vec::new();
    for _ in 0..2 {
        let orb = Orb::builder()
            .sim(net.clone())
            .telemetry(Arc::clone(&telemetry))
            .build();
        orb.adapter().register("replica", Arc::new(Replica));
        let server = orb.serve(0).unwrap();
        iors.push(server.ior_for("replica", REPO_ID).unwrap());
        servers.push(server);
        orbs.push(orb);
    }
    let group = Ior::merge_group(&iors).unwrap();
    // The client ORB owns the spool: its drop (end of scope) runs the
    // final drain, so the segments are complete before analysis.
    let client = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .trace_spool(SpoolConfig::new(&dir))
        .build();
    let obj = client.resolve(&group).unwrap();

    let started = Instant::now();
    for n in 0..3 {
        assert_eq!(ping(&obj, n).unwrap(), n);
    }
    // Kill the primary mid-stream: acceptor gone, live connection severed
    // at its next frame. The following idempotent call's initial attempt
    // dies on the cut, recovery reconnects, the primary refuses, rotation
    // retries on the backup — one journey, two attempts, cause failover.
    servers.remove(0).shutdown();
    net.inject_faults(FaultPlan::cut_after(0));
    assert_eq!(ping(&obj, 99).unwrap(), 99);
    let wall_clock = started.elapsed();

    for s in servers {
        s.shutdown();
    }
    drop(obj);
    drop(client); // final spool drain
    drop(orbs);

    let analysis = analyze_spool_dir(&dir).unwrap();
    assert_eq!(analysis.stats.unreadable_segments, 0);
    assert_eq!(analysis.stats.skipped_events, 0);
    assert_failover_journey(&analysis.journeys, wall_clock);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_primary_journey_reconstructs_from_spool_tcp() {
    let dir = temp_spool_dir("tcp");
    let telemetry = Telemetry::with_capacity(4096);
    let mut servers = Vec::new();
    let mut orbs = Vec::new();
    let mut iors = Vec::new();
    for _ in 0..2 {
        let orb = Orb::builder()
            .tcp()
            .telemetry(Arc::clone(&telemetry))
            .build();
        orb.adapter().register("replica", Arc::new(Replica));
        let server = orb.serve(0).unwrap();
        iors.push(server.ior_for("replica", REPO_ID).unwrap());
        servers.push(server);
        orbs.push(orb);
    }
    let group = Ior::merge_group(&iors).unwrap();
    let client = Orb::builder()
        .tcp()
        .telemetry(Arc::clone(&telemetry))
        .trace_spool(SpoolConfig::new(&dir))
        .build();
    let obj = client.resolve(&group).unwrap();

    let started = Instant::now();
    for n in 0..3 {
        assert_eq!(ping(&obj, n).unwrap(), n);
    }
    // Real TCP has no fault injection: stop the primary's acceptor, then
    // poison the still-open connection with a timed-out stall. The next
    // idempotent ping finds the poisoned conn (attempt 0, recorded with no
    // wire trace), reconnects, is refused, and fails over to the backup.
    servers.remove(0).shutdown();
    let stalled = obj
        .request("nap")
        .arg(&5_000u32)
        .unwrap()
        .idempotent()
        .invoke_timeout(Duration::from_millis(50));
    assert!(stalled.is_err(), "stalled call must time out");
    assert_eq!(ping(&obj, 99).unwrap(), 99);
    let wall_clock = started.elapsed();

    for s in servers {
        s.shutdown();
    }
    drop(obj);
    drop(client); // final spool drain
    drop(orbs);

    let analysis = analyze_spool_dir(&dir).unwrap();
    assert_eq!(analysis.stats.unreadable_segments, 0);
    assert_failover_journey(&analysis.journeys, wall_clock);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zc_top_spool_prints_the_analysis_renderings() {
    // The scenario's shape without the servers: a journey that failed over
    // from its initial attempt, plus an untouched one-attempt journey.
    let telemetry = Telemetry::with_capacity(64);
    let attempt = |trace, cause, ordinal, journey| {
        let payload = pack_attempt(cause, ordinal, journey);
        telemetry.emit(EventKind::Attempt, 1, trace, payload);
    };
    let stage =
        |trace, stage, ns| telemetry.emit(EventKind::Stage, 1, trace, pack_stage(stage, ns));
    attempt(101, JourneyCause::Initial, 0, 9);
    stage(101, Stage::ClientMarshal, 1_500);
    stage(101, Stage::Wire, 40_000);
    attempt(102, JourneyCause::Failover, 1, 9);
    stage(102, Stage::ClientMarshal, 1_200);
    stage(102, Stage::ServerDispatch, 9_000);
    attempt(201, JourneyCause::Initial, 0, 10);
    stage(201, Stage::Wire, 5_000);
    let dir = temp_spool_dir("zc-top");
    let spool = SpoolWriter::spawn(Arc::clone(&telemetry), SpoolConfig::new(&dir));
    spool.expect("spawn spool writer").shutdown(); // final drain

    let analysis = analyze_spool_dir(&dir).unwrap();
    assert_eq!(analysis.journeys.len(), 2);
    let spool_dir = dir.to_str().expect("UTF-8 temp path");
    for (flags, expected) in [
        (&[][..], render_text(&analysis, 10)),
        (&["--json"], render_json(&analysis, 10)),
        (&["--top", "1"], render_text(&analysis, 1)),
        (&["--json", "--top", "1"], render_json(&analysis, 1)),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_zc-top"))
            .args(["--spool", spool_dir])
            .args(flags)
            .output()
            .expect("run zc-top");
        assert!(out.status.success(), "{flags:?}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected + "\n",
            "{flags:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
