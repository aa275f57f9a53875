//! End-to-end tests for the in-band introspection plane: the reserved
//! `_ZcTelemetry` object must stay answerable while the server is
//! saturated with bulk zero-copy traffic, and its snapshots must be
//! self-consistent (counters monotone across polls, watermarks at or
//! above every instantaneous value).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use zc_cdr::ZcOctetSeq;
use zc_orb::{ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest, TelemetryClient};
use zc_trace::Telemetry;
use zc_transport::{SimConfig, SimNetwork};

const BULK_REPO_ID: &str = "IDL:zcorba/test/BulkSink:1.0";

struct BulkSink;

impl Servant for BulkSink {
    fn repo_id(&self) -> &'static str {
        BULK_REPO_ID
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "push" => {
                let data: ZcOctetSeq = req.arg()?;
                req.result(&(data.len() as u32))
            }
            other => req.bad_operation(other),
        }
    }
}

/// Pull `"key":<number>` out of a JSON-lines snapshot (first occurrence).
fn json_num(text: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing in {text}"));
    let rest = &text[at + needle.len()..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("bad number for {key}"))
}

/// Saturate `server` with bulk pushes from `load_orb` while polling its
/// `_ZcTelemetry` object through `poll_orb`; returns after asserting
/// liveness, monotonicity, and watermark consistency.
fn saturate_and_poll(
    server_orb: &Orb,
    server: &zc_orb::ServerHandle,
    load_orb: Orb,
    poll_orb: &Orb,
) {
    let ior = server.ior_for("bulk", BULK_REPO_ID).expect("bulk ior");
    let obj = load_orb.resolve(&ior).expect("resolve bulk");

    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let pusher = std::thread::spawn(move || {
        let payload = ZcOctetSeq::with_length(256 << 10);
        let mut pushed = 0u64;
        while !flag.load(Ordering::Relaxed) {
            let n: u32 = obj
                .request("push")
                .arg(&payload)
                .expect("marshal")
                .invoke()
                .expect("push under load")
                .result()
                .expect("push result");
            assert_eq!(n as usize, payload.len());
            pushed += 1;
        }
        pushed
    });

    let tc = TelemetryClient::connect(poll_orb, server.host(), server.port())
        .expect("connect telemetry");

    // Poll both operations repeatedly while the bulk traffic runs: the
    // management object must answer, and its counters must be monotone
    // poll to poll.
    let mut last_rx = 0.0f64;
    let mut last_wire = 0.0f64;
    for _ in 0..5 {
        assert_eq!(tc.ping().expect("ping under load"), 1);
        let snap = tc.snapshot_json().expect("snapshot_json under load");
        let rx = json_num(&snap, "value"); // first counter line is requests_sent
        assert!(rx >= 0.0);
        let req_rx = {
            let at = snap
                .find("\"name\":\"requests_received\"")
                .expect("requests_received line");
            json_num(&snap[at..], "value")
        };
        assert!(
            req_rx >= last_rx,
            "requests_received went backwards: {req_rx} < {last_rx}"
        );
        last_rx = req_rx;
        let wire = json_num(&snap, "wire_bytes_recv");
        assert!(wire >= last_wire, "wire counter went backwards");
        last_wire = wire;

        // Watermark consistency: every gauge's peak ≥ its current value,
        // in the very same snapshot.
        for gauge in ["inflight", "conns", "breakers_open", "pool_retained"] {
            let cur = json_num(&snap, gauge);
            let peak = json_num(&snap, &format!("{gauge}_peak"));
            assert!(peak >= cur, "{gauge}: peak {peak} < current {cur}");
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
    }

    stop.store(true, Ordering::Relaxed);
    let pushed = pusher.join().expect("pusher");
    assert!(pushed > 0, "load generator made no calls");

    // Cross-check against the server's own in-process snapshot: the polled
    // counter can only lag it, never exceed it.
    let inproc = server_orb.telemetry_snapshot();
    assert!(inproc.metrics.requests_received as f64 >= last_rx);
    assert!(inproc.load.inflight.peak >= inproc.load.inflight.current);
    assert!(inproc.load.conns.peak >= inproc.load.conns.current);
}

/// [`saturate_and_poll`] with all three ORBs on one simulated network.
fn saturate_and_poll_sim(config: SimConfig) {
    let net = SimNetwork::new(config);
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Telemetry::with_capacity(2048))
        .build();
    server_orb.adapter().register("bulk", Arc::new(BulkSink));
    let server = server_orb.serve(0).expect("serve sim");
    let load_orb = Orb::builder().sim(net.clone()).build();
    let poll_orb = Orb::builder().sim(net.clone()).build();
    saturate_and_poll(&server_orb, &server, load_orb, &poll_orb);
    server.shutdown();
}

#[test]
fn sim_server_answers_telemetry_polls_under_bulk_load() {
    saturate_and_poll_sim(SimConfig::zero_copy());
}

#[test]
fn tcp_server_answers_telemetry_polls_under_bulk_load() {
    let server_orb = Orb::builder()
        .tcp()
        .telemetry(Telemetry::with_capacity(2048))
        .build();
    server_orb.adapter().register("bulk", Arc::new(BulkSink));
    let server = server_orb.serve(0).expect("serve tcp");
    let load_orb = Orb::builder().tcp().build();
    let poll_orb = Orb::builder().tcp().build();
    saturate_and_poll(&server_orb, &server, load_orb, &poll_orb);
    server.shutdown();
}

#[test]
fn every_orb_auto_registers_the_reserved_telemetry_object() {
    let net = SimNetwork::new(SimConfig::zero_copy());
    // No explicit telemetry, no registrations: a fresh ORB still serves
    // the management object under its reserved key.
    let server_orb = Orb::builder().sim(net.clone()).build();
    assert!(
        server_orb
            .adapter()
            .find(zc_cdr::wire::ZC_TELEMETRY_KEY)
            .is_some(),
        "_ZcTelemetry not auto-registered"
    );
    let server = server_orb.serve(0).expect("serve");
    let client = Orb::builder().sim(net.clone()).build();
    let tc = TelemetryClient::connect(&client, server.host(), server.port()).expect("connect");
    assert_eq!(tc.ping().expect("ping"), 1);
    // Telemetry is disabled by default: the snapshot still renders (meter
    // and pool are tracked unconditionally), flagged as disabled.
    let snap = tc.snapshot_json().expect("snapshot");
    assert!(snap.contains("\"enabled\":false"), "{snap}");
    assert!(snap.contains("\"section\":\"pool\""), "{snap}");
    server.shutdown();
}

#[test]
fn telemetry_polls_survive_copying_stack() {
    // The introspection plane must not depend on the zero-copy machinery:
    // a copying (conventional CDR) network still serves both operations
    // under bulk load.
    saturate_and_poll_sim(SimConfig::copying());
}
