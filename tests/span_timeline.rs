//! End-to-end request-span timelines: one traced invocation must yield a
//! complete causal timeline — every data-path stage from client marshal to
//! client reply-demarshal — joined across both endpoints on the `ZC_TRACE`
//! trace id, with provable happens-before edges and a critical-path sum
//! bounded by the observed round trip. The speculation-miss and retry paths
//! from the fault model must keep producing well-formed spans.

use std::sync::Arc;
use std::time::Instant;

use zcorba::buffers::CopyLayer;
use zcorba::cdr::ZcOctetSeq;
use zcorba::orb::{ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest};
use zcorba::trace::{span_timelines, SpanTimeline, Stage, Telemetry, TransportField};
use zcorba::transport::{FaultPlan, FaultSide, SimConfig, SimNetwork};

struct Echo;
impl Servant for Echo {
    fn repo_id(&self) -> &'static str {
        "IDL:it/Echo:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "echo" => {
                let d: ZcOctetSeq = req.arg()?;
                req.result(&d)
            }
            other => req.bad_operation(other),
        }
    }
}

/// Run `calls` traced echo invocations over a pair of ORBs sharing
/// `telemetry`; returns the joined timelines and the last observed
/// client-side round-trip time in nanoseconds.
fn traced_calls(
    client: &Orb,
    server_orb: &Orb,
    telemetry: &Telemetry,
    calls: usize,
    idempotent: bool,
) -> (Vec<SpanTimeline>, u64) {
    server_orb.adapter().register("echo", Arc::new(Echo));
    let server = server_orb.serve(0).unwrap();
    let obj = client
        .resolve(&server.ior_for("echo", "IDL:it/Echo:1.0").unwrap())
        .unwrap();
    let mut rtt_ns = 0;
    for _ in 0..calls {
        let payload = ZcOctetSeq::with_length(64 << 10);
        let t0 = Instant::now();
        let mut req = obj.request("echo");
        if idempotent {
            req = req.idempotent();
        }
        let back: ZcOctetSeq = req
            .arg(&payload)
            .unwrap()
            .invoke()
            .unwrap()
            .result()
            .unwrap();
        rtt_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(back.len(), 64 << 10);
    }
    let timelines = span_timelines(&telemetry.recorder().events());
    server.shutdown();
    (timelines, rtt_ns)
}

/// The timeline covering the request whose round trip we measured: the one
/// with the most stages (ties broken by latest trace id, i.e. last request).
fn fullest(timelines: &[SpanTimeline]) -> &SpanTimeline {
    timelines
        .iter()
        .max_by_key(|t| (t.stage_count(), t.trace_id))
        .expect("at least one request span recorded")
}

fn assert_complete_and_causal(tl: &SpanTimeline, rtt_ns: u64) {
    assert_ne!(tl.trace_id, 0);
    for stage in Stage::ALL {
        assert!(
            tl.get(stage).is_some(),
            "stage `{}` missing from timeline {:#x}",
            stage.name(),
            tl.trace_id
        );
    }
    let s = |stage: Stage| tl.get(stage).unwrap();

    // The two halves really come from the two endpoints of one connection.
    assert_ne!(
        s(Stage::ClientMarshal).conn_id,
        s(Stage::ServerRecv).conn_id,
        "client and server stages must carry distinct endpoint conn ids"
    );
    for stage in Stage::ALL {
        let expect = if stage.is_client() {
            s(Stage::ClientMarshal).conn_id
        } else {
            s(Stage::ServerRecv).conn_id
        };
        assert_eq!(s(stage).conn_id, expect, "stage `{}`", stage.name());
    }

    // Happens-before edges on commit timestamps (one shared in-process
    // trace clock). The server records every one of its stages before it
    // puts the reply on the wire, and the client records its reply-side
    // stages only after that reply arrived — so every server commit must
    // precede every client reply-side commit. (The request side has no
    // such provable edge: the client commits its send-side stages *after*
    // the bytes are already on the wire, racing the server's receive.)
    for server_stage in Stage::ALL.into_iter().filter(|s| !s.is_client()) {
        for reply_stage in [Stage::ClientReplyWire, Stage::ClientReplyDemarshal] {
            assert!(
                s(reply_stage).ts_ns >= s(server_stage).ts_ns,
                "client `{}` committed before server `{}`",
                reply_stage.name(),
                server_stage.name()
            );
        }
    }

    // The disjoint critical-path legs must fit inside the round trip the
    // client observed around the same invocation (generous slack for the
    // commit points sitting just outside the `Instant` bracket).
    let path = tl.critical_path_ns();
    assert!(path > 0, "critical path must account for real work");
    assert!(
        path <= rtt_ns + 2_000_000,
        "critical path {path} ns exceeds observed round trip {rtt_ns} ns"
    );
}

#[test]
fn one_request_yields_a_complete_timeline_over_sim() {
    let telemetry = Telemetry::new_shared();
    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    let client = Orb::builder()
        .sim(net)
        .telemetry(Arc::clone(&telemetry))
        .build();
    let (timelines, rtt_ns) = traced_calls(&client, &server_orb, &telemetry, 1, false);
    let tl = fullest(&timelines);
    assert_complete_and_causal(tl, rtt_ns);
}

#[test]
fn one_request_yields_a_complete_timeline_over_tcp() {
    let telemetry = Telemetry::new_shared();
    let server_orb = Orb::builder()
        .tcp()
        .telemetry(Arc::clone(&telemetry))
        .build();
    let client = Orb::builder()
        .tcp()
        .telemetry(Arc::clone(&telemetry))
        .build();
    let (timelines, rtt_ns) = traced_calls(&client, &server_orb, &telemetry, 1, false);
    let tl = fullest(&timelines);
    assert_complete_and_causal(tl, rtt_ns);
}

#[test]
fn speculation_miss_path_still_produces_well_formed_spans() {
    let telemetry = Telemetry::new_shared();
    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    let client = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    // Every receive-side speculation on the server misses: each request's
    // block lands through the transport's fallback copy. Spans must stay
    // complete on that path — the fallback still walks every stage.
    net.inject_faults(FaultPlan::spec_miss(1.0).on(FaultSide::Server));
    let (timelines, rtt_ns) = traced_calls(&client, &server_orb, &telemetry, 16, false);
    assert!(
        telemetry.transport().get(TransportField::SpecMisses) >= 16,
        "fixture must actually miss every request's speculation"
    );
    assert!(
        server_orb
            .meter()
            .snapshot()
            .bytes(CopyLayer::DepositFallback)
            > 0,
        "misses must land through the DepositFallback copy"
    );
    assert!(timelines.len() >= 16, "one timeline per logical request");
    assert_complete_and_causal(fullest(&timelines), rtt_ns);
    for tl in &timelines {
        for stage in Stage::ALL {
            assert!(
                tl.get(stage).is_some(),
                "missed request {:#x} lost stage `{}`",
                tl.trace_id,
                stage.name()
            );
        }
    }
}

#[test]
fn retried_request_still_produces_well_formed_spans() {
    let telemetry = Telemetry::new_shared();
    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    let client = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    server_orb.adapter().register("echo", Arc::new(Echo));
    let server = server_orb.serve(0).unwrap();
    let obj = client
        .resolve(&server.ior_for("echo", "IDL:it/Echo:1.0").unwrap())
        .unwrap();
    let call = |idempotent: bool| -> u64 {
        let payload = ZcOctetSeq::with_length(16 << 10);
        let t0 = Instant::now();
        let mut req = obj.request("echo");
        if idempotent {
            req = req.idempotent();
        }
        let back: ZcOctetSeq = req
            .arg(&payload)
            .unwrap()
            .invoke()
            .unwrap()
            .result()
            .unwrap();
        assert_eq!(back.len(), 16 << 10);
        t0.elapsed().as_nanos() as u64
    };
    // Warm the connection, then sever the server's wire on its next sent
    // frame: the reply dies, the idempotent call transparently retries on
    // a healed connection.
    call(false);
    net.inject_faults(FaultPlan::cut_after(0).on(FaultSide::Server));
    let rtt_ns = call(true);
    assert!(
        telemetry.metrics().snapshot().retries >= 1,
        "fixture must actually exercise the retry path"
    );
    let timelines = span_timelines(&telemetry.recorder().events());
    server.shutdown();
    // Every recorded timeline is internally consistent: no stage from a
    // foreign endpoint, durations packed/unpacked intact. The retried
    // request's final attempt forms a complete causal timeline.
    let tl = fullest(&timelines);
    assert_complete_and_causal(tl, rtt_ns);
    for tl in &timelines {
        assert_ne!(tl.trace_id, 0);
        assert!(tl.stage_count() > 0);
    }
}
