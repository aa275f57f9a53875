//! The signal table, and the disabled-mode zero-overhead guarantees.
//!
//! One event is one call: `Telemetry::emit` moves exactly the cells the
//! `event_kinds!` table declares for its kind and writes exactly one
//! flight-recorder event. The table below restates those declarations
//! independently, so an edit to one side alone fails here.
//!
//! With telemetry disabled the data path must pay exactly one boolean
//! check per would-be event: no heap allocation, and no atomic
//! read-modify-write (observable as the recorder cursor and every cell
//! never moving). A per-thread counting allocator (`zc-test-alloc`) proves
//! the allocation half for exactly the measured code, whatever sibling
//! tests are doing; the cells prove the RMW half.

use std::collections::BTreeMap;

use zc_test_alloc::allocations;
use zc_trace::{
    pack_attempt, pack_stage, EventKind, JourneyCause, Stage, Telemetry, TraceLayer, TransportField,
};

#[global_allocator]
static GLOBAL: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;

/// Every cell a `Telemetry` holds, by `family.name`: counters, histogram
/// sample counts, rate-window lifetime totals, gauge levels, transport
/// totals.
fn cells(tele: &Telemetry) -> BTreeMap<String, i64> {
    let mut out = BTreeMap::new();
    let metrics = tele.metrics().snapshot();
    for (name, v) in metrics.counters() {
        out.insert(format!("counter.{name}"), v as i64);
    }
    for (name, h) in metrics.histograms() {
        out.insert(format!("hist.{name}"), h.count as i64);
    }
    out.insert(
        "hist.stage_ns".to_string(),
        metrics.stage_ns.total_count() as i64,
    );
    for (name, total) in tele.windows().totals() {
        out.insert(format!("rate.{name}"), total as i64);
    }
    for (name, g) in tele.windows().snapshot(zc_trace::now_ns()).gauges() {
        out.insert(format!("gauge.{name}"), g.current as i64);
    }
    let transport = tele.transport();
    for f in TransportField::ALL {
        out.insert(format!("transport.{}", f.name()), transport.get(f) as i64);
    }
    out
}

/// `(kind, a kind to emit first, the layer its event is filed under, the
/// cells one emit moves and by how much)`. A row that lowers a gauge names
/// the kind that raises it: gauges saturate at zero, so a lone lowering
/// would be invisible.
type Declared = (
    EventKind,
    Option<EventKind>,
    TraceLayer,
    &'static [(&'static str, i64)],
);

/// What one `emit` of each kind must move, and nothing else.
#[rustfmt::skip]
const DECLARED: &[Declared] = {
    use EventKind::*;
    use TraceLayer::{Giop, Orb, Transport};
    &[
        (RequestSent, None, Giop, &[("counter.requests_sent", 1)]),
        (RequestReceived, None, Giop, &[
            ("counter.requests_received", 1),
            ("counter.trace_contexts_seen", 1),
            ("rate.req_rx", 1),
        ]),
        (ReplySent, None, Giop, &[]),
        (ReplyReceived, None, Giop, &[("counter.replies_ok", 1)]),
        (DepositSent, None, Giop, &[("hist.deposit_block_bytes", 1)]),
        (DepositReceived, None, Giop, &[]),
        (SpecHit, None, Transport, &[("transport.spec_hits", 1)]),
        (SpecMiss, None, Transport, &[("transport.spec_misses", 1)]),
        (Invoke, None, Orb, &[("hist.request_latency_ns", 1)]),
        (Dispatch, None, Orb, &[("hist.dispatch_ns", 1)]),
        (Error, None, Giop, &[]),
        (Retry, None, Orb, &[("counter.retries", 1), ("rate.retries", 1)]),
        (Reconnect, None, Orb, &[("counter.reconnects", 1)]),
        (BreakerOpen, None, Orb, &[("counter.breaker_opens", 1), ("gauge.breakers_open", 1)]),
        // Filed under the stage's own layer: `Stage::Wire` is a transport leg.
        (Stage, None, Transport, &[("hist.stage_ns", 1)]),
        (Shed, None, Orb, &[("counter.sheds", 1), ("rate.shed", 1)]),
        (Brownout, None, Orb, &[
            ("counter.sheds", 1),
            ("counter.brownout_sheds", 1),
            ("rate.shed", 1),
            ("rate.brownout", 1),
        ]),
        (Failover, None, Orb, &[("counter.failovers", 1), ("rate.failover", 1)]),
        (Attempt, None, Orb, &[]),
        (BreakerClose, Some(BreakerOpen), Orb, &[("gauge.breakers_open", -1)]),
        (ExceptionReceived, None, Giop, &[("counter.replies_exception", 1)]),
    ]
};

fn payload_for(kind: EventKind) -> u64 {
    match kind {
        EventKind::Stage => pack_stage(Stage::Wire, 4096),
        EventKind::Attempt => pack_attempt(JourneyCause::Retry, 1, 99),
        _ => 4096,
    }
}

#[test]
fn every_kind_moves_exactly_its_declared_cells_and_one_ring_event() {
    let kinds: Vec<EventKind> = DECLARED.iter().map(|row| row.0).collect();
    assert_eq!(kinds, EventKind::ALL, "DECLARED must list every kind once");

    for &(kind, first, layer, moves) in DECLARED {
        let tele = Telemetry::with_capacity(8);
        if let Some(first) = first {
            tele.emit(first, 1, 7, 0);
        }
        let before = cells(&tele);
        let recorded = tele.recorder().recorded();
        let allocs = allocations();
        tele.emit(kind, 3, 7, payload_for(kind));
        assert_eq!(allocations() - allocs, 0, "{kind:?}: emit allocated");

        let after = cells(&tele);
        let moved: BTreeMap<&str, i64> = after
            .iter()
            .map(|(name, v)| (name.as_str(), v - before[name]))
            .filter(|&(_, delta)| delta != 0)
            .collect();
        assert_eq!(moved, moves.iter().copied().collect(), "{kind:?}");

        assert_eq!(tele.recorder().recorded() - recorded, 1, "{kind:?}");
        let ev = *tele.recorder().events().last().expect("the event");
        assert_eq!(
            (ev.kind, ev.layer, ev.conn_id, ev.trace_id, ev.payload),
            (kind, layer, 3, 7, payload_for(kind)),
        );
        assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
    }

    // A request without a ZC_TRACE context is received, not "seen traced";
    // a histogram-fed kind's payload is the sample itself.
    let tele = Telemetry::with_capacity(8);
    tele.emit(EventKind::RequestReceived, 1, 0, 0);
    tele.emit(EventKind::Invoke, 1, 0, 1234);
    let m = tele.metrics().snapshot();
    assert_eq!((m.requests_received, m.trace_contexts_seen), (1, 0));
    assert_eq!(m.request_latency_ns.sum, 1234);
}

#[test]
fn disabled_emit_allocates_nothing_and_moves_no_cell() {
    let tele = Telemetry::disabled();
    assert!(!tele.is_enabled());

    // Warm up any lazy state (the clock epoch, test-harness buffers).
    tele.emit(EventKind::Invoke, 1, 1, 0);
    let _ = zc_trace::next_journey_id();

    let allocs_before = allocations();
    for i in 0..10_000u64 {
        for kind in EventKind::ALL {
            tele.emit(kind, 1, i, payload_for(kind));
        }
        // The per-invocation journey cost with telemetry off: one relaxed
        // fetch_add for the id, then the same one boolean test.
        let journey = zc_trace::next_journey_id();
        tele.emit(
            EventKind::Attempt,
            1,
            i,
            pack_attempt(JourneyCause::Retry, 1, journey),
        );
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "disabled telemetry allocated on the emit path"
    );

    // No atomic RMW reached the recorder or any cell: every cursor, counter,
    // histogram, window and gauge is exactly where it started.
    assert_eq!(tele.recorder().recorded(), 0);
    assert_eq!(tele.recorder().dropped(), 0);
    assert!(cells(&tele).values().all(|&v| v == 0), "{:?}", cells(&tele));
}

#[test]
fn disabled_span_allocates_nothing_and_moves_no_counter() {
    let tele = Telemetry::disabled();

    // Warm up lazy state before counting.
    tele.emit(EventKind::Stage, 1, 1, pack_stage(Stage::ClientMarshal, 0));
    let mut warm = tele.request_span();
    warm.commit(&tele, 1, 1);

    let allocs_before = allocations();
    for i in 0..100_000u64 {
        let mut span = tele.request_span();
        // begin() must not even read the clock when disabled
        let t0 = span.begin();
        assert!(t0.is_none());
        span.end(Stage::ClientMarshal, t0);
        span.add(Stage::ServerDispatch, i);
        span.commit(&tele, 1, i);
        tele.emit(EventKind::Stage, 1, i, pack_stage(Stage::Wire, 100));
    }
    let allocs_after = allocations();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "disabled span path allocated"
    );
    assert_eq!(tele.recorder().recorded(), 0);
    assert_eq!(tele.recorder().dropped(), 0);
    assert_eq!(
        tele.metrics().snapshot().stage_ns.total_count(),
        0,
        "disabled span path moved a stage histogram"
    );
}

#[test]
fn enabled_span_recording_does_not_allocate() {
    let tele = Telemetry::with_capacity(1024);
    tele.emit(EventKind::Stage, 1, 1, pack_stage(Stage::ClientMarshal, 0));
    let before = allocations();
    for i in 0..10_000u64 {
        let mut span = tele.request_span();
        let t0 = span.begin();
        span.end(Stage::ClientMarshal, t0);
        span.add(Stage::Wire, 42);
        span.commit(&tele, 1, i);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "enabled span recording allocated");
    assert_eq!(
        tele.metrics().snapshot().stage_ns.get(Stage::Wire).count,
        10_000
    );
}

#[test]
fn disabled_telemetry_offers_no_mirror() {
    let tele = Telemetry::disabled();
    assert!(
        tele.transport_mirror().is_none(),
        "per-connection stats must not mirror into disabled telemetry"
    );
    assert!(tele.post_mortem(1, 8).is_none());
}

#[test]
fn disabled_load_notes_allocate_nothing_and_move_no_window() {
    let tele = Telemetry::disabled();

    // Warm up lazy state (the trace clock epoch) before counting.
    tele.note_wire_rx(1);

    let before = allocations();
    for _ in 0..100_000u64 {
        // Every signal that is not an event: all must cost exactly the one
        // enabled-flag load when telemetry is off.
        tele.note_dispatch_begin();
        tele.note_dispatch_end();
        tele.note_conn_open();
        tele.note_conn_closed();
        tele.note_reassembly_bytes(4096);
        tele.note_data_block(3, 1);
        tele.note_wire_tx(4096);
        tele.note_wire_rx(4096);
        tele.mirror_transport(TransportField::WireBytesRecv, 4096);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "disabled load notes allocated");

    // No atomics traffic: every window, gauge and histogram is exactly at
    // zero, watermarks included.
    assert!(cells(&tele).values().all(|&v| v == 0), "{:?}", cells(&tele));
    let load = tele.windows().snapshot(zc_trace::now_ns());
    assert!(load.gauges().all(|(_, g)| g.peak == 0));
    assert!(load.rates().all(|(_, _, per_s)| per_s == 0.0));
}

#[test]
fn enabled_load_notes_do_not_allocate() {
    // Windows and gauges are fixed-size atomics inside Telemetry: ticking
    // them never heap-allocates, only rendering does.
    let tele = Telemetry::with_capacity(64);
    tele.note_wire_rx(1);
    let before = allocations();
    for _ in 0..10_000u64 {
        tele.note_dispatch_begin();
        tele.note_dispatch_end();
        tele.note_reassembly_bytes(1 << 20);
        tele.note_data_block(3, 1);
        tele.note_wire_tx(4096);
        tele.note_wire_rx(512);
        tele.mirror_transport(TransportField::WireBytesSent, 4096);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "enabled load notes allocated");
    let load = tele.windows().snapshot(zc_trace::now_ns());
    assert_eq!(load.reassembly_bytes.peak, 1 << 20);
    let now = cells(&tele);
    assert_eq!(now["rate.wire_tx"], 10_000 * 4096);
    assert_eq!(now["rate.wire_rx"], 10_000 * 512 + 1);
    assert_eq!(now["hist.frames_per_block"], 10_000);
    assert_eq!(now["hist.data_wire_ns"], 10_000);
    assert_eq!(now["transport.wire_bytes_sent"], 10_000 * 4096);
    assert_eq!(now["gauge.inflight"], 0);
}

#[test]
fn connections_open_and_close_in_balance() {
    let tele = Telemetry::with_capacity(64);
    tele.note_conn_open();
    tele.note_conn_open();
    tele.note_conn_closed();
    assert_eq!(cells(&tele)["gauge.conns"], 1);
    tele.note_conn_closed();
    assert_eq!(cells(&tele)["gauge.conns"], 0);
}

#[test]
fn steady_state_emit_does_not_allocate() {
    // The ring is pre-allocated at construction: steady-state recording is
    // allocation-free even when enabled (allocation happens only on
    // snapshot/export), wrap-around included.
    let tele = Telemetry::with_capacity(1024);
    tele.emit(EventKind::RequestSent, 1, 1, 0);
    let before = allocations();
    for i in 0..10_000u64 {
        tele.emit(EventKind::RequestSent, 1, i, 64);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "steady-state recording allocated");
    assert_eq!(tele.recorder().recorded(), 10_001);
}
