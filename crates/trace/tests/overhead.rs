//! Disabled-mode zero-overhead guarantees.
//!
//! With telemetry disabled the data path must pay exactly one boolean
//! check per would-be event: no heap allocation, and no atomic
//! read-modify-write (observable as the recorder cursor and metrics
//! counters never moving). A per-thread counting allocator
//! (`zc-test-alloc`) proves the allocation half for exactly the measured
//! code, whatever sibling tests are doing; the counters prove the RMW
//! half.

use zc_test_alloc::allocations;
use zc_trace::{EventKind, Stage, Telemetry, TraceLayer};

#[global_allocator]
static GLOBAL: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;

#[test]
fn disabled_record_allocates_nothing_and_moves_no_counter() {
    let tele = Telemetry::disabled();
    assert!(!tele.is_enabled());

    // Warm up any lazy state (the clock epoch, test-harness buffers).
    tele.record(TraceLayer::Orb, EventKind::Invoke, 1, 1, 0);

    let allocs_before = allocations();
    for i in 0..100_000u64 {
        tele.record(TraceLayer::Transport, EventKind::DepositSent, 1, i, 4096);
    }
    let allocs_after = allocations();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "disabled telemetry allocated on the record path"
    );

    // No atomic RMW reached the recorder or the metrics: every cursor and
    // counter is exactly where it started.
    assert_eq!(tele.recorder().recorded(), 0);
    assert_eq!(tele.recorder().dropped(), 0);
    assert_eq!(tele.metrics().snapshot().requests_sent, 0);
    assert_eq!(tele.transport().snapshot().bytes_sent, 0);
}

#[test]
fn disabled_span_allocates_nothing_and_moves_no_counter() {
    let tele = Telemetry::disabled();

    // Warm up lazy state before counting.
    tele.record_stage(Stage::ClientMarshal, 1, 1, 0);
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
        tele.record_stage(Stage::Wire, 1, i, 100);
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
    tele.record_stage(Stage::ClientMarshal, 1, 1, 0);
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
    tele.note_request_received();

    let before = allocations();
    for _ in 0..100_000u64 {
        // Every load-signal helper the request path touches: all must
        // cost exactly the one enabled-flag load when telemetry is off.
        tele.note_request_received();
        tele.note_retry();
        tele.note_dispatch_begin();
        tele.note_dispatch_end();
        tele.note_conn_open();
        tele.note_conn_closed();
        tele.note_degraded(true);
        tele.note_breaker(true);
        tele.note_reassembly_bytes(4096);
        tele.note_pool_retained(4096);
        tele.note_wire_tx(4096);
        tele.note_wire_rx(4096);
        tele.mirror_transport(zc_trace::TransportField::WireBytesRecv, 4096);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "disabled load notes allocated");

    // No atomics traffic: every window and gauge is exactly at zero.
    let load = tele.windows().snapshot(zc_trace::now_ns());
    assert_eq!(load.req_rx_total, 0);
    assert_eq!(load.req_per_s, 0.0);
    assert_eq!(load.wire_tx_bytes_per_s, 0.0);
    assert_eq!(load.wire_rx_bytes_per_s, 0.0);
    assert_eq!(tele.windows().wire_tx.total(), 0);
    assert_eq!(tele.windows().wire_rx.total(), 0);
    assert_eq!(load.inflight.peak, 0);
    assert_eq!(load.conns.peak, 0);
    assert_eq!(load.degraded_conns.peak, 0);
    assert_eq!(load.breakers_open.peak, 0);
    assert_eq!(load.reassembly_bytes.peak, 0);
    assert_eq!(load.pool_retained.peak, 0);
    assert_eq!(tele.transport().snapshot().wire_bytes_recv, 0);
}

#[test]
fn enabled_load_notes_do_not_allocate() {
    // Windows and gauges are fixed-size atomics inside Telemetry: ticking
    // them never heap-allocates, only rendering does.
    let tele = Telemetry::with_capacity(64);
    tele.note_request_received();
    let before = allocations();
    for _ in 0..10_000u64 {
        tele.note_request_received();
        tele.note_dispatch_begin();
        tele.note_dispatch_end();
        tele.note_reassembly_bytes(1 << 20);
        tele.note_wire_tx(4096);
        tele.note_wire_rx(512);
        tele.mirror_transport(zc_trace::TransportField::WireBytesSent, 4096);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "enabled load notes allocated");
    let load = tele.windows().snapshot(zc_trace::now_ns());
    assert_eq!(load.req_rx_total, 10_001);
    assert_eq!(load.reassembly_bytes.peak, 1 << 20);
    assert_eq!(tele.windows().wire_tx.total(), 10_000 * 4096);
    assert_eq!(tele.windows().wire_rx.total(), 10_000 * 512);
    assert_eq!(tele.transport().snapshot().wire_bytes_sent, 10_000 * 4096);
}

#[test]
fn disabled_attempt_path_allocates_nothing_and_moves_no_counter() {
    let tele = Telemetry::disabled();

    // Warm up lazy state before counting.
    let _ = zc_trace::next_journey_id();
    tele.record_attempt(1, 1, zc_trace::JourneyCause::Initial, 0, 1);

    let before = allocations();
    for i in 0..100_000u64 {
        // The full per-invocation journey cost with telemetry off: one
        // relaxed fetch_add for the id (no clock read, no allocation)
        // and one enabled-flag load in record_attempt.
        let journey = zc_trace::next_journey_id();
        tele.record_attempt(1, i, zc_trace::JourneyCause::Retry, 1, journey);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "disabled journey path allocated");
    assert_eq!(tele.recorder().recorded(), 0);
    assert_eq!(tele.recorder().dropped(), 0);
}

#[test]
fn enabled_attempt_recording_does_not_allocate() {
    let tele = Telemetry::with_capacity(1024);
    tele.record_attempt(1, 1, zc_trace::JourneyCause::Initial, 0, 1);
    let before = allocations();
    for i in 0..10_000u64 {
        let journey = zc_trace::next_journey_id();
        tele.record_attempt(1, i, zc_trace::JourneyCause::Failover, 2, journey);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "enabled attempt recording allocated");
    assert_eq!(tele.recorder().recorded(), 10_001);
}

#[test]
fn enabled_record_does_not_allocate_either() {
    // The ring is pre-allocated at construction: steady-state recording is
    // allocation-free even when enabled (allocation happens only on
    // snapshot/export).
    let tele = Telemetry::with_capacity(1024);
    tele.record(TraceLayer::Giop, EventKind::RequestSent, 1, 1, 0);
    let before = allocations();
    for i in 0..10_000u64 {
        tele.record(TraceLayer::Giop, EventKind::RequestSent, 1, i, 64);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "steady-state recording allocated");
    assert_eq!(tele.recorder().recorded(), 10_001);
}
