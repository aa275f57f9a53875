//! Golden-format test: the two renderings of one fixed synthetic
//! [`OrbTelemetry`] — every counter, histogram, stage, rate and gauge
//! non-zero — are pinned byte for byte. `_ZcTelemetry::snapshot_json`
//! serves the JSON lines and `zc-top` parses them; `zc-bench` reports
//! print both. A refactor of the renderers (or of how the registry is
//! declared) must leave them identical.
//!
//! After a *deliberate* format change, copy the files the failing test
//! wrote under `$CARGO_TARGET_TMPDIR` over `tests/golden/`.

use zc_buffers::{CopyLayer, CopyMeter, PoolStats};
use zc_trace::{
    GaugeSnapshot, Histogram, LoadSnapshot, MetricsSnapshot, OrbTelemetry, Stage, StageHistograms,
    TransportCounters, TransportField,
};

fn synthetic() -> OrbTelemetry {
    let meter = CopyMeter::new_shared();
    for (i, layer) in CopyLayer::ALL.into_iter().enumerate() {
        meter.record(layer, 4096 * (i + 1));
        meter.record(layer, 100 + i);
    }
    let transport = TransportCounters::default();
    for (i, f) in TransportField::ALL.into_iter().enumerate() {
        transport.add(f, 1000 + 7 * i as u64);
    }
    // The registry's cells move only with their events; a snapshot is plain
    // data, so every counter gets its own value here. The values skip 125
    // and 128, which two retired counters held, so the goldens keep theirs.
    let mut metrics = MetricsSnapshot::default();
    for (c, value) in [
        (&mut metrics.requests_sent, 101),
        (&mut metrics.requests_received, 104),
        (&mut metrics.replies_ok, 107),
        (&mut metrics.replies_exception, 110),
        (&mut metrics.trace_contexts_seen, 113),
        (&mut metrics.retries, 116),
        (&mut metrics.reconnects, 119),
        (&mut metrics.breaker_opens, 122),
        (&mut metrics.sheds, 131),
        (&mut metrics.brownout_sheds, 134),
        (&mut metrics.failovers, 137),
    ] {
        *c = value;
    }
    for (i, h) in [
        &mut metrics.request_latency_ns,
        &mut metrics.dispatch_ns,
        &mut metrics.deposit_block_bytes,
        &mut metrics.frames_per_block,
        &mut metrics.data_wire_ns,
    ]
    .into_iter()
    .enumerate()
    {
        let samples = Histogram::new();
        for s in [0u64, 1, 150, 4097, 1 << 20] {
            samples.record(s * (i as u64 + 1) + i as u64);
        }
        *h = samples.snapshot();
    }
    let stages = StageHistograms::new();
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        for s in [3u64, 700, 12_000] {
            stages.record(stage, s * (i as u64 + 2));
        }
    }
    metrics.stage_ns = stages.snapshot();
    let g = |current, peak| GaugeSnapshot { current, peak };
    OrbTelemetry {
        enabled: true,
        copies: meter.snapshot(),
        pool: PoolStats {
            fresh_allocations: 12,
            reuses: 345,
            returns: 350,
            discards: 2,
            retained_bytes: 786_432,
        },
        transport: transport.snapshot(),
        metrics,
        load: LoadSnapshot {
            window_ns: 250_000_000,
            req_per_s: 1234.5,
            wire_tx_bytes_per_s: 9_876_543.25,
            wire_rx_bytes_per_s: 1_048_576.0,
            retries_per_s: 2.125,
            shed_per_s: 17.0,
            brownout_per_s: 0.5,
            failover_per_s: 0.0625,
            req_rx_total: 424_242,
            inflight: g(3, 9),
            conns: g(4, 5),
            breakers_open: g(1, 1),
            reassembly_bytes: g(0, 1 << 20),
            pool_retained: g(786_432, 1 << 21),
        },
        events_recorded: 65_536,
        events_dropped: 7,
    }
}

fn check(name: &str, expected: &str, actual: &str) {
    if expected != actual {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&out, actual).expect("write actual rendering");
        panic!(
            "{name} drifted from tests/golden/{name}; actual written to {}",
            out.display()
        );
    }
}

#[test]
fn text_table_matches_golden() {
    check(
        "snapshot.txt",
        include_str!("golden/snapshot.txt"),
        &synthetic().text_table(),
    );
}

#[test]
fn json_lines_match_golden() {
    check(
        "snapshot.jsonl",
        include_str!("golden/snapshot.jsonl"),
        &synthetic().json_lines(),
    );
}
