//! `zc-trace` — observability for the zero-copy ORB.
//!
//! Three cooperating layers, cheapest first:
//!
//! 1. **Flight recorder** ([`FlightRecorder`]) — a lock-free, fixed-size
//!    ring of [`TraceEvent`]s. Recording is allocation-free and never
//!    blocks; when tracing is disabled it is a no-op after a single plain
//!    boolean load. This is the per-event view: one Request produces a
//!    `request-sent` span on the client and a `request-recv` span on the
//!    server, correlated by the trace id carried in the `ZC_TRACE` GIOP
//!    service context.
//! 2. **Metrics registry** ([`MetricsRegistry`]) — atomic counters and
//!    log2-bucketed [`Histogram`]s (request latency, deposit-block sizes,
//!    fragment counts), the windowed load signals ([`LoadWindows`]), plus
//!    [`TransportCounters`]: the ORB-wide mirror that merges every
//!    connection's `ConnStats` so totals survive connection teardown.
//! 3. **Unified report** ([`OrbTelemetry`]) — one snapshot joining the
//!    above with the `CopyMeter` and `PagePool` accounting from
//!    `zc-buffers`, exportable as a text table or JSON lines.
//!
//! One fact on the request path is one call, [`Telemetry::emit`]: the
//! `event_kinds!` table in `event.rs` declares each [`EventKind`] once —
//! name, layer, and which registry cells move with it — and `emit` writes
//! the ring event and moves those cells behind a single enabled test.
//!
//! The paper's claim is an accounting claim (§5: copy cost dominates);
//! this crate is the ledger.

mod event;
mod metrics;
mod recorder;
mod report;
mod span;
mod spool;
mod telemetry;
mod windows;

pub use event::{
    pack_attempt, unpack_attempt, EventKind, JourneyCause, TraceEvent, TraceLayer, JOURNEY_ID_MASK,
};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, StageHistograms,
    StageSnapshots, TransportCounters, TransportField, TransportTotals, HISTOGRAM_BUCKETS,
};
pub use recorder::FlightRecorder;
pub use report::OrbTelemetry;
pub use span::{
    pack_stage, span_timelines, unpack_stage, RequestSpan, SpanTimeline, Stage, StageSample,
    STAGE_DUR_MASK,
};
pub use spool::{
    read_spool_segment, repair_segment, spool_segments, SegmentRead, SpoolConfig, SpoolError,
    SpoolWriter, SEGMENT_MAGIC, SPOOL_EVENT_LEN,
};
pub use telemetry::Telemetry;
pub use windows::{Gauge, GaugeSnapshot, LoadSnapshot, LoadWindows, RateWindow, DEFAULT_WINDOW_NS};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use). Monotonic,
/// allocation-free; all [`TraceEvent::ts_ns`] values share this clock so
/// client and server spans of an in-process experiment are comparable.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_JOURNEY_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique trace id (never 0; 0 means "untraced").
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Allocate a process-unique connection id for trace correlation (never 0).
pub fn next_conn_id() -> u64 {
    NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Allocate a process-unique journey id for one *logical* request (never 0;
/// 0 means "no journey"). Every attempt of the journey — the initial send
/// plus any retry/failover/shed-rotate re-sends — gets its own trace id but
/// shares this id, carried in the `ZC_TRACE` context and the packed
/// [`EventKind::Attempt`] payload. Only the low 48 bits travel in the
/// payload ([`JOURNEY_ID_MASK`]), plenty for a process lifetime.
pub fn next_journey_id() -> u64 {
    NEXT_JOURNEY_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        let c = next_conn_id();
        let d = next_conn_id();
        assert_ne!(c, 0);
        assert_ne!(c, d);
    }

    #[test]
    fn clock_is_monotonic() {
        let t1 = now_ns();
        let t2 = now_ns();
        assert!(t2 >= t1);
    }
}
