//! The telemetry handle: one shared object bundling the flight recorder,
//! the metrics registry, the windowed load signals and the transport
//! mirror.
//!
//! An `Arc<Telemetry>` rides inside `TransportCtx` next to the copy meter,
//! so every layer that can account a copy can also report an event. One
//! fact is one call: [`Telemetry::emit`] writes the flight-recorder event
//! and moves every cell the `event_kinds!` table (`event.rs`) declares for
//! its kind. The disabled handle is a real object whose `emit` returns
//! after one plain (non-RMW) boolean load — instrumentation compiles in,
//! costs nothing measurable, and flips on without rebuilding.

use std::sync::Arc;

use zc_buffers::{CopySnapshot, PoolStats};

use crate::event::{EventKind, TraceEvent, TraceLayer};
use crate::metrics::{MetricsRegistry, TransportCounters, TransportField, TransportTotals};
use crate::recorder::FlightRecorder;
use crate::report::OrbTelemetry;
use crate::span::{unpack_stage, RequestSpan};
use crate::windows::LoadWindows;

/// Shared telemetry state for one ORB (or one experiment, when the client
/// and server ORBs are handed the same instance).
pub struct Telemetry {
    enabled: bool,
    recorder: FlightRecorder,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) transport: TransportCounters,
    pub(crate) windows: LoadWindows,
}

impl Telemetry {
    /// Flight-recorder capacity used by [`Telemetry::new_shared`].
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An enabled telemetry instance with the default recorder capacity.
    pub fn new_shared() -> Arc<Telemetry> {
        Telemetry::with_capacity(Telemetry::DEFAULT_CAPACITY)
    }

    /// An enabled telemetry instance whose recorder holds `capacity`
    /// events. `capacity == 0` is equivalent to [`Telemetry::disabled`].
    pub fn with_capacity(capacity: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: capacity > 0,
            recorder: FlightRecorder::new(capacity),
            metrics: MetricsRegistry::default(),
            transport: TransportCounters::default(),
            windows: LoadWindows::default(),
        })
    }

    /// The disabled instance: reporting is a no-op after one plain boolean
    /// load — no heap allocation, no atomic read-modify-write.
    pub fn disabled() -> Arc<Telemetry> {
        Telemetry::with_capacity(0)
    }

    /// Whether this instance records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Report one event (no-op when disabled): one clock read stamps the
    /// flight-recorder event and ticks whatever rate windows the kind
    /// declares, and the kind's counters, gauges and histograms move with
    /// it — `payload` is the histogram sample where the kind feeds one. A
    /// stage goes in as `emit(EventKind::Stage, .., pack_stage(stage, ns))`,
    /// a journey attempt as `emit(EventKind::Attempt, .., pack_attempt(..))`.
    #[inline]
    pub fn emit(&self, kind: EventKind, conn_id: u64, trace_id: u64, payload: u64) {
        if self.enabled {
            self.book_and_record(kind, conn_id, trace_id, payload);
        }
    }

    /// The enabled half of [`Telemetry::emit`], kept out of line so a call
    /// site carries the boolean test and a call, not the fan-out.
    #[inline(never)]
    fn book_and_record(&self, kind: EventKind, conn_id: u64, trace_id: u64, payload: u64) {
        let layer = match kind {
            EventKind::Stage => unpack_stage(payload).map_or(TraceLayer::Orb, |(s, _)| s.layer()),
            _ => kind.layer(),
        };
        let ev = TraceEvent {
            ts_ns: crate::now_ns(),
            conn_id,
            trace_id,
            layer,
            kind,
            payload,
        };
        crate::event::book(self, &ev);
        self.recorder.record(ev);
    }

    /// A [`RequestSpan`] that accumulates exactly when this instance is
    /// enabled. The one-boolean construction keeps the disabled path free
    /// of clock reads and atomics.
    #[inline]
    pub fn request_span(&self) -> RequestSpan {
        RequestSpan::new(self.enabled)
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The metrics registry, to read.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The ORB-wide transport totals, as of now.
    pub fn transport(&self) -> TransportTotals {
        self.transport.snapshot()
    }

    /// The windowed load signals, to read.
    pub fn windows(&self) -> &LoadWindows {
        &self.windows
    }

    /// Mirror one per-connection transport increment into the ORB-wide
    /// totals. This is the entry the transport's `StatsCell` calls when it
    /// holds a mirror handle — the handle only exists when telemetry is
    /// enabled, but the gate is kept so a stray call on a disabled instance
    /// still costs one boolean load. It runs per *frame* (every MTU-sized
    /// write/read), so it must stay a single relaxed add: the wire-byte
    /// rate windows are ticked per *message* by the GIOP connection layer
    /// via [`Telemetry::note_wire_tx`]/[`Telemetry::note_wire_rx`] instead
    /// of here, keeping the clock read off the per-frame path.
    #[inline]
    pub fn mirror_transport(&self, field: TransportField, n: u64) {
        if !self.enabled {
            return;
        }
        self.transport.add(field, n);
    }

    // The `note_*` methods below move the signals that are not events: a
    // byte rate, a level, a watermark, a per-block sample. Nothing they
    // touch is declared by an event kind, so no fact is booked twice.

    /// Tick the transmit byte-rate window with one message's worth of wire
    /// bytes (control body plus any separated deposit blocks). Called once
    /// per GIOP message send, not per frame.
    #[inline]
    pub fn note_wire_tx(&self, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.windows.wire_tx.tick(crate::now_ns(), bytes);
    }

    /// Tick the receive byte-rate window with one reassembled message body
    /// or one received deposit block. Called per message/block, not per
    /// frame.
    #[inline]
    pub fn note_wire_rx(&self, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.windows.wire_rx.tick(crate::now_ns(), bytes);
    }

    /// A dispatch began: raise the in-flight gauge.
    #[inline]
    pub fn note_dispatch_begin(&self) {
        if !self.enabled {
            return;
        }
        self.windows.inflight.add(1);
    }

    /// A dispatch finished: lower the in-flight gauge.
    #[inline]
    pub fn note_dispatch_end(&self) {
        if !self.enabled {
            return;
        }
        self.windows.inflight.sub(1);
    }

    /// A GIOP connection opened.
    #[inline]
    pub fn note_conn_open(&self) {
        if !self.enabled {
            return;
        }
        self.windows.conns.add(1);
    }

    /// A GIOP connection closed.
    #[inline]
    pub fn note_conn_closed(&self) {
        if !self.enabled {
            return;
        }
        self.windows.conns.sub(1);
    }

    /// Fold an in-progress fragment-reassembly size into its watermark.
    #[inline]
    pub fn note_reassembly_bytes(&self, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.windows.reassembly_bytes.record(bytes);
    }

    /// One data block came off the data path in `frames` wire fragments,
    /// stamped `sent_ns` ([`crate::now_ns`] clock; `0` = unstamped) when it
    /// was put on the wire: one sample each for the fragments-per-block and
    /// the data-path flight-time histograms.
    #[inline]
    pub fn note_data_block(&self, frames: u64, sent_ns: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.frames_per_block.record(frames);
        if sent_ns != 0 {
            if let Some(flight_ns) = crate::now_ns().checked_sub(sent_ns) {
                self.metrics.data_wire_ns.record(flight_ns);
            }
        }
    }

    /// `Some(self)` when enabled — the handle a per-connection stats cell
    /// should mirror into, `None` (mirror nothing, pay nothing) otherwise.
    pub fn transport_mirror(self: &Arc<Self>) -> Option<Arc<Telemetry>> {
        if self.enabled {
            Some(Arc::clone(self))
        } else {
            None
        }
    }

    /// Render the last `n` events of `conn_id` as a post-mortem, one event
    /// per line. `None` when disabled.
    pub fn post_mortem(&self, conn_id: u64, n: usize) -> Option<String> {
        if !self.enabled {
            return None;
        }
        Some(crate::report::render_post_mortem(
            conn_id,
            &self.recorder.recent_for_conn(conn_id, n),
        ))
    }

    /// Assemble the unified [`OrbTelemetry`] report from this instance plus
    /// the copy-meter and pool snapshots the caller owns.
    pub fn orb_snapshot(&self, copies: CopySnapshot, pool: PoolStats) -> OrbTelemetry {
        // Fold the instantaneous pool occupancy into its watermark first,
        // so the reported peak is never below the value in this snapshot.
        if self.enabled {
            self.windows.pool_retained.record(pool.retained_bytes);
        }
        OrbTelemetry {
            enabled: self.enabled,
            copies,
            pool,
            transport: self.transport.snapshot(),
            metrics: self.metrics.snapshot(),
            load: self.windows.snapshot(crate::now_ns()),
            events_recorded: self.recorder.recorded(),
            events_dropped: self.recorder.dropped(),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("recorder", &self.recorder)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::disabled();
        t.emit(EventKind::RequestSent, 1, 2, 3);
        assert!(!t.is_enabled());
        assert_eq!(t.recorder().recorded(), 0);
        assert_eq!(t.metrics().requests_sent.get(), 0);
        assert!(t.transport_mirror().is_none());
        assert!(t.post_mortem(1, 8).is_none());
    }

    #[test]
    fn enabled_records_and_snapshots() {
        let t = Telemetry::with_capacity(16);
        t.emit(EventKind::RequestSent, 1, 42, 100);
        t.emit(EventKind::Invoke, 1, 42, 1234);
        let snap = t.orb_snapshot(CopySnapshot::default(), PoolStats::default());
        assert!(snap.enabled);
        assert_eq!(snap.events_recorded, 2);
        assert_eq!(snap.metrics.requests_sent, 1);
        assert_eq!(snap.metrics.request_latency_ns.count, 1);
        assert_eq!(snap.metrics.request_latency_ns.sum, 1234);
        let events = t.recorder().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].trace_id, 42);
        assert_eq!(events[0].layer, TraceLayer::Giop);
        assert!(events[1].ts_ns >= events[0].ts_ns);
    }

    #[test]
    fn stage_events_are_filed_under_their_stage_layer() {
        let t = Telemetry::with_capacity(16);
        t.emit(
            EventKind::Stage,
            1,
            2,
            crate::pack_stage(crate::Stage::Wire, 30),
        );
        // An unknown stage byte still leaves its event, under the kind's layer.
        t.emit(EventKind::Stage, 1, 2, 0xFF << 56);
        let events = t.recorder().events();
        assert_eq!(events[0].layer, TraceLayer::Transport);
        assert_eq!(events[1].layer, EventKind::Stage.layer());
        assert_eq!(t.metrics().snapshot().stage_ns.total_count(), 1);
    }

    #[test]
    fn post_mortem_mentions_events() {
        let t = Telemetry::with_capacity(16);
        t.emit(EventKind::SpecMiss, 9, 7, 4096);
        let pm = t.post_mortem(9, 8).unwrap();
        assert!(pm.contains("spec-miss"), "{pm}");
        assert!(pm.contains("4096"), "{pm}");
        let empty = t.post_mortem(12345, 8).unwrap();
        assert!(empty.contains("no recorded events"), "{empty}");
    }
}
