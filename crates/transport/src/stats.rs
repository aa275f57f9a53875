//! Per-connection transport statistics.
//!
//! One vocabulary, one snapshot type: the cells are a
//! [`zc_trace::TransportCounters`] indexed by [`TransportField`] and
//! [`ConnStats`] *is* [`zc_trace::TransportTotals`], so a connection's
//! statistics and the ORB-wide telemetry mirror cannot drift apart. When
//! the owning context carries enabled telemetry, every increment is
//! mirrored into its totals in the same call — they then survive
//! connection teardown and merge across connections. With telemetry
//! disabled the mirror is `None` and the cost is exactly one relaxed
//! `fetch_add`, as before.

use std::sync::Arc;

pub use zc_trace::TransportField;
use zc_trace::{EventKind, Telemetry, TransportCounters};

/// Point-in-time statistics snapshot for one connection endpoint.
pub type ConnStats = zc_trace::TransportTotals;

/// Shared mutable counters behind a [`ConnStats`] snapshot.
#[derive(Debug, Default)]
pub struct StatsCell {
    cells: TransportCounters,
    mirror: Option<Arc<Telemetry>>,
}

impl StatsCell {
    /// Fresh shared counters, mirroring into `mirror`'s transport totals
    /// when `Some`.
    pub fn with_telemetry(mirror: Option<Arc<Telemetry>>) -> Arc<StatsCell> {
        Arc::new(StatsCell {
            cells: TransportCounters::default(),
            mirror,
        })
    }

    pub(crate) fn add(&self, field: TransportField, n: u64) {
        self.cells.add(field, n);
        if let Some(t) = &self.mirror {
            // Runs per frame, so it stays one relaxed add; the byte-rate
            // windows are ticked per message by the GIOP layer.
            t.mirror_transport(field, n);
        }
    }

    /// One zero-copy receive speculation over a `bytes`-long block on
    /// connection `conn_id` held (`hit`) or fell back to the copy. Counted
    /// here for `Connection::stats`, the per-connection view a client reads
    /// through `ObjectRef::transport_stats`; the ORB-wide total moves with
    /// the event telemetry books.
    pub(crate) fn speculated(&self, hit: bool, conn_id: u64, bytes: u64) {
        let (field, kind) = if hit {
            (TransportField::SpecHits, EventKind::SpecHit)
        } else {
            (TransportField::SpecMisses, EventKind::SpecMiss)
        };
        self.cells.add(field, 1);
        if let Some(t) = &self.mirror {
            t.emit(kind, conn_id, 0, bytes);
        }
    }

    /// Capture a snapshot.
    pub fn snapshot(&self) -> ConnStats {
        self.cells.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let c = StatsCell::with_telemetry(None);
        c.add(TransportField::ControlSent, 2);
        c.add(TransportField::BytesSent, 100);
        c.speculated(true, 1, 4096);
        c.add(TransportField::WireBytesRecv, 77);
        let s = c.snapshot();
        assert_eq!(s.control_sent, 2);
        assert_eq!(s.bytes_sent, 100);
        assert_eq!(s.spec_hits, 1);
        assert_eq!(s.spec_misses, 0);
        assert_eq!(s.wire_bytes_recv, 77);
    }

    #[test]
    fn mirror_receives_increments() {
        let tele = Telemetry::with_capacity(8);
        let c = StatsCell::with_telemetry(tele.transport_mirror());
        c.add(TransportField::WireBytesSent, 500);
        c.speculated(false, 7, 4096);
        c.speculated(false, 7, 4096);
        let totals = tele.transport();
        assert_eq!(totals.wire_bytes_sent, 500);
        assert_eq!(totals.spec_misses, 2);
        // The local cells count too, and each speculation left its event.
        assert_eq!(c.snapshot().wire_bytes_sent, 500);
        assert_eq!(c.snapshot().spec_misses, 2);
        assert_eq!(tele.recorder().recorded(), 2);
    }

    #[test]
    fn disabled_telemetry_installs_no_mirror() {
        let tele = Telemetry::disabled();
        let c = StatsCell::with_telemetry(tele.transport_mirror());
        c.add(TransportField::FramesSent, 3);
        assert_eq!(tele.transport().frames_sent, 0);
        assert_eq!(c.snapshot().frames_sent, 3);
    }
}
