//! The unified telemetry report and its exporters.
//!
//! [`OrbTelemetry`] merges the three accounting systems — the copy meter
//! (`zc-buffers`), the transport totals (mirrored from every connection's
//! `ConnStats`) and the metrics registry — into one snapshot, exportable as
//! a human text table or machine-readable JSON lines. This module is the
//! *rendering* side of the crate: it allocates and formats freely, because
//! it runs only when a report is asked for, never on the request path.

use std::fmt::Write as _;

use zc_buffers::{CopyLayer, CopySnapshot, PoolStats};
use zc_json::{Layout, Writer};

use crate::event::TraceEvent;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot, TransportField, TransportTotals};
use crate::windows::LoadSnapshot;

/// A point-in-time, ORB-wide telemetry report.
#[derive(Debug, Clone, Copy)]
pub struct OrbTelemetry {
    /// Whether the producing [`crate::Telemetry`] was enabled (a disabled
    /// instance still snapshots meter/pool state, which is tracked
    /// unconditionally).
    pub enabled: bool,
    /// Per-layer copy accounting.
    pub copies: CopySnapshot,
    /// Deposit-buffer pool statistics (recycle hits).
    pub pool: PoolStats,
    /// Merged transport totals across all connections.
    pub transport: TransportTotals,
    /// ORB metrics (counters + histograms).
    pub metrics: MetricsSnapshot,
    /// Windowed load signals (rates + watermark gauges).
    pub load: LoadSnapshot,
    /// Flight-recorder record attempts.
    pub events_recorded: u64,
    /// Flight-recorder events dropped under contention.
    pub events_dropped: u64,
}

impl OrbTelemetry {
    /// Fraction of receive speculations that held.
    pub fn spec_hit_rate(&self) -> f64 {
        self.transport.spec_hit_rate()
    }

    /// Fraction of pool acquires served from the free list.
    pub fn pool_recycle_rate(&self) -> f64 {
        let total = self.pool.fresh_allocations + self.pool.reuses;
        if total == 0 {
            0.0
        } else {
            self.pool.reuses as f64 / total as f64
        }
    }

    /// Render as an aligned text table.
    pub fn text_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== zcorba telemetry ==");
        let _ = writeln!(
            out,
            "recorder            {:>14} events {:>10} dropped",
            self.events_recorded, self.events_dropped
        );
        let _ = writeln!(out, "-- copies (per layer) --");
        out.push_str(&self.copies.report());
        let _ = writeln!(
            out,
            "overhead-bytes      {:>14}",
            self.copies.overhead_bytes()
        );
        let _ = writeln!(out, "-- transport totals --");
        for f in TransportField::ALL {
            let v = self.transport.get(f);
            if v != 0 {
                let _ = writeln!(out, "{:<20}{v:>14}", f.name());
            }
        }
        let _ = writeln!(
            out,
            "spec_hit_rate       {:>14.3}",
            self.transport.spec_hit_rate()
        );
        let _ = writeln!(out, "-- pool --");
        let _ = writeln!(
            out,
            "fresh/reused        {:>14} {:>10}  (recycle rate {:.3})",
            self.pool.fresh_allocations,
            self.pool.reuses,
            self.pool_recycle_rate()
        );
        let _ = writeln!(out, "-- metrics --");
        for (name, v) in self.metrics.counters() {
            if v != 0 {
                let _ = writeln!(out, "{name:<20}{v:>14}");
            }
        }
        for (name, h) in self.metrics.histograms() {
            histogram_row(&mut out, name, h);
        }
        if self.metrics.stage_ns.total_count() != 0 {
            let _ = writeln!(out, "-- request-span stages (ns) --");
            for (stage, h) in self.metrics.stage_ns.iter() {
                histogram_row(&mut out, stage.name(), h);
            }
        }
        let _ = writeln!(
            out,
            "-- load ({}ms window) --",
            self.load.window_ns / 1_000_000
        );
        for (_, label, v) in self.load.rates() {
            let _ = writeln!(out, "{label:<20}{v:>14.1}");
        }
        for (name, g) in self.load.gauges() {
            let _ = writeln!(
                out,
                "{name:<20}{:>14} current {:>10} peak",
                g.current, g.peak
            );
        }
        out
    }

    /// Render as JSON lines: one self-describing object per line, keyed by
    /// a `"section"` field.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        section(&mut out, "recorder", |w| {
            w.field("enabled", self.enabled)
                .field("recorded", self.events_recorded)
                .field("dropped", self.events_dropped);
        });
        for layer in CopyLayer::ALL {
            let b = self.copies.bytes(layer);
            let e = self.copies.events(layer);
            if b != 0 || e != 0 {
                section(&mut out, "copies", |w| {
                    w.field_str("layer", layer.name())
                        .field("bytes", b)
                        .field("events", e);
                });
            }
        }
        section(&mut out, "transport", |w| {
            let rate = self.transport.spec_hit_rate();
            w.field("spec_hit_rate", format_args!("{rate:.6}"));
            for f in TransportField::ALL {
                w.field(f.name(), self.transport.get(f));
            }
        });
        section(&mut out, "pool", |w| {
            w.field("fresh_allocations", self.pool.fresh_allocations)
                .field("reuses", self.pool.reuses)
                .field("returns", self.pool.returns)
                .field("discards", self.pool.discards)
                .field("retained_bytes", self.pool.retained_bytes)
                .field(
                    "recycle_rate",
                    format_args!("{:.6}", self.pool_recycle_rate()),
                );
        });
        for (name, v) in self.metrics.counters() {
            section(&mut out, "counter", |w| {
                w.field_str("name", name).field("value", v);
            });
        }
        for (name, h) in self.metrics.histograms() {
            section(&mut out, "histogram", |w| histogram_fields(w, name, h));
        }
        for (stage, h) in self.metrics.stage_ns.iter() {
            if h.count != 0 {
                section(&mut out, "stage", |w| histogram_fields(w, stage.name(), h));
            }
        }
        section(&mut out, "load", |w| {
            w.field("window_ns", self.load.window_ns);
            for (name, _, v) in self.load.rates() {
                w.field(name, format_args!("{v:.3}"));
            }
            w.field("req_rx_total", self.load.req_rx_total);
            for (name, g) in self.load.gauges() {
                w.field(name, g.current)
                    .field(&format!("{name}_peak"), g.peak);
            }
        });
        out
    }
}

/// One text-table histogram row; empty histograms are left out.
fn histogram_row(out: &mut String, name: &str, h: &HistogramSnapshot) {
    if h.count != 0 {
        let _ = writeln!(
            out,
            "{name:<20}{:>10} samples  mean {:>12.0}  p50 {:>12}  p99 {:>12}  max {:>12}",
            h.count,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max
        );
    }
}

/// Append one JSON-lines record: a compact object opened with its
/// `"section"` tag and filled by `fill`.
fn section(out: &mut String, name: &str, fill: impl FnOnce(&mut Writer)) {
    let mut w = Writer::new();
    w.begin_object(Layout::Compact).field_str("section", name);
    fill(&mut w);
    w.end();
    out.push_str(&w.finish());
    out.push('\n');
}

fn histogram_fields(w: &mut Writer, name: &str, h: &HistogramSnapshot) {
    w.field_str("name", name)
        .field("count", h.count)
        .field("sum", h.sum)
        .field("min", h.min)
        .field("max", h.max)
        .field("mean", format_args!("{:.3}", h.mean()))
        .field("p50", h.quantile(0.5))
        .field("p90", h.quantile(0.9))
        .field("p99", h.quantile(0.99));
}

/// Render a connection post-mortem: the last events of one connection, one
/// line each, oldest first.
pub(crate) fn render_post_mortem(conn_id: u64, events: &[TraceEvent]) -> String {
    if events.is_empty() {
        return format!("conn {conn_id}: no recorded events\n");
    }
    let mut out = String::new();
    for e in events {
        // stage payloads pack (stage, duration); decode them for the reader
        if e.kind == crate::EventKind::Stage {
            if let Some((stage, dur_ns)) = crate::unpack_stage(e.payload) {
                let _ = writeln!(
                    out,
                    "{:>14}ns conn={} trace={} {:<10} {:<14} stage={} dur_ns={dur_ns}",
                    e.ts_ns,
                    e.conn_id,
                    e.trace_id,
                    e.layer.name(),
                    e.kind.name(),
                    stage.name()
                );
                continue;
            }
        }
        let _ = writeln!(
            out,
            "{:>14}ns conn={} trace={} {:<10} {:<14} payload={}",
            e.ts_ns,
            e.conn_id,
            e.trace_id,
            e.layer.name(),
            e.kind.name(),
            e.payload
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OrbTelemetry {
        let tele = crate::Telemetry::with_capacity(8);
        use crate::{pack_stage, EventKind, Stage};
        tele.emit(EventKind::RequestSent, 1, 2, 4096);
        tele.emit(EventKind::Invoke, 1, 2, 150_000);
        tele.emit(EventKind::DepositSent, 1, 2, 1 << 16);
        tele.mirror_transport(crate::TransportField::SpecHits, 3);
        tele.mirror_transport(crate::TransportField::WireBytesRecv, 9999);
        tele.emit(
            EventKind::Stage,
            1,
            2,
            pack_stage(Stage::ClientMarshal, 777),
        );
        tele.emit(EventKind::Stage, 1, 2, pack_stage(Stage::Wire, 12_000));
        tele.orb_snapshot(CopySnapshot::default(), PoolStats::default())
    }

    #[test]
    fn text_table_has_sections() {
        let t = sample().text_table();
        assert!(t.contains("zcorba telemetry"), "{t}");
        assert!(t.contains("spec_hit_rate"), "{t}");
        assert!(t.contains("request_latency_ns"), "{t}");
        assert!(t.contains("wire_bytes_recv"), "{t}");
        assert!(t.contains("request-span stages"), "{t}");
        assert!(t.contains("marshal"), "{t}");
    }

    #[test]
    fn json_lines_are_balanced_objects() {
        let j = sample().json_lines();
        for line in j.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
            assert!(line.contains("\"section\":"), "{line}");
        }
        assert!(j.contains("\"name\":\"request_latency_ns\""), "{j}");
        assert!(j.contains("\"spec_hit_rate\""), "{j}");
        assert!(j.contains("\"wire_bytes_recv\":9999"), "{j}");
        assert!(j.contains("\"section\":\"stage\""), "{j}");
        assert!(j.contains("\"name\":\"wire\""), "{j}");
    }

    #[test]
    fn post_mortem_decodes_stage_events() {
        let tele = crate::Telemetry::with_capacity(8);
        tele.emit(
            crate::EventKind::Stage,
            5,
            9,
            crate::pack_stage(crate::Stage::ServerDispatch, 4321),
        );
        let pm = tele.post_mortem(5, 8).unwrap();
        assert!(pm.contains("stage=dispatch"), "{pm}");
        assert!(pm.contains("dur_ns=4321"), "{pm}");
    }
}
