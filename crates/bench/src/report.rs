//! The shared §5.2 reporter: one consistent rendering of the
//! stage-latency × copy-accounting breakdown, used by every harness
//! binary (text and `--json` views alike).
//!
//! "We instrumented the ORB source code to pinpoint the sources of this
//! overhead." — the breakdown joins three accounts of the same requests:
//!
//! 1. the **request-span stage clocks** (`zc_trace::Stage`) measured on
//!    this host;
//! 2. the **copy-meter bytes** per [`CopyLayer`];
//! 3. the **modeled stage budget** on the calibrated P-II testbed
//!    ([`zc_simnet::stage_budget`]).
//!
//! Columns are the paper's three ORB configurations: the standard ORB on
//! the standard stack, the zero-copy ORB on the standard stack ("ZC
//! marshal only" — the marshal loop is gone but the socket still copies),
//! and the all-zero-copy combination.

use std::fmt::Write as _;

use zc_buffers::{CopyLayer, CopySnapshot};
use zc_json::{Layout, Writer};
use zc_simnet::{stage_budget, Scenario, StageBudget};
use zc_trace::{HistogramSnapshot, Stage, StageSnapshots};
use zc_ttcp::{run_measured, LatencyStats, Series, TtcpParams, TtcpTransport, TtcpVersion};

/// The three §5.2 columns, in paper order.
pub const BREAKDOWN_CONFIGS: [(TtcpVersion, &str); 3] = [
    (TtcpVersion::CorbaStd, "standard"),
    (TtcpVersion::CorbaZcOverTcp, "zc-marshal-only"),
    (TtcpVersion::CorbaZc, "all-zc"),
];

/// Copy layers shown in the breakdown, in data-path order.
pub const BREAKDOWN_COPY_LAYERS: [CopyLayer; 7] = [
    CopyLayer::Marshal,
    CopyLayer::SocketSend,
    CopyLayer::KernelFrag,
    CopyLayer::KernelDefrag,
    CopyLayer::SocketRecv,
    CopyLayer::Demarshal,
    CopyLayer::DepositFallback,
];

/// One measured+modeled column of the breakdown table.
#[derive(Debug, Clone)]
pub struct BreakdownColumn {
    /// Which TTCP version this column ran.
    pub version: TtcpVersion,
    /// Short config name (`standard` / `zc-marshal-only` / `all-zc`).
    pub config: &'static str,
    /// Measured goodput on this host.
    pub mbit_s: f64,
    /// Overhead bytes copied per payload byte.
    pub overhead_copy_factor: f64,
    /// Receive-speculation hit rate (zero-copy stack only).
    pub spec_hit_rate: f64,
    /// Per-stage latency histograms from the request spans.
    pub stages: StageSnapshots,
    /// Data-block wire flight time.
    pub data_wire_ns: HistogramSnapshot,
    /// Copy-meter delta over the timed section.
    pub copies: CopySnapshot,
    /// Modeled per-stage seconds for one block on the paper testbed.
    pub modeled: StageBudget,
}

/// The full breakdown: three columns over one block size.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Payload bytes per request.
    pub block_bytes: usize,
    /// Total payload moved per column.
    pub total_bytes: usize,
    /// Substrate the measured runs used.
    pub transport: TtcpTransport,
    /// One column per configuration of [`BREAKDOWN_CONFIGS`].
    pub columns: Vec<BreakdownColumn>,
}

/// Run the three configurations traced and collect the joined breakdown.
pub fn run_breakdown(
    block_bytes: usize,
    total_bytes: usize,
    transport: TtcpTransport,
) -> Breakdown {
    let columns = BREAKDOWN_CONFIGS
        .iter()
        .map(|&(version, config)| {
            let mut p = TtcpParams::new(version, block_bytes, total_bytes);
            p.transport = transport;
            p.traced = true;
            let out = run_measured(&p);
            let t = out.telemetry.expect("traced run produces telemetry");
            let (socket, orb) = version.to_modes();
            BreakdownColumn {
                version,
                config,
                mbit_s: out.mbit_s,
                overhead_copy_factor: out.overhead_copy_factor,
                spec_hit_rate: t.spec_hit_rate(),
                stages: t.metrics.stage_ns,
                data_wire_ns: t.metrics.data_wire_ns,
                copies: out.copies,
                modeled: stage_budget(&Scenario::on_testbed(socket, orb, block_bytes)),
            }
        })
        .collect();
    Breakdown {
        block_bytes,
        total_bytes,
        transport,
        columns,
    }
}

fn transport_name(t: TtcpTransport) -> &'static str {
    match t {
        TtcpTransport::Sim => "sim",
        TtcpTransport::Tcp => "tcp",
    }
}

/// Render the breakdown as an aligned text table: stage rows (p50 µs per
/// request), then copy-meter bytes per payload byte, then the modeled
/// per-block budget.
pub fn render_breakdown_text(b: &Breakdown) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## §5.2 overhead breakdown — {} blocks, {} total, {} transport\n",
        zc_ttcp::report::human_size(b.block_bytes),
        zc_ttcp::report::human_size(b.total_bytes),
        transport_name(b.transport),
    );
    let _ = write!(out, "{:<24}", "");
    for c in &b.columns {
        let _ = write!(out, "{:>18}", c.config);
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "-- measured stage p50 (µs/request) --");
    for stage in Stage::ALL {
        if b.columns.iter().all(|c| c.stages.get(stage).count == 0) {
            continue;
        }
        let _ = write!(out, "{:<24}", stage.name());
        for c in &b.columns {
            let h = c.stages.get(stage);
            if h.count == 0 {
                let _ = write!(out, "{:>18}", "-");
            } else {
                let _ = write!(out, "{:>18.1}", h.quantile(0.5) as f64 / 1e3);
            }
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<24}", "data wire (p50 µs)");
    for c in &b.columns {
        if c.data_wire_ns.count == 0 {
            let _ = write!(out, "{:>18}", "-");
        } else {
            let _ = write!(out, "{:>18.1}", c.data_wire_ns.quantile(0.5) as f64 / 1e3);
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "-- copy-meter bytes per payload byte --");
    let payload = b.total_bytes as f64;
    for layer in BREAKDOWN_COPY_LAYERS {
        if b.columns.iter().all(|c| c.copies.bytes(layer) == 0) {
            continue;
        }
        let _ = write!(out, "{:<24}", layer.name());
        for c in &b.columns {
            let _ = write!(out, "{:>18.3}", c.copies.bytes(layer) as f64 / payload);
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(out, "-- summary --");
    let _ = write!(out, "{:<24}", "goodput (Mbit/s)");
    for c in &b.columns {
        let _ = write!(out, "{:>18.1}", c.mbit_s);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<24}", "copy factor (×payload)");
    for c in &b.columns {
        let _ = write!(out, "{:>18.3}", c.overhead_copy_factor);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<24}", "spec hit rate");
    for c in &b.columns {
        let _ = write!(out, "{:>18.3}", c.spec_hit_rate);
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "-- modeled per-block budget (ms, P-II 400 / GbE) --");
    for (name, pick) in MODELED_ROWS {
        let _ = write!(out, "{:<24}", name);
        for c in &b.columns {
            let _ = write!(out, "{:>18.3}", pick(&c.modeled) * 1e3);
        }
        let _ = writeln!(out);
    }
    out
}

type BudgetPick = fn(&StageBudget) -> f64;

/// The modeled rows, in causal order (names match the JSON keys).
pub const MODELED_ROWS: [(&str, BudgetPick); 7] = [
    ("marshal", |m| m.marshal_s),
    ("send-copy", |m| m.send_copy_s),
    ("wire", |m| m.wire_s),
    ("recv-copy", |m| m.recv_copy_s),
    ("demarshal", |m| m.demarshal_s),
    ("fixed", |m| m.fixed_s),
    ("total", |m| m.total()),
];

/// The `count`/`mean_ns`/`p50_ns`/`p99_ns` summary of one histogram.
fn histogram_summary(w: &mut Writer, h: &HistogramSnapshot) {
    w.field("count", h.count)
        .field("mean_ns", format_args!("{:.0}", h.mean()))
        .field("p50_ns", h.quantile(0.5))
        .field("p99_ns", h.quantile(0.99));
}

/// Write one breakdown column as a JSON object.
fn breakdown_column(w: &mut Writer, c: &BreakdownColumn, payload_bytes: usize) {
    w.begin_object(Layout::Compact)
        .field_str("config", c.config)
        .field_str("version", c.version.label())
        .field("mbit_s", format_args!("{:.3}", c.mbit_s))
        .field(
            "overhead_copy_factor",
            format_args!("{:.4}", c.overhead_copy_factor),
        )
        .field("spec_hit_rate", format_args!("{:.4}", c.spec_hit_rate));
    w.key("stages").begin_array(Layout::Compact);
    for (stage, h) in c.stages.iter().filter(|(_, h)| h.count != 0) {
        w.begin_object(Layout::Compact)
            .field_str("stage", stage.name());
        histogram_summary(w, h);
        w.end();
    }
    w.end();
    w.key("copy_bytes").begin_object(Layout::Compact);
    for layer in BREAKDOWN_COPY_LAYERS {
        w.field(layer.name(), c.copies.bytes(layer));
    }
    w.end();
    w.field("payload_bytes", payload_bytes);
    let wire = &c.data_wire_ns;
    if wire.count != 0 {
        w.key("data_wire_ns").begin_object(Layout::Compact);
        histogram_summary(w, wire);
        w.end();
        w.field("data_wire_p50_ns", wire.quantile(0.5))
            .field("data_wire_p99_ns", wire.quantile(0.99));
    }
    w.key("modeled_ms").begin_object(Layout::Compact);
    for (name, pick) in MODELED_ROWS {
        w.field(name, format_args!("{:.6}", pick(&c.modeled) * 1e3));
    }
    w.end().end();
}

/// Render the whole breakdown as one JSON object.
pub fn render_breakdown_json(b: &Breakdown) -> String {
    let mut w = Writer::new();
    w.begin_object(Layout::Compact)
        .field("block_bytes", b.block_bytes)
        .field("total_bytes", b.total_bytes)
        .field_str("transport", transport_name(b.transport));
    w.key("columns").begin_array(Layout::Compact);
    for c in &b.columns {
        breakdown_column(&mut w, c, b.total_bytes);
    }
    w.end().end();
    w.finish()
}

/// Render a figure series set as one JSON object (the `--json` view of
/// [`zc_ttcp::format_series_table`]).
pub fn series_json(title: &str, sizes: &[usize], series: &[Series]) -> String {
    let mut w = Writer::new();
    w.begin_object(Layout::Compact).field_str("title", title);
    w.key("block_bytes").begin_array(Layout::Spaced);
    for size in sizes {
        w.value(size);
    }
    w.end();
    w.key("series").begin_array(Layout::Compact);
    for s in series {
        w.begin_object(Layout::Compact).field_str("name", &s.name);
        w.key("mbit_s").begin_array(Layout::Compact);
        for v in &s.values {
            w.value(format_args!("{v:.3}"));
        }
        w.end().end();
    }
    w.end().end();
    w.finish()
}

/// Render one latency measurement as a JSON object.
pub fn latency_json(version: TtcpVersion, msg_bytes: usize, s: &LatencyStats) -> String {
    let mut w = Writer::new();
    w.begin_object(Layout::Compact)
        .field_str("version", version.label())
        .field("msg_bytes", msg_bytes)
        .field("rounds", s.rounds);
    for (key, us) in [
        ("min_us", s.min_us),
        ("p50_us", s.p50_us),
        ("p90_us", s.p90_us),
        ("p99_us", s.p99_us),
        ("max_us", s.max_us),
        ("mean_us", s.mean_us),
    ] {
        w.field(key, format_args!("{us:.2}"));
    }
    w.end();
    w.finish()
}

/// One goodput point of a measured sweep.
#[derive(Debug, Clone)]
pub struct GoodputPoint {
    /// TTCP version label.
    pub version: TtcpVersion,
    /// Substrate name (`sim` / `tcp`).
    pub transport: &'static str,
    /// Payload bytes per block.
    pub block_bytes: usize,
    /// Calibrated-testbed prediction, Mbit/s.
    pub modeled_mbit_s: f64,
    /// Measured on this host, Mbit/s.
    pub measured_mbit_s: f64,
    /// Overhead bytes copied per payload byte.
    pub overhead_copy_factor: f64,
    /// Receive-speculation hit rate.
    pub spec_hit_rate: f64,
}

/// Render one goodput point as a JSON object (the `--json` sweep view).
pub fn goodput_json(g: &GoodputPoint) -> String {
    let mut w = Writer::new();
    w.begin_object(Layout::Spaced)
        .field_str("version", g.version.label())
        .field_str("transport", g.transport)
        .field("block_bytes", g.block_bytes)
        .field("modeled_mbit_s", format_args!("{:.3}", g.modeled_mbit_s))
        .field("measured_mbit_s", format_args!("{:.3}", g.measured_mbit_s))
        .field(
            "overhead_copy_factor",
            format_args!("{:.4}", g.overhead_copy_factor),
        )
        .field("spec_hit_rate", format_args!("{:.4}", g.spec_hit_rate))
        .end();
    w.finish()
}

/// Print a telemetry snapshot in the shared format: JSON lines under
/// `--json`, the aligned text table (with the request-span stage section)
/// otherwise.
pub fn print_telemetry(label: &str, t: &zc_trace::OrbTelemetry, json: bool) {
    if json {
        print!("{}", t.json_lines());
    } else {
        println!("\n{label}:");
        print!("{}", t.text_table());
    }
}

/// The common `--json` flag: every harness binary switches its report
/// format with it.
pub fn json_flag() -> bool {
    std::env::args().any(|a| a == "--json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shows_copy_stages_collapsing() {
        let b = run_breakdown(256 << 10, 2 << 20, TtcpTransport::Sim);
        assert_eq!(b.columns.len(), 3);
        let std_col = &b.columns[0];
        let zc_col = &b.columns[2];
        // CDR marshal bytes shrink to ~0 in the all-ZC column…
        assert!(std_col.copies.bytes(CopyLayer::Marshal) > 0);
        assert_eq!(zc_col.copies.bytes(CopyLayer::Marshal), 0);
        // …and the socket copies shrink to control-header dust (the bulk
        // payload crosses by reference; only small GIOP headers are copied).
        assert!(std_col.copies.bytes(CopyLayer::SocketSend) >= b.total_bytes as u64);
        assert!(zc_col.copies.bytes(CopyLayer::SocketSend) < (b.total_bytes / 100) as u64);
        // Stage clocks exist for both columns.
        assert!(std_col.stages.get(Stage::ClientMarshal).count > 0);
        assert!(zc_col.stages.get(Stage::ClientMarshal).count > 0);
        // Renderings carry the key sections.
        let text = render_breakdown_text(&b);
        assert!(text.contains("measured stage p50"));
        assert!(text.contains("copy-meter bytes"));
        assert!(text.contains("modeled per-block budget"));
        let json = render_breakdown_json(&b);
        assert!(json.contains("\"config\":\"standard\""));
        assert!(json.contains("\"config\":\"all-zc\""));
        assert!(json.contains("\"stage\":\"marshal\""));
        assert!(json.contains("\"modeled_ms\""));
    }

    #[test]
    fn series_json_shape() {
        let s = series_json("T", &[1024, 2048], &[Series::new("raw", vec![1.0, 2.0])]);
        assert!(s.contains("\"title\":\"T\""));
        assert!(s.contains("\"mbit_s\":[1.000,2.000]"));
    }
}
