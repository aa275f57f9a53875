//! The one reporter. An experiment builds its records once (a flat one as
//! a text line beside its [`Member`]s, a structured one as a [`Row`]) and
//! hands them to a [`Reporter`], which owns the `--json` choice and the
//! output stream.
//!
//! The largest row is the §5.2 stage-latency × copy-accounting breakdown.
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
use std::io::{self, Write as _};
use std::process::ExitCode;

use zc_buffers::{CopyLayer, CopySnapshot};
use zc_json::{Layout, Writer};
use zc_simnet::{stage_budget, Scenario, StageBudget};
use zc_trace::{HistogramSnapshot, Stage, StageSnapshots};
use zc_ttcp::{format_series_table, run_measured, Series, TtcpParams, TtcpTransport, TtcpVersion};

/// One JSON member of a flat record.
pub enum Member<'a> {
    /// A string.
    Text(&'a str),
    /// A whole number.
    Count(u64),
    /// A real number, printed with this many decimals.
    Real(f64, usize),
}

/// One structured record of an experiment's output, renderable both ways.
pub trait Row {
    /// The human view, without its final newline.
    fn text(&self) -> String;
    /// The machine view: one JSON document.
    fn json(&self) -> String;
}

/// Where every experiment's output goes: text or JSON, chosen once.
pub struct Reporter<'a> {
    out: Box<dyn io::Write + 'a>,
    json: bool,
    io_error: Option<io::Error>,
    failed: bool,
}

impl<'a> Reporter<'a> {
    /// Report to `out`, as JSON when `json`. A binary passes its locked
    /// stdout, so the whole run writes through one handle.
    pub fn new(out: impl io::Write + 'a, json: bool) -> Reporter<'a> {
        Reporter {
            out: Box::new(out),
            json,
            io_error: None,
            failed: false,
        }
    }

    /// After the first write error (a reader that closed the pipe, a full
    /// disk) nothing more is written; [`Reporter::finish`] reports it.
    fn line(&mut self, s: &str) {
        if self.io_error.is_none() {
            self.io_error = writeln!(self.out, "{s}").err();
        }
    }

    /// Prose for the human view only: headings, column names, readings.
    pub fn note(&mut self, text: &str) {
        if !self.json {
            self.line(text);
        }
    }

    /// One structured record, in the chosen format.
    pub fn row(&mut self, row: &dyn Row) {
        let rendered = if self.json { row.json() } else { row.text() };
        self.line(&rendered);
    }

    /// One flat record: its text line, or the same values as the members
    /// of one JSON object.
    pub fn record(&mut self, text: &str, members: &[(&str, Member)]) {
        if !self.json {
            return self.line(text);
        }
        let mut w = Writer::new();
        w.begin_object(Layout::Compact);
        for (key, member) in members {
            match *member {
                Member::Text(s) => w.field_str(key, s),
                Member::Count(n) => w.field(key, n),
                Member::Real(x, decimals) => w.field(key, format_args!("{x:.decimals$}")),
            };
        }
        w.end();
        self.line(&w.finish());
    }

    /// An experiment's own gate did not hold: said on stderr, and the
    /// process will exit 1.
    pub fn fail(&mut self, why: &str) {
        eprintln!("FAIL: {why}");
        self.failed = true;
    }

    /// Flush, and turn the run into an exit code. A closed pipe is a quiet
    /// end, not a failure; any other write error is one.
    pub fn finish(mut self) -> ExitCode {
        match self.io_error.or_else(|| self.out.flush().err()) {
            Some(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                eprintln!("cannot write the report: {e}");
                ExitCode::FAILURE
            }
            _ if self.failed => ExitCode::FAILURE,
            _ => ExitCode::SUCCESS,
        }
    }
}

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

impl Row for Breakdown {
    /// An aligned table: stage rows (p50 µs per request), then copy-meter
    /// bytes per payload byte, then the modeled per-block budget.
    fn text(&self) -> String {
        let mut out = format!(
            "## §5.2 overhead breakdown — {} blocks, {} total, {} transport\n\n",
            zc_ttcp::report::human_size(self.block_bytes),
            zc_ttcp::report::human_size(self.total_bytes),
            transport_name(self.transport),
        );
        // One table row: its label, then one right-aligned cell per column.
        let row = |out: &mut String, label: &str, cell: &dyn Fn(&BreakdownColumn) -> String| {
            let _ = write!(out, "{label:<24}");
            for c in &self.columns {
                let _ = write!(out, "{:>18}", cell(c));
            }
            out.push('\n');
        };
        let p50_us = |h: &HistogramSnapshot| match h.count {
            0 => "-".to_string(),
            _ => format!("{:.1}", h.quantile(0.5) as f64 / 1e3),
        };
        row(&mut out, "", &|c| c.config.to_string());

        out.push_str("-- measured stage p50 (µs/request) --\n");
        for stage in Stage::ALL {
            if self.columns.iter().any(|c| c.stages.get(stage).count != 0) {
                row(&mut out, stage.name(), &|c| p50_us(c.stages.get(stage)));
            }
        }
        row(&mut out, "data wire (p50 µs)", &|c| {
            p50_us(&c.data_wire_ns)
        });

        out.push_str("-- copy-meter bytes per payload byte --\n");
        let payload = self.total_bytes as f64;
        for layer in BREAKDOWN_COPY_LAYERS {
            if self.columns.iter().any(|c| c.copies.bytes(layer) != 0) {
                let share = |c: &BreakdownColumn| c.copies.bytes(layer) as f64 / payload;
                row(&mut out, layer.name(), &|c| format!("{:.3}", share(c)));
            }
        }

        out.push_str("-- summary --\n");
        row(&mut out, "goodput (Mbit/s)", &|c| {
            format!("{:.1}", c.mbit_s)
        });
        row(&mut out, "copy factor (×payload)", &|c| {
            format!("{:.3}", c.overhead_copy_factor)
        });
        row(&mut out, "spec hit rate", &|c| {
            format!("{:.3}", c.spec_hit_rate)
        });

        out.push_str("-- modeled per-block budget (ms, P-II 400 / GbE) --\n");
        for (name, pick) in MODELED_ROWS {
            row(&mut out, name, &|c| {
                format!("{:.3}", pick(&c.modeled) * 1e3)
            });
        }
        out.pop(); // the reporter ends the last line
        out
    }

    fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object(Layout::Compact)
            .field("block_bytes", self.block_bytes)
            .field("total_bytes", self.total_bytes)
            .field_str("transport", transport_name(self.transport));
        w.key("columns").begin_array(Layout::Compact);
        for c in &self.columns {
            breakdown_column(&mut w, c, self.total_bytes);
        }
        w.end().end();
        w.finish()
    }
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

/// A figure table: block sizes down the rows, one column per series.
pub struct SeriesTable<'a> {
    /// Heading of the table.
    pub title: &'a str,
    /// Block sizes, one per row.
    pub sizes: &'a [usize],
    /// Mbit/s columns.
    pub series: &'a [Series],
}

impl Row for SeriesTable<'_> {
    fn text(&self) -> String {
        format_series_table(self.title, self.sizes, self.series)
    }

    fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object(Layout::Compact)
            .field_str("title", self.title);
        w.key("block_bytes").begin_array(Layout::Spaced);
        for size in self.sizes {
            w.value(size);
        }
        w.end();
        w.key("series").begin_array(Layout::Compact);
        for s in self.series {
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
}

/// A telemetry snapshot under a label saying which run it is of: the
/// aligned text table (with the request-span stage section), or JSON lines.
pub struct TelemetryRow<'a>(pub &'a str, pub &'a zc_trace::OrbTelemetry);

impl Row for TelemetryRow<'_> {
    fn text(&self) -> String {
        format!("\n{}:\n{}", self.0, self.1.text_table().trim_end())
    }

    fn json(&self) -> String {
        let mut lines = self.1.json_lines();
        lines.truncate(lines.trim_end().len());
        lines
    }
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
        let text = b.text();
        assert!(text.contains("measured stage p50"));
        assert!(text.contains("copy-meter bytes"));
        assert!(text.contains("modeled per-block budget"));
        let json = b.json();
        assert!(json.contains("\"config\":\"standard\""));
        assert!(json.contains("\"config\":\"all-zc\""));
        assert!(json.contains("\"stage\":\"marshal\""));
        assert!(json.contains("\"modeled_ms\""));
    }

    #[test]
    fn series_json_shape() {
        let s = SeriesTable {
            title: "T",
            sizes: &[1024, 2048],
            series: &[Series::new("raw", vec![1.0, 2.0])],
        }
        .json();
        assert!(s.contains("\"title\":\"T\""));
        assert!(s.contains("\"mbit_s\":[1.000,2.000]"));
    }
}
