//! `zc-top` plumbing: parse `_ZcTelemetry` snapshot JSON lines into a flat
//! sample, compute poll-to-poll deltas, and render the operator dashboard
//! (terminal frame) or the `--once --json` machine summary.
//!
//! Kept in the library (not the binary) so the parsing and rendering are
//! unit-testable against snapshots produced by `zc_trace` itself — the
//! round-trip `OrbTelemetry::json_lines` → [`TopSample::parse`] is pinned
//! by tests, which is what keeps the dashboard honest as sections evolve.

use std::fmt::Write as _;

use zc_json::{Layout, Value, Writer};

use self::Source::{Delta, Sample};

/// One parsed `_ZcTelemetry` snapshot, flattened to `section.key` (and
/// `section.name.key` for named families) → numeric value.
#[derive(Debug, Clone)]
pub struct TopSample {
    fields: Vec<(String, f64)>,
    /// Whether the server's telemetry was enabled.
    pub enabled: bool,
}

impl TopSample {
    /// Parse the JSON-lines text served by `_ZcTelemetry::snapshot_json`.
    /// Unknown sections and non-numeric members are skipped, not errors:
    /// the poller must keep working against newer servers.
    pub fn parse(jsonl: &str) -> Result<TopSample, String> {
        let mut fields = Vec::new();
        let mut enabled = false;
        let mut saw_section = false;
        for line in jsonl.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = zc_json::parse(line).map_err(|e| format!("bad snapshot line: {e}: {line}"))?;
            let Some(section) = v.get("section").and_then(Value::as_str) else {
                continue;
            };
            saw_section = true;
            // Named families key by their discriminator; flat sections key
            // by the section name alone.
            let discriminator = v
                .get("name")
                .or_else(|| v.get("layer"))
                .and_then(Value::as_str);
            let prefix = match discriminator {
                Some(d) => format!("{section}.{d}"),
                None => section.to_string(),
            };
            for (k, val) in v.members().unwrap_or_default() {
                if k == "section" || k == "name" || k == "layer" {
                    continue;
                }
                // Counter lines carry a single `value` member; collapse it
                // onto the prefix so lookups read `counter.retries`.
                let key = if k == "value" {
                    prefix.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                match val {
                    Value::Num(n) => fields.push((key, *n)),
                    Value::Bool(b) => {
                        if section == "recorder" && k == "enabled" {
                            enabled = *b;
                        }
                        fields.push((key, if *b { 1.0 } else { 0.0 }));
                    }
                    _ => {}
                }
            }
        }
        if !saw_section {
            return Err("no telemetry sections in input".to_string());
        }
        Ok(TopSample { fields, enabled })
    }

    /// Look up a flattened field, e.g. `"load.req_per_s"` or
    /// `"stage.dispatch.p99"`.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Like [`TopSample::get`] with a `0.0` default — absent sections
    /// (e.g. no stage samples yet) read as zero.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Total bytes copied across every copy-meter layer.
    pub fn total_copied_bytes(&self) -> f64 {
        self.fields
            .iter()
            .filter(|(k, _)| k.starts_with("copies.") && k.ends_with(".bytes"))
            .map(|(_, v)| *v)
            .sum()
    }

    /// `(stage name, p99 ns)` for every stage present in the snapshot, in
    /// snapshot order.
    pub fn stage_p99s(&self) -> Vec<(&str, f64)> {
        self.fields
            .iter()
            .filter_map(|(k, v)| {
                let rest = k.strip_prefix("stage.")?;
                let stage = rest.strip_suffix(".p99")?;
                Some((stage, *v))
            })
            .collect()
    }
}

/// Poll-to-poll deltas computed client-side from two samples taken
/// `elapsed_s` apart.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopDelta {
    /// Wall-clock seconds between the two samples.
    pub elapsed_s: f64,
    /// Inbound wire throughput derived from the server's receive counter.
    pub goodput_mbit_s: f64,
    /// Outbound wire throughput derived from the send counter.
    pub tx_mbit_s: f64,
    /// Copy-meter movement between the polls (all layers).
    pub copied_bytes_delta: f64,
    /// Requests the server received between the polls.
    pub requests_delta: f64,
}

/// Compute deltas between two samples of the *same* server.
pub fn delta(prev: &TopSample, cur: &TopSample, elapsed_s: f64) -> TopDelta {
    let secs = if elapsed_s > 0.0 { elapsed_s } else { 1.0 };
    let d = |key: &str| (cur.num(key) - prev.num(key)).max(0.0);
    TopDelta {
        elapsed_s,
        goodput_mbit_s: d("transport.wire_bytes_recv") * 8.0 / secs / 1e6,
        tx_mbit_s: d("transport.wire_bytes_sent") * 8.0 / secs / 1e6,
        copied_bytes_delta: (cur.total_copied_bytes() - prev.total_copied_bytes()).max(0.0),
        requests_delta: d("counter.requests_received"),
    }
}

fn fmt_bytes(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} GiB", v / (1u64 << 30) as f64)
    } else if v >= 1e6 {
        format!("{:.2} MiB", v / (1u64 << 20) as f64)
    } else if v >= 1e3 {
        format!("{:.1} KiB", v / 1024.0)
    } else {
        format!("{v:.0} B")
    }
}

/// Render one refreshing dashboard frame.
pub fn render_frame(s: &TopSample, d: Option<&TopDelta>, endpoint: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "zc-top — {endpoint}   telemetry: {}",
        if s.enabled { "enabled" } else { "DISABLED" }
    );
    let _ = writeln!(out, "{}", "─".repeat(72));
    if let Some(d) = d {
        let _ = writeln!(
            out,
            "goodput   {:>10.1} Mbit/s in   {:>10.1} Mbit/s out   ({:.2}s window)",
            d.goodput_mbit_s, d.tx_mbit_s, d.elapsed_s
        );
        let _ = writeln!(
            out,
            "copies    {:>10} copied between polls   req Δ {:>8.0}",
            fmt_bytes(d.copied_bytes_delta),
            d.requests_delta
        );
    }
    let _ = writeln!(
        out,
        "load      {:>8.1} req/s   tx {:>12.0} B/s   rx {:>12.0} B/s   retries {:>6.2}/s",
        s.num("load.req_per_s"),
        s.num("load.wire_tx_bytes_per_s"),
        s.num("load.wire_rx_bytes_per_s"),
        s.num("load.retries_per_s"),
    );
    let _ = writeln!(
        out,
        "inflight  {:>4.0} (peak {:>4.0})   conns {:>4.0} (peak {:>4.0})   spec-hit {:>6.3}",
        s.num("load.inflight"),
        s.num("load.inflight_peak"),
        s.num("load.conns"),
        s.num("load.conns_peak"),
        s.num("transport.spec_hit_rate"),
    );
    let _ = writeln!(
        out,
        "health    breakers {:>3.0} (peak {:>3.0})   retries {:>6.0} total",
        s.num("load.breakers_open"),
        s.num("load.breakers_open_peak"),
        s.num("counter.retries"),
    );
    let _ = writeln!(
        out,
        "overload  shed {:>7.0} total ({:>6.2}/s)   brownout {:>7.0} ({:>6.2}/s)   failover {:>5.0} ({:>6.2}/s)",
        s.num("counter.sheds"),
        s.num("load.shed_per_s"),
        s.num("counter.brownout_sheds"),
        s.num("load.brownout_per_s"),
        s.num("counter.failovers"),
        s.num("load.failover_per_s"),
    );
    let _ = writeln!(
        out,
        "marks     reassembly peak {:>10}   pool retained {:>10} (peak {:>10})",
        fmt_bytes(s.num("load.reassembly_bytes_peak")),
        fmt_bytes(s.num("pool.retained_bytes")),
        fmt_bytes(s.num("load.pool_retained_peak")),
    );
    let _ = writeln!(
        out,
        "counters  rx {:>9.0}   ok {:>9.0}   exc {:>6.0}   brk {:>4.0}",
        s.num("counter.requests_received"),
        s.num("counter.replies_ok"),
        s.num("counter.replies_exception"),
        s.num("counter.breaker_opens"),
    );
    let p99s = s.stage_p99s();
    if !p99s.is_empty() {
        let _ = writeln!(out, "stage p99 (ns)");
        for chunk in p99s.chunks(3) {
            let mut line = String::from("  ");
            for (name, p99) in chunk {
                let _ = write!(line, "{name:<16}{p99:>12.0}   ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
    }
    let _ = writeln!(
        out,
        "recorder  {:>9.0} events   {:>6.0} dropped",
        s.num("recorder.recorded"),
        s.num("recorder.dropped"),
    );
    out
}

/// Where one field of the `--once --json` summary comes from.
pub enum Source {
    /// The constant `zcorba-top/v1`.
    Schema,
    /// The polled `HOST:PORT`.
    Endpoint,
    /// Whether the server's telemetry is enabled.
    Enabled,
    /// Computed client-side between two polls.
    Delta(fn(&TopDelta) -> f64),
    /// A flattened snapshot field, read with [`TopSample::num`].
    Sample(&'static str),
    /// The object of per-stage p99s.
    StageP99s,
}

/// The `--once --json` summary, one row per field in emission order: the
/// key and where its value comes from. [`render_once_json`] walks it,
/// `zc-top --keys` prints its first column for scripts (CI asserts the
/// emitted key set against that with one jq query), and the tests read the
/// same rows, so a key cannot be emitted under another field's value.
pub const SUMMARY: [(&str, Source); 36] = [
    ("schema", Source::Schema),
    ("endpoint", Source::Endpoint),
    ("enabled", Source::Enabled),
    ("goodput_mbit_s", Delta(|d| d.goodput_mbit_s)),
    ("tx_mbit_s", Delta(|d| d.tx_mbit_s)),
    ("copied_bytes_delta", Delta(|d| d.copied_bytes_delta)),
    ("poll_interval_s", Delta(|d| d.elapsed_s)),
    ("req_per_s", Sample("load.req_per_s")),
    ("wire_tx_bytes_per_s", Sample("load.wire_tx_bytes_per_s")),
    ("wire_rx_bytes_per_s", Sample("load.wire_rx_bytes_per_s")),
    ("retries_per_s", Sample("load.retries_per_s")),
    ("inflight", Sample("load.inflight")),
    ("inflight_peak", Sample("load.inflight_peak")),
    ("conns", Sample("load.conns")),
    ("conns_peak", Sample("load.conns_peak")),
    ("breakers_open", Sample("load.breakers_open")),
    ("breakers_open_peak", Sample("load.breakers_open_peak")),
    (
        "reassembly_peak_bytes",
        Sample("load.reassembly_bytes_peak"),
    ),
    ("pool_retained_bytes", Sample("pool.retained_bytes")),
    ("pool_retained_peak", Sample("load.pool_retained_peak")),
    ("requests_received", Sample("counter.requests_received")),
    ("replies_ok", Sample("counter.replies_ok")),
    ("replies_exception", Sample("counter.replies_exception")),
    ("retries_total", Sample("counter.retries")),
    ("reconnects_total", Sample("counter.reconnects")),
    ("breaker_opens_total", Sample("counter.breaker_opens")),
    ("sheds_total", Sample("counter.sheds")),
    ("brownout_sheds_total", Sample("counter.brownout_sheds")),
    ("failovers_total", Sample("counter.failovers")),
    ("shed_per_s", Sample("load.shed_per_s")),
    ("brownout_per_s", Sample("load.brownout_per_s")),
    ("failover_per_s", Sample("load.failover_per_s")),
    ("spec_hit_rate", Sample("transport.spec_hit_rate")),
    ("events_recorded", Sample("recorder.recorded")),
    ("events_dropped", Sample("recorder.dropped")),
    ("stage_p99_ns", Source::StageP99s),
];

/// Render the `--once --json` machine summary: one flat object carrying
/// exactly the rows of [`SUMMARY`].
pub fn render_once_json(s: &TopSample, d: &TopDelta, endpoint: &str) -> String {
    let mut w = Writer::new();
    w.begin_object(Layout::Compact);
    for (key, source) in &SUMMARY {
        match source {
            Source::Schema => w.field_str(key, "zcorba-top/v1"),
            Source::Endpoint => w.field_str(key, endpoint),
            Source::Enabled => w.field(key, s.enabled),
            Delta(pick) => w.field(key, format_args!("{:.6}", pick(d))),
            Sample(field) => w.field(key, format_args!("{:.6}", s.num(field))),
            Source::StageP99s => {
                w.key(key).begin_object(Layout::Compact);
                for (name, p99) in s.stage_p99s() {
                    w.field(name, format_args!("{p99:.0}"));
                }
                w.end()
            }
        };
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_buffers::{CopySnapshot, PoolStats};

    /// A real snapshot produced by zc-trace, round-tripped through the
    /// parser: this is the contract between the server and the dashboard.
    fn live_sample() -> TopSample {
        let tele = zc_trace::Telemetry::with_capacity(64);
        use zc_trace::{pack_stage, EventKind, Stage};
        tele.emit(EventKind::RequestReceived, 1, 7, 0);
        tele.emit(EventKind::RequestReceived, 1, 8, 0);
        tele.emit(EventKind::ReplyReceived, 1, 7, 0);
        tele.mirror_transport(zc_trace::TransportField::WireBytesRecv, 1 << 20);
        tele.emit(
            EventKind::Stage,
            1,
            7,
            pack_stage(Stage::ServerDispatch, 999),
        );
        tele.note_dispatch_begin();
        tele.note_reassembly_bytes(123_456);
        let snap = tele.orb_snapshot(CopySnapshot::default(), PoolStats::default());
        TopSample::parse(&snap.json_lines()).expect("parse own snapshot")
    }

    #[test]
    fn parses_live_snapshot_fields() {
        let s = live_sample();
        assert!(s.enabled);
        assert_eq!(s.num("counter.requests_received"), 2.0);
        assert_eq!(s.num("transport.wire_bytes_recv"), (1u64 << 20) as f64);
        assert_eq!(s.num("load.inflight"), 1.0);
        assert_eq!(s.num("load.reassembly_bytes_peak"), 123_456.0);
        let p99s = s.stage_p99s();
        assert!(
            p99s.iter().any(|(n, v)| *n == "dispatch" && *v > 0.0),
            "{p99s:?}"
        );
    }

    #[test]
    fn deltas_compute_goodput() {
        let tele = zc_trace::Telemetry::with_capacity(8);
        let snap = |t: &zc_trace::Telemetry| {
            TopSample::parse(
                &t.orb_snapshot(CopySnapshot::default(), PoolStats::default())
                    .json_lines(),
            )
            .unwrap()
        };
        let a = snap(&tele);
        tele.mirror_transport(zc_trace::TransportField::WireBytesRecv, 10_000_000);
        let b = snap(&tele);
        let d = delta(&a, &b, 2.0);
        // 10 MB in 2 s = 40 Mbit/s.
        assert!(
            (d.goodput_mbit_s - 40.0).abs() < 1e-6,
            "{}",
            d.goodput_mbit_s
        );
        // Counters are monotone, so deltas never go negative.
        let back = delta(&b, &a, 2.0);
        assert_eq!(back.goodput_mbit_s, 0.0);
    }

    #[test]
    fn frame_and_json_render() {
        let s = live_sample();
        let d = TopDelta {
            elapsed_s: 0.25,
            goodput_mbit_s: 812.5,
            tx_mbit_s: 11.0,
            copied_bytes_delta: 4096.0,
            requests_delta: 100.0,
        };
        let frame = render_frame(&s, Some(&d), "127.0.0.1:47117");
        assert!(frame.contains("zc-top"), "{frame}");
        assert!(frame.contains("goodput"), "{frame}");
        assert!(frame.contains("stage p99"), "{frame}");
        assert!(frame.contains("reassembly peak"), "{frame}");
        assert!(frame.contains("overload"), "{frame}");
        assert!(frame.contains("brownout"), "{frame}");
        assert!(frame.contains("failover"), "{frame}");

        let json = render_once_json(&s, &d, "127.0.0.1:47117");
        let v = zc_json::parse(&json).expect("valid json");
        assert_eq!(v.get("goodput_mbit_s").and_then(Value::as_f64), Some(812.5));
        assert!(
            v.get("stage_p99_ns")
                .and_then(|o| o.get("dispatch"))
                .is_some(),
            "{json}"
        );
    }

    /// The schema contract: the summary's members are the table's keys, in
    /// the table's order. CI's jq check trusts `--keys`, which prints them.
    #[test]
    fn json_summary_carries_exactly_the_table_keys() {
        let s = live_sample();
        let json = render_once_json(&s, &TopDelta::default(), "127.0.0.1:1");
        let v = zc_json::parse(&json).expect("valid json");
        let emitted: Vec<&str> = v
            .members()
            .expect("summary is an object")
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(emitted, SUMMARY.map(|(key, _)| key));
    }

    #[test]
    fn parse_rejects_garbage_but_skips_unknown_sections() {
        assert!(TopSample::parse("not json").is_err());
        assert!(TopSample::parse("").is_err());
        // Unknown sections are tolerated (forward compatibility).
        let s = TopSample::parse(
            "{\"section\":\"future_thing\",\"x\":1}\n{\"section\":\"recorder\",\"enabled\":true,\"recorded\":5,\"dropped\":0}\n",
        )
        .unwrap();
        assert!(s.enabled);
        assert_eq!(s.num("future_thing.x"), 1.0);
        assert_eq!(s.num("recorder.recorded"), 5.0);
    }
}
