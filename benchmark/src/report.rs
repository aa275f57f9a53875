//! The metric tables (names and units, as `BENCHMARK.json` lists them) and
//! the two forms a result is printed in: a table for people, and the JSON
//! object on the last line for the driver.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("goodput_mbit_s", "Mbit/s"),
    ("ops_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("allocs_per_op", "count"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("buffers.pool_acquire_release_ns", "ns"),
    ("buffers.zcbytes_clone_slice_ns", "ns"),
    ("buffers.aligned_zeroed_ns", "ns"),
    ("buffers.pool_acquires_per_op", "count"),
    ("buffers.pool_reuse_ratio", "ratio"),
    ("buffers.pool_discards_per_op", "count"),
    ("buffers.copy_factor", "ratio"),
    ("cdr.encode_args_ns", "ns"),
    ("cdr.decode_args_ns", "ns"),
    ("cdr.copy_bytes_per_op", "B"),
    ("giop.header_codec_ns", "ns"),
    ("giop.fragment_reassemble_ns", "ns"),
    ("giop.control_frames_per_op", "count"),
    ("transport.control_rtt_ns", "ns"),
    ("transport.data_block_ns", "ns"),
    ("transport.wire_bytes_per_op", "B"),
    ("transport.frames_per_op", "count"),
    ("transport.copy_bytes_per_op", "B"),
    ("transport.spec_hit_ratio", "ratio"),
    ("transport.deposit_fallback_bytes_per_op", "B"),
    ("core.client_marshal_ns", "ns"),
    ("core.invoke_ns", "ns"),
    ("core.client_demarshal_ns", "ns"),
    ("core.servant_demarshal_ns", "ns"),
    ("core.servant_reply_ns", "ns"),
    ("core.dispatch_ns", "ns"),
    ("core.invoke_self_ns", "ns"),
    ("core.unattributed_ns", "ns"),
    ("core.unattributed_pct", "%"),
    ("core.admission_gate_ns", "ns"),
    ("core.allocs_client_per_op", "count"),
    ("core.allocs_server_per_op", "count"),
    ("core.alloc_bytes_per_op", "B"),
    ("core.retries_per_op", "count"),
    ("core.sheds_per_op", "count"),
    ("trace.telemetry_cost_ns", "ns"),
    ("trace.span_commit_ns", "ns"),
    ("trace.disabled_note_ns", "ns"),
    ("trace.events_per_op", "count"),
    ("trace.recorder_drops_per_op", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.rtt_p99_us", "us"),
];

/// Measured values by metric name, each with an optional note (sample
/// count, quartiles) for the human-readable table.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, (f64, String)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.note(name, value, String::new());
    }

    pub fn note(&mut self, name: &'static str, value: f64, note: String) {
        self.0.insert(name, (value, note));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(v, _)| *v)
    }
}

/// One run's outcome, ready to print.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// The metric table for people: every metric of `table`, by name, with its
/// unit. A metric the run did not set is a bug in the harness.
pub fn table_text(table: &[(&str, &str)], values: &Values) -> String {
    let mut out = String::new();
    for &(name, unit) in table {
        let (value, note) = values
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"));
        writeln!(out, "  {name:<40} {value:>16.4} {unit:<7} {note}").expect("write to String");
    }
    out
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the last holding every metric of `table`.
pub fn json_line(table: &[(&str, &str)], outcome: &Outcome) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.values.get(name);
            // JSON has no NaN or infinity; a metric that could not be
            // computed reads 0 rather than breaking the line.
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("a_ms", 1.25);
        values.set("b", f64::NAN);
        let line = json_line(
            &[("a_ms", "ms"), ("b", "count")],
            &Outcome {
                correct: true,
                attempted: 10,
                failed: 0,
                values,
            },
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    /// `BENCHMARK.json` is the contract the driver reads; the tables above
    /// are what the program prints. They must name the same metrics with
    /// the same units, and the same workloads.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for spec in crate::workload::SPECS {
            let entry = format!("{{\"name\": \"{}\", \"why\"", spec.name);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let named = json.matches("{\"name\": ").count();
        assert_eq!(
            named,
            END_TO_END.len() + PER_LAYER.len() + crate::workload::SPECS.len(),
            "BENCHMARK.json lists a metric or workload the program does not know"
        );
    }
}
