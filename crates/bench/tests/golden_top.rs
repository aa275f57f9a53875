//! Golden-format test for `zc-top --once --json`: the machine summary
//! rendered from the pinned telemetry snapshot of
//! `crates/trace/tests/golden/snapshot.jsonl` (what a `_ZcTelemetry` server
//! would serve) is itself pinned byte for byte, and the snapshot still
//! parses into every field the dashboard reads.

use zc_bench::top::{delta, render_once_json, Source, TopDelta, TopSample, SUMMARY};

const SNAPSHOT: &str = include_str!("../../trace/tests/golden/snapshot.jsonl");

#[test]
fn once_json_matches_golden() {
    let s = TopSample::parse(SNAPSHOT).expect("golden snapshot parses");
    let d = TopDelta {
        elapsed_s: 0.25,
        goodput_mbit_s: 812.5,
        tx_mbit_s: 11.0,
        copied_bytes_delta: 4096.0,
        requests_delta: 100.0,
    };
    let actual = render_once_json(&s, &d, "127.0.0.1:47117") + "\n";
    let expected = include_str!("golden/zc_top_once.json");
    if expected != actual {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("zc_top_once.json");
        std::fs::write(&out, &actual).expect("write actual rendering");
        panic!(
            "zc-top --once --json drifted from tests/golden/zc_top_once.json; actual written to {}",
            out.display()
        );
    }
}

#[test]
fn golden_snapshot_roundtrips_through_the_parser() {
    let s = TopSample::parse(SNAPSHOT).expect("golden snapshot parses");
    assert!(s.enabled);
    assert_eq!(s.num("counter.brownout_sheds"), 134.0);
    assert_eq!(s.num("histogram.data_wire_ns.p99"), 5_242_884.0);
    assert_eq!(s.num("transport.spec_misses"), 1070.0);
    assert_eq!(s.num("copies.deposit-fallback.bytes"), 32_875.0);
    assert_eq!(s.num("load.failover_per_s"), 0.062);
    assert_eq!(s.num("load.pool_retained_peak"), (1u64 << 21) as f64);
    assert_eq!(s.stage_p99s().len(), 10);
    assert_eq!(s.total_copied_bytes(), 148_284.0);
    // Every summary key read from the snapshot has a non-zero source in
    // it, so a renamed section or field shows up as a zero here.
    let json = render_once_json(&s, &delta(&s, &s, 1.0), "e");
    for (key, source) in &SUMMARY {
        assert!(
            !matches!(source, Source::Sample(_)) || !json.contains(&format!("\"{key}\":0.000000")),
            "{key} reads zero from the golden snapshot"
        );
    }
}
