//! Shared plumbing for the figure/table harness binaries.
//!
//! Every binary prints two views of its experiment:
//!
//! 1. **modeled** — the calibrated 2003-testbed prediction (`zc-simnet`),
//!    which is what should be compared against the paper's absolute
//!    Mbit/s;
//! 2. **measured** — the same configuration really executed on this host
//!    through the operational stack (`zc-transport`/`zc-orb`), where the
//!    copies are real `memcpy`s; absolute numbers reflect *this* machine,
//!    but the ordering and the copy accounting must tell the same story.

pub mod flame;
pub mod overload;
pub mod report;
pub mod top;

pub use flame::{
    analyze_spool_dir, reconstruct_journeys, Attempt, FlameAnalysis, Journey, FLAME_SCHEMA,
};

pub use overload::{
    probe_capacity, run_point as overload_point, run_sweep as overload_sweep, OverloadCurve,
    OverloadMode, OverloadParams, OverloadPoint,
};

pub use report::{
    json_flag, print_telemetry, render_breakdown_json, render_breakdown_text, run_breakdown,
    Breakdown, BreakdownColumn, BREAKDOWN_CONFIGS,
};

use zc_trace::OrbTelemetry;
use zc_ttcp::{run_measured, run_modeled, MeasuredOutcome, Series, TtcpParams, TtcpVersion};

/// Block sizes for the measured sweep (a subset of the paper's range keeps
/// harness runtime reasonable; pass `--full` to binaries for all sizes).
pub fn measured_block_sizes(full: bool) -> Vec<usize> {
    if full {
        zc_simnet::paper_block_sizes()
    } else {
        vec![4 << 10, 64 << 10, 1 << 20, 4 << 20]
    }
}

/// Total bytes to move per measured point (scales a little with block
/// size so small blocks don't take forever).
pub fn measured_total(block: usize) -> usize {
    (block * 16).clamp(8 << 20, 64 << 20)
}

/// Modeled series over the paper's full size range.
pub fn modeled_series(version: TtcpVersion, sizes: &[usize]) -> Series {
    Series::new(
        format!("{} (model)", version.label()),
        sizes.iter().map(|&b| run_modeled(version, b)).collect(),
    )
}

/// One measured point, optionally with telemetry enabled.
pub fn measured_point(version: TtcpVersion, block: usize, traced: bool) -> MeasuredOutcome {
    let mut p = TtcpParams::new(version, block, measured_total(block));
    p.traced = traced;
    run_measured(&p)
}

/// Measured series over the host (telemetry disabled).
pub fn measured_series(version: TtcpVersion, sizes: &[usize]) -> Series {
    measured_series_traced(version, sizes, false).0
}

/// Measured series over the host; when `traced`, every point runs with
/// telemetry enabled and the last point's merged [`OrbTelemetry`] snapshot
/// is returned alongside the throughput series.
pub fn measured_series_traced(
    version: TtcpVersion,
    sizes: &[usize],
    traced: bool,
) -> (Series, Option<OrbTelemetry>) {
    let mut last = None;
    let values = sizes
        .iter()
        .map(|&b| {
            let out = measured_point(version, b, traced);
            if out.telemetry.is_some() {
                last = out.telemetry;
            }
            out.mbit_s
        })
        .collect();
    (
        Series::new(format!("{} (host)", version.label()), values),
        last,
    )
}

/// Parse the common harness flags: `--full` widens the measured sweep.
pub fn full_flag() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// `--no-trace` turns the measured runs' telemetry off (fig5/fig6 trace by
/// default to exercise the observability path alongside the benchmark).
pub fn trace_flag() -> bool {
    !std::env::args().any(|a| a == "--no-trace")
}

// ---------------------------------------------------------------------------
// Fault sweep: goodput through the self-healing ORB under injected frame
// loss.
// ---------------------------------------------------------------------------

/// Outcome of one fault-sweep point: `calls` idempotent zero-copy echoes of
/// `block_bytes` payloads over a [`SimNetwork`] whose frames are dropped
/// (modeled as wire cuts) with probability `drop_prob`, driven through the
/// retrying, reconnecting ORB client.
#[derive(Debug, Clone, Copy)]
pub struct FaultSweepPoint {
    /// Per-frame drop probability injected into the simulated network.
    pub drop_prob: f64,
    /// Payload bytes per call.
    pub block_bytes: usize,
    /// Invocations attempted.
    pub calls: u32,
    /// Invocations that ultimately succeeded (possibly after retries).
    pub ok: u32,
    /// Invocations that exhausted the retry budget.
    pub failed: u32,
    /// Retry attempts recorded by the ORB.
    pub retries: u64,
    /// Replacement connections established.
    pub reconnects: u64,
    /// Application goodput: successfully echoed payload bytes per second
    /// of wall clock, in Mbit/s. Retries and reconnect stalls are paid for
    /// here — this is what frame loss costs the application.
    pub goodput_mbit_s: f64,
}

impl FaultSweepPoint {
    /// CSV row matching [`fault_sweep_csv_header`].
    pub fn to_csv_row(&self) -> String {
        format!(
            "{:.4},{},{},{},{},{},{},{:.2}",
            self.drop_prob,
            self.block_bytes,
            self.calls,
            self.ok,
            self.failed,
            self.retries,
            self.reconnects,
            self.goodput_mbit_s
        )
    }
}

/// Header for the fault-sweep CSV section.
pub fn fault_sweep_csv_header() -> &'static str {
    "drop_prob,block_bytes,calls,ok,failed,retries,reconnects,goodput_mbit_s"
}

struct ByteSum;

impl zc_orb::Servant for ByteSum {
    fn repo_id(&self) -> &'static str {
        "IDL:zcorba/bench/ByteSum:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut zc_orb::ServerRequest<'_>) -> zc_orb::OrbResult<()> {
        match op {
            "sum" => {
                let data: zc_cdr::ZcOctetSeq = req.arg()?;
                let sum: u64 = data.iter().map(|&b| b as u64).sum();
                req.result(&sum)
            }
            other => req.bad_operation(other),
        }
    }
}

/// Run one fault-sweep point: a fresh simulated network with per-frame
/// drop probability `drop_prob` on both sides, a zero-copy server, and a
/// client whose retry policy has fast backoffs and no circuit breaker (the
/// sweep measures recovery throughput, not fail-fast behaviour).
pub fn fault_sweep_point(drop_prob: f64, calls: u32, block_bytes: usize) -> FaultSweepPoint {
    use std::sync::Arc;
    use zc_orb::ObjectAdapterExt;

    let net = zc_transport::SimNetwork::new(zc_transport::SimConfig::zero_copy());
    let telemetry = zc_trace::Telemetry::with_capacity(1024);
    let server_orb = zc_orb::Orb::builder().sim(net.clone()).build();
    server_orb.adapter().register("bytesum", Arc::new(ByteSum));
    let server = server_orb.serve(0).expect("serve");
    let retry = zc_orb::RetryPolicy {
        max_attempts: 6,
        base_backoff: std::time::Duration::from_micros(100),
        max_backoff: std::time::Duration::from_millis(2),
        breaker_threshold: u32::MAX,
        ..zc_orb::RetryPolicy::default()
    };
    let client = zc_orb::Orb::builder()
        .sim(net.clone())
        .retry(retry)
        .telemetry(Arc::clone(&telemetry))
        .build();
    let obj = client
        .resolve(
            &server
                .ior_for("bytesum", "IDL:zcorba/bench/ByteSum:1.0")
                .expect("ior"),
        )
        .expect("resolve");

    let payload = zc_cdr::ZcOctetSeq::with_length(block_bytes);
    let expected: u64 = payload.iter().map(|&b| b as u64).sum();

    net.inject_faults(zc_transport::FaultPlan::drop(drop_prob).on(zc_transport::FaultSide::Both));

    let mut ok = 0u32;
    let mut failed = 0u32;
    let start = std::time::Instant::now();
    for _ in 0..calls {
        let outcome = obj
            .request("sum")
            .idempotent()
            .arg(&payload)
            .expect("marshal")
            .invoke();
        match outcome {
            Ok(reply) => {
                let sum: u64 = reply.result().expect("result");
                assert_eq!(sum, expected, "payload corrupted in flight");
                ok += 1;
            }
            Err(_) => failed += 1,
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    net.clear_faults();

    let metrics = telemetry.metrics();
    FaultSweepPoint {
        drop_prob,
        block_bytes,
        calls,
        ok,
        failed,
        retries: metrics.retries.get(),
        reconnects: metrics.reconnects.get(),
        goodput_mbit_s: (ok as f64 * block_bytes as f64 * 8.0) / elapsed / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sizes() {
        assert_eq!(measured_block_sizes(false).len(), 4);
        assert_eq!(measured_block_sizes(true).len(), 13);
        assert!(measured_total(4096) >= 8 << 20);
        assert!(measured_total(16 << 20) <= 64 << 20);
    }

    #[test]
    fn fault_sweep_point_lossless_baseline() {
        let pt = fault_sweep_point(0.0, 8, 4 << 10);
        assert_eq!(pt.ok, 8);
        assert_eq!(pt.failed, 0);
        assert_eq!(pt.retries, 0);
        assert!(pt.goodput_mbit_s > 0.0);
    }

    #[test]
    fn fault_sweep_point_recovers_under_loss() {
        let pt = fault_sweep_point(0.05, 24, 4 << 10);
        // Heavy loss must show recovery work, and most calls still land.
        assert!(pt.retries + pt.reconnects > 0);
        assert!(pt.ok > pt.calls / 2);
    }

    #[test]
    fn modeled_series_has_all_points() {
        let sizes = zc_simnet::paper_block_sizes();
        let s = modeled_series(TtcpVersion::RawTcp, &sizes);
        assert_eq!(s.values.len(), sizes.len());
        assert!(s.values.iter().all(|&v| v > 0.0));
    }
}
