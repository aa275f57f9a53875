//! The experiment runner behind `zc-bench <experiment>`, and the library
//! halves of the two operator tools: `zc-top` (live [`top`], recorded
//! [`flame`]) and `demo_server`. [`experiments`] holds the table of
//! experiments, [`cli`] the one argument parser, [`report`] the one
//! reporter.
//!
//! The figure experiments print two views:
//!
//! 1. **modeled** — the calibrated 2003-testbed prediction (`zc-simnet`),
//!    which is what should be compared against the paper's absolute
//!    Mbit/s;
//! 2. **measured** — the same configuration really executed on this host
//!    through the operational stack (`zc-transport`/`zc-orb`), where the
//!    copies are real `memcpy`s; absolute numbers reflect *this* machine,
//!    but the ordering and the copy accounting must tell the same story.

pub mod cli;
pub mod experiments;
pub mod flame;
pub mod overload;
pub mod report;
pub mod top;

use std::sync::Arc;
use std::time::{Duration, Instant};

use zc_cdr::ZcOctetSeq;
use zc_orb::{OrbError, RetryPolicy};
use zc_trace::Telemetry;
use zc_transport::{FaultPlan, FaultSide, SimConfig};
use zc_ttcp::{run_measured, MeasuredOutcome, OrbPair, Sink, Stack, TtcpParams, TtcpVersion};

/// Block sizes for the measured sweep (a subset of the paper's range keeps
/// the runtime reasonable; `--full` asks for all sizes).
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

/// One measured point, optionally with telemetry enabled.
pub fn measured_point(version: TtcpVersion, block: usize, traced: bool) -> MeasuredOutcome {
    let mut p = TtcpParams::new(version, block, measured_total(block));
    p.traced = traced;
    run_measured(&p)
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

/// Run one fault-sweep point on the bed: a fresh simulated zero-copy
/// network with per-frame drop probability `drop_prob` on both sides, and
/// ORBs whose retry policy has fast backoffs and no circuit breaker (the
/// sweep measures recovery throughput, not fail-fast behaviour).
pub fn fault_sweep_point(drop_prob: f64, calls: u32, block_bytes: usize) -> FaultSweepPoint {
    let telemetry = Telemetry::with_capacity(1024);
    let pair = OrbPair::bring_up(
        Stack::Sim(SimConfig::zero_copy()),
        true,
        Arc::clone(&telemetry),
        |b| {
            b.retry(RetryPolicy {
                max_attempts: 6,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
                breaker_threshold: u32::MAX,
                ..RetryPolicy::default()
            })
        },
        Sink::default(),
    );
    let net = pair.net.as_ref().expect("a simulated pair");
    let payload = ZcOctetSeq::with_length(block_bytes);
    let expected: u64 = payload.iter().map(|&b| b as u64).sum();
    let call = || {
        let req = pair.obj.request("sum").idempotent().arg(&payload);
        let reply = req.expect("marshal").invoke()?;
        let sum: u64 = reply.result().expect("result");
        assert_eq!(sum, expected, "payload corrupted in flight");
        Ok::<(), OrbError>(())
    };

    call().expect("the warm-up call, before any fault");
    net.inject_faults(FaultPlan::drop(drop_prob).on(FaultSide::Both));
    let start = Instant::now();
    let ok = (0..calls).filter(|_| call().is_ok()).count() as u32;
    let failed = calls - ok;
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
}
