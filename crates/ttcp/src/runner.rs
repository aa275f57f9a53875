//! The measured and modeled TTCP runners.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zc_buffers::{AlignedBuf, CopyMeter, CopySnapshot, ZcBytes};
use zc_simnet::{predict, Scenario};
use zc_trace::{OrbTelemetry, Telemetry};
use zc_transport::{Connection, TransportCtx};

use crate::bed::{raw_pair, OrbPair, Sink};
use crate::workload::fill_pattern;
use crate::TtcpVersion;

/// Which transport substrate carries the measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtcpTransport {
    /// The in-process simulated kernel stacks (default; this is where the
    /// copying/zero-copy distinction is architecturally faithful).
    Sim,
    /// Real loopback TCP (socket-mode distinction collapses to what the
    /// host kernel does; useful for sanity checks on live sockets).
    Tcp,
}

/// Parameters of one TTCP run.
#[derive(Debug, Clone, Copy)]
pub struct TtcpParams {
    /// Which of the paper's versions to run.
    pub version: TtcpVersion,
    /// Bytes per block (4 KiB-aligned in the paper).
    pub block_bytes: usize,
    /// Total payload to move.
    pub total_bytes: usize,
    /// Substrate for the measured run.
    pub transport: TtcpTransport,
    /// Verify the received contents block by block (generation excluded
    /// from the timed section).
    pub verify: bool,
    /// Workload seed.
    pub seed: u64,
    /// Run with telemetry enabled (flight recorder + metrics); the merged
    /// snapshot lands in [`MeasuredOutcome::telemetry`].
    pub traced: bool,
}

impl TtcpParams {
    /// A quick default: `version` moving `total` in `block`-sized units
    /// over the simulated stacks.
    pub fn new(version: TtcpVersion, block_bytes: usize, total_bytes: usize) -> TtcpParams {
        TtcpParams {
            version,
            block_bytes,
            total_bytes,
            transport: TtcpTransport::Sim,
            verify: false,
            seed: 0x7C_7C,
            traced: false,
        }
    }

    fn telemetry(&self) -> Arc<Telemetry> {
        if self.traced {
            Telemetry::new_shared()
        } else {
            Telemetry::disabled()
        }
    }

    fn blocks(&self) -> usize {
        (self.total_bytes / self.block_bytes).max(1)
    }
}

/// The result of a measured run.
#[derive(Debug, Clone)]
pub struct MeasuredOutcome {
    /// Goodput in Mbit/s measured on this host.
    pub mbit_s: f64,
    /// Number of blocks moved.
    pub blocks: usize,
    /// Wall-clock time of the timed section.
    pub wall: Duration,
    /// Copy-meter delta over the timed section (the per-layer story).
    pub copies: CopySnapshot,
    /// Overhead bytes copied per payload byte moved (0.0 on a perfect
    /// zero-copy path, ≥ 4.0 on the conventional one).
    pub overhead_copy_factor: f64,
    /// Merged telemetry snapshot (`Some` when the run was traced).
    pub telemetry: Option<OrbTelemetry>,
}

/// Evaluate the configuration on the calibrated 2003 testbed model;
/// returns paper-scale Mbit/s.
pub fn run_modeled(version: TtcpVersion, block_bytes: usize) -> f64 {
    let (socket, orb) = version.to_modes();
    predict(&Scenario::on_testbed(socket, orb, block_bytes))
}

/// Build the source blocks (outside the timed section).
fn make_blocks(params: &TtcpParams, meter: &CopyMeter) -> Vec<ZcBytes> {
    let n = if params.verify { params.blocks() } else { 1 };
    (0..n)
        .map(|i| {
            let mut buf = AlignedBuf::zeroed(params.block_bytes);
            fill_pattern(buf.as_mut_slice(), params.seed, i as u64);
            meter.record(zc_buffers::CopyLayer::AppFill, params.block_bytes);
            ZcBytes::from_aligned(buf)
        })
        .collect()
}

fn block_for(blocks: &[ZcBytes], i: usize) -> &ZcBytes {
    &blocks[i % blocks.len()]
}

/// Run the measured benchmark on the bed; really moves the bytes. Block 0
/// crosses once untimed first, through the same operation as the timed
/// blocks (and verified like them).
pub fn run_measured(params: &TtcpParams) -> MeasuredOutcome {
    let telemetry = params.telemetry();
    let stack = params.version.stack(params.transport);
    let sink = Sink {
        verify: params.verify.then_some(params.seed),
    };
    let n_blocks = params.blocks();
    if params.version.uses_orb() {
        // CORBA TTCP: the socket calls are "replaced by stubs and skeletons".
        let pair = OrbPair::bring_up(stack, params.version.zc_orb(), telemetry, |b| b, sink);
        let blocks = make_blocks(params, &pair.meter);
        let push = |i: usize| pair.push_block(i as u64, block_for(&blocks, i));
        push(0);
        let before = pair.meter.snapshot();
        let start = Instant::now();
        (0..n_blocks).for_each(push);
        let wall = start.elapsed();
        let snap = params.traced.then(|| pair.client.telemetry_snapshot());
        return finish(params, pair.meter.snapshot().since(&before), wall, snap);
    }

    // Raw socket TTCP: direct data-channel push, no middleware. The
    // receiver acknowledges the warm-up block on the control channel, so
    // the timed section starts once it has landed.
    let meter = CopyMeter::new_shared();
    let ctx = TransportCtx::with_telemetry(Arc::clone(&meter), Arc::clone(&telemetry));
    let blocks = make_blocks(params, &meter);
    let (mut tx, mut rx) = raw_pair(stack, &ctx);
    let block_bytes = params.block_bytes;
    let receiver = std::thread::spawn(move || {
        let take = |rx: &mut Box<dyn Connection>, i: usize| {
            let block = rx.recv_data(block_bytes).expect("recv block");
            sink.check_block(&block, i as u64);
        };
        take(&mut rx, 0);
        rx.send_control(b"warm").expect("ack the warm-up block");
        (0..n_blocks).for_each(|i| take(&mut rx, i));
    });
    tx.send_data(&blocks[0]).expect("send the warm-up block");
    tx.recv_control().expect("warm-up acknowledged");

    let before = meter.snapshot();
    let start = Instant::now();
    for i in 0..n_blocks {
        tx.send_data(block_for(&blocks, i)).expect("send block");
    }
    receiver.join().expect("receiver");
    let wall = start.elapsed();
    let snap = params
        .traced
        .then(|| telemetry.orb_snapshot(meter.snapshot(), ctx.pool.stats()));
    finish(params, meter.snapshot().since(&before), wall, snap)
}

fn finish(
    params: &TtcpParams,
    copies: CopySnapshot,
    wall: Duration,
    telemetry: Option<OrbTelemetry>,
) -> MeasuredOutcome {
    let payload = (params.blocks() * params.block_bytes) as f64;
    let mbit_s = payload * 8.0 / wall.as_secs_f64() / 1e6;
    MeasuredOutcome {
        mbit_s,
        blocks: params.blocks(),
        wall,
        copies,
        overhead_copy_factor: copies.overhead_bytes() as f64 / payload.max(1.0),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = 64 * 1024;
    const TOTAL: usize = 1 << 20;

    #[test]
    fn every_version_moves_and_verifies_its_blocks_on_both_stacks() {
        use TtcpTransport::{Sim, Tcp};
        use TtcpVersion::*;
        // Overhead copies per payload byte of a 1 MiB push in 64 KiB blocks.
        // Sim: the conventional path's four socket/kernel traversals (six with
        // the standard ORB's marshal and demarshal), none on the zero-copy
        // stack but the zero-copy ORB's small control messages. Loopback TCP:
        // the host kernel's write and read copies, whatever the version asks
        // for, plus the standard ORB's two.
        let table = [
            (Sim, RawTcp, 4.0),
            (Sim, ZcTcp, 0.0),
            (Sim, CorbaStd, 6.012207),
            (Sim, CorbaStdOverZcTcp, 4.006104),
            (Sim, CorbaZcOverTcp, 4.013428),
            (Sim, CorbaZc, 0.006714),
            (Tcp, RawTcp, 2.0),
            (Tcp, ZcTcp, 2.0),
            (Tcp, CorbaStd, 4.006104),
            (Tcp, CorbaStdOverZcTcp, 4.006104),
            (Tcp, CorbaZcOverTcp, 2.006714),
            (Tcp, CorbaZc, 2.006714),
        ];
        assert_eq!(table.len(), 2 * TtcpVersion::ALL.len());
        for (transport, version, copy_factor) in table {
            let mut p = TtcpParams::new(version, BLOCK, TOTAL);
            p.transport = transport;
            p.verify = true;
            let out = run_measured(&p);
            let row = format!("{version:?} over {transport:?}");
            assert!(out.mbit_s > 0.0, "{row}");
            assert_eq!(out.blocks, TOTAL / BLOCK, "{row}");
            assert!(
                (out.overhead_copy_factor - copy_factor).abs() < 1e-3,
                "{row} copies {}×, expected {copy_factor}×",
                out.overhead_copy_factor
            );
        }
    }

    #[test]
    fn measured_zero_copy_is_faster_on_this_host_too() {
        // 8 MiB in 1 MiB blocks: enough real memcpy work that the ordering
        // is robust on any host.
        let total = 8 << 20;
        let block = 1 << 20;
        let std_out = run_measured(&TtcpParams::new(TtcpVersion::CorbaStd, block, total));
        let zc_out = run_measured(&TtcpParams::new(TtcpVersion::CorbaZc, block, total));
        assert!(
            zc_out.mbit_s > std_out.mbit_s,
            "zc {:.0} ≤ std {:.0} Mbit/s",
            zc_out.mbit_s,
            std_out.mbit_s
        );
    }

    #[test]
    fn modeled_matches_paper_anchors() {
        let big = 16 << 20;
        let std = run_modeled(TtcpVersion::CorbaStd, big);
        let zc = run_modeled(TtcpVersion::CorbaZc, big);
        let raw = run_modeled(TtcpVersion::RawTcp, big);
        assert!((38.0..62.0).contains(&std));
        assert!((280.0..380.0).contains(&raw));
        assert!((480.0..640.0).contains(&zc));
    }
}
