//! The measured and modeled TTCP runners.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zc_buffers::{AlignedBuf, CopyMeter, CopySnapshot, ZcBytes};
use zc_cdr::{OctetSeq, ZcOctetSeq};
use zc_orb::{ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest};
use zc_simnet::{predict, OrbMode, Scenario, SocketMode};
use zc_trace::{OrbTelemetry, Telemetry};
use zc_transport::{Acceptor, SimConfig, SimNetwork, TransportCtx};

use crate::workload::{fill_pattern, verify_pattern};
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

fn sim_config(socket: SocketMode) -> SimConfig {
    match socket {
        SocketMode::Copying => SimConfig::copying(),
        SocketMode::ZeroCopy => SimConfig::zero_copy(),
    }
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

/// Run the measured benchmark; really moves the bytes.
pub fn run_measured(params: &TtcpParams) -> MeasuredOutcome {
    if params.version.uses_orb() {
        run_measured_corba(params)
    } else {
        run_measured_raw(params)
    }
}

/// Raw socket TTCP: direct data-channel push, no middleware.
fn run_measured_raw(params: &TtcpParams) -> MeasuredOutcome {
    let (socket, _) = params.version.to_modes();
    let meter = CopyMeter::new_shared();
    let telemetry = params.telemetry();
    let ctx = TransportCtx::with_telemetry(Arc::clone(&meter), Arc::clone(&telemetry));
    let blocks = make_blocks(params, &meter);
    let n_blocks = params.blocks();
    let block_bytes = params.block_bytes;
    let verify = params.verify;
    let seed = params.seed;

    let (mut tx_conn, rx_handle) = match params.transport {
        TtcpTransport::Sim => {
            let net = SimNetwork::new(sim_config(socket));
            let listener = net.listen(0, ctx.clone()).unwrap();
            let port = listener.endpoint().1;
            let rx = std::thread::spawn(move || {
                let mut conn = listener.accept().expect("accept");
                for i in 0..n_blocks {
                    let b = conn.recv_data(block_bytes).expect("recv block");
                    if verify {
                        assert!(
                            verify_pattern(&b, seed, i as u64),
                            "block {i} corrupted in transit"
                        );
                    }
                }
            });
            (net.connect(port, ctx.clone()).unwrap(), rx)
        }
        TtcpTransport::Tcp => {
            let listener = zc_transport::TcpTransportListener::bind(0, ctx.clone()).unwrap();
            let (host, port) = listener.endpoint();
            let rx = std::thread::spawn(move || {
                let mut conn = listener.accept().expect("accept");
                for i in 0..n_blocks {
                    let b = conn.recv_data(block_bytes).expect("recv block");
                    if verify {
                        assert!(verify_pattern(&b, seed, i as u64), "block {i} corrupted");
                    }
                }
            });
            let connector = zc_transport::TcpConnector { ctx: ctx.clone() };
            (
                zc_transport::Connector::connect(&connector, &host, port).unwrap(),
                rx,
            )
        }
    };

    let before = meter.snapshot();
    let start = Instant::now();
    for i in 0..n_blocks {
        tx_conn
            .send_data(block_for(&blocks, i))
            .expect("send block");
    }
    rx_handle.join().expect("receiver");
    let wall = start.elapsed();
    let snap = params
        .traced
        .then(|| telemetry.orb_snapshot(meter.snapshot(), ctx.pool.stats()));
    finish(params, meter.snapshot().since(&before), wall, snap)
}

/// The TTCP sink servant: `push_std(sequence<octet>)` and
/// `push_zc(sequence<ZC_Octet>)`, each acknowledging with the length.
struct TtcpSink {
    verify: bool,
    seed: u64,
}

impl Servant for TtcpSink {
    fn repo_id(&self) -> &'static str {
        "IDL:zcorba/TtcpSink:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "push_std" => {
                let i: u64 = req.arg()?;
                let data: OctetSeq = req.arg()?;
                if self.verify {
                    assert!(verify_pattern(&data, self.seed, i), "block {i} corrupted");
                }
                req.result(&(data.len() as u32))
            }
            "push_zc" => {
                let i: u64 = req.arg()?;
                let data: ZcOctetSeq = req.arg()?;
                if self.verify {
                    assert!(verify_pattern(&data, self.seed, i), "block {i} corrupted");
                }
                req.result(&(data.len() as u32))
            }
            other => req.bad_operation(other),
        }
    }
}

/// CORBA TTCP: the socket calls are "replaced by stubs and skeletons".
fn run_measured_corba(params: &TtcpParams) -> MeasuredOutcome {
    let (socket, orb_mode) = params.version.to_modes();
    let meter = CopyMeter::new_shared();
    // One telemetry handle shared by both ORBs: client and server spans
    // land in a single merged event stream.
    let telemetry = params.telemetry();
    let zc_orb_enabled = orb_mode == OrbMode::ZeroCopyOrb;

    let (server_orb, client_orb) = match params.transport {
        TtcpTransport::Sim => {
            let net = SimNetwork::new(sim_config(socket));
            (
                Orb::builder()
                    .sim(net.clone())
                    .zc(zc_orb_enabled)
                    .meter(Arc::clone(&meter))
                    .telemetry(Arc::clone(&telemetry))
                    .build(),
                Orb::builder()
                    .sim(net)
                    .zc(zc_orb_enabled)
                    .meter(Arc::clone(&meter))
                    .telemetry(Arc::clone(&telemetry))
                    .build(),
            )
        }
        TtcpTransport::Tcp => (
            Orb::builder()
                .tcp()
                .zc(zc_orb_enabled)
                .meter(Arc::clone(&meter))
                .telemetry(Arc::clone(&telemetry))
                .build(),
            Orb::builder()
                .tcp()
                .zc(zc_orb_enabled)
                .meter(Arc::clone(&meter))
                .telemetry(Arc::clone(&telemetry))
                .build(),
        ),
    };

    server_orb.adapter().register(
        "ttcp-sink",
        Arc::new(TtcpSink {
            verify: params.verify,
            seed: params.seed,
        }),
    );
    let server = server_orb.serve(0).unwrap();
    let ior = server
        .ior_for("ttcp-sink", "IDL:zcorba/TtcpSink:1.0")
        .unwrap();
    let obj = client_orb.resolve(&ior).unwrap();

    let blocks = make_blocks(params, &meter);
    let n_blocks = params.blocks();

    // Warm-up round (connection establishment, negotiation) outside timing.
    let warm = ZcOctetSeq::from_zc(blocks[0].clone());
    if zc_orb_enabled {
        obj.request("push_zc")
            .arg(&u64::MAX)
            .unwrap()
            .arg(&ZcOctetSeq::with_length(0))
            .unwrap()
            .invoke()
            .unwrap();
    } else {
        obj.request("push_std")
            .arg(&u64::MAX)
            .unwrap()
            .arg(&OctetSeq(Vec::new()))
            .unwrap()
            .invoke()
            .unwrap();
    }
    drop(warm);

    let before = meter.snapshot();
    let start = Instant::now();
    for i in 0..n_blocks {
        let block = block_for(&blocks, i);
        let ack: u32 = if zc_orb_enabled {
            obj.request("push_zc")
                .arg(&(i as u64))
                .unwrap()
                .arg(&ZcOctetSeq::from_zc(block.clone()))
                .unwrap()
                .invoke()
                .unwrap()
                .result()
                .unwrap()
        } else {
            // The standard version pays the app→OctetSeq staging copy the
            // moment it builds the parameter, exactly like MICO's client.
            obj.request("push_std")
                .arg(&(i as u64))
                .unwrap()
                .arg(&OctetSeq(block.as_slice().to_vec()))
                .unwrap()
                .invoke()
                .unwrap()
                .result()
                .unwrap()
        };
        assert_eq!(ack as usize, params.block_bytes, "sink acked wrong length");
    }
    let wall = start.elapsed();
    let snap = params.traced.then(|| client_orb.telemetry_snapshot());
    let outcome = finish(params, meter.snapshot().since(&before), wall, snap);
    server.shutdown();
    outcome
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
    fn all_versions_run_and_verify() {
        for version in TtcpVersion::ALL {
            let mut p = TtcpParams::new(version, BLOCK, TOTAL);
            p.verify = true;
            let out = run_measured(&p);
            assert!(out.mbit_s > 0.0, "{version:?}");
            assert_eq!(out.blocks, TOTAL / BLOCK);
        }
    }

    #[test]
    fn raw_over_real_tcp() {
        let mut p = TtcpParams::new(TtcpVersion::RawTcp, BLOCK, TOTAL);
        p.transport = TtcpTransport::Tcp;
        p.verify = true;
        let out = run_measured(&p);
        assert!(out.mbit_s > 0.0);
    }

    #[test]
    fn corba_over_real_tcp() {
        let mut p = TtcpParams::new(TtcpVersion::CorbaZc, BLOCK, TOTAL);
        p.transport = TtcpTransport::Tcp;
        p.verify = true;
        let out = run_measured(&p);
        assert!(out.mbit_s > 0.0);
    }

    #[test]
    fn copy_accounting_separates_the_versions() {
        // The measured copy factors must tell the paper's story regardless
        // of host speed: conventional path ≥ 4 traversals, all-zero-copy
        // path ≈ 0.
        let std_out = run_measured(&TtcpParams::new(TtcpVersion::CorbaStd, BLOCK, TOTAL));
        assert!(
            std_out.overhead_copy_factor >= 4.0,
            "std CORBA copies {}×",
            std_out.overhead_copy_factor
        );
        let zc_out = run_measured(&TtcpParams::new(TtcpVersion::CorbaZc, BLOCK, TOTAL));
        assert!(
            zc_out.overhead_copy_factor < 0.05,
            "all-zc copies {}×",
            zc_out.overhead_copy_factor
        );
        let raw_out = run_measured(&TtcpParams::new(TtcpVersion::RawTcp, BLOCK, TOTAL));
        assert!(
            raw_out.overhead_copy_factor >= 3.9 && raw_out.overhead_copy_factor < 4.5,
            "raw TCP copies {}×",
            raw_out.overhead_copy_factor
        );
        let zc_tcp = run_measured(&TtcpParams::new(TtcpVersion::ZcTcp, BLOCK, TOTAL));
        assert!(zc_tcp.overhead_copy_factor < 0.05);
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
