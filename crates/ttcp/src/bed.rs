//! The one host bed. Every host-measured loop — the TTCP runs, the latency
//! round trips, the ablations and the fault sweep — sets its workload up
//! here: an [`OrbPair`] serving the one [`Sink`] over a [`Stack`], or a
//! `raw_pair` of connections whose peer loop the caller runs.
//!
//! The bed's one warm-up rule: before a timed loop, the caller runs one
//! full-size operation through the same operation, untimed (and verified
//! when the run verifies), so the first timed operation does not pay the
//! first-use allocations of its block-sized buffers.

use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use zc_buffers::{CopyMeter, ZcBytes};
use zc_cdr::{CdrMarshal, OctetSeq, ZcOctetSeq};
use zc_orb::{
    ObjectAdapterExt, ObjectRef, Orb, OrbBuilder, OrbResult, Servant, ServerHandle, ServerRequest,
};
use zc_trace::Telemetry;
use zc_transport::{
    Acceptor, Connection, Connector, SimConfig, SimNetwork, TcpConnector, TcpTransportListener,
    TransportCtx,
};

use crate::workload::verify_pattern;
use crate::{TtcpTransport, TtcpVersion};

/// What carries a bed's traffic.
#[derive(Debug, Clone, Copy)]
pub enum Stack {
    /// The in-process simulated kernel stacks, in this configuration.
    Sim(SimConfig),
    /// Real loopback TCP.
    Tcp,
}

/// The one servant of every bed:
/// * `push_std(u64 i, sequence<octet>)` / `push_zc(u64 i, sequence<ZC_Octet>)`
///   acknowledge with the block's length, after checking block `i` when
///   verifying — TTCP's sink;
/// * `echo_std` / `echo_zc` answer with the sequence they got — a round trip;
/// * `sum(sequence<ZC_Octet>)` answers with the bytes' sum — the fault
///   sweep's end-to-end integrity check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sink {
    /// Check each pushed block `i` against the pattern of this seed.
    pub verify: Option<u64>,
}

impl Sink {
    /// The sink's repository id.
    pub const REPO_ID: &'static str = "IDL:zcorba/ttcp/Sink:1.0";

    /// Panic unless block `i` arrived intact (nothing to do unless verifying).
    pub(crate) fn check_block(&self, data: &[u8], i: u64) {
        if let Some(seed) = self.verify {
            assert!(
                verify_pattern(data, seed, i),
                "block {i} corrupted in transit"
            );
        }
    }

    fn ack_block<T: CdrMarshal + Deref<Target = [u8]>>(
        &self,
        req: &mut ServerRequest<'_>,
    ) -> OrbResult<()> {
        let i: u64 = req.arg()?;
        let data: T = req.arg()?;
        self.check_block(&data, i);
        req.result(&(data.len() as u32))
    }
}

fn echo_back<T: CdrMarshal>(req: &mut ServerRequest<'_>) -> OrbResult<()> {
    let data: T = req.arg()?;
    req.result(&data)
}

impl Servant for Sink {
    fn repo_id(&self) -> &'static str {
        Sink::REPO_ID
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "push_std" => self.ack_block::<OctetSeq>(req),
            "push_zc" => self.ack_block::<ZcOctetSeq>(req),
            "echo_std" => echo_back::<OctetSeq>(req),
            "echo_zc" => echo_back::<ZcOctetSeq>(req),
            "sum" => {
                let data: ZcOctetSeq = req.arg()?;
                req.result(&data.iter().map(|&b| u64::from(b)).sum::<u64>())
            }
            other => req.bad_operation(other),
        }
    }
}

/// A server ORB serving one [`Sink`] and a client ORB holding a reference
/// to it, over one [`Stack`], recording into one copy meter and one
/// telemetry handle (so client and server spans land in one event stream).
/// Dropping the pair shuts the server down.
pub struct OrbPair {
    /// The client's reference to the sink.
    pub obj: ObjectRef,
    pub(crate) client: Orb,
    /// The copy meter both ORBs record into.
    pub meter: Arc<CopyMeter>,
    /// The network of a [`Stack::Sim`] pair, for fault injection.
    pub net: Option<SimNetwork>,
    _server: ServerHandle,
}

impl OrbPair {
    /// Serve `sink` over `stack` and resolve it from a second ORB. Both ORBs
    /// offer the zero-copy path when `zc`, report to `telemetry` and are
    /// built through `tweak` (an ablation switch, a retry policy).
    pub fn bring_up(
        stack: Stack,
        zc: bool,
        telemetry: Arc<Telemetry>,
        tweak: fn(OrbBuilder) -> OrbBuilder,
        sink: Sink,
    ) -> OrbPair {
        let meter = CopyMeter::new_shared();
        let net = match stack {
            Stack::Sim(cfg) => Some(SimNetwork::new(cfg)),
            Stack::Tcp => None,
        };
        let build = || {
            let builder = Orb::builder()
                .zc(zc)
                .meter(Arc::clone(&meter))
                .telemetry(Arc::clone(&telemetry));
            match &net {
                Some(net) => tweak(builder.sim(net.clone())).build(),
                None => tweak(builder.tcp()).build(),
            }
        };
        let server_orb = build();
        server_orb.adapter().register("sink", Arc::new(sink));
        let server = server_orb.serve(0).expect("serve the sink");
        let ior = server.ior_for("sink", Sink::REPO_ID);
        let client = build();
        let obj = client.resolve(&ior.expect("registered above"));
        OrbPair {
            obj: obj.expect("resolve the sink"),
            client,
            meter,
            net,
            _server: server,
        }
    }

    /// Push block `i` through `push_zc`, or through `push_std` when the ORB
    /// does not offer zero copy — which pays the app→`OctetSeq` staging copy
    /// the moment it builds the parameter, exactly like MICO's client — and
    /// check the acknowledged length.
    pub fn push_block(&self, i: u64, block: &ZcBytes) {
        let zc = self.client.config().zc_enabled;
        let req = self.obj.request(if zc { "push_zc" } else { "push_std" });
        let req = req.arg(&i).expect("marshal the index");
        let req = if zc {
            req.arg(&ZcOctetSeq::from_zc(block.clone()))
        } else {
            req.arg(&OctetSeq(block.as_slice().to_vec()))
        };
        let ack: u32 = req
            .expect("marshal")
            .invoke()
            .and_then(|r| r.result())
            .expect("push");
        assert_eq!(ack as usize, block.len(), "sink acked wrong length");
    }

    /// One round trip of `block` through `echo_zc` (or `echo_std`, staged
    /// as in [`OrbPair::push_block`]), checking the echoed length.
    pub fn echo_block(&self, block: &ZcBytes) {
        let zc = self.client.config().zc_enabled;
        let req = if zc {
            let req = self.obj.request("echo_zc");
            req.arg(&ZcOctetSeq::from_zc(block.clone()))
        } else {
            let req = self.obj.request("echo_std");
            req.arg(&OctetSeq(block.as_slice().to_vec()))
        };
        let reply = req.expect("marshal").invoke().expect("echo");
        let echoed = if zc {
            reply.result::<ZcOctetSeq>().map(|d| d.len())
        } else {
            reply.result::<OctetSeq>().map(|d| d.len())
        };
        assert_eq!(echoed.expect("demarshal"), block.len(), "echo lost bytes");
    }
}

/// One connected raw [`Connection`] pair over `stack`, both ends on `ctx`:
/// the dialing end, then the accepted one for the caller's peer loop.
pub(crate) fn raw_pair(
    stack: Stack,
    ctx: &TransportCtx,
) -> (Box<dyn Connection>, Box<dyn Connection>) {
    let (dialed, accepted) = match stack {
        Stack::Sim(cfg) => {
            let net = SimNetwork::new(cfg);
            let listener = net
                .listen(0, ctx.clone())
                .expect("listen on the simulated net");
            (
                net.connect(listener.endpoint().1, ctx.clone()),
                listener.accept(),
            )
        }
        Stack::Tcp => {
            let listener = TcpTransportListener::bind(0, ctx.clone()).expect("bind on loopback");
            let (host, port) = listener.endpoint();
            let connector = TcpConnector { ctx: ctx.clone() };
            (connector.connect(&host, port), listener.accept())
        }
    };
    (dialed.expect("dial"), accepted.expect("accept"))
}

/// Percentile summary of round-trip times, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of timed round trips.
    pub rounds: usize,
    /// Fastest observed round trip.
    pub min_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Slowest observed round trip.
    pub max_us: f64,
}

impl LatencyStats {
    /// Summarize a sample of round-trip durations (µs).
    pub fn from_samples(mut samples: Vec<f64>) -> LatencyStats {
        assert!(!samples.is_empty(), "need at least one sample");
        samples.sort_by(f64::total_cmp);
        let pct = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
        LatencyStats {
            rounds: samples.len(),
            min_us: pct(0.0),
            mean_us: samples.iter().sum::<f64>() / samples.len() as f64,
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
            max_us: pct(1.0),
        }
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min {:.1} µs  p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}  mean {:.1}",
            self.rounds,
            self.min_us,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
            self.mean_us
        )
    }
}

/// Measure `rounds` round trips of a `msg_bytes` message over `version` on
/// the in-process stack: an echo through the ORB, or a raw ping-pong on the
/// data channel.
///
/// # Panics
/// If `rounds` is 0: there is no percentile of nothing.
pub fn run_latency(version: TtcpVersion, msg_bytes: usize, rounds: usize) -> LatencyStats {
    let payload = ZcBytes::zeroed(msg_bytes);
    let stack = version.stack(TtcpTransport::Sim);
    let samples = if version.uses_orb() {
        let pair = OrbPair::bring_up(
            stack,
            version.zc_orb(),
            Telemetry::disabled(),
            |b| b,
            Sink::default(),
        );
        sample_rounds(rounds, || pair.echo_block(&payload))
    } else {
        let (mut conn, mut peer) = raw_pair(stack, &TransportCtx::new());
        let echo = std::thread::spawn(move || {
            for _ in 0..=rounds {
                let ping = peer.recv_data(msg_bytes).expect("recv ping");
                peer.send_data(&ping).expect("send pong");
            }
        });
        let samples = sample_rounds(rounds, || {
            conn.send_data(&payload).expect("send ping");
            let pong = conn.recv_data(msg_bytes).expect("recv pong");
            assert_eq!(pong.len(), msg_bytes);
        });
        echo.join().expect("echo peer");
        samples
    };
    LatencyStats::from_samples(samples)
}

/// `op` once untimed (the warm-up), then `rounds` times timed, in µs.
fn sample_rounds(rounds: usize, mut op: impl FnMut()) -> Vec<f64> {
    op();
    let mut timed = || {
        let t0 = Instant::now();
        op();
        t0.elapsed().as_secs_f64() * 1e6
    };
    (0..rounds).map(|_| timed()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_math() {
        let s = LatencyStats::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.rounds, 5);
        assert_eq!(s.min_us, 1.0);
        assert_eq!(s.max_us, 5.0);
        assert_eq!(s.p50_us, 3.0);
        assert_eq!(s.mean_us, 3.0);
        assert!(s.p90_us >= s.p50_us && s.p99_us >= s.p90_us);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_sample_panics() {
        LatencyStats::from_samples(vec![]);
    }

    #[test]
    fn all_versions_measure() {
        for v in TtcpVersion::ALL {
            let s = run_latency(v, 4096, 30);
            assert_eq!(s.rounds, 30);
            assert!(s.min_us > 0.0);
            assert!(s.min_us <= s.p50_us && s.p50_us <= s.max_us);
        }
    }

    #[test]
    fn ordering_is_monotone() {
        let s = run_latency(TtcpVersion::CorbaZc, 64 << 10, 50);
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p99_us);
    }
}
