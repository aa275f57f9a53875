//! The layer ladder: each workload's per-operation call sequence replayed
//! against one layer's public functions in isolation, outside the ORB.
//!
//! Every rung is nanoseconds per operation as a median over [`BATCHES`]
//! batches. The rungs of `giop`, `transport` and `buffers` are what
//! `core.unattributed_ns` subtracts from the ORB's own share of an invoke.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zc_buffers::{AlignedBuf, CopyMeter, PagePool, ZcBytes};
use zc_cdr::{ByteOrder, CdrDecoder, CdrEncoder, CdrMarshal, CdrResult, OctetSeq, ZcOctetSeq};
use zc_giop::{
    fragment_frames, reassemble, DepositManifest, GiopHeader, GiopVersion, MessageType,
    ReplyHeader, RequestHeader, ServiceContext, TraceContext, ZcHealthContext, GIOP_HEADER_LEN,
};
use zc_orb::conn::FRAGMENT_THRESHOLD;
use zc_orb::AdmissionControl;
use zc_trace::{Stage, Telemetry};
use zc_transport::{
    Acceptor, Connection, Connector, SimConfig, SimNetwork, TcpConnector, TcpTransportListener,
    TransportCtx,
};

use crate::stats;
use crate::workload::{small_args, stamped_block, Op, SmallArgs, Spec, Stack};

/// Batches per rung; the rung's value is the median batch.
pub const BATCHES: usize = 15;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches that
/// together last about `budget`.
fn rung(budget: Duration, mut f: impl FnMut()) -> f64 {
    // Calibrate on a few warm calls so every batch lasts long enough for
    // the clock not to matter, whatever one call costs.
    f();
    let calib = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || (calib.elapsed() < budget / 4 && calls < 1 << 20) {
        f();
        calls += 1;
    }
    let per_call = calib.elapsed().as_nanos() as f64 / calls as f64;
    let batch_ns = budget.as_nanos() as f64 / BATCHES as f64;
    let iters = ((batch_ns / per_call.max(1.0)) as u64).max(1);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches)
}

/// The values one operation of a workload marshals, and the encoders and
/// decoders configured as the workload's connection configures them.
struct OpValues {
    spec: Spec,
    meter: Arc<CopyMeter>,
    op_id: u64,
    block: ZcBytes,
    /// The standard client's staged copy of `block`.
    staged: OctetSeq,
    small: SmallArgs,
}

/// A finished CDR stream and the blocks it deposits out of band.
type Encoded = (Vec<u8>, Vec<ZcBytes>);

impl OpValues {
    fn new(spec: Spec, seed: u64) -> OpValues {
        let block = stamped_block(seed, 0, spec.block_bytes.max(8));
        let staged = match spec.op {
            Op::PushStd => OctetSeq(block.as_slice().to_vec()),
            _ => OctetSeq::new(),
        };
        OpValues {
            spec,
            meter: CopyMeter::new_shared(),
            op_id: seed,
            block,
            staged,
            small: small_args(seed, 0),
        }
    }

    fn encoder(&self) -> CdrEncoder {
        CdrEncoder::new(ByteOrder::native())
            .with_meter(Arc::clone(&self.meter))
            .with_zc(self.spec.orb_zc)
    }

    fn decoder<'a>(&self, (bytes, deposits): &'a Encoded) -> CdrDecoder<'a> {
        let dec = CdrDecoder::new(bytes, ByteOrder::native()).with_meter(Arc::clone(&self.meter));
        if self.spec.orb_zc {
            dec.with_deposits(deposits.clone())
        } else {
            dec
        }
    }

    fn zc_block(&self) -> ZcOctetSeq {
        ZcOctetSeq::from_zc(self.block.clone())
    }

    fn encode_request(&self) -> Encoded {
        let mut enc = self.encoder();
        let ok = self
            .op_id
            .marshal(&mut enc)
            .and_then(|()| match self.spec.op {
                Op::PushStd => self.staged.marshal(&mut enc),
                Op::PushZc => self.zc_block().marshal(&mut enc),
                Op::PullZc => Ok(()),
                Op::EchoSmall => self
                    .small
                    .text
                    .marshal(&mut enc)
                    .and_then(|()| self.small.octets.marshal(&mut enc)),
            });
        ok.expect("benchmark values marshal");
        enc.finish()
    }

    fn encode_reply(&self) -> Encoded {
        let mut enc = self.encoder();
        match self.spec.op {
            Op::PullZc => self.zc_block().marshal(&mut enc),
            _ => self.op_id.marshal(&mut enc),
        }
        .expect("benchmark values marshal");
        enc.finish()
    }

    fn decode_request(&self, encoded: &Encoded) {
        let mut dec = self.decoder(encoded);
        let ok = u64::demarshal(&mut dec).and_then(|id| {
            black_box(id);
            match self.spec.op {
                Op::PushStd => OctetSeq::demarshal(&mut dec).map(|v| drop(black_box(v))),
                Op::PushZc => ZcOctetSeq::demarshal(&mut dec).map(|v| drop(black_box(v))),
                Op::PullZc => Ok(()),
                Op::EchoSmall => String::demarshal(&mut dec).and_then(|s| {
                    black_box(s);
                    OctetSeq::demarshal(&mut dec).map(|v| drop(black_box(v)))
                }),
            }
        });
        ok.expect("own encoding decodes");
    }

    fn decode_reply(&self, encoded: &Encoded) {
        let mut dec = self.decoder(encoded);
        match self.spec.op {
            Op::PullZc => ZcOctetSeq::demarshal(&mut dec).map(|v| drop(black_box(v))),
            _ => u64::demarshal(&mut dec).map(|v| {
                black_box(v);
            }),
        }
        .expect("own encoding decodes");
    }

    fn operation(&self) -> &'static str {
        match self.spec.op {
            Op::PushStd => "push_std",
            Op::PushZc => "push_zc",
            Op::PullZc => "pull_zc",
            Op::EchoSmall => "echo_small",
        }
    }

    /// The GIOP request header as `GiopConn::send_request_raw` assembles
    /// it: deposit manifest, trace context and health report.
    fn request_header(&self, deposits: &[ZcBytes]) -> RequestHeader {
        let mut h = RequestHeader::new(7, b"bench-sink".to_vec(), self.operation());
        h.service_contexts = self.contexts(deposits);
        h
    }

    fn reply_header(&self, deposits: &[ZcBytes]) -> ReplyHeader {
        let mut h = ReplyHeader::ok(7);
        h.service_contexts = self.contexts(deposits);
        h
    }

    fn contexts(&self, deposits: &[ZcBytes]) -> Vec<ServiceContext> {
        let mut list = Vec::new();
        if !deposits.is_empty() {
            list.push(
                DepositManifest {
                    block_lengths: deposits.iter().map(|b| b.len() as u64).collect(),
                }
                .to_context(),
            );
        }
        list.push(
            TraceContext {
                trace_id: self.op_id,
                sent_at_ns: zc_trace::now_ns(),
                journey_id: self.op_id,
                attempt: 0,
                cause: 0,
            }
            .to_context(),
        );
        if self.spec.orb_zc {
            list.push(ZcHealthContext::default().to_context());
        }
        list
    }
}

/// Encode a GIOP message header plus the request or reply header `marshal`
/// writes, decode both again and look up every service context. Returns the
/// encoded request/reply header's length.
fn header_round_trip(
    msg_type: MessageType,
    marshal: impl FnOnce(&mut CdrEncoder) -> CdrResult<()>,
    demarshal: impl FnOnce(&mut CdrDecoder<'_>) -> CdrResult<Vec<ServiceContext>>,
) -> usize {
    let mut enc = CdrEncoder::new(ByteOrder::native());
    marshal(&mut enc).expect("header marshals");
    let body = enc.finish_stream();
    let wire = GiopHeader::new(
        GiopVersion::V1_2,
        ByteOrder::native(),
        msg_type,
        body.len() as u32,
    )
    .encode();
    let hdr = GiopHeader::decode(&wire).expect("own header decodes");
    let mut dec = CdrDecoder::new(&body, hdr.flags.order);
    let contexts = demarshal(&mut dec).expect("own header decodes");
    black_box(DepositManifest::find_in(&contexts).expect("own manifest decodes"));
    black_box(TraceContext::find_in(&contexts).expect("own trace context decodes"));
    black_box(ZcHealthContext::find_in(&contexts).expect("own health report decodes"));
    body.len()
}

/// Fragment a GIOP body of `len` bytes as the connection does and put it
/// together again.
fn fragment_round_trip(body: &[u8]) {
    let frames = fragment_frames(
        GiopVersion::V1_2,
        ByteOrder::native(),
        MessageType::Request,
        body,
        FRAGMENT_THRESHOLD,
    );
    black_box(reassemble(&frames).expect("own fragments reassemble"));
}

/// A bare connection pair on the workload's transport, and the thread that
/// answers on the far end until the near end is dropped.
struct Wire {
    near: Box<dyn Connection>,
    far: std::thread::JoinHandle<()>,
}

impl Wire {
    /// Both ends of a fresh connection on `stack`. Neither transport's
    /// connect waits for the accept, so one thread can do both in turn.
    fn ends(stack: Stack) -> (Box<dyn Connection>, Box<dyn Connection>) {
        let ctx = TransportCtx::new();
        let sim = |config| {
            let net = SimNetwork::new(config);
            let listener = net.listen(0, ctx.clone()).expect("sim listen");
            let near = net
                .connect(listener.endpoint().1, ctx.clone())
                .expect("sim connect");
            (near, listener.accept().expect("sim accept"))
        };
        match stack {
            Stack::SimCopying => sim(SimConfig::copying()),
            Stack::SimZeroCopy => sim(SimConfig::zero_copy()),
            Stack::LoopbackTcp => {
                let listener = TcpTransportListener::bind(0, ctx.clone()).expect("bind loopback");
                let (host, port) = listener.endpoint();
                let near = TcpConnector { ctx: ctx.clone() }
                    .connect(&host, port)
                    .expect("connect loopback");
                (near, listener.accept().expect("accept loopback"))
            }
        }
    }

    /// The far end answers every control message with `reply_len` bytes,
    /// after first receiving a data block of `data_len` when that is set.
    fn echoing(stack: Stack, reply_len: usize, data_len: Option<usize>) -> Wire {
        let (near, mut conn) = Wire::ends(stack);
        let answer = move || {
            let reply = vec![0x5a; reply_len];
            while conn.recv_control().is_ok() {
                if let Some(len) = data_len {
                    black_box(conn.recv_data(len).expect("announced block arrives"));
                }
                if conn.send_control(&reply).is_err() {
                    break;
                }
            }
        };
        // Like the ORB's server thread, the far end gets the server's CPU.
        let far = crate::host::on_server_cpu(|| std::thread::spawn(answer));
        Wire { near, far }
    }

    /// One control round trip, with `block` sent on the data lane between
    /// the two control messages when given.
    fn round_trip(&mut self, request: &[u8], block: Option<&ZcBytes>) {
        self.near.send_control(request).expect("send control");
        if let Some(block) = block {
            self.near.send_data(block).expect("send data");
        }
        black_box(self.near.recv_control().expect("recv control"));
    }

    fn hang_up(self) {
        drop(self.near);
        self.far.join().expect("far end exits when the wire closes");
    }
}

/// The ladder's rungs for one workload, by metric name, in ns per op.
pub fn climb(spec: Spec, seed: u64, rung_budget: Duration) -> Vec<(&'static str, f64)> {
    let v = OpValues::new(spec, seed);
    let request = v.encode_request();
    let reply = v.encode_reply();
    let mut out = Vec::new();
    let mut add = |name: &'static str, ns: f64| out.push((name, ns));

    // buffers, at the size of the block the workload moves (or of its
    // request body, for the small-request workloads).
    let unit = if spec.block_bytes > 0 {
        spec.block_bytes
    } else {
        request.0.len()
    };
    let pool = PagePool::default_for_orb();
    add(
        "buffers.pool_acquire_release_ns",
        rung(rung_budget, || drop(black_box(pool.acquire(unit)))),
    );
    add(
        "buffers.zcbytes_clone_slice_ns",
        rung(rung_budget, || {
            let view = black_box(&v.block).clone();
            black_box(view.slice(..view.len() / 2));
        }),
    );
    add(
        "buffers.aligned_zeroed_ns",
        rung(rung_budget, || drop(black_box(AlignedBuf::zeroed(unit)))),
    );

    // cdr: everything one operation marshals, both directions.
    add(
        "cdr.encode_args_ns",
        rung(rung_budget, || {
            black_box(v.encode_request());
            black_box(v.encode_reply());
        }),
    );
    add(
        "cdr.decode_args_ns",
        rung(rung_budget, || {
            v.decode_request(&request);
            v.decode_reply(&reply);
        }),
    );

    // giop: both message headers with their service contexts, and the
    // framing of both bodies.
    let request_header_trip = || {
        header_round_trip(
            MessageType::Request,
            |enc| v.request_header(&request.1).marshal(enc),
            |dec| RequestHeader::demarshal(dec).map(|h| h.service_contexts),
        )
    };
    let reply_header_trip = || {
        header_round_trip(
            MessageType::Reply,
            |enc| v.reply_header(&reply.1).marshal(enc),
            |dec| ReplyHeader::demarshal(dec).map(|h| h.service_contexts),
        )
    };
    add(
        "giop.header_codec_ns",
        rung(rung_budget, || {
            request_header_trip();
            reply_header_trip();
        }),
    );
    // A body is its header, padded to 8, then the marshaled values.
    let body_of = |header_len: usize, args: &Encoded| {
        vec![0xa5u8; header_len.next_multiple_of(8) + args.0.len()]
    };
    let request_body = body_of(request_header_trip(), &request);
    let reply_body = body_of(reply_header_trip(), &reply);
    add(
        "giop.fragment_reassemble_ns",
        rung(rung_budget, || {
            fragment_round_trip(&request_body);
            fragment_round_trip(&reply_body);
        }),
    );

    // transport: a bare connection pair carrying the same control frames,
    // then the same frames with the workload's block on the data lane.
    let request_frame = vec![0xa5u8; GIOP_HEADER_LEN + request_body.len()];
    let reply_frame_len = GIOP_HEADER_LEN + reply_body.len();
    let mut wire = Wire::echoing(spec.stack, reply_frame_len, None);
    let control_rtt = rung(rung_budget, || wire.round_trip(&request_frame, None));
    wire.hang_up();
    add("transport.control_rtt_ns", control_rtt);
    let deposits = request.1.len() + reply.1.len();
    let data_block = if deposits > 0 {
        let mut wire = Wire::echoing(spec.stack, reply_frame_len, Some(v.block.len()));
        let with_block = rung(rung_budget, || {
            wire.round_trip(&request_frame, Some(&v.block))
        });
        wire.hang_up();
        (with_block - control_rtt).max(0.0)
    } else {
        0.0
    };
    add("transport.data_block_ns", data_block);

    // core: the admission gate as the server loop drives it.
    let gate = AdmissionControl::unlimited();
    let announced = v.block.len() as u64 * request.1.len() as u64;
    add(
        "core.admission_gate_ns",
        rung(rung_budget, || {
            drop(black_box(gate.admit(false, announced, announced > 0)));
        }),
    );

    // trace: one request span marked and committed, enabled and disabled.
    let span_cost = |tele: Arc<Telemetry>| {
        rung(rung_budget, || {
            let mut span = tele.request_span();
            let t0 = span.begin();
            span.end(Stage::ClientMarshal, t0);
            span.commit(&tele, 1, 1);
        })
    };
    add("trace.span_commit_ns", span_cost(Telemetry::new_shared()));
    add("trace.disabled_note_ns", span_cost(Telemetry::disabled()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    #[test]
    fn rung_reports_a_positive_time_per_call() {
        let mut calls = 0u64;
        let ns = rung(Duration::from_millis(15), || {
            calls += 1;
            black_box(calls);
        });
        assert!(ns > 0.0 && ns < 1e6, "{ns}");
        assert!(calls as usize >= BATCHES);
    }

    #[test]
    fn every_workload_climbs_every_rung() {
        for spec in SPECS {
            let spec = Spec {
                block_bytes: spec.block_bytes.min(16 << 10),
                ..spec
            };
            let rungs = climb(spec, 3, Duration::from_millis(3));
            assert_eq!(rungs.len(), 12, "{}", spec.name);
            let uses_data_lane = matches!(spec.op, Op::PushZc | Op::PullZc);
            for (name, ns) in rungs {
                // The data-lane rung is a difference of two medians, so it
                // may read 0; where the lane is unused it must.
                let floor_ok = if name == "transport.data_block_ns" {
                    ns >= 0.0 && (uses_data_lane || ns == 0.0)
                } else {
                    ns > 0.0
                };
                assert!(ns.is_finite() && floor_ok, "{} {name} {ns}", spec.name);
            }
        }
    }
}
