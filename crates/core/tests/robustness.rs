//! Robustness and composite-type tests: garbage on the wire must never
//! take a server down, and — per §4.1 — "all more complex types like
//! structs with streams or arrays of streams will also be optimized as the
//! communication of the sequence of octets is always handled with the same
//! optimized zero-copy strategy".

use std::sync::Arc;

use zc_buffers::{CopyLayer, CopyMeter};
use zc_cdr::{CdrDecoder, CdrEncoder, CdrMarshal, CdrResult, ZcOctetSeq};
use zc_giop::Handshake;
use zc_orb::{ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest};
use zc_transport::{SimConfig, SimNetwork, TransportCtx};

/// A struct with an embedded stream — the paper's "structs with streams".
#[derive(Debug, Clone, PartialEq)]
struct TaggedFrame {
    stream_id: u32,
    pts: i64,
    pixels: ZcOctetSeq,
    label: String,
}

impl CdrMarshal for TaggedFrame {
    fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        self.stream_id.marshal(enc)?;
        self.pts.marshal(enc)?;
        self.pixels.marshal(enc)?;
        self.label.marshal(enc)
    }
    fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(TaggedFrame {
            stream_id: u32::demarshal(dec)?,
            pts: i64::demarshal(dec)?,
            pixels: ZcOctetSeq::demarshal(dec)?,
            label: String::demarshal(dec)?,
        })
    }
}

struct FrameSink;
impl Servant for FrameSink {
    fn repo_id(&self) -> &'static str {
        "IDL:rb/FrameSink:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "swap" => {
                // takes a struct-with-stream, returns it with the label
                // upper-cased — the stream itself is passed by reference
                let mut f: TaggedFrame = req.arg()?;
                f.label = f.label.to_uppercase();
                req.result(&f)
            }
            "burst" => {
                // array of structs with streams
                let frames: Vec<TaggedFrame> = req.arg()?;
                req.result(&(frames.iter().map(|f| f.pixels.len() as u64).sum::<u64>()))
            }
            other => req.bad_operation(other),
        }
    }
}

fn fixture(meter: Arc<CopyMeter>) -> (zc_orb::ObjectRef, zc_orb::ServerHandle, Orb, SimNetwork) {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder()
        .sim(net.clone())
        .meter(Arc::clone(&meter))
        .build();
    server_orb.adapter().register("sink", Arc::new(FrameSink));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder().sim(net.clone()).meter(meter).build();
    let obj = client
        .resolve(&server.ior_for("sink", "IDL:rb/FrameSink:1.0").unwrap())
        .unwrap();
    (obj, server, client, net)
}

#[test]
fn struct_with_stream_takes_the_deposit_path() {
    let meter = CopyMeter::new_shared();
    let (obj, _server, _client, _net) = fixture(Arc::clone(&meter));
    let frame = TaggedFrame {
        stream_id: 7,
        pts: 12_345,
        pixels: ZcOctetSeq::with_length(2 << 20),
        label: "frame".into(),
    };
    let before = meter.snapshot();
    let back: TaggedFrame = obj
        .request("swap")
        .arg(&frame)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    let delta = meter.snapshot().since(&before);
    assert_eq!(back.label, "FRAME");
    assert_eq!(back.stream_id, 7);
    assert!(
        back.pixels.ptr_eq(&frame.pixels),
        "the embedded stream came back by reference"
    );
    assert_eq!(
        delta.bytes(CopyLayer::Marshal) + delta.bytes(CopyLayer::Demarshal),
        0,
        "struct scalars marshal, the stream does not:\n{}",
        delta.report()
    );
}

#[test]
fn array_of_structs_with_streams() {
    let meter = CopyMeter::new_shared();
    let (obj, _server, _client, _net) = fixture(Arc::clone(&meter));
    let frames: Vec<TaggedFrame> = (0..5)
        .map(|i| TaggedFrame {
            stream_id: i,
            pts: i as i64,
            pixels: ZcOctetSeq::with_length(100_000 + i as usize),
            label: format!("f{i}"),
        })
        .collect();
    let expected: u64 = frames.iter().map(|f| f.pixels.len() as u64).sum();
    let before = meter.snapshot();
    let total: u64 = obj
        .request("burst")
        .arg(&frames)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    let delta = meter.snapshot().since(&before);
    assert_eq!(total, expected);
    assert_eq!(
        delta.bytes(CopyLayer::Marshal),
        0,
        "five streams, all deposited, none marshaled"
    );
}

#[test]
fn garbage_handshake_does_not_kill_the_server() {
    let meter = CopyMeter::new_shared();
    let (obj, server, _client, net) = fixture(Arc::clone(&meter));

    // Raw connections throwing garbage at the acceptor:
    for garbage in [
        &b""[..],
        &b"\x00"[..],
        &b"GIOP\x01\x02\x00\x00\x00\x00\x00\x00"[..], // GIOP before handshake
        &[0xFFu8; 64][..],
    ] {
        let mut conn = net.connect(server.port(), TransportCtx::new()).unwrap();
        let _ = conn.send_control(garbage);
        // server either drops us or never answers; drop and move on
        drop(conn);
    }

    // Partial handshake then silence, then disconnect.
    {
        let conn = net.connect(server.port(), TransportCtx::new()).unwrap();
        drop(conn);
    }

    // Valid handshake followed by garbled GIOP.
    {
        let mut conn = net.connect(server.port(), TransportCtx::new()).unwrap();
        conn.send_control(&Handshake::local(true).encode()).unwrap();
        let _server_hello = conn.recv_control().unwrap();
        conn.send_control(b"NOPE").unwrap();
        drop(conn);
    }

    // The server must still serve well-formed clients.
    let frame = TaggedFrame {
        stream_id: 1,
        pts: 1,
        pixels: ZcOctetSeq::with_length(64),
        label: "ok".into(),
    };
    let back: TaggedFrame = obj
        .request("swap")
        .arg(&frame)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(back.label, "OK");
}

#[test]
fn truncated_giop_request_is_survivable() {
    let meter = CopyMeter::new_shared();
    let (obj, server, _client, net) = fixture(Arc::clone(&meter));
    {
        let mut conn = net.connect(server.port(), TransportCtx::new()).unwrap();
        conn.send_control(&Handshake::local(true).encode()).unwrap();
        let _hello = conn.recv_control().unwrap();
        // a GIOP header announcing a body that never matches the frame
        let hdr = zc_giop::GiopHeader::new(
            zc_giop::GiopVersion::V1_2,
            zc_cdr::ByteOrder::native(),
            zc_giop::MessageType::Request,
            999, // lies: no body follows
        );
        conn.send_control(&hdr.encode()).unwrap();
        drop(conn);
    }
    // healthy client unaffected
    let frame = TaggedFrame {
        stream_id: 2,
        pts: 2,
        pixels: ZcOctetSeq::with_length(16),
        label: "still alive".into(),
    };
    let back: TaggedFrame = obj
        .request("swap")
        .arg(&frame)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(back.label, "STILL ALIVE");
}

#[test]
fn endless_fragment_train_is_cut_off_at_one_legal_message() {
    use zc_giop::{GiopHeader, GiopVersion, MessageType, GIOP_HEADER_LEN, MAX_GIOP_MESSAGE};
    let meter = CopyMeter::new_shared();
    let (obj, server, _client, net) = fixture(Arc::clone(&meter));
    {
        let mut conn = net.connect(server.port(), TransportCtx::new()).unwrap();
        conn.send_control(&Handshake::local(true).encode()).unwrap();
        let _hello = conn.recv_control().unwrap();
        // Every fragment is legal on its own and promises another one; the
        // server must stop holding them once their sum passes the cap,
        // answer MessageError and hang up — not reassemble without bound.
        let chunk = vec![0u8; 16 << 20];
        let fragments = MAX_GIOP_MESSAGE as usize / chunk.len() + 1;
        for i in 0..fragments {
            let kind = if i == 0 {
                MessageType::Request
            } else {
                MessageType::Fragment
            };
            let mut hdr = GiopHeader::new(
                GiopVersion::V1_2,
                zc_cdr::ByteOrder::native(),
                kind,
                chunk.len() as u32,
            );
            hdr.flags.more_fragments = true;
            conn.send_control_vectored(&[&hdr.encode(), &chunk])
                .unwrap();
        }
        let answer = conn.recv_control().unwrap();
        let hdr = GiopHeader::decode(answer.first_chunk::<GIOP_HEADER_LEN>().unwrap()).unwrap();
        assert_eq!(hdr.msg_type, MessageType::MessageError);
    }
    // healthy client unaffected
    let frame = TaggedFrame {
        stream_id: 3,
        pts: 3,
        pixels: ZcOctetSeq::with_length(16),
        label: "bounded".into(),
    };
    let back: TaggedFrame = obj
        .request("swap")
        .arg(&frame)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(back.label, "BOUNDED");
}

#[test]
fn rapid_connect_disconnect_churn() {
    let meter = CopyMeter::new_shared();
    let (obj, server, client, net) = fixture(Arc::clone(&meter));
    let _ = client;
    for i in 0..50 {
        let churn = Orb::builder().sim(net.clone()).build();
        let ior = server.ior_for("sink", "IDL:rb/FrameSink:1.0").unwrap();
        let o = churn.resolve(&ior).unwrap();
        if i % 3 == 0 {
            // some of them actually talk before vanishing
            let f = TaggedFrame {
                stream_id: i,
                pts: 0,
                pixels: ZcOctetSeq::with_length(8),
                label: "x".into(),
            };
            let _: TaggedFrame = o
                .request("swap")
                .arg(&f)
                .unwrap()
                .invoke()
                .unwrap()
                .result()
                .unwrap();
        }
        drop(o);
        drop(churn);
    }
    // the long-lived client still works
    let f = TaggedFrame {
        stream_id: 0,
        pts: 0,
        pixels: ZcOctetSeq::with_length(8),
        label: "end".into(),
    };
    let back: TaggedFrame = obj
        .request("swap")
        .arg(&f)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(back.label, "END");
}
