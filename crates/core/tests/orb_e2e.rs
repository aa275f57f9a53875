//! End-to-end ORB tests over both transports, both stack modes, and all
//! negotiation outcomes — including the central zero-copy proof.

use std::sync::Arc;

use zc_buffers::{CopyLayer, CopyMeter, ZcBytes};
use zc_cdr::{OctetSeq, ZcOctetSeq};
use zc_giop::SystemExceptionKind;
use zc_orb::{ObjectAdapterExt, Orb, OrbError, OrbResult, Servant, ServerRequest};
use zc_transport::{SimConfig, SimNetwork};

/// The workhorse test servant: echo, fill, sum, and error cases.
struct Transfer;

impl Servant for Transfer {
    fn repo_id(&self) -> &'static str {
        "IDL:zcorba/Transfer:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            // sequence<ZC_Octet> echo — the paper's bulk path.
            "echo" => {
                let data: ZcOctetSeq = req.arg()?;
                req.result(&data)
            }
            // standard sequence<octet> echo — the conventional path.
            "echo_std" => {
                let data: OctetSeq = req.arg()?;
                req.result(&data)
            }
            // server-produced bulk data (reply deposit from fresh pages)
            "produce" => {
                let len: u32 = req.arg()?;
                let mut block = zc_buffers::AlignedBuf::with_capacity(len as usize);
                let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                block.extend_from_slice(&payload);
                req.result(&ZcOctetSeq::from_zc(ZcBytes::from_aligned(block)))
            }
            // mixed scalar/bulk signature
            "checksum" => {
                let seed: u64 = req.arg()?;
                let data: ZcOctetSeq = req.arg()?;
                let label: String = req.arg()?;
                let sum = data
                    .iter()
                    .fold(seed, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64));
                req.result(&sum)?;
                req.out(&format!("{label}:{}", data.len()))
            }
            // multiple results
            "min_max" => {
                let v: Vec<i32> = req.arg()?;
                let min = v.iter().copied().min().unwrap_or(0);
                let max = v.iter().copied().max().unwrap_or(0);
                req.result(&min)?;
                req.out(&max)
            }
            "fail_internal" => Err(OrbError::Protocol("servant blew up".into())),
            _ => req.bad_operation(op),
        }
    }
}

fn patterned(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 131 + 7) % 251) as u8).collect()
}

struct Fixture {
    client: Orb,
    _server_orb: Orb,
    server: zc_orb::ServerHandle,
    meter: Arc<CopyMeter>,
}

impl Fixture {
    fn sim(cfg: SimConfig, client_zc: bool, server_zc: bool) -> Fixture {
        let net = SimNetwork::new(cfg);
        let meter = CopyMeter::new_shared();
        let server_orb = Orb::builder()
            .sim(net.clone())
            .zc(server_zc)
            .meter(Arc::clone(&meter))
            .build();
        server_orb
            .adapter()
            .register("transfer", Arc::new(Transfer));
        let server = server_orb.serve(0).unwrap();
        let client = Orb::builder()
            .sim(net)
            .zc(client_zc)
            .meter(Arc::clone(&meter))
            .build();
        Fixture {
            client,
            _server_orb: server_orb,
            server,
            meter,
        }
    }

    fn obj(&self) -> zc_orb::ObjectRef {
        let ior = self
            .server
            .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
            .unwrap();
        self.client.resolve(&ior).unwrap()
    }
}

#[test]
fn zero_copy_proof_end_to_end() {
    // THE central invariant of the paper: on a negotiated ZC connection over
    // the zero-copy stack, a bulk transfer copies ZERO payload bytes in any
    // middleware or OS layer — and the overhead that remains (GIOP headers)
    // does not scale with the payload.
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let obj = f.obj();
    assert!(obj.is_zero_copy());

    let n = 4 << 20; // 4 MiB
    let payload = ZcOctetSeq::from_zc(ZcBytes::zeroed(n));
    let before = f.meter.snapshot();
    let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
    let back: ZcOctetSeq = reply.result().unwrap();
    let delta = f.meter.snapshot().since(&before);

    assert_eq!(back.len(), n);
    assert!(
        back.ptr_eq(&payload),
        "the client got its own pages back: true zero-copy both directions"
    );
    assert_eq!(
        delta.bytes(CopyLayer::Marshal)
            + delta.bytes(CopyLayer::Demarshal)
            + delta.bytes(CopyLayer::KernelFrag)
            + delta.bytes(CopyLayer::KernelDefrag)
            + delta.bytes(CopyLayer::DepositFallback),
        0,
        "no payload copy in marshal/kernel layers:\n{}",
        delta.report()
    );
    assert!(
        delta.overhead_bytes() < 2048,
        "residual control-message copies must not scale with the 4 MiB payload, got {} bytes:\n{}",
        delta.overhead_bytes(),
        delta.report()
    );
}

#[test]
fn standard_path_copies_at_every_layer() {
    let f = Fixture::sim(SimConfig::copying(), true, true);
    let obj = f.obj();
    let n = 1 << 20;
    let data = OctetSeq(patterned(n));
    let before = f.meter.snapshot();
    let reply = obj
        .request("echo_std")
        .arg(&data)
        .unwrap()
        .invoke()
        .unwrap();
    let back: OctetSeq = reply.result().unwrap();
    assert_eq!(back, data);
    let d = f.meter.snapshot().since(&before);
    // Request + reply each traverse: marshal, socket-send, kernel-frag,
    // kernel-defrag, socket-recv, demarshal — 2 × n at each layer (>=
    // because GIOP headers ride along).
    for layer in [
        CopyLayer::Marshal,
        CopyLayer::Demarshal,
        CopyLayer::SocketSend,
        CopyLayer::SocketRecv,
        CopyLayer::KernelFrag,
        CopyLayer::KernelDefrag,
    ] {
        assert!(
            d.bytes(layer) >= 2 * n as u64,
            "expected ≥ {} at {}, got {}",
            2 * n,
            layer.name(),
            d.bytes(layer)
        );
    }
}

#[test]
fn data_integrity_zc_large_transfer() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let obj = f.obj();
    let n = 16 << 20; // the paper's largest TTCP size
    let pattern = patterned(n);
    let payload = ZcOctetSeq::copy_from_slice(&pattern, &f.meter);
    let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
    let back: ZcOctetSeq = reply.result().unwrap();
    assert_eq!(&back[..], &pattern[..]);
}

#[test]
fn server_produced_deposit() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let obj = f.obj();
    let reply = obj
        .request("produce")
        .arg(&(100_000u32))
        .unwrap()
        .invoke()
        .unwrap();
    let block: ZcOctetSeq = reply.result().unwrap();
    assert_eq!(block.len(), 100_000);
    assert_eq!(block[0], 0);
    assert_eq!(block[1], 1);
    assert_eq!(block[250], 250);
    assert_eq!(block[251], 0);
}

#[test]
fn mixed_scalars_and_bulk() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let obj = f.obj();
    let data = ZcOctetSeq::copy_from_slice(&patterned(50_000), &f.meter);
    let reply = obj
        .request("checksum")
        .arg(&7u64)
        .unwrap()
        .arg(&data)
        .unwrap()
        .arg(&"frame".to_string())
        .unwrap()
        .invoke()
        .unwrap();
    let mut results = reply.results();
    let sum: u64 = results.next().unwrap();
    let label: String = results.next().unwrap();
    let expected = data
        .iter()
        .fold(7u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64));
    assert_eq!(sum, expected);
    assert_eq!(label, "frame:50000");
}

#[test]
fn multiple_results() {
    let f = Fixture::sim(SimConfig::copying(), true, true);
    let obj = f.obj();
    let reply = obj
        .request("min_max")
        .arg(&vec![3i32, -7, 12, 0])
        .unwrap()
        .invoke()
        .unwrap();
    let mut r = reply.results();
    assert_eq!(r.next::<i32>().unwrap(), -7);
    assert_eq!(r.next::<i32>().unwrap(), 12);
}

#[test]
fn negotiation_fallback_when_server_refuses_zc() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, false);
    let obj = f.obj();
    assert!(!obj.is_zero_copy(), "one unwilling side disables deposits");
    // ZcOctetSeq still works — transparently inline.
    let pattern = patterned(80_000);
    let payload = ZcOctetSeq::copy_from_slice(&pattern, &f.meter);
    let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
    let back: ZcOctetSeq = reply.result().unwrap();
    assert_eq!(&back[..], &pattern[..]);
    assert!(!back.ptr_eq(&payload), "inline fallback cannot share pages");
    assert!(
        f.meter.bytes(CopyLayer::Marshal) >= 80_000,
        "fallback marshals (copies) the payload"
    );
}

#[test]
fn heterogeneous_peer_interop() {
    // The client *claims* a foreign architecture (swapped byte order). The
    // connection must fall back to conventional IIOP, and the data must
    // still arrive intact — a real cross-endian exchange, since the wire
    // order becomes the foreign one.
    let net = SimNetwork::new(SimConfig::copying());
    let server_orb = Orb::builder().sim(net.clone()).zc(true).build();
    server_orb
        .adapter()
        .register("transfer", Arc::new(Transfer));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder()
        .sim(net)
        .zc(true)
        .pretend_foreign(true)
        .build();
    let ior = server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    let obj = client.resolve(&ior).unwrap();
    assert!(!obj.is_zero_copy());
    let reply = obj
        .request("min_max")
        .arg(&vec![5i32, 9, -2])
        .unwrap()
        .invoke()
        .unwrap();
    let mut r = reply.results();
    assert_eq!(r.next::<i32>().unwrap(), -2);
    assert_eq!(r.next::<i32>().unwrap(), 9);
}

#[test]
fn exceptions_propagate() {
    let f = Fixture::sim(SimConfig::copying(), true, true);
    let obj = f.obj();

    let err = obj.request("no_such_op").invoke().unwrap_err();
    match err {
        OrbError::System(ex) => assert_eq!(ex.kind, SystemExceptionKind::BadOperation),
        other => panic!("unexpected {other:?}"),
    }

    let err = obj.request("fail_internal").invoke().unwrap_err();
    match err {
        OrbError::System(ex) => assert_eq!(ex.kind, SystemExceptionKind::Internal),
        other => panic!("unexpected {other:?}"),
    }

    // Unknown object key
    let ior = zc_giop::Ior::new_iiop("IDL:zcorba/Transfer:1.0", "sim", f.server.port(), b"ghost");
    let ghost = f.client.resolve(&ior).unwrap();
    let err = ghost
        .request("echo_std")
        .arg(&OctetSeq(vec![1]))
        .unwrap()
        .invoke()
        .unwrap_err();
    match err {
        OrbError::System(ex) => assert_eq!(ex.kind, SystemExceptionKind::ObjectNotExist),
        other => panic!("unexpected {other:?}"),
    }

    // The connection survives exceptions: a normal call still works.
    let reply = obj
        .request("echo_std")
        .arg(&OctetSeq(vec![9, 9]))
        .unwrap()
        .invoke()
        .unwrap();
    assert_eq!(reply.result::<OctetSeq>().unwrap().0, vec![9, 9]);
}

/// Exception replies are decoded on from where the reply header ended, not
/// parsed again from the top: with service contexts in front — a foreign
/// one of odd length among them, so the header ends off the 8-byte grid —
/// a `TRANSIENT` shed and a user exception both still come out whole.
#[test]
fn exception_replies_decode_behind_service_contexts() {
    use zc_cdr::{CdrDecoder, CdrEncoder};
    use zc_giop::{
        fragment_frames, GiopHeader, GiopVersion, Handshake, MessageType, ReplyHeader, ReplyStatus,
        RequestHeader, ServiceContext, TraceContext, ZcHealthContext, GIOP_HEADER_LEN,
    };
    use zc_transport::{Acceptor, TransportCtx};

    const CONFLICT: &str = "IDL:test/Conflict:1.0";
    let shed = zc_orb::ShedReason::QueueFull.exception();
    let net = SimNetwork::new(SimConfig::zero_copy());
    let listener = net.listen(0, TransportCtx::new()).unwrap();
    let port = listener.endpoint().1;
    // A hand-rolled server: it answers the first request with the shed, the
    // second with a user exception whose one member is 77.
    let to_send = shed.clone();
    let server = std::thread::spawn(move || {
        let mut conn = listener.accept().unwrap();
        conn.recv_control().unwrap();
        conn.send_control(&Handshake::local(true).encode()).unwrap();
        for status in [ReplyStatus::SystemException, ReplyStatus::UserException] {
            let raw = conn.recv_control().unwrap();
            let hdr = GiopHeader::decode(raw.first_chunk().unwrap()).unwrap();
            let order = hdr.flags.order;
            let request =
                RequestHeader::demarshal(&mut CdrDecoder::new(&raw[GIOP_HEADER_LEN..], order))
                    .unwrap();
            let reply = ReplyHeader {
                service_contexts: vec![
                    ServiceContext {
                        id: 0x4646_0001, // not a zcorba context id
                        data: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x01],
                    },
                    ZcHealthContext::default().to_context(),
                    TraceContext::default().to_context(),
                ],
                request_id: request.request_id,
                status,
            };
            let mut enc = CdrEncoder::new(order);
            reply.marshal(&mut enc).unwrap();
            assert_ne!(enc.len() % 8, 0, "the header must end misaligned");
            enc.align(8);
            if status == ReplyStatus::SystemException {
                to_send.marshal(&mut enc).unwrap();
            } else {
                enc.write_string(CONFLICT);
                enc.write_bool(order.flag());
                enc.write_octet_seq(&77u32.to_ne_bytes());
            }
            let body = enc.finish_stream();
            for frame in
                fragment_frames(GiopVersion::V1_2, order, MessageType::Reply, &body, 4 << 20)
            {
                conn.send_control(&frame).unwrap();
            }
        }
    });

    let client = Orb::builder().sim(net).build();
    let ior = zc_giop::Ior::new_iiop("IDL:test/Handmade:1.0", "sim", port, b"handmade");
    let obj = client.resolve(&ior).unwrap();
    match obj.request("first").invoke().unwrap_err() {
        OrbError::System(ex) => assert_eq!(ex, shed),
        other => panic!("unexpected {other:?}"),
    }
    match obj.request("second").invoke().unwrap_err() {
        OrbError::User(data) => assert_eq!(data.decode::<u32>(CONFLICT), Some(77)),
        other => panic!("unexpected {other:?}"),
    }
    server.join().unwrap();
}

/// A zero-copy Request and its Reply carry exactly the deposit manifest and
/// the trace context, in that order. A hand-rolled relay sits between a real
/// client and a real server, forwards one exchange, and lists the service
/// contexts of each message as it passes.
#[test]
fn zero_copy_messages_carry_only_the_manifest_and_trace_contexts() {
    use zc_cdr::CdrDecoder;
    use zc_giop::{
        GiopHeader, ReplyView, RequestView, ZcContexts, GIOP_HEADER_LEN, SVC_CTX_DEPOSIT,
        SVC_CTX_TRACE,
    };
    use zc_transport::{Acceptor, Connection, TransportCtx};

    /// Forward one GIOP message and the blocks its manifest announces;
    /// return the ids of its service contexts.
    fn forward(
        from: &mut dyn Connection,
        to: &mut dyn Connection,
        contexts: for<'a> fn(&mut CdrDecoder<'a>) -> ZcContexts<'a>,
    ) -> Vec<u32> {
        let raw = from.recv_control().unwrap();
        let hdr = GiopHeader::decode(raw.first_chunk().unwrap()).unwrap();
        let mut dec = CdrDecoder::new(&raw[GIOP_HEADER_LEN..], hdr.flags.order);
        let contexts = contexts(&mut dec);
        to.send_control(&raw).unwrap();
        for len in contexts.manifest.iter().flat_map(|m| m.block_lengths()) {
            let block = from.recv_data(len as usize).unwrap();
            to.send_data(&block).unwrap();
        }
        contexts.iter().map(|(id, _)| id).collect()
    }

    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder().sim(net.clone()).build();
    server_orb
        .adapter()
        .register("transfer", Arc::new(Transfer));
    let server = server_orb.serve(0).unwrap();
    let upstream = server.port();
    let listener = net.listen(0, TransportCtx::new()).unwrap();
    let port = listener.endpoint().1;
    let relay_net = net.clone();
    let relay = std::thread::spawn(move || {
        let mut client = listener.accept().unwrap();
        let mut server = relay_net.connect(upstream, TransportCtx::new()).unwrap();
        // The handshakes, client first.
        let hello = client.recv_control().unwrap();
        server.send_control(&hello).unwrap();
        let answer = server.recv_control().unwrap();
        client.send_control(&answer).unwrap();
        let request = forward(&mut *client, &mut *server, |d| {
            RequestView::parse(d).unwrap().contexts
        });
        let reply = forward(&mut *server, &mut *client, |d| {
            ReplyView::parse(d).unwrap().contexts
        });
        (request, reply)
    });

    let client = Orb::builder().sim(net).build();
    let ior = zc_giop::Ior::new_iiop("IDL:zcorba/Transfer:1.0", "sim", port, b"transfer");
    let obj = client.resolve(&ior).unwrap();
    assert!(obj.is_zero_copy());
    let pattern = patterned(20_000);
    let payload = ZcOctetSeq::copy_from_slice(&pattern, &client.meter());
    let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
    assert_eq!(&reply.result::<ZcOctetSeq>().unwrap()[..], &pattern[..]);
    let (request, reply) = relay.join().unwrap();
    assert_eq!(
        request,
        [SVC_CTX_DEPOSIT, SVC_CTX_TRACE],
        "request contexts"
    );
    assert_eq!(reply, [SVC_CTX_DEPOSIT, SVC_CTX_TRACE], "reply contexts");
}

#[test]
fn locate_request_roundtrip() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let obj = f.obj();
    assert!(obj.locate().unwrap(), "registered object is OBJECT_HERE");
    // the connection is still usable for normal requests afterwards
    let reply = obj
        .request("echo_std")
        .arg(&OctetSeq(vec![5]))
        .unwrap()
        .invoke()
        .unwrap();
    assert_eq!(reply.result::<OctetSeq>().unwrap().0, vec![5]);
    // a ghost key still answers (OBJECT_HERE is reachability, per GIOP);
    // the authoritative check is the invocation, which raises.
    let ghost = f
        .client
        .resolve(&zc_giop::Ior::new_iiop(
            "IDL:zcorba/Transfer:1.0",
            "sim",
            f.server.port(),
            b"ghost",
        ))
        .unwrap();
    ghost.locate().unwrap();
    assert!(matches!(
        ghost
            .request("echo_std")
            .arg(&OctetSeq(vec![1]))
            .unwrap()
            .invoke(),
        Err(OrbError::System(_))
    ));
}

#[test]
fn oneway_requests() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let obj = f.obj();
    // oneway calls produce no reply; a following two-way call must not see
    // stale state.
    obj.request("echo_std")
        .arg(&OctetSeq(vec![1, 2, 3]))
        .unwrap()
        .invoke_oneway()
        .unwrap();
    let reply = obj
        .request("min_max")
        .arg(&vec![4i32])
        .unwrap()
        .invoke()
        .unwrap();
    assert_eq!(reply.results().next::<i32>().unwrap(), 4);
}

#[test]
fn concurrent_clients_private_connections() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let ior = f
        .server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    let mut handles = Vec::new();
    for t in 0..8 {
        let client = f.client.clone();
        let ior = ior.clone();
        handles.push(std::thread::spawn(move || {
            let obj = client.resolve_private(&ior).unwrap();
            for i in 0..20 {
                let n = 1000 * (t + 1) + i;
                let payload = ZcOctetSeq::with_length(n);
                let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
                let back: ZcOctetSeq = reply.result().unwrap();
                assert_eq!(back.len(), n);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn connection_cache_is_shared() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let ior = f
        .server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    let a = f.client.resolve(&ior).unwrap();
    let b = f.client.resolve(&ior).unwrap();
    // Both proxies work over the shared cached connection.
    a.request("min_max")
        .arg(&vec![1i32])
        .unwrap()
        .invoke()
        .unwrap();
    b.request("min_max")
        .arg(&vec![2i32])
        .unwrap()
        .invoke()
        .unwrap();
}

#[test]
fn resolve_via_ior_string() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let ior = f
        .server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    let s = ior.to_ior_string();
    let obj = f.client.resolve_str(&s).unwrap();
    let reply = obj
        .request("echo_std")
        .arg(&OctetSeq(vec![42]))
        .unwrap()
        .invoke()
        .unwrap();
    assert_eq!(reply.result::<OctetSeq>().unwrap().0, vec![42]);
}

#[test]
fn ior_for_unknown_key_errors() {
    let f = Fixture::sim(SimConfig::copying(), true, true);
    assert!(matches!(
        f.server.ior_for("nope", "IDL:x:1.0"),
        Err(OrbError::Unresolvable(_))
    ));
}

#[test]
fn tcp_transport_end_to_end() {
    let meter = CopyMeter::new_shared();
    let server_orb = Orb::builder().tcp().meter(Arc::clone(&meter)).build();
    server_orb
        .adapter()
        .register("transfer", Arc::new(Transfer));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder().tcp().meter(Arc::clone(&meter)).build();
    let ior = server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    let obj = client.resolve(&ior).unwrap();
    assert!(
        obj.is_zero_copy(),
        "same machine, both willing: ORB-level ZC is on even over real TCP"
    );
    let n = 2 << 20;
    let pattern = patterned(n);
    let payload = ZcOctetSeq::copy_from_slice(&pattern, &meter);
    let before = meter.snapshot();
    let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
    let back: ZcOctetSeq = reply.result().unwrap();
    assert_eq!(&back[..], &pattern[..]);
    let d = meter.snapshot().since(&before);
    assert_eq!(
        d.bytes(CopyLayer::Marshal) + d.bytes(CopyLayer::Demarshal),
        0,
        "ZC ORB over real TCP: marshal copies gone; only socket crossings remain"
    );
    assert!(d.bytes(CopyLayer::SocketSend) >= 2 * n as u64);
    server.shutdown();
}

#[test]
fn ablation_deposit_disabled_reintroduces_marshal_copies() {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let meter = CopyMeter::new_shared();
    let server_orb = Orb::builder()
        .sim(net.clone())
        .meter(Arc::clone(&meter))
        .deposit_enabled(false)
        .build();
    server_orb
        .adapter()
        .register("transfer", Arc::new(Transfer));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder()
        .sim(net)
        .meter(Arc::clone(&meter))
        .deposit_enabled(false)
        .build();
    let ior = server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    let obj = client.resolve(&ior).unwrap();
    assert!(!obj.is_zero_copy());
    let n = 500_000;
    let payload = ZcOctetSeq::with_length(n);
    let before = meter.snapshot();
    let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
    let _back: ZcOctetSeq = reply.result().unwrap();
    let d = meter.snapshot().since(&before);
    assert!(
        d.bytes(CopyLayer::Marshal) >= n as u64,
        "marshal-bypass-only config still copies inline"
    );
}

#[test]
fn ablation_coupled_data_path_still_correct() {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let meter = CopyMeter::new_shared();
    let server_orb = Orb::builder()
        .sim(net.clone())
        .meter(Arc::clone(&meter))
        .separate_data(false)
        .build();
    server_orb
        .adapter()
        .register("transfer", Arc::new(Transfer));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder()
        .sim(net)
        .meter(Arc::clone(&meter))
        .separate_data(false)
        .build();
    let ior = server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    let obj = client.resolve(&ior).unwrap();
    let pattern = patterned(300_000);
    let payload = ZcOctetSeq::copy_from_slice(&pattern, &meter);
    let before = meter.snapshot();
    let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
    let back: ZcOctetSeq = reply.result().unwrap();
    assert_eq!(&back[..], &pattern[..]);
    let d = meter.snapshot().since(&before);
    assert!(
        d.bytes(CopyLayer::Marshal) >= 2 * 300_000u64,
        "coupling control+data re-introduces buffering copies (got {})",
        d.bytes(CopyLayer::Marshal)
    );
}

#[test]
fn speculation_miss_transfers_stay_correct() {
    let f = Fixture::sim(SimConfig::zero_copy_with_speculation(0.3), true, true);
    let obj = f.obj();
    for i in 0..30 {
        let n = 10_000 + i * 777;
        let pattern = patterned(n);
        let payload = ZcOctetSeq::copy_from_slice(&pattern, &f.meter);
        let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
        let back: ZcOctetSeq = reply.result().unwrap();
        assert_eq!(&back[..], &pattern[..], "round {i}");
    }
    assert!(
        f.meter.bytes(CopyLayer::DepositFallback) > 0,
        "with p=0.3 some speculation misses must have occurred"
    );
    // A miss costs the one fallback copy and nothing else: the connection
    // keeps sending descriptors, so no payload byte is ever marshaled inline.
    assert_eq!(f.meter.bytes(CopyLayer::Marshal), 0);
}

#[test]
fn oversized_inline_payload_is_fragmented_transparently() {
    // A marshaled-inline payload above FRAGMENT_THRESHOLD (4 MiB) forces
    // the connection to emit GIOP Fragment continuations; the application
    // must not notice.
    let f = Fixture::sim(SimConfig::copying(), true, true);
    let obj = f.obj();
    let n = 6 << 20;
    let pattern = patterned(n);
    let before = f.meter.snapshot();
    let reply = obj
        .request("echo_std")
        .arg(&OctetSeq(pattern.clone()))
        .unwrap()
        .invoke()
        .unwrap();
    let back: OctetSeq = reply.result().unwrap();
    assert_eq!(back.0, pattern);
    // Putting the fragments of a message back together is a copy, and it
    // is on the ledger: in each direction one more defragmentation pass
    // than the stack's own.
    let copied = f.meter.snapshot().since(&before);
    assert!(
        copied.bytes(CopyLayer::KernelDefrag) >= copied.bytes(CopyLayer::SocketRecv) + 2 * n as u64
    );
    // and again over the coupled-data ablation, where a ZC payload rides
    // inline in the control message
    let net = SimNetwork::new(SimConfig::zero_copy());
    let meter = CopyMeter::new_shared();
    let server_orb = Orb::builder()
        .sim(net.clone())
        .meter(Arc::clone(&meter))
        .separate_data(false)
        .build();
    server_orb
        .adapter()
        .register("transfer", Arc::new(Transfer));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder()
        .sim(net)
        .meter(meter)
        .separate_data(false)
        .build();
    let ior = server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    let obj2 = client.resolve(&ior).unwrap();
    let payload = ZcOctetSeq::copy_from_slice(&pattern, &f.meter);
    let back2: ZcOctetSeq = obj2
        .request("echo")
        .arg(&payload)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(&back2[..], &pattern[..]);
}

#[test]
fn empty_payloads_roundtrip() {
    let f = Fixture::sim(SimConfig::zero_copy(), true, true);
    let obj = f.obj();
    let reply = obj
        .request("echo")
        .arg(&ZcOctetSeq::with_length(0))
        .unwrap()
        .invoke()
        .unwrap();
    assert_eq!(reply.result::<ZcOctetSeq>().unwrap().len(), 0);
    let reply = obj
        .request("echo_std")
        .arg(&OctetSeq(vec![]))
        .unwrap()
        .invoke()
        .unwrap();
    assert!(reply.result::<OctetSeq>().unwrap().is_empty());
}

#[test]
fn server_shutdown_refuses_new_connections() {
    let net = SimNetwork::new(SimConfig::copying());
    let server_orb = Orb::builder().sim(net.clone()).build();
    server_orb
        .adapter()
        .register("transfer", Arc::new(Transfer));
    let server = server_orb.serve(0).unwrap();
    let port = server.port();
    let client = Orb::builder().sim(net.clone()).build();
    let ior = server
        .ior_for("transfer", "IDL:zcorba/Transfer:1.0")
        .unwrap();
    // connection works before shutdown
    let obj = client.resolve(&ior).unwrap();
    obj.request("min_max")
        .arg(&vec![1i32])
        .unwrap()
        .invoke()
        .unwrap();
    server.shutdown();
    // a *new* connection must now be refused
    let fresh_client = Orb::builder().sim(net).build();
    let ior2 = zc_giop::Ior::new_iiop("IDL:zcorba/Transfer:1.0", "sim", port, b"transfer");
    assert!(fresh_client.resolve(&ior2).is_err());
}
