//! The copy ledger is true and the heap is quiet.
//!
//! The standard configuration's six payload copies are all the copies
//! there are — nothing between the transport and the decoder, or between
//! the encoder and the transport, touches the payload unmetered — and in
//! steady state neither side of an invocation holds more heap than the
//! values it hands the application. Heap use is measured per thread by the
//! counting allocator, so the assertions hold at any `--test-threads`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use zc_buffers::{AlignedBuf, CopyLayer, CopyMeter, ZcBytes};
use zc_cdr::{CdrDecoder, CdrMarshal, OctetSeq, ZcOctetSeq};
use zc_giop::Handshake;
use zc_orb::{ConnTuning, GiopConn, ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest};
use zc_test_alloc::{allocations, measure_peak};
use zc_transport::{Acceptor, ConnStats, Connection, SimConfig, SimNetwork, TResult, TransportCtx};

#[global_allocator]
static GLOBAL: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;

const MIB: usize = 1 << 20;
/// Headroom for what an invocation may hold besides the values themselves.
/// (The wire's frame queues keep their storage and have grown to a block's
/// worth before anything is measured.)
const SLACK: usize = 64 << 10;

/// A transport connection that remembers where the last control message it
/// delivered lies in memory.
struct Spy {
    inner: Box<dyn Connection>,
    delivered: Arc<Mutex<Range<usize>>>,
}

impl Connection for Spy {
    fn send_control_vectored(&mut self, parts: &[&[u8]]) -> TResult<()> {
        self.inner.send_control_vectored(parts)
    }
    fn recv_control(&mut self) -> TResult<ZcBytes> {
        let msg = self.inner.recv_control()?;
        *self.delivered.lock().unwrap() = msg.start_addr()..msg.start_addr() + msg.len();
        Ok(msg)
    }
    fn send_data(&mut self, block: &ZcBytes) -> TResult<()> {
        self.inner.send_data(block)
    }
    fn recv_data(&mut self, expected_len: usize) -> TResult<ZcBytes> {
        self.inner.recv_data(expected_len)
    }
    fn is_zero_copy(&self) -> bool {
        self.inner.is_zero_copy()
    }
    fn stats(&self) -> ConnStats {
        self.inner.stats()
    }
    fn peer(&self) -> &str {
        self.inner.peer()
    }
    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> TResult<()> {
        self.inner.set_recv_timeout(timeout)
    }
}

/// What the serving thread saw of one request.
struct Served {
    /// Peak heap above entry, from `recv_request` to the demarshaled value.
    peak: usize,
    /// The request body lies inside the buffer the transport delivered.
    body_in_delivered_buffer: bool,
}

#[test]
fn standard_push_makes_six_metered_copies_and_holds_no_extra_heap() {
    const ROUNDS: u64 = 7;
    // The wire rotates three frame queues per direction (the sender's, the
    // ring's, the receiver's) and each grows, once, to the largest backlog
    // it meets. The first rounds hold the server back until the whole
    // request is on the wire, so all three have met a block's worth before
    // the heap is measured, whatever the threads' timing afterwards.
    const HELD_ROUNDS: u64 = 3;
    let net = SimNetwork::new(SimConfig::copying());
    let meter = CopyMeter::new_shared();
    let ctx = || TransportCtx::with_meter(Arc::clone(&meter));
    let (server_ctx, client_ctx) = (ctx(), ctx());
    let listener = net.listen(0, server_ctx.clone()).unwrap();
    let raw_client = net
        .connect(listener.endpoint().1, client_ctx.clone())
        .unwrap();
    let delivered = Arc::new(Mutex::new(0..0));
    let raw_server = Box::new(Spy {
        inner: listener.accept().unwrap(),
        delivered: Arc::clone(&delivered),
    });

    let (report, served) = mpsc::channel();
    let (release, released) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let mut gc = GiopConn::server(
            raw_server,
            Handshake::local(false),
            server_ctx,
            ConnTuning::default(),
        )
        .unwrap();
        for round in 0..ROUNDS {
            if round < HELD_ROUNDS {
                released.recv().unwrap();
            }
            let mut inbound = None;
            let ((req, seq), peak) = measure_peak(|| {
                let req = gc.recv_request(&mut inbound).unwrap();
                let mut dec = CdrDecoder::new(req.body, req.order).with_meter(gc.meter());
                dec.skip(req.args_offset).unwrap();
                u64::demarshal(&mut dec).unwrap();
                let seq = OctetSeq::demarshal(&mut dec).unwrap();
                (req, seq)
            });
            let buffer = delivered.lock().unwrap().clone();
            let body = req.body.start_addr()..req.body.start_addr() + req.body.len();
            let mut enc = gc.body_encoder();
            (seq.len() as u64).marshal(&mut enc).unwrap();
            gc.send_reply_ok(req.header.request_id, enc).unwrap();
            report
                .send(Served {
                    peak,
                    body_in_delivered_buffer: buffer.start <= body.start && body.end <= buffer.end,
                })
                .unwrap();
        }
    });

    let mut gc = GiopConn::client(
        raw_client,
        Handshake::local(false),
        client_ctx,
        ConnTuning::default(),
    )
    .unwrap();
    let staged = OctetSeq((0..MIB).map(|i| (i % 251) as u8).collect());
    for round in 0..ROUNDS {
        let before = meter.snapshot();
        let (ack, client_peak) = measure_peak(|| {
            let mut enc = gc.body_encoder();
            round.marshal(&mut enc).unwrap();
            staged.marshal(&mut enc).unwrap();
            let id = gc.send_request(b"sink", "push_std", true, enc).unwrap();
            if round < HELD_ROUNDS {
                release.send(()).unwrap();
            }
            let reply = gc.recv_reply(id).unwrap();
            let mut dec = CdrDecoder::new(&reply.body, reply.order);
            dec.skip(reply.results_offset).unwrap();
            u64::demarshal(&mut dec).unwrap()
        });
        assert_eq!(ack, MIB as u64);
        let seen = served.recv().unwrap();
        assert!(
            seen.body_in_delivered_buffer,
            "a copy was made between the transport and the decoder"
        );
        // The ledger: one payload at each of the six layers and nothing
        // else but the two messages' header bytes on the stack's layers.
        let copied = meter.snapshot().since(&before);
        assert_eq!(copied.bytes(CopyLayer::Marshal), MIB as u64);
        assert_eq!(copied.bytes(CopyLayer::Demarshal), MIB as u64);
        let through_stack = copied.bytes(CopyLayer::SocketSend);
        assert!((MIB as u64..MIB as u64 + 1024).contains(&through_stack));
        for layer in [
            CopyLayer::KernelFrag,
            CopyLayer::KernelDefrag,
            CopyLayer::SocketRecv,
        ] {
            assert_eq!(copied.bytes(layer), through_stack, "{layer:?}");
        }
        assert_eq!(copied.overhead_bytes(), 2 * MIB as u64 + 4 * through_stack);
        // The heap, once the pools and the marshal buffer are warm: the
        // client holds nothing beyond the sequence it staged beforehand,
        // the server nothing beyond the sequence it hands the servant.
        if round >= HELD_ROUNDS {
            assert!(client_peak < SLACK, "client peak {client_peak}");
            assert!(seen.peak <= MIB + SLACK, "server peak {}", seen.peak);
        }
    }
    drop(gc);
    server.join().unwrap();
}

/// Counts the serving thread's allocations per request: the gap between
/// the thread's allocation count at two consecutive dispatches covers one
/// whole server cycle (reply, receive, demarshal).
#[derive(Default)]
struct Sink {
    pull_block: Option<ZcBytes>,
    last_entry: AtomicU64,
    fewest_per_cycle: AtomicU64,
}

impl Servant for Sink {
    fn repo_id(&self) -> &'static str {
        "IDL:zcorba/LedgerSink:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        let now = allocations();
        let before = self.last_entry.swap(now, Ordering::Relaxed);
        self.fewest_per_cycle
            .fetch_min(now - before, Ordering::Relaxed);
        let i: u64 = req.arg()?;
        match op {
            "push_std" => {
                let d: OctetSeq = req.arg()?;
                req.result(&(i + d.len() as u64))
            }
            "push_zc" => {
                let d: ZcOctetSeq = req.arg()?;
                req.result(&(i + d.len() as u64))
            }
            "push_two" => {
                let (a, b): (ZcOctetSeq, ZcOctetSeq) = (req.arg()?, req.arg()?);
                req.result(&(i + (a.len() + b.len()) as u64))
            }
            "pull_zc" => {
                let block = self.pull_block.clone().expect("pull block configured");
                req.result(&ZcOctetSeq::from_zc(block))
            }
            "echo_small" => {
                let text: String = req.arg()?;
                let octets: OctetSeq = req.arg()?;
                req.result(&(i + (text.len() + octets.len()) as u64))
            }
            _ => req.bad_operation(op),
        }
    }
}

/// Client- and server-thread allocations of one steady-state invocation
/// over the simulated stack `cfg`, or over loopback TCP when there is none.
fn allocations_per_invoke(
    cfg: Option<SimConfig>,
    zc: bool,
    invoke: impl Fn(&zc_orb::ObjectRef, u64) -> OrbResult<u64>,
) -> (u64, u64) {
    let net = cfg.map(SimNetwork::new);
    let orb = || match &net {
        Some(net) => Orb::builder().sim(net.clone()),
        None => Orb::builder().tcp(),
    };
    let sink = Arc::new(Sink {
        pull_block: Some(ZcBytes::from_aligned(AlignedBuf::zeroed(MIB))),
        ..Sink::default()
    });
    let server_orb = orb().zc(zc).build();
    server_orb.adapter().register("sink", sink.clone());
    let server = server_orb.serve(0).unwrap();
    let client = orb().zc(zc).build();
    let obj = client
        .resolve(&server.ior_for("sink", "IDL:zcorba/LedgerSink:1.0").unwrap())
        .unwrap();
    for i in 0..8 {
        invoke(&obj, i).unwrap();
    }
    // Each side's count is its fewest over the measured rounds: a wire
    // queue that meets a new largest backlog grows once, in whichever
    // round the threads' timing first produces it.
    sink.fewest_per_cycle.store(u64::MAX, Ordering::Relaxed);
    let mut client_allocs = u64::MAX;
    for i in 0..16 {
        let before = allocations();
        invoke(&obj, 100 + i).unwrap();
        client_allocs = client_allocs.min(allocations() - before);
    }
    let server_allocs = sink.fewest_per_cycle.load(Ordering::Relaxed);
    drop(obj);
    server.shutdown();
    (client_allocs, server_allocs)
}

/// Per-invoke allocations of the shapes the benchmark drives, plus a pull
/// over TCP and a two-block push (the counts repeat exactly, so each budget
/// is the exact count). What is left is the values the caller and the
/// servant asked for by type: the staged `OctetSeq`, the `String` and the
/// `OctetSeq` of a small echo. A zero-copy invocation makes no allocator
/// call on either side: the ORB's headers, service contexts, refcount
/// blocks and outgoing deposit lists reuse per-connection storage, an
/// incoming deposit list holds its first block inline, and the wire's
/// frame queues keep theirs — where the smallest request used to cost
/// 27/23 allocations. Only a second block spills the receiver's list, once.
/// A change that breaks a budget has put a transient back on the hot path.
#[test]
fn steady_state_invocations_stay_within_their_allocation_budgets() {
    let block = ZcBytes::from_aligned(AlignedBuf::zeroed(MIB));
    let staged = vec![7u8; MIB];

    let push_std = allocations_per_invoke(Some(SimConfig::copying()), false, |obj, i| {
        // The standard client stages an owned sequence per call.
        obj.request("push_std")
            .arg(&i)?
            .arg(&OctetSeq(staged.clone()))?
            .invoke()?
            .result()
    });
    let push_zc = |obj: &zc_orb::ObjectRef, i: u64| {
        obj.request("push_zc")
            .arg(&i)?
            .arg(&ZcOctetSeq::from_zc(block.clone()))?
            .invoke()?
            .result()
    };
    let pull_zc = |obj: &zc_orb::ObjectRef, i: u64| {
        let got: ZcOctetSeq = obj.request("pull_zc").arg(&i)?.invoke()?.result()?;
        Ok(got.len() as u64)
    };
    let push_two = |obj: &zc_orb::ObjectRef, i: u64| {
        obj.request("push_two")
            .arg(&i)?
            .arg(&ZcOctetSeq::from_zc(block.clone()))?
            .arg(&ZcOctetSeq::from_zc(block.clone()))?
            .invoke()?
            .result()
    };
    let echo_small = allocations_per_invoke(Some(SimConfig::zero_copy()), true, |obj, i| {
        obj.request("echo_small")
            .arg(&i)?
            .arg(&"a short string".to_string())?
            .arg(&OctetSeq(vec![3u8; 64]))?
            .invoke()?
            .result()
    });
    let zc = || Some(SimConfig::zero_copy());
    let measured = [
        ("push_std", push_std, (1, 1)),
        (
            "push_zc",
            allocations_per_invoke(zc(), true, push_zc),
            (0, 0),
        ),
        (
            "pull_zc",
            allocations_per_invoke(zc(), true, pull_zc),
            (0, 0),
        ),
        ("echo_small", echo_small, (2, 2)),
        (
            "push_zc_tcp",
            allocations_per_invoke(None, true, push_zc),
            (0, 0),
        ),
        (
            "pull_zc_tcp",
            allocations_per_invoke(None, true, pull_zc),
            (0, 0),
        ),
        // The client's list is the connection's spare; the server's spills.
        (
            "push_two",
            allocations_per_invoke(zc(), true, push_two),
            (0, 1),
        ),
    ];
    for (name, counted, budget) in measured {
        assert_eq!(counted, budget, "{name}: (client, server) allocations");
    }
}
