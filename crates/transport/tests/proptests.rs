//! Property tests for the transports: payload integrity under arbitrary
//! sizes, interleavings and speculation rates, on both stack modes.

use proptest::prelude::*;

use zc_buffers::{AlignedBuf, CopyLayer, ZcBytes, PAGE_SIZE};
use zc_transport::{
    Acceptor, Connection, FaultPlan, FaultSide, SimConfig, SimNetwork, StackMode, TransportCtx,
    TransportError, FRAME_HEADER_BYTES, MTU_PAYLOAD,
};

type Conn = Box<dyn Connection>;

/// A connected pair, with the network (to inject faults into) and the
/// context (whose meter both ends record on).
fn rig(cfg: SimConfig) -> (SimNetwork, Conn, Conn, TransportCtx) {
    let net = SimNetwork::new(cfg);
    let ctx = TransportCtx::new();
    let listener = net.listen(0, ctx.clone()).unwrap();
    let port = listener.endpoint().1;
    let client = net.connect(port, ctx.clone()).unwrap();
    let server = listener.accept().unwrap();
    (net, client, server, ctx)
}

fn pair(cfg: SimConfig) -> (Conn, Conn) {
    let (_net, client, server, _ctx) = rig(cfg);
    (client, server)
}

/// Frames the copying stack hands over at a time (`WINDOW_FRAMES` in
/// `sim.rs`; the tests below place their edges and faults relative to it).
const WINDOW_FRAMES: usize = 44;

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

fn block_of(data: &[u8]) -> ZcBytes {
    let mut b = AlignedBuf::with_capacity(data.len());
    b.extend_from_slice(data);
    ZcBytes::from_aligned(b)
}

/// Message sizes: the fragmentation edges of both stacks (nothing, one
/// byte, either side of an MTU and of a page, a 1 MiB block) and anything
/// in between.
fn sizes() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0),
        Just(1),
        MTU_PAYLOAD - 1..=MTU_PAYLOAD + 1,
        PAGE_SIZE - 1..=PAGE_SIZE + 1,
        Just(1 << 20),
        1usize..5000,
    ]
}

/// Frames the stack cuts a `len`-byte message of the given lane into.
fn frames_of(cfg: SimConfig, is_control: bool, len: usize) -> u64 {
    let unit = match (cfg.mode, is_control) {
        (StackMode::Copying, _) => cfg.mtu_payload,
        (StackMode::ZeroCopy, false) => PAGE_SIZE,
        // The zero-copy stack does not fragment control messages.
        (StackMode::ZeroCopy, true) => usize::MAX,
    };
    len.div_ceil(unit).max(1) as u64
}

fn configs() -> impl Strategy<Value = SimConfig> {
    prop_oneof![
        Just(SimConfig::copying()),
        Just(SimConfig::zero_copy()),
        (0.0f64..=1.0).prop_map(SimConfig::zero_copy_with_speculation),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any byte string of any size survives the data path bit-exactly.
    #[test]
    fn prop_data_integrity(
        cfg in configs(),
        data in proptest::collection::vec(any::<u8>(), 0..50_000),
    ) {
        let (mut c, mut s) = pair(cfg);
        let block = block_of(&data);
        c.send_data(&block).unwrap();
        let got = s.recv_data(data.len()).unwrap();
        prop_assert_eq!(got.as_slice(), &data[..]);
    }

    /// Control messages of any size survive bit-exactly, in order.
    #[test]
    fn prop_control_integrity_and_order(
        cfg in configs(),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..2000), 1..10),
    ) {
        let (mut c, mut s) = pair(cfg);
        for m in &msgs {
            c.send_control(m).unwrap();
        }
        for m in &msgs {
            let got = s.recv_control().unwrap();
            prop_assert_eq!(got.as_slice(), &m[..]);
        }
    }

    /// Arbitrary interleavings of control and data on the sender resolve
    /// correctly on the receiver regardless of the order it asks in (data
    /// asked for before the control message sent ahead of it parks that
    /// message), and the per-frame ledger survives the per-block hand-off:
    /// every wire byte sent is received, and every message counts the
    /// frames its size cuts it into.
    #[test]
    fn prop_interleaving(
        cfg in configs(),
        script in proptest::collection::vec((any::<bool>(), sizes()), 1..8),
        recv_control_first: bool,
    ) {
        let (mut c, mut s) = pair(cfg);
        let mut controls = Vec::new();
        let mut datas = Vec::new();
        let (mut frames, mut bytes) = (0u64, 0u64);
        for (i, &(is_control, size)) in script.iter().enumerate() {
            let payload: Vec<u8> = (0..size).map(|j| ((i * 31 + j) % 251) as u8).collect();
            frames += frames_of(cfg, is_control, size);
            bytes += size as u64;
            if is_control {
                c.send_control(&payload).unwrap();
                controls.push(payload);
            } else {
                c.send_data(&block_of(&payload)).unwrap();
                datas.push(payload);
            }
        }
        let check_controls = |s: &mut Box<dyn Connection>| {
            for m in &controls {
                assert_eq!(s.recv_control().unwrap().as_slice(), &m[..]);
            }
        };
        let check_datas = |s: &mut Box<dyn Connection>| {
            for m in &datas {
                assert_eq!(s.recv_data(m.len()).unwrap().as_slice(), &m[..]);
            }
        };
        if recv_control_first {
            check_controls(&mut s);
            check_datas(&mut s);
        } else {
            check_datas(&mut s);
            check_controls(&mut s);
        }
        let (sent, received) = (c.stats(), s.stats());
        prop_assert_eq!(sent.frames_sent, frames);
        prop_assert_eq!(sent.wire_bytes_sent, bytes + frames * FRAME_HEADER_BYTES as u64);
        prop_assert_eq!(received.wire_bytes_recv, sent.wire_bytes_sent);
    }

    /// Bidirectional traffic does not cross-contaminate.
    #[test]
    fn prop_full_duplex(
        cfg in configs(),
        a in proptest::collection::vec(any::<u8>(), 0..5000),
        b in proptest::collection::vec(any::<u8>(), 0..5000),
    ) {
        let (mut c, mut s) = pair(cfg);
        c.send_data(&block_of(&a)).unwrap();
        s.send_data(&block_of(&b)).unwrap();
        let got_a = s.recv_data(a.len()).unwrap();
        let got_b = c.recv_data(b.len()).unwrap();
        prop_assert_eq!(got_a.as_slice(), &a[..]);
        prop_assert_eq!(got_b.as_slice(), &b[..]);
    }

    /// Speculation hits + misses always sum to the number of blocks, and
    /// integrity holds at every probability.
    #[test]
    fn prop_speculation_accounting(p in 0.0f64..=1.0, blocks in 1usize..20) {
        let (mut c, mut s) = pair(SimConfig::zero_copy_with_speculation(p));
        for i in 0..blocks {
            let data = vec![i as u8; 4096];
            c.send_data(&block_of(&data)).unwrap();
            let got = s.recv_data(4096).unwrap();
            prop_assert_eq!(got.as_slice(), &data[..]);
        }
        let st = s.stats();
        prop_assert_eq!(st.spec_hits + st.spec_misses, blocks as u64);
    }
}

/// A block that spans hand-offs is the block that went in, on every edge
/// of the window, at several MTUs, on both lanes and both stacks — and the
/// ledger does not notice the windows: the copying stack meters exactly
/// four copies of every byte, the zero-copy stack none on the data lane,
/// and frames and wire bytes are what the block's size cuts it into.
#[test]
fn blocks_spanning_hand_offs_round_trip_with_an_exact_ledger() {
    for mtu in [512, MTU_PAYLOAD, 9000] {
        let window = WINDOW_FRAMES * mtu;
        let sizes = [
            0,
            1,
            mtu - 1,
            mtu,
            window - 1,
            window,
            window + 1,
            (4 << 20) + 1,
        ];
        for base in [SimConfig::copying(), SimConfig::zero_copy()] {
            let cfg = SimConfig {
                mtu_payload: mtu,
                ..base
            };
            let copying = cfg.mode == StackMode::Copying;
            for len in sizes {
                for is_control in [false, true] {
                    let (_net, mut c, mut s, ctx) = rig(cfg);
                    let data = patterned(len);
                    let before = ctx.meter.snapshot();
                    let got = if is_control {
                        c.send_control(&data).unwrap();
                        s.recv_control().unwrap()
                    } else {
                        c.send_data(&block_of(&data)).unwrap();
                        s.recv_data(len).unwrap()
                    };
                    let what = format!("{:?} mtu {mtu} len {len} control {is_control}", cfg.mode);
                    assert!(got.as_slice() == &data[..], "{what}");
                    let copied = ctx.meter.snapshot().since(&before);
                    let expected = match (copying, is_control) {
                        (true, _) => 4 * len,
                        // One socket copy in, one out: control messages
                        // are never deposited.
                        (false, true) => 2 * len,
                        (false, false) => 0,
                    };
                    assert_eq!(copied.overhead_bytes(), expected as u64, "{what}");
                    if copying {
                        for layer in [
                            CopyLayer::SocketSend,
                            CopyLayer::KernelFrag,
                            CopyLayer::KernelDefrag,
                            CopyLayer::SocketRecv,
                        ] {
                            assert_eq!(copied.bytes(layer), len as u64, "{what} {layer:?}");
                        }
                    }
                    let frames = frames_of(cfg, is_control, len);
                    let (sent, received) = (c.stats(), s.stats());
                    assert_eq!(sent.frames_sent, frames, "{what}");
                    assert_eq!(
                        sent.wire_bytes_sent,
                        len as u64 + frames * FRAME_HEADER_BYTES as u64,
                        "{what}"
                    );
                    assert_eq!(received.wire_bytes_recv, sent.wire_bytes_sent, "{what}");
                }
            }
        }
    }
}

/// Faults stay per frame when the frame lies in a block's *second* window:
/// what the receiver had before the fault it keeps, what the fault does to
/// one frame it does to that frame only.
#[test]
fn faults_in_the_second_window_stay_per_frame() {
    let cfg = SimConfig::copying();
    let mtu = cfg.mtu_payload;
    let data = patterned(3 * WINDOW_FRAMES * mtu);
    let block = block_of(&data);
    // The third frame of the second window.
    let nth = WINDOW_FRAMES as u64 + 2;
    let hit = nth as usize * mtu..(nth as usize + 1) * mtu;

    // Cut: the first window and two frames of the second are delivered,
    // then the wire is gone for both ends.
    let (net, mut c, mut s, _ctx) = rig(cfg);
    net.inject_faults(FaultPlan::cut_after(nth).on(FaultSide::Client));
    assert_eq!(c.send_data(&block).unwrap_err(), TransportError::Closed);
    assert_eq!(c.stats().frames_sent, nth);
    assert_eq!(s.recv_data(data.len()).unwrap_err(), TransportError::Closed);
    assert_eq!(s.stats().wire_bytes_recv, c.stats().wire_bytes_sent);
    assert_eq!(
        s.stats().wire_bytes_recv,
        nth * (mtu + FRAME_HEADER_BYTES) as u64
    );
    assert_eq!(c.send_control(b"x").unwrap_err(), TransportError::Closed);

    // Corrupt: damage inside that one frame, nowhere else.
    let (net, mut c, mut s, _ctx) = rig(cfg);
    net.inject_faults(FaultPlan {
        corrupt_frame: Some(nth),
        ..FaultPlan::default()
    });
    c.send_data(&block).unwrap();
    let got = s.recv_data(data.len()).unwrap();
    assert!(got[hit.clone()] != data[hit.clone()]);
    assert!(got[..hit.start] == data[..hit.start]);
    assert!(got[hit.end..] == data[hit.end..]);

    // Truncate: the block can never complete; the next block's first
    // frame exposes it.
    let (net, mut c, mut s, _ctx) = rig(cfg);
    net.inject_faults(FaultPlan {
        truncate_frame: Some(nth),
        ..FaultPlan::default()
    });
    c.send_data(&block).unwrap();
    c.send_data(&block).unwrap();
    assert!(matches!(
        s.recv_data(data.len()),
        Err(TransportError::Protocol(_))
    ));

    // Delay: the last frame of the first window is handed over with the
    // second window, behind that window's first frame — reordered across
    // the window edge — and the block still comes out whole.
    let (net, mut c, mut s, _ctx) = rig(cfg);
    net.inject_faults(FaultPlan {
        delay_frame: Some(WINDOW_FRAMES as u64 - 1),
        ..FaultPlan::default()
    });
    c.send_data(&block).unwrap();
    assert_eq!(c.stats().frames_sent, 3 * WINDOW_FRAMES as u64);
    assert!(s.recv_data(data.len()).unwrap().as_slice() == &data[..]);
    assert_eq!(net.faults_tripped(), 1);
}

/// Control and data blocks that each span several windows, interleaved on
/// the wire while the receiver is already taking them — window by window,
/// asking for each lane's blocks in an order of its own.
#[test]
fn multi_window_control_and_data_blocks_interleave() {
    for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
        let (_net, mut c, mut s, _ctx) = rig(cfg);
        let len = 5 * WINDOW_FRAMES * cfg.mtu_payload / 2;
        let blocks: Vec<Vec<u8>> = (0..6).map(|i| patterned(len + i)).collect();
        let sent = blocks.clone();
        let sender = std::thread::spawn(move || {
            for (i, data) in sent.iter().enumerate() {
                if i % 2 == 0 {
                    c.send_control(data).unwrap();
                } else {
                    c.send_data(&block_of(data)).unwrap();
                }
            }
            c
        });
        // Data first, although every data block was sent behind a control
        // message that is itself several windows long.
        for i in [1, 3, 0, 5, 2, 4] {
            let got = if i % 2 == 0 {
                s.recv_control().unwrap()
            } else {
                s.recv_data(blocks[i].len()).unwrap()
            };
            assert!(got.as_slice() == &blocks[i][..], "{:?} block {i}", cfg.mode);
        }
        let c = sender.join().unwrap();
        assert_eq!(s.stats().wire_bytes_recv, c.stats().wire_bytes_sent);
    }
}
