//! Property tests for the transports: payload integrity under arbitrary
//! sizes, interleavings and speculation rates, on both stack modes.

use proptest::prelude::*;

use zc_buffers::{AlignedBuf, ZcBytes, PAGE_SIZE};
use zc_transport::{
    Acceptor, Connection, SimConfig, SimNetwork, StackMode, TransportCtx, FRAME_HEADER_BYTES,
    MTU_PAYLOAD,
};

fn pair(cfg: SimConfig) -> (Box<dyn Connection>, Box<dyn Connection>) {
    let net = SimNetwork::new(cfg);
    let ctx = TransportCtx::new();
    let listener = net.listen(0, ctx.clone()).unwrap();
    let port = listener.endpoint().1;
    let client = net.connect(port, ctx).unwrap();
    let server = listener.accept().unwrap();
    (client, server)
}

fn block_of(data: &[u8]) -> ZcBytes {
    let mut b = AlignedBuf::with_capacity(data.len());
    b.extend_from_slice(data);
    ZcBytes::from_aligned(b)
}

/// Message sizes: the fragmentation edges of both stacks (nothing, one
/// byte, either side of an MTU and of a page, a 1 MiB burst) and anything
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
