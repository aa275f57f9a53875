//! The simulated wire is off the heap in steady state.
//!
//! A block crosses the wire in any number of hand-offs — seventeen windows
//! for 1 MiB on the copying stack, two for the ~100 KiB control message
//! announcing it — and none of them may cost an allocator call: the frame
//! queues keep their storage, and the socket buffers, the fragment slabs
//! and their refcount blocks are pooled. Counted per thread
//! by the counting allocator, so the assertions hold at any `--test-threads`.

use std::sync::mpsc;

use zc_buffers::ZcBytes;
use zc_test_alloc::allocations;
use zc_transport::{Acceptor, Connection, SimConfig, SimNetwork, TransportCtx};

#[global_allocator]
static GLOBAL: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;

const MIB: usize = 1 << 20;
/// A control message longer than one copying-stack window (64 KiB).
const ANNOUNCE: usize = 100 << 10;
const BLOCKS: usize = 1000;
/// The wire rotates three frame queues per direction (the sender's, the
/// ring's, the receiver's), and each grows, once, to the largest backlog it
/// meets. Steady state starts when all three have met the largest there
/// will be: a few rounds with the receiver held back until two whole blocks
/// are on the wire.
const HELD_ROUNDS: usize = 4;

fn announcement() -> Vec<u8> {
    (0..ANNOUNCE).map(|i| (i % 251) as u8).collect()
}

fn announce_and_send(from: &mut dyn Connection, announce: &[u8], block: &ZcBytes) {
    from.send_control(announce).unwrap();
    from.send_data(block).unwrap();
}

fn receive_and_ack(to: &mut dyn Connection, announce: &[u8]) {
    assert!(to.recv_control().unwrap().as_slice() == announce);
    assert_eq!(to.recv_data(MIB).unwrap().len(), MIB);
    to.send_control(b"ack").unwrap();
}

#[test]
fn a_thousand_blocks_make_no_allocator_call_on_either_stack() {
    for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
        let net = SimNetwork::new(cfg);
        let listener = net.listen(0, TransportCtx::new()).unwrap();
        let mut client = net
            .connect(listener.endpoint().1, TransportCtx::new())
            .unwrap();
        let mut server = listener.accept().unwrap();
        let (release, released) = mpsc::channel();

        let receiver = std::thread::spawn(move || {
            let announce = announcement();
            for _ in 0..HELD_ROUNDS {
                released.recv().unwrap();
                receive_and_ack(server.as_mut(), &announce);
                receive_and_ack(server.as_mut(), &announce);
            }
            let before = allocations();
            for _ in 0..BLOCKS {
                receive_and_ack(server.as_mut(), &announce);
            }
            allocations() - before
        });

        let (announce, block) = (announcement(), ZcBytes::zeroed(MIB));
        for _ in 0..HELD_ROUNDS {
            announce_and_send(client.as_mut(), &announce, &block);
            announce_and_send(client.as_mut(), &announce, &block);
            release.send(()).unwrap();
            assert_eq!(client.recv_control().unwrap(), &b"ack"[..]);
            assert_eq!(client.recv_control().unwrap(), &b"ack"[..]);
        }
        let before = allocations();
        for _ in 0..BLOCKS {
            announce_and_send(client.as_mut(), &announce, &block);
            assert_eq!(client.recv_control().unwrap(), &b"ack"[..]);
        }
        let sender_allocs = allocations() - before;
        let receiver_allocs = receiver.join().unwrap();
        assert_eq!(
            (sender_allocs, receiver_allocs),
            (0, 0),
            "{:?}: (sender, receiver) allocator calls over {BLOCKS} blocks",
            cfg.mode
        );
    }
}

/// The pull direction: the accepting end sends the blocks, as a servant's
/// reply does, on its own thread, and the dialing end takes them.
#[test]
fn a_thousand_pulled_blocks_make_no_allocator_call_on_either_stack() {
    for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
        let net = SimNetwork::new(cfg);
        let listener = net.listen(0, TransportCtx::new()).unwrap();
        let mut client = net
            .connect(listener.endpoint().1, TransportCtx::new())
            .unwrap();
        let mut server = listener.accept().unwrap();
        let (release, released) = mpsc::channel();

        let sender = std::thread::spawn(move || {
            let (announce, block) = (announcement(), ZcBytes::zeroed(MIB));
            for _ in 0..HELD_ROUNDS {
                announce_and_send(server.as_mut(), &announce, &block);
                announce_and_send(server.as_mut(), &announce, &block);
                release.send(()).unwrap();
                assert_eq!(server.recv_control().unwrap(), &b"ack"[..]);
                assert_eq!(server.recv_control().unwrap(), &b"ack"[..]);
            }
            let before = allocations();
            for _ in 0..BLOCKS {
                announce_and_send(server.as_mut(), &announce, &block);
                assert_eq!(server.recv_control().unwrap(), &b"ack"[..]);
            }
            allocations() - before
        });

        let announce = announcement();
        for _ in 0..HELD_ROUNDS {
            released.recv().unwrap();
            receive_and_ack(client.as_mut(), &announce);
            receive_and_ack(client.as_mut(), &announce);
        }
        let before = allocations();
        for _ in 0..BLOCKS {
            receive_and_ack(client.as_mut(), &announce);
        }
        let receiver_allocs = allocations() - before;
        let sender_allocs = sender.join().unwrap();
        assert_eq!(
            (sender_allocs, receiver_allocs),
            (0, 0),
            "{:?}: (sender, receiver) allocator calls over {BLOCKS} pulled blocks",
            cfg.mode
        );
    }
}
