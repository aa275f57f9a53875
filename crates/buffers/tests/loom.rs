//! Concurrency model tests for the buffer substrate, in loom style.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p zc-buffers --test loom`.
//! The vendored `loom` is a stochastic-interleaving shim (see
//! `vendor/loom`): each `model` closure executes many times on real threads
//! with a seeded, perturbed schedule rather than exhaustive state-space
//! exploration. Failures print a `LOOM_SEED` for deterministic replay. The
//! tests are written against the real loom API so they transfer unchanged
//! if the registry crate becomes available.
//!
//! What is modeled:
//! * **PagePool recycling** — concurrent acquire/release must neither lose
//!   buffers nor double-hand-out pages; counters must balance afterwards.
//! * **ZcBytes refcount/Drop** — clones and slices on racing threads keep
//!   the payload readable, and exactly the last drop returns the pages to
//!   the pool, exactly once.
//! * **The recycled refcount block** (protocol `buffers-refcount`) — the
//!   block a frozen lease shares goes back to the pool *with* its pages and
//!   comes out again under the next lease: a last drop racing a clone on
//!   another thread releases once, never early, and a new lease never gets
//!   pages a live view still reads.
#![cfg(loom)]

use loom::{explore, thread};
use zc_buffers::{PagePool, ZcBytes};

/// Two threads hammer acquire → fill → drop against one pool. Afterwards
/// every lease must have been returned or discarded (nothing leaks, nothing
/// is handed out twice — a double hand-out would corrupt the fill pattern).
#[test]
fn pool_recycling_under_contention() {
    loom::model(|| {
        let pool = PagePool::new(1 << 20);
        let mut handles = Vec::new();
        for t in 0..2u8 {
            let pool = pool.clone();
            handles.push(thread::spawn(move || {
                for round in 0..2u8 {
                    let mut lease = pool.acquire(4096);
                    explore();
                    let pattern = t.wrapping_mul(31).wrapping_add(round);
                    lease.extend_from_slice(&[pattern; 64]);
                    explore();
                    assert_eq!(lease.as_slice(), &[pattern; 64]);
                    drop(lease);
                    explore();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        // 4 leases were dropped: each return or discard is counted once.
        assert_eq!(s.returns + s.discards, 4, "stats: {s:?}");
        // Everything fit under the retention cap, so nothing was discarded
        // and the free lists hold exactly what came back.
        assert_eq!(s.discards, 0, "stats: {s:?}");
        assert!(s.retained_bytes > 0, "stats: {s:?}");
        // A fresh acquire now must come off the free list.
        let before = pool.stats().reuses;
        let lease = pool.acquire(4096);
        assert_eq!(pool.stats().reuses, before + 1);
        drop(lease);
    });
}

/// One frozen buffer, shared as ZcBytes clones/slices across threads. The
/// payload must stay readable from every view, and the pages must return to
/// the pool exactly once — at the final drop, wherever it happens.
#[test]
fn zbytes_refcount_returns_pages_once() {
    loom::model(|| {
        let pool = PagePool::new(1 << 20);
        let z: ZcBytes = {
            let mut lease = pool.acquire(4096);
            lease.extend_from_slice(&[0xAB; 256]);
            lease.freeze()
        };
        assert_eq!(pool.stats().returns, 0, "alive view must hold the pages");

        let mut handles = Vec::new();
        for t in 0..2usize {
            let view = z.slice(t * 64..(t + 1) * 64);
            handles.push(thread::spawn(move || {
                explore();
                assert_eq!(view.len(), 64);
                assert!(view.as_slice().iter().all(|&b| b == 0xAB));
                let sub = view.slice(8..16);
                explore();
                assert_eq!(sub.as_slice(), &[0xAB; 8]);
                // Views drop here, racing with the other thread and main.
            }));
        }
        explore();
        drop(z);
        for h in handles {
            h.join().unwrap();
        }

        let s = pool.stats();
        assert_eq!(s.returns, 1, "pages must return exactly once: {s:?}");
        assert_eq!(s.discards, 0, "stats: {s:?}");
        // Recycling observable: next acquire reuses the returned buffer.
        let before = s.reuses;
        let lease = pool.acquire(4096);
        assert_eq!(pool.stats().reuses, before + 1);
        drop(lease);
    });
}

/// Clone storms on one ZcBytes: refcounts race up and down while readers
/// validate the bytes; the storage must survive until the last clone dies.
#[test]
fn zbytes_clone_storm() {
    loom::model(|| {
        let pool = PagePool::new(1 << 20);
        let z = {
            let mut lease = pool.acquire(4096);
            lease.extend_from_slice(b"deposit");
            lease.freeze()
        };
        let mut handles = Vec::new();
        for _ in 0..2 {
            let z = z.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..3 {
                    let c = z.clone();
                    explore();
                    assert_eq!(c.as_slice(), b"deposit");
                    drop(c);
                    explore();
                }
            }));
        }
        drop(z);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.stats().returns, 1);
    });
}

/// The refcount block is recycled with its pages: round after round the
/// same block is leased, frozen, shared across threads and retired. One
/// thread's *last-looking* drop races the other's clone-then-drop; the
/// block must go back exactly once per round (a double release would hand
/// the same pages to two leases; an early one would let the re-lease below
/// overwrite bytes a view is still reading).
#[test]
fn recycled_block_last_drop_races_clone() {
    loom::model(|| {
        let pool = PagePool::new(1 << 20);
        for round in 0..3u8 {
            let mut lease = pool.acquire(4096);
            lease.extend_from_slice(&[round; 128]);
            let z = lease.freeze();
            assert_eq!(z.ref_count(), 1, "a recycled block starts at one");

            let cloner = {
                let z = z.clone();
                thread::spawn(move || {
                    explore();
                    let c = z.clone();
                    drop(z);
                    explore();
                    assert_eq!(c.as_slice(), &[round; 128]);
                })
            };
            let dropper = {
                let tail = z.slice(64..);
                thread::spawn(move || {
                    explore();
                    assert_eq!(tail.as_slice(), &[round; 64]);
                })
            };
            explore();
            drop(z);
            cloner.join().unwrap();
            dropper.join().unwrap();
            let s = pool.stats();
            assert_eq!(s.returns, round as u64 + 1, "one release per round: {s:?}");
            assert_eq!(s.fresh_allocations, 1, "the block is recycled: {s:?}");
        }
    });
}

/// No use after the pages went back: while any view of a block lives, the
/// pool must not lease its pages again — a thread that leases and scribbles
/// as fast as it can never lands on the pages the reader is checking.
#[test]
fn pages_are_not_re_leased_under_a_live_view() {
    loom::model(|| {
        let pool = PagePool::new(1 << 20);
        let z = {
            let mut lease = pool.acquire(4096);
            lease.extend_from_slice(&[0x5A; 512]);
            lease.freeze()
        };
        let reader = {
            let view = z.slice(..256);
            thread::spawn(move || {
                for _ in 0..4 {
                    explore();
                    assert!(view.as_slice().iter().all(|&b| b == 0x5A));
                }
            })
        };
        let scribbler = {
            let pool = pool.clone();
            let live = z.start_addr();
            thread::spawn(move || {
                for _ in 0..4 {
                    explore();
                    let mut lease = pool.acquire(4096);
                    assert_ne!(lease.as_ptr() as usize, live, "live pages re-leased");
                    lease.extend_from_slice(&[0xFF; 512]);
                }
            })
        };
        // The reader's view may go at any point; this one outlives the
        // scribbler, so the pages are live for every lease it takes.
        explore();
        scribbler.join().unwrap();
        let live = z.start_addr();
        drop(z);
        reader.join().unwrap();
        // With every view gone the pages are back, and leasable again.
        assert_eq!(pool.stats().discards, 0);
        let leased: Vec<_> = (0..2).map(|_| pool.acquire(4096)).collect();
        assert!(leased.iter().any(|l| l.as_ptr() as usize == live));
    });
}
