//! A recycling pool of page-aligned buffers.
//!
//! §3.2 of the paper: *"the best option to allocate and manage the buffers is
//! by the application or the stub and skeleton code"* — i.e. buffer
//! management is delegated away from the kernel/middleware hot path. The
//! deposit receiver allocates an appropriately sized, page-aligned buffer per
//! request; recycling those buffers through a pool removes allocation cost
//! from the steady state (the paper notes memory allocation is a minor but
//! real overhead source).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::aligned::{AlignedBuf, PAGE_SIZE};
use crate::zbytes::{Block, ZcBytes};

/// Pool statistics (monotonic counters plus a point-in-time gauge).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out that had to be freshly allocated.
    pub fresh_allocations: u64,
    /// Buffers handed out from the free list (recycled).
    pub reuses: u64,
    /// Buffers returned to the free list.
    pub returns: u64,
    /// Buffers dropped instead of retained (free list full).
    pub discards: u64,
    /// Bytes currently retained on free lists.
    pub retained_bytes: u64,
}

pub(crate) struct PoolInner {
    /// Free lists keyed by capacity (each a multiple of the page size). A
    /// class stays in the map once seen, empty or not: there are only as
    /// many classes as powers of two, and dropping an emptied one made
    /// every acquire/release cycle on a one-deep class re-allocate its
    /// `Vec` (and sometimes a tree node). The lists hold whole [`Block`]s:
    /// the refcount block a frozen view needs is recycled with its pages —
    /// boxed, because it is that heap block's address the views share.
    #[allow(clippy::vec_box)]
    free: Mutex<BTreeMap<usize, Vec<Box<Block>>>>,
    /// Maximum bytes kept on free lists before returns are discarded.
    max_retained_bytes: usize,
    fresh: AtomicU64,
    reuses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
    retained: AtomicU64,
}

impl PoolInner {
    /// Take back a block nobody references any more (its `pool` handle
    /// already taken, so the free list never keeps the pool alive).
    pub(crate) fn release(&self, mut block: Box<Block>) {
        debug_assert!(block.pool.is_none());
        block.buf.clear();
        let cap = block.buf.capacity();
        let retained = self.retained.load(Ordering::Relaxed) as usize;
        if retained + cap > self.max_retained_bytes {
            self.discards.fetch_add(1, Ordering::Relaxed);
            return; // drop the block, freeing its pages
        }
        self.retained.fetch_add(cap as u64, Ordering::Relaxed);
        self.returns.fetch_add(1, Ordering::Relaxed);
        self.free.lock().entry(cap).or_default().push(block);
    }

    fn acquire(&self, min_capacity: usize) -> Box<Block> {
        let want = size_class(min_capacity);
        {
            let mut free = self.free.lock();
            // Exact class first, then any class that fits (BTreeMap range).
            if let Some(block) = free.range_mut(want..).find_map(|(_, list)| list.pop()) {
                self.retained
                    .fetch_sub(block.buf.capacity() as u64, Ordering::Relaxed);
                self.reuses.fetch_add(1, Ordering::Relaxed);
                return block;
            }
        }
        self.fresh.fetch_add(1, Ordering::Relaxed);
        Block::new(AlignedBuf::with_capacity(want))
    }
}

/// Compute the capacity class for a request: whole pages, rounded up to a
/// power-of-two number of pages so that few classes serve many sizes.
fn size_class(min_capacity: usize) -> usize {
    let pages = crate::round_up_to_page(min_capacity) / PAGE_SIZE;
    pages.next_power_of_two() * PAGE_SIZE
}

/// A thread-safe recycling pool of [`AlignedBuf`]s.
#[derive(Clone)]
pub struct PagePool {
    inner: Arc<PoolInner>,
}

impl PagePool {
    /// Create a pool that retains at most `max_retained_bytes` on its free
    /// lists (beyond that, returned buffers are freed immediately).
    pub fn new(max_retained_bytes: usize) -> PagePool {
        PagePool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(BTreeMap::new()),
                max_retained_bytes,
                fresh: AtomicU64::new(0),
                reuses: AtomicU64::new(0),
                returns: AtomicU64::new(0),
                discards: AtomicU64::new(0),
                retained: AtomicU64::new(0),
            }),
        }
    }

    /// A pool sized for typical ORB use (64 MiB retained).
    pub fn default_for_orb() -> PagePool {
        PagePool::new(64 << 20)
    }

    /// Acquire a buffer with at least `min_capacity` bytes of capacity.
    /// Returns to the pool automatically on drop (or on the last drop of a
    /// [`ZcBytes`] frozen from it).
    pub fn acquire(&self, min_capacity: usize) -> PooledBuf {
        let mut block = self.inner.acquire(min_capacity);
        block.pool = Some(Arc::clone(&self.inner));
        PooledBuf { block: Some(block) }
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh_allocations: self.inner.fresh.load(Ordering::Relaxed),
            reuses: self.inner.reuses.load(Ordering::Relaxed),
            returns: self.inner.returns.load(Ordering::Relaxed),
            discards: self.inner.discards.load(Ordering::Relaxed),
            retained_bytes: self.inner.retained.load(Ordering::Relaxed),
        }
    }
}

impl Default for PagePool {
    fn default() -> Self {
        PagePool::default_for_orb()
    }
}

impl std::fmt::Debug for PagePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PagePool({:?})", self.stats())
    }
}

/// A pooled buffer lease: behaves like an `AlignedBuf` and returns its pages
/// to the pool on drop. Freeze into [`ZcBytes`] with [`PooledBuf::freeze`]
/// to share it immutably while preserving pool return on the final drop.
pub struct PooledBuf {
    /// `None` only between `freeze` and the drop that follows it.
    block: Option<Box<Block>>,
}

impl PooledBuf {
    /// Convert into an immutable shared view. O(1) and allocation-free: the
    /// lease's block becomes the views' refcount block, and the last
    /// `ZcBytes` clone to drop sends it back to the pool with its pages.
    pub fn freeze(mut self) -> ZcBytes {
        ZcBytes::from_block(self.block.take().expect("block present until freeze/drop"))
    }

    fn buf(&self) -> &AlignedBuf {
        &self.block.as_ref().expect("block present").buf
    }

    fn buf_mut(&mut self) -> &mut AlignedBuf {
        &mut self.block.as_mut().expect("block present").buf
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = AlignedBuf;
    fn deref(&self) -> &AlignedBuf {
        self.buf()
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut AlignedBuf {
        self.buf_mut()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            block.retire();
        }
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBuf({:?})", self.buf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_are_pow2_pages() {
        assert_eq!(size_class(1), PAGE_SIZE);
        assert_eq!(size_class(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(size_class(PAGE_SIZE + 1), 2 * PAGE_SIZE);
        assert_eq!(size_class(3 * PAGE_SIZE), 4 * PAGE_SIZE);
        assert_eq!(size_class(5 * PAGE_SIZE), 8 * PAGE_SIZE);
    }

    #[test]
    fn acquire_release_recycles() {
        let pool = PagePool::new(1 << 20);
        let addr;
        {
            let b = pool.acquire(10_000);
            addr = b.as_ptr() as usize;
        } // returned
        let b2 = pool.acquire(10_000);
        assert_eq!(b2.as_ptr() as usize, addr, "buffer should be recycled");
        let s = pool.stats();
        assert_eq!(s.fresh_allocations, 1);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.returns, 1);
    }

    #[test]
    fn recycled_buffer_is_cleared() {
        let pool = PagePool::new(1 << 20);
        {
            let mut b = pool.acquire(100);
            b.extend_from_slice(&[1, 2, 3]);
        }
        let b = pool.acquire(100);
        assert_eq!(b.len(), 0, "recycled buffer length must be reset");
    }

    #[test]
    fn larger_class_can_serve_smaller_request() {
        let pool = PagePool::new(1 << 20);
        {
            let _big = pool.acquire(8 * PAGE_SIZE);
        }
        let small = pool.acquire(PAGE_SIZE);
        assert!(small.capacity() >= PAGE_SIZE);
        assert_eq!(
            pool.stats().reuses,
            1,
            "8-page buffer should serve a 1-page ask"
        );
    }

    #[test]
    fn retention_limit_discards() {
        let pool = PagePool::new(2 * PAGE_SIZE);
        {
            let _a = pool.acquire(PAGE_SIZE);
            let _b = pool.acquire(PAGE_SIZE);
            let _c = pool.acquire(PAGE_SIZE);
        } // three returns, only two fit under the limit
        let s = pool.stats();
        assert_eq!(s.returns + s.discards, 3);
        assert!(s.discards >= 1);
        assert!(s.retained_bytes <= 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn freeze_returns_to_pool_on_last_drop() {
        let pool = PagePool::new(1 << 20);
        let addr;
        {
            let mut b = pool.acquire(PAGE_SIZE);
            b.extend_from_slice(&[7; 100]);
            addr = b.as_ptr() as usize;
            let z = b.freeze();
            let z2 = z.clone();
            assert_eq!(z2.as_slice(), &[7; 100]);
            assert_eq!(pool.stats().returns, 0, "still referenced");
        }
        assert_eq!(pool.stats().returns, 1, "returned after last view dropped");
        let again = pool.acquire(PAGE_SIZE);
        assert_eq!(again.as_ptr() as usize, addr);
    }

    #[test]
    fn frozen_view_survives_pool_drop() {
        // The pool handle may be dropped while views are alive; pages must
        // stay valid because the block keeps PoolInner alive.
        let z;
        {
            let pool = PagePool::new(1 << 20);
            let mut b = pool.acquire(PAGE_SIZE);
            b.extend_from_slice(&[5; 10]);
            z = b.freeze();
        }
        assert_eq!(z.as_slice(), &[5; 10]);
    }

    #[test]
    fn concurrent_acquire_release() {
        let pool = PagePool::new(8 << 20);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let mut b = pool.acquire((i % 5 + 1) * PAGE_SIZE);
                        b.extend_from_slice(&[i as u8; 16]);
                        assert_eq!(&b.as_slice()[..16], &[i as u8; 16]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.returns + s.discards, 8 * 200);
    }

    #[test]
    fn no_aliasing_between_outstanding_buffers() {
        let pool = PagePool::new(1 << 20);
        let a = pool.acquire(PAGE_SIZE);
        let b = pool.acquire(PAGE_SIZE);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }
}
