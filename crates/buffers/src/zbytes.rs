//! `ZcBytes` — reference-counted, sliceable, immutable views of aligned
//! payload buffers. The in-memory representation of `sequence<ZC_Octet>`.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::aligned::{AlignedBuf, PAGE_SIZE};
use crate::meter::{CopyLayer, CopyMeter};
use crate::pool::PoolInner;

/// The control block behind one or more `ZcBytes` views: the reference
/// count, the pages, and the pool they go back to.
///
/// A pooled block is allocated once and then travels *with* its pages:
/// lease → frozen views → free list → lease. Freezing a lease and dropping
/// the last view therefore make no allocator call, which is what keeps a
/// steady stream of control messages off the heap — the "buffers under
/// user/ORB control" principle of §3.2, applied to the bookkeeping too.
pub(crate) struct Block {
    /// Outstanding views. Meaningful only while the block is shared
    /// (between [`ZcBytes::from_block`] and the last view's drop); protocol
    /// `buffers-refcount` in `zc-audit.toml`: Relaxed increment, Release
    /// decrement, Acquire fence before the block is retired.
    refs: AtomicUsize,
    pub(crate) buf: AlignedBuf,
    /// Where the pages came from. `Some` from lease to retirement, `None`
    /// on the pool's free list (so the list holds no handle to itself) and
    /// for storage that never belonged to a pool.
    pub(crate) pool: Option<Arc<PoolInner>>,
}

impl Block {
    pub(crate) fn new(buf: AlignedBuf) -> Box<Block> {
        Box::new(Block {
            refs: AtomicUsize::new(0),
            buf,
            pool: None,
        })
    }

    /// Give the pages up: back to their pool, block and all, or — for
    /// unpooled storage — to the allocator.
    pub(crate) fn retire(mut self: Box<Block>) {
        if let Some(pool) = self.pool.take() {
            pool.release(self);
        }
    }
}

/// An immutable, cheaply clonable view over page-aligned payload bytes.
///
/// Cloning and slicing are O(1) — one relaxed atomic increment — and never
/// touch the payload: this is what the ORB layers pass around instead of
/// copying. Equality compares *contents* (for tests); use
/// [`ZcBytes::ptr_eq`] to check whether two views share storage (the
/// zero-copy property itself).
pub struct ZcBytes {
    /// Shared, refcounted; freed or recycled by the view that drops the
    /// count to zero.
    block: NonNull<Block>,
    off: usize,
    len: usize,
}

// A view only ever reads the block (`refs` atomically, `buf` and `pool`
// immutably) until it is the last one, and the Release decrement / Acquire
// fence pair in `Drop` orders every other view's reads before the last
// view retires the block.
// SAFETY: that is `Arc<T>`'s contract, which asks `T: Send + Sync` —
// true of both `AlignedBuf` and `Arc<PoolInner>`.
unsafe impl Send for ZcBytes {}
// SAFETY: as for `Send`; `&ZcBytes` exposes nothing a `ZcBytes` does not.
unsafe impl Sync for ZcBytes {}

impl ZcBytes {
    /// Wrap an owned aligned buffer (no copy).
    pub fn from_aligned(buf: AlignedBuf) -> ZcBytes {
        ZcBytes::from_block(Block::new(buf))
    }

    /// Share a uniquely owned block: the first view over its whole buffer.
    pub(crate) fn from_block(mut block: Box<Block>) -> ZcBytes {
        *block.refs.get_mut() = 1;
        let len = block.buf.len();
        ZcBytes {
            block: NonNull::from(Box::leak(block)),
            off: 0,
            len,
        }
    }

    fn block(&self) -> &Block {
        // SAFETY: this view holds one count, so the block is alive and
        // nobody holds it mutably until the last view's `drop`.
        unsafe { self.block.as_ref() }
    }

    /// Another view of the same block (one more count).
    fn share(&self, off: usize, len: usize) -> ZcBytes {
        let before = self.block().refs.fetch_add(1, Ordering::Relaxed);
        // Like `Arc`: a count this large can only come from leaking views
        // in a loop, and letting it wrap would free live pages.
        if before > isize::MAX as usize {
            std::process::abort();
        }
        ZcBytes {
            block: self.block,
            off,
            len,
        }
    }

    /// A zero-length view (still backed by one page so the address is valid).
    pub fn empty() -> ZcBytes {
        ZcBytes::from_aligned(AlignedBuf::with_capacity(0))
    }

    /// Zero-filled payload of `len` bytes.
    pub fn zeroed(len: usize) -> ZcBytes {
        ZcBytes::from_aligned(AlignedBuf::zeroed(len))
    }

    /// Build by copying `src` into a fresh aligned buffer, metering the copy
    /// at `layer`. This is the *entry point* of payload into the zero-copy
    /// world — after this single touch the bytes are never copied again on a
    /// deposit path.
    pub fn copy_from_slice(src: &[u8], meter: &CopyMeter, layer: CopyLayer) -> ZcBytes {
        let mut buf = AlignedBuf::with_capacity(src.len());
        buf.set_len(src.len());
        meter.copy(layer, buf.as_mut_slice(), src);
        ZcBytes::from_aligned(buf)
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this view.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // `off + len` was validated at construction against the then-current
        // buffer length, and storage is immutable afterwards.
        &self.block().buf.as_slice()[self.off..self.off + self.len]
    }

    /// O(1) sub-view. Accepts any range form (`a..b`, `..b`, `a..`, `..`).
    ///
    /// # Panics
    /// If the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> ZcBytes {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {}..{} out of bounds for ZcBytes of length {}",
            start,
            end,
            self.len
        );
        self.share(self.off + start, end - start)
    }

    /// O(1) split into `[0, mid)` and `[mid, len)`.
    pub fn split_at(&self, mid: usize) -> (ZcBytes, ZcBytes) {
        (self.slice(..mid), self.slice(mid..))
    }

    /// Iterate over consecutive sub-views of at most `chunk` bytes each,
    /// without copying. This is how the simulated NIC fragments a payload
    /// into MTU-sized frames on the zero-copy path.
    pub fn chunks(&self, chunk: usize) -> impl Iterator<Item = ZcBytes> + '_ {
        assert!(chunk > 0, "chunk size must be positive");
        (0..self.len)
            .step_by(chunk)
            .map(move |start| self.slice(start..(start + chunk).min(self.len)))
    }

    /// Whether the view *starts* on a page boundary. Deposit receivers
    /// require this; the ablation A2 deliberately violates it.
    pub fn is_page_aligned(&self) -> bool {
        self.start_addr().is_multiple_of(PAGE_SIZE)
    }

    /// Whether two views share the same underlying storage — i.e. whether a
    /// transfer really was zero-copy.
    pub fn ptr_eq(&self, other: &ZcBytes) -> bool {
        self.block == other.block
    }

    /// Address of the first byte (for diagnostics / alignment assertions).
    pub fn start_addr(&self) -> usize {
        self.block().buf.as_ptr() as usize + self.off
    }

    /// Number of outstanding views sharing this storage.
    pub fn ref_count(&self) -> usize {
        self.block().refs.load(Ordering::Relaxed)
    }

    /// Rejoin consecutive sub-views into one spanning view **without
    /// copying**, if and only if they share one storage and are exactly
    /// adjacent in order. Returns `None` otherwise.
    ///
    /// This is the receive-side primitive behind speculative
    /// defragmentation: when every fragment of a block landed in place
    /// (same pages, right offsets), the reassembled block *is* the original
    /// memory and no byte needs to move.
    pub fn join_contiguous<'a>(parts: impl IntoIterator<Item = &'a ZcBytes>) -> Option<ZcBytes> {
        let mut parts = parts.into_iter().peekable();
        let first = *parts.peek()?;
        let mut expected_off = first.off;
        let mut total = 0usize;
        for p in parts {
            if !p.ptr_eq(first) || p.off != expected_off {
                return None;
            }
            expected_off += p.len;
            total += p.len;
        }
        Some(first.share(first.off, total))
    }
}

impl Clone for ZcBytes {
    fn clone(&self) -> ZcBytes {
        self.share(self.off, self.len)
    }
}

impl Drop for ZcBytes {
    fn drop(&mut self) {
        // Release: this view's reads of the pages happen-before whichever
        // view sees the count reach zero.
        if self.block().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Acquire: pairs with every other view's Release decrement, so the
        // pages are quiescent before they are recycled or freed.
        fence(Ordering::Acquire);
        // SAFETY: the count reached zero, so this was the last view: the
        // pointer came from `Box::leak` in `from_block` and nothing else
        // can reach the block any more.
        let block = unsafe { Box::from_raw(self.block.as_ptr()) };
        block.retire();
    }
}

impl Deref for ZcBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ZcBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for ZcBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for ZcBytes {}

impl PartialEq<[u8]> for ZcBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for ZcBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl fmt::Debug for ZcBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ZcBytes{{len: {}, off: {}, aligned: {}, refs: {}}}",
            self.len,
            self.off,
            self.is_page_aligned(),
            self.ref_count()
        )
    }
}

impl From<AlignedBuf> for ZcBytes {
    fn from(buf: AlignedBuf) -> Self {
        ZcBytes::from_aligned(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> ZcBytes {
        let mut b = AlignedBuf::with_capacity(n);
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        b.extend_from_slice(&data);
        ZcBytes::from_aligned(b)
    }

    #[test]
    fn clone_shares_storage() {
        let z = sample(1000);
        let c = z.clone();
        assert!(z.ptr_eq(&c));
        assert_eq!(z, c);
        assert_eq!(z.ref_count(), 2);
    }

    #[test]
    fn slice_is_zero_copy_and_correct() {
        let z = sample(10_000);
        let s = z.slice(100..200);
        assert!(s.ptr_eq(&z));
        assert_eq!(s.as_slice(), &z.as_slice()[100..200]);
        let s2 = s.slice(..10);
        assert_eq!(s2.as_slice(), &z.as_slice()[100..110]);
    }

    #[test]
    fn slice_forms() {
        let z = sample(100);
        assert_eq!(z.slice(..).len(), 100);
        assert_eq!(z.slice(10..).len(), 90);
        assert_eq!(z.slice(..10).len(), 10);
        assert_eq!(z.slice(10..=19).len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_oob_panics() {
        sample(10).slice(5..20);
    }

    #[test]
    fn split_at_partitions() {
        let z = sample(4096 * 2 + 7);
        let (a, b) = z.split_at(4096);
        assert_eq!(a.len(), 4096);
        assert_eq!(b.len(), 4096 + 7);
        let mut joined = a.as_slice().to_vec();
        joined.extend_from_slice(b.as_slice());
        assert_eq!(&joined[..], z.as_slice());
    }

    #[test]
    fn chunks_cover_exactly() {
        let z = sample(4096 * 3 + 100);
        let chunks: Vec<ZcBytes> = z.chunks(1460).collect();
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, z.len());
        assert!(chunks.iter().all(|c| c.len() <= 1460));
        assert!(chunks.iter().all(|c| c.ptr_eq(&z)));
        let mut joined = Vec::new();
        for c in &chunks {
            joined.extend_from_slice(c);
        }
        assert_eq!(&joined[..], z.as_slice());
    }

    #[test]
    fn chunks_of_empty_is_empty() {
        let z = ZcBytes::empty();
        assert_eq!(z.chunks(100).count(), 0);
    }

    #[test]
    fn alignment_of_page_slices() {
        let z = sample(PAGE_SIZE * 4);
        assert!(z.is_page_aligned());
        assert!(z.slice(PAGE_SIZE..).is_page_aligned());
        assert!(!z.slice(1..).is_page_aligned());
    }

    #[test]
    fn copy_from_slice_meters() {
        let m = CopyMeter::default();
        let data = vec![42u8; 5000];
        let z = ZcBytes::copy_from_slice(&data, &m, CopyLayer::AppFill);
        assert_eq!(z.as_slice(), &data[..]);
        assert_eq!(m.bytes(CopyLayer::AppFill), 5000);
        assert!(z.is_page_aligned());
    }

    #[test]
    fn zeroed_and_empty() {
        let z = ZcBytes::zeroed(1234);
        assert_eq!(z.len(), 1234);
        assert!(z.iter().all(|&b| b == 0));
        assert!(ZcBytes::empty().is_empty());
    }

    #[test]
    fn join_contiguous_recovers_whole() {
        let z = sample(PAGE_SIZE * 3 + 17);
        let parts: Vec<ZcBytes> = z.chunks(PAGE_SIZE).collect();
        let joined = ZcBytes::join_contiguous(&parts).expect("contiguous");
        assert!(joined.ptr_eq(&z));
        assert_eq!(joined, z);
    }

    #[test]
    fn join_rejects_gap_and_reorder_and_foreign() {
        let z = sample(PAGE_SIZE * 2);
        let a = z.slice(..100);
        let b = z.slice(100..200);
        let c = z.slice(300..400); // gap
        assert!(ZcBytes::join_contiguous(&[a.clone(), b.clone()]).is_some());
        assert!(ZcBytes::join_contiguous(&[a.clone(), c]).is_none());
        assert!(ZcBytes::join_contiguous(&[b.clone(), a.clone()]).is_none());
        let other = sample(PAGE_SIZE);
        assert!(ZcBytes::join_contiguous(&[a, other.slice(100..200)]).is_none());
        assert!(ZcBytes::join_contiguous(&[]).is_none());
    }

    #[test]
    fn content_equality_across_storages() {
        let a = sample(64);
        let b = sample(64);
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b));
    }
}
