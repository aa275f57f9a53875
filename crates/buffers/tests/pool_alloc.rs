//! The pool's steady state allocates nothing: once a size class has been
//! seen, an acquire→drop cycle only moves a buffer between the caller and
//! the class's free list. Counted on this thread alone by the per-thread
//! counting allocator, so it holds at any `--test-threads`.

use zc_buffers::{PagePool, PAGE_SIZE};
use zc_test_alloc::allocations;

#[global_allocator]
static GLOBAL: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;

#[test]
fn acquire_release_cycles_do_not_allocate_after_warm_up() {
    let pool = PagePool::new(8 << 20);
    // One-deep classes are the worst case: every acquire empties its class.
    let sizes = [1, PAGE_SIZE + 1, 64 << 10, 1 << 20];
    for &n in &sizes {
        drop(pool.acquire(n));
    }
    let before = allocations();
    for i in 0..1000 {
        drop(pool.acquire(sizes[i % sizes.len()]));
    }
    assert_eq!(allocations() - before, 0, "steady-state cycles allocated");
    let s = pool.stats();
    assert_eq!(s.fresh_allocations, sizes.len() as u64);
    assert_eq!(s.reuses, 1000);
}

/// Freezing a lease and dropping its last view touch the allocator no more
/// than the lease did: the refcount block rides the free list with its
/// pages, and clones and slices only count.
#[test]
fn freeze_share_and_last_drop_do_not_allocate() {
    let pool = PagePool::new(8 << 20);
    drop(pool.acquire(PAGE_SIZE).freeze());
    let before = allocations();
    for i in 0..1000usize {
        let mut lease = pool.acquire(PAGE_SIZE);
        lease.extend_from_slice(&i.to_le_bytes());
        let view = lease.freeze();
        let tail = view.slice(4..);
        drop(view.clone());
        drop(view);
        assert_eq!(tail.as_slice(), &i.to_le_bytes()[4..]);
    }
    assert_eq!(allocations() - before, 0, "freeze/drop cycles allocated");
    let s = pool.stats();
    assert_eq!((s.fresh_allocations, s.reuses, s.returns), (1, 1000, 1001));
}
