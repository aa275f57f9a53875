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
