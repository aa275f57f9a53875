//! Dev-only test support: a counting `GlobalAlloc` whose counters are
//! **per thread**.
//!
//! Allocation-free and bounded-allocation guarantees are asserted by
//! measuring a region of the test's own thread. A process-global counter
//! also sees libtest spawning sibling tests and whatever those tests
//! allocate, which forced serializing mutexes and retry loops; a
//! thread-local counter sees exactly the measured code, at any
//! `--test-threads`. Install it once per test binary:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initializers and no destructors: touching these from inside
    // the allocator never allocates and never registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator plus per-thread accounting.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the accounting
// around it only touches `Cell`s local to the calling thread (`try_with`
// makes a thread that is past TLS teardown skip the accounting rather than
// panic inside the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + layout.size() as isize);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // A block freed by a thread that did not allocate it drives this
        // thread's balance negative; `measure_peak` reads differences only.
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations the calling thread has made so far. Assert on the
/// difference across a measured region.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f` and return its result with the peak number of bytes the calling
/// thread had live *above its level at entry* while `f` ran.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let r = f();
    let peak = PEAK.with(Cell::get) - base;
    (r, peak.max(0) as usize)
}
