//! A counting `#[global_allocator]` with a per-thread split.
//!
//! Every allocation in the process is counted. A thread that called
//! [`mark_client_thread`] counts into the client cell; every other thread
//! (the ORB's acceptor and per-connection server threads) counts into the
//! server cell. The cells are global atomics on separate cache lines, so the
//! one busy thread of each role never shares a line with the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which cell a thread's allocations count into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Server = 0,
    Client = 1,
}

#[repr(align(128))]
struct RoleCell {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl RoleCell {
    const fn new() -> RoleCell {
        RoleCell {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }
}

static CELLS: [RoleCell; 2] = [RoleCell::new(), RoleCell::new()];

thread_local! {
    // Const-initialised and without a destructor, so the allocator may
    // read it at any point of a thread's life without allocating.
    static ROLE: Cell<Role> = const { Cell::new(Role::Server) };
}

/// Count this thread's allocations as the client's from now on.
pub fn mark_client_thread() {
    ROLE.with(|r| r.set(Role::Client));
}

/// Allocation totals at one instant.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub client_allocs: u64,
    pub server_allocs: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    pub fn total_allocs(&self) -> u64 {
        self.client_allocs + self.server_allocs
    }

    /// Totals accumulated since `earlier`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            client_allocs: self.client_allocs - earlier.client_allocs,
            server_allocs: self.server_allocs - earlier.server_allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub fn snapshot() -> AllocSnapshot {
    let get = |role: Role| &CELLS[role as usize];
    AllocSnapshot {
        client_allocs: get(Role::Client).allocs.load(Ordering::Relaxed),
        server_allocs: get(Role::Server).allocs.load(Ordering::Relaxed),
        bytes: get(Role::Client).bytes.load(Ordering::Relaxed)
            + get(Role::Server).bytes.load(Ordering::Relaxed),
    }
}

fn count(size: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those few count as the server's.
    let role = ROLE.try_with(Cell::get).unwrap_or(Role::Server);
    let cell = &CELLS[role as usize];
    // Relaxed: statistics only, they publish no other data.
    cell.allocs.fetch_add(1, Ordering::Relaxed);
    cell.bytes.fetch_add(size as u64, Ordering::Relaxed);
}

/// The system allocator plus the counters above.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from a prior call into `System`
        // through this allocator, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the allocator too (see main.rs), so these
    // run against the real counters. Other test threads count as server
    // threads, so only the client cell is asserted exactly.

    #[test]
    fn client_thread_allocations_land_in_the_client_cell() {
        std::thread::spawn(|| {
            mark_client_thread();
            let before = snapshot();
            let v: Vec<u8> = Vec::with_capacity(4096);
            let boxed = Box::new(17u64);
            let after = snapshot().since(&before);
            std::hint::black_box((&v, &boxed));
            assert_eq!(after.client_allocs, 2);
            assert!(after.bytes >= 4096 + 8);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn unmarked_threads_count_as_server() {
        let before = snapshot();
        let v = std::thread::spawn(|| vec![1u8; 1000]).join().unwrap();
        let after = snapshot().since(&before);
        assert_eq!(v.len(), 1000);
        assert!(after.server_allocs >= 1);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = AllocSnapshot {
            client_allocs: 10,
            server_allocs: 20,
            bytes: 300,
        };
        let b = AllocSnapshot {
            client_allocs: 4,
            server_allocs: 5,
            bytes: 100,
        };
        let d = a.since(&b);
        assert_eq!((d.client_allocs, d.server_allocs, d.bytes), (6, 15, 200));
        assert_eq!(d.total_allocs(), 21);
    }
}
