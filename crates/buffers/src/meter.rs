//! The copy meter — accounting for every byte copied on the data path.
//!
//! The paper instruments the MICO ORB to show that "the highest cost incurs
//! due to data copying and data inspection" (§5.2). We make that
//! instrumentation a first-class citizen: each layer of our stack performs
//! payload copies through [`CopyMeter::copy`], so a test or a benchmark can
//! take a [`CopySnapshot`] before and after a transfer and obtain the exact
//! number of copy events and bytes per layer.
//!
//! This is how the repository *proves* the zero-copy regime instead of
//! merely claiming it: the integration tests assert that a direct-deposit
//! transfer records **zero** payload bytes in the marshal, socket and kernel
//! layers, while the conventional path records one full payload copy at each.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

crate::byte_enum! {
    /// The layers of the data path at which a byte can be touched, in
    /// data-path order; `layer as usize` indexes the meter's cells.
    ///
    /// They mirror Figure 1 of the paper (application / middleware / OS
    /// communication service / driver) plus the marshaling step that is
    /// specific to the ORB presentation layer.
    pub enum CopyLayer {
        /// The application producing or consuming payload (e.g. TTCP filling
        /// its source buffer). Not part of the middleware overhead but
        /// metered so experiments can separate "necessary first touch" from
        /// overhead.
        AppFill = 0, "app-fill";
        /// ORB marshaling: stub-side copy of parameters into the GIOP request
        /// buffer (the `memcpy` loop in MICO's `TCSeqOctet::marshal`).
        Marshal = 1, "marshal";
        /// ORB demarshaling: server-side copy out of the received GIOP buffer.
        Demarshal = 2, "demarshal";
        /// `write()` across the user/kernel boundary into the socket page pool.
        SocketSend = 3, "socket-send";
        /// `read()` out of the kernel into user space.
        SocketRecv = 4, "socket-recv";
        /// Driver-side fragmentation of large blocks into MTU frames
        /// (header insertion forces a copy on commodity GbE, per §1.1).
        KernelFrag = 5, "kernel-frag";
        /// Receive-side defragmentation / reassembly copy.
        KernelDefrag = 6, "kernel-defrag";
        /// Copies performed when the speculative zero-copy receive path
        /// *misses* and falls back to the conventional path (probabilistic,
        /// per [10]).
        DepositFallback = 7, "deposit-fallback";
    }
}

impl CopyLayer {
    /// Layers that constitute *middleware + OS overhead* (everything except
    /// the application's own first touch of its data).
    pub fn overhead_layers() -> impl Iterator<Item = CopyLayer> {
        CopyLayer::ALL
            .into_iter()
            .filter(|l| !matches!(l, CopyLayer::AppFill))
    }
}

#[derive(Default)]
struct LayerCell {
    bytes: AtomicU64,
    events: AtomicU64,
}

/// Shared, thread-safe copy accounting.
///
/// One meter is typically owned per ORB (client and server side share it in
/// in-process tests so a single snapshot covers the whole path). All methods
/// use relaxed atomics: counters are monotonic statistics, not
/// synchronization.
#[derive(Default)]
pub struct CopyMeter {
    layers: [LayerCell; CopyLayer::COUNT],
}

impl CopyMeter {
    /// Create a fresh meter wrapped for sharing.
    pub fn new_shared() -> Arc<CopyMeter> {
        Arc::new(CopyMeter::default())
    }

    /// Record that `bytes` were copied at `layer` without performing the
    /// copy here (used where the copy is done by e.g. `TcpStream::write`).
    #[inline]
    pub fn record(&self, layer: CopyLayer, bytes: usize) {
        let cell = &self.layers[layer as usize];
        cell.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        cell.events.fetch_add(1, Ordering::Relaxed);
    }

    /// Perform a metered copy `dst[..] = src[..]`.
    ///
    /// # Panics
    /// If the slices differ in length — a metered copy is always exact.
    #[inline]
    pub fn copy(&self, layer: CopyLayer, dst: &mut [u8], src: &[u8]) {
        assert_eq!(
            dst.len(),
            src.len(),
            "metered copy length mismatch at {}",
            layer.name()
        );
        dst.copy_from_slice(src);
        self.record(layer, src.len());
    }

    /// Perform a run of metered copies at one `layer` — a window of MTU
    /// fragments, a gather list — and record it once: `copies` is handed the
    /// copier, `copy(dst, src)`, to call per piece; the byte total is exact,
    /// the run counts as one event, and it is recorded whatever `copies`
    /// returns.
    ///
    /// Both ends of an in-process connection share one meter, and since the
    /// copying stack's two CPUs copy concurrently, a locked add per
    /// 1460-byte fragment made them trade the counters' cache lines ~3 000
    /// times per MiB.
    ///
    /// # Panics
    /// If a piece's slices differ in length — a metered copy is always exact.
    pub fn copy_run<R>(
        &self,
        layer: CopyLayer,
        copies: impl FnOnce(&mut dyn FnMut(&mut [u8], &[u8])) -> R,
    ) -> R {
        let mut bytes = 0;
        let result = copies(&mut |dst, src| {
            assert_eq!(
                dst.len(),
                src.len(),
                "metered copy length mismatch at {}",
                layer.name()
            );
            dst.copy_from_slice(src);
            bytes += src.len();
        });
        if bytes != 0 {
            self.record(layer, bytes);
        }
        result
    }

    /// Bytes recorded so far at `layer`.
    #[inline]
    pub fn bytes(&self, layer: CopyLayer) -> u64 {
        self.layers[layer as usize].bytes.load(Ordering::Relaxed)
    }

    /// Copy events recorded so far at `layer`.
    #[inline]
    pub fn events(&self, layer: CopyLayer) -> u64 {
        self.layers[layer as usize].events.load(Ordering::Relaxed)
    }

    /// Capture the current counters.
    pub fn snapshot(&self) -> CopySnapshot {
        let mut s = CopySnapshot::default();
        for layer in CopyLayer::ALL {
            s.bytes[layer as usize] = self.bytes(layer);
            s.events[layer as usize] = self.events(layer);
        }
        s
    }
}

impl fmt::Debug for CopyMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CopyMeter{:?}", self.snapshot())
    }
}

/// A point-in-time capture of all counters; subtract two snapshots to get
/// the copies attributable to a region of interest.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CopySnapshot {
    bytes: [u64; CopyLayer::COUNT],
    events: [u64; CopyLayer::COUNT],
}

impl CopySnapshot {
    /// Bytes at `layer` in this snapshot.
    pub fn bytes(&self, layer: CopyLayer) -> u64 {
        self.bytes[layer as usize]
    }

    /// Events at `layer` in this snapshot.
    pub fn events(&self, layer: CopyLayer) -> u64 {
        self.events[layer as usize]
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &CopySnapshot) -> CopySnapshot {
        let mut d = CopySnapshot::default();
        for i in 0..CopyLayer::COUNT {
            d.bytes[i] = self.bytes[i].saturating_sub(earlier.bytes[i]);
            d.events[i] = self.events[i].saturating_sub(earlier.events[i]);
        }
        d
    }

    /// Total bytes copied across all *overhead* layers (everything but the
    /// application's own fill). This is the quantity a strict zero-copy
    /// regime drives to zero.
    pub fn overhead_bytes(&self) -> u64 {
        CopyLayer::overhead_layers().map(|l| self.bytes(l)).sum()
    }

    /// Total bytes including the application fill.
    pub fn total_bytes(&self) -> u64 {
        CopyLayer::ALL.iter().map(|&l| self.bytes(l)).sum()
    }

    /// Render a small table, one line per non-zero layer.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for layer in CopyLayer::ALL {
            let b = self.bytes(layer);
            let e = self.events(layer);
            if b != 0 || e != 0 {
                out.push_str(&format!(
                    "{:<18} {:>14} bytes {:>10} events\n",
                    layer.name(),
                    b,
                    e
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no copies recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read() {
        let m = CopyMeter::default();
        m.record(CopyLayer::Marshal, 100);
        m.record(CopyLayer::Marshal, 50);
        m.record(CopyLayer::SocketSend, 7);
        assert_eq!(m.bytes(CopyLayer::Marshal), 150);
        assert_eq!(m.events(CopyLayer::Marshal), 2);
        assert_eq!(m.bytes(CopyLayer::SocketSend), 7);
        assert_eq!(m.bytes(CopyLayer::Demarshal), 0);
    }

    #[test]
    fn metered_copy_copies_and_counts() {
        let m = CopyMeter::default();
        let src = [1u8, 2, 3, 4];
        let mut dst = [0u8; 4];
        m.copy(CopyLayer::KernelFrag, &mut dst, &src);
        assert_eq!(dst, src);
        assert_eq!(m.bytes(CopyLayer::KernelFrag), 4);
        assert_eq!(m.events(CopyLayer::KernelFrag), 1);
    }

    #[test]
    fn copy_run_copies_piecewise_and_records_once() {
        let m = CopyMeter::default();
        let src = [9u8, 8, 7, 6, 5];
        let mut dst = [0u8; 5];
        let failed: Result<(), ()> = m.copy_run(CopyLayer::KernelDefrag, |copy| {
            copy(&mut dst[..2], &src[..2]);
            assert_eq!(m.bytes(CopyLayer::KernelDefrag), 0, "recorded at the end");
            copy(&mut dst[2..], &src[2..]);
            Err(())
        });
        assert!(failed.is_err());
        assert_eq!(dst, src);
        assert_eq!(m.bytes(CopyLayer::KernelDefrag), 5, "recorded even so");
        assert_eq!(m.events(CopyLayer::KernelDefrag), 1);
        m.copy_run(CopyLayer::KernelDefrag, |_| ());
        assert_eq!(
            m.events(CopyLayer::KernelDefrag),
            1,
            "an empty run is no event"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn metered_copy_length_mismatch_panics() {
        let m = CopyMeter::default();
        let mut dst = [0u8; 3];
        m.copy(CopyLayer::Marshal, &mut dst, &[1, 2]);
    }

    #[test]
    fn snapshot_diff() {
        let m = CopyMeter::default();
        m.record(CopyLayer::Marshal, 10);
        let before = m.snapshot();
        m.record(CopyLayer::Marshal, 5);
        m.record(CopyLayer::AppFill, 1000);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.bytes(CopyLayer::Marshal), 5);
        assert_eq!(delta.events(CopyLayer::Marshal), 1);
        assert_eq!(delta.bytes(CopyLayer::AppFill), 1000);
        assert_eq!(delta.overhead_bytes(), 5);
        assert_eq!(delta.total_bytes(), 1005);
    }

    #[test]
    fn overhead_excludes_app_fill() {
        let m = CopyMeter::default();
        m.record(CopyLayer::AppFill, 999);
        let s = m.snapshot();
        assert_eq!(s.overhead_bytes(), 0);
        assert_eq!(s.total_bytes(), 999);
    }

    #[test]
    fn concurrent_recording_is_sound() {
        let m = CopyMeter::new_shared();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record(CopyLayer::SocketRecv, 3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.bytes(CopyLayer::SocketRecv), 8 * 1000 * 3);
        assert_eq!(m.events(CopyLayer::SocketRecv), 8 * 1000);
    }

    #[test]
    fn report_lists_only_nonzero() {
        let m = CopyMeter::default();
        m.record(CopyLayer::Demarshal, 42);
        let rep = m.snapshot().report();
        assert!(rep.starts_with("demarshal"));
        assert_eq!(rep.lines().count(), 1, "only the non-zero layer is listed");
    }
}
