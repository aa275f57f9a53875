//! Host machine models.

/// Performance characteristics of one cluster node.
///
/// All times in microseconds, bandwidths in MB/s (10⁶ bytes), frequencies
/// in MHz. The defaults are calibrated against the measured anchors the
/// paper reports (see the crate-level docs); each parameter is nonetheless
/// a physically meaningful quantity, not a fudge factor:
///
/// * `copy_bw_mb` — sustained `memcpy` bandwidth. A 400 MHz P-II with
///   100 MHz SDRAM manages on the order of 150–200 MB/s.
/// * `marshal_cycles_per_byte` — MICO's generic marshaling loop ("a very
///   general unoptimized copy loop that is able to handle all different
///   data types", §5.2) costs tens of cycles per byte: virtual dispatch,
///   bounds logic and a byte store.
/// * `recv_frame_us` / `send_frame_us` — per-Ethernet-frame protocol and
///   interrupt work. On the receive side this includes the interrupt path,
///   which is why the P-II cannot saturate GbE even with zero copies. This
///   is the paper's NIC and driver, which handled every frame: the
///   in-process simulated stack (`zc-transport`'s `sim`) hands its NIC a
///   window as one descriptor, as segmentation offload does, and its
///   per-frame bookkeeping is not what these two parameters model.
/// * `syscall_us` / `zc_syscall_us` — cost of a socket call; the zero-copy
///   API's page-flipping call is considerably cheaper per byte moved
///   ("a big improvement in the overhead of the read() and write() system
///   calls", §5.3).
/// * `orb_request_us` — per-request ORB work: demultiplexing, allocation,
///   dispatch (minor for bulk transfers, §2.1, but it is what bounds
///   small-block CORBA throughput).
#[derive(Debug, Clone, Copy)]
pub struct MachineSpec {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// CPU clock in MHz.
    pub cpu_mhz: f64,
    /// Sustained memory-copy bandwidth, MB/s.
    pub copy_bw_mb: f64,
    /// MICO-style generic marshal cost, CPU cycles per byte.
    pub marshal_cycles_per_byte: f64,
    /// Per-frame receive-side protocol + interrupt cost, µs.
    pub recv_frame_us: f64,
    /// Per-frame send-side driver cost, µs.
    pub send_frame_us: f64,
    /// Conventional socket call overhead, µs.
    pub syscall_us: f64,
    /// Zero-copy socket call overhead, µs.
    pub zc_syscall_us: f64,
    /// Per-request ORB overhead (demux, allocation, dispatch), µs.
    pub orb_request_us: f64,
}

impl MachineSpec {
    /// The paper's testbed node: 400 MHz Pentium II, Linux 2.2, GNIC-II.
    pub fn pentium_ii_400() -> MachineSpec {
        MachineSpec {
            name: "PentiumII-400/Linux2.2",
            cpu_mhz: 400.0,
            copy_bw_mb: 190.0,
            marshal_cycles_per_byte: 60.0,
            recv_frame_us: 21.0,
            send_frame_us: 8.0,
            syscall_us: 15.0,
            zc_syscall_us: 3.0,
            orb_request_us: 300.0,
        }
    }

    /// A "newer machine" of the paper's conclusion (≈2003 desktop):
    /// 2.4 GHz CPU, faster memory, interrupt coalescing NIC.
    pub fn modern_2003() -> MachineSpec {
        MachineSpec {
            name: "P4-2400/Linux2.4",
            cpu_mhz: 2400.0,
            copy_bw_mb: 330.0,
            marshal_cycles_per_byte: 60.0,
            recv_frame_us: 3.4,
            send_frame_us: 1.2,
            syscall_us: 2.0,
            zc_syscall_us: 0.8,
            orb_request_us: 40.0,
        }
    }

    /// Seconds to copy one byte once.
    pub fn copy_s_per_byte(&self) -> f64 {
        1.0 / (self.copy_bw_mb * 1e6)
    }

    /// Seconds of generic-marshal work per byte.
    pub fn marshal_s_per_byte(&self) -> f64 {
        self.marshal_cycles_per_byte / (self.cpu_mhz * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_byte_costs_are_sane() {
        let m = MachineSpec::pentium_ii_400();
        // one memcpy traversal ~ 5.3 ns/B on the P-II
        let c = m.copy_s_per_byte() * 1e9;
        assert!((4.0..8.0).contains(&c), "{c} ns/B");
        // generic marshal ~ 150 ns/B — the dominant CORBA cost
        let g = m.marshal_s_per_byte() * 1e9;
        assert!((100.0..250.0).contains(&g), "{g} ns/B");
        assert!(g > 10.0 * c, "marshal loop is an order slower than memcpy");
    }

    #[test]
    fn modern_machine_is_uniformly_faster() {
        let old = MachineSpec::pentium_ii_400();
        let new = MachineSpec::modern_2003();
        assert!(new.copy_s_per_byte() < old.copy_s_per_byte());
        assert!(new.marshal_s_per_byte() < old.marshal_s_per_byte());
        assert!(new.recv_frame_us < old.recv_frame_us);
        assert!(new.syscall_us < old.syscall_us);
    }
}
