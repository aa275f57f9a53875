//! zc-ttcp — the TTCP throughput benchmark, in all four versions of §5.1.
//!
//! "The data for the experiments has been produced and consumed by an
//! extended version of the widely available TCP protocol benchmarking tool
//! TTCP. … The following versions of TTCP were implemented and used as
//! benchmarks: Raw TCP …, Zero-Copy TCP …, CORBA …" — plus the zero-copy
//! CORBA version the paper's Figure 6 adds.
//!
//! Every version measures the same thing: the end-to-end goodput of a
//! unidirectional push of `total_bytes` in blocks of `block_bytes` from a
//! transmitter to a receiver, reported in Mbit/s.
//!
//! Two execution modes:
//! * [`run_measured`] — really moves the bytes through this repository's
//!   stack (simulated kernel stacks with real copies, or the real loopback
//!   TCP transport) and reports host-measured Mbit/s together with the
//!   copy accounting;
//! * [`run_modeled`] — evaluates the same configuration on the calibrated
//!   2003 testbed model (`zc-simnet`) and reports paper-scale Mbit/s.
//!
//! The figure harnesses in `zc-bench` print both side by side. Every
//! host-measured loop, here and in `zc-bench`, runs on the one [`bed`].

pub mod bed;
pub mod report;
pub mod runner;
pub mod workload;

pub use bed::{run_latency, LatencyStats, OrbPair, Sink, Stack};
pub use report::{format_series_table, Series};
pub use runner::{run_measured, run_modeled, MeasuredOutcome, TtcpParams, TtcpTransport};
pub use workload::{fill_pattern, verify_pattern};

use zc_simnet::{OrbMode, SocketMode};
use zc_transport::SimConfig;

/// The four TTCP versions of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtcpVersion {
    /// Standard TTCP in C over BSD sockets → raw transfer over the
    /// copying stack.
    RawTcp,
    /// TTCP over the zero-copy socket interface \[10\].
    ZcTcp,
    /// TTCP where socket calls are replaced by CORBA stubs/skeletons with a
    /// `sequence<octet>` parameter, over the copying stack.
    CorbaStd,
    /// The all-zero-copy version: `sequence<ZC_Octet>` through the
    /// zero-copy ORB over the zero-copy stack.
    CorbaZc,
    /// Cross combination for Fig. 6 (right): standard ORB over zero-copy
    /// sockets.
    CorbaStdOverZcTcp,
    /// Cross combination for Fig. 6 (right): zero-copy ORB over the
    /// conventional stack.
    CorbaZcOverTcp,
}

impl TtcpVersion {
    /// All versions in report order.
    pub const ALL: [TtcpVersion; 6] = [
        TtcpVersion::RawTcp,
        TtcpVersion::ZcTcp,
        TtcpVersion::CorbaStd,
        TtcpVersion::CorbaStdOverZcTcp,
        TtcpVersion::CorbaZcOverTcp,
        TtcpVersion::CorbaZc,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TtcpVersion::RawTcp => "raw TCP",
            TtcpVersion::ZcTcp => "zero-copy TCP",
            TtcpVersion::CorbaStd => "CORBA std",
            TtcpVersion::CorbaZc => "CORBA zc (all zero-copy)",
            TtcpVersion::CorbaStdOverZcTcp => "CORBA std / zc-TCP",
            TtcpVersion::CorbaZcOverTcp => "CORBA zc / std-TCP",
        }
    }

    /// Map onto the simnet configuration space.
    pub fn to_modes(self) -> (SocketMode, OrbMode) {
        match self {
            TtcpVersion::RawTcp => (SocketMode::Copying, OrbMode::None),
            TtcpVersion::ZcTcp => (SocketMode::ZeroCopy, OrbMode::None),
            TtcpVersion::CorbaStd => (SocketMode::Copying, OrbMode::Standard),
            TtcpVersion::CorbaZc => (SocketMode::ZeroCopy, OrbMode::ZeroCopyOrb),
            TtcpVersion::CorbaStdOverZcTcp => (SocketMode::ZeroCopy, OrbMode::Standard),
            TtcpVersion::CorbaZcOverTcp => (SocketMode::Copying, OrbMode::ZeroCopyOrb),
        }
    }

    /// Whether the ORB is involved at all.
    pub fn uses_orb(self) -> bool {
        !matches!(self, TtcpVersion::RawTcp | TtcpVersion::ZcTcp)
    }

    /// Whether the ORB offers the zero-copy deposit path.
    pub fn zc_orb(self) -> bool {
        self.to_modes().1 == OrbMode::ZeroCopyOrb
    }

    /// The stack this version runs on over `transport`: the simulated stack
    /// in the version's socket mode, or loopback TCP, whose socket mode is
    /// the host kernel's.
    pub fn stack(self, transport: TtcpTransport) -> Stack {
        match (transport, self.to_modes().0) {
            (TtcpTransport::Tcp, _) => Stack::Tcp,
            (TtcpTransport::Sim, SocketMode::Copying) => Stack::Sim(SimConfig::copying()),
            (TtcpTransport::Sim, SocketMode::ZeroCopy) => Stack::Sim(SimConfig::zero_copy()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_mode_mapping() {
        assert_eq!(
            TtcpVersion::RawTcp.to_modes(),
            (SocketMode::Copying, OrbMode::None)
        );
        assert_eq!(
            TtcpVersion::CorbaZc.to_modes(),
            (SocketMode::ZeroCopy, OrbMode::ZeroCopyOrb)
        );
        assert!(TtcpVersion::CorbaStd.uses_orb());
        assert!(!TtcpVersion::ZcTcp.uses_orb());
    }
}
