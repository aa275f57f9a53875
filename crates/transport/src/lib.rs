//! Transports with separated control- and data-paths.
//!
//! §3.2 of the paper: decoupling synchronization (control) from data
//! transfer is the key enabler — "with prior synchronization of every
//! transfer all buffering can be omitted". Every transport here exposes
//! that separation in its interface:
//!
//! * **control messages** — framed byte strings (GIOP messages,
//!   handshakes). They synchronize; under the all-zero-copy configuration
//!   they never carry bulk payload, under the standard one the marshaled
//!   payload rides inline. Either way they are sent as a gather list and
//!   received as a view of pooled pages, so the only copies a control
//!   message meets are the stack's own, metered ones.
//! * **data blocks** — page-aligned [`ZcBytes`] payloads announced in
//!   advance by a control message, so the receiver can direct them to
//!   their final destination.
//!
//! Two implementations:
//!
//! * [`sim::SimNetwork`] — an in-process network whose *kernel stack* is
//!   simulated with **real memory operations**: in [`StackMode::Copying`]
//!   mode every byte crosses the user/kernel boundary, is fragmented into
//!   MTU frames (header insertion copy) and reassembled — four real,
//!   metered copies per payload, exactly the conventional path of Figure 1.
//!   In [`StackMode::ZeroCopy`] mode payload pages are handed across by
//!   reference with a configurable *speculation* success probability; a
//!   miss falls back to the copy path, reproducing the probabilistic
//!   behaviour of speculative defragmentation \[10\].
//! * [`tcp`] — real loopback TCP via `std::net`, for end-to-end runs on a
//!   live socket (the user/kernel copies there are performed by the real
//!   kernel; we meter the `write`/`read` crossings).

pub mod frame;
pub mod sim;
pub mod stats;
pub mod tcp;

pub use frame::{Frame, FRAME_HEADER_BYTES, MTU_PAYLOAD};
pub use sim::{FaultPlan, FaultSide, SimConfig, SimListener, SimNetwork, StackMode};
pub use stats::{ConnStats, TransportField};
pub use tcp::{TcpConnector, TcpTransportListener};

use std::sync::Arc;

use zc_buffers::{CopyMeter, PagePool, ZcBytes};
use zc_trace::Telemetry;

/// How a peer broke the framing protocol, with the offending numbers. A
/// plain `Copy` value: raising one on the receive path allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireViolation {
    /// A sim block announces more bytes than the receiver will ever buffer.
    BlockTooLarge {
        block: u64,
        announced: u64,
        cap: u64,
    },
    /// A fragment's deposit window lies outside its block's buffer.
    FragmentOutsideBuffer {
        offset: u64,
        len: usize,
        total: usize,
    },
    /// A fragment of block `got` arrived inside unfinished block `expected`.
    InterleavedBlock { expected: u64, got: u64 },
    /// A continuation fragment of `block` carries no payload.
    EmptyContinuation { block: u64 },
    /// The fragments of `block` add up to more than it announced.
    FragmentOverrun {
        block: u64,
        announced: usize,
        got: usize,
    },
    /// Every fragment of `block` arrived, yet `missing` of its `total`
    /// bytes were covered by none.
    FragmentsOverlap {
        block: u64,
        missing: usize,
        total: usize,
    },
    /// A data block is not the length the control message announced for it.
    BlockLenMismatch { announced: usize, got: usize },
    /// A TCP frame header that does not parse.
    MalformedFrameHeader,
    /// A TCP frame announces more bytes than the receiver will ever buffer.
    FrameTooLarge { announced: u64, cap: u64 },
    /// A TCP frame on a lane that does not exist.
    UnknownLane(u8),
    /// Parking one more TCP frame while the receiver waits on the other
    /// lane would pin `parked` bytes, above the `cap`.
    LaneBacklog { parked: u64, cap: u64 },
}

impl std::fmt::Display for WireViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireViolation::BlockTooLarge {
                block,
                announced,
                cap,
            } => write!(
                f,
                "block {block} announces {announced} bytes, above the {cap} byte cap"
            ),
            WireViolation::FragmentOutsideBuffer { offset, len, total } => write!(
                f,
                "fragment window {offset}+{len} outside its buffer of {total} bytes"
            ),
            WireViolation::InterleavedBlock { expected, got } => write!(
                f,
                "interleaved fragments: expected block {expected}, got {got}"
            ),
            WireViolation::EmptyContinuation { block } => {
                write!(f, "zero-length continuation fragment in block {block}")
            }
            WireViolation::FragmentOverrun {
                block,
                announced,
                got,
            } => write!(
                f,
                "fragment overrun: block {block} announced {announced}, got {got}"
            ),
            WireViolation::FragmentsOverlap {
                block,
                missing,
                total,
            } => write!(
                f,
                "fragments of block {block} overlap: {missing} of its {total} bytes never arrived"
            ),
            WireViolation::BlockLenMismatch { announced, got } => write!(
                f,
                "data block length {got} does not match announced {announced}"
            ),
            WireViolation::MalformedFrameHeader => write!(f, "malformed frame header"),
            WireViolation::FrameTooLarge { announced, cap } => write!(
                f,
                "frame announces {announced} bytes, above the {cap} byte cap"
            ),
            WireViolation::UnknownLane(tag) => write!(f, "unknown lane tag {tag}"),
            WireViolation::LaneBacklog { parked, cap } => write!(
                f,
                "parked frames of one lane would pin {parked} bytes, above the {cap} byte cap"
            ),
        }
    }
}

/// Errors raised by transports. `Copy`: no variant owns heap memory, so an
/// error on the data path costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed the connection (or the wire vanished).
    Closed,
    /// Underlying I/O failure, by kind (`std::io::Error` is not `Clone`).
    Io(std::io::ErrorKind),
    /// Framing/protocol violation on the wire.
    Protocol(WireViolation),
    /// No listener on this port.
    ConnectionRefused(u16),
    /// This port is already bound.
    AddrInUse(u16),
    /// A blocking receive exceeded its deadline.
    Timeout,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::Io(kind) => write!(f, "transport I/O error: {kind}"),
            TransportError::Protocol(v) => write!(f, "transport protocol violation: {v}"),
            TransportError::ConnectionRefused(port) => {
                write!(f, "connection refused: port {port}")
            }
            TransportError::AddrInUse(port) => write!(f, "address in use: port {port}"),
            TransportError::Timeout => write!(f, "transport receive timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireViolation> for TransportError {
    fn from(v: WireViolation) -> Self {
        TransportError::Protocol(v)
    }
}

/// An I/O error on an established stream. Dialing and binding know their
/// port and name it ([`TransportError::ConnectionRefused`],
/// [`TransportError::AddrInUse`]) where they fail.
impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionAborted => TransportError::Closed,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::Timeout
            }
            kind => TransportError::Io(kind),
        }
    }
}

/// Result alias for transport operations.
pub type TResult<T> = Result<T, TransportError>;

/// A bidirectional connection with separated control and data paths.
///
/// All methods take `&mut self`: a connection is owned by one party at a
/// time (the ORB serializes request/reply exchanges per connection and
/// opens additional connections for concurrency).
pub trait Connection: Send {
    /// Send one framed control message.
    fn send_control(&mut self, msg: &[u8]) -> TResult<()> {
        self.send_control_vectored(&[msg])
    }

    /// Send one framed control message given as consecutive `parts` (GIOP
    /// header, request header, arguments): the stack gathers them with the
    /// copy it makes anyway, so the caller never concatenates.
    fn send_control_vectored(&mut self, parts: &[&[u8]]) -> TResult<()>;

    /// Receive one framed control message, blocking. The bytes lie in a
    /// pooled buffer the stack's last copy landed them in; slicing the view
    /// (to strip a header, say) copies nothing.
    fn recv_control(&mut self) -> TResult<ZcBytes>;

    /// Send one bulk data block on the data path. On a zero-copy transport
    /// no payload byte is touched.
    fn send_data(&mut self, block: &ZcBytes) -> TResult<()>;

    /// Receive one bulk data block of exactly `expected_len` bytes
    /// (announced by a prior control message — the "prior synchronization"
    /// that lets the block be targeted directly to its final destination).
    fn recv_data(&mut self, expected_len: usize) -> TResult<ZcBytes>;

    /// Whether the data path can move blocks without copying.
    fn is_zero_copy(&self) -> bool;

    /// Cumulative statistics for this connection.
    fn stats(&self) -> ConnStats;

    /// Diagnostic description of the peer.
    fn peer(&self) -> &str;

    /// Bound subsequent blocking receives: `Some(d)` makes `recv_control`
    /// and `recv_data` fail with [`TransportError::Timeout`] after `d`;
    /// `None` restores indefinite blocking.
    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> TResult<()>;

    /// Stable identifier correlating this connection's trace events
    /// (allocated from [`zc_trace::next_conn_id`]). `0` means the
    /// transport does not participate in tracing.
    fn trace_conn_id(&self) -> u64 {
        0
    }
}

/// Something that accepts incoming [`Connection`]s.
pub trait Acceptor: Send {
    /// Block until a peer connects.
    fn accept(&self) -> TResult<Box<dyn Connection>>;

    /// The address peers should connect to (host, port).
    fn endpoint(&self) -> (String, u16);
}

/// A factory for outbound connections, so higher layers stay transport
/// agnostic.
pub trait Connector: Send + Sync {
    /// Open a connection to `(host, port)`.
    fn connect(&self, host: &str, port: u16) -> TResult<Box<dyn Connection>>;
}

/// Shared context handed to transports at construction: where to account
/// copies and where to record trace events.
#[derive(Clone)]
pub struct TransportCtx {
    /// The copy meter all layers record into.
    pub meter: Arc<CopyMeter>,
    /// Pool that receive paths draw page-aligned deposit buffers from.
    pub pool: PagePool,
    /// Telemetry (flight recorder + metrics). Disabled by default; a
    /// disabled handle costs one boolean load per would-be event.
    pub telemetry: Arc<Telemetry>,
}

impl TransportCtx {
    /// Context with a fresh meter, a default pool and disabled telemetry.
    pub fn new() -> TransportCtx {
        TransportCtx::with_meter(CopyMeter::new_shared())
    }

    /// Context with a supplied meter, a default pool and disabled
    /// telemetry.
    pub fn with_meter(meter: Arc<CopyMeter>) -> TransportCtx {
        TransportCtx::with_telemetry(meter, Telemetry::disabled())
    }

    /// Context with a supplied meter and telemetry, and a default pool.
    pub fn with_telemetry(meter: Arc<CopyMeter>, telemetry: Arc<Telemetry>) -> TransportCtx {
        TransportCtx {
            meter,
            pool: PagePool::default_for_orb(),
            telemetry,
        }
    }
}

impl Default for TransportCtx {
    fn default() -> Self {
        TransportCtx::new()
    }
}
