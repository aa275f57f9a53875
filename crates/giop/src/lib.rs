//! GIOP/IIOP — the General (Internet) Inter-ORB Protocol engine.
//!
//! The paper's ORB keeps "the standard Internet InterORB Protocol (IIOP)"
//! for ORB-to-ORB communication while separating bulk data out of the
//! message stream. This crate provides the protocol pieces:
//!
//! * [`msg`] — the 12-byte GIOP message header, message types, flags,
//!   framing helpers and fragmentation;
//! * [`request`]/[`reply`] — Request and Reply headers, written in place
//!   and read in place as views of the received message, and
//!   system-exception bodies;
//! * [`context`] — service contexts, including the two zcorba-specific
//!   contexts: the **deposit manifest** (announces the sizes of the
//!   out-of-band blocks so the receiver can pre-allocate page-aligned
//!   buffers before the data arrives — the "size of the data block that is
//!   needed by the receiver" from §4.4) and the negotiation record;
//! * [`handshake`] — the connection-open architecture/capability exchange
//!   ("the negotiation of the architecture and the typeset between the
//!   client and server is specified by the GIOP protocol already", §2.1);
//! * [`ior`] — Interoperable Object References with IIOP profiles and
//!   `IOR:` stringification.

pub mod context;
pub mod handshake;
pub mod ior;
pub mod msg;
pub mod reply;
pub mod request;

pub use context::{
    write_context_list, ContextWriter, DepositManifest, ManifestView, ServiceContext, TraceContext,
    ZcContexts, ZcHealthContext, MAX_MANIFEST_BLOCKS, MAX_SERVICE_CONTEXTS, SVC_CTX_DEPOSIT,
    SVC_CTX_NEGOTIATE, SVC_CTX_TRACE, SVC_CTX_ZC_HEALTH,
};
pub use handshake::{Handshake, Negotiated};
pub use ior::{
    IiopProfile, Ior, TaggedComponent, TaggedProfile, MAX_IOR_PROFILES, MAX_PROFILE_COMPONENTS,
};
pub use msg::{
    fragment_frames, fragment_plan, frame as frame_msg, reassemble, GiopFlags, GiopHeader,
    GiopVersion, MessageType, GIOP_HEADER_LEN, GIOP_MAGIC,
};
pub use reply::{
    write_reply_header, ReplyHeader, ReplyStatus, ReplyView, SystemException, SystemExceptionKind,
};
pub use request::{write_request_header, RequestHeader, RequestView};

use zc_cdr::CdrError;

/// Errors raised by the GIOP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopError {
    /// The four magic bytes were not `GIOP`.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8, u8),
    /// Unknown message type octet.
    BadMessageType(u8),
    /// Announced message size exceeds the configured maximum.
    MessageTooLarge(u64),
    /// A header or body failed to decode.
    Cdr(CdrError),
    /// Malformed IOR string.
    BadIorString(String),
    /// The IOR does not contain a usable IIOP profile.
    NoIiopProfile,
    /// Handshake frame malformed or incompatible magic.
    BadHandshake,
    /// A message of type `got` arrived where only `awaiting` (or, on the
    /// server, another request-side message) makes sense.
    Unexpected {
        /// The type that arrived.
        got: MessageType,
        /// The type the exchange was waiting for.
        awaiting: MessageType,
    },
    /// A reply echoes a request id other than the one outstanding.
    IdMismatch {
        /// The id the reply carries.
        got: u32,
        /// The id of the request it should answer.
        expected: u32,
    },
    /// A control frame of this many bytes is too short for a GIOP header.
    ShortFrame(usize),
    /// A control frame's body is not the size its GIOP header announces.
    SizeMismatch {
        /// The header's `message_size`.
        announced: u32,
        /// The body bytes the frame carries.
        got: usize,
    },
    /// A deposit block embedded in the control message is not the length
    /// the deposit manifest lists for it.
    InlineDepositMismatch {
        /// The block's own length prefix.
        inline: u64,
        /// The manifest's entry.
        manifest: u64,
    },
}

impl From<CdrError> for GiopError {
    fn from(e: CdrError) -> Self {
        GiopError::Cdr(e)
    }
}

impl std::fmt::Display for GiopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GiopError::BadMagic(m) => write!(f, "bad GIOP magic {m:?}"),
            GiopError::BadVersion(maj, min) => write!(f, "unsupported GIOP version {maj}.{min}"),
            GiopError::BadMessageType(t) => write!(f, "unknown GIOP message type {t}"),
            GiopError::MessageTooLarge(n) => write!(f, "GIOP message size {n} exceeds limit"),
            GiopError::Cdr(e) => write!(f, "CDR error in GIOP message: {e}"),
            GiopError::BadIorString(s) => write!(f, "malformed IOR string: {s}"),
            GiopError::NoIiopProfile => write!(f, "IOR carries no IIOP profile"),
            GiopError::BadHandshake => write!(f, "malformed zcorba handshake frame"),
            GiopError::Unexpected { got, awaiting } => {
                write!(f, "unexpected {got:?} while awaiting {awaiting:?}")
            }
            GiopError::IdMismatch { got, expected } => {
                write!(f, "reply id {got} does not match request id {expected}")
            }
            GiopError::ShortFrame(len) => write!(f, "short GIOP frame ({len} bytes)"),
            GiopError::SizeMismatch { announced, got } => {
                write!(
                    f,
                    "GIOP size mismatch: header says {announced}, frame has {got}"
                )
            }
            GiopError::InlineDepositMismatch { inline, manifest } => {
                write!(
                    f,
                    "inline deposit length {inline} disagrees with manifest {manifest}"
                )
            }
        }
    }
}

impl std::error::Error for GiopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GiopError::Cdr(e) => Some(e),
            _ => None,
        }
    }
}

/// Result alias for GIOP operations.
pub type GiopResult<T> = Result<T, GiopError>;

/// Maximum accepted GIOP message size (control messages only — bulk payload
/// travels on the data channel, so control frames stay small).
pub const MAX_GIOP_MESSAGE: u64 = 64 << 20;
