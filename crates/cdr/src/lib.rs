//! CORBA Common Data Representation (CDR) marshaling for zcorba.
//!
//! CDR is the presentation layer of GIOP: primitives are aligned to their
//! natural size relative to the start of the message body, multi-byte values
//! follow the byte order announced in the message flags, strings carry an
//! explicit length and a terminating NUL, and sequences carry an element
//! count. This crate implements a faithful encoder/decoder pair and the
//! [`CdrMarshal`] trait, whose static dispatch per parameter type stands in
//! for the run-time type identifier (MICO's "TID") the paper's optimization
//! keys off: `ZcOctetSeq` is the `MICO_TID_ZC_OCTET` analogue.
//!
//! Two sequence-of-octet types exist side by side, exactly as in the paper
//! (§4.3, where `ZC_Octet` is introduced "to compare an optimized stream
//! version to the standard stream version"):
//!
//! * [`octet::OctetSeq`] — the standard `sequence<octet>`: marshaling copies
//!   the payload into the CDR buffer (through the [`zc_buffers::CopyMeter`],
//!   so the cost is visible), demarshaling copies it back out.
//! * [`octet::ZcOctetSeq`] — the zero-copy variant: on a connection where
//!   both peers negotiated direct deposit, marshaling writes only a tiny
//!   *deposit descriptor* (length + block index) into the CDR stream and
//!   hands the payload [`zc_buffers::ZcBytes`] to the encoder's out-of-band
//!   deposit list; demarshaling resolves the descriptor against blocks that
//!   the transport deposited directly into page-aligned buffers. When the
//!   connection did not negotiate ZC, both operations transparently fall
//!   back to the standard inline representation, preserving IIOP
//!   interoperability.

pub mod decode;
pub mod encode;
pub mod endian;
pub mod octet;
pub mod types;
pub mod wire;

pub use decode::{CdrDecoder, DepositList};
pub use encode::CdrEncoder;
pub use endian::ByteOrder;
pub use octet::{OctetSeq, ZcOctetSeq};
pub use types::CdrMarshal;

/// Errors raised while encoding or decoding CDR data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdrError {
    /// Read past the end of the buffer.
    OutOfBounds {
        /// Bytes needed by the read.
        need: usize,
        /// Bytes remaining in the buffer.
        have: usize,
    },
    /// A boolean octet was neither 0 nor 1.
    InvalidBool(u8),
    /// A string was not valid UTF-8 or lacked its NUL terminator.
    InvalidString,
    /// A length/count field exceeded sane limits (protects against
    /// adversarial or corrupted messages allocating unbounded memory).
    LengthOverflow(u64),
    /// A deposit descriptor referenced a block index that was never
    /// deposited on this request.
    BadDepositIndex(u32),
    /// A deposited block's length disagrees with the descriptor.
    DepositLengthMismatch {
        /// Length announced in the CDR stream.
        announced: usize,
        /// Length of the block actually deposited.
        deposited: usize,
    },
    /// Enum discriminant out of range.
    BadEnumValue(u32),
}

impl std::fmt::Display for CdrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdrError::OutOfBounds { need, have } => {
                write!(f, "CDR read out of bounds: need {need} bytes, have {have}")
            }
            CdrError::InvalidBool(b) => write!(f, "invalid CDR boolean octet {b:#x}"),
            CdrError::InvalidString => write!(f, "invalid CDR string (UTF-8/NUL violation)"),
            CdrError::LengthOverflow(n) => write!(f, "CDR length field {n} exceeds limits"),
            CdrError::BadDepositIndex(i) => write!(f, "deposit descriptor index {i} not present"),
            CdrError::DepositLengthMismatch {
                announced,
                deposited,
            } => write!(
                f,
                "deposit length mismatch: descriptor says {announced}, block has {deposited}"
            ),
            CdrError::BadEnumValue(v) => write!(f, "enum discriminant {v} out of range"),
        }
    }
}

impl std::error::Error for CdrError {}

/// Result alias for CDR operations.
pub type CdrResult<T> = Result<T, CdrError>;

/// Upper bound accepted for any single CDR length/count field (1 GiB).
/// Larger values indicate corruption or attack, not legitimate payloads.
pub const MAX_CDR_LENGTH: u64 = 1 << 30;
