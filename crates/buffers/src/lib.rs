//! Page-aligned buffer management for the zcorba zero-copy data path.
//!
//! The paper's central claim is that *per-byte* overheads — memory-to-memory
//! copies between layers — dominate the cost of bulk transfers through
//! distributed object middleware. Everything in this crate exists to make
//! copies either unnecessary or visible:
//!
//! * [`AlignedBuf`] — an owned, page-aligned, heap allocation. Page alignment
//!   is the contract that lets the (simulated) zero-copy network stack deposit
//!   payload pages directly into their final destination, exactly as the
//!   speculative-defragmentation driver of the paper requires 4 KiB aligned
//!   application buffers.
//! * [`ZcBytes`] — a cheaply-clonable, sliceable, immutable view over an
//!   `AlignedBuf` (reference counted). This is the representation behind the
//!   `sequence<ZC_Octet>` CORBA type: ORB layers hand it around *by
//!   reference*; cloning or slicing never touches payload bytes.
//! * [`PagePool`] — a recycling pool of aligned buffers, standing in for the
//!   ORB/application controlled buffer management the paper advocates
//!   ("put buffers under user control").
//! * [`CopyMeter`] — the instrument. Every data-path layer that copies bytes
//!   does it through [`CopyMeter::copy`] (or records it explicitly), so tests
//!   can *prove* the zero-copy regime: a deposit-path transfer records zero
//!   payload bytes copied between the application and the wire.
//!
//! The crate is intentionally free of any networking or CORBA knowledge; it
//! is the lowest substrate of the workspace, which is why it also exports
//! [`byte_enum!`], the one declaration form of every wire and report enum
//! above it.

// This crate owns every raw allocation on the data path; an `unsafe` block
// inside an `unsafe fn` must still spell out its own proof obligation.
#![deny(unsafe_op_in_unsafe_fn)]

/// Declares a `u8`-tagged enum one row per variant — `Variant = wire byte,
/// "report name"` — and derives its `COUNT`, `ALL` (in row order), `name`
/// and `from_u8` from the rows, so a decoder (`from_u8(b).ok_or(..)`) can
/// never drift from the discriminants it inverts. A row may go on
/// `=> value`, an expression of the type named after the enum
/// (`enum Stage => (TraceLayer, bool)`), which the private `row()` returns,
/// for accessors of per-variant facts.
#[macro_export]
macro_rules! byte_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident => $row_ty:ty {
            $($(#[$doc:meta])* $v:ident = $byte:literal, $name:literal => $row:expr;)*
        }
    ) => {
        $crate::byte_enum! {
            $(#[$meta])*
            pub enum $ty {
                $($(#[$doc])* $v = $byte, $name;)*
            }
        }

        impl $ty {
            /// The variant's declaration row.
            const fn row(self) -> $row_ty {
                match self {
                    $($ty::$v => $row,)*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$doc:meta])* $v:ident = $byte:literal, $name:literal;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum $ty {
            $($(#[$doc])* $v = $byte,)*
        }

        impl $ty {
            /// Number of variants.
            pub const COUNT: usize = [$($byte,)*].len();

            /// Every variant, in declaration order.
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$v,)*];

            /// Short name used in reports.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$v => $name,)*
                }
            }

            /// Inverse of `self as u8`.
            pub fn from_u8(v: u8) -> ::core::option::Option<$ty> {
                match v {
                    $($byte => ::core::option::Option::Some($ty::$v),)*
                    _ => ::core::option::Option::None,
                }
            }
        }
    };
}

pub mod aligned;
pub mod meter;
pub mod pool;
pub mod zbytes;

pub use aligned::{AlignedBuf, PAGE_SIZE};
pub use meter::{CopyLayer, CopyMeter, CopySnapshot};
pub use pool::{PagePool, PoolStats, PooledBuf};
pub use zbytes::ZcBytes;

/// Round `n` up to the next multiple of the page size.
///
/// Used everywhere a payload must be given whole pages (deposit buffers,
/// pool size classes, simulated NIC receive rings).
#[inline]
pub const fn round_up_to_page(n: usize) -> usize {
    let r = n % PAGE_SIZE;
    if r == 0 {
        // An empty buffer still occupies one page so that a deposit target
        // always has a valid aligned address.
        if n == 0 {
            PAGE_SIZE
        } else {
            n
        }
    } else {
        n + (PAGE_SIZE - r)
    }
}

/// Largest upfront reservation honoured for a peer-announced length.
///
/// Wire decoders must not let a 4-byte length field commit the receiver to
/// a large allocation before the bytes actually exist: a truncated or
/// hostile stream would turn every announcement into an OOM lever. 64 KiB
/// covers virtually every control message in one reservation while keeping
/// the worst case per announcement trivial.
pub const MAX_UPFRONT_RESERVATION: usize = 64 * 1024;

/// Capacity to pre-reserve for a length `announced` by an untrusted peer
/// under the protocol cap `cap` (both in the collection's units — bytes
/// for byte buffers, element counts for typed sequences).
///
/// The announcement is clamped to the cap, and the upfront reservation
/// additionally to [`MAX_UPFRONT_RESERVATION`]; growable collections then
/// extend incrementally toward the full (capped) size as bytes actually
/// arrive. A stream that lies about its length can therefore waste at
/// most 64 KiB of allocation, never `cap` bytes.
#[inline]
pub const fn bounded_capacity(announced: u64, cap: u64) -> usize {
    let capped = if announced < cap { announced } else { cap };
    let upfront = MAX_UPFRONT_RESERVATION as u64;
    (if capped < upfront { capped } else { upfront }) as usize
}

/// Number of MTU-or-page sized chunks needed to carry `n` bytes.
#[inline]
pub const fn div_ceil(n: usize, chunk: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.div_ceil(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_basics() {
        assert_eq!(round_up_to_page(0), PAGE_SIZE);
        assert_eq!(round_up_to_page(1), PAGE_SIZE);
        assert_eq!(round_up_to_page(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(round_up_to_page(PAGE_SIZE + 1), 2 * PAGE_SIZE);
        assert_eq!(round_up_to_page(3 * PAGE_SIZE), 3 * PAGE_SIZE);
    }

    #[test]
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 1460), 0);
        assert_eq!(div_ceil(1, 1460), 1);
        assert_eq!(div_ceil(1460, 1460), 1);
        assert_eq!(div_ceil(1461, 1460), 2);
        assert_eq!(div_ceil(4096, 4096), 1);
    }
}
