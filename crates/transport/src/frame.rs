//! Frames on the simulated wire.
//!
//! The simulated NIC moves [`Frame`]s. A frame is an MTU-bounded unit with a
//! small header (the Ethernet/IP/TCP headers of the real stack, abstracted
//! to the fields the receiver needs) and a payload that is a *reference* —
//! to the frame's window of the slab the conventional driver's
//! fragmentation copy laid the fragments out in, or to pages of the
//! original user buffer (zero-copy driver) — or, where the fault injector
//! damaged a frame, privately *copied* bytes.

use zc_buffers::ZcBytes;

/// Bytes of protocol header per Ethernet frame on the simulated wire
/// (14 Ethernet + 20 IP + 20 TCP + 4 FCS — what a TCP segment on GbE
/// carries besides payload).
pub const FRAME_HEADER_BYTES: usize = 58;

/// Payload bytes per standard-MTU frame (1500 MTU − 40 IP/TCP).
pub const MTU_PAYLOAD: usize = 1460;

/// Logical lane a frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Control path (synchronization, headers).
    Control,
    /// Data path (bulk payload).
    Data,
}

/// Frame payload representation.
#[derive(Debug, Clone)]
pub enum FramePayload {
    /// Bytes the frame owns: a fragment the fault injector detached from
    /// the sender's pages before damaging it (or an empty block's nothing).
    Copied(Vec<u8>),
    /// A reference to a slice of a sender-side buffer: the driver's
    /// fragment slab (copying stack) or the user's pages (zero-copy stack).
    Referenced(ZcBytes),
}

impl FramePayload {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            FramePayload::Copied(v) => v.len(),
            FramePayload::Referenced(z) => z.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload bytes, whichever representation.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            FramePayload::Copied(v) => v,
            FramePayload::Referenced(z) => z.as_slice(),
        }
    }
}

/// One frame on the simulated wire.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Which lane this frame belongs to.
    pub lane: Lane,
    /// Id of the block (message) this frame is a fragment of.
    pub block_id: u64,
    /// Byte offset of this fragment within its block.
    pub offset: u64,
    /// Total length of the block, repeated in every fragment so the
    /// receiver can allocate on first arrival.
    pub total_len: u64,
    /// Trace-clock stamp (`zc_trace::now_ns`) taken when the frame was put
    /// on the wire; `0` when the sender's telemetry was disabled. The
    /// receiver derives data-path flight time from the first fragment.
    pub sent_ns: u64,
    /// The fragment payload.
    pub payload: FramePayload,
}

impl Frame {
    /// Whether this is the final fragment of its block. A hostile offset
    /// near `u64::MAX` must not overflow the comparison, so the sum is
    /// checked: an overflowing window is never "last".
    pub fn is_last(&self) -> bool {
        self.offset.checked_add(self.payload.len() as u64) == Some(self.total_len)
    }

    /// Total bytes this frame occupies on the wire (header + payload).
    pub fn wire_bytes(&self) -> usize {
        FRAME_HEADER_BYTES.saturating_add(self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_fragment_detection() {
        let f = Frame {
            lane: Lane::Data,
            block_id: 1,
            offset: 1460,
            total_len: 2920,
            sent_ns: 0,
            payload: FramePayload::Copied(vec![0; 1460]),
        };
        assert!(f.is_last());
        let g = Frame {
            offset: 0,
            ..f.clone()
        };
        assert!(!g.is_last());
    }

    #[test]
    fn wire_bytes_include_header() {
        let f = Frame {
            lane: Lane::Control,
            block_id: 0,
            offset: 0,
            total_len: 10,
            sent_ns: 0,
            payload: FramePayload::Copied(vec![0; 10]),
        };
        assert_eq!(f.wire_bytes(), FRAME_HEADER_BYTES + 10);
    }

    #[test]
    fn referenced_payload_reads_through() {
        let z = ZcBytes::zeroed(100);
        let p = FramePayload::Referenced(z.slice(10..20));
        assert_eq!(p.len(), 10);
        assert_eq!(p.as_slice(), &[0u8; 10]);
    }
}
