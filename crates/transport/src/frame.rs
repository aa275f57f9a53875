//! Frames on the simulated wire.
//!
//! The simulated NIC moves [`Frame`]s. A frame is a descriptor for one or
//! more wire frames (segmentation offload), each with its own header (the
//! Ethernet/IP/TCP headers of the real stack, abstracted to the fields the
//! receiver needs), and a payload that is a *view*: of the slab the
//! conventional driver's fragmentation copy laid the fragments out in, of
//! the socket buffer a control message was copied into, of the original
//! user pages (zero-copy driver) — or, where the fault injector damaged a
//! frame, of the private copy it detached the fragment into.

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

/// One descriptor on the simulated wire: consecutive fragments of a block,
/// as many wire frames as its row's unit cuts it into ([`Frame::wire_frames`]).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Which lane this frame belongs to.
    pub lane: Lane,
    /// Id of the block (message) this frame is a fragment of.
    pub block_id: u64,
    /// Byte offset of this frame's first fragment within its block.
    pub offset: u64,
    /// Total length of the block, repeated in every frame so the receiver
    /// can allocate on first arrival.
    pub total_len: u64,
    /// Trace-clock stamp (`zc_trace::now_ns`) taken when the frame was put
    /// on the wire; `0` when the sender's telemetry was disabled. The
    /// receiver derives data-path flight time from the first frame.
    pub sent_ns: u64,
    /// The fragments' payload, back to back.
    pub payload: ZcBytes,
}

impl Frame {
    /// Wire frames of `unit` payload bytes this stands for (at least one).
    pub fn wire_frames(&self, unit: usize) -> usize {
        self.payload.len().div_ceil(unit.max(1)).max(1)
    }

    /// Bytes those wire frames occupy: the payload, and a header each.
    pub fn wire_bytes(&self, unit: usize) -> usize {
        let headers = FRAME_HEADER_BYTES.saturating_mul(self.wire_frames(unit));
        headers.saturating_add(self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_include_header() {
        let f = Frame {
            lane: Lane::Control,
            block_id: 0,
            offset: 0,
            total_len: 10,
            sent_ns: 0,
            payload: ZcBytes::zeroed(10),
        };
        assert_eq!(f.wire_bytes(usize::MAX), FRAME_HEADER_BYTES + 10);
        // Cut at 4 bytes, the same payload is three wire frames.
        assert_eq!(f.wire_frames(4), 3);
        assert_eq!(f.wire_bytes(4), 3 * FRAME_HEADER_BYTES + 10);
    }
}
