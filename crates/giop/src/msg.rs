//! The GIOP message header and framing.

use zc_cdr::{endian, ByteOrder};

use crate::{GiopError, GiopResult, MAX_GIOP_MESSAGE};

/// The four magic bytes opening every GIOP message.
pub const GIOP_MAGIC: [u8; 4] = *b"GIOP";

/// Length of the fixed GIOP message header.
pub const GIOP_HEADER_LEN: usize = 12;

/// Protocol version. We speak 1.0 and 1.2 (1.2 adds bidirectional use and
/// the fragment bit semantics we rely on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GiopVersion {
    /// Major version (always 1).
    pub major: u8,
    /// Minor version (0 or 2).
    pub minor: u8,
}

impl GiopVersion {
    /// GIOP 1.0 — the version MICO spoke in the paper's era.
    pub const V1_0: GiopVersion = GiopVersion { major: 1, minor: 0 };
    /// GIOP 1.2.
    pub const V1_2: GiopVersion = GiopVersion { major: 1, minor: 2 };

    fn validate(self) -> GiopResult<GiopVersion> {
        if self.major == 1 && (self.minor == 0 || self.minor == 2) {
            Ok(self)
        } else {
            Err(GiopError::BadVersion(self.major, self.minor))
        }
    }
}

impl std::fmt::Display for GiopVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// The flags octet of the GIOP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiopFlags {
    /// Byte order of the message body (bit 0).
    pub order: ByteOrder,
    /// More fragments follow (bit 1).
    pub more_fragments: bool,
}

impl GiopFlags {
    /// Flags for a complete (unfragmented) message in `order`.
    pub fn complete(order: ByteOrder) -> GiopFlags {
        GiopFlags {
            order,
            more_fragments: false,
        }
    }

    /// Encode to the wire octet.
    pub fn to_octet(self) -> u8 {
        (self.order.flag() as u8) | ((self.more_fragments as u8) << 1)
    }

    /// Decode from the wire octet (unknown bits are reserved and ignored).
    pub fn from_octet(b: u8) -> GiopFlags {
        GiopFlags {
            order: ByteOrder::from_flag(b & 1 == 1),
            more_fragments: b & 2 == 2,
        }
    }
}

zc_buffers::byte_enum! {
    /// GIOP message types: the header's `msg_type` octet, named as in the
    /// GIOP specification.
    pub enum MessageType {
        /// Client → server method invocation.
        Request = 0, "Request";
        /// Server → client result.
        Reply = 1, "Reply";
        /// Client cancels an outstanding request.
        CancelRequest = 2, "CancelRequest";
        /// Client asks where an object lives.
        LocateRequest = 3, "LocateRequest";
        /// Server answers a LocateRequest.
        LocateReply = 4, "LocateReply";
        /// Orderly connection shutdown.
        CloseConnection = 5, "CloseConnection";
        /// Protocol error notification.
        MessageError = 6, "MessageError";
        /// Continuation of a fragmented message.
        Fragment = 7, "Fragment";
    }
}

/// The fixed 12-byte GIOP message header:
/// `magic(4) | version(2) | flags(1) | msg_type(1) | msg_size(4)`.
///
/// `msg_size` counts the body bytes following the header and is encoded in
/// the byte order announced by the flags octet. Conveniently, 12 bytes keeps
/// the body 4- and 8-aligned when the header lands on an aligned address —
/// CDR alignment in the body is computed relative to the body start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiopHeader {
    /// Protocol version.
    pub version: GiopVersion,
    /// Flags (byte order + fragmentation).
    pub flags: GiopFlags,
    /// Message type.
    pub msg_type: MessageType,
    /// Body length in bytes.
    pub msg_size: u32,
}

impl GiopHeader {
    /// Header for a complete message.
    pub fn new(
        version: GiopVersion,
        order: ByteOrder,
        msg_type: MessageType,
        msg_size: u32,
    ) -> GiopHeader {
        GiopHeader {
            version,
            flags: GiopFlags::complete(order),
            msg_type,
            msg_size,
        }
    }

    /// Serialize to the fixed 12 bytes.
    pub fn encode(&self) -> [u8; GIOP_HEADER_LEN] {
        let mut out = [0u8; GIOP_HEADER_LEN];
        // zc-audit: allow(control-plane) — fixed 12-byte GIOP header, no payload bytes
        out[..4].copy_from_slice(&GIOP_MAGIC);
        out[4] = self.version.major;
        out[5] = self.version.minor;
        out[6] = self.flags.to_octet();
        out[7] = self.msg_type as u8;
        // zc-audit: allow(control-plane) — header size field, four bytes
        out[8..12].copy_from_slice(&endian::write_u32(self.flags.order, self.msg_size));
        out
    }

    /// Parse from the fixed 12 bytes, validating magic, version, type and
    /// the size limit.
    pub fn decode(bytes: &[u8; GIOP_HEADER_LEN]) -> GiopResult<GiopHeader> {
        // Constant indices into the fixed 12-byte array: infallible, and
        // panic-free even on hostile input.
        let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if magic != GIOP_MAGIC {
            return Err(GiopError::BadMagic(magic));
        }
        let version = GiopVersion {
            major: bytes[4],
            minor: bytes[5],
        }
        .validate()?;
        let flags = GiopFlags::from_octet(bytes[6]);
        let msg_type = MessageType::from_u8(bytes[7]).ok_or(GiopError::BadMessageType(bytes[7]))?;
        let msg_size = endian::read_u32(flags.order, &bytes[8..12]);
        if msg_size as u64 > MAX_GIOP_MESSAGE {
            return Err(GiopError::MessageTooLarge(msg_size as u64));
        }
        Ok(GiopHeader {
            version,
            flags,
            msg_type,
            msg_size,
        })
    }
}

/// The fragment train of a `body_len`-byte GIOP body: for each frame, its
/// header and the range of body bytes it carries. Bodies of at most
/// `max_body` bytes travel as one complete message; larger ones as a first
/// message plus `Fragment` continuations of at most `max_body` bytes each,
/// with the more-fragments bit set on all but the last (GIOP 1.2).
///
/// This is the one fragmentation routine: [`fragment_frames`] materializes
/// its frames, the ORB's connection sends each frame's header and window
/// as parts of one vectored control send without building them.
pub fn fragment_plan(
    version: GiopVersion,
    order: ByteOrder,
    msg_type: MessageType,
    body_len: usize,
    max_body: usize,
) -> impl Iterator<Item = (GiopHeader, std::ops::Range<usize>)> {
    assert!(max_body > 0, "fragment body size must be positive");
    // An empty body is still one (header-only) frame.
    let count = body_len.div_ceil(max_body).max(1);
    (0..count).map(move |i| {
        let window = i * max_body..body_len.min((i + 1) * max_body);
        let mt = if i == 0 {
            msg_type
        } else {
            MessageType::Fragment
        };
        let mut header = GiopHeader::new(version, order, mt, window.len() as u32);
        header.flags.more_fragments = i + 1 != count;
        (header, window)
    })
}

/// Frame a complete GIOP message: header followed by body.
pub fn frame(
    version: GiopVersion,
    order: ByteOrder,
    msg_type: MessageType,
    body: &[u8],
) -> Vec<u8> {
    let header = GiopHeader::new(version, order, msg_type, body.len() as u32);
    materialize(&header, body)
}

/// One frame as owned bytes: the encoded `header`, then `body`.
fn materialize(header: &GiopHeader, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(GIOP_HEADER_LEN + body.len());
    // zc-audit: allow(control-plane) — 12-byte header prefix
    out.extend_from_slice(&header.encode());
    // zc-audit: allow(copy) — owned frames for tests, goldens and the benchmark ladder; the connection sends header and body as parts of one vectored send, gathered by the stack's SocketSend copy
    out.extend_from_slice(body);
    out
}

/// [`fragment_plan`] as owned frames (the request id GIOP 1.2 wants at the
/// head of each fragment is the caller's to include in `body`).
pub fn fragment_frames(
    version: GiopVersion,
    order: ByteOrder,
    msg_type: MessageType,
    body: &[u8],
    max_body: usize,
) -> Vec<Vec<u8>> {
    fragment_plan(version, order, msg_type, body.len(), max_body)
        .map(|(header, window)| materialize(&header, &body[window]))
        .collect()
}

/// Reassemble frames produced by [`fragment_frames`] back into
/// `(msg_type, body)`. A malformed train is named as the connection names
/// the same frame: `ShortFrame` for a frame shorter than a header,
/// `Unexpected` for a continuation that is not a `Fragment`, `SizeMismatch`
/// for a body that is not the size its header announces; a final frame
/// still announcing more fragments is `BadHandshake`.
pub fn reassemble(frames: &[Vec<u8>]) -> GiopResult<(MessageType, Vec<u8>)> {
    // Bounded upfront reservation: the body grows incrementally toward the
    // running total, which is itself capped at MAX_GIOP_MESSAGE below, so a
    // hostile fragment train can never out-allocate a single legal message.
    let mut body = Vec::with_capacity(zc_buffers::bounded_capacity(
        frames.first().map_or(0, |f| f.len() as u64),
        MAX_GIOP_MESSAGE,
    ));
    let mut msg_type = None;
    let mut total: u64 = 0;
    let last = frames.len().saturating_sub(1);
    for (i, f) in frames.iter().enumerate() {
        let Some((hdr_bytes, frag)) = f.split_first_chunk::<GIOP_HEADER_LEN>() else {
            return Err(GiopError::ShortFrame(f.len()));
        };
        let hdr = GiopHeader::decode(hdr_bytes)?;
        // `decode` has validated msg_size <= MAX_GIOP_MESSAGE; the rebind
        // through the clamp makes that bound local and explicit.
        let frag_len = (hdr.msg_size as u64).min(MAX_GIOP_MESSAGE) as usize;
        match (i, hdr.msg_type) {
            (0, t) => msg_type = Some(t),
            (_, MessageType::Fragment) => {}
            (_, got) => {
                return Err(GiopError::Unexpected {
                    got,
                    awaiting: MessageType::Fragment,
                })
            }
        }
        if (i == last) == hdr.flags.more_fragments {
            return Err(GiopError::BadHandshake); // inconsistent fragment bits
        }
        if frag.len() != frag_len {
            return Err(GiopError::SizeMismatch {
                announced: hdr.msg_size,
                got: frag.len(),
            });
        }
        // Per-fragment sizes are individually capped, but their *sum* must
        // be too: otherwise a long fragment train OOMs the receiver one
        // legal fragment at a time.
        total = total.saturating_add(frag_len as u64);
        if total > MAX_GIOP_MESSAGE {
            return Err(GiopError::MessageTooLarge(total));
        }
        // zc-audit: allow(copy) — software reassembly concatenates fragment bodies; this models the KernelDefrag layer
        body.extend_from_slice(frag);
    }
    Ok((msg_type.ok_or(GiopError::BadHandshake)?, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_both_orders() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let h = GiopHeader::new(GiopVersion::V1_2, order, MessageType::Request, 1234);
            let bytes = h.encode();
            assert_eq!(&bytes[..4], b"GIOP");
            let back = GiopHeader::decode(&bytes).unwrap();
            assert_eq!(back, h);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let h = GiopHeader::new(GiopVersion::V1_0, ByteOrder::Big, MessageType::Reply, 0);
        let mut bytes = h.encode();
        bytes[0] = b'X';
        assert!(matches!(
            GiopHeader::decode(&bytes),
            Err(GiopError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let h = GiopHeader::new(GiopVersion::V1_0, ByteOrder::Big, MessageType::Reply, 0);
        let mut bytes = h.encode();
        bytes[5] = 9;
        assert_eq!(GiopHeader::decode(&bytes), Err(GiopError::BadVersion(1, 9)));
    }

    /// The GIOP `MsgType` values, pinned through the encoder and the
    /// decoder: every other octet is `BadMessageType`.
    #[test]
    fn message_type_octets_are_the_spec_values() {
        use MessageType::*;
        let spec = [
            Request,
            Reply,
            CancelRequest,
            LocateRequest,
            LocateReply,
            CloseConnection,
            MessageError,
            Fragment,
        ];
        let mut bytes = GiopHeader::new(GiopVersion::V1_0, ByteOrder::Big, Reply, 0).encode();
        for b in 0..=u8::MAX {
            bytes[7] = b;
            let got = GiopHeader::decode(&bytes).map(|h| h.msg_type);
            match spec.get(b as usize) {
                Some(&t) => {
                    assert_eq!(got, Ok(t), "{b}");
                    let h = GiopHeader::new(GiopVersion::V1_0, ByteOrder::Big, t, 0);
                    assert_eq!(h.encode()[7], b, "{t:?}");
                }
                None => assert_eq!(got, Err(GiopError::BadMessageType(b))),
            }
        }
    }

    #[test]
    fn oversized_rejected() {
        let h = GiopHeader::new(
            GiopVersion::V1_0,
            ByteOrder::Big,
            MessageType::Request,
            u32::MAX,
        );
        let bytes = h.encode();
        assert!(matches!(
            GiopHeader::decode(&bytes),
            Err(GiopError::MessageTooLarge(_))
        ));
    }

    #[test]
    fn crafted_header_with_huge_length_rejected_before_allocation() {
        // A hand-built wire header claiming a ~4 GiB body, as a corrupted
        // or hostile peer would send it. Decode must fail with
        // MessageTooLarge (surfaced as a MARSHAL system exception by the
        // ORB) — the length field must never size an allocation.
        let mut bytes = [0u8; GIOP_HEADER_LEN];
        bytes[..4].copy_from_slice(b"GIOP");
        bytes[4] = 1; // major
        bytes[5] = 2; // minor
        bytes[6] = 1; // flags: little-endian
        bytes[7] = 0; // Request
        bytes[8..12].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        assert_eq!(
            GiopHeader::decode(&bytes),
            Err(GiopError::MessageTooLarge(0xFFFF_FFF0))
        );
        // One byte above the limit is already too much…
        bytes[8..12].copy_from_slice(&((MAX_GIOP_MESSAGE as u32) + 1).to_le_bytes());
        assert!(matches!(
            GiopHeader::decode(&bytes),
            Err(GiopError::MessageTooLarge(_))
        ));
        // …while the limit itself still decodes.
        bytes[8..12].copy_from_slice(&(MAX_GIOP_MESSAGE as u32).to_le_bytes());
        assert!(GiopHeader::decode(&bytes).is_ok());
    }

    #[test]
    fn size_follows_flag_order() {
        let h = GiopHeader::new(
            GiopVersion::V1_0,
            ByteOrder::Little,
            MessageType::Request,
            1,
        );
        let bytes = h.encode();
        assert_eq!(bytes[8], 1, "little-endian size starts with LSB");
        let h = GiopHeader::new(GiopVersion::V1_0, ByteOrder::Big, MessageType::Request, 1);
        let bytes = h.encode();
        assert_eq!(bytes[11], 1, "big-endian size ends with LSB");
    }

    #[test]
    fn frame_concatenates_header_and_body() {
        let f = frame(
            GiopVersion::V1_2,
            ByteOrder::Little,
            MessageType::Request,
            &[1, 2, 3],
        );
        assert_eq!(f.len(), GIOP_HEADER_LEN + 3);
        let hdr = GiopHeader::decode(&f[..12].try_into().unwrap()).unwrap();
        assert_eq!(hdr.msg_size, 3);
        assert_eq!(&f[12..], &[1, 2, 3]);
    }

    #[test]
    fn fragmentation_roundtrip() {
        let body: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        let frames = fragment_frames(
            GiopVersion::V1_2,
            ByteOrder::Little,
            MessageType::Request,
            &body,
            1460,
        );
        assert!(frames.len() > 1);
        let (mt, back) = reassemble(&frames).unwrap();
        assert_eq!(mt, MessageType::Request);
        assert_eq!(back, body);
    }

    #[test]
    fn small_body_is_single_frame() {
        let frames = fragment_frames(
            GiopVersion::V1_0,
            ByteOrder::Big,
            MessageType::Reply,
            &[1, 2],
            1460,
        );
        assert_eq!(frames.len(), 1);
        let hdr = GiopHeader::decode(&frames[0][..12].try_into().unwrap()).unwrap();
        assert!(!hdr.flags.more_fragments);
    }

    #[test]
    fn truncated_fragment_stream_rejected() {
        let body = vec![0u8; 5000];
        let mut frames = fragment_frames(
            GiopVersion::V1_2,
            ByteOrder::Little,
            MessageType::Request,
            &body,
            1024,
        );
        frames.pop(); // lose the final fragment
        assert!(reassemble(&frames).is_err());
    }

    /// Each malformed train is named as `GiopConn` names the same frame.
    #[test]
    fn malformed_fragment_trains_name_their_fault() {
        let frames = fragment_frames(
            GiopVersion::V1_2,
            ByteOrder::Little,
            MessageType::Request,
            &[7; 3000],
            1024,
        );
        assert_eq!(frames.len(), 3);

        let mut short = frames.clone();
        short[1].truncate(GIOP_HEADER_LEN - 1);
        assert_eq!(
            reassemble(&short),
            Err(GiopError::ShortFrame(GIOP_HEADER_LEN - 1))
        );

        let mut not_fragment = frames.clone();
        not_fragment[1][7] = MessageType::Reply as u8;
        assert_eq!(
            reassemble(&not_fragment),
            Err(GiopError::Unexpected {
                got: MessageType::Reply,
                awaiting: MessageType::Fragment,
            })
        );

        let mut cut = frames;
        cut[2].pop();
        assert_eq!(
            reassemble(&cut),
            Err(GiopError::SizeMismatch {
                announced: 952,
                got: 951,
            })
        );
    }

    #[test]
    fn flags_octet_roundtrip() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            for more in [false, true] {
                let f = GiopFlags {
                    order,
                    more_fragments: more,
                };
                assert_eq!(GiopFlags::from_octet(f.to_octet()), f);
            }
        }
    }
}
