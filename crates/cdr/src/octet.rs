//! The two sequence-of-octet implementations: standard and zero-copy.
//!
//! This module is the heart of the paper's §4.3/§4.4: the standard
//! `sequence<octet>` copies through the CDR buffer on both sides, while
//! `sequence<ZC_Octet>` — "whose representation and API is isomorphic to the
//! standard Octet while at the same time all corresponding methods are
//! modified to support zero-copy direct deposit" — passes page-aligned
//! blocks by reference and emits only a small descriptor into the stream.

use std::ops::Deref;

use zc_buffers::{CopyLayer, CopyMeter, ZcBytes};

use crate::decode::CdrDecoder;
use crate::encode::CdrEncoder;
use crate::types::CdrMarshal;
use crate::{CdrError, CdrResult, MAX_CDR_LENGTH};

/// The standard CORBA `sequence<octet>`: owned bytes, marshaled by copying
/// into/out of the request buffer (metered, so the cost shows up in every
/// experiment). Wire format: `ulong length` followed by the raw bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OctetSeq(pub Vec<u8>);

impl OctetSeq {
    /// An empty sequence.
    pub fn new() -> OctetSeq {
        OctetSeq(Vec::new())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<u8>> for OctetSeq {
    fn from(v: Vec<u8>) -> Self {
        OctetSeq(v)
    }
}

impl Deref for OctetSeq {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl CdrMarshal for OctetSeq {
    fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        if self.0.len() as u64 > MAX_CDR_LENGTH {
            return Err(CdrError::LengthOverflow(self.0.len() as u64));
        }
        enc.write_octet_seq(&self.0);
        Ok(())
    }
    fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(OctetSeq(dec.read_octet_seq()?))
    }
}

/// The zero-copy octet stream, `sequence<ZC_Octet>`.
///
/// Internally a [`ZcBytes`]: a reference-counted view of a page-aligned
/// buffer. The API mirrors the paper's extensions to `SequenceTmpl<>`:
/// a *length* constructor that reserves an aligned data block, and direct
/// element access to the block.
///
/// ### Wire behaviour
/// * **ZC-negotiated stream** (`enc.zc_enabled()`): marshal writes
///   `ulong length` + `ulong deposit-index` and moves the block onto the
///   encoder's deposit list — zero payload bytes touched. Demarshal resolves
///   the index against blocks the transport deposited into page-aligned
///   memory — again zero payload bytes touched.
/// * **Plain stream**: marshal/demarshal degrade to exactly the
///   [`OctetSeq`] representation (one metered copy each side), keeping the
///   wire IIOP-compatible with peers that never heard of `ZC_Octet`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZcOctetSeq {
    data: ZcBytes,
}

impl ZcOctetSeq {
    /// The paper's "length-method which is used for the initialization of a
    /// data block of a certain length": allocates a zeroed, page-aligned
    /// block ready for the application to fill in place.
    pub fn with_length(len: usize) -> ZcOctetSeq {
        ZcOctetSeq {
            data: ZcBytes::zeroed(len),
        }
    }

    /// Wrap an existing zero-copy block (no copy).
    pub fn from_zc(data: ZcBytes) -> ZcOctetSeq {
        ZcOctetSeq { data }
    }

    /// Build by copying `src` once into aligned storage — the application's
    /// single permitted touch, metered at [`CopyLayer::AppFill`].
    pub fn copy_from_slice(src: &[u8], meter: &CopyMeter) -> ZcOctetSeq {
        ZcOctetSeq {
            // zc-audit: allow(copy) — the application's single permitted fill, metered as AppFill
            data: ZcBytes::copy_from_slice(src, meter, CopyLayer::AppFill),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying shared block.
    pub fn as_zc(&self) -> &ZcBytes {
        &self.data
    }

    /// Unwrap into the underlying shared block.
    pub fn into_zc(self) -> ZcBytes {
        self.data
    }

    /// Whether this block still starts on a page boundary (deposit
    /// eligibility).
    pub fn is_page_aligned(&self) -> bool {
        self.data.is_page_aligned()
    }

    /// Whether two sequences share storage — i.e. whether the path between
    /// them was zero-copy.
    pub fn ptr_eq(&self, other: &ZcOctetSeq) -> bool {
        self.data.ptr_eq(&other.data)
    }
}

impl Deref for ZcOctetSeq {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.data.as_slice()
    }
}

impl From<ZcBytes> for ZcOctetSeq {
    fn from(z: ZcBytes) -> Self {
        ZcOctetSeq::from_zc(z)
    }
}

impl CdrMarshal for ZcOctetSeq {
    fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        if self.len() as u64 > MAX_CDR_LENGTH {
            return Err(CdrError::LengthOverflow(self.len() as u64));
        }
        if enc.zc_enabled() {
            // Direct deposit: descriptor only. "In the case of a direct
            // deposit the data is never actually marshaled but just passed
            // further on to the transport layer" (§4.4).
            enc.write_u32(self.len() as u32);
            // zc-audit: allow(cheap-clone) — ZcBytes clone is a refcount bump; the deposit carries a view, not bytes
            let idx = enc.push_deposit(self.data.clone());
            enc.write_u32(idx);
        } else {
            // Heterogeneous / ZC-incapable peer: inline, like OctetSeq.
            enc.write_octet_seq(&self.data);
        }
        Ok(())
    }

    fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        if dec.zc_enabled() {
            let len = dec.read_u32()? as usize;
            let idx = dec.read_u32()?;
            let block = dec.take_deposit(idx, len)?;
            Ok(ZcOctetSeq { data: block })
        } else {
            // Inline representation: one copy out of the receive buffer into
            // aligned storage, metered as demarshal.
            Ok(ZcOctetSeq {
                data: dec.read_octet_seq_aligned()?,
            })
        }
    }
}

/// Convenience: marshal any `CdrMarshal` value to a standalone byte vector
/// (native order, no deposits). Handy for tests and golden files.
pub fn to_bytes<T: CdrMarshal>(value: &T) -> CdrResult<Vec<u8>> {
    let mut enc = CdrEncoder::native();
    value.marshal(&mut enc)?;
    Ok(enc.finish_stream())
}

/// Convenience: demarshal a value from bytes produced by [`to_bytes`].
pub fn from_bytes<T: CdrMarshal>(bytes: &[u8]) -> CdrResult<T> {
    let mut dec = CdrDecoder::new(bytes, crate::ByteOrder::native());
    T::demarshal(&mut dec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ByteOrder;
    use std::sync::Arc;

    #[test]
    fn octet_seq_wire_format() {
        let s = OctetSeq(vec![1, 2, 3]);
        let mut e = CdrEncoder::new(ByteOrder::Big);
        s.marshal(&mut e).unwrap();
        assert_eq!(e.as_slice(), &[0, 0, 0, 3, 1, 2, 3]);
    }

    #[test]
    fn zc_fallback_wire_format_matches_octet_seq() {
        // On a non-ZC stream the two types must be wire-identical — that is
        // the interoperability guarantee.
        let payload = vec![7u8; 100];
        let std_bytes = {
            let mut e = CdrEncoder::new(ByteOrder::Little);
            OctetSeq(payload.clone()).marshal(&mut e).unwrap();
            e.finish_stream()
        };
        let zc_bytes = {
            let m = CopyMeter::new_shared();
            let mut e = CdrEncoder::new(ByteOrder::Little);
            ZcOctetSeq::copy_from_slice(&payload, &m)
                .marshal(&mut e)
                .unwrap();
            e.finish_stream()
        };
        assert_eq!(std_bytes, zc_bytes);
        // And each demarshals as the other.
        let mut d = CdrDecoder::new(&std_bytes, ByteOrder::Little);
        let z = ZcOctetSeq::demarshal(&mut d).unwrap();
        assert_eq!(&z[..], &payload[..]);
        let mut d2 = CdrDecoder::new(&zc_bytes, ByteOrder::Little);
        let s = OctetSeq::demarshal(&mut d2).unwrap();
        assert_eq!(s.0, payload);
    }

    #[test]
    fn zc_deposit_path_is_zero_copy() {
        let m = CopyMeter::new_shared();
        let seq = ZcOctetSeq::with_length(1 << 20);
        let mut e = CdrEncoder::new(ByteOrder::Little)
            .with_meter(Arc::clone(&m))
            .with_zc(true);
        seq.marshal(&mut e).unwrap();
        let (stream, deposits) = e.finish();
        assert_eq!(
            stream.len(),
            8,
            "descriptor is 8 bytes regardless of payload"
        );
        assert_eq!(deposits.len(), 1);

        let mut d = CdrDecoder::new(&stream, ByteOrder::Little)
            .with_meter(Arc::clone(&m))
            .with_deposits(deposits);
        let back = ZcOctetSeq::demarshal(&mut d).unwrap();
        assert!(back.ptr_eq(&seq), "storage shared end to end");
        assert_eq!(
            m.snapshot().overhead_bytes(),
            0,
            "no payload byte copied anywhere"
        );
    }

    #[test]
    fn zc_deposit_length_mismatch_detected() {
        let seq = ZcOctetSeq::with_length(100);
        let mut e = CdrEncoder::new(ByteOrder::Little).with_zc(true);
        seq.marshal(&mut e).unwrap();
        let (stream, _deposits) = e.finish();
        // Supply a *different* block than announced.
        let wrong = vec![ZcBytes::zeroed(50)];
        let mut d = CdrDecoder::new(&stream, ByteOrder::Little).with_deposits(wrong);
        assert!(matches!(
            ZcOctetSeq::demarshal(&mut d),
            Err(CdrError::DepositLengthMismatch { .. })
        ));
    }

    #[test]
    fn zc_missing_deposit_detected() {
        let seq = ZcOctetSeq::with_length(10);
        let mut e = CdrEncoder::new(ByteOrder::Little).with_zc(true);
        seq.marshal(&mut e).unwrap();
        let (stream, _) = e.finish();
        let mut d = CdrDecoder::new(&stream, ByteOrder::Little).with_deposits(vec![]);
        assert!(matches!(
            ZcOctetSeq::demarshal(&mut d),
            Err(CdrError::BadDepositIndex(0))
        ));
    }

    #[test]
    fn multiple_deposits_resolve_by_index() {
        let a = ZcOctetSeq::with_length(10);
        let b = ZcOctetSeq::with_length(20);
        let mut e = CdrEncoder::new(ByteOrder::Little).with_zc(true);
        a.marshal(&mut e).unwrap();
        b.marshal(&mut e).unwrap();
        let (stream, deposits) = e.finish();
        let mut d = CdrDecoder::new(&stream, ByteOrder::Little).with_deposits(deposits);
        let a2 = ZcOctetSeq::demarshal(&mut d).unwrap();
        let b2 = ZcOctetSeq::demarshal(&mut d).unwrap();
        assert_eq!(a2.len(), 10);
        assert_eq!(b2.len(), 20);
        assert!(a2.ptr_eq(&a));
        assert!(b2.ptr_eq(&b));
    }

    #[test]
    fn with_length_is_aligned_and_zeroed() {
        let s = ZcOctetSeq::with_length(12345);
        assert_eq!(s.len(), 12345);
        assert!(s.is_page_aligned());
        assert!(s.iter().all(|&b| b == 0));
    }

    #[test]
    fn to_from_bytes_helpers() {
        let v = OctetSeq(vec![1, 2, 3, 4, 5]);
        let bytes = to_bytes(&v).unwrap();
        let back: OctetSeq = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }
}
