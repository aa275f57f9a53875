//! The [`CdrMarshal`] trait and its implementations for primitive and
//! composite types. This is the Rust analogue of MICO's per-type marshaling
//! classes (`TCLong`, `TCString`, `TCSeqOctet`, …): a statically dispatched
//! marshal/demarshal pair selected by the parameter's type. The compiler's
//! choice of impl does the job of MICO's run-time TID lookup (§4.1), so no
//! type-id value exists here.

use crate::decode::CdrDecoder;
use crate::encode::CdrEncoder;
use crate::{CdrError, CdrResult, MAX_CDR_LENGTH};

/// A value that can be marshaled to and demarshaled from CDR.
///
/// Generated stub/skeleton code (see the `zc-idl` crate) calls these methods
/// for every operation parameter; the ORB calls them through
/// request/reply builders.
pub trait CdrMarshal: Sized {
    /// Encode `self` onto the stream.
    fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()>;

    /// Decode a value from the stream.
    fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self>;
}

macro_rules! prim_impl {
    ($t:ty, $write:ident, $read:ident) => {
        impl CdrMarshal for $t {
            fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
                enc.$write(*self);
                Ok(())
            }
            fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
                dec.$read()
            }
        }
    };
}

prim_impl!(u8, write_octet, read_octet);
prim_impl!(bool, write_bool, read_bool);
prim_impl!(i16, write_i16, read_i16);
prim_impl!(u16, write_u16, read_u16);
prim_impl!(i32, write_i32, read_i32);
prim_impl!(u32, write_u32, read_u32);
prim_impl!(i64, write_i64, read_i64);
prim_impl!(u64, write_u64, read_u64);
prim_impl!(f32, write_f32, read_f32);
prim_impl!(f64, write_f64, read_f64);

impl CdrMarshal for String {
    fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        enc.write_string(self);
        Ok(())
    }
    fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        dec.read_string()
    }
}

/// `void` — operations without a result marshal the unit type.
impl CdrMarshal for () {
    fn marshal(&self, _enc: &mut CdrEncoder) -> CdrResult<()> {
        Ok(())
    }
    fn demarshal(_dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(())
    }
}

/// Generic `sequence<T>`: ulong count followed by the elements, each
/// marshaled through its own implementation. This is the "very general
/// unoptimized loop that is able to handle all different data types
/// correctly" the paper contrasts with specialized bulk routines — which is
/// why `sequence<octet>` has its own fast types ([`crate::OctetSeq`] /
/// [`crate::ZcOctetSeq`]) rather than going through `Vec<u8>` here.
impl<T: CdrMarshal> CdrMarshal for Vec<T> {
    fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        if self.len() as u64 > MAX_CDR_LENGTH {
            return Err(CdrError::LengthOverflow(self.len() as u64));
        }
        enc.write_u32(self.len() as u32);
        for item in self {
            item.marshal(enc)?;
        }
        Ok(())
    }
    fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        let count = dec.read_u32()?;
        if count as u64 > MAX_CDR_LENGTH {
            return Err(CdrError::LengthOverflow(count as u64));
        }
        // Guard allocation: each element consumes at least one byte of
        // stream, so `count` can never legitimately exceed what remains.
        if count as usize > dec.remaining().max(1) * 8 {
            return Err(CdrError::OutOfBounds {
                need: count as usize,
                have: dec.remaining(),
            });
        }
        let mut out = Vec::with_capacity(zc_buffers::bounded_capacity(count as u64, 4096));
        for _ in 0..count {
            out.push(T::demarshal(dec)?);
        }
        Ok(out)
    }
}

/// Fixed-size IDL arrays (`T name[N]`): elements back to back with **no**
/// length prefix — the length is part of the type, per CDR.
impl<T: CdrMarshal, const N: usize> CdrMarshal for [T; N] {
    fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        for item in self {
            item.marshal(enc)?;
        }
        Ok(())
    }
    fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::demarshal(dec)?);
        }
        out.try_into()
            .map_err(|_| CdrError::LengthOverflow(N as u64))
    }
}

/// Helper for code generators: marshal an enum discriminant.
pub fn marshal_enum(enc: &mut CdrEncoder, discriminant: u32) -> CdrResult<()> {
    enc.write_u32(discriminant);
    Ok(())
}

/// Helper for code generators: demarshal an enum discriminant, checking it
/// against the number of declared enumerators.
pub fn demarshal_enum(dec: &mut CdrDecoder<'_>, num_variants: u32) -> CdrResult<u32> {
    let v = dec.read_u32()?;
    if v >= num_variants {
        return Err(CdrError::BadEnumValue(v));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ByteOrder;

    fn roundtrip<T: CdrMarshal + PartialEq + std::fmt::Debug>(v: &T, order: ByteOrder) -> T {
        let mut e = CdrEncoder::new(order);
        v.marshal(&mut e).unwrap();
        let bytes = e.finish_stream();
        let mut d = CdrDecoder::new(&bytes, order);
        let back = T::demarshal(&mut d).unwrap();
        assert_eq!(d.remaining(), 0, "stream fully consumed");
        back
    }

    #[test]
    fn primitives_roundtrip() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            assert_eq!(roundtrip(&0xABu8, order), 0xAB);
            assert!(roundtrip(&true, order));
            assert_eq!(roundtrip(&-123i16, order), -123);
            assert_eq!(roundtrip(&u16::MAX, order), u16::MAX);
            assert_eq!(roundtrip(&i32::MIN, order), i32::MIN);
            assert_eq!(roundtrip(&0xDEAD_BEEFu32, order), 0xDEAD_BEEF);
            assert_eq!(roundtrip(&i64::MAX, order), i64::MAX);
            assert_eq!(roundtrip(&u64::MAX, order), u64::MAX);
            assert_eq!(roundtrip(&1.5f32, order), 1.5);
            assert_eq!(roundtrip(&-0.1f64, order), -0.1);
            assert_eq!(roundtrip(&"unicode ✓".to_string(), order), "unicode ✓");
            roundtrip(&(), order);
        }
    }

    #[test]
    fn vec_of_longs_roundtrip() {
        let v: Vec<i32> = (-50..50).collect();
        assert_eq!(roundtrip(&v, ByteOrder::Big), v);
        assert_eq!(roundtrip(&v, ByteOrder::Little), v);
    }

    #[test]
    fn vec_of_strings_roundtrip() {
        let v = vec!["a".to_string(), "".to_string(), "longer string".to_string()];
        assert_eq!(roundtrip(&v, ByteOrder::Little), v);
    }

    #[test]
    fn nested_vec_roundtrip() {
        let v: Vec<Vec<u16>> = vec![vec![1, 2], vec![], vec![65535]];
        assert_eq!(roundtrip(&v, ByteOrder::Big), v);
    }

    /// A hand-written struct impl of the exact shape zc-idlc generates.
    #[derive(Debug, PartialEq, Clone)]
    struct FrameHeader {
        stream_id: u32,
        pts: i64,
        keyframe: bool,
        label: String,
    }

    impl CdrMarshal for FrameHeader {
        fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
            self.stream_id.marshal(enc)?;
            self.pts.marshal(enc)?;
            self.keyframe.marshal(enc)?;
            self.label.marshal(enc)?;
            Ok(())
        }
        fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
            Ok(FrameHeader {
                stream_id: u32::demarshal(dec)?,
                pts: i64::demarshal(dec)?,
                keyframe: bool::demarshal(dec)?,
                label: String::demarshal(dec)?,
            })
        }
    }

    #[test]
    fn struct_roundtrip_with_alignment_holes() {
        let h = FrameHeader {
            stream_id: 3,
            pts: -1_000_000_007,
            keyframe: true,
            label: "GOP-0".into(),
        };
        assert_eq!(roundtrip(&h, ByteOrder::Big), h);
        assert_eq!(roundtrip(&h, ByteOrder::Little), h);
        let v = vec![h.clone(), h];
        assert_eq!(roundtrip(&v, ByteOrder::Little), v);
    }

    #[test]
    fn fixed_arrays_have_no_length_prefix() {
        let arr: [u16; 3] = [1, 2, 3];
        let mut e = CdrEncoder::new(ByteOrder::Big);
        arr.marshal(&mut e).unwrap();
        assert_eq!(e.as_slice(), &[0, 1, 0, 2, 0, 3], "6 bytes, no count");
        let bytes = e.finish_stream();
        let mut d = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert_eq!(<[u16; 3]>::demarshal(&mut d).unwrap(), arr);
    }

    #[test]
    fn arrays_of_structs_roundtrip() {
        let arr: [FrameHeader; 2] = [
            FrameHeader {
                stream_id: 1,
                pts: 2,
                keyframe: false,
                label: "a".into(),
            },
            FrameHeader {
                stream_id: 3,
                pts: 4,
                keyframe: true,
                label: "b".into(),
            },
        ];
        assert_eq!(roundtrip(&arr, ByteOrder::Little), arr);
    }

    #[test]
    fn truncated_array_errors() {
        let mut d = CdrDecoder::new(&[0, 1], ByteOrder::Big);
        assert!(<[u16; 3]>::demarshal(&mut d).is_err());
    }

    #[test]
    fn enum_helpers() {
        let mut e = CdrEncoder::new(ByteOrder::Little);
        marshal_enum(&mut e, 2).unwrap();
        let bytes = e.finish_stream();
        let mut d = CdrDecoder::new(&bytes, ByteOrder::Little);
        assert_eq!(demarshal_enum(&mut d, 3).unwrap(), 2);
        let mut d2 = CdrDecoder::new(&bytes, ByteOrder::Little);
        assert_eq!(demarshal_enum(&mut d2, 2), Err(CdrError::BadEnumValue(2)));
    }

    #[test]
    fn hostile_vec_count_rejected_without_allocation() {
        // count = 2^29 elements but almost no bytes follow.
        let mut e = CdrEncoder::new(ByteOrder::Little);
        e.write_u32(1 << 29);
        let bytes = e.finish_stream();
        let mut d = CdrDecoder::new(&bytes, ByteOrder::Little);
        assert!(Vec::<i32>::demarshal(&mut d).is_err());
    }
}
