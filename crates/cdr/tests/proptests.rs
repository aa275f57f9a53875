//! Property-based tests for the CDR engine: round-trips under arbitrary
//! values and byte orders, alignment invariants, and decoder robustness
//! against arbitrary byte soup.

use proptest::prelude::*;

use zc_buffers::CopyMeter;
use zc_cdr::{ByteOrder, CdrDecoder, CdrEncoder, CdrMarshal, OctetSeq, ZcOctetSeq};

fn orders() -> impl Strategy<Value = ByteOrder> {
    prop_oneof![Just(ByteOrder::Big), Just(ByteOrder::Little)]
}

fn roundtrip<T: CdrMarshal + PartialEq + std::fmt::Debug>(v: &T, order: ByteOrder) {
    let mut e = CdrEncoder::new(order);
    v.marshal(&mut e).unwrap();
    let bytes = e.finish_stream();
    let mut d = CdrDecoder::new(&bytes, order);
    let back = T::demarshal(&mut d).unwrap();
    assert_eq!(&back, v);
    assert_eq!(d.remaining(), 0);
}

proptest! {
    #[test]
    fn prop_u32_roundtrip(v: u32, order in orders()) {
        roundtrip(&v, order);
    }

    #[test]
    fn prop_i64_roundtrip(v: i64, order in orders()) {
        roundtrip(&v, order);
    }

    #[test]
    fn prop_f64_roundtrip(v: f64, order in orders()) {
        // NaN != NaN, so compare bit patterns.
        let mut e = CdrEncoder::new(order);
        v.marshal(&mut e).unwrap();
        let bytes = e.finish_stream();
        let mut d = CdrDecoder::new(&bytes, order);
        let back = f64::demarshal(&mut d).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn prop_string_roundtrip(s in "\\PC*", order in orders()) {
        roundtrip(&s, order);
    }

    #[test]
    fn prop_vec_i32_roundtrip(v in proptest::collection::vec(any::<i32>(), 0..200), order in orders()) {
        roundtrip(&v, order);
    }

    #[test]
    fn prop_vec_string_roundtrip(v in proptest::collection::vec("[a-zA-Z0-9 ]{0,20}", 0..30), order in orders()) {
        roundtrip(&v, order);
    }

    #[test]
    fn prop_octet_seq_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..5000), order in orders()) {
        roundtrip(&OctetSeq(data), order);
    }

    /// Interleaving values of different alignments must still round-trip:
    /// this exercises the padding logic exhaustively.
    #[test]
    fn prop_mixed_alignment_roundtrip(
        a: u8, b: u64, c: u16, d: f64, e_: i32, s in "[a-z]{0,12}", order in orders()
    ) {
        let mut enc = CdrEncoder::new(order);
        a.marshal(&mut enc).unwrap();
        b.marshal(&mut enc).unwrap();
        c.marshal(&mut enc).unwrap();
        d.marshal(&mut enc).unwrap();
        e_.marshal(&mut enc).unwrap();
        s.marshal(&mut enc).unwrap();
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, order);
        prop_assert_eq!(u8::demarshal(&mut dec).unwrap(), a);
        prop_assert_eq!(u64::demarshal(&mut dec).unwrap(), b);
        prop_assert_eq!(u16::demarshal(&mut dec).unwrap(), c);
        prop_assert_eq!(f64::demarshal(&mut dec).unwrap().to_bits(), d.to_bits());
        prop_assert_eq!(i32::demarshal(&mut dec).unwrap(), e_);
        prop_assert_eq!(String::demarshal(&mut dec).unwrap(), s);
        prop_assert_eq!(dec.remaining(), 0);
    }

    /// The decoder must never panic on arbitrary input — errors only.
    #[test]
    fn prop_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256), order in orders()) {
        let mut d = CdrDecoder::new(&bytes, order);
        let _ = String::demarshal(&mut d);
        let mut d = CdrDecoder::new(&bytes, order);
        let _ = Vec::<i32>::demarshal(&mut d);
        let mut d = CdrDecoder::new(&bytes, order);
        let _ = OctetSeq::demarshal(&mut d);
        let mut d = CdrDecoder::new(&bytes, order);
        let _ = ZcOctetSeq::demarshal(&mut d);
        let mut d = CdrDecoder::new(&bytes, order);
        let _ = f64::demarshal(&mut d);
    }

    /// ZC round-trip through the deposit path preserves identity (shared
    /// storage) for arbitrary payload sizes, including page-boundary sizes.
    #[test]
    fn prop_zc_deposit_identity(len in 0usize..200_000) {
        let m = CopyMeter::new_shared();
        let seq = ZcOctetSeq::with_length(len);
        let mut e = CdrEncoder::native().with_meter(m.clone()).with_zc(true);
        seq.marshal(&mut e).unwrap();
        let (stream, deposits) = e.finish();
        let mut d = CdrDecoder::new(&stream, ByteOrder::native())
            .with_meter(m.clone())
            .with_deposits(deposits);
        let back = ZcOctetSeq::demarshal(&mut d).unwrap();
        prop_assert!(back.ptr_eq(&seq));
        prop_assert_eq!(m.snapshot().overhead_bytes(), 0);
    }

    /// On a non-ZC stream, ZcOctetSeq and OctetSeq are wire-identical.
    #[test]
    fn prop_zc_fallback_wire_equivalence(data in proptest::collection::vec(any::<u8>(), 0..3000), order in orders()) {
        let m = CopyMeter::new_shared();
        let mut e1 = CdrEncoder::new(order);
        OctetSeq(data.clone()).marshal(&mut e1).unwrap();
        let mut e2 = CdrEncoder::new(order);
        ZcOctetSeq::copy_from_slice(&data, &m).marshal(&mut e2).unwrap();
        prop_assert_eq!(e1.finish_stream(), e2.finish_stream());
    }
}

// ---------------------------------------------------------------------------
// Adversarial replay of the wire-taint pass's flagged sites: a lying length
// prefix must land as an error — never a panic — and must never drive an
// allocation anywhere near the announced size. The per-thread counting
// allocator (`zc-test-alloc`) measures the peak live-byte delta across each
// hostile decode.
// ---------------------------------------------------------------------------

use zc_test_alloc::measure_peak as measured_peak;

#[global_allocator]
static COUNTING: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;

/// Mirrors `zc_giop::MAX_GIOP_MESSAGE` (this crate cannot depend on giop
/// without a cycle): no decode of a lying length may allocate past it.
/// Hostile announced lengths reach into the gigabytes, so the margin
/// between "bug" and "pass" is wide.
const PEAK_CAP: usize = 64 << 20;

fn length_prefix(announced: u32, order: ByteOrder) -> Vec<u8> {
    match order {
        ByteOrder::Big => announced.to_be_bytes().to_vec(),
        ByteOrder::Little => announced.to_le_bytes().to_vec(),
    }
}

proptest! {
    /// Every length-prefixed decode entrypoint the taint pass flags —
    /// `read_string`, `read_octet_seq` (owned and borrowed),
    /// `read_encapsulation`, and sequence demarshal — must reject a length
    /// field larger than the bytes behind it, without panicking and
    /// without allocating toward the announced size.
    #[test]
    fn prop_hostile_length_prefix_errors_bounded(
        announced in 64u32..u32::MAX,
        tail in proptest::collection::vec(any::<u8>(), 0..48),
        order in orders(),
    ) {
        let mut bytes = length_prefix(announced, order);
        bytes.extend_from_slice(&tail);
        // announced >= 64 > tail.len(), so every decode must fail.
        let (all_err, peak) = measured_peak(|| {
            CdrDecoder::new(&bytes, order).read_string().is_err()
                && CdrDecoder::new(&bytes, order).read_octet_seq().is_err()
                && CdrDecoder::new(&bytes, order).read_octet_seq_borrowed().is_err()
                && CdrDecoder::new(&bytes, order)
                    .read_encapsulation(|inner| inner.read_u32())
                    .is_err()
                && Vec::<i32>::demarshal(&mut CdrDecoder::new(&bytes, order)).is_err()
                && String::demarshal(&mut CdrDecoder::new(&bytes, order)).is_err()
        });
        prop_assert!(
            all_err,
            "a lying length of {} over {} payload bytes must error",
            announced, tail.len()
        );
        prop_assert!(peak <= PEAK_CAP, "hostile length drove a {peak} byte peak");
    }

    /// Mutating a ZC stream (descriptor indices, announced deposit
    /// lengths, the inline tag) must never panic `take_deposit` or the
    /// demarshal path, and must never drive a large allocation.
    #[test]
    fn prop_zc_deposit_stream_mutation_errors_bounded(
        len in 1usize..4096,
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255u8), 1..6),
    ) {
        let m = CopyMeter::new_shared();
        let seq = ZcOctetSeq::with_length(len);
        let mut e = CdrEncoder::native().with_meter(m.clone()).with_zc(true);
        seq.marshal(&mut e).unwrap();
        let (mut stream, deposits) = e.finish();
        for &(idx, xor) in &flips {
            let p = idx % stream.len();
            stream[p] ^= xor;
        }
        let ((), peak) = measured_peak(|| {
            let mut d = CdrDecoder::new(&stream, ByteOrder::native())
                .with_meter(m.clone())
                .with_deposits(deposits);
            // A mutation may survive as a still-valid stream or land as any
            // decode error; the only unacceptable outcomes are a panic or a
            // length-field-sized allocation.
            let _ = ZcOctetSeq::demarshal(&mut d);
        });
        prop_assert!(peak <= PEAK_CAP, "mutated ZC stream drove a {peak} byte peak");
    }
}
