//! Golden wire-format tests: the exact bytes of canonical GIOP artifacts.
//!
//! These pin the wire representation so that refactors of the encoder
//! cannot silently change what goes on the network — the property that
//! keeps independently built zcorba processes interoperable.

use zc_cdr::{ByteOrder, CdrEncoder};
use zc_giop::{
    frame_msg, GiopHeader, GiopVersion, Ior, MessageType, RequestHeader, GIOP_HEADER_LEN,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_giop_header_big_endian() {
    let h = GiopHeader::new(
        GiopVersion::V1_2,
        ByteOrder::Big,
        MessageType::Request,
        0x1234,
    );
    // GIOP | 1 2 | flags=0 (BE, no frag) | type=0 | size BE
    assert_eq!(hex(&h.encode()), "47494f500102000000001234");
    assert_eq!(h.encode().len(), GIOP_HEADER_LEN);
}

#[test]
fn golden_giop_header_little_endian() {
    let h = GiopHeader::new(GiopVersion::V1_0, ByteOrder::Little, MessageType::Reply, 7);
    // flags=1 (LE), type=1, size LE
    assert_eq!(
        hex(&h.encode()),
        "47494f50010001010700000000000000"[..24].to_string()
    );
}

#[test]
fn golden_request_header_body() {
    // A canonical request: no service contexts, id 1, response expected,
    // 4-byte key "key\0" spelled out, operation "op".
    let h = RequestHeader {
        service_contexts: vec![],
        request_id: 1,
        response_expected: true,
        object_key: b"key".to_vec(),
        operation: "op".to_string(),
    };
    let mut enc = CdrEncoder::new(ByteOrder::Big);
    h.marshal(&mut enc).unwrap();
    let bytes = enc.finish_stream();
    // contexts count(4) | request id(4) | bool(1) + pad(3) |
    // key len(4) + "key" + pad(1) | op len(4)="op\0"(3)... | principal(4)
    let expected = concat!(
        "00000000", // 0 service contexts
        "00000001", // request id 1
        "01",       // response expected
        "000000",   // padding to 4
        "00000003", // key length 3
        "6b6579",   // "key"
        "00",       // pad to 4 for the op-length ulong
        "00000003", // operation length incl NUL
        "6f7000",   // "op\0"
        "00",       // pad (op ended at odd offset; ulong aligns)
        "00000000", // principal: empty sequence
    );
    assert_eq!(hex(&bytes), expected);
}

#[test]
fn golden_frame_concatenation() {
    let f = frame_msg(
        GiopVersion::V1_0,
        ByteOrder::Big,
        MessageType::CloseConnection,
        &[],
    );
    assert_eq!(
        hex(&f),
        "47494f50010000050000000000000000"[..24].to_string()
    );
}

#[test]
fn golden_ior_string_is_stable() {
    // The IOR string of a fixed reference must never change (users persist
    // IOR strings in files and naming services).
    let ior = Ior::new_iiop("IDL:g/X:1.0", "h", 1, b"k");
    let s = ior.to_ior_string();
    // Re-parsing and restringifying is the identity.
    assert_eq!(Ior::from_ior_string(&s).unwrap().to_ior_string(), s);
    // And the exact text is pinned (native little-endian encapsulation).
    if ByteOrder::native() == ByteOrder::Little {
        assert_eq!(
            s,
            "IOR:010000000c00000049444c3a672f583a312e3000010000000000000011000000010102000200000068000100010000006b"
        );
    }
}

#[test]
fn golden_handshake_frame() {
    // Handshake bytes for a fixed declaration (must stay parseable by old
    // peers; pin the layout).
    let h = zc_giop::Handshake {
        byte_order: ByteOrder::Little,
        word_size: 8,
        page_size: 4096,
        arch: "x".to_string(),
        zc_supported: true,
    };
    let bytes = h.encode();
    assert_eq!(&bytes[..4], b"ZCH1");
    assert_eq!(bytes[4], 1, "LE flag");
    assert_eq!(bytes[5], 8, "word size");
    assert_eq!(bytes[6], 1, "zc flag");
    // page size LE at offset 8 (after 1 pad byte to align the ulong)
    assert_eq!(&bytes[8..12], &4096u32.to_le_bytes());
}

/// The three zcorba service contexts, written in place into a request and
/// a reply header, in both wire orders. The bytes were captured from the
/// encoder that built each context in a buffer of its own and copied it in;
/// the in-place emitter must produce the same ones. (The contexts are
/// native-order encapsulations, so the fixture is a little-endian host's.)
#[test]
fn golden_headers_with_zcorba_contexts() {
    use zc_giop::{
        write_reply_header, write_request_header, ContextWriter, ReplyStatus, TraceContext,
        ZcHealthContext,
    };
    if ByteOrder::native() != ByteOrder::Little {
        return;
    }
    let contexts = |w: &mut ContextWriter<'_>| {
        w.manifest([1u64 << 20, 5].into_iter());
        w.trace(&TraceContext {
            trace_id: 0x1111,
            sent_at_ns: 0x2222,
            journey_id: 0x3333,
            attempt: 2,
            cause: 1,
        });
        w.health(&ZcHealthContext {
            spec_hits: 9,
            spec_misses: 1,
        });
    };
    let list_big = concat!(
        "00000003",
        "5a43000100000018",
        "010000000200000000001000000000000500000000000000",
        "5a43000300000028",
        "01000000000000001111000000000000222200000000000033330000000000000102000000000000",
        "5a43000400000018",
        "010000000000000009000000000000000100000000000000",
    );
    let list_little = concat!(
        "03000000",
        "0100435a18000000",
        "010000000200000000001000000000000500000000000000",
        "0300435a28000000",
        "01000000000000001111000000000000222200000000000033330000000000000102000000000000",
        "0400435a18000000",
        "010000000000000009000000000000000100000000000000",
    );
    for (order, list, request_tail, reply_tail) in [
        (
            ByteOrder::Big,
            list_big,
            "0102030401000000000000036f626a0000000005707573680000000000000000",
            "0000000700000000",
        ),
        (
            ByteOrder::Little,
            list_little,
            "0403020101000000030000006f626a0005000000707573680000000000000000",
            "0700000000000000",
        ),
    ] {
        let mut enc = CdrEncoder::new(order);
        write_request_header(&mut enc, 0x0102_0304, true, b"obj", "push", contexts);
        assert_eq!(hex(&enc.finish_stream()), format!("{list}{request_tail}"));
        let mut enc = CdrEncoder::new(order);
        write_reply_header(&mut enc, 7, ReplyStatus::NoException, contexts);
        assert_eq!(hex(&enc.finish_stream()), format!("{list}{reply_tail}"));
    }
}
