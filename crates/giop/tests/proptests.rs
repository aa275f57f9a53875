//! Property tests: GIOP framing, fragmentation, IORs and headers round-trip
//! under arbitrary inputs; decoders never panic on garbage.

use proptest::prelude::*;

use zc_cdr::{ByteOrder, CdrDecoder, CdrEncoder};
use zc_giop::{
    DepositManifest, GiopHeader, GiopVersion, Handshake, IiopProfile, Ior, MessageType,
    ReplyHeader, ReplyStatus, RequestHeader, TaggedProfile, GIOP_HEADER_LEN,
};

fn orders() -> impl Strategy<Value = ByteOrder> {
    prop_oneof![Just(ByteOrder::Big), Just(ByteOrder::Little)]
}

proptest! {
    #[test]
    fn prop_giop_header_roundtrip(
        size in 0u32..1_000_000,
        order in orders(),
        mt in 0u8..8,
    ) {
        let h = GiopHeader::new(
            GiopVersion::V1_2,
            order,
            MessageType::from_u8(mt).unwrap(),
            size,
        );
        prop_assert_eq!(GiopHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn prop_header_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), GIOP_HEADER_LEN..=GIOP_HEADER_LEN)) {
        let arr: [u8; GIOP_HEADER_LEN] = bytes.try_into().unwrap();
        let _ = GiopHeader::decode(&arr);
    }

    #[test]
    fn prop_fragmentation_roundtrip(
        body in proptest::collection::vec(any::<u8>(), 0..20_000),
        max_body in 1usize..4096,
        order in orders(),
    ) {
        let frames = zc_giop::msg::fragment_frames(
            GiopVersion::V1_2, order, MessageType::Request, &body, max_body);
        let (mt, back) = zc_giop::msg::reassemble(&frames).unwrap();
        prop_assert_eq!(mt, MessageType::Request);
        prop_assert_eq!(back, body);
    }

    #[test]
    fn prop_request_header_roundtrip(
        id: u32,
        expected: bool,
        key in proptest::collection::vec(any::<u8>(), 0..64),
        op in "[a-zA-Z_][a-zA-Z0-9_]{0,30}",
        order in orders(),
    ) {
        let mut h = RequestHeader::new(id, key, &op);
        h.response_expected = expected;
        let mut enc = CdrEncoder::new(order);
        h.marshal(&mut enc).unwrap();
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, order);
        prop_assert_eq!(RequestHeader::demarshal(&mut dec).unwrap(), h);
    }

    #[test]
    fn prop_reply_header_roundtrip(id: u32, status in 0u8..4, order in orders()) {
        let h = ReplyHeader {
            service_contexts: vec![],
            request_id: id,
            status: ReplyStatus::from_u8(status).unwrap(),
        };
        let mut enc = CdrEncoder::new(order);
        h.marshal(&mut enc).unwrap();
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, order);
        prop_assert_eq!(ReplyHeader::demarshal(&mut dec).unwrap(), h);
    }

    #[test]
    fn prop_manifest_roundtrip(lengths in proptest::collection::vec(any::<u64>(), 0..50)) {
        let m = DepositManifest { block_lengths: lengths };
        let back = DepositManifest::from_context(&m.to_context()).unwrap().unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn prop_ior_string_roundtrip(
        type_id in "[ -~]{0,40}",
        host in "[a-z0-9.]{1,30}",
        port: u16,
        key in proptest::collection::vec(any::<u8>(), 0..32),
        foreign_tag in 1u32..1000,
        foreign_data in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut ior = Ior::new_iiop(&type_id, &host, port, &key);
        ior.profiles.push(TaggedProfile::Other { tag: foreign_tag, data: foreign_data });
        let s = ior.to_ior_string();
        let back = Ior::from_ior_string(&s).unwrap();
        prop_assert_eq!(&back, &ior);
        prop_assert_eq!(back.to_ior_string(), s);
    }

    #[test]
    fn prop_ior_parse_never_panics(s in "IOR:[0-9a-fA-F]{0,200}") {
        let _ = Ior::from_ior_string(&s);
    }

    #[test]
    fn prop_handshake_roundtrip(zc: bool, word in 1u8..16, page in 1u32..65536, arch in "[a-z0-9-]{1,20}") {
        let h = Handshake {
            byte_order: ByteOrder::native(),
            word_size: word,
            page_size: page,
            arch,
            zc_supported: zc,
        };
        prop_assert_eq!(Handshake::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn prop_handshake_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Handshake::decode(&bytes);
    }

    /// Negotiation is symmetric in its homogeneity/zero-copy verdicts.
    #[test]
    fn prop_negotiation_symmetric_verdict(zc_a: bool, zc_b: bool, foreign: bool) {
        let a = Handshake::local(zc_a);
        let b = if foreign { Handshake::foreign() } else { Handshake::local(zc_b) };
        let n1 = Handshake::negotiate(&a, &b);
        let n2 = Handshake::negotiate(&b, &a);
        prop_assert_eq!(n1.homogeneous, n2.homogeneous);
        prop_assert_eq!(n1.zero_copy, n2.zero_copy);
    }

    /// A valid framed GIOP stream with random byte flips and/or a
    /// truncation never panics header decoding or reassembly — every
    /// corruption lands as `Err`, never as a crash or a huge allocation.
    #[test]
    fn prop_mutated_stream_never_panics_decode(
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        max_body in 32usize..512,
        order in orders(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255u8), 0..8),
        cut in any::<usize>(),
        do_truncate: bool,
    ) {
        let mut frames = zc_giop::msg::fragment_frames(
            GiopVersion::V1_2, order, MessageType::Request, &body, max_body);
        // Flip bytes anywhere in the concatenated stream (headers and
        // bodies alike — size fields, flags, magic, everything).
        let total: usize = frames.iter().map(Vec::len).sum();
        for &(idx, xor) in &flips {
            if total == 0 {
                break;
            }
            let mut pos = idx % total;
            for f in frames.iter_mut() {
                if pos < f.len() {
                    f[pos] ^= xor;
                    break;
                }
                pos -= f.len();
            }
        }
        if do_truncate && !frames.is_empty() {
            let fi = cut % frames.len();
            let keep = cut % frames[fi].len().max(1);
            frames[fi].truncate(keep);
        }
        for f in &frames {
            if f.len() >= GIOP_HEADER_LEN {
                let arr: [u8; GIOP_HEADER_LEN] =
                    f[..GIOP_HEADER_LEN].try_into().unwrap();
                let _ = GiopHeader::decode(&arr);
            }
        }
        let _ = zc_giop::msg::reassemble(&frames);
    }
}

// ---------------------------------------------------------------------------
// Adversarial replay of the wire-taint pass's flagged sites: lying
// `msg_size` fields, hostile fragment trains, and hostile count fields in
// service contexts must land as errors — never panics — and must never
// allocate past MAX_GIOP_MESSAGE. The per-thread counting allocator
// (`zc-test-alloc`) measures the peak live-byte delta across each hostile
// decode.
// ---------------------------------------------------------------------------

use zc_giop::{DepositManifest as Manifest, ServiceContext, MAX_GIOP_MESSAGE, SVC_CTX_DEPOSIT};
use zc_test_alloc::measure_peak as measured_peak;

#[global_allocator]
static COUNTING: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;

fn u32_wire(v: u32, order: ByteOrder) -> [u8; 4] {
    match order {
        ByteOrder::Big => v.to_be_bytes(),
        ByteOrder::Little => v.to_le_bytes(),
    }
}

proptest! {
    /// A frame whose header announces far more body than the frame carries
    /// must be rejected by reassembly without panicking — and without the
    /// announced size ever reaching an allocator. This replays the
    /// `reassemble` sites the taint pass flagged: the body pre-reservation
    /// and the per-fragment length accounting.
    #[test]
    fn prop_hostile_msg_size_errors_bounded(
        body in proptest::collection::vec(any::<u8>(), 1..2048),
        max_body in 32usize..256,
        order in orders(),
        hostile in 4096u32..u32::MAX,
        victim in any::<usize>(),
    ) {
        let mut frames = zc_giop::msg::fragment_frames(
            GiopVersion::V1_2, order, MessageType::Request, &body, max_body);
        // Overwrite one frame's msg_size field (bytes 8..12 of the fixed
        // header) with a lie much larger than any actual fragment body.
        let fi = victim % frames.len();
        frames[fi][8..12].copy_from_slice(&u32_wire(hostile, order));
        let (res, peak) = measured_peak(|| zc_giop::msg::reassemble(&frames));
        prop_assert!(
            res.is_err(),
            "frame {} announcing {} bytes must be rejected", fi, hostile
        );
        prop_assert!(
            peak <= MAX_GIOP_MESSAGE as usize,
            "hostile msg_size drove a {peak} byte peak"
        );
    }

    /// Multi-profile (object group) IORs with tagged components survive a
    /// marshal/demarshal round trip and the `IOR:<hex>` string form.
    #[test]
    fn prop_group_ior_roundtrip_with_components(
        type_id in "[ -~]{0,40}",
        replicas in proptest::collection::vec(
            ("[a-z0-9.]{1,20}", any::<u16>(), proptest::collection::vec(any::<u8>(), 0..16)),
            1..6,
        ),
        comps in proptest::collection::vec(
            (1u32..1000, proptest::collection::vec(any::<u8>(), 0..16)),
            0..4,
        ),
    ) {
        let members: Vec<(&str, u16, &[u8])> = replicas
            .iter()
            .map(|(h, p, k)| (h.as_str(), *p, k.as_slice()))
            .collect();
        let mut ior = Ior::new_group(&type_id, &members);
        // Components ride on the first profile; relay must be lossless.
        if let Some(TaggedProfile::Iiop(p)) = ior.profiles.first_mut() {
            p.components = comps
                .iter()
                .map(|(tag, data)| zc_giop::TaggedComponent { tag: *tag, data: data.clone() })
                .collect();
        }
        let s = ior.to_ior_string();
        let back = Ior::from_ior_string(&s).unwrap();
        prop_assert_eq!(&back, &ior);
        prop_assert_eq!(back.iiop_profiles().count(), replicas.len());
        prop_assert_eq!(back.to_ior_string(), s);
    }

    /// A valid multi-profile group IOR with random byte flips and/or a
    /// truncation never panics the IOR decoder — the profile count, the
    /// per-profile encapsulation lengths, and the component counts are all
    /// attacker-reachable, and every corruption must land as `Err`.
    #[test]
    fn prop_mutated_multi_profile_ior_never_panics(
        replicas in proptest::collection::vec(
            ("[a-z0-9.]{1,20}", any::<u16>(), proptest::collection::vec(any::<u8>(), 0..16)),
            1..6,
        ),
        comp_data in proptest::collection::vec(any::<u8>(), 0..16),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255u8), 0..8),
        cut in any::<usize>(),
        do_truncate: bool,
    ) {
        let members: Vec<(&str, u16, &[u8])> = replicas
            .iter()
            .map(|(h, p, k)| (h.as_str(), *p, k.as_slice()))
            .collect();
        let mut ior = Ior::new_group("IDL:zcorba/Group:1.0", &members);
        if let Some(TaggedProfile::Iiop(p)) = ior.profiles.first_mut() {
            p.components = vec![zc_giop::TaggedComponent { tag: 77, data: comp_data }];
        }
        let mut enc = CdrEncoder::native();
        enc.write_octet(enc.order().flag() as u8);
        ior.marshal(&mut enc).unwrap();
        let mut bytes = enc.finish_stream();
        for &(idx, xor) in &flips {
            let pos = idx % bytes.len();
            bytes[pos] ^= xor;
        }
        if do_truncate {
            bytes.truncate(cut % bytes.len());
        }
        if !bytes.is_empty() {
            let order = ByteOrder::from_flag(bytes[0] & 1 == 1);
            let mut dec = CdrDecoder::new(&bytes, order);
            if dec.read_octet().is_ok() {
                let _ = Ior::demarshal(&mut dec);
            }
        }
        // The hex string path wraps the same decoder and must not panic
        // either.
        let mut s = String::with_capacity(4 + bytes.len() * 2);
        s.push_str("IOR:");
        for b in &bytes {
            s.push_str(&format!("{b:02x}"));
        }
        let _ = Ior::from_ior_string(&s);
    }

    /// Hostile profile and component counts in an IOR — millions announced
    /// over a handful of bytes — must error with bounded allocation. These
    /// replay the `demarshal_ior` and `demarshal_body` sizing sites, which
    /// clamp through `bounded_capacity`.
    #[test]
    fn prop_hostile_ior_counts_error_bounded(
        announced in 64u32..u32::MAX,
        tail in proptest::collection::vec(any::<u8>(), 0..32),
        order in orders(),
    ) {
        // Profile count with almost no bytes behind it: type_id (empty
        // string = 4-byte length + NUL), then the lying count.
        let mut enc = CdrEncoder::new(order);
        enc.write_string("");
        enc.write_u32(announced);
        let mut ior_bytes = enc.finish_stream();
        ior_bytes.extend_from_slice(&tail);

        let (res, peak) = measured_peak(|| {
            Ior::demarshal(&mut CdrDecoder::new(&ior_bytes, order))
        });
        prop_assert!(res.is_err(), "a lying profile count of {announced} must error");
        prop_assert!(
            peak <= MAX_GIOP_MESSAGE as usize,
            "hostile profile count drove a {peak} byte peak"
        );
    }

    /// Hostile count fields in the service-context layer: a context list
    /// announcing millions of entries over a few bytes, and a deposit
    /// manifest announcing millions of block lengths, must both error with
    /// bounded allocation. These replay the `demarshal_list` and
    /// `DepositManifest::from_context` sizing sites.
    #[test]
    fn prop_hostile_context_counts_error_bounded(
        announced in 8u32..u32::MAX,
        tail in proptest::collection::vec(any::<u8>(), 0..32),
        order in orders(),
    ) {
        // Context list: each entry needs at least 8 bytes (id + length),
        // so `announced` entries over <32 bytes cannot decode.
        let mut list_bytes = u32_wire(announced, order).to_vec();
        list_bytes.extend_from_slice(&tail);

        // Deposit manifest: flag octet, block count, then u64 lengths —
        // the announced count has no bytes behind it.
        let mut data = vec![order.flag() as u8, 0, 0, 0];
        data.extend_from_slice(&u32_wire(announced, order));
        data.extend_from_slice(&tail);
        let ctx = ServiceContext { id: SVC_CTX_DEPOSIT, data };

        let (all_err, peak) = measured_peak(|| {
            ServiceContext::demarshal_list(&mut CdrDecoder::new(&list_bytes, order)).is_err()
                && Manifest::from_context(&ctx).is_err()
        });
        prop_assert!(all_err, "a lying count of {} must error", announced);
        prop_assert!(
            peak <= MAX_GIOP_MESSAGE as usize,
            "hostile count drove a {peak} byte peak"
        );
    }
}

#[test]
fn iiop_profile_struct_is_public() {
    // compile-time check that the profile type is usable downstream
    let p = IiopProfile {
        version: GiopVersion::V1_0,
        host: "h".into(),
        port: 1,
        object_key: vec![],
        components: vec![],
    };
    assert_eq!(p.port, 1);
    assert_eq!(p.endpoint(), ("h".to_string(), 1));
}

// ---------------------------------------------------------------------------
// Headers written in place and read in place: for arbitrary headers and
// service-context lists the views read back exactly what was written, in
// both byte orders, and reading — a sound header, any truncation of one, or
// one with a hostile count — never reaches the allocator.
// ---------------------------------------------------------------------------

use zc_giop::{
    write_reply_header, write_request_header, ContextWriter, ReplyView, RequestView, TraceContext,
    ZcHealthContext, MAX_MANIFEST_BLOCKS, MAX_SERVICE_CONTEXTS,
};
use zc_test_alloc::allocations;

/// One entry of a generated service-context list.
#[derive(Debug, Clone)]
enum Ctx {
    Manifest(Vec<u64>),
    Trace(TraceContext),
    Health(ZcHealthContext),
    Foreign(u32, Vec<u8>),
}

impl Ctx {
    fn write(&self, w: &mut ContextWriter<'_>) {
        match self {
            Ctx::Manifest(lengths) => w.manifest(lengths.iter().copied()),
            Ctx::Trace(t) => w.trace(t),
            Ctx::Health(h) => w.health(h),
            Ctx::Foreign(id, data) => w.raw(*id, data),
        }
    }

    fn owned(&self) -> ServiceContext {
        match self {
            Ctx::Manifest(lengths) => Manifest {
                block_lengths: lengths.clone(),
            }
            .to_context(),
            Ctx::Trace(t) => t.to_context(),
            Ctx::Health(h) => h.to_context(),
            Ctx::Foreign(id, data) => ServiceContext {
                id: *id,
                data: data.clone(),
            },
        }
    }
}

fn ctx() -> impl Strategy<Value = Ctx> {
    prop_oneof![
        proptest::collection::vec(any::<u64>(), 0..20).prop_map(Ctx::Manifest),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u8>()
        )
            .prop_map(
                |(trace_id, sent_at_ns, journey_id, attempt, cause)| Ctx::Trace(TraceContext {
                    trace_id,
                    sent_at_ns,
                    journey_id,
                    attempt,
                    cause,
                })
            ),
        (any::<u64>(), any::<u64>()).prop_map(|(spec_hits, spec_misses)| Ctx::Health(
            ZcHealthContext {
                spec_hits,
                spec_misses
            }
        )),
        // Ids below the "ZC" vendor space: contexts this ORB does not know.
        (
            0u32..0x5A43_0000,
            proptest::collection::vec(any::<u8>(), 0..40)
        )
            .prop_map(|(id, data)| Ctx::Foreign(id, data)),
    ]
}

/// `f`'s result, and how many times this thread allocated while it ran.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let r = f();
    (r, allocations() - before)
}

/// What the one-pass scan must have kept of `list`: the first manifest and
/// the first trace context. A health entry is skipped like a foreign one.
fn check_kept(kept: &zc_giop::ZcContexts<'_>, list: &[Ctx]) -> Result<(), TestCaseError> {
    let manifest = list.iter().find_map(|c| match c {
        Ctx::Manifest(l) => Some(l.clone()),
        _ => None,
    });
    let trace = list.iter().find_map(|c| match c {
        Ctx::Trace(t) => Some(*t),
        _ => None,
    });
    prop_assert_eq!(
        kept.manifest.map(|m| m.block_lengths().collect::<Vec<_>>()),
        manifest.clone()
    );
    prop_assert_eq!(
        kept.manifest.map(|m| m.total_bytes()),
        manifest.map(|l| l.iter().fold(0, |a: u64, &b| a.saturating_add(b)))
    );
    prop_assert_eq!(kept.trace, trace);
    Ok(())
}

proptest! {
    #[test]
    fn prop_request_view_reads_back_what_was_written(
        id: u32,
        expected: bool,
        key in proptest::collection::vec(any::<u8>(), 0..64),
        op in "[a-zA-Z_][a-zA-Z0-9_]{0,30}",
        list in proptest::collection::vec(ctx(), 0..8),
        order in orders(),
    ) {
        let mut enc = CdrEncoder::new(order);
        write_request_header(&mut enc, id, expected, &key, &op, |w| list.iter().for_each(|c| c.write(w)));
        enc.write_u32(0xFEED_F00D); // the first parameter follows the header
        let bytes = enc.finish_stream();

        let mut dec = CdrDecoder::new(&bytes, order);
        let (view, allocated) = counting(|| RequestView::parse(&mut dec));
        let view = view.unwrap();
        prop_assert_eq!(allocated, 0, "reading a header in place allocated");
        prop_assert_eq!(dec.read_u32().unwrap(), 0xFEED_F00D);
        prop_assert_eq!((view.request_id, view.response_expected), (id, expected));
        prop_assert_eq!((view.object_key, view.operation), (&key[..], &op[..]));
        check_kept(&view.contexts, &list)?;
        // The owned form lists every context, unknown ones included, and
        // goes back onto the wire as the same bytes.
        let owned = view.to_owned();
        prop_assert_eq!(&owned.service_contexts, &list.iter().map(Ctx::owned).collect::<Vec<_>>());
        let mut again = CdrEncoder::new(order);
        owned.marshal(&mut again).unwrap();
        prop_assert_eq!(again.as_slice(), &bytes[..bytes.len() - 4]);

        // Every truncation of the header is an error, found without
        // allocating.
        for cut in 0..bytes.len() - 4 {
            let (res, allocated) =
                counting(|| RequestView::parse(&mut CdrDecoder::new(&bytes[..cut], order)).is_err());
            prop_assert!(res, "a header cut at {} of {} parsed", cut, bytes.len() - 4);
            prop_assert_eq!(allocated, 0, "refusing a header cut at {} allocated", cut);
        }
    }

    #[test]
    fn prop_reply_view_reads_back_what_was_written(
        id: u32,
        status in 0u8..4,
        list in proptest::collection::vec(ctx(), 0..8),
        order in orders(),
    ) {
        let status = ReplyStatus::from_u8(status).unwrap();
        let mut enc = CdrEncoder::new(order);
        write_reply_header(&mut enc, id, status, |w| list.iter().for_each(|c| c.write(w)));
        let bytes = enc.finish_stream();

        let mut dec = CdrDecoder::new(&bytes, order);
        let (view, allocated) = counting(|| ReplyView::parse(&mut dec));
        let view = view.unwrap();
        prop_assert_eq!(allocated, 0, "reading a header in place allocated");
        prop_assert_eq!(dec.remaining(), 0);
        prop_assert_eq!((view.request_id, view.status), (id, status));
        check_kept(&view.contexts, &list)?;
        let owned = view.to_owned();
        prop_assert_eq!(&owned.service_contexts, &list.iter().map(Ctx::owned).collect::<Vec<_>>());
        let mut again = CdrEncoder::new(order);
        owned.marshal(&mut again).unwrap();
        prop_assert_eq!(again.as_slice(), &bytes[..]);

        for cut in 0..bytes.len() {
            let (res, allocated) =
                counting(|| ReplyView::parse(&mut CdrDecoder::new(&bytes[..cut], order)).is_err());
            prop_assert!(res, "a header cut at {} of {} parsed", cut, bytes.len());
            prop_assert_eq!(allocated, 0, "refusing a header cut at {} allocated", cut);
        }
    }

    /// Oversized counts are refused before anything is sized by them: more
    /// than 64 contexts, more than 1024 manifest blocks, and a block count
    /// whose eight bytes apiece the context does not hold.
    #[test]
    fn prop_oversized_counts_are_errors_without_allocating(
        contexts in MAX_SERVICE_CONTEXTS + 1..u32::MAX,
        blocks in 1u32..u32::MAX,
        held in 0usize..64,
        order in orders(),
    ) {
        let mut list = u32_wire(contexts, order).to_vec();
        // Enough bytes behind the count that only the cap can refuse it.
        list.resize(4 + (MAX_SERVICE_CONTEXTS as usize + 2) * 8, 0);
        let (res, allocated) =
            counting(|| RequestView::parse(&mut CdrDecoder::new(&list, order)).is_err());
        prop_assert!(res, "{} contexts accepted", contexts);
        prop_assert_eq!(allocated, 0);

        // A manifest announcing `blocks` lengths but holding `held`: sound
        // only when it holds exactly what it announces, under the cap.
        let mut data = vec![order.flag() as u8, 0, 0, 0];
        data.extend_from_slice(&u32_wire(blocks, order));
        data.resize(8 + held * 8, 0xAB);
        let mut enc = CdrEncoder::new(order);
        ReplyHeader {
            service_contexts: vec![ServiceContext { id: SVC_CTX_DEPOSIT, data }],
            request_id: 1,
            status: ReplyStatus::NoException,
        }
        .marshal(&mut enc)
        .unwrap();
        let bytes = enc.finish_stream();
        let (parsed, allocated) =
            counting(|| ReplyView::parse(&mut CdrDecoder::new(&bytes, order)).map(|v| v.contexts.manifest));
        prop_assert_eq!(allocated, 0);
        if blocks <= MAX_MANIFEST_BLOCKS && blocks as usize <= held {
            prop_assert_eq!(parsed.unwrap().unwrap().block_count(), blocks as usize);
        } else {
            prop_assert!(parsed.is_err(), "{} blocks over {} held accepted", blocks, held);
        }
    }
}
