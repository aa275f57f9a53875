//! GIOP service contexts, including the zcorba deposit manifest.
//!
//! There is one emitter and one parser. A message's contexts are *written
//! in place* — [`write_context_list`] hands out a [`ContextWriter`] that
//! puts each one, encapsulation and all, straight into the header's
//! encoder — and *read in place*: [`ZcContexts::parse`] walks the list
//! once, bounded, keeps the two zcorba contexts it acts on as `Copy` values (the
//! manifest as a window of the message) and skips everything else. Neither
//! direction allocates. The owned forms ([`ServiceContext`],
//! [`DepositManifest`]) are what tests and tools build and compare; they
//! come out of the same two routines.

use zc_cdr::wire::zc_vendor_id;
use zc_cdr::{endian, ByteOrder, CdrDecoder, CdrEncoder, CdrError, CdrResult};

/// Service-context id for the zcorba deposit manifest. Built from the
/// shared `ZC_TAG` ("ZC") so we stay inside the OMG "vendor" id space.
pub const SVC_CTX_DEPOSIT: u32 = zc_vendor_id(1);

/// Service-context id for negotiation echoes (diagnostics; the binding
/// negotiation itself happens in the connection handshake).
pub const SVC_CTX_NEGOTIATE: u32 = zc_vendor_id(2);

/// Service-context id for the zcorba trace context: propagates a request's
/// trace id so client and server flight-recorder spans can be correlated.
pub const SVC_CTX_TRACE: u32 = zc_vendor_id(3);

/// Service-context id for the legacy zcorba zero-copy health report (an
/// endpoint's cumulative receive-side speculation counters). The ORB no
/// longer sends this context; receivers skip it like any unknown one.
pub const SVC_CTX_ZC_HEALTH: u32 = zc_vendor_id(4);

/// Most service contexts one message may carry. zcorba sends at most two
/// and real ORBs a handful; a larger count is a hostile field.
pub const MAX_SERVICE_CONTEXTS: u32 = 64;

/// Most deposit blocks one manifest may announce.
pub const MAX_MANIFEST_BLOCKS: u32 = 1024;

/// A single GIOP service context in owned form: an id plus opaque
/// encapsulated data.
///
/// Standard CORBA receivers skip contexts they do not understand, which is
/// what keeps the deposit manifest interoperable: a non-ZC peer would never
/// see one (negotiation precedes use), and even if it did the request body
/// remains self-contained.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceContext {
    /// Context identifier.
    pub id: u32,
    /// Raw context data (conventionally a CDR encapsulation).
    pub data: Vec<u8>,
}

impl ServiceContext {
    /// Marshal a service-context list (ulong count, then id + octet-seq
    /// data per entry).
    pub fn marshal_list(list: &[ServiceContext], enc: &mut CdrEncoder) -> CdrResult<()> {
        write_context_list(enc, |w| list.iter().for_each(|c| w.raw(c.id, &c.data)));
        Ok(())
    }

    /// Demarshal a service-context list.
    pub fn demarshal_list(dec: &mut CdrDecoder<'_>) -> CdrResult<Vec<ServiceContext>> {
        Ok(ZcContexts::parse(dec)?.to_owned_list())
    }

    /// Find a context by id.
    pub fn find(list: &[ServiceContext], id: u32) -> Option<&ServiceContext> {
        list.iter().find(|c| c.id == id)
    }

    /// The owned form of the one context `write` emits.
    fn written(write: impl FnOnce(&mut ContextWriter<'_>)) -> ServiceContext {
        // Room for the largest fixed-size context; a manifest may grow it.
        let mut enc = CdrEncoder::native().with_buffer(Vec::with_capacity(64));
        write_context_list(&mut enc, write);
        let mut bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::native());
        let (id, data_len) = dec
            .read_u32()
            .and_then(|_count| next_context(&mut dec))
            .map(|(id, data)| (id, data.len()))
            .expect("a context just written reads back");
        // The data is the tail of the one-entry list: keep it, in place.
        bytes.drain(..bytes.len() - data_len);
        ServiceContext { id, data: bytes }
    }
}

/// Write a service-context list straight into `enc`: the count, then
/// whatever `contexts` puts through the [`ContextWriter`].
pub fn write_context_list(enc: &mut CdrEncoder, contexts: impl FnOnce(&mut ContextWriter<'_>)) {
    enc.write_u32(0); // the count, once the contexts are written
    let count_at = enc.len() - 4;
    let mut writer = ContextWriter {
        enc: &mut *enc,
        count: 0,
    };
    contexts(&mut writer);
    let count = writer.count;
    enc.patch_u32(count_at, count);
}

/// Emits the entries of one service-context list in place (see
/// [`write_context_list`]). The zcorba contexts are CDR encapsulations in
/// native byte order — each announces its order in its first octet — laid
/// out directly in the message: no intermediate buffer exists.
pub struct ContextWriter<'e> {
    enc: &'e mut CdrEncoder,
    count: u32,
}

impl ContextWriter<'_> {
    /// Open the next entry: count it, write its id, hand out the encoder
    /// for its data.
    fn begin(&mut self, id: u32) -> &mut CdrEncoder {
        self.count += 1;
        self.enc.write_u32(id);
        self.enc
    }

    fn entry(&mut self, id: u32, data: impl FnOnce(&mut CdrEncoder)) {
        self.begin(id)
            .write_encapsulation_in(ByteOrder::native(), data);
    }

    /// A context given as its id and already-encoded data.
    pub fn raw(&mut self, id: u32, data: &[u8]) {
        let enc = self.begin(id);
        enc.write_u32(data.len() as u32);
        enc.write_raw(data);
    }

    /// The deposit manifest of blocks with these `lengths`, in
    /// descriptor-index order.
    pub fn manifest(&mut self, lengths: impl ExactSizeIterator<Item = u64>) {
        self.entry(SVC_CTX_DEPOSIT, |e| {
            e.write_u32(lengths.len() as u32);
            lengths.for_each(|len| e.write_u64(len));
        });
    }

    /// A trace context.
    pub fn trace(&mut self, t: &TraceContext) {
        self.entry(SVC_CTX_TRACE, |e| {
            e.write_u64(t.trace_id);
            e.write_u64(t.sent_at_ns);
            e.write_u64(t.journey_id);
            // Attempt ordinal and cause share one trailing word.
            e.write_u64(((t.attempt as u64) << 8) | t.cause as u64);
        });
    }

    /// A legacy zero-copy health report (the ORB no longer sends one).
    pub fn health(&mut self, h: &ZcHealthContext) {
        self.entry(SVC_CTX_ZC_HEALTH, |e| {
            e.write_u64(h.spec_hits);
            e.write_u64(h.spec_misses);
        });
    }
}

/// The next `(id, data)` entry of a service-context list, its data a
/// window of the message.
fn next_context<'a>(dec: &mut CdrDecoder<'a>) -> CdrResult<(u32, &'a [u8])> {
    Ok((dec.read_u32()?, dec.read_octet_seq_borrowed()?))
}

/// Open a context's data as the encapsulation it is: a decoder in the
/// order its flag octet announces, positioned past the flag.
fn encapsulated(data: &[u8]) -> CdrResult<CdrDecoder<'_>> {
    let flag = *data
        .first()
        .ok_or(CdrError::OutOfBounds { need: 1, have: 0 })?;
    let mut dec = CdrDecoder::new(data, ByteOrder::from_flag(flag & 1 == 1));
    dec.read_octet()?;
    Ok(dec)
}

/// The service contexts of one message, read in place.
///
/// One bounded pass over the list ([`ZcContexts::parse`]) pulls out the
/// two contexts zcorba acts on; any other context is stepped over and
/// never stored, per the standard rule that receivers skip what they do not
/// understand. Where an id repeats, the first well-formed entry counts.
#[derive(Debug, Clone, Copy)]
pub struct ZcContexts<'a> {
    /// The deposit manifest, if the message announces out-of-band blocks.
    pub manifest: Option<ManifestView<'a>>,
    /// The trace context. A malformed one reads as absent: tracing is
    /// advisory and must never fail a message.
    pub trace: Option<TraceContext>,
    /// The message up to the end of the list, where in it the list's
    /// `count` entries start, and its byte order: what
    /// [`ZcContexts::iter`] walks again.
    head: &'a [u8],
    entries_at: usize,
    count: u32,
    order: ByteOrder,
}

impl<'a> ZcContexts<'a> {
    /// Read the service-context list at `dec`'s cursor. Errors — without
    /// allocating — on a truncated list, on more than
    /// [`MAX_SERVICE_CONTEXTS`] entries, and on a malformed deposit
    /// manifest (the one context whose content the message depends on).
    pub fn parse(dec: &mut CdrDecoder<'a>) -> CdrResult<ZcContexts<'a>> {
        let count = dec.read_u32()?;
        if count > MAX_SERVICE_CONTEXTS {
            return Err(CdrError::LengthOverflow(count as u64));
        }
        let entries_at = dec.position();
        let (mut manifest, mut trace) = (None, None);
        for _ in 0..count {
            let (id, data) = next_context(dec)?;
            match id {
                SVC_CTX_DEPOSIT if manifest.is_none() => {
                    manifest = Some(ManifestView::parse(data)?)
                }
                SVC_CTX_TRACE if trace.is_none() => trace = TraceContext::parse(data).ok(),
                _ => {}
            }
        }
        Ok(ZcContexts {
            manifest,
            trace,
            head: dec.consumed(),
            entries_at,
            count,
            order: dec.order(),
        })
    }

    /// Every entry of the list as `(id, data)`, unknown ones included.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &'a [u8])> {
        let mut dec = CdrDecoder::new(self.head, self.order);
        let count = dec.skip(self.entries_at).map_or(0, |()| self.count);
        (0..count).map_while(move |_| next_context(&mut dec).ok())
    }

    /// The whole list in owned form.
    pub fn to_owned_list(&self) -> Vec<ServiceContext> {
        let mut list = Vec::with_capacity(self.count as usize);
        list.extend(self.iter().map(|(id, data)| ServiceContext {
            id,
            data: data.to_vec(),
        }));
        list
    }
}

/// The deposit manifest: the control-path announcement of out-of-band data.
///
/// Carried as a service context on any Request or Reply whose body contains
/// deposit descriptors. It lists the byte length of every block, in
/// descriptor-index order, so the receiver's deposit callback can allocate
/// appropriately sized page-aligned buffers *before* the blocks arrive on
/// the data channel — the role played in the paper by the "GIOPRequest
/// header [that] contains the size of the data block that is needed by the
/// receiver to correctly receive the GIOPRequest message" (§4.4).
///
/// This is the owned form; a received manifest is a [`ManifestView`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DepositManifest {
    /// Byte length of each deposited block, in index order.
    pub block_lengths: Vec<u64>,
}

impl DepositManifest {
    /// Total payload bytes announced.
    pub fn total_bytes(&self) -> u64 {
        self.block_lengths.iter().sum()
    }

    /// Number of blocks announced.
    pub fn block_count(&self) -> usize {
        self.block_lengths.len()
    }

    /// Encode into a service context.
    pub fn to_context(&self) -> ServiceContext {
        ServiceContext::written(|w| w.manifest(self.block_lengths.iter().copied()))
    }

    /// Decode from a service context previously produced by
    /// [`DepositManifest::to_context`]. Returns `None` if the id differs.
    pub fn from_context(ctx: &ServiceContext) -> CdrResult<Option<DepositManifest>> {
        if ctx.id != SVC_CTX_DEPOSIT {
            return Ok(None);
        }
        let block_lengths = ManifestView::parse(&ctx.data)?.block_lengths().collect();
        Ok(Some(DepositManifest { block_lengths }))
    }

    /// Scan a context list for a manifest.
    pub fn find_in(list: &[ServiceContext]) -> CdrResult<Option<DepositManifest>> {
        ServiceContext::find(list, SVC_CTX_DEPOSIT).map_or(Ok(None), Self::from_context)
    }
}

/// A deposit manifest read in place: the block lengths stay where they
/// arrived, in the message's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestView<'a> {
    /// The lengths, eight bytes each in `order`.
    lengths: &'a [u8],
    order: ByteOrder,
}

impl<'a> ManifestView<'a> {
    /// Read a manifest context's data. A count above
    /// [`MAX_MANIFEST_BLOCKS`], or one the remaining bytes cannot hold, is
    /// an error.
    pub fn parse(data: &'a [u8]) -> CdrResult<ManifestView<'a>> {
        let mut dec = encapsulated(data)?;
        let count = dec.read_u32()?;
        if count > MAX_MANIFEST_BLOCKS {
            return Err(CdrError::LengthOverflow(count as u64));
        }
        dec.align(8)?;
        Ok(ManifestView {
            lengths: dec.read_raw(count as usize * 8)?,
            order: dec.order(),
        })
    }

    /// Number of blocks announced.
    pub fn block_count(&self) -> usize {
        self.lengths.len() / 8
    }

    /// Byte length of each announced block, in index order.
    pub fn block_lengths(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        let order = self.order;
        self.lengths
            .chunks_exact(8)
            .map(move |len| endian::read_u64(order, len))
    }

    /// Total payload bytes announced (saturating: the lengths are wire
    /// data).
    pub fn total_bytes(&self) -> u64 {
        self.block_lengths().fold(0, u64::saturating_add)
    }
}

/// The trace context: a 64-bit trace id stamped on a Request by the caller
/// and echoed into every event the receiver records while serving it, plus
/// the sender's send timestamp for wire-stage attribution. Like the deposit
/// manifest it travels as a CDR encapsulation (byte-order flag octet, then
/// the fields), so either endianness interoperates. A peer that does not
/// understand it skips it, per standard service-context rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// The caller-allocated trace id (`0` conventionally means untraced).
    pub trace_id: u64,
    /// The sender's trace-clock timestamp when the message was assembled
    /// (`zc_trace::now_ns`); `0` means unstamped. The receiver derives the
    /// wire stage (`arrival − sent_at_ns`), which is only meaningful when
    /// both endpoints share the trace clock — always true for the
    /// in-process Sim and loopback-TCP experiments this repo runs.
    pub sent_at_ns: u64,
    /// The caller's journey id: one per *logical* request, shared by every
    /// attempt (retry/failover/…) of it. `0` means "no journey" (a reply
    /// echo, a foreign peer, or the pre-journey wire format).
    pub journey_id: u64,
    /// 1-based attempt ordinal within the journey (`0` when unknown).
    pub attempt: u32,
    /// Cause tag of this attempt (`zc_trace::JourneyCause` discriminant:
    /// initial/retry/failover/shed-rotate). Carried as a raw
    /// byte so a decoder never rejects a cause minted by a newer peer.
    pub cause: u8,
}

impl TraceContext {
    /// Encode into a service context.
    pub fn to_context(&self) -> ServiceContext {
        ServiceContext::written(|w| w.trace(self))
    }

    /// Read a trace context's data. Data truncated before the trace id is
    /// an error; every field after it reads leniently, so the pre-span
    /// format (trace id only) and the pre-journey format (trace id +
    /// timestamp) both still parse, with the missing fields reading as 0.
    pub fn parse(data: &[u8]) -> CdrResult<TraceContext> {
        let mut dec = encapsulated(data)?;
        let trace_id = dec.read_u64()?;
        let sent_at_ns = dec.read_u64().unwrap_or_default();
        let journey_id = dec.read_u64().unwrap_or_default();
        let attempt_cause = dec.read_u64().unwrap_or_default();
        Ok(TraceContext {
            trace_id,
            sent_at_ns,
            journey_id,
            attempt: (attempt_cause >> 8) as u32,
            cause: attempt_cause as u8,
        })
    }

    /// Decode from a service context previously produced by
    /// [`TraceContext::to_context`]. Returns `None` if the id differs.
    pub fn from_context(ctx: &ServiceContext) -> CdrResult<Option<TraceContext>> {
        (ctx.id == SVC_CTX_TRACE)
            .then(|| TraceContext::parse(&ctx.data))
            .transpose()
    }

    /// Scan a context list for a trace context.
    pub fn find_in(list: &[ServiceContext]) -> CdrResult<Option<TraceContext>> {
        ServiceContext::find(list, SVC_CTX_TRACE).map_or(Ok(None), Self::from_context)
    }
}

/// The legacy zero-copy health context: one endpoint's cumulative
/// receive-side speculation counters. The ORB no longer sends it, and
/// [`ZcContexts::parse`] skips it like any unknown context; the owned form
/// stays for peers and tools that still build one. Same encapsulation
/// convention as the other zcorba contexts (byte-order flag octet first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ZcHealthContext {
    /// Receive speculations that held, since connection start.
    pub spec_hits: u64,
    /// Receive speculations that missed (fallback copies ran).
    pub spec_misses: u64,
}

impl ZcHealthContext {
    /// Encode into a service context.
    pub fn to_context(&self) -> ServiceContext {
        ServiceContext::written(|w| w.health(self))
    }

    /// Read a health context's data.
    pub fn parse(data: &[u8]) -> CdrResult<ZcHealthContext> {
        let mut dec = encapsulated(data)?;
        Ok(ZcHealthContext {
            spec_hits: dec.read_u64()?,
            spec_misses: dec.read_u64()?,
        })
    }

    /// Decode from a service context previously produced by
    /// [`ZcHealthContext::to_context`]. Returns `None` if the id differs.
    pub fn from_context(ctx: &ServiceContext) -> CdrResult<Option<ZcHealthContext>> {
        (ctx.id == SVC_CTX_ZC_HEALTH)
            .then(|| ZcHealthContext::parse(&ctx.data))
            .transpose()
    }

    /// Scan a context list for a health report.
    pub fn find_in(list: &[ServiceContext]) -> CdrResult<Option<ZcHealthContext>> {
        ServiceContext::find(list, SVC_CTX_ZC_HEALTH).map_or(Ok(None), Self::from_context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_cdr::ByteOrder;

    #[test]
    fn context_list_roundtrip() {
        let list = vec![
            ServiceContext {
                id: 1,
                data: vec![1, 2, 3],
            },
            ServiceContext {
                id: SVC_CTX_NEGOTIATE,
                data: vec![],
            },
        ];
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        ServiceContext::marshal_list(&list, &mut enc).unwrap();
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        let back = ServiceContext::demarshal_list(&mut dec).unwrap();
        assert_eq!(back, list);
    }

    #[test]
    fn manifest_roundtrip() {
        let m = DepositManifest {
            block_lengths: vec![4096, 0, 1 << 24, 12345],
        };
        let ctx = m.to_context();
        assert_eq!(ctx.id, SVC_CTX_DEPOSIT);
        let back = DepositManifest::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_bytes(), 4096 + (1 << 24) + 12345);
        assert_eq!(back.block_count(), 4);
    }

    #[test]
    fn manifest_ignores_foreign_context() {
        let ctx = ServiceContext {
            id: 77,
            data: vec![1, 2, 3],
        };
        assert_eq!(DepositManifest::from_context(&ctx).unwrap(), None);
    }

    #[test]
    fn find_in_list() {
        let m = DepositManifest {
            block_lengths: vec![10],
        };
        let list = vec![
            ServiceContext {
                id: 5,
                data: vec![],
            },
            m.to_context(),
        ];
        assert_eq!(DepositManifest::find_in(&list).unwrap().unwrap(), m);
        assert_eq!(DepositManifest::find_in(&list[..1]).unwrap(), None);
    }

    #[test]
    fn empty_manifest_is_valid() {
        let m = DepositManifest::default();
        let back = DepositManifest::from_context(&m.to_context())
            .unwrap()
            .unwrap();
        assert_eq!(back.block_count(), 0);
        assert_eq!(back.total_bytes(), 0);
    }

    #[test]
    fn truncated_manifest_rejected() {
        let mut ctx = DepositManifest {
            block_lengths: vec![1, 2, 3],
        }
        .to_context();
        ctx.data.truncate(8);
        assert!(DepositManifest::from_context(&ctx).is_err());
    }

    #[test]
    fn trace_context_roundtrip() {
        let t = TraceContext {
            trace_id: 0xDEAD_BEEF_1234_5678,
            sent_at_ns: 987_654_321,
            journey_id: 0x0000_0ABC_DEF0_1234,
            attempt: 3,
            cause: 2, // failover
        };
        let ctx = t.to_context();
        assert_eq!(ctx.id, SVC_CTX_TRACE);
        let back = TraceContext::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn trace_context_without_timestamp_decodes_unstamped() {
        // The pre-span wire format ended after the trace id; it must still
        // decode, with sent_at_ns reading as 0 (unstamped) and no journey.
        let mut ctx = TraceContext {
            trace_id: 77,
            sent_at_ns: 999,
            journey_id: 5,
            attempt: 2,
            cause: 1,
        }
        .to_context();
        ctx.data.truncate(16); // flag + alignment pad + trace_id only
        let back = TraceContext::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back.trace_id, 77);
        assert_eq!(back.sent_at_ns, 0);
        assert_eq!(back.journey_id, 0);
        assert_eq!(back.attempt, 0);
        assert_eq!(back.cause, 0);
    }

    #[test]
    fn trace_context_without_journey_decodes_journeyless() {
        // The pre-journey wire format ended after the timestamp; the
        // journey fields must read as "no journey", not error.
        let mut ctx = TraceContext {
            trace_id: 77,
            sent_at_ns: 999,
            journey_id: 5,
            attempt: 2,
            cause: 1,
        }
        .to_context();
        ctx.data.truncate(24); // flag + pad + trace_id + sent_at_ns
        let back = TraceContext::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back.trace_id, 77);
        assert_eq!(back.sent_at_ns, 999);
        assert_eq!(back.journey_id, 0);
        assert_eq!(back.attempt, 0);
        assert_eq!(back.cause, 0);
    }

    #[test]
    fn trace_context_ignores_foreign_id() {
        let ctx = ServiceContext {
            id: SVC_CTX_DEPOSIT,
            data: vec![0, 1, 2],
        };
        assert_eq!(TraceContext::from_context(&ctx).unwrap(), None);
    }

    #[test]
    fn trace_context_find_in_mixed_list() {
        let t = TraceContext {
            trace_id: 42,
            ..Default::default()
        };
        let list = vec![
            DepositManifest {
                block_lengths: vec![8],
            }
            .to_context(),
            t.to_context(),
        ];
        assert_eq!(TraceContext::find_in(&list).unwrap().unwrap(), t);
        assert_eq!(TraceContext::find_in(&list[..1]).unwrap(), None);
        // Both contexts coexist on one request.
        assert!(DepositManifest::find_in(&list).unwrap().is_some());
    }

    #[test]
    fn truncated_trace_context_rejected() {
        let mut ctx = TraceContext {
            trace_id: 7,
            ..Default::default()
        }
        .to_context();
        ctx.data.truncate(4);
        assert!(TraceContext::from_context(&ctx).is_err());
    }

    #[test]
    fn zc_health_roundtrip() {
        let h = ZcHealthContext {
            spec_hits: 1_000_000,
            spec_misses: 37,
        };
        let ctx = h.to_context();
        assert_eq!(ctx.id, SVC_CTX_ZC_HEALTH);
        let back = ZcHealthContext::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn zc_health_ignores_foreign_id_and_rejects_truncation() {
        let foreign = ServiceContext {
            id: SVC_CTX_TRACE,
            data: vec![0, 1],
        };
        assert_eq!(ZcHealthContext::from_context(&foreign).unwrap(), None);
        let mut ctx = ZcHealthContext {
            spec_hits: 1,
            spec_misses: 2,
        }
        .to_context();
        ctx.data.truncate(9);
        assert!(ZcHealthContext::from_context(&ctx).is_err());
    }

    #[test]
    fn zc_health_find_in_mixed_list() {
        let h = ZcHealthContext {
            spec_hits: 5,
            spec_misses: 1,
        };
        let list = vec![
            TraceContext {
                trace_id: 9,
                ..Default::default()
            }
            .to_context(),
            h.to_context(),
        ];
        assert_eq!(ZcHealthContext::find_in(&list).unwrap().unwrap(), h);
        assert_eq!(ZcHealthContext::find_in(&list[..1]).unwrap(), None);
    }

    /// Cross-assert the wire values against spelled-out literals: the ids
    /// are derived from `zc_cdr::wire::ZC_TAG`, and this test pins them so
    /// a refactor of the derivation cannot silently renumber the protocol.
    #[test]
    fn service_context_ids_pinned_to_wire_values() {
        assert_eq!(SVC_CTX_DEPOSIT, 0x5A43_0001);
        assert_eq!(SVC_CTX_NEGOTIATE, 0x5A43_0002);
        assert_eq!(SVC_CTX_TRACE, 0x5A43_0003);
        assert_eq!(SVC_CTX_ZC_HEALTH, 0x5A43_0004);
        assert_eq!(SVC_CTX_DEPOSIT >> 16, u16::from_be_bytes(*b"ZC") as u32);
    }
}
