//! The GIOP connection: framing, negotiation, and the direct-deposit
//! sender/receiver of §4.4/§4.5.
//!
//! One [`GiopConn`] wraps one transport [`Connection`]. Immediately after
//! transport establishment both ends exchange a [`Handshake`]; the computed
//! [`Negotiated`] mode is fixed for the connection's lifetime:
//!
//! * **ZC mode** — `ZcOctetSeq` parameters marshal as 8-byte descriptors;
//!   their blocks are listed in a deposit-manifest service context on the
//!   Request/Reply (the control transfer) and shipped on the transport's
//!   data path (the data transfer). The receiver reads the manifest first,
//!   then pulls each announced block — on a zero-copy transport the block
//!   lands without a single payload copy. A block whose speculative
//!   placement misses costs the transport's one fallback copy
//!   (`DepositFallback`); the connection stays in ZC mode.
//! * **plain mode** — everything marshals inline; the wire is ordinary
//!   IIOP, interoperable with any CORBA peer.
//!
//! The two ablation switches reproduce the paper's design arguments:
//! `deposit_enabled = false` keeps the marshal *bypass* (no type
//! conversion) but copies payload inline — "moving copies between layers";
//! `separate_data = false` keeps descriptors but embeds the blocks in the
//! control message — coupling synchronization and data again, which
//! re-introduces buffering copies at both ends.
//!
//! The connection itself copies no payload. A message goes out as a gather
//! list (GIOP header, request/reply header, marshaled arguments) that the
//! stack's send copy puts together, and comes in as a view of the pooled
//! buffer the stack's receive copy landed it in: stripping the GIOP header
//! is a slice, and the decoders read that view. The one copy made here —
//! putting a fragmented message back together — is metered.
//!
//! Nor does it allocate in steady state. A request or reply header is
//! written, service contexts and all, straight into an encoder that borrows
//! the connection's spare header buffer, and read in place as a
//! [`RequestView`]/[`ReplyView`] of the received body: the key, the
//! operation name and the manifest's block lengths stay where they arrived.
//! Deposits leave in the spare list and arrive in a [`DepositList`], whose
//! first block is inline: a one-block message calls no allocator.

use zc_buffers::ZcBytes;
use zc_cdr::{ByteOrder, CdrDecoder, CdrEncoder, DepositList};
use zc_giop::{
    fragment_plan, write_reply_header, write_request_header, GiopError, GiopHeader, GiopVersion,
    Handshake, ManifestView, MessageType, Negotiated, ReplyStatus, ReplyView, RequestView,
    SystemException, TraceContext, GIOP_HEADER_LEN, MAX_GIOP_MESSAGE, MAX_MANIFEST_BLOCKS,
};
use zc_trace::{pack_attempt, pack_stage, EventKind, JourneyCause, Stage};
use zc_transport::{Connection, TransportCtx, TransportError};

/// GIOP bodies above this size are split into `Fragment` continuations.
/// Oversized control messages arise only on the coupled-data ablation or
/// with very large marshaled-inline payloads; fragmentation keeps every
/// single control frame bounded, as GIOP 1.2 intends.
pub const FRAGMENT_THRESHOLD: usize = 4 << 20;

use crate::{OrbError, OrbResult};

/// Tuning switches for a connection (ablations A1/A4; defaults are the
/// paper's full design).
#[derive(Debug, Clone, Copy)]
pub struct ConnTuning {
    /// Use out-of-band deposits for `ZcOctetSeq` (when negotiated). When
    /// `false`, ZC types fall back to inline marshaling even on homogeneous
    /// connections — the "marshaling bypass only" configuration.
    pub deposit_enabled: bool,
    /// Ship deposit blocks on the separated data path. When `false`, blocks
    /// are embedded in the control message (coupled synchronization + data),
    /// which forces buffering copies at both ends.
    pub separate_data: bool,
}

impl Default for ConnTuning {
    fn default() -> Self {
        ConnTuning {
            deposit_enabled: true,
            separate_data: true,
        }
    }
}

/// A Request message as it arrived: what an [`IncomingRequest`] is a view
/// of. The server loop owns one per request, so the request can borrow its
/// header fields from it while the connection stays free to answer.
#[derive(Debug)]
pub struct RequestMessage {
    /// The full GIOP body (header + padding + arguments): a view of the
    /// pooled buffer the transport received it into.
    body: ZcBytes,
    order: ByteOrder,
}

/// An incoming request as surfaced to the server loop.
#[derive(Debug)]
pub struct IncomingRequest<'m> {
    /// The request header, read in place: key, operation name and service
    /// contexts are windows of `body`.
    pub header: RequestView<'m>,
    /// The full GIOP body (header + padding + arguments): a view of the
    /// pooled buffer the transport received it into.
    pub body: &'m ZcBytes,
    /// Offset of the first argument within `body`.
    pub args_offset: usize,
    /// Deposited blocks, in descriptor-index order.
    pub deposits: DepositList,
    /// Byte order of the body.
    pub order: ByteOrder,
    /// Whether descriptors (not inline bytes) encode ZC sequences.
    pub zc: bool,
    /// Trace id propagated by the caller's `ZC_TRACE` service context
    /// (`0` when the caller sent none, or sent one we could not parse).
    pub trace_id: u64,
}

/// An incoming successful reply as surfaced to the client.
#[derive(Debug)]
pub struct IncomingReply {
    /// The full GIOP body (header + padding + results): a view of the
    /// pooled buffer the transport received it into.
    pub body: ZcBytes,
    /// Offset of the first result value within `body`.
    pub results_offset: usize,
    /// Deposited blocks, in descriptor-index order.
    pub deposits: DepositList,
    /// Byte order of the body.
    pub order: ByteOrder,
    /// Whether descriptors encode ZC sequences.
    pub zc: bool,
}

/// A negotiated GIOP connection over any transport.
pub struct GiopConn {
    conn: Box<dyn Connection>,
    negotiated: Negotiated,
    ctx: TransportCtx,
    tuning: ConnTuning,
    next_request_id: u32,
    version: GiopVersion,
    /// Set when a reply timed out: the stream may now hold a stale reply,
    /// so the connection is unusable (CORBA closes such connections; so do
    /// we, on drop).
    poisoned: bool,
    /// Transport-allocated identifier correlating this connection's trace
    /// events (`0` when the transport does not participate).
    conn_id: u64,
    /// Trace id of the request currently in flight on this connection
    /// (outbound: the one we stamped; inbound: the one the peer sent).
    last_trace_id: u64,
    /// Journey annotation for the *next* outbound request, set by the proxy
    /// via [`GiopConn::set_journey`]: `(journey_id, attempt, cause)`.
    /// Consumed by `send_request_raw`, which stamps it into the `ZC_TRACE`
    /// context and records the attempt event.
    pending_journey: Option<(u64, u32, u8)>,
    /// The marshal buffer of the last message sent, lent to the next
    /// [`GiopConn::body_encoder`] so a steady stream of messages marshals
    /// into the same allocation.
    spare_body: Vec<u8>,
    /// Likewise the request/reply header buffer of the last message sent.
    spare_head: Vec<u8>,
    /// Likewise the (emptied) deposit list of the last message sent.
    spare_deposits: Vec<ZcBytes>,
}

impl GiopConn {
    /// Client-side establishment: send our handshake, read the peer's.
    pub fn client(
        conn: Box<dyn Connection>,
        local: Handshake,
        ctx: TransportCtx,
        tuning: ConnTuning,
    ) -> OrbResult<GiopConn> {
        GiopConn::exchange_handshakes(conn, local, ctx, tuning, true)
    }

    /// Server-side establishment: read the client's handshake, answer.
    pub fn server(
        conn: Box<dyn Connection>,
        local: Handshake,
        ctx: TransportCtx,
        tuning: ConnTuning,
    ) -> OrbResult<GiopConn> {
        GiopConn::exchange_handshakes(conn, local, ctx, tuning, false)
    }

    /// The client speaks first; both sides negotiate with the client's
    /// handshake as `negotiate`'s `client` argument.
    fn exchange_handshakes(
        mut conn: Box<dyn Connection>,
        local: Handshake,
        ctx: TransportCtx,
        tuning: ConnTuning,
        is_client: bool,
    ) -> OrbResult<GiopConn> {
        if is_client {
            conn.send_control(&local.encode())?;
        }
        let remote = Handshake::decode(&conn.recv_control()?)?;
        let negotiated = if is_client {
            Handshake::negotiate(&local, &remote)
        } else {
            conn.send_control(&local.encode())?;
            Handshake::negotiate(&remote, &local)
        };
        let conn_id = conn.trace_conn_id();
        ctx.telemetry.note_conn_open();
        Ok(GiopConn {
            conn,
            negotiated,
            ctx,
            tuning,
            next_request_id: 1,
            version: GiopVersion::V1_2,
            poisoned: false,
            conn_id,
            last_trace_id: 0,
            pending_journey: None,
            spare_body: Vec::new(),
            spare_head: Vec::new(),
            spare_deposits: Vec::new(),
        })
    }

    /// The negotiated connection mode.
    pub fn negotiated(&self) -> Negotiated {
        self.negotiated
    }

    /// Whether `ZcOctetSeq` takes the deposit path on this connection
    /// (negotiation + tuning, fixed for the connection's lifetime).
    pub fn zc_active(&self) -> bool {
        self.negotiated.zero_copy && self.tuning.deposit_enabled
    }

    /// Byte order of all GIOP messages on this connection.
    pub fn wire_order(&self) -> ByteOrder {
        self.negotiated.wire_order
    }

    /// The connection's copy meter.
    pub fn meter(&self) -> std::sync::Arc<zc_buffers::CopyMeter> {
        std::sync::Arc::clone(&self.ctx.meter)
    }

    /// Transport statistics.
    pub fn transport_stats(&self) -> zc_transport::ConnStats {
        self.conn.stats()
    }

    /// Peer description.
    pub fn peer(&self) -> &str {
        self.conn.peer()
    }

    /// Transport-allocated trace correlation id for this connection.
    pub fn trace_conn_id(&self) -> u64 {
        self.conn_id
    }

    /// The connection's telemetry handle.
    pub fn telemetry(&self) -> &std::sync::Arc<zc_trace::Telemetry> {
        &self.ctx.telemetry
    }

    /// Trace id of the request most recently sent or received on this
    /// connection (`0` before the first traced exchange).
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Annotate the *next* outbound request with its journey coordinates:
    /// the logical-request id, the attempt ordinal (0-based) and the cause
    /// that produced this attempt (a [`zc_trace::JourneyCause`] as its wire
    /// byte). Consumed by the next `send_request_raw`, which carries the
    /// triple in the `ZC_TRACE` context and records the attempt event.
    pub fn set_journey(&mut self, journey_id: u64, attempt: u32, cause: u8) {
        self.pending_journey = Some((journey_id, attempt, cause));
    }

    /// Render the last `n` flight-recorder events touching this connection
    /// (`None` when telemetry is disabled).
    pub fn post_mortem(&self, n: usize) -> Option<String> {
        self.ctx.telemetry.post_mortem(self.conn_id, n)
    }

    /// An argument/result encoder configured for this connection (meter,
    /// byte order, ZC mode). Takes `&mut self` because it borrows the
    /// connection's spare marshal buffer and deposit list.
    pub fn body_encoder(&mut self) -> CdrEncoder {
        CdrEncoder::new(self.wire_order())
            .with_meter(std::sync::Arc::clone(&self.ctx.meter))
            .with_zc(self.zc_active())
            .with_buffer(std::mem::take(&mut self.spare_body))
            .with_deposit_room(std::mem::take(&mut self.spare_deposits))
    }

    /// Hand back the marshal buffer and deposit list of a message that is
    /// on the wire, for the next [`GiopConn::body_encoder`] to reuse (the
    /// connection keeps the roomier of each and the spare it holds).
    pub fn recycle_body(&mut self, body: Vec<u8>, deposits: Vec<ZcBytes>) {
        keep_roomier(&mut self.spare_body, body);
        keep_roomier(&mut self.spare_deposits, deposits);
    }

    /// A request/reply header encoder that borrows the spare header buffer;
    /// [`GiopConn::send_message`] takes the buffer back.
    fn head_encoder(&mut self) -> CdrEncoder {
        CdrEncoder::new(self.wire_order()).with_buffer(std::mem::take(&mut self.spare_head))
    }

    /// Report one event of request `trace_id` on this connection.
    fn emit(&self, kind: EventKind, trace_id: u64, payload: u64) {
        self.ctx
            .telemetry
            .emit(kind, self.conn_id, trace_id, payload);
    }

    /// One request-span stage of `trace_id` took `dur_ns` on this connection.
    fn emit_stage(&self, stage: Stage, trace_id: u64, dur_ns: u64) {
        self.emit(EventKind::Stage, trace_id, pack_stage(stage, dur_ns));
    }

    /// One attempt of journey `journey_id` (`0` = none) goes by `trace_id`
    /// on this connection. `cause` may be wire data: a value from a newer
    /// peer costs the event, not the request.
    fn emit_attempt(&self, trace_id: u64, cause: u8, attempt: u32, journey_id: u64) {
        if journey_id == 0 {
            return;
        }
        if let Some(cause) = JourneyCause::from_u8(cause) {
            self.emit(
                EventKind::Attempt,
                trace_id,
                pack_attempt(cause, attempt, journey_id),
            );
        }
    }

    fn alloc_request_id(&mut self) -> u32 {
        let id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        id
    }

    /// Assemble and send a GIOP message whose body is `header_enc` (from
    /// [`GiopConn::head_encoder`]) followed by 8-aligned `payload` bytes,
    /// with `deposits` travelling per tuning.
    fn send_message(
        &mut self,
        msg_type: MessageType,
        mut header_enc: CdrEncoder,
        payload: &[u8],
        deposits: &[ZcBytes],
    ) -> OrbResult<()> {
        if deposits.len() > MAX_MANIFEST_BLOCKS as usize {
            // The receiver would refuse the manifest; fail before the wire.
            return Err(zc_cdr::CdrError::LengthOverflow(deposits.len() as u64).into());
        }
        let coupled = !self.tuning.separate_data && !deposits.is_empty();
        if coupled {
            // Ablation A1: couple data back into the control message.
            // Each block is *copied* inline, 8-aligned with a ulong length
            // prefix, before the argument bytes — one copy, metered as
            // marshal: this is the buffering the separation avoids.
            header_enc = header_enc.with_meter(std::sync::Arc::clone(&self.ctx.meter));
            for block in deposits {
                self.emit(
                    EventKind::DepositSent,
                    self.last_trace_id,
                    block.len() as u64,
                );
                header_enc.align(8);
                header_enc.write_octet_seq(block.as_slice());
            }
        }
        header_enc.align(8);
        let head = header_enc.finish_stream();
        self.send_framed(msg_type, &head, payload)?;
        let mut sent = (head.len() + payload.len()) as u64;
        keep_roomier(&mut self.spare_head, head);
        if !coupled {
            // Data transfer, decoupled: blocks follow on the data path,
            // already announced by the manifest in the control message.
            for block in deposits {
                self.conn.send_data(block)?;
                sent += block.len() as u64;
                self.emit(
                    EventKind::DepositSent,
                    self.last_trace_id,
                    block.len() as u64,
                );
            }
        }
        // One window tick per message (not per frame): the tx rate
        // signal costs a clock read, which is too hot for the MTU loop.
        self.ctx.telemetry.note_wire_tx(sent);
        Ok(())
    }

    /// Frame (and if necessary fragment) the GIOP body `head ++ args` onto
    /// the control path. Nothing is concatenated here: each frame goes out
    /// as a gather list of its GIOP header and its window of the two
    /// parts, and the stack's own send copy puts them together.
    fn send_framed(&mut self, msg_type: MessageType, head: &[u8], args: &[u8]) -> OrbResult<()> {
        let plan = fragment_plan(
            self.version,
            self.wire_order(),
            msg_type,
            head.len() + args.len(),
            FRAGMENT_THRESHOLD,
        );
        for (header, window) in plan {
            self.conn.send_control_vectored(&[
                &header.encode(),
                part_window(head, 0, &window),
                part_window(args, head.len(), &window),
            ])?;
        }
        Ok(())
    }

    /// Receive one GIOP message, reassembling `Fragment` continuations;
    /// returns `(type, body, order)`. The body of an unfragmented message
    /// is a view of the buffer the transport delivered.
    fn recv_message(&mut self) -> OrbResult<(MessageType, ZcBytes, ByteOrder)> {
        let (hdr, first) = self.recv_one_frame()?;
        let body = if hdr.flags.more_fragments {
            self.recv_fragments(first)?
        } else {
            first
        };
        // Watermark: peak bytes a fragment train held in reassembly, at
        // message, not MTU, granularity.
        self.ctx.telemetry.note_reassembly_bytes(body.len() as u64);
        // One rx window tick per reassembled message; deposit blocks tick
        // separately in `collect_deposits` when they arrive on the data path.
        self.ctx.telemetry.note_wire_rx(body.len() as u64);
        Ok((hdr.msg_type, body, hdr.flags.order))
    }

    /// Receive the `Fragment` continuations of a message whose first frame
    /// carried `first`, and put the body together: one copy into a pooled
    /// buffer, metered as defragmentation. The running total is held under
    /// [`MAX_GIOP_MESSAGE`], so a fragment train can never pin or allocate
    /// more than one legal message.
    fn recv_fragments(&mut self, first: ZcBytes) -> OrbResult<ZcBytes> {
        let mut total = first.len();
        let mut fragments = vec![first];
        let mut more = true;
        while more {
            let (hdr, fragment) = self.recv_one_frame()?;
            if hdr.msg_type != MessageType::Fragment {
                return Err(unexpected(hdr.msg_type, MessageType::Fragment));
            }
            total += fragment.len();
            if total as u64 > MAX_GIOP_MESSAGE {
                return Err(GiopError::MessageTooLarge(total as u64).into());
            }
            more = hdr.flags.more_fragments;
            fragments.push(fragment);
        }
        let mut body = self.ctx.pool.acquire(total.max(1));
        body.set_len(total);
        let mut at = 0;
        for fragment in &fragments {
            self.ctx.meter.copy(
                zc_buffers::CopyLayer::KernelDefrag,
                &mut body.as_mut_slice()[at..at + fragment.len()],
                fragment,
            );
            at += fragment.len();
        }
        Ok(body.freeze())
    }

    /// Receive exactly one GIOP frame from the control path: its header,
    /// and its body as a view of what the transport delivered.
    fn recv_one_frame(&mut self) -> OrbResult<(GiopHeader, ZcBytes)> {
        let raw = self.conn.recv_control()?;
        let Some(hdr_bytes) = raw.first_chunk::<GIOP_HEADER_LEN>() else {
            return Err(GiopError::ShortFrame(raw.len()).into());
        };
        let hdr = GiopHeader::decode(hdr_bytes)?;
        if raw.len() != GIOP_HEADER_LEN + hdr.msg_size as usize {
            return Err(GiopError::SizeMismatch {
                announced: hdr.msg_size,
                got: raw.len() - GIOP_HEADER_LEN,
            }
            .into());
        }
        Ok((hdr, raw.slice(GIOP_HEADER_LEN..)))
    }

    /// Pull announced deposits (separated path) or extract inline blocks
    /// (coupled path). Returns the blocks and, for the coupled path, the
    /// offset in `body` where argument decoding should resume.
    fn collect_deposits(
        &mut self,
        manifest: Option<ManifestView<'_>>,
        body: &[u8],
        after_header: usize,
        order: ByteOrder,
    ) -> OrbResult<(DepositList, usize)> {
        let Some(manifest) = manifest else {
            // No deposits: arguments start at the first 8-aligned offset.
            return Ok((DepositList::default(), align_up(after_header, 8)));
        };
        // `ManifestView::parse` held the count under MAX_MANIFEST_BLOCKS.
        let mut blocks = DepositList::for_blocks(manifest.block_count());
        if self.tuning.separate_data {
            for len in manifest.block_lengths() {
                blocks.add_block(self.conn.recv_data(len as usize)?);
                self.ctx.telemetry.note_wire_rx(len);
                self.emit(EventKind::DepositReceived, self.last_trace_id, len);
            }
            Ok((blocks, align_up(after_header, 8)))
        } else {
            // Inline: blocks precede the arguments, each 8-aligned with a
            // ulong length prefix. Copy each out into aligned storage.
            let mut dec =
                CdrDecoder::new(body, order).with_meter(std::sync::Arc::clone(&self.ctx.meter));
            dec.skip(after_header)?;
            for len in manifest.block_lengths() {
                dec.align(8)?;
                let announced = dec.read_u32()? as u64;
                if announced != len {
                    return Err(GiopError::InlineDepositMismatch {
                        inline: announced,
                        manifest: len,
                    }
                    .into());
                }
                let bytes = dec.read_raw(len as usize)?;
                let mut buf = self.ctx.pool.acquire(bytes.len().max(1));
                buf.set_len(bytes.len());
                self.ctx
                    .meter
                    .copy(zc_buffers::CopyLayer::Demarshal, buf.as_mut_slice(), bytes);
                blocks.add_block(buf.freeze());
            }
            dec.align(8)?;
            Ok((blocks, dec.position()))
        }
    }

    /// Whether an earlier reply timeout poisoned this connection (a stale
    /// reply may still arrive, so it must not carry another request).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    pub(crate) fn check_poisoned(&self) -> OrbResult<()> {
        if self.poisoned {
            Err(OrbError::Protocol(
                "connection poisoned by an earlier reply timeout; resolve a fresh one".into(),
            ))
        } else {
            Ok(())
        }
    }

    /// Client: receive the reply to `expect_id`, failing with
    /// `Transport(Timeout)` if it does not arrive within `timeout`. A
    /// timeout poisons the connection (a stale reply may still be in
    /// flight); callers must resolve a fresh connection afterwards.
    pub fn recv_reply_timeout(
        &mut self,
        expect_id: u32,
        timeout: std::time::Duration,
    ) -> OrbResult<IncomingReply> {
        self.check_poisoned()?;
        self.conn.set_recv_timeout(Some(timeout))?;
        let result = self.recv_reply(expect_id);
        let _ = self.conn.set_recv_timeout(None);
        if matches!(result, Err(OrbError::Transport(TransportError::Timeout))) {
            self.poisoned = true;
            let _ = self.send_cancel(expect_id);
        }
        result
    }

    /// Client: send a request. `args_enc` must come from
    /// [`GiopConn::body_encoder`]. Returns the request id.
    pub fn send_request(
        &mut self,
        object_key: &[u8],
        operation: &str,
        response_expected: bool,
        args_enc: CdrEncoder,
    ) -> OrbResult<u32> {
        let (args, deposits) = args_enc.finish();
        let id =
            self.send_request_raw(object_key, operation, response_expected, &args, &deposits)?;
        self.recycle_body(args, deposits);
        Ok(id)
    }

    /// Client: send a request from already-finished argument bytes and
    /// deposit blocks. This is the retry-friendly entry point: the proxy
    /// finishes its encoder once and can resend the same bytes and blocks
    /// on a replacement connection. Returns the request id.
    pub fn send_request_raw(
        &mut self,
        object_key: &[u8],
        operation: &str,
        response_expected: bool,
        args: &[u8],
        deposits: &[ZcBytes],
    ) -> OrbResult<u32> {
        self.check_poisoned()?;
        let enabled = self.ctx.telemetry.is_enabled();
        // Span: header/manifest/context assembly is the paper's "deposit
        // registration" control work; timed from here to the send stamp.
        let reg_t0 = if enabled { zc_trace::now_ns() } else { 0 };
        let request_id = self.alloc_request_id();
        let trace_id = zc_trace::next_trace_id();
        self.last_trace_id = trace_id;
        // Always stamped: the id and send timestamp are cheap to carry, and
        // a receiver with telemetry enabled can then correlate (and derive
        // the wire stage) even when ours is off.
        let sent_at_ns = zc_trace::now_ns();
        let (journey_id, attempt, cause) = self.pending_journey.take().unwrap_or_default();
        let trace = TraceContext {
            trace_id,
            sent_at_ns,
            journey_id,
            attempt,
            cause,
        };
        let mut enc = self.head_encoder();
        write_request_header(
            &mut enc,
            request_id,
            response_expected,
            object_key,
            operation,
            |w| {
                if !deposits.is_empty() {
                    w.manifest(deposits.iter().map(|b| b.len() as u64));
                }
                w.trace(&trace);
            },
        );
        let dep_bytes: u64 = deposits.iter().map(|b| b.len() as u64).sum();
        // The attempt event joins this send's trace id to its journey.
        // Recorded *before* the write: a send that dies on a closed socket
        // still consumed this attempt, and the journey's ordinal chain must
        // show it or offline reconstruction sees a hole.
        if enabled {
            self.emit_attempt(trace_id, cause, attempt, journey_id);
        }
        self.send_message(MessageType::Request, enc, args, deposits)?;
        if enabled {
            let sent_done = zc_trace::now_ns();
            self.emit_stage(
                Stage::ClientDepositRegister,
                trace_id,
                sent_at_ns.saturating_sub(reg_t0),
            );
            // ClientSend is a sub-interval of the receiver-derived Wire
            // stage: the local half (header marshal + socket hand-off).
            self.emit_stage(
                Stage::ClientSend,
                trace_id,
                sent_done.saturating_sub(sent_at_ns),
            );
        }
        self.emit(EventKind::RequestSent, trace_id, dep_bytes);
        Ok(request_id)
    }

    /// Client: receive the reply to `expect_id`.
    pub fn recv_reply(&mut self, expect_id: u32) -> OrbResult<IncomingReply> {
        let (msg_type, body, order) = self.recv_message()?;
        let arrival_ns = if self.ctx.telemetry.is_enabled() {
            zc_trace::now_ns()
        } else {
            0
        };
        match msg_type {
            MessageType::Reply => {}
            MessageType::CloseConnection => {
                return Err(OrbError::Transport(TransportError::Closed))
            }
            MessageType::MessageError => {
                return Err(OrbError::Protocol("peer reported MessageError".into()))
            }
            other => return Err(unexpected(other, MessageType::Reply)),
        }
        let mut dec = CdrDecoder::new(&body, order);
        let header = ReplyView::parse(&mut dec)?;
        let after_header = dec.position();
        if header.request_id != expect_id {
            return Err(GiopError::IdMismatch {
                got: header.request_id,
                expected: expect_id,
            }
            .into());
        }
        let manifest = header.contexts.manifest;
        match header.status {
            ReplyStatus::NoException => {
                // The zc flag is self-describing per message: every
                // descriptor pushes a deposit (even length 0), so a
                // manifest is present iff descriptors were used.
                let zc = manifest.is_some();
                let (deposits, results_offset) =
                    self.collect_deposits(manifest, &body, after_header, order)?;
                if self.ctx.telemetry.is_enabled() {
                    // Reply wire stage: the server's send stamp (echoed in
                    // the reply's trace context) → our arrival, on the
                    // shared in-process trace clock. Unstamped replies
                    // (foreign peers, old format) skip the stage.
                    let reply_sent_at = header.contexts.trace.map_or(0, |t| t.sent_at_ns);
                    if reply_sent_at != 0 && arrival_ns >= reply_sent_at {
                        self.emit_stage(
                            Stage::ClientReplyWire,
                            self.last_trace_id,
                            arrival_ns - reply_sent_at,
                        );
                    }
                    // Everything after arrival: header demarshal + deposit
                    // collection (result-value demarshal happens in the
                    // proxy and is not on this connection's clock).
                    self.emit_stage(
                        Stage::ClientReplyDemarshal,
                        self.last_trace_id,
                        zc_trace::now_ns().saturating_sub(arrival_ns),
                    );
                }
                self.emit(
                    EventKind::ReplyReceived,
                    self.last_trace_id,
                    manifest.map_or(0, |m| m.total_bytes()),
                );
                Ok(IncomingReply {
                    body,
                    results_offset,
                    deposits,
                    order,
                    zc,
                })
            }
            ReplyStatus::SystemException => {
                dec.align(8)?;
                let ex = SystemException::demarshal(&mut dec)?;
                self.emit(
                    EventKind::ExceptionReceived,
                    self.last_trace_id,
                    ex.minor as u64,
                );
                Err(OrbError::System(ex))
            }
            ReplyStatus::UserException => {
                // body: repo-id string, then the encoded members
                dec.align(8)?;
                let repo_id = dec.read_string()?;
                // the members blob carries its own byte-order flag (the
                // servant's native order, which may differ from the wire
                // order on heterogeneous connections)
                let members_little = dec.read_bool()?;
                let members = dec.read_octet_seq()?;
                Err(OrbError::User(crate::UserExceptionData {
                    repo_id,
                    body: members,
                    order: ByteOrder::from_flag(members_little),
                }))
            }
            ReplyStatus::LocationForward => Err(OrbError::Protocol(
                "location forwarding is not supported by this ORB".into(),
            )),
        }
    }

    /// Server: receive the next request into `slot` (see
    /// [`GiopConn::recv_request_admitted`], here with an open gate).
    pub fn recv_request<'m>(
        &mut self,
        slot: &'m mut Option<RequestMessage>,
    ) -> OrbResult<IncomingRequest<'m>> {
        let admitted = self.recv_request_admitted(slot, |_, _, _| Ok(()))?;
        Ok(admitted.expect("an open gate refuses nothing").0)
    }

    /// Server: receive the next Request message, answering or skipping
    /// everything else on the way. `CancelRequest` messages are consumed
    /// silently (we never start executing before reading the next request,
    /// so a cancel that arrives here is already moot).
    fn recv_request_message(&mut self) -> OrbResult<RequestMessage> {
        loop {
            let (msg_type, body, order) = self.recv_message()?;
            match msg_type {
                MessageType::Request => return Ok(RequestMessage { body, order }),
                MessageType::CancelRequest => continue,
                MessageType::CloseConnection => {
                    return Err(OrbError::Transport(TransportError::Closed))
                }
                MessageType::LocateRequest => {
                    // Answer OBJECT_HERE (2 would be forward; 1 = here).
                    let mut dec = CdrDecoder::new(&body, order);
                    let request_id = dec.read_u32()?;
                    let mut enc = CdrEncoder::new(self.wire_order());
                    enc.write_u32(request_id);
                    enc.write_u32(1); // OBJECT_HERE
                    let body = enc.finish_stream();
                    self.send_framed(MessageType::LocateReply, &body, &[])?;
                }
                other => return Err(unexpected(other, MessageType::Request)),
            }
        }
    }

    /// Server: receive the next request and put it to `gate`. The message
    /// lands in `slot`, which the caller owns — the returned request reads
    /// its header in place there, and the connection stays free to marshal
    /// and send the answer meanwhile.
    ///
    /// `gate` runs after the request header and deposit manifest are read
    /// but *before* any deposit block is collected, with `(header,
    /// announced deposit bytes, carries-deposits)`. A refusal is cheap by
    /// construction: the announced blocks are drained straight off the data
    /// path without retaining a single pool page, the supplied system
    /// exception (e.g. `TRANSIENT` from admission control) answers the
    /// request, and `Ok(None)` says so with the connection intact. On
    /// admission, the gate's success value (e.g. a queue-slot ticket) is
    /// returned alongside the request so the caller can scope the
    /// reservation to the dispatch.
    pub fn recv_request_admitted<'m, T>(
        &mut self,
        slot: &'m mut Option<RequestMessage>,
        mut gate: impl FnMut(&RequestView<'_>, u64, bool) -> Result<T, SystemException>,
    ) -> OrbResult<Option<(IncomingRequest<'m>, T)>> {
        let RequestMessage { body, order } = slot.insert(self.recv_request_message()?);
        let order = *order;
        let arrival_ns = if self.ctx.telemetry.is_enabled() {
            zc_trace::now_ns()
        } else {
            0
        };
        let mut dec = CdrDecoder::new(body, order);
        let header = RequestView::parse(&mut dec)?;
        let after_header = dec.position();
        let manifest = header.contexts.manifest;
        let tctx = header.contexts.trace.unwrap_or_default();
        let trace_id = tctx.trace_id;
        self.last_trace_id = trace_id;
        // Self-describing per message: manifest present iff the sender
        // used descriptors (see `recv_reply`).
        let zc = manifest.is_some();
        let announced = manifest.map_or(0, |m| m.total_bytes());
        let token = match gate(&header, announced, zc) {
            Ok(t) => t,
            Err(ex) => {
                // Shed: drain the announced blocks (receive and immediately
                // drop — no page is pinned past the refusal). On the
                // coupled path the blocks are inline in `body` and simply
                // never parsed.
                if self.tuning.separate_data {
                    for len in manifest.iter().flat_map(|m| m.block_lengths()) {
                        let _ = self.conn.recv_data(len as usize)?;
                        self.ctx.telemetry.note_wire_rx(len);
                    }
                }
                if header.response_expected {
                    self.send_reply_exception(header.request_id, &ex)?;
                }
                return Ok(None);
            }
        };
        let (deposits, args_offset) = self.collect_deposits(manifest, body, after_header, order)?;
        if self.ctx.telemetry.is_enabled() {
            // Mirror the caller's journey annotation so a spool on this
            // side alone can still reconstruct journeys.
            self.emit_attempt(trace_id, tctx.cause, tctx.attempt, tctx.journey_id);
            // Wire stage: the client's send stamp → our arrival, valid on
            // the shared in-process trace clock.
            if tctx.sent_at_ns != 0 && arrival_ns >= tctx.sent_at_ns {
                self.emit_stage(Stage::Wire, trace_id, arrival_ns - tctx.sent_at_ns);
            }
            // Receive stage: header read + manifest parse + pulling every
            // announced deposit off the data path.
            self.emit_stage(
                Stage::ServerRecv,
                trace_id,
                zc_trace::now_ns().saturating_sub(arrival_ns),
            );
        }
        self.emit(EventKind::RequestReceived, trace_id, announced);
        Ok(Some((
            IncomingRequest {
                header,
                body,
                args_offset,
                deposits,
                order,
                zc,
                trace_id,
            },
            token,
        )))
    }

    /// Server: send a successful reply whose body is `results_enc`.
    pub fn send_reply_ok(&mut self, request_id: u32, results_enc: CdrEncoder) -> OrbResult<()> {
        let (results, deposits) = results_enc.finish();
        // Echo the request's trace id with our send stamp so the client can
        // derive the reply-wire stage (symmetric to `send_request_raw`).
        let trace = TraceContext {
            trace_id: self.last_trace_id,
            sent_at_ns: zc_trace::now_ns(),
            // Replies do not re-announce the journey: the client owns it.
            ..Default::default()
        };
        let mut enc = self.head_encoder();
        write_reply_header(&mut enc, request_id, ReplyStatus::NoException, |w| {
            if !deposits.is_empty() {
                w.manifest(deposits.iter().map(|b| b.len() as u64));
            }
            w.trace(&trace);
        });
        let dep_bytes: u64 = deposits.iter().map(|b| b.len() as u64).sum();
        self.send_message(MessageType::Reply, enc, &results, &deposits)?;
        self.recycle_body(results, deposits);
        self.emit(EventKind::ReplySent, self.last_trace_id, dep_bytes);
        Ok(())
    }

    /// A reply header of `status`, padded for the exception body that
    /// follows it in the same stream.
    fn exception_reply(&mut self, request_id: u32, status: ReplyStatus) -> CdrEncoder {
        let mut enc = self.head_encoder();
        write_reply_header(&mut enc, request_id, status, |_| {});
        enc.align(8);
        enc
    }

    /// Server: send a system-exception reply.
    pub fn send_reply_exception(&mut self, request_id: u32, ex: &SystemException) -> OrbResult<()> {
        let mut enc = self.exception_reply(request_id, ReplyStatus::SystemException);
        ex.marshal(&mut enc)?;
        self.send_message(MessageType::Reply, enc, &[], &[])?;
        self.emit(EventKind::Error, self.last_trace_id, ex.minor as u64);
        Ok(())
    }

    /// Server: send a user-exception reply (repo id + encoded members).
    pub fn send_reply_user(
        &mut self,
        request_id: u32,
        data: &crate::UserExceptionData,
    ) -> OrbResult<()> {
        let mut enc = self.exception_reply(request_id, ReplyStatus::UserException);
        enc.write_string(&data.repo_id);
        // Members stay in the servant's encoding order; ship that order as
        // a flag so heterogeneous clients decode correctly.
        enc.write_bool(data.order.flag());
        enc.write_octet_seq(&data.body);
        self.send_message(MessageType::Reply, enc, &[], &[])
    }

    /// Either side: orderly shutdown notification (best effort).
    pub fn send_close(&mut self) {
        let _ = self.send_framed(MessageType::CloseConnection, &[], &[]);
    }

    /// Either side: report an unparseable/oversized message (best effort).
    /// GIOP's answer when there is no request id to attach an exception to.
    pub fn send_message_error(&mut self) {
        let _ = self.send_framed(MessageType::MessageError, &[], &[]);
    }

    /// Client: ask whether the peer hosts `object_key` (GIOP
    /// LocateRequest/LocateReply). Returns `true` for OBJECT_HERE.
    ///
    /// Note: per GIOP a server may answer OBJECT_HERE based on reachability
    /// alone; a request to a here-but-unregistered key still raises
    /// `OBJECT_NOT_EXIST` at invocation time.
    pub fn locate(&mut self, object_key: &[u8]) -> OrbResult<bool> {
        // A poisoned stream may still deliver a timed-out request's reply.
        self.check_poisoned()?;
        let request_id = self.alloc_request_id();
        let mut enc = CdrEncoder::new(self.wire_order());
        enc.write_u32(request_id);
        enc.write_octet_seq(object_key);
        let body = enc.finish_stream();
        self.send_framed(MessageType::LocateRequest, &body, &[])?;
        let (msg_type, body, order) = self.recv_message()?;
        if msg_type != MessageType::LocateReply {
            return Err(unexpected(msg_type, MessageType::LocateReply));
        }
        let mut dec = CdrDecoder::new(&body, order);
        let id = dec.read_u32()?;
        if id != request_id {
            return Err(GiopError::IdMismatch {
                got: id,
                expected: request_id,
            }
            .into());
        }
        let status = dec.read_u32()?;
        Ok(status == 1) // 0 = UNKNOWN_OBJECT, 1 = OBJECT_HERE, 2 = FORWARD
    }

    /// Client: cancel an outstanding request (advisory, per GIOP).
    pub fn send_cancel(&mut self, request_id: u32) -> OrbResult<()> {
        let mut enc = CdrEncoder::new(self.wire_order());
        enc.write_u32(request_id);
        let body = enc.finish_stream();
        self.send_framed(MessageType::CancelRequest, &body, &[])
    }
}

impl Drop for GiopConn {
    fn drop(&mut self) {
        // Balance the open-connections gauge (raised in client()/server()).
        self.ctx.telemetry.note_conn_closed();
    }
}

/// A message of type `got` arrived while the exchange awaited `awaiting`.
fn unexpected(got: MessageType, awaiting: MessageType) -> OrbError {
    GiopError::Unexpected { got, awaiting }.into()
}

/// Keep `returned`, emptied, as the connection's `spare` if it is the
/// roomier of the two — and not above [`FRAGMENT_THRESHOLD`] bytes: one
/// oversized message must not pin its buffer for the connection's lifetime.
fn keep_roomier<T>(spare: &mut Vec<T>, mut returned: Vec<T>) {
    returned.clear();
    if (spare.capacity()..=FRAGMENT_THRESHOLD / size_of::<T>()).contains(&returned.capacity()) {
        *spare = returned;
    }
}

#[inline]
fn align_up(n: usize, a: usize) -> usize {
    n.div_ceil(a) * a
}

/// The bytes of `part`, which starts `at` bytes into a GIOP body, that lie
/// inside `window` of that body.
fn part_window<'a>(part: &'a [u8], at: usize, window: &std::ops::Range<usize>) -> &'a [u8] {
    let clamp = |pos: usize| pos.clamp(at, at + part.len()) - at;
    &part[clamp(window.start)..clamp(window.end)]
}
