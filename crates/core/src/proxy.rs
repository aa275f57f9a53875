//! Client-side proxies: object references, static requests and replies.
//!
//! This is the stub side of the paper's Figure 3 data path: the application
//! passes parameters by reference into a [`StaticRequest`]; marshaling
//! happens once, into the connection's body encoder (or, for `ZcOctetSeq`
//! on a ZC connection, not at all — a descriptor is written and the block
//! rides the data channel).
//!
//! Every [`ObjectRef`] heals itself. An invocation makes attempts with the
//! same finished bytes; each attempt holds the connection guard for its
//! round trip and, when it fails, classifies the failure once as a
//! `Failure`. With the guard released, `retry::decide` names the
//! breaker note and the next step, and `ObjectRef::take_step` applies it.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use zc_buffers::ZcBytes;
use zc_cdr::{ByteOrder, CdrDecoder, CdrEncoder, CdrMarshal, DepositList};
use zc_giop::Ior;
use zc_trace::{EventKind, JourneyCause};
use zc_transport::TransportError;

use crate::conn::{GiopConn, IncomingReply};
use crate::retry::{decide, endpoint_salt, Decision, Failure, Note, Step};
use crate::{OrbError, OrbResult};

/// One dialable member of an object group: endpoint plus object key.
pub(crate) type Target = ((String, u16), Vec<u8>);

/// A client-side reference to a remote object: the IOR, a (shared)
/// negotiated connection to its server, and what the reference needs to
/// heal itself — the owning ORB (to dial replacement connections and
/// consult breakers) plus every dialable target of the IOR's profile list.
/// Every part is a shared handle, so cloning a reference copies no IOR,
/// and one failover heals every clone: they share the connection slot
/// being swapped and the active profile index.
#[derive(Clone)]
pub struct ObjectRef {
    /// Immutable once resolved; holds at least one IIOP profile.
    ior: Arc<Ior>,
    conn: Arc<Mutex<GiopConn>>,
    orb: crate::Orb,
    /// One entry per IIOP profile, in IOR order (for a replicated object
    /// group, index 0 is the primary).
    targets: Arc<Vec<Target>>,
    /// Index of the profile currently in use.
    active: Arc<AtomicUsize>,
    /// Consecutive successes on a backup since the last primary probe
    /// (sticky-primary fail-back, see
    /// [`RetryPolicy::reprobe_interval`](crate::RetryPolicy::reprobe_interval)).
    backup_streak: Arc<AtomicU32>,
    /// Whether replacement connections also repair the ORB's shared
    /// connection cache (false for private references).
    cached: bool,
}

impl ObjectRef {
    /// A reference bound over `conn` to `targets[active]`. `targets` lists
    /// every dialable profile of `ior` in order; `cached` says whether
    /// reconnects repair the shared connection cache or stay private.
    pub(crate) fn bound(
        orb: crate::Orb,
        ior: Ior,
        targets: Vec<Target>,
        active: usize,
        conn: Arc<Mutex<GiopConn>>,
        cached: bool,
    ) -> ObjectRef {
        debug_assert!(active < targets.len());
        ObjectRef {
            ior: Arc::new(ior),
            conn,
            orb,
            targets: Arc::new(targets),
            active: Arc::new(AtomicUsize::new(active)),
            backup_streak: Arc::new(AtomicU32::new(0)),
            cached,
        }
    }

    fn active_index(&self) -> usize {
        self.active
            .load(Ordering::SeqCst)
            .min(self.targets.len() - 1)
    }

    fn active_target(&self) -> &Target {
        &self.targets[self.active_index()]
    }

    /// The object key requests carry. It follows the active profile:
    /// replicas of an object group may register the same object under
    /// different keys.
    fn wire_key(&self) -> &[u8] {
        &self.active_target().1
    }

    /// The reference's IOR.
    pub fn ior(&self) -> &Ior {
        &self.ior
    }

    /// Whether this reference's connection negotiated the zero-copy path.
    pub fn is_zero_copy(&self) -> bool {
        self.conn.lock().zc_active()
    }

    /// Begin a static invocation of `operation`.
    pub fn request<'a>(&'a self, operation: &'a str) -> StaticRequest<'a> {
        let mut conn = self.conn.lock();
        let span = conn.telemetry().request_span();
        let enc = conn.body_encoder();
        drop(conn);
        StaticRequest {
            target: self,
            operation,
            enc,
            err: None,
            idempotent: false,
            span,
        }
    }

    /// GIOP locate: does the server claim to host this object's key?
    pub fn locate(&self) -> OrbResult<bool> {
        // The conn mutex *is* the wire serializer: locate must round-trip
        // under it, and it is a leaf lock (nothing else is taken while held).
        // zc-audit: allow(lock-held) — locate round-trips under the wire-serializing leaf lock
        self.conn.lock().locate(self.wire_key())
    }

    /// Transport statistics of the underlying connection.
    pub fn transport_stats(&self) -> zc_transport::ConnStats {
        self.conn.lock().transport_stats()
    }

    /// One attempt of `call`: send its finished bytes and await the reply,
    /// or classify how the attempt failed. The conn mutex *is* the wire
    /// serializer, so the round trip owns it end to end; the guard drops on
    /// return, and no recovery step runs under it (reconnects lock the same
    /// leaf mutex).
    fn attempt(
        &self,
        call: &mut Marshaled<'_>,
        ordinal: u32,
        cause: JourneyCause,
    ) -> Result<Reply, Failure> {
        let tele = self.orb.tele();
        // zc-audit: allow(lock-held) — round-trip under the wire-serializing leaf lock
        let mut conn = self.conn.lock();
        if let Err(e) = conn.check_poisoned() {
            // The attempt existed but never reached the wire: record it
            // with a zero trace id (no stage timeline to join) so the
            // journey's ordinal chain stays contiguous for offline
            // reconstruction.
            let payload = zc_trace::pack_attempt(cause, ordinal, call.journey_id);
            tele.emit(EventKind::Attempt, conn.trace_conn_id(), 0, payload);
            return Err(Failure::Poisoned(e));
        }
        // A replacement connection must accept the already-marshaled bytes
        // verbatim: same byte order, and descriptor-marshaled deposits need
        // a zero-copy connection.
        if conn.wire_order() != call.order || (!call.deposits.is_empty() && !conn.zc_active()) {
            return Err(Failure::Renegotiated);
        }
        let start = tele.is_enabled().then(std::time::Instant::now);
        // Stamp this attempt's journey coordinates into the next request's
        // ZC_TRACE context.
        conn.set_journey(call.journey_id, ordinal, cause as u8);
        let (key, operation) = (self.wire_key(), call.operation);
        let id = match conn.send_request_raw(key, operation, true, &call.args, &call.deposits) {
            Ok(id) => id,
            Err(e @ OrbError::Transport(TransportError::Closed)) => {
                return Err(Failure::SendClosed(e))
            }
            Err(e) => return Err(Failure::SendFailed(e)),
        };
        // The trace id now exists: commit the client-side marshal leg
        // (commit clears its marks: a later attempt does not record it).
        call.span
            .commit(tele, conn.trace_conn_id(), conn.last_trace_id());
        let received = match call.timeout {
            None => conn.recv_reply(id),
            Some(d) => conn.recv_reply_timeout(id, d),
        };
        let e = match received {
            Ok(incoming) => {
                if let Some(start) = start {
                    let elapsed = start.elapsed().as_nanos() as u64;
                    let (conn_id, trace_id) = (conn.trace_conn_id(), conn.last_trace_id());
                    tele.emit(EventKind::Invoke, conn_id, trace_id, elapsed);
                }
                // The request is answered: its marshal buffer and deposit
                // list serve the connection's next message.
                conn.recycle_body(
                    std::mem::take(&mut call.args),
                    std::mem::take(&mut call.deposits),
                );
                let meter = conn.meter();
                return Ok(Reply { incoming, meter });
            }
            Err(e) => e,
        };
        // A lost connection and a system exception other than a shed leave
        // a post-mortem dump of the connection's recent events.
        let dump = |e: &OrbError| {
            if let Some(dump) = conn.post_mortem(16) {
                eprintln!("zcorba: invocation of {operation:?} failed: {e}\n{dump}");
            }
        };
        Err(match e {
            OrbError::Transport(TransportError::Timeout) => Failure::TimedOut(e),
            OrbError::System(ref ex) if crate::admission::is_shed(ex) => Failure::Shed(e),
            OrbError::Transport(_)
            | OrbError::Protocol(_)
            | OrbError::Giop(_)
            | OrbError::Cdr(_) => {
                dump(&e);
                Failure::Lost(e)
            }
            OrbError::System(_) => {
                dump(&e);
                Failure::Answered(e)
            }
            _ => Failure::Answered(e),
        })
    }

    /// Apply one row of the recovery table after a failed attempt: tell the
    /// active profile's breaker what the attempt showed, then take the
    /// step. Returns the cause of the next attempt, or the error to surface.
    fn take_step(&self, d: Decision, attempt: u32, salt: u64) -> OrbResult<JourneyCause> {
        let (orb, tele) = (&self.orb, self.orb.tele());
        let cur = self.active_index();
        let endpoint = &self.targets[cur].0;
        match d.note {
            Note::Nothing => {}
            Note::Success => orb.note_endpoint_success(endpoint),
            Note::Failure => orb.note_endpoint_failure(endpoint),
            Note::Quarantine => {
                orb.note_endpoint_failure(endpoint);
                orb.quarantine(endpoint, &self.conn);
            }
        }
        let recover = match d.step {
            Step::Surface => return Err(d.error),
            Step::Rotate(_) => false,
            Step::Recover => {
                std::thread::sleep(orb.retry_policy().backoff(attempt, salt));
                true
            }
        };
        // Recovery re-dials the active profile first. A failed send on a
        // stale cached connection is no breaker evidence: the dial tells
        // the truth about the endpoint (reconnect_shared consults its
        // breaker and records its own dial failures).
        let cause = if recover
            && orb
                .reconnect_shared(endpoint, &self.conn, self.cached)
                .is_ok()
        {
            JourneyCause::Retry
        } else {
            // Rotate: walk the profile list in IOR order after the active
            // one, skip replicas whose breaker is open without a dial, and
            // swap the first successful dial into the shared slot.
            let n = self.targets.len();
            let live = (1..n).map(|step| (cur + step) % n).find(|&idx| {
                let ep = &self.targets[idx].0;
                orb.breaker_check(ep).is_ok()
                    && orb.reconnect_shared(ep, &self.conn, self.cached).is_ok()
            });
            let Some(idx) = live else {
                return Err(d.error);
            };
            self.active.store(idx, Ordering::SeqCst);
            self.backup_streak.store(0, Ordering::SeqCst);
            tele.emit(EventKind::Failover, 0, 0, idx as u64);
            match d.step {
                Step::Rotate(cause) => cause,
                _ => JourneyCause::Failover,
            }
        };
        if recover {
            let conn_id = self.conn.lock().trace_conn_id();
            tele.emit(EventKind::Retry, conn_id, 0, attempt as u64);
        }
        Ok(cause)
    }

    /// Record a success on the active profile, and — when running on a
    /// backup — count toward the sticky-primary re-probe: after
    /// `reprobe_interval` consecutive backup successes, one attempt is
    /// made to dial the primary back (its breaker gets the first say).
    fn note_success_and_maybe_reprobe(&self) {
        let idx = self.active_index();
        self.orb.note_endpoint_success(&self.targets[idx].0);
        let interval = self.orb.retry_policy().reprobe_interval;
        if idx == 0 || interval == 0 {
            return;
        }
        let streak = self.backup_streak.fetch_add(1, Ordering::SeqCst) + 1;
        if streak < interval {
            return;
        }
        self.backup_streak.store(0, Ordering::SeqCst);
        // reconnect_shared consults the primary's breaker first: a still-
        // open breaker refuses the probe without a dial.
        if self
            .orb
            .reconnect_shared(&self.targets[0].0, &self.conn, self.cached)
            .is_ok()
        {
            self.active.store(0, Ordering::SeqCst);
            // Failing back to the primary is a profile switch like any other.
            self.orb.tele().emit(EventKind::Failover, 0, 0, 0);
        }
    }
}

impl std::fmt::Debug for ObjectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ObjectRef({} @ {:?})",
            self.ior.type_id,
            String::from_utf8_lossy(self.wire_key())
        )
    }
}

/// A static method invocation under construction (MICO's `StaticRequest`).
/// It borrows the reference it was begun on and the operation's name.
pub struct StaticRequest<'a> {
    target: &'a ObjectRef,
    operation: &'a str,
    enc: CdrEncoder,
    err: Option<OrbError>,
    idempotent: bool,
    /// Per-request stage clocks; accumulates marshal time across `arg`
    /// calls and commits once the trace id exists (after the send).
    span: zc_trace::RequestSpan,
}

/// A request marshaled exactly once: every attempt resends the same
/// finished bytes and the same blocks — no second marshaling cost, no
/// divergence between attempts.
struct Marshaled<'a> {
    operation: &'a str,
    args: Vec<u8>,
    deposits: Vec<ZcBytes>,
    /// The byte order `args` was marshaled in.
    order: ByteOrder,
    /// One journey per logical request: every attempt shares this id.
    journey_id: u64,
    timeout: Option<Duration>,
    span: zc_trace::RequestSpan,
}

impl<'a> StaticRequest<'a> {
    /// Marshal the next `in` parameter. Errors are deferred to
    /// [`StaticRequest::invoke`] so calls chain fluently.
    pub fn arg<T: CdrMarshal>(mut self, v: &T) -> OrbResult<StaticRequest<'a>> {
        if self.err.is_none() {
            let t0 = self.span.begin();
            if let Err(e) = v.marshal(&mut self.enc) {
                self.err = Some(e.into());
            }
            self.span.end(zc_trace::Stage::ClientMarshal, t0);
        }
        Ok(self)
    }

    /// Declare the operation idempotent: executing it twice is as good as
    /// once. Under CORBA's at-most-once rule, only idempotent operations
    /// may be retried after the request was (possibly) dispatched — a
    /// send-side failure is provably undispatched and retries regardless.
    pub fn idempotent(mut self) -> StaticRequest<'a> {
        self.idempotent = true;
        self
    }

    /// Send the request and wait for its reply.
    pub fn invoke(self) -> OrbResult<Reply> {
        self.invoke_inner(None)
    }

    /// Send the request and wait at most `timeout` for the reply. On
    /// timeout the connection is poisoned (a stale reply may still
    /// arrive); resolve a fresh reference to continue.
    pub fn invoke_timeout(self, timeout: Duration) -> OrbResult<Reply> {
        self.invoke_inner(Some(timeout))
    }

    fn invoke_inner(mut self, timeout: Option<Duration>) -> OrbResult<Reply> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let target = self.target;
        let finish_t0 = self.span.begin();
        let (args, deposits) = self.enc.finish();
        self.span.end(zc_trace::Stage::ClientMarshal, finish_t0);
        let mut call = Marshaled {
            operation: self.operation,
            args,
            deposits,
            order: target.conn.lock().wire_order(),
            // One relaxed fetch_add — no clock, no allocation — so the
            // disabled-telemetry data path stays zero-overhead.
            journey_id: zc_trace::next_journey_id(),
            timeout,
            span: self.span,
        };
        let max_attempts = target.orb.retry_policy().max_attempts;
        // Backoff jitter follows the profile the invocation began on.
        let salt = endpoint_salt(&target.active_target().0);
        let mut cause = JourneyCause::Initial;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let attempts_left = attempt < max_attempts;
            if let Err(e) = target.orb.breaker_check(&target.active_target().0) {
                // Fail fast on the active profile — an object group rotates
                // to its next live replica within this attempt.
                let d = decide(Failure::BreakerOpen(e), self.idempotent, attempts_left);
                cause = target.take_step(d, attempt, salt)?;
            }
            let failure = match target.attempt(&mut call, attempt - 1, cause) {
                Ok(reply) => {
                    target.note_success_and_maybe_reprobe();
                    return Ok(reply);
                }
                Err(failure) => failure,
            };
            let d = decide(failure, self.idempotent, attempts_left);
            cause = target.take_step(d, attempt, salt)?;
        }
    }

    /// Send the request without expecting a reply (IDL `oneway`).
    pub fn invoke_oneway(self) -> OrbResult<()> {
        let StaticRequest {
            target,
            operation,
            enc,
            err,
            idempotent: _,
            span: _,
        } = self;
        if let Some(e) = err {
            return Err(e);
        }
        // zc-audit: allow(lock-held) — oneway send under the wire-serializing leaf lock; no reply is awaited
        let mut conn = target.conn.lock();
        conn.send_request(target.wire_key(), operation, false, enc)?;
        Ok(())
    }
}

/// A successful reply; demarshal results in declaration order.
#[derive(Debug)]
pub struct Reply {
    incoming: IncomingReply,
    meter: Arc<zc_buffers::CopyMeter>,
}

impl Reply {
    /// Demarshal the (single) result value.
    pub fn result<T: CdrMarshal>(self) -> OrbResult<T> {
        let mut results = self.results();
        results.next()
    }

    /// Iterate multiple out-values.
    pub fn results(self) -> ReplyResults {
        let IncomingReply {
            body,
            results_offset,
            deposits,
            order,
            zc,
        } = self.incoming;
        ReplyResults {
            body,
            offset: results_offset,
            deposits,
            order,
            zc,
            meter: self.meter,
        }
    }
}

/// Sequential access to a reply's out-values.
pub struct ReplyResults {
    body: ZcBytes,
    offset: usize,
    deposits: DepositList,
    order: zc_cdr::ByteOrder,
    zc: bool,
    meter: Arc<zc_buffers::CopyMeter>,
}

impl ReplyResults {
    /// Demarshal the next out-value. (Named distinctly from
    /// `Iterator::next` — results are heterogeneous, so this cannot be an
    /// iterator.)
    #[allow(clippy::should_implement_trait)]
    pub fn next<T: CdrMarshal>(&mut self) -> OrbResult<T> {
        // Rebuild a decoder positioned at the current offset; the deposit
        // list persists across calls so descriptor indices stay stable.
        let mut dec = CdrDecoder::new(&self.body, self.order).with_meter(Arc::clone(&self.meter));
        if self.zc {
            dec = dec.with_deposit_list(std::mem::take(&mut self.deposits));
        }
        dec.skip(self.offset).map_err(OrbError::from)?;
        let v = T::demarshal(&mut dec)?;
        self.offset = dec.position();
        self.deposits = dec.into_deposit_list();
        Ok(v)
    }
}
