//! Client-side proxies: object references, static requests and replies.
//!
//! This is the stub side of the paper's Figure 3 data path: the application
//! passes parameters by reference into a [`StaticRequest`]; marshaling
//! happens once, into the connection's body encoder (or, for `ZcOctetSeq`
//! on a ZC connection, not at all — a descriptor is written and the block
//! rides the data channel).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use zc_buffers::ZcBytes;
use zc_cdr::{CdrDecoder, CdrEncoder, CdrMarshal};
use zc_giop::{GiopError, Ior, SystemException, SystemExceptionKind};
use zc_trace::EventKind;
use zc_transport::TransportError;

use crate::conn::{GiopConn, IncomingReply};
use crate::retry::{endpoint_salt, RetryPolicy};
use crate::{OrbError, OrbResult};

/// CORBA completion codes (`completed` field of a system exception).
const COMPLETED_MAYBE: u32 = 2;

/// One dialable member of an object group: endpoint plus object key.
pub(crate) type Target = ((String, u16), Vec<u8>);

/// What an `ObjectRef` needs to heal itself: the owning ORB (to dial
/// replacement connections and consult breakers) plus every dialable
/// target from the IOR's profile list. For a replicated object group the
/// list has one entry per replica, in IOR order (index 0 = primary).
/// `active` is shared by every clone of the reference, so one failover
/// heals them all (they already share the connection `Arc` being swapped).
#[derive(Clone)]
struct Recovery {
    orb: crate::Orb,
    /// One entry per IIOP profile, in IOR order.
    targets: Arc<Vec<Target>>,
    /// Index of the profile currently in use.
    active: Arc<AtomicUsize>,
    /// Consecutive successes on a backup since the last primary probe
    /// (sticky-primary fail-back, see [`RetryPolicy::reprobe_interval`]).
    backup_streak: Arc<AtomicU32>,
    /// Whether replacement connections also repair the ORB's shared
    /// connection cache (false for private references).
    cached: bool,
}

impl Recovery {
    fn active_index(&self) -> usize {
        self.active
            .load(Ordering::SeqCst)
            .min(self.targets.len() - 1)
    }

    fn active_target(&self) -> &Target {
        &self.targets[self.active_index()]
    }

    /// Record a success on the active profile, and — when running on a
    /// backup — count toward the sticky-primary re-probe: after
    /// `reprobe_interval` consecutive backup successes, one attempt is
    /// made to dial the primary back (its breaker gets the first say).
    fn note_success_and_maybe_reprobe(
        &self,
        conn: &Arc<Mutex<GiopConn>>,
        policy: &RetryPolicy,
        tele: &Arc<zc_trace::Telemetry>,
    ) {
        let idx = self.active_index();
        self.orb.note_endpoint_success(&self.targets[idx].0);
        if idx == 0 || policy.reprobe_interval == 0 {
            return;
        }
        let streak = self.backup_streak.fetch_add(1, Ordering::SeqCst) + 1;
        if streak < policy.reprobe_interval {
            return;
        }
        self.backup_streak.store(0, Ordering::SeqCst);
        // reconnect_shared consults the primary's breaker first: a still-
        // open breaker refuses the probe without a dial.
        if self
            .orb
            .reconnect_shared(&self.targets[0].0, conn, self.cached)
            .is_ok()
        {
            self.active.store(0, Ordering::SeqCst);
            // Failing back to the primary is a profile switch like any other.
            tele.emit(EventKind::Failover, 0, 0, 0);
        }
    }
}

/// Rotate `target` to the next live profile of its object group: walk the
/// profile list in IOR order starting after the active one, skip replicas
/// whose breaker is open, and swap the first successful dial into the
/// shared connection slot. Returns whether a replacement profile is live.
fn rotate_failover(target: &ObjectRef, r: &Recovery, tele: &Arc<zc_trace::Telemetry>) -> bool {
    let n = r.targets.len();
    if n <= 1 {
        return false;
    }
    let cur = r.active_index();
    for step in 1..n {
        let idx = (cur + step) % n;
        let ep = &r.targets[idx].0;
        // A breaker-open replica is known-bad: skip it without a dial.
        if r.orb.breaker_check(ep).is_err() {
            continue;
        }
        // reconnect_shared records dial failures against the replica.
        if r.orb.reconnect_shared(ep, &target.conn, r.cached).is_ok() {
            r.active.store(idx, Ordering::SeqCst);
            r.backup_streak.store(0, Ordering::SeqCst);
            tele.emit(EventKind::Failover, 0, 0, idx as u64);
            return true;
        }
    }
    false
}

/// A client-side reference to a remote object: the IOR plus a (shared)
/// negotiated connection to its server. Every part is a shared handle, so
/// cloning a reference copies no IOR.
#[derive(Clone)]
pub struct ObjectRef {
    /// Immutable once resolved; holds at least one IIOP profile.
    ior: Arc<Ior>,
    conn: Arc<Mutex<GiopConn>>,
    recovery: Option<Recovery>,
}

impl ObjectRef {
    /// Wrap an established connection. Normally obtained from
    /// [`crate::Orb::resolve`]. References built directly (without an
    /// owning ORB) cannot self-heal: failures surface immediately.
    pub fn new(ior: Ior, conn: Arc<Mutex<GiopConn>>) -> OrbResult<ObjectRef> {
        ior.iiop_profile()?;
        Ok(ObjectRef {
            ior: Arc::new(ior),
            conn,
            recovery: None,
        })
    }

    /// The object key requests carry. It follows the active profile:
    /// replicas of an object group may register the same object under
    /// different keys.
    fn wire_key(&self) -> &[u8] {
        match &self.recovery {
            Some(r) => &r.active_target().1,
            None => self.ior.iiop_profile().map_or(&[], |p| &p.object_key),
        }
    }

    /// Attach recovery state. `targets` lists every dialable profile of
    /// the IOR in order; `active` is the one currently connected; `cached`
    /// says whether reconnects repair the shared connection cache or stay
    /// private.
    pub(crate) fn with_recovery(
        mut self,
        orb: crate::Orb,
        targets: Vec<Target>,
        active: usize,
        cached: bool,
    ) -> ObjectRef {
        debug_assert!(!targets.is_empty() && active < targets.len());
        self.recovery = Some(Recovery {
            orb,
            targets: Arc::new(targets),
            active: Arc::new(AtomicUsize::new(active)),
            backup_streak: Arc::new(AtomicU32::new(0)),
            cached,
        });
        self
    }

    /// The endpoint the reference is currently bound to (for an object
    /// group, the active replica; otherwise the IOR's first profile).
    pub fn active_endpoint(&self) -> OrbResult<(String, u16)> {
        match &self.recovery {
            Some(r) => {
                let (endpoint, _) = r.active_target();
                // zc-audit: allow(cheap-clone) — endpoint identity (host string + port), not payload
                Ok(endpoint.clone())
            }
            None => Ok(self.ior.iiop_profile()?.endpoint()),
        }
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
    pub fn invoke_timeout(self, timeout: std::time::Duration) -> OrbResult<Reply> {
        self.invoke_inner(Some(timeout))
    }

    fn invoke_inner(self, timeout: Option<std::time::Duration>) -> OrbResult<Reply> {
        let StaticRequest {
            target,
            operation,
            enc,
            err,
            idempotent,
            mut span,
        } = self;
        if let Some(e) = err {
            return Err(e);
        }
        // One journey per logical request: every attempt below shares this
        // id and carries the cause that produced it. Allocating the id is
        // one relaxed fetch_add — no clock, no allocation — so the
        // disabled-telemetry data path stays zero-overhead.
        let journey_id = zc_trace::next_journey_id();
        let mut cause = zc_trace::JourneyCause::Initial;
        // Marshal exactly once: retries resend the same finished bytes and
        // the same blocks — no double marshaling cost, no divergence.
        let finish_t0 = span.begin();
        let (args, deposits) = enc.finish();
        span.end(zc_trace::Stage::ClientMarshal, finish_t0);
        let policy = match &target.recovery {
            Some(r) => *r.orb.retry_policy(),
            None => RetryPolicy::none(),
        };
        let salt = target
            .recovery
            .as_ref()
            .map(|r| endpoint_salt(&r.active_target().0))
            .unwrap_or(0);
        let (expected_order, tele) = {
            let conn = target.conn.lock();
            (conn.wire_order(), Arc::clone(conn.telemetry()))
        };
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            if let Some(r) = &target.recovery {
                if let Err(e) = r.orb.breaker_check(&r.active_target().0) {
                    // Fail-fast on the active profile — but for an object
                    // group, rotate to the next live replica instead of
                    // surfacing TRANSIENT: the call was never attempted
                    // (completed = NO), so any operation may move.
                    if !rotate_failover(target, r, &tele) {
                        return Err(e);
                    }
                    cause = zc_trace::JourneyCause::Failover;
                }
            }
            // The conn mutex *is* the wire serializer: one request/reply
            // round-trip owns the connection end to end, and conn is a leaf
            // lock (nothing else is taken while held, so no ordering cycle
            // is possible). The guard IS dropped before try_recover runs;
            // the analysis is branch-insensitive about that.
            // zc-audit: allow(lock-held) — round-trip under the wire-serializing leaf lock
            let mut conn = target.conn.lock();
            // A connection poisoned by an earlier reply timeout carries no
            // further requests — and nothing has been sent on *this*
            // attempt, so any operation (idempotent or not) may move to a
            // fresh connection, or rotate to the next replica of a group.
            if conn.is_poisoned() {
                // The attempt existed but never reached the wire: record it
                // with a zero trace id (no stage timeline to join) so the
                // journey's ordinal chain stays contiguous for offline
                // reconstruction.
                tele.emit(
                    EventKind::Attempt,
                    conn.trace_conn_id(),
                    0,
                    zc_trace::pack_attempt(cause, attempt - 1, journey_id),
                );
                drop(conn);
                if let Some(c) = try_recover(target, &policy, salt, attempt, &tele) {
                    cause = c;
                    continue;
                }
                return Err(OrbError::Protocol(
                    "connection poisoned by an earlier reply timeout; resolve a fresh one".into(),
                ));
            }
            // A replacement connection must accept the already-marshaled
            // bytes verbatim: same byte order, and descriptor-marshaled
            // deposits need a zero-copy connection. A mismatched renegotiation
            // cannot be healed transparently.
            if conn.wire_order() != expected_order || (!deposits.is_empty() && !conn.zc_active()) {
                return Err(comm_failure_maybe(3));
            }
            let start = tele.is_enabled().then(std::time::Instant::now);
            // Stamp this attempt's journey coordinates (0-based ordinal)
            // into the next request's ZC_TRACE context.
            conn.set_journey(journey_id, attempt - 1, cause as u8);
            let id =
                match conn.send_request_raw(target.wire_key(), operation, true, &args, &deposits) {
                    Ok(id) => {
                        // The trace id now exists: commit the client-side
                        // marshal leg (commit clears its marks, so a retried
                        // attempt does not double-record it).
                        span.commit(&tele, conn.trace_conn_id(), conn.last_trace_id());
                        id
                    }
                    Err(e @ OrbError::Transport(TransportError::Closed)) => {
                        // The send itself failed: the request provably never
                        // reached a dispatcher, so *any* operation (idempotent
                        // or not) may retry on a fresh connection.
                        drop(conn);
                        if let Some(c) = try_recover(target, &policy, salt, attempt, &tele) {
                            cause = c;
                            continue;
                        }
                        return Err(e);
                    }
                    Err(e) => return Err(e),
                };
            let result = match timeout {
                None => conn.recv_reply(id),
                Some(d) => conn.recv_reply_timeout(id, d),
            };
            match result {
                Ok(incoming) => {
                    if let Some(start) = start {
                        let elapsed = start.elapsed().as_nanos() as u64;
                        tele.emit(
                            EventKind::Invoke,
                            conn.trace_conn_id(),
                            conn.last_trace_id(),
                            elapsed,
                        );
                    }
                    let meter = conn.meter();
                    // The request is answered: its marshal buffer serves
                    // the connection's next message.
                    conn.recycle_body(args);
                    drop(conn);
                    if let Some(r) = &target.recovery {
                        r.note_success_and_maybe_reprobe(&target.conn, &policy, &tele);
                    }
                    return Ok(Reply { incoming, meter });
                }
                Err(e @ OrbError::Transport(TransportError::Timeout)) => {
                    // Timed out: the connection is poisoned (a stale reply
                    // may still arrive) and a CancelRequest was sent.
                    // NEVER retried — the request may be executing right
                    // now. Quarantine the connection so the next resolve
                    // dials fresh.
                    drop(conn);
                    if let Some(r) = &target.recovery {
                        let endpoint = &r.active_target().0;
                        r.orb.note_endpoint_failure(endpoint);
                        r.orb.quarantine(endpoint, &target.conn);
                    }
                    return Err(e);
                }
                Err(e) => {
                    let conn_dead = matches!(
                        e,
                        OrbError::Transport(_)
                            | OrbError::Protocol(_)
                            | OrbError::Giop(_)
                            | OrbError::Cdr(_)
                    );
                    if !conn_dead {
                        // A server-side shed (`TRANSIENT`, completed = NO)
                        // refused the request *before* dispatch: the wire
                        // worked but the replica is overloaded. Count it
                        // as failure evidence (sustained sheds open the
                        // breaker) and rotate *any* operation — idempotent
                        // or not — to the next live replica of the group.
                        if let OrbError::System(ex) = &e {
                            if crate::admission::is_shed(ex) {
                                drop(conn);
                                if let Some(r) = &target.recovery {
                                    r.orb.note_endpoint_failure(&r.active_target().0);
                                    if attempt < policy.max_attempts
                                        && rotate_failover(target, r, &tele)
                                    {
                                        cause = zc_trace::JourneyCause::ShedRotate;
                                        continue;
                                    }
                                }
                                return Err(e);
                            }
                        }
                        // Any other System/User exception *is* a reply:
                        // the wire worked, the endpoint is healthy.
                        if matches!(e, OrbError::System(_)) {
                            if let Some(dump) = conn.post_mortem(16) {
                                eprintln!(
                                    "zcorba: invocation of {operation:?} failed: {e}\n{dump}"
                                );
                            }
                        }
                        drop(conn);
                        if let Some(r) = &target.recovery {
                            r.orb.note_endpoint_success(&r.active_target().0);
                        }
                        return Err(e);
                    }
                    // The connection died (or was garbled) after the
                    // request went out: it may or may not have executed.
                    if let Some(dump) = conn.post_mortem(16) {
                        eprintln!("zcorba: invocation of {operation:?} failed: {e}\n{dump}");
                    }
                    drop(conn);
                    // At-most-once: only caller-declared idempotent
                    // operations may run twice.
                    if idempotent {
                        if let Some(c) = try_recover(target, &policy, salt, attempt, &tele) {
                            cause = c;
                            continue;
                        }
                    }
                    if !idempotent {
                        if let Some(r) = &target.recovery {
                            r.orb.note_endpoint_failure(&r.active_target().0);
                        }
                    }
                    // An oversized reply is a marshaling failure, not a
                    // communication one; everything else is COMM_FAILURE
                    // with completion status MAYBE.
                    return Err(match e {
                        OrbError::Giop(GiopError::MessageTooLarge(_)) => {
                            OrbError::System(SystemException {
                                kind: SystemExceptionKind::Marshal,
                                minor: 2,
                                completed: COMPLETED_MAYBE,
                            })
                        }
                        _ => comm_failure_maybe(1),
                    });
                }
            }
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

/// `COMM_FAILURE` with completion status MAYBE: the request may or may not
/// have executed — the CORBA answer when at-most-once forbids a retry.
fn comm_failure_maybe(minor: u32) -> OrbError {
    OrbError::System(SystemException {
        kind: SystemExceptionKind::CommFailure,
        minor,
        completed: COMPLETED_MAYBE,
    })
}

/// Attempt one recovery step for `target`: record the failure, back off,
/// and swap a freshly dialed connection into the shared slot. Returns the
/// journey cause of the retry the caller should now make — `Retry` when the
/// same profile answered a fresh dial, `Failover` when the reference
/// rotated to another replica — or `None` when recovery failed and the
/// caller must surface the error.
fn try_recover(
    target: &ObjectRef,
    policy: &RetryPolicy,
    salt: u64,
    attempt: u32,
    tele: &Arc<zc_trace::Telemetry>,
) -> Option<zc_trace::JourneyCause> {
    let r = target.recovery.as_ref()?;
    // Note: a failed send on a stale cached connection is not breaker
    // evidence — the dial below tells the truth about the endpoint
    // (reconnect_shared records its own failures).
    if attempt >= policy.max_attempts {
        return None;
    }
    std::thread::sleep(policy.backoff(attempt, salt));
    let cause = if r
        .orb
        .reconnect_shared(&r.active_target().0, &target.conn, r.cached)
        .is_ok()
    {
        zc_trace::JourneyCause::Retry
    } else if rotate_failover(target, r, tele) {
        // The active profile refused the dial (down, or breaker open):
        // for an object group the retry may land on the next live replica.
        zc_trace::JourneyCause::Failover
    } else {
        return None;
    };
    tele.emit(
        EventKind::Retry,
        target.conn.lock().trace_conn_id(),
        0,
        attempt as u64,
    );
    Some(cause)
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
            slots: deposits.into_iter().map(Some).collect(),
            order,
            zc,
            meter: self.meter,
        }
    }

    /// Peek at the first deposited block, if any (fast path for streaming
    /// consumers that want the raw pages).
    pub fn first_deposit(&self) -> Option<ZcBytes> {
        self.incoming.deposits.first().cloned()
    }
}

/// Sequential access to a reply's out-values.
pub struct ReplyResults {
    body: ZcBytes,
    offset: usize,
    slots: Vec<Option<ZcBytes>>,
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
        // Rebuild a decoder positioned at the current offset; deposit slots
        // persist across calls so descriptor indices stay stable.
        let slots = std::mem::take(&mut self.slots);
        let mut dec = CdrDecoder::new(&self.body, self.order).with_meter(Arc::clone(&self.meter));
        if self.zc {
            dec = dec.with_deposit_slots(slots);
        }
        dec.skip(self.offset).map_err(OrbError::from)?;
        let v = T::demarshal(&mut dec)?;
        self.offset = dec.position();
        self.slots = dec.into_deposit_slots();
        Ok(v)
    }
}
