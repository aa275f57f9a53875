//! The trace event: a tiny `Copy` record of one thing that happened on the
//! request path.
//!
//! Events are deliberately flat — six machine words, no strings, no heap —
//! so recording one cannot allocate and cannot perturb the zero-copy
//! numbers the recorder exists to explain. Context that would need a string
//! (operation names, peers) stays out of the event; the `trace_id` is the
//! join key back to richer request state.

use zc_buffers::byte_enum;

byte_enum! {
    /// The layer of the stack an event was recorded at. Mirrors the path of
    /// a request through the middleware: application → ORB core → GIOP
    /// engine → transport.
    pub enum TraceLayer {
        /// Application / benchmark harness.
        App = 0, "app";
        /// ORB core: proxies, dispatch, object adapter.
        Orb = 1, "orb";
        /// GIOP engine: request/reply framing, deposit manifests.
        Giop = 2, "giop";
        /// Transport: frames, speculation, the wire.
        Transport = 3, "transport";
    }
}

/// Declares every request-path signal exactly once. A row is
/// `Kind = wire byte, "report name", Layer => [cells it moves];` and the
/// [`EventKind`] enum, its `ALL`/`name`/`from_u8`/`layer`, and the fan-out
/// [`crate::Telemetry::emit`] performs all derive from it. The cells are
/// the fields of [`MetricsRegistry`](crate::MetricsRegistry),
/// [`LoadWindows`](crate::LoadWindows) and
/// [`TransportField`](crate::TransportField), moved by:
///
/// * `count c` — registry counter `c` += 1;
/// * `count_traced c` — the same, when the event carries a trace id;
/// * `rate r` — rate window `r` ticks once, on the event's own timestamp;
/// * `raise g` / `lower g` — gauge `g` ± 1;
/// * `sample h` — histogram `h` takes the payload as one sample;
/// * `stage h` — the per-stage histogram family takes the packed payload;
/// * `mirror F` — ORB-wide transport total `F` += 1.
///
/// Every kind also writes exactly one flight-recorder event.
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $byte:literal, $name:literal, $layer:ident => [$($op:ident $cell:ident),*];
    )*) => {
        byte_enum! {
            /// What happened.
            pub enum EventKind => TraceLayer {
                $($(#[$doc])* $kind = $byte, $name => TraceLayer::$layer;)*
            }
        }

        impl EventKind {
            /// The stack layer the kind's events are filed under (a
            /// [`EventKind::Stage`] event is filed under its stage's own
            /// layer instead, see [`crate::Stage::layer`]).
            pub fn layer(self) -> TraceLayer {
                self.row()
            }
        }

        /// Move every cell `ev.kind` declares, fed by `ev` itself.
        #[inline]
        pub(crate) fn book(t: &crate::Telemetry, ev: &TraceEvent) {
            match ev.kind {
                $(EventKind::$kind => {
                    $(event_kinds!(@cell t ev $op $cell);)*
                })*
            }
        }
    };
    (@cell $t:ident $ev:ident count $c:ident) => {
        $t.metrics.$c.incr()
    };
    (@cell $t:ident $ev:ident count_traced $c:ident) => {
        if $ev.trace_id != 0 {
            $t.metrics.$c.incr()
        }
    };
    (@cell $t:ident $ev:ident rate $r:ident) => {
        $t.windows.$r.tick($ev.ts_ns, 1)
    };
    (@cell $t:ident $ev:ident raise $g:ident) => {
        $t.windows.$g.add(1)
    };
    (@cell $t:ident $ev:ident lower $g:ident) => {
        $t.windows.$g.sub(1)
    };
    (@cell $t:ident $ev:ident sample $h:ident) => {
        $t.metrics.$h.record($ev.payload)
    };
    (@cell $t:ident $ev:ident stage $h:ident) => {
        if let Some((stage, dur_ns)) = crate::unpack_stage($ev.payload) {
            $t.metrics.$h.record(stage, dur_ns)
        }
    };
    (@cell $t:ident $ev:ident mirror $f:ident) => {
        $t.transport.add(crate::TransportField::$f, 1)
    };
}

event_kinds! {
    /// A Request left this endpoint (payload: announced deposit bytes).
    RequestSent = 0, "request-sent", Giop => [count requests_sent];
    /// A Request arrived and was admitted (payload: announced deposit
    /// bytes).
    RequestReceived = 1, "request-recv", Giop =>
        [count requests_received, count_traced trace_contexts_seen, rate req_rx];
    /// A Reply left this endpoint (payload: result bytes).
    ReplySent = 2, "reply-sent", Giop => [];
    /// A successful Reply arrived (payload: body bytes).
    ReplyReceived = 3, "reply-recv", Giop => [count replies_ok];
    /// One deposit block shipped (payload: block bytes).
    DepositSent = 4, "deposit-sent", Giop => [sample deposit_block_bytes];
    /// One deposit block landed (payload: block bytes).
    DepositReceived = 5, "deposit-recv", Giop => [];
    /// A zero-copy receive speculation held (payload: block bytes).
    SpecHit = 6, "spec-hit", Transport => [mirror SpecHits];
    /// A speculation missed; the fallback copy ran (payload: block bytes).
    SpecMiss = 7, "spec-miss", Transport => [mirror SpecMisses];
    /// Client-side invocation completed (payload: latency in ns).
    Invoke = 8, "invoke", Orb => [sample request_latency_ns];
    /// Server-side servant dispatch completed (payload: duration in ns).
    Dispatch = 9, "dispatch", Orb => [sample dispatch_ns];
    /// A system exception left this endpoint in a Reply (payload: its
    /// minor code).
    Error = 10, "error", Giop => [];
    /// A failed invocation is being retried (payload: attempt number).
    Retry = 11, "retry", Orb => [count retries, rate retries];
    /// A dead connection was replaced by a fresh one (payload: new conn id).
    Reconnect = 12, "reconnect", Orb => [count reconnects];
    /// An endpoint circuit breaker opened (payload: consecutive failures).
    BreakerOpen = 13, "breaker-open", Orb => [count breaker_opens, raise breakers_open];
    // 14 and 15 are retired (ZC→copy degrade / re-upgrade): never reuse them.
    /// One request-span stage completed (payload: stage discriminant in the
    /// top byte, duration in ns in the low 56 bits — see
    /// [`crate::pack_stage`]).
    Stage = 16, "stage", Orb => [stage stage_ns];
    /// Admission control shed a request before dispatch
    /// (payload: announced request bytes, body plus deposits).
    Shed = 17, "shed", Orb => [count sheds, rate shed];
    /// A bulk request was shed by brownout-mode admission while
    /// control-plane traffic stayed admitted (payload: announced bytes).
    /// A brownout shed is a shed: it moves both sets of cells.
    Brownout = 18, "brownout", Orb =>
        [count sheds, count brownout_sheds, rate shed, rate brownout];
    /// The client rotated an object reference to another IOR profile
    /// (payload: index of the newly active profile).
    Failover = 19, "failover", Orb => [count failovers, rate failover];
    /// One attempt of a logical request journey began (payload: cause tag,
    /// attempt ordinal and journey id packed per [`pack_attempt`]). The
    /// event's `trace_id` is the attempt's per-send trace id — the join key
    /// from journey to that attempt's stage timeline.
    Attempt = 20, "attempt", Orb => [];
    /// An open circuit breaker closed: its cooldown admitted a half-open
    /// trial, or a call to its endpoint succeeded (payload: 0).
    BreakerClose = 21, "breaker-close", Orb => [lower breakers_open];
    /// A Reply carrying a system exception arrived (payload: its minor
    /// code).
    ExceptionReceived = 22, "exception-recv", Giop => [count replies_exception];
}

byte_enum! {
    /// Why an attempt of a logical request journey exists. The first
    /// attempt is `Initial`; every later attempt carries the recovery path
    /// that produced it.
    pub enum JourneyCause {
        /// The first attempt of the journey.
        Initial = 0, "initial";
        /// A fresh connection was dialed to the same profile and the
        /// request was re-sent.
        Retry = 1, "retry";
        /// The reference rotated to another profile of its object group.
        Failover = 2, "failover";
        /// The active replica shed the request (`TRANSIENT`) and the
        /// reference rotated to the next live replica.
        ShedRotate = 3, "shed-rotate";
        // 4 is retired (a degraded connection's zero-copy probe): never reuse it.
    }
}

/// Low 48 bits of an [`EventKind::Attempt`] payload: the journey id.
pub const JOURNEY_ID_MASK: u64 = (1 << 48) - 1;

/// Pack an attempt's cause, ordinal and journey id into one event payload:
/// cause in the top byte, attempt ordinal (saturated to 255) below it, the
/// journey id in the low 48 bits.
pub fn pack_attempt(cause: JourneyCause, attempt: u32, journey_id: u64) -> u64 {
    ((cause as u64) << 56) | ((attempt.min(255) as u64) << 48) | (journey_id & JOURNEY_ID_MASK)
}

/// Inverse of [`pack_attempt`]. `None` for an unknown cause byte.
pub fn unpack_attempt(payload: u64) -> Option<(JourneyCause, u32, u64)> {
    let cause = JourneyCause::from_u8((payload >> 56) as u8)?;
    let attempt = ((payload >> 48) & 0xFF) as u32;
    Some((cause, attempt, payload & JOURNEY_ID_MASK))
}

/// One recorded event. Small and `Copy`: recording moves six words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch ([`crate::now_ns`]).
    pub ts_ns: u64,
    /// The connection the event belongs to ([`crate::next_conn_id`]).
    pub conn_id: u64,
    /// The invocation the event belongs to; `0` when unknown (e.g. a
    /// request from a peer that does not stamp `ZC_TRACE` contexts).
    pub trace_id: u64,
    /// Stack layer.
    pub layer: TraceLayer,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific scalar (bytes, nanoseconds, error code).
    pub payload: u64,
}

impl TraceEvent {
    /// Pack layer + kind into one word for the recorder's atomic slot.
    pub(crate) fn meta(&self) -> u64 {
        ((self.layer as u64) << 8) | self.kind as u64
    }

    /// Inverse of [`TraceEvent::meta`].
    pub(crate) fn unpack_meta(meta: u64) -> Option<(TraceLayer, EventKind)> {
        let layer = TraceLayer::from_u8(((meta >> 8) & 0xFF) as u8)?;
        let kind = EventKind::from_u8((meta & 0xFF) as u8)?;
        Some((layer, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        for layer in TraceLayer::ALL {
            for kind in EventKind::ALL {
                let ev = TraceEvent {
                    ts_ns: 0,
                    conn_id: 0,
                    trace_id: 0,
                    layer,
                    kind,
                    payload: 0,
                };
                assert_eq!(TraceEvent::unpack_meta(ev.meta()), Some((layer, kind)));
            }
        }
    }

    #[test]
    fn bad_meta_rejected() {
        assert_eq!(TraceEvent::unpack_meta(0xFF00), None);
        assert_eq!(TraceEvent::unpack_meta(0x00FF), None);
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn attempt_payload_roundtrip() {
        for cause in JourneyCause::ALL {
            let p = pack_attempt(cause, 3, 0x0000_1234_5678_9ABC);
            assert_eq!(
                unpack_attempt(p),
                Some((cause, 3, 0x0000_1234_5678_9ABC)),
                "{cause:?}"
            );
        }
        // Attempt ordinals saturate at one byte; journey ids mask to 48 bits.
        let p = pack_attempt(JourneyCause::Retry, 1_000, u64::MAX);
        assert_eq!(
            unpack_attempt(p),
            Some((JourneyCause::Retry, 255, JOURNEY_ID_MASK))
        );
        // An unknown cause byte is rejected, not misread.
        assert_eq!(unpack_attempt(0xFF << 56), None);
    }

    /// Segments a parent build wrote may still hold the retired bytes: they
    /// must read as unknown, never as some later kind or cause.
    #[test]
    fn retired_bytes_stay_unknown() {
        assert_eq!(EventKind::from_u8(14), None);
        assert_eq!(EventKind::from_u8(15), None);
        assert_eq!(JourneyCause::from_u8(4), None);
        assert_eq!(unpack_attempt(4 << 56 | 9), None);
    }

    #[test]
    fn cause_names_are_distinct() {
        let mut names: Vec<&str> = JourneyCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), JourneyCause::ALL.len());
        for cause in JourneyCause::ALL {
            assert_eq!(JourneyCause::from_u8(cause as u8), Some(cause));
        }
    }
}
