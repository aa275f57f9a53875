//! Per-request causal spans: monotonic stage clocks along the data path.
//!
//! The paper's §5.2 table attributes every microsecond of a request to a
//! stage of the stack (CDR marshaling, socket copies, the wire, dispatch).
//! This module is the recording side of that decomposition: a [`Stage`]
//! names one leg of the request's journey, and a [`RequestSpan`] accumulates
//! stage durations for one invocation until the trace id is known, then
//! commits them as ordinary flight-recorder events (kind
//! [`crate::EventKind::Stage`], stage + duration packed into the payload
//! word) and per-stage histogram samples.
//!
//! Client and server record their own legs; the two half-timelines join on
//! the `ZC_TRACE` trace id (see [`span_timelines`]). The `wire` legs are
//! computed by the *receiver* from the `sent_at` timestamp the sender
//! stamps into its trace context — valid whenever both endpoints share the
//! [`crate::now_ns`] clock (always true for the in-process Sim and
//! loopback-TCP experiments this repo runs).
//!
//! Everything on the recording side obeys the recorder's discipline: no
//! allocation, no locks, and a disabled span is inert after one boolean
//! test. Rendering (tables, the §5.2 breakdown) lives in `zc-bench`.

use crate::event::{TraceEvent, TraceLayer};
use zc_buffers::byte_enum;
use TraceLayer::{Giop, Orb, Transport};

// Which endpoint records a stage.
const CLIENT: bool = true;
const SERVER: bool = false;

byte_enum! {
    /// One leg of a request's journey through the stack, in causal
    /// data-path order (the discriminants index [`Stage::ALL`]). The client
    /// records the `Client*` legs, the server the `Server*` legs plus
    /// [`Stage::Wire`]; [`Stage::ClientReplyWire`] is computed by the
    /// client from the server's reply timestamp. A row's value is the layer
    /// the stage's event is recorded at and the side that records it.
    pub enum Stage => (TraceLayer, bool) {
        /// Client: marshaling the arguments into the request body (the CDR
        /// copy that zero-copy descriptors eliminate).
        ClientMarshal = 0, "marshal" => (Orb, CLIENT);
        /// Client: assembling the request header, deposit manifest and
        /// service contexts — the control-path "deposit registration" of
        /// §4.4.
        ClientDepositRegister = 1, "deposit-register" => (Giop, CLIENT);
        /// Client: handing the control message and deposit blocks to the
        /// transport (includes the socket send copies on the copying
        /// path). A sub-interval of [`Stage::Wire`], reported separately so
        /// the send-side socket cost is visible on its own.
        ClientSend = 2, "send" => (Giop, CLIENT);
        /// Sender-stamp → receiver-arrival for the request: encode + send +
        /// flight + kernel receive, as observed by the server against the
        /// `sent_at` timestamp in the trace context.
        Wire = 3, "wire" => (Transport, SERVER);
        /// Server: pulling the announced deposit blocks off the data path
        /// (zero copies on a speculative hit; the fallback copy otherwise).
        ServerRecv = 4, "recv" => (Giop, SERVER);
        /// Server: CDR-demarshaling the arguments the servant actually
        /// reads.
        ServerDemarshal = 5, "demarshal" => (Orb, SERVER);
        /// Server: servant execution, excluding measured demarshal/marshal.
        ServerDispatch = 6, "dispatch" => (Orb, SERVER);
        /// Server: marshaling the reply results (descriptor writes under
        /// ZC).
        ServerReplyMarshal = 7, "reply-marshal" => (Giop, SERVER);
        /// Server-stamp → client-arrival for the reply, symmetric to
        /// [`Stage::Wire`].
        ClientReplyWire = 8, "reply-wire" => (Transport, CLIENT);
        /// Client: parsing the reply header and collecting reply deposits.
        ClientReplyDemarshal = 9, "reply-demarshal" => (Giop, CLIENT);
    }
}

impl Stage {
    /// The stack layer a stage's event is recorded at.
    pub fn layer(self) -> TraceLayer {
        self.row().0
    }

    /// Whether this leg is recorded by the request's client side.
    pub fn is_client(self) -> bool {
        self.row().1
    }
}

/// Low 56 bits of a `Stage` event's payload hold the duration; the top
/// byte holds the stage discriminant. 2^56 ns ≈ 2.3 years, far beyond any
/// request.
pub const STAGE_DUR_MASK: u64 = (1u64 << 56) - 1;

/// Pack a stage + duration into one event payload word.
#[inline]
pub fn pack_stage(stage: Stage, dur_ns: u64) -> u64 {
    ((stage as u64) << 56) | (dur_ns & STAGE_DUR_MASK)
}

/// Inverse of [`pack_stage`]. `None` for an unknown stage discriminant.
#[inline]
pub fn unpack_stage(payload: u64) -> Option<(Stage, u64)> {
    Stage::from_u8((payload >> 56) as u8).map(|s| (s, payload & STAGE_DUR_MASK))
}

/// An accumulator for stages whose work is scattered across calls (per-arg
/// marshaling in a proxy, per-arg demarshaling in a servant) or measured
/// before the request's trace id exists. Fixed-size, allocation-free; a
/// disabled span is inert after one boolean test.
#[derive(Debug)]
pub struct RequestSpan {
    enabled: bool,
    marked: u16,
    acc: [u64; Stage::COUNT],
}

impl RequestSpan {
    /// A span that accumulates when `enabled`, and is inert otherwise.
    pub fn new(enabled: bool) -> RequestSpan {
        RequestSpan {
            enabled,
            marked: 0,
            acc: [0; Stage::COUNT],
        }
    }

    /// The inert span.
    pub fn disabled() -> RequestSpan {
        RequestSpan::new(false)
    }

    /// Whether this span accumulates.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing a leg: `Some(now)` when enabled, `None` (no clock read)
    /// otherwise. Pair with [`RequestSpan::end`].
    #[inline]
    pub fn begin(&self) -> Option<std::time::Instant> {
        if self.enabled {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Close a leg opened by [`RequestSpan::begin`], accumulating its
    /// elapsed time under `stage`. A `None` start is a no-op.
    #[inline]
    pub fn end(&mut self, stage: Stage, started: Option<std::time::Instant>) {
        if let Some(t0) = started {
            self.add(stage, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Accumulate `dur_ns` under `stage` (and mark the stage as observed).
    #[inline]
    pub fn add(&mut self, stage: Stage, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        self.marked |= 1 << stage as u16;
        self.acc[stage as usize] += dur_ns;
    }

    /// Accumulated nanoseconds for `stage`.
    #[inline]
    pub fn get(&self, stage: Stage) -> u64 {
        self.acc[stage as usize]
    }

    /// Whether `stage` was observed at least once.
    #[inline]
    pub fn is_marked(&self, stage: Stage) -> bool {
        self.marked & (1 << stage as u16) != 0
    }

    /// Record every observed stage into `tele` (event + histogram) under
    /// the request's ids, then clear the marks so a retry loop cannot
    /// commit the same legs twice.
    pub fn commit(&mut self, tele: &crate::Telemetry, conn_id: u64, trace_id: u64) {
        if !self.enabled || self.marked == 0 {
            return;
        }
        for stage in Stage::ALL {
            if self.is_marked(stage) {
                tele.emit(
                    crate::EventKind::Stage,
                    conn_id,
                    trace_id,
                    pack_stage(stage, self.acc[stage as usize]),
                );
            }
        }
        self.marked = 0;
    }
}

/// One stage observation within a reconstructed timeline. `ts_ns` is the
/// *commit* timestamp (when the leg's event was recorded, i.e. at or after
/// the leg's end), `dur_ns` the measured duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSample {
    /// Commit timestamp ([`crate::now_ns`] clock).
    pub ts_ns: u64,
    /// Measured duration of the leg, in nanoseconds.
    pub dur_ns: u64,
    /// Connection the leg was recorded on.
    pub conn_id: u64,
}

/// One request's stage timeline, joined across endpoints on its trace id.
#[derive(Debug, Clone)]
pub struct SpanTimeline {
    /// The request's trace id.
    pub trace_id: u64,
    stages: [Option<StageSample>; Stage::COUNT],
}

impl SpanTimeline {
    fn empty(trace_id: u64) -> SpanTimeline {
        SpanTimeline {
            trace_id,
            stages: [None; Stage::COUNT],
        }
    }

    /// The observation for `stage`, if any. When a stage was recorded more
    /// than once for the same trace id (retries), the last one wins.
    pub fn get(&self, stage: Stage) -> Option<StageSample> {
        self.stages[stage as usize]
    }

    /// Number of stages observed.
    pub fn stage_count(&self) -> usize {
        self.stages.iter().filter(|s| s.is_some()).count()
    }

    /// Sum of the *disjoint* critical-path legs (every stage except
    /// [`Stage::ClientSend`], which is a sub-interval of [`Stage::Wire`]).
    /// For a complete timeline this is comparable to the client-observed
    /// round-trip latency, minus scheduling gaps.
    pub fn critical_path_ns(&self) -> u64 {
        Stage::ALL
            .into_iter()
            .filter(|s| *s != Stage::ClientSend)
            .filter_map(|s| self.get(s))
            .map(|s| s.dur_ns)
            .sum()
    }
}

/// Join `Stage` events into per-request timelines, one per distinct
/// non-zero trace id, ordered by trace id. Feed it a flight-recorder
/// snapshot that covers both endpoints (one shared telemetry, or the
/// concatenation of both ends' events).
pub fn span_timelines(events: &[TraceEvent]) -> Vec<SpanTimeline> {
    let mut out: Vec<SpanTimeline> = Vec::new();
    for ev in events {
        if ev.kind != crate::event::EventKind::Stage || ev.trace_id == 0 {
            continue;
        }
        let Some((stage, dur_ns)) = unpack_stage(ev.payload) else {
            continue;
        };
        let idx = match out.iter().position(|t| t.trace_id == ev.trace_id) {
            Some(i) => i,
            None => {
                out.push(SpanTimeline::empty(ev.trace_id));
                out.len() - 1
            }
        };
        out[idx].stages[stage as usize] = Some(StageSample {
            ts_ns: ev.ts_ns,
            dur_ns,
            conn_id: ev.conn_id,
        });
    }
    out.sort_unstable_by_key(|t| t.trace_id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn stage_discriminants_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_u8(s as u8), Some(s));
        }
        assert_eq!(Stage::from_u8(10), None);
        assert_eq!(Stage::from_u8(255), None);
    }

    #[test]
    fn stage_names_are_distinct() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for s in Stage::ALL {
            for dur in [0u64, 1, 12_345, STAGE_DUR_MASK] {
                assert_eq!(unpack_stage(pack_stage(s, dur)), Some((s, dur)));
            }
        }
        // an over-range duration is truncated, not spilled into the stage byte
        let p = pack_stage(Stage::Wire, u64::MAX);
        assert_eq!(unpack_stage(p), Some((Stage::Wire, STAGE_DUR_MASK)));
        // unknown stage byte rejected
        assert_eq!(unpack_stage(0xFFu64 << 56), None);
    }

    #[test]
    fn span_accumulates_and_commits_once() {
        let tele = crate::Telemetry::with_capacity(64);
        let mut span = RequestSpan::new(true);
        span.add(Stage::ClientMarshal, 100);
        span.add(Stage::ClientMarshal, 50);
        assert_eq!(span.get(Stage::ClientMarshal), 150);
        assert!(span.is_marked(Stage::ClientMarshal));
        assert!(!span.is_marked(Stage::Wire));
        span.commit(&tele, 7, 42);
        span.commit(&tele, 7, 42); // second commit is a no-op
        let events = tele.recorder().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Stage);
        assert_eq!(events[0].trace_id, 42);
        assert_eq!(
            unpack_stage(events[0].payload),
            Some((Stage::ClientMarshal, 150))
        );
        let snap = tele.metrics().snapshot();
        assert_eq!(snap.stage_ns.get(Stage::ClientMarshal).count, 1);
        assert_eq!(snap.stage_ns.get(Stage::ClientMarshal).sum, 150);
    }

    #[test]
    fn disabled_span_is_inert() {
        let tele = crate::Telemetry::with_capacity(64);
        let mut span = RequestSpan::disabled();
        assert!(span.begin().is_none());
        span.add(Stage::ClientMarshal, 100);
        span.commit(&tele, 1, 2);
        assert_eq!(tele.recorder().recorded(), 0);
    }

    #[test]
    fn begin_end_measures_something() {
        let mut span = RequestSpan::new(true);
        let t0 = span.begin();
        assert!(t0.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        span.end(Stage::ServerDispatch, t0);
        assert!(span.get(Stage::ServerDispatch) >= 1_000_000);
    }

    #[test]
    fn timelines_join_on_trace_id() {
        let tele = crate::Telemetry::with_capacity(64);
        // request 42: client legs on conn 1, server legs on conn 2
        tele.emit(
            EventKind::Stage,
            1,
            42,
            pack_stage(Stage::ClientMarshal, 10),
        );
        tele.emit(EventKind::Stage, 1, 42, pack_stage(Stage::ClientSend, 5));
        tele.emit(EventKind::Stage, 2, 42, pack_stage(Stage::Wire, 30));
        tele.emit(
            EventKind::Stage,
            2,
            42,
            pack_stage(Stage::ServerDispatch, 20),
        );
        // request 43: one leg; untraced stage events are ignored
        tele.emit(EventKind::Stage, 1, 43, pack_stage(Stage::ClientMarshal, 7));
        tele.emit(EventKind::Stage, 1, 0, pack_stage(Stage::ClientMarshal, 99));
        let tl = span_timelines(&tele.recorder().events());
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].trace_id, 42);
        assert_eq!(tl[0].stage_count(), 4);
        assert_eq!(tl[0].get(Stage::Wire).unwrap().dur_ns, 30);
        assert_eq!(tl[0].get(Stage::Wire).unwrap().conn_id, 2);
        // critical path excludes ClientSend (sub-interval of Wire)
        assert_eq!(tl[0].critical_path_ns(), 10 + 30 + 20);
        assert_eq!(tl[1].trace_id, 43);
        assert_eq!(tl[1].stage_count(), 1);
    }
}
