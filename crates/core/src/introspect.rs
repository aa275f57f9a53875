//! The in-band introspection plane: the reserved `_ZcTelemetry` object.
//!
//! Every ORB auto-registers a [`TelemetryServant`] in its object adapter
//! under the wire-constant key [`zc_cdr::wire::ZC_TELEMETRY_KEY`], so any
//! peer that can speak plain GIOP to the server can read its telemetry —
//! the monitoring plane *is* the object plane, SLS-style, with no side
//! channel to deploy or secure separately. Design constraints:
//!
//! * **Inline-path only.** Every reply is a `String` (or `u32`), which
//!   marshals on the conventional CDR path. Introspection therefore keeps
//!   working when the connection has degraded ZC→copy, when the peer is
//!   foreign, or when the deposit path itself is what an operator is
//!   debugging.
//! * **Idempotent.** All operations are pure reads; the client wrapper
//!   marks them `.idempotent()` so the retry machinery may re-poll after
//!   reply loss without at-most-once hazards.
//! * **Clamped.** The one operation that takes a wire argument
//!   (`timelines`, a requested span count) clamps it to
//!   [`MAX_TIMELINES`]; a hostile poller cannot size server work or
//!   allocations beyond that. Snapshot renders are bounded by the fixed
//!   registry/ring sizes.

use std::fmt::Write as _;
use std::sync::Arc;

use zc_buffers::{CopyMeter, PagePool};
use zc_cdr::wire::{ZC_TELEMETRY_KEY, ZC_TELEMETRY_REPO_ID};
use zc_giop::Ior;
use zc_trace::{prometheus_text, span_timelines, OrbTelemetry, Stage, Telemetry};

use crate::adapter::{Servant, ServerRequest};
use crate::orb::Orb;
use crate::proxy::ObjectRef;
use crate::OrbResult;

/// Hard cap on the number of span timelines one `timelines` call returns.
/// The request argument is attacker-controlled; this clamp bounds both the
/// render size and the work a poll can demand.
pub const MAX_TIMELINES: u32 = 64;

/// The servant behind the reserved `_ZcTelemetry` key.
pub struct TelemetryServant {
    telemetry: Arc<Telemetry>,
    meter: Arc<CopyMeter>,
    pool: PagePool,
}

impl TelemetryServant {
    /// Bundle the ORB's accounting handles. Called by `OrbBuilder::build`;
    /// user code never constructs one.
    pub(crate) fn new(
        telemetry: Arc<Telemetry>,
        meter: Arc<CopyMeter>,
        pool: PagePool,
    ) -> TelemetryServant {
        TelemetryServant {
            telemetry,
            meter,
            pool,
        }
    }

    fn snapshot(&self) -> OrbTelemetry {
        self.telemetry
            .orb_snapshot(self.meter.snapshot(), self.pool.stats())
    }

    /// Decode the `timelines` operation's wire argument. This is the one
    /// place untrusted request bytes become a value in this module, and it
    /// is a configured zc-audit taint entrypoint: the count is clamped to
    /// [`MAX_TIMELINES`] before it can size any downstream work.
    fn decode(req: &mut ServerRequest<'_>) -> OrbResult<u32> {
        let requested: u32 = req.arg()?;
        Ok(requested.min(MAX_TIMELINES))
    }

    fn timelines_text(&self, max: usize) -> String {
        if !self.telemetry.is_enabled() {
            return "telemetry disabled\n".to_string();
        }
        let events = self.telemetry.recorder().events();
        let timelines = span_timelines(&events);
        let start = timelines.len().saturating_sub(max);
        let mut out = String::new();
        for tl in &timelines[start..] {
            let _ = write!(
                out,
                "trace {:>6}  stages {:>2}  critical_path_ns {:>12} ",
                tl.trace_id,
                tl.stage_count(),
                tl.critical_path_ns()
            );
            for stage in Stage::ALL {
                if let Some(s) = tl.get(stage) {
                    let _ = write!(out, " {}={}", stage.name(), s.dur_ns);
                }
            }
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("no complete spans recorded\n");
        }
        out
    }
}

impl Servant for TelemetryServant {
    fn repo_id(&self) -> &'static str {
        ZC_TELEMETRY_REPO_ID
    }

    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            // Liveness probe; also lets pollers measure management RTT.
            "ping" => req.result(&1u32),
            // The full OrbTelemetry snapshot as JSON lines (the machine
            // format zc-top consumes).
            "snapshot_json" => req.result(&self.snapshot().json_lines()),
            // The human text table.
            "snapshot_text" => req.result(&self.snapshot().text_table()),
            // Prometheus text exposition of the same snapshot.
            "prometheus" => req.result(&prometheus_text(&self.snapshot())),
            // The most recent span timelines, newest last.
            "timelines" => {
                let max = Self::decode(req)?;
                req.result(&self.timelines_text(max as usize))
            }
            other => req.bad_operation(other),
        }
    }
}

/// Client-side wrapper for a remote `_ZcTelemetry` object.
///
/// All calls are marked idempotent: they are pure reads, safe to re-send
/// after reply loss.
pub struct TelemetryClient {
    obj: ObjectRef,
}

impl TelemetryClient {
    /// Resolve the reserved `_ZcTelemetry` object at `host:port` over a
    /// *private* connection, so polling never serializes behind the
    /// caller's data traffic on a shared connection.
    pub fn connect(orb: &Orb, host: &str, port: u16) -> OrbResult<TelemetryClient> {
        let ior = Ior::new_iiop(ZC_TELEMETRY_REPO_ID, host, port, ZC_TELEMETRY_KEY);
        Ok(TelemetryClient {
            obj: orb.resolve_private(&ior)?,
        })
    }

    /// Wrap an already-resolved reference (e.g. from a shared connection).
    pub fn from_object(obj: ObjectRef) -> TelemetryClient {
        TelemetryClient { obj }
    }

    /// Liveness probe; returns the protocol constant `1`.
    pub fn ping(&self) -> OrbResult<u32> {
        self.obj.request("ping").idempotent().invoke()?.result()
    }

    /// The server's full telemetry snapshot as JSON lines.
    pub fn snapshot_json(&self) -> OrbResult<String> {
        self.obj
            .request("snapshot_json")
            .idempotent()
            .invoke()?
            .result()
    }

    /// The server's telemetry snapshot as an aligned text table.
    pub fn snapshot_text(&self) -> OrbResult<String> {
        self.obj
            .request("snapshot_text")
            .idempotent()
            .invoke()?
            .result()
    }

    /// Prometheus text exposition of the server's snapshot.
    pub fn prometheus(&self) -> OrbResult<String> {
        self.obj
            .request("prometheus")
            .idempotent()
            .invoke()?
            .result()
    }

    /// Up to `max` recent span timelines (server-clamped to
    /// [`MAX_TIMELINES`]).
    pub fn timelines(&self, max: u32) -> OrbResult<String> {
        self.obj
            .request("timelines")
            .arg(&max)?
            .idempotent()
            .invoke()?
            .result()
    }
}

impl std::fmt::Debug for TelemetryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TelemetryClient(_ZcTelemetry)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::dispatch_local;
    use zc_cdr::{ByteOrder, CdrEncoder};

    fn servant_with(tele: Arc<Telemetry>) -> crate::ObjectAdapter {
        let oa = crate::ObjectAdapter::new();
        oa.register_key(
            ZC_TELEMETRY_KEY,
            Arc::new(TelemetryServant::new(
                tele,
                CopyMeter::new_shared(),
                PagePool::default_for_orb(),
            )),
        );
        oa
    }

    #[test]
    fn snapshot_json_serves_sections() {
        let tele = Telemetry::with_capacity(64);
        tele.emit(zc_trace::EventKind::RequestReceived, 1, 0, 0);
        let oa = servant_with(tele);
        let reply = dispatch_local(
            &oa,
            ZC_TELEMETRY_KEY,
            "snapshot_json",
            &[],
            ByteOrder::native(),
        )
        .unwrap();
        let mut dec = zc_cdr::CdrDecoder::new(&reply, ByteOrder::native());
        let text = <String as zc_cdr::CdrMarshal>::demarshal(&mut dec).unwrap();
        assert!(text.contains("\"section\":\"load\""), "{text}");
        assert!(
            text.contains("\"name\":\"requests_received\",\"value\":1"),
            "{text}"
        );
    }

    #[test]
    fn timelines_clamps_hostile_count() {
        let tele = Telemetry::with_capacity(64);
        let oa = servant_with(tele);
        let mut enc = CdrEncoder::new(ByteOrder::native());
        enc.write_u32(u32::MAX); // hostile: asks for 4 billion timelines
        let args = enc.finish_stream();
        let reply = dispatch_local(
            &oa,
            ZC_TELEMETRY_KEY,
            "timelines",
            &args,
            ByteOrder::native(),
        )
        .unwrap();
        let mut dec = zc_cdr::CdrDecoder::new(&reply, ByteOrder::native());
        let text = <String as zc_cdr::CdrMarshal>::demarshal(&mut dec).unwrap();
        // Bounded reply, not an OOM: the ring holds no spans yet.
        assert!(text.contains("no complete spans"), "{text}");
    }

    #[test]
    fn unknown_op_raises_bad_operation() {
        let tele = Telemetry::disabled();
        let oa = servant_with(tele);
        let err = dispatch_local(
            &oa,
            ZC_TELEMETRY_KEY,
            "drop_tables",
            &[],
            ByteOrder::native(),
        )
        .unwrap_err();
        match err {
            crate::OrbError::System(ex) => {
                assert_eq!(ex.kind, zc_giop::SystemExceptionKind::BadOperation)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
