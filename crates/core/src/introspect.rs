//! The in-band introspection plane: the reserved `_ZcTelemetry` object.
//!
//! Every ORB auto-registers a [`TelemetryServant`] in its object adapter
//! under the wire-constant key [`zc_cdr::wire::ZC_TELEMETRY_KEY`], so any
//! peer that can speak plain GIOP to the server can read its telemetry —
//! the monitoring plane *is* the object plane, SLS-style, with no side
//! channel to deploy or secure separately. Design constraints:
//!
//! * **Two operations, both with callers.** `ping` (the overload poller's
//!   liveness probe) and `snapshot_json` (what `zc-top` renders). Neither
//!   takes a wire argument, so a hostile poller sizes nothing: a reply is
//!   bounded by the fixed registry sizes.
//! * **Inline-path only.** Every reply is a `String` (or `u32`), which
//!   marshals on the conventional CDR path. Introspection therefore keeps
//!   working when the peer is foreign, when the connection negotiated the
//!   copying path, or when the deposit path itself is what an operator is
//!   debugging.
//! * **Idempotent.** Both operations are pure reads; the client wrapper
//!   marks them `.idempotent()` so the retry machinery may re-poll after
//!   reply loss without at-most-once hazards.

use std::sync::Arc;

use zc_buffers::{CopyMeter, PagePool};
use zc_cdr::wire::{ZC_TELEMETRY_KEY, ZC_TELEMETRY_REPO_ID};
use zc_giop::Ior;
use zc_trace::Telemetry;

use crate::adapter::{Servant, ServerRequest};
use crate::orb::Orb;
use crate::proxy::ObjectRef;
use crate::OrbResult;

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
            "snapshot_json" => {
                let meter = self.meter.snapshot();
                let snapshot = self.telemetry.orb_snapshot(meter, self.pool.stats());
                req.result(&snapshot.json_lines())
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
    use zc_cdr::ByteOrder;

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

    /// The contract is `ping` and `snapshot_json`: anything else, the
    /// retired renderings included, is `BAD_OPERATION`.
    #[test]
    fn unknown_op_raises_bad_operation() {
        let oa = servant_with(Telemetry::disabled());
        for op in ["drop_tables", "snapshot_text", "prometheus", "timelines"] {
            let err =
                dispatch_local(&oa, ZC_TELEMETRY_KEY, op, &[], ByteOrder::native()).expect_err(op);
            match err {
                crate::OrbError::System(ex) => {
                    assert_eq!(ex.kind, zc_giop::SystemExceptionKind::BadOperation, "{op}")
                }
                other => panic!("{op}: unexpected {other:?}"),
            }
        }
    }
}
