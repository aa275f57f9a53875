//! Server-side admission control: bounded dispatch queues with early
//! shedding and a watermark-based brownout mode.
//!
//! An overloaded thread-per-connection server fails in a characteristic
//! way: every connection keeps reading requests, every request pins
//! deposit pages and queues for dispatch, and once the offered load passes
//! saturation *all* requests finish late — goodput collapses even though
//! the server is doing maximal work. Admission control converts that
//! collapse into a plateau by refusing work it cannot finish in time,
//! **before** the expensive part of the receive path runs:
//!
//! * the gate sits between GIOP request-header decode and deposit
//!   collection, so a shed request never pins pool pages and never enters
//!   the dispatcher — the refusal costs one small `TRANSIENT` reply;
//! * the budget is two-dimensional (in-flight **requests** and announced
//!   in-flight **bytes**), because a queue of tiny control calls and a
//!   queue of multi-megabyte deposits saturate different resources;
//! * a **brownout** watermark below the hard budget sheds only bulk
//!   zero-copy deposits while still admitting small calls, degrading the
//!   data plane first;
//! * a **reserved lane** keeps control-plane objects (keys in the
//!   reserved `_`-prefix namespace, e.g. the `_ZcTelemetry` introspection
//!   object) answerable up to the hard cap, so operators can still observe
//!   a saturated server — the moment you most need telemetry is exactly
//!   when the data plane is drowning.
//!
//! Shed replies are `TRANSIENT` with `completed = NO`: the request was
//! provably never dispatched, so the client may safely retry **any**
//! operation — or, for a replicated object group, rotate to the next
//! profile (see `proxy.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zc_cdr::wire::zc_vendor_id;
use zc_giop::{SystemException, SystemExceptionKind};

/// `TRANSIENT` minor code for a hard-budget shed (zcorba vendor space).
pub const MINOR_SHED_QUEUE_FULL: u32 = zc_vendor_id(0x20);
/// `TRANSIENT` minor code for a brownout (bulk-deposit) shed.
pub const MINOR_SHED_BROWNOUT: u32 = zc_vendor_id(0x21);
/// CORBA completion status `COMPLETED_NO` — shed before dispatch.
const COMPLETED_NO: u32 = 1;

/// The two hard budgets of one ORB's dispatch queue. The default is
/// unlimited (admission control disabled); [`AdmissionConfig::bounded`]
/// sets both. The gate derives its watermarks from them: brownout — bulk
/// (deposit-carrying) requests shed while small calls still pass — begins
/// at 3/4 of either budget, and 1/8 of the request slots (at least one)
/// are reserved for control-plane objects (reserved-key namespace,
/// `_`-prefix), so `_ZcTelemetry` polls keep answering under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Hard cap on concurrently admitted requests (dispatch queue depth
    /// across all connections).
    pub max_requests: u64,
    /// Hard cap on the sum of announced deposit bytes in flight.
    pub max_bytes: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::bounded(u64::MAX, u64::MAX)
    }
}

impl AdmissionConfig {
    /// A bounded queue of `max_requests` requests and `max_bytes` announced
    /// bytes.
    pub fn bounded(max_requests: u64, max_bytes: u64) -> AdmissionConfig {
        AdmissionConfig {
            max_requests,
            max_bytes,
        }
    }

    /// Whether this configuration can ever shed.
    pub fn is_unlimited(&self) -> bool {
        self.max_requests == u64::MAX && self.max_bytes == u64::MAX
    }
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// A hard budget (request slots or byte budget) is exhausted.
    QueueFull,
    /// The brownout watermark is reached and the request carries bulk
    /// deposits; small calls would still be admitted.
    Brownout,
}

impl ShedReason {
    /// The wire exception for this shed: `TRANSIENT`, `completed = NO`
    /// (never dispatched — safe for the client to retry or fail over).
    pub fn exception(self) -> SystemException {
        SystemException {
            kind: SystemExceptionKind::Transient,
            minor: match self {
                ShedReason::QueueFull => MINOR_SHED_QUEUE_FULL,
                ShedReason::Brownout => MINOR_SHED_BROWNOUT,
            },
            completed: COMPLETED_NO,
        }
    }
}

/// Classify an error as a server-side shed (`TRANSIENT`, `completed=NO`,
/// zcorba shed minor code). Used by clients deciding whether a failure is
/// overload (rotate/fail over) or something structural.
pub fn is_shed(ex: &SystemException) -> bool {
    ex.kind == SystemExceptionKind::Transient
        && ex.completed == COMPLETED_NO
        && (ex.minor == MINOR_SHED_QUEUE_FULL || ex.minor == MINOR_SHED_BROWNOUT)
}

#[derive(Debug)]
struct AdmissionState {
    config: AdmissionConfig,
    /// Brownout watermarks: at or above them, bulk requests are shed.
    brownout_requests: u64,
    brownout_bytes: u64,
    /// Request slots data-plane requests leave to the control plane.
    control_reserve: u64,
    inflight_requests: AtomicU64,
    inflight_bytes: AtomicU64,
}

/// The admission gate shared by every connection thread of one ORB.
/// Cheap to clone; owns its own counters so it works (and sheds) even
/// with telemetry disabled.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    state: Arc<AdmissionState>,
}

/// A successfully admitted request's reservation. Releases its request
/// slot and byte budget on drop — panic-safe: a dispatcher that unwinds
/// still returns its capacity.
#[derive(Debug)]
pub struct AdmissionTicket {
    state: Arc<AdmissionState>,
    bytes: u64,
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        self.state.inflight_requests.fetch_sub(1, Ordering::AcqRel);
        self.state
            .inflight_bytes
            .fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

impl AdmissionControl {
    /// Build a gate from a configuration.
    pub fn new(config: AdmissionConfig) -> AdmissionControl {
        let (r, b) = (config.max_requests, config.max_bytes);
        let (brownout_requests, brownout_bytes, control_reserve) = if config.is_unlimited() {
            (u64::MAX, u64::MAX, 0)
        } else {
            (r - r / 4, b - b / 4, (r / 8).max(1).min(r))
        };
        AdmissionControl {
            state: Arc::new(AdmissionState {
                config,
                brownout_requests,
                brownout_bytes,
                control_reserve,
                inflight_requests: AtomicU64::new(0),
                inflight_bytes: AtomicU64::new(0),
            }),
        }
    }

    /// A gate that admits everything (the default ORB behavior).
    pub fn unlimited() -> AdmissionControl {
        AdmissionControl::new(AdmissionConfig::default())
    }

    /// The configured budgets.
    pub fn config(&self) -> &AdmissionConfig {
        &self.state.config
    }

    /// Currently admitted `(requests, announced_bytes)` (diagnostics).
    pub fn inflight(&self) -> (u64, u64) {
        (
            self.state.inflight_requests.load(Ordering::Acquire),
            self.state.inflight_bytes.load(Ordering::Acquire),
        )
    }

    /// Decide one request's fate. `control_plane` marks reserved-key
    /// (`_`-prefix) objects that ride the reserved lane; `announced_bytes`
    /// is the deposit-manifest total (0 without deposits); `bulk` marks
    /// deposit-carrying requests (the ones brownout sheds first).
    ///
    /// On `Ok`, the returned ticket holds the reservation until dropped.
    pub fn admit(
        &self,
        control_plane: bool,
        announced_bytes: u64,
        bulk: bool,
    ) -> Result<AdmissionTicket, ShedReason> {
        let (state, cfg) = (&*self.state, &self.state.config);
        // Reserved lane: data-plane requests stop `control_reserve` slots
        // below the hard cap; control-plane requests may use them all.
        let slot_cap = if control_plane {
            cfg.max_requests
        } else {
            cfg.max_requests.saturating_sub(state.control_reserve)
        };
        // The brownout watermarks bind bulk data-plane requests only.
        let (slot_limit, byte_limit) = if bulk && !control_plane {
            (
                slot_cap.min(state.brownout_requests),
                cfg.max_bytes.min(state.brownout_bytes),
            )
        } else {
            (slot_cap, cfg.max_bytes)
        };

        // Reserve only what fits, one dimension at a time. A request that
        // is about to be shed must never hold capacity it is not entitled
        // to, even for an instant: with add-then-undo, concurrent
        // data-plane sheds push the counters past the caps, and a
        // `_ZcTelemetry` poll arriving in that window is shed from its own
        // reserved lane.
        if let Err(held) =
            state
                .inflight_requests
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                    (held < slot_limit).then_some(held + 1)
                })
        {
            return Err(if held >= slot_cap {
                ShedReason::QueueFull
            } else {
                ShedReason::Brownout
            });
        }
        if let Err(held) =
            state
                .inflight_bytes
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                    held.checked_add(announced_bytes)
                        .filter(|total| *total <= byte_limit)
                })
        {
            state.inflight_requests.fetch_sub(1, Ordering::AcqRel);
            return Err(if held.saturating_add(announced_bytes) > cfg.max_bytes {
                ShedReason::QueueFull
            } else {
                ShedReason::Brownout
            });
        }
        Ok(AdmissionTicket {
            state: Arc::clone(&self.state),
            bytes: announced_bytes,
        })
    }
}

/// Whether `object_key` addresses a control-plane object (the reserved
/// `_`-prefix key namespace, e.g. `_ZcTelemetry`).
pub fn is_control_plane_key(object_key: &[u8]) -> bool {
    object_key.first() == Some(&b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_admits_everything() {
        let gate = AdmissionControl::unlimited();
        assert!(gate.config().is_unlimited());
        let mut tickets = Vec::new();
        for i in 0..256 {
            tickets.push(gate.admit(false, 1 << 20, i % 2 == 0).unwrap());
        }
        assert_eq!(gate.inflight().0, 256);
        drop(tickets);
        assert_eq!(gate.inflight(), (0, 0));
    }

    #[test]
    fn hard_request_budget_sheds_queue_full() {
        // Three slots, one of them reserved: the data plane gets two.
        let gate = AdmissionControl::new(AdmissionConfig::bounded(3, u64::MAX));
        let t1 = gate.admit(false, 0, false).unwrap();
        let _t2 = gate.admit(false, 0, false).unwrap();
        assert!(matches!(
            gate.admit(false, 0, false),
            Err(ShedReason::QueueFull)
        ));
        // Releasing a slot re-admits.
        drop(t1);
        assert!(gate.admit(false, 0, false).is_ok());
    }

    #[test]
    fn byte_budget_sheds_and_releases() {
        let gate = AdmissionControl::new(AdmissionConfig::bounded(8, 1000));
        let t = gate.admit(false, 700, true).unwrap();
        // Past the hard budget the queue is full; past only the brownout
        // watermark (3/4 of it), bulk is shed as brownout.
        assert!(matches!(
            gate.admit(false, 400, true),
            Err(ShedReason::QueueFull)
        ));
        assert!(matches!(
            gate.admit(false, 200, true),
            Err(ShedReason::Brownout)
        ));
        // A shed must not leak its optimistic reservation.
        assert_eq!(gate.inflight(), (1, 700));
        drop(t);
        assert!(gate.admit(false, 750, true).is_ok());
    }

    #[test]
    fn brownout_sheds_bulk_but_admits_small_calls() {
        // Brownout at 6 of 8 slots, one of which is reserved.
        let gate = AdmissionControl::new(AdmissionConfig::bounded(8, u64::MAX));
        let _bulk: Vec<_> = (0..6)
            .map(|_| gate.admit(false, 4096, true).unwrap())
            .collect();
        // Watermark reached: bulk sheds (brownout), small calls pass.
        assert!(matches!(
            gate.admit(false, 4096, true),
            Err(ShedReason::Brownout)
        ));
        assert!(gate.admit(false, 0, false).is_ok());
    }

    #[test]
    fn reserved_lane_keeps_control_plane_answerable() {
        // Two slots reserve one: the smallest reserve `bounded` derives.
        let gate = AdmissionControl::new(AdmissionConfig::bounded(2, u64::MAX));
        let _t = gate.admit(false, 0, false).unwrap();
        // Data plane stops one slot early; the telemetry lane still admits.
        assert!(matches!(
            gate.admit(false, 0, false),
            Err(ShedReason::QueueFull)
        ));
        let _c = gate.admit(true, 0, false).unwrap();
        // …but control is bounded by the hard cap too.
        assert!(matches!(
            gate.admit(true, 0, false),
            Err(ShedReason::QueueFull)
        ));
    }

    /// Data-plane requests being shed concurrently must never eat into the
    /// reserved lane, not even transiently.
    #[test]
    fn concurrent_sheds_never_starve_the_reserved_lane() {
        use std::sync::atomic::AtomicBool;
        const BLOCK: u64 = 16 << 10;
        // Two data slots plus one reserved; both data slots are held.
        let gate = AdmissionControl::new(AdmissionConfig::bounded(3, 3 * BLOCK));
        let _d1 = gate.admit(false, BLOCK, true).unwrap();
        let _d2 = gate.admit(false, BLOCK, true).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        assert!(gate.admit(false, BLOCK, true).is_err());
                    }
                });
            }
            let polled = (0..200_000).all(|_| gate.admit(true, 0, false).is_ok());
            stop.store(true, Ordering::Relaxed);
            assert!(
                polled,
                "a control-plane poll was shed from its reserved lane"
            );
        });
        assert_eq!(gate.inflight(), (2, 2 * BLOCK));
    }

    #[test]
    fn shed_exceptions_are_transient_completed_no() {
        for (reason, minor) in [
            (ShedReason::QueueFull, MINOR_SHED_QUEUE_FULL),
            (ShedReason::Brownout, MINOR_SHED_BROWNOUT),
        ] {
            let ex = reason.exception();
            assert_eq!(ex.kind, SystemExceptionKind::Transient);
            assert_eq!(ex.minor, minor);
            assert_eq!(ex.completed, COMPLETED_NO, "shed is pre-dispatch");
            assert!(is_shed(&ex));
        }
        // A garden-variety TRANSIENT (breaker fail-fast) is not a shed.
        assert!(!is_shed(&SystemException {
            kind: SystemExceptionKind::Transient,
            minor: 1,
            completed: COMPLETED_NO,
        }));
    }

    #[test]
    fn control_plane_keys_use_the_reserved_prefix() {
        assert!(is_control_plane_key(zc_cdr::wire::ZC_TELEMETRY_KEY));
        assert!(is_control_plane_key(b"_anything"));
        assert!(!is_control_plane_key(b"bulk-1"));
        assert!(!is_control_plane_key(b""));
    }

    #[test]
    fn bounded_derives_watermarks_and_reserve() {
        let c = AdmissionConfig::bounded(32, 1 << 20);
        assert!(!c.is_unlimited());
        let gate = AdmissionControl::new(c);
        let admitted = |control_plane, bytes, bulk| {
            std::iter::from_fn(|| gate.admit(control_plane, bytes, bulk).ok()).collect::<Vec<_>>()
        };
        // Bulk stops at the brownout watermark, 3/4 of the slots…
        let bulk = admitted(false, 0, true);
        assert_eq!(bulk.len(), 24);
        // …small calls at the 4 slots reserved for the control plane…
        let small = admitted(false, 0, false);
        assert_eq!(small.len(), 4);
        // …and the control plane at the hard cap.
        assert_eq!(admitted(true, 0, false).len(), 4);
        drop((bulk, small));
        // The byte watermark is 3/4 of the byte budget too.
        let _held = gate.admit(false, 3 << 18, true).unwrap();
        assert!(matches!(
            gate.admit(false, 1, true),
            Err(ShedReason::Brownout)
        ));
        // Tiny budgets still reserve one control slot (never more than all).
        let tiny = AdmissionControl::new(AdmissionConfig::bounded(1, 64));
        assert!(matches!(
            tiny.admit(false, 0, false),
            Err(ShedReason::QueueFull)
        ));
        assert!(tiny.admit(true, 0, false).is_ok());
    }

    #[test]
    fn ticket_release_is_panic_safe() {
        // One data slot, one reserved.
        let gate = AdmissionControl::new(AdmissionConfig::bounded(2, u64::MAX));
        let g2 = gate.clone();
        let _ = std::panic::catch_unwind(move || {
            let _t = g2.admit(false, 7, false).unwrap();
            panic!("dispatcher died");
        });
        assert_eq!(gate.inflight(), (0, 0), "unwind returned the capacity");
        assert!(gate.admit(false, 0, false).is_ok());
    }
}
