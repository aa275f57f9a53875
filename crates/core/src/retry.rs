//! Client-side recovery: the at-most-once recovery table, retry policy,
//! backoff, and the per-endpoint circuit breaker.
//!
//! CORBA invocations carry **at-most-once** semantics, so what may happen
//! after a failed attempt depends on what reached the server. The proxy
//! classifies each failed attempt once, as a `Failure`; `decide` is the
//! whole rule book, mapping the failure and whether the operation is
//! [`idempotent`](crate::StaticRequest::idempotent) to what the endpoint's
//! breaker learns, the next step and the error the caller sees when no
//! step is taken. In short: nothing sent (an open breaker, a poisoned
//! connection, a `Closed` send) moves any operation; a lost reply retries
//! only idempotent ones, else `COMM_FAILURE` with `completed = MAYBE`; a
//! timed-out request never retries; a shed rotates to the next replica.
//!
//! The circuit breaker guards against retry storms: after
//! `breaker_threshold` consecutive failures to one endpoint, calls fail
//! fast with `TRANSIENT` until `breaker_cooldown` elapses, after which one
//! half-open trial is admitted.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use zc_giop::{GiopError, SystemException, SystemExceptionKind};
use zc_trace::JourneyCause;
use SystemExceptionKind::{CommFailure, Marshal};

use crate::OrbError;

/// How one invocation attempt failed, classified once by the proxy under
/// the connection guard. Variants carry the error the attempt produced.
#[derive(Debug)]
pub(crate) enum Failure {
    /// The active profile's breaker is open: nothing was sent.
    BreakerOpen(OrbError),
    /// An earlier reply timeout poisoned the connection: nothing was sent.
    Poisoned(OrbError),
    /// A replacement connection cannot carry the marshaled bytes (another
    /// byte order, or deposits without zero copy): nothing was sent.
    Renegotiated,
    /// The send failed with `Closed`: nothing reached a dispatcher.
    SendClosed(OrbError),
    /// The send failed any other way.
    SendFailed(OrbError),
    /// The reply timed out: the request may be running right now.
    TimedOut(OrbError),
    /// The server shed the request before dispatch.
    Shed(OrbError),
    /// The server answered with a system or user exception.
    Answered(OrbError),
    /// The connection was lost after the send: the request may have run.
    Lost(OrbError),
}

/// What the active profile's circuit breaker learns from a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Note {
    Nothing,
    Success,
    Failure,
    /// A failure, and the poisoned connection leaves the ORB's cache.
    Quarantine,
}

/// The proxy's next move after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// None: the caller sees the error.
    Surface,
    /// Move to the next live profile; the next attempt carries this cause.
    Rotate(JourneyCause),
    /// Back off, then re-dial the active profile (cause `Retry`), or rotate
    /// (cause `Failover`) when that dial is refused.
    Recover,
}

/// One row of the recovery table.
#[derive(Debug, PartialEq)]
pub(crate) struct Decision {
    pub(crate) note: Note,
    pub(crate) step: Step,
    /// What the caller sees when the step is `Surface`, or fails.
    pub(crate) error: OrbError,
}

/// The client's recovery table: what follows a failed attempt, given
/// whether the operation is idempotent and whether the attempt budget
/// ([`RetryPolicy::max_attempts`]) has attempts left.
pub(crate) fn decide(failure: Failure, idempotent: bool, attempts_left: bool) -> Decision {
    // An open breaker rotates within the attempt it stopped; every other
    // step begins a new attempt, which the budget must still allow.
    let in_attempt = matches!(failure, Failure::BreakerOpen(_));
    let (note, step, error) = match failure {
        Failure::BreakerOpen(e) => (Note::Nothing, Step::Rotate(JourneyCause::Failover), e),
        Failure::Poisoned(e) | Failure::SendClosed(e) => (Note::Nothing, Step::Recover, e),
        Failure::Renegotiated => (Note::Nothing, Step::Surface, maybe(CommFailure, 3)),
        Failure::SendFailed(e) => (Note::Nothing, Step::Surface, e),
        // The request may be executing: never retried, even if idempotent.
        Failure::TimedOut(e) => (Note::Quarantine, Step::Surface, e),
        Failure::Shed(e) => (Note::Failure, Step::Rotate(JourneyCause::ShedRotate), e),
        Failure::Answered(e) => (Note::Success, Step::Surface, e),
        // At-most-once: only caller-declared idempotent operations may run
        // twice. An oversized reply is a marshaling failure, not a
        // communication one.
        Failure::Lost(e) => {
            let error = match e {
                OrbError::Giop(GiopError::MessageTooLarge(_)) => maybe(Marshal, 2),
                _ => maybe(CommFailure, 1),
            };
            if idempotent {
                (Note::Nothing, Step::Recover, error)
            } else {
                (Note::Failure, Step::Surface, error)
            }
        }
    };
    let step = if attempts_left || in_attempt {
        step
    } else {
        Step::Surface
    };
    Decision { note, step, error }
}

/// A system exception with completion status MAYBE: the request may or may
/// not have executed — the CORBA answer when at-most-once forbids a retry.
fn maybe(kind: SystemExceptionKind, minor: u32) -> OrbError {
    OrbError::System(SystemException {
        kind,
        minor,
        completed: 2,
    })
}

/// Fraction of a backoff randomized away. Jitter is derived from a hash of
/// the endpoint and attempt number, so retry schedules are deterministic
/// per call site but decorrelated between endpoints.
const BACKOFF_JITTER: f64 = 0.5;

/// When and how the ORB retries failed invocations.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per invocation, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
    /// Consecutive failures to one endpoint that open its circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects calls before admitting a
    /// half-open trial.
    pub breaker_cooldown: Duration,
    /// Sticky-primary re-probe: after this many consecutive successes on a
    /// backup profile of a replicated object group, the proxy attempts to
    /// fail back to the primary (profile 0). `0` disables fail-back.
    pub reprobe_interval: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(250),
            reprobe_interval: 16,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never opens the breaker.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            breaker_threshold: u32::MAX,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based: the delay between
    /// the first failure and the second attempt is `backoff(1, ..)`).
    /// Exponential with a cap, minus up to [`BACKOFF_JITTER`] of itself,
    /// derived deterministically from `(salt, attempt)`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        if raw.is_zero() {
            return raw;
        }
        // Hash-based jitter: no RNG dependency on the data path, and a
        // given (endpoint, attempt) pair always waits the same time —
        // reproducible tests, decorrelated endpoints.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        salt.hash(&mut h);
        attempt.hash(&mut h);
        let unit = (h.finish() % 1024) as f64 / 1024.0; // [0, 1)
        let scale = 1.0 - BACKOFF_JITTER * unit;
        Duration::from_nanos((raw.as_nanos() as f64 * scale) as u64)
    }
}

/// A stable jitter salt for an endpoint.
pub(crate) fn endpoint_salt(endpoint: &(String, u16)) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    endpoint.hash(&mut h);
    h.finish()
}

/// Breaker state for one endpoint.
#[derive(Debug, Default)]
struct EndpointHealth {
    /// Consecutive failed attempts since the last success.
    consecutive_failures: u32,
    /// While `Some`, the breaker is open and calls fail fast.
    open_until: Option<Instant>,
}

/// Per-endpoint failure tracking shared by every clone of an ORB.
#[derive(Debug, Default)]
pub(crate) struct HealthRegistry {
    map: Mutex<HashMap<(String, u16), EndpointHealth>>,
}

/// Outcome of recording a failure.
pub(crate) enum FailureVerdict {
    /// Breaker still closed; retrying is allowed.
    Closed,
    /// This failure opened the breaker (carries the consecutive-failure
    /// count, for telemetry).
    JustOpened(u32),
}

impl HealthRegistry {
    /// Fail fast when `endpoint`'s breaker is open. An elapsed cooldown
    /// admits one half-open trial: the breaker closes, but the failure
    /// count stays at the threshold so a single new failure re-opens it.
    /// `Ok(true)` reports that this call performed the open→half-open
    /// transition (so the caller can move the open-breaker gauge).
    pub(crate) fn check(&self, endpoint: &(String, u16)) -> Result<bool, Duration> {
        let mut map = self.map.lock();
        let Some(health) = map.get_mut(endpoint) else {
            return Ok(false);
        };
        if let Some(until) = health.open_until {
            let now = Instant::now();
            if now < until {
                return Err(until - now);
            }
            // Half-open: admit this attempt; leave the failure count one
            // below the threshold so one failure re-opens immediately.
            health.open_until = None;
            health.consecutive_failures = health.consecutive_failures.saturating_sub(1);
            return Ok(true);
        }
        Ok(false)
    }

    /// Record a failed attempt; opens the breaker at the threshold.
    pub(crate) fn on_failure(
        &self,
        endpoint: &(String, u16),
        policy: &RetryPolicy,
    ) -> FailureVerdict {
        let mut map = self.map.lock();
        // zc-audit: allow(cheap-clone) — endpoint key (host string + port) for the health map, not payload
        let health = map.entry(endpoint.clone()).or_default();
        health.consecutive_failures = health.consecutive_failures.saturating_add(1);
        if health.open_until.is_none() && health.consecutive_failures >= policy.breaker_threshold {
            health.open_until = Some(Instant::now() + policy.breaker_cooldown);
            FailureVerdict::JustOpened(health.consecutive_failures)
        } else {
            FailureVerdict::Closed
        }
    }

    /// Record a success: the endpoint is healthy again. Returns whether
    /// the breaker was open (so the caller can lower the open gauge).
    pub(crate) fn on_success(&self, endpoint: &(String, u16)) -> bool {
        let mut map = self.map.lock();
        if let Some(health) = map.get_mut(endpoint) {
            health.consecutive_failures = 0;
            health.open_until.take().is_some()
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep() -> (String, u16) {
        ("sim".to_string(), 9)
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy::default();
        // Doubling from 2 ms, capped at 100 ms; jitter shrinks each delay
        // but never below (1 - jitter) of it, and is reproducible.
        for (attempt, raw_ms) in [(1, 2), (2, 4), (3, 8), (40, 100)] {
            let raw = Duration::from_millis(raw_ms);
            for salt in 0..32 {
                let b = p.backoff(attempt, salt);
                assert_eq!(b, p.backoff(attempt, salt));
                assert!(b <= raw && b >= raw.mul_f64(1.0 - BACKOFF_JITTER), "{b:?}");
            }
        }
        // Decorrelated: endpoints do not all wait the same time.
        assert!((0..32).any(|salt| p.backoff(2, salt) != p.backoff(2, 0)));
    }

    #[test]
    fn breaker_opens_at_threshold_and_half_opens_after_cooldown() {
        let p = RetryPolicy {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(5),
            ..RetryPolicy::default()
        };
        let reg = HealthRegistry::default();
        assert!(reg.check(&ep()).is_ok());
        assert!(matches!(reg.on_failure(&ep(), &p), FailureVerdict::Closed));
        assert!(reg.check(&ep()).is_ok());
        assert!(matches!(
            reg.on_failure(&ep(), &p),
            FailureVerdict::JustOpened(2)
        ));
        // open: fail fast
        assert!(reg.check(&ep()).is_err());
        std::thread::sleep(Duration::from_millis(8));
        // half-open: one trial admitted …
        assert!(reg.check(&ep()).is_ok());
        // … and a single failure re-opens immediately
        assert!(matches!(
            reg.on_failure(&ep(), &p),
            FailureVerdict::JustOpened(2)
        ));
        assert!(reg.check(&ep()).is_err());
    }

    #[test]
    fn success_resets_the_breaker() {
        let p = RetryPolicy {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(60),
            ..RetryPolicy::default()
        };
        let reg = HealthRegistry::default();
        assert!(matches!(
            reg.on_failure(&ep(), &p),
            FailureVerdict::JustOpened(1)
        ));
        assert!(reg.check(&ep()).is_err());
        assert!(reg.on_success(&ep()), "breaker was open");
        assert!(reg.check(&ep()).is_ok());
        // Idempotent: a second success reports no open breaker to close.
        assert!(!reg.on_success(&ep()));
    }

    #[test]
    fn transitions_are_reported_for_gauges() {
        let p = RetryPolicy {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(3),
            ..RetryPolicy::default()
        };
        let reg = HealthRegistry::default();
        // Unknown endpoint: no transition.
        assert_eq!(reg.check(&ep()), Ok(false));
        assert!(matches!(
            reg.on_failure(&ep(), &p),
            FailureVerdict::JustOpened(1)
        ));
        std::thread::sleep(Duration::from_millis(6));
        // The half-open admit is the open→closed transition.
        assert_eq!(reg.check(&ep()), Ok(true));
        assert_eq!(reg.check(&ep()), Ok(false));
    }

    #[test]
    fn none_policy_disables_retry() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
    }

    /// Every `(Failure, idempotent, attempts left)` combination, checked
    /// against the table in docs/fault-model.md. The renegotiation and
    /// oversized-reply rows have no end-to-end fixture: they are pinned
    /// here only.
    #[test]
    fn recovery_table_row_by_row() {
        use zc_transport::TransportError;
        use JourneyCause::{Failover, ShedRotate};
        use Note::{Failure as Failed, Nothing, Quarantine, Success};
        use Step::{Recover, Rotate, Surface};
        let system = |kind, minor, completed| {
            OrbError::System(SystemException {
                kind,
                minor,
                completed,
            })
        };
        let transient = || system(SystemExceptionKind::Transient, 1, 1);
        let poisoned = || OrbError::Protocol("connection poisoned".into());
        let closed = || OrbError::Transport(TransportError::Closed);
        let timeout = || OrbError::Transport(TransportError::Timeout);
        let shed = || OrbError::System(crate::ShedReason::QueueFull.exception());
        let bad_op = || system(SystemExceptionKind::BadOperation, 0, 1);
        let comm = |minor| system(CommFailure, minor, 2);
        let too_large = || OrbError::Giop(GiopError::MessageTooLarge(1 << 30));
        let marshal = || system(Marshal, 2, 2);
        for idempotent in [false, true] {
            for left in [false, true] {
                let recover = if left { Recover } else { Surface };
                let lost_note = if idempotent { Nothing } else { Failed };
                let lost_step = if idempotent { recover } else { Surface };
                let rows: [(Failure, Note, Step, OrbError); 11] = [
                    (
                        Failure::BreakerOpen(transient()),
                        Nothing,
                        Rotate(Failover),
                        transient(),
                    ),
                    (Failure::Poisoned(poisoned()), Nothing, recover, poisoned()),
                    (Failure::Renegotiated, Nothing, Surface, comm(3)),
                    (Failure::SendClosed(closed()), Nothing, recover, closed()),
                    (Failure::SendFailed(timeout()), Nothing, Surface, timeout()),
                    (Failure::TimedOut(timeout()), Quarantine, Surface, timeout()),
                    (
                        Failure::Shed(shed()),
                        Failed,
                        if left { Rotate(ShedRotate) } else { Surface },
                        shed(),
                    ),
                    (Failure::Answered(bad_op()), Success, Surface, bad_op()),
                    (Failure::Answered(shed()), Success, Surface, shed()),
                    (Failure::Lost(closed()), lost_note, lost_step, comm(1)),
                    (Failure::Lost(too_large()), lost_note, lost_step, marshal()),
                ];
                for (failure, note, step, error) in rows {
                    let row = format!("{failure:?}, idempotent {idempotent}, attempts left {left}");
                    let want = Decision { note, step, error };
                    assert_eq!(decide(failure, idempotent, left), want, "{row}");
                }
            }
        }
    }
}
