//! Client-side recovery: retry policy, backoff, and the per-endpoint
//! circuit breaker.
//!
//! CORBA invocations carry **at-most-once** semantics, so the retry rules
//! are strict:
//!
//! * a request whose *send* failed was provably never dispatched — any
//!   operation may be retried on a replacement connection;
//! * a request that was sent but whose *reply* never came back may or may
//!   not have executed — only operations the caller marked
//!   [`idempotent`](crate::StaticRequest::idempotent) retry; everything
//!   else surfaces `COMM_FAILURE` with `completed = MAYBE`;
//! * a *timed-out* request never retries: the connection is poisoned (a
//!   stale reply may still arrive) and quarantined from the cache.
//!
//! The circuit breaker guards against retry storms: after
//! `breaker_threshold` consecutive failures to one endpoint, calls fail
//! fast with `TRANSIENT` until `breaker_cooldown` elapses, after which one
//! half-open trial is admitted.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

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

    /// Whether any retry is possible under this policy.
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
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
        assert!(!p.retries_enabled());
        assert_eq!(p.max_attempts, 1);
    }
}
