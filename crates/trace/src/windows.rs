//! Windowed load signals: tumbling-window rates and high-watermark gauges.
//!
//! The counters and histograms in [`crate::MetricsRegistry`] answer "how
//! much since boot"; admission control and operators need "how much *right
//! now*". This module adds two lock-free instruments:
//!
//! * [`RateWindow`] — a tumbling window: events are counted into the
//!   current window; when the window elapses, the next recorder rolls it
//!   and the completed count becomes the reported rate. Rolling is a
//!   single CAS race; every loser retries into the fresh window, so no
//!   event is lost (a handful may land one window late under the race —
//!   acceptable for a load signal, never for the lifetime total, which is
//!   kept exactly in a separate counter).
//! * [`Gauge`] — a current value plus a high watermark maintained with
//!   `fetch_max`, so the peak is never below any instantaneous value that
//!   was ever recorded.
//!
//! Ordering discipline (the `trace-windows` cas-roll protocol in
//! `zc-audit.toml`): the once-per-window roll CAS publishes with `AcqRel`;
//! every per-event fast-path site stays `Relaxed`. Nothing blocks and
//! nothing allocates. The signals of a [`crate::Telemetry`] move only
//! behind its one enabled test (in `emit` for the event-driven ones, in the
//! `note_*` methods for the rest), preserving the disabled-mode
//! zero-overhead guarantee: one plain boolean load, no atomic
//! read-modify-write, no clock read.

use std::sync::atomic::{AtomicU64, Ordering};

/// Default tumbling-window length: one second.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000_000;

/// A tumbling-window event-rate estimator.
///
/// `tick(now, n)` adds `n` events at time `now`; `rate_per_s(now)` reports
/// the last *completed* window's count divided by the window length. When
/// the stream goes idle for more than two windows the rate decays to zero
/// rather than reporting a stale burst forever.
#[derive(Debug)]
pub struct RateWindow {
    window_ns: u64,
    /// Start of the window currently being filled.
    start_ns: AtomicU64,
    /// Count accumulated in the current window.
    cur: AtomicU64,
    /// Count of the last completed window.
    prev: AtomicU64,
    /// Exact lifetime total (monotone; unaffected by roll races).
    total: AtomicU64,
}

impl RateWindow {
    /// A window of `window_ns` nanoseconds (0 is clamped to the default).
    pub const fn new(window_ns: u64) -> RateWindow {
        RateWindow {
            window_ns: if window_ns == 0 {
                DEFAULT_WINDOW_NS
            } else {
                window_ns
            },
            start_ns: AtomicU64::new(0),
            cur: AtomicU64::new(0),
            prev: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Count `n` events observed at `now_ns`.
    #[inline]
    pub fn tick(&self, now_ns: u64, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
        loop {
            let start = self.start_ns.load(Ordering::Relaxed);
            let end = start.saturating_add(self.window_ns);
            if now_ns < end {
                self.cur.fetch_add(n, Ordering::Relaxed);
                return;
            }
            // The current window has elapsed: one thread wins the roll,
            // publishes the finished count and starts the next window.
            // Losers loop and land in the fresh window. A tick racing
            // between the CAS and the swap below may be attributed to the
            // finished window — a bounded, documented approximation.
            // AcqRel: the winner's swap/store below must not be reordered
            // before the claim, and a loser observing the new start_ns also
            // observes the rolled counters (loom:
            // rate_window_roll_cas_under_concurrent_tickers).
            if self
                .start_ns
                .compare_exchange(start, now_ns, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let finished = self.cur.swap(0, Ordering::Relaxed);
                // If more than one full window passed, the finished count
                // describes a stale window: report the gap as silence.
                let fresh = now_ns < end.saturating_add(self.window_ns);
                self.prev
                    .store(if fresh { finished } else { 0 }, Ordering::Relaxed);
                self.cur.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
    }

    /// The last completed window's rate, in events per second, as seen at
    /// `now_ns`. Decays to zero when no window has completed recently.
    pub fn rate_per_s(&self, now_ns: u64) -> f64 {
        let secs = self.window_ns as f64 / 1e9;
        let start = self.start_ns.load(Ordering::Relaxed);
        let end = start.saturating_add(self.window_ns);
        if now_ns < end {
            // Current window still open: the last completed one is fresh.
            self.prev.load(Ordering::Relaxed) as f64 / secs
        } else if now_ns < end.saturating_add(self.window_ns) {
            // Current window just closed but nobody has rolled it yet: it
            // is itself the most recent completed window.
            self.cur.load(Ordering::Relaxed) as f64 / secs
        } else {
            // Idle for over a full window: the signal has decayed.
            0.0
        }
    }

    /// Exact lifetime event total.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The configured window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }
}

/// A current-value gauge with a high watermark.
///
/// `add`/`sub` move the current value (saturating at zero, so a missed
/// increment can never underflow into a huge count); `record` folds an
/// externally-sampled instantaneous value into the watermark only. The
/// watermark is maintained with `fetch_max`: it is always ≥ every value
/// the gauge has ever held or been shown.
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge {
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Raise the current value by `n` and fold it into the watermark.
    #[inline]
    pub fn add(&self, n: u64) {
        let now = self.current.fetch_add(n, Ordering::Relaxed).wrapping_add(n);
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Lower the current value by `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        // fetch_update never blocks: it is a CAS loop over relaxed loads.
        // Relaxed (not the cas-roll AcqRel) is deliberate: the gauge value
        // is a pure statistic with no publication riding on it, and the
        // saturating subtraction is linearizable at any ordering.
        let _ = self
            .current
            // zc-audit: allow(atomics-protocol) — statistic-only CAS, nothing published: loom case gauge_sub_saturates_under_contention covers the Relaxed success ordering
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Fold an externally-sampled instantaneous value into the watermark
    /// without touching the current value.
    #[inline]
    pub fn record(&self, sample: u64) {
        self.peak.fetch_max(sample, Ordering::Relaxed);
    }

    /// The current value.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// The high watermark.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Snapshot both fields.
    pub fn snapshot(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            current: self.current(),
            peak: self.peak(),
        }
    }
}

/// Point-in-time view of one [`Gauge`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The value at snapshot time.
    pub current: u64,
    /// The high watermark (≥ `current`, and ≥ every value ever recorded).
    pub peak: u64,
}

/// Declares the windowed load signals exactly once. A rate line is
/// `window field => snapshot field, "text-table label": "doc"`; a gauge
/// line is `field: "doc"`. [`LoadWindows`], its [`LoadSnapshot`] and the
/// lists the renderers walk derive from it.
macro_rules! load_signals {
    (
        rates { $($r:ident => $rate:ident, $label:literal: $rhelp:literal,)* }
        gauges { $($(#[$gnote:meta])* $g:ident: $ghelp:literal,)* }
    ) => {
        /// The ORB-wide bundle of windowed load signals.
        ///
        /// Lives inside [`crate::Telemetry`], which is the only writer: the
        /// fields are crate-private, so the disabled instance pays nothing
        /// and no signal moves without its event.
        #[derive(Debug)]
        pub struct LoadWindows {
            $(#[doc = $rhelp] pub(crate) $r: RateWindow,)*
            $(#[doc = $ghelp] $(#[$gnote])* pub(crate) $g: Gauge,)*
        }

        impl LoadWindows {
            /// Fresh signals over `window_ns`-long tumbling windows.
            pub const fn new(window_ns: u64) -> LoadWindows {
                LoadWindows {
                    $($r: RateWindow::new(window_ns),)*
                    $($g: Gauge::new(),)*
                }
            }

            /// `(window name, exact lifetime total)` of every rate, in
            /// declaration order: what each window has counted since boot,
            /// comparable with the registry counter and the flight-recorder
            /// events of the same signal.
            pub fn totals(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($r), self.$r.total()),)*].into_iter()
            }

            /// Snapshot every signal at `now_ns`.
            pub fn snapshot(&self, now_ns: u64) -> LoadSnapshot {
                LoadSnapshot {
                    window_ns: self.req_rx.window_ns(),
                    $($rate: self.$r.rate_per_s(now_ns),)*
                    req_rx_total: self.req_rx.total(),
                    $($g: self.$g.snapshot(),)*
                }
            }
        }

        /// Point-in-time view of all windowed load signals.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct LoadSnapshot {
            /// Tumbling-window length the rates are computed over.
            pub window_ns: u64,
            $(#[doc = $rhelp] pub $rate: f64,)*
            /// Exact lifetime count of received requests seen by the window.
            pub req_rx_total: u64,
            $(#[doc = $ghelp] pub $g: GaugeSnapshot,)*
        }

        impl LoadSnapshot {
            /// `(name, text-table label, events per second)` of every rate,
            /// in declaration order.
            pub fn rates(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> {
                [$((stringify!($rate), $label, self.$rate),)*].into_iter()
            }

            /// `(name, snapshot)` of every gauge, in declaration order.
            pub fn gauges(&self) -> impl Iterator<Item = (&'static str, GaugeSnapshot)> {
                [$((stringify!($g), self.$g),)*].into_iter()
            }
        }
    };
}

load_signals! {
    rates {
        req_rx => req_per_s, "req/s":
            "Request arrival rate over the last tumbling window.",
        wire_tx => wire_tx_bytes_per_s, "wire tx B/s":
            "Wire bytes sent per second over the last tumbling window.",
        wire_rx => wire_rx_bytes_per_s, "wire rx B/s":
            "Wire bytes received per second over the last tumbling window.",
        retries => retries_per_s, "retries/s":
            "Retry attempts per second over the last tumbling window.",
        shed => shed_per_s, "shed/s":
            "Requests shed by admission control per second.",
        brownout => brownout_per_s, "brownout/s":
            "Bulk requests shed by brownout mode per second.",
        failover => failover_per_s, "failover/s":
            "Client-side profile failovers per second.",
    }
    gauges {
        inflight: "Requests currently being dispatched.",
        conns: "Open GIOP connections.",
        breakers_open: "Endpoint circuit breakers currently open.",
        /// Sampled as each continuation fragment lands; current is not
        /// tracked.
        reassembly_bytes: "In-progress fragment-reassembly bytes (watermark).",
        /// Sampled at snapshot time.
        pool_retained: "Pool retained bytes (sampled watermark).",
    }
}

impl Default for LoadWindows {
    fn default() -> LoadWindows {
        LoadWindows::new(DEFAULT_WINDOW_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000_000_000;

    #[test]
    fn rate_reports_last_completed_window() {
        let r = RateWindow::new(W);
        // Window [0, W): 10 events.
        for _ in 0..10 {
            r.tick(100, 1);
        }
        assert_eq!(r.total(), 10);
        // Still inside the first window: no completed window yet.
        assert_eq!(r.rate_per_s(500) as u64, 0);
        // First tick after W rolls the window.
        r.tick(W + 1, 1);
        assert_eq!(r.rate_per_s(W + 2) as u64, 10);
        assert_eq!(r.total(), 11);
    }

    #[test]
    fn rate_decays_to_zero_when_idle() {
        let r = RateWindow::new(W);
        r.tick(0, 100);
        r.tick(W + 1, 1); // roll: prev = 100
        assert!(r.rate_per_s(W + 2) > 0.0);
        // Two windows of silence later the signal is gone.
        assert_eq!(r.rate_per_s(4 * W), 0.0);
        // A tick after a long gap must not resurrect the stale count.
        r.tick(10 * W, 1);
        assert_eq!(r.rate_per_s(10 * W + 1) as u64, 0);
        assert_eq!(r.total(), 102);
    }

    #[test]
    fn unrolled_but_complete_window_is_visible() {
        let r = RateWindow::new(W);
        r.tick(0, 7);
        // The window [0, W) has elapsed but nobody ticked to roll it: the
        // reader still sees it as the most recent completed window.
        assert_eq!(r.rate_per_s(W + 10) as u64, 7);
    }

    #[test]
    fn rates_scale_with_window_length() {
        let r = RateWindow::new(W / 2); // 500ms window
        r.tick(0, 50);
        r.tick(W / 2 + 1, 1);
        // 50 events in half a second = 100/s.
        let rate = r.rate_per_s(W / 2 + 2);
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn gauge_tracks_current_and_peak() {
        let g = Gauge::new();
        g.add(3);
        g.add(4);
        g.sub(5);
        assert_eq!(g.current(), 2);
        assert_eq!(g.peak(), 7);
        // Saturating: never underflows.
        g.sub(100);
        assert_eq!(g.current(), 0);
        assert_eq!(g.peak(), 7);
        // record() moves only the watermark.
        g.record(50);
        assert_eq!(g.current(), 0);
        assert_eq!(g.peak(), 50);
        let s = g.snapshot();
        assert!(s.peak >= s.current);
    }

    #[test]
    fn gauge_peak_never_below_instantaneous() {
        let g = Gauge::new();
        for i in 0..100u64 {
            g.add(i % 7);
            assert!(g.peak() >= g.current());
            g.sub(i % 5);
            assert!(g.peak() >= g.current());
        }
    }

    #[test]
    fn load_windows_snapshot_coherent() {
        let w = LoadWindows::new(W);
        w.req_rx.tick(10, 4);
        w.wire_rx.tick(10, 4096);
        w.inflight.add(2);
        w.reassembly_bytes.record(1 << 20);
        w.req_rx.tick(W + 1, 1);
        w.wire_rx.tick(W + 1, 1);
        let s = w.snapshot(W + 2);
        assert_eq!(s.req_per_s as u64, 4);
        assert_eq!(s.wire_rx_bytes_per_s as u64, 4096);
        assert_eq!(s.req_rx_total, 5);
        assert_eq!(s.inflight.current, 2);
        assert_eq!(s.reassembly_bytes.peak, 1 << 20);
        assert!(s.inflight.peak >= s.inflight.current);
    }

    #[test]
    fn concurrent_ticks_lose_nothing_from_total() {
        use std::sync::Arc;
        let r = Arc::new(RateWindow::new(W));
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    // Spread ticks across several windows to force rolls.
                    r.tick(i * (t + 1) * 1_000, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.total(), 40_000);
    }
}
