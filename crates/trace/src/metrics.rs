//! The metrics registry: atomic counters, log2-bucketed histograms, and the
//! transport counters — one type for a connection's own statistics and for
//! the ORB-wide mirror that merges every connection's into one total.
//!
//! Everything here is a fixed-size group of relaxed atomics — recording a
//! sample is a handful of `fetch_add`s, never an allocation and never a
//! lock, so the registry is safe to update from the data path.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::span::Stage;

/// A monotonic atomic counter. Readable anywhere; it moves only inside
/// this crate, when [`crate::Telemetry::emit`] books an event that declares
/// it.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub(crate) fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per power of two a `u64` sample can
/// reach, plus the zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Upper bound of bucket `i` (inclusive): `0`, then `2^i - 1`.
#[inline]
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log2-bucketed histogram of `u64` samples. Bucket `i > 0` holds samples
/// in `[2^(i-1), 2^i)`; bucket 0 holds zeros.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Capture the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count: {})", self.count())
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the inclusive upper bound of the bucket holding
    /// the `q`-quantile sample. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// One histogram per request-span [`Stage`]. Same recording discipline as
/// a single [`Histogram`]: relaxed atomics, no allocation, no lock.
pub struct StageHistograms {
    cells: [Histogram; Stage::COUNT],
}

impl StageHistograms {
    /// Empty histograms for every stage.
    pub const fn new() -> StageHistograms {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const EMPTY: Histogram = Histogram::new();
        StageHistograms {
            cells: [EMPTY; Stage::COUNT],
        }
    }

    /// The histogram for `stage`.
    #[inline]
    pub fn get(&self, stage: Stage) -> &Histogram {
        &self.cells[stage as usize]
    }

    /// Record one duration sample for `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, dur_ns: u64) {
        self.cells[stage as usize].record(dur_ns);
    }

    /// Capture the current state of every stage histogram.
    pub fn snapshot(&self) -> StageSnapshots {
        let mut s = StageSnapshots::default();
        for stage in Stage::ALL {
            s.cells[stage as usize] = self.cells[stage as usize].snapshot();
        }
        s
    }
}

impl Default for StageHistograms {
    fn default() -> Self {
        StageHistograms::new()
    }
}

impl std::fmt::Debug for StageHistograms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StageHistograms({} stages)", Stage::COUNT)
    }
}

/// Point-in-time copy of [`StageHistograms`].
#[derive(Debug, Clone, Copy)]
pub struct StageSnapshots {
    cells: [HistogramSnapshot; Stage::COUNT],
}

impl Default for StageSnapshots {
    fn default() -> Self {
        StageSnapshots {
            cells: [HistogramSnapshot::default(); Stage::COUNT],
        }
    }
}

impl StageSnapshots {
    /// The snapshot for `stage`.
    pub fn get(&self, stage: Stage) -> &HistogramSnapshot {
        &self.cells[stage as usize]
    }

    /// Iterate `(stage, snapshot)` in causal data-path order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, &HistogramSnapshot)> + '_ {
        Stage::ALL.into_iter().map(|s| (s, self.get(s)))
    }

    /// Total samples recorded across all stages.
    pub fn total_count(&self) -> u64 {
        self.cells.iter().map(|c| c.count).sum()
    }
}

/// Declares the per-connection transport counters exactly once: the
/// [`TransportField`] index enum, its snake-case report names, and the
/// named-field [`TransportTotals`] snapshot — which is also the
/// transport's `ConnStats` — all derive from one list.
macro_rules! transport_fields {
    ($($variant:ident => $field:ident: $help:literal,)*) => {
        /// The per-connection transport counters, as field indices.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum TransportField {
            $(#[doc = $help] $variant,)*
        }

        impl TransportField {
            /// All fields, in index order.
            pub const ALL: [TransportField; TransportField::COUNT] =
                [$(TransportField::$variant,)*];

            /// Number of fields.
            pub const COUNT: usize = [$(stringify!($field),)*].len();

            /// Snake-case name used in reports and CSV columns.
            pub fn name(self) -> &'static str {
                match self {
                    $(TransportField::$variant => stringify!($field),)*
                }
            }
        }

        /// Point-in-time transport totals: one connection's (the
        /// transport's `ConnStats`), or the ORB-wide merge of them all.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct TransportTotals {
            $(#[doc = $help] pub $field: u64,)*
        }

        impl TransportTotals {
            /// Value of `field`.
            pub fn get(&self, field: TransportField) -> u64 {
                match field {
                    $(TransportField::$variant => self.$field,)*
                }
            }

            fn set(&mut self, field: TransportField, v: u64) {
                match field {
                    $(TransportField::$variant => self.$field = v,)*
                }
            }
        }
    };
}

transport_fields! {
    ControlSent => control_sent: "Control messages sent.",
    ControlRecv => control_recv: "Control messages received.",
    DataBlocksSent => data_blocks_sent: "Data blocks sent.",
    DataBlocksRecv => data_blocks_recv: "Data blocks received.",
    BytesSent => bytes_sent: "Payload bytes sent (control + data).",
    BytesRecv => bytes_recv: "Payload bytes received (control + data).",
    FramesSent => frames_sent: "Frames put on the wire.",
    WireBytesSent => wire_bytes_sent: "Wire bytes (headers + payload) sent.",
    WireBytesRecv => wire_bytes_recv: "Wire bytes (headers + payload) received.",
    SpecHits => spec_hits: "Zero-copy receive speculations that held.",
    SpecMisses => spec_misses: "Speculations that missed (fallback copy).",
}

/// Live transport counters. A connection's stats cell holds one and
/// mirrors its increments into the telemetry's ORB-wide one, so one
/// snapshot covers connections that have already closed.
#[derive(Debug, Default)]
pub struct TransportCounters {
    cells: [AtomicU64; TransportField::COUNT],
}

impl TransportCounters {
    /// Add `n` to `field`.
    #[inline]
    pub fn add(&self, field: TransportField, n: u64) {
        self.cells[field as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `field`.
    #[inline]
    pub fn get(&self, field: TransportField) -> u64 {
        self.cells[field as usize].load(Ordering::Relaxed)
    }

    /// Capture the current totals.
    pub fn snapshot(&self) -> TransportTotals {
        let mut t = TransportTotals::default();
        for f in TransportField::ALL {
            t.set(f, self.get(f));
        }
        t
    }
}

impl TransportTotals {
    /// Fraction of receive speculations that held, in `[0, 1]`; `1.0` when
    /// no speculation ran (nothing missed).
    pub fn spec_hit_rate(&self) -> f64 {
        let total = self.spec_hits + self.spec_misses;
        if total == 0 {
            1.0
        } else {
            self.spec_hits as f64 / total as f64
        }
    }
}

/// Declares the registry exactly once. Each line is a field name plus its
/// doc text, in rendered order; the [`MetricsRegistry`] cells, the
/// [`MetricsSnapshot`] copy and the `(name, value)` lists the text-table
/// and JSON-lines renderers walk all derive from it. Which event
/// moves which cell is the `event_kinds!` table's business (`event.rs`), so
/// adding a counter or histogram is this one line plus its entry there.
macro_rules! registry {
    (
        counters { $($(#[$cnote:meta])* $c:ident: $chelp:literal,)* }
        histograms { $($(#[$hnote:meta])* $h:ident: $hhelp:literal,)* }
    ) => {
        /// The fixed set of ORB metrics. Counters can be read in place;
        /// histograms through [`MetricsRegistry::snapshot`]. Nothing here
        /// is writable from outside the crate: cells move when
        /// [`crate::Telemetry::emit`] books an event that declares them.
        #[derive(Debug, Default)]
        pub struct MetricsRegistry {
            $(#[doc = $chelp] $(#[$cnote])* pub $c: Counter,)*
            $(#[doc = $hhelp] $(#[$hnote])* pub(crate) $h: Histogram,)*
            /// Per-stage request-span durations, in nanoseconds.
            pub(crate) stage_ns: StageHistograms,
        }

        impl MetricsRegistry {
            /// Capture the current state of every metric.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($c: self.$c.get(),)*
                    $($h: self.$h.snapshot(),)*
                    stage_ns: self.stage_ns.snapshot(),
                }
            }
        }

        /// Point-in-time copy of the [`MetricsRegistry`].
        #[derive(Debug, Default, Clone, Copy)]
        pub struct MetricsSnapshot {
            $(#[doc = $chelp] pub $c: u64,)*
            $(#[doc = $hhelp] pub $h: HistogramSnapshot,)*
            /// Per-stage request-span duration histograms.
            pub stage_ns: StageSnapshots,
        }

        impl MetricsSnapshot {
            /// `(name, value)` of every counter, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($c), self.$c),)*].into_iter()
            }

            /// `(name, snapshot)` of every named histogram, in declaration
            /// order (the per-stage family is `stage_ns`).
            pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &HistogramSnapshot)> {
                [$((stringify!($h), &self.$h),)*].into_iter()
            }
        }
    };
}

registry! {
    counters {
        requests_sent: "Requests sent (client side).",
        requests_received: "Requests received (server side).",
        replies_ok: "Successful replies received.",
        replies_exception: "Exception replies received.",
        trace_contexts_seen: "Received requests carrying a ZC_TRACE context.",
        retries: "Invocation attempts re-sent after a transport failure.",
        reconnects: "Dead connections transparently replaced.",
        breaker_opens: "Circuit breakers opened.",
        sheds: "Requests shed by admission control.",
        /// A subset of `sheds`.
        brownout_sheds: "Bulk requests shed by brownout-mode admission.",
        failovers: "Client-side profile rotations to a replica.",
    }
    histograms {
        /// Client-observed, in nanoseconds.
        request_latency_ns: "Request-to-reply latency.",
        /// Server side, in nanoseconds.
        dispatch_ns: "Servant dispatch duration.",
        /// One sample per deposit block sent, in bytes.
        deposit_block_bytes: "Deposit block sizes.",
        /// Wire fragments per received data block.
        frames_per_block: "Fragments per deposited block.",
        /// Frame stamped at send → block reassembled at receive, in
        /// nanoseconds. Kept separate from `stage_ns[Wire]`, which times
        /// the request control path.
        data_wire_ns: "Data-block wire flight time.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.incr();
        c.incr();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, 1 << 20] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1 << 20);
        assert_eq!(s.sum, 10 + 1000 + (1 << 20));
        // zero bucket, [1,1], [2,3], [4,7]; 1000 in [512,1023]; 2^20 in
        // [2^20, 2^21).
        assert_eq!(s.buckets[..4], [1, 1, 2, 1]);
        assert_eq!((s.buckets[10], bucket_bound(10)), (1, 1023));
        assert_eq!(s.buckets[21], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 7);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1 << 30);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 127, "p50 in the [64,127] bucket");
        assert_eq!(s.quantile(0.99), 127);
        assert_eq!(s.quantile(1.0), 1 << 30, "max clamps the last bucket");
        assert!(s.mean() > 100.0);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn transport_counters_snapshot() {
        let t = TransportCounters::default();
        t.add(TransportField::SpecHits, 3);
        t.add(TransportField::SpecMisses, 1);
        t.add(TransportField::WireBytesRecv, 4096);
        let s = t.snapshot();
        assert_eq!(s.spec_hits, 3);
        assert_eq!(s.spec_misses, 1);
        assert_eq!(s.wire_bytes_recv, 4096);
        assert_eq!(s.spec_hit_rate(), 0.75);
        for f in TransportField::ALL {
            assert_eq!(s.get(f), t.get(f));
        }
    }

    #[test]
    fn spec_rate_without_speculation_is_one() {
        assert_eq!(TransportTotals::default().spec_hit_rate(), 1.0);
    }

    #[test]
    fn stage_histograms_record_per_stage() {
        let sh = StageHistograms::new();
        sh.record(Stage::ClientMarshal, 100);
        sh.record(Stage::ClientMarshal, 300);
        sh.record(Stage::Wire, 5000);
        let s = sh.snapshot();
        assert_eq!(s.get(Stage::ClientMarshal).count, 2);
        assert_eq!(s.get(Stage::ClientMarshal).sum, 400);
        assert_eq!(s.get(Stage::Wire).count, 1);
        assert_eq!(s.get(Stage::ServerDispatch).count, 0);
        assert_eq!(s.total_count(), 3);
        assert_eq!(s.iter().count(), Stage::COUNT);
    }
}
