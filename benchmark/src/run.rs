//! The closed loop: one client thread, one connection, the next operation
//! sent only when the previous reply has been checked. A timed section is
//! several such loops ("legs"), each on a freshly built workload.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zc_buffers::{CopyLayer, CopySnapshot, PoolStats};
use zc_transport::ConnStats;

use crate::alloc::{self, AllocSnapshot};
use crate::host;
use crate::spans::SpanLog;
use crate::stats::{self, WindowCounter};
use crate::workload::{Rig, ServerSpans, Spec};

/// Equal windows a timed section is cut into, over all its legs.
pub const WINDOWS: usize = 20;
/// Operation ids of leg `k` start at `k << LEG_ID_SHIFT`, so the spans of a
/// section's legs never share an id (and stay below the verified ops').
const LEG_ID_SHIFT: u32 = 24;

/// Everything the program counts on its own, read through public accessors
/// at one instant. Differences of two readings give the per-op "run"
/// metrics of the layer ladder.
#[derive(Clone, Copy)]
pub struct Counters {
    pub copies: CopySnapshot,
    /// Client ORB's pool and server ORB's pool, summed.
    pub pool: PoolStats,
    /// The client's endpoint of the one connection.
    pub conn: ConnStats,
    pub allocs: AllocSnapshot,
    pub trace_events: u64,
    pub trace_drops: u64,
    pub retries: u64,
    pub sheds: u64,
}

impl Counters {
    pub fn sample(rig: &Rig) -> Counters {
        let (c, s) = (rig.client_orb.pool().stats(), rig.server_orb.pool().stats());
        let metrics = rig.telemetry.metrics();
        Counters {
            copies: rig.meter.snapshot(),
            pool: PoolStats {
                fresh_allocations: c.fresh_allocations + s.fresh_allocations,
                reuses: c.reuses + s.reuses,
                returns: c.returns + s.returns,
                discards: c.discards + s.discards,
                retained_bytes: c.retained_bytes + s.retained_bytes,
            },
            conn: rig.client_transport_stats(),
            allocs: alloc::snapshot(),
            trace_events: rig.telemetry.recorder().recorded(),
            trace_drops: rig.telemetry.recorder().dropped(),
            retries: metrics.retries.get(),
            sheds: metrics.sheds.get(),
        }
    }

    /// Bytes the copy meter saw in `layers` between `earlier` and `self`.
    pub fn copied_since(&self, earlier: &Counters, layers: &[CopyLayer]) -> u64 {
        let d = self.copies.since(&earlier.copies);
        layers.iter().map(|&l| d.bytes(l)).sum()
    }
}

/// What one timed closed loop measured.
pub struct LoopResult {
    /// Ids of the timed operations.
    pub ops: std::ops::Range<u64>,
    /// Payload bytes an operation delivers, averaged over the rotation.
    pub payload_bytes: f64,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Operations per second in each equal window of the loop.
    pub window_rates: Vec<f64>,
    /// Round-trip time of every successful operation, ascending. 32 bits
    /// (saturating at 4.29 s) keep the sample small beside the process's
    /// own memory, which `peak_rss_mib` reports.
    pub rtts_ns: Vec<u32>,
    pub before: Counters,
    pub after: Counters,
}

impl LoopResult {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn rtt_percentile_us(&self, pct: f64) -> f64 {
        stats::percentile_sorted(&self.rtts_ns, pct) as f64 / 1e3
    }
}

/// Run operations `first_op..` back to back for `seconds`. An operation
/// that errors or returns a wrong acknowledgement counts as failed and the
/// loop carries on. Client-side spans go to `trace` when given.
fn closed_loop(
    rig: &Rig,
    first_op: u64,
    seconds: f64,
    windows: usize,
    mut trace: Option<&mut SpanLog>,
) -> LoopResult {
    let total = Duration::from_secs_f64(seconds);
    let mut windows = WindowCounter::new(total.as_nanos() as u64, windows);
    // Room for a million operations per second, reserved up front so the
    // loop itself never allocates; untouched pages cost nothing.
    let mut rtts_ns: Vec<u32> = Vec::with_capacity((seconds * 1e6) as usize + 1024);
    let (mut attempted, mut failed) = (0u64, 0u64);

    let before = Counters::sample(rig);
    let cpu_before = host::process_cpu_seconds();
    let start = Instant::now();
    let mut op_start = start;
    while op_start.duration_since(start) < total {
        let outcome = rig.run_op(first_op + attempted, trace.as_deref_mut());
        let op_end = Instant::now();
        attempted += 1;
        if matches!(outcome, Ok(true)) {
            let rtt = op_end.duration_since(op_start).as_nanos();
            rtts_ns.push(u32::try_from(rtt).unwrap_or(u32::MAX));
            windows.note(op_end.duration_since(start).as_nanos() as u64);
        } else {
            failed += 1;
        }
        op_start = op_end;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_seconds() - cpu_before;
    let after = Counters::sample(rig);

    rtts_ns.sort_unstable();
    LoopResult {
        ops: first_op..first_op + attempted,
        payload_bytes: rig.mean_payload_bytes(),
        attempted,
        failed,
        wall_s,
        cpu_s,
        window_rates: windows.rates(),
        rtts_ns,
        before,
        after,
    }
}

/// Untimed warm-up of a section, the same on every commit.
const WARM_UP_S: f64 = 1.0;

/// Warm the path for `seconds`, untimed: caches fill, the pools reach
/// their steady population, the server thread is on a CPU.
fn warm_up(rig: &Rig, first_op: u64, seconds: f64) -> u64 {
    let start = Instant::now();
    let mut n = 0;
    while start.elapsed().as_secs_f64() < seconds {
        // Outcomes are ignored here; every timed operation is checked.
        let _ = rig.run_op(first_op + n, None);
        n += 1;
    }
    n
}

/// Where the two sides of a traced leg record their spans.
pub struct Tracer<'a> {
    pub server: &'a ServerSpans,
    pub client: &'a mut SpanLog,
}

/// Leg `leg` of a section of `legs`, `section_s` seconds in all: a freshly
/// built workload (which runs the leading verified operations), warmed for
/// its share of [`WARM_UP_S`], run for its share of the section, verified
/// again and torn down.
pub fn run_leg(
    spec: Spec,
    seed: u64,
    (leg, legs): (usize, usize),
    section_s: f64,
    tracer: Option<Tracer<'_>>,
) -> Result<LoopResult, String> {
    let (server, client) = match tracer {
        Some(t) => (Some(Arc::clone(t.server)), Some(t.client)),
        None => (None, None),
    };
    let rig = Rig::set_up(spec, seed, server)?;
    let base = (leg as u64) << LEG_ID_SHIFT;
    let warmed = warm_up(&rig, base, WARM_UP_S / legs as f64);
    let timed = closed_loop(
        &rig,
        base + warmed,
        section_s / legs as f64,
        WINDOWS / legs,
        client,
    );
    rig.verify_round(1)?;
    rig.teardown();
    Ok(timed)
}

/// A timed section: one or more legs of one workload, each on a connection
/// and server thread of its own. An untraced run's section is a single leg;
/// a traced run interleaves the legs of its reference and traced sections,
/// so that a host whose speed drifts over seconds slows both alike.
pub struct Section {
    pub legs: Vec<LoopResult>,
}

impl Section {
    /// Sum of a per-leg quantity.
    pub fn sum(&self, f: impl Fn(&LoopResult) -> u64) -> u64 {
        self.legs.iter().map(f).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.sum(|l| l.attempted)
    }

    pub fn failed(&self) -> u64 {
        self.sum(|l| l.failed)
    }

    pub fn completed(&self) -> u64 {
        self.sum(LoopResult::completed)
    }

    /// A total over the section, per completed operation.
    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.completed().max(1) as f64
    }

    pub fn payload_bytes(&self) -> f64 {
        self.legs.first().map_or(0.0, |l| l.payload_bytes)
    }

    /// Every leg's window rates, pooled.
    pub fn window_rates(&self) -> Vec<f64> {
        self.legs
            .iter()
            .flat_map(|l| l.window_rates.iter().copied())
            .collect()
    }

    /// Invokes completed per second: interquartile mean of all windows, so
    /// neither a stalled window nor a burst of host speed moves it.
    pub fn ops_per_s(&self) -> f64 {
        stats::midmean(&self.window_rates())
    }

    /// Median round trip: interquartile mean of the legs' medians.
    pub fn rtt_p50_us(&self) -> f64 {
        let p50s: Vec<f64> = self
            .legs
            .iter()
            .map(|l| l.rtt_percentile_us(50.0))
            .collect();
        stats::midmean(&p50s)
    }

    /// Round-trip samples of all legs, ascending.
    pub fn pooled_rtts_ns(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .legs
            .iter()
            .flat_map(|l| l.rtts_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    pub fn cpu_s(&self) -> f64 {
        self.legs.iter().map(|l| l.cpu_s).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.legs.iter().map(|l| l.wall_s).sum()
    }

    /// Bytes the copy meter saw in `layers`, over all legs.
    pub fn copied(&self, layers: &[CopyLayer]) -> u64 {
        self.sum(|l| l.after.copied_since(&l.before, layers))
    }

    /// Overhead bytes copied per payload byte.
    pub fn copy_factor(&self) -> f64 {
        let overhead = self.sum(|l| l.after.copies.since(&l.before.copies).overhead_bytes());
        overhead as f64 / (self.completed() as f64 * self.payload_bytes()).max(1.0)
    }
}
