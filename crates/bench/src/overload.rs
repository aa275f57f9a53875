//! Open-loop overload experiment: goodput vs offered load through the
//! admission-controlled ORB.
//!
//! The point of admission control is invisible below saturation and
//! decisive past it, so the harness drives the server **open loop** (see
//! [`zc_simnet::workload`]): a Poisson arrival schedule is precomputed and
//! requests are *due* at fixed instants whether or not the server keeps
//! up. Each offered-load multiplier runs twice:
//!
//! * **seed** — admission unlimited, the pre-PR behaviour: past
//!   saturation every request is accepted, sojourn times grow linearly
//!   with time, and goodput (replies within the deadline, measured from
//!   the *scheduled* arrival) collapses;
//! * **admission** — a bounded dispatch budget sheds the excess with
//!   `TRANSIENT (completed = NO)` in microseconds, so admitted requests
//!   still meet the deadline and goodput plateaus at the budget.
//!
//! While the admission run is past saturation, a management poller pings
//! the reserved `_ZcTelemetry` object over its own connection — proving
//! the control plane's reserved lane stays responsive under a load that
//! sheds the data plane.
//!
//! Service times are emulated with `thread::sleep` (hot keys one unit,
//! cold keys two — the 80/20 skew of [`KeySkew`]) so the experiment
//! measures queueing and shedding, not host CPU contention.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::Row;
use zc_json::{Layout, Writer};
use zc_orb::{
    AdmissionConfig, ObjectAdapterExt, Orb, OrbError, OrbResult, RetryPolicy, Servant,
    ServerRequest, TelemetryClient,
};
use zc_simnet::{ArrivalSchedule, KeySkew, SeededRng};
use zc_trace::Telemetry;
use zc_transport::{SimConfig, SimNetwork};

/// Repository id of the overload servant.
pub const BUSY_BULK_REPO_ID: &str = "IDL:zcorba/bench/BusyBulk:1.0";

/// Object key of the overload servant.
pub const BUSY_BULK_KEY: &str = "busybulk";

/// Plateau gate: the admission-mode goodput at the highest offered load
/// must retain at least this fraction of the mode's peak ("no collapse
/// past saturation").
pub const OVERLOAD_PLATEAU_GATE: f64 = 0.80;

/// Relaxed plateau gate for `--smoke` sweeps (two sub-second points on a
/// shared CI host flap more than the full sweep).
pub const OVERLOAD_PLATEAU_GATE_SMOKE: f64 = 0.50;

/// Parameters of one overload sweep.
#[derive(Debug, Clone)]
pub struct OverloadParams {
    /// Seed for the arrival schedule and key sampler.
    pub seed: u64,
    /// Open-loop client workers (also the number of server connections,
    /// hence the server's maximum concurrency without admission control).
    pub workers: usize,
    /// Emulated service time of a hot-key request, microseconds. Cold
    /// keys take twice as long.
    pub hot_service_us: u64,
    /// Bulk payload per request (travels zero-copy).
    pub block_bytes: usize,
    /// Goodput deadline: a reply counts only if it lands within this many
    /// milliseconds of the request's *scheduled* arrival.
    pub deadline_ms: u64,
    /// Nominal duration of each offered-load point, seconds.
    pub point_duration_s: f64,
    /// Offered-load multipliers relative to the probed closed-loop
    /// capacity (1.0 = saturation).
    pub multipliers: Vec<f64>,
    /// Admission budget for the "admission" mode: concurrent dispatches.
    /// Must sit below `workers`, otherwise the connection count already
    /// bounds inflight and the gate never fires. The byte budget is
    /// derived as `admitted_requests × block_bytes`.
    pub admitted_requests: u64,
    /// Distinct keys for the 80/20 skew.
    pub keys: u64,
}

impl OverloadParams {
    /// CI-sized sweep: two points, sub-second each.
    pub fn smoke(seed: u64) -> OverloadParams {
        OverloadParams {
            seed,
            workers: 4,
            hot_service_us: 300,
            block_bytes: 16 << 10,
            deadline_ms: 25,
            point_duration_s: 0.25,
            multipliers: vec![0.5, 2.0],
            admitted_requests: 3,
            keys: 50,
        }
    }

    /// The full four-point curve.
    pub fn full(seed: u64) -> OverloadParams {
        OverloadParams {
            seed,
            workers: 8,
            hot_service_us: 400,
            block_bytes: 16 << 10,
            deadline_ms: 25,
            point_duration_s: 0.6,
            multipliers: vec![0.5, 1.0, 1.5, 2.0],
            admitted_requests: 7,
            keys: 50,
        }
    }

    fn skew(&self) -> KeySkew {
        KeySkew::eighty_twenty(self.keys)
    }

    fn admission_config(&self) -> AdmissionConfig {
        AdmissionConfig::bounded(
            self.admitted_requests,
            self.admitted_requests * self.block_bytes as u64,
        )
    }
}

/// Which server configuration a point ran against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadMode {
    /// Pre-PR behaviour: unlimited admission.
    Seed,
    /// Bounded dispatch budget with brownout and a reserved control lane.
    Admission,
}

impl OverloadMode {
    /// Stable label used in JSON/CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            OverloadMode::Seed => "seed",
            OverloadMode::Admission => "admission",
        }
    }
}

/// Outcome of one (mode, offered-load) point.
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// `"seed"` or `"admission"`.
    pub mode: &'static str,
    /// Offered load as a multiple of probed capacity.
    pub offered_x: f64,
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Requests issued (= schedule length).
    pub sent: u64,
    /// Replies that landed within the deadline of their scheduled arrival.
    pub ok_deadline: u64,
    /// Replies that landed, but late.
    pub late: u64,
    /// Requests shed by admission control (`TRANSIENT`, never dispatched).
    pub shed: u64,
    /// Requests that failed any other way.
    pub failed: u64,
    /// Goodput: deadline-met replies per second of wall time.
    pub goodput_rps: f64,
    /// 99th-percentile sojourn (scheduled arrival → reply) of completed
    /// requests, milliseconds.
    pub p99_sojourn_ms: f64,
    /// Server-side shed counter for this point.
    pub server_sheds: u64,
    /// Server-side brownout-shed counter for this point.
    pub server_brownouts: u64,
    /// Successful `_ZcTelemetry` pings during the point (admission mode).
    pub telemetry_pings: u64,
    /// Failed `_ZcTelemetry` pings during the point.
    pub telemetry_failures: u64,
}

/// A full goodput-vs-offered-load curve: both modes over all multipliers.
#[derive(Debug, Clone)]
pub struct OverloadCurve {
    /// Probed closed-loop capacity (requests per second, no admission).
    pub capacity_rps: f64,
    /// The deadline the goodput definition used, milliseconds.
    pub deadline_ms: u64,
    /// Bulk payload per request.
    pub block_bytes: usize,
    /// Client workers / server connections.
    pub workers: usize,
    /// All points, seed mode first, in multiplier order.
    pub points: Vec<OverloadPoint>,
}

impl OverloadCurve {
    /// Highest goodput any point of `mode` achieved.
    pub fn peak_goodput(&self, mode: OverloadMode) -> f64 {
        self.points
            .iter()
            .filter(|p| p.mode == mode.label())
            .map(|p| p.goodput_rps)
            .fold(0.0, f64::max)
    }

    /// Goodput at the highest offered multiplier of `mode`.
    pub fn goodput_at_max_offered(&self, mode: OverloadMode) -> f64 {
        self.points
            .iter()
            .filter(|p| p.mode == mode.label())
            .max_by(|a, b| a.offered_x.total_cmp(&b.offered_x))
            .map(|p| p.goodput_rps)
            .unwrap_or(0.0)
    }

    /// Post-saturation retention: goodput at the highest offered load as
    /// a fraction of the mode's peak (1.0 = perfect plateau, → 0 =
    /// collapse).
    pub fn plateau_ratio(&self, mode: OverloadMode) -> f64 {
        let peak = self.peak_goodput(mode);
        if peak <= 0.0 {
            return 0.0;
        }
        self.goodput_at_max_offered(mode) / peak
    }

    /// Total server-side sheds across admission-mode points.
    pub fn total_sheds(&self) -> u64 {
        self.points.iter().map(|p| p.server_sheds).sum()
    }

    /// Whether the reserved management lane answered throughout the
    /// admission-mode overload points.
    pub fn telemetry_alive(&self) -> bool {
        let admission: Vec<_> = self
            .points
            .iter()
            .filter(|p| p.mode == OverloadMode::Admission.label())
            .collect();
        !admission.is_empty()
            && admission.iter().any(|p| p.telemetry_pings > 0)
            && admission.iter().all(|p| p.telemetry_failures == 0)
    }
}

impl Row for OverloadCurve {
    /// CSV: a header, then one line per point.
    fn text(&self) -> String {
        let mut out = String::from(
            "mode,offered_x,offered_rps,sent,ok_deadline,late,shed,failed,goodput_rps,p99_sojourn_ms",
        );
        for p in &self.points {
            let _ = write!(
                out,
                "\n{},{:.2},{:.1},{},{},{},{},{},{:.1},{:.3}",
                p.mode,
                p.offered_x,
                p.offered_rps,
                p.sent,
                p.ok_deadline,
                p.late,
                p.shed,
                p.failed,
                p.goodput_rps,
                p.p99_sojourn_ms
            );
        }
        out
    }

    /// One pretty-printed JSON object, one point per row.
    fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object(Layout::Pretty)
            .field("capacity_rps", format_args!("{:.1}", self.capacity_rps))
            .field("deadline_ms", self.deadline_ms)
            .field("block_bytes", self.block_bytes)
            .field("workers", self.workers)
            .field(
                "seed_plateau_ratio",
                format_args!("{:.4}", self.plateau_ratio(OverloadMode::Seed)),
            )
            .field(
                "admission_plateau_ratio",
                format_args!("{:.4}", self.plateau_ratio(OverloadMode::Admission)),
            )
            .field("total_sheds", self.total_sheds())
            .field("telemetry_alive", self.telemetry_alive());
        w.key("points").begin_array(Layout::Pretty);
        for p in &self.points {
            w.begin_object(Layout::Spaced)
                .field_str("mode", p.mode)
                .field("offered_x", format_args!("{:.2}", p.offered_x))
                .field("offered_rps", format_args!("{:.1}", p.offered_rps))
                .field("sent", p.sent)
                .field("ok_deadline", p.ok_deadline)
                .field("late", p.late)
                .field("shed", p.shed)
                .field("failed", p.failed)
                .field("goodput_rps", format_args!("{:.1}", p.goodput_rps))
                .field("p99_sojourn_ms", format_args!("{:.3}", p.p99_sojourn_ms))
                .field("server_sheds", p.server_sheds)
                .field("server_brownouts", p.server_brownouts)
                .field("telemetry_pings", p.telemetry_pings)
                .field("telemetry_failures", p.telemetry_failures)
                .end();
        }
        w.end().end();
        w.finish()
    }
}

/// The overload servant: a bulk sink whose service time depends on the
/// key (hot keys one service unit, cold keys two).
struct BusyBulk {
    hot_keys: u64,
    hot_us: u64,
}

impl Servant for BusyBulk {
    fn repo_id(&self) -> &'static str {
        BUSY_BULK_REPO_ID
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "work" => {
                let key: u64 = req.arg()?;
                let data: zc_cdr::ZcOctetSeq = req.arg()?;
                let us = if key < self.hot_keys {
                    self.hot_us
                } else {
                    self.hot_us * 2
                };
                std::thread::sleep(Duration::from_micros(us));
                req.result(&(data.len() as u64))
            }
            other => req.bad_operation(other),
        }
    }
}

struct Fixture {
    net: SimNetwork,
    telemetry: Arc<Telemetry>,
    server: zc_orb::ServerHandle,
    _server_orb: Orb,
}

fn fixture(params: &OverloadParams, admission: Option<AdmissionConfig>) -> Fixture {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let telemetry = Telemetry::with_capacity(4096);
    let mut builder = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry));
    if let Some(cfg) = admission {
        builder = builder.admission(cfg);
    }
    let server_orb = builder.build();
    let skew = params.skew();
    server_orb.adapter().register(
        BUSY_BULK_KEY,
        Arc::new(BusyBulk {
            hot_keys: skew.hot_keys,
            hot_us: params.hot_service_us,
        }),
    );
    let server = server_orb.serve(0).expect("serve");
    Fixture {
        net,
        telemetry,
        server,
        _server_orb: server_orb,
    }
}

/// Closed-loop capacity probe: all workers issue back-to-back against an
/// unlimited server; the measured rate is the saturation point the sweep
/// multipliers are relative to.
pub fn probe_capacity(params: &OverloadParams) -> f64 {
    let fix = fixture(params, None);
    let ior = fix
        .server
        .ior_for(BUSY_BULK_KEY, BUSY_BULK_REPO_ID)
        .expect("ior");
    let client = Orb::builder()
        .sim(fix.net.clone())
        .retry(RetryPolicy::none())
        .build();
    let calls_per_worker = 100usize;
    let skew = params.skew();
    let start = Instant::now();
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..params.workers)
            .map(|w| {
                let client = &client;
                let ior = &ior;
                let skew = &skew;
                s.spawn(move || {
                    let obj = client.resolve_private(ior).expect("resolve");
                    let payload = zc_cdr::ZcOctetSeq::with_length(params.block_bytes);
                    let mut rng = SeededRng::new(params.seed ^ (w as u64 + 1));
                    let mut done = 0u64;
                    for _ in 0..calls_per_worker {
                        let key = skew.sample(&mut rng);
                        if invoke_work(&obj, key, &payload).is_ok() {
                            done += 1;
                        }
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    total as f64 / elapsed
}

fn invoke_work(obj: &zc_orb::ObjectRef, key: u64, payload: &zc_cdr::ZcOctetSeq) -> OrbResult<u64> {
    obj.request("work")
        .arg(&key)?
        .arg(payload)?
        .invoke()?
        .result()
}

struct WorkerTally {
    ok: u64,
    late: u64,
    shed: u64,
    failed: u64,
    sojourns_ns: Vec<u64>,
    finished_at: Instant,
}

/// Run one (mode, offered-load) point.
pub fn run_point(
    params: &OverloadParams,
    mode: OverloadMode,
    offered_x: f64,
    capacity_rps: f64,
) -> OverloadPoint {
    let admission = match mode {
        OverloadMode::Seed => None,
        OverloadMode::Admission => Some(params.admission_config()),
    };
    let fix = fixture(params, admission);
    let ior = fix
        .server
        .ior_for(BUSY_BULK_KEY, BUSY_BULK_REPO_ID)
        .expect("ior");
    let client = Orb::builder()
        .sim(fix.net.clone())
        .retry(RetryPolicy::none())
        .build();

    let offered_rps = (capacity_rps * offered_x).max(1.0);
    let count = ((offered_rps * params.point_duration_s) as usize).max(params.workers);
    // Decorrelate the schedule across points without Date/rand: fold the
    // multiplier into the seed.
    let point_seed =
        params.seed ^ ((offered_x * 1000.0) as u64) ^ ((mode.label().len() as u64) << 32);
    let schedule = ArrivalSchedule::poisson(point_seed, offered_rps, count);
    let skew = params.skew();
    let keys: Vec<u64> = {
        let mut rng = SeededRng::new(point_seed.wrapping_add(1));
        (0..count).map(|_| skew.sample(&mut rng)).collect()
    };

    let deadline = Duration::from_millis(params.deadline_ms);
    // Epoch far enough out that every worker has resolved its connection
    // before the first arrival is due.
    let epoch = Instant::now() + Duration::from_millis(50);
    let next = Arc::new(AtomicUsize::new(0));
    let stop_poller = Arc::new(AtomicBool::new(false));

    // Management-lane poller: only meaningful when the data plane sheds.
    let poller = if mode == OverloadMode::Admission {
        let host = fix.server.host().to_string();
        let port = fix.server.port();
        let client = client.clone();
        let stop = Arc::clone(&stop_poller);
        Some(std::thread::spawn(move || {
            let mut ok = 0u64;
            let mut failed = 0u64;
            match TelemetryClient::connect(&client, &host, port) {
                Ok(tc) => {
                    while !stop.load(Ordering::Relaxed) {
                        match tc.ping() {
                            Ok(1) => ok += 1,
                            _ => failed += 1,
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                Err(_) => failed += 1,
            }
            (ok, failed)
        }))
    } else {
        None
    };

    let tallies: Vec<WorkerTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..params.workers)
            .map(|_| {
                let client = &client;
                let ior = &ior;
                let schedule = &schedule;
                let keys = &keys;
                let next = Arc::clone(&next);
                s.spawn(move || {
                    let obj = client.resolve_private(ior).expect("resolve");
                    let payload = zc_cdr::ZcOctetSeq::with_length(params.block_bytes);
                    let mut t = WorkerTally {
                        ok: 0,
                        late: 0,
                        shed: 0,
                        failed: 0,
                        sojourns_ns: Vec::new(),
                        finished_at: Instant::now(),
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= schedule.len() {
                            break;
                        }
                        let due = epoch + Duration::from_nanos(schedule.arrivals_ns[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let outcome = invoke_work(&obj, keys[i], &payload);
                        let end = Instant::now();
                        let sojourn = end.saturating_duration_since(due);
                        match outcome {
                            Ok(_) => {
                                t.sojourns_ns.push(sojourn.as_nanos() as u64);
                                if sojourn <= deadline {
                                    t.ok += 1;
                                } else {
                                    t.late += 1;
                                }
                            }
                            Err(OrbError::System(ex)) if zc_orb::admission::is_shed(&ex) => {
                                t.shed += 1;
                            }
                            Err(_) => t.failed += 1,
                        }
                    }
                    t.finished_at = Instant::now();
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    stop_poller.store(true, Ordering::Relaxed);
    let (telemetry_pings, telemetry_failures) =
        poller.map(|h| h.join().expect("poller")).unwrap_or((0, 0));

    let metrics = fix.telemetry.metrics();
    let server_sheds = metrics.sheds.get();
    let server_brownouts = metrics.brownout_sheds.get();

    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let late: u64 = tallies.iter().map(|t| t.late).sum();
    let shed: u64 = tallies.iter().map(|t| t.shed).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let wall = tallies
        .iter()
        .map(|t| t.finished_at.saturating_duration_since(epoch))
        .max()
        .unwrap_or_default()
        .as_secs_f64()
        .max(1e-9);

    let mut sojourns: Vec<u64> = tallies.into_iter().flat_map(|t| t.sojourns_ns).collect();
    sojourns.sort_unstable();
    let p99_sojourn_ms = if sojourns.is_empty() {
        0.0
    } else {
        let idx = ((sojourns.len() as f64 * 0.99) as usize).min(sojourns.len() - 1);
        sojourns[idx] as f64 / 1e6
    };

    OverloadPoint {
        mode: mode.label(),
        offered_x,
        offered_rps,
        sent: count as u64,
        ok_deadline: ok,
        late,
        shed,
        failed,
        goodput_rps: ok as f64 / wall,
        p99_sojourn_ms,
        server_sheds,
        server_brownouts,
        telemetry_pings,
        telemetry_failures,
    }
}

/// Run the full sweep: probe capacity, then every multiplier in both
/// modes (seed first). `progress` receives one line per completed point.
pub fn run_sweep(params: &OverloadParams, mut progress: impl FnMut(&str)) -> OverloadCurve {
    let capacity_rps = probe_capacity(params);
    progress(&format!(
        "probed closed-loop capacity: {capacity_rps:.0} rps ({} workers)",
        params.workers
    ));
    let mut points = Vec::new();
    for mode in [OverloadMode::Seed, OverloadMode::Admission] {
        for &x in &params.multipliers {
            let p = run_point(params, mode, x, capacity_rps);
            progress(&format!(
                "{:>9} x{:.2}: offered {:.0} rps, goodput {:.0} rps ({} ok, {} late, {} shed, {} failed)",
                p.mode, p.offered_x, p.offered_rps, p.goodput_rps, p.ok_deadline, p.late, p.shed, p.failed
            ));
            points.push(p);
        }
    }
    OverloadCurve {
        capacity_rps,
        deadline_ms: params.deadline_ms,
        block_bytes: params.block_bytes,
        workers: params.workers,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// These tests measure wall-clock timing with sleeping workers, so
    /// running them concurrently (with each other or with the rest of the
    /// lib suite's heavier tests) skews every deadline — serialize them.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn capacity_probe_is_positive() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let mut p = OverloadParams::smoke(7);
        p.workers = 2;
        p.hot_service_us = 100;
        let cap = probe_capacity(&p);
        assert!(cap > 0.0, "capacity {cap}");
    }

    #[test]
    fn overload_point_sheds_under_admission_and_keeps_telemetry_alive() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let params = OverloadParams::smoke(11);
        // Past saturation with a bounded budget: sheds must appear, the
        // reserved lane must answer, and nothing may fail outright.
        let cap = probe_capacity(&params);
        let p = run_point(&params, OverloadMode::Admission, 2.0, cap);
        assert!(p.shed > 0, "no client-visible sheds: {p:?}");
        assert!(p.server_sheds > 0, "no server-side sheds: {p:?}");
        assert_eq!(p.failed, 0, "unexpected hard failures: {p:?}");
        assert!(p.telemetry_pings > 0, "management lane never answered");
        assert_eq!(p.telemetry_failures, 0, "management lane failed: {p:?}");
        assert_eq!(
            p.sent,
            p.ok_deadline + p.late + p.shed + p.failed,
            "classification must partition the schedule"
        );
    }

    #[test]
    fn admission_plateaus_where_seed_collapses() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let params = OverloadParams::smoke(23);
        let curve = run_sweep(&params, |_| {});
        // The admission curve must retain most of its peak past
        // saturation; the seed curve must retain clearly less. Thresholds
        // are looser than the full sweep's gate (0.8) to keep CI unflaky.
        let adm = curve.plateau_ratio(OverloadMode::Admission);
        let seed = curve.plateau_ratio(OverloadMode::Seed);
        assert!(adm > 0.5, "admission plateau ratio {adm:.2}");
        assert!(
            seed < adm,
            "seed ({seed:.2}) should collapse harder than admission ({adm:.2})"
        );
        assert!(curve.total_sheds() > 0, "sweep never shed");
        assert!(curve.telemetry_alive(), "management lane went dark");
        // JSON renders and mentions both modes.
        let json = curve.json();
        assert!(json.contains("\"seed\"") && json.contains("\"admission\""));
        assert!(json.contains("telemetry_alive"));
    }
}
