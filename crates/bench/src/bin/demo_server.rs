//! `demo_server` — a self-loading TCP demo ORB for exercising `zc-top`.
//!
//! Boots a real TCP ORB with telemetry enabled, registers a bulk-transfer
//! sink, and (optionally) saturates it with its own loopback client
//! threads so the introspection plane has live traffic to report.
//!
//! ```text
//! cargo run -p zc-bench --bin demo_server -- --port 47117 --load 2 --duration-secs 30
//! # then, in another terminal:
//! cargo run -p zc-bench --bin zc-top -- --connect 127.0.0.1:47117
//! ```
//!
//! Prints `zcorba demo server listening on HOST:PORT` once the acceptor is
//! up — scripts wait for that line before polling. `--duration-secs 0`
//! (the default) serves until killed.
//!
//! `--admit-requests N` (with an optional `--admit-bytes B`, default
//! `N × block`) bounds the dispatch queue: excess loopback load is shed
//! with `TRANSIENT` and shows up in zc-top's `sheds_total` while the
//! `_ZcTelemetry` lane keeps answering — the CI overload-smoke job drives
//! exactly this. Load threads count sheds and keep going; only hard
//! failures stop them.
//!
//! `--spool DIR` drains the flight recorder into durable segment files
//! under `DIR` (see `zc_trace::SpoolConfig`) and additionally runs a small
//! in-process *journey demo*: a two-replica object group is booted on the
//! same shared telemetry, the primary is killed mid-stream, and an
//! idempotent caller fails over — so the spooled segments always contain
//! at least one multi-attempt journey for `zc-top --spool DIR` to
//! reconstruct. The CI trace-spool smoke job drives exactly this.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zc_bench::cli::{self, Flag, Kind};
use zc_giop::Ior;
use zc_orb::{AdmissionConfig, ObjectAdapterExt, Orb, OrbError, OrbResult, Servant, ServerRequest};
use zc_ttcp::Sink;

const PONG_REPO_ID: &str = "IDL:zcorba/bench/Pong:1.0";

/// The journey demo's replica servant: a trivial idempotent `ping` plus a
/// `nap` stall used to poison a connection to a killed primary.
struct Pong;

impl Servant for Pong {
    fn repo_id(&self) -> &'static str {
        PONG_REPO_ID
    }

    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "ping" => {
                let n: u32 = req.arg()?;
                req.result(&n)
            }
            "nap" => {
                let ms: u32 = req.arg()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                req.result(&ms)
            }
            other => req.bad_operation(other),
        }
    }
}

/// Boot a two-replica Pong group on `telemetry`, kill the primary
/// mid-stream, and drive an idempotent caller across the failover. Every
/// event lands in the shared recorder, so the spool (owned by the main
/// server ORB) captures a complete multi-attempt journey.
fn run_journey_demo(telemetry: &Arc<zc_trace::Telemetry>) {
    let mut servers = Vec::new();
    let mut orbs = Vec::new();
    let mut iors = Vec::new();
    for _ in 0..2 {
        let orb = Orb::builder()
            .tcp()
            .telemetry(Arc::clone(telemetry))
            .build();
        orb.adapter().register("pong", Arc::new(Pong));
        let server = orb.serve(0).expect("bind journey replica");
        iors.push(server.ior_for("pong", PONG_REPO_ID).expect("pong ior"));
        servers.push(server);
        orbs.push(orb);
    }
    let group = Ior::merge_group(&iors).expect("journey group ior");
    let client = Orb::builder()
        .tcp()
        .telemetry(Arc::clone(telemetry))
        .build();
    let obj = match client.resolve(&group) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("journey demo: resolve failed: {e}");
            return;
        }
    };
    let ping = |n: u32| {
        obj.request("ping")
            .arg(&n)
            .expect("marshal")
            .idempotent()
            .invoke()
            .and_then(|r| r.result::<u32>())
    };
    for n in 0..3 {
        let _ = ping(n);
    }
    // Kill the primary mid-stream: stop its acceptor, then poison the
    // still-open connection with a timed-out nap (real TCP has no fault
    // injection; the stall plays the dead peer). The next idempotent ping
    // reconnects, is refused, and rotates to the backup — a journey whose
    // second attempt carries a nonzero cause tag.
    servers.remove(0).shutdown();
    let _ = obj
        .request("nap")
        .arg(&5_000u32)
        .expect("marshal")
        .idempotent()
        .invoke_timeout(Duration::from_millis(50));
    let mut recovered = false;
    for n in 0..3 {
        recovered |= ping(n).is_ok();
    }
    for s in servers {
        s.shutdown();
    }
    if recovered {
        println!("zcorba journey demo complete (failover exercised)");
    } else {
        eprintln!("journey demo: failover never recovered");
    }
}

const FLAGS: &[Flag] = &[
    ("--port", Kind::Num(u16::MAX as u64)),
    ("--load", Kind::Num(1 << 10)),
    ("--block-kib", Kind::Num(1 << 20)),
    ("--duration-secs", Kind::Num(u64::MAX)),
    ("--admit-requests", Kind::Num(u64::MAX)),
    ("--admit-bytes", Kind::Num(u64::MAX)),
    ("--spool", Kind::Text("DIR")),
];

fn main() {
    let args = cli::parse_or_exit("demo_server", FLAGS, &cli::argv());
    let port = args.num("--port").unwrap_or(0) as u16;
    let load_threads = args.num("--load").unwrap_or(2);
    let block_kib = args.num("--block-kib").unwrap_or(256) as usize;
    let duration_secs = args.num("--duration-secs").unwrap_or(0);
    let admit_requests = args.num("--admit-requests").unwrap_or(0);
    let admit_bytes = args
        .num("--admit-bytes")
        .unwrap_or(admit_requests.saturating_mul((block_kib as u64) << 10));
    let spool_dir = args.text("--spool");

    let telemetry = zc_trace::Telemetry::with_capacity(4096);
    let mut builder = Orb::builder().tcp().telemetry(Arc::clone(&telemetry));
    if admit_requests > 0 {
        builder = builder.admission(AdmissionConfig::bounded(admit_requests, admit_bytes));
    }
    if let Some(dir) = &spool_dir {
        builder = builder.trace_spool(zc_trace::SpoolConfig::new(dir));
    }
    let server_orb = builder.build();
    // The bed's sink, unverified: its `push_zc` acknowledges a block's
    // length and does nothing else, so wire bytes and deposit traffic
    // dominate.
    server_orb
        .adapter()
        .register("bulk", Arc::new(Sink::default()));
    let server = server_orb.serve(port).expect("bind demo server");
    let (host, port) = (server.host().to_string(), server.port());
    println!("zcorba demo server listening on {host}:{port}");
    let _ = std::io::stdout().flush();

    let stop = Arc::new(AtomicBool::new(false));
    let shed_seen = Arc::new(AtomicU64::new(0));
    let ior = server.ior_for("bulk", Sink::REPO_ID).expect("bulk ior");
    let mut workers = Vec::new();
    for i in 0..load_threads {
        let stop = Arc::clone(&stop);
        let shed_seen = Arc::clone(&shed_seen);
        let ior = ior.clone();
        // The loopback load clients share the server's telemetry, so one
        // zc-top poll sees the whole request lifecycle — client marshal
        // stages and reply latencies alongside the server-side counters.
        let telemetry = Arc::clone(&telemetry);
        workers.push(
            std::thread::Builder::new()
                .name(format!("demo-load-{i}"))
                .spawn(move || {
                    let client = Orb::builder().tcp().telemetry(telemetry).build();
                    let obj = match client.resolve(&ior) {
                        Ok(o) => o,
                        Err(e) => {
                            eprintln!("load thread {i}: resolve failed: {e}");
                            return;
                        }
                    };
                    let payload = zc_cdr::ZcOctetSeq::with_length(block_kib << 10);
                    while !stop.load(Ordering::Relaxed) {
                        // Block index 0 every time: the sink does not verify.
                        let sent = obj
                            .request("push_zc")
                            .arg(&0u64)
                            .and_then(|r| r.arg(&payload))
                            .expect("marshal")
                            .invoke()
                            .and_then(|r| r.result::<u32>());
                        match sent {
                            Ok(n) => debug_assert_eq!(n as usize, payload.len()),
                            // Shed with completed = NO: the server is
                            // protecting itself, not failing. Count it and
                            // keep offering load — that pressure is the
                            // point of the overload demo.
                            Err(OrbError::System(ex)) if zc_orb::admission::is_shed(&ex) => {
                                shed_seen.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("load thread {i}: push failed: {e}");
                                break;
                            }
                        }
                    }
                })
                .expect("spawn load thread"),
        );
    }

    let deadline = (duration_secs > 0).then(|| Instant::now() + Duration::from_secs(duration_secs));
    loop {
        std::thread::sleep(Duration::from_millis(200));
        if let Some(d) = deadline {
            if Instant::now() >= d {
                break;
            }
        }
    }

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        let _ = w.join();
    }

    // With a spool configured, guarantee the retained segments hold at
    // least one multi-attempt journey regardless of how much external load
    // ran: the demo goes last, after the load threads stop, so rotation
    // can no longer prune its events before the final drain.
    if spool_dir.is_some() {
        run_journey_demo(&telemetry);
    }

    server.shutdown();
    let sheds = shed_seen.load(Ordering::Relaxed);
    if sheds > 0 {
        println!("zcorba demo server shed {sheds} requests (admission control)");
    }
    println!("zcorba demo server done");
}
