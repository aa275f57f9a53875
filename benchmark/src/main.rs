//! The zcorba benchmark: six closed-loop ORB workloads, their end-to-end
//! metrics, and an outside-in layer ladder. See README.md beside this
//! package for the metric tables and how the layers are expected to move
//! the end-to-end numbers.
//!
//! `zcorba-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints its metrics by name, the
//! last line being the result object the driver reads. `--trace 0`
//! measures the end-to-end metrics with every kind of tracing off;
//! `--trace 1` records spans around the calls into the ORB, climbs the
//! layer ladder and prints the per-layer metrics.

mod alloc;
mod host;
mod ladder;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zc_buffers::CopyLayer;

use host::HostRecord;
use report::{Outcome, Values, END_TO_END, PER_LAYER};
use run::{run_leg, Section, Tracer};
use spans::{Kind, Span, SpanLog};
use workload::{Op, Rig, Spec, Stack};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `setup_s` is the median of at least this many complete set-ups, ...
const MIN_SETUPS: usize = 7;
/// ... of as many as fit in this long, ...
const SETUPS_FOR: Duration = Duration::from_millis(500);
/// ... and of at most this many (each opens sockets on the tcp workload).
const MAX_SETUPS: usize = 64;
/// Legs of each of a traced run's two sections, reference and traced.
const TRACE_LEGS: usize = 4;
/// Where span files go, relative to the checkout the command runs from.
const OUT_DIR: &str = "benchmark/out";
/// Spans each side of a traced run may record before it starts dropping.
const SPAN_CAPACITY: usize = 4 << 20;
/// The all-zero-copy invariant, as a check: overhead bytes copied per
/// payload byte on the sim zero-copy bulk workloads.
const MAX_ZC_COPY_FACTOR: f64 = 0.05;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::spec_named(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    Ok(Args {
        spec,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(8.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zcorba-benchmark: {e}");
            eprintln!(
                "usage: zcorba-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    alloc::mark_client_thread();
    let host = HostRecord::read_and_pin();
    println!(
        "zcorba-benchmark workload={} seed={} seconds={} trace={}",
        args.spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc={} load1={:.2} kernel={} threads={} transport={}{}",
        host.nproc,
        host.load1,
        host.kernel,
        if host.pinned {
            "pinned (client and server on a CPU each)"
        } else {
            "unpinned"
        },
        match args.spec.stack {
            Stack::LoopbackTcp => "loopback (real TCP over lo, not a link)",
            _ => "sim (in-process, no wire)",
        },
        if host.unreliable() {
            "  ** UNRELIABLE: load1 > nproc when the run began **"
        } else {
            ""
        }
    );

    let (table, result): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, traced_run(&args))
    } else {
        (&END_TO_END, untraced_run(&args))
    };
    match result {
        Ok(outcome) => {
            print!("{}", report::table_text(table, &outcome.values));
            println!("{}", report::json_line(table, &outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "zcorba-benchmark: {} of {} operations failed or a check did not hold",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("zcorba-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether the workload must hold the all-zero-copy invariant.
fn must_be_zero_copy(spec: &Spec) -> bool {
    spec.stack == Stack::SimZeroCopy && spec.block_bytes > 0
}

/// What every run checks of a section: no operation failed, and the sim
/// zero-copy bulk workloads copied (next to) nothing.
fn section_is_correct(spec: &Spec, section: &Section) -> bool {
    let mut correct = section.failed() == 0 && section.completed() > 0;
    let factor = section.copy_factor();
    if must_be_zero_copy(spec) && factor >= MAX_ZC_COPY_FACTOR {
        eprintln!(
            "zcorba-benchmark: {} copied {factor:.3} overhead bytes per payload byte; \
             the zero-copy path allows {MAX_ZC_COPY_FACTOR}",
            spec.name
        );
        correct = false;
    }
    correct
}

/// Seconds each of several complete set-ups took: ORB build, serve,
/// resolve (connect and handshake), input generation and the leading
/// verified operations. Taken after the timed section, when whatever the
/// process start stirred up on the host has settled, and repeated until
/// both a count and a duration are reached so cheap set-ups get more
/// samples.
fn time_setups(args: &Args) -> Result<Vec<f64>, String> {
    let began = Instant::now();
    let mut setup_s = Vec::new();
    while setup_s.len() < MIN_SETUPS || (began.elapsed() < SETUPS_FOR && setup_s.len() < MAX_SETUPS)
    {
        let t = Instant::now();
        let rig = Rig::set_up(args.spec, args.seed, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        rig.teardown();
    }
    Ok(setup_s)
}

/// `--trace 0`: the timed section with all tracing off, then the set-up
/// timing, then the end-to-end metrics.
fn untraced_run(args: &Args) -> Result<Outcome, String> {
    let section = Section {
        legs: vec![run_leg(args.spec, args.seed, (0, 1), args.seconds, None)?],
    };
    let peak_rss_mib = host::peak_rss_mib();
    let setup_s = time_setups(args)?;

    let rates = section.window_rates();
    let (q1, _, q3) = stats::quartiles(&rates);
    let ops_per_s = section.ops_per_s();
    let payload_bits = section.payload_bytes() * 8.0;
    let completed = section.completed();
    let mut v = Values::default();
    let windows_note = |scale: f64| {
        format!(
            "interquartile mean of {} windows, q1={:.4} q3={:.4}",
            rates.len(),
            q1 * scale,
            q3 * scale
        )
    };
    v.note(
        "goodput_mbit_s",
        ops_per_s * payload_bits / 1e6,
        windows_note(payload_bits / 1e6),
    );
    v.note("ops_per_s", ops_per_s, windows_note(1.0));
    v.note("rtt_p50_us", section.rtt_p50_us(), format!("n={completed}"));
    v.note(
        "cpu_us_per_op",
        section.cpu_s() * 1e6 / completed.max(1) as f64,
        format!(
            "{:.2} CPU-s over {:.2} s wall",
            section.cpu_s(),
            section.wall_s()
        ),
    );
    let allocs = section.sum(|l| l.after.allocs.since(&l.before.allocs).total_allocs());
    v.note(
        "allocs_per_op",
        section.per_op(allocs),
        format!("n={completed} ops"),
    );
    v.set("peak_rss_mib", peak_rss_mib);
    v.note(
        "setup_s",
        stats::median(&setup_s),
        format!("median of {} set-ups", setup_s.len()),
    );
    println!(
        "  failure_ratio {} of {} attempted; copy_factor {:.4}",
        section.failed(),
        section.attempted(),
        section.copy_factor()
    );
    Ok(Outcome {
        correct: section_is_correct(&args.spec, &section),
        attempted: section.attempted(),
        failed: section.failed(),
        values: v,
    })
}

/// `--trace 1`: an untraced reference section and a traced section, their
/// legs interleaved; the layer ladder; the per-layer metrics; and the span
/// file, written when everything has been measured.
fn traced_run(args: &Args) -> Result<Outcome, String> {
    let spec = args.spec;
    // The run's time is split between the two sections and the ladder so a
    // traced run lasts about as long as an untraced one.
    let section_s = args.seconds * 0.3;
    let rung_budget = Duration::from_secs_f64(args.seconds * 0.3 / 12.0);

    let server_spans = Arc::new(Mutex::new(SpanLog::with_capacity(SPAN_CAPACITY)));
    let mut client_spans = SpanLog::with_capacity(SPAN_CAPACITY);
    let (mut reference, mut traced) = (Section { legs: vec![] }, Section { legs: vec![] });
    for leg in 0..TRACE_LEGS {
        let part = (leg, TRACE_LEGS);
        reference
            .legs
            .push(run_leg(spec, args.seed, part, section_s, None)?);
        let tracer = Tracer {
            server: &server_spans,
            client: &mut client_spans,
        };
        traced
            .legs
            .push(run_leg(spec, args.seed, part, section_s, Some(tracer))?);
    }

    // Spans of timed operations only: the servant also saw the verified
    // and warm-up operations of the traced legs.
    let server_log = server_spans.lock().expect("span log mutex never poisoned");
    let timed = |op: u64| traced.legs.iter().any(|l| l.ops.contains(&op));
    let mut all: Vec<Span> = client_spans.spans().to_vec();
    all.extend(server_log.spans().iter().filter(|s| timed(s.op)));
    let dropped = client_spans.dropped() + server_log.dropped();
    drop(server_log);

    let rungs = ladder::climb(spec, args.seed, rung_budget);

    // The product's own observer cost: the telemetry workload's median
    // round trip minus its bypass's, from untraced sections of both.
    let telemetry_cost_ns = match spec.op {
        Op::EchoSmall => {
            let other = workload::SPECS
                .into_iter()
                .find(|s| s.op == Op::EchoSmall && s.telemetry != spec.telemetry)
                .expect("the small-request workload has a telemetry twin");
            let twin = Section {
                legs: vec![run_leg(other, args.seed, (0, 1), section_s, None)?],
            };
            let (with, without) = if spec.telemetry {
                (&reference, &twin)
            } else {
                (&twin, &reference)
            };
            (with.rtt_p50_us() - without.rtt_p50_us()) * 1e3
        }
        _ => 0.0,
    };

    let mut v = Values::default();
    for (name, ns) in rungs {
        v.note(
            name,
            ns,
            format!("ladder, median of {} batches", ladder::BATCHES),
        );
    }

    for (kind, name) in [
        (Kind::ClientMarshal, "core.client_marshal_ns"),
        (Kind::Invoke, "core.invoke_ns"),
        (Kind::ClientDemarshal, "core.client_demarshal_ns"),
        (Kind::ServantDemarshal, "core.servant_demarshal_ns"),
        (Kind::ServantReply, "core.servant_reply_ns"),
        (Kind::Dispatch, "core.dispatch_ns"),
    ] {
        let durs = spans::durations_ns(&all, kind);
        v.note(
            name,
            stats::median(&durs),
            format!("span median, n={}", durs.len()),
        );
    }
    let invoke_self = stats::median(&spans::self_times_ns(&all, Kind::Invoke, Kind::Dispatch));
    v.note(
        "core.invoke_self_ns",
        invoke_self,
        "invoke minus the dispatch interval it covers".into(),
    );
    let deposits_per_op = if matches!(spec.op, Op::PushZc | Op::PullZc) {
        1.0
    } else {
        0.0
    };
    let attributed = v.get("giop.header_codec_ns")
        + v.get("giop.fragment_reassemble_ns")
        + v.get("transport.control_rtt_ns")
        + v.get("transport.data_block_ns")
        + v.get("buffers.zcbytes_clone_slice_ns") * deposits_per_op;
    let unattributed = invoke_self - attributed;
    let traced_p50_ns = traced.rtt_p50_us() * 1e3;
    v.note(
        "core.unattributed_ns",
        unattributed,
        format!("invoke_self {invoke_self:.0} - ladder {attributed:.0}"),
    );
    v.note(
        "core.unattributed_pct",
        100.0 * unattributed / traced_p50_ns.max(1.0),
        format!("of the traced rtt_p50 {traced_p50_ns:.0} ns"),
    );

    // Counters the program keeps, read around each traced leg.
    let per_op = |f: &dyn Fn(&run::Counters) -> u64| {
        traced.per_op(traced.sum(|l| f(&l.after) - f(&l.before)))
    };
    let fresh = traced.sum(|l| l.after.pool.fresh_allocations - l.before.pool.fresh_allocations);
    let reuses = traced.sum(|l| l.after.pool.reuses - l.before.pool.reuses);
    v.set(
        "buffers.pool_acquires_per_op",
        traced.per_op(fresh + reuses),
    );
    v.set(
        "buffers.pool_reuse_ratio",
        reuses as f64 / (fresh + reuses).max(1) as f64,
    );
    v.set("buffers.pool_discards_per_op", per_op(&|c| c.pool.discards));
    v.set("buffers.copy_factor", traced.copy_factor());
    v.set(
        "cdr.copy_bytes_per_op",
        traced.per_op(traced.copied(&[CopyLayer::Marshal, CopyLayer::Demarshal])),
    );
    v.set(
        "giop.control_frames_per_op",
        per_op(&|c| c.conn.control_sent + c.conn.control_recv),
    );
    v.note(
        "transport.wire_bytes_per_op",
        per_op(&|c| c.conn.wire_bytes_sent + c.conn.wire_bytes_recv),
        "client endpoint, both directions".into(),
    );
    v.note(
        "transport.frames_per_op",
        per_op(&|c| c.conn.frames_sent),
        "frames the client endpoint sent".into(),
    );
    v.set(
        "transport.copy_bytes_per_op",
        traced.per_op(traced.copied(&[
            CopyLayer::SocketSend,
            CopyLayer::SocketRecv,
            CopyLayer::KernelFrag,
            CopyLayer::KernelDefrag,
        ])),
    );
    let fallback = traced.copied(&[CopyLayer::DepositFallback]);
    let speculated = spec.stack == Stack::SimZeroCopy && deposits_per_op > 0.0;
    let deposited = traced.completed() as f64 * traced.payload_bytes();
    v.note(
        "transport.spec_hit_ratio",
        if speculated {
            1.0 - fallback as f64 / deposited.max(1.0)
        } else {
            0.0
        },
        if speculated {
            "deposited bytes that landed in place".into()
        } else {
            "nothing speculated on this workload".into()
        },
    );
    v.set(
        "transport.deposit_fallback_bytes_per_op",
        traced.per_op(fallback),
    );
    let allocs = |f: &dyn Fn(&alloc::AllocSnapshot) -> u64| {
        traced.per_op(traced.sum(|l| f(&l.after.allocs.since(&l.before.allocs))))
    };
    v.set("core.allocs_client_per_op", allocs(&|a| a.client_allocs));
    v.set("core.allocs_server_per_op", allocs(&|a| a.server_allocs));
    v.set("core.alloc_bytes_per_op", allocs(&|a| a.bytes));
    v.set("core.retries_per_op", per_op(&|c| c.retries));
    v.set("core.sheds_per_op", per_op(&|c| c.sheds));
    v.set("trace.telemetry_cost_ns", telemetry_cost_ns);
    v.set("trace.events_per_op", per_op(&|c| c.trace_events));
    v.set("trace.recorder_drops_per_op", per_op(&|c| c.trace_drops));
    let (ref_rate, traced_rate) = (reference.ops_per_s(), traced.ops_per_s());
    v.note(
        "bench.trace_overhead_pct",
        100.0 * (ref_rate - traced_rate) / ref_rate.max(1.0),
        format!("untraced {ref_rate:.1} ops/s, traced {traced_rate:.1} ops/s"),
    );
    let pooled = reference.pooled_rtts_ns();
    let beyond = stats::samples_beyond(pooled.len(), 99.0);
    v.note(
        "bench.rtt_p99_us",
        stats::percentile_sorted(&pooled, 99.0) as f64 / 1e3,
        format!(
            "untraced section, n={}, {beyond} beyond{}",
            pooled.len(),
            if beyond < 10 { " (too few: <10)" } else { "" }
        ),
    );

    // Spans leave memory only now, when everything has been measured.
    let path = PathBuf::from(OUT_DIR).join(format!("{}.spans.csv", spec.name));
    spans::write_file(
        &path,
        &format!(
            "workload={} seed={} ops={} dropped={dropped}",
            spec.name,
            args.seed,
            traced.attempted()
        ),
        &all,
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "  spans: {} written to {} ({dropped} dropped)",
        all.len(),
        path.display()
    );

    Ok(Outcome {
        correct: section_is_correct(&spec, &reference) && section_is_correct(&spec, &traced),
        attempted: reference.attempted() + traced.attempted(),
        failed: reference.failed() + traced.failed(),
        values: v,
    })
}
