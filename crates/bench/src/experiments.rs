//! The experiments behind `zc-bench <experiment>`: one table, one row per
//! experiment, over library functions that take their sizes as arguments
//! (the table rows pick the paper-sized ones from the flags; tests pick
//! the smallest). Each function builds its records once and hands them to
//! the [`Reporter`]; none of them knows whether text or JSON comes out.

use std::path::Path;
use std::time::Instant;

use zc_buffers::{CopyLayer, ZcBytes};
use zc_mpeg::{EncoderConfig, FarmParams, PayloadMode, TranscodeFarm, VideoFormat};
use zc_orb::OrbBuilder;
use zc_simnet::{
    cpu_utilization as modeled_cpu, predict, run_sweep, LinkSpec, MachineSpec, OrbMode, Scenario,
    SocketMode, FIGURE_CONFIGS,
};
use zc_trace::{Stage, Telemetry};
use zc_transport::SimConfig;
use zc_ttcp::{run_latency, run_modeled, OrbPair, Series, Sink, Stack, TtcpTransport, TtcpVersion};

use crate::cli::{Args, Flag, Kind, JSON};
use crate::overload::{
    run_sweep as overload_sweep, OverloadMode, OverloadParams, OVERLOAD_PLATEAU_GATE,
    OVERLOAD_PLATEAU_GATE_SMOKE,
};
use crate::report::Member::{Count, Real, Text};
use crate::report::{run_breakdown, Reporter, Row, SeriesTable, TelemetryRow};
use crate::{fault_sweep_point, measured_block_sizes, measured_point};

/// One experiment of the evaluation.
pub struct Experiment {
    /// The subcommand.
    pub name: &'static str,
    /// Where it belongs in the paper and in EXPERIMENTS.md.
    pub anchor: &'static str,
    /// The flags it accepts.
    pub flags: &'static [Flag],
    /// Run it at paper size, as the flags say.
    pub run: fn(&Args, &mut Reporter),
}

const FIGURE_FLAGS: &[Flag] = &[JSON, ("--full", Kind::Switch), ("--no-trace", Kind::Switch)];

fn run_figure(fig: &Figure, args: &Args, rep: &mut Reporter) {
    let host_sizes = measured_block_sizes(args.flag("--full"));
    figure(fig, &host_sizes, !args.flag("--no-trace"), rep);
}

/// Every experiment, by subcommand.
pub const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "fig5",
        anchor: "E1, Figure 5: unoptimized sockets vs unoptimized CORBA",
        flags: FIGURE_FLAGS,
        run: |a, r| run_figure(&FIG5, a, r),
    },
    Experiment {
        name: "fig6_sockets",
        anchor: "E2, Figure 6 (left): copying vs zero-copy sockets",
        flags: FIGURE_FLAGS,
        run: |a, r| run_figure(&FIG6_SOCKETS, a, r),
    },
    Experiment {
        name: "fig6_orb",
        anchor: "E3, Figure 6 (right): the ORB comparison",
        flags: FIGURE_FLAGS,
        run: |a, r| run_figure(&FIG6_ORB, a, r),
    },
    Experiment {
        name: "overhead_breakdown",
        anchor: "E4, §5.2: where the standard ORB's time goes",
        flags: &[JSON, ("--full", Kind::Switch), ("--tcp", Kind::Switch)],
        run: |a, r| {
            // Paper scale is 1 MiB blocks over 16 MiB; the default is quick.
            let (block, total) = if a.flag("--full") {
                (1 << 20, 16 << 20)
            } else {
                (256 << 10, 4 << 20)
            };
            // The span layer works identically over real loopback TCP.
            let transport = if a.flag("--tcp") {
                TtcpTransport::Tcp
            } else {
                TtcpTransport::Sim
            };
            overhead_breakdown(block, total, transport, r)
        },
    },
    Experiment {
        name: "transcoder",
        anchor: "E5, §5.4: the MPEG2→MPEG4 transcoding farm",
        flags: &[JSON, ("--hdtv", Kind::Switch)],
        run: |a, r| {
            // Full 1920×1088 frames are substantial compute: opt-in.
            if a.flag("--hdtv") {
                transcoder(VideoFormat::HDTV_1080, 16, r)
            } else {
                transcoder(VideoFormat::new(320, 192), 48, r)
            }
        },
    },
    Experiment {
        name: "cpu_utilization",
        anchor: "E6, §6: CPU utilization on newer machines",
        flags: &[JSON],
        run: |_, r| cpu_utilization(r),
    },
    Experiment {
        name: "ablations",
        anchor: "A1–A4 of DESIGN.md, measured on this host",
        flags: &[JSON],
        run: |_, r| ablations(1 << 20, 24, r),
    },
    Experiment {
        name: "latency",
        anchor: "supplementary: round-trip percentiles per TTCP version",
        flags: &[JSON, ("--rounds", Kind::Count(1 << 24))],
        run: |a, r| latency(a.num("--rounds").unwrap_or(200) as usize, r),
    },
    Experiment {
        name: "sweep_csv",
        anchor: "Figures 5/6 as CSV: modeled, measured and fault sweeps",
        flags: &[
            JSON,
            ("--modern", Kind::Switch),
            ("--modeled-only", Kind::Switch),
            ("--fault-only", Kind::Switch),
        ],
        run: |a, r| {
            if !a.flag("--fault-only") {
                let machine = if a.flag("--modern") {
                    MachineSpec::modern_2003()
                } else {
                    MachineSpec::pentium_ii_400()
                };
                sweep_modeled(machine, r);
            }
            if !a.flag("--fault-only") && !a.flag("--modeled-only") {
                r.note("");
                sweep_measured(&measured_block_sizes(false), r);
                r.note("");
            }
            if !a.flag("--modeled-only") {
                sweep_fault(400, 64 << 10, r);
            }
        },
    },
    Experiment {
        name: "overload_curve",
        anchor: "goodput vs offered load through admission control",
        flags: &[
            JSON,
            ("--smoke", Kind::Switch),
            ("--out", Kind::Text("FILE")),
            ("--seed", Kind::Num(u64::MAX)),
        ],
        run: |a, r| {
            let seed = a.num("--seed").unwrap_or(42);
            let (params, gate) = if a.flag("--smoke") {
                (OverloadParams::smoke(seed), OVERLOAD_PLATEAU_GATE_SMOKE)
            } else {
                (OverloadParams::full(seed), OVERLOAD_PLATEAU_GATE)
            };
            overload_curve(&params, gate, a.text("--out").map(Path::new), r)
        },
    },
];

// E1–E3: the figures.

/// One figure of the paper as data.
pub struct Figure {
    /// "Figure 5", …
    pub name: &'static str,
    /// What the figure compares.
    pub what: &'static str,
    /// One series per version, in legend order.
    pub versions: &'static [TtcpVersion],
    /// The paper's gain from the first series to the last at saturation,
    /// shown under the modeled table beside the model's own.
    pub paper_gain: Option<&'static str>,
    /// The paper's anchors, shown under the host table.
    pub footer: Option<&'static str>,
}

/// Figure 5: raw TCP saturates ≈ 330 Mbit/s; CORBA saturates ≈ 50 Mbit/s
/// ("would not even use a Fast Ethernet to its limit").
pub const FIG5: Figure = Figure {
    name: "Figure 5",
    what: "unoptimized sockets vs unoptimized CORBA",
    versions: &[TtcpVersion::RawTcp, TtcpVersion::CorbaStd],
    paper_gain: None,
    footer: Some("paper anchors: raw TCP ≈ 330 Mbit/s, CORBA ≈ 50 Mbit/s at saturation"),
};

/// Figure 6 (left): the zero-copy stack wins across the board, with "very
/// good throughput figures for transfers as small as a single memory page".
pub const FIG6_SOCKETS: Figure = Figure {
    name: "Figure 6 (left)",
    what: "raw TCP: copying vs zero-copy sockets",
    versions: &[TtcpVersion::RawTcp, TtcpVersion::ZcTcp],
    paper_gain: None,
    footer: None,
};

/// Figure 6 (right): "the performance of the optimized zero-copy ORB nearly
/// matches the raw TCP-socket version"; the winning combination reaches
/// ≈ 550 Mbit/s, ten times the original ORB over the standard stack.
pub const FIG6_ORB: Figure = Figure {
    name: "Figure 6 (right)",
    what: "ORB variants over both stacks",
    versions: &[
        TtcpVersion::CorbaStd,
        TtcpVersion::CorbaStdOverZcTcp,
        TtcpVersion::CorbaZcOverTcp,
        TtcpVersion::CorbaZc,
    ],
    paper_gain: Some("50 → 550, 10×"),
    footer: None,
};

/// A figure both ways: modeled over the paper's block sizes, then really
/// executed on this host over `host_sizes`, with the last run's telemetry
/// when `traced`.
pub fn figure(fig: &Figure, host_sizes: &[usize], traced: bool, rep: &mut Reporter) {
    let sizes = zc_simnet::paper_block_sizes();
    // One series per version: `view` names it, `cell` fills in each block size.
    type Cell<'a> = &'a mut dyn FnMut(TtcpVersion, usize) -> f64;
    let table = |view: &str, sizes: &[usize], cell: Cell| -> Vec<Series> {
        let column = |&v: &TtcpVersion| {
            let values = sizes.iter().map(|&block| cell(v, block)).collect();
            Series::new(format!("{} ({view})", v.label()), values)
        };
        fig.versions.iter().map(column).collect()
    };
    let modeled = table("model", &sizes, &mut run_modeled);
    rep.row(&SeriesTable {
        title: &format!("{} — {} (modeled, P-II 400 / GbE)", fig.name, fig.what),
        sizes: &sizes,
        series: &modeled,
    });
    if let Some(paper) = fig.paper_gain {
        let largest = sizes.len() - 1;
        let slow = modeled[0].values[largest];
        let fast = modeled[modeled.len() - 1].values[largest];
        rep.note(&format!(
            "modeled improvement at 16M blocks: {slow:.0} → {fast:.0} Mbit/s ({:.1}×; paper: {paper})\n",
            fast / slow
        ));
    }

    let mut telemetry = None;
    let host = table("host", host_sizes, &mut |version, block| {
        let out = measured_point(version, block, traced);
        telemetry = out.telemetry.or(telemetry.take());
        out.mbit_s
    });
    rep.row(&SeriesTable {
        title: &format!("{} — same configurations executed on this host", fig.name),
        sizes: host_sizes,
        series: &host,
    });
    if let Some(footer) = fig.footer {
        rep.note(footer);
    }
    if let Some(snapshot) = &telemetry {
        let label = "telemetry of the last measured run (disable with --no-trace)";
        rep.row(&TelemetryRow(label, snapshot));
    }
}

// E4: "We instrumented the ORB source code to pinpoint the sources of this
// overhead. The test shows that the highest cost incurs due to data copying
// and data inspection."

/// The §5.2 breakdown per configuration (standard / ZC-marshal-only /
/// all-ZC): measured stage latencies, copy-meter bytes, modeled budget.
pub fn overhead_breakdown(
    block: usize,
    total: usize,
    transport: TtcpTransport,
    rep: &mut Reporter,
) {
    rep.row(&run_breakdown(block, total, transport));
    rep.note(
        "\n=> copy-bound stages (CDR marshal, socket copies) carry the standard\n\
         column and shrink to ~0 in the all-ZC column; the wire and the fixed\n\
         per-request work are what remains.",
    );
}

// E5: "This entire performance gain is posed to our application. The
// resulting … application provides MPEG-4 encoding in real-time for full
// HDTV resolution and full frame rate."

/// The distributed transcoding farm, standard vs zero-copy payload, in
/// three regimes on this host; then the HDTV real-time budget on the
/// calibrated testbed model, where the communication budget is the paper's.
pub fn transcoder(format: VideoFormat, frames: usize, rep: &mut Reporter) {
    rep.note(&format!(
        "## E5 — distributed MPEG2→MPEG4 transcoding farm\n\n\
         geometry {}×{} ({:.2} MB/frame), {frames} frames, 4 workers\n\
         regimes: encode (one frame per request); distribution-only (workers skip\n\
         the encode compute, so the ORB data path is the whole cost and the paper's\n\
         ≈ 10× communication gain shows directly); gop-parallel (whole 12-frame\n\
         GOPs, I+P coded, per worker, as production parallel encoders split work)",
        format.width,
        format.height,
        format.frame_bytes() as f64 / 1e6,
    ));
    // (regime, frames multiplier, workers skip the encode, GOP length)
    for (section, frames_x, passthrough, gop) in [
        ("encode", 1, false, None),
        ("distribution-only", 4, true, None),
        ("gop-parallel", 1, false, Some(12)),
    ] {
        rep.note(&format!("\n{section}:"));
        let mut fps = Vec::new();
        for payload in [PayloadMode::Standard, PayloadMode::ZeroCopy] {
            let params = FarmParams {
                workers: 4,
                frames: frames * frames_x,
                format,
                payload,
                encoder: EncoderConfig::default(),
                verify: false,
                passthrough,
                seed: 0x1D,
            };
            let (out, bytes_out) = match gop {
                Some(length) => {
                    let (out, streams) = TranscodeFarm::run_gop(&params, length);
                    (out, streams.iter().map(|s| s.len() as u64).sum())
                }
                None => {
                    let out = TranscodeFarm::run(&params);
                    (out, out.bytes_out)
                }
            };
            let name = format!("{payload:?}");
            let ratio = bytes_out as f64 / out.bytes_in as f64;
            rep.record(
                &format!(
                    "{:<28} {:>7.2} fps   input {:>8.1} Mbit/s   out/in ratio {ratio:.3}",
                    format!("{name} payload:"),
                    out.fps,
                    out.input_mbit_s
                ),
                &[
                    ("section", Text(section)),
                    ("payload", Text(&name)),
                    ("fps", Real(out.fps, 2)),
                    ("input_mbit_s", Real(out.input_mbit_s, 1)),
                    ("out_in_ratio", Real(ratio, 3)),
                ],
            );
            fps.push(out.fps);
        }
        rep.note(&format!("zero-copy speedup: {:.2}×", fps[1] / fps[0]));
    }

    let frame_bytes = VideoFormat::HDTV_1080.frame_bytes();
    let need = frame_bytes as f64 * 25.0 * 8.0 / 1e6;
    let std = run_modeled(TtcpVersion::CorbaStd, frame_bytes);
    let zc = run_modeled(TtcpVersion::CorbaZc, frame_bytes);
    let fps = |mbit: f64| mbit * 1e6 / 8.0 / frame_bytes as f64;
    rep.record(
        &format!(
            "\nreal-time HDTV feasibility on the 2003 testbed (model):\n  \
             HDTV 25 fps needs {need:.0} Mbit/s of frame distribution\n  \
             standard ORB moves {std:.0} Mbit/s  → {:.1} fps — {}\n  \
             zero-copy ORB moves {zc:.0} Mbit/s → {:.1} fps per link; with ≥ 2 worker links \
             the cluster sustains 25 fps — real-time, as the paper demonstrates\n  \
             ORB gain carried to the application: {:.1}× (paper: ≈ 10×)",
            fps(std),
            if std >= need {
                "real-time"
            } else {
                "NOT real-time"
            },
            fps(zc),
            zc / std
        ),
        &[
            ("section", Text("hdtv-model")),
            ("need_mbit_s", Real(need, 1)),
            ("std_mbit_s", Real(std, 1)),
            ("zc_mbit_s", Real(zc, 1)),
        ],
    );
}

// E6: "For newer machines we can achieve the full communication bandwidth of
// Gigabit Ethernet with a CPU utilization of just 30% versus 100% with the
// original stack."

/// Modeled CPU utilization at 16 MiB blocks over GbE, both machines.
pub fn cpu_utilization(rep: &mut Reporter) {
    rep.note("## E6 — CPU utilization at 16 MiB blocks over GbE\n");
    for machine in [MachineSpec::pentium_ii_400(), MachineSpec::modern_2003()] {
        rep.note(&format!("{}:", machine.name));
        for (socket, orb) in [
            (SocketMode::Copying, OrbMode::None),
            (SocketMode::ZeroCopy, OrbMode::None),
            (SocketMode::Copying, OrbMode::Standard),
            (SocketMode::ZeroCopy, OrbMode::ZeroCopyOrb),
        ] {
            let scn = Scenario {
                machine,
                link: LinkSpec::gigabit_ethernet(),
                socket,
                orb,
                block_bytes: 16 << 20,
            };
            let (config, mbit) = (scn.label(), predict(&scn));
            let (sender, receiver) = modeled_cpu(&scn);
            rep.record(
                &format!(
                    "  {config:<22} {mbit:>8.0} Mbit/s   sender {:>5.1} %   receiver {:>5.1} %",
                    sender * 100.0,
                    receiver * 100.0
                ),
                &[
                    ("machine", Text(machine.name)),
                    ("config", Text(&config)),
                    ("modeled_mbit_s", Real(mbit, 1)),
                    ("sender_cpu", Real(sender, 3)),
                    ("receiver_cpu", Real(receiver, 3)),
                ],
            );
        }
        rep.note("");
    }
    rep.note(
        "paper claim: on the newer machine the zero-copy stack reaches full GbE\n\
         bandwidth at ≈ 30 % CPU; the conventional stack needs ≈ 100 %.",
    );
}

// A1–A4: the design arguments of DESIGN.md on this host's operational stack.

/// Echo `payload` out and back `rounds` times (after one untimed echo)
/// through a zero-copy bed over the simulated network `cfg`, both ORBs
/// built through `tweak`, and report goodput beside what the copy meter saw.
fn ablation(
    label: &str,
    cfg: SimConfig,
    tweak: fn(OrbBuilder) -> OrbBuilder,
    payload: &ZcBytes,
    rounds: usize,
    rep: &mut Reporter,
) {
    let pair = OrbPair::bring_up(
        Stack::Sim(cfg),
        true,
        Telemetry::disabled(),
        tweak,
        Sink::default(),
    );
    let echo = || pair.echo_block(payload);
    echo();
    let before = pair.meter.snapshot();
    let start = Instant::now();
    (0..rounds).for_each(|_| echo());
    let wall = start.elapsed();
    let delta = pair.meter.snapshot().since(&before);
    // each round moves the payload out and back
    let payload_bytes = (2 * rounds * payload.len()) as f64;
    let mbit = payload_bytes * 8.0 / wall.as_secs_f64() / 1e6;
    let copies = delta.overhead_bytes() as f64 / payload_bytes;
    let fallback = delta.bytes(CopyLayer::DepositFallback);
    rep.record(
        &format!("  {label:<44} {mbit:>9.0} Mbit/s   {copies:>5.2} copies/byte   fallback {fallback:>12} B"),
        &[
            ("ablation", Text(label)),
            ("mbit_s", Real(mbit, 1)),
            ("overhead_copy_factor", Real(copies, 4)),
            ("deposit_fallback_bytes", Count(fallback)),
        ],
    );
}

/// The full design, then each ablation, echoing `block` bytes `rounds` times.
pub fn ablations(block: usize, rounds: usize, rep: &mut Reporter) {
    rep.note(&format!(
        "## Ablations A1–A4 — {} echo ×{rounds}, measured on this host\n",
        zc_ttcp::report::human_size(block)
    ));
    let aligned = ZcBytes::zeroed(block);
    let misaligned = ZcBytes::zeroed(block + zc_buffers::PAGE_SIZE).slice(1..block + 1);
    let zc = SimConfig::zero_copy;
    let mut run =
        |label: &str, cfg, build, payload| ablation(label, cfg, build, payload, rounds, rep);

    run(
        "full design (deposit + separation, aligned)",
        zc(),
        |b| b,
        &aligned,
    );
    // A1: deposits ride inside the GIOP control message, so the buffering
    // copies return (§3.2).
    run(
        "A1: control/data separation OFF",
        zc(),
        |b| b.separate_data(false),
        &aligned,
    );
    // A2: speculative defragmentation can never land a misaligned block,
    // so the driver falls back to copying.
    run("A2: page alignment violated", zc(), |b| b, &misaligned);
    // A3: each miss costs the one fallback copy of [10]: copies grow as 1 − p.
    for p in [1.0, 0.9, 0.75, 0.5] {
        let label = format!("A3: speculation success p = {p:.2}");
        run(
            &label,
            SimConfig::zero_copy_with_speculation(p),
            |b| b,
            &aligned,
        );
    }
    // A4: marshal bypass only. The copy moves layers instead of going away:
    // "many previous attempts just move copies between software layers".
    run(
        "A4: deposits OFF (marshal bypass only)",
        zc(),
        |b| b.deposit_enabled(false),
        &aligned,
    );
    rep.note(
        "\nreading: only the full design drives copies/byte to ~0; every ablation\n\
         re-introduces per-byte copying somewhere, which is the paper's argument\n\
         for strict zero-copy end to end.",
    );
}

// Latency: the per-request view that complements the bandwidth figures (the
// paper's related work [18] measured exactly this for contemporary ORBs).

/// Round-trip percentiles per TTCP version over four message sizes.
pub fn latency(rounds: usize, rep: &mut Reporter) {
    rep.note(&format!(
        "## round-trip latency on this host ({rounds} rounds per cell)\n"
    ));
    for msg_bytes in [0, 4 << 10, 64 << 10, 1 << 20] {
        rep.note(&format!("message size {msg_bytes} bytes:"));
        for version in [
            TtcpVersion::RawTcp,
            TtcpVersion::ZcTcp,
            TtcpVersion::CorbaStd,
            TtcpVersion::CorbaZc,
        ] {
            let s = run_latency(version, msg_bytes, rounds);
            rep.record(
                &format!("  {:<26} {s}", version.label()),
                &[
                    ("version", Text(version.label())),
                    ("msg_bytes", Count(msg_bytes as u64)),
                    ("rounds", Count(s.rounds as u64)),
                    ("min_us", Real(s.min_us, 2)),
                    ("p50_us", Real(s.p50_us, 2)),
                    ("p90_us", Real(s.p90_us, 2)),
                    ("p99_us", Real(s.p99_us, 2)),
                    ("max_us", Real(s.max_us, 2)),
                    ("mean_us", Real(s.mean_us, 2)),
                ],
            );
        }
        rep.note("");
    }
    rep.note(
        "expected shape: zero-copy variants win by a margin that grows with\n\
         message size (per-byte copies sit on the round-trip critical path);\n\
         at size 0 the gap reflects per-request costs only.",
    );
}

// sweep_csv: the figure sweep for plotting or regression tracking, in three
// sections.

/// Section 1: all six configurations of Figures 5/6 across the paper's
/// block sizes on the calibrated testbed model.
pub fn sweep_modeled(machine: MachineSpec, rep: &mut Reporter) {
    let (link, sizes) = (LinkSpec::gigabit_ethernet(), zc_simnet::paper_block_sizes());
    let sweep = run_sweep(machine, link, &sizes, &FIGURE_CONFIGS);
    let csv = sweep.to_csv();
    let mut lines = csv.lines();
    rep.note("# modeled (calibrated 2003 testbed)");
    rep.note(lines.next().unwrap_or_default());
    for ((line, &block), values) in lines.zip(&sweep.block_sizes).zip(&sweep.values) {
        let mut members = vec![
            ("section", Text("modeled")),
            ("machine", Text(machine.name)),
            ("block_bytes", Count(block as u64)),
        ];
        let columns = sweep.configs.iter().zip(values);
        members.extend(columns.map(|(c, &v)| (c.name, Real(v, 1))));
        rep.record(line, &members);
    }
}

/// Section 2: every TTCP version really executed on this host over `sizes`
/// with telemetry enabled: speculation counts, wire bytes, per-layer
/// copy-meter bytes, request latency and request-span stage quantiles as
/// CSV; as JSON, the goodput point beside the testbed prediction.
pub fn sweep_measured(sizes: &[usize], rep: &mut Reporter) {
    rep.note("# measured on this host (telemetry-enabled runs)");
    rep.note(
        "version,block_bytes,mbit_s,overhead_copy_factor,spec_hits,spec_misses,\
         wire_bytes_sent,wire_bytes_recv,marshal_bytes,demarshal_bytes,\
         socket_send_bytes,socket_recv_bytes,kernel_frag_bytes,kernel_defrag_bytes,\
         deposit_fallback_bytes,latency_p50_ns,latency_p99_ns,\
         stage_marshal_p50_ns,stage_marshal_p99_ns,stage_wire_p50_ns,\
         stage_demarshal_p50_ns,stage_dispatch_p50_ns",
    );
    for version in TtcpVersion::ALL {
        for &block in sizes {
            let out = measured_point(version, block, true);
            let t = out.telemetry.expect("traced run produces telemetry");
            let lat = t.metrics.request_latency_ns;
            let stage = |s: Stage, q: f64| t.metrics.stage_ns.get(s).quantile(q);
            let text = format!(
                "{},{},{:.1},{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                version.label().replace(',', ";"),
                block,
                out.mbit_s,
                out.overhead_copy_factor,
                t.transport.spec_hits,
                t.transport.spec_misses,
                t.transport.wire_bytes_sent,
                t.transport.wire_bytes_recv,
                out.copies.bytes(CopyLayer::Marshal),
                out.copies.bytes(CopyLayer::Demarshal),
                out.copies.bytes(CopyLayer::SocketSend),
                out.copies.bytes(CopyLayer::SocketRecv),
                out.copies.bytes(CopyLayer::KernelFrag),
                out.copies.bytes(CopyLayer::KernelDefrag),
                out.copies.bytes(CopyLayer::DepositFallback),
                lat.quantile(0.50),
                lat.quantile(0.99),
                stage(Stage::ClientMarshal, 0.50),
                stage(Stage::ClientMarshal, 0.99),
                stage(Stage::Wire, 0.50),
                stage(Stage::ServerDemarshal, 0.50),
                stage(Stage::ServerDispatch, 0.50),
            );
            let members = [
                ("version", Text(version.label())),
                ("transport", Text("sim")),
                ("block_bytes", Count(block as u64)),
                ("modeled_mbit_s", Real(run_modeled(version, block), 3)),
                ("measured_mbit_s", Real(out.mbit_s, 3)),
                ("overhead_copy_factor", Real(out.overhead_copy_factor, 4)),
                ("spec_hit_rate", Real(t.spec_hit_rate(), 4)),
            ];
            rep.record(&text, &members);
        }
    }
}

/// Section 3: per-frame drop probability vs goodput through the
/// self-healing ORB, with retries and reconnects per point so recovery cost
/// is visible, not just failure counts. See docs/fault-model.md.
pub fn sweep_fault(calls: u32, block_bytes: usize, rep: &mut Reporter) {
    rep.note("# fault sweep: per-frame drop probability vs goodput through the self-healing ORB");
    rep.note("drop_prob,block_bytes,calls,ok,failed,retries,reconnects,goodput_mbit_s");
    for drop_prob in [0.0, 0.0005, 0.001, 0.002, 0.005, 0.01] {
        let p = fault_sweep_point(drop_prob, calls, block_bytes);
        let text = format!(
            "{:.4},{},{},{},{},{},{},{:.2}",
            p.drop_prob,
            p.block_bytes,
            p.calls,
            p.ok,
            p.failed,
            p.retries,
            p.reconnects,
            p.goodput_mbit_s
        );
        let members = [
            ("section", Text("fault")),
            ("drop_prob", Real(p.drop_prob, 4)),
            ("block_bytes", Count(p.block_bytes as u64)),
            ("calls", Count(p.calls.into())),
            ("ok", Count(p.ok.into())),
            ("failed", Count(p.failed.into())),
            ("retries", Count(p.retries)),
            ("reconnects", Count(p.reconnects)),
            ("goodput_mbit_s", Real(p.goodput_mbit_s, 2)),
        ];
        rep.record(&text, &members);
    }
}

// overload_curve: does the admission curve plateau where the seed curve
// collapses?

/// Probe closed-loop capacity, sweep the offered-load multipliers in both
/// server modes, report the curve (and write its JSON to `out` as well),
/// then hold it to its gates: the admission curve's goodput at the highest
/// offered load keeps at least `gate` of its peak, the sweep shed, and the
/// reserved `_ZcTelemetry` lane answered throughout.
pub fn overload_curve(params: &OverloadParams, gate: f64, out: Option<&Path>, rep: &mut Reporter) {
    let curve = overload_sweep(params, |line| eprintln!("{line}"));
    if let Some(path) = out {
        match std::fs::write(path, curve.json() + "\n") {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => rep.fail(&format!("cannot write {}: {e}", path.display())),
        }
    }
    rep.row(&curve);

    let adm = curve.plateau_ratio(OverloadMode::Admission);
    eprintln!(
        "plateau: admission {adm:.2} (gate {gate:.2}), seed {:.2}; sheds {}, telemetry_alive {}",
        curve.plateau_ratio(OverloadMode::Seed),
        curve.total_sheds(),
        curve.telemetry_alive()
    );
    if adm < gate {
        rep.fail("admission goodput collapsed past saturation");
    }
    if curve.total_sheds() == 0 {
        rep.fail("the admission gate never shed — budgets not binding");
    }
    if !curve.telemetry_alive() {
        rep.fail("the reserved _ZcTelemetry lane went dark under overload");
    }
}
