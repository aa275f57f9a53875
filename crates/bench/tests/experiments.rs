//! The experiment layer of `zc-bench`: every table row is reachable, its
//! `--json` output parses, the deterministic text is byte-identical to the
//! frozen captures under `docs/results/`, and bad input is a usage error.

use std::io;
use std::process::{Command, ExitCode, Stdio};

use zc_bench::cli::{Args, Flag, Kind, JSON};
use zc_bench::experiments::{self as exp, Figure, EXPERIMENTS};
use zc_bench::overload::{OverloadParams, OVERLOAD_PLATEAU_GATE_SMOKE};
use zc_bench::report::{Member, Reporter};
use zc_mpeg::VideoFormat;
use zc_simnet::MachineSpec;
use zc_ttcp::TtcpTransport;

const ZC_BENCH: &str = env!("CARGO_BIN_EXE_zc-bench");
const ZC_TOP: &str = env!("CARGO_BIN_EXE_zc-top");

/// What `body` reports, as text or as JSON.
fn capture(json: bool, body: impl FnOnce(&mut Reporter)) -> String {
    let mut out = Vec::new();
    let mut rep = Reporter::new(&mut out, json);
    body(&mut rep);
    rep.finish();
    String::from_utf8(out).expect("reports are UTF-8")
}

/// The experiment `name` through its table row, as `zc-bench name flags…`.
fn run_row(name: &str, flags: &[&str]) -> String {
    let row = EXPERIMENTS.iter().find(|e| e.name == name).expect(name);
    let argv: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
    let args = Args::parse(row.flags, &argv).expect("declared flags");
    capture(args.flag("--json"), |rep| (row.run)(&args, rep))
}

/// Exit status and stderr of one of this crate's binaries.
fn exit_of(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn every_row_is_reachable_by_name() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let former_binaries = [
        "fig5",
        "fig6_sockets",
        "fig6_orb",
        "overhead_breakdown",
        "transcoder",
        "cpu_utilization",
        "ablations",
        "latency",
        "sweep_csv",
        "overload_curve",
    ];
    assert_eq!(names, former_binaries);
    for row in &EXPERIMENTS {
        assert!(
            row.flags.iter().any(|(flag, _)| *flag == "--json"),
            "{} takes --json",
            row.name
        );
    }
    // The one row that is all model runs end to end through the binary.
    let out = Command::new(ZC_BENCH).arg("cpu_utilization").output();
    let out = out.expect("spawn zc-bench");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("../../../docs/results/cpu_utilization.txt")
    );
}

#[test]
fn unknown_experiments_and_flags_are_usage_errors() {
    for args in [
        &[][..],
        &["fig7"],
        &["--json"],
        &["fig5", "--typo"],
        &["fig5", "stray"],
        &["cpu_utilization", "--full"],
        &["latency", "--rounds", "abc"],
        &["latency", "--rounds"],
        &["latency", "--rounds", "0"],
        &["overload_curve", "--seed", "q"],
        &["overload_curve", "--out", "--json"],
    ] {
        let (code, stderr) = exit_of(ZC_BENCH, args);
        assert_eq!(code, Some(2), "zc-bench {args:?}: {stderr}");
        assert!(stderr.contains("usage: zc-bench"), "{stderr}");
    }
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_demo_server"), &["--port", "99999"][..]),
        (ZC_TOP, &["--frames", "x"]),
        (ZC_TOP, &["--spool", "d", "--top", "many"]),
        (ZC_TOP, &["--connect", "127.0.0.1:1", "--spool", "d"]),
        (ZC_TOP, &[]),
    ] {
        let (code, stderr) = exit_of(exe, args);
        assert_eq!(code, Some(2), "{exe} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
    }
}

#[test]
fn parser_accepts_declared_flags_only() {
    const FLAGS: &[Flag] = &[
        JSON,
        ("--port", Kind::Num(u16::MAX as u64)),
        ("--out", Kind::Text("FILE")),
    ];
    let parse = |argv: &[&str]| {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse(FLAGS, &argv)
    };

    let args = parse(&["--port", "47117", "--json", "--out", "curve.json"]).expect("all declared");
    assert!(args.flag("--json"));
    assert_eq!(args.num("--port"), Some(47117));
    assert_eq!(args.text("--out"), Some("curve.json"));
    let none = parse(&[]).expect("no flags is fine");
    assert!(!none.flag("--json"));
    assert_eq!((none.num("--port"), none.text("--out")), (None, None));

    for (argv, fault) in [
        (&["--typo"][..], "unknown argument \"--typo\""),
        (&["stray"], "unknown argument \"stray\""),
        (&["--port"], "--port needs a value"),
        (&["--out", "--json"], "--out needs a value"),
        (&["--port", "abc"], "--port wants a whole number"),
        (&["--port", "-1"], "--port wants a whole number"),
        (&["--port", "99999"], "--port wants a whole number ≤ 65535"),
        (&["--json", "--port", "1", "--json=1"], "unknown argument"),
    ] {
        let err = parse(argv).expect_err("malformed");
        assert!(err.contains(fault), "{argv:?}: {err}");
    }
}

/// Every experiment at the smallest sizes its library function accepts.
fn run_small(name: &str, rep: &mut Reporter) {
    match name {
        "fig5" => exp::figure(&exp::FIG5, &[4 << 10], true, rep),
        "fig6_sockets" => exp::figure(&exp::FIG6_SOCKETS, &[4 << 10], true, rep),
        "fig6_orb" => exp::figure(&exp::FIG6_ORB, &[4 << 10], true, rep),
        "overhead_breakdown" => {
            exp::overhead_breakdown(64 << 10, 256 << 10, TtcpTransport::Sim, rep)
        }
        "transcoder" => exp::transcoder(VideoFormat::TINY, 2, rep),
        "cpu_utilization" => exp::cpu_utilization(rep),
        "ablations" => exp::ablations(64 << 10, 2, rep),
        "latency" => exp::latency(1, rep),
        "sweep_csv" => {
            exp::sweep_modeled(MachineSpec::pentium_ii_400(), rep);
            exp::sweep_measured(&[4 << 10], rep);
            exp::sweep_fault(4, 4 << 10, rep);
        }
        "overload_curve" => {
            let params = OverloadParams::smoke(7);
            exp::overload_curve(&params, OVERLOAD_PLATEAU_GATE_SMOKE, None, rep)
        }
        other => panic!("no small run for experiment {other}"),
    }
}

#[test]
fn json_output_of_every_experiment_parses() {
    for row in &EXPERIMENTS {
        let json = capture(true, |rep| run_small(row.name, rep));
        assert!(!json.trim().is_empty(), "{}: no output", row.name);
        // The overload curve is one pretty-printed document; everything
        // else is JSON lines.
        let documents: Vec<&str> = match row.name {
            "overload_curve" => vec![&json],
            _ => json.lines().collect(),
        };
        for doc in documents {
            if let Err(e) = zc_json::parse(doc) {
                panic!("{} --json: {e}: {doc}", row.name);
            }
        }
        // The same records as text: no experiment is JSON-only.
        let text = capture(false, |rep| run_small(row.name, rep));
        assert!(text.lines().count() >= 3, "{}: {text}", row.name);
        assert!(zc_json::parse(&text).is_err(), "{}: {text}", row.name);
    }
}

#[test]
fn ablations_reintroduce_the_copies_the_full_design_removes() {
    // The experiment's own size: 1 MiB echoed 24 times per row.
    let json = capture(true, |rep| exp::ablations(1 << 20, 24, rep));
    let rows: Vec<zc_json::Value> = json.lines().map(|l| zc_json::parse(l).expect(l)).collect();
    // (copies per byte, fallback bytes) of the row whose label starts so.
    let row = |prefix: &str| {
        let labelled = |r: &&zc_json::Value| {
            let label = r.get("ablation").and_then(|v| v.as_str());
            label.is_some_and(|l| l.starts_with(prefix))
        };
        let row = rows.iter().find(labelled).expect(prefix);
        let number = |key| row.get(key).and_then(|v| v.as_f64()).expect(key);
        (
            number("overhead_copy_factor"),
            number("deposit_fallback_bytes"),
        )
    };
    // Copies per payload byte: the full design copies only its control
    // messages (0.0002 when measured); A1 and A4 bring back four copies of
    // every byte (4.0002 when measured).
    assert!(row("full design").0 < 0.01, "{json}");
    assert!(row("A1:").0 >= 4.0, "{json}");
    assert!(row("A4:").0 >= 4.0, "{json}");
    // A speculation miss costs the one fallback copy and nothing more. A
    // misaligned block always misses (A2), so half the transfers — the
    // requests; replies come back aligned — pay one copy per byte; under A3
    // a fraction 1 − p of them does. Each row is pinned to what the seeded
    // run measures, and that value to the ideal.
    for (prefix, measured, ideal) in [
        ("A2:", 0.5002, 0.5),
        ("A3: speculation success p = 0.90", 0.1044, 0.1),
        ("A3: speculation success p = 0.75", 0.2711, 0.25),
        ("A3: speculation success p = 0.50", 0.5002, 0.5),
    ] {
        assert!(f64::abs(measured - ideal) <= 0.05, "{prefix}");
        let (copies, fallback) = row(prefix);
        assert!(
            (copies - measured).abs() <= 0.01,
            "{prefix}: {copies} copies/byte, pinned at {measured}\n{json}"
        );
        assert!(fallback > 0.0, "{prefix}\n{json}");
    }
    assert_eq!(row("A2:").1, (24 << 20) as f64, "{json}");
}

/// The modeled half of a figure: everything before the host table.
fn modeled_half(output: &str) -> &str {
    let host = output.find("## Figure").and_then(|first| {
        output[first + 1..]
            .find("## Figure")
            .map(|at| first + 1 + at)
    });
    &output[..host.expect("two tables")]
}

#[test]
fn deterministic_text_matches_the_frozen_captures() {
    // `cpu_utilization` is pinned through the binary, in
    // `every_row_is_reachable_by_name`.
    let figures: [(&Figure, &str); 3] = [
        (&exp::FIG5, include_str!("../../../docs/results/fig5.txt")),
        (
            &exp::FIG6_SOCKETS,
            include_str!("../../../docs/results/fig6_sockets.txt"),
        ),
        (
            &exp::FIG6_ORB,
            include_str!("../../../docs/results/fig6_orb.txt"),
        ),
    ];
    for (fig, frozen) in figures {
        // No host sizes: the host table is empty and nothing is measured.
        let ours = capture(false, |rep| exp::figure(fig, &[], false, rep));
        assert_eq!(modeled_half(&ours), modeled_half(frozen), "{}", fig.name);
    }

    for (flags, frozen) in [
        (
            &["--modeled-only"][..],
            include_str!("../../../docs/results/model_sweep_pii.csv"),
        ),
        (
            &["--modeled-only", "--modern"],
            include_str!("../../../docs/results/model_sweep_modern.csv"),
        ),
    ] {
        let ours = run_row("sweep_csv", flags);
        let (comment, csv) = ours.split_once('\n').expect("a comment line first");
        assert!(comment.starts_with("# modeled"), "{comment}");
        assert_eq!(csv, frozen, "sweep_csv {flags:?}");
    }
}

/// A reader that went away, or a disk that filled up.
struct Broken(io::ErrorKind);

impl io::Write for Broken {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        Err(self.0.into())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn closed_pipes_end_quietly_and_other_write_errors_do_not() {
    let finish = |kind, fail: bool| {
        let mut rep = Reporter::new(Broken(kind), true);
        rep.note("never shown as JSON");
        rep.record("text", &[("n", Member::Count(1))]);
        if fail {
            rep.fail("a gate that did not hold (expected on stderr here)");
        }
        format!("{:?}", rep.finish())
    };
    let (ok, failed) = (
        format!("{:?}", ExitCode::SUCCESS),
        format!("{:?}", ExitCode::FAILURE),
    );
    assert_eq!(finish(io::ErrorKind::BrokenPipe, false), ok);
    assert_eq!(finish(io::ErrorKind::BrokenPipe, true), failed);
    assert_eq!(finish(io::ErrorKind::Other, false), failed);

    // `zc-bench cpu_utilization --json | head -0`: the reader is gone
    // before (or while) the eight rows are written.
    let mut child = Command::new(ZC_BENCH)
        .args(["cpu_utilization", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn zc-bench");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

#[test]
fn zc_top_ends_quietly_on_a_closed_pipe() {
    // `zc-top --keys | true`: the reader is gone before the first write.
    let (reader, writer) = io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(ZC_TOP)
        .arg("--keys")
        .stdout(writer)
        .output()
        .expect("run zc-top");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
