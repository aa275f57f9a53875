//! `zc-top` — the one observer command: "where did this request's time
//! go", on a live server or a recorded run.
//!
//! * **Live** (`--connect`): polls the server's reserved `_ZcTelemetry`
//!   object over plain GIOP and renders goodput, windowed load rates,
//!   copy-meter deltas, stage p99s, breaker gauges and pool/queue
//!   watermarks as a refreshing frame.
//! * **Recorded** (`--spool`): reads every `spool-*.zcs` segment under the
//!   directory (oldest first, torn tails tolerated — the segments are
//!   untrusted input), reconstructs request journeys across their
//!   attempts, and renders a text flamegraph with per-stage/per-cause
//!   aggregates, or the `zcorba-flame/v1` summary with `--json`.
//!
//! ```text
//! cargo run -p zc-bench --bin zc-top -- --connect 127.0.0.1:47117
//! cargo run -p zc-bench --bin zc-top -- --connect 127.0.0.1:47117 --once --json
//! cargo run -p zc-bench --bin zc-top -- --spool /tmp/zc-spool --json > flame.json
//! ```
//!
//! Flags:
//! * `--connect HOST:PORT` or `--spool DIR` — exactly one: what to observe.
//! * `--interval-ms N` — poll interval (default 1000).
//! * `--frames N` — stop after N frames (default: run until killed).
//! * `--once` — take two closely-spaced polls, emit one summary, exit.
//! * `--json` — machine output: `zcorba-top/v1`, one object per frame, or
//!   the `zcorba-flame/v1` summary of a spool.
//! * `--top N` — how many spool journeys to detail, longest critical path
//!   first (default 10).
//! * `--keys` — print the `--once --json` schema's required keys, one per
//!   line, and exit (no server needed); CI asserts against this list.
//!
//! Every byte goes out through one `write_all` (`emit`): a reader that goes
//! away (`| head`) ends the program quietly with exit 0.
//!
//! Exit codes: 0 ok, 1 unreadable spool or failed write, 2 usage,
//! 3 connect/poll failure.

use std::io::{ErrorKind, Write as _};
use std::path::Path;
use std::process::exit;
use std::time::{Duration, Instant};

use zc_bench::cli::{self, Args, Flag, Kind, JSON};
use zc_bench::flame::{analyze_spool_dir, render_json, render_text};
use zc_bench::top::{delta, render_frame, render_once_json, TopSample, SUMMARY};
use zc_orb::{Orb, TelemetryClient};

const FLAGS: &[Flag] = &[
    ("--connect", Kind::Text("HOST:PORT")),
    ("--spool", Kind::Text("DIR")),
    ("--interval-ms", Kind::Num(u64::MAX)),
    ("--frames", Kind::Num(u64::MAX)),
    ("--once", Kind::Switch),
    JSON,
    ("--top", Kind::Num(usize::MAX as u64)),
    ("--keys", Kind::Switch),
];

/// Write `text` to stdout: the one output path. A closed pipe ends the
/// program quietly (exit 0); any other write error is exit 1.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => exit(0),
        Err(e) => {
            eprintln!("zc-top: cannot write: {e}");
            exit(1)
        }
    }
}

fn poll(client: &TelemetryClient) -> TopSample {
    let sample = client
        .snapshot_json()
        .map_err(|e| format!("snapshot_json poll failed: {e}"))
        .and_then(|text| TopSample::parse(&text));
    sample.unwrap_or_else(|e| {
        eprintln!("zc-top: {e}");
        exit(3)
    })
}

fn live(args: &Args, endpoint: &str, json: bool) {
    let Some((host, Ok(port))) = endpoint
        .rsplit_once(':')
        .map(|(host, port)| (host, port.parse::<u16>()))
    else {
        let fault = format!("--connect wants HOST:PORT, got {endpoint:?}");
        cli::usage_exit("zc-top", FLAGS, &fault);
    };
    let interval = Duration::from_millis(args.num("--interval-ms").unwrap_or(1000));
    let frames = args.num("--frames").unwrap_or(0);

    let orb = Orb::builder().tcp().build();
    let client = TelemetryClient::connect(&orb, host, port).unwrap_or_else(|e| {
        eprintln!("zc-top: cannot connect to {endpoint}: {e}");
        exit(3)
    });

    if args.flag("--once") {
        // Two closely-spaced polls so rates/deltas are live, not lifetime
        // averages.
        let first = poll(&client);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(250));
        let second = poll(&client);
        let d = delta(&first, &second, t0.elapsed().as_secs_f64());
        emit(&if json {
            render_once_json(&second, &d, endpoint) + "\n"
        } else {
            render_frame(&second, Some(&d), endpoint)
        });
        return;
    }
    let mut prev: Option<(TopSample, Instant)> = None;
    for n in 1.. {
        let sample = poll(&client);
        let now = Instant::now();
        let d = prev
            .as_ref()
            .map(|(p, t)| delta(p, &sample, now.duration_since(*t).as_secs_f64()));
        emit(&if json {
            render_once_json(&sample, &d.unwrap_or_default(), endpoint) + "\n"
        } else {
            // Clear + home, then the frame: a cheap full-screen refresh.
            format!(
                "\x1b[2J\x1b[H{}",
                render_frame(&sample, d.as_ref(), endpoint)
            )
        });
        prev = Some((sample, now));
        if n == frames {
            return;
        }
        std::thread::sleep(interval);
    }
}

fn spool(args: &Args, dir: &str, json: bool) {
    let analysis = analyze_spool_dir(Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("zc-top: {dir}: {e}");
        exit(1)
    });
    let top = args.num("--top").unwrap_or(10) as usize;
    let render = if json { render_json } else { render_text };
    emit(&(render(&analysis, top) + "\n"));
}

fn main() {
    let args = cli::parse_or_exit("zc-top", FLAGS, &cli::argv());
    // `--keys` needs no server: print the `--once --json` schema contract
    // (one key per line) for scripts and CI to assert against.
    if args.flag("--keys") {
        return emit(&(SUMMARY.map(|(key, _)| key).join("\n") + "\n"));
    }
    let json = args.flag("--json");
    match (args.text("--connect"), args.text("--spool")) {
        (Some(endpoint), None) => live(&args, endpoint, json),
        (None, Some(dir)) => spool(&args, dir, json),
        _ => cli::usage_exit("zc-top", FLAGS, "give exactly one of --connect and --spool"),
    }
}
