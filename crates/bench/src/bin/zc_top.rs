//! `zc-top` — a terminal dashboard over the in-band `_ZcTelemetry` object.
//!
//! Polls a live server's reserved management object over plain GIOP and
//! renders goodput, windowed load rates, copy-meter deltas, stage p99s,
//! breaker/degrade gauges and pool/queue watermarks as a refreshing frame.
//!
//! ```text
//! cargo run -p zc-bench --bin zc-top -- --connect 127.0.0.1:47117
//! cargo run -p zc-bench --bin zc-top -- --connect 127.0.0.1:47117 --once --json
//! ```
//!
//! Flags:
//! * `--connect HOST:PORT` (required) — the server to poll.
//! * `--interval-ms N` — poll interval (default 1000).
//! * `--frames N` — stop after N frames (default: run until killed).
//! * `--once` — take two closely-spaced polls, emit one summary, exit.
//! * `--json` — machine output (`zcorba-top/v1`), one object per frame.
//! * `--keys` — print the `--once --json` schema's required keys, one per
//!   line, and exit (no server needed); CI asserts against this list.
//!
//! Exit codes: 0 ok, 2 usage, 3 connect/poll failure.

use std::io::Write as _;
use std::time::{Duration, Instant};

use zc_bench::cli::{self, Flag, Kind, JSON};
use zc_bench::top::{delta, render_frame, render_once_json, TopDelta, TopSample, SUMMARY};
use zc_orb::{Orb, TelemetryClient};

const FLAGS: &[Flag] = &[
    ("--connect", Kind::Text("HOST:PORT")),
    ("--interval-ms", Kind::Num(u64::MAX)),
    ("--frames", Kind::Num(u64::MAX)),
    ("--once", Kind::Switch),
    JSON,
    ("--keys", Kind::Switch),
];

fn poll(client: &TelemetryClient) -> Result<TopSample, String> {
    let text = client
        .snapshot_json()
        .map_err(|e| format!("snapshot_json poll failed: {e}"))?;
    TopSample::parse(&text)
}

fn main() {
    let args = cli::parse_or_exit("zc-top", FLAGS, &cli::argv());
    // `--keys` needs no server: print the `--once --json` schema contract
    // (one key per line) for scripts and CI to assert against.
    if args.flag("--keys") {
        for (key, _) in &SUMMARY {
            println!("{key}");
        }
        return;
    }
    let endpoint = args.text("--connect").unwrap_or_default();
    let Some((host, Ok(port))) = endpoint
        .rsplit_once(':')
        .map(|(host, port)| (host, port.parse::<u16>()))
    else {
        cli::usage_exit(
            "zc-top",
            FLAGS,
            &format!("--connect wants HOST:PORT, got {endpoint:?}"),
        );
    };
    let once = args.flag("--once");
    let json = args.flag("--json");
    let interval = Duration::from_millis(args.num("--interval-ms").unwrap_or(1000));
    let frames = args.num("--frames").unwrap_or(0);

    let orb = Orb::builder().tcp().build();
    let client = match TelemetryClient::connect(&orb, host, port) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("zc-top: cannot connect to {endpoint}: {e}");
            std::process::exit(3);
        }
    };

    let run = || -> Result<(), String> {
        if once {
            // Two closely-spaced polls so rates/deltas are live, not
            // lifetime averages.
            let first = poll(&client)?;
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(250));
            let second = poll(&client)?;
            let d = delta(&first, &second, t0.elapsed().as_secs_f64());
            if json {
                println!("{}", render_once_json(&second, &d, endpoint));
            } else {
                print!("{}", render_frame(&second, Some(&d), endpoint));
            }
            return Ok(());
        }
        let mut prev: Option<(TopSample, Instant)> = None;
        let mut n = 0u64;
        loop {
            let sample = poll(&client)?;
            let now = Instant::now();
            let d: Option<TopDelta> = prev
                .as_ref()
                .map(|(p, t)| delta(p, &sample, now.duration_since(*t).as_secs_f64()));
            if json {
                println!(
                    "{}",
                    render_once_json(&sample, &d.unwrap_or_default(), endpoint)
                );
            } else {
                // Clear + home, then the frame: a cheap full-screen refresh.
                print!(
                    "\x1b[2J\x1b[H{}",
                    render_frame(&sample, d.as_ref(), endpoint)
                );
                let _ = std::io::stdout().flush();
            }
            prev = Some((sample, now));
            n += 1;
            if frames != 0 && n >= frames {
                return Ok(());
            }
            std::thread::sleep(interval);
        }
    };

    if let Err(e) = run() {
        eprintln!("zc-top: {e}");
        std::process::exit(3);
    }
}
