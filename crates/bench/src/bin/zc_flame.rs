//! `zc-flame` — offline critical-path analyzer over trace-spool segments.
//!
//! ```text
//! cargo run -p zc-bench --bin zc_flame -- --dir /tmp/zc-spool
//! cargo run -p zc-bench --bin zc_flame -- --dir /tmp/zc-spool --json --out flame.json
//! ```
//!
//! Reads every `spool-*.zcs` segment under `--dir` (oldest first, torn
//! tails tolerated — the segments are untrusted input), reconstructs
//! request journeys across their attempts, and renders either a text
//! flamegraph with per-stage/per-cause aggregates (the default) or the
//! `zcorba-flame/v1` machine summary (`--json`). `--top N` bounds the
//! per-journey detail (longest critical path first, default 10).

use std::path::PathBuf;
use std::process::ExitCode;

use zc_bench::cli::{self, Flag, Kind, JSON};
use zc_bench::flame::{analyze_spool_dir, render_json, render_text};

const FLAGS: &[Flag] = &[
    ("--dir", Kind::Text("SPOOL_DIR")),
    JSON,
    ("--out", Kind::Text("FILE")),
    ("--top", Kind::Num(usize::MAX as u64)),
];

fn main() -> ExitCode {
    let args = cli::parse_or_exit("zc_flame", FLAGS, &cli::argv());
    let Some(dir) = args.text("--dir") else {
        cli::usage_exit("zc_flame", FLAGS, "--dir is required");
    };
    let top = args.num("--top").unwrap_or(10) as usize;

    let analysis = match analyze_spool_dir(&PathBuf::from(dir)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zc_flame: {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rendered = if args.flag("--json") {
        render_json(&analysis, top)
    } else {
        render_text(&analysis, top)
    };

    match args.text("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered.as_bytes()) {
                eprintln!("zc_flame: write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            // write_all, not println!: a downstream `| head` closing the
            // pipe early must end the program quietly, not panic it.
            use std::io::Write as _;
            let mut out = std::io::stdout().lock();
            let _ = out.write_all(rendered.as_bytes());
            let _ = out.write_all(b"\n");
        }
    }
    ExitCode::SUCCESS
}
