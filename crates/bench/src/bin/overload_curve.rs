//! `overload_curve` — the goodput-vs-offered-load experiment on its own:
//! probe closed-loop capacity, then sweep offered-load multipliers in
//! both server modes (seed = unlimited admission, admission = bounded
//! dispatch budget) and report whether the admission curve plateaus where
//! the seed curve collapses.
//!
//! ```text
//! cargo run -p zc-bench --bin overload_curve --release             # full sweep
//! cargo run -p zc-bench --bin overload_curve -- --smoke            # CI-sized
//! cargo run -p zc-bench --bin overload_curve -- --json             # JSON to stdout
//! cargo run -p zc-bench --bin overload_curve -- --out curve.json   # JSON to a file
//! cargo run -p zc-bench --bin overload_curve -- --seed 7           # new arrivals
//! ```
//!
//! Exit code 1 when the admission curve fails the plateau check (goodput
//! at the highest offered load below half its peak in smoke mode, below
//! 80 % otherwise), when the sweep never shed, or when the reserved
//! `_ZcTelemetry` lane went dark during overload.

use std::path::PathBuf;

use zc_bench::overload::{OverloadMode, OVERLOAD_PLATEAU_GATE, OVERLOAD_PLATEAU_GATE_SMOKE};
use zc_bench::{overload_sweep, OverloadCurve, OverloadParams};

fn arg_value(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json = std::env::args().any(|a| a == "--json");
    let out = arg_value("--out").map(PathBuf::from);
    let seed = arg_value("--seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(42);

    let params = if smoke {
        OverloadParams::smoke(seed)
    } else {
        OverloadParams::full(seed)
    };
    let curve = overload_sweep(&params, |line| eprintln!("{line}"));

    if json || out.is_some() {
        let doc = curve.to_json();
        match &out {
            Some(path) => {
                std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(2);
                });
                eprintln!("wrote {}", path.display());
            }
            None => println!("{doc}"),
        }
    }
    if !json {
        println!("{}", OverloadCurve::csv_header());
        for p in &curve.points {
            println!("{}", p.to_csv_row());
        }
    }

    let gate = if smoke {
        OVERLOAD_PLATEAU_GATE_SMOKE
    } else {
        OVERLOAD_PLATEAU_GATE
    };
    let adm = curve.plateau_ratio(OverloadMode::Admission);
    let seed_ratio = curve.plateau_ratio(OverloadMode::Seed);
    eprintln!(
        "plateau: admission {adm:.2} (gate {gate:.2}), seed {seed_ratio:.2}; \
         sheds {}, telemetry_alive {}",
        curve.total_sheds(),
        curve.telemetry_alive()
    );
    let mut failed = false;
    if adm < gate {
        eprintln!("FAIL: admission goodput collapsed past saturation");
        failed = true;
    }
    if curve.total_sheds() == 0 {
        eprintln!("FAIL: the admission gate never shed — budgets not binding");
        failed = true;
    }
    if !curve.telemetry_alive() {
        eprintln!("FAIL: the reserved _ZcTelemetry lane went dark under overload");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
