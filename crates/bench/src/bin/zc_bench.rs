//! `zc-bench <experiment> [flags]` — every experiment of the paper's
//! evaluation behind one table (`zc_bench::experiments::EXPERIMENTS`).
//!
//! ```text
//! cargo run --release -p zc-bench --bin zc-bench -- fig6_orb
//! cargo run --release -p zc-bench --bin zc-bench -- latency --rounds 500 --json
//! cargo run --release -p zc-bench --bin zc-bench                  # lists the experiments
//! ```
//!
//! Exit codes: 0 ok, 1 an experiment's own gate failed (or the report
//! could not be written), 2 usage.

use std::process::ExitCode;

use zc_bench::cli;
use zc_bench::experiments::EXPERIMENTS;
use zc_bench::report::Reporter;

fn main() -> ExitCode {
    let argv = cli::argv();
    let named = argv.first().map(String::as_str);
    let Some(exp) = EXPERIMENTS.iter().find(|e| Some(e.name) == named) else {
        eprintln!("usage: zc-bench <experiment> [flags], where <experiment> is one of");
        for e in &EXPERIMENTS {
            eprintln!("  {:<20} {}", e.name, e.anchor);
        }
        return ExitCode::from(2);
    };
    let tool = format!("zc-bench {}", exp.name);
    let args = cli::parse_or_exit(&tool, exp.flags, &argv[1..]);
    let mut rep = Reporter::new(std::io::stdout().lock(), args.flag("--json"));
    (exp.run)(&args, &mut rep);
    rep.finish()
}
