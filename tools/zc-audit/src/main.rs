//! CLI entry point: audit the workspace, print violations, exit non-zero if
//! any are found.
//!
//! Usage: `cargo run -p zc-audit [-- [--json] [--deny-reactor]
//! [--ratchet <baseline.json>] [--update-ratchet <baseline.json>] [<root>]]`
//!
//! - `<root>` defaults to the nearest ancestor directory containing
//!   `zc-audit.toml`.
//! - `--json` emits the machine-readable report (rule, file, line, msg,
//!   the full waiver inventory with used/stale status, the atomics/reactor
//!   pass summaries and the ratchet outcome) on stdout.
//! - every finding fails the run (exit 1) except `reactor-blocking`, the
//!   measured debt the reactor cutover retires: it is printed (with its call
//!   chain from the entrypoint) and exits 0 until
//!   `--deny-reactor` makes it fail like every other rule. The
//!   `workspace_is_clean` test draws the same line.
//! - `--ratchet <file>` compares the current per-kind waiver counts against
//!   the committed baseline and fails (exit 1) if any kind grew; shrinkage
//!   prints a hint to tighten the baseline. `--update-ratchet <file>`
//!   rewrites the baseline from the current tree.
//!
//! Relative ratchet paths resolve against the workspace root.

use std::path::PathBuf;
use std::process::ExitCode;
use zc_audit::ratchet;

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_reactor = false;
    let mut ratchet_path: Option<PathBuf> = None;
    let mut update_ratchet_path: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args_os().skip(1);
    while let Some(arg) = args.next() {
        match arg.to_str() {
            Some("--json") => json = true,
            Some("--deny-reactor") => deny_reactor = true,
            Some(s @ ("--ratchet" | "--update-ratchet")) => {
                let Some(path) = args.next() else {
                    eprintln!("zc-audit: {s} requires a baseline path");
                    return ExitCode::from(2);
                };
                let path = PathBuf::from(path);
                if s == "--ratchet" {
                    ratchet_path = Some(path);
                } else {
                    update_ratchet_path = Some(path);
                }
            }
            Some(s) if s.starts_with("--") => {
                eprintln!("zc-audit: unknown flag `{s}`");
                return ExitCode::from(2);
            }
            _ => root_arg = Some(PathBuf::from(arg)),
        }
    }

    let root = match root_arg {
        Some(root) => root,
        None => {
            let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match zc_audit::find_root(&start) {
                Some(root) => root,
                None => {
                    eprintln!("zc-audit: no zc-audit.toml found above {}", start.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    let resolve = |p: PathBuf| if p.is_relative() { root.join(p) } else { p };

    let cfg = match zc_audit::Config::load(&root.join("zc-audit.toml")) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("zc-audit: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match zc_audit::audit_workspace_report(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("zc-audit: I/O error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = update_ratchet_path {
        let path = resolve(path);
        let counts = ratchet::waiver_counts(&report);
        if let Err(e) = std::fs::write(&path, ratchet::baseline_json(&counts)) {
            eprintln!("zc-audit: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !json {
            println!("zc-audit: wrote waiver baseline to {}", path.display());
        }
    }

    let ratchet_outcome = match ratchet_path {
        None => None,
        Some(path) => {
            let path = resolve(path);
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("zc-audit: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let baseline = match ratchet::baseline_from_json(&src) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("zc-audit: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            Some(ratchet::compare(baseline, ratchet::waiver_counts(&report)))
        }
    };

    if json {
        print!("{}", report.to_json_with(ratchet_outcome.as_ref()));
    } else if report.violations.is_empty() {
        println!("zc-audit: clean — zero-copy invariants hold");
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        println!("zc-audit: {} violation(s)", report.violations.len());
    }

    let mut ratchet_failed = false;
    if let Some(o) = &ratchet_outcome {
        if !json {
            for kind in &o.grown {
                let base = o.baseline.get(kind).copied().unwrap_or(0);
                let cur = o.current.get(kind).copied().unwrap_or(0);
                println!(
                    "zc-audit: ratchet: waiver debt for `{kind}` grew {base} -> {cur}; \
                     pay it down or consciously update the baseline with --update-ratchet"
                );
            }
            for kind in &o.shrunk {
                let base = o.baseline.get(kind).copied().unwrap_or(0);
                let cur = o.current.get(kind).copied().unwrap_or(0);
                println!(
                    "zc-audit: ratchet: waiver debt for `{kind}` fell {base} -> {cur}; \
                     tighten the baseline with --update-ratchet to lock in the win"
                );
            }
            if o.ok() {
                println!("zc-audit: ratchet: waiver debt within baseline");
            }
        }
        ratchet_failed = !o.ok();
    }

    if ratchet_failed {
        return ExitCode::FAILURE;
    }
    if report.fails(deny_reactor) {
        return ExitCode::FAILURE;
    }
    if !report.violations.is_empty() && !json {
        println!(
            "zc-audit: every finding is reactor-blocking debt (the reactor cutover); \
             exiting 0 (--deny-reactor enforces)"
        );
    }
    ExitCode::SUCCESS
}
