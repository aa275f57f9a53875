//! The auditor as a test: the workspace itself must satisfy every zero-copy
//! invariant. This is what makes `cargo test` equivalent to running
//! `cargo run -p zc-audit` in CI.
//!
//! One carve-out: `reactor-blocking` findings are *measured migration debt*
//! — blocking leaves that the reactor cutover (the sharded reactor core) will
//! retire. They stay advisory until the cutover, so the strictness here is
//! "no violations except live reactor debt", plus a companion test pinning
//! that the debt is real (nonzero) and enumerated in the report.

use std::path::Path;

fn workspace_report() -> zc_audit::Report {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = zc_audit::find_root(here).expect("workspace root with zc-audit.toml");
    let cfg = zc_audit::Config::load(&root.join("zc-audit.toml")).expect("config parses");
    zc_audit::audit_workspace_report(&root, &cfg).expect("audit runs")
}

#[test]
fn workspace_satisfies_zero_copy_invariants() {
    let report = workspace_report();
    let hard: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule != "reactor-blocking" || v.msg.contains("stale waiver"))
        .collect();
    assert!(
        hard.is_empty(),
        "zero-copy invariant violations:\n{}",
        hard.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn reactor_debt_is_measured_not_hidden() {
    let report = workspace_report();
    // The data path still blocks today (socket sends, pool mutex, sleeps):
    // the reactor-readiness pass must SEE that debt, not report a false
    // clean bill. When the reactor cutover retires the last blocking leaf, this
    // assertion flips to `is_empty()` alongside `--deny-reactor` in CI.
    assert!(
        !report.reactor.is_empty(),
        "reactor-readiness found no blocking leaves; either the cutover \
         landed (flip this test and deny the rule) or the pass regressed"
    );
    assert!(
        !report.reactor_entrypoints.is_empty(),
        "reactor entrypoints must be configured in zc-audit.toml"
    );
    for f in &report.reactor {
        assert!(
            !f.chain.is_empty() && f.chain[0] == f.entrypoint,
            "every finding carries its chain from the entrypoint: {f:?}"
        );
    }
}
