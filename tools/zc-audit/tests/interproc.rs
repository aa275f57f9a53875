//! Fixture tests for the inter-procedural passes (lock-order, wire-taint,
//! wire-consts, atomics-protocol, reactor-readiness), the
//! `--json` output mode, the advisory exit policy and the waiver-debt
//! ratchet. Unlike `fixtures.rs`, these fixtures span multiple files, so
//! expectations carry `(file, line, rule)` triples.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Audit one fixture directory through the library; returns
/// `(file, line, rule)` triples sorted by file then line.
fn audit(name: &str) -> Vec<(String, u32, String)> {
    let dir = fixture_dir(name);
    let cfg = zc_audit::Config::load(&dir.join("zc-audit.toml")).expect("fixture config");
    let violations = zc_audit::audit_workspace_report(&dir, &cfg)
        .expect("fixture audit")
        .violations;
    violations
        .iter()
        .map(|v| (v.file.clone(), v.line, v.rule.to_string()))
        .collect()
}

fn run_binary(name: &str, flags: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_zc-audit"))
        .args(flags)
        .arg(fixture_dir(name))
        .output()
        .expect("run zc-audit binary");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn lock_cycle_fixture_reports_the_cycle_once() {
    let got = audit("lock_cycle_bad");
    assert_eq!(got.len(), 1, "exactly one cycle report: {got:?}");
    assert_eq!(got[0], ("a.rs".to_string(), 4, "lock-order".to_string()));

    let dir = fixture_dir("lock_cycle_bad");
    let cfg = zc_audit::Config::load(&dir.join("zc-audit.toml")).unwrap();
    let v = zc_audit::audit_workspace_report(&dir, &cfg)
        .unwrap()
        .violations;
    assert!(
        v[0].msg.contains("cycle") && v[0].msg.contains("alpha") && v[0].msg.contains("beta"),
        "cycle message must name both locks: {}",
        v[0].msg
    );
}

#[test]
fn lock_blocking_fixture_reports_direct_and_indirect_holds() {
    let got = audit("lock_blocking_bad");
    let want = vec![
        ("src.rs".to_string(), 4, "lock-order".to_string()),
        ("src.rs".to_string(), 9, "lock-order".to_string()),
    ];
    assert_eq!(got, want, "direct send_data and the relay wrapper");
}

#[test]
fn wire_fixture_reports_the_respelled_literal() {
    let got = audit("wire_dup_bad");
    let want = vec![("dup.rs".to_string(), 1, "wire-consts".to_string())];
    assert_eq!(got, want, "wire_dup_bad violations");
}

#[test]
fn interproc_good_fixture_is_clean_and_waivers_are_used() {
    assert_eq!(audit("interproc_good"), Vec::<(String, u32, String)>::new());

    let dir = fixture_dir("interproc_good");
    let cfg = zc_audit::Config::load(&dir.join("zc-audit.toml")).unwrap();
    let report = zc_audit::audit_workspace_report(&dir, &cfg).unwrap();
    assert_eq!(report.waivers.len(), 2, "both seeded waivers visible");
    assert!(
        report.waivers.iter().all(|w| w.used),
        "no stale waivers in the clean fixture: {:?}",
        report.waivers
    );
}

#[test]
fn json_mode_emits_machine_readable_report() {
    let (code, stdout) = run_binary("wire_dup_bad", &["--json"]);
    assert_eq!(code, 1, "wire-consts findings are hard failures");
    assert!(stdout.contains("\"schema\": \"zc-audit/v4\""), "{stdout}");
    assert!(stdout.contains("\"rule\": \"wire-consts\""), "{stdout}");
    assert!(stdout.contains("\"file\": \"dup.rs\""), "{stdout}");

    let (code, stdout) = run_binary("interproc_good", &["--json"]);
    assert_eq!(code, 0, "clean fixture: {stdout}");
    assert!(stdout.contains("\"violations\": []"), "{stdout}");
    assert!(stdout.contains("\"used\": true"), "{stdout}");

    // v4 sections are always present, even when the passes are off.
    assert!(stdout.contains("\"atomics\""), "{stdout}");
    assert!(stdout.contains("\"reactor\""), "{stdout}");
    assert!(stdout.contains("\"ratchet\": null"), "{stdout}");
}

#[test]
fn taint_panic_fixture_reports_reached_sinks() {
    let got = audit("taint_panic_bad");
    let want = vec![
        ("src.rs".to_string(), 2, "taint-panic".to_string()), // tainted index
        ("src.rs".to_string(), 7, "taint-panic".to_string()), // unwrap in reached callee
        ("src.rs".to_string(), 12, "taint-panic".to_string()), // panic! on tainted input
    ];
    assert_eq!(got, want, "taint_panic_bad violations");
}

#[test]
fn taint_arith_fixture_reports_unchecked_arithmetic() {
    let got = audit("taint_arith_bad");
    let want = vec![
        ("src.rs".to_string(), 2, "taint-arith".to_string()), // announced + len
        ("src.rs".to_string(), 7, "taint-arith".to_string()), // n * 4 in callee
        ("src.rs".to_string(), 11, "taint-arith".to_string()), // 1 << tainted
    ];
    assert_eq!(got, want, "taint_arith_bad violations");
}

#[test]
fn taint_alloc_fixture_reports_unclamped_allocations() {
    let got = audit("taint_alloc_bad");
    let want = vec![
        ("src.rs".to_string(), 3, "taint-alloc".to_string()), // with_capacity(announced)
        ("src.rs".to_string(), 5, "taint-alloc".to_string()), // vec![0u8; announced]
    ];
    assert_eq!(got, want, "taint_alloc_bad violations");
}

#[test]
fn taint_unsafe_fixture_requires_cited_safety() {
    let got = audit("taint_unsafe_bad");
    let want = vec![
        ("src.rs".to_string(), 2, "taint-unsafe".to_string()), // no SAFETY at all
        ("src.rs".to_string(), 10, "taint-unsafe".to_string()), // SAFETY cites no clamp
    ];
    assert_eq!(got, want, "taint_unsafe_bad violations");
}

#[test]
fn taint_good_fixture_is_clean_and_waiver_is_used() {
    assert_eq!(audit("taint_good"), Vec::<(String, u32, String)>::new());

    let dir = fixture_dir("taint_good");
    let cfg = zc_audit::Config::load(&dir.join("zc-audit.toml")).unwrap();
    let report = zc_audit::audit_workspace_report(&dir, &cfg).unwrap();
    assert_eq!(report.waivers.len(), 1, "the seeded taint-alloc waiver");
    assert!(
        report.waivers.iter().all(|w| w.used),
        "no stale waivers in the clean fixture: {:?}",
        report.waivers
    );
}

#[test]
fn taint_findings_fail_the_run() {
    for fixture in ["taint_alloc_bad", "taint_panic_bad"] {
        let (code, stdout) = run_binary(fixture, &[]);
        assert_eq!(code, 1, "taint-* fails like every other rule: {stdout}");
    }
}

#[test]
fn atomics_fixture_reports_protocol_violations() {
    let got = audit("atomics_bad");
    let want = vec![
        ("counter.rs".to_string(), 6, "atomics-protocol".to_string()), // needless SeqCst
        ("refcount.rs".to_string(), 9, "atomics-protocol".to_string()), // Relaxed decrement
        ("seqlock.rs".to_string(), 8, "atomics-protocol".to_string()), // Relaxed publish
        (
            "undeclared.rs".to_string(),
            6,
            "atomics-protocol".to_string(),
        ), // no protocol declared
    ];
    assert_eq!(got, want, "atomics_bad violations");

    let dir = fixture_dir("atomics_bad");
    let cfg = zc_audit::Config::load(&dir.join("zc-audit.toml")).unwrap();
    let v = zc_audit::audit_workspace_report(&dir, &cfg)
        .unwrap()
        .violations;
    assert!(
        v[0].msg.contains("needless `SeqCst`"),
        "counter message: {}",
        v[0].msg
    );
    assert!(
        v[1].msg.contains("Release or AcqRel"),
        "refcount message: {}",
        v[1].msg
    );
    assert!(
        v[2].msg.contains("Ordering::Release"),
        "seqlock message: {}",
        v[2].msg
    );
    assert!(
        v[3].msg.contains("outside any declared"),
        "undeclared message: {}",
        v[3].msg
    );

    // The pass summary counts each protocol's sites and the stray one.
    let report = zc_audit::audit_workspace_report(&dir, &cfg).unwrap();
    assert_eq!(report.atomics.protocols.len(), 3);
    assert_eq!(report.atomics.undeclared_sites, 1);
    assert!(report.atomics.protocols.iter().all(|p| p.sites > 0));
}

#[test]
fn atomics_findings_fail_the_run() {
    let (code, stdout) = run_binary("atomics_bad", &[]);
    assert_eq!(
        code, 1,
        "atomics-protocol fails like every other rule: {stdout}"
    );
    // The retired per-family flags are gone, not silently accepted.
    let (code, _) = run_binary("atomics_bad", &["--deny-atomics"]);
    assert_eq!(code, 2, "an unknown flag is a usage error");
}

#[test]
fn blocking_fixture_reports_reachable_leaf_only() {
    let got = audit("blocking_bad");
    assert_eq!(
        got,
        vec![("src.rs".to_string(), 9, "reactor-blocking".to_string())],
        "only the reachable lock; `locker` is dead from the entrypoints"
    );

    let dir = fixture_dir("blocking_bad");
    let cfg = zc_audit::Config::load(&dir.join("zc-audit.toml")).unwrap();
    let v = zc_audit::audit_workspace_report(&dir, &cfg)
        .unwrap()
        .violations;
    assert!(
        v[0].msg.contains("pump -> step -> finish"),
        "the two-hop chain must be spelled out: {}",
        v[0].msg
    );

    let report = zc_audit::audit_workspace_report(&dir, &cfg).unwrap();
    assert_eq!(report.reactor.len(), 1);
    assert_eq!(report.reactor[0].leaf, "lock");
    assert_eq!(report.reactor[0].entrypoint, "pump");
    assert_eq!(report.reactor[0].chain, vec!["pump", "step", "finish"]);
}

#[test]
fn reactor_findings_are_debt_unless_denied() {
    let (code, stdout) = run_binary("blocking_bad", &[]);
    assert_eq!(code, 0, "reactor-blocking alone exits 0: {stdout}");
    assert!(stdout.contains("--deny-reactor enforces"), "{stdout}");
    // Every run prints each finding with its chain; the old report flag
    // that repeated them is gone.
    assert!(stdout.contains("pump -> step -> finish"), "{stdout}");
    let (code, _) = run_binary("blocking_bad", &["--reactor-report"]);
    assert_eq!(code, 2, "an unknown flag is a usage error");

    let (code, _) = run_binary("blocking_bad", &["--deny-reactor"]);
    assert_eq!(code, 1, "--deny-reactor upgrades to a hard failure");
}

#[test]
fn ratchet_fails_on_growth_and_passes_within_baseline() {
    // The fixture itself is clean: both copy waivers are cited and used.
    let (code, stdout) = run_binary("ratchet_regress", &[]);
    assert_eq!(
        code, 0,
        "fixture must be clean without the ratchet: {stdout}"
    );

    // 2 copy waivers vs a baseline of 1: growth, hard failure.
    let (code, stdout) = run_binary("ratchet_regress", &["--ratchet", "baseline.json"]);
    assert_eq!(code, 1, "waiver growth must fail the ratchet: {stdout}");
    assert!(stdout.contains("grew 1 -> 2"), "{stdout}");

    // Same tree vs a baseline of 2: within budget.
    let (code, stdout) = run_binary("ratchet_regress", &["--ratchet", "baseline_ok.json"]);
    assert_eq!(code, 0, "within-baseline debt must pass: {stdout}");
    assert!(stdout.contains("within baseline"), "{stdout}");

    // The JSON report carries the outcome.
    let (code, stdout) = run_binary("ratchet_regress", &["--json", "--ratchet", "baseline.json"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("\"ok\": false"), "{stdout}");
    assert!(
        stdout.contains("{\"kind\": \"copy\", \"baseline\": 1, \"current\": 2}"),
        "{stdout}"
    );
}

#[test]
fn update_ratchet_round_trips_through_the_binary() {
    let path = std::env::temp_dir().join("zc-audit-test-baseline.json");
    let _ = std::fs::remove_file(&path);

    let (code, stdout) = run_binary(
        "ratchet_regress",
        &["--update-ratchet", path.to_str().unwrap()],
    );
    assert_eq!(code, 0, "{stdout}");
    let written = std::fs::read_to_string(&path).expect("baseline written");
    assert!(written.contains("zc-audit-baseline/v1"), "{written}");
    assert!(written.contains("\"copy\": 2"), "{written}");

    // A freshly written baseline always ratchets clean.
    let (code, stdout) = run_binary("ratchet_regress", &["--ratchet", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("within baseline"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lock_order_findings_fail_the_run() {
    let (code, stdout) = run_binary("lock_blocking_bad", &[]);
    assert_eq!(code, 1, "lock-order fails like every other rule: {stdout}");
    let (code, _) = run_binary("wire_dup_bad", &[]);
    assert_eq!(code, 1);
}
