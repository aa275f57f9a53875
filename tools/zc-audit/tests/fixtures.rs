//! Fixture tests: each known-bad fixture directory must produce the exact
//! expected `file:line` reports (via the library) and a non-zero exit (via
//! the compiled binary); the known-good fixture must be clean and exit 0.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Audit one fixture directory through the library; returns `(line, rule)`
/// pairs sorted by line.
fn audit(name: &str) -> Vec<(u32, String)> {
    let dir = fixture_dir(name);
    let cfg = zc_audit::Config::load(&dir.join("zc-audit.toml")).expect("fixture config");
    let violations = zc_audit::audit_workspace_report(&dir, &cfg)
        .expect("fixture audit")
        .violations;
    for v in &violations {
        assert_eq!(v.file, "src.rs", "unexpected file in {name}: {v}");
    }
    violations
        .iter()
        .map(|v| (v.line, v.rule.to_string()))
        .collect()
}

/// Run the compiled `zc-audit` binary against a fixture root; returns
/// (exit code, stdout).
fn run_binary(name: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_zc-audit"))
        .arg(fixture_dir(name))
        .output()
        .expect("run zc-audit binary");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn bad_copy_fixture_reports_each_site() {
    let got = audit("bad_copy");
    let want = [
        (3, "copy-path"),  // extend_from_slice
        (4, "copy-path"),  // to_vec
        (5, "copy-path"),  // format!
        (6, "copy-path"),  // clone
        (11, "copy-path"), // allow(copy) waiver citing no CopyLayer
        (12, "copy-path"), // to_vec under the rejected waiver
    ];
    assert_eq!(
        got,
        want.map(|(l, r)| (l, r.to_string())),
        "bad_copy violations"
    );
}

#[test]
fn bad_unsafe_fixture_reports_each_site() {
    let got = audit("bad_unsafe");
    let want = [
        (1, "unsafe-audit"), // missing #![deny(unsafe_op_in_unsafe_fn)]
        (4, "unsafe-audit"), // unsafe block without SAFETY
        (9, "unsafe-audit"), // unsafe fn without SAFETY
    ];
    assert_eq!(
        got,
        want.map(|(l, r)| (l, r.to_string())),
        "bad_unsafe violations"
    );
}

#[test]
fn bad_meter_fixture_reports_each_site() {
    let got = audit("bad_meter");
    // Only the unmetered function is flagged; metered_fill is clean.
    assert_eq!(got, vec![(4, "meter-coverage".to_string())]);
}

#[test]
fn good_fixture_is_clean() {
    assert_eq!(audit("good"), Vec::<(u32, String)>::new());
}

#[test]
fn binary_exits_nonzero_on_each_bad_fixture() {
    for name in ["bad_copy", "bad_unsafe", "bad_meter"] {
        let (code, stdout) = run_binary(name);
        assert_eq!(code, 1, "{name} must fail the audit:\n{stdout}");
        assert!(
            stdout.contains("src.rs:"),
            "{name} report must carry file:line locations:\n{stdout}"
        );
    }
}

#[test]
fn binary_exits_zero_on_good_fixture() {
    let (code, stdout) = run_binary("good");
    assert_eq!(code, 0, "good fixture must pass:\n{stdout}");
}
