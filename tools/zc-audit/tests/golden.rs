//! Byte-for-byte regression net: every fixture directory, rendered through
//! the library as the `--json` report, must equal its committed golden in
//! `tests/golden/<fixture>.json` — messages, reactor chains, the waiver
//! inventory and the atomics summary included, not just `(line, rule)`.
//!
//! On a deliberate output change, regenerate a golden with
//! `zc-audit --json tests/fixtures/<name> > tests/golden/<name>.json`.

use std::path::Path;

#[test]
fn every_fixture_renders_its_golden_json() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(here.join("tests/fixtures"))
        .expect("fixtures directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(!names.is_empty());
    for name in &names {
        let dir = here.join("tests/fixtures").join(name);
        let cfg = zc_audit::Config::load(&dir.join("zc-audit.toml")).expect("fixture config");
        let got = zc_audit::audit_workspace_report(&dir, &cfg)
            .expect("fixture audit")
            .to_json();
        let golden = here.join("tests/golden").join(format!("{name}.json"));
        let want = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        assert_eq!(got, want, "fixture `{name}` drifted from its golden");
    }
}
