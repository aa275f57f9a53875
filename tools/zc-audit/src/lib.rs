//! zc-audit — static auditor for this workspace's zero-copy invariants.
//!
//! The repo reproduces Kurmann & Stricker's zero-copy CORBA transport; its
//! whole value is that payload bytes cross the stack without being copied.
//! Nothing in the type system stops a convenient `.to_vec()` from quietly
//! re-introducing a copy on the data path, so this tool enforces the
//! discipline structurally. See `zc-audit.toml` for the rule configuration
//! and `docs/zero-copy-invariants.md` for the underlying invariants.
//!
//! Run as `cargo run -p zc-audit` (non-zero exit on violations) or via the
//! `workspace_is_clean` integration test.

mod atomics;
mod blocking;
pub mod config;
mod graph;
pub mod lexer;
mod locks;
pub mod parser;
pub mod ratchet;
pub mod rules;
mod taint;
pub mod toml;
mod wire;

pub use atomics::{AtomicsSummary, ProtocolStat};
pub use blocking::ReactorFinding;
pub use config::Config;
pub use rules::{Violation, WaiverKind};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use zc_json::{Layout, Writer};

/// One scanned + item-parsed workspace file, shared by the
/// inter-procedural passes.
pub struct FileAnalysis {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub scanned: lexer::Scanned,
    pub items: Vec<parser::FnItem>,
    /// Token spans of `#[cfg(test)] mod` items.
    pub test_spans: Vec<(usize, usize)>,
    /// Under a tests/benches/examples/fixtures directory.
    pub in_test_tree: bool,
}

impl FileAnalysis {
    /// Scan and item-parse one source file; `rel` is its workspace-relative
    /// path with `/` separators.
    pub fn new(rel: String, src: &str) -> FileAnalysis {
        let scanned = lexer::scan(src);
        let test_spans = rules::cfg_test_mod_spans(&scanned.toks);
        FileAnalysis {
            items: parser::parse_items(&scanned.toks, &test_spans),
            in_test_tree: rules::is_test_tree(&rel),
            rel,
            scanned,
            test_spans,
        }
    }
}

/// Locate the workspace root: walk up from `start` until a directory
/// containing `zc-audit.toml` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("zc-audit.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recursively collect workspace-relative paths of `.rs` files under `root`,
/// skipping VCS/build directories and configured excludes. Paths use `/`
/// separators regardless of platform.
pub fn collect_rs_files(root: &Path, exclude: &[String]) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = relative_slash(root, &path);
            if config::path_matches_any(&rel, exclude)
                || exclude.iter().any(|e| e.trim_end_matches('/') == rel)
            {
                continue;
            }
            if path.is_dir() {
                if name == ".git" || name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// One waiver seen during a workspace audit (for machine-readable output:
/// every tolerated finding is a used waiver).
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    pub file: String,
    pub line: u32,
    pub kind: WaiverKind,
    pub used: bool,
}

/// Full result of a workspace audit: violations plus the waiver inventory
/// and the v4 pass summaries.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub waivers: Vec<WaiverRecord>,
    pub atomics: AtomicsSummary,
    /// Blocking leaves reachable from the reactor entrypoints.
    pub reactor: Vec<ReactorFinding>,
    pub reactor_entrypoints: Vec<String>,
}

impl Report {
    /// Does this report fail the audit? Every finding does, except live
    /// `reactor-blocking` debt — measured, to be retired by the reactor
    /// cutover —
    /// which fails only under `--deny-reactor`.
    pub fn fails(&self, deny_reactor: bool) -> bool {
        self.violations
            .iter()
            .any(|v| deny_reactor || v.rule != "reactor-blocking")
    }

    /// Machine-readable findings: every violation and every waiver with its
    /// status, as one JSON document (no ratchet section).
    pub fn to_json(&self) -> String {
        self.to_json_with(None)
    }

    /// Machine-readable findings including the ratchet outcome when a
    /// `--ratchet` comparison ran.
    pub fn to_json_with(&self, ratchet: Option<&ratchet::RatchetOutcome>) -> String {
        let mut w = Writer::new();
        w.begin_object(Layout::Pretty)
            .field_str("schema", "zc-audit/v4");
        w.key("violations").begin_array(Layout::Pretty);
        for v in &self.violations {
            w.begin_object(Layout::Spaced)
                .field_str("rule", v.rule)
                .field_str("file", &v.file)
                .field("line", v.line)
                .field_str("msg", &v.msg)
                .end();
        }
        w.end();
        w.key("waivers").begin_array(Layout::Pretty);
        for r in &self.waivers {
            w.begin_object(Layout::Spaced)
                .field_str("file", &r.file)
                .field("line", r.line)
                .field_str("kind", r.kind.name())
                .field("used", r.used)
                .end();
        }
        w.end();
        w.key("atomics").begin_object(Layout::Pretty);
        w.key("protocols").begin_array(Layout::Pretty);
        for p in &self.atomics.protocols {
            w.begin_object(Layout::Spaced)
                .field_str("module", &p.module)
                .field_str("kind", p.kind)
                .field("sites", p.sites)
                .end();
        }
        w.end();
        w.field("undeclared_sites", self.atomics.undeclared_sites)
            .end();
        w.key("reactor").begin_object(Layout::Pretty);
        w.key("entrypoints").begin_array(Layout::Spaced);
        for ep in &self.reactor_entrypoints {
            w.string(ep);
        }
        w.end();
        w.key("blocking").begin_array(Layout::Pretty);
        for r in &self.reactor {
            w.begin_object(Layout::Spaced)
                .field_str("file", &r.file)
                .field("line", r.line)
                .field_str("leaf", &r.leaf)
                .field_str("entrypoint", &r.entrypoint)
                .field_str("chain", &r.chain.join(" -> "))
                .end();
        }
        w.end().end();
        w.key("ratchet");
        match ratchet {
            None => {
                w.value("null");
            }
            Some(o) => {
                w.begin_object(Layout::Pretty).field("ok", o.ok());
                w.key("rules").begin_array(Layout::Pretty);
                let kinds: std::collections::BTreeSet<&String> =
                    o.baseline.keys().chain(o.current.keys()).collect();
                for kind in kinds {
                    w.begin_object(Layout::Spaced)
                        .field_str("kind", kind)
                        .field("baseline", o.baseline.get(kind).copied().unwrap_or(0))
                        .field("current", o.current.get(kind).copied().unwrap_or(0))
                        .end();
                }
                w.end().end();
            }
        }
        w.end();
        w.finish() + "\n"
    }
}

/// Audit the workspace rooted at `root` with `cfg`: load every `.rs`
/// file outside the excludes and [`audit`] them.
pub fn audit_workspace_report(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for rel in collect_rs_files(root, &cfg.exclude)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push(FileAnalysis::new(rel, &src));
    }
    Ok(audit(&files, cfg))
}

/// Audit `files` with `cfg`: the per-file rules plus the inter-procedural
/// passes (lock-order, wire-taint, wire-consts, atomics-protocol,
/// reactor-readiness), then the one stale-waiver sweep.
/// Violations are sorted by file then line.
pub fn audit(files: &[FileAnalysis], cfg: &Config) -> Report {
    let mut out = Vec::new();
    // Collect waivers everywhere, not just where a per-file rule runs: the
    // inter-procedural passes accept waivers in files no per-file rule
    // covers (a lock-held waiver in the ORB, say).
    let waivers: Vec<BTreeMap<u32, rules::Waiver>> = files
        .iter()
        .map(|f| rules::collect_waivers(&f.rel, &f.scanned, cfg, &mut out))
        .collect();

    for (f, w) in files.iter().zip(&waivers) {
        rules::run_rules(f, cfg, w, &mut out);
    }
    let index = graph::NameIndex::new(files);
    locks::run(files, cfg, &waivers, &mut out);
    taint::run(&index, cfg, &waivers, &mut out);
    wire::run(files, cfg, &waivers, &mut out);
    let atomics_summary = atomics::run(files, cfg, &waivers, &mut out);
    let reactor = blocking::run(&index, cfg, &waivers, &mut out);

    // Stale sweep, deferred until every pass has had a chance to consume
    // its waivers. Reported under the rule the waiver kind belongs to.
    let mut records = Vec::new();
    for (f, ws) in files.iter().zip(&waivers) {
        for w in ws.values() {
            if !w.used.get() {
                out.push(Violation {
                    file: f.rel.clone(),
                    line: w.line,
                    rule: w.kind.stale_rule(),
                    msg: format!(
                        "stale waiver: no {} finding on this or the next line",
                        w.kind.name()
                    ),
                });
            }
            records.push(WaiverRecord {
                file: f.rel.clone(),
                line: w.line,
                kind: w.kind,
                used: w.used.get(),
            });
        }
    }

    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Report {
        violations: out,
        waivers: records,
        atomics: atomics_summary,
        reactor,
        reactor_entrypoints: cfg.reactor.entrypoints.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_from_manifest_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root with zc-audit.toml");
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn collect_skips_excluded() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).unwrap();
        let all = collect_rs_files(&root, &[]).unwrap();
        let filtered =
            collect_rs_files(&root, &["tools/zc-audit/tests/fixtures/".to_string()]).unwrap();
        assert!(all.iter().any(|f| f.starts_with("crates/")));
        assert!(filtered.len() <= all.len());
        assert!(!filtered
            .iter()
            .any(|f| f.starts_with("tools/zc-audit/tests/fixtures/")));
    }
}
