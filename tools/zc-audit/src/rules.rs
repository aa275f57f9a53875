//! The three audit rule families.
//!
//! 1. **copy-path** — inside declared zero-copy modules, byte-copying idioms
//!    (`.to_vec()`, `.clone()`, `copy_from_slice`, `extend_from_slice`,
//!    `Vec::from`, `ptr::copy*`, `format!`) are violations unless the site
//!    carries a `// zc-audit: allow(...)` waiver. An `allow(copy)` waiver
//!    must name the `CopyLayer` the copy is metered under; `allow(cheap-clone)`
//!    marks O(1) refcount/handle clones; `allow(control-plane)` marks small
//!    fixed-size header/diagnostic work that never touches payload bytes.
//! 2. **unsafe-audit** — every `unsafe` token in the configured crates must
//!    have a `// SAFETY:` comment on the same or one of the three preceding
//!    lines, and configured crate roots must declare
//!    `#![deny(unsafe_op_in_unsafe_fn)]`.
//! 3. **meter-coverage** — raw byte-moving primitives (`ptr::copy*`,
//!    `copy_from_slice`) in configured files must live in a function that
//!    also touches the copy meter, or carry an `allow(copy)` waiver naming
//!    the layer under which callers meter them.
//!
//! Test code is exempt from copy-path and meter-coverage (tests copy freely
//! to build expectations): files under `tests/`, `benches/` or `examples/`
//! and spans of `#[cfg(test)] mod … { … }` are skipped. The unsafe-audit
//! rule applies everywhere — test `unsafe` needs justification too.

use crate::config::{path_matches_any, Config, CopyPathModule, Idiom};
use crate::lexer::{brace_span, skip_attr, tok_is, Scanned, Tok, TokKind};
use crate::FileAnalysis;
use std::collections::BTreeMap;
use std::fmt;

/// A single finding, printable as `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Waiver kinds recognized in `// zc-audit: allow(<kind>) — <reason>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaiverKind {
    /// A real payload copy; the reason must name a `CopyLayer`.
    Copy,
    /// An O(1) refcount/handle clone (no payload bytes move).
    CheapClone,
    /// Control-plane work: headers, errors, logs — bounded and payload-free.
    ControlPlane,
    /// A lock deliberately held across a blocking call / ordering edge
    /// (lock-order pass); the reason must explain why it cannot deadlock.
    LockHeld,
    /// A numeric literal that coincides with a wire-constant family but is
    /// not a wire constant (wire-consts pass).
    WireConst,
    /// A panicking idiom on a wire-tainted value that cannot actually fire
    /// (wire-taint pass); the reason must cite a configured clamp.
    TaintPanic,
    /// Unchecked arithmetic on a wire-tainted length/offset that cannot
    /// overflow (wire-taint pass); the reason must cite a configured clamp.
    TaintArith,
    /// An allocation sized by a wire-tainted value that is bounded by
    /// construction (wire-taint pass); the reason must cite a configured
    /// clamp.
    TaintAlloc,
    /// A wire-tainted value entering `unsafe` where the bound lives outside
    /// the `SAFETY:` comment (wire-taint pass); the reason must cite a
    /// configured clamp.
    TaintUnsafe,
    /// An atomic site deviating from its module's declared ordering
    /// protocol (atomics-protocol pass); the reason must cite the loom
    /// model covering the ordering.
    AtomicsProtocol,
    /// A blocking leaf deliberately left reachable from a reactor
    /// entrypoint (reactor-readiness pass, advisory until the reactor
    /// cutover).
    ReactorBlocking,
}

/// Each kind's waiver spelling and the rule its stale waivers are reported
/// under, in declaration order.
const KINDS: [(WaiverKind, &str, &str); 11] = [
    (WaiverKind::Copy, "copy", "copy-path"),
    (WaiverKind::CheapClone, "cheap-clone", "copy-path"),
    (WaiverKind::ControlPlane, "control-plane", "copy-path"),
    (WaiverKind::LockHeld, "lock-held", "lock-order"),
    (WaiverKind::WireConst, "wire-const", "wire-consts"),
    (WaiverKind::TaintPanic, "taint-panic", "taint-panic"),
    (WaiverKind::TaintArith, "taint-arith", "taint-arith"),
    (WaiverKind::TaintAlloc, "taint-alloc", "taint-alloc"),
    (WaiverKind::TaintUnsafe, "taint-unsafe", "taint-unsafe"),
    (
        WaiverKind::AtomicsProtocol,
        "atomics-protocol",
        "atomics-protocol",
    ),
    (
        WaiverKind::ReactorBlocking,
        "reactor-blocking",
        "reactor-blocking",
    ),
];

impl WaiverKind {
    pub fn parse(s: &str) -> Option<WaiverKind> {
        KINDS.iter().find(|k| k.1 == s).map(|k| k.0)
    }

    pub fn name(self) -> &'static str {
        KINDS[self as usize].1
    }

    /// The rule a stale waiver of this kind is reported under.
    pub(crate) fn stale_rule(self) -> &'static str {
        KINDS[self as usize].2
    }

    /// Is this one of the wire-taint waiver kinds (whose reasons must cite
    /// a configured clamp)?
    pub(crate) fn is_taint(self) -> bool {
        matches!(
            self,
            WaiverKind::TaintPanic
                | WaiverKind::TaintArith
                | WaiverKind::TaintAlloc
                | WaiverKind::TaintUnsafe
        )
    }
}

/// The copy-flavored kinds accepted by copy-path and meter-coverage sites.
pub(crate) const COPY_KINDS: &[WaiverKind] = &[
    WaiverKind::Copy,
    WaiverKind::CheapClone,
    WaiverKind::ControlPlane,
];

#[derive(Debug, Clone)]
pub(crate) struct Waiver {
    pub(crate) kind: WaiverKind,
    /// Line of the waiver comment; it covers this line and the next.
    pub(crate) line: u32,
    /// Set once a flagged idiom consumes the waiver (stale-waiver check).
    pub(crate) used: std::cell::Cell<bool>,
}

/// Is `rel` a test-tree path (tests/benches/examples/fixtures directory)?
pub(crate) fn is_test_tree(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures")
}

/// Run the per-file rules (copy-path, unsafe-audit, meter-coverage) on one
/// scanned file. Waiver collection and stale-waiver sweeping are
/// [`crate::audit`]'s job — it defers the sweep until the inter-procedural
/// passes have had their chance to consume waivers.
pub(crate) fn run_rules(
    file: &FileAnalysis,
    cfg: &Config,
    waivers: &BTreeMap<u32, Waiver>,
    out: &mut Vec<Violation>,
) {
    let (rel, scanned) = (file.rel.as_str(), &file.scanned);
    let in_test_code = |tok_idx: usize| {
        file.in_test_tree
            || file
                .test_spans
                .iter()
                .any(|&(a, b)| tok_idx >= a && tok_idx <= b)
    };

    let modules: Vec<&CopyPathModule> = cfg
        .modules
        .iter()
        .filter(|m| path_matches_any(rel, &m.paths))
        .collect();

    if !modules.is_empty() {
        copy_path_rule(rel, &scanned.toks, &modules, waivers, &in_test_code, out);
    }

    if path_matches_any(rel, &cfg.unsafe_audit.paths) {
        let safety_lines: Vec<u32> = scanned
            .comments
            .iter()
            .filter(|c| c.text.contains("SAFETY:"))
            .map(|c| c.line)
            .collect();
        unsafe_rule(rel, &scanned.toks, &safety_lines, out);
    }
    if cfg
        .unsafe_audit
        .deny_unsafe_op_roots
        .iter()
        .any(|p| p == rel)
        && !scanned
            .toks
            .iter()
            .any(|t| t.text == "unsafe_op_in_unsafe_fn")
    {
        out.push(Violation {
            file: rel.to_string(),
            line: 1,
            rule: "unsafe-audit",
            msg: "crate root must declare #![deny(unsafe_op_in_unsafe_fn)]".into(),
        });
    }

    if path_matches_any(rel, &cfg.meter.paths) {
        meter_rule(file, cfg, waivers, &in_test_code, out);
    }
}

/// Parse `// zc-audit: allow(<kind>) — <reason>` comments, validating them
/// as they are collected. Returns waivers keyed by comment line.
pub(crate) fn collect_waivers(
    rel: &str,
    scanned: &Scanned,
    cfg: &Config,
    out: &mut Vec<Violation>,
) -> BTreeMap<u32, Waiver> {
    let mut waivers = BTreeMap::new();
    for c in &scanned.comments {
        let Some(pos) = c.text.find("zc-audit:") else {
            continue;
        };
        let body = c.text[pos + "zc-audit:".len()..].trim();
        let mut push_err = |msg: String| {
            out.push(Violation {
                file: rel.to_string(),
                line: c.line,
                rule: "copy-path",
                msg,
            })
        };
        let Some(rest) = body.strip_prefix("allow(") else {
            // Prose that merely mentions the marker (docs, this tool's own
            // sources) is not a waiver attempt; only an `allow` spelling is.
            if body.starts_with("allow") {
                push_err(format!("malformed zc-audit comment: `{body}`"));
            }
            continue;
        };
        let Some(close) = rest.find(')') else {
            push_err("malformed waiver: missing `)`".into());
            continue;
        };
        let kind_str = &rest[..close];
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '—', '-', ':'])
            .trim();
        let Some(kind) = WaiverKind::parse(kind_str) else {
            // Diagnose plausible kind spellings; skip placeholder prose
            // like `allow(<kind>)` or `allow(...)` in documentation.
            let plausible = !kind_str.is_empty()
                && kind_str
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b == b'-');
            if plausible {
                push_err(format!(
                    "unknown waiver kind `{kind_str}` (expected copy, cheap-clone, \
                     control-plane, lock-held, wire-const, taint-panic, taint-arith, \
                     taint-alloc, taint-unsafe, atomics-protocol or reactor-blocking)"
                ));
            }
            continue;
        };
        if reason.is_empty() {
            push_err("waiver must carry a reason after the kind".into());
            continue;
        }
        if kind == WaiverKind::Copy && !cfg.copy_layers.iter().any(|l| reason.contains(l.as_str()))
        {
            push_err(format!(
                "allow(copy) waiver must name a CopyLayer ({})",
                cfg.copy_layers.join(", ")
            ));
            continue;
        }
        if kind.is_taint()
            && !cfg.taint.clamps.is_empty()
            && !cfg.taint.clamps.iter().any(|c| reason.contains(c.as_str()))
        {
            push_err(format!(
                "allow({}) waiver must cite the clamp bounding the value ({})",
                kind.name(),
                cfg.taint.clamps.join(", ")
            ));
            continue;
        }
        if kind == WaiverKind::AtomicsProtocol && !reason.contains("loom") {
            push_err(
                "allow(atomics-protocol) waiver must cite the loom model covering the \
                 ordering (a crates/*/tests/loom.rs case)"
                    .into(),
            );
            continue;
        }
        waivers.insert(
            c.line,
            Waiver {
                kind,
                line: c.line,
                used: std::cell::Cell::new(false),
            },
        );
    }
    waivers
}

/// Find a waiver of one of `kinds` covering `line` (trailing comment on the
/// same line, or a comment on the line directly above) and mark it used.
/// A waiver of the wrong kind neither silences the site nor is consumed —
/// it will surface as stale.
pub(crate) fn waiver_for(
    waivers: &BTreeMap<u32, Waiver>,
    line: u32,
    kinds: &[WaiverKind],
) -> Option<WaiverKind> {
    for l in [line, line.saturating_sub(1)] {
        if let Some(w) = waivers.get(&l) {
            if kinds.contains(&w.kind) {
                w.used.set(true);
                return Some(w.kind);
            }
        }
    }
    None
}

/// Token-index spans (inclusive) of `#[cfg(test)] mod … { … }` items.
pub(crate) fn cfg_test_mod_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // Match `# [ cfg ( … test … ) ]` …
        if toks[i].text == "#"
            && tok_is(toks, i + 1, "[")
            && tok_is(toks, i + 2, "cfg")
            && tok_is(toks, i + 3, "(")
        {
            let mut j = i + 4;
            let mut depth = 1;
            let mut saw_test = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "test" => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            // … followed by `]` and (possibly after more attributes) `mod`.
            if saw_test && tok_is(toks, j, "]") {
                let mut k = j + 1;
                while tok_is(toks, k, "#") {
                    k = skip_attr(toks, k);
                }
                if tok_is(toks, k, "mod") {
                    if let Some((_open, close)) = brace_span(toks, k) {
                        spans.push((i, close));
                        i = close + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    spans
}

/// A flagged idiom occurrence.
pub(crate) struct Site {
    pub(crate) tok_idx: usize,
    pub(crate) line: u32,
    pub(crate) idiom: Idiom,
}

/// Locate every occurrence of `idioms` in the token stream.
pub(crate) fn find_idiom_sites(toks: &[Tok], idioms: &[Idiom]) -> Vec<Site> {
    let mut sites = Vec::new();
    let prev = |i: usize, n: usize| i.checked_sub(n).map(|j| toks[j].text.as_str());
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // `fn copy_from_slice(...)` is a definition, not a call site.
        if prev(i, 1) == Some("fn") {
            continue;
        }
        let next_is_call = tok_is(toks, i + 1, "(");
        let next_is_bang = tok_is(toks, i + 1, "!");
        let method_recv = prev(i, 1) == Some(".");
        let path_call = prev(i, 1) == Some(":") && prev(i, 2) == Some(":");
        let idiom = match t.text.as_str() {
            "to_vec" if method_recv && next_is_call => Some(Idiom::ToVec),
            "to_owned" if method_recv && next_is_call => Some(Idiom::ToOwned),
            "clone" if next_is_call && (method_recv || path_call) => {
                // `Arc::clone(&x)` / `Rc::clone(&x)` are refcount bumps by
                // construction — the idiomatic *non*-copying spelling.
                let cheap_path = path_call && matches!(prev(i, 3), Some("Arc") | Some("Rc"));
                if cheap_path {
                    None
                } else {
                    Some(Idiom::Clone)
                }
            }
            "copy_from_slice" if next_is_call => Some(Idiom::CopyFromSlice),
            "extend_from_slice" if method_recv && next_is_call => Some(Idiom::ExtendFromSlice),
            "from" if next_is_call && path_call && prev(i, 3) == Some("Vec") => {
                Some(Idiom::VecFrom)
            }
            "copy" | "copy_nonoverlapping"
                if next_is_call && path_call && prev(i, 3) == Some("ptr") =>
            {
                Some(Idiom::PtrCopy)
            }
            "copy_nonoverlapping" if next_is_call && !path_call => Some(Idiom::PtrCopy),
            "format" if next_is_bang => Some(Idiom::Format),
            "to_string" if method_recv && next_is_call => Some(Idiom::ToString),
            _ => None,
        };
        if let Some(idiom) = idiom.filter(|id| idioms.contains(id)) {
            sites.push(Site {
                tok_idx: i,
                line: t.line,
                idiom,
            });
        }
    }
    sites
}

fn copy_path_rule(
    rel: &str,
    toks: &[Tok],
    modules: &[&CopyPathModule],
    waivers: &BTreeMap<u32, Waiver>,
    in_test_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    let mut idioms: Vec<Idiom> = Vec::new();
    for m in modules {
        for &i in &m.idioms {
            if !idioms.contains(&i) {
                idioms.push(i);
            }
        }
    }
    let module_names = modules
        .iter()
        .map(|m| m.name.as_str())
        .collect::<Vec<_>>()
        .join(", ");
    for site in find_idiom_sites(toks, &idioms) {
        if in_test_code(site.tok_idx) {
            continue;
        }
        if waiver_for(waivers, site.line, COPY_KINDS).is_some() {
            continue;
        }
        out.push(Violation {
            file: rel.to_string(),
            line: site.line,
            rule: "copy-path",
            msg: format!(
                "{} in zero-copy module `{}` needs a `// zc-audit: allow(...)` waiver \
                 (copy with a CopyLayer, cheap-clone, or control-plane)",
                site.idiom.describe(),
                module_names
            ),
        });
    }
}

fn unsafe_rule(rel: &str, toks: &[Tok], safety_lines: &[u32], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        // `unsafe_op_in_unsafe_fn` etc. are distinct idents; `t.text` is the
        // whole identifier so no prefix confusion. Skip attribute mentions
        // like `#![deny(unsafe_code)]` — an `unsafe` keyword is followed by
        // `{`, `fn`, `impl` or `trait`.
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        if !matches!(
            next,
            Some("{") | Some("fn") | Some("impl") | Some("trait") | Some("extern")
        ) {
            continue;
        }
        let covered = safety_lines.iter().any(|&l| l <= t.line && t.line - l <= 3);
        if !covered {
            out.push(Violation {
                file: rel.to_string(),
                line: t.line,
                rule: "unsafe-audit",
                msg: format!(
                    "`unsafe {}` without a `// SAFETY:` comment on the same or \
                     preceding lines",
                    next.unwrap_or("")
                ),
            });
        }
    }
}

fn meter_rule(
    file: &FileAnalysis,
    cfg: &Config,
    waivers: &BTreeMap<u32, Waiver>,
    in_test_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    let toks = &file.scanned.toks;
    for site in find_idiom_sites(toks, &[Idiom::CopyFromSlice, Idiom::PtrCopy]) {
        if in_test_code(site.tok_idx) {
            continue;
        }
        // The tightest fn body around the site; none in a macro arm or a
        // const initializer.
        let Some(f) = file
            .items
            .iter()
            .filter(|f| f.contains(site.tok_idx))
            .min_by_key(|f| f.body.1 - f.body.0)
        else {
            continue;
        };
        let metered = toks[f.body.0..=f.body.1]
            .iter()
            .any(|t| t.kind == TokKind::Ident && cfg.meter.markers.iter().any(|m| m == &t.text));
        if metered {
            // The enclosing function meters; consume any waiver present so
            // it does not read as stale.
            waiver_for(waivers, site.line, COPY_KINDS);
            continue;
        }
        if waiver_for(waivers, site.line, COPY_KINDS) == Some(WaiverKind::Copy) {
            continue; // waiver names the layer under which callers meter it
        }
        out.push(Violation {
            file: file.rel.clone(),
            line: site.line,
            rule: "meter-coverage",
            msg: format!(
                "{} in `fn {}` which never touches the copy meter \
                 ({}); meter it or add an allow(copy) waiver naming the layer",
                site.idiom.describe(),
                f.name,
                cfg.meter.markers.join("/"),
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn audit_one(rel: &str, src: &str, cfg: &Config) -> Vec<Violation> {
        crate::audit(&[FileAnalysis::new(rel.to_string(), src)], cfg).violations
    }

    fn test_cfg() -> Config {
        Config::parse(
            r#"
[audit]
copy_layers = ["Marshal", "Demarshal", "SocketSend"]

[[copy_path.module]]
name = "demo"
paths = ["src/demo.rs"]
idioms = ["to_vec", "clone", "copy_from_slice", "extend_from_slice", "format"]

[unsafe_audit]
paths = ["src/unsafe_demo.rs"]
deny_unsafe_op_roots = ["src/unsafe_demo.rs"]

[meter_coverage]
paths = ["src/meter_demo.rs"]
markers = ["meter", "CopyMeter", "record"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn waiver_kind_table_is_in_declaration_order() {
        for (i, (kind, name, _)) in KINDS.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{name}");
            assert_eq!(WaiverKind::parse(name), Some(*kind));
        }
    }

    #[test]
    fn flags_unwaivered_copy() {
        let v = audit_one(
            "src/demo.rs",
            "fn f(a: &[u8]) -> Vec<u8> { a.to_vec() }",
            &test_cfg(),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "copy-path");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn waiver_with_layer_passes() {
        let src = "fn f(a: &[u8], b: &mut [u8]) {\n\
                   // zc-audit: allow(copy) — staged into send ring, metered as SocketSend\n\
                   b.copy_from_slice(a);\n}\n";
        let v = audit_one("src/demo.rs", src, &test_cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn copy_waiver_without_layer_rejected() {
        let src = "fn f(a: &[u8], b: &mut [u8]) {\n\
                   // zc-audit: allow(copy) — we really need this\n\
                   b.copy_from_slice(a);\n}\n";
        let v = audit_one("src/demo.rs", src, &test_cfg());
        assert_eq!(v.len(), 2, "{v:?}"); // malformed waiver + unwaivered site
        assert!(v[0].msg.contains("CopyLayer"));
    }

    #[test]
    fn cheap_clone_waiver_and_arc_clone() {
        let src = "fn f(h: &Handle, a: &Arc<u8>) {\n\
                   let _x = Arc::clone(a);\n\
                   // zc-audit: allow(cheap-clone) — Handle is a refcounted view\n\
                   let _y = h.clone();\n}\n";
        let v = audit_one("src/demo.rs", src, &test_cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_mod_and_test_tree_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(a: &[u8]) { let _ = a.to_vec(); }\n}\n";
        assert!(audit_one("src/demo.rs", src, &test_cfg()).is_empty());
        let v = audit_one(
            "src/tests/demo.rs",
            "fn g(a: &[u8]) { a.to_vec(); }",
            &test_cfg(),
        );
        assert!(v.is_empty());
    }

    #[test]
    fn stale_waiver_flagged() {
        let src = "// zc-audit: allow(cheap-clone) — nothing here\nfn f() {}\n";
        let v = audit_one("src/demo.rs", src, &test_cfg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("stale waiver"));
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n\
                   fn f(p: *mut u8) { unsafe { p.write(0) } }\n";
        let v = audit_one("src/unsafe_demo.rs", src, &test_cfg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unsafe-audit");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_passes() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n\
                   fn f(p: *mut u8) {\n\
                   // SAFETY: p is valid for writes by contract.\n\
                   unsafe { p.write(0) }\n}\n";
        let v = audit_one("src/unsafe_demo.rs", src, &test_cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_deny_attr_flagged() {
        let v = audit_one("src/unsafe_demo.rs", "fn f() {}\n", &test_cfg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("unsafe_op_in_unsafe_fn"));
    }

    #[test]
    fn meter_coverage_flags_unmetered_fn() {
        let src = "fn fill(dst: &mut [u8], src: &[u8]) { dst.copy_from_slice(src); }\n\
                   fn metered(dst: &mut [u8], src: &[u8], meter: &M) {\n\
                       meter.record(src.len());\n\
                       dst.copy_from_slice(src);\n\
                   }\n";
        let v = audit_one("src/meter_demo.rs", src, &test_cfg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "meter-coverage");
        assert_eq!(v[0].line, 1);
        assert!(v[0].msg.contains("fn fill"));
    }

    #[test]
    fn meter_coverage_respects_copy_waiver() {
        let src = "fn raw(dst: &mut [u8], src: &[u8]) {\n\
                   // zc-audit: allow(copy) — callers meter this as Demarshal\n\
                   dst.copy_from_slice(src);\n}\n";
        let v = audit_one("src/meter_demo.rs", src, &test_cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn format_and_vec_from_detected() {
        let cfg = Config::parse(
            r#"
[audit]
copy_layers = ["Marshal"]
[[copy_path.module]]
name = "demo"
paths = ["src/demo.rs"]
idioms = ["format", "vec_from", "ptr_copy"]
"#,
        )
        .unwrap();
        let src = "fn f(a: &[u8]) {\n\
                   let _s = format!(\"{}\", a.len());\n\
                   let _v = Vec::from(a);\n\
                   unsafe { ptr::copy_nonoverlapping(a.as_ptr(), a.as_ptr() as *mut u8, 0) };\n}\n";
        let v = audit_one("src/demo.rs", src, &cfg);
        assert_eq!(v.len(), 3, "{v:?}");
    }
}
