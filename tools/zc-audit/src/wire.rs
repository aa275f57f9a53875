//! wire-consts — single source of truth for protocol literals.
//!
//! A configured hex prefix (e.g. `0x5A43`, the ASCII "ZC" tag) may be
//! spelled as a literal only in its defining module. Any other non-test hex
//! literal starting with those digits must import the constant instead, or
//! carry an `allow(wire-const)` waiver (for coincidences like RNG seeds).
//! String/byte literals are opaque to the lexer, so byte-string magics
//! (`b"GIOP"`) are pinned by cross-asserting unit tests instead.
//!
//! Wire enums need no check here: each is declared once through
//! `zc_buffers::byte_enum!`, which derives its decoder from the same rows
//! as its discriminants, so the two cannot drift.

use std::collections::BTreeMap;

use crate::config::{path_matches_any, Config};
use crate::lexer::TokKind;
use crate::rules::{waiver_for, Violation, Waiver, WaiverKind};
use crate::FileAnalysis;

pub(crate) fn run(
    files: &[FileAnalysis],
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) {
    for fam in &cfg.wire_families {
        let Some(want) = hex_digits(&fam.prefix) else {
            continue;
        };
        for (fi, file) in files.iter().enumerate() {
            if path_matches_any(&file.rel, &fam.defined_in) || file.in_test_tree {
                continue;
            }
            for (i, t) in file.scanned.toks.iter().enumerate() {
                if t.kind != TokKind::Number {
                    continue;
                }
                let Some(digits) = hex_digits(&t.text) else {
                    continue;
                };
                if !digits.starts_with(&want) {
                    continue;
                }
                if file.test_spans.iter().any(|&(a, b)| i >= a && i <= b) {
                    continue;
                }
                if waiver_for(&waivers[fi], t.line, &[WaiverKind::WireConst]).is_some() {
                    continue;
                }
                out.push(Violation {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: "wire-consts",
                    msg: format!(
                        "literal `{}` duplicates wire-constant family `{}` (defined in \
                         {}); import the constant, or waive a coincidence with \
                         allow(wire-const)",
                        t.text,
                        fam.name,
                        fam.defined_in.join(", ")
                    ),
                });
            }
        }
    }
}

/// Hex digit string (lowercase, `_` stripped) of a `0x…` literal; `None`
/// for anything else (decimal, float, non-number).
fn hex_digits(text: &str) -> Option<String> {
    let stripped: String = text.chars().filter(|&c| c != '_').collect();
    let rest = stripped
        .strip_prefix("0x")
        .or_else(|| stripped.strip_prefix("0X"))?;
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect::<String>()
        .to_ascii_lowercase();
    (!digits.is_empty()).then_some(digits)
}
