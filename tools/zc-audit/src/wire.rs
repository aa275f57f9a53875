//! wire-consts — single source of truth for protocol literals.
//!
//! Two checks:
//!
//! 1. **Families**: a configured hex prefix (e.g. `0x5A43`, the ASCII "ZC"
//!    tag) may be spelled as a literal only in its defining module. Any
//!    other non-test hex literal starting with those digits must import
//!    the constant instead, or carry an `allow(wire-const)` waiver (for
//!    coincidences like RNG seeds). String/byte literals are opaque to the
//!    lexer, so byte-string magics (`b"GIOP"`) are covered by the enum
//!    check and cross-asserting unit tests, not by families.
//! 2. **Enums**: a wire enum's explicit discriminants (the encode side —
//!    values are emitted by `as u8`/`as u32` casts) must be in bijection
//!    with its decoder's match-arm patterns (the decode side). A variant
//!    without a decode arm, or an arm decoding a value no variant encodes,
//!    is drift. Values are compared numerically when both sides are
//!    literals, and by final path segment when either side names a
//!    constant — so `ZcOctetSeq = ZC_TAG` must be decoded by a `ZC_TAG`
//!    arm, not a re-spelled literal.

use std::collections::BTreeMap;

use crate::config::{path_matches_any, Config};
use crate::lexer::{brace_span, skip_attr, skip_group, Tok, TokKind};
use crate::rules::{waiver_for, Violation, Waiver, WaiverKind};
use crate::FileAnalysis;

/// A discriminant / match-arm value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Val {
    Num(u128),
    Sym(String),
}

impl std::fmt::Display for Val {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Val::Num(n) => write!(f, "{n}"),
            Val::Sym(s) => write!(f, "`{s}`"),
        }
    }
}

pub(crate) fn run(
    files: &[FileAnalysis],
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) {
    for fam in &cfg.wire.families {
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

    let mut flag = |file: &str, line: u32, msg: String| {
        out.push(Violation {
            file: file.to_string(),
            line,
            rule: "wire-consts",
            msg,
        })
    };
    for en in &cfg.wire.enums {
        let Some(file) = files.iter().find(|f| f.rel == en.file) else {
            let msg = format!(
                "configured wire enum `{}`: file `{}` not found in workspace",
                en.name, en.file
            );
            flag(&en.file, 1, msg);
            continue;
        };
        let toks = &file.scanned.toks;
        let Some(variants) = enum_variants(toks, &en.name) else {
            let msg = format!(
                "configured wire enum `{}` not found in `{}`",
                en.name, en.file
            );
            flag(&file.rel, 1, msg);
            continue;
        };
        // Prefer the decoder in the enum's own impl block: several types in
        // one file may share a decoder name (`from_octet`).
        let decoder = file
            .items
            .iter()
            .find(|f| f.name == en.decoder && f.qual.as_deref() == Some(en.name.as_str()))
            .or_else(|| file.items.iter().find(|f| f.name == en.decoder));
        let Some(decoder) = decoder else {
            let msg = format!(
                "configured decoder `fn {}` for wire enum `{}` not found in `{}`",
                en.decoder, en.name, en.file
            );
            flag(&file.rel, 1, msg);
            continue;
        };
        let arms = decoder_arm_values(toks, decoder.body);

        for (name, val, line) in &variants {
            let Some(val) = val else { continue };
            if !arms.iter().any(|(v, _)| v == val) {
                let msg = format!(
                    "wire enum `{}` variant `{name}` (= {val}) has no matching \
                     decode arm in `fn {}`",
                    en.name, en.decoder
                );
                flag(&file.rel, *line, msg);
            }
        }
        for (val, line) in &arms {
            if !variants.iter().any(|(_, v, _)| v.as_ref() == Some(val)) {
                let msg = format!(
                    "`fn {}` decodes {val}, which no `{}` variant encodes",
                    en.decoder, en.name
                );
                flag(&file.rel, *line, msg);
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

/// Numeric value of a literal token, if parseable.
fn num_value(text: &str) -> Option<u128> {
    let stripped: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = hex_digits(text) {
        return u128::from_str_radix(&hex, 16).ok();
    }
    let digits: String = stripped.chars().take_while(char::is_ascii_digit).collect();
    // Reject floats (`1.5`) — the dot follows the leading digits.
    if stripped[digits.len()..].starts_with('.') {
        return None;
    }
    digits.parse().ok()
}

/// Explicit (or sequentially inferred) discriminants of `enum <name>`:
/// `(variant, value, line)` triples. `None` values are unknowable (implicit
/// after a symbolic discriminant) and skipped by the bijection check.
fn enum_variants(toks: &[Tok], name: &str) -> Option<Vec<(String, Option<Val>, u32)>> {
    let mut at = None;
    for i in 0..toks.len() {
        if toks[i].text == "enum" && toks.get(i + 1).is_some_and(|t| t.text == name) {
            at = Some(i);
            break;
        }
    }
    let start = at?;
    let (open, close) = brace_span(toks, start)?;

    let mut variants = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Skip attributes and doc comments are not tokens; attributes are.
        if toks[i].text == "#" {
            i = skip_attr(toks, i);
            continue;
        }
        if toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let vname = toks[i].text.clone();
        let vline = toks[i].line;
        let mut j = i + 1;
        // Tuple/struct variant payloads (not expected on wire enums, but
        // don't mis-parse them).
        if j < close && matches!(toks[j].text.as_str(), "(" | "{") {
            j = skip_group(toks, j);
        }
        let val = if j < close && toks[j].text == "=" {
            let mut k = j + 1;
            let mut val_toks = Vec::new();
            while k < close && toks[k].text != "," {
                val_toks.push(&toks[k]);
                k += 1;
            }
            j = k;
            classify(&val_toks)
        } else {
            // Implicit: previous + 1 when the previous value is numeric.
            match variants.last() {
                Some((_, Some(Val::Num(n)), _)) => Some(Val::Num(n + 1)),
                Some(_) => None,
                None => Some(Val::Num(0)),
            }
        };
        variants.push((vname, val, vline));
        // Advance past the `,`.
        while j < close && toks[j].text != "," {
            j += 1;
        }
        i = j + 1;
    }
    Some(variants)
}

/// Values decoded by the match arms inside `body`: `(value, line)` pairs.
/// Binding patterns (`other`, `_`), guards, and structural patterns are
/// skipped — only literal and constant-path arms participate.
fn decoder_arm_values(toks: &[Tok], body: (usize, usize)) -> Vec<(Val, u32)> {
    let (open, close) = body;
    let mut vals = Vec::new();
    for i in open + 1..close {
        if toks[i].text != "=" || toks.get(i + 1).map(|t| t.text.as_str()) != Some(">") {
            continue;
        }
        // Walk the pattern back to the previous arm/block boundary.
        let mut start = i;
        while start > open + 1 && !matches!(toks[start - 1].text.as_str(), "," | "{" | "}" | ";") {
            start -= 1;
        }
        let pat: Vec<&Tok> = toks[start..i].iter().collect();
        // `x if cond =>` guards: classify only the tokens before the `if`.
        let pat = match pat.iter().position(|t| t.text == "if") {
            Some(p) => pat[..p].to_vec(),
            None => pat,
        };
        // Alternation: `5 | 6 =>` contributes each alternative.
        for piece in pat.split(|t| t.text == "|") {
            if let Some(v) = classify(piece) {
                let line = piece.first().map(|t| t.line).unwrap_or(toks[i].line);
                vals.push((v, line));
            }
        }
    }
    vals
}

/// Classify a discriminant expression / arm pattern as a comparable value.
fn classify(toks: &[&Tok]) -> Option<Val> {
    let meaningful: Vec<&&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.text.as_str(), "(" | ")"))
        .collect();
    match meaningful.as_slice() {
        [t] if t.kind == TokKind::Number => num_value(&t.text).map(Val::Num),
        _ => {
            // A path of identifiers/`::` ending in a constant-looking name
            // (contains an uppercase letter). Lone lowercase identifiers
            // are match bindings, `_` is a catch-all: both skipped.
            if !meaningful
                .iter()
                .all(|t| t.kind == TokKind::Ident || t.text == ":")
            {
                return None;
            }
            let last = meaningful.iter().rev().find(|t| t.kind == TokKind::Ident)?;
            last.text
                .chars()
                .any(|c| c.is_ascii_uppercase())
                .then(|| Val::Sym(last.text.clone()))
        }
    }
}
