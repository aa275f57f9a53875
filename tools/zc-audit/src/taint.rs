//! wire-taint — inter-procedural panic/OOM safety for wire-controlled
//! values.
//!
//! A zero-copy decode path hands network bytes — lengths, offsets, counts —
//! straight into buffer management. One unchecked `with_capacity(wire_len)`
//! or slice index turns a hostile peer into a denial of service. The
//! corruption proptests probe this dynamically; this pass proves it
//! statically over the same call graph the other inter-procedural passes
//! use:
//!
//! 1. **Seeds**: every non-test function in a configured taint path whose
//!    name is a configured entrypoint (`decode`, `read_frame`, …). All of
//!    its parameters are wire-tainted — including `self`, so values read
//!    *through* a decoder (`dec.read_u32()?`) come back tainted.
//! 2. **Flow**: within a body, one forward scan tracks the tainted set.
//!    `let`/`for` bindings whose initializer mentions a tainted identifier
//!    become tainted; a rebind through a sanitizer — any `checked_*` /
//!    `saturating_*` call or a configured clamp identifier — *clears*
//!    taint, which is what makes `let len = checked_len(n)?;` the idiom
//!    this pass teaches. `x += tainted` taints `x`; calls on a tainted
//!    receiver taint their `&mut ident` arguments (how `read_exact` fills
//!    a header from the socket).
//! 3. **Edges**: a call whose receiver chain or argument list mentions a
//!    tainted identifier propagates all-params taint to every same-named
//!    workspace function. Std-prelude names are opaque (see
//!    [`crate::locks::OPAQUE_CALLEES`]) *except* when called as
//!    `self.method(..)`, which resolves within the same file and `impl`
//!    type — `self.take(n)` inside the CDR decoder must not vanish behind
//!    `Iterator::take`.
//! 4. **Sinks** (audited only in taint paths, test code exempt):
//!    - `taint-panic`: `.unwrap()` / `.expect(..)` / `panic!(..)` whose
//!      statement mentions a tainted value, and indexing/slicing whose
//!      *index expression* contains one (`buf[off..off + n]`).
//!    - `taint-arith`: binary `+` / `*` / `<<` (and `+=`) with a tainted
//!      operand — debug-panic or release-wraparound on wire data.
//!    - `taint-alloc`: configured allocator callees (`with_capacity`,
//!      `reserve`, `acquire`, …) or `vec![x; n]` with a tainted size and
//!      no clamp in the argument.
//!    - `taint-unsafe`: an `unsafe { … }` block touching a tainted value
//!      without a `SAFETY:` comment (≤ 3 lines above) citing a clamp.
//!
//! Each class has a same-named waiver kind whose reason must cite a
//! configured clamp; stale waivers are swept like every other kind.
//!
//! Known approximations (documented in docs/zero-copy-invariants.md):
//! guards (`if len > MAX { return Err }`) do not clear taint — only a
//! sanitizing *rebind* does; `match` binders and struct-field flows are
//! untracked; indexing with a tainted *receiver* but constant index is
//! deliberately not flagged (length-guarded constant indexing is idiomatic
//! in header parsing).

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::config::{path_matches_any, Config};
use crate::graph::{reach, FnRef, NameIndex};
use crate::lexer::{Tok, TokKind};
use crate::locks::OPAQUE_CALLEES;
use crate::parser::KEYWORDS;
use crate::rules::{waiver_for, Violation, Waiver, WaiverKind};
use crate::FileAnalysis;

/// One flagged sink inside an analyzed function.
struct Sink {
    line: u32,
    kind: WaiverKind,
    what: String,
}

/// One outgoing tainted call edge.
struct TaintedCall {
    callee: String,
    /// The receiver chain starts at `self` (`self.take(n)`), which lets an
    /// otherwise-opaque name resolve within the same impl.
    via_self: bool,
}

pub(crate) fn run(
    index: &NameIndex,
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) {
    let tc = &cfg.taint;
    if tc.paths.is_empty() {
        return;
    }
    let files = index.files;

    // Seeds: configured entrypoints inside the taint paths.
    let mut seeds: Vec<FnRef> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !path_matches_any(&file.rel, &tc.paths) || file.in_test_tree {
            continue;
        }
        for (ii, item) in file.items.iter().enumerate() {
            if !item.is_test && tc.entrypoints.iter().any(|e| e == &item.name) {
                seeds.push((fi, ii));
            }
        }
    }

    // Reach along tainted call edges, analyzing each function once with all
    // parameters tainted (the over-approximate seed for reached callees).
    let mut sinks: HashMap<FnRef, Vec<Sink>> = HashMap::new();
    let visits = reach(seeds, |(fi, ii)| {
        let item = index.item((fi, ii));
        let (found, calls) = analyze_fn(&files[fi], ii, tc);
        sinks.insert((fi, ii), found);
        let mut targets = Vec::new();
        for c in &calls {
            let opaque = OPAQUE_CALLEES.contains(&c.callee.as_str());
            if opaque && !c.via_self {
                continue;
            }
            targets.extend(index.named(&c.callee).iter().filter(|&&(gf, gi)| {
                let gt = index.item((gf, gi));
                // An opaque name only resolves as a same-impl method.
                !gt.is_test
                    && !files[gf].in_test_tree
                    && (!opaque || (gf == fi && gt.qual == item.qual))
            }));
        }
        targets
    });

    for v in &visits {
        let file = &files[v.at.0];
        let item = index.item(v.at);
        if !path_matches_any(&file.rel, &tc.paths) || file.in_test_tree || item.is_test {
            continue;
        }
        for s in &sinks[&v.at] {
            if waiver_for(&waivers[v.at.0], s.line, &[s.kind]).is_some() {
                continue;
            }
            // Each sink class reports under its waiver kind's name.
            let rule = s.kind.name();
            let remedy = match s.kind {
                WaiverKind::TaintPanic => "return an error instead, or rebind through a clamp",
                WaiverKind::TaintArith => "use checked_/saturating_ arithmetic",
                WaiverKind::TaintAlloc => {
                    "clamp the size (bounded_capacity / a configured clamp) first"
                }
                _ => "cite the clamp in the SAFETY: comment",
            };
            out.push(Violation {
                file: file.rel.clone(),
                line: s.line,
                rule,
                msg: format!(
                    "{} on a wire-tainted value in `fn {}`, reachable from \
                     untrusted entrypoint `fn {}` ({} call{} away); {} or waive \
                     with allow({}) citing a clamp",
                    s.what,
                    item.name,
                    index.item(v.seed).name,
                    v.dist,
                    if v.dist == 1 { "" } else { "s" },
                    remedy,
                    rule,
                ),
            });
        }
    }
}

/// The `let`/`for` binding starting at `i`: the identifiers its pattern
/// binds, the index of its `=`/`in`, and the token that ends its
/// initializer (`;`/`{`). `None` when `i` starts no binding or no `=`/`in`
/// follows the pattern.
fn binding(toks: &[Tok], i: usize, close: usize) -> Option<(Vec<String>, usize, &'static str)> {
    let (binder_stop, rhs_stop) = match toks[i].text.as_str() {
        "let" => ("=", ";"),
        "for" => ("in", "{"),
        _ => return None,
    };
    let mut j = i + 1;
    let mut binders = Vec::new();
    while j < close && toks[j].text != binder_stop && toks[j].text != ";" {
        if toks[j].kind == TokKind::Ident
            && !matches!(
                toks[j].text.as_str(),
                "mut" | "ref" | "_" | "Some" | "Ok" | "Err"
            )
        {
            binders.push(toks[j].text.clone());
        }
        j += 1;
    }
    (j < close && toks[j].text == binder_stop).then_some((binders, j, rhs_stop))
}

/// Analyze one function body with every parameter tainted: a single forward
/// token scan maintaining the tainted-identifier set, collecting sinks and
/// outgoing tainted calls.
fn analyze_fn(
    file: &FileAnalysis,
    ii: usize,
    tc: &crate::config::TaintConfig,
) -> (Vec<Sink>, Vec<TaintedCall>) {
    let item = &file.items[ii];
    let toks = &file.scanned.toks;
    let (open, close) = item.body;
    let mut taint: HashSet<String> = item.params.iter().cloned().collect();
    let mut sinks = Vec::new();
    let mut calls = Vec::new();

    let in_child = |idx: usize| {
        file.items
            .iter()
            .enumerate()
            .any(|(oi, o)| oi != ii && o.body.0 > open && o.body.1 < close && o.contains(idx))
    };
    let is_clamp = |text: &str| {
        text.starts_with("checked_")
            || text.starts_with("saturating_")
            || tc.clamps.iter().any(|c| c == text)
    };
    let tainted_at = |taint: &HashSet<String>, i: usize| {
        toks[i].kind == TokKind::Ident && taint.contains(&toks[i].text)
    };
    // Walk a method receiver chain (`a.b.c`) leftwards from the identifier
    // at `i`; true when any link is tainted.
    let chain_tainted = |taint: &HashSet<String>, mut i: usize| -> bool {
        loop {
            if tainted_at(taint, i) {
                return true;
            }
            if i >= 2 && toks[i - 1].text == "." && toks[i - 2].kind == TokKind::Ident {
                i -= 2;
            } else {
                return false;
            }
        }
    };

    let mut i = open + 1;
    while i < close {
        if in_child(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];

        // --- taint propagation -------------------------------------------
        if let Some((binders, eq, rhs_stop)) = binding(toks, i, close) {
            // Scan the initializer for taint and sanitizers. A `{` at depth
            // 0 also ends it (`if let … = x { … }`).
            let mut k = eq + 1;
            let mut depth = 0i32;
            let mut rhs_tainted = false;
            let mut rhs_clamped = false;
            while k < close {
                match toks[k].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    s if s == rhs_stop && depth == 0 => break,
                    s if toks[k].kind == TokKind::Ident => {
                        rhs_tainted |= taint.contains(s);
                        rhs_clamped |= is_clamp(s);
                    }
                    _ => {}
                }
                k += 1;
            }
            if rhs_tainted && !rhs_clamped {
                taint.extend(binders);
            } else {
                // A rebind through a sanitizer (or from clean data) clears
                // any earlier taint on these names.
                for b in &binders {
                    taint.remove(b);
                }
            }
        }

        // A call whose receiver chain or arguments are tainted writes taint
        // into its `&mut ident` arguments: `self.stream.read_exact(&mut
        // header)` is how socket bytes land in a local buffer.
        if t.kind == TokKind::Ident
            && !KEYWORDS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !(i > 0 && toks[i - 1].text == "fn")
        {
            let recv_hit = i >= 2 && toks[i - 1].text == "." && chain_tainted(&taint, i - 2);
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut arg_hit = false;
            let mut mut_args = Vec::new();
            while j < close {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "&" if toks.get(j + 1).is_some_and(|n| n.text == "mut")
                        && toks.get(j + 2).is_some_and(|n| n.kind == TokKind::Ident) =>
                    {
                        mut_args.push(toks[j + 2].text.clone());
                    }
                    _ => {
                        if tainted_at(&taint, j) {
                            arg_hit = true;
                        }
                    }
                }
                j += 1;
            }
            if recv_hit || arg_hit {
                taint.extend(mut_args);
            }
        }

        // --- sinks and call edges ----------------------------------------
        match (t.kind, t.text.as_str()) {
            // `x[tainted]` / `x[a..a + n]`: indexing whose index expression
            // mentions a tainted identifier.
            (TokKind::Punct, "[") => {
                let indexable_recv = i > 0
                    && (toks[i - 1].kind == TokKind::Ident
                        && !KEYWORDS.contains(&toks[i - 1].text.as_str())
                        || toks[i - 1].text == ")"
                        || toks[i - 1].text == "]");
                if indexable_recv {
                    let (idents, _) = bracket_idents(toks, i, close);
                    let hit = idents.iter().any(|s| taint.contains(s));
                    let clamped = idents.iter().any(|s| is_clamp(s));
                    if hit && !clamped {
                        sinks.push(Sink {
                            line: t.line,
                            kind: WaiverKind::TaintPanic,
                            what: "indexing/slicing".into(),
                        });
                    }
                }
            }
            // Binary `+` / `*`, compound `+=`, shift `<<`.
            (TokKind::Punct, "+") | (TokKind::Punct, "*") => {
                let compound = toks.get(i + 1).is_some_and(|n| n.text == "=");
                if compound && t.text == "+" {
                    // `x += …tainted…;` — flag, and `x` itself turns tainted.
                    let mut k = i + 2;
                    let mut depth = 0i32;
                    let mut rhs_tainted = false;
                    while k < close {
                        match toks[k].text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            ";" if depth == 0 => break,
                            _ => {
                                if tainted_at(&taint, k) {
                                    rhs_tainted = true;
                                }
                            }
                        }
                        k += 1;
                    }
                    if rhs_tainted {
                        sinks.push(Sink {
                            line: t.line,
                            kind: WaiverKind::TaintArith,
                            what: "unchecked `+=`".into(),
                        });
                        if i > 0 && toks[i - 1].kind == TokKind::Ident {
                            taint.insert(toks[i - 1].text.clone());
                        }
                    }
                } else if !compound {
                    if let Some(s) = binary_arith_sink(toks, i, close, &taint, &chain_tainted) {
                        sinks.push(s);
                    }
                }
            }
            (TokKind::Punct, "<") if toks.get(i + 1).is_some_and(|n| n.text == "<") => {
                let binary = i > 0
                    && (matches!(toks[i - 1].kind, TokKind::Ident | TokKind::Number)
                        || toks[i - 1].text == ")"
                        || toks[i - 1].text == "]");
                if binary {
                    let left = i > 0 && chain_tainted(&taint, i - 1);
                    let right = toks
                        .get(i + 2)
                        .is_some_and(|n| n.kind == TokKind::Ident && taint.contains(&n.text));
                    if left || right {
                        sinks.push(Sink {
                            line: t.line,
                            kind: WaiverKind::TaintArith,
                            what: "unchecked `<<`".into(),
                        });
                    }
                }
            }
            // `vec![fill; n]` with a tainted repeat count.
            (TokKind::Ident, "vec")
                if toks.get(i + 1).is_some_and(|n| n.text == "!")
                    && toks.get(i + 2).is_some_and(|n| n.text == "[") =>
            {
                let (idents, semi_split) = bracket_idents(toks, i + 2, close);
                // `vec![a, b]` without a `;` is a list literal of fixed
                // arity, not a length-driven allocation — only the repeat
                // count of `vec![fill; n]` is a sizing sink.
                if let Some(s) = semi_split {
                    let len_part = &idents[s..];
                    let hit = len_part.iter().any(|s| taint.contains(s));
                    let clamped = len_part.iter().any(|s| is_clamp(s));
                    if hit && !clamped {
                        sinks.push(Sink {
                            line: t.line,
                            kind: WaiverKind::TaintAlloc,
                            what: "`vec![…; n]` sized".into(),
                        });
                    }
                }
            }
            // `unsafe { … }` touching tainted values.
            (TokKind::Ident, "unsafe") if toks.get(i + 1).is_some_and(|n| n.text == "{") => {
                let mut depth = 0i32;
                let mut k = i + 1;
                let mut touches = false;
                while k < close {
                    match toks[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            if tainted_at(&taint, k) {
                                touches = true;
                            }
                        }
                    }
                    k += 1;
                }
                if touches {
                    let cited = file.scanned.comments.iter().any(|c| {
                        c.text.contains("SAFETY:")
                            && c.line <= t.line
                            && t.line - c.line <= 3
                            && (tc.clamps.iter().any(|cl| c.text.contains(cl.as_str()))
                                || c.text.contains("checked_")
                                || c.text.contains("saturating_"))
                    });
                    if !cited {
                        sinks.push(Sink {
                            line: t.line,
                            kind: WaiverKind::TaintUnsafe,
                            what: "`unsafe` block".into(),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Call-expression sinks and edges come from the parsed call sites; the
    // flow-sensitive set above is position-dependent, so recompute taint
    // state lazily by replaying? No — the scan above already fixed the set
    // as of each statement; calls are re-walked here against the *final*
    // set, which over-approximates only for values sanitized later in the
    // body (rebinds remove names, so a cleared `len` stays cleared).
    for call in &item.calls {
        if in_child(call.tok_idx) {
            continue;
        }

        // Panicking extractors: the whole statement left of the call is the
        // receiver expression (`data.first().copied().unwrap()` has no
        // single receiver identifier), so scan back to the statement start.
        if matches!(call.callee.as_str(), "unwrap" | "expect")
            && statement_tainted(toks, call.tok_idx, open, &taint)
        {
            sinks.push(Sink {
                line: call.line,
                kind: WaiverKind::TaintPanic,
                what: format!("`.{}()`", call.callee),
            });
        }

        let arg_hit = call.args.iter().any(|a| taint.contains(a));
        let recv_hit = call.recv.is_some() && chain_tainted(&taint, call.tok_idx - 2);
        if !arg_hit && !recv_hit {
            continue;
        }

        // Allocator sinks: tainted size with no clamp among the arguments.
        if tc.allocs.iter().any(|a| a == &call.callee)
            && arg_hit
            && !call.args.iter().any(|a| is_clamp(a))
        {
            sinks.push(Sink {
                line: call.line,
                kind: WaiverKind::TaintAlloc,
                what: format!("`{}(..)` sized", call.callee),
            });
        }

        calls.push(TaintedCall {
            callee: call.callee.clone(),
            via_self: receiver_root(toks, call.tok_idx) == Some("self"),
        });
    }

    // `panic!(…tainted…)`.
    let mut k = open + 1;
    while k < close {
        if toks[k].kind == TokKind::Ident
            && toks[k].text == "panic"
            && toks.get(k + 1).is_some_and(|n| n.text == "!")
            && !in_child(k)
        {
            let (idents, _) = bracket_idents(toks, k + 2, close);
            if idents.iter().any(|s| taint.contains(s)) {
                sinks.push(Sink {
                    line: toks[k].line,
                    kind: WaiverKind::TaintPanic,
                    what: "`panic!`".into(),
                });
            }
        }
        k += 1;
    }

    sinks.sort_by_key(|s| s.line);
    (sinks, calls)
}

/// Binary `+`/`*` sink check at punct index `i`. Skips raw-pointer types
/// (`as *mut T`), unary deref, and reference-ish positions by requiring an
/// operand-shaped token on the left.
fn binary_arith_sink(
    toks: &[Tok],
    i: usize,
    close: usize,
    taint: &HashSet<String>,
    chain_tainted: &dyn Fn(&HashSet<String>, usize) -> bool,
) -> Option<Sink> {
    let t = &toks[i];
    if i == 0 {
        return None;
    }
    let prev = &toks[i - 1];
    let operand_left = matches!(prev.kind, TokKind::Ident | TokKind::Number)
        && !KEYWORDS.contains(&prev.text.as_str())
        || prev.text == ")"
        || prev.text == "]";
    if !operand_left || prev.text == "as" {
        return None;
    }
    if t.text == "*"
        && toks
            .get(i + 1)
            .is_some_and(|n| matches!(n.text.as_str(), "mut" | "const"))
    {
        return None; // raw pointer type, not multiplication
    }
    let left = prev.kind == TokKind::Ident && chain_tainted(taint, i - 1);
    let mut right = false;
    if i + 1 < close {
        let n = &toks[i + 1];
        if n.kind == TokKind::Ident && taint.contains(&n.text) {
            right = true;
        }
    }
    (left || right).then(|| Sink {
        line: t.line,
        kind: WaiverKind::TaintArith,
        what: format!("unchecked `{}`", t.text),
    })
}

/// Identifier texts inside the bracket group opening at `open` (`[`), plus
/// the ident-count position of the first depth-0 `;` (for `vec![x; n]`).
fn bracket_idents(toks: &[Tok], open: usize, close: usize) -> (Vec<String>, Option<usize>) {
    let mut depth = 0i32;
    let mut idents = Vec::new();
    let mut semi = None;
    let mut j = open;
    while j < close {
        match toks[j].text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ";" if depth == 1 => semi = Some(idents.len()),
            _ => {
                if toks[j].kind == TokKind::Ident {
                    idents.push(toks[j].text.clone());
                }
            }
        }
        j += 1;
    }
    (idents, semi)
}

/// Does the statement containing the token at `at` mention a tainted
/// identifier to its left? Scans back to the nearest statement boundary
/// (`;`, `{`, `}`), clipped to the body open brace.
fn statement_tainted(toks: &[Tok], at: usize, body_open: usize, taint: &HashSet<String>) -> bool {
    let mut i = at;
    while i > body_open + 1 {
        i -= 1;
        match toks[i].text.as_str() {
            ";" | "{" | "}" => return false,
            _ => {
                if toks[i].kind == TokKind::Ident && taint.contains(&toks[i].text) {
                    return true;
                }
            }
        }
    }
    false
}

/// The first identifier of the receiver chain of the call at `tok_idx`
/// (`self.inner.take(..)` → `self`), if it is a method call.
fn receiver_root(toks: &[Tok], tok_idx: usize) -> Option<&str> {
    let mut i = tok_idx;
    while i >= 2 && toks[i - 1].text == "." && toks[i - 2].kind == TokKind::Ident {
        i -= 2;
    }
    (i != tok_idx).then(|| toks[i].text.as_str())
}
