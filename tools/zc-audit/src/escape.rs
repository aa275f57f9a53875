//! zc-escape — inter-procedural escape analysis for zero-copy values.
//!
//! The per-file copy-path rule only sees the declared data-path modules. A
//! `ZcBytes` handed to a helper in an *unlisted* file can be `.to_vec()`'d
//! there without any rule firing — exactly the silent-copy regression the
//! paper's whole-path argument warns about. This pass closes that hole:
//!
//! 1. **Seeds**: every non-test function in a declared data-path module
//!    whose signature mentions a configured zero-copy type.
//! 2. **Taint**: within each function, the zero-copy-typed parameters plus
//!    locals bound from them (`let view = block…`, `for b in &deposits`)
//!    form the tainted set. Propagation is a single forward pass.
//! 3. **Edges**: a call `f → g` exists when the call's receiver or any
//!    argument identifier is tainted in `f` and some function named like
//!    the callee has a zero-copy-typed signature. Resolution is by bare
//!    name (no type inference), unioned over same-named functions — an
//!    over-approximation that can only add edges.
//! 4. **Report**: any banned idiom applied to a tainted value inside a
//!    function reachable from a seed but *outside* the declared modules is
//!    a violation, waivable exactly like rule 1 (`allow(copy)` citing a
//!    `CopyLayer`, `allow(cheap-clone)`, `allow(control-plane)`).
//!
//! Known false negatives (documented in docs/zero-copy-invariants.md):
//! values smuggled through struct fields or returned-then-copied, and
//! callee resolution across trait objects, are not tracked.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::config::{path_matches_any, Config};
use crate::graph::{reach, FnRef, NameIndex};
use crate::lexer::{Tok, TokKind};
use crate::parser::FnItem;
use crate::rules::{find_idiom_sites, waiver_for, Violation, Waiver, COPY_KINDS};
use crate::taint::binding;

pub(crate) fn run(
    index: &NameIndex,
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) {
    let types = &cfg.escape.types;
    if types.is_empty() {
        return;
    }
    let files = index.files;
    let is_type = |name: &str| types.iter().any(|t| t == name);
    let dp_paths: Vec<String> = cfg
        .modules
        .iter()
        .flat_map(|m| m.paths.iter().cloned())
        .collect();

    let zc_params = |f: &FnItem| -> HashSet<String> {
        f.params
            .iter()
            .filter(|p| {
                p.ty.iter().any(|t| is_type(t))
                    || (p.name == "self" && f.qual.as_deref().is_some_and(is_type))
            })
            .map(|p| p.name.clone())
            .collect()
    };
    let handles_zc =
        |f: &FnItem| -> bool { !zc_params(f).is_empty() || f.ret.iter().any(|t| is_type(t)) };

    // Seeds: zero-copy-signature functions inside declared modules.
    let mut seeds: Vec<FnRef> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !path_matches_any(&file.rel, &dp_paths) || file.in_test_tree {
            continue;
        }
        for (ii, item) in file.items.iter().enumerate() {
            if !item.is_test && handles_zc(item) {
                seeds.push((fi, ii));
            }
        }
    }

    // Reach along tainted call edges, keeping each function's tainted set.
    let mut tainted: HashMap<FnRef, HashSet<String>> = HashMap::new();
    let visits = reach(seeds, |r| {
        let f = index.item(r);
        let taint = taint_locals(&files[r.0].scanned.toks, f, zc_params(f));
        let targets = f
            .calls
            .iter()
            .filter(|c| {
                c.recv.as_deref().is_some_and(|rv| taint.contains(rv))
                    || c.args.iter().any(|a| taint.contains(a))
            })
            .flat_map(|c| index.named(&c.callee))
            .copied()
            .filter(|&g| handles_zc(index.item(g)))
            .collect();
        tainted.insert(r, taint);
        targets
    });

    // Flag banned idioms on tainted values in reached functions outside the
    // declared modules (inside them, the per-file copy-path rule already
    // runs with per-module idiom lists).
    for v in &visits {
        let file = &files[v.at.0];
        let item = index.item(v.at);
        if v.dist == 0 || path_matches_any(&file.rel, &dp_paths) {
            continue;
        }
        if item.is_test || file.in_test_tree {
            continue;
        }
        let taint = &tainted[&v.at];
        for site in find_idiom_sites(&file.scanned.toks, &cfg.escape.idioms) {
            // Only a call this function owns (not one in a nested fn, which
            // is reported on its own if reached) can carry a tainted value.
            let Some(call) = item.calls.iter().find(|c| c.tok_idx == site.tok_idx) else {
                continue;
            };
            let recv_tainted = call.recv.as_ref().is_some_and(|r| taint.contains(r));
            if !recv_tainted && !call.args.iter().any(|a| taint.contains(a)) {
                continue;
            }
            if waiver_for(&waivers[v.at.0], site.line, COPY_KINDS).is_some() {
                continue;
            }
            out.push(Violation {
                file: file.rel.clone(),
                line: site.line,
                rule: "zc-escape",
                msg: format!(
                    "{} applied to a zero-copy value in `fn {}`, reachable from \
                     data-path `fn {}` ({} call{} away); move the copy behind the \
                     meter or waive it (allow(copy) citing a CopyLayer, \
                     cheap-clone, or control-plane)",
                    site.idiom.describe(),
                    item.name,
                    index.item(v.seed).name,
                    v.dist,
                    if v.dist == 1 { "" } else { "s" },
                ),
            });
        }
    }
}

/// Forward-propagate taint from `seed` parameters through simple local
/// bindings: `let x = …tainted…;` and `for x in …tainted… {`. Unlike the
/// wire-taint scan, taint once acquired is never cleared and an
/// initializer runs through any `{` to its `;`, so the two scans stay
/// apart.
fn taint_locals(toks: &[Tok], f: &FnItem, seed: HashSet<String>) -> HashSet<String> {
    let mut taint = seed;
    let (open, close) = f.body;
    let mut i = open + 1;
    while i < close {
        let Some((binders, eq, rhs_stop)) = binding(toks, i, close) else {
            i += 1;
            continue;
        };
        // Does the initializer mention a tainted identifier?
        let mut k = eq + 1;
        let mut depth = 0i32;
        let mut rhs_tainted = false;
        while k < close {
            match toks[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                t if t == rhs_stop && depth == 0 => break,
                t => rhs_tainted |= toks[k].kind == TokKind::Ident && taint.contains(t),
            }
            k += 1;
        }
        if rhs_tainted {
            taint.extend(binders);
        }
        i = k + 1;
    }
    taint
}
