//! Item-level Rust parser for the inter-procedural passes.
//!
//! Built directly on the lexer's token stream: function items, impl blocks,
//! call expressions and lock-guard bindings — deliberately *not* a full
//! grammar. The passes that consume its [`FnItem`]s (lock-order,
//! wire-taint, atomics-protocol, reactor-readiness, and meter-coverage for
//! a site's enclosing function) are name-based over-approximations, so the
//! parser only needs to recover:
//!
//! - every `fn` with a body: name, enclosing `impl` type, parameter names;
//! - every call expression inside that body: callee name, method receiver
//!   (the identifier left of the final `.`), and the identifiers appearing
//!   in the argument list;
//! - every `Mutex`/`RwLock` acquisition (`.lock()` / `.read()` / `.write()`
//!   with no arguments): the lock's field name, the guard binding if the
//!   result is `let`-bound, and a conservative token span over which the
//!   guard is considered held.
//!
//! Guard-hold approximation: a bound guard is held from the acquisition to
//! the *last* `drop(guard)` in the enclosing block (branch-insensitive: if
//! any path drops late, every path is treated as dropping late), clipped to
//! the end of the enclosing `{ … }` block, since a guard cannot outlive its
//! block. An unbound temporary (`self.m.lock().get(..)`) is held to the end
//! of its statement (the next `;`). Early `return`/`?` exits are ignored —
//! both choices over-approximate, which is the correct direction for a
//! deadlock auditor; waivers absorb the false positives they cause.

use crate::lexer::{brace_span, tok_is, Tok, TokKind};

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name: `foo(..)`, `x.foo(..)` and `path::foo(..)` all
    /// yield `foo`.
    pub callee: String,
    /// For method calls, the identifier immediately left of the final `.`
    /// (`a.b.foo()` → `b`; `self.foo()` → `self`).
    pub recv: Option<String>,
    /// Token index of the callee identifier.
    pub tok_idx: usize,
    pub line: u32,
    /// Identifier tokens appearing anywhere in the argument list.
    pub args: Vec<String>,
    /// Token index of the closing `)` of the argument list.
    pub args_close: usize,
}

/// One atomic operation site: a call to an atomic method (`load`, `store`,
/// `compare_exchange`, `fetch_add`, …, or a bare `fence`) whose argument
/// list names at least one `Ordering::*` variant. Requiring the ordering
/// ident filters out non-atomic methods that share these names
/// (`io::Read::read`-style `load`/`store` helpers, `cmp::Ordering` uses).
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// The atomic method name (`load`, `fetch_add`, `compare_exchange`,
    /// `fence`, …).
    pub method: String,
    /// Identifier left of the final `.` — the atomic cell's field name
    /// (`self.seq.store(..)` → `seq`). `None` for bare `fence(..)` calls
    /// and indexed receivers.
    pub recv: Option<String>,
    /// Memory orderings named in the argument list, in argument order
    /// (`compare_exchange` lists success then failure).
    pub orderings: Vec<String>,
    pub line: u32,
    /// Token index of the method identifier.
    pub tok_idx: usize,
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Textual lock identity: the identifier the acquisition method is
    /// called on (`self.inner.conn_cache.lock()` → `conn_cache`).
    pub lock: String,
    /// Guard binding name when the acquisition is `let`-bound.
    pub guard: Option<String>,
    /// Token index of the `lock`/`read`/`write` identifier.
    pub tok_idx: usize,
    pub line: u32,
    /// Token index up to which the guard is conservatively considered held.
    pub hold_end: usize,
}

/// One `fn` item with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Type name of the innermost enclosing `impl` block, if any.
    pub qual: Option<String>,
    pub line: u32,
    /// Token indices of the body's `{` and `}`.
    pub body: (usize, usize),
    /// Parameter names (`self` for a receiver); a tuple pattern
    /// contributes every identifier it binds.
    pub params: Vec<String>,
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
    pub atomics: Vec<AtomicSite>,
    /// Inside a `#[cfg(test)] mod` span.
    pub is_test: bool,
}

impl FnItem {
    /// Does `idx` fall inside this function's body?
    pub fn contains(&self, idx: usize) -> bool {
        idx > self.body.0 && idx < self.body.1
    }
}

/// Keywords: identifiers that look like calls when followed by `(`, or
/// like operands before `[`/`+`, but are neither.
pub(crate) const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "loop", "match", "return", "break", "continue", "let",
    "move", "fn", "unsafe", "as", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod",
    "self",
];

/// Parse every `fn` item with a body out of `toks`. `test_spans` are the
/// inclusive token spans of `#[cfg(test)] mod` items (see
/// [`crate::rules::cfg_test_mod_spans`]).
pub fn parse_items(toks: &[Tok], test_spans: &[(usize, usize)]) -> Vec<FnItem> {
    let impls = impl_spans(toks);
    let mut fns: Vec<FnItem> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let Some(item) = parse_fn_header(toks, i, &impls, test_spans) else {
            i += 1;
            continue;
        };
        // Resume after the signature, not after the body: nested fns must
        // be discovered too (their spans are excluded from the parent scan).
        i = item.body.0 + 1;
        fns.push(item);
    }

    // Second phase: scan each body for calls and locks, excluding the spans
    // of nested fn items so their statements are attributed once.
    for k in 0..fns.len() {
        let (open, close) = fns[k].body;
        let children: Vec<(usize, usize)> = fns
            .iter()
            .filter(|f| f.body.0 > open && f.body.1 < close)
            .map(|f| f.body)
            .collect();
        let (calls, locks, atomics) = scan_body(toks, open, close, &children);
        fns[k].calls = calls;
        fns[k].locks = locks;
        fns[k].atomics = atomics;
    }
    fns
}

/// Parse one `fn` header starting at token `fn_idx` (`fn`). Returns `None`
/// for bodyless declarations (trait methods, extern fns).
fn parse_fn_header(
    toks: &[Tok],
    fn_idx: usize,
    impls: &[(String, usize, usize)],
    test_spans: &[(usize, usize)],
) -> Option<FnItem> {
    let name_tok = &toks[fn_idx + 1];
    let mut j = fn_idx + 2;
    if tok_is(toks, j, "<") {
        j = skip_angles(toks, j);
    }
    if !tok_is(toks, j, "(") {
        return None;
    }
    let (params, params_close) = parse_params(toks, j)?;
    let body = brace_span(toks, params_close)?;
    // Innermost enclosing impl wins (nested impls are vanishingly rare, but
    // the tightest span is the right answer if they occur).
    let qual = impls
        .iter()
        .filter(|&&(_, open, close)| fn_idx > open && fn_idx < close)
        .min_by_key(|&&(_, open, close)| close - open)
        .map(|(name, _, _)| name.clone());
    let is_test = test_spans.iter().any(|&(a, b)| fn_idx >= a && fn_idx <= b);

    Some(FnItem {
        name: name_tok.text.clone(),
        qual,
        line: name_tok.line,
        body,
        params,
        calls: Vec::new(),
        locks: Vec::new(),
        atomics: Vec::new(),
        is_test,
    })
}

/// `(type_name, body_open, body_close)` for every `impl` block. For
/// `impl Trait for Type` the type is `Type`; paths keep their last segment.
fn impl_spans(toks: &[Tok]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "impl") {
            continue;
        }
        let Some((open, close)) = brace_span(toks, i) else {
            continue;
        };
        let mut j = i + 1;
        if tok_is(toks, j, "<") {
            j = skip_angles(toks, j);
        }
        // The self type starts after the last depth-0 `for` (HRTB `for<'a>`
        // sits inside angle brackets or is followed by `<`, so it never
        // looks like the trait/type separator).
        let mut seg_start = j;
        let mut depth = 0i32;
        for k in j..open {
            match toks[k].text.as_str() {
                "<" => depth += 1,
                ">" if k > 0 && matches!(toks[k - 1].text.as_str(), "-" | "=") => {}
                ">" => depth = (depth - 1).max(0),
                "for" if depth == 0 && !tok_is(toks, k + 1, "<") => seg_start = k + 1,
                _ => {}
            }
        }
        // Last depth-0 path identifier before `where`/`{` names the type.
        let mut name = None;
        let mut depth = 0i32;
        for k in seg_start..open {
            match toks[k].text.as_str() {
                "<" => depth += 1,
                ">" if k > 0 && matches!(toks[k - 1].text.as_str(), "-" | "=") => {}
                ">" => depth = (depth - 1).max(0),
                "where" if depth == 0 => break,
                t if depth == 0 && toks[k].kind == TokKind::Ident && t != "dyn" => {
                    name = Some(t.to_string())
                }
                _ => {}
            }
        }
        if let Some(name) = name {
            spans.push((name, open, close));
        }
    }
    spans
}

/// Parse the parameter list starting at `open` (`(`). Returns the params
/// and the index of the matching `)`.
fn parse_params(toks: &[Tok], open: usize) -> Option<(Vec<String>, usize)> {
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut bracket = 0i32;
    let mut chunks: Vec<(usize, usize)> = Vec::new();
    let mut chunk_start = open + 1;
    let mut close = None;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                if paren == 0 {
                    chunks.push((chunk_start, j));
                    close = Some(j);
                    break;
                }
            }
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "<" => angle += 1,
            ">" if j > 0 && matches!(toks[j - 1].text.as_str(), "-" | "=") => {}
            ">" => angle = (angle - 1).max(0),
            "," if paren == 1 && angle == 0 && bracket == 0 => {
                chunks.push((chunk_start, j));
                chunk_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    let close = close?;

    let mut params = Vec::new();
    for (a, b) in chunks {
        if a >= b {
            continue;
        }
        params.extend(params_from_chunk(toks, a, b));
    }
    Some((params, close))
}

/// The names one parameter chunk (`pattern: Type` or a `self` receiver)
/// binds.
fn params_from_chunk(toks: &[Tok], a: usize, b: usize) -> Vec<String> {
    // Find the pattern/type `:` at top nesting depth; `::` is a path.
    let mut colon = None;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut bracket = 0i32;
    for k in a..b {
        match toks[k].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            ":" if paren == 0 && angle == 0 && bracket == 0 => {
                let part_of_path = tok_is(toks, k + 1, ":") || (k > a && tok_is(toks, k - 1, ":"));
                if !part_of_path {
                    colon = Some(k);
                    break;
                }
            }
            _ => {}
        }
    }

    match colon {
        None => {
            // Receiver shorthand: `self`, `&self`, `&mut self`, `mut self`.
            if toks[a..b].iter().any(|t| t.text == "self") {
                vec!["self".into()]
            } else {
                Vec::new()
            }
        }
        Some(ci) => toks[a..ci]
            .iter()
            .filter(|t| t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "_"))
            .map(|t| t.text.clone())
            .collect(),
    }
}

/// Atomic method names recognized for [`AtomicSite`] extraction. A call
/// only becomes a site when its argument list also names an `Ordering::*`
/// variant (see [`MEMORY_ORDERINGS`]).
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "fence",
];

/// `std::sync::atomic::Ordering` variant names.
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Collect call, lock and atomic sites in `toks[open+1..close]`, excluding
/// nested fn body spans in `children`.
fn scan_body(
    toks: &[Tok],
    open: usize,
    close: usize,
    children: &[(usize, usize)],
) -> (Vec<CallSite>, Vec<LockSite>, Vec<AtomicSite>) {
    let excluded = |idx: usize| children.iter().any(|&(a, b)| idx >= a && idx <= b);
    let mut calls = Vec::new();
    let mut locks = Vec::new();
    let mut atomics = Vec::new();

    for i in open + 1..close {
        if excluded(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !tok_is(toks, i + 1, "(") {
            continue;
        }
        if KEYWORDS.contains(&t.text.as_str()) || tok_is(toks, i - 1, "fn") {
            continue;
        }
        let recv = (tok_is(toks, i - 1, ".") && toks[i - 2].kind == TokKind::Ident)
            .then(|| toks[i - 2].text.clone());
        let (args, args_close) = paren_args(toks, i + 1);
        let call = CallSite {
            callee: t.text.clone(),
            recv,
            tok_idx: i,
            line: t.line,
            args,
            args_close,
        };
        if matches!(call.callee.as_str(), "lock" | "read" | "write")
            && call.recv.is_some()
            && call.args.is_empty()
        {
            locks.push(lock_site(toks, &call, close, &excluded));
        }
        if ATOMIC_METHODS.contains(&call.callee.as_str()) {
            let orderings: Vec<String> = call
                .args
                .iter()
                .filter(|a| MEMORY_ORDERINGS.contains(&a.as_str()))
                .cloned()
                .collect();
            if !orderings.is_empty() {
                atomics.push(AtomicSite {
                    method: call.callee.clone(),
                    recv: call.recv.clone(),
                    orderings,
                    line: call.line,
                    tok_idx: call.tok_idx,
                });
            }
        }
        calls.push(call);
    }
    (calls, locks, atomics)
}

/// Identifier texts inside a paren group starting at `open` (`(`), plus the
/// index of the matching `)`.
fn paren_args(toks: &[Tok], open: usize) -> (Vec<String>, usize) {
    let mut depth = 0i32;
    let mut args = Vec::new();
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return (args, j);
                }
            }
            _ => {
                if toks[j].kind == TokKind::Ident {
                    args.push(toks[j].text.clone());
                }
            }
        }
        j += 1;
    }
    (args, j.saturating_sub(1))
}

/// Build the `LockSite` for an acquisition call (see module docs for the
/// hold-range approximation).
fn lock_site(
    toks: &[Tok],
    call: &CallSite,
    body_close: usize,
    excluded: &dyn Fn(usize) -> bool,
) -> LockSite {
    let i = call.tok_idx;
    // Walk the receiver chain back to its first identifier to see whether
    // the whole expression is `let`-bound.
    let mut s = i;
    while s >= 2 && tok_is(toks, s - 1, ".") && toks[s - 2].kind == TokKind::Ident {
        s -= 2;
    }
    let mut guard = None;
    // A chained call (`conn.lock().wire_order()`) binds the *method result*,
    // not the guard — the guard is a temporary living to the statement end.
    let chained = tok_is(toks, call.args_close + 1, ".");
    if !chained && s >= 2 && tok_is(toks, s - 1, "=") {
        let k = s - 2;
        if toks[k].kind == TokKind::Ident && toks[k].text != "mut" {
            let let_bound = tok_is(toks, k.wrapping_sub(1), "let")
                || (tok_is(toks, k.wrapping_sub(1), "mut")
                    && tok_is(toks, k.wrapping_sub(2), "let"));
            if let_bound {
                guard = Some(toks[k].text.clone());
            }
        }
    }

    // End of the enclosing `{ … }` block: a guard cannot outlive it.
    let mut block_end = body_close;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(body_close).skip(i) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    block_end = j;
                    break;
                }
                depth -= 1;
            }
            _ => {}
        }
    }

    let hold_end = match &guard {
        Some(g) => {
            // Last `drop(g)` before the block end, else the block end.
            let mut end = block_end;
            let mut j = call.args_close;
            let mut last_drop = None;
            while j + 3 < block_end {
                if !excluded(j)
                    && toks[j].text == "drop"
                    && tok_is(toks, j + 1, "(")
                    && toks[j + 2].text == *g
                    && tok_is(toks, j + 3, ")")
                {
                    last_drop = Some(j + 3);
                }
                j += 1;
            }
            if let Some(d) = last_drop {
                end = d;
            }
            end
        }
        None => {
            // Unbound temporary: held to the end of the statement.
            let mut j = call.args_close + 1;
            let mut depth = 0i32;
            loop {
                if j >= block_end {
                    break block_end;
                }
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => break j,
                    _ => {}
                }
                j += 1;
            }
        }
    };

    LockSite {
        lock: call.recv.clone().unwrap_or_default(),
        guard,
        tok_idx: i,
        line: call.line,
        hold_end,
    }
}

/// From `start` at a `<`, return the index just past the matching `>`.
/// `->` and `=>` arrows inside (e.g. `Fn() -> T` bounds) do not close.
fn skip_angles(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" if j > 0 && matches!(toks[j - 1].text.as_str(), "-" | "=") => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::rules::cfg_test_mod_spans;

    fn parse(src: &str) -> Vec<FnItem> {
        let s = scan(src);
        let spans = cfg_test_mod_spans(&s.toks);
        parse_items(&s.toks, &spans)
    }

    #[test]
    fn fn_params_and_calls() {
        let items =
            parse("fn send(buf: &ZcBytes, n: usize) -> Result<Vec<u8>, Error> { helper(buf); }");
        assert_eq!(items.len(), 1);
        let f = &items[0];
        assert_eq!(f.name, "send");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0], "buf");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].callee, "helper");
        assert_eq!(f.calls[0].args, vec!["buf"]);
    }

    #[test]
    fn impl_qualifies_methods() {
        let items = parse(
            "impl fmt::Debug for Conn { fn fmt(&self) {} }\n\
             impl<'a> Walker<'a> { fn step(&mut self, b: ZcBytes) { self.go(b); } }",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].qual.as_deref(), Some("Conn"));
        assert_eq!(items[1].qual.as_deref(), Some("Walker"));
        assert_eq!(items[1].params, vec!["self", "b"]);
        let call = &items[1].calls[0];
        assert_eq!(call.callee, "go");
        assert_eq!(call.recv.as_deref(), Some("self"));
    }

    #[test]
    fn generic_sig_with_fn_bound() {
        let items = parse(
            "fn apply<F: Fn(&[u8]) -> usize>(f: F, data: &ZcBytes) -> usize { f(data.as_slice()) }",
        );
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].params.len(), 2);
        assert_eq!(items[0].params[1], "data");
    }

    #[test]
    fn nested_fn_calls_not_attributed_to_parent() {
        let items = parse("fn outer() { fn inner() { secret(); } inner(); }");
        let outer = items.iter().find(|f| f.name == "outer").unwrap();
        let inner = items.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.calls.iter().all(|c| c.callee != "secret"));
        assert!(outer.calls.iter().any(|c| c.callee == "inner"));
        assert!(inner.calls.iter().any(|c| c.callee == "secret"));
    }

    #[test]
    fn lock_guard_bound_and_dropped() {
        let items = parse(
            "fn f(&self) {\n\
               let mut conn = self.inner.conn.lock();\n\
               conn.send();\n\
               drop(conn);\n\
               after();\n\
             }",
        );
        let f = &items[0];
        assert_eq!(f.locks.len(), 1);
        let l = &f.locks[0];
        assert_eq!(l.lock, "conn");
        assert_eq!(l.guard.as_deref(), Some("conn"));
        let send = f.calls.iter().find(|c| c.callee == "send").unwrap();
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(send.tok_idx < l.hold_end, "send is under the lock");
        assert!(after.tok_idx > l.hold_end, "after runs past the drop");
    }

    #[test]
    fn lock_temporary_held_to_statement_end() {
        let items = parse(
            "fn f(&self) {\n\
               self.cache.lock().insert(1);\n\
               later();\n\
             }",
        );
        let f = &items[0];
        assert_eq!(f.locks.len(), 1);
        assert!(f.locks[0].guard.is_none());
        let later = f.calls.iter().find(|c| c.callee == "later").unwrap();
        assert!(later.tok_idx > f.locks[0].hold_end);
    }

    #[test]
    fn lock_guard_clipped_to_block() {
        let items = parse(
            "fn f(&self) {\n\
               let v = { let g = self.table.read(); g.len() };\n\
               outside();\n\
             }",
        );
        let f = &items[0];
        assert_eq!(f.locks.len(), 1);
        let outside = f.calls.iter().find(|c| c.callee == "outside").unwrap();
        assert!(
            outside.tok_idx > f.locks[0].hold_end,
            "guard dies with its block"
        );
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let items = parse("fn f(&mut self, buf: &mut [u8]) { self.sock.read(buf); }");
        assert!(items[0].locks.is_empty());
        assert!(items[0].calls.iter().any(|c| c.callee == "read"));
    }

    #[test]
    fn cfg_test_fns_marked() {
        let items = parse("fn real() {}\n#[cfg(test)]\nmod tests { fn t() { x.to_vec(); } }");
        assert!(!items.iter().find(|f| f.name == "real").unwrap().is_test);
        assert!(items.iter().find(|f| f.name == "t").unwrap().is_test);
    }

    #[test]
    fn trait_decls_skipped() {
        let items = parse("trait T { fn decl(&self); fn with_default(&self) { self.decl(); } }");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "with_default");
    }

    #[test]
    fn atomic_sites_with_orderings() {
        let items = parse(
            "fn f(&self) {\n\
               let s = self.seq.load(Ordering::Acquire);\n\
               self.seq.compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed);\n\
               self.seq.store(s + 2, Ordering::Release);\n\
               fence(Ordering::Acquire);\n\
             }",
        );
        let a = &items[0].atomics;
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].method, "load");
        assert_eq!(a[0].recv.as_deref(), Some("seq"));
        assert_eq!(a[0].orderings, vec!["Acquire"]);
        assert_eq!(a[1].method, "compare_exchange");
        assert_eq!(a[1].orderings, vec!["Acquire", "Relaxed"]);
        assert_eq!(a[2].orderings, vec!["Release"]);
        assert_eq!(a[3].method, "fence");
        assert!(a[3].recv.is_none());
    }

    #[test]
    fn non_atomic_load_store_not_sites() {
        let items = parse(
            "fn f(&mut self) {\n\
               self.cart.load(path);\n\
               self.disk.store(bytes);\n\
               items.sort_by(|a, b| a.cmp(b));\n\
             }",
        );
        assert!(items[0].atomics.is_empty());
    }

    #[test]
    fn tuple_pattern_params() {
        let items = parse("fn f((a, b): (ZcBytes, usize)) { use_both(a, b); }");
        assert_eq!(items[0].params, vec!["a", "b"]);
    }
}
