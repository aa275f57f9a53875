//! A minimal Rust lexer: just enough to audit source reliably.
//!
//! The auditor must never mistake the contents of a string literal or a
//! comment for code (`"call .to_vec() here"` in a doc string is not a
//! violation), and must see comments *as data* (waivers and `SAFETY:` notes
//! live there). A full `syn` parse is unavailable offline, and line-based
//! grepping gets both of the above wrong — so this hand-rolled lexer
//! tokenizes identifiers and punctuation with line numbers, skips string
//! and char literals (including raw and byte strings), distinguishes
//! lifetimes from char literals, and captures comments separately.

/// Kinds of tokens the audit rules inspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (opaque).
    Number,
    /// Single punctuation character.
    Punct,
    /// String/char literal of any flavor (contents dropped).
    Literal,
    /// Lifetime like `'a` (opaque).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// One comment with the 1-based line it *ends* on (for `/* */`, the line of
/// the closing delimiter — what matters for "comment directly above code").
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
}

/// Token and comment streams for one source file.
#[derive(Debug, Default)]
pub struct Scanned {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Tokenize `src`. Unterminated literals/comments end the affected token at
/// EOF rather than erroring: the auditor runs on code that `rustc` already
/// accepts, so malformed input only occurs in fixtures.
pub fn scan(src: &str) -> Scanned {
    let b = src.as_bytes();
    let mut out = Scanned::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let bump_lines = |s: &[u8]| s.iter().filter(|&&c| c == b'\n').count() as u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                line += bump_lines(&b[start..i]);
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line,
                });
            }
            b'"' => {
                let start = i;
                i = skip_string(b, i);
                line += bump_lines(&b[start..i]);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
            }
            b'r' | b'b' | b'c' if is_raw_or_byte_string(b, i) => {
                let start = i;
                i = skip_prefixed_string(b, i);
                line += bump_lines(&b[start..i]);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                let next = b.get(i + 1).copied();
                let after = b.get(i + 2).copied();
                let is_lifetime = matches!(next, Some(n) if n == b'_' || n.is_ascii_alphabetic())
                    && after != Some(b'\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < b.len() {
                        match b[j] {
                            b'\\' => j += 2,
                            b'\'' => {
                                j += 1;
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                    });
                    i = j;
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i] == b'.' || b[i].is_ascii_alphanumeric())
                {
                    // Stop a number at `..` (range operator), not inside it.
                    if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                // Keep the literal text: the wire-consts pass matches
                // protocol constants (`0x5A43_0001`) by their digits.
                out.toks.push(Tok {
                    kind: TokKind::Number,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}
// Token-stream helpers every pass shares.

/// Whether token `i` exists and reads `text`.
pub(crate) fn tok_is(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

/// Past-the-end index of a balanced `(…)`/`{…}`/`[…]` group at `i`.
fn skip_group(toks: &[Tok], i: usize) -> usize {
    let (openc, closec) = match toks[i].text.as_str() {
        "(" => ("(", ")"),
        "{" => ("{", "}"),
        _ => ("[", "]"),
    };
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].text == openc {
            depth += 1;
        } else if toks[j].text == closec {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Given `i` at the `#` of an attribute (`#[…]` or `#![…]`), return the
/// index just past its closing `]`; past the `#` alone if none opens.
pub(crate) fn skip_attr(toks: &[Tok], i: usize) -> usize {
    let mut j = i + 1;
    if tok_is(toks, j, "!") {
        j += 1;
    }
    if !tok_is(toks, j, "[") {
        return i + 1;
    }
    skip_group(toks, j)
}

/// From a token at/before a block's opening `{`, return (open, close) token
/// indices of the matched braces; `None` if a `;` arrives first (no body:
/// `mod foo;`, a trait fn declaration).
pub(crate) fn brace_span(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let open = (from..toks.len()).find(|&i| matches!(toks[i].text.as_str(), "{" | ";"))?;
    if toks[open].text == ";" {
        return None;
    }
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
    }
    None
}

/// Past-the-end index of the plain string starting at `b[i] == '"'`.
fn skip_string(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Does `b[i..]` begin a raw/byte/C string prefix (`r"`, `r#"`, `b"`,
/// `br#"`, `c"`, …) as opposed to an identifier starting with that letter?
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    // Up to two prefix letters (`br`, `cr`), then hashes, then a quote.
    for _ in 0..2 {
        match b.get(j) {
            Some(b'r') | Some(b'b') | Some(b'c') => j += 1,
            _ => break,
        }
    }
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"') && j > i
}

/// Past-the-end index of the raw/byte string starting at `b[i]`.
fn skip_prefixed_string(b: &[u8], i: usize) -> usize {
    let mut j = i;
    let mut raw = false;
    for _ in 0..2 {
        match b.get(j) {
            Some(b'r') => {
                raw = true;
                j += 1;
            }
            Some(b'b') | Some(b'c') => j += 1,
            _ => break,
        }
    }
    let mut hashes = 0;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(b.get(j), Some(&b'"'));
    j += 1;
    if raw {
        // Ends at `"` followed by `hashes` hashes; no escapes.
        while j < b.len() {
            if b[j] == b'"'
                && b[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == b'#')
                    .count()
                    == hashes
            {
                return j + 1 + hashes;
            }
            j += 1;
        }
        j
    } else {
        skip_string(b, j - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_are_opaque() {
        let ids = idents(r#"let x = "call .to_vec() here"; y.to_vec();"#);
        assert_eq!(ids, vec!["let", "x", "y", "to_vec"]);
    }

    #[test]
    fn raw_strings_are_opaque() {
        let ids = idents(r##"let p = r#"a "quoted" .clone()"#; real.clone();"##);
        assert_eq!(ids, vec!["let", "p", "real", "clone"]);
    }

    #[test]
    fn comments_captured_not_tokenized() {
        let s = scan("// zc-audit: allow(copy) — reason\nx.copy_from_slice(&y);");
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].text.contains("zc-audit"));
        assert_eq!(s.comments[0].line, 1);
        assert!(s
            .toks
            .iter()
            .any(|t| t.text == "copy_from_slice" && t.line == 2));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let s = scan("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = s
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = s.toks.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner */ still comment */ code();");
        assert_eq!(s.comments.len(), 1);
        assert!(s.toks.iter().any(|t| t.text == "code"));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let s = scan("let a = \"two\nlines\";\nb();");
        let b_tok = s.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn number_text_retained() {
        let s = scan("const A: u32 = 0x5A43_0001; let f = 1.5; let n = 42u16;");
        let nums: Vec<&str> = s
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0x5A43_0001", "1.5", "42u16"]);
    }

    #[test]
    fn byte_strings_and_numbers() {
        let ids = idents("let v = b\"bytes .to_vec()\"; let n = 0x1f_u32; w.clone();");
        assert_eq!(ids, vec!["let", "v", "let", "n", "w", "clone"]);
    }
}
