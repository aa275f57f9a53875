//! Minimal TOML-subset parser for `zc-audit.toml`.
//!
//! The real `toml` crate is unavailable in this air-gapped workspace, so the
//! auditor parses the subset its own config actually uses: `[table]` headers,
//! `[[array-of-tables]]` headers, `key = "string"`, `key = ["array", "of",
//! "strings"]`, `key = true/false`, `key = 123`, and `#` comments. Anything
//! else is a hard error — better to reject a config than to silently skip a
//! rule someone thought was enabled.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    Array(Vec<Value>),
    Table(Table),
}

/// A table: ordered key → value map.
pub type Table = BTreeMap<String, Value>;

/// Parse error with 1-based line number.
#[derive(Debug)]
pub struct TomlError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, msg: impl Into<String>) -> TomlError {
    TomlError {
        line,
        msg: msg.into(),
    }
}

/// Parse a document into its root table.
pub fn parse(src: &str) -> Result<Table, TomlError> {
    let mut root = Table::new();
    // Path of the table currently receiving keys, e.g. ["copy_path"] or
    // ["copy_path", "module", "<index>"] for array-of-tables elements.
    let mut current: Vec<String> = Vec::new();

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let path = parse_path(inner, lineno)?;
            let index = push_array_table(&mut root, &path, lineno)?;
            current = path;
            current.push(index.to_string());
        } else if let Some(inner) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path = parse_path(inner, lineno)?;
            ensure_table(&mut root, &path, lineno)?;
            current = path;
        } else if let Some(eq) = find_top_level_eq(line) {
            let key = line[..eq].trim();
            if key.is_empty() {
                return Err(err(lineno, "empty key"));
            }
            let val = parse_value(line[eq + 1..].trim(), lineno)?;
            let table = resolve_mut(&mut root, &current, lineno)?;
            if table.insert(key.to_string(), val).is_some() {
                return Err(err(lineno, format!("duplicate key `{key}`")));
            }
        } else {
            return Err(err(lineno, format!("unsupported syntax: `{line}`")));
        }
    }
    Ok(root)
}

/// Strip a `#` comment, respecting `"` quoting.
fn strip_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_path(s: &str, lineno: usize) -> Result<Vec<String>, TomlError> {
    let parts: Vec<String> = s.split('.').map(|p| p.trim().to_string()).collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(err(lineno, format!("bad table path `{s}`")));
    }
    Ok(parts)
}

/// Find the `=` separating key from value (keys here are bare, never quoted).
fn find_top_level_eq(line: &str) -> Option<usize> {
    line.find('=')
}

fn parse_value(s: &str, lineno: usize) -> Result<Value, TomlError> {
    if let Some(rest) = s.strip_prefix('"') {
        let (v, consumed) = parse_string(rest, lineno)?;
        if !rest[consumed..].trim().is_empty() {
            return Err(err(lineno, "trailing characters after string"));
        }
        return Ok(Value::Str(v));
    }
    if s.starts_with('[') {
        return parse_array(s, lineno);
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    Err(err(lineno, format!("unsupported value `{s}`")))
}

/// Parse a string body (after the opening quote); returns (value, bytes
/// consumed including the closing quote).
fn parse_string(s: &str, lineno: usize) -> Result<(String, usize), TomlError> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                other => {
                    return Err(err(
                        lineno,
                        format!(
                            "unsupported escape `\\{}`",
                            other.map(|(_, c)| c).unwrap_or(' ')
                        ),
                    ))
                }
            },
            c => out.push(c),
        }
    }
    Err(err(lineno, "unterminated string"))
}

/// Parse a single-line `["a", "b"]` array of strings/ints/bools.
fn parse_array(s: &str, lineno: usize) -> Result<Value, TomlError> {
    let inner = s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(lineno, "arrays must open and close on one line"))?;
    let mut items = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        if let Some(after) = rest.strip_prefix('"') {
            let (v, consumed) = parse_string(after, lineno)?;
            items.push(Value::Str(v));
            rest = after[consumed..].trim_start();
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let tok = rest[..end].trim();
            items.push(parse_value(tok, lineno)?);
            rest = rest[end..].trim_start();
        }
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.is_empty() {
            return Err(err(lineno, "expected `,` between array items"));
        }
    }
    Ok(Value::Array(items))
}

fn ensure_table<'a>(
    root: &'a mut Table,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Table, TomlError> {
    let mut t = root;
    for part in path {
        let entry = t
            .entry(part.clone())
            .or_insert_with(|| Value::Table(Table::new()));
        t = match entry {
            Value::Table(inner) => inner,
            _ => return Err(err(lineno, format!("`{part}` is not a table"))),
        };
    }
    Ok(t)
}

/// Append a new element to the array-of-tables at `path`; returns its index.
fn push_array_table(root: &mut Table, path: &[String], lineno: usize) -> Result<usize, TomlError> {
    let (last, parents) = path.split_last().expect("non-empty path");
    let parent = ensure_table(root, parents, lineno)?;
    let entry = parent
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(items) => {
            items.push(Value::Table(Table::new()));
            Ok(items.len() - 1)
        }
        _ => Err(err(lineno, format!("`{last}` is not an array of tables"))),
    }
}

/// Resolve the table at `path` (array indices appear as decimal components).
fn resolve_mut<'a>(
    root: &'a mut Table,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Table, TomlError> {
    let mut t = root;
    let mut i = 0;
    while i < path.len() {
        let part = &path[i];
        let entry = t
            .get_mut(part)
            .ok_or_else(|| err(lineno, format!("missing table `{part}`")))?;
        match entry {
            Value::Table(inner) => t = inner,
            Value::Array(items) => {
                i += 1;
                let idx: usize = path[i]
                    .parse()
                    .map_err(|_| err(lineno, "bad array index"))?;
                match &mut items[idx] {
                    Value::Table(inner) => t = inner,
                    _ => return Err(err(lineno, "array element is not a table")),
                }
            }
            _ => return Err(err(lineno, format!("`{part}` is not a table"))),
        }
        i += 1;
    }
    Ok(t)
}

/// Convenience accessors used by config loading.
impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Array of strings, or `None` if not an all-string array.
    pub fn as_str_array(&self) -> Option<Vec<String>> {
        match self {
            Value::Array(items) => items
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect(),
            _ => None,
        }
    }

    /// The tables of an array of tables, or `None` if any item is not one.
    pub fn into_table_array(self) -> Option<Vec<Table>> {
        match self {
            Value::Array(items) => items
                .into_iter()
                .map(|v| match v {
                    Value::Table(t) => Some(t),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_arrays_of_tables() {
        let doc = r#"
# top comment
[unsafe_audit]
paths = ["crates/buffers/src/"]
require_deny = true

[[copy_path.module]]
name = "zbytes"
paths = ["crates/buffers/src/zbytes.rs"]
idioms = ["to_vec", "clone"]

[[copy_path.module]]
name = "octet"
paths = ["crates/cdr/src/octet.rs"]
idioms = ["extend_from_slice"]
"#;
        let root = parse(doc).unwrap();
        let ua = root["unsafe_audit"].as_table().unwrap();
        assert_eq!(
            ua["paths"].as_str_array().unwrap(),
            vec!["crates/buffers/src/".to_string()]
        );
        assert_eq!(ua["require_deny"], Value::Bool(true));
        let modules = root["copy_path"].as_table().unwrap()["module"]
            .clone()
            .into_table_array()
            .unwrap();
        assert_eq!(modules.len(), 2);
        assert_eq!(modules[0]["name"].as_str(), Some("zbytes"));
        assert_eq!(
            modules[1]["idioms"].as_str_array().unwrap(),
            vec!["extend_from_slice".to_string()]
        );
    }

    #[test]
    fn comments_inside_strings_survive() {
        let root = parse(r##"key = "value # not a comment" # real comment"##).unwrap();
        assert_eq!(root["key"].as_str(), Some("value # not a comment"));
    }

    #[test]
    fn rejects_unsupported_syntax() {
        assert!(parse("key = { inline = 1 }").is_err());
        assert!(parse("key = 'single quotes'").is_err());
        assert!(parse("= 3").is_err());
        assert!(parse("[t]\nkey = \"a\"\nkey = \"b\"").is_err());
    }

    #[test]
    fn ints_and_bools() {
        let root = parse("a = 42\nb = false").unwrap();
        assert_eq!(root["a"], Value::Int(42));
        assert_eq!(root["b"], Value::Bool(false));
    }
}
