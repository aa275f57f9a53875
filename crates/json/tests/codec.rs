//! The codec's contract: whatever `escape`/`Writer` emit, `parse` reads
//! back; hostile input (deep nesting, truncation) errors instead of
//! panicking or overflowing the stack.

use proptest::prelude::*;
use zc_json::{escape, parse, Layout, Value, Writer, MAX_DEPTH};

/// Strings weighted towards what escaping gets wrong: controls, quotes,
/// backslashes, and code points outside the BMP.
fn hostile_strings() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..64).prop_map(|picks| {
        picks
            .into_iter()
            .map(|x| {
                let r = x >> 8;
                match x % 6 {
                    0 => char::from_u32(r % 0x20).unwrap(),
                    1 => '"',
                    2 => '\\',
                    3 => char::from_u32(0x10000 + r % 0xF_0000).unwrap_or('😀'),
                    4 => char::from_u32(r % 0xD800).unwrap(),
                    _ => char::from_u32(0x20 + r % 0x5F).unwrap(),
                }
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn prop_escape_parse_roundtrip(s in hostile_strings()) {
        let mut quoted = String::from("\"");
        escape(&s, &mut quoted);
        quoted.push('"');
        prop_assert!(quoted.chars().all(|c| c as u32 >= 0x20), "raw control in {quoted:?}");
        prop_assert_eq!(parse(&quoted), Ok(Value::Str(s)));
    }

    /// Keys and string values survive every layout; scalars keep the
    /// precision the caller formatted them with.
    #[test]
    fn prop_writer_output_parses_in_every_layout(k in hostile_strings(), v in hostile_strings(), n: u32) {
        for layout in [Layout::Compact, Layout::Spaced, Layout::Pretty] {
            let mut w = Writer::new();
            w.begin_object(layout);
            w.field_str(&k, &v).field("n", n);
            w.key("items").begin_array(layout).value(true).string(&v).end();
            w.end();
            let doc = parse(&w.finish()).unwrap();
            prop_assert_eq!(doc.get(&k).and_then(Value::as_str), Some(v.as_str()));
            prop_assert_eq!(doc.get("n").and_then(Value::as_f64), Some(n as f64));
            prop_assert_eq!(
                doc.get("items"),
                Some(&Value::Arr(vec![Value::Bool(true), Value::Str(v.clone())]))
            );
        }
    }
}

#[test]
fn layouts_are_byte_exact() {
    let doc = |outer: Layout, inner: Layout| {
        let mut w = Writer::new();
        w.begin_object(outer).field_str("schema", "t/v1");
        w.key("rows").begin_array(outer);
        for i in 0..2 {
            w.begin_object(inner)
                .field("i", i)
                .field("x", format_args!("{:.2}", 0.5))
                .end();
        }
        w.end();
        w.key("none").begin_array(outer).end();
        w.end();
        w.finish()
    };
    assert_eq!(
        doc(Layout::Compact, Layout::Compact),
        r#"{"schema":"t/v1","rows":[{"i":0,"x":0.50},{"i":1,"x":0.50}],"none":[]}"#
    );
    assert_eq!(
        doc(Layout::Pretty, Layout::Spaced),
        "{\n  \"schema\": \"t/v1\",\n  \"rows\": [\n    {\"i\": 0, \"x\": 0.50},\n    \
         {\"i\": 1, \"x\": 0.50}\n  ],\n  \"none\": []\n}"
    );
}

#[test]
fn parser_reads_the_shapes_we_emit() {
    let j = parse(
        r#"{"schema": "zcorba-top/v1", "on": true, "off": false, "nil": null,
            "rows": [{"block_bytes": 65536, "mbit_s": 120.5e0}, -1],
            "esc": "a\"b\\c\u0041\ud83d\ude00\ud800"}"#,
    )
    .unwrap();
    assert_eq!(j.get("schema").unwrap().as_str(), Some("zcorba-top/v1"));
    assert_eq!(j.get("on"), Some(&Value::Bool(true)));
    assert_eq!(j.get("nil"), Some(&Value::Null));
    let Some(Value::Arr(rows)) = j.get("rows") else {
        panic!("rows")
    };
    assert_eq!(rows[0].get("block_bytes").unwrap().as_f64(), Some(65536.0));
    assert_eq!(rows[1].as_f64(), Some(-1.0));
    assert_eq!(j.get("esc").unwrap().as_str(), Some("a\"b\\cA😀\u{FFFD}"));
    assert_eq!(j.members().unwrap().len(), 6);
}

#[test]
fn parser_rejects_garbage() {
    for bad in [
        "",
        "{",
        "{\"a\": }",
        "[1, 2] trailing",
        "\"open",
        "\"\\x\"",
        "\"\\u12g4\"",
        "tru",
        "[1 2]",
        "{\"a\" 1}",
        "{1: 2}",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn nesting_is_capped_not_recursed() {
    let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    // What a hostile `_ZcTelemetry` server could send zc-top: must come
    // back as an error, not a stack overflow.
    assert!(parse(&"[".repeat(10_000)).is_err());
    assert!(parse(&"{\"k\":".repeat(10_000)).is_err());
}

#[test]
fn truncation_at_every_offset_never_panics() {
    let mut w = Writer::new();
    w.begin_object(Layout::Pretty)
        .field_str("s", "q\"\\\n\u{1}é😀")
        .field("n", format_args!("{:.3}", -12.5));
    w.key("a").begin_array(Layout::Spaced);
    w.value(true).value("null").begin_object(Layout::Compact);
    w.field_str("k", "\u{7f}").end().end().end();
    let doc = w.finish() + "  \"\\ud83d\\ude00\"";
    let full = parse(&doc[..doc.rfind("  \"").unwrap()]);
    assert!(full.is_ok(), "{full:?}");
    for cut in 0..doc.len() {
        if doc.is_char_boundary(cut) {
            let _ = parse(&doc[..cut]);
            let _ = parse(&doc[cut..]);
        }
    }
}
