//! waiver-debt ratchet: per-kind waiver counts against a committed baseline.
//!
//! Every waiver in the tree is tolerated debt on the road to the zero-waiver
//! `--deny` goal. The ratchet makes that debt monotone: `zc-audit --ratchet
//! zc-audit.baseline.json` counts the current waivers per kind and fails if
//! any kind's count *rose* above the committed baseline. Paying debt down is
//! always allowed (and prints a hint to tighten the baseline);
//! `--update-ratchet <file>` rewrites the baseline from the current tree.
//!
//! The baseline is a tiny JSON document with its own schema so it can be
//! diffed and reviewed like any other committed artifact:
//!
//! ```json
//! {
//!   "schema": "zc-audit-baseline/v1",
//!   "waivers": { "cheap-clone": 12, "copy": 9 }
//! }
//! ```

use crate::Report;
use std::collections::BTreeMap;

use zc_json::{Layout, Value, Writer};

pub const BASELINE_SCHEMA: &str = "zc-audit-baseline/v1";

/// Result of comparing the current waiver counts against a baseline.
#[derive(Debug, Clone, Default)]
pub struct RatchetOutcome {
    pub baseline: BTreeMap<String, u32>,
    pub current: BTreeMap<String, u32>,
    /// Kinds whose count rose above the baseline (ratchet failure).
    pub grown: Vec<String>,
    /// Kinds whose count fell below the baseline (tighten the baseline).
    pub shrunk: Vec<String>,
}

impl RatchetOutcome {
    pub fn ok(&self) -> bool {
        self.grown.is_empty()
    }
}

/// Count the report's waivers per kind name.
pub fn waiver_counts(report: &Report) -> BTreeMap<String, u32> {
    let mut m = BTreeMap::new();
    for w in &report.waivers {
        *m.entry(w.kind.name().to_string()).or_insert(0u32) += 1;
    }
    m
}

/// Serialize counts as a baseline document.
pub fn baseline_json(counts: &BTreeMap<String, u32>) -> String {
    let mut w = Writer::new();
    w.begin_object(Layout::Pretty)
        .field_str("schema", BASELINE_SCHEMA);
    w.key("waivers").begin_object(Layout::Pretty);
    for (kind, n) in counts {
        w.field(kind, n);
    }
    w.end().end();
    w.finish() + "\n"
}

/// Parse a baseline document: the schema tag plus a flat kind → count map.
pub fn baseline_from_json(src: &str) -> Result<BTreeMap<String, u32>, String> {
    let doc = zc_json::parse(src).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(BASELINE_SCHEMA) {
        return Err(format!("baseline schema must be `{BASELINE_SCHEMA}`"));
    }
    let waivers = doc
        .get("waivers")
        .and_then(Value::members)
        .ok_or_else(|| "baseline `waivers` must be an object".to_string())?;
    waivers
        .iter()
        .map(|(kind, n)| {
            let count = n
                .as_f64()
                .filter(|n| n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(n));
            match count {
                Some(n) if !kind.is_empty() => Ok((kind.clone(), n as u32)),
                _ => Err(format!("bad waiver count for `{kind}`")),
            }
        })
        .collect()
}

/// Compare current counts against a baseline. A kind absent from the
/// baseline counts as baseline 0 — brand-new waiver kinds start at zero
/// debt and any use is growth until the baseline is consciously updated.
pub fn compare(baseline: BTreeMap<String, u32>, current: BTreeMap<String, u32>) -> RatchetOutcome {
    let mut grown = Vec::new();
    let mut shrunk = Vec::new();
    for (kind, &cur) in &current {
        let base = baseline.get(kind).copied().unwrap_or(0);
        if cur > base {
            grown.push(kind.clone());
        } else if cur < base {
            shrunk.push(kind.clone());
        }
    }
    for kind in baseline.keys() {
        if !current.contains_key(kind) && baseline[kind] > 0 {
            shrunk.push(kind.clone());
        }
    }
    shrunk.sort();
    shrunk.dedup();
    RatchetOutcome {
        baseline,
        current,
        grown,
        shrunk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u32)]) -> BTreeMap<String, u32> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn baseline_round_trips() {
        let c = counts(&[("cheap-clone", 12), ("copy", 9), ("atomics-protocol", 1)]);
        let json = baseline_json(&c);
        assert!(json.contains(BASELINE_SCHEMA));
        let parsed = baseline_from_json(&json).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn empty_baseline_round_trips() {
        let c = BTreeMap::new();
        let parsed = baseline_from_json(&baseline_json(&c)).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn growth_fails_shrink_hints() {
        let base = counts(&[("copy", 3), ("lock-held", 2), ("wire-const", 1)]);
        let cur = counts(&[("copy", 4), ("lock-held", 1)]);
        let o = compare(base, cur);
        assert!(!o.ok());
        assert_eq!(o.grown, vec!["copy"]);
        assert_eq!(o.shrunk, vec!["lock-held", "wire-const"]);
    }

    #[test]
    fn new_kind_counts_as_growth_from_zero() {
        let o = compare(counts(&[]), counts(&[("reactor-blocking", 1)]));
        assert!(!o.ok());
        assert_eq!(o.grown, vec!["reactor-blocking"]);
    }

    #[test]
    fn wrong_schema_rejected() {
        assert!(baseline_from_json("{\"schema\": \"other/v9\", \"waivers\": {}}").is_err());
    }
}
