//! reactor-readiness pass: blocking-leaf reachability from the future
//! reactor entrypoints.
//!
//! The reactor cutover moves the data-path functions (`GiopConn` frame pump,
//! dispatch, deposit collection) onto non-blocking reactor shards. A shard
//! must never block, so every blocking leaf reachable from those functions
//! today is migration debt. This pass walks the shared name index breadth
//! first (`graph.rs`), starting from the configured
//! `[reactor] entrypoints`, and reports every reachable call to a
//! configured blocking leaf (`Mutex::lock`, socket read/write/connect,
//! `thread::sleep`, `JoinHandle::join`, channel `recv`).
//!
//! Findings are emitted under the `reactor-blocking` rule — **advisory**
//! until the reactor cutover lands and `--deny-reactor` flips the gate. The
//! point today is the measured debt, not a clean bill.

use crate::config::Config;
use crate::graph::{reach, NameIndex, Visit};
use crate::locks::OPAQUE_CALLEES;
use crate::parser::CallSite;
use crate::rules::{waiver_for, Violation, Waiver, WaiverKind};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One blocking leaf reachable from a reactor entrypoint (JSON `reactor`
/// section).
#[derive(Debug, Clone)]
pub struct ReactorFinding {
    pub file: String,
    pub line: u32,
    /// The blocking callee (`lock`, `recv_data`, `sleep`, …).
    pub leaf: String,
    /// The entrypoint whose BFS tree first reached the enclosing fn.
    pub entrypoint: String,
    /// One call chain from the entrypoint to the enclosing fn (names).
    pub chain: Vec<String>,
}

/// Does this call have the *shape* of its blocking namesake? Filters the
/// worst name collisions: `parts.join(sep)` is not `JoinHandle::join`,
/// a free `read()` helper is not `Read::read`.
fn blocking_shape(c: &CallSite) -> bool {
    // `(` is at tok_idx + 1, so an empty argument list closes at + 2.
    let no_args = c.args_close == c.tok_idx + 2;
    match c.callee.as_str() {
        "lock" | "join" => c.recv.is_some() && no_args,
        "read" | "write" | "recv" | "recv_timeout" | "wait" => c.recv.is_some(),
        _ => true,
    }
}

pub(crate) fn run(
    index: &NameIndex,
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) -> Vec<ReactorFinding> {
    let rc = &cfg.reactor;
    if rc.entrypoints.is_empty() {
        return Vec::new();
    }
    let files = index.files;
    let is_leaf = |name: &str| rc.blocking.iter().any(|b| b == name);
    // Every non-test workspace fn of a name (same over-approximation as the
    // lock-order pass). A name is reached once: all its fns together.
    let non_test = |name: &str| -> Vec<_> {
        let fns = index.named(name).iter().copied();
        fns.filter(|&(fi, ii)| !files[fi].in_test_tree && !index.item((fi, ii)).is_test)
            .collect()
    };

    let seeds = rc.entrypoints.iter().flat_map(|ep| non_test(ep));
    let visits = reach(seeds, |r| {
        let calls = index.item(r).calls.iter().map(|c| c.callee.as_str());
        // A blocking name is a leaf: reported below, never traversed into.
        calls
            .filter(|&c| !is_leaf(c) && !OPAQUE_CALLEES.contains(&c))
            .flat_map(non_test)
            .collect()
    });

    // Report every leaf call in reach order, with one example call chain
    // (names) from the entrypoint along the first-parent links.
    let by_fn: HashMap<_, &Visit> = visits.iter().map(|v| (v.at, v)).collect();
    let mut findings: Vec<ReactorFinding> = Vec::new();
    let mut seen_sites: HashSet<(usize, u32, &str)> = HashSet::new();
    for v in &visits {
        let fi = v.at.0;
        for call in &index.item(v.at).calls {
            let callee = call.callee.as_str();
            if !is_leaf(callee)
                || !blocking_shape(call)
                || !seen_sites.insert((fi, call.line, callee))
            {
                continue;
            }
            let mut chain = vec![index.item(v.at).name.clone()];
            let mut cur = v;
            while let Some(p) = cur.parent {
                cur = by_fn[&p];
                chain.push(index.item(p).name.clone());
            }
            chain.reverse();
            if waiver_for(&waivers[fi], call.line, &[WaiverKind::ReactorBlocking]).is_some() {
                continue;
            }
            let ep = &index.item(v.seed).name;
            out.push(Violation {
                file: files[fi].rel.clone(),
                line: call.line,
                rule: "reactor-blocking",
                msg: format!(
                    "blocking leaf `{callee}` reachable from reactor entrypoint \
                     `{ep}` via {}; must go non-blocking (or move off-shard) \
                     before the reactor cutover",
                    chain.join(" -> ")
                ),
            });
            findings.push(ReactorFinding {
                file: files[fi].rel.clone(),
                line: call.line,
                leaf: callee.to_string(),
                entrypoint: ep.clone(),
                chain,
            });
        }
    }

    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    findings
}
