//! reactor-readiness pass: blocking-leaf reachability from the future
//! reactor entrypoints.
//!
//! The reactor cutover moves the data-path functions (`GiopConn` frame pump,
//! dispatch, deposit collection) onto non-blocking reactor shards. A shard
//! must never block, so every blocking leaf reachable from those functions
//! today is migration debt. This pass walks the same name-resolved call
//! graph the lock-order pass uses, starting from the configured
//! `[reactor] entrypoints`, and reports every reachable call to a
//! configured blocking leaf (`Mutex::lock`, socket read/write/connect,
//! `thread::sleep`, `JoinHandle::join`, channel `recv`).
//!
//! Findings are emitted under the `reactor-blocking` rule — **advisory**
//! until the reactor cutover lands and `--deny-reactor` flips the gate. The
//! point this PR is the measured starting debt, not a clean bill.

use crate::config::Config;
use crate::locks::OPAQUE_CALLEES;
use crate::parser::CallSite;
use crate::rules::{waiver_for, Violation, Waiver, WaiverKind};
use crate::FileAnalysis;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// One blocking leaf reachable from a reactor entrypoint (JSON `reactor`
/// section and the human report).
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
    files: &[FileAnalysis],
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) -> Vec<ReactorFinding> {
    let rc = &cfg.reactor;
    if rc.entrypoints.is_empty() {
        return Vec::new();
    }

    // Name-resolved graph: bare fn name → every non-test workspace fn of
    // that name (same over-approximation as the lock-order pass).
    let mut by_name: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, f) in files.iter().enumerate() {
        if f.in_test_tree {
            continue;
        }
        for (ii, item) in f.items.iter().enumerate() {
            if item.is_test {
                continue;
            }
            by_name
                .entry(item.name.as_str())
                .or_default()
                .push((fi, ii));
        }
    }

    // BFS from the entrypoints, recording one parent per discovered name so
    // a concrete example chain can be reconstructed for each finding.
    let mut parent: HashMap<String, String> = HashMap::new();
    let mut root_ep: HashMap<String, String> = HashMap::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    for ep in &rc.entrypoints {
        if by_name.contains_key(ep.as_str()) && !root_ep.contains_key(ep) {
            root_ep.insert(ep.clone(), ep.clone());
            queue.push_back(ep.clone());
        }
    }

    let mut findings: Vec<ReactorFinding> = Vec::new();
    let mut seen_sites: HashSet<(usize, u32, String)> = HashSet::new();
    while let Some(name) = queue.pop_front() {
        let ep = root_ep[&name].clone();
        let fns = by_name.get(name.as_str()).cloned().unwrap_or_default();
        for (fi, ii) in fns {
            let item = &files[fi].items[ii];
            for call in &item.calls {
                let callee = call.callee.as_str();
                if rc.blocking.iter().any(|b| b == callee) {
                    // A blocking name is a leaf: report (if it has the right
                    // shape) and never traverse into it.
                    if !blocking_shape(call)
                        || !seen_sites.insert((fi, call.line, callee.to_string()))
                    {
                        continue;
                    }
                    let mut chain = vec![name.clone()];
                    let mut cur = name.clone();
                    while let Some(p) = parent.get(&cur) {
                        chain.push(p.clone());
                        cur = p.clone();
                    }
                    chain.reverse();
                    if waiver_for(&waivers[fi], call.line, &[WaiverKind::ReactorBlocking]).is_some()
                    {
                        continue;
                    }
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
                    continue;
                }
                if OPAQUE_CALLEES.contains(&callee) || !by_name.contains_key(callee) {
                    continue;
                }
                if !root_ep.contains_key(callee) {
                    parent.insert(callee.to_string(), name.clone());
                    root_ep.insert(callee.to_string(), ep.clone());
                    queue.push_back(callee.to_string());
                }
            }
        }
    }

    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    findings
}
