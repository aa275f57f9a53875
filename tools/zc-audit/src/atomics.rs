//! atomics-protocol pass: per-module atomic-ordering protocol enforcement.
//!
//! The reactor cutover (sharded reactor core) retires the data-path locks and
//! leans entirely on the lock-free structures — the seqlock flight recorder,
//! the CAS-rolled `RateWindow`s, the refcounted buffers. Nothing in the type
//! system stops a refactor from quietly weakening `Ordering::Release` to
//! `Ordering::Relaxed`, so this pass enforces the ordering discipline
//! structurally: `[[atomics.protocol]]` blocks in `zc-audit.toml` declare
//! which protocol each lock-free module follows, and every atomic site in
//! the configured `[atomics] paths` must (a) fall inside some declared
//! protocol module and (b) use the orderings that protocol demands.
//!
//! Protocol kinds (see [`ProtocolKind`]):
//!
//! - `refcount` — Relaxed increment, Release decrement, Acquire fence (or
//!   acquire-flavored barrier) before the payload drop.
//! - `seqlock` — Release store publishes the sequence cell, Acquire load
//!   observes it; data fields in between stay Relaxed. A Relaxed re-check
//!   load of the sequence cell is tolerated only in a function that also
//!   claims via CAS or fences with Acquire.
//! - `cas-roll` — the window roll CAS (`compare_exchange`/`fetch_update`)
//!   must publish with AcqRel; every fast-path site stays Relaxed.
//! - `counter-relaxed` — statistics counters: Relaxed only, and `SeqCst`
//!   is flagged as needless even though it is "stronger".
//! - `release-flag` — a stop/shutdown flag: Release store, Acquire load,
//!   AcqRel read-modify-write.
//!
//! Violations are waivable only with an `allow(atomics-protocol)` waiver
//! comment whose reason cites the loom model covering the ordering
//! (enforced in [`crate::rules::collect_waivers`]).

use crate::config::{path_matches_any, AtomicProtocol, Config, ProtocolKind};
use crate::parser::{AtomicSite, FnItem};
use crate::rules::{waiver_for, Violation, Waiver, WaiverKind};
use crate::FileAnalysis;
use std::collections::BTreeMap;

/// Per-protocol site count for the JSON report.
#[derive(Debug, Clone)]
pub struct ProtocolStat {
    pub module: String,
    pub kind: &'static str,
    pub sites: usize,
}

/// Machine-readable summary of the pass (JSON `atomics` section).
#[derive(Debug, Clone, Default)]
pub struct AtomicsSummary {
    pub protocols: Vec<ProtocolStat>,
    /// Atomic sites inside `[atomics] paths` but outside every declared
    /// protocol module (each one is also a violation unless waived).
    pub undeclared_sites: usize,
}

/// Is this method a CAS-family read-modify-write whose first ordering is
/// the success ordering?
fn is_cas(method: &str) -> bool {
    matches!(
        method,
        "compare_exchange" | "compare_exchange_weak" | "fetch_update"
    )
}

/// Is this method a read-modify-write (CAS family, `swap`, `fetch_*`)?
fn is_rmw(method: &str) -> bool {
    is_cas(method) || method == "swap" || method.starts_with("fetch_")
}

pub(crate) fn run(
    files: &[FileAnalysis],
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) -> AtomicsSummary {
    let ac = &cfg.atomics;
    let mut summary = AtomicsSummary::default();
    if ac.paths.is_empty() {
        return summary;
    }

    let mut states: Vec<ModState> = ac.protocols.iter().map(|_| ModState::default()).collect();
    // A finding at (file, line), unless an allow(atomics-protocol) waiver
    // covers it.
    let anchored = |out: &mut Vec<Violation>, (fi, line): (usize, u32), msg: String| {
        if waiver_for(&waivers[fi], line, &[WaiverKind::AtomicsProtocol]).is_none() {
            out.push(Violation {
                file: files[fi].rel.clone(),
                line,
                rule: "atomics-protocol",
                msg,
            });
        }
    };

    for (fi, f) in files.iter().enumerate() {
        if f.in_test_tree || !path_matches_any(&f.rel, &ac.paths) {
            continue;
        }
        let proto_idx = ac
            .protocols
            .iter()
            .position(|p| path_matches_any(&f.rel, &p.paths));
        for item in &f.items {
            if item.is_test {
                continue;
            }
            for site in &item.atomics {
                let Some(pi) = proto_idx else {
                    summary.undeclared_sites += 1;
                    let msg = format!(
                        "atomic `{}` site outside any declared [[atomics.protocol]] \
                         module; declare this file's protocol in zc-audit.toml or \
                         waive with allow(atomics-protocol) citing the covering \
                         loom model",
                        site.method
                    );
                    anchored(out, (fi, site.line), msg);
                    continue;
                };
                let proto = &ac.protocols[pi];
                let st = &mut states[pi];
                st.sites += 1;
                track_module_state(proto, site, st, fi);
                if let Some(problem) = site_problem(proto, item, site) {
                    st.site_problems += 1;
                    let (module, kind) = (&proto.module, proto.kind.name());
                    anchored(
                        out,
                        (fi, site.line),
                        format!("protocol `{module}` ({kind}): {problem}"),
                    );
                }
            }
        }
    }

    // Module-level pairing checks: only when every site individually
    // conforms (otherwise the pairing failure just restates a site finding).
    for (pi, st) in states.iter().enumerate() {
        let proto = &ac.protocols[pi];
        summary.protocols.push(ProtocolStat {
            module: proto.module.clone(),
            kind: proto.kind.name(),
            sites: st.sites,
        });
        if st.site_problems > 0 {
            continue;
        }
        match proto.kind {
            ProtocolKind::Seqlock => {
                if let Some(at) = st.first_seq {
                    if !(st.seq_release_store && st.seq_acquire_load) {
                        anchored(
                            out,
                            at,
                            format!(
                                "protocol `{}` (seqlock): publication must pair a Release \
                                 store of the sequence cell with an Acquire load; the \
                                 module has {}",
                                proto.module,
                                match (st.seq_release_store, st.seq_acquire_load) {
                                    (false, false) => "neither",
                                    (false, true) => "no Release store",
                                    (true, false) => "no Acquire load",
                                    (true, true) => unreachable!(),
                                }
                            ),
                        );
                    }
                }
            }
            ProtocolKind::Refcount => {
                if let Some(at) = st.first_dec {
                    if !st.has_acquire_barrier {
                        anchored(
                            out,
                            at,
                            format!(
                                "protocol `{}` (refcount): a Release decrement needs an \
                                 Acquire fence (or acquire-flavored load/RMW) before the \
                                 payload drop; none found in the module",
                                proto.module
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
    summary
}

/// Per-protocol accumulation for the module-level pairing checks.
#[derive(Default)]
struct ModState {
    sites: usize,
    /// Site-level problems seen (waived or not): when a site already
    /// deviates, the module-level pairing check would only restate it.
    site_problems: usize,
    seq_release_store: bool,
    seq_acquire_load: bool,
    first_seq: Option<(usize, u32)>,
    has_decrement: bool,
    has_acquire_barrier: bool,
    first_dec: Option<(usize, u32)>,
}

/// Update the per-module pairing state for one site.
fn track_module_state(proto: &AtomicProtocol, site: &AtomicSite, st: &mut ModState, fi: usize) {
    let o1 = site.orderings.first().map(String::as_str).unwrap_or("");
    match proto.kind {
        ProtocolKind::Seqlock => {
            let on_seq = site
                .recv
                .as_deref()
                .is_some_and(|r| proto.seq.iter().any(|s| s == r));
            if on_seq {
                if st.first_seq.is_none() {
                    st.first_seq = Some((fi, site.line));
                }
                if site.method == "store" && o1 == "Release" {
                    st.seq_release_store = true;
                }
                if site.method == "load" && o1 == "Acquire" {
                    st.seq_acquire_load = true;
                }
            }
        }
        ProtocolKind::Refcount => {
            if site.method == "fetch_sub" {
                st.has_decrement = true;
                if st.first_dec.is_none() {
                    st.first_dec = Some((fi, site.line));
                }
            }
            let acquirey = matches!(o1, "Acquire" | "AcqRel");
            if acquirey && (site.method == "fence" || site.method == "load" || is_rmw(&site.method))
            {
                st.has_acquire_barrier = true;
            }
        }
        _ => {}
    }
}

/// Check one site against its module's protocol. Returns the problem
/// description, or `None` when the site conforms.
fn site_problem(proto: &AtomicProtocol, item: &FnItem, site: &AtomicSite) -> Option<String> {
    let ords = &site.orderings;
    let o1 = ords.first().map(String::as_str).unwrap_or("");
    let method = site.method.as_str();
    match proto.kind {
        ProtocolKind::CounterRelaxed => {
            if let Some(o) = ords.iter().find(|o| o.as_str() != "Relaxed") {
                if o == "SeqCst" {
                    return Some(format!(
                        "needless `SeqCst` on a relaxed statistics counter (`{method}`); \
                         counters carry no synchronization, use Ordering::Relaxed"
                    ));
                }
                return Some(format!(
                    "counter sites must use Ordering::Relaxed (found `{o}` on `{method}`)"
                ));
            }
            None
        }
        ProtocolKind::CasRoll => {
            if is_cas(method) {
                if o1 != "AcqRel" {
                    return Some(format!(
                        "the window-roll CAS (`{method}`) must publish with success \
                         ordering AcqRel (found `{o1}`): the rolled counters must be \
                         visible to the thread that wins the roll"
                    ));
                }
                if ords.get(1).is_some_and(|o| o == "SeqCst") {
                    return Some(format!(
                        "needless `SeqCst` failure ordering on `{method}`; Relaxed is \
                         enough for the losing roller"
                    ));
                }
                None
            } else if method == "fence" {
                (o1 == "SeqCst").then(|| "needless `SeqCst` fence under cas-roll".to_string())
            } else if o1 != "Relaxed" {
                Some(format!(
                    "fast-path `{method}` must stay Ordering::Relaxed under cas-roll \
                     (found `{o1}`); only the roll CAS synchronizes"
                ))
            } else {
                None
            }
        }
        ProtocolKind::Seqlock => {
            let on_seq = site
                .recv
                .as_deref()
                .is_some_and(|r| proto.seq.iter().any(|s| s == r));
            if method == "fence" {
                if matches!(o1, "Acquire" | "Release") {
                    return None;
                }
                return Some(format!(
                    "seqlock fences must be Acquire or Release (found `{o1}`)"
                ));
            }
            if on_seq {
                match method {
                    "store" => (o1 != "Release").then(|| {
                        format!(
                            "publication store of sequence cell `{}` must be \
                             Ordering::Release (found `{o1}`)",
                            site.recv.as_deref().unwrap_or("seq")
                        )
                    }),
                    "load" => {
                        if o1 == "Acquire" {
                            return None;
                        }
                        // A Relaxed re-check is sound only after an Acquire
                        // barrier in the same function: the claim CAS on the
                        // writer side, the fence on the reader side.
                        let has_barrier = item.atomics.iter().any(|a| {
                            let ao = a.orderings.first().map(String::as_str).unwrap_or("");
                            (a.method == "fence" && ao == "Acquire")
                                || (is_cas(&a.method) && matches!(ao, "Acquire" | "AcqRel"))
                        });
                        if o1 == "Relaxed" && has_barrier {
                            return None;
                        }
                        Some(format!(
                            "sequence-cell load must be Ordering::Acquire (found `{o1}`; \
                             Relaxed is tolerated only as a re-check after an Acquire \
                             fence or claim CAS in the same fn)"
                        ))
                    }
                    m if is_cas(m) => (!matches!(o1, "Acquire" | "AcqRel")).then(|| {
                        format!(
                            "claim CAS on the sequence cell must acquire \
                             (success ordering Acquire or AcqRel, found `{o1}`)"
                        )
                    }),
                    _ => Some(format!(
                        "`{method}` on the sequence cell is outside the seqlock \
                         protocol (load/store/CAS only)"
                    )),
                }
            } else if o1 != "Relaxed" {
                Some(format!(
                    "non-sequence field under seqlock must be Ordering::Relaxed \
                     (found `{o1}` on `{method}`); the sequence cell orders publication"
                ))
            } else {
                None
            }
        }
        ProtocolKind::Refcount => match method {
            "fetch_add" => (o1 != "Relaxed")
                .then(|| format!("refcount increment must be Ordering::Relaxed (found `{o1}`)")),
            "fetch_sub" => (!matches!(o1, "Release" | "AcqRel")).then(|| {
                format!(
                    "refcount decrement must be Ordering::Release or AcqRel \
                     (found `{o1}`): prior writes must happen-before the drop"
                )
            }),
            "fence" => (!matches!(o1, "Acquire" | "Release"))
                .then(|| format!("refcount fences must be Acquire or Release (found `{o1}`)")),
            _ => ords
                .iter()
                .any(|o| o == "SeqCst")
                .then(|| format!("needless `SeqCst` on refcount `{method}`")),
        },
        ProtocolKind::ReleaseFlag => match method {
            "store" => (o1 != "Release")
                .then(|| format!("flag store must be Ordering::Release (found `{o1}`)")),
            "load" => (o1 != "Acquire")
                .then(|| format!("flag load must be Ordering::Acquire (found `{o1}`)")),
            "fence" => (!matches!(o1, "Acquire" | "Release"))
                .then(|| format!("flag fences must be Acquire or Release (found `{o1}`)")),
            m if is_rmw(m) => (o1 != "AcqRel")
                .then(|| format!("flag read-modify-write must be AcqRel (found `{o1}`)")),
            _ => None,
        },
    }
}
