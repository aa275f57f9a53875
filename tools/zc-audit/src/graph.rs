//! The call graph the inter-procedural passes share: one name → function
//! index, built once per audit, and one breadth-first reach over it.
//!
//! Calls resolve by bare name (no type inference): `x.dispatch(..)` links
//! to every workspace `fn dispatch`. Each pass decides which namesakes an
//! edge really reaches (wire-taint: non-test fns, std-prelude names only
//! within the same impl; reactor-readiness: every non-test fn of the name
//! at once); the reach records how each function was first arrived at.

use std::collections::{HashMap, HashSet};

use crate::parser::FnItem;
use crate::FileAnalysis;

/// Global function handle: (file index, item index).
pub(crate) type FnRef = (usize, usize);

/// Every workspace function by bare name, in file then item order.
pub(crate) struct NameIndex<'a> {
    pub(crate) files: &'a [FileAnalysis],
    by_name: HashMap<&'a str, Vec<FnRef>>,
}

impl<'a> NameIndex<'a> {
    pub(crate) fn new(files: &'a [FileAnalysis]) -> Self {
        let mut by_name: HashMap<&str, Vec<FnRef>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                by_name.entry(&item.name).or_default().push((fi, ii));
            }
        }
        NameIndex { files, by_name }
    }

    /// Every function named `name` (empty when there is none).
    pub(crate) fn named(&self, name: &str) -> &[FnRef] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn item(&self, r: FnRef) -> &'a FnItem {
        &self.files[r.0].items[r.1]
    }
}

/// How the reach first arrived at a function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Visit {
    pub(crate) at: FnRef,
    /// The seed whose breadth-first tree got here first.
    pub(crate) seed: FnRef,
    /// Call edges from that seed (0 for the seed itself).
    pub(crate) dist: u32,
    /// The function whose call got here first (`None` for a seed).
    pub(crate) parent: Option<FnRef>,
}

/// Breadth-first reach from `seeds`, in order, along `next`: the candidate
/// callees of a visited function. A candidate already visited is skipped,
/// so each function is visited once, by the first path to it. Returns the
/// visits in the order they were made — the order `next` was called in.
pub(crate) fn reach(
    seeds: impl IntoIterator<Item = FnRef>,
    mut next: impl FnMut(FnRef) -> Vec<FnRef>,
) -> Vec<Visit> {
    let mut seen = HashSet::new();
    let mut visits: Vec<Visit> = seeds
        .into_iter()
        .filter(|&s| seen.insert(s))
        .map(|s| Visit {
            at: s,
            seed: s,
            dist: 0,
            parent: None,
        })
        .collect();
    let mut head = 0;
    while let Some(&v) = visits.get(head) {
        head += 1;
        for g in next(v.at) {
            if seen.insert(g) {
                visits.push(Visit {
                    at: g,
                    seed: v.seed,
                    dist: v.dist + 1,
                    parent: Some(v.at),
                });
            }
        }
    }
    visits
}
