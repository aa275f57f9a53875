//! In-memory spans recorded by the benchmark around its calls into the ORB,
//! their self-time arithmetic, and the span file written when a run ends.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process; one clock for every
/// thread, so client and servant spans of one operation are comparable.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The call a span covers. Client kinds are recorded on the client thread,
/// servant kinds on the server's per-connection thread.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    /// `ObjectRef::request()` plus every `StaticRequest::arg()`.
    ClientMarshal,
    /// `StaticRequest::invoke()`.
    Invoke,
    /// `Reply::result()`.
    ClientDemarshal,
    /// Servant `dispatch` entry to exit.
    Dispatch,
    /// Every `ServerRequest::arg()` of the operation.
    ServantDemarshal,
    /// `ServerRequest::result()`.
    ServantReply,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClientMarshal => "core.client_marshal",
            Kind::Invoke => "core.invoke",
            Kind::ClientDemarshal => "core.client_demarshal",
            Kind::Dispatch => "core.dispatch",
            Kind::ServantDemarshal => "core.servant_demarshal",
            Kind::ServantReply => "core.servant_reply",
        }
    }

    /// The span that caused this one; the three client calls are the roots
    /// of an operation.
    pub fn parent(self) -> Option<Kind> {
        match self {
            Kind::ClientMarshal | Kind::Invoke | Kind::ClientDemarshal => None,
            Kind::Dispatch => Some(Kind::Invoke),
            Kind::ServantDemarshal | Kind::ServantReply => Some(Kind::Dispatch),
        }
    }

    fn thread(self) -> &'static str {
        match self {
            Kind::ClientMarshal | Kind::Invoke | Kind::ClientDemarshal => "client",
            _ => "server",
        }
    }
}

/// One recorded interval. Spans of one operation share `op`, the per-op id
/// the client sends as the operation's first argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub op: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A fixed-capacity span buffer: recording never allocates, and spans past
/// the capacity are counted, not stored.
pub struct SpanLog {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn record(&mut self, op: u64, kind: Kind, start_ns: u64, end_ns: u64) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                op,
                kind,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Durations of every span of `kind`, in recording order.
pub fn durations_ns(spans: &[Span], kind: Kind) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// A span's self time: its duration minus the part of its interval that
/// `children` cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p_start, p_end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p_start), e.min(p_end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = p_start;
    for (s, e) in clipped {
        let s = s.max(frontier);
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    p_end.saturating_sub(p_start) - covered
}

/// Self time of every `parent`-kind span, joining `child`-kind spans on the
/// operation id (the two kinds may come from different threads' logs).
pub fn self_times_ns(spans: &[Span], parent: Kind, child: Kind) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.kind == child) {
        children
            .entry(s.op)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.kind == parent)
        .map(|p| {
            let kids = children.get(&p.op).map_or(&[][..], Vec::as_slice);
            self_time_ns((p.start_ns, p.end_ns), kids) as f64
        })
        .collect()
}

/// Write `spans` as the `zcorba-spans/v1` CSV described in the README.
pub fn write_file(path: &Path, header: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# zcorba-spans/v1 {header}")?;
    writeln!(out, "op,span,parent,thread,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.op,
            s.kind.name(),
            s.kind.parent().map_or("", Kind::name),
            s.kind.thread(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_covered_interval_once() {
        // Parent 100..200. One child inside, one overlapping it, one
        // hanging over the end, one entirely outside.
        let children = [(110, 130), (120, 140), (190, 250), (300, 400)];
        assert_eq!(self_time_ns((100, 200), &children), 100 - 30 - 10);
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        assert_eq!(self_time_ns((100, 200), &[(0, 1000)]), 0);
    }

    #[test]
    fn cross_thread_join_is_on_the_op_id() {
        let span = |op, kind, start_ns, end_ns| Span {
            op,
            kind,
            start_ns,
            end_ns,
        };
        // Client log and server log concatenated, server spans out of
        // order: op 2's dispatch must not be charged to op 1's invoke even
        // though the intervals would overlap.
        let spans = [
            span(1, Kind::Invoke, 1000, 2000),
            span(2, Kind::Invoke, 2100, 3100),
            span(3, Kind::Invoke, 3200, 3300),
            span(2, Kind::Dispatch, 1500, 2900),
            span(1, Kind::Dispatch, 1200, 1600),
        ];
        let selfs = self_times_ns(&spans, Kind::Invoke, Kind::Dispatch);
        assert_eq!(selfs, vec![600.0, 200.0, 100.0]);
        assert_eq!(durations_ns(&spans, Kind::Dispatch), vec![1400.0, 400.0]);
    }

    #[test]
    fn a_full_log_counts_what_it_drops() {
        let mut log = SpanLog::with_capacity(2);
        let capacity = log.spans.capacity() as u64;
        for op in 0..capacity + 3 {
            log.record(op, Kind::Invoke, op, op + 1);
        }
        assert_eq!(log.spans().len() as u64, capacity);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn span_file_round_trips_by_eye() {
        // Under the package's own ignored `out/`, like the real span files.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/spans-unit-test");
        let path = dir.join("t.spans.csv");
        let spans = [Span {
            op: 9,
            kind: Kind::Dispatch,
            start_ns: 5,
            end_ns: 8,
        }];
        write_file(&path, "workload=t seed=1", &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            text,
            "# zcorba-spans/v1 workload=t seed=1\n\
             op,span,parent,thread,start_ns,end_ns\n\
             9,core.dispatch,core.invoke,server,5,8\n"
        );
    }
}
