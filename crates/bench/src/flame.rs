//! `zc-top --spool` — offline journey reconstruction and critical-path
//! analysis over durable trace-spool segments.
//!
//! The flight recorder answers "what just happened"; the spool answers
//! "what happened to that run" after the process is gone. This module is
//! the reader side: it loads every segment of a spool directory
//! (tolerating torn tails — the segments are untrusted input, see
//! `zc_trace::read_spool_segment`), joins `Attempt` events to their stage
//! timelines on the per-send trace id, groups attempts into journeys on
//! the journey id, and computes each journey's critical path — the §5.2
//! per-stage decomposition extended across retries, failovers and sheds.
//!
//! Output comes in two shapes: a text flamegraph per journey (plus
//! per-stage and per-cause aggregate percentiles), and a machine summary
//! under the [`FLAME_SCHEMA`] schema for CI.

use std::fmt::Write as _;
use std::path::Path;

use zc_json::{Layout, Writer};
use zc_trace::{
    read_spool_segment, span_timelines, spool_segments, unpack_attempt, EventKind, JourneyCause,
    SpanTimeline, SpoolError, Stage, TraceEvent,
};

/// Schema tag of the `--json` machine summary.
pub const FLAME_SCHEMA: &str = "zcorba-flame/v1";

/// One attempt of a journey: the causal child span.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The attempt's per-send trace id (join key to its stage timeline).
    pub trace_id: u64,
    /// Why this attempt exists.
    pub cause: JourneyCause,
    /// 0-based ordinal within the journey (saturated to 255 on the wire).
    pub ordinal: u32,
    /// Timestamp of the attempt event (trace clock).
    pub ts_ns: u64,
    /// The attempt's joined stage timeline, when its stage events made it
    /// into the spool window.
    pub timeline: Option<SpanTimeline>,
}

impl Attempt {
    /// The attempt's critical path: the sum of its disjoint stage legs
    /// (zero when no stage events survived).
    pub fn critical_path_ns(&self) -> u64 {
        self.timeline
            .as_ref()
            .map_or(0, SpanTimeline::critical_path_ns)
    }
}

/// One reconstructed logical request: every attempt sharing a journey id,
/// in ordinal order.
#[derive(Debug, Clone)]
pub struct Journey {
    /// The journey id (low 48 bits, as carried in the attempt payload).
    pub journey_id: u64,
    /// Attempts in ordinal order.
    pub attempts: Vec<Attempt>,
}

impl Journey {
    /// Whether the whole causal chain survived into the spool window:
    /// ordinals are contiguous from 0 and the first attempt is the
    /// `initial` one, not a recovery.
    pub fn is_complete(&self) -> bool {
        self.attempts
            .iter()
            .enumerate()
            .all(|(i, a)| a.ordinal == i as u32)
            && self.attempts.first().map(|a| a.cause) == Some(JourneyCause::Initial)
    }

    /// Whether the journey recovered across attempts: complete, and at
    /// least one attempt was produced by a recovery path (retry, failover
    /// or shed-rotate).
    pub fn is_recovered(&self) -> bool {
        self.is_complete()
            && self.attempts.iter().any(|a| {
                matches!(
                    a.cause,
                    JourneyCause::Retry | JourneyCause::Failover | JourneyCause::ShedRotate
                )
            })
    }

    /// The journey's critical path: attempts are strictly sequential (the
    /// next begins only after the previous failed), so their critical
    /// paths sum.
    pub fn critical_path_ns(&self) -> u64 {
        self.attempts.iter().map(Attempt::critical_path_ns).sum()
    }
}

/// What a spool-directory load saw, besides the events themselves.
#[derive(Debug, Default, Clone)]
pub struct LoadStats {
    /// Segment files read.
    pub segments: usize,
    /// Segments whose tail was torn or corrupt (valid prefix still used).
    pub truncated_segments: usize,
    /// Segments that were not readable at all (bad magic/version/io).
    pub unreadable_segments: usize,
    /// Events skipped inside valid records (unknown layer/kind bytes).
    pub skipped_events: u64,
    /// Total events loaded.
    pub events: usize,
}

/// Load every segment of a spool directory, oldest first, tolerating torn
/// tails and skipping unreadable files (they are counted, not fatal — an
/// operator pointing `zc-top --spool` at a live or damaged spool still
/// gets the valid prefix). Errors only when the directory holds no
/// readable segment at all.
pub fn load_spool_dir(dir: &Path) -> Result<(Vec<TraceEvent>, LoadStats), SpoolError> {
    let mut events = Vec::new();
    let mut stats = LoadStats::default();
    let mut first_err = None;
    for seg in spool_segments(dir) {
        match read_spool_segment(&seg) {
            Ok(read) => {
                stats.segments += 1;
                stats.truncated_segments += read.truncated as usize;
                stats.skipped_events += read.skipped_events;
                events.extend(read.events);
            }
            Err(e) => {
                stats.unreadable_segments += 1;
                first_err.get_or_insert(e);
            }
        }
    }
    if stats.segments == 0 {
        return Err(first_err.unwrap_or_else(|| {
            SpoolError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no spool segments in {}", dir.display()),
            ))
        }));
    }
    stats.events = events.len();
    Ok((events, stats))
}

/// Group `Attempt` events into journeys and join each attempt to its stage
/// timeline on the trace id. Client and server both record the attempt
/// (so a one-sided spool still reconstructs); duplicates collapse on
/// `(journey, trace_id)`. Journeys are ordered by id, attempts by ordinal
/// (ties broken by timestamp: the wire saturates ordinals at 255).
pub fn reconstruct_journeys(events: &[TraceEvent]) -> Vec<Journey> {
    let timelines = span_timelines(events);
    let mut journeys: Vec<Journey> = Vec::new();
    for ev in events {
        if ev.kind != EventKind::Attempt {
            continue;
        }
        // Untrusted payload: an unknown cause byte drops the event.
        let Some((cause, ordinal, journey_id)) = unpack_attempt(ev.payload) else {
            continue;
        };
        if journey_id == 0 {
            continue;
        }
        let j = match journeys.iter().position(|j| j.journey_id == journey_id) {
            Some(i) => &mut journeys[i],
            None => {
                journeys.push(Journey {
                    journey_id,
                    attempts: Vec::new(),
                });
                journeys.last_mut().expect("just pushed")
            }
        };
        // The other endpoint mirrors the same attempt (same trace id, same
        // ordinal): collapse it. Attempts aborted before the wire carry
        // trace id 0 — distinct ordinals keep them apart.
        if j.attempts
            .iter()
            .any(|a| a.trace_id == ev.trace_id && a.ordinal == ordinal)
        {
            continue;
        }
        let timeline = timelines
            .iter()
            .find(|t| t.trace_id == ev.trace_id)
            .cloned();
        j.attempts.push(Attempt {
            trace_id: ev.trace_id,
            cause,
            ordinal,
            ts_ns: ev.ts_ns,
            timeline,
        });
    }
    for j in &mut journeys {
        j.attempts.sort_by_key(|a| (a.ordinal, a.ts_ns, a.trace_id));
    }
    journeys.sort_unstable_by_key(|j| j.journey_id);
    journeys
}

/// The full offline analysis of one spool directory.
#[derive(Debug)]
pub struct FlameAnalysis {
    /// Reconstructed journeys, by id.
    pub journeys: Vec<Journey>,
    /// Load accounting.
    pub stats: LoadStats,
}

/// Load a spool directory and reconstruct its journeys.
pub fn analyze_spool_dir(dir: &Path) -> Result<FlameAnalysis, SpoolError> {
    let (events, stats) = load_spool_dir(dir)?;
    Ok(FlameAnalysis {
        journeys: reconstruct_journeys(&events),
        stats,
    })
}

/// Percentile (nearest-rank) of a sorted slice; 0 when empty.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-stage duration samples across every attempt timeline, sorted.
fn stage_samples(journeys: &[Journey]) -> Vec<(Stage, Vec<u64>)> {
    let mut per_stage: Vec<(Stage, Vec<u64>)> =
        Stage::ALL.into_iter().map(|s| (s, Vec::new())).collect();
    for j in journeys {
        for a in &j.attempts {
            let Some(tl) = &a.timeline else { continue };
            for (stage, samples) in &mut per_stage {
                if let Some(s) = tl.get(*stage) {
                    samples.push(s.dur_ns);
                }
            }
        }
    }
    for (_, samples) in &mut per_stage {
        samples.sort_unstable();
    }
    per_stage.retain(|(_, samples)| !samples.is_empty());
    per_stage
}

/// Per-cause attempt counts and sorted critical-path samples.
fn cause_samples(journeys: &[Journey]) -> Vec<(JourneyCause, Vec<u64>)> {
    let mut per_cause: Vec<(JourneyCause, Vec<u64>)> = JourneyCause::ALL
        .into_iter()
        .map(|c| (c, Vec::new()))
        .collect();
    for j in journeys {
        for a in &j.attempts {
            let slot = &mut per_cause[a.cause as usize].1;
            slot.push(a.critical_path_ns());
        }
    }
    for (_, samples) in &mut per_cause {
        samples.sort_unstable();
    }
    per_cause.retain(|(_, samples)| !samples.is_empty());
    per_cause
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

const BAR_WIDTH: usize = 32;

fn bar(dur: u64, max: u64) -> String {
    if max == 0 {
        return String::new();
    }
    let filled = ((dur as f64 / max as f64) * BAR_WIDTH as f64).round() as usize;
    let filled = filled.clamp(usize::from(dur > 0), BAR_WIDTH);
    "█".repeat(filled)
}

/// Render the per-journey text flamegraph: every attempt as a child span
/// with its cause tag, every stage leg as a proportional bar. `top`
/// bounds how many journeys are rendered (longest critical path first);
/// the header always counts all of them.
pub fn render_text(analysis: &FlameAnalysis, top: usize) -> String {
    let mut out = String::new();
    let st = &analysis.stats;
    let complete = analysis.journeys.iter().filter(|j| j.is_complete()).count();
    let recovered = analysis
        .journeys
        .iter()
        .filter(|j| j.is_recovered())
        .count();
    let attempts: usize = analysis.journeys.iter().map(|j| j.attempts.len()).sum();
    let _ = writeln!(
        out,
        "zc-flame · {} events from {} segment(s) ({} truncated, {} unreadable, {} skipped events)",
        st.events, st.segments, st.truncated_segments, st.unreadable_segments, st.skipped_events
    );
    let _ = writeln!(
        out,
        "journeys {} ({complete} complete, {recovered} recovered) · attempts {attempts}",
        analysis.journeys.len()
    );

    // Longest critical paths first: the journeys worth staring at.
    let mut by_cost: Vec<&Journey> = analysis.journeys.iter().collect();
    by_cost.sort_by_key(|j| std::cmp::Reverse(j.critical_path_ns()));
    let shown = by_cost.len().min(top);
    if shown < by_cost.len() {
        let _ = writeln!(
            out,
            "showing the {shown} longest of {} journeys (--top to change)",
            by_cost.len()
        );
    }
    for j in &by_cost[..shown] {
        let _ = writeln!(
            out,
            "\njourney {} · {} attempt(s) · critical path {}{}",
            j.journey_id,
            j.attempts.len(),
            fmt_ns(j.critical_path_ns()),
            if j.is_complete() {
                ""
            } else {
                " · INCOMPLETE"
            },
        );
        let max_leg = j
            .attempts
            .iter()
            .filter_map(|a| a.timeline.as_ref())
            .flat_map(|tl| Stage::ALL.into_iter().filter_map(|s| tl.get(s)))
            .map(|s| s.dur_ns)
            .max()
            .unwrap_or(0);
        for a in &j.attempts {
            let _ = writeln!(
                out,
                "  attempt {} [{}] trace {} · {}",
                a.ordinal,
                a.cause.name(),
                a.trace_id,
                fmt_ns(a.critical_path_ns()),
            );
            let Some(tl) = &a.timeline else {
                let _ = writeln!(out, "    (no stage events in the spool window)");
                continue;
            };
            for stage in Stage::ALL {
                if let Some(s) = tl.get(stage) {
                    let _ = writeln!(
                        out,
                        "    {:<16}{:>12}  {}",
                        stage.name(),
                        fmt_ns(s.dur_ns),
                        bar(s.dur_ns, max_leg)
                    );
                }
            }
        }
    }

    let stages = stage_samples(&analysis.journeys);
    if !stages.is_empty() {
        let _ = writeln!(out, "\nper-stage aggregate (across all attempts)");
        let _ = writeln!(
            out,
            "  {:<16}{:>8}{:>12}{:>12}{:>12}",
            "stage", "n", "p50", "p90", "p99"
        );
        for (stage, samples) in &stages {
            let _ = writeln!(
                out,
                "  {:<16}{:>8}{:>12}{:>12}{:>12}",
                stage.name(),
                samples.len(),
                fmt_ns(percentile(samples, 50.0)),
                fmt_ns(percentile(samples, 90.0)),
                fmt_ns(percentile(samples, 99.0)),
            );
        }
    }
    let causes = cause_samples(&analysis.journeys);
    if !causes.is_empty() {
        let _ = writeln!(out, "\nper-cause attempts (critical path)");
        let _ = writeln!(out, "  {:<16}{:>8}{:>12}{:>12}", "cause", "n", "p50", "p99");
        for (cause, samples) in &causes {
            let _ = writeln!(
                out,
                "  {:<16}{:>8}{:>12}{:>12}",
                cause.name(),
                samples.len(),
                fmt_ns(percentile(samples, 50.0)),
                fmt_ns(percentile(samples, 99.0)),
            );
        }
    }
    out
}

/// Render the machine summary (schema [`FLAME_SCHEMA`]). `top` bounds the
/// per-journey detail array (longest critical path first); the scalar
/// totals always cover everything.
pub fn render_json(analysis: &FlameAnalysis, top: usize) -> String {
    let st = &analysis.stats;
    let complete = analysis.journeys.iter().filter(|j| j.is_complete()).count();
    let recovered = analysis
        .journeys
        .iter()
        .filter(|j| j.is_recovered())
        .count();
    let multi = analysis
        .journeys
        .iter()
        .filter(|j| j.attempts.len() > 1)
        .count();
    let attempts: usize = analysis.journeys.iter().map(|j| j.attempts.len()).sum();
    let mut w = Writer::new();
    w.begin_object(Layout::Compact)
        .field_str("schema", FLAME_SCHEMA)
        .field("events", st.events)
        .field("segments", st.segments)
        .field("truncated_segments", st.truncated_segments)
        .field("unreadable_segments", st.unreadable_segments)
        .field("skipped_events", st.skipped_events)
        .field("journeys_total", analysis.journeys.len())
        .field("journeys_complete", complete)
        .field("journeys_recovered", recovered)
        .field("multi_attempt_journeys", multi)
        .field("attempts_total", attempts);

    w.key("cause_attempts").begin_object(Layout::Compact);
    for (cause, samples) in cause_samples(&analysis.journeys) {
        w.field(cause.name(), samples.len());
    }
    w.end();

    let stages = stage_samples(&analysis.journeys);
    for (key, p) in [("stage_p50_ns", 50.0), ("stage_p99_ns", 99.0)] {
        w.key(key).begin_object(Layout::Compact);
        for (stage, samples) in &stages {
            w.field(stage.name(), percentile(samples, p));
        }
        w.end();
    }

    let mut by_cost: Vec<&Journey> = analysis.journeys.iter().collect();
    by_cost.sort_by_key(|j| std::cmp::Reverse(j.critical_path_ns()));
    let shown = by_cost.len().min(top);
    w.key("journeys").begin_array(Layout::Compact);
    for j in &by_cost[..shown] {
        w.begin_object(Layout::Compact)
            .field("journey_id", j.journey_id)
            .field("complete", j.is_complete())
            .field("recovered", j.is_recovered())
            .field("critical_path_ns", j.critical_path_ns());
        w.key("attempts").begin_array(Layout::Compact);
        for a in &j.attempts {
            w.begin_object(Layout::Compact)
                .field("ordinal", a.ordinal)
                .field_str("cause", a.cause.name())
                .field("trace_id", a.trace_id)
                .field("critical_path_ns", a.critical_path_ns());
            w.key("stages").begin_object(Layout::Compact);
            if let Some(tl) = &a.timeline {
                for stage in Stage::ALL {
                    if let Some(s) = tl.get(stage) {
                        w.field(stage.name(), s.dur_ns);
                    }
                }
            }
            w.end().end();
        }
        w.end().end();
    }
    w.end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_trace::{pack_attempt, pack_stage, TraceLayer, JOURNEY_ID_MASK};

    fn attempt_ev(trace_id: u64, cause: JourneyCause, ordinal: u32, journey: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: 10 * trace_id,
            conn_id: 1,
            trace_id,
            layer: TraceLayer::Orb,
            kind: EventKind::Attempt,
            payload: pack_attempt(cause, ordinal, journey),
        }
    }

    fn stage_ev(trace_id: u64, stage: Stage, dur: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: 10 * trace_id + 1,
            conn_id: 1,
            trace_id,
            layer: stage.layer(),
            kind: EventKind::Stage,
            payload: pack_stage(stage, dur),
        }
    }

    #[test]
    fn reconstructs_failover_journey() {
        let events = vec![
            attempt_ev(101, JourneyCause::Initial, 0, 9),
            stage_ev(101, Stage::ClientMarshal, 100),
            stage_ev(101, Stage::Wire, 400),
            // the server's mirror of the same attempt collapses
            attempt_ev(101, JourneyCause::Initial, 0, 9),
            attempt_ev(102, JourneyCause::Failover, 1, 9),
            stage_ev(102, Stage::ClientMarshal, 50),
            stage_ev(102, Stage::ServerDispatch, 200),
            // a different journey
            attempt_ev(201, JourneyCause::Initial, 0, 10),
        ];
        let journeys = reconstruct_journeys(&events);
        assert_eq!(journeys.len(), 2);
        let j = &journeys[0];
        assert_eq!(j.journey_id, 9);
        assert_eq!(j.attempts.len(), 2);
        assert_eq!(j.attempts[0].cause, JourneyCause::Initial);
        assert_eq!(j.attempts[1].cause, JourneyCause::Failover);
        assert_eq!(j.attempts[1].ordinal, 1);
        assert!(j.is_complete());
        assert!(j.is_recovered());
        assert_eq!(j.critical_path_ns(), 100 + 400 + 50 + 200);
        assert!(journeys[1].is_complete());
        assert!(!journeys[1].is_recovered());
    }

    #[test]
    fn ring_evicted_opener_marks_journey_incomplete() {
        // Only the failover attempt survived the ring: ordinal 1 without 0.
        let events = vec![attempt_ev(102, JourneyCause::Failover, 1, 9)];
        let journeys = reconstruct_journeys(&events);
        assert_eq!(journeys.len(), 1);
        assert!(!journeys[0].is_complete());
        assert!(!journeys[0].is_recovered());
    }

    #[test]
    fn unknown_cause_and_zero_journey_are_dropped() {
        let mut bad = attempt_ev(101, JourneyCause::Initial, 0, 9);
        bad.payload = 0xFFu64 << 56 | 9; // unknown cause byte
        let zero = attempt_ev(102, JourneyCause::Initial, 0, 0);
        assert!(reconstruct_journeys(&[bad, zero]).is_empty());
    }

    #[test]
    fn journey_ids_mask_to_48_bits() {
        let ev = attempt_ev(101, JourneyCause::Initial, 0, u64::MAX);
        let journeys = reconstruct_journeys(&[ev]);
        assert_eq!(journeys[0].journey_id, JOURNEY_ID_MASK);
    }

    #[test]
    fn json_summary_has_schema_and_counts() {
        let events = vec![
            attempt_ev(101, JourneyCause::Initial, 0, 9),
            stage_ev(101, Stage::Wire, 400),
            attempt_ev(102, JourneyCause::Failover, 1, 9),
        ];
        let analysis = FlameAnalysis {
            journeys: reconstruct_journeys(&events),
            stats: LoadStats {
                segments: 1,
                events: events.len(),
                ..LoadStats::default()
            },
        };
        let json = render_json(&analysis, 10);
        let parsed = zc_json::parse(&json).expect("flame json parses");
        assert_eq!(
            parsed.get("schema").and_then(|j| j.as_str()),
            Some(FLAME_SCHEMA)
        );
        assert_eq!(
            parsed.get("journeys_total").and_then(|j| j.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            parsed.get("journeys_recovered").and_then(|j| j.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            parsed.get("attempts_total").and_then(|j| j.as_f64()),
            Some(2.0)
        );
        let text = render_text(&analysis, 10);
        assert!(text.contains("journey 9"));
        assert!(text.contains("[failover]"));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }
}
