//! Durable binary trace spool: crash-tolerant segment files that outlive
//! the in-memory flight-recorder ring.
//!
//! The recorder is a fixed ring — perfect for post-mortems, useless for
//! offline analysis of a run that ended (or crashed) minutes ago. The
//! spool fixes that with a background writer ([`SpoolWriter`]) that drains
//! recorder snapshots into bounded, rotating segment files, and an
//! untrusting reader ([`read_spool_segment`]) that tolerates torn tails.
//!
//! **Zero cost when off.** The spool touches the data path nowhere: the
//! writer is a separate thread polling [`crate::FlightRecorder::snapshot`],
//! and when no spool is configured not a single instruction is added to
//! record/send/receive. The counting-allocator overhead tests pin this.
//!
//! ## Segment format
//!
//! ```text
//! [8]  magic  b"ZCSPOOL1"
//! [4]  version (u32 LE, = 1)
//! [4]  reserved (0)
//! then records until EOF:
//!   [4] payload length (u32 LE, multiple of SPOOL_EVENT_LEN, ≤ 1 MiB)
//!   [4] CRC-32 (IEEE) of the payload
//!   [n] payload: consecutive 34-byte events
//!        (ts_ns, conn_id, trace_id: u64 LE; meta: u16 LE = layer<<8|kind;
//!         payload: u64 LE)
//! ```
//!
//! A crash can only tear the *last* record of the *last* segment: records
//! are appended with a single `write_all` and earlier segments are never
//! rewritten. The reader stops at the first short/oversized/corrupt record
//! and reports the tail as truncated; [`repair_segment`] makes the
//! truncation durable by cutting the file back to its valid prefix.
//!
//! Segment files are **untrusted input** to the reader (an operator may
//! point `zc-top --spool` at any path): every length is clamped before it
//! sizes an allocation, every offset is checked, and malformed events are
//! skipped, never panicked on. The reader is registered as a wire-taint
//! entrypoint in `zc-audit.toml`.

use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{Telemetry, TraceEvent};

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"ZCSPOOL1";

/// Current segment format version.
const SEGMENT_VERSION: u32 = 1;

/// Bytes before the first record.
const SEGMENT_HEADER_LEN: usize = 16;

/// Serialized size of one event (3×u64 + u16 + u64).
pub const SPOOL_EVENT_LEN: usize = 34;

/// Hard ceiling on one record's payload: a lying length field can make the
/// reader allocate at most this much before the CRC unmasks it.
const MAX_RECORD_BYTES: usize = 1 << 20;

/// Spool writer configuration. Defaults keep a bounded window: 8 segments
/// of ~1 MiB (≈ 240k events) with a 25 ms drain cadence.
#[derive(Debug, Clone)]
pub struct SpoolConfig {
    /// Directory the segment files live in (created if absent).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Oldest segments are deleted to keep at most this many on disk.
    pub max_segments: usize,
    /// How often the writer drains the recorder.
    pub flush_interval: Duration,
}

impl SpoolConfig {
    /// Defaults for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> SpoolConfig {
        SpoolConfig {
            dir: dir.into(),
            segment_bytes: 1 << 20,
            max_segments: 8,
            flush_interval: Duration::from_millis(25),
        }
    }

    /// Override the rotation size.
    pub fn segment_bytes(mut self, bytes: u64) -> SpoolConfig {
        self.segment_bytes = bytes.max(SEGMENT_HEADER_LEN as u64 + 1);
        self
    }

    /// Override the retained-segment bound.
    pub fn max_segments(mut self, n: usize) -> SpoolConfig {
        self.max_segments = n.max(1);
        self
    }

    /// Override the drain cadence.
    pub fn flush_interval(mut self, d: Duration) -> SpoolConfig {
        self.flush_interval = d;
        self
    }
}

/// Why a segment could not be read at all. Torn tails are *not* errors —
/// they surface as [`SegmentRead::truncated`].
#[derive(Debug)]
pub enum SpoolError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`SEGMENT_MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader.
    BadVersion(u32),
}

impl std::fmt::Display for SpoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpoolError::Io(e) => write!(f, "spool i/o error: {e}"),
            SpoolError::BadMagic => write!(f, "not a zcorba spool segment (bad magic)"),
            SpoolError::BadVersion(v) => write!(f, "unsupported spool segment version {v}"),
        }
    }
}

impl std::error::Error for SpoolError {}

impl From<std::io::Error> for SpoolError {
    fn from(e: std::io::Error) -> SpoolError {
        SpoolError::Io(e)
    }
}

/// One decoded segment.
#[derive(Debug, Default)]
pub struct SegmentRead {
    /// Every event from the segment's valid record prefix, in write order.
    pub events: Vec<TraceEvent>,
    /// Whether a torn/corrupt tail was dropped (crash mid-append, or a
    /// hostile edit).
    pub truncated: bool,
    /// Events whose layer/kind byte was unknown (skipped, e.g. a segment
    /// written by a newer build).
    pub skipped_events: u64,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
}

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3) over `data`.
fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // The table index is one masked byte; `min` re-binds it through a
        // recognized clamp so taint analysis sees the bound too.
        let idx = usize::min(((c ^ b as u32) & 0xFF) as usize, 255);
        c = CRC_TABLE[idx] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn encode_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    out.extend_from_slice(&ev.ts_ns.to_le_bytes());
    out.extend_from_slice(&ev.conn_id.to_le_bytes());
    out.extend_from_slice(&ev.trace_id.to_le_bytes());
    out.extend_from_slice(&(ev.meta() as u16).to_le_bytes());
    out.extend_from_slice(&ev.payload.to_le_bytes());
}

fn decode_event(b: &[u8]) -> Option<TraceEvent> {
    if b.len() < SPOOL_EVENT_LEN {
        return None;
    }
    let u64_at = |off: usize| -> Option<u64> {
        b.get(off..off.checked_add(8)?)?
            .try_into()
            .ok()
            .map(u64::from_le_bytes)
    };
    let ts_ns = u64_at(0)?;
    let conn_id = u64_at(8)?;
    let trace_id = u64_at(16)?;
    let meta = b.get(24..26)?.try_into().ok().map(u16::from_le_bytes)? as u64;
    let payload = u64_at(26)?;
    let (layer, kind) = TraceEvent::unpack_meta(meta)?;
    Some(TraceEvent {
        ts_ns,
        conn_id,
        trace_id,
        layer,
        kind,
        payload,
    })
}

/// Fill `buf` as far as the stream allows; returns the bytes read (short
/// only at EOF). Distinguishes a clean between-records EOF (0) from a torn
/// tail (0 < n < buf.len()).
fn read_fill(rd: &mut impl std::io::Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match rd.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Read one segment file, tolerating a torn tail. Untrusted input: lengths
/// are clamped before they size allocations, corrupt records end the scan
/// (reported via [`SegmentRead::truncated`]) instead of erroring, and
/// events with unknown layer/kind bytes are counted and skipped.
pub fn read_spool_segment(path: &Path) -> Result<SegmentRead, SpoolError> {
    let file = File::open(path)?;
    let mut rd = BufReader::new(file);
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    if rd.read_exact(&mut header).is_err() {
        return Err(SpoolError::BadMagic);
    }
    if header[..8] != SEGMENT_MAGIC {
        return Err(SpoolError::BadMagic);
    }
    // Panic-free u32 reads from the fixed-size header arrays: the slices
    // are always 4 bytes, so the fallback arm is unreachable, but wire
    // bytes never get to drive a panic path even in principle.
    let le_u32 = |b: &[u8]| b.try_into().map(u32::from_le_bytes).unwrap_or(0);
    let version = le_u32(&header[8..12]);
    if version != SEGMENT_VERSION {
        return Err(SpoolError::BadVersion(version));
    }
    let mut out = SegmentRead {
        valid_len: SEGMENT_HEADER_LEN as u64,
        ..SegmentRead::default()
    };
    // One payload buffer reused across records bounds peak allocation to
    // MAX_RECORD_BYTES regardless of what the length fields claim.
    let mut payload = Vec::new();
    loop {
        let mut rec_header = [0u8; 8];
        match read_fill(&mut rd, &mut rec_header)? {
            0 => break, // clean EOF exactly between records
            n if n < rec_header.len() => {
                out.truncated = true; // partial record header: torn tail
                break;
            }
            _ => {}
        }
        let len = le_u32(&rec_header[0..4]) as usize;
        let crc = le_u32(&rec_header[4..8]);
        if len == 0 || len > MAX_RECORD_BYTES || !len.is_multiple_of(SPOOL_EVENT_LEN) {
            // A lying length field: everything from here on is garbage.
            out.truncated = true;
            break;
        }
        let len = len.min(MAX_RECORD_BYTES);
        payload.clear();
        payload.resize(len, 0);
        if rd.read_exact(&mut payload).is_err() {
            out.truncated = true;
            break;
        }
        if crc32(&payload) != crc {
            out.truncated = true;
            break;
        }
        for chunk in payload.chunks_exact(SPOOL_EVENT_LEN) {
            match decode_event(chunk) {
                Some(ev) => out.events.push(ev),
                None => out.skipped_events += 1,
            }
        }
        out.valid_len += 8 + len as u64;
    }
    Ok(out)
}

/// Cut a segment back to its valid prefix (torn-tail truncation on open).
/// Returns the retained byte length. A file that is not a spool segment at
/// all is left untouched and reported as [`SpoolError::BadMagic`].
pub fn repair_segment(path: &Path) -> Result<u64, SpoolError> {
    let scan = read_spool_segment(path)?;
    if scan.truncated {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(scan.valid_len)?;
        file.sync_all()?;
    }
    Ok(scan.valid_len)
}

/// List a spool directory's segment files, oldest first. Non-segment
/// files are ignored.
pub fn spool_segments(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut segments: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("spool-") && n.ends_with(".zcs"))
        })
        .collect();
    // Zero-padded sequence numbers sort correctly as names.
    segments.sort();
    segments
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("spool-{seq:08}.zcs"))
}

fn segment_seq(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("spool-")?
        .strip_suffix(".zcs")?
        .parse()
        .ok()
}

/// The background spool writer: drains the telemetry's flight recorder
/// into rotating segment files until dropped (drop performs a final drain
/// and joins the thread, so a clean shutdown loses nothing the recorder
/// still held).
pub struct SpoolWriter {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

struct WriterState {
    tele: Arc<Telemetry>,
    config: SpoolConfig,
    file: File,
    written: u64,
    next_seq: u64,
    /// Recorder ticket of the newest event already spooled (tickets are
    /// monotone, so `> last_ticket` is exactly "not yet drained").
    last_ticket: Option<u64>,
    batch: Vec<u8>,
}

impl SpoolWriter {
    /// Create the spool directory (repairing any torn tail a previous run
    /// left behind) and start the writer thread.
    pub fn spawn(tele: Arc<Telemetry>, config: SpoolConfig) -> std::io::Result<SpoolWriter> {
        fs::create_dir_all(&config.dir)?;
        let existing = spool_segments(&config.dir);
        if let Some(last) = existing.last() {
            // Crash tolerance: a prior process may have died mid-append.
            let _ = repair_segment(last);
        }
        let next_seq = existing
            .iter()
            .filter_map(|p| segment_seq(p))
            .max()
            .map_or(0, |m| m + 1);
        let file = open_segment(&config.dir, next_seq)?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut state = WriterState {
            tele,
            config,
            file,
            written: SEGMENT_HEADER_LEN as u64,
            next_seq: next_seq + 1,
            last_ticket: None,
            batch: Vec::new(),
        };
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("zc-spool".into())
            .spawn(move || loop {
                if thread_stop.load(Ordering::Acquire) {
                    let _ = state.drain();
                    let _ = state.file.sync_all();
                    break;
                }
                std::thread::sleep(state.config.flush_interval);
                let _ = state.drain();
            })?;
        Ok(SpoolWriter {
            stop,
            thread: Some(thread),
        })
    }

    /// Stop the writer after a final drain (also what `Drop` does).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SpoolWriter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn open_segment(dir: &Path, seq: u64) -> std::io::Result<File> {
    let mut file = File::create(segment_path(dir, seq))?;
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..8].copy_from_slice(&SEGMENT_MAGIC);
    header[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    file.write_all(&header)?;
    Ok(file)
}

impl WriterState {
    /// Drain everything the recorder holds that is newer than the last
    /// drained ticket, as one or more CRC'd records.
    fn drain(&mut self) -> std::io::Result<()> {
        let snapshot = self.tele.recorder().snapshot();
        let fresh: Vec<&TraceEvent> = snapshot
            .iter()
            .filter(|(ticket, _)| self.last_ticket.is_none_or(|last| *ticket > last))
            .map(|(_, ev)| ev)
            .collect();
        if fresh.is_empty() {
            return Ok(());
        }
        if let Some((ticket, _)) = snapshot.last() {
            self.last_ticket = Some(*ticket);
        }
        const EVENTS_PER_RECORD: usize = MAX_RECORD_BYTES / SPOOL_EVENT_LEN;
        for chunk in fresh.chunks(EVENTS_PER_RECORD) {
            self.batch.clear();
            for ev in chunk {
                encode_event(ev, &mut self.batch);
            }
            let mut record = Vec::with_capacity(8 + self.batch.len());
            record.extend_from_slice(&(self.batch.len() as u32).to_le_bytes());
            record.extend_from_slice(&crc32(&self.batch).to_le_bytes());
            record.extend_from_slice(&self.batch);
            // One write_all per record: a crash tears at most this record.
            self.file.write_all(&record)?;
            self.written += record.len() as u64;
            if self.written >= self.config.segment_bytes {
                self.rotate()?;
            }
        }
        Ok(())
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        self.file.sync_all()?;
        self.file = open_segment(&self.config.dir, self.next_seq)?;
        self.next_seq += 1;
        self.written = SEGMENT_HEADER_LEN as u64;
        let segments = spool_segments(&self.config.dir);
        if segments.len() > self.config.max_segments {
            for old in &segments[..segments.len() - self.config.max_segments] {
                let _ = fs::remove_file(old);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, TraceLayer};
    use std::sync::atomic::AtomicU64;

    fn temp_spool_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("zcorba-spool-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ev(trace_id: u64, payload: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: 1000 + trace_id,
            conn_id: 7,
            trace_id,
            layer: TraceLayer::Orb,
            kind: EventKind::Invoke,
            payload,
        }
    }

    /// Write a raw segment by hand (no writer thread) for reader tests.
    fn write_segment(path: &Path, records: &[Vec<TraceEvent>]) {
        let mut file = open_segment(path.parent().unwrap(), 0).unwrap();
        assert_eq!(path, segment_path(path.parent().unwrap(), 0));
        for events in records {
            let mut payload = Vec::new();
            for e in events {
                encode_event(e, &mut payload);
            }
            let mut record = Vec::new();
            record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            record.extend_from_slice(&crc32(&payload).to_le_bytes());
            record.extend_from_slice(&payload);
            file.write_all(&record).unwrap();
        }
    }

    #[test]
    fn roundtrip_preserves_events() {
        let dir = temp_spool_dir("roundtrip");
        fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 0);
        let records = vec![vec![ev(1, 10), ev(2, 20)], vec![ev(3, 30)]];
        write_segment(&path, &records);
        let read = read_spool_segment(&path).unwrap();
        assert!(!read.truncated);
        assert_eq!(read.skipped_events, 0);
        let flat: Vec<TraceEvent> = records.into_iter().flatten().collect();
        assert_eq!(read.events, flat);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let dir = temp_spool_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 0);
        write_segment(&path, &[vec![ev(1, 1)], vec![ev(2, 2)]]);
        // Tear mid-way through the second record.
        let full = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 10).unwrap();
        drop(file);
        let read = read_spool_segment(&path).unwrap();
        assert!(read.truncated);
        assert_eq!(read.events, vec![ev(1, 1)]);
        // Repair makes the truncation durable; a re-read is then clean.
        let kept = repair_segment(&path).unwrap();
        assert_eq!(kept, read.valid_len);
        assert_eq!(fs::metadata(&path).unwrap().len(), kept);
        let read2 = read_spool_segment(&path).unwrap();
        assert!(!read2.truncated);
        assert_eq!(read2.events, vec![ev(1, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A segment written before the degrade/upgrade kinds were retired holds
    /// Giop-layer events with kind bytes 14 and 15. The reader skips exactly
    /// those two and keeps every other event intact.
    #[test]
    fn retired_kind_bytes_are_skipped_and_the_rest_survive() {
        let dir = temp_spool_dir("retired");
        fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 0);
        let kept = [ev(1, 10), ev(2, 20), ev(3, 30)];
        let mut payload = Vec::new();
        encode_event(&kept[0], &mut payload);
        for (retired, survivor) in [(14u16, &kept[1]), (15, &kept[2])] {
            encode_event(&ev(9, 8), &mut payload);
            // The meta word sits just before the 8-byte payload.
            let meta = payload.len() - 10;
            let word = (TraceLayer::Giop as u16) << 8 | retired;
            payload[meta..meta + 2].copy_from_slice(&word.to_le_bytes());
            encode_event(survivor, &mut payload);
        }
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        open_segment(&dir, 0).unwrap().write_all(&record).unwrap();
        let read = read_spool_segment(&path).unwrap();
        assert!(!read.truncated);
        assert_eq!(read.skipped_events, 2);
        assert_eq!(read.events, kept);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_ends_the_scan() {
        let dir = temp_spool_dir("crc");
        fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 0);
        write_segment(&path, &[vec![ev(1, 1)], vec![ev(2, 2)], vec![ev(3, 3)]]);
        // Flip one payload byte of the middle record.
        let mut bytes = fs::read(&path).unwrap();
        let rec_len = 8 + SPOOL_EVENT_LEN;
        let mid_payload = SEGMENT_HEADER_LEN + rec_len + 8 + 4;
        bytes[mid_payload] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let read = read_spool_segment(&path).unwrap();
        assert!(read.truncated);
        assert_eq!(read.events, vec![ev(1, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_length_cannot_oom_the_reader() {
        let dir = temp_spool_dir("lying");
        fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 0);
        let mut file = open_segment(&dir, 0).unwrap();
        // Claims 3.4 GB of payload; the reader must refuse the record
        // without attempting the allocation.
        file.write_all(&0xCAFE_BABEu32.to_le_bytes()).unwrap();
        file.write_all(&0u32.to_le_bytes()).unwrap();
        drop(file);
        let read = read_spool_segment(&path).unwrap();
        assert!(read.truncated);
        assert!(read.events.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let dir = temp_spool_dir("magic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spool-00000000.zcs");
        fs::write(&path, b"not a segment at all").unwrap();
        assert!(matches!(
            read_spool_segment(&path),
            Err(SpoolError::BadMagic)
        ));
        // repair refuses to touch a non-segment file
        assert!(repair_segment(&path).is_err());
        assert_eq!(fs::read(&path).unwrap(), b"not a segment at all");
        let mut header = Vec::new();
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&99u32.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        fs::write(&path, &header).unwrap();
        assert!(matches!(
            read_spool_segment(&path),
            Err(SpoolError::BadVersion(99))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_drains_rotates_and_bounds_segments() {
        let dir = temp_spool_dir("writer");
        let tele = Telemetry::with_capacity(1024);
        let config = SpoolConfig::new(&dir)
            .segment_bytes(2048)
            .max_segments(3)
            .flush_interval(Duration::from_millis(5));
        let writer = SpoolWriter::spawn(Arc::clone(&tele), config).unwrap();
        for i in 0..600u64 {
            tele.emit(EventKind::Invoke, 1, i + 1, i);
            if i % 200 == 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        drop(writer); // final drain + join
        let segments = spool_segments(&dir);
        assert!(
            segments.len() >= 2 && segments.len() <= 3,
            "expected rotation within bounds, got {segments:?}"
        );
        let mut seen: Vec<u64> = Vec::new();
        for seg in &segments {
            let read = read_spool_segment(seg).unwrap();
            assert!(!read.truncated, "{seg:?}");
            seen.extend(read.events.iter().map(|e| e.trace_id));
        }
        // The retained window is a contiguous, ordered suffix of what was
        // recorded (old segments may have been pruned; ring may drop).
        assert!(!seen.is_empty());
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "events out of order");
        assert_eq!(*seen.last().unwrap(), 600);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_resumes_after_previous_run() {
        let dir = temp_spool_dir("resume");
        let tele = Telemetry::with_capacity(64);
        let config = SpoolConfig::new(&dir).flush_interval(Duration::from_millis(5));
        let w1 = SpoolWriter::spawn(Arc::clone(&tele), config.clone()).unwrap();
        tele.emit(EventKind::Invoke, 1, 1, 0);
        drop(w1);
        let first = spool_segments(&dir);
        assert_eq!(first.len(), 1);
        // A second run must not clobber the first run's segment.
        let w2 = SpoolWriter::spawn(Arc::clone(&tele), config).unwrap();
        drop(w2);
        let second = spool_segments(&dir);
        assert_eq!(second.len(), 2);
        assert_eq!(second[0], first[0]);
        let read = read_spool_segment(&second[0]).unwrap();
        assert_eq!(read.events.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
