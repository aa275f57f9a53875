//! Adversarial property tests for the spool reader. Segment files are
//! untrusted input — any process can write to the spool directory, a
//! crash can tear a record mid-write, and a bit flip on disk must never
//! take the analyzer down with it. Three guarantees under attack:
//!
//! 1. **Error, not panic** — truncation, bit flips, and pure garbage all
//!    come back as `Ok` (with the torn tail dropped) or `Err`, never a
//!    panic or abort.
//! 2. **Bounded peak allocation** — a record header lying about its
//!    length must not make the reader allocate the lie. Peak live bytes
//!    during a read stay within a fixed multiple of the 1 MiB record
//!    cap, no matter what the length prefixes claim.
//! 3. **Valid prefix survives** — whatever the damage past the first
//!    record, the intact records before it still decode, and
//!    `repair_segment` truncates to exactly that prefix.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use zc_trace::{
    read_spool_segment, repair_segment, spool_segments, EventKind, SpoolConfig, SpoolWriter,
    Telemetry, SEGMENT_MAGIC, SPOOL_EVENT_LEN,
};

/// Per-thread live-byte accounting, so tests can assert the reader's peak
/// allocation is bounded regardless of lying lengths.
#[global_allocator]
static GLOBAL: zc_test_alloc::CountingAlloc = zc_test_alloc::CountingAlloc;

/// Mirrors the reader's internal record cap (`spool::MAX_RECORD_BYTES`).
const RECORD_CAP: usize = 1 << 20;

/// Peak-allocation budget for one read: the bounded record buffer plus
/// the decoded events plus headroom for the scratch the harness itself
/// allocates. A reader that trusts a lying length prefix blows through
/// this by orders of magnitude (a `u32::MAX` length would be 4 GiB).
const READ_ALLOC_BUDGET: usize = 8 * RECORD_CAP;

fn scratch_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "zcorba-spool-prop-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One real segment written by the production writer — 300 events drained
/// from a live recorder — built once and mutated per proptest case.
fn base_segment() -> &'static Vec<u8> {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = scratch_dir("base");
        let tele = Telemetry::with_capacity(1024);
        {
            let writer = SpoolWriter::spawn(std::sync::Arc::clone(&tele), SpoolConfig::new(&dir))
                .expect("spawn spool writer");
            for i in 0..300u64 {
                tele.emit(EventKind::Invoke, 1, i + 1, i);
            }
            drop(writer); // final drain + sync
        }
        let segments = spool_segments(&dir);
        assert!(!segments.is_empty(), "writer produced no segment");
        let bytes = std::fs::read(&segments[0]).expect("read base segment");
        let read = read_spool_segment(&segments[0]).expect("base segment valid");
        assert!(!read.truncated);
        assert_eq!(read.events.len(), 300);
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

fn write_case(tag: &str, bytes: &[u8]) -> (PathBuf, PathBuf) {
    let dir = scratch_dir(tag);
    let path = dir.join("spool-00000000.zcs");
    std::fs::write(&path, bytes).unwrap();
    (dir, path)
}

/// Read under the counting allocator; returns (result, peak live delta).
fn read_bounded(path: &Path) -> (Result<usize, String>, usize) {
    zc_test_alloc::measure_peak(|| {
        read_spool_segment(path)
            .map(|r| r.events.len())
            .map_err(|e| e.to_string())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a valid segment at any byte never panics, and decodes
    /// only whole records from the intact prefix.
    #[test]
    fn prop_truncation_never_panics(cut in 0usize..=1usize << 14) {
        let base = base_segment();
        let cut = cut.min(base.len());
        let (dir, path) = write_case("trunc", &base[..cut]);
        match read_spool_segment(&path) {
            Ok(read) => {
                prop_assert!(read.events.len() <= 300);
                // A cut below the full length must flag the torn tail
                // unless it happens to land exactly on a record boundary.
                if cut < 16 {
                    prop_assert!(read.events.is_empty());
                }
            }
            Err(_) => prop_assert!(cut < 16, "whole-header segment must not hard-error"),
        }
        // Repair then re-read: the repaired file must be cleanly valid.
        if cut >= 16 {
            repair_segment(&path).unwrap();
            let read = read_spool_segment(&path).unwrap();
            prop_assert!(!read.truncated, "repair left a torn tail");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single bit flip: error or truncated data, never a panic, and
    /// never more decoded events than were written.
    #[test]
    fn prop_bit_flip_never_panics(byte in 0usize..1usize << 14, bit in 0u8..8) {
        let mut bytes = base_segment().clone();
        let byte = byte.min(bytes.len() - 1);
        bytes[byte] ^= 1 << bit;
        let (dir, path) = write_case("flip", &bytes);
        if let Ok(read) = read_spool_segment(&path) {
            prop_assert!(read.events.len() <= 300);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record whose length prefix lies (up to `u32::MAX`) must be
    /// rejected without allocating the lie: peak live allocation during
    /// the read stays under the fixed budget.
    #[test]
    fn prop_lying_length_is_not_allocated(
        lie in (RECORD_CAP as u32 + 1)..=u32::MAX,
        crc: u32,
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SEGMENT_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&lie.to_le_bytes());
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let (dir, path) = write_case("lie", &bytes);
        let (result, peak) = read_bounded(&path);
        // The oversized record is a torn/corrupt tail: zero events, no error.
        prop_assert_eq!(result, Ok(0));
        prop_assert!(
            peak <= READ_ALLOC_BUDGET,
            "reader allocated {} bytes chasing a lying length of {}",
            peak,
            lie
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// In-cap length prefixes over garbage payloads: CRC rejects them,
    /// allocation stays bounded, no panic.
    #[test]
    fn prop_garbage_records_bounded(
        len in 0u32..=(RECORD_CAP as u32),
        crc: u32,
        fill: u8,
        supplied in 0usize..4096,
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SEGMENT_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&vec![fill; supplied]);
        let (dir, path) = write_case("garbage", &bytes);
        let (result, peak) = read_bounded(&path);
        if let Ok(events) = result {
            // Only a payload that really is `len` bytes of valid records
            // with a matching CRC could decode; garbage essentially never
            // does, but if the CRC collides the count is still bounded.
            prop_assert!(events <= RECORD_CAP / SPOOL_EVENT_LEN);
        }
        prop_assert!(peak <= READ_ALLOC_BUDGET, "peak {} over budget", peak);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pure garbage files (no valid magic): hard error or empty result,
    /// never a panic.
    #[test]
    fn prop_pure_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (dir, path) = write_case("pure", &bytes);
        let _ = read_spool_segment(&path);
        let _ = repair_segment(&path);
        let _ = read_spool_segment(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
