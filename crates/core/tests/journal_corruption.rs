//! Corruption matrix for the sweep WAL: *any* truncation and *any*
//! single-bit flip of a valid journal must replay to a valid job-queue
//! state or a typed [`JournalError`] — never a panic, and never a
//! silently misapplied record. Truncation is the one corruption a WAL
//! must *tolerate* (a `kill -9` mid-append is a truncation), so the
//! assertions distinguish the two regimes:
//!
//! * a truncated journal salvages exactly the complete-frame prefix,
//!   reports the tear, and the rebuilt queue equals the queue built by
//!   applying that prefix of the original history — then re-defining
//!   the sweep's jobs from spec (the orchestrator's reconciliation
//!   step) restores every job, so none is silently lost;
//! * a bit-flipped journal either surfaces a typed error (CRC or magic
//!   or length-cap), or — when the flip lands in a length word and
//!   masquerades as a tear — salvages a *byte-identical prefix* of the
//!   original records and reports dropped bytes.
//!
//! Offsets are proptest-chosen so the matrix covers the magic, length
//! words, payloads and CRCs without enumerating the format by hand.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use vpic_core::journal::{Journal, JournalError, ReplayReport};
use vpic_core::queue::{JobEvent, JobQueue};

/// A legal multi-job sweep history that holds every event kind:
/// success, retry-then-quarantine, and a running job released by a
/// restarted orchestrator.
fn history() -> Vec<JobEvent> {
    let fp = |id: u64| 0x5EED_0000 + id;
    vec![
        JobEvent::Defined {
            id: 0,
            fingerprint: fp(0),
        },
        JobEvent::Defined {
            id: 1,
            fingerprint: fp(1),
        },
        JobEvent::Defined {
            id: 2,
            fingerprint: fp(2),
        },
        JobEvent::Started { id: 0, attempt: 1 },
        JobEvent::Progress {
            id: 0,
            certified_step: 50,
        },
        JobEvent::Done {
            id: 0,
            result: vec![0xAB; 36],
        },
        JobEvent::Started { id: 1, attempt: 1 },
        JobEvent::Failed {
            id: 1,
            attempt: 1,
            cause: "sentinel tripped".into(),
        },
        JobEvent::Started { id: 2, attempt: 1 },
        JobEvent::Progress {
            id: 2,
            certified_step: 100,
        },
        // Orchestrator died here; its successor released the orphan.
        JobEvent::Released { id: 2 },
        JobEvent::Started { id: 2, attempt: 1 },
        JobEvent::Done {
            id: 2,
            result: vec![0xCD; 36],
        },
        JobEvent::Started { id: 1, attempt: 2 },
        JobEvent::Failed {
            id: 1,
            attempt: 2,
            cause: "sentinel tripped again".into(),
        },
        JobEvent::Quarantined {
            id: 1,
            cause: "out of attempts".into(),
        },
    ]
}

/// Byte image of the WAL holding [`history`], plus each frame's end
/// offset (so tests can reason about frame boundaries).
fn baseline() -> &'static (Vec<u8>, Vec<usize>) {
    static WAL: OnceLock<(Vec<u8>, Vec<usize>)> = OnceLock::new();
    WAL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("vpic_walcorrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        let mut ends = Vec::new();
        for ev in history() {
            j.append(&ev.encode()).unwrap();
            ends.push(j.len() as usize);
        }
        drop(j);
        (std::fs::read(&path).unwrap(), ends)
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpic_walcorrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Replay `bytes` as a WAL into a fresh queue, collecting raw records.
fn replay(
    path: &Path,
    bytes: &[u8],
) -> Result<(JobQueue, Vec<Vec<u8>>, ReplayReport), JournalError> {
    std::fs::write(path, bytes).unwrap();
    let mut queue = JobQueue::new();
    let mut raw = Vec::new();
    let mut defect = None;
    let (_, report) = Journal::open(path, |payload| {
        raw.push(payload.to_vec());
        if defect.is_some() {
            return;
        }
        match JobEvent::decode(payload) {
            Ok(ev) => {
                if let Err(e) = queue.apply(&ev) {
                    defect = Some(format!("apply: {e}"));
                }
            }
            Err(e) => defect = Some(format!("decode: {e}")),
        }
    })?;
    // A CRC-clean record that fails to decode or apply would be a
    // silently dropped job transition — promote it to a test failure.
    if let Some(d) = defect {
        panic!("CRC-valid record rejected by the state machine: {d}");
    }
    Ok((queue, raw, report))
}

#[test]
fn pristine_wal_replays_full_history() {
    // Sanity for the property tests: the untampered WAL replays every
    // record, so every rejection below is caused by the tampering.
    let (bytes, ends) = baseline();
    let (queue, raw, report) = replay(&scratch("pristine.wal"), bytes).unwrap();
    assert_eq!(report.records, history().len());
    assert!(!report.torn_tail);
    assert_eq!(raw.len(), ends.len());
    assert_eq!(queue.stats().done, 2);
    assert_eq!(queue.stats().quarantined, 1);
    assert!(queue.is_settled());
    // The matrix below corrupts every kind of record the queue writes.
    let kinds: std::collections::BTreeSet<_> = history().iter().map(JobEvent::name).collect();
    let every = [
        "defined",
        "started",
        "progress",
        "done",
        "failed",
        "quarantined",
        "released",
    ];
    assert_eq!(kinds, every.into_iter().collect());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_wal_salvages_exact_prefix(frac in 0usize..10_000usize) {
        let (bytes, ends) = baseline();
        let cut_len = frac * (bytes.len() - 1) / 9_999;
        let cut = &bytes[..cut_len];
        let events = history();

        if cut_len < 8 {
            // Not even a magic header: typed rejection.
            let r = replay(&scratch("trunc.wal"), cut);
            prop_assert!(matches!(r, Err(JournalError::BadMagic)));
            return Ok(());
        }
        let (queue, raw, report) =
            replay(&scratch("trunc.wal"), cut).expect("truncation is the tolerated corruption");
        // Exactly the complete frames survive — no more, no fewer.
        let complete = ends.iter().filter(|&&e| e <= cut_len).count();
        prop_assert_eq!(report.records, complete);
        // A cut at a frame boundary (or right after the magic) is
        // indistinguishable from a crash between appends: no tear.
        let at_boundary = cut_len == 8 || ends.binary_search(&cut_len).is_ok();
        prop_assert_eq!(report.torn_tail, !at_boundary);
        if report.torn_tail {
            let valid = ends[..complete].last().copied().unwrap_or(8);
            prop_assert_eq!(report.dropped_bytes, (cut_len - valid) as u64);
        }
        // Byte-identical prefix of the original records, and the queue
        // equals one built from that prefix of the history directly.
        let mut expect = JobQueue::new();
        for (i, ev) in events[..complete].iter().enumerate() {
            prop_assert_eq!(&raw[i], &ev.encode());
            expect.apply(ev).unwrap();
        }
        prop_assert_eq!(format!("{queue:?}"), format!("{expect:?}"));
        // Reconciliation heals any dropped Defined record: re-defining
        // every job from spec restores them all, none silently lost.
        let mut queue = queue;
        for id in 0..3u64 {
            queue
                .apply(&JobEvent::Defined { id, fingerprint: 0x5EED_0000 + id })
                .expect("re-defining from spec is idempotent");
        }
        prop_assert_eq!(queue.len(), 3);
    }

    #[test]
    fn single_bit_flip_is_typed_or_salvaged_prefix(
        offset in 0usize..10_000usize,
        bit in 0u32..8,
    ) {
        let (bytes, _) = baseline();
        let pos = offset * (bytes.len() - 1) / 9_999;
        let mut bad = bytes.clone();
        bad[pos] ^= 1u8 << bit;
        let events = history();

        match replay(&scratch("flip.wal"), &bad) {
            // CRC mismatch, magic damage, or an implausible length.
            Err(
                JournalError::CorruptRecord { .. } | JournalError::BadMagic,
            ) => {}
            Err(e) => return Err(format!(
                "unexpected error class for bit {bit} at byte {pos}: {e}"
            )),
            // A flip in a length word can masquerade as a torn tail;
            // the salvage must then be a byte-identical prefix with the
            // damage accounted for, never a reinterpreted record.
            Ok((_, raw, report)) => {
                prop_assert!(
                    report.torn_tail && report.records < events.len(),
                    "flip of bit {bit} at byte {pos} replayed {} records untorn",
                    report.records
                );
                for (i, r) in raw.iter().enumerate() {
                    prop_assert_eq!(r, &events[i].encode());
                }
            }
        }
    }

    #[test]
    fn killed_mid_append_salvages_and_heals(frac in 0usize..10_000usize) {
        // Simulate `kill -9` between write_all and durability: the WAL
        // ends with a proper prefix of one more valid frame. Replay
        // salvages the full history and reports the tear; the next
        // append truncates the tail and the journal is whole again.
        let (bytes, _) = baseline();
        let events = history();
        let next = JobEvent::Progress { id: 0, certified_step: 60 };
        let payload = next.encode();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&[0u8; 4]); // CRC bytes never land
        let torn_len = 1 + frac * (frame.len() - 2) / 9_999; // 1..frame.len()-1
        let mut torn = bytes.clone();
        torn.extend_from_slice(&frame[..torn_len]);

        let path = scratch("midappend.wal");
        let (queue, _, report) = replay(&path, &torn)
            .expect("a partially-written frame is a tear, not corruption");
        prop_assert_eq!(report.records, events.len());
        prop_assert!(report.torn_tail);
        prop_assert_eq!(report.dropped_bytes, torn_len as u64);
        prop_assert!(queue.is_settled());

        // Healing: one more append over the tear, then a clean replay.
        let mut q2 = JobQueue::new();
        let (mut j, _) = Journal::open(&path, |_| {}).unwrap();
        j.append(&JobEvent::Defined { id: 9, fingerprint: 9 }.encode()).unwrap();
        drop(j);
        let healed_bytes = std::fs::read(&path).unwrap();
        let (_, raw, report) = replay(&scratch("healed.wal"), &healed_bytes).unwrap();
        prop_assert!(!report.torn_tail);
        prop_assert_eq!(report.records, events.len() + 1);
        for ev in raw.iter().map(|r| JobEvent::decode(r).unwrap()) {
            q2.apply(&ev).unwrap();
        }
        prop_assert_eq!(q2.len(), 4);
    }
}
