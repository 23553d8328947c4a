//! Fuzz-style property tests for write-ahead-log recovery.
//!
//! The WAL (`oat::wal`) is the innermost parser of every byte a node
//! trusts across a process death, so its contract under damaged input
//! mirrors the frame codec's (`frame_fuzz.rs`): recovery returns a
//! state or an error, it never panics, and whatever it returns is a
//! *prefix* of what was appended — records up to the first torn or
//! corrupt frame apply, everything after is discarded and reported as
//! torn bytes, never half-applied. These properties drive truncations,
//! bit flips, garbage tails, and leftover/duplicate snapshot files
//! through both the pure replay fold and the on-disk recovery path.
//!
//! (Runs on the vendored offline `proptest` subset: no shrinking, but
//! deterministic per-test seeds, so any failure reproduces with plain
//! `cargo test`.)

use std::path::PathBuf;

use oat::wal::{
    encode_record, encode_snapshot, replay_log, Record, Wal, WalOptions, WalState, SNAP_MAGIC,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// An arbitrary valid record of any type, with bounded payloads.
fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        vec(any::<u8>(), 0..=24).prop_map(|val| Record::Write { val }),
        (any::<u32>(), 1u64..=500, 0u8..=2, vec(any::<u8>(), 0..=32)).prop_map(
            |(peer, seq, inner, body)| Record::Send {
                peer,
                seq,
                inner,
                body,
            }
        ),
        (any::<u32>(), 1u64..=500).prop_map(|(peer, rx_seq)| Record::Rx { peer, rx_seq }),
        (any::<u32>(), 1u64..=500).prop_map(|(peer, acked)| Record::Ack { peer, acked }),
        (any::<u32>(), 0u8..=3).prop_map(|(peer, bits)| Record::Lease { peer, bits }),
        (1u64..=64).prop_map(|epoch| Record::Epoch { epoch }),
        // Few tree ids, so prefixes overwrite each other's values; tree 0
        // in the long form folds like a tag-1 write.
        (0u32..=8, vec(any::<u8>(), 0..=24))
            .prop_map(|(tree, val)| Record::WriteTree { tree, val }),
    ]
}

/// Encodes `recs` as one contiguous log image.
fn encode_log(recs: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    for rec in recs {
        encode_record(rec, &mut buf);
    }
    buf
}

/// Folds a record prefix with the real replay (over an empty base).
fn fold_prefix(recs: &[Record], n: usize) -> WalState {
    replay_log(WalState::default(), &encode_log(&recs[..n])).state
}

/// Fresh per-case scratch directory under the system temp dir.
fn tmpdir(name: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "oat-wal-fuzz-{}-{}-{}",
        std::process::id(),
        name,
        case
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_of_a_whole_log_is_identity(recs in vec(record_strategy(), 0..=12)) {
        // Every record encodes, replays, and folds: no torn bytes, no
        // skips, and the fold equals the full-prefix fold by definition.
        let replay = replay_log(WalState::default(), &encode_log(&recs));
        prop_assert_eq!(replay.records, recs.len() as u64);
        prop_assert_eq!(replay.torn_bytes, 0);
        prop_assert_eq!(replay.skipped, 0);
        prop_assert_eq!(replay.state, fold_prefix(&recs, recs.len()));
    }

    #[test]
    fn every_truncation_recovers_a_prefix(
        recs in vec(record_strategy(), 1..=10),
        cut in any::<usize>(),
    ) {
        // Chop the log anywhere: replay applies exactly the records whose
        // frames survived whole, reports the rest as the torn tail, and
        // the folded state is the fold of that record prefix — never a
        // half-applied record.
        let log = encode_log(&recs);
        let cut = cut % log.len(); // strictly shorter than the log
        let replay = replay_log(WalState::default(), &log[..cut]);
        let n = replay.records as usize;
        prop_assert!(n < recs.len(), "a cut log cannot hold every record");
        prop_assert_eq!(replay.valid_len + replay.torn_bytes, cut as u64);
        prop_assert_eq!(replay.state, fold_prefix(&recs, n), "cut at {}", cut);
    }

    #[test]
    fn bit_flips_never_panic_and_keep_the_prefix_property(
        recs in vec(record_strategy(), 1..=10),
        bit in any::<usize>(),
    ) {
        // Flip one bit anywhere. The CRC catches payload damage and stops
        // replay there; a flip in a length field reads as a short/oversized
        // or CRC-failing frame. Either way replay returns some record count
        // and never panics. (A flip can also strike a `skipped` future-tag
        // record's tag byte, so the fold is only pinned when nothing was
        // skipped and replay stopped at or before the flipped record.)
        let log = encode_log(&recs);
        let mut damaged = log.clone();
        let bit = bit % (damaged.len() * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        let replay = replay_log(WalState::default(), &damaged);
        prop_assert!(replay.records <= recs.len() as u64);
        if replay.skipped == 0 && damaged[..replay.valid_len as usize] == log[..replay.valid_len as usize] {
            prop_assert_eq!(replay.state, fold_prefix(&recs, replay.records as u64 as usize));
        }
    }

    #[test]
    fn random_garbage_never_panics(bytes in vec(any::<u8>(), 0..=512)) {
        // Raw noise as a log: replay decodes whatever frames the bytes
        // spell out, then discards the rest as torn. Progress is monotone
        // and accounted byte for byte.
        let replay = replay_log(WalState::default(), &bytes);
        prop_assert_eq!(replay.valid_len + replay.torn_bytes, bytes.len() as u64);
    }

    #[test]
    fn garbage_tail_after_a_valid_log_recovers_the_whole_prefix(
        recs in vec(record_strategy(), 1..=8),
        junk in vec(any::<u8>(), 1..=64),
    ) {
        // A crashed process leaves a valid prefix plus a torn/garbage
        // tail. Every whole record applies; the tail is reported, not
        // replayed. (If the junk happens to spell more valid frames,
        // replay legitimately reads past the prefix — only require at
        // least the prefix then.)
        let mut log = encode_log(&recs);
        let prefix_len = log.len() as u64;
        log.extend_from_slice(&junk);
        let replay = replay_log(WalState::default(), &log);
        prop_assert!(replay.records >= recs.len() as u64);
        if replay.records == recs.len() as u64 && replay.valid_len == prefix_len {
            prop_assert_eq!(replay.state, fold_prefix(&recs, recs.len()));
            prop_assert_eq!(replay.torn_bytes, junk.len() as u64);
        }
    }

    #[test]
    fn disk_recovery_survives_corrupt_and_duplicate_snapshot_files(
        recs in vec(record_strategy(), 0..=8),
        snap_junk in vec(any::<u8>(), 0..=96),
        case in any::<u64>(),
    ) {
        // The on-disk path: a log plus a *corrupt* `snap` (random bytes,
        // magic-prefixed to reach the decoder) and a leftover `snap.tmp`
        // from a crashed snapshot write. Recovery must not panic, must
        // ignore both damaged snapshot artifacts, and must replay the log
        // alone — and the tmp file must be cleaned up.
        let dir = tmpdir("snapdup", case);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("wal.log"), encode_log(&recs)).expect("write log");
        let mut snap = SNAP_MAGIC.to_vec();
        snap.extend_from_slice(&snap_junk);
        std::fs::write(dir.join("snap"), &snap).expect("write corrupt snap");
        std::fs::write(dir.join("snap.tmp"), &snap_junk).expect("write tmp snap");

        let mut wal = Wal::open(&dir, WalOptions::default()).expect("open");
        let rec = wal.recover().expect("recover never errors on damage");
        prop_assert_eq!(rec.records, recs.len() as u64);
        prop_assert_eq!(rec.state, fold_prefix(&recs, recs.len()));
        prop_assert!(!dir.join("snap.tmp").exists(), "tmp snapshot must be removed");
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_recovery_folds_snapshot_under_truncated_log(
        base in vec(record_strategy(), 1..=6),
        tail in vec(record_strategy(), 1..=6),
        cut in any::<usize>(),
        case in any::<u64>(),
    ) {
        // A *valid* snapshot (the fold of `base`) with a truncated log
        // tail on top: recovery seeds from the snapshot and replays the
        // surviving tail records — prefix semantics end to end.
        let snap_state = fold_prefix(&base, base.len());
        let log = encode_log(&tail);
        let cut = cut % (log.len() + 1); // may keep the whole tail
        let dir = tmpdir("snapcut", case);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("snap"), encode_snapshot(&snap_state)).expect("write snap");
        std::fs::write(dir.join("wal.log"), &log[..cut]).expect("write log");

        let mut wal = Wal::open(&dir, WalOptions::default()).expect("open");
        let rec = wal.recover().expect("recover");
        prop_assert!(rec.found, "a snapshot alone makes recovery non-empty");
        let n = rec.records as usize;
        prop_assert!(n <= tail.len());
        let want = replay_log(snap_state, &encode_log(&tail[..n])).state;
        prop_assert_eq!(rec.state, want, "cut at {}", cut);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
