//! # anker-dura — durability for AnKerDB
//!
//! The ninth subsystem: a redo **write-ahead log** with group commit, a
//! **snapshot-consistent checkpoint** format, and the file-level recovery
//! machinery behind `AnkerDb::open`. This crate owns the on-disk formats
//! and the fsync discipline; the engine (`anker-core`) owns *when* records
//! are written and how recovery re-applies them.
//!
//! The checkpoint design leans directly on the paper's core asset: frozen
//! virtual snapshot epochs are immutable by construction, so a
//! checkpointer holding an epoch pin can stream every column to disk with
//! **zero quiescence** — no commit ever waits on checkpoint I/O, the same
//! decoupling Hekaton-style main-memory engines use (Larson et al. 2011;
//! Li et al.'s snapshot-checkpointing survey calls this the
//! consistent-snapshot family).
//!
//! ```
//! use anker_dura::{replay_dir, Wal, WalRecord, WalWrite};
//!
//! let dir = std::env::temp_dir().join(format!("anker-dura-doc-{}", std::process::id()));
//! let wal = Wal::open(&dir).unwrap();
//! let lsn = wal
//!     .append(&WalRecord::Commit {
//!         commit_ts: 1,
//!         seq: 0,
//!         writes: vec![WalWrite { table: 0, col: 0, row: 7, word: 42 }],
//!     })
//!     .unwrap();
//! wal.sync_to(lsn).unwrap(); // group-commit fsync
//! drop(wal);
//! let summary = replay_dir(&dir, |_rec| Ok(())).unwrap();
//! assert_eq!(summary.commits, 1);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod checkpoint;
pub mod crc;
pub mod error;
pub mod record;
pub mod wal;

pub use checkpoint::{load_newest, prune, CheckpointData, CheckpointWriter};
pub use error::{DuraError, Result};
pub use record::{ColumnMeta, TableMeta, WalRecord, WalWrite, TY_DATE, TY_DICT, TY_DOUBLE, TY_INT};
pub use wal::{replay_dir, Lsn, ReplaySummary, Wal};

/// How hard a commit promises to be on disk before it reports success.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityLevel {
    /// No write-ahead logging at all (the process-lifetime engine the
    /// paper evaluates). Default.
    #[default]
    Off,
    /// Append every commit to the WAL via a buffered OS write, no fsync:
    /// survives process crashes (`kill -9`) but not OS/power failures.
    Buffered,
    /// Append **and** group-commit `fdatasync` before the commit returns:
    /// survives OS/power failures up to the last acknowledged commit.
    Fsync,
}

impl DurabilityLevel {
    /// The level selected by the `ANKER_DURABILITY` environment variable
    /// (`off` / `buffered` / `fsync`, case-insensitive), or `None` when
    /// unset.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value — whoever set the variable asked
    /// for a specific durability contract, and silently running without
    /// one would be worse than refusing to start.
    pub fn from_env() -> Option<DurabilityLevel> {
        let v = std::env::var("ANKER_DURABILITY").ok()?;
        Some(Self::parse(&v).unwrap_or_else(|| {
            panic!("unrecognised ANKER_DURABILITY value {v:?} (expected off|buffered|fsync)")
        }))
    }

    /// Parse a level name (`off` / `buffered` / `fsync`, case-insensitive).
    pub fn parse(s: &str) -> Option<DurabilityLevel> {
        if s.eq_ignore_ascii_case("off") {
            Some(DurabilityLevel::Off)
        } else if s.eq_ignore_ascii_case("buffered") {
            Some(DurabilityLevel::Buffered)
        } else if s.eq_ignore_ascii_case("fsync") {
            Some(DurabilityLevel::Fsync)
        } else {
            None
        }
    }

    /// Short name (bench labels, logs).
    pub fn name(self) -> &'static str {
        match self {
            DurabilityLevel::Off => "off",
            DurabilityLevel::Buffered => "buffered",
            DurabilityLevel::Fsync => "fsync",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("anker-dura-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn commit(ts: u64, row: u32, word: u64) -> WalRecord {
        WalRecord::Commit {
            commit_ts: ts,
            seq: ts, // tests append in ts order; seq mirrors it
            writes: vec![WalWrite {
                table: 0,
                col: 0,
                row,
                word,
            }],
        }
    }

    #[test]
    fn append_sync_replay_round_trip() {
        let dir = tmp("round-trip");
        let registry = obs::Registry::new();
        let wal = Wal::open_in(&dir, &registry).unwrap();
        let mut last = 0;
        for ts in 1..=10u64 {
            last = wal.append(&commit(ts, ts as u32, ts * 100)).unwrap();
        }
        wal.sync_to(last).unwrap();
        #[cfg(not(feature = "obs-off"))]
        {
            let m = registry.snapshot();
            assert_eq!(m.counter("wal_commit_records_total"), Some(10));
            assert!(m.counter("wal_syncs_total").unwrap() >= 1);
        }
        drop(wal);
        let mut seen = Vec::new();
        let summary = replay_dir(&dir, |r| {
            seen.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(summary.commits, 10);
        assert_eq!(summary.last_commit_ts, 10);
        assert!(!summary.torn_tail);
        assert_eq!(seen[4], commit(5, 5, 500));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_stops_cleanly_and_open_repairs_it() {
        let dir = tmp("torn");
        let wal = Wal::open(&dir).unwrap();
        for ts in 1..=5u64 {
            wal.append(&commit(ts, 0, ts)).unwrap();
        }
        wal.sync_all().unwrap();
        drop(wal);
        // Tear the single segment mid-record.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_string_lossy().contains("wal-"))
            .unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let summary = replay_dir(&dir, |_| Ok(())).unwrap();
        assert_eq!(summary.commits, 4, "last record torn away");
        assert!(summary.torn_tail);
        // Re-opening repairs the tear and appends to a fresh segment.
        let wal = Wal::open(&dir).unwrap();
        let lsn = wal.append(&commit(9, 0, 9)).unwrap();
        wal.sync_to(lsn).unwrap();
        drop(wal);
        let summary = replay_dir(&dir, |_| Ok(())).unwrap();
        assert_eq!(summary.commits, 5, "4 surviving + 1 new");
        assert!(!summary.torn_tail, "tear was repaired");
        assert_eq!(summary.last_commit_ts, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retirement_deletes_only_covered_segments() {
        let dir = tmp("retire");
        let registry = obs::Registry::new();
        let wal = Wal::open_in(&dir, &registry).unwrap();
        for ts in 1..=4u64 {
            wal.append(&commit(ts, 0, ts)).unwrap();
        }
        // Checkpoint at ts 4: rotate, old segment (max_ts 4) is covered.
        wal.retire_up_to(4).unwrap();
        assert_eq!(wal.segment_count().unwrap(), 1);
        for ts in 5..=6u64 {
            wal.append(&commit(ts, 0, ts)).unwrap();
        }
        // Checkpoint at ts 5 only: the rotated segment carries ts 6 and
        // must survive.
        wal.retire_up_to(5).unwrap();
        assert_eq!(wal.segment_count().unwrap(), 2);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(
            registry.snapshot().counter("wal_segments_retired_total"),
            Some(1)
        );
        drop(wal);
        let summary = replay_dir(&dir, |_| Ok(())).unwrap();
        assert_eq!(summary.commits, 2, "only the uncovered commits remain");
        assert_eq!(summary.last_commit_ts, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_round_trip_and_newest_selection() {
        let dir = tmp("ckpt");
        let tables = vec![TableMeta {
            name: "t".into(),
            rows: 3,
            cols: vec![
                ColumnMeta {
                    name: "a".into(),
                    ty: TY_INT,
                    dict_values: None,
                },
                ColumnMeta {
                    name: "f".into(),
                    ty: TY_DICT,
                    dict_values: Some(vec!["x".into(), "y".into()]),
                },
            ],
        }];
        for ts in [7u64, 9] {
            let mut w = CheckpointWriter::create(&dir, ts, &tables).unwrap();
            w.write_words(&[ts, 2, 3]).unwrap(); // column a
            w.write_words(&[0, 1, 0]).unwrap(); // column f
            w.finish().unwrap();
        }
        let data = load_newest(&dir).unwrap().unwrap();
        assert_eq!(data.ts, 9);
        assert_eq!(data.tables, tables);
        assert_eq!(data.cols[0][0], vec![9, 2, 3]);
        assert_eq!(data.cols[0][1], vec![0, 1, 0]);
        // A corrupt newest file falls back to the older one.
        let newest = dir.join(format!("ckpt-{:020}.ckpt", 9u64));
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 20] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(load_newest(&dir).unwrap().unwrap().ts, 7);
        // Prune keeps the newest `keep` files.
        prune(&dir, 1).unwrap();
        assert_eq!(
            load_newest(&dir).unwrap(),
            None,
            "only the corrupt one left"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incomplete_checkpoint_is_ignored() {
        let dir = tmp("ckpt-incomplete");
        let tables = vec![TableMeta {
            name: "t".into(),
            rows: 2,
            cols: vec![ColumnMeta {
                name: "a".into(),
                ty: TY_INT,
                dict_values: None,
            }],
        }];
        // A writer that never finishes leaves only a .tmp file.
        let mut w = CheckpointWriter::create(&dir, 5, &tables).unwrap();
        w.write_words(&[1, 2]).unwrap();
        drop(w);
        assert_eq!(load_newest(&dir).unwrap(), None);
        // A finished one with a wrong word count refuses to seal.
        let w = CheckpointWriter::create(&dir, 6, &tables).unwrap();
        assert!(w.finish().is_err(), "word count mismatch must not seal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_concurrent_syncs() {
        let dir = tmp("group");
        let registry = obs::Registry::new();
        let wal = std::sync::Arc::new(Wal::open_in(&dir, &registry).unwrap());
        let n_threads = 4u64;
        let per_thread = 25u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let wal = std::sync::Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let ts = t * per_thread + i + 1;
                        let lsn = wal.append(&commit(ts, 0, ts)).unwrap();
                        wal.sync_to(lsn).unwrap();
                    }
                });
            }
        });
        #[cfg(not(feature = "obs-off"))]
        {
            let m = registry.snapshot();
            let records = m.counter("wal_commit_records_total").unwrap();
            assert_eq!(records, n_threads * per_thread);
            assert!(
                m.counter("wal_syncs_total").unwrap() <= records,
                "group commit must never sync more than once per commit"
            );
        }
        drop(wal);
        let summary = replay_dir(&dir, |_| Ok(())).unwrap();
        assert_eq!(summary.commits, n_threads * per_thread);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn second_opener_is_locked_out() {
        let dir = tmp("lock");
        let wal = Wal::open(&dir).unwrap();
        let second = Wal::open(&dir);
        assert!(
            matches!(second, Err(DuraError::Io(ref m)) if m.contains("locked")),
            "a second writer must be refused, got {second:?}"
        );
        drop(wal);
        // The lock dies with the holder.
        Wal::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durability_level_parsing() {
        assert_eq!(
            DurabilityLevel::parse("FSYNC"),
            Some(DurabilityLevel::Fsync)
        );
        assert_eq!(
            DurabilityLevel::parse("buffered"),
            Some(DurabilityLevel::Buffered)
        );
        assert_eq!(DurabilityLevel::parse("off"), Some(DurabilityLevel::Off));
        assert_eq!(DurabilityLevel::parse("nope"), None);
        assert_eq!(DurabilityLevel::Fsync.name(), "fsync");
    }
}
