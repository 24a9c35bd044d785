//! Durability integration tests: WAL round-trips, snapshot-consistent
//! checkpoints, torn-tail recovery, and the crash-at-arbitrary-boundary
//! property — on both memory backends.
//!
//! "Crash" here means dropping the database without the final WAL fsync
//! mattering: WAL appends are unbuffered `write(2)` calls, so everything
//! appended is visible to a same-OS reopen no matter how the process
//! stops (the `kill -9` CI job covers the out-of-process case). Torn
//! tails are produced deliberately by truncating segment files.

use anker_core::{
    AnkerDb, BackendKind, ColumnDef, ColumnId, DbConfig, DbError, DurabilityLevel, LogicalType,
    Schema, TableId, TxnKind, Value,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anker-dura-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn backends() -> Vec<BackendKind> {
    #[cfg(target_os = "linux")]
    {
        vec![BackendKind::Sim, BackendKind::Os]
    }
    #[cfg(not(target_os = "linux"))]
    {
        vec![BackendKind::Sim]
    }
}

fn durable_config(backend: BackendKind, level: DurabilityLevel) -> DbConfig {
    DbConfig::heterogeneous_serializable()
        .with_snapshot_every(4)
        .with_gc_interval(None)
        .with_backend(backend)
        .with_durability(level)
}

/// One Int + one Double column, filled deterministically.
fn build_two_col(db: &AnkerDb, rows: u32) -> (TableId, ColumnId, ColumnId) {
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Double),
            ]),
            rows,
        )
        .unwrap();
    let a = db.schema(t).col("a");
    let b = db.schema(t).col("b");
    db.fill_column(t, a, (0..rows).map(|i| Value::Int(i as i64).encode()))
        .unwrap();
    db.fill_column(
        t,
        b,
        (0..rows).map(|i| Value::Double(i as f64 / 4.0).encode()),
    )
    .unwrap();
    (t, a, b)
}

/// Raw words of every cell of every column of the named tables, via an
/// OLTP read (exact, chain-aware). The "fold over all columns" of the
/// acceptance criteria.
fn full_fold(db: &AnkerDb, tables: &[&str]) -> Vec<Vec<Vec<u64>>> {
    let mut out = Vec::new();
    let mut txn = db.begin(TxnKind::Oltp);
    for name in tables {
        let t = db.table_id(name).expect("table recovered");
        let schema = db.schema(t);
        let rows = db.rows(t);
        let mut cols = Vec::new();
        for (cid, _) in schema.iter() {
            let mut words = Vec::with_capacity(rows as usize);
            for r in 0..rows {
                words.push(txn.get(t, cid, r).unwrap());
            }
            cols.push(words);
        }
        out.push(cols);
    }
    txn.abort();
    out
}

#[test]
fn clean_shutdown_round_trip_both_backends() {
    for backend in backends() {
        let dir = tmp_dir(&format!("clean-{backend:?}"));
        let cfg = durable_config(backend, DurabilityLevel::Fsync);
        {
            let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
            let (t, a, b) = build_two_col(&db, 300);
            for i in 0..50u32 {
                let mut txn = db.begin(TxnKind::Oltp);
                txn.update_value(t, a, i % 300, Value::Int(1_000 + i as i64))
                    .unwrap();
                txn.update_value(t, b, (i * 7) % 300, Value::Double(i as f64))
                    .unwrap();
                txn.commit().unwrap();
            }
            db.shutdown();
            db.shutdown(); // idempotent
        }
        let before;
        {
            let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
            let report = db.recovery_report().unwrap();
            assert_eq!(report.tables, 1);
            assert_eq!(report.commits_replayed, 50);
            assert!(!report.torn_tail);
            before = full_fold(&db, &["t"]);
            // Spot check typed content.
            let t = db.table_id("t").unwrap();
            let a = db.schema(t).col("a");
            let mut txn = db.begin(TxnKind::Oltp);
            assert_eq!(
                txn.get_value(t, a, 49).unwrap(),
                Value::Int(1_000 + 49),
                "last committed update must survive"
            );
            txn.abort();
        }
        // Recovery is deterministic: a third open yields bit-identical
        // columns.
        let db = AnkerDb::open(&dir, cfg).unwrap();
        assert_eq!(full_fold(&db, &["t"]), before, "backend {backend:?}");
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn new_commits_after_recovery_extend_the_log() {
    let dir = tmp_dir("extend");
    let cfg = durable_config(BackendKind::Sim, DurabilityLevel::Buffered);
    let (t, a) = {
        let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
        let (t, a, _) = build_two_col(&db, 64);
        let mut txn = db.begin(TxnKind::Oltp);
        txn.update_value(t, a, 0, Value::Int(-7)).unwrap();
        txn.commit().unwrap();
        (t, a)
    };
    // Generation 2: recover, commit more.
    {
        let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
        let mut txn = db.begin(TxnKind::Oltp);
        assert_eq!(txn.get_value(t, a, 0).unwrap(), Value::Int(-7));
        txn.update_value(t, a, 1, Value::Int(-8)).unwrap();
        txn.commit().unwrap();
    }
    // Generation 3 sees both generations' commits, ordered.
    let db = AnkerDb::open(&dir, cfg).unwrap();
    let report = db.recovery_report().unwrap();
    assert_eq!(report.commits_replayed, 2);
    let mut txn = db.begin(TxnKind::Oltp);
    assert_eq!(txn.get_value(t, a, 0).unwrap(), Value::Int(-7));
    assert_eq!(txn.get_value(t, a, 1).unwrap(), Value::Int(-8));
    txn.abort();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Frame boundaries (byte offsets after each complete frame, including
/// the 16-byte header as offset 0's base) and the byte at which each
/// frame's payload tag sits, for the torn-tail tests.
fn frame_boundaries(seg: &Path) -> Vec<(u64, u8)> {
    let bytes = std::fs::read(seg).unwrap();
    let mut out = Vec::new();
    let mut pos = 16usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if bytes.len() - pos - 8 < len {
            break;
        }
        let tag = bytes[pos + 8];
        pos += 8 + len;
        out.push((pos as u64, tag));
    }
    out
}

fn newest_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("a WAL segment exists")
}

#[test]
fn torn_tail_recovers_to_last_complete_commit() {
    let dir = tmp_dir("torn");
    let cfg = durable_config(BackendKind::Sim, DurabilityLevel::Buffered);
    {
        let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
        let (t, a, _) = build_two_col(&db, 32);
        for i in 0..10u32 {
            let mut txn = db.begin(TxnKind::Oltp);
            txn.update_value(t, a, i, Value::Int(500 + i as i64))
                .unwrap();
            txn.commit().unwrap();
        }
    }
    // Tear the newest segment in the middle of its final record.
    let seg = newest_segment(&dir);
    let boundaries = frame_boundaries(&seg);
    let last_commit_end = boundaries.last().unwrap().0;
    let second_last_end = boundaries[boundaries.len() - 2].0;
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len((second_last_end + last_commit_end) / 2).unwrap();
    drop(f);
    let db = AnkerDb::open(&dir, cfg).unwrap();
    let report = db.recovery_report().unwrap();
    assert!(report.torn_tail, "the tear must be reported");
    assert_eq!(report.commits_replayed, 9, "the torn 10th commit is gone");
    let t = db.table_id("t").unwrap();
    let a = db.schema(t).col("a");
    let mut txn = db.begin(TxnKind::Oltp);
    assert_eq!(txn.get_value(t, a, 8).unwrap(), Value::Int(508));
    assert_eq!(
        txn.get_value(t, a, 9).unwrap(),
        Value::Int(9),
        "the torn commit's write must NOT appear"
    );
    txn.abort();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_truncates_wal_and_recovery_starts_from_it() {
    for backend in backends() {
        let dir = tmp_dir(&format!("ckpt-{backend:?}"));
        let cfg = durable_config(backend, DurabilityLevel::Fsync);
        {
            let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
            let (t, a, b) = build_two_col(&db, 200);
            for i in 0..20u32 {
                let mut txn = db.begin(TxnKind::Oltp);
                txn.update_value(t, a, i, Value::Int(-(i as i64))).unwrap();
                txn.commit().unwrap();
            }
            let ckpt_ts = db.checkpoint().unwrap();
            assert!(ckpt_ts >= 20, "epoch covers the 20 commits");
            // Load-record segments are covered and deleted; commits after
            // the checkpoint go to the fresh segment.
            for i in 0..5u32 {
                let mut txn = db.begin(TxnKind::Oltp);
                txn.update_value(t, b, i, Value::Double(9_000.0 + i as f64))
                    .unwrap();
                txn.commit().unwrap();
            }
            #[cfg(not(feature = "obs-off"))]
            assert!(
                db.metrics().counter("wal_segments_retired_total").unwrap() >= 1,
                "the pre-checkpoint segment (holding the bulk loads) is covered"
            );
        }
        let db = AnkerDb::open(&dir, cfg).unwrap();
        let report = db.recovery_report().unwrap();
        assert!(
            report.checkpoint_ts >= 20,
            "boot starts from the checkpoint"
        );
        assert_eq!(report.commits_replayed, 5, "only the tail replays");
        let t = db.table_id("t").unwrap();
        let (a, b) = (db.schema(t).col("a"), db.schema(t).col("b"));
        let mut txn = db.begin(TxnKind::Oltp);
        assert_eq!(txn.get_value(t, a, 19).unwrap(), Value::Int(-19));
        assert_eq!(txn.get_value(t, b, 4).unwrap(), Value::Double(9_004.0));
        txn.abort();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A checkpoint images the log as of the call, not the newest epoch that
/// is still fresh enough for an OLAP arrival. A reader pins an epoch at
/// ts 0 and materialises column `a`, so the seven commits to `a` leave
/// that epoch undamaged and within `snapshot_every_commits`; the
/// checkpoint must still cut at ts 7, and recovery must replay nothing.
#[test]
fn checkpoint_covers_every_commit_before_the_call() {
    for backend in backends() {
        let dir = tmp_dir(&format!("ckpt-fresh-{backend:?}"));
        let cfg = durable_config(backend, DurabilityLevel::Buffered).with_snapshot_every(16);
        {
            let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
            let (t, a, _) = build_two_col(&db, 32);
            let reader = db.snapshot_reader().unwrap();
            assert_eq!(reader.get(t, a, 0).unwrap(), Value::Int(0).encode());
            for i in 0..7u32 {
                let mut txn = db.begin(TxnKind::Oltp);
                txn.update_value(t, a, i, Value::Int(100 + i as i64))
                    .unwrap();
                txn.commit().unwrap();
            }
            drop(reader);
            assert_eq!(db.checkpoint().unwrap(), 7, "backend {backend:?}");
        }
        let db = AnkerDb::open(&dir, cfg).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.checkpoint_ts, 7);
        assert_eq!(report.commits_replayed, 0, "the image covers the log");
        let t = db.table_id("t").unwrap();
        let a = db.schema(t).col("a");
        let mut txn = db.begin(TxnKind::Oltp);
        assert_eq!(txn.get_value(t, a, 6).unwrap(), Value::Int(106));
        txn.abort();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn checkpoint_requires_heterogeneous_mode_and_a_directory() {
    // No durability directory at all.
    let db = AnkerDb::new(DbConfig::default().with_gc_interval(None));
    assert!(matches!(db.checkpoint(), Err(DbError::DurabilityDisabled)));
    assert!(
        db.metrics().counter("wal_appends_total").is_none(),
        "no durability directory, no `wal_*` namespace"
    );
    assert!(db.recovery_report().is_none());
    // Homogeneous durable database: WAL-only durability, no checkpoints.
    let dir = tmp_dir("homo");
    let cfg = DbConfig::homogeneous_serializable()
        .with_gc_interval(None)
        .with_durability(DurabilityLevel::Buffered);
    {
        let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
        let (t, a, _) = build_two_col(&db, 16);
        let mut txn = db.begin(TxnKind::Oltp);
        txn.update_value(t, a, 3, Value::Int(42)).unwrap();
        txn.commit().unwrap();
        assert!(matches!(db.checkpoint(), Err(DbError::SnapshotsDisabled)));
    }
    let db = AnkerDb::open(&dir, cfg).unwrap();
    let t = db.table_id("t").unwrap();
    let a = db.schema(t).col("a");
    let mut txn = db.begin(TxnKind::Oltp);
    assert_eq!(
        txn.get_value(t, a, 3).unwrap(),
        Value::Int(42),
        "homogeneous mode recovers through pure WAL replay"
    );
    txn.abort();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint streams an image cut after writes to a column imaged
/// before, which it reads through the live column, while an updater keeps
/// splitting that image's pages and storing into them: each checkpoint
/// file equals the column as of its timestamp.
#[cfg(target_os = "linux")]
#[test]
fn a_checkpoint_of_a_read_through_image_equals_its_cut() {
    const ROWS: u32 = 64 * 512;
    const CHECKPOINTS: usize = 4;
    let dir = tmp_dir("through");
    let db = AnkerDb::open(
        &dir,
        durable_config(BackendKind::Os, DurabilityLevel::Buffered),
    )
    .unwrap();
    let (t, a, _) = build_two_col(&db, ROWS);
    // A first image of `a`, and a write after it, so every image the
    // checkpoints cut is read through.
    let reader = db.snapshot_reader().unwrap();
    reader.get(t, a, 0).unwrap();
    drop(reader);
    let write = |i: u32| {
        let row = (i * 4099) % ROWS;
        let mut txn = db.begin(TxnKind::Oltp);
        txn.update_value(t, a, row, Value::Int(-(i as i64)))
            .unwrap();
        (txn.commit().unwrap(), row, Value::Int(-(i as i64)).encode())
    };
    let mut log = vec![write(0)];
    let stop = AtomicBool::new(false);
    let mut images = Vec::new();
    std::thread::scope(|s| {
        let updater = s.spawn(|| {
            let mut log = Vec::new();
            let mut i = 1;
            while !stop.load(Ordering::Acquire) {
                log.push(write(i));
                i += 1;
            }
            log
        });
        for _ in 0..CHECKPOINTS {
            let ts = db.checkpoint().unwrap();
            let image = anker_dura::load_newest(&dir).unwrap().unwrap();
            assert_eq!(image.ts, ts);
            images.push(image);
        }
        stop.store(true, Ordering::Release);
        log.extend(updater.join().unwrap());
    });
    #[cfg(not(feature = "obs-off"))]
    assert!(
        db.metrics()
            .counter("snapshot_images_read_through_total")
            .unwrap()
            >= CHECKPOINTS as u64,
        "every checkpoint read an image of `a` through the live column"
    );
    for image in &images {
        let mut cut: Vec<u64> = (0..ROWS).map(|i| Value::Int(i as i64).encode()).collect();
        for &(ts, row, word) in &log {
            if ts <= image.ts {
                cut[row as usize] = word;
            }
        }
        assert!(
            image.cols[t.0 as usize][a.0] == cut,
            "the checkpoint at {} differs from its cut",
            image.ts
        );
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// The non-blocking guarantee the durability work was accepted on: while a checkpoint
/// streams hundreds of thousands of words, concurrent commits keep
/// completing, and no single commit stalls for anything near the
/// checkpoint's duration (it only ever pays its own WAL append).
#[test]
fn checkpoint_never_blocks_commits_beyond_the_wal_append() {
    let dir = tmp_dir("nonblock");
    let cfg = durable_config(BackendKind::Sim, DurabilityLevel::Buffered);
    let db = AnkerDb::open(&dir, cfg).unwrap();
    // Large enough that streaming takes real time on the simulated
    // backend (word-resolved reads); several back-to-back checkpoints
    // widen the measurement window so the assertion is robust on a
    // single-core host.
    let rows = 300_000u32;
    let (t, a, _) = build_two_col(&db, rows);
    let stop = AtomicBool::new(false);
    let in_window = AtomicBool::new(false);
    let commits_during = AtomicU64::new(0);
    let max_during_ns = AtomicU64::new(0);
    let started = AtomicBool::new(false);
    let mut ckpt_wall_ns = 0u64;
    std::thread::scope(|s| {
        let updater = s.spawn(|| {
            let mut i = 0u32;
            while !stop.load(Ordering::Acquire) {
                let began = Instant::now();
                let mut txn = db.begin(TxnKind::Oltp);
                txn.update_value(t, a, i % rows, Value::Int(i as i64))
                    .unwrap();
                txn.commit().unwrap();
                let ns = began.elapsed().as_nanos() as u64;
                started.store(true, Ordering::Release);
                // The commit-latency counter of the acceptance criteria:
                // only commits overlapping the checkpoint window count.
                if in_window.load(Ordering::Acquire) {
                    commits_during.fetch_add(1, Ordering::Relaxed);
                    max_during_ns.fetch_max(ns, Ordering::Relaxed);
                }
                i += 1;
            }
        });
        // Let the updater get going, then checkpoint concurrently.
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let began = Instant::now();
        in_window.store(true, Ordering::Release);
        for _ in 0..5 {
            db.checkpoint().unwrap();
        }
        in_window.store(false, Ordering::Release);
        ckpt_wall_ns = began.elapsed().as_nanos() as u64;
        stop.store(true, Ordering::Release);
        updater.join().unwrap();
    });
    let during = commits_during.load(Ordering::Relaxed);
    let max_ns = max_during_ns.load(Ordering::Relaxed);
    assert!(
        during >= 5,
        "commits must flow while checkpoints stream (saw {during})"
    );
    assert!(
        max_ns < ckpt_wall_ns,
        "no commit may stall for anything near the checkpoint window \
         (max commit {max_ns} ns vs window {ckpt_wall_ns} ns)"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_checkpointer_takes_checkpoints() {
    let dir = tmp_dir("bg");
    let cfg = durable_config(BackendKind::Sim, DurabilityLevel::Buffered)
        .with_checkpoint_interval(Some(std::time::Duration::from_millis(30)));
    let db = AnkerDb::open(&dir, cfg).unwrap();
    let (t, a, _) = build_two_col(&db, 64);
    let mut txn = db.begin(TxnKind::Oltp);
    txn.update_value(t, a, 1, Value::Int(77)).unwrap();
    txn.commit().unwrap();
    // Poll for the checkpoint file the background thread writes.
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let has_ckpt = || {
        std::fs::read_dir(&dir).unwrap().any(|e| {
            e.unwrap()
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt"))
        })
    };
    while !has_ckpt() {
        assert!(Instant::now() < deadline, "no checkpoint after 10s");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    db.shutdown();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Property: any committed workload, crashed at ANY record boundary in the
// commit region, recovers every column bit-identically to the state after
// exactly the commits whose records survived — on both backends.
// ---------------------------------------------------------------------

fn crash_recovery_property(
    backend: BackendKind,
    rows: u32,
    updates: &[(u8, u32, u64)],
    cut_choice: u64,
    with_checkpoint: bool,
) {
    let dir = tmp_dir(&format!(
        "prop-{backend:?}-{rows}-{cut_choice}-{with_checkpoint}"
    ));
    let cfg = durable_config(backend, DurabilityLevel::Buffered);
    // Shadow model of both columns; one entry per committed transaction.
    let mut shadow = [
        (0..rows)
            .map(|i| Value::Int(i as i64).encode())
            .collect::<Vec<u64>>(),
        (0..rows)
            .map(|i| Value::Double(i as f64 / 4.0).encode())
            .collect::<Vec<u64>>(),
    ];
    let mut per_commit: Vec<Vec<(usize, u32, u64)>> = Vec::new();
    {
        let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
        let (t, a, b) = build_two_col(&db, rows);
        if with_checkpoint {
            db.checkpoint().unwrap();
        }
        // Group updates into transactions of 1..=3 writes.
        for chunk in updates.chunks(3) {
            let mut txn = db.begin(TxnKind::Oltp);
            let mut writes = Vec::new();
            for &(which, row, word) in chunk {
                let row = row % rows;
                let (col, idx) = if which % 2 == 0 { (a, 0) } else { (b, 1) };
                txn.update(t, col, row, word).unwrap();
                writes.push((idx, row, word));
            }
            txn.commit().unwrap();
            per_commit.push(writes);
        }
    }
    // Crash: cut the newest segment at an arbitrary *record boundary* at
    // or after the fill region (tag 3 = commit frames).
    let seg = newest_segment(&dir);
    let boundaries = frame_boundaries(&seg);
    let first_commit = boundaries
        .iter()
        .position(|&(_, tag)| tag == 3)
        .unwrap_or(boundaries.len());
    // Eligible cuts: after the last load record, after commit 1, ... after
    // commit n (= no cut). When a checkpoint ran, the newest segment holds
    // only commits, so every boundary is eligible.
    let base = if first_commit == 0 {
        // Segment starts with commits: also allow cutting them all away.
        16
    } else {
        boundaries[first_commit - 1].0
    };
    let n_commits_in_seg = boundaries.len() - first_commit;
    let cut_idx = (cut_choice % (n_commits_in_seg as u64 + 1)) as usize;
    let cut_at = if cut_idx == 0 {
        base
    } else {
        boundaries[first_commit + cut_idx - 1].0
    };
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(cut_at).unwrap();
    drop(f);
    // Commits whose records survived: all of them when the segment holds
    // fewer commit frames than total (earlier segments/checkpoint cover
    // the rest — cannot happen here since one segment holds all commits),
    // otherwise exactly `cut_idx`.
    let survived = per_commit.len() - (n_commits_in_seg - cut_idx);
    for writes in per_commit.iter().take(survived) {
        for &(idx, row, word) in writes {
            shadow[idx][row as usize] = word;
        }
    }
    // Recover and compare bit-for-bit.
    let db = AnkerDb::open(&dir, cfg).unwrap();
    let t = db.table_id("t").unwrap();
    let (a, b) = (db.schema(t).col("a"), db.schema(t).col("b"));
    let mut txn = db.begin(TxnKind::Oltp);
    for r in 0..rows {
        assert_eq!(
            txn.get(t, a, r).unwrap(),
            shadow[0][r as usize],
            "column a row {r} (cut after {survived}/{} commits, backend {backend:?})",
            per_commit.len()
        );
        assert_eq!(
            txn.get(t, b, r).unwrap(),
            shadow[1][r as usize],
            "column b row {r} (cut after {survived}/{} commits, backend {backend:?})",
            per_commit.len()
        );
    }
    txn.abort();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_workload_crash_recovers_bit_identically(
        rows in 8u32..120,
        updates in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>()), 1..40),
        cut_choice in any::<u64>(),
        with_checkpoint in any::<bool>(),
    ) {
        for backend in backends() {
            crash_recovery_property(backend, rows, &updates, cut_choice, with_checkpoint);
        }
    }
}
