//! Multi-threaded commit-pipeline stress with a history-checking oracle:
//! N committer threads run M read-compute-write transactions each; every
//! committed transaction's observed reads and applied writes are logged
//! and the whole history is replayed serially in commit-timestamp order
//! (see `tests/common/mod.rs`). A single stale read, lost update or torn
//! install fails the replay.
//!
//! `ANKER_STRESS_THREADS` / `ANKER_STRESS_TXNS` scale the run (CI's
//! `commit-stress` job raises them); the in-tree defaults keep `cargo
//! test` fast on a laptop.

mod common;

use anker_core::{AnkerDb, DbConfig, DbError, DurabilityLevel};
use common::{backends, dump_col, one_col_db, one_col_table, run_commit_stress, StressConfig};
use std::sync::atomic::{AtomicBool, Ordering};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn stress_config(seed: u64) -> StressConfig {
    StressConfig {
        threads: env_or("ANKER_STRESS_THREADS", 4),
        txns_per_thread: env_or("ANKER_STRESS_TXNS", 120),
        rows: 48,
        theta: 0.7,
        max_reads: 3,
        repair_rounds: 2,
        seed,
    }
}

/// Homogeneous serializable — the configuration with the most concurrent
/// machinery live at once: sharded validation, out-of-order lock-free
/// installs, conflict repair, and the background GC thread's freeze/drain
/// window all interleave.
#[test]
fn stress_homogeneous_serializable_with_gc() {
    let cfg = stress_config(0xA11CE);
    let db = AnkerDb::new(
        DbConfig::homogeneous_serializable()
            .with_gc_interval(Some(std::time::Duration::from_millis(10))),
    );
    let (t, c) = one_col_table(&db, cfg.rows);
    let out = run_commit_stress(&db, t, c, &cfg);
    assert!(out.committed > 0);
    db.shutdown();
}

/// Snapshot isolation publishes no commit records and takes no shard
/// locks; the oracle still checks that the final state equals the
/// write-set replay in commit order (reads may legitimately be stale).
#[test]
fn stress_homogeneous_snapshot_isolation() {
    let cfg = stress_config(0xBEEF);
    let (db, t, c) = one_col_db(DbConfig::homogeneous_snapshot_isolation(), cfg.rows);
    let out = run_commit_stress(&db, t, c, &cfg);
    assert!(out.committed > 0);
    assert_eq!(
        out.validation_aborts, 0,
        "snapshot isolation never validates reads"
    );
}

/// Heterogeneous mode on every backend: concurrent commits interleave
/// with snapshot-epoch triggers, lazy column materialisation, and a
/// thread opening snapshot readers in a loop. Every reader's column must
/// equal the commit-order replay of exactly the commits at or below its
/// epoch timestamp: an epoch cut mid-commit would show a torn or missing
/// write. A read that fails (a write bypassed the reader's pinned epoch)
/// is recorded, not unwrapped, so the replay check still runs over every
/// read that succeeded before the failures are reported.
#[test]
fn stress_heterogeneous_with_epoch_triggers() {
    /// Readers recorded per run, at most (bounds the check's memory).
    const MAX_READS: usize = 4096;
    for backend in backends() {
        let mut cfg = stress_config(0xC0FFE);
        cfg.txns_per_thread = cfg.txns_per_thread / 2 + 1;
        let (db, t, c) = one_col_db(
            DbConfig::heterogeneous_serializable()
                .with_snapshot_every(16)
                .with_backend(backend),
            cfg.rows,
        );
        let done = AtomicBool::new(false);
        let (out, reads) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut reads: Vec<(u64, Result<Vec<u64>, DbError>)> = Vec::new();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    if reads.len() < MAX_READS {
                        let r = db.snapshot_reader().unwrap();
                        let col = (0..cfg.rows).map(|row| r.get(t, c, row));
                        reads.push((r.epoch_ts(), col.collect()));
                    }
                    if finished {
                        return reads;
                    }
                    std::thread::yield_now();
                }
            });
            let out = run_commit_stress(&db, t, c, &cfg);
            done.store(true, Ordering::Release);
            (out, reader.join().unwrap())
        });
        assert!(out.committed > 0, "backend {backend:?}");
        let init: Vec<u64> = (0..cfg.rows as u64).collect();
        for (epoch_ts, col) in reads
            .iter()
            .filter_map(|(ts, r)| Some((ts, r.as_ref().ok()?)))
        {
            let mut shadow = init.clone();
            for h in out.history.iter().take_while(|h| h.commit_ts <= *epoch_ts) {
                for &(row, val) in &h.writes {
                    shadow[row as usize] = val;
                }
            }
            assert_eq!(
                col, &shadow,
                "reader at epoch {epoch_ts} differs from the replay of the \
                 commits at or below it (backend {backend:?})"
            );
        }
        let failed: Vec<_> = reads.iter().filter(|(_, r)| r.is_err()).collect();
        assert!(
            failed.is_empty(),
            "{} of {} readers failed (backend {backend:?}), first: {:?}",
            failed.len(),
            reads.len(),
            failed.first()
        );
        #[cfg(not(feature = "obs-off"))]
        assert!(
            common::counter(&db, "db_epochs_triggered_total") > 0,
            "the run must have crossed epoch triggers (backend {backend:?})"
        );
    }
}

/// Full pipeline + durability: commits append to the WAL concurrently
/// (file order ≠ timestamp order) under group-commit fsync, then a crash
/// reopen must land on exactly the oracle's final state.
#[test]
fn stress_durable_fsync_recovers_to_oracle_state() {
    let mut cfg = stress_config(0xD15C);
    cfg.txns_per_thread = env_or("ANKER_STRESS_TXNS", 60).min(60);
    let dir = common::tmp_dir("stress-fsync");
    let final_state;
    let (t, c) = {
        let db = AnkerDb::open(
            &dir,
            DbConfig::homogeneous_serializable()
                .with_gc_interval(None)
                .with_durability(DurabilityLevel::Fsync),
        )
        .unwrap();
        let (t, c) = one_col_table(&db, cfg.rows);
        let out = run_commit_stress(&db, t, c, &cfg);
        assert!(out.committed > 0);
        final_state = dump_col(&db, t, c, cfg.rows);
        (t, c)
        // Crash: no shutdown, no final sync beyond each commit's own.
    };
    let db = AnkerDb::open(
        &dir,
        DbConfig::homogeneous_serializable()
            .with_gc_interval(None)
            .with_durability(DurabilityLevel::Fsync),
    )
    .unwrap();
    assert_eq!(
        dump_col(&db, t, c, cfg.rows),
        final_state,
        "every fsync-acknowledged commit must survive the crash"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// The repair acceptance bar: under forced hot-key contention, bounded
/// conflict repair must convert at least half of the induced validation
/// failures into commits (i.e. repaired outcomes outnumber residual
/// validation aborts), and must actually fire.
#[test]
fn repair_converts_majority_of_validation_failures() {
    let cfg = StressConfig {
        threads: 4,
        txns_per_thread: 150,
        rows: 6, // tiny keyspace: nearly every transaction conflicts
        theta: 0.0,
        max_reads: 2,
        repair_rounds: 4,
        seed: 0x5EED,
    };
    let (db, t, c) = one_col_db(DbConfig::homogeneous_serializable(), cfg.rows);
    let out = run_commit_stress(&db, t, c, &cfg);
    if cfg!(not(feature = "obs-off")) {
        assert!(
            common::counter(&db, "db_repair_rounds_total") > 0,
            "the workload must actually induce validation conflicts"
        );
        let repaired = common::counter(&db, "db_repaired_commits_total");
        let aborted = common::counter(&db, "db_aborted_validation_total");
        assert!(repaired > 0);
        assert!(
            repaired >= aborted,
            "repair must convert at least half of the validation failures \
             (repaired {repaired} vs aborted {aborted})"
        );
        assert_eq!(out.validation_aborts as u64, aborted);
    }
}
