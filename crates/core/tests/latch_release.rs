//! Every abort exit of the commit pipeline releases the install latches
//! it took. A commit latches its whole write set in stage 1, then may
//! still abort: first-updater-wins on a later row, or read-set
//! validation. Each case below is followed by a transaction that commits
//! the same rows. A latch left behind would make that commit spin in
//! `lock_row` forever, so it runs on its own thread and the test fails
//! after a deadline instead of hanging.

mod common;

use anker_core::{AbortReason, AnkerDb, DbConfig, DbError, TableId, TxnKind};
use anker_storage::ColumnId;
use common::{backends, dump_col, one_col_db};
use std::sync::mpsc;
use std::time::Duration;

const ROWS: u32 = 8;
/// The three rows every aborting commit latches, in latch order.
const WRITE_SET: [u32; 3] = [1, 3, 5];
/// How long the follow-up commit may take before a latch counts as leaked.
const DEADLINE: Duration = Duration::from_secs(20);

fn configs() -> [(&'static str, DbConfig); 2] {
    [
        (
            "heterogeneous",
            DbConfig::heterogeneous_serializable().with_snapshot_every(4),
        ),
        ("homogeneous", DbConfig::homogeneous_serializable()),
    ]
}

/// Commit `value` into every row of [`WRITE_SET`] on a fresh thread, and
/// wait at most [`DEADLINE`] for it.
fn commit_write_set_within_deadline(db: &AnkerDb, t: TableId, c: ColumnId, value: u64, case: &str) {
    let db = db.clone();
    let (tx, rx) = mpsc::channel();
    let committer = std::thread::spawn(move || {
        let mut txn = db.begin(TxnKind::Oltp);
        for row in WRITE_SET {
            txn.update(t, c, row, value + row as u64).unwrap();
        }
        let _ = tx.send(txn.commit());
    });
    // On a timeout the committer is left spinning; the test fails anyway.
    let committed = rx.recv_timeout(DEADLINE).unwrap_or_else(|_| {
        panic!("{case}: the follow-up commit did not finish: a row stayed latched")
    });
    committer.join().expect("the committer thread panicked");
    committed.unwrap_or_else(|e| panic!("{case}: the follow-up commit failed: {e:?}"));
}

/// A three-row commit loses first-updater-wins on its last row, after
/// latching the first two.
#[test]
fn a_write_write_abort_on_the_last_row_releases_every_latch() {
    for backend in backends() {
        for (mode, config) in configs() {
            let case = format!("{backend:?}/{mode}");
            let (db, t, c) = one_col_db(config.with_backend(backend), ROWS);
            let mut loser = db.begin(TxnKind::Oltp);
            let last = WRITE_SET[2];
            let mut winner = db.begin(TxnKind::Oltp);
            winner.update(t, c, last, 500).unwrap();
            winner.commit().unwrap();
            for row in WRITE_SET {
                loser.update(t, c, row, 900).unwrap();
            }
            assert!(
                matches!(
                    loser.commit(),
                    Err(DbError::Aborted(AbortReason::WriteWriteConflict))
                ),
                "{case}: the last row's conflict must abort the commit"
            );
            commit_write_set_within_deadline(&db, t, c, 1_000, &case);
            let col = dump_col(&db, t, c, ROWS);
            for row in WRITE_SET {
                assert_eq!(col[row as usize], 1_000 + row as u64, "{case}: row {row}");
            }
        }
    }
}

/// A three-row commit fails serializable validation after it latched
/// every row.
#[test]
fn a_validation_abort_after_latching_releases_every_latch() {
    for backend in backends() {
        for (mode, config) in configs() {
            let case = format!("{backend:?}/{mode}");
            let (db, t, c) = one_col_db(config.with_backend(backend), ROWS);
            let read_row = 7;
            let mut loser = db.begin(TxnKind::Oltp);
            loser.get(t, c, read_row).unwrap();
            let mut writer = db.begin(TxnKind::Oltp);
            writer.update(t, c, read_row, 700).unwrap();
            writer.commit().unwrap();
            for row in WRITE_SET {
                loser.update(t, c, row, 900).unwrap();
            }
            assert!(
                matches!(
                    loser.commit(),
                    Err(DbError::Aborted(AbortReason::ValidationFailed { .. }))
                ),
                "{case}: the changed read must fail validation"
            );
            commit_write_set_within_deadline(&db, t, c, 2_000, &case);
            let col = dump_col(&db, t, c, ROWS);
            for row in WRITE_SET {
                assert_eq!(col[row as usize], 2_000 + row as u64, "{case}: row {row}");
            }
            assert_eq!(col[read_row as usize], 700, "{case}: the writer's row");
        }
    }
}
