//! Serializability oracle: random interleaved transactions must produce a
//! final state identical to re-executing the *committed* transactions
//! serially in commit-timestamp order.
//!
//! This is the strongest correctness check in the suite: it exercises the
//! whole pipeline — local write sets, write-write detection, precision
//! locking, install ordering, version chains, epoch hand-over — and fails
//! on any anomaly full serializability forbids.

mod common;

use anker_core::{AnkerDb, ColumnDef, DbConfig, LogicalType, Schema, TxnKind};
use proptest::prelude::*;

const ROWS: u32 = 64;
const COLS: usize = 2;

/// One step of a transaction script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Read `(col, row)` and remember it in the transaction's register.
    Read { col: usize, row: u32 },
    /// Write `register + delta` to `(col, row)` (data dependencies!).
    WriteFromRegister { col: usize, row: u32, delta: u64 },
    /// Write a constant.
    WriteConst { col: usize, row: u32, value: u64 },
}

#[derive(Debug, Clone)]
struct Script {
    steps: Vec<Step>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..COLS, 0..ROWS).prop_map(|(col, row)| Step::Read { col, row }),
        (0..COLS, 0..ROWS, 0..100u64).prop_map(|(col, row, delta)| Step::WriteFromRegister {
            col,
            row,
            delta
        }),
        (0..COLS, 0..ROWS, 0..1000u64).prop_map(|(col, row, value)| Step::WriteConst {
            col,
            row,
            value
        }),
    ]
}

fn script_strategy() -> impl Strategy<Value = Script> {
    proptest::collection::vec(step_strategy(), 1..6).prop_map(|steps| Script { steps })
}

fn fresh_db(config: DbConfig) -> (AnkerDb, anker_core::TableId, Vec<anker_storage::ColumnId>) {
    let db = AnkerDb::new(config.with_gc_interval(None));
    let t = db
        .create_table(
            "t",
            Schema::new(
                (0..COLS)
                    .map(|i| ColumnDef::new(format!("c{i}"), LogicalType::Int))
                    .collect(),
            ),
            ROWS,
        )
        .unwrap();
    let schema = db.schema(t);
    let cols: Vec<_> = (0..COLS).map(|i| schema.col(&format!("c{i}"))).collect();
    for &c in &cols {
        db.fill_column(t, c, 0..ROWS as u64).unwrap();
    }
    (db, t, cols)
}

fn dump(db: &AnkerDb, t: anker_core::TableId, cols: &[anker_storage::ColumnId]) -> Vec<u64> {
    let mut txn = db.begin(TxnKind::Olap);
    let mut out = Vec::with_capacity(COLS * ROWS as usize);
    for &c in cols {
        for r in 0..ROWS {
            out.push(txn.get(t, c, r).unwrap());
        }
    }
    txn.commit().unwrap();
    out
}

/// Replay `scripts[idx]` serially (one transaction at a time) in the given
/// order on a fresh database; return the final state.
fn serial_replay(order: &[usize], scripts: &[Script]) -> Vec<u64> {
    let (db, t, cols) = fresh_db(DbConfig::homogeneous_serializable());
    for &idx in order {
        let mut txn = db.begin(TxnKind::Oltp);
        let mut register = 0u64;
        for step in &scripts[idx].steps {
            match *step {
                Step::Read { col, row } => register = txn.get(t, cols[col], row).unwrap(),
                Step::WriteFromRegister { col, row, delta } => txn
                    .update(t, cols[col], row, register.wrapping_add(delta))
                    .unwrap(),
                Step::WriteConst { col, row, value } => {
                    txn.update(t, cols[col], row, value).unwrap()
                }
            }
        }
        txn.commit().expect("serial execution cannot conflict");
    }
    dump(&db, t, &cols)
}

/// Phantom protection through the ScanBuilder: a predicate scan races an
/// updater that moves rows into the scanned range. The scanning updater
/// never called `log_range` — the builder registered the precision lock —
/// yet it must abort under `Serializable` once the racing commit lands.
/// This is exactly the footgun the typed scan API removes: with the old
/// raw-callback API, forgetting the manual log call made this race pass
/// validation silently.
#[test]
fn scan_builder_phantom_protection() {
    for hetero in [false, true] {
        let config = if hetero {
            DbConfig::heterogeneous_serializable().with_snapshot_every(3)
        } else {
            DbConfig::homogeneous_serializable()
        };
        let (db, t, cols) = fresh_db(config);
        // The scanner counts rows with c0 in [10, 20] and writes the
        // summary; its predicate comes only from the builder.
        let mut scanner = db.begin(TxnKind::Oltp);
        let (n_before, _) = scanner
            .scan_on(t)
            .range_i64(cols[0], 10, 20)
            .count()
            .unwrap();
        assert_eq!(n_before, 11, "rows are loaded as 0..64");
        // A racing updater moves a distant row *into* the scanned range —
        // the phantom — and commits first.
        let mut updater = db.begin(TxnKind::Oltp);
        updater.update(t, cols[0], 40, 15).unwrap();
        updater.commit().unwrap();
        // The scanner's count is now stale; committing its summary must
        // abort.
        scanner.update(t, cols[1], 0, n_before).unwrap();
        match scanner.commit() {
            Err(anker_core::DbError::Aborted(_)) => {}
            other => panic!("phantom survived (hetero={hetero}): {other:?}"),
        }
        // Control: an update far outside the range does not disturb an
        // identical scanner.
        let mut scanner = db.begin(TxnKind::Oltp);
        let (n, _) = scanner
            .scan_on(t)
            .range_i64(cols[0], 10, 20)
            .count()
            .unwrap();
        let mut updater = db.begin(TxnKind::Oltp);
        updater.update(t, cols[0], 50, 5000).unwrap();
        updater.commit().unwrap();
        scanner.update(t, cols[1], 0, n).unwrap();
        scanner
            .commit()
            .expect("write outside the predicate range must not abort the scanner");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_equals_serial_in_commit_order(
        scripts in proptest::collection::vec(script_strategy(), 2..5),
        schedule in proptest::collection::vec(0usize..5, 10..60),
        hetero in any::<bool>(),
    ) {
        let config = if hetero {
            DbConfig::heterogeneous_serializable().with_snapshot_every(3)
        } else {
            DbConfig::homogeneous_serializable()
        };
        let (db, t, cols) = fresh_db(config);

        // Interleaved execution. We need commit order with indices, so use
        // a deterministic full drive: run the schedule, then finish
        // remaining txns in index order, recording (commit_ts, idx).
        let mut txns: Vec<Option<(anker_core::Txn, u64, usize)>> = scripts
            .iter()
            .map(|_| Some((db.begin(TxnKind::Oltp), 0u64, 0usize)))
            .collect();
        let mut committed: Vec<(u64, usize)> = Vec::new();
        let drive = |idx: usize,
                         txns: &mut Vec<Option<(anker_core::Txn, u64, usize)>>,
                         committed: &mut Vec<(u64, usize)>| {
            if let Some((txn, register, pc)) = txns[idx].as_mut() {
                if let Some(step) = scripts[idx].steps.get(*pc).copied() {
                    match step {
                        Step::Read { col, row } => {
                            *register = txn.get(t, cols[col], row).unwrap();
                        }
                        Step::WriteFromRegister { col, row, delta } => {
                            let v = register.wrapping_add(delta);
                            txn.update(t, cols[col], row, v).unwrap();
                        }
                        Step::WriteConst { col, row, value } => {
                            txn.update(t, cols[col], row, value).unwrap();
                        }
                    }
                    *pc += 1;
                } else if let Some((txn, _, _)) = txns[idx].take() {
                    if let Ok(ts) = txn.commit() {
                        committed.push((ts, idx));
                    }
                }
            }
        };
        for &pick in &schedule {
            drive(pick % scripts.len(), &mut txns, &mut committed);
        }
        // Finish stragglers: step each to completion, then commit.
        for idx in 0..scripts.len() {
            while txns[idx].is_some() {
                drive(idx, &mut txns, &mut committed);
            }
        }
        let interleaved_state = dump(&db, t, &cols);

        // Serial replay of the committed transactions in commit order.
        committed.sort_by_key(|&(ts, _)| ts);
        let order: Vec<usize> = committed.iter().map(|&(_, idx)| idx).collect();
        let serial_state = serial_replay(&order, &scripts);

        prop_assert_eq!(
            interleaved_state,
            serial_state,
            "interleaved execution is not equivalent to serial commit order \
             (committed order: {:?})",
            order
        );
    }
}

// ---------------------------------------------------------------------
// The threaded oracle: real concurrent committers (the single-threaded
// proptest above interleaves steps but commits one at a time, so it can
// never catch a pipeline race). 2–8 OS threads hammer Zipf-skewed keys
// through the read-compute-write driver of `tests/common`, including the
// bounded conflict-repair path, and the whole history must replay
// serially in commit-timestamp order.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn threaded_history_is_commit_order_serializable(
        threads in 2usize..=8,
        txns_per_thread in 8usize..=32,
        theta_tenths in 0u32..=12,
        repair_rounds in 0u32..=3,
        seed in any::<u64>(),
        hetero in any::<bool>(),
    ) {
        let config = if hetero {
            DbConfig::heterogeneous_serializable().with_snapshot_every(8)
        } else {
            DbConfig::homogeneous_serializable()
        };
        let cfg = common::StressConfig {
            threads,
            txns_per_thread,
            rows: 24,
            theta: theta_tenths as f64 / 10.0,
            max_reads: 3,
            repair_rounds,
            seed,
        };
        let (db, t, c) = common::one_col_db(config, cfg.rows);
        // `run_commit_stress` panics (→ proptest failure + shrink) on any
        // serializability violation.
        let out = common::run_commit_stress(&db, t, c, &cfg);
        prop_assert!(out.committed > 0);
    }
}
