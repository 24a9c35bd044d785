//! Rows past a table's last are a typed error on every read and update
//! path, on both backends — never page padding, never a neighbouring
//! column's words, never a panic at commit.

use anker_core::{
    AnkerDb, BackendKind, ColumnDef, DbConfig, DbError, LogicalType, Schema, TableId, TxnKind,
    Value,
};

const ROWS: u32 = 100;

fn backends() -> Vec<BackendKind> {
    let mut v = vec![BackendKind::Sim];
    if cfg!(target_os = "linux") {
        v.push(BackendKind::Os);
    }
    v
}

/// A heterogeneous database with one table of two filled columns; the
/// second is all 88s, so a read that strayed into it would show.
fn db_on(backend: BackendKind) -> (AnkerDb, TableId) {
    let db = AnkerDb::new(
        DbConfig::heterogeneous_serializable()
            .with_gc_interval(None)
            .with_backend(backend),
    );
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ]),
            ROWS,
        )
        .unwrap();
    for (c, v) in [(0, 7), (1, 88)] {
        let col = anker_core::ColumnId(c);
        db.fill_column(t, col, (0..ROWS).map(|_| Value::Int(v).encode()))
            .unwrap();
    }
    (db, t)
}

fn out_of_range(t: TableId, row: u32) -> DbError {
    DbError::RowOutOfRange {
        table: t.0,
        row,
        rows: ROWS,
    }
}

#[test]
fn transaction_reads_and_updates_past_the_last_row_fail_typed() {
    for backend in backends() {
        let (db, t) = db_on(backend);
        let a = db.schema(t).col("a");
        for kind in [TxnKind::Oltp, TxnKind::Olap] {
            let mut txn = db.begin(kind);
            assert_eq!(txn.get(t, a, ROWS - 1).unwrap(), 7);
            for row in [ROWS, 600, u32::MAX] {
                assert_eq!(txn.get(t, a, row), Err(out_of_range(t, row)), "{backend:?}");
                assert_eq!(
                    txn.get_value(t, a, row),
                    Err(out_of_range(t, row)),
                    "{backend:?}"
                );
            }
            txn.commit().unwrap();
        }
        let mut txn = db.begin(TxnKind::Oltp);
        for row in [ROWS, 600] {
            assert_eq!(txn.update(t, a, row, 1), Err(out_of_range(t, row)));
            assert_eq!(
                txn.update_value(t, a, row, Value::Int(1)),
                Err(out_of_range(t, row))
            );
        }
        // Only the in-range update was buffered.
        txn.update(t, a, ROWS - 1, Value::Int(9).encode()).unwrap();
        txn.commit().unwrap();
        assert_eq!(
            db.begin(TxnKind::Oltp).get_value(t, a, ROWS - 1).unwrap(),
            Value::Int(9)
        );
    }
}

#[test]
fn reader_reads_past_the_last_row_fail_typed() {
    for backend in backends() {
        let (db, t) = db_on(backend);
        let a = db.schema(t).col("a");
        let reader = db.snapshot_reader().unwrap();
        for row in [ROWS, 600, u32::MAX] {
            // Both before and after the column is cached.
            assert_eq!(
                reader.get(t, a, row),
                Err(out_of_range(t, row)),
                "{backend:?}"
            );
            assert_eq!(reader.get(t, a, 0).unwrap(), 7);
            assert_eq!(reader.get_value(t, a, row), Err(out_of_range(t, row)));
        }
        assert_eq!(reader.get_value(t, a, ROWS - 1).unwrap(), Value::Int(7));
    }
}
