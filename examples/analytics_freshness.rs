//! High-frequency snapshotting in action: analytical transactions read
//! slightly stale but *consistent* snapshots whose freshness is bounded by
//! the trigger interval (paper §2.2: "snapshots are created at a very high
//! frequency to ensure freshness").
//!
//! A writer continuously moves stock between two warehouses (the total is
//! invariant); an analyst repeatedly sums both columns. Every analyst read
//! is consistent (the invariant holds exactly), and its staleness —
//! measured in commits behind the live head — stays below the trigger
//! interval.
//!
//! ```sh
//! cargo run --release --example analytics_freshness
//! ```

use ankerdb::core::{AnkerDb, DbConfig, TxnKind};
use ankerdb::storage::{ColumnDef, LogicalType, Schema, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const ROWS: u32 = 10_000;
const TOTAL_PER_ROW: i64 = 1_000;
const SNAPSHOT_EVERY: u64 = 250;

fn main() {
    let db =
        AnkerDb::new(DbConfig::heterogeneous_serializable().with_snapshot_every(SNAPSHOT_EVERY));
    let t = db
        .create_table(
            "warehouses",
            Schema::new(vec![
                ColumnDef::new("stock_a", LogicalType::Int),
                ColumnDef::new("stock_b", LogicalType::Int),
            ]),
            ROWS,
        )
        .unwrap();
    let schema = db.schema(t);
    let (a, b) = (schema.col("stock_a"), schema.col("stock_b"));
    db.fill_column(
        t,
        a,
        (0..ROWS).map(|_| Value::Int(TOTAL_PER_ROW / 2).encode()),
    )
    .unwrap();
    db.fill_column(
        t,
        b,
        (0..ROWS).map(|_| Value::Int(TOTAL_PER_ROW / 2).encode()),
    )
    .unwrap();

    let committed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let max_staleness = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Writer: transfers stock between the two warehouse columns.
        let writer = {
            let db = db.clone();
            let committed = &committed;
            s.spawn(move || {
                let mut x: u64 = 0x243F6A8885A308D3;
                for _ in 0..20_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let row = (x % ROWS as u64) as u32;
                    let qty = (x % 7) as i64 + 1;
                    let mut txn = db.begin(TxnKind::Oltp);
                    let va = txn.get_value(t, a, row).unwrap().as_int();
                    let vb = txn.get_value(t, b, row).unwrap().as_int();
                    if va < qty {
                        txn.abort();
                        continue;
                    }
                    txn.update_value(t, a, row, Value::Int(va - qty)).unwrap();
                    txn.update_value(t, b, row, Value::Int(vb + qty)).unwrap();
                    if txn.commit().is_ok() {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        // Analyst: sums both columns on snapshots, checks the invariant and
        // tracks staleness.
        {
            let db = db.clone();
            let committed = &committed;
            let stop = &stop;
            let max_staleness = &max_staleness;
            s.spawn(move || {
                let expected = ROWS as i64 * TOTAL_PER_ROW;
                let mut scans = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let head_before = committed.load(Ordering::Relaxed);
                    let mut olap = db.begin(TxnKind::Olap);
                    let mut sum = 0i64;
                    olap.scan_on(t)
                        .project(&[a, b])
                        .for_each(|_, v| {
                            sum += v[0] as i64 + v[1] as i64;
                        })
                        .unwrap();
                    let snapshot_ts = olap.start_ts();
                    olap.commit().unwrap();
                    assert_eq!(sum, expected, "analyst saw an inconsistent snapshot");
                    // Staleness bound: commits that happened after the
                    // snapshot the analyst read.
                    let staleness = head_before.saturating_sub(snapshot_ts);
                    max_staleness.fetch_max(staleness, Ordering::Relaxed);
                    scans += 1;
                }
                println!("analyst: {scans} consistent scans, invariant always exact");
            });
        }
        writer.join().unwrap();
        stop.store(true, Ordering::Release);
    });

    let m = db.metrics();
    let count = |name| m.counter(name).unwrap_or(0);
    println!(
        "writer: {} transfers committed",
        count("db_committed_total")
    );
    println!(
        "snapshot epochs: {} triggered, {} retired, {} column materialisations",
        count("db_epochs_triggered_total"),
        count("db_epochs_retired_total"),
        count("db_columns_materialized_total")
    );
    println!(
        "max analyst staleness observed: {} commits (trigger interval: {})",
        max_staleness.load(Ordering::Relaxed),
        SNAPSHOT_EVERY
    );
}
