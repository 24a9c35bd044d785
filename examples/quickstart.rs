//! Quickstart: boot AnKerDB, create a table, run an OLTP update and an
//! OLAP aggregation on a virtual snapshot.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ankerdb::core::{AnkerDb, DbConfig, TxnKind};
use ankerdb::storage::{ColumnDef, LogicalType, Schema, Value};

fn main() {
    // Heterogeneous processing with full serializability — the paper's
    // flagship configuration. A snapshot epoch is triggered every 1000
    // commits.
    let db = AnkerDb::new(DbConfig::heterogeneous_serializable().with_snapshot_every(1000));

    let products = db
        .create_table(
            "products",
            Schema::new(vec![
                ColumnDef::new("price", LogicalType::Double),
                ColumnDef::new("stock", LogicalType::Int),
            ]),
            10_000,
        )
        .unwrap();
    let schema = db.schema(products);
    let price = schema.col("price");
    let stock = schema.col("stock");

    // Bulk load.
    db.fill_column(
        products,
        price,
        (0..10_000).map(|i| Value::Double(9.99 + i as f64).encode()),
    )
    .unwrap();
    db.fill_column(
        products,
        stock,
        (0..10_000).map(|i| Value::Int(i % 50).encode()),
    )
    .unwrap();

    // A short OLTP transaction: read-modify-write of one product.
    let mut txn = db.begin(TxnKind::Oltp);
    let current = txn.get_value(products, price, 42).unwrap().as_double();
    txn.update_value(products, price, 42, Value::Double(current * 1.10))
        .unwrap();
    let commit_ts = txn.commit().unwrap();
    println!(
        "OLTP commit at ts {commit_ts}: price[42] {current:.2} -> {:.2}",
        current * 1.10
    );

    // A long-running OLAP transaction: scans a frozen virtual snapshot in a
    // tight loop — no timestamps, no version chains.
    let mut olap = db.begin(TxnKind::Olap);
    let ((units, revenue), stats) = olap
        .scan_on(products)
        .project(&[price, stock])
        .fold((0i64, 0.0f64), |(units, revenue), _row, vals| {
            let p = vals[0].as_double();
            let s = vals[1].as_int();
            (units + s, revenue + p * s as f64)
        })
        .unwrap();
    println!("OLAP on snapshot: {units} units, potential revenue {revenue:.2}");
    println!(
        "scan path: {} rows tight, {} rows checked (snapshots never check versions)",
        stats.tight_rows, stats.checked_rows
    );

    // A second scan with a pushed-down predicate: the builder filters
    // inside the block loops, skips whole 1024-row blocks via zone maps
    // (prices are loaded in ascending order), and — for serializable
    // updaters — registers the equivalent precision lock automatically.
    let (premium, stats) = olap
        .scan_on(products)
        .range_f64(price, 5_000.0, f64::INFINITY)
        .count()
        .unwrap();
    olap.commit().unwrap();
    println!(
        "{premium} premium products; predicate pushdown skipped {} blocks, \
         filtered {} rows",
        stats.blocks_skipped, stats.rows_filtered
    );
    assert!(stats.blocks_skipped > 0, "zone maps should prune blocks");
    println!("db metrics (the `db_*` slice of `db.metrics()`):");
    for m in db.metrics().iter().filter(|m| m.name.starts_with("db_")) {
        println!("  {} = {:?}", m.name, m.value);
    }
}
