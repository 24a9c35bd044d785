//! Crash recovery end to end: load a TPC-H database with a fsync WAL,
//! update it, **crash** (drop every handle without calling
//! [`AnkerDb::shutdown`]), then [`AnkerDb::open`] the directory again and
//! verify a Q6 revenue fold matches the pre-crash answer bit for bit.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use ankerdb::core::{AnkerDb, DbConfig, DurabilityLevel, TxnKind, Value};
use ankerdb::tpch::gen::{self, TpchConfig};
use ankerdb::tpch::oltp::{is_abort, run_oltp, OltpKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The Q6-style revenue fold used before and after the crash.
fn q6_revenue(db: &AnkerDb) -> f64 {
    let t = db.table_id("lineitem").expect("lineitem exists");
    let schema = db.schema(t);
    let lo = gen::days(1994, 1, 1) as i64;
    let hi = gen::days(1995, 1, 1) as i64;
    let reader = db.snapshot_reader().expect("snapshot reader");
    let (revenue, _) = reader
        .scan(t)
        .range_i64(schema.col("l_shipdate"), lo, hi - 1)
        .range_f64(schema.col("l_discount"), 0.05 - 1e-9, 0.07 + 1e-9)
        .lt_f64(schema.col("l_quantity"), 24.0)
        .project(&[schema.col("l_extendedprice"), schema.col("l_discount")])
        .fold(
            0.0f64,
            |acc, _, v| acc + v[0].as_double() * v[1].as_double(),
            |a, b| a + b,
        )
        .expect("q6 scan");
    revenue
}

fn main() {
    let dir = std::env::temp_dir().join(format!("anker-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DbConfig::heterogeneous_serializable()
        .with_snapshot_every(100)
        .with_gc_interval(None)
        .with_durability(DurabilityLevel::Fsync);

    // ---- generation 1: load, checkpoint, update, crash -------------
    println!("== generation 1: load + update ==");
    let t = gen::generate(
        config.clone().with_durability_dir(&dir),
        &TpchConfig {
            scale_factor: 0.004,
            seed: 7,
        },
    );
    // Move the bulk loads from the WAL into a checkpoint; from here on
    // the WAL holds only commits.
    let ckpt_ts = t.db.checkpoint().expect("checkpoint");
    println!(
        "loaded {} lineitems, checkpoint at ts {ckpt_ts}",
        t.db.rows(t.lineitem)
    );
    let mut rng = SmallRng::seed_from_u64(99);
    let mut committed = 0;
    while committed < 500 {
        match run_oltp(&t, OltpKind::sample(&mut rng), &mut rng) {
            Ok(_) => committed += 1,
            Err(e) if is_abort(&e) => {}
            Err(e) => panic!("oltp failed: {e}"),
        }
    }
    // One last hand-made update so there is a known fresh value to check.
    let mut txn = t.db.begin(TxnKind::Oltp);
    txn.update_value(t.lineitem, t.li.quantity, 0, Value::Double(49.0))
        .unwrap();
    txn.commit().unwrap();
    let revenue_before = q6_revenue(&t.db);
    let m = t.db.metrics();
    let wal = |name| m.counter(name).expect("wal attached");
    println!(
        "committed {} updates (WAL: {} commit records, {} fsyncs), q6 revenue {revenue_before:.4}",
        committed + 1,
        wal("wal_commit_records_total"),
        wal("wal_syncs_total")
    );
    println!("== simulated crash: dropping the database without shutdown ==");
    drop(t); // no shutdown(), no final flush — the WAL already has it all

    // ---- generation 2: recover and verify --------------------------
    println!("== generation 2: AnkerDb::open ==");
    let db = AnkerDb::open(&dir, config).expect("recovery");
    let report = db.recovery_report().expect("recovery report");
    println!(
        "recovered {} tables from checkpoint ts {} + {} WAL commits (last ts {})",
        report.tables, report.checkpoint_ts, report.commits_replayed, report.last_commit_ts
    );
    let t2 = db.table_id("lineitem").unwrap();
    let qty = db.schema(t2).col("l_quantity");
    let mut txn = db.begin(TxnKind::Oltp);
    let q = txn.get_value(t2, qty, 0).unwrap();
    txn.abort();
    assert_eq!(q, Value::Double(49.0), "the last pre-crash commit survived");
    let revenue_after = q6_revenue(&db);
    println!("q6 revenue after recovery: {revenue_after:.4}");
    assert_eq!(
        revenue_before.to_bits(),
        revenue_after.to_bits(),
        "recovery must reproduce the fold bit-identically"
    );
    println!("crash recovery OK: folds identical across the crash");
    db.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
