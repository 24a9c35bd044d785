//! Write skew, demonstrated: a bank allows an overdraft on either of two
//! accounts as long as the *combined* balance stays positive. Under
//! snapshot isolation two concurrent withdrawals can each read the other
//! account's old balance and together break the invariant — the classic
//! write-skew anomaly the paper notes MVCC permits by default (§2.1).
//! Under full serializability (precision-locking validation), one of them
//! aborts.
//!
//! ```sh
//! cargo run --example serializable_banking
//! ```

use ankerdb::core::{AnkerDb, DbConfig, DbError, TxnKind};
use ankerdb::storage::{ColumnDef, LogicalType, Schema, Value};

fn combined_withdrawal(db: &AnkerDb) -> (Result<u64, DbError>, Result<u64, DbError>, i64) {
    let accounts = db.table_id("accounts").unwrap();
    let balance = db.schema(accounts).col("balance");

    // Both start with 100 + 100 = 200; each withdrawal takes 150 if the
    // combined balance allows it.
    let mut t1 = db.begin(TxnKind::Oltp);
    let mut t2 = db.begin(TxnKind::Oltp);

    // T1 checks both balances, then withdraws from account 0.
    let total1 = t1.get_value(accounts, balance, 0).unwrap().as_int()
        + t1.get_value(accounts, balance, 1).unwrap().as_int();
    assert!(total1 >= 150);
    let b0 = t1.get_value(accounts, balance, 0).unwrap().as_int();
    t1.update_value(accounts, balance, 0, Value::Int(b0 - 150))
        .unwrap();

    // T2 does the same from account 1 — reading the *old* state.
    let total2 = t2.get_value(accounts, balance, 0).unwrap().as_int()
        + t2.get_value(accounts, balance, 1).unwrap().as_int();
    assert!(total2 >= 150);
    let b1 = t2.get_value(accounts, balance, 1).unwrap().as_int();
    t2.update_value(accounts, balance, 1, Value::Int(b1 - 150))
        .unwrap();

    let r1 = t1.commit();
    let r2 = t2.commit();

    let mut check = db.begin(TxnKind::Oltp);
    let final_total = check.get_value(accounts, balance, 0).unwrap().as_int()
        + check.get_value(accounts, balance, 1).unwrap().as_int();
    check.commit().unwrap();
    (r1, r2, final_total)
}

fn setup(config: DbConfig) -> AnkerDb {
    let db = AnkerDb::new(config);
    let accounts = db
        .create_table(
            "accounts",
            Schema::new(vec![ColumnDef::new("balance", LogicalType::Int)]),
            2,
        )
        .unwrap();
    let balance = db.schema(accounts).col("balance");
    db.fill_column(
        accounts,
        balance,
        [100i64, 100].map(|v| Value::Int(v).encode()),
    )
    .unwrap();
    db
}

fn main() {
    println!("invariant: balance[0] + balance[1] must stay >= 0\n");

    let db = setup(DbConfig::homogeneous_snapshot_isolation());
    let (r1, r2, total) = combined_withdrawal(&db);
    println!("snapshot isolation:");
    println!("  T1 -> {r1:?}");
    println!("  T2 -> {r2:?}");
    println!("  combined balance afterwards: {total}  <-- write skew! invariant broken\n");
    assert!(total < 0, "SI should have permitted the anomaly");

    let db = setup(DbConfig::homogeneous_serializable());
    let (r1, r2, total) = combined_withdrawal(&db);
    println!("full serializability (precision locking):");
    println!("  T1 -> {r1:?}");
    println!("  T2 -> {r2:?}");
    println!("  combined balance afterwards: {total}  <-- invariant preserved");
    assert!(total >= 0);
    assert!(
        r1.is_ok() ^ r2.is_ok(),
        "exactly one transaction must abort"
    );
}
