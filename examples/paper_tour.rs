//! A guided tour through the paper's running example (§2.2.1, Figure 1):
//! the eight steps of heterogeneous MVCC processing, executed for real
//! against AnKerDB with the engine's state printed after each step.
//!
//! ```sh
//! cargo run --example paper_tour
//! ```

use ankerdb::core::{AnkerDb, DbConfig, DbError, TxnKind};
use ankerdb::storage::{ColumnDef, LogicalType, Schema};

fn show(db: &AnkerDb, label: &str) {
    let m = db.metrics();
    let count = |name| m.counter(name).unwrap_or(0);
    println!(
        "    [state] commits={} epochs: triggered={} retired={} live={} \
         materialised={} versions={}",
        count("db_committed_total"),
        count("db_epochs_triggered_total"),
        count("db_epochs_retired_total"),
        m.gauge("db_live_epochs").unwrap_or(0),
        count("db_columns_materialized_total"),
        db.total_versions(),
    );
    println!("    -- end of {label}\n");
}

fn main() -> Result<(), DbError> {
    // One table with a single column C of 6 rows, all 0 — Figure 1, step 1.
    // A trigger after every commit keeps the walkthrough's snapshots as
    // fresh as Figure 1 draws them.
    let db = AnkerDb::new(DbConfig::heterogeneous_serializable().with_snapshot_every(1));
    let t = db
        .create_table(
            "example",
            Schema::new(vec![ColumnDef::new("C", LogicalType::Int)]),
            6,
        )
        .unwrap();
    let c = db.schema(t).col("C");
    println!("Step 1: column C of 6 rows, all 0; only the OLTP component exists.");
    show(&db, "step 1");

    // Step 2: T1 writes w(5)=1, w(1)=2; T2 writes w(3)=3 — all only in
    // their local write sets.
    let mut t1 = db.begin(TxnKind::Oltp);
    t1.update(t, c, 5, 1)?;
    t1.update(t, c, 1, 2)?;
    let mut t2 = db.begin(TxnKind::Oltp);
    t2.update(t, c, 3, 3)?;
    println!("Step 2: T1 buffered w(5)=1, w(1)=2; T2 buffered w(3)=3.");
    println!(
        "    T1 sees its own writes: C[5]={}, others see the column untouched.",
        t1.get(t, c, 5)?
    );
    show(&db, "step 2");

    // Step 3: T1 commits (old values move into version chains); T2 aborts
    // (free — nothing shared was touched).
    let commit_ts = t1.commit()?;
    t2.abort();
    println!("Step 3: T1 committed at ts {commit_ts}; T2 aborted at zero cost.");
    println!("    Version chains now hold the old zeros of rows 1 and 5.");
    show(&db, "step 3");

    // Step 4: OLAP transaction T3 arrives — the first snapshot is taken
    // (virtually, via vm_snapshot) and C's chains are handed over.
    let mut t3 = db.begin(TxnKind::Olap);
    let mut sum = 0i64;
    t3.scan_on(t)
        .project(&[c])
        .for_each(|_, v| sum += v[0] as i64)?;
    println!("Step 4: OLAP T3 arrived; snapshot taken; sum(0..=5) = {sum} (= 1+2).");
    show(&db, "step 4");

    // Step 5: OLTP T4 reads r(3) from the most recent representation and
    // buffers w(3)=4, w(1)=5, while T3 still runs on its snapshot.
    let mut t4 = db.begin(TxnKind::Oltp);
    let r3 = t4.get(t, c, 3)?;
    t4.update(t, c, 3, 4)?;
    t4.update(t, c, 1, 5)?;
    println!("Step 5: T4 read r(3)={r3} from the OLTP component and buffered writes.");

    // Step 6: T4 commits — no interference with the running T3.
    t4.commit()?;
    let mut sum_again = 0i64;
    t3.scan_on(t)
        .project(&[c])
        .for_each(|_, v| sum_again += v[0] as i64)?;
    println!(
        "Step 6: T4 committed; T3's snapshot still sums to {sum_again} \
         (frozen at its epoch)."
    );
    show(&db, "step 6");

    // Step 7: a newer snapshot for fresh analytics (a second OLAP arrival
    // pins a fresh epoch, since T4's commit superseded the old one).
    let mut t5 = db.begin(TxnKind::Olap);
    let mut sum_fresh = 0i64;
    t5.scan_on(t)
        .project(&[c])
        .for_each(|_, v| sum_fresh += v[0] as i64)?;
    println!(
        "Step 7: new OLAP T5 runs on a fresh snapshot: sum = {sum_fresh} \
         (= 5+4+1 after T4)."
    );
    show(&db, "step 7");

    // Step 8: T3 and T5 finish; the superseded snapshot retires, dropping
    // its version chains with it — garbage collection for free.
    t3.commit()?;
    t5.commit()?;
    println!("Step 8: OLAP transactions done; superseded epochs retired.");
    show(&db, "step 8");

    assert_eq!(sum, 3);
    assert_eq!(sum_again, 3);
    assert_eq!(sum_fresh, 10);
    assert!(db.metrics().counter("db_epochs_retired_total") >= Some(1));
    println!("All of Figure 1 verified. ✔");
    Ok(())
}
