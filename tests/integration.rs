//! Cross-crate integration tests through the `ankerdb` facade: the full
//! stack from the simulated kernel up to TPC-H queries.

mod common;

use ankerdb::core::{AnkerDb, DbConfig, IsolationLevel, ProcessingMode, TxnKind};
use ankerdb::snapshot::{Snapshotter, VmSnapshotter};
use ankerdb::storage::{ColumnDef, LogicalType, Schema, Value};
use ankerdb::tpch::gen::{self, TpchConfig};
use ankerdb::tpch::oltp::{run_oltp, OltpKind};
use ankerdb::tpch::queries::{q1, q6};
use ankerdb::vmem::{Kernel, MapBacking, Prot, Share};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn facade_exposes_the_full_stack() {
    // Kernel level.
    let kernel = Kernel::default();
    let space = kernel.create_space();
    let ps = space.page_size();
    let area = space
        .mmap(4 * ps, Prot::READ_WRITE, Share::Private, MapBacking::Anon)
        .unwrap();
    space.write_u64(area, 99).unwrap();
    let snap = space.vm_snapshot(None, area, 4 * ps).unwrap();
    space.write_u64(area, 100).unwrap();
    assert_eq!(space.read_u64(snap).unwrap(), 99);

    // Snapshot-technique level.
    let mut s = VmSnapshotter::new(2, 8).unwrap();
    s.write_base(0, 0, 0, 5).unwrap();
    let id = s.snapshot_columns(2).unwrap();
    s.write_base(0, 0, 0, 6).unwrap();
    assert_eq!(s.read_snapshot(id, 0, 0, 0).unwrap(), 5);

    // Database level.
    let db = AnkerDb::new(DbConfig::default());
    assert_eq!(db.config().mode, ProcessingMode::Heterogeneous);
    assert_eq!(db.config().isolation, IsolationLevel::Serializable);
}

#[test]
fn database_survives_a_life_story() {
    // Create, load, update under all kinds of transactions, snapshot,
    // GC — one long scenario exercising every layer together.
    let db = AnkerDb::new(
        DbConfig::heterogeneous_serializable()
            .with_snapshot_every(10)
            .with_gc_interval(None),
    );
    let t = db
        .create_table(
            "events",
            Schema::new(vec![
                ColumnDef::new("count", LogicalType::Int),
                ColumnDef::new("weight", LogicalType::Double),
            ]),
            2048,
        )
        .unwrap();
    let schema = db.schema(t);
    let (count, weight) = (schema.col("count"), schema.col("weight"));
    db.fill_column(t, count, (0..2048).map(|i| Value::Int(i).encode()))
        .unwrap();
    db.fill_column(
        t,
        weight,
        (0..2048).map(|i| Value::Double(i as f64 / 2.0).encode()),
    )
    .unwrap();

    let mut checks = 0;
    for round in 0..100i64 {
        let mut w = db.begin(TxnKind::Oltp);
        let row = (round * 13 % 2048) as u32;
        let c = w.get_value(t, count, row).unwrap().as_int();
        w.update_value(t, count, row, Value::Int(c + 1)).unwrap();
        let wt = w.get_value(t, weight, row).unwrap().as_double();
        w.update_value(t, weight, row, Value::Double(wt * 1.01))
            .unwrap();
        w.commit().unwrap();

        if round % 10 == 0 {
            let mut olap = db.begin(TxnKind::Olap);
            let (sum, _) = olap
                .scan_on(t)
                .project(&[count])
                .fold(0i64, |acc, _, vals| acc + vals[0].as_int())
                .unwrap();
            olap.commit().unwrap();
            // Base sum plus one increment per commit visible at the
            // snapshot: between base and base + rounds so far.
            let base: i64 = (0..2048).sum();
            assert!(
                sum >= base && sum <= base + round + 1,
                "sum {sum} round {round}"
            );
            checks += 1;
        }
    }
    assert_eq!(checks, 10);
    #[cfg(not(feature = "obs-off"))]
    {
        assert_eq!(common::counter(&db, "db_committed_total"), 100);
        assert!(common::counter(&db, "db_epochs_triggered_total") >= 9);
    }
    let live = db.metrics().gauge("db_live_epochs").unwrap();
    assert!(live <= 3, "epochs must retire: {live}");
}

#[test]
fn tpch_queries_run_against_live_updates() {
    let t = gen::generate(
        DbConfig::heterogeneous_serializable()
            .with_snapshot_every(25)
            .with_gc_interval(None),
        &TpchConfig {
            scale_factor: 0.004,
            seed: 3,
        },
    );
    let mut rng = SmallRng::seed_from_u64(1);
    // Interleave updates and analytics.
    for i in 0..200 {
        let _ = run_oltp(&t, OltpKind::sample(&mut rng), &mut rng);
        if i % 50 == 0 {
            let mut olap = t.db.begin(TxnKind::Olap);
            let rows = q1(&t, &mut olap, 90).unwrap();
            assert!(!rows.is_empty());
            let rev = q6(&t, &mut olap, 1995, 0.05, 24.0).unwrap();
            assert!(rev >= 0.0);
            olap.commit().unwrap();
        }
    }
    #[cfg(not(feature = "obs-off"))]
    assert!(common::counter(&t.db, "db_committed_total") >= 150);
}

#[test]
fn memory_is_bounded_under_snapshot_churn() {
    // Continuous snapshotting with OLAP consumers must not leak frames:
    // retired epochs return their COW pages.
    let db = AnkerDb::new(
        DbConfig::heterogeneous_serializable()
            .with_snapshot_every(1)
            .with_gc_interval(None),
    );
    let t = db
        .create_table(
            "hot",
            Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
            512,
        )
        .unwrap();
    let v = db.schema(t).col("v");
    db.fill_column(t, v, 0..512).unwrap();
    let mut peak = 0;
    for i in 0..400u32 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, v, i % 512, i as u64).unwrap();
        w.commit().unwrap();
        let mut olap = db.begin(TxnKind::Olap);
        let _ = olap.get(t, v, 0).unwrap();
        olap.commit().unwrap();
        peak = peak.max(db.kernel().frames_in_use());
    }
    // One column of 512 rows = 1 page. A retired image is unmapped when
    // its last handle drops, so at most the live page and one private copy
    // for a still-held image exist at any time — not one per epoch churned.
    assert!(peak <= 2, "frames peaked at {peak}");
    // After a GC pass, too, only the live state remains.
    db.run_gc_once();
    let now = db.kernel().frames_in_use();
    assert!(now < 20, "frames after drain: {now}");
}

#[test]
fn homogeneous_gc_thread_runs_in_background() {
    let db = AnkerDb::new(
        DbConfig::homogeneous_serializable()
            .with_gc_interval(Some(std::time::Duration::from_millis(20))),
    );
    let t = db
        .create_table(
            "x",
            Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
            64,
        )
        .unwrap();
    let v = db.schema(t).col("v");
    for i in 0..100u64 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, v, 0, i).unwrap();
        w.commit().unwrap();
    }
    assert!(db.total_versions() > 0);
    // Give the GC thread a few intervals.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while db.total_versions() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(db.total_versions(), 0, "background GC never collected");
    #[cfg(not(feature = "obs-off"))]
    assert!(common::counter(&db, "db_gc_passes_total") > 0);
    db.shutdown();
}
