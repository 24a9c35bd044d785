//! Engine-level tests of AnKerDB: visibility, conflicts, serializability,
//! heterogeneous snapshots, garbage collection, and cross-thread
//! consistency invariants.

mod common;

use anker_core::{
    AbortReason, AnkerDb, ColumnDef, DbConfig, DbError, LogicalType, Schema, TableId, TxnKind,
};
use anker_storage::ColumnId;
use common::counter;

fn small_db(config: DbConfig) -> (AnkerDb, TableId, ColumnId, ColumnId) {
    let db = AnkerDb::new(config.with_gc_interval(None));
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ]),
            4096,
        )
        .unwrap();
    let schema = db.schema(t);
    let a = schema.col("a");
    let b = schema.col("b");
    db.fill_column(t, a, 0..4096).unwrap();
    db.fill_column(t, b, (0..4096).map(|i| i * 2)).unwrap();
    (db, t, a, b)
}

#[test]
fn commit_then_read() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable());
    let mut w = db.begin(TxnKind::Oltp);
    w.update(t, a, 10, 777).unwrap();
    // Own write visible before commit; shared state untouched.
    assert_eq!(w.get(t, a, 10).unwrap(), 777);
    let mut other = db.begin(TxnKind::Oltp);
    assert_eq!(other.get(t, a, 10).unwrap(), 10);
    other.abort();
    w.commit().unwrap();
    let mut r = db.begin(TxnKind::Oltp);
    assert_eq!(r.get(t, a, 10).unwrap(), 777);
    r.commit().unwrap();
}

#[test]
fn snapshot_isolation_reads_are_stable() {
    let (db, t, a, _) = small_db(DbConfig::homogeneous_snapshot_isolation());
    let mut reader = db.begin(TxnKind::Oltp);
    assert_eq!(reader.get(t, a, 5).unwrap(), 5);
    // A younger transaction commits an update.
    let mut w = db.begin(TxnKind::Oltp);
    w.update(t, a, 5, 500).unwrap();
    w.commit().unwrap();
    // The old reader keeps seeing its snapshot (version chain traversal).
    assert_eq!(reader.get(t, a, 5).unwrap(), 5);
    reader.commit().unwrap();
    // A fresh reader sees the update.
    let mut r2 = db.begin(TxnKind::Oltp);
    assert_eq!(r2.get(t, a, 5).unwrap(), 500);
    r2.commit().unwrap();
}

#[test]
fn write_write_conflict_aborts_second_writer() {
    let (db, t, a, _) = small_db(DbConfig::homogeneous_snapshot_isolation());
    let mut t1 = db.begin(TxnKind::Oltp);
    let mut t2 = db.begin(TxnKind::Oltp);
    t1.update(t, a, 0, 1).unwrap();
    t2.update(t, a, 0, 2).unwrap();
    t1.commit().unwrap();
    let err = t2.commit().unwrap_err();
    assert_eq!(err, DbError::Aborted(AbortReason::WriteWriteConflict));
    #[cfg(not(feature = "obs-off"))]
    assert_eq!(counter(&db, "db_aborted_ww_total"), 1);
}

#[test]
fn aborts_discard_local_writes() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable());
    let mut w = db.begin(TxnKind::Oltp);
    w.update(t, a, 3, 999).unwrap();
    w.abort();
    let mut r = db.begin(TxnKind::Oltp);
    assert_eq!(r.get(t, a, 3).unwrap(), 3);
    r.commit().unwrap();
    // Dropping without commit aborts too.
    {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, 3, 111).unwrap();
    }
    let mut r = db.begin(TxnKind::Oltp);
    assert_eq!(r.get(t, a, 3).unwrap(), 3);
    r.commit().unwrap();
}

#[test]
fn olap_transactions_cannot_write() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable());
    let mut olap = db.begin(TxnKind::Olap);
    assert_eq!(
        olap.update(t, a, 0, 1).unwrap_err(),
        DbError::ReadOnlyTransaction
    );
    olap.commit().unwrap();
}

/// Write skew: T1 reads a and writes b; T2 reads b and writes a. Under SI
/// both commit (anomaly); under full serializability one must abort.
fn run_write_skew(config: DbConfig) -> (Result<u64, DbError>, Result<u64, DbError>) {
    let (db, t, a, b) = small_db(config);
    let mut t1 = db.begin(TxnKind::Oltp);
    let mut t2 = db.begin(TxnKind::Oltp);
    let ra = t1.get(t, a, 0).unwrap();
    t1.update(t, b, 0, ra + 100).unwrap();
    let rb = t2.get(t, b, 0).unwrap();
    t2.update(t, a, 0, rb + 100).unwrap();
    (t1.commit(), t2.commit())
}

#[test]
fn write_skew_allowed_under_snapshot_isolation() {
    let (r1, r2) = run_write_skew(DbConfig::homogeneous_snapshot_isolation());
    assert!(
        r1.is_ok() && r2.is_ok(),
        "SI permits write skew: {r1:?} {r2:?}"
    );
}

#[test]
fn write_skew_prevented_under_serializability() {
    let (r1, r2) = run_write_skew(DbConfig::homogeneous_serializable());
    assert!(r1.is_ok(), "first committer wins: {r1:?}");
    match r2 {
        Err(DbError::Aborted(AbortReason::ValidationFailed { .. })) => {}
        other => panic!("expected validation abort, got {other:?}"),
    }
}

#[test]
fn range_predicate_validation() {
    let (db, t, a, b) = small_db(DbConfig::homogeneous_serializable());
    // T1 scans rows with a in [0, 50] and writes a summary into b. The
    // pushed-down predicate registers the precision lock automatically.
    let mut t1 = db.begin(TxnKind::Oltp);
    let mut sum = 0u64;
    t1.scan_on(t)
        .range_i64(a, 0, 50)
        .project(&[a])
        .for_each(|_, v| sum += v[0])
        .unwrap();
    // Concurrently, T2 moves a value into that range and commits.
    let mut t2 = db.begin(TxnKind::Oltp);
    t2.update(t, a, 3000, 25).unwrap();
    t2.commit().unwrap();
    // T1's result is stale -> must abort at commit.
    t1.update(t, b, 0, sum).unwrap();
    match t1.commit() {
        Err(DbError::Aborted(AbortReason::ValidationFailed { .. })) => {}
        other => panic!("expected validation abort, got {other:?}"),
    }
    #[cfg(not(feature = "obs-off"))]
    assert_eq!(counter(&db, "db_aborted_validation_total"), 1);
}

#[test]
fn unrelated_writes_pass_validation() {
    let (db, t, a, b) = small_db(DbConfig::homogeneous_serializable());
    let mut t1 = db.begin(TxnKind::Oltp);
    t1.scan_on(t)
        .range_i64(a, 0, 50)
        .for_each(|_, _| {})
        .unwrap();
    t1.update(t, b, 1, 1).unwrap();
    // T2 writes far outside T1's predicate range: the auto-registered
    // precision lock is the *range*, not the whole column, so T1 commits.
    let mut t2 = db.begin(TxnKind::Oltp);
    t2.update(t, a, 3000, 999_999).unwrap();
    t2.commit().unwrap();
    t1.commit().expect("no predicate intersection, must commit");
}

#[test]
fn builder_predicate_catches_write_into_scanned_range() {
    // The manual `log_range`/`log_dict_eq` shims are gone; the builder's
    // auto-registered precision lock must provide the same protection.
    let (db, t, a, b) = small_db(DbConfig::homogeneous_serializable());
    let mut t1 = db.begin(TxnKind::Oltp);
    t1.scan_on(t)
        .range_i64(a, 0, 50)
        .for_each(|_, _| {})
        .unwrap();
    let mut t2 = db.begin(TxnKind::Oltp);
    // T2 moves a row's value *into* T1's scanned range: T1's read is no
    // longer repeatable and its commit must fail validation.
    t2.update(t, a, 3000, 25).unwrap();
    t2.commit().unwrap();
    t1.update(t, b, 0, 1).unwrap();
    match t1.commit() {
        Err(DbError::Aborted(AbortReason::ValidationFailed { .. })) => {}
        other => panic!("expected validation abort, got {other:?}"),
    }
}

#[test]
fn hetero_olap_runs_on_snapshot_epoch() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable().with_snapshot_every(5));
    // First OLAP arrival creates the first epoch (Figure 1, step 4).
    let sum_col = |olap: &mut anker_core::Txn| {
        let mut sum = 0u64;
        olap.scan_on(t)
            .project(&[a])
            .for_each(|_, v| sum += v[0])
            .unwrap();
        sum
    };
    let mut olap = db.begin(TxnKind::Olap);
    let sum0 = sum_col(&mut olap);
    assert_eq!(sum0, (0..4096u64).sum::<u64>());
    // Concurrent OLTP updates do not disturb the running OLAP txn.
    for i in 0..20 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, i, 0).unwrap();
        w.commit().unwrap();
    }
    let sum1 = sum_col(&mut olap);
    assert_eq!(sum1, sum0, "snapshot must be frozen for the OLAP txn");
    olap.commit().unwrap();
    // A new OLAP txn sees a fresher epoch (triggered every 5 commits).
    let mut olap2 = db.begin(TxnKind::Olap);
    let sum2 = sum_col(&mut olap2);
    olap2.commit().unwrap();
    assert!(sum2 < sum0, "later epoch must reflect the zeroed rows");
    #[cfg(not(feature = "obs-off"))]
    assert!(counter(&db, "db_epochs_triggered_total") >= 2);
}

/// ROADMAP 7(a): an OLAP arrival before the first commit cuts its epoch
/// at timestamp 0, which the commit fast path used to read as "no epoch
/// yet" — the write installed without materialising or damage-marking the
/// column, and every analyst touching it on that epoch panicked in
/// `resolve_snap_col` ("live epoch exists").
#[test]
fn epoch_cut_at_ts_zero_survives_a_write_to_an_unread_column() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable());
    let mut analyst = db.begin(TxnKind::Olap);
    let mut w = db.begin(TxnKind::Oltp);
    w.update(t, a, 7, 1_000_000).unwrap();
    w.commit().unwrap();
    // A second analyst, arriving after the write, shares the still-fresh
    // epoch: both see the column exactly as it was at timestamp 0.
    let mut late = db.begin(TxnKind::Olap);
    for olap in [&mut analyst, &mut late] {
        let (n, _) = olap
            .scan_on(t)
            .range_i64(a, 4096, i64::MAX)
            .count()
            .unwrap();
        assert_eq!(n, 0, "the epoch predates the write");
    }
    analyst.commit().unwrap();
    late.commit().unwrap();
    let mut oltp = db.begin(TxnKind::Oltp);
    assert_eq!(oltp.get(t, a, 7).unwrap(), 1_000_000);
    oltp.abort();
}

#[test]
fn olap_scan_is_tight_on_snapshots() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable().with_snapshot_every(1));
    // Build up versions.
    for i in 0..100 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, i % 10, i as u64).unwrap();
        w.commit().unwrap();
    }
    let mut olap = db.begin(TxnKind::Olap);
    let stats = olap.scan_on(t).project(&[a]).for_each(|_, _| {}).unwrap();
    olap.commit().unwrap();
    assert_eq!(stats.checked_rows, 0, "snapshot scans never check versions");
    assert_eq!(stats.chain_walks, 0);
    assert_eq!(stats.tight_rows, 4096);
}

#[test]
fn homogeneous_olap_pays_version_checks() {
    let (db, t, a, _) = small_db(DbConfig::homogeneous_serializable());
    // An old reader starts before updates.
    let mut olap = db.begin(TxnKind::Olap);
    for i in 0..100u32 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, i * 40, 0).unwrap();
        w.commit().unwrap();
    }
    let mut n = 0u64;
    let stats = olap
        .scan_on(t)
        .project(&[a])
        .for_each(|_, _| n += 1)
        .unwrap();
    olap.commit().unwrap();
    assert_eq!(n, 4096);
    assert!(
        stats.chain_walks >= 100,
        "old reader must traverse chains: {stats:?}"
    );
}

#[test]
fn multi_column_snapshot_consistency() {
    // Two columns are updated together; an OLAP txn must never observe a
    // half-applied pair, even though columns materialise lazily at
    // different moments.
    let (db, t, a, b) = small_db(DbConfig::heterogeneous_serializable().with_snapshot_every(3));
    for round in 1..=50u64 {
        let mut w = db.begin(TxnKind::Oltp);
        // Invariant: b = 2*a for row 7.
        w.update(t, a, 7, round).unwrap();
        w.update(t, b, 7, round * 2).unwrap();
        w.commit().unwrap();
        let mut olap = db.begin(TxnKind::Olap);
        let va = olap.get(t, a, 7).unwrap();
        let vb = olap.get(t, b, 7).unwrap();
        olap.commit().unwrap();
        assert_eq!(vb, va * 2, "epoch exposed inconsistent column pair");
    }
}

#[test]
fn lazy_materialisation_only_touched_columns() {
    let db = AnkerDb::new(
        DbConfig::heterogeneous_serializable()
            .with_snapshot_every(1)
            .with_gc_interval(None),
    );
    let t = db
        .create_table(
            "wide",
            Schema::new(
                (0..8)
                    .map(|i| ColumnDef::new(format!("c{i}"), LogicalType::Int))
                    .collect(),
            ),
            1024,
        )
        .unwrap();
    let c0 = db.schema(t).col("c0");
    // Commits touch only c0; triggers happen every commit.
    for i in 0..10 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, c0, i, 1).unwrap();
        w.commit().unwrap();
    }
    let materialized = counter(&db, "db_columns_materialized_total");
    assert!(
        materialized <= 12,
        "only the written column may materialise, got {materialized}"
    );
}

#[test]
fn epochs_are_retired_and_memory_reclaimed() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable().with_snapshot_every(1));
    for i in 0..50 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, i, 1).unwrap();
        w.commit().unwrap();
        // Touch each epoch so snapshots materialise.
        let mut olap = db.begin(TxnKind::Olap);
        let _ = olap.get(t, a, 0).unwrap();
        olap.commit().unwrap();
    }
    #[cfg(not(feature = "obs-off"))]
    {
        let retired = counter(&db, "db_epochs_retired_total");
        assert!(retired >= 40, "epochs retired: {retired}");
        let live = db.metrics().gauge("db_live_epochs").unwrap();
        assert!(live <= 3, "live epochs: {live}");
    }
}

#[test]
fn old_oltp_reader_survives_snapshot_handover() {
    // A pre-snapshot OLTP reader must still find its versions after the
    // chain store was frozen and handed over.
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable().with_snapshot_every(1));
    let mut w = db.begin(TxnKind::Oltp);
    w.update(t, a, 42, 1000).unwrap();
    w.commit().unwrap();
    let mut old_reader = db.begin(TxnKind::Oltp); // sees a[42] = 1000
                                                  // Each commit triggers an epoch; writes to row 42 move old values into
                                                  // chains that are then frozen.
    for v in 1..=5u64 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, 42, 1000 + v).unwrap();
        w.commit().unwrap();
    }
    assert_eq!(old_reader.get(t, a, 42).unwrap(), 1000);
    old_reader.commit().unwrap();
}

/// Analytical readers read frozen images only, so they hold back no
/// version chain: after 300 commits under a pinned `SnapshotReader`, or
/// under an open heterogeneous OLAP transaction, one GC pass reclaims every
/// version, and the analyst still reads its epoch.
#[test]
fn pinned_analysts_do_not_hold_back_version_gc() {
    for hold_reader in [true, false] {
        let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable().with_snapshot_every(1));
        let reader = hold_reader.then(|| db.snapshot_reader().unwrap());
        let mut olap = (!hold_reader).then(|| db.begin(TxnKind::Olap));
        let mut analyst_read = || match (&reader, &mut olap) {
            (Some(r), _) => r.get(t, a, 0).unwrap(),
            (None, Some(o)) => o.get(t, a, 0).unwrap(),
            (None, None) => unreachable!(),
        };
        assert_eq!(analyst_read(), 0);
        for v in 1..=300u64 {
            let mut w = db.begin(TxnKind::Oltp);
            w.update(t, a, 0, v).unwrap();
            w.commit().unwrap();
            let mut short = db.begin(TxnKind::Olap);
            let _ = short.get(t, a, 0).unwrap();
            short.commit().unwrap();
        }
        db.run_gc_once();
        assert_eq!(
            db.total_versions(),
            0,
            "reader held: {hold_reader}: the analyst held back version GC"
        );
        assert_eq!(analyst_read(), 0, "reader held: {hold_reader}");
    }
}

#[test]
fn homogeneous_gc_collects_versions() {
    let (db, t, a, _) = small_db(DbConfig::homogeneous_serializable());
    for v in 0..200u64 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, 0, v).unwrap();
        w.commit().unwrap();
    }
    assert_eq!(db.total_versions(), 200);
    let removed = db.run_gc_once();
    assert_eq!(removed, 200, "no active readers: all versions are garbage");
    assert_eq!(db.total_versions(), 0);
    // With an active old reader, its version must survive.
    let mut reader = db.begin(TxnKind::Oltp);
    let before = reader.get(t, a, 0).unwrap();
    for v in 0..50u64 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, 0, 1000 + v).unwrap();
        w.commit().unwrap();
    }
    db.run_gc_once();
    assert_eq!(reader.get(t, a, 0).unwrap(), before);
    reader.commit().unwrap();
}

#[test]
fn snapshot_area_recycling_ablation() {
    let cfg = DbConfig::heterogeneous_serializable().with_snapshot_every(1);
    let (db, t, a, _) = small_db(cfg);
    for i in 0..30 {
        let mut w = db.begin(TxnKind::Oltp);
        w.update(t, a, i, 1).unwrap();
        w.commit().unwrap();
        let mut olap = db.begin(TxnKind::Olap);
        let _ = olap.get(t, a, 0).unwrap();
        olap.commit().unwrap();
    }
    // Every epoch freezes a fresh view and unmaps the retired ones.
    let mut r = db.begin(TxnKind::Oltp);
    assert_eq!(r.get(t, a, 0).unwrap(), 1);
    r.commit().unwrap();
}

#[test]
fn concurrent_transfers_preserve_invariant() {
    // Bank-style invariant: the sum over column a is constant under
    // concurrent transfers; OLAP scans (snapshot or versioned) must always
    // observe exactly that sum.
    for config in [
        DbConfig::heterogeneous_serializable().with_snapshot_every(50),
        DbConfig::homogeneous_serializable(),
        DbConfig::homogeneous_snapshot_isolation(),
    ] {
        let (db, t, a, _) = small_db(config);
        let expected: u64 = (0..4096u64).sum();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut writers = Vec::new();
            for worker in 0..2u64 {
                let db = db.clone();
                writers.push(s.spawn(move || {
                    let mut rng: u64 = 0x9E3779B97F4A7C15 ^ worker;
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    let mut done = 0;
                    while done < 300 {
                        let from = (next() % 4096) as u32;
                        let to = (next() % 4096) as u32;
                        if from == to {
                            continue;
                        }
                        let mut txn = db.begin(TxnKind::Oltp);
                        let vf = txn.get(t, a, from).unwrap();
                        let vt = txn.get(t, a, to).unwrap();
                        if vf == 0 {
                            txn.abort();
                            continue;
                        }
                        txn.update(t, a, from, vf - 1).unwrap();
                        txn.update(t, a, to, vt + 1).unwrap();
                        if txn.commit().is_ok() {
                            done += 1;
                        }
                    }
                }));
            }
            let scanner = {
                let db = db.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut scans = 0u64;
                    // `loop`/break-after: at least one scan always runs,
                    // even if the writers finish before this thread is
                    // first scheduled.
                    loop {
                        let mut olap = db.begin(TxnKind::Olap);
                        let mut sum = 0u64;
                        olap.scan_on(t)
                            .project(&[a])
                            .for_each(|_, v| sum += v[0])
                            .unwrap();
                        olap.commit().unwrap();
                        assert_eq!(sum, expected, "scan observed a torn state");
                        scans += 1;
                        if stop.load(std::sync::atomic::Ordering::Acquire) {
                            break;
                        }
                    }
                    scans
                })
            };
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            let scans = scanner.join().unwrap();
            assert!(scans > 0, "scanner never ran");
        });
        #[cfg(not(feature = "obs-off"))]
        {
            let committed = counter(&db, "db_committed_total");
            assert!(committed >= 600, "commits: {committed}");
        }
    }
}

/// The typed filters agree with a manual re-filtering of a raw scan, on
/// both the snapshot and the versioned path.
#[test]
fn scan_builder_filters_match_manual_filtering() {
    for config in [
        DbConfig::heterogeneous_serializable().with_snapshot_every(5),
        DbConfig::homogeneous_serializable(),
    ] {
        let db = AnkerDb::new(config.with_gc_interval(None));
        let dict = std::sync::Arc::new(anker_storage::Dictionary::with_values([
            "a", "b", "c", "d", "e", "f", "g",
        ]));
        let t = db
            .create_table(
                "m",
                Schema::new(vec![
                    ColumnDef::new("i", LogicalType::Int),
                    ColumnDef::new("d", LogicalType::Double),
                    ColumnDef::dict("k", dict),
                ]),
                3072,
            )
            .unwrap();
        let schema = db.schema(t);
        let (i, d, k) = (schema.col("i"), schema.col("d"), schema.col("k"));
        use anker_core::Value;
        db.fill_column(t, i, (0..3072).map(|x| Value::Int(x % 97).encode()))
            .unwrap();
        db.fill_column(
            t,
            d,
            (0..3072).map(|x| Value::Double(x as f64 / 10.0).encode()),
        )
        .unwrap();
        db.fill_column(t, k, (0..3072).map(|x| Value::Dict(x % 7).encode()))
            .unwrap();
        let mut olap = db.begin(TxnKind::Olap);
        // range_i64 + lt_f64 + in_set, conjunctively.
        let mut expected = Vec::new();
        for x in 0..3072u32 {
            let iv = (x % 97) as i64;
            let dv = x as f64 / 10.0;
            let kv = x % 7;
            if (10..=40).contains(&iv) && dv < 150.0 && (kv == 2 || kv == 5) {
                expected.push((x, iv));
            }
        }
        let mut got = Vec::new();
        let stats = olap
            .scan_on(t)
            .range_i64(i, 10, 40)
            .lt_f64(d, 150.0)
            .in_set(k, [2u32, 5])
            .project(&[i])
            .for_each_typed(|row, vals| got.push((row, vals[0].as_int())))
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(
            stats.rows_filtered,
            3072 - expected.len() as u64 - stats.blocks_skipped * 1024
        );
        // count() agrees, dict_eq alone agrees.
        let (n, _) = olap.scan_on(t).dict_eq(k, 3).count().unwrap();
        assert_eq!(n, (0..3072u32).filter(|x| x % 7 == 3).count() as u64);
        olap.commit().unwrap();
    }
}

/// Zone maps prune whole blocks on the snapshot path when the data is
/// clustered on the filtered column.
#[test]
fn zone_maps_skip_blocks_on_snapshot_scans() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable().with_snapshot_every(50));
    // Column a holds 0..4096 in order (loaded by small_db): 4 blocks with
    // disjoint ranges.
    let mut olap = db.begin(TxnKind::Olap);
    let mut sum = 0u64;
    let stats = olap
        .scan_on(t)
        .range_i64(a, 2048, 2100)
        .project(&[a])
        .for_each(|_, v| sum += v[0])
        .unwrap();
    olap.commit().unwrap();
    assert_eq!(sum, (2048..=2100u64).sum::<u64>());
    assert_eq!(stats.blocks_skipped, 3, "blocks 0, 1, 3 cannot match");
    assert_eq!(stats.tight_rows, 1024, "only block 2 was read");
    assert_eq!(stats.rows_filtered, 1024 - 53);
    // The versioned path filters but never prunes (live data has no zone
    // maps).
    let mut oltp = db.begin(TxnKind::Oltp);
    let mut n = 0u64;
    let stats = oltp
        .scan_on(t)
        .range_i64(a, 2048, 2100)
        .for_each(|_, _| n += 1)
        .unwrap();
    oltp.commit().unwrap();
    assert_eq!(n, 53);
    assert_eq!(stats.blocks_skipped, 0);
    assert_eq!(stats.rows_filtered, 4096 - 53);
}

/// Integer range filters compare exactly: values around 2^53, where `f64`
/// rounding collapses neighbours, still filter correctly.
#[test]
fn range_i64_is_exact_beyond_f64_mantissa() {
    let db = AnkerDb::new(DbConfig::heterogeneous_serializable().with_gc_interval(None));
    let t = db
        .create_table(
            "big",
            Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
            4,
        )
        .unwrap();
    let v = db.schema(t).col("v");
    const BIG: i64 = 1 << 53; // 2^53 and 2^53 + 1 round to the same f64
    use anker_core::Value;
    db.fill_column(
        t,
        v,
        [BIG - 1, BIG, BIG + 1, BIG + 2].map(|x| Value::Int(x).encode()),
    )
    .unwrap();
    let mut olap = db.begin(TxnKind::Olap);
    let mut got = Vec::new();
    olap.scan_on(t)
        .range_i64(v, BIG + 1, i64::MAX)
        .project(&[v])
        .for_each_typed(|_, vals| got.push(vals[0].as_int()))
        .unwrap();
    olap.commit().unwrap();
    assert_eq!(
        got,
        vec![BIG + 1, BIG + 2],
        "2^53 must not leak into [2^53+1, ..]"
    );
}

/// A transaction accumulates the statistics of all its scans.
#[test]
fn txn_accumulates_scan_stats() {
    let (db, t, a, b) = small_db(DbConfig::heterogeneous_serializable());
    let mut olap = db.begin(TxnKind::Olap);
    assert_eq!(olap.scan_stats(), anker_core::ScanStats::default());
    let s1 = olap.scan_on(t).project(&[a]).for_each(|_, _| {}).unwrap();
    let s2 = olap.scan_on(t).project(&[b]).for_each(|_, _| {}).unwrap();
    let total = olap.scan_stats();
    assert_eq!(total.tight_rows, s1.tight_rows + s2.tight_rows);
    olap.commit().unwrap();
}

/// Satellite regression: `total_versions`/`column_versions` count frozen
/// epoch stores too — freezing an epoch must not make versions vanish from
/// the diagnostics.
#[test]
fn version_counts_survive_epoch_freeze() {
    let (db, t, a, _) = small_db(DbConfig::heterogeneous_serializable().with_snapshot_every(1));
    // An old reader (pre-update) keeps the frozen store alive across the
    // hand-over.
    let mut old_reader = db.begin(TxnKind::Oltp);
    let mut w = db.begin(TxnKind::Oltp);
    w.update(t, a, 7, 700).unwrap();
    w.commit().unwrap();
    assert_eq!(db.total_versions(), 1);
    assert_eq!(db.column_versions(t, a), 1);
    // OLAP access materialises the column: the chain store freezes and is
    // handed to the epoch (Figure 1, step 4).
    let mut olap = db.begin(TxnKind::Olap);
    let _ = olap.get(t, a, 7).unwrap();
    olap.commit().unwrap();
    assert_eq!(
        db.column_versions(t, a),
        1,
        "freeze moved the version out of the current store; it must still count"
    );
    assert_eq!(db.total_versions(), 1);
    assert_eq!(old_reader.get(t, a, 7).unwrap(), 7);
    old_reader.commit().unwrap();
}

/// Satellite regression: bulk loads into a table a transaction has
/// observed are rejected instead of silently corrupting visibility. The
/// latch is per table: tables created later can still be loaded.
#[test]
fn fill_column_rejected_after_first_observation() {
    let db = AnkerDb::new(DbConfig::heterogeneous_serializable().with_gc_interval(None));
    let t = db
        .create_table(
            "early",
            Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
            16,
        )
        .unwrap();
    let v = db.schema(t).col("v");
    db.fill_column(t, v, 0..16).unwrap();
    let mut txn = db.begin(TxnKind::Oltp);
    assert_eq!(txn.get(t, v, 3).unwrap(), 3);
    txn.abort();
    // Even after the observing transaction finished, the load window of
    // this table stays closed.
    assert_eq!(
        db.fill_column(t, v, 0..16).unwrap_err(),
        DbError::LoadAfterBegin
    );
    // A table created after transactions have run is still loadable —
    // nothing can have observed it yet.
    let t2 = db
        .create_table(
            "late",
            Schema::new(vec![ColumnDef::new("w", LogicalType::Int)]),
            16,
        )
        .unwrap();
    let w = db.schema(t2).col("w");
    db.fill_column(t2, w, 16..32).unwrap();
    let mut r = db.begin(TxnKind::Oltp);
    assert_eq!(r.get(t2, w, 0).unwrap(), 16);
    // Scans observe too: an OLAP scan over t2 closes its window.
    let mut olap = db.begin(TxnKind::Olap);
    olap.scan_on(t2).project(&[w]).for_each(|_, _| {}).unwrap();
    olap.commit().unwrap();
    assert_eq!(
        db.fill_column(t2, w, 0..16).unwrap_err(),
        DbError::LoadAfterBegin
    );
    r.commit().unwrap();
}

/// Projected-but-unfiltered columns still register full-column reads: a
/// write to such a column must abort the scanning updater.
#[test]
fn projection_columns_keep_full_column_locks() {
    let (db, t, a, b) = small_db(DbConfig::homogeneous_serializable());
    let mut t1 = db.begin(TxnKind::Oltp);
    // Filter on a, project b: b's values feed the result, so any write to
    // b intersects the read set.
    t1.scan_on(t)
        .range_i64(a, 0, 50)
        .project(&[b])
        .for_each(|_, _| {})
        .unwrap();
    let mut t2 = db.begin(TxnKind::Oltp);
    t2.update(t, b, 4000, 1).unwrap();
    t2.commit().unwrap();
    t1.update(t, a, 0, 0).unwrap();
    match t1.commit() {
        Err(DbError::Aborted(AbortReason::ValidationFailed { .. })) => {}
        other => panic!("expected validation abort, got {other:?}"),
    }
}

/// The OS backend (real memfd + mmap memory) must run the whole engine:
/// MVCC visibility and snapshot epochs with zero-copy slice scans — same
/// assertions as on the simulated kernel.
#[cfg(target_os = "linux")]
#[test]
fn os_backend_runs_the_full_engine() {
    use anker_core::BackendKind;
    let cfg = DbConfig::heterogeneous_serializable()
        .with_snapshot_every(4)
        .with_gc_interval(None)
        .with_backend(BackendKind::Os);
    let (db, t, a, b) = small_db(cfg);

    // An old OLTP reader pins its snapshot across OLAP-driven swaps.
    let mut old_reader = db.begin(TxnKind::Oltp);
    assert_eq!(old_reader.get(t, a, 5).unwrap(), 5);

    // Interleave writes and OLAP scans across several epochs so areas
    // freeze and retire on real memory.
    for round in 0..6u64 {
        for i in 0..8u32 {
            let mut w = db.begin(TxnKind::Oltp);
            w.update(t, a, i, 1_000 * (round + 1) + i as u64).unwrap();
            w.update(t, b, i, 2_000 * (round + 1) + i as u64).unwrap();
            w.commit().unwrap();
        }
        let mut olap = db.begin(TxnKind::Olap);
        let (sum, stats) = olap
            .scan_on(t)
            .range_i64(a, 1_000, i64::MAX)
            .project(&[a])
            .fold(0u64, |acc, _row, vals| acc + vals[0].as_int() as u64)
            .unwrap();
        olap.commit().unwrap();
        assert!(sum >= 8 * 1_000 * (round + 1), "snapshot scan sees commits");
        assert!(stats.tight_rows > 0, "snapshot path was taken");
    }

    // The old reader still sees its own snapshot through the chains.
    assert_eq!(old_reader.get(t, a, 5).unwrap(), 5);
    old_reader.commit().unwrap();
    #[cfg(not(feature = "obs-off"))]
    {
        assert!(counter(&db, "db_epochs_triggered_total") > 0);
        assert!(counter(&db, "db_columns_materialized_total") > 0);
    }
}
