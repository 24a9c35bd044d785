//! Integration tests of the detached [`SnapshotReader`] and the
//! morsel-parallel scan executor: the `Send + Sync` contract, epoch
//! pinning against snapshot refreshes and destination recycling, and
//! parallel-vs-sequential equivalence on both memory backends.
//!
//! The thread counts exercised are `{1, 2, 7}` plus whatever
//! `ANKER_SCAN_THREADS` names (CI runs a 4-thread and an 8-thread matrix
//! entry through that knob).

use anker_core::{
    AnkerDb, BackendKind, ColumnDef, DbConfig, DbError, LogicalType, ScanPartition, Schema,
    SnapshotReader, TxnKind, Value,
};
use proptest::prelude::*;

/// `{1, 2, 7}` ∪ `ANKER_SCAN_THREADS` (the CI matrix knob).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 7];
    if let Ok(v) = std::env::var("ANKER_SCAN_THREADS") {
        let n: usize = v
            .parse()
            .expect("ANKER_SCAN_THREADS must be a thread count");
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

fn backends() -> Vec<BackendKind> {
    let mut b = vec![BackendKind::Sim];
    if cfg!(target_os = "linux") {
        b.push(BackendKind::Os);
    }
    b
}

fn hetero(backend: BackendKind) -> DbConfig {
    DbConfig::heterogeneous_serializable()
        .with_snapshot_every(1)
        .with_gc_interval(None)
        .with_backend(backend)
}

/// `SnapshotReader` and `ScanPartition` are shareable across threads by
/// contract — enforced at compile time.
#[test]
fn reader_and_partitions_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SnapshotReader>();
    assert_send_sync::<ScanPartition>();
}

#[test]
fn homogeneous_mode_refuses_detached_readers() {
    let db = AnkerDb::new(DbConfig::homogeneous_serializable().with_gc_interval(None));
    assert!(matches!(
        db.snapshot_reader(),
        Err(DbError::SnapshotsDisabled)
    ));
}

/// A reader pins its epoch: commits after the reader opened are invisible
/// to it, a fresh reader sees them, and both can be used from other
/// threads.
#[test]
fn reader_pins_a_consistent_epoch_across_commits() {
    for backend in backends() {
        let db = AnkerDb::new(hetero(backend));
        let t = db
            .create_table(
                "t",
                Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
                4096,
            )
            .unwrap();
        let v = db.schema(t).col("v");
        db.fill_column(t, v, (0..4096).map(|_| Value::Int(1).encode()))
            .unwrap();

        let old = db.snapshot_reader().unwrap();
        let (sum_before, _) = old
            .scan(t)
            .project(&[v])
            .fold(0i64, |a, _, vals| a + vals[0].as_int(), |a, b| a + b)
            .unwrap();
        assert_eq!(sum_before, 4096);

        let mut w = db.begin(TxnKind::Oltp);
        w.update_value(t, v, 7, Value::Int(100)).unwrap();
        w.commit().unwrap();

        // The pinned reader — even used from another thread — still sees
        // the old value; a fresh reader sees the commit.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(old.get_value(t, v, 7).unwrap(), Value::Int(1));
            });
        });
        let fresh = db.snapshot_reader().unwrap();
        assert_eq!(fresh.get_value(t, v, 7).unwrap(), Value::Int(100));
        assert!(fresh.epoch_ts() > old.epoch_ts());
    }
}

/// A `SnapshotReader` held across snapshot refreshes, each retiring
/// images and freezing new ones, must keep reading its original epoch
/// bit-for-bit. Its pin keeps the epoch, and the epoch keeps a handle to
/// each of its images, so none of them is unmapped while the reader lives.
#[test]
fn reader_survives_snapshot_refresh_and_recycling_cycles() {
    for backend in backends() {
        let rows = 2048u32;
        let db = AnkerDb::new(hetero(backend));
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("a", LogicalType::Int),
                    ColumnDef::new("b", LogicalType::Int),
                ]),
                rows,
            )
            .unwrap();
        let a = db.schema(t).col("a");
        let b = db.schema(t).col("b");
        db.fill_column(t, a, (0..rows).map(|i| Value::Int(i as i64).encode()))
            .unwrap();
        db.fill_column(t, b, (0..rows).map(|i| Value::Int(-(i as i64)).encode()))
            .unwrap();

        // A full snapshot generation cycle *before* the reader exists, so
        // images nobody holds any more are unmapped while it lives.
        let mut o = db.begin(TxnKind::Olap);
        o.get(t, a, 0).unwrap();
        o.get(t, b, 0).unwrap();
        o.commit().unwrap();
        let mut w = db.begin(TxnKind::Oltp);
        w.update_value(t, a, 0, Value::Int(7_000)).unwrap();
        w.commit().unwrap();

        // The reader under test: pins its epoch, materialises both
        // columns, and records the expected snapshot content.
        let reader = db.snapshot_reader().unwrap();
        let expect_a: Vec<u64> = (0..rows).map(|r| reader.get(t, a, r).unwrap()).collect();
        let expect_b: Vec<u64> = (0..rows).map(|r| reader.get(t, b, r).unwrap()).collect();

        // Churn: writes + fresh OLAP transactions force snapshot
        // refreshes; each refresh retires the previous frozen areas, and
        // each materialisation maps a fresh view while the reader lives.
        for round in 0..8i64 {
            let mut w = db.begin(TxnKind::Oltp);
            w.update_value(t, a, 3, Value::Int(10_000 + round)).unwrap();
            w.update_value(t, b, 4, Value::Int(20_000 + round)).unwrap();
            w.commit().unwrap();
            let mut o = db.begin(TxnKind::Olap);
            o.get(t, a, 3).unwrap();
            o.get(t, b, 4).unwrap();
            o.commit().unwrap();
        }

        // Bit-for-bit: single-row reads and a parallel scan both observe
        // the original epoch.
        for r in 0..rows {
            assert_eq!(reader.get(t, a, r).unwrap(), expect_a[r as usize]);
            assert_eq!(reader.get(t, b, r).unwrap(), expect_b[r as usize]);
        }
        let (sum, _) = reader
            .scan(t)
            .project(&[a, b])
            .parallel(4)
            .fold(
                0i64,
                |acc, _, vals| acc + vals[0].as_int() + vals[1].as_int(),
                |x, y| x + y,
            )
            .unwrap();
        let expect_sum: i64 = expect_a
            .iter()
            .chain(&expect_b)
            .map(|&w| Value::decode(w, LogicalType::Int).as_int())
            .sum();
        assert_eq!(sum, expect_sum, "parallel scan diverged from the epoch");
        drop(reader);
    }
}

/// Partitions cover the table disjointly, can be driven from caller
/// threads, and agree with the sequential scan.
#[test]
fn partitions_cover_all_rows_disjointly() {
    for backend in backends() {
        let rows = 10_000u32;
        let db = AnkerDb::new(hetero(backend));
        let t = db
            .create_table(
                "t",
                Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
                rows,
            )
            .unwrap();
        let v = db.schema(t).col("v");
        db.fill_column(t, v, (0..rows).map(|i| Value::Int(i as i64).encode()))
            .unwrap();
        let reader = db.snapshot_reader().unwrap();
        let parts = reader
            .scan(t)
            .range_i64(v, 100, 9_000)
            .into_partitions(3)
            .unwrap();
        assert_eq!(parts.len(), 3);
        let mut covered = 0u64;
        for (p, q) in parts.iter().zip(parts.iter().skip(1)) {
            assert_eq!(p.rows().end, q.rows().start, "partitions must abut");
        }
        assert_eq!(parts[0].rows().start, 0);
        assert_eq!(parts.last().unwrap().rows().end, rows);
        // Drive each partition on its own thread; the partition keeps the
        // epoch pinned even after the reader is gone.
        drop(reader);
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .map(|p| s.spawn(move || p.count().unwrap().0))
                .collect();
            for h in handles {
                covered += h.join().unwrap();
            }
        });
        assert_eq!(covered, 9_000 - 100 + 1);
    }
}

/// Build a database with one Int and one Double column from proptest-drawn
/// words, take a reader, and compare `parallel(n)` against the sequential
/// in-transaction scan for count, fold, and the scan counters.
fn check_parallel_matches_sequential(
    backend: BackendKind,
    rows: u32,
    data: &[(i64, i64)],
    lo: i64,
    hi: i64,
) {
    let db = AnkerDb::new(hetero(backend));
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("x", LogicalType::Double),
            ]),
            rows,
        )
        .unwrap();
    let k = db.schema(t).col("k");
    let x = db.schema(t).col("x");
    db.fill_column(
        t,
        k,
        (0..rows).map(|i| Value::Int(data[i as usize % data.len()].0).encode()),
    )
    .unwrap();
    db.fill_column(
        t,
        x,
        (0..rows).map(|i| Value::Double(data[i as usize % data.len()].1 as f64 / 7.0).encode()),
    )
    .unwrap();
    let (lo, hi) = (lo.min(hi), lo.max(hi));

    // Sequential reference: the in-transaction snapshot scan.
    let mut txn = db.begin(TxnKind::Olap);
    let (seq_sum, seq_stats) = txn
        .scan_on(t)
        .range_i64(k, lo, hi)
        .project(&[k])
        .fold(0i64, |a, _, vals| a.wrapping_add(vals[0].as_int()))
        .unwrap();
    let (seq_count, _) = txn.scan_on(t).range_i64(k, lo, hi).count().unwrap();
    txn.commit().unwrap();

    let reader = db.snapshot_reader().unwrap();
    for n in thread_counts() {
        let (count, cstats) = reader
            .scan(t)
            .range_i64(k, lo, hi)
            .parallel(n)
            .count()
            .unwrap();
        assert_eq!(count, seq_count, "count diverged at {n} threads");
        let (sum, fstats) = reader
            .scan(t)
            .range_i64(k, lo, hi)
            .project(&[k])
            .parallel(n)
            .fold(
                0i64,
                |a, _, vals| a.wrapping_add(vals[0].as_int()),
                i64::wrapping_add,
            )
            .unwrap();
        assert_eq!(sum, seq_sum, "fold diverged at {n} threads");
        // Row-count bookkeeping must agree with the sequential path:
        // same blocks pruned, same rows read, same rows filtered out.
        for (stats, what) in [(cstats, "count"), (fstats, "fold")] {
            assert_eq!(
                stats.blocks_skipped, seq_stats.blocks_skipped,
                "{what} pruning diverged at {n} threads"
            );
            assert_eq!(
                stats.tight_rows, seq_stats.tight_rows,
                "{what} rows read diverged at {n} threads"
            );
            assert_eq!(
                stats.rows_filtered, seq_stats.rows_filtered,
                "{what} rows filtered diverged at {n} threads"
            );
            assert!(stats.threads >= 1 && stats.threads <= n as u64);
            assert!(stats.morsels >= 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random data and predicates, `parallel(n)` fold/count results
    /// and the total `ScanStats` row counts are identical to the
    /// sequential path for n ∈ {1, 2, 7} — simulated backend.
    #[test]
    fn parallel_matches_sequential_sim(
        rows in 1u32..9_000,
        data in proptest::collection::vec((-50i64..50, -70i64..70), 1..40),
        lo in -50i64..50,
        hi in -50i64..50,
    ) {
        check_parallel_matches_sequential(BackendKind::Sim, rows, &data, lo, hi);
    }
}

#[cfg(target_os = "linux")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same property on the real-OS mmap backend (zero-copy slice
    /// scan path).
    #[test]
    fn parallel_matches_sequential_os(
        rows in 1u32..9_000,
        data in proptest::collection::vec((-50i64..50, -70i64..70), 1..40),
        lo in -50i64..50,
        hi in -50i64..50,
    ) {
        check_parallel_matches_sequential(BackendKind::Os, rows, &data, lo, hi);
    }
}

/// Asking for more partitions than the table has blocks yields empty
/// trailing partitions, which must scan as empty — not crash on the
/// block-alignment invariant.
#[test]
fn surplus_partitions_are_empty_not_panics() {
    let rows = 1_500u32; // 2 blocks, not block-aligned
    let db = AnkerDb::new(hetero(BackendKind::Sim));
    let t = db
        .create_table(
            "t",
            Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
            rows,
        )
        .unwrap();
    let v = db.schema(t).col("v");
    db.fill_column(t, v, (0..rows).map(|i| Value::Int(i as i64).encode()))
        .unwrap();
    let reader = db.snapshot_reader().unwrap();
    let parts = reader.scan(t).into_partitions(4).unwrap();
    assert_eq!(parts.len(), 4);
    let mut covered = 0u64;
    for p in &parts {
        covered += p.count().unwrap().0;
    }
    assert_eq!(covered, rows as u64);
    assert!(parts[2].rows().is_empty() && parts[3].rows().is_empty());
}

/// `DbConfig::os_huge_pages` must reach the OS backend and fire
/// `madvise(MADV_HUGEPAGE)` on every wired view — the `OsStats` counter
/// proves it — and a scan issues no `madvise` of its own; the syscall
/// ledger counts every `madvise` and `mmap`, hints and the snapshot's
/// own `madvise` calls alike.
#[cfg(target_os = "linux")]
#[test]
fn huge_page_hints_surface_in_os_stats() {
    let db = AnkerDb::new(hetero(BackendKind::Os).with_os_huge_pages(true));
    let t = db
        .create_table(
            "t",
            Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
            4096,
        )
        .unwrap();
    let v = db.schema(t).col("v");
    db.fill_column(t, v, (0..4096).map(|i| Value::Int(i).encode()))
        .unwrap();
    let os = |name: &str| {
        let m = db.metrics();
        m.counter(name).expect("the OS backend surfaces `os_*`")
    };
    let after_load = os("os_huge_page_advices_total");
    assert!(after_load > 0, "table allocation must advise MADV_HUGEPAGE");
    let reader = db.snapshot_reader().unwrap();
    reader.get(t, v, 0).unwrap();
    let before_scan = os("os_madvise_calls_total");
    let (count, _) = reader
        .scan(t)
        .range_i64(v, 0, 4095)
        .parallel(2)
        .count()
        .unwrap();
    assert_eq!(count, 4096);
    assert_eq!(
        os("os_madvise_calls_total"),
        before_scan,
        "a scan of a materialised column issues no madvise"
    );
    assert!(
        os("os_huge_page_advices_total") > after_load,
        "the vm_snapshot rewire must re-advise the fresh view"
    );
    assert_eq!(
        os("os_dontneed_advices_total"),
        os("os_snapshots_total"),
        "each snapshot drops the live view's page tables once"
    );
    assert_eq!(
        os("os_madvise_calls_total"),
        os("os_huge_page_advices_total")
            + os("os_dontneed_advices_total")
            + os("os_populate_writes_total"),
        "every madvise is a huge-page hint, a DONTNEED or a populate"
    );
    assert!(os("os_mmap_calls_total") >= os("os_huge_page_advices_total"));
    // The sim backend surfaces no `os_*` namespace.
    let sim = AnkerDb::new(hetero(BackendKind::Sim));
    assert!(sim.metrics().counter("os_snapshots_total").is_none());
}

/// Adaptive conjunct ordering is deterministic by construction: its
/// state resets at every morsel start and morsel boundaries depend only
/// on table size, so not just the fold result (a non-associative `f64`
/// sum, compared bit-for-bit) but **every** kernel counter —
/// vector/dense blocks, reorders, per-filter selectivities, projection
/// reads — must be identical for every thread count.
#[test]
fn kernel_counters_identical_across_thread_counts() {
    for backend in backends() {
        let rows = 40_000u32;
        let db = AnkerDb::new(hetero(backend));
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("k", LogicalType::Int),
                    ColumnDef::new("x", LogicalType::Double),
                ]),
                rows,
            )
            .unwrap();
        let k = db.schema(t).col("k");
        let x = db.schema(t).col("x");
        db.fill_column(t, k, (0..rows).map(|i| Value::Int(i as i64 % 7).encode()))
            .unwrap();
        db.fill_column(
            t,
            x,
            (0..rows).map(|i| Value::Double((i as f64).cos() * 50.0).encode()),
        )
        .unwrap();
        let reader = db.snapshot_reader().unwrap();
        // Declared wide-first (x < 45 passes ~90%, k == 0 passes ~14%) so
        // the adaptive order has something to fix in every morsel.
        let run = |n: usize| {
            let (sum, fstats) = reader
                .scan(t)
                .lt_f64(x, 45.0)
                .range_i64(k, 0, 0)
                .project(&[x])
                .parallel(n)
                .fold(0.0f64, |a, _, vals| a + vals[0].as_double(), |a, b| a + b)
                .unwrap();
            let (count, cstats) = reader
                .scan(t)
                .lt_f64(x, 45.0)
                .range_i64(k, 0, 0)
                .parallel(n)
                .count()
                .unwrap();
            (sum, count, fstats, cstats)
        };
        let (ref_sum, ref_count, ref_fstats, ref_cstats) = run(1);
        assert!(
            ref_fstats.sel_reorders > 0,
            "the selective conjunct must get promoted (backend {backend:?})"
        );
        assert!(ref_fstats.vector_blocks > 0);
        for n in thread_counts() {
            let (sum, count, mut fstats, mut cstats) = run(n);
            assert_eq!(
                sum.to_bits(),
                ref_sum.to_bits(),
                "f64 fold not bit-identical at {n} threads (backend {backend:?})"
            );
            assert_eq!(count, ref_count, "count diverged at {n} threads");
            // Everything except the fan-out width itself must be equal.
            fstats.threads = ref_fstats.threads;
            cstats.threads = ref_cstats.threads;
            assert_eq!(
                fstats, ref_fstats,
                "fold kernel counters diverged at {n} threads (backend {backend:?})"
            );
            assert_eq!(
                cstats, ref_cstats,
                "count kernel counters diverged at {n} threads (backend {backend:?})"
            );
        }
    }
}

/// The obs scan counters are fed from the same deterministic
/// [`ScanStats`](anker_core::ScanStats) that
/// [`kernel_counters_identical_across_thread_counts`] proves
/// thread-count-independent (morsel boundaries are fixed, not
/// work-stealing) — so the registry *delta* an identical scan leaves
/// behind must be bit-identical at every thread count too.
/// (Under `obs-off` the counters compile to no-ops, so the deltas are
/// intentionally all-zero and the test is compiled out.)
#[test]
#[cfg(not(feature = "obs-off"))]
fn obs_counter_deltas_identical_across_thread_counts() {
    use anker_core::obs;
    const SCAN_COUNTERS: [&str; 8] = [
        "scan_morsels_total",
        "scan_tight_rows_total",
        "scan_checked_rows_total",
        "scan_chain_walks_total",
        "scan_blocks_skipped_total",
        "scan_rows_filtered_total",
        "scan_vector_blocks_total",
        "scan_dense_blocks_total",
    ];
    for backend in backends() {
        let rows = 30_000u32;
        let db = AnkerDb::new(hetero(backend));
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("k", LogicalType::Int),
                    ColumnDef::new("x", LogicalType::Double),
                ]),
                rows,
            )
            .unwrap();
        let k = db.schema(t).col("k");
        let x = db.schema(t).col("x");
        db.fill_column(t, k, (0..rows).map(|i| Value::Int(i as i64 % 5).encode()))
            .unwrap();
        db.fill_column(
            t,
            x,
            (0..rows).map(|i| Value::Double((i as f64).sin() * 60.0).encode()),
        )
        .unwrap();
        let reader = db.snapshot_reader().unwrap();
        let run = |n: usize| -> (f64, Vec<u64>, u64) {
            let before = db.metrics();
            let (sum, _) = reader
                .scan(t)
                .lt_f64(x, 30.0)
                .range_i64(k, 0, 1)
                .project(&[x])
                .parallel(n)
                .fold(0.0f64, |a, _, vals| a + vals[0].as_double(), |a, b| a + b)
                .unwrap();
            let after = db.metrics();
            let deltas = SCAN_COUNTERS
                .iter()
                .map(|name| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0))
                .collect();
            let morsel_spans = span_count(&after) - span_count(&before);
            (sum, deltas, morsel_spans)
        };
        let (ref_sum, ref_deltas, ref_spans) = run(1);
        assert!(
            ref_deltas.iter().sum::<u64>() > 0,
            "the reference scan must move the counters (backend {backend:?})"
        );
        // The tracer journals one span per morsel, so the histogram
        // count tracks scan_morsels_total exactly.
        assert_eq!(ref_spans, ref_deltas[0], "one scan_morsel span per morsel");
        for n in thread_counts() {
            let (sum, deltas, spans) = run(n);
            assert_eq!(sum.to_bits(), ref_sum.to_bits());
            assert_eq!(
                deltas, ref_deltas,
                "obs scan-counter deltas diverged at {n} threads (backend {backend:?})"
            );
            assert_eq!(
                spans, ref_spans,
                "scan_morsel_ns span count diverged at {n} threads (backend {backend:?})"
            );
        }
    }

    fn span_count(m: &obs::MetricsSnapshot) -> u64 {
        m.histogram("scan_morsel_ns").map_or(0, |h| h.count())
    }
}

/// Double-typed predicates and projections through the parallel path
/// (`rank` comparisons + zero-copy slices) also agree with the
/// sequential reference.
#[test]
fn parallel_double_predicates_match() {
    for backend in backends() {
        let rows = 5_000u32;
        let db = AnkerDb::new(hetero(backend));
        let t = db
            .create_table(
                "t",
                Schema::new(vec![ColumnDef::new("x", LogicalType::Double)]),
                rows,
            )
            .unwrap();
        let x = db.schema(t).col("x");
        db.fill_column(
            t,
            x,
            (0..rows).map(|i| Value::Double((i as f64).sin() * 100.0).encode()),
        )
        .unwrap();
        let mut txn = db.begin(TxnKind::Olap);
        let (seq, _) = txn.scan_on(t).lt_f64(x, 25.0).count().unwrap();
        txn.commit().unwrap();
        let reader = db.snapshot_reader().unwrap();
        for n in thread_counts() {
            let (par, _) = reader.scan(t).lt_f64(x, 25.0).parallel(n).count().unwrap();
            assert_eq!(par, seq, "lt_f64 count diverged at {n} threads");
        }
    }
}
