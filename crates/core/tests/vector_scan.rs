//! The vectorized scan kernels against their scalar oracle: property-based
//! bit-identity between the selection-vector path and the
//! `scalar_scan` row-at-a-time baseline (including NaN doubles and
//! dictionary edge codes, on both memory backends and both the snapshot
//! and the versioned processing paths), the zone-map dense-block fast
//! path, the fused count path's no-projection-reads guarantee, and
//! deterministic adaptive conjunct ordering.

use anker_core::{
    AnkerDb, BackendKind, ColumnDef, DbConfig, Dictionary, LogicalType, ScanStats, Schema, TableId,
    TxnKind, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

/// An 11-entry dictionary for the `d` column (codes 0..=10).
fn dict() -> Arc<Dictionary> {
    Arc::new(Dictionary::with_values((0..11).map(|i| format!("v{i}"))))
}

fn backends() -> Vec<BackendKind> {
    let mut b = vec![BackendKind::Sim];
    if cfg!(target_os = "linux") {
        b.push(BackendKind::Os);
    }
    b
}

fn hetero(backend: BackendKind, scalar: bool) -> DbConfig {
    DbConfig::heterogeneous_serializable()
        .with_snapshot_every(1)
        .with_gc_interval(None)
        .with_backend(backend)
        .with_scalar_scan(scalar)
}

/// Words for the Double column: proptest draws indices into a palette
/// that includes every `f64` comparison edge the kernels must agree on.
fn double_palette(sel: u8, base: i64) -> f64 {
    match sel % 8 {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MIN_POSITIVE,
        _ => base as f64 / 7.0,
    }
}

/// One table with an Int, a Double (NaN-bearing), and a Dict column,
/// filled identically into a scalar-path and a vectorized-path database.
fn twin_dbs(
    backend: BackendKind,
    rows: u32,
    data: &[(i64, u8, u8)],
) -> (AnkerDb, AnkerDb, TableId) {
    let mk = |scalar: bool| {
        let db = AnkerDb::new(hetero(backend, scalar));
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("k", LogicalType::Int),
                    ColumnDef::new("x", LogicalType::Double),
                    ColumnDef::dict("d", dict()),
                ]),
                rows,
            )
            .unwrap();
        let cell = |i: u32| data[i as usize % data.len()];
        let (k, x, d) = (
            db.schema(t).col("k"),
            db.schema(t).col("x"),
            db.schema(t).col("d"),
        );
        db.fill_column(t, k, (0..rows).map(|i| Value::Int(cell(i).0).encode()))
            .unwrap();
        db.fill_column(
            t,
            x,
            (0..rows).map(|i| Value::Double(double_palette(cell(i).1, cell(i).0)).encode()),
        )
        .unwrap();
        db.fill_column(
            t,
            d,
            (0..rows).map(|i| Value::Dict(cell(i).2 as u32 % 11).encode()),
        )
        .unwrap();
        (db, t)
    };
    let (scalar_db, t) = mk(true);
    let (vector_db, t2) = mk(false);
    assert_eq!(t, t2);
    (scalar_db, vector_db, t)
}

/// Run the same three-conjunct scan on both databases through `run`
/// (count + row enumeration) and demand bit-identical results; returns
/// both stat records for path-shape assertions.
fn check_equivalence(
    backend: BackendKind,
    rows: u32,
    data: &[(i64, u8, u8)],
    lo: i64,
    hi: i64,
    xhi: i64,
    codes: Vec<u32>,
) -> (ScanStats, ScanStats) {
    let (scalar_db, vector_db, t) = twin_dbs(backend, rows, data);
    let run = |db: &AnkerDb| {
        let (k, x, d) = (
            db.schema(t).col("k"),
            db.schema(t).col("x"),
            db.schema(t).col("d"),
        );
        let mut txn = db.begin(TxnKind::Olap);
        let mut seen: Vec<(u32, Vec<u64>)> = Vec::new();
        let scan = txn
            .scan_on(t)
            .range_i64(k, lo.min(hi), lo.max(hi))
            .lt_f64(x, xhi as f64 / 3.0)
            .in_set(d, codes.clone())
            .project(&[x, k]);
        scan.for_each(|row, words| seen.push((row, words.to_vec())))
            .unwrap();
        let (count, cstats) = txn
            .scan_on(t)
            .range_i64(k, lo.min(hi), lo.max(hi))
            .lt_f64(x, xhi as f64 / 3.0)
            .in_set(d, codes.clone())
            .count()
            .unwrap();
        txn.commit().unwrap();
        (seen, count, cstats)
    };
    let (s_rows, s_count, s_stats) = run(&scalar_db);
    let (v_rows, v_count, v_stats) = run(&vector_db);
    assert_eq!(
        s_rows, v_rows,
        "selected rows/words diverged (backend {backend:?})"
    );
    assert_eq!(s_count, v_count, "counts diverged (backend {backend:?})");
    assert_eq!(s_count as usize, s_rows.len());
    // The ablation flag must actually route the paths apart.
    assert_eq!(s_stats.vector_blocks + s_stats.dense_blocks, 0);
    assert_eq!(v_stats.proj_blocks, 0, "count() read projection blocks");
    (s_stats, v_stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernel and scalar paths select bit-identical rows — including NaN,
    /// ±0, ±inf doubles and out-of-dictionary codes — on the simulated
    /// backend.
    #[test]
    fn kernels_match_scalar_sim(
        rows in 1u32..6_000,
        data in proptest::collection::vec((-60i64..60, any::<u8>(), any::<u8>()), 1..50),
        lo in -60i64..60,
        hi in -60i64..60,
        xhi in -20i64..20,
        codes in proptest::collection::vec(0u32..12, 0..6),
    ) {
        check_equivalence(BackendKind::Sim, rows, &data, lo, hi, xhi, codes);
    }
}

#[cfg(target_os = "linux")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same property on the OS backend, where filters run over the
    /// zero-copy whole-column slices.
    #[test]
    fn kernels_match_scalar_os(
        rows in 1u32..6_000,
        data in proptest::collection::vec((-60i64..60, any::<u8>(), any::<u8>()), 1..50),
        lo in -60i64..60,
        hi in -60i64..60,
        xhi in -20i64..20,
        codes in proptest::collection::vec(0u32..12, 0..6),
    ) {
        check_equivalence(BackendKind::Os, rows, &data, lo, hi, xhi, codes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The versioned (homogeneous MVCC) block loop runs the same kernels
    /// over gathered blocks: scalar and vectorized databases in
    /// homogeneous mode agree row-for-row too.
    #[test]
    fn kernels_match_scalar_versioned_path(
        rows in 1u32..4_000,
        data in proptest::collection::vec((-60i64..60, any::<u8>(), any::<u8>()), 1..50),
        lo in -60i64..60,
        hi in -60i64..60,
    ) {
        let mk = |scalar: bool| {
            let db = AnkerDb::new(
                DbConfig::homogeneous_serializable()
                    .with_gc_interval(None)
                    .with_scalar_scan(scalar),
            );
            let t = db.create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("k", LogicalType::Int),
                    ColumnDef::new("x", LogicalType::Double),
                ]),
                rows,
            ).unwrap();
            let cell = |i: u32| data[i as usize % data.len()];
            let k = db.schema(t).col("k");
            let x = db.schema(t).col("x");
            db.fill_column(t, k, (0..rows).map(|i| Value::Int(cell(i).0).encode()))
                .unwrap();
            db.fill_column(
                t,
                x,
                (0..rows).map(|i| Value::Double(double_palette(cell(i).1, cell(i).0)).encode()),
            )
            .unwrap();
            // A versioned overlay on top of the base fill, so the scan
            // gathers through version chains, not just the live arrays.
            let mut w = db.begin(TxnKind::Oltp);
            for r in (0..rows).step_by(97) {
                w.update_value(t, k, r, Value::Int(cell(r).0 ^ 1)).unwrap();
            }
            w.commit().unwrap();
            (db, t, k, x)
        };
        let run = |scalar: bool| {
            let (db, t, k, x) = mk(scalar);
            let mut txn = db.begin(TxnKind::Olap);
            let mut seen: Vec<(u32, Vec<u64>)> = Vec::new();
            txn.scan_on(t)
                .range_i64(k, lo.min(hi), lo.max(hi))
                .range_f64(x, -5.0, 5.0)
                .project(&[k, x])
                .for_each(|row, words| seen.push((row, words.to_vec())))
                .unwrap();
            let (count, stats) = txn
                .scan_on(t)
                .range_i64(k, lo.min(hi), lo.max(hi))
                .range_f64(x, -5.0, 5.0)
                .count()
                .unwrap();
            txn.commit().unwrap();
            (seen, count, stats)
        };
        let (s_rows, s_count, _) = run(true);
        let (v_rows, v_count, v_stats) = run(false);
        prop_assert_eq!(s_rows, v_rows, "versioned-path rows diverged");
        prop_assert_eq!(s_count, v_count);
        prop_assert_eq!(v_stats.proj_blocks, 0u64);
        // No zone maps on live data: blocks vectorize but never go dense.
        prop_assert_eq!(v_stats.dense_blocks, 0u64);
    }
}

/// Zone-map-proven all-match blocks take the dense fast path: no index
/// materialisation, and for count terminals not even a column read. A
/// clustered table where an interior range covers whole blocks exactly
/// exhibits all three block classes at once.
#[test]
fn dense_blocks_skip_index_materialisation() {
    for backend in backends() {
        let rows = 8 * 1024u32;
        let db = AnkerDb::new(hetero(backend, false));
        let t = db
            .create_table(
                "t",
                Schema::new(vec![ColumnDef::new("k", LogicalType::Int)]),
                rows,
            )
            .unwrap();
        let k = db.schema(t).col("k");
        // Clustered: block b holds exactly the value range [1024b, 1024b+1023].
        db.fill_column(t, k, (0..rows).map(|i| Value::Int(i as i64).encode()))
            .unwrap();
        let reader = db.snapshot_reader().unwrap();
        // Covers blocks 1..=5 fully, cuts into blocks 0 and 6, prunes 7.
        let (count, stats) = reader.scan(t).range_i64(k, 1000, 7000).count().unwrap();
        assert_eq!(count, 6001);
        assert_eq!(stats.blocks_skipped, 1, "block 7 prunes");
        assert_eq!(stats.dense_blocks, 5, "blocks 1..=5 are all-match");
        assert_eq!(stats.vector_blocks, 2, "blocks 0 and 6 hit the kernels");
        assert_eq!(stats.proj_blocks, 0);

        // The whole-table filter keeps every block dense.
        let (count, stats) = reader
            .scan(t)
            .range_i64(k, i64::MIN, i64::MAX)
            .count()
            .unwrap();
        assert_eq!(count, rows as u64);
        assert_eq!(stats.dense_blocks, 8);
        assert_eq!(stats.vector_blocks, 0);

        // Scalar ablation on the same data: same answer, no kernel blocks.
        let db_s = AnkerDb::new(hetero(backend, true));
        let t_s = db_s
            .create_table(
                "t",
                Schema::new(vec![ColumnDef::new("k", LogicalType::Int)]),
                rows,
            )
            .unwrap();
        let k_s = db_s.schema(t_s).col("k");
        db_s.fill_column(t_s, k_s, (0..rows).map(|i| Value::Int(i as i64).encode()))
            .unwrap();
        let reader_s = db_s.snapshot_reader().unwrap();
        let (count_s, stats_s) = reader_s
            .scan(t_s)
            .range_i64(k_s, 1000, 7000)
            .count()
            .unwrap();
        assert_eq!(count_s, 6001);
        assert_eq!(stats_s.vector_blocks + stats_s.dense_blocks, 0);
        assert_eq!(
            stats_s.blocks_skipped, 1,
            "zone-map pruning stays on in the ablation"
        );
    }
}

/// `count()` terminals never touch projection columns or invoke a row
/// callback — on any path — while row terminals with off-filter
/// projections do read them (`proj_blocks` is the witness on the
/// simulated backend, which has no zero-copy slices).
#[test]
fn count_reads_no_projection_blocks() {
    let rows = 4 * 1024u32;
    let db = AnkerDb::new(hetero(BackendKind::Sim, false));
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("v", LogicalType::Int),
            ]),
            rows,
        )
        .unwrap();
    let k = db.schema(t).col("k");
    let v = db.schema(t).col("v");
    db.fill_column(t, k, (0..rows).map(|i| Value::Int(i as i64 % 100).encode()))
        .unwrap();
    db.fill_column(t, v, (0..rows).map(|i| Value::Int(i as i64).encode()))
        .unwrap();

    // Row terminal with an off-filter projection: projection blocks read.
    let reader = db.snapshot_reader().unwrap();
    let (_, fstats) = reader
        .scan(t)
        .range_i64(k, 0, 49)
        .project(&[v])
        .fold(0i64, |a, _, vals| a + vals[0].as_int(), |a, b| a + b)
        .unwrap();
    assert!(
        fstats.proj_blocks > 0,
        "row terminals must fetch off-filter projection blocks"
    );

    // Count terminal — even with a projection configured, and on every
    // path (reader, partitions, in-transaction snapshot, versioned).
    let (n, cstats) = reader
        .scan(t)
        .range_i64(k, 0, 49)
        .project(&[v])
        .count()
        .unwrap();
    assert_eq!(n, 2050);
    assert_eq!(cstats.proj_blocks, 0, "reader count fetched projections");

    for part in reader
        .scan(t)
        .range_i64(k, 0, 49)
        .into_partitions(3)
        .unwrap()
    {
        let (_, pstats) = part.count().unwrap();
        assert_eq!(pstats.proj_blocks, 0, "partition count fetched projections");
    }

    let mut txn = db.begin(TxnKind::Olap);
    let (n_txn, tstats) = txn
        .scan_on(t)
        .range_i64(k, 0, 49)
        .project(&[v])
        .count()
        .unwrap();
    assert_eq!(n_txn, 2050);
    assert_eq!(tstats.proj_blocks, 0, "snapshot count fetched projections");
    txn.commit().unwrap();

    let homo = AnkerDb::new(
        DbConfig::homogeneous_serializable()
            .with_gc_interval(None)
            .with_scalar_scan(false),
    );
    let t2 = homo
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("v", LogicalType::Int),
            ]),
            rows,
        )
        .unwrap();
    let k2 = homo.schema(t2).col("k");
    homo.fill_column(
        t2,
        k2,
        (0..rows).map(|i| Value::Int(i as i64 % 100).encode()),
    )
    .unwrap();
    let mut vtxn = homo.begin(TxnKind::Olap);
    let (n_v, vstats) = vtxn.scan_on(t2).range_i64(k2, 0, 49).count().unwrap();
    assert_eq!(n_v, 2050);
    assert_eq!(vstats.proj_blocks, 0, "versioned count fetched projections");
    vtxn.commit().unwrap();
}

/// Adaptive ordering promotes the observed-selective conjunct, records
/// per-filter selectivities, and never changes what is selected.
#[test]
fn adaptive_ordering_reorders_and_preserves_results() {
    for backend in backends() {
        let rows = 32 * 1024u32;
        let (scalar_db, vector_db, t) = {
            // Filter 0 (declared first) passes ~everything; filter 1 is
            // highly selective. Values alternate within each block so zone
            // maps can neither prune nor prove all-match.
            let data: Vec<(i64, u8, u8)> = (0..256)
                .map(|i| (i64::from(i % 2 == 0), 6, (i % 3) as u8))
                .collect();
            twin_dbs(backend, rows, &data)
        };
        let run = |db: &AnkerDb| {
            let k = db.schema(t).col("k");
            let d = db.schema(t).col("d");
            let reader = db.snapshot_reader().unwrap();
            // k ∈ {0, 1} everywhere → pass rate 1; d == 1 holds for a
            // third of the rows (and every block holds codes {0, 1, 2},
            // so zone maps neither prune nor prove all-match for it).
            // Declaration order is worst-case on purpose.
            reader
                .scan(t)
                .range_i64(k, 0, 1)
                .dict_eq(d, 1)
                .count()
                .unwrap()
        };
        let (s_count, s_stats) = run(&scalar_db);
        let (v_count, v_stats) = run(&vector_db);
        assert_eq!(s_count, v_count, "adaptive ordering changed the result");
        assert!(v_count > 0 && v_count < rows as u64);
        assert!(
            v_stats.sel_reorders > 0,
            "the selective conjunct was never promoted (backend {backend:?})"
        );
        assert_eq!(s_stats.sel_reorders, 0, "scalar path must not adapt");
        // Selectivity accounting: once promoted, the dict filter sees
        // every block in full (1024 rows in), and the wide range filter
        // only what survives it — visible as rows_in collapsing.
        assert!(v_stats.filter_sel[1].rows_in > 0);
        assert!(v_stats.filter_sel[1].rows_out < v_stats.filter_sel[1].rows_in);
        assert!(
            v_stats.filter_sel[0].rows_in < v_stats.filter_sel[1].rows_in,
            "promoted filter must shield the expensive one"
        );
    }
}

/// `ANKER_SCALAR_SCAN=1` reaches `DbConfig::default` (the builder knob is
/// covered by every twin test above).
#[test]
fn scalar_scan_env_default() {
    // Sub-processes are overkill; assert the documented default directly.
    let cfg = DbConfig::default();
    let env = std::env::var("ANKER_SCALAR_SCAN")
        .map(|v| v == "1")
        .unwrap_or(false);
    assert_eq!(cfg.scalar_scan, env);
}

/// Columns of the wide table: enough for every projection width below.
const WIDE_COLS: usize = 12;

/// Word of column `c` in row `i` of the wide table: column 0 holds even
/// keys `0, 2, 4, …`, so an odd key is inside every block's range yet
/// matches no row.
fn wide_word(c: usize, i: u32) -> u64 {
    if c == 0 {
        Value::Int(2 * i as i64).encode()
    } else {
        Value::Int((i as i64 * 7919 + c as i64 * 104_729) % 1_000_003).encode()
    }
}

/// The wide table on `backend`, scalar-oracle or vectorized, with rows
/// 0..`rows` loaded, then row 1 of columns 0 and 5 rewritten after a first
/// image of each was read — so on the OS backend their next images are
/// read through the live columns while the others stay zero-copy.
fn wide_db(backend: BackendKind, scalar: bool, rows: u32) -> (AnkerDb, TableId) {
    let db = AnkerDb::new(hetero(backend, scalar));
    let cols = (0..WIDE_COLS)
        .map(|c| ColumnDef::new(format!("c{c}"), LogicalType::Int))
        .collect();
    let t = db.create_table("wide", Schema::new(cols), rows).unwrap();
    for c in 0..WIDE_COLS {
        let col = db.schema(t).col(&format!("c{c}"));
        db.fill_column(t, col, (0..rows).map(|i| wide_word(c, i)))
            .unwrap();
    }
    let (c0, c5) = (db.schema(t).col("c0"), db.schema(t).col("c5"));
    let first = db.snapshot_reader().unwrap();
    first.get(t, c0, 0).unwrap();
    first.get(t, c5, 0).unwrap();
    drop(first);
    let mut w = db.begin(TxnKind::Oltp);
    w.update_value(t, c0, 1, Value::Int(4)).unwrap();
    w.update_value(t, c5, 1, Value::Int(-5)).unwrap();
    w.commit().unwrap();
    (db, t)
}

type Delivered = Vec<(u32, Vec<u64>)>;

/// Every row-delivering terminal over one scan of `db`: in-transaction
/// `for_each`, `for_each_typed` and `fold` on the frozen (OLAP) and the
/// versioned (OLTP) source, reader `for_each` and `fold` at `parallel(1)`
/// and `parallel(2)`, and three `ScanPartition`s — each result sorted by
/// row where the terminal leaves the order open.
fn every_terminal(
    db: &AnkerDb,
    t: TableId,
    keys: (i64, i64),
    proj: &[anker_core::ColumnId],
) -> Vec<(&'static str, Delivered)> {
    let c0 = db.schema(t).col("c0");
    let words = |vals: &[Value]| vals.iter().map(|v| v.encode()).collect::<Vec<_>>();
    let mut out: Vec<(&'static str, Delivered)> = Vec::new();
    for (name, kind) in [("txn olap", TxnKind::Olap), ("txn oltp", TxnKind::Oltp)] {
        let mut txn = db.begin(kind);
        let mut rows = Delivered::new();
        txn_scan(&mut txn, t, keys, proj)
            .for_each(|row, w| rows.push((row, w.to_vec())))
            .unwrap();
        out.push((name, rows));
        let mut rows = Delivered::new();
        txn_scan(&mut txn, t, keys, proj)
            .for_each_typed(|row, v| rows.push((row, words(v))))
            .unwrap();
        out.push((name, rows));
        let (rows, _) = txn_scan(&mut txn, t, keys, proj)
            .fold(Delivered::new(), |mut acc, row, v| {
                acc.push((row, words(v)));
                acc
            })
            .unwrap();
        out.push((name, rows));
        txn.commit().unwrap();
    }
    let reader = db.snapshot_reader().unwrap();
    let scan = || reader.scan(t).range_i64(c0, keys.0, keys.1).project(proj);
    for threads in [1, 2] {
        let rows = std::sync::Mutex::new(Delivered::new());
        scan()
            .parallel(threads)
            .for_each(|row, w| rows.lock().unwrap().push((row, w.to_vec())))
            .unwrap();
        let mut rows = rows.into_inner().unwrap();
        rows.sort_by_key(|r| r.0);
        out.push(("reader for_each", rows));
        let (rows, _) = scan()
            .parallel(threads)
            .fold(
                Delivered::new(),
                |mut acc, row, v| {
                    acc.push((row, words(v)));
                    acc
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .unwrap();
        out.push(("reader fold", rows));
    }
    let mut rows = Delivered::new();
    for part in scan().into_partitions(3).unwrap() {
        part.for_each(|row, w| rows.push((row, w.to_vec())))
            .unwrap();
    }
    out.push(("partitions", rows));
    out
}

/// The wide table's scan for keys `keys.0..=keys.1` of column 0,
/// projecting `proj`, in `txn`.
fn txn_scan<'t>(
    txn: &'t mut anker_core::Txn,
    t: TableId,
    keys: (i64, i64),
    proj: &[anker_core::ColumnId],
) -> anker_core::ScanBuilder<'t> {
    let c0 = anker_core::ColumnId(0);
    txn.scan_on(t).range_i64(c0, keys.0, keys.1).project(proj)
}

/// Block delivery at every projection width the row loop specialises on
/// (0, 1 and 8 columns) and past it (9 and 11 columns, the dynamic loop),
/// with dense, sparse and empty selections, through every row-delivering
/// terminal on both backends: each equals the `scalar_scan` oracle's rows,
/// words and order.
#[test]
fn block_delivery_matches_scalar_at_every_width() {
    let rows = 4 * 1024 + 300;
    for backend in backends() {
        let (oracle_db, t) = wide_db(backend, true, rows);
        let (db, _) = wide_db(backend, false, rows);
        let all = 2 * rows as i64;
        // Dense: every key; sparse: rows 750..=2300, ending mid-block
        // on both sides; empty: one odd key, inside block 0's range and
        // matching no row.
        for (sel, keys) in [
            ("dense", (0, all)),
            ("sparse", (1_500, 4_600)),
            ("empty", (3, 3)),
        ] {
            for width in [0usize, 1, 8, 9, 11] {
                let proj: Vec<_> = (0..width)
                    .map(|c| db.schema(t).col(&format!("c{}", WIDE_COLS - 1 - c)))
                    .collect();
                let mut oracle_txn = oracle_db.begin(TxnKind::Olap);
                let mut expected = Delivered::new();
                txn_scan(&mut oracle_txn, t, keys, &proj)
                    .for_each(|row, w| expected.push((row, w.to_vec())))
                    .unwrap();
                oracle_txn.commit().unwrap();
                match sel {
                    "dense" => assert_eq!(expected.len(), rows as usize),
                    "empty" => assert!(expected.is_empty()),
                    _ => assert!(!expected.is_empty() && expected.len() < rows as usize),
                }
                if width > 0 {
                    assert!(expected.iter().all(|(_, w)| w.len() == width));
                }
                for (terminal, got) in every_terminal(&db, t, keys, &proj) {
                    assert!(
                        got == expected,
                        "{backend:?} {sel} width {width}: {terminal} differs from the oracle"
                    );
                }
            }
        }
        if backend == BackendKind::Os && cfg!(not(feature = "obs-off")) {
            let through = db.metrics().counter("snapshot_images_read_through_total");
            assert!(through > Some(0), "columns 0 and 5 were read through");
        }
    }
}
