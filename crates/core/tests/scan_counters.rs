//! Every `ScanStats` field of a fixed script of scans, pinned to recorded
//! literals: the in-transaction versioned and snapshot paths, sequential
//! and `.parallel(2)` reader scans and `into_partitions`, on both memory
//! backends, with the kernels and with the `scalar_scan` oracle. Any
//! change to how the block loop prunes, gathers, filters, orders or emits
//! shows up here as a changed counter, not only as a changed answer.
//!
//! Each line is `<scan>: <answer> | <counters>`; on a mismatch the test
//! prints the whole actual table.

use anker_core::{
    AnkerDb, BackendKind, ColumnDef, DbConfig, Dictionary, LogicalType, ScanStats, Schema, TableId,
    TxnKind, Value,
};
use std::sync::Arc;

/// Six blocks, the last one partial.
const ROWS: u32 = 5 * 1024 + 300;

/// One table: `k` clustered (zone maps prune and prove all-match), `x`
/// scattered doubles, `d` one dictionary code per block, `v` a column
/// that is only ever projected.
fn load(db: &AnkerDb) -> TableId {
    let dict = Arc::new(Dictionary::with_values((0..4).map(|i| format!("c{i}"))));
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("k", LogicalType::Int),
                ColumnDef::new("x", LogicalType::Double),
                ColumnDef::dict("d", dict),
                ColumnDef::new("v", LogicalType::Int),
            ]),
            ROWS,
        )
        .unwrap();
    let s = db.schema(t);
    let (k, x, d, v) = (s.col("k"), s.col("x"), s.col("d"), s.col("v"));
    db.fill_column(t, k, (0..ROWS).map(|i| Value::Int(i as i64 / 40).encode()))
        .unwrap();
    db.fill_column(
        t,
        x,
        (0..ROWS).map(|i| Value::Double(((i * 37) % 101) as f64 - 50.0).encode()),
    )
    .unwrap();
    db.fill_column(
        t,
        d,
        (0..ROWS).map(|i| Value::Dict((i / 1024) % 4).encode()),
    )
    .unwrap();
    db.fill_column(t, v, (0..ROWS).map(|i| Value::Int(i as i64 * 3).encode()))
        .unwrap();
    t
}

/// Every field, `filter_sel` included, on one line.
fn render(what: &str, answer: u64, s: &ScanStats) -> String {
    let sel: Vec<String> = s
        .filter_sel
        .iter()
        .map(|f| format!("{}/{}", f.rows_in, f.rows_out))
        .collect();
    format!(
        "{what}: {answer} | tight={} checked={} walks={} retried={} skipped={} filtered={} \
         morsels={} threads={} vector={} dense={} reorders={} proj={} sel=[{}]",
        s.tight_rows,
        s.checked_rows,
        s.chain_walks,
        s.blocks_retried,
        s.blocks_skipped,
        s.rows_filtered,
        s.morsels,
        s.threads,
        s.vector_blocks,
        s.dense_blocks,
        s.sel_reorders,
        s.proj_blocks,
        sel.join(" ")
    )
}

fn mix(h: u64, row: u32, words: &[u64]) -> u64 {
    words.iter().fold(h ^ row as u64, |h, &w| {
        h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(w)
    })
}

/// The fixed script. Homogeneous first (versioned path, with a commit the
/// scanning transaction must walk chains past), then heterogeneous
/// (snapshot path, readers, partitions).
fn script(backend: BackendKind, scalar: bool) -> Vec<String> {
    let mut out = Vec::new();

    let homog = AnkerDb::new(
        DbConfig::homogeneous_serializable()
            .with_gc_interval(None)
            .with_backend(backend)
            .with_scalar_scan(scalar),
    );
    let t = load(&homog);
    let s = homog.schema(t);
    let (k, x, d, v) = (s.col("k"), s.col("x"), s.col("d"), s.col("v"));
    let mut olap = homog.begin(TxnKind::Olap);
    let mut w = homog.begin(TxnKind::Oltp);
    for r in (0..ROWS).step_by(61) {
        w.update_value(t, k, r, Value::Int(-7)).unwrap();
        w.update_value(t, x, r, Value::Double(99.0)).unwrap();
    }
    w.commit().unwrap();
    let (n, st) = olap
        .scan_on(t)
        .lt_f64(x, 30.0)
        .range_i64(k, 20, 100)
        .in_set(d, [0, 2, 3])
        .count()
        .unwrap();
    out.push(render("txn versioned count", n, &st));
    let mut h = 0u64;
    let st = olap
        .scan_on(t)
        .lt_f64(x, 30.0)
        .range_i64(k, 20, 100)
        .in_set(d, [0, 2, 3])
        .project(&[v, x])
        .for_each(|row, words| h = mix(h, row, words))
        .unwrap();
    out.push(render("txn versioned for_each", h, &st));
    olap.commit().unwrap();

    let hetero = AnkerDb::new(
        DbConfig::heterogeneous_serializable()
            .with_snapshot_every(1)
            .with_gc_interval(None)
            .with_backend(backend)
            .with_scalar_scan(scalar),
    );
    let t = load(&hetero);
    let mut olap = hetero.begin(TxnKind::Olap);
    let (n, st) = olap
        .scan_on(t)
        .lt_f64(x, 30.0)
        .range_i64(k, 20, 100)
        .in_set(d, [0, 2, 3])
        .count()
        .unwrap();
    out.push(render("txn snapshot count", n, &st));
    let mut h = 0u64;
    let st = olap
        .scan_on(t)
        .lt_f64(x, 30.0)
        .range_i64(k, 20, 100)
        .in_set(d, [0, 2, 3])
        .project(&[v, x])
        .for_each(|row, words| h = mix(h, row, words))
        .unwrap();
    out.push(render("txn snapshot for_each", h, &st));
    olap.commit().unwrap();

    let reader = hetero.snapshot_reader().unwrap();
    let (n, st) = reader.scan(t).range_i64(k, 20, 100).count().unwrap();
    out.push(render("reader count", n, &st));
    let (n, st) = reader.scan(t).dict_eq(d, 2).count().unwrap();
    out.push(render("reader dict_eq count", n, &st));
    let fold = |threads: usize| {
        reader
            .scan(t)
            .lt_f64(x, 30.0)
            .range_f64(x, -40.0, 45.0)
            .range_i64(k, 20, 100)
            .project(&[x, v, k])
            .parallel(threads)
            .fold(
                0.0f64,
                |a, row, vals| a + vals[0].as_double() * row as f64 + vals[1].as_int() as f64,
                |a, b| a + b,
            )
            .unwrap()
    };
    let (sum, st) = fold(1);
    out.push(render("reader fold", sum.to_bits(), &st));
    let (sum, st) = fold(2);
    out.push(render("reader parallel(2) fold", sum.to_bits(), &st));
    let parts = reader
        .scan(t)
        .lt_f64(x, 30.0)
        .range_i64(k, 20, 100)
        .into_partitions(3)
        .unwrap();
    for (i, p) in parts.iter().enumerate() {
        let (n, st) = p.count().unwrap();
        out.push(render(&format!("partition {i} count"), n, &st));
    }
    out
}

fn check(backend: BackendKind, scalar: bool, expected: &[&str]) {
    let actual = script(backend, scalar);
    assert_eq!(
        actual.len(),
        expected.len(),
        "script length ({backend:?}, scalar={scalar}); actual table:\n{}",
        actual.join("\n")
    );
    for (a, e) in actual.iter().zip(expected) {
        assert_eq!(
            a,
            e,
            "({backend:?}, scalar={scalar}); actual table:\n{}",
            actual.join("\n")
        );
    }
}

#[test]
fn scan_counters_sim_kernels() {
    check(BackendKind::Sim, false, &SIM_KERNELS);
}

#[test]
fn scan_counters_sim_scalar() {
    check(BackendKind::Sim, true, &SIM_SCALAR);
}

#[cfg(target_os = "linux")]
#[test]
fn scan_counters_os_kernels() {
    check(BackendKind::Os, false, &OS_KERNELS);
}

#[cfg(target_os = "linux")]
#[test]
fn scan_counters_os_scalar() {
    check(BackendKind::Os, true, &OS_SCALAR);
}

// Recorded before the scan layer was merged into one builder and one
// block loop; that refactor had to leave every line unchanged.

const SIM_KERNELS: [&str; 11] = [
    "txn versioned count: 1756 | tight=4743 checked=9893 walks=173 retried=0 skipped=0 filtered=3664 morsels=1 threads=1 vector=6 dense=0 reorders=5 proj=0 sel=[5064/4010 4994/3194 2779/1969 0/0 0/0 0/0 0/0 0/0]",
    "txn versioned for_each: 6238914878292004752 | tight=7815 checked=9893 walks=173 retried=0 skipped=0 filtered=3664 morsels=1 threads=1 vector=6 dense=0 reorders=5 proj=3 sel=[5064/4010 4994/3194 2779/1969 0/0 0/0 0/0 0/0 0/0]",
    "txn snapshot count: 1756 | tight=3072 checked=0 walks=0 retried=0 skipped=3 filtered=1316 morsels=1 threads=1 vector=3 dense=0 reorders=1 proj=0 sel=[3016/2390 2860/2170 1756/1756 0/0 0/0 0/0 0/0 0/0]",
    "txn snapshot for_each: 6238914878292004752 | tight=3072 checked=0 walks=0 retried=0 skipped=3 filtered=1316 morsels=1 threads=1 vector=3 dense=0 reorders=1 proj=3 sel=[3016/2390 2860/2170 1756/1756 0/0 0/0 0/0 0/0 0/0]",
    "reader count: 3240 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=856 morsels=6 threads=1 vector=2 dense=2 reorders=0 proj=0 sel=[4096/3240 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
    "reader dict_eq count: 1024 | tight=1024 checked=0 walks=0 retried=0 skipped=5 filtered=0 morsels=6 threads=1 vector=0 dense=1 reorders=0 proj=0 sel=[1024/1024 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
    "reader fold: 13936917784215683072 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=1851 morsels=6 threads=1 vector=4 dense=0 reorders=1 proj=4 sel=[4096/3245 3245/2839 2839/2245 0/0 0/0 0/0 0/0 0/0]",
    "reader parallel(2) fold: 13936917784215683072 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=1851 morsels=6 threads=2 vector=4 dense=0 reorders=1 proj=4 sel=[4096/3245 3245/2839 2839/2245 0/0 0/0 0/0 0/0 0/0]",
    "partition 0 count: 988 | tight=2048 checked=0 walks=0 retried=0 skipped=0 filtered=1060 morsels=1 threads=1 vector=2 dense=0 reorders=1 proj=0 sel=[2048/1622 1836/1202 0/0 0/0 0/0 0/0 0/0 0/0]",
    "partition 1 count: 1578 | tight=2048 checked=0 walks=0 retried=0 skipped=0 filtered=470 morsels=1 threads=1 vector=2 dense=0 reorders=0 proj=0 sel=[2048/1623 1623/1578 0/0 0/0 0/0 0/0 0/0 0/0]",
    "partition 2 count: 0 | tight=0 checked=0 walks=0 retried=0 skipped=2 filtered=0 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
];

const SIM_SCALAR: [&str; 11] = [
    "txn versioned count: 1756 | tight=6122 checked=10138 walks=178 retried=0 skipped=0 filtered=3664 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[5420/4293 4293/2566 2566/1756 0/0 0/0 0/0 0/0 0/0]",
    "txn versioned for_each: 6238914878292004752 | tight=9194 checked=10138 walks=178 retried=0 skipped=0 filtered=3664 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=3 sel=[5420/4293 4293/2566 2566/1756 0/0 0/0 0/0 0/0 0/0]",
    "txn snapshot count: 1756 | tight=3072 checked=0 walks=0 retried=0 skipped=3 filtered=1316 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[3072/2435 2435/1756 1756/1756 0/0 0/0 0/0 0/0 0/0]",
    "txn snapshot for_each: 6238914878292004752 | tight=3072 checked=0 walks=0 retried=0 skipped=3 filtered=1316 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=3 sel=[3072/2435 2435/1756 1756/1756 0/0 0/0 0/0 0/0 0/0]",
    "reader count: 3240 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=856 morsels=6 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[4096/3240 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
    "reader dict_eq count: 1024 | tight=1024 checked=0 walks=0 retried=0 skipped=5 filtered=0 morsels=6 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[1024/1024 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
    "reader fold: 13936917784215683072 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=1851 morsels=6 threads=1 vector=0 dense=0 reorders=0 proj=4 sel=[4096/3245 3245/2839 2839/2245 0/0 0/0 0/0 0/0 0/0]",
    "reader parallel(2) fold: 13936917784215683072 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=1851 morsels=6 threads=2 vector=0 dense=0 reorders=0 proj=4 sel=[4096/3245 3245/2839 2839/2245 0/0 0/0 0/0 0/0 0/0]",
    "partition 0 count: 988 | tight=2048 checked=0 walks=0 retried=0 skipped=0 filtered=1060 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[2048/1622 1622/988 0/0 0/0 0/0 0/0 0/0 0/0]",
    "partition 1 count: 1578 | tight=2048 checked=0 walks=0 retried=0 skipped=0 filtered=470 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[2048/1623 1623/1578 0/0 0/0 0/0 0/0 0/0 0/0]",
    "partition 2 count: 0 | tight=0 checked=0 walks=0 retried=0 skipped=2 filtered=0 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
];

#[cfg(target_os = "linux")]
const OS_KERNELS: [&str; 11] = [
    "txn versioned count: 1756 | tight=4743 checked=9893 walks=173 retried=0 skipped=0 filtered=3664 morsels=1 threads=1 vector=6 dense=0 reorders=5 proj=0 sel=[5064/4010 4994/3194 2779/1969 0/0 0/0 0/0 0/0 0/0]",
    "txn versioned for_each: 6238914878292004752 | tight=7815 checked=9893 walks=173 retried=0 skipped=0 filtered=3664 morsels=1 threads=1 vector=6 dense=0 reorders=5 proj=3 sel=[5064/4010 4994/3194 2779/1969 0/0 0/0 0/0 0/0 0/0]",
    "txn snapshot count: 1756 | tight=3072 checked=0 walks=0 retried=0 skipped=3 filtered=1316 morsels=1 threads=1 vector=3 dense=0 reorders=1 proj=0 sel=[3016/2390 2860/2170 1756/1756 0/0 0/0 0/0 0/0 0/0]",
    "txn snapshot for_each: 6238914878292004752 | tight=3072 checked=0 walks=0 retried=0 skipped=3 filtered=1316 morsels=1 threads=1 vector=3 dense=0 reorders=1 proj=0 sel=[3016/2390 2860/2170 1756/1756 0/0 0/0 0/0 0/0 0/0]",
    "reader count: 3240 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=856 morsels=6 threads=1 vector=2 dense=2 reorders=0 proj=0 sel=[4096/3240 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
    "reader dict_eq count: 1024 | tight=1024 checked=0 walks=0 retried=0 skipped=5 filtered=0 morsels=6 threads=1 vector=0 dense=1 reorders=0 proj=0 sel=[1024/1024 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
    "reader fold: 13936917784215683072 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=1851 morsels=6 threads=1 vector=4 dense=0 reorders=1 proj=0 sel=[4096/3245 3245/2839 2839/2245 0/0 0/0 0/0 0/0 0/0]",
    "reader parallel(2) fold: 13936917784215683072 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=1851 morsels=6 threads=2 vector=4 dense=0 reorders=1 proj=0 sel=[4096/3245 3245/2839 2839/2245 0/0 0/0 0/0 0/0 0/0]",
    "partition 0 count: 988 | tight=2048 checked=0 walks=0 retried=0 skipped=0 filtered=1060 morsels=1 threads=1 vector=2 dense=0 reorders=1 proj=0 sel=[2048/1622 1836/1202 0/0 0/0 0/0 0/0 0/0 0/0]",
    "partition 1 count: 1578 | tight=2048 checked=0 walks=0 retried=0 skipped=0 filtered=470 morsels=1 threads=1 vector=2 dense=0 reorders=0 proj=0 sel=[2048/1623 1623/1578 0/0 0/0 0/0 0/0 0/0 0/0]",
    "partition 2 count: 0 | tight=0 checked=0 walks=0 retried=0 skipped=2 filtered=0 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
];

#[cfg(target_os = "linux")]
const OS_SCALAR: [&str; 11] = [
    "txn versioned count: 1756 | tight=6122 checked=10138 walks=178 retried=0 skipped=0 filtered=3664 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[5420/4293 4293/2566 2566/1756 0/0 0/0 0/0 0/0 0/0]",
    "txn versioned for_each: 6238914878292004752 | tight=9194 checked=10138 walks=178 retried=0 skipped=0 filtered=3664 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=3 sel=[5420/4293 4293/2566 2566/1756 0/0 0/0 0/0 0/0 0/0]",
    "txn snapshot count: 1756 | tight=3072 checked=0 walks=0 retried=0 skipped=3 filtered=1316 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[3072/2435 2435/1756 1756/1756 0/0 0/0 0/0 0/0 0/0]",
    "txn snapshot for_each: 6238914878292004752 | tight=3072 checked=0 walks=0 retried=0 skipped=3 filtered=1316 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[3072/2435 2435/1756 1756/1756 0/0 0/0 0/0 0/0 0/0]",
    "reader count: 3240 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=856 morsels=6 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[4096/3240 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
    "reader dict_eq count: 1024 | tight=1024 checked=0 walks=0 retried=0 skipped=5 filtered=0 morsels=6 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[1024/1024 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
    "reader fold: 13936917784215683072 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=1851 morsels=6 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[4096/3245 3245/2839 2839/2245 0/0 0/0 0/0 0/0 0/0]",
    "reader parallel(2) fold: 13936917784215683072 | tight=4096 checked=0 walks=0 retried=0 skipped=2 filtered=1851 morsels=6 threads=2 vector=0 dense=0 reorders=0 proj=0 sel=[4096/3245 3245/2839 2839/2245 0/0 0/0 0/0 0/0 0/0]",
    "partition 0 count: 988 | tight=2048 checked=0 walks=0 retried=0 skipped=0 filtered=1060 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[2048/1622 1622/988 0/0 0/0 0/0 0/0 0/0 0/0]",
    "partition 1 count: 1578 | tight=2048 checked=0 walks=0 retried=0 skipped=0 filtered=470 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[2048/1623 1623/1578 0/0 0/0 0/0 0/0 0/0 0/0]",
    "partition 2 count: 0 | tight=0 checked=0 walks=0 retried=0 skipped=2 filtered=0 morsels=1 threads=1 vector=0 dense=0 reorders=0 proj=0 sel=[0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0]",
];
