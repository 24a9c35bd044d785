//! The frozen surface: every `ankerdb::` path the perf ledger under
//! `benchmark/` imports, pinned here with its signature, plus compile-only
//! call shapes of what the ledger does with them — the scan chains and
//! the full `DbConfig` struct literal included. `benchmark/` is a package
//! of its own that the workspace test run never builds, so without this
//! file an API change that breaks the ledger would only fail CI's
//! `ledger-smoke` job; with it, it fails `cargo test`.
//!
//! [`every_benchmark_import_is_pinned`] keeps the list honest: it expands
//! every `use ankerdb::…` tree and inline `ankerdb::…` path in
//! `benchmark/src/*.rs` and requires each one to be named, fully
//! qualified, in the code above it.

// Naming each ledger path in full, even where a `use` would do, is the
// point of the pins.
#![allow(unused_qualifications)]

use ankerdb::core::obs::MetricsSnapshot;
use ankerdb::core::{
    AnkerDb, BackendKind, ColumnId, DbConfig, DbError, DurabilityLevel, IsolationLevel,
    LogicalType, ProcessingMode, ReaderScanBuilder, RecoveryReport, Result, ScanBuilder, ScanStats,
    SnapshotReader, TableId, Txn, TxnKind, Value,
};
use ankerdb::storage::Schema;
use ankerdb::tpch::gen::TpchDb;
use ankerdb::tpch::queries::{OlapParams, OlapResult};
use ankerdb::tpch::{OlapQuery, OltpKind, TpchConfig};
use rand::rngs::SmallRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Every imported type, trait, variant and constant still exists under
/// its path (a compile error here is a broken ledger import).
#[test]
fn imported_items_exist() {
    fn ty<T: ?Sized>() {}
    ty::<ankerdb::core::AnkerDb>();
    ty::<ankerdb::core::BackendKind>();
    ty::<ankerdb::core::ColumnId>();
    ty::<ankerdb::core::DbConfig>();
    ty::<ankerdb::core::DbError>();
    ty::<ankerdb::core::DurabilityLevel>();
    ty::<ankerdb::core::IsolationLevel>();
    ty::<ankerdb::core::LogicalType>();
    ty::<ankerdb::core::ProcessingMode>();
    ty::<ankerdb::core::ScanStats>();
    ty::<ankerdb::core::SnapshotReader>();
    ty::<ankerdb::core::TableId>();
    ty::<ankerdb::core::TxnKind>();
    ty::<ankerdb::core::Value>();
    ty::<ankerdb::core::obs::MetricsSnapshot>();
    let _: ankerdb::core::Result<()> = Ok::<(), ankerdb::core::DbError>(());
    let _ = [
        ankerdb::core::ProcessingMode::Heterogeneous,
        ankerdb::core::ProcessingMode::Homogeneous,
    ];
    ty::<ankerdb::tpch::gen::TpchDb>();
    ty::<ankerdb::tpch::OltpKind>();
    ty::<ankerdb::tpch::TpchConfig>();
    ty::<ankerdb::tpch::OlapQuery>();
    ty::<ankerdb::tpch::queries::OlapParams>();
    ty::<ankerdb::vmem::KernelConfig>();
    ty::<ankerdb::vmem::Kernel>();
    ty::<ankerdb::vmem::MapBacking<'static>>();
    ty::<ankerdb::vmem::OsBackend>();
    ty::<ankerdb::vmem::Prot>();
    ty::<ankerdb::vmem::Share>();
    ty::<dyn ankerdb::vmem::VmBackend>();
    ty::<ankerdb::dura::Wal>();
    ty::<ankerdb::dura::WalRecord>();
    ty::<ankerdb::dura::WalWrite>();
    ty::<ankerdb::mvcc::commit::CommitRecord>();
    ty::<ankerdb::mvcc::commit::RecentCommits>();
    ty::<ankerdb::mvcc::commit::WriteRecord>();
    ty::<ankerdb::mvcc::predicate::ColRef>();
    ty::<ankerdb::mvcc::predicate::PredicateSet>();
    ty::<ankerdb::mvcc::timestamp::TsOracle>();
    ty::<ankerdb::mvcc::version::VersionedColumn>();
    ty::<ankerdb::mvcc::ScanStats>();
    ty::<ankerdb::snapshot::Table1Config>();
    ty::<ankerdb::snapshot::VmSnapshotter>();
    ty::<dyn ankerdb::snapshot::Snapshotter>();
    ty::<ankerdb::storage::ColumnArea>();
    // The two `ScanStats` paths are one type.
    let _: ankerdb::mvcc::ScanStats = ankerdb::core::ScanStats::default();
}

/// Every imported function, and every method the ledger calls on an
/// imported type, keeps its signature. Generic functions are pinned at
/// the instantiation the ledger uses.
#[test]
fn signatures_are_unchanged() {
    use ankerdb::vmem::{Kernel, MapBacking, OsBackend, Prot, Share, Space, VmBackend};
    type VmResult<T> = ankerdb::vmem::Result<T>;
    type DuraResult<T> = ankerdb::dura::Result<T>;

    // core: the database, transactions, readers, metrics.
    let _: fn(DbConfig) -> AnkerDb = AnkerDb::new;
    let _: fn(&AnkerDb, TxnKind) -> Txn = AnkerDb::begin;
    let _: fn(&AnkerDb) -> Result<SnapshotReader> = AnkerDb::snapshot_reader;
    let _: fn(&AnkerDb) -> Result<u64> = AnkerDb::checkpoint;
    let _: fn(&AnkerDb) -> MetricsSnapshot = AnkerDb::metrics;
    let _: fn(&AnkerDb, TableId) -> u32 = AnkerDb::rows;
    let _: fn(&AnkerDb, TableId) -> Schema = AnkerDb::schema;
    let _: fn(&AnkerDb, &str) -> Option<TableId> = AnkerDb::table_id;
    let _: fn(&AnkerDb) -> u64 = AnkerDb::run_gc_once;
    let _: fn(&AnkerDb) -> u64 = AnkerDb::total_versions;
    let _: fn(&AnkerDb) -> Option<RecoveryReport> = AnkerDb::recovery_report;
    let _: fn(&Schema, &str) -> ColumnId = Schema::col;
    let _: for<'a> fn(&'a mut Txn, TableId) -> ScanBuilder<'a> = Txn::scan_on;
    let _: fn(&mut Txn, TableId, ColumnId, u32, u64) -> Result<()> = Txn::update;
    let _: fn(&mut Txn, TableId, ColumnId, u32) -> Result<Value> = Txn::get_value;
    let _: fn(&Txn) -> ScanStats = Txn::scan_stats;
    let _: fn(Txn) -> Result<u64> = Txn::commit;
    let _: fn(Txn) = Txn::abort;
    let _: for<'a> fn(&'a SnapshotReader, TableId) -> ReaderScanBuilder<'a> = SnapshotReader::scan;
    let _: fn(&SnapshotReader, TableId, ColumnId, u32) -> Result<u64> = SnapshotReader::get;
    let _: fn(&MetricsSnapshot, &str) -> Option<u64> = MetricsSnapshot::counter;
    let _: fn(u64, LogicalType) -> Value = Value::decode;
    let _: fn(Value) -> u64 = Value::encode;

    // tpch: generation, the OLTP and OLAP transactions.
    let _: fn(DbConfig, &TpchConfig) -> TpchDb = ankerdb::tpch::gen::generate;
    let _: fn(i32, u32, u32) -> i32 = ankerdb::tpch::gen::days;
    let _: fn(&DbError) -> bool = ankerdb::tpch::oltp::is_abort;
    let _: fn(&TpchDb, &mut Txn, OltpKind, &mut SmallRng) -> Result<()> =
        ankerdb::tpch::oltp::run_oltp_in;
    let _: fn(&mut SmallRng) -> OltpKind = OltpKind::sample;
    let _: fn(OlapQuery, &mut SmallRng) -> OlapParams = ankerdb::tpch::queries::sample_params;
    let _: fn(&TpchDb, &mut Txn, OlapParams) -> Result<OlapResult> =
        ankerdb::tpch::queries::run_olap;
    let _: fn(&TpchDb, &mut Txn, i32, f64, f64) -> Result<f64> = ankerdb::tpch::queries::q6;
    let _: [OlapQuery; 7] = OlapQuery::ALL;
    let _: fn(&OlapQuery) -> &'static str = OlapQuery::name;

    // vmem: both backends.
    let _: fn() -> ankerdb::vmem::KernelConfig = ankerdb::vmem::KernelConfig::default;
    let _: fn() -> Kernel = Kernel::default;
    let _: fn(&Kernel) -> Space = Kernel::create_space;
    let _: fn(&Kernel) -> u64 = Kernel::virtual_ns;
    let _: for<'a> fn(&Space, u64, Prot, Share, MapBacking<'a>) -> VmResult<u64> = Space::mmap;
    let _: fn(&Space) -> u64 = Space::page_size;
    let _: fn(&Space, u64, u64) -> VmResult<()> = Space::write_u64;
    let _: fn(&Space, Option<u64>, u64, u64) -> VmResult<u64> = Space::vm_snapshot;
    let _: (Prot, Share, MapBacking<'static>) =
        (Prot::READ_WRITE, Share::Private, MapBacking::Anon);
    let _: fn() -> VmResult<OsBackend> = OsBackend::new;
    let _: fn(&OsBackend) -> u64 = <OsBackend as VmBackend>::page_size;
    let _: fn(&OsBackend, u64) -> VmResult<u64> = <OsBackend as VmBackend>::alloc;
    let _: fn(&OsBackend, u64, u64) -> VmResult<()> = <OsBackend as VmBackend>::release;
    let _: fn(&OsBackend, Option<u64>, u64, u64) -> VmResult<u64> =
        <OsBackend as VmBackend>::vm_snapshot;
    let _: fn(&OsBackend, u64, u64) -> VmResult<()> = <OsBackend as VmBackend>::write_u64;
    let _: fn(&OsBackend, u64, &mut [u64]) -> VmResult<()> = <OsBackend as VmBackend>::read_words;
    let _: fn(&OsBackend, u64, &[u64]) -> VmResult<()> = <OsBackend as VmBackend>::write_words;

    // snapshot: Table 1 and the vm_snapshot technique.
    let _: fn(&ankerdb::snapshot::Table1Config) -> VmResult<Vec<ankerdb::snapshot::Table1Row>> =
        ankerdb::snapshot::table1_run;
    let _: fn(usize, u64) -> VmResult<ankerdb::snapshot::VmSnapshotter> =
        ankerdb::snapshot::VmSnapshotter::new;

    // storage.
    let _: fn(Arc<dyn VmBackend>, u32) -> VmResult<ankerdb::storage::ColumnArea> =
        ankerdb::storage::ColumnArea::alloc_on;

    // mvcc: the timestamp oracle, validation, versioned columns.
    use ankerdb::mvcc::commit::RecentCommits;
    use ankerdb::mvcc::predicate::{ColRef, PredicateSet};
    use ankerdb::mvcc::timestamp::TsOracle;
    use ankerdb::mvcc::version::VersionedColumn;
    let _: fn() -> TsOracle = TsOracle::new;
    let _: fn(&TsOracle) -> u64 = TsOracle::begin_commit;
    let _: fn(&TsOracle, u64) = TsOracle::complete_commit;
    let _: fn() -> RecentCommits = RecentCommits::new;
    let _: fn(u16, u16) -> ColRef = ColRef::new;
    let _: fn() -> PredicateSet = PredicateSet::new;
    let _: fn(&mut PredicateSet, ColRef, u32) = PredicateSet::add_row;
    let _: fn(u32, LogicalType) -> VersionedColumn = VersionedColumn::new;
    let _: fn(&VersionedColumn, &ankerdb::storage::ColumnArea, u32, u64, u64) -> VmResult<u64> =
        VersionedColumn::install;
    let _: fn(&VersionedColumn, &ankerdb::storage::ColumnArea, u32, u64) -> VmResult<u64> =
        VersionedColumn::read;
    let _: fn(&VersionedColumn, u64) -> u64 = VersionedColumn::gc;

    // dura: the WAL, replay and checkpoints.
    use ankerdb::dura::{Wal, WalRecord};
    let _: fn(&Path) -> DuraResult<Wal> = Wal::open;
    let _: fn(&Wal, &WalRecord) -> DuraResult<u64> = Wal::append;
    let _: fn(&Wal, u64) -> DuraResult<()> = Wal::sync_to;
    let _: fn(&WalRecord) -> Vec<u8> = WalRecord::encode;
    let _: fn(&Path) -> DuraResult<Option<ankerdb::dura::CheckpointData>> =
        ankerdb::dura::load_newest;
}

// ---------------------------------------------------------------------
// Compile-only call shapes: what the ledger writes, type-checked here.
// They are never run.
// ---------------------------------------------------------------------

/// The struct literal the ledger builds (`benchmark/src/common.rs`):
/// every field, so adding, removing or retyping one breaks this first.
#[allow(dead_code)]
fn db_config_literal(dir: Option<PathBuf>) -> ankerdb::core::DbConfig {
    DbConfig {
        mode: ProcessingMode::Heterogeneous,
        isolation: IsolationLevel::Serializable,
        snapshot_every_commits: 2_000,
        gc_interval: Some(Duration::from_secs(1)),
        recycle_snapshot_areas: false,
        eager_materialization: false,
        os_huge_pages: false,
        scalar_scan: false,
        kernel: ankerdb::vmem::KernelConfig::default(),
        backend: BackendKind::Os,
        durability: DurabilityLevel::Fsync,
        durability_dir: dir,
        checkpoint_interval: None,
    }
}

/// The reader scan chains of `benchmark/src/scans.rs`, each through
/// `.parallel(n)`: `count()`, `fold(init, f, merge)` and
/// `for_each(Fn + Sync)`.
#[allow(dead_code)]
fn reader_scan_chains(reader: &SnapshotReader, t: TableId, c: ColumnId, n: usize) -> Result<()> {
    let scan = || reader.scan(t).parallel(n);
    let (_, _): (u64, ScanStats) = scan().range_i64(c, 1, 2).count()?;
    let (_, _): (u64, ScanStats) = scan().dict_eq(c, 0).count()?;
    let (_, _): (i64, ScanStats) = scan()
        .range_i64(c, 1, 2)
        .range_f64(c, 0.0, 1.0)
        .lt_f64(c, 1.0)
        .project(&[c, c])
        .fold(
            0i64,
            |acc, _row: u32, v: &[Value]| acc + (v[0].as_double() * v[1].as_double()) as i64,
            |a, b| a + b,
        )?;
    let slots: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
    let _: ScanStats = scan().project(&[c]).for_each(|row: u32, words: &[u64]| {
        slots[row as usize & 63].fetch_add(words[0], Ordering::Relaxed);
    })?;
    Ok(())
}

/// The transaction scan chain of `benchmark/src/{fsync,probes}.rs`
/// (`for_each(FnMut)`), the typed accessors around it, and the
/// `scan_stats` the HTAP analyst reads.
#[allow(dead_code)]
fn txn_scan_chain(db: &AnkerDb, t: TableId, c: ColumnId) -> Result<u64> {
    let cols: Vec<ColumnId> = db.schema(t).iter().map(|(id, _)| id).collect();
    let mut txn = db.begin(TxnKind::Oltp);
    let mut sum = 0u64;
    let _: ScanStats = txn
        .scan_on(t)
        .range_i64(c, 0, 1)
        .project(&cols)
        .for_each(|row: u32, words: &[u64]| sum = sum.wrapping_add(words[0] ^ row as u64))?;
    let _: u64 = txn.scan_stats().chain_walks;
    let _: i32 = txn.get_value(t, c, 0)?.as_date();
    txn.commit()?;
    Ok(sum)
}

/// Reopening a crashed durable directory (`benchmark/src/fsync.rs`).
#[allow(dead_code)]
fn reopen(dir: &PathBuf) -> Result<AnkerDb> {
    AnkerDb::open(dir, db_config_literal(Some(dir.clone())))
}

/// The generator, the OLTP client's attempt and the HTAP analyst's OLAP
/// transaction (`benchmark/src/{common,htap}.rs`).
#[allow(dead_code)]
fn tpch_shapes(rng: &mut SmallRng) -> Result<()> {
    let t: TpchDb = ankerdb::tpch::gen::generate(
        db_config_literal(None),
        &TpchConfig {
            scale_factor: 1.0,
            seed: 42,
        },
    );
    let _: (u32, ColumnId) = (t.db.rows(t.lineitem), t.li.shipdate);
    let _ = (t.orders, t.part, t.li_by_key.get(&t.lineitem_keys[0]));
    let mut txn = t.db.begin(TxnKind::Oltp);
    if let Err(e) = ankerdb::tpch::oltp::run_oltp_in(&t, &mut txn, OltpKind::sample(rng), rng) {
        let _: bool = ankerdb::tpch::oltp::is_abort(&e);
    }
    let mut olap = t.db.begin(TxnKind::Olap);
    let params = ankerdb::tpch::queries::sample_params(OlapQuery::Q6, rng);
    if let OlapParams::Q6 {
        year,
        discount,
        qty,
    } = params
    {
        let _: f64 = ankerdb::tpch::queries::q6(&t, &mut olap, year, discount, qty)?;
    }
    ankerdb::tpch::queries::run_olap(&t, &mut olap, params)?;
    let report: Option<RecoveryReport> = t.db.recovery_report();
    let _ = report.is_some_and(|r| r.commits_replayed == 0 && !r.torn_tail);
    Ok(())
}

/// The layer probes of `benchmark/src/probes.rs`.
#[allow(dead_code)]
fn probe_shapes(dir: &Path, rows: u32) {
    use ankerdb::dura::{WalRecord, WalWrite};
    use ankerdb::mvcc::commit::{CommitRecord, RecentCommits, WriteRecord};
    use ankerdb::mvcc::predicate::{ColRef, PredicateSet};
    use ankerdb::snapshot::Snapshotter;
    use ankerdb::vmem::VmBackend;

    let rows1 = ankerdb::snapshot::table1_run(&ankerdb::snapshot::Table1Config {
        n_cols: 8,
        pages_per_col: 4_096,
        col_counts: vec![8],
        modified_pages: vec![0],
    })
    .unwrap();
    let _: (&str, f64) = (rows1[0].method, rows1[0].virtual_ms[0]);
    let mut s = ankerdb::snapshot::VmSnapshotter::new(8, 4_096).unwrap();
    s.write_base(0, 0, 0, 1).unwrap();
    let v0: u64 = s.kernel().virtual_ns();
    s.snapshot_columns(8).unwrap();
    let _ = v0;

    let os: Arc<dyn VmBackend> = Arc::new(ankerdb::vmem::OsBackend::new().unwrap());
    let area = ankerdb::storage::ColumnArea::alloc_on(os, rows).unwrap();
    let _: u32 = area.fill((0..rows).map(u64::from)).unwrap();
    let _: u64 = area.get(0).unwrap();
    area.set(0, 1).unwrap();
    let mut buf = vec![0u64; 1_024];
    area.read_block_into(0, 1_024, &mut buf).unwrap();
    area.invalidate_zone_map();
    let _ = area.zone_map(LogicalType::Date, 1_024).unwrap();

    let recent = RecentCommits::new();
    let col = ColRef::new(0, 0);
    recent.lock_tables(&[0]).push(CommitRecord {
        commit_ts: 1,
        writes: vec![WriteRecord {
            col,
            row: 2,
            old: 0,
            new: 1,
        }],
    });
    let mut preds = PredicateSet::new();
    preds.add_row(col, 1);
    let _: std::result::Result<(), u64> = recent.lock_tables(&[0]).validate(0, &preds);
    let vc = ankerdb::mvcc::version::VersionedColumn::new(rows, LogicalType::Int);
    let mut stats = ankerdb::mvcc::ScanStats::default();
    vc.scan_visible(&area, 1, |_row: u32, _w: u64| {}, &mut stats)
        .unwrap();
    area.unmap().unwrap();

    let rec = WalRecord::Commit {
        commit_ts: 1,
        seq: 1,
        writes: vec![WalWrite {
            table: 0,
            col: 0,
            row: 0,
            word: 0,
        }],
    };
    let wal = ankerdb::dura::Wal::open(dir).unwrap();
    let lsn = wal.append(&rec).unwrap();
    wal.sync_to(lsn).unwrap();
    let summary = ankerdb::dura::replay_dir(dir, |rec: WalRecord| {
        drop(rec);
        Ok(())
    })
    .unwrap();
    let _: u64 = summary.commits;

    ankerdb::obs::counter!("frozen_surface_total", "Never incremented").inc();
    drop(ankerdb::obs::span!("frozen_surface"));
}

/// `use ankerdb::…` trees and inline `ankerdb::…` paths of `benchmark/src`,
/// expanded to full paths. Aliases (`x as y`) keep the original path;
/// `self` names the module itself.
fn benchmark_paths() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file).unwrap();
        let mut rest = src.as_str();
        while let Some(at) = rest.find("ankerdb::") {
            let is_use = rest[..at].trim_end().ends_with("use");
            if is_use {
                let end = at + rest[at..].find(';').expect("use statement ends");
                expand("", &rest[at..end], &mut out);
                rest = &rest[end..];
            } else {
                let len = rest[at..]
                    .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .unwrap_or(rest.len() - at);
                out.push(rest[at..at + len].trim_end_matches(':').to_string());
                rest = &rest[at + len..];
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Expand one use tree (`a::b::{c, d::{e, self}}`) under `prefix`.
fn expand(prefix: &str, tree: &str, out: &mut Vec<String>) {
    let tree = tree.trim();
    let join = |head: &str| match (prefix.is_empty(), head.is_empty()) {
        (_, true) => prefix.to_string(),
        (true, false) => head.to_string(),
        (false, false) => format!("{prefix}::{head}"),
    };
    match tree.find('{') {
        Some(open) => {
            let base = join(tree[..open].trim().trim_end_matches("::"));
            let inner = &tree[open + 1..tree.rfind('}').expect("balanced braces")];
            let (mut depth, mut from) = (0, 0);
            for (i, c) in inner.char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    ',' if depth == 0 => {
                        expand(&base, &inner[from..i], out);
                        from = i + 1;
                    }
                    _ => {}
                }
            }
            expand(&base, &inner[from..], out);
        }
        None if tree.is_empty() => {}
        None => {
            let leaf = tree.split_whitespace().next().expect("non-empty leaf");
            out.push(if leaf == "self" {
                prefix.to_string()
            } else {
                join(leaf)
            });
        }
    }
}

#[test]
fn use_trees_expand() {
    let mut out = Vec::new();
    expand(
        "",
        "ankerdb::dura::{self, Wal, x::{Y as Z, self}}",
        &mut out,
    );
    assert_eq!(
        out,
        [
            "ankerdb::dura",
            "ankerdb::dura::Wal",
            "ankerdb::dura::x::Y",
            "ankerdb::dura::x"
        ]
    );
}

/// Every path the ledger imports is named, fully qualified, in the code of
/// this file above this test — so a new ledger import without a pinned
/// signature fails here.
#[test]
fn every_benchmark_import_is_pinned() {
    let src = include_str!("frozen_surface.rs");
    let pinned = &src[..src
        .find("fn benchmark_paths")
        .expect("the checker follows the pins")];
    let paths = benchmark_paths();
    assert!(
        paths.len() >= 40,
        "found only {} ledger paths: {paths:?}",
        paths.len()
    );
    let named = |path: &str| {
        pinned.match_indices(path).any(|(at, _)| {
            let before = pinned[..at].chars().next_back();
            let after = pinned[at + path.len()..].chars().next();
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':')
                && !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    };
    let missing: Vec<&String> = paths.iter().filter(|p| !named(p)).collect();
    assert!(
        missing.is_empty(),
        "benchmark/src imports paths this file does not pin: {missing:?}"
    );
}
