//! `create_table` at the descriptor limit: on the OS backend every live
//! column is a memfd, so past the process's soft `RLIMIT_NOFILE` a table
//! cannot be created. The call must fail with a typed error, unmap the
//! columns it had already allocated, and consume no table id; the
//! database must keep working once descriptors are available again.
//!
//! This binary holds this one test alone: it lowers the soft descriptor
//! limit of its own process, which any test running beside it would feel.

#![cfg(target_os = "linux")]

use anker_core::{
    AnkerDb, BackendKind, ColumnDef, DbConfig, DbError, LogicalType, Schema, TableId, TxnKind,
};
use anker_vmem::VmError;

/// `RLIMIT_NOFILE` on Linux.
const RLIMIT_NOFILE: i32 = 7;
/// `EMFILE`: the process has its limit of open descriptors.
const EMFILE: i32 = 24;
/// The soft descriptor limit the test runs under.
const LIMIT: u64 = 64;
const ROWS: u32 = 1024;

/// `struct rlimit`.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Set this process's soft descriptor limit to `soft`, keeping the hard
/// limit, and return the soft limit it replaced.
fn set_soft_nofile(soft: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY(provenance: lim): both calls read or write only `lim`, a
    // local `struct rlimit`.
    let (got, prev, set) = unsafe {
        let got = getrlimit(RLIMIT_NOFILE, &mut lim);
        let prev = lim.cur;
        lim.cur = soft;
        (got, prev, setrlimit(RLIMIT_NOFILE, &lim))
    };
    assert_eq!((got, set), (0, 0), "getrlimit / setrlimit failed");
    prev
}

fn schema(cols: usize) -> Schema {
    Schema::new(
        (0..cols)
            .map(|i| ColumnDef::new(format!("c{i}"), LogicalType::Int))
            .collect(),
    )
}

#[test]
fn create_table_at_the_descriptor_limit_fails_without_leaking() {
    let emfile = DbError::Vm(VmError::Os {
        call: "memfd_create",
        errno: EMFILE,
    });
    let db = AnkerDb::new(
        DbConfig::default()
            .with_backend(BackendKind::Os)
            .with_gc_interval(None),
    );
    let wired = || db.metrics().gauge("os_wired_runs").unwrap();
    let first = db.create_table("t0", schema(4), ROWS).unwrap();
    let c0 = db.schema(first).col("c0");
    db.fill_column(first, c0, 0..ROWS as u64).unwrap();
    let mut tables = vec![first];
    let restore = set_soft_nofile(LIMIT);

    // Multi-column tables until the descriptors run out, then one-column
    // tables until exactly none is left.
    for cols in [4, 1] {
        loop {
            let before = wired();
            match db.create_table(format!("t{}", tables.len()), schema(cols), ROWS) {
                Ok(t) => tables.push(t),
                Err(e) => {
                    assert_eq!(e, emfile);
                    assert_eq!(wired(), before, "a failed create_table leaked a column");
                    break;
                }
            }
            assert!(
                tables.len() < LIMIT as usize,
                "more tables than descriptors"
            );
        }
    }

    // Room for two columns: a four-column table allocates two and fails
    // on the third, and must give both back — a two-column table then
    // fits exactly.
    set_soft_nofile(LIMIT + 2);
    let before = wired();
    assert_eq!(
        db.create_table("partial", schema(4), ROWS),
        Err(emfile.clone())
    );
    assert_eq!(wired(), before, "the partial allocation leaked a column");
    tables.push(db.create_table("two", schema(2), ROWS).unwrap());
    assert_eq!(db.create_table("none", schema(1), ROWS), Err(emfile));

    // No failed call consumed a table id, and with the limit restored the
    // database creates tables and commits on the old ones again.
    assert_eq!(
        set_soft_nofile(restore),
        LIMIT + 2,
        "the engine never raises the limit"
    );
    let next = db.create_table("after", schema(4), ROWS).unwrap();
    assert_eq!(next, TableId(tables.len() as u16));
    let mut txn = db.begin(TxnKind::Oltp);
    txn.update(first, c0, 7, 700).unwrap();
    txn.commit().unwrap();
    let mut txn = db.begin(TxnKind::Oltp);
    assert_eq!(txn.get(first, c0, 7).unwrap(), 700);
    txn.commit().unwrap();
}
