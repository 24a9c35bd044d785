//! Shared harness for the concurrent-commit test suites: a Zipf-skewed
//! key sampler, a multi-threaded committer driver that logs every
//! committed transaction's reads and writes, and the **commit-order
//! serializability oracle** that replays the logged history on a shadow
//! model.
//!
//! The oracle's contract: under `Serializable` isolation, re-executing
//! the *committed* transactions serially in commit-timestamp order must
//! (a) reproduce every value each transaction actually read and (b) end
//! in exactly the database's final state. Any lost update, write skew,
//! torn install or stale validation shows up as a mismatch.

// Each integration-test binary compiles this module separately and uses
// a different subset of it.
#![allow(dead_code)]

use anker_core::{
    AnkerDb, BackendKind, ColumnDef, DbConfig, LogicalType, Schema, TableId, TxnKind,
};
use anker_storage::ColumnId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A unique scratch directory under the system temp dir.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anker-commit-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Counter `name` of `db.metrics()` (0 when no such metric exists).
pub fn counter(db: &AnkerDb, name: &str) -> u64 {
    db.metrics().counter(name).unwrap_or(0)
}

/// The memory backends to run a test on: the simulator everywhere, plus
/// the real-OS backend on Linux.
pub fn backends() -> Vec<BackendKind> {
    #[cfg(target_os = "linux")]
    {
        vec![BackendKind::Sim, BackendKind::Os]
    }
    #[cfg(not(target_os = "linux"))]
    {
        vec![BackendKind::Sim]
    }
}

/// Zipf-skewed sampler over `0..n` via the inverse CDF (exact, no
/// rejection): `theta = 0` is uniform, larger values concentrate mass on
/// the low keys — the standard hot-key contention generator.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        let u = rng.random_range(0.0..1.0f64);
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// One committed transaction's logged history: the values it observed
/// and the values it wrote, keyed by row.
pub struct TxnHistory {
    pub commit_ts: u64,
    /// `(row, value observed)` — post-repair values for repaired rows.
    pub reads: Vec<(u32, u64)>,
    /// `(row, value written)`.
    pub writes: Vec<(u32, u64)>,
}

/// Replay `history` serially in commit-timestamp order on a shadow
/// array starting from `init`; assert every logged read against the
/// shadow state at its serial position (skipped when `check_reads` is
/// false — snapshot isolation permits stale reads), then return the
/// shadow's final state.
pub fn replay_commit_order(
    init: &[u64],
    history: &mut [TxnHistory],
    check_reads: bool,
) -> Vec<u64> {
    history.sort_by_key(|h| h.commit_ts);
    for pair in history.windows(2) {
        assert_ne!(
            pair[0].commit_ts, pair[1].commit_ts,
            "commit timestamps must be unique"
        );
    }
    let mut shadow = init.to_vec();
    for h in history.iter() {
        if check_reads {
            for &(row, val) in &h.reads {
                assert_eq!(
                    shadow[row as usize], val,
                    "commit ts {} read row {row} = {val}, but the commit-order \
                     serial execution has {} there — not serializable",
                    h.commit_ts, shadow[row as usize]
                );
            }
        }
        for &(row, val) in &h.writes {
            shadow[row as usize] = val;
        }
    }
    shadow
}

/// A fresh single-table, single-Int-column database filled with
/// `0..rows`.
pub fn one_col_db(config: DbConfig, rows: u32) -> (AnkerDb, TableId, ColumnId) {
    let db = AnkerDb::new(config.with_gc_interval(None));
    let (t, c) = one_col_table(&db, rows);
    (db, t, c)
}

/// Create and fill the standard one-column table on an existing
/// database (for callers that need `AnkerDb::open` or a GC thread).
pub fn one_col_table(db: &AnkerDb, rows: u32) -> (TableId, ColumnId) {
    let t = db
        .create_table(
            "t",
            Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
            rows,
        )
        .unwrap();
    let c = db.schema(t).col("v");
    db.fill_column(t, c, 0..rows as u64).unwrap();
    (t, c)
}

/// Raw words of the standard column, read chain-exactly through OLTP.
pub fn dump_col(db: &AnkerDb, t: TableId, c: ColumnId, rows: u32) -> Vec<u64> {
    let mut txn = db.begin(TxnKind::Oltp);
    let out = (0..rows).map(|r| txn.get(t, c, r).unwrap()).collect();
    txn.abort();
    out
}

/// Stress-driver parameters.
pub struct StressConfig {
    pub threads: usize,
    pub txns_per_thread: usize,
    pub rows: u32,
    /// Zipf skew of the key distribution (0 = uniform).
    pub theta: f64,
    /// Reads per transaction are drawn from `1..=max_reads`.
    pub max_reads: usize,
    /// `max_rounds` handed to [`anker_core::Txn::commit_with_repair`].
    pub repair_rounds: u32,
    pub seed: u64,
}

/// Aggregate outcome of a stress run, after the oracle has passed.
pub struct StressOutcome {
    pub committed: usize,
    pub ww_aborts: usize,
    pub validation_aborts: usize,
    /// Every committed transaction, sorted by commit timestamp.
    pub history: Vec<TxnHistory>,
}

/// Run `threads × txns_per_thread` read-compute-write transactions
/// against the standard one-column table, log every committed
/// transaction's history, then verify the whole run against the
/// commit-order oracle (reads checked only under `Serializable`).
///
/// Each transaction reads a few Zipf-distributed rows, computes a value
/// that depends on everything it read, and writes it to a distinct
/// Zipf-distributed row — so every anomaly is data-visible. The repair
/// closure re-reads exactly the conflicting rows and recomputes the
/// write, exercising the bounded conflict-repair path under real
/// contention.
pub fn run_commit_stress(
    db: &AnkerDb,
    t: TableId,
    c: ColumnId,
    cfg: &StressConfig,
) -> StressOutcome {
    assert!(cfg.rows as usize > cfg.max_reads);
    // Reads are only validated (and hence replay-checkable) under full
    // serializability.
    let serializable = db.config().isolation == anker_core::IsolationLevel::Serializable;
    let zipf = Zipf::new(cfg.rows, cfg.theta);
    let init: Vec<u64> = (0..cfg.rows as u64).collect();

    let mut history: Vec<TxnHistory> = Vec::new();
    let mut ww_aborts = 0usize;
    let mut validation_aborts = 0usize;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for k in 0..cfg.threads {
            let zipf = &zipf;
            handles.push(s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (k as u64).wrapping_mul(0x9E37));
                let mut local = Vec::new();
                let (mut ww, mut val) = (0usize, 0usize);
                for i in 0..cfg.txns_per_thread {
                    let n_reads = rng.random_range(1..=cfg.max_reads);
                    let mut read_rows: Vec<u32> = Vec::with_capacity(n_reads);
                    while read_rows.len() < n_reads {
                        let r = zipf.sample(&mut rng);
                        if !read_rows.contains(&r) {
                            read_rows.push(r);
                        }
                    }
                    let write_row = loop {
                        let r = zipf.sample(&mut rng);
                        if !read_rows.contains(&r) {
                            break r;
                        }
                    };
                    // The written value must be a function of the reads so
                    // a stale read corrupts downstream state visibly; the
                    // salt makes every write distinct.
                    let salt = ((k as u64) << 32) | i as u64;
                    let value_of = |reads: &BTreeMap<u32, u64>| {
                        reads
                            .values()
                            .fold(0u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v))
                            .wrapping_add(salt << 8)
                    };

                    let mut txn = db.begin(TxnKind::Oltp);
                    let mut reads: BTreeMap<u32, u64> = BTreeMap::new();
                    for &r in &read_rows {
                        reads.insert(r, txn.get(t, c, r).unwrap());
                    }
                    // On a single-core host every transaction otherwise
                    // fits inside one scheduler quantum and the threads
                    // serialize conflict-free; yielding between the reads
                    // and the commit lets other committers' writes land in
                    // the validation window.
                    std::thread::yield_now();
                    txn.update(t, c, write_row, value_of(&reads)).unwrap();
                    let reads_cell = std::cell::RefCell::new(&mut reads);
                    let result = txn.commit_with_repair(cfg.repair_rounds, |tx, conflicts| {
                        let mut reads = reads_cell.borrow_mut();
                        for conf in conflicts {
                            for &(ct, cc, row) in &conf.keys {
                                // Conflicts on the write row need no
                                // re-read (the write is blind); re-read
                                // only rows we actually observed.
                                if let std::collections::btree_map::Entry::Occupied(mut e) =
                                    reads.entry(row)
                                {
                                    e.insert(tx.get(ct, cc, row)?);
                                }
                            }
                        }
                        tx.update(t, c, write_row, value_of(&reads))
                    });
                    match result {
                        Ok(commit_ts) => local.push(TxnHistory {
                            commit_ts,
                            reads: reads.iter().map(|(&r, &v)| (r, v)).collect(),
                            writes: vec![(write_row, value_of(&reads))],
                        }),
                        Err(anker_core::DbError::Aborted(
                            anker_core::AbortReason::WriteWriteConflict,
                        )) => ww += 1,
                        Err(anker_core::DbError::Aborted(
                            anker_core::AbortReason::ValidationFailed { .. },
                        )) => val += 1,
                        Err(e) => panic!("unexpected commit error: {e:?}"),
                    }
                }
                (local, ww, val)
            }));
        }
        for h in handles {
            let (local, ww, val) = h.join().unwrap();
            history.extend(local);
            ww_aborts += ww;
            validation_aborts += val;
        }
    });

    let expected = replay_commit_order(&init, &mut history, serializable);
    let actual = dump_col(db, t, c, cfg.rows);
    assert_eq!(
        actual, expected,
        "final database state differs from the commit-order serial replay"
    );
    StressOutcome {
        committed: history.len(),
        ww_aborts,
        validation_aborts,
        history,
    }
}
