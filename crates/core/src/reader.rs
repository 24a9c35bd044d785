//! Detached snapshot readers: `Send + Sync` read handles onto one frozen
//! snapshot epoch, independent of any transaction.
//!
//! A [`SnapshotReader`] is the paper's OLAP fleet made explicit (§5.3–§5.4
//! run N analytical threads against the snapshot while updaters commit):
//! it pins an epoch **by refcount** at creation and holds that pin until
//! dropped. The pinned epoch is never retired, so it keeps a handle to
//! every frozen image it serves, and an image is unmapped only when its
//! last handle drops — never while the reader lives, across any number of
//! snapshot refreshes in between. The pin is the reader's only hold: it reads frozen images and
//! never a version chain, so it does not register in the OLTP version
//! horizon and holds back no version garbage collection.
//!
//! **Isolation contract.** A reader is snapshot-isolation-only, full stop:
//! every read observes the single consistent point in time of its epoch
//! (`epoch_ts`), writes are impossible by construction, and nothing a
//! reader does is validated against later commits. Serializable
//! transactions must keep using [`crate::Txn`] — its scans register
//! precision locks automatically; a reader registers none. The reader
//! never takes the commit lock on its hot path; only the *first* access
//! to a not-yet-materialised column acquires it once, to materialise the
//! column for the epoch (§2.2.2 lazy materialisation), exactly like an
//! OLAP transaction's first touch.

use crate::db::AnkerDb;
use crate::error::{DbError, Result};
use crate::scan::{ReaderScanBuilder, Scan};
use crate::snapman::{resolve_snap_col, Epoch, SnapCol};
use crate::table::TableId;
use anker_storage::{ColumnId, LogicalType, Value};
use std::sync::{Arc, OnceLock};

/// The pin itself: the epoch refcount, released exactly once when the last
/// holder drops. [`crate::ScanPartition`]s share this handle so a partition
/// outliving its reader still keeps the epoch alive.
pub(crate) struct ReaderPin {
    db: AnkerDb,
    epoch: Arc<Epoch>,
}

impl Drop for ReaderPin {
    fn drop(&mut self) {
        self.db.inner.snapman.unpin(&self.epoch);
    }
}

/// A standalone, `Send + Sync` reader over one pinned snapshot epoch.
/// Obtain with [`AnkerDb::snapshot_reader`]; share it across threads
/// freely (all methods take `&self`), scan through
/// [`SnapshotReader::scan`]. See the module docs for the pinning and
/// isolation contract.
///
/// ```
/// # use anker_core::{AnkerDb, ColumnDef, DbConfig, LogicalType, Schema, TxnKind, Value};
/// # let db = AnkerDb::new(DbConfig::default());
/// # let t = db.create_table(
/// #     "x", Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]), 8).unwrap();
/// # let v = db.schema(t).col("v");
/// # db.fill_column(t, v, (0..8).map(|i| Value::Int(i).encode())).unwrap();
/// let reader = db.snapshot_reader().unwrap();
/// let (sum, stats) = reader
///     .scan(t)
///     .range_i64(v, 2, 5)
///     .project(&[v])
///     .parallel(2)
///     .fold(0i64, |acc, _row, vals| acc + vals[0].as_int(), |a, b| a + b)
///     .unwrap();
/// assert_eq!(sum, 2 + 3 + 4 + 5);
/// assert!(stats.threads >= 1);
/// ```
pub struct SnapshotReader {
    pin: Arc<ReaderPin>,
    /// Per-reader cache of resolved snapshot columns (same role as the
    /// per-transaction cache), filled from any thread and read without a
    /// lock: a slot per column of every table that existed when the
    /// reader opened, the table's row of slots made on first use. A table
    /// created later resolves through the epoch on every access.
    cache: Box<[OnceLock<Box<[OnceLock<Arc<SnapCol>>]>>]>,
}

impl std::fmt::Debug for SnapshotReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("epoch_ts", &self.pin.epoch.ts)
            .finish()
    }
}

impl SnapshotReader {
    /// Pin the newest epoch at most `max_age` commits old (cutting one at
    /// the watermark when none is) and wrap it. Heterogeneous mode only:
    /// the homogeneous configurations have no snapshot epochs to pin.
    pub(crate) fn open(db: &AnkerDb, max_age: u64) -> Result<SnapshotReader> {
        if db.inner.config.mode != crate::config::ProcessingMode::Heterogeneous {
            return Err(DbError::SnapshotsDisabled);
        }
        let tables = db.inner.tables.read().len();
        Ok(SnapshotReader {
            pin: Arc::new(ReaderPin {
                db: db.clone(),
                epoch: db.pin_current_epoch(max_age),
            }),
            cache: (0..tables).map(|_| OnceLock::new()).collect(),
        })
    }

    /// The single point in time every read of this reader observes.
    pub fn epoch_ts(&self) -> u64 {
        self.pin.epoch.ts
    }

    pub(crate) fn db(&self) -> &AnkerDb {
        &self.pin.db
    }

    pub(crate) fn pin_handle(&self) -> Arc<ReaderPin> {
        Arc::clone(&self.pin)
    }

    /// The cached snapshot column for `(table, col)`, if resolved.
    #[inline]
    fn cached(&self, table: TableId, col: ColumnId) -> Option<&Arc<SnapCol>> {
        self.cache.get(table.0 as usize)?.get()?.get(col.0)?.get()
    }

    /// The reader's snapshot column for `(table, col)`, materialising it
    /// for the pinned epoch on first access.
    pub(crate) fn snap_col(&self, table: TableId, col: ColumnId) -> Result<Arc<SnapCol>> {
        if let Some(sc) = self.cached(table, col) {
            return Ok(Arc::clone(sc));
        }
        let sc = resolve_snap_col(&self.pin.db, &self.pin.epoch, table, col)?;
        if let Some(slots) = self.cache.get(table.0 as usize) {
            let cols = slots.get_or_init(|| {
                let n = self.pin.db.table_state(table).cols.len();
                (0..n).map(|_| OnceLock::new()).collect()
            });
            // A racing first access may have filled the slot: both
            // resolved the epoch's one image.
            let _ = cols[col.0].set(Arc::clone(&sc));
        }
        Ok(sc)
    }

    /// Read the raw word of `(table, col, row)` at the epoch. A row past
    /// the table's last is [`DbError::RowOutOfRange`]. Once the column is
    /// cached, a read takes no lock and clones nothing.
    pub fn get(&self, table: TableId, col: ColumnId, row: u32) -> Result<u64> {
        match self.cached(table, col) {
            Some(sc) => sc.get(table, row),
            None => self.snap_col(table, col)?.get(table, row),
        }
    }

    /// Typed read at the epoch.
    pub fn get_value(&self, table: TableId, col: ColumnId, row: u32) -> Result<Value> {
        let ty: LogicalType = self.pin.db.table_state(table).schema.def(col).ty;
        Ok(Value::decode(self.get(table, col, row)?, ty))
    }

    /// Start building a scan over `table` on this reader's epoch: chain
    /// typed predicates and a projection on the returned
    /// [`ReaderScanBuilder`], optionally fan out with
    /// [`ReaderScanBuilder::parallel`] or
    /// [`ReaderScanBuilder::into_partitions`], then finish with a
    /// terminal method.
    pub fn scan(&self, table: TableId) -> ReaderScanBuilder<'_> {
        Scan::new(self, table, self.pin.db.table_state(table))
    }
}
