//! The snapshot manager: epoch triggering, lazy column-granular
//! materialisation, pinning, and retirement (paper §2.2.2–§2.2.3, §5.1(3)).
//!
//! * A **trigger** (every *n* commits) only registers an epoch timestamp —
//!   no snapshotting happens (§2.2.2 "only a timestamp for that snapshot is
//!   logged").
//! * A column is **materialised** for an epoch by the first post-trigger
//!   *write* to it (inside the commit section, before the write installs) or
//!   by the first OLAP *access* — whichever comes first. Either way the
//!   column's content still equals its state at the epoch timestamp, so all
//!   columns of an epoch are consistent with one single point in time even
//!   though they materialise at different wall-clock moments.
//! * Columns never touched and never read are never materialised (§2.2.2).
//! * One `vm_snapshot` can serve several epochs — every live epoch that
//!   misses the column at the time, and any *later* epoch that needs it
//!   while the column stays unwritten: the newest frozen image of each
//!   column is kept (in [`CommitState`]) and registered as is when the
//!   column's `last_mutation()` still equals the image's
//!   `as_of_mutation`, so its area and cached zone map are shared too.
//! * OLAP transactions **pin** the newest epoch; an epoch that is no longer
//!   newest and has no pins is retired, unmapping its areas — which, with
//!   the chain hand-over in [`anker_mvcc::VersionedColumn`], is the paper's
//!   implicit garbage collection.
//!
//! Locking: everything that materialises or triggers runs inside the
//! database's serialized commit section (the `&mut CommitState` parameter
//! is the capability token); pin/unpin only takes the epoch list mutex.

use crate::db::CommitState;
use crate::metrics::Metrics;
use crate::table::{ColumnState, TableId, TableState, NEVER_CUT};
use anker_storage::{ColumnArea, LogicalType, ZoneMap};
use anker_util::lockcheck::{self, classes};
use anker_util::FxHashMap;
use anker_vmem::VmBackend;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A materialised snapshot column: a frozen image of one column — a
/// `vm_snapshot` view of its live area — shared by every epoch it serves.
/// It lives exactly as long as its last handle: an epoch, the commit
/// section's newest-image slot, or a reader's cache. Dropping the last one
/// unmaps the view at once.
pub(crate) struct SnapCol {
    area: ColumnArea,
    /// The column's [`ColumnState::last_mutation`] when the image was
    /// frozen. While the column's value still equals it, no write has
    /// landed since, and the image can serve a later epoch as is.
    as_of_mutation: u64,
}

impl SnapCol {
    pub fn area(&self) -> &ColumnArea {
        &self.area
    }

    /// The frozen column as a plain slice where the backend maps it as
    /// directly addressable memory (the OS backend), else `None`. The one
    /// place an epoch's pin becomes a slice: scans, zone-map builds and
    /// checkpoint streams all borrow through here. It reads the area's
    /// cached view and takes no lock. `None` too for an image read through
    /// its live area ([`ColumnArea::read_through`]): its readers stage
    /// blocks through [`ColumnArea::read_block_into`], which copies each
    /// unsplit page from the live area and each split one from the copy
    /// the split set aside, so the image's own pages stay unmapped.
    #[inline]
    pub fn words(&self) -> Option<&[u64]> {
        // SAFETY(provenance: self, area): the slice borrows `self`, whose
        // area's view keeps the mapping alive for the borrow. The engine
        // never writes a frozen image (installs go to the live area), so
        // its bytes never change; on the OS backend a write to the live
        // area may move the image's page-table entry onto a private copy
        // of the page first, which holds the same bytes.
        unsafe { self.area.as_slice() }
    }

    /// The raw word of `row` of this image of a column of `table`: a load
    /// through the area's cached view on the OS backend. A row past the
    /// last is [`crate::DbError::RowOutOfRange`].
    #[inline]
    pub fn get(&self, table: TableId, row: u32) -> crate::error::Result<u64> {
        table.check_row(row, self.area.rows())?;
        Ok(self.area.get(row)?)
    }

    /// The image's zone map under `ty` (see [`ColumnArea::zone_map`]),
    /// built from [`SnapCol::words`] where there is a slice. Cached on the
    /// area, so every epoch sharing the image shares the map.
    pub fn zone_map(&self, ty: LogicalType, block_rows: u32) -> anker_vmem::Result<Arc<ZoneMap>> {
        self.area.zone_map_with(ty, block_rows, self.words())
    }
}

impl Drop for SnapCol {
    fn drop(&mut self) {
        // Unmapping can only fail on address errors, which would be an
        // internal bug; areas are never partially unmapped.
        let _ = self.area.clone().unmap();
    }
}

/// One snapshot epoch.
pub(crate) struct Epoch {
    /// The single point in time all of this epoch's columns represent.
    pub ts: u64,
    cols: lockcheck::Mutex<FxHashMap<(u16, u16), Arc<SnapCol>>>,
    pins: AtomicU64,
    /// True once any column was written *without* being materialised for
    /// this epoch (because nobody was reading it): the epoch can no longer
    /// guarantee a consistent multi-column view and must not be pinned.
    damaged: std::sync::atomic::AtomicBool,
}

impl Epoch {
    /// The materialised snapshot column for `(table, col)`, if present.
    pub fn col(&self, key: (u16, u16)) -> Option<Arc<SnapCol>> {
        self.cols.lock().get(&key).cloned()
    }

    /// Whether a write bypassed this epoch (see field docs).
    pub fn is_damaged(&self) -> bool {
        // ORDERING: Acquire pairs with `note_write`'s Release store, so a
        // reader that sees the damage also sees the write that caused it.
        self.damaged.load(Ordering::Acquire)
    }
}

/// An epoch timestamp as the settled-markers store it: shifted by one so
/// that 0 means "no epoch" / "never settled" and an epoch cut at
/// timestamp 0 (an OLAP arrival before the first commit) is a mark of its
/// own.
fn epoch_mark(ts: u64) -> u64 {
    ts + 1
}

pub(crate) struct SnapshotManager {
    backend: Arc<dyn VmBackend>,
    /// Live epochs in ascending timestamp order; the last one is newest.
    epochs: lockcheck::Mutex<Vec<Arc<Epoch>>>,
    /// [`epoch_mark`] of the newest epoch (0 = no epoch yet). Lock-free
    /// mirror for the commit path's fast-path check
    /// ([`SnapshotManager::write_is_settled`]).
    newest_mark: AtomicU64,
    m: Arc<Metrics>,
}

impl SnapshotManager {
    pub fn new(backend: Arc<dyn VmBackend>, m: Arc<Metrics>) -> SnapshotManager {
        SnapshotManager {
            backend,
            epochs: lockcheck::Mutex::new(&classes::SNAP_EPOCHS, 0, Vec::new()),
            newest_mark: AtomicU64::new(0),
            m,
        }
    }

    /// Register a new epoch at `ts` (commit section only) and retire
    /// superseded, unpinned epochs.
    pub fn trigger_epoch(&self, _cs: &mut CommitState, ts: u64) -> Arc<Epoch> {
        let epoch = Arc::new(Epoch {
            ts,
            // Ordered by epoch timestamp: the only place two epochs' column
            // maps could nest is an ascending walk of the epoch list.
            cols: lockcheck::Mutex::new(&classes::SNAP_EPOCH_COLS, ts, FxHashMap::default()),
            pins: AtomicU64::new(0),
            damaged: std::sync::atomic::AtomicBool::new(false),
        });
        let mut epochs = self.epochs.lock();
        debug_assert!(epochs.last().map(|e| e.ts <= ts).unwrap_or(true));
        epochs.push(Arc::clone(&epoch));
        // ORDERING: Release pairs with the Acquire load in `note_write`'s
        // fast-path marker — seeing the new mark implies the epoch is
        // already in the list.
        self.newest_mark.store(epoch_mark(ts), Ordering::Release);
        self.m.epochs_triggered.inc();
        let retired = self.retire_locked(&mut epochs);
        // Unmap the retired epochs' images outside the list lock.
        drop(epochs);
        drop(retired);
        epoch
    }

    /// Pin the newest epoch if it can still serve a new OLAP transaction:
    /// it must be undamaged (no write bypassed it) and at most
    /// `max_age_commits` commits behind `now_ts` (the paper's freshness
    /// bound: a snapshot at least every *n* commits). Returns `None` when a
    /// fresh epoch must be created instead.
    ///
    /// Pinning and damage-marking both happen under the epoch-list mutex,
    /// so a writer either sees the pin (and materialises for the epoch) or
    /// the reader sees the damage (and asks for a fresh epoch).
    pub fn pin_newest_fresh(&self, now_ts: u64, max_age_commits: u64) -> Option<Arc<Epoch>> {
        let epochs = self.epochs.lock();
        let newest = epochs.last()?;
        if newest.is_damaged() || now_ts.saturating_sub(newest.ts) > max_age_commits {
            return None;
        }
        // ORDERING: AcqRel — the pin must be a full synchronization point
        // with `unpin`/`retire_locked` so a retirer that reads 0 sees
        // everything every past pinner did, and a pinner sees the epoch
        // fully published.
        newest.pins.fetch_add(1, Ordering::AcqRel);
        self.note_epoch_pin();
        Some(Arc::clone(newest))
    }

    /// Pin a specific epoch (used for a just-created epoch while the
    /// creating thread still holds the commit lock, so no write can damage
    /// it in between).
    pub fn pin_epoch(&self, epoch: &Arc<Epoch>) {
        let _order = self.epochs.lock();
        // ORDERING: AcqRel, same pin protocol as `pin_newest_fresh`.
        epoch.pins.fetch_add(1, Ordering::AcqRel);
        self.note_epoch_pin();
    }

    /// Pin accounting shared by [`SnapshotManager::pin_newest_fresh`] and
    /// [`SnapshotManager::pin_epoch`]; the matching gauge decrement lives
    /// in [`SnapshotManager::unpin`].
    fn note_epoch_pin(&self) {
        self.m.epoch_pins.inc();
        self.m.epochs_pinned.inc();
    }

    /// Unpin an epoch (OLAP transaction end); retires it if superseded and
    /// now unpinned.
    pub fn unpin(&self, epoch: &Arc<Epoch>) {
        // ORDERING: AcqRel — the Release half publishes this reader's last
        // accesses before the count drops (so retirement cannot unmap under
        // it); the Acquire half orders the retire scan below after the
        // decrement.
        let prev = epoch.pins.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "unpin without pin");
        self.m.epochs_pinned.dec();
        let retired = self.retire_locked(&mut self.epochs.lock());
        // Unmap the retired epochs' images outside the list lock.
        drop(retired);
    }

    /// Remove every epoch that is superseded and unpinned, and return them.
    /// The newest epoch always stays (it serves the next OLAP arrival).
    /// The caller drops the returned epochs after releasing the list lock:
    /// dropping an epoch drops its `SnapCol` handles, and the last handle
    /// unmaps its area, which no pin should wait behind.
    #[must_use]
    fn retire_locked(&self, epochs: &mut Vec<Arc<Epoch>>) -> Vec<Arc<Epoch>> {
        let n = epochs.len();
        let mut retired = Vec::new();
        // ORDERING: Acquire pairs with `unpin`'s AcqRel decrement — a zero
        // count means every reader's accesses happened-before this drop.
        for i in (0..n.saturating_sub(1)).rev() {
            if epochs[i].pins.load(Ordering::Acquire) == 0 {
                retired.push(epochs.remove(i));
            }
        }
        self.m.epochs_retired.add(retired.len() as u64);
        self.m.live_epochs.set(epochs.len() as i64);
        retired
    }

    /// Handle an imminent write to `(table_id, col_id)` (commit section
    /// only, *before* the write installs): every **pinned** epoch missing
    /// the column gets it materialised now (an active reader may still ask
    /// for it); unpinned epochs are damage-marked instead — nobody is
    /// reading them, so paying `vm_snapshot` + copy-on-write for them would
    /// tax pure OLTP throughput for nothing (the paper's Figure 8 shows
    /// heterogeneous OLTP throughput matching homogeneous, which rules out
    /// unconditional write-triggered materialisation).
    pub fn note_write(
        &self,
        cs: &mut CommitState,
        table: &TableState,
        table_id: u16,
        col_id: u16,
    ) -> anker_vmem::Result<()> {
        let key = (table_id, col_id);
        let to_materialize = {
            let epochs = self.epochs.lock();
            let mut need = false;
            for e in epochs.iter() {
                if e.cols.lock().contains_key(&key) {
                    continue;
                }
                // ORDERING: the pin Acquire pairs with the AcqRel pin RMWs
                // (a seen pin implies the reader is fully registered); the
                // damage Release pairs with `is_damaged`'s Acquire.
                if e.pins.load(Ordering::Acquire) > 0 {
                    need = true;
                } else {
                    e.damaged.store(true, Ordering::Release);
                }
            }
            need
        };
        if to_materialize {
            self.materialize_column(cs, table, table_id, col_id)?;
        }
        // The write makes the column's image stale. Drop it: if no epoch
        // holds it either, that unmaps it before the write installs.
        // Otherwise it would share every page with the column, and each
        // write would split a page for a view nobody can read.
        cs.images.remove(&key);
        // Fast-path marker: this column is settled for the current newest
        // epoch (either materialised or the epoch is damaged).
        // ORDERING: the Acquire load pairs with `trigger_epoch`'s Release;
        // the Release store pairs with the commit path's Acquire check of
        // `snapshot_mark`, which must also see the settled epoch state.
        table
            .col(col_id as usize)
            .snapshot_mark
            .store(self.newest_mark.load(Ordering::Acquire), Ordering::Release);
        Ok(())
    }

    /// Commit fast path: whether a write to `col` may skip
    /// [`SnapshotManager::note_write`] — no epoch exists yet, or the column
    /// is already settled (materialised or damage-marked) for the newest.
    pub fn write_is_settled(&self, col: &ColumnState) -> bool {
        // ORDERING: both Acquire loads pair with the Release stores in
        // `trigger_epoch`, `note_write` and `materialize_column`, so a
        // settled marker implies the epoch state it claims.
        let newest = self.newest_mark.load(Ordering::Acquire);
        newest == 0 || col.snapshot_mark.load(Ordering::Acquire) >= newest
    }

    /// Materialise `(table_id, col_id)` for every live epoch that misses it
    /// and can still consistently receive it (commit section only). Called
    /// by [`SnapshotManager::note_write`] for pinned epochs and by the OLAP
    /// read path on first access.
    ///
    /// The column's newest frozen image (kept in `cs`) serves the missing
    /// epochs as is while no write has landed since it was frozen — the
    /// column's `last_mutation()` still equals the image's
    /// `as_of_mutation` — so an unwritten column costs no `vm_snapshot`
    /// and no zone-map rebuild however many epochs it spans.
    /// Equality is exact because every heterogeneous install and its
    /// `last_mutation_ts` store happen inside the commit section this runs
    /// in.
    ///
    /// Returns the snapshot column now registered for the **newest** such
    /// epoch.
    pub fn materialize_column(
        &self,
        cs: &mut CommitState,
        table: &TableState,
        table_id: u16,
        col_id: u16,
    ) -> anker_vmem::Result<Option<Arc<SnapCol>>> {
        let epochs: Vec<Arc<Epoch>> = self.epochs.lock().clone();
        if epochs.is_empty() {
            return Ok(None);
        }
        let key = (table_id, col_id);
        let col: &ColumnState = table.col(col_id as usize);
        let last_mutation = col.last_mutation();
        // Which live epochs miss this column and may still take it? A
        // damaged epoch is only served columns whose state still matches
        // its timestamp (pinned readers may have started before the damage;
        // their columns of interest must satisfy the invariant below).
        let missing: Vec<&Arc<Epoch>> = epochs
            .iter()
            .filter(|e| last_mutation <= e.ts && !e.cols.lock().contains_key(&key))
            .collect();
        if missing.is_empty() {
            return Ok(epochs.iter().rev().find_map(|e| e.col(key)));
        }
        let snap = match cs.images.get(&key) {
            Some(image) if image.as_of_mutation == last_mutation => {
                self.m.columns_reused.inc();
                Arc::clone(image)
            }
            _ => {
                let snap = self.freeze_column(col, last_mutation)?;
                cs.images.insert(key, Arc::clone(&snap));
                snap
            }
        };
        // Hand the version chains over (they serve pre-epoch OLTP readers
        // until the active horizon passes the newest epoch timestamp).
        let newest_missing_ts = missing.iter().map(|e| e.ts).max().expect("nonempty");
        col.versioned.freeze_epoch(newest_missing_ts);
        for e in missing {
            e.cols.lock().insert(key, Arc::clone(&snap));
        }
        // ORDERING: Release pairs with the commit fast-path's Acquire load
        // of `snapshot_mark` — seeing the mark implies the snapshot
        // column is registered in every missing epoch above.
        col.snapshot_mark
            .store(epoch_mark(newest_missing_ts), Ordering::Release);
        Ok(Some(snap))
    }

    /// Freeze `col`'s live area into a new image (Figure 1, step 4): one
    /// `vm_snapshot` cuts a view of it, which becomes the image; the live
    /// area stays the column's most-recent representation. On the OS
    /// backend the view is a `MAP_PRIVATE` mapping of the live area's
    /// pages, and each page is copied for the image when a later write
    /// first reaches it. The image is a fresh [`ColumnArea`] handle, so its
    /// zone-map cache starts empty and is built from the frozen content.
    ///
    /// An image of a column written since its previous image was cut is
    /// read through the live area ([`ColumnArea::read_through`]), and is
    /// decided so before the cut: such a column is under update, so the
    /// writer will split the image's pages. Its cut
    /// ([`VmBackend::vm_snapshot_read_through`]) leaves the live area's
    /// page tables in place, and on the OS backend each split is one
    /// `memcpy` of the live page into a resident pool page — no syscall,
    /// no page fault and no TLB shootdown. A first image, and every image
    /// of an unwritten column, is cut zero-copy and read through its own
    /// mapping, whose splits the kernel populates.
    fn freeze_column(
        &self,
        col: &ColumnState,
        last_mutation: u64,
    ) -> anker_vmem::Result<Arc<SnapCol>> {
        // Only actual materialisation work is spanned — cache hits and
        // reuses are the fast path and would drown the distribution.
        let _obs_mat = obs::Span::begin(&self.m.snapshot_materialize);
        let live = col.current_area();
        let bytes = live.mapped_bytes();
        // ORDERING: Relaxed — the commit section this runs in orders every
        // access to `last_cut`.
        let prev_cut = col.last_cut.load(Ordering::Relaxed);
        let read_through = prev_cut != NEVER_CUT && last_mutation > prev_cut;
        // The rewiring itself (the kernel remap) gets its own stage so the
        // report can split "vm_snapshot µs" out of the materialise total.
        let obs_rw = obs::Span::begin(&self.m.snapshot_rewire);
        let image_addr = if read_through {
            self.backend.vm_snapshot_read_through(live.addr(), bytes)?
        } else {
            self.backend.vm_snapshot(None, live.addr(), bytes)?
        };
        drop(obs_rw);
        col.last_cut.store(last_mutation, Ordering::Relaxed);
        self.m
            .pages_rewired
            .add(bytes.div_ceil(self.backend.page_size()));
        self.m.columns_materialized.inc();
        let mut area = ColumnArea::from_raw_on(Arc::clone(&self.backend), image_addr, live.rows());
        if read_through {
            area = area.read_through(live);
        }
        if area.reads_through() {
            self.m.images_read_through.inc();
        }
        Ok(Arc::new(SnapCol {
            area,
            as_of_mutation: last_mutation,
        }))
    }
}

/// Resolve the snapshot column of `(table, col)` for `epoch`,
/// materialising it under the commit lock on first access (§2.2.2 lazy
/// materialisation). The shared slow path behind both the per-transaction
/// cache ([`crate::Txn`]) and the per-reader cache
/// ([`crate::SnapshotReader`]): the double-checked lookup means the hot
/// path is one epoch-map probe and the commit lock is taken at most once
/// per (epoch, column) across the whole system.
pub(crate) fn resolve_snap_col(
    db: &crate::db::AnkerDb,
    epoch: &Arc<Epoch>,
    table: TableId,
    col: anker_storage::ColumnId,
) -> crate::error::Result<Arc<SnapCol>> {
    let key = (table.0, col.0 as u16);
    // The epoch read path bypasses `Txn::table`, but it observes the
    // table's data all the same: close its bulk-load window.
    let state = db.table_state(table);
    state.mark_observed();
    if let Some(sc) = epoch.col(key) {
        return Ok(sc);
    }
    // First access: materialise under the commit lock.
    let mut cs = db.lock_commit();
    if let Some(sc) = epoch.col(key) {
        return Ok(sc);
    }
    db.inner
        .snapman
        .materialize_column(&mut cs, &state, table.0, col.0 as u16)?;
    // A pinned epoch always receives the column: a write to it
    // materialises for every pinned epoch first (`note_write`). Missing
    // it here means a write bypassed the pin — the epoch can no longer
    // show one point in time, so the read fails instead of mixing two.
    epoch.col(key).ok_or(crate::error::DbError::EpochBypassed {
        table: table.0,
        col: col.0 as u16,
        epoch_ts: epoch.ts,
    })
}

#[cfg(test)]
mod tests {
    use super::SnapCol;
    use crate::config::DbConfig;
    use crate::db::AnkerDb;
    use crate::table::TableId;
    use crate::txn::TxnKind;
    use anker_mvcc::BLOCK_ROWS;
    use anker_storage::{ColumnDef, ColumnId, LogicalType, Schema, Value};
    use std::sync::Arc;

    fn two_column_db(rows: u32) -> (AnkerDb, TableId, ColumnId, ColumnId) {
        two_column_db_with(
            DbConfig::heterogeneous_serializable()
                .with_snapshot_every(1)
                .with_gc_interval(None),
            rows,
        )
    }

    /// [`two_column_db`] under `cfg`.
    fn two_column_db_with(cfg: DbConfig, rows: u32) -> (AnkerDb, TableId, ColumnId, ColumnId) {
        let db = AnkerDb::new(cfg);
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
        db.fill_column(t, a, (0..rows).map(|_| Value::Int(10).encode()))
            .unwrap();
        db.fill_column(t, b, (0..rows).map(|_| Value::Int(100).encode()))
            .unwrap();
        (db, t, a, b)
    }

    /// A handle to a column's live area keeps reading the column while an
    /// image of it freezes, retires and is unmapped, and another column
    /// materialises: a freeze takes a view of the live area and leaves it
    /// in place, and the engine never maps one area over another
    /// (§4.1.3 destination recycling is off).
    #[test]
    fn a_live_area_handle_is_never_parked_or_recycled() {
        let (db, t, a, b) = two_column_db(512);

        // A long-running OLTP transaction grabs a handle to column `a`'s
        // live area — what the read path uses for the versioned read.
        let t_stale = db.begin(TxnKind::Oltp);
        let stale_area = db.table_state(t).col(a.0).current_area().clone();

        // An OLAP transaction materialises column `a` for epoch E1: a view
        // of the live area freezes into the snapshot.
        let mut o1 = db.begin(TxnKind::Olap);
        assert_eq!(o1.get_value(t, a, 0).unwrap(), Value::Int(10));
        o1.commit().unwrap();

        // A write to `b` commits: it triggers epoch E2, which retires the
        // unpinned E1 and unmaps the frozen area.
        let mut w = db.begin(TxnKind::Oltp);
        w.update_value(t, b, 0, Value::Int(200)).unwrap();
        w.commit().unwrap();

        // A second OLAP transaction materialises column `b` for E2 into a
        // fresh view; it must not land on the live area `t_stale` reads.
        let mut o2 = db.begin(TxnKind::Olap);
        assert_eq!(o2.get_value(t, b, 0).unwrap(), Value::Int(200));
        o2.commit().unwrap();

        // The stale handle must keep seeing column `a`'s content.
        assert_eq!(
            stale_area.get(0).unwrap(),
            Value::Int(10).encode(),
            "a live area was overwritten under an active reader"
        );
        drop(t_stale);
    }

    /// Finding (b), closed by construction: on the OS backend a freeze
    /// maps the live column's file `MAP_PRIVATE` as the image and leaves
    /// the live column in place, and a copy-on-write split is one populate
    /// per private view. So over 2N epochs, each with writes under a
    /// pinned reader, `mmap` grows by exactly one per `vm_snapshot`, and
    /// the mapped views gauge equals the views alive — at any scale.
    #[cfg(target_os = "linux")]
    #[test]
    fn os_views_are_one_mmap_each_and_do_not_grow_with_epochs() {
        use crate::config::BackendKind;
        const PAGES: u32 = 128;
        const WRITES_PER_EPOCH: u32 = 4;
        const N: u32 = 12;
        let db = AnkerDb::new(
            DbConfig::heterogeneous_serializable()
                .with_snapshot_every(1)
                .with_gc_interval(None)
                .with_backend(BackendKind::Os),
        );
        let rows = PAGES * 512;
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
        let cols = [db.schema(t).col("a"), db.schema(t).col("b")];
        for c in cols {
            db.fill_column(t, c, (0..rows).map(|_| Value::Int(-1).encode()))
                .unwrap();
        }
        let state = db.table_state(t);
        let stat = |name: &str| db.metrics().counter(name).unwrap();
        let wired = || db.metrics().gauge("os_wired_runs").unwrap() as u64;
        let vals_per_page = state.col(0).current_area().vals_per_page();
        let n_pages = rows.div_ceil(vals_per_page);
        // Every view so far is an allocated area; from here a view is added
        // per `vm_snapshot` and removed per `munmap`.
        let views_at_start = wired();
        let (snaps_at_start, munmaps_at_start) =
            (stat("os_snapshots_total"), stat("os_munmap_calls_total"));
        let mut wired_at_n = None;
        for epoch in 0..2 * N {
            let (mmaps, snaps) = (stat("os_mmap_calls_total"), stat("os_snapshots_total"));
            let reader = db.snapshot_reader().unwrap();
            // Materialise both columns for the pinned epoch (the last page
            // is never written).
            for c in cols {
                assert_eq!(reader.get_value(t, c, rows - 1).unwrap(), Value::Int(-1));
            }
            let copies = stat("os_cow_copies_total");
            let mut written = Vec::new();
            for j in 0..WRITES_PER_EPOCH {
                let page = (epoch * WRITES_PER_EPOCH + j) % n_pages;
                let row = page * vals_per_page + epoch % vals_per_page;
                let mut w = db.begin(TxnKind::Oltp);
                for c in cols {
                    w.update_value(t, c, row, Value::Int(epoch as i64)).unwrap();
                }
                w.commit().unwrap();
                written.push(row);
            }
            assert_eq!(
                stat("os_cow_copies_total") - copies,
                2 * WRITES_PER_EPOCH as u64,
                "every write split a page the pinned epoch shares"
            );
            for &row in &written {
                assert_eq!(reader.get_value(t, cols[0], row).unwrap(), Value::Int(-1));
            }
            drop(reader);
            db.run_gc_once();
            assert_eq!(
                stat("os_mmap_calls_total") - mmaps,
                stat("os_snapshots_total") - snaps,
                "epoch {epoch}: mmap beyond one per vm_snapshot"
            );
            let views = views_at_start + (stat("os_snapshots_total") - snaps_at_start)
                - (stat("os_munmap_calls_total") - munmaps_at_start);
            assert_eq!(wired(), views, "epoch {epoch}: the gauge is not the views");
            if epoch + 1 == N {
                wired_at_n = Some(wired());
            }
            if epoch + 1 == 2 * N {
                assert_eq!(Some(wired()), wired_at_n, "the views grew with the epochs");
            }
        }
    }

    /// Every backend the engine runs on in this build.
    fn all_backends() -> Vec<crate::config::BackendKind> {
        use crate::config::BackendKind;
        #[cfg(target_os = "linux")]
        {
            vec![BackendKind::Sim, BackendKind::Os]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![BackendKind::Sim]
        }
    }

    /// A two-column database cutting an epoch after every commit, on
    /// `backend`, with `a` = 10 and `b` = 100 in every row.
    fn reuse_db(backend: crate::config::BackendKind) -> (AnkerDb, TableId, ColumnId, ColumnId) {
        let db = AnkerDb::new(
            DbConfig::heterogeneous_serializable()
                .with_snapshot_every(1)
                .with_gc_interval(None)
                .with_backend(backend),
        );
        let rows = 2 * BLOCK_ROWS + 7;
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
        let (a, b) = (db.schema(t).col("a"), db.schema(t).col("b"));
        db.fill_column(t, a, (0..rows).map(|_| Value::Int(10).encode()))
            .unwrap();
        db.fill_column(t, b, (0..rows).map(|_| Value::Int(100).encode()))
            .unwrap();
        (db, t, a, b)
    }

    fn write(db: &AnkerDb, t: TableId, c: ColumnId, row: u32, v: i64) {
        let mut w = db.begin(TxnKind::Oltp);
        w.update_value(t, c, row, Value::Int(v)).unwrap();
        w.commit().unwrap();
    }

    /// `(materialised, reused)` counter values.
    fn freezes(db: &AnkerDb) -> (u64, u64) {
        let m = db.metrics();
        (
            m.counter("db_columns_materialized_total").unwrap(),
            m.counter("snapshot_columns_reused_total").unwrap(),
        )
    }

    /// A column nobody wrote between two pinned epochs is served to the
    /// second by the first's frozen image: one shared `SnapCol` (same
    /// area, same zone map), no second `vm_snapshot`.
    #[test]
    fn unwritten_column_shares_one_image_across_pinned_epochs() {
        for backend in all_backends() {
            let (db, t, a, b) = reuse_db(backend);
            let r1 = db.snapshot_reader().unwrap();
            assert_eq!(r1.get_value(t, a, 5).unwrap(), Value::Int(10));
            let zm1 = r1
                .snap_col(t, a)
                .unwrap()
                .zone_map(LogicalType::Int, BLOCK_ROWS);
            // A write to the *other* column cuts a new epoch after commit.
            write(&db, t, b, 5, 200);
            let before = freezes(&db);
            let r2 = db.snapshot_reader().unwrap();
            assert!(r2.epoch_ts() > r1.epoch_ts(), "{backend:?}: a new epoch");
            assert_eq!(r2.get_value(t, a, 5).unwrap(), Value::Int(10));
            let (s1, s2) = (r1.snap_col(t, a).unwrap(), r2.snap_col(t, a).unwrap());
            assert!(Arc::ptr_eq(&s1, &s2), "{backend:?}: one shared image");
            assert_eq!(s1.area().addr(), s2.area().addr());
            let zm2 = s2.zone_map(LogicalType::Int, BLOCK_ROWS);
            assert!(Arc::ptr_eq(&zm1.unwrap(), &zm2.unwrap()), "{backend:?}");
            if cfg!(not(feature = "obs-off")) {
                assert_eq!(
                    freezes(&db),
                    (before.0, before.1 + 1),
                    "{backend:?}: +0 vm_snapshots, +1 reuse"
                );
            }
            // The written column still froze afresh for each epoch.
            assert_eq!(r1.get_value(t, b, 5).unwrap(), Value::Int(100));
            assert_eq!(r2.get_value(t, b, 5).unwrap(), Value::Int(200));
        }
    }

    /// A write committed while the column's image is the newest epoch's
    /// (the settled fast path, which never reaches `note_write`) leaves
    /// the image in place but stale: the next epoch must freeze afresh,
    /// and each reader sees its own epoch's value.
    #[test]
    fn committed_write_between_epochs_forces_a_fresh_freeze() {
        for backend in all_backends() {
            let (db, t, a, _) = reuse_db(backend);
            let r1 = db.snapshot_reader().unwrap();
            assert_eq!(r1.get_value(t, a, 5).unwrap(), Value::Int(10));
            write(&db, t, a, 5, 11);
            let before = freezes(&db);
            let r2 = db.snapshot_reader().unwrap();
            assert_eq!(
                r2.get_value(t, a, 5).unwrap(),
                Value::Int(11),
                "{backend:?}"
            );
            assert_eq!(
                r1.get_value(t, a, 5).unwrap(),
                Value::Int(10),
                "{backend:?}"
            );
            let (s1, s2) = (r1.snap_col(t, a).unwrap(), r2.snap_col(t, a).unwrap());
            assert!(
                !Arc::ptr_eq(&s1, &s2),
                "{backend:?}: a stale image was reused"
            );
            // Zone maps summarise each image's own content.
            let zm = |s: &SnapCol| s.zone_map(LogicalType::Int, BLOCK_ROWS).unwrap();
            assert_eq!(zm(&s1).block_range(0), (10.0, 10.0));
            assert_eq!(zm(&s2).block_range(0), (10.0, 11.0));
            if cfg!(not(feature = "obs-off")) {
                assert_eq!(freezes(&db), (before.0 + 1, before.1), "{backend:?}");
            }
        }
    }

    /// A write that reaches a pinned epoch missing its column freezes (or
    /// reuses) the pre-write image for that epoch before installing, and
    /// the image does not outlive the write: the epoch keeps showing the
    /// pre-write value and the next epoch sees the write.
    #[test]
    fn note_write_leaves_the_pinned_epoch_on_the_pre_write_value() {
        for backend in all_backends() {
            let (db, t, a, b) = reuse_db(backend);
            // An image of `a` exists from an earlier epoch...
            let r0 = db.snapshot_reader().unwrap();
            assert_eq!(r0.get_value(t, a, 5).unwrap(), Value::Int(10));
            write(&db, t, b, 0, 1);
            // ...and a later pinned epoch has not touched `a` yet.
            let r1 = db.snapshot_reader().unwrap();
            assert!(r1.epoch_ts() > r0.epoch_ts());
            let before = freezes(&db);
            write(&db, t, a, 5, 12);
            if cfg!(not(feature = "obs-off")) {
                assert_eq!(
                    freezes(&db),
                    (before.0, before.1 + 1),
                    "{backend:?}: the unwritten image serves the pinned epoch"
                );
            }
            assert_eq!(
                r1.get_value(t, a, 5).unwrap(),
                Value::Int(10),
                "{backend:?}"
            );
            assert_eq!(
                r0.get_value(t, a, 5).unwrap(),
                Value::Int(10),
                "{backend:?}"
            );
            let r2 = db.snapshot_reader().unwrap();
            assert_eq!(
                r2.get_value(t, a, 5).unwrap(),
                Value::Int(12),
                "{backend:?}"
            );
            // A write on the settled path (`a` is frozen for the newest
            // epoch, r2's) makes the image stale, so the next pinned
            // epoch's `note_write` must freeze afresh, before installing.
            drop((r0, r1));
            write(&db, t, a, 7, 14);
            let r3 = db.snapshot_reader().unwrap();
            let before = freezes(&db);
            write(&db, t, a, 6, 13);
            if cfg!(not(feature = "obs-off")) {
                assert_eq!(freezes(&db), (before.0 + 1, before.1), "{backend:?}");
            }
            for (row, v) in [(5, 12), (6, 10), (7, 14)] {
                assert_eq!(
                    r3.get_value(t, a, row).unwrap(),
                    Value::Int(v),
                    "{backend:?}"
                );
            }
            assert_eq!(
                r2.get_value(t, a, 7).unwrap(),
                Value::Int(10),
                "{backend:?}"
            );
            let r4 = db.snapshot_reader().unwrap();
            assert_eq!(
                r4.get_value(t, a, 6).unwrap(),
                Value::Int(13),
                "{backend:?}"
            );
        }
    }

    /// An image `note_write` drops that no epoch holds any more is
    /// unmapped before the write installs, so the write does not split a
    /// page for a view nobody can read — also while an older OLTP
    /// transaction is still open: only a handle to the image keeps it.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_dropped_image_is_unmapped_before_the_write_installs() {
        for older_oltp_open in [false, true] {
            let (db, t, a, b) = reuse_db(crate::config::BackendKind::Os);
            let older = older_oltp_open.then(|| db.begin(TxnKind::Oltp));
            let r = db.snapshot_reader().unwrap();
            assert_eq!(r.get_value(t, a, 5).unwrap(), Value::Int(10));
            drop(r);
            // A commit to `b` cuts a new epoch and retires the reader's, so
            // only the image keeps `a`'s frozen view mapped.
            write(&db, t, b, 0, 1);
            let copies = || db.metrics().counter("os_cow_copies_total").unwrap();
            let before = copies();
            write(&db, t, a, 5, 11);
            if cfg!(not(feature = "obs-off")) {
                assert_eq!(
                    copies(),
                    before,
                    "older OLTP open: {older_oltp_open}: the write split a page for a dropped image"
                );
            }
            drop(older);
        }
    }

    /// The pages of `area` mapped in this process, by index, from
    /// `/proc/self/pagemap` (bit 63 of a page's entry: present).
    #[cfg(target_os = "linux")]
    fn present_pages(area: &anker_storage::ColumnArea) -> Vec<u64> {
        use std::io::{Read, Seek, SeekFrom};
        let ps = area.mapped_bytes() / area.n_pages();
        let mut f = std::fs::File::open("/proc/self/pagemap").unwrap();
        (0..area.n_pages())
            .filter(|&p| {
                f.seek(SeekFrom::Start((area.addr() / ps + p) * 8)).unwrap();
                let mut entry = [0u8; 8];
                f.read_exact(&mut entry).unwrap();
                u64::from_le_bytes(entry) >> 63 == 1
            })
            .collect()
    }

    /// An image cut after a write to a column imaged before is read
    /// through the live column: a full scan and its zone-map build map
    /// none of its unsplit pages, so a split later finds no page-table
    /// entry to replace. The split copies the page aside in user space,
    /// so no page of the image's own mapping is ever present, even after
    /// splits. A first image, and an unwritten column's, is read
    /// zero-copy and mapped.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_read_through_image_maps_only_its_split_pages() {
        let (db, t, a, b) = two_column_db_with(
            DbConfig::heterogeneous_serializable()
                .with_snapshot_every(1)
                .with_gc_interval(None)
                .with_backend(crate::config::BackendKind::Os),
            16 * 512,
        );
        let rows_per_page = db.table_state(t).col(a.0).current_area().vals_per_page();
        let row_on = |page: u32| page * rows_per_page;
        let scan = |r: &crate::SnapshotReader| {
            r.scan(t)
                .range_i64(a, i64::MIN, i64::MAX)
                .project(&[a, b])
                .fold(0, |s, _, v| s + v[0].as_int() + v[1].as_int(), |x, y| x + y)
                .unwrap()
                .0
        };
        let r1 = db.snapshot_reader().unwrap();
        assert_eq!(scan(&r1), 16 * 512 * 110);
        let first = r1.snap_col(t, a).unwrap();
        assert!(!first.area().reads_through(), "a first image is zero-copy");
        assert_eq!(present_pages(first.area()).len(), 16);
        write(&db, t, a, 0, 11);
        let r2 = db.snapshot_reader().unwrap();
        assert_eq!(scan(&r2), 16 * 512 * 110 + 1);
        let (img, unwritten) = (r2.snap_col(t, a).unwrap(), r2.snap_col(t, b).unwrap());
        assert!(img.area().reads_through());
        assert!(img.words().is_none(), "no slice maps the image");
        assert!(!unwritten.area().reads_through());
        assert_eq!(present_pages(img.area()), Vec::<u64>::new());
        assert_eq!(present_pages(unwritten.area()).len(), 16);
        if cfg!(not(feature = "obs-off")) {
            let m = db.metrics();
            assert_eq!(m.counter("snapshot_images_read_through_total"), Some(1));
        }
        // Splits give the image its own copies of pages 3 and 9, aside
        // from its mapping; every read still sees the cut.
        write(&db, t, a, row_on(3) + 7, 12);
        write(&db, t, a, row_on(9), 13);
        assert_eq!(scan(&r2), 16 * 512 * 110 + 1);
        assert_eq!(r2.get_value(t, a, row_on(3) + 7).unwrap(), Value::Int(10));
        assert_eq!(present_pages(img.area()), Vec::<u64>::new());
        if cfg!(not(feature = "obs-off")) {
            let m = db.metrics();
            assert_eq!(m.counter("os_user_copies_total"), Some(2));
            assert_eq!(m.gauge("os_copy_pages_in_use"), Some(2));
        }
    }

    /// A bulk load leaves `last_mutation` alone, so it must drop an image
    /// frozen before it: under the eager-materialisation ablation a
    /// trigger freezes tables no transaction has touched yet, which may
    /// still be loaded, and the next epoch must see the load.
    #[test]
    fn a_bulk_load_after_an_eager_freeze_is_not_hidden_by_the_image() {
        let mut cfg = DbConfig::heterogeneous_serializable()
            .with_snapshot_every(1)
            .with_gc_interval(None);
        cfg.eager_materialization = true;
        let db = AnkerDb::new(cfg);
        let schema = || Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]);
        let (t1, t2) = (
            db.create_table("t1", schema(), 8).unwrap(),
            db.create_table("t2", schema(), 8).unwrap(),
        );
        let v = db.schema(t1).col("v");
        // The trigger after this commit freezes every column, t2's too.
        write(&db, t1, v, 0, 1);
        db.fill_column(t2, v, (0..8).map(|_| Value::Int(7).encode()))
            .unwrap();
        write(&db, t1, v, 0, 2);
        let r = db.snapshot_reader().unwrap();
        assert_eq!(r.get_value(t2, v, 3).unwrap(), Value::Int(7));
    }

    /// A zone map primed on the live, writable area must never prune a
    /// snapshot scan: the image a freeze cuts is a fresh handle whose
    /// cache starts empty.
    #[test]
    fn zone_map_primed_before_a_write_never_misprunes_after_freeze() {
        let db = AnkerDb::new(
            DbConfig::heterogeneous_serializable()
                .with_snapshot_every(1)
                .with_gc_interval(None),
        );
        let t = db
            .create_table(
                "t",
                Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
                64,
            )
            .unwrap();
        let v = db.schema(t).col("v");
        db.fill_column(t, v, (0..64).map(|i| Value::Int(i).encode()))
            .unwrap();

        // Prime a summary on the *live* area (max = 63).
        let zm = db
            .table_state(t)
            .col(v.0)
            .current_area()
            .zone_map(LogicalType::Int, BLOCK_ROWS)
            .unwrap();
        assert_eq!(zm.block_range(0), (0.0, 63.0));

        // A committed write moves a value far outside the primed bounds.
        let mut w = db.begin(TxnKind::Oltp);
        w.update_value(t, v, 3, Value::Int(1_000)).unwrap();
        w.commit().unwrap();

        // The OLAP scan below materialises the column: a view of the
        // written area freezes into the snapshot. Its zone map must reflect the write,
        // or the only matching block gets pruned and the row vanishes.
        let mut olap = db.begin(TxnKind::Olap);
        let (count, stats) = olap.scan_on(t).range_i64(v, 900, 1_100).count().unwrap();
        olap.commit().unwrap();
        assert_eq!(stats.blocks_skipped, 0, "stale zone map pruned the block");
        assert_eq!(count, 1, "the updated row must be found");
    }
}
