//! Table state: schema plus per-column storage and MVCC state.

use anker_mvcc::VersionedColumn;
use anker_storage::{ColumnArea, Schema};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Identifier of a table within its database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u16);

/// Runtime state of one column: the current (OLTP) area — re-pointed on
/// every snapshot materialisation, Figure 1 steps 4/7 — plus the column's
/// MVCC state and the timestamp of its newest committed write.
pub(crate) struct ColumnState {
    pub versioned: VersionedColumn,
    area: RwLock<ColumnArea>,
    /// Commit timestamp of the newest write to this column; a snapshot
    /// materialised now is valid for any epoch with `ts >=` this.
    pub last_mutation_ts: AtomicU64,
    /// Mark (timestamp + 1; 0 = never) of the newest epoch this column is
    /// settled for — materialised or damage-marked. Fast-path guard: when
    /// `>=` the newest epoch's mark, the write path can skip the snapshot
    /// manager entirely (`SnapshotManager::write_is_settled`).
    pub snapshot_mark: AtomicU64,
}

impl ColumnState {
    pub fn new(versioned: VersionedColumn, area: ColumnArea) -> ColumnState {
        ColumnState {
            versioned,
            area: RwLock::new(area),
            last_mutation_ts: AtomicU64::new(0),
            snapshot_mark: AtomicU64::new(0),
        }
    }

    /// A handle to the current most-recent representation. Callers must
    /// re-acquire per operation (never cache across a potential snapshot
    /// swap); the per-row timestamp protocol makes any interleaving safe.
    pub fn current_area(&self) -> ColumnArea {
        self.area.read().clone()
    }

    /// Swap in a fresh area (the `vm_snapshot` duplicate that becomes the
    /// new most-recent representation); returns the previous area, which
    /// becomes the read-only snapshot.
    ///
    /// The frozen area's zone-map cache is dropped at this point: a
    /// summary primed while the area was still the current, writable
    /// representation may predate its last installs, and a snapshot scan
    /// pruning against those stale min/max bounds would silently skip
    /// matching rows. The first predicate scan of the snapshot rebuilds
    /// the map from the now-immutable content.
    pub fn swap_area(&self, fresh: ColumnArea) -> ColumnArea {
        let mut guard = self.area.write();
        let old = std::mem::replace(&mut *guard, fresh);
        old.invalidate_zone_map();
        old
    }

    /// Newest committed write timestamp of this column.
    pub fn last_mutation(&self) -> u64 {
        // ORDERING: Acquire pairs with the commit pipeline's Release store
        // after each install — a materialiser that reads T also sees every
        // install at or before T, so the snapshot it cuts is exact.
        self.last_mutation_ts.load(Ordering::Acquire)
    }
}

/// Runtime state of one table.
pub(crate) struct TableState {
    pub name: String,
    pub schema: Schema,
    pub rows: u32,
    pub cols: Vec<ColumnState>,
    /// Latched when a transaction first resolves this table for data
    /// access; from then on bulk loads are rejected (see
    /// [`crate::AnkerDb::fill_column`]). Per table, so tables created
    /// after transactions have run elsewhere can still be loaded.
    pub observed: AtomicBool,
}

impl TableState {
    pub fn col(&self, idx: usize) -> &ColumnState {
        &self.cols[idx]
    }

    /// Record that a transaction resolved this table (one-shot latch; the
    /// steady state is a read-shared load).
    pub fn mark_observed(&self) {
        if !self.observed.load(Ordering::Relaxed) {
            // ORDERING: Release pairs with the bulk-load path's Acquire
            // check under the commit lock (`fill_column`), which must see
            // the observation before it would overwrite live data.
            self.observed.store(true, Ordering::Release);
        }
    }
}
